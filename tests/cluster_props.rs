//! Property-style tests for the cluster-level fleet simulator.
//!
//! No external crates, so properties run over seeded workloads from the
//! in-tree deterministic PRNG. They pin the determinism contract of
//! `cent_cluster::simulate_fleet`:
//!
//! 1. the merged `FleetReport` is **bit-identical across worker-thread
//!    counts** (1 / 2 / 8) for the same seed — including the acceptance
//!    shape, a 1000-group diurnal hour with over a million requests;
//! 2. session-affinity routing never splits a session across groups;
//! 3. power-of-two-choices routing is fully determined by its seed;
//! 4. the merged fleet histogram equals the concatenation of the
//!    per-group populations, in any merge order, and the fleet latency
//!    distributions equal those recomputed from the concatenated records;
//! 5. under fault injection: every request completes exactly once or is
//!    dropped after `max_attempts`, crash re-decode work never double
//!    counts completions, a seeded chaos schedule stays bit-identical
//!    across worker-thread counts, and a zero-fault schedule reproduces
//!    the faultless driver exactly;
//! 6. for the disaggregated prefill/decode driver: every request's prompt
//!    is served exactly once on the prefill tier and its continuation
//!    exactly once on the decode tier, the shared-pool capacity bound is
//!    never exceeded (publishes defer instead), the split fleet is
//!    bit-identical across 1/2/8 worker threads with handoffs in flight,
//!    and an all-`Colocated` configuration (the driver's one-tier
//!    topology) reproduces `simulate_fleet_instrumented` bit for bit;
//! 7. `FaultPlan::chaos` behaves at its rate extremes: `crash_rate = 0`
//!    draws no crashes and conserves every request, `crash_rate = 1`
//!    drives the whole fleet down at once and the driver defers the
//!    arrivals that land in the outage instead of losing them;
//! 8. survivable disaggregation: a decode-tier crash rescues its claimed
//!    contexts from the durable pool's parked copies exactly once (and
//!    beats the volatile-pool re-prefill fallback on first-token floors),
//!    warm rejoin is never worse than cold on the same schedule, a
//!    combined disagg + chaos + recovery + admission run is bit-identical
//!    across 1/2/8 workers under the extended conservation invariant
//!    `completed + rejected + dropped + shed = offered`, and an
//!    event-free schedule reproduces the fault-free split driver exactly;
//! 9. the public report folds rebuild a run's report from its outcomes:
//!    `FleetReport::from_outcomes` for a colocated run under a latency SLO
//!    (class rows judged against the SLO the groups ran under), and
//!    `FleetReport::from_outcomes_disagg` for a faulted split run.

use cent_cluster::{
    simulate_fleet, simulate_fleet_disagg, simulate_fleet_instrumented, AdmissionPolicy,
    ChaosRates, DisaggConfig, FaultPlan, FaultSchedule, FaultSpec, FleetOptions, FleetReport,
    JoinShortestQueue, PowerOfTwoChoices, RecoveryMode, RetryPolicy, RoundRobin, RoutingPolicy,
    SessionAffinity,
};
use cent_cost::KvSwapCost;
use cent_cxl::FabricConfig;
use cent_model::ModelConfig;
use cent_serving::{
    KvBudget, KvMode, LatencyStats, LengthSampler, LoadCurve, PriorityClass, RequestSpec,
    SchedulerConfig, ServeOptions, ServingSystem, Workload,
};
use cent_types::{ByteSize, SortedSamples, Time, TimeHistogram};

/// One pipeline group: 4 decode slots, 1 ms token cadence, 1000 tok/s
/// prefill — the serving crate's reference toy deployment.
fn group_system() -> ServingSystem {
    ServingSystem::from_parts(
        &ModelConfig::llama2_7b(),
        SchedulerConfig {
            replicas: 1,
            slots_per_replica: 4,
            kv_budget: KvBudget::tokens(4000),
            kv: KvMode::FullReservation,
        },
        Time::from_us(1000),
        1000.0,
        4000.0,
    )
}

fn fixed_trace(
    qps: f64,
    seed: u64,
    horizon_s: f64,
    prompt: usize,
    decode: usize,
) -> Vec<RequestSpec> {
    let w = Workload {
        lengths: LengthSampler::Fixed { prompt, decode },
        ..Workload::chatbot(qps, seed)
    };
    w.generate(Time::from_secs_f64(horizon_s), 4096)
}

fn run_threads(
    trace: &[RequestSpec],
    qps: f64,
    groups: usize,
    epoch: Time,
    threads: usize,
    mut router: Box<dyn RoutingPolicy>,
) -> cent_cluster::FleetReport {
    simulate_fleet(
        &group_system(),
        trace,
        qps,
        router.as_mut(),
        &FleetOptions::new(groups).with_threads(threads).with_epoch(epoch),
    )
}

#[test]
fn fleet_report_is_bit_identical_across_worker_threads() {
    let trace = fixed_trace(200.0, 17, 30.0, 16, 32);
    let epoch = Time::from_secs_f64(0.05);
    let routers: Vec<fn() -> Box<dyn RoutingPolicy>> = vec![
        || Box::new(JoinShortestQueue),
        || Box::new(PowerOfTwoChoices::seeded(42)),
        || Box::new(RoundRobin::default()),
        || Box::new(SessionAffinity),
    ];
    for make in routers {
        let base = run_threads(&trace, 200.0, 32, epoch, 1, make());
        assert_eq!(base.completed, trace.len());
        for threads in [2, 8] {
            let other = run_threads(&trace, 200.0, 32, epoch, threads, make());
            assert_eq!(base, other, "threads {threads} diverged from 1");
        }
    }
}

/// The ISSUE acceptance shape: a 1000-group fleet serving a diurnal hour
/// with over a million requests, bit-identical across 1/2/8 workers.
#[test]
fn thousand_group_diurnal_hour_is_thread_count_invariant() {
    let workload = Workload {
        lengths: LengthSampler::Fixed { prompt: 32, decode: 64 },
        ..Workload::chatbot(290.0, 4242)
    };
    let curve = LoadCurve::diurnal(3600.0, 0.5, 1.5);
    let trace = workload.generate_modulated(Time::from_secs_f64(3600.0), 4096, &curve, 77);
    assert!(trace.len() >= 1_000_000, "only {} requests", trace.len());
    let epoch = Time::from_secs_f64(1.0);
    let run = |threads: usize| {
        let mut router = PowerOfTwoChoices::seeded(9);
        simulate_fleet(
            &group_system(),
            &trace,
            290.0,
            &mut router,
            &FleetOptions::new(1000).with_threads(threads).with_epoch(epoch),
        )
    };
    let base = run(1);
    assert_eq!(base.submitted, trace.len());
    assert_eq!(base.completed, trace.len());
    assert_eq!(base.groups, 1000);
    for threads in [2, 8] {
        assert_eq!(base, run(threads), "threads {threads} diverged from 1");
    }
}

#[test]
fn session_affinity_never_splits_a_session() {
    let mut trace = fixed_trace(150.0, 23, 20.0, 16, 32);
    Workload::assign_sessions(&mut trace, 40, 5);
    let mut router = SessionAffinity;
    let fleet = simulate_fleet_instrumented(
        &group_system(),
        &trace,
        150.0,
        &mut router,
        &FleetOptions::new(16).with_epoch(Time::from_secs_f64(0.1)),
    );
    // Routing decisions: one group per session.
    let mut session_group = std::collections::BTreeMap::new();
    for (spec, &g) in trace.iter().zip(&fleet.routed) {
        let prior = session_group.entry(spec.session).or_insert(g);
        assert_eq!(*prior, g, "session {:?} split across groups", spec.session);
    }
    // And the served records agree: every record of a session lives in
    // that session's group outcome.
    for (g, outcome) in fleet.groups.iter().enumerate() {
        for r in &outcome.records {
            assert_eq!(session_group[&r.spec.session], g);
        }
    }
    assert!(session_group.len() <= 40);
}

#[test]
fn power_of_two_routing_is_deterministic_per_seed() {
    let trace = fixed_trace(150.0, 31, 15.0, 16, 32);
    let opts = FleetOptions::new(24).with_epoch(Time::from_secs_f64(0.1));
    let routed = |seed: u64| {
        let mut router = PowerOfTwoChoices::seeded(seed);
        simulate_fleet_instrumented(&group_system(), &trace, 150.0, &mut router, &opts).routed
    };
    assert_eq!(routed(1), routed(1), "same seed must reproduce every decision");
    assert_ne!(routed(1), routed(2), "different seeds should diverge");
}

#[test]
fn merged_fleet_histogram_equals_concatenated_populations() {
    let trace = fixed_trace(220.0, 53, 20.0, 16, 32);
    let mut router = JoinShortestQueue;
    let fleet = simulate_fleet_instrumented(
        &group_system(),
        &trace,
        220.0,
        &mut router,
        &FleetOptions::new(8).with_epoch(Time::from_secs_f64(0.05)),
    );
    // Histogram merge is order-independent and equals the concatenation.
    let mut forward = TimeHistogram::new();
    for o in &fleet.groups {
        forward.merge(&o.tbt);
    }
    let mut backward = TimeHistogram::new();
    for o in fleet.groups.iter().rev() {
        backward.merge(&o.tbt);
    }
    assert_eq!(forward, backward);
    assert_eq!(fleet.report.tbt, LatencyStats::from_histogram(&forward));
    assert_eq!(forward.count(), fleet.groups.iter().map(|o| o.tbt.count()).sum::<u64>());
    // Fleet latency distributions equal those recomputed from the
    // concatenated per-group record populations.
    let all: Vec<_> = fleet.groups.iter().flat_map(|o| o.records.iter()).collect();
    let ttfts = SortedSamples::new(all.iter().map(|r| r.ttft()).collect());
    let lats = SortedSamples::new(all.iter().map(|r| r.query_latency()).collect());
    assert_eq!(fleet.report.ttft, LatencyStats::from_sorted(&ttfts));
    assert_eq!(fleet.report.query_latency, LatencyStats::from_sorted(&lats));
    assert_eq!(fleet.report.completed, all.len());
}

#[test]
fn faulted_requests_complete_exactly_once_or_drop_after_max_attempts() {
    // Rolling crashes with a tight retry budget: every request either
    // completes on exactly one group or is dropped once its attempts are
    // exhausted — never both, never twice.
    let trace = fixed_trace(60.0, 71, 2.0, 10, 400);
    let specs: Vec<FaultSpec> = (0..4)
        .map(|k| FaultSpec::GroupCrash {
            group: k % 2,
            at: Time::from_secs_f64(0.3 + 0.4 * k as f64),
            recover_after: Some(Time::from_secs_f64(0.25)),
        })
        .collect();
    let retry = RetryPolicy { max_attempts: 2, backoff: Time::from_us(10_000) };
    let opts = FleetOptions::new(2)
        .with_epoch(Time::from_secs_f64(0.05))
        .with_faults(FaultSchedule::new(specs))
        .with_retry(retry);
    let mut router = JoinShortestQueue;
    let fleet = simulate_fleet_instrumented(&group_system(), &trace, 60.0, &mut router, &opts);
    assert!(fleet.faults.crashes >= 1);
    assert!(fleet.faults.retries > 0, "rolling crashes under load must orphan work");
    // Exactly-once: completion records carry unique request ids.
    let mut ids: Vec<u64> =
        fleet.groups.iter().flat_map(|o| o.records.iter().map(|r| r.spec.id.0)).collect();
    ids.sort_unstable();
    let mut unique = ids.clone();
    unique.dedup();
    assert_eq!(ids, unique, "a request completed on more than one group");
    // Conservation: completed + rejected + dropped covers the trace.
    assert_eq!(
        fleet.report.completed + fleet.report.rejected + fleet.faults.dropped.len(),
        trace.len()
    );
    // Dropped requests never also appear as completions.
    for (id, _) in &fleet.faults.dropped {
        assert!(ids.binary_search(&id.0).is_err(), "dropped {id:?} also completed");
    }
    // The retry budget is a hard cap on dispatches, so no request can be
    // orphaned more often than max_attempts.
    let mut orphan_counts = std::collections::BTreeMap::new();
    for (id, _) in &fleet.faults.orphaned {
        *orphan_counts.entry(id.0).or_insert(0u32) += 1;
    }
    assert!(orphan_counts.values().all(|&n| n <= retry.max_attempts));
}

#[test]
fn crash_redecode_repeats_work_but_never_completions() {
    // A crash loses the group's KV state: orphans re-prefill and re-decode
    // from scratch on the victim's survivors, so generated-token *work*
    // exceeds what the completions alone need — while the completion
    // records (the metrics population) still count each request once, with
    // TTFT measured from the original arrival across the failover.
    let trace = fixed_trace(60.0, 13, 2.0, 10, 400);
    let faults = FaultSchedule::new(vec![FaultSpec::GroupCrash {
        group: 0,
        at: Time::from_secs_f64(0.5),
        recover_after: Some(Time::from_secs_f64(0.8)),
    }]);
    let opts = FleetOptions::new(3).with_epoch(Time::from_secs_f64(0.05)).with_faults(faults);
    let mut router = JoinShortestQueue;
    let fleet = simulate_fleet_instrumented(&group_system(), &trace, 60.0, &mut router, &opts);
    assert!(!fleet.faults.orphaned.is_empty(), "a loaded group must strand work");
    assert_eq!(fleet.report.completed, trace.len());
    // `stats.tokens` is the live event-core counter (every generated
    // token, pre-crash progress included); `decode_tokens` is rebuilt from
    // the completion records. Work exceeds the record population, and the
    // records never double count.
    let work: u64 = fleet.groups.iter().map(|o| o.stats.tokens).sum();
    let useful: u64 =
        fleet.groups.iter().flat_map(|o| o.records.iter()).map(|r| r.spec.decode as u64).sum();
    assert_eq!(useful, 400 * trace.len() as u64);
    assert_eq!(useful, fleet.groups.iter().map(|o| o.report.decode_tokens).sum::<u64>());
    assert!(work > useful, "pre-crash decode progress is real work: {work} vs {useful}");
    // Every orphaned-then-completed request restarted after its crash and
    // kept its TTFT clock running from the original arrival.
    let records: std::collections::BTreeMap<u64, _> =
        fleet.groups.iter().flat_map(|o| o.records.iter().map(|r| (r.spec.id.0, r))).collect();
    for (id, at) in &fleet.faults.orphaned {
        let r = records[&id.0];
        assert!(r.first_token >= *at, "completion predates the crash that orphaned it");
        assert!(r.ttft() >= at.saturating_sub(r.spec.arrival));
    }
}

/// The ISSUE acceptance shape for fault injection: a seeded chaos schedule
/// over a 64-group diurnal fleet is bit-identical across 1/2/8 workers and
/// visibly degraded (availability below one, retries engaged, nonzero
/// failover percentiles).
#[test]
fn chaos_on_a_diurnal_fleet_is_thread_count_invariant() {
    let workload = Workload {
        lengths: LengthSampler::Fixed { prompt: 32, decode: 64 },
        ..Workload::chatbot(512.0, 909)
    };
    let curve = LoadCurve::diurnal(60.0, 0.5, 1.5);
    let trace = workload.generate_modulated(Time::from_secs_f64(60.0), 4096, &curve, 33);
    let faults = FaultPlan::chaos(7, 64, Time::from_secs_f64(60.0), &ChaosRates::default());
    assert!(!faults.is_empty(), "default chaos rates must inject something in a minute");
    let run = |threads: usize| {
        let mut router = PowerOfTwoChoices::seeded(5);
        simulate_fleet(
            &group_system(),
            &trace,
            512.0,
            &mut router,
            &FleetOptions::new(64)
                .with_threads(threads)
                .with_epoch(Time::from_secs_f64(0.05))
                .with_faults(faults.clone())
                .with_retry(RetryPolicy { max_attempts: 4, backoff: Time::from_us(20_000) }),
        )
    };
    let base = run(1);
    let degraded = base.degraded.as_ref().expect("chaos run reports degraded mode");
    assert!(degraded.availability < 1.0, "crash outages must dent availability");
    assert!(degraded.availability > 0.5, "the fleet is degraded, not dead");
    assert!(degraded.retries > 0, "failover must redispatch orphans");
    assert!(degraded.failover_latency.p50 > Time::ZERO, "failover percentiles populated");
    for threads in [2, 8] {
        assert_eq!(base, run(threads), "threads {threads} diverged under chaos");
    }
}

#[test]
fn zero_fault_schedule_reproduces_the_faultless_driver_exactly() {
    let trace = fixed_trace(200.0, 17, 10.0, 16, 32);
    let epoch = Time::from_secs_f64(0.05);
    let base = FleetOptions::new(16).with_epoch(epoch);
    let plain = simulate_fleet(&group_system(), &trace, 200.0, &mut JoinShortestQueue, &base);
    let empty = base.clone().with_faults(FaultSchedule::empty());
    assert_eq!(
        plain,
        simulate_fleet(&group_system(), &trace, 200.0, &mut JoinShortestQueue, &empty)
    );
    // Chaos with vanishing rates compiles to no events at all, and an
    // event-free schedule is *exactly* the healthy driver — not merely a
    // statistically similar one.
    let rates = ChaosRates {
        crash_rate: 1e-12,
        degrade_rate: 1e-12,
        straggler_probability: 0.0,
        ..ChaosRates::default()
    };
    let chaos = FaultPlan::chaos(3, 16, Time::from_secs_f64(10.0), &rates);
    assert!(chaos.is_empty());
    let quiet = base.with_faults(chaos);
    assert_eq!(
        plain,
        simulate_fleet(&group_system(), &trace, 200.0, &mut JoinShortestQueue, &quiet)
    );
}

/// One context transfer over the switch fabric: CENT per-token page size,
/// two extra switch hops versus a direct host link.
fn handoff_cost() -> KvSwapCost {
    KvSwapCost::cent(ByteSize::bytes(512)).with_switch_hops(2, &FabricConfig::cent(32))
}

#[test]
fn disagg_handoff_is_exactly_once_per_request() {
    // Mixed workload: most requests decode 40 tokens, every fifth decodes
    // a single token and therefore finishes on its prefill group with
    // nothing to hand off.
    let mut trace = fixed_trace(80.0, 91, 10.0, 100, 40);
    for spec in trace.iter_mut().step_by(5) {
        spec.decode = 1;
    }
    let singles = trace.iter().filter(|s| s.decode == 1).count() as u64;
    let multi = trace.len() as u64 - singles;
    let cfg = DisaggConfig::split(2, 2, 64_000, handoff_cost()).with_prefill_chunk(32);
    let mut router = JoinShortestQueue;
    let out = simulate_fleet_disagg(
        &group_system(),
        &trace,
        80.0,
        &mut router,
        &FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05)),
        &cfg,
    );
    assert_eq!(out.report.completed, trace.len());
    assert_eq!(out.log.handoffs, multi);
    assert_eq!(out.log.singles, singles);
    // Every request's prompt phase lands on the prefill tier exactly once.
    let tier_ids = |groups: &[usize]| -> Vec<u64> {
        let mut ids: Vec<u64> = groups
            .iter()
            .flat_map(|&g| out.groups[g].records.iter().map(|r| r.spec.id.0))
            .collect();
        ids.sort_unstable();
        ids
    };
    let prefill_ids = tier_ids(&[0, 1]);
    let mut all_ids: Vec<u64> = trace.iter().map(|s| s.id.0).collect();
    all_ids.sort_unstable();
    assert_eq!(prefill_ids, all_ids, "prefill tier must serve every prompt exactly once");
    // Every request with decode work left appears on the decode tier
    // exactly once — and the single-token requests never do.
    let decode_ids = tier_ids(&[2, 3]);
    let mut multi_ids: Vec<u64> = trace.iter().filter(|s| s.decode > 1).map(|s| s.id.0).collect();
    multi_ids.sort_unstable();
    assert_eq!(decode_ids, multi_ids, "decode tier must claim each handoff exactly once");
    // Token conservation across the phase split: the prefill tier decodes
    // exactly one token per request, the decode tier the remainder.
    let tier_tokens = |groups: &[usize]| -> u64 {
        groups.iter().map(|&g| out.groups[g].report.decode_tokens).sum()
    };
    assert_eq!(tier_tokens(&[0, 1]), trace.len() as u64);
    assert_eq!(
        tier_tokens(&[2, 3]),
        trace.iter().map(|s| s.decode as u64).sum::<u64>() - trace.len() as u64
    );
}

#[test]
fn disagg_pool_bound_defers_publishes_but_never_overflows() {
    // A pool that holds a single 101-token context at a time: publishes
    // must defer under concurrency, and nothing may slip past the bound.
    let trace = fixed_trace(100.0, 47, 5.0, 100, 40);
    let cfg = DisaggConfig::split(2, 2, 150, handoff_cost());
    let mut router = RoundRobin::default();
    let out = simulate_fleet_disagg(
        &group_system(),
        &trace,
        100.0,
        &mut router,
        &FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05)),
        &cfg,
    );
    assert!(out.log.deferred > 0, "a one-context pool under load must defer publishes");
    assert_eq!(out.log.pool_capacity_tokens, 150);
    assert!(
        out.log.pool_peak_tokens <= out.log.pool_capacity_tokens,
        "pool peak {} exceeded the {}-token bound",
        out.log.pool_peak_tokens,
        out.log.pool_capacity_tokens
    );
    // Deferral loses nothing: every request still completes.
    assert_eq!(out.report.completed, trace.len());
    assert_eq!(out.log.handoffs, trace.len() as u64);
    let disagg = out.report.disagg.as_ref().expect("split run must report a disagg section");
    assert_eq!(disagg.pool_peak_tokens, out.log.pool_peak_tokens);
    assert_eq!(disagg.deferred_publishes, out.log.deferred);
}

#[test]
fn disagg_fleet_is_bit_identical_across_worker_threads() {
    let trace = fixed_trace(120.0, 29, 15.0, 64, 48);
    let run = |threads: usize| {
        let cfg = DisaggConfig::split(2, 2, 64_000, handoff_cost()).with_prefill_chunk(32);
        let mut router = JoinShortestQueue;
        simulate_fleet_disagg(
            &group_system(),
            &trace,
            120.0,
            &mut router,
            &FleetOptions::new(4).with_threads(threads).with_epoch(Time::from_secs_f64(0.05)),
            &cfg,
        )
    };
    let base = run(1);
    assert!(base.log.handoffs > 0, "the invariance run must have handoffs in flight");
    assert_eq!(base.report.completed, trace.len());
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(base.report, other.report, "threads {threads} diverged from 1");
        assert_eq!(base.routed, other.routed, "threads {threads} changed routing");
        assert_eq!(base.log, other.log, "threads {threads} changed the disagg log");
    }
}

#[test]
fn colocated_disagg_config_is_the_base_driver_bit_for_bit() {
    let trace = fixed_trace(150.0, 61, 10.0, 16, 32);
    let opts = FleetOptions::new(8).with_epoch(Time::from_secs_f64(0.05));
    let mut router = PowerOfTwoChoices::seeded(3);
    let base = simulate_fleet_instrumented(&group_system(), &trace, 150.0, &mut router, &opts);
    let mut router = PowerOfTwoChoices::seeded(3);
    let out = simulate_fleet_disagg(
        &group_system(),
        &trace,
        150.0,
        &mut router,
        &opts,
        &DisaggConfig::colocated(8),
    );
    assert_eq!(out.report, base.report, "colocated disagg must not perturb the report");
    assert_eq!(out.routed, base.routed, "colocated disagg must not perturb routing");
    assert!(out.report.disagg.is_none(), "a colocated run reports no disagg section");
    assert_eq!(out.log, cent_cluster::DisaggLog::default());
}

#[test]
fn chaos_zero_crash_rate_draws_no_crashes_and_conserves_every_request() {
    // The crash process switched off entirely: the schedule may still
    // carry degrade windows and stragglers, but no request can be
    // orphaned or dropped, so completed + rejected covers the trace.
    let rates = ChaosRates { crash_rate: 0.0, ..ChaosRates::default() };
    let faults = FaultPlan::chaos(99, 8, Time::from_secs_f64(60.0), &rates);
    assert!(
        faults.specs().iter().all(|s| !matches!(s, FaultSpec::GroupCrash { .. })),
        "crash_rate 0 must draw no crash specs"
    );
    let trace = fixed_trace(100.0, 37, 10.0, 16, 32);
    let opts = FleetOptions::new(8).with_epoch(Time::from_secs_f64(0.05)).with_faults(faults);
    let mut router = JoinShortestQueue;
    let fleet = simulate_fleet_instrumented(&group_system(), &trace, 100.0, &mut router, &opts);
    assert_eq!(fleet.faults.crashes, 0);
    assert!(fleet.faults.orphaned.is_empty(), "nothing can orphan without a crash");
    assert!(fleet.faults.dropped.is_empty(), "nothing can drop without a crash");
    assert_eq!(fleet.report.completed + fleet.report.rejected, trace.len());
}

#[test]
fn chaos_saturated_crash_rate_defers_arrivals_through_whole_fleet_outages() {
    // One crash per group-second with long outages over a two-group fleet:
    // the schedule stays well-formed (every crash recovers, windows
    // sequential per group), and both groups are down simultaneously at
    // some point — arrivals landing in that window are deferred to the
    // next recovery, not lost.
    let rates = ChaosRates {
        crash_rate: 1.0,
        mean_outage_s: 4.0,
        degrade_rate: 0.0,
        straggler_probability: 0.0,
        ..ChaosRates::default()
    };
    let faults = FaultPlan::chaos(11, 2, Time::from_secs_f64(10.0), &rates);
    let crash_count = faults
        .specs()
        .iter()
        .filter(|s| {
            if let FaultSpec::GroupCrash { recover_after, .. } = s {
                assert!(
                    recover_after.expect("chaos always schedules recovery") > Time::ZERO,
                    "saturated chaos must still recover each crash"
                );
                true
            } else {
                false
            }
        })
        .count();
    assert!(crash_count >= 2, "rate 1.0 over 10 s x 2 groups must crash repeatedly");
    let trace = fixed_trace(50.0, 19, 10.0, 10, 40);
    let opts = FleetOptions::new(2)
        .with_epoch(Time::from_secs_f64(0.05))
        .with_faults(faults)
        .with_retry(RetryPolicy { max_attempts: 6, backoff: Time::from_us(10_000) });
    let mut router = JoinShortestQueue;
    let fleet = simulate_fleet_instrumented(&group_system(), &trace, 50.0, &mut router, &opts);
    assert!(fleet.faults.crashes >= 2);
    // Conservation under saturation: every request completes, is rejected
    // or is accounted dropped — never silently lost.
    assert_eq!(
        fleet.report.completed + fleet.report.rejected + fleet.faults.dropped.len(),
        trace.len()
    );
    // Reconstruct the applied outage windows and find an instant where the
    // whole fleet was down (an open-ended window never ends).
    let windows = |group: usize| -> Vec<(Time, Time)> {
        fleet
            .faults
            .down_windows
            .iter()
            .filter(|(g, _, _)| *g == group)
            .map(|&(_, from, up)| (from, up.unwrap_or(Time::from_ps(u64::MAX))))
            .collect()
    };
    let mut all_down: Vec<(Time, Time)> = Vec::new();
    for &(f0, u0) in &windows(0) {
        for &(f1, u1) in &windows(1) {
            let (start, end) = (f0.max(f1), u0.min(u1));
            if start < end {
                all_down.push((start, end));
            }
        }
    }
    assert!(!all_down.is_empty(), "saturated chaos must take the whole fleet down at once");
    // Arrivals inside an all-down window cannot be served before a group
    // recovers: the driver defers them, and every one that completed got
    // its first token only after the outage broke.
    let records: std::collections::BTreeMap<u64, Time> = fleet
        .groups
        .iter()
        .flat_map(|o| o.records.iter().map(|r| (r.spec.id.0, r.first_token)))
        .collect();
    let mut deferred_and_served = 0usize;
    for spec in &trace {
        for &(start, end) in &all_down {
            if spec.arrival >= start && spec.arrival < end {
                if let Some(&first_token) = records.get(&spec.id.0) {
                    assert!(
                        first_token >= end,
                        "request {} arrived during a whole-fleet outage ({} in [{}, {})) \
                         but got a token at {} before any group recovered",
                        spec.id.0,
                        spec.arrival,
                        start,
                        end,
                        first_token
                    );
                    deferred_and_served += 1;
                }
            }
        }
    }
    assert!(
        deferred_and_served > 0,
        "at least one arrival must be deferred through the outage and then served"
    );
}

/// Extended conservation: every offered request is completed, rejected,
/// dropped or shed — never silently lost.
fn assert_conserved(out: &cent_cluster::DisaggOutcome, offered: usize) {
    assert_eq!(
        out.report.completed
            + out.report.rejected
            + out.faults.dropped.len()
            + out.faults.shed.len(),
        offered,
        "extended conservation violated"
    );
}

#[test]
fn pool_rescued_contexts_complete_exactly_once() {
    // A decode-tier crash orphans its claimed contexts; with a durable
    // pool their parked copies are rescued by the surviving decode group
    // at switch-hop cost — never re-prefilled — and each rescued request
    // still completes exactly once per tier.
    let trace = fixed_trace(24.0, 101, 6.0, 100, 400);
    let faults = FaultSchedule::new(vec![FaultSpec::GroupCrash {
        group: 2,
        at: Time::from_secs_f64(2.0),
        recover_after: Some(Time::from_secs_f64(1.0)),
    }]);
    let cfg = DisaggConfig::split(2, 2, 256_000, handoff_cost());
    let mut router = JoinShortestQueue;
    let out = simulate_fleet_disagg(
        &group_system(),
        &trace,
        24.0,
        &mut router,
        &FleetOptions::new(4)
            .with_epoch(Time::from_secs_f64(0.05))
            .with_faults(faults)
            .with_retry(RetryPolicy { max_attempts: 3, backoff: Time::from_us(50_000) }),
        &cfg,
    );
    assert!(!out.faults.pool_rescued.is_empty(), "a loaded decode crash must strand claims");
    assert_eq!(out.faults.pool_lost, 0, "a roomy durable pool never loses a copy");
    // Exactly-once per tier: no id completes a phase twice — in
    // particular no rescued request was re-prefilled.
    let tier_ids = |groups: std::ops::Range<usize>| -> Vec<u64> {
        let mut ids: Vec<u64> =
            groups.flat_map(|g| out.groups[g].records.iter().map(|r| r.spec.id.0)).collect();
        ids.sort_unstable();
        ids
    };
    for ids in [tier_ids(0..2), tier_ids(2..4)] {
        let mut unique = ids.clone();
        unique.dedup();
        assert_eq!(ids, unique, "a phase completed twice");
    }
    // Every rescued id that was not dropped finished on the decode tier.
    let decode_ids = tier_ids(2..4);
    let dropped: Vec<u64> = out.faults.dropped.iter().map(|&(id, _)| id.0).collect();
    for (id, _) in &out.faults.pool_rescued {
        assert!(
            decode_ids.binary_search(&id.0).is_ok() || dropped.contains(&id.0),
            "rescued {id:?} neither completed nor dropped"
        );
    }
    assert_conserved(&out, trace.len());
    let degraded = out.report.degraded.as_ref().expect("faulted disagg reports degraded mode");
    assert_eq!(degraded.pool_rescued, out.faults.pool_rescued.len());
    assert!(degraded.rescue_latency.p50 > Time::ZERO, "rescue percentiles populated");
}

#[test]
fn pool_rescue_beats_reprefill_on_first_token_floors() {
    // Same trace, same decode-tier crash: the durable pool rescues parked
    // copies at transfer cost, the volatile ablation re-runs the whole
    // prompt behind the retry backoff. The failover join (crash instant to
    // the victim's next token) must therefore sit strictly lower for the
    // durable run: a rescue's floor is one pool transfer, a re-prefill's
    // floor is the backoff plus the full prompt pass.
    let backoff = Time::from_secs_f64(0.5);
    let trace = fixed_trace(16.0, 103, 6.0, 400, 400);
    let faults = || {
        FaultSchedule::new(vec![FaultSpec::GroupCrash {
            group: 2,
            at: Time::from_secs_f64(2.0),
            recover_after: Some(Time::from_secs_f64(1.0)),
        }])
    };
    let run = |cfg: DisaggConfig| {
        let mut router = JoinShortestQueue;
        simulate_fleet_disagg(
            &group_system(),
            &trace,
            16.0,
            &mut router,
            &FleetOptions::new(4)
                .with_epoch(Time::from_secs_f64(0.05))
                .with_faults(faults())
                .with_retry(RetryPolicy { max_attempts: 4, backoff }),
            &cfg,
        )
    };
    let durable = run(DisaggConfig::split(2, 2, 256_000, handoff_cost()));
    let volatile = run(DisaggConfig::split(2, 2, 256_000, handoff_cost()).with_volatile_pool());
    assert!(!durable.faults.pool_rescued.is_empty(), "durable pool must rescue");
    assert_eq!(durable.faults.pool_lost, 0);
    assert!(durable.faults.retries == 0, "nothing re-enters the prefill tier on a rescue");
    assert!(volatile.faults.pool_rescued.is_empty(), "volatile pool cannot rescue");
    assert!(volatile.faults.pool_lost > 0, "volatile pool loses every orphaned copy");
    assert!(volatile.faults.retries > 0, "lost copies re-prefill under the retry policy");
    let d = durable.report.degraded.as_ref().expect("degraded section");
    let v = volatile.report.degraded.as_ref().expect("degraded section");
    // Re-prefill cannot beat its floor: the backoff alone keeps every
    // volatile failover sample at or above it.
    assert!(v.failover_latency.p50 >= backoff, "re-prefill sits behind the retry backoff");
    assert!(
        d.failover_latency.mean < v.failover_latency.mean,
        "rescue must beat re-prefill: {} vs {}",
        d.failover_latency.mean,
        v.failover_latency.mean
    );
    assert_conserved(&durable, trace.len());
    assert_conserved(&volatile, trace.len());
}

#[test]
fn warm_rejoin_is_never_worse_than_cold_on_the_same_schedule() {
    // With a retry backoff at least as long as the outage, a cold
    // redispatch is never ready before the crashed group recovers — while
    // warm recovery re-seeds the retained contexts at the recovery instant
    // with their KV intact. The failover join can therefore only improve.
    let trace = fixed_trace(45.0, 201, 4.0, 16, 200);
    let faults = || {
        FaultSchedule::new(vec![FaultSpec::GroupCrash {
            group: 0,
            at: Time::from_secs_f64(1.0),
            recover_after: Some(Time::from_secs_f64(1.0)),
        }])
    };
    let run = |recovery: RecoveryMode| {
        let mut router = JoinShortestQueue;
        simulate_fleet_instrumented(
            &group_system(),
            &trace,
            45.0,
            &mut router,
            &FleetOptions::new(3)
                .with_epoch(Time::from_secs_f64(0.05))
                .with_faults(faults())
                .with_retry(RetryPolicy { max_attempts: 3, backoff: Time::from_secs_f64(1.5) })
                .with_recovery(recovery),
        )
    };
    let cold = run(RecoveryMode::Cold);
    let warm = run(RecoveryMode::Warm { retained_fraction: 1.0 });
    assert!(!cold.faults.orphaned.is_empty(), "a loaded group must strand work");
    assert_eq!(cold.faults.cold_rejoins, 1);
    assert!(warm.faults.warm_rejoins > 0, "full retention must warm-rejoin");
    assert_eq!(warm.faults.retries, 0, "fully retained orphans never redispatch");
    let cd = cold.report.degraded.as_ref().expect("degraded section");
    let wd = warm.report.degraded.as_ref().expect("degraded section");
    assert_eq!(cd.orphaned, wd.orphaned, "same schedule orphans the same work");
    assert!(
        wd.failover_latency.mean <= cd.failover_latency.mean,
        "warm mean failover regressed: {} vs {}",
        wd.failover_latency.mean,
        cd.failover_latency.mean
    );
    assert!(
        wd.failover_latency.max <= cd.failover_latency.max,
        "warm tail failover regressed: {} vs {}",
        wd.failover_latency.max,
        cd.failover_latency.max
    );
    for fleet in [&cold, &warm] {
        assert_eq!(
            fleet.report.completed + fleet.report.rejected + fleet.faults.dropped.len(),
            trace.len()
        );
    }
}

#[test]
fn disagg_chaos_with_recovery_and_admission_is_thread_count_invariant() {
    // The full survivability stack at once: disagg chaos (tier-weighted
    // crashes + pool-link degrades), warm recovery, bounded retries and a
    // class-aware admission policy — bit-identical across 1/2/8 workers.
    let trace = fixed_trace(100.0, 303, 20.0, 64, 48);
    let cfg = DisaggConfig::split(2, 2, 64_000, handoff_cost()).with_prefill_chunk(32);
    let rates = ChaosRates {
        crash_rate: 1.0 / 8.0,
        mean_outage_s: 2.0,
        pool_degrade_rate: 1.0 / 10.0,
        mean_pool_degrade_s: 2.0,
        ..ChaosRates::default()
    };
    let faults = FaultPlan::chaos_disagg(0xFA7, &cfg.roles, Time::from_secs_f64(20.0), &rates);
    assert!(!faults.is_empty(), "elevated rates must inject within 20 s");
    let run = |threads: usize| {
        let mut router = JoinShortestQueue;
        simulate_fleet_disagg(
            &group_system(),
            &trace,
            100.0,
            &mut router,
            &FleetOptions::new(4)
                .with_threads(threads)
                .with_epoch(Time::from_secs_f64(0.05))
                .with_faults(faults.clone())
                .with_retry(RetryPolicy { max_attempts: 4, backoff: Time::from_us(100_000) })
                .with_recovery(RecoveryMode::Warm { retained_fraction: 0.5 })
                .with_admission(
                    AdmissionPolicy::shed_above(4.0).with_class(PriorityClass::BATCH, 2.0),
                ),
            &cfg,
        )
    };
    let base = run(1);
    assert!(base.faults.crashes > 0, "chaos must crash within the horizon");
    assert_conserved(&base, trace.len());
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(base.report, other.report, "threads {threads} diverged from 1");
        assert_eq!(base.routed, other.routed, "threads {threads} changed routing");
        assert_eq!(base.log, other.log, "threads {threads} changed the disagg log");
        assert_eq!(base.faults, other.faults, "threads {threads} changed the fault log");
    }
}

#[test]
fn event_free_schedule_reproduces_the_fault_free_split_driver() {
    // The fault machinery must be pay-for-what-you-use: an empty schedule
    // (and the inert default recovery/admission knobs) keeps the split
    // driver on the exact fault-free path, bit for bit.
    let trace = fixed_trace(120.0, 29, 15.0, 64, 48);
    let cfg = DisaggConfig::split(2, 2, 64_000, handoff_cost()).with_prefill_chunk(32);
    let run = |opts: FleetOptions| {
        let mut router = JoinShortestQueue;
        simulate_fleet_disagg(&group_system(), &trace, 120.0, &mut router, &opts, &cfg)
    };
    let base_opts = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05));
    let plain = run(base_opts.clone());
    let quiet = run(base_opts
        .with_faults(FaultSchedule::empty())
        .with_recovery(RecoveryMode::Warm { retained_fraction: 1.0 })
        .with_admission(AdmissionPolicy::admit_all()));
    assert_eq!(plain.report, quiet.report, "inert knobs perturbed the report");
    assert_eq!(plain.routed, quiet.routed, "inert knobs perturbed routing");
    assert_eq!(plain.log, quiet.log, "inert knobs perturbed the disagg log");
    assert!(plain.report.degraded.is_none(), "no schedule, no degraded section");
    assert!(quiet.report.degraded.is_none(), "an event-free run reports no degraded section");
}

#[test]
fn admission_sheds_lower_classes_first_and_conserves_accounting() {
    // A fleet driven past saturation with a class-aware policy: batch
    // sheds at a lower threshold than interactive, every shed is counted
    // by class, and the extended conservation invariant still closes.
    let mut trace = fixed_trace(400.0, 71, 10.0, 64, 64);
    for spec in trace.iter_mut().skip(1).step_by(2) {
        spec.class = PriorityClass::BATCH;
    }
    let cfg = DisaggConfig::split(2, 2, 32_000, handoff_cost());
    let mut router = JoinShortestQueue;
    let out = simulate_fleet_disagg(
        &group_system(),
        &trace,
        400.0,
        &mut router,
        &FleetOptions::new(4)
            .with_epoch(Time::from_secs_f64(0.05))
            .with_admission(AdmissionPolicy::shed_above(3.0).with_class(PriorityClass::BATCH, 1.0)),
        &cfg,
    );
    assert!(!out.faults.shed.is_empty(), "saturation must shed");
    let by_class = |class: PriorityClass| -> usize {
        out.faults.shed.iter().filter(|&&(_, c)| c == class).count()
    };
    assert!(by_class(PriorityClass::BATCH) > 0, "batch sheds first");
    assert!(
        by_class(PriorityClass::BATCH) >= by_class(PriorityClass::INTERACTIVE),
        "the lower threshold cannot shed less on an even class mix"
    );
    assert_conserved(&out, trace.len());
    let degraded = out.report.degraded.as_ref().expect("shedding reports degraded mode");
    assert_eq!(degraded.shed, out.faults.shed.len());
    assert_eq!(
        degraded.shed_by_class.iter().map(|&(_, n)| n).sum::<usize>(),
        degraded.shed,
        "per-class shed counts cover every shed"
    );
}

#[test]
fn standby_spares_promote_to_cover_crashes() {
    // A two-spare standby reserve on the decode tier: the crash of a
    // serving decode group promotes a spare, so the tier keeps serving and
    // the promotion is counted.
    let trace = fixed_trace(20.0, 401, 6.0, 64, 200);
    let faults = FaultSchedule::new(vec![FaultSpec::GroupCrash {
        group: 3,
        at: Time::from_secs_f64(1.0),
        recover_after: Some(Time::from_secs_f64(2.0)),
    }]);
    let cfg = DisaggConfig::split(2, 3, 128_000, handoff_cost());
    let mut router = JoinShortestQueue;
    let out = simulate_fleet_disagg(
        &group_system(),
        &trace,
        20.0,
        &mut router,
        &FleetOptions::new(5)
            .with_epoch(Time::from_secs_f64(0.05))
            .with_faults(faults)
            .with_retry(RetryPolicy { max_attempts: 3, backoff: Time::from_us(100_000) })
            .with_recovery(RecoveryMode::Standby { spares: 1 }),
        &cfg,
    );
    assert_eq!(out.faults.promotions, 1, "the decode spare must promote on the crash");
    assert_conserved(&out, trace.len());
    // The promoted spare (the last decode group) actually served.
    assert!(out.groups[4].report.completed > 0, "the promoted spare never served");
}

#[test]
fn from_outcomes_rebuilds_a_colocated_report_under_an_slo() {
    // Two classes past a 4-group fleet's capacity, under an SLO tight
    // enough that queueing misses it: the rebuilt class rows must count
    // deadline hits against the SLO the groups ran under.
    let mut trace = fixed_trace(90.0, 53, 10.0, 64, 64);
    for spec in trace.iter_mut().skip(1).step_by(2) {
        spec.class = PriorityClass::BATCH;
    }
    let slo = Time::from_secs_f64(0.2);
    let opts = FleetOptions::new(4)
        .with_epoch(Time::from_secs_f64(0.05))
        .with_serve(ServeOptions::default().with_slo(slo));
    let mut router = JoinShortestQueue;
    let out = simulate_fleet_instrumented(&group_system(), &trace, 90.0, &mut router, &opts);
    assert_eq!(out.report.classes.len(), 2, "both classes report a row");
    assert!(
        out.report.classes.iter().any(|c| c.deadline_hits < c.completed),
        "the SLO must reject some completions: {:?}",
        out.report.classes
    );
    assert!(out.report.classes.iter().any(|c| c.deadline_hits > 0), "the SLO must admit some");
    assert_eq!(FleetReport::from_outcomes(90.0, &out.groups), out.report);
}

#[test]
fn from_outcomes_disagg_rebuilds_a_faulted_split_report() {
    // Disagg chaos over a volatile pool with tight retries: decode-tier
    // crashes send requests back through the prefill tier (chains of
    // several prefill records) and some run out of attempts (drops). The
    // rebuilt report joins the same phase records, drops and SLO hits.
    let trace = fixed_trace(60.0, 307, 20.0, 64, 48);
    let cfg = DisaggConfig::split(2, 2, 64_000, handoff_cost())
        .with_prefill_chunk(32)
        .with_volatile_pool();
    let rates = ChaosRates { crash_rate: 1.0 / 4.0, mean_outage_s: 2.0, ..ChaosRates::default() };
    let faults = FaultPlan::chaos_disagg(0xFA9, &cfg.roles, Time::from_secs_f64(20.0), &rates);
    let slo = Time::from_secs_f64(0.25);
    let mut router = JoinShortestQueue;
    let out = simulate_fleet_disagg(
        &group_system(),
        &trace,
        60.0,
        &mut router,
        &FleetOptions::new(4)
            .with_epoch(Time::from_secs_f64(0.05))
            .with_serve(ServeOptions::default().with_slo(slo))
            .with_faults(faults)
            .with_retry(RetryPolicy { max_attempts: 2, backoff: Time::from_us(100_000) }),
        &cfg,
    );
    assert!(out.faults.pool_lost > 0, "a volatile pool loses crashed claims");
    assert!(!out.faults.dropped.is_empty(), "two attempts must drop some requests");
    let mut prefill_ids: Vec<u64> =
        out.groups[..2].iter().flat_map(|o| o.records.iter().map(|r| r.spec.id.0)).collect();
    let prefill_records = prefill_ids.len();
    prefill_ids.sort_unstable();
    prefill_ids.dedup();
    assert!(prefill_records > prefill_ids.len(), "lost copies must re-prefill");
    assert!(out.report.classes.iter().any(|c| c.deadline_hits < c.completed), "SLO engaged");
    let rebuilt = FleetReport::from_outcomes_disagg(
        60.0,
        &out.groups,
        &cfg.roles,
        &out.log,
        Some(&out.faults),
        Some(slo),
    );
    assert_eq!(rebuilt, out.report);
}
