//! The beyond-paper sweeps over the paper's PP/8 Llama2-7B deployment, one
//! entry of the experiment table each:
//!
//! * `serving_load` — offered load vs p99 latency, the serving-level
//!   counterpart of the paper's QoS study (§7.1) →
//!   `results/serving_load_sweep.json`;
//! * `serving_policy` — KV accounting × spill tier × scheduling policy
//!   through saturation (§5.4 capacity management plus the swap-to-CXL KV
//!   tier) → `results/serving_policy_sweep.json`;
//! * `cluster` — router policy × diurnal offered load on a fleet →
//!   `results/BENCH_cluster.json`;
//! * `fault` — crash rate × router under shared chaos schedules, plus a
//!   survivable-disaggregation shape → `results/BENCH_faults.json`;
//! * `disagg` — colocated vs prefill/decode tier splits over the shared KV
//!   pool → `results/BENCH_disagg.json`.
//!
//! `--smoke` is the CI mode: each entry runs a smaller shape. The fleet
//! entries assert their invariants in both modes (see each entry's docs).
//! `serving_load` takes under a second in full, so it has no smaller shape
//! and runs the same in both modes.
//!
//! Every sweep is bit-for-bit reproducible: traces are seeded, lower load
//! points derive their traces by exact Poisson thinning of the top rate's,
//! and parallel points return in sweep order.

use cent_bench::{pool_split, sharegpt, sharegpt_capacity, synthetic, Report, SeriesTable};
use cent_cluster::{
    simulate_fleet, simulate_fleet_disagg, simulate_fleet_instrumented, AdmissionPolicy,
    ChaosRates, DisaggConfig, DisaggOutcome, FaultPlan, FaultSchedule, FaultSpec, FleetOptions,
    FleetReport, JoinShortestQueue, PowerOfTwoChoices, RecoveryMode, RetryPolicy, RoundRobin,
    RoutingPolicy, SessionAffinity,
};
use cent_serving::{
    ArrivalProcess, ClassMix, DeadlineAware, KvBudget, KvMode, KvSpillConfig, KvSpillMode,
    LengthSampler, LoadCurve, RequestSpec, ServeOptions, ServingReport, ServingSystem,
    ShortestRemainingDecode, Workload,
};
use cent_types::Time;

/// Runs `f` on every item in its own scoped thread and returns the results
/// in item order, so the output never depends on thread interleaving.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.iter().map(|item| scope.spawn(move || f(item))).collect();
        handles.into_iter().map(|h| h.join().expect("a sweep point panicked")).collect()
    })
}

/// The title marker of a smoke-mode report.
fn tag(smoke: bool) -> &'static str {
    if smoke {
        " (smoke)"
    } else {
        ""
    }
}

/// Worker threads for the fleet sweeps (their reports are thread-count
/// invariant, so this only sets how fast they run).
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Router factories: each sweep point gets a fresh router so per-point
/// results never depend on sweep order.
fn routers() -> Vec<(&'static str, Box<dyn RoutingPolicy>)> {
    vec![
        ("jsq", Box::new(JoinShortestQueue)),
        ("p2c", Box::new(PowerOfTwoChoices::seeded(0xD1CE))),
        ("rr", Box::new(RoundRobin::default())),
        ("affinity", Box::new(SessionAffinity)),
    ]
}

/// Fleet reports per router, each a list of `(sweep point, report)` rows.
type RouterRows = Vec<(&'static str, Vec<(String, FleetReport)>)>;

/// Offered load from 25% to 150% of the chatbot capacity, anchored on
/// `capacity_qps(512, 3584)` — the tighter of the decode- and prefill-side
/// limits, so the anchor stays right for prompt-heavy what-ifs too. Traces
/// the classic throughput–latency knee. The hour-long trace is generated
/// once at the top rate; every lower point thins it.
pub fn serving_load(system: &ServingSystem, _smoke: bool) {
    const LOADS: [f64; 8] = [0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5];
    let capacity = system.capacity_qps(512, 3584);
    let max_load = LOADS[LOADS.len() - 1];
    let base =
        Workload::chatbot(max_load * capacity, 0xCE27).generate(Time::from_secs_f64(3600.0), 4096);
    let reports = par_map(&LOADS, |&load| {
        if load == max_load {
            system.serve_trace(&base, load * capacity)
        } else {
            let trace = Workload::thin_trace(&base, load / max_load, 0xCE27 ^ load.to_bits());
            system.serve_trace(&trace, load * capacity)
        }
    });
    let rows: Vec<(String, ServingReport)> =
        LOADS.iter().map(|load| format!("{load:.2}x")).zip(reports).collect();
    let mut report = Report::new(
        "serving_load_sweep",
        "Offered load vs p99 latency (Llama2-7B, 8 devices, 512/3584 chatbot mix)",
        "throughput plateaus at the steady-state evaluate() rate while p99 \
         latency rises sharply past the saturation knee",
    );
    let series: &SeriesTable<ServingReport> = &[
        ("decode throughput", "tokens/s", |r| r.tokens_per_s),
        ("TTFT p99", "s", |r| r.ttft.p99.as_secs()),
        ("query latency p99", "s", |r| r.query_latency.p99.as_secs()),
    ];
    report.push_table("", &rows, series);
    report.emit();
}

/// Serves every `config × trace` cell of a grid in parallel; cells return
/// in `(config, trace)` order.
fn serve_grid(
    system: &ServingSystem,
    configs: &[(&'static str, ServeOptions)],
    traces: &[(f64, Vec<RequestSpec>)],
) -> Vec<ServingReport> {
    let cells: Vec<usize> = (0..configs.len() * traces.len()).collect();
    par_map(&cells, |&idx| {
        let (rate, trace) = &traces[idx % traces.len()];
        system.serve_trace_with(trace, *rate, configs[idx / traces.len()].1.clone())
    })
}

/// KV accounting modes, spill tiers and scheduling policies through
/// saturation. The full run pins the deployment at a capacity-managed
/// operating point — KV budget for a third of the slots' full 4096-token
/// contexts, so the reservation strategy decides concurrency — and sweeps
/// the chatbot (512/3584) and ShareGPT-like mixes across the knee for six
/// configurations: full-reservation FIFO; token-granular FIFO with
/// recompute-only, swap-only and cost-driven spill; token-granular
/// shortest-remaining-decode; and deadline-aware. Token-granular admission
/// packs roughly `budget / (prompt + decode/2)` queries where full
/// reservation packs `budget / (prompt + decode)`; the swap tier turns
/// eviction stalls into CXL round trips whenever the host link is cheaper.
///
/// The smoke shape is a synthetic KV-starved 1×8-slot deployment at one
/// saturated load with all three spill modes, written to
/// `results/serving_policy_sweep_smoke.json`; it asserts every request is
/// accounted for and that exactly the swap-capable modes swapped.
pub fn serving_policy(system: &ServingSystem, smoke: bool) {
    if smoke {
        return serving_policy_smoke();
    }
    const LOADS: [f64; 4] = [0.5, 0.8, 1.0, 1.3];
    let budget = KvBudget::tokens((system.slots_per_replica() as u64 * 4096).div_ceil(3));
    let system = system.clone().with_kv_budget(budget);
    // Steady state runs all slots; per-token cadence = slots / steady.
    let token_interval_s = system.total_slots() as f64 / system.steady_state_tokens_per_s();
    // Host pool sized at 4x the device budget, costed by the deployment's
    // own footprint over the paper's CXL host link.
    let spill = KvSpillConfig::cost_driven(4 * budget.tokens, system.swap_cost());
    let mixes = [
        ("chatbot", LengthSampler::Chatbot, 512, 3584),
        ("sharegpt", LengthSampler::ShareGpt, 164, 222),
    ];

    let mut report = Report::new(
        "serving_policy_sweep",
        "KV accounting × spill tier × scheduling policy through saturation (Llama2-7B, \
         8 devices, capacity-managed KV budget)",
        "token-granular occupancy admits more concurrent queries than full \
         reservation (§5.4 capacity management); the cost-driven swap tier \
         converts recompute stalls into cheaper CXL round trips",
    );
    for (mix, lengths, prompt, decode) in mixes {
        let capacity = system.capacity_qps(prompt, decode);
        // SLO: 2x the uncontended service time of the nominal shape.
        let slo = Time::from_secs_f64(2.0 * decode as f64 * token_interval_s);
        let token = || ServeOptions::token_granular().with_slo(slo);
        let configs = [
            ("full+fifo", ServeOptions::default().with_slo(slo)),
            ("token+fifo", token()),
            ("token+swap", token().with_spill(spill.with_mode(KvSpillMode::SwapOnly))),
            ("token+cost", token().with_spill(spill.with_mode(KvSpillMode::CostDriven))),
            ("token+srd", token().with_policy(Box::new(ShortestRemainingDecode))),
            ("token+deadline", token().with_policy(Box::new(DeadlineAware { slo }))),
        ];
        println!(
            "{mix} mix: capacity {capacity:.3} q/s | KV budget {} tokens/replica | host pool {} \
             | SLO {slo}",
            budget.tokens, spill.host_pool_tokens,
        );
        // One trace per load, generated once and shared across configs.
        let traces: Vec<(f64, Vec<RequestSpec>)> = LOADS
            .iter()
            .map(|load| {
                let w = Workload {
                    arrivals: ArrivalProcess::Poisson { rate_qps: load * capacity },
                    lengths,
                    seed: 0xCE27,
                    classes: ClassMix::default(),
                };
                (load * capacity, w.generate(Time::from_secs_f64(600.0), 4096))
            })
            .collect();
        let cells = serve_grid(&system, &configs, &traces);
        for ((config, _), reports) in configs.iter().zip(cells.chunks(LOADS.len())) {
            let rows: Vec<(String, &ServingReport)> =
                LOADS.iter().map(|load| format!("{load:.2}x")).zip(reports).collect();
            report.push_rows(&format!("{mix} tokens/s [{config}]"), "tokens/s", &rows, |r| {
                r.tokens_per_s
            });
            report.push_rows(&format!("{mix} goodput [{config}]"), "q/s", &rows, |r| r.goodput_qps);
            report.push_rows(&format!("{mix} slot util [{config}]"), "fraction", &rows, |r| {
                r.slot_utilization
            });
        }
    }
    report.emit();
}

fn serving_policy_smoke() {
    // Budget for ~2.7 full 288-token contexts across 8 slots.
    let system = synthetic(1, 8, 768, KvMode::FullReservation, 1000.0);
    let capacity = system.capacity_qps(32, 256);
    let spill = KvSpillConfig::cost_driven(4 * 768, system.swap_cost());
    let configs: Vec<(&'static str, ServeOptions)> = KvSpillMode::ALL
        .iter()
        .map(|&mode| {
            (mode.name(), ServeOptions::token_granular().with_spill(spill.with_mode(mode)))
        })
        .collect();
    let w = Workload {
        arrivals: ArrivalProcess::Poisson { rate_qps: 1.5 * capacity },
        lengths: LengthSampler::Fixed { prompt: 32, decode: 256 },
        seed: 0xCE27,
        classes: ClassMix::two_tier(0.5),
    };
    let traces = [(1.5 * capacity, w.generate(Time::from_secs_f64(20.0), 4096))];
    let cells = serve_grid(&system, &configs, &traces);

    let mut report = Report::new(
        "serving_policy_sweep_smoke",
        "KV spill modes at a saturated KV-starved point (synthetic 1x8-slot deployment)",
        "all three KvSpillModes drain the same trace; swap-capable modes divert \
         evictions to the CXL host pool",
    );
    println!("smoke: capacity {capacity:.3} q/s | budget 768 tokens");
    for ((name, _), r) in configs.iter().zip(&cells) {
        assert_eq!(r.completed, r.submitted - r.rejected, "{name}: requests lost");
        if *name != "recompute" {
            assert!(r.swaps > 0, "{name}: swap tier never engaged");
        } else {
            assert_eq!(r.swaps, 0, "recompute-only must not swap");
        }
        let points: [(String, f64); 5] = [
            ("tokens/s".into(), r.tokens_per_s),
            ("goodput".into(), r.goodput_qps),
            ("preemptions".into(), r.preemptions as f64),
            ("swaps".into(), r.swaps as f64),
            ("stall_s".into(), r.eviction_stall().as_secs()),
        ];
        report.push_series(&format!("spill {name}"), "mixed", &points);
    }
    report.emit();
}

/// Router policy × offered load on a fleet of PP/8 deployments: fleet-wide
/// tail latency, balance and utilization for the four routers across
/// diurnal load points (0.5–1.5× swings of each point's base rate). The
/// ShareGPT-like trace is generated once at the top rate and thinned for
/// the rest; sessions (~8 per group) make the affinity router meaningful
/// and are inert for the load-aware ones.
///
/// Asserts that every generated request is routed, served and reported
/// exactly once per point. Smoke: 32 groups, two load points over a
/// two-minute diurnal period.
pub fn cluster(system: &ServingSystem, smoke: bool) {
    let (groups, horizon_s) = if smoke { (32, 120.0) } else { (256, 1800.0) };
    let loads: &[f64] = if smoke { &[0.6, 1.0] } else { &[0.4, 0.6, 0.8, 1.0] };
    let fleet_capacity = sharegpt_capacity(system, groups);
    let max_load = loads[loads.len() - 1];
    let curve = LoadCurve::diurnal(horizon_s, 0.5, 1.5);
    let horizon = Time::from_secs_f64(horizon_s);
    let base =
        sharegpt(max_load * fleet_capacity, 0xF1EE7).generate_modulated(horizon, 4096, &curve, 99);
    let opts = FleetOptions::new(groups)
        .with_threads(host_threads())
        .with_epoch(Time::from_secs_f64(0.25));
    println!(
        "{groups}-group fleet | capacity {fleet_capacity:.0} q/s | diurnal 0.5-1.5x over \
         {horizon_s} s | {} requests at {max_load:.1}x\n",
        base.len()
    );

    let mut results: RouterRows =
        routers().into_iter().map(|(name, _)| (name, Vec::new())).collect();
    for &load in loads {
        let mut trace = if load == max_load {
            base.clone()
        } else {
            Workload::thin_trace(&base, load / max_load, 0xF1EE7 ^ load.to_bits())
        };
        Workload::assign_sessions(&mut trace, groups as u64 * 8, 0xBEEF);
        for ((name, rows), (_, mut router)) in results.iter_mut().zip(routers()) {
            let r = simulate_fleet(system, &trace, load * fleet_capacity, router.as_mut(), &opts);
            assert_eq!(r.submitted, trace.len(), "{name} {load}x lost arrivals");
            assert_eq!(
                r.completed + r.rejected,
                trace.len(),
                "{name} {load}x: requests neither completed nor rejected"
            );
            rows.push((format!("{load:.1}x"), r));
        }
    }

    let mut report = Report::new(
        "BENCH_cluster",
        &format!(
            "Cluster router sweep{}: {groups}-group PP/8 fleet, diurnal ShareGPT mix",
            tag(smoke)
        ),
        "the paper serves one CENT deployment; this sweep scales the serving study to a \
         routed fleet — load-aware routing holds the diurnal-peak tail that round-robin pays",
    );
    let series: &SeriesTable<FleetReport> = &[
        ("TTFT p99", "s", |r| r.ttft.p99.as_secs()),
        ("query latency p99", "s", |r| r.query_latency.p99.as_secs()),
        ("router imbalance", "max/mean submitted", |r| r.imbalance.max_share),
        ("slot utilization", "mean fraction", |r| r.slot_utilization.mean),
    ];
    for (name, rows) in &results {
        report.push_table(&format!("{name} "), rows, series);
    }
    report.emit();
}

/// Fleet availability, retries and failover tails vs crash rate × router
/// on PP/8 deployments. Each crash rate compiles one seeded
/// [`FaultPlan::chaos`] schedule (ten-second mean outages, host-link
/// degradation windows, stragglers) shared by every router, so the
/// policies face identical failures; rate zero is the healthy driver bit
/// for bit. The load is a moderate 0.55× of capacity: failover spends
/// headroom, and the diurnal peak (1.5× of base) stays under capacity, so
/// the tails measure failover rather than overload.
///
/// A final 2-prefill/2-decode split of the same deployment, with a
/// decode-tier crash, warm recovery and saturation admission, exercises
/// survivable disaggregation: the crashed tier's claimed contexts come back
/// from the pool's parked copies instead of re-prefill. It always asserts
/// the extended invariant (`completed + rejected + dropped + shed =
/// offered`), that rescues engaged and that the roomy pool lost nothing.
///
/// The router grid asserts conservation (`completed + rejected + dropped
/// = offered`) and, under crashes, that failover engaged (availability
/// dented, orphans retried). Smoke: 16 groups and two crash rates.
pub fn fault(system: &ServingSystem, smoke: bool) {
    let (groups, horizon_s) = if smoke { (16, 120.0) } else { (64, 600.0) };
    // Crashes per group-second; 0 is the healthy reference point.
    let crash_rates: &[f64] =
        if smoke { &[0.0, 1.0 / 60.0] } else { &[0.0, 1.0 / 400.0, 1.0 / 200.0, 1.0 / 100.0] };
    let fleet_capacity = sharegpt_capacity(system, groups);
    let offered = 0.55 * fleet_capacity;
    let horizon = Time::from_secs_f64(horizon_s);
    let curve = LoadCurve::diurnal(horizon_s, 0.5, 1.5);
    let mut trace = sharegpt(offered, 0xFA117).generate_modulated(horizon, 4096, &curve, 55);
    Workload::assign_sessions(&mut trace, groups as u64 * 8, 0xBEEF);
    let retry = RetryPolicy { max_attempts: 4, backoff: Time::from_us(50_000) };
    let opts = FleetOptions::new(groups)
        .with_threads(host_threads())
        .with_epoch(Time::from_secs_f64(0.25))
        .with_retry(retry);
    println!(
        "{groups}-group fleet | capacity {fleet_capacity:.0} q/s | {} requests at 0.55x | \
         retry {} attempts\n",
        trace.len(),
        retry.max_attempts
    );

    let mut results: RouterRows =
        routers().into_iter().map(|(name, _)| (name, Vec::new())).collect();
    for &rate in crash_rates {
        let faults = if rate > 0.0 {
            let rates = ChaosRates { crash_rate: rate, ..ChaosRates::default() };
            FaultPlan::chaos(0xC4A5 ^ rate.to_bits(), groups, horizon, &rates)
        } else {
            FaultSchedule::empty()
        };
        let opts = opts.clone().with_faults(faults);
        let label = if rate > 0.0 { format!("1/{:.0}s", 1.0 / rate) } else { "none".to_string() };
        for ((name, rows), (_, mut router)) in results.iter_mut().zip(routers()) {
            let r = simulate_fleet(system, &trace, offered, router.as_mut(), &opts);
            let (avail, retries, drops) =
                r.degraded.as_ref().map_or((1.0, 0, 0), |d| (d.availability, d.retries, d.drops));
            assert_eq!(
                r.completed + r.rejected + drops,
                trace.len(),
                "{name} crash {label}: requests leaked from the conservation invariant"
            );
            if rate > 0.0 {
                assert!(avail < 1.0, "{name}: crashes must dent availability");
                assert!(retries > 0, "{name}: failover must redispatch orphans");
            }
            rows.push((label.clone(), r));
        }
    }

    let dhorizon_s = if smoke { 60.0 } else { 180.0 };
    let drate = 0.55 * sharegpt_capacity(system, 2);
    let dtrace = sharegpt(drate, 0xFA115).generate(Time::from_secs_f64(dhorizon_s), 4096);
    let dfaults = FaultSchedule::new(vec![FaultSpec::GroupCrash {
        group: 2,
        at: Time::from_secs_f64(0.4 * dhorizon_s),
        recover_after: Some(Time::from_secs_f64(8.0)),
    }]);
    let dopts = FleetOptions::new(4)
        .with_threads(host_threads())
        .with_epoch(Time::from_secs_f64(0.25))
        .with_faults(dfaults)
        .with_retry(retry)
        .with_recovery(RecoveryMode::Warm { retained_fraction: 0.5 })
        .with_admission(AdmissionPolicy::shed_above(4.0));
    let tiers = pool_split(system, 2, 2);
    let dout =
        simulate_fleet_disagg(system, &dtrace, drate, &mut JoinShortestQueue, &dopts, &tiers);
    let d = dout.report.degraded.as_ref().expect("a faulted disagg run reports degraded mode");
    assert_eq!(
        dout.report.completed + dout.report.rejected + d.drops + d.shed,
        dtrace.len(),
        "disagg: requests leaked from the extended conservation invariant"
    );
    assert!(
        d.pool_rescued > 0,
        "disagg: a loaded decode-tier crash must rescue parked pool copies"
    );
    assert_eq!(d.pool_lost, 0, "disagg: a roomy durable pool must not lose any parked copy");

    let mut report = Report::new(
        "BENCH_faults",
        &format!(
            "Fault-injection sweep{}: {groups}-group PP/8 fleet, chaos crash schedules",
            tag(smoke)
        ),
        "degraded-mode serving beyond the paper: seeded group crashes, bounded retries and \
         health-aware routing — availability and failover tails vs crash rate, per policy",
    );
    let series: &SeriesTable<FleetReport> = &[
        ("availability", "fraction of group-seconds up", |r| {
            r.degraded.as_ref().map_or(1.0, |d| d.availability)
        }),
        ("retries", "redispatches", |r| r.degraded.as_ref().map_or(0.0, |d| d.retries as f64)),
        ("drops", "requests", |r| r.degraded.as_ref().map_or(0.0, |d| d.drops as f64)),
        ("failover p99", "s", |r| {
            r.degraded.as_ref().map_or(0.0, |d| d.failover_latency.p99.as_secs())
        }),
        ("clean goodput", "q/s outside outages", |r| match &r.degraded {
            Some(d) => d.goodput_clean_qps,
            None if r.makespan > Time::ZERO => r.completed as f64 / r.makespan.as_secs(),
            None => 0.0,
        }),
        ("TTFT p99", "s", |r| r.ttft.p99.as_secs()),
    ];
    for (name, rows) in &results {
        report.push_table(&format!("{name} "), rows, series);
    }
    let drow = |v: f64| [("2p2d-decode-crash".to_string(), v)];
    report.push_series(
        "disagg pool rescues",
        "contexts revived from parked copies",
        &drow(d.pool_rescued as f64),
    );
    report.push_series("disagg rescue p99", "s", &drow(d.rescue_latency.p99.as_secs()));
    report.push_series("disagg shed", "requests", &drow(d.shed as f64));
    report.push_series("disagg availability", "fraction", &drow(d.availability));
    report.emit();
}

/// Throughput, handoff tails and shared-pool pressure vs the prefill/decode
/// split on an 8-group PP/8 fleet. Every configuration serves the same
/// ShareGPT-like trace at 0.6× of colocated capacity — enough that the
/// prefill tier queues and the pool sees sustained traffic, with headroom
/// so every split drains. The colocated baseline runs every group as a
/// full-service deployment; the splits route prompts to a prefill tier
/// (chunked prefill of 512 tokens, so long prompts interleave), publish
/// finished contexts into the pool at a costed switch-hop price, and
/// stream the decode remainder on a decode tier that claims — and steals —
/// from it. Asserts that the colocated configuration reproduces the base
/// fleet driver bit for bit and that every split engaged handoffs, held
/// the pool bound and is bit-identical across 1 vs 2 worker threads.
/// Smoke: a shorter trace, colocated plus one 4P/4D split.
pub fn disagg(system: &ServingSystem, smoke: bool) {
    const GROUPS: usize = 8;
    let horizon_s = if smoke { 60.0 } else { 240.0 };
    let offered = 0.6 * sharegpt_capacity(system, GROUPS);
    let trace = sharegpt(offered, 0xD15A).generate(Time::from_secs_f64(horizon_s), 4096);
    let opts = FleetOptions::new(GROUPS).with_epoch(Time::from_secs_f64(0.25));
    let run = |cfg: &DisaggConfig, threads: usize| {
        let opts = opts.clone().with_threads(threads);
        simulate_fleet_disagg(system, &trace, offered, &mut JoinShortestQueue, &opts, cfg)
    };
    let splits: &[(usize, usize)] =
        if smoke { &[(4, 4)] } else { &[(2, 6), (3, 5), (4, 4), (5, 3), (6, 2)] };
    println!(
        "{GROUPS}-group PP/8 fleet | {} requests at 0.6x capacity | chunked prefill 512\n",
        trace.len()
    );

    let colocated = run(&DisaggConfig::colocated(GROUPS), 1);
    let base = simulate_fleet_instrumented(system, &trace, offered, &mut JoinShortestQueue, &opts);
    assert_eq!(
        (&colocated.report, &colocated.routed),
        (&base.report, &base.routed),
        "colocated disagg config must reproduce the base driver"
    );
    let mut rows: Vec<(String, DisaggOutcome)> = vec![("colocated".to_string(), colocated)];
    for &(prefill, decode) in splits {
        let cfg = pool_split(system, prefill, decode).with_prefill_chunk(512);
        let out = run(&cfg, 1);
        assert!(
            out.log.pool_peak_tokens <= out.log.pool_capacity_tokens,
            "{prefill}P/{decode}D: pool peak {} exceeded the {}-token bound",
            out.log.pool_peak_tokens,
            out.log.pool_capacity_tokens
        );
        assert!(out.log.handoffs > 0, "{prefill}P/{decode}D: handoffs must engage");
        let threaded = run(&cfg, 2);
        assert_eq!(
            (&out.report, &out.routed, &out.log),
            (&threaded.report, &threaded.routed, &threaded.log),
            "{prefill}P/{decode}D: split fleet diverged across 1 vs 2 worker threads"
        );
        rows.push((format!("{prefill}P/{decode}D"), out));
    }

    let mut report = Report::new(
        "BENCH_disagg",
        &format!(
            "Disaggregated prefill/decode sweep{}: 8-group PP/8 fleet, shared KV pool",
            tag(smoke)
        ),
        "beyond the paper's colocated deployments: prefill/decode group specialisation over a \
         switch-attached CXL KV pool — throughput, TTFT/TBT tails, handoff latency and pool \
         pressure vs the tier split",
    );
    let series: &SeriesTable<DisaggOutcome> = &[
        ("throughput", "tok/s", |o| o.report.tokens_per_s),
        ("ttft p99", "s", |o| o.report.ttft.p99.as_secs()),
        ("tbt p99", "s", |o| o.report.tbt.p99.as_secs()),
        ("handoffs", "contexts", |o| o.log.handoffs as f64),
        ("steals", "claims", |o| o.log.steals as f64),
        ("deferred publishes", "refusals", |o| o.log.deferred as f64),
        ("handoff p99", "s", |o| {
            o.report.disagg.as_ref().map_or(0.0, |d| d.handoff_latency.p99.as_secs())
        }),
        // A colocated fleet has no pool: peak and capacity are both 0.
        ("pool peak", "fraction of capacity", |o| {
            o.log.pool_peak_tokens as f64 / o.log.pool_capacity_tokens.max(1) as f64
        }),
        ("pool occupancy", "mean fraction of capacity", |o| {
            o.report.disagg.as_ref().map_or(0.0, |d| d.pool_occupancy)
        }),
    ];
    report.push_table("", &rows, series);
    report.emit();
}
