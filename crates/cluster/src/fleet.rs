//! The fleet driver: epoch-based routing over N replica groups, fanned out
//! across `std::thread::scope` workers inside one simulation — with
//! deterministic fault injection, failover and retry on top.
//!
//! One epoch-stop loop serves every topology. Groups form an *entry tier*
//! that receives arrivals and an optional *decode tier*: a colocated fleet
//! is the degenerate topology whose single tier prefills and decodes, and
//! a [disaggregated](crate::simulate_fleet_disagg) fleet splits the two
//! tiers and adds the shared-pool handoff phases between them.
//!
//! # Determinism contract
//!
//! The trace is partitioned into fixed-width time *epochs*. The driver
//! stops at epoch-grid instants — the epoch holding the next arrival, the
//! next fault event (crash/recover/degrade instants are aligned up to the
//! grid), or the next retry-ready instant. At each stop it advances every
//! group to the stop instant, applies due fault events from a single
//! thread in a fixed `(instant, kind, group)` order, refreshes the
//! per-group [`GroupLoad`] index from true scheduler state (dead groups
//! leave the index), and then routes redispatches and the epoch's arrivals
//! against that snapshot (bumping the index optimistically per
//! assignment). Routing and fault handling therefore depend only on
//! (trace, fault schedule, router state, epoch length) — never on worker
//! interleaving — and each group's simulation is single-threaded and
//! deterministic, so the merged [`FleetReport`] is bit-identical across
//! worker-thread counts *for any fault schedule*. Epochs with no work are
//! coalesced: the driver jumps straight to the next stop.
//!
//! # Failure semantics
//!
//! A [`GroupCrash`](crate::FaultSpec::GroupCrash) tears the group down: its
//! in-flight and queued requests are orphaned (device KV and host-pool
//! pages are lost, so a redispatch re-prefills from scratch while TTFT
//! keeps running from the original arrival), and the [`RetryPolicy`]
//! decides whether each orphan is redispatched — onto the healthy subset,
//! after its backoff — or dropped. How a group *rejoins* is set by
//! [`RecoveryMode`]: cold (empty, the default), warm (a deterministic
//! fraction of each crash's orphans kept their KV and re-seed without
//! re-prefilling when the group recovers) or standby (idle spare groups
//! promoted at crash time, recovered groups joining the spare reserve).
//! While *no* group is alive, arrivals are deferred and dispatched at the
//! next recovery; if the fleet never recovers they are dropped. An
//! [`AdmissionPolicy`] additionally sheds arrivals by class once fleet
//! saturation crosses the class's threshold, extending conservation to
//! `completed + rejected + dropped + shed = offered`.

use std::collections::BTreeMap;

use cent_serving::ServingSystem;
use cent_serving::{GroupOutcome, GroupSim, PriorityClass, RequestSpec, ServeOptions};
use cent_types::Time;

use crate::admission::{AdmissionPolicy, LoadSums};
use crate::disagg::{DecodeTier, DisaggConfig, DisaggLog, DisaggOutcome, GroupRole};
use crate::fault::{
    epoch_ceil, FaultLog, FaultSchedule, FaultSpec, FaultState, RecoveryMode, RetryPolicy,
};
use crate::report::FleetReport;
use crate::router::{GroupLoad, RoutingPolicy};

/// Fleet-level knobs: group count, worker threads, epoch width, the
/// per-group serving options, and the fault schedule, retry policy,
/// recovery mode and admission policy.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Independent replica groups behind the router.
    pub groups: usize,
    /// Worker threads sharding the groups (1 = fully inline). Any value
    /// yields the same [`FleetReport`]; this only trades wall-clock.
    pub threads: usize,
    /// Epoch width: the granularity at which the router's load index is
    /// refreshed from true group state (and onto which fault events are
    /// aligned). Smaller epochs mean fresher load signals and more
    /// synchronization barriers. Must be positive.
    pub epoch: Time,
    /// Serving options applied to every group.
    pub serve: ServeOptions,
    /// Faults injected into the run (empty = the healthy path, bit for
    /// bit).
    pub faults: FaultSchedule,
    /// Redispatch policy for crash orphans.
    pub retry: RetryPolicy,
    /// How crashed groups rejoin (cold, warm, or via a standby reserve).
    pub recovery: RecoveryMode,
    /// Saturation-based admission control
    /// ([`AdmissionPolicy::admit_all`] = the no-shed path, bit for bit).
    pub admission: AdmissionPolicy,
}

impl FleetOptions {
    /// `groups` groups, one worker thread, a 100 ms epoch, default serving
    /// options, no faults.
    pub fn new(groups: usize) -> Self {
        assert!(groups > 0, "a fleet needs at least one group");
        FleetOptions {
            groups,
            threads: 1,
            epoch: Time::from_secs_f64(0.1),
            serve: ServeOptions::default(),
            faults: FaultSchedule::empty(),
            retry: RetryPolicy::default(),
            recovery: RecoveryMode::Cold,
            admission: AdmissionPolicy::admit_all(),
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the epoch width.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn with_epoch(mut self, epoch: Time) -> Self {
        assert!(epoch > Time::ZERO, "epoch must be positive");
        self.epoch = epoch;
        self
    }

    /// Sets the per-group serving options.
    pub fn with_serve(mut self, serve: ServeOptions) -> Self {
        self.serve = serve;
        self
    }

    /// Sets the fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry policy for crash orphans.
    ///
    /// # Panics
    ///
    /// Panics if `retry.max_attempts` is zero.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.max_attempts > 0, "a request needs at least one attempt");
        self.retry = retry;
        self
    }

    /// Sets the recovery mode for crashed groups.
    ///
    /// # Panics
    ///
    /// Panics if the mode's parameters are out of range (see
    /// [`RecoveryMode::validate`]).
    pub fn with_recovery(mut self, recovery: RecoveryMode) -> Self {
        recovery.validate();
        self.recovery = recovery;
        self
    }

    /// Sets the saturation admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }
}

/// Everything one fleet run produced: the merged report, the per-group
/// outcomes (in group order), the routing decision per trace entry and the
/// fault log.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The merged fleet-wide report.
    pub report: FleetReport,
    /// Per-group outcomes, indexed by group.
    pub groups: Vec<GroupOutcome>,
    /// Group index each trace entry was *first* dispatched to, aligned
    /// with the trace (`usize::MAX` for requests never dispatched: shed by
    /// admission, or dropped because the whole fleet was down on arrival
    /// and never recovered).
    pub routed: Vec<usize>,
    /// What the fault machinery did (empty for a fault-free schedule).
    pub faults: FaultLog,
}

/// Simulates `trace` over a fleet of identical replica groups and returns
/// the merged fleet report. See the module docs for the determinism
/// contract; `trace` must be sorted by arrival time (as
/// [`Workload::generate`](cent_serving::Workload::generate) produces).
pub fn simulate_fleet(
    system: &ServingSystem,
    trace: &[RequestSpec],
    offered_qps: f64,
    router: &mut dyn RoutingPolicy,
    options: &FleetOptions,
) -> FleetReport {
    simulate_fleet_instrumented(system, trace, offered_qps, router, options).report
}

/// [`simulate_fleet`], additionally returning per-group outcomes, the
/// per-request routing decisions and the fault log (property tests,
/// router and failover studies). This is the fleet driver on the
/// one-tier colocated topology, [`DisaggConfig::colocated`].
///
/// # Panics
///
/// Panics on a zero epoch, a fault naming a group outside the fleet, zero
/// retry attempts, an out-of-range recovery mode or an all-spare fleet.
pub fn simulate_fleet_instrumented(
    system: &ServingSystem,
    trace: &[RequestSpec],
    offered_qps: f64,
    router: &mut dyn RoutingPolicy,
    options: &FleetOptions,
) -> FleetOutcome {
    let colocated = DisaggConfig::colocated(options.groups);
    let out = run(system, trace, offered_qps, router, options, &colocated);
    FleetOutcome { report: out.report, groups: out.groups, routed: out.routed, faults: out.faults }
}

/// Checks the options once at the driver's entry and splits the groups
/// into the entry tier (colocated or prefill groups, which take arrivals)
/// and the decode tier (empty for a colocated fleet).
fn tiers(fleet: &FleetOptions, disagg: &DisaggConfig) -> (Vec<usize>, Vec<usize>) {
    assert!(fleet.epoch > Time::ZERO, "epoch must be positive");
    assert_eq!(disagg.roles.len(), fleet.groups, "roles must cover every group of the fleet");
    if let Some(g) = fleet.faults.max_group() {
        assert!(
            g < fleet.groups,
            "fault schedule names group {g} of a {}-group fleet",
            fleet.groups
        );
    }
    assert!(fleet.retry.max_attempts > 0, "a request needs at least one attempt");
    fleet.recovery.validate();
    let colocated = disagg.is_colocated();
    assert!(
        colocated || !disagg.roles.contains(&GroupRole::Colocated),
        "a split fleet cannot mix colocated groups with specialized ones"
    );
    let of_role = |role: GroupRole| {
        (0..fleet.groups).filter(|&g| disagg.roles[g] == role).collect::<Vec<_>>()
    };
    let entry = of_role(if colocated { GroupRole::Colocated } else { GroupRole::Prefill });
    let decode = of_role(GroupRole::Decode);
    assert!(colocated || !entry.is_empty(), "a split fleet needs a prefill tier");
    assert!(colocated || !decode.is_empty(), "a split fleet needs a decode tier");
    if let RecoveryMode::Standby { spares } = fleet.recovery {
        assert!(
            spares < entry.len() && (decode.is_empty() || spares < decode.len()),
            "a standby reserve of {spares} spares needs more than {spares} groups in each tier"
        );
    }
    (entry, decode)
}

/// The fleet driver behind [`simulate_fleet_instrumented`] and
/// [`simulate_fleet_disagg`](crate::simulate_fleet_disagg): one epoch-stop
/// loop over `disagg.roles`. The handoff phases (harvest, claim, rescue,
/// publish) run only when the decode tier is non-empty.
pub(crate) fn run(
    system: &ServingSystem,
    trace: &[RequestSpec],
    offered_qps: f64,
    router: &mut dyn RoutingPolicy,
    fleet: &FleetOptions,
    disagg: &DisaggConfig,
) -> DisaggOutcome {
    let (entry, decode) = tiers(fleet, disagg);
    let split = !decode.is_empty();
    let epoch_ps = fleet.epoch.as_ps();

    // Stragglers are a property of the group, not an event: build the
    // affected groups from a uniformly slowed system (worst slowdown wins
    // if a group is named twice).
    let mut slowdowns = vec![1.0f64; fleet.groups];
    for spec in fleet.faults.specs() {
        if let FaultSpec::Straggler { group, slowdown } = *spec {
            slowdowns[group] = slowdowns[group].max(slowdown);
        }
    }
    let mut sims: Vec<GroupSim> = (0..fleet.groups)
        .map(|g| {
            let mut serve = fleet.serve.clone();
            if let (GroupRole::Prefill, Some(chunk)) = (disagg.roles[g], disagg.prefill_chunk) {
                serve = serve.with_prefill_chunk(chunk);
            }
            match slowdowns[g] {
                s if s > 1.0 => GroupSim::new(&system.slowed(s), serve),
                _ => GroupSim::new(system, serve),
            }
        })
        .collect();

    let faulty = !fleet.faults.is_empty();
    let shedding = fleet.admission.is_active();
    // Tracking (attempt counts, horizon, the degraded report section)
    // engages for a fault schedule OR an active admission policy — either
    // breaks the everything-completes invariant of the healthy path.
    let track = faulty || shedding;
    let mut faults = FaultState::new(&fleet.faults, epoch_ps, fleet.recovery, &disagg.roles);
    let mut tier = split.then(|| DecodeTier::new(disagg, entry.clone(), decode, &sims, faulty));
    let mut retries_by_class: BTreeMap<PriorityClass, u64> = BTreeMap::new();

    // Faulty-path bookkeeping: entry-tier dispatches per id, the retry
    // queue of ORIGINAL specs in `(ready, arrival, id)` order (orphans in
    // backoff, arrivals that found the entry tier down), and the id →
    // trace-index map that backfills `routed` for late dispatches.
    let mut attempts: BTreeMap<u64, u32> = BTreeMap::new();
    let mut pending: BTreeMap<(Time, Time, u64), RequestSpec> = BTreeMap::new();
    let id_to_index: BTreeMap<u64, usize> = if faulty {
        trace.iter().enumerate().map(|(i, s)| (s.id.0, i)).collect()
    } else {
        BTreeMap::new()
    };
    let slots_per_group = system.total_slots() as u64;
    let kv_budget_per_group = system.kv_budget_tokens() * system.replicas() as u64;

    let mut loads: Vec<GroupLoad> = Vec::with_capacity(entry.len());
    let mut routed = vec![usize::MAX; trace.len()];
    let mut cursor = 0usize;
    let mut now: Option<Time> = None;
    loop {
        debug_assert!(
            cursor == 0
                || cursor >= trace.len()
                || trace[cursor - 1].arrival <= trace[cursor].arrival,
            "trace must be sorted by arrival"
        );
        // Candidate stops, all on the epoch grid: the epoch of the next
        // arrival, the next fault event, the next retry-ready instant
        // (only while an entry group serves — while the whole tier is
        // down, only a recovery can unblock them) and the handoff
        // pipeline's own stops.
        let arrival_stop =
            trace.get(cursor).map(|s| Time::from_ps((s.arrival.as_ps() / epoch_ps) * epoch_ps));
        let retry_stop = pending
            .keys()
            .next()
            .filter(|_| entry.iter().any(|&g| faults.serving(g)))
            .map(|&(ready, _, _)| epoch_ceil(ready, epoch_ps));
        let tier_stop = tier
            .as_ref()
            .and_then(|d| d.next_stop(now.unwrap_or(Time::ZERO), &sims, &faults, epoch_ps));
        let Some(stop) =
            [arrival_stop, faults.next_at(), retry_stop, tier_stop].into_iter().flatten().min()
        else {
            break;
        };
        debug_assert!(now < Some(stop), "stop {stop} does not advance the fleet past {now:?}");
        let t = stop;
        now = Some(t);
        for_each_sharded(&mut sims, fleet.threads, |sim| sim.advance_to(t));

        // Fault phase, before any cross-group logic so everything at this
        // stop sees the new state. An orphan the decode tier cannot rescue
        // from the pool reruns from its ORIGINAL spec through the entry
        // tier, or drops once out of attempts.
        faults.apply_due(t, &mut sims, |log, g, spec| {
            let id = spec.id.0;
            if let Some(d) = tier.as_mut() {
                if d.orphan(log, disagg.roles[g] == GroupRole::Decode, spec, t) {
                    return;
                }
            }
            let orig = trace[*id_to_index.get(&id).expect("orphan is in the trace")];
            let n = *attempts.get(&id).expect("orphan was dispatched");
            if n >= fleet.retry.max_attempts {
                log.dropped.push((spec.id, spec.class));
            } else {
                let ready = t + fleet.retry.backoff.times(u64::from(n));
                pending.insert((ready, orig.arrival, id), orig);
            }
        });
        if let Some(d) = tier.as_mut() {
            d.step(t, &mut sims, &faults, router, epoch_ps);
        }

        // Entry-tier load snapshot over the healthy, in-service subset, in
        // group order (standby spares idle outside the serving set),
        // shared by the redispatch and arrival phases.
        loads.clear();
        loads.extend(faults.serving_loads(&entry, &sims));

        // Redispatch phase: queued requests whose ready instant has
        // aligned to this stop (or earlier), in `(ready, arrival, id)`
        // order, routed over the healthy subset.
        if !loads.is_empty() {
            while let Some(head) = pending.first_entry() {
                if epoch_ceil(head.key().0, epoch_ps) > t {
                    break;
                }
                let spec = head.remove();
                let placed = tier.as_mut().map_or(spec, |d| d.admit(spec));
                let g = route_onto(router, &placed, &mut loads);
                sims[g].push_redispatch(placed, t);
                let n = attempts.entry(spec.id.0).or_insert(0);
                if *n > 0 {
                    faults.log.retries += 1;
                    *retries_by_class.entry(spec.class).or_insert(0) += 1;
                }
                *n += 1;
                let idx = *id_to_index.get(&spec.id.0).expect("pending spec is in the trace");
                if routed[idx] == usize::MAX {
                    routed[idx] = g;
                }
            }
        }

        // Arrival phase: route every arrival of the epoch starting at `t`
        // against the boundary snapshot, bumping the index optimistically
        // so intra-epoch bursts still spread. Saturation-shed arrivals
        // never dispatch; with no live entry group the rest are deferred
        // until the next recovery. Saturation reads the snapshot summed
        // with the decode tier and the pool, which only the tier step
        // moves: sum once, then bump the sums with each routing.
        let mut shed_load = shedding.then(|| match &tier {
            Some(d) => {
                let (decode, pool) = d.shed_load(&sims, &faults);
                (LoadSums::of(loads.iter().copied()).plus(decode), Some(pool))
            }
            None => (LoadSums::of(loads.iter().copied()), None),
        });
        let epoch_end =
            Time::from_ps(t.as_ps().checked_add(epoch_ps).expect("epoch end overflows Time"));
        while cursor < trace.len() && trace[cursor].arrival < epoch_end {
            let spec = trace[cursor];
            let idx = cursor;
            cursor += 1;
            assert!(!split || spec.decode >= 1, "a request generates at least its first token");
            if let Some((sums, pool)) = &shed_load {
                let sat = sums.saturation(slots_per_group, kv_budget_per_group, *pool);
                if !fleet.admission.admits(spec.class, sat) {
                    faults.log.shed.push((spec.id, spec.class));
                    continue;
                }
            }
            if loads.is_empty() {
                pending.insert((spec.arrival, spec.arrival, spec.id.0), spec);
                continue;
            }
            let placed = tier.as_mut().map_or(spec, |d| d.admit(spec));
            let g = route_onto(router, &placed, &mut loads);
            if let Some((sums, _)) = shed_load.as_mut() {
                sums.route(placed.kv_tokens());
            }
            sims[g].push_arrival(placed);
            routed[idx] = g;
            if faulty {
                *attempts.entry(spec.id.0).or_insert(0) += 1;
            }
        }

        // A publish at this stop can land with `visible` already at or
        // before `t`. Such contexts are claimed now, after the arrival
        // phase, rather than at a second stop on the same instant.
        if let Some(d) = tier.as_mut() {
            while d.claims_due(t, &faults, epoch_ps) {
                d.step(t, &mut sims, &faults, router, epoch_ps);
            }
        }
    }

    // Anything still queued is undispatchable: the entry tier died and
    // never recovered.
    let mut flog = faults.finish();
    for spec in pending.into_values() {
        flog.dropped.push((spec.id, spec.class));
    }
    let log = tier.map_or_else(DisaggLog::default, |d| d.finish(faulty, &mut flog));
    flog.retries_by_class = retries_by_class.into_iter().collect();
    if track {
        flog.horizon = trace.last().map(|s| s.arrival).unwrap_or(Time::ZERO);
    }

    let outcomes = finish_groups(sims, offered_qps / fleet.groups as f64, fleet.threads);
    let (faults, slo) = (track.then_some(&flog), fleet.serve.slo);
    let report =
        FleetReport::from_outcomes_disagg(offered_qps, &outcomes, &disagg.roles, &log, faults, slo);
    debug_assert!(
        !(split || track)
            || report.completed + report.rejected + flog.dropped.len() + flog.shed.len()
                == trace.len(),
        "conservation: {} completed + {} rejected + {} dropped + {} shed != {} offered",
        report.completed,
        report.rejected,
        flog.dropped.len(),
        flog.shed.len(),
        trace.len()
    );
    DisaggOutcome { report, groups: outcomes, routed, log, faults: flog }
}

/// Routes `spec` over `loads`, charges it to the chosen entry and returns
/// the chosen group.
fn route_onto(
    router: &mut dyn RoutingPolicy,
    spec: &RequestSpec,
    loads: &mut [GroupLoad],
) -> usize {
    let pos = router.route(spec, loads);
    assert!(pos < loads.len(), "router chose position {pos} of {}", loads.len());
    loads[pos].outstanding += 1;
    loads[pos].kv_tokens += spec.kv_tokens();
    loads[pos].group
}

/// Runs `f` on every item, sharding contiguous chunks across `threads`
/// scoped workers. Groups are independent, so any sharding computes the
/// same per-group state.
fn for_each_sharded<T: Send>(items: &mut [T], threads: usize, f: impl Fn(&mut T) + Sync) {
    if threads <= 1 || items.len() <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for part in items.chunks_mut(chunk) {
            scope.spawn(move || part.iter_mut().for_each(f));
        }
    });
}

/// Drains every group to completion and collects outcomes in group order.
fn finish_groups(sims: Vec<GroupSim>, qps: f64, threads: usize) -> Vec<GroupOutcome> {
    // Both collects below reuse their source allocation in place, so the
    // outcomes never coexist with a second copy of the groups' buffer.
    let mut sims: Vec<Option<GroupSim>> = sims.into_iter().map(Some).collect();
    let mut out: Vec<Option<GroupOutcome>> = sims.iter().map(|_| None).collect();
    let mut pairs: Vec<_> = sims.iter_mut().zip(out.iter_mut()).collect();
    for_each_sharded(&mut pairs, threads, |(sim, slot)| {
        **slot = Some(sim.take().expect("group not yet finished").finish(qps));
    });
    out.into_iter().map(|o| o.expect("every group finished")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{JoinShortestQueue, PowerOfTwoChoices, RoundRobin};
    use cent_model::ModelConfig;
    use cent_serving::{KvBudget, KvMode, SchedulerConfig, Workload};

    fn tiny_system() -> ServingSystem {
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

    fn trace(qps: f64, seed: u64, horizon_s: f64) -> Vec<RequestSpec> {
        let w = Workload {
            lengths: cent_serving::LengthSampler::Fixed { prompt: 10, decode: 40 },
            ..Workload::chatbot(qps, seed)
        };
        w.generate(Time::from_secs_f64(horizon_s), 4096)
    }

    /// Long-decode trace: ~half-second service times keep every group
    /// busy, so a mid-run crash is guaranteed to strand in-flight work.
    fn heavy_trace(qps: f64, seed: u64, horizon_s: f64) -> Vec<RequestSpec> {
        let w = Workload {
            lengths: cent_serving::LengthSampler::Fixed { prompt: 10, decode: 400 },
            ..Workload::chatbot(qps, seed)
        };
        w.generate(Time::from_secs_f64(horizon_s), 4096)
    }

    #[test]
    fn fleet_of_one_matches_the_single_system_run() {
        // With one group every router is the identity, so the group's
        // outcome must equal a direct ServingSystem run bit for bit.
        let sys = tiny_system();
        let trace = trace(30.0, 11, 2.0);
        let (solo, _) = sys.serve_trace_instrumented(&trace, 30.0, ServeOptions::default());
        let mut router = JoinShortestQueue;
        let fleet =
            simulate_fleet_instrumented(&sys, &trace, 30.0, &mut router, &FleetOptions::new(1));
        assert_eq!(fleet.groups[0].report, solo);
        assert_eq!(fleet.report.completed, solo.completed);
        assert_eq!(fleet.report.ttft, solo.ttft);
        assert_eq!(fleet.report.query_latency, solo.query_latency);
        assert!(fleet.routed.iter().all(|&g| g == 0));
        assert_eq!(fleet.faults, FaultLog::default());
        assert_eq!(fleet.report.degraded, None);
    }

    #[test]
    fn every_request_is_served_exactly_once() {
        let sys = tiny_system();
        let trace = trace(100.0, 3, 2.0);
        for router in [
            &mut RoundRobin::default() as &mut dyn RoutingPolicy,
            &mut JoinShortestQueue,
            &mut PowerOfTwoChoices::seeded(5),
        ] {
            let fleet = simulate_fleet_instrumented(
                &sys,
                &trace,
                100.0,
                router,
                &FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05)),
            );
            assert_eq!(fleet.routed.len(), trace.len());
            assert_eq!(fleet.report.submitted, trace.len());
            assert_eq!(fleet.report.completed, trace.len());
            let mut ids: Vec<u64> =
                fleet.groups.iter().flat_map(|o| o.records.iter().map(|r| r.spec.id.0)).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..trace.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn jsq_balances_better_than_round_robin_never_worse() {
        let sys = tiny_system();
        let trace = trace(120.0, 9, 3.0);
        let opts = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.02));
        let jsq = simulate_fleet(&sys, &trace, 120.0, &mut JoinShortestQueue, &opts);
        assert!(jsq.imbalance.max_share < 1.5, "JSQ spread {:?}", jsq.imbalance);
        assert!(jsq.imbalance.min_share > 0.5);
    }

    #[test]
    fn epoch_width_changes_routing_but_not_accounting() {
        // Different epochs may route differently (fresher load signals),
        // but conservation holds and the report stays self-consistent.
        let sys = tiny_system();
        let trace = trace(80.0, 21, 2.0);
        for epoch_s in [0.01, 0.1, 1.0] {
            let fleet = simulate_fleet(
                &sys,
                &trace,
                80.0,
                &mut JoinShortestQueue,
                &FleetOptions::new(3).with_epoch(Time::from_secs_f64(epoch_s)),
            );
            assert_eq!(fleet.completed, trace.len(), "epoch {epoch_s}");
            assert_eq!(fleet.per_group.iter().map(|g| g.submitted).sum::<usize>(), trace.len());
        }
    }

    #[test]
    fn crash_orphans_are_retried_on_survivors() {
        let sys = tiny_system();
        let trace = heavy_trace(60.0, 13, 2.0);
        let faults = FaultSchedule::new(vec![FaultSpec::GroupCrash {
            group: 0,
            at: Time::from_secs_f64(0.5),
            recover_after: Some(Time::from_secs_f64(0.8)),
        }]);
        let opts = FleetOptions::new(3).with_epoch(Time::from_secs_f64(0.05)).with_faults(faults);
        let fleet = simulate_fleet_instrumented(&sys, &trace, 60.0, &mut JoinShortestQueue, &opts);
        assert_eq!(fleet.faults.crashes, 1);
        assert_eq!(fleet.faults.recoveries, 1);
        assert!(!fleet.faults.orphaned.is_empty(), "a loaded group must have had work");
        assert_eq!(fleet.faults.retries, fleet.faults.orphaned.len() as u64);
        assert!(fleet.faults.dropped.is_empty(), "one crash cannot exhaust 3 attempts");
        // Every request still completes exactly once.
        assert_eq!(fleet.report.completed, trace.len());
        let mut ids: Vec<u64> =
            fleet.groups.iter().flat_map(|o| o.records.iter().map(|r| r.spec.id.0)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..trace.len() as u64).collect::<Vec<_>>());
        let degraded = fleet.report.degraded.as_ref().expect("faulted run reports degraded mode");
        assert!(degraded.availability < 1.0);
        assert!(degraded.availability > 0.0);
        assert_eq!(degraded.retries, fleet.faults.retries);
    }

    #[test]
    fn permanent_fleet_death_drops_requests() {
        // Both groups die early and never recover: everything not already
        // completed is dropped, and conservation still holds.
        let sys = tiny_system();
        let trace = trace(40.0, 17, 2.0);
        let faults = FaultSchedule::new(
            (0..2)
                .map(|g| FaultSpec::GroupCrash {
                    group: g,
                    at: Time::from_secs_f64(0.3),
                    recover_after: None,
                })
                .collect(),
        );
        let opts = FleetOptions::new(2).with_epoch(Time::from_secs_f64(0.05)).with_faults(faults);
        let fleet = simulate_fleet_instrumented(&sys, &trace, 40.0, &mut JoinShortestQueue, &opts);
        assert_eq!(fleet.faults.crashes, 2);
        assert_eq!(fleet.faults.recoveries, 0);
        assert!(!fleet.faults.dropped.is_empty());
        assert_eq!(
            fleet.report.completed + fleet.report.rejected + fleet.faults.dropped.len(),
            trace.len()
        );
        // Down windows stay open.
        assert!(fleet.faults.down_windows.iter().all(|&(_, _, up)| up.is_none()));
        let degraded = fleet.report.degraded.as_ref().expect("degraded section present");
        assert_eq!(degraded.drops, fleet.faults.dropped.len());
        assert!(degraded.availability < 1.0);
    }

    #[test]
    fn straggler_group_attracts_less_jsq_traffic() {
        let sys = tiny_system();
        let trace = trace(100.0, 23, 3.0);
        let faults = FaultSchedule::new(vec![FaultSpec::Straggler { group: 0, slowdown: 3.0 }]);
        let opts = FleetOptions::new(3).with_epoch(Time::from_secs_f64(0.02)).with_faults(faults);
        let fleet = simulate_fleet_instrumented(&sys, &trace, 100.0, &mut JoinShortestQueue, &opts);
        assert_eq!(fleet.report.completed, trace.len());
        let slow = fleet.report.per_group[0].submitted;
        let healthy = fleet.report.per_group[1].submitted.min(fleet.report.per_group[2].submitted);
        assert!(slow < healthy, "JSQ should shed load off the 3x straggler: {slow} vs {healthy}");
    }

    #[test]
    fn zero_fault_schedule_is_bit_identical_to_the_healthy_path() {
        let sys = tiny_system();
        let trace = trace(90.0, 29, 2.0);
        let base = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05));
        let healthy =
            simulate_fleet_instrumented(&sys, &trace, 90.0, &mut JoinShortestQueue, &base);
        let scheduled = simulate_fleet_instrumented(
            &sys,
            &trace,
            90.0,
            &mut JoinShortestQueue,
            &base.clone().with_faults(FaultSchedule::empty()),
        );
        assert_eq!(healthy.report, scheduled.report);
        assert_eq!(healthy.routed, scheduled.routed);
    }

    #[test]
    #[should_panic(expected = "epoch must be positive")]
    fn zero_epoch_is_rejected() {
        let opts = FleetOptions { epoch: Time::ZERO, ..FleetOptions::new(2) };
        simulate_fleet(&tiny_system(), &trace(10.0, 1, 0.5), 10.0, &mut JoinShortestQueue, &opts);
    }
}
