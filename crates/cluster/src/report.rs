//! Fleet-wide SLO reporting: the deterministic merge of per-group serving
//! outcomes into one [`FleetReport`].
//!
//! One fold serves every topology. A request is the chain of its phase
//! records, joined by request id: its entry-tier records (one on a
//! colocated fleet; on a split fleet, one per pass through the prefill
//! tier) plus at most one decode-tier record. Colocated, faulted and split
//! runs differ only in what the chains hold and in which optional sections
//! the fold adds.
//!
//! The merge is pure bookkeeping over [`GroupOutcome`]s in fixed group
//! order — latency populations are gathered per request and sorted,
//! streamed histograms are folded with the order-independent
//! [`TimeHistogram::merge`], counters are summed — so the report is a
//! function of the per-group outcomes alone, never of how many worker
//! threads produced them.

use std::collections::BTreeMap;

use cent_serving::{
    ClassReport, GroupOutcome, LatencyStats, PriorityClass, RequestId, RequestRecord,
};
use cent_types::{SortedSamples, Time, TimeHistogram};

use crate::disagg::{DisaggLog, GroupRole};
use crate::fault::FaultLog;

/// Spread of a per-group utilization metric across the fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UtilizationSpread {
    /// Least-utilized group.
    pub min: f64,
    /// Unweighted mean across groups.
    pub mean: f64,
    /// Most-utilized group.
    pub max: f64,
}

impl UtilizationSpread {
    fn over(values: impl Iterator<Item = f64> + Clone) -> Self {
        let mut n = 0usize;
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
            n += 1;
        }
        if n == 0 {
            return UtilizationSpread::default();
        }
        UtilizationSpread { min, mean: sum / n as f64, max }
    }
}

/// How unevenly the router spread arrivals over the fleet, as each group's
/// share of the mean per-group arrival count. A perfect balance is
/// `min_share = max_share = 1.0`; a group that received double its fair
/// share shows `max_share = 2.0`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterImbalance {
    /// Smallest per-group submitted count over the fleet mean.
    pub min_share: f64,
    /// Largest per-group submitted count over the fleet mean.
    pub max_share: f64,
}

impl RouterImbalance {
    /// Imbalance of the given per-group arrival counts.
    fn over(submitted: impl Iterator<Item = usize>) -> Self {
        let (mut groups, mut total) = (0usize, 0usize);
        let (mut min, mut max) = (usize::MAX, 0usize);
        for n in submitted {
            groups += 1;
            total += n;
            min = min.min(n);
            max = max.max(n);
        }
        let mean_share = total as f64 / groups.max(1) as f64;
        if mean_share > 0.0 {
            RouterImbalance {
                min_share: min as f64 / mean_share,
                max_share: max as f64 / mean_share,
            }
        } else {
            RouterImbalance::default()
        }
    }
}

/// Summary of an unsorted latency population.
fn summary(samples: Vec<Time>) -> LatencyStats {
    LatencyStats::from_sorted(&SortedSamples::new(samples))
}

/// One request of a fleet run: the chain of its entry-tier records, joined
/// by id with its decode-tier record if it reached one.
struct Request<'a> {
    /// Earliest-finished entry record: it carries the user-visible first
    /// token.
    first: &'a RequestRecord,
    /// Latest-finished entry record: it published the context the decode
    /// tier claimed, or finished the request outright.
    last: &'a RequestRecord,
    /// The decode-phase record.
    decode: Option<&'a RequestRecord>,
    /// Whether the fault path dropped the request.
    dropped: bool,
}

impl Request<'_> {
    /// When the request's final phase finished; `None` if it never did.
    fn finished(&self) -> Option<Time> {
        match self.decode {
            Some(d) => Some(d.finished),
            None => (!self.dropped).then_some(self.last.finished),
        }
    }

    /// Arrival to the final phase's finish, for a completed request.
    fn latency(&self) -> Option<Time> {
        self.finished().map(|t| t.saturating_sub(self.last.spec.arrival))
    }

    /// Prompt completion to the first decode-tier token, for a handoff.
    fn handoff(&self) -> Option<Time> {
        self.decode.map(|d| d.first_token.saturating_sub(self.last.finished))
    }
}

/// Walks the requests of a run in id order: `entry` (sorted by
/// `(id, finished)`) chain by chain, merged with `decode` (sorted by id)
/// and the `dropped` ids (sorted).
fn requests<'a>(
    entry: &'a [(u64, &'a RequestRecord)],
    decode: &'a [&'a RequestRecord],
    dropped: &'a [u64],
) -> impl Iterator<Item = Request<'a>> {
    let mut decode = decode.iter().copied().peekable();
    let mut dropped = dropped.iter().copied().peekable();
    entry.chunk_by(|a, b| a.0 == b.0).map(move |chain| {
        let id = chain[0].0;
        while decode.next_if(|d| d.spec.id.0 < id).is_some() {}
        while dropped.next_if(|&d| d < id).is_some() {}
        Request {
            first: chain[0].1,
            last: chain[chain.len() - 1].1,
            decode: decode.next_if(|d| d.spec.id.0 == id),
            dropped: dropped.next_if_eq(&id).is_some(),
        }
    })
}

/// One group's row in the fleet report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupRow {
    /// Requests the router sent to this group.
    pub submitted: usize,
    /// Requests the group served to completion.
    pub completed: usize,
    /// Time-weighted fraction of the group's decode slots occupied.
    pub slot_utilization: f64,
    /// Time-weighted mean KV reservation as a fraction of the budget.
    pub kv_utilization: f64,
    /// Largest wait-queue depth the group observed.
    pub peak_queue_depth: usize,
}

/// Degraded-mode metrics of a fleet run under a fault schedule.
///
/// Present on [`FleetReport::degraded`] whenever the run carried a
/// non-empty [`FaultSchedule`](crate::FaultSchedule) — even one whose
/// faults never fired, in which case availability is `1.0` and every
/// counter zero — or an active [`AdmissionPolicy`](crate::AdmissionPolicy)
/// (which breaks the everything-completes invariant the same way).
/// Availability is measured in group-time over `[0, max(last completion,
/// last offered arrival)]`; goodput is completions per second of makespan,
/// with the `clean` variant excluding completions (and wall-clock) inside
/// the union of the fleet's outage windows.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedReport {
    /// Crash events applied.
    pub crashes: u64,
    /// Recovery events applied.
    pub recoveries: u64,
    /// Group-seconds up over total group-seconds, in `[0, 1]`.
    pub availability: f64,
    /// Total group-seconds of outage (clipped to the run).
    pub down_group_seconds: f64,
    /// Orphaning events (one per request per crash it was evicted by).
    pub orphaned: usize,
    /// Redispatches of crash orphans.
    pub retries: u64,
    /// Requests dropped (out of attempts, or the fleet never recovered).
    pub drops: usize,
    /// Redispatch counts per priority class, sorted by class.
    pub retries_by_class: Vec<(PriorityClass, u64)>,
    /// Drop counts per priority class, sorted by class.
    pub drops_by_class: Vec<(PriorityClass, usize)>,
    /// Recoveries that re-seeded warm-retained contexts
    /// ([`RecoveryMode::Warm`](crate::RecoveryMode)).
    pub warm_rejoins: u64,
    /// Recoveries that rejoined the serving set empty.
    pub cold_rejoins: u64,
    /// Standby spares promoted into the serving set.
    pub promotions: u64,
    /// Decode-crash orphans rescued from the shared pool's parked copies
    /// (disaggregated fleets only).
    pub pool_rescued: usize,
    /// Decode-crash orphans whose pool copy was gone — fell back to
    /// re-prefill.
    pub pool_lost: u64,
    /// Rescue latency: decode-crash instant to the rescued context's first
    /// token on its new decode group, over rescues that completed.
    pub rescue_latency: LatencyStats,
    /// Arrivals shed by the admission policy.
    pub shed: usize,
    /// Shed counts per priority class, sorted by class.
    pub shed_by_class: Vec<(PriorityClass, usize)>,
    /// Failover latency: crash instant to the victim's first token on its
    /// new group, over orphaning events whose request completed.
    pub failover_latency: LatencyStats,
    /// Completions per second over the whole makespan.
    pub goodput_qps: f64,
    /// Completions per second outside the fleet's outage windows.
    pub goodput_clean_qps: f64,
}

/// Disaggregation metrics of a role-split fleet run.
///
/// Present on [`FleetReport::disagg`] whenever the run used a
/// prefill/decode split ([`DisaggConfig`](crate::DisaggConfig) with
/// specialized roles); colocated runs leave it `None` so they compare
/// equal to base-driver reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DisaggReport {
    /// Prefill-specialized groups in the fleet.
    pub prefill_groups: usize,
    /// Decode-specialized groups in the fleet.
    pub decode_groups: usize,
    /// Contexts handed prefill → pool → decode.
    pub handoffs: u64,
    /// Requests finished entirely on the prefill tier (single-token
    /// decodes — nothing left to hand off).
    pub singles: u64,
    /// Claims diverted from the router's pick to a drained decode group.
    pub steals: u64,
    /// Publish attempts refused for pool capacity and deferred.
    pub deferred_publishes: u64,
    /// Handoff latency distribution: prompt completion on the prefill
    /// group to first decode-tier token, per handed-off request (publish
    /// serialization + both transfers + decode admission).
    pub handoff_latency: LatencyStats,
    /// Shared-pool capacity bound, KV tokens.
    pub pool_capacity_tokens: u64,
    /// Largest pool reservation level observed, KV tokens — never above
    /// the capacity bound by construction.
    pub pool_peak_tokens: u64,
    /// Time-weighted mean pool occupancy as a fraction of capacity over
    /// the run's makespan (the pool's occupancy integral normalised by
    /// `capacity × makespan`).
    pub pool_occupancy: f64,
}

/// The result of one fleet simulation: fleet-wide SLO metrics plus the
/// per-group spread the router is judged by.
///
/// Deliberately carries no record of the worker-thread count: two runs
/// that differ only in `threads` produce `==` reports (enforced by
/// `tests/cluster_props.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Replica groups behind the router.
    pub groups: usize,
    /// Mean offered load across the fleet, queries/second.
    pub offered_qps: f64,
    /// Requests that arrived within the horizon, fleet-wide.
    pub submitted: usize,
    /// Requests served to completion, fleet-wide.
    pub completed: usize,
    /// Requests rejected up front (footprint exceeds a replica's budget).
    pub rejected: usize,
    /// First arrival to last completion anywhere in the fleet.
    pub makespan: Time,
    /// Total generated (decode) tokens.
    pub decode_tokens: u64,
    /// Total prompt (prefill) tokens processed.
    pub prefill_tokens: u64,
    /// Achieved fleet decode throughput over the makespan, tokens/second.
    pub tokens_per_s: f64,
    /// Fleet-wide time-to-first-token distribution.
    pub ttft: LatencyStats,
    /// Fleet-wide end-to-end query latency distribution.
    pub query_latency: LatencyStats,
    /// Fleet-wide queue-wait distribution.
    pub queue_wait: LatencyStats,
    /// Fleet-wide time-between-tokens distribution (merged histograms).
    pub tbt: LatencyStats,
    /// Per-class fleet metrics, sorted by class.
    pub classes: Vec<ClassReport>,
    /// Recompute evictions across the fleet.
    pub preemptions: u64,
    /// Swap evictions across the fleet.
    pub swaps: u64,
    /// Largest wait-queue depth observed on any group.
    pub peak_queue_depth: usize,
    /// Spread of per-group slot utilization.
    pub slot_utilization: UtilizationSpread,
    /// Spread of per-group time-weighted KV utilization.
    pub kv_utilization: UtilizationSpread,
    /// Router arrival-count imbalance.
    pub imbalance: RouterImbalance,
    /// One row per group, in group order.
    pub per_group: Vec<GroupRow>,
    /// Degraded-mode section; `None` iff the fold was given no fault log
    /// (the run carried no fault schedule and no admission policy), so
    /// fault-free reports compare equal to pre-fault ones.
    pub degraded: Option<DegradedReport>,
    /// Disaggregation section; `None` iff the run used no prefill/decode
    /// split, so colocated reports compare equal to base-driver ones.
    pub disagg: Option<DisaggReport>,
}

impl FleetReport {
    /// Folds the outcomes of a colocated fleet: the one-tier case of
    /// [`from_outcomes_disagg`](Self::from_outcomes_disagg), judged against
    /// the SLO the groups ran under.
    pub fn from_outcomes(offered_qps: f64, outcomes: &[GroupOutcome]) -> Self {
        let roles = vec![GroupRole::Colocated; outcomes.len()];
        let slo = outcomes.first().and_then(|o| o.report.slo);
        Self::from_outcomes_disagg(offered_qps, outcomes, &roles, &DisaggLog::default(), None, slo)
    }

    /// Folds per-group outcomes (in group order) into the end-to-end view
    /// of any topology.
    ///
    /// A request is the chain of its entry-tier records (colocated or
    /// [`GroupRole::Prefill`] groups) plus at most one record from a
    /// [`GroupRole::Decode`] group, joined by request id. On a colocated
    /// fleet every chain is a single record. A chain grows past one record
    /// only when a decode-tier crash sends the request back through the
    /// prefill tier: its earliest-finished record carries the user-visible
    /// first token (TTFT, queue wait), and its latest-finished one
    /// published the context the decode tier finally claimed.
    ///
    /// So `submitted` counts entry-tier arrivals (not decode-tier
    /// re-submissions), `completed` counts requests whose final phase
    /// finished (the decode record, or the last entry record of a request
    /// with no decode phase that `faults` did not drop), `prefill_tokens`
    /// counts prompt tokens per entry pass (a redispatched prompt is
    /// genuinely reprocessed), latency runs from the arrival to the final
    /// phase's finish, and router imbalance is judged over the entry tier
    /// (the only tier the router spreads arrivals across). TBT merges the
    /// per-group histograms, so the prefill→decode handoff gap is not a TBT
    /// sample; it is reported as [`DisaggReport::handoff_latency`].
    ///
    /// The disagg section is present iff some role is
    /// [`GroupRole::Decode`]; the degraded section iff `faults` is given.
    /// Class rows count SLO hits against `slo`.
    pub fn from_outcomes_disagg(
        offered_qps: f64,
        outcomes: &[GroupOutcome],
        roles: &[GroupRole],
        log: &DisaggLog,
        faults: Option<&FaultLog>,
        slo: Option<Time>,
    ) -> Self {
        assert_eq!(roles.len(), outcomes.len(), "one role per group");
        let of_tier = |decode: bool| {
            outcomes.iter().zip(roles).filter(move |(_, r)| (**r == GroupRole::Decode) == decode)
        };
        let entry_groups = || of_tier(false).map(|(o, _)| o);
        let records = || outcomes.iter().flat_map(|o| o.records.iter());
        // Entry-tier records sorted into chains. Keying each by its id keeps
        // the sort off the records: only equal ids compare finish instants.
        let mut entry = Vec::with_capacity(entry_groups().map(|o| o.records.len()).sum());
        entry.extend(entry_groups().flat_map(|o| &o.records).map(|r| (r.spec.id.0, r)));
        entry.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.finished.cmp(&b.1.finished)));
        let mut decode: Vec<&RequestRecord> = of_tier(true).flat_map(|(o, _)| &o.records).collect();
        decode.sort_unstable_by_key(|r| r.spec.id.0);
        let mut dropped: Vec<u64> =
            faults.iter().flat_map(|f| f.dropped.iter().map(|(id, _)| id.0)).collect();
        dropped.sort_unstable();
        let requests = || requests(&entry, &decode, &dropped);
        let submitted: usize = entry_groups().map(|o| o.report.submitted).sum();

        let first_arrival = records().map(|r| r.spec.arrival).min().unwrap_or(Time::ZERO);
        let last_finish = records().map(|r| r.finished).max().unwrap_or(Time::ZERO);
        let makespan = last_finish.saturating_sub(first_arrival);
        let makespan_s = makespan.as_secs();
        let decode_tokens: u64 = records().map(|r| r.spec.decode as u64).sum();
        // Each class's TBT is the merge of its groups' class histograms, and
        // the fleet's is the merge of those (as a group's is of its own).
        let mut class_tbt: BTreeMap<PriorityClass, TimeHistogram> = BTreeMap::new();
        for (class, h) in outcomes.iter().flat_map(|o| &o.tbt_by_class) {
            class_tbt.entry(*class).or_default().merge(h);
        }
        let mut tbt = TimeHistogram::new();
        for h in class_tbt.values() {
            tbt.merge(h);
        }

        // Every population reserves one sample per entry-tier submission up
        // front (a request submits at least once), so none grows by copying.
        // The class rows come from one walk that files each request under
        // its class.
        let mut by_class: BTreeMap<PriorityClass, usize> = BTreeMap::new();
        for &(class, n) in entry_groups().flat_map(|o| &o.submitted_by_class) {
            *by_class.entry(class).or_insert(0) += n;
        }
        let mut rows: Vec<_> = by_class
            .into_iter()
            .map(|(class, n)| (class, n, Vec::with_capacity(n), Vec::with_capacity(n)))
            .collect();
        for r in requests() {
            let class = r.first.spec.class;
            if let Some((_, _, ttfts, latencies)) = rows.iter_mut().find(|row| row.0 == class) {
                ttfts.push(r.first.ttft());
                latencies.extend(r.latency());
            }
        }
        let classes = rows
            .into_iter()
            .map(|(class, n, ttfts, latencies)| {
                let tbt = class_tbt.get(&class).map(LatencyStats::from_histogram);
                let tbt = tbt.unwrap_or_default();
                ClassReport::new(class, n, ttfts, latencies, tbt, slo, makespan)
            })
            .collect();
        let mut ttfts = Vec::with_capacity(submitted);
        let mut waits = Vec::with_capacity(submitted);
        let mut latencies = Vec::with_capacity(submitted);
        for r in requests() {
            ttfts.push(r.first.ttft());
            waits.push(r.first.queue_wait());
            latencies.extend(r.latency());
        }
        let completed = latencies.len();
        let (ttft, queue_wait, query_latency) =
            (summary(ttfts), summary(waits), summary(latencies));

        let disagg = roles.contains(&GroupRole::Decode).then(|| {
            let handoffs: Vec<Time> = requests().filter_map(|r| r.handoff()).collect();
            debug_assert_eq!(handoffs.len(), decode.len(), "every decode phase has a prompt");
            DisaggReport {
                prefill_groups: roles.iter().filter(|r| **r == GroupRole::Prefill).count(),
                decode_groups: roles.iter().filter(|r| **r == GroupRole::Decode).count(),
                handoffs: log.handoffs,
                singles: log.singles,
                steals: log.steals,
                deferred_publishes: log.deferred,
                handoff_latency: summary(handoffs),
                pool_capacity_tokens: log.pool_capacity_tokens,
                pool_peak_tokens: log.pool_peak_tokens,
                pool_occupancy: if log.pool_capacity_tokens > 0 && makespan_s > 0.0 {
                    log.pool_occupancy_token_s / (log.pool_capacity_tokens as f64 * makespan_s)
                } else {
                    0.0
                },
            }
        });
        let degraded = faults.map(|flog| {
            let completions: Vec<Time> = requests().filter_map(|r| r.finished()).collect();
            degraded_section(flog, &entry, &decode, &completions, makespan, outcomes.len())
        });

        FleetReport {
            groups: outcomes.len(),
            offered_qps,
            submitted,
            completed,
            rejected: outcomes.iter().map(|o| o.report.rejected).sum(),
            makespan,
            decode_tokens,
            prefill_tokens: entry.iter().map(|(_, r)| r.spec.prompt as u64).sum(),
            tokens_per_s: if makespan_s > 0.0 { decode_tokens as f64 / makespan_s } else { 0.0 },
            ttft,
            query_latency,
            queue_wait,
            tbt: LatencyStats::from_histogram(&tbt),
            classes,
            preemptions: outcomes.iter().map(|o| o.report.preemptions).sum(),
            swaps: outcomes.iter().map(|o| o.report.swaps).sum(),
            peak_queue_depth: outcomes.iter().map(|o| o.report.peak_queue_depth).max().unwrap_or(0),
            slot_utilization: UtilizationSpread::over(
                outcomes.iter().map(|o| o.report.slot_utilization),
            ),
            kv_utilization: UtilizationSpread::over(
                outcomes.iter().map(|o| o.report.kv_utilization),
            ),
            imbalance: RouterImbalance::over(entry_groups().map(|o| o.report.submitted)),
            per_group: outcomes
                .iter()
                .map(|o| GroupRow {
                    submitted: o.report.submitted,
                    completed: o.report.completed,
                    slot_utilization: o.report.slot_utilization,
                    kv_utilization: o.report.kv_utilization,
                    peak_queue_depth: o.report.peak_queue_depth,
                })
                .collect(),
            degraded,
            disagg,
        }
    }

    /// Serialises the report as one JSON object (schema documented in
    /// `docs/SCHEMAS.md`). Times are seconds.
    pub fn to_json(&self) -> String {
        fn stats(s: &LatencyStats) -> String {
            format!(
                "{{\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                s.mean.as_secs(),
                s.p50.as_secs(),
                s.p95.as_secs(),
                s.p99.as_secs(),
                s.max.as_secs()
            )
        }
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{{\"class\":{},\"submitted\":{},\"completed\":{},\"ttft\":{},\
                     \"latency\":{},\"tbt\":{},\"deadline_hits\":{},\"goodput_qps\":{}}}",
                    c.class.0,
                    c.submitted,
                    c.completed,
                    stats(&c.ttft),
                    stats(&c.query_latency),
                    stats(&c.tbt),
                    c.deadline_hits,
                    c.goodput_qps
                )
            })
            .collect();
        let per_group: Vec<String> = self
            .per_group
            .iter()
            .map(|g| {
                format!(
                    "{{\"submitted\":{},\"completed\":{},\"slot_utilization\":{},\
                     \"kv_utilization\":{},\"peak_queue_depth\":{}}}",
                    g.submitted,
                    g.completed,
                    g.slot_utilization,
                    g.kv_utilization,
                    g.peak_queue_depth
                )
            })
            .collect();
        let degraded = match &self.degraded {
            None => String::new(),
            Some(d) => {
                let retries_by_class: Vec<String> = d
                    .retries_by_class
                    .iter()
                    .map(|(c, n)| format!("{{\"class\":{},\"retries\":{}}}", c.0, n))
                    .collect();
                let drops_by_class: Vec<String> = d
                    .drops_by_class
                    .iter()
                    .map(|(c, n)| format!("{{\"class\":{},\"drops\":{}}}", c.0, n))
                    .collect();
                let shed_by_class: Vec<String> = d
                    .shed_by_class
                    .iter()
                    .map(|(c, n)| format!("{{\"class\":{},\"shed\":{}}}", c.0, n))
                    .collect();
                format!(
                    ",\"degraded\":{{\"crashes\":{},\"recoveries\":{},\"availability\":{},\
                     \"down_group_seconds\":{},\"orphaned\":{},\"retries\":{},\"drops\":{},\
                     \"retries_by_class\":[{}],\"drops_by_class\":[{}],\"warm_rejoins\":{},\
                     \"cold_rejoins\":{},\"promotions\":{},\"pool_rescued\":{},\"pool_lost\":{},\
                     \"rescue_s\":{},\"shed\":{},\"shed_by_class\":[{}],\"failover_s\":{},\
                     \"goodput_qps\":{},\"goodput_clean_qps\":{}}}",
                    d.crashes,
                    d.recoveries,
                    d.availability,
                    d.down_group_seconds,
                    d.orphaned,
                    d.retries,
                    d.drops,
                    retries_by_class.join(","),
                    drops_by_class.join(","),
                    d.warm_rejoins,
                    d.cold_rejoins,
                    d.promotions,
                    d.pool_rescued,
                    d.pool_lost,
                    stats(&d.rescue_latency),
                    d.shed,
                    shed_by_class.join(","),
                    stats(&d.failover_latency),
                    d.goodput_qps,
                    d.goodput_clean_qps
                )
            }
        };
        let disagg = match &self.disagg {
            None => String::new(),
            Some(d) => format!(
                ",\"disagg\":{{\"prefill_groups\":{},\"decode_groups\":{},\"handoffs\":{},\
                 \"singles\":{},\"steals\":{},\"deferred_publishes\":{},\"handoff_s\":{},\
                 \"pool_capacity_tokens\":{},\"pool_peak_tokens\":{},\"pool_occupancy\":{}}}",
                d.prefill_groups,
                d.decode_groups,
                d.handoffs,
                d.singles,
                d.steals,
                d.deferred_publishes,
                stats(&d.handoff_latency),
                d.pool_capacity_tokens,
                d.pool_peak_tokens,
                d.pool_occupancy
            ),
        };
        format!(
            "{{\"groups\":{},\"offered_qps\":{},\"submitted\":{},\"completed\":{},\
             \"rejected\":{},\"makespan_s\":{},\"decode_tokens\":{},\"prefill_tokens\":{},\
             \"tokens_per_s\":{},\"ttft_s\":{},\"latency_s\":{},\"queue_wait_s\":{},\
             \"tbt_s\":{},\"preemptions\":{},\"swaps\":{},\"peak_queue_depth\":{},\
             \"slot_utilization\":{{\"min\":{},\"mean\":{},\"max\":{}}},\
             \"kv_utilization\":{{\"min\":{},\"mean\":{},\"max\":{}}},\
             \"imbalance\":{{\"min_share\":{},\"max_share\":{}}},\
             \"classes\":[{}],\"per_group\":[{}]{}{}}}",
            self.groups,
            self.offered_qps,
            self.submitted,
            self.completed,
            self.rejected,
            self.makespan.as_secs(),
            self.decode_tokens,
            self.prefill_tokens,
            self.tokens_per_s,
            stats(&self.ttft),
            stats(&self.query_latency),
            stats(&self.queue_wait),
            stats(&self.tbt),
            self.preemptions,
            self.swaps,
            self.peak_queue_depth,
            self.slot_utilization.min,
            self.slot_utilization.mean,
            self.slot_utilization.max,
            self.kv_utilization.min,
            self.kv_utilization.mean,
            self.kv_utilization.max,
            self.imbalance.min_share,
            self.imbalance.max_share,
            classes.join(","),
            per_group.join(","),
            degraded,
            disagg
        )
    }
}

/// Builds the degraded-mode section of a run that tracked faults.
///
/// `entry` and `decode` are the fold's records, sorted as [`requests`]
/// takes them. `completions` holds the completion instant of each completed
/// *request* (its phase records already joined), so goodput counts
/// requests, not phases.
fn degraded_section(
    log: &FaultLog,
    entry: &[(u64, &RequestRecord)],
    decode: &[&RequestRecord],
    completions: &[Time],
    makespan: Time,
    groups: usize,
) -> DegradedReport {
    // The run extends at least to the last offered arrival: a fleet that
    // died early and served nothing afterwards was still *down* while
    // requests kept arriving.
    let last_finish = completions.iter().copied().max().unwrap_or(Time::ZERO).max(log.horizon);

    // Outage windows, clipped to the run. Group-time accounting uses every
    // window; wall-clock accounting uses their union.
    let mut down_group_seconds = 0.0;
    let mut clipped: Vec<(Time, Time)> = Vec::new();
    for &(_, start, end) in &log.down_windows {
        let end = end.unwrap_or(last_finish).min(last_finish);
        let start = start.min(end);
        down_group_seconds += end.saturating_sub(start).as_secs();
        if end > start {
            clipped.push((start, end));
        }
    }
    let total_group_seconds = groups as f64 * last_finish.as_secs();
    let availability = if total_group_seconds > 0.0 {
        (1.0 - down_group_seconds / total_group_seconds).max(0.0)
    } else {
        1.0
    };
    clipped.sort_unstable();
    let mut union: Vec<(Time, Time)> = Vec::new();
    for (start, end) in clipped {
        match union.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => union.push((start, end)),
        }
    }
    let mut union_seconds = 0.0;
    for &(start, end) in &union {
        union_seconds += end.saturating_sub(start).as_secs();
    }

    // Recovery joins: for each event whose request later emitted a token,
    // the crash instant to its first token at or after it. A request can
    // leave several entry records (re-prefills) and a decode record, so pick
    // the earliest qualifying token among all of them.
    let join = |events: &[(RequestId, Time)]| -> LatencyStats {
        let mut samples = Vec::with_capacity(events.len());
        for &(id, crash_t) in events {
            let start = entry.partition_point(|e| e.0 < id.0);
            let chain = entry[start..].iter().take_while(|e| e.0 == id.0).map(|e| e.1);
            let decoded = decode.binary_search_by_key(&id.0, |r| r.spec.id.0).map(|i| decode[i]);
            let first = chain.chain(decoded.ok()).map(|r| r.first_token).filter(|&t| t >= crash_t);
            samples.extend(first.min().map(|t| t.saturating_sub(crash_t)));
        }
        LatencyStats::from_sorted(&SortedSamples::new(samples))
    };
    let failover_latency = join(&log.orphaned);
    let rescue_latency = join(&log.pool_rescued);

    let makespan_s = makespan.as_secs();
    let goodput_qps = if makespan_s > 0.0 { completions.len() as f64 / makespan_s } else { 0.0 };
    let in_outage = |t: Time| -> bool {
        let pos = union.partition_point(|&(start, _)| start <= t);
        pos > 0 && union[pos - 1].1 > t
    };
    let clean_completed = completions.iter().filter(|&&t| !in_outage(t)).count();
    let clean_seconds = (last_finish.as_secs() - union_seconds).max(0.0);
    let goodput_clean_qps =
        if clean_seconds > 0.0 { clean_completed as f64 / clean_seconds } else { 0.0 };

    let mut drops_by_class: BTreeMap<PriorityClass, usize> = BTreeMap::new();
    for &(_, class) in &log.dropped {
        *drops_by_class.entry(class).or_insert(0) += 1;
    }
    let mut shed_by_class: BTreeMap<PriorityClass, usize> = BTreeMap::new();
    for &(_, class) in &log.shed {
        *shed_by_class.entry(class).or_insert(0) += 1;
    }

    DegradedReport {
        crashes: log.crashes,
        recoveries: log.recoveries,
        availability,
        down_group_seconds,
        orphaned: log.orphaned.len(),
        retries: log.retries,
        drops: log.dropped.len(),
        retries_by_class: log.retries_by_class.clone(),
        drops_by_class: drops_by_class.into_iter().collect(),
        warm_rejoins: log.warm_rejoins,
        cold_rejoins: log.cold_rejoins,
        promotions: log.promotions,
        pool_rescued: log.pool_rescued.len(),
        pool_lost: log.pool_lost,
        rescue_latency,
        shed: log.shed.len(),
        shed_by_class: shed_by_class.into_iter().collect(),
        failover_latency,
        goodput_qps,
        goodput_clean_qps,
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet of {} groups | offered {:.2} q/s | served {}/{} ({} rejected) over {}",
            self.groups,
            self.offered_qps,
            self.completed,
            self.submitted,
            self.rejected,
            self.makespan
        )?;
        writeln!(
            f,
            "decode {:.0} tok/s | slots {:.0}–{:.0}% busy (mean {:.0}%) | arrivals/group \
             {:.2}–{:.2}× fair share | peak queue {}",
            self.tokens_per_s,
            100.0 * self.slot_utilization.min,
            100.0 * self.slot_utilization.max,
            100.0 * self.slot_utilization.mean,
            self.imbalance.min_share,
            self.imbalance.max_share,
            self.peak_queue_depth,
        )?;
        writeln!(f, "TTFT:    {}", self.ttft)?;
        writeln!(f, "latency: {}", self.query_latency)?;
        write!(f, "TBT:     {}", self.tbt)?;
        if let Some(d) = &self.degraded {
            writeln!(f)?;
            writeln!(
                f,
                "degraded: availability {:.3}% | {} crashes / {} recoveries | {} orphaned, {} \
                 retried, {} dropped",
                100.0 * d.availability,
                d.crashes,
                d.recoveries,
                d.orphaned,
                d.retries,
                d.drops,
            )?;
            writeln!(
                f,
                "recovery: {} warm / {} cold rejoins, {} promotions | pool rescued {} ({} \
                 lost) | {} shed",
                d.warm_rejoins, d.cold_rejoins, d.promotions, d.pool_rescued, d.pool_lost, d.shed,
            )?;
            writeln!(f, "rescue:  {}", d.rescue_latency)?;
            write!(
                f,
                "failover: {} | goodput {:.2} q/s ({:.2} q/s outside outages)",
                d.failover_latency, d.goodput_qps, d.goodput_clean_qps
            )?;
        }
        if let Some(d) = &self.disagg {
            writeln!(f)?;
            writeln!(
                f,
                "disagg: {}P/{}D groups | {} handoffs ({} singles, {} steals, {} deferred)",
                d.prefill_groups,
                d.decode_groups,
                d.handoffs,
                d.singles,
                d.steals,
                d.deferred_publishes,
            )?;
            write!(
                f,
                "handoff: {} | pool peak {}/{} tokens ({:.1}% mean occupancy)",
                d.handoff_latency,
                d.pool_peak_tokens,
                d.pool_capacity_tokens,
                100.0 * d.pool_occupancy,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cent_serving::{RequestSpec, SessionId};

    fn record(id: u64, first_token_us: u64, finished_us: u64) -> RequestRecord {
        RequestRecord {
            spec: RequestSpec {
                id: RequestId(id),
                arrival: Time::ZERO,
                prompt: 8,
                decode: 4,
                class: PriorityClass(0),
                session: SessionId(id),
            },
            admitted: Time::ZERO,
            first_token: Time::from_us(first_token_us),
            finished: Time::from_us(finished_us),
            replica: 0,
            preemptions: 0,
        }
    }

    #[test]
    fn recovery_joins_take_the_earliest_later_token_of_a_chain_and_its_decode_record() {
        // Request 7 was prefilled twice (first tokens at 10 and 30 us) and
        // decoded from 50 us; request 8's tokens (25 and 45 us) interleave.
        let (a, b, c) = (record(7, 10, 20), record(7, 30, 40), record(8, 25, 27));
        let entry = [(7, &a), (7, &b), (8, &c)];
        let (d7, d8) = (record(7, 50, 60), record(8, 45, 55));
        let decode = [&d7, &d8];
        // (request, crash instant, expected sample), all in us.
        let cases = [
            (7, 5, Some(5)),   // before every token: the first prefill's
            (7, 12, Some(18)), // between the prefills: the second prefill's
            (7, 35, Some(15)), // after both prefills: the decode record's
            (8, 21, Some(4)),
            (8, 26, Some(19)),
            (7, 60, None), // after every token: no sample
        ];
        for (id, crash_us, sample_us) in cases {
            let events = vec![(RequestId(id), Time::from_us(crash_us))];
            let log =
                FaultLog { orphaned: events.clone(), pool_rescued: events, ..FaultLog::default() };
            let d = degraded_section(&log, &entry, &decode, &[], Time::from_us(100), 2);
            let samples: Vec<Time> = sample_us.into_iter().map(Time::from_us).collect();
            let want = LatencyStats::from_samples(&samples);
            assert_eq!(
                (d.failover_latency, d.rescue_latency),
                (want, want),
                "request {id}, crash at {crash_us} us"
            );
        }
        // All events at once: the unmatched one adds no sample (a zero
        // sample would pull the mean down).
        let events: Vec<_> = cases.iter().map(|c| (RequestId(c.0), Time::from_us(c.1))).collect();
        let log = FaultLog { orphaned: events, ..FaultLog::default() };
        let d = degraded_section(&log, &entry, &decode, &[], Time::from_us(100), 2);
        let samples: Vec<Time> = cases.iter().filter_map(|c| c.2).map(Time::from_us).collect();
        assert_eq!(d.failover_latency, LatencyStats::from_samples(&samples));
    }
}
