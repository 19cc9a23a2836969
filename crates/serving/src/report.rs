//! Serving-level SLO metrics: latency distributions, throughput,
//! utilization, eviction (recompute and swap-to-CXL) and goodput — global
//! and per priority class — for one simulated run.

use cent_types::{SortedSamples, Time, TimeHistogram};

use crate::queue::{PriorityClass, RequestRecord};

/// Summary statistics of one latency population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Arithmetic mean.
    pub mean: Time,
    /// Median.
    pub p50: Time,
    /// 95th percentile.
    pub p95: Time,
    /// 99th percentile.
    pub p99: Time,
    /// Worst observed.
    pub max: Time,
}

impl LatencyStats {
    /// Computes the summary of `samples` (all zeros if empty).
    pub fn from_samples(samples: &[Time]) -> Self {
        Self::from_sorted(&SortedSamples::from_slice(samples))
    }

    /// Reads every summary statistic from one pre-sorted population — one
    /// sort per metric, shared across p50/p95/p99.
    pub fn from_sorted(sorted: &SortedSamples) -> Self {
        LatencyStats {
            mean: sorted.mean(),
            p50: sorted.percentile(0.50),
            p95: sorted.percentile(0.95),
            p99: sorted.percentile(0.99),
            max: sorted.max(),
        }
    }

    /// Summarises a streamed [`TimeHistogram`] (quantiles within the
    /// histogram's ~4.5% bucket resolution; mean and max are exact).
    pub fn from_histogram(h: &TimeHistogram) -> Self {
        LatencyStats {
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {} | p50 {} | p95 {} | p99 {} | max {}",
            self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// Exact integral of a piecewise-constant (staircase) occupancy quantity
/// over time, in integer `value · picosecond` units.
///
/// The event loops accumulate slot, device-KV and host-pool occupancy
/// through this type. Because every operation is exact integer arithmetic,
/// the final area is independent of how finely events subdivide time:
/// advancing `value` over `[a, b)` in one step equals advancing it over
/// any partition of `[a, b)` — which is what lets the span-fast-forward
/// engine replace thousands of per-tick samples with one
/// [`advance`](Self::advance) plus a closed-form
/// [`add_area`](Self::add_area) correction and still match the per-tick
/// engines bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StepIntegral {
    area: u128,
}

impl StepIntegral {
    /// Accumulates `value` held constant for `dt_ps` picoseconds.
    pub(crate) fn advance(&mut self, value: u128, dt_ps: u64) {
        self.area += value * u128::from(dt_ps);
    }

    /// Adds a pre-computed area (a closed-form span correction: the
    /// integral of the staircase *delta* above the value that
    /// [`advance`](Self::advance) already charged for the same window).
    pub(crate) fn add_area(&mut self, area: u128) {
        self.area += area;
    }

    /// The accumulated area in `value · ps` (tests only; the event loops
    /// read the area through [`fraction_of`](Self::fraction_of)).
    #[cfg(test)]
    pub(crate) fn area(&self) -> u128 {
        self.area
    }

    /// The area as a fraction of `capacity` held over `span_ps` (0.0 when
    /// the denominator is empty).
    pub(crate) fn fraction_of(&self, capacity: u128, span_ps: u64) -> f64 {
        let total = capacity * u128::from(span_ps);
        if total > 0 {
            self.area as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// Run-level counters gathered by the event loop, handed to
/// [`ServingReport::from_records`] alongside the completed records.
#[derive(Debug, Clone)]
pub(crate) struct RunTotals<'a> {
    /// Mean offered load, queries/second.
    pub offered_qps: f64,
    /// Requests that arrived within the horizon.
    pub submitted: usize,
    /// Requests rejected up front (footprint exceeds a replica's budget).
    pub rejected: usize,
    /// Steady-state decode throughput of the deployment.
    pub steady_state_tokens_per_s: f64,
    /// Time-weighted fraction of decode slots occupied.
    pub slot_utilization: f64,
    /// Peak per-replica KV reservation as a fraction of the budget.
    pub peak_kv_fraction: f64,
    /// Time-weighted mean KV reservation as a fraction of the budget.
    pub kv_utilization: f64,
    /// Largest queue depth observed.
    pub peak_queue_depth: usize,
    /// Recompute-eviction events.
    pub preemptions: u64,
    /// Swap-to-CXL eviction events.
    pub swaps: u64,
    /// Total eviction-to-resume stall across recompute victims.
    pub recompute_stall: Time,
    /// Total eviction-to-resume stall across swap victims.
    pub swap_stall: Time,
    /// Configured CXL host-pool capacity in KV tokens.
    pub host_pool_tokens: u64,
    /// Largest host-pool occupancy observed, in KV tokens.
    pub host_kv_peak_tokens: u64,
    /// Time-weighted mean host-pool occupancy as a fraction of capacity.
    pub host_kv_utilization: f64,
    /// Per-gap time-between-tokens stream (one sample per generated token
    /// after a request's first, so long queries weigh proportionally).
    pub tbt: &'a TimeHistogram,
    /// Arrivals per priority class (sorted by class; rejections included).
    pub submitted_by_class: &'a [(PriorityClass, usize)],
    /// Per-class TBT streams (sorted by class). A class has an entry once
    /// it emitted a fast-forwarded span or a token after its first, so the
    /// keys can be fewer than those of `submitted_by_class`: a class whose
    /// arrivals were all rejected or single-token has none.
    pub tbt_by_class: &'a [(PriorityClass, TimeHistogram)],
    /// Latency SLO used for goodput accounting, if any.
    pub slo: Option<Time>,
}

/// Per-[`PriorityClass`] SLO metrics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class these rows describe.
    pub class: PriorityClass,
    /// Requests of this class that arrived within the horizon (rejections
    /// included).
    pub submitted: usize,
    /// Requests of this class served to completion.
    pub completed: usize,
    /// Time-to-first-token distribution of the class.
    pub ttft: LatencyStats,
    /// End-to-end query latency distribution of the class.
    pub query_latency: LatencyStats,
    /// Time-between-tokens distribution of the class.
    pub tbt: LatencyStats,
    /// Completions of this class that met the SLO.
    pub deadline_hits: usize,
    /// SLO-meeting completions of this class per second, over the run's
    /// global makespan (so class goodputs are comparable and sum to the
    /// run's total goodput).
    pub goodput_qps: f64,
}

impl ClassReport {
    /// Builds one class row from the class's populations: `ttfts` holds the
    /// first-token delay of each of its requests that emitted one,
    /// `latencies` the end-to-end latency of each that completed. The row
    /// counts `latencies` as `completed`, the latencies within `slo` as
    /// `deadline_hits` (every one without an SLO), and spreads the hits over
    /// the run's `makespan` as `goodput_qps`.
    pub fn new(
        class: PriorityClass,
        submitted: usize,
        ttfts: Vec<Time>,
        latencies: Vec<Time>,
        tbt: LatencyStats,
        slo: Option<Time>,
        makespan: Time,
    ) -> Self {
        let deadline_hits = match slo {
            Some(slo) => latencies.iter().filter(|&&l| l <= slo).count(),
            None => latencies.len(),
        };
        ClassReport {
            class,
            submitted,
            completed: latencies.len(),
            ttft: LatencyStats::from_sorted(&SortedSamples::new(ttfts)),
            query_latency: LatencyStats::from_sorted(&SortedSamples::new(latencies)),
            tbt,
            deadline_hits,
            goodput_qps: if makespan > Time::ZERO {
                deadline_hits as f64 / makespan.as_secs()
            } else {
                0.0
            },
        }
    }
}

/// The result of one request-level serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Mean offered load of the workload, queries/second.
    pub offered_qps: f64,
    /// Requests that arrived within the horizon.
    pub submitted: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected (KV footprint larger than a replica's budget).
    pub rejected: usize,
    /// First arrival to last completion.
    pub makespan: Time,
    /// Total generated (decode) tokens.
    pub decode_tokens: u64,
    /// Total prompt (prefill) tokens processed.
    pub prefill_tokens: u64,
    /// Achieved decode throughput over the makespan, tokens/second.
    pub tokens_per_s: f64,
    /// The steady-state decode throughput of the underlying deployment
    /// (`cent_sim::evaluate`), for convergence comparison.
    pub steady_state_tokens_per_s: f64,
    /// Time-to-first-token distribution.
    pub ttft: LatencyStats,
    /// End-to-end query latency distribution.
    pub query_latency: LatencyStats,
    /// Queue-wait distribution.
    pub queue_wait: LatencyStats,
    /// Time-between-tokens distribution (decode cadence): one sample per
    /// generated token after a request's first — preemption stalls appear
    /// as outlier gaps — streamed through a [`TimeHistogram`], whose
    /// memory is bounded by the occupied bucket span, not the run length.
    pub tbt: LatencyStats,
    /// Time-weighted fraction of decode slots occupied. Like the other two
    /// utilizations, it is averaged over the window from time zero to the
    /// run's latest arrival, token or crash instant.
    pub slot_utilization: f64,
    /// Peak per-replica KV reservation as a fraction of the budget.
    pub peak_kv_fraction: f64,
    /// Time-weighted mean KV reservation as a fraction of the total budget
    /// (peak tells you the worst instant; this tells you how well the pool
    /// is actually used), over the same window as `slot_utilization`.
    pub kv_utilization: f64,
    /// Largest queue depth observed.
    pub peak_queue_depth: usize,
    /// Recompute evictions (a request evicted mid-decode for KV
    /// reclamation, its context later re-prefilled).
    pub preemptions: u64,
    /// Swap evictions (a request's KV paged out to CXL host memory and
    /// paged back before decode resumed).
    pub swaps: u64,
    /// Total eviction-to-resume stall time across recompute victims (from
    /// eviction to the end of the resumed re-prefill, queue wait included).
    pub recompute_stall: Time,
    /// Total eviction-to-resume stall time across swap victims (from
    /// eviction to the end of the page-in transfer, queue wait included).
    pub swap_stall: Time,
    /// Configured CXL host-pool capacity in KV tokens (zero when the swap
    /// tier is disabled).
    pub host_pool_tokens: u64,
    /// Largest host-pool occupancy observed, in KV tokens.
    pub host_kv_peak_tokens: u64,
    /// Time-weighted mean host-pool occupancy as a fraction of capacity
    /// (zero when the swap tier is disabled), over the same window as
    /// `slot_utilization`.
    pub host_kv_utilization: f64,
    /// Per-class SLO metrics, sorted by class (one entry per class that
    /// submitted at least one request).
    pub classes: Vec<ClassReport>,
    /// Latency SLO the run was judged against, if any.
    pub slo: Option<Time>,
    /// Completed requests whose end-to-end latency met the SLO (equals
    /// `completed` when no SLO is set).
    pub deadline_hits: usize,
    /// SLO-meeting completions per second over the makespan — the paper's
    /// QoS lens on throughput.
    pub goodput_qps: f64,
}

impl ServingReport {
    /// Builds the report from completed request records and run-level
    /// counters gathered by the event loop.
    pub(crate) fn from_records(records: &[RequestRecord], totals: RunTotals<'_>) -> Self {
        let first_arrival = records.iter().map(|r| r.spec.arrival).min().unwrap_or(Time::ZERO);
        let last_finish = records.iter().map(|r| r.finished).max().unwrap_or(Time::ZERO);
        let makespan = last_finish.saturating_sub(first_arrival);
        let decode_tokens: u64 = records.iter().map(|r| r.spec.decode as u64).sum();
        let prefill_tokens: u64 = records.iter().map(|r| r.spec.prompt as u64).sum();
        let tokens_per_s =
            if makespan > Time::ZERO { decode_tokens as f64 / makespan.as_secs() } else { 0.0 };
        // Each latency population is sorted exactly once; p50/p95/p99 and
        // max all read from the same sorted storage.
        let ttfts = SortedSamples::new(records.iter().map(|r| r.ttft()).collect());
        let latencies = SortedSamples::new(records.iter().map(|r| r.query_latency()).collect());
        let waits = SortedSamples::new(records.iter().map(|r| r.queue_wait()).collect());
        let deadline_hits = match totals.slo {
            Some(slo) => records.iter().filter(|r| r.query_latency() <= slo).count(),
            None => records.len(),
        };
        let goodput_qps =
            if makespan > Time::ZERO { deadline_hits as f64 / makespan.as_secs() } else { 0.0 };
        let classes = totals
            .submitted_by_class
            .iter()
            .map(|&(class, submitted)| {
                let of_class = || records.iter().filter(move |r| r.spec.class == class);
                let tbt = totals.tbt_by_class.iter().find(|(c, _)| *c == class);
                ClassReport::new(
                    class,
                    submitted,
                    of_class().map(|r| r.ttft()).collect(),
                    of_class().map(|r| r.query_latency()).collect(),
                    tbt.map(|(_, h)| LatencyStats::from_histogram(h)).unwrap_or_default(),
                    totals.slo,
                    makespan,
                )
            })
            .collect();
        ServingReport {
            offered_qps: totals.offered_qps,
            submitted: totals.submitted,
            completed: records.len(),
            rejected: totals.rejected,
            makespan,
            decode_tokens,
            prefill_tokens,
            tokens_per_s,
            steady_state_tokens_per_s: totals.steady_state_tokens_per_s,
            ttft: LatencyStats::from_sorted(&ttfts),
            query_latency: LatencyStats::from_sorted(&latencies),
            queue_wait: LatencyStats::from_sorted(&waits),
            tbt: LatencyStats::from_histogram(totals.tbt),
            slot_utilization: totals.slot_utilization,
            peak_kv_fraction: totals.peak_kv_fraction,
            kv_utilization: totals.kv_utilization,
            peak_queue_depth: totals.peak_queue_depth,
            preemptions: totals.preemptions,
            swaps: totals.swaps,
            recompute_stall: totals.recompute_stall,
            swap_stall: totals.swap_stall,
            host_pool_tokens: totals.host_pool_tokens,
            host_kv_peak_tokens: totals.host_kv_peak_tokens,
            host_kv_utilization: totals.host_kv_utilization,
            classes,
            slo: totals.slo,
            deadline_hits,
            goodput_qps,
        }
    }

    /// Total eviction-to-resume stall time across both victim kinds — the
    /// quantity the cost-driven spill mode minimises.
    pub fn eviction_stall(&self) -> Time {
        self.recompute_stall + self.swap_stall
    }

    /// Achieved throughput as a fraction of the steady-state oracle.
    pub fn throughput_fraction(&self) -> f64 {
        if self.steady_state_tokens_per_s > 0.0 {
            self.tokens_per_s / self.steady_state_tokens_per_s
        } else {
            0.0
        }
    }

    /// Fraction of completed requests that met the SLO (1.0 when no SLO).
    pub fn slo_attainment(&self) -> f64 {
        if self.completed > 0 {
            self.deadline_hits as f64 / self.completed as f64
        } else {
            0.0
        }
    }

    /// Renders the report as one hand-rolled JSON object (no serde in the
    /// workspace) — the schema documented in `docs/SCHEMAS.md`. Latency
    /// distributions serialize as `{mean, p50, p95, p99, max}` objects in
    /// seconds; `slo_s` is `null` when no SLO was set.
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
        let slo = match self.slo {
            Some(slo) => format!("{}", slo.as_secs()),
            None => "null".to_owned(),
        };
        format!(
            "{{\"offered_qps\":{},\"submitted\":{},\"completed\":{},\"rejected\":{},\
             \"makespan_s\":{},\"decode_tokens\":{},\"prefill_tokens\":{},\"tokens_per_s\":{},\
             \"steady_state_tokens_per_s\":{},\"ttft_s\":{},\"latency_s\":{},\"queue_wait_s\":{},\
             \"tbt_s\":{},\"slot_utilization\":{},\"peak_kv_fraction\":{},\"kv_utilization\":{},\
             \"peak_queue_depth\":{},\"preemptions\":{},\"swaps\":{},\"recompute_stall_s\":{},\
             \"swap_stall_s\":{},\"host_pool_tokens\":{},\"host_kv_peak_tokens\":{},\
             \"host_kv_utilization\":{},\"classes\":[{}],\"slo_s\":{},\"deadline_hits\":{},\
             \"goodput_qps\":{}}}",
            self.offered_qps,
            self.submitted,
            self.completed,
            self.rejected,
            self.makespan.as_secs(),
            self.decode_tokens,
            self.prefill_tokens,
            self.tokens_per_s,
            self.steady_state_tokens_per_s,
            stats(&self.ttft),
            stats(&self.query_latency),
            stats(&self.queue_wait),
            stats(&self.tbt),
            self.slot_utilization,
            self.peak_kv_fraction,
            self.kv_utilization,
            self.peak_queue_depth,
            self.preemptions,
            self.swaps,
            self.recompute_stall.as_secs(),
            self.swap_stall.as_secs(),
            self.host_pool_tokens,
            self.host_kv_peak_tokens,
            self.host_kv_utilization,
            classes.join(","),
            slo,
            self.deadline_hits,
            self.goodput_qps
        )
    }
}

impl std::fmt::Display for ServingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "offered {:.2} q/s | served {}/{} ({} rejected) over {}",
            self.offered_qps, self.completed, self.submitted, self.rejected, self.makespan
        )?;
        writeln!(
            f,
            "decode {:.0} tok/s ({:.0}% of steady state) | slots {:.0}% busy | KV peak {:.0}% / mean {:.0}% | peak queue {}",
            self.tokens_per_s,
            100.0 * self.throughput_fraction(),
            100.0 * self.slot_utilization,
            100.0 * self.peak_kv_fraction,
            100.0 * self.kv_utilization,
            self.peak_queue_depth,
        )?;
        if let Some(slo) = self.slo {
            writeln!(
                f,
                "goodput {:.3} q/s ({:.0}% within the {slo} SLO) | {} preemptions",
                self.goodput_qps,
                100.0 * self.slo_attainment(),
                self.preemptions,
            )?;
        } else if self.preemptions > 0 || self.swaps > 0 {
            writeln!(f, "preemptions: {} | swaps: {}", self.preemptions, self.swaps)?;
        }
        if self.swaps > 0 {
            writeln!(
                f,
                "swap tier: {} swaps (stall {}) vs {} recomputes (stall {}) | host pool peak \
                 {}/{} tokens ({:.0}% mean)",
                self.swaps,
                self.swap_stall,
                self.preemptions,
                self.recompute_stall,
                self.host_kv_peak_tokens,
                self.host_pool_tokens,
                100.0 * self.host_kv_utilization,
            )?;
        }
        if self.classes.len() > 1 {
            for c in &self.classes {
                writeln!(
                    f,
                    "class {}: {}/{} done | TTFT p99 {} | TBT mean {} | goodput {:.3} q/s",
                    c.class, c.completed, c.submitted, c.ttft.p99, c.tbt.mean, c.goodput_qps,
                )?;
            }
        }
        writeln!(f, "TTFT:    {}", self.ttft)?;
        writeln!(f, "latency: {}", self.query_latency)?;
        writeln!(f, "wait:    {}", self.queue_wait)?;
        write!(f, "mean time between tokens: {}", self.tbt.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{RequestId, RequestSpec};

    #[test]
    fn step_integral_is_partition_independent() {
        // One advance over [0, 10) at value 7 equals any subdivision, and a
        // staircase accumulated per segment equals the same staircase
        // accumulated as base + closed-form delta area.
        let mut whole = StepIntegral::default();
        whole.advance(7, 10);
        let mut split = StepIntegral::default();
        split.advance(7, 3);
        split.advance(7, 7);
        assert_eq!(whole.area(), split.area());
        // Staircase 5,6,7 over three unit segments...
        let mut per_segment = StepIntegral::default();
        per_segment.advance(5, 1);
        per_segment.advance(6, 1);
        per_segment.advance(7, 1);
        // ...equals base value 5 over the window plus the delta area
        // (0·1 + 1·1 + 2·1 = 3).
        let mut spanned = StepIntegral::default();
        spanned.advance(5, 3);
        spanned.add_area(3);
        assert_eq!(per_segment.area(), spanned.area());
        assert!((spanned.fraction_of(9, 3) - 18.0 / 27.0).abs() < 1e-15);
        assert_eq!(StepIntegral::default().fraction_of(0, 0), 0.0);
    }

    #[test]
    fn stats_from_empty_are_zero() {
        let s = LatencyStats::from_samples(&[]);
        assert_eq!(s.p99, Time::ZERO);
        assert_eq!(s.mean, Time::ZERO);
        assert_eq!(s.max, Time::ZERO);
    }

    #[test]
    fn stats_percentiles_are_ordered() {
        let samples: Vec<Time> = (1..=1000).map(Time::from_us).collect();
        let s = LatencyStats::from_samples(&samples);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.max, Time::from_us(1000));
    }

    fn record(id: u64, arrival_us: u64, finished_us: u64, class: u8) -> RequestRecord {
        RequestRecord {
            spec: RequestSpec {
                id: RequestId(id),
                arrival: Time::from_us(arrival_us),
                prompt: 8,
                decode: 4,
                class: PriorityClass(class),
                session: crate::queue::SessionId(id),
            },
            admitted: Time::from_us(arrival_us),
            first_token: Time::from_us(arrival_us + 10),
            finished: Time::from_us(finished_us),
            replica: 0,
            preemptions: 0,
        }
    }

    fn totals<'a>(
        slo: Option<Time>,
        by_class: &'a [(PriorityClass, usize)],
        tbt: &'a TimeHistogram,
    ) -> RunTotals<'a> {
        RunTotals {
            offered_qps: 1.0,
            submitted: by_class.iter().map(|&(_, n)| n).sum(),
            rejected: 0,
            steady_state_tokens_per_s: 100.0,
            slot_utilization: 0.5,
            peak_kv_fraction: 0.5,
            kv_utilization: 0.25,
            peak_queue_depth: 1,
            preemptions: 0,
            swaps: 0,
            recompute_stall: Time::ZERO,
            swap_stall: Time::ZERO,
            host_pool_tokens: 0,
            host_kv_peak_tokens: 0,
            host_kv_utilization: 0.0,
            tbt,
            submitted_by_class: by_class,
            tbt_by_class: &[],
            slo,
        }
    }

    #[test]
    fn goodput_counts_only_slo_hits() {
        // Request 0 finishes 50 us after arrival, request 1 takes 500 us.
        let records = [record(0, 0, 50, 0), record(1, 100, 600, 0)];
        let slo = Some(Time::from_us(100));
        let (by_class, tbt) = ([(PriorityClass(0), 2)], TimeHistogram::new());
        let report = ServingReport::from_records(&records, totals(slo, &by_class, &tbt));
        assert_eq!(report.deadline_hits, 1);
        assert!((report.slo_attainment() - 0.5).abs() < 1e-12);
        // Goodput = 1 hit over the 600 us makespan.
        assert!((report.goodput_qps - 1.0 / 600e-6).abs() < 1e-3);
        // Without an SLO every completion counts.
        let report = ServingReport::from_records(&records, totals(None, &by_class, &tbt));
        assert_eq!(report.deadline_hits, 2);
        assert_eq!(report.slo_attainment(), 1.0);
    }

    #[test]
    fn per_class_rows_partition_the_run() {
        // Interactive request 0 meets the SLO; background 1 and 2 miss it.
        let records = [record(0, 0, 50, 0), record(1, 100, 600, 1), record(2, 120, 700, 1)];
        let slo = Some(Time::from_us(100));
        let by_class = [(PriorityClass(0), 1), (PriorityClass(1), 2)];
        let tbt = TimeHistogram::new();
        let report = ServingReport::from_records(&records, totals(slo, &by_class, &tbt));
        assert_eq!(report.classes.len(), 2);
        let (hi, lo) = (&report.classes[0], &report.classes[1]);
        assert_eq!(
            (hi.class, hi.submitted, hi.completed, hi.deadline_hits),
            (PriorityClass(0), 1, 1, 1)
        );
        assert_eq!(
            (lo.class, lo.submitted, lo.completed, lo.deadline_hits),
            (PriorityClass(1), 2, 2, 0)
        );
        // Class goodputs sum to the run's total.
        let sum: f64 = report.classes.iter().map(|c| c.goodput_qps).sum();
        assert!((sum - report.goodput_qps).abs() < 1e-9);
        // Per-class TTFT populations are the class's own records.
        assert_eq!(hi.ttft.max, Time::from_us(10));
        assert_eq!(lo.query_latency.max, Time::from_us(580));
        assert_eq!(report.eviction_stall(), Time::ZERO);
    }
}
