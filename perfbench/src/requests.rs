//! The deployment and the simulated request-level metrics shared by the
//! serving workloads.

use cent::compiler::Strategy;
use cent::model::ModelConfig;
use cent::serving::{LatencyStats, ServingSystem, SimStats};
use cent::types::Time;

use crate::trace::{Clock, Tracer};
use crate::{Checks, Layers};

/// Time-to-first-token limit of the SLO.
pub const TTFT_SLO: Time = Time::from_us(2_000_000);
/// Limit on a request's mean time between tokens.
pub const TBT_SLO: Time = Time::from_us(100_000);
/// Fewest samples a reported p99 may rest on.
pub const MIN_P99_SAMPLES: u64 = 1000;

/// The simulated serving results of one workload point.
pub struct Simulated {
    /// Requests offered.
    pub offered: usize,
    /// TTFT distribution over completed requests.
    pub ttft: LatencyStats,
    /// TTFT samples behind `ttft`.
    pub ttft_samples: u64,
    /// Time-between-tokens distribution.
    pub tbt: LatencyStats,
    /// TBT samples behind `tbt`.
    pub tbt_samples: u64,
    /// Offered requests that completed within both SLOs.
    pub slo_met: usize,
}

impl Simulated {
    /// Share of offered requests that completed within both SLOs; a
    /// rejected, dropped or shed request counts as a miss.
    pub fn attainment(&self) -> f64 {
        self.slo_met as f64 / self.offered.max(1) as f64
    }

    /// Checks the percentiles have enough samples and writes the `sim_*`
    /// per-layer rows, labelled with `point`.
    pub fn report(&self, point: &str, checks: &mut Checks, layers: &mut Layers) {
        checks.check(self.ttft_samples >= MIN_P99_SAMPLES, || {
            format!("{point}: TTFT p99 rests on {} samples", self.ttft_samples)
        });
        checks.check(self.tbt_samples >= MIN_P99_SAMPLES, || {
            format!("{point}: TBT p99 rests on {} samples", self.tbt_samples)
        });
        let ttft_note = format!("{point}, n={}", self.ttft_samples);
        layers.set("sim_ttft_p50_s", self.ttft.p50.as_secs(), ttft_note.clone());
        layers.set("sim_ttft_p99_s", self.ttft.p99.as_secs(), ttft_note);
        layers.set(
            "sim_tbt_p99_ms",
            self.tbt.p99.as_secs() * 1e3,
            format!("{point}, n={}", self.tbt_samples),
        );
        layers.set(
            "sim_slo_attainment",
            self.attainment(),
            format!("{point}, TTFT<=2s and mean TBT<=100ms, of {} offered", self.offered),
        );
        layers.set("sim_requests", self.offered as f64, point.to_string());
    }
}

/// Whether a completed request with this TTFT and mean time between
/// tokens met the SLO.
pub fn meets_slo(ttft: Time, mean_tbt: Time) -> bool {
    ttft <= TTFT_SLO && mean_tbt <= TBT_SLO
}

/// The Llama2-7B PP/8 deployment every serving workload plans in set-up;
/// planning runs one `evaluate`.
pub fn plan_deployment() -> ServingSystem {
    ServingSystem::plan(&ModelConfig::llama2_7b(), 8, Strategy::PipelineParallel, 4096)
        .expect("Llama2-7B plans on 8 devices")
}

/// Traced runs: times one deployment plan, the `evaluate` call that is
/// most of a serving workload's set-up.
pub fn trace_plan(tracer: &mut Tracer, layers: &mut Layers) {
    let start = Clock::start();
    tracer.span("sim", "sim.evaluate", "set-up plan", |_| plan_deployment());
    let ms = start.secs() * 1e3;
    layers.set("sim.evaluate_ms.p50", ms, "n=1, set-up plan");
    layers.set("sim.evaluate_ms.max", ms, "n=1, set-up plan");
    layers.set("sim.evaluate_calls", 1.0, "per set-up");
}

/// Sums event-core counters over runs or groups.
pub fn total_stats<'a>(stats: impl IntoIterator<Item = &'a SimStats>) -> SimStats {
    let mut total = SimStats::default();
    for s in stats {
        total.heap_pushes += s.heap_pushes;
        total.heap_pops += s.heap_pops;
        total.tick_events += s.tick_events;
        total.tokens += s.tokens;
        total.admissions += s.admissions;
    }
    total
}
