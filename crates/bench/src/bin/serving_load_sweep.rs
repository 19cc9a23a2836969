//! Offered load vs p99 latency: the serving-level counterpart of the
//! paper's QoS study (§7.1), produced by the request-level simulator.
//!
//! Sweeps Poisson offered load from 25% to 150% of the deployment's chatbot
//! capacity and records delivered tokens/s, p99 TTFT and p99 query latency
//! — the classic throughput–latency knee. The load points are anchored on
//! `capacity_qps(512, 3584)`, which takes the tighter of the decode- and
//! prefill-side limits (the chatbot mix is decode-bound, but the anchor now
//! stays correct for prompt-heavy what-ifs too).
//!
//! The workload trace is generated **once**, at the maximum swept rate, and
//! shared behind an `Arc`; every lower operating point derives its trace by
//! deterministic Poisson thinning (`Workload::thin_trace` — an exact
//! Poisson-process identity, not an approximation), so the sweep pays the
//! hour-long trace generation one time instead of eight. Points run in
//! parallel under `std::thread::scope`, results print in load order, and
//! the whole sweep is bit-for-bit reproducible.
use std::sync::Arc;

use cent_bench::Report;
use cent_model::ModelConfig;
use cent_serving::{ServingReport, ServingSystem, Workload};
use cent_types::Time;

const LOADS: [f64; 8] = [0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5];

fn main() {
    let cfg = ModelConfig::llama2_7b();
    let devices = 8;
    let system =
        ServingSystem::plan(&cfg, devices, cent_compiler::Strategy::PipelineParallel, 4096)
            .expect("planning Llama2-7B on 8 devices");
    // The corrected knee: min(decode-side, prefill-side) capacity for the
    // paper's 512-in/3584-out chatbot shape.
    let capacity = system.capacity_qps(512, 3584);
    let horizon = Time::from_secs_f64(3600.0);
    let max_load = LOADS.last().copied().expect("non-empty sweep");

    // One generation at the top rate; every other point thins it.
    let base = Arc::new(Workload::chatbot(max_load * capacity, 0xCE27).generate(horizon, 4096));

    // Fan the operating points out across threads; each writes its own
    // pre-allocated slot, so the collected order is the load order.
    let mut results: Vec<Option<ServingReport>> = vec![None; LOADS.len()];
    std::thread::scope(|scope| {
        for (slot, &load) in results.iter_mut().zip(&LOADS) {
            let system = &system;
            let base = Arc::clone(&base);
            scope.spawn(move || {
                // The top point serves the shared trace in place; lower
                // points thin it (the thinned copies are strictly smaller).
                let thinned;
                let trace: &[_] = if load == max_load {
                    &base
                } else {
                    thinned = Workload::thin_trace(&base, load / max_load, 0xCE27 ^ load.to_bits());
                    &thinned
                };
                *slot = Some(system.serve_trace(trace, load * capacity));
            });
        }
    });

    let mut tokens = Vec::new();
    let mut ttft_p99 = Vec::new();
    let mut latency_p99 = Vec::new();
    for (&load, result) in LOADS.iter().zip(&results) {
        let r = result.as_ref().expect("every sweep point completed");
        let label = format!("{load:.2}x");
        tokens.push((label.clone(), r.tokens_per_s));
        ttft_p99.push((label.clone(), r.ttft.p99.as_secs()));
        latency_p99.push((label, r.query_latency.p99.as_secs()));
    }

    let mut report = Report::new(
        "serving_load_sweep",
        "Offered load vs p99 latency (Llama2-7B, 8 devices, 512/3584 chatbot mix)",
        "throughput plateaus at the steady-state evaluate() rate while p99 \
         latency rises sharply past the saturation knee",
    );
    report.push_series("decode throughput", "tokens/s", &tokens);
    report.push_series("TTFT p99", "s", &ttft_p99);
    report.push_series("query latency p99", "s", &latency_p99);
    report.emit();
}
