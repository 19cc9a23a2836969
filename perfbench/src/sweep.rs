//! `serving-rate-sweep`: one Llama2-7B PP/8 deployment serving ShareGPT
//! traffic at six fixed open-loop Poisson rates, one single-threaded
//! `serve_trace` per rate.
//!
//! Host cost per request grows with backlog depth, so the admission queue
//! does most of its work at the overloaded rates; the cluster layer is
//! bypassed.

use cent::serving::{
    GroupSim, LengthSampler, RequestSpec, ServeOptions, ServingReport, ServingSystem, SimStats,
    TickEngine, Workload,
};
use cent::types::Time;

use crate::requests::{meets_slo, plan_deployment, total_stats, trace_plan, Simulated};
use crate::trace::{Clock, Tracer};
use crate::{setup_median, timed, Checks, Layers, Outcome, RunConfig};

/// Offered load as multiples of the deployment's capacity.
const RATES: [f64; 6] = [0.5, 0.7, 0.9, 1.1, 1.5, 3.0];
/// Per-layer names of each rate's host cost and backlog, in `RATES` order.
const US_PER_REQ: [&str; 6] = [
    "serving.us_per_req.x0.5",
    "serving.us_per_req.x0.7",
    "serving.us_per_req.x0.9",
    "serving.us_per_req.x1.1",
    "serving.us_per_req.x1.5",
    "serving.us_per_req.x3.0",
];
const PEAK_QUEUE: [&str; 6] = [
    "serving.peak_queue_depth.x0.5",
    "serving.peak_queue_depth.x0.7",
    "serving.peak_queue_depth.x0.9",
    "serving.peak_queue_depth.x1.1",
    "serving.peak_queue_depth.x1.5",
    "serving.peak_queue_depth.x3.0",
];
/// The rate the simulated TTFT, TBT and SLO rows are reported at.
const REPORTED_RATE: usize = 2;
/// Simulated arrival window of each rate's trace, seconds.
const HORIZON_S: f64 = 600.0;
/// Lowest rate at which the SLO must hold for `sim_max_rate_qps`.
const MAX_RATE_ATTAINMENT: f64 = 0.9;

/// One rate point's input.
struct Point {
    qps: f64,
    trace: Vec<RequestSpec>,
}

/// Builds the deployment and one seeded trace per rate.
fn setup(seed: u64) -> (ServingSystem, Vec<Point>) {
    let system = plan_deployment();
    let capacity = system.capacity_qps(160, 210);
    let points = RATES
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let qps = x * capacity;
            let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
            let w = Workload { lengths: LengthSampler::ShareGpt, ..Workload::chatbot(qps, seed) };
            Point { qps, trace: w.generate(Time::from_secs_f64(HORIZON_S), 4096) }
        })
        .collect();
    (system, points)
}

/// Serves every rate point once, each inside a span.
fn serve_all(
    system: &ServingSystem,
    points: &[Point],
    tracer: &mut Tracer,
) -> Vec<(ServingReport, SimStats)> {
    points
        .iter()
        .zip(RATES)
        .map(|(p, x)| {
            tracer.span("serving", "serving.serve_trace", &format!("x{x}"), |_| {
                system.serve_trace_instrumented(&p.trace, p.qps, ServeOptions::default())
            })
        })
        .collect()
}

/// Replays a trace through the resumable `GroupSim` engine to get the
/// per-request records.
fn replay(system: &ServingSystem, p: &Point) -> cent::serving::GroupOutcome {
    let mut sim = GroupSim::new(system, ServeOptions::default());
    for spec in &p.trace {
        sim.push_arrival(*spec);
    }
    sim.finish(p.qps)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, checks: &mut Checks, tracer: &mut Tracer) -> Outcome {
    let ((system, points), setup_s) = setup_median(3, || setup(cfg.seed));
    let timed = timed(cfg.seconds, checks, || serve_all(&system, &points, &mut Tracer::new(false)));
    let results = &timed.output;

    let offered: usize = points.iter().map(|p| p.trace.len()).sum();
    let mut completed = 0;
    for ((report, _), x) in results.iter().zip(RATES) {
        checks.check(report.completed + report.rejected == report.submitted, || {
            format!("x{x}: completed + rejected != submitted")
        });
        completed += report.completed;
    }
    for (p, (report, _)) in points.iter().zip(results) {
        checks.check(report.submitted == p.trace.len(), || "a rate lost requests".to_string());
    }
    // The span engine must match the per-token reference engine exactly.
    let reference = system.serve_trace_with(
        &points[0].trace,
        points[0].qps,
        ServeOptions::default().with_engine(TickEngine::PerTokenReference),
    );
    checks.check(reference == results[0].0, || {
        "x0.5: span engine report differs from the per-token reference".to_string()
    });

    let mut layers = Layers::default();
    // Simulated results at the reported rate, from a GroupSim replay that
    // must itself reproduce the timed run's report.
    let slo_at = |i: usize, checks: &mut Checks| {
        let outcome = replay(&system, &points[i]);
        checks.check(outcome.report == results[i].0, || {
            format!("x{}: GroupSim replay differs from serve_trace", RATES[i])
        });
        let met =
            outcome.records.iter().filter(|r| meets_slo(r.ttft(), r.time_between_tokens())).count();
        (outcome, met)
    };
    let (outcome, slo_met) = slo_at(REPORTED_RATE, checks);
    let simulated = Simulated {
        offered: points[REPORTED_RATE].trace.len(),
        ttft: outcome.report.ttft,
        ttft_samples: outcome.records.len() as u64,
        tbt: outcome.report.tbt,
        tbt_samples: outcome.tbt.count(),
        slo_met,
    };
    simulated.report(&format!("x{}", RATES[REPORTED_RATE]), checks, &mut layers);

    if cfg.traced {
        trace_plan(tracer, &mut layers);
        let mut max_rate = 0.0f64;
        for (i, p) in points.iter().enumerate() {
            let (_, met) = slo_at(i, checks);
            if met as f64 >= MAX_RATE_ATTAINMENT * p.trace.len() as f64 {
                max_rate = max_rate.max(p.qps);
            }
        }
        layers.set("sim_max_rate_qps", max_rate, "highest swept rate with SLO attainment >= 0.9");
        let start = Clock::start();
        let traced = tracer
            .span("bench", "serving-rate-sweep", "iteration", |t| serve_all(&system, &points, t));
        crate::set_overhead(&mut layers, start.secs(), timed.wall_s());
        checks.check(&traced == results, || "traced iteration differs".to_string());
        let walls = tracer.durations("serving.serve_trace");
        for (i, (p, (report, _))) in points.iter().zip(results).enumerate() {
            let n = format!("n={} requests", p.trace.len());
            layers.set(US_PER_REQ[i], walls[i] * 1e6 / p.trace.len() as f64, n);
            layers.set(PEAK_QUEUE[i], report.peak_queue_depth as f64, "simulated");
        }
        let stats = total_stats(results.iter().map(|(_, s)| s));
        layers.set("serving.heap_events_per_token", stats.heap_events_per_token(), "all rates");
        layers.set(
            "serving.ns_per_token",
            walls.iter().sum::<f64>() * 1e9 / stats.tokens as f64,
            format!("all rates, n={} tokens", stats.tokens),
        );
        layers.set("serving.admissions", stats.admissions as f64, "all rates");
        let preemptions: u64 = results.iter().map(|(r, _)| r.preemptions).sum();
        layers.set("serving.preemptions", preemptions as f64, "all rates");
    }

    let iterations = timed.walls.len() as u64;
    Outcome {
        setup_s,
        wall_s: timed.wall_s(),
        iterations: timed.walls.len(),
        ops: offered as u64,
        completed: completed as u64,
        attempted: RATES.len() as u64 * iterations,
        failed: 0,
        peak_heap_mib: timed.peak_heap_mib,
        layers,
    }
}
