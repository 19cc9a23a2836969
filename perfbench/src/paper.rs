//! `paper-figures`: Figure 13's six deployments and Figure 19's device
//! sweep, evaluated in-process, scored against the paper's numbers.
//!
//! Host time is almost all cycle-level block-step simulation (compiler,
//! device, DRAM, PIM and PNM models behind `cent_sim::evaluate`); the
//! serving and cluster layers do nothing here.

use cent::baselines::GpuSystem;
use cent::compiler::{
    compile_decode_step, max_feasible_channels, BlockPlacement, Strategy, SystemMapping,
};
use cent::cost::tokens_per_dollar;
use cent::model::ModelConfig;
use cent::sim::{evaluate, scalability_sweep, simulate_placed_block_step, CentPerformance};
use cent::types::{ChannelId, Dollars};

use crate::trace::{Clock, Tracer};
use crate::{max, median, setup_median, timed, Checks, Layers, Outcome, RunConfig};

/// Context length of every figure point.
const CONTEXT: usize = 4096;
/// Figure 19 device counts: the two the paper states numbers for. The full
/// figure sweeps ten counts at ~1.6 s of host time each.
const FIG19_DEVICES: [usize; 2] = [16, 128];
/// TCO per hour of a CENT system and of the GPU baseline (Table 4).
const CENT_DOLLARS_PER_HOUR: f64 = 0.73;
const GPU_DOLLARS_PER_HOUR: f64 = 1.76;
/// The paper's rows: (label, paper value).
const PAPER_ROWS: [(&str, f64); 6] = [
    ("fig13 latency speedup geomean", 4.6),
    ("fig13 throughput speedup geomean", 2.3),
    ("fig13 tokens/$ geomean", 5.2),
    ("fig13 Llama2-70B throughput speedup", 1.2),
    ("fig19 tokens/s at 16 devices", 680.0),
    ("fig19 tokens/s at 128 devices", 5700.0),
];

/// One Figure 13 deployment: model, CENT devices, GPU baseline size.
struct Point {
    cfg: ModelConfig,
    devices: usize,
    gpus: usize,
}

impl Point {
    fn label(&self, strategy: Strategy) -> String {
        let s = if strategy == Strategy::TensorParallel { "TP" } else { "PP" };
        format!("{} {s}/{}", self.cfg.name, self.devices)
    }
}

/// Everything one iteration reproduces; compared bit for bit across
/// iterations.
#[derive(Debug, PartialEq)]
struct Figures {
    /// Per model: (latency, throughput, tokens/$) speedup over the GPU.
    speedups: Vec<(f64, f64, f64)>,
    /// Figure 19: (devices, tokens/s).
    fig19: Vec<(usize, f64)>,
    /// Simulator calls that returned an error.
    errors: u64,
}

impl Figures {
    fn rows(&self) -> Vec<f64> {
        let geo = |f: fn(&(f64, f64, f64)) -> f64| geomean(self.speedups.iter().map(f));
        let at = |d: usize| self.fig19.iter().find(|p| p.0 == d).map_or(f64::NAN, |p| p.1);
        vec![
            geo(|s| s.0),
            geo(|s| s.1),
            geo(|s| s.2),
            self.speedups.get(2).map_or(f64::NAN, |s| s.1),
            at(16),
            at(128),
        ]
    }

    /// Geomean over the paper rows of max(reproduced/paper, paper/reproduced).
    fn paper_gap(&self) -> f64 {
        geomean(self.rows().iter().zip(PAPER_ROWS).map(|(r, (_, p))| (r / p).max(p / r)))
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

fn points() -> Vec<Point> {
    vec![
        Point { cfg: ModelConfig::llama2_7b(), devices: 8, gpus: 1 },
        Point { cfg: ModelConfig::llama2_13b(), devices: 20, gpus: 2 },
        Point { cfg: ModelConfig::llama2_70b(), devices: 32, gpus: 4 },
    ]
}

fn healthy(perf: &CentPerformance) -> bool {
    let token = perf.token_latency.as_secs();
    [token, perf.decode_tokens_per_s, perf.prefill_tokens_per_s]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0)
}

/// One figure regeneration: six `evaluate` calls, the GPU and cost
/// arithmetic, and the Figure 19 sweep.
fn figures(points: &[Point], tracer: &mut Tracer, checks: &mut Checks) -> Figures {
    let mut out = Figures { speedups: Vec::new(), fig19: Vec::new(), errors: 0 };
    for p in points {
        let mut eval = |strategy: Strategy, tracer: &mut Tracer| {
            let label = p.label(strategy);
            let perf = tracer.span("sim", "sim.evaluate", &label, |_| {
                evaluate(&p.cfg, p.devices, strategy, CONTEXT)
            });
            match perf {
                Ok(perf) => {
                    checks.check(healthy(&perf), || format!("{label}: non-finite or zero result"));
                    Some(perf)
                }
                Err(e) => {
                    checks.check(false, || format!("{label}: evaluate failed: {e}"));
                    out.errors += 1;
                    None
                }
            }
        };
        let (Some(tp), Some(pp)) =
            (eval(Strategy::TensorParallel, tracer), eval(Strategy::PipelineParallel, tracer))
        else {
            continue;
        };
        let gpu = GpuSystem::a100x(p.gpus);
        let gpu_token_s = 1.0 / gpu.decode_tokens_per_s(&p.cfg, 1, CONTEXT).max(1e-9);
        let gpu_batch = 128.min(gpu.max_batch(&p.cfg, CONTEXT).max(1));
        let gpu_tput = gpu.decode_tokens_per_s(&p.cfg, gpu_batch, CONTEXT);
        let per_dollar = |tps: f64, dollars: f64| tokens_per_dollar(tps, Dollars::new(dollars));
        out.speedups.push((
            gpu_token_s / tp.token_latency.as_secs(),
            pp.decode_tokens_per_s / gpu_tput,
            per_dollar(pp.decode_tokens_per_s, CENT_DOLLARS_PER_HOUR)
                / per_dollar(gpu_tput, GPU_DOLLARS_PER_HOUR),
        ));
    }
    let cfg = ModelConfig::llama2_70b();
    for &devices in &FIG19_DEVICES {
        let label = format!("fig19 {devices} devices");
        let sweep = tracer
            .span("sim", "sim.evaluate", &label, |_| scalability_sweep(&cfg, &[devices], CONTEXT));
        match sweep.as_deref() {
            Ok([point]) => {
                checks.check(point.tokens_per_s.is_finite() && point.tokens_per_s > 0.0, || {
                    format!("{label}: non-finite or zero throughput")
                });
                out.fig19.push((devices, point.tokens_per_s));
            }
            Ok(_) => {
                checks.check(false, || format!("{label}: no feasible mapping"));
                out.errors += 1;
            }
            Err(e) => {
                checks.check(false, || format!("{label}: scalability_sweep failed: {e}"));
                out.errors += 1;
            }
        }
    }
    checks.check(out.fig19.windows(2).all(|w| w[1].1 >= w[0].1), || {
        format!("fig19 throughput decreases as devices are added: {:?}", out.fig19)
    });
    out
}

/// The block-step positions `simulate_block_avg` samples for `context`.
fn sampled_positions(cfg: &ModelConfig, context: usize) -> [usize; 4] {
    [context / 4, context / 2, (3 * context) / 4, context.saturating_sub(1)]
        .map(|pos| pos.min(cfg.max_context - 1).max(1))
}

/// The placement `evaluate` simulates for `p` under `strategy`.
fn placement(p: &Point, strategy: Strategy) -> BlockPlacement {
    let mapping = SystemMapping::plan(&p.cfg, p.devices, strategy).expect("figure point maps");
    let channels = max_feasible_channels(&p.cfg, mapping.channels_per_block);
    let ids = (0..channels).map(|c| ChannelId(c as u16)).collect();
    BlockPlacement::plan(&p.cfg, ids).expect("figure block places")
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, checks: &mut Checks, tracer: &mut Tracer) -> Outcome {
    // Set-up plans every Figure 13 mapping and block placement.
    let (points, setup_s) = setup_median(200, || {
        let points = points();
        for p in &points {
            for s in [Strategy::TensorParallel, Strategy::PipelineParallel] {
                std::hint::black_box(placement(p, s));
            }
        }
        points
    });
    let calls = (2 * points.len() + FIG19_DEVICES.len()) as u64;

    let mut quiet = Checks::default();
    let mut off = Tracer::new(false);
    let timed = timed(cfg.seconds, checks, || figures(&points, &mut off, &mut quiet));
    checks.0.append(&mut quiet.0);
    let figs = &timed.output;
    let iterations = timed.walls.len() as u64;

    let mut layers = Layers::default();
    let gap = figs.paper_gap();
    checks.check(gap.is_finite() && gap >= 1.0, || format!("paper_gap {gap} is not >= 1"));
    let rows: Vec<String> = figs
        .rows()
        .iter()
        .zip(PAPER_ROWS)
        .map(|(r, (label, p))| format!("{label} {r:.3} vs {p}"))
        .collect();
    layers.set("paper_gap", gap, rows.join("; "));
    if cfg.traced {
        trace_layers(&points, timed.wall_s(), checks, tracer, &mut layers);
    }
    Outcome {
        setup_s,
        wall_s: timed.wall_s(),
        iterations: timed.walls.len(),
        ops: calls,
        completed: calls - figs.errors,
        attempted: calls * iterations,
        failed: figs.errors * iterations,
        peak_heap_mib: timed.peak_heap_mib,
        layers,
    }
}

/// The traced run: one figure regeneration with a span per `evaluate`
/// call, then every Figure 13 block step `evaluate` simulates, replayed
/// with compile and simulation timed apart.
fn trace_layers(
    points: &[Point],
    untraced_wall_s: f64,
    checks: &mut Checks,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let traced_wall_s = {
        let start = Clock::start();
        tracer.span("bench", "paper-figures", "iteration", |t| figures(points, t, checks));
        start.secs()
    };
    let evaluate_ms: Vec<f64> = tracer.durations("sim.evaluate").iter().map(|s| s * 1e3).collect();
    let fig13_evaluate_s: f64 = evaluate_ms.iter().take(2 * points.len()).sum::<f64>() / 1e3;

    let (mut compile_s, mut step_s, mut device_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut insts, mut commands) = (0u64, 0u64);
    for p in points {
        for strategy in [Strategy::TensorParallel, Strategy::PipelineParallel] {
            let label = p.label(strategy);
            let placement = placement(p, strategy);
            for context in [CONTEXT, CONTEXT.min(512)] {
                for pos in sampled_positions(&p.cfg, context) {
                    let point = format!("{label} pos {pos}");
                    let (c, step) = timed_span(
                        tracer,
                        "compiler",
                        "compiler.compile_decode_step",
                        &point,
                        || compile_decode_step(&placement, pos).expect("block step compiles"),
                    );
                    let (s, timing) =
                        timed_span(tracer, "device", "device.block_step", &point, || {
                            simulate_placed_block_step(&placement, pos)
                                .expect("block step simulates")
                        });
                    insts += step.trace.len() as u64;
                    commands += timing.dram.commands;
                    compile_s.push(c);
                    step_s.push(s);
                    device_ms.push((s - c) * 1e3);
                }
            }
        }
    }
    let steps = step_s.len() as f64;
    let n = format!("n={} steps", step_s.len());
    let device_s: f64 = device_ms.iter().sum::<f64>() / 1e3;
    checks.check(commands > 0, || "block steps issued no DRAM commands".to_string());
    layers.set(
        "compiler.compile_ms_per_step",
        compile_s.iter().sum::<f64>() * 1e3 / steps,
        n.clone(),
    );
    layers.set("compiler.insts_per_step", insts as f64 / steps, n.clone());
    layers.set("device.step_ms.p50", median(&device_ms), format!("{n}, block step minus compile"));
    layers.set("device.step_ms.max", max(&device_ms), n.clone());
    layers.set("device.ns_per_dram_cmd", device_s * 1e9 / commands as f64, n.clone());
    layers.set("dram.commands_per_step", commands as f64 / steps, n);
    layers.set("sim.evaluate_ms.p50", median(&evaluate_ms), format!("n={}", evaluate_ms.len()));
    layers.set("sim.evaluate_ms.max", max(&evaluate_ms), format!("n={}", evaluate_ms.len()));
    layers.set("sim.evaluate_calls", evaluate_ms.len() as f64, "per iteration");
    layers.set(
        "sim.block_step_share",
        step_s.iter().sum::<f64>() / fig13_evaluate_s,
        "Figure 13 block-step replay time / Figure 13 evaluate time",
    );
    crate::set_overhead(layers, traced_wall_s, untraced_wall_s);
}

/// Runs `f` inside a span and returns its duration with its result.
fn timed_span<T>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &str,
    point: &str,
    f: impl FnOnce() -> T,
) -> (f64, T) {
    let start = Clock::start();
    let out = tracer.span(layer, name, point, |_| f());
    (start.secs(), out)
}
