//! End-to-end and per-layer benchmark of the CENT simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed` before timing starts,
//! sets up several times (the median is `setup_s`), then repeats its timed
//! unit of work until `--seconds` have passed (the median iteration is
//! `wall_s`), and checks its outputs. The last stdout line is one JSON
//! object: `correct`, `attempted` and `failed` simulator calls, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! A traced run also records spans around every layer call and writes them
//! as Chrome trace-event JSON plus a per-layer table under `perfbench/out/`.
//! See `perfbench/README.md` for the workloads and what each one loads.

mod alloc;
mod disagg;
mod fleet;
mod paper;
mod requests;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::{Clock, Tracer};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] =
    ["paper-figures", "serving-rate-sweep", "fleet-diurnal", "disagg-chaos"];

/// End-to-end metrics: reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_ops_per_host_s", "ops/s"),
    ("peak_heap_mib", "MiB"),
    ("completed_share", "fraction"),
];

/// Per-layer metrics: reported by every workload's traced run. A layer a
/// workload does not exercise reports 0 (marked "not exercised" in the
/// table). The `sim_*` and `paper_gap` rows are the simulated CENT
/// system's results; they are deterministic per seed.
const PER_LAYER: [(&str, &str); 49] = [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_share", "fraction"),
    ("compiler.compile_ms_per_step", "ms"),
    ("compiler.insts_per_step", "count"),
    ("device.step_ms.p50", "ms"),
    ("device.step_ms.max", "ms"),
    ("device.ns_per_dram_cmd", "ns"),
    ("dram.commands_per_step", "count"),
    ("sim.evaluate_ms.p50", "ms"),
    ("sim.evaluate_ms.max", "ms"),
    ("sim.evaluate_calls", "count"),
    ("sim.block_step_share", "fraction"),
    ("serving.us_per_req.x0.5", "us"),
    ("serving.us_per_req.x0.7", "us"),
    ("serving.us_per_req.x0.9", "us"),
    ("serving.us_per_req.x1.1", "us"),
    ("serving.us_per_req.x1.5", "us"),
    ("serving.us_per_req.x3.0", "us"),
    ("serving.peak_queue_depth.x0.5", "count"),
    ("serving.peak_queue_depth.x0.7", "count"),
    ("serving.peak_queue_depth.x0.9", "count"),
    ("serving.peak_queue_depth.x1.1", "count"),
    ("serving.peak_queue_depth.x1.5", "count"),
    ("serving.peak_queue_depth.x3.0", "count"),
    ("serving.heap_events_per_token", "count"),
    ("serving.ns_per_token", "ns"),
    ("serving.admissions", "count"),
    ("serving.group_replay_s", "s"),
    ("serving.preemptions", "count"),
    ("serving.swaps", "count"),
    ("cluster.thread_speedup", "x"),
    ("cluster.driver_us_per_epoch", "us"),
    ("cluster.report_build_ms", "ms"),
    ("cluster.handoffs", "count"),
    ("cluster.steals", "count"),
    ("cluster.deferred_publishes", "count"),
    ("cluster.retries", "count"),
    ("cluster.drops", "count"),
    ("cluster.shed_share", "fraction"),
    ("cxl.pool_peak_fraction", "fraction"),
    ("cxl.pool_rescue_share", "fraction"),
    ("sim_ttft_p50_s", "sim_s"),
    ("sim_ttft_p99_s", "sim_s"),
    ("sim_tbt_p99_ms", "sim_ms"),
    ("sim_slo_attainment", "fraction"),
    ("sim_max_rate_qps", "sim_qps"),
    ("paper_gap", "x"),
    ("sim_requests", "count"),
];

/// Settings of one benchmark run.
pub struct RunConfig {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// How long the timed phase repeats its unit of work.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// Host threads available, for the threaded fleet run.
    pub threads: usize,
}

/// Failed output checks of one run.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Records `what` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Per-layer metric values, with a note (sample counts, caveats).
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, (f64, String)>);

impl Layers {
    /// Sets one per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.0.insert(name, (value, note.into()));
    }
}

/// Host-side measurements of one workload's untraced timed phase.
pub struct Timed<O> {
    /// The first iteration's output (later iterations must equal it).
    pub output: O,
    /// Wall time of each iteration, seconds.
    pub walls: Vec<f64>,
    /// Peak live heap during the phase, MiB.
    pub peak_heap_mib: f64,
}

impl<O> Timed<O> {
    /// Median iteration wall time.
    pub fn wall_s(&self) -> f64 {
        median(&self.walls)
    }
}

/// What a workload reports back to the harness.
pub struct Outcome {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Median untraced iteration wall time, seconds.
    pub wall_s: f64,
    /// Timed iterations run.
    pub iterations: usize,
    /// Simulated operations (requests, or figure points) per iteration.
    pub ops: u64,
    /// Simulated operations that completed per iteration.
    pub completed: u64,
    /// Simulator calls made in the timed phase.
    pub attempted: u64,
    /// Simulator calls that returned an error.
    pub failed: u64,
    /// Peak live heap during the timed phase, MiB.
    pub peak_heap_mib: f64,
    /// Per-layer and simulated metrics.
    pub layers: Layers,
}

/// Runs `f` `reps` times and returns its last result with the median time.
pub fn setup_median<S>(reps: usize, mut f: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let clock = Clock::start();
        last = Some(std::hint::black_box(f()));
        times.push(clock.secs());
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// Repeats `f` until `seconds` have passed (at least once), timing each
/// iteration, and checks every iteration reproduces the first one's
/// output exactly: the simulator is deterministic.
pub fn timed<O: PartialEq>(
    seconds: f64,
    checks: &mut Checks,
    mut f: impl FnMut() -> O,
) -> Timed<O> {
    alloc::reset_peak();
    let phase = Clock::start();
    let mut walls = Vec::new();
    let mut first: Option<O> = None;
    loop {
        let clock = Clock::start();
        let out = std::hint::black_box(f());
        walls.push(clock.secs());
        match &first {
            None => first = Some(out),
            Some(first) => checks.check(out == *first, || {
                format!("iteration {} differs from the first iteration", walls.len())
            }),
        }
        if phase.secs() >= seconds {
            break;
        }
    }
    let peak_heap_mib = alloc::peak_mib();
    Timed { output: first.expect("at least one iteration ran"), walls, peak_heap_mib }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Largest of `values`.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "paper-figures" => paper::run(&cfg, &mut checks, &mut tracer),
        "serving-rate-sweep" => sweep::run(&cfg, &mut checks, &mut tracer),
        "fleet-diurnal" => fleet::run(&cfg, &mut checks, &mut tracer),
        "disagg-chaos" => disagg::run(&cfg, &mut checks, &mut tracer),
        _ => unreachable!("parse_args validated the workload"),
    };
    for (name, (value, _)) in &outcome.layers.0 {
        checks.check(PER_LAYER.iter().any(|(n, _)| n == name), || {
            format!("workload reported undeclared per-layer metric {name}")
        });
        checks.check(value.is_finite(), || format!("per-layer metric {name} is {value}"));
    }

    let e2e: [f64; 5] = [
        outcome.setup_s,
        outcome.wall_s,
        outcome.ops as f64 / outcome.wall_s,
        outcome.peak_heap_mib,
        outcome.completed as f64 / outcome.ops.max(1) as f64,
    ];
    for ((name, _), value) in END_TO_END.iter().zip(e2e) {
        checks.check(value.is_finite() && value > 0.0, || format!("{name} is {value}"));
    }
    let mut table = format!(
        "perfbench {} seed={} seconds={} trace={} threads={} iterations={}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cfg.threads,
        outcome.iterations
    );
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        let _ = writeln!(table, "  {name:<34} {value:>14.6} {unit}");
    }
    let layer_rows: Vec<(&str, &str, f64, String)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| match outcome.layers.0.get(name) {
            Some((v, note)) => (name, unit, *v, note.clone()),
            None => (name, unit, 0.0, "not exercised".to_string()),
        })
        .collect();
    for (name, unit, value, note) in &layer_rows {
        if note != "not exercised" {
            let _ = writeln!(table, "  {name:<34} {value:>14.6} {unit:<8} {note}");
        }
    }
    print!("{table}");
    for failure in &checks.0 {
        eprintln!("perfbench: check failed: {failure}");
    }

    if args.trace {
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let dir = PathBuf::from("perfbench/out");
        let trace_path = dir.join(format!("{stem}.trace.json"));
        if let Err(e) = tracer.write_chrome(&trace_path) {
            eprintln!("perfbench: writing {}: {e}", trace_path.display());
            return ExitCode::from(1);
        }
        let mut md = format!(
            "# {stem}: per-layer metrics\n\n| metric | value | unit | note |\n|---|---|---|---|\n"
        );
        for (name, unit, value, note) in &layer_rows {
            let _ = writeln!(md, "| `{name}` | {value:.6} | {unit} | {note} |");
        }
        md.push_str("\n| layer | self time (s) |\n|---|---|\n");
        for (layer, secs) in tracer.self_time_by_layer() {
            let _ = writeln!(md, "| {layer} | {secs:.6} |");
        }
        let md_path = dir.join(format!("{stem}.layers.md"));
        if let Err(e) = std::fs::write(&md_path, md) {
            eprintln!("perfbench: writing {}: {e}", md_path.display());
            return ExitCode::from(1);
        }
        println!("  spans: {}  table: {}", trace_path.display(), md_path.display());
    }

    let metrics: Vec<String> = if args.trace {
        layer_rows.iter().map(|(name, unit, value, _)| json_metric(name, *value, unit)).collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((name, unit), value)| json_metric(name, value, unit))
            .collect()
    };
    let correct = checks.0.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One metric as JSON; a non-finite value (already a failed check) prints
/// as 0 so the line stays valid JSON.
fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Records the traced iteration's wall time beside the untraced median;
/// their relative difference is the tracing overhead.
pub fn set_overhead(layers: &mut Layers, traced_wall_s: f64, untraced_wall_s: f64) {
    layers.set("trace.wall_s", traced_wall_s, "one traced iteration");
    layers.set("trace.untraced_wall_s", untraced_wall_s, "median untraced iteration");
    layers.set(
        "trace.overhead_share",
        traced_wall_s / untraced_wall_s - 1.0,
        "traced / untraced - 1, single-sample noise included",
    );
}
