//! Simulator self-benchmark: the span-fast-forward serving engine, and the
//! fleet driver built on it, measured against the retained per-token
//! reference loop; the repo's perf-trajectory artifact.
//!
//! Every row of the table is one shape: a trace served by the engine under
//! test (the *span* run) and, where the reference loop can replay it, the
//! same trace through [`TickEngine::PerTokenReference`]. For each run the bin
//! records wall-clock time, simulated tokens per wall-second, heap events
//! (pushes + pops) and tick events, and heap allocations per token, and it
//! asserts along the way that the runs agree bit for bit — perf numbers
//! for diverging simulations would be meaningless. Results print as a table
//! and land in `results/BENCH_serving_sim.json` (schema in
//! `docs/SCHEMAS.md`).
//!
//! The rows:
//! * serving shapes — three small synthetic ones (clean, churning the
//!   swap-to-CXL spill tier, four replicas under token-granular pressure),
//!   plus, in full mode, the paper's PP/8 Llama2-7B deployment on a
//!   saturated chatbot mix with ample, managed and swap-backed KV;
//! * fleet shapes — a 64-group PP/8 fleet under a diurnal chatbot load and
//!   a 4P/4D disaggregated fleet over the shared KV pool, each followed by
//!   a chaos row rerunning it under a seeded fault schedule (crashes,
//!   link brownouts, retries; warm recovery and admission shedding on the
//!   split fleet). A fleet's reference is the colocated driver's routing of
//!   the same trace with each group's sub-trace replayed per token; a chaos
//!   row has no reference of its own, since the loop cannot replay crashes.
//!
//! The process installs a counting global allocator: the span engine must
//! allocate (amortised) nothing on the per-token hot path — preemption
//! victims and tick snapshots land in run-owned scratch buffers, so
//! steady-state allocations scale with admissions, not tokens.
//!
//! Run with `cargo run --release --bin sim_perf`; pass `--smoke` for the CI
//! mode (the synthetic serving shapes and shorter fleet traces), and
//! `--check-against <path>` to gate on a committed baseline
//! (`results/BENCH_serving_sim_baseline.json`): the run fails if a baseline
//! row is missing or its span run's heap events per token, tick events or
//! allocations per token grew by more than 20%. Those counters repeat
//! exactly between runs; wall time does not (the span/reference ratio
//! swings up to 2× between runs of one tree on a shared host), so wall time
//! is recorded raw and only checked against the same run's reference: no
//! slower in smoke mode, and at least 20× faster on the full-mode
//! saturated chatbot shape.

// The counting global allocator below must implement the unsafe
// `GlobalAlloc` trait; this is the workspace's one sanctioned use of
// `unsafe` (every library crate carries `#![forbid(unsafe_code)]`).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cent_bench::{
    check_span_counters, llama2_7b_pp8, parse_span_counters, pool_split, results_dir, sharegpt,
    sharegpt_capacity, synthetic, SpanCounters, GATED_COUNTERS, GATE_SLACK,
};
use cent_cluster::{
    simulate_fleet_disagg, simulate_fleet_instrumented, AdmissionPolicy, ChaosRates, DisaggConfig,
    FaultPlan, FleetOptions, GroupRole, PowerOfTwoChoices, RecoveryMode, RetryPolicy,
};
use cent_cost::KvSwapCost;
use cent_serving::{
    ArrivalProcess, ClassMix, KvBudget, KvMode, KvSpillConfig, LengthSampler, LoadCurve,
    RequestSpec, ServeOptions, ServingSystem, SimStats, TickEngine, Workload,
};
use cent_types::{ByteSize, Time};

/// Counts heap allocations so the bench can verify the engines' no-alloc
/// steady state (scratch buffers are reused; the hot path never allocates).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Steady-state allocation ceiling for a span run, in heap allocations per
/// simulated token. The hot path is allocation-free; what remains scales
/// with admissions (records, requeues, report assembly), two orders of
/// magnitude below one-per-token.
const ALLOC_CEILING: f64 = 0.05;

/// Timing and event-core counters of one run.
struct Measurement {
    wall_s: f64,
    stats: SimStats,
    allocations: u64,
}

impl Measurement {
    fn allocations_per_token(&self) -> f64 {
        if self.stats.tokens == 0 {
            return 0.0;
        }
        self.allocations as f64 / self.stats.tokens as f64
    }
}

/// One row of the artifact.
struct Row {
    name: &'static str,
    /// Preemptions and swaps of the run under test: the churn its heap
    /// floor allows for.
    preemptions: u64,
    swaps: u64,
    /// The same trace through the per-token reference loop; `None` on a
    /// chaos row, whose crashes and retries the loop cannot replay.
    reference: Option<Measurement>,
    /// The engine or fleet driver under test.
    span: Measurement,
}

/// Runs `f` once, returning its value, wall time in seconds and the heap
/// allocations it made.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    let value = f();
    let wall_s = start.elapsed().as_secs_f64();
    (value, wall_s, ALLOCATIONS.load(Ordering::Relaxed) - allocs_before)
}

/// The checks a span run must pass against a per-token reference of the
/// same trace. The heap-event ratio is deterministic, so its floor is
/// exact; the wall clock is noisy, so in smoke mode (short runs on a shared
/// runner) it only has to be no slower, with 25% slack.
fn assert_beats(name: &str, reference: &Measurement, span: &Measurement, floor: f64, smoke: bool) {
    let heap_ratio =
        reference.stats.heap_events_per_token() / span.stats.heap_events_per_token().max(1e-9);
    assert!(
        heap_ratio >= floor,
        "{name}: span heap-event ratio {heap_ratio:.2} < {floor}x vs the reference loop"
    );
    if smoke {
        assert!(
            span.wall_s <= 1.25 * reference.wall_s,
            "{name}: span run slower than the reference ({:.3}s vs {:.3}s)",
            span.wall_s,
            reference.wall_s
        );
    }
}

/// A saturated fixed 32/256 mix at three times `system`'s capacity.
fn fixed_mix(system: &ServingSystem, seed: u64, horizon_s: f64) -> (Vec<RequestSpec>, f64) {
    let rate_qps = 3.0 * system.capacity_qps(32, 256);
    let w = Workload {
        arrivals: ArrivalProcess::Poisson { rate_qps },
        lengths: LengthSampler::Fixed { prompt: 32, decode: 256 },
        seed,
        classes: ClassMix::default(),
    };
    (w.generate(Time::from_secs_f64(horizon_s), 4096), rate_qps)
}

/// The serving rows: three small synthetic shapes, plus the paper's
/// deployment in full mode.
fn serving_rows(smoke: bool) -> Vec<Row> {
    // The smoke wall check compares wall clocks on a shared runner; the
    // best of five keeps scheduler stalls from flipping it.
    let repeats = if smoke { 5 } else { 2 };
    let row = |name, system: &ServingSystem, trace: &[RequestSpec], rate, options| {
        serving_row(name, system, trace, rate, options, repeats, smoke)
    };
    // 8 slots/replica (the acceptance shape floor), saturated fixed mix.
    let system = synthetic(1, 8, u64::MAX / 2, KvMode::FullReservation, 50_000.0);
    let (trace, rate) = fixed_mix(&system, 0xCE27, 30.0);
    let mut rows =
        vec![row("smoke-8slot-saturated", &system, &trace, rate, ServeOptions::default())];
    // The same trace against a KV-starved pool with the cost-driven
    // swap-to-CXL tier: eviction, page-out/page-in serialization and the
    // per-victim comparator all ride the gate too.
    let starved = synthetic(1, 8, 8 * (32 + 256) / 3, KvMode::token_granular(), 50_000.0);
    let spill =
        KvSpillConfig::cost_driven(4 * 8 * (32 + 256), KvSwapCost::cent(ByteSize::kib(128)));
    let options = ServeOptions::token_granular();
    rows.push(row(
        "smoke-8slot-kv-swap",
        &starved,
        &trace,
        rate,
        options.clone().with_spill(spill),
    ));
    // Four replicas under token-granular KV pressure: the span engine
    // solves an exhaustion forecast per replica and folds their occupancy
    // deltas into one integral update per event; recompute-only keeps the
    // churn deterministic without host-pool contention.
    let multi = synthetic(4, 8, 8 * (32 + 256) * 2 / 3, KvMode::token_granular(), 50_000.0);
    let (trace, rate) = fixed_mix(&multi, 0xCE28, 20.0);
    rows.push(row("smoke-4x8-multi-replica-kv", &multi, &trace, rate, options));
    if smoke {
        return rows;
    }
    // The paper's serving deployment on a saturated chatbot hour — the
    // shape the load and policy sweeps hammer — then the same trace under
    // a managed KV budget (a third of the slots' full contexts) with
    // token-granular recompute churn, the engine's worst case, and with the
    // cost-driven swap tier (host pool for 2× the device budget) beside it.
    let system = llama2_7b_pp8();
    let rate = 1.2 * system.capacity_qps(512, 3584);
    let trace = Workload::chatbot(rate, 0xCE27).generate(Time::from_secs_f64(3600.0), 4096);
    let slots = system.slots_per_replica() as u64;
    let managed = system.clone().with_kv_budget(KvBudget::tokens((slots * 4096).div_ceil(3)));
    let spill = KvSpillConfig::cost_driven(2 * slots * 4096, managed.swap_cost());
    rows.push(row("llama2_7b-pp8-chatbot-1.2x", &system, &trace, rate, ServeOptions::default()));
    let options = ServeOptions::token_granular();
    rows.push(row("llama2_7b-pp8-chatbot-kv-managed", &managed, &trace, rate, options.clone()));
    rows.push(row(
        "llama2_7b-pp8-chatbot-kv-swap",
        &managed,
        &trace,
        rate,
        options.with_spill(spill),
    ));
    rows
}

/// Serves a trace through both engines, keeping each engine's fastest of
/// `repeats` runs (the simulation is deterministic, so only the wall time
/// differs between repeats).
fn serving_row(
    name: &'static str,
    system: &ServingSystem,
    trace: &[RequestSpec],
    rate: f64,
    options: ServeOptions,
    repeats: u32,
    smoke: bool,
) -> Row {
    let measure = |engine: TickEngine| {
        let mut best: Option<(Measurement, _)> = None;
        for _ in 0..repeats {
            let options = options.clone().with_engine(engine);
            let ((report, stats), wall_s, allocations) =
                timed(|| system.serve_trace_instrumented(trace, rate, options));
            if best.as_ref().is_none_or(|(m, _)| wall_s < m.wall_s) {
                best = Some((Measurement { wall_s, stats, allocations }, report));
            }
        }
        best.expect("at least one repeat ran")
    };
    let (reference, ref_report) = measure(TickEngine::PerTokenReference);
    let (span, report) = measure(TickEngine::SpanFastForward);
    assert_eq!(
        ref_report, report,
        "{name}: span engine must report identically to the reference before perf means anything"
    );
    // On a clean shape the span engine batches every resident's tokens
    // between decision instants, so it must do at least 5x fewer heap
    // events per slot; under eviction churn every resume is a fresh
    // admission and heap traffic is admission-bound, so 3x.
    let slots = system.slots_per_replica() as f64;
    let floor = if report.preemptions + report.swaps > 0 { 3.0 } else { 5.0 * slots };
    assert_beats(name, &reference, &span, floor, smoke);
    if name == "llama2_7b-pp8-chatbot-1.2x" {
        let speedup = reference.wall_s / span.wall_s;
        assert!(
            speedup >= 20.0,
            "{name}: span engine only {speedup:.2}x faster than the reference"
        );
    }
    Row {
        name,
        preemptions: report.preemptions,
        swaps: report.swaps,
        reference: Some(reference),
        span,
    }
}

/// The fleet rows: each shape's healthy row, then its chaos row.
fn fleet_rows(smoke: bool) -> Vec<Row> {
    let system = llama2_7b_pp8();
    let retry = RetryPolicy { max_attempts: 4, backoff: Time::from_us(50_000) };

    // 64 groups under a diurnal chatbot load; the chaos row's default rates
    // crash a group per ~200 group-seconds with ~10 s outages, plus
    // host-link brownouts and stragglers.
    let horizon_s = if smoke { 60.0 } else { 600.0 };
    let rate = 0.9 * 64.0 * system.capacity_qps(512, 3584);
    let curve = LoadCurve::diurnal(horizon_s, 0.5, 1.5);
    let horizon = Time::from_secs_f64(horizon_s);
    let trace = Workload::chatbot(rate, 0xCE29).generate_modulated(horizon, 4096, &curve, 7);
    let opts = FleetOptions::new(64).with_epoch(Time::from_secs_f64(0.25));
    let faults = FaultPlan::chaos(0xFA01, 64, horizon, &ChaosRates::default());
    let chaos = opts.clone().with_faults(faults).with_retry(retry);
    let names = ["cluster-64xpp8-chatbot-diurnal", "cluster-crash-recovery"];
    let tiers = DisaggConfig::colocated(64);
    let mut rows =
        Vec::from(fleet_shape(&system, names, &trace, rate, &tiers, [opts, chaos], smoke));

    // 8 groups split 4 prefill / 4 decode with chunked prefill, on the
    // ShareGPT-like mix at 0.6x capacity; the chaos row weights crashes
    // toward the decode tier (stranding claimed contexts mid-decode) and
    // browns out the pool links, with warm recovery and admission shedding.
    let horizon_s = if smoke { 60.0 } else { 240.0 };
    let horizon = Time::from_secs_f64(horizon_s);
    let rate = 0.6 * sharegpt_capacity(&system, 8);
    let trace = sharegpt(rate, 0xD15A).generate(horizon, 4096);
    let opts = FleetOptions::new(8).with_epoch(Time::from_secs_f64(0.25));
    let tiers = pool_split(&system, 4, 4).with_prefill_chunk(512);
    let rates = ChaosRates { decode_crash_mult: 1.5, ..ChaosRates::default() };
    let chaos = opts
        .clone()
        .with_faults(FaultPlan::chaos_disagg(0xFA02, &tiers.roles, horizon, &rates))
        .with_retry(retry)
        .with_recovery(RecoveryMode::Warm { retained_fraction: 0.5 })
        .with_admission(AdmissionPolicy::shed_above(6.0));
    let names = ["cluster-disagg-4p4d-sharegpt", "cluster-disagg-chaos"];
    rows.extend(fleet_shape(&system, names, &trace, rate, &tiers, [opts, chaos], smoke));
    rows
}

/// Measures a fleet shape's two rows. Each fleet run is timed on one worker
/// thread and must be bit-identical on two. The reference replays each
/// group's routed sub-trace through the per-token loop, and every replayed
/// group must report as it did in the colocated fleet. Incremental epoch
/// driving must not bring back per-token heap events: the healthy row must
/// beat the reference by 5x (3x under preemption churn, and on a split
/// fleet, which admits every request twice); so must the chaos row, whose
/// retries and rescues re-admit work, against the healthy replay of its
/// trace.
///
/// `names` and `opts` hold the healthy row's, then the chaos row's; every
/// run is routed by seeded power-of-two choices.
fn fleet_shape(
    system: &ServingSystem,
    [name, chaos_name]: [&'static str; 2],
    trace: &[RequestSpec],
    rate: f64,
    tiers: &DisaggConfig,
    [opts, chaos_opts]: [FleetOptions; 2],
    smoke: bool,
) -> [Row; 2] {
    let split = tiers.roles.contains(&GroupRole::Decode);
    let run = |opts: &FleetOptions, what: &str| {
        let fleet = |threads: usize| {
            let mut router = PowerOfTwoChoices::seeded(0xD1CE);
            let opts = opts.clone().with_threads(threads);
            timed(|| simulate_fleet_disagg(system, trace, rate, &mut router, &opts, tiers))
        };
        let (out, wall_s, allocations) = fleet(1);
        let (threaded, _, _) = fleet(2);
        assert_eq!(
            (&out.report, &out.routed),
            (&threaded.report, &threaded.routed),
            "{what}: fleet must be bit-identical across worker-thread counts"
        );
        assert!(
            out.log.pool_peak_tokens <= out.log.pool_capacity_tokens,
            "{what}: pool peak {} exceeded the {}-token bound",
            out.log.pool_peak_tokens,
            out.log.pool_capacity_tokens
        );
        let mut stats = SimStats::default();
        for group in &out.groups {
            stats += group.stats;
        }
        (out, Measurement { wall_s, stats, allocations })
    };

    let (out, span) = run(&opts, name);
    if split {
        assert!(out.log.handoffs > 0, "{name}: the handoff path must engage");
    }
    let mut router = PowerOfTwoChoices::seeded(0xD1CE);
    let colocated = simulate_fleet_instrumented(system, trace, rate, &mut router, &opts);
    let groups = opts.groups;
    let mut sub: Vec<Vec<RequestSpec>> = vec![Vec::new(); groups];
    for (spec, &g) in trace.iter().zip(&colocated.routed) {
        sub[g].push(*spec);
    }
    let options = ServeOptions::default().with_engine(TickEngine::PerTokenReference);
    let (stats, wall_s, allocations) = timed(|| {
        let mut stats = SimStats::default();
        for (g, group_trace) in sub.iter().enumerate() {
            let (report, run) =
                system.serve_trace_instrumented(group_trace, rate / groups as f64, options.clone());
            assert_eq!(
                report, colocated.groups[g].report,
                "{name}: group {g} fleet run must report identically to the reference loop"
            );
            stats += run;
        }
        stats
    });
    let reference = Measurement { wall_s, stats, allocations };
    assert_eq!(
        reference.stats.tokens, span.stats.tokens,
        "{name}: the fleet must generate exactly the reference's token population"
    );
    let churn = split || out.report.preemptions + out.report.swaps > 0;
    assert_beats(name, &reference, &span, if churn { 3.0 } else { 5.0 }, smoke);

    let (chaos, chaos_span) = run(&chaos_opts, chaos_name);
    let d = chaos.report.degraded.as_ref().expect("a chaos run reports degraded mode");
    assert!(d.crashes > 0, "{chaos_name}: the chaos schedule must actually crash groups");
    assert!(d.availability < 1.0, "{chaos_name}: crashes must dent availability");
    assert!(d.retries > 0, "{chaos_name}: failover must redispatch orphans");
    assert_eq!(
        chaos.report.completed + chaos.report.rejected + d.drops + d.shed,
        trace.len(),
        "{chaos_name}: requests leaked from the conservation invariant"
    );
    if split {
        assert!(d.pool_rescued > 0, "{chaos_name}: decode-tier crashes must rescue pool copies");
    }
    assert_beats(chaos_name, &reference, &chaos_span, 3.0, smoke);
    [
        Row {
            name,
            preemptions: out.report.preemptions,
            swaps: out.report.swaps,
            reference: Some(reference),
            span,
        },
        Row {
            name: chaos_name,
            preemptions: chaos.report.preemptions,
            swaps: chaos.report.swaps,
            reference: None,
            span: chaos_span,
        },
    ]
}

fn print_line(name: &str, engine: &str, m: &Measurement, reference: Option<&Measurement>) {
    let ratios = reference.map_or(format!("{:>10} {:>11}", "-", "-"), |r| {
        format!(
            "{:>9.2}x {:>10.2}x",
            r.wall_s / m.wall_s,
            r.stats.heap_events_per_token() / m.stats.heap_events_per_token().max(1e-9)
        )
    });
    println!(
        "{name:>30} {engine:>9} {:>9.3}s {ratios} {:>9.4} {:>9} {:>9.4} {:>11}",
        m.wall_s,
        m.stats.heap_events_per_token(),
        m.stats.tick_events,
        m.allocations_per_token(),
        m.stats.tokens,
    );
}

fn json_engine(m: &Measurement) -> String {
    format!(
        "{{\"wall_s\": {:.6}, \"sim_tokens_per_wall_s\": {:.1}, \"heap_pushes\": {}, \
         \"heap_pops\": {}, \"tick_events\": {}, \"heap_events_per_token\": {:.4}, \
         \"allocs_per_token\": {:.4}}}",
        m.wall_s,
        if m.wall_s > 0.0 { m.stats.tokens as f64 / m.wall_s } else { 0.0 },
        m.stats.heap_pushes,
        m.stats.heap_pops,
        m.stats.tick_events,
        m.stats.heap_events_per_token(),
        m.allocations_per_token(),
    )
}

/// One row of the artifact: its name and churn on the first line, then each
/// run's block on a line of its own (the layout `parse_span_counters` reads).
fn json_row(row: &Row) -> String {
    let mut json = format!(
        "    {{\"name\": \"{}\", \"sim_tokens\": {}, \"preemptions\": {}, \"swaps\": {},",
        row.name, row.span.stats.tokens, row.preemptions, row.swaps
    );
    if let Some(reference) = &row.reference {
        json += &format!("\n     \"reference\": {},", json_engine(reference));
    }
    json + &format!("\n     \"span\": {}}}", json_engine(&row.span))
}

fn main() {
    let mut smoke = false;
    let mut check_against: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check-against" => {
                check_against = Some(args.next().expect("--check-against needs a path"));
            }
            other => panic!("unknown argument {other:?} (expected --smoke / --check-against)"),
        }
    }

    println!(
        "{:>30} {:>9} {:>10} {:>10} {:>11} {:>9} {:>9} {:>9} {:>11}",
        "shape", "engine", "wall", "speedup", "hp ratio", "hp/tok", "ticks", "alloc/tok", "tokens"
    );
    let rows: Vec<Row> = serving_rows(smoke).into_iter().chain(fleet_rows(smoke)).collect();
    for row in &rows {
        if let Some(reference) = &row.reference {
            print_line(row.name, "reference", reference, None);
        }
        let name = if row.reference.is_some() { "" } else { row.name };
        print_line(name, "span", &row.span, row.reference.as_ref());
        assert!(
            row.span.allocations_per_token() < ALLOC_CEILING,
            "{}: span run allocates {:.4}/token (ceiling {ALLOC_CEILING})",
            row.name,
            row.span.allocations_per_token()
        );
    }

    let json_rows: Vec<String> = rows.iter().map(json_row).collect();
    let json = format!(
        "{{\n  \"id\": \"BENCH_serving_sim\",\n  \"mode\": \"{}\",\n  \"shapes\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        json_rows.join(",\n")
    );
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_serving_sim.json");
    std::fs::write(&path, &json).expect("writing BENCH_serving_sim.json");
    println!("\nwrote {}", path.display());

    if let Some(baseline_path) = check_against {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("reading baseline {baseline_path}: {e}"));
        let baseline = parse_span_counters(&text);
        assert!(!baseline.is_empty(), "baseline {baseline_path} has no rows");
        let measured: Vec<SpanCounters> = rows
            .iter()
            .map(|row| SpanCounters {
                name: row.name.to_string(),
                values: [
                    row.span.stats.heap_events_per_token(),
                    row.span.stats.tick_events as f64,
                    row.span.allocations_per_token(),
                ],
            })
            .collect();
        let failures = check_span_counters(&baseline, &measured);
        assert!(
            failures.is_empty(),
            "counter gate failed against {baseline_path}:\n  {}\n(if intentional: rerun \
             `cargo run --release -p cent-bench --bin sim_perf -- --smoke`, copy \
             results/BENCH_serving_sim.json over {baseline_path}, and commit it)",
            failures.join("\n  ")
        );
        println!(
            "counter gate passed against {baseline_path}: {} rows, {GATED_COUNTERS:?} each \
             within {GATE_SLACK}x",
            baseline.len()
        );
    }
}
