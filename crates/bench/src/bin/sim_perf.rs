//! Simulator self-benchmark: the span-fast-forward serving engine measured
//! against the retained per-token reference loop; the repo's
//! perf-trajectory artifact.
//!
//! For each shape, the same trace is served by both [`TickEngine`]s and the
//! bin records wall-clock time, simulated tokens per wall-second, heap
//! events (pushes + pops) per generated token and heap allocations per
//! token, asserting along the way that the two engines' `ServingReport`s
//! are bit-identical — perf numbers for diverging simulations would be
//! meaningless. Results print as a table and land in
//! `results/BENCH_serving_sim.json` (schema documented in the README's
//! Performance section).
//!
//! Run with `cargo run --release --bin sim_perf`; pass `--smoke` for the
//! CI mode, which uses small synthetic shapes (one clean, one churning the
//! swap-to-CXL spill tier, one multi-replica under token-granular
//! pressure), skips the slow planner sweeps, and fails if the span engine
//! does not beat the reference on heap traffic (deterministic) and
//! wall-clock (with noise slack). Both modes end with a cluster shape —
//! a 64-group fleet of the paper's PP/8 deployment under a diurnal
//! chatbot load — timing the epoch-driven fleet driver against per-group
//! reference replays and asserting the merged `FleetReport` is
//! bit-identical across worker-thread counts. A
//! `cluster-disagg-4p4d-sharegpt` row times the disaggregated
//! prefill/decode driver (shared-pool handoffs, chunked prefill) against
//! the colocated per-token replay of the same trace, and a closing
//! `cluster-disagg-chaos` row reruns the split fleet under a seeded
//! disagg-aware chaos schedule — decode-weighted crashes, pool-link
//! brownouts, warm recovery, bounded retries, admission shedding — to
//! keep the survivable-disaggregation path on the perf gate.
//!
//! The process installs a counting global allocator: after each measured
//! run the bin asserts the span engine allocates (amortised) nothing on
//! the per-token hot path — preemption victims and tick snapshots land in
//! run-owned scratch buffers, so steady-state allocations scale with
//! admissions, not tokens.
//!
//! Pass `--check-against <path>` to gate against a committed baseline
//! (`results/BENCH_serving_sim_baseline.json`): the run fails if any
//! baseline shape's span row regresses by more than 20% on heap events per
//! token (deterministic) or on the reference→span wall-clock speedup (the
//! machine-normalized wall-clock metric — absolute seconds are not
//! comparable across runners, the engines' ratio on the same machine is).

// The counting global allocator below must implement the unsafe
// `GlobalAlloc` trait; this is the workspace's one sanctioned use of
// `unsafe` (every library crate carries `#![forbid(unsafe_code)]`).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cent_bench::results_dir;
use cent_cluster::{
    simulate_fleet_disagg, simulate_fleet_instrumented, AdmissionPolicy, ChaosRates, DisaggConfig,
    FaultPlan, FleetOptions, PowerOfTwoChoices, RecoveryMode, RetryPolicy,
};
use cent_cost::KvSwapCost;
use cent_cxl::FabricConfig;
use cent_model::ModelConfig;
use cent_serving::{
    ArrivalProcess, ClassMix, GroupOutcome, KvBudget, KvMode, KvSpillConfig, LengthSampler,
    LoadCurve, RequestSpec, SchedulerConfig, ServeOptions, ServingReport, ServingSystem, SimStats,
    TickEngine, Workload,
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

/// One benchmark shape: a deployment plus a saturated trace to serve.
struct Shape {
    name: &'static str,
    system: ServingSystem,
    trace: Vec<RequestSpec>,
    offered_qps: f64,
    options: ServeOptions,
}

/// Timing + event-core counters of one engine on one shape.
struct Measurement {
    wall_s: f64,
    stats: SimStats,
    /// Heap allocations during the fastest repeat's serve call.
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

/// Runs `f` once, returning its value, wall time in seconds and the heap
/// allocations it made.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    let value = f();
    let wall_s = start.elapsed().as_secs_f64();
    (value, wall_s, ALLOCATIONS.load(Ordering::Relaxed) - allocs_before)
}

/// Runs the shape `repeats` times and keeps the *minimum* wall time (the
/// run least disturbed by scheduler noise — the simulation itself is
/// deterministic, so stats and report are identical across repeats).
fn measure(shape: &Shape, engine: TickEngine, repeats: u32) -> (Measurement, ServingReport) {
    let mut best: Option<(Measurement, ServingReport)> = None;
    for _ in 0..repeats.max(1) {
        let options = shape.options.clone().with_engine(engine);
        let ((report, stats), wall_s, allocations) = timed(|| {
            shape.system.serve_trace_instrumented(&shape.trace, shape.offered_qps, options)
        });
        if best.as_ref().is_none_or(|(m, _)| wall_s < m.wall_s) {
            best = Some((Measurement { wall_s, stats, allocations }, report));
        }
    }
    best.expect("at least one repeat ran")
}

/// A synthetic `replicas × slots` system mirroring `from_parts` test rigs:
/// 1 ms token cadence, fast prefill, ample KV unless a budget is given.
fn synthetic(replicas: usize, slots: usize, kv_tokens: u64, kv: KvMode) -> ServingSystem {
    ServingSystem::from_parts(
        &ModelConfig::llama2_7b(),
        SchedulerConfig {
            replicas,
            slots_per_replica: slots,
            kv_budget: KvBudget::tokens(kv_tokens),
            kv,
        },
        Time::from_us(1000),
        50_000.0,
        (replicas * slots) as f64 * 1000.0,
    )
}

fn smoke_shapes() -> Vec<Shape> {
    // 8 slots/replica (the acceptance shape floor), saturated fixed mix.
    let system = synthetic(1, 8, u64::MAX / 2, KvMode::FullReservation);
    let w = Workload {
        arrivals: ArrivalProcess::Poisson { rate_qps: 3.0 * system.capacity_qps(32, 256) },
        lengths: LengthSampler::Fixed { prompt: 32, decode: 256 },
        seed: 0xCE27,
        classes: ClassMix::default(),
    };
    let trace = w.generate(Time::from_secs_f64(30.0), 4096);
    let mut shapes = vec![Shape {
        name: "smoke-8slot-saturated",
        system,
        trace: trace.clone(),
        offered_qps: w.arrivals.mean_qps(),
        options: ServeOptions::default(),
    }];
    // The same trace against a KV-starved pool with the cost-driven
    // swap-to-CXL tier: eviction, page-out/page-in serialization and the
    // per-victim comparator all ride the perf gate too.
    let starved = synthetic(1, 8, 8 * (32 + 256) / 3, KvMode::token_granular());
    let spill =
        KvSpillConfig::cost_driven(4 * 8 * (32 + 256), KvSwapCost::cent(ByteSize::kib(128)));
    shapes.push(Shape {
        name: "smoke-8slot-kv-swap",
        system: starved,
        trace,
        offered_qps: w.arrivals.mean_qps(),
        options: ServeOptions::token_granular().with_spill(spill),
    });
    // Multi-replica deployment (4 replicas × PP/8 slots) under
    // token-granular KV pressure: the span engine solves an exhaustion
    // forecast per replica and folds four replicas' occupancy deltas into
    // one integral update per event; recompute-only keeps the churn
    // deterministic without host-pool contention.
    let multi = synthetic(4, 8, 8 * (32 + 256) * 2 / 3, KvMode::token_granular());
    let w = Workload {
        arrivals: ArrivalProcess::Poisson { rate_qps: 3.0 * multi.capacity_qps(32, 256) },
        lengths: LengthSampler::Fixed { prompt: 32, decode: 256 },
        seed: 0xCE28,
        classes: ClassMix::default(),
    };
    let trace = w.generate(Time::from_secs_f64(20.0), 4096);
    shapes.push(Shape {
        name: "smoke-4x8-multi-replica-kv",
        system: multi,
        trace,
        offered_qps: w.arrivals.mean_qps(),
        options: ServeOptions::token_granular(),
    });
    shapes
}

fn full_shapes() -> Vec<Shape> {
    let mut shapes = smoke_shapes();
    // The paper's serving deployment: Llama2-7B pipeline-parallel on 8
    // devices (1 replica × 32 slots), saturated chatbot mix — the shape
    // the load/policy sweeps hammer.
    let cfg = ModelConfig::llama2_7b();
    let system = ServingSystem::plan(&cfg, 8, cent_compiler::Strategy::PipelineParallel, 4096)
        .expect("planning Llama2-7B on 8 devices");
    let rate = 1.2 * system.capacity_qps(512, 3584);
    let w = Workload::chatbot(rate, 0xCE27);
    let trace = w.generate(Time::from_secs_f64(3600.0), 4096);
    shapes.push(Shape {
        name: "llama2_7b-pp8-chatbot-1.2x",
        system: system.clone(),
        trace: trace.clone(),
        offered_qps: rate,
        options: ServeOptions::default(),
    });
    // The same deployment (and the same trace) under KV pressure with
    // token-granular accounting: preemption/recompute churns the buckets,
    // the engine's worst case.
    let slots = system.total_slots() / system.replicas();
    let constrained = system.with_kv_budget(KvBudget::tokens((slots as u64 * 4096).div_ceil(3)));
    shapes.push(Shape {
        name: "llama2_7b-pp8-chatbot-kv-managed",
        system: constrained.clone(),
        trace: trace.clone(),
        offered_qps: rate,
        options: ServeOptions::token_granular(),
    });
    // The same KV-pressured point with the cost-driven swap-to-CXL tier
    // (host pool for 2× the device budget, the deployment's own link/cost
    // model): the spill machinery's event cost shows up next to recompute's.
    let spill = KvSpillConfig::cost_driven(2 * slots as u64 * 4096, constrained.swap_cost());
    shapes.push(Shape {
        name: "llama2_7b-pp8-chatbot-kv-swap",
        system: constrained,
        trace,
        offered_qps: rate,
        options: ServeOptions::token_granular().with_spill(spill),
    });
    shapes
}

/// A timed fleet run as one measurement: its groups' event-core counters
/// summed.
fn fleet_measurement(groups: &[GroupOutcome], wall_s: f64, allocations: u64) -> Measurement {
    let mut stats = SimStats::default();
    for o in groups {
        stats += o.stats;
    }
    Measurement { wall_s, stats, allocations }
}

/// The per-token reference replay of a fleet: each group's routed
/// sub-trace served by the reference loop, timed. With `check`, every
/// replayed group must report identically to its fleet outcome.
fn reference_replay(
    system: &ServingSystem,
    trace: &[RequestSpec],
    routed: &[usize],
    rate: f64,
    groups: usize,
    check: Option<(&str, &[GroupOutcome])>,
) -> Measurement {
    let mut sub: Vec<Vec<RequestSpec>> = vec![Vec::new(); groups];
    for (spec, &g) in trace.iter().zip(routed) {
        sub[g].push(*spec);
    }
    let per_group_qps = rate / groups as f64;
    let options = ServeOptions::default().with_engine(TickEngine::PerTokenReference);
    let (stats, wall_s, allocations) = timed(|| {
        let mut stats = SimStats::default();
        for (g, group_trace) in sub.iter().enumerate() {
            let (report, run) =
                system.serve_trace_instrumented(group_trace, per_group_qps, options.clone());
            if let Some((name, outcomes)) = check {
                assert_eq!(
                    report, outcomes[g].report,
                    "{name}: group {g} fleet run must report identically to the reference loop"
                );
            }
            stats += run;
        }
        stats
    });
    Measurement { wall_s, stats, allocations }
}

/// One fleet row of the artifact: the fleet run against its reference
/// replay.
struct FleetRow<'a> {
    name: &'a str,
    /// What ran, for assertion messages ("fleet", "disaggregated", ...).
    what: &'a str,
    /// Row-specific JSON fields between the name and the engine blocks.
    fields: String,
    /// Row-specific JSON flags after the shared ones.
    flags: &'a str,
    /// Minimum heap-event ratio against the reference.
    floor: f64,
    /// Whether the table shows the reference line above the span line.
    print_reference: bool,
}

/// Prints, checks and formats one fleet row. The fleet run is two orders
/// of magnitude faster than the reference replay, so its wall clock is a
/// few milliseconds — too short for a ±20% gate. The *recorded* speedup
/// is clamped at 20x: the gate then compares saturated values (stable),
/// and any regression big enough to matter pulls the true ratio under the
/// cap and trips it. The heap-event floor is deterministic: incremental
/// epoch driving must not reintroduce per-token heap events. Wall-clock
/// only gates in smoke mode.
fn fleet_row(
    row: FleetRow,
    reference: &Measurement,
    span: &Measurement,
    smoke: bool,
) -> (String, GateRow) {
    let FleetRow { name, what, fields, flags, floor, print_reference } = row;
    let speedup = (reference.wall_s / span.wall_s.max(1e-9)).min(20.0);
    let heap_ratio =
        reference.stats.heap_events_per_token() / span.stats.heap_events_per_token().max(1e-9);
    if print_reference {
        print_reference_line(name, reference);
    }
    print_span_line(if print_reference { "" } else { name }, span, speedup, heap_ratio);
    assert!(
        heap_ratio >= floor,
        "{name}: {what} heap-event ratio {heap_ratio:.2} < {floor}x vs the reference loop"
    );
    if smoke {
        assert!(
            span.wall_s <= 1.25 * reference.wall_s,
            "{name}: {what} run slower than the per-group reference ({:.3}s vs {:.3}s)",
            span.wall_s,
            reference.wall_s
        );
    }
    let json = format!(
        "    {{\"name\": \"{name}\", {fields},\n     \"reference\": {},\n     \"span\": {},\n     \
         \"span_wall_speedup\": {speedup:.3}, \"span_heap_ratio\": {heap_ratio:.3}, \
         \"reports_identical\": true, \"threads_invariant\": true{flags}}}",
        json_engine(reference),
        json_engine(span),
    );
    let gate = GateRow {
        name: name.to_string(),
        heap_events_per_token: span.stats.heap_events_per_token(),
        wall_speedup: speedup,
    };
    (json, gate)
}

fn print_reference_line(name: &str, m: &Measurement) {
    println!(
        "{:>28} {:>9} {:>9.3}s {:>10} {:>9.3} {:>11} {:>9.4} {:>11}",
        name,
        "reference",
        m.wall_s,
        "1.00x",
        m.stats.heap_events_per_token(),
        "1.00x",
        m.allocations_per_token(),
        m.stats.tokens,
    );
}

fn print_span_line(name: &str, m: &Measurement, speedup: f64, heap_ratio: f64) {
    println!(
        "{:>28} {:>9} {:>9.3}s {:>9.2}x {:>9.3} {:>10.2}x {:>9.4} {:>11}",
        name,
        "span",
        m.wall_s,
        speedup,
        m.stats.heap_events_per_token(),
        heap_ratio,
        m.allocations_per_token(),
        m.stats.tokens,
    );
}

/// The fleet smoke shape: a 64-group cluster of the paper's PP/8
/// deployment under a diurnal chatbot load, routed by seeded power-of-two
/// choices. The timed pair is (a) the epoch-driven fleet driver —
/// `GroupSim`'s incremental span engine inside `simulate_fleet` — and
/// (b) the per-token reference loop replaying each group's routed
/// sub-trace, so the baseline's `span_wall_speedup` row covers the fleet
/// path end to end. Along the way the fleet report is asserted
/// bit-identical across 1 vs 2 worker threads and every group's
/// incremental report bit-identical to its batch reference run.
///
/// A second row — `cluster-crash-recovery` — reruns the same trace under
/// a seeded [`FaultPlan::chaos`] schedule with a bounded retry policy:
/// crashes orphan in-flight work onto survivors, degradation windows
/// shift the spill cost model, and the driver still must stay epochal.
/// The row asserts thread-count invariance *under faults*, the
/// `completed + rejected + dropped = offered` conservation invariant,
/// that availability was actually dented and retries engaged, and rides
/// the same `--check-against` gate (its reference is the healthy
/// per-token replay, so the speedup row catches a fault-path slowdown).
fn measure_cluster(smoke: bool) -> (Vec<String>, Vec<GateRow>) {
    const GROUPS: usize = 64;
    let name = "cluster-64xpp8-chatbot-diurnal";
    let cfg = ModelConfig::llama2_7b();
    let system = ServingSystem::plan(&cfg, 8, cent_compiler::Strategy::PipelineParallel, 4096)
        .expect("planning Llama2-7B on 8 devices");
    let horizon_s = if smoke { 60.0 } else { 600.0 };
    let rate = 0.9 * GROUPS as f64 * system.capacity_qps(512, 3584);
    let curve = LoadCurve::diurnal(horizon_s, 0.5, 1.5);
    let w = Workload::chatbot(rate, 0xCE29);
    let trace = w.generate_modulated(Time::from_secs_f64(horizon_s), 4096, &curve, 7);
    let opts = FleetOptions::new(GROUPS).with_epoch(Time::from_secs_f64(0.25));
    let fleet_run = |opts: &FleetOptions, threads: usize| {
        let mut router = PowerOfTwoChoices::seeded(0xD1CE);
        let opts = opts.clone().with_threads(threads);
        timed(|| simulate_fleet_instrumented(&system, &trace, rate, &mut router, &opts))
    };

    let (fleet, span_wall, span_allocs) = fleet_run(&opts, 1);
    let (threaded, _, _) = fleet_run(&opts, 2);
    assert_eq!(
        fleet.report, threaded.report,
        "{name}: fleet report must be bit-identical across worker-thread counts"
    );
    let span = fleet_measurement(&fleet.groups, span_wall, span_allocs);
    let reference =
        reference_replay(&system, &trace, &fleet.routed, rate, GROUPS, Some((name, &fleet.groups)));
    let churn = fleet.report.preemptions + fleet.report.swaps > 0;
    let (row, gate) = fleet_row(
        FleetRow {
            name,
            what: "fleet",
            fields: format!(
                "\"groups\": {GROUPS}, \"replicas_per_group\": {}, \"slots_per_replica\": {}, \
                 \"sim_tokens\": {}, \"preemptions\": {}, \"swaps\": {}",
                system.replicas(),
                system.slots_per_replica(),
                reference.stats.tokens,
                fleet.report.preemptions,
                fleet.report.swaps,
            ),
            flags: "",
            floor: if churn { 3.0 } else { 5.0 },
            print_reference: true,
        },
        &reference,
        &span,
        smoke,
    );

    // The crash-recovery shape: the identical fleet and trace under a
    // seeded chaos schedule (default rates: a crash per ~200 group-seconds
    // with ~10 s outages, host-link brownouts, stragglers) with bounded
    // retries. Retried work means re-admissions, so the churn floor
    // applies — but crash recovery must not reintroduce per-token heap
    // traffic either.
    let fname = "cluster-crash-recovery";
    let fault_opts = opts
        .with_faults(FaultPlan::chaos(
            0xFA01,
            GROUPS,
            Time::from_secs_f64(horizon_s),
            &ChaosRates::default(),
        ))
        .with_retry(RetryPolicy { max_attempts: 4, backoff: Time::from_us(50_000) });
    let (faulted, fault_wall, fault_allocs) = fleet_run(&fault_opts, 1);
    let (threaded, _, _) = fleet_run(&fault_opts, 2);
    assert_eq!(
        faulted.report, threaded.report,
        "{fname}: faulted fleet report must be bit-identical across worker-thread counts"
    );
    let degraded = faulted.report.degraded.as_ref().expect("chaos run reports degraded mode");
    assert!(degraded.availability < 1.0, "{fname}: crashes must dent availability");
    assert!(degraded.retries > 0, "{fname}: failover must redispatch orphans");
    assert_eq!(
        faulted.report.completed + faulted.report.rejected + degraded.drops,
        trace.len(),
        "{fname}: requests leaked from the conservation invariant"
    );
    let fault_span = fleet_measurement(&faulted.groups, fault_wall, fault_allocs);
    let (fault_row, fault_gate) = fleet_row(
        FleetRow {
            name: fname,
            what: "faulted fleet",
            fields: format!(
                "\"groups\": {GROUPS}, \"replicas_per_group\": {}, \"slots_per_replica\": {}, \
                 \"sim_tokens\": {}, \"crashes\": {}, \"recoveries\": {}, \"retries\": {}, \
                 \"drops\": {}, \"availability\": {:.4}",
                system.replicas(),
                system.slots_per_replica(),
                fault_span.stats.tokens,
                degraded.crashes,
                degraded.recoveries,
                degraded.retries,
                degraded.drops,
                degraded.availability,
            ),
            flags: ", \"conservation\": true",
            floor: 3.0,
            print_reference: true,
        },
        &reference,
        &fault_span,
        smoke,
    );
    (vec![row, fault_row], vec![gate, fault_gate])
}

/// The disaggregated fleet shape: an 8-group PP/8 fleet split 4 prefill /
/// 4 decode over the shared switch-attached KV pool, serving a
/// ShareGPT-like trace with chunked prefill. The reference is the
/// *colocated* per-group per-token replay of the same trace (routed by
/// the colocated epoch driver), so the `span_wall_speedup` row measures
/// the whole disaggregated pipeline — routing, chunked prefill, publish,
/// claim, steal — against the per-token loop serving identical work; the
/// generated-token populations of the two runs are equal, so the heap
/// ratio compares like with like. Asserts along the way: handoffs
/// engaged, the pool bound held, and the split fleet is bit-identical
/// across 1 vs 2 worker threads. Same 20x speedup clamp as the other
/// cluster rows.
///
/// A second row — `cluster-disagg-chaos` — reruns the same split fleet
/// and trace under a seeded [`FaultPlan::chaos_disagg`] schedule
/// (decode-tier-weighted crashes, pool-link brownouts) with warm
/// recovery, bounded retries and an active saturation admission policy:
/// the survivable-disaggregation path end to end. It asserts thread-count
/// invariance under disagg faults, the *extended* conservation invariant
/// (`completed + rejected + dropped + shed = offered`) and that crashed
/// decode groups' claims came back from the pool's parked copies, and it
/// rides the same `--check-against` gate with the healthy colocated
/// replay as its ratio baseline.
fn measure_disagg(smoke: bool) -> (Vec<String>, Vec<GateRow>) {
    const GROUPS: usize = 8;
    let name = "cluster-disagg-4p4d-sharegpt";
    let cfg = ModelConfig::llama2_7b();
    let system = ServingSystem::plan(&cfg, 8, cent_compiler::Strategy::PipelineParallel, 4096)
        .expect("planning Llama2-7B on 8 devices");
    let horizon_s = if smoke { 60.0 } else { 240.0 };
    let rate = 0.6 * GROUPS as f64 * system.capacity_qps(160, 210);
    let w = Workload { lengths: LengthSampler::ShareGpt, ..Workload::chatbot(rate, 0xD15A) };
    let trace = w.generate(Time::from_secs_f64(horizon_s), 4096);
    let opts = FleetOptions::new(GROUPS).with_epoch(Time::from_secs_f64(0.25));
    let dcfg = DisaggConfig::split(
        4,
        4,
        32 * 161,
        system.swap_cost().with_switch_hops(2, &FabricConfig::cent(32)),
    )
    .with_prefill_chunk(512);
    let disagg_run = |opts: &FleetOptions, threads: usize| {
        let mut router = PowerOfTwoChoices::seeded(0xD1CE);
        let opts = opts.clone().with_threads(threads);
        timed(|| simulate_fleet_disagg(&system, &trace, rate, &mut router, &opts, &dcfg))
    };

    let (out, disagg_wall, disagg_allocs) = disagg_run(&opts, 1);
    let (threaded, _, _) = disagg_run(&opts, 2);
    assert_eq!(
        out.report, threaded.report,
        "{name}: disaggregated fleet report must be bit-identical across worker-thread counts"
    );
    assert_eq!(
        out.routed, threaded.routed,
        "{name}: disaggregated routing must be bit-identical across worker-thread counts"
    );
    assert!(out.log.handoffs > 0, "{name}: the handoff path must engage");
    assert!(
        out.log.pool_peak_tokens <= out.log.pool_capacity_tokens,
        "{name}: pool peak {} exceeded the {}-token bound",
        out.log.pool_peak_tokens,
        out.log.pool_capacity_tokens
    );
    let span = fleet_measurement(&out.groups, disagg_wall, disagg_allocs);

    // The reference: the colocated driver routes the identical trace, and
    // each group's sub-trace replays through the per-token loop (timed).
    let mut router = PowerOfTwoChoices::seeded(0xD1CE);
    let colocated = simulate_fleet_instrumented(&system, &trace, rate, &mut router, &opts);
    let reference = reference_replay(&system, &trace, &colocated.routed, rate, GROUPS, None);
    assert_eq!(
        reference.stats.tokens, span.stats.tokens,
        "{name}: the split pipeline must generate exactly the colocated token population"
    );
    // Disaggregation admits every request twice (prompt on the prefill
    // tier, remainder on the decode tier), so the heap floor is the churn
    // tier's, not the clean 5x.
    let (row, gate) = fleet_row(
        FleetRow {
            name,
            what: "disaggregated",
            fields: format!(
                "\"groups\": {GROUPS}, \"prefill_groups\": 4, \"decode_groups\": 4, \
                 \"sim_tokens\": {}, \"handoffs\": {}, \"steals\": {}, \
                 \"deferred_publishes\": {}, \"pool_peak_tokens\": {}",
                span.stats.tokens,
                out.log.handoffs,
                out.log.steals,
                out.log.deferred,
                out.log.pool_peak_tokens,
            ),
            flags: ", \"pool_bound_held\": true",
            floor: 3.0,
            print_reference: true,
        },
        &reference,
        &span,
        smoke,
    );

    // The survivable-disaggregation shape: the identical split fleet and
    // trace under a seeded disagg-aware chaos schedule — decode-tier-
    // weighted crashes (claimed contexts stranded mid-decode), pool-link
    // brownouts stretching every transfer in the window — with warm
    // recovery, bounded retries and an active admission policy. The
    // healthy colocated replay stays the ratio baseline. Crash retries and
    // rescues re-admit work, so the churn floor applies.
    let fname = "cluster-disagg-chaos";
    let rates = ChaosRates { decode_crash_mult: 1.5, ..ChaosRates::default() };
    let fault_opts = opts
        .clone()
        .with_faults(FaultPlan::chaos_disagg(
            0xFA02,
            &dcfg.roles,
            Time::from_secs_f64(horizon_s),
            &rates,
        ))
        .with_retry(RetryPolicy { max_attempts: 4, backoff: Time::from_us(50_000) })
        .with_recovery(RecoveryMode::Warm { retained_fraction: 0.5 })
        .with_admission(AdmissionPolicy::shed_above(6.0));
    let (chaos, chaos_wall, chaos_allocs) = disagg_run(&fault_opts, 1);
    let (threaded, _, _) = disagg_run(&fault_opts, 2);
    assert_eq!(
        chaos.report, threaded.report,
        "{fname}: chaotic disagg report must be bit-identical across worker-thread counts"
    );
    assert_eq!(
        chaos.routed, threaded.routed,
        "{fname}: chaotic disagg routing must be bit-identical across worker-thread counts"
    );
    let degraded = chaos.report.degraded.as_ref().expect("chaos run reports degraded mode");
    assert!(degraded.crashes > 0, "{fname}: the chaos schedule must actually crash groups");
    assert_eq!(
        chaos.report.completed + chaos.report.rejected + degraded.drops + degraded.shed,
        trace.len(),
        "{fname}: requests leaked from the extended conservation invariant"
    );
    assert!(
        degraded.pool_rescued > 0,
        "{fname}: decode-tier crashes must rescue parked pool copies"
    );
    let chaos_span = fleet_measurement(&chaos.groups, chaos_wall, chaos_allocs);
    let (chaos_row, chaos_gate) = fleet_row(
        FleetRow {
            name: fname,
            what: "chaotic disagg",
            fields: format!(
                "\"groups\": {GROUPS}, \"prefill_groups\": 4, \"decode_groups\": 4, \
                 \"sim_tokens\": {}, \"crashes\": {}, \"pool_rescued\": {}, \"pool_lost\": {}, \
                 \"warm_rejoins\": {}, \"shed\": {}, \"availability\": {:.4}",
                chaos_span.stats.tokens,
                degraded.crashes,
                degraded.pool_rescued,
                degraded.pool_lost,
                degraded.warm_rejoins,
                degraded.shed,
                degraded.availability,
            ),
            flags: ", \"conservation\": true",
            floor: 3.0,
            print_reference: false,
        },
        &reference,
        &chaos_span,
        smoke,
    );
    (vec![row, chaos_row], vec![gate, chaos_gate])
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

/// Per-shape span-engine numbers the regression gate compares.
struct GateRow {
    name: String,
    heap_events_per_token: f64,
    wall_speedup: f64,
}

/// Extracts `(shape, heap_events_per_token, span_wall_speedup)` rows from
/// a `BENCH_serving_sim*.json` file. The file is machine-written by this
/// bin (one `"name"` line, one `"span": {...}` line and one flat
/// `"span_wall_speedup"` line per shape, in that order), so a line scan is
/// exact — the build environment has no serde to do better.
fn parse_baseline(text: &str) -> Vec<GateRow> {
    fn field(line: &str, key: &str) -> Option<f64> {
        let tail = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        tail[..end].trim().parse().ok()
    }
    let mut rows = Vec::new();
    let mut name: Option<String> = None;
    let mut hept: Option<f64> = None;
    for line in text.lines() {
        if let Some(tail) = line.trim().strip_prefix("{\"name\": \"") {
            name = tail.split('"').next().map(str::to_string);
            hept = None;
        }
        if line.trim_start().starts_with("\"span\":") {
            hept = field(line, "heap_events_per_token");
        }
        if let Some(speedup) = field(line, "span_wall_speedup") {
            if let (Some(name), Some(heap_events_per_token)) = (name.clone(), hept.take()) {
                rows.push(GateRow { name, heap_events_per_token, wall_speedup: speedup });
            }
        }
    }
    rows
}

/// Allowed regression on either gated metric.
const GATE_SLACK: f64 = 1.20;

/// Steady-state allocation ceiling for the span engine, in heap
/// allocations per simulated token. The hot path is allocation-free;
/// what remains scales with admissions (records, requeues, report
/// assembly), two orders of magnitude below one-per-token.
const ALLOC_CEILING: f64 = 0.05;

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
    let shapes = if smoke { smoke_shapes() } else { full_shapes() };

    println!(
        "{:>28} {:>9} {:>10} {:>10} {:>9} {:>11} {:>9} {:>11}",
        "shape", "engine", "wall", "speedup", "hp/tok", "hp ratio", "alloc/tok", "tokens"
    );
    let mut rows = Vec::new();
    let mut gate_rows = Vec::new();
    // The smoke gate compares wall clocks on a shared CI runner; take the
    // best of five so scheduler stalls cannot flip the not-slower assert
    // or the speedup half of the regression gate.
    let repeats = if smoke { 5 } else { 2 };
    for shape in &shapes {
        let (reference, ref_report) = measure(shape, TickEngine::PerTokenReference, repeats);
        print_reference_line(shape.name, &reference);
        let (span, report) = measure(shape, TickEngine::SpanFastForward, repeats);
        assert_eq!(
            ref_report, report,
            "{}: span engine must report identically to the reference before perf means \
             anything",
            shape.name
        );
        let speedup = reference.wall_s / span.wall_s.max(1e-9);
        let heap_ratio =
            reference.stats.heap_events_per_token() / span.stats.heap_events_per_token().max(1e-9);
        print_span_line("", &span, speedup, heap_ratio);
        gate_rows.push(GateRow {
            name: shape.name.to_string(),
            heap_events_per_token: span.stats.heap_events_per_token(),
            wall_speedup: speedup,
        });
        // The no-alloc-in-steady-state assertion: scratch buffers are
        // arena'd, so allocations scale with admissions, not tokens.
        assert!(
            span.allocations_per_token() < ALLOC_CEILING,
            "{}: span engine allocates {:.4}/token (ceiling {ALLOC_CEILING})",
            shape.name,
            span.allocations_per_token()
        );
        let slots = shape.system.slots_per_replica();
        let churn = ref_report.preemptions + ref_report.swaps > 0;
        // The heap-event ratio is deterministic: on a clean shape with >= 8
        // slots per replica the span engine must batch at least 5x per
        // slot (every resident's tokens between decision instants cost no
        // heap event) — relaxed to 3x under eviction churn, where every
        // resume is a fresh admission and heap traffic is admission-bound.
        if slots >= 8 {
            let floor = if churn { 3.0 } else { 5.0 * slots as f64 };
            assert!(
                heap_ratio >= floor,
                "{}: span heap-event ratio {heap_ratio:.2} < {floor}x on {slots} slots/replica",
                shape.name
            );
        }
        // Wall-clock is noisy in CI; "not slower" with 25% slack in smoke
        // mode, while the full run must show the real speedup on the
        // saturated chatbot shape (too short to time reliably in smoke).
        if smoke {
            assert!(
                span.wall_s <= 1.25 * reference.wall_s,
                "{}: span engine slower than reference ({:.3}s vs {:.3}s)",
                shape.name,
                span.wall_s,
                reference.wall_s
            );
        }
        if shape.name == "llama2_7b-pp8-chatbot-1.2x" {
            assert!(
                speedup >= 20.0,
                "{}: span engine only {speedup:.2}x faster than the reference",
                shape.name
            );
        }
        rows.push(format!(
            "    {{\"name\": \"{}\", \"replicas\": {}, \"slots_per_replica\": {}, \
             \"sim_tokens\": {}, \"preemptions\": {}, \"swaps\": {},\n     \
             \"reference\": {},\n     \"span\": {},\n     \
             \"span_wall_speedup\": {speedup:.3}, \"span_heap_ratio\": {heap_ratio:.3}, \
             \"reports_identical\": true}}",
            shape.name,
            shape.system.replicas(),
            slots,
            reference.stats.tokens,
            ref_report.preemptions,
            ref_report.swaps,
            json_engine(&reference),
            json_engine(&span),
        ));
    }

    // The fleet shapes (healthy diurnal + crash-recovery) ride the same
    // artifact and gate: each row carries a "span" engine block and a
    // span_wall_speedup, so --check-against covers the cluster path — and
    // the fault path — with no parser changes.
    let (cluster_rows, cluster_gates) = measure_cluster(smoke);
    rows.extend(cluster_rows);
    gate_rows.extend(cluster_gates);
    let (disagg_rows, disagg_gates) = measure_disagg(smoke);
    rows.extend(disagg_rows);
    gate_rows.extend(disagg_gates);

    let json = format!(
        "{{\n  \"id\": \"BENCH_serving_sim\",\n  \"mode\": \"{}\",\n  \"shapes\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        rows.join(",\n")
    );
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_serving_sim.json");
    std::fs::write(&path, json).expect("writing BENCH_serving_sim.json");
    println!("\nwrote {}", path.display());

    // The CI perf-regression gate: every shape in the committed baseline
    // must still be measured and its span row must not regress by more
    // than 20% on either heap events per token or the reference→span
    // wall-clock speedup.
    if let Some(baseline_path) = check_against {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("reading baseline {baseline_path}: {e}"));
        let baseline = parse_baseline(&text);
        assert!(!baseline.is_empty(), "baseline {baseline_path} has no shapes");
        println!("checking against {baseline_path} (\u{2264}{GATE_SLACK}x regression allowed):");
        let mut failures = Vec::new();
        for b in &baseline {
            let Some(now) = gate_rows.iter().find(|g| g.name == b.name) else {
                failures.push(format!("shape {:?} engine span missing from this run", b.name));
                continue;
            };
            println!(
                "  {:>28}/{:>8}: heap/tok {:.4} (baseline {:.4}) | speedup {:.3}x (baseline \
                 {:.3}x)",
                b.name,
                "span",
                now.heap_events_per_token,
                b.heap_events_per_token,
                now.wall_speedup,
                b.wall_speedup,
            );
            // Failure lines are self-contained — measured value, baseline
            // value and the allowed threshold — so a CI log alone is
            // enough to judge how far over the line the run landed.
            if now.heap_events_per_token > GATE_SLACK * b.heap_events_per_token {
                failures.push(format!(
                    "{}/span: heap events/token regressed: measured {:.4}, baseline {:.4}, \
                     allowed at most {:.4} (baseline x {GATE_SLACK})",
                    b.name,
                    now.heap_events_per_token,
                    b.heap_events_per_token,
                    GATE_SLACK * b.heap_events_per_token,
                ));
            }
            if now.wall_speedup < b.wall_speedup / GATE_SLACK {
                failures.push(format!(
                    "{}/span: wall-clock speedup regressed: measured {:.3}x, baseline {:.3}x, \
                     allowed at least {:.3}x (baseline / {GATE_SLACK})",
                    b.name,
                    now.wall_speedup,
                    b.wall_speedup,
                    b.wall_speedup / GATE_SLACK,
                ));
            }
        }
        assert!(
            failures.is_empty(),
            "perf regression gate failed:\n  {}\n(if intentional: rerun `cargo run --release \
             -p cent-bench --bin sim_perf -- --smoke`, copy results/BENCH_serving_sim.json \
             over {baseline_path}, and commit it)",
            failures.join("\n  ")
        );
        println!("perf gate passed ({} rows)", baseline.len());
    }
}
