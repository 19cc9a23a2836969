//! KV accounting modes, spill tiers and scheduling policies through
//! saturation: the serving-level counterpart of §5.4's capacity management
//! plus the swap-to-CXL KV tier.
//!
//! Runs the paper's chatbot mix (512/3584) and a ShareGPT-like mix through
//! a capacity-managed operating point — the per-replica KV budget is
//! constrained so full-reservation admission (4096 tokens held from a
//! query's first instant) is the binding constraint — and sweeps offered
//! load across the knee for six configurations:
//!
//! * full-reservation + FIFO (the pre-refactor baseline),
//! * token-granular + FIFO with each [`KvSpillMode`] (recompute-only,
//!   swap-to-CXL-only, cost-driven),
//! * token-granular + shortest-remaining-decode,
//! * token-granular + deadline-aware (least slack first).
//!
//! Token-granular admission packs roughly `budget / (prompt + decode/2)`
//! queries where full reservation packs `budget / (prompt + decode)`;
//! the swap tier then converts eviction stalls from re-prefill time into
//! CXL round trips whenever the host link is the cheaper side.
//!
//! Each `(mix, load)` trace is generated **once** and shared behind an
//! `Arc` across every configuration (trace generation rivals serving time
//! at the fast end of the sweep); the `config × load` grid runs in
//! parallel under `std::thread::scope`, rows print in serial order, so
//! the output is reproducible regardless of thread interleaving.
//!
//! Pass `--smoke` for the CI mode: a synthetic KV-starved deployment, one
//! saturated load, all three spill modes — asserting the swap path really
//! ran — written to `results/serving_policy_sweep_smoke.json`.
use std::sync::Arc;

use cent_bench::Report;
use cent_model::ModelConfig;
use cent_serving::{
    ArrivalProcess, DeadlineAware, KvBudget, KvMode, KvSpillConfig, KvSpillMode, LengthSampler,
    RequestSpec, SchedulerConfig, ServeOptions, ServingReport, ServingSystem,
    ShortestRemainingDecode, Workload,
};
use cent_types::Time;

const LOADS: [f64; 4] = [0.5, 0.8, 1.0, 1.3];
const HORIZON_S: f64 = 600.0;
const SEED: u64 = 0xCE27;

struct Mix {
    name: &'static str,
    lengths: LengthSampler,
    /// Nominal (prompt, decode) shape used to anchor capacity and the SLO.
    prompt: usize,
    decode: usize,
}

/// The swept configurations, each built exactly once per mix and cloned
/// per operating point.
fn configs(slo: Time, spill: KvSpillConfig) -> Vec<(&'static str, ServeOptions)> {
    vec![
        // The default policy is FIFO in both KV modes.
        ("full+fifo", ServeOptions::default().with_slo(slo)),
        ("token+fifo", ServeOptions::token_granular().with_slo(slo)),
        (
            "token+swap",
            ServeOptions::token_granular()
                .with_spill(spill.with_mode(KvSpillMode::SwapOnly))
                .with_slo(slo),
        ),
        (
            "token+cost",
            ServeOptions::token_granular()
                .with_spill(spill.with_mode(KvSpillMode::CostDriven))
                .with_slo(slo),
        ),
        (
            "token+srd",
            ServeOptions::token_granular()
                .with_policy(Box::new(ShortestRemainingDecode))
                .with_slo(slo),
        ),
        (
            "token+deadline",
            ServeOptions::token_granular()
                .with_policy(Box::new(DeadlineAware { slo }))
                .with_slo(slo),
        ),
    ]
}

/// Runs one `config × load` grid over shared traces and returns the cells
/// in `(config, load)` order.
fn run_grid(
    system: &ServingSystem,
    configs: &[(&'static str, ServeOptions)],
    traces: &[Arc<Vec<RequestSpec>>],
    rates: &[f64],
) -> Vec<ServingReport> {
    let mut cells: Vec<Option<ServingReport>> = vec![None; configs.len() * rates.len()];
    std::thread::scope(|scope| {
        for (idx, cell) in cells.iter_mut().enumerate() {
            let (_, options) = &configs[idx / rates.len()];
            let rate = rates[idx % rates.len()];
            let trace = Arc::clone(&traces[idx % rates.len()]);
            let options = options.clone();
            scope.spawn(move || {
                *cell = Some(system.serve_trace_with(&trace, rate, options));
            });
        }
    });
    cells.into_iter().map(|c| c.expect("cell completed")).collect()
}

fn print_header() {
    println!(
        "{:>16} {:>6} {:>10} {:>7} {:>9} {:>10} {:>8} {:>6} {:>9}",
        "config", "load", "tokens/s", "slots", "KV mean", "p99 lat", "preempt", "swaps", "goodput"
    );
}

fn print_row(config: &str, load: f64, r: &ServingReport) {
    println!(
        "{:>16} {:>5.2}x {:>10.0} {:>6.0}% {:>8.0}% {:>10} {:>8} {:>6} {:>9.3}",
        config,
        load,
        r.tokens_per_s,
        100.0 * r.slot_utilization,
        100.0 * r.kv_utilization,
        r.query_latency.p99,
        r.preemptions,
        r.swaps,
        r.goodput_qps,
    );
}

/// CI smoke: a synthetic KV-starved deployment at one saturated load with
/// all three spill modes, small enough to run in seconds.
fn smoke() {
    let system = ServingSystem::from_parts(
        &ModelConfig::llama2_7b(),
        SchedulerConfig {
            replicas: 1,
            slots_per_replica: 8,
            // Budget for ~2.7 full 288-token contexts across 8 slots.
            kv_budget: KvBudget::tokens(768),
            kv: KvMode::FullReservation,
        },
        Time::from_us(1000),
        1000.0,
        8000.0,
    );
    let capacity = system.capacity_qps(32, 256);
    let slo = Time::from_secs_f64(2.0 * 256.0 * 1e-3);
    let spill = KvSpillConfig::cost_driven(4 * 768, system.swap_cost());
    let configs: Vec<(&'static str, ServeOptions)> = KvSpillMode::ALL
        .iter()
        .map(|&mode| {
            (mode.name(), ServeOptions::token_granular().with_spill(spill.with_mode(mode)))
        })
        .collect();
    let w = Workload {
        arrivals: ArrivalProcess::Poisson { rate_qps: 1.5 * capacity },
        lengths: LengthSampler::Fixed { prompt: 32, decode: 256 },
        seed: SEED,
        classes: cent_serving::ClassMix::two_tier(0.5),
    };
    let traces = vec![Arc::new(w.generate(Time::from_secs_f64(20.0), 4096))];
    let cells = run_grid(&system, &configs, &traces, &[1.5 * capacity]);

    let mut report = Report::new(
        "serving_policy_sweep_smoke",
        "KV spill modes at a saturated KV-starved point (synthetic 1x8-slot deployment)",
        "all three KvSpillModes drain the same trace; swap-capable modes divert \
         evictions to the CXL host pool",
    );
    println!("smoke: capacity {capacity:.3} q/s | budget 768 tokens | SLO {slo}");
    print_header();
    let mut series: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for ((name, _), r) in configs.iter().zip(&cells) {
        print_row(name, 1.5, r);
        assert_eq!(r.completed, r.submitted - r.rejected, "{name}: requests lost");
        if *name != "recompute" {
            assert!(r.swaps > 0, "{name}: swap tier never engaged");
        } else {
            assert_eq!(r.swaps, 0, "recompute-only must not swap");
        }
        series.push((
            format!("spill {name}"),
            vec![
                ("tokens/s".into(), r.tokens_per_s),
                ("goodput".into(), r.goodput_qps),
                ("preemptions".into(), r.preemptions as f64),
                ("swaps".into(), r.swaps as f64),
                ("stall_s".into(), r.eviction_stall().as_secs()),
            ],
        ));
    }
    for (name, points) in &series {
        report.push_series(name, "mixed", points);
    }
    report.emit();
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let cfg = ModelConfig::llama2_7b();
    let devices = 8;
    let system =
        ServingSystem::plan(&cfg, devices, cent_compiler::Strategy::PipelineParallel, 4096)
            .expect("planning Llama2-7B on 8 devices");
    // Capacity-managed operating point: budget for a third of the slots at
    // full 4096-token context, so reservation strategy decides concurrency.
    let slots_per_replica = system.total_slots() / system.replicas();
    let budget = KvBudget::tokens((slots_per_replica as u64 * 4096).div_ceil(3));
    let system = system.with_kv_budget(budget);
    let steady = system.steady_state_tokens_per_s();
    // Steady state runs all slots; per-token cadence = slots / steady.
    let token_interval_s = system.total_slots() as f64 / steady;
    // Host pool sized at 4x the device budget, costed by the deployment's
    // own footprint over the paper's CXL host link.
    let spill = KvSpillConfig::cost_driven(4 * budget.tokens, system.swap_cost());

    let mixes = [
        Mix { name: "chatbot", lengths: LengthSampler::Chatbot, prompt: 512, decode: 3584 },
        Mix { name: "sharegpt", lengths: LengthSampler::ShareGpt, prompt: 164, decode: 222 },
    ];

    let mut report = Report::new(
        "serving_policy_sweep",
        "KV accounting × spill tier × scheduling policy through saturation (Llama2-7B, \
         8 devices, capacity-managed KV budget)",
        "token-granular occupancy admits more concurrent queries than full \
         reservation (§5.4 capacity management); the cost-driven swap tier \
         converts recompute stalls into cheaper CXL round trips",
    );

    for mix in &mixes {
        let capacity = system.capacity_qps(mix.prompt, mix.decode);
        // SLO: 2x the uncontended service time of the nominal shape.
        let slo = Time::from_secs_f64(2.0 * mix.decode as f64 * token_interval_s);
        let configs = configs(slo, spill);
        println!(
            "{} mix: capacity {capacity:.3} q/s | KV budget {} tokens/replica | host pool {} \
             | SLO {slo}",
            mix.name, budget.tokens, spill.host_pool_tokens,
        );
        print_header();
        // One trace per load, generated once and shared across configs.
        let rates: Vec<f64> = LOADS.iter().map(|load| load * capacity).collect();
        let traces: Vec<Arc<Vec<RequestSpec>>> = rates
            .iter()
            .map(|&rate| {
                let w = Workload {
                    arrivals: ArrivalProcess::Poisson { rate_qps: rate },
                    lengths: mix.lengths,
                    seed: SEED,
                    classes: cent_serving::ClassMix::default(),
                };
                Arc::new(w.generate(Time::from_secs_f64(HORIZON_S), 4096))
            })
            .collect();
        let cells = run_grid(&system, &configs, &traces, &rates);
        let mut series: Vec<(String, Vec<(String, f64)>)> = Vec::new();
        for (ci, (config, _)) in configs.iter().enumerate() {
            let mut tokens = Vec::new();
            let mut goodput = Vec::new();
            let mut util = Vec::new();
            for (li, load) in LOADS.iter().enumerate() {
                let r = &cells[ci * LOADS.len() + li];
                print_row(config, *load, r);
                let label = format!("{load:.2}x");
                tokens.push((label.clone(), r.tokens_per_s));
                goodput.push((label.clone(), r.goodput_qps));
                util.push((label, r.slot_utilization));
            }
            series.push((format!("{} tokens/s [{config}]", mix.name), tokens));
            series.push((format!("{} goodput [{config}]", mix.name), goodput));
            series.push((format!("{} slot util [{config}]", mix.name), util));
        }
        println!();
        for (name, points) in &series {
            let unit = if name.contains("tokens/s") {
                "tokens/s"
            } else if name.contains("goodput") {
                "q/s"
            } else {
                "fraction"
            };
            report.push_series(name, unit, points);
        }
    }
    report.emit();
}
