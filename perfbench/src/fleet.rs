//! `fleet-diurnal`: 1000 Llama2-7B PP/8 groups behind seeded
//! power-of-two-choices routing, serving the chatbot mix under a diurnal
//! load.
//!
//! Queues stay short, but the epoch driver advances every group, idle ones
//! included, at thousands of epoch stops: the driver dominates host time.
//! The timed run uses one worker thread. A run on every host thread checks
//! thread invariance and gives `cluster.thread_speedup`; its wall time
//! swings by 2x between runs on a shared two-core host (the driver spawns
//! workers at every epoch stop), too much to bound.

use cent::cluster::{
    simulate_fleet_instrumented, FleetOptions, FleetOutcome, FleetReport, PowerOfTwoChoices,
};
use cent::serving::{GroupSim, LoadCurve, RequestSpec, ServingSystem, Workload};
use cent::types::Time;

use crate::requests::{meets_slo, plan_deployment, total_stats, trace_plan, Simulated};
use crate::trace::{Clock, Tracer};
use crate::{setup_median, timed, Checks, Layers, Outcome, RunConfig};

/// Replica groups in the fleet.
const GROUPS: usize = 1000;
/// Simulated arrival window, seconds; also the diurnal period.
const HORIZON_S: f64 = 450.0;
/// Mean offered load as a share of fleet capacity.
const LOAD: f64 = 0.6;
/// Epoch width of the fleet driver, seconds.
const EPOCH_S: f64 = 0.25;

/// The fleet's inputs.
struct Inputs {
    system: ServingSystem,
    trace: Vec<RequestSpec>,
    qps: f64,
    options: FleetOptions,
    router_seed: u64,
}

fn setup(seed: u64) -> Inputs {
    let system = plan_deployment();
    let qps = LOAD * GROUPS as f64 * system.capacity_qps(512, 3584);
    let curve = LoadCurve::diurnal(HORIZON_S, 0.5, 1.5);
    let trace = Workload::chatbot(qps, seed).generate_modulated(
        Time::from_secs_f64(HORIZON_S),
        4096,
        &curve,
        seed ^ 0x5EED,
    );
    let options = FleetOptions::new(GROUPS).with_epoch(Time::from_secs_f64(EPOCH_S));
    Inputs { system, trace, qps, options, router_seed: seed ^ 0xD1CE }
}

/// A fleet run's outcome, compared by report and routing.
struct Run(FleetOutcome);

impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        self.0.report == other.0.report && self.0.routed == other.0.routed
    }
}

fn simulate(inputs: &Inputs, threads: usize) -> Run {
    let mut router = PowerOfTwoChoices::seeded(inputs.router_seed);
    let options = inputs.options.clone().with_threads(threads);
    Run(simulate_fleet_instrumented(
        &inputs.system,
        &inputs.trace,
        inputs.qps,
        &mut router,
        &options,
    ))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, checks: &mut Checks, tracer: &mut Tracer) -> Outcome {
    let (inputs, setup_s) = setup_median(3, || setup(cfg.seed));
    let timed = timed(cfg.seconds, checks, || simulate(&inputs, 1));
    let fleet = &timed.output.0;
    let report = &fleet.report;
    let offered = inputs.trace.len();
    checks.check(report.submitted == offered, || "the fleet lost requests".to_string());
    checks.check(report.completed + report.rejected == offered, || {
        "completed + rejected != offered".to_string()
    });

    // Thread invariance: every host thread must give the identical report.
    let start = Clock::start();
    let threaded = tracer.span(
        "cluster",
        "cluster.simulate_fleet",
        &format!("{} threads", cfg.threads),
        |_| simulate(&inputs, cfg.threads),
    );
    let threaded_wall_s = start.secs();
    checks.check(threaded == timed.output, || {
        format!("fleet report differs between 1 and {} threads", cfg.threads)
    });

    let mut layers = Layers::default();
    let slo_met = fleet
        .groups
        .iter()
        .flat_map(|o| &o.records)
        .filter(|r| meets_slo(r.ttft(), r.time_between_tokens()))
        .count();
    Simulated {
        offered,
        ttft: report.ttft,
        ttft_samples: report.completed as u64,
        tbt: report.tbt,
        tbt_samples: fleet.groups.iter().map(|o| o.tbt.count()).sum(),
        slo_met,
    }
    .report("fleet", checks, &mut layers);

    if cfg.traced {
        trace_plan(tracer, &mut layers);
        let start = Clock::start();
        let traced =
            tracer.span("cluster", "cluster.simulate_fleet", "1 thread", |_| simulate(&inputs, 1));
        let single_wall_s = start.secs();
        crate::set_overhead(&mut layers, single_wall_s, timed.wall_s());
        checks.check(traced == timed.output, || "traced iteration differs".to_string());
        layers.set(
            "cluster.thread_speedup",
            timed.wall_s() / threaded_wall_s,
            format!("1-thread median wall / one {}-thread wall", cfg.threads),
        );

        // Each group's routed sub-trace, replayed standalone.
        let mut sub: Vec<Vec<RequestSpec>> = vec![Vec::new(); GROUPS];
        for (spec, &g) in inputs.trace.iter().zip(&fleet.routed) {
            sub[g].push(*spec);
        }
        let per_group_qps = inputs.qps / GROUPS as f64;
        let start = Clock::start();
        for (g, group_trace) in sub.iter().enumerate() {
            let replay =
                tracer.span("serving", "serving.group_replay", &format!("group {g}"), |_| {
                    let mut sim = GroupSim::new(&inputs.system, inputs.options.serve.clone());
                    for spec in group_trace {
                        sim.push_arrival(*spec);
                    }
                    sim.finish(per_group_qps)
                });
            checks.check(replay.report == fleet.groups[g].report, || {
                format!("group {g}: standalone replay differs from the fleet run")
            });
        }
        let replay_s = start.secs();
        layers.set("serving.group_replay_s", replay_s, format!("n={GROUPS} groups"));
        let last = fleet.groups.iter().flat_map(|o| &o.records).map(|r| r.finished).max();
        let epochs = (last.unwrap_or(Time::ZERO).as_secs() / EPOCH_S).ceil().max(1.0);
        layers.set(
            "cluster.driver_us_per_epoch",
            (single_wall_s - replay_s) * 1e6 / epochs,
            format!("(1-thread wall - group replays) / {epochs} epochs"),
        );

        let start = Clock::start();
        let rebuilt = tracer.span("cluster", "cluster.report_build", "fleet", |_| {
            FleetReport::from_outcomes(inputs.qps, &fleet.groups)
        });
        layers.set("cluster.report_build_ms", start.secs() * 1e3, "FleetReport::from_outcomes");
        checks.check(&rebuilt == report, || "rebuilt fleet report differs".to_string());

        let stats = total_stats(fleet.groups.iter().map(|o| &o.stats));
        layers.set("serving.heap_events_per_token", stats.heap_events_per_token(), "all groups");
        layers.set(
            "serving.ns_per_token",
            timed.wall_s() * 1e9 / stats.tokens as f64,
            format!("fleet wall / n={} tokens", stats.tokens),
        );
        layers.set("serving.admissions", stats.admissions as f64, "all groups");
        layers.set("serving.preemptions", report.preemptions as f64, "all groups");
    }

    let iterations = timed.walls.len() as u64;
    Outcome {
        setup_s,
        wall_s: timed.wall_s(),
        iterations: timed.walls.len(),
        ops: offered as u64,
        completed: report.completed as u64,
        attempted: iterations,
        failed: 0,
        peak_heap_mib: timed.peak_heap_mib,
        layers,
    }
}
