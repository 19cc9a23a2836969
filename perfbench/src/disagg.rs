//! `disagg-chaos`: a prefill/decode split over the shared CXL KV pool
//! under seeded chaos faults, bounded retry, warm recovery, saturation
//! shedding and token-granular KV with cost-driven CXL spill, on one
//! thread.
//!
//! The only workload that writes into the pool (publish, claim, park,
//! rescue) and drives the fault, admission and KV-eviction paths.

use cent::cluster::{
    simulate_fleet_disagg, AdmissionPolicy, ChaosRates, DisaggConfig, DisaggOutcome, FaultPlan,
    FleetOptions, FleetReport, GroupRole, PowerOfTwoChoices, RecoveryMode, RetryPolicy,
};
use cent::cxl::FabricConfig;
use cent::serving::{
    KvBudget, KvSpillConfig, LengthSampler, RequestSpec, ServeOptions, ServingSystem, Workload,
};
use cent::types::Time;

use crate::requests::{meets_slo, plan_deployment, total_stats, trace_plan, Simulated};
use crate::trace::{Clock, Tracer};
use crate::{setup_median, timed, Checks, Layers, Outcome, RunConfig};

/// Prefill-role and decode-role groups.
const PREFILL: usize = 8;
const DECODE: usize = 8;
/// Simulated arrival window, seconds.
const HORIZON_S: f64 = 3840.0;
/// Offered load as a share of the fleet's capacity.
const LOAD: f64 = 0.35;
/// Shared pool bound, KV tokens.
const POOL_TOKENS: u64 = 32 * 161 * 4;
/// Per-replica KV budget, in tokens per decode slot: tight enough that
/// token-granular growth evicts residents.
const KV_TOKENS_PER_SLOT: u64 = 416;

struct Inputs {
    system: ServingSystem,
    trace: Vec<RequestSpec>,
    qps: f64,
    options: FleetOptions,
    disagg: DisaggConfig,
    router_seed: u64,
}

fn setup(seed: u64) -> Inputs {
    let planned = plan_deployment();
    let slots = (planned.total_slots() / planned.replicas()) as u64;
    let system = planned.with_kv_budget(KvBudget::tokens(slots * KV_TOKENS_PER_SLOT));
    let groups = PREFILL + DECODE;
    let qps = LOAD * groups as f64 * system.capacity_qps(160, 210);
    let horizon = Time::from_secs_f64(HORIZON_S);
    let w = Workload { lengths: LengthSampler::ShareGpt, ..Workload::chatbot(qps, seed) };
    let trace = w.generate(horizon, 4096);
    let handoff = system.swap_cost().with_switch_hops(2, &FabricConfig::cent(32));
    let disagg = DisaggConfig::split(PREFILL, DECODE, POOL_TOKENS, handoff).with_prefill_chunk(512);
    let rates = ChaosRates { decode_crash_mult: 1.5, ..ChaosRates::default() };
    let spill = KvSpillConfig::cost_driven(slots * 4096, system.swap_cost());
    let options = FleetOptions::new(groups)
        .with_epoch(Time::from_secs_f64(0.25))
        .with_serve(ServeOptions::token_granular().with_spill(spill))
        .with_faults(FaultPlan::chaos_disagg(seed ^ 0xFA02, &disagg.roles, horizon, &rates))
        .with_retry(RetryPolicy { max_attempts: 4, backoff: Time::from_us(50_000) })
        .with_recovery(RecoveryMode::Warm { retained_fraction: 0.5 })
        .with_admission(AdmissionPolicy::shed_above(6.0));
    Inputs { system, trace, qps, options, disagg, router_seed: seed ^ 0xD1CE }
}

/// A disaggregated run's outcome, compared by report and routing.
struct Run(DisaggOutcome);

impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        self.0.report == other.0.report && self.0.routed == other.0.routed
    }
}

fn simulate(inputs: &Inputs) -> Run {
    let mut router = PowerOfTwoChoices::seeded(inputs.router_seed);
    Run(simulate_fleet_disagg(
        &inputs.system,
        &inputs.trace,
        inputs.qps,
        &mut router,
        &inputs.options,
        &inputs.disagg,
    ))
}

/// Joins each request's phase records and counts the offered requests
/// that completed within the SLO, returning (completed, met). TTFT runs
/// from arrival to the earliest first token on the prefill tier; the mean
/// time between tokens spans first token to the final phase's finish, so
/// the handoff gap counts against it.
fn slo_join(trace: &[RequestSpec], run: &DisaggOutcome, roles: &[GroupRole]) -> (usize, usize) {
    let index = |id: u64| {
        trace.binary_search_by_key(&id, |s| s.id.0).expect("records name traced requests")
    };
    let mut first_token: Vec<Option<Time>> = vec![None; trace.len()];
    let mut decoded: Vec<Option<Time>> = vec![None; trace.len()];
    let mut prefilled: Vec<Option<Time>> = vec![None; trace.len()];
    for (group, role) in run.groups.iter().zip(roles) {
        for r in &group.records {
            let i = index(r.spec.id.0);
            match role {
                GroupRole::Decode => decoded[i] = Some(r.finished),
                _ => {
                    first_token[i] =
                        Some(first_token[i].map_or(r.first_token, |t| t.min(r.first_token)));
                    prefilled[i] = Some(prefilled[i].map_or(r.finished, |t| t.max(r.finished)));
                }
            }
        }
    }
    for &(id, _) in &run.faults.dropped {
        prefilled[index(id.0)] = None;
    }
    let (mut completed, mut met) = (0, 0);
    for (i, spec) in trace.iter().enumerate() {
        let (Some(first), Some(finished)) = (first_token[i], decoded[i].or(prefilled[i])) else {
            continue;
        };
        completed += 1;
        let gaps = spec.decode.saturating_sub(1).max(1) as u64;
        let mean_tbt = Time::from_ps(finished.saturating_sub(first).as_ps() / gaps);
        if meets_slo(first.saturating_sub(spec.arrival), mean_tbt) {
            met += 1;
        }
    }
    (completed, met)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, checks: &mut Checks, tracer: &mut Tracer) -> Outcome {
    let (inputs, setup_s) = setup_median(3, || setup(cfg.seed));
    let timed = timed(cfg.seconds, checks, || simulate(&inputs));
    let out = &timed.output.0;
    let report = &out.report;
    let offered = inputs.trace.len();
    let degraded = report.degraded.as_ref();
    let drops = degraded.map_or(0, |d| d.drops);
    let shed = degraded.map_or(0, |d| d.shed);
    checks.check(report.completed + report.rejected + drops + shed == offered, || {
        "completed + rejected + dropped + shed != offered".to_string()
    });
    checks.check(out.log.pool_peak_tokens <= out.log.pool_capacity_tokens, || {
        "pool peak exceeded its capacity".to_string()
    });
    checks.check(degraded.is_some_and(|d| d.crashes > 0), || "no group crashed".to_string());
    checks.check(degraded.is_some_and(|d| d.pool_rescued > 0), || "no pool rescue".to_string());
    checks.check(report.preemptions + report.swaps > 0, || "no preemption or swap".to_string());
    checks.check(out.log.handoffs > 0, || "no handoff".to_string());

    let mut layers = Layers::default();
    let (completed, slo_met) = slo_join(&inputs.trace, out, &inputs.disagg.roles);
    checks.check(completed == report.completed, || {
        format!("joined {completed} completed requests, the report says {}", report.completed)
    });
    Simulated {
        offered,
        ttft: report.ttft,
        ttft_samples: report.completed as u64,
        tbt: report.tbt,
        tbt_samples: out.groups.iter().map(|o| o.tbt.count()).sum(),
        slo_met,
    }
    .report("split fleet", checks, &mut layers);

    if cfg.traced {
        trace_plan(tracer, &mut layers);
        let start = Clock::start();
        let traced = tracer
            .span("cluster", "cluster.simulate_fleet_disagg", "1 thread", |_| simulate(&inputs));
        crate::set_overhead(&mut layers, start.secs(), timed.wall_s());
        checks.check(traced == timed.output, || "traced iteration differs".to_string());

        let start = Clock::start();
        let rebuilt = tracer.span("cluster", "cluster.report_build", "split fleet", |_| {
            FleetReport::from_outcomes_disagg(
                inputs.qps,
                &out.groups,
                &inputs.disagg.roles,
                &out.log,
                Some(&out.faults),
                inputs.options.serve.slo,
            )
        });
        layers.set(
            "cluster.report_build_ms",
            start.secs() * 1e3,
            "FleetReport::from_outcomes_disagg",
        );
        checks.check(&rebuilt == report, || "rebuilt fleet report differs".to_string());

        let stats = total_stats(out.groups.iter().map(|o| &o.stats));
        layers.set("serving.heap_events_per_token", stats.heap_events_per_token(), "all groups");
        layers.set(
            "serving.ns_per_token",
            timed.wall_s() * 1e9 / stats.tokens as f64,
            format!("fleet wall / n={} tokens", stats.tokens),
        );
        layers.set("serving.admissions", stats.admissions as f64, "all groups");
        layers.set("serving.preemptions", report.preemptions as f64, "all groups");
        layers.set("serving.swaps", report.swaps as f64, "all groups");
        layers.set("cluster.handoffs", out.log.handoffs as f64, "");
        layers.set("cluster.steals", out.log.steals as f64, "");
        layers.set("cluster.deferred_publishes", out.log.deferred as f64, "");
        if let Some(d) = degraded {
            layers.set("cluster.retries", d.retries as f64, format!("{} crashes", d.crashes));
            layers.set("cluster.drops", d.drops as f64, "");
            layers.set(
                "cluster.shed_share",
                d.shed as f64 / offered as f64,
                format!("of {offered} offered"),
            );
            let rescued = d.pool_rescued as f64;
            layers.set(
                "cxl.pool_rescue_share",
                rescued / (rescued + d.pool_lost as f64),
                format!("{} rescued, {} lost", d.pool_rescued, d.pool_lost),
            );
        }
        layers.set(
            "cxl.pool_peak_fraction",
            out.log.pool_peak_tokens as f64 / out.log.pool_capacity_tokens as f64,
            format!("of {} tokens", out.log.pool_capacity_tokens),
        );
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
