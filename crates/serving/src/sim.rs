//! The discrete-event serving loop: arrivals → queue → continuous batching
//! → replica decision events, costed by the steady-state block simulation.
//!
//! `cent_sim::evaluate` is the cost oracle: it gives the per-query token
//! cadence (`token_latency`), the pipeline's prefill token rate and the
//! mapping (slots, replicas, KV capacity). The event loop then serves an
//! arbitrary request trace against those constants, tracking KV occupancy
//! token by token so preemption can interleave with decode. Four modelling
//! assumptions, all matching §5 of the paper: a query holds one pipeline
//! slot from admission to last token (prefill streams through the same
//! stage it will decode in); each replica has a single prefill front-end,
//! so concurrent admissions prefill in series at the replica's prefill
//! rate; the decode cadence is constant at the steady-state stage interval
//! — CENT's pipeline emits tokens at the block step rate regardless of how
//! many slots are filled, so partial occupancy changes throughput, not
//! per-query latency; and token emission aligns to the pipeline's
//! *block-step grid* — the pipeline executes block steps back to back, so
//! a query's first token emerges at the first step boundary after its
//! prefill completes, and every later token one step apart.
//!
//! The grid alignment is what makes the fast engine fast. Between
//! external events (arrivals, completions, pool exhaustion) decode on the
//! fixed cadence is fully deterministic, so the *span-fast-forward* engine
//! ([`TickEngine::SpanFastForward`], the default) solves each replica's
//! next decision instant in closed form and emits all intervening tokens
//! as batched spans: heap traffic is `O(arrivals + completions +
//! preemptions)`, independent of how many ticks the spans cover. Resident
//! state is split hot and cold. Each replica keeps its residents, in
//! admission order, as one contiguous array of 24-byte hot records (next
//! token instant, final token instant, lease), and every per-event walk —
//! the fast-forward, the wake's due filter and the decision solve — reads
//! only that array. On the grid a resident's progress is a function of its
//! next token instant, so the cold [`QueuedRequest`] waits untouched in a
//! lease-indexed slab and is *settled* (progress, first and last token,
//! the resume gap and the token and TBT counts) only when the resident
//! leaves: at completion, eviction or crash. The straight-line loop with
//! one heap entry per generated token is retained as
//! [`TickEngine::PerTokenReference`], the differential oracle: both engines
//! produce bit-identical [`ServingReport`]s (enforced by differential
//! tests), and [`ServingSystem::serve_trace_instrumented`] exposes
//! [`SimStats`] so the `sim_perf` bench can chart the gap.
//!
//! The span engine's state lives in [`GroupSim`], a *resumable* form of
//! the event loop: arrivals can be injected incrementally
//! ([`GroupSim::push_arrival`]) and the simulation advanced through
//! bounded windows ([`GroupSim::advance_to`]), which is what lets
//! `cent-cluster` drive many independent replica groups through shared
//! time epochs across worker threads. Batch serving
//! ([`ServingSystem::serve_trace_with`]) runs on the very same code path,
//! so the differential tests cover the incremental engine too.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use cent_compiler::Strategy;
use cent_cost::KvSwapCost;
use cent_model::ModelConfig;
use cent_sim::{evaluate, CentPerformance};
use cent_types::{ByteSize, CentResult, Time, TimeHistogram};

use crate::policy::{Fifo, PolicyContext, SchedulingPolicy};
use crate::queue::{
    PriorityClass, QueuedRequest, RequestId, RequestRecord, RequestSpec, SwapState,
};
use crate::report::{RunTotals, ServingReport, StepIntegral};
use crate::scheduler::{
    Admission, ContinuousBatchScheduler, KvBudget, KvMode, LeaseId, Preemption, SchedulerConfig,
};
use crate::workload::Workload;

/// Which event core advances resident queries through decode.
///
/// Both engines implement the same serving semantics and produce
/// bit-identical [`ServingReport`]s for identical traces and options; they
/// differ only in how much work the simulation itself pays per simulated
/// token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TickEngine {
    /// The straight-line loop: one heap entry per generated token,
    /// residents in an id-keyed map. Retained as the differential
    /// reference and the `sim_perf` baseline.
    PerTokenReference,
    /// Span fast-forward: between external events the decode cadence is
    /// fully deterministic, so each replica's next *decision instant*
    /// (earliest completion, KV-exhaustion forecast) is solved in closed
    /// form and every intervening token is emitted as one batched span —
    /// heap traffic scales with external events (arrivals, completions,
    /// preemptions), not generated tokens. The default.
    #[default]
    SpanFastForward,
}

impl TickEngine {
    /// Short name used in bench tables and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            TickEngine::PerTokenReference => "reference",
            TickEngine::SpanFastForward => "span",
        }
    }

    /// Both engines, for differential tests and bench sweeps.
    pub const ALL: [TickEngine; 2] = [TickEngine::PerTokenReference, TickEngine::SpanFastForward];
}

/// What happens to a KV-pressure eviction victim.
///
/// Only meaningful under [`KvMode::TokenGranular`] — full reservation never
/// evicts. The spill decision is per victim: swap is additionally gated on
/// host-pool headroom ([`KvSpillConfig::host_pool_tokens`]) and falls back
/// to recompute when the pool is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvSpillMode {
    /// Every victim is requeued for vLLM-style recompute (the pre-swap
    /// behaviour, and the default).
    #[default]
    RecomputeOnly,
    /// Every victim that fits the host pool swaps its KV pages to CXL host
    /// memory; it pages them back before decode resumes.
    SwapOnly,
    /// Per-victim comparator: swap when the CXL round trip is strictly
    /// cheaper than re-prefilling the same tokens, recompute otherwise.
    CostDriven,
}

impl KvSpillMode {
    /// Short name used in sweep tables and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            KvSpillMode::RecomputeOnly => "recompute",
            KvSpillMode::SwapOnly => "swap",
            KvSpillMode::CostDriven => "cost",
        }
    }

    /// All three modes, for sweeps and differential tests.
    pub const ALL: [KvSpillMode; 3] =
        [KvSpillMode::RecomputeOnly, KvSpillMode::SwapOnly, KvSpillMode::CostDriven];
}

/// The spill tier configuration: mode, bounded CXL host-pool capacity and
/// the transfer-cost model.
///
/// The default disables the swap tier entirely ([`KvSpillMode::RecomputeOnly`]
/// with a zero-token pool); the cost model is then never consulted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvSpillConfig {
    /// Victim disposition policy.
    pub mode: KvSpillMode,
    /// CXL host-memory pool capacity in KV tokens, shared by all replicas.
    /// Swap-outs that would exceed it fall back to recompute.
    pub host_pool_tokens: u64,
    /// Tokens-to-transfer-time model for the host link
    /// ([`KvSwapCost`], built from the CXL fabric constants — see
    /// [`ServingSystem::swap_cost`]).
    pub swap_cost: KvSwapCost,
}

impl Default for KvSpillConfig {
    fn default() -> Self {
        KvSpillConfig {
            mode: KvSpillMode::RecomputeOnly,
            host_pool_tokens: 0,
            swap_cost: KvSwapCost::cent(ByteSize::ZERO),
        }
    }
}

impl KvSpillConfig {
    /// Swap every victim that fits a `host_pool_tokens` CXL pool.
    pub fn swap_only(host_pool_tokens: u64, swap_cost: KvSwapCost) -> Self {
        KvSpillConfig { mode: KvSpillMode::SwapOnly, host_pool_tokens, swap_cost }
    }

    /// Pick the cheaper of swap and recompute per victim.
    pub fn cost_driven(host_pool_tokens: u64, swap_cost: KvSwapCost) -> Self {
        KvSpillConfig { mode: KvSpillMode::CostDriven, host_pool_tokens, swap_cost }
    }

    /// The same configuration under a different mode (sweeps hold the pool
    /// and cost model fixed while varying the policy).
    pub fn with_mode(self, mode: KvSpillMode) -> Self {
        KvSpillConfig { mode, ..self }
    }
}

/// Per-run serving knobs: KV accounting, spill tier, admission order, SLO
/// target and event core.
///
/// The default is the conservative regime — full reservation under FIFO
/// with no SLO on the span-fast-forward engine, recompute-only spill; sweeps
/// opt into token-granular accounting, the CXL swap tier and alternative
/// policies through [`ServingSystem::run_with`]. Options are `Clone`, so
/// sweeps build them once and reuse them across operating points.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// KV accounting mode (full reservation or token-granular growth).
    pub kv: KvMode,
    /// Eviction-victim disposition (recompute vs swap-to-CXL).
    pub spill: KvSpillConfig,
    /// Admission-ordering policy.
    pub policy: Box<dyn SchedulingPolicy>,
    /// Optional end-to-end latency SLO; when set, the report's goodput
    /// counts only queries finishing within `arrival + slo`.
    pub slo: Option<Time>,
    /// Event core driving token progress.
    pub engine: TickEngine,
    /// Chunked-prefill granularity in prompt tokens. `None` (the default)
    /// runs each prompt through the replica's prefill front-end in one
    /// contiguous pass. `Some(chunk)` splits it into `ceil(context /
    /// chunk)` chunks interleaved with resident decode at a 50% duty
    /// cycle: the front-end gains a second interleave lane, so a short
    /// prompt arriving behind a long one starts immediately on the other
    /// lane (the TTFT win), while a lone long prompt finishes later by
    /// one chunk-time per gap (the honest chunking cost). Prefill-role
    /// groups of a disaggregated fleet run chunked so long prompts cannot
    /// monopolize the front-end under tight TBT SLOs.
    pub prefill_chunk: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            kv: KvMode::FullReservation,
            spill: KvSpillConfig::default(),
            policy: Box::new(Fifo),
            slo: None,
            engine: TickEngine::default(),
            prefill_chunk: None,
        }
    }
}

impl ServeOptions {
    /// Token-granular KV accounting (default watermark) under FIFO.
    pub fn token_granular() -> Self {
        ServeOptions { kv: KvMode::token_granular(), ..Default::default() }
    }

    /// Replaces the admission policy.
    pub fn with_policy(mut self, policy: Box<dyn SchedulingPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the latency SLO used for goodput accounting.
    pub fn with_slo(mut self, slo: Time) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Selects the event core (default: [`TickEngine::SpanFastForward`]).
    pub fn with_engine(mut self, engine: TickEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Configures the KV spill tier (swap-to-CXL vs recompute).
    pub fn with_spill(mut self, spill: KvSpillConfig) -> Self {
        self.spill = spill;
        self
    }

    /// Enables chunked prefill with the given chunk size in tokens.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_prefill_chunk(mut self, chunk: u64) -> Self {
        assert!(chunk > 0, "prefill chunk must be positive");
        self.prefill_chunk = Some(chunk);
        self
    }
}

/// Event-core counters from one simulated run, for perf tracking.
///
/// The serving *semantics* are identical across engines; these measure the
/// simulator's own work, and `sim_perf` charts them as the repo's perf
/// trajectory artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Heap entries pushed (arrivals plus per-token events or replica
    /// wakes).
    pub heap_pushes: u64,
    /// Heap entries popped, stale entries included.
    pub heap_pops: u64,
    /// Solved per-replica decision instants that fired (span engine);
    /// zero on the per-token reference engine.
    pub tick_events: u64,
    /// Generated (decode) tokens driven through the event core.
    pub tokens: u64,
    /// Admissions performed (re-admissions after preemption included).
    pub admissions: u64,
}

impl SimStats {
    /// Heap events (pushes + pops) per generated token — the hot-path
    /// metric the span engine exists to shrink.
    pub fn heap_events_per_token(&self) -> f64 {
        if self.tokens == 0 {
            return 0.0;
        }
        (self.heap_pushes + self.heap_pops) as f64 / self.tokens as f64
    }
}

/// Sums the counters of several runs (e.g. the groups of a fleet).
impl std::ops::AddAssign for SimStats {
    fn add_assign(&mut self, other: SimStats) {
        self.heap_pushes += other.heap_pushes;
        self.heap_pops += other.heap_pops;
        self.tick_events += other.tick_events;
        self.tokens += other.tokens;
        self.admissions += other.admissions;
    }
}

/// A deployment ready to serve request traces.
///
/// Construction runs the (comparatively expensive) block-level simulation
/// once; [`ServingSystem::run`] is then cheap, so load sweeps reuse one
/// system across all offered-load points (and, being `Sync`, across
/// threads).
#[derive(Debug, Clone)]
pub struct ServingSystem {
    cfg: ModelConfig,
    scheduler_cfg: SchedulerConfig,
    /// Interval between a resident query's tokens (pipeline round trip).
    token_interval: Time,
    /// Prefill token rate of one replica, tokens/second.
    prefill_rate: f64,
    /// Steady-state system decode throughput from the oracle.
    steady_state_tokens_per_s: f64,
}

impl ServingSystem {
    /// Plans a deployment and derives its serving constants from the
    /// steady-state simulation.
    ///
    /// # Errors
    ///
    /// Propagates mapping and simulation errors from [`evaluate`].
    pub fn plan(
        cfg: &ModelConfig,
        devices: usize,
        strategy: Strategy,
        context: usize,
    ) -> CentResult<Self> {
        let perf = evaluate(cfg, devices, strategy, context)?;
        Ok(Self::from_performance(cfg, &perf))
    }

    /// Builds the system from an existing [`CentPerformance`] evaluation.
    pub fn from_performance(cfg: &ModelConfig, perf: &CentPerformance) -> Self {
        let replicas = perf.mapping.replicas.max(1);
        let slots = perf.mapping.batch.max(1);
        ServingSystem {
            cfg: cfg.clone(),
            scheduler_cfg: SchedulerConfig {
                replicas,
                slots_per_replica: slots,
                kv_budget: KvBudget::from_mapping(cfg, &perf.mapping),
                kv: KvMode::FullReservation,
            },
            token_interval: perf.token_latency,
            prefill_rate: perf.prefill_tokens_per_s / replicas as f64,
            steady_state_tokens_per_s: perf.decode_tokens_per_s,
        }
    }

    /// Builds a system directly from serving constants (tests, what-ifs).
    pub fn from_parts(
        cfg: &ModelConfig,
        scheduler_cfg: SchedulerConfig,
        token_interval: Time,
        prefill_rate: f64,
        steady_state_tokens_per_s: f64,
    ) -> Self {
        ServingSystem {
            cfg: cfg.clone(),
            scheduler_cfg,
            token_interval,
            prefill_rate,
            steady_state_tokens_per_s,
        }
    }

    /// Overrides the per-replica KV budget (what-if capacity studies).
    pub fn with_kv_budget(mut self, budget: KvBudget) -> Self {
        self.scheduler_cfg.kv_budget = budget;
        self
    }

    /// A uniformly slowed copy of this system: token interval stretched by
    /// `factor`, prefill and steady-state rates divided by it. Models a
    /// straggler group (thermal throttling, a flaky device retrying) whose
    /// capacity is degraded but whose shape is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` — a straggler only slows down.
    pub fn slowed(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "straggler slowdown must be >= 1.0");
        let mut sys = self.clone();
        let interval_ps = (self.token_interval.as_ps() as f64 * factor).round() as u64;
        sys.token_interval = Time::from_ps(interval_ps.max(1));
        sys.prefill_rate = self.prefill_rate / factor;
        sys.steady_state_tokens_per_s = self.steady_state_tokens_per_s / factor;
        sys
    }

    /// The steady-state decode throughput of the deployment, tokens/s.
    pub fn steady_state_tokens_per_s(&self) -> f64 {
        self.steady_state_tokens_per_s
    }

    /// Decode slots across all replicas.
    pub fn total_slots(&self) -> usize {
        self.scheduler_cfg.replicas * self.scheduler_cfg.slots_per_replica
    }

    /// Independent pipeline replicas in the deployment.
    pub fn replicas(&self) -> usize {
        self.scheduler_cfg.replicas
    }

    /// Decode slots on one replica.
    pub fn slots_per_replica(&self) -> usize {
        self.scheduler_cfg.slots_per_replica
    }

    /// Per-replica KV budget in tokens.
    pub fn kv_budget_tokens(&self) -> u64 {
        self.scheduler_cfg.kv_budget.tokens
    }

    /// Prefill token rate of one replica, tokens/second — the recompute
    /// side of the spill-cost comparator.
    pub fn prefill_tokens_per_s(&self) -> f64 {
        self.prefill_rate
    }

    /// The swap-cost model of this deployment: one KV token's bytes across
    /// every block the replica serves
    /// ([`ModelConfig::kv_bytes_per_query`] of one token) moved over the
    /// paper's CXL host link. Feed it to [`KvSpillConfig::swap_only`] /
    /// [`KvSpillConfig::cost_driven`].
    pub fn swap_cost(&self) -> KvSwapCost {
        KvSwapCost::cent(self.cfg.kv_bytes_per_query(1))
    }

    /// Maximum offered load the deployment can sustain for a given request
    /// shape, in queries/second: the tighter of the decode-side rate
    /// (steady-state tokens/s over generated tokens) and the prefill-side
    /// rate (aggregate prefill tokens/s over prompt tokens). Short-decode /
    /// long-prompt mixes are prefill-bound; the paper's chatbot mix is
    /// decode-bound.
    pub fn capacity_qps(
        &self,
        prompt_tokens_per_query: usize,
        decode_tokens_per_query: usize,
    ) -> f64 {
        let decode_side = self.steady_state_tokens_per_s / decode_tokens_per_query.max(1) as f64;
        let prefill_side = self.prefill_rate * self.scheduler_cfg.replicas as f64
            / prompt_tokens_per_query.max(1) as f64;
        decode_side.min(prefill_side)
    }

    /// Serves every request the workload generates in `[0, horizon)` and
    /// drains the system, returning the SLO report. Uses the default
    /// [`ServeOptions`] (full reservation, FIFO).
    pub fn run(&self, workload: &Workload, horizon: Time) -> ServingReport {
        self.run_with(workload, horizon, ServeOptions::default())
    }

    /// Serves the workload under explicit [`ServeOptions`].
    pub fn run_with(
        &self,
        workload: &Workload,
        horizon: Time,
        options: ServeOptions,
    ) -> ServingReport {
        let trace = workload.generate(horizon, self.cfg.max_context);
        self.serve_trace_with(&trace, workload.arrivals.mean_qps(), options)
    }

    /// Serves an explicit request trace (must be sorted by arrival time)
    /// under the default options.
    pub fn serve_trace(&self, trace: &[RequestSpec], offered_qps: f64) -> ServingReport {
        self.serve_trace_with(trace, offered_qps, ServeOptions::default())
    }

    /// Serves an explicit request trace under explicit [`ServeOptions`].
    ///
    /// Identical traces and options always produce identical reports —
    /// regardless of the [`TickEngine`] — because event order is total:
    /// simultaneous tokens resolve replica by replica in index order and
    /// in admission order within a replica (evictions on different
    /// replicas share the host pool, so this order matters), and
    /// preemption victims are chosen deterministically.
    pub fn serve_trace_with(
        &self,
        trace: &[RequestSpec],
        offered_qps: f64,
        options: ServeOptions,
    ) -> ServingReport {
        self.serve_trace_instrumented(trace, offered_qps, options).0
    }

    /// Serves a trace and additionally returns the event-core counters
    /// ([`SimStats`]) of the run — the instrumentation behind `sim_perf`.
    pub fn serve_trace_instrumented(
        &self,
        trace: &[RequestSpec],
        offered_qps: f64,
        options: ServeOptions,
    ) -> (ServingReport, SimStats) {
        assert!(self.token_interval > Time::ZERO, "token interval must be positive");
        match options.engine {
            TickEngine::PerTokenReference => self.run_reference(trace, offered_qps, options),
            TickEngine::SpanFastForward => self.run_span(trace, offered_qps, options),
        }
    }

    /// The retained straight-line per-token loop: one heap entry per
    /// generated token, residents in an id-keyed map. Differential
    /// reference for the span engine and the `sim_perf` baseline.
    fn run_reference(
        &self,
        trace: &[RequestSpec],
        offered_qps: f64,
        options: ServeOptions,
    ) -> (ServingReport, SimStats) {
        let interval = self.token_interval;
        let mut core = Core::new(self, options);
        let mut heap = EventHeap::with_arrivals(trace);
        let mut residents: BTreeMap<RequestId, RefResident> = BTreeMap::new();
        // Growth-victim scratch buffer, allocated once per run.
        let mut victims: Vec<Preemption> = Vec::new();
        // Token events order by (replica, admission epoch) within an
        // instant, offset past the arrival sequence range: simultaneous
        // tokens resolve replica by replica in index order and in admission
        // order within a replica — the order the span engine's decision
        // ticks walk in.
        let seq_base = trace.len() as u64;
        let token_seq = |replica: usize, epoch: u64| {
            debug_assert!(epoch < 1 << 40, "admission epoch fits the token key");
            seq_base + ((replica as u64) << 40 | epoch)
        };

        while let Some(t) = heap.next_instant() {
            core.accumulate_to(t);
            while let Some(event) = heap.pop_at(t) {
                match event {
                    Event::Arrive(spec) => core.arrive(spec),
                    Event::Token { id, epoch } => {
                        // Token events from before a preemption carry an
                        // older epoch and are discarded as stale.
                        let stale = residents.get(&id).map(|r| r.epoch != epoch).unwrap_or(true);
                        if stale {
                            continue;
                        }
                        let lease = residents.get(&id).expect("checked resident").lease;
                        let mut self_preempted = false;
                        core.scheduler.grow(lease, &mut victims);
                        for &p in &victims {
                            let v = residents.remove(&p.id).expect("victim is resident");
                            if p.id == id {
                                self_preempted = true;
                            }
                            core.preempt(v.q, v.replica);
                        }
                        if self_preempted {
                            continue;
                        }
                        let r = residents.get_mut(&id).expect("survived growth");
                        if core.emit_token(&mut r.q, t) {
                            core.scheduler.complete(lease);
                            let r = residents.remove(&id).expect("finished resident");
                            core.finish(r.q, r.replica, t);
                        } else {
                            let seq = token_seq(r.replica, epoch);
                            heap.push_seq(t + interval, seq, Event::Token { id, epoch });
                        }
                    }
                    Event::Wake { .. } => {
                        unreachable!("reference engine schedules only per-token events")
                    }
                }
            }
            if core.admission_dirty {
                core.admission_dirty = false;
                for p in core.admit(t) {
                    let id = p.q.spec.id;
                    residents.insert(
                        id,
                        RefResident { q: p.q, replica: p.replica, lease: p.lease, epoch: p.epoch },
                    );
                    let seq = token_seq(p.replica, p.epoch);
                    heap.push_seq(p.first_token, seq, Event::Token { id, epoch: p.epoch });
                }
            }
        }
        debug_assert!(residents.is_empty(), "drained loop left residents behind");
        core.into_report(trace.len(), offered_qps, &heap)
    }

    /// The span-fast-forward engine: between external events the decode
    /// cadence is fully deterministic, so each replica's next *decision
    /// instant* — the earlier of its earliest resident completion on the
    /// step grid and (under token-granular accounting) the first tick whose
    /// growth would exhaust the KV pool, as forecast from deterministic
    /// one-token-per-step occupancy growth — is solved in closed form
    /// ([`next_decision`]) and carried as one `Wake` heap entry per
    /// replica. At every event instant, every replica batch-emits all its
    /// intervening tokens in one span per resident
    /// ([`Core::fast_forward_replica`]): per-resident token counts,
    /// on-cadence TBT gaps as one per-class counter bump, and the occupancy
    /// integral as a closed-form arithmetic-series area — folded across
    /// replicas into *one* [`StepIntegral::add_area`] per event. Heap
    /// traffic is `O(arrivals + decision instants)` instead of `O(tokens)`; the
    /// decision tick itself walks due residents one token at a time, like
    /// the reference, so completions, exhaustion preemptions and spill
    /// dispositions stay bit-identical.
    fn run_span(
        &self,
        trace: &[RequestSpec],
        offered_qps: f64,
        options: ServeOptions,
    ) -> (ServingReport, SimStats) {
        // Batch serving is incremental serving with every arrival pushed up
        // front: seeding an empty heap in trace order assigns the same
        // `(at, seq)` keys as `EventHeap::with_arrivals`, so this path and
        // the cluster's epoch-resumed path are bit-identical by
        // construction.
        let mut sim = GroupSim::new(self, options);
        for spec in trace {
            sim.push_arrival(*spec);
        }
        let outcome = sim.finish(offered_qps);
        (outcome.report, outcome.stats)
    }
}

/// One replica group's span-fast-forward event loop in resumable form.
///
/// [`ServingSystem::serve_trace_with`] drives it to completion in one call;
/// the cluster simulator instead interleaves [`push_arrival`] and
/// [`advance_to`] to step many groups through bounded time epochs (possibly
/// on different worker threads — the type is `Send`), reading the O(1) load
/// probes ([`outstanding`], [`kv_reserved`]) between epochs for routing.
/// Both drivers traverse identical event sequences, so a trace served
/// incrementally produces the same [`GroupOutcome`] bit for bit as the
/// batch path — provided arrivals are pushed in trace order and never
/// behind the advanced horizon.
///
/// [`push_arrival`]: GroupSim::push_arrival
/// [`advance_to`]: GroupSim::advance_to
/// [`outstanding`]: GroupSim::outstanding
/// [`kv_reserved`]: GroupSim::kv_reserved
#[derive(Debug)]
pub struct GroupSim {
    interval: Time,
    core: Core,
    heap: EventHeap,
    slab: Slab,
    spans: Vec<ReplicaSpan>,
    /// Steady-state scratch buffers, allocated once per run.
    victims: Vec<Preemption>,
    /// Replicas whose decision fires at the current instant.
    firing: Vec<u32>,
    /// Requests pushed so far (the report's `submitted` denominator).
    submitted: usize,
    /// Horizon `advance_to` has consumed; arrivals must not land behind it.
    advanced_to: Time,
    /// Healthy swap-cost model, kept so a host-link degradation window can
    /// be applied and later lifted without drift
    /// ([`set_host_link_factor`](Self::set_host_link_factor)).
    base_swap_cost: KvSwapCost,
}

impl GroupSim {
    /// A fresh, empty group over `sys`'s serving constants.
    ///
    /// The group always runs the span-fast-forward core;
    /// `options.engine` is ignored (the per-token reference exists only as
    /// a batch-mode differential oracle).
    pub fn new(sys: &ServingSystem, options: ServeOptions) -> Self {
        assert!(sys.token_interval > Time::ZERO, "token interval must be positive");
        let replicas = sys.scheduler_cfg.replicas;
        let base_swap_cost = options.spill.swap_cost;
        GroupSim {
            interval: sys.token_interval,
            base_swap_cost,
            core: Core::new(sys, options),
            heap: EventHeap::new(),
            slab: Slab::default(),
            spans: vec![ReplicaSpan::default(); replicas],
            victims: Vec::new(),
            firing: Vec::with_capacity(replicas),
            submitted: 0,
            advanced_to: Time::ZERO,
        }
    }

    /// Injects one arriving request.
    ///
    /// Arrivals must be pushed in trace order (simultaneous arrivals
    /// resolve in push order) and must not land behind the horizon already
    /// consumed by [`advance_to`](Self::advance_to).
    pub fn push_arrival(&mut self, spec: RequestSpec) {
        assert!(
            spec.arrival >= self.advanced_to,
            "arrival at {} behind the advanced horizon {}",
            spec.arrival,
            self.advanced_to
        );
        self.submitted += 1;
        self.heap.push(spec.arrival, Event::Arrive(spec));
    }

    /// Processes every pending event strictly before `limit`, leaving the
    /// group ready for arrivals in `[limit, …)` — epochs are half-open, so
    /// an event exactly at `limit` belongs to the next window.
    pub fn advance_to(&mut self, limit: Time) {
        while let Some(t) = self.heap.next_instant() {
            if t >= limit {
                break;
            }
            self.step(t);
        }
        self.advanced_to = self.advanced_to.max(limit);
    }

    /// Requests currently in the group (waiting or resident) — the
    /// router's queue-depth load probe, maintained in O(1).
    pub fn outstanding(&self) -> u64 {
        (self.core.scheduler.in_flight() + self.core.scheduler.queue_len()) as u64
    }

    /// KV tokens currently reserved across the group's replicas — the
    /// router's memory-pressure load probe, maintained in O(1).
    pub fn kv_reserved(&self) -> u64 {
        self.core.scheduler.total_kv_reserved()
    }

    /// The per-replica KV budget in tokens — a request whose full
    /// footprint exceeds it is rejected at enqueue.
    pub fn kv_budget_tokens(&self) -> u64 {
        self.core.scheduler.kv_budget_tokens()
    }

    /// Requests pushed into the group so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Re-injects a request that lost its group to a crash, dispatching it
    /// at `at`. The spec's original `arrival` is untouched, so TTFT and
    /// latency keep running from the user-visible arrival instant; only the
    /// service restart is delayed. Counts as a fresh submission on this
    /// group (the fleet layer reports trace-level conservation separately).
    ///
    /// # Panics
    ///
    /// Panics if `at` lies behind the horizon already consumed by
    /// [`advance_to`](Self::advance_to).
    pub fn push_redispatch(&mut self, spec: RequestSpec, at: Time) {
        assert!(
            at >= self.advanced_to,
            "redispatch at {} behind the advanced horizon {}",
            at,
            self.advanced_to
        );
        debug_assert!(at >= spec.arrival, "redispatch cannot precede arrival");
        self.submitted += 1;
        self.heap.push(at, Event::Arrive(spec));
    }

    /// Injects a request handed off from a prefill group, dispatching it at
    /// `at`: its KV context sits in the shared switch-attached pool
    /// (published there at `ready`), and on first admission the group pays
    /// `transfer` — serialized on the admitting replica's swap engine and
    /// starting no earlier than `ready` — instead of prefill. The spec's
    /// `arrival` should be the original user-visible arrival so latency
    /// accounting keeps running across the handoff. Counts as a fresh
    /// submission on this group.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies behind the horizon already consumed by
    /// [`advance_to`](Self::advance_to).
    pub fn push_handoff(&mut self, spec: RequestSpec, at: Time, ready: Time, transfer: Time) {
        assert!(
            at >= self.advanced_to,
            "handoff at {} behind the advanced horizon {}",
            at,
            self.advanced_to
        );
        debug_assert!(at >= spec.arrival, "handoff cannot precede arrival");
        // A footprint the budget can never hold is rejected at enqueue and
        // never admitted, so registering a claim for it would leak.
        if spec.kv_tokens() <= self.core.scheduler.kv_budget_tokens() {
            let prev = self.core.handoffs.insert(spec.id.0, HandoffClaim { ready, transfer });
            assert!(prev.is_none(), "request {} handed off twice", spec.id.0);
        }
        self.submitted += 1;
        self.heap.push(at, Event::Arrive(spec));
    }

    /// Re-injects a request whose KV context survived the crash that
    /// orphaned it — a warm rejoin: the group retained the pages, so the
    /// request resumes decode at `at` without re-prefilling and without a
    /// transfer. Equivalent to a handoff whose context is already resident
    /// (`ready == at`, zero transfer); the spec's original `arrival` keeps
    /// the user-visible latency clock running. Counts as a fresh submission
    /// on this group.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies behind the horizon already consumed by
    /// [`advance_to`](Self::advance_to).
    pub fn push_warm(&mut self, spec: RequestSpec, at: Time) {
        self.push_handoff(spec, at, at, Time::ZERO);
    }

    /// The completion records appended since `cursor` (a count previously
    /// obtained as `cursor + returned.len()`, starting from zero). Records
    /// are in completion order while the run is live — the fleet driver
    /// polls this tail at epoch stops to detect finished prefills — and
    /// only sorted by id when the group [`finish`](Self::finish)es.
    pub fn completions_since(&self, cursor: usize) -> &[RequestRecord] {
        &self.core.records[cursor..]
    }

    /// Rescales the swap-cost model for a host-link degradation window:
    /// `factor` multiplies the healthy link bandwidth (0.25 = four times
    /// slower), shifting the `CostDriven` spill comparator toward recompute
    /// for the duration. `factor == 1.0` restores the healthy model
    /// *exactly* (no float round trip), so lifting a window leaves the
    /// group bit-identical to one that never degraded.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn set_host_link_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "host-link factor must be positive");
        self.core.spill.swap_cost = if factor == 1.0 {
            self.base_swap_cost
        } else {
            self.base_swap_cost.with_bandwidth_factor(factor)
        };
    }

    /// Tears the group down at instant `at` — a crash. Every in-flight and
    /// queued request is returned as an orphaned spec, sorted by
    /// `(arrival, id)`; their device KV (and any pages parked in the host
    /// pool) is lost, so a redispatch re-prefills from scratch while the
    /// TTFT clock keeps running from the original arrival. Completions
    /// recorded before the crash survive in the group's outcome. The group
    /// itself stays usable: it rejoins empty and cold (front-end pipelines
    /// reset) when the driver routes to it again after recovery.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies behind the horizon already consumed by
    /// [`advance_to`](Self::advance_to).
    pub fn crash(&mut self, at: Time) -> Vec<RequestSpec> {
        assert!(
            at >= self.advanced_to,
            "crash at {} behind the advanced horizon {}",
            at,
            self.advanced_to
        );
        let GroupSim { core, heap, slab, spans, .. } = self;
        // Charge occupancy up to the crash instant first, so the integrals
        // reflect the work the group really did.
        core.accumulate_to(at);
        core.window_end = at;
        let mut orphans: Vec<RequestSpec> = Vec::new();
        // In-flight residents: release their leases and reclaim the specs.
        // Their tokens still count; their progress is then discarded — the
        // KV pages died with the group.
        for span in spans.iter_mut() {
            for m in span.members.drain(..) {
                core.scheduler.complete(m.lease);
                let mut q = slab.remove(m.lease);
                core.settle(&mut q, &m);
                orphans.push(q.spec);
            }
            span.scheduled = None;
            span.dirty = false;
        }
        // Pending events: redispatched or not-yet-absorbed arrivals become
        // orphans again; wakes die with the spans that scheduled them.
        while let Some(t) = heap.next_instant() {
            while let Some(event) = heap.pop_at(t) {
                match event {
                    Event::Arrive(spec) => orphans.push(spec),
                    Event::Wake { .. } => {}
                    Event::Token { .. } => unreachable!("span engine schedules only replica wakes"),
                }
            }
        }
        // The waiting queue loses its resume state too: swapped victims'
        // pages lived in the crashed group's pool.
        for q in core.scheduler.drain_waiting() {
            orphans.push(q.spec);
        }
        core.host_pending.clear();
        core.host_used = 0;
        core.handoffs.clear();
        for free in core.prefill_free.iter_mut() {
            *free = Time::ZERO;
        }
        for free in core.prefill_free_alt.iter_mut() {
            *free = Time::ZERO;
        }
        for free in core.swap_free.iter_mut() {
            *free = Time::ZERO;
        }
        core.admission_dirty = false;
        orphans.sort_unstable_by_key(|s| (s.arrival, s.id));
        self.advanced_to = self.advanced_to.max(at);
        orphans
    }

    /// Drains every remaining event and assembles the group's outcome.
    pub fn finish(mut self, offered_qps: f64) -> GroupOutcome {
        while let Some(t) = self.heap.next_instant() {
            self.step(t);
        }
        debug_assert!(self.slab.is_empty(), "drained loop left residents behind");
        self.core.into_outcome(self.submitted, offered_qps, &self.heap)
    }

    /// One event instant of the span engine: fast-forward, drain, admit,
    /// re-solve — see [`ServingSystem::serve_trace_with`] for the
    /// semantics.
    fn step(&mut self, t: Time) {
        let interval = self.interval;
        let GroupSim { core, heap, slab, spans, victims, firing, .. } = self;
        core.accumulate_to(t);
        // Fast-forward every replica's deterministic emissions up to
        // `t` — inclusive unless the replica's own decision fires at
        // `t` (then the wake's tick walk handles the at-`t` tokens, so
        // growth can preempt and final tokens can complete). The
        // per-replica staircase areas fold into ONE integral update.
        let mut span_area: u128 = 0;
        for span in spans.iter_mut() {
            let inclusive = span.scheduled != Some(t);
            span_area += core.fast_forward_replica(&mut span.members, t, inclusive);
        }
        core.kv_integral.add_area(span_area);
        // Drain every event at this instant, collecting the replicas whose
        // decision fires. Clearing `scheduled` on the first live wake drops
        // any duplicate wake for the same replica and instant.
        firing.clear();
        while let Some(event) = heap.pop_at(t) {
            match event {
                Event::Arrive(spec) => core.arrive(spec),
                Event::Wake { replica } => {
                    let span = &mut spans[replica as usize];
                    if span.scheduled != Some(t) {
                        // Superseded by a re-solved decision: drop it.
                        continue;
                    }
                    span.scheduled = None;
                    firing.push(replica);
                }
                Event::Token { .. } => unreachable!("span engine schedules only replica wakes"),
            }
        }
        // The decision ticks, replicas in index order and residents in
        // admission order: evictions on different replicas compete for the
        // shared host pool, so the order is part of the semantics.
        firing.sort_unstable();
        for &replica in firing.iter() {
            let replica = replica as usize;
            spans[replica].dirty = true;
            core.tick_events += 1;
            // One pass over the members in admission order. Nothing joins
            // the replica before admission runs, and a walked resident's
            // next token moves past `t`, so the residents due at `t` are
            // exactly the members found with `next_at == t`. Departures
            // are removed in place; `i` stays on the next unvisited one.
            let members = &mut spans[replica].members;
            let mut i = 0;
            while i < members.len() {
                let lease = members[i].lease;
                if members[i].next_at != t {
                    i += 1;
                    continue;
                }
                // Grow the KV reservation for this token; pool exhaustion
                // preempts residents of this replica.
                let mut self_preempted = false;
                core.scheduler.grow(lease, victims);
                for &p in victims.iter() {
                    let pos = members
                        .iter()
                        .position(|m| m.lease == p.lease)
                        .expect("victim is a span member");
                    let v = members.remove(pos);
                    if pos < i {
                        i -= 1;
                    }
                    self_preempted |= p.lease == lease;
                    let mut q = slab.remove(v.lease);
                    debug_assert_eq!(q.spec.id, p.id, "slab and leases agree");
                    core.settle(&mut q, &v);
                    core.preempt(q, replica);
                }
                if self_preempted {
                    continue;
                }
                let m = &mut members[i];
                m.next_at = t + interval;
                if t == m.done_at {
                    core.scheduler.complete(lease);
                    let m = members.remove(i);
                    let mut q = slab.remove(lease);
                    core.settle(&mut q, &m);
                    core.finish(q, replica, t);
                } else {
                    i += 1;
                }
            }
        }
        if core.admission_dirty {
            core.admission_dirty = false;
            for p in core.admit(t) {
                let remaining = p.q.remaining_decode() as u64;
                debug_assert!(remaining >= 1, "finished requests are never requeued");
                let span = &mut spans[p.replica];
                span.members.push(Member {
                    next_at: p.first_token,
                    done_at: p.first_token + interval.times(remaining - 1),
                    lease: p.lease,
                });
                span.dirty = true;
                slab.insert(p.lease, p.q);
            }
        }
        // Re-solve the decision instant of every replica whose resident
        // set or reservation headroom changed at this instant.
        for (replica, span) in spans.iter_mut().enumerate() {
            if !span.dirty {
                continue;
            }
            span.dirty = false;
            match next_decision(core, &span.members, replica) {
                Some(at) if span.scheduled != Some(at) => {
                    debug_assert!(at > t, "decision must advance");
                    span.scheduled = Some(at);
                    heap.push(at, Event::Wake { replica: replica as u32 });
                }
                Some(_) => {}
                None => span.scheduled = None,
            }
        }
    }
}

/// Everything a finished group exposes: the per-group [`ServingReport`] and
/// [`SimStats`], plus the raw populations (completion records, TBT
/// histograms, per-class counters) the cluster's deterministic merge folds
/// into a fleet-wide report.
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// The group's own serving report.
    pub report: ServingReport,
    /// Event-core counters of the group's run.
    pub stats: SimStats,
    /// Completion records sorted by request id.
    pub records: Vec<RequestRecord>,
    /// The group's time-between-tokens stream: the merge of `tbt_by_class`.
    pub tbt: TimeHistogram,
    /// Per-class TBT streams (keyed by the classes seen, ascending).
    pub tbt_by_class: Vec<(PriorityClass, TimeHistogram)>,
    /// Per-class submission counts (same key order).
    pub submitted_by_class: Vec<(PriorityClass, usize)>,
}

/// Event-loop state shared by every engine: the scheduler, the occupancy
/// integrals, the serial prefill front-ends and the run counters. Keeping
/// admission, token accounting and report assembly here guarantees the
/// engines can only differ in *event mechanics*, never in semantics.
///
/// The core copies the handful of serving constants it needs out of the
/// [`ServingSystem`] instead of borrowing it, so [`GroupSim`] (which owns a
/// core) is self-contained and `Send` — fleet workers move whole groups
/// across `std::thread::scope` boundaries.
#[derive(Debug)]
struct Core {
    /// Interval between a resident query's tokens (pipeline round trip).
    token_interval: Time,
    /// Prefill token rate of one replica, tokens/second.
    prefill_rate: f64,
    /// Decode slots across all replicas.
    total_slots: usize,
    /// Independent pipeline replicas.
    replicas: usize,
    /// Steady-state system decode throughput from the oracle.
    steady_state_tokens_per_s: f64,
    scheduler: ContinuousBatchScheduler,
    /// The admissions of the current instant: one buffer, refilled by
    /// [`admit`](Self::admit) at every admission instant of the run.
    admitted: Vec<Admission>,
    records: Vec<RequestRecord>,
    /// Each replica has one prefill front-end: prompts of back-to-back
    /// admissions stream through it in series.
    prefill_free: Vec<Time>,
    /// Second interleave lane of each replica's prefill front-end, used
    /// only under chunked prefill ([`ServeOptions::prefill_chunk`]): a
    /// chunked job's gaps leave room for another prompt's chunks, modeled
    /// as two lanes each stretching its jobs to a 50% duty cycle.
    prefill_free_alt: Vec<Time>,
    /// Chunked-prefill granularity (`None` = contiguous prefill).
    prefill_chunk: Option<u64>,
    /// Each replica has one swap DMA engine on its CXL port: page-out and
    /// page-in transfers serialize on it (but not with prefill compute).
    swap_free: Vec<Time>,
    /// Pending shared-pool claims by raw request id: a request handed off
    /// from a prefill group pays a pool→device transfer instead of
    /// prefill on first admission ([`GroupSim::push_handoff`]).
    handoffs: BTreeMap<u64, HandoffClaim>,
    /// Spill-tier configuration for this run.
    spill: KvSpillConfig,
    /// KV tokens currently parked in the CXL host pool — including pages
    /// whose release is already scheduled but has not fired yet.
    host_used: u64,
    /// Scheduled pool releases `(instant, tokens)`: a victim's pages leave
    /// the pool when its page-in transfer *starts* draining them, which is
    /// never before the page-out finished — so capacity can never be
    /// handed out while the pages are still in flight.
    host_pending: BinaryHeap<Reverse<(Time, u64)>>,
    /// Largest host-pool occupancy observed.
    host_peak: u64,
    /// Occupancy integrals in exact integer units (slot·ps / token·ps), so
    /// the result is independent of how finely events subdivide time —
    /// which is what lets the span engine accumulate whole windows at once
    /// and add closed-form staircase corrections ([`StepIntegral`]).
    busy_integral: StepIntegral,
    kv_integral: StepIntegral,
    host_integral: StepIntegral,
    /// Per-class TBT accumulators indexed by the class value, `None` for a
    /// class that has not yet recorded a gap (a token after a request's
    /// first).
    /// The group TBT stream is not kept: it is the merge of the class
    /// streams, built once in [`into_outcome`](Self::into_outcome).
    tbt_by_class: Vec<Option<ClassTbt>>,
    /// Arrivals per class indexed by the class value (0 for a class that
    /// has not arrived).
    submitted_by_class: Vec<usize>,
    /// Eviction outcome counters and stall accumulators.
    recomputes: u64,
    swaps: u64,
    recompute_stall: Time,
    swap_stall: Time,
    last_t: Time,
    /// End of the utilization window: the latest arrival, token or crash
    /// instant. `last_t` can run past it on a stale heap entry.
    window_end: Time,
    /// Monotone admission counter; the reference engine's staleness epoch
    /// and its ordering key for simultaneous tokens on one replica.
    epoch: u64,
    /// Admission can only succeed after an arrival, completion or
    /// preemption; skipping it on pure token-progress instants keeps the
    /// loop linear in generated tokens.
    admission_dirty: bool,
    /// Whether the run grows reservations token by token — the span
    /// engine's exhaustion forecast and integral corrections apply only
    /// under token-granular accounting.
    granular_kv: bool,
    slo: Option<Time>,
    tokens: u64,
    tick_events: u64,
}

/// One class's time-between-tokens samples while a run is in progress.
///
/// The pipeline emits a resident's tokens one `token_interval` apart, so
/// almost every gap is that one value: those are only counted, and folded
/// into the class histogram with one `record_n` at outcome time. A gap off
/// the cadence (a resume gap after a preemption, swap or handoff) goes into
/// a histogram, which stores only the buckets such gaps occupy.
#[derive(Debug, Default, Clone, PartialEq)]
struct ClassTbt {
    /// Gaps exactly one `token_interval` long.
    on_cadence: u64,
    /// Every other gap.
    off_cadence: TimeHistogram,
}

impl ClassTbt {
    fn record(&mut self, gap: Time, interval: Time) {
        if gap == interval {
            self.on_cadence += 1;
        } else {
            self.off_cadence.record(gap);
        }
    }

    /// The class's full TBT histogram.
    fn into_histogram(self, interval: Time) -> TimeHistogram {
        let mut h = self.off_cadence;
        h.record_n(interval, self.on_cadence);
        h
    }
}

/// A pending shared-pool claim: the KV context of a handed-off request,
/// published by a prefill group and claimable once `ready`.
#[derive(Debug, Clone, Copy)]
struct HandoffClaim {
    /// Publish-completion instant — the claim transfer cannot start
    /// earlier.
    ready: Time,
    /// Pool→device transfer duration over the claiming replica's link.
    transfer: Time,
}

/// One admission placed by [`Core::admit`]: where the request landed and
/// when its first token emerges.
struct Placed {
    q: QueuedRequest,
    replica: usize,
    lease: LeaseId,
    first_token: Time,
    epoch: u64,
}

impl Core {
    fn new(sys: &ServingSystem, options: ServeOptions) -> Self {
        let cfg = SchedulerConfig { kv: options.kv, ..sys.scheduler_cfg };
        Core {
            token_interval: sys.token_interval,
            prefill_rate: sys.prefill_rate,
            total_slots: sys.total_slots(),
            replicas: sys.scheduler_cfg.replicas,
            steady_state_tokens_per_s: sys.steady_state_tokens_per_s,
            scheduler: ContinuousBatchScheduler::new(cfg).with_policy(options.policy),
            admitted: Vec::new(),
            records: Vec::new(),
            prefill_free: vec![Time::ZERO; sys.scheduler_cfg.replicas],
            prefill_free_alt: vec![Time::ZERO; sys.scheduler_cfg.replicas],
            prefill_chunk: options.prefill_chunk,
            swap_free: vec![Time::ZERO; sys.scheduler_cfg.replicas],
            handoffs: BTreeMap::new(),
            spill: options.spill,
            host_used: 0,
            host_pending: BinaryHeap::new(),
            host_peak: 0,
            busy_integral: StepIntegral::default(),
            kv_integral: StepIntegral::default(),
            host_integral: StepIntegral::default(),
            tbt_by_class: Vec::new(),
            submitted_by_class: Vec::new(),
            recomputes: 0,
            swaps: 0,
            recompute_stall: Time::ZERO,
            swap_stall: Time::ZERO,
            last_t: Time::ZERO,
            window_end: Time::ZERO,
            epoch: 0,
            admission_dirty: false,
            granular_kv: matches!(options.kv, KvMode::TokenGranular { .. }),
            slo: options.slo,
            tokens: 0,
            tick_events: 0,
        }
    }

    /// Accumulates the occupancy integrals over `[last_t, t)`.
    ///
    /// Slot and KV occupancy only change at event instants, so one segment
    /// covers them; host-pool occupancy also drops at scheduled release
    /// instants *between* events (a page-in starting to drain the pool), so
    /// its integral is piecewise over the due releases.
    fn accumulate_to(&mut self, t: Time) {
        let dt = t.saturating_sub(self.last_t).as_ps();
        self.busy_integral.advance(self.scheduler.in_flight() as u128, dt);
        self.kv_integral.advance(u128::from(self.scheduler.total_kv_reserved()), dt);
        let mut cursor = self.last_t;
        while let Some(&Reverse((at, tokens))) = self.host_pending.peek() {
            if at > t {
                break;
            }
            let at = at.max(cursor);
            self.host_integral
                .advance(u128::from(self.host_used), at.saturating_sub(cursor).as_ps());
            cursor = at;
            self.host_used =
                self.host_used.checked_sub(tokens).expect("host pool released more than it held");
            self.host_pending.pop();
        }
        self.host_integral.advance(u128::from(self.host_used), t.saturating_sub(cursor).as_ps());
        self.last_t = t;
    }

    /// Accepts an arriving request: per-class accounting plus the
    /// scheduler's feasibility check.
    fn arrive(&mut self, spec: RequestSpec) {
        self.window_end = self.last_t;
        let i = usize::from(spec.class.0);
        if i >= self.submitted_by_class.len() {
            self.submitted_by_class.resize(i + 1, 0);
        }
        self.submitted_by_class[i] += 1;
        self.scheduler.enqueue(spec);
        self.admission_dirty = true;
    }

    /// First block-step boundary strictly after `t`: the pipeline emits
    /// the first token of a query whose prefill finished at `t` at the end
    /// of the step in progress.
    fn next_step(&self, t: Time) -> Time {
        let step = self.token_interval.as_ps();
        Time::from_ps((t.as_ps() / step + 1) * step)
    }

    /// Runs admission at instant `t` and computes each admitted request's
    /// service timeline (prefill or swap-in) and first-token instant.
    /// The admissions are copied out of the reused buffer by index, since
    /// placing one also updates the rest of the core.
    fn admit(&mut self, t: Time) -> impl Iterator<Item = Placed> + '_ {
        let ctx = PolicyContext { now: t, token_interval: self.token_interval };
        self.scheduler.admit_ready(&ctx, &mut self.admitted);
        (0..self.admitted.len()).map(move |i| {
            let admission = self.admitted[i];
            let mut q = admission.req;
            if q.first_admitted.is_none() {
                q.first_admitted = Some(t);
            }
            let ready = if let Some(claim) = self.handoffs.remove(&q.spec.id.0) {
                // Shared-pool claim: the context a prefill group published
                // into the switch-attached pool streams in over this
                // replica's swap engine, no earlier than the publish
                // completed. No prefill is paid here — that happened on
                // the prefill group ([`GroupSim::push_handoff`]).
                let start = t.max(self.swap_free[admission.replica]).max(claim.ready);
                let done = start + claim.transfer;
                self.swap_free[admission.replica] = done;
                done
            } else if let Some(swap) = q.swapped.take() {
                // Swap-in: the pages stream back over the target replica's
                // swap engine, no earlier than the page-out finished. They
                // occupy the host pool until the page-in starts draining
                // them (scheduled release; the device reservation taken at
                // this admission holds their landing space).
                debug_assert_eq!(swap.tokens, q.resident_kv(), "swap pages match footprint");
                let start = t.max(self.swap_free[admission.replica]).max(swap.out_done);
                let done = start + self.spill.swap_cost.transfer_time(swap.tokens);
                self.host_pending.push(Reverse((start, swap.tokens)));
                self.swap_free[admission.replica] = done;
                self.swap_stall += done.saturating_sub(swap.evicted_at);
                done
            } else {
                // Prefill semantics: a fresh prompt — or, on the recompute
                // path, the whole context (prompt + generated so far) —
                // streams through the replica's serial prefill front-end.
                // Chunked mode stretches the job to a 50% duty cycle (one
                // idle chunk-slot after every chunk but the last, where
                // resident decode interleaves) and picks the earlier-free
                // of the front-end's two interleave lanes, so a short
                // prompt behind a long one starts in the long job's gaps.
                let context_tokens = q.spec.prompt + q.progress;
                let replica = admission.replica;
                let done = match self.prefill_chunk {
                    None => {
                        let prefill =
                            Time::from_secs_f64(context_tokens as f64 / self.prefill_rate);
                        let start = t.max(self.prefill_free[replica]);
                        let done = start + prefill;
                        self.prefill_free[replica] = done;
                        done
                    }
                    Some(chunk) => {
                        let chunk = usize::try_from(chunk).expect("prefill chunk fits usize");
                        let chunks = context_tokens.div_ceil(chunk).max(1);
                        let stretched = Time::from_secs_f64(
                            (context_tokens + (chunks - 1) * chunk) as f64 / self.prefill_rate,
                        );
                        let lane = if self.prefill_free[replica] <= self.prefill_free_alt[replica] {
                            &mut self.prefill_free[replica]
                        } else {
                            &mut self.prefill_free_alt[replica]
                        };
                        let start = t.max(*lane);
                        let done = start + stretched;
                        *lane = done;
                        done
                    }
                };
                if let Some(evicted_at) = q.evicted_at.take() {
                    self.recompute_stall += done.saturating_sub(evicted_at);
                }
                done
            };
            self.epoch += 1;
            Placed {
                q,
                replica: admission.replica,
                lease: admission.lease,
                first_token: self.next_step(ready),
                epoch: self.epoch,
            }
        })
    }

    /// Settles a departing span-engine resident: applies every token it
    /// emitted since admission — those on the grid before `m.next_at` — to
    /// its cold request, and counts them in one go. The `n - 1` gaps
    /// inside the run are on the cadence and only bump the class's counter;
    /// the resume gap before it, if any, is counted the same way when it is
    /// on the cadence and recorded otherwise. Called once per departure
    /// (completion, eviction, crash), before anything reads the request.
    fn settle(&mut self, q: &mut QueuedRequest, m: &Member) {
        let interval = self.token_interval;
        let step = interval.as_ps();
        let owed = (m.done_at.as_ps() + step - m.next_at.as_ps()) / step;
        let n = q.remaining_decode() as u64 - owed;
        if n == 0 {
            return;
        }
        self.tokens += n;
        self.window_end = self.window_end.max(m.next_at - interval);
        let gap = q.apply_token_span(m.next_at - interval.times(n), interval, n);
        // A request's very first token has no gap before it: emitted alone
        // it leaves the class's accumulator unopened, exactly as a per-token
        // walk would.
        if n > 1 || gap.is_some() {
            let class = self.class_tbt(q.spec.class);
            class.on_cadence += n - 1;
            if let Some(gap) = gap {
                class.record(gap, interval);
            }
        }
    }

    /// The TBT accumulator of `class`, created on its first use.
    fn class_tbt(&mut self, class: PriorityClass) -> &mut ClassTbt {
        let i = usize::from(class.0);
        if i >= self.tbt_by_class.len() {
            self.tbt_by_class.resize_with(i + 1, || None);
        }
        self.tbt_by_class[i].get_or_insert_with(ClassTbt::default)
    }

    /// Fast-forwards one replica's residents (`members`, in admission
    /// order) to instant `t`: every token due strictly before `t` — and,
    /// when `inclusive` (the replica has no decision of its own scheduled
    /// at `t`), exactly at `t` — is emitted as one batched span per
    /// resident, with the scheduler's reservation grown in one call. The
    /// caller's decision solver guarantees the window holds no completion
    /// and no exhaustion, so every span is uneventful by construction.
    /// Only the hot records move; [`settle`](Self::settle) books the
    /// tokens when the resident leaves.
    ///
    /// Returns the closed-form KV-integral correction area in token·ps:
    /// the integral of the replica's reservation-growth staircase *above*
    /// the base value that [`accumulate_to`](Self::accumulate_to) already
    /// charged for the window ending at `t` (each of a resident's `count`
    /// span tokens at instant `e` holds one extra token over `[e, t)`, so
    /// its area is `Σ (t − e)` — an arithmetic series).
    fn fast_forward_replica(&mut self, members: &mut [Member], t: Time, inclusive: bool) -> u128 {
        let interval = self.token_interval;
        let step = interval.as_ps();
        let mut area: u128 = 0;
        for m in members {
            if m.next_at > t || (!inclusive && m.next_at == t) {
                continue;
            }
            let d = t.as_ps() - m.next_at.as_ps();
            let count = if inclusive { d / step + 1 } else { d.div_ceil(step) };
            if self.granular_kv {
                self.scheduler.grow_n(m.lease, count);
                area += u128::from(count) * u128::from(d)
                    - u128::from(step) * (u128::from(count) * u128::from(count - 1) / 2);
            }
            m.next_at += interval.times(count);
        }
        area
    }

    /// Applies one generated token to `q` at instant `t`; returns `true`
    /// when the request just finished.
    fn emit_token(&mut self, q: &mut QueuedRequest, t: Time) -> bool {
        q.progress += 1;
        self.tokens += 1;
        self.window_end = t;
        if q.first_token.is_none() {
            q.first_token = Some(t);
        }
        if let Some(prev) = q.last_token {
            let interval = self.token_interval;
            self.class_tbt(q.spec.class).record(t.saturating_sub(prev), interval);
        }
        q.last_token = Some(t);
        q.progress >= q.spec.decode
    }

    /// Records a completion (the scheduler lease must already be released).
    fn finish(&mut self, q: QueuedRequest, replica: usize, t: Time) {
        #[cfg(test)]
        tests::log_departure(self, &q);
        self.admission_dirty = true;
        self.records.push(RequestRecord {
            spec: q.spec,
            admitted: q.first_admitted.expect("was admitted"),
            first_token: q.first_token.expect("emitted first token"),
            finished: t,
            replica,
            preemptions: q.preemptions,
        });
    }

    /// Disposes of an eviction victim from `replica`: swap its KV pages to
    /// the CXL host pool or requeue it for recompute, per the configured
    /// [`KvSpillMode`] and the per-victim cost comparator. Called at the
    /// current instant (`last_t`); the scheduler lease is already released.
    fn preempt(&mut self, mut q: QueuedRequest, replica: usize) {
        #[cfg(test)]
        tests::log_departure(self, &q);
        self.admission_dirty = true;
        q.preemptions += 1;
        let t = self.last_t;
        let tokens = q.resident_kv();
        let pool_fits = self.host_used + tokens <= self.spill.host_pool_tokens;
        let swap = match self.spill.mode {
            KvSpillMode::RecomputeOnly => false,
            KvSpillMode::SwapOnly => pool_fits,
            KvSpillMode::CostDriven => {
                pool_fits && self.spill.swap_cost.swap_is_cheaper(tokens, self.prefill_rate)
            }
        };
        if swap {
            // Page out over the victim replica's swap engine; the pages
            // occupy the host pool until the page-in starts.
            self.swaps += 1;
            self.host_used += tokens;
            self.host_peak = self.host_peak.max(self.host_used);
            debug_assert!(self.host_used <= self.spill.host_pool_tokens, "host pool overcommitted");
            let start = t.max(self.swap_free[replica]);
            let out_done = start + self.spill.swap_cost.transfer_time(tokens);
            self.swap_free[replica] = out_done;
            q.swapped = Some(SwapState { tokens, out_done, evicted_at: t });
            q.evicted_at = None;
        } else {
            self.recomputes += 1;
            q.swapped = None;
            q.evicted_at = Some(t);
        }
        self.scheduler.requeue(q);
    }

    /// Assembles the [`ServingReport`] and [`SimStats`] of the finished run.
    fn into_report(
        self,
        submitted: usize,
        offered_qps: f64,
        heap: &EventHeap,
    ) -> (ServingReport, SimStats) {
        let outcome = self.into_outcome(submitted, offered_qps, heap);
        (outcome.report, outcome.stats)
    }

    /// Assembles the full [`GroupOutcome`] of the finished run: the report
    /// and counters plus the raw populations the cluster merge consumes.
    fn into_outcome(
        mut self,
        submitted: usize,
        offered_qps: f64,
        heap: &EventHeap,
    ) -> GroupOutcome {
        // Occupancy is zero past the window's end (every token, arrival and
        // crash lies inside it), so stale heap entries popped after it
        // charge nothing and must not stretch the denominator.
        let span_ps = self.window_end.as_ps();
        let slot_utilization = self.busy_integral.fraction_of(self.total_slots as u128, span_ps);
        let kv_utilization = self.kv_integral.fraction_of(
            u128::from(self.scheduler.kv_budget_tokens()) * self.replicas as u128,
            span_ps,
        );
        let peak_kv_fraction = if self.scheduler.kv_budget_tokens() > 0 {
            self.scheduler.peak_kv_reserved() as f64 / self.scheduler.kv_budget_tokens() as f64
        } else {
            0.0
        };
        let host_kv_utilization =
            self.host_integral.fraction_of(u128::from(self.spill.host_pool_tokens), span_ps);
        // Releases scheduled past the final event fire here; their tail
        // occupancy is not charged to the utilization integral.
        while let Some(Reverse((_, tokens))) = self.host_pending.pop() {
            self.host_used =
                self.host_used.checked_sub(tokens).expect("host pool released more than it held");
        }
        debug_assert_eq!(self.host_used, 0, "drained run left pages in the host pool");
        debug_assert!(self.handoffs.is_empty(), "drained run left unclaimed handoffs");
        debug_assert_eq!(
            self.recomputes + self.swaps,
            self.scheduler.preemptions(),
            "eviction dispositions account for every scheduler eviction"
        );
        self.records.sort_by_key(|r| r.spec.id);
        self.records.shrink_to_fit();
        let stats = SimStats {
            heap_pushes: heap.pushes,
            heap_pops: heap.pops,
            tick_events: self.tick_events,
            tokens: self.tokens,
            admissions: self.scheduler.admissions(),
        };
        // Every gap belongs to exactly one class, and merging adds counts
        // and sums and takes min/max, so the merge of the class histograms
        // is exactly the group's TBT stream.
        let interval = self.token_interval;
        let mut tbt = TimeHistogram::new();
        let mut tbt_by_class = Vec::with_capacity(self.tbt_by_class.iter().flatten().count());
        for (class, acc) in (0..=u8::MAX).zip(self.tbt_by_class) {
            if let Some(acc) = acc {
                let h = acc.into_histogram(interval);
                tbt.merge(&h);
                tbt_by_class.push((PriorityClass(class), h));
            }
        }
        let submitted_by_class: Vec<(PriorityClass, usize)> = (0..=u8::MAX)
            .zip(self.submitted_by_class)
            .filter(|&(_, n)| n > 0)
            .map(|(class, n)| (PriorityClass(class), n))
            .collect();
        let report = ServingReport::from_records(
            &self.records,
            RunTotals {
                offered_qps,
                submitted,
                rejected: self.scheduler.rejected().len(),
                steady_state_tokens_per_s: self.steady_state_tokens_per_s,
                slot_utilization,
                peak_kv_fraction,
                kv_utilization,
                peak_queue_depth: self.scheduler.peak_queue_depth(),
                preemptions: self.recomputes,
                swaps: self.swaps,
                recompute_stall: self.recompute_stall,
                swap_stall: self.swap_stall,
                host_pool_tokens: self.spill.host_pool_tokens,
                host_kv_peak_tokens: self.host_peak,
                host_kv_utilization,
                tbt: &tbt,
                submitted_by_class: &submitted_by_class,
                tbt_by_class: &tbt_by_class,
                slo: self.slo,
            },
        );
        GroupOutcome { report, stats, records: self.records, tbt, tbt_by_class, submitted_by_class }
    }
}

/// The hot record of a resident in the span engine: what the per-event
/// walks read. Tokens land one step apart from `next_at` through
/// `done_at`, so the resident's progress is implied by `next_at`; its cold
/// [`QueuedRequest`] is brought up to date only when it leaves
/// ([`Core::settle`]).
#[derive(Debug, Clone, Copy)]
struct Member {
    /// Instant of the resident's next token.
    next_at: Time,
    /// Instant of its final token, fixed at admission.
    done_at: Time,
    /// Scheduler lease; also the resident's index in the cold [`Slab`].
    lease: LeaseId,
}

/// Loop-side state of a resident in the per-token reference engine.
#[derive(Debug, Clone, Copy)]
struct RefResident {
    q: QueuedRequest,
    replica: usize,
    lease: LeaseId,
    /// Admission epoch; token events from before a preemption carry an
    /// older epoch and are discarded as stale.
    epoch: u64,
}

/// Cold resident state of the span engine: each resident's request as it
/// stood at admission, indexed by its scheduler lease (the scheduler keeps
/// leases dense and recycles them only after release).
#[derive(Debug, Default)]
struct Slab {
    slots: Vec<Option<QueuedRequest>>,
}

impl Slab {
    fn insert(&mut self, lease: LeaseId, q: QueuedRequest) {
        let i = lease.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        debug_assert!(self.slots[i].is_none(), "reusing a live slot");
        self.slots[i] = Some(q);
    }

    fn remove(&mut self, lease: LeaseId) -> QueuedRequest {
        self.slots[lease.index()].take().expect("removing an empty slot")
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

/// Per-replica state of the span engine: the residents' hot records in
/// admission order plus the fire instant of the replica's live `Wake`
/// heap entry.
#[derive(Debug, Clone, Default)]
struct ReplicaSpan {
    /// Residents in admission order (the order simultaneous token events
    /// on one replica resolve in).
    members: Vec<Member>,
    /// Fire instant of this replica's live `Wake` entry, if any. A popped
    /// wake whose instant does not match was superseded by a re-solved
    /// decision and is dropped, so stale entries retire without heap
    /// surgery.
    scheduled: Option<Time>,
    /// Whether the resident set or the reservation headroom changed at
    /// the current instant, so the decision must be re-solved.
    dirty: bool,
}

/// Solves one replica's next *decision instant* in closed form: the
/// earliest instant at which something other than plain on-cadence token
/// emission happens. That is the minimum of
///
/// * the earliest resident completion on the step grid (`done_at`), and
/// * under token-granular accounting, the first tick whose deterministic
///   growth — every resident reserves one more token per step from its
///   `next_at` onward — would exceed the replica's KV headroom and so
///   preempt ([`ContinuousBatchScheduler::kv_headroom`]).
///
/// Arrivals and swap-engine drains need no solving here: arrivals are heap
/// events of their own, and swap/prefill timelines only matter at
/// admission instants, which only follow arrivals, completions and
/// preemptions. Returns `None` for an empty replica.
///
/// The exhaustion instant is found by bisecting the cumulative-emission
/// step function `C(s) = Σᵢ ⌊(s − next_atᵢ)/interval⌋ + 1` (over residents
/// with `next_atᵢ ≤ s`), which is monotone, so the minimal `s` with
/// `C(s) > headroom` is exact — and it is only bisected at all when
/// `C(earliest completion) > headroom` says the pool dies first.
fn next_decision(core: &Core, members: &[Member], replica: usize) -> Option<Time> {
    let step = core.token_interval.as_ps();
    let completion = members.iter().map(|m| m.done_at.as_ps()).min()?;
    if core.granular_kv {
        let headroom = core.scheduler.kv_headroom(replica);
        let count = |s: u64| -> u64 {
            members
                .iter()
                .map(|m| {
                    let at = m.next_at.as_ps();
                    if at <= s {
                        (s - at) / step + 1
                    } else {
                        0
                    }
                })
                .sum()
        };
        if count(completion) > headroom {
            let earliest = members.iter().map(|m| m.next_at.as_ps()).min().expect("non-empty");
            let (mut lo, mut hi) = (earliest, completion);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if count(mid) > headroom {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            return Some(Time::from_ps(lo));
        }
    }
    Some(Time::from_ps(completion))
}

/// A scheduled event. Ordering (and equality) is by `(at, seq)` only — the
/// payload never drives the heap — and `seq` is unique per entry, so the
/// order is total and deterministic.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: Time,
    seq: u64,
    event: Event,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrive(RequestSpec),
    /// One token of one resident (reference engine only).
    Token {
        id: RequestId,
        epoch: u64,
    },
    /// One firing of a replica's solved decision instant (span engine
    /// only): the earliest completion or KV-exhaustion tick; every token
    /// before it was batch-emitted by the fast-forward pass.
    Wake {
        replica: u32,
    },
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The event heap plus push/pop counters: arrivals are seeded with the
/// trace order sequence numbers, so simultaneous arrivals resolve in trace
/// order ahead of any token event.
#[derive(Debug)]
struct EventHeap {
    heap: BinaryHeap<Reverse<HeapEntry>>,
    next_seq: u64,
    pushes: u64,
    pops: u64,
}

impl EventHeap {
    /// An empty heap; pushing arrivals one by one in trace order assigns
    /// the same `(at, seq)` keys [`with_arrivals`](Self::with_arrivals)
    /// would.
    fn new() -> Self {
        EventHeap { heap: BinaryHeap::new(), next_seq: 0, pushes: 0, pops: 0 }
    }

    fn with_arrivals(trace: &[RequestSpec]) -> Self {
        let mut heap = BinaryHeap::with_capacity(trace.len() + 64);
        for (i, spec) in trace.iter().enumerate() {
            heap.push(Reverse(HeapEntry {
                at: spec.arrival,
                seq: i as u64,
                event: Event::Arrive(*spec),
            }));
        }
        EventHeap { heap, next_seq: trace.len() as u64, pushes: trace.len() as u64, pops: 0 }
    }

    fn push(&mut self, at: Time, event: Event) {
        self.heap.push(Reverse(HeapEntry { at, seq: self.next_seq, event }));
        self.next_seq += 1;
        self.pushes += 1;
    }

    /// Pushes with an explicit sequence key. The reference engine keys
    /// token events by admission epoch so simultaneous tokens resolve in
    /// admission order; a resident has at most one pending event, so
    /// `(at, seq)` stays unique.
    fn push_seq(&mut self, at: Time, seq: u64, event: Event) {
        self.heap.push(Reverse(HeapEntry { at, seq, event }));
        self.pushes += 1;
    }

    /// Instant of the earliest pending event.
    fn next_instant(&self) -> Option<Time> {
        self.heap.peek().map(|&Reverse(HeapEntry { at, .. })| at)
    }

    /// Pops the earliest event if it is scheduled exactly at `t`.
    fn pop_at(&mut self, t: Time) -> Option<Event> {
        match self.heap.peek() {
            Some(Reverse(entry)) if entry.at == t => {
                self.pops += 1;
                Some(self.heap.pop().expect("peeked").0.event)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::RequestId;
    use crate::workload::{ArrivalProcess, ClassMix, LengthSampler};
    use std::cell::RefCell;

    thread_local! {
        /// Every request leaving a replica (completion or eviction) as the
        /// core books it, with its class's TBT counters at that moment.
        static DEPARTURES: RefCell<Vec<(QueuedRequest, Option<ClassTbt>)>> =
            const { RefCell::new(Vec::new()) };
    }

    pub(super) fn log_departure(core: &Core, q: &QueuedRequest) {
        let tbt = core.tbt_by_class.get(usize::from(q.spec.class.0)).cloned().flatten();
        DEPARTURES.with_borrow_mut(|log| log.push((*q, tbt)));
    }

    /// A hand-built system: 1 replica × 4 slots, 1 ms per token, 1000-token/s
    /// prefill, KV for 4000 tokens. Uses a 4K-context config so test shapes
    /// are not clamped by the context window (`from_parts` never simulates,
    /// so the model size is free).
    fn tiny_system() -> ServingSystem {
        ServingSystem::from_parts(
            &ModelConfig::llama2_7b(),
            SchedulerConfig {
                replicas: 1,
                slots_per_replica: 4,
                kv_budget: KvBudget::tokens(4000),
                kv: KvMode::FullReservation,
            },
            Time::from_us(1000),
            1000.0,
            4000.0,
        )
    }

    fn poisson(rate: f64, seed: u64, prompt: usize, decode: usize) -> Workload {
        Workload {
            arrivals: ArrivalProcess::Poisson { rate_qps: rate },
            lengths: LengthSampler::Fixed { prompt, decode },
            seed,
            classes: ClassMix::default(),
        }
    }

    #[test]
    fn empty_workload_yields_idle_report() {
        let sys = tiny_system();
        let report = sys.serve_trace(&[], 0.0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.tokens_per_s, 0.0);
        assert_eq!(report.slot_utilization, 0.0);
        assert_eq!(report.ttft.p99, Time::ZERO);
    }

    #[test]
    fn single_request_latency_is_prefill_plus_decode() {
        let sys = tiny_system();
        let trace = [RequestSpec {
            id: RequestId(0),
            arrival: Time::from_us(500),
            prompt: 100,
            decode: 10,
            class: PriorityClass::default(),
            session: crate::queue::SessionId(0),
        }];
        let report = sys.serve_trace(&trace, 1.0);
        assert_eq!(report.completed, 1);
        // No queueing: prefill (100 tokens @ 1000/s) finishes at 100.5 ms
        // and the first token emerges at the end of the block step in
        // progress — the 101 ms grid point — so TTFT is 100.5 ms from the
        // 0.5 ms arrival.
        assert_eq!(report.queue_wait.max, Time::ZERO);
        assert_eq!(report.ttft.p50, Time::from_secs_f64(0.1005));
        // Query latency adds the remaining 9 tokens on the 1 ms cadence.
        assert_eq!(report.query_latency.p50, Time::from_secs_f64(0.1095));
        assert_eq!(report.tbt.mean, Time::from_us(1000));
        assert_eq!(report.preemptions, 0);
    }

    #[test]
    fn tokens_land_on_the_block_step_grid() {
        let sys = tiny_system();
        // Prefill offsets that are not multiples of the 1 ms step.
        for (arrival_us, prompt) in [(1u64, 1usize), (137, 33), (999, 100), (1000, 250)] {
            let trace = [RequestSpec {
                id: RequestId(0),
                arrival: Time::from_us(arrival_us),
                prompt,
                decode: 5,
                class: PriorityClass::default(),
                session: crate::queue::SessionId(0),
            }];
            let report = sys.serve_trace(&trace, 1.0);
            let first_token = report.ttft.p50 + Time::from_us(arrival_us);
            assert_eq!(
                first_token.as_ps() % Time::from_us(1000).as_ps(),
                0,
                "first token off-grid for arrival {arrival_us} us, prompt {prompt}"
            );
            // The whole decode stays one step apart.
            assert_eq!(
                report.query_latency.p50.saturating_sub(report.ttft.p50),
                Time::from_us(4000)
            );
        }
    }

    #[test]
    fn saturation_converges_to_slot_limited_throughput() {
        let sys = tiny_system();
        // 4 slots × 1 token/ms = 4000 tok/s decode capacity; shape 10+490
        // tokens → capacity ≈ 8 q/s. Offer 3× that.
        let w = poisson(25.0, 11, 10, 490);
        let report = sys.run(&w, Time::from_secs_f64(20.0));
        let fraction = report.throughput_fraction();
        assert!(
            (0.9..=1.02).contains(&fraction),
            "throughput {:.0} tok/s vs steady {:.0} ({fraction:.3})",
            report.tokens_per_s,
            report.steady_state_tokens_per_s,
        );
        assert!(report.slot_utilization > 0.9, "util {}", report.slot_utilization);
        // Latency blows up under 3× overload: queue wait dwarfs service.
        assert!(report.queue_wait.p99 > Time::from_secs_f64(1.0));
    }

    #[test]
    fn latency_knee_appears_past_saturation() {
        let sys = tiny_system();
        let light = sys.run(&poisson(8.0, 5, 10, 90), Time::from_secs_f64(20.0));
        let heavy = sys.run(&poisson(100.0, 5, 10, 90), Time::from_secs_f64(20.0));
        assert!(
            heavy.query_latency.p99.as_secs() > 5.0 * light.query_latency.p99.as_secs(),
            "light p99 {} heavy p99 {}",
            light.query_latency.p99,
            heavy.query_latency.p99,
        );
        assert!(light.queue_wait.p99 < heavy.queue_wait.p99);
    }

    #[test]
    fn kv_budget_caps_concurrency_below_slot_count() {
        // KV for only 2 resident 100-token requests despite 4 slots.
        let sys = tiny_system().with_kv_budget(KvBudget::tokens(200));
        let w = poisson(100.0, 13, 10, 90);
        let report = sys.run(&w, Time::from_secs_f64(10.0));
        // Throughput is KV-bound at half the slot-limited rate.
        assert!(report.throughput_fraction() < 0.6, "{}", report.throughput_fraction());
        assert!(report.peak_kv_fraction <= 1.0);
        assert!(report.slot_utilization < 0.6);
    }

    #[test]
    fn token_granular_mode_lifts_kv_bound_concurrency() {
        // KV-starved deployment: full reservation fits 2 resident queries
        // (2 × 100 tokens) despite 4 slots; token-granular admission packs
        // more because occupancy only reaches 100 tokens at the end of each
        // query's decode. Prefill is 20x faster than decode (the realistic
        // regime) so preemption/recompute stays cheap.
        let sys = ServingSystem::from_parts(
            &ModelConfig::llama2_7b(),
            SchedulerConfig {
                replicas: 1,
                slots_per_replica: 4,
                kv_budget: KvBudget::tokens(200),
                kv: KvMode::FullReservation,
            },
            Time::from_us(1000),
            20_000.0,
            4000.0,
        );
        let w = poisson(100.0, 13, 10, 90);
        let full = sys.run(&w, Time::from_secs_f64(10.0));
        let token = sys.run_with(&w, Time::from_secs_f64(10.0), ServeOptions::token_granular());
        assert!(
            token.slot_utilization > full.slot_utilization,
            "token {} vs full {}",
            token.slot_utilization,
            full.slot_utilization
        );
        assert!(token.tokens_per_s >= full.tokens_per_s);
        assert!(token.peak_kv_fraction <= 1.0);
        assert_eq!(token.completed, token.submitted - token.rejected);
    }

    #[test]
    fn preempted_requests_complete_and_are_counted() {
        // Budget for ~1.5 full contexts forces repeated preemption, yet
        // every admitted request must finish exactly once.
        let sys = tiny_system().with_kv_budget(KvBudget::tokens(150));
        let w = poisson(50.0, 7, 10, 90);
        let report = sys.run_with(&w, Time::from_secs_f64(5.0), ServeOptions::token_granular());
        assert!(report.preemptions > 0, "expected KV pressure to preempt");
        assert_eq!(report.completed, report.submitted - report.rejected);
        assert!(report.peak_kv_fraction <= 1.0);
    }

    #[test]
    fn swap_only_replaces_recompute_with_transfers() {
        // Slow prefill (1000 tok/s) makes recompute expensive; a roomy host
        // pool and a small per-token footprint make swaps cheap. SwapOnly
        // must divert every eviction to the CXL tier.
        let sys = tiny_system().with_kv_budget(KvBudget::tokens(150));
        let w = poisson(50.0, 7, 10, 90);
        let spill = KvSpillConfig::swap_only(10_000, KvSwapCost::cent(ByteSize::kib(4)));
        let report = sys.run_with(
            &w,
            Time::from_secs_f64(5.0),
            ServeOptions::token_granular().with_spill(spill),
        );
        assert!(report.swaps > 0, "expected KV pressure to swap");
        assert_eq!(report.preemptions, 0, "no recompute with a roomy pool");
        assert_eq!(report.completed, report.submitted - report.rejected);
        assert!(report.host_kv_peak_tokens > 0);
        assert!(report.host_kv_peak_tokens <= report.host_pool_tokens);
        assert!(report.swap_stall > Time::ZERO);
        assert_eq!(report.recompute_stall, Time::ZERO);
        // Swapping beats recomputing at this operating point: the same
        // trace under RecomputeOnly stalls longer.
        let recompute = sys.run_with(&w, Time::from_secs_f64(5.0), ServeOptions::token_granular());
        assert!(recompute.preemptions > 0);
        assert!(report.eviction_stall() < recompute.eviction_stall());
    }

    #[test]
    fn cost_driven_follows_the_comparator() {
        let sys = tiny_system().with_kv_budget(KvBudget::tokens(150));
        let w = poisson(50.0, 7, 10, 90);
        let horizon = Time::from_secs_f64(5.0);
        // Cheap transfers (4 KiB/token) against a 1000 tok/s prefill:
        // swapping a ~100-token context costs ~microseconds vs ~100 ms of
        // recompute, so every victim swaps...
        let cheap = KvSpillConfig::cost_driven(10_000, KvSwapCost::cent(ByteSize::kib(4)));
        let report = sys.run_with(&w, horizon, ServeOptions::token_granular().with_spill(cheap));
        assert!(report.swaps > 0);
        assert_eq!(report.preemptions, 0);
        // ...while a grotesquely fat footprint flips every decision back to
        // recompute, reproducing the RecomputeOnly report bit for bit.
        let fat = KvSpillConfig::cost_driven(10_000, KvSwapCost::cent(ByteSize::gib(4)));
        let report = sys.run_with(&w, horizon, ServeOptions::token_granular().with_spill(fat));
        assert_eq!(report.swaps, 0);
        assert!(report.preemptions > 0);
        // Identical to pure RecomputeOnly under the same (never-consulted)
        // pool configuration — the comparator changes nothing but choices.
        let baseline = sys.run_with(
            &w,
            horizon,
            ServeOptions::token_granular().with_spill(fat.with_mode(KvSpillMode::RecomputeOnly)),
        );
        assert_eq!(report, baseline);
    }

    #[test]
    fn full_host_pool_falls_back_to_recompute() {
        // A pool smaller than any victim's footprint can never accept a
        // swap; SwapOnly must degrade to recompute and still drain.
        let sys = tiny_system().with_kv_budget(KvBudget::tokens(150));
        let w = poisson(50.0, 7, 10, 90);
        let spill = KvSpillConfig::swap_only(5, KvSwapCost::cent(ByteSize::kib(4)));
        let report = sys.run_with(
            &w,
            Time::from_secs_f64(5.0),
            ServeOptions::token_granular().with_spill(spill),
        );
        assert_eq!(report.swaps, 0, "nothing fits a 5-token pool");
        assert!(report.preemptions > 0);
        assert_eq!(report.host_kv_peak_tokens, 0);
        assert_eq!(report.completed, report.submitted - report.rejected);
    }

    #[test]
    fn classes_keep_interactive_traffic_ahead() {
        // Saturated two-tier mix: interactive arrivals must wait less and
        // reach their first token sooner than the background tier.
        let sys = tiny_system();
        let w = poisson(25.0, 11, 10, 490).with_classes(ClassMix::two_tier(0.5));
        let report = sys.run(&w, Time::from_secs_f64(20.0));
        assert_eq!(report.classes.len(), 2);
        let (hi, lo) = (&report.classes[0], &report.classes[1]);
        assert_eq!(hi.class, PriorityClass::INTERACTIVE);
        assert_eq!(lo.class, PriorityClass::BATCH);
        assert!(hi.completed > 0 && lo.completed > 0);
        assert!(
            hi.ttft.p99 < lo.ttft.p99,
            "interactive TTFT p99 {} must beat background {}",
            hi.ttft.p99,
            lo.ttft.p99
        );
        assert_eq!(hi.submitted + lo.submitted, report.submitted);
    }

    #[test]
    fn engines_agree_bit_for_bit_under_preemption() {
        // Quick smoke of the differential property (the randomized net
        // lives in tests/serving_engine_equivalence.rs).
        let sys = tiny_system().with_kv_budget(KvBudget::tokens(150));
        let w = poisson(50.0, 7, 10, 90);
        let horizon = Time::from_secs_f64(5.0);
        let reference = sys.run_with(
            &w,
            horizon,
            ServeOptions::token_granular().with_engine(TickEngine::PerTokenReference),
        );
        let span = sys.run_with(
            &w,
            horizon,
            ServeOptions::token_granular().with_engine(TickEngine::SpanFastForward),
        );
        assert!(reference.preemptions > 0);
        assert_eq!(reference, span);
    }

    #[test]
    fn settled_residents_match_the_per_token_walk() {
        // One token-granular replica under KV pressure, with a host pool
        // that holds only small victims: residents are admitted, ride
        // fast-forward spans, swap out and back in, are evicted for
        // recompute, and complete. The span engine books a resident's
        // tokens only when it leaves; the per-token reference books each
        // token as it is emitted. Every departure must find the request in
        // the same state under both. Each request gets a class of its own,
        // so a class's TBT counters are that one request's.
        let sys = tiny_system().with_kv_budget(KvBudget::tokens(150));
        let mut trace = poisson(50.0, 7, 10, 90).generate(Time::from_secs_f64(1.5), 4096);
        assert!(trace.len() <= 256, "one class per request");
        for (i, spec) in trace.iter_mut().enumerate() {
            spec.class = PriorityClass(i as u8);
        }
        let spill = KvSpillConfig::swap_only(60, KvSwapCost::cent(ByteSize::kib(4)));
        let run = |engine: TickEngine| {
            DEPARTURES.take();
            let options = ServeOptions::token_granular().with_spill(spill).with_engine(engine);
            let (report, stats) = sys.serve_trace_instrumented(&trace, 50.0, options);
            (report, stats, DEPARTURES.take())
        };
        let (span_report, span_stats, span) = run(TickEngine::SpanFastForward);
        let (ref_report, ref_stats, reference) = run(TickEngine::PerTokenReference);
        assert_eq!(span_report, ref_report);
        assert_eq!(span_stats.tokens, ref_stats.tokens);
        assert!(span_stats.tick_events < span_stats.tokens / 4, "spans carry most tokens");
        assert!(span_report.swaps > 0, "some victims swap out and back in");
        assert!(span_report.preemptions > 0, "some victims recompute");
        assert_eq!(span_report.completed, trace.len());
        assert_eq!(span.len(), reference.len());
        for (i, (got, want)) in span.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "departure {i}");
        }
        // Evictions add departures, and their resume gaps were booked off
        // the cadence.
        assert!(span.len() > trace.len());
        assert!(span
            .iter()
            .any(|(_, tbt)| tbt.as_ref().is_some_and(|c| c.off_cadence.count() > 0)));
    }

    #[test]
    fn crash_books_the_tokens_residents_emitted() {
        // A's first token (at 11 ms) rides the fast-forward span that B's
        // arrival at 11.5 ms triggers; the group then crashes before A's
        // next decision. The crash settles A: its token counts, but a lone
        // first token has no gap, so its class's TBT stream stays unopened
        // as in the per-token reference.
        let sys = tiny_system();
        let spec = |id: u64, arrival_us: u64| RequestSpec {
            id: RequestId(id),
            arrival: Time::from_us(arrival_us),
            prompt: 10,
            decode: 50,
            class: PriorityClass::default(),
            session: crate::queue::SessionId(id),
        };
        let mut sim = GroupSim::new(&sys, ServeOptions::default());
        sim.push_arrival(spec(0, 0));
        sim.push_arrival(spec(1, 11_500));
        sim.advance_to(Time::from_us(11_600));
        let orphans = sim.crash(Time::from_us(11_600));
        assert_eq!(orphans.len(), 2);
        let outcome = sim.finish(1.0);
        assert_eq!(outcome.stats.tokens, 1);
        assert_eq!(outcome.records.len(), 0);
        assert!(outcome.tbt_by_class.is_empty());
    }

    #[test]
    fn span_engine_skips_tick_heap_traffic() {
        // On a clean saturated shape the span engine must touch the heap
        // only for arrivals and decision instants — far below the
        // reference engine's one entry per token.
        let sys = tiny_system();
        let w = poisson(25.0, 11, 10, 490);
        let trace = w.generate(Time::from_secs_f64(20.0), 4096);
        let (ref_report, reference) = sys.serve_trace_instrumented(
            &trace,
            25.0,
            ServeOptions::default().with_engine(TickEngine::PerTokenReference),
        );
        let (span_report, span) = sys.serve_trace_instrumented(
            &trace,
            25.0,
            ServeOptions::default().with_engine(TickEngine::SpanFastForward),
        );
        assert_eq!(ref_report, span_report);
        assert_eq!(span.tokens, reference.tokens);
        assert!(
            span.heap_events_per_token() < reference.heap_events_per_token(),
            "span {} vs reference {}",
            span.heap_events_per_token(),
            reference.heap_events_per_token()
        );
        // Decision ticks are bounded by external events: every completion
        // is one, plus at most one re-solved wake per admission.
        assert!(span.tick_events <= 2 * span.admissions, "{} ticks", span.tick_events);
    }

    #[test]
    fn span_engine_slashes_heap_traffic() {
        // Saturated 1×8-slot system: the span engine must do at least 5×
        // fewer heap operations per generated token than the per-token
        // reference, and fire far fewer decision ticks than tokens.
        let sys = ServingSystem::from_parts(
            &ModelConfig::llama2_7b(),
            SchedulerConfig {
                replicas: 1,
                slots_per_replica: 8,
                kv_budget: KvBudget::tokens(u64::MAX / 2),
                kv: KvMode::FullReservation,
            },
            Time::from_us(1000),
            50_000.0,
            8000.0,
        );
        let w = poisson(100.0, 3, 10, 200);
        let trace = w.generate(Time::from_secs_f64(5.0), 4096);
        let (span_report, span) = sys.serve_trace_instrumented(
            &trace,
            100.0,
            ServeOptions::default().with_engine(TickEngine::SpanFastForward),
        );
        let (reference_report, reference) = sys.serve_trace_instrumented(
            &trace,
            100.0,
            ServeOptions::default().with_engine(TickEngine::PerTokenReference),
        );
        assert_eq!(span_report, reference_report);
        assert_eq!(span.tokens, reference.tokens);
        assert!(span.tokens > 0);
        let ratio = reference.heap_events_per_token() / span.heap_events_per_token();
        assert!(ratio >= 5.0, "heap-event ratio only {ratio:.2}");
        assert!(span.tick_events < span.tokens / 4, "ticks should batch residents");
        assert_eq!(reference.tick_events, 0);
    }

    #[test]
    fn incremental_group_sim_matches_batch_serving() {
        // Epoch-resumed serving (push arrivals window by window, advance
        // between windows) must reproduce the batch path bit for bit —
        // including under KV pressure, where preemption requeues interleave
        // with arrivals inside one instant.
        let sys = tiny_system().with_kv_budget(KvBudget::tokens(150));
        let w = poisson(50.0, 7, 10, 90);
        let trace = w.generate(Time::from_secs_f64(5.0), 4096);
        let (batch, batch_stats) =
            sys.serve_trace_instrumented(&trace, 50.0, ServeOptions::token_granular());
        for epoch_us in [1_000u64, 250_000, 10_000_000] {
            let epoch = Time::from_us(epoch_us);
            let mut sim = GroupSim::new(&sys, ServeOptions::token_granular());
            let mut cursor = 0;
            let mut limit = epoch;
            while cursor < trace.len() {
                while cursor < trace.len() && trace[cursor].arrival < limit {
                    sim.push_arrival(trace[cursor]);
                    cursor += 1;
                }
                assert!(sim.outstanding() <= sim.submitted() as u64);
                sim.advance_to(limit);
                limit += epoch;
            }
            let outcome = sim.finish(50.0);
            assert_eq!(outcome.report, batch, "epoch {epoch_us} us");
            assert_eq!(outcome.stats, batch_stats, "epoch {epoch_us} us");
            assert_eq!(outcome.records.len(), batch.completed);
        }
    }

    #[test]
    fn group_load_probes_track_scheduler_state() {
        let sys = tiny_system();
        let mut sim = GroupSim::new(&sys, ServeOptions::default());
        assert_eq!(sim.outstanding(), 0);
        assert_eq!(sim.kv_reserved(), 0);
        // Well above the ~66 q/s capacity of the tiny system, so the group
        // is demonstrably loaded at the mid-trace probe instant.
        for spec in poisson(200.0, 3, 10, 50).generate(Time::from_secs_f64(1.0), 4096) {
            sim.push_arrival(spec);
        }
        let submitted = sim.submitted() as u64;
        assert!(submitted > 0);
        // Nothing processed yet: arrivals sit in the heap, not the queue.
        assert_eq!(sim.outstanding(), 0);
        sim.advance_to(Time::from_secs_f64(0.5));
        // Mid-trace the group holds live requests and KV reservations.
        assert!(sim.outstanding() > 0);
        assert!(sim.kv_reserved() > 0);
        let outcome = sim.finish(200.0);
        assert_eq!(outcome.report.completed, submitted as usize);
    }

    #[test]
    fn capacity_is_min_of_decode_and_prefill_sides() {
        let sys = tiny_system();
        // Decode side: 4000 tok/s / 100 = 40 q/s; prefill side:
        // 1000 tok/s / 10 = 100 q/s → decode-bound.
        assert_eq!(sys.capacity_qps(10, 100), 40.0);
        // Long prompts flip it: prefill side 1000/500 = 2 q/s.
        assert_eq!(sys.capacity_qps(500, 100), 2.0);
    }

    #[test]
    fn end_to_end_on_simulated_tiny_deployment() {
        // Full path through the block-level oracle on the tiny model.
        let cfg = ModelConfig::tiny();
        let sys = ServingSystem::plan(&cfg, 2, Strategy::PipelineParallel, 32).unwrap();
        assert!(sys.steady_state_tokens_per_s() > 0.0);
        let rate = 0.5 * sys.capacity_qps(8, 16);
        let w = Workload {
            arrivals: ArrivalProcess::Poisson { rate_qps: rate },
            lengths: LengthSampler::Fixed { prompt: 8, decode: 16 },
            seed: 2,
            classes: ClassMix::default(),
        };
        let report = sys.run(&w, Time::from_secs_f64(2.0));
        assert!(report.completed > 0);
        assert!(report.ttft.p50 > Time::ZERO);
        assert!(report.query_latency.p99 >= report.query_latency.p50);
    }
}
