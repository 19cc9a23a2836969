//! Disaggregated prefill/decode fleets over a shared CXL KV pool.
//!
//! The [fleet driver](crate::simulate_fleet) serves one tier of colocated
//! full-service groups. This module splits that tier in two: groups take
//! a [`GroupRole`] — *prefill-specialized* or *decode-specialized* — and a
//! finished prompt's KV pages travel between them through the bounded,
//! switch-attached [`SharedKvPool`] of `cent-cxl`, at a price set by a
//! [`KvSwapCost`] carrying the extra switch-hop term
//! ([`KvSwapCost::with_switch_hops`]). The same epoch-stop driver runs
//! both topologies; this module holds the phases only a split fleet has.
//!
//! # Request lifecycle
//!
//! 1. The router dispatches every **arrival** onto a *prefill* group
//!    (load-snapshot routing, exactly as on a colocated fleet, restricted
//!    to the prefill tier). The prefill group runs the prompt — chunked
//!    ([`ServeOptions::with_prefill_chunk`]) so long prompts interleave —
//!    and emits the request's *first token*, so TTFT is owned end to end
//!    by the prefill tier.
//! 2. On completion the driver **publishes** the context (prompt + first
//!    token) into the shared pool over the group's egress link: capacity
//!    is reserved up front, the transfer serializes per link, and a
//!    publish that does not fit is *deferred* and retried once claims
//!    free capacity (counted in [`DisaggLog::deferred`]). One-token
//!    requests never touch the pool ([`DisaggLog::singles`]).
//! 3. When the publish transfer completes, a *decode* group **claims** the
//!    entry at the next epoch stop: the router picks the decode home from
//!    a load snapshot, but a *drained* decode group (zero outstanding
//!    work) **steals** the claim whenever the router's pick still has work
//!    queued ([`DisaggLog::steals`]) — pool entries are fabric-visible, so
//!    an idle group can take them without involving the publisher. The
//!    claiming group pays the same transfer again (pool → device) through
//!    [`GroupSim::push_handoff`], then streams the remaining tokens.
//!
//! All cross-group logic — harvest, publish, claim, steal, routing — runs
//! single-threaded at epoch stops, so the result is bit-identical across
//! worker-thread counts. An all-[`Colocated`](GroupRole::Colocated)
//! configuration is the one-tier topology and reproduces
//! [`simulate_fleet_instrumented`](crate::simulate_fleet_instrumented)'s
//! [`FleetReport`] exactly (enforced by `tests/cluster_props.rs`).
//!
//! # Faults and recovery
//!
//! A [`FaultSchedule`](crate::FaultSchedule) on `fleet.faults` injects the
//! crash/degrade/straggler events into the split fleet too, plus
//! [`PoolLinkDegrade`](crate::FaultSpec::PoolLinkDegrade) windows that
//! rescale the switch-hop handoff cost for publishes and rescues issued
//! inside the window (the healthy cost is restored *exactly* when the
//! window lifts). Tier crashes differ by role:
//!
//! * A **prefill** crash orphans incomplete prompts; completed publishes
//!   are durable — the pool entry, its in-flight transfer and its visible
//!   instant all survive the publisher, so downstream claims proceed
//!   untouched. Orphans retry through the prefill tier under the
//!   [`RetryPolicy`](crate::RetryPolicy).
//! * A **decode** crash orphans claimed contexts. With a *durable pool*
//!   (the default), every claim leaves a capacity-free *parked copy*
//!   behind ([`SharedKvPool::park`]); an orphan whose copy survives is
//!   **rescued** — redispatched onto an alive decode group at switch-hop
//!   cost instead of re-prefilling ([`FaultLog::pool_rescued`]). A copy
//!   that was evicted (or a [`DisaggConfig::with_volatile_pool`] fleet)
//!   falls back to a bounded re-prefill through the prefill tier
//!   ([`FaultLog::pool_lost`]).
//!
//! [`RecoveryMode`](crate::RecoveryMode) (warm retention, per-tier standby
//! reserves with role-matched promotion) and the saturation
//! [`AdmissionPolicy`](crate::AdmissionPolicy) — fed by both tiers' loads
//! *and* pool occupancy — compose exactly as on a colocated fleet, and the
//! extended conservation invariant
//! `completed + rejected + dropped + shed = offered` holds. A zero-fault
//! schedule with an inactive admission policy reproduces the healthy
//! split driver bit for bit (the pool never parks copies on that path).

use std::collections::BTreeMap;

use cent_cost::KvSwapCost;
use cent_cxl::SharedKvPool;
use cent_serving::{GroupOutcome, GroupSim, RequestSpec, ServingSystem};
use cent_types::Time;

use crate::admission::LoadSums;
use crate::fault::{epoch_ceil, FaultLog, FaultState};
use crate::fleet::FleetOptions;
use crate::report::FleetReport;
use crate::router::{GroupLoad, RoutingPolicy};

/// What one replica group does in a (possibly) disaggregated fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupRole {
    /// Full-service: prefill and decode on the same group (the one tier
    /// of a colocated fleet).
    Colocated,
    /// Prompt processing only: receives arrivals, emits the first token,
    /// publishes the KV context into the shared pool.
    Prefill,
    /// Token streaming only: claims published contexts from the pool and
    /// generates the remaining tokens.
    Decode,
}

/// Configuration of the disaggregation layer: per-group roles, the shared
/// pool bound, and the cost of moving a KV context through the switch.
#[derive(Debug, Clone)]
pub struct DisaggConfig {
    /// Role of each group, in group order (length must equal
    /// `FleetOptions::groups`). Either all `Colocated` or a mix of
    /// `Prefill`/`Decode` with at least one of each.
    pub roles: Vec<GroupRole>,
    /// Capacity bound of the shared switch-attached pool, in KV tokens.
    pub pool_tokens: u64,
    /// Cost model of one context transfer (prefill group → pool, and pool
    /// → decode group — each direction pays it once). Build it with
    /// [`KvSwapCost::with_switch_hops`] to include the extra switch
    /// traversals a pool-resident page takes versus a direct host link.
    pub handoff_cost: KvSwapCost,
    /// Prefill chunk size applied to prefill-role groups (`None` = serial
    /// whole-prompt prefill). See `ServeOptions::with_prefill_chunk`.
    pub prefill_chunk: Option<u64>,
    /// Whether claims leave a capacity-free parked copy in the pool that a
    /// decode-tier crash can rescue (see the module docs). Only read on
    /// the faulted path; the default is `true`.
    pub durable_pool: bool,
}

impl DisaggConfig {
    /// The degenerate colocated configuration: `groups` full-service
    /// groups, no pool. [`simulate_fleet_disagg`] with this config
    /// reproduces [`simulate_fleet_instrumented`](crate::simulate_fleet_instrumented) bit for bit.
    pub fn colocated(groups: usize) -> Self {
        assert!(groups > 0, "a fleet needs at least one group");
        DisaggConfig {
            roles: vec![GroupRole::Colocated; groups],
            pool_tokens: 0,
            handoff_cost: KvSwapCost::cent(cent_types::ByteSize::bytes(1)),
            prefill_chunk: None,
            durable_pool: true,
        }
    }

    /// A split fleet: the first `prefill` groups are prefill-specialized,
    /// the next `decode` groups decode-specialized, handing off through a
    /// `pool_tokens`-bounded shared pool at `handoff_cost` per direction.
    ///
    /// # Panics
    ///
    /// Panics if either tier is empty or the pool has no capacity.
    pub fn split(
        prefill: usize,
        decode: usize,
        pool_tokens: u64,
        handoff_cost: KvSwapCost,
    ) -> Self {
        assert!(prefill > 0, "a split fleet needs a prefill tier");
        assert!(decode > 0, "a split fleet needs a decode tier");
        assert!(pool_tokens > 0, "a split fleet needs pool capacity");
        let mut roles = vec![GroupRole::Prefill; prefill];
        roles.resize(prefill + decode, GroupRole::Decode);
        DisaggConfig { roles, pool_tokens, handoff_cost, prefill_chunk: None, durable_pool: true }
    }

    /// Sets the prefill chunk size for prefill-role groups.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_prefill_chunk(mut self, chunk: u64) -> Self {
        assert!(chunk > 0, "prefill chunk must be positive");
        self.prefill_chunk = Some(chunk);
        self
    }

    /// Disables parked copies: a decode-tier crash always loses the pool
    /// copy and falls back to re-prefill (the ablation baseline for the
    /// durability study).
    pub fn with_volatile_pool(mut self) -> Self {
        self.durable_pool = false;
        self
    }

    /// True when every group is [`Colocated`](GroupRole::Colocated).
    pub fn is_colocated(&self) -> bool {
        self.roles.iter().all(|r| *r == GroupRole::Colocated)
    }
}

/// What the disaggregation machinery did during one run — the raw
/// material for the report's `disagg` section, exposed for property
/// tests. All counters are zero for a colocated configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisaggLog {
    /// Contexts handed prefill → pool → decode (claims completed).
    pub handoffs: u64,
    /// Requests that finished entirely on their prefill group because
    /// they decode a single token — nothing left to hand off.
    pub singles: u64,
    /// Claims diverted from the router's pick to a drained decode group.
    pub steals: u64,
    /// Publish attempts refused for pool capacity and deferred to a later
    /// epoch stop (one per refused attempt).
    pub deferred: u64,
    /// Pool capacity bound, KV tokens.
    pub pool_capacity_tokens: u64,
    /// Largest pool reservation level observed, KV tokens.
    pub pool_peak_tokens: u64,
    /// Accumulated pool occupancy in token-seconds (entries charged over
    /// `[visible, claim)`).
    pub pool_occupancy_token_s: f64,
}

/// Everything one disaggregated fleet run produced.
#[derive(Debug, Clone)]
pub struct DisaggOutcome {
    /// The merged fleet report; `report.disagg` is `Some` iff the
    /// configuration was actually split.
    pub report: FleetReport,
    /// Per-group outcomes, indexed by group. Prefill-role groups hold the
    /// prompt phase of each request (one decode token); decode-role
    /// groups hold the remainder.
    pub groups: Vec<GroupOutcome>,
    /// Group index each trace entry's *prompt* was *first* dispatched to,
    /// aligned with the trace (`usize::MAX` for requests never dispatched:
    /// shed by admission, or dropped with the prefill tier down for good).
    pub routed: Vec<usize>,
    /// What the disaggregation machinery did.
    pub log: DisaggLog,
    /// What the fault machinery did (default for a fault-free schedule).
    pub faults: FaultLog,
}

/// Simulates `trace` over a role-split fleet (see the module docs). With
/// an all-colocated `disagg` config this is exactly
/// [`simulate_fleet_instrumented`](crate::simulate_fleet_instrumented);
/// with a prefill/decode split, prompts are routed to the prefill tier,
/// contexts hand off through the shared pool, and the report grows
/// handoff/pool/steal rows ([`FleetReport::disagg`]). A fault schedule or
/// an active admission policy adds the degraded-mode section.
///
/// # Panics
///
/// Panics if `disagg.roles` does not cover `fleet.groups` exactly, mixes
/// `Colocated` with specialized roles, leaves a tier empty (or all
/// spares), if a single context exceeds the pool bound (it could never
/// publish), or on any option the colocated driver rejects.
pub fn simulate_fleet_disagg(
    system: &ServingSystem,
    trace: &[RequestSpec],
    offered_qps: f64,
    router: &mut dyn RoutingPolicy,
    fleet: &FleetOptions,
    disagg: &DisaggConfig,
) -> DisaggOutcome {
    crate::fleet::run(system, trace, offered_qps, router, fleet, disagg)
}

/// The phases only a split fleet has: harvesting finished prompts off the
/// prefill tier, publishing their contexts into the shared pool, and
/// claiming (or rescuing) them onto the decode tier. The driver builds one
/// only when the decode tier is non-empty.
pub(crate) struct DecodeTier<'a> {
    cfg: &'a DisaggConfig,
    prefill: Vec<usize>,
    decode: Vec<usize>,
    pool: SharedKvPool,
    /// Parked copies engage only on the faulted durable path — the healthy
    /// driver never parks, keeping the zero-fault run bit-identical.
    park_copies: bool,
    /// KV budget of one group: a footprint above it is rejected whole.
    budget: u64,
    /// Original specs awaiting their decode phase, by raw id.
    pending: BTreeMap<u64, RequestSpec>,
    /// Publishes refused for capacity, retried in `(finished, id)` order.
    backlog: BTreeMap<(Time, u64), usize>,
    /// Published entries awaiting a claim, in `(visible, id)` order; the
    /// value is the pool → device transfer the claiming group will pay.
    ready_claims: BTreeMap<(Time, u64), Time>,
    /// Orphans of a decode crash whose parked pool copy survived, keyed
    /// `(crash instant, id)`: the decode-phase spec and the parked token
    /// count, redispatched at switch-hop cost at the next stop with a live
    /// decode group.
    rescues: BTreeMap<(Time, u64), (RequestSpec, u64)>,
    /// Per-group completion cursors.
    cursors: Vec<usize>,
    loads: Vec<GroupLoad>,
    log: DisaggLog,
}

impl<'a> DecodeTier<'a> {
    pub(crate) fn new(
        cfg: &'a DisaggConfig,
        prefill: Vec<usize>,
        decode: Vec<usize>,
        sims: &[GroupSim],
        faulty: bool,
    ) -> Self {
        DecodeTier {
            cfg,
            pool: SharedKvPool::new(cfg.pool_tokens, prefill.len()),
            park_copies: faulty && cfg.durable_pool,
            budget: sims[prefill[0]].kv_budget_tokens(),
            pending: BTreeMap::new(),
            backlog: BTreeMap::new(),
            ready_claims: BTreeMap::new(),
            rescues: BTreeMap::new(),
            cursors: vec![0; sims.len()],
            loads: Vec::with_capacity(decode.len()),
            log: DisaggLog { pool_capacity_tokens: cfg.pool_tokens, ..DisaggLog::default() },
            prefill,
            decode,
        }
    }

    /// The pipeline's next stop: the first claimable entry or rescue (while
    /// a decode group serves), and — while the prefill tier owes
    /// completions or publishes are deferred — the next grid instant, so
    /// harvest keeps polling. A decode tier down for good stalls the
    /// pipeline: polling stops and the leftovers are accounted as drops.
    pub(crate) fn next_stop(
        &self,
        now: Time,
        sims: &[GroupSim],
        faults: &FaultState,
        epoch_ps: u64,
    ) -> Option<Time> {
        let decode_up = self.decode.iter().any(|&g| faults.serving(g));
        let claim = self.ready_claims.keys().next().map(|&(visible, _)| visible);
        let rescue = self.rescues.keys().next().map(|&(crashed, _)| crashed);
        let claim_stop = [claim, rescue].into_iter().flatten().min().filter(|_| decode_up);
        let stalled = !decode_up && faults.next_at().is_none();
        let busy = !stalled
            && (!self.backlog.is_empty()
                || self.prefill.iter().any(|&g| sims[g].outstanding() > 0));
        // `now` is a grid instant, so this is the next one.
        let busy_stop = busy.then(|| epoch_ceil(now + Time::from_ps(1), epoch_ps));
        let claim_stop = claim_stop.map(|at| epoch_ceil(at, epoch_ps));
        [claim_stop, busy_stop].into_iter().flatten().min()
    }

    /// Whether a claim or rescue is already due at stop `t` with a decode
    /// group serving to take it — left behind by the publishes of the stop
    /// at `t` itself. [`step`](Self::step) again at `t` takes it.
    pub(crate) fn claims_due(&self, t: Time, faults: &FaultState, epoch_ps: u64) -> bool {
        let claim = self.ready_claims.keys().next().map(|&(visible, _)| visible);
        let rescue = self.rescues.keys().next().map(|&(crashed, _)| crashed);
        [claim, rescue].into_iter().flatten().min().is_some_and(|at| epoch_ceil(at, epoch_ps) <= t)
            && self.decode.iter().any(|&g| faults.serving(g))
    }

    /// A crash orphaned `spec`. A decode-tier orphan whose parked pool copy
    /// survived is queued for rescue (returns `true`); anything else loses
    /// its decode phase and must rerun from the prompt.
    pub(crate) fn orphan(
        &mut self,
        log: &mut FaultLog,
        decode_role: bool,
        spec: RequestSpec,
        t: Time,
    ) -> bool {
        let id = spec.id.0;
        if decode_role {
            if self.park_copies {
                if let Some(tokens) = self.pool.rescue(id) {
                    self.rescues.insert((t, id), (spec, tokens));
                    log.pool_rescued.push((spec.id, t));
                    return true;
                }
            }
            // Copy evicted or pool volatile: the context only survives as
            // its prompt — re-prefill.
            log.pool_lost += 1;
        }
        // Re-inserted when the re-prefill dispatches.
        self.pending.remove(&id);
        false
    }

    /// The prompt phase of `spec` to dispatch onto the prefill tier: it
    /// runs the prompt and emits the first token (`decode: 1`), so TTFT
    /// lands on the prefill group. A footprint no replica budget can hold
    /// is dispatched whole to be rejected there (as a colocated fleet
    /// would), so its truncated prompt phase never runs.
    pub(crate) fn admit(&mut self, spec: RequestSpec) -> RequestSpec {
        if spec.kv_tokens() > self.budget {
            return spec;
        }
        self.pending.insert(spec.id.0, spec);
        RequestSpec { decode: 1, ..spec }
    }

    /// What fleet saturation reads from this tier: the decode tier's
    /// serving loads, summed, and the pool's `(used, capacity)`. Neither
    /// changes during a stop's arrival phase.
    pub(crate) fn shed_load(
        &self,
        sims: &[GroupSim],
        faults: &FaultState,
    ) -> (LoadSums, (u64, u64)) {
        let decode = LoadSums::of(faults.serving_loads(&self.decode, sims));
        (decode, (self.pool.used_tokens(), self.cfg.pool_tokens))
    }

    /// The handoff phases of one stop, after the fault phase: harvest
    /// finished prompts, claim and rescue onto the decode tier (claims
    /// free pool capacity, so this stop's deferred publishes can retry
    /// into the space), then publish.
    pub(crate) fn step(
        &mut self,
        t: Time,
        sims: &mut [GroupSim],
        faults: &FaultState,
        router: &mut dyn RoutingPolicy,
        epoch_ps: u64,
    ) {
        // Harvest: newly completed prefill phases, merged across the tier
        // in `(finished, group, id)` order. Crash-surviving records stay
        // in a group's tail, so cursors keep working across outages.
        let mut finished: Vec<(Time, usize, u64)> = Vec::new();
        for &g in &self.prefill {
            let new = sims[g].completions_since(self.cursors[g]);
            self.cursors[g] += new.len();
            finished.extend(new.iter().map(|r| (r.finished, g, r.spec.id.0)));
        }
        finished.sort_unstable();
        // Decode-tier completions retire their parked pool copies.
        if self.park_copies {
            for &g in &self.decode {
                let new = sims[g].completions_since(self.cursors[g]);
                self.cursors[g] += new.len();
                for r in new {
                    self.pool.discard_parked(r.spec.id.0);
                }
            }
        }
        // Publishes and rescues inside a pool-degrade window pay the
        // degraded cost.
        let cost = faults.pool_cost(self.cfg.handoff_cost);

        // Claims: the decode load snapshot is taken once over the serving
        // subset, then bumped optimistically per claim; pool rescues
        // dispatch after the regular claims, in `(crash instant, id)`
        // order.
        self.loads.clear();
        self.loads.extend(faults.serving_loads(&self.decode, sims));
        if !self.loads.is_empty() {
            while let Some(head) = self.ready_claims.first_entry() {
                if epoch_ceil(head.key().0, epoch_ps) > t {
                    break;
                }
                let ((visible, id), transfer) = head.remove_entry();
                self.pool.claim(id, t);
                let spec = self.pending.remove(&id).expect("claimed context was pending");
                if self.park_copies {
                    // The claim freed the capacity; a capacity-free copy
                    // stays behind for crash rescue.
                    self.pool.park(id, (spec.prompt + 1) as u64, t);
                }
                // The decode phase resumes from the published context:
                // prompt + the first token, remaining tokens to stream.
                let decode_spec =
                    RequestSpec { prompt: spec.prompt + 1, decode: spec.decode - 1, ..spec };
                self.hand_off(router, sims, decode_spec, t, visible, transfer);
            }
            while let Some(((_, id), (decode_spec, tokens))) = self.rescues.pop_first() {
                // The copy streams out of the pool at the current switch-hop
                // cost; it is re-parked so a repeated crash can rescue it
                // again.
                let transfer = cost.transfer_time(tokens);
                self.pool.park(id, tokens, t);
                self.hand_off(router, sims, decode_spec, t, t, transfer);
            }
        }

        // Publish: deferred publishes retry first (oldest first), then
        // this stop's fresh completions. A single-token request is
        // finished outright — nothing left to hand off.
        for ((first_finished, id), group) in std::mem::take(&mut self.backlog) {
            if !self.publish(id, group, t, &cost) {
                self.backlog.insert((first_finished, id), group);
            }
        }
        for (finish_t, group, id) in finished {
            let spec = self.pending.get(&id).expect("completed prompt was pending");
            if spec.decode <= 1 {
                self.log.singles += 1;
                self.pending.remove(&id);
                continue;
            }
            if !self.publish(id, group, finish_t, &cost) {
                self.log.deferred += 1;
                self.backlog.insert((finish_t, id), group);
            }
        }
    }

    /// Routes a decode-phase spec onto the decode tier and pushes it as a
    /// handoff. A drained decode group steals the claim whenever the
    /// router's pick still has work queued.
    fn hand_off(
        &mut self,
        router: &mut dyn RoutingPolicy,
        sims: &mut [GroupSim],
        spec: RequestSpec,
        t: Time,
        visible: Time,
        transfer: Time,
    ) {
        let loads = &mut self.loads;
        let mut pos = router.route(&spec, loads);
        assert!(pos < loads.len(), "router chose position {pos} of {}", loads.len());
        if loads[pos].outstanding > 0 {
            if let Some(idle) = loads.iter().position(|l| l.outstanding == 0) {
                pos = idle;
                self.log.steals += 1;
            }
        }
        sims[loads[pos].group].push_handoff(spec, t, visible, transfer);
        loads[pos].outstanding += 1;
        loads[pos].kv_tokens += spec.kv_tokens();
        self.log.handoffs += 1;
    }

    /// Publishes the context of `id` from prefill group `group`, ready at
    /// `ready`; returns whether the pool had room.
    fn publish(&mut self, id: u64, group: usize, ready: Time, cost: &KvSwapCost) -> bool {
        let spec = self.pending.get(&id).expect("publishing context is pending");
        let tokens = (spec.prompt + 1) as u64;
        assert!(
            tokens <= self.cfg.pool_tokens,
            "context of {tokens} tokens can never fit a {}-token pool",
            self.cfg.pool_tokens
        );
        let transfer = cost.transfer_time(tokens);
        // Egress link of a prefill group: its rank within the tier.
        let link = self.prefill.binary_search(&group).expect("publisher is a prefill group");
        match self.pool.try_publish(id, tokens, ready, link, transfer) {
            Some(visible) => {
                self.ready_claims.insert((visible, id), transfer);
                true
            }
            None => false,
        }
    }

    /// Closes the run. On the faulted path the pipeline can end with work
    /// stranded behind a tier that never came back: rescues with no decode
    /// group left and prompts whose context was never claimed are drops
    /// (a true single still completes on its prefill group, so it is not
    /// one).
    pub(crate) fn finish(mut self, faulty: bool, flog: &mut FaultLog) -> DisaggLog {
        debug_assert!(
            faulty || self.ready_claims.is_empty(),
            "every published context was claimed"
        );
        self.log.pool_peak_tokens = self.pool.peak_tokens();
        self.log.pool_occupancy_token_s = self.pool.occupancy_token_seconds();
        if faulty {
            for (spec, _) in self.rescues.into_values() {
                flog.dropped.push((spec.id, spec.class));
            }
            for spec in self.pending.values().filter(|s| s.decode > 1) {
                flog.dropped.push((spec.id, spec.class));
            }
        } else {
            debug_assert!(
                self.pending.is_empty(),
                "every admitted prompt resolved its decode phase"
            );
        }
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::JoinShortestQueue;
    use cent_model::ModelConfig;
    use cent_serving::{KvBudget, KvMode, SchedulerConfig, Workload};
    use cent_types::ByteSize;

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

    fn trace(qps: f64, seed: u64, horizon_s: f64) -> Vec<RequestSpec> {
        let w = Workload {
            lengths: cent_serving::LengthSampler::Fixed { prompt: 100, decode: 40 },
            ..Workload::chatbot(qps, seed)
        };
        w.generate(Time::from_secs_f64(horizon_s), 4096)
    }

    fn handoff_cost() -> KvSwapCost {
        KvSwapCost::cent(ByteSize::bytes(512))
            .with_switch_hops(2, &cent_cxl::FabricConfig::cent(32))
    }

    #[test]
    fn colocated_config_is_the_base_driver_bit_for_bit() {
        let sys = tiny_system();
        let trace = trace(60.0, 11, 2.0);
        let opts = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05));
        let base = crate::fleet::simulate_fleet_instrumented(
            &sys,
            &trace,
            60.0,
            &mut JoinShortestQueue,
            &opts,
        );
        let disagg = simulate_fleet_disagg(
            &sys,
            &trace,
            60.0,
            &mut JoinShortestQueue,
            &opts,
            &DisaggConfig::colocated(4),
        );
        assert_eq!(disagg.report, base.report);
        assert_eq!(disagg.routed, base.routed);
        assert_eq!(disagg.log, DisaggLog::default());
        assert_eq!(disagg.report.disagg, None);
    }

    #[test]
    fn split_fleet_serves_everything_through_the_pool() {
        let sys = tiny_system();
        let trace = trace(80.0, 7, 2.0);
        let opts = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05));
        let cfg = DisaggConfig::split(2, 2, 64_000, handoff_cost()).with_prefill_chunk(32);
        let out = simulate_fleet_disagg(&sys, &trace, 80.0, &mut JoinShortestQueue, &opts, &cfg);
        assert_eq!(out.report.completed, trace.len());
        assert_eq!(out.report.submitted, trace.len());
        assert_eq!(out.log.handoffs, trace.len() as u64, "every 40-token decode hands off");
        assert_eq!(out.log.singles, 0);
        assert!(out.log.pool_peak_tokens <= cfg.pool_tokens);
        assert!(out.log.pool_peak_tokens > 0);
        // Arrivals only land on the prefill tier; decode groups only see
        // handoffs.
        assert!(out.routed.iter().all(|&g| g < 2));
        assert_eq!(out.groups[0].report.submitted + out.groups[1].report.submitted, trace.len());
        assert_eq!(
            out.groups[2].report.submitted + out.groups[3].report.submitted,
            out.log.handoffs as usize
        );
        let d = out.report.disagg.as_ref().expect("split run reports disagg");
        assert_eq!(d.handoffs, out.log.handoffs);
        assert_eq!((d.prefill_groups, d.decode_groups), (2, 2));
        assert!(d.handoff_latency.mean > Time::ZERO);
        assert!(d.pool_occupancy > 0.0);
        // Decode-token conservation across the phase split.
        assert_eq!(out.report.decode_tokens, trace.len() as u64 * 40);
        assert_eq!(out.report.prefill_tokens, trace.len() as u64 * 100);
    }

    #[test]
    fn split_fleet_is_thread_invariant() {
        let sys = tiny_system();
        let trace = trace(80.0, 19, 1.5);
        let cfg = DisaggConfig::split(2, 2, 32_000, handoff_cost()).with_prefill_chunk(64);
        let run = |threads: usize| {
            let opts =
                FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05)).with_threads(threads);
            simulate_fleet_disagg(&sys, &trace, 80.0, &mut JoinShortestQueue, &opts, &cfg)
        };
        let one = run(1);
        let four = run(4);
        assert!(one.log.handoffs > 0);
        assert_eq!(one.report, four.report);
        assert_eq!(one.routed, four.routed);
        assert_eq!(one.log, four.log);
    }

    #[test]
    fn tiny_pool_defers_publishes_but_loses_nothing() {
        let sys = tiny_system();
        let trace = trace(100.0, 3, 1.5);
        let opts = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05));
        // Room for barely more than one context at a time.
        let cfg = DisaggConfig::split(2, 2, 150, handoff_cost());
        let out = simulate_fleet_disagg(&sys, &trace, 100.0, &mut JoinShortestQueue, &opts, &cfg);
        assert_eq!(out.report.completed, trace.len());
        assert!(out.log.deferred > 0, "a 150-token pool must backpressure");
        assert!(out.log.pool_peak_tokens <= 150);
    }

    #[test]
    fn drained_decode_groups_steal_claims() {
        let sys = tiny_system();
        // Long decodes under load-blind round-robin: claims pile onto a
        // busy pick while another decode group sits drained.
        let w = Workload {
            lengths: cent_serving::LengthSampler::Fixed { prompt: 100, decode: 400 },
            ..Workload::chatbot(30.0, 29)
        };
        let trace = w.generate(Time::from_secs_f64(2.0), 4096);
        let opts = FleetOptions::new(5).with_epoch(Time::from_secs_f64(0.05));
        let mut roles = vec![GroupRole::Prefill; 2];
        roles.extend_from_slice(&[GroupRole::Decode; 3]);
        let cfg = DisaggConfig {
            roles,
            pool_tokens: 64_000,
            handoff_cost: handoff_cost(),
            prefill_chunk: None,
            durable_pool: true,
        };
        let mut rr = crate::router::RoundRobin::default();
        let out = simulate_fleet_disagg(&sys, &trace, 30.0, &mut rr, &opts, &cfg);
        assert_eq!(out.report.completed, trace.len());
        assert!(out.log.steals > 0, "round-robin decode routing must leave a drained group");
    }

    #[test]
    #[should_panic(expected = "epoch must be positive")]
    fn zero_epoch_is_rejected_on_a_split_fleet() {
        // A zero epoch used to be clamped to 1 ps, and a split fleet then
        // polled every picosecond while its prefill tier was busy.
        let trace: Vec<RequestSpec> = trace(20.0, 5, 1.0).into_iter().take(4).collect();
        let opts = FleetOptions { epoch: Time::ZERO, ..FleetOptions::new(2) };
        let cfg = DisaggConfig::split(1, 1, 64_000, handoff_cost());
        simulate_fleet_disagg(&tiny_system(), &trace, 20.0, &mut JoinShortestQueue, &opts, &cfg);
    }
}
