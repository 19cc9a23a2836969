//! Continuous-batching admission control over pipeline-stage slots.
//!
//! CENT's pipeline-parallel mapping gives each replica `batch` decode slots
//! (one query per pipeline stage, §5.1) and a fixed KV-cache budget: the
//! GDDR6 channels assigned to a block hold its weights plus the KV cache of
//! every resident query (§5.4). The [`ContinuousBatchScheduler`] admits
//! queued requests into slots as they free up — the vLLM-style iteration
//! policy, specialised to CENT's structural batch limit — and never lets a
//! replica's reservations exceed its budget. Two accounting modes
//! ([`KvMode`]):
//!
//! * **Full reservation** — a request's complete footprint (prompt + every
//!   decode token) is reserved at admission, so decode can never run out of
//!   KV space mid-flight. Safe but pessimistic: a 512/3584 chatbot query
//!   holds 4096 tokens of budget from its first instant.
//! * **Token-granular** — only the prompt (plus any recomputed progress) is
//!   reserved at admission; the reservation grows one token per generated
//!   token. Admission is optimistic against a configurable watermark, and
//!   when growth would exceed the budget the *youngest* resident on that
//!   replica is preempted: its KV is released and it re-enters the queue
//!   for recompute. This is the capacity-managed regime of §5.4 — occupancy
//!   in reality grows one token per step, so far more queries fit.
//!
//! Resident accounting lives in a dense lease table: [`Admission`] hands
//! the event engine a [`LeaseId`], and the per-token hot path
//! ([`grow`](ContinuousBatchScheduler::grow)) is an array index — no map
//! lookup — while each replica keeps its residents in admission order.
//!
//! Requests carry a [`PriorityClass`](crate::PriorityClass): admission
//! serves lower class values first (the policy orders within a class), and
//! eviction victims are picked lowest-priority-class-first, youngest within
//! the class — with a single class this degenerates to the youngest
//! resident, the pre-class behaviour. What happens to a victim (recompute
//! vs swap to CXL host memory) is the event loop's decision
//! ([`KvSpillMode`](crate::KvSpillMode)); the scheduler only selects and
//! releases.

use cent_compiler::SystemMapping;
use cent_model::ModelConfig;
use cent_types::consts::CHANNEL_CAPACITY;
use cent_types::Time;

use crate::policy::{Fifo, PolicyContext, SchedulingPolicy};
use crate::queue::{QueuedRequest, RequestId, RequestQueue, RequestSpec};

/// KV-cache capacity of one pipeline replica, in context tokens.
///
/// Derived from the mapping: the blocks of one pipeline stage live in
/// `channels_per_block × tp_degree` GDDR6 channels (one block under PP,
/// the whole group's blocks under TP and Hybrid) that must hold their
/// weights; the remainder holds KV cache. All resident queries share that
/// per-stage pool, so the binding constraint is the sum of their contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvBudget {
    /// Total context tokens the per-stage KV pool can hold.
    pub tokens: u64,
}

impl KvBudget {
    /// Computes the per-replica budget for `mapping`.
    pub fn from_mapping(cfg: &ModelConfig, mapping: &SystemMapping) -> Self {
        let channels = (mapping.channels_per_block * mapping.tp_degree) as u64;
        let capacity = CHANNEL_CAPACITY.as_bytes() * channels;
        let blocks = mapping.blocks_per_stage as u64;
        let weights = cfg.block_weight_bytes().as_bytes() * blocks;
        let kv_space = capacity.saturating_sub(weights);
        let per_token = (cfg.kv_bytes_per_token_per_block().as_bytes() * blocks).max(1);
        KvBudget { tokens: kv_space / per_token }
    }

    /// A budget fixed in tokens (used by tests and what-if sweeps).
    pub fn tokens(tokens: u64) -> Self {
        KvBudget { tokens }
    }
}

/// How KV-cache occupancy is accounted while a request is resident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KvMode {
    /// Reserve `prompt + decode` tokens at admission; never preempt.
    FullReservation,
    /// Reserve only the current context at admission and grow one token per
    /// generated token; preempt the youngest resident on exhaustion.
    TokenGranular {
        /// Fraction of the budget below which new admissions are accepted.
        /// Growth of already-resident requests may use the full budget; the
        /// gap between watermark and budget is headroom that absorbs growth
        /// before preemption kicks in. Clamped to `(0, 1]`.
        admission_watermark: f64,
    },
}

impl KvMode {
    /// Token-granular accounting with the default 0.9 admission watermark.
    pub fn token_granular() -> Self {
        KvMode::TokenGranular { admission_watermark: 0.9 }
    }
}

/// Static configuration of the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Independent pipeline replicas (data parallelism).
    pub replicas: usize,
    /// Decode slots per replica (= pipeline stages under PP, 1 under TP).
    pub slots_per_replica: usize,
    /// KV budget per replica.
    pub kv_budget: KvBudget,
    /// KV accounting mode.
    pub kv: KvMode,
}

/// Handle of one resident request's lease in the scheduler's dense lease
/// table. Returned by [`Admission`]; the per-token hot path
/// ([`grow`](ContinuousBatchScheduler::grow),
/// [`complete`](ContinuousBatchScheduler::complete)) indexes the table
/// directly instead of walking an id-keyed map. Handles are reused after
/// release, so they identify a lease only while it is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(u32);

impl LeaseId {
    /// Index into dense side tables kept by the event engine.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where an admitted request landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The admitted request, with any resume state it carried.
    pub req: QueuedRequest,
    /// Replica index it was placed on.
    pub replica: usize,
    /// Lease handle for the hot-path accounting calls.
    pub lease: LeaseId,
    /// Admission instant.
    pub at: Time,
}

/// A preemption victim evicted by [`grow`](ContinuousBatchScheduler::grow):
/// its lease is already released; the event engine must drop its resident
/// state and [`requeue`](ContinuousBatchScheduler::requeue) the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preemption {
    /// The lease that was evicted (released; the handle may be reused).
    pub lease: LeaseId,
    /// The request that held it.
    pub id: RequestId,
}

#[derive(Debug, Clone, Default)]
struct ReplicaState {
    busy_slots: usize,
    kv_reserved: u64,
    /// Resident leases in admission order — the youngest (preemption
    /// victim) is always the last element.
    residents: Vec<LeaseId>,
}

/// Accounting entry for one resident request.
#[derive(Debug, Clone, Copy)]
struct Lease {
    id: RequestId,
    replica: usize,
    /// Tokens currently reserved for this request.
    kv_now: u64,
    /// Priority class, for victim selection (larger = evicted first).
    class: u8,
}

/// Policy-driven continuous-batching scheduler over replicated pipelines.
#[derive(Debug)]
pub struct ContinuousBatchScheduler {
    cfg: SchedulerConfig,
    policy: Box<dyn SchedulingPolicy>,
    queue: RequestQueue,
    replicas: Vec<ReplicaState>,
    /// Dense lease table; freed slots are recycled LIFO.
    leases: Vec<Option<Lease>>,
    free_leases: Vec<LeaseId>,
    /// Running totals so per-event occupancy sampling is O(1), not
    /// O(replicas).
    busy_total: usize,
    kv_total: u64,
    rejected: Vec<RequestSpec>,
    peak_kv: u64,
    admissions: u64,
    preemptions: u64,
}

impl ContinuousBatchScheduler {
    /// Creates an idle scheduler with the FIFO policy.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` or `slots_per_replica` is zero.
    pub fn new(cfg: SchedulerConfig) -> Self {
        assert!(cfg.replicas > 0, "need at least one replica");
        assert!(cfg.slots_per_replica > 0, "need at least one slot");
        ContinuousBatchScheduler {
            queue: RequestQueue::new(),
            policy: Box::new(Fifo),
            replicas: vec![ReplicaState::default(); cfg.replicas],
            leases: Vec::new(),
            free_leases: Vec::new(),
            busy_total: 0,
            kv_total: 0,
            rejected: Vec::new(),
            peak_kv: 0,
            admissions: 0,
            preemptions: 0,
            cfg,
        }
    }

    /// Replaces the admission-ordering policy.
    pub fn with_policy(mut self, policy: Box<dyn SchedulingPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Offers an arriving request. Requests whose *complete* KV footprint
    /// exceeds the per-replica budget can never finish in either mode and
    /// are rejected up front.
    pub fn enqueue(&mut self, spec: RequestSpec) {
        if spec.kv_tokens() > self.cfg.kv_budget.tokens {
            self.rejected.push(spec);
        } else {
            self.queue.push(QueuedRequest::fresh(spec));
        }
    }

    /// Returns a preempted request (with its resume state) to the queue.
    pub fn requeue(&mut self, req: QueuedRequest) {
        debug_assert!(req.spec.kv_tokens() <= self.cfg.kv_budget.tokens);
        self.queue.push(req);
    }

    /// Tokens a request reserves the instant it is admitted under the
    /// configured mode.
    fn admission_kv(&self, req: &QueuedRequest) -> u64 {
        match self.cfg.kv {
            KvMode::FullReservation => req.spec.kv_tokens(),
            KvMode::TokenGranular { .. } => req.resident_kv(),
        }
    }

    /// Reservation level above which admissions stop.
    fn admission_limit(&self) -> u64 {
        match self.cfg.kv {
            KvMode::FullReservation => self.cfg.kv_budget.tokens,
            KvMode::TokenGranular { admission_watermark } => {
                let w = admission_watermark.clamp(f64::MIN_POSITIVE, 1.0);
                (self.cfg.kv_budget.tokens as f64 * w).floor() as u64
            }
        }
    }

    /// Stores a new lease, reusing a freed slot when one exists.
    fn alloc_lease(&mut self, lease: Lease) -> LeaseId {
        match self.free_leases.pop() {
            Some(h) => {
                debug_assert!(self.leases[h.index()].is_none(), "reusing a live lease slot");
                self.leases[h.index()] = Some(lease);
                h
            }
            None => {
                self.leases.push(Some(lease));
                LeaseId((self.leases.len() - 1) as u32)
            }
        }
    }

    /// Releases `lease`: removes it from its replica's accounting and
    /// recycles the slot. Returns the released entry.
    fn release(&mut self, lease: LeaseId) -> Lease {
        let l = self.leases[lease.index()].take().expect("releasing a non-resident lease");
        let r = &mut self.replicas[l.replica];
        // Victims pop from the tail; completions remove from the middle.
        // `rposition` because the common (preemption) case is the youngest.
        let pos = r.residents.iter().rposition(|&x| x == lease).expect("lease on its replica");
        r.residents.remove(pos);
        assert!(r.busy_slots > 0, "releasing on an idle replica");
        r.busy_slots -= 1;
        r.kv_reserved =
            r.kv_reserved.checked_sub(l.kv_now).expect("KV release exceeds reservation");
        self.busy_total -= 1;
        self.kv_total -= l.kv_now;
        self.free_leases.push(lease);
        l
    }

    /// Admits waiting requests in `(priority class, policy priority)` order
    /// while the top pick fits some replica (a free slot and enough KV
    /// headroom under the admission limit; an idle replica always accepts a
    /// feasible request, which guarantees evicted work eventually resumes).
    /// The class dominates, so background traffic never overtakes
    /// interactive traffic at admission; the policy orders within a class.
    /// Head-of-line blocking on that order is deliberate: it is what makes
    /// saturation fair.
    ///
    /// Requests enqueued since the last call are keyed here, once, with
    /// `ctx`, and filed into the queue's ordered index; each admission then
    /// pops the index head, so a call costs `O(log n)` per newly keyed or
    /// admitted request, independent of queue depth. Keying once is exact
    /// because [`SchedulingPolicy`] priorities are stable between admission
    /// instants; a preempted request is keyed afresh when
    /// [`requeue`](Self::requeue) returns it.
    ///
    /// The admissions land in `admitted`, in admission order. It is
    /// cleared first and is a caller-owned buffer that the event loops
    /// reuse across admission instants, as with [`grow`](Self::grow).
    pub fn admit_ready(&mut self, ctx: &PolicyContext, admitted: &mut Vec<Admission>) {
        admitted.clear();
        let policy = &self.policy;
        self.queue.index_pending(|q| policy.priority(q, ctx));
        while let Some(head) = self.queue.peek() {
            let need = self.admission_kv(head);
            let limit = self.admission_limit();
            // Least-loaded replica that can take the pick; ties on busy
            // slots break on KV reserved so reservations spread evenly.
            let slot = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    r.busy_slots < self.cfg.slots_per_replica
                        && (r.kv_reserved + need <= limit || r.kv_reserved == 0)
                })
                .min_by_key(|(i, r)| (r.busy_slots, r.kv_reserved, *i));
            let Some((ridx, _)) = slot else {
                break;
            };
            let req = self.queue.pop().expect("peeked head is indexed");
            let lease = self.alloc_lease(Lease {
                id: req.spec.id,
                replica: ridx,
                kv_now: need,
                class: req.spec.class.0,
            });
            let r = &mut self.replicas[ridx];
            r.busy_slots += 1;
            r.kv_reserved += need;
            r.residents.push(lease);
            assert!(
                r.kv_reserved <= self.cfg.kv_budget.tokens,
                "admission overcommitted KV: {} > {}",
                r.kv_reserved,
                self.cfg.kv_budget.tokens
            );
            self.peak_kv = self.peak_kv.max(r.kv_reserved);
            self.busy_total += 1;
            self.kv_total += need;
            self.admissions += 1;
            admitted.push(Admission { req, replica: ridx, lease, at: ctx.now });
        }
    }

    /// Extends a resident request's reservation by one generated token.
    ///
    /// In full-reservation mode this is a no-op (the token was paid for at
    /// admission). In token-granular mode, if the replica's pool is
    /// exhausted residents are evicted — lowest priority class first,
    /// youngest within the class — their accounting released here and
    /// appended to `victims` as [`Preemption`]s so the event loop can
    /// decide their fate (recompute requeue or swap to the CXL host pool)
    /// — until the token fits. If the growing request is itself the
    /// selected victim, it is in `victims` and the token must not be
    /// emitted.
    ///
    /// `victims` is cleared first and is a caller-owned scratch buffer:
    /// the event loops allocate it once per run and reuse it across every
    /// growth call, so the per-token hot path never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `lease` is not live.
    pub fn grow(&mut self, lease: LeaseId, victims: &mut Vec<Preemption>) {
        victims.clear();
        if matches!(self.cfg.kv, KvMode::FullReservation) {
            assert!(self.leases[lease.index()].is_some(), "growing a non-resident request");
            return;
        }
        let replica = self.leases[lease.index()].expect("growing a non-resident request").replica;
        while self.replicas[replica].kv_reserved + 1 > self.cfg.kv_budget.tokens {
            // Lowest-priority class first (largest class value), youngest
            // within the class (largest admission-order index). With one
            // class this is exactly the youngest resident.
            let victim = *self.replicas[replica]
                .residents
                .iter()
                .enumerate()
                .max_by_key(|(i, l)| {
                    (self.leases[l.index()].expect("resident lease is live").class, *i)
                })
                .map(|(_, l)| l)
                .expect("exhausted replica has residents");
            let released = self.release(victim);
            self.preemptions += 1;
            victims.push(Preemption { lease: victim, id: released.id });
            if victim == lease {
                // The grower was the selected victim: it evicted itself and
                // must resume later; nothing grew.
                return;
            }
        }
        let l = self.leases[lease.index()].as_mut().expect("grower survived");
        l.kv_now += 1;
        let r = &mut self.replicas[replica];
        r.kv_reserved += 1;
        assert!(r.kv_reserved <= self.cfg.kv_budget.tokens, "growth overcommitted KV");
        self.peak_kv = self.peak_kv.max(r.kv_reserved);
        self.kv_total += 1;
    }

    /// Extends a resident request's reservation by `n` generated tokens in
    /// one batched update — the span-fast-forward equivalent of `n`
    /// uneventful [`grow`](Self::grow) calls. The caller must have proven
    /// headroom (via [`kv_headroom`](Self::kv_headroom) and its exhaustion
    /// forecast): batched growth never preempts, and overcommitting the
    /// budget panics. A no-op in full-reservation mode, like `grow`.
    ///
    /// # Panics
    ///
    /// Panics if `lease` is not live or the growth exceeds the budget.
    pub fn grow_n(&mut self, lease: LeaseId, n: u64) {
        if n == 0 || matches!(self.cfg.kv, KvMode::FullReservation) {
            assert!(self.leases[lease.index()].is_some(), "growing a non-resident request");
            return;
        }
        let l = self.leases[lease.index()].as_mut().expect("growing a non-resident request");
        l.kv_now += n;
        let r = &mut self.replicas[l.replica];
        r.kv_reserved += n;
        assert!(r.kv_reserved <= self.cfg.kv_budget.tokens, "batched growth overcommitted KV");
        self.peak_kv = self.peak_kv.max(r.kv_reserved);
        self.kv_total += n;
    }

    /// Tokens of growth `replica` can absorb before its next growth call
    /// would preempt — the input to the span engine's exhaustion-time
    /// forecast over the replica's resident list (residents grow one token
    /// per step, so the forecast turns this headroom into an instant).
    pub fn kv_headroom(&self, replica: usize) -> u64 {
        self.cfg.kv_budget.tokens - self.replicas[replica].kv_reserved
    }

    /// Releases the slot and KV reservation of a finished request.
    ///
    /// # Panics
    ///
    /// Panics if `lease` is not live.
    pub fn complete(&mut self, lease: LeaseId) {
        self.release(lease);
    }

    /// Removes and returns the entire waiting set, in no particular order —
    /// crash teardown. The caller is responsible for releasing in-flight
    /// leases separately (via [`complete`](Self::complete)); this only
    /// empties the queue.
    pub fn drain_waiting(&mut self) -> Vec<QueuedRequest> {
        self.queue.drain()
    }

    /// Requests currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Largest queue depth ever observed.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak_depth()
    }

    /// Requests currently occupying slots, across all replicas.
    pub fn in_flight(&self) -> usize {
        self.busy_total
    }

    /// Total decode slots across replicas.
    pub fn total_slots(&self) -> usize {
        self.cfg.replicas * self.cfg.slots_per_replica
    }

    /// KV tokens currently reserved on `replica`.
    pub fn kv_reserved(&self, replica: usize) -> u64 {
        self.replicas[replica].kv_reserved
    }

    /// KV tokens currently reserved across all replicas.
    pub fn total_kv_reserved(&self) -> u64 {
        self.kv_total
    }

    /// Largest per-replica KV reservation ever observed.
    pub fn peak_kv_reserved(&self) -> u64 {
        self.peak_kv
    }

    /// Per-replica KV budget in tokens.
    pub fn kv_budget_tokens(&self) -> u64 {
        self.cfg.kv_budget.tokens
    }

    /// Requests rejected because they can never fit the KV budget.
    pub fn rejected(&self) -> &[RequestSpec] {
        &self.rejected
    }

    /// Total admissions so far (re-admissions after preemption included).
    pub fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Total preemption events so far.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ShortestRemainingDecode;
    use crate::queue::PriorityClass;
    use cent_compiler::Strategy;

    fn spec(id: u64, prompt: usize, decode: usize) -> RequestSpec {
        RequestSpec {
            id: RequestId(id),
            arrival: Time::from_us(id),
            prompt,
            decode,
            class: PriorityClass::default(),
            session: crate::queue::SessionId(id),
        }
    }

    fn classed(id: u64, prompt: usize, decode: usize, class: u8) -> RequestSpec {
        RequestSpec { class: PriorityClass(class), ..spec(id, prompt, decode) }
    }

    fn sched(replicas: usize, slots: usize, kv: u64) -> ContinuousBatchScheduler {
        ContinuousBatchScheduler::new(SchedulerConfig {
            replicas,
            slots_per_replica: slots,
            kv_budget: KvBudget::tokens(kv),
            kv: KvMode::FullReservation,
        })
    }

    fn token_sched(replicas: usize, slots: usize, kv: u64) -> ContinuousBatchScheduler {
        ContinuousBatchScheduler::new(SchedulerConfig {
            replicas,
            slots_per_replica: slots,
            kv_budget: KvBudget::tokens(kv),
            kv: KvMode::TokenGranular { admission_watermark: 1.0 },
        })
    }

    fn ctx(us: u64) -> PolicyContext {
        PolicyContext { now: Time::from_us(us), token_interval: Time::from_us(1) }
    }

    /// Single-instant admission with a throwaway buffer (the event loops
    /// reuse one buffer across instants; tests want the admissions back).
    fn admit(s: &mut ContinuousBatchScheduler, ctx: &PolicyContext) -> Vec<Admission> {
        let mut admitted = Vec::new();
        s.admit_ready(ctx, &mut admitted);
        admitted
    }

    /// Single-call growth with a throwaway scratch buffer (the event loops
    /// reuse one buffer across calls; tests want the victims back).
    fn grow(s: &mut ContinuousBatchScheduler, lease: LeaseId) -> Vec<Preemption> {
        let mut victims = Vec::new();
        s.grow(lease, &mut victims);
        victims
    }

    #[test]
    fn kv_budget_never_overcommitted() {
        // 3 slots but KV for only two resident 10-token requests.
        let mut s = sched(1, 3, 25);
        for i in 0..6 {
            s.enqueue(spec(i, 6, 4));
        }
        let first = admit(&mut s, &ctx(0));
        assert_eq!(first.len(), 2, "third request must not overcommit KV");
        assert_eq!(s.kv_reserved(0), 20);
        assert!(s.peak_kv_reserved() <= s.kv_budget_tokens());
        // Finishing one frees exactly one admission's worth.
        s.complete(first[0].lease);
        let next = admit(&mut s, &ctx(1));
        assert_eq!(next.len(), 1);
        assert!(s.kv_reserved(0) <= 25);
    }

    #[test]
    fn fifo_order_under_saturation() {
        let mut s = sched(1, 2, u64::MAX);
        for i in 0..10 {
            s.enqueue(spec(i, 4, 4));
        }
        let mut order = Vec::new();
        let mut resident: Vec<Admission> = admit(&mut s, &ctx(0));
        order.extend(resident.iter().map(|a| a.req.spec.id.0));
        let mut clock = 1u64;
        while !resident.is_empty() {
            let done = resident.remove(0);
            s.complete(done.lease);
            let mut newly = admit(&mut s, &ctx(clock));
            order.extend(newly.iter().map(|a| a.req.spec.id.0));
            resident.append(&mut newly);
            clock += 1;
        }
        // Admission order is exactly arrival order.
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn srd_policy_reorders_admissions() {
        let mut s = sched(1, 1, u64::MAX).with_policy(Box::new(ShortestRemainingDecode));
        s.enqueue(spec(0, 4, 100));
        s.enqueue(spec(1, 4, 5));
        s.enqueue(spec(2, 4, 50));
        let first = admit(&mut s, &ctx(0));
        assert_eq!(first[0].req.spec.id, RequestId(1), "shortest decode first");
        s.complete(first[0].lease);
        let second = admit(&mut s, &ctx(1));
        assert_eq!(second[0].req.spec.id, RequestId(2));
    }

    #[test]
    fn oversized_requests_are_rejected_not_blocking() {
        let mut s = sched(1, 2, 100);
        s.enqueue(spec(0, 400, 400)); // can never fit
        s.enqueue(spec(1, 10, 10));
        assert_eq!(s.rejected().len(), 1);
        let adm = admit(&mut s, &ctx(0));
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].req.spec.id, RequestId(1));
    }

    #[test]
    fn empty_queue_is_idle_and_correct() {
        let mut s = sched(2, 4, 1000);
        assert!(admit(&mut s, &ctx(0)).is_empty());
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.peak_kv_reserved(), 0);
    }

    #[test]
    fn replicas_balance_load() {
        let mut s = sched(2, 4, u64::MAX);
        for i in 0..6 {
            s.enqueue(spec(i, 4, 4));
        }
        let adm = admit(&mut s, &ctx(0));
        assert_eq!(adm.len(), 6);
        let on_r0 = adm.iter().filter(|a| a.replica == 0).count();
        assert_eq!(on_r0, 3, "least-loaded placement should balance");
    }

    #[test]
    fn placement_ties_break_on_kv_reserved() {
        // Two replicas, equal busy-slot counts after the first two
        // admissions, but very different reservations: the light request
        // lands on replica 0, the heavy one on replica 1, and the third
        // must go where less KV is piled up (replica 0).
        let mut s = sched(2, 4, u64::MAX);
        s.enqueue(spec(0, 10, 10)); // 20 tokens
        s.enqueue(spec(1, 500, 500)); // 1000 tokens
        s.enqueue(spec(2, 10, 10));
        let adm = admit(&mut s, &ctx(0));
        assert_eq!(adm.len(), 3);
        assert_eq!(adm[0].replica, 0);
        assert_eq!(adm[1].replica, 1);
        assert_eq!(adm[2].replica, 0, "tie on busy slots must break on kv_reserved");
    }

    #[test]
    fn token_granular_reserves_prompt_and_grows() {
        let mut s = token_sched(1, 4, 100);
        s.enqueue(spec(0, 10, 50));
        let adm = admit(&mut s, &ctx(0));
        assert_eq!(adm.len(), 1);
        assert_eq!(s.kv_reserved(0), 10, "only the prompt is reserved");
        for _ in 0..50 {
            assert!(grow(&mut s, adm[0].lease).is_empty());
        }
        assert_eq!(s.kv_reserved(0), 60);
        s.complete(adm[0].lease);
        assert_eq!(s.kv_reserved(0), 0);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.total_kv_reserved(), 0);
    }

    #[test]
    fn exhaustion_preempts_youngest_resident() {
        // Budget 30: two requests admitted (10 each), then growth of the
        // older one exhausts the pool and evicts the younger.
        let mut s = token_sched(1, 4, 30);
        s.enqueue(spec(0, 10, 18));
        s.enqueue(spec(1, 10, 18));
        let adm = admit(&mut s, &ctx(0));
        assert_eq!(adm.len(), 2);
        assert_eq!(s.kv_reserved(0), 20);
        // Grow the elder to the budget.
        for _ in 0..10 {
            assert!(grow(&mut s, adm[0].lease).is_empty());
        }
        assert_eq!(s.kv_reserved(0), 30);
        // One more token must evict request 1 (the youngest).
        let victims = grow(&mut s, adm[0].lease);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].id, RequestId(1));
        assert_eq!(victims[0].lease, adm[1].lease);
        assert_eq!(s.preemptions(), 1);
        assert_eq!(s.kv_reserved(0), 21);
        assert_eq!(s.in_flight(), 1);
    }

    #[test]
    fn youngest_grower_preempts_itself() {
        let mut s = token_sched(1, 4, 25);
        s.enqueue(spec(0, 10, 14));
        s.enqueue(spec(1, 10, 14));
        let adm = admit(&mut s, &ctx(0));
        assert_eq!(adm.len(), 2);
        for _ in 0..5 {
            assert!(grow(&mut s, adm[0].lease).is_empty());
        }
        // Pool is full (25); the *younger* request asks for growth and must
        // sacrifice itself rather than evict its elder.
        let victims = grow(&mut s, adm[1].lease);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].id, RequestId(1));
        assert_eq!(s.in_flight(), 1);
        assert_eq!(s.kv_reserved(0), 15);
        // It resumes from the queue once readmitted.
        let mut q = QueuedRequest::fresh(spec(1, 10, 14));
        q.progress = 0;
        q.preemptions = 1;
        s.requeue(q);
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn eviction_picks_lowest_class_before_youngest() {
        // Three residents: an interactive elder, a *background* middle and
        // an interactive youngest. Exhaustion must evict the background one
        // even though it is not the youngest; the next eviction falls back
        // to the youngest of the survivors.
        let mut s = token_sched(1, 4, 30);
        s.enqueue(classed(0, 10, 18, 0));
        s.enqueue(classed(1, 10, 18, 1));
        s.enqueue(classed(2, 10, 18, 0));
        let adm = admit(&mut s, &ctx(0));
        assert_eq!(adm.len(), 3);
        assert_eq!(s.kv_reserved(0), 30);
        let victims = grow(&mut s, adm[0].lease);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].id, RequestId(1), "background resident evicted first");
        // Fill the pool again and force another eviction: now the youngest
        // interactive resident (request 2) goes.
        for _ in 0..9 {
            assert!(grow(&mut s, adm[0].lease).is_empty());
        }
        let victims = grow(&mut s, adm[0].lease);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].id, RequestId(2));
        assert_eq!(s.in_flight(), 1);
    }

    #[test]
    fn admission_serves_classes_before_policy_order() {
        // A later-arriving interactive request overtakes an earlier
        // background one; within a class FIFO order is preserved.
        let mut s = sched(1, 1, u64::MAX);
        s.enqueue(classed(0, 4, 4, 1));
        s.enqueue(classed(1, 4, 4, 0));
        s.enqueue(classed(2, 4, 4, 1));
        let mut order = Vec::new();
        for clock in 0..3 {
            let adm = admit(&mut s, &ctx(clock));
            assert_eq!(adm.len(), 1);
            order.push(adm[0].req.spec.id.0);
            s.complete(adm[0].lease);
        }
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn lease_handles_are_recycled_deterministically() {
        // Freed slots are reused LIFO: after completing both residents, the
        // next two admissions get the same handles back in reverse order.
        let mut s = sched(1, 4, u64::MAX);
        s.enqueue(spec(0, 4, 4));
        s.enqueue(spec(1, 4, 4));
        let first = admit(&mut s, &ctx(0));
        s.complete(first[0].lease);
        s.complete(first[1].lease);
        s.enqueue(spec(2, 4, 4));
        s.enqueue(spec(3, 4, 4));
        let second = admit(&mut s, &ctx(1));
        assert_eq!(second[0].lease, first[1].lease);
        assert_eq!(second[1].lease, first[0].lease);
    }

    #[test]
    fn watermark_gates_admission_but_idle_replica_accepts() {
        let mut s = ContinuousBatchScheduler::new(SchedulerConfig {
            replicas: 1,
            slots_per_replica: 4,
            kv_budget: KvBudget::tokens(100),
            kv: KvMode::TokenGranular { admission_watermark: 0.5 },
        });
        // 60-token prompt exceeds the 50-token watermark but the replica is
        // idle, so it must still be admitted (feasibility guarantee).
        s.enqueue(spec(0, 60, 10));
        let adm = admit(&mut s, &ctx(0));
        assert_eq!(adm.len(), 1);
        // A second 20-token prompt would land above the watermark: blocked.
        s.enqueue(spec(1, 20, 10));
        assert!(admit(&mut s, &ctx(1)).is_empty());
        s.complete(adm[0].lease);
        assert_eq!(admit(&mut s, &ctx(2)).len(), 1);
    }

    #[test]
    fn blocked_head_preserves_admission_order() {
        // One slot, occupied: every admission attempt blocks on the index
        // head. Re-polls must not change what gets admitted — later
        // arrivals that outrank the blocked head (lower class) still win
        // once capacity frees up, and same-class arrivals stay behind it.
        let mut s = sched(1, 1, u64::MAX);
        s.enqueue(classed(0, 4, 4, 0));
        let first = admit(&mut s, &ctx(0));
        assert_eq!(first.len(), 1);
        s.enqueue(classed(1, 4, 4, 1));
        assert!(admit(&mut s, &ctx(1)).is_empty(), "slot is busy");
        // Re-poll without any release: the head is still blocked.
        assert!(admit(&mut s, &ctx(2)).is_empty());
        assert!(admit(&mut s, &ctx(3)).is_empty());
        // A higher-class (interactive) arrival outranks the blocked head
        // and becomes the new index head; still no capacity.
        s.enqueue(classed(2, 4, 4, 0));
        assert!(admit(&mut s, &ctx(4)).is_empty());
        // Capacity frees: the interactive request is admitted first even
        // though the background one was the blocked head earlier.
        s.complete(first[0].lease);
        let adm = admit(&mut s, &ctx(5));
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].req.spec.id, RequestId(2));
        s.complete(adm[0].lease);
        let adm = admit(&mut s, &ctx(6));
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].req.spec.id, RequestId(1));
    }

    #[test]
    fn blocked_head_survives_same_rank_arrivals() {
        // New arrivals behind a blocked head (same class, later FIFO order)
        // must neither unblock it nor get admitted out of order.
        let mut s = sched(1, 1, u64::MAX);
        s.enqueue(spec(0, 4, 4));
        let first = admit(&mut s, &ctx(0));
        assert_eq!(first.len(), 1);
        s.enqueue(spec(1, 4, 4));
        assert!(admit(&mut s, &ctx(1)).is_empty());
        for i in 2..20 {
            s.enqueue(spec(i, 4, 4));
            assert!(admit(&mut s, &ctx(i)).is_empty());
        }
        s.complete(first[0].lease);
        let adm = admit(&mut s, &ctx(20));
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].req.spec.id, RequestId(1), "FIFO head admitted after release");
    }

    #[test]
    fn budget_from_llama70b_mapping_is_sane() {
        let cfg = ModelConfig::llama2_70b();
        let mapping = SystemMapping::plan(&cfg, 32, Strategy::PipelineParallel).unwrap();
        let budget = KvBudget::from_mapping(&cfg, &mapping);
        // 10 channels × 512 MiB hold a ~1.6 GiB block plus KV; the pool must
        // at least cover the paper's operating point (80 queries × 4096 ctx)
        // and stay below the raw channel capacity bound.
        let paper_point = 80 * 4096;
        assert!(budget.tokens >= paper_point, "budget {} tokens", budget.tokens);
        let bound =
            10 * CHANNEL_CAPACITY.as_bytes() / cfg.kv_bytes_per_token_per_block().as_bytes();
        assert!(budget.tokens < bound);
    }

    #[test]
    fn tp_budget_accounts_for_all_layers() {
        // Under pure TP the device group holds every layer's weights and KV,
        // so the per-context-token cost is `layers` times the per-block one.
        let cfg = ModelConfig::llama2_70b();
        let mapping = SystemMapping::plan(&cfg, 32, Strategy::TensorParallel).unwrap();
        let budget = KvBudget::from_mapping(&cfg, &mapping);
        let capacity = 32 * 32 * CHANNEL_CAPACITY.as_bytes();
        let weights = cfg.block_weight_bytes().as_bytes() * cfg.layers as u64;
        let expect = (capacity - weights)
            / (cfg.kv_bytes_per_token_per_block().as_bytes() * cfg.layers as u64);
        assert_eq!(budget.tokens, expect);
        // Physical sanity: the budgeted KV plus weights fit the raw capacity.
        let kv_bytes =
            budget.tokens * cfg.kv_bytes_per_token_per_block().as_bytes() * cfg.layers as u64;
        assert!(weights + kv_bytes <= capacity);
    }
}
