//! The scheduler's ordered admission index against the algorithm it
//! replaced.
//!
//! `ContinuousBatchScheduler` keys each waiting request once, when it
//! enters the queue, and admits by popping the head of an ordered index.
//! The oracle below is the brute-force version: a `Vec` waiting set that is
//! rescanned for the smallest `(class, policy priority, arrival, id)` key —
//! recomputed with the current context — before every pick. A seeded
//! generator drives both through the same interleaving of `enqueue`,
//! `admit_ready`, `grow` (with preemption and requeue), `complete` and
//! `drain_waiting` calls across policies, priority classes and KV modes,
//! and every call must agree: admitted requests, replicas and lease
//! handles, preemption victims, queue depth and KV accounting.
//!
//! A second test counts `priority()` calls on a saturated trace to prove
//! the scheduler keys each enqueued request exactly once, however deep the
//! queue grows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cent_model::ModelConfig;
use cent_serving::{
    ContinuousBatchScheduler, DeadlineAware, Fifo, KvBudget, KvMode, LeaseId, LengthSampler,
    PolicyContext, PriorityClass, QueuedRequest, RequestId, RequestSpec, SchedulerConfig,
    SchedulingPolicy, ServeOptions, ServingSystem, SessionId, ShortestRemainingDecode, Workload,
};
use cent_types::{Rng64, Time};

const CASES: u64 = 300;
const OPS_PER_CASE: usize = 800;

/// A resident in the oracle's lease table.
#[derive(Debug, Clone, Copy)]
struct OracleLease {
    id: RequestId,
    replica: usize,
    kv_now: u64,
    class: u8,
}

#[derive(Debug, Clone, Default)]
struct OracleReplica {
    busy_slots: usize,
    kv_reserved: u64,
    /// Lease indices in admission order.
    residents: Vec<usize>,
}

/// The scheduler as it was before the admission index: a `Vec` queue and a
/// full-key minimum scan per admission.
struct Oracle {
    cfg: SchedulerConfig,
    policy: Box<dyn SchedulingPolicy>,
    waiting: Vec<QueuedRequest>,
    peak_depth: usize,
    replicas: Vec<OracleReplica>,
    leases: Vec<Option<OracleLease>>,
    free_leases: Vec<usize>,
    admissions: u64,
    preemptions: u64,
}

impl Oracle {
    fn new(cfg: SchedulerConfig, policy: Box<dyn SchedulingPolicy>) -> Self {
        Oracle {
            cfg,
            policy,
            waiting: Vec::new(),
            peak_depth: 0,
            replicas: vec![OracleReplica::default(); cfg.replicas],
            leases: Vec::new(),
            free_leases: Vec::new(),
            admissions: 0,
            preemptions: 0,
        }
    }

    fn push(&mut self, req: QueuedRequest) {
        self.waiting.push(req);
        self.peak_depth = self.peak_depth.max(self.waiting.len());
    }

    /// Queues `spec`, or returns `false` if it can never fit the budget.
    fn enqueue(&mut self, spec: RequestSpec) -> bool {
        let fits = spec.kv_tokens() <= self.cfg.kv_budget.tokens;
        if fits {
            self.push(QueuedRequest::fresh(spec));
        }
        fits
    }

    fn admission_kv(&self, req: &QueuedRequest) -> u64 {
        match self.cfg.kv {
            KvMode::FullReservation => req.spec.kv_tokens(),
            KvMode::TokenGranular { .. } => req.resident_kv(),
        }
    }

    fn admission_limit(&self) -> u64 {
        match self.cfg.kv {
            KvMode::FullReservation => self.cfg.kv_budget.tokens,
            KvMode::TokenGranular { admission_watermark } => {
                let w = admission_watermark.clamp(f64::MIN_POSITIVE, 1.0);
                (self.cfg.kv_budget.tokens as f64 * w).floor() as u64
            }
        }
    }

    /// Admitted `(request, replica, lease index)` in admission order.
    fn admit_ready(&mut self, ctx: &PolicyContext) -> Vec<(QueuedRequest, usize, usize)> {
        let mut admitted = Vec::new();
        loop {
            let policy = &self.policy;
            let Some(idx) = (0..self.waiting.len()).min_by_key(|&i| {
                let q = &self.waiting[i];
                (q.spec.class, policy.priority(q, ctx), q.spec.arrival, q.spec.id)
            }) else {
                break;
            };
            let need = self.admission_kv(&self.waiting[idx]);
            let limit = self.admission_limit();
            let slot = (0..self.replicas.len())
                .filter(|&i| {
                    let r = &self.replicas[i];
                    r.busy_slots < self.cfg.slots_per_replica
                        && (r.kv_reserved + need <= limit || r.kv_reserved == 0)
                })
                .min_by_key(|&i| (self.replicas[i].busy_slots, self.replicas[i].kv_reserved, i));
            let Some(replica) = slot else {
                break;
            };
            let req = self.waiting.remove(idx);
            let lease =
                OracleLease { id: req.spec.id, replica, kv_now: need, class: req.spec.class.0 };
            let handle = match self.free_leases.pop() {
                Some(h) => {
                    self.leases[h] = Some(lease);
                    h
                }
                None => {
                    self.leases.push(Some(lease));
                    self.leases.len() - 1
                }
            };
            let r = &mut self.replicas[replica];
            r.busy_slots += 1;
            r.kv_reserved += need;
            r.residents.push(handle);
            self.admissions += 1;
            admitted.push((req, replica, handle));
        }
        admitted
    }

    fn release(&mut self, handle: usize) -> OracleLease {
        let l = self.leases[handle].take().expect("oracle lease is live");
        let r = &mut self.replicas[l.replica];
        let pos = r.residents.iter().rposition(|&x| x == handle).expect("lease on its replica");
        r.residents.remove(pos);
        r.busy_slots -= 1;
        r.kv_reserved -= l.kv_now;
        self.free_leases.push(handle);
        l
    }

    /// Preemption victims `(lease index, request)` of one token of growth.
    fn grow(&mut self, handle: usize) -> Vec<(usize, RequestId)> {
        let mut victims = Vec::new();
        if matches!(self.cfg.kv, KvMode::FullReservation) {
            return victims;
        }
        let replica = self.leases[handle].expect("growing a live lease").replica;
        while self.replicas[replica].kv_reserved + 1 > self.cfg.kv_budget.tokens {
            let residents = &self.replicas[replica].residents;
            let victim = (0..residents.len())
                .max_by_key(|&i| (self.leases[residents[i]].expect("live").class, i))
                .map(|i| residents[i])
                .expect("exhausted replica has residents");
            let released = self.release(victim);
            self.preemptions += 1;
            victims.push((victim, released.id));
            if victim == handle {
                return victims;
            }
        }
        self.leases[handle].as_mut().expect("grower survived").kv_now += 1;
        self.replicas[replica].kv_reserved += 1;
        victims
    }

    fn drain(&mut self) -> Vec<QueuedRequest> {
        std::mem::take(&mut self.waiting)
    }
}

fn policy_for(case: u64, rng: &mut Rng64) -> Box<dyn SchedulingPolicy> {
    match case % 3 {
        0 => Box::new(Fifo),
        1 => Box::new(ShortestRemainingDecode),
        _ => Box::new(DeadlineAware { slo: Time::from_us(rng.next_below(2_000)) }),
    }
}

fn kv_mode_for(case: u64, rng: &mut Rng64) -> KvMode {
    if (case / 3).is_multiple_of(2) {
        KvMode::FullReservation
    } else {
        KvMode::TokenGranular { admission_watermark: [0.7, 0.9, 1.0][rng.next_below(3) as usize] }
    }
}

/// Sorted ids of a drained waiting set (drain order is unspecified).
fn ids(reqs: &[QueuedRequest]) -> Vec<RequestId> {
    let mut ids: Vec<RequestId> = reqs.iter().map(|q| q.spec.id).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn admission_index_matches_full_scan_oracle_call_by_call() {
    let mut total_admissions = 0;
    let mut total_preemptions = 0;
    let mut deepest = 0;
    for case in 0..CASES {
        let mut rng = Rng64::seed(0xAD31_5510 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cfg = SchedulerConfig {
            replicas: 1 + rng.next_below(3) as usize,
            slots_per_replica: 1 + rng.next_below(6) as usize,
            kv_budget: KvBudget::tokens(40 + rng.next_below(80)),
            kv: kv_mode_for(case, &mut rng),
        };
        let budget = cfg.kv_budget.tokens;
        let policy = policy_for(case, &mut rng);
        let classes = 1 + rng.next_below(3);
        let token_interval = Time::from_us(1 + rng.next_below(5));
        let label = format!("case {case}: {cfg:?}, {policy:?}, {classes} classes");
        let mut sched = ContinuousBatchScheduler::new(cfg).with_policy(policy.clone());
        let mut oracle = Oracle::new(cfg, policy);
        // Resident requests with the progress they made, by lease.
        let mut live: Vec<(LeaseId, QueuedRequest)> = Vec::new();
        let mut victims = Vec::new();
        let mut got = Vec::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        for op in 0..OPS_PER_CASE {
            match rng.next_below(100) {
                // Arrivals: several per instant, so FIFO keys tie on
                // arrival and fall through to the request id.
                0..=21 => {
                    let spec = RequestSpec {
                        id: RequestId(next_id),
                        arrival: Time::from_us(now),
                        prompt: 1 + rng.next_below(budget / 3) as usize,
                        decode: 1 + rng.next_below(budget / 2) as usize,
                        class: PriorityClass(rng.next_below(classes) as u8),
                        session: SessionId(next_id),
                    };
                    next_id += 1;
                    let before = sched.rejected().len();
                    let queued = oracle.enqueue(spec);
                    sched.enqueue(spec);
                    assert_eq!(sched.rejected().len() == before, queued, "{label}, op {op}");
                }
                22..=41 => {
                    now += rng.next_below(3);
                    let ctx = PolicyContext { now: Time::from_us(now), token_interval };
                    sched.admit_ready(&ctx, &mut got);
                    let want = oracle.admit_ready(&ctx);
                    let got_rows: Vec<_> =
                        got.iter().map(|a| (a.req, a.replica, a.lease.index())).collect();
                    assert_eq!(got_rows, want, "{label}, op {op}: admissions differ");
                    assert!(got.iter().all(|a| a.at == ctx.now));
                    live.extend(got.iter().map(|a| (a.lease, a.req)));
                }
                42..=93 if !live.is_empty() => {
                    let pick = rng.next_below(live.len() as u64) as usize;
                    let lease = live[pick].0;
                    sched.grow(lease, &mut victims);
                    let want = oracle.grow(lease.index());
                    let got: Vec<_> = victims.iter().map(|v| (v.lease.index(), v.id)).collect();
                    assert_eq!(got, want, "{label}, op {op}: preemption victims differ");
                    for v in &victims {
                        let at = live.iter().position(|(l, _)| *l == v.lease).expect("victim live");
                        let (_, mut q) = live.swap_remove(at);
                        q.preemptions += 1;
                        sched.requeue(q);
                        oracle.push(q);
                    }
                    if let Some(at) = live.iter().position(|(l, _)| *l == lease) {
                        let q = &mut live[at].1;
                        q.progress += 1;
                        if q.remaining_decode() == 0 {
                            live.swap_remove(at);
                            sched.complete(lease);
                            oracle.release(lease.index());
                        }
                    }
                }
                94..=98 if !live.is_empty() => {
                    let pick = rng.next_below(live.len() as u64) as usize;
                    let (lease, _) = live.swap_remove(pick);
                    sched.complete(lease);
                    oracle.release(lease.index());
                }
                99 => {
                    let got = sched.drain_waiting();
                    let want = oracle.drain();
                    assert_eq!(ids(&got), ids(&want), "{label}, op {op}: drained sets differ");
                }
                _ => {}
            }
            assert_eq!(sched.queue_len(), oracle.waiting.len(), "{label}, op {op}: queue_len");
            assert_eq!(sched.peak_queue_depth(), oracle.peak_depth, "{label}, op {op}: peak");
            assert_eq!(sched.admissions(), oracle.admissions, "{label}, op {op}");
            assert_eq!(sched.preemptions(), oracle.preemptions, "{label}, op {op}");
            for (i, r) in oracle.replicas.iter().enumerate() {
                assert_eq!(sched.kv_reserved(i), r.kv_reserved, "{label}, op {op}: replica {i}");
            }
            deepest = deepest.max(sched.peak_queue_depth());
        }
        total_admissions += sched.admissions();
        total_preemptions += sched.preemptions();
    }
    // The generator must actually exercise what it claims to.
    assert!(total_admissions > 10_000, "only {total_admissions} admissions");
    assert!(total_preemptions > 500, "only {total_preemptions} preemptions");
    assert!(deepest > 50, "queues never grew deep ({deepest})");
}

/// Wraps a policy and counts its `priority()` calls.
#[derive(Debug, Clone)]
struct Counting {
    inner: Box<dyn SchedulingPolicy>,
    calls: Arc<AtomicU64>,
}

impl SchedulingPolicy for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn priority(&self, req: &QueuedRequest, ctx: &PolicyContext) -> i128 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.priority(req, ctx)
    }

    fn clone_box(&self) -> Box<dyn SchedulingPolicy> {
        Box::new(self.clone())
    }
}

#[test]
fn saturated_serving_keys_each_enqueue_exactly_once() {
    let system = ServingSystem::from_parts(
        &ModelConfig::llama2_7b(),
        SchedulerConfig {
            replicas: 2,
            slots_per_replica: 3,
            kv_budget: KvBudget::tokens(200),
            kv: KvMode::token_granular(),
        },
        Time::from_us(1_000),
        2000.0,
        6000.0,
    );
    let lengths =
        LengthSampler::Uniform { prompt_min: 5, prompt_max: 60, decode_min: 2, decode_max: 90 };
    let rate = 3.0 * system.capacity_qps(33, 46);
    let workload = Workload { lengths, ..Workload::chatbot(rate, 11) };
    let trace = workload.generate(Time::from_secs_f64(20.0), 4096);
    let calls = Arc::new(AtomicU64::new(0));
    let policy = Counting {
        inner: Box::new(DeadlineAware { slo: Time::from_secs_f64(5.0) }),
        calls: Arc::clone(&calls),
    };
    let report = system.serve_trace_with(
        &trace,
        rate,
        ServeOptions::token_granular().with_policy(Box::new(policy)),
    );
    assert!(report.peak_queue_depth >= 3_000, "backlog only {} deep", report.peak_queue_depth);
    assert!(report.preemptions > 0, "no requeues exercised");
    // Every arrival that passed the budget check, plus every requeue after
    // preemption, is keyed once — and nothing is ever rescanned.
    let enqueued = (report.submitted - report.rejected) as u64 + report.preemptions;
    assert_eq!(calls.load(Ordering::Relaxed), enqueued);
}
