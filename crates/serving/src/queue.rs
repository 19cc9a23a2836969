//! The serving frontend's request queue and per-request lifecycle records.

use std::collections::BTreeMap;

use cent_types::Time;

/// Identifier of one request in a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Conversation key a request belongs to (multi-turn traffic).
///
/// The cluster router's session-affinity policy hashes this key, so every
/// turn of one conversation lands on the same replica group and reuses its
/// warm KV state. Single-turn workloads tag each request with its own
/// session (`SessionId(id.0)`), which is what [`Workload`] generates by
/// default; [`Workload::assign_sessions`] retags a trace with a pool of
/// long-lived sessions.
///
/// [`Workload`]: crate::Workload
/// [`Workload::assign_sessions`]: crate::Workload::assign_sessions
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Priority class of a request: `0` is the most important (interactive)
/// traffic; larger values are lower-priority background tiers.
///
/// Classes shape two scheduler decisions. Admission serves lower class
/// values first (the configured [`SchedulingPolicy`] orders *within* a
/// class), and KV-pressure victims are picked lowest-priority-class-first,
/// youngest within the class — so spill pressure lands on background
/// traffic before it touches interactive queries. The serving report breaks
/// TTFT/TBT/goodput out per class.
///
/// [`SchedulingPolicy`]: crate::SchedulingPolicy
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PriorityClass(pub u8);

impl PriorityClass {
    /// The highest-priority (interactive) class, the default tag.
    pub const INTERACTIVE: PriorityClass = PriorityClass(0);
    /// A conventional background/batch tier.
    pub const BATCH: PriorityClass = PriorityClass(1);
}

impl std::fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One request as generated by a workload: when it arrives and its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Identifier (sequential in arrival order).
    pub id: RequestId,
    /// Arrival instant.
    pub arrival: Time,
    /// Prompt length in tokens.
    pub prompt: usize,
    /// Number of tokens to generate.
    pub decode: usize,
    /// Priority class the request is tagged with.
    pub class: PriorityClass,
    /// Conversation the request belongs to (drives session-affinity
    /// routing; equal to the request id for single-turn traffic).
    pub session: SessionId,
}

impl RequestSpec {
    /// KV-cache tokens this request occupies at completion (prompt plus
    /// every generated token, per block). This full footprint is what
    /// full-reservation mode reserves at admission; token-granular mode
    /// grows towards it one token at a time.
    pub fn kv_tokens(&self) -> u64 {
        (self.prompt + self.decode) as u64
    }
}

/// Where an evicted request's KV pages live while it waits to resume.
///
/// Carried by [`QueuedRequest`] between eviction and re-admission so the
/// event loop can account the CXL host pool and pay the page-in transfer
/// before decode resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapState {
    /// KV tokens parked in the host pool (the victim's `resident_kv` at
    /// eviction; released back when the page-in starts).
    pub tokens: u64,
    /// When the swap-out transfer completes — page-in cannot start earlier.
    pub out_done: Time,
    /// Eviction instant, for stall accounting.
    pub evicted_at: Time,
}

/// A request waiting for (or resuming) service, with any progress it made
/// before being preempted.
///
/// Fresh arrivals have zero progress; an evicted request re-enters the
/// queue carrying the tokens it already generated, its first-admission and
/// first-token instants (the user-visible TTFT does not reset), and its
/// preemption count. How it resumes depends on how it left: a *recompute*
/// victim streams its context (`prompt + progress` tokens) back through the
/// prefill front-end — vLLM-style semantics — while a *swap* victim
/// ([`SwapState`]) pages its KV back from CXL host memory over the
/// replica's transfer engine. Either way decode resumes where it left off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// The underlying request.
    pub spec: RequestSpec,
    /// Decode tokens already generated (non-zero only after preemption).
    pub progress: usize,
    /// Times this request was evicted (recompute or swap) so far.
    pub preemptions: u32,
    /// First admission instant, if it ever entered service.
    pub first_admitted: Option<Time>,
    /// First generated token instant, if any.
    pub first_token: Option<Time>,
    /// Most recent generated token instant, if any (drives the
    /// time-between-tokens stream across preemption stalls).
    pub last_token: Option<Time>,
    /// Set while the request's KV pages sit in the CXL host pool.
    pub swapped: Option<SwapState>,
    /// Most recent eviction instant while on the recompute path (stall
    /// accounting; swap victims carry it inside [`SwapState`]).
    pub evicted_at: Option<Time>,
}

impl QueuedRequest {
    /// A fresh, never-admitted request.
    pub fn fresh(spec: RequestSpec) -> Self {
        QueuedRequest {
            spec,
            progress: 0,
            preemptions: 0,
            first_admitted: None,
            first_token: None,
            last_token: None,
            swapped: None,
            evicted_at: None,
        }
    }

    /// Decode tokens still to generate.
    pub fn remaining_decode(&self) -> usize {
        self.spec.decode.saturating_sub(self.progress)
    }

    /// KV tokens the request occupies the moment it is (re)admitted:
    /// its prompt plus every token generated before preemption.
    pub fn resident_kv(&self) -> u64 {
        (self.spec.prompt + self.progress) as u64
    }

    /// Applies `count` tokens emitted at `first, first + interval, …` in
    /// one batch — the span-fast-forward equivalent of `count` single-token
    /// emissions. Returns the gap between the previous token and `first`
    /// (`None` for the request's very first token); the `count - 1`
    /// following gaps all equal `interval`, so the caller can record the
    /// whole time-between-tokens mass with one histogram update.
    ///
    /// The span may end on the request's final token, never past it.
    pub fn apply_token_span(&mut self, first: Time, interval: Time, count: u64) -> Option<Time> {
        debug_assert!(count > 0, "empty spans are not applied");
        let prev = self.last_token;
        if self.first_token.is_none() {
            self.first_token = Some(first);
        }
        self.progress += count as usize;
        debug_assert!(self.progress <= self.spec.decode, "span ran past completion");
        self.last_token = Some(first + interval.times(count - 1));
        prev.map(|p| first.saturating_sub(p))
    }
}

/// Lifecycle timestamps of a request that completed service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// The request served.
    pub spec: RequestSpec,
    /// When it first left the queue and entered a pipeline slot.
    pub admitted: Time,
    /// When its first generated token emerged (TTFT reference point).
    pub first_token: Time,
    /// When its last token emerged.
    pub finished: Time,
    /// Pipeline replica that served it to completion.
    pub replica: usize,
    /// Times the request was preempted (and later recomputed) before
    /// finishing.
    pub preemptions: u32,
}

impl RequestRecord {
    /// Time to first token, measured from arrival.
    pub fn ttft(&self) -> Time {
        self.first_token.saturating_sub(self.spec.arrival)
    }

    /// End-to-end latency from arrival to last token.
    pub fn query_latency(&self) -> Time {
        self.finished.saturating_sub(self.spec.arrival)
    }

    /// Time spent waiting in the queue before first admission.
    pub fn queue_wait(&self) -> Time {
        self.admitted.saturating_sub(self.spec.arrival)
    }

    /// Average time between generated tokens after the first (includes any
    /// preemption stalls; the serving report's TBT distribution records the
    /// individual gaps instead).
    pub fn time_between_tokens(&self) -> Time {
        let gaps = self.spec.decode.saturating_sub(1) as u64;
        if gaps == 0 {
            return Time::ZERO;
        }
        Time::from_ps(self.finished.saturating_sub(self.first_token).as_ps() / gaps)
    }
}

/// Total admission-order key of a waiting request: `(class, policy
/// priority, arrival, id)`. The request id makes it unique per waiting
/// request, so the order it induces is total.
type AdmissionKey = (PriorityClass, i128, Time, RequestId);

/// The pool of requests waiting for a pipeline slot, ordered for admission,
/// with depth tracking.
///
/// [`push`](Self::push) only appends to a pending buffer: the policy
/// priority needs the scheduler's [`PolicyContext`](crate::PolicyContext),
/// which an arrival does not carry. [`index_pending`](Self::index_pending)
/// keys each pending request exactly once and files it into an ordered
/// index, from which [`peek`](Self::peek) and [`pop`](Self::pop) serve the
/// smallest `(class, policy priority, arrival, id)` key in `O(log n)`. A
/// key is never recomputed while its request waits, which is exact because
/// [`SchedulingPolicy`](crate::SchedulingPolicy) priorities are stable
/// between admission instants.
#[derive(Debug, Default)]
pub struct RequestQueue {
    /// Pushed since the last `index_pending`, not yet keyed. Drained in
    /// place so its capacity survives across admission instants.
    pending: Vec<QueuedRequest>,
    /// Keyed requests, smallest key first.
    index: BTreeMap<AdmissionKey, QueuedRequest>,
    /// Largest depth ever observed.
    peak_depth: usize,
    /// Total requests ever enqueued (requeues after preemption included).
    enqueued: u64,
}

impl RequestQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a waiting request (a fresh arrival or a preempted resume)
    /// to the pending buffer.
    pub fn push(&mut self, req: QueuedRequest) {
        self.pending.push(req);
        self.enqueued += 1;
        self.peak_depth = self.peak_depth.max(self.len());
    }

    /// Keys every pending request with `priority` and files it into the
    /// ordered index.
    ///
    /// # Panics
    ///
    /// Panics if a key is already in the index — the same request waiting
    /// twice.
    pub fn index_pending(&mut self, mut priority: impl FnMut(&QueuedRequest) -> i128) {
        for req in self.pending.drain(..) {
            let key = (req.spec.class, priority(&req), req.spec.arrival, req.spec.id);
            let dup = self.index.insert(key, req);
            assert!(dup.is_none(), "request {} is waiting twice", key.3);
        }
    }

    /// The indexed request with the smallest admission key, if any.
    /// Requests pushed since the last [`index_pending`](Self::index_pending)
    /// are not considered.
    pub fn peek(&self) -> Option<&QueuedRequest> {
        self.index.first_key_value().map(|(_, req)| req)
    }

    /// Removes and returns the request [`peek`](Self::peek) shows.
    pub fn pop(&mut self) -> Option<QueuedRequest> {
        self.index.pop_first().map(|(_, req)| req)
    }

    /// Removes and returns the entire waiting set in no particular order
    /// (crash teardown: the group is dying and its queue must be handed
    /// back to the router). Peak-depth and enqueue counters are preserved —
    /// the requests *were* queued here.
    pub fn drain(&mut self) -> Vec<QueuedRequest> {
        self.pending.drain(..).chain(std::mem::take(&mut self.index).into_values()).collect()
    }

    /// Requests currently waiting, pending and indexed.
    pub fn len(&self) -> usize {
        self.pending.len() + self.index.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest depth the queue ever reached.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Total requests ever enqueued (requeues after preemption included).
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64) -> RequestSpec {
        RequestSpec {
            id: RequestId(id),
            arrival: Time::from_us(id),
            prompt: 8,
            decode: 4,
            class: PriorityClass::default(),
            session: SessionId(id),
        }
    }

    #[test]
    fn queue_stores_waiting_set_and_tracks_peak() {
        let mut q = RequestQueue::new();
        for i in [3, 0, 4, 1, 2] {
            q.push(QueuedRequest::fresh(spec(i)));
        }
        assert_eq!(q.peak_depth(), 5);
        assert_eq!(q.total_enqueued(), 5);
        // Nothing is served until the pending buffer is keyed.
        assert!(q.peek().is_none());
        // Key by descending id: the index serves 4, 3, … regardless of
        // push order.
        q.index_pending(|r| -(r.spec.id.0 as i128));
        assert_eq!(q.pop().map(|r| r.spec.id), Some(RequestId(4)));
        assert_eq!(q.peek().map(|r| r.spec.id), Some(RequestId(3)));
        assert_eq!(q.len(), 4);
        // A later push waits in the pending buffer but counts towards depth.
        q.push(QueuedRequest::fresh(spec(9)));
        assert_eq!(q.len(), 5);
        assert_eq!(q.total_enqueued(), 6);
        let mut ids: Vec<u64> = q.drain().iter().map(|r| r.spec.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 9]);
        assert!(q.is_empty());
        assert_eq!(q.peak_depth(), 5);
    }

    #[test]
    #[should_panic(expected = "waiting twice")]
    fn duplicate_admission_key_panics() {
        let mut q = RequestQueue::new();
        q.push(QueuedRequest::fresh(spec(7)));
        q.push(QueuedRequest::fresh(spec(7)));
        q.index_pending(|_| 0);
    }

    #[test]
    fn queued_request_tracks_resume_state() {
        let mut q = QueuedRequest::fresh(spec(0));
        assert_eq!(q.remaining_decode(), 4);
        assert_eq!(q.resident_kv(), 8);
        q.progress = 3;
        q.preemptions = 1;
        assert_eq!(q.remaining_decode(), 1);
        assert_eq!(q.resident_kv(), 11);
    }

    #[test]
    fn token_span_matches_single_token_emissions() {
        let interval = Time::from_us(10);
        // Single-token walk: first token at 100 us, then 110.
        let mut step = QueuedRequest::fresh(spec(0));
        for i in 0..2u64 {
            let t = Time::from_us(100) + interval.times(i);
            if step.first_token.is_none() {
                step.first_token = Some(t);
            }
            step.progress += 1;
            step.last_token = Some(t);
        }
        // Batched span application: same two tokens in one call.
        let mut span = QueuedRequest::fresh(spec(0));
        let gap = span.apply_token_span(Time::from_us(100), interval, 2);
        assert_eq!(gap, None, "very first token has no predecessor gap");
        assert_eq!(span.progress, step.progress);
        assert_eq!(span.first_token, step.first_token);
        assert_eq!(span.last_token, step.last_token);
        // A later span reports the resume gap (stall across the boundary).
        let gap = span.apply_token_span(Time::from_us(500), interval, 1);
        assert_eq!(gap, Some(Time::from_us(390)));
        assert_eq!(span.first_token, Some(Time::from_us(100)));
        assert_eq!(span.last_token, Some(Time::from_us(500)));
    }

    #[test]
    fn record_derives_slo_metrics() {
        let r = RequestRecord {
            spec: RequestSpec {
                id: RequestId(0),
                arrival: Time::from_us(100),
                prompt: 16,
                decode: 5,
                class: PriorityClass::BATCH,
                session: SessionId(0),
            },
            admitted: Time::from_us(150),
            first_token: Time::from_us(200),
            finished: Time::from_us(600),
            replica: 0,
            preemptions: 0,
        };
        assert_eq!(r.queue_wait(), Time::from_us(50));
        assert_eq!(r.ttft(), Time::from_us(100));
        assert_eq!(r.query_latency(), Time::from_us(500));
        // 400 us over 4 token gaps.
        assert_eq!(r.time_between_tokens(), Time::from_us(100));
        assert_eq!(r.spec.kv_tokens(), 21);
    }
}
