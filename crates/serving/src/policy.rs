//! Pluggable admission-ordering policies for the continuous-batching
//! scheduler.
//!
//! The scheduler ranks each waiting request once by its
//! [`SchedulingPolicy`] and admits in that order; admission stops at the
//! first pick that fits no replica (head-of-line blocking on the
//! *policy's* order, which keeps saturation behaviour fair and
//! deterministic). Policies are pure ranking functions over
//! [`QueuedRequest`]s, so preemption and KV accounting stay in the
//! scheduler while service order is swappable per run.
//!
//! A request's [`PriorityClass`](crate::PriorityClass) dominates the policy
//! order: the scheduler keys admission on `(class, policy priority, arrival,
//! id)`, so a policy reorders traffic *within* a class but background tiers
//! never overtake interactive ones. Single-class workloads reduce to the
//! pure policy order.

use cent_types::Time;

use crate::queue::QueuedRequest;

/// Information available to a policy when ranking waiting requests.
///
/// `now` and `token_interval` are shared by every candidate at one
/// admission instant, so policies may use them to convert remaining work
/// into time without breaking determinism.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext {
    /// The admission instant.
    pub now: Time,
    /// Steady-state interval between a resident query's tokens.
    pub token_interval: Time,
}

/// Ranks waiting requests for admission.
///
/// Lower priority values are served first; the scheduler breaks ties by
/// arrival time and then request id, so any policy yields a total,
/// reproducible order. Policies are `Send + Sync` so sweeps can fan
/// operating points out across threads, and boxed policies are [`Clone`]
/// (via [`clone_box`](Self::clone_box)) so one
/// [`ServeOptions`](crate::ServeOptions) can be reused across points.
///
/// Priorities must be *stable between admission instants*: a request's key
/// may depend on its own state (arrival, remaining work) and on constants
/// from the context (`token_interval` is fixed per serving engine), but not
/// on `ctx.now` itself. The scheduler keys each request once, when it
/// enters the waiting set, and keeps the set sorted by that key in an
/// ordered index; a key that drifted with time would leave the index
/// serving a stale order. A preempted request is re-keyed when it is
/// requeued, so priorities over remaining work stay exact.
pub trait SchedulingPolicy: std::fmt::Debug + Send + Sync {
    /// Short human-readable name (used in sweep tables).
    fn name(&self) -> &'static str;

    /// Priority key of `req`; lower is served first.
    fn priority(&self, req: &QueuedRequest, ctx: &PolicyContext) -> i128;

    /// Boxed copy of this policy, so containers of `Box<dyn
    /// SchedulingPolicy>` can implement [`Clone`].
    fn clone_box(&self) -> Box<dyn SchedulingPolicy>;
}

impl Clone for Box<dyn SchedulingPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// First-in, first-out by arrival time — the paper's implicit baseline and
/// the fairest order under saturation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulingPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn priority(&self, req: &QueuedRequest, _ctx: &PolicyContext) -> i128 {
        i128::from(req.spec.arrival.as_ps())
    }

    fn clone_box(&self) -> Box<dyn SchedulingPolicy> {
        Box::new(*self)
    }
}

/// Shortest-remaining-decode first: favours requests with the fewest
/// tokens left to generate (resumed preempted requests count only their
/// remaining work). Minimises mean latency at the cost of starving long
/// generations under overload.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestRemainingDecode;

impl SchedulingPolicy for ShortestRemainingDecode {
    fn name(&self) -> &'static str {
        "srd"
    }

    fn priority(&self, req: &QueuedRequest, _ctx: &PolicyContext) -> i128 {
        req.remaining_decode() as i128
    }

    fn clone_box(&self) -> Box<dyn SchedulingPolicy> {
        Box::new(*self)
    }
}

/// Deadline-aware (least-slack-first) ordering: every request implicitly
/// carries the deadline `arrival + slo` on its end-to-end latency, and the
/// policy serves the request whose slack — deadline minus estimated
/// remaining service time — is smallest. With a uniform SLO this departs
/// from FIFO exactly when lengths vary: a long generation close to its
/// deadline jumps the queue.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineAware {
    /// Target end-to-end query latency (the SLO each request must meet).
    pub slo: Time,
}

impl SchedulingPolicy for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn priority(&self, req: &QueuedRequest, ctx: &PolicyContext) -> i128 {
        let deadline = i128::from((req.spec.arrival + self.slo).as_ps());
        let remaining = i128::from(ctx.token_interval.as_ps()) * req.remaining_decode() as i128;
        deadline - remaining
    }

    fn clone_box(&self) -> Box<dyn SchedulingPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{PriorityClass, RequestId, RequestSpec};

    fn queued(id: u64, arrival_us: u64, decode: usize, progress: usize) -> QueuedRequest {
        let mut q = QueuedRequest::fresh(RequestSpec {
            id: RequestId(id),
            arrival: Time::from_us(arrival_us),
            prompt: 16,
            decode,
            class: PriorityClass::default(),
            session: crate::queue::SessionId(id),
        });
        q.progress = progress;
        q
    }

    fn ctx() -> PolicyContext {
        PolicyContext { now: Time::from_us(100), token_interval: Time::from_us(10) }
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let (a, b) = (queued(0, 5, 100, 0), queued(1, 3, 1, 0));
        assert!(Fifo.priority(&b, &ctx()) < Fifo.priority(&a, &ctx()));
    }

    #[test]
    fn srd_counts_only_remaining_work() {
        let fresh_long = queued(0, 1, 100, 0);
        let resumed_long = queued(1, 2, 100, 95);
        let fresh_short = queued(2, 3, 10, 0);
        let c = ctx();
        let p = ShortestRemainingDecode;
        assert!(p.priority(&resumed_long, &c) < p.priority(&fresh_short, &c));
        assert!(p.priority(&fresh_short, &c) < p.priority(&fresh_long, &c));
    }

    #[test]
    fn deadline_prefers_least_slack() {
        let p = DeadlineAware { slo: Time::from_us(1000) };
        let c = ctx();
        // Same arrival: the longer generation has less slack.
        let long = queued(0, 50, 80, 0);
        let short = queued(1, 50, 8, 0);
        assert!(p.priority(&long, &c) < p.priority(&short, &c));
        // Same length: the earlier arrival has the earlier deadline.
        let early = queued(2, 10, 8, 0);
        assert!(p.priority(&early, &c) < p.priority(&short, &c));
    }
}
