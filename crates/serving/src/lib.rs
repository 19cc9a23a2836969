//! Request-level serving simulation for CENT deployments.
//!
//! The paper evaluates CENT at steady state: one block step composed across
//! pipeline stages, tensor shards and replicas (`cent_sim::evaluate`). This
//! crate layers a discrete-event, request-level serving model on top, so a
//! deployment can be judged the way production systems are — queues, SLOs
//! and the throughput–latency knee under offered load:
//!
//! * [`Workload`] — reproducible arrival traces ([`ArrivalProcess`]:
//!   Poisson or bursty MMPP) with configurable shapes ([`LengthSampler`]:
//!   the paper's 512/3584 chatbot mix, ShareGPT-like log-normals, uniform
//!   or fixed);
//! * [`ContinuousBatchScheduler`] — policy-driven admission into
//!   pipeline-stage decode slots with strict per-replica KV-cache
//!   accounting derived from the mapping ([`KvBudget`]). Two [`KvMode`]s:
//!   *full reservation* (a request's complete context footprint is reserved
//!   at admission; nothing is ever evicted) and *token-granular* (only the
//!   prompt is reserved up front, the reservation grows one token per
//!   generated token, admission is optimistic against a watermark, and pool
//!   exhaustion evicts residents — lowest [`PriorityClass`] first, youngest
//!   within the class);
//! * a second KV tier ([`KvSpillMode`] / [`KvSpillConfig`]): an eviction
//!   victim is either requeued for vLLM-style *recompute* or *swapped* — its
//!   KV pages move to CXL host memory at a transfer time derived from the
//!   host-link model ([`cent_cost::KvSwapCost`]) and page back in before
//!   decode resumes, bounded by a host-pool capacity with per-replica
//!   transfer serialization. `CostDriven` picks the cheaper disposition per
//!   victim;
//! * [`SchedulingPolicy`] — pluggable admission order: [`Fifo`],
//!   [`ShortestRemainingDecode`], deadline/SLO-aware least-slack
//!   ([`DeadlineAware`]);
//! * [`ServingSystem`] — the discrete-event loop, costed by the
//!   steady-state block simulation (token cadence, prefill rate,
//!   slot/replica structure), configured per run via [`ServeOptions`].
//!   Two interchangeable event cores ([`TickEngine`]): the default
//!   *span-fast-forward* engine jumps the clock between external events in
//!   closed form, emitting whole deterministic decode spans in one batch
//!   (heap traffic scales with external events alone) — it also backs the
//!   resumable [`GroupSim`] form the cluster simulator drives epoch by
//!   epoch; and the retained *per-token reference* loop, kept as the
//!   differential oracle and the `sim_perf` baseline
//!   ([`ServingSystem::serve_trace_instrumented`] exposes [`SimStats`]);
//! * [`ServingReport`] — TTFT, per-token time-between-tokens and
//!   query-latency distributions (p50/p95/p99), tokens/s against the
//!   steady-state oracle, slot utilization, peak and time-weighted KV
//!   pressure, preemption counts and deadline goodput.
//!
//! # Examples
//!
//! ```
//! use cent_compiler::Strategy;
//! use cent_model::ModelConfig;
//! use cent_serving::{ServeOptions, ServingSystem, Workload};
//! use cent_types::Time;
//!
//! # fn main() -> Result<(), cent_types::CentError> {
//! let cfg = ModelConfig::tiny();
//! let system = ServingSystem::plan(&cfg, 2, Strategy::PipelineParallel, 32)?;
//! let workload = Workload::chatbot(0.5 * system.capacity_qps(8, 16), 42);
//! // Default (full-reservation, FIFO) run...
//! let report = system.run(&workload, Time::from_secs_f64(2.0));
//! // ...or token-granular KV accounting with preemption.
//! let report = system.run_with(
//!     &workload,
//!     Time::from_secs_f64(2.0),
//!     ServeOptions::token_granular(),
//! );
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod policy;
mod queue;
mod report;
mod scheduler;
mod sim;
mod workload;

pub use policy::{DeadlineAware, Fifo, PolicyContext, SchedulingPolicy, ShortestRemainingDecode};
pub use queue::{
    PriorityClass, QueuedRequest, RequestId, RequestQueue, RequestRecord, RequestSpec, SessionId,
    SwapState,
};
pub use report::{ClassReport, LatencyStats, ServingReport};
pub use scheduler::{
    Admission, ContinuousBatchScheduler, KvBudget, KvMode, LeaseId, Preemption, SchedulerConfig,
};
pub use sim::{
    GroupOutcome, GroupSim, KvSpillConfig, KvSpillMode, ServeOptions, ServingSystem, SimStats,
    TickEngine,
};
pub use workload::{ArrivalProcess, ClassMix, LengthSampler, LoadCurve, Workload};
