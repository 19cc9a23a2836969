//! Fleet-level simulation for CENT deployments: a cluster router over N
//! independent [`ServingSystem`](cent_serving::ServingSystem) replica
//! groups, sharded across worker threads inside one simulation.
//!
//! The ASPLOS'25 paper evaluates one CENT deployment; serving "millions of
//! users" takes a *fleet* of them behind a request router — the setting
//! the CXL-PIM scale-out literature (Sangam's switch-fabric clusters, the
//! 1M-token CXL-PNM work) presupposes. This crate closes that gap:
//!
//! * [`RoutingPolicy`] — pluggable cluster routing over an O(1)-maintained
//!   per-group [`GroupLoad`] index: [`JoinShortestQueue`],
//!   [`PowerOfTwoChoices`] (seeded SplitMix64, deterministic),
//!   [`RoundRobin`] and [`SessionAffinity`] (pure hash of
//!   [`RequestSpec::session`](cent_serving::RequestSpec));
//! * [`simulate_fleet`] — the epoch-based fleet driver: arrivals are
//!   routed against load snapshots taken at epoch boundaries, each group's
//!   span-fast-forward engine ([`GroupSim`](cent_serving::GroupSim)) is
//!   advanced through the epoch by one of `threads` scoped workers, and a
//!   deterministic merge folds the per-group outcomes — so the result is
//!   bit-identical across worker-thread counts;
//! * [`FleetReport`] — fleet-wide p50/p95/p99 TTFT/TBT/latency, per-class
//!   rows, per-group utilization spread and router-imbalance metrics,
//!   with a stable JSON serialisation ([`FleetReport::to_json`]);
//! * [`FaultSchedule`] / [`FaultPlan::chaos`] — deterministic fault
//!   injection: seeded group crashes (KV state lost, in-flight requests
//!   redispatched under a bounded [`RetryPolicy`]), host-link degradation
//!   windows that rescale spill costs mid-run, and per-group stragglers;
//!   degraded-mode metrics (availability, failover latency, goodput in
//!   and out of outage windows) land in [`DegradedReport`];
//! * [`simulate_fleet_disagg`] / [`GroupRole`] — the same driver over a
//!   prefill/decode split: prompts route to prefill-specialized groups
//!   (chunked prefill), finished contexts publish into the bounded
//!   switch-attached `SharedKvPool` of `cent-cxl` at a costed switch-hop
//!   price, and decode-specialized groups claim them (stealing from the
//!   pool when drained); a colocated fleet is the one-tier topology that
//!   prefills and decodes on every group. Handoff latency percentiles,
//!   pool occupancy and steal counts land in [`DisaggReport`];
//! * **survivable fleets** — one fault/recovery state machine serves both
//!   topologies: the durable pool parks copies of claimed contexts
//!   (capacity-free, evicted oldest-first) so a decode-tier crash
//!   *rescues* orphans at switch-hop cost instead of re-prefilling them,
//!   [`FaultSpec::PoolLinkDegrade`] /
//!   [`FaultPlan::chaos_disagg`] fault the pool fabric itself,
//!   [`RecoveryMode`] picks how crashed groups rejoin (cold, warm with
//!   retained contexts, or promoted standby spares), and
//!   [`AdmissionPolicy`] sheds arrivals by priority class against
//!   [`fleet_saturation`] — conservation stays exact:
//!   `completed + rejected + dropped + shed = offered`.
//!
//! Pair with [`LoadCurve`](cent_serving::LoadCurve) diurnal modulation
//! (`Workload::generate_modulated`) for multi-hour fleet traces; a
//! 1000-group, million-request day-in-the-life run completes in seconds.
//!
//! # Examples
//!
//! ```
//! use cent_cluster::{simulate_fleet, FleetOptions, JoinShortestQueue};
//! use cent_serving::{
//!     KvBudget, KvMode, SchedulerConfig, ServingSystem, Workload,
//! };
//! use cent_types::Time;
//!
//! let cfg = cent_model::ModelConfig::llama2_7b();
//! let system = ServingSystem::from_parts(
//!     &cfg,
//!     SchedulerConfig {
//!         replicas: 1,
//!         slots_per_replica: 4,
//!         kv_budget: KvBudget::tokens(4000),
//!         kv: KvMode::FullReservation,
//!     },
//!     Time::from_us(1000),
//!     1000.0,
//!     4000.0,
//! );
//! let workload = Workload {
//!     lengths: cent_serving::LengthSampler::Fixed { prompt: 16, decode: 32 },
//!     ..Workload::chatbot(60.0, 7)
//! };
//! let trace = workload.generate(Time::from_secs_f64(1.0), 4096);
//! let report = simulate_fleet(
//!     &system,
//!     &trace,
//!     60.0,
//!     &mut JoinShortestQueue,
//!     &FleetOptions::new(8).with_threads(2),
//! );
//! assert_eq!(report.completed, trace.len());
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]

mod admission;
mod disagg;
mod fault;
mod fleet;
mod report;
mod router;

pub use admission::{fleet_saturation, AdmissionPolicy};
pub use disagg::{simulate_fleet_disagg, DisaggConfig, DisaggLog, DisaggOutcome, GroupRole};
pub use fault::{
    ChaosRates, FaultLog, FaultPlan, FaultSchedule, FaultSpec, RecoveryMode, RetryPolicy,
};
pub use fleet::{simulate_fleet, simulate_fleet_instrumented, FleetOptions, FleetOutcome};
pub use report::{
    DegradedReport, DisaggReport, FleetReport, GroupRow, RouterImbalance, UtilizationSpread,
};
pub use router::{
    GroupLoad, JoinShortestQueue, PowerOfTwoChoices, RoundRobin, RoutingPolicy, SessionAffinity,
};
