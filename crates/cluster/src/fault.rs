//! Deterministic fault injection for the fleet: crash/recover windows,
//! host-link degradation and stragglers, plus the seeded chaos generator.
//!
//! A [`FaultSchedule`] is plain data — a validated list of [`FaultSpec`]s —
//! consumed by the epoch driver in [`fleet`](crate::fleet) through one
//! fault/recovery state machine: every fault instant is aligned to the
//! driver's epoch grid and applied from a single thread in a fixed order,
//! so a schedule perturbs *what* the fleet simulates, never the
//! determinism contract (bit-identical [`FleetReport`](crate::FleetReport)
//! across worker-thread counts).
//! [`FaultPlan::chaos`] draws a schedule from the in-tree SplitMix64, so a
//! `(seed, rates)` pair names one reproducible bad day.

use std::collections::{BTreeMap, BTreeSet};

use cent_cost::KvSwapCost;
use cent_serving::{GroupSim, PriorityClass, RequestId, RequestSpec};
use cent_types::{Rng64, Time};

use crate::disagg::GroupRole;
use crate::router::GroupLoad;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Group `group` dies at `at`: its device KV (and any pages it parked
    /// in the host pool) is lost, in-flight and queued requests are
    /// orphaned back to the router, and the group leaves the load index.
    /// With `recover_after = Some(d)` it rejoins — empty and cold — `d`
    /// later; `None` is a permanent failure.
    GroupCrash {
        /// Fleet-wide group index.
        group: usize,
        /// Crash instant (aligned up to the next epoch boundary).
        at: Time,
        /// Outage duration before the group rejoins; `None` never rejoins.
        recover_after: Option<Time>,
    },
    /// The CXL host link degrades fleet-wide for `duration`:
    /// `bandwidth_factor` multiplies the healthy link bandwidth (0.25 =
    /// four times slower), which shifts the `CostDriven` spill comparator
    /// toward recompute for the window. Overlapping windows apply the most
    /// severe factor.
    HostLinkDegrade {
        /// Window start (aligned up to the next epoch boundary).
        at: Time,
        /// Window length (at least one epoch once aligned).
        duration: Time,
        /// Multiplier on the healthy host-link bandwidth, in `(0, 1]`.
        bandwidth_factor: f64,
    },
    /// Group `group` runs `slowdown`× slower for the whole run (thermal
    /// throttling, a flaky device retrying): token interval stretched,
    /// prefill and steady-state rates divided.
    Straggler {
        /// Fleet-wide group index.
        group: usize,
        /// Uniform slowdown factor, at least `1.0`.
        slowdown: f64,
    },
    /// The switch-attached pool links degrade for `duration`:
    /// `bandwidth_factor` multiplies the healthy handoff bandwidth (the
    /// `KvSwapCost::with_switch_hops` cost of publishing and claiming
    /// contexts), stretching every transfer scheduled inside the window.
    /// Overlapping windows apply the most severe factor; the window ends
    /// by restoring the healthy cost model exactly (no float round trip).
    /// A colocated fleet has no pool and ignores these specs.
    PoolLinkDegrade {
        /// Window start (aligned up to the next epoch boundary).
        at: Time,
        /// Window length (at least one epoch once aligned).
        duration: Time,
        /// Multiplier on the healthy pool-link bandwidth, in `(0, 1]`.
        bandwidth_factor: f64,
    },
}

/// A validated list of [`FaultSpec`]s for one fleet run.
///
/// Construction checks every spec once so the driver can consume them
/// unchecked; specs need no particular order (the driver compiles them
/// onto the epoch grid and sorts deterministically).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    specs: Vec<FaultSpec>,
}

impl FaultSchedule {
    /// A schedule with no faults: the driver degenerates to the healthy
    /// path bit for bit.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Wraps and validates a list of fault specs.
    ///
    /// # Panics
    ///
    /// Panics if a crash recovers after a non-positive delay, a degrade
    /// window is empty or its factor outside `(0, 1]`, or a straggler
    /// slowdown is below `1.0` (or any factor is non-finite).
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        for spec in &specs {
            match *spec {
                FaultSpec::GroupCrash { recover_after, .. } => {
                    if let Some(d) = recover_after {
                        assert!(d > Time::ZERO, "recovery delay must be positive");
                    }
                }
                FaultSpec::HostLinkDegrade { duration, bandwidth_factor, .. }
                | FaultSpec::PoolLinkDegrade { duration, bandwidth_factor, .. } => {
                    assert!(duration > Time::ZERO, "degrade window must be non-empty");
                    assert!(
                        bandwidth_factor.is_finite()
                            && bandwidth_factor > 0.0
                            && bandwidth_factor <= 1.0,
                        "bandwidth factor must lie in (0, 1], got {bandwidth_factor}"
                    );
                }
                FaultSpec::Straggler { slowdown, .. } => {
                    assert!(
                        slowdown.is_finite() && slowdown >= 1.0,
                        "straggler slowdown must be >= 1.0, got {slowdown}"
                    );
                }
            }
        }
        FaultSchedule { specs }
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The validated specs, in construction order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Largest group index any spec references, if any spec does.
    pub fn max_group(&self) -> Option<usize> {
        self.specs
            .iter()
            .filter_map(|s| match *s {
                FaultSpec::GroupCrash { group, .. } | FaultSpec::Straggler { group, .. } => {
                    Some(group)
                }
                FaultSpec::HostLinkDegrade { .. } | FaultSpec::PoolLinkDegrade { .. } => None,
            })
            .max()
    }
}

/// How a crashed group comes back — and with how much of its state.
///
/// Applies per fleet run (a [`FleetOptions`](crate::FleetOptions) field),
/// to every crash-with-recovery in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryMode {
    /// The group rejoins empty: every orphan re-prefills (or is rescued
    /// from the shared pool in a disaggregated fleet). The PR 8 behaviour
    /// and the default.
    #[default]
    Cold,
    /// Partial recovery: the group retained `retained_fraction` of the KV
    /// contexts it was serving (device memory survived the control-plane
    /// restart). The retained subset is deterministic — the first
    /// `⌊fraction × orphans⌋` of the crash's `(arrival, id)`-sorted orphan
    /// list — and is re-seeded warm (no re-prefill, no transfer) when the
    /// group rejoins; the rest take the cold path.
    Warm {
        /// Fraction of each crash's orphans retained, in `[0, 1]`.
        retained_fraction: f64,
    },
    /// Warm standby: the last `spares` groups of the fleet start outside
    /// the load index as idle spares. A crash promotes the lowest-indexed
    /// available spare (role-matched in a disaggregated fleet) at the
    /// crash instant, and the crashed group — once recovered — joins the
    /// spare reserve instead of the serving set. Orphans still take the
    /// cold path (the spare has none of their state).
    Standby {
        /// Groups reserved as idle spares, at least 1.
        spares: usize,
    },
}

impl RecoveryMode {
    /// Validates the mode's parameters.
    ///
    /// # Panics
    ///
    /// Panics if a warm fraction is outside `[0, 1]` or a standby reserve
    /// is empty.
    pub fn validate(&self) {
        match *self {
            RecoveryMode::Cold => {}
            RecoveryMode::Warm { retained_fraction } => {
                assert!(
                    retained_fraction.is_finite() && (0.0..=1.0).contains(&retained_fraction),
                    "warm retained fraction must lie in [0, 1], got {retained_fraction}"
                );
            }
            RecoveryMode::Standby { spares } => {
                assert!(spares >= 1, "a standby reserve needs at least one spare");
            }
        }
    }
}

/// Bounded deterministic redispatch policy for crash orphans.
///
/// A request's first dispatch counts as attempt one; each crash that
/// orphans it consumes one attempt, and once `max_attempts` dispatches
/// have been burned the request is reported dropped instead of retried.
/// The `n`-th redispatch is delayed by `n × backoff` from the crash
/// instant (then aligned up to the epoch grid), so retry storms after a
/// mass failure spread out deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total dispatches a request may consume (the original dispatch
    /// included) before it is dropped. At least 1.
    pub max_attempts: u32,
    /// Linear backoff unit: the `n`-th redispatch waits `n × backoff`.
    pub backoff: Time,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, backoff: Time::ZERO }
    }
}

/// Event rates for [`FaultPlan::chaos`]. All processes are Poisson with
/// exponential durations, drawn from the in-tree SplitMix64.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRates {
    /// Mean crashes per group per simulated second (0 disables crashes).
    pub crash_rate: f64,
    /// Mean outage before a crashed group rejoins, seconds.
    pub mean_outage_s: f64,
    /// Mean fleet-wide host-link degradations per second (0 disables).
    pub degrade_rate: f64,
    /// Mean degradation-window length, seconds.
    pub mean_degrade_s: f64,
    /// Bandwidth factor applied inside a degradation window, in `(0, 1]`.
    pub degrade_factor: f64,
    /// Probability each group is a straggler for the whole run.
    pub straggler_probability: f64,
    /// Slowdown applied to straggler groups, at least `1.0`.
    pub straggler_slowdown: f64,
    /// Mean pool-link degradations per second (0 disables). Only
    /// [`FaultPlan::chaos_disagg`] reads this and the fields below.
    pub pool_degrade_rate: f64,
    /// Mean pool-link degradation-window length, seconds.
    pub mean_pool_degrade_s: f64,
    /// Bandwidth factor inside a pool-link window, in `(0, 1]`.
    pub pool_degrade_factor: f64,
    /// Multiplier on `crash_rate` for prefill-tier groups (disagg only).
    pub prefill_crash_mult: f64,
    /// Multiplier on `crash_rate` for decode-tier groups (disagg only).
    pub decode_crash_mult: f64,
}

impl Default for ChaosRates {
    /// A plausible bad hour: a group crashes about every 200 s of
    /// group-time and stays down ~10 s, the host link loses 3/4 of its
    /// bandwidth about once a minute for ~5 s, and one group in sixteen
    /// runs 30% slow. In a disaggregated fleet the pool links additionally
    /// lose half their bandwidth about every two minutes for ~5 s, with
    /// both tiers crashing at the base rate.
    fn default() -> Self {
        ChaosRates {
            crash_rate: 1.0 / 200.0,
            mean_outage_s: 10.0,
            degrade_rate: 1.0 / 60.0,
            mean_degrade_s: 5.0,
            degrade_factor: 0.25,
            straggler_probability: 1.0 / 16.0,
            straggler_slowdown: 1.3,
            pool_degrade_rate: 1.0 / 120.0,
            mean_pool_degrade_s: 5.0,
            pool_degrade_factor: 0.5,
            prefill_crash_mult: 1.0,
            decode_crash_mult: 1.0,
        }
    }
}

/// Namespace for fault-schedule generators.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan;

/// Stream-splitting constant (the SplitMix64 golden-gamma), so per-group
/// chaos streams decorrelate from each other and from the degrade stream.
const STREAM_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl FaultPlan {
    /// Draws a chaos schedule over `groups` groups and `[0, horizon)`.
    ///
    /// Each group gets its own SplitMix64 stream derived from `seed`, so
    /// the schedule for group `g` does not change when `groups` grows.
    /// Crash windows are sequential per group (a group cannot crash while
    /// it is already down); degrade windows are a single fleet-wide
    /// sequential process. The pool-link and per-tier fields of `rates`
    /// are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a rate or factor is out of range (via
    /// [`FaultSchedule::new`]) or `horizon` is zero.
    pub fn chaos(seed: u64, groups: usize, horizon: Time, rates: &ChaosRates) -> FaultSchedule {
        let rates = ChaosRates {
            pool_degrade_rate: 0.0,
            prefill_crash_mult: 1.0,
            decode_crash_mult: 1.0,
            ..*rates
        };
        Self::chaos_disagg(seed, &vec![GroupRole::Colocated; groups], horizon, &rates)
    }

    /// Draws a chaos schedule for a disaggregated fleet whose group `g`
    /// plays `roles[g]`: per-tier crash weighting (`crash_rate` scaled by
    /// `prefill_crash_mult` / `decode_crash_mult`) plus a pool-link
    /// degradation process alongside the host-link one. The per-group and
    /// host-link streams draw exactly as [`chaos`](Self::chaos) does, so
    /// with unit multipliers and a zero pool rate the two generators
    /// produce the same schedule (modulo the added pool windows).
    ///
    /// # Panics
    ///
    /// Panics if a rate, factor or multiplier is out of range or
    /// `horizon` is zero.
    pub fn chaos_disagg(
        seed: u64,
        roles: &[GroupRole],
        horizon: Time,
        rates: &ChaosRates,
    ) -> FaultSchedule {
        assert!(horizon > Time::ZERO, "chaos needs a positive horizon");
        for mult in [rates.prefill_crash_mult, rates.decode_crash_mult] {
            assert!(mult.is_finite() && mult >= 0.0, "crash multiplier must be >= 0, got {mult}");
        }
        let horizon_s = horizon.as_secs();
        let mut specs = Vec::new();
        for (group, role) in roles.iter().enumerate() {
            let crash_rate = rates.crash_rate
                * match role {
                    GroupRole::Colocated => 1.0,
                    GroupRole::Prefill => rates.prefill_crash_mult,
                    GroupRole::Decode => rates.decode_crash_mult,
                };
            // One stream per group: sequential crash windows, then the
            // straggler draw.
            let mut rng = Rng64::seed(seed ^ (group as u64 + 1).wrapping_mul(STREAM_GAMMA));
            if crash_rate > 0.0 {
                let mut t = rng.exponential(crash_rate);
                while t < horizon_s {
                    let outage = rng.exponential(1.0 / rates.mean_outage_s).max(1e-6);
                    specs.push(FaultSpec::GroupCrash {
                        group,
                        at: Time::from_secs_f64(t),
                        recover_after: Some(Time::from_secs_f64(outage)),
                    });
                    t += outage + rng.exponential(crash_rate);
                }
            }
            if rates.straggler_probability > 0.0
                && rng.next_f64() < rates.straggler_probability
                && rates.straggler_slowdown > 1.0
            {
                specs.push(FaultSpec::Straggler { group, slowdown: rates.straggler_slowdown });
            }
        }
        // The fleet-wide host-link and pool-link window processes.
        let windows = [
            (1, rates.degrade_rate, rates.mean_degrade_s, rates.degrade_factor, false),
            (
                2,
                rates.pool_degrade_rate,
                rates.mean_pool_degrade_s,
                rates.pool_degrade_factor,
                true,
            ),
        ];
        for (stream, rate, mean_s, bandwidth_factor, pool) in
            windows.into_iter().filter(|w| w.1 > 0.0)
        {
            let mut rng = Rng64::seed(seed.wrapping_add(STREAM_GAMMA.wrapping_mul(stream)));
            let mut t = rng.exponential(rate);
            while t < horizon_s {
                let length_s = rng.exponential(1.0 / mean_s).max(1e-6);
                let (at, duration) = (Time::from_secs_f64(t), Time::from_secs_f64(length_s));
                specs.push(if pool {
                    FaultSpec::PoolLinkDegrade { at, duration, bandwidth_factor }
                } else {
                    FaultSpec::HostLinkDegrade { at, duration, bandwidth_factor }
                });
                t += length_s + rng.exponential(rate);
            }
        }
        FaultSchedule::new(specs)
    }
}

/// What the fault machinery did during one fleet run — the raw material
/// for the report's degraded-mode section, exposed for property tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    /// Crash events applied (a crash aligned into an existing outage is
    /// skipped, not double-counted).
    pub crashes: u64,
    /// Recovery events applied.
    pub recoveries: u64,
    /// Per-group outage windows `(group, down_from, up_at)`; `None` means
    /// the group never rejoined.
    pub down_windows: Vec<(usize, Time, Option<Time>)>,
    /// One entry per orphaning: the request and the crash instant that
    /// evicted it (a request appears once per crash it survives).
    pub orphaned: Vec<(RequestId, Time)>,
    /// Redispatches of crash orphans (deferred first dispatches of
    /// arrivals that found no live group are not retries).
    pub retries: u64,
    /// Redispatch counts per priority class.
    pub retries_by_class: Vec<(PriorityClass, u64)>,
    /// Requests dropped — out of attempts, or undispatchable because the
    /// fleet never recovered.
    pub dropped: Vec<(RequestId, PriorityClass)>,
    /// Recoveries that re-seeded at least one warm-retained context
    /// ([`RecoveryMode::Warm`]).
    pub warm_rejoins: u64,
    /// Recoveries that rejoined the serving set empty (every recovery
    /// under [`RecoveryMode::Cold`]; a warm recovery whose crash orphaned
    /// nothing). Standby recoveries join the spare reserve and count under
    /// neither.
    pub cold_rejoins: u64,
    /// Spare groups promoted into the serving set at crash instants
    /// ([`RecoveryMode::Standby`]).
    pub promotions: u64,
    /// Contexts a crashed decode group had claimed that were rescued from
    /// the shared pool's parked copies instead of re-prefilled, with the
    /// crash instant (disaggregated fleets only).
    pub pool_rescued: Vec<(RequestId, Time)>,
    /// Handed-off contexts whose pool copy was gone at crash time (evicted
    /// or volatile pool) — they fell back to re-prefill.
    pub pool_lost: u64,
    /// Arrivals shed by the admission policy, never dispatched.
    pub shed: Vec<(RequestId, PriorityClass)>,
    /// Last offered arrival — the availability horizon extends at least
    /// this far even if the fleet died long before serving it.
    pub horizon: Time,
}

/// A fault event compiled onto the epoch grid. At one instant, recoveries
/// apply before degrade-window edges before crashes (rank order), and
/// within a kind events apply in compiled order — a fixed, thread-free
/// total order.
#[derive(Debug, Clone, Copy)]
struct CompiledFault {
    at: Time,
    rank: u8,
    group: usize,
    kind: CompiledKind,
}

#[derive(Debug, Clone, Copy)]
enum CompiledKind {
    Recover,
    /// A host-link (`pool: false`) or pool-link window edge.
    Degrade {
        pool: bool,
        start: bool,
        factor: f64,
    },
    Crash {
        recovers: bool,
    },
}

/// Aligns `t` up to the next epoch-grid instant.
pub(crate) fn epoch_ceil(t: Time, epoch_ps: u64) -> Time {
    Time::from_ps(
        t.as_ps()
            .div_ceil(epoch_ps)
            .checked_mul(epoch_ps)
            .expect("epoch grid instant overflows Time"),
    )
}

/// Compiles the schedule onto the epoch grid: every instant is aligned up,
/// every window spans at least one epoch, and the result is sorted by
/// `(instant, rank, group)` with compiled order breaking residual ties
/// (stable sort).
fn compile_faults(schedule: &FaultSchedule, epoch_ps: u64) -> Vec<CompiledFault> {
    let one_epoch_after = |t: Time| {
        Time::from_ps(t.as_ps().checked_add(epoch_ps).expect("fault window end overflows"))
    };
    let mut events = Vec::new();
    for spec in schedule.specs() {
        match *spec {
            FaultSpec::GroupCrash { group, at, recover_after } => {
                let crash_at = epoch_ceil(at, epoch_ps);
                let kind = CompiledKind::Crash { recovers: recover_after.is_some() };
                events.push(CompiledFault { at: crash_at, rank: 3, group, kind });
                if let Some(d) = recover_after {
                    let recover_at = epoch_ceil(at + d, epoch_ps).max(one_epoch_after(crash_at));
                    let kind = CompiledKind::Recover;
                    events.push(CompiledFault { at: recover_at, rank: 0, group, kind });
                }
            }
            FaultSpec::HostLinkDegrade { at, duration, bandwidth_factor: factor }
            | FaultSpec::PoolLinkDegrade { at, duration, bandwidth_factor: factor } => {
                let pool = matches!(spec, FaultSpec::PoolLinkDegrade { .. });
                let start = epoch_ceil(at, epoch_ps);
                let end = epoch_ceil(at + duration, epoch_ps).max(one_epoch_after(start));
                for (at, rank, start) in [(start, 2, true), (end, 1, false)] {
                    let kind = CompiledKind::Degrade { pool, start, factor };
                    events.push(CompiledFault { at, rank, group: 0, kind });
                }
            }
            // Stragglers are construction-time, not events.
            FaultSpec::Straggler { .. } => {}
        }
    }
    events.sort_by_key(|e| (e.at, e.rank, e.group));
    events
}

/// The fleet's fault and recovery state machine: the compiled events,
/// which groups are alive and serving, the standby reserve, warm-retained
/// contexts, the active degrade windows and the [`FaultLog`]. What happens
/// to a crash orphan that was not retained is the driver's call.
pub(crate) struct FaultState {
    events: Vec<CompiledFault>,
    next: usize,
    recovery: RecoveryMode,
    roles: Vec<GroupRole>,
    alive: Vec<bool>,
    down_since: Vec<Option<Time>>,
    in_service: Vec<bool>,
    spares: BTreeSet<usize>,
    /// Warm retention: per crashed group, the orphans that kept their KV
    /// and re-seed (skipping re-prefill) when the group rejoins.
    retained: BTreeMap<usize, Vec<RequestSpec>>,
    /// Active degrade windows as `(pool link?, factor)`.
    degrades: Vec<(bool, f64)>,
    pub(crate) log: FaultLog,
}

impl FaultState {
    /// Compiles `schedule` onto the epoch grid and seats the standby
    /// reserve: the last `spares` groups of each role start outside the
    /// serving set. Under Cold/Warm every group serves from the start.
    pub(crate) fn new(
        schedule: &FaultSchedule,
        epoch_ps: u64,
        recovery: RecoveryMode,
        roles: &[GroupRole],
    ) -> Self {
        let mut in_service = vec![true; roles.len()];
        let mut spares = BTreeSet::new();
        if let RecoveryMode::Standby { spares: n } = recovery {
            for role in [GroupRole::Colocated, GroupRole::Prefill, GroupRole::Decode] {
                for g in (0..roles.len()).rev().filter(|&g| roles[g] == role).take(n) {
                    in_service[g] = false;
                    spares.insert(g);
                }
            }
        }
        FaultState {
            events: compile_faults(schedule, epoch_ps),
            next: 0,
            recovery,
            roles: roles.to_vec(),
            alive: vec![true; roles.len()],
            down_since: vec![None; roles.len()],
            in_service,
            spares,
            retained: BTreeMap::new(),
            degrades: Vec::new(),
            log: FaultLog::default(),
        }
    }

    /// Instant of the next event not yet applied.
    pub(crate) fn next_at(&self) -> Option<Time> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// Whether group `g` is alive and in the serving set.
    pub(crate) fn serving(&self, g: usize) -> bool {
        self.alive[g] && self.in_service[g]
    }

    /// The load of every serving group in `groups`, in order.
    pub(crate) fn serving_loads<'s>(
        &'s self,
        groups: &'s [usize],
        sims: &'s [GroupSim],
    ) -> impl Iterator<Item = GroupLoad> + 's {
        groups.iter().filter(|&&g| self.serving(g)).map(|&g| GroupLoad {
            group: g,
            outstanding: sims[g].outstanding(),
            kv_tokens: sims[g].kv_reserved(),
        })
    }

    /// The most severe active factor on the pool (`true`) or host links.
    fn link_factor(&self, pool: bool) -> f64 {
        self.degrades.iter().filter(|w| w.0 == pool).map(|w| w.1).fold(1.0, f64::min)
    }

    /// `base` under the active pool-link windows (exactly `base` if none).
    pub(crate) fn pool_cost(&self, base: KvSwapCost) -> KvSwapCost {
        match self.link_factor(true) {
            1.0 => base,
            factor => base.with_bandwidth_factor(factor),
        }
    }

    /// Applies every event due at `t`, in compiled order. A crash hands
    /// each orphan it does not warm-retain to `orphan` (with the log and
    /// the crashed group), in the `(arrival, id)` order
    /// [`GroupSim::crash`] returns them.
    pub(crate) fn apply_due(
        &mut self,
        t: Time,
        sims: &mut [GroupSim],
        mut orphan: impl FnMut(&mut FaultLog, usize, RequestSpec),
    ) {
        while self.next < self.events.len() && self.events[self.next].at == t {
            let e = self.events[self.next];
            self.next += 1;
            let g = e.group;
            match e.kind {
                CompiledKind::Crash { recovers } => {
                    if !self.alive[g] {
                        // Grid alignment folded this crash into an outage
                        // already in progress.
                        continue;
                    }
                    self.alive[g] = false;
                    self.down_since[g] = Some(t);
                    self.log.crashes += 1;
                    let was_serving = self.in_service[g];
                    self.spares.remove(&g);
                    let orphans = sims[g].crash(t);
                    // Warm recovery deterministically retains the first
                    // `retained_fraction` of the orphans: their KV survives
                    // and re-seeds at recovery instead of re-prefilling. A
                    // crash that never recovers retains nothing.
                    let keep = match self.recovery {
                        RecoveryMode::Warm { retained_fraction } if recovers => {
                            (retained_fraction * orphans.len() as f64).floor() as usize
                        }
                        _ => 0,
                    };
                    for (i, spec) in orphans.into_iter().enumerate() {
                        self.log.orphaned.push((spec.id, t));
                        if i < keep {
                            self.retained.entry(g).or_default().push(spec);
                        } else {
                            orphan(&mut self.log, g, spec);
                        }
                    }
                    if was_serving {
                        self.promote(self.roles[g]);
                    }
                }
                CompiledKind::Recover => {
                    if self.alive[g] {
                        continue;
                    }
                    self.alive[g] = true;
                    self.log.recoveries += 1;
                    let start = self.down_since[g].take().expect("recovering group was down");
                    self.log.down_windows.push((g, start, Some(t)));
                    match self.recovery {
                        RecoveryMode::Standby { .. } => {
                            // Rejoin the spare reserve, not the serving set
                            // (neither warm nor cold counted) — unless the
                            // group's tier has no serving group left, in
                            // which case a spare is promoted immediately.
                            self.in_service[g] = false;
                            self.spares.insert(g);
                            let role = self.roles[g];
                            if !(0..self.roles.len())
                                .any(|h| self.roles[h] == role && self.serving(h))
                            {
                                self.promote(role);
                            }
                        }
                        RecoveryMode::Warm { .. } => match self.retained.remove(&g) {
                            Some(kept) if !kept.is_empty() => {
                                self.log.warm_rejoins += 1;
                                for spec in kept {
                                    sims[g].push_warm(spec, t);
                                }
                            }
                            _ => self.log.cold_rejoins += 1,
                        },
                        RecoveryMode::Cold => self.log.cold_rejoins += 1,
                    }
                }
                CompiledKind::Degrade { pool, start, factor } => {
                    let before = self.link_factor(false);
                    if start {
                        self.degrades.push((pool, factor));
                    } else {
                        let pos = self
                            .degrades
                            .iter()
                            .position(|&w| w == (pool, factor))
                            .expect("degrade window was active");
                        self.degrades.swap_remove(pos);
                    }
                    let eff = self.link_factor(false);
                    if eff != before {
                        for sim in sims.iter_mut() {
                            sim.set_host_link_factor(eff);
                        }
                    }
                }
            }
        }
    }

    /// Standby backfill: promotes the lowest-indexed spare of `role` into
    /// the serving set, if the reserve holds one.
    fn promote(&mut self, role: GroupRole) {
        if let Some(&spare) = self.spares.iter().find(|&&s| self.roles[s] == role) {
            self.spares.remove(&spare);
            self.in_service[spare] = true;
            self.log.promotions += 1;
        }
    }

    /// Closes the outage windows still open at the end of the run and
    /// returns the log.
    pub(crate) fn finish(mut self) -> FaultLog {
        debug_assert!(self.retained.is_empty(), "every warm retention rejoined");
        for (g, since) in self.down_since.iter().enumerate() {
            if let Some(start) = *since {
                self.log.down_windows.push((g, start, None));
            }
        }
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_is_deterministic_and_respects_group_streams() {
        let rates = ChaosRates::default();
        let horizon = Time::from_secs_f64(600.0);
        let a = FaultPlan::chaos(42, 8, horizon, &rates);
        let b = FaultPlan::chaos(42, 8, horizon, &rates);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, FaultPlan::chaos(43, 8, horizon, &rates), "seeds diverge");
        // Growing the fleet only appends faults for the new groups: the
        // per-group streams of the first 8 groups are untouched.
        let wider = FaultPlan::chaos(42, 16, horizon, &rates);
        let of_first_8 = |s: &FaultSchedule| -> Vec<FaultSpec> {
            s.specs()
                .iter()
                .filter(|f| match **f {
                    FaultSpec::GroupCrash { group, .. } | FaultSpec::Straggler { group, .. } => {
                        group < 8
                    }
                    FaultSpec::HostLinkDegrade { .. } | FaultSpec::PoolLinkDegrade { .. } => true,
                })
                .copied()
                .collect()
        };
        assert_eq!(of_first_8(&a), of_first_8(&wider));
    }

    #[test]
    fn chaos_crash_windows_do_not_overlap_per_group() {
        let rates =
            ChaosRates { crash_rate: 1.0 / 20.0, mean_outage_s: 15.0, ..Default::default() };
        let schedule = FaultPlan::chaos(7, 4, Time::from_secs_f64(1200.0), &rates);
        for group in 0..4 {
            let mut windows: Vec<(Time, Time)> = schedule
                .specs()
                .iter()
                .filter_map(|s| match *s {
                    FaultSpec::GroupCrash { group: g, at, recover_after } if g == group => {
                        Some((at, at + recover_after.expect("chaos always recovers")))
                    }
                    _ => None,
                })
                .collect();
            assert!(!windows.is_empty(), "20 s crash rate over 20 min must fire");
            windows.sort_unstable();
            for pair in windows.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "group {group} crashed while down: {pair:?}");
            }
        }
    }

    #[test]
    fn chaos_disagg_extends_chaos_without_perturbing_it() {
        let rates = ChaosRates::default();
        let horizon = Time::from_secs_f64(600.0);
        let base = FaultPlan::chaos(42, 6, horizon, &rates);
        let roles = [
            GroupRole::Prefill,
            GroupRole::Prefill,
            GroupRole::Prefill,
            GroupRole::Decode,
            GroupRole::Decode,
            GroupRole::Decode,
        ];
        let disagg = FaultPlan::chaos_disagg(42, &roles, horizon, &rates);
        // Unit tier multipliers: everything but the pool windows matches
        // the colocated generator draw for draw.
        let non_pool: Vec<FaultSpec> = disagg
            .specs()
            .iter()
            .filter(|s| !matches!(s, FaultSpec::PoolLinkDegrade { .. }))
            .copied()
            .collect();
        assert_eq!(non_pool, base.specs());
        assert!(
            disagg.specs().iter().any(|s| matches!(s, FaultSpec::PoolLinkDegrade { .. })),
            "default pool-degrade rate over 10 min must fire"
        );
        // Disabling the pool process and immunising a tier changes only
        // what it should: no pool windows, no prefill-tier crashes.
        let quiet = ChaosRates { pool_degrade_rate: 0.0, prefill_crash_mult: 0.0, ..rates };
        let immune = FaultPlan::chaos_disagg(42, &roles, horizon, &quiet);
        assert!(!immune.specs().iter().any(|s| matches!(s, FaultSpec::PoolLinkDegrade { .. })));
        assert!(!immune
            .specs()
            .iter()
            .any(|s| matches!(s, FaultSpec::GroupCrash { group, .. } if *group < 3)));
        assert!(immune
            .specs()
            .iter()
            .any(|s| matches!(s, FaultSpec::GroupCrash { group, .. } if *group >= 3)));
    }

    #[test]
    fn recovery_mode_validation() {
        RecoveryMode::Cold.validate();
        RecoveryMode::Warm { retained_fraction: 0.5 }.validate();
        RecoveryMode::Standby { spares: 1 }.validate();
        for bad in [
            RecoveryMode::Warm { retained_fraction: -0.1 },
            RecoveryMode::Warm { retained_fraction: 1.5 },
            RecoveryMode::Standby { spares: 0 },
        ] {
            assert!(
                std::panic::catch_unwind(|| bad.validate()).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn schedule_validation_rejects_bad_specs() {
        let bad = [
            FaultSpec::HostLinkDegrade {
                at: Time::ZERO,
                duration: Time::from_secs_f64(1.0),
                bandwidth_factor: 1.5,
            },
            FaultSpec::PoolLinkDegrade {
                at: Time::ZERO,
                duration: Time::ZERO,
                bandwidth_factor: 0.5,
            },
            FaultSpec::Straggler { group: 0, slowdown: 0.5 },
            FaultSpec::GroupCrash { group: 0, at: Time::ZERO, recover_after: Some(Time::ZERO) },
        ];
        for spec in bad {
            let result = std::panic::catch_unwind(|| FaultSchedule::new(vec![spec]));
            assert!(result.is_err(), "{spec:?} must be rejected");
        }
        assert!(FaultSchedule::empty().is_empty());
        assert_eq!(
            FaultSchedule::new(vec![FaultSpec::Straggler { group: 5, slowdown: 2.0 }]).max_group(),
            Some(5)
        );
    }
}
