//! Randomized differential test: the lockstep-bank `PimChannelTiming`
//! against a 16-bank reference model.
//!
//! `PimChannelTiming` keeps one row session per channel, because the PIM
//! controller opens and closes rows only with all-bank `ACTab`/`PREab`. The
//! reference below is the earlier per-bank model, kept here as a test-only
//! copy: every bank carries its own open row, activate and precharge times
//! and last read and write, and every all-bank command walks all 16 of them.
//! Per-bank `ACT`/`PRE` and the `tRRD_S` spacing they needed are left out,
//! as nothing issues them.
//!
//! Seeded sessions drive both models through the same commands: `ACTab`,
//! `PREab` and `REFab` with refresh on and off, all-bank and single-bank
//! bursts across bank groups, idle gaps, illegal commands and random timing
//! parameters, including tRTP > tRAS and zero tRCD/tCCD. The model under
//! test issues bursts through `issue_burst` or beat by beat; the reference
//! always goes beat by beat. After every step the result or error, `now()`,
//! `busy_until()`, `stats()` and the issue time of a probe of every command
//! kind must agree.

use cent_dram::{ActivityCounters, DramCommand, PimChannelTiming, TimingParams};
use cent_types::consts::{BANKS_PER_CHANNEL, BANK_GROUPS_PER_CHANNEL};
use cent_types::{BankGroupId, BankId, CentError, CentResult, ColAddr, Rng64, RowAddr, Time};

const SESSIONS: u64 = 96;
const STEPS_PER_SESSION: usize = 400;

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<RowAddr>,
    act_at: Time,
    pre_at: Time,
    last_rd: Time,
    last_wr: Time,
    ever_precharged: bool,
}

/// The 16-bank reference model.
#[derive(Debug, Clone)]
struct Reference {
    params: TimingParams,
    banks: [BankState; BANKS_PER_CHANNEL],
    last_col: Time,
    last_col_group: Option<BankGroupId>,
    now: Time,
    busy_until: Time,
    next_refresh: Time,
    refresh_enabled: bool,
    stats: ActivityCounters,
    has_issued_col: bool,
}

fn violation(what: String) -> CentError {
    CentError::ProtocolViolation(what)
}

impl Reference {
    fn with_params(params: TimingParams) -> Self {
        Reference {
            params,
            banks: [BankState::default(); BANKS_PER_CHANNEL],
            last_col: Time::ZERO,
            last_col_group: None,
            now: Time::ZERO,
            busy_until: Time::ZERO,
            next_refresh: params.t_refi,
            refresh_enabled: false,
            stats: ActivityCounters::default(),
            has_issued_col: false,
        }
    }

    fn earliest_issue(&self, cmd: DramCommand) -> CentResult<Time> {
        let p = &self.params;
        let mut t = self.now;
        match cmd {
            DramCommand::ActAb { .. } | DramCommand::RefAb => {
                for (i, b) in self.banks.iter().enumerate() {
                    if b.open_row.is_some() {
                        return Err(violation(format!("{cmd:?} with open row in bank {i}")));
                    }
                    if b.ever_precharged {
                        t = t.max(b.pre_at + p.t_rp);
                    }
                }
            }
            DramCommand::Rd { bank, .. } | DramCommand::Wr { bank, .. } => {
                let b = &self.banks[bank.index()];
                if b.open_row.is_none() {
                    return Err(violation(format!("{cmd:?} on closed {bank}")));
                }
                let t_rcd =
                    if matches!(cmd, DramCommand::Rd { .. }) { p.t_rcdrd } else { p.t_rcdwr };
                t = t.max(b.act_at + t_rcd);
                t = t.max(self.col_ready(Some(bank.bank_group())));
            }
            DramCommand::MacAb { .. } | DramCommand::EwMulAb { .. } => {
                for (i, b) in self.banks.iter().enumerate() {
                    if b.open_row.is_none() {
                        return Err(violation(format!("{cmd:?} with closed bank {i}")));
                    }
                    t = t.max(b.act_at + p.t_rcdrd);
                }
                t = t.max(self.col_ready(None));
            }
            DramCommand::PreAb => {
                for b in &self.banks {
                    if b.open_row.is_some() {
                        t = t.max(self.pre_ready(b));
                    }
                }
            }
        }
        Ok(t)
    }

    fn col_ready(&self, group: Option<BankGroupId>) -> Time {
        if !self.has_issued_col {
            return Time::ZERO;
        }
        let spacing = match (group, self.last_col_group) {
            (Some(g), Some(prev)) if g == prev => self.params.t_ccdl,
            _ => self.params.t_ccds,
        };
        self.last_col + spacing
    }

    fn pre_ready(&self, b: &BankState) -> Time {
        let p = &self.params;
        let mut t = b.act_at + p.t_ras;
        if b.last_rd > Time::ZERO || (b.open_row.is_some() && b.last_rd == b.act_at) {
            t = t.max(b.last_rd + p.t_rtp);
        }
        if b.last_wr > Time::ZERO {
            t = t.max(b.last_wr + p.t_cwl + p.t_wr);
        }
        t
    }

    fn issue(&mut self, cmd: DramCommand) -> CentResult<Time> {
        if self.refresh_enabled
            && self.now >= self.next_refresh
            && self.banks.iter().all(|b| b.open_row.is_none())
            && !matches!(cmd, DramCommand::RefAb)
        {
            self.apply(DramCommand::RefAb)?;
        }
        self.apply(cmd)
    }

    fn apply(&mut self, cmd: DramCommand) -> CentResult<Time> {
        let t = self.earliest_issue(cmd)?;
        let p = self.params;
        match cmd {
            DramCommand::ActAb { row } => {
                for b in &mut self.banks {
                    b.open_row = Some(row);
                    b.act_at = t;
                    b.last_rd = Time::ZERO;
                    b.last_wr = Time::ZERO;
                }
                self.stats.acts += BANKS_PER_CHANNEL as u64;
            }
            DramCommand::Rd { bank, .. } => {
                self.banks[bank.index()].last_rd = t;
                self.note_col(t, Some(bank.bank_group()));
                self.busy_until = self.busy_until.max(t + p.t_cl + p.t_ccds);
                self.stats.reads += 1;
            }
            DramCommand::Wr { bank, .. } => {
                self.banks[bank.index()].last_wr = t;
                self.note_col(t, Some(bank.bank_group()));
                self.busy_until = self.busy_until.max(t + p.t_cwl + p.t_ccds);
                self.stats.writes += 1;
            }
            DramCommand::MacAb { .. } => {
                for b in &mut self.banks {
                    b.last_rd = t;
                }
                self.note_col(t, None);
                self.busy_until = self.busy_until.max(t + p.t_cl + p.t_ccds);
                self.stats.mac_beats += BANKS_PER_CHANNEL as u64;
            }
            DramCommand::EwMulAb { .. } => {
                for b in &mut self.banks {
                    b.last_rd = t;
                    b.last_wr = t;
                }
                self.note_col(t, None);
                self.busy_until = self.busy_until.max(t + p.t_cl + p.t_cwl + p.t_ccds);
                self.stats.ewmul_beats += BANK_GROUPS_PER_CHANNEL as u64;
            }
            DramCommand::PreAb => {
                let mut closed = 0;
                for b in &mut self.banks {
                    if b.open_row.is_some() {
                        b.open_row = None;
                        b.pre_at = t;
                        b.ever_precharged = true;
                        closed += 1;
                    }
                }
                self.stats.pres += closed;
            }
            DramCommand::RefAb => {
                for b in &mut self.banks {
                    b.pre_at = t + p.t_rfc - p.t_rp;
                    b.ever_precharged = true;
                }
                self.next_refresh = t + p.t_refi;
                self.stats.refreshes += 1;
                self.now = self.now.max(t + p.t_rfc);
                self.busy_until = self.busy_until.max(t + p.t_rfc);
                self.stats.commands += 1;
                return Ok(t);
            }
        }
        self.stats.commands += 1;
        self.now = self.now.max(t + p.t_ccds);
        self.busy_until = self.busy_until.max(self.now);
        Ok(t)
    }

    fn note_col(&mut self, t: Time, group: Option<BankGroupId>) {
        self.last_col = t;
        self.last_col_group = group;
        self.has_issued_col = true;
    }
}

/// Timing parameters by session: the paper's; tRTP > tRAS, so a `PREab`
/// right after an `ACTab` at t = 0 waits on tRTP; zero tRCD and tCCD, so
/// column commands land on their `ACTab` and on each other; and random ones
/// that include zeros.
fn params_for(session: u64, rng: &mut Rng64) -> TimingParams {
    let paper = TimingParams::default();
    match session % 4 {
        0 => paper,
        1 => TimingParams {
            t_ras: Time::from_ns(5),
            t_rtp: Time::from_ns(30),
            t_refi: Time::from_ns(600),
            ..paper
        },
        2 => TimingParams {
            t_rcdrd: Time::ZERO,
            t_rcdwr: Time::ZERO,
            t_ccds: Time::ZERO,
            t_ccdl: Time::ZERO,
            t_ras: Time::ZERO,
            ..paper
        },
        _ => {
            let mut ns = |lo: u64, hi: u64| {
                Time::from_ps(500 * (2 * lo + rng.next_below(2 * (hi - lo) + 1)))
            };
            let t_rp = ns(0, 20);
            TimingParams {
                t_rcdrd: ns(0, 30),
                t_rcdwr: ns(0, 30),
                t_ras: ns(0, 40),
                t_cl: ns(0, 30),
                t_ccds: ns(0, 4),
                t_ccdl: ns(0, 6),
                t_rp,
                t_rtp: ns(0, 50),
                t_wr: ns(0, 20),
                t_cwl: ns(0, 10),
                t_rfc: t_rp + ns(0, 300),
                t_refi: ns(100, 2_000),
            }
        }
    }
}

fn same(a: &CentResult<Time>, b: &CentResult<Time>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

fn with_col(cmd: DramCommand, col: u32) -> DramCommand {
    let col = ColAddr(col);
    match cmd {
        DramCommand::Rd { bank, .. } => DramCommand::Rd { bank, col },
        DramCommand::Wr { bank, .. } => DramCommand::Wr { bank, col },
        DramCommand::MacAb { .. } => DramCommand::MacAb { col },
        DramCommand::EwMulAb { .. } => DramCommand::EwMulAb { col },
        other => other,
    }
}

/// `n` in-order `issue` calls over consecutive columns, stopping at the
/// first error.
fn issue_each(
    n: usize,
    mut issue: impl FnMut(DramCommand) -> CentResult<Time>,
    first: DramCommand,
) -> CentResult<Time> {
    let mut last = Time::ZERO;
    for i in 0..n as u32 {
        last = issue(with_col(first, i))?;
    }
    Ok(last)
}

fn probes() -> [DramCommand; 9] {
    let col = ColAddr(0);
    [
        DramCommand::ActAb { row: RowAddr(9) },
        DramCommand::PreAb,
        DramCommand::RefAb,
        DramCommand::Rd { bank: BankId(5), col },
        DramCommand::Rd { bank: BankId(12), col },
        DramCommand::Wr { bank: BankId(5), col },
        DramCommand::Wr { bank: BankId(0), col },
        DramCommand::MacAb { col },
        DramCommand::EwMulAb { col },
    ]
}

fn assert_same_state(model: &PimChannelTiming, reference: &Reference, ctx: &str) {
    assert_eq!(model.now(), reference.now, "{ctx}: now");
    assert_eq!(model.busy_until(), reference.busy_until, "{ctx}: busy_until");
    assert_eq!(*model.stats(), reference.stats, "{ctx}: stats");
    for probe in probes() {
        let (mut m, mut r) = (model.clone(), reference.clone());
        let (tm, tr) = (m.issue(probe), r.issue(probe));
        assert!(same(&tm, &tr), "{ctx}: probe {probe:?}: lockstep {tm:?} vs 16-bank {tr:?}");
    }
}

/// One generated session step.
enum Step {
    Single(DramCommand),
    /// `n` commands of one kind over consecutive columns; `true` issues
    /// them with one `issue_burst`, which rejects empty and non-column runs.
    Burst(DramCommand, usize, bool),
    Gap(Time),
}

/// Picks the next step, mostly legal for whether a row is open, with
/// occasional illegal activates, refreshes and bursts.
fn next_step(rng: &mut Rng64, open: bool) -> Step {
    let bank = BankId(rng.next_below(BANKS_PER_CHANNEL as u64) as u16);
    let row = RowAddr(rng.next_below(8) as u32);
    let col = ColAddr(rng.next_below(64) as u32);
    let n = rng.next_below(65) as usize;
    let closed_form = rng.next_below(2) == 0;
    let column = match rng.next_below(6) {
        0 => DramCommand::MacAb { col },
        1 => DramCommand::EwMulAb { col },
        2 | 3 => DramCommand::Rd { bank, col },
        _ => DramCommand::Wr { bank, col },
    };
    match rng.next_below(24) {
        0 | 1 => Step::Gap(Time::from_ps(rng.next_below(1_000_000))),
        2 => Step::Gap(Time::from_ps(rng.next_below(3_000_000))),
        3 => Step::Single(DramCommand::PreAb),
        4 => Step::Single(DramCommand::ActAb { row }),
        5 => Step::Single(DramCommand::RefAb),
        6 => Step::Burst(column, n, closed_form),
        7 => Step::Burst(DramCommand::PreAb, 1 + n, true),
        8 | 9 if open => Step::Single(DramCommand::PreAb),
        _ if !open => Step::Single(DramCommand::ActAb { row }),
        _ => Step::Burst(column, n.max(1), closed_form),
    }
}

#[test]
fn lockstep_channel_matches_the_16_bank_model() {
    // Legal column beats, `ACTab`s, `PREab`s that closed a row, refreshes
    // and rejected commands, over all sessions.
    let (mut beats, mut acts, mut closes, mut refreshes, mut rejected) = (0u64, 0, 0, 0, 0);
    for session in 0..SESSIONS {
        let mut rng = Rng64::seed(0x10C5_7E90 + session);
        let params = params_for(session, &mut rng);
        let mut model = PimChannelTiming::with_params(params);
        let mut reference = Reference::with_params(params);
        if session % 2 == 1 {
            model.enable_refresh();
            reference.refresh_enabled = true;
        }
        let mut open = false;
        for step in 0..STEPS_PER_SESSION {
            let ctx = format!("session {session} step {step} ({params:?})");
            // Half the sessions open a row at t = 0 first, where a `PREab`
            // with no read in between still pays tRTP.
            let next = if step == 0 && session % 4 < 2 {
                Step::Single(DramCommand::ActAb { row: RowAddr(0) })
            } else {
                next_step(&mut rng, open)
            };
            match next {
                Step::Gap(gap) => {
                    let t = model.now() + gap;
                    model.advance_to(t);
                    reference.now = reference.now.max(t);
                }
                Step::Single(cmd) => {
                    let (tm, tr) = (model.issue(cmd), reference.issue(cmd));
                    assert!(same(&tm, &tr), "{ctx}: {cmd:?}: lockstep {tm:?} vs 16-bank {tr:?}");
                    match (cmd, tm.is_ok()) {
                        (_, false) => rejected += 1,
                        (DramCommand::ActAb { .. }, true) => {
                            open = true;
                            acts += 1;
                        }
                        (DramCommand::PreAb, true) => {
                            closes += u64::from(open);
                            open = false;
                        }
                        _ => {}
                    }
                }
                Step::Burst(cmd, n, closed_form) if closed_form && (n == 0 || !cmd.is_column()) => {
                    // A malformed burst is rejected before it issues
                    // anything, so the reference issues nothing either.
                    assert!(model.issue_burst(cmd, n).is_err(), "{ctx}: {n} x {cmd:?} accepted");
                    rejected += 1;
                }
                Step::Burst(cmd, n, closed_form) => {
                    let tm = if closed_form {
                        model.issue_burst(cmd, n)
                    } else {
                        issue_each(n, |c| model.issue(c), cmd)
                    };
                    let tr = issue_each(n, |c| reference.issue(c), cmd);
                    assert!(same(&tm, &tr), "{ctx}: {n} x {cmd:?}: {tm:?} vs {tr:?}");
                    if tm.is_ok() {
                        beats += n as u64;
                    } else {
                        rejected += 1;
                    }
                }
            }
            assert_same_state(&model, &reference, &ctx);
        }
        refreshes += model.stats().refreshes;
    }
    // The sessions must reach every kind of state change and rejection.
    assert!(beats > 100_000, "only {beats} column beats");
    assert!(acts > 2_000 && closes > 1_000, "{acts} ACTab, {closes} closing PREab");
    assert!(refreshes > 100, "only {refreshes} refreshes");
    assert!(rejected > 1_000, "only {rejected} rejected commands");
}
