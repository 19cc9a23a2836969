//! Randomized differential test: `issue_burst(cmd, n)` against `n` `issue`
//! calls.
//!
//! A seeded generator drives two channels through the same row sessions —
//! all-bank activates and precharges, column bursts of every kind and idle
//! gaps — one timing each burst in closed form, the other beat by beat.
//! After every step the returned time, `now()`, `busy_until()` and `stats()`
//! must agree, and so must the issue time of a probe command of every kind,
//! which reads the row-session state the public accessors hide.

use cent_dram::{DramCommand, PimChannelTiming, TimingParams};
use cent_types::consts::BANKS_PER_CHANNEL;
use cent_types::{BankId, CentResult, ColAddr, Rng64, RowAddr, Time};

const SESSIONS: u64 = 48;
const STEPS_PER_SESSION: usize = 300;

/// The parameter sets under test: the paper's, one with `tCCD_L < tCCD_S`
/// (so the bus slot, not the bank group, paces same-bank beats) and a
/// random one per seed.
fn params_for(session: u64, rng: &mut Rng64) -> TimingParams {
    match session % 3 {
        0 => TimingParams::default(),
        1 => TimingParams {
            t_ccds: Time::from_ns(3),
            t_ccdl: Time::from_ns(1),
            t_refi: Time::from_ns(700),
            ..TimingParams::default()
        },
        _ => {
            let mut ns = |lo: u64, hi: u64| {
                Time::from_ps(500 * (2 * lo + rng.next_below(2 * (hi - lo) + 1)))
            };
            let t_rp = ns(1, 20);
            TimingParams {
                t_rcdrd: ns(0, 30),
                t_rcdwr: ns(0, 30),
                t_ras: ns(0, 40),
                t_cl: ns(0, 30),
                t_ccds: ns(0, 4),
                t_ccdl: ns(0, 6),
                t_rp,
                t_rtp: ns(0, 15),
                t_wr: ns(0, 20),
                t_cwl: ns(0, 10),
                t_rfc: t_rp + ns(0, 300),
                t_refi: ns(200, 2_000),
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

fn with_col(cmd: DramCommand, col: ColAddr) -> DramCommand {
    match cmd {
        DramCommand::Rd { bank, .. } => DramCommand::Rd { bank, col },
        DramCommand::Wr { bank, .. } => DramCommand::Wr { bank, col },
        DramCommand::MacAb { .. } => DramCommand::MacAb { col },
        DramCommand::EwMulAb { .. } => DramCommand::EwMulAb { col },
        other => other,
    }
}

fn col_of(cmd: DramCommand) -> u32 {
    match cmd {
        DramCommand::Rd { col, .. }
        | DramCommand::Wr { col, .. }
        | DramCommand::MacAb { col }
        | DramCommand::EwMulAb { col } => col.0,
        _ => 0,
    }
}

/// The reference: `n` in-order `issue` calls over consecutive columns,
/// stopping at the first error.
fn issue_each(ch: &mut PimChannelTiming, first: DramCommand, n: usize) -> CentResult<Time> {
    let mut last = Time::ZERO;
    for i in 0..n as u32 {
        last = ch.issue(with_col(first, ColAddr(col_of(first) + i)))?;
    }
    Ok(last)
}

fn probes() -> Vec<DramCommand> {
    let bank = BankId(5);
    vec![
        DramCommand::ActAb { row: RowAddr(9) },
        DramCommand::PreAb,
        DramCommand::Rd { bank, col: ColAddr(0) },
        DramCommand::Rd { bank: BankId(12), col: ColAddr(0) },
        DramCommand::Wr { bank, col: ColAddr(0) },
        DramCommand::MacAb { col: ColAddr(0) },
        DramCommand::EwMulAb { col: ColAddr(0) },
        DramCommand::RefAb,
    ]
}

fn assert_same_state(burst: &PimChannelTiming, each: &PimChannelTiming, ctx: &str) {
    assert_eq!(burst.now(), each.now(), "{ctx}: now");
    assert_eq!(burst.busy_until(), each.busy_until(), "{ctx}: busy_until");
    assert_eq!(burst.stats(), each.stats(), "{ctx}: stats");
    for probe in probes() {
        let (mut b, mut e) = (burst.clone(), each.clone());
        let (tb, te) = (b.issue(probe), e.issue(probe));
        assert!(same(&tb, &te), "{ctx}: probe {probe:?}: burst {tb:?} vs per-beat {te:?}");
    }
}

/// One generated session step.
enum Step {
    Single(DramCommand),
    Burst(DramCommand, usize),
    Gap(Time),
}

/// Picks the next step from whether a row is open, mostly legal, with an
/// occasional arbitrary activate or burst so rejected commands are compared
/// as well.
fn next_step(rng: &mut Rng64, open: bool) -> Step {
    let bank = BankId(rng.next_below(BANKS_PER_CHANNEL as u64) as u16);
    let row = RowAddr(rng.next_below(8) as u32);
    let col = ColAddr(rng.next_below(64) as u32);
    let n = 1 + rng.next_below(64) as usize;
    match rng.next_below(20) {
        0 => Step::Gap(Time::from_ps(rng.next_below(3_000_000))),
        1 => Step::Single(DramCommand::PreAb),
        2 => Step::Single(DramCommand::ActAb { row }),
        3 | 4 if open => Step::Single(DramCommand::PreAb),
        5 => {
            // Arbitrary, possibly illegal, burst.
            let kinds = [
                DramCommand::MacAb { col },
                DramCommand::EwMulAb { col },
                DramCommand::Rd { bank, col },
                DramCommand::Wr { bank, col },
            ];
            Step::Burst(kinds[rng.next_below(4) as usize], n)
        }
        _ if !open => Step::Single(DramCommand::ActAb { row }),
        6..=11 => {
            let kind = if rng.next_below(4) == 0 {
                DramCommand::EwMulAb { col }
            } else {
                DramCommand::MacAb { col }
            };
            Step::Burst(kind, n)
        }
        _ => {
            if rng.next_below(2) == 0 {
                Step::Burst(DramCommand::Rd { bank, col }, n)
            } else {
                Step::Burst(DramCommand::Wr { bank, col }, n)
            }
        }
    }
}

#[test]
fn burst_matches_per_beat_issue_over_random_row_sessions() {
    let mut bursts = 0u64;
    let mut refreshes = 0u64;
    for session in 0..SESSIONS {
        let mut rng = Rng64::seed(0xB0A5_7000 + session);
        let params = params_for(session, &mut rng);
        let mut burst = PimChannelTiming::with_params(params);
        let mut each = PimChannelTiming::with_params(params);
        if session % 2 == 1 {
            burst.enable_refresh();
            each.enable_refresh();
        }
        let mut open = false;
        for step in 0..STEPS_PER_SESSION {
            let ctx = format!("session {session} step {step} ({params:?})");
            match next_step(&mut rng, open) {
                Step::Gap(gap) => {
                    let t = burst.now() + gap;
                    burst.advance_to(t);
                    each.advance_to(t);
                }
                Step::Single(cmd) => {
                    let (tb, te) = (burst.issue(cmd), each.issue(cmd));
                    assert!(same(&tb, &te), "{ctx}: {cmd:?}");
                    if tb.is_ok() {
                        open = matches!(cmd, DramCommand::ActAb { .. });
                    }
                }
                Step::Burst(cmd, n) => {
                    let tb = burst.issue_burst(cmd, n);
                    let te = issue_each(&mut each, cmd, n);
                    assert!(same(&tb, &te), "{ctx}: {n} x {cmd:?}: {tb:?} vs {te:?}");
                    bursts += u64::from(tb.is_ok() && n > 1);
                }
            }
            assert_same_state(&burst, &each, &ctx);
        }
        refreshes += each.stats().refreshes;
    }
    // The generator must actually exercise multi-beat bursts and refresh.
    assert!(bursts > 1_000, "only {bursts} multi-beat bursts");
    assert!(refreshes > 0, "no refresh fired");
}

#[test]
fn burst_rejects_empty_and_non_column_runs() {
    let mut ch = PimChannelTiming::new();
    ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
    let before = (ch.now(), ch.busy_until(), *ch.stats());
    assert!(ch.issue_burst(DramCommand::MacAb { col: ColAddr(0) }, 0).is_err());
    assert!(ch.issue_burst(DramCommand::PreAb, 2).is_err());
    assert_eq!((ch.now(), ch.busy_until(), *ch.stats()), before);
}
