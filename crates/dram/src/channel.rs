//! Command-level timing model of one GDDR6-PIM channel.
//!
//! The model follows the Ramulator2 approach the paper uses: every command is
//! checked against the row-session and channel-level timing constraints and
//! issued at the earliest legal time. PIM command streams are in-order (the
//! PIM controller converts micro-ops to DRAM commands sequentially, §4.2), so
//! a simple "earliest legal issue" scheduler is exact for CENT traces.
//!
//! The PIM controller opens and closes rows only with the all-bank `ACTab`
//! and `PREab` (§4.2), so the 16 banks always hold the same row session and
//! one copy of it times the whole channel.

use cent_types::consts::{self, timing};
use cent_types::{BankGroupId, CentError, CentResult, RowAddr, Time};

use crate::command::{ActivityCounters, DramCommand};

/// Timing parameters of the GDDR6-PIM part (defaults from Table 4 of the
/// paper, plus standard GDDR6 values for constraints the paper omits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// ACT to column-read delay.
    pub t_rcdrd: Time,
    /// ACT to column-write delay.
    pub t_rcdwr: Time,
    /// Minimum row-open time before PRE.
    pub t_ras: Time,
    /// Read CAS latency (issue to first data beat).
    pub t_cl: Time,
    /// Column-to-column spacing, different bank group / all-bank PIM beat.
    pub t_ccds: Time,
    /// Column-to-column spacing, same bank group.
    pub t_ccdl: Time,
    /// Precharge to ACT delay.
    pub t_rp: Time,
    /// Read to precharge spacing.
    pub t_rtp: Time,
    /// Write recovery (last write data to PRE).
    pub t_wr: Time,
    /// Write CAS latency.
    pub t_cwl: Time,
    /// All-bank refresh duration.
    pub t_rfc: Time,
    /// Average refresh interval.
    pub t_refi: Time,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            t_rcdrd: timing::T_RCDRD,
            t_rcdwr: timing::T_RCDWR,
            t_ras: timing::T_RAS,
            t_cl: timing::T_CL,
            t_ccds: timing::T_CCDS,
            t_ccdl: timing::T_CCDL,
            t_rp: timing::T_RP,
            t_rtp: Time::from_ns(12),
            t_wr: timing::T_WR,
            t_cwl: timing::T_CWL,
            t_rfc: timing::T_RFC,
            t_refi: timing::T_REFI,
        }
    }
}

/// Timing state of one GDDR6-PIM channel (16 banks in lockstep).
///
/// # Examples
///
/// ```
/// use cent_dram::{DramCommand, PimChannelTiming};
/// use cent_types::{ColAddr, RowAddr};
///
/// let mut ch = PimChannelTiming::new();
/// let t0 = ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
/// let t1 = ch.issue(DramCommand::MacAb { col: ColAddr(0) }).unwrap();
/// // The first MAC beat waits for tRCDRD = 18 ns after the activate.
/// assert_eq!((t1 - t0).as_ns(), 18.0);
/// ```
#[derive(Debug, Clone)]
pub struct PimChannelTiming {
    params: TimingParams,
    /// The row open in every bank, if any.
    open_row: Option<RowAddr>,
    /// Issue time of the `ACTab` that opened the current row.
    act_at: Time,
    /// Issue time of the latest `PREab` that closed a row, or the end of the
    /// latest refresh less tRP; `None` before either.
    pre_at: Option<Time>,
    /// Issue time of the latest column read (RD or MAC beat) in any bank
    /// since the `ACTab`. Issue times never decrease, so this is the
    /// maximum over the banks that the `PREab` bound needs.
    last_rd: Time,
    /// Issue time of the latest column write in any bank since the `ACTab`.
    last_wr: Time,
    /// Issue time of the most recent column command, any bank.
    last_col: Time,
    /// Bank group of the most recent column command (None for all-bank).
    last_col_group: Option<BankGroupId>,
    /// Command-bus time: next command cannot issue before this.
    now: Time,
    /// End of the latest data burst (trace completion time).
    busy_until: Time,
    next_refresh: Time,
    refresh_enabled: bool,
    stats: ActivityCounters,
    has_issued_col: bool,
}

impl Default for PimChannelTiming {
    fn default() -> Self {
        Self::new()
    }
}

impl PimChannelTiming {
    /// Creates a channel with the paper's timing parameters and refresh
    /// disabled (CENT traces are short relative to tREFI; enable it for
    /// long-window studies).
    pub fn new() -> Self {
        Self::with_params(TimingParams::default())
    }

    /// Creates a channel with custom timing parameters.
    pub fn with_params(params: TimingParams) -> Self {
        PimChannelTiming {
            params,
            open_row: None,
            act_at: Time::ZERO,
            pre_at: None,
            last_rd: Time::ZERO,
            last_wr: Time::ZERO,
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

    /// Enables periodic all-bank refresh injection.
    pub fn enable_refresh(&mut self) {
        self.refresh_enabled = true;
    }

    /// The timing parameters in use.
    pub fn params(&self) -> &TimingParams {
        &self.params
    }

    /// Current command-bus time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Completion time of all issued work, including in-flight data bursts.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Activity counters accumulated so far.
    pub fn stats(&self) -> &ActivityCounters {
        &self.stats
    }

    /// Advances the channel clock to at least `t` (models idle gaps between
    /// operations, e.g. while the PNM units hold the dependency chain).
    pub fn advance_to(&mut self, t: Time) {
        self.now = self.now.max(t);
    }

    /// Computes the earliest time `cmd` may legally issue, without issuing it.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::ProtocolViolation`] if the command is illegal in
    /// the current state regardless of timing (e.g. activating an open row,
    /// or a column command with no row open).
    pub fn earliest_issue(&self, cmd: DramCommand) -> CentResult<Time> {
        let p = &self.params;
        let t = match cmd {
            DramCommand::ActAb { .. } | DramCommand::RefAb => {
                if self.open_row.is_some() {
                    return Err(CentError::ProtocolViolation(format!(
                        "{} with an open row",
                        cmd.mnemonic()
                    )));
                }
                self.pre_at.map_or(Time::ZERO, |pre| pre + p.t_rp)
            }
            DramCommand::Rd { bank, .. } => {
                self.col_ready(cmd, p.t_rcdrd, Some(bank.bank_group()))?
            }
            DramCommand::Wr { bank, .. } => {
                self.col_ready(cmd, p.t_rcdwr, Some(bank.bank_group()))?
            }
            // All-bank beats are paced at tCCD_S (the PU clock, §4.2).
            DramCommand::MacAb { .. } | DramCommand::EwMulAb { .. } => {
                self.col_ready(cmd, p.t_rcdrd, None)?
            }
            DramCommand::PreAb if self.open_row.is_some() => self.pre_ready(),
            DramCommand::PreAb => Time::ZERO,
        };
        Ok(self.now.max(t))
    }

    /// Earliest issue of column command `cmd` to bank group `group` (None
    /// for all-bank): `t_rcd` after the `ACTab`, and the column spacing
    /// after the previous column command.
    fn col_ready(
        &self,
        cmd: DramCommand,
        t_rcd: Time,
        group: Option<BankGroupId>,
    ) -> CentResult<Time> {
        if self.open_row.is_none() {
            return Err(CentError::ProtocolViolation(format!(
                "{} with no row open",
                cmd.mnemonic()
            )));
        }
        let t = self.act_at + t_rcd;
        if !self.has_issued_col {
            return Ok(t);
        }
        let spacing = match (group, self.last_col_group) {
            // Same bank group back-to-back pays the long tCCD_L.
            (Some(g), Some(prev)) if g == prev => self.params.t_ccdl,
            _ => self.params.t_ccds,
        };
        Ok(t.max(self.last_col + spacing))
    }

    /// Earliest `PREab` of the open row: tRAS after the `ACTab`, tRTP after
    /// the last read and write recovery after the last write.
    fn pre_ready(&self) -> Time {
        let p = &self.params;
        let mut t = self.act_at + p.t_ras;
        // An `ACTab` at t = 0 leaves `last_rd == act_at`, which counts as a
        // read at the activate.
        if self.last_rd > Time::ZERO || self.last_rd == self.act_at {
            t = t.max(self.last_rd + p.t_rtp);
        }
        if self.last_wr > Time::ZERO {
            t = t.max(self.last_wr + p.t_cwl + p.t_wr);
        }
        t
    }

    /// Issues `cmd` at the earliest legal time and returns that time.
    ///
    /// If refresh is enabled and the refresh deadline passed, an all-bank
    /// refresh is transparently injected first (closing rows as needed would
    /// violate PIM lockstep, so refresh only fires between row sessions —
    /// i.e. when all banks are precharged).
    ///
    /// # Errors
    ///
    /// Returns [`CentError::ProtocolViolation`] for state violations (see
    /// [`Self::earliest_issue`]).
    pub fn issue(&mut self, cmd: DramCommand) -> CentResult<Time> {
        self.refresh_if_due(cmd)?;
        let t = self.earliest_issue(cmd)?;
        self.commit(cmd, t, 1);
        Ok(t)
    }

    /// Injects the all-bank refresh due before `cmd`, if any.
    fn refresh_if_due(&mut self, cmd: DramCommand) -> CentResult<()> {
        if self.refresh_enabled
            && self.now >= self.next_refresh
            && self.open_row.is_none()
            && !matches!(cmd, DramCommand::RefAb)
        {
            let t = self.earliest_issue(DramCommand::RefAb)?;
            self.commit(DramCommand::RefAb, t, 1);
        }
        Ok(())
    }

    /// Issues a burst of `n` same-kind column commands inside one open row
    /// and returns the issue time of the last one.
    ///
    /// The result, and every piece of channel state afterwards, is identical
    /// to `n` [`Self::issue`] calls with consecutive columns starting at
    /// `first`: the first beat takes the normal path (every legality and
    /// refresh check), and the remaining `n − 1` are advanced in closed form.
    /// That is exact because the stream is in order and the row stays open:
    /// `tRCD` is met once the first beat issued, refresh only fires when all
    /// banks are closed, and each later beat waits only on the one before
    /// it — `tCCD_S` for all-bank beats, `max(tCCD_S, tCCD_L)` for same-bank
    /// `RD`/`WR`.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::ProtocolViolation`] if `first` is not a column
    /// command, if `n` is zero, or if the first beat is illegal (see
    /// [`Self::earliest_issue`]).
    pub fn issue_burst(&mut self, first: DramCommand, n: usize) -> CentResult<Time> {
        if !first.is_column() || n == 0 {
            return Err(CentError::ProtocolViolation(format!(
                "burst of {n} {} commands",
                first.mnemonic()
            )));
        }
        self.refresh_if_due(first)?;
        let t_first = self.earliest_issue(first)?;
        let p = &self.params;
        let stride = match first {
            DramCommand::Rd { .. } | DramCommand::Wr { .. } => p.t_ccds.max(p.t_ccdl),
            _ => p.t_ccds,
        };
        let t_last = t_first + stride.times(n as u64 - 1);
        // Every per-beat update is a last-writer-wins store, a max with a
        // term that grows with the issue time, or a counter increment, so
        // committing the last beat with the whole count reproduces the
        // beat-by-beat state.
        self.commit(first, t_last, n as u64);
        Ok(t_last)
    }

    /// Records `cmd` issued at `t`. A column command stands for `beats`
    /// back-to-back beats ending at `t`; every other command passes 1.
    fn commit(&mut self, cmd: DramCommand, t: Time, beats: u64) {
        let p = self.params;
        let banks = consts::BANKS_PER_CHANNEL as u64;
        match cmd {
            DramCommand::ActAb { row } => {
                self.open_row = Some(row);
                self.act_at = t;
                self.last_rd = Time::ZERO;
                self.last_wr = Time::ZERO;
                self.stats.acts += banks;
            }
            DramCommand::Rd { bank, .. } => {
                self.last_rd = t;
                self.note_col(t, Some(bank.bank_group()));
                self.busy_until = self.busy_until.max(t + p.t_cl + p.t_ccds);
                self.stats.reads += beats;
            }
            DramCommand::Wr { bank, .. } => {
                self.last_wr = t;
                self.note_col(t, Some(bank.bank_group()));
                self.busy_until = self.busy_until.max(t + p.t_cwl + p.t_ccds);
                self.stats.writes += beats;
            }
            DramCommand::MacAb { .. } => {
                self.last_rd = t;
                self.note_col(t, None);
                // The PU consumes data tCL after issue and computes in one
                // PU cycle.
                self.busy_until = self.busy_until.max(t + p.t_cl + p.t_ccds);
                self.stats.mac_beats += beats * banks;
            }
            DramCommand::EwMulAb { .. } => {
                self.last_rd = t;
                self.last_wr = t;
                self.note_col(t, None);
                self.busy_until = self.busy_until.max(t + p.t_cl + p.t_cwl + p.t_ccds);
                // One EWMUL beat reads from 2 banks and writes 1 per bank
                // group, i.e. 4 per-bank-group events; counted once per group.
                self.stats.ewmul_beats += beats * consts::BANK_GROUPS_PER_CHANNEL as u64;
            }
            DramCommand::PreAb => {
                if self.open_row.take().is_some() {
                    self.pre_at = Some(t);
                    self.stats.pres += banks;
                }
            }
            DramCommand::RefAb => {
                self.pre_at = Some(t + p.t_rfc - p.t_rp);
                self.next_refresh = t + p.t_refi;
                self.stats.refreshes += 1;
                self.now = self.now.max(t + p.t_rfc);
                self.busy_until = self.busy_until.max(t + p.t_rfc);
                self.stats.commands += 1;
                return;
            }
        }
        self.stats.commands += beats;
        // Command bus: one command slot per PU cycle.
        self.now = self.now.max(t + p.t_ccds);
        self.busy_until = self.busy_until.max(self.now);
    }

    fn note_col(&mut self, t: Time, group: Option<BankGroupId>) {
        self.last_col = t;
        self.last_col_group = group;
        self.has_issued_col = true;
    }
}

/// Convenience: runs a full command slice on a fresh channel and returns
/// `(completion_time, counters)`.
///
/// # Errors
///
/// Propagates protocol violations from [`PimChannelTiming::issue`].
pub fn time_trace(commands: &[DramCommand]) -> CentResult<(Time, ActivityCounters)> {
    let mut ch = PimChannelTiming::new();
    for &cmd in commands {
        ch.issue(cmd)?;
    }
    Ok((ch.busy_until(), *ch.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cent_types::{BankId, ColAddr};

    fn ns(t: Time) -> f64 {
        t.as_ns()
    }

    #[test]
    fn act_to_read_respects_trcdrd() {
        let mut ch = PimChannelTiming::new();
        let t_act = ch.issue(DramCommand::ActAb { row: RowAddr(5) }).unwrap();
        let t_rd = ch.issue(DramCommand::Rd { bank: BankId(0), col: ColAddr(0) }).unwrap();
        assert_eq!(ns(t_rd - t_act), 18.0);
    }

    #[test]
    fn act_to_write_respects_trcdwr() {
        let mut ch = PimChannelTiming::new();
        let t_act = ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        let t_wr = ch.issue(DramCommand::Wr { bank: BankId(1), col: ColAddr(3) }).unwrap();
        assert_eq!(ns(t_wr - t_act), 14.0);
    }

    #[test]
    fn mac_beats_stream_at_tccds() {
        let mut ch = PimChannelTiming::new();
        ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        let t0 = ch.issue(DramCommand::MacAb { col: ColAddr(0) }).unwrap();
        let t1 = ch.issue(DramCommand::MacAb { col: ColAddr(1) }).unwrap();
        let t2 = ch.issue(DramCommand::MacAb { col: ColAddr(2) }).unwrap();
        assert_eq!(ns(t1 - t0), 1.0);
        assert_eq!(ns(t2 - t1), 1.0);
    }

    #[test]
    fn same_bank_group_reads_pay_tccdl() {
        let mut ch = PimChannelTiming::new();
        ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        // Move past the tRCD window so only column spacing matters.
        ch.advance_to(Time::from_ns(100));
        let t0 = ch.issue(DramCommand::Rd { bank: BankId(0), col: ColAddr(0) }).unwrap();
        // Bank 1 is in the same bank group as bank 0 -> tCCD_L = 2 ns.
        let t1 = ch.issue(DramCommand::Rd { bank: BankId(1), col: ColAddr(0) }).unwrap();
        assert_eq!(ns(t1 - t0), 2.0);
        // Bank 4 is in a different bank group -> tCCD_S = 1 ns.
        let t2 = ch.issue(DramCommand::Rd { bank: BankId(4), col: ColAddr(0) }).unwrap();
        assert_eq!(ns(t2 - t1), 1.0);
    }

    #[test]
    fn row_cycle_time() {
        let mut ch = PimChannelTiming::new();
        let t_act = ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        // PREab with no column activity waits for tRAS = 27 ns.
        let t_pre = ch.issue(DramCommand::PreAb).unwrap();
        assert_eq!(ns(t_pre - t_act), 27.0);
        // Next ACTab waits tRP = 16 ns after the precharge.
        let t_act2 = ch.issue(DramCommand::ActAb { row: RowAddr(1) }).unwrap();
        assert_eq!(ns(t_act2 - t_pre), 16.0);
    }

    #[test]
    fn full_row_of_mac_beats_timing() {
        // The canonical GEMV inner loop: ACTab + 64 MACab + PREab.
        let mut cmds = vec![DramCommand::ActAb { row: RowAddr(0) }];
        for c in 0..64 {
            cmds.push(DramCommand::MacAb { col: ColAddr(c) });
        }
        cmds.push(DramCommand::PreAb);
        cmds.push(DramCommand::ActAb { row: RowAddr(1) });
        let mut ch = PimChannelTiming::new();
        let mut times = Vec::new();
        for &c in &cmds {
            times.push(ch.issue(c).unwrap());
        }
        // First MAC at 18 ns, last (64th) at 18 + 63 = 81 ns.
        assert_eq!(ns(times[1]), 18.0);
        assert_eq!(ns(times[64]), 81.0);
        // PRE waits for last read + tRTP = 93 ns (> tRAS).
        assert_eq!(ns(times[65]), 93.0);
        // Next row activates at 93 + 16 = 109 ns: the per-row cost the paper's
        // bandwidth efficiency analysis relies on.
        assert_eq!(ns(times[66]), 109.0);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut ch = PimChannelTiming::new();
        ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        let t_wr = ch.issue(DramCommand::Wr { bank: BankId(2), col: ColAddr(0) }).unwrap();
        let t_pre = ch.issue(DramCommand::PreAb).unwrap();
        // PRE >= WR + tCWL + tWR = WR + 8 + 15.
        assert_eq!(ns(t_pre - t_wr), 23.0);
    }

    #[test]
    fn illegal_commands_are_rejected() {
        let mut ch = PimChannelTiming::new();
        assert!(ch.issue(DramCommand::Rd { bank: BankId(0), col: ColAddr(0) }).is_err());
        ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        assert!(ch.issue(DramCommand::ActAb { row: RowAddr(1) }).is_err());
        assert!(ch.issue(DramCommand::RefAb).is_err(), "row open");
        ch.issue(DramCommand::PreAb).unwrap();
        assert!(ch.issue(DramCommand::MacAb { col: ColAddr(0) }).is_err(), "row closed");
    }

    #[test]
    fn refresh_injected_between_row_sessions() {
        let mut ch = PimChannelTiming::new();
        ch.enable_refresh();
        ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        ch.issue(DramCommand::PreAb).unwrap();
        // Jump past the refresh deadline.
        ch.advance_to(Time::from_ns(2_000));
        let t_act = ch.issue(DramCommand::ActAb { row: RowAddr(1) }).unwrap();
        assert_eq!(ch.stats().refreshes, 1);
        // The ACT had to wait out tRFC from the injected refresh.
        assert!(t_act >= Time::from_ns(2_000) + TimingParams::default().t_rfc);
    }

    #[test]
    fn stats_count_bank_events() {
        let (done, stats) = time_trace(&[
            DramCommand::ActAb { row: RowAddr(0) },
            DramCommand::MacAb { col: ColAddr(0) },
            DramCommand::MacAb { col: ColAddr(1) },
            DramCommand::PreAb,
        ])
        .unwrap();
        assert_eq!(stats.acts, 16);
        assert_eq!(stats.pres, 16);
        assert_eq!(stats.mac_beats, 32);
        assert_eq!(stats.commands, 4);
        assert!(done > Time::ZERO);
    }

    #[test]
    fn advance_to_creates_idle_gap() {
        let mut ch = PimChannelTiming::new();
        ch.advance_to(Time::from_ns(100));
        let t = ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        assert_eq!(ns(t), 100.0);
    }
}
