//! DRAM command vocabulary for a GDDR6-PIM channel.
//!
//! The PIM controller drives each channel's 16 banks in lockstep (§4.2):
//! `ACTab` opens the same row in all 16 banks at once (enabled by AiM's
//! reservoir capacitors), `MACab`/`EWMULab` fire one 256-bit beat through
//! every near-bank PU, and `PREab` closes all rows (already part of stock
//! GDDR6). Single-bank `RD`/`WR` column accesses and the all-bank `REFab`
//! complete the vocabulary; there is no single-bank ACT or PRE, because the
//! controller never issues one.

use cent_types::{BankId, ColAddr, RowAddr};

/// One command on the channel's command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Activate the same `row` in **all 16 banks** simultaneously.
    ///
    /// This command is the key PIM enabler: it lets all near-bank PUs stream
    /// the same row-relative columns in lockstep.
    ActAb {
        /// Row to open in every bank.
        row: RowAddr,
    },
    /// Precharge all banks.
    PreAb,
    /// Column read of one 256-bit beat from an open row.
    Rd {
        /// Target bank.
        bank: BankId,
        /// Column within the open row.
        col: ColAddr,
    },
    /// Column write of one 256-bit beat to an open row.
    Wr {
        /// Target bank.
        bank: BankId,
        /// Column within the open row.
        col: ColAddr,
    },
    /// All-bank MAC beat: every PU multiplies the 256-bit beat at `col` of its
    /// local bank with its second operand (Global Buffer broadcast or
    /// neighbouring bank) and accumulates.
    MacAb {
        /// Column within the open row, identical across banks.
        col: ColAddr,
    },
    /// All-bank element-wise multiply beat (`EW_MUL` micro-op): reads a beat
    /// from two banks of each bank group and writes the product to a third.
    EwMulAb {
        /// Column within the open row.
        col: ColAddr,
    },
    /// All-bank auto-refresh.
    RefAb,
}

impl DramCommand {
    /// Whether this is a column command (occupies the column command slot and
    /// is paced by `tCCD`).
    pub fn is_column(self) -> bool {
        matches!(
            self,
            DramCommand::Rd { .. }
                | DramCommand::Wr { .. }
                | DramCommand::MacAb { .. }
                | DramCommand::EwMulAb { .. }
        )
    }

    /// Whether this command touches every bank.
    pub fn is_all_bank(self) -> bool {
        matches!(
            self,
            DramCommand::ActAb { .. }
                | DramCommand::PreAb
                | DramCommand::MacAb { .. }
                | DramCommand::EwMulAb { .. }
                | DramCommand::RefAb
        )
    }

    /// Short mnemonic, as it would appear in a command trace.
    pub fn mnemonic(self) -> &'static str {
        match self {
            DramCommand::ActAb { .. } => "ACTab",
            DramCommand::PreAb => "PREab",
            DramCommand::Rd { .. } => "RD",
            DramCommand::Wr { .. } => "WR",
            DramCommand::MacAb { .. } => "MACab",
            DramCommand::EwMulAb { .. } => "EWMULab",
            DramCommand::RefAb => "REFab",
        }
    }
}

/// Activity counters consumed by the power model (`cent-power`).
///
/// Counts are in *per-bank events*: an `ACTab` increments `acts` by 16
/// because all 16 banks spend activation current.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Activates (bank events).
    pub acts: u64,
    /// Precharges (bank events).
    pub pres: u64,
    /// 256-bit read beats.
    pub reads: u64,
    /// 256-bit write beats.
    pub writes: u64,
    /// Per-bank MAC beats (one `MACab` = 16 of these).
    pub mac_beats: u64,
    /// Per-bank element-wise-multiply beats.
    pub ewmul_beats: u64,
    /// All-bank refresh commands.
    pub refreshes: u64,
    /// Commands issued in total (bus occupancy proxy).
    pub commands: u64,
}

impl ActivityCounters {
    /// Merges counters from another channel or window.
    pub fn merge(&mut self, other: &ActivityCounters) {
        self.acts += other.acts;
        self.pres += other.pres;
        self.reads += other.reads;
        self.writes += other.writes;
        self.mac_beats += other.mac_beats;
        self.ewmul_beats += other.ewmul_beats;
        self.refreshes += other.refreshes;
        self.commands += other.commands;
    }

    /// Total bytes moved through the bank I/O (32 B per beat).
    pub fn bytes_moved(&self) -> u64 {
        (self.reads + self.writes + self.mac_beats + self.ewmul_beats * 3) * 32
    }

    /// Scales every counter (used when extrapolating one simulated block to a
    /// full model).
    pub fn scaled(&self, factor: f64) -> ActivityCounters {
        let s = |v: u64| (v as f64 * factor).round() as u64;
        ActivityCounters {
            acts: s(self.acts),
            pres: s(self.pres),
            reads: s(self.reads),
            writes: s(self.writes),
            mac_beats: s(self.mac_beats),
            ewmul_beats: s(self.ewmul_beats),
            refreshes: s(self.refreshes),
            commands: s(self.commands),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cent_types::{BankId, ColAddr, RowAddr};

    #[test]
    fn column_classification() {
        assert!(DramCommand::Rd { bank: BankId(0), col: ColAddr(0) }.is_column());
        assert!(DramCommand::MacAb { col: ColAddr(1) }.is_column());
        assert!(!DramCommand::ActAb { row: RowAddr(0) }.is_column());
        assert!(!DramCommand::PreAb.is_column());
    }

    #[test]
    fn all_bank_classification() {
        assert!(DramCommand::ActAb { row: RowAddr(3) }.is_all_bank());
        assert!(DramCommand::RefAb.is_all_bank());
        assert!(!DramCommand::Wr { bank: BankId(2), col: ColAddr(0) }.is_all_bank());
    }

    #[test]
    fn mnemonics() {
        assert_eq!(DramCommand::PreAb.mnemonic(), "PREab");
        assert_eq!(DramCommand::MacAb { col: ColAddr(0) }.mnemonic(), "MACab");
    }

    #[test]
    fn counters_merge_and_bytes() {
        let mut a = ActivityCounters { reads: 2, mac_beats: 16, ..Default::default() };
        let b = ActivityCounters { writes: 1, ewmul_beats: 1, ..Default::default() };
        a.merge(&b);
        // 2 reads + 1 write + 16 macs + 1 ewmul×3 banks = 22 beats × 32 B.
        assert_eq!(a.bytes_moved(), 22 * 32);
    }

    #[test]
    fn counters_scale() {
        let a = ActivityCounters { acts: 10, mac_beats: 100, ..Default::default() };
        let s = a.scaled(2.5);
        assert_eq!(s.acts, 25);
        assert_eq!(s.mac_beats, 250);
    }
}
