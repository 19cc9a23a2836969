//! The CENT instruction set (Tables 2 and 3 of the paper).
//!
//! Instructions are transmitted from the host into each device's 2 MB
//! instruction buffer, decoded, and dispatched as micro-ops to PIM
//! controllers and PNM units (§4.2). Two operand conventions worth noting:
//!
//! * `CHmask` selects the PIM channels a broadcast micro-op targets;
//! * `OPsize` makes one instruction expand into that many micro-ops walking
//!   consecutive Shared Buffer slots / DRAM columns.
//!
//! Two fields are explicit here that the paper's table encodes inside
//! address bits: the source bank / Global Buffer slot of the `COPY_*`
//! instructions, and the second-operand source of `MAC_ABK` (Global Buffer
//! vs neighbouring bank — both §5.4 usages of the same opcode).

use core::fmt;

use cent_types::{AccRegId, BankId, ChannelId, ChannelMask, ColAddr, DeviceId, RowAddr, SbSlot};

/// Start PCs of the canned PNM RISC-V routines a `RISCV` instruction calls
/// (the host loads them into the cores' 64 KB buffers at boot, §4.2).
pub mod riscv_pc {
    /// `1/sqrt(x)` of one scalar.
    pub const RSQRT: u32 = 0x100;
    /// `1/x` of one scalar.
    pub const RECIP: u32 = 0x200;
    /// RMSNorm scale `1/sqrt(sum/n + eps)`.
    pub const RMSNORM_SCALE: u32 = 0x300;
    /// Rotary-embedding combine of four product arrays.
    pub const ROPE_COMBINE: u32 = 0x400;
    /// Element-wise vector addition (residual connections).
    pub const VEC_ADD: u32 = 0x500;
    /// Vector × scalar scaling.
    pub const VEC_SCALE: u32 = 0x600;
    /// Even/odd deinterleave (RoPE complex regrouping).
    pub const DEINTERLEAVE: u32 = 0x700;
    /// Scalar minus a count (softmax padding correction).
    pub const SUB_COUNT: u32 = 0x800;
    /// Zero the tail lanes of one beat (softmax pad clearing).
    pub const ZERO_TAIL: u32 = 0x900;
}

/// `AFid` encodings of the activation functions in the PU lookup tables
/// (the operand of `AF`).
pub mod af_id {
    /// Logistic sigmoid.
    pub const SIGMOID: u8 = 0;
    /// Hyperbolic tangent.
    pub const TANH: u8 = 1;
    /// Natural exponent.
    pub const EXP: u8 = 2;
    /// Gaussian error linear unit.
    pub const GELU: u8 = 3;
    /// Sigmoid linear unit (SiLU/Swish).
    pub const SILU: u8 = 4;
}

/// Second-operand source of `MAC_ABK` (Figure 7a datapath mux).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacOperand {
    /// 256-bit broadcast from the Global Buffer starting at `slot`.
    GlobalBuffer {
        /// First GB slot; expansion walks subsequent slots.
        slot: u8,
    },
    /// The neighbouring bank's beat (vector dot-product mode).
    NeighbourBank,
}

/// One CENT instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    // ------------------------------------------------- near-bank PU (Table 2)
    /// `MAC_ABK CHmask OPsize RO CO Regid`: `opsize` all-bank MAC beats.
    MacAbk {
        /// Target channels.
        chmask: ChannelMask,
        /// Number of beats (micro-ops).
        opsize: u32,
        /// Starting row.
        row: RowAddr,
        /// Starting column.
        col: ColAddr,
        /// Accumulation register.
        reg: AccRegId,
        /// Second-operand source.
        operand: MacOperand,
    },
    /// `EW_MUL CHmask OPsize RO CO`: element-wise multiply beats.
    EwMul {
        /// Target channels.
        chmask: ChannelMask,
        /// Number of beats.
        opsize: u32,
        /// Starting row.
        row: RowAddr,
        /// Starting column.
        col: ColAddr,
    },
    /// `AF CHmask AFid Regid`: activation function on an accumulator.
    Af {
        /// Target channels.
        chmask: ChannelMask,
        /// Which lookup table.
        af_id: u8,
        /// Accumulation register transformed in place.
        reg: AccRegId,
    },
    // ---------------------------------------------------- PNM units (Table 2)
    /// `EXP OPsize Rd Rs`: lane-wise exponent over Shared Buffer slots.
    Exp {
        /// Number of beats.
        opsize: u32,
        /// Destination slot.
        rd: SbSlot,
        /// Source slot.
        rs: SbSlot,
    },
    /// `RED OPsize Rd Rs`: 16-lane reduction per slot.
    Red {
        /// Number of beats.
        opsize: u32,
        /// Destination slot.
        rd: SbSlot,
        /// Source slot.
        rs: SbSlot,
    },
    /// `ACC OPsize Rd Rs`: lane-wise accumulation `rd += rs`.
    Acc {
        /// Number of beats.
        opsize: u32,
        /// Destination slot.
        rd: SbSlot,
        /// Source slot.
        rs: SbSlot,
    },
    /// `RISCV OPsize PC Rd Rs`: kick a RISC-V core at `pc` with slot args.
    Riscv {
        /// Data size hint handed to the routine (element count).
        opsize: u32,
        /// Routine id / start PC within the core's 64 KB buffer.
        pc: u32,
        /// Destination slot argument.
        rd: SbSlot,
        /// Source slot argument.
        rs: SbSlot,
    },
    // -------------------------------------------- device ↔ device (Table 3)
    /// `SEND_CXL DVid Rs Rd`: non-blocking send of beats starting at `rs` to
    /// slot `rd` of device `dv`.
    SendCxl {
        /// Destination device.
        dv: DeviceId,
        /// Source slot in the local Shared Buffer.
        rs: SbSlot,
        /// Destination slot in the remote Shared Buffer.
        rd: SbSlot,
        /// Number of beats to send.
        opsize: u32,
    },
    /// `RECV_CXL`: blocking receive (no device id; order-insensitive).
    RecvCxl {
        /// Number of beats expected.
        opsize: u32,
    },
    /// `BCAST_CXL DVcount Rs Rd`: broadcast to the next `dv_count` devices.
    BcastCxl {
        /// Number of subsequent devices to deliver to.
        dv_count: u8,
        /// Source slot.
        rs: SbSlot,
        /// Destination slot on each target.
        rd: SbSlot,
        /// Number of beats.
        opsize: u32,
    },
    // ---------------------------------------- Shared Buffer ↔ DRAM (Table 3)
    /// `WR_SBK CHid OPsize BK RO CO Rs`: write beats into a single bank.
    WrSbk {
        /// Target channel.
        ch: ChannelId,
        /// Number of beats.
        opsize: u32,
        /// Target bank.
        bank: BankId,
        /// Starting row.
        row: RowAddr,
        /// Starting column.
        col: ColAddr,
        /// Source Shared Buffer slot.
        rs: SbSlot,
    },
    /// `RD_SBK CHid OPsize BK RO CO Rd`: read beats from a single bank.
    RdSbk {
        /// Target channel.
        ch: ChannelId,
        /// Number of beats.
        opsize: u32,
        /// Source bank.
        bank: BankId,
        /// Starting row.
        row: RowAddr,
        /// Starting column.
        col: ColAddr,
        /// Destination Shared Buffer slot.
        rd: SbSlot,
    },
    /// `WR_ABK CHid RO CO Rs`: scatter the 16 lanes of slot `rs` across all
    /// 16 banks at element position `co` of row `ro`.
    WrAbk {
        /// Target channel.
        ch: ChannelId,
        /// Row.
        row: RowAddr,
        /// Element (16-bit) position within the row.
        elem: u32,
        /// Source slot.
        rs: SbSlot,
    },
    // --------------------------------------- Global Buffer ↔ DRAM (Table 3)
    /// `COPY_BKGB CHmask OPsize RO CO`: copy bank beats into the Global
    /// Buffer.
    CopyBkGb {
        /// Target channels.
        chmask: ChannelMask,
        /// Number of beats.
        opsize: u32,
        /// Source bank.
        bank: BankId,
        /// Row.
        row: RowAddr,
        /// Starting column.
        col: ColAddr,
        /// Destination Global Buffer slot.
        gb_slot: u8,
    },
    /// `COPY_GBBK CHmask OPsize RO CO`: copy Global Buffer beats into a bank.
    CopyGbBk {
        /// Target channels.
        chmask: ChannelMask,
        /// Number of beats.
        opsize: u32,
        /// Destination bank.
        bank: BankId,
        /// Row.
        row: RowAddr,
        /// Starting column.
        col: ColAddr,
        /// Source Global Buffer slot.
        gb_slot: u8,
    },
    // ------------------------------------------- Shared Buffer ↔ PUs (Table 3)
    /// `WR_BIAS CHmask Rs`: load accumulation registers from slot `rs`.
    WrBias {
        /// Target channels.
        chmask: ChannelMask,
        /// Source slot (lane `p` → PU `p`).
        rs: SbSlot,
        /// Accumulation register.
        reg: AccRegId,
    },
    /// `RD_MAC CHmask Rd Regid`: read accumulators into slot `rd`.
    RdMac {
        /// Target channels (one slot written per channel, consecutive).
        chmask: ChannelMask,
        /// First destination slot.
        rd: SbSlot,
        /// Accumulation register.
        reg: AccRegId,
    },
    // --------------------------------- Shared Buffer → Global Buffer (Table 3)
    /// `WR_GB CHmask OPsize CO Rs`: copy Shared Buffer slots into the Global
    /// Buffers of the selected channels.
    WrGb {
        /// Target channels.
        chmask: ChannelMask,
        /// Number of beats.
        opsize: u32,
        /// Starting Global Buffer slot.
        gb_slot: u8,
        /// Source Shared Buffer slot.
        rs: SbSlot,
    },
}

impl Instruction {
    /// Instruction mnemonic as in the paper's tables.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::MacAbk { .. } => "MAC_ABK",
            Instruction::EwMul { .. } => "EW_MUL",
            Instruction::Af { .. } => "AF",
            Instruction::Exp { .. } => "EXP",
            Instruction::Red { .. } => "RED",
            Instruction::Acc { .. } => "ACC",
            Instruction::Riscv { .. } => "RISCV",
            Instruction::SendCxl { .. } => "SEND_CXL",
            Instruction::RecvCxl { .. } => "RECV_CXL",
            Instruction::BcastCxl { .. } => "BCAST_CXL",
            Instruction::WrSbk { .. } => "WR_SBK",
            Instruction::RdSbk { .. } => "RD_SBK",
            Instruction::WrAbk { .. } => "WR_ABK",
            Instruction::CopyBkGb { .. } => "COPY_BKGB",
            Instruction::CopyGbBk { .. } => "COPY_GBBK",
            Instruction::WrBias { .. } => "WR_BIAS",
            Instruction::RdMac { .. } => "RD_MAC",
            Instruction::WrGb { .. } => "WR_GB",
        }
    }

    /// Whether this is an arithmetic instruction (Table 2) as opposed to data
    /// movement (Table 3).
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            Instruction::MacAbk { .. }
                | Instruction::EwMul { .. }
                | Instruction::Af { .. }
                | Instruction::Exp { .. }
                | Instruction::Red { .. }
                | Instruction::Acc { .. }
                | Instruction::Riscv { .. }
        )
    }

    /// Whether the instruction is executed by the PIM channels (vs PNM/CXL).
    pub fn is_pim(&self) -> bool {
        matches!(
            self,
            Instruction::MacAbk { .. }
                | Instruction::EwMul { .. }
                | Instruction::Af { .. }
                | Instruction::WrSbk { .. }
                | Instruction::RdSbk { .. }
                | Instruction::WrAbk { .. }
                | Instruction::CopyBkGb { .. }
                | Instruction::CopyGbBk { .. }
                | Instruction::WrBias { .. }
                | Instruction::RdMac { .. }
                | Instruction::WrGb { .. }
        )
    }

    /// Whether the instruction crosses the CXL fabric.
    pub fn is_cxl(&self) -> bool {
        matches!(
            self,
            Instruction::SendCxl { .. }
                | Instruction::RecvCxl { .. }
                | Instruction::BcastCxl { .. }
        )
    }

    /// The `OPsize` of the instruction (1 for fixed-size ops).
    pub fn opsize(&self) -> u32 {
        match *self {
            Instruction::MacAbk { opsize, .. }
            | Instruction::EwMul { opsize, .. }
            | Instruction::Exp { opsize, .. }
            | Instruction::Red { opsize, .. }
            | Instruction::Acc { opsize, .. }
            | Instruction::Riscv { opsize, .. }
            | Instruction::SendCxl { opsize, .. }
            | Instruction::RecvCxl { opsize }
            | Instruction::BcastCxl { opsize, .. }
            | Instruction::WrSbk { opsize, .. }
            | Instruction::RdSbk { opsize, .. }
            | Instruction::CopyBkGb { opsize, .. }
            | Instruction::CopyGbBk { opsize, .. }
            | Instruction::WrGb { opsize, .. } => opsize,
            Instruction::Af { .. }
            | Instruction::WrAbk { .. }
            | Instruction::WrBias { .. }
            | Instruction::RdMac { .. } => 1,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::MacAbk { chmask, opsize, row, col, reg, operand } => {
                let src = match operand {
                    MacOperand::GlobalBuffer { slot } => format!("GB[{slot}]"),
                    MacOperand::NeighbourBank => "NBK".to_string(),
                };
                write!(f, "MAC_ABK {:#x} {} {} {} {} {}", chmask.0, opsize, row, col, reg.0, src)
            }
            Instruction::EwMul { chmask, opsize, row, col } => {
                write!(f, "EW_MUL {:#x} {} {} {}", chmask.0, opsize, row, col)
            }
            Instruction::Af { chmask, af_id, reg } => {
                write!(f, "AF {:#x} {} {}", chmask.0, af_id, reg.0)
            }
            Instruction::Exp { opsize, rd, rs } => write!(f, "EXP {opsize} {rd} {rs}"),
            Instruction::Red { opsize, rd, rs } => write!(f, "RED {opsize} {rd} {rs}"),
            Instruction::Acc { opsize, rd, rs } => write!(f, "ACC {opsize} {rd} {rs}"),
            Instruction::Riscv { opsize, pc, rd, rs } => {
                write!(f, "RISCV {opsize} {pc:#x} {rd} {rs}")
            }
            Instruction::SendCxl { dv, rs, rd, opsize } => {
                write!(f, "SEND_CXL {dv} {rs} {rd} {opsize}")
            }
            Instruction::RecvCxl { opsize } => write!(f, "RECV_CXL {opsize}"),
            Instruction::BcastCxl { dv_count, rs, rd, opsize } => {
                write!(f, "BCAST_CXL {dv_count} {rs} {rd} {opsize}")
            }
            Instruction::WrSbk { ch, opsize, bank, row, col, rs } => {
                write!(f, "WR_SBK {ch} {opsize} {bank} {row} {col} {rs}")
            }
            Instruction::RdSbk { ch, opsize, bank, row, col, rd } => {
                write!(f, "RD_SBK {ch} {opsize} {bank} {row} {col} {rd}")
            }
            Instruction::WrAbk { ch, row, elem, rs } => {
                write!(f, "WR_ABK {ch} {row} E{elem} {rs}")
            }
            Instruction::CopyBkGb { chmask, opsize, bank, row, col, gb_slot } => {
                write!(f, "COPY_BKGB {:#x} {opsize} {bank} {row} {col} GB[{gb_slot}]", chmask.0)
            }
            Instruction::CopyGbBk { chmask, opsize, bank, row, col, gb_slot } => {
                write!(f, "COPY_GBBK {:#x} {opsize} {bank} {row} {col} GB[{gb_slot}]", chmask.0)
            }
            Instruction::WrBias { chmask, rs, reg } => {
                write!(f, "WR_BIAS {:#x} {rs} {}", chmask.0, reg.0)
            }
            Instruction::RdMac { chmask, rd, reg } => {
                write!(f, "RD_MAC {:#x} {rd} {}", chmask.0, reg.0)
            }
            Instruction::WrGb { chmask, opsize, gb_slot, rs } => {
                write!(f, "WR_GB {:#x} {opsize} GB[{gb_slot}] {rs}", chmask.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instruction {
        Instruction::MacAbk {
            chmask: ChannelMask::range(0, 4),
            opsize: 64,
            row: RowAddr(3),
            col: ColAddr(0),
            reg: AccRegId::new(1),
            operand: MacOperand::GlobalBuffer { slot: 0 },
        }
    }

    #[test]
    fn classification() {
        assert!(sample().is_arithmetic());
        assert!(sample().is_pim());
        assert!(!sample().is_cxl());
        let send =
            Instruction::SendCxl { dv: DeviceId(1), rs: SbSlot(0), rd: SbSlot(0), opsize: 4 };
        assert!(send.is_cxl());
        assert!(!send.is_arithmetic());
        assert!(!send.is_pim());
    }

    #[test]
    fn opsize_defaults_to_one_for_fixed_ops() {
        let af = Instruction::Af { chmask: ChannelMask::ALL, af_id: 0, reg: AccRegId::new(0) };
        assert_eq!(af.opsize(), 1);
        assert_eq!(sample().opsize(), 64);
    }

    #[test]
    fn display_matches_paper_assembly_style() {
        assert_eq!(sample().to_string(), "MAC_ABK 0xf 64 RO3 CO0 1 GB[0]");
        let recv = Instruction::RecvCxl { opsize: 512 };
        assert_eq!(recv.to_string(), "RECV_CXL 512");
    }

    #[test]
    fn mnemonics_cover_all_instructions() {
        let insts = [
            sample().mnemonic(),
            Instruction::RecvCxl { opsize: 1 }.mnemonic(),
            Instruction::WrGb { chmask: ChannelMask::ALL, opsize: 1, gb_slot: 0, rs: SbSlot(0) }
                .mnemonic(),
        ];
        assert_eq!(insts, ["MAC_ABK", "RECV_CXL", "WR_GB"]);
    }
}
