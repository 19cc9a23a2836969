//! Command-level GDDR6-PIM DRAM timing model for the CENT simulator.
//!
//! The paper evaluates CENT with a modified Ramulator2 modelling 32
//! GDDR6-PIM channels per CXL device (§6). This crate is the equivalent
//! substrate, built from scratch in Rust:
//!
//! * [`DramCommand`] — the command vocabulary: the PIM all-bank commands
//!   (`ACTab`, `MACab`, `EWMULab`, `PREab`, `REFab`) and single-bank
//!   `RD`/`WR` column accesses. Rows open and close only in all 16 banks at
//!   once, so there is no single-bank `ACT` or `PRE`;
//! * [`PimChannelTiming`] — a per-channel timing state machine enforcing the
//!   paper's Table 4 constraints (`tRCDRD`=18 ns, `tRAS`=27 ns, `tCL`=25 ns,
//!   `tRCDWR`=14 ns, `tCCDS`=1 ns, `tRP`=16 ns) against one row session
//!   shared by the lockstep banks, so every command is timed in O(1), and
//!   whose [`PimChannelTiming::issue_burst`] times a run of column beats in
//!   one open row in closed form, bit-identical to issuing them one by one;
//! * [`ActivityCounters`] — per-command activity tallies feeding the
//!   activity-based power model.
//!
//! # Examples
//!
//! Timing the canonical PIM GEMV inner loop (one row of MAC beats):
//!
//! ```
//! use cent_dram::{DramCommand, PimChannelTiming};
//! use cent_types::{ColAddr, RowAddr};
//!
//! # fn main() -> Result<(), cent_types::CentError> {
//! let mut ch = PimChannelTiming::new();
//! ch.issue(DramCommand::ActAb { row: RowAddr(0) })?;
//! // 64 MAC beats, timed as 64 `issue` calls would time them.
//! let last = ch.issue_burst(DramCommand::MacAb { col: ColAddr(0) }, 64)?;
//! assert_eq!(last.as_ns(), 18.0 + 63.0);
//! ch.issue(DramCommand::PreAb)?;
//! // 18 ns tRCD + 64 beats + tRTP/tRP tail.
//! assert!(ch.busy_until().as_ns() > 82.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod channel;
mod command;

pub use channel::{time_trace, PimChannelTiming, TimingParams};
pub use command::{ActivityCounters, DramCommand};
