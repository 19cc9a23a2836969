//! PNM (processing-near-memory) units of a CENT CXL device.
//!
//! Implements Figure 7(b) of the paper: the 64 KB Shared Buffer that PIM
//! channels and accelerators view as a 256-bit register file, 32 BF16
//! accumulators, 32 reduction trees, 32 exponent accelerators (order-10
//! Taylor pipelines) and eight BOOM-2wide RISC-V cores running real RV32IMF
//! programs (assembled by `cent-riscv`) for square roots, inversions and the
//! rotary-embedding complex/real transforms.
//!
//! * [`SharedBuffer`] — dual-view device buffer;
//! * [`PnmUnits`] — the fixed-function accelerators with timing;
//! * [`PnmCore`] — one RISC-V core with its 64 KB local buffer;
//! * [`programs`] — the canned PNM routines, and [`assemble`] to turn them
//!   into the words [`PnmCore::load`] writes.

#![forbid(unsafe_code)]

mod core;
pub mod programs;
mod shared_buffer;
mod units;

pub use crate::core::{PnmCore, RiscvRun, LOCAL_SIZE, SB_WINDOW_BASE, SB_WINDOW_SIZE};
pub use cent_riscv::{assemble, ExecStats};
pub use shared_buffer::SharedBuffer;
pub use units::{exp_taylor, PnmStats, PnmUnits};
