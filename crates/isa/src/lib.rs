//! The CENT instruction set: definitions, binary encoding and micro-op
//! expansion.
//!
//! Tables 2 and 3 of the paper define the arithmetic instructions executed
//! by near-bank PUs and PNM units, and the data-movement instructions tying
//! together Shared Buffer, DRAM banks, Global Buffers and the CXL fabric.
//! This crate provides:
//!
//! * [`Instruction`] — the full ISA as a typed enum with paper-style
//!   assembly [`Display`](core::fmt::Display) output;
//! * [`encode`]/[`decode`] — the fixed 16-byte binary format streamed into
//!   each device's 2 MB instruction buffer (128 K instructions);
//! * [`analyze`] — trace statistics incl. the MAC-FLOP fraction behind the
//!   paper's hierarchical PIM-PNM design argument;
//! * [`riscv_pc`] and [`af_id`] — the canned RISC-V routine PCs and the
//!   activation-function ids, defined once for the compiler that emits
//!   them and the device that executes them.

#![forbid(unsafe_code)]

mod encode;
mod expand;
mod inst;

pub use encode::{decode, decode_trace, encode, encode_trace, INST_BYTES};
pub use expand::{analyze, flop_count, micro_op_count, TraceStats};
pub use inst::{af_id, riscv_pc, Instruction, MacOperand};
