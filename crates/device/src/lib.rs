//! The CENT CXL device model: decoder, PIM controllers, PNM units and the
//! device side of the CXL port.
//!
//! A [`CxlDevice`] executes CENT instruction traces (see `cent-isa`) over
//! the substrates: 32 `cent-pim` channels, the `cent-pnm` Shared
//! Buffer/accelerators/RISC-V cores, and a `cent-cxl` fabric for SEND/RECV/
//! BCAST. Execution is simultaneously functional (BF16 data) and timed
//! (DRAM command timing + PNM unit pipelines), and produces the per-unit
//! [`LatencyBreakdown`] used for Figure 14(c) of the paper.
//!
//! A timing-only device ([`DeviceConfig::timing_only`]) produces the same
//! timing and activity counters bit for bit without carrying data: its
//! channels and PNM units skip their lane arithmetic, and it interprets
//! each distinct `RISCV` call once and reuses that call's timing.

#![forbid(unsafe_code)]

mod breakdown;
mod device;

pub use breakdown::LatencyBreakdown;
pub use device::{CxlDevice, DeviceConfig};
