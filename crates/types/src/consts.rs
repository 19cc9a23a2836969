//! Architecture constants from the CENT paper (§4, §6, Table 4).
//!
//! Everything here is a *paper-specified* quantity; calibrated quantities
//! (power currents, GPU efficiencies) live with the models that use them.

use crate::units::{Bandwidth, ByteSize, Time};

/// Number of memory chips per CXL device (§4: "16 memory chips").
pub const CHIPS_PER_DEVICE: usize = 16;

/// GDDR6-PIM channels per memory chip ("each chip containing two GDDR6-PIM
/// channels").
pub const CHANNELS_PER_CHIP: usize = 2;

/// GDDR6-PIM channels per CXL device (16 chips × 2 = 32).
pub const CHANNELS_PER_DEVICE: usize = CHIPS_PER_DEVICE * CHANNELS_PER_CHIP;

/// PIM controllers per device; each manages two channels (§4.2).
pub const PIM_CONTROLLERS_PER_DEVICE: usize = 16;

/// Bank groups per GDDR6 channel (Figure 7a).
pub const BANK_GROUPS_PER_CHANNEL: usize = 4;

/// Banks per bank group (Figure 7a).
pub const BANKS_PER_GROUP: usize = 4;

/// Banks per channel.
pub const BANKS_PER_CHANNEL: usize = BANK_GROUPS_PER_CHANNEL * BANKS_PER_GROUP;

/// Per-bank capacity: 32 MB ("Each bank has a 32MB memory capacity").
pub const BANK_CAPACITY: ByteSize = ByteSize::mib(32);

/// Capacity of one GDDR6-PIM channel (16 × 32 MB = 512 MB).
pub const CHANNEL_CAPACITY: ByteSize = ByteSize::mib(32 * 16);

/// Capacity of one CXL device (32 channels × 512 MB = 16 GB).
pub const DEVICE_CAPACITY: ByteSize = ByteSize::gib(16);

/// Default number of CXL devices in a CENT system (Figure 4).
pub const DEFAULT_DEVICES: usize = 32;

/// Maximum nodes addressable by CXL 3.0 port-based routing (§2).
pub const CXL3_MAX_NODES: usize = 4096;

/// Width of every PIM datapath beat: 256 bits = 32 bytes.
pub const BEAT_BYTES: usize = 32;

/// BF16 elements per 256-bit beat.
pub const LANES_PER_BEAT: usize = 16;

/// MAC multipliers in one near-bank PU ("16 MAC reduction tree").
pub const MACS_PER_PU: usize = 16;

/// Accumulation registers per near-bank PU ("32 accumulation registers").
pub const ACC_REGS_PER_PU: usize = 32;

/// Global Buffer size per channel (Figure 7a: 2 KB).
pub const GLOBAL_BUFFER_BYTES: ByteSize = ByteSize::kib(2);

/// Global Buffer capacity in 256-bit slots (2 KiB / 32 B = 64).
pub const GLOBAL_BUFFER_SLOTS: usize = 64;

/// Shared Buffer size per device (Figure 5: 64 KB).
pub const SHARED_BUFFER_BYTES: ByteSize = ByteSize::kib(64);

/// Shared Buffer capacity in 256-bit slots (64 KiB / 32 B = 2048).
pub const SHARED_BUFFER_SLOTS: usize = 2048;

/// Instruction buffer size per device (Figure 5: 2 MB).
pub const INSTRUCTION_BUFFER_BYTES: ByteSize = ByteSize::mib(2);

/// PNM accumulator units per device (Figure 7b).
pub const PNM_ACCUMULATORS: usize = 32;

/// PNM reduction trees per device (Figure 7b).
pub const PNM_REDUCTION_TREES: usize = 32;

/// PNM exponent accelerators per device (Figure 7b).
pub const PNM_EXP_UNITS: usize = 32;

/// Taylor-series order used by the exponent accelerators (§4.2).
pub const EXP_TAYLOR_ORDER: usize = 10;

/// BOOM-2wide RISC-V cores per device (Figure 7b).
pub const PNM_RISCV_CORES: usize = 8;

/// Instruction buffer per RISC-V core (§4.2: 64 KB).
pub const RISCV_IMEM_BYTES: ByteSize = ByteSize::kib(64);

/// Near-bank PU clock: 1 GHz, equal to tCCD_S of the PIM bank (§4.2).
pub const PU_CLOCK_HZ: f64 = 1.0e9;

/// One PU clock period.
pub const PU_CLOCK_PERIOD: Time = Time::from_ps(1_000);

/// CXL controller (PNM) clock projected at 7 nm (§6: 2.0 GHz).
pub const PNM_CLOCK_HZ: f64 = 2.0e9;

/// One PNM clock period.
pub const PNM_CLOCK_PERIOD: Time = Time::from_ps(500);

/// Per-PU compute throughput: 16 MACs × 2 FLOPs × 1 GHz = 32 GFLOPS (§4.2).
pub const PU_GFLOPS: f64 = 32.0;

/// Internal bandwidth of one channel: 16 banks × 32 B / 1 ns = 512 GB/s.
pub const CHANNEL_INTERNAL_BW: Bandwidth = Bandwidth::gb_per_sec(512.0);

/// GDDR6-PIM timing constraints (Table 4), in nanoseconds.
pub mod timing {
    use crate::units::Time;

    /// ACT to RD delay.
    pub const T_RCDRD: Time = Time::from_ns(18);
    /// ACT to WR delay.
    pub const T_RCDWR: Time = Time::from_ns(14);
    /// ACT to PRE minimum (row open time).
    pub const T_RAS: Time = Time::from_ns(27);
    /// CAS (read) latency.
    pub const T_CL: Time = Time::from_ns(25);
    /// Column-to-column, different bank group (PIM beat rate).
    pub const T_CCDS: Time = Time::from_ns(1);
    /// Column-to-column, same bank group (standard GDDR6; non-PIM accesses).
    pub const T_CCDL: Time = Time::from_ns(2);
    /// Precharge to ACT delay.
    pub const T_RP: Time = Time::from_ns(16);
    /// Write recovery time (standard GDDR6 value; not in Table 4).
    pub const T_WR: Time = Time::from_ns(15);
    /// Write latency (standard GDDR6 value; not in Table 4).
    pub const T_CWL: Time = Time::from_ns(8);
    /// Refresh cycle time for one all-bank refresh (8 Gb GDDR6 C-die class).
    pub const T_RFC: Time = Time::from_ns(455);
    /// Average refresh interval.
    pub const T_REFI: Time = Time::from_ns(1_900);
}

/// GDDR6 DRAM row size per bank: 2 KB sense-amplifier page.
pub const ROW_BYTES: usize = 2048;

/// 256-bit columns per row (2048 / 32 = 64).
pub const COLS_PER_ROW: usize = ROW_BYTES / BEAT_BYTES;

/// Rows per 32 MB bank (32 MiB / 2 KiB = 16384).
pub const ROWS_PER_BANK: usize = (32 * 1024 * 1024) / ROW_BYTES;

/// CXL link parameters (§4.1, §6).
pub mod cxl {
    use crate::units::{Bandwidth, Time};

    /// PCIe 6.0 per-lane bandwidth: 8 GB/s each direction (64 GT/s, FLIT).
    pub const PCIE6_LANE_BW: Bandwidth = Bandwidth::gb_per_sec(8.0);

    /// Lanes from switch to each CXL device.
    pub const DEVICE_LANES: usize = 4;

    /// Lanes from switch to the host.
    pub const HOST_LANES: usize = 16;

    /// Raw device link bandwidth (x4 · 8 GB/s = 32 GB/s per direction).
    pub const DEVICE_LINK_BW: Bandwidth = Bandwidth::gb_per_sec(32.0);

    /// Raw host link bandwidth (x16 · 8 GB/s = 128 GB/s per direction).
    pub const HOST_LINK_BW: Bandwidth = Bandwidth::gb_per_sec(128.0);

    /// Effective payload efficiency of CXL.mem flits on PCIe 6.0
    /// (256 B flit carries ~236 B of slots after CRC/FEC and headers).
    pub const FLIT_EFFICIENCY: f64 = 0.92;

    /// CXL flit size in bytes (PCIe 6.0 FLIT mode).
    pub const FLIT_BYTES: usize = 256;

    /// One-way port-to-port latency through a CXL 3.0 switch
    /// (paper cites Pond \[61\]: CXL.mem adds ~70-90 ns per hop; we use the
    /// midpoint for a loaded switch).
    pub const SWITCH_LATENCY: Time = Time::from_ns(80);

    /// Port packing/unpacking latency at each endpoint.
    pub const PORT_LATENCY: Time = Time::from_ns(25);

    /// A multicast-capable switch runs at half bandwidth and double latency
    /// relative to the baseline switch (§6 methodology).
    pub const MULTICAST_BW_DERATE: f64 = 0.5;
    /// Latency multiplier for the multicast-capable switch.
    pub const MULTICAST_LATENCY_FACTOR: u64 = 2;
}

/// Host-side parameters.
pub mod host {
    use crate::units::Time;

    /// Latency of the top-k sampling step executed on the host CPU per token
    /// (§5.5). Modelled as a fixed cost: vocab-sized argmax/softmax on a Xeon.
    pub const TOP_K_SAMPLING: Time = Time::from_us(20);

    /// Host instruction-dispatch overhead per token per device: the host
    /// streams pre-generated traces into the 2 MB instruction buffers.
    pub const DISPATCH_PER_TOKEN: Time = Time::from_us(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_hierarchy_matches_paper() {
        // Table 4: 32 devices × 16 GB = 512 GB.
        assert_eq!(DEVICE_CAPACITY.as_gib(), 16.0);
        assert_eq!(DEVICE_CAPACITY.as_bytes() * 32, ByteSize::gib(512).as_bytes());
        assert_eq!(CHANNEL_CAPACITY.as_bytes() * 32, DEVICE_CAPACITY.as_bytes());
        assert_eq!(BANK_CAPACITY.as_bytes() * 16, CHANNEL_CAPACITY.as_bytes());
    }

    #[test]
    fn compute_throughput_matches_paper() {
        // 32 GFLOPS/PU × 16 PUs × 32 channels × 32 devices ≈ 512 TFLOPS (Table 4
        // rounds 524 down to 512).
        let total_tflops =
            PU_GFLOPS * BANKS_PER_CHANNEL as f64 * CHANNELS_PER_DEVICE as f64 * 32.0 / 1000.0;
        assert!((total_tflops - 524.288).abs() < 1e-9);
    }

    #[test]
    fn internal_bandwidth_matches_paper() {
        // 512 GB/s/channel × 32 × 32 = 512 TB/s (Table 4: "512 TB/s Internal").
        let total = CHANNEL_INTERNAL_BW.as_bytes_per_sec() * 32.0 * 32.0;
        assert!((total / 1e12 - 524.288).abs() < 1.0);
    }

    #[test]
    fn geometry_is_consistent() {
        assert_eq!(BANKS_PER_CHANNEL, 16);
        assert_eq!(CHANNELS_PER_DEVICE, 32);
        assert_eq!(COLS_PER_ROW, 64);
        assert_eq!(ROWS_PER_BANK, 16384);
        assert_eq!(SHARED_BUFFER_SLOTS * BEAT_BYTES, 64 * 1024);
        assert_eq!(GLOBAL_BUFFER_SLOTS * BEAT_BYTES, 2 * 1024);
    }

    #[test]
    fn pu_clock_equals_tccds() {
        // §4.2: the PU operates at 1 GHz, equivalent to tCCD_S.
        assert_eq!(PU_CLOCK_PERIOD, timing::T_CCDS);
    }

    #[test]
    fn cxl_link_bandwidths() {
        assert_eq!(cxl::DEVICE_LINK_BW.as_gb_per_sec(), 32.0);
        assert_eq!(cxl::HOST_LINK_BW.as_gb_per_sec(), 128.0);
    }
}
