//! Activity-based power and energy model for CENT (§6, §7.2).
//!
//! Follows the paper's methodology: DRAM core power from per-command
//! energies (Micron power-calculator style), MAC operations at 3× the
//! current of a gapless read, 314.6 mW per two-channel memory controller,
//! 250 mW per BOOM core, and the Table 5 CXL-controller figures. Energy
//! constants are calibrated so a 32-device Llama2-70B pipeline lands near
//! the paper's reported 32.4 W per device with 54.5% in PIM operations and
//! 30.2% in activate/precharge (§7.2) — the unit test
//! `device_power_lands_near_paper_value` pins that calibration.

#![forbid(unsafe_code)]

use cent_dram::ActivityCounters;
use cent_pnm::PnmStats;
use cent_types::consts::{CHANNELS_PER_DEVICE, PIM_CONTROLLERS_PER_DEVICE, PNM_RISCV_CORES};
use cent_types::{Energy, Power, Time};

/// Per-event DRAM energies for the 8 Gb GDDR6 C-die class parts.
///
/// Derived from IDD currents at 1.35 V scaled to per-command charge;
/// the MAC beat is 3× the read-beat energy per the paper's assumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramEnergyModel {
    /// One single-bank activate (row charge).
    pub act: Energy,
    /// One precharge.
    pub pre: Energy,
    /// One 256-bit read beat.
    pub read_beat: Energy,
    /// One 256-bit write beat.
    pub write_beat: Energy,
    /// One per-bank MAC beat (3× gapless read).
    pub mac_beat: Energy,
    /// One all-bank refresh.
    pub refresh: Energy,
    /// Background power per channel (clocking, DLL, leakage).
    pub background_per_channel: Power,
}

impl Default for DramEnergyModel {
    fn default() -> Self {
        // §7.2: a MAC_ABK beat costs 0.6 pJ/bit → 153.6 pJ per 256-bit
        // beat; the gapless read is one third of that (near-bank access,
        // no I/O drivers).
        let read = Energy::pj(51.2);
        DramEnergyModel {
            act: Energy::nj(3.5),
            pre: Energy::nj(1.9),
            read_beat: read,
            write_beat: read * 1.05,
            mac_beat: read * 3.0,
            refresh: Energy::nj(28.0),
            background_per_channel: Power::mw(30.0),
        }
    }
}

impl DramEnergyModel {
    /// Energy of an activity window.
    pub fn energy(&self, a: &ActivityCounters, elapsed: Time) -> Energy {
        self.act * a.acts as f64
            + self.pre * a.pres as f64
            + self.read_beat * (a.reads as f64)
            + self.write_beat * (a.writes as f64)
            + self.mac_beat * a.mac_beats as f64
            // An EW_MUL beat reads two banks and writes one per group.
            + (self.read_beat * 2.0 + self.write_beat) * a.ewmul_beats as f64
            + self.refresh * a.refreshes as f64
            + (self.background_per_channel * CHANNELS_PER_DEVICE as f64).for_duration(elapsed)
    }
}

/// Static power of the non-DRAM device components (§6 constants + Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerPowerModel {
    /// Per two-channel GDDR6 memory controller.
    pub memory_controller: Power,
    /// Per BOOM RISC-V core (peak; scaled by utilization).
    pub riscv_core: Power,
    /// CXL controller custom logic (Table 5 total, scaled 28 nm → 7 nm).
    pub cxl_logic: Power,
    /// PCIe/CXL PHY.
    pub phy: Power,
}

impl Default for ControllerPowerModel {
    fn default() -> Self {
        ControllerPowerModel {
            memory_controller: Power::mw(314.6),
            riscv_core: Power::mw(250.0),
            // Table 5: 1.06 W at 28 nm; ~0.5× at 7 nm for the same logic.
            cxl_logic: Power::mw(530.0),
            phy: Power::mw(700.0),
        }
    }
}

/// Power/energy report for one device over a window.
#[derive(Debug, Clone, Copy)]
pub struct DevicePower {
    /// Average total power.
    pub total: Power,
    /// DRAM array share (PIM ops + ACT/PRE + background).
    pub dram: Power,
    /// Share of total in MAC/EW PIM operations.
    pub pim_op_fraction: f64,
    /// Share of total in activate/precharge.
    pub act_pre_fraction: f64,
    /// Energy over the window.
    pub energy: Energy,
}

/// Computes device power from simulated activity over `elapsed`.
pub fn device_power(
    dram_model: &DramEnergyModel,
    ctrl: &ControllerPowerModel,
    dram: &ActivityCounters,
    pnm: &PnmStats,
    elapsed: Time,
) -> DevicePower {
    let dram_energy = dram_model.energy(dram, elapsed);
    let mac_energy = dram_model.mac_beat * dram.mac_beats as f64
        + (dram_model.read_beat * 2.0 + dram_model.write_beat) * dram.ewmul_beats as f64;
    let act_pre_energy = dram_model.act * dram.acts as f64 + dram_model.pre * dram.pres as f64;

    // RISC-V cores: 250 mW when running; utilization from retired
    // instructions at ~2 IPC, 2 GHz.
    let riscv_busy = pnm.riscv_instructions as f64 / (2.0 * 2.0e9);
    let riscv_util = (riscv_busy / elapsed.as_secs()).min(1.0);
    let static_power = ctrl.memory_controller * PIM_CONTROLLERS_PER_DEVICE as f64
        + ctrl.riscv_core * PNM_RISCV_CORES as f64 * riscv_util
        + ctrl.cxl_logic
        + ctrl.phy;

    let total_energy = dram_energy + static_power.for_duration(elapsed);
    let total = total_energy.over(elapsed);
    DevicePower {
        total,
        dram: dram_energy.over(elapsed),
        pim_op_fraction: mac_energy.as_joules() / total_energy.as_joules(),
        act_pre_fraction: act_pre_energy.as_joules() / total_energy.as_joules(),
        energy: total_energy,
    }
}

/// Host CPU power while driving a CENT system (Xeon Gold 6430 under a
/// dispatch-only load).
pub const HOST_CPU_POWER: Power = Power::watts(185.0);

/// Tokens per joule for a system producing `tokens_per_s` at `system_power`.
pub fn tokens_per_joule(tokens_per_s: f64, system_power: Power) -> f64 {
    tokens_per_s / system_power.as_watts()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady_activity(seconds: f64) -> ActivityCounters {
        // A decode-heavy window at ~22% of the peak per-bank beat rate —
        // the duty cycle implied by the paper's 32.4 W / 54.5%-PIM budget
        // once row-cycle overheads and non-FC phases are accounted.
        let beats_per_s = 0.22 * 32.0 * 16.0 * 1.0e9;
        let beats = (beats_per_s * seconds) as u64;
        let rows = beats / 64 / 16;
        ActivityCounters {
            acts: rows * 16,
            pres: rows * 16,
            mac_beats: beats,
            reads: beats / 100,
            writes: beats / 100,
            ..Default::default()
        }
    }

    #[test]
    fn device_power_lands_near_paper_value() {
        // §7.2: 32.4 W per device average, 54.5% PIM ops, 30.2% ACT/PRE.
        let window = Time::from_secs_f64(0.01);
        let a = steady_activity(0.01);
        let p = device_power(
            &DramEnergyModel::default(),
            &ControllerPowerModel::default(),
            &a,
            &PnmStats::default(),
            window,
        );
        let watts = p.total.as_watts();
        assert!((20.0..48.0).contains(&watts), "device power {watts} W");
        assert!((0.35..0.70).contains(&p.pim_op_fraction), "pim {:.3}", p.pim_op_fraction);
        assert!((0.10..0.45).contains(&p.act_pre_fraction), "actpre {:.3}", p.act_pre_fraction);
    }

    #[test]
    fn idle_device_draws_background_only() {
        let window = Time::from_secs_f64(0.001);
        let p = device_power(
            &DramEnergyModel::default(),
            &ControllerPowerModel::default(),
            &ActivityCounters::default(),
            &PnmStats::default(),
            window,
        );
        // Background + controllers + PHY: several watts, far below active.
        assert!(p.total.as_watts() > 5.0 && p.total.as_watts() < 15.0, "{}", p.total);
    }

    #[test]
    fn mac_energy_is_three_times_read() {
        let m = DramEnergyModel::default();
        assert!((m.mac_beat.as_joules() / m.read_beat.as_joules() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tokens_per_joule_scales_inversely_with_power() {
        let a = tokens_per_joule(1000.0, Power::watts(1000.0));
        let b = tokens_per_joule(1000.0, Power::watts(500.0));
        assert!((b / a - 2.0).abs() < 1e-12);
    }
}
