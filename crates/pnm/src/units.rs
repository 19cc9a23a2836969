//! The fixed-function PNM accelerators: accumulators, reduction trees and
//! exponent units (Figure 7b).

use cent_types::consts::{PNM_ACCUMULATORS, PNM_CLOCK_PERIOD, PNM_EXP_UNITS, PNM_REDUCTION_TREES};
use cent_types::{Bf16, CentResult, SbSlot, Time, ZERO_BEAT};

use crate::shared_buffer::SharedBuffer;

/// Activity counters for the PNM units (power model input).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PnmStats {
    /// Beats processed by the accumulators.
    pub acc_beats: u64,
    /// Beats processed by the reduction trees.
    pub red_beats: u64,
    /// Beats processed by the exponent units.
    pub exp_beats: u64,
    /// RISC-V instructions retired across all cores.
    pub riscv_instructions: u64,
}

impl PnmStats {
    /// Merges counters from another window.
    pub fn merge(&mut self, other: &PnmStats) {
        self.acc_beats += other.acc_beats;
        self.red_beats += other.red_beats;
        self.exp_beats += other.exp_beats;
        self.riscv_instructions += other.riscv_instructions;
    }

    /// Scales every counter (averaging windows, or extrapolating one
    /// simulated block to the blocks a device hosts).
    pub fn scaled(&self, factor: f64) -> PnmStats {
        let s = |v: u64| (v as f64 * factor).round() as u64;
        PnmStats {
            acc_beats: s(self.acc_beats),
            red_beats: s(self.red_beats),
            exp_beats: s(self.exp_beats),
            riscv_instructions: s(self.riscv_instructions),
        }
    }
}

/// Computes `e^x` the way the exponent accelerator does: an order-10 Taylor
/// expansion with power-of-two range reduction (`e^x = 2^k · e^r`,
/// `r ∈ [-ln2/2, ln2/2]`), all in f32 like the unit's internal datapath.
///
/// Softmax scores reach tens of magnitude before normalisation, where a raw
/// Taylor series would diverge; range reduction is the standard hardware
/// companion to the paper's "10-order Taylor series approximation".
pub fn exp_taylor(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    // Clamp to the BF16-relevant magnitude to avoid pow2 overflow games.
    let x = x.clamp(-88.0, 88.0);
    const LN2: f32 = core::f32::consts::LN_2;
    let k = (x / LN2).round();
    let r = x - k * LN2;
    // Order-10 Taylor of e^r (Horner form).
    let mut acc = 1.0f32;
    for i in (1..=10).rev() {
        acc = 1.0 + acc * r / i as f32;
    }
    acc * f32::powi(2.0, k as i32)
}

/// The pool of fixed-function PNM units operating on the Shared Buffer.
///
/// Timing: each of the 32 unit instances of a kind accepts one beat per
/// 2 GHz cycle once its pipeline is full; an operation over `OPsize` beats
/// therefore takes `ceil(OPsize / 32)` cycles plus a small pipeline fill.
/// That depends on `OPsize` alone, so a timing-only pool
/// ([`PnmUnits::timing_only`]) checks the same Shared Buffer slots and
/// counts the same beats as a functional one but skips the lane arithmetic.
#[derive(Debug, Clone)]
pub struct PnmUnits {
    stats: PnmStats,
    functional: bool,
}

/// Pipeline depth of the fixed-function units, in PNM cycles.
const PIPELINE_FILL: u64 = 2;

impl PnmUnits {
    /// Creates a unit pool that computes on the Shared Buffer's data.
    pub fn functional() -> Self {
        PnmUnits { stats: PnmStats::default(), functional: true }
    }

    /// Creates a unit pool that times and counts its operations but leaves
    /// the Shared Buffer's data untouched.
    pub fn timing_only() -> Self {
        PnmUnits { stats: PnmStats::default(), functional: false }
    }

    /// Activity counters.
    pub fn stats(&self) -> &PnmStats {
        &self.stats
    }

    /// Merges externally-collected RISC-V retirement counts.
    pub fn note_riscv_instructions(&mut self, retired: u64) {
        self.stats.riscv_instructions += retired;
    }

    fn unit_time(&self, beats: usize, units: usize) -> Time {
        let cycles = (beats as u64).div_ceil(units as u64) + PIPELINE_FILL;
        PNM_CLOCK_PERIOD.times(cycles)
    }

    /// `ACC OPsize Rd Rs`: lane-wise BF16 accumulation of `opsize` beats:
    /// `sb[rd+i][l] += sb[rs+i][l]`.
    ///
    /// # Errors
    ///
    /// Returns an error if either slot range is out of bounds.
    pub fn acc(
        &mut self,
        sb: &mut SharedBuffer,
        rd: SbSlot,
        rs: SbSlot,
        opsize: usize,
    ) -> CentResult<Time> {
        if self.functional {
            for i in 0..opsize {
                let src = sb.read(rs.offset(i as u16))?;
                let mut dst = sb.read(rd.offset(i as u16))?;
                for lane in 0..16 {
                    dst[lane] += src[lane];
                }
                sb.write(rd.offset(i as u16), &dst)?;
            }
        } else {
            check_operands(sb, rd, rs, opsize)?;
        }
        self.stats.acc_beats += opsize as u64;
        Ok(self.unit_time(opsize, PNM_ACCUMULATORS))
    }

    /// `RED OPsize Rd Rs`: reduces the 16 BF16 lanes of each source beat to a
    /// single value stored in lane 0 of the destination beat (other lanes
    /// zeroed), mirroring "the result is stored into the first 16-bit element
    /// in a 256-bit Shared Buffer slot".
    ///
    /// # Errors
    ///
    /// Returns an error if either slot range is out of bounds.
    pub fn red(
        &mut self,
        sb: &mut SharedBuffer,
        rd: SbSlot,
        rs: SbSlot,
        opsize: usize,
    ) -> CentResult<Time> {
        if self.functional {
            for i in 0..opsize {
                let src = sb.read(rs.offset(i as u16))?;
                // The tree reduces pairwise in wider precision; model as f32 sum.
                let sum: f32 = src.iter().map(|v| v.to_f32()).sum();
                let mut dst = ZERO_BEAT;
                dst[0] = Bf16::from_f32(sum);
                sb.write(rd.offset(i as u16), &dst)?;
            }
        } else {
            check_operands(sb, rd, rs, opsize)?;
        }
        self.stats.red_beats += opsize as u64;
        Ok(self.unit_time(opsize, PNM_REDUCTION_TREES))
    }

    /// `EXP OPsize Rd Rs`: lane-wise exponential over `opsize` beats using
    /// the order-10 Taylor pipeline.
    ///
    /// # Errors
    ///
    /// Returns an error if either slot range is out of bounds.
    pub fn exp(
        &mut self,
        sb: &mut SharedBuffer,
        rd: SbSlot,
        rs: SbSlot,
        opsize: usize,
    ) -> CentResult<Time> {
        if self.functional {
            for i in 0..opsize {
                let src = sb.read(rs.offset(i as u16))?;
                let mut dst = ZERO_BEAT;
                for lane in 0..16 {
                    dst[lane] = Bf16::from_f32(exp_taylor(src[lane].to_f32()));
                }
                sb.write(rd.offset(i as u16), &dst)?;
            }
        } else {
            check_operands(sb, rd, rs, opsize)?;
        }
        self.stats.exp_beats += opsize as u64;
        // The Taylor pipeline is deeper than the accumulators.
        let cycles = (opsize as u64).div_ceil(PNM_EXP_UNITS as u64) + 10;
        Ok(PNM_CLOCK_PERIOD.times(cycles))
    }
}

/// Fails exactly where a lane loop over `opsize` beats would: at the first
/// beat `i` whose `rs + i` (checked first) or `rd + i` is out of range.
fn check_operands(sb: &SharedBuffer, rd: SbSlot, rs: SbSlot, opsize: usize) -> CentResult<()> {
    let room = |slot: SbSlot| sb.slot_count().saturating_sub(slot.index());
    let i = opsize.min(room(rs)).min(room(rd));
    if i < opsize {
        sb.read(rs.offset(i as u16))?;
        sb.read(rd.offset(i as u16))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat_of(values: &[f32]) -> cent_types::Beat {
        let mut b = ZERO_BEAT;
        for (i, v) in values.iter().enumerate() {
            b[i] = Bf16::from_f32(*v);
        }
        b
    }

    #[test]
    fn acc_adds_lanewise() {
        let mut sb = SharedBuffer::new();
        let mut units = PnmUnits::functional();
        sb.write(SbSlot(0), &beat_of(&[1.0; 16])).unwrap();
        sb.write(SbSlot(10), &beat_of(&[2.0; 16])).unwrap();
        let t = units.acc(&mut sb, SbSlot(0), SbSlot(10), 1).unwrap();
        assert_eq!(sb.read(SbSlot(0)).unwrap()[5].to_f32(), 3.0);
        assert!(t.as_ns() > 0.0);
        assert_eq!(units.stats().acc_beats, 1);
    }

    #[test]
    fn red_sums_sixteen_lanes_into_lane_zero() {
        let mut sb = SharedBuffer::new();
        let mut units = PnmUnits::functional();
        let v: Vec<f32> = (1..=16).map(|i| i as f32).collect();
        sb.write(SbSlot(3), &beat_of(&v)).unwrap();
        units.red(&mut sb, SbSlot(4), SbSlot(3), 1).unwrap();
        let out = sb.read(SbSlot(4)).unwrap();
        assert_eq!(out[0].to_f32(), 136.0);
        assert_eq!(out[1].to_f32(), 0.0);
    }

    #[test]
    fn exp_matches_reference_within_bf16() {
        let mut sb = SharedBuffer::new();
        let mut units = PnmUnits::functional();
        let inputs = [-30.0f32, -8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0];
        sb.write(SbSlot(0), &beat_of(&inputs)).unwrap();
        units.exp(&mut sb, SbSlot(1), SbSlot(0), 1).unwrap();
        let out = sb.read(SbSlot(1)).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            let expect = x.exp();
            let got = out[i].to_f32();
            let tol = (expect * 0.02).abs().max(1e-12);
            assert!((got - expect).abs() <= tol, "exp({x}): got {got}, want {expect}");
        }
    }

    #[test]
    fn exp_taylor_handles_extremes() {
        assert!(exp_taylor(f32::NAN).is_nan());
        assert_eq!(exp_taylor(-1000.0), exp_taylor(-88.0));
        assert!(exp_taylor(-88.0) >= 0.0);
        assert!((exp_taylor(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn timing_only_units_time_and_count_like_functional_ones_without_data() {
        let mut fill = SharedBuffer::new();
        for slot in 0..64u16 {
            fill.write(SbSlot(slot), &beat_of(&[0.25 * f32::from(slot); 16])).unwrap();
        }
        type Op = fn(&mut PnmUnits, &mut SharedBuffer, SbSlot, SbSlot, usize) -> CentResult<Time>;
        let ops: [Op; 3] = [PnmUnits::acc, PnmUnits::red, PnmUnits::exp];
        for op in ops {
            let (mut functional, mut timing) = (PnmUnits::functional(), PnmUnits::timing_only());
            for opsize in [0, 1, 31, 32, 33, 64] {
                let (mut f_sb, mut t_sb) = (fill.clone(), fill.clone());
                let f = op(&mut functional, &mut f_sb, SbSlot(0), SbSlot(64), opsize).unwrap();
                let t = op(&mut timing, &mut t_sb, SbSlot(0), SbSlot(64), opsize).unwrap();
                assert_eq!(f, t, "opsize {opsize}");
                for slot in 0..64u16 {
                    assert_eq!(t_sb.read(SbSlot(slot)).unwrap(), fill.read(SbSlot(slot)).unwrap());
                }
            }
            assert_eq!(functional.stats(), timing.stats());
            // Out-of-range operands fail on the same slot either way.
            let last = SharedBuffer::new().slot_count() as u16 - 1;
            for (rd, rs, opsize) in [(last, 0, 2), (0, last, 2), (last, last, 3), (last + 1, 0, 1)]
            {
                let f = op(&mut functional, &mut fill.clone(), SbSlot(rd), SbSlot(rs), opsize);
                let t = op(&mut timing, &mut fill.clone(), SbSlot(rd), SbSlot(rs), opsize);
                assert_eq!(f.unwrap_err().to_string(), t.unwrap_err().to_string());
            }
        }
    }

    #[test]
    fn throughput_scales_with_unit_count() {
        let mut sb = SharedBuffer::new();
        let mut units = PnmUnits::functional();
        // 64 beats over 32 accumulators = 2 + fill cycles at 0.5 ns.
        let t = units.acc(&mut sb, SbSlot(0), SbSlot(100), 64).unwrap();
        assert_eq!(t.as_ns(), (2 + 2) as f64 * 0.5);
        // 256 beats: 8 + 2 cycles.
        let t = units.acc(&mut sb, SbSlot(0), SbSlot(100), 256).unwrap();
        assert_eq!(t.as_ns(), 5.0);
    }
}
