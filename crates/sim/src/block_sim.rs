//! Cycle simulation of one transformer block on one device.
//!
//! Mirrors the paper's methodology (§6): "We generate CENT instruction
//! traces for a single block and verify the correctness using a functional
//! simulator" — performance comes from simulating one block trace on the
//! DRAM/PNM timing models and composing across blocks, stages and devices.

use std::collections::BTreeMap;

use cent_compiler::{compile_decode_step, BlockPhase, BlockPlacement};
use cent_device::{CxlDevice, DeviceConfig, LatencyBreakdown};
use cent_dram::ActivityCounters;
use cent_model::ModelConfig;
use cent_pnm::PnmStats;
use cent_types::{CentResult, ChannelId, DeviceId, Time};

/// Timing of one block decode step at one context position.
#[derive(Debug, Clone)]
pub struct BlockTiming {
    /// Wall-clock of the full step on the device.
    pub total: Time,
    /// PIM/PNM/CXL attribution.
    pub breakdown: LatencyBreakdown,
    /// Wall-clock per compiler phase.
    pub phases: BTreeMap<BlockPhase, Time>,
    /// DRAM activity (power model input).
    pub dram: ActivityCounters,
    /// PNM activity (power model input).
    pub pnm: PnmStats,
    /// Instructions executed.
    pub instructions: u64,
}

impl BlockTiming {
    /// Time in the fully-connected phases (scales with tensor parallelism).
    pub fn fc_time(&self) -> Time {
        let fc = [BlockPhase::FcQkv, BlockPhase::FcWo, BlockPhase::FcFfn];
        fc.iter().filter_map(|p| self.phases.get(p)).copied().sum()
    }

    /// Time in phases confined to the master device under TP (attention,
    /// norms, RoPE, KV appends).
    pub fn master_time(&self) -> Time {
        self.total.saturating_sub(self.fc_time())
    }
}

/// Simulates one decode step of a block placed on `channels` channels at
/// `position` (timing only; no data).
///
/// # Errors
///
/// Propagates placement, compilation and execution errors.
pub fn simulate_block_step(
    cfg: &ModelConfig,
    channels: usize,
    position: usize,
) -> CentResult<BlockTiming> {
    let channel_ids: Vec<ChannelId> = (0..channels).map(|c| ChannelId(c as u16)).collect();
    let placement = BlockPlacement::plan(cfg, channel_ids)?;
    simulate_placed_block_step(&placement, position)
}

/// Simulates one decode step of an already-planned block.
///
/// # Errors
///
/// Propagates compilation and execution errors.
pub fn simulate_placed_block_step(
    placement: &BlockPlacement,
    position: usize,
) -> CentResult<BlockTiming> {
    simulate_step_on(&mut timing_device(), placement, position)
}

/// A timing-only device for block steps. Steps run on one device share its
/// table of interpreted `RISCV` calls.
pub(crate) fn timing_device() -> CxlDevice {
    CxlDevice::new(DeviceId(0), DeviceConfig::timing_only())
}

/// Simulates one decode step of `placement` on `dev`, reset to its boot
/// state first.
fn simulate_step_on(
    dev: &mut CxlDevice,
    placement: &BlockPlacement,
    position: usize,
) -> CentResult<BlockTiming> {
    let step = compile_decode_step(placement, position)?;
    dev.reset();
    // Each instruction is charged the growth of `busy_until` it causes.
    // `busy_until` never decreases, so a run of instructions with one tag
    // is charged its growth over the whole run.
    let mut phases: BTreeMap<BlockPhase, Time> = BTreeMap::new();
    let mut run_start = Time::ZERO;
    for (i, (inst, &tag)) in step.trace.iter().zip(&step.tags).enumerate() {
        dev.execute(inst, None)?;
        if step.tags.get(i + 1) != Some(&tag) {
            let now = dev.busy_until();
            *phases.entry(tag).or_insert(Time::ZERO) += now - run_start;
            run_start = now;
        }
    }
    let total = dev.busy_until();
    Ok(BlockTiming {
        total,
        breakdown: dev.breakdown(),
        phases,
        dram: dev.dram_activity(),
        pnm: *dev.pnm_activity(),
        instructions: dev.instructions_executed(),
    })
}

/// Averages block timing over a few context positions (attention grows with
/// context; sampling at ¼, ½, ¾ and full mirrors the artifact's `SEQ_GAP`
/// batching).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn simulate_block_avg(
    cfg: &ModelConfig,
    channels: usize,
    context: usize,
) -> CentResult<BlockTiming> {
    simulate_block_avg_on(&mut timing_device(), cfg, channels, context)
}

/// [`simulate_block_avg`] with every sampled step on `dev`.
pub(crate) fn simulate_block_avg_on(
    dev: &mut CxlDevice,
    cfg: &ModelConfig,
    channels: usize,
    context: usize,
) -> CentResult<BlockTiming> {
    let samples = [context / 4, context / 2, (3 * context) / 4, context.saturating_sub(1)];
    let channel_ids: Vec<ChannelId> = (0..channels).map(|c| ChannelId(c as u16)).collect();
    let placement = BlockPlacement::plan(cfg, channel_ids)?;
    let mut acc: Option<BlockTiming> = None;
    let mut n = 0u32;
    for &pos in &samples {
        let pos = pos.min(cfg.max_context - 1).max(1);
        let t = simulate_step_on(dev, &placement, pos)?;
        n += 1;
        acc = Some(match acc {
            None => t,
            Some(mut a) => {
                a.total += t.total;
                a.breakdown += t.breakdown;
                for (k, v) in t.phases {
                    *a.phases.entry(k).or_insert(Time::ZERO) += v;
                }
                a.dram.merge(&t.dram);
                a.pnm.merge(&t.pnm);
                a.instructions += t.instructions;
                a
            }
        });
    }
    let mut a = acc.expect("at least one sample");
    let div = |t: Time| Time::from_ps(t.as_ps() / u64::from(n));
    a.total = div(a.total);
    a.breakdown = a.breakdown.scaled(1.0 / f64::from(n));
    for v in a.phases.values_mut() {
        *v = div(*v);
    }
    a.dram = a.dram.scaled(1.0 / f64::from(n));
    a.pnm = a.pnm.scaled(1.0 / f64::from(n));
    a.instructions /= u64::from(n);
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_block_timing_is_positive_and_attributed() {
        let cfg = ModelConfig::tiny();
        let t = simulate_block_step(&cfg, 2, 8).unwrap();
        assert!(t.total > Time::ZERO);
        assert!(t.instructions > 50);
        assert!(t.phases.contains_key(&BlockPhase::FcQkv));
        assert!(t.phases.contains_key(&BlockPhase::Attention));
        let phase_sum: Time = t.phases.values().copied().sum();
        // Per-instruction attribution must sum to the total.
        assert_eq!(phase_sum, t.total);
    }

    #[test]
    fn work_grows_with_context() {
        let cfg = ModelConfig::tiny();
        let early = simulate_block_step(&cfg, 2, 2).unwrap();
        let late = simulate_block_step(&cfg, 2, 60).unwrap();
        // Longer contexts mean more attention segments: more instructions
        // and more MAC beats (wall-clock attribution is too noisy at this
        // scale to compare phase-by-phase).
        assert!(late.instructions > early.instructions);
        assert!(late.dram.mac_beats > early.dram.mac_beats);
    }

    #[test]
    fn more_channels_speed_up_fc() {
        let cfg = ModelConfig::tiny();
        let narrow = simulate_block_step(&cfg, 1, 8).unwrap();
        let wide = simulate_block_step(&cfg, 4, 8).unwrap();
        assert!(wide.fc_time() < narrow.fc_time());
    }

    #[test]
    fn averaged_timing_runs() {
        let cfg = ModelConfig::tiny();
        let avg = simulate_block_avg(&cfg, 2, 32).unwrap();
        assert!(avg.total > Time::ZERO);
    }

    #[test]
    fn average_is_the_mean_of_its_samples() {
        let cfg = ModelConfig::llama2_7b();
        let placement = BlockPlacement::plan(&cfg, (0..4).map(ChannelId).collect()).unwrap();
        let avg = simulate_block_avg(&cfg, 4, 256).unwrap();
        let samples: Vec<BlockTiming> = [64, 128, 192, 255]
            .iter()
            .map(|&pos| simulate_placed_block_step(&placement, pos).unwrap())
            .collect();
        let mean = |f: fn(&BlockTiming) -> u64| {
            (samples.iter().map(f).sum::<u64>() as f64 / 4.0).round() as u64
        };
        assert_eq!(avg.total.as_ps(), samples.iter().map(|s| s.total.as_ps()).sum::<u64>() / 4);
        assert_eq!(avg.instructions, samples.iter().map(|s| s.instructions).sum::<u64>() / 4);
        assert_eq!(avg.dram.mac_beats, mean(|s| s.dram.mac_beats));
        assert_eq!(avg.pnm.acc_beats, mean(|s| s.pnm.acc_beats));
        assert_eq!(avg.pnm.red_beats, mean(|s| s.pnm.red_beats));
        assert_eq!(avg.pnm.exp_beats, mean(|s| s.pnm.exp_beats));
        assert_eq!(avg.pnm.riscv_instructions, mean(|s| s.pnm.riscv_instructions));
        assert!(avg.pnm.riscv_instructions > 0);
    }
}
