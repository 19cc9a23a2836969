//! The CENT CXL device: decoder + 32 PIM channels + PNM units + CXL port.
//!
//! A device executes CENT instruction traces in order (the decoder dispatches
//! one instruction per 2 GHz cycle). PIM channels keep their own DRAM clocks
//! and run ahead of the dispatch stream; the device clock only synchronises
//! with a channel when an instruction *consumes* channel results (`RD_MAC`,
//! `RD_SBK`, `COPY_BKGB`), which mirrors the queued PIM-controller design of
//! §4.2. PNM instructions execute on the device clock; CXL receives stall
//! until delivery.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use cent_cxl::CommunicationEngine;
use cent_dram::ActivityCounters;
use cent_isa::{riscv_pc, Instruction, MacOperand};
use cent_pim::{ActivationFunction, MacSource, PimChannel};
use cent_pnm::PnmStats;
use cent_pnm::{assemble, programs, PnmCore, PnmUnits, SharedBuffer};
use cent_types::consts::{
    CHANNELS_PER_DEVICE, GLOBAL_BUFFER_SLOTS, PNM_CLOCK_PERIOD, PNM_RISCV_CORES,
};
use cent_types::{Beat, CentError, CentResult, ChannelId, ChannelMask, DeviceId, SbSlot, Time};

use crate::breakdown::LatencyBreakdown;

/// Each canned routine at its start PC.
const ROUTINES: [(u32, &str); 9] = [
    (riscv_pc::RSQRT, programs::RSQRT),
    (riscv_pc::RECIP, programs::RECIP),
    (riscv_pc::RMSNORM_SCALE, programs::RMSNORM_SCALE),
    (riscv_pc::ROPE_COMBINE, programs::ROPE_COMBINE),
    (riscv_pc::VEC_ADD, programs::VEC_ADD),
    (riscv_pc::VEC_SCALE, programs::VEC_SCALE),
    (riscv_pc::DEINTERLEAVE, programs::DEINTERLEAVE),
    (riscv_pc::SUB_COUNT, programs::SUB_COUNT),
    (riscv_pc::ZERO_TAIL, programs::ZERO_TAIL),
];

/// The routines as instruction words, assembled once per process.
fn routine_words() -> &'static [(u32, Vec<u32>)] {
    static WORDS: OnceLock<Vec<(u32, Vec<u32>)>> = OnceLock::new();
    WORDS.get_or_init(|| {
        ROUTINES
            .iter()
            .map(|&(pc, source)| (pc, assemble(source).expect("the canned PNM routines assemble")))
            .collect()
    })
}

/// A core as the host leaves it at boot: every routine loaded at its PC.
fn booted_core() -> PnmCore {
    let mut core = PnmCore::new();
    for (pc, words) in routine_words() {
        core.load(*pc, words).expect("the canned PNM routines fit the text budget");
    }
    core
}

/// The argument registers `a0..a5` of the routine at `pc` for a `RISCV`
/// instruction's `rd`, `rs` and `opsize` (`n`).
fn routine_args(pc: u32, rd: SbSlot, rs: SbSlot, n: u32) -> CentResult<Vec<u32>> {
    // Multi-array routines use exact packed strides of n elements (2n
    // bytes) between consecutive arrays.
    let stride = n * 2;
    let (rd, rs) = (rd.byte_addr(), rs.byte_addr());
    Ok(match pc {
        riscv_pc::RSQRT | riscv_pc::RECIP => vec![rs, rd],
        riscv_pc::RMSNORM_SCALE | riscv_pc::SUB_COUNT => vec![rs, n, rd],
        riscv_pc::ROPE_COMBINE => vec![rs, rs + stride, rs + 2 * stride, rs + 3 * stride, rd, n],
        riscv_pc::VEC_ADD | riscv_pc::VEC_SCALE => vec![rs, rs + stride, rd, n],
        riscv_pc::DEINTERLEAVE => vec![rs, rd, n],
        riscv_pc::ZERO_TAIL => vec![rd, n],
        other => {
            return Err(CentError::InvalidInstruction(format!(
                "no RISC-V routine registered at pc {other:#x}"
            )))
        }
    })
}

/// Configuration of one CXL device model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// PIM channels to instantiate (32 in the paper; tests use fewer).
    pub channels: usize,
    /// Whether the device carries data through its channels, PNM units
    /// and RISC-V cores. Timing and activity counters are the same either
    /// way.
    pub functional: bool,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig { channels: CHANNELS_PER_DEVICE, functional: true }
    }
}

impl DeviceConfig {
    /// Timing-only device with the full 32 channels.
    pub fn timing_only() -> Self {
        DeviceConfig { channels: CHANNELS_PER_DEVICE, functional: false }
    }

    /// Functional device with a reduced channel count (fast tests).
    pub fn functional_small(channels: usize) -> Self {
        DeviceConfig { channels, functional: true }
    }
}

/// One CENT CXL device.
///
/// # Examples
///
/// Run a miniature GEMV trace and read the result:
///
/// ```
/// use cent_device::{CxlDevice, DeviceConfig};
/// use cent_isa::{riscv_pc, Instruction, MacOperand};
/// use cent_types::*;
///
/// # fn main() -> Result<(), cent_types::CentError> {
/// let mut dev = CxlDevice::new(DeviceId(0), DeviceConfig::functional_small(1));
/// // Preload a 16×16 all-ones tile in channel 0 (row 0, one beat per bank).
/// for bank in 0..16u16 {
///     dev.preload_beat(ChannelId(0), BankId(bank), RowAddr(0), ColAddr(0), &[Bf16::ONE; 16])?;
/// }
/// // The input vector sits in Shared Buffer slot 0.
/// dev.shared_buffer_mut().write_vec(SbSlot(0), &[Bf16::from_f32(2.0); 16])?;
/// let trace = [
///     Instruction::WrGb { chmask: ChannelMask(1), opsize: 1, gb_slot: 0, rs: SbSlot(0) },
///     Instruction::WrBias { chmask: ChannelMask(1), rs: SbSlot(1), reg: AccRegId::new(0) },
///     Instruction::MacAbk {
///         chmask: ChannelMask(1), opsize: 1, row: RowAddr(0), col: ColAddr(0),
///         reg: AccRegId::new(0), operand: MacOperand::GlobalBuffer { slot: 0 },
///     },
///     Instruction::RdMac { chmask: ChannelMask(1), rd: SbSlot(2), reg: AccRegId::new(0) },
/// ];
/// for inst in &trace {
///     dev.execute(inst, None)?;
/// }
/// // Each PU row of ones · vector of twos = 32.
/// assert_eq!(dev.shared_buffer().read(SbSlot(2))?[0].to_f32(), 32.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CxlDevice {
    id: DeviceId,
    config: DeviceConfig,
    channels: Vec<PimChannel>,
    sb: SharedBuffer,
    pnm: PnmUnits,
    cores: Vec<PnmCore>,
    next_core: usize,
    /// Timing-only devices: `(latency, retired)` of each `RISCV` call
    /// already interpreted since the device was created ([`Self::reset`]
    /// keeps them), keyed by `(pc, rd, rs, opsize)`. The routines branch
    /// only on their arguments, so the key fixes the instruction mix the
    /// timing model prices.
    riscv_timings: BTreeMap<(u32, SbSlot, SbSlot, u32), (Time, u64)>,
    now: Time,
    /// Completion time of the work issued to any channel.
    pim_busy: Time,
    breakdown: LatencyBreakdown,
    instructions_executed: u64,
}

impl CxlDevice {
    /// Creates a device.
    pub fn new(id: DeviceId, config: DeviceConfig) -> Self {
        CxlDevice {
            cores: (0..PNM_RISCV_CORES).map(|_| booted_core()).collect(),
            ..Self::without_cores(id, config)
        }
    }

    /// A device in its boot state, except that it has no RISC-V cores.
    fn without_cores(id: DeviceId, config: DeviceConfig) -> Self {
        let channels = (0..config.channels)
            .map(|_| {
                if config.functional {
                    PimChannel::functional()
                } else {
                    PimChannel::timing_only()
                }
            })
            .collect();
        CxlDevice {
            id,
            config,
            channels,
            sb: SharedBuffer::new(),
            pnm: if config.functional { PnmUnits::functional() } else { PnmUnits::timing_only() },
            cores: Vec::new(),
            next_core: 0,
            riscv_timings: BTreeMap::new(),
            now: Time::ZERO,
            pim_busy: Time::ZERO,
            breakdown: LatencyBreakdown::ZERO,
            instructions_executed: 0,
        }
    }

    /// Returns the device to its boot state: fresh channels, Shared Buffer
    /// and PNM units, and zero clock, breakdown and instruction count. The
    /// cores keep their loaded routines (a call leaves nothing else behind
    /// in a core), and a timing-only device keeps the timings of the
    /// `RISCV` calls it has already interpreted, so a run of block steps
    /// on one device interprets each distinct call once.
    pub fn reset(&mut self) {
        let cores = std::mem::take(&mut self.cores);
        let riscv_timings = std::mem::take(&mut self.riscv_timings);
        // Free the old channels first, so a reset never holds two sets.
        drop(std::mem::take(&mut self.channels));
        *self = CxlDevice { cores, riscv_timings, ..Self::without_cores(self.id, self.config) };
    }

    /// This device's fabric identity.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Current device (decoder) clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Completion time across decoder and all channels.
    pub fn busy_until(&self) -> Time {
        self.now.max(self.pim_busy)
    }

    /// Latency attribution so far.
    pub fn breakdown(&self) -> LatencyBreakdown {
        let mut b = self.breakdown;
        // Outstanding channel work counts as PIM time.
        b.pim += self.busy_until().saturating_sub(self.now);
        b
    }

    /// Instructions executed so far.
    pub fn instructions_executed(&self) -> u64 {
        self.instructions_executed
    }

    /// Aggregated DRAM activity across channels (power model input).
    pub fn dram_activity(&self) -> ActivityCounters {
        let mut total = ActivityCounters::default();
        for ch in &self.channels {
            total.merge(ch.activity());
        }
        total
    }

    /// PNM activity (power model input).
    pub fn pnm_activity(&self) -> &PnmStats {
        self.pnm.stats()
    }

    /// Shared Buffer access (functional verification).
    pub fn shared_buffer(&self) -> &SharedBuffer {
        &self.sb
    }

    /// Mutable Shared Buffer access (host writes via CXL).
    pub fn shared_buffer_mut(&mut self) -> &mut SharedBuffer {
        &mut self.sb
    }

    /// Direct channel access for inspection.
    pub fn channel(&self, ch: ChannelId) -> CentResult<&PimChannel> {
        self.channels.get(ch.index()).ok_or_else(|| {
            CentError::config(format!("device has {} channels", self.channels.len()))
        })
    }

    /// Preloads one beat into a bank without advancing timing — model
    /// weights are loaded once before serving and are not part of inference
    /// latency (§5.6).
    ///
    /// # Errors
    ///
    /// Returns address errors from the channel.
    pub fn preload_beat(
        &mut self,
        ch: ChannelId,
        bank: cent_types::BankId,
        row: cent_types::RowAddr,
        col: cent_types::ColAddr,
        beat: &Beat,
    ) -> CentResult<()> {
        let channel = self
            .channels
            .get_mut(ch.index())
            .ok_or_else(|| CentError::config(format!("channel {ch} not present")))?;
        // Use a scratch clone of the timing-free path: write the beat, then
        // cancel the timing effect by treating preload as time-zero state.
        channel.preload_beat(bank, row, col, beat)
    }

    /// Fails unless every channel `chmask` selects is present.
    fn check_mask(&self, chmask: ChannelMask) -> CentResult<()> {
        let n = self.channels.len();
        match chmask.0.checked_ilog2() {
            Some(top) if top as usize >= n => {
                Err(CentError::config(format!("channel {top} of {n} not present")))
            }
            _ => Ok(()),
        }
    }

    /// Advances channel `idx` to the decoder clock and runs `op` on it.
    fn on_channel<T>(
        &mut self,
        idx: usize,
        op: impl FnOnce(&mut PimChannel) -> CentResult<T>,
    ) -> CentResult<T> {
        let n = self.channels.len();
        let channel = self
            .channels
            .get_mut(idx)
            .ok_or_else(|| CentError::config(format!("channel {idx} of {n} not present")))?;
        channel.advance_to(self.now);
        let result = op(channel);
        // Channel completion times only grow, so the running maximum is the
        // maximum over all channels.
        self.pim_busy = self.pim_busy.max(channel.busy_until());
        result
    }

    /// [`Self::on_channel`] on every channel `chmask` selects, in index
    /// order, once all of them are known to be present.
    fn on_channels(
        &mut self,
        chmask: ChannelMask,
        mut op: impl FnMut(&mut PimChannel) -> CentResult<()>,
    ) -> CentResult<()> {
        self.check_mask(chmask)?;
        for ch in chmask.iter() {
            self.on_channel(ch.index(), &mut op)?;
        }
        Ok(())
    }

    /// Executes one instruction. `comm` is required for CXL instructions and
    /// may be `None` for single-device runs.
    ///
    /// # Errors
    ///
    /// Propagates address, protocol and trap errors from the units.
    pub fn execute(
        &mut self,
        inst: &Instruction,
        mut comm: Option<&mut CommunicationEngine>,
    ) -> CentResult<()> {
        self.instructions_executed += 1;
        // One decoder slot per instruction.
        self.now += PNM_CLOCK_PERIOD;
        match *inst {
            Instruction::WrGb { chmask, opsize, gb_slot, rs } => {
                if usize::from(gb_slot) + opsize as usize > GLOBAL_BUFFER_SLOTS {
                    return Err(CentError::AddressOutOfRange(format!(
                        "WR_GB of {opsize} beats at GB slot {gb_slot}"
                    )));
                }
                let beats: Vec<Beat> = (0..opsize)
                    .map(|i| self.sb.read(rs.offset(i as u16)))
                    .collect::<CentResult<_>>()?;
                self.on_channels(chmask, |channel| {
                    for (i, beat) in beats.iter().enumerate() {
                        channel.write_gb(usize::from(gb_slot) + i, beat);
                    }
                    Ok(())
                })?;
            }
            Instruction::WrBias { chmask, rs, reg } => {
                let beat = self.sb.read(rs)?;
                self.on_channels(chmask, |channel| {
                    channel.write_bias(reg, &beat);
                    Ok(())
                })?;
            }
            Instruction::MacAbk { chmask, opsize, row, col, reg, operand } => {
                let source = match operand {
                    MacOperand::GlobalBuffer { slot } => {
                        MacSource::GlobalBuffer { slot: slot as usize }
                    }
                    MacOperand::NeighbourBank => MacSource::NeighbourBank,
                };
                self.on_channels(chmask, |channel| {
                    channel.mac_abk(row, col, opsize as usize, reg, source).map(drop)
                })?;
            }
            Instruction::EwMul { chmask, opsize, row, col } => {
                self.on_channels(chmask, |channel| {
                    channel.ew_mul(row, col, opsize as usize).map(drop)
                })?;
            }
            Instruction::Af { chmask, af_id, reg } => {
                let af = ActivationFunction::from_id(af_id).ok_or_else(|| {
                    CentError::InvalidInstruction(format!("unknown AFid {af_id}"))
                })?;
                self.on_channels(chmask, |channel| channel.af(reg, af).map(drop))?;
            }
            Instruction::RdMac { chmask, rd, reg } => {
                // Consuming results: sync with each channel's completion.
                self.check_mask(chmask)?;
                let mut slot = rd;
                for ch in chmask.iter() {
                    let busy = self.channels[ch.index()].busy_until();
                    self.sync_pim(busy);
                    let (beat, _) = self.channels[ch.index()].read_mac(reg);
                    self.sb.write(slot, &beat)?;
                    slot = slot.offset(1);
                }
            }
            Instruction::WrSbk { ch, opsize, bank, row, col, rs } => {
                let beats: Vec<Beat> = (0..opsize)
                    .map(|i| self.sb.read(rs.offset(i as u16)))
                    .collect::<CentResult<_>>()?;
                self.on_channel(ch.index(), |channel| {
                    channel.write_beats(bank, row, col, &beats).map(drop)
                })?;
            }
            Instruction::RdSbk { ch, opsize, bank, row, col, rd } => {
                let beats = self.on_channel(ch.index(), |channel| {
                    channel.read_beats(bank, row, col, opsize as usize)
                })?;
                let busy = self.channels[ch.index()].busy_until();
                self.sync_pim(busy);
                for (i, beat) in beats.iter().enumerate() {
                    self.sb.write(rd.offset(i as u16), beat)?;
                }
            }
            Instruction::WrAbk { ch, row, elem, rs } => {
                let beat = self.sb.read(rs)?;
                self.on_channel(ch.index(), |channel| {
                    channel.write_element_all_banks(row, elem as usize, &beat).map(drop)
                })?;
            }
            Instruction::CopyBkGb { chmask, opsize, bank, row, col, gb_slot } => {
                self.on_channels(chmask, |channel| {
                    channel
                        .copy_bank_to_gb(bank, row, col, gb_slot as usize, opsize as usize)
                        .map(drop)
                })?;
            }
            Instruction::CopyGbBk { chmask, opsize, bank, row, col, gb_slot } => {
                self.on_channels(chmask, |channel| {
                    channel
                        .copy_gb_to_bank(bank, row, col, gb_slot as usize, opsize as usize)
                        .map(drop)
                })?;
            }
            Instruction::Exp { opsize, rd, rs } => {
                let t = self.pnm.exp(&mut self.sb, rd, rs, opsize as usize)?;
                self.now += t;
                self.breakdown.pnm += t;
            }
            Instruction::Red { opsize, rd, rs } => {
                let t = self.pnm.red(&mut self.sb, rd, rs, opsize as usize)?;
                self.now += t;
                self.breakdown.pnm += t;
            }
            Instruction::Acc { opsize, rd, rs } => {
                let t = self.pnm.acc(&mut self.sb, rd, rs, opsize as usize)?;
                self.now += t;
                self.breakdown.pnm += t;
            }
            Instruction::Riscv { opsize, pc, rd, rs } => {
                let t = self.run_riscv(pc, rd, rs, opsize)?;
                self.now += t;
                self.breakdown.pnm += t;
            }
            Instruction::SendCxl { dv, rs, rd, opsize } => {
                let comm = comm.as_deref_mut().ok_or_else(|| {
                    CentError::ProtocolViolation("SEND_CXL without a fabric".into())
                })?;
                let beats: Vec<Beat> = (0..opsize)
                    .map(|i| self.sb.read(rs.offset(i as u16)))
                    .collect::<CentResult<_>>()?;
                comm.send_to_slot(self.id, dv, rd, beats, self.now)?;
                // SEND_CXL is non-blocking (§4.1).
            }
            Instruction::RecvCxl { opsize: _ } => {
                let comm = comm.as_deref_mut().ok_or_else(|| {
                    CentError::ProtocolViolation("RECV_CXL without a fabric".into())
                })?;
                let msg = comm.recv(self.id)?;
                // Blocking: stall until delivery.
                if msg.delivered_at > self.now {
                    self.breakdown.cxl += msg.delivered_at - self.now;
                    self.now = msg.delivered_at;
                }
                let base = SbSlot(msg.dst_slot);
                for (i, beat) in msg.beats.iter().enumerate() {
                    self.sb.write(base.offset(i as u16), beat)?;
                }
            }
            Instruction::BcastCxl { dv_count, rs, rd, opsize } => {
                let comm = comm.ok_or_else(|| {
                    CentError::ProtocolViolation("BCAST_CXL without a fabric".into())
                })?;
                let beats: Vec<Beat> = (0..opsize)
                    .map(|i| self.sb.read(rs.offset(i as u16)))
                    .collect::<CentResult<_>>()?;
                let targets: Vec<DeviceId> =
                    (1..=u16::from(dv_count)).map(|i| DeviceId(self.id.0 + i)).collect();
                comm.broadcast_to_slot(self.id, &targets, rd, beats, self.now)?;
            }
        }
        Ok(())
    }

    fn sync_pim(&mut self, busy: Time) {
        if busy > self.now {
            self.breakdown.pim += busy - self.now;
            self.now = busy;
        }
    }

    /// Runs a whole trace in order.
    ///
    /// # Errors
    ///
    /// Propagates the first execution error.
    pub fn run_trace(
        &mut self,
        trace: &[Instruction],
        mut comm: Option<&mut CommunicationEngine>,
    ) -> CentResult<Time> {
        for inst in trace {
            self.execute(inst, comm.as_deref_mut())?;
        }
        // A trace is complete when every channel has drained.
        let busy = self.busy_until();
        self.sync_pim(busy);
        Ok(self.now)
    }

    fn run_riscv(&mut self, pc: u32, rd: SbSlot, rs: SbSlot, opsize: u32) -> CentResult<Time> {
        // Round-robin over the 8 cores.
        let core_idx = self.next_core;
        self.next_core = (self.next_core + 1) % self.cores.len();
        let key = (pc, rd, rs, opsize);
        let (latency, retired) = match self.riscv_timings.get(&key) {
            Some(&timing) => timing,
            None => {
                let args = routine_args(pc, rd, rs, opsize)?;
                let run = self.cores[core_idx].call(&mut self.sb, pc, &args)?;
                let timing = (run.latency, run.stats.retired);
                if !self.config.functional {
                    self.riscv_timings.insert(key, timing);
                }
                timing
            }
        };
        self.pnm.note_riscv_instructions(retired);
        Ok(latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cent_cxl::FabricConfig;
    use cent_types::{AccRegId, BankId, Bf16, ChannelMask, ColAddr, RowAddr};

    fn small_device(id: u16) -> CxlDevice {
        CxlDevice::new(DeviceId(id), DeviceConfig::functional_small(2))
    }

    #[test]
    fn gemv_trace_on_two_channels() {
        let mut dev = small_device(0);
        // Channel 0 holds rows of ones, channel 1 rows of twos.
        for ch in 0..2u16 {
            let value = Bf16::from_f32(ch as f32 + 1.0);
            for bank in 0..16u16 {
                dev.preload_beat(ChannelId(ch), BankId(bank), RowAddr(0), ColAddr(0), &[value; 16])
                    .unwrap();
            }
        }
        dev.shared_buffer_mut().write_vec(SbSlot(0), &[Bf16::ONE; 16]).unwrap();
        let trace = [
            Instruction::WrGb { chmask: ChannelMask(0b11), opsize: 1, gb_slot: 0, rs: SbSlot(0) },
            Instruction::WrBias { chmask: ChannelMask(0b11), rs: SbSlot(4), reg: AccRegId::new(0) },
            Instruction::MacAbk {
                chmask: ChannelMask(0b11),
                opsize: 1,
                row: RowAddr(0),
                col: ColAddr(0),
                reg: AccRegId::new(0),
                operand: MacOperand::GlobalBuffer { slot: 0 },
            },
            Instruction::RdMac { chmask: ChannelMask(0b11), rd: SbSlot(8), reg: AccRegId::new(0) },
        ];
        dev.run_trace(&trace, None).unwrap();
        // Channel 0 result in slot 8 (16 ones · ones), channel 1 in slot 9.
        assert_eq!(dev.shared_buffer().read(SbSlot(8)).unwrap()[0].to_f32(), 16.0);
        assert_eq!(dev.shared_buffer().read(SbSlot(9)).unwrap()[3].to_f32(), 32.0);
        assert!(dev.now() > Time::ZERO);
        assert_eq!(dev.instructions_executed(), 4);
    }

    #[test]
    fn pnm_softmax_pipeline() {
        let mut dev = small_device(0);
        // Scores in slot 0: [0, ln2, 0, ...] -> exp = [1, 2, 1 ...].
        let scores =
            vec![Bf16::from_f32(0.0), Bf16::from_f32(core::f32::consts::LN_2), Bf16::from_f32(0.0)];
        dev.shared_buffer_mut().write_vec(SbSlot(0), &scores).unwrap();
        let trace = [
            Instruction::Exp { opsize: 1, rd: SbSlot(1), rs: SbSlot(0) },
            Instruction::Red { opsize: 1, rd: SbSlot(2), rs: SbSlot(1) },
            Instruction::Riscv { opsize: 1, pc: riscv_pc::RECIP, rd: SbSlot(3), rs: SbSlot(2) },
        ];
        dev.run_trace(&trace, None).unwrap();
        // exp sums: 1 + 2 + 1 + 13 zeros' exp(0)=1 each... note: zero lanes
        // also exponentiate to 1, so the beat-wide sum is 1+2+1 + 13 = 17.
        let sum = dev.shared_buffer().read(SbSlot(2)).unwrap()[0].to_f32();
        assert!((sum - 17.0).abs() < 0.2, "sum {sum}");
        let recip = dev.shared_buffer().read(SbSlot(3)).unwrap()[0].to_f32();
        assert!((recip - 1.0 / sum).abs() < 1e-3);
        assert!(dev.breakdown().pnm > Time::ZERO);
    }

    #[test]
    fn cxl_send_recv_between_devices() {
        let mut comm = CommunicationEngine::new(FabricConfig::cent(2));
        let mut a = small_device(0);
        let mut b = small_device(1);
        a.shared_buffer_mut().write_vec(SbSlot(0), &[Bf16::from_f32(9.0); 16]).unwrap();
        a.execute(
            &Instruction::SendCxl { dv: DeviceId(1), rs: SbSlot(0), rd: SbSlot(100), opsize: 1 },
            Some(&mut comm),
        )
        .unwrap();
        b.execute(&Instruction::RecvCxl { opsize: 1 }, Some(&mut comm)).unwrap();
        assert_eq!(b.shared_buffer().read(SbSlot(100)).unwrap()[0].to_f32(), 9.0);
        // The receiver stalled on the fabric: CXL time attributed.
        assert!(b.breakdown().cxl > Time::ZERO);
    }

    #[test]
    fn broadcast_from_master_device() {
        let mut comm = CommunicationEngine::new(FabricConfig::cent(4));
        let mut master = small_device(0);
        master.shared_buffer_mut().write_vec(SbSlot(0), &[Bf16::from_f32(3.5); 32]).unwrap();
        master
            .execute(
                &Instruction::BcastCxl { dv_count: 3, rs: SbSlot(0), rd: SbSlot(0), opsize: 2 },
                Some(&mut comm),
            )
            .unwrap();
        for i in 1..4u16 {
            let mut d = small_device(i);
            d.execute(&Instruction::RecvCxl { opsize: 2 }, Some(&mut comm)).unwrap();
            assert_eq!(d.shared_buffer().read(SbSlot(1)).unwrap()[15].to_f32(), 3.5);
        }
    }

    #[test]
    fn riscv_rmsnorm_scale_via_isa() {
        let mut dev = small_device(0);
        // Sum of squares = 1024 over n=256 -> 1/sqrt(4) = 0.5.
        dev.shared_buffer_mut().write_vec(SbSlot(0), &[Bf16::from_f32(1024.0)]).unwrap();
        dev.execute(
            &Instruction::Riscv {
                opsize: 256,
                pc: riscv_pc::RMSNORM_SCALE,
                rd: SbSlot(1),
                rs: SbSlot(0),
            },
            None,
        )
        .unwrap();
        let got = dev.shared_buffer().read(SbSlot(1)).unwrap()[0].to_f32();
        assert!((got - 0.5).abs() < 1e-2, "got {got}");
    }

    #[test]
    fn routines_do_not_overlap_in_the_core_buffer() {
        let words = routine_words();
        for (i, (pc, w)) in words.iter().enumerate() {
            let end = words.get(i + 1).map_or(pc + 0x100, |(next, _)| *next);
            assert!(pc + 4 * w.len() as u32 <= end, "routine at {pc:#x} runs into {end:#x}");
        }
    }

    #[test]
    fn repeated_riscv_calls_reuse_timing_on_a_timing_only_device() {
        let mut functional = small_device(0);
        let mut timing =
            CxlDevice::new(DeviceId(0), DeviceConfig { channels: 2, functional: false });
        let calls = [
            Instruction::Riscv {
                opsize: 16,
                pc: riscv_pc::VEC_SCALE,
                rd: SbSlot(9),
                rs: SbSlot(4),
            },
            Instruction::Riscv { opsize: 3, pc: riscv_pc::ZERO_TAIL, rd: SbSlot(2), rs: SbSlot(0) },
        ];
        for inst in calls.iter().chain(&calls) {
            functional.execute(inst, None).unwrap();
            timing.execute(inst, None).unwrap();
            assert_eq!(functional.now(), timing.now());
            assert_eq!(functional.pnm_activity(), timing.pnm_activity());
        }
        assert_eq!(timing.riscv_timings.len(), 2);
        assert_eq!(functional.breakdown(), timing.breakdown());
        // Failed calls are never remembered: a bad address traps every time.
        let bad =
            Instruction::Riscv { opsize: 1, pc: riscv_pc::RECIP, rd: SbSlot(0), rs: SbSlot(4000) };
        for _ in 0..2 {
            assert!(timing.execute(&bad, None).is_err());
        }
        assert_eq!(timing.riscv_timings.len(), 2);
    }

    #[test]
    fn wr_gb_past_the_global_buffer_is_rejected_before_any_write() {
        let mut dev = small_device(0);
        dev.shared_buffer_mut().write_vec(SbSlot(0), &[Bf16::ONE; 32]).unwrap();
        let err = dev
            .execute(
                &Instruction::WrGb {
                    chmask: ChannelMask(1),
                    opsize: 2,
                    gb_slot: 63,
                    rs: SbSlot(0),
                },
                None,
            )
            .unwrap_err();
        assert!(matches!(err, CentError::AddressOutOfRange(_)), "{err}");
        assert_eq!(dev.channel(ChannelId(0)).unwrap().gb(63)[0], Bf16::ZERO);
        // A mask bit past the device's channels fails before channel 0 is
        // written.
        let err = dev
            .execute(
                &Instruction::WrGb {
                    chmask: ChannelMask(0b101),
                    opsize: 1,
                    gb_slot: 0,
                    rs: SbSlot(0),
                },
                None,
            )
            .unwrap_err();
        assert!(matches!(err, CentError::InvalidConfig(_)), "{err}");
        assert_eq!(dev.channel(ChannelId(0)).unwrap().gb(0)[0], Bf16::ZERO);
    }

    #[test]
    fn rd_mac_of_a_missing_channel_is_rejected_before_any_write() {
        let mut dev = small_device(0);
        dev.shared_buffer_mut().write_vec(SbSlot(8), &[Bf16::from_f32(5.0); 16]).unwrap();
        let before = dev.now();
        let err = dev
            .execute(
                &Instruction::RdMac {
                    chmask: ChannelMask(0b1001),
                    rd: SbSlot(8),
                    reg: AccRegId::new(0),
                },
                None,
            )
            .unwrap_err();
        assert!(matches!(err, CentError::InvalidConfig(_)), "{err}");
        // Channel 0's result was not written over slot 8, and only the
        // decoder slot of the failed instruction passed.
        assert_eq!(dev.shared_buffer().read(SbSlot(8)).unwrap()[0].to_f32(), 5.0);
        assert_eq!(dev.now(), before + PNM_CLOCK_PERIOD);
    }

    #[test]
    fn reset_returns_to_boot_state_but_keeps_the_riscv_table() {
        let config = DeviceConfig { channels: 2, functional: false };
        let trace = [
            Instruction::MacAbk {
                chmask: ChannelMask(0b11),
                opsize: 70,
                row: RowAddr(3),
                col: ColAddr(60),
                reg: AccRegId::new(0),
                operand: MacOperand::NeighbourBank,
            },
            Instruction::Riscv { opsize: 16, pc: riscv_pc::VEC_ADD, rd: SbSlot(9), rs: SbSlot(4) },
            Instruction::Exp { opsize: 4, rd: SbSlot(1), rs: SbSlot(0) },
            Instruction::RdMac { chmask: ChannelMask(0b11), rd: SbSlot(20), reg: AccRegId::new(0) },
        ];
        let mut fresh = CxlDevice::new(DeviceId(0), config);
        let done = fresh.run_trace(&trace, None).unwrap();
        let mut reused = CxlDevice::new(DeviceId(0), config);
        reused.run_trace(&trace, None).unwrap();
        reused.reset();
        assert_eq!(reused.now(), Time::ZERO);
        assert_eq!(reused.busy_until(), Time::ZERO);
        assert_eq!(reused.breakdown(), LatencyBreakdown::ZERO);
        assert_eq!(reused.instructions_executed(), 0);
        assert_eq!(reused.dram_activity(), ActivityCounters::default());
        assert_eq!(*reused.pnm_activity(), PnmStats::default());
        assert_eq!(reused.riscv_timings.len(), 1);
        // The second run reuses the table and times exactly like the first.
        assert_eq!(reused.run_trace(&trace, None).unwrap(), done);
        assert_eq!(reused.breakdown(), fresh.breakdown());
        assert_eq!(reused.dram_activity(), fresh.dram_activity());
        assert_eq!(reused.pnm_activity(), fresh.pnm_activity());
    }

    #[test]
    fn cxl_instruction_without_fabric_fails() {
        let mut dev = small_device(0);
        let err = dev.execute(&Instruction::RecvCxl { opsize: 1 }, None).unwrap_err();
        assert!(err.to_string().contains("without a fabric"));
    }

    #[test]
    fn unknown_riscv_pc_rejected() {
        let mut dev = small_device(0);
        let err = dev
            .execute(
                &Instruction::Riscv { opsize: 1, pc: 0x999, rd: SbSlot(0), rs: SbSlot(0) },
                None,
            )
            .unwrap_err();
        assert!(err.to_string().contains("no RISC-V routine"));
    }

    #[test]
    fn dram_activity_aggregates_channels() {
        let mut dev = small_device(0);
        dev.shared_buffer_mut().write_vec(SbSlot(0), &[Bf16::ONE; 16]).unwrap();
        dev.run_trace(
            &[
                Instruction::WrGb {
                    chmask: ChannelMask(0b11),
                    opsize: 1,
                    gb_slot: 0,
                    rs: SbSlot(0),
                },
                Instruction::MacAbk {
                    chmask: ChannelMask(0b11),
                    opsize: 4,
                    row: RowAddr(0),
                    col: ColAddr(0),
                    reg: AccRegId::new(0),
                    operand: MacOperand::GlobalBuffer { slot: 0 },
                },
            ],
            None,
        )
        .unwrap();
        let act = dev.dram_activity();
        // 2 channels × 4 beats × 16 banks.
        assert_eq!(act.mac_beats, 2 * 4 * 16);
        assert_eq!(act.acts, 2 * 16);
    }

    #[test]
    fn ew_mul_through_isa() {
        let mut dev = small_device(0);
        for g in 0..4u16 {
            dev.preload_beat(
                ChannelId(0),
                BankId(4 * g),
                RowAddr(1),
                ColAddr(0),
                &[Bf16::from_f32(3.0); 16],
            )
            .unwrap();
            dev.preload_beat(
                ChannelId(0),
                BankId(4 * g + 1),
                RowAddr(1),
                ColAddr(0),
                &[Bf16::from_f32(2.0); 16],
            )
            .unwrap();
        }
        dev.run_trace(
            &[
                Instruction::EwMul {
                    chmask: ChannelMask(1),
                    opsize: 1,
                    row: RowAddr(1),
                    col: ColAddr(0),
                },
                Instruction::RdSbk {
                    ch: ChannelId(0),
                    opsize: 1,
                    bank: BankId(2),
                    row: RowAddr(1),
                    col: ColAddr(0),
                    rd: SbSlot(50),
                },
            ],
            None,
        )
        .unwrap();
        assert_eq!(dev.shared_buffer().read(SbSlot(50)).unwrap()[7].to_f32(), 6.0);
    }
}
