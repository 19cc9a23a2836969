//! Instruction-trace builder: compiles LLM operations to CENT instructions.
//!
//! [`TraceBuilder::gemv_pass`] is the paper's Figure 11 compilation (vector
//! to Global Buffer, `WR_BIAS`/`MAC_ABK`/`RD_MAC` per matrix-row group), one
//! pass of 32 registers at a time, generalised to:
//!
//! * multi-channel sharding with element-ordered Shared Buffer output;
//! * input tiling through the 64-slot Global Buffer;
//! * *chunked accumulation* ([`TraceBuilder::gemv_accumulate`]) for inputs
//!   produced piecewise: partials drain through `RD_MAC` and accumulate in
//!   the Shared Buffer via the PNM `ACC` units;
//! * input sourced either from the Shared Buffer (`WR_GB`) or directly from
//!   DRAM scratch banks (`COPY_BKGB`), which is how normalised vectors and
//!   FFN products flow without occupying Shared Buffer space.

use cent_types::consts::{ACC_REGS_PER_PU, COLS_PER_ROW, GLOBAL_BUFFER_SLOTS, LANES_PER_BEAT};
use cent_types::{
    AccRegId, BankId, CentError, CentResult, ChannelId, ChannelMask, ColAddr, RowAddr, SbSlot,
};

use cent_isa::{riscv_pc, Instruction, MacOperand};

use crate::layout::{GemvLayout, TILE_ELEMS};

/// Which block phase an instruction belongs to (latency attribution for the
/// tensor-parallel composition and Figure 14c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockPhase {
    /// RMSNorm choreography (dot product, scale, element-wise multiply).
    Norm,
    /// Q/K/V projection GEMVs.
    FcQkv,
    /// Rotary-embedding products and combines.
    Rope,
    /// KV-cache appends.
    KvAppend,
    /// Attention scores, softmax and value accumulation.
    Attention,
    /// Output projection.
    FcWo,
    /// FFN matrices and gate products.
    FcFfn,
    /// Anything else (setup, communication).
    Other,
}

/// Where a GEMV input vector comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecSource {
    /// Contiguous Shared Buffer slots (loaded to the GB with `WR_GB`).
    Sb(SbSlot),
    /// DRAM scratch as produced by [`TraceBuilder::ew_mul_scratch`]: the
    /// vector is quartered across bank groups — quarter `g` lives in bank
    /// `4g+2` with `per_group` beats starting at `(row, col 0)`.
    ScratchQuartered {
        /// First DRAM row of every quarter.
        row: RowAddr,
        /// Beats per quarter (the stride returned by `ew_mul_scratch`).
        per_group: usize,
    },
}

/// A Shared Buffer bump allocator for one block trace.
#[derive(Debug, Clone)]
pub struct SbAllocator {
    next: usize,
    high_water: usize,
}

impl SbAllocator {
    /// Starts allocating at slot `base`.
    pub fn new(base: usize) -> Self {
        SbAllocator { next: base, high_water: base }
    }

    /// Reserves `n` slots.
    ///
    /// # Errors
    ///
    /// Fails when the 2048-slot Shared Buffer is exhausted.
    pub fn alloc(&mut self, n: usize) -> CentResult<SbSlot> {
        let base = self.next;
        if base + n > cent_types::consts::SHARED_BUFFER_SLOTS {
            return Err(CentError::OutOfMemory(format!(
                "shared buffer exhausted: {} + {n} slots",
                base
            )));
        }
        self.next += n;
        self.high_water = self.high_water.max(self.next);
        Ok(SbSlot(base as u16))
    }

    /// Releases everything allocated after `mark` (region stacking).
    pub fn reset_to(&mut self, mark: SbSlot) {
        self.next = mark.index();
    }

    /// Current allocation point (for `reset_to`).
    pub fn mark(&self) -> SbSlot {
        SbSlot(self.next as u16)
    }

    /// Peak slots ever allocated.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// Shared Buffer slots every trace reserves below its allocator: the zero
/// beat, the ones beat and the RMSNorm scale scalar.
pub(crate) const RESERVED_SLOTS: usize = 3;

/// Builds a CENT instruction trace.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: Vec<Instruction>,
    tags: Vec<BlockPhase>,
    phase: BlockPhase,
    /// Slot holding an all-zero beat (host-initialised).
    pub zero_slot: SbSlot,
    /// Slot holding an all-ones beat (host-initialised).
    pub ones_slot: SbSlot,
    /// Scratch slot for the RMSNorm scale scalar; fixed directly after the
    /// ones beat so `VEC_SCALE`'s "scalar at `rs + stride`" convention finds
    /// it when replicating (`rs = ones`, n = 16 → stride = 1 slot).
    pub scale_slot: SbSlot,
    /// Bump allocator for the rest of the buffer.
    pub sb: SbAllocator,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuilder {
    /// Creates a builder. Slots 0 and 1 are reserved for the zero/one
    /// constant beats, slot 2 for the RMSNorm scale.
    pub fn new() -> Self {
        TraceBuilder {
            trace: Vec::new(),
            tags: Vec::new(),
            phase: BlockPhase::Other,
            zero_slot: SbSlot(0),
            ones_slot: SbSlot(1),
            scale_slot: SbSlot(2),
            sb: SbAllocator::new(RESERVED_SLOTS),
        }
    }

    /// Appends a raw instruction, tagged with the current phase.
    #[inline]
    pub fn emit(&mut self, inst: Instruction) {
        self.trace.push(inst);
        self.tags.push(self.phase);
    }

    /// Sets the phase tag applied to subsequently emitted instructions.
    pub fn set_phase(&mut self, phase: BlockPhase) {
        self.phase = phase;
    }

    /// Per-instruction phase tags (parallel to [`Self::trace`]).
    pub fn tags(&self) -> &[BlockPhase] {
        &self.tags
    }

    /// Consumes the builder, returning `(trace, tags)`.
    pub fn finish_tagged(self) -> (Vec<Instruction>, Vec<BlockPhase>) {
        (self.trace, self.tags)
    }

    /// The instructions emitted so far.
    pub fn trace(&self) -> &[Instruction] {
        &self.trace
    }

    /// Consumes the builder, returning the trace.
    pub fn finish(self) -> Vec<Instruction> {
        self.trace
    }

    /// Loads beats `[beat, beat + beats)` of `source` into the Global
    /// Buffers of `chmask`, from GB slot 0. A quartered source is copied
    /// one quarter run at a time; `split_rows` also ends each run at a DRAM
    /// row end. A PIM channel carries a run past a row end into the next
    /// row, so both forms load the same beats with different instruction
    /// counts.
    fn load_gb(
        &mut self,
        chmask: ChannelMask,
        source: VecSource,
        mut beat: usize,
        beats: usize,
        split_rows: bool,
    ) {
        match source {
            VecSource::Sb(base) => self.emit(Instruction::WrGb {
                chmask,
                opsize: beats as u32,
                gb_slot: 0,
                rs: base.offset(beat as u16),
            }),
            VecSource::ScratchQuartered { row, per_group } => {
                // Quarters live in banks 4g+2, so a load that straddles a
                // quarter boundary is split per quarter run.
                let end = beat + beats;
                let mut gb = 0u8;
                while beat < end {
                    let quarter = beat / per_group;
                    let qbeat = beat % per_group;
                    let mut run = (end - beat).min(per_group - qbeat);
                    if split_rows {
                        run = run.min(COLS_PER_ROW - qbeat % COLS_PER_ROW);
                    }
                    self.emit(Instruction::CopyBkGb {
                        chmask,
                        opsize: run as u32,
                        bank: BankId((4 * quarter + 2) as u16),
                        row: RowAddr(row.0 + (qbeat / COLS_PER_ROW) as u32),
                        col: ColAddr((qbeat % COLS_PER_ROW) as u32),
                        gb_slot: gb,
                    });
                    gb += run as u8;
                    beat += run;
                }
            }
        }
    }

    /// Figure 11, one pass: streams `source` through the Global Buffer
    /// tile by tile into the registers of pass `pass` of `layout` (zeroed
    /// on the first tile), applies `af_id` if given, and drains the pass
    /// outputs in element order into `ring` (`32 · channels` slots: outputs
    /// `[pass · 512 · C, (pass+1) · 512 · C)`).
    ///
    /// Each pass has exclusive use of the registers because its `RD_MAC`
    /// completes before the next pass starts, so a matrix of any height
    /// streams through one ring pass by pass.
    pub fn gemv_pass(
        &mut self,
        layout: &GemvLayout,
        source: VecSource,
        pass: usize,
        af_id: Option<u8>,
        ring: SbSlot,
    ) {
        let chmask = layout.chmask();
        let regs = layout.regs_in_pass(pass);
        for tile in 0..layout.tiles {
            let beats = layout.tile_beats(tile);
            self.load_gb(chmask, source, tile * GLOBAL_BUFFER_SLOTS, beats, true);
            for reg in 0..regs {
                let reg_id = AccRegId::new(reg as u8);
                if tile == 0 {
                    self.emit(Instruction::WrBias { chmask, rs: self.zero_slot, reg: reg_id });
                }
                self.emit(Instruction::MacAbk {
                    chmask,
                    opsize: beats as u32,
                    row: layout.dram_row(pass, reg, tile),
                    col: ColAddr(0),
                    reg: reg_id,
                    operand: MacOperand::GlobalBuffer { slot: 0 },
                });
            }
        }
        self.drain_pass(layout, pass, af_id, ring);
    }

    /// Reads the registers of pass `pass` out to `dst` in element order,
    /// applying `af_id` to each first if given.
    fn drain_pass(&mut self, layout: &GemvLayout, pass: usize, af_id: Option<u8>, dst: SbSlot) {
        let chmask = layout.chmask();
        for reg in 0..layout.regs_in_pass(pass) {
            let reg_id = AccRegId::new(reg as u8);
            if let Some(af) = af_id {
                self.emit(Instruction::Af { chmask, af_id: af, reg: reg_id });
            }
            let rd = dst.offset((reg * layout.channels.len()) as u16);
            self.emit(Instruction::RdMac { chmask, rd, reg: reg_id });
        }
    }

    /// Chunk-accumulating GEMV: computes `out += M · v[chunk]` for one input
    /// chunk covering elements `[elem_base, elem_base + chunk_len)`.
    ///
    /// Used when the full input vector is produced piecewise (FFN product
    /// chunks, per-head attention outputs). Registers are zeroed at chunk
    /// start, partials drain via `RD_MAC` into `tmp` (one pass of
    /// `32 · channels` slots), then `ACC` folds them into `out`.
    pub fn gemv_accumulate(
        &mut self,
        layout: &GemvLayout,
        source: VecSource,
        elem_base: usize,
        chunk_len: usize,
        tmp: SbSlot,
        out: SbSlot,
    ) {
        let chmask = layout.chmask();
        debug_assert_eq!(elem_base % LANES_PER_BEAT, 0, "chunks are beat-aligned");
        let pass_slots = ACC_REGS_PER_PU * layout.channels.len();
        for pass in 0..layout.passes {
            let regs = layout.regs_in_pass(pass);
            // Zero the registers for this chunk/pass.
            for reg in 0..regs {
                self.emit(Instruction::WrBias {
                    chmask,
                    rs: self.zero_slot,
                    reg: AccRegId::new(reg as u8),
                });
            }
            // Stream the chunk in ≤64-beat sub-tiles, splitting at DRAM-row
            // (= 1024-element tile) boundaries of the matrix layout and at
            // quarter boundaries of quartered scratch sources.
            let mut elem = elem_base;
            let chunk_end = elem_base + chunk_len;
            while elem < chunk_end {
                let tile = elem / TILE_ELEMS;
                let within = elem % TILE_ELEMS;
                let mut run_elems = (chunk_end - elem)
                    .min(TILE_ELEMS - within)
                    .min(GLOBAL_BUFFER_SLOTS * LANES_PER_BEAT);
                if let VecSource::ScratchQuartered { per_group, .. } = source {
                    let quarter_elems = per_group * LANES_PER_BEAT;
                    let into_quarter = (elem - elem_base) % quarter_elems;
                    run_elems = run_elems.min(quarter_elems - into_quarter);
                }
                let beats = run_elems.div_ceil(LANES_PER_BEAT);
                let chunk_beat = (elem - elem_base) / LANES_PER_BEAT;
                self.load_gb(chmask, source, chunk_beat, beats, false);
                for reg in 0..regs {
                    self.emit(Instruction::MacAbk {
                        chmask,
                        opsize: beats as u32,
                        row: layout.dram_row(pass, reg, tile),
                        col: ColAddr((within / LANES_PER_BEAT) as u32),
                        reg: AccRegId::new(reg as u8),
                        operand: MacOperand::GlobalBuffer { slot: 0 },
                    });
                }
                elem += run_elems;
            }
            // Drain into the pass-local tmp region and fold into `out`.
            self.drain_pass(layout, pass, None, tmp);
            let drained = regs * layout.channels.len();
            self.emit(Instruction::Acc {
                opsize: drained as u32,
                rd: SbSlot((out.index() + pass * pass_slots) as u16),
                rs: tmp,
            });
        }
    }

    /// Self dot product `x · x` via neighbour-bank MAC (§5.4(b)): `x` is
    /// duplicated into both banks of the 8 bank pairs of `channel` at
    /// `scratch_row`, then one neighbour-mode `MAC_ABK` accumulates the 8
    /// partial dots into the even PUs; `RD_MAC` + `RED` produce the scalar
    /// at `out`.
    ///
    /// `x` is `beats` long at `x_slot`. Scratch rows consumed:
    /// `ceil(beats/8/64)`.
    pub fn dot_self(
        &mut self,
        channel: ChannelId,
        scratch_row: RowAddr,
        x_slot: SbSlot,
        beats: usize,
        partial_slot: SbSlot,
        out: SbSlot,
    ) {
        let per_pair = beats.div_ceil(8);
        for pair in 0..8u16 {
            let base = pair as usize * per_pair;
            if base >= beats {
                break;
            }
            let n = per_pair.min(beats - base);
            for bank in [BankId(2 * pair), BankId(2 * pair + 1)] {
                self.emit(Instruction::WrSbk {
                    ch: channel,
                    opsize: n as u32,
                    bank,
                    row: scratch_row,
                    col: ColAddr(0),
                    rs: x_slot.offset(base as u16),
                });
            }
        }
        let chmask = ChannelMask::single(channel);
        self.emit(Instruction::WrBias { chmask, rs: self.zero_slot, reg: AccRegId::new(0) });
        self.emit(Instruction::MacAbk {
            chmask,
            opsize: per_pair as u32,
            row: scratch_row,
            col: ColAddr(0),
            reg: AccRegId::new(0),
            operand: MacOperand::NeighbourBank,
        });
        self.emit(Instruction::RdMac { chmask, rd: partial_slot, reg: AccRegId::new(0) });
        // Sum the 8 partials (odd lanes are zero) into lane 0 of `out`.
        self.emit(Instruction::Red { opsize: 1, rd: out, rs: partial_slot });
    }

    /// Element-wise product of two vectors staged in DRAM scratch, leaving
    /// the result in the third bank of each group (replicated across
    /// `chmask` channels so it can feed `COPY_BKGB` GEMV tiles).
    ///
    /// `a` and `b` are `beats` long in the Shared Buffer. The vector is
    /// split in contiguous quarters across the four bank groups: quarter `g`
    /// goes to banks `4g` (a) and `4g+1` (b); the product lands in `4g+2`.
    /// Returns the per-quarter beat count (the scratch stride).
    pub fn ew_mul_scratch(
        &mut self,
        chmask: ChannelMask,
        scratch_row: RowAddr,
        a_slot: SbSlot,
        b_slot: SbSlot,
        beats: usize,
    ) -> usize {
        let per_group = beats.div_ceil(4);
        for ch in chmask.iter() {
            for g in 0..4u16 {
                let base = g as usize * per_group;
                if base >= beats {
                    break;
                }
                let n = per_group.min(beats - base);
                self.emit(Instruction::WrSbk {
                    ch,
                    opsize: n as u32,
                    bank: BankId(4 * g),
                    row: scratch_row,
                    col: ColAddr(0),
                    rs: a_slot.offset(base as u16),
                });
                self.emit(Instruction::WrSbk {
                    ch,
                    opsize: n as u32,
                    bank: BankId(4 * g + 1),
                    row: scratch_row,
                    col: ColAddr(0),
                    rs: b_slot.offset(base as u16),
                });
            }
        }
        self.emit(Instruction::EwMul {
            chmask,
            opsize: per_group as u32,
            row: scratch_row,
            col: ColAddr(0),
        });
        per_group
    }

    /// RMSNorm without the gain (which is folded into the following weight
    /// matrices at load time): computes `x · scale` where
    /// `scale = 1/sqrt(mean(x²)+eps)`, leaving the normalised vector in the
    /// scratch banks of every channel in `chmask` (bank `4g+2`, quartered),
    /// ready to feed GEMV tiles via `COPY_BKGB`.
    ///
    /// Returns the per-quarter stride in beats.
    ///
    /// Scratch usage: `dot_row` on the first channel; `scale_rows`/`ew_rows`
    /// on all channels.
    #[allow(clippy::too_many_arguments)]
    pub fn rmsnorm_to_scratch(
        &mut self,
        chmask: ChannelMask,
        dot_row: RowAddr,
        ew_row: RowAddr,
        x_slot: SbSlot,
        n_elems: usize,
        scratch: SbSlot,
    ) -> usize {
        let beats = n_elems.div_ceil(LANES_PER_BEAT);
        let first = chmask.iter().next().expect("non-empty mask");
        // 1. sum(x²) on the first channel.
        let partial = scratch;
        let sumsq = scratch.offset(1);
        self.dot_self(first, dot_row, x_slot, beats, partial, sumsq);
        // 2. scale = 1/sqrt(sum/n + eps) on a RISC-V core, written to the
        //    fixed scale slot (directly after the ones beat).
        self.emit(Instruction::Riscv {
            opsize: n_elems as u32,
            pc: riscv_pc::RMSNORM_SCALE,
            rd: self.scale_slot,
            rs: sumsq,
        });
        // 3. Replicate the scalar into a scale beat: ones ⊙ scale. With
        //    n = 16 the VEC_SCALE convention reads the scalar from
        //    `rs + 1 slot`, which is exactly the scale slot.
        let scale_vec = scratch.offset(2);
        self.emit(Instruction::Riscv {
            opsize: 16,
            pc: riscv_pc::VEC_SCALE,
            rd: scale_vec,
            rs: self.ones_slot,
        });
        // 4. Broadcast the scale beat through the GBs into bank 4g+1 of the
        //    scratch row, replicating it across the whole vector length.
        let per_group = beats.div_ceil(4);
        self.emit(Instruction::WrGb { chmask, opsize: 1, gb_slot: 0, rs: scale_vec });
        for g in 0..4u16 {
            let base = g as usize * per_group;
            if base >= beats {
                break;
            }
            let n = per_group.min(beats - base);
            for b in 0..n {
                // COPY_GBBK re-reads GB slot 0 for every beat by issuing
                // one-beat copies (the GB cursor walks otherwise).
                self.emit(Instruction::CopyGbBk {
                    chmask,
                    opsize: 1,
                    bank: BankId(4 * g + 1),
                    row: RowAddr(ew_row.0 + (b / COLS_PER_ROW) as u32),
                    col: ColAddr((b % COLS_PER_ROW) as u32),
                    gb_slot: 0,
                });
            }
        }
        // 5. x into bank 4g and multiply.
        for ch in chmask.iter() {
            for g in 0..4u16 {
                let base = g as usize * per_group;
                if base >= beats {
                    break;
                }
                let n = per_group.min(beats - base);
                self.emit(Instruction::WrSbk {
                    ch,
                    opsize: n as u32,
                    bank: BankId(4 * g),
                    row: ew_row,
                    col: ColAddr(0),
                    rs: x_slot.offset(base as u16),
                });
            }
        }
        self.emit(Instruction::EwMul {
            chmask,
            opsize: per_group as u32,
            row: ew_row,
            col: ColAddr(0),
        });
        per_group
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chans(n: u16) -> Vec<ChannelId> {
        (0..n).map(ChannelId).collect()
    }

    #[test]
    fn sb_allocator_stacks_and_resets() {
        let mut sb = SbAllocator::new(2);
        let a = sb.alloc(10).unwrap();
        assert_eq!(a, SbSlot(2));
        let mark = sb.mark();
        let b = sb.alloc(100).unwrap();
        assert_eq!(b, SbSlot(12));
        sb.reset_to(mark);
        let c = sb.alloc(5).unwrap();
        assert_eq!(c, SbSlot(12));
        assert_eq!(sb.high_water(), 112);
        assert!(sb.alloc(4096).is_err());
    }

    #[test]
    fn gemv_trace_matches_figure_11_structure() {
        // 32×64 on one channel: 1 pass, 1 tile, like the paper's listing.
        let layout = GemvLayout::plan(chans(1), RowAddr(0), 32, 64).unwrap();
        let mut b = TraceBuilder::new();
        let out = b.sb.alloc(layout.out_slots()).unwrap();
        b.gemv_pass(&layout, VecSource::Sb(SbSlot(100)), 0, None, out);
        let trace = b.finish();
        // WR_GB + one (WR_BIAS + MAC_ABK + RD_MAC) per used register:
        // a 32-row matrix = 2 output groups on one channel = 2 registers.
        let wr_gb = trace.iter().filter(|i| i.mnemonic() == "WR_GB").count();
        let bias = trace.iter().filter(|i| i.mnemonic() == "WR_BIAS").count();
        let mac = trace.iter().filter(|i| i.mnemonic() == "MAC_ABK").count();
        let rd = trace.iter().filter(|i| i.mnemonic() == "RD_MAC").count();
        assert_eq!((wr_gb, bias, mac, rd), (1, 2, 2, 2));
        // First instruction loads the vector, as in Figure 11 line 5.
        assert_eq!(trace[0].mnemonic(), "WR_GB");
    }

    #[test]
    fn gemv_tiles_large_inputs() {
        // n = 4096 → 4 tiles; vector reloaded per tile.
        let layout = GemvLayout::plan(chans(2), RowAddr(0), 64, 4096).unwrap();
        let mut b = TraceBuilder::new();
        let out = b.sb.alloc(layout.out_slots()).unwrap();
        b.gemv_pass(&layout, VecSource::Sb(SbSlot(200)), 0, None, out);
        let trace = b.finish();
        let wr_gb = trace.iter().filter(|i| i.mnemonic() == "WR_GB").count();
        assert_eq!(wr_gb, 4);
        // MAC opsize covers a full 64-beat tile.
        let first_mac = trace.iter().find(|i| i.mnemonic() == "MAC_ABK").unwrap();
        assert_eq!(first_mac.opsize(), 64);
    }

    #[test]
    fn gemv_af_applies_before_readout() {
        let layout = GemvLayout::plan(chans(1), RowAddr(0), 16, 64).unwrap();
        let mut b = TraceBuilder::new();
        let out = b.sb.alloc(layout.out_slots()).unwrap();
        b.gemv_pass(&layout, VecSource::Sb(SbSlot(50)), 0, Some(cent_isa::af_id::SILU), out);
        let trace = b.finish();
        let af_pos = trace.iter().position(|i| i.mnemonic() == "AF").unwrap();
        let rd_pos = trace.iter().position(|i| i.mnemonic() == "RD_MAC").unwrap();
        assert!(af_pos < rd_pos);
    }

    #[test]
    fn accumulating_gemv_zeroes_then_folds() {
        let layout = GemvLayout::plan(chans(1), RowAddr(0), 32, 2048).unwrap();
        let mut b = TraceBuilder::new();
        let tmp = b.sb.alloc(layout.out_slots()).unwrap();
        let out = b.sb.alloc(layout.out_slots()).unwrap();
        // Two chunks of 1024 elements.
        b.gemv_accumulate(&layout, VecSource::Sb(SbSlot(300)), 0, 1024, tmp, out);
        b.gemv_accumulate(&layout, VecSource::Sb(SbSlot(300)), 1024, 1024, tmp, out);
        let trace = b.finish();
        let acc = trace.iter().filter(|i| i.mnemonic() == "ACC").count();
        assert_eq!(acc, 2, "one fold per chunk per pass");
        // 32 rows = 2 registers, zeroed once per chunk.
        let bias = trace.iter().filter(|i| i.mnemonic() == "WR_BIAS").count();
        assert_eq!(bias, 4, "registers zeroed per chunk");
    }

    #[test]
    fn chunk_straddling_a_tile_boundary_splits_macs() {
        let layout = GemvLayout::plan(chans(1), RowAddr(0), 16, 2048).unwrap();
        let mut b = TraceBuilder::new();
        let tmp = b.sb.alloc(layout.out_slots()).unwrap();
        let out = b.sb.alloc(layout.out_slots()).unwrap();
        // Chunk elements [512, 1536): crosses the 1024-element row boundary.
        b.gemv_accumulate(&layout, VecSource::Sb(SbSlot(400)), 512, 1024, tmp, out);
        let trace = b.finish();
        let macs: Vec<_> = trace.iter().filter(|i| i.mnemonic() == "MAC_ABK").collect();
        // 1 register (16 rows) × 2 sub-runs either side of the boundary.
        assert_eq!(macs.len(), 2);
        // Second sub-run starts at column 0 of the next tile row.
        let loads = trace.iter().filter(|i| i.mnemonic() == "WR_GB").count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn dot_self_uses_neighbour_mode() {
        let mut b = TraceBuilder::new();
        let partial = b.sb.alloc(1).unwrap();
        let out = b.sb.alloc(1).unwrap();
        b.dot_self(ChannelId(0), RowAddr(500), SbSlot(10), 32, partial, out);
        let trace = b.finish();
        let mac = trace.iter().find(|i| i.mnemonic() == "MAC_ABK").unwrap();
        match mac {
            Instruction::MacAbk { operand, opsize, .. } => {
                assert_eq!(*operand, MacOperand::NeighbourBank);
                assert_eq!(*opsize, 4); // 32 beats / 8 pairs
            }
            _ => unreachable!(),
        }
        // 16 bank writes (8 pairs × 2 banks).
        let writes = trace.iter().filter(|i| i.mnemonic() == "WR_SBK").count();
        assert_eq!(writes, 16);
        assert_eq!(trace.last().unwrap().mnemonic(), "RED");
    }

    #[test]
    fn ew_mul_quarters_the_vector() {
        let mut b = TraceBuilder::new();
        let per_group =
            b.ew_mul_scratch(ChannelMask::range(0, 2), RowAddr(600), SbSlot(0), SbSlot(64), 128);
        assert_eq!(per_group, 32);
        let trace = b.finish();
        // 2 channels × 4 groups × 2 operands = 16 bank writes.
        assert_eq!(trace.iter().filter(|i| i.mnemonic() == "WR_SBK").count(), 16);
        assert_eq!(trace.iter().filter(|i| i.mnemonic() == "EW_MUL").count(), 1);
    }

    #[test]
    fn rmsnorm_emits_riscv_scale_and_ewmul() {
        let mut b = TraceBuilder::new();
        let scratch = b.sb.alloc(8).unwrap();
        b.rmsnorm_to_scratch(
            ChannelMask::range(0, 1),
            RowAddr(700),
            RowAddr(701),
            SbSlot(100),
            256,
            scratch,
        );
        let trace = b.finish();
        let riscv: Vec<u32> = trace
            .iter()
            .filter_map(|i| match i {
                Instruction::Riscv { pc, .. } => Some(*pc),
                _ => None,
            })
            .collect();
        assert!(riscv.contains(&riscv_pc::RMSNORM_SCALE));
        assert!(riscv.contains(&riscv_pc::VEC_SCALE));
        assert_eq!(trace.iter().filter(|i| i.mnemonic() == "EW_MUL").count(), 1);
    }
}
