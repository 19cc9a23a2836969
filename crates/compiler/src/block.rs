//! Compilation of one transformer block to a CENT trace (§5.4).
//!
//! A block is assigned a set of PIM channels within one device (or a
//! tensor-parallel shard of channels across devices). [`BlockPlacement`]
//! plans every DRAM region — weight matrices, per-head KV caches, rotary
//! tables, scratch rows — and [`compile_decode_step`] emits the full
//! instruction trace for one token:
//!
//! ```text
//! RMSNorm → Wq/Wk/Wv GEMVs → RoPE (PIM products + RISC-V combine)
//!   → KV append → per-head attention (streamed softmax) → Wo (+residual)
//!   → RMSNorm → gated FFN with SiLU in the accumulation registers
//!   → W2 (+residual)
//! ```
//!
//! Every vector larger than its ring drains through the Shared Buffer in
//! pass-sized chunks, so the same compiler handles the 64-wide test model
//! and GPT3-175B. RMSNorm gains and the `1/sqrt(head_dim)` attention scale
//! are folded into the weight matrices at load time (exact rewrites).

use cent_types::consts::{ACC_REGS_PER_PU, COLS_PER_ROW, LANES_PER_BEAT};
use cent_types::{BankId, CentError, CentResult, ChannelId, ChannelMask, ColAddr, RowAddr, SbSlot};

use cent_isa::{af_id, riscv_pc, Instruction};
use cent_model::{FfnKind, ModelConfig, PositionalKind};

use crate::builder::{BlockPhase, TraceBuilder, VecSource, RESERVED_SLOTS};
use crate::layout::{GemvLayout, KvLayout, RowAllocator, OUTPUTS_PER_PASS};

/// Maximum tokens scored per attention segment when no registers are
/// reserved for the value accumulation (32 registers × 16 banks). The
/// actual segment size subtracts `head_dim/16` registers, which hold the
/// running value-GEMV accumulation across segments.
pub const SEGMENT_TOKENS_MAX: usize = ACC_REGS_PER_PU * LANES_PER_BEAT;

/// Shared Buffer regions of one decode step on `channels` channels, in
/// allocation order after the reserved constant slots: the block input and
/// output `x`, 4 scratch slots, the GEMV pass ring, the drain region `tmp`,
/// one segment of scores and of `exp`, the raw head output and its softmax
/// scalar, the final head, RoPE's deinterleaved head and its two products,
/// the running softmax denominator and its sum, and the FFN up ring (gated
/// FFNs only).
///
/// Pure arithmetic, so channel planning can ask it cheaply;
/// [`compile_decode_step`] allocates exactly these regions.
fn sb_regions(cfg: &ModelConfig, channels: usize) -> [usize; 14] {
    let c = channels.max(1);
    let groups = |m: usize| m.div_ceil(LANES_PER_BEAT).div_ceil(c);
    // Slots one pass of an `m`-row matrix drains.
    let pass_slots = |m: usize| groups(m).min(ACC_REGS_PER_PU) * c;
    let h = cfg.hidden;
    let hd_beats = cfg.head_dim() / LANES_PER_BEAT;
    // Wo and W2 both output `h` elements.
    let x = (groups(h) * c).max(h.div_ceil(LANES_PER_BEAT));
    let ring = pass_slots(h).max(pass_slots(cfg.kv_dim())).max(pass_slots(cfg.ffn_hidden));
    let up_ring = if cfg.ffn == FfnKind::GatedSilu { ring } else { 0 };
    let seg = ACC_REGS_PER_PU;
    let rope = hd_beats.max(1);
    [x, 4, ring, pass_slots(h), seg, seg, hd_beats, 1, hd_beats, rope, 2 * rope, 1, 1, up_ring]
}

/// The Shared Buffer slots one decode step needs on `channels` channels:
/// exactly the high water of [`compile_decode_step`]'s allocations.
pub fn sb_demand(cfg: &ModelConfig, channels: usize) -> usize {
    RESERVED_SLOTS + sb_regions(cfg, channels).iter().sum::<usize>()
}

/// The largest channel count ≤ `desired` whose compiled block fits the
/// 2048-slot Shared Buffer. Wide tensor-parallel shards hit this limit:
/// more channels mean larger per-pass drain regions.
pub fn max_feasible_channels(cfg: &ModelConfig, desired: usize) -> usize {
    let budget = cent_types::consts::SHARED_BUFFER_SLOTS;
    for c in (1..=desired.max(1)).rev() {
        if sb_demand(cfg, c) <= budget {
            return c;
        }
    }
    1
}

/// Planned placement of one transformer block on a channel set.
#[derive(Debug, Clone)]
pub struct BlockPlacement {
    /// Model architecture.
    pub cfg: ModelConfig,
    /// The channels of this block.
    pub channels: Vec<ChannelId>,
    /// Query projection.
    pub wq: GemvLayout,
    /// Key projection.
    pub wk: GemvLayout,
    /// Value projection.
    pub wv: GemvLayout,
    /// Output projection.
    pub wo: GemvLayout,
    /// FFN gate (or first) matrix.
    pub w1: GemvLayout,
    /// FFN down matrix.
    pub w2: GemvLayout,
    /// FFN up matrix (gated FFNs only; zero-sized layout otherwise).
    pub w3: Option<GemvLayout>,
    /// Per-KV-head cache layout; head `h` lives on `channels[h % channels]`.
    pub kv: Vec<KvLayout>,
    /// First row of the rotary cos/sin tables (replicated on all channels).
    pub rope_table: RowAddr,
    /// Scratch row for the RMSNorm self dot product.
    pub dot_row: RowAddr,
    /// Scratch rows for RMSNorm element-wise scaling (normed vector lives
    /// here, quartered, between phases).
    pub norm_row: RowAddr,
    /// Scratch rows for the FFN gate⊙up product chunks.
    pub ffn_row: RowAddr,
    /// First row past every region of the block.
    pub end_row: RowAddr,
}

impl BlockPlacement {
    /// Plans a block over `channels` (all within one device).
    ///
    /// # Errors
    ///
    /// Fails if the weights, KV caches and scratch regions exceed the
    /// per-bank row budget, or the channel set is empty.
    pub fn plan(cfg: &ModelConfig, channels: Vec<ChannelId>) -> CentResult<Self> {
        Self::plan_from(cfg, channels, RowAddr(0))
    }

    /// Plans a block over `channels` from row `first_row` of every bank on,
    /// so that blocks which take turns on the same channels keep their
    /// regions apart.
    ///
    /// # Errors
    ///
    /// As [`BlockPlacement::plan`].
    pub fn plan_from(
        cfg: &ModelConfig,
        channels: Vec<ChannelId>,
        first_row: RowAddr,
    ) -> CentResult<Self> {
        if channels.is_empty() {
            return Err(CentError::mapping("block placement needs channels"));
        }
        let h = cfg.hidden;
        let kv_dim = cfg.kv_dim();
        let mut rows = RowAllocator::new();
        rows.skip_to(first_row)?;
        let mut plan_m = |m: usize, n: usize| -> CentResult<GemvLayout> {
            let mut layout = GemvLayout::plan(channels.clone(), RowAddr(0), m, n)?;
            layout.base_row = rows.alloc(layout.rows_per_bank())?;
            Ok(layout)
        };
        let wq = plan_m(h, h)?;
        let wk = plan_m(kv_dim, h)?;
        let wv = plan_m(kv_dim, h)?;
        let wo = plan_m(h, h)?;
        let w1 = plan_m(cfg.ffn_hidden, h)?;
        let w2 = plan_m(h, cfg.ffn_hidden)?;
        let w3 = match cfg.ffn {
            FfnKind::GatedSilu => Some(plan_m(cfg.ffn_hidden, h)?),
            FfnKind::Gelu => None,
        };
        // KV caches: one layout per KV head, round-robin across channels;
        // the `k`-th head of a channel sits `k` head spans past the base.
        let span = KvLayout::key_rows(cfg.head_dim(), cfg.max_context)
            + KvLayout::value_rows(cfg.head_dim(), cfg.max_context);
        let mut kv = Vec::with_capacity(cfg.kv_heads);
        let kv_base = rows.mark_addr();
        let mut kv_end = kv_base;
        for head in 0..cfg.kv_heads {
            let channel = channels[head % channels.len()];
            let base = RowAddr(kv_base.0 + (head / channels.len() * span) as u32);
            let (layout, next) = KvLayout::plan(channel, base, cfg.head_dim(), cfg.max_context)?;
            kv.push(layout);
            kv_end = RowAddr(kv_end.0.max(next.0));
        }
        rows.skip_to(kv_end)?;
        // Rotary tables: ctx positions × 2 layouts × head_dim elements.
        let hd = cfg.head_dim();
        let positions_per_row = (COLS_PER_ROW * LANES_PER_BEAT) / hd;
        let rope_rows = if cfg.positional == PositionalKind::Rotary {
            cfg.max_context.div_ceil(positions_per_row)
        } else {
            0
        };
        let rope_table = rows.alloc(rope_rows.max(1))?;
        let dot_row = rows.alloc(h.div_ceil(LANES_PER_BEAT * 8).div_ceil(COLS_PER_ROW).max(1))?;
        let norm_rows = h.div_ceil(LANES_PER_BEAT * 4).div_ceil(COLS_PER_ROW).max(1);
        let norm_row = rows.alloc(norm_rows)?;
        let chunk = ACC_REGS_PER_PU * LANES_PER_BEAT * channels.len();
        let ffn_rows = chunk.div_ceil(LANES_PER_BEAT * 4).div_ceil(COLS_PER_ROW).max(1);
        let ffn_row = rows.alloc(ffn_rows)?;
        Ok(BlockPlacement {
            cfg: cfg.clone(),
            channels,
            wq,
            wk,
            wv,
            wo,
            w1,
            w2,
            w3,
            kv,
            rope_table,
            dot_row,
            norm_row,
            ffn_row,
            end_row: rows.mark_addr(),
        })
    }

    /// Mask over this block's channels.
    pub fn chmask(&self) -> ChannelMask {
        self.channels.iter().copied().collect()
    }

    /// Rotary table location for `position`: `(row, col)` of the
    /// `head_dim`-element `[cos|sin]` run (bank `4g+1`) and `[sin|cos]` run
    /// (bank `4g+5` — i.e. bank 5).
    pub fn rope_entry(&self, position: usize) -> (RowAddr, ColAddr) {
        let hd = self.cfg.head_dim();
        let per_row = (COLS_PER_ROW * LANES_PER_BEAT) / hd;
        let row = RowAddr(self.rope_table.0 + (position / per_row) as u32);
        let col = ColAddr(((position % per_row) * (hd / LANES_PER_BEAT)) as u32);
        (row, col)
    }
}

impl RowAllocator {
    /// Current allocation point as a row address.
    pub fn mark_addr(&self) -> RowAddr {
        RowAddr(self.used() as u32)
    }

    /// Advances the allocator past externally planned rows.
    ///
    /// # Errors
    ///
    /// Fails if `row` exceeds the bank budget.
    pub fn skip_to(&mut self, row: RowAddr) -> CentResult<()> {
        if row.index() < self.used() {
            return Ok(());
        }
        let delta = row.index() - self.used();
        self.alloc(delta).map(|_| ())
    }
}

/// The compiled trace for one token step of one block, plus its Shared
/// Buffer interface.
#[derive(Debug, Clone)]
pub struct BlockStep {
    /// The instruction trace.
    pub trace: Vec<Instruction>,
    /// Per-instruction phase tags (parallel to `trace`).
    pub tags: Vec<BlockPhase>,
    /// Slot of the block input/output region (`x` in, `x + attn + ffn` out).
    pub x_slot: SbSlot,
    /// Beats of the embedding vector.
    pub x_beats: usize,
    /// Peak Shared Buffer slots used.
    pub sb_high_water: usize,
}

/// Compiles one decode step: the block consumes the embedding at `x_slot`
/// (written by the host or a `RECV_CXL`) at `position` (0-based; the KV
/// cache already holds `position` earlier tokens) and leaves the block
/// output in the same region.
///
/// # Errors
///
/// Fails if the Shared Buffer budget is exceeded (model/channel combination
/// too large) or the position exceeds the planned context.
pub fn compile_decode_step(p: &BlockPlacement, position: usize) -> CentResult<BlockStep> {
    let cfg = &p.cfg;
    if position >= cfg.max_context {
        return Err(CentError::mapping(format!(
            "position {position} exceeds planned context {}",
            cfg.max_context
        )));
    }
    let h = cfg.hidden;
    let hd = cfg.head_dim();
    let hd_beats = hd / LANES_PER_BEAT;
    let x_beats = h.div_ceil(LANES_PER_BEAT);
    let chmask = p.chmask();
    let c = p.channels.len();

    let mut b = TraceBuilder::new();
    let mut slots = [SbSlot(0); 14];
    for (slot, n) in slots.iter_mut().zip(sb_regions(cfg, c)) {
        *slot = b.sb.alloc(n)?;
    }
    #[rustfmt::skip]
    let [
        x_slot, scratch, ring, tmp, score_slot, exp_slot, head_raw, head_scalar, head_final,
        rope_ab, rope_prod, denom, denom_sum, up_ring,
    ] = slots;
    // VEC_SCALE reads the softmax scalar right after the head.
    debug_assert_eq!(head_scalar.index(), head_raw.index() + hd_beats);

    // ---- Phase 1: RMSNorm(x) into the norm scratch banks. -----------------
    b.set_phase(BlockPhase::Norm);
    let norm_stride = b.rmsnorm_to_scratch(chmask, p.dot_row, p.norm_row, x_slot, h, scratch);
    let normed = VecSource::ScratchQuartered { row: p.norm_row, per_group: norm_stride };

    // ---- Phase 2: K projection, RoPE, cache append. ------------------------
    // Each pass of a K, V or Q projection drains whole heads into the ring.
    let heads_per_pass = (OUTPUTS_PER_PASS * c) / hd;
    let rope_on = cfg.positional == PositionalKind::Rotary;
    let rope_entry = p.rope_entry(position);
    for pass in 0..p.wk.passes {
        b.set_phase(BlockPhase::FcQkv);
        b.gemv_pass(&p.wk, normed, pass, None, ring);
        for (i, head) in (pass * heads_per_pass..cfg.kv_heads).take(heads_per_pass).enumerate() {
            let head_slot = SbSlot((ring.index() + i * hd_beats) as u16);
            if rope_on {
                b.set_phase(BlockPhase::Rope);
                emit_rope(&mut b, p, rope_entry, head_slot, rope_ab, rope_prod, hd);
            }
            // Append to the key cache: one contiguous bank write.
            b.set_phase(BlockPhase::KvAppend);
            let kv = &p.kv[head];
            let (bank, row, col) = kv.key_location(position);
            b.emit(Instruction::WrSbk {
                ch: kv.channel,
                opsize: hd_beats as u32,
                bank,
                row,
                col,
                rs: head_slot,
            });
        }
    }

    // ---- Phase 3: V projection, transposed cache append. -------------------
    for pass in 0..p.wv.passes {
        b.set_phase(BlockPhase::FcQkv);
        b.gemv_pass(&p.wv, normed, pass, None, ring);
        b.set_phase(BlockPhase::KvAppend);
        for (i, head) in (pass * heads_per_pass..cfg.kv_heads).take(heads_per_pass).enumerate() {
            let kv = &p.kv[head];
            for dg in 0..hd_beats {
                let (_, row, elem) = kv.value_location(dg * LANES_PER_BEAT, position);
                b.emit(Instruction::WrAbk {
                    ch: kv.channel,
                    row,
                    elem: elem as u32,
                    rs: SbSlot((ring.index() + i * hd_beats + dg) as u16),
                });
            }
        }
    }

    // ---- Phase 4: Q projection + attention + output projection. ------------
    let ctx = position + 1;
    let group = cfg.heads / cfg.kv_heads;
    for pass in 0..p.wq.passes {
        b.set_phase(BlockPhase::FcQkv);
        b.gemv_pass(&p.wq, normed, pass, None, ring);
        for (i, head) in (pass * heads_per_pass..cfg.heads).take(heads_per_pass).enumerate() {
            let q_slot = SbSlot((ring.index() + i * hd_beats) as u16);
            if rope_on {
                b.set_phase(BlockPhase::Rope);
                emit_rope(&mut b, p, rope_entry, q_slot, rope_ab, rope_prod, hd);
            }
            b.set_phase(BlockPhase::Attention);
            emit_attention_head(
                &mut b,
                &p.kv[head / group],
                q_slot,
                ctx,
                hd_beats,
                score_slot,
                exp_slot,
                head_raw,
                head_scalar,
                denom,
                denom_sum,
            );
            // Scale by 1/Σexp into the final head vector.
            b.emit(Instruction::Riscv {
                opsize: hd as u32,
                pc: riscv_pc::VEC_SCALE,
                rd: head_final,
                rs: head_raw,
            });
            // Fold this head into x via the output projection.
            b.set_phase(BlockPhase::FcWo);
            b.gemv_accumulate(&p.wo, VecSource::Sb(head_final), head * hd, hd, tmp, x_slot);
        }
    }

    // ---- Phase 5: RMSNorm(x1) and the FFN. ---------------------------------
    b.set_phase(BlockPhase::Norm);
    let norm_stride2 = b.rmsnorm_to_scratch(chmask, p.dot_row, p.norm_row, x_slot, h, scratch);
    let normed2 = VecSource::ScratchQuartered { row: p.norm_row, per_group: norm_stride2 };
    let af = match cfg.ffn {
        FfnKind::GatedSilu => af_id::SILU,
        FfnKind::Gelu => af_id::GELU,
    };
    // W1 (with its activation in the registers) streams pass by pass; each
    // output chunk folds into x through W2. A gated FFN first multiplies
    // the chunk by the matching W3 pass in the scratch banks.
    b.set_phase(BlockPhase::FcFfn);
    let chunk = OUTPUTS_PER_PASS * c;
    for pass in 0..p.w1.passes {
        b.gemv_pass(&p.w1, normed2, pass, Some(af), ring);
        let chunk_base = pass * chunk;
        let chunk_len = chunk.min(cfg.ffn_hidden - chunk_base);
        let source = match &p.w3 {
            Some(w3) => {
                b.gemv_pass(w3, normed2, pass, None, up_ring);
                let beats = chunk_len.div_ceil(LANES_PER_BEAT);
                let per_group = b.ew_mul_scratch(chmask, p.ffn_row, ring, up_ring, beats);
                VecSource::ScratchQuartered { row: p.ffn_row, per_group }
            }
            None => VecSource::Sb(ring),
        };
        b.gemv_accumulate(&p.w2, source, chunk_base, chunk_len, tmp, x_slot);
    }

    let sb_high_water = b.sb.high_water();
    let (trace, tags) = b.finish_tagged();
    Ok(BlockStep { trace, tags, x_slot, x_beats, sb_high_water })
}

/// Emits RoPE for one head in place: deinterleave on a RISC-V core, two
/// element-wise product layouts in the PIM banks (groups 0 and 1 compute
/// `[a·cos | b·sin]` and `[a·sin | b·cos]` in one `EW_MUL`), then the
/// RISC-V combine writes the rotated head back.
fn emit_rope(
    b: &mut TraceBuilder,
    p: &BlockPlacement,
    entry: (RowAddr, ColAddr),
    head_slot: SbSlot,
    rope_ab: SbSlot,
    rope_prod: SbSlot,
    hd: usize,
) {
    let hd_beats = hd / LANES_PER_BEAT;
    let channel = p.channels[0];
    let (row, col) = entry;
    b.emit(Instruction::Riscv {
        opsize: (hd / 2) as u32,
        pc: riscv_pc::DEINTERLEAVE,
        rd: rope_ab,
        rs: head_slot,
    });
    for bank in [BankId(0), BankId(4)] {
        b.emit(Instruction::WrSbk {
            ch: channel,
            opsize: hd_beats as u32,
            bank,
            row,
            col,
            rs: rope_ab,
        });
    }
    b.emit(Instruction::EwMul {
        chmask: ChannelMask::single(channel),
        opsize: hd_beats as u32,
        row,
        col,
    });
    b.emit(Instruction::RdSbk {
        ch: channel,
        opsize: hd_beats as u32,
        bank: BankId(2),
        row,
        col,
        rd: rope_prod,
    });
    b.emit(Instruction::RdSbk {
        ch: channel,
        opsize: hd_beats as u32,
        bank: BankId(6),
        row,
        col,
        rd: SbSlot((rope_prod.index() + hd_beats) as u16),
    });
    b.emit(Instruction::Riscv {
        opsize: (hd / 2) as u32,
        pc: riscv_pc::ROPE_COMBINE,
        rd: head_slot,
        rs: rope_prod,
    });
}

/// Emits attention for one query head over `ctx` cached tokens with a
/// streamed softmax: scores and `exp` are produced in 512-token segments,
/// each segment immediately feeds the value GEMV (accumulating in the
/// registers) while the denominator accumulates in the Shared Buffer; the
/// normalisation happens once at the end.
#[allow(clippy::too_many_arguments)]
fn emit_attention_head(
    b: &mut TraceBuilder,
    kv: &KvLayout,
    q_slot: SbSlot,
    ctx: usize,
    hd_beats: usize,
    score_slot: SbSlot,
    exp_slot: SbSlot,
    head_raw: SbSlot,
    head_scalar: SbSlot,
    denom: SbSlot,
    denom_sum: SbSlot,
) {
    use cent_isa::MacOperand;
    use cent_types::AccRegId;
    let chmask = ChannelMask::single(kv.channel);
    // Registers 0..seg_groups score tokens; the top hd_beats registers hold
    // the value-GEMV accumulation across segments.
    let seg_groups = ACC_REGS_PER_PU - hd_beats;
    let seg_tokens_max = seg_groups * LANES_PER_BEAT;
    let v_reg0 = seg_groups;
    // Query to the Global Buffer (slots 0..hd_beats).
    b.emit(Instruction::WrGb { chmask, opsize: hd_beats as u32, gb_slot: 0, rs: q_slot });
    // Reset the running denominator: RED of the zero beat writes a zero beat.
    b.emit(Instruction::Red { opsize: 1, rd: denom, rs: b.zero_slot });
    let segments = ctx.div_ceil(seg_tokens_max);
    let v_rows_per_dim = kv.rows_per_dim_group();
    for seg in 0..segments {
        let seg_base = seg * seg_tokens_max;
        let seg_tokens = seg_tokens_max.min(ctx.saturating_sub(seg_base));
        let groups = seg_tokens.div_ceil(LANES_PER_BEAT);
        // Scores: one MAC_ABK per 16-token group.
        for g in 0..groups {
            let token = seg_base + g * LANES_PER_BEAT;
            let (_, row, col) = kv.key_location(token);
            let reg = AccRegId::new(g as u8);
            b.emit(Instruction::WrBias { chmask, rs: b.zero_slot, reg });
            b.emit(Instruction::MacAbk {
                chmask,
                opsize: hd_beats as u32,
                row,
                col,
                reg,
                operand: MacOperand::GlobalBuffer { slot: 0 },
            });
        }
        for g in 0..groups {
            b.emit(Instruction::RdMac {
                chmask,
                rd: SbSlot((score_slot.index() + g) as u16),
                reg: AccRegId::new(g as u8),
            });
        }
        // exp() on the PNM exponent units.
        b.emit(Instruction::Exp { opsize: groups as u32, rd: exp_slot, rs: score_slot });
        // Clear the padded lanes of the final group: their keys are zero, so
        // exp(0)=1 would pollute the softmax denominator.
        let last_token = (seg_base + groups * LANES_PER_BEAT).min(seg_base + seg_tokens_max);
        if last_token > ctx {
            let valid = LANES_PER_BEAT - (last_token - ctx);
            b.emit(Instruction::Riscv {
                opsize: valid as u32,
                pc: riscv_pc::ZERO_TAIL,
                rd: SbSlot((exp_slot.index() + groups - 1) as u16),
                rs: exp_slot,
            });
        }
        // The exp segment feeds the value GEMV via the GB (after the query).
        b.emit(Instruction::WrGb {
            chmask,
            opsize: groups as u32,
            gb_slot: hd_beats as u8,
            rs: exp_slot,
        });
        let seg_beat = seg_base / LANES_PER_BEAT;
        for dg in 0..hd_beats {
            let reg = AccRegId::new((v_reg0 + dg) as u8);
            if seg == 0 {
                b.emit(Instruction::WrBias { chmask, rs: b.zero_slot, reg });
            }
            b.emit(Instruction::MacAbk {
                chmask,
                opsize: groups as u32,
                row: RowAddr(
                    kv.v_base.0 + (dg * v_rows_per_dim) as u32 + (seg_beat / COLS_PER_ROW) as u32,
                ),
                col: ColAddr((seg_beat % COLS_PER_ROW) as u32),
                reg,
                operand: MacOperand::GlobalBuffer { slot: hd_beats as u8 },
            });
        }
        // Fold the segment into the running denominator: pairwise tree.
        let mut len = groups;
        while len > 1 {
            let half = len / 2;
            let top = len - half;
            b.emit(Instruction::Acc {
                opsize: half as u32,
                rd: exp_slot,
                rs: SbSlot((exp_slot.index() + top) as u16),
            });
            len = top;
        }
        b.emit(Instruction::Acc { opsize: 1, rd: denom, rs: exp_slot });
    }
    // Denominator: reduce lanes and invert (pad lanes were cleared above).
    b.emit(Instruction::Red { opsize: 1, rd: denom_sum, rs: denom });
    // Head output: read the value accumulation, then 1/Σ.
    for dg in 0..hd_beats {
        b.emit(Instruction::RdMac {
            chmask,
            rd: SbSlot((head_raw.index() + dg) as u16),
            reg: AccRegId::new((v_reg0 + dg) as u8),
        });
    }
    b.emit(Instruction::Riscv { opsize: 1, pc: riscv_pc::RECIP, rd: head_scalar, rs: denom_sum });
}
