//! DRAM data layouts for CENT's PIM GEMV and KV caches.
//!
//! The paper's mapping (§5.4): "The matrix is partitioned along its rows and
//! distributed across all 16 banks. The vector is transferred to the Global
//! Buffer." This module pins down the exact placement:
//!
//! * A GEMV output group of 16 consecutive matrix rows lands in the 16 banks
//!   of one channel at one `(pass, reg)` coordinate, so `RD_MAC` streams
//!   results back to the Shared Buffer **in element order**;
//! * the input vector is tiled through the 2 KB Global Buffer in 64-beat
//!   (1024-element) tiles — one DRAM row per tile per matrix row;
//! * KV caches use a token-striped layout for keys (score GEMV) and a
//!   dimension-striped transposed layout for values (output GEMV), so both
//!   attention GEMVs hit the all-bank MAC path.

use cent_types::consts::{
    ACC_REGS_PER_PU, BANKS_PER_CHANNEL, COLS_PER_ROW, GLOBAL_BUFFER_SLOTS, LANES_PER_BEAT,
    ROWS_PER_BANK,
};
use cent_types::{BankId, CentError, CentResult, ChannelId, ChannelMask, ColAddr, RowAddr};

/// Elements of one GEMV input tile (one DRAM row: 64 beats × 16 lanes).
pub const TILE_ELEMS: usize = GLOBAL_BUFFER_SLOTS * LANES_PER_BEAT;

/// Outputs produced per channel per pass (16 banks × 32 accumulators).
pub const OUTPUTS_PER_PASS: usize = BANKS_PER_CHANNEL * ACC_REGS_PER_PU;

/// Placement of one matrix for all-bank GEMV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemvLayout {
    /// Ordered channels holding the matrix (position = shard index).
    pub channels: Vec<ChannelId>,
    /// First DRAM row used in every bank of every listed channel.
    pub base_row: RowAddr,
    /// Output dimension (matrix rows).
    pub m: usize,
    /// Input dimension (matrix columns).
    pub n: usize,
    /// Input tiles (`ceil(n / 1024)`).
    pub tiles: usize,
    /// MAC passes (`ceil(output groups / (32 · channels))`).
    pub passes: usize,
}

impl GemvLayout {
    /// Plans a layout for an `m × n` matrix across `channels`, starting at
    /// `base_row`.
    ///
    /// # Errors
    ///
    /// Fails if no channels are given or the matrix exceeds the row budget.
    pub fn plan(
        channels: Vec<ChannelId>,
        base_row: RowAddr,
        m: usize,
        n: usize,
    ) -> CentResult<Self> {
        if channels.is_empty() {
            return Err(CentError::mapping("GEMV layout needs at least one channel"));
        }
        if m == 0 || n == 0 {
            return Err(CentError::mapping(format!("degenerate GEMV {m}x{n}")));
        }
        let tiles = n.div_ceil(TILE_ELEMS);
        let groups = m.div_ceil(LANES_PER_BEAT);
        let group_cols = groups.div_ceil(channels.len());
        let passes = group_cols.div_ceil(ACC_REGS_PER_PU);
        let layout = GemvLayout { channels, base_row, m, n, tiles, passes };
        if layout.end_row().index() > ROWS_PER_BANK {
            return Err(CentError::OutOfMemory(format!(
                "GEMV {m}x{n} needs rows {}..{} per bank",
                base_row.index(),
                layout.end_row().index()
            )));
        }
        Ok(layout)
    }

    /// Channel mask covering all shards.
    pub fn chmask(&self) -> ChannelMask {
        self.channels.iter().copied().collect()
    }

    /// DRAM rows consumed per bank.
    pub fn rows_per_bank(&self) -> usize {
        self.passes * ACC_REGS_PER_PU * self.tiles
    }

    /// First row past the layout.
    pub fn end_row(&self) -> RowAddr {
        RowAddr(self.base_row.0 + self.rows_per_bank() as u32)
    }

    /// The DRAM row of `(pass, reg, tile)` — identical in all banks/channels.
    pub fn dram_row(&self, pass: usize, reg: usize, tile: usize) -> RowAddr {
        RowAddr(self.base_row.0 + ((pass * ACC_REGS_PER_PU + reg) * self.tiles + tile) as u32)
    }

    /// Beats in input tile `tile` (the final tile may be short).
    pub fn tile_beats(&self, tile: usize) -> usize {
        let total_beats = self.n.div_ceil(LANES_PER_BEAT);
        (total_beats - tile * GLOBAL_BUFFER_SLOTS).min(GLOBAL_BUFFER_SLOTS)
    }

    /// Where matrix element `(row, elem)` lives:
    /// `(channel, bank, dram_row, col, lane)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the matrix dimensions.
    pub fn element_location(
        &self,
        row: usize,
        elem: usize,
    ) -> (ChannelId, BankId, RowAddr, ColAddr, usize) {
        assert!(
            row < self.m && elem < self.n,
            "element ({row},{elem}) out of {}x{}",
            self.m,
            self.n
        );
        let group = row / LANES_PER_BEAT;
        let bank = BankId((row % LANES_PER_BEAT) as u16);
        let c = self.channels.len();
        let ci = group % c;
        let pr = group / c;
        let pass = pr / ACC_REGS_PER_PU;
        let reg = pr % ACC_REGS_PER_PU;
        let tile = elem / TILE_ELEMS;
        let within = elem % TILE_ELEMS;
        let col = ColAddr((within / LANES_PER_BEAT) as u32);
        let lane = within % LANES_PER_BEAT;
        (self.channels[ci], bank, self.dram_row(pass, reg, tile), col, lane)
    }

    /// Output groups per channel (`(pass, reg)` coordinates in use).
    pub fn total_pr(&self) -> usize {
        self.m.div_ceil(LANES_PER_BEAT).div_ceil(self.channels.len())
    }

    /// Registers used in `pass` (all passes are full except the last).
    pub fn regs_in_pass(&self, pass: usize) -> usize {
        self.total_pr().saturating_sub(pass * ACC_REGS_PER_PU).min(ACC_REGS_PER_PU)
    }

    /// The Shared Buffer slot offset (relative to the output region base)
    /// where the outputs of `(channel_pos, pass, reg)` land, such that the
    /// overall output vector is in element order.
    pub fn out_slot(&self, channel_pos: usize, pass: usize, reg: usize) -> usize {
        (pass * ACC_REGS_PER_PU + reg) * self.channels.len() + channel_pos
    }

    /// Total Shared Buffer slots the in-order output region occupies
    /// (≥ `ceil(m / 16)` due to channel padding).
    pub fn out_slots(&self) -> usize {
        self.total_pr() * self.channels.len()
    }
}

/// Per-channel KV-cache layout for one KV head (§5.4 attention mapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvLayout {
    /// The channel holding this head's cache.
    pub channel: ChannelId,
    /// First DRAM row of the key region.
    pub k_base: RowAddr,
    /// First DRAM row of the (transposed) value region.
    pub v_base: RowAddr,
    /// Dimension of one head.
    pub head_dim: usize,
    /// Maximum context supported by the allocation.
    pub max_context: usize,
}

impl KvLayout {
    /// Plans a KV region after `base_row`; returns the layout and the first
    /// free row after it.
    ///
    /// # Errors
    ///
    /// Fails if the context does not fit in the bank row budget.
    pub fn plan(
        channel: ChannelId,
        base_row: RowAddr,
        head_dim: usize,
        max_context: usize,
    ) -> CentResult<(Self, RowAddr)> {
        let k_rows = Self::key_rows(head_dim, max_context);
        let v_rows = Self::value_rows(head_dim, max_context);
        let end = base_row.0 as usize + k_rows + v_rows;
        if end > ROWS_PER_BANK {
            return Err(CentError::OutOfMemory(format!(
                "KV cache for ctx {max_context} needs rows up to {end}"
            )));
        }
        let layout = KvLayout {
            channel,
            k_base: base_row,
            v_base: RowAddr(base_row.0 + k_rows as u32),
            head_dim,
            max_context,
        };
        Ok((layout, RowAddr(end as u32)))
    }

    /// Key rows per bank: each bank holds `max_context / 16` key vectors of
    /// `head_dim` elements.
    pub fn key_rows(head_dim: usize, max_context: usize) -> usize {
        let per_bank = max_context.div_ceil(BANKS_PER_CHANNEL);
        (per_bank * head_dim).div_ceil(COLS_PER_ROW * LANES_PER_BEAT)
    }

    /// Value rows per bank: transposed layout, `head_dim / 16` dimension
    /// groups × `max_context` elements each.
    pub fn value_rows(head_dim: usize, max_context: usize) -> usize {
        let dim_groups = head_dim.div_ceil(LANES_PER_BEAT);
        dim_groups * max_context.div_ceil(COLS_PER_ROW * LANES_PER_BEAT)
    }

    /// Rows a value dimension-group occupies.
    pub fn rows_per_dim_group(&self) -> usize {
        self.max_context.div_ceil(COLS_PER_ROW * LANES_PER_BEAT)
    }

    /// Key location for token `t`: `(bank, dram_row, first_col)` — the
    /// `head_dim/16` beats of the key vector follow contiguously.
    ///
    /// Tokens stripe across banks (`t % 16`) so one `MAC_ABK` scores 16
    /// tokens at once.
    pub fn key_location(&self, t: usize) -> (BankId, RowAddr, ColAddr) {
        let bank = BankId((t % BANKS_PER_CHANNEL) as u16);
        let slot = t / BANKS_PER_CHANNEL; // key index within the bank
        let beats_per_key = self.head_dim / LANES_PER_BEAT;
        let keys_per_row = COLS_PER_ROW / beats_per_key;
        let row = RowAddr(self.k_base.0 + (slot / keys_per_row) as u32);
        let col = ColAddr(((slot % keys_per_row) * beats_per_key) as u32);
        (bank, row, col)
    }

    /// Value location for `(dim, token)` in the transposed layout:
    /// `(bank, dram_row, element_within_row)`.
    pub fn value_location(&self, dim: usize, t: usize) -> (BankId, RowAddr, usize) {
        let bank = BankId((dim % LANES_PER_BEAT) as u16);
        let dim_group = dim / LANES_PER_BEAT;
        let elems_per_row = COLS_PER_ROW * LANES_PER_BEAT;
        let row = RowAddr(
            self.v_base.0
                + (dim_group * self.rows_per_dim_group()) as u32
                + (t / elems_per_row) as u32,
        );
        (bank, row, t % elems_per_row)
    }
}

/// A bump allocator for DRAM rows within one channel set.
#[derive(Debug, Clone)]
pub struct RowAllocator {
    next: u32,
}

impl RowAllocator {
    /// Starts allocating at row 0.
    pub fn new() -> Self {
        RowAllocator { next: 0 }
    }

    /// Reserves `rows` rows, returning the base.
    ///
    /// # Errors
    ///
    /// Fails when the 16384-row bank budget is exhausted.
    pub fn alloc(&mut self, rows: usize) -> CentResult<RowAddr> {
        let base = self.next;
        let end = base as usize + rows;
        if end > ROWS_PER_BANK {
            return Err(CentError::OutOfMemory(format!(
                "row allocator exhausted: {end} > {ROWS_PER_BANK}"
            )));
        }
        self.next = end as u32;
        Ok(RowAddr(base))
    }

    /// Rows allocated so far.
    pub fn used(&self) -> usize {
        self.next as usize
    }
}

impl Default for RowAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chans(n: u16) -> Vec<ChannelId> {
        (0..n).map(ChannelId).collect()
    }

    #[test]
    fn llama70b_w1_layout_fits() {
        // 28672 × 8192 over 10 channels.
        let l = GemvLayout::plan(chans(10), RowAddr(0), 28672, 8192).unwrap();
        assert_eq!(l.tiles, 8);
        // 1792 groups / 10 channels = 180 per channel → 6 passes.
        assert_eq!(l.passes, 6);
        assert_eq!(l.rows_per_bank(), 6 * 32 * 8);
    }

    #[test]
    fn element_locations_are_unique_and_in_range() {
        let l = GemvLayout::plan(chans(2), RowAddr(10), 64, 2048).unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in 0..64 {
            for elem in (0..2048).step_by(97) {
                let loc = l.element_location(row, elem);
                assert!(seen.insert((loc.0, loc.1, loc.2, loc.3, loc.4)), "dup at ({row},{elem})");
                assert!(loc.2 >= RowAddr(10) && loc.2 < l.end_row());
            }
        }
    }

    #[test]
    fn out_slots_are_element_ordered() {
        let l = GemvLayout::plan(chans(2), RowAddr(0), 128, 1024).unwrap();
        // Output group g (16 outputs) must land at slot offset g.
        for row in (0..128).step_by(16) {
            let group = row / 16;
            let (ch, _, _, _, _) = l.element_location(row, 0);
            let ci = l.channels.iter().position(|c| *c == ch).unwrap();
            let pr = group / 2;
            let (pass, reg) = (pr / 32, pr % 32);
            assert_eq!(l.out_slot(ci, pass, reg), group);
        }
    }

    #[test]
    fn oversized_matrix_rejected() {
        // One channel, enormous m: passes × 32 × tiles rows must overflow.
        let err = GemvLayout::plan(chans(1), RowAddr(0), 3_000_000, 8192).unwrap_err();
        assert!(matches!(err, CentError::OutOfMemory(_)));
    }

    #[test]
    fn short_final_tile() {
        let l = GemvLayout::plan(chans(1), RowAddr(0), 16, 1100).unwrap();
        assert_eq!(l.tiles, 2);
        assert_eq!(l.tile_beats(0), 64);
        // 1100 - 1024 = 76 elements = 5 beats (ceil 76/16).
        assert_eq!(l.tile_beats(1), 5);
    }

    #[test]
    fn kv_key_striping() {
        let (kv, next) = KvLayout::plan(ChannelId(3), RowAddr(100), 128, 4096).unwrap();
        // Token 0 → bank 0, token 17 → bank 1 second key.
        let (b0, r0, c0) = kv.key_location(0);
        assert_eq!((b0, r0, c0), (BankId(0), RowAddr(100), ColAddr(0)));
        let (b17, r17, c17) = kv.key_location(17);
        assert_eq!(b17, BankId(1));
        assert_eq!(r17, RowAddr(100));
        assert_eq!(c17, ColAddr(8)); // second key of the bank: 8 beats in
                                     // 4096/16 = 256 keys per bank × 128 elems = 32 rows of keys.
        assert_eq!(kv.v_base, RowAddr(132));
        assert!(next > kv.v_base);
    }

    #[test]
    fn kv_value_transposition() {
        let (kv, _) = KvLayout::plan(ChannelId(0), RowAddr(0), 128, 2048).unwrap();
        // dim 5, token 9 → bank 5, first dim-group rows, element 9.
        let (b, r, e) = kv.value_location(5, 9);
        assert_eq!(b, BankId(5));
        assert_eq!(r, kv.v_base);
        assert_eq!(e, 9);
        // dim 21 (group 1) starts after rows_per_dim_group rows.
        let (b2, r2, _) = kv.value_location(21, 0);
        assert_eq!(b2, BankId(5));
        assert_eq!(r2.0, kv.v_base.0 + kv.rows_per_dim_group() as u32);
    }

    #[test]
    fn row_allocator_bumps_and_overflows() {
        let mut alloc = RowAllocator::new();
        assert_eq!(alloc.alloc(100).unwrap(), RowAddr(0));
        assert_eq!(alloc.alloc(50).unwrap(), RowAddr(100));
        assert_eq!(alloc.used(), 150);
        assert!(alloc.alloc(ROWS_PER_BANK).is_err());
    }
}
