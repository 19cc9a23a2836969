//! Functional + timing model of one GDDR6-PIM channel with near-bank PUs.
//!
//! The channel (Figure 7a of the paper) contains 16 banks of 32 MB, each
//! paired with a PU holding a 16-lane BF16 MAC reduction tree and 32
//! accumulation registers, plus a 2 KB Global Buffer that can broadcast a
//! 256-bit beat to all PUs in one cycle.
//!
//! Every operation both *computes* (when the channel is in functional mode)
//! and *advances the DRAM timing model* with the command sequence the PIM
//! controller would generate, so one code path produces verified values and
//! cycle counts. Multi-beat operations walk their beats one row segment at a
//! time: each segment is one address check, one row switch (`PREab`/`ACTab`
//! when the row changes) and one [`PimChannelTiming::issue_burst`], which
//! times the segment's column beats in closed form yet exactly as if each
//! were issued on its own. Functional and timing-only channels share that
//! timing path; a functional channel additionally loops over the segment's
//! beats to move data, and only it touches the PU accumulators.

use std::collections::BTreeMap;

use cent_dram::{ActivityCounters, DramCommand, PimChannelTiming};
use cent_types::consts::{BANKS_PER_CHANNEL, COLS_PER_ROW, LANES_PER_BEAT, ROWS_PER_BANK};
use cent_types::{AccRegId, BankId, Bf16, CentError, CentResult, ColAddr, RowAddr, Time};

use crate::af::{ActivationFunction, AfLut};

pub use cent_types::{Beat, ZERO_BEAT};

/// Source of the second MAC operand (Figure 7a: "16-bit data from either the
/// Global Buffer or its neighboring bank").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacSource {
    /// Broadcast from the Global Buffer (GEMV mode).
    GlobalBuffer {
        /// First Global Buffer slot; micro-op expansion walks subsequent slots.
        slot: usize,
    },
    /// The neighbouring bank's beat (vector dot-product mode; only the even
    /// PUs produce results).
    NeighbourBank,
}

/// BF16 elements per DRAM row (2 KB / 2 B).
const ELEMS_PER_ROW: usize = COLS_PER_ROW * LANES_PER_BEAT;

/// A run of consecutive beats of a stream that fall inside one DRAM row.
#[derive(Debug, Clone, Copy)]
struct RowSegment {
    row: RowAddr,
    col: ColAddr,
    /// Position of the segment's first beat within the whole stream.
    first: usize,
    len: usize,
}

impl RowSegment {
    /// `(stream position, column)` of every beat in the segment.
    fn beats(self) -> impl Iterator<Item = (usize, ColAddr)> {
        (0..self.len).map(move |j| (self.first + j, self.col.offset(j as u32)))
    }
}

/// Splits a stream of `n` beats starting at (`row`, `col`) into per-row
/// segments. A stream that runs off the end of a row continues at column 0
/// of the next row, and so does one whose start column is at or past the
/// row end.
fn row_segments(row: RowAddr, col: ColAddr, n: usize) -> impl Iterator<Item = RowSegment> {
    let mut row = row;
    let mut col = col.index();
    let mut first = 0;
    std::iter::from_fn(move || {
        if first == n {
            return None;
        }
        if col >= COLS_PER_ROW {
            row = row.next();
            col = 0;
        }
        let len = (COLS_PER_ROW - col).min(n - first);
        let seg = RowSegment { row, col: ColAddr(col as u32), first, len };
        first += len;
        col += len;
        Some(seg)
    })
}

/// Functional storage for one bank: rows are allocated lazily since model
/// weights only touch a fraction of the 32 MB in small tests.
#[derive(Debug, Clone, Default)]
struct BankStorage {
    // Row-ordered: lazily allocated, and any future sweep (dump, checksum)
    // must see rows in address order, not hasher order.
    rows: BTreeMap<u32, Box<[Bf16]>>,
}

impl BankStorage {
    fn row_mut(&mut self, row: RowAddr) -> &mut [Bf16] {
        self.rows.entry(row.0).or_insert_with(|| vec![Bf16::ZERO; ELEMS_PER_ROW].into_boxed_slice())
    }

    fn read_beat(&self, row: RowAddr, col: ColAddr) -> Beat {
        let mut beat = ZERO_BEAT;
        if let Some(r) = self.rows.get(&row.0) {
            let base = col.index() * LANES_PER_BEAT;
            beat.copy_from_slice(&r[base..base + LANES_PER_BEAT]);
        }
        beat
    }

    fn write_beat(&mut self, row: RowAddr, col: ColAddr, beat: &Beat) {
        let base = col.index() * LANES_PER_BEAT;
        self.row_mut(row)[base..base + LANES_PER_BEAT].copy_from_slice(beat);
    }

    fn write_element(&mut self, row: RowAddr, elem: usize, value: Bf16) {
        self.row_mut(row)[elem] = value;
    }
}

/// State of one near-bank PU.
#[derive(Debug, Clone)]
struct PuState {
    /// Accumulation registers; the hardware accumulates wider than BF16 and
    /// rounds on read-out, modelled as f32.
    acc: [f32; 32],
}

impl Default for PuState {
    fn default() -> Self {
        PuState { acc: [0.0; 32] }
    }
}

/// One GDDR6-PIM channel: 16 banks + 16 PUs + Global Buffer + timing model.
///
/// # Examples
///
/// A 16×16 GEMV tile computed entirely in the channel:
///
/// ```
/// use cent_pim::{MacSource, PimChannel, ZERO_BEAT};
/// use cent_types::{AccRegId, BankId, Bf16, ColAddr, RowAddr};
///
/// # fn main() -> Result<(), cent_types::CentError> {
/// let mut ch = PimChannel::functional();
/// // Matrix row p lives in bank p; vector lives in the Global Buffer.
/// for bank in 0..16 {
///     let mut beat = ZERO_BEAT;
///     for lane in 0..16 {
///         beat[lane] = Bf16::from_f32(if lane == bank { 2.0 } else { 0.0 });
///     }
///     ch.write_beat(BankId(bank as u16), RowAddr(0), ColAddr(0), &beat)?;
/// }
/// let vector: Vec<Bf16> = (0..16).map(|i| Bf16::from_f32(i as f32)).collect();
/// ch.write_gb(0, &vector.clone().try_into().unwrap());
/// ch.write_bias(AccRegId::new(0), &ZERO_BEAT);
/// ch.mac_abk(RowAddr(0), ColAddr(0), 1, AccRegId::new(0), MacSource::GlobalBuffer { slot: 0 })?;
/// let (result, _t) = ch.read_mac(AccRegId::new(0));
/// // Row p of the (2·identity) matrix dotted with [0..16) = 2p.
/// assert_eq!(result[5].to_f32(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PimChannel {
    functional: bool,
    banks: Vec<BankStorage>,
    pus: Vec<PuState>,
    /// 2 KB Global Buffer = 64 beats.
    global_buffer: Vec<Beat>,
    open_row: Option<RowAddr>,
    timing: PimChannelTiming,
    // Keyed by activation-function id; BTreeMap keeps any sweep ordered.
    luts: BTreeMap<u8, AfLut>,
}

impl PimChannel {
    /// Creates a channel that carries real data *and* timing.
    pub fn functional() -> Self {
        Self::new(true)
    }

    /// Creates a timing-only channel (no data storage; large-model latency
    /// studies).
    pub fn timing_only() -> Self {
        Self::new(false)
    }

    fn new(functional: bool) -> Self {
        PimChannel {
            functional,
            banks: vec![BankStorage::default(); BANKS_PER_CHANNEL],
            pus: vec![PuState::default(); BANKS_PER_CHANNEL],
            global_buffer: vec![ZERO_BEAT; cent_types::consts::GLOBAL_BUFFER_SLOTS],
            open_row: None,
            timing: PimChannelTiming::new(),
            luts: BTreeMap::new(),
        }
    }

    /// Whether the channel carries functional data.
    pub fn is_functional(&self) -> bool {
        self.functional
    }

    /// Completion time of all issued work.
    pub fn busy_until(&self) -> Time {
        self.timing.busy_until()
    }

    /// DRAM activity counters (for the power model).
    pub fn activity(&self) -> &ActivityCounters {
        self.timing.stats()
    }

    /// Advances channel time to at least `t` (cross-unit dependencies).
    pub fn advance_to(&mut self, t: Time) {
        self.timing.advance_to(t);
    }

    fn check_addr(&self, bank: BankId, row: RowAddr, col: ColAddr) -> CentResult<()> {
        if bank.index() >= BANKS_PER_CHANNEL {
            return Err(CentError::AddressOutOfRange(format!("bank {bank}")));
        }
        if row.index() >= ROWS_PER_BANK {
            return Err(CentError::AddressOutOfRange(format!("row {row}")));
        }
        if col.index() >= COLS_PER_ROW {
            return Err(CentError::AddressOutOfRange(format!("col {col}")));
        }
        Ok(())
    }

    /// Ensures `row` is open in all banks, issuing PREab/ACTab as needed.
    fn open_all(&mut self, row: RowAddr) -> CentResult<()> {
        if self.open_row == Some(row) {
            return Ok(());
        }
        if self.open_row.is_some() {
            self.timing.issue(DramCommand::PreAb)?;
        }
        self.timing.issue(DramCommand::ActAb { row })?;
        self.open_row = Some(row);
        Ok(())
    }

    /// Issues one row segment of `cmd` beats (`cmd` carries the segment's
    /// first column): checks the segment's start address against `bank`,
    /// opens its row in every bank, then times all its beats as one burst.
    /// Returns the issue time of the last beat.
    fn issue_segment(
        &mut self,
        bank: BankId,
        seg: RowSegment,
        cmd: DramCommand,
    ) -> CentResult<Time> {
        self.check_addr(bank, seg.row, seg.col)?;
        self.open_all(seg.row)?;
        self.timing.issue_burst(cmd, seg.len)
    }

    /// Closes any open row (PREab).
    ///
    /// # Errors
    ///
    /// Propagates timing-model protocol violations.
    pub fn precharge_all(&mut self) -> CentResult<()> {
        if self.open_row.take().is_some() {
            self.timing.issue(DramCommand::PreAb)?;
        }
        Ok(())
    }

    // ---------------------------------------------------------------- data

    /// Writes one beat into a bank **without advancing timing** — used to
    /// preload model weights, which happens once before serving and is not
    /// part of inference latency (§5.6).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn preload_beat(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        beat: &Beat,
    ) -> CentResult<()> {
        self.check_addr(bank, row, col)?;
        if self.functional {
            self.banks[bank.index()].write_beat(row, col, beat);
        }
        Ok(())
    }

    /// Writes one beat into a bank (`WR_SBK` data path). Returns issue time.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn write_beat(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        beat: &Beat,
    ) -> CentResult<Time> {
        self.check_addr(bank, row, col)?;
        // Single-bank accesses use the per-bank path: close lockstep row if
        // it differs (the controller serialises these around PIM bursts).
        self.open_all(row)?;
        let t = self.timing.issue(DramCommand::Wr { bank, col })?;
        if self.functional {
            self.banks[bank.index()].write_beat(row, col, beat);
        }
        Ok(t)
    }

    /// Reads one beat from a bank (`RD_SBK` data path).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn read_beat(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
    ) -> CentResult<(Beat, Time)> {
        self.check_addr(bank, row, col)?;
        self.open_all(row)?;
        let t = self.timing.issue(DramCommand::Rd { bank, col })?;
        let beat =
            if self.functional { self.banks[bank.index()].read_beat(row, col) } else { ZERO_BEAT };
        Ok((beat, t))
    }

    /// `WR_SBK`: writes `beats` into `bank` starting at (`row`, `col`),
    /// wrapping into the next row past the last column. Returns the issue
    /// time of the last beat.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn write_beats(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        beats: &[Beat],
    ) -> CentResult<Time> {
        let mut last = Time::ZERO;
        for seg in row_segments(row, col, beats.len()) {
            last = self.issue_segment(bank, seg, DramCommand::Wr { bank, col: seg.col })?;
            if self.functional {
                for (i, c) in seg.beats() {
                    self.banks[bank.index()].write_beat(seg.row, c, &beats[i]);
                }
            }
        }
        Ok(last)
    }

    /// `RD_SBK`: reads `n` beats from `bank` starting at (`row`, `col`),
    /// wrapping into the next row past the last column. A timing-only
    /// channel returns zero beats.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn read_beats(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        n: usize,
    ) -> CentResult<Vec<Beat>> {
        let mut out = Vec::with_capacity(n);
        for seg in row_segments(row, col, n) {
            self.issue_segment(bank, seg, DramCommand::Rd { bank, col: seg.col })?;
            if self.functional {
                out.extend(
                    seg.beats().map(|(_, c)| self.banks[bank.index()].read_beat(seg.row, c)),
                );
            } else {
                out.resize(out.len() + seg.len, ZERO_BEAT);
            }
        }
        Ok(out)
    }

    /// `WR_ABK`: scatters the 16 lanes of `beat` across all banks — lane `p`
    /// is stored as the 16-bit element at position `elem` of `row` in bank
    /// `p`. Used to lay out per-bank operands (e.g. dot-product inputs) in
    /// one command.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn write_element_all_banks(
        &mut self,
        row: RowAddr,
        elem: usize,
        beat: &Beat,
    ) -> CentResult<Time> {
        if elem >= ELEMS_PER_ROW {
            return Err(CentError::AddressOutOfRange(format!("element {elem}")));
        }
        self.open_all(row)?;
        let col = ColAddr((elem / LANES_PER_BEAT) as u32);
        // One write beat issued to all banks in lockstep; timing-wise this is
        // a single column write slot (the paper counts it as one instruction).
        let t = self.timing.issue(DramCommand::Wr { bank: BankId(0), col })?;
        if self.functional {
            for (p, bank) in self.banks.iter_mut().enumerate() {
                bank.write_element(row, elem, beat[p]);
            }
        }
        Ok(t)
    }

    /// `WR_GB`: places a beat into a Global Buffer slot (from the Shared
    /// Buffer). The GB is SRAM next to the banks; the transfer costs one PU
    /// cycle on the channel's internal bus.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds the 64-slot Global Buffer.
    pub fn write_gb(&mut self, slot: usize, beat: &Beat) -> Time {
        assert!(slot < self.global_buffer.len(), "GB has 64 slots, got {slot}");
        if self.functional {
            self.global_buffer[slot] = *beat;
        }
        let t = self.timing.now();
        self.timing.advance_to(t + cent_types::consts::PU_CLOCK_PERIOD);
        t
    }

    /// Reads a Global Buffer slot (debug/verification).
    pub fn gb(&self, slot: usize) -> &Beat {
        &self.global_buffer[slot]
    }

    /// `COPY_BKGB`: copies `n` beats from `bank` starting at (`row`, `col`)
    /// into the Global Buffer starting at `gb_slot`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses or GB overflow.
    pub fn copy_bank_to_gb(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        gb_slot: usize,
        n: usize,
    ) -> CentResult<Time> {
        if gb_slot + n > self.global_buffer.len() {
            return Err(CentError::AddressOutOfRange(format!(
                "GB copy of {n} beats at slot {gb_slot}"
            )));
        }
        let mut last = Time::ZERO;
        for seg in row_segments(row, col, n) {
            last = self.issue_segment(bank, seg, DramCommand::Rd { bank, col: seg.col })?;
            if self.functional {
                for (i, c) in seg.beats() {
                    self.global_buffer[gb_slot + i] =
                        self.banks[bank.index()].read_beat(seg.row, c);
                }
            }
        }
        Ok(last)
    }

    /// `COPY_GBBK`: copies `n` beats from the Global Buffer into `bank`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses or GB overflow.
    pub fn copy_gb_to_bank(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        gb_slot: usize,
        n: usize,
    ) -> CentResult<Time> {
        if gb_slot + n > self.global_buffer.len() {
            return Err(CentError::AddressOutOfRange(format!(
                "GB copy of {n} beats at slot {gb_slot}"
            )));
        }
        let mut last = Time::ZERO;
        for seg in row_segments(row, col, n) {
            last = self.issue_segment(bank, seg, DramCommand::Wr { bank, col: seg.col })?;
            if self.functional {
                for (i, c) in seg.beats() {
                    let beat = self.global_buffer[gb_slot + i];
                    self.banks[bank.index()].write_beat(seg.row, c, &beat);
                }
            }
        }
        Ok(last)
    }

    // ------------------------------------------------------------- compute

    /// `WR_BIAS`: loads accumulation register `reg` of PU `p` with lane `p`
    /// of `beat` (converted to the wide accumulator format). A timing-only
    /// channel only pays the PU cycle.
    pub fn write_bias(&mut self, reg: AccRegId, beat: &Beat) {
        if self.functional {
            for (p, pu) in self.pus.iter_mut().enumerate() {
                pu.acc[reg.index()] = beat[p].to_f32();
            }
        }
        let t = self.timing.now();
        self.timing.advance_to(t + cent_types::consts::PU_CLOCK_PERIOD);
    }

    /// `MAC_ABK`: streams `n_beats` all-bank MAC beats starting at
    /// (`row`, `col`). PU `p` accumulates
    /// `dot16(bank_p[row][col+i], operand_i)` into register `reg`.
    ///
    /// With [`MacSource::GlobalBuffer`] the operand beats walk consecutive GB
    /// slots; with [`MacSource::NeighbourBank`] the even PU `2k` consumes the
    /// beat of bank `2k+1` as its second operand (vector dot-product mode).
    ///
    /// Beats past the end of the row wrap to the next row, with the
    /// ACTab/PREab row switch the PIM controller would insert.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn mac_abk(
        &mut self,
        row: RowAddr,
        col: ColAddr,
        n_beats: usize,
        reg: AccRegId,
        source: MacSource,
    ) -> CentResult<Time> {
        let mut last = Time::ZERO;
        for seg in row_segments(row, col, n_beats) {
            last = self.issue_segment(BankId(0), seg, DramCommand::MacAb { col: seg.col })?;
            if !self.functional {
                continue;
            }
            let r = seg.row;
            for (i, c) in seg.beats() {
                match source {
                    MacSource::GlobalBuffer { slot } => {
                        let operand = self.global_buffer[(slot + i) % self.global_buffer.len()];
                        for (p, pu) in self.pus.iter_mut().enumerate() {
                            let a = self.banks[p].read_beat(r, c);
                            let dot: f32 = a
                                .iter()
                                .zip(operand.iter())
                                .map(|(x, y)| x.to_f32() * y.to_f32())
                                .sum();
                            pu.acc[reg.index()] += dot;
                        }
                    }
                    MacSource::NeighbourBank => {
                        for k in 0..BANKS_PER_CHANNEL / 2 {
                            let a = self.banks[2 * k].read_beat(r, c);
                            let b = self.banks[2 * k + 1].read_beat(r, c);
                            let dot: f32 =
                                a.iter().zip(b.iter()).map(|(x, y)| x.to_f32() * y.to_f32()).sum();
                            self.pus[2 * k].acc[reg.index()] += dot;
                        }
                    }
                }
            }
        }
        Ok(last)
    }

    /// `EW_MUL`: element-wise multiply within each bank group. For group `g`,
    /// bank `4g+2` receives the product of the beats of banks `4g` and
    /// `4g+1`, for `n_beats` consecutive columns starting at (`row`, `col`).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn ew_mul(&mut self, row: RowAddr, col: ColAddr, n_beats: usize) -> CentResult<Time> {
        let mut last = Time::ZERO;
        for seg in row_segments(row, col, n_beats) {
            last = self.issue_segment(BankId(0), seg, DramCommand::EwMulAb { col: seg.col })?;
            if !self.functional {
                continue;
            }
            let r = seg.row;
            for (_, c) in seg.beats() {
                for g in 0..cent_types::consts::BANK_GROUPS_PER_CHANNEL {
                    let a = self.banks[4 * g].read_beat(r, c);
                    let b = self.banks[4 * g + 1].read_beat(r, c);
                    let mut out = ZERO_BEAT;
                    for lane in 0..LANES_PER_BEAT {
                        out[lane] = a[lane] * b[lane];
                    }
                    self.banks[4 * g + 2].write_beat(r, c, &out);
                }
            }
        }
        Ok(last)
    }

    /// `AF`: applies activation function `af` to accumulation register `reg`
    /// of every PU, via the DRAM-resident lookup table + linear interpolation.
    ///
    /// Timing: the LUT row is activated and two knot beats are fetched (the
    /// interpolation endpoints), then the row is released.
    ///
    /// # Errors
    ///
    /// Propagates timing-model protocol violations.
    pub fn af(&mut self, reg: AccRegId, af: ActivationFunction) -> CentResult<Time> {
        // LUT lives in reserved high rows of each bank; activating it evicts
        // the current lockstep row.
        let lut_row = RowAddr((ROWS_PER_BANK - 1 - af.id() as usize) as u32);
        self.open_all(lut_row)?;
        self.timing.issue(DramCommand::Rd { bank: BankId(0), col: ColAddr(0) })?;
        let t = self.timing.issue(DramCommand::Rd { bank: BankId(0), col: ColAddr(1) })?;
        self.precharge_all()?;
        if self.functional {
            let lut = self.luts.entry(af.id()).or_insert_with(|| AfLut::new(af));
            for pu in &mut self.pus {
                pu.acc[reg.index()] = lut.eval(pu.acc[reg.index()]);
            }
        }
        Ok(t)
    }

    /// `RD_MAC`: reads accumulation register `reg` of all 16 PUs as one beat
    /// (lane `p` = PU `p`), rounding the wide accumulators to BF16. A
    /// timing-only channel returns a zero beat.
    pub fn read_mac(&mut self, reg: AccRegId) -> (Beat, Time) {
        let mut beat = ZERO_BEAT;
        if self.functional {
            for (p, pu) in self.pus.iter().enumerate() {
                beat[p] = Bf16::from_f32(pu.acc[reg.index()]);
            }
        }
        let t = self.timing.now();
        self.timing.advance_to(t + cent_types::consts::PU_CLOCK_PERIOD);
        (beat, t)
    }

    /// Direct accumulator inspection for tests.
    pub fn acc(&self, pu: usize, reg: AccRegId) -> f32 {
        self.pus[pu].acc[reg.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat_of(values: &[f32]) -> Beat {
        let mut beat = ZERO_BEAT;
        for (i, v) in values.iter().enumerate() {
            beat[i] = Bf16::from_f32(*v);
        }
        beat
    }

    #[test]
    fn gemv_one_beat_per_bank() {
        let mut ch = PimChannel::functional();
        // Bank p row: all ones. Vector: 0..16. Expected dot = sum(0..16)=120.
        let ones = beat_of(&[1.0; 16]);
        for p in 0..16 {
            ch.write_beat(BankId(p), RowAddr(0), ColAddr(0), &ones).unwrap();
        }
        let v: Vec<f32> = (0..16).map(|i| i as f32).collect();
        ch.write_gb(0, &beat_of(&v));
        ch.write_bias(AccRegId::new(0), &ZERO_BEAT);
        ch.mac_abk(
            RowAddr(0),
            ColAddr(0),
            1,
            AccRegId::new(0),
            MacSource::GlobalBuffer { slot: 0 },
        )
        .unwrap();
        let (out, _) = ch.read_mac(AccRegId::new(0));
        for (p, o) in out.iter().enumerate() {
            assert_eq!(o.to_f32(), 120.0, "pu {p}");
        }
    }

    #[test]
    fn mac_accumulates_across_beats_and_rows() {
        let mut ch = PimChannel::functional();
        let ones = beat_of(&[1.0; 16]);
        // 2 beats at end of row 0 and 1 beat at row 1 (wrap).
        ch.write_beat(BankId(0), RowAddr(0), ColAddr(62), &ones).unwrap();
        ch.write_beat(BankId(0), RowAddr(0), ColAddr(63), &ones).unwrap();
        ch.write_beat(BankId(0), RowAddr(1), ColAddr(0), &ones).unwrap();
        for s in 0..3 {
            ch.write_gb(s, &beat_of(&[2.0; 16]));
        }
        ch.write_bias(AccRegId::new(3), &ZERO_BEAT);
        ch.mac_abk(
            RowAddr(0),
            ColAddr(62),
            3,
            AccRegId::new(3),
            MacSource::GlobalBuffer { slot: 0 },
        )
        .unwrap();
        // 3 beats × 16 lanes × 1.0 × 2.0 = 96 for PU 0.
        assert_eq!(ch.acc(0, AccRegId::new(3)), 96.0);
        // The writes opened rows 0 and 1 (32 bank-acts) and the MAC stream
        // re-opened both rows during the wrap (another 32).
        assert_eq!(ch.activity().acts, 64);
    }

    #[test]
    fn bias_preloads_accumulator() {
        let mut ch = PimChannel::functional();
        let bias: Vec<f32> = (0..16).map(|p| p as f32 * 10.0).collect();
        ch.write_bias(AccRegId::new(1), &beat_of(&bias));
        assert_eq!(ch.acc(7, AccRegId::new(1)), 70.0);
        let (out, _) = ch.read_mac(AccRegId::new(1));
        assert_eq!(out[7].to_f32(), 70.0);
    }

    #[test]
    fn neighbour_bank_dot_product() {
        let mut ch = PimChannel::functional();
        let a = beat_of(&[3.0; 16]);
        let b = beat_of(&[0.5; 16]);
        ch.write_beat(BankId(0), RowAddr(0), ColAddr(0), &a).unwrap();
        ch.write_beat(BankId(1), RowAddr(0), ColAddr(0), &b).unwrap();
        ch.write_bias(AccRegId::new(0), &ZERO_BEAT);
        ch.mac_abk(RowAddr(0), ColAddr(0), 1, AccRegId::new(0), MacSource::NeighbourBank).unwrap();
        // dot = 16 × 1.5 = 24 lands in even PU 0; odd PU untouched.
        assert_eq!(ch.acc(0, AccRegId::new(0)), 24.0);
        assert_eq!(ch.acc(1, AccRegId::new(0)), 0.0);
    }

    #[test]
    fn ew_mul_writes_third_bank_of_each_group() {
        let mut ch = PimChannel::functional();
        let a = beat_of(&[2.0; 16]);
        let b = beat_of(&[4.0; 16]);
        for g in 0..4u16 {
            ch.write_beat(BankId(4 * g), RowAddr(2), ColAddr(5), &a).unwrap();
            ch.write_beat(BankId(4 * g + 1), RowAddr(2), ColAddr(5), &b).unwrap();
        }
        ch.ew_mul(RowAddr(2), ColAddr(5), 1).unwrap();
        for g in 0..4u16 {
            let (out, _) = ch.read_beat(BankId(4 * g + 2), RowAddr(2), ColAddr(5)).unwrap();
            assert_eq!(out[0].to_f32(), 8.0, "group {g}");
        }
    }

    #[test]
    fn af_applies_lut_sigmoid() {
        let mut ch = PimChannel::functional();
        ch.write_bias(AccRegId::new(0), &beat_of(&[0.0; 16]));
        ch.af(AccRegId::new(0), ActivationFunction::Sigmoid).unwrap();
        assert!((ch.acc(3, AccRegId::new(0)) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn gb_round_trip_through_bank() {
        let mut ch = PimChannel::functional();
        let data = beat_of(&[1.0, 2.0, 3.0, 4.0]);
        ch.write_gb(10, &data);
        ch.copy_gb_to_bank(BankId(5), RowAddr(9), ColAddr(0), 10, 1).unwrap();
        ch.copy_bank_to_gb(BankId(5), RowAddr(9), ColAddr(0), 20, 1).unwrap();
        assert_eq!(ch.gb(20)[1].to_f32(), 2.0);
    }

    #[test]
    fn write_element_all_banks_scatters_lanes() {
        let mut ch = PimChannel::functional();
        let lanes: Vec<f32> = (0..16).map(|p| p as f32 + 1.0).collect();
        ch.write_element_all_banks(RowAddr(0), 17, &beat_of(&lanes)).unwrap();
        // Element 17 falls in beat 1, lane 1.
        let (beat, _) = ch.read_beat(BankId(6), RowAddr(0), ColAddr(1)).unwrap();
        assert_eq!(beat[1].to_f32(), 7.0);
    }

    #[test]
    fn timing_advances_with_work() {
        let mut ch = PimChannel::timing_only();
        ch.write_gb(0, &ZERO_BEAT);
        ch.mac_abk(
            RowAddr(0),
            ColAddr(0),
            64,
            AccRegId::new(0),
            MacSource::GlobalBuffer { slot: 0 },
        )
        .unwrap();
        // 18 ns tRCD + 64 beats ≈ 82 ns minimum.
        assert!(ch.busy_until().as_ns() >= 82.0);
        assert_eq!(ch.activity().mac_beats, 64 * 16);
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut ch = PimChannel::functional();
        assert!(ch.write_beat(BankId(0), RowAddr(1_000_000), ColAddr(0), &ZERO_BEAT).is_err());
        assert!(ch.write_beat(BankId(0), RowAddr(0), ColAddr(64), &ZERO_BEAT).is_err());
        assert!(ch.copy_bank_to_gb(BankId(0), RowAddr(0), ColAddr(0), 60, 10).is_err());
    }

    #[test]
    fn timing_only_channel_reads_zero() {
        let mut ch = PimChannel::timing_only();
        let (beat, _) = ch.read_beat(BankId(0), RowAddr(0), ColAddr(0)).unwrap();
        assert_eq!(beat, ZERO_BEAT);
        assert!(!ch.is_functional());
        // The accumulators carry no data either, but each access still costs
        // a PU cycle.
        let (_, t0) = ch.read_mac(AccRegId::new(1));
        ch.write_bias(AccRegId::new(1), &beat_of(&[3.0; 16]));
        let (acc, t1) = ch.read_mac(AccRegId::new(1));
        assert_eq!(acc, ZERO_BEAT);
        assert_eq!(t1 - t0, cent_types::consts::PU_CLOCK_PERIOD.times(2));
    }

    #[test]
    fn row_segments_wrap_like_the_per_beat_walk() {
        let segs: Vec<(u32, u32, usize, usize)> = row_segments(RowAddr(3), ColAddr(60), 70)
            .map(|s| (s.row.0, s.col.0, s.first, s.len))
            .collect();
        assert_eq!(segs, vec![(3, 60, 0, 4), (4, 0, 4, 64), (5, 0, 68, 2)]);
        // A start column past the row end starts at column 0 of the next row.
        let past: Vec<(u32, u32)> =
            row_segments(RowAddr(0), ColAddr(70), 3).map(|s| (s.row.0, s.col.0)).collect();
        assert_eq!(past, vec![(1, 0)]);
        assert_eq!(row_segments(RowAddr(0), ColAddr(0), 0).count(), 0);
    }

    #[test]
    fn functional_and_timing_only_channels_time_streams_identically() {
        // (row, start column, beats): row wraps, a stream longer than two
        // rows, an empty stream and a start column past the row end.
        let streams = [(0, 62, 3), (2, 0, 64), (3, 10, 150), (5, 0, 0), (6, 70, 5), (7, 63, 1)];
        let mut functional = PimChannel::functional();
        let mut timing = PimChannel::timing_only();
        let src = MacSource::GlobalBuffer { slot: 0 };
        for (k, &(row, col, n)) in streams.iter().enumerate() {
            let (row, col) = (RowAddr(row), ColAddr(col));
            let gb_n = n.min(64);
            let bank = BankId(k as u16 * 3 % 16);
            for ch in [&mut functional, &mut timing] {
                let reg = AccRegId::new(1);
                let times = [
                    ch.mac_abk(row, col, n, reg, src).unwrap(),
                    ch.mac_abk(row, col, n, reg, MacSource::NeighbourBank).unwrap(),
                    ch.ew_mul(row, col, n).unwrap(),
                    ch.copy_gb_to_bank(bank, row, col, 0, gb_n).unwrap(),
                    ch.copy_bank_to_gb(bank, row, col, 0, gb_n).unwrap(),
                    ch.write_beats(bank, row, col, &vec![ZERO_BEAT; n]).unwrap(),
                ];
                assert_eq!(ch.read_beats(bank, row, col, n).unwrap().len(), n);
                if n == 0 {
                    assert_eq!(times, [Time::ZERO; 6], "an empty stream issues nothing");
                }
            }
            assert_eq!(functional.busy_until(), timing.busy_until(), "stream {k}");
            assert_eq!(functional.activity(), timing.activity(), "stream {k}");
            assert_eq!(functional.timing.now(), timing.timing.now(), "stream {k}");
        }
        let beats: u64 = streams.iter().map(|s| s.2 as u64).sum();
        assert_eq!(functional.activity().mac_beats, 2 * 16 * beats);
        assert_eq!(functional.activity().ewmul_beats, 4 * beats);
    }
}
