//! The PNM RISC-V cores and their memory map.
//!
//! Each of the eight BOOM-2wide cores has a 64 KB local buffer (program +
//! scratch, initialised by the host through CXL writes) and sees the device
//! Shared Buffer as byte-addressable memory in a dedicated 64 KB region
//! (§4.2). Memory map used here:
//!
//! ```text
//! 0x0000_0000 .. 0x0001_0000   core-local buffer (instructions + stack)
//! 0x1000_0000 .. 0x1001_0000   Shared Buffer window (16-bit accesses)
//! ```

use cent_riscv::{assemble, BoomTimingModel, Bus, Cpu, ExecStats, Halt};
use cent_types::{CentError, CentResult, Time};

use crate::shared_buffer::SharedBuffer;

/// Base address of the Shared Buffer window in the core's address space.
pub const SB_WINDOW_BASE: u32 = 0x1000_0000;

/// Size of the Shared Buffer window (64 KB).
pub const SB_WINDOW_SIZE: u32 = 64 * 1024;

/// Size of the core-local buffer (64 KB).
pub const LOCAL_SIZE: u32 = 64 * 1024;

/// Bus implementation connecting a core to its local buffer and the Shared
/// Buffer window.
struct PnmBus<'a> {
    local: &'a mut [u8],
    sb: &'a mut SharedBuffer,
}

impl Bus for PnmBus<'_> {
    fn load8(&mut self, addr: u32) -> CentResult<u8> {
        if addr < LOCAL_SIZE {
            return Ok(self.local[addr as usize]);
        }
        if (SB_WINDOW_BASE..SB_WINDOW_BASE + SB_WINDOW_SIZE).contains(&addr) {
            // Byte access into a halfword lane.
            let off = addr - SB_WINDOW_BASE;
            let half = self.sb.read_u16(off & !1)?;
            return Ok(if off.is_multiple_of(2) { half as u8 } else { (half >> 8) as u8 });
        }
        Err(CentError::RiscvTrap(format!("load fault at {addr:#010x}")))
    }

    fn store8(&mut self, addr: u32, value: u8) -> CentResult<()> {
        if addr < LOCAL_SIZE {
            self.local[addr as usize] = value;
            return Ok(());
        }
        if (SB_WINDOW_BASE..SB_WINDOW_BASE + SB_WINDOW_SIZE).contains(&addr) {
            let off = addr - SB_WINDOW_BASE;
            let mut half = self.sb.read_u16(off & !1)?;
            if off.is_multiple_of(2) {
                half = (half & 0xFF00) | u16::from(value);
            } else {
                half = (half & 0x00FF) | (u16::from(value) << 8);
            }
            return self.sb.write_u16(off & !1, half);
        }
        Err(CentError::RiscvTrap(format!("store fault at {addr:#010x}")))
    }

    // The wide accesses below take one step where the byte path would take
    // two or four. A Shared Buffer halfword must be aligned to be one
    // `read_u16`, and a local word must lie wholly in the local buffer;
    // anything else falls back to the byte path, so every access still
    // behaves exactly as its bytes would.

    fn load16(&mut self, addr: u32) -> CentResult<u16> {
        if let Some(off) = sb_halfword(addr) {
            return self.sb.read_u16(off);
        }
        Ok(u16::from(self.load8(addr)?) | (u16::from(self.load8(addr + 1)?) << 8))
    }

    fn store16(&mut self, addr: u32, value: u16) -> CentResult<()> {
        if let Some(off) = sb_halfword(addr) {
            return self.sb.write_u16(off, value);
        }
        self.store8(addr, value as u8)?;
        self.store8(addr + 1, (value >> 8) as u8)
    }

    fn load32(&mut self, addr: u32) -> CentResult<u32> {
        let a = addr as usize;
        if let Some(bytes) = self.local.get(a..a + 4) {
            return Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]));
        }
        Ok(u32::from(self.load16(addr)?) | (u32::from(self.load16(addr + 2)?) << 16))
    }
}

/// The Shared Buffer byte offset of an aligned halfword in its window.
fn sb_halfword(addr: u32) -> Option<u32> {
    let off = addr.checked_sub(SB_WINDOW_BASE)?;
    (off < SB_WINDOW_SIZE && off.is_multiple_of(2)).then_some(off)
}

/// Result of one RISC-V routine invocation.
#[derive(Debug, Clone, Copy)]
pub struct RiscvRun {
    /// Modelled wall-clock time on the BOOM-2wide core.
    pub latency: Time,
    /// Instruction mix retired (`stats.retired` instructions in all).
    pub stats: ExecStats,
    /// Value left in `a0` at the `ecall`.
    pub a0: u32,
}

/// A PNM RISC-V core: CPU state plus its 64 KB local buffer.
///
/// # Examples
///
/// ```
/// use cent_pnm::{PnmCore, SharedBuffer};
/// use cent_types::{Bf16, SbSlot, ZERO_BEAT};
///
/// # fn main() -> Result<(), cent_types::CentError> {
/// let mut sb = SharedBuffer::new();
/// let mut beat = ZERO_BEAT;
/// beat[0] = Bf16::from_f32(16.0);
/// sb.write(SbSlot(0), &beat)?;
///
/// // Compute 1/sqrt(x) of slot 0 lane 0, writing slot 1 lane 0.
/// let mut core = PnmCore::new();
/// let run = core.run(&mut sb, cent_pnm::programs::RSQRT, &[0, 32])?;
/// assert!(run.latency.as_ns() > 0.0);
/// assert_eq!(sb.read(SbSlot(1))?[0].to_f32(), 0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PnmCore {
    local: Vec<u8>,
    timing: BoomTimingModel,
}

impl Default for PnmCore {
    fn default() -> Self {
        Self::new()
    }
}

impl PnmCore {
    /// Creates a core with an empty local buffer.
    pub fn new() -> Self {
        PnmCore { local: vec![0; LOCAL_SIZE as usize], timing: BoomTimingModel::default() }
    }

    /// Writes assembled `words` into the local buffer at byte address
    /// `base` — the host's boot-time CXL write of a routine (§4.2).
    ///
    /// # Errors
    ///
    /// Returns an error if the words would reach past the 32 KB text
    /// budget (the upper half is stack).
    pub fn load(&mut self, base: u32, words: &[u32]) -> CentResult<()> {
        let start = base as usize;
        let end = start + words.len() * 4;
        if end > LOCAL_SIZE as usize / 2 {
            return Err(CentError::InvalidConfig(format!(
                "program of {} words at {base:#x} exceeds the 32 KB text budget",
                words.len()
            )));
        }
        for (dst, w) in self.local[start..end].chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }

    /// Runs the routine loaded at `pc` to completion with `args` preloaded
    /// into registers `a0..a5`. Shared Buffer *byte offsets* are the natural
    /// argument currency; programs add [`SB_WINDOW_BASE`] themselves.
    ///
    /// # Errors
    ///
    /// Returns traps, or a trap-equivalent error if the program exceeds its
    /// fuel (10M instructions).
    pub fn call(&mut self, sb: &mut SharedBuffer, pc: u32, args: &[u32]) -> CentResult<RiscvRun> {
        let mut cpu = Cpu::new();
        let mut bus = PnmBus { local: &mut self.local, sb };
        cpu.pc = pc;
        // Stack at the top of the local buffer.
        cpu.set_x(2, LOCAL_SIZE - 16);
        for (i, &arg) in args.iter().enumerate().take(6) {
            cpu.set_x(10 + i, arg);
        }
        match cpu.run(&mut bus, 10_000_000)? {
            Halt::Ecall | Halt::Ebreak => {}
            Halt::OutOfFuel => {
                return Err(CentError::RiscvTrap("program exceeded instruction budget".into()))
            }
        }
        Ok(RiscvRun {
            latency: self.timing.latency(cpu.stats()),
            stats: *cpu.stats(),
            a0: cpu.x(10),
        })
    }

    /// Assembles `source`, loads it at address 0 and [`call`](Self::call)s
    /// it.
    ///
    /// # Errors
    ///
    /// Returns assembly and [`load`](Self::load) errors as well as those of
    /// [`call`](Self::call).
    pub fn run(
        &mut self,
        sb: &mut SharedBuffer,
        source: &str,
        args: &[u32],
    ) -> CentResult<RiscvRun> {
        self.load(0, &assemble(source)?)?;
        self.call(sb, 0, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cent_types::{Bf16, SbSlot, ZERO_BEAT};

    #[test]
    fn core_reads_and_writes_shared_buffer() {
        let mut sb = SharedBuffer::new();
        let mut beat = ZERO_BEAT;
        beat[0] = Bf16::from_f32(3.0);
        sb.write(SbSlot(2), &beat).unwrap();

        // Double lane 0 of slot 2 in place: load bf16, shift to f32, add, store.
        let src = "li t0, 0x10000000
                   lhu t1, 64(t0)        # slot 2 = byte 64
                   slli t1, t1, 16
                   fmv.w.x f0, t1
                   fadd.s f1, f0, f0
                   fmv.x.w t2, f1
                   srli t2, t2, 16
                   sh t2, 64(t0)
                   ecall";
        let mut core = PnmCore::new();
        let run = core.run(&mut sb, src, &[]).unwrap();
        assert!(run.stats.retired > 5);
        assert_eq!(sb.read(SbSlot(2)).unwrap()[0].to_f32(), 6.0);
    }

    #[test]
    fn wide_accesses_match_their_bytes() {
        let mut sb = SharedBuffer::new();
        for (i, half) in [0x1122u16, 0x3344, 0x5566, 0x7788].into_iter().enumerate() {
            sb.write_u16(2 * i as u32, half).unwrap();
        }
        let load = |sb: &SharedBuffer, op: &str| {
            let src = format!("li t0, 0x10000000\n{op}\necall");
            PnmCore::new().run(&mut sb.clone(), &src, &[]).unwrap().a0
        };
        assert_eq!(load(&sb, "lhu a0, 2(t0)"), 0x3344);
        assert_eq!(load(&sb, "lhu a0, 1(t0)"), 0x4411);
        assert_eq!(load(&sb, "lw a0, 4(t0)"), 0x7788_5566);
        assert_eq!(load(&sb, "lw a0, 2(t0)"), 0x5566_3344);
        // An unaligned halfword store lands in two Shared Buffer halfwords.
        let src = "li t0, 0x10000000\nli t1, 0xAABB\nsh t1, 3(t0)\necall";
        PnmCore::new().run(&mut sb, src, &[]).unwrap();
        assert_eq!(sb.read_u16(2).unwrap(), 0xBB44);
        assert_eq!(sb.read_u16(4).unwrap(), 0x55AA);
        // Local words: unaligned, and one that straddles the buffer's end.
        let src = "li t2, 0x4000\nli t1, 0x11223344\nsw t1, 0(t2)\nlw a0, 1(t2)\necall";
        assert_eq!(PnmCore::new().run(&mut sb, src, &[]).unwrap().a0, 0x0011_2233);
        let src = "li t2, 0xFFFE\nlw a0, 0(t2)\necall";
        let err = PnmCore::new().run(&mut sb, src, &[]).unwrap_err();
        assert!(err.to_string().contains("load fault at 0x00010000"), "{err}");
    }

    #[test]
    fn args_arrive_in_a_registers() {
        let mut sb = SharedBuffer::new();
        let mut core = PnmCore::new();
        let run = core.run(&mut sb, "add a0, a0, a1\necall", &[40, 2]).unwrap();
        assert_eq!(run.a0, 42);
    }

    #[test]
    fn runaway_program_is_cut_off() {
        let mut sb = SharedBuffer::new();
        let mut core = PnmCore::new();
        let err = core.run(&mut sb, "loop: j loop", &[]).unwrap_err();
        assert!(err.to_string().contains("instruction budget"));
    }

    #[test]
    fn faulting_access_traps() {
        let mut sb = SharedBuffer::new();
        let mut core = PnmCore::new();
        let err = core.run(&mut sb, "li t0, 0x20000000\nlw a0, 0(t0)\necall", &[]).unwrap_err();
        assert!(err.to_string().contains("load fault"));
    }
}
