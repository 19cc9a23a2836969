//! Canned RISC-V routines for the PNM cores.
//!
//! These are the "less common operations" §4.2 assigns to the BOOM cores:
//! square roots and inversions (RMSNorm, softmax normalisation) and the
//! complex/real transforms of rotary embedding (§5.4, Figure 10e). Programs
//! receive Shared Buffer *byte offsets* in `a0..a5` and use the 16-bit
//! load/store protocol the paper describes.
//!
//! BF16 values travel as the high half of an f32 (`bits << 16`), are
//! processed in the core FPU at single precision and truncated back — the
//! same path a BOOM core with an F unit takes.
//!
//! **A routine may branch only on its arguments, never on data it loads.**
//! Its retired instruction mix, and with it the BOOM timing, is then a
//! function of the arguments alone, which is what lets a timing-only device
//! interpret each distinct call once and reuse its timing for every repeat.
//! `routines_are_data_oblivious` below pins this for every routine.

/// `RSQRT(a0: in_off, a1: out_off)`: `out = 1 / sqrt(in)`.
pub const RSQRT: &str = "
    li   t0, 0x10000000
    add  t1, t0, a0
    lhu  t2, 0(t1)
    slli t2, t2, 16
    fmv.w.x f0, t2
    fsqrt.s f1, f0
    li   t3, 0x3f800000
    fmv.w.x f2, t3
    fdiv.s  f3, f2, f1
    fmv.x.w t4, f3
    srli t4, t4, 16
    add  t5, t0, a1
    sh   t4, 0(t5)
    ecall
";

/// `RECIP(a0: in_off, a1: out_off)`: `out = 1 / in` (softmax normaliser).
pub const RECIP: &str = "
    li   t0, 0x10000000
    add  t1, t0, a0
    lhu  t2, 0(t1)
    slli t2, t2, 16
    fmv.w.x f0, t2
    li   t3, 0x3f800000
    fmv.w.x f1, t3
    fdiv.s  f2, f1, f0
    fmv.x.w t4, f2
    srli t4, t4, 16
    add  t5, t0, a1
    sh   t4, 0(t5)
    ecall
";

/// `RMSNORM_SCALE(a0: sumsq_off, a1: n, a2: out_off)`:
/// `out = 1 / sqrt(sumsq / n + 1e-5)` — the scalar the RMSNorm layer
/// broadcasts back to the PIM channels (Figure 10b).
pub const RMSNORM_SCALE: &str = "
    li   t0, 0x10000000
    add  t1, t0, a0
    lhu  t2, 0(t1)
    slli t2, t2, 16
    fmv.w.x f0, t2          # sum of squares
    fcvt.s.w f1, a1         # n
    fdiv.s  f2, f0, f1      # mean square
    li   t3, 0x3727c5ac     # 1e-5f epsilon
    fmv.w.x f3, t3
    fadd.s  f2, f2, f3
    fsqrt.s f4, f2
    li   t4, 0x3f800000
    fmv.w.x f5, t4
    fdiv.s  f6, f5, f4
    fmv.x.w t5, f6
    srli t5, t5, 16
    add  t6, t0, a2
    sh   t5, 0(t6)
    ecall
";

/// `ROPE_COMBINE(a0: ac_off, a1: bs_off, a2: as_off, a3: bc_off, a4: out_off,
/// a5: n_pairs)`: combines the four element-wise products the PIM channels
/// produced into the rotated head:
/// `out[2i] = ac[i] - bs[i]`, `out[2i+1] = as[i] + bc[i]`
/// — i.e. `(a + jb)·(cos + j·sin)` written back in real interleaved form.
pub const ROPE_COMBINE: &str = "
    li   t0, 0x10000000
    add  a0, a0, t0
    add  a1, a1, t0
    add  a2, a2, t0
    add  a3, a3, t0
    add  a4, a4, t0
    li   t1, 0
loop:
    bge  t1, a5, done
    slli t2, t1, 1
    add  t3, a0, t2
    lhu  t4, 0(t3)
    slli t4, t4, 16
    fmv.w.x f0, t4          # a*cos
    add  t3, a1, t2
    lhu  t4, 0(t3)
    slli t4, t4, 16
    fmv.w.x f1, t4          # b*sin
    fsub.s f2, f0, f1       # real part
    add  t3, a2, t2
    lhu  t4, 0(t3)
    slli t4, t4, 16
    fmv.w.x f3, t4          # a*sin
    add  t3, a3, t2
    lhu  t4, 0(t3)
    slli t4, t4, 16
    fmv.w.x f4, t4          # b*cos
    fadd.s f5, f3, f4       # imaginary part
    slli t5, t1, 2
    add  t3, a4, t5
    fmv.x.w t4, f2
    srli t4, t4, 16
    sh   t4, 0(t3)
    fmv.x.w t4, f5
    srli t4, t4, 16
    sh   t4, 2(t3)
    addi t1, t1, 1
    j    loop
done:
    ecall
";

/// `VEC_ADD(a0: a_off, a1: b_off, a2: out_off, a3: n)`: element-wise BF16
/// vector addition — the residual-connection fallback path when the
/// accumulators are busy (Figure 10a marks residuals as PNM work).
pub const VEC_ADD: &str = "
    li   t0, 0x10000000
    add  a0, a0, t0
    add  a1, a1, t0
    add  a2, a2, t0
    li   t1, 0
loop:
    bge  t1, a3, done
    slli t2, t1, 1
    add  t3, a0, t2
    lhu  t4, 0(t3)
    slli t4, t4, 16
    fmv.w.x f0, t4
    add  t3, a1, t2
    lhu  t4, 0(t3)
    slli t4, t4, 16
    fmv.w.x f1, t4
    fadd.s f2, f0, f1
    add  t3, a2, t2
    fmv.x.w t4, f2
    srli t4, t4, 16
    sh   t4, 0(t3)
    addi t1, t1, 1
    j    loop
done:
    ecall
";

/// `VEC_SCALE(a0: in_off, a1: scalar_off, a2: out_off, a3: n)`: multiplies a
/// BF16 vector by a scalar held in the Shared Buffer (softmax `1/Σ`,
/// RMSNorm `1/rms`, attention `1/sqrt(d)` scaling).
pub const VEC_SCALE: &str = "
    li   t0, 0x10000000
    add  t1, t0, a1
    lhu  t2, 0(t1)
    slli t2, t2, 16
    fmv.w.x f7, t2          # scalar
    add  a0, a0, t0
    add  a2, a2, t0
    li   t1, 0
loop:
    bge  t1, a3, done
    slli t2, t1, 1
    add  t3, a0, t2
    lhu  t4, 0(t3)
    slli t4, t4, 16
    fmv.w.x f0, t4
    fmul.s f1, f0, f7
    add  t3, a2, t2
    fmv.x.w t4, f1
    srli t4, t4, 16
    sh   t4, 0(t3)
    addi t1, t1, 1
    j    loop
done:
    ecall
";

/// `DEINTERLEAVE(a0: in_off, a1: out_off, a2: n_pairs)`: splits an
/// interleaved head `[a0, b0, a1, b1, ...]` into `[a... | b...]` — the
/// complex-number regrouping the RISC-V cores perform before the PIM
/// channels multiply by the rotary weights (§5.4: "[a, b, c, d] to
/// [(a + jb), (c + jd)]").
pub const DEINTERLEAVE: &str = "
    li   t0, 0x10000000
    add  a0, a0, t0
    add  a1, a1, t0
    slli t5, a2, 1          # byte length of one half (n_pairs * 2)
    li   t1, 0
loop:
    bge  t1, a2, done
    slli t2, t1, 2          # input byte offset of pair i
    add  t3, a0, t2
    lhu  t4, 0(t3)          # a_i
    slli t6, t1, 1
    add  t3, a1, t6
    sh   t4, 0(t3)
    add  t3, a0, t2
    lhu  t4, 2(t3)          # b_i
    add  t3, a1, t6
    add  t3, t3, t5
    sh   t4, 0(t3)
    addi t1, t1, 1
    j    loop
done:
    ecall
";

/// `SUB_COUNT(a0: in_off, a1: count, a2: out_off)`: `out = in - count`.
/// Corrects the softmax denominator for padded key slots, which contribute
/// `exp(0) = 1` each when the context is not a multiple of 16 (the key
/// banks are zero there).
pub const SUB_COUNT: &str = "
    li   t0, 0x10000000
    add  t1, t0, a0
    lhu  t2, 0(t1)
    slli t2, t2, 16
    fmv.w.x f0, t2
    fcvt.s.w f1, a1
    fsub.s  f2, f0, f1
    fmv.x.w t3, f2
    srli t3, t3, 16
    add  t4, t0, a2
    sh   t3, 0(t4)
    ecall
";

/// `ZERO_TAIL(a0: beat_off, a1: start_lane)`: zeroes lanes
/// `[start_lane, 16)` of one Shared Buffer beat. Used to clear the padded
/// score lanes of the final attention segment so `exp(0) = 1` padding never
/// pollutes the softmax denominator.
pub const ZERO_TAIL: &str = "
    li   t0, 0x10000000
    add  a0, a0, t0
    li   t1, 16
loop:
    bge  a1, t1, done
    slli t2, a1, 1
    add  t3, a0, t2
    sh   x0, 0(t3)
    addi a1, a1, 1
    j    loop
done:
    ecall
";

#[cfg(test)]
mod tests {
    use crate::core::PnmCore;
    use crate::shared_buffer::SharedBuffer;
    use cent_types::{Bf16, Rng64, SbSlot};

    fn write_scalars(sb: &mut SharedBuffer, byte_off: u32, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            sb.write_u16(byte_off + 2 * i as u32, Bf16::from_f32(*v).to_bits()).unwrap();
        }
    }

    fn read_scalar(sb: &SharedBuffer, byte_off: u32) -> f32 {
        Bf16::from_bits(sb.read_u16(byte_off).unwrap()).to_f32()
    }

    #[test]
    fn rsqrt_of_quarter() {
        let mut sb = SharedBuffer::new();
        write_scalars(&mut sb, 0, &[0.25]);
        PnmCore::new().run(&mut sb, super::RSQRT, &[0, 32]).unwrap();
        assert_eq!(read_scalar(&sb, 32), 2.0);
    }

    #[test]
    fn recip_matches() {
        let mut sb = SharedBuffer::new();
        write_scalars(&mut sb, 10 * 32, &[8.0]);
        PnmCore::new().run(&mut sb, super::RECIP, &[10 * 32, 11 * 32]).unwrap();
        assert_eq!(read_scalar(&sb, 11 * 32), 0.125);
    }

    #[test]
    fn rmsnorm_scale_formula() {
        let mut sb = SharedBuffer::new();
        // sum of squares = 64 over n = 16 → mean 4 → 1/sqrt(4 + eps) ≈ 0.5.
        write_scalars(&mut sb, 0, &[64.0]);
        PnmCore::new().run(&mut sb, super::RMSNORM_SCALE, &[0, 16, 64]).unwrap();
        let got = read_scalar(&sb, 64);
        assert!((got - 0.5).abs() < 1e-2, "got {got}");
    }

    #[test]
    fn rope_combine_rotates_pairs() {
        let mut sb = SharedBuffer::new();
        // One pair: a=1, b=0, cos=0, sin=1 → rotated = (1+0j)(0+1j) = 0 + 1j.
        // products: ac=0, bs=0, as=1, bc=0.
        write_scalars(&mut sb, 0, &[0.0]); // ac
        write_scalars(&mut sb, 32, &[0.0]); // bs
        write_scalars(&mut sb, 64, &[1.0]); // as
        write_scalars(&mut sb, 96, &[0.0]); // bc
        PnmCore::new().run(&mut sb, super::ROPE_COMBINE, &[0, 32, 64, 96, 128, 1]).unwrap();
        assert_eq!(read_scalar(&sb, 128), 0.0); // real
        assert_eq!(read_scalar(&sb, 130), 1.0); // imag
    }

    #[test]
    fn rope_combine_many_pairs() {
        let mut sb = SharedBuffer::new();
        let n = 8;
        let ac: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let bs: Vec<f32> = (0..n).map(|i| 0.5 * i as f32).collect();
        let as_: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        let bc: Vec<f32> = (0..n).map(|_| 1.0).collect();
        write_scalars(&mut sb, 0, &ac);
        write_scalars(&mut sb, 64, &bs);
        write_scalars(&mut sb, 128, &as_);
        write_scalars(&mut sb, 192, &bc);
        PnmCore::new()
            .run(&mut sb, super::ROPE_COMBINE, &[0, 64, 128, 192, 256, n as u32])
            .unwrap();
        for i in 0..n {
            let real = read_scalar(&sb, 256 + 4 * i as u32);
            let imag = read_scalar(&sb, 258 + 4 * i as u32);
            assert_eq!(real, 0.5 * i as f32, "pair {i} real");
            assert_eq!(imag, 2.0 * i as f32 + 1.0, "pair {i} imag");
        }
    }

    #[test]
    fn vec_add_accumulates_residual() {
        let mut sb = SharedBuffer::new();
        write_scalars(&mut sb, 0, &[1.0, 2.0, 3.0, 4.0]);
        write_scalars(&mut sb, 128, &[10.0, 20.0, 30.0, 40.0]);
        PnmCore::new().run(&mut sb, super::VEC_ADD, &[0, 128, 256, 4]).unwrap();
        let out = sb.read(SbSlot(8)).unwrap();
        assert_eq!(out[0].to_f32(), 11.0);
        assert_eq!(out[3].to_f32(), 44.0);
    }

    #[test]
    fn vec_scale_multiplies_by_shared_scalar() {
        let mut sb = SharedBuffer::new();
        write_scalars(&mut sb, 0, &[2.0, 4.0, 8.0]);
        write_scalars(&mut sb, 512, &[0.25]);
        PnmCore::new().run(&mut sb, super::VEC_SCALE, &[0, 512, 1024, 3]).unwrap();
        assert_eq!(read_scalar(&sb, 1024), 0.5);
        assert_eq!(read_scalar(&sb, 1028), 2.0);
    }

    #[test]
    fn deinterleave_splits_pairs() {
        let mut sb = SharedBuffer::new();
        write_scalars(&mut sb, 0, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        PnmCore::new().run(&mut sb, super::DEINTERLEAVE, &[0, 256, 4]).unwrap();
        for i in 0..4u32 {
            assert_eq!(read_scalar(&sb, 256 + 2 * i), (i + 1) as f32, "a[{i}]");
            assert_eq!(read_scalar(&sb, 256 + 8 + 2 * i), 10.0 * (i + 1) as f32, "b[{i}]");
        }
    }

    #[test]
    fn sub_count_corrects_denominator() {
        let mut sb = SharedBuffer::new();
        write_scalars(&mut sb, 0, &[20.0]);
        PnmCore::new().run(&mut sb, super::SUB_COUNT, &[0, 7, 64]).unwrap();
        assert_eq!(read_scalar(&sb, 64), 13.0);
    }

    #[test]
    fn zero_tail_clears_pad_lanes() {
        let mut sb = SharedBuffer::new();
        write_scalars(&mut sb, 0, &[9.0; 16]);
        PnmCore::new().run(&mut sb, super::ZERO_TAIL, &[0, 3]).unwrap();
        assert_eq!(read_scalar(&sb, 4), 9.0); // lane 2 kept
        assert_eq!(read_scalar(&sb, 6), 0.0); // lane 3 zeroed
        assert_eq!(read_scalar(&sb, 30), 0.0); // lane 15 zeroed
    }

    /// A Shared Buffer whose every halfword is a seeded random bit pattern
    /// (NaNs, infinities and subnormals included).
    fn random_fill(seed: u64) -> SharedBuffer {
        let mut sb = SharedBuffer::new();
        let mut rng = Rng64::seed(seed);
        for addr in (0..crate::SB_WINDOW_SIZE).step_by(2) {
            sb.write_u16(addr, rng.next_u64() as u16).unwrap();
        }
        sb
    }

    #[test]
    fn routines_are_data_oblivious() {
        // Each routine's argument registers at size `n` (an element count,
        // or ZERO_TAIL's start lane), laid out as the device passes them.
        const RS: u32 = 256 * 32;
        const RD: u32 = 1024 * 32;
        type Args = fn(u32) -> Vec<u32>;
        let cases: [(&str, Args, &[u32]); 9] = [
            (super::RSQRT, |_| vec![RS, RD], &[1]),
            (super::RECIP, |_| vec![RS, RD], &[1]),
            (super::RMSNORM_SCALE, |n| vec![RS, n, RD], &[1, 64, 4096]),
            (super::SUB_COUNT, |n| vec![RS, n, RD], &[0, 7, 15]),
            (
                super::ROPE_COMBINE,
                |n| vec![RS, RS + 2 * n, RS + 4 * n, RS + 6 * n, RD, n],
                &[0, 1, 8, 64],
            ),
            (super::VEC_ADD, |n| vec![RS, RS + 2 * n, RD, n], &[0, 1, 16, 128]),
            (super::VEC_SCALE, |n| vec![RS, RS + 2 * n, RD, n], &[0, 1, 16, 128]),
            (super::DEINTERLEAVE, |n| vec![RS, RD, n], &[0, 1, 8, 64]),
            (super::ZERO_TAIL, |start| vec![RD, start], &[0, 1, 3, 15, 16]),
        ];
        for (i, (source, args, sizes)) in cases.into_iter().enumerate() {
            for &n in sizes {
                let [a, b] = [3, 0xC0FFEE].map(|seed| {
                    PnmCore::new().run(&mut random_fill(seed), source, &args(n)).unwrap()
                });
                assert_eq!(a.stats, b.stats, "routine {i} at n = {n}");
                assert_eq!(a.latency, b.latency, "routine {i} at n = {n}");
            }
        }
    }
}
