//! Activation functions evaluated by the near-bank PUs.
//!
//! Per §4.2 of the paper, "the activation function (AF) leverages lookup
//! tables stored within the DRAM bank and linear interpolation", and §7.5
//! explains that GeLU/Swish/GLU variants decompose into sigmoid and tanh
//! lookups. We model a 512-entry piecewise-linear table over the input range
//! `[-8, 8]`, which keeps the interpolation error well below one BF16 ULP for
//! the supported functions.

use cent_isa::af_id;
use cent_types::Bf16;

/// Activation functions implemented in the PU lookup tables (`AFid` in the
/// CENT ISA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationFunction {
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Natural exponent (clamped table; the PNM exponent units handle the
    /// high-accuracy softmax path).
    Exp,
    /// Gaussian error linear unit (tanh approximation, as deployed models use).
    Gelu,
    /// Sigmoid linear unit `x * sigmoid(x)` (a.k.a. Swish/SiLU).
    Silu,
}

impl ActivationFunction {
    /// All supported functions, in `AFid` encoding order.
    pub const ALL: [ActivationFunction; 5] = [
        ActivationFunction::Sigmoid,
        ActivationFunction::Tanh,
        ActivationFunction::Exp,
        ActivationFunction::Gelu,
        ActivationFunction::Silu,
    ];

    /// The `AFid` encoding used in CENT instructions.
    pub fn id(self) -> u8 {
        match self {
            ActivationFunction::Sigmoid => af_id::SIGMOID,
            ActivationFunction::Tanh => af_id::TANH,
            ActivationFunction::Exp => af_id::EXP,
            ActivationFunction::Gelu => af_id::GELU,
            ActivationFunction::Silu => af_id::SILU,
        }
    }

    /// Decodes an `AFid`.
    pub fn from_id(id: u8) -> Option<ActivationFunction> {
        Self::ALL.get(id as usize).copied()
    }

    /// Reference (infinite-precision) evaluation.
    pub fn exact(self, x: f32) -> f32 {
        match self {
            ActivationFunction::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationFunction::Tanh => x.tanh(),
            ActivationFunction::Exp => x.exp(),
            ActivationFunction::Gelu => {
                // tanh-form GeLU used by GPT-class models.
                let inner = 0.797_884_6 * (x + 0.044_715 * x * x * x);
                0.5 * x * (1.0 + inner.tanh())
            }
            ActivationFunction::Silu => x / (1.0 + (-x).exp()),
        }
    }
}

/// Number of segments in the hardware lookup table.
pub const LUT_SEGMENTS: usize = 512;

/// Input range covered by the table; inputs outside are clamped.
pub const LUT_RANGE: f32 = 8.0;

/// A piecewise-linear lookup table as materialised in a DRAM bank.
///
/// # Examples
///
/// ```
/// use cent_pim::{ActivationFunction, AfLut};
///
/// let lut = AfLut::new(ActivationFunction::Sigmoid);
/// let y = lut.eval(0.0);
/// assert!((y - 0.5).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct AfLut {
    function: ActivationFunction,
    /// `LUT_SEGMENTS + 1` knot values, BF16-quantised as stored in DRAM.
    knots: Vec<Bf16>,
}

impl AfLut {
    /// Builds the table for `function`.
    pub fn new(function: ActivationFunction) -> Self {
        let knots = (0..=LUT_SEGMENTS)
            .map(|i| {
                let x = -LUT_RANGE + 2.0 * LUT_RANGE * (i as f32) / (LUT_SEGMENTS as f32);
                Bf16::from_f32(function.exact(x))
            })
            .collect();
        AfLut { function, knots }
    }

    /// The function this table implements.
    pub fn function(&self) -> ActivationFunction {
        self.function
    }

    /// Evaluates with table lookup + linear interpolation, as the PU does.
    pub fn eval(&self, x: f32) -> f32 {
        if x.is_nan() {
            return x;
        }
        let clamped = x.clamp(-LUT_RANGE, LUT_RANGE);
        let pos = (clamped + LUT_RANGE) / (2.0 * LUT_RANGE) * (LUT_SEGMENTS as f32);
        let idx = (pos.floor() as usize).min(LUT_SEGMENTS - 1);
        let frac = pos - idx as f32;
        let y0 = self.knots[idx].to_f32();
        let y1 = self.knots[idx + 1].to_f32();
        let mut y = y0 + (y1 - y0) * frac;
        // Outside the table the hardware extends the boundary behaviour:
        // saturating functions hold their asymptote; exp extrapolates by
        // repeated squaring in the PNM units (not the PU path), so clamping
        // is the faithful PU behaviour.
        if self.function == ActivationFunction::Silu && x > LUT_RANGE {
            // SiLU is ~identity for large x; the PU special-cases the linear tail.
            y = x;
        }
        if self.function == ActivationFunction::Gelu && x > LUT_RANGE {
            y = x;
        }
        y
    }

    /// Table size in bytes as stored in a DRAM row (BF16 knots).
    pub fn storage_bytes(&self) -> usize {
        self.knots.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_matches_exact_within_tolerance() {
        for f in ActivationFunction::ALL {
            let lut = AfLut::new(f);
            for i in -700..=700 {
                let x = i as f32 / 100.0;
                let exact = f.exact(x);
                let approx = lut.eval(x);
                let tol = 1e-2_f32.max(exact.abs() * 2.0 / 256.0);
                assert!((approx - exact).abs() <= tol, "{f:?}({x}) = {exact}, lut gave {approx}");
            }
        }
    }

    #[test]
    fn saturating_tails() {
        let sig = AfLut::new(ActivationFunction::Sigmoid);
        assert!((sig.eval(100.0) - 1.0).abs() < 1e-2);
        assert!(sig.eval(-100.0).abs() < 1e-2);
        let silu = AfLut::new(ActivationFunction::Silu);
        assert_eq!(silu.eval(50.0), 50.0);
    }

    #[test]
    fn nan_propagates() {
        let lut = AfLut::new(ActivationFunction::Tanh);
        assert!(lut.eval(f32::NAN).is_nan());
    }

    #[test]
    fn id_round_trip() {
        for f in ActivationFunction::ALL {
            assert_eq!(ActivationFunction::from_id(f.id()), Some(f));
        }
        assert_eq!(ActivationFunction::from_id(99), None);
    }

    #[test]
    fn table_fits_in_one_dram_row_pair() {
        // 513 BF16 knots ≈ 1KB — fits in a 2KB DRAM row as the paper implies.
        let lut = AfLut::new(ActivationFunction::Gelu);
        assert!(lut.storage_bytes() <= 2048);
    }

    #[test]
    fn gelu_matches_reference_points() {
        let f = ActivationFunction::Gelu;
        assert!((f.exact(0.0)).abs() < 1e-6);
        assert!((f.exact(1.0) - 0.841_192).abs() < 1e-3);
        assert!((f.exact(-1.0) + 0.158_808).abs() < 1e-3);
    }
}
