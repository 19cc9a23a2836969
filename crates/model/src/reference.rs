//! f32 reference implementation of the transformer block.
//!
//! This is the ground truth the PIM/PNM functional simulation is verified
//! against (`cent_core::verify_block` runs both on the same weights and
//! inputs and compares their outputs). It follows Figure 3(c) of
//! the paper exactly: RMSNorm → QKV projections → RoPE → GQA attention with
//! KV cache → output projection → residual → RMSNorm → gated-SiLU FFN →
//! residual.

use cent_types::Rng64;

use crate::config::{FfnKind, ModelConfig, PositionalKind};

/// Row-major matrix: `rows × cols`, `data[r * cols + c]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Output dimension.
    pub rows: usize,
    /// Input dimension.
    pub cols: usize,
    /// Row-major storage.
    pub data: Vec<f32>,
}

impl Matrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Small random weights (±0.08, uniform) — keeps activations in range
    /// for BF16 comparison without normalisation tricks.
    pub fn random(rows: usize, cols: usize, rng: &mut Rng64) -> Self {
        let data = (0..rows * cols).map(|_| rng.uniform(-0.08, 0.08) as f32).collect();
        Matrix { rows, cols, data }
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = M · x` (GEMV).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn gemv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "gemv dimension mismatch");
        (0..self.rows).map(|r| dot(self.row(r), x)).collect()
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// RMSNorm: `x / sqrt(mean(x²) + eps) ⊙ gain` (paper Figure 10b).
pub fn rmsnorm(x: &[f32], gain: &[f32], eps: f32) -> Vec<f32> {
    let mean_sq = dot(x, x) / x.len() as f32;
    let scale = 1.0 / (mean_sq + eps).sqrt();
    x.iter().zip(gain).map(|(v, g)| v * scale * g).collect()
}

/// Softmax over a slice.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = x.iter().map(|v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// SiLU activation.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// GeLU activation (tanh form).
pub fn gelu(x: f32) -> f32 {
    let inner = 0.797_884_6 * (x + 0.044_715 * x * x * x);
    0.5 * x * (1.0 + inner.tanh())
}

/// Applies rotary position embedding to one head in place.
pub fn rope(head: &mut [f32], position: usize) {
    let dim = head.len();
    for pair in 0..dim / 2 {
        let theta = (position as f32) * f32::powf(10_000.0, -2.0 * (pair as f32) / (dim as f32));
        let (sin, cos) = theta.sin_cos();
        let (a, b) = (head[2 * pair], head[2 * pair + 1]);
        head[2 * pair] = a * cos - b * sin;
        head[2 * pair + 1] = a * sin + b * cos;
    }
}

/// The weights of one transformer block.
#[derive(Debug, Clone)]
pub struct BlockWeights {
    /// Query projection (`hidden × hidden`).
    pub wq: Matrix,
    /// Key projection (`kv_dim × hidden`).
    pub wk: Matrix,
    /// Value projection (`kv_dim × hidden`).
    pub wv: Matrix,
    /// Output projection (`hidden × hidden`).
    pub wo: Matrix,
    /// FFN gate matrix `w1` (`ffn × hidden`).
    pub w1: Matrix,
    /// FFN down matrix `w2` (`hidden × ffn`).
    pub w2: Matrix,
    /// FFN up matrix `w3` (`ffn × hidden`; unused for plain GeLU FFNs).
    pub w3: Matrix,
    /// Pre-attention RMSNorm gain.
    pub norm1: Vec<f32>,
    /// Pre-FFN RMSNorm gain.
    pub norm2: Vec<f32>,
}

impl BlockWeights {
    /// Deterministic random weights for `cfg`.
    pub fn random(cfg: &ModelConfig, seed: u64) -> Self {
        let mut rng = Rng64::seed(seed);
        let h = cfg.hidden;
        let kv = cfg.kv_dim();
        let f = cfg.ffn_hidden;
        BlockWeights {
            wq: Matrix::random(h, h, &mut rng),
            wk: Matrix::random(kv, h, &mut rng),
            wv: Matrix::random(kv, h, &mut rng),
            wo: Matrix::random(h, h, &mut rng),
            w1: Matrix::random(f, h, &mut rng),
            w2: Matrix::random(h, f, &mut rng),
            w3: Matrix::random(f, h, &mut rng),
            norm1: vec![1.0; h],
            norm2: vec![1.0; h],
        }
    }
}

/// The KV cache of one block: `k[t]`/`v[t]` are `kv_dim`-wide vectors.
#[derive(Debug, Clone, Default)]
pub struct KvCache {
    /// Cached keys, one entry per past token.
    pub k: Vec<Vec<f32>>,
    /// Cached values, one entry per past token.
    pub v: Vec<Vec<f32>>,
}

impl KvCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokens currently cached.
    pub fn len(&self) -> usize {
        self.k.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.k.is_empty()
    }
}

/// Runs one transformer block on a single token vector `x` at `position`,
/// appending to `cache`. Returns the block output (with both residuals).
///
/// This is the exact operation CENT maps onto a pipeline stage (§5.4).
pub fn reference_block(
    cfg: &ModelConfig,
    w: &BlockWeights,
    x: &[f32],
    cache: &mut KvCache,
    position: usize,
) -> Vec<f32> {
    let head_dim = cfg.head_dim();
    let group = cfg.heads / cfg.kv_heads;

    // --- Self attention ---
    let normed = rmsnorm(x, &w.norm1, 1e-5);
    let mut q = w.wq.gemv(&normed);
    let mut k = w.wk.gemv(&normed);
    let v = w.wv.gemv(&normed);

    if cfg.positional == PositionalKind::Rotary {
        for h in 0..cfg.heads {
            rope(&mut q[h * head_dim..(h + 1) * head_dim], position);
        }
        for h in 0..cfg.kv_heads {
            rope(&mut k[h * head_dim..(h + 1) * head_dim], position);
        }
    }

    cache.k.push(k);
    cache.v.push(v);
    let ctx = cache.len();

    let mut attn_out = vec![0.0f32; cfg.hidden];
    let scale = 1.0 / (head_dim as f32).sqrt();
    for h in 0..cfg.heads {
        let kv_head = h / group;
        let q_head = &q[h * head_dim..(h + 1) * head_dim];
        // Scores against every cached key of this head's KV group.
        let scores: Vec<f32> = (0..ctx)
            .map(|t| {
                let k_head = &cache.k[t][kv_head * head_dim..(kv_head + 1) * head_dim];
                dot(q_head, k_head) * scale
            })
            .collect();
        let probs = softmax(&scores);
        let out = &mut attn_out[h * head_dim..(h + 1) * head_dim];
        for (t, p) in probs.iter().enumerate() {
            let v_head = &cache.v[t][kv_head * head_dim..(kv_head + 1) * head_dim];
            for (o, vv) in out.iter_mut().zip(v_head) {
                *o += p * vv;
            }
        }
    }
    let projected = w.wo.gemv(&attn_out);
    let x1: Vec<f32> = x.iter().zip(&projected).map(|(a, b)| a + b).collect();

    // --- Feed forward ---
    let normed2 = rmsnorm(&x1, &w.norm2, 1e-5);
    let ffn_out = match cfg.ffn {
        FfnKind::GatedSilu => {
            let gate = w.w1.gemv(&normed2);
            let up = w.w3.gemv(&normed2);
            let inner: Vec<f32> = gate.iter().zip(&up).map(|(g, u)| silu(*g) * u).collect();
            w.w2.gemv(&inner)
        }
        FfnKind::Gelu => {
            let inner: Vec<f32> = w.w1.gemv(&normed2).into_iter().map(gelu).collect();
            w.w2.gemv(&inner)
        }
    };
    x1.iter().zip(&ffn_out).map(|(a, b)| a + b).collect()
}

/// Runs a sequence of tokens through one block (prefill-style), returning
/// the output of the final token.
pub fn reference_block_sequence(
    cfg: &ModelConfig,
    w: &BlockWeights,
    tokens: &[Vec<f32>],
    cache: &mut KvCache,
) -> Vec<f32> {
    let mut last = Vec::new();
    for (pos, x) in tokens.iter().enumerate() {
        last = reference_block(cfg, w, x, cache, pos);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (ModelConfig, BlockWeights) {
        let cfg = ModelConfig::tiny();
        let w = BlockWeights::random(&cfg, 42);
        (cfg, w)
    }

    #[test]
    fn gemv_matches_manual() {
        let m = Matrix { rows: 2, cols: 3, data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0] };
        assert_eq!(m.gemv(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn rmsnorm_unit_gain_normalises() {
        let x = vec![3.0, 4.0];
        let out = rmsnorm(&x, &[1.0, 1.0], 0.0);
        // mean square = 12.5, rms = 3.5355 → [0.8485, 1.1314].
        assert!((out[0] - 0.848_53).abs() < 1e-4);
        assert!((out[1] - 1.131_37).abs() < 1e-4);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_scores() {
        let p = softmax(&[1000.0, 999.0]);
        assert!(p[0].is_finite() && p[1].is_finite());
        assert!(p[0] > p[1]);
    }

    #[test]
    fn rope_preserves_norm() {
        let mut head: Vec<f32> = (0..16).map(|i| i as f32 / 7.0).collect();
        let norm_before = dot(&head, &head);
        rope(&mut head, 17);
        let norm_after = dot(&head, &head);
        assert!((norm_before - norm_after).abs() / norm_before < 1e-5);
    }

    #[test]
    fn rope_at_position_zero_is_identity() {
        let mut head = vec![0.5, -0.25, 1.0, 2.0];
        let orig = head.clone();
        rope(&mut head, 0);
        assert_eq!(head, orig);
    }

    #[test]
    fn block_output_is_deterministic() {
        let (cfg, w) = tiny();
        let x: Vec<f32> = (0..cfg.hidden).map(|i| (i as f32 / 64.0).sin() * 0.1).collect();
        let mut c1 = KvCache::new();
        let mut c2 = KvCache::new();
        let a = reference_block(&cfg, &w, &x, &mut c1, 0);
        let b = reference_block(&cfg, &w, &x, &mut c2, 0);
        assert_eq!(a, b);
        assert_eq!(c1.len(), 1);
    }

    #[test]
    fn kv_cache_grows_and_changes_output() {
        let (cfg, w) = tiny();
        let x: Vec<f32> = (0..cfg.hidden).map(|i| (i as f32 / 9.0).cos() * 0.1).collect();
        let mut cache = KvCache::new();
        let first = reference_block(&cfg, &w, &x, &mut cache, 0);
        let second = reference_block(&cfg, &w, &x, &mut cache, 1);
        assert_eq!(cache.len(), 2);
        // Attention over two cached tokens differs from one.
        assert_ne!(first, second);
    }

    #[test]
    fn gqa_groups_share_kv_heads() {
        // With kv_heads == heads the group size is 1; tiny has group 2.
        let cfg = ModelConfig::tiny();
        assert_eq!(cfg.heads / cfg.kv_heads, 2);
        // A block must still run cleanly end to end.
        let w = BlockWeights::random(&cfg, 7);
        let x = vec![0.05; cfg.hidden];
        let out = reference_block(&cfg, &w, &x, &mut KvCache::new(), 0);
        assert_eq!(out.len(), cfg.hidden);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sequence_runner_fills_cache() {
        let (cfg, w) = tiny();
        let tokens: Vec<Vec<f32>> = (0..5)
            .map(|t| (0..cfg.hidden).map(|i| ((t * i) as f32).sin() * 0.05).collect())
            .collect();
        let mut cache = KvCache::new();
        let out = reference_block_sequence(&cfg, &w, &tokens, &mut cache);
        assert_eq!(cache.len(), 5);
        assert_eq!(out.len(), cfg.hidden);
    }

    #[test]
    fn gelu_ffn_variant_runs() {
        let cfg = ModelConfig { ffn: FfnKind::Gelu, ..ModelConfig::tiny() };
        let w = BlockWeights::random(&cfg, 3);
        let out = reference_block(&cfg, &w, &vec![0.1; cfg.hidden], &mut KvCache::new(), 0);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
