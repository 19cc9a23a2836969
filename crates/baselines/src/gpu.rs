//! Analytical A100 GPU baseline running vLLM-style serving.
//!
//! Substitutes an analytical model for the paper's measured 4×A100 testbed:
//! a roofline + memory-capacity model that reproduces the *shapes* the paper
//! reports — throughput plateaus versus batch size (Figure 1), saturation at
//! smaller batches for longer contexts, prefill compute-bound vs decode
//! memory-bound behaviour, ~21% compute utilization (Figure 2b), and
//! TDP-throttled power (Figure 15b).

use cent_model::ModelConfig;
use cent_types::{ByteSize, Power, Time};

/// One GPU's specification (NVIDIA A100 80 GB SXM).
#[derive(Debug, Clone, Copy)]
pub struct GpuSpec {
    /// Peak BF16 tensor throughput, FLOP/s.
    pub peak_flops: f64,
    /// HBM2e bandwidth, bytes/s.
    pub mem_bw: f64,
    /// HBM capacity.
    pub memory: ByteSize,
    /// Thermal design power.
    pub tdp: Power,
    /// Maximum SM clock in MHz.
    pub max_clock_mhz: f64,
}

impl GpuSpec {
    /// A100 80 GB SXM.
    pub fn a100() -> Self {
        GpuSpec {
            peak_flops: 312.0e12,
            mem_bw: 2.039e12,
            memory: ByteSize::gib(80),
            tdp: Power::watts(300.0),
            max_clock_mhz: 1410.0,
        }
    }
}

/// Empirical efficiency factors for the vLLM serving stack (calibrated so
/// the Figure 1 plateau lands at the paper's measured level, ~600-800
/// tokens/s for Llama2-70B at 4K context on 4×A100).
#[derive(Debug, Clone, Copy)]
pub struct ServingEfficiency {
    /// Achievable fraction of peak FLOPs in large GEMMs (prefill).
    pub gemm_efficiency: f64,
    /// *End-to-end* effective fraction of peak bandwidth during decode —
    /// folds in tensor-parallel synchronisation, paged-attention gather
    /// inefficiency and kernel launch gaps, which is why it sits well below
    /// a single kernel's achievable bandwidth.
    pub mem_efficiency: f64,
    /// Per-batch-step serving overhead (scheduler + NVLink all-reduces).
    pub per_token_overhead: Time,
}

impl Default for ServingEfficiency {
    fn default() -> Self {
        Self::for_gpus(4)
    }
}

impl ServingEfficiency {
    /// Efficiency for an `n`-GPU tensor-parallel deployment: the effective
    /// bandwidth fraction degrades with GPU count because NVLink all-reduces
    /// and kernel-launch skew grow with the shard count (0.45 on one GPU
    /// down to 0.16 on four, matching the paper's measured plateau levels).
    pub fn for_gpus(n: usize) -> Self {
        ServingEfficiency {
            gemm_efficiency: 0.52,
            mem_efficiency: 0.45 / (1.0 + 0.6 * (n.saturating_sub(1)) as f64),
            per_token_overhead: Time::from_us(2_000),
        }
    }
}

/// A multi-GPU serving deployment.
#[derive(Debug, Clone, Copy)]
pub struct GpuSystem {
    /// Per-GPU spec.
    pub spec: GpuSpec,
    /// GPUs in the server (NVLink-connected; near-linear scaling assumed
    /// for these model sizes, matching the paper's measured baseline).
    pub gpus: usize,
    /// Serving-stack efficiencies.
    pub eff: ServingEfficiency,
}

impl GpuSystem {
    /// The paper's baseline: 4×A100 80 GB.
    pub fn a100x(gpus: usize) -> Self {
        GpuSystem { spec: GpuSpec::a100(), gpus, eff: ServingEfficiency::for_gpus(gpus) }
    }

    /// Total HBM capacity.
    pub fn total_memory(&self) -> ByteSize {
        ByteSize::bytes(self.spec.memory.as_bytes() * self.gpus as u64)
    }

    /// Largest batch that fits weights + KV caches at `context` (Figure 1's
    /// capacity wall).
    pub fn max_batch(&self, cfg: &ModelConfig, context: usize) -> usize {
        let capacity = self.total_memory().as_bytes() as f64 * 0.92; // runtime reserve
        let weights = (cfg.total_params() * 2) as f64;
        if weights >= capacity {
            return 0;
        }
        let per_query = cfg.kv_bytes_per_query(context).as_bytes() as f64;
        ((capacity - weights) / per_query).floor() as usize
    }

    /// Decode throughput (tokens/s across the batch) at `batch`, `context`.
    ///
    /// Decode is bandwidth-bound: every token reads all weights once per
    /// batch plus each query's KV cache; FC reads amortise over the batch,
    /// attention reads do not (§2's non-linear batching effect).
    pub fn decode_tokens_per_s(&self, cfg: &ModelConfig, batch: usize, context: usize) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let bw = self.spec.mem_bw * self.gpus as f64 * self.eff.mem_efficiency;
        let weight_bytes = (cfg.total_params() * 2) as f64;
        let kv_bytes_per_query = cfg.kv_bytes_per_query(context / 2).as_bytes() as f64; // average growth
        let bytes_per_step = weight_bytes + kv_bytes_per_query * batch as f64;
        // Compute ceiling (GEMM efficiency improves with batch).
        let flops_per_step = cfg.decode_flops_per_token(context / 2) as f64 * batch as f64;
        let compute = self.spec.peak_flops * self.gpus as f64 * self.eff.gemm_efficiency;
        let t_mem = bytes_per_step / bw;
        let t_compute = flops_per_step / compute;
        let t_overhead = self.eff.per_token_overhead.as_secs();
        batch as f64 / (t_mem.max(t_compute) + t_overhead)
    }

    /// Prefill throughput (prompt tokens/s) — compute-bound GEMMs.
    pub fn prefill_tokens_per_s(&self, cfg: &ModelConfig, batch: usize, prompt: usize) -> f64 {
        let compute = self.spec.peak_flops * self.gpus as f64 * self.eff.gemm_efficiency;
        let flops = cfg.prefill_flops(prompt) as f64 * batch as f64;
        let bw = self.spec.mem_bw * self.gpus as f64 * self.eff.mem_efficiency;
        let bytes = (cfg.total_params() * 2) as f64; // weights stream once per layer pass
        let t = (flops / compute).max(bytes / bw);
        (batch * prompt) as f64 / t
    }

    /// Per-query latency for `prefill` + `decode` tokens at `batch`.
    pub fn query_latency(
        &self,
        cfg: &ModelConfig,
        batch: usize,
        context: usize,
        prefill: usize,
        decode: usize,
    ) -> Time {
        let p = self.prefill_tokens_per_s(cfg, batch, prefill).max(1e-9);
        let d = self.decode_tokens_per_s(cfg, batch, context).max(1e-9);
        let secs = (batch * prefill) as f64 / p + (batch * decode) as f64 / d * 1.0;
        Time::from_secs_f64(secs)
    }

    /// Compute utilization during decode (Figure 2b: ~21% for Llama2-70B).
    pub fn decode_utilization(&self, cfg: &ModelConfig, batch: usize, context: usize) -> f64 {
        let tokens = self.decode_tokens_per_s(cfg, batch, context);
        let flops = tokens * cfg.decode_flops_per_token(context / 2) as f64;
        flops / (self.spec.peak_flops * self.gpus as f64)
    }

    /// Average board power: near TDP whenever the GPU is streaming
    /// (Figure 15a/b: both phases run close to the 300 W limit).
    pub fn avg_power(&self, utilization_hint: f64) -> Power {
        let idle = Power::watts(85.0);
        let dynamic = (self.spec.tdp.as_watts() - 85.0) * utilization_hint.clamp(0.0, 1.0);
        Power::watts(idle.as_watts() + dynamic) * self.gpus as f64
    }
}

/// A point of the Figure 15(b) clock/power throttling trace.
#[derive(Debug, Clone, Copy)]
pub struct ThrottlePoint {
    /// Time into the run, milliseconds.
    pub t_ms: f64,
    /// SM clock, MHz.
    pub sm_clock_mhz: f64,
    /// Board power, watts.
    pub board_power_w: f64,
}

/// Synthesises the vLLM init → prefill → decode throttling trace of
/// Figure 15(b): max clock while idle, clock throttled to hold TDP during
/// prefill, clock recovering during decode with power still near TDP.
pub fn throttle_trace(spec: &GpuSpec, samples: usize) -> Vec<ThrottlePoint> {
    let mut out = Vec::with_capacity(samples);
    let init_end = samples / 5;
    let prefill_end = samples / 3;
    for i in 0..samples {
        let t_ms = i as f64 * 100.0;
        let (clock, power) = if i < init_end {
            // Initialization: low load, max clock, modest power.
            (spec.max_clock_mhz, 120.0 + 15.0 * ((i % 7) as f64 / 7.0))
        } else if i < prefill_end {
            // Prefill: high SM utilization → throttle to hold TDP.
            let dip = 1.0 - 0.22 * (((i - init_end) % 5) as f64 / 5.0 + 0.6).min(1.0);
            (spec.max_clock_mhz * dip, spec.tdp.as_watts() - 4.0)
        } else {
            // Decode: lower SM utilization → clock climbs back, power ~TDP.
            let rise = 0.88 + 0.12 * (((i - prefill_end) as f64) / (samples / 3) as f64).min(1.0);
            (spec.max_clock_mhz * rise, spec.tdp.as_watts() - 10.0)
        };
        out.push(ThrottlePoint { t_ms, sm_clock_mhz: clock, board_power_w: power });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama70b() -> ModelConfig {
        ModelConfig::llama2_70b()
    }

    #[test]
    fn figure1_capacity_wall() {
        let sys = GpuSystem::a100x(4);
        let cfg = llama70b();
        // Figure 1: throughput saturates near batch 128 at 4K, batch 16 at 32K.
        let b4k = sys.max_batch(&cfg, 4096);
        assert!((96..200).contains(&b4k), "4K max batch {b4k}");
        let cfg32 = ModelConfig::llama2_70b_long(32_768);
        let b32k = sys.max_batch(&cfg32, 32_768);
        assert!((8..32).contains(&b32k), "32K max batch {b32k}");
        assert!(b32k < b4k / 4);
    }

    #[test]
    fn figure1_throughput_plateaus() {
        let sys = GpuSystem::a100x(4);
        let cfg = llama70b();
        let t32 = sys.decode_tokens_per_s(&cfg, 32, 4096);
        let t128 = sys.decode_tokens_per_s(&cfg, 128, 4096);
        let t256 = sys.decode_tokens_per_s(&cfg, 256, 4096);
        assert!(t128 > t32 * 1.5, "batching helps: {t32} → {t128}");
        // Diminishing returns past the saturation batch.
        assert!(t256 < t128 * 1.6, "plateau: {t128} → {t256}");
        // Figure 1 reports several hundred tokens/s at the plateau.
        assert!((300.0..1500.0).contains(&t128), "plateau level {t128}");
    }

    #[test]
    fn figure2b_low_decode_utilization() {
        let sys = GpuSystem::a100x(4);
        let util = sys.decode_utilization(&llama70b(), 128, 4096);
        // Paper: 21% for Llama2-70B.
        assert!((0.08..0.40).contains(&util), "utilization {util}");
    }

    #[test]
    fn prefill_is_much_faster_per_token_than_decode() {
        let sys = GpuSystem::a100x(4);
        let cfg = llama70b();
        let prefill = sys.prefill_tokens_per_s(&cfg, 128, 512);
        let decode = sys.decode_tokens_per_s(&cfg, 128, 4096);
        // §2: decoding a token takes 3.4× longer than encoding one.
        assert!(prefill > decode * 2.0, "prefill {prefill} vs decode {decode}");
    }

    #[test]
    fn power_is_near_tdp_under_load() {
        let sys = GpuSystem::a100x(4);
        let p = sys.avg_power(0.95);
        assert!((1_100.0..1_220.0).contains(&p.as_watts()), "{p}");
    }

    #[test]
    fn throttle_trace_shape() {
        let trace = throttle_trace(&GpuSpec::a100(), 60);
        assert_eq!(trace.len(), 60);
        // Init at max clock.
        assert_eq!(trace[0].sm_clock_mhz, 1410.0);
        // Prefill throttles below decode's recovered clock.
        let prefill_clock = trace[15].sm_clock_mhz;
        let decode_clock = trace[55].sm_clock_mhz;
        assert!(prefill_clock < decode_clock);
        // Power near TDP in both loaded phases.
        assert!(trace[15].board_power_w > 280.0);
        assert!(trace[55].board_power_w > 280.0);
    }
}
