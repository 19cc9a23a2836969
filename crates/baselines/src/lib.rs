//! Analytical baselines for the CENT evaluation (§2, §7).
//!
//! The paper measures a real 4×A100 server and models three PIM/PNM
//! systems; this crate substitutes calibrated analytical models for each:
//!
//! * [`GpuSystem`] — A100 roofline + vLLM batching/capacity model
//!   (Figures 1, 2, 13-15) with the TDP [`throttle_trace`] of Figure 15b;
//! * [`PimNode`] — CXL-PNM, AttAcc and NeuPIM comparators (Figures 17-18);
//! * [`table1`] — the industrial PIM prototype spec sheet;
//! * [`encoder_utilization`] — BERT/ResNet compute utilization (Figure 2b);
//! * [`sharegpt_lengths`] — the synthetic ShareGPT-like length distribution
//!   for the NeuPIM comparison.

#![forbid(unsafe_code)]

mod gpu;
mod pim_systems;

pub use gpu::{throttle_trace, GpuSpec, GpuSystem, ServingEfficiency, ThrottlePoint};
pub(crate) use pim_systems::KWH_PRICE_LOCAL;
pub use pim_systems::{table1, HwSpec, PimNode};

use cent_types::Rng64;

/// GPU compute utilization of high-operational-intensity models
/// (Figure 2b: BERT ≈ 43%, ResNet-152 ≈ 80%; Llama2-70B ≈ 21%).
pub fn encoder_utilization(model: &str) -> f64 {
    match model {
        "BERT" => 0.43,
        "ResNet-152" => 0.80,
        _ => 0.21,
    }
}

/// Synthetic ShareGPT-like (input, output) length pairs: log-normal fits to
/// the published dataset statistics (mean input ≈ 160, mean output ≈ 210,
/// heavy tail), seeded for reproducibility.
pub fn sharegpt_lengths(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng64::seed(seed);
    let mut sample = |mu: f64, sigma: f64, cap: usize| -> usize {
        let z = rng.normal();
        ((mu + sigma * z).exp() as usize).clamp(4, cap)
    };
    (0..n).map(|_| (sample(4.6, 1.0, 2048), sample(5.0, 0.9, 2048))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_ordering_matches_figure2b() {
        assert!(encoder_utilization("ResNet-152") > encoder_utilization("BERT"));
        assert!(encoder_utilization("BERT") > encoder_utilization("Llama2-70B"));
    }

    #[test]
    fn sharegpt_lengths_are_plausible_and_reproducible() {
        let a = sharegpt_lengths(500, 7);
        let b = sharegpt_lengths(500, 7);
        assert_eq!(a, b);
        let mean_in: f64 = a.iter().map(|(i, _)| *i as f64).sum::<f64>() / 500.0;
        let mean_out: f64 = a.iter().map(|(_, o)| *o as f64).sum::<f64>() / 500.0;
        assert!((60.0..400.0).contains(&mean_in), "mean in {mean_in}");
        assert!((80.0..500.0).contains(&mean_out), "mean out {mean_out}");
        assert!(a.iter().all(|(i, o)| *i <= 2048 && *o <= 2048));
    }
}
