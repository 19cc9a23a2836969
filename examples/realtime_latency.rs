//! Real-time serving: the latency-critical tensor-parallel deployment of
//! §5.2, plus the hybrid TP-PP QoS spectrum of §5.3 / Figure 14(b).
//!
//! Run with: `cargo run --release --example realtime_latency`
use cent_compiler::Strategy;
use cent_model::ModelConfig;
use cent_sim::{evaluate, qos_sweep};

fn main() -> Result<(), cent_types::CentError> {
    let cfg = ModelConfig::llama2_7b();
    let devices = 8;
    println!("latency-critical serving of {} on {devices} devices\n", cfg.name);
    let tp = evaluate(&cfg, devices, Strategy::TensorParallel, 4096)?;
    println!("tensor parallel (TP={devices}, batch 1):");
    println!("  token latency:   {}", tp.token_latency);
    println!("  tokens/s:        {:.1}", tp.decode_tokens_per_s);

    println!("\nQoS spectrum (512-in / 3584-out queries):");
    println!("{:>16} {:>18} {:>16}", "mapping", "query latency (min)", "queries/min");
    let (points, skipped) = qos_sweep(&cfg, devices, 4096, 512, 3584);
    for p in points {
        println!("{:>16} {:>18.2} {:>16.2}", p.label, p.query_latency_min, p.queries_per_min);
    }
    for (label, e) in skipped {
        println!("{label:>16} does not evaluate: {e}");
    }
    Ok(())
}
