//! Figure 14: long-context decode speedup, QoS curve, CENT latency
//! breakdown and prefill/decode latency split (Llama2-70B).
use cent_baselines::GpuSystem;
use cent_bench::Report;
use cent_compiler::Strategy;
use cent_model::ModelConfig;
use cent_sim::{evaluate, qos_sweep};

fn main() {
    let mut report = Report::new(
        "fig14",
        "Llama2-70B analysis",
        "(a) decode speedup grows to ~3.3x at 32K; (b) 3.4-7.6x lower latency at similar throughput; (c) PIM dominates breakdown; (d) decode dominates query latency",
    );
    let gpu = GpuSystem::a100x(4);

    // (a) decode throughput speedup vs context.
    let mut speedups = Vec::new();
    for ctx in [4096usize, 8192, 16384, 32768] {
        let cfg = ModelConfig::llama2_70b_long(ctx);
        // 16K/32K contexts need the 16 Gb parts (1 TB system); model that as
        // more devices carrying the same channel count per block.
        let devices = if ctx > 8192 { 64 } else { 32 };
        let cent = match evaluate(&cfg, devices, Strategy::PipelineParallel, ctx) {
            Ok(cent) => cent,
            Err(e) => {
                eprintln!("fig14 (a): {ctx}-token context on {devices} devices failed: {e}");
                continue;
            }
        };
        let gpu_batch = gpu.max_batch(&cfg, ctx).clamp(1, 128);
        let gpu_tput = gpu.decode_tokens_per_s(&cfg, gpu_batch, ctx);
        speedups.push((format!("{}K", ctx / 1024), cent.decode_tokens_per_s / gpu_tput));
    }
    report.push_series("(a) decode speedup vs context", "x", &speedups);

    // (b) QoS sweep.
    let cfg = ModelConfig::llama2_70b();
    match qos_sweep(&cfg, 32, 4096, 512, 3584) {
        Ok(points) => {
            let lat: Vec<(String, f64)> =
                points.iter().map(|p| (p.label.clone(), p.query_latency_min)).collect();
            let tput: Vec<(String, f64)> =
                points.iter().map(|p| (p.label.clone(), p.queries_per_min)).collect();
            report.push_series("(b) query latency", "minutes", &lat);
            report.push_series("(b) throughput", "queries/min", &tput);
        }
        Err(e) => eprintln!("fig14 (b): QoS sweep at 4096-token context on 32 devices failed: {e}"),
    }

    // (c) latency breakdown and (d) prefill vs decode query-latency split,
    // both of the PP=80 point.
    match evaluate(&cfg, 32, Strategy::PipelineParallel, 4096) {
        Ok(pp) => {
            let b = pp.breakdown;
            let total = b.total().as_secs().max(1e-12);
            report.push_series(
                "(c) PP=80 latency breakdown",
                "fraction",
                &[
                    ("PIM".into(), b.pim.as_secs() / total),
                    ("PNM".into(), b.pnm.as_secs() / total),
                    ("CXL".into(), b.cxl.as_secs() / total),
                    ("Host".into(), b.host.as_secs() / total),
                ],
            );
            let mut rows = Vec::new();
            for out in [128usize, 512, 1024, 3584] {
                let total = pp.query_latency(512, out);
                rows.push((format!("out {out}"), total.as_secs() / 60.0));
            }
            report.push_series("(d) CENT query latency (in 512)", "minutes", &rows);
            let mut gpu_rows = Vec::new();
            for out in [128usize, 512, 1024, 3584] {
                let t = gpu.query_latency(&cfg, 128, 4096, 512, out);
                gpu_rows.push((format!("out {out}"), t.as_secs() / 60.0));
            }
            report.push_series("(d) GPU query latency (in 512)", "minutes", &gpu_rows);
        }
        Err(e) => {
            eprintln!("fig14 (c), (d): PP=80 at 4096-token context on 32 devices failed: {e}")
        }
    }
    report.emit();
}
