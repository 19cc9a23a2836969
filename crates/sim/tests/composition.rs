//! Invariants of the system-level performance composition (§5 of the
//! paper): how one simulated block step scales across pipeline stages,
//! tensor shards and data-parallel replicas.

use cent_compiler::Strategy;
use cent_model::ModelConfig;
use cent_sim::{evaluate, qos_sweep};
use cent_types::consts::host;
use cent_types::Time;

fn tiny() -> ModelConfig {
    ModelConfig::tiny()
}

// PP: the batch equals the pipeline stage count — one query per stage
// (§5.1), regardless of how many devices host those stages.
#[test]
fn pp_stage_count_equals_batch() {
    for devices in [1, 2] {
        let perf = evaluate(&tiny(), devices, Strategy::PipelineParallel, 32).unwrap();
        assert_eq!(perf.mapping.batch, tiny().layers, "devices {devices}");
    }
    // DP replicas keep the per-replica batch.
    let dp = evaluate(&tiny(), 2, Strategy::DataParallel { replicas: 2 }, 32).unwrap();
    assert_eq!(dp.mapping.batch, tiny().layers);
    // TP serves a single query.
    let tp = evaluate(&tiny(), 2, Strategy::TensorParallel, 32).unwrap();
    assert_eq!(tp.mapping.batch, 1);
}

// PP: a token's latency is the pipeline round trip — stages × interval plus
// the host sampling step — and the system emits one token per interval, so
// latency and throughput are linked through the stage count.
#[test]
fn pp_token_latency_is_stages_times_interval() {
    let cfg = tiny();
    let perf = evaluate(&cfg, 2, Strategy::PipelineParallel, 32).unwrap();
    let interval_from_throughput = Time::from_secs_f64(1.0 / perf.decode_tokens_per_s);
    let derived =
        Time::from_ps(interval_from_throughput.as_ps() * cfg.layers as u64) + host::TOP_K_SAMPLING;
    let (got, want) = (perf.token_latency.as_secs(), derived.as_secs());
    assert!((got - want).abs() / want < 1e-6, "token latency {got} vs derived {want}");
}

// TP shrinks only the fully-connected phases: the attention/norm/RoPE time
// stays on the master device, so doubling the shard count can save at most
// the remaining FC time — and must pay more CXL, not less.
#[test]
fn tp_shrinks_only_fc_phases() {
    let cfg = tiny();
    let tp2 = evaluate(&cfg, 2, Strategy::TensorParallel, 32).unwrap();
    let tp4 = evaluate(&cfg, 4, Strategy::TensorParallel, 32).unwrap();

    // The underlying block partitions exactly into FC + master time.
    assert!(tp2.block.fc_time() > Time::ZERO);
    assert_eq!(tp2.block.fc_time() + tp2.block.master_time(), tp2.block.total);

    // Broadcast/gather fan-out grows with the shard count.
    assert!(tp4.breakdown.cxl > tp2.breakdown.cxl);

    // Latency saving from 2 → 4 shards is bounded by the sharded FC time
    // alone (FC/2 − FC/4 per block): everything else is constant or grows.
    let saved = tp2.token_latency.saturating_sub(tp4.token_latency);
    let fc_bound = Time::from_ps(tp2.block.fc_time().as_ps() / 4 * cfg.layers as u64);
    assert!(saved <= fc_bound, "saved {saved} exceeds FC bound {fc_bound}");
}

// DP multiplies throughput by the replica count (Figure 19's scaling law)
// without changing per-query latency.
#[test]
fn dp_multiplies_throughput_not_latency() {
    let one = evaluate(&tiny(), 1, Strategy::PipelineParallel, 32).unwrap();
    for replicas in [2usize, 4] {
        let dp = evaluate(&tiny(), replicas, Strategy::DataParallel { replicas }, 32).unwrap();
        let ratio = dp.decode_tokens_per_s / one.decode_tokens_per_s;
        let r = replicas as f64;
        assert!((ratio - r).abs() / r < 0.1, "replicas {replicas}: ratio {ratio}");
        assert_eq!(dp.token_latency, one.token_latency, "replicas {replicas}");
        let prefill_ratio = dp.prefill_tokens_per_s / one.prefill_tokens_per_s;
        assert!((prefill_ratio - r).abs() / r < 0.1, "prefill ratio {prefill_ratio}");
    }
}

// The breakdown components always sum to at least the token latency's
// device-visible share, and the mapping context is carried through.
#[test]
fn evaluation_is_self_consistent() {
    let perf = evaluate(&tiny(), 2, Strategy::PipelineParallel, 32).unwrap();
    assert_eq!(perf.context, 32);
    assert!(perf.breakdown.total() > Time::ZERO);
    assert!(perf.prefill_tokens_per_s > 0.0);
    // Query latency is linear in the token count.
    let q1 = perf.query_latency(4, 4);
    let q2 = perf.query_latency(8, 8);
    assert_eq!(q2.as_ps(), 2 * q1.as_ps());
}

// Pure TP is the hybrid mapping with a single group, so the two price the
// same deployment identically.
#[test]
fn tp_evaluates_as_the_one_group_hybrid() {
    let cfg = ModelConfig::llama2_7b();
    let tp = evaluate(&cfg, 8, Strategy::TensorParallel, 4096).unwrap();
    let hybrid = evaluate(&cfg, 8, Strategy::Hybrid { tp: 8 }, 4096).unwrap();
    assert_eq!(tp.token_latency, hybrid.token_latency);
    assert_eq!(tp.decode_tokens_per_s.to_bits(), hybrid.decode_tokens_per_s.to_bits());
    assert_eq!(tp.prefill_tokens_per_s.to_bits(), hybrid.prefill_tokens_per_s.to_bits());
    assert_eq!(tp.breakdown, hybrid.breakdown);
}

// Figure 14(b)'s trade-off: widening the TP groups shortens every token's
// trip through the model but leaves fewer pipeline stages, and so fewer
// queries in flight.
#[test]
fn qos_sweep_trades_throughput_for_latency() {
    let (points, skipped) = qos_sweep(&ModelConfig::llama2_7b(), 8, 4096, 512, 3584);
    assert!(skipped.is_empty(), "{skipped:?}");
    let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
    assert_eq!(labels, ["PP=32", "PP=4 TP=2", "PP=2 TP=4", "TP=8"]);
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        assert!(b.query_latency_min < a.query_latency_min, "{} → {}: latency", a.label, b.label);
        assert!(b.queries_per_min < a.queries_per_min, "{} → {}: throughput", a.label, b.label);
    }
}
