//! System-level performance composition: pipelines, tensor shards, QoS.
//!
//! One simulated block step (see [`crate::block_sim`]) is composed across
//! stages, devices and queries following §5 of the paper. A pipeline
//! stage is one block under PP and DP, and one group of `tp` devices under
//! TP and Hybrid (TP within a group, PP across groups, §5.3; pure TP is a
//! single group). [`SystemMapping::blocks_per_stage`] says which, and
//! every strategy is priced by the same rules:
//!
//! * a block sharded over `tp > 1` devices runs its FC phases on all
//!   `tp × 32` channels it owns, while attention, norms and RoPE stay on
//!   the master device; it pays the embedding broadcast and the FC
//!   gather on the CXL fabric;
//! * blocks on one device that belong to different stages run at once on
//!   disjoint channels and share only the device's PNM front-end; the
//!   blocks of one stage run one at a time;
//! * a token traverses every block once, paying the 16 KB stage-to-stage
//!   embedding hop per block; one query-token leaves the pipeline per
//!   stage interval (`blocks_per_stage` block steps), and the batch is the
//!   stage count;
//! * DP replicas multiply throughput.

use cent_compiler::{Strategy, SystemMapping};
use cent_cxl::{CxlFabric, FabricConfig, NodeId};
use cent_device::LatencyBreakdown;
use cent_model::ModelConfig;
use cent_types::consts::{host, CHANNELS_PER_DEVICE};
use cent_types::{ByteSize, CentError, CentResult, DeviceId, Time};

use crate::block_sim::{simulate_block_avg_on, timing_device, BlockTiming};

/// Performance of a CENT deployment for one workload point.
#[derive(Debug, Clone)]
pub struct CentPerformance {
    /// The mapping evaluated.
    pub mapping: SystemMapping,
    /// Per-token, per-query latency during decode.
    pub token_latency: Time,
    /// System decode throughput in tokens/second (all queries).
    pub decode_tokens_per_s: f64,
    /// System prefill throughput in tokens/second.
    pub prefill_tokens_per_s: f64,
    /// Per-token latency attribution (PIM/PNM/CXL/host).
    pub breakdown: LatencyBreakdown,
    /// The underlying block timing.
    pub block: BlockTiming,
    /// Average context used for the evaluation.
    pub context: usize,
}

impl CentPerformance {
    /// End-to-end query latency for `prefill` prompt tokens plus `decode`
    /// generated tokens.
    pub fn query_latency(&self, prefill: usize, decode: usize) -> Time {
        // Prefill processes prompt tokens through the same pipeline (§5.5).
        let per_token = self.token_latency;
        Time::from_ps(per_token.as_ps() * (prefill + decode) as u64)
    }

    /// End-to-end throughput in queries/minute for a given output length.
    pub fn queries_per_minute(&self, prefill: usize, decode: usize) -> f64 {
        let tokens = (prefill + decode) as f64;
        self.decode_tokens_per_s * 60.0 / tokens
    }
}

/// Evaluates `cfg` on `devices` CENT devices with `strategy` at `context`.
///
/// # Errors
///
/// Propagates mapping and simulation errors.
pub fn evaluate(
    cfg: &ModelConfig,
    devices: usize,
    strategy: Strategy,
    context: usize,
) -> CentResult<CentPerformance> {
    let mapping = SystemMapping::plan(cfg, devices, strategy)?;
    // Wide TP shards can exceed the Shared Buffer budget; simulate with the
    // largest feasible channel count and rescale the FC phases below.
    let sim_channels = cent_compiler::max_feasible_channels(cfg, mapping.channels_per_block);
    // Both block averages run on one device, so each distinct `RISCV` call
    // is interpreted once per evaluation.
    let mut dev = timing_device();
    let block = simulate_block_avg_on(&mut dev, cfg, sim_channels, context)?;
    let mut fabric = CxlFabric::new(FabricConfig::cent(devices.max(2)));
    let emb = mapping.embedding_bytes();

    // Stage-to-stage embedding hop measured on the fabric model.
    let hop = fabric
        .write(NodeId::Device(DeviceId(0)), NodeId::Device(DeviceId(1)), emb, Time::ZERO)?
        .delivered_at;

    // A block sharded over `tp` devices broadcasts the embedding to its
    // shards and gathers their FC partials.
    let tp = mapping.tp_degree;
    let cxl_per_block = if tp > 1 {
        let targets: Vec<DeviceId> = (1..tp as u16).map(DeviceId).collect();
        let bcast =
            fabric.broadcast(NodeId::Device(DeviceId(0)), &targets, emb, Time::ZERO)?.completed_at;
        let gather_bytes = ByteSize::bytes(mapping.tp_traffic_per_block().as_bytes() / tp as u64);
        let gather = fabric
            .gather(NodeId::Device(DeviceId(0)), &targets, gather_bytes, Time::ZERO)?
            .delivered_at;
        bcast + gather
    } else {
        Time::ZERO
    };
    let step = |b: &BlockTiming| block_step(b, sim_channels, tp, cxl_per_block);

    // The stages hosted on one device run at once on disjoint channels and
    // share only its decoder/PNM front-end, so the PNM share of a block
    // serialises across them.
    let pnm_share = if block.total > Time::ZERO {
        block.breakdown.pnm.as_ps() as f64 / block.total.as_ps() as f64
    } else {
        0.0
    };
    let stages_per_device = mapping.blocks_per_device / mapping.blocks_per_stage;
    let sharing = 1.0 + pnm_share * (stages_per_device - 1) as f64;
    let block_interval = Time::from_ps((step(&block).as_ps() as f64 * sharing) as u64) + hop;
    let stage_interval = Time::from_ps(block_interval.as_ps() * mapping.blocks_per_stage as u64);

    // A token traverses every block once; the host samples at the end.
    let token_latency =
        Time::from_ps(block_interval.as_ps() * cfg.layers as u64) + host::TOP_K_SAMPLING;
    let replicas = mapping.replicas.max(1) as f64;
    let decode_tokens_per_s = if mapping.batch > 1 {
        // One query-token exits the pipeline per stage interval.
        replicas / stage_interval.as_secs()
    } else {
        replicas / token_latency.as_secs()
    };
    // Prefill runs prompt tokens through the same path (§5.5); its
    // throughput matches decode token rate at small contexts.
    let prefill_block = simulate_block_avg_on(&mut dev, cfg, sim_channels, context.min(512))?;
    let prefill_tokens_per_s =
        replicas / (step(&prefill_block).as_secs() * sharing * mapping.blocks_per_stage as f64);

    let stages = cfg.layers.div_ceil(mapping.blocks_per_stage) as u64;
    let mut breakdown = block.breakdown.scaled(cfg.layers as f64);
    breakdown.cxl += Time::from_ps(cxl_per_block.as_ps() * cfg.layers as u64)
        + Time::from_ps(hop.as_ps() * stages);
    breakdown.host += host::TOP_K_SAMPLING + host::DISPATCH_PER_TOKEN;

    Ok(CentPerformance {
        mapping,
        token_latency,
        decode_tokens_per_s,
        prefill_tokens_per_s,
        breakdown,
        block,
        context,
    })
}

/// One step of `block` on its stage: the simulated block as is when it
/// owns its channels on one device, or, when it is sharded over `tp`
/// devices, its FC phases rescaled from the `sim_channels` simulated to the
/// `tp × 32` channels it owns, plus the master-device phases and `comm`.
fn block_step(block: &BlockTiming, sim_channels: usize, tp: usize, comm: Time) -> Time {
    if tp == 1 {
        return block.total;
    }
    let owned = (tp * CHANNELS_PER_DEVICE) as u64;
    Time::from_ps(block.fc_time().as_ps() * sim_channels as u64 / owned)
        + block.master_time()
        + comm
}

/// A point on the QoS latency/throughput curve (Figure 14b).
#[derive(Debug, Clone)]
pub struct QosPoint {
    /// Strategy label, e.g. "PP=80" or "PP=4 TP=8".
    pub label: String,
    /// Query latency in minutes for the workload.
    pub query_latency_min: f64,
    /// Throughput in queries/minute.
    pub queries_per_min: f64,
}

/// Sweeps the PP↔TP spectrum of §7.1's QoS study.
///
/// Returns the points of the strategies that evaluate, and the label and
/// error of each strategy that does not (an infeasible mapping or block).
pub fn qos_sweep(
    cfg: &ModelConfig,
    devices: usize,
    context: usize,
    prefill: usize,
    decode: usize,
) -> (Vec<QosPoint>, Vec<(String, CentError)>) {
    let mut points = Vec::new();
    let mut skipped = Vec::new();
    let mut strategies: Vec<(String, Strategy)> =
        vec![(format!("PP={}", cfg.layers), Strategy::PipelineParallel)];
    for tp in [2usize, 4, 8, 16] {
        if devices.is_multiple_of(tp) && tp < devices {
            strategies.push((format!("PP={} TP={tp}", devices / tp), Strategy::Hybrid { tp }));
        }
    }
    strategies.push((format!("TP={devices}"), Strategy::TensorParallel));
    for (label, strategy) in strategies {
        match evaluate(cfg, devices, strategy, context) {
            Ok(perf) => {
                let latency = perf.query_latency(prefill, decode);
                points.push(QosPoint {
                    label,
                    query_latency_min: latency.as_secs() / 60.0,
                    queries_per_min: perf.queries_per_minute(prefill, decode),
                });
            }
            Err(e) => skipped.push((label, e)),
        }
    }
    (points, skipped)
}

/// One point of the Figure 19 scalability study.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Devices in the system.
    pub devices: usize,
    /// System decode throughput (tokens/s).
    pub tokens_per_s: f64,
    /// Fraction of devices doing useful work.
    pub utilization: f64,
}

/// Sweeps device counts with PP+DP mapping, reproducing the plateaus of
/// Figure 19 (blocks are never split across devices, so some counts leave
/// devices idle).
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn scalability_sweep(
    cfg: &ModelConfig,
    device_counts: &[usize],
    context: usize,
) -> CentResult<Vec<ScalePoint>> {
    let mut out = Vec::new();
    for &devices in device_counts {
        // Choose the best replica count for PP+DP.
        let mut best: Option<(f64, usize, usize)> = None;
        for replicas in 1..=devices {
            if devices % replicas != 0 {
                continue;
            }
            let Ok(mapping) =
                SystemMapping::plan(cfg, devices, Strategy::DataParallel { replicas })
            else {
                continue;
            };
            // Quick analytic score to avoid simulating every option:
            // pipeline throughput ≈ 1/stage_interval ∝ (feasible) channels
            // per block, and data-parallel replicas multiply it.
            let feasible = cent_compiler::max_feasible_channels(cfg, mapping.channels_per_block);
            let score = replicas as f64 * feasible as f64;
            let used = mapping.used_devices * replicas;
            if best.is_none_or(|(s, _, _)| score > s) {
                best = Some((score, replicas, used));
            }
        }
        let Some((_, replicas, used)) = best else { continue };
        let perf = evaluate(cfg, devices, Strategy::DataParallel { replicas }, context)?;
        out.push(ScalePoint {
            devices,
            tokens_per_s: perf.decode_tokens_per_s,
            utilization: used as f64 / devices as f64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ModelConfig {
        ModelConfig::tiny()
    }

    #[test]
    fn pp_evaluation_produces_throughput() {
        let perf = evaluate(&tiny(), 2, Strategy::PipelineParallel, 32).unwrap();
        assert!(perf.decode_tokens_per_s > 0.0);
        assert!(perf.token_latency > Time::ZERO);
        assert!(perf.query_latency(4, 16) > perf.token_latency);
    }

    #[test]
    fn tp_shards_fc_and_pays_cxl() {
        let pp = evaluate(&tiny(), 2, Strategy::PipelineParallel, 32).unwrap();
        let tp = evaluate(&tiny(), 2, Strategy::TensorParallel, 32).unwrap();
        // TP pays CXL broadcast/gather on every block; PP only hops the
        // embedding. (At tiny scale the comm dominates the FC savings —
        // the latency win only materialises for large models, Figure 13a.)
        assert!(tp.breakdown.cxl > pp.breakdown.cxl);
        assert!(pp.decode_tokens_per_s > tp.decode_tokens_per_s);
        assert_eq!(tp.mapping.batch, 1);
    }

    #[test]
    fn qos_sweep_has_pp_and_tp_endpoints() {
        let (points, skipped) = qos_sweep(&tiny(), 2, 32, 4, 12);
        assert!(skipped.is_empty(), "{skipped:?}");
        assert!(points.len() >= 2);
        assert!(points.iter().any(|p| p.label.starts_with("PP")));
        assert!(points.iter().any(|p| p.label.starts_with("TP")));
    }

    #[test]
    fn scalability_grows_with_devices() {
        let points = scalability_sweep(&tiny(), &[1, 2, 4], 32).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[2].tokens_per_s >= points[0].tokens_per_s);
        for p in &points {
            assert!(p.utilization > 0.0 && p.utilization <= 1.0);
        }
    }

    #[test]
    fn data_parallel_multiplies_throughput() {
        let one = evaluate(&tiny(), 1, Strategy::PipelineParallel, 32).unwrap();
        let two = evaluate(&tiny(), 2, Strategy::DataParallel { replicas: 2 }, 32).unwrap();
        let ratio = two.decode_tokens_per_s / one.decode_tokens_per_s;
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
    }
}
