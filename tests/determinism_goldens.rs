//! Differential goldens that pin simulator output across refactors.
//!
//! The HashMap → BTreeMap goldens were captured on the pre-conversion tree (unordered
//! `HashMap` state in `CxlFabric::{links,stats}`, `CentSystem::devices`,
//! `PimChannel::{rows,luts}` and the compiler's `ImageBuilder::beats`) and
//! asserted against the deterministic `BTreeMap` replacements: identical
//! simulation output before and after, plus identical output across repeated
//! runs in one process — the property the `cent-lint` D1 rule
//! (`no-hash-collections`) now enforces statically.
//!
//! The `evaluate` goldens were captured with every DRAM column beat issued
//! one `PimChannelTiming::issue` call at a time, before row-segment bursts
//! were timed in closed form: the burst path must reproduce them exactly.

use cent::compiler::{weight_image, BlockPlacement, Strategy};
use cent::core_api::CentSystem;
use cent::cxl::{CxlFabric, FabricConfig, NodeId};
use cent::model::{BlockWeights, ModelConfig};
use cent::sim::{evaluate, scalability_sweep};
use cent::types::{ByteSize, ChannelId, DeviceId, Time};

fn fnv(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x100000001b3);
}

fn image_fingerprint() -> (usize, u64) {
    let cfg = ModelConfig::tiny();
    let p = BlockPlacement::plan(&cfg, vec![ChannelId(0)]).unwrap();
    let w = BlockWeights::random(&cfg, 42);
    let image = weight_image(&p, &w);
    let mut h: u64 = 0xcbf29ce484222325;
    for wr in &image {
        fnv(&mut h, wr.channel.0 as u64);
        fnv(&mut h, wr.bank.0 as u64);
        fnv(&mut h, wr.row.0 as u64);
        fnv(&mut h, wr.col.0 as u64);
        for lane in wr.beat.iter() {
            fnv(&mut h, lane.to_bits() as u64);
        }
    }
    (image.len(), h)
}

#[test]
fn weight_image_matches_pre_btreemap_golden() {
    // Captured with ImageBuilder::beats as a HashMap (plus its sort): the
    // BTreeMap emits the same writes in the same order with no sort at all.
    assert_eq!(image_fingerprint(), (2432, 0x74c27ab3b3dd4300));
    // And repeated construction is bit-stable within the process.
    assert_eq!(image_fingerprint(), image_fingerprint());
}

#[test]
fn functional_decode_matches_pre_btreemap_golden() {
    let cfg = ModelConfig::tiny();
    let mut sys = CentSystem::functional(&cfg, 2, Strategy::PipelineParallel).unwrap();
    sys.load_random_weights(7).unwrap();
    let x = vec![0.01_f32; cfg.hidden];
    let out = sys.decode_token(&x, 0).unwrap();
    let mut h: u64 = 0xcbf29ce484222325;
    for v in &out {
        fnv(&mut h, v.to_bits() as u64);
    }
    // Output embedding, elapsed time and the per-substrate breakdown all
    // captured on the HashMap-keyed device map.
    assert_eq!(h, 0x3e15c796908e0825);
    assert_eq!(sys.elapsed().as_ps(), 4_546_500);
    let b = sys.breakdown();
    assert_eq!(
        (b.pim.as_ps(), b.pnm.as_ps(), b.cxl.as_ps(), b.host.as_ps()),
        (4_865_000, 3_502_000, 0, 0)
    );
}

#[test]
fn fabric_collectives_match_pre_btreemap_golden() {
    let mut f = CxlFabric::new(FabricConfig::cent(32));
    let targets: Vec<DeviceId> = (1..32).map(DeviceId).collect();
    let bc =
        f.broadcast(NodeId::Device(DeviceId(0)), &targets, ByteSize::kib(16), Time::ZERO).unwrap();
    let ga =
        f.gather(NodeId::Device(DeviceId(0)), &targets, ByteSize::kib(4), bc.completed_at).unwrap();
    assert_eq!((bc.delivered_at.as_ps(), bc.completed_at.as_ps()), (1_330_000, 2_532_000));
    assert_eq!((ga.delivered_at.as_ps(), ga.completed_at.as_ps()), (11_670_000, 11_912_000));
    let s = f.stats(NodeId::Device(DeviceId(0)));
    assert_eq!((s.tx_bytes, s.rx_bytes), (24_320, 134_912));
}

/// Pins the integer outputs of one `evaluate` point: token latency (ps),
/// block total (ps), block instructions, every DRAM activity counter of the
/// block, and the bit pattern of the decode throughput.
fn assert_evaluate_golden(
    strategy: Strategy,
    token_latency_ps: u64,
    block_total_ps: u64,
    instructions: u64,
    dram: [u64; 8],
    tokens_per_s_bits: u64,
) {
    let perf = evaluate(&ModelConfig::llama2_7b(), 8, strategy, 4096).unwrap();
    let d = perf.block.dram;
    assert_eq!(perf.token_latency.as_ps(), token_latency_ps, "{strategy:?} token latency");
    assert_eq!(perf.block.total.as_ps(), block_total_ps, "{strategy:?} block total");
    assert_eq!(perf.block.instructions, instructions, "{strategy:?} instructions");
    assert_eq!(
        [d.acts, d.pres, d.reads, d.writes, d.mac_beats, d.ewmul_beats, d.refreshes, d.commands],
        dram,
        "{strategy:?} DRAM counters"
    );
    assert_eq!(perf.decode_tokens_per_s.to_bits(), tokens_per_s_bits, "{strategy:?} tokens/s");
}

#[test]
fn evaluate_llama2_7b_tp8_matches_per_beat_golden() {
    assert_evaluate_golden(
        Strategy::TensorParallel,
        11_577_193_984,
        408_190_500,
        23_018,
        [425_920, 425_408, 65_408, 79_360, 14_097_408, 40_448, 0, 1_089_176],
        0x4055_981c_1e92_b57d,
    );
}

#[test]
fn evaluate_llama2_7b_pp8_matches_per_beat_golden() {
    assert_evaluate_golden(
        Strategy::PipelineParallel,
        27_846_463_968,
        574_523_500,
        26_862,
        [395_760, 395_632, 26_336, 21_760, 13_966_336, 11_648, 0, 973_366],
        0x4091_f7f0_0b8b_0b8f,
    );
}

#[test]
fn scalability_sweep_llama2_70b_matches_per_beat_golden() {
    let points = scalability_sweep(&ModelConfig::llama2_70b(), &[16], 4096).unwrap();
    let pinned: Vec<(usize, u64, u64)> = points
        .iter()
        .map(|p| (p.devices, p.tokens_per_s.to_bits(), p.utilization.to_bits()))
        .collect();
    assert_eq!(pinned, vec![(16, 0x4078_a786_1791_35fa, 0x3ff0_0000_0000_0000)]);
}
