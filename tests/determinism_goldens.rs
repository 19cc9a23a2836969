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
//!
//! The five `PointGolden`s cover the remaining perfbench `paper-figures`
//! points. They were captured while the DRAM model still kept 16 per-bank
//! states and every block step interpreted its own RISC-V calls, so the
//! lockstep-bank model and the shared timing table must reproduce them.
//! The Llama2-7B hybrid `PointGolden` was captured later, when a hybrid
//! group's blocks came to time-share all of its channels as pure TP's do.

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

/// PP=4 TP=2: four stages, each a group of two devices whose eight blocks
/// take turns on all 64 of the group's channels.
#[test]
fn evaluate_llama2_7b_hybrid_tp2_matches_16_bank_golden() {
    assert_point_golden(
        &ModelConfig::llama2_7b(),
        8,
        Strategy::Hybrid { tp: 2 },
        PointGolden {
            token_latency_ps: 12_267_272_000,
            block_total_ps: 408_190_500,
            instructions: 23_018,
            phases_ps: [
                ("Norm", 4_722_500),
                ("FcQkv", 12_541_500),
                ("Rope", 77_169_000),
                ("KvAppend", 2_246_500),
                ("Attention", 257_842_000),
                ("FcWo", 14_832_000),
                ("FcFfn", 38_837_000),
            ],
            dram: [425_920, 425_408, 65_408, 79_360, 14_097_408, 40_448, 0, 1_089_176],
            tokens_per_s_bits: 0x4074_69a7_4ce3_3e99,
        },
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

/// The integers one `evaluate` point produces, captured with a 16-bank
/// DRAM timing model and one RISC-V timing table per block step.
struct PointGolden {
    token_latency_ps: u64,
    block_total_ps: u64,
    instructions: u64,
    /// Per-phase block time in ps, in `BlockPhase` order.
    phases_ps: [(&'static str, u64); 7],
    /// `acts, pres, reads, writes, mac_beats, ewmul_beats, refreshes, commands`.
    dram: [u64; 8],
    tokens_per_s_bits: u64,
}

fn assert_point_golden(cfg: &ModelConfig, devices: usize, strategy: Strategy, want: PointGolden) {
    let ctx = format!("{} on {devices} devices, {strategy:?}", cfg.name);
    let perf = evaluate(cfg, devices, strategy, 4096).unwrap();
    let d = perf.block.dram;
    assert_eq!(perf.token_latency.as_ps(), want.token_latency_ps, "{ctx}: token latency");
    assert_eq!(perf.block.total.as_ps(), want.block_total_ps, "{ctx}: block total");
    assert_eq!(perf.block.instructions, want.instructions, "{ctx}: instructions");
    let phases: Vec<(String, u64)> =
        perf.block.phases.iter().map(|(k, v)| (format!("{k:?}"), v.as_ps())).collect();
    let want_phases: Vec<(String, u64)> =
        want.phases_ps.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    assert_eq!(phases, want_phases, "{ctx}: phases");
    assert_eq!(
        [d.acts, d.pres, d.reads, d.writes, d.mac_beats, d.ewmul_beats, d.refreshes, d.commands],
        want.dram,
        "{ctx}: DRAM counters"
    );
    assert_eq!(perf.decode_tokens_per_s.to_bits(), want.tokens_per_s_bits, "{ctx}: tokens/s");
}

#[test]
fn evaluate_llama2_13b_tp20_matches_16_bank_golden() {
    assert_point_golden(
        &ModelConfig::llama2_13b(),
        20,
        Strategy::TensorParallel,
        PointGolden {
            token_latency_ps: 17_986_086_240,
            block_total_ps: 585_143_500,
            instructions: 30_282,
            phases_ps: [
                ("Norm", 7_562_500),
                ("FcQkv", 29_613_500),
                ("Rope", 96_463_000),
                ("KvAppend", 3_050_500),
                ("Attention", 322_302_500),
                ("FcWo", 36_020_000),
                ("FcFfn", 90_131_500),
            ],
            dram: [651_760, 651_440, 65_120, 63_360, 21_635_840, 32_640, 0, 1_570_330],
            tokens_per_s_bits: 0x404b_cc9c_b659_45a1,
        },
    );
}

#[test]
fn evaluate_llama2_13b_pp20_matches_16_bank_golden() {
    assert_point_golden(
        &ModelConfig::llama2_13b(),
        20,
        Strategy::PipelineParallel,
        PointGolden {
            token_latency_ps: 29_663_220_000,
            block_total_ps: 617_572_500,
            instructions: 30_950,
            phases_ps: [
                ("Norm", 7_562_500),
                ("FcQkv", 36_159_500),
                ("Rope", 96_493_000),
                ("KvAppend", 3_426_500),
                ("Attention", 322_302_500),
                ("FcWo", 44_740_000),
                ("FcFfn", 106_888_500),
            ],
            dram: [629_824, 629_568, 52_672, 51_328, 21_472_000, 26_624, 0, 1_531_368],
            tokens_per_s_bits: 0x4095_1586_37e7_bcd1,
        },
    );
}

#[test]
fn evaluate_llama2_70b_tp32_matches_16_bank_golden() {
    assert_point_golden(
        &ModelConfig::llama2_70b(),
        32,
        Strategy::TensorParallel,
        PointGolden {
            token_latency_ps: 51_807_934_400,
            block_total_ps: 1_192_613_500,
            instructions: 54_258,
            phases_ps: [
                ("Norm", 10_778_500),
                ("FcQkv", 46_583_000),
                ("Rope", 89_125_000),
                ("KvAppend", 866_500),
                ("Attention", 515_684_000),
                ("FcWo", 132_608_000),
                ("FcFfn", 396_968_500),
            ],
            dram: [1_599_808, 1_599_584, 140_928, 82_176, 56_481_792, 41_728, 0, 3_963_610],
            tokens_per_s_bits: 0x4033_4d53_fbc3_847a,
        },
    );
}

#[test]
fn evaluate_llama2_70b_pp32_matches_16_bank_golden() {
    assert_point_golden(
        &ModelConfig::llama2_70b(),
        32,
        Strategy::PipelineParallel,
        PointGolden {
            token_latency_ps: 136_141_520_000,
            block_total_ps: 1_430_196_000,
            instructions: 59_710,
            phases_ps: [
                ("Norm", 10_778_500),
                ("FcQkv", 63_160_500),
                ("Rope", 89_125_000),
                ("KvAppend", 866_500),
                ("Attention", 515_684_000),
                ("FcWo", 184_928_000),
                ("FcFfn", 565_653_500),
            ],
            dram: [1_646_656, 1_646_496, 122_512, 59_648, 56_702_976, 30_464, 0, 3_939_534],
            tokens_per_s_bits: 0x4082_5dae_6737_4006,
        },
    );
}

/// Figure 19 at 128 devices: the sweep picks 8 replicas of a 16-device
/// pipeline.
#[test]
fn evaluate_llama2_70b_at_128_devices_matches_16_bank_golden() {
    let points = scalability_sweep(&ModelConfig::llama2_70b(), &[128], 4096).unwrap();
    let pinned: Vec<(usize, u64, u64)> = points
        .iter()
        .map(|p| (p.devices, p.tokens_per_s.to_bits(), p.utilization.to_bits()))
        .collect();
    assert_eq!(pinned, vec![(128, 0x40a8_a786_1791_35fa, 0x3ff0_0000_0000_0000)]);
    assert_point_golden(
        &ModelConfig::llama2_70b(),
        128,
        Strategy::DataParallel { replicas: 8 },
        PointGolden {
            token_latency_ps: 202_823_640_000,
            block_total_ps: 1_993_265_500,
            instructions: 73_121,
            phases_ps: [
                ("Norm", 10_778_500),
                ("FcQkv", 101_195_500),
                ("Rope", 89_155_000),
                ("KvAppend", 1_266_500),
                ("Attention", 515_684_000),
                ("FcWo", 305_024_000),
                ("FcFfn", 970_162_000),
            ],
            dram: [1_714_736, 1_714_640, 113_796, 37_120, 56_358_912, 19_200, 0, 3_892_484],
            tokens_per_s_bits: 0x40a8_a786_1791_35fa,
        },
    );
}
