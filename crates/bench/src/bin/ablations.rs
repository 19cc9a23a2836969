//! Ablations of CENT's design choices: the hierarchical PIM-PNM split,
//! switch multicast, GQA versus MHA, attention placement under tensor
//! parallelism, and batching on top of pipeline parallelism.
use cent_bench::Report;
use cent_compiler::{compile_decode_step, BlockPlacement, Strategy};
use cent_cxl::{CxlFabric, FabricConfig, NodeId};
use cent_isa::analyze;
use cent_model::ModelConfig;
use cent_sim::evaluate;
use cent_types::{ByteSize, ChannelId, DeviceId, Time};

fn main() {
    let mut report = Report::new(
        "ablations",
        "Design-choice ablations",
        "hierarchical PIM-PNM (>99% MAC FLOPs), multicast switch benefit, GQA effect, PP batching, TP attention placement",
    );

    // 1. Hierarchical PIM-PNM: MAC share of arithmetic FLOPs in a real trace.
    let cfg = ModelConfig::llama2_7b();
    let channels: Vec<ChannelId> = (0..8).map(ChannelId).collect();
    let placement = BlockPlacement::plan(&cfg, channels).expect("placement");
    let step = compile_decode_step(&placement, 2047).expect("compile");
    let stats = analyze(&step.trace);
    report.push_series(
        "PIM-PNM split (Llama2-7B block @2K ctx)",
        "fraction / count",
        &[
            ("MAC FLOP fraction".into(), stats.mac_flop_fraction()),
            ("PIM instructions".into(), stats.pim_instructions as f64),
            ("PNM instructions".into(), stats.pnm_instructions as f64),
        ],
    );

    // 2. Multicast switch vs serial unicast for a 31-way broadcast.
    let payload = ByteSize::kib(16);
    let targets: Vec<DeviceId> = (1..32).map(DeviceId).collect();
    let mut mc = CxlFabric::new(FabricConfig::cent(32));
    let bcast = mc.broadcast(NodeId::Device(DeviceId(0)), &targets, payload, Time::ZERO).unwrap();
    let mut uc = CxlFabric::new(FabricConfig::without_multicast(32));
    let mut serial = Time::ZERO;
    for &d in &targets {
        serial = uc
            .write(NodeId::Device(DeviceId(0)), NodeId::Device(d), payload, serial)
            .unwrap()
            .completed_at;
    }
    report.push_series(
        "multicast vs serial unicast (16 KB to 31 devices)",
        "us",
        &[
            ("multicast switch".into(), bcast.completed_at.as_us()),
            ("serial unicast".into(), serial.as_us()),
        ],
    );

    // 3. GQA vs MHA memory effect (the reason CENT's 70B edge shrinks).
    let mha = ModelConfig { kv_heads: 64, name: "Llama2-70B-MHA", ..ModelConfig::llama2_70b() };
    let gqa = ModelConfig::llama2_70b();
    report.push_series(
        "GQA KV cache per query @4K",
        "GiB",
        &[
            ("GQA (8 kv heads)".into(), gqa.kv_bytes_per_query(4096).as_gib()),
            ("MHA (64 kv heads)".into(), mha.kv_bytes_per_query(4096).as_gib()),
        ],
    );

    // 4. TP attention placement: CXL traffic if attention were distributed
    //    (AllReduce per head group) vs confined to the master device.
    let plan = cent_compiler::SystemMapping::plan(&gqa, 32, Strategy::TensorParallel).unwrap();
    let confined = plan.tp_traffic_per_block().as_bytes() as f64 / 1024.0;
    // Distributing attention adds an AllReduce of the full embedding per
    // attention sublayer: 2 × hidden × 2 B × (tp-1)/tp per device, per block.
    let allreduce = 2.0 * (gqa.hidden as f64) * 2.0 * 31.0 / 32.0 * 32.0 / 1024.0;
    report.push_series(
        "TP CXL traffic per block",
        "KiB",
        &[
            ("attention on master (paper)".into(), confined),
            ("attention distributed (+AllReduce)".into(), confined + allreduce),
        ],
    );

    // 5. Batching on top of PP: PP already saturates PIM; batching b queries
    //    per stage multiplies the stage interval by ~b without adding
    //    throughput (§5.1).
    let tiny = ModelConfig::tiny();
    match evaluate(&tiny, 2, Strategy::PipelineParallel, 32) {
        Ok(pp) => {
            let t1 = pp.block.total.as_us();
            report.push_series(
                "PP intra-stage batching (tiny model)",
                "us per stage",
                &[
                    ("batch 1 / stage (paper)".into(), t1),
                    ("batch 4 / stage (modelled)".into(), t1 * 4.0),
                ],
            );
        }
        Err(e) => {
            eprintln!("ablations (5): {} at 32-token context on 2 devices failed: {e}", tiny.name)
        }
    }
    report.emit();
}
