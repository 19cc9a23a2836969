//! The paper's tables and figures, one function each. Every function takes
//! its experiment id, which names its report and so its
//! `results/<id>.json`.

use cent_baselines::{
    encoder_utilization, sharegpt_lengths, table1 as table1_rows, throttle_trace, GpuSpec,
    GpuSystem, PimNode,
};
use cent_bench::{geomean, Report};
use cent_compiler::{compile_decode_step, BlockPlacement, Strategy, SystemMapping};
use cent_cost::{rental, tokens_per_dollar, ControllerCost, HardwareCosts, NreBreakdown, Tco};
use cent_cxl::{CxlFabric, FabricConfig, NodeId};
use cent_isa::analyze;
use cent_model::ModelConfig;
use cent_power::{
    device_power, tokens_per_joule, ControllerPowerModel, DramEnergyModel, HOST_CPU_POWER,
};
use cent_sim::{evaluate, qos_sweep, scalability_sweep, CentPerformance};
use cent_types::{ByteSize, ChannelId, DeviceId, Dollars, Power, Time};

/// The three Llama2 deployments that Figures 13 and 15 compare:
/// `(model, CENT devices, A100s)`.
fn llama2_cases() -> [(ModelConfig, usize, usize); 3] {
    [
        (ModelConfig::llama2_7b(), 8, 1),
        (ModelConfig::llama2_13b(), 20, 2),
        (ModelConfig::llama2_70b(), 32, 4),
    ]
}

/// The GPU throughput baseline of Figures 13 and 15: batch 128, or the
/// largest batch that fits, and its decode tokens/s at `ctx`.
fn gpu_max_batch(gpu: &GpuSystem, cfg: &ModelConfig, ctx: usize) -> (usize, f64) {
    let batch = 128.min(gpu.max_batch(cfg, ctx).max(1));
    (batch, gpu.decode_tokens_per_s(cfg, batch, ctx))
}

/// Evaluates one pipeline-parallel point of experiment `what`, printing
/// why to stderr when it fails so that a missing point is never silent.
fn evaluated(what: &str, cfg: &ModelConfig, devices: usize, ctx: usize) -> Option<CentPerformance> {
    let e = match evaluate(cfg, devices, Strategy::PipelineParallel, ctx) {
        Ok(perf) => return Some(perf),
        Err(e) => e,
    };
    eprintln!("{what}: {} at {ctx}-token context on {devices} devices failed: {e}", cfg.name);
    None
}

/// Table 1: industrial PIM prototypes vs an A100.
pub fn table1(id: &str) {
    let mut report = Report::new(
        id,
        "Hardware system comparison",
        "AiM: 16 TB/s internal vs A100 2 TB/s external; PIM density 25-75%",
    );
    let rows = table1_rows();
    report.push_series(
        "internal bandwidth",
        "TB/s",
        &rows
            .iter()
            .map(|r| (r.name.to_string(), r.internal_bw_tbs.unwrap_or(0.0)))
            .collect::<Vec<_>>(),
    );
    report.push_series(
        "compute",
        "TFLOPS",
        &rows.iter().map(|r| (r.name.to_string(), r.tflops)).collect::<Vec<_>>(),
    );
    report.push_series(
        "ops per byte",
        "Ops/B",
        &rows.iter().map(|r| (r.name.to_string(), r.ops_per_byte)).collect::<Vec<_>>(),
    );
    for r in &rows {
        println!(
            "{:>9}: {:>10} | ext {:>5} TB/s | cap {:>5} GB | density {}",
            r.name, r.mem_units, r.external_bw_tbs, r.capacity_gb, r.mem_density
        );
    }
    report.emit();
}

/// Table 4: CENT vs GPU system configuration including 3-year TCO.
pub fn table4(id: &str) {
    let mut report = Report::new(
        id,
        "System configurations and TCO",
        "CENT 512 GB / 512+96 TFLOPS / 512 TB/s internal; owned TCO 0.73 vs 1.76 $/h; rental 1.05 vs 5.45 $/h",
    );
    let hw = HardwareCosts::default();
    // Average powers: 27 active CENT devices ≈32 W + 5 idle + host; GPU near TDP.
    let cent_power = Power::watts(27.0 * 32.4 + 5.0 * 8.0 + 185.0);
    let gpu_power = Power::watts(4.0 * 300.0 + 185.0);
    let cent = Tco::owned(hw.cent_system(32, 3.0e6), cent_power);
    let gpu = Tco::owned(hw.gpu_system(4), gpu_power);
    report.push_series(
        "compute throughput",
        "TFLOPS",
        &[("CENT PIM".into(), 512.0), ("CENT PNM".into(), 96.0), ("GPU".into(), 1248.0)],
    );
    report.push_series(
        "peak bandwidth",
        "TB/s",
        &[("CENT internal".into(), 512.0), ("GPU external".into(), 8.0)],
    );
    report.push_series(
        "3-year owned TCO",
        "$/hour",
        &[("CENT".into(), cent.per_hour().amount()), ("GPU".into(), gpu.per_hour().amount())],
    );
    report.push_series(
        "3-year rental TCO",
        "$/hour",
        &[
            ("CENT".into(), rental::HOST_CPU_PER_HOUR.amount() + cent.per_hour().amount()),
            ("GPU".into(), rental::GPU_4XA100_PER_HOUR.amount()),
        ],
    );
    report.emit();
}

/// Table 5: CXL controller custom logic area and power at 28 nm.
pub fn table5(id: &str) {
    let mut report = Report::new(
        id,
        "CXL controller custom logic (28 nm synthesis)",
        "total 7.85 mm² / 1.06 W; instruction buffer dominates area",
    );
    let rows = [
        ("SRAM instruction buffer", 3.33, 0.61),
        ("Shared buffer", 0.11, 0.03),
        ("Accelerators", 1.34, 0.18),
        ("RISC-V cores", 2.94, 0.19),
        ("Others", 0.12, 0.05),
    ];
    let area: Vec<(String, f64)> = rows.iter().map(|r| (r.0.to_string(), r.1)).collect();
    let power: Vec<(String, f64)> = rows.iter().map(|r| (r.0.to_string(), r.2)).collect();
    report.push_series("area", "mm^2", &area);
    report.push_series("power", "W", &power);
    let total_area: f64 = rows.iter().map(|r| r.1).sum();
    let total_power: f64 = rows.iter().map(|r| r.2).sum();
    report.push_series(
        "total",
        "mm^2 / W",
        &[("area".into(), total_area), ("power".into(), total_power)],
    );
    assert!((total_area - 7.84).abs() < 0.05);
    assert!((total_power - 1.06).abs() < 0.01);
    report.emit();
}

/// Table 6: hardware cost bill of materials.
pub fn table6(id: &str) {
    let hw = HardwareCosts::default();
    let mut report = Report::new(
        id,
        "Hardware costs",
        "GPU system $42,128; CENT system $14,873 (CPU + 512 GB GDDR6-PIM + 32 controllers + switch)",
    );
    let ctrl = ControllerCost::at_volume(3.0e6).total().amount();
    report.push_series(
        "bill of materials",
        "$",
        &[
            ("Xeon Gold 6430".into(), hw.host_cpu.amount()),
            ("4x A100 80GB".into(), hw.a100.amount() * 4.0),
            ("512GB GDDR6-PIM".into(), hw.pim_memory_512gb.amount()),
            ("32 CXL controllers".into(), ctrl * 32.0),
            ("CXL switch".into(), hw.cxl_switch.amount()),
            ("GPU system total".into(), hw.gpu_system(4).amount()),
            ("CENT system total".into(), hw.cent_system(32, 3.0e6).amount()),
        ],
    );
    report.emit();
}

/// Figure 1: Llama2-70B inference throughput and memory requirement on
/// 4×A100 80GB versus batch size, for 4K/8K/16K/32K contexts.
pub fn fig01(id: &str) {
    let sys = GpuSystem::a100x(4);
    let mut report = Report::new(
        id,
        "GPU throughput vs batch size and context",
        "throughput plateaus ~600-800 tok/s at 4K; saturation batch falls from 128 (4K) to 8-16 (32K); memory crosses 320 GB",
    );
    for ctx in [4096usize, 8192, 16384, 32768] {
        let cfg = ModelConfig::llama2_70b_long(ctx);
        let mut tput = Vec::new();
        let mut mem = Vec::new();
        for exp in 2..=8 {
            let batch = 1usize << exp;
            let label = format!("ctx{}K b{batch}", ctx / 1024);
            let feasible = batch.min(sys.max_batch(&cfg, ctx).max(1));
            tput.push((label.clone(), sys.decode_tokens_per_s(&cfg, feasible, ctx)));
            mem.push((label, cfg.memory_required(batch, ctx).as_gib()));
        }
        report.push_series(&format!("{}K throughput", ctx / 1024), "tokens/s", &tput);
        report.push_series(&format!("{}K memory", ctx / 1024), "GiB", &mem);
    }
    report.emit();
}

/// Figure 2: (a) GPU query latency growth with batch; (b) compute
/// utilization of Llama2-70B vs BERT vs ResNet-152.
pub fn fig02(id: &str) {
    let sys = GpuSystem::a100x(4);
    let cfg = ModelConfig::llama2_70b();
    let mut report = Report::new(
        id,
        "GPU motivation: latency growth and low utilization",
        "(a) latency rises with batch, violating SLA past ~batch 128; (b) Llama2-70B 21% vs BERT 43% vs ResNet-152 80%",
    );
    let latency: Vec<(String, f64)> = [8usize, 16, 32, 64, 128]
        .iter()
        .map(|&b| {
            let t = sys.query_latency(&cfg, b, 4096, 512, 3584);
            (format!("batch {b}"), t.as_secs() / 60.0)
        })
        .collect();
    report.push_series("query latency", "minutes", &latency);
    let util = vec![
        ("Llama2-70B".to_string(), sys.decode_utilization(&cfg, 128, 4096) * 100.0),
        ("BERT".to_string(), encoder_utilization("BERT") * 100.0),
        ("ResNet-152".to_string(), encoder_utilization("ResNet-152") * 100.0),
    ];
    report.push_series("GPU compute utilization", "%", &util);
    report.emit();
}

/// Figure 12: CXL controller NRE breakdown and per-unit cost vs volume.
pub fn fig12(id: &str) {
    let nre = NreBreakdown::default();
    let mut report = Report::new(
        id,
        "CXL controller cost breakdown",
        "NRE ~$25M total; per-unit cost $11.9 at 3M volume, die+packaging < $4",
    );
    report.push_series(
        "NRE breakdown",
        "M$",
        &[
            ("System NRE".into(), nre.system_nre.amount() / 1e6),
            ("Package design".into(), nre.package_design.amount() / 1e6),
            ("IP licensing".into(), nre.ip_licensing.amount() / 1e6),
            ("Frontend labor".into(), nre.frontend_labor.amount() / 1e6),
            ("Backend CAD".into(), nre.backend_cad.amount() / 1e6),
            ("Backend labor".into(), nre.backend_labor.amount() / 1e6),
            ("Mask".into(), nre.mask.amount() / 1e6),
            ("Total".into(), nre.total().amount() / 1e6),
        ],
    );
    let volumes = [0.25e6, 0.5e6, 1.0e6, 2.0e6, 3.0e6, 4.0e6, 5.0e6];
    let curve: Vec<(String, f64)> = volumes
        .iter()
        .map(|&v| (format!("{:.2}M units", v / 1e6), ControllerCost::at_volume(v).total().amount()))
        .collect();
    report.push_series("unit cost vs volume", "$", &curve);
    let at3m = ControllerCost::at_volume(3.0e6);
    report.push_series(
        "cost components at 3M",
        "$",
        &[
            ("die".into(), at3m.die.amount()),
            ("packaging".into(), at3m.packaging.amount()),
            ("NRE amortised".into(), at3m.nre.amount()),
            ("total".into(), at3m.total().amount()),
        ],
    );
    report.emit();
}

/// Figure 17: CENT vs Samsung CXL-PNM on OPT-66B (prefill 64, decode 1024).
pub fn fig17(id: &str) {
    let cfg = ModelConfig::opt_66b();
    let ctx = 64 + 1024;
    let mut report = Report::new(
        id,
        "CENT vs CXL-PNM on OPT-66B",
        "CENT (24 devices) reaches ~4.5x the throughput of CXL-PNM at max batches",
    );
    let mut rows = Vec::new();
    for devices in [1usize, 8, 32] {
        let node = PimNode::cxl_pnm(devices);
        let batch = node.max_batch(&cfg, ctx).min(256);
        rows.push((
            format!("CXL-PNM x{devices} (b{batch})"),
            node.decode_tokens_per_s(&cfg, batch, ctx) / 1000.0,
        ));
    }
    let cent = PimNode::cent(24);
    let batch = cent.max_batch(&cfg, ctx).min(256);
    rows.push((
        format!("CENT x24 (b{batch})"),
        cent.decode_tokens_per_s(&cfg, batch, ctx) / 1000.0,
    ));
    report.push_series("decode throughput", "K tokens/s", &rows);
    report.emit();
}

/// Figure 18: CENT vs AttAcc and NeuPIM on GPT3-175B.
pub fn fig18(id: &str) {
    let cfg = ModelConfig::gpt3_175b();
    let mut report = Report::new(
        id,
        "CENT vs GPU-PIM heterogeneous systems (GPT3-175B)",
        "1.8-3.7x (AttAcc) and 1.8-5.3x (NeuPIM) more tokens/$; raw throughput 0.5-1.1x / 0.7-2.1x",
    );
    // Power-neutral sizing: 12 CENT devices per GPU-PIM node (8 nodes).
    let cent = PimNode::cent(96);
    let attacc = PimNode::attacc();
    let mut tpd = Vec::new();
    let mut raw = Vec::new();
    for (inp, out) in [(128usize, 128usize), (128, 2048), (2048, 128), (2048, 2048)] {
        let ctx = inp + out;
        let ab = attacc.max_batch(&cfg, ctx).max(1);
        let cb = cent.max_batch(&cfg, ctx).max(1);
        let at = attacc.decode_tokens_per_s(&cfg, ab, ctx);
        let ct = cent.decode_tokens_per_s(&cfg, cb, ctx);
        let label = format!("in{inp} out{out}");
        tpd.push((label.clone(), cent.tokens_per_dollar(ct) / attacc.tokens_per_dollar(at)));
        raw.push((label, ct / at));
    }
    report.push_series("(a) vs AttAcc tokens/$ ratio", "x", &tpd);
    report.push_series("(a) vs AttAcc raw throughput ratio", "x", &raw);

    // (b) NeuPIM with the ShareGPT-like distribution.
    let neupim = PimNode::neupim();
    let lengths = sharegpt_lengths(256, 2025);
    let avg_ctx = (lengths.iter().map(|(i, o)| i + o).sum::<usize>() / lengths.len()).max(64);
    let mut tpd_rows = Vec::new();
    let mut raw_rows = Vec::new();
    let cent_batch = cent.max_batch(&cfg, avg_ctx).min(96);
    let ct = cent.decode_tokens_per_s(&cfg, cent_batch, avg_ctx);
    for nb in [64usize, 96, 128, 256, 512] {
        let batch = nb.min(neupim.max_batch(&cfg, avg_ctx).max(1));
        let nt = neupim.decode_tokens_per_s(&cfg, batch, avg_ctx);
        tpd_rows.push((
            format!("NeuPIM b{nb}"),
            cent.tokens_per_dollar(ct) / neupim.tokens_per_dollar(nt),
        ));
        raw_rows.push((format!("NeuPIM b{nb}"), ct / nt));
    }
    report.push_series("(b) vs NeuPIM tokens/$ ratio (ShareGPT-like)", "x", &tpd_rows);
    report.push_series("(b) vs NeuPIM raw throughput ratio", "x", &raw_rows);
    report.emit();
}

/// Ablations of CENT's design choices: the hierarchical PIM-PNM split,
/// switch multicast, GQA versus MHA, attention placement under tensor
/// parallelism, and batching on top of pipeline parallelism.
pub fn ablations(id: &str) {
    let mut report = Report::new(
        id,
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
    let plan = SystemMapping::plan(&gqa, 32, Strategy::TensorParallel).unwrap();
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
    if let Some(pp) = evaluated("ablations (5)", &tiny, 2, 32) {
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
    report.emit();
}

/// Figure 13: CENT speedup over the GPU baseline — (a) latency-critical
/// batch-1 TP, (b) throughput-critical PP at max batches, (c) tokens/$.
pub fn fig13(id: &str) {
    let ctx = 4096usize;
    let mut report = Report::new(
        id,
        "CENT vs GPU: latency, throughput, tokens/$",
        "geomean 4.6x latency (batch 1), 2.3x throughput (max batch), 5.2x tokens/$; 70B throughput gain smallest (GQA, 1.2x)",
    );
    let mut lat_speedups = Vec::new();
    let mut tput_speedups = Vec::new();
    let mut dollar_speedups = Vec::new();
    let mut lat_rows = Vec::new();
    let mut tput_rows = Vec::new();
    let mut dollar_rows = Vec::new();
    // TCO $/hour (the Table 4 values, which `table4` recomputes).
    let cent_cost = Dollars::new(0.73);
    let gpu_cost = Dollars::new(1.76);
    for (cfg, devices, gpus) in llama2_cases() {
        let gpu = GpuSystem::a100x(gpus);
        // (a) latency-critical: batch 1, TP on CENT.
        let cent_tp =
            evaluate(&cfg, devices, Strategy::TensorParallel, ctx).expect("tp evaluation");
        let gpu_tok_latency = 1.0 / gpu.decode_tokens_per_s(&cfg, 1, ctx).max(1e-9);
        let cent_tok_latency = cent_tp.token_latency.as_secs();
        let lat_speedup = gpu_tok_latency / cent_tok_latency;
        lat_rows.push((cfg.name.to_string(), lat_speedup));
        lat_speedups.push(lat_speedup);
        // (b) throughput-critical: GPU batch 128, CENT PP (batch = stages).
        let cent_pp =
            evaluate(&cfg, devices, Strategy::PipelineParallel, ctx).expect("pp evaluation");
        let (gpu_batch, gpu_tput) = gpu_max_batch(&gpu, &cfg, ctx);
        let speedup = cent_pp.decode_tokens_per_s / gpu_tput;
        tput_rows.push((cfg.name.to_string(), speedup));
        tput_speedups.push(speedup);
        // (c) tokens per dollar.
        let cent_tpd = tokens_per_dollar(cent_pp.decode_tokens_per_s, cent_cost);
        let gpu_tpd = tokens_per_dollar(gpu_tput, gpu_cost);
        dollar_rows.push((cfg.name.to_string(), cent_tpd / gpu_tpd));
        dollar_speedups.push(cent_tpd / gpu_tpd);
        eprintln!(
            "{}: CENT PP {:.0} tok/s (batch {}), GPU {:.0} tok/s (batch {gpu_batch})",
            cfg.name, cent_pp.decode_tokens_per_s, cent_pp.mapping.batch, gpu_tput
        );
    }
    lat_rows.push(("geomean".into(), geomean(&lat_speedups)));
    tput_rows.push(("geomean".into(), geomean(&tput_speedups)));
    dollar_rows.push(("geomean".into(), geomean(&dollar_speedups)));
    report.push_series("(a) latency speedup, batch=1", "x", &lat_rows);
    report.push_series("(b) end-to-end throughput speedup", "x", &tput_rows);
    report.push_series("(c) tokens per dollar", "x", &dollar_rows);
    report.emit();
}

/// Figure 14: long-context decode speedup, QoS curve, CENT latency
/// breakdown and prefill/decode latency split (Llama2-70B).
pub fn fig14(id: &str) {
    let mut report = Report::new(
        id,
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
        let Some(cent) = evaluated("fig14 (a)", &cfg, devices, ctx) else {
            continue;
        };
        let gpu_batch = gpu.max_batch(&cfg, ctx).clamp(1, 128);
        let gpu_tput = gpu.decode_tokens_per_s(&cfg, gpu_batch, ctx);
        speedups.push((format!("{}K", ctx / 1024), cent.decode_tokens_per_s / gpu_tput));
    }
    report.push_series("(a) decode speedup vs context", "x", &speedups);

    // (b) QoS sweep.
    let cfg = ModelConfig::llama2_70b();
    let (points, skipped) = qos_sweep(&cfg, 32, 4096, 512, 3584);
    for (label, e) in &skipped {
        eprintln!(
            "fig14 (b): {label} of {} at 4096-token context on 32 devices failed: {e}",
            cfg.name
        );
    }
    let lat: Vec<(String, f64)> =
        points.iter().map(|p| (p.label.clone(), p.query_latency_min)).collect();
    let tput: Vec<(String, f64)> =
        points.iter().map(|p| (p.label.clone(), p.queries_per_min)).collect();
    report.push_series("(b) query latency", "minutes", &lat);
    report.push_series("(b) throughput", "queries/min", &tput);

    // (c) latency breakdown and (d) prefill vs decode query-latency split,
    // both of the PP=80 point.
    if let Some(pp) = evaluated("fig14 (c), (d)", &cfg, 32, 4096) {
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
    report.emit();
}

/// Figure 15: power consumption, GPU throttling trace and tokens/J.
pub fn fig15(id: &str) {
    let mut report = Report::new(
        id,
        "Power and energy efficiency",
        "one A100 ~8x one CENT device; GPU throttles at TDP; CENT 2.9x tokens/J end-to-end (GPU wins prefill ~2.4x)",
    );
    let mut power_rows = Vec::new();
    let mut energy_rows = Vec::new();
    let mut ratios = Vec::new();
    for (cfg, devices, gpus) in llama2_cases() {
        let Some(cent) = evaluated("fig15", &cfg, devices, 4096) else {
            continue;
        };
        // Device power from the simulated block activity, scaled to the
        // blocks each device hosts.
        let bpd = cent.mapping.blocks_per_device as f64;
        let window = cent.block.total;
        let dp = device_power(
            &DramEnergyModel::default(),
            &ControllerPowerModel::default(),
            &cent.block.dram.scaled(bpd),
            &cent.block.pnm.scaled(bpd),
            window,
        );
        let used = cent.mapping.used_devices as f64;
        let cent_system_power =
            Power::watts(dp.total.as_watts() * used + 8.0 * (devices as f64 - used))
                + HOST_CPU_POWER;
        let gpu = GpuSystem::a100x(gpus);
        let gpu_power = gpu.avg_power(0.95) + HOST_CPU_POWER;
        power_rows.push((format!("{} CENT", cfg.name), cent_system_power.as_watts()));
        power_rows.push((format!("{} GPU", cfg.name), gpu_power.as_watts()));
        let (_, gpu_tput) = gpu_max_batch(&gpu, &cfg, 4096);
        let cent_tpj = tokens_per_joule(cent.decode_tokens_per_s, cent_system_power);
        let gpu_tpj = tokens_per_joule(gpu_tput, gpu_power);
        energy_rows.push((cfg.name.to_string(), cent_tpj / gpu_tpj));
        ratios.push(cent_tpj / gpu_tpj);
        eprintln!(
            "{}: CENT {:.1} W/device ({:.3} PIM-op share), system {:.0} W vs GPU {:.0} W",
            cfg.name,
            dp.total.as_watts(),
            dp.pim_op_fraction,
            cent_system_power.as_watts(),
            gpu_power.as_watts()
        );
    }
    energy_rows.push(("geomean".into(), geomean(&ratios)));
    report.push_series("(a) system power", "W", &power_rows);
    report.push_series("(c) tokens/J ratio CENT/GPU", "x", &energy_rows);
    // (b) throttle trace: summarise three landmark points.
    let trace = throttle_trace(&GpuSpec::a100(), 60);
    report.push_series(
        "(b) GPU throttle trace",
        "MHz | W",
        &[
            ("init clock".into(), trace[5].sm_clock_mhz),
            ("prefill clock".into(), trace[15].sm_clock_mhz),
            ("decode clock".into(), trace[55].sm_clock_mhz),
            ("prefill power".into(), trace[15].board_power_w),
            ("decode power".into(), trace[55].board_power_w),
        ],
    );
    report.emit();
}

/// Figure 19: CENT scalability on Llama2-70B, 16 → 128 devices (PP + DP),
/// with the utilization plateaus caused by whole-block placement.
pub fn fig19(id: &str) {
    let cfg = ModelConfig::llama2_70b();
    let counts = [16usize, 27, 32, 40, 44, 54, 64, 80, 96, 128];
    let mut report = Report::new(
        id,
        "CENT scalability (Llama2-70B)",
        "0.68K tokens/s at 16 devices to 5.7K at 128; throughput plateaus where 80 blocks divide unevenly",
    );
    match scalability_sweep(&cfg, &counts, 4096) {
        Ok(points) => {
            let tput: Vec<(String, f64)> = points
                .iter()
                .map(|p| (format!("{} devices", p.devices), p.tokens_per_s / 1000.0))
                .collect();
            let util: Vec<(String, f64)> =
                points.iter().map(|p| (format!("{} devices", p.devices), p.utilization)).collect();
            report.push_series("decode throughput", "K tokens/s", &tput);
            report.push_series("device utilization", "fraction", &util);
        }
        Err(e) => eprintln!("scalability sweep failed: {e}"),
    }
    report.emit();
}
