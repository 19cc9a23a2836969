//! Figure 15: power consumption, GPU throttling trace and tokens/J.
use cent_baselines::{throttle_trace, GpuSpec, GpuSystem};
use cent_bench::{geomean, Report};
use cent_compiler::Strategy;
use cent_model::ModelConfig;
use cent_power::{
    device_power, tokens_per_joule, ControllerPowerModel, DramEnergyModel, HOST_CPU_POWER,
};
use cent_sim::evaluate;
use cent_types::Power;

fn main() {
    let mut report = Report::new(
        "fig15",
        "Power and energy efficiency",
        "one A100 ~8x one CENT device; GPU throttles at TDP; CENT 2.9x tokens/J end-to-end (GPU wins prefill ~2.4x)",
    );
    let cases: [(ModelConfig, usize, usize); 3] = [
        (ModelConfig::llama2_7b(), 8, 1),
        (ModelConfig::llama2_13b(), 20, 2),
        (ModelConfig::llama2_70b(), 32, 4),
    ];
    let mut power_rows = Vec::new();
    let mut energy_rows = Vec::new();
    let mut ratios = Vec::new();
    for (cfg, devices, gpus) in cases {
        let cent = match evaluate(&cfg, devices, Strategy::PipelineParallel, 4096) {
            Ok(cent) => cent,
            Err(e) => {
                eprintln!(
                    "fig15: {} at 4096-token context on {devices} devices failed: {e}",
                    cfg.name
                );
                continue;
            }
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
        let gpu_batch = 128.min(gpu.max_batch(&cfg, 4096).max(1));
        let gpu_tput = gpu.decode_tokens_per_s(&cfg, gpu_batch, 4096);
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
