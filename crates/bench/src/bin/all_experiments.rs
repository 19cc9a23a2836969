//! Runs every experiment binary in sequence, so one command regenerates all
//! figures and tables into `results/`.
//!
//! The experiments run as the sibling binaries next to this one, so build
//! them all first: `cargo build --release -p cent-bench --bins`. Every
//! experiment runs even if an earlier one fails; the process then exits
//! non-zero, naming each binary that was missing or failed.
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let bins = [
        "table1_hw_comparison",
        "table4_system_config",
        "table5_cxl_controller",
        "table6_hardware_costs",
        "fig01_gpu_batching",
        "fig02_gpu_motivation",
        "fig12_controller_cost",
        "fig17_vs_cxlpnm",
        "fig18_vs_gpu_pim",
        "ablations",
        "fig13_cent_vs_gpu",
        "fig14_analysis",
        "fig15_power_energy",
        "fig19_scalability",
    ];
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for bin in bins {
        println!("\n──────── running {bin} ────────");
        match Command::new(dir.join(bin)).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failed.push(bin);
            }
            Err(e) => {
                eprintln!(
                    "{bin} failed to start: {e} (build every experiment binary first: \
                     cargo build --release -p cent-bench --bins)"
                );
                failed.push(bin);
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} experiments failed: {}", failed.len(), bins.len(), failed.join(", "));
        ExitCode::FAILURE
    }
}
