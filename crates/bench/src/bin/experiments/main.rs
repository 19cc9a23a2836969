//! Regenerates every table and figure of the CENT paper and runs the
//! beyond-paper sweeps, one entry of [`EXPERIMENTS`] each. Every entry
//! prints paper-style rows to stdout and writes one JSON record under
//! `results/`; a table or figure entry's name is its report id, so it
//! writes `results/<name>.json`.
//!
//! Run with `cargo run --release -p cent-bench --bin experiments --
//! [--smoke] [name…]`; no names runs every entry in table order. `--smoke`
//! shrinks only the sweeps (see [`sweeps`]); tables and figures run the
//! same in both modes.
//!
//! Every selected entry runs even if an earlier one panics; the process
//! then exits non-zero, naming each entry that failed.

mod figures;
mod sweeps;

use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use cent_bench::llama2_7b_pp8;
use cent_serving::ServingSystem;

/// How an entry runs.
enum Run {
    /// A paper table or figure, given its id.
    Figure(fn(&str)),
    /// A sweep on the planned PP/8 deployment, given the smoke flag.
    Sweep(fn(&ServingSystem, bool)),
}

use Run::{Figure, Sweep};

/// Every experiment by its command-line name: the paper's tables and
/// figures, then the sweeps.
const EXPERIMENTS: [(&str, Run); 19] = [
    ("table1", Figure(figures::table1)),
    ("table4", Figure(figures::table4)),
    ("table5", Figure(figures::table5)),
    ("table6", Figure(figures::table6)),
    ("fig01", Figure(figures::fig01)),
    ("fig02", Figure(figures::fig02)),
    ("fig12", Figure(figures::fig12)),
    ("fig17", Figure(figures::fig17)),
    ("fig18", Figure(figures::fig18)),
    ("ablations", Figure(figures::ablations)),
    ("fig13", Figure(figures::fig13)),
    ("fig14", Figure(figures::fig14)),
    ("fig15", Figure(figures::fig15)),
    ("fig19", Figure(figures::fig19)),
    ("serving_load", Sweep(sweeps::serving_load)),
    ("serving_policy", Sweep(sweeps::serving_policy)),
    ("cluster", Sweep(sweeps::cluster)),
    ("fault", Sweep(sweeps::fault)),
    ("disagg", Sweep(sweeps::disagg)),
];

fn main() -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|arg| arg == "--smoke");
    let known = EXPERIMENTS.map(|(name, _)| name);
    for name in &names {
        assert!(
            known.contains(&name.as_str()),
            "unknown experiment {name:?} (usage: experiments [--smoke] {known:?})"
        );
    }
    // Planned on first use: the sweeps share one plan, and a run of tables
    // and figures alone never plans it.
    let system = OnceCell::new();
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(n, _)| names.is_empty() || names.iter().any(|m| m == n))
        .collect();
    let mut failed = Vec::new();
    for (name, run) in &selected {
        println!("──────── {name} ────────");
        let ran = catch_unwind(AssertUnwindSafe(|| match run {
            Figure(figure) => figure(name),
            Sweep(sweep) => sweep(system.get_or_init(llama2_7b_pp8), !flags.is_empty()),
        }));
        if ran.is_err() {
            eprintln!("{name} panicked");
            failed.push(*name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} experiments failed: {}",
            failed.len(),
            selected.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}
