//! Shared harness for the one `experiments` binary, whose table of entries
//! regenerates every table and figure of the CENT paper and runs the
//! beyond-paper sweeps, and for `sim_perf`.
//!
//! Each experiment prints the paper-style rows to stdout and writes one
//! JSON record under `results/`, in the envelope `docs/SCHEMAS.md`
//! documents.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

use cent_cluster::DisaggConfig;
use cent_compiler::Strategy;
use cent_cxl::FabricConfig;
use cent_model::ModelConfig;
use cent_serving::{KvBudget, KvMode, LengthSampler, SchedulerConfig, ServingSystem, Workload};
use cent_types::Time;

/// Paper-vs-measured record for one experiment series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series name (e.g. "decode throughput, Llama2-70B").
    pub name: String,
    /// X labels (batch sizes, device counts, ...).
    pub x: Vec<String>,
    /// Measured values.
    pub y: Vec<f64>,
    /// Unit of `y`.
    pub unit: String,
}

/// Series that a sweep derives from each of its rows: `(name, unit, y)`.
pub type SeriesTable<T> = [(&'static str, &'static str, fn(&T) -> f64)];

/// A complete experiment result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id ("fig13", "table4", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper reports for the same quantity (shape/level summary).
    pub paper_reference: String,
    /// Measured series.
    pub series: Vec<Series>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, paper_reference: &str) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            paper_reference: paper_reference.to_string(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, name: &str, unit: &str, points: &[(String, f64)]) {
        self.series.push(Series {
            name: name.to_string(),
            x: points.iter().map(|(x, _)| x.clone()).collect(),
            y: points.iter().map(|(_, y)| *y).collect(),
            unit: unit.to_string(),
        });
    }

    /// Adds a series with one point per labelled row, `y = f(row)`.
    pub fn push_rows<T>(
        &mut self,
        name: &str,
        unit: &str,
        rows: &[(String, T)],
        f: impl Fn(&T) -> f64,
    ) {
        let points: Vec<(String, f64)> = rows.iter().map(|(x, row)| (x.clone(), f(row))).collect();
        self.push_series(name, unit, &points);
    }

    /// Adds one series per `(name, unit, f)` entry of `table` over the same
    /// labelled rows, each named `prefix` followed by the entry's name.
    pub fn push_table<T>(&mut self, prefix: &str, rows: &[(String, T)], table: &SeriesTable<T>) {
        for (name, unit, f) in table {
            self.push_rows(&format!("{prefix}{name}"), unit, rows, f);
        }
    }

    /// Prints the report to stdout in a paper-style table and writes
    /// `results/<id>.json`, panicking with the path if it cannot: a run
    /// that exits 0 has replaced the previous run's file.
    pub fn emit(&self) {
        println!("== {} — {} ==", self.id, self.title);
        println!("   paper: {}", self.paper_reference);
        for s in &self.series {
            println!("   {} [{}]:", s.name, s.unit);
            for (x, y) in s.x.iter().zip(&s.y) {
                println!("     {x:>24}  {y:>14.4}");
            }
        }
        println!();
        let dir = results_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            panic!("cannot create {}: {e}", dir.display());
        }
        let path = dir.join(format!("{}.json", self.id));
        if let Err(e) = fs::write(&path, self.to_json()) {
            panic!("cannot write {}: {e}", path.display());
        }
    }

    /// Serialises the report as pretty-printed JSON (hand-rolled; the build
    /// environment has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!("  \"paper_reference\": {},\n", json_str(&self.paper_reference)));
        out.push_str("  \"series\": [\n");
        for (i, s) in self.series.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_str(&s.name)));
            let xs: Vec<String> = s.x.iter().map(|x| json_str(x)).collect();
            out.push_str(&format!("      \"x\": [{}],\n", xs.join(", ")));
            let ys: Vec<String> = s.y.iter().map(|y| json_f64(*y)).collect();
            out.push_str(&format!("      \"y\": [{}],\n", ys.join(", ")));
            out.push_str(&format!("      \"unit\": {}\n", json_str(&s.unit)));
            out.push_str(if i + 1 < self.series.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON string literal with the escapes the report fields can contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number (JSON has no NaN/Inf; map them to null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Where result JSON files land (workspace `results/`).
pub fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.push("results");
    dir
}

/// The paper's serving deployment that the beyond-paper sweeps and the
/// `sim_perf` fleet shapes run on: Llama2-7B pipeline-parallel on 8 devices
/// (one replica of 32 slots) with a 4096-token context.
pub fn llama2_7b_pp8() -> ServingSystem {
    ServingSystem::plan(&ModelConfig::llama2_7b(), 8, Strategy::PipelineParallel, 4096)
        .expect("planning Llama2-7B on 8 devices")
}

/// A synthetic `replicas × slots` Llama2-7B system for small, fast shapes:
/// a 1 ms token cadence (so steady state is 1000 tokens/s per slot), a
/// `kv_tokens` budget per replica and the given prefill rate in tokens/s.
pub fn synthetic(
    replicas: usize,
    slots: usize,
    kv_tokens: u64,
    kv: KvMode,
    prefill_rate: f64,
) -> ServingSystem {
    let scheduler = SchedulerConfig {
        replicas,
        slots_per_replica: slots,
        kv_budget: KvBudget::tokens(kv_tokens),
        kv,
    };
    let steady_tokens_per_s = (replicas * slots) as f64 * 1000.0;
    let cfg = ModelConfig::llama2_7b();
    ServingSystem::from_parts(
        &cfg,
        scheduler,
        Time::from_us(1000),
        prefill_rate,
        steady_tokens_per_s,
    )
}

/// Aggregate capacity, in queries per second, of `groups` copies of
/// `system` serving the ShareGPT-like mix, anchored on its mean shape
/// (160-token prompts, 210-token decodes).
pub fn sharegpt_capacity(system: &ServingSystem, groups: usize) -> f64 {
    groups as f64 * system.capacity_qps(160, 210)
}

/// The ShareGPT-like fleet workload: the chatbot arrival process at
/// `rate_qps` with heavy-tailed ShareGPT lengths, the regime where request
/// sizes differ enough to separate load-aware from load-blind routing.
pub fn sharegpt(rate_qps: f64, seed: u64) -> Workload {
    Workload { lengths: LengthSampler::ShareGpt, ..Workload::chatbot(rate_qps, seed) }
}

/// A `prefill`/`decode` tier split of `system` groups over the shared
/// switch-attached KV pool. The pool holds ~32 mean ShareGPT contexts, so
/// deferral is backpressure rather than the steady state, and each pooled
/// page pays two extra switch hops over a direct host link (prefill device
/// → switch → pool, pool → switch → decode device).
pub fn pool_split(system: &ServingSystem, prefill: usize, decode: usize) -> DisaggConfig {
    DisaggConfig::split(
        prefill,
        decode,
        32 * 161,
        system.swap_cost().with_switch_hops(2, &FabricConfig::cent(32)),
    )
}

/// Geometric mean helper used by the speedup figures.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The counters of a `sim_perf` row's span run that `sim_perf
/// --check-against` compares with a committed baseline, by their artifact
/// keys. They repeat exactly between runs of one tree, unlike wall time.
pub const GATED_COUNTERS: [&str; 3] = ["heap_events_per_token", "tick_events", "allocs_per_token"];

/// How far a gated counter may grow over its baseline before the gate fails.
pub const GATE_SLACK: f64 = 1.20;

/// One row's span counters, in [`GATED_COUNTERS`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanCounters {
    /// Row (shape) name.
    pub name: String,
    /// Counter values.
    pub values: [f64; 3],
}

/// Extracts each row's span counters from a `BENCH_serving_sim*.json` file.
/// `sim_perf` writes each row's `{"name": ...` on its own line and, after
/// it, the row's `"span": {...}` block on one line, so a line scan is exact
/// (the build has no JSON parser). Rows without a span line are skipped.
pub fn parse_span_counters(text: &str) -> Vec<SpanCounters> {
    fn field(line: &str, key: &str) -> Option<f64> {
        let tail = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        tail[..end].trim().parse().ok()
    }
    let mut rows = Vec::new();
    let mut name: Option<String> = None;
    for line in text.lines().map(str::trim) {
        if let Some(tail) = line.strip_prefix("{\"name\": \"") {
            name = tail.split('"').next().map(str::to_string);
        } else if line.starts_with("\"span\":") {
            if let (Some(name), [Some(a), Some(b), Some(c)]) =
                (name.take(), GATED_COUNTERS.map(|key| field(line, key)))
            {
                rows.push(SpanCounters { name, values: [a, b, c] });
            }
        }
    }
    rows
}

/// Checks a run's rows against the baseline's: every baseline row must have
/// been measured, and none of its counters may exceed `baseline ×
/// GATE_SLACK`. Returns one self-contained line per failure — measured value,
/// baseline value and threshold — so a log alone shows how far over the line
/// a run landed; an empty list means the gate passed.
pub fn check_span_counters(baseline: &[SpanCounters], measured: &[SpanCounters]) -> Vec<String> {
    let mut failures = Vec::new();
    for b in baseline {
        let Some(now) = measured.iter().find(|m| m.name == b.name) else {
            failures.push(format!("{}: baseline row missing from this run", b.name));
            continue;
        };
        for ((key, measured), baseline) in GATED_COUNTERS.iter().zip(now.values).zip(b.values) {
            let threshold = GATE_SLACK * baseline;
            if measured > threshold {
                failures.push(format!(
                    "{}: {key} regressed: measured {measured:.4}, baseline {baseline:.4}, \
                     allowed at most {threshold:.4} (baseline x {GATE_SLACK})",
                    b.name
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_uniform_is_identity() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn report_round_trips_to_json() {
        let mut r = Report::new("test", "Test \"quoted\"", "n/a");
        r.push_series("s", "unit", &[("a".into(), 1.0), ("b".into(), 2.0)]);
        let json = r.to_json();
        assert!(json.contains("\"id\": \"test\""), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("[1, 2]"), "{json}");
    }

    const ARTIFACT: &str = r#"{
  "shapes": [
    {"name": "clean", "sim_tokens": 716800, "preemptions": 0, "swaps": 0,
     "reference": {"wall_s": 0.05, "tick_events": 0, "heap_events_per_token": 2.0078, "allocs_per_token": 0.0085},
     "span": {"wall_s": 0.004, "tick_events": 2800, "heap_events_per_token": 0.0156, "allocs_per_token": 0.0086}},
    {"name": "chaos", "sim_tokens": 358152, "preemptions": 0, "swaps": 0,
     "span": {"wall_s": 0.008, "tick_events": 3070, "heap_events_per_token": 0.0378, "allocs_per_token": 0.0334}}
  ]
}"#;

    fn row(name: &str, values: [f64; 3]) -> SpanCounters {
        SpanCounters { name: name.into(), values }
    }

    #[test]
    fn parse_reads_each_rows_span_block_not_its_reference() {
        let rows = parse_span_counters(ARTIFACT);
        assert_eq!(
            rows,
            [row("clean", [0.0156, 2800.0, 0.0086]), row("chaos", [0.0378, 3070.0, 0.0334])]
        );
    }

    #[test]
    fn counters_within_slack_pass() {
        let measured =
            [row("chaos", [0.0378 * 1.19, 3070.0, 0.0334]), row("clean", [0.015, 3360.0, 0.0086])];
        assert!(check_span_counters(&parse_span_counters(ARTIFACT), &measured).is_empty());
    }

    #[test]
    fn a_counter_over_slack_fails_with_measured_baseline_and_threshold() {
        let baseline = [row("clean", [0.0156, 2800.0, 0.0086])];
        let failures = check_span_counters(&baseline, &[row("clean", [0.0156, 3361.0, 0.0086])]);
        assert_eq!(
            failures,
            ["clean: tick_events regressed: measured 3361.0000, baseline 2800.0000, allowed at \
              most 3360.0000 (baseline x 1.2)"]
        );
    }

    #[test]
    fn a_baseline_row_missing_from_the_run_fails() {
        let measured = [row("clean", [0.0156, 2800.0, 0.0086])];
        let failures = check_span_counters(&parse_span_counters(ARTIFACT), &measured);
        assert_eq!(failures, ["chaos: baseline row missing from this run"]);
    }
}
