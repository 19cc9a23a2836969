//! Host wall-clock timing and the traced run's in-memory span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! kept in memory, and written out once as Chrome trace-event JSON (open it
//! in Perfetto or `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
// cent-lint: allow(no-wall-clock) -- the benchmark measures host wall time by design
use std::time::Instant;

/// A started stopwatch.
// cent-lint: allow(no-wall-clock) -- host wall time is what this measures
pub struct Clock(Instant);

impl Clock {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        // cent-lint: allow(no-wall-clock) -- host wall time is what this measures
        Clock(Instant::now())
    }

    /// Seconds since the stopwatch started.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One recorded span: a layer call made by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer called (a workspace crate name, or `bench` for phases).
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// The workload or rate point the call belongs to.
    pub point: String,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans when enabled; a disabled tracer only runs the
/// wrapped closures.
pub struct Tracer {
    enabled: bool,
    clock: Clock,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or passes straight through.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, clock: Clock::start(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Runs `f` inside a span named `name` of `layer` for `point`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        point: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            point: point.to_string(),
            start_s: self.clock.secs(),
            end_s: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_s = self.clock.secs();
        out
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Self time per layer: each span's duration minus the part its child
    /// spans cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            *out.entry(s.layer).or_insert(0.0) += s.secs() - c;
        }
        out
    }

    /// Writes every span as a Chrome trace-event JSON document: one
    /// complete (`"ph": "X"`) event per span, microsecond timestamps, the
    /// layer as the category and the point and parent index as arguments.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"point\":\"{}\"}}}}",
                if i == 0 { "" } else { ",\n" },
                escape(&s.name),
                s.layer,
                s.start_s * 1e6,
                s.secs() * 1e6,
                escape(&s.point),
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
