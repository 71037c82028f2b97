//! Per-layer numbers: span self times from the request path, and the stage
//! functions timed outside it.

use crate::trace::Span;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// Stage functions timed outside the request path, on the run's inputs.
#[derive(Debug, Default)]
pub struct Stages {
    pub eigen_ms: Vec<f64>,
    pub weighting_ms: Vec<f64>,
    pub weighting_iters: Vec<f64>,
    pub cholesky_ms: Vec<f64>,
    pub trace_ms: Vec<f64>,
    pub fingerprint_ms: Vec<f64>,
    pub cg_ms: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub entry_kb: Vec<f64>,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Layer {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// What the spans of a traced run add up to.
#[derive(Debug)]
pub struct SpanSummary {
    in_requests: HashMap<&'static str, Layer>,
    everywhere: HashMap<&'static str, Layer>,
    /// Children found outside their parent's interval.
    pub uncovered: Vec<String>,
}

/// Self time of every span and the containment check.  Spans whose parent
/// is unknown (opened on an empty stack) belong to their request's
/// `serve.request` root.
pub fn summarize(spans: &[Span]) -> SpanSummary {
    let mut roots: HashMap<u64, usize> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "serve.request" {
            roots.insert(s.request, i);
        }
    }
    let mut index: HashMap<u64, usize> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.insert(s.id, i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            Some(p) => index.get(&p).copied(),
            None if s.name != "serve.request" && s.request != 0 => roots.get(&s.request).copied(),
            None => None,
        };
        if let Some(p) = parent {
            children[p].push(i);
        }
    }
    let mut summary = SpanSummary {
        in_requests: HashMap::new(),
        everywhere: HashMap::new(),
        uncovered: Vec::new(),
    };
    for (i, s) in spans.iter().enumerate() {
        let mut kids = Vec::with_capacity(children[i].len());
        for &c in &children[i] {
            let k = &spans[c];
            if k.start < s.start || k.end > s.end {
                summary.uncovered.push(format!(
                    "{} (request {}) lies outside its parent {}",
                    k.name, k.request, s.name
                ));
            }
            kids.push((k.start, k.end));
        }
        let total = s.end - s.start;
        let self_ns = total - covered(kids, s.start, s.end);
        for map in [
            Some(&mut summary.everywhere),
            (s.request != 0).then_some(&mut summary.in_requests),
        ]
        .into_iter()
        .flatten()
        {
            let layer = map.entry(s.name).or_default();
            layer.calls += 1;
            layer.total_ns += total;
            layer.self_ns += self_ns;
        }
    }
    summary
}

impl SpanSummary {
    fn get(&self, name: &str, in_requests: bool) -> Layer {
        let map = if in_requests {
            &self.in_requests
        } else {
            &self.everywhere
        };
        map.get(name).copied().unwrap_or_default()
    }

    /// Calls of `name` made inside timed requests.
    pub fn calls(&self, name: &str) -> u64 {
        self.get(name, true).calls
    }
}

const NS_PER_MS: f64 = 1e6;

/// Every per-layer metric, in `BENCHMARK.json` order: (name, value, unit).
pub fn metrics(
    spans: &SpanSummary,
    stages: &Stages,
    requests: u64,
    noise_draws: u64,
    queue_depth_max: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let per_request = |ns: u64| ns as f64 / NS_PER_MS / requests.max(1) as f64;
    let per_call = |l: Layer, scale: f64| {
        if l.calls == 0 {
            0.0
        } else {
            l.total_ns as f64 / scale / l.calls as f64
        }
    };
    let gram = spans.get("workload.gram", true);
    vec![
        ("workload.gram_ms", per_call(gram, NS_PER_MS), "ms/call"),
        (
            "workload.gram_calls",
            gram.calls as f64 / requests.max(1) as f64,
            "count/request",
        ),
        (
            "workload.fingerprint_ms",
            mean(&stages.fingerprint_ms),
            "ms/call",
        ),
        (
            "workload.evaluate_ms",
            per_request(spans.get("workload.evaluate", true).total_ns),
            "ms/request",
        ),
        (
            "engine.select_ms",
            per_call(spans.get("engine.select", false), NS_PER_MS),
            "ms/selection",
        ),
        (
            "engine.answer_self_ms",
            per_request(spans.get("engine.answer", true).self_ns),
            "ms/request",
        ),
        ("linalg.eigen_ms", mean(&stages.eigen_ms), "ms/call"),
        ("opt.weighting_ms", mean(&stages.weighting_ms), "ms/call"),
        (
            "opt.weighting_iters",
            mean(&stages.weighting_iters),
            "count/call",
        ),
        ("linalg.cholesky_ms", mean(&stages.cholesky_ms), "ms/call"),
        ("linalg.trace_ms", mean(&stages.trace_ms), "ms/call"),
        ("opt.cg_ms", mean(&stages.cg_ms), "ms/call"),
        (
            "structured.select_ms",
            per_call(spans.get("structured.select", false), NS_PER_MS),
            "ms/call",
        ),
        (
            "mechanism.noise_ms",
            per_request(spans.get("mechanism.noise", true).total_ns),
            "ms/request",
        ),
        (
            "mechanism.noise_draws",
            noise_draws as f64 / requests.max(1) as f64,
            "count/request",
        ),
        (
            "accounting.check_us",
            per_call(spans.get("accounting.check", true), 1e3),
            "us/call",
        ),
        (
            "accounting.charge_us",
            per_call(spans.get("accounting.charge", true), 1e3),
            "us/call",
        ),
        ("store.save_ms", mean(&stages.save_ms), "ms/call"),
        ("store.load_ms", mean(&stages.load_ms), "ms/call"),
        ("store.entry_kb", mean(&stages.entry_kb), "KB"),
        (
            "serve.request_self_ms",
            per_request(spans.get("serve.request", true).self_ns),
            "ms/request",
        ),
        ("serve.queue_depth_max", queue_depth_max as f64, "count"),
    ]
}

/// Writes every span as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.id, s.request, s.name, s.start, s.end, s.thread
        )?;
    }
    out.flush()
}
