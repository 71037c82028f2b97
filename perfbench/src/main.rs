//! End-to-end and per-layer benchmark of the adaptive matrix mechanism's
//! serving stack.  See `README.md` next to this package.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics when `--trace 0` and the per-layer metrics when `--trace 1`.
//! The line before it starts with `# summary` and carries exact counts,
//! the tail percentile and the digest of every released answer.  The exit
//! code is non-zero when any output check or workload guard fails.

mod bench;
mod check;
mod layers;
mod trace;

use bench::{Opts, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "cold_select",
    "hot_answer",
    "batch_answer",
    "structured_answer",
];

/// Linear-algebra threads: fixed, never detected, so a run's work does not
/// depend on the machine it lands on.
const LINALG_THREADS: usize = 1;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<(Opts, PathBuf), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| "--seconds takes an integer")?;
                // Ledger budgets are sized for at most a minute of requests.
                if !(1..=60).contains(&s) {
                    return Err("--seconds must lie in 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let traced = traced.ok_or("--trace is required")?;
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    Ok((
        Opts {
            workload,
            seed,
            seconds,
            traced,
            scratch,
        },
        out_dir,
    ))
}

/// Linear-interpolated quantile of `v` (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let (opts, out_dir) = match parse() {
        Ok(p) => p,
        Err(msg) => return usage(&msg),
    };
    mm_linalg::parallel::set_max_threads(Some(LINALG_THREADS));
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", opts.scratch.display());
        return ExitCode::FAILURE;
    }
    let mut out: Outcome = match opts.workload.as_str() {
        "cold_select" => bench::cold_select(&opts),
        "hot_answer" => bench::hot_answer(&opts),
        "batch_answer" => bench::batch_answer(&opts),
        _ => bench::structured_answer(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    out.checker.finish();

    let mut latencies = out.latencies_ms.clone();
    let p50 = quantile(&mut latencies, 0.5);
    let p90 = quantile(&mut latencies, 0.9);
    let metrics: Vec<(&str, f64, &str)> = if opts.traced {
        let spans = trace::take_spans();
        let summary = layers::summarize(&spans);
        for u in summary.uncovered.iter().take(8) {
            out.checker.fail(format!("span coverage: {u}"));
        }
        let trace_path = out_dir.join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
        if let Err(e) = layers::write_spans(&trace_path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
        }
        let (noise_draws, store_reads, store_writes) = trace::counts();
        out.counts
            .push(("trace.gram_calls", summary.calls("workload.gram")));
        out.counts.push(("trace.noise_draws", noise_draws));
        out.counts
            .push(("trace.charges", summary.calls("accounting.charge")));
        out.counts.push(("trace.store_reads", store_reads));
        out.counts.push(("trace.store_writes", store_writes));
        layers::metrics(
            &summary,
            &out.stages,
            out.attempted,
            noise_draws,
            out.queue_depth_max,
        )
    } else {
        let mut setup = out.setup_s.clone();
        vec![
            ("setup_s", quantile(&mut setup, 0.5), "s"),
            ("latency_ms.p50", p50, "ms"),
            ("answers_per_s", out.answers as f64 / out.window_s, "1/s"),
            (
                "expected_rms_error",
                out.checker.mean_expected_rms_error(),
                "count",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    for f in out.checker.failures() {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = out.checker.failed_checks() == 0;
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "# summary {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"requests\": {}, \
         \"answers\": {}, \"latency_ms.p50\": {p50:?}, \"latency_ms.p90\": {p90:?}, \"window_s\": {:?}, \"error_ratio\": {:?}, \
         \"digest\": \"{:016x}\", \"counts\": {{{}}}}}",
        opts.workload,
        opts.seed,
        opts.traced,
        out.attempted,
        out.answers,
        out.window_s,
        out.checker.error_ratio(),
        out.checker.digest(),
        counts.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
