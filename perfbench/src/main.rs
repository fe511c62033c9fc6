//! The repository's benchmark: three workloads over the l-diversity
//! publishing stack, each checked against an independent recomputation.
//!
//! ```text
//! perfbench --workload batch-grid|serve-mix|store-stream --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run makes a fixed number of rounds, sized from
//! `S` to fill about `S` seconds on the reference host, with tracing off,
//! and prints the end-to-end metrics; with `--trace 1` it replays the same
//! operations with timers around every layer call and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod batch;
mod check;
mod http;
mod inputs;
mod publish;
mod serve;
mod stats;
mod store;
mod trace;

use stats::{median, peak_rss_mb, tail, Outcome, PerRound, TAIL_ROUNDS, TAIL_SAMPLES};
use std::process::ExitCode;

/// Run settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a timed run measured, before it becomes end-to-end metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Operations completed, rows they published, and the measured time.
    pub ops: u64,
    pub rows: f64,
    pub wall_ms: f64,
    /// Latency samples, in milliseconds, per metric.
    pub hit: Vec<f64>,
    pub miss: Vec<f64>,
    pub req_tail: PerRound,
    pub append: Vec<f64>,
    pub publish: Vec<f64>,
    pub publish_tail: PerRound,
    /// Eq. (2) KL of each distinct publication of the first round, and
    /// the stars of its suppression publications.
    pub kl: Vec<f64>,
    pub stars: usize,
}

impl Measured {
    /// Writes the end-to-end metrics. A sample set too small for its
    /// statistic is a fault of the run, never a best-possible 0.
    fn report(&self, out: &mut Outcome) {
        let mut missing = Vec::new();
        let mut p50 = |name: &'static str, v: &[f64]| {
            if v.is_empty() {
                missing.push(format!("{name}: no samples"));
                return f64::NAN;
            }
            median(v)
        };
        let setup_s = p50("setup_s", &self.setup_s);
        let hit = p50("hit_p50_ms", &self.hit);
        let miss = p50("miss_p50_ms", &self.miss);
        let append = p50("append_p50_ms", &self.append);
        let publish = p50("publish_p50_ms", &self.publish);
        let mut tail_of = |name: &'static str, v: &PerRound| {
            tail(v).unwrap_or_else(|| {
                missing.push(format!(
                    "{name}: {} samples, a tail needs {TAIL_SAMPLES} over {TAIL_ROUNDS} rounds",
                    v.count()
                ));
                f64::NAN
            })
        };
        let req_tail = tail_of("req_tail_ms", &self.req_tail);
        let publish_tail = tail_of("publish_tail_ms", &self.publish_tail);
        if self.kl.is_empty() || self.ops == 0 || self.wall_ms <= 0.0 {
            missing.push("no publication or operation was measured".to_string());
        }
        for problem in missing {
            out.wrong(problem);
        }
        let wall_s = self.wall_ms / 1e3;
        out.metric("setup_s", setup_s, "s");
        out.metric("rows_per_s", self.rows / wall_s, "rows/s");
        out.metric("req_per_s", self.ops as f64 / wall_s, "req/s");
        out.metric("hit_p50_ms", hit, "ms");
        out.metric("miss_p50_ms", miss, "ms");
        out.metric("req_tail_ms", req_tail, "ms");
        out.metric("append_p50_ms", append, "ms");
        out.metric("publish_p50_ms", publish, "ms");
        out.metric("publish_tail_ms", publish_tail, "ms");
        let kl_mean = self.kl.iter().sum::<f64>() / self.kl.len().max(1) as f64;
        out.metric("kl_mean", kl_mean, "nat");
        out.metric("stars", self.stars as f64, "count");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload batch-grid|serve-mix|store-stream --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut settings = Settings {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage();
        };
        let ok = match args[i].as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| settings.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| settings.seconds = v)
                .is_ok_and(|_| settings.seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    settings.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
        i += 2;
    }
    let run = match workload.as_deref() {
        Some("batch-grid") => batch::run,
        Some("serve-mix") => serve::run,
        Some("store-stream") => store::run,
        _ => return usage(),
    };
    let mut out = Outcome::new();
    match run(settings, &mut out) {
        Ok(Some(measured)) => measured.report(&mut out),
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    for problem in &out.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
