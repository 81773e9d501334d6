//! `tsbench`: the repository benchmark.
//!
//! ```text
//! tsbench --workload paper|universe|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root (it reads `tests/golden/table4.txt`).
//! With `--trace 0` the last stdout line carries every end-to-end metric;
//! with `--trace 1` it carries every per-layer metric. The line before it
//! is an info object: host, inputs, each metric's spread and sample
//! count, and any correctness failure. The exit code is non-zero when a
//! correctness check fails. See README.md for the workloads and metrics.

mod batch;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use stats::{json_obj, json_str, num, Metric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Universe,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper" => Some(Workload::Paper),
            "universe" => Some(Workload::Universe),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Universe => "universe",
            Workload::Serve => "serve",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What a workload run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Correctness failures; any one fails the run.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub inputs: Vec<(&'static str, String)>,
}

/// Every end-to-end metric, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "pages_per_s",
    "f_csp",
    "f_prob",
    "p50_ms",
    "p99_ms",
    "peak_rss_mb",
];

/// Every per-layer metric with its unit. A traced result carries all of
/// them; one of a layer the workload does not reach reads 0 and is named
/// under `unreached` in the info line.
const PER_LAYER: [(&str, &str); 29] = [
    ("template.build_ms", "ms/page"),
    ("html.tokenize_ms", "ms/page"),
    ("template.induce_ms", "ms/page"),
    ("extract.prepare_ms", "ms/page"),
    ("extract.extract_ms", "ms/page"),
    ("extract.match_ms", "ms/page"),
    ("extract.matched_ratio", "ratio"),
    ("template.whole_page_ratio", "ratio"),
    ("csp.solve_ms", "ms/page"),
    ("csp.reduce_ms", "ms/page"),
    ("csp.page_max_ms", "ms"),
    ("csp.flips", "count/page"),
    ("csp.tries", "count/page"),
    ("csp.components", "count/page"),
    ("csp.pruned_vars", "count/page"),
    ("csp.relaxed_pages", "ratio"),
    ("csp.warm_start_ratio", "ratio"),
    ("prob.solve_ms", "ms/page"),
    ("prob.e_step_ms", "ms/page"),
    ("prob.m_step_ms", "ms/page"),
    ("prob.viterbi_ms", "ms/page"),
    ("prob.em_iterations", "count/page"),
    ("serve.warm_ms", "ms"),
    ("serve.cold_ms", "ms"),
    ("serve.refresh_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.codec_us", "us"),
    ("core.other_ms", "ms/page"),
    ("trace.overhead_pct", "%"),
];

fn usage() -> &'static str {
    "usage: tsbench --workload paper|universe|serve --seed N --seconds S --trace 0|1"
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// The benchmark's own directory (where traces are written).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    bench_dir().join("..")
}

/// Writes a traced run's spans next to the benchmark, under `out/`.
pub fn write_trace(args: &Args, spans: &[trace::Span]) -> std::io::Result<()> {
    let path = bench_dir().join("out").join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    trace::write_spans(&path, spans)
}

/// FNV-1a over the sources the benchmark builds from (the checkout it
/// runs in is not a git repository, so this stands in for the commit).
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("fnv64:{h:016x}")
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_block() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json_obj(&[
        ("nproc", nproc.to_string()),
        ("rustc", json_str(env!("TSBENCH_RUSTC_VERSION"))),
        ("commit", json_str(&git_commit())),
        ("source", json_str(&source_digest())),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut outcome = match (args.workload, args.trace) {
        (Workload::Serve, false) => serve::run(&args),
        (Workload::Serve, true) => serve::run_traced(&args),
        (_, false) => batch::run(&args),
        (_, true) => batch::run_traced(&args),
    };

    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|n| (*n, "")).collect()
    };
    let mut unreached = Vec::new();
    for (name, unit) in &names {
        if !outcome.metrics.iter().any(|m| m.name == *name) {
            assert!(args.trace, "end-to-end metric {name} not measured");
            outcome.metrics.push(Metric::single(name, unit, 0.0));
            unreached.push(json_str(name));
        }
    }
    // Order as the benchmark lists them.
    outcome
        .metrics
        .sort_by_key(|m| names.iter().position(|(n, _)| *n == m.name));

    let distribution = json_obj(
        &outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    json_obj(&[
                        ("median", num(m.value)),
                        ("spread", num(m.spread)),
                        ("samples", m.samples.to_string()),
                    ]),
                )
            })
            .collect::<Vec<_>>(),
    );
    let errors: Vec<String> = outcome.errors.iter().map(|e| json_str(e)).collect();
    let info = json_obj(&[
        ("workload", json_str(args.workload.name())),
        ("trace", args.trace.to_string()),
        ("seconds", num(args.seconds.as_secs_f64())),
        ("host", host_block()),
        ("inputs", json_obj(&outcome.inputs)),
        ("distribution", distribution),
        ("unreached", format!("[{}]", unreached.join(", "))),
        ("errors", format!("[{}]", errors.join(", "))),
    ]);
    println!("{}", json_obj(&[("info", info)]));

    let correct = outcome.errors.is_empty();
    let metrics = json_obj(
        &outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    json_obj(&[("value", num(m.value)), ("unit", json_str(m.unit))]),
                )
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "{}",
        json_obj(&[
            ("correct", correct.to_string()),
            ("attempted", outcome.attempted.max(1).to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", metrics),
        ])
    );
    for e in &outcome.errors {
        eprintln!("tsbench: check failed: {e}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
