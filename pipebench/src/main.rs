//! End-to-end benchmark of the paper pipeline.
//!
//! ```text
//! pipebench --workload paper_pipeline|explore_heavy|serve_mixed
//!           --seed N --seconds S --trace 0|1 [--serve-bin PATH]
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the seed, host cores, commit and corpus digest; traced
//! runs also write their spans under `.pipebench-out/`.
//! `pipebench/README.md` documents workloads, metrics and layers.

mod calib;
mod corpus;
mod explore;
mod measure;
mod pipeline;
mod rounds;
mod serve;
mod trace;

use calib::{Calib, Timing};
use measure::{json_num, json_str, peak_rss_mb, EndToEnd, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// An untraced run is cut into this many segments of equal length, each
/// starting with fresh set-ups that its timed rounds then use. The
/// host's speed drifts over seconds, so set-ups spread over the run
/// sample it as the timed phase does.
const SEGMENTS: u32 = 4;

/// How many times each segment sets up, keeping the last; `setup_s` is
/// the median of all set-ups of the run.
const SETUP_REPEATS: usize = 2;

/// The number of segments of a run: one when tracing, which reports no
/// set-up time.
fn segments(args: &Args) -> u32 {
    if args.trace {
        1
    } else {
        SEGMENTS
    }
}

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("format.parse.ms", "ms"),
    ("format.parse.bytes", "B"),
    ("format.write.ms", "ms"),
    ("cip.expand.ms", "ms"),
    ("cip.expand.hit_ratio", "ratio"),
    ("core.compose.ms", "ms"),
    ("core.compose.transitions", "count"),
    ("core.receptive.ms", "ms"),
    ("core.reduce.ms", "ms"),
    ("core.reduce.transitions_out", "count"),
    ("core.reduce.dead_removed", "count"),
    ("core.library.ms", "ms"),
    ("core.library.hit_ratio", "ratio"),
    ("core.library.misses", "count"),
    ("petri.explore.ms", "ms"),
    ("petri.explore.states", "count"),
    ("petri.explore.edges", "count"),
    ("petri.explore.states_per_s", "1/s"),
    ("petri.netid.ms", "ms"),
    ("serve.cache.ms", "ms"),
    ("serve.rtt.reach_ms", "ms"),
    ("serve.rtt.verify_ms", "ms"),
    ("serve.rtt.batch_ms", "ms"),
    ("serve.cache.byte_hit_ratio", "ratio"),
    ("serve.cache.structural_hit_ratio", "ratio"),
    ("serve.cache.miss_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.compute_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.bad_requests", "count"),
    ("serve.partial_mismatch", "count"),
    ("fail_frac", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::from(".bench_build/release/cpn-serve"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| "bad --trace")? != 0,
            "--serve-bin" => a.serve_bin = PathBuf::from(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last result, and
/// probes the host's speed after each.
fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    calib: &mut Calib,
) -> Result<(T, Vec<Timing>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(Timing::since(t0));
        calib.probe();
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Per-layer values from a tracer: span self time per op over
/// `span_ops` ops, counters per op over the `count_ops` ops they cover,
/// and the derived ratios.
fn span_values(tr: &trace::Tracer, span_ops: u64, count_ops: u64) -> BTreeMap<String, f64> {
    let mut v = BTreeMap::new();
    let self_times = tr.self_times();
    for (name, d) in &self_times {
        if *name != trace::JOB {
            v.insert(
                format!("{name}.ms"),
                d.as_secs_f64() * 1e3 / span_ops.max(1) as f64,
            );
        }
    }
    for name in [
        "format.parse.bytes",
        "core.compose.transitions",
        "core.reduce.transitions_out",
        "core.reduce.dead_removed",
        "core.library.misses",
        "petri.explore.states",
        "petri.explore.edges",
    ] {
        v.insert(
            name.to_owned(),
            tr.counter(name) as f64 / count_ops.max(1) as f64,
        );
    }
    let ratio = |hits: &str, misses: &str| {
        let (h, m) = (tr.counter(hits) as f64, tr.counter(misses) as f64);
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    v.insert(
        "cip.expand.hit_ratio".into(),
        ratio("cip.expand.hits", "cip.expand.misses"),
    );
    v.insert(
        "core.library.hit_ratio".into(),
        ratio("core.library.hits", "core.library.misses"),
    );
    let explore_ms = v.get("petri.explore.ms").copied().unwrap_or(0.0);
    if explore_ms > 0.0 {
        v.insert(
            "petri.explore.states_per_s".into(),
            v["petri.explore.states"] / explore_ms * 1e3,
        );
    }
    let job = tr.job_time().as_secs_f64();
    if job > 0.0 {
        let unattributed = self_times.get(trace::JOB).copied().unwrap_or_default();
        v.insert(
            "trace.unattributed_pct".into(),
            unattributed.as_secs_f64() / job * 100.0,
        );
    }
    v
}

/// Tracing overhead from the round throughputs of alternating traced
/// and untraced rounds; medians, so that interference cancels out.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    (measure::median(untraced) / measure::median(traced) - 1.0) * 100.0
}

/// The report of an in-process workload.
fn in_process<W: rounds::Workload>(
    mut setup: impl FnMut() -> Result<W, String>,
    digest: fn(&W) -> String,
    args: &Args,
) -> Result<Report, String> {
    let (mut setups, mut meta) = (Vec::new(), Vec::new());
    let mut t = rounds::Timed::new();
    let mut next = 0;
    let segments = segments(args);
    for _ in 0..segments {
        let (mut w, times) = repeated_setup(&mut setup, &mut t.calib)?;
        setups.extend(times);
        meta = base_meta(args, &digest(&w));
        next = rounds::run(
            &mut w,
            next,
            args.seconds / f64::from(segments),
            args.trace,
            &mut t,
        );
    }
    let mut report = Report {
        attempted: t.attempted,
        failed: t.failed,
        wrong: t.wrong,
        metrics: Vec::new(),
        meta,
    };
    if args.trace {
        let mut v = span_values(&t.tracer, t.traced_ops, t.counted_ops);
        v.insert(
            "trace.overhead_pct".into(),
            overhead_pct(&t.traced_rates, &t.untraced_rates),
        );
        v.insert(
            "fail_frac".into(),
            t.failed as f64 / t.attempted.max(1) as f64,
        );
        push_layers(&mut report, &v);
        report
            .meta
            .push(("counters".into(), counters_json(t.tracer.counters())));
        write_spans(&t.tracer, args, &report.meta);
    } else {
        EndToEnd {
            setups: &setups,
            ops: &t.ops,
            timed: &t.timed,
            cpu: &t.cpu,
            peak_rss_mb: peak_rss_mb("self"),
            calib: &t.calib,
        }
        .push_into(&mut report);
    }
    Ok(report)
}

/// Appends every per-layer metric; layers a workload never calls into
/// read 0.
pub fn push_layers(report: &mut Report, values: &BTreeMap<String, f64>) {
    for &(name, unit) in PER_LAYER {
        report.push(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

fn counters_json(counters: &BTreeMap<&'static str, u64>) -> String {
    let body: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn write_spans(tr: &trace::Tracer, args: &Args, meta: &[(String, String)]) {
    let dir = PathBuf::from(".pipebench-out");
    let path = dir.join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| tr.write_jsonl(&path, &meta_json(meta)));
    if let Err(e) = written {
        eprintln!("pipebench: cannot write {}: {e}", path.display());
    }
}

fn meta_json(meta: &[(String, String)]) -> String {
    let body: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".to_owned()
    } else {
        sha.to_owned()
    }
}

fn base_meta(args: &Args, digest: &str) -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("host_cores".into(), cores.to_string()),
        ("commit".into(), json_str(&commit())),
        ("corpus_digest".into(), json_str(digest)),
    ]
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper_pipeline" => in_process(
            || pipeline::PaperPipeline::setup(args.seed),
            |w| w.digest.hex(),
            args,
        ),
        "explore_heavy" => in_process(
            || Ok(explore::ExploreHeavy::setup(args.seed)),
            |w| w.digest.hex(),
            args,
        ),
        "serve_mixed" => serve::run(args),
        other => Err(format!(
            "unknown workload `{other}` (paper_pipeline, explore_heavy, serve_mixed)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", meta_json(&report.meta));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.wrong == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
