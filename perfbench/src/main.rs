//! One benchmark for the IoTSec reproduction: three closed-loop batch
//! workloads, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <world-sweep|fleet-churn|policy-explore> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs an untraced phase, then the same inputs again with
//! spans around every call into a layer, and reports the per-layer
//! metrics (see `perfbench/README.md` for the layer → metric → workload
//! map). Human-readable lines come first; the last line of standard
//! output is one JSON object.

mod alloc;
mod fleet_churn;
mod gen;
mod layers;
mod policy_explore;
mod span;
mod stats;
mod world_sweep;

use layers::Layers;
use span::Span;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Fnv64;

/// A workload's end-to-end run or traced run.
type Run = fn(&Cfg) -> Outcome;

/// The workloads by command-line name: `(name, run, traced run)`.
const WORKLOADS: &[(&str, Run, Run)] = &[
    ("world-sweep", world_sweep::run, world_sweep::run_traced),
    ("fleet-churn", fleet_churn::run, fleet_churn::run_traced),
    ("policy-explore", policy_explore::run, policy_explore::run_traced),
];

/// `(name, unit)` of every end-to-end metric, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("alloc_bytes_per_op", "B"),
    ("peak_heap_mb", "MB"),
];

/// Each workload repeats its set-up at least this many times, and
/// until [`SETUP_MIN_SECONDS`] have passed; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// See [`SETUP_REPS`]: a set-up of microseconds is repeated until its
/// median no longer rests on a few clock readings.
const SETUP_MIN_SECONDS: f64 = 0.25;

/// One run's parameters.
pub struct Cfg {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Worker threads (the host's available parallelism).
    pub threads: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations (worlds, rounds, passes, scenarios) attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Every pass reproduced the first one's outputs.
    pub repeats: Repeats,
    /// End-to-end metrics except `peak_heap_mb` (untraced runs).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Spans of the traced phase.
    pub spans: Vec<Span>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// The per-operation digests of the first pass over a workload's fixed
/// inputs, and whether every later pass (untraced or traced) matched.
#[derive(Default)]
pub struct Repeats {
    first: Option<Vec<u64>>,
    mismatches: u64,
}

impl Repeats {
    /// Record one pass's per-operation digests.
    pub fn observe(&mut self, pass: Vec<u64>) {
        match &self.first {
            None => self.first = Some(pass),
            Some(first) if *first != pass => self.mismatches += 1,
            Some(_) => {}
        }
    }

    /// Whether every pass matched the first.
    pub fn consistent(&self) -> bool {
        self.first.is_some() && self.mismatches == 0
    }

    /// The chained digest of the first pass.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for d in self.first.iter().flatten() {
            h.write_u64(*d);
        }
        h.finish()
    }
}

/// FNV-1a of a string (per-operation output digests).
pub fn fnv(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(s.as_bytes());
    h.finish()
}

/// A measuring window: open until `seconds` have passed, and always
/// for at least one pass.
pub struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    /// Open a window now.
    pub fn new(seconds: f64) -> Window {
        Window { start: Instant::now(), seconds }
    }

    /// Whether another pass should start after `passes` passes.
    pub fn open(&self, passes: usize) -> bool {
        passes == 0 || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Run `setup` repeatedly (see [`SETUP_REPS`]); return the last result,
/// the median wall time in seconds and how many set-ups it is over.
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (T, f64, usize) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&times), times.len())
}

/// `ms` with its sample count, or why the percentile is not reported.
pub fn timing_line(name: &str, samples: &[f64], p: f64) -> String {
    match stats::percentile(samples, p) {
        Some(v) => format!("{name} = {v:.4} ms (n={})", samples.len()),
        None => format!(
            "{name} = n/a: {} samples leave fewer than {} beyond p{p}",
            samples.len(),
            stats::TAIL_SAMPLES
        ),
    }
}

struct Args {
    workload: &'static str,
    run: Run,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let Some(&(name, run, run_traced)) = WORKLOADS.iter().find(|(n, ..)| *n == workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, ..)| *n).collect();
        return Err(format!("unknown workload {workload}; expected one of {names:?}"));
    };
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let run = if trace { run_traced } else { run };
    Ok(Args { workload: name, run, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

/// Where runs leave their spans and per-seed digests (ignored by git).
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Compare this run's digest with the one an earlier run of the same
/// binary, workload and seed stored, storing it if it is the first.
/// Returns whether they agree.
fn agrees_with_earlier_runs(workload: &str, seed: u64, digest: u64) -> std::io::Result<bool> {
    let exe = std::fs::metadata(std::env::current_exe()?)?;
    let built = exe.modified()?.duration_since(std::time::UNIX_EPOCH).unwrap_or_default();
    let dir = out_dir().join("digests");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-{seed}-{}-{}", exe.len(), built.as_nanos()));
    let mine = format!("{digest:016x}\n");
    match std::fs::read_to_string(&path) {
        Ok(earlier) => Ok(earlier == mine),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(&path, &mine)?;
            Ok(true)
        }
        Err(e) => Err(e),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Cfg { seed: args.seed, seconds: args.seconds as f64, threads };
    let sampler = alloc::HeapSampler::start();
    let outcome = (args.run)(&cfg);
    let peak_heap_mb = sampler.finish();

    let digest = outcome.repeats.digest();
    let stored = agrees_with_earlier_runs(args.workload, args.seed, digest);
    let mut correct = outcome.repeats.consistent() && outcome.attempted > 0;
    println!("{} seed={} threads={threads} trace={}", args.workload, args.seed, args.trace as u8);
    for line in &outcome.lines {
        println!("  {line}");
    }
    println!("  digest = {digest:016x}");
    match alloc::peak_rss_mb() {
        Some(mb) => println!("  peak_rss_mb = {mb} MB (VmHWM)"),
        None => println!("  peak_rss_mb = n/a: /proc/self/status has no VmHWM"),
    }
    if !outcome.repeats.consistent() {
        println!("  ERROR: a repeated or traced pass did not reproduce the first pass's outputs");
    }
    match stored {
        Ok(true) => {}
        Ok(false) => {
            correct = false;
            println!("  ERROR: digest differs from an earlier run of this binary and seed");
        }
        Err(e) => {
            correct = false;
            println!("  ERROR: digest store: {e}");
        }
    }
    println!(
        "  failed_ratio = {} ({} of {} operations failed their output check)",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );

    let mut metrics = String::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    };
    if args.trace {
        for (name, value, unit, samples) in outcome.layers.all() {
            println!("  {name} = {value} {unit} (n={samples})");
            push(name, value, unit);
        }
        let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, span::to_jsonl(&outcome.spans)));
        match written {
            Ok(()) => println!("  {} spans written to {}", outcome.spans.len(), path.display()),
            Err(e) => {
                correct = false;
                println!("  ERROR: writing spans: {e}");
            }
        }
    } else {
        for &(name, unit) in END_TO_END {
            let value = if name == "peak_heap_mb" {
                peak_heap_mb
            } else {
                outcome.e2e.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).unwrap_or_else(|| {
                    correct = false;
                    0.0
                })
            };
            println!("  {name} = {value} {unit}");
            push(name, value, unit);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `BENCHMARK.json` declares exactly the metrics this program
    /// reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let declared = |name: &str, unit: &str| {
            BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\""))
        };
        for &(name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(declared(name, unit), "{name} ({unit}) is not declared");
        }
        let names = BENCHMARK_JSON.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + layers::PER_LAYER.len());
        for (w, ..) in WORKLOADS {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn repeats_flag_a_pass_that_differs() {
        let mut r = Repeats::default();
        assert!(!r.consistent(), "no pass yet");
        r.observe(vec![1, 2]);
        r.observe(vec![1, 2]);
        assert!(r.consistent());
        let d = r.digest();
        r.observe(vec![1, 3]);
        assert!(!r.consistent());
        assert_eq!(r.digest(), d, "the digest is the first pass's");
    }
}
