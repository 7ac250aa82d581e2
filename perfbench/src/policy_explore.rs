//! `policy-explore`: the E19 packed state-space engine over a seeded
//! 12-camera policy: an exhaustive sweep (`explore_packed`) and a
//! frontier BFS (`bfs_packed`), both at the host's thread count.
//!
//! This is the only workload on `iotpolicy::packed`, `MemoPolicy` and
//! `explore`. The traced run adds the same two calls at one thread as
//! the scaling reference for the E19 parallel slowdown.

use crate::layers::Layers;
use crate::span::{self, Span};
use crate::stats::{median, ratio};
use crate::{alloc, fnv, gen, setup_median, timing_line, Cfg, Outcome, Repeats, Window};
use iotpolicy::explore::{bfs_packed, explore_packed, BfsStats, SpaceStats};
use iotpolicy::policy::FsmPolicy;
use std::time::Instant;
use trace::{TraceConfig, Tracer};

/// One pass's results.
struct Pass {
    sweep: SpaceStats,
    bfs: BfsStats,
    explore_ns: u64,
    bfs_ns: u64,
    bytes: u64,
}

impl Pass {
    /// The output check: the sweep visits the whole raw schema and the
    /// BFS reaches every one of those states.
    fn ok(&self, policy: &FsmPolicy) -> bool {
        self.sweep.states == policy.schema.size() && self.bfs.visited == self.sweep.states
    }

    fn digest(&self) -> u64 {
        fnv(&format!(
            "{} {} fd={:016x}",
            self.sweep.digest(),
            self.bfs.histogram(),
            self.bfs.frontier_digest
        ))
    }

    /// States swept plus states the BFS visited.
    fn states(&self) -> u128 {
        self.sweep.states + self.bfs.visited
    }
}

/// One explore + BFS pass, with a span around each call.
fn run_pass(policy: &FsmPolicy, threads: usize, tracer: &Tracer, op: u64) -> (Pass, Vec<Span>) {
    let mut log = Vec::with_capacity(3);
    let before = alloc::process();
    let root = span::begin("iotpolicy.pass", None, op);
    let s = span::begin("iotpolicy.explore", Some(root.id()), op);
    let sweep = explore_packed(policy, threads).expect("the 12-camera schema packs");
    let explore_ns = s.end(&mut log);
    let s = span::begin("iotpolicy.bfs", Some(root.id()), op);
    let bfs = bfs_packed(policy, threads, tracer).expect("the 12-camera schema packs");
    let bfs_ns = s.end(&mut log);
    root.end(&mut log);
    let bytes = alloc::process().since(before).bytes;
    (Pass { sweep, bfs, explore_ns, bfs_ns, bytes }, log)
}

/// One warm-up pass, whose wall time in seconds is returned: the first
/// pass faults in the heap the later ones reuse and runs a quarter to a
/// half slower.
fn warm_up(policy: &FsmPolicy, threads: usize, repeats: &mut Repeats) -> f64 {
    let t = Instant::now();
    let (p, _) = run_pass(policy, threads, &Tracer::disabled(), 0);
    repeats.observe(vec![p.digest()]);
    t.elapsed().as_secs_f64()
}

/// Untraced passes until `window` closes.
fn measure(
    policy: &FsmPolicy,
    threads: usize,
    window: &Window,
    repeats: &mut Repeats,
) -> Vec<Pass> {
    let mut passes = Vec::new();
    while window.open(passes.len()) {
        let (p, _) = run_pass(policy, threads, &Tracer::disabled(), 0);
        repeats.observe(vec![p.digest()]);
        passes.push(p);
    }
    passes
}

/// End-to-end run.
pub fn run(cfg: &Cfg) -> Outcome {
    let (policy, build_s, builds) = setup_median(|| gen::policy(cfg.seed));
    let mut repeats = Repeats::default();
    let setup_s = build_s + warm_up(&policy, cfg.threads, &mut repeats);
    let passes = measure(&policy, cfg.threads, &Window::new(cfg.seconds), &mut repeats);
    let pass_ms: Vec<f64> = passes.iter().map(|p| (p.explore_ns + p.bfs_ns) as f64 / 1e6).collect();
    let explore_s = passes.iter().map(|p| p.explore_ns).sum::<u64>() as f64 / 1e9;
    let bfs_s = passes.iter().map(|p| p.bfs_ns).sum::<u64>() as f64 / 1e9;
    let swept: u128 = passes.iter().map(|p| p.sweep.states).sum();
    let visited: u128 = passes.iter().map(|p| p.bfs.visited).sum();
    let pass_rates: Vec<f64> = passes
        .iter()
        .map(|p| p.states() as f64 / ((p.explore_ns + p.bfs_ns) as f64 / 1e9))
        .collect();
    let states = passes.iter().map(Pass::states).sum::<u128>() as f64;
    let bytes: u64 = passes.iter().map(|p| p.bytes).sum();
    Outcome {
        attempted: passes.len() as u64,
        failed: passes.iter().filter(|p| !p.ok(&policy)).count() as u64,
        repeats,
        e2e: vec![
            ("setup_s", setup_s),
            ("ops_per_s", median(&pass_rates)),
            ("job_ms_p50", median(&pass_ms)),
            ("alloc_bytes_per_op", bytes as f64 / states),
        ],
        lines: vec![
            format!(
                "{} passes over {} raw states, {} posture classes",
                passes.len(),
                policy.schema.size(),
                passes[0].sweep.classes
            ),
            format!("states_per_s = {} 1/s (sweep, {swept} states)", swept as f64 / explore_s),
            format!("bfs_states_per_s = {} 1/s ({visited} states)", visited as f64 / bfs_s),
            format!("pass_ms_median = {} ms (n={})", median(&pass_ms), pass_ms.len()),
            format!("setup_s is the median of {builds} policy builds plus one warm-up pass"),
            format!(
                "explore_ms, bfs_ms per pass = {:?}",
                passes
                    .iter()
                    .map(|p| (p.explore_ns / 1_000_000, p.bfs_ns / 1_000_000))
                    .collect::<Vec<_>>()
            ),
            timing_line("pass_ms_p99", &pass_ms, 99.0),
        ],
        ..Outcome::default()
    }
}

/// Traced run: untraced passes over a third of the window, then as many
/// traced passes, each followed by the one-thread reference calls.
pub fn run_traced(cfg: &Cfg) -> Outcome {
    let mut spans = Vec::new();
    let s = span::begin("iotpolicy.build", None, 0);
    let policy = gen::policy(cfg.seed);
    let build_ns = s.end(&mut spans);
    let mut repeats = Repeats::default();
    warm_up(&policy, cfg.threads, &mut repeats);
    let untraced = measure(&policy, cfg.threads, &Window::new(cfg.seconds / 3.0), &mut repeats);
    let untraced_ns: u64 = untraced.iter().map(|p| p.explore_ns + p.bfs_ns).sum();

    let (mut traced_ns, mut serial_explore_ns, mut serial_bfs_ns) = (0, 0, 0);
    let (mut failed, mut frontier_events) = (0, 0);
    let mut serial_memo = (0, 0);
    let mut last = None;
    for op in 0..untraced.len() as u64 {
        let tracer = Tracer::new(TraceConfig::control_only());
        let (p, log) = run_pass(&policy, cfg.threads, &tracer, op);
        spans.extend(log);
        frontier_events += tracer.len() as u64;
        traced_ns += p.explore_ns + p.bfs_ns;
        failed += u64::from(!p.ok(&policy));

        let s = span::begin("iotpolicy.explore_serial", None, op);
        let sweep = explore_packed(&policy, 1).expect("the 12-camera schema packs");
        serial_explore_ns += s.end(&mut spans);
        let s = span::begin("iotpolicy.bfs_serial", None, op);
        let bfs = bfs_packed(&policy, 1, &Tracer::disabled()).expect("the 12-camera schema packs");
        serial_bfs_ns += s.end(&mut spans);
        serial_memo = sweep.memo;
        let serial = Pass { sweep, bfs, explore_ns: 0, bfs_ns: 0, bytes: 0 };
        // The serial engine is the reference: its outputs must match.
        repeats.observe(vec![p.digest()]);
        repeats.observe(vec![serial.digest()]);
        last = Some(p);
    }
    let p = last.expect("at least one pass");
    let n = untraced.len() as u64;
    let per = |ns: u64| ratio(ns as f64, n as f64) / 1e3;
    let mut l = Layers::default();
    l.set("iotpolicy.build_us", build_ns as f64 / 1e3, 1);
    l.set("iotpolicy.explore_us", per(span::total(&spans, "iotpolicy.explore").0), n);
    l.set("iotpolicy.explore_serial_us", per(serial_explore_ns), n);
    l.set("iotpolicy.bfs_us", per(span::total(&spans, "iotpolicy.bfs").0), n);
    l.set("iotpolicy.bfs_serial_us", per(serial_bfs_ns), n);
    l.set("iotpolicy.bfs_depth", p.bfs.depths.len().saturating_sub(1) as f64, n);
    l.set(
        "iotpolicy.memo_hit_ratio",
        ratio(serial_memo.1 as f64, serial_memo.0 as f64),
        serial_memo.0,
    );
    l.set("iotpolicy.classes", p.sweep.classes as f64, n);
    l.set("trace.events", ratio(frontier_events as f64, n as f64), n);
    l.set("trace.overhead_ratio", ratio(traced_ns as f64, untraced_ns as f64), n);
    l.set_self_times(&spans, n);
    Outcome {
        attempted: n,
        failed,
        repeats,
        layers: l,
        spans,
        lines: vec![format!("{n} untraced then {n} traced passes, each with 1-thread references")],
        ..Outcome::default()
    }
}
