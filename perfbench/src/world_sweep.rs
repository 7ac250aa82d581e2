//! `world-sweep`: independent single-home worlds through the E16 sweep
//! engine, each built, run to attack completion and reported.
//!
//! Per-event work dominates here: the engine, switch/flow lookup, µmbox
//! chains and the device and attacker FSMs. The population axis grows
//! flow tables and the per-tick device loop; the undefended half never
//! enters a µmbox.

use crate::layers::{self, Layers, WorldTally};
use crate::span::{self, Span};
use crate::stats::{median, ratio};
use crate::{alloc, fnv, gen, timing_line, Cfg, Outcome, Repeats, Window};
use iotctl::safety::check_trace_fail_closed;
use iotnet::engine::QueueKind;
use iotnet::time::SimDuration;
use iotsec::defense::Defense;
use iotsec::scenario;
use iotsec_bench::exp_world::exploit_landed;
use iotsec_bench::sweep::{run_sweep, run_world_job, SweepScenario, WorldJob, WorldOutcome};
use std::time::Instant;
use trace::TraceConfig;

/// Worlds of each (scenario, population) kind in one pass.
const PER_KIND: usize = 64;
/// Distinct (scenario, population) kinds.
const KINDS: usize = gen::SCENARIOS.len() * gen::POPULATIONS.len();
/// How long `run_world_job` lets an attack campaign run.
const ATTACK_LIMIT: SimDuration = SimDuration::from_secs(300);

/// The output check: a defended home ends uncompromised with the camera
/// not leaked; an undefended home lands the Table-1 row-1 exploit.
fn check(o: &WorldOutcome) -> bool {
    match o.job.scenario {
        SweepScenario::HomeIoTSec => o.compromised == 0 && !o.camera_leaked,
        SweepScenario::HomeUndefended => o.camera_leaked,
    }
}

/// The job list, after one warm-up world of every kind.
fn setup(seed: u64) -> Vec<WorldJob> {
    let jobs = gen::world_jobs(seed, PER_KIND);
    for job in &jobs[..KINDS] {
        std::hint::black_box(run_world_job(job));
    }
    jobs
}

/// One untraced pass: every job through `run_sweep`, each with its own
/// wall time in ns.
fn pass(jobs: &[WorldJob], threads: usize) -> Vec<(WorldOutcome, u64)> {
    run_sweep(jobs.to_vec(), threads, |_, job| {
        let t = Instant::now();
        let out = run_world_job(job);
        (out, t.elapsed().as_nanos() as u64)
    })
}

/// Untraced passes until `window` closes, each after its own set-up.
#[derive(Default)]
struct Measured {
    passes: usize,
    /// Wall time of each pass's set-up, in seconds.
    setup_s: Vec<f64>,
    wall_ns: u64,
    /// Engine events per second of each pass.
    pass_rates: Vec<f64>,
    job_ns: Vec<u64>,
    events: u64,
    bytes: u64,
    attempted: u64,
    failed: u64,
}

/// Setting up before every pass rather than all at the start samples
/// the host's speed over the whole run, as the passes do: set-ups bunched
/// into the first second drifted by a sixth between sets of runs.
fn measure(seed: u64, threads: usize, window: &Window, repeats: &mut Repeats) -> Measured {
    let mut m = Measured::default();
    while window.open(m.passes) {
        let t = Instant::now();
        let jobs = setup(seed);
        m.setup_s.push(t.elapsed().as_secs_f64());
        let (t, before) = (Instant::now(), alloc::process());
        let results = pass(&jobs, threads);
        let wall_ns = t.elapsed().as_nanos() as u64;
        m.wall_ns += wall_ns;
        m.bytes += alloc::process().since(before).bytes;
        let events: u64 = results.iter().map(|(out, _)| out.events_processed).sum();
        m.pass_rates.push(events as f64 / (wall_ns as f64 / 1e9));
        let mut digests = Vec::with_capacity(results.len());
        for (out, ns) in &results {
            m.job_ns.push(*ns);
            m.events += out.events_processed;
            m.attempted += 1;
            m.failed += u64::from(!check(out));
            digests.push(fnv(&out.digest()));
        }
        repeats.observe(digests);
        m.passes += 1;
    }
    m
}

/// End-to-end run.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut repeats = Repeats::default();
    let m = measure(cfg.seed, cfg.threads, &Window::new(cfg.seconds), &mut repeats);
    let wall_s = m.wall_ns as f64 / 1e9;
    let ms: Vec<f64> = m.job_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let lines = vec![
        format!(
            "{} passes of {} worlds ({PER_KIND} per kind x {KINDS} kinds), each after its own set-up",
            m.passes,
            PER_KIND * KINDS
        ),
        format!(
            "sim_events_per_s per pass = {:?}",
            m.pass_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
        ),
        format!(
            "sim_events_per_s = {} 1/s ({} events in {wall_s} s)",
            m.events as f64 / wall_s,
            m.events
        ),
        format!("worlds_per_s = {} 1/s ({} worlds)", m.attempted as f64 / wall_s, m.attempted),
        timing_line("world_ms_p50", &ms, 50.0),
        timing_line("world_ms_p99", &ms, 99.0),
    ];
    Outcome {
        attempted: m.attempted,
        failed: m.failed,
        repeats,
        e2e: vec![
            ("setup_s", median(&m.setup_s)),
            ("ops_per_s", median(&m.pass_rates)),
            ("job_ms_p50", median(&ms)),
            ("alloc_bytes_per_op", ratio(m.bytes as f64, m.events as f64)),
        ],
        lines,
        ..Outcome::default()
    }
}

/// One world job through the public calls `run_world_job` makes, with
/// a span around each and a full trace for the µmbox chain count. A
/// defended world's trace then goes through `check_trace_fail_closed`;
/// the last value is how many violations it found.
fn traced_job(op: u64, job: &WorldJob) -> (WorldOutcome, Vec<Span>, WorldTally, usize) {
    let mut log = Vec::with_capacity(6);
    let root = span::begin("sweep.job", None, op);
    let s = span::begin("core.deployment", Some(root.id()), op);
    let defense = match job.scenario {
        SweepScenario::HomeUndefended => Defense::None,
        SweepScenario::HomeIoTSec => Defense::iotsec(),
    };
    let (mut d, _) = scenario::scaled_home(defense, job.seed, job.population);
    d.queue = QueueKind::default();
    s.end(&mut log);
    let w = layers::run_world(
        &mut log,
        root.id(),
        op,
        &d,
        TraceConfig::full(),
        |w| {
            w.net.set_packed_lookup(true);
            w.env.occupied = true;
        },
        |w| w.run_until_attack_done(ATTACK_LIMIT),
    );
    let violations = if job.scenario == SweepScenario::HomeIoTSec {
        let s = span::begin("iotctl.check_trace", Some(root.id()), op);
        let v = check_trace_fail_closed(&w.events).len();
        s.end(&mut log);
        v
    } else {
        0
    };
    let m = &w.metrics;
    let out = WorldOutcome {
        job: *job,
        compromised: m.compromised.len(),
        privacy_leaked: m.privacy_leaked.len(),
        ddos_bytes: m.ddos_bytes_at_victim,
        steps_succeeded: m.steps_succeeded(),
        umbox_blocks: m.umbox_drops + m.umbox_intercepts,
        camera_leaked: exploit_landed(1, m),
        events_processed: w.tally.events,
        cache_lookups: w.tally.cache_lookups,
        cache_hits: w.tally.cache_hits,
    };
    root.end(&mut log);
    (out, log, w.tally, violations)
}

/// Traced run: an untraced phase over a third of the window, then the
/// same passes again with spans.
pub fn run_traced(cfg: &Cfg) -> Outcome {
    let jobs = gen::world_jobs(cfg.seed, PER_KIND);
    let mut repeats = Repeats::default();
    let m = measure(cfg.seed, cfg.threads, &Window::new(cfg.seconds / 3.0), &mut repeats);
    let untraced_job_ns: u64 = m.job_ns.iter().sum();

    let (mut spans, mut tally, mut wall_ns) = (Vec::new(), WorldTally::default(), 0u64);
    let (mut attempted, mut failed, mut trace_violations) = (0, 0, 0);
    for p in 0..m.passes {
        let t = Instant::now();
        let base = (p * jobs.len()) as u64;
        let results =
            run_sweep(jobs.clone(), cfg.threads, |i, job| traced_job(base + i as u64, job));
        wall_ns += t.elapsed().as_nanos() as u64;
        let mut digests = Vec::with_capacity(results.len());
        for (out, log, t, violations) in results {
            attempted += 1;
            failed += u64::from(!check(&out) || violations > 0);
            trace_violations += violations as u64;
            digests.push(fnv(&out.digest()));
            spans.extend(log);
            tally.add(&t);
        }
        repeats.observe(digests);
    }

    let (job_ns, jobs_traced) = span::total(&spans, "sweep.job");
    let mut l = Layers::default();
    l.set(
        "sweep.worker_busy_ratio",
        ratio(job_ns as f64, cfg.threads as f64 * wall_ns as f64),
        jobs_traced,
    );
    tally.report(&mut l);
    l.set("core.build_share", ratio(tally.build_ns as f64, job_ns as f64), jobs_traced);
    l.set("trace.overhead_ratio", ratio(job_ns as f64, untraced_job_ns as f64), jobs_traced);
    let (check_ns, checks) = span::total(&spans, "iotctl.check_trace");
    l.set("iotctl.check_trace_us", ratio(check_ns as f64, checks as f64) / 1e3, checks);
    l.set_self_times(&spans, jobs_traced);
    Outcome {
        attempted,
        failed,
        repeats,
        layers: l,
        spans,
        lines: vec![
            format!(
                "{} untraced then {} traced passes of {} worlds",
                m.passes,
                m.passes,
                jobs.len()
            ),
            format!(
                "check_trace_fail_closed: {trace_violations} violations in {checks} defended traces"
            ),
        ],
        ..Outcome::default()
    }
}
