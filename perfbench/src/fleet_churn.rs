//! `fleet-churn`: a resident fleet of homes taking one novel intel
//! signature per round.
//!
//! Construction, rebind, delta install and the fleet barrier dominate
//! here, not per-event work: a home runs a three-device world for a
//! few tens of microseconds. Half the signatures target the camera
//! every home owns (a hit: every resident world splices the camera's
//! rules); half target a SKU no home owns (a miss: only the epoch
//! moves). Each run drives several fresh fleets ("episodes") through
//! the same seeded schedule, so memory and intel length stay bounded
//! however long the run is.

use crate::layers::Layers;
use crate::span::{self, Span};
use crate::stats::{median, ratio};
use crate::{alloc, gen, timing_line, Cfg, Outcome, Repeats, Window};
use iotdev::registry::Sku;
use iotlearn::signature::{Matcher, Severity};
use iotlearn::AttackSignature;
use iotsec::world::{ResidentWorld, WorldScrap};
use iotsec_fleet::{Fleet, FleetConfig, FleetScenario, HomeOutcome, HomeWorld, ResidentStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Homes in the fleet.
const HOMES: u32 = 2_000;
/// Homes per neighborhood aggregator.
const NEIGHBORHOOD: u32 = 100;
/// Homes per chunk of worker assignment.
const CHUNK: u32 = 64;
/// Measured rounds per episode.
const ROUNDS: usize = 24;

/// The round-`idx` signature: novel (a fresh vuln id), so it advances
/// the region epoch by exactly one.
fn signature(idx: usize, hit: bool, camera: &Sku) -> AttackSignature {
    let sku = if hit { camera.clone() } else { Sku::new("perfbench", "no-such-device", "1") };
    let kind = if hit { "hit" } else { "miss" };
    AttackSignature::new(
        sku,
        &format!("perfbench-{kind}-{idx}"),
        Matcher::MatchAll,
        Severity::Medium,
    )
}

/// What one episode measured.
#[derive(Default)]
struct Episode {
    setup_s: f64,
    round_ns: Vec<u64>,
    inject_ns: u64,
    bytes: u64,
    allocs: u64,
    failed_rounds: u64,
    digest: u64,
    executed: u64,
    memo_hits: u64,
    installs: u64,
    batches: u64,
    interned: u64,
    events: u64,
    resident: ResidentStats,
    spans: Vec<Span>,
}

/// Build a resident fleet over `scenario`, run the breach round and the
/// first defended round as warm-up, then the measured rounds. The
/// plan's first entry is injected during warm-up so that every measured
/// round runs at a fresh epoch; entry `k + 1` is injected before
/// measured round `k`. Each measured round and injection is a span;
/// `on_round` learns each round span's id and operation before the
/// round runs (the [`Timed`] wrapper's home spans name it as parent).
fn episode<S: HomeWorld>(
    scenario: S,
    cfg: &Cfg,
    plan: &(u64, Vec<bool>),
    camera: &Sku,
    on_round: &dyn Fn(u64, u64),
) -> Episode {
    let (fleet_seed, hits) = plan;
    let mut ep = Episode::default();
    let t = Instant::now();
    let fc = FleetConfig {
        homes: HOMES,
        neighborhood: NEIGHBORHOOD,
        chunk: CHUNK,
        threads: cfg.threads,
        seed: *fleet_seed,
    };
    let mut fleet = Fleet::new(scenario, fc);
    fleet.set_resident(true);
    fleet.round();
    fleet.inject_intel(vec![signature(0, hits[0], camera)]);
    fleet.round();
    ep.setup_s = t.elapsed().as_secs_f64();

    let start = fleet.report();
    let stats_before = fleet.resident_stats();
    let mut epoch = fleet.epoch();
    let before = alloc::process();
    for (k, &hit) in hits.iter().enumerate().skip(1) {
        let op = k as u64;
        let s = span::begin("fleet.inject", None, op);
        fleet.inject_intel(vec![signature(k, hit, camera)]);
        ep.inject_ns += s.end(&mut ep.spans);
        let s = span::begin("fleet.round", None, op);
        on_round(s.id(), op);
        let summary = fleet.round();
        ep.round_ns.push(s.end(&mut ep.spans));
        ep.executed += u64::from(summary.executed);
        ep.memo_hits += u64::from(summary.memo_hits);
        let report = fleet.report();
        let ok = report.compromised == start.compromised
            && report.leaked == start.leaked
            && summary.epoch == epoch + 1
            && fleet.converged()
            && (0..HOMES).all(|h| fleet.installed_at(h) == summary.epoch);
        ep.failed_rounds += u64::from(!ok);
        epoch = summary.epoch;
    }
    let spent = alloc::process().since(before);
    (ep.bytes, ep.allocs) = (spent.bytes, spent.allocs);
    let end = fleet.report();
    ep.digest = end.digest ^ u64::from(end.epoch).rotate_left(32);
    ep.installs = end.installs - start.installs;
    ep.batches = end.batches - start.batches;
    ep.interned = end.interned as u64;
    ep.events = end.events - start.events;
    let stats = fleet.resident_stats();
    ep.resident = ResidentStats {
        full_builds: stats.full_builds - stats_before.full_builds,
        resident_runs: stats.resident_runs - stats_before.resident_runs,
        delta_installs: stats.delta_installs - stats_before.delta_installs,
        noop_installs: stats.noop_installs - stats_before.noop_installs,
        policy_recompiles: stats.policy_recompiles - stats_before.policy_recompiles,
        devices_patched: stats.devices_patched - stats_before.devices_patched,
        ..ResidentStats::default()
    };
    ep
}

fn camera_sku() -> Sku {
    FleetScenario::new(HOMES)
        .discovery(0)
        .expect("the fleet scenario always has a discoverable camera signature")
        .sku
}

/// Episodes until `window` closes, each recorded in `repeats`.
fn measure(cfg: &Cfg, window: &Window, repeats: &mut Repeats) -> Vec<Episode> {
    let plan = gen::fleet_plan(cfg.seed, ROUNDS + 1);
    let camera = camera_sku();
    let mut episodes = Vec::new();
    while window.open(episodes.len()) {
        let ep = episode(FleetScenario::new(HOMES), cfg, &plan, &camera, &|_, _| {});
        repeats.observe(vec![ep.digest]);
        episodes.push(ep);
    }
    episodes
}

/// End-to-end run.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut repeats = Repeats::default();
    let episodes = measure(cfg, &Window::new(cfg.seconds), &mut repeats);
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    let round_ms: Vec<f64> =
        episodes.iter().flat_map(|e| &e.round_ns).map(|&ns| ns as f64 / 1e6).collect();
    let rounds = round_ms.len() as u64;
    let home_rounds = rounds * u64::from(HOMES);
    let episode_s = |e: &Episode| (e.round_ns.iter().sum::<u64>() + e.inject_ns) as f64 / 1e9;
    let wall_s = episodes.iter().map(episode_s).sum::<f64>();
    let episode_rates: Vec<f64> = episodes
        .iter()
        .map(|e| (e.round_ns.len() as u64 * u64::from(HOMES)) as f64 / episode_s(e))
        .collect();
    let bytes: u64 = episodes.iter().map(|e| e.bytes).sum();
    let events: u64 = episodes.iter().map(|e| e.events).sum();
    Outcome {
        attempted: rounds,
        failed: episodes.iter().map(|e| e.failed_rounds).sum(),
        repeats,
        e2e: vec![
            ("setup_s", median(&setups)),
            ("ops_per_s", median(&episode_rates)),
            ("job_ms_p50", median(&round_ms)),
            ("alloc_bytes_per_op", ratio(bytes as f64, home_rounds as f64)),
        ],
        lines: vec![
            format!(
                "{} episodes x {ROUNDS} measured rounds of {HOMES} homes; setup_s is the median over episodes (n={})",
                episodes.len(),
                setups.len()
            ),
            format!("home_rounds_per_s = {} 1/s ({home_rounds} home-rounds in {wall_s} s)", home_rounds as f64 / wall_s),
            format!("sim_events_per_s = {} 1/s ({events} events)", events as f64 / wall_s),
            timing_line("round_ms_p50", &round_ms, 50.0),
            format!("bytes_per_home_round = {} B", ratio(bytes as f64, home_rounds as f64)),
        ],
        ..Outcome::default()
    }
}

/// Shared between the traced run and its [`Timed`] wrapper.
#[derive(Default)]
struct HomeLog {
    spans: Mutex<Vec<Span>>,
    /// Id of the round span currently open; homes name it as parent.
    round: AtomicU64,
    /// Operation id of that round.
    op: AtomicU64,
}

/// A [`HomeWorld`] that delegates every call to [`FleetScenario`] and
/// records a `fleet.home` span around each home it runs.
struct Timed {
    inner: FleetScenario,
    log: Arc<HomeLog>,
}

impl Timed {
    fn timed(&self, run: impl FnOnce() -> HomeOutcome) -> HomeOutcome {
        // Relaxed: the coordinator stores the id before `Fleet::round`
        // spawns the workers that read it; the spawn orders the two.
        let parent = self.log.round.load(Ordering::Relaxed);
        let op = self.log.op.load(Ordering::Relaxed);
        let s = span::begin("fleet.home", Some(parent), op);
        let out = run();
        s.end(&mut self.log.spans.lock().expect("no span writer panics"));
        out
    }
}

impl HomeWorld for Timed {
    type Resident = ResidentWorld;

    fn run_home(&self, home: u32, seed: u64, intel: &[AttackSignature]) -> HomeOutcome {
        self.timed(|| self.inner.run_home(home, seed, intel))
    }

    fn run_home_recycled(
        &self,
        home: u32,
        seed: u64,
        intel: &[AttackSignature],
        scrap: &mut WorldScrap,
    ) -> HomeOutcome {
        self.timed(|| self.inner.run_home_recycled(home, seed, intel, scrap))
    }

    #[allow(clippy::too_many_arguments)]
    fn run_home_resident(
        &self,
        home: u32,
        seed: u64,
        epoch: u32,
        intel: &Arc<[AttackSignature]>,
        slot: &mut Option<ResidentWorld>,
        scrap: &mut WorldScrap,
        stats: &mut ResidentStats,
    ) -> HomeOutcome {
        self.timed(|| self.inner.run_home_resident(home, seed, epoch, intel, slot, scrap, stats))
    }

    fn discovery(&self, home: u32) -> Option<AttackSignature> {
        self.inner.discovery(home)
    }
}

/// Traced run: untraced episodes over a third of the window, then as
/// many episodes through the [`Timed`] wrapper.
pub fn run_traced(cfg: &Cfg) -> Outcome {
    let mut repeats = Repeats::default();
    let untraced = measure(cfg, &Window::new(cfg.seconds / 3.0), &mut repeats);
    let untraced_round_ns: u64 = untraced.iter().flat_map(|e| &e.round_ns).sum();
    let plan = gen::fleet_plan(cfg.seed, ROUNDS + 1);
    let camera = camera_sku();

    let mut spans = Vec::new();
    let (mut traced, mut failed) = (Vec::new(), 0);
    for _ in 0..untraced.len() {
        let log = Arc::new(HomeLog::default());
        let timed = Timed { inner: FleetScenario::new(HOMES), log: Arc::clone(&log) };
        let set_round = |id: u64, op: u64| {
            log.round.store(id, Ordering::Relaxed);
            log.op.store(op, Ordering::Relaxed);
        };
        let mut ep = episode(timed, cfg, &plan, &camera, &set_round);
        repeats.observe(vec![ep.digest]);
        failed += ep.failed_rounds;
        // Warm-up homes ran under no round span (parent 0); the
        // measured rounds' homes are the ones the layers describe.
        let homes = std::mem::take(&mut *log.spans.lock().expect("no span writer panics"));
        spans.extend(homes.into_iter().filter(|s| s.parent != Some(0)));
        spans.append(&mut ep.spans);
        traced.push(ep);
    }

    let rounds: u64 = traced.iter().map(|e| e.round_ns.len() as u64).sum();
    let home_rounds = rounds * u64::from(HOMES);
    let (round_ns, _) = span::total(&spans, "fleet.round");
    let (home_ns, homes) = span::total(&spans, "fleet.home");
    let (inject_ns, injects) = span::total(&spans, "fleet.inject");
    let threads = cfg.threads as f64;
    let sum = |f: fn(&Episode) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let per_round = |v: f64| ratio(v, rounds as f64);
    let mut l = Layers::default();
    l.set("fleet.round_us", per_round(round_ns as f64) / 1e3, rounds);
    l.set("fleet.barrier_us", per_round(round_ns as f64 - home_ns as f64 / threads) / 1e3, rounds);
    l.set("fleet.home_us", ratio(home_ns as f64, homes as f64) / 1e3, homes);
    l.set("fleet.worker_busy_ratio", ratio(home_ns as f64, threads * round_ns as f64), rounds);
    l.set("fleet.executed", per_round(sum(|e| e.executed)), rounds);
    let served = sum(|e| e.executed) + sum(|e| e.memo_hits);
    l.set("fleet.memo_hit_ratio", ratio(sum(|e| e.memo_hits), served), rounds);
    l.set("fleet.inject_us", ratio(inject_ns as f64, injects as f64) / 1e3, injects);
    l.set("fleet.installs", per_round(sum(|e| e.installs)), rounds);
    l.set("fleet.batches", per_round(sum(|e| e.batches)), rounds);
    l.set("fleet.full_builds", per_round(sum(|e| e.resident.full_builds)), rounds);
    l.set("fleet.resident_runs", per_round(sum(|e| e.resident.resident_runs)), rounds);
    l.set("fleet.delta_installs", per_round(sum(|e| e.resident.delta_installs)), rounds);
    l.set("fleet.noop_installs", per_round(sum(|e| e.resident.noop_installs)), rounds);
    l.set("fleet.policy_recompiles", per_round(sum(|e| e.resident.policy_recompiles)), rounds);
    l.set("fleet.devices_patched", per_round(sum(|e| e.resident.devices_patched)), rounds);
    l.set("fleet.allocs_per_home_round", ratio(sum(|e| e.allocs), home_rounds as f64), home_rounds);
    l.set(
        "iotpolicy.interned_snapshots",
        ratio(sum(|e| e.interned), traced.len() as f64),
        traced.len() as u64,
    );
    l.set("iotnet.events", ratio(sum(|e| e.events), home_rounds as f64), home_rounds);
    l.set("trace.overhead_ratio", ratio(round_ns as f64, untraced_round_ns as f64), rounds);
    l.set_self_times(&spans, rounds);
    Outcome {
        attempted: rounds,
        failed,
        repeats,
        layers: l,
        spans,
        lines: vec![format!(
            "{} untraced then {} traced episodes x {ROUNDS} measured rounds of {HOMES} homes",
            untraced.len(),
            traced.len()
        )],
        ..Outcome::default()
    }
}
