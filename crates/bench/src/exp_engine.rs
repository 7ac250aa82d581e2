//! E21 — the zero-alloc arena event engine and the packed packet fast
//! path, measured.
//!
//! Three measurements, one determinism gate:
//!
//! 1. **World sweep** — the E16 scaled-home grid
//!    ([`crate::exp_perf::standard_jobs`], 18 world instances) runs on
//!    two engine arms: *legacy* (the `BinaryHeap` reference queue plus
//!    the field-by-field flow-table scan) and *packed* (the arena-backed
//!    timer wheel plus packed-key SoA probing — the defaults). The
//!    packed arm additionally runs at each thread count in
//!    [`PAR_THREADS`]. Every leg must reproduce the packed-serial
//!    reference digests byte-for-byte.
//! 2. **Steady-state allocation probe** — a warm two-host network with a
//!    steered IDS chain runs `schedule → fire → forward → verdict`
//!    rounds while a caller-supplied allocation counter watches; the
//!    packed arm must execute the measured window with **zero**
//!    allocations (the tentpole's whole point).
//! 3. **Queue micro-benchmark** — a synthetic schedule/pop storm through
//!    both queue backends, for a ns/event number uncontaminated by world
//!    logic.
//!
//! Wall-clock numbers land only in the `wall_ms`-marked volatile section
//! of `BENCH_E21.json`; digests, counters and the alloc-free verdict are
//! byte-stable, and the CI `engine-gate` job diffs them with
//! `git diff -I'wall_ms'`. Any digest divergence — or a packed steady
//! state that allocates — fails the run (non-zero exit via the runner).

use crate::sweep::{run_sweep, run_world_job_engine, WorldOutcome};
use crate::Table;
use iotdev::device::{AdminCreds, DeviceId};
use iotdev::proto::{ports, AppMessage, TelemetryKind};
use iotdev::registry::Sku;
use iotlearn::signature::{AttackSignature, Matcher, Severity};
use iotnet::engine::{AnyEventQueue, QueueKind};
use iotnet::flow::{FlowAction, FlowMatch, FlowRule, SteerId};
use iotnet::link::LinkParams;
use iotnet::net::{Delivery, Network};
use iotnet::packet::{Packet, TransportHeader};
use iotnet::time::{SimDuration, SimTime};
use iotnet::topology::TopologyBuilder;
use iotpolicy::posture::{Posture, SecurityModule};
use std::time::Instant;
use trace::tracer::Tracer;
use umbox::chain::{build_chain, ChainConfig, FailureMode};
use umbox::element::{EventSink, ViewHandle};

/// The repo-wide experiment seed.
pub const SEED: u64 = 20151116;

/// Thread counts for the packed-parallel legs; fixed (not CLI-driven) so
/// the stable section of `BENCH_E21.json` is byte-identical across hosts.
pub const PAR_THREADS: &[usize] = &[2, 4];

/// Steady-probe round spacing: 2^21 ns, an exact multiple of the timer
/// wheel's level-0 slot width (2^12 ns) and level-1 slot width (2^18 ns).
/// Every round therefore lands its events in a slot-index pattern that
/// repeats with a short period, so a modest warm phase provably touches
/// every wheel slot the measured phase will use — allocation in the
/// measured window then genuinely means a steady-state leak, not a cold
/// slot vector.
const STEADY_STEP_NS: u64 = 1 << 21;
/// Warm-up rounds. At 2^21 ns per round the wheel's level-2 slot index
/// advances once every 8 rounds (lap = 512 rounds) and the overflow
/// re-anchor fires at the 2^30 ns boundary (round 512), so 576 rounds
/// covers one full level-2 lap plus the first overflow crossing — every
/// slot vector and heap the measured window can touch is already warm.
const STEADY_WARM: u64 = 576;
/// Measured rounds (well clear of the next overflow crossing at 1024).
const STEADY_MEASURE: u64 = 64;

/// Events scheduled and popped per queue micro-benchmark arm.
pub const MICRO_EVENTS: u64 = 1 << 18;
/// Batch size of the micro-benchmark's schedule/pop cycle.
const MICRO_BATCH: u64 = 4096;

/// One sweep leg: an engine arm at a thread count.
pub struct EngineLeg {
    /// Stable label (`legacy-serial`, `packed-serial`, `packed-par2`...).
    pub label: String,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Whether every digest matched the packed-serial reference.
    pub identical: bool,
    /// Sweep wall time (volatile; never gated on).
    pub wall_ms: u128,
}

/// Steady-state allocation probe result for one engine arm.
pub struct SteadyProbe {
    /// Engine events popped in the measured window.
    pub events: u64,
    /// Packets delivered in the measured window.
    pub delivered: u64,
    /// Heap allocations observed in the measured window.
    pub allocs: u64,
}

/// The E21 report: the printed table plus everything the JSON needs.
pub struct EngineReport {
    /// Rendered leg table.
    pub table: Table,
    /// World instances per sweep leg.
    pub jobs: usize,
    /// Reference digests (packed serial), one per job.
    pub digests: Vec<String>,
    /// Engine events processed by the reference sweep.
    pub events_total: u64,
    /// Flow-decision-cache lookups in the reference sweep.
    pub cache_lookups: u64,
    /// Flow-decision-cache hits in the reference sweep.
    pub cache_hits: u64,
    /// Every sweep leg, reference first.
    pub legs: Vec<EngineLeg>,
    /// Steady-state probe on the legacy arm (heap queue + scan lookup).
    pub steady_legacy: SteadyProbe,
    /// Steady-state probe on the packed arm (wheel + packed lookup).
    pub steady_packed: SteadyProbe,
    /// Events per micro-benchmark arm.
    pub micro_events: u64,
    /// Micro-benchmark wall time, heap backend (volatile).
    pub micro_heap_wall_ns: u128,
    /// Micro-benchmark wall time, wheel backend (volatile).
    pub micro_wheel_wall_ns: u128,
    /// Every leg identical *and* the packed steady state allocation-free.
    pub deterministic: bool,
    /// One-line human summary.
    pub summary: String,
}

impl EngineReport {
    /// Aggregate flow-cache hit rate of the reference sweep.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Events/second for a sweep leg (wall-clock, so host-dependent —
    /// volatile section only).
    fn events_per_sec(&self, wall_ms: u128) -> f64 {
        self.events_total as f64 / (wall_ms.max(1) as f64 / 1000.0)
    }

    /// ns/event for a sweep leg (volatile section only).
    fn ns_per_event(&self, wall_ms: u128) -> f64 {
        (wall_ms as f64 * 1e6) / (self.events_total.max(1) as f64)
    }

    /// Wall time of the leg with the given label, if it ran.
    fn leg_wall_ms(&self, label: &str) -> Option<u128> {
        self.legs.iter().find(|l| l.label == label).map(|l| l.wall_ms)
    }

    /// `BENCH_E21.json`: a stable section (digests, counters, the
    /// alloc-free verdict, engine agreement) plus a `timing_wall_ms`
    /// section where **every** volatile line contains `wall_ms`, so CI
    /// can assert byte stability with `git diff -I'wall_ms'`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e21\",\n");
        out.push_str(&format!("  \"seed\": {SEED},\n"));
        let threads: Vec<String> = PAR_THREADS.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!("  \"parallel_threads\": [{}],\n", threads.join(", ")));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"events_total\": {},\n", self.events_total));
        out.push_str(&format!("  \"cache_lookups\": {},\n", self.cache_lookups));
        out.push_str(&format!("  \"cache_hits\": {},\n", self.cache_hits));
        out.push_str(&format!(
            "  \"steady_state\": {{\"measured_rounds\": {STEADY_MEASURE}, \
             \"legacy_events\": {}, \"legacy_allocs\": {}, \
             \"packed_events\": {}, \"packed_allocs\": {}, \
             \"packed_alloc_free\": {}}},\n",
            self.steady_legacy.events,
            self.steady_legacy.allocs,
            self.steady_packed.events,
            self.steady_packed.allocs,
            self.steady_packed.allocs == 0,
        ));
        out.push_str("  \"digests\": [\n");
        for (i, d) in self.digests.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\"{}\n",
                d,
                if i + 1 == self.digests.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"legs\": [\n");
        for (i, l) in self.legs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"threads\": {}, \"identical\": {}}}{}\n",
                l.label,
                l.threads,
                l.identical,
                if i + 1 == self.legs.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str("  \"timing_wall_ms\": [\n");
        for l in &self.legs {
            out.push_str(&format!(
                "    {{\"leg\": \"{}\", \"sweep_wall_ms\": {}, \"ns_per_event\": {:.1}, \
                 \"events_per_sec\": {:.0}}},\n",
                l.label,
                l.wall_ms,
                self.ns_per_event(l.wall_ms),
                self.events_per_sec(l.wall_ms),
            ));
        }
        out.push_str(&format!(
            "    {{\"micro\": \"queue-heap\", \"micro_wall_ms\": {}, \"ns_per_event\": {:.1}}},\n",
            self.micro_heap_wall_ns / 1_000_000,
            self.micro_heap_wall_ns as f64 / self.micro_events.max(1) as f64,
        ));
        out.push_str(&format!(
            "    {{\"micro\": \"queue-wheel\", \"micro_wall_ms\": {}, \"ns_per_event\": {:.1}}}\n",
            self.micro_wheel_wall_ns / 1_000_000,
            self.micro_wheel_wall_ns as f64 / self.micro_events.max(1) as f64,
        ));
        out.push_str("  ],\n");
        let legacy = self.leg_wall_ms("legacy-serial").unwrap_or(0);
        let packed = self.leg_wall_ms("packed-serial").unwrap_or(0);
        // `micro_wheel_beats_heap` is the queue micro-benchmark's verdict
        // only; it says nothing about the sweep's end-to-end speed.
        out.push_str(&format!(
            "  \"speedup_wall_ms\": {{\"packed_vs_legacy_serial_sweep\": {:.2}, \
             \"micro_heap_vs_wheel\": {:.2}, \"micro_wheel_beats_heap\": {}}}\n",
            legacy as f64 / packed.max(1) as f64,
            self.micro_heap_wall_ns as f64 / self.micro_wheel_wall_ns.max(1) as f64,
            self.micro_wheel_wall_ns < self.micro_heap_wall_ns,
        ));
        out.push_str("}\n");
        out
    }
}

/// The steady-state fixture: two LAN hosts on one switch, every packet
/// steered through an IDS chain whose prefilters screen the (benign)
/// telemetry without a payload decode — the packed fast path end to end.
fn steady_net(queue: QueueKind, packed: bool) -> (Network, iotnet::addr::EndpointId, Packet) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch();
    let a = b.attach_endpoint(sw, LinkParams::lan());
    let z = b.attach_endpoint(sw, LinkParams::lan());
    let mut net = Network::with_queue(b.build(), SEED, queue);
    net.set_packed_lookup(packed);

    let signatures: Vec<AttackSignature> = vec![
        AttackSignature::new(
            Sku::new("belkin", "wemo", "1.1"),
            "cloud-bypass-backdoor",
            Matcher::CloudCommand,
            Severity::High,
        ),
        AttackSignature::new(
            Sku::new("belkin", "wemo", "1.1"),
            "unauthenticated-control",
            Matcher::UnauthenticatedControl,
            Severity::High,
        ),
        AttackSignature::new(
            Sku::new("belkin", "wemo", "1.1"),
            "mgmt-from-wan",
            Matcher::MgmtFromExternal,
            Severity::Medium,
        ),
    ];
    let config = ChainConfig {
        device: DeviceId(0),
        required_creds: AdminCreds::new("owner", "Str0ng!"),
        cleared_sources: Vec::new(),
        signatures: signatures.into(),
        view: ViewHandle::new(),
        events: EventSink::new(),
        failure_mode: FailureMode::FailOpen,
        tracer: Tracer::disabled(),
    };
    let chain = build_chain(&Posture::of(SecurityModule::Ids { ruleset: 1 }), &config);
    net.register_steer(SteerId(1), Box::new(chain), SimDuration::from_micros(200));
    net.install_rule(sw, FlowRule::new(100, FlowMatch::any(), FlowAction::Steer(SteerId(1))));

    let pkt = Packet::new(
        net.mac_of(a),
        net.mac_of(z),
        net.ip_of(a),
        net.ip_of(z),
        TransportHeader::udp(4000, ports::TELEMETRY),
        AppMessage::Telemetry { kind: TelemetryKind::Power, value: 21.0 }.encode(),
    );
    (net, a, pkt)
}

fn steady_round(
    net: &mut Network,
    a: iotnet::addr::EndpointId,
    pkt: &Packet,
    round: u64,
    buf: &mut Vec<Delivery>,
) -> u64 {
    let t = SimTime::from_nanos(round * STEADY_STEP_NS);
    net.send(a, t, pkt.clone());
    buf.clear();
    net.step_until_into(SimTime::from_nanos((round + 1) * STEADY_STEP_NS), buf);
    buf.len() as u64
}

/// Run the warm steady-state loop on one engine arm, reading the
/// allocation counter only around the measured window.
fn steady_probe(queue: QueueKind, packed: bool, alloc_count: &dyn Fn() -> u64) -> SteadyProbe {
    let (mut net, a, pkt) = steady_net(queue, packed);
    let mut buf: Vec<Delivery> = Vec::new();
    for round in 0..STEADY_WARM {
        steady_round(&mut net, a, &pkt, round, &mut buf);
    }
    let events_before = net.events_processed();
    let mut delivered = 0u64;
    let allocs_before = alloc_count();
    for round in STEADY_WARM..STEADY_WARM + STEADY_MEASURE {
        delivered += steady_round(&mut net, a, &pkt, round, &mut buf);
    }
    let allocs = alloc_count() - allocs_before;
    SteadyProbe { events: net.events_processed() - events_before, delivered, allocs }
}

/// Schedule/pop [`MICRO_EVENTS`] synthetic events through one queue
/// backend in batches, returning the wall time in nanoseconds. The
/// xorshift offsets exercise near (wheel slots) and far (overflow tier)
/// schedules identically on both backends.
fn micro_queue_wall_ns(kind: QueueKind) -> u128 {
    let mut q: AnyEventQueue<u64> = AnyEventQueue::with_capacity(kind, MICRO_BATCH as usize);
    let mut x = SEED | 1;
    let mut popped = 0u64;
    let start = Instant::now();
    while popped < MICRO_EVENTS {
        let base = q.now().as_nanos();
        for i in 0..MICRO_BATCH {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
            // Simulated latencies are microseconds to low milliseconds
            // (LAN hops, µmbox detours); one event in 64 sits seconds out
            // to keep the overflow tier honest.
            let offset = if i % 64 == 0 { r % 4_000_000_000 } else { r % 4_000_000 };
            q.schedule(SimTime::from_nanos(base + offset), i);
        }
        while q.pop().is_some() {
            popped += 1;
        }
    }
    start.elapsed().as_nanos()
}

fn ms(start: Instant) -> u128 {
    start.elapsed().as_millis()
}

/// E21 — run both engine arms over the E16 grid, probe the steady state
/// through `alloc_count` (a reader of the process's allocation counter;
/// the `experiments` binary installs a counting global allocator and
/// passes it in), and build the report.
pub fn engine(alloc_count: &dyn Fn() -> u64) -> EngineReport {
    let jobs = crate::exp_perf::standard_jobs(SEED);

    // Steady-state probes first, on a quiet process (no sweep threads).
    let steady_legacy = steady_probe(QueueKind::Heap, false, alloc_count);
    let steady_packed = steady_probe(QueueKind::Wheel, true, alloc_count);

    // Queue micro-benchmark: warm both backends once (page cache, lazy
    // init), then time.
    micro_queue_wall_ns(QueueKind::Heap);
    micro_queue_wall_ns(QueueKind::Wheel);
    let micro_heap_wall_ns = micro_queue_wall_ns(QueueKind::Heap);
    let micro_wheel_wall_ns = micro_queue_wall_ns(QueueKind::Wheel);

    // Untimed warmup sweep so the first timed leg does not absorb the
    // process's cold-start cost (and so any residual warmup advantage
    // accrues to the *legacy* leg, timed first — the packed-faster
    // verdict below is the conservative reading).
    let warmup: Vec<WorldOutcome> =
        run_sweep(jobs.clone(), 1, |_, job| run_world_job_engine(job, QueueKind::Wheel, true));
    let digests: Vec<String> = warmup.iter().map(|o| o.digest()).collect();
    let events_total: u64 = warmup.iter().map(|o| o.events_processed).sum();
    let cache_lookups: u64 = warmup.iter().map(|o| o.cache_lookups).sum();
    let cache_hits: u64 = warmup.iter().map(|o| o.cache_hits).sum();

    let matches_reference = |outcomes: &[WorldOutcome]| {
        outcomes.len() == digests.len()
            && outcomes.iter().zip(digests.iter()).all(|(o, d)| &o.digest() == d)
    };

    let mut legs = Vec::new();

    // Legacy arm: heap queue + field-by-field lookup, serial.
    let start = Instant::now();
    let legacy: Vec<WorldOutcome> =
        run_sweep(jobs.clone(), 1, |_, job| run_world_job_engine(job, QueueKind::Heap, false));
    legs.push(EngineLeg {
        label: "legacy-serial".to_string(),
        threads: 1,
        identical: matches_reference(&legacy),
        wall_ms: ms(start),
    });

    // Packed-serial sweep: the arm whose digests are the reference.
    let start = Instant::now();
    let reference: Vec<WorldOutcome> =
        run_sweep(jobs.clone(), 1, |_, job| run_world_job_engine(job, QueueKind::Wheel, true));
    legs.push(EngineLeg {
        label: "packed-serial".to_string(),
        threads: 1,
        identical: matches_reference(&reference),
        wall_ms: ms(start),
    });

    // Packed arm at each fixed thread count.
    for &t in PAR_THREADS {
        let start = Instant::now();
        let par: Vec<WorldOutcome> =
            run_sweep(jobs.clone(), t, |_, job| run_world_job_engine(job, QueueKind::Wheel, true));
        legs.push(EngineLeg {
            label: format!("packed-par{t}"),
            threads: t,
            identical: matches_reference(&par),
            wall_ms: ms(start),
        });
    }

    let mut table = Table::new(
        "E21: arena engine + packed fast path — every leg, one digest set",
        &["leg", "threads", "jobs", "events", "cache hit rate", "identical", "wall ms"],
    );
    let hit_rate = if cache_lookups == 0 { 0.0 } else { cache_hits as f64 / cache_lookups as f64 };
    for l in &legs {
        table.rowd(&[
            l.label.clone(),
            l.threads.to_string(),
            jobs.len().to_string(),
            events_total.to_string(),
            format!("{hit_rate:.3}"),
            l.identical.to_string(),
            l.wall_ms.to_string(),
        ]);
    }

    let deterministic = legs.iter().all(|l| l.identical) && steady_packed.allocs == 0;
    let report = EngineReport {
        table,
        jobs: jobs.len(),
        digests,
        events_total,
        cache_lookups,
        cache_hits,
        legs,
        steady_legacy,
        steady_packed,
        micro_events: MICRO_EVENTS,
        micro_heap_wall_ns,
        micro_wheel_wall_ns,
        deterministic,
        summary: String::new(),
    };
    let summary = format!(
        "E21 summary: {} jobs x {} legs, {} events, steady-state allocs/round \
         legacy={:.2} packed={:.2} (packed alloc-free: {}), micro ns/event \
         heap={:.0} wheel={:.0}, deterministic: {}",
        report.jobs,
        report.legs.len(),
        report.events_total,
        report.steady_legacy.allocs as f64 / STEADY_MEASURE as f64,
        report.steady_packed.allocs as f64 / STEADY_MEASURE as f64,
        report.steady_packed.allocs == 0,
        report.micro_heap_wall_ns as f64 / report.micro_events.max(1) as f64,
        report.micro_wheel_wall_ns as f64 / report.micro_events.max(1) as f64,
        report.deterministic,
    );
    EngineReport { summary, ..report }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A null counter: unit tests exercise the probe's determinism, not
    /// the allocator (the real count is wired up by the `experiments`
    /// binary and pinned by `tests/alloc_counter.rs`).
    fn no_counter() -> u64 {
        0
    }

    #[test]
    fn steady_probe_is_arm_invariant() {
        let legacy = steady_probe(QueueKind::Heap, false, &no_counter);
        let packed = steady_probe(QueueKind::Wheel, true, &no_counter);
        // Same traffic, same engine semantics: both arms pop the same
        // events and deliver the same packets.
        assert_eq!(legacy.events, packed.events);
        assert_eq!(legacy.delivered, packed.delivered);
        assert!(packed.events > 0, "the probe must actually run the engine");
        assert_eq!(packed.delivered, STEADY_MEASURE, "one delivery per round");
    }

    #[test]
    fn micro_queue_pops_every_event() {
        // Both backends complete the full storm (the function would spin
        // forever otherwise); smoke the wheel arm.
        let ns = micro_queue_wall_ns(QueueKind::Wheel);
        assert!(ns > 0);
    }

    #[test]
    fn engine_arms_agree_on_one_job() {
        use crate::sweep::{SweepScenario, WorldJob};
        let job = WorldJob { scenario: SweepScenario::HomeIoTSec, seed: SEED, population: 0 };
        let packed = run_world_job_engine(&job, QueueKind::Wheel, true);
        let legacy = run_world_job_engine(&job, QueueKind::Heap, false);
        assert_eq!(packed.digest(), legacy.digest());
    }

    #[test]
    fn json_volatile_lines_all_carry_wall_ms() {
        let mk_leg = |label: &str, threads: usize| EngineLeg {
            label: label.to_string(),
            threads,
            identical: true,
            wall_ms: 5,
        };
        let report = EngineReport {
            table: Table::new("t", &["a"]),
            jobs: 18,
            digests: vec!["home-iotsec/s1/p0: c=0".to_string()],
            events_total: 1000,
            cache_lookups: 500,
            cache_hits: 400,
            legs: vec![mk_leg("packed-serial", 1), mk_leg("legacy-serial", 1)],
            steady_legacy: SteadyProbe { events: 128, delivered: 64, allocs: 0 },
            steady_packed: SteadyProbe { events: 128, delivered: 64, allocs: 0 },
            micro_events: MICRO_EVENTS,
            micro_heap_wall_ns: 7_000_000,
            micro_wheel_wall_ns: 5_000_000,
            deterministic: true,
            summary: String::new(),
        };
        let json = report.render_json();
        let mut in_timing = false;
        for line in json.lines() {
            if line.contains("\"timing_wall_ms\"") {
                in_timing = true;
            }
            if in_timing && line.contains('{') {
                assert!(line.contains("wall_ms"), "volatile line lacks marker: {line}");
            }
            if line.contains("speedup") || line.contains("ns_per_event") {
                assert!(line.contains("wall_ms"), "host-dependent line lacks marker: {line}");
            }
        }
        assert!(json.contains("\"packed_alloc_free\": true"));
        assert!(json.contains("\"deterministic\": true"));
        assert!(json.ends_with("}\n"));
    }
}
