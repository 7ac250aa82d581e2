//! Per-layer metrics of the traced run, and the traced world runner of
//! the `world-sweep` workload.
//!
//! Every traced run reports every name in [`PER_LAYER`]; a layer that a
//! workload does not exercise reports 0.

use crate::alloc;
use crate::span::{self, Span};
use crate::stats::ratio;
use iotsec::deployment::Deployment;
use iotsec::metrics::Metrics;
use iotsec::world::World;
use std::collections::BTreeMap;
use trace::{TraceAggregator, TraceConfig, TraceEvent, Tracer};

/// `(name, unit)` of every per-layer metric, in report order. Counts
/// and times are means per operation unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sweep.worker_busy_ratio", "ratio"),
    ("sweep.self_us", "us"),
    ("core.build_us", "us"),
    ("core.allocs_per_world", "count"),
    ("core.bytes_per_world", "B"),
    ("core.run_us", "us"),
    ("core.report_us", "us"),
    ("core.ticks", "count"),
    ("core.build_share", "ratio"),
    ("core.self_us", "us"),
    ("iotnet.events", "count"),
    ("iotnet.ns_per_event", "ns"),
    ("iotnet.packets_sent", "count"),
    ("iotnet.packets_delivered", "count"),
    ("iotnet.cache_lookups", "count"),
    ("iotnet.cache_hit_ratio", "ratio"),
    ("iotnet.steered", "count"),
    ("umbox.chain_visits", "count"),
    ("umbox.drops", "count"),
    ("umbox.intercepts", "count"),
    ("iotctl.events_processed", "count"),
    ("iotctl.check_trace_us", "us"),
    ("iotctl.self_us", "us"),
    ("iotpolicy.build_us", "us"),
    ("iotpolicy.explore_us", "us"),
    ("iotpolicy.explore_serial_us", "us"),
    ("iotpolicy.bfs_us", "us"),
    ("iotpolicy.bfs_serial_us", "us"),
    ("iotpolicy.bfs_depth", "count"),
    ("iotpolicy.memo_hit_ratio", "ratio"),
    ("iotpolicy.classes", "count"),
    ("iotpolicy.interned_snapshots", "count"),
    ("iotpolicy.self_us", "us"),
    ("fleet.round_us", "us"),
    ("fleet.barrier_us", "us"),
    ("fleet.home_us", "us"),
    ("fleet.worker_busy_ratio", "ratio"),
    ("fleet.executed", "count"),
    ("fleet.memo_hit_ratio", "ratio"),
    ("fleet.inject_us", "us"),
    ("fleet.installs", "count"),
    ("fleet.batches", "count"),
    ("fleet.full_builds", "count"),
    ("fleet.resident_runs", "count"),
    ("fleet.delta_installs", "count"),
    ("fleet.noop_installs", "count"),
    ("fleet.policy_recompiles", "count"),
    ("fleet.devices_patched", "count"),
    ("fleet.allocs_per_home_round", "count"),
    ("fleet.self_us", "us"),
    ("trace.events", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_us", "us"),
];

/// The layers spans are attributed to (the prefix of a span's name).
pub const SPAN_LAYERS: &[&str] = &["sweep", "core", "iotctl", "iotpolicy", "fleet", "trace"];

/// Per-layer values of one traced run, with the sample count behind
/// each timing.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    /// Record `name` as a value derived from `samples` observations.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.values.insert(name, (if value.is_finite() { value } else { 0.0 }, samples));
    }

    /// Every declared metric as `(name, value, unit, samples)`, 0 for
    /// the ones this workload did not set.
    pub fn all(&self) -> Vec<(&'static str, f64, &'static str, u64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (v, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
                (name, v, unit, n)
            })
            .collect()
    }

    /// `<layer>.self_us` for every span layer: self time per operation.
    pub fn set_self_times(&mut self, spans: &[Span], ops: u64) {
        let by_layer = span::self_time_by_layer(spans);
        for layer in SPAN_LAYERS {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            let key = format!("{layer}.self_us");
            let name = PER_LAYER.iter().find(|(n, _)| *n == key).expect("declared self_us").0;
            self.set(name, ratio(ns as f64 / 1e3, ops as f64), ops);
        }
    }
}

/// What traced worlds did, summed over worlds by [`WorldTally::add`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldTally {
    pub worlds: u64,
    pub build_ns: u64,
    pub build_allocs: u64,
    pub build_bytes: u64,
    pub run_ns: u64,
    pub report_ns: u64,
    pub ticks: u64,
    pub events: u64,
    pub sent: u64,
    pub delivered: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub steered: u64,
    pub chain_visits: u64,
    pub umbox_drops: u64,
    pub umbox_intercepts: u64,
    pub ctl_events: u64,
    pub trace_events: u64,
}

impl WorldTally {
    /// Fold another tally into this one.
    pub fn add(&mut self, o: &WorldTally) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            worlds,
            build_ns,
            build_allocs,
            build_bytes,
            run_ns,
            report_ns,
            ticks,
            events,
            sent,
            delivered,
            cache_lookups,
            cache_hits,
            steered,
            chain_visits,
            umbox_drops,
            umbox_intercepts,
            ctl_events,
            trace_events
        );
    }

    /// Report the world-level layers as means per world.
    pub fn report(&self, l: &mut Layers) {
        let n = self.worlds;
        let per = |v: u64| ratio(v as f64, n as f64);
        l.set("core.build_us", per(self.build_ns) / 1e3, n);
        l.set("core.allocs_per_world", per(self.build_allocs), n);
        l.set("core.bytes_per_world", per(self.build_bytes), n);
        l.set("core.run_us", per(self.run_ns) / 1e3, n);
        l.set("core.report_us", per(self.report_ns) / 1e3, n);
        l.set("core.ticks", per(self.ticks), n);
        l.set("iotnet.events", per(self.events), n);
        l.set("iotnet.ns_per_event", ratio(self.run_ns as f64, self.events as f64), self.events);
        l.set("iotnet.packets_sent", per(self.sent), n);
        l.set("iotnet.packets_delivered", per(self.delivered), n);
        l.set("iotnet.cache_lookups", per(self.cache_lookups), n);
        l.set(
            "iotnet.cache_hit_ratio",
            ratio(self.cache_hits as f64, self.cache_lookups as f64),
            self.cache_lookups,
        );
        l.set("iotnet.steered", per(self.steered), n);
        l.set("umbox.chain_visits", per(self.chain_visits), n);
        l.set("umbox.drops", per(self.umbox_drops), n);
        l.set("umbox.intercepts", per(self.umbox_intercepts), n);
        l.set("iotctl.events_processed", per(self.ctl_events), n);
        l.set("trace.events", per(self.trace_events), n);
    }
}

/// One traced world's results.
pub struct TracedWorld {
    /// `World::report()` at the end of the run.
    pub metrics: Metrics,
    /// Everything the world's tracer recorded.
    pub events: Vec<(u64, TraceEvent)>,
    /// Its layer counters.
    pub tally: WorldTally,
}

/// Build, run and report one world through `iotsec::world`'s public
/// calls, with a span around each: `core.build` (`World::new_traced`
/// plus `prepare`), `core.run` (`drive`), `core.report` and
/// `trace.collect` (copying the trace out and aggregating it).
pub fn run_world(
    log: &mut Vec<Span>,
    parent: u64,
    op: u64,
    d: &Deployment,
    config: TraceConfig,
    prepare: impl FnOnce(&mut World),
    drive: impl FnOnce(&mut World),
) -> TracedWorld {
    let tracer = Tracer::new(config);
    let mut tally = WorldTally { worlds: 1, ..WorldTally::default() };

    let before = alloc::thread();
    let s = span::begin("core.build", Some(parent), op);
    let mut w = World::new_traced(d, tracer.clone());
    prepare(&mut w);
    tally.build_ns = s.end(log);
    let built = alloc::thread().since(before);
    (tally.build_allocs, tally.build_bytes) = (built.allocs, built.bytes);

    let s = span::begin("core.run", Some(parent), op);
    drive(&mut w);
    tally.run_ns = s.end(log);

    let s = span::begin("core.report", Some(parent), op);
    let metrics = w.report();
    tally.report_ns = s.end(log);

    let s = span::begin("trace.collect", Some(parent), op);
    let events = tracer.events();
    let mut agg = TraceAggregator::new();
    agg.observe_all(&events);
    s.end(log);

    let (cache_lookups, cache_hits) = w.net.cache_stats();
    let stats = w.net.stats;
    tally.ticks = w.clock.as_nanos() / d.tick.as_nanos().max(1);
    tally.events = w.net.events_processed();
    (tally.sent, tally.delivered, tally.steered) = (stats.sent, stats.delivered, stats.steered);
    (tally.cache_lookups, tally.cache_hits) = (cache_lookups, cache_hits);
    tally.chain_visits = agg.count("umbox", "umbox-enter");
    tally.umbox_drops = metrics.umbox_drops;
    tally.umbox_intercepts = metrics.umbox_intercepts;
    tally.ctl_events = metrics.controller_events;
    tally.trace_events = events.len() as u64;
    TracedWorld { metrics, events, tally }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_reports_every_declared_metric() {
        let mut l = Layers::default();
        l.set("core.build_us", 2.5, 4);
        let all = l.all();
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all
            .iter()
            .any(|&(n, v, u, s)| n == "core.build_us" && v == 2.5 && u == "us" && s == 4));
        assert!(all.iter().filter(|&&(n, ..)| n != "core.build_us").all(|&(_, v, ..)| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn undeclared_metrics_are_refused() {
        Layers::default().set("core.nonsense", 1.0, 1);
    }

    #[test]
    fn self_time_names_cover_every_span_layer() {
        for layer in SPAN_LAYERS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == format!("{layer}.self_us")), "{layer}");
        }
    }
}
