//! Fleet-scale trace checking (E25).
//!
//! [`check_fleet_trace`] is the E23 `check_trace` pattern lifted to the
//! aggregation tier: a **pure** function over the fleet's trace stream
//! — no access to the `Fleet`'s internal state — that verifies the
//! recovery invariants the chaos layer is supposed to uphold. Because
//! it reads only `(round, TraceEvent)` pairs, it judges a live run, a
//! replayed repro artifact and a fuzzer-generated schedule identically,
//! and a weakened [`crate::RecoveryPolicy`] cannot hide: the fleet that
//! silently dropped a discovery simply never emits the absorb/install
//! events the checker demands.
//!
//! Invariants checked (each names the violation it reports):
//!
//! * `epoch-regression` — a home's installed epoch moved backwards or
//!   stalled across two `fleet-install` events. Installs are idempotent
//!   advances; the engine only emits them for homes actually moving.
//! * `absorb-regression` — the region's epoch went backwards across
//!   `fleet-absorb` events. The region log is dense and append-only.
//! * `install-of-unabsorbed-epoch` — a home installed an epoch the
//!   region never announced via `fleet-absorb`. Installs must be
//!   downstream of absorption, never invented.
//! * `lost-discovery` — a `fleet-discovery` whose signature never shows
//!   up in any `fleet-absorb`, judged only once the trace extends
//!   `staleness_budget + grace` rounds past the discovery (a discovery
//!   near the end of a short trace is *pending*, not lost). Degraded
//!   declarations do **not** excuse this one: degraded mode buys time
//!   for slow installs, not for dropping intel on the floor.
//! * `staleness-budget` — a discovery was absorbed at epoch `e` but
//!   some home still sat below `e` when the budget expired, and the
//!   fleet never declared degraded mode for it. The paper's crowdsourced
//!   defense only works if discoveries reach every home promptly *or*
//!   the operator is told they have not.
//! * `unrecovered` — the trace extends `grace` rounds past the last
//!   injected fault, yet the fleet never converged (some home below the
//!   final region epoch at end of trace). Faults are transient; their
//!   effects must be too.
//! * `degraded-unjustified` — the fleet declared degraded mode for a
//!   goal epoch every home had already reached. Crying wolf is a bug
//!   the same as staying silent.
//!
//! Checks that require region-absorb visibility (`lost-discovery`,
//! `staleness-budget`, `unrecovered`, `install-of-unabsorbed-epoch`)
//! are gated on the trace containing at least one chaos-class event
//! (`fleet-absorb`, `fleet-fault`, `fleet-recover` or
//! `fleet-degraded`): the chaos-off barrier deliberately emits none of
//! them (its event stream is byte-identical to pre-E25), so clean
//! traces are judged only on install monotonicity.

use std::collections::{BTreeMap, BTreeSet};
use trace::event::TraceEvent;

/// Shape of the fleet run a trace is checked against.
///
/// The checker cannot know the fleet's configuration from the event
/// stream alone — a home that never installs emits nothing — so the
/// caller states it here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTraceSpec {
    /// Number of homes in the fleet (ids `0..homes`).
    pub homes: u32,
    /// Number of rounds the fleet ran (trace rounds are `0..rounds`).
    pub rounds: u32,
    /// Maximum rounds a discovery may take to reach every home before
    /// the fleet must either have converged or declared degraded mode.
    /// Mirror of [`crate::RecoveryPolicy::staleness_budget`].
    pub staleness_budget: u32,
    /// Settling rounds granted after the budget (for `lost-discovery`)
    /// and after the last fault (for `unrecovered`) before the checker
    /// judges. Keeps end-of-trace races out of the verdict.
    pub grace: u32,
}

impl Default for FleetTraceSpec {
    fn default() -> FleetTraceSpec {
        FleetTraceSpec { homes: 0, rounds: 0, staleness_budget: 4, grace: 2 }
    }
}

/// One invariant violation found in a fleet trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetViolation {
    /// Round the violation is anchored to.
    pub round: u64,
    /// Subject id — a home, neighborhood, signature or epoch depending
    /// on the invariant (widened to `u64` to hold signature ids).
    pub subject: u64,
    /// Stable invariant name (see module docs).
    pub invariant: &'static str,
}

impl FleetViolation {
    fn new(round: u64, subject: u64, invariant: &'static str) -> FleetViolation {
        FleetViolation { round, subject, invariant }
    }
}

/// Check a fleet trace against the E25 recovery invariants.
///
/// Pure: the verdict is a function of `(events, spec)` alone. Events
/// must be in emission order (rounds non-decreasing), which is how
/// [`trace::tracer::Tracer::events`] returns them. Returns every
/// violation found, in detection order; an empty vector means the
/// trace upholds all invariants the gating allows it to be judged on.
pub fn check_fleet_trace(
    events: &[(u64, TraceEvent)],
    spec: &FleetTraceSpec,
) -> Vec<FleetViolation> {
    let mut violations = Vec::new();

    // Chaos visibility gate: the chaos-off barrier emits none of the
    // E25 event vocabulary (its stream is byte-identical to pre-E25),
    // so region-side invariants can only be judged when the trace
    // carries at least one chaos-class event. Faults count too: a
    // schedule that drops *every* flush absorbs nothing, and that trace
    // must still be judged for lost discoveries.
    let chaos_present = events.iter().any(|(_, e)| {
        matches!(
            e,
            TraceEvent::FleetAbsorb { .. }
                | TraceEvent::FleetFault { .. }
                | TraceEvent::FleetRecover { .. }
                | TraceEvent::FleetDegraded { .. }
        )
    });

    // --- single pass: streaming checks + state reconstruction -------
    // Per-home install history as (round, epoch) pairs, for epoch-at-
    // round queries during the staleness check. Every home starts at
    // epoch 0 before any install.
    let mut installs: Vec<Vec<(u64, u32)>> = vec![Vec::new(); spec.homes as usize];
    let mut absorbed_epochs: BTreeSet<u32> = BTreeSet::new();
    let mut absorb_of_sig: BTreeMap<u64, (u64, u32)> = BTreeMap::new(); // sig -> (round, epoch)
    let mut discoveries: Vec<(u64, u64)> = Vec::new(); // (round, sig)
    let mut degraded: Vec<(u64, u32)> = Vec::new(); // (round, goal epoch)
    let mut last_absorb_epoch: u32 = 0;
    let mut last_fault_round: Option<u64> = None;

    for &(round, ref event) in events {
        match *event {
            TraceEvent::FleetDiscovery { signature, .. } => {
                discoveries.push((round, signature));
            }
            TraceEvent::FleetAbsorb { signature, epoch } => {
                if epoch < last_absorb_epoch {
                    violations.push(FleetViolation::new(
                        round,
                        u64::from(epoch),
                        "absorb-regression",
                    ));
                }
                last_absorb_epoch = last_absorb_epoch.max(epoch);
                absorbed_epochs.insert(epoch);
                absorb_of_sig.entry(signature).or_insert((round, epoch));
            }
            TraceEvent::FleetInstall { home, epoch } => {
                if home >= spec.homes {
                    // Unknown home: count it as a regression-class fault
                    // anchored to the home id rather than indexing out.
                    violations.push(FleetViolation::new(
                        round,
                        u64::from(home),
                        "epoch-regression",
                    ));
                    continue;
                }
                let hist = &mut installs[home as usize];
                let prev = hist.last().map_or(0, |&(_, e)| e);
                if epoch <= prev {
                    violations.push(FleetViolation::new(
                        round,
                        u64::from(home),
                        "epoch-regression",
                    ));
                }
                if chaos_present && !absorbed_epochs.contains(&epoch) {
                    violations.push(FleetViolation::new(
                        round,
                        u64::from(home),
                        "install-of-unabsorbed-epoch",
                    ));
                }
                hist.push((round, epoch));
            }
            TraceEvent::FleetFault { .. } => {
                last_fault_round = Some(last_fault_round.map_or(round, |r| r.max(round)));
            }
            TraceEvent::FleetDegraded { epoch, .. } => {
                degraded.push((round, epoch));
            }
            _ => {}
        }
    }

    // Installed epoch of `home` as of the end of round `at`.
    let epoch_at = |home: u32, at: u64| -> u32 {
        installs[home as usize].iter().take_while(|&&(r, _)| r <= at).last().map_or(0, |&(_, e)| e)
    };
    let final_epoch = |home: u32| -> u32 { installs[home as usize].last().map_or(0, |&(_, e)| e) };

    // --- lost-discovery & staleness-budget ---------------------------
    if chaos_present {
        let budget = u64::from(spec.staleness_budget);
        let grace = u64::from(spec.grace);
        for &(published, sig) in &discoveries {
            match absorb_of_sig.get(&sig) {
                None => {
                    // Judged lost only once the trace extends well past
                    // the deadline — otherwise it is merely pending.
                    if u64::from(spec.rounds) > published + budget + grace {
                        violations.push(FleetViolation::new(published, sig, "lost-discovery"));
                    }
                }
                Some(&(_, goal)) => {
                    let deadline = published + budget;
                    if u64::from(spec.rounds) <= deadline {
                        continue; // trace too short to judge
                    }
                    let converged = (0..spec.homes).all(|h| epoch_at(h, deadline) >= goal);
                    let excused = degraded.iter().any(|&(r, e)| r >= published && e >= goal);
                    if !converged && !excused {
                        violations.push(FleetViolation::new(deadline, sig, "staleness-budget"));
                    }
                }
            }
        }

        // --- unrecovered ---------------------------------------------
        if let Some(last_fault) = last_fault_round {
            if u64::from(spec.rounds) > last_fault + u64::from(spec.grace) {
                let goal = last_absorb_epoch;
                for h in 0..spec.homes {
                    if final_epoch(h) < goal {
                        violations.push(FleetViolation::new(
                            last_fault,
                            u64::from(h),
                            "unrecovered",
                        ));
                    }
                }
            }
        }
    }

    // --- degraded-unjustified ----------------------------------------
    for &(round, goal) in &degraded {
        if spec.homes > 0 && (0..spec.homes).all(|h| epoch_at(h, round) >= goal) {
            violations.push(FleetViolation::new(round, u64::from(goal), "degraded-unjustified"));
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(homes: u32, rounds: u32) -> FleetTraceSpec {
        FleetTraceSpec { homes, rounds, staleness_budget: 3, grace: 2 }
    }

    fn discovery(round: u64, sig: u64) -> (u64, TraceEvent) {
        (round, TraceEvent::FleetDiscovery { home: 0, signature: sig })
    }

    fn absorb(round: u64, sig: u64, epoch: u32) -> (u64, TraceEvent) {
        (round, TraceEvent::FleetAbsorb { signature: sig, epoch })
    }

    fn install(round: u64, home: u32, epoch: u32) -> (u64, TraceEvent) {
        (round, TraceEvent::FleetInstall { home, epoch })
    }

    fn fault(round: u64, kind: &'static str) -> (u64, TraceEvent) {
        (round, TraceEvent::FleetFault { neighborhood: 0, kind })
    }

    fn degraded(round: u64, epoch: u32, waiting: u32) -> (u64, TraceEvent) {
        (round, TraceEvent::FleetDegraded { epoch, waiting })
    }

    /// A clean converged run: discovery → absorb → both homes install.
    fn clean_run() -> Vec<(u64, TraceEvent)> {
        vec![discovery(0, 7), absorb(0, 7, 1), install(0, 0, 1), install(0, 1, 1)]
    }

    #[test]
    fn clean_recovered_run_has_no_violations() {
        assert_eq!(check_fleet_trace(&clean_run(), &spec(2, 10)), vec![]);
    }

    #[test]
    fn chaos_off_trace_without_absorbs_is_judged_on_monotonicity_only() {
        // A chaos-off fleet emits installs but never fleet-absorb.
        let events = vec![discovery(0, 7), install(0, 0, 1), install(0, 1, 1)];
        assert_eq!(check_fleet_trace(&events, &spec(2, 10)), vec![]);
    }

    #[test]
    fn install_epoch_must_strictly_increase_per_home() {
        let mut events = clean_run();
        events.push(install(3, 1, 1)); // repeat, not an advance
        let v = check_fleet_trace(&events, &spec(2, 10));
        assert!(v.iter().any(|v| v.invariant == "epoch-regression" && v.subject == 1));
    }

    #[test]
    fn installs_must_reference_absorbed_epochs() {
        let mut events = clean_run();
        events.push(install(2, 0, 9)); // epoch 9 never absorbed
        let v = check_fleet_trace(&events, &spec(2, 10));
        assert!(v.iter().any(|v| v.invariant == "install-of-unabsorbed-epoch"));
    }

    #[test]
    fn dropped_discovery_is_lost_once_the_budget_and_grace_expire() {
        // Discovery at round 0, never absorbed; budget 3 + grace 2.
        let events = vec![discovery(0, 7), absorb(1, 8, 1), install(1, 0, 1), install(1, 1, 1)];
        let v = check_fleet_trace(&events, &spec(2, 10));
        assert!(v.iter().any(|v| v.invariant == "lost-discovery" && v.subject == 7));
        // ...but a short trace leaves it pending.
        assert!(check_fleet_trace(&events, &spec(2, 4))
            .iter()
            .all(|v| v.invariant != "lost-discovery"));
    }

    #[test]
    fn slow_convergence_without_degraded_declaration_blows_the_budget() {
        // Home 1 never reaches epoch 1 and the fleet stays silent.
        let events = vec![discovery(0, 7), absorb(0, 7, 1), install(0, 0, 1)];
        let v = check_fleet_trace(&events, &spec(2, 10));
        assert!(v.iter().any(|v| v.invariant == "staleness-budget" && v.subject == 7));
    }

    #[test]
    fn degraded_declaration_excuses_the_budget_but_not_the_loss() {
        let events = vec![discovery(0, 7), absorb(0, 7, 1), install(0, 0, 1), degraded(3, 1, 1)];
        let v = check_fleet_trace(&events, &spec(2, 10));
        assert!(v.iter().all(|v| v.invariant != "staleness-budget"));
    }

    #[test]
    fn fleet_must_reconverge_within_grace_of_the_last_fault() {
        let mut events = clean_run();
        events.push(fault(2, "partition"));
        events.push(absorb(3, 8, 2));
        events.push(install(3, 0, 2)); // home 1 never catches up
        let v = check_fleet_trace(&events, &spec(2, 10));
        assert!(v.iter().any(|v| v.invariant == "unrecovered" && v.subject == 1));
        // Within the grace window the same trace is not yet judged.
        assert!(check_fleet_trace(&events, &spec(2, 4))
            .iter()
            .all(|v| v.invariant != "unrecovered"));
    }

    #[test]
    fn degraded_mode_for_an_already_reached_epoch_is_unjustified() {
        let mut events = clean_run();
        events.push(degraded(5, 1, 0)); // every home already at epoch 1
        let v = check_fleet_trace(&events, &spec(2, 10));
        assert!(v.iter().any(|v| v.invariant == "degraded-unjustified"));
    }

    #[test]
    fn absorb_epochs_must_not_regress() {
        let events = vec![absorb(0, 7, 2), absorb(1, 8, 1), install(1, 0, 2), install(1, 1, 2)];
        let v = check_fleet_trace(&events, &spec(2, 2));
        assert!(v.iter().any(|v| v.invariant == "absorb-regression"));
    }
}
