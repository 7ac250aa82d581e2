//! Seeded input generators. Every workload input is a pure function of
//! the `--seed` argument; the program under test only ever sees what
//! these return.
//!
//! The seed varies *which* inputs run, never *how much*: the world mix,
//! the fleet's hit/miss count and the policy's raw state count are the
//! same for every seed, so runs of different seeds measure the same
//! amount of work.

use iotdev::device::{DeviceClass, DeviceId};
use iotdev::env::EnvVar;
use iotdev::vuln::Vulnerability;
use iotpolicy::compile::PolicyCompiler;
use iotpolicy::policy::FsmPolicy;
use iotsec_bench::sweep::{SweepScenario, WorldJob};

/// splitmix64: small, fast and fully determined by its seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`; `salt` separates the streams of
    /// different workloads drawn from one seed.
    pub fn new(seed: u64, salt: u64) -> SplitMix64 {
        SplitMix64(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The `world-sweep` population axis (extra clean devices per home).
pub const POPULATIONS: [u32; 4] = [0, 8, 32, 128];

/// The `world-sweep` scenario axis.
pub const SCENARIOS: [SweepScenario; 2] =
    [SweepScenario::HomeUndefended, SweepScenario::HomeIoTSec];

/// `per_kind` worlds of every (scenario, population) kind, each with
/// its own deployment seed, interleaved so every stretch of the job
/// list carries the whole mix.
pub fn world_jobs(seed: u64, per_kind: usize) -> Vec<WorldJob> {
    let mut rng = SplitMix64::new(seed, 1);
    let mut jobs = Vec::with_capacity(per_kind * SCENARIOS.len() * POPULATIONS.len());
    for _ in 0..per_kind {
        for scenario in SCENARIOS {
            for population in POPULATIONS {
                jobs.push(WorldJob { scenario, seed: rng.next_u64(), population });
            }
        }
    }
    jobs
}

/// The `fleet-churn` inputs: the fleet seed and, per measured round,
/// whether its novel signature targets the camera every home owns
/// (a hit) or a SKU no home owns (a miss). Exactly half are hits.
pub fn fleet_plan(seed: u64, rounds: usize) -> (u64, Vec<bool>) {
    let mut rng = SplitMix64::new(seed, 2);
    let fleet_seed = rng.next_u64();
    let mut hits: Vec<bool> = (0..rounds).map(|r| r < rounds / 2).collect();
    rng.shuffle(&mut hits);
    (fleet_seed, hits)
}

/// Devices in the `policy-explore` policy.
pub const POLICY_DEVICES: u32 = 12;
/// Of those, how many carry the Table-1 default-credential flaw.
pub const POLICY_VULNERABLE: usize = 4;
/// Cross-device protection pairs.
pub const POLICY_PAIRS: usize = 3;

/// The E1/E19 policy family at `n = 12` cameras with one tracked
/// environment variable. The seed picks which cameras are vulnerable
/// and which disjoint pairs are coupled; the counts are fixed, so the
/// raw state space has the same size for every seed.
pub fn policy(seed: u64) -> FsmPolicy {
    let mut rng = SplitMix64::new(seed, 3);
    let mut ids: Vec<u32> = (0..POLICY_DEVICES).collect();
    rng.shuffle(&mut ids);
    let vulnerable = &ids[..POLICY_VULNERABLE];
    let mut c = PolicyCompiler::new();
    for i in 0..POLICY_DEVICES {
        let vulns = if vulnerable.contains(&i) {
            vec![Vulnerability::default_admin_admin()]
        } else {
            vec![]
        };
        c.device(DeviceId(i), DeviceClass::Camera, &vulns);
    }
    rng.shuffle(&mut ids);
    for pair in ids.chunks(2).take(POLICY_PAIRS) {
        c.protect_on_suspicion(DeviceId(pair[0]), DeviceId(pair[1]));
    }
    c.env(EnvVar::Occupancy);
    c.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(jobs: &[WorldJob]) -> Vec<(&'static str, u32)> {
        let mut m: Vec<_> = jobs.iter().map(|j| (j.scenario.label(), j.population)).collect();
        m.sort();
        m
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(world_jobs(5, 3), world_jobs(5, 3));
        assert_eq!(fleet_plan(5, 10), fleet_plan(5, 10));
        assert_eq!(format!("{:?}", policy(5).rules), format!("{:?}", policy(5).rules));
    }

    #[test]
    fn different_seeds_differ_in_inputs_not_in_mix() {
        let (a, b) = (world_jobs(1, 4), world_jobs(2, 4));
        assert_ne!(a, b);
        assert_eq!(mix(&a), mix(&b));
        assert_eq!(a.len(), 4 * 8);

        let ((fa, ha), (fb, hb)) = (fleet_plan(1, 24), fleet_plan(2, 24));
        assert_ne!(fa, fb);
        assert_eq!(ha.iter().filter(|&&h| h).count(), 12);
        assert_eq!(hb.iter().filter(|&&h| h).count(), 12);
    }

    #[test]
    fn every_seed_sweeps_the_same_raw_state_count() {
        let sizes: Vec<u128> = (0..8).map(|s| policy(s).schema.size()).collect();
        assert!(sizes.iter().all(|&n| n == 3_359_232), "{sizes:?}");
        let rules: Vec<String> = (0..8).map(|s| format!("{:?}", policy(s).rules)).collect();
        assert!(rules.windows(2).any(|w| w[0] != w[1]), "the seed must change the policy");
    }
}
