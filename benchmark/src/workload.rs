//! The four workloads and the seeded schedules that drive them.
//!
//! Everything a run sends is generated up front from `--seed`: arrival
//! times, client ids, injected noise `k`, the RNG seed each `respond`
//! call uses, and the attackers' digests. The stack under test only ever
//! sees these generated inputs.
//!
//! The noise mix `k` of the light traffic is derived from the repository's
//! SRAM PUF model (see [`light_k_weights`]). The populations, rates and
//! attacker counts are synthetic: no deployment was measured for them;
//! each one's doc comment gives the reason for its value.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbc_salted::bits::U256;
use rbc_salted::hash::{DynDigest, HashAlgo};
use rbc_salted::puf::CellMixture;
use rbc_splitmix::splitmix64;

/// The benchmark's workloads; see the README for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, d ≤ 2 SHA-3 traffic: fixed per-request costs dominate.
    LightSha3,
    /// Closed loop, every request at k = 3 on SHA-3: the kernel dominates.
    HardSha3,
    /// Open loop light SHA-1 traffic plus wrong-credential attackers.
    FloodSha1,
    /// Closed loop k = 3 SHA-1 through the supervised shard pool.
    HardSha1Pool,
}

/// How requests arrive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Traffic {
    /// Poisson arrivals at `rate` per second, regardless of completions.
    Open { rate: f64 },
    /// Each client sends its next request when the previous one returns.
    Closed,
}

/// What the dispatcher routes searches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backends {
    /// One `CpuBackend` using every core: one search at a time.
    Shared,
    /// One single-threaded `CpuBackend` per core, so a search on one core
    /// does not queue the searches for the other.
    PerCore,
    /// `SupervisedPool` over one single-threaded `CpuBackend` per core.
    Pool,
}

/// Attackers in `flood_sha1`: enrolled ids sending wrong digests. Synthetic:
/// two replay one digest and two rotate, so both of admission's defences
/// (the negative cache and the quarantine) have work.
pub const ATTACKERS: u64 = 4;
/// Requests per second each attacker sends. Synthetic: it equals the
/// refill of `AdmissionConfig::for_bound(3)` (two worst-case searches per
/// second), so token buckets alone never throttle a rotating attacker and
/// quarantine has to. Unadmitted, the four would ask for 4 × 2 × u(3) ≈
/// 22 M SHA-1 hashes per second, about what two cores derive through the
/// service, so without admission the flood alone would saturate them.
const ATTACK_RATE: f64 = 2.0;
/// Bits of the seed the CA searches around.
const KEY_BITS: i32 = 256;

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::LightSha3, Workload::HardSha3, Workload::FloodSha1, Workload::HardSha1Pool];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LightSha3 => "light_sha3",
            Workload::HardSha3 => "hard_sha3",
            Workload::FloodSha1 => "flood_sha1",
            Workload::HardSha1Pool => "hard_sha1_pool",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn algo(self) -> HashAlgo {
        match self {
            Workload::LightSha3 | Workload::HardSha3 => HashAlgo::Sha3_256,
            Workload::FloodSha1 | Workload::HardSha1Pool => HashAlgo::Sha1,
        }
    }

    /// Honest clients enrolled (attackers come on top). Synthetic. 4,000
    /// for `light_sha3` is large enough that most of a run's requests come
    /// from clients not seen before in it, and small enough that
    /// enrolling it (single-threaded, ~1.3 s) keeps set-up short. The flood
    /// takes half of it and the closed loops, whose ~150–450 requests per
    /// run hardly repeat a client anyway, a quarter, for shorter set-ups.
    pub fn population(self) -> u64 {
        match self {
            Workload::LightSha3 => 4000,
            Workload::FloodSha1 => 2000,
            Workload::HardSha3 | Workload::HardSha1Pool => 1000,
        }
    }

    pub fn enrolled(self) -> u64 {
        self.population() + if self == Workload::FloodSha1 { ATTACKERS } else { 0 }
    }

    /// Light traffic runs at 30/s. Synthetic: about a twelfth of what the CA
    /// lock and two cores sustain, so requests seldom queue and the
    /// median shows the per-request cost. The shared host's speed drifts,
    /// at times to half or less for seconds on end, and queueing turns a
    /// slower host into a disproportionately slower median: it swung
    /// ±16% between runs of one seed at 120/s and ±11% at 60/s.
    pub fn traffic(self) -> Traffic {
        match self {
            Workload::LightSha3 | Workload::FloodSha1 => Traffic::Open { rate: 30.0 },
            Workload::HardSha3 | Workload::HardSha1Pool => Traffic::Closed,
        }
    }

    /// The flood runs one backend per core: behind a single slot every
    /// honest search queued for each admitted attack search, which takes
    /// a quarter of a second or more, and the honest median swung up to
    /// 2× from seed to seed with how often that happened.
    pub fn backends(self) -> Backends {
        match self {
            Workload::LightSha3 | Workload::HardSha3 => Backends::Shared,
            Workload::FloodSha1 => Backends::PerCore,
            Workload::HardSha1Pool => Backends::Pool,
        }
    }

    /// Traffic before the measured window whose latencies are not scored.
    /// The flood's first seconds are admission's containment: until the
    /// rotating attackers are quarantined and the replayed digests cached,
    /// attack searches run back to back. The honest median is meant to
    /// show the steady state that follows, so this transient is not
    /// scored; the hashes its searches cost still count, in
    /// `server_khash_per_auth`.
    pub fn lead_in(self) -> Duration {
        match self {
            Workload::FloodSha1 => Duration::from_secs(5),
            _ => Duration::ZERO,
        }
    }

    /// Builds the schedule for a measured window of `seconds`.
    pub fn schedule(self, seed: u64, seconds: f64, lanes: usize) -> Schedule {
        let mut gen = Gen::new(seed);
        match self.traffic() {
            Traffic::Open { rate } => {
                let span = self.lead_in().as_secs_f64() + seconds;
                let mut reqs = gen.open_honest(self.population(), rate, span);
                if self == Workload::FloodSha1 {
                    for a in 0..ATTACKERS {
                        // Attackers 0 and 1 replay one digest; 2 and 3
                        // send a fresh digest every time.
                        reqs.extend(gen.open_attacker(
                            self.population() + a,
                            a < 2,
                            self.algo(),
                            span,
                        ));
                    }
                    reqs.sort_by_key(|r| r.due);
                }
                for r in &mut reqs {
                    r.scored &= r.due >= self.lead_in();
                }
                Schedule::Open(reqs)
            }
            Traffic::Closed => {
                // Enough requests that no lane runs dry: a lane completes
                // far fewer than 400 k = 3 searches per second.
                let per_lane = (seconds * 400.0).ceil() as usize + 1;
                Schedule::Closed(
                    (0..lanes).map(|_| gen.closed(self.population(), per_lane, 3)).collect(),
                )
            }
        }
    }
}

/// Who sends a request, and so what the correct verdict is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A genuine client whose readout carries exactly `k` flipped bits:
    /// the only correct verdict is `Accepted { distance: k }`.
    Honest { k: u32 },
    /// An enrolled id sending a digest of a random seed: it must never be
    /// accepted.
    Attacker,
}

/// One authentication to send.
#[derive(Clone, Debug)]
pub struct Request {
    /// Open loop: when it is due, from the start of the measured window.
    pub due: Duration,
    pub client: u64,
    /// Seed of the client's PUF model.
    pub device_seed: u64,
    pub role: Role,
    /// Seeds the RNG `Client::respond` draws the noise from.
    pub rng_seed: u64,
    /// The wrong digest an attacker sends.
    pub digest: Option<DynDigest>,
    /// Whether its latency enters the distribution: honest requests in
    /// the measured window. Every request is judged.
    pub scored: bool,
}

#[derive(Clone, Debug)]
pub enum Schedule {
    /// One time-ordered list shared by all generator threads.
    Open(Vec<Request>),
    /// One list per closed-loop client, consumed in order.
    Closed(Vec<Vec<Request>>),
}

impl Schedule {
    /// A 64-bit fold over every generated field: equal schedules have
    /// equal digests.
    pub fn digest(&self) -> u64 {
        let reqs: Vec<&Request> = match self {
            Schedule::Open(r) => r.iter().collect(),
            Schedule::Closed(lanes) => lanes.iter().flatten().collect(),
        };
        reqs.iter().fold(reqs.len() as u64, |h, r| {
            let role = match r.role {
                Role::Honest { k } => u64::from(k),
                Role::Attacker => 0xa77a,
            };
            let digest =
                r.digest.map_or(0, |d| d.as_bytes().iter().fold(0, |h, &b| mix(h, u64::from(b))));
            let due = r.due.as_nanos() as u64;
            [due, r.client, r.device_seed, role, r.rng_seed, digest, u64::from(r.scored)]
                .into_iter()
                .fold(h, mix)
        })
    }
}

/// The seed of client `id`'s PUF model in a run seeded `seed`.
pub fn device_seed(seed: u64, id: u64) -> u64 {
    mix(mix(seed, 0xde71_ce00), id)
}

pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a ^ splitmix64(b))
}

/// The share of k = 0, 1 and 2 in the light traffic.
///
/// Derived from the repository's PUF model, not measured on devices.
/// TAPKI enrollment masks the fluttering cells, so the 256 key cells of a
/// `CellMixture::sram()` device are stable cells with a bit-error rate
/// drawn uniformly from `stable_ber` (0–1 %). Each flips independently,
/// so over the client population a readout's distance from its reference
/// is Binomial(256, mean stable BER = 0.5 %): mean 1.28, with k ≤ 2 in
/// 86 % of readouts, k = 3 in 10 % and k ≥ 4 in 4 %. (This ignores the
/// rare fluttering cell that survives masking.) Light traffic takes that
/// distribution conditioned on k ≤ 2, about 32 / 41 / 27 %; the k = 3
/// readouts are what `hard_sha3` and `hard_sha1_pool` measure, and k ≥ 4
/// lies beyond the CA's bound.
pub fn light_k_weights() -> [f64; 3] {
    let (lo, hi) = CellMixture::sram().stable_ber;
    let p = (lo + hi) / 2.0;
    let n = f64::from(KEY_BITS);
    let pmf = [
        (1.0 - p).powi(KEY_BITS),
        n * p * (1.0 - p).powi(KEY_BITS - 1),
        n * (n - 1.0) / 2.0 * p * p * (1.0 - p).powi(KEY_BITS - 2),
    ];
    let total: f64 = pmf.iter().sum();
    pmf.map(|q| q / total)
}

struct Gen {
    seed: u64,
    rng: StdRng,
    /// [`light_k_weights`].
    light: [f64; 3],
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { seed, rng: StdRng::seed_from_u64(mix(seed, 0x5c4e_d01e)), light: light_k_weights() }
    }

    /// The injected noise of `n` light requests: each `k` in its share of
    /// [`light_k_weights`], rounded, in random order. Seeds differ in which
    /// request gets which `k`, not in the mix, which would otherwise move
    /// the median and the hashes per request from seed to seed.
    fn light_ks(&mut self, n: usize) -> Vec<u32> {
        let mut ks = Vec::with_capacity(n);
        let mut share = 0.0;
        for (k, w) in (0..).zip(self.light) {
            share += w;
            let upto = ((share * n as f64).round() as usize).min(n);
            ks.resize(upto.max(ks.len()), k);
        }
        for i in (1..n).rev() {
            ks.swap(i, self.rng.gen_range(0..=i));
        }
        ks
    }

    fn honest(&mut self, population: u64, due: Duration, k: u32) -> Request {
        let client = self.rng.gen_range(0..population);
        Request {
            due,
            client,
            device_seed: device_seed(self.seed, client),
            role: Role::Honest { k },
            rng_seed: self.rng.gen(),
            digest: None,
            scored: true,
        }
    }

    /// Poisson arrivals conditioned on their count: `rate × seconds`
    /// arrival times drawn uniformly over the window, then sorted.
    fn arrivals(&mut self, rate: f64, seconds: f64) -> Vec<Duration> {
        let n = (rate * seconds).round() as usize;
        let mut due: Vec<Duration> =
            (0..n).map(|_| Duration::from_secs_f64(self.rng.gen::<f64>() * seconds)).collect();
        due.sort();
        due
    }

    fn open_honest(&mut self, population: u64, rate: f64, seconds: f64) -> Vec<Request> {
        let due = self.arrivals(rate, seconds);
        let ks = self.light_ks(due.len());
        due.into_iter().zip(ks).map(|(due, k)| self.honest(population, due, k)).collect()
    }

    fn open_attacker(&mut self, id: u64, replay: bool, algo: HashAlgo, secs: f64) -> Vec<Request> {
        let fixed = algo.digest_seed(&U256::random(&mut self.rng));
        self.arrivals(ATTACK_RATE, secs)
            .into_iter()
            .map(|due| Request {
                due,
                client: id,
                device_seed: device_seed(self.seed, id),
                role: Role::Attacker,
                rng_seed: self.rng.gen(),
                digest: Some(if replay {
                    fixed
                } else {
                    algo.digest_seed(&U256::random(&mut self.rng))
                }),
                scored: false,
            })
            .collect()
    }

    fn closed(&mut self, population: u64, n: usize, k: u32) -> Vec<Request> {
        (0..n).map(|_| self.honest(population, Duration::ZERO, k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_schedule() {
        for w in Workload::ALL {
            let a = w.schedule(11, 2.0, 2).digest();
            assert_eq!(a, w.schedule(11, 2.0, 2).digest(), "{}", w.name());
            assert_ne!(a, w.schedule(12, 2.0, 2).digest(), "{}", w.name());
        }
    }

    #[test]
    fn flood_mixes_honest_traffic_with_replaying_and_rotating_attackers() {
        let Schedule::Open(reqs) = Workload::FloodSha1.schedule(3, 10.0, 2) else {
            panic!("flood is open loop")
        };
        assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due), "time ordered");
        // 5 s of lead-in + 10 s of window at 30/s.
        let honest = reqs.iter().filter(|r| matches!(r.role, Role::Honest { .. })).count();
        assert_eq!(honest, 450);
        let lead_in = Workload::FloodSha1.lead_in();
        for r in &reqs {
            let in_window = matches!(r.role, Role::Honest { .. }) && r.due >= lead_in;
            assert_eq!(r.scored, in_window, "{r:?}");
        }
        for a in 0..ATTACKERS {
            let id = Workload::FloodSha1.population() + a;
            let digests: Vec<DynDigest> =
                reqs.iter().filter(|r| r.client == id).map(|r| r.digest.unwrap()).collect();
            assert_eq!(digests.len(), 30);
            let distinct = digests.iter().filter(|d| **d != digests[0]).count();
            if a < 2 {
                assert_eq!(distinct, 0, "attacker {a} replays");
            } else {
                assert_eq!(distinct, 29, "attacker {a} rotates");
            }
        }
    }

    #[test]
    fn light_noise_follows_the_sram_model_below_the_bound() {
        // Binomial(256, 0.005) at k = 0, 1, 2 is 0.2771, 0.3565, 0.2284
        // (sum 0.8620).
        let w = light_k_weights();
        for (got, want) in w.iter().zip([0.2771 / 0.8620, 0.3565 / 0.8620, 0.2284 / 0.8620]) {
            assert!((got - want).abs() < 1e-3, "{w:?}");
        }
        // Every seed sends the same mix, to rounding, in its own order.
        let ks = |seed| {
            let Schedule::Open(reqs) = Workload::LightSha3.schedule(seed, 20.0, 2) else {
                panic!("light is open loop")
            };
            reqs.iter().map(|r| r.role).collect::<Vec<_>>()
        };
        let (a, b) = (ks(5), ks(6));
        assert_ne!(a, b);
        for (k, want) in (0..).zip(w) {
            for roles in [&a, &b] {
                let n = roles.iter().filter(|&&r| r == Role::Honest { k }).count();
                let share = n as f64 / roles.len() as f64;
                assert!((share - want).abs() <= 1.0 / roles.len() as f64, "k = {k}: {share}");
            }
        }
    }
}
