//! Difficulty-adaptive batch sizing for the search hot loops.
//!
//! The paper's search cost spans ~8 orders of magnitude across Hamming
//! distances — `C(256, 1) = 256` but `C(256, 4) ≈ 1.74×10⁸` — and one
//! fixed batch size cannot serve both ends. A max-width batch at `d = 1`
//! allocates and zeroes kilobyte buffers to hash 256÷p seeds and, under
//! early exit, overshoots the match by up to a whole batch; a small batch
//! at `d ≥ 4` pays the per-refill costs (mask-stream dynamic dispatch,
//! stop-flag and deadline polls, telemetry adds) so often they become
//! measurable. The same tension appears in prefix-search keygen tools,
//! which scale batch size to prefix length; here the difficulty key is
//! `d` via the per-thread span `C(256, d)/p`.
//!
//! [`BatchPolicy`] resolves a concrete batch size per `(d, threads)` from
//! three inputs:
//!
//! * the **per-thread span** — a batch never exceeds the work available
//!   (rounded up to a whole lane group so SIMD kernels stay full), which
//!   is what lets `d = 1` searches run a single small batch;
//! * a **target poll count** — batches are sized so a thread expects
//!   [`AdaptiveBatch::target_polls`] refills over its span, bounding
//!   early-exit overshoot to `span/target_polls` instead of `batch_max`;
//! * a **poll-cost floor** — the batch is kept large enough that a
//!   nominal per-refill overhead ([`AdaptiveBatch::NOMINAL_POLL_NS`])
//!   stays under [`AdaptiveBatch::POLL_BUDGET`] of the batch's hash work,
//!   so high-`d` searches keep amortizing exactly as the fixed engine did.
//!   The cost is a constant, not a measurement, so batch boundaries (and
//!   with them early-exit overshoot and seed counts) are the same on every
//!   host and every run.
//!
//! [`BatchPolicy::Fixed`] preserves the previous behavior exactly (the
//! §4.4-style ablations sweep it); [`BatchPolicy::default`] is adaptive.

use rbc_comb::binomial;

/// Widest SIMD lane group any dispatch tier uses (AVX-512 SHA-1); batch
/// sizes are rounded up to multiples of this so kernels stay full.
pub const LANE_GROUP: usize = 16;

/// Parameters of the adaptive policy. The defaults bound both failure
/// modes: `min`/`max` clamp the resolved size to the range the fixed
/// engine was ever run at, and `target_polls` keeps early-exit latency
/// proportional to the span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveBatch {
    /// Smallest batch ever resolved (also the floor when a span is tiny).
    pub min: usize,
    /// Largest batch ever resolved.
    pub max: usize,
    /// Refills a thread should expect over its whole span: the resolved
    /// batch is ≈ `span / target_polls`, clamped to `min..=max`.
    pub target_polls: u32,
}

impl AdaptiveBatch {
    /// Fraction of a batch's hash work the per-refill overhead (poll +
    /// stream dispatch) is allowed to cost before the batch is grown.
    pub const POLL_BUDGET: f64 = 0.02;

    /// Conservative per-seed hash cost in nanoseconds used for the
    /// overhead floor — between measured AVX-512 SHA-1 (~2 ns/seed) and
    /// portable SHA-3 (~300 ns/seed); only the floor's order of magnitude
    /// matters, and a smaller constant yields a larger (safer) floor.
    const NOMINAL_SEED_NS: f64 = 15.0;

    /// Per-refill overhead in nanoseconds (a deadline check plus a
    /// stop-flag load) that the floor amortizes. Wall-clock probes of it
    /// read 30–40 ns from run to run on one host, enough to move the
    /// `d = 1` batch by two lane groups; a fixed nominal value keeps
    /// batch sizes host-independent.
    pub const NOMINAL_POLL_NS: f64 = 25.0;

    /// Resolves the batch size for a per-thread span of `span` seeds,
    /// using the nominal poll cost.
    pub fn resolve_span(&self, span: u128) -> usize {
        self.resolve_span_with_poll_cost(span, Self::NOMINAL_POLL_NS)
    }

    /// [`AdaptiveBatch::resolve_span`] with an explicit poll cost, for
    /// deterministic tests.
    pub fn resolve_span_with_poll_cost(&self, span: u128, poll_ns: f64) -> usize {
        let min = self.min.max(1);
        let max = self.max.max(min);
        if span == 0 {
            return round_to_lanes(min).min(max).max(1);
        }
        // Amortization floor: batch · NOMINAL_SEED_NS ≥ poll_ns / POLL_BUDGET.
        let floor = ((poll_ns / (Self::POLL_BUDGET * Self::NOMINAL_SEED_NS)).ceil() as usize)
            .clamp(min, max);
        // Poll-count target: ~target_polls refills across the span.
        let ideal = (span / u128::from(self.target_polls.max(1))).clamp(1, max as u128) as usize;
        let sized = round_to_lanes(ideal.max(floor).clamp(min, max)).min(max.max(LANE_GROUP));
        // Never wider than the span itself (rounded up to one lane group):
        // a d=1 thread hashes its whole slice in a single refill without
        // allocating max-width buffers.
        let span_cap = round_to_lanes(span.min(max as u128) as usize);
        sized.min(span_cap)
    }
}

impl Default for AdaptiveBatch {
    fn default() -> Self {
        AdaptiveBatch { min: 16, max: 1024, target_polls: 16 }
    }
}

/// Rounds up to a whole [`LANE_GROUP`] multiple (at least one group).
fn round_to_lanes(n: usize) -> usize {
    n.max(1).div_ceil(LANE_GROUP) * LANE_GROUP
}

/// How the engine sizes its per-refill candidate batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Constant batch size at every distance — the pre-adaptive engine.
    /// `Fixed(1)` recovers the scalar (unbatched) engine.
    Fixed(usize),
    /// Difficulty-scaled sizing; see [`AdaptiveBatch`].
    Adaptive(AdaptiveBatch),
}

impl BatchPolicy {
    /// The adaptive policy with default parameters.
    pub fn adaptive() -> Self {
        BatchPolicy::Adaptive(AdaptiveBatch::default())
    }

    /// A constant batch size (clamped to ≥ 1 at resolve time).
    pub fn fixed(n: usize) -> Self {
        BatchPolicy::Fixed(n)
    }

    /// Largest batch this policy can ever resolve — what hot loops size
    /// their reusable buffers to.
    pub fn max_batch(&self) -> usize {
        match self {
            BatchPolicy::Fixed(n) => (*n).max(1),
            BatchPolicy::Adaptive(a) => round_to_lanes(a.max.max(a.min)).max(LANE_GROUP),
        }
    }

    /// Resolves the batch size for distance `d` searched by `threads`
    /// workers: the per-thread span is `C(256, d) / threads`.
    pub fn resolve(&self, d: u32, threads: usize) -> usize {
        match self {
            BatchPolicy::Fixed(n) => (*n).max(1),
            BatchPolicy::Adaptive(a) => {
                let span = binomial(256, d) / threads.max(1) as u128;
                a.resolve_span(span.max(1))
            }
        }
    }

    /// Resolves the batch size for an explicitly known span of seeds
    /// (e.g. a checkpointed shard's `count`).
    pub fn resolve_for_span(&self, span: u128) -> usize {
        match self {
            BatchPolicy::Fixed(n) => (*n).max(1),
            BatchPolicy::Adaptive(a) => a.resolve_span(span),
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::adaptive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLL_NS: f64 = 30.0;

    fn resolve(d: u32, threads: usize) -> usize {
        let a = AdaptiveBatch::default();
        let span = binomial(256, d) / threads as u128;
        a.resolve_span_with_poll_cost(span.max(1), POLL_NS)
    }

    #[test]
    fn low_distance_resolves_one_small_refill() {
        // d=1 across 4 threads: 64 seeds per thread — the whole slice
        // should fit one lane-aligned refill, far below max.
        let b = resolve(1, 4);
        assert_eq!(b, 64);
        // Single-threaded d=1: a few overhead-amortizing refills, never
        // wider than the 256-seed span and never the 1024 max.
        let b1 = resolve(1, 1);
        assert!((96..=256).contains(&b1), "got {b1}");
        assert_eq!(b1 % LANE_GROUP, 0);
    }

    #[test]
    fn high_distance_resolves_max_batch() {
        // d=3: span of ~2.9M per thread wants max-size batches.
        assert_eq!(resolve(3, 1), 1024);
        assert_eq!(resolve(4, 64), 1024);
    }

    #[test]
    fn mid_distance_scales_between() {
        // d=2, 8 threads: span 4080, target 16 polls → ~255 → 256.
        let b = resolve(2, 8);
        assert!(b > 64 && b < 1024, "got {b}");
        assert_eq!(b % LANE_GROUP, 0);
    }

    #[test]
    fn resolution_is_monotonic_in_span() {
        let a = AdaptiveBatch::default();
        let mut last = 0;
        for span in [1u128, 16, 64, 256, 1 << 12, 1 << 16, 1 << 20, 1 << 40] {
            let b = a.resolve_span_with_poll_cost(span, POLL_NS);
            assert!(b >= last, "span {span}: {b} < {last}");
            assert!((1..=1024).contains(&b));
            last = b;
        }
    }

    #[test]
    fn expensive_polls_raise_the_floor() {
        let a = AdaptiveBatch::default();
        // Span sized so the poll-count target alone wants modest batches;
        // a costly poll must push the floor up (clamping at max).
        let cheap = a.resolve_span_with_poll_cost(2048, 1.0);
        let costly = a.resolve_span_with_poll_cost(2048, 100_000.0);
        assert_eq!(cheap, 128);
        assert_eq!(costly, 1024, "floor clamps at max");
    }

    #[test]
    fn fixed_policy_is_constant_and_scalar_capable() {
        let p = BatchPolicy::fixed(7);
        for d in 1..=5 {
            assert_eq!(p.resolve(d, 4), 7);
        }
        assert_eq!(BatchPolicy::fixed(0).resolve(3, 4), 1, "clamped to scalar");
        assert_eq!(BatchPolicy::fixed(1).max_batch(), 1);
    }

    #[test]
    fn buffers_sized_by_max_batch_always_fit_resolved_batches() {
        for policy in [
            BatchPolicy::default(),
            BatchPolicy::fixed(64),
            BatchPolicy::Adaptive(AdaptiveBatch { min: 3, max: 100, target_polls: 4 }),
        ] {
            let cap = policy.max_batch();
            for d in 1..=5 {
                for threads in [1usize, 4, 64] {
                    assert!(
                        policy.resolve(d, threads) <= cap,
                        "{policy:?} d={d} p={threads}: {} > {cap}",
                        policy.resolve(d, threads)
                    );
                }
            }
            for span in [0u128, 1, 255, 1 << 33] {
                assert!(policy.resolve_for_span(span) <= cap, "{policy:?} span={span}");
            }
        }
    }

    #[test]
    fn default_policy_is_host_independent() {
        // The nominal poll cost floors d=1 at ceil(25 / (0.02 · 15)) = 84
        // seeds, rounded up to six lane groups, on every host and run.
        assert_eq!(BatchPolicy::default().resolve(1, 1), 96);
    }
}
