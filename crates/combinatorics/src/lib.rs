//! # rbc-comb
//!
//! Combination generation over the RBC seed space: everything needed to
//! enumerate, rank, partition and stream the `C(256, d)` bit-flip masks
//! that define the Hamming-distance-`d` neighbourhood of a PUF seed.
//!
//! Three full seed-iterator implementations, matching §3.2.1 / §4.5 of the
//! paper:
//!
//! | Method | Module | Per-seed cost | Parallelism |
//! |---|---|---|---|
//! | Gosper's hack (prior work) | [`gosper`] | wide-word arithmetic on 256-bit seeds | jump by colex rank |
//! | Algorithm 515 (Buckles–Lybanon) | [`alg515`] | unranking walk per seed | stateless random access |
//! | Chase's Algorithm 382 | [`chase`] | few-instruction Gray-code successor | snapshot table |
//!
//! A candidate seed is always `S_init XOR mask`; masks are independent of
//! the client, so iterator state (e.g. Chase snapshot tables) is reusable
//! across authentications.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg515;
pub mod binomial;
pub mod chase;
pub mod classic;
pub mod gosper;
pub mod rank;

pub use alg515::Alg515Stream;
pub use binomial::{
    average_seeds, binomial, binomial_checked, exhaustive_seeds, seeds_at_distance,
};
pub use chase::{ChaseState, ChaseStream, ChaseTable};
pub use classic::{Alg154, RevolvingDoor};
pub use gosper::{gosper_next, GosperStream};
pub use rank::{colex_rank, colex_unrank, lex_rank, lex_unrank, Positions};

use rbc_bits::{MaskRun, U256};

/// The seed-iteration methods evaluated in the paper (Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SeedIterKind {
    /// Gosper's hack on 256-bit words — prior work's method.
    Gosper,
    /// Algorithm 515: per-index lexicographic unranking.
    Alg515,
    /// Chase's Algorithm 382: Gray-code successor with saved states.
    Chase,
}

impl SeedIterKind {
    /// All methods in the paper's Table 4 order.
    pub const ALL: [SeedIterKind; 3] =
        [SeedIterKind::Chase, SeedIterKind::Alg515, SeedIterKind::Gosper];

    /// Name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SeedIterKind::Gosper => "Gosper (prior work)",
            SeedIterKind::Alg515 => "Alg. 515",
            SeedIterKind::Chase => "Alg. 382 (Chase)",
        }
    }
}

impl core::fmt::Display for SeedIterKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A stream of weight-`d` masks owned by one worker — the runtime-dispatch
/// wrapper the search engines consume. Enum dispatch keeps the per-mask
/// overhead to a predictable branch, negligible next to the hash.
#[derive(Clone, Debug)]
pub enum MaskStream {
    /// Gosper's-hack stream.
    Gosper(GosperStream),
    /// Algorithm 515 stream.
    Alg515(Alg515Stream),
    /// Chase / Algorithm 382 stream.
    Chase(ChaseStream),
}

impl MaskStream {
    /// Produces the next mask, or `None` when the worker's range is done.
    #[inline]
    pub fn next_mask(&mut self) -> Option<U256> {
        match self {
            MaskStream::Gosper(s) => s.next_mask(),
            MaskStream::Alg515(s) => s.next_mask(),
            MaskStream::Chase(s) => s.next_mask(),
        }
    }

    /// Fills `out` from the front with the next masks and returns how many
    /// were written; fewer than `out.len()` only when the range is
    /// exhausted (then 0 forever after).
    ///
    /// This is the batch engines' refill: the enum variant is matched once
    /// per call, so the per-mask cost inside the loop is the concrete
    /// stream's successor step with no dynamic dispatch.
    #[inline]
    pub fn next_batch(&mut self, out: &mut [U256]) -> usize {
        macro_rules! fill {
            ($s:expr) => {{
                let mut n = 0;
                while n < out.len() {
                    match $s.next_mask() {
                        Some(m) => {
                            out[n] = m;
                            n += 1;
                        }
                        None => break,
                    }
                }
                n
            }};
        }
        match self {
            MaskStream::Gosper(s) => fill!(s),
            MaskStream::Alg515(s) => fill!(s),
            MaskStream::Chase(s) => s.next_batch(out),
        }
    }

    /// Clears `runs` and fills it with exactly the masks a `max`-slot
    /// [`MaskStream::next_batch`] would write, in the same order, and
    /// returns how many masks the runs hold; the stream ends in the same
    /// state as after that batch. This is the search loop's refill: the
    /// hash prescreen builds each run's candidates in registers.
    ///
    /// Chase's stream emits whole runs of its dominant step (see
    /// [`chase`]); Gosper's and Algorithm 515's emit one-mask runs.
    #[inline]
    pub fn next_runs(&mut self, runs: &mut Vec<MaskRun>, max: usize) -> usize {
        macro_rules! singles {
            ($s:expr) => {{
                runs.clear();
                runs.extend($s.by_ref().take(max).map(MaskRun::single));
                runs.len()
            }};
        }
        match self {
            MaskStream::Gosper(s) => singles!(s),
            MaskStream::Alg515(s) => singles!(s),
            MaskStream::Chase(s) => s.next_runs(runs, max),
        }
    }

    /// Number of masks left.
    pub fn remaining(&self) -> u128 {
        match self {
            MaskStream::Gosper(s) => s.remaining(),
            MaskStream::Alg515(s) => s.remaining(),
            MaskStream::Chase(s) => s.remaining(),
        }
    }
}

impl Iterator for MaskStream {
    type Item = U256;

    fn next(&mut self) -> Option<U256> {
        self.next_mask()
    }
}

/// Splits `0..total` into `parts` contiguous ranges whose sizes differ by
/// at most one — the static work partition used by every engine
/// (`n = C(256, d) / p` of Algorithm 1).
pub fn partition(total: u128, parts: usize) -> Vec<core::ops::Range<u128>> {
    assert!(parts > 0, "need at least one part");
    let p = parts as u128;
    (0..p).map(|i| (total * i / p)..(total * (i + 1) / p)).collect()
}

/// Plans one stream per worker over the weight-`d` space using iteration
/// method `kind`.
///
/// For [`SeedIterKind::Chase`] the streams resume from the process-wide
/// snapshot table ([`ChaseTable::shared`]), built on the first call for
/// `(d, workers)`.
pub fn plan_streams(kind: SeedIterKind, d: u32, workers: usize) -> Vec<MaskStream> {
    match kind {
        SeedIterKind::Gosper => partition(binomial(256, d), workers)
            .into_iter()
            .map(|r| MaskStream::Gosper(GosperStream::from_rank_range(d, r.start, r.end)))
            .collect(),
        SeedIterKind::Alg515 => partition(binomial(256, d), workers)
            .into_iter()
            .map(|r| MaskStream::Alg515(Alg515Stream::from_rank_range(d, r.start, r.end)))
            .collect(),
        SeedIterKind::Chase => {
            let table = ChaseTable::shared(d, workers);
            (0..workers).map(|w| MaskStream::Chase(table.stream(w))).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn partition_sizes_balanced_and_cover() {
        let parts = partition(100, 7);
        assert_eq!(parts.len(), 7);
        let total: u128 = parts.iter().map(|r| r.end - r.start).sum();
        assert_eq!(total, 100);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[6].end, 100);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            let (a, b) = (w[0].end - w[0].start, w[1].end - w[1].start);
            assert!(a.abs_diff(b) <= 1);
        }
    }

    #[test]
    fn partition_more_parts_than_items() {
        let parts = partition(3, 10);
        let nonempty = parts.iter().filter(|r| r.end > r.start).count();
        assert_eq!(nonempty, 3);
    }

    #[test]
    fn all_kinds_enumerate_identical_spaces() {
        let reference: HashSet<U256> = GosperStream::new(2).collect();
        for kind in SeedIterKind::ALL {
            let mut got = HashSet::new();
            for mut s in plan_streams(kind, 2, 5) {
                while let Some(m) = s.next_mask() {
                    assert!(got.insert(m), "{kind}: duplicate mask");
                }
            }
            assert_eq!(got, reference, "{kind}");
        }
    }

    #[test]
    fn streams_report_remaining() {
        for kind in SeedIterKind::ALL {
            let streams = plan_streams(kind, 1, 4);
            let total: u128 = streams.iter().map(|s| s.remaining()).sum();
            assert_eq!(total, 256, "{kind}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SeedIterKind::Chase.name(), "Alg. 382 (Chase)");
        assert_eq!(format!("{}", SeedIterKind::Gosper), "Gosper (prior work)");
    }

    #[test]
    fn next_batch_matches_next_mask_sequence() {
        for kind in SeedIterKind::ALL {
            // d=2 over 3 workers: uneven ranges exercise partial batches.
            let scalar: Vec<Vec<U256>> =
                plan_streams(kind, 2, 3).into_iter().map(|s| s.collect()).collect();
            for batch_size in [1usize, 7, 64, 40000] {
                for (w, mut stream) in plan_streams(kind, 2, 3).into_iter().enumerate() {
                    let mut got = Vec::new();
                    let mut buf = vec![U256::ZERO; batch_size];
                    loop {
                        let n = stream.next_batch(&mut buf);
                        got.extend_from_slice(&buf[..n]);
                        if n < batch_size {
                            break;
                        }
                    }
                    assert_eq!(got, scalar[w], "{kind}, batch={batch_size}, worker {w}");
                    // Exhausted streams keep returning empty batches.
                    assert_eq!(stream.next_batch(&mut buf), 0, "{kind}");
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// `next_runs` is `next_batch` in another shape: from a
            /// checkpoint (a clone taken mid-stream) of any worker slice
            /// of any iterator, refills of `max` masks yield the same
            /// masks in runs that satisfy the run invariant, and both
            /// streams end with the same `remaining()` and the same later
            /// masks.
            #[test]
            fn runs_are_the_batch(
                kind in 0usize..3,
                d in 1u32..=3,
                max in 0usize..6,
                workers in 1usize..=4,
                w in 0usize..4,
                near_end in any::<bool>(),
                skip in 0u64..2_000,
            ) {
                let kind = SeedIterKind::ALL[kind];
                let max = [1usize, 7, 31, 32, 33, 1024][max];
                let mut stream = plan_streams(kind, d, workers).swap_remove(w % workers);
                // Only d <= 2 slices are short enough to step to their end.
                let skip = skip as u128;
                let skip = if near_end && d <= 2 {
                    stream.remaining().saturating_sub(skip)
                } else {
                    skip.min(stream.remaining())
                };
                let mut buf = vec![U256::ZERO; 1024];
                let mut left = skip;
                while left > 0 {
                    let n = stream.next_batch(&mut buf[..left.min(1024) as usize]);
                    left -= n as u128;
                }
                let (mut batches, mut running) = (stream.clone(), stream);
                let mut runs = Vec::new();
                for _ in 0..8 {
                    let n = batches.next_batch(&mut buf[..max]);
                    prop_assert_eq!(running.next_runs(&mut runs, max), n);
                    let expanded: Vec<U256> = runs.iter().flat_map(MaskRun::masks).collect();
                    prop_assert_eq!(&expanded[..], &buf[..n]);
                    for run in &runs {
                        let span = run.span();
                        prop_assert!(!span.is_empty());
                        prop_assert!(span.end <= run.base().trailing_zeros(), "{:?}", run);
                        prop_assert_eq!(run.base().count_ones() + 1, d);
                    }
                    prop_assert_eq!(batches.remaining(), running.remaining());
                    if n == 0 {
                        break;
                    }
                }
                let later: Vec<U256> = batches.take(100).collect();
                prop_assert_eq!(running.take(100).collect::<Vec<_>>(), later);
            }
        }
    }

    #[test]
    fn single_worker_stream_is_everything() {
        let mut s = plan_streams(SeedIterKind::Alg515, 1, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].by_ref().count(), 256);
    }
}
