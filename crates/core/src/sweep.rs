//! The one batched search loop, and the cost it bills.
//!
//! Algorithm 1 is one loop: derive the candidates of a mask range,
//! compare them, stop on a hit or at the threshold `T`. The engine's
//! workers, the checkpointable shard sweep and the cluster's nodes all run
//! it through `sweep`, and differ only in a stop policy. Each refill XORs
//! a batch of masks into candidate seeds; hash targets are prescreened on
//! the 64-bit digest prefix ([`Derive::prefix64_batch`]) and only prefix
//! hits (p = 2⁻⁶⁴ per non-matching candidate) pay for a full derivation,
//! so accept/reject decisions are bit-identical to a full compare.
//! Derivations without a prefix path (cipher / PQC keygen) take
//! full-compare batches. Stop polls are paid once per batch.

use std::ops::AddAssign;

use rbc_bits::U256;
use rbc_comb::{ChaseStream, MaskStream};

use crate::derive::Derive;
use crate::engine::EngineTelemetry;

/// What a search consumed in the batched loop, in the units per-request
/// cost receipts bill. Costs add field-wise with `+=`, so a sharded or
/// multi-threaded search bills the sum of its parts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCost {
    /// Batch refills executed.
    pub batches: u64,
    /// Candidates whose 64-bit digest prefix matched the target and so
    /// paid for a full derivation; 0 for derivations without a prefix
    /// path.
    pub prefix_hits: u64,
    /// Prefix hits whose full derivation then mismatched — the
    /// prescreen's false positives, expected ≈ `seeds · 2⁻⁶⁴`.
    pub prefix_false_positives: u64,
}

impl AddAssign for SearchCost {
    fn add_assign(&mut self, rhs: SearchCost) {
        self.batches += rhs.batches;
        self.prefix_hits += rhs.prefix_hits;
        self.prefix_false_positives += rhs.prefix_false_positives;
    }
}

/// A worker's mask range, refilled a batch at a time.
pub(crate) trait MaskSource {
    /// Fills `out` from the front; returns how many masks it wrote.
    fn next_batch(&mut self, out: &mut [U256]) -> usize;
}

impl MaskSource for MaskStream {
    fn next_batch(&mut self, out: &mut [U256]) -> usize {
        MaskStream::next_batch(self, out)
    }
}

impl MaskSource for ChaseStream {
    fn next_batch(&mut self, out: &mut [U256]) -> usize {
        ChaseStream::next_batch(self, out)
    }
}

/// When a sweep stops, besides running out of masks.
pub(crate) trait SweepPolicy<S> {
    /// `seed` derived to the target; returns whether to stop at it.
    fn hit(&mut self, seed: U256) -> bool;

    /// Called after each batch the sweep did not stop in, with the masks
    /// swept so far and `stream` positioned after the batch; returns
    /// whether to stop.
    fn poll(&mut self, stream: &S, swept: u64) -> bool;
}

/// Sweeps `stream` in refills of at most `batch` masks until it runs out
/// or `policy` stops it, and returns the masks swept and their cost.
/// Candidates are `s_init ^ mask`; each one that derives to `target`
/// goes to the policy in stream order. `telemetry`, when given, is ticked
/// once per batch.
pub(crate) fn sweep<D: Derive, S: MaskSource>(
    derive: &D,
    target: &D::Out,
    s_init: &U256,
    stream: &mut S,
    batch: usize,
    telemetry: Option<&EngineTelemetry>,
    policy: &mut impl SweepPolicy<S>,
) -> (u64, SearchCost) {
    let target_prefix = derive.prefix64(target);
    let mut masks = vec![U256::ZERO; batch];
    let mut seeds: Vec<U256> = Vec::with_capacity(batch);
    let mut outs: Vec<D::Out> = Vec::with_capacity(batch);
    let mut prefixes: Vec<u64> = Vec::with_capacity(batch);
    let (mut swept, mut total) = (0u64, SearchCost::default());
    loop {
        let n = stream.next_batch(&mut masks);
        if n == 0 {
            return (swept, total);
        }
        seeds.clear();
        seeds.extend(masks[..n].iter().map(|m| *s_init ^ *m));
        swept += n as u64;

        let mut cost = SearchCost { batches: 1, ..SearchCost::default() };
        let mut stop = false;
        if let Some(tp) = target_prefix {
            derive.prefix64_batch(&seeds, &mut prefixes);
            for (seed, _) in seeds.iter().zip(&prefixes).filter(|&(_, &p)| p == tp) {
                cost.prefix_hits += 1;
                if derive.derive(seed) != *target {
                    cost.prefix_false_positives += 1;
                } else if policy.hit(*seed) {
                    stop = true;
                    break;
                }
            }
        } else {
            derive.derive_batch(&seeds, &mut outs);
            stop = seeds.iter().zip(&outs).any(|(seed, out)| *out == *target && policy.hit(*seed));
        }
        if let Some(t) = telemetry {
            t.batches.inc();
            t.batch_fill.add(n as u64);
            t.seeds_scanned.add(n as u64);
            if cost.prefix_hits > 0 {
                t.prefix_hits.add(cost.prefix_hits);
                t.prefix_false_positives.add(cost.prefix_false_positives);
            }
        }
        total += cost;
        if stop || policy.poll(stream, swept) {
            return (swept, total);
        }
    }
}
