//! The one batched search loop, and the cost it bills.
//!
//! Algorithm 1 is one loop: derive the candidates of a mask range,
//! compare them, stop on a hit or at the threshold `T`. Two stop policies
//! run it through `sweep`: the host shard sweep ([`crate::shard`]), which
//! serves the engine's workers and the supervised pool's attempts alike,
//! and the cluster's nodes. Each refill takes a batch of masks from the
//! stream as [`MaskRun`]s ([`MaskStream::next_runs`]): runs of Chase's
//! dominant step, masks `base | 1 << q` for consecutive `q`. Hash targets
//! are prescreened on the 64-bit digest prefix with one
//! [`Derive::prefix_hits`] call per batch, whose fused kernels build the
//! candidates `s_init ^ mask` from the runs, hash them and compare the
//! prefixes in registers, returning only the indices that match; no mask
//! is written out. Only those prefix hits (p = 2⁻⁶⁴ per non-matching
//! candidate) are rebuilt as seeds and pay for a full derivation, so
//! accept/reject decisions are bit-identical to a full compare.
//! Derivations without a prefix path (cipher / PQC keygen) expand the
//! runs into candidate seeds and take full-compare batches. Stop polls
//! are paid once per batch.

use std::ops::AddAssign;

use rbc_bits::{MaskRun, U256};
use rbc_comb::MaskStream;

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

/// When a sweep stops, besides running out of masks.
pub(crate) trait SweepPolicy {
    /// `seed` derived to the target; returns whether to stop at it.
    fn hit(&mut self, seed: U256) -> bool;

    /// Called after each batch the sweep did not stop in, with the masks
    /// swept so far and `stream` positioned after the batch; returns
    /// whether to stop.
    fn poll(&mut self, stream: &MaskStream, swept: u64) -> bool;
}

/// Sweeps `stream` in refills of at most `batch` masks until it runs out
/// or `policy` stops it, and returns the masks swept and their cost.
/// Candidates are `s_init ^ mask`; each one that derives to `target`
/// goes to the policy in stream order. `telemetry`, when given, is ticked
/// once per batch.
pub(crate) fn sweep<D: Derive>(
    derive: &D,
    target: &D::Out,
    s_init: &U256,
    stream: &mut MaskStream,
    batch: usize,
    telemetry: Option<&EngineTelemetry>,
    policy: &mut impl SweepPolicy,
) -> (u64, SearchCost) {
    let target_prefix = derive.prefix64(target);
    let mut runs: Vec<MaskRun> = Vec::new();
    let mut hits: Vec<usize> = Vec::new();
    // Only the full-compare path materializes candidates.
    let mut seeds: Vec<U256> = Vec::new();
    let mut outs: Vec<D::Out> = Vec::new();
    let (mut swept, mut total) = (0u64, SearchCost::default());
    loop {
        let n = stream.next_runs(&mut runs, batch);
        if n == 0 {
            return (swept, total);
        }
        swept += n as u64;

        let mut cost = SearchCost { batches: 1, ..SearchCost::default() };
        let mut stop = false;
        if let Some(tp) = target_prefix {
            derive.prefix_hits(s_init, &runs, tp, &mut hits);
            for &i in &hits {
                let seed = *s_init ^ MaskRun::nth(&runs, i).expect("a hit lies in the batch");
                cost.prefix_hits += 1;
                if derive.derive(&seed) != *target {
                    cost.prefix_false_positives += 1;
                } else if policy.hit(seed) {
                    stop = true;
                    break;
                }
            }
        } else {
            seeds.clear();
            seeds.extend(runs.iter().flat_map(MaskRun::masks).map(|m| *s_init ^ m));
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
