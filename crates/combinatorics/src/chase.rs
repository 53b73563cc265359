//! Chase's Algorithm 382 ("TWIDDLE", CACM 1970) — the winning seed
//! iterator of the paper (§3.2.1, Table 4).
//!
//! Chase's sequence is a combinatorial Gray code: consecutive combinations
//! differ by moving a single element (two mask bits change). The successor
//! step is a few pointer updates — far cheaper than Algorithm 515's
//! per-index unranking or Gosper's wide-word arithmetic — but the sequence
//! is inherently sequential.
//!
//! The paper parallelizes it exactly as [`ChaseTable`] does here: walk the
//! sequence once, snapshot the generator state at regular intervals, and
//! hand each worker a snapshot to resume from. The snapshot table depends
//! only on `d` (masks are XOR-applied to any client's seed), so it is
//! built once and reused across authentications ([`ChaseTable::shared`]);
//! the paper excludes this one-time cost from its timings and so do we.
//!
//! This implementation follows Chase's published algorithm via the classic
//! `twiddle` formulation, word-parallel. Twiddle keeps a workspace
//! `p[0..=n+1]` whose interior entries it only ever tests for sign
//! (`> 0`, `== 0`, `== -1`); positive values are copied but never
//! compared, and `p[0] = n+1`, `p[n+1] = -2` are constant sentinels. So
//! the whole state is two 256-bit maps over `p[1..=n]`: "positive" —
//! which is exactly the current combination mask — and "zero" (anything
//! else is `-1`). Every scan of the workspace becomes a `trailing_zeros`
//! over at most four words, every `-1` fill a masked word store, and the
//! state is a fixed-size [`Copy`] value, so snapshots and checkpoints cost
//! a 72-byte copy.
//!
//! [`ChaseStream::next_runs`] hands the dominant step over in bulk. About
//! 97% of steps at `d = 3` over 256 positions move the lowest element `j`
//! up one place into a position that is neither in the mask nor zero, so
//! a run of them is found with one `trailing_zeros` over `mask | zero`
//! above `j` (capped at `n`). The run's masks are `base | 1 << q` for
//! consecutive `q` — one [`MaskRun`], 43 masks long on average at
//! `d = 3` — and the state jumps over the whole run with one range-OR on
//! the zero map and one move of the mask bit, with no per-mask
//! variable-index store that the next mask would have to reload. Any
//! other step yields a one-mask run. The search loop passes the runs
//! straight to the hash prescreen, which builds the candidates in
//! registers; [`ChaseStream::next_batch`] writes the same masks out one by
//! one (Table 4's iterator rate). A run never steps past a range's last
//! mask, so checkpoints and [`ChaseTable`] snapshots are the same as
//! stepping one mask at a time.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::binomial::binomial;
use rbc_bits::{MaskRun, U256};

/// Bit maps over the 256 positions; bit `q` describes twiddle's `p[q+1]`.
type Words = [u64; 4];

/// The bits of word `k` at positions `from` and up: none in the words
/// below `from / 64`, all in the words above it.
#[inline(always)]
fn from_mask(from: usize, k: usize) -> u64 {
    u64::MAX.checked_shl(from.saturating_sub(64 * k) as u32).unwrap_or(0)
}

/// Index of the first set bit of `w ^ flip` at or after `from` (bits past
/// 255 read as zero), or 256 when there is none. `flip = !0` finds the
/// first clear bit of `w` instead.
#[inline(always)]
fn first_from(w: &Words, flip: u64, from: usize) -> usize {
    let mut k = from / 64;
    if k >= 4 {
        return 256;
    }
    let mut word = (w[k] ^ flip) & (u64::MAX << (from % 64));
    loop {
        if word != 0 {
            return k * 64 + word.trailing_zeros() as usize;
        }
        k += 1;
        if k == 4 {
            return 256;
        }
        word = w[k] ^ flip;
    }
}

/// Clears bits `lo..hi` of `w`.
#[inline(always)]
fn clear_range(w: &mut Words, lo: usize, hi: usize) {
    for (k, word) in w.iter_mut().enumerate() {
        *word &= !(from_mask(lo, k) & !from_mask(hi, k));
    }
}

#[inline(always)]
fn bit(w: &Words, q: usize) -> bool {
    (w[q / 64] >> (q % 64)) & 1 == 1
}

#[inline(always)]
fn flip(w: &mut Words, q: usize) {
    w[q / 64] ^= 1 << (q % 64);
}

/// Generator state for Chase's sequence of `m`-combinations of `n` items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseState {
    /// Twiddle's `p[q+1] > 0` — the current combination.
    mask: Words,
    /// Twiddle's `p[q+1] == 0`.
    zero: Words,
    n: u16,
    exhausted: bool,
}

impl ChaseState {
    /// Initializes the sequence for `m` out of `n` positions (`n ≤ 256`).
    /// The initial combination is the top `m` positions
    /// `{n-m, …, n-1}`, per the algorithm's canonical start.
    pub fn new(n: u16, m: u16) -> Self {
        assert!(n <= 256, "at most 256 positions");
        assert!(m <= n, "m must be at most n");
        let top = (n - m) as usize;
        // For m = 0 twiddle also sets `p[1] = 1`, but that state only
        // ever reaches its exhaustion step, which the empty mask takes.
        ChaseState {
            mask: U256::from_set_bits(top..n as usize).limbs(),
            zero: U256::from_set_bits(0..top).limbs(),
            n,
            exhausted: false,
        }
    }

    /// The current combination as a bit mask.
    #[inline]
    pub fn mask(&self) -> U256 {
        U256::from_limbs(self.mask)
    }

    /// Number of positions the sequence draws from.
    pub fn universe(&self) -> u16 {
        self.n
    }

    /// Whether the sequence has been fully enumerated.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Advances to the next combination. Returns `false` when the sequence
    /// is exhausted (the current mask is then no longer meaningful).
    ///
    /// Exactly two mask bits change on every successful step: one position
    /// enters the combination and one leaves. Comments name twiddle's
    /// `p[]` entries by their mask position, one less than twiddle's index.
    #[inline]
    pub fn advance(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        // The first positive entry; none only for m = 0, whose single
        // combination has been produced.
        let j = first_from(&self.mask, 0, 0);
        if j == 256 {
            self.exhausted = true;
            return false;
        }
        let n = self.n as usize;
        let (set_pos, clear_pos);
        if j > 0 && bit(&self.zero, j - 1) {
            // p[j-1] == 0: p[1..j] = -1, p[j] = 0, p[0] = 1.
            clear_range(&mut self.zero, 0, j);
            flip(&mut self.zero, j);
            (set_pos, clear_pos) = (0, j);
        } else {
            if j > 0 {
                // p[j-1] = 0 (it was -1).
                flip(&mut self.zero, j - 1);
            }
            // Twiddle's most common step by far (~97% of them at d = 3
            // over 256 positions): a positive run of one at j followed by
            // a -1, so the lowest element moves up one place without
            // either scan below.
            let up = j + 1;
            if up < n && !bit(&self.mask, up) && !bit(&self.zero, up) {
                flip(&mut self.mask, j);
                flip(&mut self.mask, up);
                return true;
            }
            // The first non-positive entry past the positive run at j,
            // and the first non-zero one from there; the zeros between
            // become -1.
            let j = first_from(&self.mask, !0, j);
            let i = first_from(&self.zero, !0, j);
            clear_range(&mut self.zero, j, i);
            if i == n {
                // Reached the `p[n] = -2` sentinel.
                self.exhausted = true;
                return false;
            }
            if bit(&self.mask, i) {
                // p[i] > 0: p[j] = p[i], p[i] = 0.
                flip(&mut self.zero, i);
                (set_pos, clear_pos) = (j, i);
            } else {
                // p[i] == -1: p[i] = p[j-1], p[j-1] = -1.
                (set_pos, clear_pos) = (i, j - 1);
            }
        }

        debug_assert!(!bit(&self.mask, set_pos), "set position already present");
        debug_assert!(bit(&self.mask, clear_pos), "clear position absent");
        flip(&mut self.mask, set_pos);
        flip(&mut self.mask, clear_pos);
        true
    }

    /// How many of the dominant steps [`ChaseState::advance`] would take
    /// in a row from here: the lowest element `j` moves up one place as
    /// long as the position above it is neither in the mask nor zero and
    /// below `n`. 0 when the next step is any other kind (or there is no
    /// next step).
    #[inline(always)]
    fn run_len(&self) -> usize {
        let j = first_from(&self.mask, 0, 0);
        let n = self.n as usize;
        if self.exhausted || j >= n || (j > 0 && bit(&self.zero, j - 1)) {
            return 0;
        }
        let taken = [
            self.mask[0] | self.zero[0],
            self.mask[1] | self.zero[1],
            self.mask[2] | self.zero[2],
            self.mask[3] | self.zero[3],
        ];
        first_from(&taken, 0, j + 1).min(n) - (j + 1)
    }

    /// Takes `steps` dominant steps at once (`1 ≤ steps ≤ run_len()`,
    /// `j` the lowest element): it moves to `j + steps`, and the position
    /// below each step's start becomes zero.
    #[inline(always)]
    fn skip_run(&mut self, j: usize, steps: usize) {
        let (lo, hi) = (j.saturating_sub(1), j + steps - 1);
        for (k, word) in self.zero.iter_mut().enumerate() {
            *word |= from_mask(lo, k) & !from_mask(hi, k);
        }
        flip(&mut self.mask, j);
        flip(&mut self.mask, j + steps);
    }
}

/// A bounded stream over a contiguous run of Chase's sequence. A copy of
/// the stream is a complete resume point: it yields exactly the masks the
/// stream has not yet produced — no gaps, no duplicates — which is what
/// lets a supervisor re-dispatch only the unswept remainder of a failed
/// shard.
#[derive(Clone, Debug)]
pub struct ChaseStream {
    state: ChaseState,
    remaining: u128,
}

impl ChaseStream {
    /// Streams the entire sequence of weight-`d` masks over 256 positions.
    pub fn new_full(d: u32) -> Self {
        ChaseStream { state: ChaseState::new(256, d as u16), remaining: binomial(256, d) }
    }

    /// Resumes from a snapshot, limited to `count` masks.
    pub fn from_snapshot(state: ChaseState, count: u128) -> Self {
        ChaseStream { state, remaining: count }
    }

    /// Number of masks left in the stream.
    pub fn remaining(&self) -> u128 {
        self.remaining
    }

    /// Produces the next mask: a one-mask [`ChaseStream::next_batch`].
    #[inline]
    pub fn next_mask(&mut self) -> Option<U256> {
        let mut one = [U256::ZERO];
        (self.next_batch(&mut one) == 1).then_some(one[0])
    }

    /// Fills `out` from the front with the next masks and returns how many
    /// were written. Fewer than `out.len()` only when the stream runs out
    /// (then 0 forever after).
    #[inline]
    pub fn next_batch(&mut self, out: &mut [U256]) -> usize {
        let mut n = 0;
        self.emit(out.len(), |run| {
            let len = run.span().len();
            for (k, slot) in (0..).zip(&mut out[n..n + len]) {
                *slot = run.mask(k);
            }
            n += len;
        })
    }

    /// Clears `runs` and fills it with the masks a `max`-slot
    /// [`ChaseStream::next_batch`] would write, in the same order, as runs
    /// of the dominant step (see the module docs); returns how many masks
    /// they hold. The stream ends in the same state as after that batch.
    #[inline]
    pub fn next_runs(&mut self, runs: &mut Vec<MaskRun>, max: usize) -> usize {
        runs.clear();
        self.emit(max, |run| runs.push(run))
    }

    /// Hands the next at most `max` masks to `sink` as runs and returns
    /// how many masks it handed over.
    #[inline(always)]
    fn emit(&mut self, max: usize, mut sink: impl FnMut(MaskRun)) -> usize {
        let want = usize::try_from(self.remaining).map_or(max, |r| r.min(max));
        // The range ends inside this batch: the generator stops on its
        // last mask instead of stepping past it.
        let ends_range = self.remaining == want as u128;
        let mut n = 0;
        while n < want {
            let run = self.state.run_len();
            if run == 0 {
                sink(MaskRun::single(self.state.mask()));
                n += 1;
                if (n < want || !ends_range) && !self.state.advance() {
                    // The caller asked for more masks than the sequence holds.
                    self.remaining = 0;
                    return n;
                }
                continue;
            }
            // The current mask and the `run` masks after it differ only in
            // where the lowest element sits: q = j, j + 1, ..., j + run.
            let j = first_from(&self.state.mask, 0, 0);
            let k = (run + 1).min(want - n);
            let mut base = self.state.mask;
            flip(&mut base, j);
            sink(MaskRun::new(U256::from_limbs(base), j as u32..(j + k) as u32));
            n += k;
            // Step past the last mask handed over unless it ends the
            // range; past the run's end that takes one general step.
            let steps = if n == want && ends_range { k - 1 } else { k };
            if steps > 0 {
                self.state.skip_run(j, steps.min(run));
            }
            if steps > run && !self.state.advance() {
                self.remaining = 0;
                return n;
            }
        }
        self.remaining -= want as u128;
        want
    }
}

impl Iterator for ChaseStream {
    type Item = U256;

    fn next(&mut self) -> Option<U256> {
        self.next_mask()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, usize::try_from(self.remaining).ok())
    }
}

/// Precomputed snapshot table: `workers` evenly spaced resume points into
/// the weight-`d` Chase sequence (§3.2.1's "array of saved states").
#[derive(Clone, Debug)]
pub struct ChaseTable {
    snapshots: Vec<ChaseState>,
    /// Masks covered by each snapshot: `counts[i]` for worker `i`.
    counts: Vec<u128>,
    d: u32,
}

impl ChaseTable {
    /// Walks the sequence once, saving a state every `total/workers` masks
    /// (earlier workers take the remainder, so loads differ by at most 1 —
    /// "each state is evenly spread … so that threads have equal
    /// workloads").
    ///
    /// Cost: one full sequential enumeration of `C(256, d)` states. Build
    /// it once per `d` and reuse across clients — [`ChaseTable::shared`]
    /// does that for the whole process.
    pub fn build(d: u32, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let total = binomial(256, d);
        let workers_u = workers as u128;
        let mut snapshots = Vec::with_capacity(workers);
        let mut counts = Vec::with_capacity(workers);
        let mut st = ChaseState::new(256, d as u16);
        let mut consumed: u128 = 0;
        for w in 0..workers_u {
            let start = total * w / workers_u;
            let end = total * (w + 1) / workers_u;
            if start >= total || start == end {
                counts.push(0);
                snapshots.push(st);
                continue;
            }
            while consumed < start {
                let ok = st.advance();
                debug_assert!(ok, "sequence exhausted prematurely");
                consumed += 1;
            }
            snapshots.push(st);
            counts.push(end - start);
        }
        ChaseTable { snapshots, counts, d }
    }

    /// The process-wide table for `(d, workers)`: built by the first
    /// caller, then shared by every engine, pool and planner that asks
    /// for the same key — the paper's table "built once and reused
    /// across authentications".
    pub fn shared(d: u32, workers: usize) -> Arc<ChaseTable> {
        shared_tables()
            .entry((d, workers))
            .or_insert_with(|| Arc::new(ChaseTable::build(d, workers)))
            .clone()
    }

    /// The process-wide table for `(d, workers)` if [`ChaseTable::shared`]
    /// has built it, without building it.
    pub fn cached(d: u32, workers: usize) -> Option<Arc<ChaseTable>> {
        shared_tables().get(&(d, workers)).cloned()
    }

    /// Number of workers the table was built for.
    pub fn workers(&self) -> usize {
        self.snapshots.len()
    }

    /// The Hamming distance this table enumerates.
    pub fn distance(&self) -> u32 {
        self.d
    }

    /// Number of masks worker `w` owns.
    pub fn count(&self, w: usize) -> u128 {
        self.counts[w]
    }

    /// A resumable stream for worker `w`.
    pub fn stream(&self, w: usize) -> ChaseStream {
        ChaseStream::from_snapshot(self.snapshots[w], self.counts[w])
    }
}

/// The cache behind [`ChaseTable::shared`], one table per `(d, workers)`.
type Tables = HashMap<(u32, usize), Arc<ChaseTable>>;

fn shared_tables() -> MutexGuard<'static, Tables> {
    static TABLES: OnceLock<Mutex<Tables>> = OnceLock::new();
    // A build that panicked inserted nothing, so the map is intact.
    TABLES.get_or_init(Default::default).lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Chase's twiddle with its full `i32` workspace, as published — the
    /// reference model the word-parallel [`ChaseState`] must match step
    /// for step.
    struct Twiddle {
        p: Vec<i32>,
        mask: U256,
        exhausted: bool,
    }

    impl Twiddle {
        fn new(n: u16, m: u16) -> Self {
            let (n_us, m_i, n_i) = (n as usize, m as i32, n as i32);
            let mut p = vec![0i32; n_us + 2];
            p[0] = n_i + 1;
            let start = n_us - m as usize + 1;
            for (i, pi) in p.iter_mut().enumerate().take(n_us + 1).skip(start) {
                *pi = i as i32 + m_i - n_i;
            }
            p[n_us + 1] = -2;
            if m == 0 {
                p[1] = 1;
            }
            let mask = U256::from_set_bits(n_us - m as usize..n_us);
            Twiddle { p, mask, exhausted: false }
        }

        fn advance(&mut self) -> bool {
            if self.exhausted {
                return false;
            }
            let p = &mut self.p;
            let set_pos;
            let clear_pos;

            let mut j = 1usize;
            while p[j] <= 0 {
                j += 1;
            }
            if p[j - 1] == 0 {
                for i in (2..j).rev() {
                    p[i] = -1;
                }
                p[j] = 0;
                p[1] = 1;
                set_pos = 0;
                clear_pos = j - 1;
            } else {
                if j > 1 {
                    p[j - 1] = 0;
                }
                loop {
                    j += 1;
                    if p[j] <= 0 {
                        break;
                    }
                }
                let k = j - 1;
                let mut i = j;
                while p[i] == 0 {
                    p[i] = -1;
                    i += 1;
                }
                if p[i] == -1 {
                    p[i] = p[k];
                    set_pos = i - 1;
                    clear_pos = k - 1;
                    p[k] = -1;
                } else {
                    if i == p[0] as usize {
                        self.exhausted = true;
                        return false;
                    }
                    p[j] = p[i];
                    p[i] = 0;
                    set_pos = j - 1;
                    clear_pos = i - 1;
                }
            }
            self.mask.flip_bit_in_place(set_pos);
            self.mask.flip_bit_in_place(clear_pos);
            true
        }
    }

    /// Steps `ChaseState` and the reference in lockstep for up to `steps`
    /// advances (or to exhaustion), comparing every mask and every
    /// `advance` return value; returns the number of masks compared.
    fn assert_matches_reference(n: u16, m: u16, steps: u128) -> u128 {
        let mut fast = ChaseState::new(n, m);
        let mut reference = Twiddle::new(n, m);
        let mut masks = 1u128;
        loop {
            assert_eq!(fast.mask(), reference.mask, "({n}, {m}) mask {masks}");
            if masks > steps {
                return masks;
            }
            let more = reference.advance();
            assert_eq!(fast.advance(), more, "({n}, {m}) advance after mask {masks}");
            if !more {
                assert!(fast.is_exhausted());
                assert!(!fast.advance(), "exhaustion latches");
                return masks;
            }
            masks += 1;
        }
    }

    /// Refills a stream over `(start, count)` in batches of `batch` and
    /// checks it against stepping a copy of `start` by hand: the same
    /// masks in the same order, and after every full refill the same
    /// generator state — the next mask's, never one past the range.
    fn assert_batches_match_stepping(start: ChaseState, count: u128, batch: usize) {
        let mut stream = ChaseStream::from_snapshot(start, count);
        let mut hand = start;
        let (mut emitted, mut live) = (0u128, count > 0);
        let mut buf = vec![U256::ZERO; batch];
        loop {
            let n = stream.next_batch(&mut buf);
            for mask in &buf[..n] {
                assert!(live, "mask past the range (count={count}, batch={batch})");
                assert_eq!(*mask, hand.mask(), "mask {emitted} (count={count}, batch={batch})");
                emitted += 1;
                live = emitted < count && hand.advance();
            }
            if n < batch {
                assert!(!live, "short refill mid-range (count={count}, batch={batch})");
                break;
            }
            assert_eq!(stream.state, hand, "state after {emitted} (batch={batch})");
        }
        assert_eq!(stream.state, hand);
        assert_eq!(stream.remaining(), 0);
    }

    #[test]
    fn run_emission_matches_stepping_over_full_sequences() {
        for d in 0..=3u16 {
            for batch in [1usize, 7, 16, 33, 1024] {
                assert_batches_match_stepping(
                    ChaseState::new(256, d),
                    binomial(256, d as u32),
                    batch,
                );
            }
        }
    }

    #[test]
    fn full_256_sequences_match_the_reference_twiddle() {
        for d in 1..=3u16 {
            let masks = assert_matches_reference(256, d, u128::MAX);
            assert_eq!(masks, binomial(256, d as u32), "d={d}");
        }
    }

    #[test]
    fn shared_tables_are_built_once_per_key() {
        let a = ChaseTable::shared(1, 3);
        let b = ChaseTable::shared(1, 3);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &ChaseTable::cached(1, 3).unwrap()));
        assert!(!Arc::ptr_eq(&a, &ChaseTable::shared(1, 2)));
        assert_eq!((a.distance(), a.workers()), (1, 3));
    }

    #[test]
    fn next_batch_stops_exactly_at_every_boundary() {
        // Ranges ending mid-sequence, at the sequence's end and past it,
        // with batches that divide them, straddle them and exceed them.
        for (state, count) in [
            (ChaseState::new(10, 3), 120),
            (ChaseState::new(10, 3), 50),
            (ChaseState::new(10, 3), 500),
            (ChaseState::new(6, 0), 1),
        ] {
            // The range stepped by hand: the generator never advances
            // past the range's last mask.
            let mut last = state;
            let mut expect = vec![last.mask()];
            while (expect.len() as u128) < count && last.advance() {
                expect.push(last.mask());
            }
            for batch in [1usize, 7, 50, 120, 121, 1000] {
                let mut stream = ChaseStream::from_snapshot(state, count);
                let mut buf = vec![U256::ZERO; batch];
                let mut got = Vec::new();
                loop {
                    let n = stream.next_batch(&mut buf);
                    got.extend_from_slice(&buf[..n]);
                    if n < batch {
                        break;
                    }
                    // A full refill leaves the next mask as the resume point.
                    if let Some(next) = expect.get(got.len()) {
                        assert_eq!(stream.state.mask(), *next);
                    }
                }
                assert_eq!(got, expect, "count={count}, batch={batch}");
                assert_eq!(stream.state, last, "count={count}, batch={batch}");
                assert_eq!(stream.remaining(), 0);
                assert_eq!(stream.next_batch(&mut buf), 0);
                assert_eq!(stream.next_mask(), None);
            }
        }
    }

    #[test]
    fn enumerates_exactly_c_n_m_distinct_combinations() {
        for (n, m) in [(8u16, 3u16), (10, 5), (6, 1), (6, 6), (5, 0)] {
            let mut st = ChaseState::new(n, m);
            let mut seen = HashSet::new();
            loop {
                let mask = st.mask();
                assert_eq!(mask.count_ones(), m as u32);
                assert!(mask.leading_zeros() >= 256 - n as u32, "mask within n positions");
                assert!(seen.insert(mask), "duplicate combination {mask:?}");
                if !st.advance() {
                    break;
                }
            }
            let expect = crate::binomial::binomial_checked(n as u64, m as u64).unwrap();
            assert_eq!(seen.len() as u128, expect, "C({n},{m})");
            assert!(st.is_exhausted());
        }
    }

    #[test]
    fn consecutive_masks_differ_in_exactly_two_bits() {
        let mut st = ChaseState::new(12, 4);
        let mut prev = st.mask();
        while st.advance() {
            let cur = st.mask();
            assert_eq!(prev.hamming_distance(&cur), 2);
            prev = cur;
        }
    }

    #[test]
    fn advance_after_exhaustion_keeps_returning_false() {
        let mut st = ChaseState::new(4, 2);
        while st.advance() {}
        assert!(!st.advance());
        assert!(!st.advance());
    }

    #[test]
    fn full_stream_covers_weight_two_space() {
        let masks: HashSet<U256> = ChaseStream::new_full(2).collect();
        assert_eq!(masks.len() as u128, binomial(256, 2));
        assert!(masks.iter().all(|m| m.count_ones() == 2));
    }

    #[test]
    fn stream_remaining_counts_down() {
        let mut s = ChaseStream::new_full(1);
        assert_eq!(s.remaining(), 256);
        s.next_mask();
        assert_eq!(s.remaining(), 255);
    }

    #[test]
    fn weight_zero_stream() {
        let masks: Vec<U256> = ChaseStream::new_full(0).collect();
        assert_eq!(masks, vec![U256::ZERO]);
    }

    #[test]
    fn table_partitions_are_disjoint_and_cover() {
        for workers in [1usize, 3, 7, 64] {
            let table = ChaseTable::build(2, workers);
            let mut all = HashSet::new();
            let mut total = 0u128;
            for w in 0..workers {
                let chunk: Vec<U256> = table.stream(w).collect();
                assert_eq!(chunk.len() as u128, table.count(w));
                total += chunk.len() as u128;
                for m in chunk {
                    assert!(all.insert(m), "duplicate across workers");
                }
            }
            assert_eq!(total, binomial(256, 2), "workers={workers}");
            assert_eq!(all.len() as u128, binomial(256, 2));
        }
    }

    #[test]
    fn table_loads_are_balanced() {
        let table = ChaseTable::build(2, 7);
        let counts: Vec<u128> = (0..7).map(|w| table.count(w)).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
    }

    #[test]
    fn more_workers_than_masks() {
        // d = 0 has a single mask; extra workers get empty streams.
        let table = ChaseTable::build(0, 4);
        let total: u128 = (0..4).map(|w| table.stream(w).count() as u128).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn sequence_matches_gosper_space() {
        // Same set of masks as Gosper's enumeration for d = 1.
        let chase: HashSet<U256> = ChaseStream::new_full(1).collect();
        let gosper: HashSet<U256> = crate::gosper::GosperStream::new(1).collect();
        assert_eq!(chase, gosper);
    }

    #[test]
    fn a_copy_resumes_exactly_where_the_stream_stopped() {
        let total = binomial(256, 2);
        let mut stream = ChaseStream::new_full(2);
        let mut prefix = Vec::new();
        for _ in 0..1000 {
            prefix.push(stream.next_mask().unwrap());
        }
        assert_eq!(stream.remaining(), total - 1000);
        let rest: Vec<U256> = stream.clone().collect();
        // The resumed stream continues the identical sequence.
        let mut replay = ChaseStream::new_full(2);
        let full: Vec<U256> = replay.by_ref().collect();
        assert_eq!(prefix, full[..1000]);
        assert_eq!(rest, full[1000..]);
    }

    mod properties {
        use super::*;
        use crate::binomial::binomial_checked;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The word-parallel state yields the reference twiddle's
            /// masks and `advance` results for any `(n ≤ 64, m ≤ 6)`,
            /// over the first 20 000 steps (the whole sequence when it is
            /// shorter).
            #[test]
            fn matches_the_reference_twiddle(n in 1u16..=64, m in 0u16..=6) {
                let m = m.min(n);
                let total = binomial_checked(n as u64, m as u64).unwrap();
                let masks = assert_matches_reference(n, m, 20_000);
                prop_assert_eq!(masks, total.min(20_001));
            }

            /// Run emission from any snapshot of any `(n ≤ 64, m ≤ 6)`
            /// sequence, for ranges ending mid-sequence, at its end or past
            /// it, yields the hand-stepped masks and states.
            #[test]
            fn run_emission_matches_stepping_from_any_snapshot(
                n in 1u16..=64,
                m in 0u16..=6,
                skip in 0u64..5_000,
                count in 0u64..5_000,
                batch in 1usize..=70,
            ) {
                let m = m.min(n);
                let mut start = ChaseState::new(n, m);
                for _ in 0..skip {
                    if !start.advance() {
                        break;
                    }
                }
                assert_batches_match_stepping(start, count as u128, batch);

                // One mask at a time (`next_mask`) yields the same range.
                let mut hand = start;
                let mut expect = Vec::new();
                if count > 0 {
                    expect.push(hand.mask());
                    while (expect.len() as u64) < count && hand.advance() {
                        expect.push(hand.mask());
                    }
                }
                let one_by_one: Vec<U256> = ChaseStream::from_snapshot(start, count as u128).collect();
                prop_assert_eq!(one_by_one, expect);
            }

            /// Splitting any `(n, m)` Chase range at an arbitrary
            /// checkpoint and resuming covers exactly the seed set of an
            /// uninterrupted sweep — no gaps, no duplicates.
            #[test]
            fn split_at_any_checkpoint_covers_exactly_once(
                n in 4u16..=24,
                m in 0u16..=4,
                split_frac in 0.0f64..=1.0,
            ) {
                let m = m.min(n);
                let total = binomial_checked(n as u64, m as u64).unwrap();
                let split = ((total as f64 * split_frac) as u128).min(total);

                let full: Vec<U256> = ChaseStream::from_snapshot(ChaseState::new(n, m), total).collect();
                prop_assert_eq!(full.len() as u128, total);

                let mut stream = ChaseStream::from_snapshot(ChaseState::new(n, m), total);
                let mut swept: Vec<U256> = Vec::new();
                for _ in 0..split {
                    swept.push(stream.next_mask().unwrap());
                }
                prop_assert_eq!(stream.remaining(), total - split);
                let resumed: Vec<U256> =
                    ChaseStream::from_snapshot(stream.state, stream.remaining).collect();

                // Concatenation reproduces the uninterrupted sweep
                // element-for-element: same coverage, same order, so
                // there can be neither gaps nor duplicates.
                swept.extend(resumed);
                prop_assert_eq!(swept, full);
            }
        }
    }
}
