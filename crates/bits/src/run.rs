//! [`MaskRun`]: consecutive masks that differ only in their lowest bit.

use core::ops::Range;

use crate::U256;

/// The masks `base | 1 << q` for `q` in a span `lo..lo + len`, in that
/// order.
///
/// Every such `q` lies below `base`'s lowest set bit, so each mask has
/// one bit more than `base` and the run's masks are distinct. This is the
/// shape of Chase's dominant step, "the lowest element moves up one
/// place": a mask generator hands a batch over as runs, and a hash kernel
/// builds each candidate `s_init ^ mask` from one per-run value and one
/// per-mask bit, without the masks ever being written out.
///
/// [`MaskRun::single`] carries any mask as a run of one, the empty mask
/// included: its span is `256..257`, where `q = 256` stands for no bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaskRun {
    base: U256,
    lo: u32,
    len: u32,
}

impl MaskRun {
    /// The run of `base | 1 << q` for `q` in `span`.
    ///
    /// Panics if `span` is empty or reaches `base`'s lowest set bit (or
    /// bit 256).
    #[inline]
    pub fn new(base: U256, span: Range<u32>) -> Self {
        assert!(
            span.start < span.end && span.end <= base.trailing_zeros(),
            "a run's bits lie below its base: {span:?} under {base:?}"
        );
        MaskRun { base, lo: span.start, len: span.end - span.start }
    }

    /// The one-mask run of `mask`: its lowest set bit moves, the rest is
    /// the base.
    #[inline]
    pub fn single(mask: U256) -> Self {
        let lo = mask.trailing_zeros();
        let base = if lo < 256 { mask.clear_bit(lo as usize) } else { mask };
        MaskRun { base, lo, len: 1 }
    }

    /// The bits every mask of the run shares.
    #[inline]
    pub fn base(&self) -> &U256 {
        &self.base
    }

    /// The moving bit's positions, one per mask.
    #[inline]
    pub fn span(&self) -> Range<u32> {
        self.lo..self.lo + self.len
    }

    /// The run's `k`-th mask (`k` below the span's length), built
    /// branch-free limb by limb.
    #[inline(always)]
    pub fn mask(&self, k: u32) -> U256 {
        debug_assert!(k < self.len);
        let q = self.lo + k;
        let (limb, bit) = (q as usize / 64, 1u64 << (q % 64));
        let base = self.base.limbs();
        U256::from_limbs(core::array::from_fn(|i| base[i] | if limb == i { bit } else { 0 }))
    }

    /// The run's masks in order.
    #[inline]
    pub fn masks(&self) -> impl Iterator<Item = U256> + '_ {
        (0..self.len).map(|k| self.mask(k))
    }

    /// Mask `i` of the batch `runs` lists, counting across runs, or
    /// `None` past its end.
    pub fn nth(runs: &[MaskRun], mut i: usize) -> Option<U256> {
        for run in runs {
            match i.checked_sub(run.len as usize) {
                Some(rest) => i = rest,
                None => return Some(run.mask(i as u32)),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_carries_any_mask() {
        for mask in [
            U256::ZERO,
            U256::ONE,
            U256::from_set_bits([3, 70, 255]),
            U256::from_set_bits([255]),
            U256::MAX,
        ] {
            let run = MaskRun::single(mask);
            assert_eq!(run.masks().collect::<Vec<_>>(), vec![mask]);
            assert!(run.span().start <= run.base().trailing_zeros());
        }
    }

    #[test]
    fn runs_list_their_masks_and_index_across_runs() {
        let runs = [
            MaskRun::new(U256::from_set_bits([200, 201]), 62..66),
            MaskRun::single(U256::from_set_bits([0, 9])),
            MaskRun::new(U256::ZERO, 250..256),
        ];
        let all: Vec<U256> = runs.iter().flat_map(MaskRun::masks).collect();
        assert_eq!(all[0], U256::from_set_bits([62, 200, 201]));
        assert_eq!(all[3], U256::from_set_bits([65, 200, 201]));
        assert_eq!(all[4], U256::from_set_bits([0, 9]));
        assert_eq!(all[10], U256::from_set_bits([255]));
        for (i, mask) in all.iter().enumerate() {
            assert_eq!(MaskRun::nth(&runs, i), Some(*mask), "mask {i}");
        }
        assert_eq!(MaskRun::nth(&runs, all.len()), None);
    }

    #[test]
    #[should_panic(expected = "a run's bits lie below its base")]
    fn a_run_may_not_reach_its_base() {
        MaskRun::new(U256::from_set_bits([40]), 30..41);
    }
}
