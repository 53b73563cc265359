//! Property-based tests on the system's core invariants (proptest).

use proptest::prelude::*;
use rbc_salted::bits::MaskRun;
use rbc_salted::comb::{
    binomial, colex_rank, colex_unrank, gosper_next, lex_rank, lex_unrank, plan_streams,
    SeedIterKind,
};
use rbc_salted::core::Salt;
use rbc_salted::prelude::*;

fn arb_u256() -> impl Strategy<Value = U256> {
    (any::<[u64; 4]>()).prop_map(U256::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- rbc-bits ----

    #[test]
    fn u256_bytes_roundtrip(v in arb_u256()) {
        prop_assert_eq!(U256::from_le_bytes(&v.to_le_bytes()), v);
        prop_assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        prop_assert_eq!(U256::from_hex(&v.to_hex()).unwrap(), v);
    }

    #[test]
    fn u256_add_sub_roundtrip(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
        prop_assert_eq!(a.wrapping_sub(&b).wrapping_add(&b), a);
    }

    #[test]
    fn u256_shift_rotate_consistency(v in arb_u256(), n in 0u32..256) {
        prop_assert_eq!(v.rotate_left(n).rotate_right(n), v);
        prop_assert_eq!(v.rotate_left(n).count_ones(), v.count_ones());
        // shl then shr loses only the bits pushed off the top.
        prop_assert_eq!(v.shl(n).shr(n), v & (U256::MAX.shr(n)));
    }

    #[test]
    fn hamming_distance_is_a_metric(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        prop_assert_eq!(a.hamming_distance(&a), 0);
        prop_assert!(a.hamming_distance(&c) <= a.hamming_distance(&b) + b.hamming_distance(&c));
    }

    // ---- rbc-hash ----

    #[test]
    fn fixed_and_generic_hashers_agree(v in arb_u256()) {
        prop_assert_eq!(Sha1Fixed.digest_seed(&v), rbc_salted::hash::Sha1Generic.digest_seed(&v));
        prop_assert_eq!(Sha3Fixed.digest_seed(&v), rbc_salted::hash::Sha3Generic.digest_seed(&v));
    }

    /// The dispatcher's SHA-1 batch kernels (whatever the active tier
    /// selects, widest first, scalar tail) agree with scalar, and their
    /// prefixes with the head of the full digests.
    #[test]
    fn sha1_lane_kernels_match_scalar(raw in proptest::collection::vec(any::<[u64; 4]>(), 1..40)) {
        use rbc_salted::hash::dispatch;
        let s: Vec<U256> = raw.into_iter().map(U256::from_limbs).collect();
        let want: Vec<_> = s.iter().map(|v| Sha1Fixed.digest_seed(v)).collect();
        let (mut digests, mut prefixes) = (Vec::new(), Vec::new());
        dispatch::sha1_digest_batch(&s, &mut digests);
        prop_assert_eq!(&digests, &want);
        dispatch::sha1_prefix64_batch(&s, &mut prefixes);
        for (p, d) in prefixes.iter().zip(&want) {
            prop_assert_eq!(*p, u64::from_le_bytes(d[..8].try_into().unwrap()));
        }
    }

    /// The same for the SHA3-256 batch kernels.
    #[test]
    fn sha3_lane_kernels_match_scalar(raw in proptest::collection::vec(any::<[u64; 4]>(), 1..40)) {
        use rbc_salted::hash::dispatch;
        let s: Vec<U256> = raw.into_iter().map(U256::from_limbs).collect();
        let want: Vec<_> = s.iter().map(|v| Sha3Fixed.digest_seed(v)).collect();
        let (mut digests, mut prefixes) = (Vec::new(), Vec::new());
        dispatch::sha3_256_digest_batch(&s, &mut digests);
        prop_assert_eq!(&digests, &want);
        dispatch::sha3_256_prefix64_batch(&s, &mut prefixes);
        for (p, d) in prefixes.iter().zip(&want) {
            prop_assert_eq!(*p, u64::from_le_bytes(d[..8].try_into().unwrap()));
        }
    }

    #[test]
    fn prefix64_is_first_eight_digest_bytes(v in arb_u256()) {
        use rbc_salted::hash::{Sha1Generic, Sha256Fixed, Sha3Generic};
        fn check<H: SeedHash>(h: H, v: &U256)
        where
            H::Digest: AsRef<[u8]>,
        {
            let d = h.digest_seed(v);
            let head = u64::from_le_bytes(d.as_ref()[..8].try_into().unwrap());
            assert_eq!(h.digest_prefix64(v), head, "{}", H::NAME);
            assert_eq!(H::prefix64_of(&d), head, "{}", H::NAME);
        }
        check(Sha1Fixed, &v);
        check(Sha1Generic, &v);
        check(Sha3Fixed, &v);
        check(Sha3Generic, &v);
        check(Sha256Fixed, &v);
    }

    #[test]
    fn hash_batch_paths_match_scalar(raw in proptest::collection::vec(any::<[u64; 4]>(), 0..24) ) {
        let seeds: Vec<U256> = raw.into_iter().map(U256::from_limbs).collect();
        fn check<H: SeedHash>(h: H, seeds: &[U256]) {
            let mut digests = Vec::new();
            h.digest_batch(seeds, &mut digests);
            let want: Vec<_> = seeds.iter().map(|s| h.digest_seed(s)).collect();
            assert_eq!(digests, want, "{}", H::NAME);
            // The prescreen over the seeds as one-mask runs, against a
            // target taken from the last candidate.
            let s_init = seeds.first().copied().unwrap_or(U256::ZERO);
            let tp = seeds.last().map_or(0, |m| h.digest_prefix64(&(s_init ^ *m)));
            let runs: Vec<MaskRun> = seeds.iter().copied().map(MaskRun::single).collect();
            let mut hits = Vec::new();
            h.prefix_hits(&s_init, &runs, tp, &mut hits);
            let want: Vec<usize> = (0..seeds.len())
                .filter(|&i| h.digest_prefix64(&(s_init ^ seeds[i])) == tp)
                .collect();
            assert_eq!(hits, want, "{}", H::NAME);
        }
        check(Sha1Fixed, &seeds);
        check(Sha3Fixed, &seeds);
    }

    #[test]
    fn hash_avalanche(v in arb_u256(), bit in 0usize..256) {
        // One flipped input bit changes roughly half the digest bits.
        let a = Sha3Fixed.digest_seed(&v);
        let b = Sha3Fixed.digest_seed(&v.flip_bit(bit));
        let dist: u32 = a.iter().zip(b.iter()).map(|(x, y)| (x ^ y).count_ones()).sum();
        prop_assert!((64..=192).contains(&dist), "avalanche distance {}", dist);
    }

    // ---- rbc-comb ----

    #[test]
    fn lex_rank_roundtrip(k in 1u32..=5, frac in 0.0f64..1.0) {
        let total = binomial(256, k);
        let rank = ((total as f64 - 1.0) * frac) as u128;
        let pos = lex_unrank(256, k, rank);
        prop_assert_eq!(lex_rank(256, &pos), rank);
        prop_assert_eq!(pos.to_mask().count_ones(), k);
    }

    #[test]
    fn colex_rank_roundtrip(k in 1u32..=5, frac in 0.0f64..1.0) {
        let total = binomial(256, k);
        let rank = ((total as f64 - 1.0) * frac) as u128;
        let pos = colex_unrank(k, rank);
        prop_assert_eq!(colex_rank(&pos), rank);
    }

    #[test]
    fn gosper_successor_is_colex_increment(k in 1u32..=5, frac in 0.0f64..0.999) {
        let total = binomial(256, k);
        let rank = ((total as f64 - 2.0) * frac) as u128;
        let mask = colex_unrank(k, rank).to_mask();
        let next = gosper_next(&mask).expect("not at end");
        prop_assert_eq!(colex_rank(&rbc_salted::comb::Positions::from_mask(&next)), rank + 1);
    }

    #[test]
    fn partitioned_streams_are_disjoint_and_exact(workers in 1usize..12) {
        // d = 1 keeps the space small enough for exhaustive checking.
        for kind in SeedIterKind::ALL {
            let mut seen = std::collections::HashSet::new();
            for mut s in plan_streams(kind, 1, workers) {
                while let Some(m) = s.next_mask() {
                    prop_assert_eq!(m.count_ones(), 1);
                    prop_assert!(seen.insert(m), "duplicate from {}", kind);
                }
            }
            prop_assert_eq!(seen.len(), 256usize);
        }
    }

    // ---- rbc-core ----

    #[test]
    fn search_has_no_false_negatives_in_range(
        base in arb_u256(),
        d in 0u32..=2,
        seed_rng in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed_rng);
        let client = base.random_at_distance(d, &mut rng);
        let target = Sha3Fixed.digest_seed(&client);
        let engine = SearchEngine::new(HashDerive(Sha3Fixed), EngineConfig {
            threads: 2, ..Default::default()
        });
        let outcome = engine.search(&target, &base, 2).outcome;
        prop_assert_eq!(outcome, Outcome::Found { seed: client, distance: d });
    }

    #[test]
    fn search_found_seed_rederives_target(base in arb_u256(), seed_rng in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed_rng);
        let client = base.random_at_distance(2, &mut rng);
        let target = Sha3Fixed.digest_seed(&client);
        let engine = SearchEngine::new(HashDerive(Sha3Fixed), EngineConfig {
            threads: 4, ..Default::default()
        });
        match engine.search(&target, &base, 2).outcome {
            Outcome::Found { seed, distance } => {
                prop_assert_eq!(Sha3Fixed.digest_seed(&seed), target);
                prop_assert!(base.hamming_distance(&seed) == distance);
            }
            other => prop_assert!(false, "expected found, got {:?}", other),
        }
    }

    #[test]
    fn salt_is_deterministic_and_decorrelating(
        id in any::<u64>(),
        nonce in any::<u64>(),
        seed in arb_u256(),
    ) {
        let salt = Salt::from_enrollment(id, nonce);
        let s1 = salt.apply(&seed);
        prop_assert_eq!(s1, salt.apply(&seed));
        prop_assert_ne!(s1, seed);
        // Avalanche between salted neighbours.
        let s2 = salt.apply(&seed.flip_bit(0));
        prop_assert!(s1.hamming_distance(&s2) > 64);
    }
}

proptest! {
    // Heavier cases run fewer times.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn apu_microcode_matches_reference_hashers(seeds in proptest::collection::vec(any::<[u64; 4]>(), 1..6)) {
        use rbc_salted::apu::{apu_sha1_batch, apu_sha3_batch, ApuConfig, ApuMachine};
        let seeds: Vec<U256> = seeds.into_iter().map(U256::from_limbs).collect();
        let mut m1 = ApuMachine::new(ApuConfig::tiny(seeds.len()), 32);
        for (s, d) in seeds.iter().zip(apu_sha1_batch(&mut m1, &seeds)) {
            prop_assert_eq!(d, Sha1Fixed.digest_seed(s));
        }
        let mut m3 = ApuMachine::new(ApuConfig::tiny(seeds.len()), 64);
        for (s, d) in seeds.iter().zip(apu_sha3_batch(&mut m3, &seeds)) {
            prop_assert_eq!(d, Sha3Fixed.digest_seed(s));
        }
    }

    #[test]
    fn puf_noise_injection_hits_exact_distance(
        device_seed in any::<u64>(),
        d in 0u32..=8,
        rng_seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let reference = U256::random(&mut StdRng::seed_from_u64(device_seed));
        let readout = reference.random_at_distance(d / 2, &mut rng);
        let forced = rbc_salted::puf::force_distance(&readout, &reference, d, &mut rng);
        prop_assert_eq!(forced.hamming_distance(&reference), d);
    }
}
