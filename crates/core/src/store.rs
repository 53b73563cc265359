//! The CA's encrypted PUF-image database.
//!
//! "PUF images for all clients are stored in an encrypted database" (§2.1).
//! A client holds one sealed record per enrolled PUF address. Each record —
//! the PUF image plus the client's shared salt — is encoded in the fixed
//! binary layout below, encrypted with ChaCha20 under its own nonce
//! (counter ‖ client id, so identical images never produce identical
//! ciphertexts) and authenticated with HMAC-SHA256 over
//! `nonce ‖ ciphertext` (encrypt-then-MAC). The cipher and MAC keys are
//! derived from the CA's database key with distinct labels. An
//! authentication unseals only the record it challenges; a record whose
//! tag does not verify, or whose plaintext does not decode, fails closed.
//!
//! Plaintext layout (all integers little-endian):
//!
//! | field             | encoding                                      |
//! |-------------------|-----------------------------------------------|
//! | magic / version   | the 4 bytes `RBE1`                            |
//! | `address`         | `u64`                                         |
//! | `reference`       | 4 × `u64` limbs, least significant first      |
//! | salt `rotation`   | `u32`                                         |
//! | salt `key`        | 4 × `u64` limbs                               |
//! | `selected`        | `u32` count, then `u32` per cell              |
//! | `error_estimates` | `u32` count, then `f64::to_bits` as `u64`     |
//! | `ternary`         | `u32` count, then one byte per cell (0, 1, 2) |
//!
//! Sealed record: `nonce (12) ‖ ciphertext ‖ tag (32)`.

use std::collections::HashMap;

use rbc_bits::U256;
use rbc_ciphers::chacha20_xor;
use rbc_hash::hmac::{hmac_sha256, verify_hmac_sha256};
use rbc_puf::{PufImage, TernaryState};

use crate::protocol::ClientId;
use crate::salt::Salt;

/// Magic/version word opening every record plaintext.
const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"RBE1");

const NONCE_LEN: usize = 12;
const TAG_LEN: usize = 32;

/// One sealed enrollment record: `nonce ‖ ciphertext ‖ tag`.
#[derive(Clone, Debug)]
struct SealedRecord(Vec<u8>);

/// Plaintext payload of a record.
#[derive(Clone, Debug)]
pub struct EnrollmentRecord {
    /// The server-side PUF image (reference seed, cell selection, ternary
    /// map).
    pub image: PufImage,
    /// The salt shared with the client.
    pub salt: Salt,
}

impl EnrollmentRecord {
    /// Encodes the record in the fixed binary layout of the module docs.
    fn encode(&self) -> Vec<u8> {
        let image = &self.image;
        let mut out = Vec::with_capacity(
            92 + 4 * image.selected.len() + 8 * image.error_estimates.len() + image.ternary.len(),
        );
        out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        out.extend_from_slice(&(image.address as u64).to_le_bytes());
        put_u256(&mut out, &image.reference);
        out.extend_from_slice(&self.salt.rotation.to_le_bytes());
        put_u256(&mut out, &self.salt.key);
        put_count(&mut out, image.selected.len());
        for cell in &image.selected {
            out.extend_from_slice(&cell.to_le_bytes());
        }
        put_count(&mut out, image.error_estimates.len());
        for p in &image.error_estimates {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        put_count(&mut out, image.ternary.len());
        out.extend(image.ternary.iter().map(|t| match t {
            TernaryState::StableZero => 0u8,
            TernaryState::StableOne => 1,
            TernaryState::Fuzzy => 2,
        }));
        out
    }

    /// Decodes a plaintext written by [`EnrollmentRecord::encode`].
    /// Returns `None` on a bad magic, a bad ternary byte, a short buffer
    /// or trailing bytes; every count is checked against the bytes left
    /// before anything is allocated.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader(bytes);
        if r.u32()? != RECORD_MAGIC {
            return None;
        }
        let address = usize::try_from(r.u64()?).ok()?;
        let reference = r.u256()?;
        let salt = Salt { rotation: r.u32()?, key: r.u256()? };
        let selected = r.vec(|b: [u8; 4]| Some(u32::from_le_bytes(b)))?;
        let error_estimates = r.vec(|b: [u8; 8]| Some(f64::from_bits(u64::from_le_bytes(b))))?;
        let ternary = r.vec(|[b]: [u8; 1]| match b {
            0 => Some(TernaryState::StableZero),
            1 => Some(TernaryState::StableOne),
            2 => Some(TernaryState::Fuzzy),
            _ => None,
        })?;
        if !r.0.is_empty() {
            return None;
        }
        let image = PufImage { address, selected, reference, error_estimates, ternary };
        Some(EnrollmentRecord { image, salt })
    }
}

fn put_count(out: &mut Vec<u8>, count: usize) {
    let count = u32::try_from(count).expect("an image field holds fewer than 2^32 cells");
    out.extend_from_slice(&count.to_le_bytes());
}

fn put_u256(out: &mut Vec<u8>, v: &U256) {
    for limb in v.limbs() {
        out.extend_from_slice(&limb.to_le_bytes());
    }
}

/// Cursor over a record plaintext; every read fails on a short buffer.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    fn u256(&mut self) -> Option<U256> {
        Some(U256::from_limbs([self.u64()?, self.u64()?, self.u64()?, self.u64()?]))
    }

    /// A `u32` count followed by that many `N`-byte elements. The count is
    /// checked against the remaining input before the `Vec` is allocated.
    fn vec<T, const N: usize>(&mut self, elem: impl Fn([u8; N]) -> Option<T>) -> Option<Vec<T>> {
        let count = self.u32()? as usize;
        if count > self.0.len() / N {
            return None;
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(elem(self.take()?)?);
        }
        Some(out)
    }
}

/// Encrypted-at-rest store of enrollment records. A client may hold
/// several records — one per enrolled PUF address — so the CA can issue a
/// *different* address after a timeout ("the CA simply sends the client a
/// new PUF address and the process is restarted").
pub struct SealedImageStore {
    cipher_key: [u8; 32],
    mac_key: [u8; 32],
    records: HashMap<ClientId, Vec<SealedRecord>>,
    nonce_counter: u64,
}

impl SealedImageStore {
    /// Creates a store sealed under `key`: the ChaCha20 and HMAC keys are
    /// derived from it with distinct labels.
    pub fn new(key: [u8; 32]) -> Self {
        SealedImageStore {
            cipher_key: hmac_sha256(&key, b"rbc-store/chacha20"),
            mac_key: hmac_sha256(&key, b"rbc-store/hmac-sha256"),
            records: HashMap::new(),
            nonce_counter: 0,
        }
    }

    /// Number of enrolled clients.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether a client is enrolled.
    pub fn contains(&self, id: ClientId) -> bool {
        self.records.contains_key(&id)
    }

    fn seal(&mut self, id: ClientId, record: &EnrollmentRecord) -> SealedRecord {
        self.nonce_counter += 1;
        let plain = record.encode();
        let mut sealed = Vec::with_capacity(NONCE_LEN + plain.len() + TAG_LEN);
        sealed.extend_from_slice(&self.nonce_counter.to_le_bytes());
        sealed.extend_from_slice(&(id as u32).to_le_bytes());
        let nonce: [u8; NONCE_LEN] = sealed[..].try_into().expect("nonce is 12 bytes");
        sealed.extend_from_slice(&plain);
        chacha20_xor(&self.cipher_key, 0, &nonce, &mut sealed[NONCE_LEN..]);
        let tag = hmac_sha256(&self.mac_key, &sealed);
        sealed.extend_from_slice(&tag);
        SealedRecord(sealed)
    }

    /// Seals and stores a single record, replacing any previous set.
    pub fn insert(&mut self, id: ClientId, record: &EnrollmentRecord) {
        let sealed = self.seal(id, record);
        self.records.insert(id, vec![sealed]);
    }

    /// Seals and appends a record (an additional enrolled address) for a
    /// client; the earlier records are left as they are.
    pub fn append(&mut self, id: ClientId, record: &EnrollmentRecord) {
        let sealed = self.seal(id, record);
        self.records.entry(id).or_default().push(sealed);
    }

    /// Unseals the client's record at `index`, and only that one. `None`
    /// when there is no such record, or when it fails the tag check or
    /// does not decode.
    pub fn get_at(&self, id: ClientId, index: usize) -> Option<EnrollmentRecord> {
        let sealed = &self.records.get(&id)?.get(index)?.0;
        let body_end = sealed.len().checked_sub(TAG_LEN).filter(|&end| end >= NONCE_LEN)?;
        if !verify_hmac_sha256(&self.mac_key, &sealed[..body_end], &sealed[body_end..]) {
            return None;
        }
        let nonce: [u8; NONCE_LEN] = sealed[..NONCE_LEN].try_into().expect("nonce is 12 bytes");
        let mut plain = sealed[NONCE_LEN..body_end].to_vec();
        chacha20_xor(&self.cipher_key, 0, &nonce, &mut plain);
        EnrollmentRecord::decode(&plain)
    }

    /// Number of enrolled addresses for a client (no decryption).
    pub fn record_count(&self, id: ClientId) -> usize {
        self.records.get(&id).map_or(0, Vec::len)
    }

    /// Removes a client's records.
    pub fn remove(&mut self, id: ClientId) -> bool {
        self.records.remove(&id).is_some()
    }

    /// Raw sealed bytes (`nonce ‖ ciphertext ‖ tag`) of one record, for
    /// at-rest inspection in tests.
    pub fn sealed_bytes(&self, id: ClientId, index: usize) -> Option<&[u8]> {
        self.records.get(&id)?.get(index).map(|r| r.0.as_slice())
    }

    /// Mutable sealed bytes of one record, for tampering in tests.
    #[cfg(test)]
    pub(crate) fn sealed_bytes_mut(&mut self, id: ClientId, index: usize) -> Option<&mut [u8]> {
        self.records.get_mut(&id)?.get_mut(index).map(|r| r.0.as_mut_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rbc_puf::{enroll, EnrollmentConfig, ModelPuf};

    fn sample_record() -> EnrollmentRecord {
        let device = ModelPuf::noiseless(1024, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let image = enroll(&device, 0, &EnrollmentConfig::default(), &mut rng).unwrap();
        EnrollmentRecord { image, salt: Salt::from_enrollment(1, 1) }
    }

    /// Field-by-field equality; `f64`s compare by bit pattern so NaNs and
    /// signed zeros must round-trip exactly too.
    fn assert_same(got: &EnrollmentRecord, want: &EnrollmentRecord) {
        assert_eq!(got.image.address, want.image.address);
        assert_eq!(got.image.reference, want.image.reference);
        assert_eq!(got.image.selected, want.image.selected);
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.image.error_estimates), bits(&want.image.error_estimates));
        assert_eq!(got.image.ternary, want.image.ternary);
        assert_eq!(got.salt, want.salt);
    }

    #[test]
    fn roundtrip() {
        let mut store = SealedImageStore::new([9u8; 32]);
        let rec = sample_record();
        store.insert(1, &rec);
        assert_same(&store.get_at(1, 0).unwrap(), &rec);
        assert!(store.get_at(1, 1).is_none());
        assert!(store.get_at(2, 0).is_none());
        assert_eq!(store.len(), 1);
        assert!(store.contains(1));
        assert!(!store.contains(2));
    }

    #[test]
    fn ciphertext_does_not_leak_plaintext() {
        let mut store = SealedImageStore::new([1u8; 32]);
        let rec = sample_record();
        store.insert(7, &rec);
        let sealed = store.sealed_bytes(7, 0).unwrap();
        let plain = rec.encode();
        assert_eq!(sealed.len(), NONCE_LEN + plain.len() + TAG_LEN);
        assert_ne!(&sealed[NONCE_LEN..NONCE_LEN + plain.len()], &plain[..]);
        // The plaintext opens with the magic word and carries the
        // reference limbs; the ciphertext must show neither.
        for needle in [&plain[..4], &plain[12..44]] {
            assert!(!sealed.windows(needle.len()).any(|w| w == needle));
        }
    }

    #[test]
    fn same_record_twice_different_ciphertexts() {
        let mut store = SealedImageStore::new([1u8; 32]);
        let rec = sample_record();
        store.insert(1, &rec);
        let first = store.sealed_bytes(1, 0).unwrap().to_vec();
        store.insert(1, &rec);
        let second = store.sealed_bytes(1, 0).unwrap().to_vec();
        assert_ne!(first, second, "fresh nonce per insert");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn wrong_key_fails_closed() {
        let mut store = SealedImageStore::new([1u8; 32]);
        store.insert(1, &sample_record());
        // Move the sealed record into a store with a different key.
        let sealed = store.records.get(&1).unwrap().clone();
        let mut other = SealedImageStore::new([2u8; 32]);
        other.records.insert(1, sealed);
        assert!(other.get_at(1, 0).is_none(), "a foreign key's tag must not verify");
    }

    #[test]
    fn any_flipped_byte_fails_closed() {
        let mut store = SealedImageStore::new([3u8; 32]);
        store.insert(1, &sample_record());
        let len = store.sealed_bytes(1, 0).unwrap().len();
        // Nonce, ciphertext body (first, middle, last) and tag.
        for pos in [0, NONCE_LEN - 1, NONCE_LEN, len / 2, len - TAG_LEN - 1, len - TAG_LEN, len - 1]
        {
            store.sealed_bytes_mut(1, 0).unwrap()[pos] ^= 0x01;
            assert!(store.get_at(1, 0).is_none(), "flip at byte {pos} of {len} unsealed");
            store.sealed_bytes_mut(1, 0).unwrap()[pos] ^= 0x01;
        }
        assert!(store.get_at(1, 0).is_some());
        // Records too short to hold a nonce and a tag fail closed too.
        let mut short = SealedImageStore::new([3u8; 32]);
        short.records.insert(1, vec![SealedRecord(vec![0; NONCE_LEN + TAG_LEN - 1])]);
        assert!(short.get_at(1, 0).is_none());
    }

    #[test]
    fn remove_works() {
        let mut store = SealedImageStore::new([1u8; 32]);
        store.insert(1, &sample_record());
        assert!(store.remove(1));
        assert!(!store.remove(1));
        assert!(store.is_empty());
    }

    #[test]
    fn append_accumulates_addresses() {
        let mut store = SealedImageStore::new([4u8; 32]);
        let rec = sample_record();
        store.append(9, &rec);
        store.append(9, &rec);
        store.append(9, &rec);
        assert_eq!(store.record_count(9), 3);
        for i in 0..3 {
            assert_same(&store.get_at(9, i).unwrap(), &rec);
        }
        // insert replaces the whole set.
        store.insert(9, &rec);
        assert_eq!(store.record_count(9), 1);
        assert_eq!(store.record_count(404), 0);
    }

    #[test]
    fn oversized_counts_fail_before_allocating() {
        let mut plain = sample_record().encode();
        // `selected`'s count sits right after the fixed 80-byte header.
        plain[80..84].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(EnrollmentRecord::decode(&plain).is_none());
        let mut plain = sample_record().encode();
        plain[0] ^= 1;
        assert!(EnrollmentRecord::decode(&plain).is_none(), "bad magic");
        let mut plain = sample_record().encode();
        *plain.last_mut().unwrap() = 3;
        assert!(EnrollmentRecord::decode(&plain).is_none(), "bad ternary byte");
        let mut plain = sample_record().encode();
        plain.push(0);
        assert!(EnrollmentRecord::decode(&plain).is_none(), "trailing byte");
    }

    fn random_record(
        address: u64,
        limbs: [u64; 4],
        rotation: u32,
        key: [u64; 4],
        selected: Vec<u32>,
        error_bits: Vec<u64>,
        ternary: Vec<u8>,
    ) -> EnrollmentRecord {
        let ternary = ternary
            .into_iter()
            .map(|b| {
                [TernaryState::StableZero, TernaryState::StableOne, TernaryState::Fuzzy][b as usize]
            })
            .collect();
        EnrollmentRecord {
            image: PufImage {
                address: address as usize,
                selected,
                reference: U256::from_limbs(limbs),
                error_estimates: error_bits.into_iter().map(f64::from_bits).collect(),
                ternary,
            },
            salt: Salt { rotation, key: U256::from_limbs(key) },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any record — any address, arbitrary `f64` bit patterns (NaN,
        /// subnormal, signed zero) and ternary maps of 0..=1024 cells —
        /// round-trips exactly through `insert`/`append` and `get_at`,
        /// and every truncation of its plaintext decodes to `None`.
        #[test]
        fn records_roundtrip_and_truncations_fail(
            address in any::<u64>(),
            limbs in any::<[u64; 4]>(),
            rotation in any::<u32>(),
            key in any::<[u64; 4]>(),
            selected in proptest::collection::vec(any::<u32>(), 256..257),
            error_bits in proptest::collection::vec(any::<u64>(), 256..257),
            ternary in proptest::collection::vec(0u8..3, 0..1025),
        ) {
            let rec = random_record(address, limbs, rotation, key, selected, error_bits, ternary);
            let mut store = SealedImageStore::new([5u8; 32]);
            store.insert(1, &sample_record());
            store.append(1, &rec);
            store.insert(2, &rec);
            assert_same(&store.get_at(1, 1).unwrap(), &rec);
            assert_same(&store.get_at(2, 0).unwrap(), &rec);

            let plain = rec.encode();
            assert_same(&EnrollmentRecord::decode(&plain).unwrap(), &rec);
            for len in 0..plain.len() {
                prop_assert!(EnrollmentRecord::decode(&plain[..len]).is_none(), "prefix {len}");
            }
        }

        /// Random garbage never decodes and never panics, whether it
        /// starts with the magic word or not.
        #[test]
        fn garbage_decodes_to_none(
            magic in any::<bool>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            let mut plain = bytes;
            if magic && plain.len() >= 4 {
                plain[..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
            }
            prop_assert!(EnrollmentRecord::decode(&plain).is_none());
        }
    }
}
