//! # rbc-bits
//!
//! Fixed-width 256-bit unsigned integers and bit-stream utilities for the
//! RBC-SALTED protocol.
//!
//! The whole RBC search operates on 256-bit PUF seeds. Native integer types
//! top out at 128 bits, and the paper specifically observes that seed
//! iterators designed for native types (e.g. Gosper's hack) degrade badly at
//! 256 bits. This crate provides [`U256`]: a four-limb little-endian integer
//! with exactly the operations the seed iterators and the protocol need —
//! wrapping arithmetic, Boolean algebra, shifts, bit addressing, Hamming
//! weight/distance, and byte/hex conversions. [`MaskRun`] is the form in
//! which a batch of bit-flip masks travels from the seed iterators to the
//! hash kernels.
//!
//! The limb order is **little-endian**: `limbs[0]` holds bits `0..64`.
//! Bit `i` of the seed is bit `i % 64` of limb `i / 64`.
//!
//! ```
//! use rbc_bits::U256;
//!
//! let a = U256::from_u64(0b1011);
//! assert_eq!(a.count_ones(), 3);
//! let b = a.flip_bit(255);
//! assert_eq!(a.hamming_distance(&b), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod run;
mod u256;

pub use run::MaskRun;
pub use u256::{SetBits, U256};

/// Number of bits in an RBC seed.
pub const SEED_BITS: usize = 256;

/// Number of bytes in an RBC seed.
pub const SEED_BYTES: usize = 32;

/// A 256-bit PUF-derived seed. Alias of [`U256`] used throughout the
/// workspace where the value is semantically a seed rather than a number.
pub type Seed = U256;
