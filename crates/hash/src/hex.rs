//! Lowercase hex, the wire form of every byte string in the protocol
//! messages: a [`DynDigest`](crate::DynDigest) and an accepted verdict's
//! public key are each one JSON string, two characters per byte.
//!
//! [`serialize`] and [`deserialize`] make this module usable as a serde
//! field codec: `#[serde(with = "rbc_hash::hex")]` on a `Vec<u8>` field.

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Lowercase hex rendering of `bytes`.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xF)] as char);
    }
    out
}

/// Decodes hex (either case); `None` on an odd length or a non-hex
/// character. Reads the string byte-wise, so a multi-byte character is
/// rejected rather than sliced, and allocates only the decoded half.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |b: u8| (b as char).to_digit(16);
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks(2) {
        out.push((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8);
    }
    Some(out)
}

/// Serializes a byte string as one hex string.
pub fn serialize<S: serde::Serializer>(bytes: &[u8], serializer: S) -> Result<S::Ok, S::Error> {
    serializer.serialize_str(&encode(bytes))
}

/// Deserializes a byte string from one hex string.
pub fn deserialize<'de, D: serde::Deserializer<'de>>(deserializer: D) -> Result<Vec<u8>, D::Error> {
    use serde::{de::Error, Deserialize};
    let s = String::deserialize(deserializer)?;
    decode(&s).ok_or_else(|| D::Error::custom("expected an even-length hex string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects_malformed_input() {
        let bytes: Vec<u8> = (0..=255).collect();
        let hex = encode(&bytes);
        assert_eq!(&hex[..8], "00010203");
        assert_eq!(&hex[hex.len() - 4..], "feff");
        assert_eq!(decode(&hex), Some(bytes));
        assert_eq!(decode("ABcd"), Some(vec![0xAB, 0xCD]));
        assert_eq!(decode(""), Some(vec![]));
        for bad in ["abc", "0g", "zz", "0é0", "é"] {
            assert_eq!(decode(bad), None, "{bad:?}");
        }
    }
}
