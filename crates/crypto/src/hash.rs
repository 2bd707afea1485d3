//! The 32-byte hash value type used throughout the workspace.

use crate::hex;
use crate::sha256::sha256;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 256-bit hash value.
///
/// `Hash256` identifies blocks, transactions, contracts and commitment-scheme
/// locks. It is a thin, copyable wrapper around `[u8; 32]` with hex
/// formatting, ordering (big-endian numeric interpretation, used for
/// proof-of-work difficulty comparisons) and serde support.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Hash256([u8; 32]);

impl Hash256 {
    /// The all-zero hash, used as the parent of genesis blocks and as a
    /// sentinel "no hash" value.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// The all-ones hash: the largest possible value, i.e. the easiest
    /// possible proof-of-work target.
    pub const MAX: Hash256 = Hash256([0xff; 32]);

    /// Wrap raw bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }

    /// Hash arbitrary data with SHA-256.
    pub fn digest(data: &[u8]) -> Self {
        Hash256(sha256(data))
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Hex representation (64 lowercase hex characters).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// Whether this hash is numerically (big-endian) below `target`.
    ///
    /// This is the proof-of-work acceptance test used by the simulated
    /// chains: a block is valid if `hash(header) <= target`.
    pub fn meets_target(&self, target: &Hash256) -> bool {
        self <= target
    }

    /// Truncate to the first 8 bytes interpreted as a big-endian `u64`.
    /// Useful for deriving deterministic pseudo-random values from hashes
    /// (e.g. simulated mining delays).
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// A short 8-hex-character prefix used in log messages and `Display`.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({})", self.to_hex())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_big_endian_numeric() {
        let mut small = [0u8; 32];
        small[31] = 1;
        let mut big = [0u8; 32];
        big[0] = 1;
        assert!(Hash256::from_bytes(small) < Hash256::from_bytes(big));
    }

    #[test]
    fn meets_target_boundary() {
        let t = Hash256::digest(b"target");
        assert!(t.meets_target(&t), "equal hash meets target");
        assert!(Hash256::ZERO.meets_target(&t));
        assert!(!Hash256::MAX.meets_target(&t));
    }

    #[test]
    fn display_is_short_prefix() {
        let h = Hash256::digest(b"display");
        assert_eq!(format!("{h}"), h.to_hex()[..8]);
    }

    #[test]
    fn to_u64_uses_first_eight_bytes() {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&0xdead_beef_cafe_f00du64.to_be_bytes());
        assert_eq!(Hash256::from_bytes(bytes).to_u64(), 0xdead_beef_cafe_f00d);
    }
}
