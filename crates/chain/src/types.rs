//! Fundamental identifier and value types shared across the simulated
//! blockchains.

use ac3_crypto::{Hash256, PublicKey};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a blockchain inside the simulated multi-chain world
/// (e.g. "Bitcoin" = 0, "Ethereum" = 1, the witness chain = 2, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChainId(pub u32);

impl ChainId {
    /// The raw numeric id.
    pub fn as_u32(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for ChainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chain#{}", self.0)
    }
}

/// An end-user identity on a chain. The paper identifies users by their
/// public keys (Section 2.2); we follow that directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Address(pub PublicKey);

impl Address {
    /// The underlying public key.
    pub fn public_key(&self) -> PublicKey {
        self.0
    }

    /// Canonical byte encoding used in transaction hashes.
    pub fn to_bytes(&self) -> [u8; 8] {
        self.0.to_bytes()
    }
}

impl From<PublicKey> for Address {
    fn from(pk: PublicKey) -> Self {
        Address(pk)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An asset quantity. All assets on all simulated chains are denominated in
/// indivisible integer units (satoshi/wei-like).
pub type Amount = u64;

/// A transaction identifier (hash of the canonical transaction encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxId(pub Hash256);

impl TxId {
    /// The underlying hash.
    pub fn hash(&self) -> Hash256 {
        self.0
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.0)
    }
}

/// A block identifier (hash of the block header).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct BlockHash(pub Hash256);

impl BlockHash {
    /// The hash of the (non-existent) parent of a genesis block.
    pub const GENESIS_PARENT: BlockHash = BlockHash(Hash256::ZERO);

    /// The underlying hash.
    pub fn hash(&self) -> Hash256 {
        self.0
    }
}

impl fmt::Display for BlockHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{}", self.0)
    }
}

/// Identifier of a deployed smart contract: the id of the transaction that
/// deployed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ContractId(pub Hash256);

impl ContractId {
    /// The underlying hash.
    pub fn hash(&self) -> Hash256 {
        self.0
    }
}

impl fmt::Display for ContractId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sc:{}", self.0)
    }
}

/// A reference to a specific transaction output (the UTXO model of
/// Section 2.3, Figures 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OutPoint {
    /// The transaction that created the output.
    pub txid: TxId,
    /// The index of the output within that transaction.
    pub index: u32,
}

impl OutPoint {
    /// Construct an outpoint.
    pub fn new(txid: TxId, index: u32) -> Self {
        OutPoint { txid, index }
    }

    /// Canonical byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(36);
        out.extend_from_slice(self.txid.0.as_bytes());
        out.extend_from_slice(&self.index.to_be_bytes());
        out
    }
}

impl fmt::Display for OutPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.txid, self.index)
    }
}

/// Height of a block within a chain (genesis = 0).
pub type BlockHeight = u64;

/// Simulated wall-clock time in milliseconds since simulation start.
pub type Timestamp = u64;

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_crypto::KeyPair;

    #[test]
    fn an_address_outside_the_key_group_does_not_decode() {
        // 0, the modulus 2^61 - 1 and u64::MAX are no group element.
        for text in ["0", "2305843009213693951", "18446744073709551615"] {
            assert!(serde_json::from_str::<Address>(text).is_err(), "{text} decoded");
        }
        let alice = Address::from(KeyPair::from_seed(b"alice").public());
        let json = serde_json::to_string(&alice).unwrap();
        assert_eq!(serde_json::from_str::<Address>(&json).unwrap(), alice);
    }

    #[test]
    fn chain_id_display() {
        assert_eq!(ChainId(7).to_string(), "chain#7");
        assert_eq!(ChainId(7).as_u32(), 7);
    }

    #[test]
    fn address_wraps_public_key() {
        let kp = KeyPair::from_seed(b"alice");
        let addr = Address::from(kp.public());
        assert_eq!(addr.public_key(), kp.public());
        assert_eq!(addr.to_bytes(), kp.public().to_bytes());
    }

    #[test]
    fn outpoint_encoding_unique_per_index() {
        let txid = TxId(Hash256::digest(b"tx"));
        let a = OutPoint::new(txid, 0);
        let b = OutPoint::new(txid, 1);
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.to_bytes().len(), 36);
    }

    #[test]
    fn genesis_parent_is_zero() {
        assert_eq!(BlockHash::GENESIS_PARENT.hash(), Hash256::ZERO);
    }
}
