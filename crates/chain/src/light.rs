//! Light clients and cross-chain header evidence (Section 4.3).
//!
//! The paper discusses three ways for the miners of a *validator* chain to
//! check what happened on a *validated* chain:
//!
//! 1. full replication (every miner keeps a copy of every chain),
//! 2. light nodes (every miner keeps the header chain of every other chain),
//! 3. the paper's proposal — push the validation logic into a smart contract
//!    of the validator chain that stores one *stable* header of the
//!    validated chain and later verifies a submitted *header-chain evidence*
//!    payload: all headers following the stable one, each linking to its
//!    parent and satisfying its proof-of-work, plus a Merkle inclusion proof
//!    of the transaction of interest in a block that is itself buried under
//!    `d` blocks.
//!
//! This module implements the header-chain machinery shared by options 2 and
//! 3: [`LightClient`] (an incrementally-updated header chain) and
//! [`HeaderEvidence`] (the self-contained evidence payload plus its stateless
//! verification routine). Option 1 needs no machinery — the validator simply
//! reads the other [`crate::chain::Blockchain`] — and the three strategies
//! are compared head-to-head in `ac3-core::evidence`.

use crate::block::BlockHeader;
use crate::types::{BlockHash, ChainId, TxId};
use ac3_crypto::MerkleProof;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced while verifying headers or evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LightClientError {
    /// A header does not link to the previous one.
    BrokenLink {
        /// Height at which the break occurred.
        height: u64,
    },
    /// A header's hash does not satisfy its proof-of-work target.
    InvalidWork(BlockHash),
    /// A header belongs to a different chain than expected.
    WrongChain {
        /// Expected chain id.
        expected: ChainId,
        /// Chain id found in the header.
        got: ChainId,
    },
    /// Header heights are not consecutive.
    NonConsecutiveHeight {
        /// Expected height.
        expected: u64,
        /// Height found.
        got: u64,
    },
    /// The evidence's Merkle proof does not check out.
    InvalidInclusionProof,
    /// The block containing the transaction is not buried deep enough.
    InsufficientDepth {
        /// Required burial depth.
        required: u64,
        /// Actual burial depth provided by the evidence.
        got: u64,
    },
    /// The evidence does not start at the expected stable header.
    WrongAnchor {
        /// The stable block hash the verifier stored.
        expected: BlockHash,
        /// The parent of the first evidence header.
        got: BlockHash,
    },
    /// The evidence contains no headers.
    EmptyEvidence,
}

impl fmt::Display for LightClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LightClientError::BrokenLink { height } => {
                write!(f, "broken header link at height {height}")
            }
            LightClientError::InvalidWork(h) => write!(f, "invalid proof of work in {h}"),
            LightClientError::WrongChain { expected, got } => {
                write!(f, "header from {got}, expected {expected}")
            }
            LightClientError::NonConsecutiveHeight { expected, got } => {
                write!(f, "non-consecutive height: expected {expected}, got {got}")
            }
            LightClientError::InvalidInclusionProof => write!(f, "invalid inclusion proof"),
            LightClientError::InsufficientDepth { required, got } => {
                write!(f, "insufficient burial depth: required {required}, got {got}")
            }
            LightClientError::WrongAnchor { expected, got } => {
                write!(f, "evidence anchored at {got}, expected {expected}")
            }
            LightClientError::EmptyEvidence => write!(f, "empty evidence"),
        }
    }
}

impl std::error::Error for LightClientError {}

/// Check the internal consistency of a run of headers: same chain, heights
/// consecutive, each links to the previous, and each satisfies its own
/// proof-of-work target. The first header is checked against
/// `(anchor_hash, anchor_height)`.
pub fn verify_header_chain(
    chain: ChainId,
    anchor_hash: BlockHash,
    anchor_height: u64,
    headers: &[BlockHeader],
) -> Result<(), LightClientError> {
    let mut prev_hash = anchor_hash;
    let mut prev_height = anchor_height;
    for header in headers {
        if header.chain != chain {
            return Err(LightClientError::WrongChain { expected: chain, got: header.chain });
        }
        if header.parent != prev_hash {
            return Err(LightClientError::BrokenLink { height: header.height });
        }
        if header.height != prev_height + 1 {
            return Err(LightClientError::NonConsecutiveHeight {
                expected: prev_height + 1,
                got: header.height,
            });
        }
        // Hash once per header: the same digest answers the proof-of-work
        // check and becomes the next link target (evidence verification is
        // the dominant cost of the in-contract validation strategy, so the
        // former hash-twice-per-header was measurable).
        let hash = header.hash();
        if !hash.0.meets_target(&header.target) {
            return Err(LightClientError::InvalidWork(hash));
        }
        prev_hash = hash;
        prev_height = header.height;
    }
    Ok(())
}

/// A light node (the "download only the block headers" node of Section 4.3,
/// option 2): it tracks the header chain of a remote blockchain and answers
/// depth/stability queries without ever seeing full blocks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LightClient {
    chain: ChainId,
    headers: Vec<BlockHeader>,
}

impl LightClient {
    /// Initialise from a trusted genesis header (light clients bootstrap
    /// from a checkpoint).
    pub fn new(genesis: BlockHeader) -> Result<Self, LightClientError> {
        if !genesis.meets_target() {
            return Err(LightClientError::InvalidWork(genesis.hash()));
        }
        Ok(LightClient { chain: genesis.chain, headers: vec![genesis] })
    }

    /// The chain this client follows.
    pub fn chain(&self) -> ChainId {
        self.chain
    }

    /// The current best header.
    pub fn tip(&self) -> &BlockHeader {
        self.headers.last().expect("light client always has a tip")
    }

    /// Current height.
    pub fn height(&self) -> u64 {
        self.tip().height
    }

    /// Number of headers tracked.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether no headers beyond genesis are tracked.
    pub fn is_empty(&self) -> bool {
        self.headers.len() <= 1
    }

    /// Append a run of headers extending the current tip.
    pub fn extend(&mut self, headers: &[BlockHeader]) -> Result<(), LightClientError> {
        verify_header_chain(self.chain, self.tip().hash(), self.height(), headers)?;
        self.headers.extend_from_slice(headers);
        Ok(())
    }

    /// The header at `height`, if tracked.
    pub fn header_at(&self, height: u64) -> Option<&BlockHeader> {
        let base = self.headers.first()?.height;
        self.headers.get(height.checked_sub(base)? as usize)
    }

    /// Burial depth of the block at `height` (0 = tip).
    pub fn depth_of_height(&self, height: u64) -> Option<u64> {
        (height <= self.height()).then(|| self.height() - height)
    }

    /// Verify that `tx_bytes` (a transaction's canonical bytes) is included
    /// in the tracked block at `height` via `proof`, and that this block is
    /// buried under at least `min_depth` blocks.
    pub fn verify_inclusion(
        &self,
        height: u64,
        proof: &MerkleProof,
        tx_bytes: &[u8],
        min_depth: u64,
    ) -> Result<(), LightClientError> {
        let header = self
            .header_at(height)
            .ok_or(LightClientError::InsufficientDepth { required: min_depth, got: 0 })?;
        if !proof.verify(&header.tx_root, tx_bytes) {
            return Err(LightClientError::InvalidInclusionProof);
        }
        let depth = self.depth_of_height(height).unwrap_or(0);
        if depth < min_depth {
            return Err(LightClientError::InsufficientDepth { required: min_depth, got: depth });
        }
        Ok(())
    }
}

/// Self-contained cross-chain evidence (Section 4.3, option 3): everything a
/// validator smart contract needs to convince itself that a transaction
/// happened on the validated chain, relative to a stable anchor header the
/// contract already stores.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeaderEvidence {
    /// The chain the evidence is about.
    pub chain: ChainId,
    /// Headers following the anchor, oldest first, at least up to the
    /// block that buries the transaction under the depth the verifier
    /// demands (headers beyond it prove nothing more).
    pub headers: Vec<BlockHeader>,
    /// Height (within `headers`) of the block containing the transaction.
    pub tx_height: u64,
    /// The transaction's id (for bookkeeping / duplicate detection).
    pub txid: TxId,
    /// The transaction's canonical bytes (the Merkle leaf).
    pub tx_bytes: Vec<u8>,
    /// Merkle inclusion proof of `tx_bytes` in the block at `tx_height`.
    pub proof: MerkleProof,
}

impl HeaderEvidence {
    /// Verify the evidence against a stored stable anchor.
    ///
    /// Checks, in the order the paper lists them: (1) the submitted headers
    /// extend the anchor with valid links and proof-of-work, (2) the
    /// transaction of interest is included in one of those blocks, and
    /// (3) that block is itself buried under at least `min_depth` of the
    /// submitted headers.
    pub fn verify(
        &self,
        anchor_hash: BlockHash,
        anchor_height: u64,
        min_depth: u64,
    ) -> Result<(), LightClientError> {
        if self.headers.is_empty() {
            return Err(LightClientError::EmptyEvidence);
        }
        if self.headers[0].parent != anchor_hash {
            return Err(LightClientError::WrongAnchor {
                expected: anchor_hash,
                got: self.headers[0].parent,
            });
        }
        verify_header_chain(self.chain, anchor_hash, anchor_height, &self.headers)?;

        let first_height = self.headers[0].height;
        let idx = self
            .tx_height
            .checked_sub(first_height)
            .ok_or(LightClientError::InvalidInclusionProof)? as usize;
        let header = self.headers.get(idx).ok_or(LightClientError::InvalidInclusionProof)?;
        if !self.proof.verify(&header.tx_root, &self.tx_bytes) {
            return Err(LightClientError::InvalidInclusionProof);
        }
        let tip_height = self.headers.last().expect("non-empty").height;
        let depth = tip_height - self.tx_height;
        if depth < min_depth {
            return Err(LightClientError::InsufficientDepth { required: min_depth, got: depth });
        }
        Ok(())
    }

    /// Size of the evidence in headers — the quantity the paper's
    /// light-client cost discussion is about.
    pub fn header_count(&self) -> usize {
        self.headers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Blockchain;
    use crate::contracts::EchoVm;
    use crate::params::ChainParams;
    use crate::transaction::TxBuilder;
    use crate::types::{Address, Amount};
    use ac3_crypto::KeyPair;
    use std::sync::Arc;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    /// A chain with a funded Alice, a payment to Bob mined at height 1 and
    /// `extra` empty blocks on top.
    fn chain_with_payment(extra: u64) -> (Blockchain, TxId, Vec<u8>) {
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let miner = addr(b"miner");
        let mut chain = Blockchain::new(
            ChainId(0),
            ChainParams::test("validated"),
            Arc::new(EchoVm),
            &[(alice, 100 as Amount)],
        );
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) = chain.plan_payment(&alice, &bob, 10, 1).unwrap();
        let tx = builder.transfer(inputs, outputs, 1);
        let txid = tx.id();
        let tx_bytes = tx.canonical_bytes();
        chain.submit(tx).unwrap();
        chain.mine_block(miner, 1_000).unwrap();
        for i in 0..extra {
            chain.mine_block(miner, 2_000 + i).unwrap();
        }
        (chain, txid, tx_bytes)
    }

    fn evidence_for(
        chain: &Blockchain,
        txid: TxId,
        tx_bytes: Vec<u8>,
        anchor: BlockHash,
    ) -> HeaderEvidence {
        let headers = chain.headers_since(&anchor).unwrap();
        let inclusion = chain.tx_inclusion(&txid).unwrap();
        HeaderEvidence {
            chain: chain.id(),
            headers,
            tx_height: inclusion.header.height,
            txid,
            tx_bytes,
            proof: inclusion.proof,
        }
    }

    #[test]
    fn light_client_follows_headers() {
        let (chain, _txid, _bytes) = chain_with_payment(5);
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        let genesis_header = chain.store().header(&genesis).unwrap();
        let mut lc = LightClient::new(genesis_header).unwrap();
        let headers = chain.headers_since(&genesis).unwrap();
        lc.extend(&headers).unwrap();
        assert_eq!(lc.height(), chain.height());
        assert_eq!(lc.header_at(3).unwrap().height, 3);
        assert_eq!(lc.depth_of_height(1), Some(chain.height() - 1));
    }

    #[test]
    fn light_client_rejects_broken_links() {
        let (chain, _txid, _bytes) = chain_with_payment(3);
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        let genesis_header = chain.store().header(&genesis).unwrap();
        let mut lc = LightClient::new(genesis_header).unwrap();
        let mut headers = chain.headers_since(&genesis).unwrap();
        headers.remove(1); // gap
        assert!(matches!(lc.extend(&headers).unwrap_err(), LightClientError::BrokenLink { .. }));
    }

    #[test]
    fn light_client_spv_inclusion() {
        let (chain, txid, bytes) = chain_with_payment(6);
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        let genesis_header = chain.store().header(&genesis).unwrap();
        let mut lc = LightClient::new(genesis_header).unwrap();
        lc.extend(&chain.headers_since(&genesis).unwrap()).unwrap();
        let inclusion = chain.tx_inclusion(&txid).unwrap();
        lc.verify_inclusion(inclusion.header.height, &inclusion.proof, &bytes, 6).unwrap();
        // Demanding more depth than available fails.
        assert!(matches!(
            lc.verify_inclusion(inclusion.header.height, &inclusion.proof, &bytes, 7),
            Err(LightClientError::InsufficientDepth { .. })
        ));
    }

    #[test]
    fn header_evidence_verifies_end_to_end() {
        let (chain, txid, bytes) = chain_with_payment(6);
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        let ev = evidence_for(&chain, txid, bytes, genesis);
        ev.verify(genesis, 0, 6).unwrap();
        assert_eq!(ev.header_count(), 7);
    }

    #[test]
    fn header_evidence_rejects_wrong_anchor() {
        let (chain, txid, bytes) = chain_with_payment(6);
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        let ev = evidence_for(&chain, txid, bytes, genesis);
        let bogus_anchor = BlockHash(ac3_crypto::Hash256::digest(b"other"));
        assert!(matches!(
            ev.verify(bogus_anchor, 0, 6).unwrap_err(),
            LightClientError::WrongAnchor { .. }
        ));
    }

    #[test]
    fn header_evidence_rejects_shallow_burial() {
        let (chain, txid, bytes) = chain_with_payment(2);
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        let ev = evidence_for(&chain, txid, bytes, genesis);
        assert!(matches!(
            ev.verify(genesis, 0, 6).unwrap_err(),
            LightClientError::InsufficientDepth { required: 6, got: 2 }
        ));
    }

    #[test]
    fn header_evidence_rejects_tampered_tx() {
        let (chain, txid, mut bytes) = chain_with_payment(6);
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        bytes.push(0xff);
        let ev = evidence_for(&chain, txid, bytes, genesis);
        assert_eq!(ev.verify(genesis, 0, 6).unwrap_err(), LightClientError::InvalidInclusionProof);
    }

    #[test]
    fn header_evidence_rejects_foreign_chain_headers() {
        let (chain, txid, bytes) = chain_with_payment(6);
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        let mut ev = evidence_for(&chain, txid, bytes, genesis);
        ev.chain = ChainId(42);
        assert!(matches!(
            ev.verify(genesis, 0, 6).unwrap_err(),
            LightClientError::WrongChain { .. }
        ));
    }

    #[test]
    fn empty_evidence_rejected() {
        let (chain, txid, bytes) = chain_with_payment(1);
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        let mut ev = evidence_for(&chain, txid, bytes, genesis);
        ev.headers.clear();
        assert_eq!(ev.verify(genesis, 0, 0).unwrap_err(), LightClientError::EmptyEvidence);
    }
}
