//! # ac3-chain
//!
//! A permissionless blockchain simulator: the substrate the AC3WN
//! reproduction runs its protocols on (see DESIGN.md §1 for the substitution
//! rationale — this stands in for Bitcoin, Ethereum, Litecoin, Bitcoin Cash
//! and the witness network of the paper).
//!
//! The simulator follows the paper's own system model (Section 2):
//!
//! * a **storage layer** of miners maintaining a tamper-proof chain of
//!   blocks ([`block`], [`store`]), reaching agreement via (simulated)
//!   proof-of-work mining and the longest-chain rule, and validating that
//!   end users only spend assets they own and never twice ([`utxo`]);
//! * an **application layer** of end users who submit digitally signed
//!   transactions ([`transaction`]) and smart-contract deploy/call messages
//!   ([`contracts`]) through a client library (the [`chain::Blockchain`]
//!   API);
//! * **header chains** ([`chain::Blockchain::headers_since`]) and Merkle
//!   inclusion proofs, the parts of the Section 4.3 cross-chain evidence
//!   that `ac3-contracts` verifies.
//!
//! Each chain is configured by [`params::ChainParams`] — block interval,
//! throughput cap (Table 1), fee schedule (Section 6.2) and stable depth
//! `d` — so the evaluation harness can instantiate the exact mixes of chains
//! the paper analyses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chain;
pub mod contracts;
pub mod mempool;
pub mod params;
pub mod storage;
pub mod store;
pub mod transaction;
pub mod types;
pub mod utxo;

pub use block::{Block, BlockHeader};
pub use chain::{Blockchain, ChainError, ChainState, TxInclusion};
pub use contracts::{
    CallContext, CallOutcome, ContractRecord, ContractVm, DeployContext, EchoVm, Payout, VmError,
    VmHandle,
};
pub use mempool::{Mempool, MempoolError};
pub use params::{BaseFeeSchedule, ChainParams, SealPolicy};
pub use storage::{
    BufferPool, MemoryStore, PagedStore, PolicyKind, ReplacementPolicy, Store, StoreConfig,
    StoreStats,
};
pub use store::{BlockStore, StoreError};
pub use transaction::{coinbase, Transaction, TxBuilder, TxKind, TxOutput};
pub use types::{
    Address, Amount, BlockHash, BlockHeight, ChainId, ContractId, OutPoint, Timestamp, TxId,
};
pub use utxo::{UtxoError, UtxoSet};
