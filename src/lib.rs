//! # ac3wn — Atomic Commitment Across Blockchains (reproduction)
//!
//! Facade crate re-exporting the whole workspace behind one dependency:
//!
//! * [`crypto`] — SHA-256, Schnorr signatures, Merkle trees, commitment
//!   schemes and the graph multisignature `ms(D)`;
//! * [`chain`] — the permissionless blockchain simulator (UTXO assets,
//!   proof-of-work blocks, longest-chain fork choice);
//! * [`contracts`] — the paper's Algorithms 1–4 plus HTLCs, executed by the
//!   `SwapVm`, and the Section 4.3 cross-chain evidence they verify;
//! * [`sim`] — the discrete-event multi-chain world with crash/partition
//!   fault injection;
//! * [`core`] — the AC3WN and AC3TW protocols, the Nolan/Herlihy baselines
//!   (single- and multi-leader), the AC2T graph model, the Section 6
//!   analytical models and the executed Section 6.3 fork attack;
//! * [`client`] — the end-user layer: wallets, swap negotiation
//!   (assembling `ms(D)`) and persistent, crash-recoverable swap sessions.
//!
//! See `README.md` for a tour and the reproduction of every table and
//! figure (the `ac3-bench` crate's `repro` binary), and `DESIGN.md` for the
//! system inventory.
//!
//! ```
//! use ac3wn::prelude::*;
//!
//! let mut scenario = two_party_scenario(50, 80, &ScenarioConfig::default());
//! let report = Ac3wn::new(ProtocolConfig::default()).execute(&mut scenario).unwrap();
//! assert!(report.is_atomic());
//! ```

#![forbid(unsafe_code)]

pub use ac3_chain as chain;
pub use ac3_client as client;
pub use ac3_contracts as contracts;
pub use ac3_core as core;
pub use ac3_crypto as crypto;
pub use ac3_sim as sim;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use ac3_chain::{Address, Amount, BaseFeeSchedule, ChainId, ChainParams, ContractId, TxId};
    pub use ac3_client::{Negotiation, SignedSwap, SwapSession, Wallet};
    pub use ac3_core::scenario::{
        concurrent_swaps_multi_witness, concurrent_swaps_scenario, MultiSwapScenario, SwapSpec,
    };
    pub use ac3_core::scenario::{
        custom_scenario, figure7a_scenario, figure7b_scenario, ring_scenario, two_party_scenario,
        Scenario, ScenarioConfig,
    };
    pub use ac3_core::{
        run_campaign, Ac3tw, Ac3wn, AtomicityVerdict, BatchReport, CampaignConfig, CampaignPlan,
        CampaignReport, CampaignSpace, EdgeDisposition, FeePolicy, GraphShape, Herlihy,
        HerlihyMulti, Nolan, ProtocolConfig, ProtocolKind, ProtocolLane, Scheduler, SwapEdge,
        SwapGraph, SwapMachine, SwapReport, WitnessAssignment,
    };
    pub use ac3_crypto::{Hash256, Hashlock, KeyPair};
    pub use ac3_sim::{ChainCongestion, CrashWindow, OutageWindow, ParticipantSet, SwapId, World};
}
