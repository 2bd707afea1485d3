//! # ac3-core
//!
//! The heart of the reproduction of *Atomic Commitment Across Blockchains*
//! (Zakhary, Agrawal, El Abbadi — VLDB 2020): the AC3WN protocol, the AC3TW
//! centralized-witness variant, the Nolan and Herlihy hashlock/timelock
//! baselines, the transaction-graph model and the paper's analytical
//! models. Section 4.3's in-contract evidence validation is
//! `ac3_contracts::TxInclusionEvidence`, which the AC3WN contracts run.
//!
//! | Paper | Module |
//! |---|---|
//! | Section 3 — AC2T graph model `D = (V, E)`, `ms(D)` | [`graph`] |
//! | Sections 4.1 / 4.2 — the AC3 commit sequence, one machine over a coordinator | [`ac3`] |
//! | Section 4.1 — AC3TW driver and the centralized trusted witness, Trent | [`ac3tw`] |
//! | Section 4.2 — AC3WN driver and the contents of every AC3WN transaction | [`ac3wn`] |
//! | Section 1 / \[23\] — Nolan's two-party atomic swap | [`nolan`] |
//! | \[16\] / Section 5.3 — Herlihy's multi-party atomic swap, single- and multi-leader (baseline) | [`herlihy`] |
//! | Section 5 — atomicity audit | [`audit`] |
//! | Section 6 — latency / cost / witness-choice / throughput models | [`analysis`] |
//! | Section 6.3 — executed 51%-fork attack on the witness chain | [`attack`] |
//! | Sections 5.2 / 6.4 — concurrent AC2Ts over shared chains | [`driver`], [`scheduler`] |
//!
//! Every protocol is decomposed into a resumable step/poll state machine
//! ([`driver::SwapMachine`]) that never advances the simulated clock, so N
//! swaps — of any protocol mix — can interleave over one shared world under
//! the [`scheduler::Scheduler`]. There are two machines: [`Ac3Machine`]
//! (AC3WN and AC3TW, differing only in a private coordinator) and
//! [`HerlihyMachine`] (Nolan and both Herlihy variants). The blocking
//! `execute` entry points are thin [`driver::drive`] wrappers over them,
//! and [`driver::drive_until`] stops one at a stated point for experiments
//! that take over by hand.
//!
//! The protocol drivers execute against the `ac3-sim` discrete-event world;
//! [`scenario`] assembles standard worlds (two-party swaps, rings of
//! configurable diameter, the Figure 7 complex graphs) shared by the
//! examples, tests and the benchmark harness.
//!
//! ## Quick start
//!
//! ```
//! use ac3_core::{Ac3wn, ProtocolConfig};
//! use ac3_core::scenario::{two_party_scenario, ScenarioConfig};
//!
//! // Alice swaps 50 units on chain A for Bob's 80 units on chain B.
//! let mut scenario = two_party_scenario(50, 80, &ScenarioConfig::default());
//! let report = Ac3wn::new(ProtocolConfig::default())
//!     .execute(&mut scenario)
//!     .expect("swap executes");
//! assert!(report.is_atomic());
//! assert_eq!(report.decision, Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac3;
pub mod ac3tw;
pub mod ac3wn;
pub mod actions;
pub mod analysis;
pub mod attack;
pub mod audit;
pub mod campaign;
pub mod campaign_run;
pub mod driver;
pub mod fee;
pub mod graph;
pub mod herlihy;
pub mod nolan;
pub mod partition;
pub mod protocol;
pub mod scenario;
pub mod scheduler;

pub use ac3::Ac3Machine;
pub use ac3tw::{Ac3tw, Trent, TrentError};
pub use ac3wn::Ac3wn;
pub use attack::{execute_fork_attack, ForkAttackConfig, ForkAttackReport};
pub use audit::AtomicityVerdict;
pub use campaign::{
    Campaign, CampaignConfig, CampaignEvent, CampaignPlan, CampaignReport, CampaignSpace,
    ProtocolLane, WitnessBond,
};
pub use campaign_run::{build_campaign, run_campaign};
pub use driver::{drive, drive_until, MachineFootprint, Step, SwapMachine};
pub use fee::{BidBook, BidChange, FeePolicy};
pub use graph::{ring_graph, GraphShape, SwapEdge, SwapGraph};
pub use herlihy::{Herlihy, HerlihyMachine, HerlihyMulti};
pub use nolan::Nolan;
pub use partition::{partition_batch, Shard};
pub use protocol::{
    EdgeDisposition, EdgeOutcome, ProtocolConfig, ProtocolError, ProtocolKind, SwapReport,
};
pub use scenario::{
    clustered_swaps_scenario, concurrent_custom_swaps, concurrent_swaps_multi_witness,
    concurrent_swaps_over_chains, concurrent_swaps_scenario, custom_scenario, figure7a_scenario,
    figure7b_scenario, ring_scenario, two_party_scenario, MultiSwapScenario, Scenario,
    ScenarioConfig, SwapSpec,
};
pub use scheduler::{
    BatchReport, FeeMarketStats, MachineSeed, Scheduler, SwapOutcome, WitnessAssignment,
};
