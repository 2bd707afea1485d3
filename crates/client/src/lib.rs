//! # ac3-client
//!
//! The end-user client library for the AC3WN reproduction — the layer a
//! downstream application would embed to execute atomic cross-chain
//! transactions, on top of the protocol drivers in `ac3-core`.
//!
//! The paper's end users appear in three roles, and each gets a module:
//!
//! * **identity and funds** — [`wallet::Wallet`]: a named key pair with
//!   balance queries against the simulated multi-chain world;
//! * **agreeing on the AC2T** — [`negotiation`]: the off-chain message flow
//!   in which one participant proposes the graph `D = (V, E)` and every
//!   participant contributes a signature share until the multisignature
//!   `ms(D)` of Equation 1 is complete;
//! * **executing the AC2T** — [`session::SwapSession`]: the AC3WN machine
//!   of `ac3-core` ([`ac3_core::Ac3Machine`]) built for the signed graph,
//!   persisted as JSON. The machine registers `SC_w`, deploys every contract
//!   in parallel, obtains the decision and settles; between any two of its
//!   polls the session can be written to disk, so a client that crashes
//!   mid-swap reloads it and continues — the *commitment* property of the
//!   protocol made concrete at the client layer.
//!
//! ```
//! use ac3_client::{Negotiation, SwapSession, Wallet};
//! use ac3_core::scenario::{two_party_scenario, ScenarioConfig};
//! use ac3_core::ProtocolConfig;
//!
//! // The scenario provides the chains and funded participants.
//! let mut scenario = two_party_scenario(50, 80, &ScenarioConfig::default());
//!
//! // Off-chain: negotiate and multisign the swap graph.
//! let alice = Wallet::new("alice");
//! let bob = Wallet::new("bob");
//! let mut negotiation = Negotiation::new(scenario.graph.clone());
//! negotiation.submit(alice.sign_proposal(negotiation.proposal())).unwrap();
//! negotiation.submit(bob.sign_proposal(negotiation.proposal())).unwrap();
//! let signed = negotiation.finalize().unwrap();
//!
//! // On-chain: run the AC3WN machine, persisting it halfway.
//! let mut session = SwapSession::new(
//!     signed,
//!     scenario.witness_chain,
//!     ProtocolConfig::default(),
//! ).unwrap();
//! session
//!     .run_until(&mut scenario.world, &mut scenario.participants, |machine, _| {
//!         machine.authorize_txid().is_some()
//!     })
//!     .unwrap();
//! let mut session = SwapSession::from_json(&session.to_json()).unwrap();
//! let report = session
//!     .run_to_completion(&mut scenario.world, &mut scenario.participants)
//!     .unwrap();
//! assert!(report.is_atomic());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod negotiation;
pub mod session;
pub mod wallet;

pub use error::ClientError;
pub use negotiation::{Negotiation, SignatureShare, SignedSwap, SwapProposal};
pub use session::SwapSession;
pub use wallet::Wallet;
