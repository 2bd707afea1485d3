//! The AC3TW protocol (Section 4.1): atomic cross-chain commitment
//! coordinated by a *centralized trusted witness* ("Trent").
//!
//! Trent keeps a key/value store from registered graph multisignatures
//! `ms(D)` to the decision signature he has issued (if any). Because he
//! issues at most one of `T(ms(D), RD)` / `T(ms(D), RF)` per registered
//! graph, the redemption and refund commitment schemes of the asset
//! contracts (Algorithm 2) are mutually exclusive and the protocol is
//! atomic — *provided Trent is trusted, available and honest*, which is
//! exactly the assumption AC3WN removes.
//!
//! AC3TW is the AC3 commit sequence of [`crate::ac3`] with [`Trent`] as
//! coordinator: registration and the decision are immediate off-chain
//! calls, and every Algorithm 2 contract settles against his signature.
//! [`Ac3tw::machine`] builds the resumable [`Ac3Machine`];
//! [`Ac3tw::execute`] is the single-swap wrapper.

use crate::ac3::Ac3Machine;
use crate::driver::drive;
use crate::graph::SwapGraph;
use crate::protocol::{ProtocolConfig, ProtocolError, SwapReport};
use crate::scenario::Scenario;
use ac3_crypto::{Hash256, KeyPair, Signature, SignatureLock, WitnessDecision};
use std::collections::BTreeMap;

/// Errors returned by Trent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrentError {
    /// The graph multisignature is already registered.
    AlreadyRegistered,
    /// The graph multisignature is not registered.
    NotRegistered,
    /// A decision has already been issued for this graph.
    AlreadyDecided(WitnessDecision),
    /// Trent refuses the redemption because not every contract is deployed
    /// and correct.
    VerificationFailed(String),
    /// Trent is unavailable (crashed or under denial-of-service) — the
    /// single-point-of-failure the paper warns about.
    Unavailable,
}

impl std::fmt::Display for TrentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrentError::AlreadyRegistered => write!(f, "graph already registered"),
            TrentError::NotRegistered => write!(f, "graph not registered"),
            TrentError::AlreadyDecided(d) => write!(f, "already decided: {d:?}"),
            TrentError::VerificationFailed(m) => write!(f, "verification failed: {m}"),
            TrentError::Unavailable => write!(f, "trusted witness unavailable"),
        }
    }
}

impl std::error::Error for TrentError {}

/// The centralized trusted witness.
#[derive(Debug)]
pub struct Trent {
    keypair: KeyPair,
    /// `ms(D)` digest → issued decision (if any).
    registry: BTreeMap<Hash256, Option<WitnessDecision>>,
    /// Availability flag: when `false`, every request fails (models the DoS
    /// / crash vulnerability of a centralized coordinator).
    pub available: bool,
}

impl Default for Trent {
    fn default() -> Self {
        Self::new()
    }
}

impl Trent {
    /// Create a fresh witness with a deterministic key.
    pub fn new() -> Self {
        Trent {
            keypair: KeyPair::from_seed(b"trent-the-trusted-witness"),
            registry: BTreeMap::new(),
            available: true,
        }
    }

    /// Trent's public key `PK_T`, embedded in every Algorithm 2 contract.
    pub fn public_key(&self) -> ac3_crypto::PublicKey {
        self.keypair.public()
    }

    /// Register a graph multisignature (protocol step 2).
    pub fn register(&mut self, graph_digest: Hash256) -> Result<(), TrentError> {
        if !self.available {
            return Err(TrentError::Unavailable);
        }
        if self.registry.contains_key(&graph_digest) {
            return Err(TrentError::AlreadyRegistered);
        }
        self.registry.insert(graph_digest, None);
        Ok(())
    }

    /// Request the redemption signature. `all_contracts_published` is the
    /// result of Trent's own verification that every contract in the AC2T is
    /// deployed, in state `P`, and conditioned on `(ms(D), PK_T)` — as a
    /// trusted full node he checks this directly against the chains.
    pub fn request_redeem(
        &mut self,
        graph_digest: Hash256,
        all_contracts_published: bool,
    ) -> Result<Signature, TrentError> {
        if !self.available {
            return Err(TrentError::Unavailable);
        }
        match self.registry.get(&graph_digest) {
            None => Err(TrentError::NotRegistered),
            Some(Some(decision)) => {
                if *decision == WitnessDecision::Redeem {
                    Ok(self.sign(graph_digest, WitnessDecision::Redeem))
                } else {
                    Err(TrentError::AlreadyDecided(*decision))
                }
            }
            Some(None) => {
                if !all_contracts_published {
                    return Err(TrentError::VerificationFailed(
                        "not all contracts in the AC2T are published and correct".to_string(),
                    ));
                }
                self.registry.insert(graph_digest, Some(WitnessDecision::Redeem));
                Ok(self.sign(graph_digest, WitnessDecision::Redeem))
            }
        }
    }

    /// Request the refund signature.
    pub fn request_refund(&mut self, graph_digest: Hash256) -> Result<Signature, TrentError> {
        if !self.available {
            return Err(TrentError::Unavailable);
        }
        match self.registry.get(&graph_digest) {
            None => Err(TrentError::NotRegistered),
            Some(Some(decision)) => {
                if *decision == WitnessDecision::Refund {
                    Ok(self.sign(graph_digest, WitnessDecision::Refund))
                } else {
                    Err(TrentError::AlreadyDecided(*decision))
                }
            }
            Some(None) => {
                self.registry.insert(graph_digest, Some(WitnessDecision::Refund));
                Ok(self.sign(graph_digest, WitnessDecision::Refund))
            }
        }
    }

    fn sign(&self, graph_digest: Hash256, decision: WitnessDecision) -> Signature {
        self.keypair.sign(&SignatureLock::signed_message(&graph_digest, decision))
    }
}

/// The AC3TW protocol driver.
#[derive(Debug, Clone, Default)]
pub struct Ac3tw {
    /// Driver configuration.
    pub config: ProtocolConfig,
    /// Whether Trent is available during the run (set to `false` to model
    /// the centralized witness being down).
    pub trent_available: bool,
}

impl Ac3tw {
    /// Create a driver with an available Trent.
    pub fn new(config: ProtocolConfig) -> Self {
        Ac3tw { config, trent_available: true }
    }

    /// Create a resumable state machine executing `graph` (for use under a
    /// scheduler). Each machine talks to its own Trent instance.
    pub fn machine(&self, graph: SwapGraph) -> Ac3Machine {
        let mut trent = Trent::new();
        trent.available = self.trent_available;
        Ac3Machine::with_trent(self.config.clone(), graph, trent)
    }

    /// Execute the AC2T described by the scenario's graph (single-swap
    /// wrapper around [`Ac3tw::machine`]).
    pub fn execute(&self, scenario: &mut Scenario) -> Result<SwapReport, ProtocolError> {
        let mut machine = self.machine(scenario.graph.clone());
        drive(&mut machine, &mut scenario.world, &mut scenario.participants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trent_issues_at_most_one_decision() {
        let mut trent = Trent::new();
        let g = Hash256::digest(b"ms(D)");
        trent.register(g).unwrap();
        assert_eq!(trent.register(g).unwrap_err(), TrentError::AlreadyRegistered);

        let sig = trent.request_redeem(g, true).unwrap();
        // Redeem again: same decision, fine. Refund: refused.
        assert!(trent.request_redeem(g, true).is_ok());
        assert_eq!(
            trent.request_refund(g).unwrap_err(),
            TrentError::AlreadyDecided(WitnessDecision::Redeem)
        );
        // The signature verifies under Trent's public key.
        let lock = SignatureLock::new(g, trent.public_key(), WitnessDecision::Redeem);
        assert!(ac3_crypto::CommitmentScheme::verify(&lock, &sig));
    }

    #[test]
    fn trent_refuses_redeem_without_verification() {
        let mut trent = Trent::new();
        let g = Hash256::digest(b"ms(D)");
        trent.register(g).unwrap();
        assert!(matches!(
            trent.request_redeem(g, false).unwrap_err(),
            TrentError::VerificationFailed(_)
        ));
        // The failed request does not consume the decision.
        assert!(trent.request_refund(g).is_ok());
    }

    #[test]
    fn trent_rejects_unregistered_and_unavailable() {
        let mut trent = Trent::new();
        let g = Hash256::digest(b"ms(D)");
        assert_eq!(trent.request_refund(g).unwrap_err(), TrentError::NotRegistered);
        trent.available = false;
        assert_eq!(trent.register(g).unwrap_err(), TrentError::Unavailable);
    }
}
