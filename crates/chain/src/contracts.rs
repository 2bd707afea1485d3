//! The smart-contract execution abstraction.
//!
//! The paper treats a smart contract as "an object in programming languages"
//! with a state, a constructor and functions that may alter the state
//! (Section 2.3). The chain itself is agnostic to what the contracts do: it
//! only needs to (a) execute deployment and call messages when mining a
//! block, (b) persist the resulting state along the canonical chain, (c)
//! release locked assets when a contract orders a payout and (d) expose the
//! state (and the depth of its last change) to evidence queries.
//!
//! The concrete contract semantics — the paper's Algorithms 1 through 4 —
//! live in the `ac3-contracts` crate, which implements [`ContractVm`].

use crate::types::{Address, Amount, BlockHeight, ChainId, ContractId, Timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by a contract VM. The chain turns a VM error into a
/// rejected transaction (the contract state is left untouched), mirroring
/// how a failed `requires(...)` leaves a Solidity contract unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The deploy/call payload could not be decoded.
    MalformedPayload(String),
    /// The target contract does not exist.
    UnknownContract(ContractId),
    /// A `requires(...)` precondition failed (e.g. wrong state, bad secret).
    RequirementFailed(String),
    /// The caller is not authorised for this function.
    Unauthorized(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::MalformedPayload(m) => write!(f, "malformed contract payload: {m}"),
            VmError::UnknownContract(id) => write!(f, "unknown contract {id}"),
            VmError::RequirementFailed(m) => write!(f, "requirement failed: {m}"),
            VmError::Unauthorized(m) => write!(f, "unauthorized: {m}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Context available to a contract constructor (the implicit deployment
/// message parameters of Section 2.3: `msg.sender`, `msg.value`, plus where
/// and when the deployment is happening).
#[derive(Debug, Clone, Copy)]
pub struct DeployContext {
    /// The chain executing the deployment.
    pub chain: ChainId,
    /// `msg.sender`: the deploying end-user.
    pub sender: Address,
    /// `msg.value`: the asset value locked in the contract.
    pub value: Amount,
    /// The id assigned to the new contract.
    pub contract: ContractId,
    /// Height of the block containing the deployment.
    pub height: BlockHeight,
    /// Simulated time of the block.
    pub now: Timestamp,
}

/// Context available to a contract function call.
#[derive(Debug, Clone, Copy)]
pub struct CallContext {
    /// The chain executing the call.
    pub chain: ChainId,
    /// `msg.sender`: the calling end-user.
    pub sender: Address,
    /// The contract being called.
    pub contract: ContractId,
    /// Height of the block containing the call.
    pub height: BlockHeight,
    /// Simulated time of the block.
    pub now: Timestamp,
}

/// A transfer of locked assets out of a contract, ordered by a contract
/// function (e.g. `transfer a to r` in Algorithm 1's redeem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Payout {
    /// The recipient.
    pub to: Address,
    /// The amount released from the contract's locked value.
    pub amount: Amount,
}

/// The result of a successful contract call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CallOutcome {
    /// The new serialized contract state.
    pub new_state: Vec<u8>,
    /// Payouts to materialise as new unspent outputs.
    pub payouts: Vec<Payout>,
}

/// A contract virtual machine: decodes payloads and executes the contract
/// logic. Implementations must be deterministic — every simulated miner
/// replays the same messages and must reach the same state.
pub trait ContractVm: Send + Sync {
    /// Execute a deployment, returning the initial serialized state.
    fn deploy(&self, ctx: &DeployContext, payload: &[u8]) -> Result<Vec<u8>, VmError>;

    /// Execute a function call against the current serialized state.
    fn call(&self, ctx: &CallContext, state: &[u8], payload: &[u8])
        -> Result<CallOutcome, VmError>;

    /// A short, human-readable tag describing the state (e.g. "P",
    /// "RDauth", "RFauth", "RD", "RF"). Used by cross-chain state queries
    /// and by the metrics layer. Returns `None` if the state bytes are not
    /// recognised.
    fn state_tag(&self, state: &[u8]) -> Option<String>;
}

/// A shared, dynamically-dispatched VM handle as stored by [`crate::chain::Blockchain`].
pub type VmHandle = Arc<dyn ContractVm>;

/// The record a chain keeps for every deployed contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractRecord {
    /// The contract id (deployment transaction id).
    pub id: ContractId,
    /// The deploying end-user.
    pub owner: Address,
    /// Serialized current state.
    pub state: Vec<u8>,
    /// Asset value still locked in the contract.
    pub locked_value: Amount,
    /// Height of the block that deployed the contract.
    pub deployed_at: BlockHeight,
    /// Height of the block that last changed the contract state.
    pub last_update: BlockHeight,
}

/// A minimal key/value VM used by chain-level unit tests: the deploy payload
/// is the initial value, a call payload replaces the value, and a call
/// payload beginning with `b"payout:"` releases the full locked amount to
/// the caller. Kept here (rather than in test code) so other crates'
/// tests can reuse it.
#[derive(Debug, Clone, Copy, Default)]
pub struct EchoVm;

impl ContractVm for EchoVm {
    fn deploy(&self, _ctx: &DeployContext, payload: &[u8]) -> Result<Vec<u8>, VmError> {
        Ok(payload.to_vec())
    }

    fn call(
        &self,
        ctx: &CallContext,
        state: &[u8],
        payload: &[u8],
    ) -> Result<CallOutcome, VmError> {
        if state == b"spent" {
            return Err(VmError::RequirementFailed("contract already spent".to_string()));
        }
        if let Some(rest) = payload.strip_prefix(b"payout:") {
            let amount: Amount = String::from_utf8_lossy(rest)
                .parse()
                .map_err(|_| VmError::MalformedPayload("bad payout amount".to_string()))?;
            return Ok(CallOutcome {
                new_state: b"spent".to_vec(),
                payouts: vec![Payout { to: ctx.sender, amount }],
            });
        }
        Ok(CallOutcome { new_state: payload.to_vec(), payouts: vec![] })
    }

    fn state_tag(&self, state: &[u8]) -> Option<String> {
        Some(String::from_utf8_lossy(state).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_crypto::{Hash256, KeyPair};

    fn ctx_pair() -> (DeployContext, CallContext) {
        let sender = Address::from(KeyPair::from_seed(b"alice").public());
        let contract = ContractId(Hash256::digest(b"sc"));
        (
            DeployContext { chain: ChainId(0), sender, value: 10, contract, height: 1, now: 0 },
            CallContext { chain: ChainId(0), sender, contract, height: 2, now: 1000 },
        )
    }

    #[test]
    fn echo_vm_round_trips_state() {
        let (d, c) = ctx_pair();
        let vm = EchoVm;
        let state = vm.deploy(&d, b"initial").unwrap();
        assert_eq!(vm.state_tag(&state).unwrap(), "initial");
        let outcome = vm.call(&c, &state, b"updated").unwrap();
        assert_eq!(outcome.new_state, b"updated");
        assert!(outcome.payouts.is_empty());
    }

    #[test]
    fn echo_vm_payout_releases_to_caller() {
        let (d, c) = ctx_pair();
        let vm = EchoVm;
        let state = vm.deploy(&d, b"locked").unwrap();
        let outcome = vm.call(&c, &state, b"payout:10").unwrap();
        assert_eq!(outcome.payouts, vec![Payout { to: c.sender, amount: 10 }]);
        // Second spend fails.
        assert!(vm.call(&c, &outcome.new_state, b"payout:10").is_err());
    }

    #[test]
    fn echo_vm_rejects_malformed_payout() {
        let (_, c) = ctx_pair();
        let vm = EchoVm;
        assert!(matches!(
            vm.call(&c, b"s", b"payout:not-a-number").unwrap_err(),
            VmError::MalformedPayload(_)
        ));
    }

    #[test]
    fn vm_error_display() {
        let e = VmError::RequirementFailed("state != P".to_string());
        assert!(e.to_string().contains("state != P"));
    }
}
