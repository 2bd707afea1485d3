//! The `SwapVm`: the contract virtual machine installed on every simulated
//! chain, executing the paper's contract algorithms.
//!
//! The VM's universe of contracts is a closed enum — hashlock/timelock
//! contracts (the Nolan/Herlihy baselines, one hashlock per swap leader),
//! centralized AC3TW contracts (Algorithm 2),
//! permissionless AC3WN contracts (Algorithm 4) and witness contracts
//! (Algorithm 3). Deploy and call payloads are encoded with
//! [`crate::codec`]; the chain stores contract state as opaque bytes and
//! the VM decodes/encodes around every call.

use crate::centralized::{CentralizedCall, CentralizedSpec, CentralizedState};
use crate::codec;
use crate::multihtlc::{MultiHtlcCall, MultiHtlcSpec, MultiHtlcState};
use crate::permissionless::{PermissionlessCall, PermissionlessSpec, PermissionlessState};
use crate::witness::{WitnessCall, WitnessContractState, WitnessSpec};
use ac3_chain::{CallContext, CallOutcome, ContractVm, DeployContext, Payout, VmError};
use serde::{Deserialize, Serialize};

/// Deployment payload: which contract to instantiate and its constructor
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContractSpec {
    /// A hashlock/timelock contract (Nolan / Herlihy baselines).
    MultiHtlc(MultiHtlcSpec),
    /// An AC3TW contract guarded by the trusted witness's signatures.
    Centralized(CentralizedSpec),
    /// An AC3WN contract guarded by the witness contract's state.
    Permissionless(PermissionlessSpec),
    /// The witness-network coordination contract `SC_w`.
    Witness(WitnessSpec),
}

impl ContractSpec {
    /// Encode as a deployment payload.
    pub fn to_payload(&self) -> Vec<u8> {
        codec::encode(self)
    }
}

/// Function-call payload.
///
/// Variant payload sizes differ widely by design — calls are built once and
/// immediately serialized, so boxing the large variants would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContractCall {
    /// A call on a hashlock/timelock contract.
    MultiHtlc(MultiHtlcCall),
    /// A call on a centralized swap contract.
    Centralized(CentralizedCall),
    /// A call on a permissionless swap contract.
    Permissionless(PermissionlessCall),
    /// A call on the witness contract.
    Witness(WitnessCall),
}

impl ContractCall {
    /// Encode as a call payload.
    pub fn to_payload(&self) -> Vec<u8> {
        codec::encode(self)
    }
}

/// Persisted contract state (the VM's view of one deployed contract).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContractState {
    /// A hashlock/timelock contract.
    MultiHtlc(MultiHtlcState),
    /// A centralized swap contract.
    Centralized(CentralizedState),
    /// A permissionless swap contract.
    Permissionless(PermissionlessState),
    /// The witness contract.
    Witness(WitnessContractState),
}

impl ContractState {
    /// Decode persisted state bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, VmError> {
        codec::decode(bytes)
    }

    /// Encode for persistence.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// The short state tag ("P", "RD", "RF", "RDauth", "RFauth").
    pub fn tag(&self) -> String {
        match self {
            ContractState::MultiHtlc(s) => s.core.phase.tag().to_string(),
            ContractState::Centralized(s) => s.core.phase.tag().to_string(),
            ContractState::Permissionless(s) => s.core.phase.tag().to_string(),
            ContractState::Witness(s) => s.state_tag().to_string(),
        }
    }
}

/// The contract VM for the AC3WN reproduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwapVm;

impl SwapVm {
    /// Create the VM.
    pub fn new() -> Self {
        SwapVm
    }
}

impl ContractVm for SwapVm {
    fn deploy(&self, ctx: &DeployContext, payload: &[u8]) -> Result<Vec<u8>, VmError> {
        let spec: ContractSpec = codec::decode(payload)?;
        let state = match spec {
            // Every atomic-swap contract (all but the witness contract).
            ContractSpec::MultiHtlc(_)
            | ContractSpec::Centralized(_)
            | ContractSpec::Permissionless(_)
                if ctx.value == 0 =>
            {
                return Err(VmError::RequirementFailed(
                    "an atomic-swap contract must lock a non-zero asset".to_string(),
                ));
            }
            ContractSpec::MultiHtlc(spec) => {
                ContractState::MultiHtlc(MultiHtlcState::publish(ctx.sender, ctx.value, &spec)?)
            }
            ContractSpec::Centralized(spec) => {
                ContractState::Centralized(CentralizedState::publish(ctx.sender, ctx.value, &spec))
            }
            ContractSpec::Permissionless(spec) => ContractState::Permissionless(
                PermissionlessState::publish(ctx.sender, ctx.value, &spec),
            ),
            ContractSpec::Witness(spec) => {
                // The deployment must lock exactly the declared stake (zero
                // for the paper's unstaked base protocol), so the slashing
                // payout is always covered by the contract's locked value.
                if ctx.value != spec.stake {
                    return Err(VmError::RequirementFailed(format!(
                        "witness deployment locks {} but declares a stake of {}",
                        ctx.value, spec.stake
                    )));
                }
                ContractState::Witness(WitnessContractState::publish(spec)?)
            }
        };
        Ok(state.to_bytes())
    }

    fn call(
        &self,
        ctx: &CallContext,
        state: &[u8],
        payload: &[u8],
    ) -> Result<CallOutcome, VmError> {
        let state = ContractState::from_bytes(state)?;
        let call: ContractCall = codec::decode(payload)?;
        let (new_state, payouts) = match (state, call) {
            (ContractState::MultiHtlc(mut s), ContractCall::MultiHtlc(call)) => {
                let payout = match call {
                    MultiHtlcCall::Redeem { preimages } => s.redeem(ctx.sender, preimages)?,
                    MultiHtlcCall::Refund => s.refund(ctx.sender, ctx.now)?,
                };
                (ContractState::MultiHtlc(s), vec![payout])
            }
            (ContractState::Centralized(mut s), ContractCall::Centralized(call)) => {
                let payout = match call {
                    CentralizedCall::Redeem { signature } => s.redeem(&signature)?,
                    CentralizedCall::Refund { signature } => s.refund(&signature)?,
                };
                (ContractState::Centralized(s), vec![payout])
            }
            (ContractState::Permissionless(mut s), ContractCall::Permissionless(call)) => {
                let payout = match call {
                    PermissionlessCall::Redeem { evidence } => s.redeem(&evidence)?,
                    PermissionlessCall::Refund { evidence } => s.refund(&evidence)?,
                };
                (ContractState::Permissionless(s), vec![payout])
            }
            (ContractState::Witness(mut s), ContractCall::Witness(call)) => {
                let payouts = match call {
                    WitnessCall::AuthorizeRedeem { deployments } => {
                        s.authorize_redeem(&deployments, ctx.chain, ctx.contract)?;
                        vec![]
                    }
                    WitnessCall::AuthorizeRefund => {
                        s.authorize_refund()?;
                        vec![]
                    }
                    WitnessCall::ReportEquivocation { proof } => {
                        let stake = s.report_equivocation(&proof)?;
                        vec![Payout { to: ctx.sender, amount: stake }]
                    }
                };
                (ContractState::Witness(s), payouts)
            }
            (state, _) => {
                return Err(VmError::MalformedPayload(format!(
                    "call payload does not match contract kind ({})",
                    state.tag()
                )))
            }
        };
        Ok(CallOutcome { new_state: new_state.to_bytes(), payouts })
    }

    fn state_tag(&self, state: &[u8]) -> Option<String> {
        ContractState::from_bytes(state).ok().map(|s| s.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_chain::{Address, ChainId, ContractId, Timestamp};
    use ac3_crypto::{Hash256, Hashlock, KeyPair};

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    fn deploy_ctx(sender: Address, value: u64) -> DeployContext {
        DeployContext {
            chain: ChainId(0),
            sender,
            value,
            contract: ContractId(Hash256::digest(b"sc")),
            height: 1,
            now: 0,
        }
    }

    fn call_ctx(sender: Address, now: Timestamp) -> CallContext {
        CallContext {
            chain: ChainId(0),
            sender,
            contract: ContractId(Hash256::digest(b"sc")),
            height: 2,
            now,
        }
    }

    fn htlc_spec(secret: &[u8], timelock: Timestamp) -> ContractSpec {
        ContractSpec::MultiHtlc(MultiHtlcSpec {
            recipient: addr(b"bob"),
            hashlocks: vec![Hashlock::from_secret(secret).lock],
            timelock,
        })
    }

    #[test]
    fn htlc_lifecycle_through_the_vm() {
        let vm = SwapVm::new();
        let alice = addr(b"alice");
        let bob = addr(b"bob");

        let state =
            vm.deploy(&deploy_ctx(alice, 100), &htlc_spec(b"s", 10_000).to_payload()).unwrap();
        assert_eq!(vm.state_tag(&state).unwrap(), "P");

        let call =
            ContractCall::MultiHtlc(MultiHtlcCall::Redeem { preimages: vec![b"s".to_vec()] });
        let outcome = vm.call(&call_ctx(bob, 5_000), &state, &call.to_payload()).unwrap();
        assert_eq!(vm.state_tag(&outcome.new_state).unwrap(), "RD");
        assert_eq!(outcome.payouts, vec![Payout { to: bob, amount: 100 }]);
    }

    #[test]
    fn htlc_refund_respects_timelock_through_the_vm() {
        let vm = SwapVm::new();
        let alice = addr(b"alice");
        let state =
            vm.deploy(&deploy_ctx(alice, 50), &htlc_spec(b"s", 10_000).to_payload()).unwrap();
        let refund = ContractCall::MultiHtlc(MultiHtlcCall::Refund).to_payload();
        assert!(vm.call(&call_ctx(alice, 9_000), &state, &refund).is_err());
        let outcome = vm.call(&call_ctx(alice, 10_000), &state, &refund).unwrap();
        assert_eq!(vm.state_tag(&outcome.new_state).unwrap(), "RF");
        assert_eq!(outcome.payouts, vec![Payout { to: alice, amount: 50 }]);
    }

    #[test]
    fn zero_value_swap_contract_rejected() {
        let vm = SwapVm::new();
        let err = vm
            .deploy(&deploy_ctx(addr(b"alice"), 0), &htlc_spec(b"s", 1).to_payload())
            .unwrap_err();
        assert!(matches!(err, VmError::RequirementFailed(_)));
    }

    #[test]
    fn mismatched_call_kind_rejected() {
        let vm = SwapVm::new();
        let alice = addr(b"alice");
        let state =
            vm.deploy(&deploy_ctx(alice, 10), &htlc_spec(b"s", 1_000).to_payload()).unwrap();
        // A centralized call against an HTLC state is malformed.
        let trent = KeyPair::from_seed(b"trent");
        let call =
            ContractCall::Centralized(CentralizedCall::Refund { signature: trent.sign(b"x") });
        assert!(matches!(
            vm.call(&call_ctx(alice, 0), &state, &call.to_payload()).unwrap_err(),
            VmError::MalformedPayload(_)
        ));
    }

    #[test]
    fn garbage_payloads_rejected() {
        let vm = SwapVm::new();
        assert!(vm.deploy(&deploy_ctx(addr(b"a"), 1), b"junk").is_err());
        let state =
            vm.deploy(&deploy_ctx(addr(b"a"), 1), &htlc_spec(b"s", 1).to_payload()).unwrap();
        assert!(vm.call(&call_ctx(addr(b"a"), 0), &state, b"junk").is_err());
        assert_eq!(vm.state_tag(b"junk"), None);
    }

    #[test]
    fn centralized_lifecycle_through_the_vm() {
        use ac3_crypto::{SignatureLock, WitnessDecision};
        let vm = SwapVm::new();
        let alice = addr(b"alice");
        let trent = KeyPair::from_seed(b"trent");
        let graph = Hash256::digest(b"ms(D)");
        let spec = ContractSpec::Centralized(CentralizedSpec {
            recipient: addr(b"bob"),
            graph_digest: graph,
            witness_key: trent.public(),
        });
        let state = vm.deploy(&deploy_ctx(alice, 30), &spec.to_payload()).unwrap();
        assert_eq!(vm.state_tag(&state).unwrap(), "P");

        let sig = trent.sign(&SignatureLock::signed_message(&graph, WitnessDecision::Refund));
        let call = ContractCall::Centralized(CentralizedCall::Refund { signature: sig });
        let outcome = vm.call(&call_ctx(alice, 0), &state, &call.to_payload()).unwrap();
        assert_eq!(vm.state_tag(&outcome.new_state).unwrap(), "RF");
        assert_eq!(outcome.payouts, vec![Payout { to: alice, amount: 30 }]);
    }

    #[test]
    fn witness_contract_refund_path_through_the_vm() {
        use crate::evidence::{ChainAnchor, ExpectedContract};
        use ac3_chain::BlockHash;
        let vm = SwapVm::new();
        let alice = addr(b"alice");
        let spec = ContractSpec::Witness(WitnessSpec {
            participants: vec![alice, addr(b"bob")],
            graph_digest: Hash256::digest(b"ms(D)"),
            expected_contracts: vec![ExpectedContract {
                chain: ChainId(1),
                sender: alice,
                recipient: addr(b"bob"),
                amount: 10,
                anchor: ChainAnchor {
                    chain: ChainId(1),
                    hash: BlockHash::GENESIS_PARENT,
                    height: 0,
                },
                required_depth: 0,
            }],
            operator: None,
            stake: 0,
        });
        // The witness contract locks no value.
        let state = vm.deploy(&deploy_ctx(alice, 0), &spec.to_payload()).unwrap();
        assert_eq!(vm.state_tag(&state).unwrap(), "P");

        let call = ContractCall::Witness(WitnessCall::AuthorizeRefund);
        let outcome = vm.call(&call_ctx(alice, 0), &state, &call.to_payload()).unwrap();
        assert_eq!(vm.state_tag(&outcome.new_state).unwrap(), "RFauth");
        assert!(outcome.payouts.is_empty());

        // A second decision attempt fails: states are mutually exclusive.
        let redeem = ContractCall::Witness(WitnessCall::AuthorizeRedeem { deployments: vec![] });
        assert!(vm.call(&call_ctx(alice, 0), &outcome.new_state, &redeem.to_payload()).is_err());
    }

    #[test]
    fn staked_witness_slash_through_the_vm() {
        use crate::evidence::{ChainAnchor, EquivocationProof, ExpectedContract, SignedDecision};
        use ac3_chain::BlockHash;
        use ac3_crypto::WitnessDecision;

        let vm = SwapVm::new();
        let alice = addr(b"alice");
        let watchdog = addr(b"watchdog");
        let operator = KeyPair::from_seed(b"operator");
        let digest = Hash256::digest(b"ms(D)");
        let spec = ContractSpec::Witness(WitnessSpec {
            participants: vec![alice],
            graph_digest: digest,
            expected_contracts: vec![ExpectedContract {
                chain: ChainId(1),
                sender: alice,
                recipient: addr(b"bob"),
                amount: 10,
                anchor: ChainAnchor {
                    chain: ChainId(1),
                    hash: BlockHash::GENESIS_PARENT,
                    height: 0,
                },
                required_depth: 0,
            }],
            operator: Some(operator.public()),
            stake: 250,
        });

        // The locked value must match the declared stake exactly.
        assert!(vm.deploy(&deploy_ctx(alice, 0), &spec.to_payload()).is_err());
        assert!(vm.deploy(&deploy_ctx(alice, 500), &spec.to_payload()).is_err());
        let state = vm.deploy(&deploy_ctx(alice, 250), &spec.to_payload()).unwrap();

        let proof = EquivocationProof {
            first: SignedDecision::sign(&operator, digest, WitnessDecision::Redeem),
            second: SignedDecision::sign(&operator, digest, WitnessDecision::Refund),
        };
        let call = ContractCall::Witness(WitnessCall::ReportEquivocation { proof });
        let outcome = vm.call(&call_ctx(watchdog, 0), &state, &call.to_payload()).unwrap();
        assert_eq!(outcome.payouts, vec![Payout { to: watchdog, amount: 250 }]);

        // A duplicate report against the new state fails: one slash only.
        assert!(vm.call(&call_ctx(alice, 0), &outcome.new_state, &call.to_payload()).is_err());
    }

    #[test]
    fn state_round_trip_via_bytes() {
        let vm = SwapVm::new();
        let state_bytes =
            vm.deploy(&deploy_ctx(addr(b"alice"), 10), &htlc_spec(b"s", 99).to_payload()).unwrap();
        let decoded = ContractState::from_bytes(&state_bytes).unwrap();
        assert_eq!(decoded.to_bytes(), state_bytes);
        assert_eq!(decoded.tag(), "P");
    }
}
