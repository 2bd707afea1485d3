//! Low-level participant actions shared by all protocol drivers: deploying a
//! swap contract, calling a contract function, and reading back an edge's
//! disposition. Every action respects the fault model — a crashed
//! participant or an unreachable chain makes the action silently fail (the
//! action returns `Ok(None)`), exactly like a real participant who cannot
//! reach their blockchain.

use crate::protocol::{EdgeDisposition, ProtocolError};
use ac3_chain::{Address, Amount, ChainId, ContractId, TxId};
use ac3_contracts::{ContractCall, ContractSpec};
use ac3_sim::{ChainApi, ParticipantSet};

/// Attempt to deploy a contract as `owner`, locking `lock` and paying the
/// chain's deployment fee (one-shot, fixed-fee — the non-bidding wrapper
/// around [`crate::fee::BidBook::submit_deploy`]).
///
/// Returns `Ok(None)` when the owner is crashed or the chain is unreachable
/// — the caller decides what that means for the protocol (usually "this
/// participant declined/failed to publish").
pub fn deploy_contract(
    world: &mut dyn ChainApi,
    participants: &mut ParticipantSet,
    owner: &Address,
    chain: ChainId,
    spec: &ContractSpec,
    lock: Amount,
) -> Result<Option<(TxId, ContractId)>, ProtocolError> {
    let mut book = crate::fee::BidBook::new(crate::fee::FeePolicy::Fixed);
    Ok(book
        .submit_deploy(world, participants, owner, chain, spec, lock)?
        .map(|(txid, contract, _)| (txid, contract)))
}

/// Attempt a contract function call as `caller`, paying the chain's call
/// fee (one-shot, fixed-fee — the non-bidding wrapper around
/// [`crate::fee::BidBook::submit_call`]). Returns `Ok(None)` when the
/// caller is crashed or the chain is unreachable.
pub fn call_contract(
    world: &mut dyn ChainApi,
    participants: &mut ParticipantSet,
    caller: &Address,
    chain: ChainId,
    contract: ContractId,
    call: &ContractCall,
) -> Result<Option<TxId>, ProtocolError> {
    let mut book = crate::fee::BidBook::new(crate::fee::FeePolicy::Fixed);
    Ok(book.submit_call(world, participants, caller, chain, contract, call)?.map(|(txid, _)| txid))
}

/// Read the disposition of an edge's contract from the chain.
pub fn edge_disposition(
    world: &dyn ChainApi,
    chain: ChainId,
    contract: Option<ContractId>,
) -> EdgeDisposition {
    match contract {
        None => EdgeDisposition::Unpublished,
        Some(id) => match world.contract_state(chain, id) {
            Some((tag, _)) => {
                EdgeDisposition::from_tag(&tag).unwrap_or(EdgeDisposition::Unpublished)
            }
            None => EdgeDisposition::Unpublished,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{two_party_scenario, ScenarioConfig};
    use ac3_contracts::MultiHtlcSpec;
    use ac3_crypto::Hashlock;
    use ac3_sim::CrashWindow;

    fn htlc_spec(recipient: Address) -> ContractSpec {
        ContractSpec::MultiHtlc(MultiHtlcSpec {
            recipient,
            hashlocks: vec![Hashlock::from_secret(b"s").lock],
            timelock: 1_000_000,
        })
    }

    #[test]
    fn deploy_and_read_disposition() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let alice = s.participants.get("alice").unwrap().address();
        let bob = s.participants.get("bob").unwrap().address();
        let chain = s.asset_chains[0];

        let (txid, contract) =
            deploy_contract(&mut s.world, &mut s.participants, &alice, chain, &htlc_spec(bob), 50)
                .unwrap()
                .expect("alice is available");
        s.world.wait_for_depth(chain, txid, 0, 60_000).unwrap();
        assert_eq!(edge_disposition(&s.world, chain, Some(contract)), EdgeDisposition::Locked);
        assert_eq!(edge_disposition(&s.world, chain, None), EdgeDisposition::Unpublished);
    }

    #[test]
    fn crashed_participant_cannot_deploy() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let alice = s.participants.get("alice").unwrap().address();
        let bob = s.participants.get("bob").unwrap().address();
        s.participants.get_mut("alice").unwrap().schedule_crash(CrashWindow::permanent(0));
        let result = deploy_contract(
            &mut s.world,
            &mut s.participants,
            &alice,
            s.asset_chains[0],
            &htlc_spec(bob),
            50,
        )
        .unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn insufficient_funds_is_an_error() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let alice = s.participants.get("alice").unwrap().address();
        let bob = s.participants.get("bob").unwrap().address();
        let err = deploy_contract(
            &mut s.world,
            &mut s.participants,
            &alice,
            s.asset_chains[0],
            &htlc_spec(bob),
            10_000_000,
        )
        .unwrap_err();
        assert!(matches!(err, ProtocolError::InsufficientFunds { .. }));
    }

    #[test]
    fn unknown_participant_is_an_error() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let stranger = Address::from(ac3_crypto::KeyPair::from_seed(b"stranger").public());
        let bob = s.participants.get("bob").unwrap().address();
        let err = deploy_contract(
            &mut s.world,
            &mut s.participants,
            &stranger,
            s.asset_chains[0],
            &htlc_spec(bob),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownParticipant(_)));
    }
}
