//! Golden encodings: the exact bytes the JSON codec writes for the values
//! that dominate the payload, contract-state and block-body paths.
//!
//! Every transaction id, Merkle root, paged-store page count and committed
//! fingerprint in the repository is a function of these bytes, so a codec
//! change that moves one of them is a consensus change. The expected files
//! under `tests/golden/` were re-captured once, by the change that made byte
//! strings base64 (codec version 2), against the id-blind digests of
//! `crates/core/tests/golden_fingerprints.rs`; before that they had held the
//! tree-based codec's bytes unchanged through the streaming rewrite. They
//! are not regenerated otherwise.
//!
//! The values come out of one committed two-party AC3WN swap, so they are
//! the real thing: an authorize call carrying header-range evidence for both
//! deployments, a redeem call carrying the witness-state evidence, the
//! witness contract's state, the swap's report, and a block as the paged
//! store writes it.

use ac3wn::chain::{Block, Transaction, TxKind};
use ac3wn::contracts::{
    codec, ContractCall, ContractState, PermissionlessCall, WitnessCall, WitnessStateEvidence,
};
use ac3wn::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::sync::Arc;

/// The call payloads of a chain's canonical transactions, oldest first,
/// each with the block that carries it.
fn calls(world: &World, chain: ChainId) -> Vec<(Arc<Block>, Transaction, ContractCall)> {
    let mut found = Vec::new();
    for block in world.chain(chain).unwrap().store().canonical_blocks() {
        for tx in &block.transactions {
            if let TxKind::Call { payload, .. } = &tx.kind {
                found.push((block.clone(), tx.clone(), codec::decode(payload).unwrap()));
            }
        }
    }
    found
}

fn assert_golden(name: &str, expected: &[u8], actual: &[u8]) {
    // Compare as text first: a failure then shows where the bytes diverge.
    assert_eq!(
        String::from_utf8_lossy(actual),
        String::from_utf8_lossy(expected),
        "{name}: encoding differs from tests/golden"
    );
    assert_eq!(actual, expected, "{name}: encoding differs from tests/golden");
}

/// `value` encodes to exactly `expected`, and `expected` decodes back to it.
fn assert_payload<T>(name: &str, expected: &[u8], value: &T)
where
    T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    assert_golden(name, expected, &codec::encode(value));
    assert_eq!(&codec::decode::<T>(expected).unwrap(), value, "{name}: decoding");
}

#[test]
fn encodings_match_the_committed_bytes() {
    let cfg = ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };
    let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
    let report = Ac3wn::new(cfg).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);

    // ContractCall::Witness(AuthorizeRedeem) with one evidence per edge.
    let witness_calls = calls(&s.world, s.witness_chain);
    let (authorize_block, authorize_tx, authorize) = witness_calls
        .iter()
        .find(|(_, _, call)| {
            matches!(call, ContractCall::Witness(WitnessCall::AuthorizeRedeem { .. }))
        })
        .expect("a committed swap authorizes the redeem");
    let ContractCall::Witness(WitnessCall::AuthorizeRedeem { deployments }) = authorize else {
        unreachable!()
    };
    assert_eq!(deployments.len(), 2);
    assert!(deployments.iter().all(|d| d.headers.len() >= 3), "evidence spans a header range");
    assert_payload("authorize_redeem", include_bytes!("golden/authorize_redeem.bin"), authorize);

    // PermissionlessCall::Redeem with the witness-state evidence.
    let asset_calls = calls(&s.world, s.asset_chains[0]);
    let redeem = asset_calls
        .iter()
        .find_map(|(_, _, call)| match call {
            ContractCall::Permissionless(call @ PermissionlessCall::Redeem { .. }) => Some(call),
            _ => None,
        })
        .expect("a committed swap redeems every edge");
    let PermissionlessCall::Redeem { evidence } = redeem else { unreachable!() };
    let WitnessStateEvidence { inclusion, .. } = evidence;
    assert_eq!(inclusion.tx.id(), authorize_tx.id());
    assert_payload("redeem", include_bytes!("golden/redeem.bin"), redeem);

    // ContractState::Witness, as the witness chain stores it.
    let TxKind::Call { contract, .. } = &authorize_tx.kind else { unreachable!() };
    let stored = &s.world.chain(s.witness_chain).unwrap().contract(contract).unwrap().state;
    let state: ContractState = codec::decode(stored).unwrap();
    assert!(matches!(state, ContractState::Witness(_)));
    assert_golden("witness_state", include_bytes!("golden/witness_state.bin"), stored);
    assert_payload("witness_state", include_bytes!("golden/witness_state.bin"), &state);

    // SwapReport, compact (as fingerprints hash it) and pretty.
    assert_golden(
        "swap_report",
        include_bytes!("golden/swap_report.json"),
        serde_json::to_string(&report).unwrap().as_bytes(),
    );
    assert_golden(
        "swap_report_pretty",
        include_bytes!("golden/swap_report_pretty.json"),
        serde_json::to_string_pretty(&report).unwrap().as_bytes(),
    );

    // A block body exactly as `PagedStore::insert_body` writes it: the block
    // that carries the authorize call.
    let expected = include_bytes!("golden/block_body.json");
    assert_golden("block_body", expected, &serde_json::to_vec(&**authorize_block).unwrap());
    let read: Block = serde_json::from_slice(expected).unwrap();
    assert_eq!(&read, &**authorize_block);
    assert_eq!(read.hash(), authorize_block.hash());
}
