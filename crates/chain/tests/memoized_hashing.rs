//! Memoized transaction hashing must be invisible.
//!
//! A transaction instance remembers its canonical bytes, id, Merkle leaf and
//! signature verdict. These tests pin what that memo may never change: a
//! block's Merkle root and inclusion proofs equal the from-scratch
//! computation over canonical bytes, whatever mix of warm, cold, tampered,
//! unsigned and coinbase transactions the block holds; a block mined from
//! the mempool re-validates on a fresh chain; and a tampered copy of a
//! pending transaction is refused even though the pending original was
//! verified at admission.

use ac3_chain::{
    coinbase, Address, Amount, Block, BlockHeader, Blockchain, ChainError, ChainId, ChainParams,
    ContractId, EchoVm, OutPoint, Transaction, TxBuilder, TxId, TxKind, TxOutput, UtxoError,
};
use ac3_crypto::{Hash256, KeyPair, MerkleTree};
use proptest::prelude::*;
use std::sync::Arc;

fn addr(seed: &[u8]) -> Address {
    Address::from(KeyPair::from_seed(seed).public())
}

/// One transaction of the shape `shape % 4` selects: signed, tampered after
/// signing, unsigned, or coinbase. `warm` observes its memoized values
/// before it is used; every third transaction is a cold clone instead.
fn arbitrary_tx(builder: &mut TxBuilder, shape: u8, seed: u64, warm: bool) -> Transaction {
    let outpoint = OutPoint::new(TxId(Hash256::digest(&seed.to_be_bytes())), (seed % 3) as u32);
    let output = TxOutput::new(addr(&seed.to_le_bytes()), seed % 1_000);
    let tx = match shape % 4 {
        0 => builder.transfer(vec![outpoint], vec![output], seed % 7),
        1 => {
            let mut tx = builder.call(ContractId(outpoint.txid.0), seed.to_be_bytes().to_vec(), 1);
            tx.fee += 1;
            tx
        }
        2 => {
            let mut tx = builder.deploy(vec![outpoint], seed % 50, vec![output], vec![], 2);
            tx.signature = None;
            tx
        }
        _ => coinbase(output.owner, output.value, seed),
    };
    if warm {
        let _ = (tx.id(), tx.signature_valid(), Block::compute_tx_root(std::slice::from_ref(&tx)));
    }
    if seed.is_multiple_of(3) {
        tx.clone()
    } else {
        tx
    }
}

proptest! {
    #[test]
    fn memoized_roots_and_proofs_match_canonical_bytes(
        shapes in proptest::collection::vec(any::<u8>(), 0..24),
        seed in any::<u64>(),
        warm in any::<bool>(),
    ) {
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"prop-signer"), seed);
        let txs: Vec<Transaction> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| arbitrary_tx(&mut builder, *s, seed.wrapping_add(i as u64), warm))
            .collect();
        // The reference: leaves from the canonical bytes of cold copies.
        let leaves: Vec<Vec<u8>> = txs.iter().map(|t| t.clone().canonical_bytes()).collect();
        let expected = MerkleTree::from_leaves(&leaves).root();
        prop_assert_eq!(Block::compute_tx_root(&txs), expected);
        // Asking again (now from whatever the first call memoized) agrees.
        prop_assert_eq!(Block::compute_tx_root(&txs), expected);

        let header = BlockHeader {
            chain: ChainId(0),
            parent: ac3_chain::BlockHash::GENESIS_PARENT,
            tx_root: expected,
            height: 0,
            timestamp: 0,
            target: Hash256::MAX,
            nonce: 0,
        };
        let block = Block { header, transactions: txs };
        prop_assert!(block.tx_root_valid());
        let tree = block.tx_tree();
        prop_assert_eq!(tree.root(), expected);
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).expect("index in range");
            prop_assert!(proof.verify(&block.header.tx_root, leaf), "leaf {} of {}", i, leaves.len());
        }
    }
}

fn chain_pair(allocs: &[(Address, Amount)]) -> (Blockchain, Blockchain) {
    let make = || Blockchain::new(ChainId(0), ChainParams::test("memo"), Arc::new(EchoVm), allocs);
    (make(), make())
}

#[test]
fn mined_blocks_revalidate_on_a_fresh_chain() {
    let alice = addr(b"alice");
    let bob = addr(b"bob");
    let miner = addr(b"miner");
    let (mut chain, mut fresh) = chain_pair(&[(alice, 10_000), (bob, 500)]);
    let mut alice_b = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
    let mut bob_b = TxBuilder::new(KeyPair::from_seed(b"bob"), 0);

    let mut contract = ContractId(Hash256::ZERO);
    for i in 0..12u64 {
        match i {
            2 => {
                let (inputs, change) = chain.plan_deploy(&alice, 100, 2).unwrap();
                let deploy = alice_b.deploy(inputs, 100, change, b"locked".to_vec(), 2);
                contract = ContractId(deploy.id().0);
                chain.submit(deploy).unwrap();
            }
            5 => {
                chain.submit(bob_b.call(contract, b"payout:40".to_vec(), 1)).unwrap();
            }
            _ => {
                let (inputs, outputs) = chain.plan_payment(&alice, &bob, 10 + i, 1).unwrap();
                chain.submit(alice_b.transfer(inputs, outputs, 1)).unwrap();
            }
        }
        let block = chain.mine_block(miner, 1_000 * (i + 1)).unwrap();
        assert_eq!(fresh.accept_block(block).unwrap(), chain.tip(), "block {i}");
    }
    assert_eq!(fresh.tip(), chain.tip());
    assert_eq!(fresh.state(), chain.state());
    assert_eq!(chain.height(), 12);
    assert_eq!(chain.mempool_len(), 0, "every submission was mined");
    // Inclusion proofs served from the stored (mined) instances verify.
    for hash in chain.store().canonical_hashes() {
        let block = chain.store().get(hash).unwrap();
        for tx in &block.transactions {
            let inclusion = chain.tx_inclusion(&tx.id()).unwrap();
            let leaf = tx.clone().canonical_bytes();
            assert!(inclusion.proof.verify(&inclusion.header.tx_root, &leaf));
        }
    }
}

#[test]
fn a_block_carrying_a_tampered_copy_of_a_pending_tx_is_rejected() {
    let alice = addr(b"alice");
    let bob = addr(b"bob");
    let eve = addr(b"eve");
    let miner = addr(b"miner");
    let (mut chain, mut fresh) = chain_pair(&[(alice, 1_000)]);
    let mut alice_b = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

    let (inputs, outputs) = chain.plan_payment(&alice, &bob, 40, 1).unwrap();
    let pending = alice_b.transfer(inputs, outputs, 1);
    // Admission verifies (and memoizes on) the pool's own instance.
    chain.submit(pending.clone()).unwrap();
    assert!(chain.mempool_contains(&pending.id()));

    // Redirect the payment to eve on a copy and seal it into a block whose
    // Merkle root is honest about the forged body.
    let mut forged = pending.clone();
    if let TxKind::Transfer { outputs, .. } = &mut forged.kind {
        outputs[0] = TxOutput::new(eve, 40);
    }
    let height = chain.height() + 1;
    let transactions = vec![coinbase(miner, chain.params().block_reward + 1, height), forged];
    let header = BlockHeader {
        chain: chain.id(),
        parent: chain.tip(),
        tx_root: Block::compute_tx_root(&transactions),
        height,
        timestamp: 1_000,
        target: chain.params().target(),
        nonce: 0,
    };
    let block = Block { header, transactions };
    for target in [&mut chain, &mut fresh] {
        let err = target.accept_block(block.clone()).unwrap_err();
        assert_eq!(err, ChainError::Utxo(UtxoError::MissingSender), "forged signature accepted");
        assert_eq!(target.height(), 0);
    }

    // The genuine transaction is still pending and mines normally.
    assert!(chain.mempool_contains(&pending.id()));
    let mined = chain.mine_block(miner, 2_000).unwrap();
    assert!(mined.find_tx(&pending.id()).is_some());
    assert_eq!(chain.balance_of(&bob), 40);
    assert_eq!(chain.balance_of(&eve), 0);
    fresh.accept_block(mined).unwrap();
    assert_eq!(fresh.tip(), chain.tip());
}
