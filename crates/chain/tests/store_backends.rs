//! Cross-backend differential suite: the paged, file-backed block store must
//! be observationally identical to the in-memory store.
//!
//! Twin chains — one per backend — are driven through identical random
//! sequences of payments, tip extensions, fork mining and reorgs (the block
//! mined on one backend is fed to the other via `accept_block`, alternating
//! which side mines so both backends exercise both the mining and the
//! acceptance path). After every step the fork choice must agree exactly;
//! at the end the canonical chain, the derived state and the transaction
//! index must be bitwise identical — even with a buffer pool of only 4 tiny
//! pages, under every replacement policy, with eviction demonstrably
//! exercised.

use ac3_chain::{
    Address, Amount, BlockHash, Blockchain, ChainId, ChainParams, EchoVm, PolicyKind, StoreConfig,
    TxBuilder, TxId,
};
use ac3_crypto::{merkle, KeyPair, MerkleTree};
use ac3_seeded::{check, Gen};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn addr(seed: &[u8]) -> Address {
    Address::from(KeyPair::from_seed(seed).public())
}

/// Twin chains with identical genesis: one on the in-memory backend, one on
/// a deliberately tiny paged pool so eviction churns constantly.
fn twin_chains(policy: PolicyKind, allocs: &[(Address, Amount)]) -> (Blockchain, Blockchain) {
    let memory = Blockchain::with_store_config(
        ChainId(0),
        ChainParams::test("backends"),
        Arc::new(EchoVm),
        allocs,
        StoreConfig::Memory,
    );
    let paged = Blockchain::with_store_config(
        ChainId(0),
        ChainParams::test("backends"),
        Arc::new(EchoVm),
        allocs,
        StoreConfig::Paged { pool_pages: 4, page_size: 512, policy },
    );
    (memory, paged)
}

/// The highest tip off the canonical chain, if the store holds a fork.
fn longest_fork_tip(chain: &Blockchain) -> Option<BlockHash> {
    let store = chain.store();
    store
        .tips()
        .into_iter()
        .filter(|t| *t != chain.tip())
        .max_by_key(|t| store.header(t).expect("a tip is stored").height)
}

/// Everything observable must match: fork choice, canonical chain, headers,
/// derived state, transaction index.
fn assert_backends_agree(memory: &Blockchain, paged: &Blockchain, context: &str) {
    assert_eq!(memory.tip(), paged.tip(), "tip diverged ({context})");
    assert_eq!(memory.height(), paged.height(), "height diverged ({context})");
    assert_eq!(
        memory.store().canonical_hashes(),
        paged.store().canonical_hashes(),
        "canonical chain diverged ({context})"
    );
    assert_eq!(memory.state(), paged.state(), "derived state diverged ({context})");
}

/// What a random history left behind for the end-of-run checks.
struct History {
    /// Every transaction submitted, canonical or not.
    submitted: Vec<TxId>,
    /// Steps after which the pre-step tip had left the canonical chain.
    reorgs: u32,
}

/// Drive twin chains through `steps` random steps of payments, tip
/// extensions, fork mining and reorgs drawn from `gen`, checking after every
/// step that the backends agree.
fn random_fork_history(
    gen: &mut Gen,
    memory: &mut Blockchain,
    paged: &mut Blockchain,
    steps: u64,
    context: &str,
) -> History {
    let alice = addr(b"alice");
    let bob = addr(b"bob");
    let miner = addr(b"miner");
    let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
    let mut history = History { submitted: Vec::new(), reorgs: 0 };

    for step in 0..steps {
        let now = 1_000 * (step + 1);
        let roll = gen.below(10);
        if roll < 6 {
            // Extend the canonical tip, sometimes with a payment. The
            // transaction is built once and submitted to both chains.
            if roll < 3 {
                if let Some((inputs, outputs)) =
                    memory.plan_payment(&alice, &bob, 1 + gen.below(40), 1)
                {
                    let tx = builder.transfer(inputs, outputs, 1);
                    history.submitted.push(tx.id());
                    memory.submit(tx.clone()).unwrap();
                    paged.submit(tx).unwrap();
                }
            }
            let (a, b) = if step % 2 == 0 {
                (&mut *memory, &mut *paged)
            } else {
                (&mut *paged, &mut *memory)
            };
            let block = a.mine_block(miner, now).unwrap();
            b.accept_block(block).unwrap();
        } else {
            // Mine on an ancestor, or grow the longest competing fork
            // until it overtakes the canonical tip: a tie never reorgs
            // under first-seen fork choice.
            let tip_before = memory.tip();
            let (mut parent, overtake) = if roll == 9 {
                (longest_fork_tip(memory).unwrap_or(tip_before), true)
            } else {
                let depth = 1 + gen.below(5);
                let height = memory.height().saturating_sub(depth);
                (memory.store().canonical_block_at_height(height).unwrap(), false)
            };
            let (a, b) = if step % 2 == 0 {
                (&mut *memory, &mut *paged)
            } else {
                (&mut *paged, &mut *memory)
            };
            loop {
                let block = a.mine_block_on(parent, miner, now).unwrap();
                parent = b.accept_block(block).unwrap();
                if !overtake || a.tip() == parent {
                    break;
                }
            }
            history.reorgs += u32::from(!memory.store().is_canonical(&tip_before));
        }
        assert_backends_agree(memory, paged, &format!("{context} step {step}"));
    }
    history
}

#[test]
fn random_fork_histories_are_identical_across_backends() {
    let alice = addr(b"alice");
    let bob = addr(b"bob");

    for policy in PolicyKind::all() {
        check(&format!("store_backends::{}", policy.name()), 1, |gen| {
            let (mut memory, mut paged) = twin_chains(policy, &[(alice, 100_000), (bob, 50_000)]);
            let History { submitted, reorgs: reorgs_seen } =
                random_fork_history(gen, &mut memory, &mut paged, 100, policy.name());

            // The transaction index agrees for every transaction ever submitted
            // (canonical location or absence alike).
            for txid in &submitted {
                assert_eq!(
                    memory.store().find_canonical_tx(txid),
                    paged.store().find_canonical_tx(txid),
                    "tx index diverged under {}",
                    policy.name()
                );
            }
            // Header evidence from genesis agrees.
            let genesis = memory.store().canonical_block_at_height(0).unwrap();
            assert_eq!(
                memory.headers_since(&genesis),
                paged.headers_since(&genesis),
                "header evidence diverged under {}",
                policy.name()
            );
            assert!(
                reorgs_seen > 0,
                "history under {} never reorged — test lost its teeth",
                policy.name()
            );

            // The tiny pool really was under pressure: the chain outgrew it by
            // an order of magnitude and eviction ran.
            let stats = paged.store_stats();
            assert_eq!(stats.backend, "paged");
            assert!(
                stats.bytes_stored > 10 * 4 * 512,
                "chain must outgrow the pool ≥10×, got {} bytes under {}",
                stats.bytes_stored,
                policy.name()
            );
            assert!(stats.evictions > 0, "eviction never ran under {}", policy.name());
            assert!(stats.hits + stats.misses > 0);
            assert_eq!(memory.store_stats().backend, "memory");
        });
    }
}

/// Every canonical transaction's inclusion evidence equals the evidence
/// rebuilt from its block's canonical bytes, and the transaction index
/// equals a scan of the canonical bodies, for the transactions of every
/// stored block, canonical or not.
fn assert_evidence_matches_bodies(chain: &Blockchain, context: &str) {
    let store = chain.store();
    let mut scanned: HashMap<TxId, (BlockHash, usize)> = HashMap::new();
    for block in store.canonical_blocks() {
        let leaves: Vec<Vec<u8>> =
            block.transactions.iter().map(|tx| tx.clone().canonical_bytes()).collect();
        let tree = MerkleTree::from_leaves(&leaves);
        for (index, tx) in block.transactions.iter().enumerate() {
            scanned.insert(tx.id(), (block.hash(), index));
            let inclusion = chain.tx_inclusion(&tx.id()).expect("a canonical tx has evidence");
            assert_eq!(inclusion.header, block.header, "evidence header ({context})");
            assert_eq!(Some(&inclusion.proof), tree.prove(index).as_ref(), "proof ({context})");
            assert!(inclusion
                .proof
                .verify_hash(&inclusion.header.tx_root, &merkle::leaf_hash(&leaves[index])));
            assert_eq!(inclusion.depth, chain.height() - block.header.height);
        }
    }
    let mut seen = HashSet::new();
    for tip in store.tips() {
        let mut cursor = Some(tip);
        while let Some(hash) = cursor.filter(|h| seen.insert(*h)) {
            let block = store.get(&hash).expect("a stored block has a body");
            for tx in &block.transactions {
                assert_eq!(
                    store.find_canonical_tx(&tx.id()),
                    scanned.get(&tx.id()).copied(),
                    "tx index of {} ({context})",
                    tx.id()
                );
            }
            cursor = (!block.header.is_genesis()).then_some(block.header.parent);
        }
    }
    assert_eq!(seen.len(), store.len(), "every stored block was checked ({context})");
}

#[test]
fn inclusion_evidence_and_tx_index_match_the_canonical_bodies() {
    let name = "store_backends::inclusion_evidence_and_tx_index_match_the_canonical_bodies";
    check(name, 96, |g| {
        let (seed, steps) = (g.next_u64(), 10 + g.below(30));
        let policy = PolicyKind::all()[(seed % 3) as usize];
        let (mut memory, mut paged) =
            twin_chains(policy, &[(addr(b"alice"), 100_000), (addr(b"bob"), 50_000)]);
        let context = format!("seed {seed}, {}", policy.name());
        random_fork_history(g, &mut memory, &mut paged, steps, &context);
        for chain in [&memory, &paged] {
            assert_evidence_matches_bodies(
                chain,
                &format!("{context}, {}", chain.store().stats().backend),
            );
        }
    });
}
