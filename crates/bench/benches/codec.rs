//! Criterion bench of the JSON codec on the two shapes that carry nearly
//! all of its bytes: an AC3WN authorize call whose deployment evidence spans
//! a 200-header range (what `codec::encode` / `codec::decode` see on the
//! witness chain), and a block body carrying that call (what the paged
//! store writes and reads). Throughput is MiB/s of encoded text.

use ac3_chain::Block;
use ac3_contracts::{codec, ContractCall, ContractSpec, HtlcSpec, WitnessCall};
use ac3_core::actions::deploy_contract;
use ac3_core::scenario::{two_party_scenario, ScenarioConfig};
use ac3_crypto::Hashlock;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const HEADER_RANGE: u64 = 200;

/// An authorize call with one deployment evidence over [`HEADER_RANGE`]
/// headers, and a block carrying it as a signed call transaction.
fn authorize_and_block() -> (ContractCall, Block) {
    let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
    let alice = s.participants.get("alice").unwrap().address();
    let bob = s.participants.get("bob").unwrap().address();
    let chain = s.asset_chains[0];
    let anchor = s.world.anchor(chain).unwrap();
    let spec = ContractSpec::Htlc(HtlcSpec {
        recipient: bob,
        hashlock: Hashlock::from_secret(b"s").lock,
        timelock: u64::MAX,
    });
    let (deploy_txid, contract) =
        deploy_contract(&mut s.world, &mut s.participants, &alice, chain, &spec, 50)
            .unwrap()
            .expect("alice is up and the chain reachable");
    s.world.advance_blocks(chain, HEADER_RANGE).unwrap();
    let evidence = s.world.tx_evidence_since(chain, &anchor, deploy_txid).unwrap();
    assert!(evidence.headers.len() as u64 >= HEADER_RANGE);
    let call = ContractCall::Witness(WitnessCall::AuthorizeRedeem { deployments: vec![evidence] });

    let tx = s.participants.get_mut("alice").unwrap().builder(s.witness_chain).call(
        contract,
        call.to_payload(),
        2,
    );
    let header = s.world.chain(s.witness_chain).unwrap().tip_header();
    (call, Block { header, transactions: vec![tx] })
}

fn bench_codec(c: &mut Criterion) {
    let (call, block) = authorize_and_block();
    let payload = codec::encode(&call);
    let body = serde_json::to_vec(&block).unwrap();
    assert_eq!(codec::decode::<ContractCall>(&payload).unwrap(), call);
    assert_eq!(serde_json::from_slice::<Block>(&body).unwrap(), block);

    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("encode/authorize_200_headers", |b| {
        b.iter(|| codec::encode(black_box(&call)))
    });
    group.bench_function("decode/authorize_200_headers", |b| {
        b.iter(|| codec::decode::<ContractCall>(black_box(&payload)).unwrap())
    });
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_function("encode/block_body", |b| {
        b.iter(|| serde_json::to_vec(black_box(&block)).unwrap())
    });
    group.bench_function("decode/block_body", |b| {
        b.iter(|| serde_json::from_slice::<Block>(black_box(&body)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
