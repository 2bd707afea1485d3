//! Integration tests for complex transaction graphs (Figure 7 / Section 5.3)
//! and the in-contract cross-chain evidence validation (Section 4.3).

use ac3wn::core::scenario::custom_scenario;
use ac3wn::prelude::*;

fn protocol_cfg() -> ProtocolConfig {
    ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() }
}

#[test]
fn figure7a_cyclic_graph_commits_under_ac3wn() {
    let mut s = figure7a_scenario(&ScenarioConfig::default());
    assert_eq!(s.graph.shape(), GraphShape::Cyclic);
    let report = Ac3wn::new(protocol_cfg()).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    // One contract per edge plus the witness contract.
    assert_eq!(report.deployments as usize, s.graph.contract_count() + 1);
}

#[test]
fn figure7b_disconnected_graph_commits_under_ac3wn_but_not_herlihy() {
    let mut s = figure7b_scenario(&ScenarioConfig::default());
    assert_eq!(s.graph.shape(), GraphShape::Disconnected);
    assert!(Herlihy::supports_graph(&s.graph).is_err());
    let report = Ac3wn::new(protocol_cfg()).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
}

#[test]
fn larger_supply_chain_graph_commits_atomically() {
    let mut s = custom_scenario(
        &["manufacturer", "shipper", "retailer", "insurer", "bank"],
        &[(0, 1, 40), (1, 2, 40), (2, 0, 90), (3, 1, 15), (1, 3, 5), (4, 0, 25), (2, 4, 25)],
        &ScenarioConfig::default(),
    );
    let report = Ac3wn::new(protocol_cfg()).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    assert_eq!(report.edges.len(), 7);
    assert!(report.edges.iter().all(|e| e.disposition == EdgeDisposition::Redeemed));
}

#[test]
fn contract_evidence_verifies_a_real_swap_deployment() {
    // Run a swap, then check the deployment transaction of the first asset
    // contract the way a validator contract does (Section 4.3): evidence
    // built from the stable anchor it stored, verified at a burial depth.
    let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
    let chain = s.asset_chains[0];
    let anchor = s.world.anchor(chain).unwrap();
    let report = Ac3wn::new(protocol_cfg()).execute(&mut s).unwrap();
    assert!(report.is_atomic());

    // Find the deployment transaction of the contract on chain A.
    let contract = report.edges[0].contract.expect("deployed");
    let evidence = s.world.tx_evidence_since(chain, &anchor, TxId(contract.0)).unwrap();
    evidence.verify(&anchor, 3).unwrap();
    // No depth beyond the evidence's last header can be proven.
    let past_headers = evidence.headers.last().unwrap().height - evidence.tx_height + 1;
    assert!(evidence.verify(&anchor, past_headers).is_err());
}

#[test]
fn graph_multisignature_binds_all_participants_of_a_complex_graph() {
    let s = figure7a_scenario(&ScenarioConfig::default());
    let keypairs: Vec<KeyPair> = s
        .graph
        .participants()
        .iter()
        .map(|a| s.participants.by_address(a).unwrap().keypair())
        .collect();
    let ms = s.graph.multisign(&keypairs).unwrap();
    ms.verify(&s.graph.participant_keys()).unwrap();
    // Dropping any one signature breaks completeness.
    let partial = {
        let mut m = s.graph.start_multisig();
        for kp in &keypairs[..keypairs.len() - 1] {
            m.sign_with(kp).unwrap();
        }
        m
    };
    assert!(partial.verify(&s.graph.participant_keys()).is_err());
}
