//! # ac3-contracts
//!
//! The smart-contract layer of the AC3WN reproduction: Rust implementations
//! of the paper's Algorithms 1–4 plus the one hashlock contract every
//! Nolan/Herlihy baseline swap deploys, executed on simulated chains through
//! the [`runtime::SwapVm`] (which implements [`ac3_chain::ContractVm`]).
//!
//! | Paper | Module |
//! |---|---|
//! | Algorithm 1 — atomic swap smart contract template | [`swap`] |
//! | Algorithm 2 — smart contract for centralized AC3 (AC3TW) | [`centralized`] |
//! | Algorithm 3 — witness network smart contract `SC_w` | [`witness`] |
//! | Algorithm 4 — smart contract for permissionless AC3 (AC3WN) | [`permissionless`] |
//! | Nolan/Herlihy hashlock + timelock contracts (one hashlock per leader) | [`multihtlc`] |
//! | Section 4.3 cross-chain evidence | [`evidence`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centralized;
pub mod codec;
pub mod evidence;
pub mod multihtlc;
pub mod permissionless;
pub mod runtime;
pub mod swap;
pub mod witness;

pub use centralized::{CentralizedCall, CentralizedSpec, CentralizedState};
pub use evidence::{
    verify_deployment, ChainAnchor, EquivocationProof, ExpectedContract, SignedDecision,
    TxInclusionEvidence, WitnessStateEvidence,
};
pub use multihtlc::{MultiHtlcCall, MultiHtlcSpec, MultiHtlcState};
pub use permissionless::{PermissionlessCall, PermissionlessSpec, PermissionlessState};
pub use runtime::{ContractCall, ContractSpec, ContractState, SwapVm};
pub use swap::{SwapCore, SwapPhase};
pub use witness::{WitnessCall, WitnessContractState, WitnessSpec};

/// The plain hashlock contract of Nolan and Herlihy (one hashlock, one
/// preimage) is the one-lock case of [`multihtlc`]; these tests pin that
/// case, the contract every single-leader swap deploys.
#[cfg(test)]
mod htlc {
    mod tests {
        use crate::multihtlc::{MultiHtlcSpec, MultiHtlcState};
        use crate::swap::SwapPhase;
        use ac3_chain::{Address, Timestamp, VmError};
        use ac3_crypto::{Hashlock, KeyPair};
        use proptest::prelude::*;

        fn addr(seed: &[u8]) -> Address {
            Address::from(KeyPair::from_seed(seed).public())
        }

        fn htlc(secret: &[u8], timelock: Timestamp) -> MultiHtlcState {
            let spec = MultiHtlcSpec {
                recipient: addr(b"bob"),
                hashlocks: vec![Hashlock::from_secret(secret).lock],
                timelock,
            };
            MultiHtlcState::publish(addr(b"alice"), 100, &spec).unwrap()
        }

        fn one(preimage: &[u8]) -> Vec<Vec<u8>> {
            vec![preimage.to_vec()]
        }

        #[test]
        fn recipient_redeems_with_correct_preimage() {
            let mut c = htlc(b"secret", 10_000);
            let payout = c.redeem(addr(b"bob"), one(b"secret")).unwrap();
            assert_eq!(payout.to, addr(b"bob"));
            assert_eq!(payout.amount, 100);
            assert_eq!(c.phase(), SwapPhase::Redeemed);
            assert_eq!(c.revealed_preimages, Some(one(b"secret")));
        }

        #[test]
        fn wrong_preimage_rejected() {
            let mut c = htlc(b"secret", 10_000);
            assert!(c.redeem(addr(b"bob"), one(b"guess")).is_err());
            assert_eq!(c.phase(), SwapPhase::Published);
            assert!(c.revealed_preimages.is_none());
        }

        #[test]
        fn only_recipient_may_redeem() {
            let mut c = htlc(b"secret", 10_000);
            assert!(matches!(
                c.redeem(addr(b"mallory"), one(b"secret")).unwrap_err(),
                VmError::Unauthorized(_)
            ));
        }

        #[test]
        fn refund_only_after_timelock() {
            let mut c = htlc(b"secret", 10_000);
            assert!(c.refund(addr(b"alice"), 9_999).is_err());
            let payout = c.refund(addr(b"alice"), 10_000).unwrap();
            assert_eq!(payout.to, addr(b"alice"));
            assert_eq!(c.phase(), SwapPhase::Refunded);
        }

        #[test]
        fn only_sender_may_refund() {
            let mut c = htlc(b"secret", 10_000);
            assert!(matches!(
                c.refund(addr(b"bob"), 20_000).unwrap_err(),
                VmError::Unauthorized(_)
            ));
        }

        #[test]
        fn refund_after_redeem_impossible_and_vice_versa() {
            let mut c = htlc(b"secret", 10_000);
            c.redeem(addr(b"bob"), one(b"secret")).unwrap();
            assert!(c.refund(addr(b"alice"), 20_000).is_err());

            let mut c2 = htlc(b"secret", 10_000);
            c2.refund(addr(b"alice"), 20_000).unwrap();
            assert!(c2.redeem(addr(b"bob"), one(b"secret")).is_err());
        }

        #[test]
        fn the_papers_crash_scenario_is_possible_with_htlcs() {
            // Bob learned the secret but crashed; Alice refunds after t1 even
            // though Bob was entitled to redeem — the atomicity violation the
            // paper opens with.
            let mut sc1 = htlc(b"alice-secret", 10_000);
            // Bob never calls redeem (crashed). Time passes the timelock.
            let payout = sc1.refund(addr(b"alice"), 10_001).unwrap();
            assert_eq!(payout.to, addr(b"alice"));
            // Bob's later attempt fails: he lost the asset.
            assert!(sc1.redeem(addr(b"bob"), one(b"alice-secret")).is_err());
        }

        proptest! {
            #[test]
            fn prop_refundable_iff_past_timelock(timelock in 0u64..100_000, now in 0u64..200_000) {
                let c = htlc(b"s", timelock);
                prop_assert_eq!(c.is_refundable(now), now >= timelock);
            }

            #[test]
            fn prop_only_exact_preimage_redeems(
                secret in proptest::collection::vec(any::<u8>(), 1..32),
                guess in proptest::collection::vec(any::<u8>(), 1..32),
            ) {
                let mut c = htlc(&secret, 1_000);
                let result = c.redeem(addr(b"bob"), vec![guess.clone()]);
                prop_assert_eq!(result.is_ok(), guess == secret);
            }
        }
    }
}
