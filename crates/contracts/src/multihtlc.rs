//! Hashed timelock contracts (HTLCs) — the one hashlock contract of every
//! Nolan/Herlihy-family swap: Nolan's two-party protocol and Herlihy's
//! single-leader protocol (Section 1 of the paper), and Herlihy's
//! *multi-leader* protocol (the variant reference \[16\] proposes for cyclic
//! graphs, mentioned in Section 5.3).
//!
//! A contract locks an asset behind two conditions:
//!
//! * **hashlocks** — one per swap leader `l`, `h_l = H(s_l)`: the recipient
//!   may redeem by presenting every preimage `s_l`, in lock order. A
//!   single-leader swap's contract carries exactly one hashlock, which is
//!   Nolan's and Herlihy's plain HTLC; the multi-leader protocol's leader
//!   set (a feedback vertex set of the AC2T graph) gives one per leader;
//! * **timelock** — once the timelock `t` expires, the sender may refund.
//!
//! The paper's critique of these protocols is precisely that the timelock
//! couples liveness to safety: if the rightful redeemer crashes past `t`,
//! the sender refunds and atomicity is violated. The simulation reproduces
//! that behaviour faithfully (experiment E6).

use crate::swap::{SwapCore, SwapPhase};
use ac3_chain::{Address, Amount, Payout, Timestamp, VmError};
use ac3_crypto::{CommitmentScheme, Hash256, Hashlock};
use serde::{Deserialize, Serialize};

/// Constructor payload for a multi-hashlock HTLC.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiHtlcSpec {
    /// The recipient allowed to redeem with the full preimage set.
    pub recipient: Address,
    /// One hashlock per swap leader, in the leaders' canonical order.
    pub hashlocks: Vec<Hash256>,
    /// The timelock: simulated time after which the sender may refund.
    pub timelock: Timestamp,
}

/// Function-call payloads accepted by a multi-hashlock HTLC.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MultiHtlcCall {
    /// Redeem by revealing every hashlock's preimage, in lock order.
    Redeem {
        /// The claimed preimages, `preimages[i]` opening `hashlocks[i]`.
        preimages: Vec<Vec<u8>>,
    },
    /// Refund after the timelock expired.
    Refund,
}

/// The on-chain state of a multi-hashlock HTLC.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiHtlcState {
    /// Shared template fields (sender, recipient, amount, phase).
    pub core: SwapCore,
    /// The hashlocks, all of which must be opened to redeem.
    pub hashlocks: Vec<Hash256>,
    /// The timelock.
    pub timelock: Timestamp,
    /// The revealed preimages, if the contract has been redeemed. Crucial
    /// for Nolan/Herlihy: redeeming on one chain reveals every leader secret
    /// to the counterparties on the other chains.
    pub revealed_preimages: Option<Vec<Vec<u8>>>,
}

impl MultiHtlcState {
    /// Deploy (Algorithm 1 constructor specialised with a set of hashlocks
    /// and a timelock).
    pub fn publish(sender: Address, amount: Amount, spec: &MultiHtlcSpec) -> Result<Self, VmError> {
        if spec.hashlocks.is_empty() {
            return Err(VmError::RequirementFailed(
                "a multi-hashlock contract needs at least one hashlock".to_string(),
            ));
        }
        Ok(MultiHtlcState {
            core: SwapCore::publish(sender, spec.recipient, amount),
            hashlocks: spec.hashlocks.clone(),
            timelock: spec.timelock,
            revealed_preimages: None,
        })
    }

    /// `IsRedeemable`: every hashlock must be opened by its preimage.
    pub fn is_redeemable(&self, preimages: &[Vec<u8>]) -> bool {
        preimages.len() == self.hashlocks.len()
            && self
                .hashlocks
                .iter()
                .zip(preimages)
                .all(|(lock, preimage)| Hashlock::from_lock(*lock).verify(preimage))
    }

    /// `IsRefundable`: the timelock must have expired.
    pub fn is_refundable(&self, now: Timestamp) -> bool {
        now >= self.timelock
    }

    /// Execute a redeem call from `caller`.
    ///
    /// Only the designated recipient may redeem (the paper's SC1 "transfer X
    /// bitcoins *to Bob* if Bob provides s").
    pub fn redeem(&mut self, caller: Address, preimages: Vec<Vec<u8>>) -> Result<Payout, VmError> {
        if caller != self.core.recipient {
            return Err(VmError::Unauthorized(format!(
                "only the recipient may redeem, caller {caller} is not {}",
                self.core.recipient
            )));
        }
        let ok = self.is_redeemable(&preimages);
        let payout = self.core.redeem(ok)?;
        self.revealed_preimages = Some(preimages);
        Ok(payout)
    }

    /// Execute a refund call from `caller` at simulated time `now`.
    ///
    /// Only the original sender may refund, and only after the timelock.
    pub fn refund(&mut self, caller: Address, now: Timestamp) -> Result<Payout, VmError> {
        if caller != self.core.sender {
            return Err(VmError::Unauthorized(format!(
                "only the sender may refund, caller {caller} is not {}",
                self.core.sender
            )));
        }
        if !self.is_refundable(now) {
            return Err(VmError::RequirementFailed(format!(
                "timelock {} has not expired at time {now}",
                self.timelock
            )));
        }
        self.core.refund(true)
    }

    /// The contract phase.
    pub fn phase(&self) -> SwapPhase {
        self.core.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_crypto::KeyPair;
    use proptest::prelude::*;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    fn locks(secrets: &[&[u8]]) -> Vec<Hash256> {
        secrets.iter().map(|s| Hashlock::from_secret(s).lock).collect()
    }

    fn contract(secrets: &[&[u8]], timelock: Timestamp) -> MultiHtlcState {
        MultiHtlcState::publish(
            addr(b"alice"),
            100,
            &MultiHtlcSpec { recipient: addr(b"bob"), hashlocks: locks(secrets), timelock },
        )
        .unwrap()
    }

    #[test]
    fn redeem_requires_every_preimage() {
        let mut c = contract(&[b"s1", b"s2", b"s3"], 10_000);
        // Missing one preimage fails.
        assert!(c.redeem(addr(b"bob"), vec![b"s1".to_vec(), b"s2".to_vec()]).is_err());
        // A wrong preimage fails.
        assert!(c
            .redeem(addr(b"bob"), vec![b"s1".to_vec(), b"oops".to_vec(), b"s3".to_vec()])
            .is_err());
        assert_eq!(c.phase(), SwapPhase::Published);
        // The full ordered set succeeds.
        let payout =
            c.redeem(addr(b"bob"), vec![b"s1".to_vec(), b"s2".to_vec(), b"s3".to_vec()]).unwrap();
        assert_eq!(payout.to, addr(b"bob"));
        assert_eq!(payout.amount, 100);
        assert_eq!(c.phase(), SwapPhase::Redeemed);
        assert_eq!(c.revealed_preimages.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn preimages_must_be_in_lock_order() {
        let mut c = contract(&[b"s1", b"s2"], 10_000);
        assert!(c.redeem(addr(b"bob"), vec![b"s2".to_vec(), b"s1".to_vec()]).is_err());
    }

    #[test]
    fn only_recipient_may_redeem_and_only_sender_may_refund() {
        let mut c = contract(&[b"s1"], 10_000);
        assert!(matches!(
            c.redeem(addr(b"mallory"), vec![b"s1".to_vec()]).unwrap_err(),
            VmError::Unauthorized(_)
        ));
        assert!(matches!(c.refund(addr(b"bob"), 20_000).unwrap_err(), VmError::Unauthorized(_)));
    }

    #[test]
    fn refund_only_after_timelock() {
        let mut c = contract(&[b"s1", b"s2"], 10_000);
        assert!(c.refund(addr(b"alice"), 9_999).is_err());
        let payout = c.refund(addr(b"alice"), 10_000).unwrap();
        assert_eq!(payout.to, addr(b"alice"));
        assert_eq!(c.phase(), SwapPhase::Refunded);
        // Redemption after refund is impossible (mutual exclusion).
        assert!(c.redeem(addr(b"bob"), vec![b"s1".to_vec(), b"s2".to_vec()]).is_err());
    }

    #[test]
    fn empty_hashlock_set_rejected_at_publish() {
        let err = MultiHtlcState::publish(
            addr(b"alice"),
            1,
            &MultiHtlcSpec { recipient: addr(b"bob"), hashlocks: vec![], timelock: 1 },
        )
        .unwrap_err();
        assert!(matches!(err, VmError::RequirementFailed(_)));
    }

    #[test]
    fn single_hashlock_degenerates_to_plain_htlc_behaviour() {
        let mut c = contract(&[b"only"], 5_000);
        assert!(c.is_redeemable(&[b"only".to_vec()]));
        assert!(!c.is_redeemable(&[b"nope".to_vec()]));
        assert!(c.redeem(addr(b"bob"), vec![b"nope".to_vec()]).is_err());
        assert_eq!(c.phase(), SwapPhase::Published);
        assert!(c.revealed_preimages.is_none());
        let payout = c.redeem(addr(b"bob"), vec![b"only".to_vec()]).unwrap();
        assert_eq!((payout.to, payout.amount), (addr(b"bob"), 100));
        assert_eq!(c.phase(), SwapPhase::Redeemed);
        assert_eq!(c.revealed_preimages, Some(vec![b"only".to_vec()]));
        // Redeemed is terminal: the sender cannot refund it afterwards.
        assert!(c.refund(addr(b"alice"), 20_000).is_err());
    }

    proptest! {
        #[test]
        fn prop_redeemable_iff_all_preimages_match(
            secrets in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 1..5),
            flip in proptest::option::of(0usize..5),
        ) {
            let refs: Vec<&[u8]> = secrets.iter().map(|s| s.as_slice()).collect();
            let c = contract(&refs, 1_000);
            let mut guess: Vec<Vec<u8>> = secrets.clone();
            if let Some(i) = flip {
                if i < guess.len() {
                    guess[i].push(0xFF); // corrupt one preimage
                }
            }
            let expect_ok = flip.is_none_or(|i| i >= secrets.len());
            prop_assert_eq!(c.is_redeemable(&guess), expect_ok);
        }

        #[test]
        fn prop_refundable_iff_past_timelock(timelock in 0u64..100_000, now in 0u64..200_000) {
            let c = contract(&[b"s"], timelock);
            prop_assert_eq!(c.is_refundable(now), now >= timelock);
        }
    }
}
