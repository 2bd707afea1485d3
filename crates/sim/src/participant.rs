//! Participants: the end users of the application layer.
//!
//! A participant owns a key pair (their identity on every chain), signs
//! transactions through a per-chain [`ac3_chain::TxBuilder`], and may be
//! subjected to crash faults — the failure mode the paper's motivating
//! example turns on ("an honest participant who fails to execute a smart
//! contract on time due to a crash failure ... might end up losing her
//! assets").

use crate::audit::AuditScope;
use ac3_chain::{Address, ChainId, Timestamp, TxBuilder};
use ac3_crypto::KeyPair;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A half-open interval `[from, until)` of simulated time during which a
/// participant is crashed and cannot take any action: down at `from`,
/// recovered at `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashWindow {
    /// Crash start (inclusive).
    pub from: Timestamp,
    /// Recovery time (exclusive); `u64::MAX` for a permanent crash.
    pub until: Timestamp,
}

impl CrashWindow {
    /// A crash from `from` that never recovers.
    // lint: api-ok(the crash most fault tests inject)
    pub fn permanent(from: Timestamp) -> Self {
        CrashWindow { from, until: Timestamp::MAX }
    }

    /// Whether the participant is down at `now`.
    pub fn covers(&self, now: Timestamp) -> bool {
        now >= self.from && now < self.until
    }
}

/// A simulated end user.
pub struct Participant {
    /// Human-readable name ("alice", "bob", ...).
    pub name: String,
    keypair: KeyPair,
    crash_windows: Vec<CrashWindow>,
    /// Per-chain transaction builders (to keep nonces distinct per chain).
    builders: BTreeMap<ChainId, TxBuilder>,
}

impl fmt::Debug for Participant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Participant")
            .field("name", &self.name)
            .field("address", &self.address())
            .field("crash_windows", &self.crash_windows)
            .finish()
    }
}

impl Participant {
    /// Create a participant with a deterministic key derived from its name.
    pub fn new(name: &str) -> Self {
        Participant {
            name: name.to_string(),
            keypair: KeyPair::from_seed(name.as_bytes()),
            crash_windows: Vec::new(),
            builders: BTreeMap::new(),
        }
    }

    /// The participant's key pair.
    pub fn keypair(&self) -> KeyPair {
        self.keypair
    }

    /// The participant's address (identical on every chain; identities are
    /// public keys, Section 2.2).
    pub fn address(&self) -> Address {
        Address::from(self.keypair.public())
    }

    /// Schedule a crash window.
    pub fn schedule_crash(&mut self, window: CrashWindow) {
        self.crash_windows.push(window);
    }

    /// Whether the participant can act at `now`.
    pub fn is_available(&self, now: Timestamp) -> bool {
        !self.crash_windows.iter().any(|w| w.covers(now))
    }

    /// The transaction builder for `chain`, created lazily. The nonce seed
    /// mixes the chain id so the same participant produces distinct ids on
    /// different chains.
    pub fn builder(&mut self, chain: ChainId) -> &mut TxBuilder {
        let keypair = self.keypair;
        self.builders
            .entry(chain)
            .or_insert_with(|| TxBuilder::new(keypair, (chain.as_u32() as u64) << 32))
    }
}

/// A registry of participants keyed by name.
#[derive(Debug, Default)]
pub struct ParticipantSet {
    participants: BTreeMap<String, Participant>,
    /// Address → name of every member of `participants`, kept in step by
    /// `add` / `split_off` / `absorb` (a participant's address is fixed by
    /// its name, so entries never go stale in between).
    names_by_address: BTreeMap<Address, String>,
    /// Active footprint-audit scope: while set (the driver brackets each
    /// audited machine poll with [`ParticipantSet::begin_audit`] /
    /// [`ParticipantSet::end_audit`]), every single-participant lookup
    /// panics if the resolved actor is outside the scope. Deliberately not
    /// part of the set's value semantics: [`ParticipantSet::split_off`] and
    /// [`ParticipantSet::absorb`] ignore it.
    audit: Option<AuditScope>,
}

impl ParticipantSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start auditing lookups against `scope` (see [`AuditScope`]); every
    /// `get`/`by_address` family call until [`ParticipantSet::end_audit`]
    /// panics if it resolves to an undeclared actor.
    pub fn begin_audit(&mut self, scope: AuditScope) {
        self.audit = Some(scope);
    }

    /// Stop auditing lookups.
    pub fn end_audit(&mut self) {
        self.audit = None;
    }

    /// Panic if the audit scope is active and does not declare `p`.
    fn check_audit(audit: &Option<AuditScope>, p: &Participant) {
        if let Some(scope) = audit {
            scope.check_actor(p.address(), &p.name);
        }
    }

    /// Add a participant by name, returning its address.
    pub fn add(&mut self, name: &str) -> Address {
        let participant = Participant::new(name);
        let address = participant.address();
        self.participants.insert(name.to_string(), participant);
        self.names_by_address.insert(address, name.to_string());
        address
    }

    /// Borrow a participant.
    pub fn get(&self, name: &str) -> Option<&Participant> {
        let p = self.participants.get(name)?;
        Self::check_audit(&self.audit, p);
        Some(p)
    }

    /// Mutably borrow a participant.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Participant> {
        let p = self.participants.get_mut(name)?;
        Self::check_audit(&self.audit, p);
        Some(p)
    }

    /// Addresses of every participant, in name order.
    pub fn addresses(&self) -> Vec<Address> {
        self.participants.values().map(|p| p.address()).collect()
    }

    /// Find the participant owning `address`.
    pub fn by_address(&self, address: &Address) -> Option<&Participant> {
        self.get(self.names_by_address.get(address)?)
    }

    /// Mutably find the participant owning `address`.
    pub fn by_address_mut(&mut self, address: &Address) -> Option<&mut Participant> {
        let p = self.participants.get_mut(self.names_by_address.get(address)?)?;
        Self::check_audit(&self.audit, p);
        Some(p)
    }

    /// Names in deterministic order.
    pub fn names(&self) -> Vec<String> {
        self.participants.keys().cloned().collect()
    }

    /// Move the participants owning the given addresses out into their own
    /// set. The participants themselves move — per-chain transaction
    /// builders and their nonce state travel along — so a shard worker can
    /// sign on behalf of its actors exactly as the full set would have,
    /// and [`ParticipantSet::absorb`] returns them with the nonces they
    /// advanced to.
    pub fn split_off(&mut self, addresses: &[Address]) -> ParticipantSet {
        let mut out = ParticipantSet::new();
        for address in addresses {
            let Some(name) = self.names_by_address.remove(address) else { continue };
            if let Some(p) = self.participants.remove(&name) {
                out.names_by_address.insert(*address, name.clone());
                out.participants.insert(name, p);
            }
        }
        out
    }

    /// Fold a split-off set back in (names are globally unique, so this
    /// never overwrites a live participant).
    pub fn absorb(&mut self, other: ParticipantSet) {
        self.participants.extend(other.participants);
        self.names_by_address.extend(other.names_by_address);
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_identity_from_name() {
        let a1 = Participant::new("alice");
        let a2 = Participant::new("alice");
        let b = Participant::new("bob");
        assert_eq!(a1.address(), a2.address());
        assert_ne!(a1.address(), b.address());
    }

    #[test]
    fn crash_windows_control_availability() {
        let mut p = Participant::new("bob");
        assert!(p.is_available(0));
        p.schedule_crash(CrashWindow { from: 100, until: 200 });
        assert!(p.is_available(99));
        assert!(!p.is_available(100));
        assert!(!p.is_available(199));
        assert!(p.is_available(200));
    }

    #[test]
    fn permanent_crash_never_recovers() {
        let mut p = Participant::new("bob");
        p.schedule_crash(CrashWindow::permanent(50));
        assert!(p.is_available(49));
        assert!(!p.is_available(u64::MAX - 1));
    }

    #[test]
    fn multiple_crash_windows() {
        let mut p = Participant::new("carol");
        p.schedule_crash(CrashWindow { from: 10, until: 20 });
        p.schedule_crash(CrashWindow { from: 30, until: 40 });
        assert!(!p.is_available(15));
        assert!(p.is_available(25));
        assert!(!p.is_available(35));
    }

    #[test]
    fn per_chain_builders_have_distinct_nonces() {
        let mut p = Participant::new("alice");
        let tx_chain0 = p.builder(ChainId(0)).transfer(vec![], vec![], 0);
        let tx_chain1 = p.builder(ChainId(1)).transfer(vec![], vec![], 0);
        assert_ne!(tx_chain0.id(), tx_chain1.id());
    }

    #[test]
    fn participant_set_registry() {
        let mut set = ParticipantSet::new();
        let alice = set.add("alice");
        let bob = set.add("bob");
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("alice").unwrap().address(), alice);
        assert_eq!(set.addresses(), vec![alice, bob]);
        assert_eq!(set.names(), vec!["alice".to_string(), "bob".to_string()]);
        assert!(set.get("nobody").is_none());
    }

    #[test]
    fn address_lookup_follows_split_and_absorb() {
        let mut set = ParticipantSet::new();
        let [alice, bob, carol] = ["alice", "bob", "carol"].map(|name| set.add(name));
        assert_eq!(set.by_address(&bob).map(|p| p.name.as_str()), Some("bob"));
        assert!(set.by_address(&Participant::new("nobody").address()).is_none());

        // Asking for an address twice, or for one the set does not hold,
        // moves nothing extra.
        let mut shard = set.split_off(&[carol, alice, carol, Participant::new("dave").address()]);
        assert_eq!(shard.names(), vec!["alice".to_string(), "carol".to_string()]);
        assert_eq!(shard.addresses(), vec![alice, carol]);
        assert!(set.by_address(&alice).is_none() && set.by_address_mut(&carol).is_none());
        assert_eq!(set.by_address(&bob).map(|p| p.name.as_str()), Some("bob"));

        // The moved participant is the same object: nonces travel with it.
        let first =
            shard.by_address_mut(&alice).unwrap().builder(ChainId(0)).transfer(vec![], vec![], 0);
        set.absorb(shard);
        let second =
            set.by_address_mut(&alice).unwrap().builder(ChainId(0)).transfer(vec![], vec![], 0);
        assert_ne!(first.id(), second.id());
        assert_eq!(set.addresses(), vec![alice, bob, carol]);
        assert_eq!(set.by_address(&carol).map(|p| p.name.as_str()), Some("carol"));
    }
}
