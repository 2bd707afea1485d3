//! The footprint-audit sanitizer: an [`AuditScope`] that makes a poll
//! panic — loudly, with attribution — when a machine touches a chain or
//! signs with an actor outside its declared footprint (`MachineFootprint`
//! in `ac3-core`).
//!
//! The parallel scheduler's entire correctness argument rests on declared
//! footprints being *conservative*: a machine that reaches beyond its
//! footprint aliases state another shard owns. Under the sharded path an
//! under-declared chain surfaces as a hard `UnknownChain` error, but the
//! unsplit reference run (`workers: 1`) hands every machine the whole
//! world, so the same bug passes silently — until someone bumps the worker
//! count. The audit closes that gap: enabled via the
//! `AC3_FOOTPRINT_AUDIT=1` environment variable (or
//! `Scheduler::with_footprint_audit` in `ac3-core`), the driver brackets
//! each poll with `begin_audit`/`end_audit` on the [`World`] and the
//! [`ParticipantSet`], which then check every chain-addressed
//! [`ChainApi`] call and every actor lookup and panic with the machine id,
//! its current phase, and the out-of-scope chain or actor.
//!
//! **Determinism.** The scope holds no state that reaches the simulation —
//! no counters, no RNG, no clocks — so an audited run that does not panic
//! is bitwise identical to an unaudited one. The CI determinism matrix
//! runs an `AC3_FOOTPRINT_AUDIT=1` leg to pin exactly that.
//!
//! [`ChainApi`]: crate::api::ChainApi
//! [`World`]: crate::world::World
//! [`ParticipantSet`]: crate::participant::ParticipantSet

use ac3_chain::{Address, ChainId};

/// The declared scope one machine poll is audited against: identity for
/// attribution, plus the chains and actors its footprint allows.
#[derive(Debug, Clone)]
pub struct AuditScope {
    /// Who is being audited (e.g. `"machine 3"`), for the panic message.
    pub machine: String,
    /// The machine's current phase (its `phase_name()`), for the panic
    /// message.
    pub phase: String,
    /// Chains the footprint declares, sorted for reproducible messages.
    chains: Vec<ChainId>,
    /// Actor addresses the footprint declares, sorted.
    actors: Vec<Address>,
}

impl AuditScope {
    /// A scope for `machine` in `phase`, allowing exactly the given chains
    /// and actors.
    pub fn new(machine: String, phase: String, chains: &[ChainId], actors: &[Address]) -> Self {
        let mut chains = chains.to_vec();
        chains.sort();
        chains.dedup();
        let mut actors = actors.to_vec();
        actors.sort();
        actors.dedup();
        AuditScope { machine, phase, chains, actors }
    }

    /// Panic unless `chain` is inside the declared footprint.
    pub fn check_chain(&self, chain: ChainId) {
        if self.chains.binary_search(&chain).is_err() {
            panic!(
                "footprint audit: {} (phase {}) touched chain {} outside its declared \
                 footprint {:?}",
                self.machine, self.phase, chain, self.chains
            );
        }
    }

    /// Panic unless `address` is inside the declared footprint. `name` is
    /// the participant's registry name, for the message.
    pub fn check_actor(&self, address: Address, name: &str) {
        if self.actors.binary_search(&address).is_err() {
            panic!(
                "footprint audit: {} (phase {}) accessed actor {name} ({address}) outside \
                 its declared footprint ({} declared actor(s))",
                self.machine,
                self.phase,
                self.actors.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ChainApi;
    use crate::world::World;
    use ac3_chain::ChainParams;

    fn scoped_world() -> (World, ChainId, ChainId) {
        let mut world = World::new();
        let a = world.add_chain(ChainParams::test("a"), &[]);
        let b = world.add_chain(ChainParams::test("b"), &[]);
        (world, a, b)
    }

    #[test]
    fn in_scope_calls_pass_through() {
        let (mut world, a, _) = scoped_world();
        world.begin_audit(AuditScope::new("machine 0".into(), "lock".into(), &[a], &[]));
        let api: &mut dyn ChainApi = &mut world;
        assert!(api.is_reachable(a));
        assert!(api.chain(a).is_ok());
        assert!(api.anchor(a).is_ok());
        assert!(api.congestion(a).is_ok());
    }

    #[test]
    fn out_of_scope_chain_panics_with_attribution() {
        let (mut world, a, b) = scoped_world();
        world.begin_audit(AuditScope::new("machine 7".into(), "redeem".into(), &[a], &[]));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = ChainApi::chain(&world, b);
        }))
        .expect_err("audit must panic");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("machine 7"), "message names the machine: {msg}");
        assert!(msg.contains("redeem"), "message names the phase: {msg}");
        assert!(msg.contains(&format!("{b}")), "message names the chain: {msg}");
    }

    #[test]
    fn scope_ends_with_end_audit() {
        let (mut world, a, b) = scoped_world();
        world.begin_audit(AuditScope::new("machine 1".into(), "lock".into(), &[a], &[]));
        world.end_audit();
        let api: &mut dyn ChainApi = &mut world;
        assert!(api.chain(b).is_ok(), "a scope must not outlive its poll");
        assert!(api.congestion(b).is_ok());
    }

    #[test]
    fn actor_check_is_order_insensitive() {
        let alice = Address::from(ac3_crypto::KeyPair::from_seed(b"alice").public());
        let bob = Address::from(ac3_crypto::KeyPair::from_seed(b"bob").public());
        let carol = Address::from(ac3_crypto::KeyPair::from_seed(b"carol").public());
        let scope = AuditScope::new("m".into(), "p".into(), &[], &[bob, alice]);
        scope.check_actor(alice, "alice");
        scope.check_actor(bob, "bob");
        let err = std::panic::catch_unwind(|| scope.check_actor(carol, "carol"))
            .expect_err("undeclared actor panics");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("carol"), "message names the actor: {msg}");
    }
}
