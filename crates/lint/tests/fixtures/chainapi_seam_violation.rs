//! Fixture: a protocol module reaching around the ChainApi seam.

use ac3_sim::World;

pub fn poke(world: &mut World) {
    world.advance(1_000);
}

/// What puts this file in the seam: it implements a machine.
impl SwapMachine for Poker {}
