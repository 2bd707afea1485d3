//! Fixture: `ProtocolError::World` is legal — its path head is an enum,
//! not the `ac3_sim` crate.

pub fn fail() -> ProtocolError {
    ProtocolError::World("broken".to_string())
}

impl SwapMachine for Failing {}
