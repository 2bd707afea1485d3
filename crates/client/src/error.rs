//! Client-layer errors.

use ac3_core::ProtocolError;
use ac3_crypto::MultisigError;
use std::fmt;

/// Errors surfaced by the client library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// A protocol-level failure while interacting with the simulated world.
    Protocol(ProtocolError),
    /// Collecting or verifying the graph multisignature failed.
    Multisig(MultisigError),
    /// A persisted session could not be decoded.
    Persistence(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Multisig(e) => write!(f, "multisignature error: {e}"),
            ClientError::Persistence(m) => write!(f, "persistence error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<MultisigError> for ClientError {
    fn from(e: MultisigError) -> Self {
        ClientError::Multisig(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_cause() {
        let e = ClientError::Persistence("truncated file".to_string());
        assert!(e.to_string().contains("truncated file"));
        let p: ClientError = ProtocolError::World("boom".to_string()).into();
        assert!(p.to_string().contains("boom"));
    }
}
