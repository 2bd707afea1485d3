//! Payload and state (de)serialization for the contract VM.
//!
//! The chain layer treats contract payloads and states as opaque byte
//! strings; this module defines the canonical encoding the [`crate::runtime::SwapVm`]
//! uses for them. JSON via `serde_json` is deliberately chosen over a binary
//! format: encoding is deterministic for our types (struct field order),
//! human-readable in logs and test failures, and adds no unsafe code. The
//! encoding is versioned with a one-byte prefix so future formats can be
//! introduced without ambiguity.
//!
//! Both directions stream: [`encode`] writes the value's text straight into
//! the output buffer and [`decode`] parses the target type straight off the
//! bytes, so no intermediate document tree is built for a payload however
//! large its evidence. The bytes themselves are consensus-critical (they are
//! hashed into transaction ids) and pinned by `tests/golden_bytes.rs`.
//! [`decode`] is the first code to touch attacker-supplied bytes: whatever
//! they are — truncated, mistyped, nested a million levels deep — the result
//! is [`VmError::MalformedPayload`], never a panic.
//!
//! Version 2 writes every byte string — an embedded payload, a `Hash256`-based
//! id, a Merkle sibling — as one base64 string (`serde::base64`) instead of
//! an array of decimal numbers. Evidence nests transactions inside payloads
//! inside transactions, and the number-array form grew about 3.2× per level;
//! base64 grows 4/3×. Version 1 is not read: decoding accepts one version.

use ac3_chain::VmError;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Version prefix for the current encoding: JSON with base64 byte strings.
const VERSION: u8 = 2;

/// Encode a payload or contract state.
pub fn encode<T: Serialize>(value: &T) -> Vec<u8> {
    let mut out = vec![VERSION];
    out.extend_from_slice(&serde_json::to_vec(value).expect("contract types always serialize"));
    out
}

/// Decode a payload or contract state, mapping failures to
/// [`VmError::MalformedPayload`] so the chain rejects the offending message.
pub fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, VmError> {
    match bytes.split_first() {
        Some((&VERSION, rest)) => serde_json::from_slice(rest)
            .map_err(|e| VmError::MalformedPayload(format!("decode error: {e}"))),
        Some((v, _)) => Err(VmError::MalformedPayload(format!("unknown encoding version {v}"))),
        None => Err(VmError::MalformedPayload("empty payload".to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Sample {
        a: u64,
        b: String,
        c: Vec<u8>,
    }

    #[test]
    fn round_trip() {
        let s = Sample { a: 7, b: "swap".to_string(), c: vec![1, 2, 3] };
        let bytes = encode(&s);
        let back: Sample = decode(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn byte_strings_are_base64() {
        let s = Sample { a: 7, b: "swap".to_string(), c: vec![1, 2, 3] };
        assert_eq!(encode(&s), b"\x02{\"a\":7,\"b\":\"swap\",\"c\":\"AQID\"}");
        let mut old = encode(&s);
        old.splice(old.len() - 7.., *b"[1,2,3]}");
        assert!(matches!(decode::<Sample>(&old), Err(VmError::MalformedPayload(_))));
    }

    #[test]
    fn empty_payload_rejected() {
        assert!(matches!(decode::<Sample>(&[]), Err(VmError::MalformedPayload(_))));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode(&Sample { a: 1, b: String::new(), c: vec![] });
        bytes[0] = 9;
        assert!(matches!(decode::<Sample>(&bytes), Err(VmError::MalformedPayload(_))));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            decode::<Sample>(&[VERSION, 0xff, 0x00, 0x12]),
            Err(VmError::MalformedPayload(_))
        ));
    }

    #[test]
    fn encoding_is_deterministic() {
        let s = Sample { a: 42, b: "x".to_string(), c: vec![9] };
        assert_eq!(encode(&s), encode(&s));
    }
}
