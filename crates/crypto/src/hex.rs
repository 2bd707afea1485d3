//! Minimal hex encoding (no external dependency).

/// Encode bytes as a lowercase hex string.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((b & 0x0f) as u32, 16).expect("nibble"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_empty() {
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn encode_writes_two_lowercase_digits_per_byte() {
        assert_eq!(encode(&[0x00, 0x0f, 0xde, 0xad]), "000fdead");
        let all: Vec<u8> = (0..=255u8).collect();
        assert_eq!(encode(&all).len(), 512);
    }
}
