//! Schnorr signatures over a small prime-field group.
//!
//! ## Construction
//!
//! We work in the multiplicative group of `GF(p)` with the Mersenne prime
//! `p = 2^61 - 1` and the fixed base `g = 3`. A secret key is an exponent
//! `x`, the public key is `y = g^x mod p`. Signing is textbook Schnorr with
//! a deterministic (RFC-6979-style) nonce:
//!
//! ```text
//! k = H(sk || msg) mod n        (n = p - 1, retried if 0)
//! r = g^k mod p
//! e = H(r || pk || msg) mod n
//! s = k + e·x mod n
//! signature = (e, s)
//! ```
//!
//! Verification recomputes `r' = g^s · y^{-e}` and accepts iff
//! `H(r' || pk || msg) mod n == e`.
//!
//! The algebra is exactly that of real Schnorr signatures; only the group
//! size (61 bits) is toy-scale so that all arithmetic fits in `u128` without
//! a big-integer dependency. The AC3WN/AC3TW protocols rely solely on the
//! *functional* contract — signatures verify under the matching public key
//! and fail for tampered messages or wrong keys — which holds here.

use crate::hash::Hash256;
use crate::sha256::Sha256;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The group modulus: the Mersenne prime `2^61 - 1`.
pub const MODULUS: u64 = (1u64 << 61) - 1;
/// The exponent modulus `p - 1`.
pub const ORDER: u64 = MODULUS - 1;
/// The fixed group base.
pub const GENERATOR: u64 = 3;

/// Errors returned by signature operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// The secret key is zero or not reduced modulo the group order.
    InvalidSecretKey,
    /// The public key is not a valid group element.
    InvalidPublicKey,
    /// The signature failed verification.
    VerificationFailed,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::InvalidSecretKey => write!(f, "invalid secret key"),
            SignatureError::InvalidPublicKey => write!(f, "invalid public key"),
            SignatureError::VerificationFailed => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// Modular multiplication in `GF(p)`.
#[inline]
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation by square-and-multiply.
fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc: u64 = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Reduce a hash to a nonzero exponent modulo [`ORDER`].
fn hash_to_exponent(h: &Hash256) -> u64 {
    let x = h.to_u64() % ORDER;
    if x == 0 {
        1
    } else {
        x
    }
}

/// A secret signing key (an exponent in `[1, ORDER)`).
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey(u64);

impl SecretKey {
    /// Construct from a raw exponent. Returns an error if the exponent is
    /// zero or not reduced.
    pub fn from_scalar(x: u64) -> Result<Self, SignatureError> {
        if x == 0 || x >= ORDER {
            return Err(SignatureError::InvalidSecretKey);
        }
        Ok(SecretKey(x))
    }

    /// Derive a secret key deterministically from a seed label. Handy for
    /// reproducible simulations ("alice", "bob", ...).
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"ac3wn/secret-key/v1");
        h.update(seed);
        SecretKey(hash_to_exponent(&Hash256::from(h.finalize())))
    }

    /// The corresponding public key `g^x mod p`.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(pow_mod(GENERATOR, self.0, MODULUS))
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the scalar.
        write!(f, "SecretKey(..)")
    }
}

/// A public verification key (a group element), also used as the on-chain
/// identity / address of end users (Section 2.2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PublicKey(u64);

impl PublicKey {
    /// Construct from a raw group element.
    pub fn from_element(y: u64) -> Result<Self, SignatureError> {
        if y == 0 || y >= MODULUS {
            return Err(SignatureError::InvalidPublicKey);
        }
        Ok(PublicKey(y))
    }

    /// The raw group element.
    pub fn element(&self) -> u64 {
        self.0
    }

    /// Canonical byte encoding used inside hashes and on-chain addresses.
    pub fn to_bytes(&self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// A deterministic 256-bit address derived from this key, used as the
    /// account identifier on simulated chains.
    pub fn address_hash(&self) -> Hash256 {
        let mut h = Sha256::new();
        h.update(b"ac3wn/address/v1");
        h.update(&self.to_bytes());
        Hash256::from(h.finalize())
    }

    /// Verify `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        if sig.e >= ORDER || sig.s >= ORDER {
            return Err(SignatureError::VerificationFailed);
        }
        let e_prime = challenge(recover_commitment(self.0, sig), self, msg);
        if e_prime == sig.e {
            Ok(())
        } else {
            Err(SignatureError::VerificationFailed)
        }
    }

    /// Boolean convenience wrapper around [`PublicKey::verify`].
    pub fn verifies(&self, msg: &[u8], sig: &Signature) -> bool {
        self.verify(msg, sig).is_ok()
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:016x})", self.0)
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", &self.address_hash().short())
    }
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Signature {
    /// The Fiat–Shamir challenge.
    pub e: u64,
    /// The response scalar.
    pub s: u64,
}

impl Signature {
    /// Canonical byte encoding (16 bytes, big endian `e || s`).
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.e.to_be_bytes());
        out[8..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Decode from the canonical 16-byte encoding.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        Signature {
            e: u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes")),
            s: u64::from_be_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }
}

/// The commitment `r' = g^s · y^(-e)` a verifier recomputes from `y` and a
/// range-checked signature, as `g^s · y^(ORDER - e)`: every nonzero `y` in
/// `GF(p)` has `y^ORDER = 1` (Fermat), so `y^(ORDER - e)` is the inverse of
/// `y^e` at one exponentiation, not two. For `y ≡ 0 mod p`, which only a
/// deserialized key can hold, `r' = 0` whenever `e ≠ 0`, as with the
/// inverse; `e = 0` never verifies, since no challenge is 0.
fn recover_commitment(y: u64, sig: &Signature) -> u64 {
    mul_mod(pow_mod(GENERATOR, sig.s, MODULUS), pow_mod(y, ORDER - sig.e, MODULUS), MODULUS)
}

/// Fiat–Shamir challenge `H(r || pk || msg) mod n`.
fn challenge(r: u64, pk: &PublicKey, msg: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(b"ac3wn/schnorr/challenge/v1");
    h.update(&r.to_be_bytes());
    h.update(&pk.to_bytes());
    h.update(msg);
    hash_to_exponent(&Hash256::from(h.finalize()))
}

/// A (secret, public) key pair.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Build a key pair from an existing secret key.
    pub fn from_secret(secret: SecretKey) -> Self {
        KeyPair { secret, public: secret.public_key() }
    }

    /// Derive a key pair deterministically from a seed label.
    pub fn from_seed(seed: &[u8]) -> Self {
        Self::from_secret(SecretKey::from_seed(seed))
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The secret half.
    pub fn secret(&self) -> SecretKey {
        self.secret
    }

    /// Sign `msg` with a deterministic nonce.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        // Deterministic nonce: k = H(domain || sk || msg) mod n.
        let mut h = Sha256::new();
        h.update(b"ac3wn/schnorr/nonce/v1");
        h.update(&self.secret.0.to_be_bytes());
        h.update(msg);
        let k = hash_to_exponent(&Hash256::from(h.finalize()));

        let r = pow_mod(GENERATOR, k, MODULUS);
        let e = challenge(r, &self.public, msg);
        let s = (k as u128 + mul_mod(e, self.secret.0, ORDER) as u128) % ORDER as u128;
        Signature { e, s: s as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::from_seed(b"alice");
        let msg = b"transfer X bitcoins to bob";
        let sig = kp.sign(msg);
        assert!(kp.public().verifies(msg, &sig));
    }

    #[test]
    fn tampered_message_fails() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = kp.sign(b"pay 10");
        assert!(!kp.public().verifies(b"pay 11", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let alice = KeyPair::from_seed(b"alice");
        let bob = KeyPair::from_seed(b"bob");
        let sig = alice.sign(b"msg");
        assert!(!bob.public().verifies(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = KeyPair::from_seed(b"alice");
        let msg = b"msg";
        let sig = kp.sign(msg);
        let bad_e = Signature { e: sig.e ^ 1, s: sig.s };
        let bad_s = Signature { e: sig.e, s: (sig.s + 1) % ORDER };
        assert!(!kp.public().verifies(msg, &bad_e));
        assert!(!kp.public().verifies(msg, &bad_s));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = KeyPair::from_seed(b"alice");
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), kp.sign(b"n"));
    }

    #[test]
    fn seeded_keys_are_stable_and_distinct() {
        let a1 = KeyPair::from_seed(b"alice");
        let a2 = KeyPair::from_seed(b"alice");
        let b = KeyPair::from_seed(b"bob");
        assert_eq!(a1.public(), a2.public());
        assert_ne!(a1.public(), b.public());
    }

    #[test]
    fn random_keys_sign_and_verify() {
        for i in 0u32..32 {
            let kp = KeyPair::from_seed(&i.to_be_bytes());
            let msg = b"random keypair message";
            assert!(kp.public().verifies(msg, &kp.sign(msg)));
        }
    }

    #[test]
    fn invalid_scalars_rejected() {
        assert_eq!(SecretKey::from_scalar(0).unwrap_err(), SignatureError::InvalidSecretKey);
        assert_eq!(SecretKey::from_scalar(ORDER).unwrap_err(), SignatureError::InvalidSecretKey);
        assert!(SecretKey::from_scalar(42).is_ok());
        assert_eq!(PublicKey::from_element(0).unwrap_err(), SignatureError::InvalidPublicKey);
        assert_eq!(PublicKey::from_element(MODULUS).unwrap_err(), SignatureError::InvalidPublicKey);
    }

    #[test]
    fn signature_byte_round_trip() {
        let kp = KeyPair::from_seed(b"codec");
        let sig = kp.sign(b"encode me");
        assert_eq!(Signature::from_bytes(&sig.to_bytes()), sig);
    }

    #[test]
    fn out_of_range_signature_rejected_cleanly() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = Signature { e: ORDER, s: ORDER };
        assert_eq!(
            kp.public().verify(b"msg", &sig).unwrap_err(),
            SignatureError::VerificationFailed
        );
    }

    /// The commitment the verifier recomputed before `recover_commitment`:
    /// `g^s · (y^e)^(p-2)`, inverting `y^e` by Fermat.
    fn fermat_commitment(y: u64, sig: &Signature) -> u64 {
        let y_e_inv = pow_mod(pow_mod(y, sig.e, MODULUS), MODULUS - 2, MODULUS);
        mul_mod(pow_mod(GENERATOR, sig.s, MODULUS), y_e_inv, MODULUS)
    }

    /// `verify` and the Fermat-inverse verifier give the same verdict, and
    /// the same commitment wherever the two formulas are defined to agree.
    fn assert_same_verdict(y: u64, msg: &[u8], sig: &Signature) {
        let in_range = sig.e < ORDER && sig.s < ORDER;
        let fermat = in_range && challenge(fermat_commitment(y, sig), &PublicKey(y), msg) == sig.e;
        assert_eq!(PublicKey(y).verifies(msg, sig), fermat, "y={y} sig={sig:?}");
        if in_range && (!y.is_multiple_of(MODULUS) || sig.e != 0) {
            assert_eq!(recover_commitment(y, sig), fermat_commitment(y, sig), "y={y} sig={sig:?}");
        }
    }

    #[test]
    fn verify_agrees_with_the_fermat_inverse_verifier() {
        // A deterministic stream of 64-bit values.
        let mut counter = 0u64;
        let mut next = || {
            counter += 1;
            Hash256::digest(&counter.to_be_bytes()).to_u64()
        };
        for _ in 0..64 {
            let kp = KeyPair::from_secret(SecretKey(next() % (ORDER - 1) + 1));
            let msg = next().to_be_bytes();
            let sig = kp.sign(&msg);
            assert!(kp.public().verifies(&msg, &sig));
            assert_same_verdict(kp.public().0, &msg, &sig);
            // A random signature under the same key, and a random element
            // as the key.
            assert_same_verdict(kp.public().0, &msg, &Signature { e: next(), s: next() % ORDER });
            assert_same_verdict(kp.public().0, &msg, &Signature { e: next() % ORDER, s: next() });
            assert_same_verdict(next(), &msg, &sig);
        }
        // Edge values of the challenge, the response and the key element,
        // including elements `from_element` refuses (0, MODULUS, u64::MAX)
        // but a deserialized key may hold.
        let kp = KeyPair::from_seed(b"edge");
        let sig = kp.sign(b"m");
        for y in [0, 1, MODULUS - 1, MODULUS, u64::MAX, kp.public().0] {
            for e in [0, 1, ORDER - 1, sig.e] {
                for s in [0, ORDER - 1, sig.s] {
                    assert_same_verdict(y, b"m", &Signature { e, s });
                }
            }
        }
    }

    #[test]
    fn pow_mod_basics() {
        assert_eq!(pow_mod(2, 10, 1_000_000_007), 1024);
        assert_eq!(pow_mod(5, 0, 7), 1);
        // Fermat's little theorem sanity check with the group modulus.
        assert_eq!(pow_mod(GENERATOR, MODULUS - 1, MODULUS), 1);
    }

    #[test]
    fn address_hash_distinct_per_key() {
        let a = KeyPair::from_seed(b"alice").public().address_hash();
        let b = KeyPair::from_seed(b"bob").public().address_hash();
        assert_ne!(a, b);
    }
}
