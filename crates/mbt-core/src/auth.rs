//! Metadata authentication against fake publishers.
//!
//! Metadata carries "authentication information of the metadata against fake
//! publishers" (paper §III-B item f). The paper does not prescribe a scheme;
//! this module implements a keyed-MAC over the metadata's canonical bytes
//! (HMAC-SHA1 construction) with a per-publisher key registry. Within the
//! simulation the registry plays the role of a PKI: a node holding the
//! registry can verify that metadata claiming publisher *P* was produced by
//! the holder of *P*'s key, so forged advertisements are rejected before they
//! pollute discovery.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::checksum::{Digest, Sha1};
use crate::metadata::Metadata;

/// A publisher's signing key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublisherKey {
    bytes: Vec<u8>,
}

impl PublisherKey {
    /// Derives a deterministic per-publisher key from a master secret
    /// (convenience for simulations).
    pub fn derive(master: &[u8], publisher: &str) -> Self {
        let mut h = Sha1::new();
        h.update(master);
        h.update(b"/");
        h.update(publisher.as_bytes());
        PublisherKey {
            bytes: h.finalize().as_bytes().to_vec(),
        }
    }
}

/// HMAC-SHA1 over `message` with `key`.
fn hmac_sha1(key: &[u8], message: &[u8]) -> Digest {
    const BLOCK: usize = 64;
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        let d = {
            let mut h = Sha1::new();
            h.update(key);
            h.finalize()
        };
        key_block[..20].copy_from_slice(d.as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
    let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
    let inner = {
        let mut h = Sha1::new();
        h.update(&ipad);
        h.update(message);
        h.finalize()
    };
    let mut h = Sha1::new();
    h.update(&opad);
    h.update(inner.as_bytes());
    h.finalize()
}

/// Signs `metadata` in place with the publisher's key.
pub fn sign(metadata: &mut Metadata, key: &PublisherKey) {
    let tag = hmac_sha1(&key.bytes, &metadata.canonical_bytes());
    metadata.set_auth_tag(tag);
}

/// Verifies `metadata` against the publisher's key.
///
/// Returns `false` if the metadata is unsigned or the tag does not match the
/// canonical bytes under `key`.
pub fn verify(metadata: &Metadata, key: &PublisherKey) -> bool {
    match metadata.auth_tag() {
        Some(tag) => hmac_sha1(&key.bytes, &metadata.canonical_bytes()) == tag,
        None => false,
    }
}

/// Error returned by [`KeyRegistry::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// The claimed publisher has no registered key.
    UnknownPublisher(String),
    /// The tag is missing or does not verify.
    BadSignature {
        /// The claimed publisher.
        publisher: String,
    },
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownPublisher(p) => write!(f, "unknown publisher `{p}`"),
            AuthError::BadSignature { publisher } => {
                write!(
                    f,
                    "metadata failed authentication for publisher `{publisher}`"
                )
            }
        }
    }
}

impl Error for AuthError {}

/// Maps publisher names to their keys.
///
/// # Example
///
/// ```
/// use mbt_core::auth::{sign, KeyRegistry, PublisherKey};
/// use mbt_core::{Metadata, Uri};
///
/// let mut registry = KeyRegistry::new();
/// let key = PublisherKey::derive(b"master-secret", "FOX");
/// registry.register("FOX", key.clone());
///
/// let mut meta = Metadata::builder("News", "FOX", Uri::new("mbt://fox/1")?).build();
/// sign(&mut meta, &key);
/// assert!(registry.verify(&meta).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    keys: BTreeMap<String, PublisherKey>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        KeyRegistry::default()
    }

    /// Registers (or replaces) a publisher's key.
    pub fn register<S: Into<String>>(&mut self, publisher: S, key: PublisherKey) {
        self.keys.insert(publisher.into(), key);
    }

    /// Verifies metadata against its claimed publisher's registered key.
    ///
    /// # Errors
    ///
    /// [`AuthError::UnknownPublisher`] if the publisher is not registered,
    /// [`AuthError::BadSignature`] if the tag is missing or wrong.
    pub fn verify(&self, metadata: &Metadata) -> Result<(), AuthError> {
        let key = self
            .keys
            .get(metadata.publisher())
            .ok_or_else(|| AuthError::UnknownPublisher(metadata.publisher().to_string()))?;
        if verify(metadata, key) {
            Ok(())
        } else {
            Err(AuthError::BadSignature {
                publisher: metadata.publisher().to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uri::Uri;

    fn meta(name: &str, publisher: &str) -> Metadata {
        Metadata::builder(name, publisher, Uri::new("mbt://x/1").unwrap()).build()
    }

    #[test]
    fn hmac_sha1_rfc2202_vector_1() {
        // RFC 2202 test case 1.
        let key = [0x0bu8; 20];
        let tag = hmac_sha1(&key, b"Hi There");
        assert_eq!(tag.to_hex(), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn hmac_sha1_rfc2202_vector_2() {
        let tag = hmac_sha1(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(tag.to_hex(), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn hmac_sha1_long_key() {
        // Keys longer than the block size are hashed first (RFC 2202 case 6).
        let key = [0xaau8; 80];
        let tag = hmac_sha1(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(tag.to_hex(), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    #[test]
    fn sign_then_verify() {
        let key = PublisherKey::derive(b"secret", "FOX");
        let mut m = meta("News", "FOX");
        assert!(!verify(&m, &key), "unsigned metadata must not verify");
        sign(&mut m, &key);
        assert!(verify(&m, &key));
    }

    #[test]
    fn tamper_detection() {
        let key = PublisherKey::derive(b"secret", "FOX");
        let mut m = meta("News", "FOX");
        sign(&mut m, &key);
        // Re-build with a different name but re-use the old tag.
        let mut forged = meta("Fake News", "FOX");
        forged.set_auth_tag(m.auth_tag().unwrap());
        assert!(!verify(&forged, &key));
    }

    #[test]
    fn wrong_key_fails() {
        let fox = PublisherKey::derive(b"secret", "FOX");
        let fake = PublisherKey::derive(b"attacker", "FOX");
        let mut m = meta("News", "FOX");
        sign(&mut m, &fake);
        assert!(!verify(&m, &fox));
    }

    #[test]
    fn registry_verifies_known_publisher() {
        let mut reg = KeyRegistry::new();
        let key = PublisherKey::derive(b"s", "ABC");
        reg.register("ABC", key.clone());
        let mut m = meta("Show", "ABC");
        sign(&mut m, &key);
        assert_eq!(reg.verify(&m), Ok(()));
        assert!(reg.keys.contains_key("ABC"));
    }

    #[test]
    fn registry_rejects_unknown_and_forged() {
        let mut reg = KeyRegistry::new();
        reg.register("ABC", PublisherKey::derive(b"s", "ABC"));
        let unknown = meta("Show", "CBS");
        assert!(matches!(
            reg.verify(&unknown),
            Err(AuthError::UnknownPublisher(_))
        ));
        let mut forged = meta("Show", "ABC");
        sign(&mut forged, &PublisherKey::derive(b"attacker", "ABC"));
        assert!(matches!(
            reg.verify(&forged),
            Err(AuthError::BadSignature { .. })
        ));
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        assert_eq!(
            PublisherKey::derive(b"m", "FOX"),
            PublisherKey::derive(b"m", "FOX")
        );
        assert_ne!(
            PublisherKey::derive(b"m", "FOX"),
            PublisherKey::derive(b"m", "ABC")
        );
    }

    #[test]
    fn auth_error_display() {
        assert!(AuthError::UnknownPublisher("X".into())
            .to_string()
            .contains("X"));
    }
}
