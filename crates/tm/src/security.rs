//! Per-route payload protection.
//!
//! The paper's §2 lists "communication security" among the deployment
//! scenarios (grid traffic crosses insecure networks) and §6 sketches the
//! optimization Padico targets: when two components sit inside the same
//! trusted parallel machine, encryption can be *disabled* and its CPU cost
//! saved. This module provides exactly that switch:
//!
//! * a stream transform applied to payloads on untrusted routes,
//! * a calibrated CPU cost charged per byte when the transform runs,
//! * nothing at all on trusted routes.
//!
//! **The cipher here is a keystream XOR and is NOT cryptographically
//! secure.** It stands in for the CORBA security service's bulk encryption
//! so that the *performance* behaviour (per-byte CPU cost, and the saving
//! from disabling it) is faithfully exercised; confidentiality itself is
//! out of scope for the reproduction.

use padico_fabric::Payload;
use padico_util::simtime::{transfer_time, SimClock};

/// Bulk encryption throughput of the era's hosts (3DES-class, PIII 1 GHz),
/// MB/s. This is what makes encryption worth disabling inside a SAN.
pub const CIPHER_MB_S: f64 = 18.0;

/// A symmetric keystream cipher instance (toy — see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionKey(pub u64);

impl SessionKey {
    /// Derive a session key both ends can compute from connection
    /// identifiers (stands in for the CORBA security service handshake).
    pub fn derive(a: u64, b: u64) -> SessionKey {
        let mut x = a
            .rotate_left(17)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(b);
        x ^= x >> 31;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        SessionKey(x)
    }

    fn keystream_byte(&self, index: u64) -> u8 {
        let mut x = self
            .0
            .wrapping_add(index.wrapping_mul(0x2545_f491_4f6c_dd1d));
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        (x & 0xff) as u8
    }

    /// XOR `data` with the keystream starting at `offset`. Involutive:
    /// applying twice with the same offset restores the input.
    pub fn apply(&self, data: &mut [u8], offset: u64) {
        for (i, byte) in data.iter_mut().enumerate() {
            *byte ^= self.keystream_byte(offset + i as u64);
        }
    }
}

/// Encrypt (or decrypt — the transform is involutive) a payload, charging
/// the cipher CPU cost to `clock`. Returns a freshly-owned payload.
pub fn protect(key: SessionKey, payload: &Payload, clock: &SimClock) -> Payload {
    let mut buf = padico_fabric::pool::lease(payload.len());
    for seg in payload.segments() {
        buf.extend_from_slice(seg);
    }
    key.apply(&mut buf, 0);
    clock.advance(transfer_time(buf.len(), CIPHER_MB_S));
    Payload::from_bytes(buf.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cipher_is_involutive() {
        let key = SessionKey::derive(1, 2);
        let mut data = b"multi-physics coupling".to_vec();
        let original = data.clone();
        key.apply(&mut data, 0);
        assert_ne!(data, original, "ciphertext differs");
        key.apply(&mut data, 0);
        assert_eq!(data, original);
    }

    #[test]
    fn different_keys_produce_different_ciphertext() {
        let k1 = SessionKey::derive(1, 2);
        let k2 = SessionKey::derive(1, 3);
        assert_ne!(k1, k2);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        k1.apply(&mut a, 0);
        k2.apply(&mut b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn offset_continuity_for_streaming() {
        // Encrypting a buffer in two chunks with running offsets equals
        // encrypting it at once — required for stream transports.
        let key = SessionKey::derive(7, 7);
        let mut whole = vec![5u8; 100];
        key.apply(&mut whole, 0);
        let mut part1 = vec![5u8; 60];
        let mut part2 = vec![5u8; 40];
        key.apply(&mut part1, 0);
        key.apply(&mut part2, 60);
        part1.extend_from_slice(&part2);
        assert_eq!(whole, part1);
    }

    #[test]
    fn protect_charges_cipher_cost_and_roundtrips() {
        let key = SessionKey::derive(3, 4);
        let clock = SimClock::new();
        let plain = Payload::from_vec(vec![1, 2, 3, 4, 5]);
        let cipher = protect(key, &plain, &clock);
        let after_enc = clock.now();
        assert!(after_enc > 0, "cipher CPU charged");
        assert_ne!(cipher.to_vec(), plain.to_vec());
        let back = protect(key, &cipher, &clock);
        assert_eq!(back.to_vec(), plain.to_vec());
        assert!(clock.now() > after_enc, "decryption charged too");
    }

    #[test]
    fn cipher_cost_scales_with_size() {
        let key = SessionKey::derive(0, 0);
        let c1 = SimClock::new();
        protect(key, &Payload::from_vec(vec![0; 1 << 10]), &c1);
        let c2 = SimClock::new();
        protect(key, &Payload::from_vec(vec![0; 1 << 20]), &c2);
        assert!(c2.now() > 100 * c1.now());
    }
}
