//! Deterministic payload bytes.
//!
//! Workload payloads must be reproducible across runs, so every payload
//! derives its stream from an experiment seed plus a purpose label. Two
//! payloads with different labels are statistically independent; the same
//! (seed, label) pair always produces the same bytes.

/// Deterministic pseudo-random payload of `len` bytes: xoshiro256++,
/// seeded through SplitMix64 from `seed` and an FNV-1a hash of `label`.
///
/// Payload *contents* matter: marshalling code must not be able to cheat by
/// special-casing all-zero buffers, and tests verify bytes survive the full
/// stack bit-exactly.
pub fn payload(seed: u64, label: &str, len: usize) -> Vec<u8> {
    let mut sm = seed ^ fnv1a(label.as_bytes());
    let mut state: [u64; 4] = std::array::from_fn(|_| splitmix64(&mut sm));
    let mut buf = vec![0u8; len];
    // Little-endian words, the last one truncated.
    for chunk in buf.chunks_mut(8) {
        chunk.copy_from_slice(&xoshiro256pp(&mut state).to_le_bytes()[..chunk.len()]);
    }
    buf
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn xoshiro256pp(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `payload(42, "fig7", 64)`.
    const GOLDEN_FIG7_64: [u8; 64] = [
        137, 152, 16, 65, 175, 177, 101, 99, 110, 195, 183, 126, 129, 175, 43, 17, 68, 132, 228,
        21, 247, 196, 133, 191, 91, 41, 146, 97, 195, 141, 65, 146, 248, 113, 248, 239, 131, 67,
        132, 253, 194, 82, 67, 21, 154, 73, 156, 50, 126, 88, 226, 166, 253, 114, 200, 61, 145,
        243, 35, 14, 26, 40, 23, 17,
    ];

    #[test]
    fn same_seed_same_stream() {
        let a = payload(42, "fig7", 256);
        let b = payload(42, "fig7", 256);
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let a = payload(42, "fig7", 256);
        let b = payload(42, "fig8", 256);
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = payload(1, "x", 64);
        let b = payload(2, "x", 64);
        assert_ne!(a, b);
    }

    #[test]
    fn payload_is_not_all_zero() {
        let p = payload(7, "nonzero", 1024);
        assert!(p.iter().any(|&b| b != 0));
    }

    /// Payload bytes feed every figure's workload: a changed stream would
    /// silently change what the figures measure.
    #[test]
    fn payload_bytes_are_pinned() {
        assert_eq!(payload(42, "fig7", 64), GOLDEN_FIG7_64);
        assert_eq!(fnv1a(&payload(7, "nonzero", 4096)), 0x6de6_622a_0940_c560);
        // A length that is not a multiple of 8 keeps the prefix.
        assert_eq!(payload(42, "fig7", 13), GOLDEN_FIG7_64[..13]);
    }
}
