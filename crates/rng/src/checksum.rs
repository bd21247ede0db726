//! FNV-1a 64-bit hashing: the wire format's integrity checksum, and the
//! one hash anything else in the workspace keys on (recipe seeds, store
//! keys, flamegraph colours).
//!
//! FNV-1a is not cryptographic — it guards against bit rot, truncation, and
//! transport corruption, which is exactly the failure model of the v4 wire
//! format. It is dependency-free, stable across platforms, and fast enough
//! to run over every chunk on every decode.

/// 64-bit FNV-1a over a byte stream.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_bit_flip_changes_hash() {
        let data = vec![0x5au8; 256];
        let base = fnv1a_64(&data);
        for i in 0..data.len() {
            let mut corrupted = data.clone();
            corrupted[i] ^= 1;
            assert_ne!(fnv1a_64(&corrupted), base, "flip at byte {i} undetected");
        }
    }
}
