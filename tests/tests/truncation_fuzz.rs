//! Truncation-at-every-prefix property tests.
//!
//! For every codec in the workspace: encode a random input, then decode
//! **every** byte prefix of the valid stream, from empty to full length.
//! The contract is simply "no panic" — each prefix must come back as a
//! graceful `Err` or (for prefixes that happen to be self-delimiting) a
//! valid `Ok`. A panic anywhere fails the test harness, which is exactly
//! the assertion. Decoding runs under `DecodeBudget::strict()` so inflated
//! length prefixes exposed by truncation can't demand absurd allocations
//! either.

use amrviz_codec::{
    huffman_decode_into, huffman_encode, lzss_compress, lzss_decompress_into, read_uvarint,
    write_uvarint, BitReader, BitWriter, DecodeBudget,
};
use amrviz_compress::{
    compress_hierarchy_field, AmrCodecConfig, CompressedHierarchyField, ErrorBound, SzLr,
};
use amrviz_integration_tests::nyx_like;
use amrviz_rng::{check, Rng};

fn random_symbols(rng: &mut Rng, max_len: usize, max_sym: u64) -> Vec<u32> {
    let n = rng.range_usize(1, max_len.max(2));
    (0..n).map(|_| rng.below(max_sym) as u32).collect()
}

#[test]
fn varint_survives_truncation_at_every_prefix() {
    check(0xA1, 16, |rng| {
        let mut stream = Vec::new();
        let n = rng.range_usize(1, 40);
        for _ in 0..n {
            write_uvarint(&mut stream, rng.next_u64() >> rng.below(64));
        }
        for cut in 0..=stream.len() {
            let prefix = &stream[..cut];
            let mut pos = 0;
            while pos < prefix.len() {
                if read_uvarint(prefix, &mut pos).is_err() {
                    break;
                }
            }
        }
    });
}

#[test]
fn bitio_survives_truncation_at_every_prefix() {
    check(0xA2, 16, |rng| {
        let mut w = BitWriter::new();
        let n = rng.range_usize(1, 300);
        for _ in 0..n {
            w.write_bits(rng.next_u64(), 1 + rng.below(32) as u32);
        }
        let stream = w.finish();
        for cut in 0..=stream.len() {
            let mut r = BitReader::new(&stream[..cut]);
            while r.read_bits(11).is_ok() {}
        }
    });
}

#[test]
fn huffman_survives_truncation_at_every_prefix() {
    let budget = DecodeBudget::strict();
    check(0xA3, 12, |rng| {
        // Skewed distribution → multi-length canonical code table.
        let syms: Vec<u32> = random_symbols(rng, 400, 50)
            .into_iter()
            .map(|s| if s > 40 { s } else { s % 5 })
            .collect();
        let stream = huffman_encode(&syms);
        let mut decoded = Vec::new();
        for cut in 0..=stream.len() {
            match huffman_decode_into(&stream[..cut], &budget, &mut decoded) {
                Ok(()) if cut == stream.len() => assert_eq!(decoded, syms),
                _ => {}
            }
        }
    });
}

#[test]
fn lzss_survives_truncation_at_every_prefix() {
    let budget = DecodeBudget::strict();
    check(0xA5, 12, |rng| {
        // Repetitive input so the stream contains real back-references.
        let n = rng.range_usize(1, 600);
        let data: Vec<u8> = (0..n)
            .map(|i| ((i / 7) % 31) as u8 ^ rng.below(4) as u8)
            .collect();
        let stream = lzss_compress(&data);
        let mut decoded = Vec::new();
        for cut in 0..=stream.len() {
            match lzss_decompress_into(&stream[..cut], &budget, &mut decoded) {
                Ok(()) if cut == stream.len() => assert_eq!(decoded, data),
                _ => {}
            }
        }
    });
}

#[test]
fn container_survives_truncation_at_every_prefix() {
    let built = nyx_like(5);
    let field = built.spec.eval_field();
    let cfg = AmrCodecConfig {
        skip_redundant: true,
        restore_redundant: true,
    };
    let compressed = compress_hierarchy_field(
        &built.hierarchy,
        field,
        &SzLr::default(),
        ErrorBound::Rel(1e-3),
        &cfg,
    )
    .expect("tiny scenario compresses");
    let stream = compressed.to_bytes();
    let budget = DecodeBudget::strict();
    let mut prefix_oks = 0;
    for cut in 0..=stream.len() {
        if CompressedHierarchyField::from_bytes_budgeted(&stream[..cut], &budget).is_ok() {
            prefix_oks += 1;
        }
    }
    // Only the complete stream parses: every v4 container ends with a
    // trailing-bytes check and a final chunk section, so proper prefixes
    // must all fail structurally.
    assert_eq!(
        prefix_oks, 1,
        "a proper prefix of a v4 container parsed as valid"
    );
    assert!(
        CompressedHierarchyField::from_bytes_budgeted(&stream, &budget).is_ok(),
        "the full stream must still parse"
    );
}
