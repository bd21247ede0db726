//! Entropy-coding substrate for the SZ-style compressors.
//!
//! The real SZ framework encodes quantization codes with a customized
//! Huffman coder and then runs a general-purpose lossless compressor (zstd)
//! over the result. This crate provides from-scratch equivalents:
//!
//! * [`bitio`] — MSB-first bit-level reader/writer;
//! * [`huffman`] — canonical Huffman coding over `u32` symbol alphabets;
//! * [`lzss`] — an LZ77/LZSS byte compressor with hash-chain matching,
//!   standing in for zstd as the final lossless stage;
//! * [`varint`] — LEB128 varints and zigzag mapping for signed values.
//!
//! Everything round-trips losslessly; property tests in each module assert
//! that for arbitrary inputs.
//!
//! Decoders are hardened against untrusted input: every declared length is
//! validated against a [`DecodeBudget`] (and the remaining input, where the
//! format allows) *before* any allocation, so a corrupted length prefix
//! yields a [`CodecError`] instead of a panic or an abort-on-alloc.
//! [`fnv1a_64`] (from `amrviz-rng`) is the hash the v4 wire format uses for
//! per-chunk integrity.
//!
//! ```
//! use amrviz_codec::{huffman_encode, huffman_decode, lzss_compress, lzss_decompress};
//!
//! let symbols: Vec<u32> = (0..1000).map(|i| i % 7).collect();
//! let packed = lzss_compress(&huffman_encode(&symbols));
//! assert!(packed.len() < symbols.len()); // ≪ 4 bytes/symbol
//! let back = huffman_decode(&lzss_decompress(&packed).unwrap()).unwrap();
//! assert_eq!(back, symbols);
//! ```

#![warn(clippy::or_fun_call)]

pub mod bitio;
pub mod budget;
pub mod huffman;
pub mod lzss;
pub mod varint;

pub use amrviz_rng::fnv1a_64;
pub use bitio::{BitReader, BitWriter};
pub use budget::DecodeBudget;
pub use huffman::{huffman_decode, huffman_decode_into, huffman_encode, huffman_encode_into};
pub use lzss::{lzss_compress, lzss_compress_into, lzss_decompress, lzss_decompress_into};
pub use varint::{read_uvarint, write_uvarint, zigzag_decode, zigzag_encode};

/// Errors returned by decoders when the input is malformed, truncated, or
/// over budget.
///
/// The three variants are a *taxonomy*, not just messages: callers (the
/// torture harness, `amrviz serve`) match on the variant to decide whether a
/// failure is retryable. A [`CodecError::BudgetExceeded`] from a deadline is
/// transient — the same request may succeed with a larger budget — while
/// [`CodecError::Corrupt`] and [`CodecError::Truncated`] describe the bytes
/// themselves and never go away on retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of input bits/bytes: the stream ends before the structure it
    /// declared (truncation, short read).
    Truncated,
    /// Structurally invalid stream (bad header, impossible code, checksum
    /// mismatch, …): the bytes are wrong, not merely missing.
    Corrupt(&'static str),
    /// A [`DecodeBudget`] cap tripped: a declared size exceeded the limit,
    /// or the cooperative deadline passed mid-decode. The input may be
    /// fine — the *budget* said stop.
    BudgetExceeded(&'static str),
}

impl CodecError {
    /// Message used by deadline breaches; [`CodecError::is_deadline`] keys
    /// off it so serve can tell "too slow" from "stream declared too much".
    pub const DEADLINE_MSG: &'static str = "decode deadline exceeded";

    /// The deadline-breach error.
    pub const fn deadline() -> Self {
        CodecError::BudgetExceeded(Self::DEADLINE_MSG)
    }

    /// True when this is the cooperative-deadline breach (retry with a
    /// larger budget may succeed; the input itself is not implicated).
    pub fn is_deadline(&self) -> bool {
        matches!(self, CodecError::BudgetExceeded(m) if *m == Self::DEADLINE_MSG)
    }

    /// Short stable class name for logs/journal: `corrupt`, `truncated`,
    /// or `budget`.
    pub fn class(&self) -> &'static str {
        match self {
            CodecError::Truncated => "truncated",
            CodecError::Corrupt(_) => "corrupt",
            CodecError::BudgetExceeded(_) => "budget",
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated stream: unexpected end of input"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::BudgetExceeded(what) => write!(f, "decode budget exceeded: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}
