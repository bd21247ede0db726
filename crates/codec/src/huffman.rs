//! Canonical Huffman coding over `u32` symbol alphabets.
//!
//! This mirrors the role of SZ's "customized Huffman" stage: quantization
//! codes (bin indices) are entropy-coded with a code table stored in the
//! stream header. Codes are canonical, so the header only carries
//! `(symbol, code length)` pairs.
//!
//! Neither direction works a bit or a hash at a time. The encoder counts
//! into a dense window over `min..=max` of the stream when that span is
//! proportionate to the stream's length (quantization codes cluster round
//! the quantizer's radius) and otherwise sorts a copy and binary-searches;
//! either way a symbol's code comes out of a packed `code << 6 | len`
//! array, and its working tables are kept per thread so a stream of a
//! thousand symbols costs no allocation. The decoder resolves codes of up
//! to `LOOKUP_BITS` bits with one lookup in a table built from the
//! validated header, several per peeked word; longer codes, and bit
//! patterns no code owns, take the per-length walk of the canonical ranges.

use std::cell::RefCell;

use crate::bitio::{BitReader, BitWriter};
use crate::budget::DecodeBudget;
use crate::varint::{read_uvarint, write_uvarint};
use crate::CodecError;

/// Maximum code length we allow; keeps decode state in a `u64` with room to
/// spare. Reached only by adversarially skewed alphabets, which we flatten.
const MAX_CODE_LEN: u32 = 48;

/// Widest code the decoder resolves with one table lookup (an 8 KiB table
/// at most; shorter when the longest code is).
const LOOKUP_BITS: u32 = 11;

/// The encoder counts in a dense window when `max - min` of the stream is
/// at most this many times its length — about where clearing and scanning
/// the window costs what sorting a copy does — and below
/// [`DENSE_SPAN_MAX`]: a 1 MiB window still counts in cache and stays
/// invisible next to the stream's own buffers, the 8 MiB one a 2²⁰-symbol
/// alphabet would take does neither.
const DENSE_SPAN_PER_SYMBOL: u64 = 8;
const DENSE_SPAN_MAX: u64 = 1 << 17;

/// The encoder's working tables, one set per thread and reused across
/// calls, so the thousands of thousand-odd-symbol streams a pipeline
/// encodes cost no allocation once the tables have grown. Allocated per
/// call they were also freed per call, a few hundred bytes each, into the
/// allocator's thread cache wherever they had been carved — once out of a
/// 16 MiB hole the caller's buffers then could not reuse (`warpx_table2`
/// peak RSS 75.9 instead of 67.4 MiB). A private thread-local, not
/// `amrviz_par::scratch` rentals: in that shared pool a small table and a
/// caller's large buffer swap roles and both end up large.
#[derive(Default)]
struct Tables {
    /// `(symbol, frequency)`, ascending by symbol.
    freqs: Vec<(u32, u64)>,
    /// Dense path: per-symbol counts over `min..=max`, then packed codes.
    window: Vec<u64>,
    /// Sparse path: a sorted copy of the stream.
    copy: Vec<u32>,
    /// `(weight, leaf)` in merge order, then `(length, leaf)` in canonical.
    sorted: Vec<(u64, usize)>,
    /// Weights of the internal nodes, in birth order.
    weight: Vec<u64>,
    /// Per node (leaves first) its parent, then its depth: `depth[i]` ends
    /// up as the code length of `freqs[i]`.
    depth: Vec<usize>,
    /// `code << 6 | len` of `freqs[i]` (a code has at most `MAX_CODE_LEN`
    /// = 48 bits).
    packed: Vec<u64>,
}

/// A thread's [`Tables`] are dropped after a call that grew any of them
/// past this many entries, so one wide alphabet does not stay resident.
const RETAINED_ENTRIES: usize = 1 << 13;

thread_local! {
    static TABLES: RefCell<Tables> = RefCell::new(Tables::default());
}

impl Tables {
    /// Computes the code length of every `freqs` entry into `depth`.
    ///
    /// Nodes merge in the order a min-heap over `(frequency, index)` would
    /// pop them — leaves carry their index, internal nodes the next indices
    /// in creation order — but without the heap: the leaves are sorted once,
    /// internal nodes are born in non-decreasing weight and increasing
    /// index, so the smallest node is always at the head of one of those two
    /// queues, a leaf winning ties.
    fn code_lengths(&mut self) {
        let n = self.freqs.len();
        self.depth.clear();
        if n == 1 {
            // A single-symbol alphabet needs one bit so the bitstream has
            // measurable length per symbol (and canonical decode stays
            // simple).
            self.depth.push(1);
            return;
        }
        self.sorted.clear();
        self.sorted
            .extend(self.freqs.iter().zip(0..).map(|(&(_, f), i)| (f.max(1), i)));
        self.sorted.sort_unstable();
        // Node arena: leaves `0..n` first, then internal nodes `n..2n-1`.
        self.weight.clear();
        self.weight.resize(n - 1, 0);
        self.depth.resize(2 * n - 1, 0);
        let (leaves, weight, parent) = (&self.sorted, &mut self.weight, &mut self.depth);
        let (mut leaf, mut inner) = (0, 0);
        for born in 0..n - 1 {
            for _ in 0..2 {
                let (w, node) = if leaf < n && (inner == born || leaves[leaf].0 <= weight[inner]) {
                    leaf += 1;
                    leaves[leaf - 1]
                } else {
                    inner += 1;
                    (weight[inner - 1], n + inner - 1)
                };
                weight[born] += w;
                parent[node] = n + born;
            }
        }
        // A parent's index exceeds its children's, so one descending pass
        // turns parent links into depths in place (the root, last, is 0).
        parent[2 * n - 2] = 0;
        for node in (0..2 * n - 2).rev() {
            parent[node] = parent[parent[node]] + 1;
        }
        parent.truncate(n);
    }

    /// [`Tables::code_lengths`], flattening the frequencies while the tree
    /// is pathologically deep (a code longer than [`MAX_CODE_LEN`]).
    fn flattened_code_lengths(&mut self) {
        self.code_lengths();
        while self.depth.iter().any(|&d| d > MAX_CODE_LEN as usize) {
            for f in &mut self.freqs {
                f.1 = 1 + f.1 / 2;
            }
            self.code_lengths();
        }
    }

    fn encode(&mut self, symbols: &[u32], lo: u32, hi: u32, out: &mut Vec<u8>) {
        // Frequency table (deterministic order: by symbol), counted in a
        // window over `lo..=hi` or, when that is out of proportion to the
        // stream, from a sorted copy.
        let span = (hi - lo) as u64;
        let dense = span < DENSE_SPAN_MAX
            && span <= DENSE_SPAN_PER_SYMBOL.saturating_mul(symbols.len() as u64);
        self.freqs.clear();
        if dense {
            self.window.clear();
            self.window.resize(span as usize + 1, 0);
            for &s in symbols {
                self.window[(s - lo) as usize] += 1;
            }
            let counted = (lo..=hi).zip(self.window.iter().copied());
            self.freqs.extend(counted.filter(|&(_, f)| f > 0));
        } else {
            self.copy.clear();
            self.copy.extend_from_slice(symbols);
            self.copy.sort_unstable();
            let runs = self.copy.chunk_by(|a, b| a == b);
            self.freqs
                .extend(runs.map(|run| (run[0], run.len() as u64)));
        }

        self.flattened_code_lengths();

        // Canonical order is (len, symbol); `freqs` ascends by symbol, so
        // (len, index) sorts the same way.
        self.sorted.clear();
        self.sorted
            .extend(self.depth.iter().map(|&d| d as u64).zip(0..));
        self.sorted.sort_unstable();

        // Header, and each symbol's packed code.
        write_uvarint(out, self.sorted.len() as u64);
        self.packed.clear();
        self.packed.resize(self.sorted.len(), 0);
        let mut code = 0u64;
        let mut prev_len = 0u64;
        for &(len, index) in &self.sorted {
            write_uvarint(out, self.freqs[index].0 as u64);
            write_uvarint(out, len);
            code <<= len - prev_len;
            self.packed[index] = code << 6 | len;
            code += 1;
            prev_len = len;
        }

        // Body, appended in place: the counting window now holds the codes.
        let mut bits = BitWriter::appending(std::mem::take(out));
        if dense {
            for (&(s, _), &p) in self.freqs.iter().zip(&self.packed) {
                self.window[(s - lo) as usize] = p;
            }
            for &s in symbols {
                let p = self.window[(s - lo) as usize];
                bits.write_bits(p >> 6, (p & 63) as u32);
            }
        } else {
            for s in symbols {
                let found = self.freqs.binary_search_by_key(s, |&(sym, _)| sym);
                let p = self.packed[found.expect("every symbol was counted")];
                bits.write_bits(p >> 6, (p & 63) as u32);
            }
        }
        *out = bits.finish();
    }
}

/// Encodes a symbol stream. Output layout:
/// `uvarint n_symbols_in_stream`, `uvarint n_distinct`,
/// `(uvarint symbol, uvarint len)*`, padded bitstream.
pub fn huffman_encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(symbols.len() / 2 + 16);
    huffman_encode_into(symbols, &mut out);
    out
}

/// Appends the encoding of `symbols` to `out` (same layout as
/// [`huffman_encode`]); lets callers assemble streams in rented scratch
/// buffers instead of chaining fresh allocations.
pub fn huffman_encode_into(symbols: &[u32], out: &mut Vec<u8>) {
    write_uvarint(out, symbols.len() as u64);
    let (Some(&lo), Some(&hi)) = (symbols.iter().min(), symbols.iter().max()) else {
        return;
    };
    TABLES.with_borrow_mut(|tables| {
        tables.encode(symbols, lo, hi, out);
        let widest = tables.freqs.capacity().max(tables.window.capacity());
        if widest.max(tables.copy.capacity()) > RETAINED_ENTRIES {
            *tables = Tables::default();
        }
    });
}

/// Decodes a stream produced by [`huffman_encode`] under the default
/// (permissive) [`DecodeBudget`].
pub fn huffman_decode(bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut out = Vec::new();
    huffman_decode_into(bytes, &DecodeBudget::default(), &mut out)?;
    Ok(out)
}

/// Decodes a stream produced by [`huffman_encode`] into `out` (cleared
/// first, capacity reused), validating every declared count against
/// `budget` and the remaining input before any allocation. Corrupt tables
/// (symbols or lengths beyond their range, non-canonical or repeated
/// entries, over-full Kraft sums) return [`CodecError::Corrupt`]; they
/// never panic or mis-index. On error `out` may hold a partial prefix; its
/// contents are unspecified.
pub fn huffman_decode_into(
    bytes: &[u8],
    budget: &DecodeBudget,
    out: &mut Vec<u32>,
) -> Result<(), CodecError> {
    out.clear();
    let mut pos = 0usize;
    let total = budget.check_values(read_uvarint(bytes, &mut pos)? as usize)?;
    if total == 0 {
        return Ok(());
    }
    let distinct = read_uvarint(bytes, &mut pos)? as usize;
    if distinct == 0 {
        return Err(CodecError::Corrupt("no code table for nonempty stream"));
    }
    // A table can't have more distinct symbols than the stream has symbols,
    // and each header entry costs at least two bytes — both bounds hold
    // before we reserve a single entry.
    if distinct > total || distinct > (bytes.len() - pos) / 2 {
        return Err(CodecError::Corrupt("code table larger than stream"));
    }
    // Symbols in header order and the number of codes per length. Both
    // varints are range-checked at full width: narrowing first would let
    // symbol 2^32 + 7 pass as 7 and length 2^32 + 5 as 5.
    let mut syms = Vec::with_capacity(distinct);
    let mut count = [0u64; MAX_CODE_LEN as usize + 1];
    let mut canonical = true;
    let mut prev = None;
    for _ in 0..distinct {
        let sym = u32::try_from(read_uvarint(bytes, &mut pos)?)
            .map_err(|_| CodecError::Corrupt("symbol out of range"))?;
        let len = read_uvarint(bytes, &mut pos)?;
        if len == 0 || len > MAX_CODE_LEN as u64 {
            return Err(CodecError::Corrupt("bad code length"));
        }
        canonical &= prev < Some((len, sym));
        prev = Some((len, sym));
        count[len as usize] += 1;
        syms.push(sym);
    }
    // The header must already be in strictly ascending (len, symbol) order:
    // canonical, and no entry twice.
    if !canonical {
        return Err(CodecError::Corrupt("code table not canonical"));
    }

    // Every symbol takes at least one bit, so `total` must fit in the
    // remaining bitstream — checked before the output buffer is reserved.
    if total > (bytes.len() - pos).saturating_mul(8) {
        return Err(CodecError::Truncated);
    }

    // Canonical decode tables indexed by length.
    let max_len = prev.expect("distinct >= 1").0 as u32;
    let mut first_code = [0u64; MAX_CODE_LEN as usize + 1];
    let mut first_index = [0u64; MAX_CODE_LEN as usize + 1];
    let mut code = 0u64;
    let mut idx = 0u64;
    for len in 1..=max_len as usize {
        first_code[len] = code;
        first_index[len] = idx;
        let next = code
            .checked_add(count[len])
            .ok_or(CodecError::Corrupt("code table overflow"))?;
        // Kraft validity: codes of length `len` must fit in `len` bits,
        // which also guarantees every lookup entry and every index the
        // per-length walk computes stays in range.
        if next > 1u64 << len {
            return Err(CodecError::Corrupt("code table over-full"));
        }
        code = next << 1;
        idx += count[len];
    }

    // One entry per `bits`-bit prefix: `index << 6 | len` of the code that
    // owns it, 0 where the code is longer or the pattern nobody's.
    // Left-aligned canonical codes ascend in canonical order, so the table
    // fills front to back. A plain local, kept out of the shared scratch
    // pool for the reason given at [`Tables`].
    let bits = max_len.min(LOOKUP_BITS);
    let mut lookup = Vec::with_capacity(1 << bits);
    let mut index = 0u32;
    for len in 1..=bits {
        for _ in 0..count[len as usize] {
            lookup.extend(std::iter::repeat_n(index << 6 | len, 1 << (bits - len)));
            index += 1;
        }
    }
    lookup.resize(1 << bits, 0);

    let mut reader = BitReader::new(&bytes[pos..]);
    // The code at the reader's position when the lookup has no answer: walk
    // the longer lengths' canonical ranges on the peeked word. A code that
    // would need bits past the end is `Truncated`; a pattern no code owns
    // is `Corrupt` once a bit beyond `max_len` exists to prove it, which is
    // where a bit-at-a-time walk gives up.
    let long_code = |reader: &mut BitReader<'_>| -> Result<u32, CodecError> {
        let word = reader.peek();
        let left = reader.remaining();
        for len in bits + 1..=max_len {
            if len as usize > left {
                return Err(CodecError::Truncated);
            }
            let l = len as usize;
            let code = word >> (64 - len);
            if code >= first_code[l] && code - first_code[l] < count[l] {
                reader.consume(len)?;
                return syms
                    .get((first_index[l] + (code - first_code[l])) as usize)
                    .copied()
                    .ok_or(CodecError::Corrupt("code index outside table"));
            }
        }
        Err(if left > max_len as usize {
            CodecError::Corrupt("code exceeds max length")
        } else {
            CodecError::Truncated
        })
    };

    out.resize(total, 0);
    for (stride, chunk) in out.chunks_mut(DecodeBudget::DEADLINE_STRIDE).enumerate() {
        budget.check_deadline_every(stride * DecodeBudget::DEADLINE_STRIDE)?;
        let mut i = 0;
        while i < chunk.len() {
            // As many lookups as one peeked word has whole prefixes for,
            // then one checked consume for all of them.
            let mut word = reader.peek();
            let mut used = 0;
            let mut missed = false;
            while i < chunk.len() && used + bits <= BitReader::PEEK_BITS {
                let entry = lookup[(word >> (64 - bits)) as usize];
                let len = entry & 63;
                if len == 0 {
                    missed = true;
                    break;
                }
                chunk[i] = syms[(entry >> 6) as usize];
                i += 1;
                word <<= len;
                used += len;
            }
            reader.consume(used)?;
            if missed {
                chunk[i] = long_code(&mut reader)?;
                i += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_rng::check;

    /// [`huffman_decode_into`] a fresh buffer under `budget`.
    fn decode_under(bytes: &[u8], budget: &DecodeBudget) -> Result<Vec<u32>, CodecError> {
        let mut out = Vec::new();
        huffman_decode_into(bytes, budget, &mut out).map(|()| out)
    }

    #[test]
    fn empty_stream() {
        let enc = huffman_encode(&[]);
        assert_eq!(huffman_decode(&enc).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn single_symbol_repeated() {
        let data = vec![42u32; 1000];
        let enc = huffman_encode(&data);
        // 1 bit/symbol + header ≈ 130 bytes.
        assert!(enc.len() < 140, "got {} bytes", enc.len());
        assert_eq!(huffman_decode(&enc).unwrap(), data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros, a few others: entropy ≈ 0.6 bits/symbol.
        let mut data = Vec::new();
        for i in 0..10_000u32 {
            data.push(if i % 10 == 0 { i % 7 + 1 } else { 0 });
        }
        let enc = huffman_encode(&data);
        assert!(
            enc.len() < data.len(), // « 4 bytes/symbol
            "no compression: {} bytes for {} symbols",
            enc.len(),
            data.len()
        );
        assert_eq!(huffman_decode(&enc).unwrap(), data);
    }

    #[test]
    fn uniform_distribution_roundtrips() {
        let data: Vec<u32> = (0..4096).map(|i| i % 256).collect();
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc).unwrap(), data);
        // 256 equiprobable symbols: ~8 bits each.
        assert!(enc.len() < 4096 * 2);
    }

    #[test]
    fn large_symbol_values() {
        let data = vec![u32::MAX, 0, u32::MAX, 12345678, u32::MAX];
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data: Vec<u32> = (0..100).collect();
        let enc = huffman_encode(&data);
        for cut in [1, enc.len() / 2, enc.len() - 1] {
            assert!(
                huffman_decode(&enc[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn fibonacci_frequencies_stay_within_depth_cap() {
        // Fibonacci frequencies maximize Huffman depth; with ~60 symbols the
        // unconstrained depth would approach 60. The encoder must flatten.
        let mut data = Vec::new();
        let (mut a, mut b) = (1u64, 1u64);
        for sym in 0..55u32 {
            for _ in 0..a.min(100_000) {
                data.push(sym);
            }
            let c = a + b;
            a = b;
            b = c;
        }
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc).unwrap(), data);
    }

    #[test]
    fn overfull_code_table_rejected() {
        // Three codes of length 1 violate Kraft (only two 1-bit codes
        // exist); must be Corrupt, not a mis-indexed decode.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 5); // total symbols
        write_uvarint(&mut buf, 3); // distinct
        for sym in 0..3u64 {
            write_uvarint(&mut buf, sym);
            write_uvarint(&mut buf, 1); // len 1
        }
        buf.push(0x00); // bitstream
        assert_eq!(
            huffman_decode(&buf),
            Err(CodecError::Corrupt("code table over-full"))
        );
    }

    #[test]
    fn table_larger_than_stream_rejected() {
        // distinct > total is structurally impossible for a real encode.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1); // total
        write_uvarint(&mut buf, 9); // distinct
        for sym in 0..9u64 {
            write_uvarint(&mut buf, sym);
            write_uvarint(&mut buf, 4);
        }
        buf.push(0x00);
        assert!(matches!(huffman_decode(&buf), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn declared_total_beyond_bitstream_is_eof_before_allocation() {
        // Claims 2^40 symbols with a near-empty body: must fail before
        // reserving the output buffer.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1u64 << 40);
        write_uvarint(&mut buf, 1);
        write_uvarint(&mut buf, 7); // sym
        write_uvarint(&mut buf, 1); // len
        buf.push(0x00);
        assert!(huffman_decode(&buf).is_err());
    }

    #[test]
    fn budget_caps_declared_total() {
        let data: Vec<u32> = (0..100).collect();
        let enc = huffman_encode(&data);
        let tiny = DecodeBudget {
            max_values: 10,
            ..DecodeBudget::strict()
        };
        assert!(matches!(
            decode_under(&enc, &tiny),
            Err(CodecError::BudgetExceeded(_))
        ));
        assert_eq!(decode_under(&enc, &DecodeBudget::strict()).unwrap(), data);
    }

    #[test]
    fn roundtrip_arbitrary() {
        check(0x4F1, 64, |rng| {
            let data: Vec<u32> = (0..rng.range_usize(0, 2999))
                .map(|_| rng.below(5000) as u32)
                .collect();
            let enc = huffman_encode(&data);
            assert_eq!(huffman_decode(&enc).unwrap(), data);
        });
    }

    #[test]
    fn roundtrip_small_alphabet() {
        check(0x4F2, 64, |rng| {
            let data: Vec<u32> = (0..rng.range_usize(0, 4999))
                .map(|_| rng.below(4) as u32)
                .collect();
            let enc = huffman_encode(&data);
            assert_eq!(huffman_decode(&enc).unwrap(), data);
        });
    }

    /// The coder this module replaced, kept as the oracle: a `HashMap`
    /// encoder over a `BinaryHeap` tree and a decoder that reads one bit per
    /// step. The decoder carries the same three header rejections as
    /// [`huffman_decode_into`]; nothing else was changed.
    mod reference {
        use super::super::MAX_CODE_LEN;
        use crate::bitio::{BitReader, BitWriter};
        use crate::budget::DecodeBudget;
        use crate::varint::{read_uvarint, write_uvarint};
        use crate::CodecError;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};

        pub fn code_lengths(freqs: &[(u32, u64)]) -> Vec<u32> {
            if freqs.len() == 1 {
                return vec![1];
            }
            let n = freqs.len();
            let mut parent = vec![usize::MAX; 2 * n - 1];
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = freqs
                .iter()
                .enumerate()
                .map(|(i, &(_, f))| Reverse((f.max(1), i)))
                .collect();
            let mut next = n;
            while heap.len() > 1 {
                let Reverse((fa, a)) = heap.pop().unwrap();
                let Reverse((fb, b)) = heap.pop().unwrap();
                parent[a] = next;
                parent[b] = next;
                heap.push(Reverse((fa + fb, next)));
                next += 1;
            }
            (0..n)
                .map(|leaf| {
                    let mut d = 0;
                    let mut cur = leaf;
                    while parent[cur] != usize::MAX {
                        cur = parent[cur];
                        d += 1;
                    }
                    d
                })
                .collect()
        }

        /// Lengths after the `MAX_CODE_LEN` flattening, and how many
        /// halvings it took.
        pub fn flattened_lengths(freqs: &mut [(u32, u64)]) -> (Vec<u32>, usize) {
            let mut lens = code_lengths(freqs);
            let mut rounds = 0;
            while lens.iter().copied().max().unwrap_or(0) > MAX_CODE_LEN {
                for f in freqs.iter_mut() {
                    f.1 = 1 + f.1 / 2;
                }
                lens = code_lengths(freqs);
                rounds += 1;
            }
            (lens, rounds)
        }

        pub fn encode(symbols: &[u32]) -> Vec<u8> {
            let mut out = Vec::new();
            write_uvarint(&mut out, symbols.len() as u64);
            if symbols.is_empty() {
                return out;
            }
            let mut freq_map: HashMap<u32, u64> = HashMap::new();
            for &s in symbols {
                *freq_map.entry(s).or_insert(0) += 1;
            }
            let mut freqs: Vec<(u32, u64)> = freq_map.into_iter().collect();
            freqs.sort_unstable_by_key(|&(s, _)| s);
            let (lens, _) = flattened_lengths(&mut freqs);
            let mut entries: Vec<(u32, u32)> = freqs
                .iter()
                .zip(&lens)
                .map(|(&(sym, _), &len)| (len, sym))
                .collect();
            entries.sort_unstable();
            let mut table: HashMap<u32, (u64, u32)> = HashMap::new();
            let mut code = 0u64;
            let mut prev_len = 0u32;
            for &(len, sym) in &entries {
                code <<= len - prev_len;
                table.insert(sym, (code, len));
                code += 1;
                prev_len = len;
            }
            write_uvarint(&mut out, entries.len() as u64);
            for &(len, sym) in &entries {
                write_uvarint(&mut out, sym as u64);
                write_uvarint(&mut out, len as u64);
            }
            let mut bits = BitWriter::new();
            for &s in symbols {
                let (code, len) = table[&s];
                bits.write_bits(code, len);
            }
            out.extend_from_slice(&bits.finish());
            out
        }

        pub fn decode(bytes: &[u8], budget: &DecodeBudget) -> Result<Vec<u32>, CodecError> {
            let mut out = Vec::new();
            let mut pos = 0usize;
            let total = budget.check_values(read_uvarint(bytes, &mut pos)? as usize)?;
            if total == 0 {
                return Ok(out);
            }
            let distinct = read_uvarint(bytes, &mut pos)? as usize;
            if distinct == 0 {
                return Err(CodecError::Corrupt("no code table for nonempty stream"));
            }
            if distinct > total || distinct > (bytes.len() - pos) / 2 {
                return Err(CodecError::Corrupt("code table larger than stream"));
            }
            let mut entries = Vec::with_capacity(distinct);
            for _ in 0..distinct {
                let sym = read_uvarint(bytes, &mut pos)?;
                if sym > u32::MAX as u64 {
                    return Err(CodecError::Corrupt("symbol out of range"));
                }
                let len = read_uvarint(bytes, &mut pos)?;
                if len == 0 || len > MAX_CODE_LEN as u64 {
                    return Err(CodecError::Corrupt("bad code length"));
                }
                entries.push((len as u32, sym as u32));
            }
            if entries.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CodecError::Corrupt("code table not canonical"));
            }
            if total > (bytes.len() - pos).saturating_mul(8) {
                return Err(CodecError::Truncated);
            }
            let max_len = entries.last().unwrap().0;
            let mut count = vec![0u64; max_len as usize + 1];
            for &(len, _) in &entries {
                count[len as usize] += 1;
            }
            let mut first_code = vec![0u64; max_len as usize + 2];
            let mut first_index = vec![0u64; max_len as usize + 2];
            let mut code = 0u64;
            let mut idx = 0u64;
            for len in 1..=max_len as usize {
                first_code[len] = code;
                first_index[len] = idx;
                let next = code
                    .checked_add(count[len])
                    .ok_or(CodecError::Corrupt("code table overflow"))?;
                if next > 1u64 << len {
                    return Err(CodecError::Corrupt("code table over-full"));
                }
                code = next << 1;
                idx += count[len];
            }
            let syms: Vec<u32> = entries.iter().map(|&(_, s)| s).collect();
            let mut reader = BitReader::new(&bytes[pos..]);
            out.reserve(total);
            for i in 0..total {
                budget.check_deadline_every(i)?;
                let mut code = 0u64;
                let mut len = 0u32;
                loop {
                    code = (code << 1) | reader.read_bit()? as u64;
                    len += 1;
                    if len > max_len {
                        return Err(CodecError::Corrupt("code exceeds max length"));
                    }
                    let l = len as usize;
                    if count[l] > 0 && code >= first_code[l] && code - first_code[l] < count[l] {
                        let i = first_index[l] + (code - first_code[l]);
                        let sym = *syms
                            .get(i as usize)
                            .ok_or(CodecError::Corrupt("code index outside table"))?;
                        out.push(sym);
                        break;
                    }
                }
            }
            Ok(out)
        }
    }

    /// `count` symbols whose frequencies follow the Fibonacci numbers (the
    /// deepest Huffman tree a total allows), shuffled.
    fn fibonacci_stream(rng: &mut amrviz_rng::Rng, count: u32, base: u32) -> Vec<u32> {
        let mut data = Vec::new();
        let (mut a, mut b) = (1usize, 1usize);
        for sym in 0..count {
            data.extend(std::iter::repeat_n(base + sym * 3, a));
            (a, b) = (b, a + b);
        }
        for i in (1..data.len()).rev() {
            data.swap(i, rng.below(i as u64 + 1) as usize);
        }
        data
    }

    /// Quantizer-shaped codes: residual bins centred on the quantizer's
    /// radius (2^15) with a geometric-ish spread, and a sprinkling of the
    /// outlier marker 0 — so `max - min` is the radius whatever the length.
    fn quantizer_stream(rng: &mut amrviz_rng::Rng, len: usize, outliers: bool) -> Vec<u32> {
        let spread = 1 + rng.below(200) as i64;
        (0..len)
            .map(|_| {
                if outliers && rng.below(50) == 0 {
                    return 0;
                }
                let mag = (rng.range_f64(0.0, 1.0).powi(3) * spread as f64) as i64;
                ((1 << 15) + if rng.below(2) == 0 { mag } else { -mag }) as u32
            })
            .collect()
    }

    /// Both directions against the oracle: encoder bytes equal, decoder
    /// output equal.
    fn assert_matches_reference(data: &[u32]) {
        let enc = huffman_encode(data);
        assert_eq!(enc, reference::encode(data), "encoder bytes differ");
        assert_eq!(huffman_decode(&enc).unwrap(), data);
        assert_eq!(
            reference::decode(&enc, &DecodeBudget::default()).unwrap(),
            data
        );
    }

    #[test]
    fn matches_reference_on_small_alphabets_and_single_symbols() {
        check(0x4F3, 64, |rng| {
            let alphabet = 1 + rng.below(6) as u32;
            let base = rng.below(1 << 20) as u32;
            let data: Vec<u32> = (0..rng.range_usize(1, 3000))
                .map(|_| base + rng.below(alphabet as u64) as u32)
                .collect();
            assert_matches_reference(&data);
            assert_matches_reference(&vec![data[0]; data.len()]);
        });
    }

    #[test]
    fn matches_reference_on_wide_sparse_alphabets() {
        // Values up to u32::MAX in short streams: `max - min` dwarfs the
        // length, so the sort-and-search encoder runs.
        check(0x4F4, 64, |rng| {
            let pool: Vec<u32> = (0..1 + rng.below(300))
                .map(|_| rng.next_u64() as u32)
                .chain([0, u32::MAX])
                .collect();
            let data: Vec<u32> = (0..rng.range_usize(1, 2000))
                .map(|_| pool[(rng.below(pool.len() as u64).pow(2) / pool.len() as u64) as usize])
                .collect();
            assert_matches_reference(&data);
        });
    }

    #[test]
    fn matches_reference_on_quantizer_shaped_codes() {
        check(0x4F5, 48, |rng| {
            let len = rng.range_usize(1, 6000);
            // Without outliers the dense window runs; with them a short
            // stream spans the whole radius and sorts instead.
            assert_matches_reference(&quantizer_stream(rng, len, false));
            assert_matches_reference(&quantizer_stream(rng, len, true));
            assert_matches_reference(&quantizer_stream(rng, 40_000 + len, true));
        });
    }

    #[test]
    fn matches_reference_on_codes_longer_than_the_lookup() {
        // 24 Fibonacci frequencies make codes up to 23 bits: more than
        // twice LOOKUP_BITS, so the per-length walk decodes the rare ones.
        check(0x4F6, 6, |rng| {
            let base = rng.below(1000) as u32;
            let data = fibonacci_stream(rng, 24, base);
            let enc = huffman_encode(&data);
            let longest = {
                let mut pos = 0;
                read_uvarint(&enc, &mut pos).unwrap();
                let distinct = read_uvarint(&enc, &mut pos).unwrap();
                (0..distinct).fold(0, |_, _| {
                    read_uvarint(&enc, &mut pos).unwrap();
                    read_uvarint(&enc, &mut pos).unwrap()
                })
            };
            assert!(longest > 2 * LOOKUP_BITS as u64, "longest code {longest}");
            assert_matches_reference(&data);
        });
    }

    /// [`Tables::code_lengths`] of `tables.freqs`.
    fn lengths(tables: &mut Tables) -> Vec<u32> {
        tables.code_lengths();
        tables.depth.iter().map(|&d| d as u32).collect()
    }

    #[test]
    fn flattening_matches_reference_beyond_the_depth_cap() {
        // A stream deep enough for MAX_CODE_LEN would need ~2^34 symbols,
        // so the flattening is driven through the frequencies directly:
        // 50..=80 Fibonacci frequencies, depth up to 79 before halving.
        for n in 50..=80usize {
            let mut fib = vec![1u64, 1];
            while fib.len() < n {
                fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
            }
            let mut tables = Tables {
                freqs: (0..).zip(fib).collect(),
                ..Tables::default()
            };
            assert!(*lengths(&mut tables).iter().max().unwrap() > MAX_CODE_LEN);
            let (want, rounds) = reference::flattened_lengths(&mut tables.freqs.clone());
            assert!(rounds > 0);
            tables.flattened_code_lengths();
            let got: Vec<u32> = tables.depth.iter().map(|&d| d as u32).collect();
            assert_eq!(got, want, "n = {n}");
            assert!(*got.iter().max().unwrap() <= MAX_CODE_LEN);
        }
    }

    #[test]
    fn code_lengths_match_the_heap_on_tied_frequencies() {
        // Few distinct frequency values: every merge is a tie the
        // (frequency, index) order must break the way the heap did.
        check(0x4F7, 256, |rng| {
            let top = 1 + rng.below(4);
            let freqs: Vec<(u32, u64)> = (0..rng.range_usize(1, 300))
                .map(|i| (i as u32, 1 + rng.below(top)))
                .collect();
            let want = reference::code_lengths(&freqs);
            // Tables left dirty by a longer alphabet must not show.
            let mut tables = Tables {
                freqs: (0..400).map(|i| (i, 1 + rng.below(9))).collect(),
                ..Tables::default()
            };
            tables.code_lengths();
            tables.freqs = freqs;
            assert_eq!(lengths(&mut tables), want);
        });
    }

    #[test]
    fn wide_alphabets_do_not_stay_resident() {
        let narrow: Vec<u32> = (0..5000).map(|i| i % 100).collect();
        let wide: Vec<u32> = (0..3 * RETAINED_ENTRIES as u32).collect();
        assert_matches_reference(&narrow);
        assert!(TABLES.with_borrow(|t| t.freqs.capacity()) >= 100);
        assert_matches_reference(&wide);
        assert_eq!(
            TABLES.with_borrow(|t| t.freqs.capacity() + t.window.capacity() + t.depth.capacity()),
            0
        );
        assert_matches_reference(&narrow);
    }

    /// Header with the given `(symbol, len)` varints, then `body`.
    fn handmade(total: u64, entries: &[(u64, u64)], body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, total);
        write_uvarint(&mut buf, entries.len() as u64);
        for &(sym, len) in entries {
            write_uvarint(&mut buf, sym);
            write_uvarint(&mut buf, len);
        }
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn symbol_beyond_u32_rejected() {
        // Narrowed first, 2^32 + 7 would decode as symbol 7.
        let ok = handmade(4, &[(7, 1), (9, 1)], &[0b0101_0000]);
        assert_eq!(huffman_decode(&ok).unwrap(), vec![7, 9, 7, 9]);
        let bad = handmade(4, &[((1 << 32) + 7, 1), ((1 << 32) + 9, 1)], &[0b0101_0000]);
        assert_eq!(
            huffman_decode(&bad),
            Err(CodecError::Corrupt("symbol out of range"))
        );
    }

    #[test]
    fn code_length_beyond_u32_rejected() {
        // Narrowed first, 2^32 + 1 would read as a 1-bit code.
        let bad = handmade(4, &[(7, (1 << 32) + 1), (9, (1 << 32) + 1)], &[0b0101_0000]);
        assert_eq!(
            huffman_decode(&bad),
            Err(CodecError::Corrupt("bad code length"))
        );
    }

    #[test]
    fn duplicate_table_entry_rejected() {
        // The same (len, symbol) twice is "in order" under `>` but gives
        // one symbol two codes.
        let bad = handmade(4, &[(7, 1), (7, 1)], &[0b0101_0000]);
        assert_eq!(
            huffman_decode(&bad),
            Err(CodecError::Corrupt("code table not canonical"))
        );
        let unordered = handmade(4, &[(9, 1), (7, 1)], &[0b0101_0000]);
        assert_eq!(
            huffman_decode(&unordered),
            Err(CodecError::Corrupt("code table not canonical"))
        );
    }

    /// Streams whose damage the error tests replay: a multi-length table, a
    /// single symbol (an incomplete code: the pattern `1` is nobody's), and
    /// codes beyond the lookup width.
    fn taxonomy_corpus(rng: &mut amrviz_rng::Rng) -> Vec<Vec<u8>> {
        let skewed: Vec<u32> = (0..rng.range_usize(50, 600))
            .map(|_| (rng.below(40).pow(2) / 40) as u32 * 5)
            .collect();
        let mut deep = fibonacci_stream(rng, 16, 100);
        deep.truncate(rng.range_usize(200, 1200));
        vec![
            huffman_encode(&skewed),
            huffman_encode(&vec![3; rng.range_usize(1, 200)]),
            huffman_encode(&deep),
        ]
    }

    #[test]
    fn truncations_fail_like_the_reference() {
        let budget = DecodeBudget::strict();
        check(0x4F8, 8, |rng| {
            for stream in taxonomy_corpus(rng) {
                for cut in 0..=stream.len() {
                    assert_eq!(
                        decode_under(&stream[..cut], &budget),
                        reference::decode(&stream[..cut], &budget),
                        "cut {cut} of {}",
                        stream.len()
                    );
                }
            }
        });
    }

    #[test]
    fn bit_flips_fail_like_the_reference() {
        let budget = DecodeBudget::strict();
        check(0x4F9, 24, |rng| {
            for mut stream in taxonomy_corpus(rng) {
                for _ in 0..64 {
                    let bit = rng.below(stream.len() as u64 * 8) as usize;
                    stream[bit / 8] ^= 1 << (bit % 8);
                    assert_eq!(
                        decode_under(&stream, &budget),
                        reference::decode(&stream, &budget),
                        "bit {bit} of {} bytes",
                        stream.len()
                    );
                    stream[bit / 8] ^= 1 << (bit % 8);
                }
            }
        });
    }

    #[test]
    fn unowned_pattern_is_corrupt_only_with_a_bit_to_spare() {
        // One symbol, one 1-bit code `0`: a `1` is nobody's. With another
        // bit behind it the walk proves that (Corrupt); as the very last
        // bit it cannot tell it from a cut-off longer code (Truncated).
        let enc = huffman_encode(&[5; 16]);
        let n = enc.len();
        let mut early = enc.clone();
        early[n - 2] ^= 0x80;
        assert_eq!(
            huffman_decode(&early),
            Err(CodecError::Corrupt("code exceeds max length"))
        );
        let mut last = enc.clone();
        last[n - 1] ^= 0x01;
        assert_eq!(huffman_decode(&last), Err(CodecError::Truncated));
    }

    #[test]
    fn expired_deadline_stops_a_long_stream() {
        let data: Vec<u32> = (0..3 * DecodeBudget::DEADLINE_STRIDE as u32 + 5)
            .map(|i| i % 13)
            .collect();
        let enc = huffman_encode(&data);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let expired = DecodeBudget::default().with_deadline(past);
        let mut out = Vec::new();
        assert!(huffman_decode_into(&enc, &expired, &mut out)
            .unwrap_err()
            .is_deadline());
        huffman_decode_into(&enc, &DecodeBudget::default(), &mut out).unwrap();
        assert_eq!(out, data);
    }
}
