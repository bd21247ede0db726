//! Byte-oriented LZ77/LZSS compressor with hash-chain match finding.
//!
//! Serves as the final lossless stage of the compression pipelines (the
//! role zstd plays in SZ). The format is LZ4-flavored:
//!
//! ```text
//! uvarint decompressed_len
//! repeat:
//!   uvarint literal_len, literal bytes
//!   (if output incomplete) uvarint match_len - MIN_MATCH, uvarint distance
//! ```
//!
//! Matches may overlap their own output (run-length-like copies), distances
//! are limited to a 64 KiB window, and the match finder walks bounded hash
//! chains, trading a little ratio for predictable throughput.
//!
//! The chain heads live in one table per thread that is never cleared:
//! a head holds a position offset by a base that moves past each input, so
//! everything an earlier call left behind reads as empty and a call costs
//! O(input), not O(table) — the pipelines compress thousands of inputs far
//! shorter than the table. Matches extend, and overlapping matches copy,
//! a word or a run at a time.

use std::cell::RefCell;

use crate::budget::DecodeBudget;
use crate::varint::{read_uvarint, write_uvarint};
use crate::CodecError;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 16;
const WINDOW: usize = 1 << 16;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 64;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // Multiplicative hash of 4 bytes (Fibonacci constant).
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Chain heads of the match finder, kept per thread across calls. An entry
/// is `first + position` for the `first` of the call that wrote it, and
/// every call's `first` lies past all entries stored before it: subtracting
/// the current `first` (wrapping) gives a position below the current one
/// exactly for this call's entries, and a huge value for anything older.
struct Heads {
    table: Vec<usize>,
    /// The next call's `first`: past every entry stored so far.
    next: usize,
}

thread_local! {
    static HEADS: RefCell<Heads> = const { RefCell::new(Heads { table: Vec::new(), next: 0 }) };
}

/// Length of the common prefix of `a` and `b`, compared a word at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..]
        .iter()
        .zip(&b[l..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Compresses `input`.
pub fn lzss_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    lzss_compress_into(input, &mut out);
    out
}

/// Appends the compression of `input` to `out` (same format as
/// [`lzss_compress`]). The chain links are rented from the per-thread
/// scratch pool and the chain heads persist per thread, so per-box callers
/// pay for neither per call.
pub fn lzss_compress_into(input: &[u8], out: &mut Vec<u8>) {
    write_uvarint(out, input.len() as u64);
    if input.is_empty() {
        return;
    }
    HEADS.with_borrow_mut(|heads| compress_with(heads, input, out));
}

/// Puts position `j` at the head of its chain and returns the position it
/// displaced: below `j` if this call stored it, far above otherwise.
#[inline]
fn insert(
    input: &[u8],
    head: &mut [usize; 1 << HASH_BITS],
    prev: &mut [usize],
    first: usize,
    j: usize,
) -> usize {
    let h = hash4(&input[j..j + MIN_MATCH]);
    let displaced = head[h].wrapping_sub(first);
    prev[j] = displaced;
    head[h] = first + j;
    displaced
}

/// The longest match for position `i` among the earlier positions on the
/// chain from `cand`, as `(length, distance)`; length 0 if none reaches
/// `MIN_MATCH`. Ties go to the nearest.
fn longest_match(input: &[u8], i: usize, mut cand: usize, prev: &[usize]) -> (usize, usize) {
    let limit = (input.len() - i).min(MAX_MATCH);
    let here = &input[i..i + limit];
    let mut best_len = 0usize;
    let mut best_dist = 0usize;
    let mut chain = 0;
    while cand < i && i - cand <= WINDOW && chain < MAX_CHAIN {
        let there = &input[cand..];
        // Worth measuring only if it really shares the MIN_MATCH bytes the
        // hash stands for (anything shorter can't be emitted) and could
        // beat the current best.
        if there[..MIN_MATCH] == here[..MIN_MATCH]
            && (best_len == 0 || here.get(best_len) == there.get(best_len))
        {
            let l = MIN_MATCH + common_prefix(&there[MIN_MATCH..], &here[MIN_MATCH..]);
            if l > best_len {
                best_len = l;
                best_dist = i - cand;
                if l >= limit {
                    break;
                }
            }
        }
        cand = prev[cand];
        chain += 1;
    }
    (best_len, best_dist)
}

fn compress_with(heads: &mut Heads, input: &[u8], out: &mut Vec<u8>) {
    // On the first call, and if the entries would ever wrap, start from an
    // all-empty table; this call's entries are `first .. first + len`.
    if heads.table.is_empty() || heads.next.checked_add(input.len()).is_none() {
        heads.table.clear();
        heads.table.resize(1 << HASH_BITS, 0);
        heads.next = 1;
    }
    let first = heads.next;
    heads.next += input.len();
    let head: &mut [usize; 1 << HASH_BITS] =
        heads.table.as_mut_slice().try_into().expect("sized above");
    // `prev[j]` is the position `j` displaced. A link is written when its
    // position is inserted and read only through an inserted position, so
    // the fill value is never seen.
    let mut links = amrviz_par::scratch::take_usize();
    links.resize(input.len(), 0);
    let prev = links.as_mut_slice();

    // Positions with fewer than MIN_MATCH bytes left are trailing literals.
    let last = input.len().saturating_sub(MIN_MATCH - 1);
    let mut lit_start = 0usize;
    let mut i = 0usize;
    loop {
        // Insert positions until one finds an earlier one in its bucket.
        let mut cand = usize::MAX;
        while i < last {
            cand = insert(input, head, prev, first, i);
            if cand < i {
                break;
            }
            i += 1;
        }
        if i >= last {
            break;
        }
        let (best_len, best_dist) = longest_match(input, i, cand, prev);
        if best_len < MIN_MATCH {
            i += 1;
            continue;
        }
        // Emit pending literals, then the match.
        write_uvarint(out, (i - lit_start) as u64);
        out.extend_from_slice(&input[lit_start..i]);
        write_uvarint(out, (best_len - MIN_MATCH) as u64);
        write_uvarint(out, best_dist as u64);
        // Every further position the match covers enters its chain too.
        let end = i + best_len;
        for j in i + 1..end.min(last) {
            insert(input, head, prev, first, j);
        }
        i = end;
        lit_start = end;
    }
    // Trailing literals.
    write_uvarint(out, (input.len() - lit_start) as u64);
    out.extend_from_slice(&input[lit_start..]);
    amrviz_par::scratch::give_usize(links);
}

/// Decompresses a buffer produced by [`lzss_compress`] under the default
/// (permissive) [`DecodeBudget`].
pub fn lzss_decompress(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    lzss_decompress_into(bytes, &DecodeBudget::default(), &mut out)?;
    Ok(out)
}

/// Decompresses a buffer produced by [`lzss_compress`] into `out` (cleared
/// first, capacity reused), validating the declared output length against
/// `budget` and against the maximum expansion the remaining input could
/// possibly produce — before the output buffer is allocated. On error `out`
/// may hold a partial prefix; its contents are unspecified.
pub fn lzss_decompress_into(
    bytes: &[u8],
    budget: &DecodeBudget,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    out.clear();
    let mut pos = 0usize;
    let total = budget.check_payload(read_uvarint(bytes, &mut pos)? as usize)?;
    // Each token (literal byte, or match pair) consumes at least one input
    // byte and emits at most MAX_MATCH output bytes, so a stream of
    // `remaining` bytes can never legitimately decode to more than
    // `remaining * MAX_MATCH`.
    if total > (bytes.len() - pos).saturating_mul(MAX_MATCH) {
        return Err(CodecError::Truncated);
    }
    out.reserve(total);
    let mut tokens = 0usize;
    while out.len() < total {
        budget.check_deadline_every(tokens)?;
        tokens += 1;
        let lit_len = read_uvarint(bytes, &mut pos)? as usize;
        if lit_len > bytes.len() - pos || out.len() + lit_len > total {
            return Err(CodecError::Corrupt("literal run out of bounds"));
        }
        out.extend_from_slice(&bytes[pos..pos + lit_len]);
        pos += lit_len;
        if out.len() == total {
            break;
        }
        let match_len = (read_uvarint(bytes, &mut pos)? as usize)
            .checked_add(MIN_MATCH)
            .ok_or(CodecError::Corrupt("match length overflow"))?;
        let dist = read_uvarint(bytes, &mut pos)? as usize;
        if dist == 0 || dist > out.len() || out.len() + match_len > total {
            return Err(CodecError::Corrupt("bad match"));
        }
        // The match may overlap its own output, which then repeats with
        // period `dist`: copy whole runs of what exists so far, doubling.
        let start = out.len() - dist;
        let end = out.len() + match_len;
        while out.len() < end {
            let run = (end - out.len()).min(out.len() - start);
            out.extend_from_within(start..start + run);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_rng::check;

    #[test]
    fn empty() {
        let enc = lzss_compress(&[]);
        assert_eq!(lzss_decompress(&enc).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn short_inputs() {
        for len in 1..=8 {
            let data: Vec<u8> = (0..len as u8).collect();
            let enc = lzss_compress(&data);
            assert_eq!(lzss_decompress(&enc).unwrap(), data);
        }
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let data = b"abcabcabcabcabcabcabcabcabcabcabc".repeat(100);
        let enc = lzss_compress(&data);
        assert!(
            enc.len() < data.len() / 10,
            "{} vs {}",
            enc.len(),
            data.len()
        );
        assert_eq!(lzss_decompress(&enc).unwrap(), data);
    }

    #[test]
    fn constant_input_uses_overlapping_match() {
        let data = vec![7u8; 100_000];
        let enc = lzss_compress(&data);
        assert!(enc.len() < 64, "got {} bytes", enc.len());
        assert_eq!(lzss_decompress(&enc).unwrap(), data);
    }

    #[test]
    fn random_input_expands_only_slightly() {
        let mut rng = amrviz_rng::Rng::seed(42);
        let data: Vec<u8> = (0..50_000).map(|_| rng.next_u64() as u8).collect();
        let enc = lzss_compress(&data);
        assert!(enc.len() < data.len() + data.len() / 16 + 32);
        assert_eq!(lzss_decompress(&enc).unwrap(), data);
    }

    #[test]
    fn structured_float_bytes() {
        // Byte patterns like Huffman output of smooth data: long zero-ish
        // stretches with periodic structure.
        let data: Vec<u8> = (0..80_000u32)
            .map(|i| if i % 97 < 90 { 0 } else { (i % 251) as u8 })
            .collect();
        let enc = lzss_compress(&data);
        assert!(enc.len() < data.len() / 4);
        assert_eq!(lzss_decompress(&enc).unwrap(), data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = b"hello hello hello hello".repeat(20);
        let enc = lzss_compress(&data);
        assert!(lzss_decompress(&enc[..enc.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_distance_rejected() {
        // Handcraft: total=10, literal run 1 byte, then match dist beyond output.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 10);
        write_uvarint(&mut buf, 1);
        buf.push(b'x');
        write_uvarint(&mut buf, 0); // match_len = MIN_MATCH
        write_uvarint(&mut buf, 5); // dist 5 > out.len()=1
        assert!(lzss_decompress(&buf).is_err());
    }

    #[test]
    fn absurd_declared_length_fails_before_allocation() {
        // Claims ~2^60 output bytes from a 10-byte stream: both the budget
        // and the expansion bound must reject it up front.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1u64 << 60);
        assert!(lzss_decompress(&buf).is_err());
    }

    #[test]
    fn budget_caps_declared_length() {
        let data = vec![9u8; 4096];
        let enc = lzss_compress(&data);
        let tiny = DecodeBudget {
            max_section_bytes: 64,
            ..DecodeBudget::strict()
        };
        let mut out = Vec::new();
        assert!(lzss_decompress_into(&enc, &tiny, &mut out).is_err());
        lzss_decompress_into(&enc, &DecodeBudget::strict(), &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_arbitrary() {
        check(0x5A1, 48, |rng| {
            let data: Vec<u8> = (0..rng.range_usize(0, 4999))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let enc = lzss_compress(&data);
            assert_eq!(lzss_decompress(&enc).unwrap(), data);
        });
    }

    #[test]
    fn roundtrip_low_entropy() {
        check(0x5A2, 48, |rng| {
            let data: Vec<u8> = (0..rng.range_usize(0, 4999))
                .map(|_| rng.below(4) as u8)
                .collect();
            let enc = lzss_compress(&data);
            assert_eq!(lzss_decompress(&enc).unwrap(), data);
        });
    }

    /// The match finder this module replaced, kept as the oracle: a fresh
    /// all-empty head table per call, one byte per comparison step.
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_uvarint(&mut out, input.len() as u64);
        if input.is_empty() {
            return out;
        }
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; input.len()];
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i < input.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= input.len() {
                let mut cand = head[hash4(&input[i..])];
                let mut chain = 0;
                while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                    if best_len == 0 || input.get(i + best_len) == input.get(cand + best_len) {
                        let limit = (input.len() - i).min(MAX_MATCH);
                        let mut l = 0;
                        while l < limit && input[cand + l] == input[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_dist = i - cand;
                            if l >= limit {
                                break;
                            }
                        }
                    }
                    cand = prev[cand];
                    chain += 1;
                }
            }
            if best_len >= MIN_MATCH {
                write_uvarint(&mut out, (i - lit_start) as u64);
                out.extend_from_slice(&input[lit_start..i]);
                write_uvarint(&mut out, (best_len - MIN_MATCH) as u64);
                write_uvarint(&mut out, best_dist as u64);
                let end = i + best_len;
                while i < end && i + MIN_MATCH <= input.len() {
                    let h = hash4(&input[i..]);
                    prev[i] = head[h];
                    head[h] = i;
                    i += 1;
                }
                i = end;
                lit_start = i;
            } else {
                if i + MIN_MATCH <= input.len() {
                    let h = hash4(&input[i..]);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        }
        write_uvarint(&mut out, (input.len() - lit_start) as u64);
        out.extend_from_slice(&input[lit_start..]);
        out
    }

    /// Bytes with matches of every kind: runs, short periods, repeats of
    /// earlier stretches (near and far), and noise between them.
    fn matchy_bytes(rng: &mut amrviz_rng::Rng, len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let n = 1 + rng.below(40) as usize;
            match rng.below(4) {
                0 => data.extend((0..n).map(|_| rng.next_u64() as u8)),
                1 => data.extend(std::iter::repeat_n(rng.below(3) as u8, n)),
                _ if data.is_empty() => data.push(0),
                _ => {
                    let from = rng.below(data.len() as u64) as usize;
                    for j in 0..n * 4 {
                        data.push(data[from + j % (data.len() - from)]);
                    }
                }
            }
        }
        data.truncate(len);
        data
    }

    #[test]
    fn output_identical_to_reference_on_the_corpus() {
        let mut rng = amrviz_rng::Rng::seed(42);
        let corpus: Vec<Vec<u8>> = vec![
            b"abcabcabcabcabcabcabcabcabcabcabc".repeat(100),
            vec![7u8; 100_000],
            (0..50_000).map(|_| rng.next_u64() as u8).collect(),
            (0..80_000u32)
                .map(|i| if i % 97 < 90 { 0 } else { (i % 251) as u8 })
                .collect(),
            b"hello hello hello hello".repeat(20),
            // Longer than the window and than MAX_MATCH, so candidates age
            // out and matches hit the length cap.
            matchy_bytes(&mut rng, 300_000),
            [vec![1u8; 70_000], vec![2u8; 10], vec![1u8; 70_000]].concat(),
        ];
        for data in &corpus {
            let enc = lzss_compress(data);
            assert_eq!(enc, reference_compress(data), "{} bytes", data.len());
            assert_eq!(&lzss_decompress(&enc).unwrap(), data);
        }
    }

    #[test]
    fn stale_match_finder_state_is_unobservable() {
        // Thousands of short inputs back to back on one thread, sharing
        // byte patterns so that a head left by an earlier call *would*
        // match if it were ever read; sizes straddle the 4-byte minimum.
        check(0x5A3, 4, |rng| {
            let shared = matchy_bytes(rng, 4096);
            for round in 0..1500 {
                let len = if round % 3 == 0 {
                    rng.below(9) as usize
                } else {
                    rng.below(900) as usize
                };
                let at = rng.below((shared.len() - len) as u64 + 1) as usize;
                let mut data = shared[at..at + len].to_vec();
                if len > 0 && rng.below(2) == 0 {
                    data[rng.below(len as u64) as usize] ^= 0x55;
                }
                let enc = lzss_compress(&data);
                assert_eq!(enc, reference_compress(&data), "round {round}, {len} bytes");
                assert_eq!(lzss_decompress(&enc).unwrap(), data);
            }
        });
    }

    #[test]
    fn head_offsets_about_to_wrap_start_a_fresh_table() {
        let mut rng = amrviz_rng::Rng::seed(3);
        let data = matchy_bytes(&mut rng, 3000);
        let want = reference_compress(&data);
        assert_eq!(lzss_compress(&data), want);
        // Entries left by that call sit just below a `first` that cannot
        // take another 3000 positions.
        HEADS.with_borrow_mut(|heads| {
            let shift = usize::MAX - 2000 - heads.next;
            heads.table.iter_mut().for_each(|e| *e += shift);
            heads.next += shift;
        });
        assert_eq!(lzss_compress(&data), want);
        assert_eq!(HEADS.with_borrow(|heads| heads.next), 1 + data.len());
        assert_eq!(lzss_compress(&data), want);
    }

    #[test]
    fn overlapping_matches_repeat_with_their_distance() {
        // Handmade: 7 literals, then one match of every distance 1..=7 and
        // lengths that are no multiple of it.
        for dist in 1..=7usize {
            for match_len in [4usize, 5, 9, 64, 1001] {
                let mut want = b"abcdefg".to_vec();
                for _ in 0..match_len {
                    want.push(want[want.len() - dist]);
                }
                let mut buf = Vec::new();
                write_uvarint(&mut buf, want.len() as u64);
                write_uvarint(&mut buf, 7);
                buf.extend_from_slice(b"abcdefg");
                write_uvarint(&mut buf, (match_len - MIN_MATCH) as u64);
                write_uvarint(&mut buf, dist as u64);
                assert_eq!(lzss_decompress(&buf).unwrap(), want, "{dist} {match_len}");
            }
        }
    }

    #[test]
    fn expired_deadline_stops_a_long_stream() {
        // Four distinct bytes then a copy of them, over and over: every
        // pair of tokens is worth eight bytes, far more tokens than three
        // probe strides.
        let mut rng = amrviz_rng::Rng::seed(9);
        let mut data = Vec::new();
        while data.len() < 8 * 4 * DecodeBudget::DEADLINE_STRIDE {
            let word = (rng.next_u64() as u32).to_le_bytes();
            data.extend_from_slice(&word);
            data.extend_from_slice(&word);
        }
        let enc = lzss_compress(&data);
        let mut pos = 0;
        read_uvarint(&enc, &mut pos).unwrap();
        let mut tokens = 0;
        while pos < enc.len() {
            pos += read_uvarint(&enc, &mut pos).unwrap() as usize;
            if pos < enc.len() {
                read_uvarint(&enc, &mut pos).unwrap();
                read_uvarint(&enc, &mut pos).unwrap();
            }
            tokens += 1;
        }
        assert!(
            tokens >= 3 * DecodeBudget::DEADLINE_STRIDE,
            "{tokens} tokens"
        );
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let expired = DecodeBudget::default().with_deadline(past);
        let mut out = Vec::new();
        assert!(lzss_decompress_into(&enc, &expired, &mut out)
            .unwrap_err()
            .is_deadline());
        lzss_decompress_into(&enc, &DecodeBudget::default(), &mut out).unwrap();
        assert_eq!(out, data);
    }
}
