//! Canonical Huffman coding over `u32` symbol alphabets, with run symbols
//! for each stream's most frequent symbol: SZ's "customized Huffman" stage
//! and the lossless pass after it, in one. The mode (the smallest symbol on
//! a tie) is never a literal; each maximal run of it is its length in
//! bzip2's bijective base 2, lowest digit first, as two more symbols of the
//! same canonical code, RUNA (1) and RUNB (2).
//!
//! The encoder takes the range in one laned pass, counts in interleaved
//! lanes over `min..=max` (or sorts a copy when that span is out of
//! proportion), and finds the literals 64 symbols to a word, counting and
//! writing the runs between them from those words. The decoder reads a
//! literal and the run digits before it with one table lookup, several per
//! peeked word, and writes the run as a block of modes the literal lands in;
//! longer codes and patterns no code owns take the per-length walk.

use std::cell::RefCell;
use std::cmp::Reverse;

use crate::bitio::{BitReader, BitSink};
use crate::budget::DecodeBudget;
use crate::varint::{read_uvarint, write_uvarint};
use crate::CodecError;

/// Maximum code length we allow; keeps decode state in a `u64` with room to
/// spare. Reached only by adversarially skewed alphabets, which we flatten.
const MAX_CODE_LEN: u32 = 48;

/// Widest code the decoder resolves with one table lookup (a 16 KiB table
/// at most; shorter when the longest code is).
const LOOKUP_BITS: u32 = 11;

/// The encoder counts in a dense window when `max - min` of the stream is
/// at most this many times its length — where clearing and scanning it
/// costs what sorting a copy does — and below [`DENSE_SPAN_MAX`], which
/// still counts in cache.
const DENSE_SPAN_PER_SYMBOL: u64 = 8;
const DENSE_SPAN_MAX: u64 = 1 << 17;

/// Counters per symbol, so a run of one symbol is not one chain of
/// dependent increments.
const LANES: usize = 4;

/// Header keys: the run digits, then each literal `s` as `s + LITERAL`.
const RUNA: u64 = 0;
const RUNB: u64 = 1;
const LITERAL: u64 = 2;

/// Runs shorter than this take their digit counts and codes from tables.
const SHORT_RUNS: usize = 64;

/// `[RUNA, RUNB]` digits of a run: the zeros and the ones among the bits of
/// `run + 1` below its top one.
const fn digits_of(run: usize) -> [u64; 2] {
    let x = run as u64 + 1;
    let ones = x.count_ones() as u64 - 1;
    [63 - x.leading_zeros() as u64 - ones, ones]
}

const SHORT_RUN_DIGITS: [[u64; 2]; SHORT_RUNS] = {
    let (mut t, mut run) = ([[0; 2]; SHORT_RUNS], 0);
    while run < SHORT_RUNS {
        (t[run], run) = (digits_of(run), run + 1);
    }
    t
};

/// A short run whose packed digit codes do not fit one write.
const LONG_CODE: u64 = u64::MAX;

/// A decoder table entry is `value << 32 | run << 16 | digits << 8 | FAST?
/// | LIT? | len`: in `len` bits, `digits` run digits worth `run` (lowest
/// first), then with `LIT` the literal `value`, `FAST` if `run < BLOCK`.
const LIT: u64 = 1 << 6;
const FAST: u64 = 1 << 7;

/// The decoder writes this many modes ahead of a literal, which lands among
/// them after a shorter run.
const BLOCK: usize = 8;

/// Slots the decoder keeps initialised past its `n` decoded symbols: what
/// one peeked word's lookups and one more code write. It grows `out` by
/// [`GROW`] more at a time, never past `total + SLACK`.
const SLACK: usize = (BitReader::PEEK_BITS as usize + 1) * BLOCK;
const GROW: usize = 1 << 12;

/// Streams this many times longer than the decoder's table get the grouped
/// one, whose building then costs little.
const GROUPED_PER_ENTRY: usize = 8;

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
    /// `(key, frequency)` of every coded key, ascending by key: the run
    /// digits, then the literals (every symbol but the mode).
    freqs: Vec<(u64, u64)>,
    /// Dense path: `LANES` counts per symbol over `min..=max`.
    lanes: Vec<u32>,
    /// Dense path: packed codes per literal over `min..=max`.
    codes: Vec<u64>,
    /// Sparse path: a sorted copy of the stream.
    copy: Vec<u32>,
    /// One bit per symbol, set for the literals.
    marks: Vec<u64>,
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

/// `(min, max)` of a nonempty stream in eight lanes of `f64`
/// compare-selects, which vectorise on baseline x86-64 where `u32` ones do
/// not; a symbol with its top bit flipped is an exact `i32`.
fn min_max(symbols: &[u32]) -> (u32, u32) {
    let exact = |s: u32| (s ^ 1 << 31) as i32 as f64;
    let (rows, tail) = symbols.as_chunks::<8>();
    let (mut lo, mut hi) = ([f64::INFINITY; 8], [f64::NEG_INFINITY; 8]);
    for row in rows {
        for i in 0..8 {
            let v = exact(row[i]);
            lo[i] = if v < lo[i] { v } else { lo[i] };
            hi[i] = if v > hi[i] { v } else { hi[i] };
        }
    }
    let all = |lanes: [f64; 8]| lanes.into_iter().chain(tail.iter().map(|&s| exact(s)));
    let back = |v: f64| v as i32 as u32 ^ 1 << 31;
    let lo = all(lo).fold(f64::INFINITY, f64::min);
    (back(lo), back(all(hi).fold(f64::NEG_INFINITY, f64::max)))
}

/// Sets bit `j` of word `w` of `marks` when symbol `64 w + j` is not
/// `mode`: byte `j` of eight 0/1 flags, times `GATHER`, lands on bit
/// `56 + j`.
fn mark_literals(symbols: &[u32], mode: u32, marks: &mut Vec<u64>) {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let (rows, tail) = symbols.as_chunks::<64>();
    marks.clear();
    marks.extend(rows.iter().map(|row| {
        let mut flags = [0u8; 64];
        for (flag, &s) in flags.iter_mut().zip(row) {
            *flag = (s != mode) as u8;
        }
        let bytes = flags
            .as_chunks::<8>()
            .0
            .iter()
            .map(|b| u64::from_le_bytes(*b));
        let gathered = bytes.map(|b| b.wrapping_mul(GATHER) >> 56);
        gathered.zip(0..).fold(0, |m, (b, k)| m | b << (8 * k))
    }));
    marks.push(
        tail.iter()
            .rev()
            .fold(0, |m, &s| m << 1 | (s != mode) as u64),
    );
}

/// Calls `f(run, p)` for each literal marked in `marks`, at `p` in order,
/// with the length of the run of modes before it; returns the run after
/// the last of `len` symbols.
#[inline(always)]
fn for_each_literal(marks: &[u64], len: usize, mut f: impl FnMut(usize, usize)) -> usize {
    let mut next = 0;
    for (w, &word) in marks.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let p = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            f(p - next, p);
            next = p + 1;
        }
    }
    len - next
}

/// Writes a run of the mode, a 0 among the bits of `run + 1` below its top
/// one, lowest first, as RUNA's packed `code << 6 | len` and a 1 as RUNB's.
fn put_run(bits: &mut BitSink, digit: &[u64; 2], run: usize) {
    let x = run + 1;
    for p in (0..usize::BITS - 1 - x.leading_zeros()).map(|i| digit[(x >> i) & 1]) {
        bits.write(p >> 6, (p & 63) as u32);
    }
}

/// Writes a literal's packed code `p` after the run before it, in one write
/// when the run's codes are in `runs` and the two fit.
#[inline(always)]
fn put_literal(bits: &mut BitSink, runs: &[u64], digit: &[u64; 2], run: usize, p: u64) {
    let r = runs.get(run).copied().unwrap_or(LONG_CODE);
    if r != LONG_CODE && (r & 63) + (p & 63) <= 64 {
        bits.write((r >> 6) << (p & 63) | p >> 6, ((r & 63) + (p & 63)) as u32);
    } else {
        put_run(bits, digit, run);
        bits.write(p >> 6, (p & 63) as u32);
    }
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
        // Frequency table (deterministic order: by key), counted in a
        // window over `lo..=hi` or, when that is out of proportion to the
        // stream, from a sorted copy. A lane's count fits a `u32`.
        let span = (hi - lo) as usize;
        let dense = (span as u64) < DENSE_SPAN_MAX
            && span as u64 <= DENSE_SPAN_PER_SYMBOL.saturating_mul(symbols.len() as u64)
            && u32::try_from(symbols.len()).is_ok();
        self.freqs.clear();
        self.freqs.extend([(RUNA, 0), (RUNB, 0)]);
        if dense {
            self.lanes.clear();
            self.lanes.resize((span + 1) * LANES, 0);
            let (rows, tail) = symbols.as_chunks::<LANES>();
            for (lane, &s) in tail.iter().enumerate() {
                self.lanes[(s - lo) as usize * LANES + lane] += 1;
            }
            for row in rows {
                for (lane, &s) in row.iter().enumerate() {
                    self.lanes[(s - lo) as usize * LANES + lane] += 1;
                }
            }
            let counted = self.lanes.chunks_exact(LANES);
            let counted = counted.map(|c| c.iter().map(|&n| n as u64).sum());
            let keys = lo as u64 + LITERAL..;
            self.freqs
                .extend(keys.zip(counted).filter(|&(_, f): &(u64, u64)| f > 0));
        } else {
            self.copy.clear();
            self.copy.extend_from_slice(symbols);
            self.copy.sort_unstable();
            let runs = self.copy.chunk_by(|a, b| a == b);
            self.freqs
                .extend(runs.map(|run| (run[0] as u64 + LITERAL, run.len() as u64)));
        }

        // The mode leaves the literals; the digits of its runs come in.
        let at = (2..self.freqs.len()).max_by_key(|&i| (self.freqs[i].1, Reverse(i)));
        let mode = (self.freqs.remove(at.expect("a symbol")).0 - LITERAL) as u32;
        let mut digits = [0u64; 2];
        let mut count = |run: usize| {
            let d = SHORT_RUN_DIGITS.get(run).copied();
            let d = d.unwrap_or_else(|| digits_of(run));
            digits = [digits[0] + d[0], digits[1] + d[1]];
        };
        mark_literals(symbols, mode, &mut self.marks);
        let tail = for_each_literal(&self.marks, symbols.len(), |run, _| count(run));
        count(tail);
        (self.freqs[0].1, self.freqs[1].1) = (digits[0], digits[1]);
        self.freqs.retain(|&(_, f)| f > 0);

        self.flattened_code_lengths();

        // Canonical order is (len, key); `freqs` ascends by key, so
        // (len, index) sorts the same way.
        self.sorted.clear();
        self.sorted
            .extend(self.depth.iter().map(|&d| d as u64).zip(0..));
        self.sorted.sort_unstable();

        // Header, and each key's packed code.
        write_uvarint(out, mode as u64);
        write_uvarint(out, self.sorted.len() as u64);
        self.packed.clear();
        self.packed.resize(self.sorted.len(), 0);
        let mut code = 0u64;
        let mut prev_len = 0u64;
        for &(len, index) in &self.sorted {
            write_uvarint(out, self.freqs[index].0);
            write_uvarint(out, len);
            code <<= len - prev_len;
            self.packed[index] = code << 6 | len;
            code += 1;
            prev_len = len;
        }
        let coded = |key| self.freqs.iter().position(|f| f.0 == key);
        let digit = [RUNA, RUNB].map(|key| coded(key).map_or(0, |i| self.packed[i]));
        // Body, appended in place: each literal's code after the run before
        // it, a short run's digit codes packed into one.
        let runs: [u64; SHORT_RUNS] = std::array::from_fn(|run| {
            let x = run + 1;
            let digits = (0..usize::BITS - 1 - x.leading_zeros()).map(|i| digit[(x >> i) & 1]);
            let (code, len) =
                digits.fold((0, 0), |(c, l), p| (c << (p & 63) | p >> 6, l + (p & 63)));
            if len <= 56 {
                code << 6 | len
            } else {
                LONG_CODE
            }
        });
        if dense {
            self.codes.resize(self.codes.len().max(span + 1), 0);
            for (&(key, _), &p) in self.freqs.iter().zip(&self.packed) {
                if key >= LITERAL {
                    self.codes[(key - LITERAL) as usize - lo as usize] = p;
                }
            }
        }
        let mut bits = BitSink {
            out,
            acc: 0,
            used: 0,
        };
        let (codes, freqs, packed) = (&self.codes, &self.freqs, &self.packed);
        let tail = if dense {
            for_each_literal(&self.marks, symbols.len(), |run, p| {
                let code = codes[(symbols[p] - lo) as usize];
                put_literal(&mut bits, &runs, &digit, run, code);
            })
        } else {
            for_each_literal(&self.marks, symbols.len(), |run, p| {
                let found = freqs.binary_search_by_key(&(symbols[p] as u64 + LITERAL), |f| f.0);
                let code = packed[found.expect("every literal was counted")];
                put_literal(&mut bits, &runs, &digit, run, code);
            })
        };
        put_run(&mut bits, &digit, tail);
        bits.finish();
    }
}

/// Encodes a symbol stream. Output layout: `uvarint n_symbols_in_stream`,
/// and for a nonempty stream `uvarint mode`, `uvarint n_keys`,
/// `(uvarint key, uvarint len)*` in ascending `(len, key)` order (key 0 is
/// RUNA, 1 RUNB, `s + 2` the literal `s`), then the padded bitstream.
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
    if symbols.is_empty() {
        return;
    }
    let (lo, hi) = min_max(symbols);
    TABLES.with_borrow_mut(|tables| {
        tables.encode(symbols, lo, hi, out);
        let widest = tables.freqs.capacity().max(tables.codes.capacity());
        if widest
            .max(tables.copy.capacity())
            .max(tables.marks.capacity())
            > RETAINED_ENTRIES
        {
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

/// Initialises `out` to [`SLACK`] slots past `n`.
fn room(out: &mut Vec<u32>, n: usize, total: usize) {
    if out.len() < n + SLACK {
        out.resize((n + SLACK + GROW).min(total + SLACK), 0);
    }
}

/// Writes a run of `run` modes at `out[n..]`; returns where it ends.
#[inline(never)]
fn fill(out: &mut Vec<u32>, n: usize, run: usize, mode: u32, total: usize) -> usize {
    room(out, n + run, total);
    out[n..n + run].fill(mode);
    n + run
}

/// The pending run once `entry`'s digits join it. Every digit at least
/// doubles the run, and decoding stops once it reaches `total`, so the
/// shift stays below the word.
#[inline(always)]
fn joined(entry: u64, run: usize, shift: u32) -> usize {
    run + ((entry >> 16) as u16 as usize).wrapping_shl(shift)
}

/// Takes one table entry at `n` decoded symbols and a pending run of `run`
/// modes, without a branch on its kind: a literal lands after its run,
/// which the block of modes covers, and without one both writes fall in
/// slots a later write covers. A literal's run is shorter than [`BLOCK`],
/// and `buf` has `BLOCK` slots past `n`.
#[inline(always)]
fn step(buf: &mut [u32], entry: u64, mode: u32, n: &mut usize, run: &mut usize, shift: &mut u32) {
    let joined = joined(entry, *run, *shift);
    // Zero when a literal ends the run, all ones when it goes on.
    let keep = ((entry & LIT == 0) as usize).wrapping_neg();
    let block: &mut [u32; BLOCK] = (&mut buf[*n..*n + BLOCK]).try_into().unwrap();
    *block = [mode; BLOCK];
    block[joined % BLOCK] = (entry >> 32) as u32;
    *n += (joined + 1) & !keep;
    *run = joined & keep;
    *shift = (*shift + (entry >> 8) as u32 % 64) & keep as u32;
}

/// Decodes a stream produced by [`huffman_encode`] into `out` (cleared
/// first, capacity reused), validating every declared count against
/// `budget` before any allocation. Corrupt tables (symbols or lengths
/// beyond their range, non-canonical or repeated entries, over-full Kraft
/// sums), a run past the declared count and any bit after the last symbol
/// but the last byte's zero padding return [`CodecError::Corrupt`]; they
/// never panic or mis-index. Runs make a stream's length unbounded by its
/// bytes, so `out` grows in steps as symbols decode: a forged count costs
/// no more memory than the symbols its bits really carry, plus a few
/// thousand slots, and never more than `budget` allows.
/// On error `out` may hold a partial prefix; its contents are unspecified.
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
    let mode = u32::try_from(read_uvarint(bytes, &mut pos)?)
        .map_err(|_| CodecError::Corrupt("symbol out of range"))?;
    let distinct = read_uvarint(bytes, &mut pos)? as usize;
    if distinct == 0 {
        return Err(CodecError::Corrupt("no code table for nonempty stream"));
    }
    // A table can't have more keys than the stream has symbols, and each
    // header entry costs at least two bytes — both bounds hold before we
    // reserve a single entry.
    if distinct > total || distinct > (bytes.len() - pos) / 2 {
        return Err(CodecError::Corrupt("code table larger than stream"));
    }
    // Entries in header order and the number of codes per length. Both
    // varints are range-checked at full width: narrowing first would let
    // symbol 2^32 + 7 pass as 7 and length 2^32 + 5 as 5.
    let mut values = Vec::with_capacity(distinct);
    let mut count = [0u64; MAX_CODE_LEN as usize + 1];
    let mut canonical = true;
    let mut prev = None;
    for _ in 0..distinct {
        let key = read_uvarint(bytes, &mut pos)?;
        if key > u32::MAX as u64 + LITERAL {
            return Err(CodecError::Corrupt("symbol out of range"));
        }
        let len = read_uvarint(bytes, &mut pos)?;
        if len == 0 || len > MAX_CODE_LEN as u64 {
            return Err(CodecError::Corrupt("bad code length"));
        }
        canonical &= prev < Some((len, key));
        prev = Some((len, key));
        count[len as usize] += 1;
        values.push(match key {
            RUNA | RUNB => (key + 1) << 16 | 1 << 8,
            literal => (literal - LITERAL) << 32 | LIT | FAST,
        });
    }
    // The header must already be in strictly ascending (len, key) order:
    // canonical, and no entry twice.
    if !canonical {
        return Err(CodecError::Corrupt("code table not canonical"));
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

    // One entry per `bits`-bit prefix: the owning code's value and length,
    // 0 where the code is longer or the pattern nobody's. Left-aligned
    // canonical codes ascend in canonical order, so the table fills front
    // to back. A plain local, kept out of the shared scratch pool for the
    // reason given at [`Tables`].
    let bits = max_len.min(LOOKUP_BITS);
    let mut lookup = Vec::with_capacity(1 << bits);
    let mut index = 0;
    for len in 1..=bits {
        for _ in 0..count[len as usize] {
            let entry = values[index] | len as u64;
            lookup.extend(std::iter::repeat_n(entry, 1 << (bits - len)));
            index += 1;
        }
    }
    lookup.resize(1 << bits, 0);
    // The same prefixes read as far as their bits go: run digits, up to and
    // with the first literal.
    let grouped: Vec<u64>;
    let groups = if total < GROUPED_PER_ENTRY << bits {
        &lookup
    } else {
        let group = |prefix: usize| {
            let mut group = 0u64;
            while group & LIT == 0 {
                let used = group & 63;
                let entry = lookup[(prefix << used) & ((1 << bits) - 1)];
                if entry == 0 || used + (entry & 63) > bits as u64 {
                    break;
                }
                let (run, digits) = ((group >> 16) as u16 as u64, (group >> 8) & 63);
                let run = run + ((entry >> 16 & 0xffff) << digits);
                let fast = FAST * (entry & LIT != 0 && run < BLOCK as u64) as u64;
                group = entry >> 32 << 32 | run << 16 | (digits + (entry >> 8 & 63)) << 8;
                group |= fast | entry & LIT | (used + (entry & 63));
            }
            group
        };
        grouped = (0..1 << bits).map(group).collect();
        &grouped
    };

    let mut reader = BitReader::new(&bytes[pos..]);
    // The entry of the code at the reader's position when the lookup has no
    // answer: walk the longer lengths' canonical ranges on the peeked word.
    // A code that would need bits past the end is `Truncated`; a pattern no
    // code owns is `Corrupt` once a bit beyond `max_len` exists to prove
    // it, which is where a bit-at-a-time walk gives up.
    let long_code = |reader: &mut BitReader<'_>| -> Result<u64, CodecError> {
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
                return values
                    .get((first_index[l] + (code - first_code[l])) as usize)
                    .map(|&value| value | len as u64)
                    .ok_or(CodecError::Corrupt("code index outside table"));
            }
        }
        Err(if left > max_len as usize {
            CodecError::Corrupt("code exceeds max length")
        } else {
            CodecError::Truncated
        })
    };

    // `out` holds `n` decoded symbols, then slots the next codes write
    // ahead into; `run` modes are pending, the next digit worth
    // `1 << shift`.
    let (mut n, mut run, mut shift) = (0, 0, 0);
    let mut probe = 0;
    while n + run < total {
        if n >= probe {
            budget.check_deadline()?;
            probe = n + DecodeBudget::DEADLINE_STRIDE;
        }
        room(out, n, total);
        // As many grouped lookups as one peeked word has whole prefixes
        // for, then one checked consume for all of them. A prefix no group
        // resolves, a literal after a run of a block or more, or a group
        // that reaches `total` is left to one code at a time.
        let buf = out.as_mut_slice();
        let mut word = reader.peek();
        let mut used = 0;
        let mut one = false;
        while used + bits <= BitReader::PEEK_BITS {
            let entry = groups[(word >> (64 - bits)) as usize];
            let len = (entry & 63) as u32;
            // The common case first: a literal after a short run, none
            // pending before it.
            let at = (entry >> 16) as u16 as usize;
            if run == 0 && entry & FAST != 0 && n + at + 1 < total {
                let block: &mut [u32; BLOCK] = (&mut buf[n..n + BLOCK]).try_into().unwrap();
                *block = [mode; BLOCK];
                block[at % BLOCK] = (entry >> 32) as u32;
                n += at + 1;
            } else {
                let (joined, lit) = (joined(entry, run, shift), entry & LIT != 0);
                if (len == 0) | (lit & (joined >= BLOCK)) | (n + joined + lit as usize >= total) {
                    one = true;
                    break;
                }
                step(buf, entry, mode, &mut n, &mut run, &mut shift);
            }
            word <<= len;
            used += len;
        }
        reader.consume(used)?;
        if one {
            let entry = match lookup[(reader.peek() >> (64 - bits)) as usize] {
                0 => long_code(&mut reader)?,
                entry => {
                    reader.consume((entry & 63) as u32)?;
                    entry
                }
            };
            if entry & LIT != 0 && run >= BLOCK {
                (n, run, shift) = (fill(out, n, run, mode, total), 0, 0);
            }
            step(out, entry, mode, &mut n, &mut run, &mut shift);
            if run > total - n {
                return Err(CodecError::Corrupt("run overshoots the declared count"));
            }
        }
    }
    fill(out, n, run, mode, total);
    out.truncate(total);
    // The encoder pads the last byte with zeros; any other bit after the
    // last symbol — run digits past `total` among them — is not its stream.
    if reader.remaining() >= 8 || reader.peek() != 0 {
        return Err(CodecError::Corrupt("bits after the last symbol"));
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
        // One run of 1000: nine digits, 2 bytes, after an 8-byte header.
        assert_eq!(enc.len(), 10, "{enc:?}");
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
        write_uvarint(&mut buf, 0); // mode
        write_uvarint(&mut buf, 3); // distinct
        for key in 2..5u64 {
            write_uvarint(&mut buf, key);
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
        write_uvarint(&mut buf, 0); // mode
        write_uvarint(&mut buf, 9); // distinct
        for key in 2..11u64 {
            write_uvarint(&mut buf, key);
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
    /// step, with the run symbols added the plain way — the encoder writes
    /// the run-transformed key stream out first, taking digits off a run by
    /// bzip2's `(run - d) / 2` rather than from the bits of `run + 1`, and
    /// the decoder keeps its run in a `u128`. The decoder carries the same
    /// header, run and trailing-bit rejections as [`huffman_decode_into`].
    mod reference {
        use super::super::MAX_CODE_LEN;
        use crate::bitio::{BitReader, BitWriter};
        use crate::budget::DecodeBudget;
        use crate::varint::{read_uvarint, write_uvarint};
        use crate::CodecError;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};

        pub fn code_lengths(freqs: &[(u64, u64)]) -> Vec<u32> {
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
        pub fn flattened_lengths(freqs: &mut [(u64, u64)]) -> (Vec<u32>, usize) {
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

        /// Appends a run's digits as keys: 0 (RUNA) for 1, 1 (RUNB) for 2.
        fn push_run(keys: &mut Vec<u64>, mut run: u64) {
            while run > 0 {
                let d = 2 - run % 2;
                keys.push(d - 1);
                run = (run - d) / 2;
            }
        }

        pub fn encode(symbols: &[u32]) -> Vec<u8> {
            let mut out = Vec::new();
            write_uvarint(&mut out, symbols.len() as u64);
            if symbols.is_empty() {
                return out;
            }
            let mut counts: HashMap<u32, u64> = HashMap::new();
            for &s in symbols {
                *counts.entry(s).or_insert(0) += 1;
            }
            let (_, mode) = counts.iter().map(|(&s, &c)| (Reverse(c), s)).min().unwrap();
            let mut keys = Vec::new();
            let mut run = 0;
            for &s in symbols {
                if s == mode {
                    run += 1;
                } else {
                    push_run(&mut keys, run);
                    run = 0;
                    keys.push(s as u64 + 2);
                }
            }
            push_run(&mut keys, run);

            let mut freq_map: HashMap<u64, u64> = HashMap::new();
            for &k in &keys {
                *freq_map.entry(k).or_insert(0) += 1;
            }
            let mut freqs: Vec<(u64, u64)> = freq_map.into_iter().collect();
            freqs.sort_unstable_by_key(|&(k, _)| k);
            let (lens, _) = flattened_lengths(&mut freqs);
            let mut entries: Vec<(u32, u64)> = freqs
                .iter()
                .zip(&lens)
                .map(|(&(key, _), &len)| (len, key))
                .collect();
            entries.sort_unstable();
            let mut table: HashMap<u64, (u64, u32)> = HashMap::new();
            let mut code = 0u64;
            let mut prev_len = 0u32;
            for &(len, key) in &entries {
                code <<= len - prev_len;
                table.insert(key, (code, len));
                code += 1;
                prev_len = len;
            }
            write_uvarint(&mut out, mode as u64);
            write_uvarint(&mut out, entries.len() as u64);
            for &(len, key) in &entries {
                write_uvarint(&mut out, key);
                write_uvarint(&mut out, len as u64);
            }
            let mut bits = BitWriter::new();
            for k in &keys {
                let (code, len) = table[k];
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
            let mode = read_uvarint(bytes, &mut pos)?;
            if mode > u32::MAX as u64 {
                return Err(CodecError::Corrupt("symbol out of range"));
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
                let key = read_uvarint(bytes, &mut pos)?;
                if key > u32::MAX as u64 + 2 {
                    return Err(CodecError::Corrupt("symbol out of range"));
                }
                let len = read_uvarint(bytes, &mut pos)?;
                if len == 0 || len > MAX_CODE_LEN as u64 {
                    return Err(CodecError::Corrupt("bad code length"));
                }
                entries.push((len as u32, key));
            }
            if entries.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CodecError::Corrupt("code table not canonical"));
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
            let keys: Vec<u64> = entries.iter().map(|&(_, k)| k).collect();
            let mut reader = BitReader::new(&bytes[pos..]);
            let (mut run, mut weight) = (0u128, 1u128);
            let mut i = 0;
            while out.len() as u128 + run < total as u128 {
                budget.check_deadline_every(i)?;
                i += 1;
                let mut code = 0u64;
                let mut len = 0u32;
                let key = loop {
                    code = (code << 1) | reader.read_bit()? as u64;
                    len += 1;
                    if len > max_len {
                        return Err(CodecError::Corrupt("code exceeds max length"));
                    }
                    let l = len as usize;
                    if count[l] > 0 && code >= first_code[l] && code - first_code[l] < count[l] {
                        let i = first_index[l] + (code - first_code[l]);
                        break *keys
                            .get(i as usize)
                            .ok_or(CodecError::Corrupt("code index outside table"))?;
                    }
                };
                if key < 2 {
                    run += (key as u128 + 1) * weight;
                    weight *= 2;
                    if out.len() as u128 + run > total as u128 {
                        return Err(CodecError::Corrupt("run overshoots the declared count"));
                    }
                } else {
                    out.extend(std::iter::repeat_n(mode as u32, run as usize));
                    (run, weight) = (0, 1);
                    out.push((key - 2) as u32);
                }
            }
            out.extend(std::iter::repeat_n(mode as u32, run as usize));
            let rest = reader.remaining();
            if rest >= 8 || reader.read_bits(rest as u32)? != 0 {
                return Err(CodecError::Corrupt("bits after the last symbol"));
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

    /// Quantization codes of a smooth field: mostly the radius code, in
    /// runs of every length, with scattered neighbours and outliers.
    fn run_heavy_stream(rng: &mut amrviz_rng::Rng, len: usize) -> Vec<u32> {
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let width = rng.below(10);
            let run = rng.below(1 << width) as usize;
            data.extend(std::iter::repeat_n(1 << 15, run.min(len - data.len())));
            data.push(match rng.below(8) {
                0 => 0,
                k => (1 << 15) + k as u32 - 4,
            });
        }
        data.truncate(len);
        data
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
        // 26 Fibonacci frequencies make codes longer than twice
        // LOOKUP_BITS even once the mode is runs, so the per-length walk
        // decodes the rare ones.
        check(0x4F6, 6, |rng| {
            let base = rng.below(1000) as u32;
            let data = fibonacci_stream(rng, 26, base);
            let enc = huffman_encode(&data);
            let longest = {
                let mut pos = 0;
                read_uvarint(&enc, &mut pos).unwrap(); // total
                read_uvarint(&enc, &mut pos).unwrap(); // mode
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
            let freqs: Vec<(u64, u64)> = (0..rng.range_usize(1, 300))
                .map(|i| (i as u64, 1 + rng.below(top)))
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
            TABLES.with_borrow(|t| t.freqs.capacity() + t.lanes.capacity() + t.depth.capacity()),
            0
        );
        assert_matches_reference(&narrow);
    }

    /// Header with mode 0 and the given `(key, len)` varints, then `body`.
    fn handmade(total: u64, entries: &[(u64, u64)], body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, total);
        write_uvarint(&mut buf, 0);
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
        // Narrowed first, 2^32 + 7 would decode as symbol 7 (key 9).
        let ok = handmade(4, &[(9, 1), (11, 1)], &[0b0101_0000]);
        assert_eq!(huffman_decode(&ok).unwrap(), vec![7, 9, 7, 9]);
        let bad = handmade(
            4,
            &[((1 << 32) + 9, 1), ((1 << 32) + 11, 1)],
            &[0b0101_0000],
        );
        assert_eq!(
            huffman_decode(&bad),
            Err(CodecError::Corrupt("symbol out of range"))
        );
    }

    #[test]
    fn code_length_beyond_u32_rejected() {
        // Narrowed first, 2^32 + 1 would read as a 1-bit code.
        let bad = handmade(
            4,
            &[(9, (1 << 32) + 1), (11, (1 << 32) + 1)],
            &[0b0101_0000],
        );
        assert_eq!(
            huffman_decode(&bad),
            Err(CodecError::Corrupt("bad code length"))
        );
    }

    #[test]
    fn duplicate_table_entry_rejected() {
        // The same (len, symbol) twice is "in order" under `>` but gives
        // one symbol two codes.
        let bad = handmade(4, &[(9, 1), (9, 1)], &[0b0101_0000]);
        assert_eq!(
            huffman_decode(&bad),
            Err(CodecError::Corrupt("code table not canonical"))
        );
        let unordered = handmade(4, &[(11, 1), (9, 1)], &[0b0101_0000]);
        assert_eq!(
            huffman_decode(&unordered),
            Err(CodecError::Corrupt("code table not canonical"))
        );
    }

    /// Streams whose damage the error tests replay: a multi-length table,
    /// one symbol (runs only), one run whose digits are all RUNA (a
    /// one-key table, an incomplete code: the pattern `1` is nobody's),
    /// codes beyond the lookup width, and quantizer-shaped codes whose mode
    /// is most of the stream.
    fn taxonomy_corpus(rng: &mut amrviz_rng::Rng) -> Vec<Vec<u8>> {
        let skewed: Vec<u32> = (0..rng.range_usize(50, 600))
            .map(|_| (rng.below(40).pow(2) / 40) as u32 * 5)
            .collect();
        let mut deep = fibonacci_stream(rng, 16, 100);
        deep.truncate(rng.range_usize(200, 1200));
        // Long enough that the decoder groups codes per lookup.
        let runs = rng.range_usize(2000, 4000);
        vec![
            huffman_encode(&skewed),
            huffman_encode(&vec![3; rng.range_usize(1, 200)]),
            huffman_encode(&vec![3; (1 << rng.range_usize(1, 12)) - 1]),
            huffman_encode(&deep),
            huffman_encode(&run_heavy_stream(rng, runs)),
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
        // One run of 2^16 - 1: sixteen RUNA digits, one 1-bit code `0`, two
        // bytes without padding. A `1` is nobody's. With another bit behind
        // it the walk proves that (Corrupt); as the very last bit it cannot
        // tell it from a cut-off longer code (Truncated).
        let enc = huffman_encode(&[5; (1 << 16) - 1]);
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

    /// The header's mode, read back from an encoded stream.
    fn coded_mode(enc: &[u8]) -> u64 {
        let mut pos = 0;
        read_uvarint(enc, &mut pos).unwrap();
        read_uvarint(enc, &mut pos).unwrap()
    }

    #[test]
    fn constant_stream_of_a_million_symbols_is_a_few_bytes() {
        let data = vec![1u32 << 15; 1 << 20];
        let enc = huffman_encode(&data);
        // 20 digits (one RUNB, nineteen RUNA) after an 11-byte header.
        assert_eq!(enc.len(), 14, "{enc:?}");
        assert_matches_reference(&data);
    }

    #[test]
    fn runs_of_powers_of_two_and_their_neighbours_at_start_middle_and_end() {
        for k in 1..13 {
            for run in [(1 << k) - 1, 1 << k, (1 << k) + 1] {
                let mode = std::iter::repeat_n(4u32, run);
                let others = [9u32, 2, 8, 7];
                let start: Vec<u32> = mode.clone().chain(others).collect();
                let middle: Vec<u32> = (others[..2].iter().copied())
                    .chain(mode.clone())
                    .chain(others[2..].iter().copied())
                    .collect();
                let end: Vec<u32> = others.into_iter().chain(mode).collect();
                for data in [start, middle, end] {
                    // A run of one ties with every other symbol.
                    let mode = if run > 1 { 4 } else { 2 };
                    assert_eq!(coded_mode(&huffman_encode(&data)), mode);
                    assert_matches_reference(&data);
                }
            }
        }
    }

    #[test]
    fn the_mode_is_the_most_frequent_symbol_the_smallest_on_a_tie() {
        // Neither the minimum nor the maximum.
        let inner = [1, 5, 5, 9, 5, 5, 5, 2, 9, 5];
        assert_eq!(coded_mode(&huffman_encode(&inner)), 5);
        assert_matches_reference(&inner);
        // A two-way tie, the larger symbol first in the stream.
        let tie = [7, 3, 7, 3, 3, 7, 1];
        assert_eq!(coded_mode(&huffman_encode(&tie)), 3);
        assert_matches_reference(&tie);
    }

    #[test]
    fn a_single_symbol_and_a_stream_without_repeats_roundtrip() {
        assert_matches_reference(&[9]);
        assert_matches_reference(&[u32::MAX]);
        check(0x4FA, 16, |rng| {
            let mut data: Vec<u32> = (0..rng.range_usize(2, 3000) as u32)
                .map(|i| i * 3)
                .collect();
            for i in (1..data.len()).rev() {
                data.swap(i, rng.below(i as u64 + 1) as usize);
            }
            // Every count ties: the smallest symbol is the mode, a run of 1.
            assert_eq!(coded_mode(&huffman_encode(&data)), 0);
            assert_matches_reference(&data);
        });
    }

    #[test]
    fn matches_reference_on_run_heavy_codes() {
        check(0x4FB, 32, |rng| {
            let len = rng.range_usize(1, 20_000);
            assert_matches_reference(&run_heavy_stream(rng, len));
        });
    }

    /// Both decoders' verdict on a forged stream, which must agree.
    fn forged(bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
        let got = decode_under(bytes, &DecodeBudget::strict());
        assert_eq!(got, reference::decode(bytes, &DecodeBudget::strict()));
        got
    }

    #[test]
    fn a_run_past_the_declared_count_is_corrupt() {
        // RUNA = `0`, RUNB = `1`: runs of 2, then 2 + 4 = 6, for 3 symbols.
        let table = [(RUNA, 1), (RUNB, 1)];
        assert_eq!(forged(&handmade(2, &table, &[0b1000_0000])), Ok(vec![0; 2]));
        assert_eq!(
            forged(&handmade(3, &table, &[0b1100_0000])),
            Err(CodecError::Corrupt("run overshoots the declared count"))
        );
        // With a literal (`1`) in the table.
        let table = [(RUNB, 1), (11, 1)];
        assert_eq!(
            forged(&handmade(3, &table, &[0b0100_0000])),
            Ok(vec![0, 0, 9])
        );
        assert_eq!(
            forged(&handmade(4, &table, &[0b0010_0000])),
            Err(CodecError::Corrupt("run overshoots the declared count"))
        );
    }

    #[test]
    fn run_digits_after_the_declared_count_are_corrupt() {
        // Two RUNAs make a run of 3, which ends the stream; a third digit
        // in the padding, or a byte more of them, is not padding.
        let table = [(RUNA, 1), (RUNB, 1)];
        assert_eq!(forged(&handmade(3, &table, &[0])), Ok(vec![0; 3]));
        for body in [&[0b0010_0000][..], &[0b0001_0000], &[0, 0], &[0, 0x80]] {
            assert_eq!(
                forged(&handmade(3, &table, body)),
                Err(CodecError::Corrupt("bits after the last symbol")),
                "{body:?}"
            );
        }
    }

    #[test]
    fn a_count_beyond_the_bytes_fails_without_reserving_it() {
        // The most symbols the strict budget allows, three bytes to carry
        // them: literals run out of bits, digits overshoot. Neither grows
        // the output a step past what the bits decoded.
        let total = DecodeBudget::strict().max_values as u64;
        let literals = handmade(total, &[(7, 1)], &[0; 3]);
        let digits = handmade(total, &[(RUNA, 1), (RUNB, 1)], &[0xff; 3]);
        for (bytes, want) in [
            (literals, CodecError::Truncated),
            (
                digits,
                CodecError::Corrupt("run overshoots the declared count"),
            ),
        ] {
            let mut out = Vec::new();
            let got = huffman_decode_into(&bytes, &DecodeBudget::strict(), &mut out);
            assert_eq!(got, Err(want));
            assert!(out.capacity() <= SLACK + GROW + 64, "{}", out.capacity());
            assert_eq!(
                reference::decode(&bytes, &DecodeBudget::strict()),
                got.map(|()| out)
            );
        }
    }

    #[test]
    fn a_long_run_is_stopped_by_an_expired_deadline() {
        let data: Vec<u32> = (0..3 * DecodeBudget::DEADLINE_STRIDE as u32)
            .map(|i| u32::from(i % 5000 == 0))
            .collect();
        let enc = huffman_encode(&data);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let mut out = Vec::new();
        let expired = DecodeBudget::default().with_deadline(past);
        assert!(huffman_decode_into(&enc, &expired, &mut out)
            .unwrap_err()
            .is_deadline());
    }
}
