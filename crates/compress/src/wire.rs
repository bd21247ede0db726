//! Little helpers for serializing headers and sections, and the one
//! entropy stage every compressed byte goes through: [`ByteWriter::coded_section`]
//! / [`ByteReader::coded_section`], and over it the chunk body of
//! `write_pieces` / `read_pieces`.
//!
//! [`ByteReader`] carries a [`DecodeBudget`]: declared section lengths and
//! box dimensions are validated against it (and the remaining buffer)
//! before anything is sliced or allocated, so corrupted length prefixes
//! surface as [`CodecError`]s instead of panics or absurd allocations.

use amrviz_amr::{Box3, IntVect};
use amrviz_codec::{
    huffman_decode_into, huffman_encode_into, read_uvarint, write_uvarint, zigzag_decode,
    zigzag_encode, CodecError, DecodeBudget,
};
use amrviz_par::scratch;
use std::ops::RangeInclusive;

use crate::CompressError;

#[cfg(not(target_endian = "little"))]
compile_error!(
    "the wire formats store f64s little-endian and are written as the values' own bytes; \
     a big-endian target needs a byte-swapping `f64s_as_le_bytes`"
);

/// The little-endian wire bytes of `values` — on the little-endian targets
/// this crate builds for, the values' own memory. The one mechanism every
/// bulk `f64` payload (compressor sections, serve LEVEL frames) goes
/// through, whether it is copied into a buffer or handed to the socket.
pub fn f64s_as_le_bytes(values: &[f64]) -> &[u8] {
    // SAFETY: `values` is `size_of_val(values)` initialised bytes, `u8` has
    // alignment 1 and no invalid bit patterns, and the returned slice
    // borrows `values`, so it cannot outlive or alias a mutation of them.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), size_of_val(values)) }
}

/// Append-only byte buffer with typed writers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Builds a writer that appends to an existing buffer; the buffer comes
    /// back out of [`ByteWriter::finish`]. Lets streams be assembled
    /// directly in caller-owned or rented scratch storage instead of a
    /// fresh allocation per stream.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn uvarint(&mut self, v: u64) {
        write_uvarint(&mut self.buf, v);
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// 8-byte little-endian `u64` (checksums).
    pub fn u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A box as six zig-zag varints, `lo` then `hi` — the one box codec the
    /// serve artifact and the LEVEL frame share.
    pub fn box3(&mut self, bx: &Box3) {
        for v in bx.lo().0.into_iter().chain(bx.hi().0) {
            self.uvarint(zigzag_encode(v));
        }
    }

    /// Length-prefixed byte section.
    pub fn section(&mut self, bytes: &[u8]) {
        self.uvarint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Section of raw little-endian `f64`s (outliers, raw blocks).
    pub fn f64_section(&mut self, values: &[f64]) {
        self.section(f64s_as_le_bytes(values));
    }

    /// Section of run-length Huffman coded symbols — the one entropy pass
    /// every compressor shares, written through a rented buffer. No symbols
    /// is an empty section: its length byte alone.
    pub fn coded_section(&mut self, symbols: &[u32]) {
        if symbols.is_empty() {
            return self.section(&[]);
        }
        let mut huff = scratch::take_bytes();
        huffman_encode_into(symbols, &mut huff);
        self.section(&huff);
        scratch::give_bytes(huff);
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-based reader matching [`ByteWriter`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    budget: DecodeBudget,
}

impl<'a> ByteReader<'a> {
    /// Reader with the default (permissive) budget.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader::with_budget(buf, DecodeBudget::default())
    }

    /// Reader enforcing `budget` on sections and dimensions.
    pub fn with_budget(buf: &'a [u8], budget: DecodeBudget) -> Self {
        ByteReader {
            buf,
            pos: 0,
            budget,
        }
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub fn uvarint(&mut self) -> Result<u64, CodecError> {
        read_uvarint(self.buf, &mut self.pos)
    }

    /// Reads exactly `n` bytes, with checked cursor arithmetic.
    fn exact(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Steps over `n` bytes without looking at them (a payload the caller
    /// has sized and only needs to count).
    pub fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        self.exact(n).map(|_| ())
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let bytes = self.exact(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(f64::from_le_bytes(arr))
    }

    /// 8-byte little-endian `u64` (checksums).
    pub fn u64_le(&mut self) -> Result<u64, CodecError> {
        let bytes = self.exact(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Length-prefixed byte section. The declared length is validated
    /// against the remaining buffer *and* the budget before slicing.
    pub fn section(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.uvarint()? as usize;
        self.budget.check_section(len, self.remaining())?;
        self.exact(len)
    }

    /// Inverse of [`ByteWriter::coded_section`]: as many symbols as the
    /// section declares, which must be within `expected` (exactly one count,
    /// or `0..=at_most`), land in `out`. The count is checked before the
    /// symbol buffer is sized.
    pub fn coded_section(
        &mut self,
        expected: RangeInclusive<usize>,
        out: &mut Vec<u32>,
    ) -> Result<(), CompressError> {
        let section = self.section()?;
        let (exact, hi) = (expected.start() == expected.end(), expected.end());
        let count = |n: u64| match usize::try_from(n) {
            Ok(n) if expected.contains(&n) => Ok(()),
            _ => Err(CompressError::Malformed(format!(
                "{n} symbols coded where the pieces read {}{hi}",
                if exact { "" } else { "at most " }
            ))),
        };
        if section.is_empty() {
            out.clear();
            return count(0);
        }
        count(read_uvarint(section, &mut 0)?)?;
        Ok(huffman_decode_into(section, &self.budget, out)?)
    }

    /// Inverse of [`ByteWriter::box3`]. An inverted box is `Corrupt`, and
    /// every axis extent is budget-checked, so the caller may take the box's
    /// `size()` without overflow.
    pub fn box3(&mut self) -> Result<Box3, CodecError> {
        let mut c = [0i64; 6];
        for v in &mut c {
            *v = zigzag_decode(self.uvarint()?);
        }
        for a in 0..3 {
            if c[3 + a] < c[a] {
                return Err(CodecError::Corrupt("inverted box"));
            }
            // `abs_diff`: `hi − lo + 1` overflows `i64` on a forged box.
            let extent = c[3 + a].abs_diff(c[a]).saturating_add(1);
            self.budget.check_dim(extent as usize)?;
        }
        Ok(Box3::new(
            IntVect([c[0], c[1], c[2]]),
            IntVect([c[3], c[4], c[5]]),
        ))
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// The side symbols of a chunk (SZ-L/R's plane categories), which its
/// pieces take in order, each as many as its model calls for.
pub struct SideSymbols<'a> {
    rest: &'a [u32],
    /// Whether the piece taking next is the chunk's last.
    last: bool,
}

impl<'a> SideSymbols<'a> {
    /// The next `n` side symbols. Fewer than `n` is `Malformed`, and so,
    /// for the chunk's last piece, is more — either way before the piece
    /// writes a cell.
    pub fn take(&mut self, n: usize) -> Result<&'a [u32], CompressError> {
        let have = self.rest.len();
        if n > have || self.last && n < have {
            let piece = if self.last { "the chunk's last" } else { "a" };
            return Err(CompressError::Malformed(format!(
                "{have} side symbols left where {piece} piece takes {n}"
            )));
        }
        let (own, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(own)
    }
}

/// A chunk body. `pieces` runs the model half
/// ([`crate::Compressor::encode_piece`]) of each piece in order onto one
/// model writer, one symbol buffer and one side-symbol buffer; the body
/// appended to `out` is the models, as one section, then one run-length
/// Huffman coded section over all the symbols and one over all the side
/// symbols.
/// Returns the bytes of the models and of the side section.
pub(crate) fn write_pieces(
    out: &mut Vec<u8>,
    pieces: impl FnOnce(&mut ByteWriter, &mut Vec<u32>, &mut Vec<u32>),
) -> [usize; 2] {
    let (mut models, mut symbols, mut side) = (
        ByteWriter::from_vec(scratch::take_bytes()),
        scratch::take_u32(),
        scratch::take_u32(),
    );
    pieces(&mut models, &mut symbols, &mut side);
    let mut w = ByteWriter::from_vec(std::mem::take(out));
    w.section(&models.buf);
    w.coded_section(&symbols);
    let side_start = w.len();
    w.coded_section(&side);
    let bytes = [models.len(), w.len() - side_start];
    *out = w.finish();
    scratch::give_u32(side);
    scratch::give_u32(symbols);
    scratch::give_bytes(models.finish());
    bytes
}

/// Inverse of [`write_pieces`] over the rest of `r`, for `pieces`' symbol
/// counts and side capacities in piece order: `decode(i, model, symbols,
/// side)` takes piece `i`'s model off the model reader, its share of the
/// symbols, and its side symbols off `side`. Before either symbol buffer is
/// sized, the coded section must declare exactly the pieces' symbols and
/// the side section at most their capacity; the side section must end the
/// input, the models must end where the last piece stops, and no side
/// symbol may be left.
pub(crate) fn read_pieces<'a>(
    mut r: ByteReader<'a>,
    pieces: impl ExactSizeIterator<Item = [usize; 2]> + Clone,
    mut decode: impl FnMut(
        usize,
        &mut ByteReader<'a>,
        &[u32],
        &mut SideSymbols<'_>,
    ) -> Result<(), CompressError>,
) -> Result<(), CompressError> {
    let mut models = ByteReader::with_budget(r.section()?, r.budget);
    let [expected, capacity] = pieces
        .clone()
        .fold([0, 0], |[n, s], [pn, ps]| [n + pn, s + ps]);
    // The rentals go back on every path: a failed decode (a corrupt chunk,
    // a deadline) must not drain the thread's pool.
    let (mut symbols, mut side) = (scratch::take_u32(), scratch::take_u32());
    let decoded = r
        .coded_section(expected..=expected, &mut symbols)
        .and_then(|()| r.coded_section(0..=capacity, &mut side))
        .and_then(|()| {
            let trailing = r.remaining();
            if trailing != 0 {
                return Err(CompressError::Malformed(format!(
                    "{trailing} bytes after the side section"
                )));
            }
            let (count, mut rest) = (pieces.len(), &symbols[..]);
            let mut side = SideSymbols {
                rest: &side,
                last: false,
            };
            for (i, [n, _]) in pieces.enumerate() {
                // The counts sum to what was decoded, so each share is there.
                let (own, tail) = rest.split_at(n);
                rest = tail;
                side.last = i + 1 == count;
                decode(i, &mut models, own, &mut side)?;
            }
            // Also for pieces that took none.
            side.last = true;
            side.take(0)?;
            match models.remaining() {
                0 => Ok(()),
                left => Err(CompressError::Malformed(format!(
                    "{left} model bytes after the last piece"
                ))),
            }
        });
    scratch::give_u32(side);
    scratch::give_u32(symbols);
    decoded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.uvarint(300);
        w.f64(-1.5);
        w.section(b"hello");
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.uvarint().unwrap(), 300);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert_eq!(r.section().unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bulk_f64_bytes_equal_the_per_value_encoding() {
        let values = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE];
        let mut per_value = ByteWriter::new();
        per_value.uvarint(values.len() as u64 * 8);
        for v in values {
            per_value.f64(v);
        }
        let mut bulk = ByteWriter::new();
        bulk.f64_section(&values);
        assert_eq!(bulk.finish(), per_value.finish());
        assert!(f64s_as_le_bytes(&[]).is_empty());
        let mut r = ByteReader::new(f64s_as_le_bytes(&values));
        r.skip(40).unwrap();
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE);
        assert!(r.skip(1).is_err());
    }

    #[test]
    fn eof_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.f64().is_err());
        let mut r = ByteReader::new(&[5]); // section claims 5 bytes, has 0
        assert!(r.section().is_err());
    }

    #[test]
    fn u64_le_roundtrips() {
        let mut w = ByteWriter::new();
        w.u64_le(0xdead_beef_cafe_f00d);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u64_le().unwrap(), 0xdead_beef_cafe_f00d);
        assert!(r.u64_le().is_err());
    }

    #[test]
    fn box3_roundtrips_and_rejects_inverted_or_oversized() {
        let bx = Box3::new(IntVect([-7, 0, 300]), IntVect([-7, 63, 4395]));
        let mut w = ByteWriter::new();
        w.box3(&bx);
        let buf = w.finish();
        // Six zig-zag varints, lo then hi: −7 → 13, 300 → 600 (two bytes).
        assert_eq!(buf[..4], [13, 0, 0xd8, 0x04]);
        let strict = DecodeBudget::strict();
        let mut r = ByteReader::with_budget(&buf, strict);
        assert_eq!(r.box3(), Ok(bx));
        assert_eq!(r.remaining(), 0);
        assert_eq!(
            ByteReader::new(&buf[..buf.len() - 1]).box3(),
            Err(CodecError::Truncated)
        );

        let read = |c: [i64; 6]| {
            let mut w = ByteWriter::new();
            c.iter().for_each(|&v| w.uvarint(zigzag_encode(v)));
            ByteReader::with_budget(&w.finish(), strict).box3()
        };
        assert_eq!(
            read([0, 0, 5, 3, 3, 4]),
            Err(CodecError::Corrupt("inverted box"))
        );
        // One cell past `max_dim`, and a forged box whose extent overflows.
        assert_eq!(strict.max_dim, 4096);
        assert_eq!(read([0, 0, 0, 0, 4095, 0]).unwrap().size(), [1, 4096, 1]);
        for c in [[0, 0, 0, 0, 4096, 0], [i64::MIN, 0, 0, i64::MAX, 0, 0]] {
            assert!(matches!(read(c), Err(CodecError::BudgetExceeded(_))));
        }
    }

    #[test]
    fn budget_caps_section_length() {
        let mut w = ByteWriter::new();
        w.section(&vec![7u8; 512]);
        let buf = w.finish();
        let tight = amrviz_codec::DecodeBudget {
            max_section_bytes: 16,
            ..amrviz_codec::DecodeBudget::strict()
        };
        let mut r = ByteReader::with_budget(&buf, tight);
        assert!(r.section().is_err());
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.section().unwrap().len(), 512);
    }
}
