//! MSB-first bit-level I/O over byte buffers, a word at a time.
//!
//! The writer packs bits into a `u64` accumulator and stores it as eight
//! big-endian bytes whenever it fills, so the byte layout is the one a
//! bit-at-a-time MSB-first writer produces. The reader's primitive is
//! [`BitReader::peek`]: the next bits of the stream left-aligned in a
//! `u64`, zero-padded past the end, from which a caller may take several
//! fields before paying one checked [`BitReader::consume`].

use crate::CodecError;

/// Accumulates bits MSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits in the low `used` positions, oldest bit highest.
    acc: u64,
    /// Number of pending bits in `acc` (0..64).
    used: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Builds a writer on top of an existing (cleared) buffer, so scratch
    /// capacity can be recycled across calls. [`BitWriter::finish`] hands
    /// the buffer back.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter::appending(buf)
    }

    /// Builds a writer that appends after the bytes already in `buf`.
    pub(crate) fn appending(buf: Vec<u8>) -> Self {
        BitWriter {
            bytes: buf,
            acc: 0,
            used: 0,
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Writes the low `n` bits of `value`, most significant first.
    /// `n` may be 0..=64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        let value = if n < 64 {
            value & ((1u64 << n) - 1)
        } else {
            value
        };
        let (acc, used) = (self.acc, self.used);
        let mut sink = BitSink {
            out: &mut self.bytes,
            acc,
            used,
        };
        sink.write(value, n);
        (self.acc, self.used) = (sink.acc, sink.used);
    }

    /// Pads with zero bits to a byte boundary and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let (acc, used) = (self.acc, self.used);
        BitSink {
            out: &mut self.bytes,
            acc,
            used,
        }
        .finish();
        self.bytes
    }
}

/// [`BitWriter`]'s packing over a borrowed buffer, for a loop that owns
/// the pending bits: growing an owned buffer takes a pointer into the
/// writer and pins it in memory, while these stay in registers.
pub(crate) struct BitSink<'a> {
    pub(crate) out: &'a mut Vec<u8>,
    /// Pending bits in the low `used` positions, oldest bit highest.
    pub(crate) acc: u64,
    /// Number of pending bits in `acc` (0..64).
    pub(crate) used: u32,
}

impl BitSink<'_> {
    /// Writes `value`, which has no bits above its low `n` (0..=64).
    #[inline(always)]
    pub(crate) fn write(&mut self, value: u64, n: u32) {
        let free = 64 - self.used;
        if n < free {
            self.acc = (self.acc << n) | value;
            self.used += n;
            return;
        }
        // The accumulator fills: its pending bits, then the top `free`
        // bits of `value`, make one word; the low `rest` bits stay pending.
        let rest = n - free;
        let pending = if free == 64 { 0 } else { self.acc << free };
        self.out
            .extend_from_slice(&(pending | (value >> rest)).to_be_bytes());
        self.acc = value & ((1u64 << rest) - 1);
        self.used = rest;
    }

    /// Pads with zero bits to a byte boundary.
    pub(crate) fn finish(self) {
        if self.used > 0 {
            let tail = (self.acc << (64 - self.used)).to_be_bytes();
            self.out
                .extend_from_slice(&tail[..self.used.div_ceil(8) as usize]);
        }
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit position (absolute, from the start).
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Bits of [`BitReader::peek`]'s word that are always stream bits (or
    /// its zero padding), whatever the bit offset within the first byte.
    pub const PEEK_BITS: u32 = 57;

    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Number of bits remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// The next bits of the stream, left-aligned: bit 63 is the next unread
    /// bit. At least [`BitReader::PEEK_BITS`] bits are meaningful; bits past
    /// the end of the stream read as zero. Does not advance.
    #[inline]
    pub fn peek(&self) -> u64 {
        let tail = &self.bytes[(self.pos / 8).min(self.bytes.len())..];
        let word = match tail.first_chunk::<8>() {
            Some(chunk) => u64::from_be_bytes(*chunk),
            None => {
                let mut padded = [0u8; 8];
                padded[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(padded)
            }
        };
        word << (self.pos % 8)
    }

    /// Advances by `n` bits, or fails with [`CodecError::Truncated`] (and
    /// does not advance) when fewer remain.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), CodecError> {
        if self.remaining() < n as usize {
            return Err(CodecError::Truncated);
        }
        self.pos += n as usize;
        Ok(())
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads `n` bits (0..=64), MSB first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 64);
        if self.remaining() < n as usize {
            return Err(CodecError::Truncated);
        }
        // Wider than one peek guarantees: take the top 32 bits first.
        let mut v = 0u64;
        let mut n = n;
        if n > Self::PEEK_BITS {
            v = self.peek() >> 32;
            self.pos += 32;
            n -= 32;
        }
        if n > 0 {
            v = (v << n) | (self.peek() >> (64 - n));
            self.pos += n as usize;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_rng::check;

    /// The layout every stream in the workspace was written with: one bit
    /// per step, most significant first, zero-padded to a byte.
    fn naive_write(fields: &[(u64, u32)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut nbits = 0usize;
        for &(v, n) in fields {
            for i in (0..n).rev() {
                if nbits.is_multiple_of(8) {
                    bytes.push(0);
                }
                let bit = ((v >> i) & 1) as u8;
                *bytes.last_mut().unwrap() |= bit << (7 - nbits % 8);
                nbits += 1;
            }
        }
        bytes
    }

    fn mask(v: u64, n: u32) -> u64 {
        if n == 64 {
            v
        } else {
            v & ((1u64 << n) - 1)
        }
    }

    #[test]
    fn single_bits_roundtrip() {
        let bits = [
            true, false, true, true, false, false, false, true, true, false,
        ];
        let mut w = BitWriter::new();
        for &b in &bits {
            w.write_bit(b);
        }
        let buf = w.finish();
        assert_eq!(buf, vec![0b1011_0001, 0b1000_0000]);
        let mut r = BitReader::new(&buf);
        for &b in &bits {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        let buf = w.finish();
        assert_eq!(buf, vec![0b1011_0000]);
    }

    #[test]
    fn eof_detected() {
        let buf = [0xFFu8];
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(CodecError::Truncated));
        assert_eq!(
            BitReader::new(&buf).read_bits(9),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn zero_width_reads_and_writes() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        w.write_bits(1, 1);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn full_width_values() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0xDEAD_BEEF, 32);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn bits_above_the_width_are_ignored() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 3);
        w.write_bits(0, 5);
        assert_eq!(w.finish(), vec![0b1110_0000]);
    }

    #[test]
    fn appending_keeps_the_prefix() {
        let mut w = BitWriter::appending(vec![7, 9]);
        w.write_bits(0b101, 3);
        assert_eq!(w.finish(), vec![7, 9, 0b1010_0000]);
        assert_eq!(
            BitWriter::with_buffer(vec![7, 9]).finish(),
            Vec::<u8>::new()
        );
    }

    /// Mixed widths — 0, 1 and 57..=64 over-represented so fields straddle
    /// the accumulator's word boundary at every offset — written by the
    /// word writer equal the naive layout byte for byte and read back.
    #[test]
    fn bits_roundtrip() {
        check(0xB17, 256, |rng| {
            let fields: Vec<(u64, u32)> = (0..rng.range_usize(0, 199))
                .map(|_| {
                    let n = match rng.below(4) {
                        0 => rng.below(2) as u32,
                        1 => 57 + rng.below(8) as u32,
                        _ => rng.range_i64(0, 64) as u32,
                    };
                    (rng.next_u64(), n)
                })
                .collect();
            let mut w = BitWriter::new();
            for &(v, n) in &fields {
                w.write_bits(v, n);
            }
            let buf = w.finish();
            assert_eq!(buf, naive_write(&fields));
            let mut r = BitReader::new(&buf);
            for &(v, n) in &fields {
                assert_eq!(r.read_bits(n).unwrap(), mask(v, n));
            }
            assert!(r.remaining() < 8);
        });
    }

    /// `peek` and `consume` from every bit position in the last nine bytes
    /// down to the end: the word is the stream's bits then zeros, `consume`
    /// succeeds exactly up to `remaining`, and a failed `consume` or
    /// `read_bits` does not move the reader.
    #[test]
    fn peek_and_consume_near_the_end() {
        check(0xB18, 64, |rng| {
            let len = rng.range_usize(0, 20);
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let bit = |p: usize| -> u64 {
                match buf.get(p / 8) {
                    Some(b) => ((b >> (7 - p % 8)) & 1) as u64,
                    None => 0,
                }
            };
            for start in (len * 8).saturating_sub(72)..=len * 8 {
                let mut r = BitReader::new(&buf);
                for _ in 0..start {
                    r.consume(1).unwrap();
                }
                let want = (0..BitReader::PEEK_BITS as usize)
                    .fold(0u64, |acc, j| (acc << 1) | bit(start + j));
                assert_eq!(r.peek() >> (64 - BitReader::PEEK_BITS), want);
                let left = len * 8 - start;
                assert_eq!(r.remaining(), left);
                if left < 64 {
                    assert_eq!(r.consume(left as u32 + 1), Err(CodecError::Truncated));
                    assert_eq!(r.read_bits(left as u32 + 1), Err(CodecError::Truncated));
                    assert_eq!(r.remaining(), left);
                }
                let take = left.min(64) as u32;
                let mut copy = BitReader::new(&buf);
                copy.consume(start as u32).unwrap();
                let got = copy.read_bits(take).unwrap();
                let want = (0..take as usize).fold(0u64, |acc, j| (acc << 1) | bit(start + j));
                assert_eq!(got, want);
                r.consume(take).unwrap();
                assert_eq!(r.remaining(), left - take as usize);
            }
        });
    }
}
