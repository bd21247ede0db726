//! RGB raster images with a PNG writer.
//!
//! The PNG writer emits valid, universally-readable files using *stored*
//! (uncompressed) deflate blocks — no zlib dependency needed; the files are
//! larger but bit-exact.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::color::Color;

/// A simple RGB image, row-major, origin at the top-left.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    pub width: usize,
    pub height: usize,
    pixels: Vec<Color>,
}

impl Image {
    pub fn new(width: usize, height: usize, fill: Color) -> Self {
        Image {
            width,
            height,
            pixels: vec![fill; width * height],
        }
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Color {
        self.pixels[x + y * self.width]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: Color) {
        if x < self.width && y < self.height {
            self.pixels[x + y * self.width] = c;
        }
    }

    /// Luminance (Rec. 601) of every pixel, for image-quality metrics.
    pub fn luminance(&self) -> Vec<f64> {
        self.pixels
            .iter()
            .map(|c| 0.299 * c.r as f64 + 0.587 * c.g as f64 + 0.114 * c.b as f64)
            .collect()
    }

    /// Writes a PNG (8-bit RGB, stored deflate blocks).
    pub fn write_png(&self, w: &mut impl Write) -> io::Result<()> {
        // Raw scanlines with filter byte 0.
        let mut raw = Vec::with_capacity(self.height * (1 + self.width * 3));
        for y in 0..self.height {
            raw.push(0u8);
            for x in 0..self.width {
                let c = self.get(x, y);
                raw.extend_from_slice(&[c.r, c.g, c.b]);
            }
        }
        w.write_all(b"\x89PNG\r\n\x1a\n")?;
        // IHDR
        let mut ihdr = Vec::with_capacity(13);
        ihdr.extend_from_slice(&(self.width as u32).to_be_bytes());
        ihdr.extend_from_slice(&(self.height as u32).to_be_bytes());
        ihdr.extend_from_slice(&[8, 2, 0, 0, 0]); // depth 8, color RGB
        write_chunk(w, b"IHDR", &ihdr)?;
        // IDAT: zlib header + stored deflate blocks + adler32.
        let mut idat = vec![0x78, 0x01];
        let mut off = 0;
        while off < raw.len() {
            let len = (raw.len() - off).min(65535);
            let last = off + len == raw.len();
            idat.push(if last { 1 } else { 0 });
            idat.extend_from_slice(&(len as u16).to_le_bytes());
            idat.extend_from_slice(&(!(len as u16)).to_le_bytes());
            idat.extend_from_slice(&raw[off..off + len]);
            off += len;
        }
        if raw.is_empty() {
            idat.extend_from_slice(&[1, 0, 0, 0xFF, 0xFF]);
        }
        idat.extend_from_slice(&adler32(&raw).to_be_bytes());
        write_chunk(w, b"IDAT", &idat)?;
        write_chunk(w, b"IEND", &[])?;
        Ok(())
    }

    pub fn save_png(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        self.write_png(&mut w)?;
        w.flush()
    }
}

fn write_chunk(w: &mut impl Write, kind: &[u8; 4], data: &[u8]) -> io::Result<()> {
    w.write_all(&(data.len() as u32).to_be_bytes())?;
    w.write_all(kind)?;
    w.write_all(data)?;
    let mut crc_input = Vec::with_capacity(4 + data.len());
    crc_input.extend_from_slice(kind);
    crc_input.extend_from_slice(data);
    w.write_all(&crc32(&crc_input).to_be_bytes())?;
    Ok(())
}

/// CRC-32 (IEEE 802.3), bitwise implementation.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Adler-32 checksum (zlib).
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let (mut a, mut b) = (1u32, 0u32);
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn png_structure_is_valid() {
        let mut img = Image::new(3, 2, Color::WHITE);
        img.set(0, 0, Color::new(10, 20, 30));
        let mut buf = Vec::new();
        img.write_png(&mut buf).unwrap();
        assert!(buf.starts_with(b"\x89PNG\r\n\x1a\n"));
        // IHDR at offset 8: length 13.
        assert_eq!(&buf[8..12], &13u32.to_be_bytes());
        assert_eq!(&buf[12..16], b"IHDR");
        assert_eq!(&buf[16..20], &3u32.to_be_bytes()); // width
        assert_eq!(&buf[20..24], &2u32.to_be_bytes()); // height
                                                       // Ends with a valid IEND chunk.
        let tail = &buf[buf.len() - 12..];
        assert_eq!(&tail[0..4], &0u32.to_be_bytes());
        assert_eq!(&tail[4..8], b"IEND");
        assert_eq!(&tail[8..12], &crc32(b"IEND").to_be_bytes());
    }

    #[test]
    fn set_out_of_bounds_is_ignored() {
        let mut img = Image::new(2, 2, Color::BLACK);
        img.set(5, 5, Color::WHITE);
        assert!(img.luminance().iter().all(|&l| l == 0.0));
    }

    #[test]
    fn luminance_weights() {
        let img = Image::new(1, 1, Color::WHITE);
        assert!((img.luminance()[0] - 255.0).abs() < 1e-9);
    }
}
