//! Compression-ratio bookkeeping.

/// Sizes and derived ratios for one compression run.
#[derive(Debug, Clone, Copy)]
pub struct CompressionStats {
    /// Number of scalar values compressed.
    pub n_values: usize,
    /// Bytes of the original representation (8 bytes/value — we store f64).
    pub original_bytes: usize,
    /// Bytes of the compressed stream.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    pub fn new(n_values: usize, compressed_bytes: usize) -> Self {
        CompressionStats {
            n_values,
            original_bytes: n_values * 8,
            compressed_bytes,
        }
    }

    /// Compression ratio against the native f64 representation.
    pub fn ratio(&self) -> f64 {
        self.original_bytes as f64 / self.compressed_bytes as f64
    }

    /// Compression ratio against a single-precision baseline
    /// (4 bytes/value). The paper's Nyx/WarpX dumps are f32, so this is the
    /// number comparable to its Table 2.
    pub fn ratio_vs_f32(&self) -> f64 {
        (self.n_values * 4) as f64 / self.compressed_bytes as f64
    }

    /// Bits per value in the compressed stream — the x-axis of the paper's
    /// rate-distortion plots (Figs. 12–13).
    pub fn bits_per_value(&self) -> f64 {
        self.compressed_bytes as f64 * 8.0 / self.n_values as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_consistent() {
        let s = CompressionStats::new(1000, 1000);
        assert_eq!(s.original_bytes, 8000);
        assert!((s.ratio() - 8.0).abs() < 1e-12);
        assert!((s.ratio_vs_f32() - 4.0).abs() < 1e-12);
        assert!((s.bits_per_value() - 8.0).abs() < 1e-12);
    }
}
