//! Error-bounded lossy compression for scientific floating-point data.
//!
//! Two SZ-family compressors are implemented from scratch, matching the
//! algorithmic structure of the two the paper evaluates (§3.3):
//!
//! * [`SzLr`] — "SZ-L/R" (Liang et al. 2018): the volume is partitioned into
//!   6×6×6 blocks and each block independently chooses between a 3D
//!   first-order **Lorenzo** predictor and a per-block **linear regression**
//!   plane. Block locality is what produces the characteristic block-wise
//!   artifacts at large error bounds — and what makes the method strong on
//!   irregular data (Nyx).
//! * [`SzInterp`] — "SZ-Interp" (Zhao et al. 2021): a **global** multi-level
//!   cubic-spline interpolation predictor over the whole volume. Global
//!   smoothness is what makes it excel on smooth data (WarpX) and what
//!   produces smooth-but-wrong geometry on complex regions.
//!
//! Both share the same error-bounded linear quantizer with outlier escape
//! ([`quantizer`]) and the same entropy backend (Huffman + LZSS from
//! `amrviz-codec`), and both guarantee `|x − x̂| ≤ eb` pointwise.
//!
//! [`ZfpLike`] adds a fixed-block transform codec in the spirit of ZFP
//! (mentioned, but not evaluated, by the paper) and [`amr_codec`] applies
//! any compressor level-by-level to an AMR hierarchy, optionally skipping
//! the redundant coarse data (paper §2.2). Its container is the one format
//! a compressor's output is written in.
//!
//! ```
//! use amrviz_amr::{AmrHierarchy, Box3, BoxArray, Geometry, IntVect};
//! use amrviz_compress::{
//!     compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound, SzInterp,
//! };
//!
//! let geom = Geometry::unit(Box3::from_dims(32, 32, 32));
//! let fine = Box3::new(IntVect::new(16, 16, 16), IntVect::new(47, 47, 47));
//! let boxes = vec![BoxArray::single(geom.domain), BoxArray::single(fine)];
//! let mut hier = AmrHierarchy::new(geom, vec![2], boxes).unwrap();
//! hier.add_field_from_fn("u", |lev, iv| {
//!     let s = 0.2 / (1 << lev) as f64;
//!     (iv[0] as f64 * s).sin() + (iv[1] as f64 * s).cos() + 0.01 * iv[2] as f64
//! })
//! .unwrap();
//! let cfg = AmrCodecConfig::default();
//! let c = compress_hierarchy_field(&hier, "u", &SzInterp, ErrorBound::Rel(1e-3), &cfg).unwrap();
//! assert!(c.compressed_bytes() < c.n_values); // > 8x smaller than the f64s
//! let levels = decompress_hierarchy_field(&hier, &c, &SzInterp, &cfg).unwrap();
//! let orig = &hier.field("u").unwrap().levels;
//! for (a, b) in orig.iter().zip(&levels) {
//!     for (a, b) in a.fabs().iter().zip(b.fabs()) {
//!         let pairs = a.data().iter().zip(b.data());
//!         assert!(pairs.into_iter().all(|(x, y)| (x - y).abs() <= c.abs_eb));
//!     }
//! }
//! ```

#![warn(clippy::or_fun_call)]

pub mod amr_codec;
pub mod field;
pub mod interp;
mod lorenzo;
pub mod quantizer;
mod regression;
pub mod stats;
pub mod szlr;
pub mod wire;
pub mod zfp_like;
pub mod zmesh;

pub use amr_codec::{
    compress_hierarchy_field, decompress_hierarchy_field, decompress_hierarchy_field_into,
    decompress_hierarchy_field_streamed, AmrCodecConfig, CompressedHierarchyField, DecodePolicy,
    DecodeReport, FabStatus, RepairKind,
};
pub use amrviz_codec::DecodeBudget;
pub use field::{Field3View, FieldMut};
pub use interp::SzInterp;
pub use stats::CompressionStats;
pub use szlr::{PredictorMode, SzLr};
pub use zfp_like::ZfpLike;
pub use zmesh::{compress_zmesh, decompress_zmesh};

use wire::{ByteReader, ByteWriter, SideSymbols};

/// User-facing error-bound specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|x − x̂| ≤ v`.
    Abs(f64),
    /// Value-range-relative bound: `|x − x̂| ≤ v · (max − min)`, the mode
    /// the paper sweeps (1e-4 … 1e-2).
    Rel(f64),
}

impl ErrorBound {
    /// The absolute bound a stream is encoded with. `range` is only called
    /// for a relative bound — an absolute one never scans the data. A
    /// degenerate (zero) bound gets a tiny positive stand-in so the
    /// quantizer is well-defined (constant fields then encode as all-zero
    /// residuals).
    pub fn resolve(self, range: impl FnOnce() -> f64) -> f64 {
        let eb = match self {
            ErrorBound::Abs(v) => v,
            ErrorBound::Rel(v) => v * range(),
        };
        if eb > 0.0 {
            eb
        } else {
            1e-300
        }
    }
}

/// Errors produced by compression (an unusable error bound), by
/// decompression, and by checking what it returned.
#[derive(Debug)]
pub enum CompressError {
    /// Stream failed structural validation.
    Malformed(String),
    /// Underlying entropy-codec failure.
    Codec(amrviz_codec::CodecError),
    /// A chunk of fabs failed checksum or decode under
    /// [`amr_codec::DecodePolicy::Strict`]; names the offending position.
    FabDecode {
        /// Hierarchy level of the failing chunk.
        level: usize,
        /// Index within the level of the chunk's first fab.
        fab: usize,
        /// What went wrong with that chunk.
        source: Box<CompressError>,
    },
    /// A reconstruction decoded cleanly but strays further from the
    /// original than the bound it was compressed under.
    BoundViolated {
        /// Largest absolute pointwise error found.
        max_abs_error: f64,
        /// The absolute bound the stream promised.
        abs_eb: f64,
    },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Malformed(m) => write!(f, "malformed compressed stream: {m}"),
            CompressError::Codec(e) => write!(f, "codec error: {e}"),
            CompressError::FabDecode { level, fab, source } => {
                write!(f, "fab decode failed at level {level}, fab {fab}: {source}")
            }
            CompressError::BoundViolated {
                max_abs_error,
                abs_eb,
            } => write!(
                f,
                "error bound violated: max error {max_abs_error:e} over the bound {abs_eb:e}"
            ),
        }
    }
}

impl CompressError {
    /// Maps this failure onto the codec taxonomy so callers (serve, torture)
    /// can decide retryable-vs-fatal without string matching: `"corrupt"`,
    /// `"truncated"`, or `"budget"`. Structural failures above the codec
    /// layer are corruption; a `FabDecode` has the class of the error it
    /// wraps.
    pub fn class(&self) -> &'static str {
        match self {
            CompressError::Malformed(_) | CompressError::BoundViolated { .. } => "corrupt",
            CompressError::Codec(e) => e.class(),
            CompressError::FabDecode { source, .. } => source.class(),
        }
    }

    /// True when the failure is the cooperative-deadline breach — the one
    /// class a client may retry with a larger budget.
    pub fn is_deadline(&self) -> bool {
        match self {
            CompressError::Codec(e) => e.is_deadline(),
            CompressError::FabDecode { source, .. } => source.is_deadline(),
            CompressError::Malformed(_) | CompressError::BoundViolated { .. } => false,
        }
    }
}

impl std::error::Error for CompressError {}

impl From<amrviz_codec::CodecError> for CompressError {
    fn from(e: amrviz_codec::CodecError) -> Self {
        CompressError::Codec(e)
    }
}

/// A lossy, error-bounded compressor for 3D scalar fields, split where AMRIC
/// splits it: the *model* half — predict and quantize one piece into model
/// sections plus a symbol stream (and, for SZ-L/R, a side stream) — is each
/// compressor's own; the *entropy* half — one Huffman + LZSS coded section
/// over the symbols of many pieces, one over their side symbols — is shared
/// (`wire::write_pieces` / `wire::read_pieces`).
///
/// A compressor implements the model half; the AMR container
/// ([`amr_codec`]) puts the pieces of a chunk of fabs under one coded
/// section, and is the only way pieces are written or read.
pub trait Compressor: Sync {
    /// Short identifier used in reports ("SZ-L/R", "SZ-Itp", …).
    fn name(&self) -> &'static str;

    /// The compressor's wire tag: its magic byte, with every parameter its
    /// decoder needs above it. It names the compressor in the container
    /// header, so no decoder reads another compressor's pieces.
    fn tag(&self) -> u64;

    /// How many symbols a piece of `dims` cells puts on the entropy stream.
    fn symbol_count(&self, dims: [usize; 3]) -> usize;

    /// The most side symbols a piece of `dims` cells may put on the chunk's
    /// side stream; none unless the compressor has a side stream.
    fn side_capacity(&self, _dims: [usize; 3]) -> usize {
        0
    }

    /// Predicts and quantizes `field` under the absolute bound `eb`: appends
    /// the piece's model — everything its decoder reads besides the symbols —
    /// to `model`, its [`Compressor::symbol_count`] symbols to `symbols`, and
    /// whatever side symbols its model calls for to `side`.
    fn encode_piece(
        &self,
        field: Field3View<'_>,
        eb: f64,
        model: &mut ByteWriter,
        symbols: &mut Vec<u32>,
        side: &mut Vec<u32>,
    );

    /// Inverse of [`Compressor::encode_piece`]: reads one piece's model off
    /// `model` and its side symbols off `side`, and reconstructs its `dims`
    /// cells into `out` (resized and overwritten) from `symbols`, which holds
    /// exactly the piece's [`Compressor::symbol_count`]. Every section is
    /// checked before any cell is written.
    fn decode_piece(
        &self,
        dims: [usize; 3],
        eb: f64,
        model: &mut ByteReader<'_>,
        symbols: &[u32],
        side: &mut SideSymbols<'_>,
        out: &mut Vec<f64>,
    ) -> Result<(), CompressError>;
}

/// `eb` if it is a bound a quantizer can work with (finite, positive).
pub(crate) fn checked_eb(eb: f64) -> Result<f64, CompressError> {
    match eb > 0.0 && eb.is_finite() {
        true => Ok(eb),
        false => Err(CompressError::Malformed(format!("bad error bound {eb:e}"))),
    }
}

/// The algorithm names `--algo` takes and serve artifacts record, one per
/// compressor.
pub const ALGORITHMS: [&str; 3] = ["szlr", "szinterp", "zfp"];

/// The compressor behind an algorithm name, one of [`ALGORITHMS`].
pub fn compressor_by_name(name: &str) -> Option<Box<dyn Compressor>> {
    match name {
        "szlr" => Some(Box::new(SzLr::default())),
        "szinterp" => Some(Box::new(SzInterp)),
        "zfp" => Some(Box::new(ZfpLike)),
        _ => None,
    }
}

/// The compressor a container header names by its [`Compressor::tag`].
pub fn compressor_by_tag(tag: u64) -> Option<Box<dyn Compressor>> {
    ALGORITHMS
        .into_iter()
        .filter_map(compressor_by_name)
        .find(|comp| comp.tag() == tag)
}

/// The unit tests' way in and out of a compressor — one piece through the
/// shared entropy stage, the body of a one-piece chunk — and the inputs
/// shared by the tests that hold each compressor's row kernels to the
/// per-cell loops they replaced.
#[cfg(test)]
pub(crate) mod test_support {
    use crate::wire::{read_pieces, write_pieces, ByteReader};
    use crate::{CompressError, Compressor, DecodeBudget, ErrorBound, Field3View};

    /// `f(i, j, k)` over `dims`, x-fastest.
    pub(crate) fn from_fn(
        dims: [usize; 3],
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Vec<f64> {
        let [nx, ny, nz] = dims;
        (0..nx * ny * nz)
            .map(|n| f(n % nx, n / nx % ny, n / (nx * ny)))
            .collect()
    }

    /// `data` (of `dims`) under `bound` as the body of a one-piece chunk —
    /// [`write_pieces`] over [`Compressor::encode_piece`] — and the absolute
    /// bound it was encoded with.
    pub(crate) fn encode(
        comp: &dyn Compressor,
        dims: [usize; 3],
        data: &[f64],
        bound: ErrorBound,
    ) -> (Vec<u8>, f64) {
        let field = Field3View::new(dims, data);
        let eb = bound.resolve(|| field.range());
        let mut body = Vec::new();
        write_pieces(&mut body, |model, symbols, side| {
            comp.encode_piece(field, eb, model, symbols, side)
        });
        (body, eb)
    }

    /// Inverse of [`encode`] under `budget`, into `out`: [`read_pieces`]
    /// over [`Compressor::decode_piece`].
    pub(crate) fn decode_into(
        comp: &dyn Compressor,
        (dims, eb): ([usize; 3], f64),
        body: &[u8],
        budget: &DecodeBudget,
        out: &mut Vec<f64>,
    ) -> Result<(), CompressError> {
        let reader = ByteReader::with_budget(body, *budget);
        let piece = [comp.symbol_count(dims), comp.side_capacity(dims)];
        read_pieces(reader, [piece].into_iter(), |_, model, symbols, side| {
            comp.decode_piece(dims, eb, model, symbols, side, out)
        })
    }

    /// [`decode_into`] a fresh buffer under the default budget.
    pub(crate) fn decode(
        comp: &dyn Compressor,
        piece: ([usize; 3], f64),
        body: &[u8],
    ) -> Result<Vec<f64>, CompressError> {
        let mut out = Vec::new();
        decode_into(comp, piece, body, &DecodeBudget::default(), &mut out).map(|()| out)
    }

    /// Oracle inputs: every dims in 1..=14 per axis is reachable (partial
    /// blocks, thin and degenerate axes, 1×1×1), smooth or rough data,
    /// sometimes with exact zeros of both signs and NaN or ±Inf cells, and
    /// a bound from 1e-6 to 1e-1 of the range or an outlier-forcing
    /// absolute one.
    ///
    /// A field gets NaN cells or ±Inf cells, not both: a block holding both
    /// mixes the field's NaN with the default NaN of `∞ − ∞`, and which
    /// payload survives the addition of two NaNs is the compiler's operand
    /// order — the sign bit of a NaN regression coefficient is the one
    /// stream bit neither version pins.
    pub(crate) fn oracle_case(rng: &mut amrviz_rng::Rng) -> ([usize; 3], Vec<f64>, ErrorBound) {
        let dims = [0; 3].map(|_| rng.range_usize(1, 14));
        let rough = rng.range_f64(0.0, 0.5);
        let special = rng.chance(0.3);
        let specials = match rng.chance(0.5) {
            true => [f64::NAN, f64::NAN, 0.0, -0.0],
            false => [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0],
        };
        let mut cells = rng.fork(1);
        let f = from_fn(dims, |i, j, k| {
            if special && cells.chance(0.02) {
                return specials[cells.below(4) as usize];
            }
            (i as f64 * 0.3).sin() * (j as f64 * 0.2).cos()
                + 0.05 * k as f64
                + cells.range_f64(-rough, rough)
        });
        // (A relative bound on a field holding ±Inf is infinite, which the
        // quantizer refuses by contract.)
        let rel = 10f64.powf(rng.range_f64(-6.0, -1.0));
        let bound = match rng.below(4) {
            0 => ErrorBound::Abs(1e-9),
            _ if special => ErrorBound::Abs(rel * 2.0),
            _ => ErrorBound::Rel(rel),
        };
        (dims, f, bound)
    }

    /// The exact bits of a field, so `-0.0 ≠ 0.0` and `NaN = NaN`.
    pub(crate) fn bits(f: &[f64]) -> Vec<u64> {
        f.iter().map(|v| v.to_bits()).collect()
    }

    /// Decodes into a buffer that already has the right length and is full
    /// of garbage — a fab decoded in place. Decoders do not zero such a
    /// buffer first, so every cell must be written.
    pub(crate) fn decode_in_place(
        comp: &dyn Compressor,
        (dims, eb): ([usize; 3], f64),
        body: &[u8],
    ) -> Vec<f64> {
        let mut out = vec![f64::from_bits(0xDEAD_BEEF_DEAD_BEEF); dims.iter().product()];
        let budget = DecodeBudget::default();
        decode_into(comp, (dims, eb), body, &budget, &mut out).unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bound_resolution() {
        assert_eq!(ErrorBound::Rel(1e-2).resolve(|| 100.0), 1.0);
        assert_eq!(ErrorBound::Rel(1e-2).resolve(|| 0.0), 1e-300);
        // An absolute bound never looks at the data.
        assert_eq!(ErrorBound::Abs(0.5).resolve(|| unreachable!()), 0.5);
        assert_eq!(ErrorBound::Abs(0.0).resolve(|| unreachable!()), 1e-300);
    }

    #[test]
    fn fab_decode_keeps_the_class_of_the_error_it_wraps() {
        use amrviz_codec::CodecError;
        let wrap = |source: CompressError| CompressError::FabDecode {
            level: 1,
            fab: 2,
            source: Box::new(source),
        };
        for (source, class, deadline) in [
            (CodecError::deadline(), "budget", true),
            (CodecError::BudgetExceeded("too big"), "budget", false),
            (CodecError::Truncated, "truncated", false),
            (CodecError::Corrupt("bad header"), "corrupt", false),
        ] {
            let e = wrap(source.into());
            assert_eq!((e.class(), e.is_deadline()), (class, deadline), "{e}");
        }
        let e = wrap(CompressError::Malformed("blob checksum mismatch".into()));
        assert_eq!((e.class(), e.is_deadline()), ("corrupt", false));
        assert_eq!(
            e.to_string(),
            "fab decode failed at level 1, fab 2: malformed compressed stream: \
             blob checksum mismatch"
        );
    }
}
