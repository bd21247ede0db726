//! A zMesh-style baseline: cross-level 1D reordering + 1D prediction
//! (Luo et al., IPDPS 2021 — the related-work baseline the paper's
//! introduction discusses).
//!
//! zMesh's idea: in patch-based AMR, a covered coarse cell and its fine
//! children describe the same physical region, so interleaving them in one
//! 1D stream puts redundant values next to each other where a 1D predictor
//! can exploit them. The cost — and the reason the paper's TAC/AMRIC line
//! of work moved on — is that flattening to 1D destroys 3D spatial
//! locality, so higher-dimensional prediction is impossible.
//!
//! Layout of the stream for a two-level hierarchy:
//! for every coarse cell in x-fastest order: the coarse value, then (if the
//! cell is covered by the fine level) its `r³` fine children. Uncovered
//! fine data does not exist; unrefined coarse cells contribute one value.
//! Residuals against a 1D first-order (previous-value) Lorenzo predictor
//! are quantized with the shared error-bounded quantizer and entropy-coded
//! by the shared coded section (`wire`).

use amrviz_amr::multifab::rasterize_into;
use amrviz_amr::{AmrHierarchy, Box3, MultiFab};
use amrviz_codec::DecodeBudget;

use crate::quantizer::{Quantized, Quantizer};
use crate::wire::{ByteReader, ByteWriter};
use crate::{checked_eb, CompressError, ErrorBound};

const MAGIC: u8 = 0xA4;

/// The interleaved 1D order, shared by encoder and decoder: every coarse
/// cell x-fastest as `(0, index)`, each covered one followed by its `r³`
/// fine children x-fastest as `(1, index)` — indices into the dense level
/// buffers over `level_domain(0)` / `level_domain(1)`.
fn walk(
    hier: &AmrHierarchy,
    mut visit: impl FnMut(usize, usize) -> Result<(), CompressError>,
) -> Result<(), CompressError> {
    let (ratio, dom1) = (hier.ratio_at(0), hier.level_domain(1));
    let covered = hier.covered_mask(0);
    for (n, cell) in hier.level_domain(0).cells().enumerate() {
        visit(0, n)?;
        if covered.get_unchecked(cell) {
            let children = Box3::single(cell).refine(ratio);
            children
                .cells()
                .try_for_each(|c| visit(1, dom1.offset(c)))?;
        }
    }
    Ok(())
}

/// Compresses one field of a **two-level** hierarchy with the zMesh-style
/// reordering. Returns the self-describing stream.
///
/// # Panics
/// Panics if the hierarchy does not have exactly two levels (the published
/// zMesh evaluation is two-level; deeper trees would nest recursively).
pub fn compress_zmesh(
    hier: &AmrHierarchy,
    field: &str,
    bound: ErrorBound,
) -> Result<Vec<u8>, CompressError> {
    assert_eq!(hier.num_levels(), 2, "zMesh baseline handles two levels");
    let f = hier
        .field(field)
        .map_err(|e| CompressError::Malformed(e.to_string()))?;
    // Dense views of both levels.
    let dense = [0, 1].map(|lev| {
        let dom = hier.level_domain(lev);
        let mut values = vec![0.0f64; dom.num_cells()];
        rasterize_into(&f.levels[lev], dom, &mut values);
        values
    });

    // Global range → absolute bound.
    let eb = bound.resolve(|| crate::amr_codec::global_range(&f.levels));
    let q = Quantizer::new(checked_eb(eb)?);

    // The interleaved 1D walk with previous-reconstruction prediction.
    let mut codes: Vec<u32> = Vec::with_capacity(dense[0].len() + dense[1].len());
    let mut outliers: Vec<f64> = Vec::new();
    let mut prev = 0.0f64;
    walk(hier, |lev, at| {
        let v = dense[lev][at];
        match q.quantize(prev, v) {
            Quantized::Code { code, recon } => {
                codes.push(code);
                prev = recon;
            }
            Quantized::Outlier => {
                codes.push(0);
                outliers.push(v);
                prev = v;
            }
        }
        Ok(())
    })?;

    let mut w = ByteWriter::new();
    w.u8(MAGIC);
    w.f64(eb);
    w.coded_section(&codes);
    w.f64_section(&outliers);
    Ok(w.finish())
}

/// Decompresses a [`compress_zmesh`] stream back onto the hierarchy's box
/// structure, with declared section lengths validated against `budget`
/// before allocation. Fine cells outside the refined region and coarse
/// cells are reconstructed; (coarse) values come back within the bound.
/// (Dense level buffers, and the symbol count the coded section must
/// declare, come from the trusted hierarchy structure, not the stream.)
pub fn decompress_zmesh(
    hier: &AmrHierarchy,
    bytes: &[u8],
    budget: &DecodeBudget,
) -> Result<Vec<MultiFab>, CompressError> {
    assert_eq!(hier.num_levels(), 2, "zMesh baseline handles two levels");
    let doms = [0, 1].map(|lev| hier.level_domain(lev));
    let mut r = ByteReader::with_budget(bytes, *budget);
    if r.u8()? != MAGIC {
        return Err(CompressError::Malformed("bad zMesh magic".into()));
    }
    let q = Quantizer::new(checked_eb(r.f64()?)?);
    let mut codes = Vec::new();
    let children = hier.covered_mask(0).count() * hier.ratio_at(0).pow(3) as usize;
    let n = doms[0].num_cells() + children;
    r.coded_section(n..=n, &mut codes)?;
    let outlier_bytes = r.section()?;
    let mut outliers = outlier_bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")));

    // The coded section holds exactly one code per walked cell.
    let mut dense = doms.map(|dom| vec![0.0f64; dom.num_cells()]);
    let (mut codes, mut prev) = (codes.into_iter(), 0.0f64);
    walk(hier, |lev, at| {
        prev = match codes.next().expect("one code per walked cell") {
            0 => outliers
                .next()
                .ok_or_else(|| CompressError::Malformed("outlier underrun".into()))?,
            code => q.reconstruct(prev, code),
        };
        dense[lev][at] = prev;
        Ok(())
    })?;

    // Scatter dense arrays back to the hierarchy's fabs.
    Ok((0..2)
        .map(|lev| MultiFab::from_dense(hier.box_array(lev), doms[lev], &dense[lev]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{BoxArray, Geometry, IntVect};

    fn hier() -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(12, 12, 12));
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::single(Box3::new(IntVect::new(8, 8, 8), IntVect::new(19, 19, 19))),
            ],
        )
        .unwrap();
        h.add_field_from_fn("u", |lev, iv| {
            let s = if lev == 0 { 0.4 } else { 0.2 };
            (iv[0] as f64 * s).sin() * 5.0 + (iv[1] as f64 * s).cos() + iv[2] as f64 * s * 0.1
        })
        .unwrap();
        h
    }

    #[test]
    fn roundtrip_within_bound() {
        let h = hier();
        let blob = compress_zmesh(&h, "u", ErrorBound::Rel(1e-3)).unwrap();
        let levels = decompress_zmesh(&h, &blob, &DecodeBudget::default()).unwrap();
        let orig = h.field("u").unwrap();
        // Manually resolve the bound the compressor used.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for mf in &orig.levels {
            let (l, hh) = mf.min_max();
            lo = lo.min(l);
            hi = hi.max(hh);
        }
        let eb = 1e-3 * (hi - lo);
        // Coarse level: every cell bounded.
        for (ofab, dfab) in orig.levels[0].fabs().iter().zip(levels[0].fabs()) {
            for (o, d) in ofab.data().iter().zip(dfab.data()) {
                assert!((o - d).abs() <= eb * (1.0 + 1e-12));
            }
        }
        // Fine level: bounded inside the refined region.
        for (ofab, dfab) in orig.levels[1].fabs().iter().zip(levels[1].fabs()) {
            for (o, d) in ofab.data().iter().zip(dfab.data()) {
                assert!((o - d).abs() <= eb * (1.0 + 1e-12));
            }
        }
    }

    #[test]
    fn compresses_redundant_hierarchies() {
        // Fine = refined copy of coarse: the interleaving makes children
        // follow their parent, so 1D prediction eats the redundancy.
        let h = hier();
        let blob = compress_zmesh(&h, "u", ErrorBound::Rel(1e-3)).unwrap();
        let n = h.total_cells();
        let ratio = (n * 8) as f64 / blob.len() as f64;
        assert!(ratio > 8.0, "zMesh ratio only {ratio:.1}");
    }

    #[test]
    fn corrupt_stream_rejected() {
        let h = hier();
        let blob = compress_zmesh(&h, "u", ErrorBound::Rel(1e-3)).unwrap();
        assert!(decompress_zmesh(&h, &blob[..4], &DecodeBudget::default()).is_err());
        let mut bad = blob.clone();
        bad[0] = 0;
        assert!(decompress_zmesh(&h, &bad, &DecodeBudget::default()).is_err());
    }

    #[test]
    fn unknown_field_is_error() {
        let h = hier();
        assert!(compress_zmesh(&h, "nope", ErrorBound::Rel(1e-3)).is_err());
    }
}
