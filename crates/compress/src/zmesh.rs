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
//! with Huffman + LZSS.

use amrviz_amr::multifab::rasterize_into;
use amrviz_amr::{AmrHierarchy, Fab, IntVect, MultiFab};
use amrviz_codec::{
    huffman_decode_budgeted, huffman_encode, lzss_compress, lzss_decompress_budgeted, DecodeBudget,
};

use crate::quantizer::{Quantized, Quantizer};
use crate::wire::{ByteReader, ByteWriter};
use crate::{CompressError, ErrorBound};

const MAGIC: u8 = 0xA4;

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
    let ratio = hier.ratio_at(0);

    // Dense views of both levels.
    let dom0 = hier.level_domain(0);
    let dom1 = hier.level_domain(1);
    let mut coarse = vec![0.0f64; dom0.num_cells()];
    rasterize_into(&f.levels[0], dom0, &mut coarse);
    let mut fine = vec![0.0f64; dom1.num_cells()];
    rasterize_into(&f.levels[1], dom1, &mut fine);
    let covered = hier.covered_mask(0);

    // Global range → absolute bound.
    let eb = bound.resolve(|| crate::amr_codec::global_range(&f.levels));
    let q = Quantizer::new(eb);

    // The interleaved 1D walk with previous-reconstruction prediction.
    let [fnx, fny, _] = dom1.size();
    let mut codes: Vec<u32> = Vec::with_capacity(coarse.len() + fine.len());
    let mut outliers: Vec<f64> = Vec::new();
    let mut prev = 0.0f64;
    let push = |v: f64, prev: &mut f64, codes: &mut Vec<u32>, outliers: &mut Vec<f64>| match q
        .quantize(*prev, v)
    {
        Quantized::Code { code, recon } => {
            codes.push(code);
            *prev = recon;
        }
        Quantized::Outlier => {
            codes.push(0);
            outliers.push(v);
            *prev = v;
        }
    };
    for (n, cell) in dom0.cells().enumerate() {
        push(coarse[n], &mut prev, &mut codes, &mut outliers);
        if covered.get_unchecked(cell) {
            let base = cell.refine(ratio);
            for dz in 0..ratio {
                for dy in 0..ratio {
                    for dx in 0..ratio {
                        let c = base + IntVect::new(dx, dy, dz);
                        let d = c - dom1.lo();
                        push(
                            fine[d[0] as usize + fnx * (d[1] as usize + fny * d[2] as usize)],
                            &mut prev,
                            &mut codes,
                            &mut outliers,
                        );
                    }
                }
            }
        }
    }

    let mut w = ByteWriter::new();
    w.u8(MAGIC);
    w.f64(eb);
    w.section(&lzss_compress(&huffman_encode(&codes)));
    let mut ob = Vec::with_capacity(outliers.len() * 8);
    for v in &outliers {
        ob.extend_from_slice(&v.to_le_bytes());
    }
    w.section(&ob);
    Ok(w.finish())
}

/// Decompresses a [`compress_zmesh`] stream back onto the hierarchy's box
/// structure. Fine cells outside the refined region and coarse cells are
/// reconstructed; (coarse) values come back within the bound.
pub fn decompress_zmesh(hier: &AmrHierarchy, bytes: &[u8]) -> Result<Vec<MultiFab>, CompressError> {
    decompress_zmesh_budgeted(hier, bytes, &DecodeBudget::default())
}

/// [`decompress_zmesh`] with declared counts and section lengths validated
/// against `budget` before allocation. (Dense level buffers are sized by
/// the trusted hierarchy structure, not by the stream.)
pub fn decompress_zmesh_budgeted(
    hier: &AmrHierarchy,
    bytes: &[u8],
    budget: &DecodeBudget,
) -> Result<Vec<MultiFab>, CompressError> {
    assert_eq!(hier.num_levels(), 2, "zMesh baseline handles two levels");
    let mut r = ByteReader::with_budget(bytes, *budget);
    if r.u8()? != MAGIC {
        return Err(CompressError::Malformed("bad zMesh magic".into()));
    }
    let eb = r.f64()?;
    if eb.is_nan() || eb <= 0.0 {
        return Err(CompressError::Malformed("bad zMesh bound".into()));
    }
    let q = Quantizer::new(eb);
    let codes = huffman_decode_budgeted(&lzss_decompress_budgeted(r.section()?, budget)?, budget)?;
    let outlier_bytes = r.section()?;
    let mut outliers = outlier_bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")));

    let ratio = hier.ratio_at(0);
    let dom0 = hier.level_domain(0);
    let dom1 = hier.level_domain(1);
    let covered = hier.covered_mask(0);
    let mut coarse = vec![0.0f64; dom0.num_cells()];
    let [fnx, fny, _] = dom1.size();
    let mut fine = vec![0.0f64; dom1.num_cells()];

    let mut code_iter = codes.into_iter();
    let mut prev = 0.0f64;
    let mut pull = |prev: &mut f64| -> Result<f64, CompressError> {
        let code = code_iter
            .next()
            .ok_or_else(|| CompressError::Malformed("code underrun".into()))?;
        let v = if code == 0 {
            outliers
                .next()
                .ok_or_else(|| CompressError::Malformed("outlier underrun".into()))?
        } else {
            q.reconstruct(*prev, code)
        };
        *prev = v;
        Ok(v)
    };
    for (n, cell) in dom0.cells().enumerate() {
        coarse[n] = pull(&mut prev)?;
        if covered.get_unchecked(cell) {
            let base = cell.refine(ratio);
            for dz in 0..ratio {
                for dy in 0..ratio {
                    for dx in 0..ratio {
                        let c = base + IntVect::new(dx, dy, dz);
                        let d = c - dom1.lo();
                        fine[d[0] as usize + fnx * (d[1] as usize + fny * d[2] as usize)] =
                            pull(&mut prev)?;
                    }
                }
            }
        }
    }

    // Scatter dense arrays back to the hierarchy's fabs.
    let coarse_full = Fab::from_vec(dom0, coarse);
    let fine_full = Fab::from_vec(dom1, fine);
    let rebuild = |full: &Fab, ba: &amrviz_amr::BoxArray| {
        MultiFab::from_fabs(
            ba.iter()
                .map(|&bx| {
                    let mut fab = Fab::zeros(bx);
                    fab.copy_from(full);
                    fab
                })
                .collect(),
        )
    };
    Ok(vec![
        rebuild(&coarse_full, hier.box_array(0)),
        rebuild(&fine_full, hier.box_array(1)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{Box3, BoxArray, Geometry};

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
        let levels = decompress_zmesh(&h, &blob).unwrap();
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
        assert!(decompress_zmesh(&h, &blob[..4]).is_err());
        let mut bad = blob.clone();
        bad[0] = 0;
        assert!(decompress_zmesh(&h, &bad).is_err());
    }

    #[test]
    fn unknown_field_is_error() {
        let h = hier();
        assert!(compress_zmesh(&h, "nope", ErrorBound::Rel(1e-3)).is_err());
    }
}
