//! Self-contained serving artifact: hierarchy structure + compressed field.
//!
//! The compressed container (`CompressedHierarchyField`) deliberately does
//! not carry the hierarchy's box structure — the decoder reconstructs the
//! piece schedule from a hierarchy it already has. For serving, the blob
//! must stand alone, so an artifact bundles: the compressor algorithm name,
//! the field name, the full level/box structure, and the container bytes.
//! Everything is budget-checked on decode; a corrupted artifact surfaces as
//! a typed error, never a panic or absurd allocation.

use amrviz_amr::{AmrHierarchy, BoxArray, Geometry};
use amrviz_codec::DecodeBudget;
use amrviz_compress::wire::{ByteReader, ByteWriter};
use amrviz_compress::{CompressError, CompressedHierarchyField};

/// Artifact wire magic + version.
pub const ARTIFACT_MAGIC: &[u8; 4] = b"AVH1";

/// A decoded artifact: everything needed to decompress and serve.
#[derive(Debug)]
pub struct Artifact {
    /// Compressor algorithm name (`szlr` | `szinterp` | `zfp`).
    pub algo: String,
    /// Field name (reporting only; the container holds one field).
    pub field: String,
    /// Hierarchy *structure* (no field data attached).
    pub hier: AmrHierarchy,
    /// The compressed field itself.
    pub container: CompressedHierarchyField,
}

/// Serializes an artifact from a hierarchy's structure plus an
/// already-compressed container.
pub fn encode_artifact(
    hier: &AmrHierarchy,
    field: &str,
    algo: &str,
    container: &CompressedHierarchyField,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for &b in ARTIFACT_MAGIC {
        w.u8(b);
    }
    w.u8(1); // artifact version
    w.section(algo.as_bytes());
    w.section(field.as_bytes());
    let geom = hier.geometry();
    w.box3(&geom.domain);
    for a in 0..3 {
        w.f64(geom.prob_lo[a]);
    }
    for a in 0..3 {
        w.f64(geom.prob_hi[a]);
    }
    w.uvarint(hier.num_levels() as u64);
    for &r in hier.ref_ratios() {
        w.uvarint(r as u64);
    }
    for lev in 0..hier.num_levels() {
        let ba = hier.box_array(lev);
        w.uvarint(ba.len() as u64);
        for bx in ba.iter() {
            w.box3(bx);
        }
    }
    w.section(&container.to_bytes());
    w.finish()
}

/// Parses and validates an artifact. The reconstructed hierarchy passes
/// through `AmrHierarchy::new`, which enforces structural invariants
/// (disjoint boxes, domain coverage) — so a corrupted structure fails
/// *here*, before any decompression is attempted.
pub fn decode_artifact(bytes: &[u8], budget: &DecodeBudget) -> Result<Artifact, CompressError> {
    let mut r = ByteReader::with_budget(bytes, *budget);
    for &expect in ARTIFACT_MAGIC {
        if r.u8()? != expect {
            return Err(CompressError::Malformed("bad artifact magic".into()));
        }
    }
    if r.u8()? != 1 {
        return Err(CompressError::Malformed("unknown artifact version".into()));
    }
    let algo = String::from_utf8(r.section()?.to_vec())
        .map_err(|_| CompressError::Malformed("algo name not utf-8".into()))?;
    let field = String::from_utf8(r.section()?.to_vec())
        .map_err(|_| CompressError::Malformed("field name not utf-8".into()))?;
    let domain = r.box3()?;
    let mut prob_lo = [0f64; 3];
    let mut prob_hi = [0f64; 3];
    for v in prob_lo.iter_mut() {
        *v = r.f64()?;
    }
    for v in prob_hi.iter_mut() {
        *v = r.f64()?;
    }
    for a in 0..3 {
        if prob_hi[a] <= prob_lo[a] || !prob_lo[a].is_finite() || !prob_hi[a].is_finite() {
            return Err(CompressError::Malformed(
                "degenerate physical extent in artifact".into(),
            ));
        }
    }
    let n_levels = budget
        .check_values(r.uvarint()? as usize)
        .map_err(CompressError::Codec)?;
    if n_levels == 0 || n_levels > 32 {
        return Err(CompressError::Malformed(format!(
            "implausible level count {n_levels}"
        )));
    }
    let mut ratios = Vec::with_capacity(n_levels.saturating_sub(1));
    for _ in 1..n_levels {
        let ratio = r.uvarint()?;
        if !(2..=16).contains(&ratio) {
            return Err(CompressError::Malformed(format!(
                "implausible refinement ratio {ratio}"
            )));
        }
        ratios.push(ratio as i64);
    }
    let mut box_arrays = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let nboxes = budget
            .check_values(r.uvarint()? as usize)
            .map_err(CompressError::Codec)?;
        let mut boxes = Vec::with_capacity(nboxes.min(1 << 16));
        for _ in 0..nboxes {
            boxes.push(r.box3()?);
        }
        box_arrays.push(BoxArray::new(boxes));
    }
    let geom = Geometry::new(domain, prob_lo, prob_hi);
    let hier = AmrHierarchy::new(geom, ratios, box_arrays)
        .map_err(|e| CompressError::Malformed(format!("invalid artifact hierarchy: {e}")))?;
    let container = CompressedHierarchyField::from_bytes_budgeted(r.section()?, budget)?;
    if r.remaining() != 0 {
        return Err(CompressError::Malformed(
            "trailing bytes after artifact".into(),
        ));
    }
    Ok(Artifact {
        algo,
        field,
        hier,
        container,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{Box3, IntVect};
    use amrviz_compress::{compress_hierarchy_field, AmrCodecConfig, ErrorBound, SzLr};

    fn tiny_hierarchy() -> AmrHierarchy {
        let geom = Geometry::new(Box3::from_dims(8, 8, 8), [0.0; 3], [1.0; 3]);
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::single(Box3::new(IntVect::new(2, 2, 2), IntVect::new(9, 9, 9))),
            ],
        )
        .unwrap();
        h.add_field_from_fn("density", |lev, iv| {
            (iv[0] as f64 * 0.2).sin() + 0.1 * lev as f64 + 0.01 * iv[1] as f64
        })
        .unwrap();
        h
    }

    #[test]
    fn artifact_roundtrips_structure_and_container() {
        let hier = tiny_hierarchy();
        let cfg = AmrCodecConfig::default();
        let container = compress_hierarchy_field(
            &hier,
            "density",
            &SzLr::default(),
            ErrorBound::Rel(1e-3),
            &cfg,
        )
        .unwrap();
        let bytes = encode_artifact(&hier, "density", "szlr", &container);
        let art = decode_artifact(&bytes, &DecodeBudget::strict()).unwrap();
        assert_eq!(art.algo, "szlr");
        assert_eq!(art.field, "density");
        assert_eq!(art.hier.num_levels(), 2);
        assert_eq!(art.hier.ref_ratios(), &[2]);
        assert_eq!(art.hier.box_array(1).len(), 1);
        assert_eq!(
            art.container.to_bytes(),
            container.to_bytes(),
            "container survives byte-for-byte"
        );
    }

    #[test]
    fn bytes_after_the_container_are_malformed() {
        let hier = tiny_hierarchy();
        let cfg = AmrCodecConfig::default();
        let container = compress_hierarchy_field(
            &hier,
            "density",
            &SzLr::default(),
            ErrorBound::Rel(1e-3),
            &cfg,
        )
        .unwrap();
        let mut bytes = encode_artifact(&hier, "density", "szlr", &container);
        assert!(decode_artifact(&bytes, &DecodeBudget::strict()).is_ok());
        bytes.push(0);
        let err = decode_artifact(&bytes, &DecodeBudget::strict()).unwrap_err();
        assert!(
            matches!(&err, CompressError::Malformed(m) if m.contains("trailing bytes")),
            "{err}"
        );
    }

    #[test]
    fn corrupted_artifacts_fail_typed() {
        let hier = tiny_hierarchy();
        let cfg = AmrCodecConfig::default();
        let container = compress_hierarchy_field(
            &hier,
            "density",
            &SzLr::default(),
            ErrorBound::Rel(1e-3),
            &cfg,
        )
        .unwrap();
        let bytes = encode_artifact(&hier, "density", "szlr", &container);
        // Magic corruption, truncation, and random byte damage must all be
        // typed errors, never panics.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_artifact(&bad, &DecodeBudget::strict()).is_err());
        assert!(decode_artifact(&bytes[..10], &DecodeBudget::strict()).is_err());
        for at in [6usize, 20, 40, 60] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x55;
            // Any outcome except panic is acceptable; most corruptions at
            // these offsets hit structure fields and error out.
            let _ = decode_artifact(&bad, &DecodeBudget::strict());
        }
    }
}
