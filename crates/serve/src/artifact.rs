//! Self-contained serving artifact: hierarchy structure + compressed field.
//!
//! The compressed container (`CompressedHierarchyField`) deliberately does
//! not carry the hierarchy's box structure — the decoder reconstructs the
//! piece schedule from a hierarchy it already has. For serving, the blob
//! must stand alone, so an artifact bundles: the compressor algorithm name,
//! the field name, the full level/box structure, and the container bytes.
//! Everything is budget-checked on decode; a corrupted artifact surfaces as
//! a typed error, never a panic or absurd allocation.

use amrviz_amr::{check_structure, AmrHierarchy, BoxArray, Geometry};
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

/// Parses and validates an artifact. The declared geometry and ratios pass
/// [`check_structure`] before any box is read, and the reconstructed
/// hierarchy passes through `AmrHierarchy::new`, which enforces structural
/// invariants (disjoint boxes, domain coverage) — so a corrupted structure
/// fails *here*, before any decompression is attempted.
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
    let n_levels = r.uvarint()?;
    // Each ratio takes at least one byte of input, so a corrupt level count
    // stops at the end of the stream, never in a count-sized allocation.
    let mut ratios = Vec::new();
    for _ in 1..n_levels {
        ratios.push(r.uvarint()? as i64);
    }
    let geom = Geometry {
        domain,
        prob_lo,
        prob_hi,
    };
    check_structure(&geom, &ratios, budget)
        .map_err(|e| CompressError::Malformed(format!("invalid artifact hierarchy: {e}")))?;
    let mut box_arrays = Vec::with_capacity(ratios.len() + 1);
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

    /// The shared structure check runs before any box or container byte is
    /// read: an inverted extent and a level domain past the budget (two
    /// ratios of 16 over an 8³ base: 2048³ cells) are malformed artifacts.
    #[test]
    fn implausible_structures_are_malformed() {
        let container = compress_hierarchy_field(
            &tiny_hierarchy(),
            "density",
            &SzLr::default(),
            ErrorBound::Rel(1e-3),
            &AmrCodecConfig::default(),
        )
        .unwrap();
        let domain = Box3::from_dims(8, 8, 8);
        let inverted = Geometry {
            domain,
            prob_lo: [0.0; 3],
            prob_hi: [1.0, -1.0, 1.0],
        };
        let flat = AmrHierarchy::new(inverted, vec![], vec![BoxArray::single(domain)]).unwrap();
        let empty = || BoxArray::new(Vec::new());
        let levels = vec![BoxArray::single(domain), empty(), empty()];
        let deep = AmrHierarchy::new(Geometry::unit(domain), vec![16, 16], levels).unwrap();
        for (hier, expect) in [
            (flat, "physical extent -1 on axis 1"),
            (deep, "level 2 index domain exceeds 4194304 cells"),
        ] {
            let bytes = encode_artifact(&hier, "density", "szlr", &container);
            match decode_artifact(&bytes, &DecodeBudget::strict()) {
                Err(CompressError::Malformed(m)) => assert!(m.ends_with(expect), "{m}"),
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
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
