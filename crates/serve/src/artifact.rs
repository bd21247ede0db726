//! The one compressed file: hierarchy structure + compressed field.
//!
//! The compressed container (`CompressedHierarchyField`) deliberately does
//! not carry the hierarchy's box structure — the decoder reconstructs the
//! piece schedule from a hierarchy it already has. A compressed file must
//! stand alone, on disk (`amrviz compress`) and in the serve store alike,
//! so an artifact bundles: the compressor algorithm name, the field name,
//! the hierarchy's time and step, the full level/box structure, and the
//! container bytes. Everything is budget-checked on decode; a corrupted
//! artifact surfaces as a typed error, never a panic or absurd allocation.

use std::ops::ControlFlow;

use amrviz_amr::{check_structure, AmrHierarchy, BoxArray, Geometry, MultiFab};
use amrviz_codec::DecodeBudget;
use amrviz_compress::wire::{ByteReader, ByteWriter};
use amrviz_compress::{
    compressor_by_name, decompress_hierarchy_field_streamed, AmrCodecConfig, CompressError,
    CompressedHierarchyField, DecodePolicy, DecodeReport, ALGORITHMS,
};

/// Artifact wire magic.
pub const ARTIFACT_MAGIC: &[u8; 4] = b"AVH1";

/// The one artifact version read and written. Version 2 added the
/// hierarchy's `time` and `step`; version 1 is refused.
pub const ARTIFACT_VERSION: u8 = 2;

/// A decoded artifact: everything needed to decompress and serve.
#[derive(Debug)]
pub struct Artifact {
    /// Compressor algorithm name (`szlr` | `szinterp` | `zfp`).
    pub algo: String,
    /// Field name, which `amrviz decompress` writes the field under (the
    /// container holds one field).
    pub field: String,
    /// Hierarchy *structure*, with its `time` and `step` (no field data
    /// attached).
    pub hier: AmrHierarchy,
    /// The compressed field itself.
    pub container: CompressedHierarchyField,
}

impl Artifact {
    /// Decodes the field onto the artifact's own hierarchy under `policy`
    /// and `budget`, into `levels`, handing each level to `sink` as soon as
    /// it is final (see [`decompress_hierarchy_field_streamed`]): the one
    /// way the program reads a compressed file back. The compressor is the
    /// one `algo` names. A container that left out the coarse cells under
    /// finer ones (`skip_redundant`) has them rebuilt from the finer
    /// levels, the paper's §2.2 rule for dual-cell visualization.
    pub fn decode_levels(
        &self,
        policy: DecodePolicy,
        budget: &DecodeBudget,
        levels: &mut Vec<MultiFab>,
        sink: impl FnMut(usize, &MultiFab, u32) -> ControlFlow<()>,
    ) -> Result<DecodeReport, CompressError> {
        let compressor = compressor_by_name(&self.algo).ok_or_else(|| unknown(&self.algo))?;
        let skip = self.container.skip_redundant;
        let cfg = AmrCodecConfig {
            skip_redundant: skip,
            restore_redundant: skip,
        };
        decompress_hierarchy_field_streamed(
            &self.hier,
            &self.container,
            compressor.as_ref(),
            &cfg,
            policy,
            budget,
            levels,
            sink,
        )
    }
}

fn unknown(algo: &str) -> CompressError {
    CompressError::Malformed(format!("unknown algorithm `{algo}`"))
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
    w.u8(ARTIFACT_VERSION);
    w.section(algo.as_bytes());
    w.section(field.as_bytes());
    w.f64(hier.time);
    w.uvarint(hier.step);
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
/// fails *here*, before any decompression is attempted. So does an
/// algorithm name that is none of [`ALGORITHMS`], once the rest has parsed.
pub fn decode_artifact(bytes: &[u8], budget: &DecodeBudget) -> Result<Artifact, CompressError> {
    let mut r = ByteReader::with_budget(bytes, *budget);
    for &expect in ARTIFACT_MAGIC {
        if r.u8()? != expect {
            return Err(CompressError::Malformed("bad artifact magic".into()));
        }
    }
    let version = r.u8()?;
    if version != ARTIFACT_VERSION {
        return Err(CompressError::Malformed(format!(
            "artifact version {version}, this build reads version {ARTIFACT_VERSION}"
        )));
    }
    let algo = String::from_utf8(r.section()?.to_vec())
        .map_err(|_| CompressError::Malformed("algo name not utf-8".into()))?;
    let field = String::from_utf8(r.section()?.to_vec())
        .map_err(|_| CompressError::Malformed("field name not utf-8".into()))?;
    let (time, step) = (r.f64()?, r.uvarint()?);
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
    let mut hier = AmrHierarchy::new(geom, ratios, box_arrays)
        .map_err(|e| CompressError::Malformed(format!("invalid artifact hierarchy: {e}")))?;
    (hier.time, hier.step) = (time, step);
    let container = CompressedHierarchyField::from_bytes_budgeted(r.section()?, budget)?;
    if r.remaining() != 0 {
        return Err(CompressError::Malformed(
            "trailing bytes after artifact".into(),
        ));
    }
    if !ALGORITHMS.contains(&algo.as_str()) {
        return Err(unknown(&algo));
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
        (h.time, h.step) = (0.375, 12);
        h
    }

    fn tiny_container() -> CompressedHierarchyField {
        let cfg = AmrCodecConfig::default();
        let (bound, szlr) = (ErrorBound::Rel(1e-3), SzLr::default());
        compress_hierarchy_field(&tiny_hierarchy(), "density", &szlr, bound, &cfg).unwrap()
    }

    #[test]
    fn artifact_roundtrips_structure_and_container() {
        let hier = tiny_hierarchy();
        let container = tiny_container();
        let bytes = encode_artifact(&hier, "density", "szlr", &container);
        let art = decode_artifact(&bytes, &DecodeBudget::strict()).unwrap();
        assert_eq!(art.algo, "szlr");
        assert_eq!(art.field, "density");
        assert_eq!(art.hier.num_levels(), 2);
        assert_eq!(art.hier.ref_ratios(), &[2]);
        assert_eq!(art.hier.box_array(1).len(), 1);
        assert_eq!((art.hier.time, art.hier.step), (0.375, 12));
        assert_eq!(
            art.container.to_bytes(),
            container.to_bytes(),
            "container survives byte-for-byte"
        );
    }

    #[test]
    fn bytes_after_the_container_are_malformed() {
        let hier = tiny_hierarchy();
        let container = tiny_container();
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
        let container = tiny_container();
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

    /// Version 1 carried no time or step; it is refused by number, before
    /// any field after the version byte is read.
    #[test]
    fn version_1_artifacts_are_refused() {
        let mut bytes = encode_artifact(&tiny_hierarchy(), "density", "szlr", &tiny_container());
        bytes[ARTIFACT_MAGIC.len()] = 1;
        match decode_artifact(&bytes, &DecodeBudget::strict()) {
            Err(CompressError::Malformed(m)) => {
                assert_eq!(m, "artifact version 1, this build reads version 2")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// A container alone has no hierarchy to decode against: what an older
    /// `amrviz compress` wrote is refused at the magic.
    #[test]
    fn bare_containers_are_refused() {
        let bytes = tiny_container().to_bytes();
        match decode_artifact(&bytes, &DecodeBudget::strict()) {
            Err(CompressError::Malformed(m)) => assert_eq!(m, "bad artifact magic"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_artifacts_fail_typed() {
        let hier = tiny_hierarchy();
        let container = tiny_container();
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
