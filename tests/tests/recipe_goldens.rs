//! Golden fingerprints for the pinned recipe subset (the 6 scenarios the
//! `enumerated-smoke` CI job runs): generated-field bytes, one compressed
//! stream, and one extracted surface per scenario. Pins the whole
//! recipe → spec → hierarchy → codec → viz chain; re-bless intended
//! changes with `BLESS=1 cargo test -p amrviz-integration-tests recipe_golden`.

use std::fmt::Write as _;

use amrviz_codec::fnv1a_64;
use amrviz_compress::{compress_hierarchy_field, AmrCodecConfig, ErrorBound, SzLr};
use amrviz_core::prelude::*;
use amrviz_integration_tests::{assert_golden, mesh_fingerprint};
use amrviz_recipe::{expand, PINNED_SUBSET};
use amrviz_viz::extract_amr_isosurface;

/// CI's `enumerated-smoke` job feeds `tests/golden/pinned_subset.recipe`
/// to `repro --suite`; it must expand to the same specs as the in-crate
/// `PINNED_SUBSET` constant the goldens below pin.
#[test]
fn pinned_subset_recipe_file_matches_the_constant() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/golden/pinned_subset.recipe"
    ))
    .expect("tests/golden/pinned_subset.recipe exists");
    let from_file = expand(&src, 42).expect("recipe file expands");
    let from_const = expand(PINNED_SUBSET, 42).expect("constant expands");
    assert_eq!(from_file.specs, from_const.specs);
}

#[test]
fn recipe_golden_pinned_subset() {
    let exp = expand(PINNED_SUBSET, 42).expect("pinned subset expands");
    assert_eq!(exp.specs.len(), 6);
    let mut out = String::new();
    for spec in exp.specs {
        let built = BuiltScenario::from_spec(spec.clone());
        let field = spec.eval_field();

        // Field-data fingerprint: every fab's raw bits, in level order.
        let mut bytes = Vec::new();
        for lev in 0..built.hierarchy.num_levels() {
            let mf = built.hierarchy.field_level(field, lev).unwrap();
            for fab in mf.fabs() {
                for v in fab.data() {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }

        let c = compress_hierarchy_field(
            &built.hierarchy,
            field,
            &SzLr::default(),
            ErrorBound::Rel(1e-3),
            &AmrCodecConfig::default(),
        )
        .expect("pinned scenario compresses");
        let stream = c.to_bytes();

        let levels = &built.hierarchy.field(field).unwrap().levels;
        let res =
            extract_amr_isosurface(&built.hierarchy, levels, built.iso, IsoMethod::Resampling);

        writeln!(
            out,
            "{} seed={} field_fnv={:016x} stream_bytes={} stream_fnv={:016x} \
             triangles={} mesh_fnv={:016x}",
            spec.label(),
            spec.seed,
            fnv1a_64(&bytes),
            stream.len(),
            fnv1a_64(&stream),
            res.total_triangles(),
            mesh_fingerprint(&res.into_combined()),
        )
        .unwrap();
    }
    assert_golden("recipe_pinned_subset.txt", &out);
}
