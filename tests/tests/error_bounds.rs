//! The error-bound contract, checked across every compressor, both
//! applications, and adversarial fields.

#![allow(clippy::needless_range_loop)] // level-indexed loops mirror the math

use amrviz_amr::AmrHierarchy;
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, Compressor, ErrorBound,
    SzInterp, SzLr, ZfpLike,
};
use amrviz_core::prelude::*;
use amrviz_integration_tests::one_box;
use amrviz_rng::check;

fn compressors() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(SzLr::default()),
        Box::new(SzInterp),
        Box::new(ZfpLike),
    ]
}

#[test]
fn bound_holds_on_scenarios_for_all_compressors() {
    for app in Application::ALL {
        let built = BuiltScenario::from_spec(app.spec(Scale::Tiny, 17));
        let field = app.eval_field();
        for comp in compressors() {
            for rel in [1e-4, 1e-2] {
                let cfg = AmrCodecConfig::default();
                let compressed = compress_hierarchy_field(
                    &built.hierarchy,
                    field,
                    comp.as_ref(),
                    ErrorBound::Rel(rel),
                    &cfg,
                )
                .unwrap();
                let levels =
                    decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg)
                        .unwrap();
                for lev in 0..built.hierarchy.num_levels() {
                    let orig = built.hierarchy.field_level(field, lev).unwrap();
                    for (ofab, dfab) in orig.fabs().iter().zip(levels[lev].fabs()) {
                        for (o, d) in ofab.data().iter().zip(dfab.data()) {
                            assert!(
                                (o - d).abs() <= compressed.abs_eb * (1.0 + 1e-12),
                                "{} on {app:?} lev {lev}: |{o} - {d}| > {}",
                                comp.name(),
                                compressed.abs_eb
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The field `"u"` of a [`one_box`] hierarchy through `comp` inside the
/// container, every cell checked against `abs`.
fn assert_bound(h: &AmrHierarchy, comp: &dyn Compressor, bound: ErrorBound, abs: f64, what: &str) {
    let cfg = AmrCodecConfig::default();
    let c = compress_hierarchy_field(h, "u", comp, bound, &cfg).unwrap();
    let back = decompress_hierarchy_field(h, &c, comp, &cfg)
        .unwrap_or_else(|e| panic!("{} failed to decode {what}: {e}", comp.name()));
    let orig = h.field_level("u", 0).unwrap().fabs()[0].data();
    for (o, d) in orig.iter().zip(back[0].fabs()[0].data()) {
        assert!(
            (o - d).abs() <= abs * (1.0 + 1e-12),
            "{} on {what}: |{o} - {d}| > {abs}",
            comp.name()
        );
    }
}

#[test]
fn adversarial_fields_respect_bound() {
    // Constants, ramps, alternating extremes, subnormals, huge magnitudes.
    let cases: Vec<(&str, AmrHierarchy)> = vec![
        ("constant", one_box([6, 6, 6], |_, _, _| 1.0)),
        (
            "alternating",
            one_box([7, 5, 3], |i, j, k| match (i + j + k) % 2 {
                0 => 1e8,
                _ => -1e8,
            }),
        ),
        (
            "tiny_values",
            one_box([5, 5, 5], |i, _, _| 1e-300 * (i as f64 + 1.0)),
        ),
        (
            "huge_values",
            one_box([5, 5, 5], |i, j, k| {
                1e250 * ((i + 2 * j + 3 * k) as f64).sin()
            }),
        ),
        (
            "single_spike",
            one_box([9, 9, 9], |i, j, k| match (i, j, k) {
                (4, 4, 4) => 1e9,
                _ => 0.0,
            }),
        ),
    ];
    for (name, h) in &cases {
        let (lo, hi) = h.field_level("u", 0).unwrap().min_max();
        let range = hi - lo;
        for comp in compressors() {
            for bound in [
                ErrorBound::Rel(1e-3),
                ErrorBound::Abs(1e-2 * range.max(1e-9)),
            ] {
                let abs = bound.resolve(|| range);
                assert_bound(h, comp.as_ref(), bound, abs, name);
            }
        }
    }
}

#[test]
fn random_fields_respect_bound_every_compressor() {
    check(0xEB0, 12, |rng| {
        let nx = rng.range_usize(1, 9);
        let ny = rng.range_usize(1, 9);
        let nz = rng.range_usize(1, 9);
        let mut field_rng = rng.fork(1);
        let h = one_box([nx, ny, nz], |_, _, _| field_rng.range_f64(-1e4, 1e4));
        for comp in compressors() {
            assert_bound(
                &h,
                comp.as_ref(),
                ErrorBound::Abs(0.5),
                0.5,
                "a random field",
            );
        }
    });
}
