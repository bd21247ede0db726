//! Bit pin for the AMR advection solver (the Fig. 2 driver): the box arrays
//! and the `f64` bits of every level after a run that crosses two regrids.
//! A refactor of the solver's copies, scatters or restriction must leave
//! both unchanged.

use amrviz_amr::AmrHierarchy;
use amrviz_rng::fnv1a_64;
use amrviz_sim::solver::{AmrAdvection, FIELD};

/// One line per level: its boxes, then the FNV-1a of its cell bits in box
/// order.
fn fingerprint(h: &AmrHierarchy) -> Vec<String> {
    (0..h.num_levels())
        .map(|lev| {
            let boxes: Vec<String> = h.box_array(lev).iter().map(|b| b.to_string()).collect();
            let bytes: Vec<u8> = h
                .field_level(FIELD, lev)
                .expect("field exists")
                .to_flat()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect();
            format!("L{lev} {} fnv={:016x}", boxes.join(" "), fnv1a_64(&bytes))
        })
        .collect()
}

#[test]
fn advection_run_is_pinned_to_the_bit() {
    // Two blobs, so the fine level holds several boxes; 40³ coarse cells,
    // so the coarse level holds two.
    let blob = |p: [f64; 3], c: [f64; 3]| {
        let r2 = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2);
        (-r2 / (2.0 * 0.06f64.powi(2))).exp()
    };
    let init = |p: [f64; 3]| blob(p, [0.3, 0.3, 0.5]) + 0.7 * blob(p, [0.65, 0.7, 0.4]);
    let mut s = AmrAdvection::new(40, [1.0, 0.5, 0.25], 0.05, init);
    s.run(9);
    assert_eq!(fingerprint(s.hierarchy()), PINNED);
}

const PINNED: [&str; 2] = [
    "L0 [(0,0,0)..(19,39,39)] [(20,0,0)..(39,39,39)] fnv=8878e939e9efd81a",
    concat!(
        "L1 [(48,40,16)..(55,55,31)] [(56,40,16)..(63,55,31)] [(48,56,16)..(55,71,31)] ",
        "[(56,56,16)..(63,71,31)] [(16,8,24)..(39,39,55)] [(40,48,24)..(47,63,39)] ",
        "[(64,48,24)..(71,55,31)] [(64,56,24)..(71,63,31)] [(48,40,32)..(55,55,47)] ",
        "[(56,40,32)..(63,55,47)] [(64,48,32)..(71,55,39)] [(48,56,32)..(55,71,47)] ",
        "[(56,56,32)..(63,71,47)] [(64,56,32)..(71,63,39)] fnv=f1d5735f9d11e49d"
    ),
];
