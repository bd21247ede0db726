//! Bit pin for the decode paths that average a fine level down onto the
//! coarse cells it covers: `restore_redundant` after a skip-redundant
//! decode, and both branches of the `Degrade` repair (prolongation for a
//! fine chunk, restriction for a coarse one). A refactor of the copies and
//! restrictions they run must leave every decoded bit unchanged.

use amrviz_amr::{AmrHierarchy, Box3, BoxArray, Geometry, IntVect, MultiFab};
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field_into, AmrCodecConfig, DecodeBudget,
    DecodePolicy, ErrorBound, FabStatus, SzInterp,
};
use amrviz_rng::fnv1a_64;

/// Two coarse chunks and three fine ones: a 32×32×128 coarse domain in four
/// 32³ fabs, under an aligned fine slab in four 32³ fabs plus one
/// unaligned fine box and one degenerate one-cell-thick box, which hold the
/// full set of children of few or no coarse cells.
fn hier() -> AmrHierarchy {
    let b = |lo: [i64; 3], hi: [i64; 3]| Box3::new(IntVect(lo), IntVect(hi));
    let geom = Geometry::unit(b([0, 0, 0], [31, 31, 127]));
    let fine = BoxArray::new(vec![b([16, 16, 32], [47, 47, 159])]).chop_to_max_cells(32 * 32 * 32);
    let mut boxes = fine.boxes().to_vec();
    boxes.push(b([1, 1, 201], [6, 6, 210]));
    boxes.push(b([60, 3, 3], [60, 4, 4]));
    let mut h = AmrHierarchy::new(
        geom,
        vec![2],
        vec![
            BoxArray::single(geom.domain).chop_to_max_cells(32 * 32 * 32),
            BoxArray::new(boxes),
        ],
    )
    .unwrap();
    h.add_field_from_fn("rho", |lev, iv| {
        let s = if lev == 0 { 1.0 } else { 0.5 };
        let [x, y, z] = [iv[0] as f64 * s, iv[1] as f64 * s, iv[2] as f64 * s];
        (x * 0.3).sin() * 10.0 + (y * 0.2).cos() * 5.0 + (z * 0.07).sin() * 3.0 + x * y * 0.01
    })
    .unwrap();
    h
}

/// Decodes `rho` with `cfg` under `Degrade`, after flipping one byte in
/// each `(level, chunk)` of `corrupt`, and returns one line per level (the
/// FNV-1a of its cell bits in box order) and one per non-ok fab.
fn decode(cfg: AmrCodecConfig, corrupt: &[(usize, usize)]) -> Vec<String> {
    let h = hier();
    let mut c =
        compress_hierarchy_field(&h, "rho", &SzInterp, ErrorBound::Rel(1e-3), &cfg).unwrap();
    assert_eq!(
        c.blobs.iter().map(Vec::len).collect::<Vec<_>>(),
        [2, 3],
        "chunks per level"
    );
    for &(lev, ci) in corrupt {
        let mid = c.blobs[lev][ci].len() / 2;
        c.blobs[lev][ci][mid] ^= 0xFF;
    }
    let mut levels: Vec<MultiFab> = Vec::new();
    let report = decompress_hierarchy_field_into(
        &h,
        &c,
        &SzInterp,
        &cfg,
        DecodePolicy::Degrade,
        &DecodeBudget::default(),
        &mut levels,
    )
    .unwrap();
    let mut lines: Vec<String> = levels
        .iter()
        .enumerate()
        .map(|(lev, mf)| {
            let bytes: Vec<u8> = mf
                .to_flat()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect();
            format!("L{lev} fnv={:016x}", fnv1a_64(&bytes))
        })
        .collect();
    lines.extend(report.problems().map(|(lev, fi, status)| {
        let kind = match status {
            FabStatus::Ok => "ok".to_string(),
            FabStatus::Degraded { repair, .. } => format!("{repair:?}"),
            FabStatus::Failed { .. } => "failed".to_string(),
        };
        format!("L{lev} fab {fi} {kind}")
    }));
    lines
}

const SKIP_RESTORE: AmrCodecConfig = AmrCodecConfig {
    skip_redundant: true,
    restore_redundant: true,
};

#[test]
fn skip_restore_decode_is_pinned_to_the_bit() {
    assert_eq!(decode(SKIP_RESTORE, &[]), PINNED_CLEAN);
}

#[test]
fn skip_restore_degraded_decode_is_pinned_to_the_bit() {
    assert_eq!(
        decode(SKIP_RESTORE, &[(0, 1), (1, 0)]),
        PINNED_SKIP_DEGRADED
    );
}

#[test]
fn keep_redundant_degraded_decode_is_pinned_to_the_bit() {
    let keep = AmrCodecConfig::default();
    assert_eq!(decode(keep, &[(0, 1), (1, 0)]), PINNED_KEEP_DEGRADED);
}

const PINNED_CLEAN: [&str; 2] = ["L0 fnv=b2ba96cfd6f04c3b", "L1 fnv=b9985027baa17e60"];

const PINNED_SKIP_DEGRADED: [&str; 5] = [
    "L0 fnv=af47918502939554",
    "L1 fnv=e4f08cf5f9be2ec5",
    "L0 fab 3 failed",
    "L1 fab 0 Prolonged",
    "L1 fab 1 Prolonged",
];

const PINNED_KEEP_DEGRADED: [&str; 6] = [
    "L0 fnv=d90917ee32078ac0",
    "L1 fnv=59b758f54bcf45c1",
    "L0 fab 2 Restricted",
    "L0 fab 3 Restricted",
    "L1 fab 0 Prolonged",
    "L1 fab 1 Prolonged",
];
