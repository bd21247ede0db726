//! Workload inputs, made from `--seed`.
//!
//! The field *realisation* is fixed per workload ([`REALISATION`]); the seed
//! rescales its values by a factor in `[0.5, 2)` and drives every ordering
//! (sweep cells, request keys). Re-rolling the realisation per seed was
//! measured and rejected: between Nyx realisations the compression ratio
//! moves ±20 %, R-SSIM ±15 % and the iteration time ±10 %, which would
//! force every bound to its 25 % ceiling. A rescaled field has different
//! bits everywhere but the same work: value-range-relative bounds, SSIM
//! and a quantile iso-value are all scale-covariant.

use amrviz_amr::resample::{flatten_to_finest, Upsample};
use amrviz_amr::{AmrHierarchy, UniformField};
use amrviz_core::prelude::*;
use amrviz_rng::Rng;

/// Seed of the scenario generator for realisation 0 of every workload;
/// realisation `i` uses `REALISATION + i`.
pub const REALISATION: u64 = 42;

/// One generated scenario with its evaluation context.
pub struct Input {
    pub app: Application,
    pub hier: AmrHierarchy,
    pub field: &'static str,
    /// The evaluation field merged to the finest uniform resolution.
    pub uniform: UniformField,
    /// Iso-value: the scenario's fixed quantile of `uniform`.
    pub iso: f64,
}

impl Input {
    /// Scalar values across all levels of the evaluation field.
    pub fn cells(&self) -> usize {
        self.hier.total_cells()
    }

    /// Raw size of the evaluation field in MB (10⁶ bytes of `f64`).
    pub fn raw_mb(&self) -> f64 {
        self.cells() as f64 * 8.0 / 1e6
    }
}

/// Generates realisation `index` of `app` and rescales it by the next
/// factor drawn from `rng`.
pub fn build_input(app: Application, scale: Scale, index: u64, rng: &mut Rng) -> Input {
    let spec = app.spec(scale, REALISATION + index);
    let field = spec.eval_field();
    let mut hier = spec.generate();
    let factor = rng.range_f64(0.5, 2.0);
    let levels = &mut hier
        .field_mut(field)
        .expect("scenario carries its evaluation field")
        .levels;
    for mf in levels.iter_mut() {
        mf.apply(|v| v * factor);
    }
    let uniform = flatten_to_finest(&hier, field, Upsample::PiecewiseConstant)
        .expect("scenario carries its evaluation field");
    let mut sorted = uniform.data.clone();
    let k = ((sorted.len() - 1) as f64 * spec.iso_quantile()).round() as usize;
    let (_, iso, _) = sorted.select_nth_unstable_by(k, |a, b| a.total_cmp(b));
    Input {
        app,
        hier,
        field,
        iso: *iso,
        uniform,
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_other_seed_other_bits() {
        let make = |seed| build_input(Application::Warpx, Scale::Tiny, 0, &mut Rng::seed(seed));
        let (a, b, c) = (make(7), make(7), make(8));
        assert_eq!(a.uniform, b.uniform);
        assert_eq!(a.iso.to_bits(), b.iso.to_bits());
        assert_ne!(a.uniform, c.uniform);
        // Same structure and the same relative iso position: the work is
        // the same, only the values differ.
        assert_eq!(a.cells(), c.cells());
        let rel = |i: &Input| {
            let (lo, hi) = i.uniform.min_max();
            (i.iso - lo) / (hi - lo)
        };
        assert!((rel(&a) - rel(&c)).abs() < 1e-12);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..8).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut Rng::seed(3));
        shuffle(&mut b, &mut Rng::seed(3));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<u32>>());
    }
}
