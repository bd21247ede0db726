//! Nyx-like cosmology snapshot generator.
//!
//! Nyx couples compressible hydrodynamics with dark matter particles and
//! dumps six fields: baryon density, dark-matter density, temperature, and
//! three velocity components (paper §3.2). The stand-in preserves what the
//! paper's analysis depends on:
//!
//! * **density is irregular/spiky** — a log-normal transform of a rough
//!   Gaussian random field gives the strong right skew and multi-scale
//!   structure of cosmic density;
//! * **temperature correlates with density** (a power-law "equation of
//!   state" plus scatter);
//! * **velocities are smoother, signed fields** (steeper spectrum);
//! * refinement tags where density exceeds a quantile threshold (Nyx
//!   refines on over-density), tuned so the fine level holds ≈ 40.7% of the
//!   domain (Table 1).

use amrviz_amr::{restrict_average, AmrHierarchy, Box3, Fab};

use crate::build::{build_two_level, tag_top_fraction_blocks, TwoLevelSpec};
use crate::grf::{gaussian_random_field, Spectrum};
use crate::noise::fractal;
use crate::scale::Scale;

/// All six Nyx field names, in dump order.
pub const NYX_FIELDS: [&str; 6] = [
    "baryon_density",
    "dark_matter_density",
    "temperature",
    "velocity_x",
    "velocity_y",
    "velocity_z",
];

/// Fraction of the domain refined to the fine level (Table 1: 40.7 %).
const FINE_FRACTION: f64 = 0.407;

/// Log-normal width of the density field; larger = spikier.
const SIGMA: f64 = 1.3;

/// Generator configuration for the Nyx-like scenario.
#[derive(Debug, Clone)]
pub struct NyxScenario {
    pub scale: Scale,
    pub seed: u64,
    /// Which fields to generate (subset of [`NYX_FIELDS`]).
    pub fields: Vec<String>,
}

impl NyxScenario {
    /// Default configuration at the given scale: density field only (the
    /// field the paper evaluates in Table 2 / Fig. 13).
    pub fn new(scale: Scale, seed: u64) -> Self {
        NyxScenario {
            scale,
            seed,
            fields: vec!["baryon_density".to_string()],
        }
    }

    /// All six fields.
    pub fn with_all_fields(mut self) -> Self {
        self.fields = NYX_FIELDS.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Generates the two-level snapshot.
    pub fn generate(&self) -> AmrHierarchy {
        let coarse_dims = self.scale.nyx_coarse_dims();
        let fine_dims = [coarse_dims[0] * 2, coarse_dims[1] * 2, coarse_dims[2] * 2];

        // The driver field: log-normal over-density, mean-normalized. The
        // spectrum is steep enough to give coherent filaments/halos (so
        // refinement regions cluster) while the log-normal transform plus
        // the fractal multiplier below supply the small-scale spikiness.
        let g = gaussian_random_field(
            fine_dims,
            Spectrum {
                alpha: -2.2,
                k_cutoff: 1e9,
            },
            self.seed,
        );
        let mut density: Vec<f64> = g.iter().map(|&v| (SIGMA * v).exp()).collect();
        let mean = density.iter().sum::<f64>() / density.len() as f64;
        for v in &mut density {
            *v /= mean;
        }
        // Extra small-scale roughness (shock-like sharpening).
        let [fx, fy, _] = fine_dims;
        for (n, v) in density.iter_mut().enumerate() {
            let i = n % fx;
            let j = (n / fx) % fy;
            let k = n / (fx * fy);
            let r = fractal(
                self.seed ^ 0xD1CE,
                i as f64 * 0.21,
                j as f64 * 0.21,
                k as f64 * 0.21,
                3,
                0.5,
            );
            *v *= 1.0 + 0.25 * r;
        }

        let mut fields: Vec<(String, Vec<f64>)> = Vec::new();
        for name in &self.fields {
            let data = match name.as_str() {
                "baryon_density" => density.clone(),
                "dark_matter_density" => {
                    let g2 = gaussian_random_field(
                        fine_dims,
                        Spectrum::rough(),
                        self.seed ^ 0xDA12_37EE,
                    );
                    // Correlated with baryons (shared large-scale modes
                    // approximated by mixing fields).
                    let mut dm: Vec<f64> = g2
                        .iter()
                        .zip(&g)
                        .map(|(&a, &b)| (SIGMA * (0.6 * b + 0.8 * a)).exp())
                        .collect();
                    let m = dm.iter().sum::<f64>() / dm.len() as f64;
                    dm.iter_mut().for_each(|v| *v /= m);
                    dm
                }
                "temperature" => {
                    // T ∝ ρ^0.6 with log-scatter, in Kelvin-ish units.
                    let gs = gaussian_random_field(
                        fine_dims,
                        Spectrum::smooth(),
                        self.seed ^ 0x0007_E411,
                    );
                    density
                        .iter()
                        .zip(&gs)
                        .map(|(&rho, &s)| 1.0e4 * rho.powf(0.6) * (0.3 * s).exp())
                        .collect()
                }
                "velocity_x" | "velocity_y" | "velocity_z" => {
                    let axis_seed = match name.as_str() {
                        "velocity_x" => 0x11,
                        "velocity_y" => 0x22,
                        _ => 0x33,
                    };
                    let gv = gaussian_random_field(
                        fine_dims,
                        Spectrum {
                            alpha: -3.0,
                            k_cutoff: 1e9,
                        },
                        self.seed ^ axis_seed,
                    );
                    // km/s-ish scale.
                    gv.iter().map(|&v| 250.0 * v).collect()
                }
                other => panic!("unknown Nyx field: {other}"),
            };
            fields.push((name.clone(), data));
        }

        // Tag over-dense blocks so the refined fraction matches the target
        // (clustering can round coverage up slightly).
        let domain = Box3::from_dims(coarse_dims[0], coarse_dims[1], coarse_dims[2]);
        // `density` lives to the end of `generate`, as the fields do: freed
        // before the build, it left the allocator returning and re-faulting
        // ≈ 50 MB on every later `nyx_pipeline` iteration.
        let density = Fab::from_vec(domain.refine(2), density);
        let coarse_density = restrict_average(&density, domain, 2);
        let tags = tag_top_fraction_blocks(domain, coarse_density.data(), 4, FINE_FRACTION);

        let spec = TwoLevelSpec {
            coarse_dims,
            prob_hi: [1.0; 3],
            efficiency: 0.80,
            blocking: 4,
            max_box_cells: 64 * 64 * 64,
        };
        let mut hier = build_two_level(&spec, fields, &tags);
        hier.time = 0.0;
        hier.step = 0;
        hier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grf::{roughness, skewness};
    use amrviz_amr::resample::{flatten_to_finest, Upsample};

    fn tiny() -> AmrHierarchy {
        NyxScenario::new(Scale::Tiny, 42).generate()
    }

    #[test]
    fn structure_matches_table1_shape() {
        let h = tiny();
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.ref_ratios(), &[2]);
        let d0 = h.level_domain(0).size();
        assert_eq!(d0, [32, 32, 32]);
        assert_eq!(h.level_domain(1).size(), [64, 64, 64]);
        assert_eq!(h.field_names(), vec!["baryon_density"]);
    }

    #[test]
    fn fine_fraction_near_target() {
        let h = tiny();
        let fine_frac = h.level_density(1);
        assert!(
            (0.35..=0.60).contains(&fine_frac),
            "fine fraction {fine_frac} far from 0.407"
        );
        // Densities always partition the domain.
        assert!((h.level_density(0) + fine_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_is_spiky_and_positive() {
        let h = tiny();
        let u = flatten_to_finest(&h, "baryon_density", Upsample::PiecewiseConstant).unwrap();
        assert!(u.data.iter().all(|&v| v > 0.0));
        assert!(
            skewness(&u.data) > 1.0,
            "density not right-skewed: {}",
            skewness(&u.data)
        );
    }

    #[test]
    fn refinement_covers_high_density() {
        // The mean density inside the refined region should exceed the mean
        // outside (we refine on over-density).
        let h = tiny();
        let covered = h.covered_mask(0);
        let mf = h.field_level("baryon_density", 0).unwrap();
        let (mut hi, mut nhi, mut lo, mut nlo) = (0.0, 0usize, 0.0, 0usize);
        for fab in mf.fabs() {
            for (cell, v) in fab.iter() {
                if covered.get(cell) {
                    hi += v;
                    nhi += 1;
                } else {
                    lo += v;
                    nlo += 1;
                }
            }
        }
        assert!(nhi > 0 && nlo > 0);
        assert!(hi / nhi as f64 > 1.5 * (lo / nlo as f64));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = NyxScenario::new(Scale::Tiny, 7).generate();
        let b = NyxScenario::new(Scale::Tiny, 7).generate();
        let ua = flatten_to_finest(&a, "baryon_density", Upsample::Trilinear).unwrap();
        let ub = flatten_to_finest(&b, "baryon_density", Upsample::Trilinear).unwrap();
        assert_eq!(ua.data, ub.data);
    }

    #[test]
    fn all_six_fields_generate() {
        let h = NyxScenario::new(Scale::Tiny, 3)
            .with_all_fields()
            .generate();
        assert_eq!(h.field_names().len(), 6);
        // Velocities are signed; temperature positive.
        let v = h.field_level("velocity_x", 0).unwrap();
        let (lo, hi) = v.min_max();
        assert!(lo < 0.0 && hi > 0.0);
        let t = h.field_level("temperature", 0).unwrap();
        assert!(t.min_max().0 > 0.0);
    }

    #[test]
    fn nyx_density_is_rougher_than_a_smooth_field() {
        // Cross-check the key property the paper relies on.
        let h = tiny();
        let u = flatten_to_finest(&h, "baryon_density", Upsample::PiecewiseConstant).unwrap();
        let dims = u.dims();
        let r_nyx = roughness(&u.data, dims);
        let smooth = gaussian_random_field(dims, Spectrum::smooth(), 1);
        let r_smooth = roughness(&smooth, dims);
        assert!(
            r_nyx > 2.0 * r_smooth,
            "Nyx-like field not rough enough: {r_nyx} vs {r_smooth}"
        );
    }
}
