//! WarpX-like particle-in-cell snapshot generator.
//!
//! WarpX models laser-wakefield acceleration: a short laser pulse drives a
//! plasma wake; the interesting physics travels with the pulse, so the mesh
//! is refined in a slab around it (paper §3.2, Table 1: long 128×128×1024
//! box, only 8.6% refined). The paper's key property is that WarpX data is
//! **smooth** — band-limited oscillations under smooth envelopes — which is
//! exactly what a Gaussian-enveloped wave packet plus a damped sinusoidal
//! wake provides.

use amrviz_amr::{restrict_average, AmrHierarchy, Box3, Fab};

use crate::build::TwoLevelSpec;

use crate::scale::Scale;

/// Fraction of the domain refined (Table 1: 8.6 %).
const FINE_FRACTION: f64 = 0.086;

/// Pulse amplitude (field units are arbitrary, V/m-ish).
const AMPLITUDE: f64 = 1.0e9;

/// Generator configuration for the WarpX-like scenario.
#[derive(Debug, Clone)]
pub struct WarpxScenario {
    pub scale: Scale,
    pub seed: u64,
}

impl WarpxScenario {
    pub fn new(scale: Scale, seed: u64) -> Self {
        WarpxScenario { scale, seed }
    }

    /// Generates the two-level snapshot with the "Ez" field (the paper's
    /// Table 2 / Fig. 12 field).
    pub fn generate(&self) -> AmrHierarchy {
        let coarse_dims = self.scale.warpx_coarse_dims();
        let fine_dims = [coarse_dims[0] * 2, coarse_dims[1] * 2, coarse_dims[2] * 2];
        let [fx, fy, fz] = fine_dims;
        // Physical box keeps the paper's 1:8 aspect along z.
        let aspect = coarse_dims[2] as f64 / coarse_dims[0] as f64;
        let prob_hi = [1.0, 1.0, aspect];

        // Pulse/wake geometry. Oscillation scales are expressed in *fine
        // cells* so the field is well-resolved (smooth) at every preset —
        // a real PIC run always resolves the laser wavelength. Wavefronts
        // are radially curved (a focusing Gaussian beam / wake bubble), so
        // the field varies smoothly along every axis.
        let zl = prob_hi[2];
        let hz_fine = zl / fz as f64;
        let z0 = 0.62 * zl; // pulse center
        let lambda = 32.0 * hz_fine; // laser wavelength: 32 fine cells
        let sigma_z = 1.0 * lambda; // pulse length
        let lambda_p = 96.0 * hz_fine; // plasma wavelength (wake)
        let wake_decay = 200.0 * hz_fine;
        let sigma_r = 0.22; // transverse spot size
        let sr2 = sigma_r * sigma_r;

        // Smooth large-scale background: every mode spans ≥ 24 cells on
        // every axis (plasma density ripple), so it stays compressible
        // structure — never noise — at all tested error bounds.
        let bg = crate::grf::random_smooth_modes(fine_dims, 24, 32.0, self.seed);

        let hz = hz_fine;
        let hx = prob_hi[0] / fx as f64;
        let hy = prob_hi[1] / fy as f64;
        let mut ez = Vec::with_capacity(fx * fy * fz);
        let mut envelope = Vec::with_capacity(fx * fy * fz);
        for k in 0..fz {
            let z = (k as f64 + 0.5) * hz;
            let pulse_env = (-((z - z0) / sigma_z).powi(2) / 2.0).exp();
            let wake_env = if z < z0 {
                (-(z0 - z) / wake_decay).exp()
            } else {
                0.0
            };
            for j in 0..fy {
                let y = (j as f64 + 0.5) * hy - 0.5;
                for i in 0..fx {
                    let x = (i as f64 + 0.5) * hx - 0.5;
                    let r2 = x * x + y * y;
                    let radial = (-r2 / (2.0 * sr2)).exp();
                    // Radial wavefront curvature: ~0.15λ phase advance at
                    // one spot radius.
                    let zc = z + 0.15 * lambda * r2 / sr2;
                    let pulse_osc = (std::f64::consts::TAU * zc / lambda).sin();
                    let wake_osc = (std::f64::consts::TAU * (z0 - zc) / lambda_p).cos();
                    let e =
                        AMPLITUDE * radial * (pulse_env * pulse_osc + 0.35 * wake_env * wake_osc);
                    let idx = i + fx * (j + fy * k);
                    ez.push(e + 0.03 * AMPLITUDE * bg[idx]);
                    envelope.push(radial * (pulse_env + wake_env));
                }
            }
        }

        // Refinement: WarpX refines a single moving-window slab around the
        // pulse (mesh refinement follows the laser). Pick the z-window of
        // width `FINE_FRACTION·cz` with the highest total envelope.
        let [ccx, ccy, ccz] = coarse_dims;
        let coarse_domain = Box3::from_dims(ccx, ccy, ccz);
        // `envelope` lives to the end of `generate`, as `density` does in
        // `nyx.rs`: when set-up frees its large buffers decides whether later
        // iterations re-fault them.
        let envelope = Fab::from_vec(coarse_domain.refine(2), envelope);
        let coarse_env = restrict_average(&envelope, coarse_domain, 2).into_vec();
        let mut z_profile = vec![0.0f64; ccz];
        for (n, &v) in coarse_env.iter().enumerate() {
            z_profile[n / (ccx * ccy)] += v;
        }
        let blocking = 4usize;
        let width = ((FINE_FRACTION * ccz as f64).round() as usize)
            .clamp(blocking, ccz)
            .next_multiple_of(blocking)
            .min(ccz);
        let mut best = (0usize, f64::NEG_INFINITY);
        for k0 in (0..=ccz - width).step_by(blocking) {
            let s: f64 = z_profile[k0..k0 + width].iter().sum();
            if s > best.1 {
                best = (k0, s);
            }
        }
        let slab = Box3::new(
            amrviz_amr::IntVect::new(0, 0, best.0 as i64),
            amrviz_amr::IntVect::new(ccx as i64 - 1, ccy as i64 - 1, (best.0 + width) as i64 - 1),
        );

        let spec = TwoLevelSpec {
            coarse_dims,
            prob_hi,
            efficiency: 0.80,
            blocking: blocking as i64,
            // Large fabs, like a production max_grid_size: fewer per-fab
            // compression restarts.
            max_box_cells: 128 * 128 * 128,
        };
        crate::build::build_two_level_from_boxes(
            &spec,
            vec![("Ez".to_string(), ez)],
            amrviz_amr::BoxArray::single(slab),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grf::roughness;
    use crate::nyx::NyxScenario;
    use amrviz_amr::resample::{flatten_to_finest, Upsample};

    fn tiny() -> AmrHierarchy {
        WarpxScenario::new(Scale::Tiny, 42).generate()
    }

    #[test]
    fn structure_matches_table1_shape() {
        let h = tiny();
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.level_domain(0).size(), [16, 16, 128]);
        assert_eq!(h.level_domain(1).size(), [32, 32, 256]);
        assert_eq!(h.field_names(), vec!["Ez"]);
        // Elongated physical box.
        let g = h.geometry();
        assert!(g.prob_hi[2] / g.prob_hi[0] > 4.0);
    }

    #[test]
    fn fine_fraction_near_target() {
        let h = tiny();
        let f = h.level_density(1);
        assert!(
            (0.05..=0.25).contains(&f),
            "fine fraction {f} far from 0.086"
        );
    }

    #[test]
    fn refinement_follows_the_pulse() {
        let h = tiny();
        // The refined boxes should concentrate around the pulse center
        // z0 = 0.62·zl → coarse index ≈ 0.62·128 ≈ 79.
        let ba = h.box_array(1);
        let bb = ba.bounding_box().unwrap().coarsen(2);
        let (lo_k, hi_k) = (bb.lo()[2], bb.hi()[2]);
        assert!(
            lo_k >= 32 && hi_k <= 120,
            "refined slab [{lo_k}, {hi_k}] not around the pulse"
        );
        // Pulse z-range must be inside.
        assert!(
            (lo_k..=hi_k).contains(&79),
            "slab [{lo_k},{hi_k}] misses z0"
        );
    }

    #[test]
    fn ez_is_signed_and_oscillatory() {
        let h = tiny();
        let mf = h.field_level("Ez", 1).unwrap();
        let (lo, hi) = mf.min_max();
        assert!(
            lo < -0.1 * 1e9 && hi > 0.1 * 1e9,
            "no oscillation: [{lo}, {hi}]"
        );
    }

    #[test]
    fn warpx_is_smoother_than_nyx() {
        // The central contrast the paper's §3.2 sets up.
        let hw = tiny();
        let uw = flatten_to_finest(&hw, "Ez", Upsample::PiecewiseConstant).unwrap();
        let hn = NyxScenario::new(Scale::Tiny, 42).generate();
        let un = flatten_to_finest(&hn, "baryon_density", Upsample::PiecewiseConstant).unwrap();
        let rw = roughness(&uw.data, uw.dims());
        let rn = roughness(&un.data, un.dims());
        assert!(
            rn > 2.0 * rw,
            "expected Nyx ≫ WarpX roughness, got {rn} vs {rw}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WarpxScenario::new(Scale::Tiny, 5).generate();
        let b = WarpxScenario::new(Scale::Tiny, 5).generate();
        let ua = flatten_to_finest(&a, "Ez", Upsample::Trilinear).unwrap();
        let ub = flatten_to_finest(&b, "Ez", Upsample::Trilinear).unwrap();
        assert_eq!(ua.data, ub.data);
    }
}
