//! A miniature time-stepping AMR application: 3D linear advection with
//! live regridding.
//!
//! This is the dynamic counterpart of the static snapshot generators — the
//! analogue of the paper's Fig. 2, where "as the universe evolves, the grid
//! structure adjusts accordingly". A scalar field is advected with a
//! constant velocity using first-order upwind differences on a two-level
//! hierarchy (no subcycling; fine boundary conditions interpolated from
//! the coarse level; fine data restricted back after each step), and the
//! fine level is re-clustered every few steps from a gradient tag.

use amrviz_amr::multifab::rasterize_into;
use amrviz_amr::regrid::tag_gradient;
use amrviz_amr::{
    berger_rigoutsos, restrict_within, AmrHierarchy, Box3, BoxArray, Fab, Geometry, IntVect,
    MultiFab, RegridConfig,
};

/// The advected field name.
pub const FIELD: &str = "u";

/// Steps between regrids.
const REGRID_EVERY: u64 = 4;

/// Two-level AMR advection solver.
pub struct AmrAdvection {
    hier: AmrHierarchy,
    velocity: [f64; 3],
    /// Gradient-magnitude threshold for tagging (in value/cell units).
    tag_threshold: f64,
    regrid_cfg: RegridConfig,
    dt: f64,
    steps: u64,
}

impl AmrAdvection {
    /// Builds the solver on an `n³`-cell unit-cube coarse grid, refining
    /// once (ratio 2). `init` is sampled at fine cell centers.
    pub fn new(
        n: usize,
        velocity: [f64; 3],
        tag_threshold: f64,
        init: impl Fn([f64; 3]) -> f64 + Sync,
    ) -> Self {
        let geom = Geometry::unit(Box3::from_dims(n, n, n));
        // Start with a trivial fine level; the first regrid sizes it.
        let mut hier = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain).chop_to_max_cells(32 * 32 * 32),
                BoxArray::default(),
            ],
        )
        .unwrap_or_else(|_| unreachable!("valid construction"));
        // An empty fine level is not allowed by `add_field` per-level
        // validation only if boxes mismatch; empty is fine.
        let coarse = MultiFab::from_fn(hier.box_array(0), |iv| init(geom.cell_center(iv, 1)));
        hier.add_field(FIELD, vec![coarse, MultiFab::from_fabs(Vec::new())])
            .expect("field matches boxes");

        let h = geom.cell_size()[0] / 2.0; // fine spacing
        let vmax = velocity
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-12);
        let dt = 0.4 * h / vmax;

        let mut solver = AmrAdvection {
            hier,
            velocity,
            tag_threshold,
            regrid_cfg: RegridConfig {
                efficiency: 0.7,
                blocking_factor: 4,
                max_box_cells: Some(32 * 32 * 32),
            },
            dt,
            steps: 0,
        };
        solver.regrid(&init);
        solver
    }

    pub fn hierarchy(&self) -> &AmrHierarchy {
        &self.hier
    }

    pub fn time(&self) -> f64 {
        self.hier.time
    }

    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Rebuilds the fine level from a gradient tag on the coarse field.
    /// `fine_init` provides values for newly-refined cells with no previous
    /// fine data (initial call) — afterwards prolongation is used.
    fn regrid(&mut self, fine_init: &(impl Fn([f64; 3]) -> f64 + Sync)) {
        let dom = self.hier.level_domain(0);
        let mut dense = vec![0.0; dom.num_cells()];
        rasterize_into(
            self.hier.field_level(FIELD, 0).expect("field exists"),
            dom,
            &mut dense,
        );
        let tags = tag_gradient(dom, &dense, self.tag_threshold);
        let cluster = berger_rigoutsos(&tags, &self.regrid_cfg);
        let fine_ba = cluster.refine(2);

        // New fine data: start from trilinear prolongation of coarse, then
        // copy any overlapping old fine data (data persistence across
        // regrids), falling back to `fine_init` only on the very first call
        // when no coarse context exists... (coarse always exists, so
        // prolongation is the actual fallback; `fine_init` sharpens the
        // initial condition at fine resolution).
        let coarse_full = Fab::from_vec(dom, dense);
        let old_fine = self.hier.field(FIELD).map(|f| f.levels[1].clone()).ok();
        let geom = *self.hier.geometry();
        let first_time = self.steps == 0;
        let fine_fabs: Vec<Fab> = fine_ba
            .iter()
            .map(|&bx| {
                let mut fab = if first_time {
                    Fab::from_fn(bx, |iv: IntVect| fine_init(geom.cell_center(iv, 2)))
                } else {
                    amrviz_amr::prolong_trilinear(&coarse_full, bx, 2)
                };
                if let Some(old) = &old_fine {
                    for ofab in old.fabs() {
                        fab.copy_from(ofab);
                    }
                }
                fab
            })
            .collect();

        let coarse_ba = self.hier.box_array(0).clone();
        let coarse_mf = self.hier.field_level(FIELD, 0).expect("field").clone();
        let mut new_hier = AmrHierarchy::new(geom, vec![2], vec![coarse_ba, fine_ba])
            .expect("regridded boxes are valid");
        new_hier.time = self.hier.time;
        new_hier.step = self.hier.step;
        new_hier
            .add_field(FIELD, vec![coarse_mf, MultiFab::from_fabs(fine_fabs)])
            .expect("rebuilt field matches boxes");
        self.hier = new_hier;
    }

    /// Advances one time step on both levels.
    pub fn step(&mut self) {
        let dt = self.dt;
        // Level 0: periodic upwind on the dense domain.
        let dom0 = self.hier.level_domain(0);
        let h0 = self.hier.geometry().cell_size();
        let mut u0 = vec![0.0; dom0.num_cells()];
        rasterize_into(
            self.hier.field_level(FIELD, 0).expect("field"),
            dom0,
            &mut u0,
        );
        let new0 = upwind_periodic(&u0, dom0.size(), h0, self.velocity, dt);

        // Level 1: dense over the fine bounding region, ghost values from
        // trilinear prolongation of the *old* coarse solution.
        let fine_mf = self.hier.field_level(FIELD, 1).expect("field").clone();
        let mut new_fine_fabs: Vec<Fab> = Vec::with_capacity(fine_mf.len());
        let h1 = self.hier.geometry().cell_size_at(2);
        let coarse_old_fab = Fab::from_vec(dom0, u0);
        for fab in fine_mf.fabs() {
            let grown = fab
                .box3()
                .grow(1)
                .intersect(&self.hier.level_domain(1))
                .expect("grown box intersects domain");
            // Ghost-filled work fab: prolong coarse, overwrite with any fine
            // data (own box and neighbors).
            let mut work = amrviz_amr::prolong_trilinear(&coarse_old_fab, grown, 2);
            for other in fine_mf.fabs() {
                work.copy_from(other);
            }
            let stepped = upwind_bounded(&work, h1, self.velocity, dt);
            // Old values first (zeroth-order hold for any cells the clipped
            // stencil could not update at the physical boundary), then the
            // stepped interior.
            let mut out = work.subfab(fab.box3());
            out.copy_from(&stepped);
            new_fine_fabs.push(out);
        }
        let new_fine = MultiFab::from_fabs(new_fine_fabs);

        // Write back, then restrict fine → coarse on covered cells.
        let mut new_coarse = MultiFab::from_dense(self.hier.box_array(0), dom0, &new0);
        restrict_within(&mut new_coarse, &new_fine, 2, dom0);
        let field = self.hier.field_mut(FIELD).expect("field exists");
        field.levels = vec![new_coarse, new_fine];

        self.steps += 1;
        self.hier.step = self.steps;
        self.hier.time += dt;
        if self.steps.is_multiple_of(REGRID_EVERY) {
            let dummy = |_: [f64; 3]| 0.0;
            self.regrid(&dummy);
        }
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

/// First-order upwind advection with periodic wrap on a dense grid.
fn upwind_periodic(u: &[f64], dims: [usize; 3], h: [f64; 3], vel: [f64; 3], dt: f64) -> Vec<f64> {
    let [nx, ny, nz] = dims;
    let idx = |i: usize, j: usize, k: usize| i + nx * (j + ny * k);
    let mut out = vec![0.0; u.len()];
    let c = [dt * vel[0] / h[0], dt * vel[1] / h[1], dt * vel[2] / h[2]];
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let here = u[idx(i, j, k)];
                let up = |axis: usize| -> f64 {
                    // Neighbor against the flow (periodic).
                    match axis {
                        0 => {
                            if vel[0] >= 0.0 {
                                u[idx((i + nx - 1) % nx, j, k)]
                            } else {
                                u[idx((i + 1) % nx, j, k)]
                            }
                        }
                        1 => {
                            if vel[1] >= 0.0 {
                                u[idx(i, (j + ny - 1) % ny, k)]
                            } else {
                                u[idx(i, (j + 1) % ny, k)]
                            }
                        }
                        _ => {
                            if vel[2] >= 0.0 {
                                u[idx(i, j, (k + nz - 1) % nz)]
                            } else {
                                u[idx(i, j, (k + 1) % nz)]
                            }
                        }
                    }
                };
                let mut v = here;
                for (axis, &ca) in c.iter().enumerate() {
                    v -= ca.abs() * (here - up(axis));
                }
                out[idx(i, j, k)] = v;
            }
        }
    }
    out
}

/// Upwind step on a ghost-padded fab; returns the updated interior (the
/// fab shrunk by one cell on every side that had ghosts).
fn upwind_bounded(work: &Fab, h: [f64; 3], vel: [f64; 3], dt: f64) -> Fab {
    let bx = work.box3();
    let interior = bx.grow(-1);
    let c = [dt * vel[0] / h[0], dt * vel[1] / h[1], dt * vel[2] / h[2]];
    Fab::from_fn(interior, |iv| {
        let here = work.get(iv);
        let mut v = here;
        for axis in 0..3 {
            let mut shift = IntVect::ZERO;
            shift[axis] = if vel[axis] >= 0.0 { -1 } else { 1 };
            v -= c[axis].abs() * (here - work.get(iv + shift));
        }
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_blob(center: [f64; 3]) -> impl Fn([f64; 3]) -> f64 {
        move |p: [f64; 3]| {
            let r2 = (p[0] - center[0]).powi(2)
                + (p[1] - center[1]).powi(2)
                + (p[2] - center[2]).powi(2);
            (-r2 / (2.0 * 0.06f64.powi(2))).exp()
        }
    }

    #[test]
    fn initial_regrid_tracks_the_blob() {
        let s = AmrAdvection::new(32, [1.0, 0.0, 0.0], 0.02, gaussian_blob([0.3, 0.5, 0.5]));
        let h = s.hierarchy();
        assert!(!h.box_array(1).is_empty(), "no refinement around the blob");
        let bb = h.box_array(1).bounding_box().unwrap().coarsen(2);
        // Blob at x=0.3 → coarse index ≈ 9.6.
        let geom = h.geometry();
        let center = geom.cell_center(
            IntVect::new(
                (bb.lo()[0] + bb.hi()[0]) / 2,
                (bb.lo()[1] + bb.hi()[1]) / 2,
                (bb.lo()[2] + bb.hi()[2]) / 2,
            ),
            1,
        );
        assert!(
            (center[0] - 0.3).abs() < 0.15,
            "refined region at {center:?}"
        );
        assert!((center[1] - 0.5).abs() < 0.15);
    }

    #[test]
    fn max_principle_holds() {
        let mut s = AmrAdvection::new(16, [1.0, 0.5, 0.25], 0.05, gaussian_blob([0.5, 0.5, 0.5]));
        s.run(10);
        for lev in 0..2 {
            let mf = s.hierarchy().field_level(FIELD, lev).unwrap();
            if mf.is_empty() {
                continue;
            }
            let (lo, hi) = mf.min_max();
            assert!(lo >= -1e-9, "undershoot at level {lev}: {lo}");
            assert!(hi <= 1.0 + 1e-9, "overshoot at level {lev}: {hi}");
        }
    }

    #[test]
    fn blob_moves_with_the_flow() {
        let mut s = AmrAdvection::new(32, [1.0, 0.0, 0.0], 0.02, gaussian_blob([0.3, 0.5, 0.5]));
        let peak_x = |s: &AmrAdvection| -> f64 {
            let dom = s.hierarchy().level_domain(0);
            let mut dense = vec![0.0; dom.num_cells()];
            rasterize_into(
                s.hierarchy().field_level(FIELD, 0).unwrap(),
                dom,
                &mut dense,
            );
            let (mut best, mut best_x) = (f64::NEG_INFINITY, 0.0);
            for (n, cell) in dom.cells().enumerate() {
                if dense[n] > best {
                    best = dense[n];
                    best_x = s.hierarchy().geometry().cell_center(cell, 1)[0];
                }
            }
            best_x
        };
        let x0 = peak_x(&s);
        s.run(20);
        let x1 = peak_x(&s);
        let expect = x0 + s.time();
        // Upwind diffuses, but the peak should track v·t to within a couple
        // of coarse cells.
        assert!(
            (x1 - expect).abs() < 3.0 / 32.0,
            "peak at {x1}, expected ≈ {expect}"
        );
    }

    #[test]
    fn regridding_follows_the_blob() {
        let mut s = AmrAdvection::new(32, [1.0, 0.0, 0.0], 0.02, gaussian_blob([0.25, 0.5, 0.5]));
        let slab_center = |s: &AmrAdvection| -> f64 {
            let bb = s.hierarchy().box_array(1).bounding_box().unwrap();
            let geom = s.hierarchy().geometry();
            geom.cell_center(IntVect::new((bb.lo()[0] + bb.hi()[0]) / 2, 0, 0), 2)[0]
        };
        let c0 = slab_center(&s);
        s.run(24); // several regrids
        let c1 = slab_center(&s);
        assert!(
            c1 > c0 + 0.05,
            "refined region did not follow the blob: {c0} → {c1}"
        );
    }

    #[test]
    fn time_and_steps_advance() {
        let mut s = AmrAdvection::new(16, [0.0, 0.0, 1.0], 0.05, gaussian_blob([0.5; 3]));
        assert_eq!(s.hierarchy().step, 0);
        s.run(5);
        assert_eq!(s.hierarchy().step, 5);
        assert!((s.time() - 5.0 * s.dt()).abs() < 1e-12);
    }
}
