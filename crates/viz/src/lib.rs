//! AMR isosurface visualization.
//!
//! Implements both visualization pipelines the paper compares (§2.3–2.4,
//! §3.1), plus the quantitative surface metrics we use in place of its
//! visual figure panels:
//!
//! * [`mesh`] — indexed triangle meshes: areas, normals and boundary-edge
//!   extraction;
//! * [`marching`] — isosurface extraction on a sampled grid: marching cubes,
//!   its 256-case table generated at compile time from a per-face rule (see
//!   DESIGN.md for the substitution note);
//! * [`resampling`] — the **basic** method: cell→vertex re-sampling per
//!   level then marching; exhibits cracks between AMR levels;
//! * [`dual`] — the **advanced** method: dual grids connecting cell centers,
//!   optionally extended one coarse ring into the fine region using the
//!   redundant coarse data ("switching cells"), which closes the gaps;
//! * [`pipeline`] — method selection and whole-hierarchy extraction;
//! * [`crack`] — crack/gap quantification at level interfaces;
//! * [`surface_compare`] — mesh↔mesh distance and normal-roughness metrics
//!   (our quantitative stand-in for Figures 9–11);
//! * [`obj`] — OBJ export for eyeballing results in external viewers.
//!
//! ```
//! use amrviz_viz::{marching_cubes, SampledGrid};
//!
//! // A sphere of radius 0.3 in the unit cube.
//! let grid = SampledGrid::from_fn([17, 17, 17], [0.0; 3], [1.0 / 16.0; 3], |x, y, z| {
//!     0.3 - ((x - 0.5f64).powi(2) + (y - 0.5).powi(2) + (z - 0.5).powi(2)).sqrt()
//! });
//! let mesh = marching_cubes(&grid, 0.0);
//! assert!(mesh.is_watertight());
//! let exact = 4.0 * std::f64::consts::PI * 0.3 * 0.3;
//! assert!((mesh.total_area() - exact).abs() / exact < 0.1);
//! ```

pub mod crack;
pub mod dual;
pub mod marching;
pub mod mesh;
pub mod obj;
pub mod pipeline;
pub mod resampling;
pub mod surface_compare;

pub use crack::{interface_gap, CrackMetrics};
pub use dual::{extract_dual_level, DualMode};
pub use marching::{marching_cubes, SampledGrid};
pub use mesh::TriMesh;
pub use pipeline::{extract_amr_isosurface, AmrIsoResult, IsoMethod};
pub use resampling::extract_resampled_level;
pub use surface_compare::{normal_roughness, surface_distance_to, SurfaceDistance, TriLocator};
