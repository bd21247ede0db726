//! Synthetic AMR application data.
//!
//! The paper evaluates on two AMReX applications whose production datasets
//! we cannot ship: the **Nyx** cosmology code and the **WarpX**
//! particle-in-cell code. This crate builds statistical stand-ins that
//! preserve the property the paper's analysis hinges on (§3.2): Nyx data is
//! *irregular and spiky*, WarpX data is *smooth*. See DESIGN.md for the
//! substitution rationale.
//!
//! * [`grf`] — Gaussian random fields with power-law spectra, synthesized
//!   spectrally with `amrviz-fft`;
//! * [`noise`] — hash-based fractal value noise (cheap deterministic
//!   perturbations);
//! * [`nyx`] — a two-level Nyx-like snapshot: log-normal baryon/dark-matter
//!   density, temperature, velocities; density-threshold refinement;
//! * [`warpx`] — a two-level WarpX-like snapshot: a laser-wakefield-style
//!   `Ez` field; pulse-following slab refinement;
//! * [`solver`] — a small time-stepping AMR advection solver with live
//!   regridding (the paper's Fig. 2 analogue);
//! * [`scale`] — laptop-to-paper problem-size presets;
//! * [`synth`] — continuous (resolution-independent) field families that
//!   the recipe grammar samples at arbitrary level counts and topologies.

pub(crate) mod build;
pub mod grf;
pub mod noise;
pub mod nyx;
pub mod scale;
pub mod solver;
pub mod synth;
pub mod warpx;

pub use build::quantile;
pub use nyx::NyxScenario;
pub use scale::Scale;
pub use solver::AmrAdvection;
pub use warpx::WarpxScenario;
