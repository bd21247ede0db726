//! Block-structured (patch-based) adaptive mesh refinement substrate.
//!
//! This crate reimplements, from scratch and in safe Rust, the subset of the
//! AMReX data model that the paper's evaluation depends on:
//!
//! * integer index space: [`IntVect`], cell-centered index [`Box3`]es and
//!   [`BoxArray`]s (`ivec`, `boxes`, `box_array`);
//! * data containers: a [`Fab`] is a dense field on one box, a [`MultiFab`]
//!   is a field over a whole box array (`fab`, `multifab`);
//! * a [`Geometry`] mapping index space to physical space (`geometry`);
//! * coarse↔fine transfer operators (`interp`);
//! * rasterized coverage masks for level interiors/interfaces (`mask`);
//! * tagging + Berger–Rigoutsos box clustering for regridding (`regrid`);
//! * a multi-level [`AmrHierarchy`] with per-level fields, and
//!   [`check_structure`], the one structure check for hierarchies read
//!   from outside input (`hierarchy`);
//! * merging a hierarchy to a single uniform-resolution grid, omitting the
//!   redundant coarse data exactly as the paper's §2.2 describes
//!   (`resample`);
//! * a simple on-disk plotfile format (`plotfile`).
//!
//! Patch-based semantics follow AMReX: every level covers its boxes fully,
//! and coarse levels *retain* data underneath finer levels (the "redundant"
//! coarse data). Downstream crates decide whether to use or omit that
//! redundancy (compression may skip it; the dual-cell visualization method
//! uses it to bridge gaps between levels).

pub mod box_array;
pub mod boxes;
pub mod error;
pub mod fab;
pub mod geometry;
pub mod hierarchy;
pub mod interp;
pub mod ivec;
pub mod mask;
pub mod multifab;
pub mod plotfile;
pub mod regrid;
pub mod resample;

pub use box_array::BoxArray;
pub use boxes::Box3;
pub use error::AmrError;
pub use fab::Fab;
pub use geometry::Geometry;
pub use hierarchy::{check_structure, AmrField, AmrHierarchy};
pub use interp::{
    prolong_piecewise_constant, prolong_trilinear, restrict_average, restrict_within,
};
pub use ivec::IntVect;
pub use mask::Raster;
pub use multifab::{rasterize_into, MultiFab};
pub use regrid::{berger_rigoutsos, RegridConfig};
pub use resample::{
    flatten_levels_to_finest, flatten_to_finest, upsample_dense_owned, UniformField, Upsample,
};
