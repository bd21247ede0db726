//! Scenario-recipe DSL: a tiny s-expression grammar that enumerates the
//! AMR workload space from compact recipes, in the style of Ruler's
//! `enumo` substitution grammar.
//!
//! The paper evaluates exactly two applications (Nyx, WarpX — §3.2), but
//! compression behavior swings with AMR structure: box packing,
//! refinement topology, covered-region redundancy, level count. This
//! crate makes the workload space *enumerable*: a recipe like
//!
//! ```text
//! (plug F (nyx warpx (grf -1.5) (grf -3.0))
//!   (plug T (nested slab scattered degenerate)
//!     (plug L (2 3)
//!       (scenario (family F) (topology T) (levels L)))))
//! ```
//!
//! expands — cross-product via nested [`plug`](mod@expand) substitution,
//! minus documented exclusion rules — into 32 concrete, deterministically
//! seeded [`ScenarioSpec`]s, each of which [generates](ScenarioSpec::generate)
//! a full hierarchy. Three consumers drive experiments off this surface:
//! `repro --suite enumerated`, `amrviz torture --recipes`, and the
//! recipe-sampled property tests.
//!
//! Seeding: every spec's seed is a `crates/rng` *fork stream* of the base
//! seed, keyed by the FNV-1a hash of the spec's canonical unseeded recipe
//! string — so a spec's identity, not its expansion position, decides its
//! data, and re-ordering a recipe never changes any scenario. The
//! canonical recipe string pins the resolved seed, making every spec
//! reproducible from its provenance string alone.

pub mod expand;
pub mod generate;
pub mod sexp;
pub mod spec;

pub use expand::{expand, Expansion, ENUMERATED_SUITE, PINNED_SUBSET};
pub use sexp::{parse, print_terms, Sexp};
pub use spec::{Aniso, Family, ScenarioSpec, Topology};
