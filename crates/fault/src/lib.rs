//! Deterministic fault injection for the compression → visualization
//! pipeline.
//!
//! Decoders in this workspace promise: **any** byte stream either decodes
//! or returns an `Err` — no panics, no unbounded allocation, under a
//! [`amrviz_codec::DecodeBudget`]. This crate is the enforcement arm of
//! that promise:
//!
//! * [`Mutation`] / [`mutate_stream`] — seeded corruption of byte streams
//!   (bit flips, truncation, byte swaps, section duplication, varint
//!   length inflation), reproducible from a single `u64` seed;
//! * [`run_torture`] — feeds mutated streams to every public decoder
//!   (varint, bitio, huffman, LZSS, the three field compressors,
//!   zMesh, the hierarchy container, and degraded-mode hierarchy decode)
//!   and tallies outcomes. Exposed to users as `amrviz torture`.
//!
//! Everything here is `std`-only and deterministic: the same
//! (seed, iters) pair replays the exact same corruption sequence, so a
//! violation found in CI reproduces locally byte-for-byte.

pub mod mutate;
pub mod torture;

pub use mutate::{mutate_stream, Mutation};
pub use torture::{run_torture, TargetTally, TortureConfig, TortureReport};
