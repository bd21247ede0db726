//! Fault-tolerant progressive serving for compressed AMR hierarchies.
//!
//! This crate turns the repo's compression pipeline into a small service:
//! a blocking-worker TCP server streams *decoded* hierarchies coarse-level
//! first — each level the moment it is final, as the fabs' own bytes —
//! over a length-prefixed binary protocol, backed by a
//! crash-consistent content-addressed blob store and an LRU cache of
//! decoded arenas. The interesting part is the failure model:
//!
//! - **Deadlines** ride the decode path itself: [`amrviz_codec::DecodeBudget`]
//!   carries an optional wall-clock deadline that the codec inner loops
//!   check cooperatively, so a slow decode is abandoned mid-loop instead of
//!   holding a worker past its budget. Near-deadline requests degrade to a
//!   coarse-only response; expired ones get a typed `Timeout`.
//! - **Backpressure** is explicit: a bounded admission queue sheds the
//!   newest connection with a typed `RetryLater` + retry-after hint.
//! - **Corruption** is typed end to end: the store quarantines blobs that
//!   fail their content hash; damaged fabs inside a parseable artifact are
//!   repaired under `DecodePolicy::Degrade` and flagged in the response
//!   header (failed checksums) or in the `LEVEL` frame and `END` status
//!   (damage only decoding finds) — a response never silently passes off
//!   damaged data as clean.
//! - The whole stack is **chaos-tested**: `amrviz-fault`'s serve torture
//!   runs a real server behind this crate's deterministic fault-injecting
//!   proxy ([`chaos`]) and asserts the contract (no panics, no
//!   post-deadline data frames, corrupt blobs degraded-or-typed, bounded
//!   peak memory).
//!
//! Module map: [`proto`] (wire protocol) · [`store`] (blob store) ·
//! [`artifact`] (self-contained blob format) · [`cache`] (decoded-arena
//! LRU) · [`server`] (worker pool) · [`client`] (measuring client) ·
//! [`chaos`] (fault proxy) · [`loadgen`] (load generator) ·
//! [`telemetry`] (request telemetry, its tail
//! exemplars and the STATS snapshot, over [`window`] rings and the [`slo`]
//! burn-rate math).

#![warn(clippy::or_fun_call)]

pub mod artifact;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod slo;
pub mod store;
pub mod telemetry;
pub mod window;

pub use amrviz_compress::compressor_by_name as compressor_for;
pub use artifact::{decode_artifact, encode_artifact, Artifact};
pub use cache::{ArenaCache, DecodedEntry};
pub use chaos::ChaosProxy;
pub use client::{exchange, ClientConfig, Exchange, Outcome};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use proto::{Op, Request, RespHeader, Status};
pub use server::{start, ServeConfig, ServerHandle, StatsSnapshot};
pub use store::{BlobStore, StoreError};
pub use telemetry::{ReqTelemetry, StageTimes, STATS_SCHEMA};
