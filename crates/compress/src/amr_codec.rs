//! AMR-aware compression: applying a field compressor level-by-level to a
//! patch-based hierarchy.
//!
//! Each fab (one box of one level) is predicted and quantized on its own,
//! the way in-situ AMR compression treats AMReX data (one dataset per level,
//! paper §2.2); the entropy stage is shared the way AMRIC shares it. A
//! level's fabs are cut, in box order, into *chunks* of at least
//! [`CHUNK_CELLS`] cells, and each chunk's pieces go through one run-length
//! Huffman pass under one checksum. The chunk is the unit of fan-out and of
//! damage. A relative error bound is resolved against the *global* value
//! range across all levels so every level honors the same absolute bound.
//!
//! The paper notes that the redundant coarse data underneath fine patches
//! "is frequently not used during post-analysis and visualization … one can
//! omit this redundant data during the compression process to enhance the
//! compression ratio." [`AmrCodecConfig::skip_redundant`] implements that
//! the way TAC does: each coarse fab is decomposed into the rectangular
//! pieces *not* covered by the finer level and only those pieces are
//! encoded (the covered cells decode to zero).
//! [`AmrCodecConfig::restore_redundant`] rebuilds the omitted cells after
//! decoding by conservative restriction from the decompressed finer level —
//! which is what keeps the dual-cell visualization method (which *needs*
//! the redundant data) functional.

use amrviz_amr::{
    prolong_trilinear, rasterize_into, restrict_average, AmrHierarchy, Box3, Fab, MultiFab,
};
use amrviz_codec::{fnv1a_64, DecodeBudget};

use crate::field::Field3View;
use crate::wire::{read_pieces, write_pieces, ByteReader, ByteWriter};
use crate::{checked_eb, CompressError, Compressor, ErrorBound};
use amrviz_par::scratch;
use std::ops::{ControlFlow, Range};

/// Magic byte opening a serialized [`CompressedHierarchyField`] container.
pub const CONTAINER_MAGIC: u8 = 0xC3;

/// Container wire version: the chunked layout of
/// [`CompressedHierarchyField::to_bytes`]. It is the only version
/// [`CompressedHierarchyField::from_bytes`] accepts.
pub const CONTAINER_VERSION: u8 = 5;

/// A chunk closes once its pieces hold this many cells: enough symbols that
/// one Huffman table and its run symbols pay for themselves across many small
/// fabs, few enough that a level still fans out and a bad chunk stays a
/// local loss.
pub const CHUNK_CELLS: usize = 64 << 10;

/// Options for hierarchy compression.
#[derive(Debug, Clone, Copy, Default)]
pub struct AmrCodecConfig {
    /// Blank out redundant coarse data before compression (higher ratio;
    /// the redundant cells decode to a constant).
    pub skip_redundant: bool,
    /// After decompression, rebuild redundant coarse cells by restriction
    /// (averaging) from the decompressed finer level.
    pub restore_redundant: bool,
}

/// A compressed hierarchy field: one blob per chunk per level, the header
/// that says how they were cut, and enough metadata to report sizes and
/// verify integrity. Use [`decompress_hierarchy_field`] with the same
/// hierarchy structure, compressor and `skip_redundant` setting to decode.
#[derive(Debug, Clone)]
pub struct CompressedHierarchyField {
    /// `blobs[level][chunk]`.
    pub blobs: Vec<Vec<Vec<u8>>>,
    /// FNV-1a checksum of each blob, aligned with `blobs`. Verified before
    /// each chunk is decoded; a mismatch is a failure of the chunk's fabs.
    pub checksums: Vec<Vec<u64>>,
    /// The absolute error bound every level was encoded with.
    pub abs_eb: f64,
    /// Number of scalar values across all levels.
    pub n_values: usize,
    /// [`Compressor::tag`] of the compressor that encoded every chunk.
    pub compressor: u64,
    /// [`AmrCodecConfig::skip_redundant`] at encode time: it decides which
    /// pieces exist.
    pub skip_redundant: bool,
}

impl CompressedHierarchyField {
    /// Total compressed payload size in bytes: every byte a chunk decoder
    /// reads, model sections and coded sections alike.
    pub fn compressed_bytes(&self) -> usize {
        self.blobs
            .iter()
            .flat_map(|level| level.iter().map(Vec::len))
            .sum()
    }

    /// How many blobs no longer hash to their stored checksum — the chunks
    /// a decode will fail with "checksum mismatch", known before anything
    /// is decoded. (A checksum table of the wrong shape is the decode's
    /// structural error, not counted here.)
    pub fn checksum_failures(&self) -> usize {
        self.blobs
            .iter()
            .zip(&self.checksums)
            .flat_map(|(level, sums)| level.iter().zip(sums))
            .filter(|(blob, &sum)| fnv1a_64(blob) != sum)
            .count()
    }

    /// Serializes to the v5 container:
    ///
    /// ```text
    /// u8 CONTAINER_MAGIC (0xC3), u8 CONTAINER_VERSION (5),
    /// uvarint compressor tag, u8 skip_redundant, f64 abs_eb,
    /// uvarint n_values, uvarint n_levels,
    /// per level: uvarint n_chunks,
    ///   per chunk: u64le fnv1a checksum, uvarint len, bytes
    /// ```
    ///
    /// A chunk's bytes are its pieces' models, in piece order, as one
    /// section, then one run-length Huffman coded section over all their
    /// symbols and one over all their side symbols (SZ-L/R's plane
    /// categories; an empty side section is its length byte). Which fabs
    /// and pieces a chunk holds is recomputed from the hierarchy and the
    /// header, never stored.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(CONTAINER_MAGIC);
        w.u8(CONTAINER_VERSION);
        w.uvarint(self.compressor);
        w.u8(self.skip_redundant.into());
        w.f64(self.abs_eb);
        w.uvarint(self.n_values as u64);
        w.uvarint(self.blobs.len() as u64);
        for (level, sums) in self.blobs.iter().zip(&self.checksums) {
            w.uvarint(level.len() as u64);
            for (blob, &sum) in level.iter().zip(sums) {
                w.u64_le(sum);
                w.section(blob);
            }
        }
        w.finish()
    }

    /// Inverse of [`CompressedHierarchyField::to_bytes`], with the default
    /// (permissive) [`DecodeBudget`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CompressError> {
        Self::from_bytes_budgeted(bytes, &DecodeBudget::default())
    }

    /// Parses a serialized container, validating every declared count
    /// against `budget` and the remaining input before allocation.
    ///
    /// Only the v5 layout written by [`CompressedHierarchyField::to_bytes`]
    /// is accepted; a stream without the magic byte or with another version
    /// is `Malformed`, so the stored checksums are always the ones that were
    /// written. Parsing is structural only — a chunk with a wrong checksum
    /// is parsed fine here and surfaces later, per chunk, during decode
    /// (which is what lets [`DecodePolicy::Degrade`] repair its fabs).
    pub fn from_bytes_budgeted(bytes: &[u8], budget: &DecodeBudget) -> Result<Self, CompressError> {
        match bytes {
            [CONTAINER_MAGIC, CONTAINER_VERSION, ..] => Self::parse(bytes, budget),
            [CONTAINER_MAGIC, version, ..] => Err(CompressError::Malformed(format!(
                "unsupported container version {version} (expected {CONTAINER_VERSION})"
            ))),
            _ => Err(CompressError::Malformed(
                "missing container magic/version preamble".into(),
            )),
        }
    }

    fn parse(bytes: &[u8], budget: &DecodeBudget) -> Result<Self, CompressError> {
        let mut r = ByteReader::with_budget(bytes, *budget);
        r.u8()?; // magic
        r.u8()?; // version
        let compressor = r.uvarint()?;
        let skip_redundant = match r.u8()? {
            0 => false,
            1 => true,
            b => return Err(CompressError::Malformed(format!("skip_redundant byte {b}"))),
        };
        let abs_eb = checked_eb(r.f64()?)?;
        let n_values = budget.check_values(r.uvarint()? as usize)?;
        let nlev = r.uvarint()? as usize;
        // Each level costs at least one byte (its chunk count).
        if nlev > r.remaining() {
            return Err(CompressError::Malformed(
                "level count exceeds stream".into(),
            ));
        }
        let mut blobs = Vec::with_capacity(nlev);
        let mut checksums = Vec::with_capacity(nlev);
        for _ in 0..nlev {
            let nblob = r.uvarint()? as usize;
            // Each chunk costs at least 9 bytes (checksum + length prefix).
            if nblob > r.remaining() / 9 {
                return Err(CompressError::Malformed(
                    "chunk count exceeds stream".into(),
                ));
            }
            let mut level = Vec::with_capacity(nblob);
            let mut sums = Vec::with_capacity(nblob);
            for _ in 0..nblob {
                sums.push(r.u64_le()?);
                // Owned copy is required: blobs live in the returned
                // `CompressedHierarchyField`, which outlives `bytes`.
                level.push(r.section()?.to_vec());
            }
            blobs.push(level);
            checksums.push(sums);
        }
        if r.remaining() != 0 {
            return Err(CompressError::Malformed(
                "trailing bytes after container".into(),
            ));
        }
        Ok(CompressedHierarchyField {
            blobs,
            checksums,
            abs_eb,
            n_values,
            compressor,
            skip_redundant,
        })
    }
}

/// Compresses one named field of a hierarchy.
pub fn compress_hierarchy_field(
    hier: &AmrHierarchy,
    field: &str,
    compressor: &dyn Compressor,
    bound: ErrorBound,
    cfg: &AmrCodecConfig,
) -> Result<CompressedHierarchyField, CompressError> {
    let amr_field = hier
        .field(field)
        .map_err(|e| CompressError::Malformed(e.to_string()))?;

    // Global range across all levels → single absolute bound.
    let abs_eb = checked_eb(bound.resolve(|| global_range(&amr_field.levels)))?;

    let mut blobs: Vec<Vec<Vec<u8>>> = Vec::with_capacity(hier.num_levels());
    let mut n_values = 0usize;
    for (lev, mf) in amr_field.levels.iter().enumerate() {
        let mut sp = amrviz_obs::span!("compress.level", level = lev);
        let plan = LevelPlan::new(hier, cfg, lev);
        let level_values = mf.num_cells();
        n_values += level_values;
        // Fan the chunks across the pool; results come back in chunk order,
        // so the level's blob sequence is identical at any thread count.
        let chunks: Vec<(Vec<u8>, [usize; 2])> = amrviz_par::run(plan.chunks.len(), |ci| {
            // Per-chunk latency + blob-size distributions. The Instant pair
            // is gated so a disabled recorder costs nothing extra here.
            let t0 = amrviz_obs::is_enabled().then(std::time::Instant::now);
            // The blob itself stays a fresh `Vec`: it outlives the task as
            // part of the returned `CompressedHierarchyField`.
            let mut blob = Vec::new();
            let bytes = write_pieces(&mut blob, |model, symbols, side| {
                let mut vals = scratch::take_f64();
                for &(fi, piece) in &plan.tasks[plan.chunk_tasks(ci)] {
                    let fab = &mf.fabs()[fi];
                    // A piece that is its fab's whole box (always, unless
                    // redundant data is skipped) compresses straight off the
                    // fab; a sub-box is gathered into per-thread scratch.
                    let data = if piece == fab.box3() {
                        fab.data()
                    } else {
                        vals.resize(piece.num_cells(), 0.0);
                        fab.read_region_into(piece, &mut vals);
                        &vals
                    };
                    let field = Field3View::new(piece.size(), data);
                    compressor.encode_piece(field, abs_eb, model, symbols, side);
                }
                scratch::give_f64(vals);
            });
            if let Some(t0) = t0 {
                amrviz_obs::histogram!("compress.piece_us", t0.elapsed().as_micros());
                amrviz_obs::histogram!("compress.blob_bytes", blob.len());
                amrviz_obs::histogram!("compress.model_bytes", bytes[0]);
                amrviz_obs::histogram!("compress.side_bytes", bytes[1]);
            }
            (blob, bytes)
        });
        let level_bytes: usize = chunks.iter().map(|(blob, _)| blob.len()).sum();
        let [model_bytes, side_bytes] = chunks
            .iter()
            .fold([0, 0], |[m, s], (_, [cm, cs])| [m + cm, s + cs]);
        amrviz_obs::counter!("compress.bytes_in", level_values * 8);
        amrviz_obs::counter!("compress.bytes_out", level_bytes);
        sp.add_field("pieces", plan.tasks.len());
        sp.add_field("chunks", plan.chunks.len());
        sp.add_field("bytes_in", level_values * 8);
        sp.add_field("bytes_out", level_bytes);
        sp.add_field("model_bytes", model_bytes);
        sp.add_field("side_bytes", side_bytes);
        blobs.push(chunks.into_iter().map(|(blob, _)| blob).collect());
    }
    let checksums = blobs
        .iter()
        .map(|level| level.iter().map(|b| fnv1a_64(b)).collect())
        .collect();
    Ok(CompressedHierarchyField {
        blobs,
        checksums,
        abs_eb,
        n_values,
        compressor: compressor.tag(),
        skip_redundant: cfg.skip_redundant,
    })
}

/// Value range `max − min` over every level of a field.
pub(crate) fn global_range(levels: &[MultiFab]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for mf in levels {
        let (l, h) = mf.min_max();
        lo = lo.min(l);
        hi = hi.max(h);
    }
    hi - lo
}

/// The rectangular pieces of `bx` that get encoded: the whole box normally,
/// or (with `skip_redundant`) the parts not covered by the finer level.
/// Deterministic, so compressor and decompressor always agree.
fn encode_pieces(hier: &AmrHierarchy, lev: usize, bx: Box3, cfg: &AmrCodecConfig) -> Vec<Box3> {
    if !cfg.skip_redundant || lev + 1 >= hier.num_levels() {
        return vec![bx];
    }
    // Inward coarsening: only coarse cells whose *entire* fine-child block
    // exists may be skipped. Outward coarsening would also skip cells a
    // degenerate (unaligned 1×1×1) fine box merely touches, losing the
    // 7 uncovered children's worth of coarse data.
    let covered = hier.box_array(lev + 1).coarsen_inward(hier.ratio_at(lev));
    covered.complement_in(&bx)
}

/// The (fab, piece) schedule of one level and its cut into chunks — a pure
/// function of the hierarchy and the config, so encoder and decoder always
/// agree and no chunk table is stored. Tasks are fab-major and chunks are
/// runs of whole fabs, so each fab's pieces and each chunk's tasks occupy
/// one contiguous range.
struct LevelPlan {
    tasks: Vec<(usize, Box3)>,
    fab_tasks: Vec<Range<usize>>,
    /// The fabs of each chunk: a maximal run, in box order, closed once its
    /// pieces hold [`CHUNK_CELLS`] cells.
    chunks: Vec<Range<usize>>,
}

impl LevelPlan {
    fn new(hier: &AmrHierarchy, cfg: &AmrCodecConfig, lev: usize) -> LevelPlan {
        let ba = hier.box_array(lev);
        let (mut tasks, mut fab_tasks, mut chunks) = (Vec::new(), Vec::new(), Vec::new());
        let (mut first, mut cells) = (0, 0);
        for (fi, bx) in ba.iter().enumerate() {
            let start = tasks.len();
            for piece in encode_pieces(hier, lev, *bx, cfg) {
                cells += piece.num_cells();
                tasks.push((fi, piece));
            }
            fab_tasks.push(start..tasks.len());
            if cells >= CHUNK_CELLS || fi + 1 == ba.len() {
                chunks.push(first..fi + 1);
                (first, cells) = (fi + 1, 0);
            }
        }
        LevelPlan {
            tasks,
            fab_tasks,
            chunks,
        }
    }

    /// The task range of chunk `ci`.
    fn chunk_tasks(&self, ci: usize) -> Range<usize> {
        let fabs = &self.chunks[ci];
        self.fab_tasks[fabs.start].start..self.fab_tasks[fabs.end - 1].end
    }
}

/// How [`decompress_hierarchy_field_into`] treats a chunk that fails its
/// checksum or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePolicy {
    /// First failure aborts the decode with
    /// [`CompressError::FabDecode`] naming the level and the chunk's first
    /// fab.
    #[default]
    Strict,
    /// The failed chunk's fabs are reconstructed from neighbor levels —
    /// trilinear prolongation from the coarser level, or (at level 0)
    /// restriction from the finer level — and reported in the
    /// [`DecodeReport`]. Only fabs with no neighbor data at all stay
    /// zero-filled.
    Degrade,
}

/// How a degraded fab was reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// Trilinear prolongation from the (already repaired) coarser level.
    Prolonged,
    /// Averaging restriction from the finer level; cells without fine
    /// coverage stay zero.
    Restricted,
}

/// Decode outcome of one fab.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabStatus {
    /// Every piece of the fab decoded and verified.
    Ok,
    /// Its chunk failed, but its pieces were reconstructed from a neighbor
    /// level.
    Degraded { repair: RepairKind, cause: String },
    /// Failed and unrepairable (no neighbor level); left zero-filled.
    Failed { cause: String },
}

/// Per-fab decode outcome for one hierarchy decode.
#[derive(Debug, Clone, Default)]
pub struct DecodeReport {
    /// One entry per fab, in (level, fab index) order.
    pub fabs: Vec<(usize, usize, FabStatus)>,
}

impl DecodeReport {
    /// `(ok, degraded, failed)` fab counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for (_, _, s) in &self.fabs {
            match s {
                FabStatus::Ok => c.0 += 1,
                FabStatus::Degraded { .. } => c.1 += 1,
                FabStatus::Failed { .. } => c.2 += 1,
            }
        }
        c
    }

    /// True when every fab decoded cleanly.
    pub fn is_clean(&self) -> bool {
        let (_, d, f) = self.counts();
        d == 0 && f == 0
    }

    /// The non-ok entries, for logging.
    pub fn problems(&self) -> impl Iterator<Item = &(usize, usize, FabStatus)> {
        self.fabs.iter().filter(|(_, _, s)| *s != FabStatus::Ok)
    }
}

/// Decompresses a hierarchy field back onto the box structure of `hier`.
/// Returns one [`MultiFab`] per level. Strict policy: any bad chunk is an
/// error.
pub fn decompress_hierarchy_field(
    hier: &AmrHierarchy,
    compressed: &CompressedHierarchyField,
    compressor: &dyn Compressor,
    cfg: &AmrCodecConfig,
) -> Result<Vec<MultiFab>, CompressError> {
    let mut levels = Vec::new();
    decompress_hierarchy_field_into(
        hier,
        compressed,
        compressor,
        cfg,
        DecodePolicy::Strict,
        &DecodeBudget::default(),
        &mut levels,
    )?;
    Ok(levels)
}

/// [`decompress_hierarchy_field`] with an explicit failure policy and
/// decode budget, decoding into caller-owned level storage. Every chunk's
/// FNV-1a checksum is verified before it is decompressed; under
/// [`DecodePolicy::Degrade`], the fabs of a chunk that fails checksum or
/// decode are rebuilt from neighbor levels and the returned
/// [`DecodeReport`] says which fabs were touched and why. Structural
/// problems — wrong level/chunk counts for this hierarchy, a header naming
/// another compressor or `skip_redundant` setting — are hard errors under
/// either policy, found before anything decodes: there is nothing to
/// degrade onto.
///
/// When `levels` already has the hierarchy's box structure (e.g. from a
/// previous decode of the same hierarchy), every fab buffer is reused in
/// place — repeated decodes allocate nothing for cell data. Structure
/// mismatches rebuild the affected level. On error, `levels` may hold a
/// partially decoded state; its contents are unspecified.
#[allow(clippy::too_many_arguments)]
pub fn decompress_hierarchy_field_into(
    hier: &AmrHierarchy,
    compressed: &CompressedHierarchyField,
    compressor: &dyn Compressor,
    cfg: &AmrCodecConfig,
    policy: DecodePolicy,
    budget: &DecodeBudget,
    levels: &mut Vec<MultiFab>,
) -> Result<DecodeReport, CompressError> {
    decompress_hierarchy_field_streamed(
        hier,
        compressed,
        compressor,
        cfg,
        policy,
        budget,
        levels,
        |_, _, _| ControlFlow::Continue(()),
    )
}

/// Failed chunks of one level: (chunk index, error), in chunk order.
type LevelFailures = Vec<(usize, CompressError)>;

/// [`decompress_hierarchy_field_into`] as one coarse → fine walk that hands
/// each level to `sink(level, data, degraded_fabs)` the moment nothing later
/// in the decode can change it — `degraded_fabs` counts the level's fabs
/// that did not decode cleanly. The sink runs on the calling thread, once
/// per level, in level order; returning [`ControlFlow::Break`] stops the
/// walk (the report then covers the levels handed over so far, and the
/// finer entries of `levels` are unspecified).
///
/// When a level is final: the header and every level's structure are
/// checked against the stream before anything decodes. Level `k ≥ 1` is
/// final once it has decoded and the fabs of its failed chunks are
/// prolonged from level `k − 1`, itself final by then. Level 0 is final as
/// soon as it has decoded cleanly; with a failed chunk it waits for level 1
/// to decode, because restriction from the *unrepaired* finer level is its
/// repair. `restore_redundant` rewrites coarse cells from finer levels, so
/// it holds every level to the end.
#[allow(clippy::too_many_arguments)]
pub fn decompress_hierarchy_field_streamed(
    hier: &AmrHierarchy,
    compressed: &CompressedHierarchyField,
    compressor: &dyn Compressor,
    cfg: &AmrCodecConfig,
    policy: DecodePolicy,
    budget: &DecodeBudget,
    levels: &mut Vec<MultiFab>,
    mut sink: impl FnMut(usize, &MultiFab, u32) -> ControlFlow<()>,
) -> Result<DecodeReport, CompressError> {
    if compressed.compressor != compressor.tag() {
        return Err(CompressError::Malformed(format!(
            "the container's chunks are compressor {:#x}'s, not {}'s ({:#x})",
            compressed.compressor,
            compressor.name(),
            compressor.tag()
        )));
    }
    if compressed.skip_redundant != cfg.skip_redundant {
        return Err(CompressError::Malformed(format!(
            "the container was encoded with skip_redundant = {}, the decode asks for {}",
            compressed.skip_redundant, cfg.skip_redundant
        )));
    }
    checked_eb(compressed.abs_eb)?;
    let nlev = hier.num_levels();
    if compressed.blobs.len() != nlev {
        return Err(CompressError::Malformed(format!(
            "{} levels in stream, hierarchy has {nlev}",
            compressed.blobs.len(),
        )));
    }
    let plans = (0..nlev)
        .map(|lev| {
            let plan = LevelPlan::new(hier, cfg, lev);
            let n_blobs = compressed.blobs[lev].len();
            if plan.chunks.len() != n_blobs {
                return Err(CompressError::Malformed(format!(
                    "level {lev}: {n_blobs} blobs for {} chunks",
                    plan.chunks.len()
                )));
            }
            if compressed.checksums.get(lev).map(Vec::len) != Some(n_blobs) {
                return Err(CompressError::Malformed(format!(
                    "level {lev}: checksum table does not match blob count"
                )));
            }
            Ok(plan)
        })
        .collect::<Result<Vec<_>, _>>()?;
    levels.truncate(nlev);

    let mut report = DecodeReport::default();
    let mut failures: Vec<LevelFailures> = (0..nlev).map(|_| Vec::new()).collect();
    // Levels below `settled` are repaired, reported and (unless held for
    // `restore_redundant`) handed to the sink.
    let mut settled = 0;
    let mut degraded = Vec::with_capacity(nlev);
    for lev in 0..nlev {
        budget.check_deadline()?;
        prepare_level(hier.box_array(lev), &plans[lev], levels, lev);
        failures[lev] = decode_level(
            compressed,
            compressor,
            policy,
            budget,
            &plans[lev],
            &mut levels[lev],
            lev,
        )?;
        if lev == 0 && nlev > 1 && !failures[0].is_empty() {
            continue;
        }
        // Coarse to fine, so prolongation always reads from a level that
        // has itself been repaired already.
        while settled <= lev {
            let failed = std::mem::take(&mut failures[settled]);
            let plan = &plans[settled];
            degraded.push(settle_level(
                hier,
                levels,
                plan,
                settled,
                failed,
                &mut report,
            ));
            if !cfg.restore_redundant
                && sink(settled, &levels[settled], degraded[settled]).is_break()
            {
                return Ok(report);
            }
            settled += 1;
        }
    }

    if cfg.restore_redundant {
        restore_redundant(hier, levels);
        for (lev, mf) in levels.iter().enumerate() {
            if sink(lev, mf, degraded[lev]).is_break() {
                break;
            }
        }
    }
    Ok(report)
}

/// Decodes every chunk of level `lev` into `mf` and returns the chunks that
/// failed, in chunk order; their fabs read as zero. A deadline breach, or
/// any failure under [`DecodePolicy::Strict`], is the error.
fn decode_level(
    compressed: &CompressedHierarchyField,
    compressor: &dyn Compressor,
    policy: DecodePolicy,
    budget: &DecodeBudget,
    plan: &LevelPlan,
    mf: &mut MultiFab,
    lev: usize,
) -> Result<LevelFailures, CompressError> {
    let mut sp = amrviz_obs::span!("decompress.level", level = lev);
    // One part per chunk: each worker decodes its chunk's pieces straight
    // into the chunk's own (reused) fabs. Failures land in a mutex in
    // scheduling order and are re-sorted by chunk so reporting is
    // thread-count independent.
    let mut parts = Vec::with_capacity(plan.chunks.len());
    let mut rest = mf.fabs_mut();
    for fabs in &plan.chunks {
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(fabs.len());
        parts.push(part);
        rest = tail;
    }
    let failed = std::sync::Mutex::new(Vec::new());
    amrviz_par::for_each_part(parts, |ci, fabs| {
        if let Err(e) = decode_chunk(compressor, compressed, lev, plan, ci, budget, fabs) {
            fabs.iter_mut().for_each(|fab| fab.data_mut().fill(0.0));
            failed
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push((ci, e));
        }
    });
    let mut failed: LevelFailures = failed.into_inner().unwrap_or_else(|p| p.into_inner());
    failed.sort_by_key(|&(ci, _)| ci);
    // A deadline breach is *not* repairable data: escalate it to a typed
    // error even under `Degrade`, so a timed-out request can never be
    // passed off as a degraded-but-served hierarchy.
    let fatal = failed
        .iter()
        .position(|(_, e)| e.is_deadline())
        .or(match policy {
            DecodePolicy::Strict if !failed.is_empty() => Some(0),
            _ => None,
        });
    if let Some(i) = fatal {
        let (ci, e) = failed.swap_remove(i);
        return Err(CompressError::FabDecode {
            level: lev,
            fab: plan.chunks[ci].start,
            source: Box::new(e),
        });
    }
    let level_bytes: usize = compressed.blobs[lev].iter().map(Vec::len).sum();
    amrviz_obs::counter!("decompress.bytes_in", level_bytes);
    amrviz_obs::counter!("decompress.bytes_out", mf.num_cells() * 8);
    sp.add_field("pieces", plan.tasks.len());
    sp.add_field("chunks", plan.chunks.len());
    sp.add_field("bytes_in", level_bytes);
    Ok(failed)
}

/// Verifies and decodes chunk `ci` of level `lev` into `fabs`, the chunk's
/// own fabs. A piece that is its fab's whole box decodes straight into the
/// fab's buffer; a sub-box goes through per-thread scratch. The checksum,
/// the chunk's symbol count and each piece's sections are checked before
/// the cells they govern are written; on error the fabs may hold part of
/// the chunk.
fn decode_chunk(
    compressor: &dyn Compressor,
    compressed: &CompressedHierarchyField,
    lev: usize,
    plan: &LevelPlan,
    ci: usize,
    budget: &DecodeBudget,
    fabs: &mut [Fab],
) -> Result<(), CompressError> {
    let blob = &compressed.blobs[lev][ci];
    if fnv1a_64(blob) != compressed.checksums[lev][ci] {
        return Err(CompressError::Malformed("chunk checksum mismatch".into()));
    }
    let t0 = amrviz_obs::is_enabled().then(std::time::Instant::now);
    let tasks = &plan.tasks[plan.chunk_tasks(ci)];
    let counts = tasks.iter().map(|(_, piece)| {
        let dims = piece.size();
        [
            compressor.symbol_count(dims),
            compressor.side_capacity(dims),
        ]
    });
    let reader = ByteReader::with_budget(blob, *budget);
    let (first_fab, eb) = (plan.chunks[ci].start, compressed.abs_eb);
    // The rental goes back on every path: a failed chunk (a corrupt blob, a
    // deadline) must not drain the thread's pool.
    let mut vals = scratch::take_f64();
    let decoded = read_pieces(reader, counts, |i, model, symbols, side| {
        let (fi, piece) = tasks[i];
        let mut decode = |out: &mut Vec<f64>| {
            compressor.decode_piece(piece.size(), eb, model, symbols, side, out)
        };
        let fab = &mut fabs[fi - first_fab];
        if piece == fab.box3() {
            return fab.refill_with(decode);
        }
        decode(&mut vals)?;
        fab.write_region_from(piece, &vals);
        Ok(())
    });
    scratch::give_f64(vals);
    decoded?;
    if let Some(t0) = t0 {
        amrviz_obs::histogram!("decompress.piece_us", t0.elapsed().as_micros());
    }
    Ok(())
}

/// Repairs the fabs of level `lev`'s failed chunks from its neighbor
/// levels, appends the level's fab statuses to `report`, and returns how
/// many of its fabs are not clean.
fn settle_level(
    hier: &AmrHierarchy,
    levels: &mut [MultiFab],
    plan: &LevelPlan,
    lev: usize,
    failed: LevelFailures,
    report: &mut DecodeReport,
) -> u32 {
    let mut fab_status: Vec<FabStatus> = vec![FabStatus::Ok; plan.fab_tasks.len()];
    for (ci, e) in failed {
        let cause = e.to_string();
        for &(fi, piece) in &plan.tasks[plan.chunk_tasks(ci)] {
            let status = repair_piece(hier, levels, lev, piece, cause.clone());
            // A fab with several pieces keeps its worst status
            // (Failed > Degraded > Ok).
            if !matches!(fab_status[fi], FabStatus::Failed { .. }) {
                fab_status[fi] = status;
            }
        }
    }
    let mut degraded = 0;
    for (fi, status) in fab_status.into_iter().enumerate() {
        match &status {
            FabStatus::Ok => amrviz_obs::counter!("decode.fabs_ok", 1),
            FabStatus::Degraded { .. } => {
                amrviz_obs::counter!("decode.fabs_degraded", 1)
            }
            FabStatus::Failed { .. } => amrviz_obs::counter!("decode.fabs_failed", 1),
        }
        degraded += u32::from(status != FabStatus::Ok);
        report.fabs.push((lev, fi, status));
    }
    degraded
}

/// Rebuilds coarse data under fine patches from the decompressed fine
/// level (finest first so restrictions cascade downward).
fn restore_redundant(hier: &AmrHierarchy, levels: &mut [MultiFab]) {
    let _sp = amrviz_obs::span!("decompress.restore_redundant");
    for lev in (0..hier.num_levels().saturating_sub(1)).rev() {
        let (coarse, fine) = levels.split_at_mut(lev + 1);
        let domain = hier.level_domain(lev);
        restrict_within(&mut coarse[lev], &fine[0], hier.ratio_at(lev), domain);
    }
}

/// Overwrites each cell of `coarse` inside `region` that has a full set of
/// children in `fine` with their average, and returns whether any cell was.
/// A degenerate unaligned fine box may hold the full set of children of no
/// coarse cell; its coarse parents keep their own data (`encode_pieces`
/// never skips them).
fn restrict_within(coarse: &mut MultiFab, fine: &MultiFab, ratio: i64, region: Box3) -> bool {
    let mut restricted_any = false;
    for cfab in coarse.fabs_mut() {
        let Some(target) = cfab.box3().intersect(&region) else {
            continue;
        };
        for ffab in fine.fabs() {
            let Some(covered) = ffab.box3().coarsen_inward(ratio) else {
                continue;
            };
            let Some(overlap) = target.intersect(&covered) else {
                continue;
            };
            cfab.copy_from(&restrict_average(ffab, overlap, ratio));
            restricted_any = true;
        }
    }
    restricted_any
}

/// Shapes `levels[lev]` onto `ba`, reusing the existing fab allocations
/// when the boxes already match. A reused fab is zeroed only if its pieces
/// do not tile it with one whole-box piece: cells no piece covers (skipped
/// redundant regions) must decode to zero, exactly as a fresh decode would,
/// while a whole-box piece overwrites the fab on success and a failed chunk
/// is zero-filled by [`decode_level`].
fn prepare_level(
    ba: &amrviz_amr::BoxArray,
    plan: &LevelPlan,
    levels: &mut Vec<MultiFab>,
    lev: usize,
) {
    match levels.get_mut(lev) {
        Some(mf)
            if mf.fabs().len() == ba.len()
                && mf
                    .fabs()
                    .iter()
                    .zip(ba.iter())
                    .all(|(f, &bx)| f.box3() == bx) =>
        {
            for (fab, tasks) in mf.fabs_mut().iter_mut().zip(&plan.fab_tasks) {
                let whole_box = tasks.len() == 1 && plan.tasks[tasks.start].1 == fab.box3();
                if !whole_box {
                    fab.data_mut().fill(0.0);
                }
            }
        }
        Some(mf) => *mf = MultiFab::zeros(ba),
        None => levels.push(MultiFab::zeros(ba)),
    }
}

/// Rebuilds one failed piece from neighbor-level data and returns the
/// resulting [`FabStatus`]. Levels below `lev` have already been repaired
/// (the caller sweeps coarse to fine), so prolongation reads best-available
/// data.
fn repair_piece(
    hier: &AmrHierarchy,
    levels: &mut [MultiFab],
    lev: usize,
    piece: Box3,
    cause: String,
) -> FabStatus {
    if lev > 0 {
        // Trilinear prolongation from the coarser level: rasterize the
        // needed coarse region dense (it may span several coarse fabs),
        // then interpolate up. Proper nesting guarantees coverage.
        let ratio = hier.ratio_at(lev - 1);
        let needed = piece.coarsen(ratio);
        let mut buf = vec![0.0f64; needed.num_cells()];
        rasterize_into(&levels[lev - 1], needed, &mut buf);
        let coarse = Fab::from_vec(needed, buf);
        let repaired = prolong_trilinear(&coarse, piece, ratio);
        for fab in levels[lev].fabs_mut() {
            fab.copy_from(&repaired);
        }
        return FabStatus::Degraded {
            repair: RepairKind::Prolonged,
            cause,
        };
    }
    if hier.num_levels() > 1 {
        // Coarsest level: averaging restriction from the finer level over
        // whatever the fine patches cover; the rest has no donor and stays
        // zero.
        let (coarse, fine) = levels.split_at_mut(1);
        if restrict_within(&mut coarse[0], &fine[0], hier.ratio_at(0), piece) {
            return FabStatus::Degraded {
                repair: RepairKind::Restricted,
                cause,
            };
        }
    }
    FabStatus::Failed {
        cause: format!("{cause}; no neighbor level to repair from, zero-filled"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::SzInterp;
    use crate::szlr::SzLr;
    use crate::test_support::compressors;
    use amrviz_amr::{BoxArray, Geometry, IntVect};

    fn two_level_hier() -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(16, 16, 16));
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain).chop_to_max_cells(1024),
                BoxArray::new(vec![Box3::new(
                    IntVect::new(8, 8, 8),
                    IntVect::new(23, 23, 23),
                )]),
            ],
        )
        .unwrap();
        h.add_field_from_fn("rho", |lev, iv| {
            let s = if lev == 0 { 1.0 } else { 0.5 };
            ((iv[0] as f64 * s * 0.3).sin() + (iv[1] as f64 * s * 0.2).cos()) * 10.0
                + iv[2] as f64 * s * 0.1
        })
        .unwrap();
        h
    }

    #[allow(clippy::needless_range_loop)]
    fn max_err(h: &AmrHierarchy, levels: &[MultiFab], skip_covered: bool) -> f64 {
        let orig = h.field("rho").unwrap();
        let mut worst = 0.0f64;
        for lev in 0..h.num_levels() {
            let covered = h.covered_mask(lev);
            for (of, df) in orig.levels[lev].fabs().iter().zip(levels[lev].fabs()) {
                for (cell, v) in of.iter() {
                    if skip_covered && covered.get(cell) {
                        continue;
                    }
                    worst = worst.max((v - df.get(cell)).abs());
                }
            }
        }
        worst
    }

    #[test]
    fn roundtrip_within_bound_all_compressors() {
        let h = two_level_hier();
        let cfg = AmrCodecConfig::default();
        for comp in compressors() {
            let comp = &*comp;
            let c = compress_hierarchy_field(&h, "rho", comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
            let levels = decompress_hierarchy_field(&h, &c, comp, &cfg).unwrap();
            let err = max_err(&h, &levels, false);
            assert!(
                err <= c.abs_eb * (1.0 + 1e-12),
                "{}: {err} > {}",
                comp.name(),
                c.abs_eb
            );
        }
    }

    /// Larger hierarchy where the covered coarse region is big enough that
    /// omitting it outweighs per-piece stream overhead (42% covered, like
    /// the Nyx configuration in Table 1).
    fn nyx_like_hier() -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(32, 32, 32));
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::new(vec![Box3::new(
                    IntVect::new(0, 0, 0),
                    IntVect::new(47, 47, 47),
                )]),
            ],
        )
        .unwrap();
        h.add_field_from_fn("rho", |lev, iv| {
            let s = if lev == 0 { 0.2 } else { 0.1 };
            (iv[0] as f64 * s).sin() * (iv[1] as f64 * s).cos() + (iv[2] as f64 * s).sin()
        })
        .unwrap();
        h
    }

    /// Nyx's shape in miniature: eight coarse fabs under a fine level of
    /// 512 fabs of 8×8×6 cells, which fill three chunks (171, 171 and 170
    /// fabs).
    fn many_fab_hier() -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(32, 32, 32));
        let fine = Box3::new(IntVect::new(0, 0, 0), IntVect::new(63, 63, 47));
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain).chop_to_max_cells(4096),
                BoxArray::single(fine).chop_to_max_cells(512),
            ],
        )
        .unwrap();
        h.add_field_from_fn("rho", |lev, iv| {
            let s = if lev == 0 { 0.3 } else { 0.15 };
            let x = (iv[0] as f64 * s).sin() * (iv[1] as f64 * s).cos();
            (x + (iv[2] as f64 * s * 0.7).sin()).exp()
        })
        .unwrap();
        h
    }

    fn skip_restore() -> AmrCodecConfig {
        AmrCodecConfig {
            skip_redundant: true,
            restore_redundant: true,
        }
    }

    #[test]
    fn skip_redundant_improves_ratio() {
        let h = nyx_like_hier();
        let comp = SzInterp;
        let keep = compress_hierarchy_field(
            &h,
            "rho",
            &comp,
            ErrorBound::Rel(1e-4),
            &AmrCodecConfig::default(),
        )
        .unwrap();
        let skip = compress_hierarchy_field(
            &h,
            "rho",
            &comp,
            ErrorBound::Rel(1e-4),
            &AmrCodecConfig {
                skip_redundant: true,
                restore_redundant: false,
            },
        )
        .unwrap();
        assert!(
            skip.compressed_bytes() < keep.compressed_bytes(),
            "skipping redundant data should shrink the stream: {} vs {}",
            skip.compressed_bytes(),
            keep.compressed_bytes()
        );
        // And the *unique* cells still honor the bound. (Decompression must
        // use the same piece decomposition it was encoded with.)
        let skip_cfg = AmrCodecConfig {
            skip_redundant: true,
            restore_redundant: false,
        };
        let levels = decompress_hierarchy_field(&h, &skip, &comp, &skip_cfg).unwrap();
        let err = max_err(&h, &levels, true);
        assert!(err <= skip.abs_eb * (1.0 + 1e-12));
    }

    #[test]
    fn restore_redundant_rebuilds_covered_cells() {
        let h = two_level_hier();
        let comp = SzLr::default();
        let cfg = skip_restore();
        let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-4), &cfg).unwrap();
        let levels = decompress_hierarchy_field(&h, &c, &comp, &cfg).unwrap();
        // Covered coarse cells should now approximate the restriction of the
        // original fine data (compression error + restriction difference).
        let orig_fine = &h.field("rho").unwrap().levels[1];
        let covered = h.covered_mask(0);
        let mut checked = 0;
        for dfab in levels[0].fabs() {
            for (cell, got) in dfab.iter() {
                if !covered.get(cell) {
                    continue;
                }
                // Expected: average of the 8 original fine children.
                let base = cell.refine(2);
                let mut want = 0.0;
                for dz in 0..2 {
                    for dy in 0..2 {
                        for dx in 0..2 {
                            want += orig_fine
                                .value_at(base + IntVect::new(dx, dy, dz))
                                .expect("covered cell has fine children");
                        }
                    }
                }
                want /= 8.0;
                assert!(
                    (got - want).abs() <= c.abs_eb * (1.0 + 1e-9),
                    "restored cell {cell:?}: {got} vs {want}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no covered cells checked");
    }

    #[test]
    fn decode_into_reuses_fab_storage_and_matches_fresh() {
        let h = two_level_hier();
        let comp = SzLr::default();
        let cfg = AmrCodecConfig::default();
        let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        let fresh = decompress_hierarchy_field(&h, &c, &comp, &cfg).unwrap();

        // Seed `levels` with a decode, note every fab's buffer address, then
        // decode again into the same storage.
        let mut levels = Vec::new();
        decompress_hierarchy_field_into(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Strict,
            &DecodeBudget::default(),
            &mut levels,
        )
        .unwrap();
        let ptrs: Vec<*const f64> = levels
            .iter()
            .flat_map(|mf| mf.fabs().iter().map(|f| f.data().as_ptr()))
            .collect();
        let report = decompress_hierarchy_field_into(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Strict,
            &DecodeBudget::default(),
            &mut levels,
        )
        .unwrap();
        assert!(report.is_clean());
        let ptrs2: Vec<*const f64> = levels
            .iter()
            .flat_map(|mf| mf.fabs().iter().map(|f| f.data().as_ptr()))
            .collect();
        assert_eq!(ptrs, ptrs2, "second decode must reuse every fab buffer");
        assert_eq!(
            levels, fresh,
            "reused-storage decode must match a fresh one"
        );
    }

    #[test]
    fn serialized_form_roundtrips() {
        let h = two_level_hier();
        let comp = SzInterp;
        let cfg = skip_restore();
        let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        let bytes = c.to_bytes();
        let back = CompressedHierarchyField::from_bytes(&bytes).unwrap();
        assert_eq!(back.abs_eb, c.abs_eb);
        assert_eq!(back.n_values, c.n_values);
        assert_eq!(back.blobs, c.blobs);
        assert_eq!(
            (back.compressor, back.skip_redundant),
            (SzInterp.tag(), true)
        );
        let levels = decompress_hierarchy_field(&h, &back, &comp, &cfg).unwrap();
        assert_eq!(levels.len(), 2);
    }

    #[test]
    fn clean_decode_reports_all_ok() {
        let h = two_level_hier();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        let report = decompress_hierarchy_field_into(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Degrade,
            &DecodeBudget::default(),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(report.is_clean());
        let (ok, _, _) = report.counts();
        assert_eq!(ok, report.fabs.len());
    }

    #[test]
    fn strict_policy_names_failing_fab() {
        let h = two_level_hier();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let mut c =
            compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        // Flip one byte inside the fine level's chunk; the stored checksum
        // no longer matches.
        let mid = c.blobs[1][0].len() / 2;
        c.blobs[1][0][mid] ^= 0xFF;
        let err = decompress_hierarchy_field_into(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Strict,
            &DecodeBudget::default(),
            &mut Vec::new(),
        )
        .unwrap_err();
        match err {
            CompressError::FabDecode { level, fab, source } => {
                assert_eq!((level, fab), (1, 0));
                assert!(
                    matches!(&*source, CompressError::Malformed(m) if m.contains("checksum")),
                    "unexpected cause: {source}"
                );
            }
            other => panic!("expected FabDecode, got {other}"),
        }
    }

    #[test]
    fn degrade_policy_repairs_corrupt_fine_fab_by_prolongation() {
        let h = two_level_hier();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let mut c =
            compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        let mid = c.blobs[1][0].len() / 2;
        c.blobs[1][0][mid] ^= 0xFF;
        let mut levels = Vec::new();
        let report = decompress_hierarchy_field_into(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Degrade,
            &DecodeBudget::default(),
            &mut levels,
        )
        .unwrap();
        let (_, degraded, failed) = report.counts();
        assert_eq!(degraded, 1, "exactly the corrupted fab degrades");
        assert_eq!(failed, 0);
        let (lev, fab, status) = report.problems().next().unwrap();
        assert_eq!((*lev, *fab), (1, 0));
        assert!(matches!(
            status,
            FabStatus::Degraded {
                repair: RepairKind::Prolonged,
                ..
            }
        ));
        // The repaired fab approximates the true fine data via trilinear
        // prolongation of the (smooth) coarse field — far better than the
        // zero fill it would otherwise be.
        let orig_fine = &h.field("rho").unwrap().levels[1];
        let mut worst = 0.0f64;
        for (of, df) in orig_fine.fabs().iter().zip(levels[1].fabs()) {
            for (cell, v) in of.iter() {
                worst = worst.max((v - df.get(cell)).abs());
            }
        }
        let amplitude = 20.0; // field spans roughly ±20
        assert!(
            worst < amplitude / 5.0,
            "prolonged repair too far off: {worst}"
        );
    }

    #[test]
    fn degrade_policy_restricts_corrupt_coarse_fab() {
        // nyx_like_hier: the fine patch covers part of the coarse domain;
        // restriction repairs exactly those cells, the rest has no donor.
        let h = nyx_like_hier();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let mut c =
            compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-4), &cfg).unwrap();
        let mid = c.blobs[0][0].len() / 2;
        c.blobs[0][0][mid] ^= 0xFF;
        let mut levels = Vec::new();
        let report = decompress_hierarchy_field_into(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Degrade,
            &DecodeBudget::default(),
            &mut levels,
        )
        .unwrap();
        let (_, degraded, failed) = report.counts();
        assert_eq!((degraded, failed), (1, 0));
        let (lev, _, status) = report.problems().next().unwrap();
        assert_eq!(*lev, 0);
        assert!(matches!(
            status,
            FabStatus::Degraded {
                repair: RepairKind::Restricted,
                ..
            }
        ));
        // Restricted coarse values approximate the original coarse data on
        // every cell the fine level covers.
        let orig = &h.field("rho").unwrap().levels[0];
        let covered = h.covered_mask(0);
        let mut worst = 0.0f64;
        let mut n_checked = 0usize;
        for (of, df) in orig.fabs().iter().zip(levels[0].fabs()) {
            for (cell, v) in of.iter() {
                if !covered.get(cell) {
                    continue;
                }
                worst = worst.max((v - df.get(cell)).abs());
                n_checked += 1;
            }
        }
        assert!(n_checked > 0);
        assert!(worst < 0.5, "restricted repair too far off: {worst}");
    }

    #[test]
    fn single_level_corruption_is_reported_failed() {
        let geom = Geometry::unit(Box3::from_dims(8, 8, 8));
        let mut h = AmrHierarchy::new(geom, vec![], vec![BoxArray::single(geom.domain)]).unwrap();
        h.add_field_from_fn("rho", |_, iv| iv[0] as f64).unwrap();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let mut c =
            compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        let mid = c.blobs[0][0].len() / 2;
        c.blobs[0][0][mid] ^= 0xFF;
        let report = decompress_hierarchy_field_into(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Degrade,
            &DecodeBudget::default(),
            &mut Vec::new(),
        )
        .unwrap();
        let (_, degraded, failed) = report.counts();
        assert_eq!((degraded, failed), (0, 1), "no neighbor level exists");
    }

    #[test]
    fn a_failed_coarse_chunk_over_an_unaligned_fine_cell_is_repaired_without_a_panic() {
        // One fine cell at an odd index holds none of its coarse parent's
        // full set of children: restriction has nothing to average there.
        let geom = Geometry::unit(Box3::from_dims(8, 8, 8));
        let cell = Box3::new(IntVect::new(7, 7, 7), IntVect::new(7, 7, 7));
        let levels = vec![BoxArray::single(geom.domain), BoxArray::new(vec![cell])];
        let mut h = AmrHierarchy::new(geom, vec![2], levels).unwrap();
        h.add_field_from_fn("rho", |_, iv| iv[0] as f64).unwrap();
        let (comp, cfg) = (SzLr::default(), AmrCodecConfig::default());
        let mut c =
            compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        c.blobs[0][0][3] ^= 0xFF;
        let report = decompress_hierarchy_field_into(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Degrade,
            &DecodeBudget::default(),
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(report.counts(), (1, 0, 1));
    }

    /// Re-assembles chunk `ci` of level `lev` of `h`'s field, encoded by
    /// `comp` under `cfg`, with its models, its decoded symbols and its
    /// decoded side symbols passed through `edit`, and reseals its checksum.
    fn edit_chunk(
        c: &mut CompressedHierarchyField,
        (h, cfg, comp): (&AmrHierarchy, &AmrCodecConfig, &dyn Compressor),
        (lev, ci): (usize, usize),
        edit: impl FnOnce(&mut Vec<u8>, &mut Vec<u32>, &mut Vec<u32>),
    ) {
        let plan = LevelPlan::new(h, cfg, lev);
        let pieces = &plan.tasks[plan.chunk_tasks(ci)];
        let n: usize = pieces
            .iter()
            .map(|(_, p)| comp.symbol_count(p.size()))
            .sum();
        let mut r = ByteReader::new(&c.blobs[lev][ci]);
        let mut models = r.section().unwrap().to_vec();
        let (mut symbols, mut side) = (Vec::new(), Vec::new());
        r.coded_section(n..=n, &mut symbols).unwrap();
        r.coded_section(0..=usize::MAX, &mut side).unwrap();
        edit(&mut models, &mut symbols, &mut side);
        let mut w = ByteWriter::new();
        w.section(&models);
        w.coded_section(&symbols);
        w.coded_section(&side);
        c.blobs[lev][ci] = w.finish();
        c.checksums[lev][ci] = fnv1a_64(&c.blobs[lev][ci]);
    }

    #[test]
    fn whole_box_piece_that_fails_after_decoding_leaves_the_fab_zero() {
        // The chunk decodes its one piece into the fab's own buffer, then
        // fails the end-of-chunk check on one surplus model byte (checksum
        // resealed): a failed chunk must read as zero.
        let geom = Geometry::unit(Box3::from_dims(8, 8, 8));
        let mut h = AmrHierarchy::new(geom, vec![], vec![BoxArray::single(geom.domain)]).unwrap();
        h.add_field_from_fn("rho", |_, iv| 1.0 + iv[0] as f64)
            .unwrap();
        let cfg = AmrCodecConfig::default();
        for comp in compressors() {
            let comp = &*comp;
            let mut c =
                compress_hierarchy_field(&h, "rho", comp, ErrorBound::Abs(1e-3), &cfg).unwrap();
            edit_chunk(&mut c, (&h, &cfg, comp), (0, 0), |models, _, _| {
                models.push(0)
            });
            let mut levels = Vec::new();
            let report = decompress_hierarchy_field_into(
                &h,
                &c,
                comp,
                &cfg,
                DecodePolicy::Degrade,
                &DecodeBudget::default(),
                &mut levels,
            )
            .unwrap();
            assert_eq!(report.counts(), (0, 0, 1), "{}", comp.name());
            let fab = &levels[0].fabs()[0];
            assert_eq!(fab.data().len(), 512);
            assert!(fab.data().iter().all(|&v| v == 0.0), "{}", comp.name());
        }
    }

    /// The decode as it was before the level-at-a-time walk: decode every
    /// chunk of every level into fully zeroed storage, then repair every
    /// level coarse to fine, then restore redundant cells. Kept as the
    /// oracle the walk must reproduce bit for bit.
    fn two_pass_oracle(
        hier: &AmrHierarchy,
        compressed: &CompressedHierarchyField,
        compressor: &dyn Compressor,
        cfg: &AmrCodecConfig,
        policy: DecodePolicy,
        budget: &DecodeBudget,
    ) -> Result<(Vec<MultiFab>, DecodeReport), CompressError> {
        let nlev = hier.num_levels();
        let mut levels: Vec<MultiFab> = (0..nlev)
            .map(|lev| MultiFab::zeros(hier.box_array(lev)))
            .collect();
        let plans: Vec<LevelPlan> = (0..nlev).map(|l| LevelPlan::new(hier, cfg, l)).collect();
        let mut failures: Vec<Vec<(usize, String)>> = vec![Vec::new(); nlev];
        for (lev, plan) in plans.iter().enumerate() {
            for (ci, fabs) in plan.chunks.iter().enumerate() {
                let fabs = &mut levels[lev].fabs_mut()[fabs.clone()];
                if let Err(e) = decode_chunk(compressor, compressed, lev, plan, ci, budget, fabs) {
                    if policy == DecodePolicy::Strict {
                        return Err(e);
                    }
                    fabs.iter_mut().for_each(|fab| fab.data_mut().fill(0.0));
                    failures[lev].push((ci, e.to_string()));
                }
            }
        }
        let mut report = DecodeReport::default();
        for (lev, plan) in plans.iter().enumerate() {
            let mut fab_status = vec![FabStatus::Ok; plan.fab_tasks.len()];
            for (ci, cause) in &failures[lev] {
                for &(fi, piece) in &plan.tasks[plan.chunk_tasks(*ci)] {
                    let status = repair_piece(hier, &mut levels, lev, piece, cause.clone());
                    if !matches!(fab_status[fi], FabStatus::Failed { .. }) {
                        fab_status[fi] = status;
                    }
                }
            }
            for (fi, status) in fab_status.into_iter().enumerate() {
                report.fabs.push((lev, fi, status));
            }
        }
        if cfg.restore_redundant {
            restore_redundant(hier, &mut levels);
        }
        Ok((levels, report))
    }

    fn three_level_hier() -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(16, 16, 16));
        let mut h = AmrHierarchy::new(
            geom,
            vec![2, 2],
            vec![
                BoxArray::single(geom.domain).chop_to_max_cells(1024),
                BoxArray::single(Box3::new(IntVect::new(16, 0, 0), IntVect::new(31, 31, 31)))
                    .chop_to_max_cells(4096),
                BoxArray::single(Box3::new(IntVect::new(48, 0, 0), IntVect::new(63, 63, 63)))
                    .chop_to_max_cells(32768),
            ],
        )
        .unwrap();
        h.add_field_from_fn("rho", |lev, iv| {
            let s = [1.0, 0.5, 0.25][lev];
            (iv[0] as f64 * s * 0.3).sin() * 7.0 + (iv[1] as f64 * s * 0.2).cos() * 3.0
                - iv[2] as f64 * s * 0.1
        })
        .unwrap();
        h
    }

    /// Bit patterns of every cell, so that `-0.0`/NaN differences would show.
    fn bits(levels: &[MultiFab]) -> Vec<Vec<Vec<u64>>> {
        levels
            .iter()
            .map(|mf| {
                mf.fabs()
                    .iter()
                    .map(|f| f.data().iter().map(|v| v.to_bits()).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn streamed_walk_matches_the_two_pass_oracle() {
        // (name, hierarchy, config, chunks to damage as (level, chunk)).
        type Case<'a> = (
            &'a str,
            &'a AmrHierarchy,
            AmrCodecConfig,
            Vec<(usize, usize)>,
        );
        let two = two_level_hier();
        let nyx = nyx_like_hier();
        let three = three_level_hier();
        let many = many_fab_hier();
        let plain = AmrCodecConfig::default();
        let cases: Vec<Case> = vec![
            ("clean", &two, plain, vec![]),
            ("damaged fine", &two, plain, vec![(1, 0)]),
            ("damaged coarse", &two, plain, vec![(0, 0)]),
            ("damaged coarse, one fab", &nyx, plain, vec![(0, 0)]),
            ("damaged both", &two, plain, vec![(0, 0), (1, 0)]),
            ("three levels clean", &three, plain, vec![]),
            (
                "three levels, every level damaged",
                &three,
                plain,
                vec![(0, 0), (1, 0), (2, 0)],
            ),
            (
                "three levels, middle and fine",
                &three,
                plain,
                vec![(1, 0), (2, 0)],
            ),
            (
                "many chunks, middle one damaged",
                &many,
                plain,
                vec![(1, 1)],
            ),
            (
                "many chunks, coarse and last fine damaged",
                &many,
                plain,
                vec![(0, 0), (1, 2)],
            ),
            ("restore redundant", &two, skip_restore(), vec![]),
            (
                "restore redundant, damaged",
                &two,
                skip_restore(),
                vec![(0, 0), (1, 0)],
            ),
            (
                "restore redundant, three levels",
                &three,
                skip_restore(),
                vec![(1, 0)],
            ),
            (
                "restore redundant, many chunks",
                &many,
                skip_restore(),
                vec![(1, 0)],
            ),
        ];
        let comp = SzLr::default();
        let budget = DecodeBudget::default();
        for threads in [1, 4] {
            amrviz_par::set_threads(threads);
            for (name, h, cfg, damage) in &cases {
                let name = format!("{name} at {threads} thread(s)");
                let mut c =
                    compress_hierarchy_field(h, "rho", &comp, ErrorBound::Rel(1e-3), cfg).unwrap();
                for &(lev, chunk) in damage {
                    let mid = c.blobs[lev][chunk].len() / 2;
                    c.blobs[lev][chunk][mid] ^= 0xFF;
                }
                assert_eq!(c.checksum_failures(), damage.len(), "{name}");
                let (want_levels, want_report) =
                    two_pass_oracle(h, &c, &comp, cfg, DecodePolicy::Degrade, &budget).unwrap();
                // Decode into a dirty, right-shaped arena: every recycled
                // cell must be overwritten or re-zeroed.
                let mut levels: Vec<MultiFab> = (0..h.num_levels())
                    .map(|lev| MultiFab::from_fn(h.box_array(lev), |_| f64::NAN))
                    .collect();
                let mut seen = Vec::new();
                let report = decompress_hierarchy_field_streamed(
                    h,
                    &c,
                    &comp,
                    cfg,
                    DecodePolicy::Degrade,
                    &budget,
                    &mut levels,
                    |lev, mf, degraded| {
                        // What the sink is shown is already the final data.
                        assert_eq!(
                            bits(std::slice::from_ref(mf)),
                            bits(&want_levels[lev..=lev])
                        );
                        seen.push((lev, degraded));
                        ControlFlow::Continue(())
                    },
                )
                .unwrap();
                assert_eq!(bits(&levels), bits(&want_levels), "{name}");
                assert_eq!(report.fabs, want_report.fabs, "{name}");
                let want_seen: Vec<(usize, u32)> = (0..h.num_levels())
                    .map(|lev| {
                        let bad = want_report.problems().filter(|(l, ..)| *l == lev).count();
                        (lev, bad as u32)
                    })
                    .collect();
                assert_eq!(seen, want_seen, "{name}: one sink call per level, in order");
                // Damage shows in the report as every fab of each damaged
                // chunk, and as nothing else.
                let mut want_bad: Vec<(usize, usize)> = Vec::new();
                for &(lev, chunk) in damage {
                    let fabs = LevelPlan::new(h, cfg, lev).chunks[chunk].clone();
                    want_bad.extend(fabs.map(|fi| (lev, fi)));
                }
                want_bad.sort();
                let bad: Vec<(usize, usize)> =
                    report.problems().map(|&(lev, fi, _)| (lev, fi)).collect();
                assert_eq!(bad, want_bad, "{name}");
            }
        }
    }

    #[test]
    fn chunks_are_runs_of_whole_fabs_cut_at_64ki_cells_at_any_thread_count() {
        let h = many_fab_hier();
        let cells = |plan: &LevelPlan, tasks: Range<usize>| -> usize {
            plan.tasks[tasks].iter().map(|(_, p)| p.num_cells()).sum()
        };
        for cfg in [AmrCodecConfig::default(), skip_restore()] {
            for lev in 0..h.num_levels() {
                let plan = LevelPlan::new(&h, &cfg, lev);
                // The chunks tile the level's fabs in box order, and every
                // one but the last closed on the fab that took it to
                // `CHUNK_CELLS`.
                let mut next = 0;
                for (ci, fabs) in plan.chunks.iter().enumerate() {
                    assert_eq!(fabs.start, next);
                    next = fabs.end;
                    let tasks = plan.chunk_tasks(ci);
                    if ci + 1 < plan.chunks.len() {
                        let last = plan.fab_tasks[fabs.end - 1].start;
                        assert!(cells(&plan, tasks.clone()) >= CHUNK_CELLS);
                        assert!(cells(&plan, tasks.start..last) < CHUNK_CELLS);
                    }
                }
                assert_eq!(next, h.box_array(lev).len());
            }
        }
        let fine = LevelPlan::new(&h, &AmrCodecConfig::default(), 1);
        assert_eq!(fine.chunks, [0..171, 171..342, 342..512]);
        // The same plan and the same container bytes at any thread count.
        let comp = SzLr::default();
        let run = |threads| {
            amrviz_par::set_threads(threads);
            let cfg = skip_restore();
            let plans: Vec<_> = (0..2).map(|l| LevelPlan::new(&h, &cfg, l).chunks).collect();
            let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg);
            (plans, c.unwrap().to_bytes())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn a_damaged_chunk_degrades_exactly_its_own_fabs() {
        let h = many_fab_hier();
        let (comp, cfg) = (SzLr::default(), AmrCodecConfig::default());
        let plan = LevelPlan::new(&h, &cfg, 1);
        for threads in [1, 4] {
            amrviz_par::set_threads(threads);
            let clean =
                compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
            let want = bits(&decompress_hierarchy_field(&h, &clean, &comp, &cfg).unwrap());
            for (ci, fabs) in plan.chunks.iter().enumerate() {
                let mut c = clean.clone();
                let mid = c.blobs[1][ci].len() / 2;
                c.blobs[1][ci][mid] ^= 0xFF;
                let mut levels = Vec::new();
                let report = decompress_hierarchy_field_into(
                    &h,
                    &c,
                    &comp,
                    &cfg,
                    DecodePolicy::Degrade,
                    &DecodeBudget::default(),
                    &mut levels,
                )
                .unwrap();
                let name = format!("chunk {ci} at {threads} thread(s)");
                let bad: Vec<(usize, usize)> =
                    report.problems().map(|&(lev, fi, _)| (lev, fi)).collect();
                let want_bad: Vec<(usize, usize)> = fabs.clone().map(|fi| (1, fi)).collect();
                assert_eq!(bad, want_bad, "{name}");
                let got = bits(&levels);
                assert_eq!(got[0], want[0], "{name}");
                for (fi, (got, want)) in got[1].iter().zip(&want[1]).enumerate() {
                    assert!(fabs.contains(&fi) || got == want, "{name}: fab {fi}");
                }
            }
        }
    }

    #[test]
    fn a_chunk_one_symbol_short_or_long_is_typed_before_any_cell_is_written() {
        let h = many_fab_hier();
        let cfg = AmrCodecConfig::default();
        let plan = LevelPlan::new(&h, &cfg, 1);
        let fabs = plan.chunks[1].clone();
        for comp in compressors() {
            let comp = &*comp;
            let clean =
                compress_hierarchy_field(&h, "rho", comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
            for grow in [false, true] {
                let name = format!(
                    "{}, one symbol {}",
                    comp.name(),
                    ["short", "long"][grow as usize]
                );
                let mut c = clean.clone();
                edit_chunk(
                    &mut c,
                    (&h, &cfg, comp),
                    (1, 1),
                    |_, symbols, _| match grow {
                        true => symbols.push(7),
                        false => drop(symbols.pop()),
                    },
                );
                let mut mf = MultiFab::from_fn(h.box_array(1), |_| 7.5);
                let chunk = &mut mf.fabs_mut()[fabs.clone()];
                let budget = DecodeBudget::default();
                let err = decode_chunk(comp, &c, 1, &plan, 1, &budget, chunk).unwrap_err();
                assert!(
                    matches!(&err, CompressError::Malformed(m) if m.contains("symbols coded")),
                    "{name}: {err}"
                );
                let untouched = chunk.iter().all(|f| f.data().iter().all(|&v| v == 7.5));
                assert!(untouched, "{name}: a cell was written");
                // Through the whole decode: the chunk's fabs degrade, no other.
                let report = decompress_hierarchy_field_into(
                    &h,
                    &c,
                    comp,
                    &cfg,
                    DecodePolicy::Degrade,
                    &budget,
                    &mut Vec::new(),
                )
                .unwrap();
                assert_eq!(report.counts().1, fabs.len(), "{name}");
            }
        }
    }

    #[test]
    fn a_header_naming_another_compressor_or_skip_setting_is_typed_before_decoding() {
        let h = two_level_hier();
        let plain = AmrCodecConfig::default();
        let szlr = SzLr::default();
        let c = compress_hierarchy_field(&h, "rho", &szlr, ErrorBound::Rel(1e-3), &plain).unwrap();
        let c = CompressedHierarchyField::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!((c.compressor, c.skip_redundant), (szlr.tag(), false));
        let other_block = SzLr {
            block_size: 4,
            ..szlr
        };
        let cases: [(&dyn Compressor, AmrCodecConfig, &str); 3] = [
            (&SzInterp, plain, "not SZ-Itp's"),
            (&other_block, plain, "not SZ-L/R's (0x4a1)"),
            (&szlr, skip_restore(), "skip_redundant = false"),
        ];
        for (comp, cfg, says) in cases {
            let mut levels = vec![MultiFab::from_fn(h.box_array(0), |_| 7.5)];
            let err = decompress_hierarchy_field_streamed(
                &h,
                &c,
                comp,
                &cfg,
                DecodePolicy::Degrade,
                &DecodeBudget::default(),
                &mut levels,
                |_, _, _| panic!("no level may be handed over"),
            )
            .unwrap_err();
            assert!(
                matches!(&err, CompressError::Malformed(m) if m.contains(says)),
                "{says}: {err}"
            );
            assert_eq!(levels.len(), 1, "{says}");
            let untouched = levels[0]
                .fabs()
                .iter()
                .all(|f| f.data().iter().all(|&v| v == 7.5));
            assert!(untouched, "{says}: a cell was written");
        }
    }

    #[test]
    fn sink_can_stop_the_walk_and_a_clean_coarse_level_does_not_wait() {
        let h = three_level_hier();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let mut c =
            compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        // Level 2 is undecodable, but nothing of it is looked at before the
        // sink has level 0 and stops the walk.
        for blob in &mut c.blobs[2] {
            blob.clear();
        }
        let mut levels = Vec::new();
        let mut calls = 0;
        let report = decompress_hierarchy_field_streamed(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Strict,
            &DecodeBudget::default(),
            &mut levels,
            |lev, _, degraded| {
                assert_eq!((lev, degraded), (0, 0));
                calls += 1;
                ControlFlow::Break(())
            },
        )
        .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(levels.len(), 1, "finer levels were never shaped");
        assert_eq!(report.fabs.len(), h.box_array(0).len());
        // Structure is still checked for every level before level 0 decodes.
        c.blobs[2].pop();
        let err = decompress_hierarchy_field_streamed(
            &h,
            &c,
            &comp,
            &cfg,
            DecodePolicy::Strict,
            &DecodeBudget::default(),
            &mut levels,
            |_, _, _| panic!("no level may be handed over from a malformed stream"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("level 2"), "got {err}");
    }

    #[test]
    fn dirty_arena_plus_failed_whole_box_piece_reads_zero() {
        let geom = Geometry::unit(Box3::from_dims(8, 8, 8));
        let mut h = AmrHierarchy::new(geom, vec![], vec![BoxArray::single(geom.domain)]).unwrap();
        h.add_field_from_fn("rho", |_, iv| 1.0 + iv[0] as f64)
            .unwrap();
        let comp = SzLr::default();
        let cfg = AmrCodecConfig::default();
        let clean =
            compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Abs(1e-3), &cfg).unwrap();
        // A stored checksum that does not match (the early return that never
        // reaches `refill_with`), and a valid checksum over a stream the
        // decoder rejects.
        let mut bad_sum = clean.clone();
        bad_sum.checksums[0][0] ^= 1;
        let mut bad_stream = clean.clone();
        bad_stream.blobs[0][0].truncate(5);
        bad_stream.checksums[0][0] = fnv1a_64(&bad_stream.blobs[0][0]);
        assert_eq!(
            (bad_sum.checksum_failures(), bad_stream.checksum_failures()),
            (1, 0)
        );
        for (what, c) in [("checksum", &bad_sum), ("stream", &bad_stream)] {
            let mut levels = vec![MultiFab::from_fn(h.box_array(0), |_| 7.5)];
            let report = decompress_hierarchy_field_into(
                &h,
                c,
                &comp,
                &cfg,
                DecodePolicy::Degrade,
                &DecodeBudget::default(),
                &mut levels,
            )
            .unwrap();
            assert_eq!(report.counts(), (0, 0, 1), "{what}");
            let data = levels[0].fabs()[0].data();
            assert_eq!(data.len(), 512, "{what}");
            assert!(
                data.iter().all(|&v| v == 0.0),
                "{what}: stale cells survive"
            );
        }
        // And a clean whole-box piece overwrites every recycled cell.
        let mut levels = vec![MultiFab::from_fn(h.box_array(0), |_| 7.5)];
        decompress_hierarchy_field_into(
            &h,
            &clean,
            &comp,
            &cfg,
            DecodePolicy::Strict,
            &DecodeBudget::default(),
            &mut levels,
        )
        .unwrap();
        let fresh = decompress_hierarchy_field(&h, &clean, &comp, &cfg).unwrap();
        assert_eq!(bits(&levels), bits(&fresh));
    }

    #[test]
    fn container_detects_checksum_mismatch_after_roundtrip() {
        let h = two_level_hier();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        let mut bytes = c.to_bytes();
        assert_eq!(bytes[0], CONTAINER_MAGIC);
        assert_eq!(bytes[1], CONTAINER_VERSION);
        // Corrupt a byte near the end (inside the last chunk's payload).
        let at = bytes.len() - 8;
        bytes[at] ^= 0x01;
        // Structural parse still succeeds — integrity is per chunk.
        let back = CompressedHierarchyField::from_bytes(&bytes).unwrap();
        let err = decompress_hierarchy_field(&h, &back, &comp, &cfg).unwrap_err();
        assert!(matches!(err, CompressError::FabDecode { .. }), "got {err}");
    }

    /// The container-version table, run on the rows named `rows`: every
    /// version but the current one is refused on its first two bytes,
    /// whatever follows them. Each later format step adds one row, and the
    /// test of that version names it.
    fn container_versions(rows: &[&str]) {
        let h = two_level_hier();
        let cfg = AmrCodecConfig::default();
        let c =
            compress_hierarchy_field(&h, "rho", &SzInterp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        // The v1 layout: no magic, no checksums. Accepting it would mean
        // "verifying" a stream whose integrity words were stripped.
        let mut v1 = ByteWriter::new();
        v1.f64(c.abs_eb);
        v1.uvarint(c.n_values as u64);
        v1.uvarint(c.blobs.len() as u64);
        for level in &c.blobs {
            v1.uvarint(level.len() as u64);
            for blob in level {
                v1.section(blob);
            }
        }
        let v5 = c.to_bytes();
        let version = |v: u8| [&[CONTAINER_MAGIC, v][..], &v5[2..]].concat();
        let by_number = |v| format!("unsupported container version {v} (expected 5)");
        let table = [
            ("v1", v1.finish(), Some("missing container magic".into())),
            ("v2", version(2), Some(by_number(2))),
            ("v3", version(3), Some(by_number(3))),
            ("v4", version(4), Some(by_number(4))),
            ("v99", version(99), Some(by_number(99))),
            // A v5 parse error is reported as itself.
            (
                "v5 + a byte",
                [&v5[..], &[0]].concat(),
                Some("trailing bytes".into()),
            ),
            ("v5", v5, None),
        ];
        for row in rows {
            let (_, stream, refusal) = table.iter().find(|r| r.0 == *row).expect("a row");
            match (CompressedHierarchyField::from_bytes(stream), refusal) {
                (Ok(_), None) => {}
                (Err(CompressError::Malformed(m)), Some(want)) if m.contains(want) => {}
                (got, want) => panic!("{row}: {want:?}: got {:?}", got.map(|_| ())),
            }
        }
    }

    #[test]
    fn legacy_v1_stream_is_rejected() {
        container_versions(&["v1", "v5 + a byte"]);
    }

    #[test]
    fn legacy_v2_stream_is_rejected() {
        container_versions(&["v2"]);
    }

    #[test]
    fn legacy_v3_stream_is_rejected() {
        container_versions(&["v3"]);
    }

    #[test]
    fn legacy_v4_stream_is_rejected() {
        container_versions(&["v5", "v4"]);
    }

    #[test]
    fn unknown_container_version_rejected_clearly() {
        container_versions(&["v99"]);
    }

    #[test]
    fn unknown_field_is_error() {
        let h = two_level_hier();
        let res = compress_hierarchy_field(
            &h,
            "nope",
            &SzInterp,
            ErrorBound::Rel(1e-3),
            &AmrCodecConfig::default(),
        );
        assert!(res.is_err());
    }

    /// A bound that resolves to infinity is a typed error, not a panic in
    /// a pool worker.
    #[test]
    fn non_finite_bound_is_a_typed_error() {
        let h = two_level_hier();
        for bound in [ErrorBound::Abs(f64::INFINITY), ErrorBound::Rel(1e308)] {
            let res = compress_hierarchy_field(
                &h,
                "rho",
                &SzLr::default(),
                bound,
                &AmrCodecConfig::default(),
            );
            assert!(matches!(res, Err(CompressError::Malformed(_))), "{bound:?}");
            let res = crate::compress_zmesh(&h, "rho", bound);
            assert!(matches!(res, Err(CompressError::Malformed(_))), "{bound:?}");
        }
    }
}
