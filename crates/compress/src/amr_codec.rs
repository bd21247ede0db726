//! AMR-aware compression: applying a field compressor level-by-level to a
//! patch-based hierarchy.
//!
//! Each fab (one box of one level) is compressed as an independent 3D field,
//! exactly how in-situ AMR compression operates on AMReX data (one dataset
//! per level, paper §2.2). A relative error bound is resolved against the
//! *global* value range across all levels so every level honors the same
//! absolute bound.
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
    prolong_trilinear, rasterize_into, restrict_average, AmrHierarchy, Fab, MultiFab,
};
use amrviz_codec::{fnv1a_64, DecodeBudget};

use crate::field::Field3View;
use crate::wire::{ByteReader, ByteWriter};
use crate::{CompressError, Compressor, ErrorBound};
use amrviz_par::scratch;
use std::ops::ControlFlow;

/// Magic byte opening a serialized [`CompressedHierarchyField`] container.
pub const CONTAINER_MAGIC: u8 = 0xC3;

/// Container wire version: magic/version preamble plus a per-blob FNV-1a
/// checksum. It is the only version [`CompressedHierarchyField::from_bytes`]
/// accepts.
pub const CONTAINER_VERSION: u8 = 2;

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

/// A compressed hierarchy field: one blob per (fab, piece) per level, plus
/// enough metadata to report sizes and verify integrity. Use
/// [`decompress_hierarchy_field`] with the same hierarchy structure to
/// decode.
#[derive(Debug, Clone)]
pub struct CompressedHierarchyField {
    /// `blobs[level][piece]`.
    pub blobs: Vec<Vec<Vec<u8>>>,
    /// FNV-1a checksum of each blob, aligned with `blobs`. Verified before
    /// each blob is decompressed; a mismatch is a per-fab decode failure.
    pub checksums: Vec<Vec<u64>>,
    /// The absolute error bound every level was encoded with.
    pub abs_eb: f64,
    /// Number of scalar values across all levels.
    pub n_values: usize,
}

impl CompressedHierarchyField {
    /// Builds the struct from blobs, computing checksums.
    pub fn from_blobs(blobs: Vec<Vec<Vec<u8>>>, abs_eb: f64, n_values: usize) -> Self {
        let checksums = blobs
            .iter()
            .map(|level| level.iter().map(|b| fnv1a_64(b)).collect())
            .collect();
        CompressedHierarchyField {
            blobs,
            checksums,
            abs_eb,
            n_values,
        }
    }

    /// Total compressed payload size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.blobs
            .iter()
            .flat_map(|level| level.iter().map(Vec::len))
            .sum()
    }

    /// How many blobs no longer hash to their stored checksum — the pieces
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

    /// Serializes to the v2 container:
    ///
    /// ```text
    /// u8 CONTAINER_MAGIC (0xC3), u8 CONTAINER_VERSION (2),
    /// f64 abs_eb, uvarint n_values, uvarint n_levels,
    /// per level: uvarint n_blobs,
    ///   per blob: u64le fnv1a checksum, uvarint len, bytes
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(CONTAINER_MAGIC);
        w.u8(CONTAINER_VERSION);
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
    /// Only the v2 layout written by [`CompressedHierarchyField::to_bytes`]
    /// is accepted; a stream without the magic byte or with another version
    /// is `Malformed`, so the stored checksums are always the ones that were
    /// written. Parsing is structural only — a blob with a wrong checksum is
    /// parsed fine here and surfaces later, per-fab, during decode (which
    /// is what lets [`DecodePolicy::Degrade`] repair it).
    pub fn from_bytes_budgeted(bytes: &[u8], budget: &DecodeBudget) -> Result<Self, CompressError> {
        match bytes {
            [CONTAINER_MAGIC, CONTAINER_VERSION, ..] => Self::parse_v2(bytes, budget),
            [CONTAINER_MAGIC, version, ..] => Err(CompressError::Malformed(format!(
                "unsupported container version {version} (expected {CONTAINER_VERSION})"
            ))),
            _ => Err(CompressError::Malformed(
                "missing container magic/version preamble".into(),
            )),
        }
    }

    fn parse_v2(bytes: &[u8], budget: &DecodeBudget) -> Result<Self, CompressError> {
        let mut r = ByteReader::with_budget(bytes, *budget);
        r.u8()?; // magic
        r.u8()?; // version
        let abs_eb = r.f64()?;
        let n_values = budget.check_values(r.uvarint()? as usize)?;
        let nlev = r.uvarint()? as usize;
        // Each level costs at least one byte (its blob count).
        if nlev > r.remaining() {
            return Err(CompressError::Malformed(
                "level count exceeds stream".into(),
            ));
        }
        let mut blobs = Vec::with_capacity(nlev);
        let mut checksums = Vec::with_capacity(nlev);
        for _ in 0..nlev {
            let nblob = r.uvarint()? as usize;
            // Each blob costs at least 9 bytes (checksum + length prefix).
            if nblob > r.remaining() / 9 {
                return Err(CompressError::Malformed("blob count exceeds stream".into()));
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
    let abs_eb = bound.resolve(|| global_range(&amr_field.levels));
    amrviz_obs::gauge_set("compress.abs_eb", abs_eb);

    let mut blobs = Vec::with_capacity(hier.num_levels());
    let mut n_values = 0usize;
    for (lev, mf) in amr_field.levels.iter().enumerate() {
        let mut sp = amrviz_obs::span!("compress.level", level = lev);
        // Enumerate (fab, piece) tasks, then compress them in parallel.
        let mut tasks: Vec<(usize, amrviz_amr::Box3)> = Vec::new();
        let mut level_values = 0usize;
        for (fi, fab) in mf.fabs().iter().enumerate() {
            let bx = fab.box3();
            level_values += bx.num_cells();
            for piece in encode_pieces(hier, lev, bx, cfg) {
                tasks.push((fi, piece));
            }
        }
        n_values += level_values;
        // Fan the pieces across the pool; results come back in task order,
        // so the per-level blob sequence is identical at any thread count.
        let level_blobs: Vec<Vec<u8>> = amrviz_par::run(tasks.len(), |ti| {
            let (fi, piece) = tasks[ti];
            let fab = &mf.fabs()[fi];
            // A piece that is its fab's whole box (always, unless redundant
            // data is skipped) compresses straight off the fab; a sub-box is
            // gathered into per-thread scratch first. Either way the
            // compressor reads a borrowed view — no owned sub-fab or `Field3`
            // per piece. The blob itself stays a fresh `Vec`: it outlives
            // the task as part of the returned `CompressedHierarchyField`.
            let mut vals = scratch::take_f64();
            let data = if piece == fab.box3() {
                fab.data()
            } else {
                vals.resize(piece.num_cells(), 0.0);
                fab.read_region_into(piece, &mut vals);
                &vals
            };
            // Per-piece latency + blob-size distributions. The Instant pair
            // is gated so a disabled recorder costs nothing extra here.
            let t0 = amrviz_obs::is_enabled().then(std::time::Instant::now);
            let mut blob = Vec::new();
            compressor.compress_into(
                Field3View::new(piece.size(), data),
                ErrorBound::Abs(abs_eb),
                &mut blob,
            );
            if let Some(t0) = t0 {
                amrviz_obs::histogram!("compress.piece_us", t0.elapsed().as_micros());
                amrviz_obs::histogram!("compress.blob_bytes", blob.len());
            }
            scratch::give_f64(vals);
            blob
        });
        let level_bytes: usize = level_blobs.iter().map(Vec::len).sum();
        amrviz_obs::counter!("compress.bytes_in", level_values * 8);
        amrviz_obs::counter!("compress.bytes_out", level_bytes);
        sp.add_field("pieces", tasks.len());
        sp.add_field("bytes_in", level_values * 8);
        sp.add_field("bytes_out", level_bytes);
        blobs.push(level_blobs);
    }
    Ok(CompressedHierarchyField::from_blobs(
        blobs, abs_eb, n_values,
    ))
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
fn encode_pieces(
    hier: &AmrHierarchy,
    lev: usize,
    bx: amrviz_amr::Box3,
    cfg: &AmrCodecConfig,
) -> Vec<amrviz_amr::Box3> {
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

/// How [`decompress_hierarchy_field_into`] treats a fab blob that fails
/// its checksum or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePolicy {
    /// First failure aborts the decode with
    /// [`CompressError::FabDecode`] naming the level and fab.
    #[default]
    Strict,
    /// Failed fabs are reconstructed from neighbor levels — trilinear
    /// prolongation from the coarser level, or (at level 0) restriction
    /// from the finer level — and reported in the [`DecodeReport`]. Only
    /// fabs with no neighbor data at all stay zero-filled.
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
    /// At least one piece failed but was reconstructed from a neighbor
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
/// Returns one [`MultiFab`] per level. Strict policy: any bad blob is an
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
/// decode budget, decoding into caller-owned level storage. Every blob's
/// FNV-1a checksum is verified before it is decompressed; under
/// [`DecodePolicy::Degrade`], fabs whose blobs fail checksum or decode are
/// rebuilt from neighbor levels and the returned [`DecodeReport`] says
/// which fabs were touched and why. Structural problems (wrong level/blob
/// counts for this hierarchy) are hard errors under either policy — there
/// is nothing to degrade onto.
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

/// The (fab, piece) schedule of one level, reconstructed from the hierarchy
/// exactly as the encoder enumerated it. Tasks are fab-major, so each fab's
/// pieces occupy one contiguous task range — which is what lets the decode
/// fan out per *fab* with every worker writing straight into its own fab's
/// buffer.
struct LevelPlan {
    tasks: Vec<(usize, amrviz_amr::Box3)>,
    fab_tasks: Vec<std::ops::Range<usize>>,
}

/// Failed pieces of one level: (fab index, piece box, error).
type LevelFailures = Vec<(usize, amrviz_amr::Box3, CompressError)>;

/// [`decompress_hierarchy_field_into`] as one coarse → fine walk that hands
/// each level to `sink(level, data, degraded_fabs)` the moment nothing later
/// in the decode can change it — `degraded_fabs` counts the level's fabs
/// that did not decode cleanly. The sink runs on the calling thread, once
/// per level, in level order; returning [`ControlFlow::Break`] stops the
/// walk (the report then covers the levels handed over so far, and the
/// finer entries of `levels` are unspecified).
///
/// When a level is final: every level's structure is checked against the
/// stream before anything decodes. Level `k ≥ 1` is final once it has
/// decoded and its failed pieces are prolonged from level `k − 1`, itself
/// final by then. Level 0 is final as soon as it has decoded cleanly; with
/// failed pieces it waits for level 1 to decode, because restriction from
/// the *unrepaired* finer level is its repair. `restore_redundant` rewrites
/// coarse cells from finer levels, so it holds every level to the end.
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
    let nlev = hier.num_levels();
    if compressed.blobs.len() != nlev {
        return Err(CompressError::Malformed(format!(
            "{} levels in stream, hierarchy has {nlev}",
            compressed.blobs.len(),
        )));
    }
    let plans = (0..nlev)
        .map(|lev| plan_level(hier, compressed, cfg, lev))
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
            degraded.push(settle_level(hier, levels, settled, failed, &mut report));
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

/// Reconstructs level `lev`'s piece schedule and checks the stream's blob
/// and checksum tables against it.
fn plan_level(
    hier: &AmrHierarchy,
    compressed: &CompressedHierarchyField,
    cfg: &AmrCodecConfig,
    lev: usize,
) -> Result<LevelPlan, CompressError> {
    let ba = hier.box_array(lev);
    let mut tasks: Vec<(usize, amrviz_amr::Box3)> = Vec::new();
    let mut fab_tasks: Vec<std::ops::Range<usize>> = Vec::with_capacity(ba.len());
    for (fi, bx) in ba.iter().enumerate() {
        let start = tasks.len();
        for piece in encode_pieces(hier, lev, *bx, cfg) {
            tasks.push((fi, piece));
        }
        fab_tasks.push(start..tasks.len());
    }
    let n_blobs = compressed.blobs[lev].len();
    if tasks.len() != n_blobs {
        return Err(CompressError::Malformed(format!(
            "level {lev}: {n_blobs} blobs for {} pieces",
            tasks.len()
        )));
    }
    if compressed.checksums.get(lev).map(Vec::len) != Some(n_blobs) {
        return Err(CompressError::Malformed(format!(
            "level {lev}: checksum table does not match blob count"
        )));
    }
    Ok(LevelPlan { tasks, fab_tasks })
}

/// Decodes every piece of level `lev` into `mf` and returns the pieces that
/// failed, in task order. A deadline breach, or any failure under
/// [`DecodePolicy::Strict`], is the error.
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
    let (level_blobs, sums) = (&compressed.blobs[lev], &compressed.checksums[lev]);
    // One chunk per fab: each worker decodes that fab's pieces into
    // per-thread scratch and writes them into the fab's (reused) buffer.
    // Failures land in a mutex in scheduling order and are re-sorted by
    // task index so reporting is thread-count independent.
    let failed: std::sync::Mutex<Vec<(usize, usize, amrviz_amr::Box3, CompressError)>> =
        std::sync::Mutex::new(Vec::new());
    amrviz_par::for_each_chunk_mut(mf.fabs_mut(), 1, |fi, chunk| {
        let fab = &mut chunk[0];
        for ti in plan.fab_tasks[fi].clone() {
            let (_, piece) = plan.tasks[ti];
            if let Err(e) =
                decode_piece_into(compressor, &level_blobs[ti], sums[ti], piece, budget, fab)
            {
                failed
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push((ti, fi, piece, e));
            }
        }
    });
    let mut failed = failed.into_inner().unwrap_or_else(|p| p.into_inner());
    failed.sort_by_key(|&(ti, ..)| ti);
    // A deadline breach is *not* repairable data: escalate it to a typed
    // error even under `Degrade`, so a timed-out request can never be
    // passed off as a degraded-but-served hierarchy.
    let fatal = failed
        .iter()
        .position(|(.., e)| e.is_deadline())
        .or(match policy {
            DecodePolicy::Strict if !failed.is_empty() => Some(0),
            _ => None,
        });
    if let Some(i) = fatal {
        let (_, fab, _, e) = failed.swap_remove(i);
        return Err(CompressError::FabDecode {
            level: lev,
            fab,
            source: Box::new(e),
        });
    }
    let level_bytes: usize = level_blobs.iter().map(Vec::len).sum();
    amrviz_obs::counter!("decompress.bytes_in", level_bytes);
    amrviz_obs::counter!("decompress.bytes_out", mf.num_cells() * 8);
    sp.add_field("pieces", plan.tasks.len());
    sp.add_field("bytes_in", level_bytes);
    Ok(failed
        .into_iter()
        .map(|(_, fi, piece, e)| (fi, piece, e))
        .collect())
}

/// Repairs level `lev`'s failed pieces from its neighbor levels, appends
/// the level's fab statuses to `report`, and returns how many of its fabs
/// are not clean.
fn settle_level(
    hier: &AmrHierarchy,
    levels: &mut [MultiFab],
    lev: usize,
    failed: LevelFailures,
    report: &mut DecodeReport,
) -> u32 {
    let mut fab_status: Vec<FabStatus> = vec![FabStatus::Ok; hier.box_array(lev).len()];
    for (fi, piece, e) in failed {
        let status = repair_piece(hier, levels, lev, piece, e.to_string());
        // A fab with several failed pieces keeps its worst status
        // (Failed > Degraded > Ok).
        if !matches!(fab_status[fi], FabStatus::Failed { .. }) {
            fab_status[fi] = status;
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
        let ratio = hier.ratio_at(lev);
        let (coarse_slice, fine_slice) = levels.split_at_mut(lev + 1);
        let coarse = &mut coarse_slice[lev];
        let fine = &fine_slice[0];
        for cfab in coarse.fabs_mut() {
            for ffab in fine.fabs() {
                let fine_bx = ffab.box3();
                // Only coarse cells with a full set of fine children can
                // be restored by averaging; a degenerate unaligned fine
                // box may fully cover none (its coarse parent keeps its
                // own encoded data — `encode_pieces` never skipped it).
                let Some(covered) = fine_bx.coarsen_inward(ratio) else {
                    continue;
                };
                let Some(overlap) = cfab.box3().intersect(&covered) else {
                    continue;
                };
                let restricted = restrict_average(ffab, overlap, ratio);
                cfab.copy_from(&restricted);
            }
        }
    }
}

/// Shapes `levels[lev]` onto `ba`, reusing the existing fab allocations
/// when the boxes already match. A reused fab is zeroed only if its pieces
/// do not tile it with one whole-box piece: cells no piece covers (skipped
/// redundant regions) must decode to zero, exactly as a fresh decode would,
/// while a whole-box piece overwrites the fab on success and
/// [`decode_piece_into`] zeroes it on failure.
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

/// Verifies and decodes one piece blob into `fab` over `piece`. A piece
/// that is the fab's whole box decodes straight into the fab's buffer; a
/// sub-box goes through per-thread scratch (no per-piece `Fab` or owned
/// `Field3`). A failed piece leaves its cells zero: a sub-box piece never
/// writes them, a whole-box piece re-zeroes the (possibly recycled) fab.
fn decode_piece_into(
    compressor: &dyn Compressor,
    blob: &[u8],
    sum: u64,
    piece: amrviz_amr::Box3,
    budget: &DecodeBudget,
    fab: &mut Fab,
) -> Result<(), CompressError> {
    if fnv1a_64(blob) != sum {
        if piece == fab.box3() {
            fab.data_mut().fill(0.0);
        }
        return Err(CompressError::Malformed("blob checksum mismatch".into()));
    }
    let t0 = amrviz_obs::is_enabled().then(std::time::Instant::now);
    let decode = |vals: &mut Vec<f64>| {
        let dims = compressor.decompress_into(blob, budget, vals)?;
        if let Some(t0) = t0 {
            amrviz_obs::histogram!("decompress.piece_us", t0.elapsed().as_micros());
        }
        if dims != piece.size() {
            return Err(CompressError::Malformed(format!(
                "piece dims {:?} but box size {:?}",
                dims,
                piece.size()
            )));
        }
        Ok(())
    };
    if piece == fab.box3() {
        return fab.refill_with(decode);
    }
    let mut vals = scratch::take_f64();
    let decoded = decode(&mut vals);
    if decoded.is_ok() {
        fab.write_region_from(piece, &vals);
    }
    scratch::give_f64(vals);
    decoded
}

/// Rebuilds one failed piece from neighbor-level data and returns the
/// resulting [`FabStatus`]. Levels below `lev` have already been repaired
/// (the caller sweeps coarse to fine), so prolongation reads best-available
/// data.
fn repair_piece(
    hier: &AmrHierarchy,
    levels: &mut [MultiFab],
    lev: usize,
    piece: amrviz_amr::Box3,
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
        let ratio = hier.ratio_at(0);
        let (coarse_slice, fine_slice) = levels.split_at_mut(1);
        let fine = &fine_slice[0];
        let mut covered_any = false;
        for cfab in coarse_slice[0].fabs_mut() {
            let Some(target) = cfab.box3().intersect(&piece) else {
                continue;
            };
            for ffab in fine.fabs() {
                let Some(overlap) = target.intersect(&ffab.box3().coarsen(ratio)) else {
                    continue;
                };
                let restricted = restrict_average(ffab, overlap, ratio);
                cfab.copy_from(&restricted);
                covered_any = true;
            }
        }
        if covered_any {
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
    use amrviz_amr::{Box3, BoxArray, Geometry, IntVect};

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
        let compressors: [&dyn Compressor; 2] = [&SzLr::default(), &SzInterp];
        for comp in compressors {
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
        let cfg = AmrCodecConfig {
            skip_redundant: true,
            restore_redundant: true,
        };
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
        let cfg = AmrCodecConfig::default();
        let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        let bytes = c.to_bytes();
        let back = CompressedHierarchyField::from_bytes(&bytes).unwrap();
        assert_eq!(back.abs_eb, c.abs_eb);
        assert_eq!(back.n_values, c.n_values);
        assert_eq!(back.blobs, c.blobs);
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
        // Flip one byte inside the fine level's blob; the stored checksum
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
    fn whole_box_piece_that_fails_after_decoding_leaves_the_fab_zero() {
        // The fab's blob is replaced by a valid stream of the wrong shape
        // (checksum and all): the decoder fills the fab's own buffer before
        // the shape check rejects it, and a failed piece must read as zero.
        let geom = Geometry::unit(Box3::from_dims(8, 8, 8));
        let mut h = AmrHierarchy::new(geom, vec![], vec![BoxArray::single(geom.domain)]).unwrap();
        h.add_field_from_fn("rho", |_, iv| 1.0 + iv[0] as f64)
            .unwrap();
        let cfg = AmrCodecConfig::default();
        for comp in [
            &SzLr::default() as &dyn Compressor,
            &SzInterp,
            &crate::ZfpLike,
        ] {
            // Same cell count, other shape: only the shape check can object.
            let other = crate::Field3::from_fn([4, 8, 16], |i, _, _| 5.0 + i as f64);
            let blob = comp.compress(&other, ErrorBound::Abs(1e-3));
            let c = CompressedHierarchyField::from_blobs(vec![vec![blob]], 1e-3, 512);
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
    /// level into fully zeroed storage, then repair every level coarse to
    /// fine, then restore redundant cells. Kept as the oracle the walk must
    /// reproduce bit for bit.
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
        let mut failures: Vec<Vec<(usize, amrviz_amr::Box3, String)>> = vec![Vec::new(); nlev];
        for lev in 0..nlev {
            let plan = plan_level(hier, compressed, cfg, lev)?;
            for (ti, &(fi, piece)) in plan.tasks.iter().enumerate() {
                let fab = &mut levels[lev].fabs_mut()[fi];
                let (blob, sum) = (&compressed.blobs[lev][ti], compressed.checksums[lev][ti]);
                if let Err(e) = decode_piece_into(compressor, blob, sum, piece, budget, fab) {
                    if policy == DecodePolicy::Strict {
                        return Err(e);
                    }
                    failures[lev].push((fi, piece, e.to_string()));
                }
            }
        }
        let mut report = DecodeReport::default();
        for (lev, lev_failures) in failures.iter_mut().enumerate() {
            let mut fab_status = vec![FabStatus::Ok; hier.box_array(lev).len()];
            for (fi, piece, cause) in lev_failures.drain(..) {
                let status = repair_piece(hier, &mut levels, lev, piece, cause);
                if !matches!(fab_status[fi], FabStatus::Failed { .. }) {
                    fab_status[fi] = status;
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
        let skip_restore = AmrCodecConfig {
            skip_redundant: true,
            restore_redundant: true,
        };
        // (name, hierarchy, config, blobs to damage as (level, blob)).
        type Case<'a> = (
            &'a str,
            &'a AmrHierarchy,
            AmrCodecConfig,
            Vec<(usize, usize)>,
        );
        let two = two_level_hier();
        let nyx = nyx_like_hier();
        let three = three_level_hier();
        let plain = AmrCodecConfig::default();
        let cases: Vec<Case> = vec![
            ("clean", &two, plain, vec![]),
            ("damaged fine", &two, plain, vec![(1, 0)]),
            ("damaged coarse", &two, plain, vec![(0, 1), (0, 2)]),
            ("damaged coarse, one fab", &nyx, plain, vec![(0, 0)]),
            ("damaged both", &two, plain, vec![(0, 3), (1, 0)]),
            ("three levels clean", &three, plain, vec![]),
            (
                "three levels, every level damaged",
                &three,
                plain,
                vec![(0, 0), (1, 1), (2, 0)],
            ),
            (
                "three levels, middle and fine",
                &three,
                plain,
                vec![(1, 0), (2, 1)],
            ),
            ("restore redundant", &two, skip_restore, vec![]),
            (
                "restore redundant, damaged",
                &two,
                skip_restore,
                vec![(0, 0), (1, 0)],
            ),
            (
                "restore redundant, three levels",
                &three,
                skip_restore,
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
                for &(lev, blob) in damage {
                    let mid = c.blobs[lev][blob].len() / 2;
                    c.blobs[lev][blob][mid] ^= 0xFF;
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
                assert_eq!(
                    report.is_clean(),
                    damage.is_empty(),
                    "{name}: damage must show in the report"
                );
            }
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
        // compressor rejects.
        let mut bad_sum = clean.clone();
        bad_sum.checksums[0][0] ^= 1;
        let mut bad_stream = clean.blobs.clone();
        bad_stream[0][0].truncate(5);
        let bad_stream = CompressedHierarchyField::from_blobs(bad_stream, 1e-3, 512);
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
    fn v2_container_detects_checksum_mismatch_after_roundtrip() {
        let h = two_level_hier();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        let mut bytes = c.to_bytes();
        assert_eq!(bytes[0], CONTAINER_MAGIC);
        assert_eq!(bytes[1], CONTAINER_VERSION);
        // Corrupt a byte near the end (inside the last blob's payload).
        let at = bytes.len() - 8;
        bytes[at] ^= 0x01;
        // Structural parse still succeeds — integrity is per-blob.
        let back = CompressedHierarchyField::from_bytes(&bytes).unwrap();
        let err = decompress_hierarchy_field(&h, &back, &comp, &cfg).unwrap_err();
        assert!(matches!(err, CompressError::FabDecode { .. }), "got {err}");
    }

    #[test]
    fn legacy_v1_stream_is_rejected() {
        let h = two_level_hier();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        // Serialize by hand in the v1 layout (no magic, no checksums). It
        // must not parse: accepting it would mean recomputing checksums
        // from the blobs, i.e. "verifying" a stream whose integrity words
        // were stripped.
        let mut w = ByteWriter::new();
        w.f64(c.abs_eb);
        w.uvarint(c.n_values as u64);
        w.uvarint(c.blobs.len() as u64);
        for level in &c.blobs {
            w.uvarint(level.len() as u64);
            for blob in level {
                w.section(blob);
            }
        }
        let err = CompressedHierarchyField::from_bytes(&w.finish()).unwrap_err();
        assert!(matches!(err, CompressError::Malformed(_)), "got {err}");
        assert!(err.to_string().contains("magic"), "got {err}");

        // A v2 parse error is reported as itself, not masked by a retry.
        let mut bytes = c.to_bytes();
        bytes.push(0);
        let err = CompressedHierarchyField::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CompressError::Malformed(_)), "got {err}");
        assert!(err.to_string().contains("trailing bytes"), "got {err}");
    }

    #[test]
    fn unknown_container_version_rejected_clearly() {
        let h = two_level_hier();
        let comp = SzInterp;
        let cfg = AmrCodecConfig::default();
        let c = compress_hierarchy_field(&h, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        let mut bytes = c.to_bytes();
        bytes[1] = 99;
        let err = CompressedHierarchyField::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CompressError::Malformed(_)), "got {err}");
        assert!(
            err.to_string().contains("unsupported container version"),
            "got: {err}"
        );
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
}
