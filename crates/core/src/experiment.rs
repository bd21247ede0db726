//! Experiment runners — one per table/figure of the paper.
//!
//! All timing is measured through `amrviz-obs` spans: the seconds recorded
//! in result rows (e.g. [`CompressionRun::compress_seconds`]) are the same
//! wall-clock durations the trace exporters see, so a `--trace` file and
//! the tabulated timings can never disagree.

use amrviz_amr::resample::{flatten_levels_to_finest, Upsample};
use amrviz_amr::{Geometry, MultiFab};
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, CompressError,
    CompressionStats, Compressor, ErrorBound, SzInterp, SzLr, ZfpLike,
};
use amrviz_metrics::{quality, rssim, ssim2, ssim3, QualityStats, SsimConfig};
use amrviz_render::{render_mesh, Camera, RenderOptions};
use amrviz_viz::{
    extract_amr_isosurface, interface_gap, normal_roughness, surface_distance_to, CrackMetrics,
    IsoMethod, TriLocator,
};

use crate::scenario::BuiltScenario;

/// The compressors under evaluation (paper §3.3 plus the ZFP-like
/// extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressorKind {
    SzLr,
    SzInterp,
    ZfpLike,
}

impl CompressorKind {
    pub fn label(self) -> &'static str {
        match self {
            CompressorKind::SzLr => "SZ-L/R",
            CompressorKind::SzInterp => "SZ-Itp",
            CompressorKind::ZfpLike => "ZFP-like",
        }
    }

    /// The two the paper evaluates.
    pub const PAPER: [CompressorKind; 2] = [CompressorKind::SzLr, CompressorKind::SzInterp];

    pub fn instance(self) -> Box<dyn Compressor> {
        match self {
            CompressorKind::SzLr => Box::new(SzLr::default()),
            CompressorKind::SzInterp => Box::new(SzInterp),
            CompressorKind::ZfpLike => Box::new(ZfpLike),
        }
    }
}

/// One compression run: Table 2's columns (plus timings and bitrate).
#[derive(Debug, Clone)]
pub struct CompressionRun {
    /// Scenario label ("Nyx", "WarpX", or a recipe-derived label).
    pub scenario: String,
    /// Canonical recipe string reproducing the scenario (provenance).
    pub recipe: String,
    pub compressor: &'static str,
    pub rel_error_bound: f64,
    pub abs_error_bound: f64,
    /// CR against the stored f64 representation.
    pub compression_ratio: f64,
    /// CR against an f32 baseline — comparable to the paper's Table 2
    /// (Nyx/WarpX dumps are single precision).
    pub compression_ratio_f32: f64,
    pub bits_per_value: f64,
    pub psnr_db: f64,
    pub ssim: f64,
    pub rssim: f64,
    pub max_abs_error: f64,
    pub compress_seconds: f64,
    pub decompress_seconds: f64,
    /// Trace id the run's spans were recorded under (0 when the recorder
    /// is disabled). Lets a reader jump from a Table 2 row straight to the
    /// matching span tree in a `--journal` file.
    pub trace_id: u64,
}

/// Compresses and decompresses a built scenario's evaluation field, then
/// scores the reconstruction on the uniform-resolution merge. Errors
/// (unknown field, a stream that fails to decode) propagate instead of
/// panicking, so callers decide how a failed run is reported.
pub fn run_compression(
    built: &BuiltScenario,
    kind: CompressorKind,
    rel_eb: f64,
) -> Result<CompressionRun, CompressError> {
    let comp = kind.instance();
    let field = built.spec.eval_field();
    let cfg = AmrCodecConfig::default();

    let sp = amrviz_obs::span!("compress", compressor = kind.label(), rel_eb = rel_eb);
    // Captured while the root span is live: all of this run's spans share it.
    let trace_id = amrviz_obs::current_trace_id();
    let compressed = compress_hierarchy_field(
        &built.hierarchy,
        field,
        comp.as_ref(),
        ErrorBound::Rel(rel_eb),
        &cfg,
    )?;
    let compress_seconds = sp.finish();

    let sp = amrviz_obs::span!("decompress", compressor = kind.label());
    let levels = decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg)?;
    let decompress_seconds = sp.finish();

    let sp_score = amrviz_obs::span!("score", compressor = kind.label());
    let stats = CompressionStats::new(compressed.n_values, compressed.compressed_bytes());
    let (q, s) = score(built, &levels, compressed.abs_eb)?;
    sp_score.finish();
    Ok(CompressionRun {
        scenario: built.spec.label(),
        recipe: built.spec.recipe.clone(),
        compressor: kind.label(),
        rel_error_bound: rel_eb,
        abs_error_bound: compressed.abs_eb,
        compression_ratio: stats.ratio(),
        compression_ratio_f32: stats.ratio_vs_f32(),
        bits_per_value: stats.bits_per_value(),
        psnr_db: q.psnr,
        ssim: s,
        rssim: rssim(s),
        max_abs_error: q.max_abs_err,
        compress_seconds,
        decompress_seconds,
        trace_id,
    })
}

/// Scores decompressed level data on the uniform-resolution merge: the
/// pointwise statistics and SSIM. A reconstruction further than `abs_eb`
/// from the original (with the 1e-12 relative slack `error_bounds.rs` and
/// the benchmark allow) is an error, so no table cell is printed for a
/// compressor that broke its bound.
fn score(
    built: &BuiltScenario,
    levels: &[MultiFab],
    abs_eb: f64,
) -> Result<(QualityStats, f64), CompressError> {
    let recon_uniform = flatten_levels(built, levels)?;
    let q = quality(&built.uniform.data, &recon_uniform);
    // `!(a <= b)` so that a NaN error fails the check too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(q.max_abs_err <= abs_eb * (1.0 + 1e-12)) {
        return Err(CompressError::BoundViolated {
            max_abs_error: q.max_abs_err,
            abs_eb,
        });
    }
    let s = ssim3(
        &built.uniform.data,
        &recon_uniform,
        built.uniform.dims(),
        &SsimConfig::default(),
    );
    Ok((q, s))
}

/// Merges decompressed level data to the finest uniform resolution. The
/// level multifabs are borrowed directly — no hierarchy clone and no
/// temporary field attachment.
fn flatten_levels(built: &BuiltScenario, levels: &[MultiFab]) -> Result<Vec<f64>, CompressError> {
    let _sp = amrviz_obs::span!("flatten_levels");
    flatten_levels_to_finest(&built.hierarchy, levels, Upsample::PiecewiseConstant)
        .map(|u| u.data)
        .map_err(|e| CompressError::Malformed(e.to_string()))
}

/// Table 1 row: dataset structure.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub scenario: String,
    pub levels: usize,
    pub grid_sizes: Vec<[usize; 3]>,
    /// Per-level fraction of the domain whose finest data is that level.
    pub densities: Vec<f64>,
    pub total_cells: usize,
}

/// Regenerates Table 1 from built scenarios.
pub fn run_table1(built: &[&BuiltScenario]) -> Vec<Table1Row> {
    let _sp = amrviz_obs::span!("run.table1", scenarios = built.len());
    built
        .iter()
        .map(|b| {
            let h = &b.hierarchy;
            Table1Row {
                scenario: b.spec.label(),
                levels: h.num_levels(),
                grid_sizes: (0..h.num_levels())
                    .map(|l| h.level_domain(l).size())
                    .collect(),
                densities: (0..h.num_levels()).map(|l| h.level_density(l)).collect(),
                total_cells: h.total_cells(),
            }
        })
        .collect()
}

/// Regenerates Table 2: both compressors × three error bounds per app.
pub fn run_table2(built: &BuiltScenario) -> Result<Vec<CompressionRun>, CompressError> {
    let _sp = amrviz_obs::span!("run.table2");
    sweep(built, &[1e-4, 1e-3, 1e-2])
}

/// Sweeps error bounds for both compressors (Fig. 12 for WarpX "Ez",
/// Fig. 13 for Nyx "Density"); [`crate::report::RATE_DISTORTION`] shows
/// each run as a rate-distortion point.
pub fn run_rate_distortion(
    built: &BuiltScenario,
    ebs: &[f64],
) -> Result<Vec<CompressionRun>, CompressError> {
    let _sp = amrviz_obs::span!("run.rate_distortion", bounds = ebs.len());
    sweep(built, ebs)
}

/// One run per paper compressor and bound, compressor-major.
pub fn sweep(built: &BuiltScenario, ebs: &[f64]) -> Result<Vec<CompressionRun>, CompressError> {
    let kinds = CompressorKind::PAPER.into_iter();
    let runs = kinds.flat_map(|kind| ebs.iter().map(move |&eb| (kind, eb)));
    runs.map(|(kind, eb)| run_compression(built, kind, eb))
        .collect()
}

/// Crack/gap structure of the *original* data under each method (Fig. 1).
#[derive(Debug, Clone)]
pub struct CrackRun {
    pub scenario: String,
    pub method: &'static str,
    pub coarse_triangles: usize,
    pub fine_triangles: usize,
    pub gap: CrackMetrics,
}

/// Extracts the original-data surface with every method and measures the
/// level-interface defects.
pub fn run_crack_analysis(built: &BuiltScenario) -> Vec<CrackRun> {
    let _sp = amrviz_obs::span!("run.crack_analysis");
    let field = built.spec.eval_field();
    let levels = &built.hierarchy.field(field).expect("eval field").levels;
    let geom = built.hierarchy.geometry();
    let mut rows = Vec::new();
    for method in IsoMethod::ALL {
        let res = extract_amr_isosurface(&built.hierarchy, levels, built.iso, method);
        let (coarse, fine) = (&res.level_meshes[0], &res.level_meshes[1]);
        rows.push(CrackRun {
            scenario: built.spec.label(),
            method: method.label(),
            coarse_triangles: coarse.num_triangles(),
            fine_triangles: fine.num_triangles(),
            gap: interface_gap(fine, coarse, geom.prob_lo, geom.prob_hi, 1e-9),
        });
    }
    rows
}

/// Visualization-quality comparison of decompressed data (Figs. 9–11,
/// quantified): how far the decompressed-data surface deviates from the
/// original-data surface under the same method, and how much rougher it
/// got.
#[derive(Debug, Clone)]
pub struct VizQualityRun {
    pub scenario: String,
    pub compressor: &'static str,
    pub rel_error_bound: f64,
    pub method: &'static str,
    /// Mean distance from the decompressed surface to the original one, in
    /// units of a fine cell (scale-free).
    pub surface_error_cells: f64,
    /// Max (Hausdorff-ish) distance in fine cells.
    pub surface_error_max_cells: f64,
    /// Roughness (mean dihedral deviation, radians) of the decompressed
    /// surface minus the original's — positive = bumpier.
    pub roughness_increase: f64,
    /// R-SSIM between renderings of the original-data surface and the
    /// decompressed-data surface under the same method and camera — the
    /// quantified version of the paper's visual judgment in Figs. 9–11.
    pub image_rssim: f64,
    pub triangles: usize,
}

/// A standard camera looking diagonally at the domain.
pub fn standard_camera(geom: &Geometry) -> Camera {
    let center = [
        0.5 * (geom.prob_lo[0] + geom.prob_hi[0]),
        0.5 * (geom.prob_lo[1] + geom.prob_hi[1]),
        0.5 * (geom.prob_lo[2] + geom.prob_hi[2]),
    ];
    let diag = (0..3)
        .map(|a| (geom.prob_hi[a] - geom.prob_lo[a]).powi(2))
        .sum::<f64>()
        .sqrt();
    let eye = [
        center[0] - diag,
        center[1] - 0.6 * diag,
        center[2] + 0.5 * diag,
    ];
    Camera::orthographic(eye, center, 0.55 * diag)
}

/// Runs the decompress → extract → compare pipeline for one compressor at
/// several bounds under both extraction methods.
pub fn run_viz_quality(
    built: &BuiltScenario,
    kind: CompressorKind,
    ebs: &[f64],
    methods: &[IsoMethod],
) -> Result<Vec<VizQualityRun>, CompressError> {
    let _sp = amrviz_obs::span!("run.viz_quality", compressor = kind.label());
    let comp = kind.instance();
    let field = built.spec.eval_field();
    let orig_levels = &built
        .hierarchy
        .field(field)
        .map_err(|e| CompressError::Malformed(e.to_string()))?
        .levels;
    let fine_cell = built.hierarchy.geometry().cell_size_at(
        built
            .hierarchy
            .ratio_to_level0(built.hierarchy.num_levels() - 1),
    )[0];

    // Reference surfaces and renders from the original data, computed once
    // per method (they do not depend on the error bound).
    let cam = standard_camera(built.hierarchy.geometry());
    let opts = RenderOptions {
        width: 480,
        height: 360,
    };
    struct Reference {
        method: IsoMethod,
        locator: Option<TriLocator>,
        roughness: f64,
        lum: Vec<f64>,
    }
    let references: Vec<Reference> = methods
        .iter()
        .map(|&method| {
            let orig = extract_amr_isosurface(&built.hierarchy, orig_levels, built.iso, method)
                .into_combined();
            let lum = render_mesh(&orig, &cam, &opts).luminance();
            let roughness = normal_roughness(&orig);
            Reference {
                method,
                // `orig` is done with borrows here; the locator takes over
                // its buffers rather than copying them.
                locator: TriLocator::build_owned(orig),
                roughness,
                lum,
            }
        })
        .collect();

    let mut rows = Vec::new();
    for &eb in ebs {
        let cfg = AmrCodecConfig::default();
        let compressed = compress_hierarchy_field(
            &built.hierarchy,
            field,
            comp.as_ref(),
            ErrorBound::Rel(eb),
            &cfg,
        )?;
        let levels =
            decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg)?;
        for r in &references {
            let recon = extract_amr_isosurface(&built.hierarchy, &levels, built.iso, r.method)
                .into_combined();
            let dist = r
                .locator
                .as_ref()
                .and_then(|loc| surface_distance_to(&recon, loc));
            let (mean_c, max_c) = match dist {
                Some(d) => (d.mean / fine_cell, d.max / fine_cell),
                None => (f64::NAN, f64::NAN),
            };
            let img_r = render_mesh(&recon, &cam, &opts);
            let image_ssim = ssim2(
                &r.lum,
                &img_r.luminance(),
                [opts.width, opts.height],
                &SsimConfig::default(),
            );
            rows.push(VizQualityRun {
                scenario: built.spec.label(),
                compressor: kind.label(),
                rel_error_bound: eb,
                method: r.method.label(),
                surface_error_cells: mean_c,
                surface_error_max_cells: max_c,
                roughness_increase: normal_roughness(&recon) - r.roughness,
                image_rssim: rssim(image_ssim),
                triangles: recon.num_triangles(),
            });
        }
    }
    Ok(rows)
}

/// The one-dimensional Fig. 14 demonstration: a linear ramp, its blocky
/// reconstruction under a coarse quantizer, and the re-sampled
/// (vertex-averaged + midpoint-interpolated) version that smooths the
/// blocks. Returns `(original, blocky, resampled)`; the resampled series
/// has `n + 1` vertex samples.
pub fn fig14_series(n: usize, eb: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    use amrviz_compress::quantizer::{Quantized, Quantizer};
    let original: Vec<f64> = (0..n).map(|i| i as f64).collect();
    // A large absolute bound makes the quantizer's staircase visible — the
    // 1D stand-in for SZ-L/R's block artifacts (the paper's "111//444//777"
    // sketch). Prediction is held at 0 so the raw quantization staircase
    // shows (the real block compressor would predict the ramp exactly).
    let q = Quantizer::new(eb);
    let blocky: Vec<f64> = original
        .iter()
        .map(|&v| match q.quantize(0.0, v) {
            Quantized::Code { recon, .. } => recon,
            Quantized::Outlier => v,
        })
        .collect();
    // Re-sampling: cell → vertex averaging (paper §2.3, 1D version).
    let mut resampled = Vec::with_capacity(n + 1);
    resampled.push(blocky[0]);
    for i in 1..n {
        resampled.push(0.5 * (blocky[i - 1] + blocky[i]));
    }
    resampled.push(blocky[n - 1]);
    (original, blocky, resampled)
}

/// Second-difference roughness of a series, `Σ |v[i+2] − 2v[i+1] + v[i]|`
/// — how "steppy" it looks, the Fig. 14 smoothing effect in one number
/// (lower = smoother).
pub fn step_roughness(series: &[f64]) -> f64 {
    series
        .windows(3)
        .map(|w| (w[2] - 2.0 * w[1] + w[0]).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Application;
    use amrviz_sim::Scale;

    fn nyx() -> BuiltScenario {
        BuiltScenario::from_spec(Application::Nyx.spec(Scale::Tiny, 42))
    }

    fn warpx() -> BuiltScenario {
        BuiltScenario::from_spec(Application::Warpx.spec(Scale::Tiny, 42))
    }

    #[test]
    fn compression_run_is_sane() {
        let b = warpx();
        let run = run_compression(&b, CompressorKind::SzInterp, 1e-3).unwrap();
        assert!(run.compression_ratio > 4.0, "CR {}", run.compression_ratio);
        assert!(run.psnr_db > 50.0, "PSNR {}", run.psnr_db);
        assert!(run.ssim > 0.99);
        assert!((run.rssim - (1.0 - run.ssim)).abs() < 1e-12);
        assert!(run.max_abs_error <= run.abs_error_bound * (1.0 + 1e-9));
        assert!(run.bits_per_value < 16.0);
    }

    #[test]
    fn reconstruction_outside_its_bound_is_an_error() {
        // Decode a stream compressed at 1e-2 and score it against the bound
        // a 1e-4 run would have promised.
        let b = warpx();
        let comp = CompressorKind::SzLr.instance();
        let cfg = AmrCodecConfig::default();
        let field = b.spec.eval_field();
        let compress = |rel| {
            compress_hierarchy_field(
                &b.hierarchy,
                field,
                comp.as_ref(),
                ErrorBound::Rel(rel),
                &cfg,
            )
            .unwrap()
        };
        let loose = compress(1e-2);
        let levels = decompress_hierarchy_field(&b.hierarchy, &loose, comp.as_ref(), &cfg).unwrap();
        assert!(score(&b, &levels, loose.abs_eb).is_ok());
        let tight_eb = compress(1e-4).abs_eb;
        match score(&b, &levels, tight_eb) {
            Err(CompressError::BoundViolated {
                max_abs_error,
                abs_eb,
            }) => {
                assert_eq!(abs_eb, tight_eb);
                assert!(max_abs_error > tight_eb && max_abs_error <= loose.abs_eb);
            }
            other => panic!("expected a bound violation, got {other:?}"),
        }
    }

    #[test]
    fn table1_structure() {
        let bn = nyx();
        let bw = warpx();
        let rows = run_table1(&[&bw, &bn]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.levels, 2);
            let sum: f64 = row.densities.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        // WarpX refines far less than Nyx.
        assert!(rows[0].densities[1] < rows[1].densities[1]);
    }

    #[test]
    fn table2_has_12_rows_and_monotone_cr() {
        let b = warpx();
        let rows = run_table2(&b).unwrap();
        assert_eq!(rows.len(), 6); // per app: 2 compressors × 3 bounds
        for w in rows.chunks(3) {
            assert!(
                w[0].compression_ratio < w[2].compression_ratio,
                "CR should grow with eb: {} vs {}",
                w[0].compression_ratio,
                w[2].compression_ratio
            );
            assert!(w[0].psnr_db > w[2].psnr_db, "PSNR should fall with eb");
            assert!(w[0].rssim < w[2].rssim, "R-SSIM should grow with eb");
        }
    }

    #[test]
    fn interp_beats_lr_on_warpx_rate_distortion() {
        // The headline of Fig. 12: on smooth data SZ-Interp compresses
        // harder at the same bound.
        let b = warpx();
        let lr = run_compression(&b, CompressorKind::SzLr, 1e-3).unwrap();
        let itp = run_compression(&b, CompressorKind::SzInterp, 1e-3).unwrap();
        assert!(
            itp.compression_ratio > lr.compression_ratio,
            "Interp {} !> L/R {}",
            itp.compression_ratio,
            lr.compression_ratio
        );
    }

    #[test]
    fn crack_analysis_shape() {
        let b = warpx();
        let rows = run_crack_analysis(&b);
        assert_eq!(rows.len(), 3);
        let by = |m: &str| rows.iter().find(|r| r.method == m).unwrap();
        let resample = by("re-sampling");
        let dual = by("dual-cell");
        let fixed = by("dual-cell+redundant");
        // Fig. 1 ordering: dual gap > re-sampling crack > redundant gap.
        assert!(dual.gap.mean_gap > resample.gap.mean_gap);
        assert!(fixed.gap.mean_gap < dual.gap.mean_gap);
    }

    #[test]
    fn dual_cell_amplifies_compression_artifacts() {
        // The paper's central claim (Figs. 9–10, §4.3): at a large bound the
        // dual-cell surface of decompressed WarpX data deviates more from
        // the original surface (and renders worse) than re-sampling's.
        let b = warpx();
        let rows = run_viz_quality(
            &b,
            CompressorKind::SzLr,
            &[1e-2],
            &[IsoMethod::Resampling, IsoMethod::DualCellRedundant],
        )
        .unwrap();
        let resample = rows.iter().find(|r| r.method == "re-sampling").unwrap();
        let dual = rows
            .iter()
            .find(|r| r.method == "dual-cell+redundant")
            .unwrap();
        assert!(
            dual.surface_error_cells > resample.surface_error_cells,
            "dual {} !> re-sampling {}",
            dual.surface_error_cells,
            resample.surface_error_cells
        );
        assert!(
            dual.image_rssim > resample.image_rssim,
            "rendered dual {} !> re-sampling {}",
            dual.image_rssim,
            resample.image_rssim
        );
    }

    #[test]
    fn zfp_like_also_runs() {
        let b = warpx();
        let run = run_compression(&b, CompressorKind::ZfpLike, 1e-3).unwrap();
        assert!(run.compression_ratio > 2.0);
        assert!(run.max_abs_error <= run.abs_error_bound * (1.0 + 1e-9));
    }
}
