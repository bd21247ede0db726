//! The instrumentation self-overhead gate (`amrviz repro obs-overhead`): the same
//! Nyx × SZ-L/R compress → decompress → extract workload timed with the
//! `amrviz-obs` recorder off and with it on plus the journal streaming,
//! failing above [`OBS_OVERHEAD_MAX_PCT`].

use std::path::Path;

use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound,
};
use amrviz_core::prelude::*;
use amrviz_json::Json;

/// Ceiling on instrumentation self-overhead, in percent of wall time:
/// `repro obs-overhead` fails (and CI with it) if enabling the recorder
/// *plus* streaming the journal costs more than this over the same
/// workload run dark.
pub const OBS_OVERHEAD_MAX_PCT: f64 = 3.0;

/// Seconds each timed trial should take after rep calibration. Shorter
/// trials are all scheduler noise; longer ones waste CI minutes.
const OBS_OVERHEAD_TRIAL_SECONDS: f64 = 0.3;

/// Paired trials per arm. Min-of-N discards cache-warmup and scheduler
/// outliers, so the comparison is between the two best observed runs.
const OBS_OVERHEAD_TRIALS: usize = 4;

/// Result of one [`run_obs_overhead`] measurement.
#[derive(Debug, Clone)]
pub struct ObsOverheadReport {
    /// Scenario scale the workload ran at.
    pub scale: String,
    /// Workload repetitions per timed trial (calibrated).
    pub reps: usize,
    /// Paired trials per arm.
    pub trials: usize,
    /// Min-of-trials wall seconds with the recorder disabled.
    pub off_seconds: f64,
    /// Min-of-trials wall seconds with the recorder enabled and the
    /// journal streaming to disk.
    pub on_seconds: f64,
    /// `100 * (on - off) / off`; negative (noise) passes trivially.
    pub overhead_pct: f64,
    /// Spans recorded across the instrumented trials.
    pub spans_recorded: u64,
    /// Journal events enqueued / dropped across the instrumented trials.
    pub journal_enqueued: u64,
    pub journal_dropped: u64,
}

impl ObsOverheadReport {
    pub fn passed(&self) -> bool {
        self.overhead_pct <= OBS_OVERHEAD_MAX_PCT
    }

    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("schema", "amrviz-obs-overhead-v1")
            .set("scale", self.scale.as_str())
            .set("reps", self.reps)
            .set("trials", self.trials)
            .set("off_seconds", self.off_seconds)
            .set("on_seconds", self.on_seconds)
            .set("overhead_pct", self.overhead_pct)
            .set("max_pct", OBS_OVERHEAD_MAX_PCT)
            .set("spans_recorded", self.spans_recorded)
            .set("journal_enqueued", self.journal_enqueued)
            .set("journal_dropped", self.journal_dropped)
            .set("passed", self.passed());
        doc
    }

    pub fn render(&self) -> String {
        format!(
            "obs overhead: Nyx/szlr @ {} x{} reps, min of {} trials\n\
             \x20 dark        {:.4} s\n\
             \x20 instrumented {:.4} s  ({} spans, {} journal lines, {} dropped)\n\
             \x20 overhead    {:+.2}%  (budget {:.0}%) -> {}\n",
            self.scale,
            self.reps,
            self.trials,
            self.off_seconds,
            self.on_seconds,
            self.spans_recorded,
            self.journal_enqueued,
            self.journal_dropped,
            self.overhead_pct,
            OBS_OVERHEAD_MAX_PCT,
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// Measures instrumentation self-overhead on the Nyx × szlr cell at
/// `rel_eb = 1e-3`: the same compress → decompress → extract workload is
/// timed dark (recorder disabled) and fully instrumented (recorder enabled
/// *and* journal streaming into `out_dir`), with paired, rep-calibrated,
/// min-of-N trials. The journal file is left in `out_dir` for inspection.
pub fn run_obs_overhead(scale: Scale, out_dir: &Path) -> ObsOverheadReport {
    let was_enabled = amrviz_obs::is_enabled();
    let built = BuiltScenario::from_spec(Application::Nyx.spec(scale, 42));

    let workload = |b: &BuiltScenario| {
        let kind = CompressorKind::SzLr;
        let comp = kind.instance();
        let codec_cfg = AmrCodecConfig::default();
        let sp = amrviz_obs::span!("bench.compress", compressor = kind.label());
        let compressed = compress_hierarchy_field(
            &b.hierarchy,
            b.spec.eval_field(),
            comp.as_ref(),
            ErrorBound::Rel(1e-3),
            &codec_cfg,
        )
        .expect("scenario field exists");
        sp.finish();
        let sp = amrviz_obs::span!("bench.decompress", compressor = kind.label());
        let levels =
            decompress_hierarchy_field(&b.hierarchy, &compressed, comp.as_ref(), &codec_cfg)
                .expect("own stream decodes");
        sp.finish();
        let sp = amrviz_obs::span!("bench.extract", compressor = kind.label());
        let iso =
            amrviz_viz::extract_amr_isosurface(&b.hierarchy, &levels, b.iso, IsoMethod::Resampling);
        sp.finish();
        std::hint::black_box(iso.total_triangles());
    };
    let time_trial = |b: &BuiltScenario, reps: usize| {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            workload(b);
        }
        t0.elapsed().as_secs_f64()
    };

    // Calibrate reps dark so each trial clears the noise floor.
    amrviz_obs::disable();
    amrviz_obs::reset();
    let once = time_trial(&built, 1).max(1e-9);
    let reps = ((OBS_OVERHEAD_TRIAL_SECONDS / once).ceil() as usize).clamp(1, 500);

    // Paired trials, alternating arms so slow drift (thermal, noisy
    // neighbors) hits both sides equally. Journal start/stop happens
    // outside the timed region — we gate the steady-state recording cost,
    // not writer-thread spawn.
    let journal_path = out_dir.join("obs_overhead_journal.jsonl");
    let _ = std::fs::remove_file(&journal_path);
    let mut off_min = f64::INFINITY;
    let mut on_min = f64::INFINITY;
    for _ in 0..OBS_OVERHEAD_TRIALS {
        amrviz_obs::disable();
        off_min = off_min.min(time_trial(&built, reps));
        amrviz_obs::enable();
        amrviz_obs::journal::start(&journal_path).expect("journal opens in out_dir");
        on_min = on_min.min(time_trial(&built, reps));
        amrviz_obs::journal::stop();
    }
    let meta = amrviz_obs::meta_snapshot();

    if !was_enabled {
        amrviz_obs::disable();
    } else {
        amrviz_obs::enable();
    }
    amrviz_obs::reset();

    ObsOverheadReport {
        scale: format!("{scale:?}"),
        reps,
        trials: OBS_OVERHEAD_TRIALS,
        off_seconds: off_min,
        on_seconds: on_min,
        overhead_pct: 100.0 * (on_min - off_min) / off_min.max(1e-12),
        spans_recorded: meta.spans_recorded,
        journal_enqueued: meta.journal_enqueued,
        journal_dropped: meta.journal_dropped,
    }
}
