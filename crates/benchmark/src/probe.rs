//! Per-layer probes of the traced run. They run after the measured phase,
//! one call at a time through the same public functions, and answer what
//! the spans around whole calls cannot: how much the second thread buys,
//! what each level costs, and how fast the entropy coders run on this
//! workload's own symbols.

use crate::batch::{Cell, CellOut};
use crate::input::Input;
use crate::run::{Tally, PROBE_THREADS, THREADS};
use crate::spec::Metrics;
use crate::stats::p50;
use amrviz_codec::{fnv1a_64, huffman_decode, huffman_encode, lzss_compress, lzss_decompress};
use amrviz_compress::quantizer::{Quantized, Quantizer};
use amrviz_compress::{compress_hierarchy_field, decompress_hierarchy_field, ErrorBound};
use amrviz_core::prelude::IsoMethod;
use amrviz_par::UtilizationReport;
use amrviz_viz::{extract_amr_isosurface, extract_dual_level, extract_resampled_level, DualMode};
use std::time::Instant;

/// Seconds of `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// What the second-thread probe measured.
pub struct SecondThread {
    /// Compress seconds summed over the cells at [`PROBE_THREADS`] (median
    /// of the passes).
    pub enc_s: f64,
    /// Decompress seconds summed over the cells, likewise.
    pub dec_s: f64,
    /// Whole-hierarchy extraction seconds at [`PROBE_THREADS`]: re-sampling,
    /// dual-cell. Empty unless `extract`.
    pub extract_s: Vec<f64>,
    /// Pool utilization over the first pass: one iteration's calls.
    pub util: UtilizationReport,
    /// Extraction seconds per level at [`THREADS`]: re-sampling l0, l1,
    /// dual-cell l0, l1. Empty unless `extract`.
    pub level_s: Vec<f64>,
}

/// Repeats the cells' compress and decompress — and, with `extract`, the
/// two extractions — at [`PROBE_THREADS`]. The one-thread times of the
/// measured phase divided by these give the `par.*_speedup` metrics; the
/// container must hash the same at either pool size. Then, back at
/// [`THREADS`], extracts each level on its own.
pub fn second_thread_pass(
    input: &Input,
    cells: &[Cell],
    extract: bool,
    reference: &[CellOut],
    tally: &mut Tally,
) -> SecondThread {
    amrviz_par::set_threads(PROBE_THREADS);
    amrviz_par::reset_utilization();
    let mut problems = Vec::new();
    let (mut enc, mut dec, mut extract_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut util = None;
    let mut levels = Vec::new();
    let started = Instant::now();
    while enc.len() < 3 && (enc.is_empty() || started.elapsed().as_secs_f64() < 1.5) {
        let (mut enc_s, mut dec_s) = (0.0, 0.0);
        for (cell, want) in cells.iter().zip(reference) {
            let comp = cell.kind.instance();
            let (c, s) = timed(|| {
                compress_hierarchy_field(
                    &input.hier,
                    input.field,
                    comp.as_ref(),
                    ErrorBound::Rel(cell.rel_eb),
                    &cell.cfg,
                )
                .expect("the evaluation field exists")
            });
            enc_s += s;
            if fnv1a_64(&c.to_bytes()) != want.container_hash {
                problems.push(format!(
                    "{}: container differs between {THREADS} and {PROBE_THREADS} threads",
                    cell.label
                ));
            }
            let (l, s) =
                timed(|| decompress_hierarchy_field(&input.hier, &c, comp.as_ref(), &cell.cfg));
            dec_s += s;
            levels = l.expect("own stream decodes");
        }
        enc.push(enc_s);
        dec.push(dec_s);
        if util.is_none() {
            if extract {
                for method in [IsoMethod::Resampling, IsoMethod::DualCellRedundant] {
                    let (res, s) =
                        timed(|| extract_amr_isosurface(&input.hier, &levels, input.iso, method));
                    std::hint::black_box(res.total_triangles());
                    extract_s.push(s);
                }
            }
            util = Some(amrviz_par::utilization());
        }
    }
    amrviz_par::set_threads(THREADS);
    tally.record(|| "second-thread pass".into(), &problems);
    let mut level_s = Vec::new();
    if extract {
        for dual in [false, true] {
            for (lev, mf) in levels.iter().enumerate() {
                let (mesh, s) = timed(|| {
                    if dual {
                        let mode = DualMode::SwitchingCells;
                        extract_dual_level(&input.hier, mf, lev, input.iso, mode)
                    } else {
                        extract_resampled_level(&input.hier, mf, lev, input.iso)
                    }
                });
                std::hint::black_box(mesh.num_triangles());
                level_s.push(s);
            }
        }
    }
    SecondThread {
        enc_s: p50(&enc),
        dec_s: p50(&dec),
        extract_s,
        util: util.expect("at least one pass ran"),
        level_s,
    }
}

/// Median seconds of three runs of `f`.
fn median_of_three(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..3).map(|_| timed(&mut f).1).collect();
    p50(&runs)
}

/// Times Huffman and LZSS, single-threaded, on the field's own
/// quantization codes: every value of every level predicted by the
/// previous reconstructed value and quantized at `rel_eb` of the range
/// with the public [`Quantizer`]. `big` is the one stream, `small` the
/// same symbols cut into as many blobs as the hierarchy has fabs. A proxy
/// for the compressors' streams, not a copy of them.
pub fn codec_streams(input: &Input, rel_eb: f64, m: &mut Metrics<'_>) {
    let levels = &input.hier.field(input.field).expect("field exists").levels;
    let values: Vec<f64> = levels.iter().flat_map(|mf| mf.to_flat()).collect();
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let quantizer = Quantizer::new((rel_eb * (hi - lo)).max(1e-300));
    let mut prev = 0.0;
    let symbols: Vec<u32> = values
        .iter()
        .map(|&v| match quantizer.quantize(prev, v) {
            Quantized::Code { code, recon } => {
                prev = recon;
                code
            }
            Quantized::Outlier => {
                prev = v;
                0
            }
        })
        .collect();
    let fabs: usize = (0..input.hier.num_levels())
        .map(|l| input.hier.box_array(l).len())
        .sum();
    let msyms = symbols.len() as f64 / 1e6;
    m.set("codec.symbols", symbols.len() as f64);

    for (regime, blob_len) in [
        ("big", symbols.len()),
        ("small", symbols.len().div_ceil(fabs)),
    ] {
        let blobs: Vec<&[u32]> = symbols.chunks(blob_len.max(1)).collect();
        let huff: Vec<Vec<u8>> = blobs.iter().map(|b| huffman_encode(b)).collect();
        let lz: Vec<Vec<u8>> = huff.iter().map(|h| lzss_compress(h)).collect();
        let huff_mb = huff.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
        for (h, b) in huff.iter().zip(&blobs) {
            assert_eq!(huffman_decode(h).expect("own stream decodes"), *b);
        }
        for (l, h) in lz.iter().zip(&huff) {
            assert_eq!(&lzss_decompress(l).expect("own stream decodes"), h);
        }
        let s = median_of_three(|| {
            for b in &blobs {
                std::hint::black_box(huffman_encode(b));
            }
        });
        m.set(&format!("codec.{regime}.huff_enc_msyms"), msyms / s);
        let s = median_of_three(|| {
            for h in &huff {
                std::hint::black_box(huffman_decode(h).expect("own stream decodes"));
            }
        });
        m.set(&format!("codec.{regime}.huff_dec_msyms"), msyms / s);
        let s = median_of_three(|| {
            for h in &huff {
                std::hint::black_box(lzss_compress(h));
            }
        });
        m.set(&format!("codec.{regime}.lzss_enc_mbs"), huff_mb / s);
        let s = median_of_three(|| {
            for l in &lz {
                std::hint::black_box(lzss_decompress(l).expect("own stream decodes"));
            }
        });
        m.set(&format!("codec.{regime}.lzss_dec_mbs"), huff_mb / s);
        if regime == "small" {
            m.set(
                "codec.bytes_out",
                lz.iter().map(Vec::len).sum::<usize>() as f64,
            );
        }
    }
}
