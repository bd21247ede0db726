//! The paper's Fig. 14 in one dimension: why re-sampling (cell→vertex
//! interpolation) softens blocky decompression artifacts while the
//! dual-cell method passes them through untouched.
//!
//! ```text
//! cargo run --release -p amrviz-examples --bin fig14_1d
//! ```

use amrviz_core::experiment::{fig14_series, step_roughness};

fn main() {
    // A ramp "decompressed" under a coarse bound with no prediction — the
    // 1D stand-in for SZ-L/R's block-wise artifacts (the paper's
    // "111//444//777" sketch) — and its re-sampling, which interpolates
    // cells to vertices first (paper §2.3): in 1D each interior vertex
    // averages its two neighboring cells, which is exactly the
    // interpolation of the paper's Fig. 14 ("2.5" and "5.5" mitigating the
    // block steps). This is the series `amrviz repro fig14` records.
    let (original, blocky, resampled) = fig14_series(24, 1.8);

    // Dual-cell visualization consumes the decompressed cell values as-is.
    let dual = &blocky;

    let fmt = |s: &[f64]| {
        s.iter()
            .map(|v| format!("{v:4.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("original:           {}", fmt(&original));
    println!("decompressed:       {}", fmt(&blocky));
    println!("dual-cell sees:     {}", fmt(dual));
    println!("re-sampling sees:   {}", fmt(&resampled));
    println!();
    println!(
        "step roughness — original: {:.2}, dual-cell: {:.2}, re-sampling: {:.2}",
        step_roughness(&original),
        step_roughness(dual),
        step_roughness(&resampled)
    );
    assert!(step_roughness(&resampled) < step_roughness(dual));
    println!(
        "\nre-sampling halves the visible steps: this is why the basic method\n\
         hides compression artifacts that the advanced dual-cell method exposes\n\
         (paper §4.3)."
    );
}
