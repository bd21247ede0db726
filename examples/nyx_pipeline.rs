//! Nyx pipeline: crack analysis, compression comparison, and the
//! redundant-data ablation on the irregular cosmology dataset.
//!
//! ```text
//! cargo run --release -p amrviz-examples --bin nyx_pipeline [-- scale]
//! ```

use amrviz_compress::{compress_hierarchy_field, AmrCodecConfig, ErrorBound};
use amrviz_core::experiment::{run_crack_analysis, run_rate_distortion, CompressorKind};
use amrviz_core::prelude::*;
use amrviz_core::report;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Small);
    println!("building Nyx scenario at {scale:?} scale…");
    let built = BuiltScenario::from_spec(Application::Nyx.spec(scale, 42));
    println!(
        "  fine level covers {:.1}% of the domain (paper: 40.7%)",
        built.hierarchy.level_density(1) * 100.0
    );

    // Fig. 1 on Nyx data: cracks vs gaps vs redundant-data fix.
    println!("\ncrack/gap structure of the original data:");
    let cracks = run_crack_analysis(&built, |_, _| {});
    println!("{}", report::CRACKS.table(&cracks));

    // Fig. 13: rate-distortion on the irregular density field. The paper's
    // finding: unlike on WarpX, SZ-Interp does *not* dominate here, and
    // SZ-L/R wins R-SSIM at large bounds.
    println!("rate-distortion (Fig. 13):");
    let runs =
        run_rate_distortion(&built, &[1e-4, 1e-3, 1e-2, 3e-2]).expect("rate-distortion runs");
    println!("{}", report::RATE_DISTORTION.table(&runs));

    // §2.2 ablation: omit the redundant coarse data during compression.
    println!("redundant coarse data ablation (rel eb 1e-3):");
    let mut rows = Vec::new();
    for kind in CompressorKind::PAPER {
        let comp = kind.instance();
        for (label, cfg) in [
            ("keep", AmrCodecConfig::default()),
            (
                "skip",
                AmrCodecConfig {
                    skip_redundant: true,
                    restore_redundant: false,
                },
            ),
        ] {
            let c = compress_hierarchy_field(
                &built.hierarchy,
                "baryon_density",
                comp.as_ref(),
                ErrorBound::Rel(1e-3),
                &cfg,
            )
            .expect("field exists");
            rows.push(vec![
                kind.label().to_string(),
                label.to_string(),
                format!("{}", c.compressed_bytes()),
                format!(
                    "{:.2}",
                    (c.n_values * 8) as f64 / c.compressed_bytes() as f64
                ),
            ]);
        }
    }
    println!(
        "{}",
        report::ascii_table(&["Compressor", "Redundant", "Bytes", "CR (f64)"], &rows)
    );
}
