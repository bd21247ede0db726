//! WarpX pipeline: the paper's Figs. 9/10 workflow end-to-end.
//!
//! Generates the WarpX-like laser-wakefield snapshot, compresses `Ez` with
//! both SZ algorithms across error bounds, extracts isosurfaces with the
//! basic (re-sampling) and advanced (dual-cell + redundant data) methods,
//! quantifies how much each method amplifies compression artifacts, and
//! renders side-by-side images.
//!
//! ```text
//! cargo run --release -p amrviz-examples --bin warpx_pipeline [-- scale]
//! ```

use amrviz_core::experiment::{run_viz_quality, standard_camera, CompressorKind, SurfaceOf};
use amrviz_core::prelude::*;
use amrviz_core::report;
use amrviz_render::{raster::render_meshes, Color, RenderOptions};

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Small);
    println!("building WarpX scenario at {scale:?} scale…");
    let built = BuiltScenario::from_spec(Application::Warpx.spec(scale, 42));
    println!(
        "  fine level covers {:.1}% of the domain (paper: 8.6%)",
        built.hierarchy.level_density(1) * 100.0
    );

    // Quantified Figs. 9 & 10: how far does the decompressed-data surface
    // drift from the original-data surface under each method? The eb = 1e-2
    // SZ-L/R surfaces are kept for the paper's Fig. 9c vs 9f panels.
    let mut panels = Vec::new();
    let rows = run_viz_quality(
        &built,
        &CompressorKind::PAPER,
        &[1e-4, 1e-3, 1e-2],
        &[IsoMethod::Resampling, IsoMethod::DualCellRedundant],
        |of, res| {
            if of == SurfaceOf::Decompressed(CompressorKind::SzLr, 1e-2) {
                panels.push(res.clone());
            }
        },
    )
    .expect("viz-quality runs");
    println!("{}", report::VIZ_QUALITY.table(&rows));
    println!(
        "expected shape (paper §4.1): dual-cell rows show larger surface error,\n\
         larger roughness increase and larger image R-SSIM than re-sampling rows,\n\
         and the gap grows with the error bound."
    );

    let cam = standard_camera(built.hierarchy.geometry());
    let opts = RenderOptions {
        width: 960,
        height: 720,
    };
    for (res, name) in panels.iter().zip([
        "warpx_szlr_1e-2_resampling.png",
        "warpx_szlr_1e-2_dualcell.png",
    ]) {
        let img = render_meshes(
            &[
                (&res.level_meshes[0], Color::new(205, 205, 210)),
                (&res.level_meshes[1], Color::new(235, 120, 90)),
            ],
            &cam,
            &opts,
        );
        img.save_png(std::path::Path::new(name)).expect("write PNG");
        println!("wrote {name}");
    }
}
