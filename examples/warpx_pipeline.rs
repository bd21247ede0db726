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

use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound,
};
use amrviz_core::experiment::{run_viz_quality, standard_camera, CompressorKind};
use amrviz_core::prelude::*;
use amrviz_core::report;
use amrviz_render::{raster::render_meshes, Color, RenderOptions};
use amrviz_viz::extract_amr_isosurface;

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
    // drift from the original-data surface under each method?
    let mut rows = Vec::new();
    for kind in CompressorKind::PAPER {
        rows.extend(
            run_viz_quality(
                &built,
                kind,
                &[1e-4, 1e-3, 1e-2],
                &[IsoMethod::Resampling, IsoMethod::DualCellRedundant],
            )
            .expect("viz-quality runs"),
        );
    }
    println!("{}", report::VIZ_QUALITY.table(&rows));
    println!(
        "expected shape (paper §4.1): dual-cell rows show larger surface error,\n\
         larger roughness increase and larger image R-SSIM than re-sampling rows,\n\
         and the gap grows with the error bound."
    );

    // Render the eb = 1e-2 SZ-L/R panels (the paper's Fig. 9c vs 9f).
    let comp = CompressorKind::SzLr.instance();
    let cfg = AmrCodecConfig::default();
    let compressed = compress_hierarchy_field(
        &built.hierarchy,
        "Ez",
        comp.as_ref(),
        ErrorBound::Rel(1e-2),
        &cfg,
    )
    .expect("field exists");
    let levels = decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg)
        .expect("own stream decodes");
    let cam = standard_camera(built.hierarchy.geometry());
    let opts = RenderOptions {
        width: 960,
        height: 720,
    };
    for (method, name) in [
        (IsoMethod::Resampling, "warpx_szlr_1e-2_resampling.png"),
        (IsoMethod::DualCellRedundant, "warpx_szlr_1e-2_dualcell.png"),
    ] {
        let res = extract_amr_isosurface(&built.hierarchy, &levels, built.iso, method);
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
