//! Quickstart: generate Nyx-like AMR data, compress it, measure quality,
//! extract an isosurface, and export mesh + rendering.
//!
//! ```text
//! cargo run --release -p amrviz-examples --bin quickstart
//! ```

use std::path::Path;

use amrviz_core::experiment::{run_compression, standard_camera, CompressorKind};
use amrviz_core::prelude::*;
use amrviz_render::{render_mesh, RenderOptions};
use amrviz_viz::{extract_amr_isosurface, obj};

fn main() {
    // 1. Generate a small Nyx-like cosmology snapshot (two AMR levels,
    //    spiky log-normal density, ~40% refined).
    let (app, scale) = (Application::Nyx, Scale::Small);
    println!("generating {} at {scale:?} scale…", app.label());
    let built = BuiltScenario::from_spec(app.spec(scale, 7));
    let h = &built.hierarchy;
    println!(
        "  {} levels; level domains: {:?} and {:?}; fine coverage {:.1}%",
        h.num_levels(),
        h.level_domain(0).size(),
        h.level_domain(1).size(),
        h.level_density(1) * 100.0
    );

    // 2. Compress with SZ-Interp at a relative error bound of 1e-3 and
    //    report the paper's quality metrics.
    let run = run_compression(&built, CompressorKind::SzInterp, 1e-3).expect("compression runs");
    println!(
        "  {}: CR(f64) {:.1}x  CR(f32-equiv) {:.1}x  PSNR {:.1} dB  R-SSIM {:.2e}",
        run.compressor, run.compression_ratio, run.compression_ratio_f32, run.psnr_db, run.rssim
    );
    println!(
        "  error bound held: max |err| = {:.3e} ≤ {:.3e}",
        run.max_abs_error, run.abs_error_bound
    );

    // 3. Extract the over-density isosurface with the basic re-sampling
    //    method and save it.
    let field = built.spec.eval_field();
    let levels = &h.field(field).expect("field exists").levels;
    let res = extract_amr_isosurface(h, levels, built.iso, IsoMethod::Resampling);
    println!(
        "  isosurface at {:.2}: {} triangles ({} coarse, {} fine)",
        built.iso,
        res.total_triangles(),
        res.level_meshes[0].num_triangles(),
        res.level_meshes[1].num_triangles()
    );
    let mesh = res.into_combined();

    let mesh_path = Path::new("quickstart_isosurface.obj");
    obj::save_obj(mesh_path, &mesh).expect("write OBJ");
    println!("  wrote {}", mesh_path.display());

    let img = render_mesh(
        &mesh,
        &standard_camera(built.hierarchy.geometry()),
        &RenderOptions {
            width: 800,
            height: 600,
        },
    );
    let img_path = Path::new("quickstart_isosurface.png");
    img.save_png(img_path).expect("write PNG");
    println!("  wrote {}", img_path.display());
}
