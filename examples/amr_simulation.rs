//! Live AMR simulation: advects a blob across the domain while the mesh
//! refinement follows it (the paper's Fig. 2, as a running application
//! instead of a static snapshot). Writes slice renderings with the fine
//! boxes outlined, plus plotfiles you can reload.
//!
//! ```text
//! cargo run --release -p amrviz-examples --bin amr_simulation
//! ```

use std::path::PathBuf;

use amrviz_amr::plotfile::{read_plotfile, write_plotfile};
use amrviz_render::render_slice;
use amrviz_sim::solver::{AmrAdvection, FIELD};

fn main() {
    let out = PathBuf::from("amr_simulation_out");
    std::fs::create_dir_all(&out).expect("create output dir");

    let mut sim = AmrAdvection::new(48, [1.0, 0.4, 0.0], 0.02, |p| {
        let r2 = (p[0] - 0.22).powi(2) + (p[1] - 0.3).powi(2) + (p[2] - 0.5).powi(2);
        (-r2 / (2.0 * 0.07f64.powi(2))).exp()
    });

    println!("step    time   fine-boxes  fine-cells");
    for snap in 0..4 {
        if snap > 0 {
            sim.run(10);
        }
        let h = sim.hierarchy();
        println!(
            "{:>4}  {:>6.4}  {:>10}  {:>10}",
            h.step,
            sim.time(),
            h.box_array(1).len(),
            h.box_array(1).num_cells()
        );

        // Slice rendering with fine-box outlines (Fig. 2 analogue).
        let img = render_slice(h, FIELD, false).expect("field exists");
        let img_path = out.join(format!("slice_step{:03}.png", h.step));
        img.save_png(&img_path).expect("write PNG");

        // Plotfile snapshot.
        let pf_path = out.join(format!("plt{:05}", h.step));
        write_plotfile(&pf_path, h).expect("write plotfile");
        println!(
            "      wrote {} and {}",
            img_path.display(),
            pf_path.display()
        );
    }

    // Demonstrate the plotfile round-trip.
    let last = sim.hierarchy().step;
    let reread = read_plotfile(&out.join(format!("plt{last:05}"))).expect("read plotfile");
    assert_eq!(reread.num_levels(), 2);
    assert_eq!(reread.step, last);
    let orig_mf = sim.hierarchy().field_level(FIELD, 0).expect("field");
    let read_mf = reread.field_level(FIELD, 0).expect("field");
    assert_eq!(orig_mf, read_mf, "plotfile round-trip must be bit-exact");
    println!("plotfile round-trip verified (step {last}, bit-exact).");
}
