//! Software rendering for the paper's figure analogues.
//!
//! The paper's evidence is largely visual (Figs. 1, 2, 9–11). This crate
//! renders the same artifacts without any GPU or windowing dependency:
//!
//! * [`image`] — RGB raster images with an (uncompressed) PNG writer;
//! * [`color`] — colors and the viridis-like colormap;
//! * [`camera`] — the orthographic look-at camera;
//! * [`raster`] — a z-buffer triangle rasterizer with flat Lambertian
//!   shading (flat shading makes compression bump/block artifacts pop,
//!   which is the point);
//! * [`slice`](mod@slice) — volume slice rendering with AMR box-outline overlays
//!   (the Fig. 2 "grid adapts with the universe" analogue).

pub mod camera;
pub mod color;
pub mod image;
pub mod raster;
pub mod slice;

pub use camera::Camera;
pub use color::{viridis, Color};
pub use image::Image;
pub use raster::{render_mesh, RenderOptions};
pub use slice::render_slice;
