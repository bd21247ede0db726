//! Z-buffer triangle rasterization with flat Lambertian shading: per-face
//! normals keep faceting — and compression artifacts — visible.

use amrviz_viz::TriMesh;

use crate::camera::Camera;
use crate::color::Color;
use crate::image::Image;

/// Frame size in pixels.
#[derive(Debug, Clone, Copy)]
pub struct RenderOptions {
    pub width: usize,
    pub height: usize,
}

/// Frame background.
const BACKGROUND: Color = Color::new(20, 24, 30);

/// Surface colour of [`render_mesh`].
const SURFACE: Color = Color::new(208, 208, 214);

/// Ambient light floor (0..1).
const AMBIENT: f64 = 0.25;

/// Renders a mesh with a headlight (light from the camera). Double-sided:
/// the absolute value of `normal · light` shades both faces.
pub fn render_mesh(mesh: &TriMesh, camera: &Camera, opts: &RenderOptions) -> Image {
    render_meshes(&[(mesh, SURFACE)], camera, opts)
}

/// Renders several meshes into one frame, each with its own color (used to
/// visualize the per-level surfaces of an AMR extraction).
pub fn render_meshes(meshes: &[(&TriMesh, Color)], camera: &Camera, opts: &RenderOptions) -> Image {
    let mut img = Image::new(opts.width, opts.height, BACKGROUND);
    let mut zbuf = vec![f64::INFINITY; opts.width * opts.height];
    for (mesh, color) in meshes {
        render_mesh_into(mesh, camera, opts, *color, &mut img, &mut zbuf);
    }
    img
}

fn render_mesh_into(
    mesh: &TriMesh,
    camera: &Camera,
    opts: &RenderOptions,
    surface: Color,
    img: &mut Image,
    zbuf: &mut [f64],
) {
    let light = camera.view_dir();
    let (w, h) = (opts.width, opts.height);

    for t in 0..mesh.num_triangles() {
        let [ia, ib, ic] = mesh.triangles[t];
        let (sa, za) = camera.project(mesh.vertices[ia as usize], w, h);
        let (sb, zb) = camera.project(mesh.vertices[ib as usize], w, h);
        let (sc, zc) = camera.project(mesh.vertices[ic as usize], w, h);
        // Screen-space bounding box.
        let min_x = sa[0].min(sb[0]).min(sc[0]).floor().max(0.0) as usize;
        let max_x = (sa[0].max(sb[0]).max(sc[0]).ceil() as usize).min(w.saturating_sub(1));
        let min_y = sa[1].min(sb[1]).min(sc[1]).floor().max(0.0) as usize;
        let max_y = (sa[1].max(sb[1]).max(sc[1]).ceil() as usize).min(h.saturating_sub(1));
        if min_x > max_x || min_y > max_y {
            continue;
        }
        let area = edge(sa, sb, sc);
        if area.abs() < 1e-12 {
            continue;
        }
        let n = mesh.face_normal(t);
        let lambert = (n[0] * light[0] + n[1] * light[1] + n[2] * light[2]).abs();
        let shaded = surface.dim(AMBIENT + (1.0 - AMBIENT) * lambert);
        for py in min_y..=max_y {
            for px in min_x..=max_x {
                let p = [px as f64 + 0.5, py as f64 + 0.5];
                let w0 = edge(sb, sc, p) / area;
                let w1 = edge(sc, sa, p) / area;
                let w2 = edge(sa, sb, p) / area;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let z = w0 * za + w1 * zb + w2 * zc;
                let zi = px + py * w;
                if z >= zbuf[zi] {
                    continue;
                }
                zbuf[zi] = z;
                img.set(px, py, shaded);
            }
        }
    }
}

/// Signed doubled area of triangle `(a, b, c)` — the edge function. The
/// rasterizer accepts either winding because barycentric signs are checked
/// against the triangle's own orientation.
#[inline]
fn edge(a: [f64; 2], b: [f64; 2], c: [f64; 2]) -> f64 {
    (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single large triangle facing the camera.
    fn facing_triangle() -> TriMesh {
        TriMesh {
            vertices: vec![[-0.5, 0.0, -0.5], [0.5, 0.0, -0.5], [0.0, 0.0, 0.5]],
            triangles: vec![[0, 1, 2]],
        }
    }

    fn count_non_background(img: &Image, bg: Color) -> usize {
        let mut n = 0;
        for y in 0..img.height {
            for x in 0..img.width {
                if img.get(x, y) != bg {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn triangle_covers_expected_fraction() {
        let cam = Camera::orthographic([0.0, -3.0, 0.0], [0.0, 0.0, 0.0], 1.0);
        let opts = RenderOptions {
            width: 100,
            height: 100,
        };
        let img = render_mesh(&facing_triangle(), &cam, &opts);
        let lit = count_non_background(&img, BACKGROUND);
        // Triangle area 0.5 in a 2×2 view → 1/8 of 10 000 pixels = 1250.
        assert!((1100..1400).contains(&lit), "lit pixels: {lit}");
    }

    #[test]
    fn nearer_surface_wins_depth_test() {
        // Two overlapping triangles at different depths; front one darker?
        // Give them distinguishable colors via two meshes.
        let near = facing_triangle();
        let mut far_mesh = facing_triangle();
        for v in &mut far_mesh.vertices {
            v[1] += 1.0; // move away from the camera at y=-3
        }
        let cam = Camera::orthographic([0.0, -3.0, 0.0], [0.0, 0.0, 0.0], 1.0);
        let opts = RenderOptions {
            width: 64,
            height: 64,
        };
        let red = Color::new(255, 0, 0);
        let blue = Color::new(0, 0, 255);
        let img = render_meshes(&[(&far_mesh, blue), (&near, red)], &cam, &opts);
        // Center pixel must come from the near (red) triangle regardless of
        // draw order.
        let c = img.get(32, 40);
        assert!(c.r > 0 && c.b == 0, "depth test failed: {c:?}");
        let img2 = render_meshes(&[(&near, red), (&far_mesh, blue)], &cam, &opts);
        let c2 = img2.get(32, 40);
        assert!(c2.r > 0 && c2.b == 0, "order-dependent result: {c2:?}");
    }

    #[test]
    fn headlight_brightens_facing_surfaces() {
        // A triangle perpendicular to the view is brighter than a grazing one.
        let cam = Camera::orthographic([0.0, -3.0, 0.0], [0.0, 0.0, 0.0], 1.0);
        let opts = RenderOptions {
            width: 64,
            height: 64,
        };
        let img_facing = render_mesh(&facing_triangle(), &cam, &opts);
        let mut grazing = facing_triangle();
        // Tilt nearly edge-on (rotate about z by ~85°: y ← x·sin).
        for v in &mut grazing.vertices {
            let x = v[0];
            v[0] = x * 0.1;
            v[1] = x * 0.995;
        }
        let img_grazing = render_mesh(&grazing, &cam, &opts);
        let bright = |img: &Image| -> f64 {
            let lum = img.luminance();
            lum.iter().cloned().fold(0.0, f64::max)
        };
        assert!(bright(&img_facing) > bright(&img_grazing) + 20.0);
    }

    #[test]
    fn empty_mesh_renders_background() {
        let cam = Camera::orthographic([0.0, -3.0, 0.0], [0.0, 0.0, 0.0], 1.0);
        let opts = RenderOptions {
            width: 16,
            height: 16,
        };
        let img = render_mesh(&TriMesh::new(), &cam, &opts);
        assert_eq!(count_non_background(&img, BACKGROUND), 0);
    }
}
