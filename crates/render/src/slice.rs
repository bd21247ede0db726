//! Volume slice rendering with AMR grid overlays — the Fig. 2 analogue
//! ("visualization of a zoom-in 2D slice … the grid structure adjusts").

use amrviz_amr::resample::{flatten_to_finest, Upsample};
use amrviz_amr::{AmrError, AmrHierarchy};

use crate::color::{viridis, Color};
use crate::image::Image;

/// Pixels per finest-level cell.
const PIXELS_PER_CELL: usize = 2;

/// Colour of the fine-level box outlines (the paper's dashed boxes).
const OUTLINE: Color = Color::new(255, 60, 60);

/// Renders the mid-z slice of a hierarchy field at the finest resolution
/// (x across, y up), with the finest level's box outlines drawn over it.
/// `log_scale` takes log10 of the values before colour mapping (useful for
/// density fields).
pub fn render_slice(hier: &AmrHierarchy, field: &str, log_scale: bool) -> Result<Image, AmrError> {
    let uniform = flatten_to_finest(hier, field, Upsample::PiecewiseConstant)?;
    let [nx, ny, nz] = uniform.dims();
    let z = nz / 2;
    let value = |x: usize, y: usize| transform(uniform.at(x, y, z), log_scale);

    // Value range over the slice.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for y in 0..ny {
        for x in 0..nx {
            let v = value(x, y);
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let range = (hi - lo).max(1e-300);

    let pc = PIXELS_PER_CELL;
    let mut img = Image::new(nx * pc, ny * pc, Color::BLACK);
    for y in 0..ny {
        for x in 0..nx {
            let c = viridis((value(x, y) - lo) / range);
            for dy in 0..pc {
                for dx in 0..pc {
                    // Image y runs downward; flip so "up" is up.
                    img.set(x * pc + dx, (ny - 1 - y) * pc + dy, c);
                }
            }
        }
    }

    if hier.num_levels() > 1 {
        for bx in hier.box_array(hier.num_levels() - 1).iter() {
            // Outline the box where the slice plane cuts it.
            let (blo, bhi) = (bx.lo(), bx.hi());
            if (z as i64) < blo[2] || (z as i64) > bhi[2] {
                continue;
            }
            let (x0, x1) = (blo[0] as usize * pc, (bhi[0] as usize + 1) * pc - 1);
            let (y0, y1) = (blo[1] as usize * pc, (bhi[1] as usize + 1) * pc - 1);
            let flip = |y: usize| ny * pc - 1 - y;
            for x in x0..=x1.min(nx * pc - 1) {
                img.set(x, flip(y0), OUTLINE);
                img.set(x, flip(y1.min(ny * pc - 1)), OUTLINE);
            }
            for y in y0..=y1.min(ny * pc - 1) {
                img.set(x0, flip(y), OUTLINE);
                img.set(x1.min(nx * pc - 1), flip(y), OUTLINE);
            }
        }
    }
    Ok(img)
}

fn transform(v: f64, log_scale: bool) -> f64 {
    if log_scale {
        v.max(1e-300).log10()
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{Box3, BoxArray, Geometry, IntVect};

    /// 8³ coarse cells under one fine box spanning `fine_z` (of 16) in z.
    fn two_level_with(fine_z: [i64; 2]) -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(8, 8, 8));
        let fine = Box3::new(
            IntVect::new(4, 4, fine_z[0]),
            IntVect::new(11, 11, fine_z[1]),
        );
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![BoxArray::single(geom.domain), BoxArray::single(fine)],
        )
        .unwrap();
        h.add_field_from_fn("f", |lev, iv| {
            (iv[0] + iv[1]) as f64 / if lev == 0 { 1.0 } else { 2.0 }
        })
        .unwrap();
        h
    }

    /// The fine box covers z ∈ [4,11]: the mid slice (z = 8) cuts it.
    fn two_level() -> AmrHierarchy {
        two_level_with([4, 11])
    }

    #[test]
    fn slice_dimensions() {
        let img = render_slice(&two_level(), "f", false).unwrap();
        // Finest res 16×16, 2 px/cell.
        assert_eq!(img.width, 32);
        assert_eq!(img.height, 32);
    }

    #[test]
    fn gradient_appears_in_image() {
        let img = render_slice(&two_level(), "f", false).unwrap();
        // f grows along +x → left and right edges differ.
        let left = img.get(0, img.height / 2);
        let right = img.get(img.width - 1, img.height / 2);
        assert_ne!(left, right);
    }

    fn outline_pixels(img: &Image) -> usize {
        let pixels = (0..img.height).flat_map(|y| (0..img.width).map(move |x| (x, y)));
        pixels.filter(|&(x, y)| img.get(x, y) == OUTLINE).count()
    }

    #[test]
    fn box_outline_drawn_when_slice_cuts_it() {
        let img = render_slice(&two_level(), "f", false).unwrap();
        assert!(outline_pixels(&img) > 0, "the outline colour appears");
    }

    #[test]
    fn slice_missing_the_fine_box_has_no_outline() {
        // Fine box covers z ∈ [0,3] of 16 → the mid slice (z = 8) misses it.
        let img = render_slice(&two_level_with([0, 3]), "f", false).unwrap();
        assert_eq!(outline_pixels(&img), 0);
    }

    #[test]
    fn log_scale_slice_renders() {
        let img = render_slice(&two_level(), "f", true).unwrap();
        assert!(img.width > 0 && img.height > 0);
    }

    #[test]
    fn unknown_field_errors() {
        assert!(render_slice(&two_level(), "nope", false).is_err());
    }
}
