//! Colors and colormaps.

/// 8-bit RGB color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Color {
    pub r: u8,
    pub g: u8,
    pub b: u8,
}

impl Color {
    pub const BLACK: Color = Color { r: 0, g: 0, b: 0 };
    pub const WHITE: Color = Color {
        r: 255,
        g: 255,
        b: 255,
    };

    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Color { r, g, b }
    }

    /// Linear blend `self·(1−t) + other·t`.
    pub fn lerp(self, other: Color, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let mix = |a: u8, b: u8| (a as f64 + (b as f64 - a as f64) * t).round() as u8;
        Color::new(
            mix(self.r, other.r),
            mix(self.g, other.g),
            mix(self.b, other.b),
        )
    }

    /// Scales brightness by `f ∈ [0, 1]`.
    pub fn dim(self, f: f64) -> Color {
        let f = f.clamp(0.0, 1.0);
        Color::new(
            (self.r as f64 * f).round() as u8,
            (self.g as f64 * f).round() as u8,
            (self.b as f64 * f).round() as u8,
        )
    }
}

/// Anchor points of the viridis-like map.
const VIRIDIS: [(f64, [u8; 3]); 7] = [
    (0.00, [68, 1, 84]),
    (0.17, [72, 40, 120]),
    (0.33, [62, 74, 137]),
    (0.50, [49, 104, 142]),
    (0.67, [38, 144, 140]),
    (0.83, [83, 183, 121]),
    (1.00, [253, 231, 37]),
];

/// Maps `t ∈ [0,1]` through the perceptually-uniform dark-blue → green →
/// yellow (viridis-like) colormap; values are clamped, NaN maps low.
pub fn viridis(t: f64) -> Color {
    let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
    for w in VIRIDIS.windows(2) {
        let (t0, c0) = w[0];
        let (t1, c1) = w[1];
        if t <= t1 {
            let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
            return Color::new(c0[0], c0[1], c0[2]).lerp(Color::new(c1[0], c1[1], c1[2]), f);
        }
    }
    let last = VIRIDIS[VIRIDIS.len() - 1].1;
    Color::new(last[0], last[1], last[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        let a = Color::new(0, 0, 0);
        let b = Color::new(100, 200, 50);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Color::new(50, 100, 25));
        assert_eq!(a.lerp(b, 2.0), b); // clamped
    }

    #[test]
    fn colormaps_cover_range() {
        let (lo, hi) = (viridis(0.0), viridis(1.0));
        assert_ne!(lo, hi, "endpoints identical");
        // Values outside [0,1] are clamped; NaN maps to the low end.
        assert_eq!(viridis(-5.0), lo);
        assert_eq!(viridis(7.0), hi);
        assert_eq!(viridis(f64::NAN), lo);
    }

    #[test]
    fn viridis_known_anchors() {
        assert_eq!(viridis(0.0), Color::new(68, 1, 84));
        assert_eq!(viridis(1.0), Color::new(253, 231, 37));
    }

    #[test]
    fn dim_scales() {
        let c = Color::new(100, 200, 50);
        assert_eq!(c.dim(0.5), Color::new(50, 100, 25));
        assert_eq!(c.dim(0.0), Color::BLACK);
        assert_eq!(c.dim(1.0), c);
    }
}
