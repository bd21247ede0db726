//! The orthographic look-at camera every rendered figure uses.

/// An orthographic camera looking from `eye` toward a target. The view
/// basis is fixed at construction, so projecting a vertex is three dot
/// products and a scale.
#[derive(Debug, Clone, Copy)]
pub struct Camera {
    eye: [f64; 3],
    right: [f64; 3],
    up: [f64; 3],
    forward: [f64; 3],
    /// World-space half-extent visible vertically.
    half_height: f64,
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn normalize(v: [f64; 3]) -> [f64; 3] {
    let l = dot(v, v).sqrt();
    if l == 0.0 {
        v
    } else {
        [v[0] / l, v[1] / l, v[2] / l]
    }
}

impl Camera {
    /// Orthographic camera looking at `target` from `eye`, world +z up.
    pub fn orthographic(eye: [f64; 3], target: [f64; 3], half_height: f64) -> Self {
        let forward = normalize(sub(target, eye));
        let mut right = cross(forward, [0.0, 0.0, 1.0]);
        if dot(right, right) < 1e-24 {
            // Up was parallel to the view direction; pick another up.
            right = cross(forward, [0.0, 1.0, 0.0]);
        }
        let right = normalize(right);
        let up = cross(right, forward);
        Camera {
            eye,
            right,
            up,
            forward,
            half_height,
        }
    }

    /// Orthonormal view basis `(right, up, forward)`.
    pub fn basis(&self) -> ([f64; 3], [f64; 3], [f64; 3]) {
        (self.right, self.up, self.forward)
    }

    /// Projects a world point to pixel coordinates and camera-space depth.
    pub fn project(&self, p: [f64; 3], width: usize, height: usize) -> ([f64; 2], f64) {
        let rel = sub(p, self.eye);
        let x = dot(rel, self.right);
        let y = dot(rel, self.up);
        let z = dot(rel, self.forward);
        let aspect = width as f64 / height as f64;
        let sx = x / (self.half_height * aspect);
        let sy = y / self.half_height;
        // NDC [−1,1] → pixels, y flipped (screen origin top-left).
        let px = (sx + 1.0) * 0.5 * width as f64;
        let py = (1.0 - (sy + 1.0) * 0.5) * height as f64;
        ([px, py], z)
    }

    /// Unit vector from the eye toward the target — handy as a light
    /// direction for headlight shading.
    pub fn view_dir(&self) -> [f64; 3] {
        self.forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ortho_center_maps_to_image_center() {
        let cam = Camera::orthographic([0.0, -5.0, 0.0], [0.0, 0.0, 0.0], 1.0);
        let ([px, py], z) = cam.project([0.0, 0.0, 0.0], 200, 100);
        assert!((px - 100.0).abs() < 1e-9);
        assert!((py - 50.0).abs() < 1e-9);
        assert!((z - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ortho_up_is_screen_up() {
        let cam = Camera::orthographic([0.0, -5.0, 0.0], [0.0, 0.0, 0.0], 1.0);
        // +z world is "up" → smaller py.
        let ([_, py_hi], _) = cam.project([0.0, 0.0, 0.5], 100, 100);
        let ([_, py_lo], _) = cam.project([0.0, 0.0, -0.5], 100, 100);
        assert!(py_hi < py_lo);
    }

    #[test]
    fn degenerate_up_is_fixed() {
        // Looking straight down the up vector.
        let cam = Camera::orthographic([0.0, 0.0, 5.0], [0.0, 0.0, 0.0], 1.0);
        let (right, up, forward) = cam.basis();
        for v in [right, up, forward] {
            let len = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            assert!((len - 1.0).abs() < 1e-12, "non-unit basis vector {v:?}");
        }
    }
}
