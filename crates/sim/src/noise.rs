//! Deterministic hash-based fractal value noise.
//!
//! Used for cheap, seedable, grid-free perturbations (e.g. roughening the
//! Nyx-like fields, modulating the WarpX background). Value noise is
//! trilinearly interpolated lattice noise; `fractal` stacks octaves.

/// Hash of a lattice point + seed → uniform in [−1, 1].
#[inline]
fn lattice(seed: u64, i: i64, j: i64, k: i64) -> f64 {
    let mut state = seed
        ^ (i as u64).wrapping_mul(0x8DA6B343)
        ^ (j as u64).wrapping_mul(0xD8163841)
        ^ (k as u64).wrapping_mul(0xCB1AB31F);
    let h = amrviz_rng::splitmix64(&mut state);
    // 53 random mantissa bits → [0,1) → [−1,1).
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Smoothstep fade (Perlin's quintic).
#[inline]
fn fade(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

/// Single-octave value noise at a continuous position, range ≈ [−1, 1].
pub fn value_noise(seed: u64, x: f64, y: f64, z: f64) -> f64 {
    let (i0, j0, k0) = (x.floor() as i64, y.floor() as i64, z.floor() as i64);
    let (fx, fy, fz) = (
        fade(x - i0 as f64),
        fade(y - j0 as f64),
        fade(z - k0 as f64),
    );
    let mut acc = 0.0;
    for dk in 0..2i64 {
        let wz = if dk == 0 { 1.0 - fz } else { fz };
        for dj in 0..2i64 {
            let wy = if dj == 0 { 1.0 - fy } else { fy };
            for di in 0..2i64 {
                let wx = if di == 0 { 1.0 - fx } else { fx };
                acc += wx * wy * wz * lattice(seed, i0 + di, j0 + dj, k0 + dk);
            }
        }
    }
    acc
}

/// Fractal (fBm) noise: `octaves` octaves with lacunarity 2 and the given
/// per-octave gain. Output is normalized to keep the amplitude envelope
/// ≈ [−1, 1] regardless of octave count.
pub fn fractal(seed: u64, x: f64, y: f64, z: f64, octaves: u32, gain: f64) -> f64 {
    debug_assert!(octaves >= 1);
    let mut amp = 1.0;
    let mut freq = 1.0;
    let mut acc = 0.0;
    let mut norm = 0.0;
    for o in 0..octaves {
        acc += amp
            * value_noise(
                seed.wrapping_add(o as u64 * 0x9E37),
                x * freq,
                y * freq,
                z * freq,
            );
        norm += amp;
        amp *= gain;
        freq *= 2.0;
    }
    acc / norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = value_noise(42, 1.5, 2.5, 3.5);
        let b = value_noise(42, 1.5, 2.5, 3.5);
        assert_eq!(a, b);
        let c = value_noise(43, 1.5, 2.5, 3.5);
        assert_ne!(a, c);
    }

    #[test]
    fn matches_lattice_at_integer_points() {
        for (i, j, k) in [(0i64, 0i64, 0i64), (5, -3, 2), (-10, 7, 100)] {
            let direct = lattice(7, i, j, k);
            let interp = value_noise(7, i as f64, j as f64, k as f64);
            assert!((direct - interp).abs() < 1e-12);
        }
    }

    #[test]
    fn bounded() {
        for n in 0..2000 {
            let x = n as f64 * 0.173;
            let v = value_noise(1, x, x * 0.7, x * 0.3);
            assert!((-1.0..=1.0).contains(&v), "out of range: {v}");
            let f = fractal(1, x, x * 0.7, x * 0.3, 5, 0.5);
            assert!((-1.0..=1.0).contains(&f), "fractal out of range: {f}");
        }
    }

    #[test]
    fn continuity() {
        // Small position deltas produce small value deltas.
        let eps = 1e-4;
        for n in 0..100 {
            let x = n as f64 * 0.37 + 0.5;
            let a = value_noise(9, x, 1.1, 2.2);
            let b = value_noise(9, x + eps, 1.1, 2.2);
            assert!((a - b).abs() < 0.01, "discontinuity at {x}");
        }
    }

    #[test]
    fn fractal_roughens_with_octaves() {
        // Higher octave counts add high-frequency energy: the mean absolute
        // difference between adjacent samples grows.
        let tv = |oct: u32| -> f64 {
            (0..500)
                .map(|n| {
                    let x = n as f64 * 0.05;
                    (fractal(3, x + 0.05, 0.0, 0.0, oct, 0.6) - fractal(3, x, 0.0, 0.0, oct, 0.6))
                        .abs()
                })
                .sum()
        };
        assert!(tv(6) > tv(1) * 1.2, "{} vs {}", tv(6), tv(1));
    }

    #[test]
    fn zero_mean_ish() {
        let mean: f64 = (0..4000)
            .map(|n| {
                let x = (n % 20) as f64 * 0.618;
                let y = ((n / 20) % 20) as f64 * 0.618;
                let z = (n / 400) as f64 * 0.618;
                value_noise(11, x, y, z)
            })
            .sum::<f64>()
            / 4000.0;
        assert!(mean.abs() < 0.08, "biased noise: {mean}");
    }
}
