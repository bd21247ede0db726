//! Windowed structural similarity (SSIM) for 2D images and 3D volumes,
//! plus the paper's reverse SSIM.
//!
//! SSIM over a window pair `(x, y)`:
//!
//! ```text
//! SSIM = (2·μx·μy + C1)(2·σxy + C2) / ((μx² + μy² + C1)(σx² + σy² + C2))
//! C1 = (K1·L)², C2 = (K2·L)², K1 = 0.01, K2 = 0.03
//! ```
//!
//! where `L` is the dynamic range of the original data. The global score is
//! the mean over all window positions. Windows are uniform (box) windows,
//! the standard choice for volumetric scientific data; `stride` trades
//! exactness for speed on large volumes (stride 1 = every position).
//!
//! # Separable window sums
//!
//! A window needs five sums — Σa, Σb, Σa², Σb², Σab — over its `w³` cells.
//! They are built in three passes, each a direct `w`-term sum: x-window
//! sums of every row at the x origins, y-window sums of those at the y
//! origins (one *plane sum* per z), then the z-window sum of `w` plane sums
//! per origin, from which the SSIM expression is evaluated once. Every
//! pass sums four origins per loop: four independent chains of adds that
//! overlap, where a single window waits on each add before the next. Each
//! window still adds its terms in the same order from 0.0.
//!
//! The z origins are split into one pool task per thread. A task's first
//! window re-sums the `w − stride` planes it shares with the previous
//! task's last, so fewer tasks waste less; the score does not depend on
//! the split.
//!
//! Every window sum is still the sum of the same `w³` products, only
//! re-associated. Running sums (add the entering term, subtract the
//! leaving one) and summed-area tables are cheaper still, but they reach a
//! window sum through a subtraction of much larger numbers: R-SSIM values
//! of 1e-7 live in the last digits of SSIM, where that cancellation and
//! its drift along the axis land.
//!
//! The window is clamped to the volume **per axis**, so a thin axis shrinks
//! only its own extent: a 2D image (depth 1) keeps a full `w × w` window.

use amrviz_par::scratch;

/// SSIM parameters.
#[derive(Debug, Clone, Copy)]
pub struct SsimConfig {
    /// Cubic (or square) window edge length.
    pub window: usize,
    /// Step between window positions along each axis.
    pub stride: usize,
    pub k1: f64,
    pub k2: f64,
}

impl Default for SsimConfig {
    fn default() -> Self {
        SsimConfig {
            window: 7,
            stride: 2,
            k1: 0.01,
            k2: 0.03,
        }
    }
}

/// The five sums a window needs: Σa, Σb, Σa², Σb², Σab.
const Q: usize = 5;
type Sums = [f64; Q];

/// Window placement along one axis of `n` cells: the window (clamped to the
/// axis) sits at every `stride`-th origin that fits, and at the last one
/// that fits so the volume edge is always covered.
#[derive(Clone, Copy)]
struct Axis {
    w: usize,
    stride: usize,
    last: usize,
}

impl Axis {
    fn new(n: usize, cfg: &SsimConfig) -> Self {
        let w = cfg.window.min(n);
        Axis {
            w,
            stride: cfg.stride,
            last: n - w,
        }
    }

    fn origins(&self) -> usize {
        self.last.div_ceil(self.stride) + 1
    }

    fn origin(&self, i: usize) -> usize {
        (i * self.stride).min(self.last)
    }
}

/// Adds the terms up in iteration order.
#[inline(always)]
fn sum_terms<'a>(terms: impl Iterator<Item = &'a Sums>) -> Sums {
    let mut acc = [0.0; Q];
    for t in terms {
        for (a, v) in acc.iter_mut().zip(t) {
            *a += v;
        }
    }
    acc
}

/// Four windows summed at once, each exactly as [`sum_terms`] sums it:
/// window `k` adds `row(t)[at[k]]` for `t` in `0..w`, in order, onto 0.0.
/// The four chains are independent, so their adds overlap where a single
/// window's chain waits on each one.
#[inline(always)]
fn sum_terms4<'a>(w: usize, at: [usize; 4], row: impl Fn(usize) -> &'a [Sums]) -> [Sums; 4] {
    let mut acc = [[0.0; Q]; 4];
    for t in 0..w {
        let row = row(t);
        for (acc, &i) in acc.iter_mut().zip(&at) {
            for (a, v) in acc.iter_mut().zip(&row[i]) {
                *a += v;
            }
        }
    }
    acc
}

/// `out[i]` receives the sums of the window at origin `i`, whose term `t`
/// is `row(t)[at(i)]`: four origins per loop, the remainder one at a time.
#[inline(always)]
fn window_sums<'a>(
    out: &mut [Sums],
    w: usize,
    at: impl Fn(usize) -> usize,
    row: impl Fn(usize) -> &'a [Sums],
) {
    let (quads, rest) = out.as_chunks_mut::<4>();
    let done = 4 * quads.len();
    for (q, sums) in quads.iter_mut().enumerate() {
        *sums = sum_terms4(w, std::array::from_fn(|k| at(4 * q + k)), &row);
    }
    for (i, sums) in rest.iter_mut().enumerate() {
        *sums = sum_terms((0..w).map(|t| &row(t)[at(done + i)]));
    }
}

/// The x and y passes over one z plane: `out[yi][xi]` receives the five
/// sums over the `wy × wx` cells at origin `(xi, yi)`. `prod` (one row of
/// products) and `rows` (the x-window sums of every row) are scratch.
fn plane_sums(
    a: &[f64],
    b: &[f64],
    ax: Axis,
    ay: Axis,
    prod: &mut [Sums],
    rows: &mut [Sums],
    out: &mut [Sums],
) {
    let (nx, ox) = (prod.len(), ax.origins());
    for ((row_sums, a), b) in rows
        .chunks_exact_mut(ox)
        .zip(a.chunks_exact(nx))
        .zip(b.chunks_exact(nx))
    {
        for ((p, &a), &b) in prod.iter_mut().zip(a).zip(b) {
            *p = [a, b, a * a, b * b, a * b];
        }
        window_sums(row_sums, ax.w, |xi| ax.origin(xi), |t| &prod[t..]);
    }
    for (yi, out_row) in out.chunks_exact_mut(ox).enumerate() {
        let band = &rows[ay.origin(yi) * ox..][..ay.w * ox];
        window_sums(out_row, ay.w, |xi| xi, |t| &band[t * ox..][..ox]);
    }
}

/// SSIM of a 3D volume pair with dims `[nx, ny, nz]` (x-fastest layout).
pub fn ssim3(original: &[f64], reconstructed: &[f64], dims: [usize; 3], cfg: &SsimConfig) -> f64 {
    let oz = Axis::new(dims[2], cfg).origins();
    ssim3_chunked(
        original,
        reconstructed,
        dims,
        cfg,
        oz.div_ceil(amrviz_par::threads()),
    )
}

/// [`ssim3`] with `z_chunk` z origins per pool task.
fn ssim3_chunked(
    original: &[f64],
    reconstructed: &[f64],
    dims: [usize; 3],
    cfg: &SsimConfig,
    z_chunk: usize,
) -> f64 {
    assert_eq!(original.len(), dims[0] * dims[1] * dims[2], "dims mismatch");
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    assert!(cfg.window >= 2 && cfg.stride >= 1);
    let _sp = amrviz_obs::span!(
        "metrics.ssim3",
        nx = dims[0],
        ny = dims[1],
        nz = dims[2],
        window = cfg.window,
        stride = cfg.stride,
    );
    let [nx, ny, _] = dims;
    let [ax, ay, az] = dims.map(|n| Axis::new(n, cfg));
    let (ox, oy, oz) = (ax.origins(), ay.origins(), az.origins());

    // Dynamic range of the original defines C1/C2.
    let (min, max) = amrviz_par::min_max(original);
    let range = max - min;
    if range == 0.0 {
        // Constant original: SSIM is 1 iff reconstruction matches exactly.
        return if original == reconstructed { 1.0 } else { 0.0 };
    }
    let c1 = (cfg.k1 * range).powi(2);
    let c2 = (cfg.k2 * range).powi(2);
    let inv_n = 1.0 / (ax.w * ay.w * az.w) as f64;

    // One task per `z_chunk` z origins, one partial sum per z origin. A
    // plane sum depends on its z alone and a window adds its planes in z
    // order, so the partials — folded in z order below — are bit-identical
    // at any thread count and any chunk size.
    let (cells, plane) = (nx * ny, oy * ox);
    let partials = amrviz_par::run(oz.div_ceil(z_chunk), |ci| {
        // Sized by one plane and the window, never by `nz`.
        let mut buf = scratch::take_f64();
        buf.resize((nx + ny * ox + (az.w + 1) * plane) * Q, 0.0);
        let (buf_sums, _) = buf.as_chunks_mut::<Q>();
        let (prod, rest) = buf_sums.split_at_mut(nx);
        let (rows, rest) = rest.split_at_mut(ny * ox);
        let (windows, ring) = rest.split_at_mut(plane);

        let mut partial = Vec::with_capacity(z_chunk);
        // The ring holds plane `z` in slot `z % w`; every plane the current
        // window needs below `summed` is already there.
        let mut summed = 0;
        for zi in ci * z_chunk..((ci + 1) * z_chunk).min(oz) {
            let z0 = az.origin(zi);
            for z in summed.max(z0)..z0 + az.w {
                plane_sums(
                    &original[z * cells..][..cells],
                    &reconstructed[z * cells..][..cells],
                    ax,
                    ay,
                    prod,
                    rows,
                    &mut ring[(z % az.w) * plane..][..plane],
                );
            }
            summed = z0 + az.w;

            // Slots in z order: from the window's first plane to the end
            // of the ring, then from its start.
            let s0 = z0 % az.w;
            let slot = |t: usize| if s0 + t < az.w { s0 + t } else { s0 + t - az.w };
            window_sums(windows, az.w, |o| o, |t| &ring[slot(t) * plane..][..plane]);
            let mut acc = 0.0;
            for &[sx, sy, sxx, syy, sxy] in windows.iter() {
                let mx = sx * inv_n;
                let my = sy * inv_n;
                let vx = (sxx * inv_n - mx * mx).max(0.0);
                let vy = (syy * inv_n - my * my).max(0.0);
                let cov = sxy * inv_n - mx * my;
                acc += ((2.0 * mx * my + c1) * (2.0 * cov + c2))
                    / ((mx * mx + my * my + c1) * (vx + vy + c2));
            }
            partial.push(acc);
        }
        scratch::give_f64(buf);
        partial
    });
    let sum = partials.into_iter().flatten().fold(0.0, |a, p| a + p);

    sum / (ox * oy * oz) as f64
}

/// SSIM of a 2D image pair with dims `[nx, ny]` (x-fastest layout).
pub fn ssim2(original: &[f64], reconstructed: &[f64], dims: [usize; 2], cfg: &SsimConfig) -> f64 {
    // A 2D image is a volume of depth 1; the z window clamps to 1.
    ssim3(original, reconstructed, [dims[0], dims[1], 1], cfg)
}

/// The paper's reverse SSIM (Eq. 1): `R-SSIM = 1 − SSIM`. Near-perfect
/// reconstructions differ in the 6th-9th decimal of SSIM; R-SSIM makes those
/// differences legible (e.g. 2.2e-7 vs 4.0e-4).
#[inline]
pub fn rssim(ssim_value: f64) -> f64 {
    1.0 - ssim_value
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_rng::Rng;

    /// The oracle: every window summed from scratch, cell by cell, one
    /// serial loop (the pre-separable `ssim3`, with the per-axis clamp).
    fn reference(a: &[f64], b: &[f64], dims: [usize; 3], cfg: &SsimConfig) -> f64 {
        let [nx, ny, nz] = dims;
        let [wx, wy, wz] = dims.map(|n| cfg.window.min(n));
        let (min, max) = a
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let c1 = (cfg.k1 * (max - min)).powi(2);
        let c2 = (cfg.k2 * (max - min)).powi(2);
        let positions = |n: usize, w: usize| -> Vec<usize> {
            let last = n - w;
            let mut v: Vec<usize> = (0..=last).step_by(cfg.stride).collect();
            if *v.last().unwrap() != last {
                v.push(last);
            }
            v
        };
        let (xs, ys, zs) = (positions(nx, wx), positions(ny, wy), positions(nz, wz));
        let inv_n = 1.0 / (wx * wy * wz) as f64;
        let mut acc = 0.0;
        for &z0 in &zs {
            for &y0 in &ys {
                for &x0 in &xs {
                    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
                    for dz in 0..wz {
                        for dy in 0..wy {
                            let row = x0 + nx * ((y0 + dy) + ny * (z0 + dz));
                            for i in row..row + wx {
                                sx += a[i];
                                sy += b[i];
                                sxx += a[i] * a[i];
                                syy += b[i] * b[i];
                                sxy += a[i] * b[i];
                            }
                        }
                    }
                    let mx = sx * inv_n;
                    let my = sy * inv_n;
                    let vx = (sxx * inv_n - mx * mx).max(0.0);
                    let vy = (syy * inv_n - my * my).max(0.0);
                    let cov = sxy * inv_n - mx * my;
                    acc += ((2.0 * mx * my + c1) * (2.0 * cov + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2));
                }
            }
        }
        acc / (xs.len() * ys.len() * zs.len()) as f64
    }

    /// An O(1)-range ramp plus noise, and a noisier copy of it.
    fn noisy_pair(dims: [usize; 3], rng: &mut Rng) -> (Vec<f64>, Vec<f64>) {
        let [nx, ny, _] = dims;
        let a: Vec<f64> = (0..dims.iter().product())
            .map(|n| {
                let (i, j, k) = (n % nx, (n / nx) % ny, n / (nx * ny));
                0.03 * i as f64 + 0.02 * j as f64 - 0.01 * k as f64 + rng.range_f64(-0.1, 0.1)
            })
            .collect();
        let b = a.iter().map(|v| v + rng.range_f64(-0.05, 0.05)).collect();
        (a, b)
    }

    #[test]
    fn separable_sums_match_the_reference() {
        amrviz_rng::check(0x5513d, 96, |rng| {
            let mut dims = [0; 3].map(|_| rng.range_usize(1, 24));
            match rng.below(4) {
                0 => dims[2] = 1,                     // a 2D image
                1 => dims[rng.range_usize(0, 2)] = 2, // one thin axis
                _ => {}
            }
            let cfg = SsimConfig {
                window: rng.range_usize(2, 11),
                stride: rng.range_usize(1, 3),
                ..Default::default()
            };
            let (a, b) = noisy_pair(dims, rng);
            let want = reference(&a, &b, dims, &cfg);
            let got = ssim3(&a, &b, dims, &cfg);
            assert!(
                (got - want).abs() <= 1e-12,
                "{dims:?} {cfg:?}: {got} vs reference {want}"
            );
        });
    }

    #[test]
    fn score_does_not_depend_on_the_chunk_size() {
        amrviz_rng::check(0x551c4, 12, |rng| {
            // Tall enough for several chunks of 3 and of 8.
            let dims = [
                rng.range_usize(3, 12),
                rng.range_usize(3, 12),
                rng.range_usize(20, 48),
            ];
            let cfg = SsimConfig {
                window: rng.range_usize(2, 9),
                stride: rng.range_usize(1, 3),
                ..Default::default()
            };
            let (a, b) = noisy_pair(dims, rng);
            let want = ssim3_chunked(&a, &b, dims, &cfg, 1).to_bits();
            let oz = Axis::new(dims[2], &cfg).origins();
            for chunk in [3, 8, oz, 1000] {
                let got = ssim3_chunked(&a, &b, dims, &cfg, chunk).to_bits();
                assert_eq!(got, want, "{dims:?} {cfg:?} chunk {chunk}");
            }
        });
    }

    #[test]
    fn scores_are_pinned_to_the_bit() {
        // Origin counts off a multiple of 4 and the last origin clamped on
        // every axis; a 2D image; a volume with one thin axis.
        let stride1 = SsimConfig {
            window: 5,
            stride: 1,
            ..Default::default()
        };
        let cases = [
            (
                [22, 18, 40],
                SsimConfig::default(),
                0x9153,
                4606825789807712877,
            ),
            (
                [38, 30, 1],
                SsimConfig::default(),
                0x9154,
                4606825776960905201,
            ),
            ([19, 2, 26], stride1, 0x9155, 4606472733071388894),
        ];
        for (dims, cfg, seed, want) in cases {
            let (a, b) = noisy_pair(dims, &mut Rng::seed(seed));
            let got = ssim3(&a, &b, dims, &cfg);
            assert_eq!(got.to_bits(), want, "{dims:?} {cfg:?}: {got}");
        }
        // The 2D image scores the same through `ssim2`.
        let (img, rec) = noisy_pair([38, 30, 1], &mut Rng::seed(0x9154));
        let flat = ssim2(&img, &rec, [38, 30], &SsimConfig::default());
        assert_eq!(flat.to_bits(), cases[1].3);
    }

    #[test]
    fn two_d_window_is_square_not_a_single_pixel() {
        // A 2D image scores like the same image replicated through a full
        // window's depth: every window holds 7 copies of the same 7×7 cells.
        let dims = [19, 14];
        let (img, rec) = noisy_pair([dims[0], dims[1], 1], &mut Rng::seed(11));
        let cfg = SsimConfig::default();
        let flat = ssim2(&img, &rec, dims, &cfg);
        let deep = ssim3(&img.repeat(7), &rec.repeat(7), [dims[0], dims[1], 7], &cfg);
        assert!((flat - deep).abs() <= 1e-12, "{flat} vs {deep}");
        // And the window really has an extent: structure is compared, so a
        // per-pixel luminance match alone does not score.
        assert!(flat < 0.99, "{flat}");
    }

    fn ramp_volume(dims: [usize; 3]) -> Vec<f64> {
        let [nx, ny, nz] = dims;
        let mut v = Vec::with_capacity(nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    v.push(i as f64 + 0.5 * j as f64 + 0.25 * (k as f64).sin());
                }
            }
        }
        v
    }

    #[test]
    fn identical_volumes_score_one() {
        let dims = [16, 16, 16];
        let v = ramp_volume(dims);
        let s = ssim3(&v, &v, dims, &SsimConfig::default());
        assert!((s - 1.0).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn noise_lowers_ssim_monotonically() {
        let dims = [16, 16, 16];
        let v = ramp_volume(dims);
        let mut rng = Rng::seed(7);
        let noisy = |amp: f64, rng: &mut Rng| -> Vec<f64> {
            v.iter().map(|x| x + rng.range_f64(-amp, amp)).collect()
        };
        let cfg = SsimConfig::default();
        let s_small = ssim3(&v, &noisy(0.01, &mut rng), dims, &cfg);
        let s_mid = ssim3(&v, &noisy(1.0, &mut rng), dims, &cfg);
        let s_big = ssim3(&v, &noisy(5.0, &mut rng), dims, &cfg);
        assert!(
            s_small > s_mid && s_mid > s_big,
            "{s_small} vs {s_mid} vs {s_big}"
        );
        assert!(s_small > 0.999);
        assert!(s_big < 0.7);
    }

    #[test]
    fn structure_inversion_penalized() {
        // Reflect each value around the global mean: same means per window
        // (approximately), anti-correlated structure → structure term flips
        // sign and SSIM drops far below 1.
        let dims = [8, 8, 8];
        let v = ramp_volume(dims);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let reflected: Vec<f64> = v.iter().map(|x| 2.0 * mean - x).collect();
        let cfg = SsimConfig {
            stride: 1,
            ..Default::default()
        };
        let s = ssim3(&v, &reflected, dims, &cfg);
        assert!(s < 0.5, "anti-correlated data scored high: {s}");
    }

    #[test]
    fn stride_approximates_exhaustive() {
        let dims = [20, 20, 20];
        let v = ramp_volume(dims);
        let mut rng = Rng::seed(3);
        let noisy: Vec<f64> = v.iter().map(|x| x + rng.range_f64(-0.3, 0.3)).collect();
        let every = SsimConfig {
            stride: 1,
            ..Default::default()
        };
        let exact = ssim3(&v, &noisy, dims, &every);
        let approx = ssim3(
            &v,
            &noisy,
            dims,
            &SsimConfig {
                stride: 3,
                ..Default::default()
            },
        );
        assert!((exact - approx).abs() < 0.02, "{exact} vs {approx}");
    }

    #[test]
    fn constant_volume_cases() {
        let dims = [8, 8, 8];
        let v = vec![2.0; 512];
        assert_eq!(ssim3(&v, &v, dims, &SsimConfig::default()), 1.0);
        let w = vec![3.0; 512];
        assert_eq!(ssim3(&v, &w, dims, &SsimConfig::default()), 0.0);
    }

    #[test]
    fn window_larger_than_volume_is_clamped() {
        let dims = [4, 4, 4];
        let v = ramp_volume(dims);
        let s = ssim3(
            &v,
            &v,
            dims,
            &SsimConfig {
                window: 11,
                ..Default::default()
            },
        );
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_d_images() {
        let dims = [32, 32];
        let img: Vec<f64> = (0..1024).map(|i| ((i % 32) as f64 * 0.2).sin()).collect();
        let s_same = ssim2(&img, &img, dims, &SsimConfig::default());
        assert!((s_same - 1.0).abs() < 1e-12);
        let shifted: Vec<f64> = (0..1024)
            .map(|i| (((i + 5) % 32) as f64 * 0.2).sin())
            .collect();
        let s_shift = ssim2(&img, &shifted, dims, &SsimConfig::default());
        assert!(s_shift < 0.9, "shifted image too similar: {s_shift}");
    }

    #[test]
    fn rssim_inverts() {
        assert_eq!(rssim(1.0), 0.0);
        assert!((rssim(0.9999998) - 2e-7).abs() < 1e-12);
    }

    #[test]
    fn blocky_artifacts_hurt_rssim_more_than_psnr_suggests() {
        // Same RMSE, different structure: blocky (correlated) error vs
        // white noise. SSIM penalizes the structured one at least as much.
        let dims = [16, 16, 16];
        let v = ramp_volume(dims);
        let [nx, ny, _] = dims;
        let mut blocky = v.clone();
        for (n, val) in blocky.iter_mut().enumerate() {
            let i = n % nx;
            let j = (n / nx) % ny;
            let k = n / (nx * ny);
            // ±0.5 per 4³ block
            let sign = if ((i / 4) + (j / 4) + (k / 4)) % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            *val += 0.5 * sign;
        }
        let cfg = SsimConfig {
            stride: 1,
            ..Default::default()
        };
        let s = ssim3(&v, &blocky, dims, &cfg);
        assert!(s < 0.999, "blocky artifact not penalized: {s}");
    }
}
