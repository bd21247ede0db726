//! Separable 3D FFT over a dense complex grid.
//!
//! Layout is x-fastest (`idx = i + nx*(j + ny*k)`), matching the rest of the
//! workspace. Each axis is transformed with a shared [`Fft1dPlan`]; lines
//! are processed in parallel on the deterministic `amrviz-par` pool.

use crate::complex::Complex;
use crate::fft1d::Fft1dPlan;

/// Dense 3D complex grid with x-fastest layout.
pub struct Grid3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub data: Vec<Complex>,
}

impl Grid3 {
    /// Zero-filled grid.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Grid3 {
            nx,
            ny,
            nz,
            data: vec![Complex::ZERO; nx * ny * nz],
        }
    }

    /// Grid built from a real scalar field.
    #[cfg(test)]
    pub fn from_real(nx: usize, ny: usize, nz: usize, real: &[f64]) -> Self {
        assert_eq!(real.len(), nx * ny * nz);
        Grid3 {
            nx,
            ny,
            nz,
            data: real.iter().map(|&r| Complex::real(r)).collect(),
        }
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> Complex {
        self.data[self.idx(i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: Complex) {
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Real parts of all samples.
    pub fn real_part(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.re).collect()
    }
}

enum Direction {
    Forward,
    Inverse,
}

fn transform_axis(grid: &mut Grid3, axis: usize, dir: &Direction) {
    let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
    let n = [nx, ny, nz][axis];
    let plan = Fft1dPlan::new(n);

    match axis {
        0 => {
            // x lines are contiguous: transform each row in place.
            amrviz_par::for_each_chunk_mut(&mut grid.data, nx, |_, row| match dir {
                Direction::Forward => plan.forward(row),
                Direction::Inverse => plan.inverse(row),
            });
        }
        1 => {
            // y lines live within one z-slab; parallelize over slabs.
            amrviz_par::for_each_chunk_mut(&mut grid.data, nx * ny, |_, slab| {
                let mut line = vec![Complex::ZERO; ny];
                for i in 0..nx {
                    for j in 0..ny {
                        line[j] = slab[i + nx * j];
                    }
                    match dir {
                        Direction::Forward => plan.forward(&mut line),
                        Direction::Inverse => plan.inverse(&mut line),
                    }
                    for j in 0..ny {
                        slab[i + nx * j] = line[j];
                    }
                }
            });
        }
        2 => {
            // z lines stride across slabs; parallelize over (i, j) pencils by
            // chunking flattened pencil indices.
            let stride = nx * ny;
            let data_ptr = SyncPtr(grid.data.as_mut_ptr());
            amrviz_par::run(stride, |p| {
                let ptr = data_ptr; // copy the Sync wrapper into the closure
                let mut line = vec![Complex::ZERO; nz];
                // SAFETY: each pencil index `p` touches the disjoint index
                // set {p + stride*k}, so parallel pencils never alias.
                unsafe {
                    for (k, item) in line.iter_mut().enumerate() {
                        *item = *ptr.0.add(p + stride * k);
                    }
                    match dir {
                        Direction::Forward => plan.forward(&mut line),
                        Direction::Inverse => plan.inverse(&mut line),
                    }
                    for (k, item) in line.iter().enumerate() {
                        *ptr.0.add(p + stride * k) = *item;
                    }
                }
            });
        }
        _ => unreachable!("axis must be 0, 1, or 2"),
    }
}

#[derive(Clone, Copy)]
struct SyncPtr(*mut Complex);
// SAFETY: used only with provably disjoint index sets (see transform_axis).
unsafe impl Send for SyncPtr {}
unsafe impl Sync for SyncPtr {}

/// In-place forward 3D FFT.
pub fn fft3(grid: &mut Grid3) {
    transform_axis(grid, 0, &Direction::Forward);
    transform_axis(grid, 1, &Direction::Forward);
    transform_axis(grid, 2, &Direction::Forward);
}

/// In-place inverse 3D FFT (normalized by the total number of samples).
pub fn ifft3(grid: &mut Grid3) {
    transform_axis(grid, 0, &Direction::Inverse);
    transform_axis(grid, 1, &Direction::Inverse);
    transform_axis(grid, 2, &Direction::Inverse);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_3d() {
        let (nx, ny, nz) = (8, 4, 16);
        let real: Vec<f64> = (0..nx * ny * nz).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut g = Grid3::from_real(nx, ny, nz, &real);
        fft3(&mut g);
        ifft3(&mut g);
        for (a, b) in g.real_part().iter().zip(&real) {
            assert!((a - b).abs() < 1e-10);
        }
        for z in &g.data {
            assert!(z.im.abs() < 1e-10);
        }
    }

    #[test]
    fn constant_field_concentrates_at_dc() {
        let (nx, ny, nz) = (4, 4, 4);
        let mut g = Grid3::from_real(nx, ny, nz, &vec![2.5; 64]);
        fft3(&mut g);
        assert!((g.at(0, 0, 0).re - 2.5 * 64.0).abs() < 1e-9);
        for (idx, z) in g.data.iter().enumerate() {
            if idx != 0 {
                assert!(z.abs() < 1e-9, "non-DC energy at {idx}");
            }
        }
    }

    #[test]
    fn plane_wave_hits_expected_bin() {
        let (nx, ny, nz) = (8, 8, 8);
        let (kx, ky, kz) = (2usize, 3usize, 1usize);
        let mut g = Grid3::zeros(nx, ny, nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let phase = 2.0 * std::f64::consts::PI * (kx * i) as f64 / nx as f64
                        + 2.0 * std::f64::consts::PI * (ky * j) as f64 / ny as f64
                        + 2.0 * std::f64::consts::PI * (kz * k) as f64 / nz as f64;
                    g.set(i, j, k, Complex::cis(phase));
                }
            }
        }
        fft3(&mut g);
        let total = (nx * ny * nz) as f64;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let z = g.at(i, j, k);
                    if (i, j, k) == (kx, ky, kz) {
                        assert!((z.re - total).abs() < 1e-8);
                    } else {
                        assert!(z.abs() < 1e-8);
                    }
                }
            }
        }
    }

    #[test]
    fn anisotropic_dims_supported() {
        let (nx, ny, nz) = (16, 2, 4);
        let real: Vec<f64> = (0..nx * ny * nz).map(|i| (i % 7) as f64).collect();
        let mut g = Grid3::from_real(nx, ny, nz, &real);
        fft3(&mut g);
        ifft3(&mut g);
        for (a, b) in g.real_part().iter().zip(&real) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
