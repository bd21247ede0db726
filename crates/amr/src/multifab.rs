//! `MultiFab` — one scalar field over the box array of an AMR level.

use crate::box_array::BoxArray;
use crate::boxes::Box3;
use crate::fab::{copy_region, Fab};
use crate::ivec::IntVect;

/// A field over a whole level: one [`Fab`] per box of the level's
/// [`BoxArray`], in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFab {
    fabs: Vec<Fab>,
}

impl MultiFab {
    /// Zero-filled field on `ba`.
    pub fn zeros(ba: &BoxArray) -> Self {
        MultiFab {
            fabs: ba.iter().map(|&bx| Fab::zeros(bx)).collect(),
        }
    }

    /// Builds a field by evaluating `f` at every cell of every box.
    /// Evaluation is parallel over boxes.
    pub fn from_fn(ba: &BoxArray, f: impl Fn(IntVect) -> f64 + Sync) -> Self {
        let boxes = ba.boxes();
        let fabs = amrviz_par::run(boxes.len(), |i| Fab::from_fn(boxes[i], &f));
        MultiFab { fabs }
    }

    pub fn from_fabs(fabs: Vec<Fab>) -> Self {
        MultiFab { fabs }
    }

    pub fn fabs(&self) -> &[Fab] {
        &self.fabs
    }

    pub fn fabs_mut(&mut self) -> &mut [Fab] {
        &mut self.fabs
    }

    pub fn len(&self) -> usize {
        self.fabs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fabs.is_empty()
    }

    /// The box array this field lives on.
    pub fn box_array(&self) -> BoxArray {
        BoxArray::new(self.fabs.iter().map(|f| f.box3()).collect())
    }

    /// Total cell count.
    pub fn num_cells(&self) -> usize {
        self.fabs.iter().map(|f| f.box3().num_cells()).sum()
    }

    /// Looks up the value at a cell, scanning boxes (patch-based levels are
    /// disjoint, so the first hit is authoritative).
    pub fn value_at(&self, iv: IntVect) -> Option<f64> {
        self.fabs.iter().find_map(|f| f.try_get(iv))
    }

    /// `(min, max)` in a single pass. Per-fab extrema are computed in
    /// parallel and folded in box order, so the result is thread-count
    /// independent.
    pub fn min_max(&self) -> (f64, f64) {
        amrviz_par::run(self.fabs.len(), |i| {
            amrviz_par::min_max(self.fabs[i].data())
        })
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(al, ah), (bl, bh)| {
            (al.min(bl), ah.max(bh))
        })
    }

    /// Applies `f` to every value, in parallel over fabs.
    pub fn apply(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        amrviz_par::for_each_chunk_mut(&mut self.fabs, 1, |_, chunk| {
            chunk[0].apply(&f);
        });
    }

    /// Concatenates all fab buffers into one `Vec` in box order. The inverse
    /// of [`MultiFab::from_flat`].
    pub fn to_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_cells());
        for f in &self.fabs {
            out.extend_from_slice(f.data());
        }
        out
    }

    /// Cuts a dense, x-fastest array over `region` into a field on `ba` —
    /// the inverse of [`rasterize_into`].
    ///
    /// # Panics
    /// Panics if `dense.len() != region.num_cells()` or if a box of `ba`
    /// is not contained in `region`.
    pub fn from_dense(ba: &BoxArray, region: Box3, dense: &[f64]) -> Self {
        assert_eq!(
            dense.len(),
            region.num_cells(),
            "dense buffer size mismatch"
        );
        let fabs = ba
            .iter()
            .map(|&bx| {
                assert!(region.contains_box(&bx), "box {bx} outside dense region");
                let mut fab = Fab::zeros(bx);
                copy_region(fab.data_mut(), bx, dense, region, bx);
                fab
            })
            .collect();
        MultiFab { fabs }
    }

    /// Rebuilds a multifab from a flat buffer laid out like
    /// [`MultiFab::to_flat`] over `ba`.
    pub fn from_flat(ba: &BoxArray, flat: &[f64]) -> Self {
        assert_eq!(flat.len(), ba.num_cells(), "flat buffer size mismatch");
        let mut fabs = Vec::with_capacity(ba.len());
        let mut off = 0;
        for &bx in ba.iter() {
            let n = bx.num_cells();
            fabs.push(Fab::from_vec(bx, flat[off..off + n].to_vec()));
            off += n;
        }
        MultiFab { fabs }
    }
}

/// Rasterizes a multifab onto a dense array over `region`, writing values of
/// cells covered by the multifab and leaving others untouched. Returns the
/// number of cells written. The inverse is [`MultiFab::from_dense`].
pub fn rasterize_into(mf: &MultiFab, region: Box3, out: &mut [f64]) -> usize {
    assert_eq!(out.len(), region.num_cells());
    mf.fabs()
        .iter()
        .filter_map(|fab| {
            let overlap = fab.box3().intersect(&region)?;
            Some(copy_region(out, region, fab.data(), fab.box3(), overlap))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> Box3 {
        Box3::new(IntVect(lo), IntVect(hi))
    }

    fn sample_ba() -> BoxArray {
        BoxArray::new(vec![b([0, 0, 0], [3, 3, 3]), b([4, 0, 0], [7, 3, 3])])
    }

    #[test]
    fn from_fn_fills_all_boxes() {
        let ba = sample_ba();
        let mf = MultiFab::from_fn(&ba, |iv| iv[0] as f64);
        assert_eq!(mf.num_cells(), ba.num_cells());
        assert_eq!(mf.value_at(IntVect::new(6, 1, 2)), Some(6.0));
        assert_eq!(mf.value_at(IntVect::new(8, 0, 0)), None);
        assert_eq!(mf.min_max(), (0.0, 7.0));
    }

    #[test]
    fn flat_roundtrip() {
        let ba = sample_ba();
        let mf = MultiFab::from_fn(&ba, |iv| (iv[0] + 10 * iv[1] + 100 * iv[2]) as f64);
        let flat = mf.to_flat();
        let back = MultiFab::from_flat(&ba, &flat);
        assert_eq!(mf, back);
    }

    #[test]
    fn rasterize_into_region() {
        let ba = sample_ba();
        let mf = MultiFab::from_fn(&ba, |iv| iv.sum() as f64);
        let region = b([0, 0, 0], [7, 3, 3]);
        let mut out = vec![f64::NAN; region.num_cells()];
        let written = rasterize_into(&mf, region, &mut out);
        assert_eq!(written, region.num_cells());
        for (n, cell) in region.cells().enumerate() {
            assert_eq!(out[n], cell.sum() as f64);
        }
    }

    #[test]
    fn rasterize_partial_leaves_gaps() {
        let mf = MultiFab::from_fn(&BoxArray::single(b([0, 0, 0], [1, 1, 1])), |_| 1.0);
        let region = b([0, 0, 0], [3, 1, 1]);
        let mut out = vec![-5.0; region.num_cells()];
        let written = rasterize_into(&mf, region, &mut out);
        assert_eq!(written, 8);
        assert_eq!(out.iter().filter(|&&v| v == -5.0).count(), 8);
    }
}
