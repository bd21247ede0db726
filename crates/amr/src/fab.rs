//! `Fab` — a dense scalar field on a single box (AMReX `FArrayBox`).

use crate::boxes::Box3;
use crate::ivec::IntVect;

/// A dense, cell-centered `f64` field on one [`Box3`], stored x-fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct Fab {
    bx: Box3,
    data: Vec<f64>,
}

impl Fab {
    /// Zero-filled fab on `bx`.
    pub fn zeros(bx: Box3) -> Self {
        Fab {
            data: vec![0.0; bx.num_cells()],
            bx,
        }
    }

    /// Constant-filled fab on `bx`.
    pub fn constant(bx: Box3, v: f64) -> Self {
        Fab {
            data: vec![v; bx.num_cells()],
            bx,
        }
    }

    /// Fab taking ownership of an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != bx.num_cells()`.
    pub fn from_vec(bx: Box3, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), bx.num_cells(), "fab buffer size mismatch");
        Fab { bx, data }
    }

    /// Fills the fab by evaluating `f` at every cell index.
    pub fn from_fn(bx: Box3, mut f: impl FnMut(IntVect) -> f64) -> Self {
        let mut data = Vec::with_capacity(bx.num_cells());
        for cell in bx.cells() {
            data.push(f(cell));
        }
        Fab { bx, data }
    }

    #[inline]
    pub fn box3(&self) -> Box3 {
        self.bx
    }

    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Lets `fill` rebuild the fab's buffer in place — a decoder writing
    /// its output where it will live, with no scratch copy. If `fill` fails
    /// or leaves a buffer that does not match the box, the fab is
    /// zero-filled and stays valid.
    pub fn refill_with<E>(
        &mut self,
        fill: impl FnOnce(&mut Vec<f64>) -> Result<(), E>,
    ) -> Result<(), E> {
        let filled = fill(&mut self.data);
        let n = self.bx.num_cells();
        if filled.is_err() || self.data.len() != n {
            self.data.clear();
            self.data.resize(n, 0.0);
        }
        filled
    }

    #[inline]
    pub fn get(&self, iv: IntVect) -> f64 {
        self.data[self.bx.offset(iv)]
    }

    #[inline]
    pub fn set(&mut self, iv: IntVect, v: f64) {
        let off = self.bx.offset(iv);
        self.data[off] = v;
    }

    /// Value if the cell lies inside the fab's box.
    #[inline]
    pub fn try_get(&self, iv: IntVect) -> Option<f64> {
        self.bx.contains(iv).then(|| self.get(iv))
    }

    /// Iterates `(cell, value)` in x-fastest order.
    pub fn iter(&self) -> impl Iterator<Item = (IntVect, f64)> + '_ {
        self.bx.cells().zip(self.data.iter().copied())
    }

    /// Copies the overlap region from `src` into `self`. Returns the number
    /// of cells copied (0 when the boxes do not overlap).
    pub fn copy_from(&mut self, src: &Fab) -> usize {
        match self.bx.intersect(&src.bx) {
            Some(overlap) => copy_region(&mut self.data, self.bx, &src.data, src.bx, overlap),
            None => 0,
        }
    }

    /// Applies `f` to every value in place.
    pub fn apply(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Extracts a sub-fab over `region` (must be contained in the fab box).
    pub fn subfab(&self, region: Box3) -> Fab {
        assert!(self.bx.contains_box(&region), "subfab region outside fab");
        let mut out = Fab::zeros(region);
        copy_region(&mut out.data, region, &self.data, self.bx, region);
        out
    }

    /// Copies the values of `region` (which must be contained in the fab's
    /// box) into `out`, x-fastest — the allocation-free counterpart of
    /// [`Fab::subfab`] for callers that own a reusable buffer.
    ///
    /// # Panics
    /// Panics if `region` is not contained in the fab's box or if
    /// `out.len() != region.num_cells()`.
    pub fn read_region_into(&self, region: Box3, out: &mut [f64]) {
        assert!(self.bx.contains_box(&region), "read region outside fab");
        assert_eq!(out.len(), region.num_cells(), "region buffer size mismatch");
        copy_region(out, region, &self.data, self.bx, region);
    }

    /// Writes a `region`-shaped, x-fastest buffer into the fab — the inverse
    /// of [`Fab::read_region_into`], replacing the build-a-`Fab`-then-
    /// `copy_from` dance when the source data already lives in a flat slice.
    ///
    /// # Panics
    /// Panics if `region` is not contained in the fab's box or if
    /// `src.len() != region.num_cells()`.
    pub fn write_region_from(&mut self, region: Box3, src: &[f64]) {
        assert!(self.bx.contains_box(&region), "write region outside fab");
        assert_eq!(src.len(), region.num_cells(), "region buffer size mismatch");
        copy_region(&mut self.data, self.bx, src, region, region);
    }
}

/// The one strided box copy: copies the cells of `region` from `src`, laid
/// out x-fastest over `src_bx`, into `dst`, laid out over `dst_bx`, one
/// x-row at a time, and returns the number of cells copied. `region` must
/// lie inside both boxes.
#[inline]
pub(crate) fn copy_region(
    dst: &mut [f64],
    dst_bx: Box3,
    src: &[f64],
    src_bx: Box3,
    region: Box3,
) -> usize {
    // Offset, in a buffer over `bx`, of the row (jj, kk) of `region`.
    let rows = |bx: Box3| {
        let lo = region.lo() - bx.lo();
        let [nx, ny, _] = bx.size();
        move |jj: usize, kk: usize| {
            lo[0] as usize + nx * ((lo[1] as usize + jj) + ny * (lo[2] as usize + kk))
        }
    };
    let (drow, srow) = (rows(dst_bx), rows(src_bx));
    let [onx, ony, onz] = region.size();
    for kk in 0..onz {
        for jj in 0..ony {
            let (d, s) = (drow(jj, kk), srow(jj, kk));
            dst[d..d + onx].copy_from_slice(&src[s..s + onx]);
        }
    }
    onx * ony * onz
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> Box3 {
        Box3::new(IntVect(lo), IntVect(hi))
    }

    #[test]
    fn refill_with_keeps_the_fab_valid() {
        let mut fab = Fab::constant(b([0, 0, 0], [1, 1, 1]), 3.0);
        // A fill of the right length lands in place.
        let ok: Result<(), ()> = fab.refill_with(|v| {
            v.clear();
            v.extend((0..8).map(f64::from));
            Ok(())
        });
        assert_eq!((ok, fab.data()[7]), (Ok(()), 7.0));
        // A failed fill, or one of the wrong length, reads as zero.
        let failed = fab.refill_with(|v| {
            v[0] = 9.0;
            Err("bad blob")
        });
        assert_eq!((failed, fab.data()), (Err("bad blob"), &[0.0; 8][..]));
        let short: Result<(), ()> = fab.refill_with(|v| {
            v.truncate(3);
            Ok(())
        });
        assert_eq!((short, fab.data()), (Ok(()), &[0.0; 8][..]));
    }

    #[test]
    fn from_fn_and_get() {
        let bx = b([1, 1, 1], [3, 3, 3]);
        let fab = Fab::from_fn(bx, |iv| (iv[0] * 100 + iv[1] * 10 + iv[2]) as f64);
        assert_eq!(fab.get(IntVect::new(2, 3, 1)), 231.0);
        assert_eq!(fab.try_get(IntVect::new(0, 0, 0)), None);
        assert_eq!(amrviz_par::min_max(fab.data()), (111.0, 333.0));
    }

    #[test]
    fn copy_from_overlap_only() {
        let mut dst = Fab::constant(b([0, 0, 0], [3, 3, 3]), -1.0);
        let src = Fab::from_fn(b([2, 2, 2], [5, 5, 5]), |iv| iv.sum() as f64);
        let n = dst.copy_from(&src);
        assert_eq!(n, 8); // 2×2×2 overlap
        assert_eq!(dst.get(IntVect::new(3, 3, 3)), 9.0);
        assert_eq!(dst.get(IntVect::new(2, 2, 2)), 6.0);
        assert_eq!(dst.get(IntVect::new(1, 1, 1)), -1.0); // untouched
    }

    #[test]
    fn copy_from_disjoint_is_noop() {
        let mut dst = Fab::constant(b([0, 0, 0], [1, 1, 1]), 5.0);
        let src = Fab::constant(b([10, 10, 10], [11, 11, 11]), 7.0);
        assert_eq!(dst.copy_from(&src), 0);
        assert!(dst.data().iter().all(|&v| v == 5.0));
    }

    #[test]
    fn subfab_extracts_values() {
        let fab = Fab::from_fn(b([0, 0, 0], [4, 4, 4]), |iv| iv.sum() as f64);
        let sub = fab.subfab(b([1, 2, 3], [2, 3, 4]));
        assert_eq!(sub.box3().num_cells(), 8);
        for (cell, v) in sub.iter() {
            assert_eq!(v, cell.sum() as f64);
        }
    }

    #[test]
    fn read_region_into_matches_subfab() {
        let fab = Fab::from_fn(b([0, 0, 0], [4, 4, 4]), |iv| iv.sum() as f64);
        let region = b([1, 2, 3], [2, 3, 4]);
        let mut buf = vec![0.0; region.num_cells()];
        fab.read_region_into(region, &mut buf);
        assert_eq!(buf, fab.subfab(region).into_vec());
    }

    #[test]
    fn write_region_from_roundtrips_read() {
        let src = Fab::from_fn(b([0, 0, 0], [4, 4, 4]), |iv| iv.sum() as f64);
        let region = b([1, 1, 1], [3, 2, 4]);
        let mut buf = vec![0.0; region.num_cells()];
        src.read_region_into(region, &mut buf);
        let mut dst = Fab::zeros(b([0, 0, 0], [4, 4, 4]));
        dst.write_region_from(region, &buf);
        for (cell, v) in dst.iter() {
            let want = if region.contains(cell) {
                cell.sum() as f64
            } else {
                0.0
            };
            assert_eq!(v, want, "at {cell:?}");
        }
    }

    #[test]
    #[should_panic(expected = "read region outside fab")]
    fn read_region_checks_containment() {
        let fab = Fab::zeros(b([0, 0, 0], [1, 1, 1]));
        let mut buf = vec![0.0; 8];
        fab.read_region_into(b([1, 1, 1], [2, 2, 2]), &mut buf);
    }

    #[test]
    fn iter_matches_layout() {
        let bx = b([0, 0, 0], [1, 1, 0]);
        let fab = Fab::from_vec(bx, vec![0.0, 1.0, 2.0, 3.0]);
        let items: Vec<_> = fab.iter().collect();
        assert_eq!(items[1], (IntVect::new(1, 0, 0), 1.0));
        assert_eq!(items[2], (IntVect::new(0, 1, 0), 2.0));
    }

    #[test]
    fn apply_transforms_in_place() {
        let mut fab = Fab::constant(b([0, 0, 0], [1, 0, 0]), 2.0);
        fab.apply(|v| v * v + 1.0);
        assert!(fab.data().iter().all(|&v| v == 5.0));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_vec_checks_length() {
        Fab::from_vec(b([0, 0, 0], [1, 1, 1]), vec![0.0; 7]);
    }
}
