//! Rasterized boolean masks over a box region.
//!
//! Masks are the workhorse for coverage queries ("is this coarse cell
//! covered by the fine level?") and for the redundant-coarse "switching
//! cells" logic in the dual-cell visualization method.

use crate::box_array::BoxArray;
use crate::boxes::Box3;
use crate::ivec::IntVect;

/// A dense boolean grid over a [`Box3`] region (x-fastest layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raster {
    region: Box3,
    bits: Vec<bool>,
}

impl Raster {
    /// All-false raster over `region`.
    pub fn falses(region: Box3) -> Self {
        Raster {
            bits: vec![false; region.num_cells()],
            region,
        }
    }

    /// All-true raster over `region`.
    pub fn trues(region: Box3) -> Self {
        Raster {
            bits: vec![true; region.num_cells()],
            region,
        }
    }

    /// Raster marking the cells of `region` covered by any box of `ba`.
    pub fn from_box_array(region: Box3, ba: &BoxArray) -> Self {
        let mut r = Raster::falses(region);
        for bx in ba.iter() {
            r.set_box(bx, true);
        }
        r
    }

    #[inline]
    pub fn region(&self) -> Box3 {
        self.region
    }

    #[inline]
    pub fn get(&self, iv: IntVect) -> bool {
        self.region.contains(iv) && self.bits[self.region.offset(iv)]
    }

    /// Raw flag at a cell known to be inside the region.
    #[inline]
    pub fn get_unchecked(&self, iv: IntVect) -> bool {
        self.bits[self.region.offset(iv)]
    }

    /// The x-run of flags at row `(j, k)`, counted from the region's low
    /// corner — the slice to index when sweeping the region row by row.
    #[inline]
    pub fn row(&self, j: usize, k: usize) -> &[bool] {
        let [nx, ny, _] = self.region.size();
        &self.bits[nx * (j + ny * k)..][..nx]
    }

    #[inline]
    pub fn set(&mut self, iv: IntVect, v: bool) {
        if self.region.contains(iv) {
            let off = self.region.offset(iv);
            self.bits[off] = v;
        }
    }

    /// Sets every cell of `bx ∩ region`.
    pub fn set_box(&mut self, bx: &Box3, v: bool) {
        let Some(overlap) = self.region.intersect(bx) else {
            return;
        };
        let [nx, ny, _] = self.region.size();
        let [onx, ony, onz] = overlap.size();
        let lo = overlap.lo() - self.region.lo();
        for kk in 0..onz {
            for jj in 0..ony {
                let row =
                    (lo[0] as usize) + nx * ((lo[1] as usize + jj) + ny * (lo[2] as usize + kk));
                self.bits[row..row + onx].fill(v);
            }
        }
    }

    /// Number of `true` cells.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    pub fn any(&self) -> bool {
        self.bits.iter().any(|&b| b)
    }

    /// In-place logical negation.
    pub fn invert(&mut self) {
        for b in &mut self.bits {
            *b = !*b;
        }
    }

    /// In-place AND with another raster over the same region.
    pub fn and(&mut self, other: &Raster) {
        assert_eq!(self.region, other.region, "raster region mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= *b;
        }
    }

    /// In-place OR with another raster over the same region.
    pub fn or(&mut self, other: &Raster) {
        assert_eq!(self.region, other.region, "raster region mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
    }

    /// Iterates over the `true` cells.
    pub fn true_cells(&self) -> impl Iterator<Item = IntVect> + '_ {
        self.region
            .cells()
            .zip(self.bits.iter())
            .filter_map(|(c, &b)| b.then_some(c))
    }

    /// Coarsens the mask by `ratio`: a coarse cell is `true` if **any** of
    /// its fine children is `true`.
    pub fn coarsen_any(&self, ratio: i64) -> Raster {
        let coarse_region = self.region.coarsen(ratio);
        let mut out = Raster::falses(coarse_region);
        for cell in self.true_cells() {
            let off = coarse_region.offset(cell.coarsen(ratio));
            out.bits[off] = true;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> Box3 {
        Box3::new(IntVect(lo), IntVect(hi))
    }

    #[test]
    fn set_box_and_count() {
        let mut r = Raster::falses(b([0, 0, 0], [3, 3, 3]));
        r.set_box(&b([1, 1, 1], [2, 2, 2]), true);
        assert_eq!(r.count(), 8);
        assert!(r.get(IntVect::new(1, 2, 1)));
        assert!(!r.get(IntVect::new(0, 0, 0)));
        assert!(!r.get(IntVect::new(9, 9, 9))); // out of region
    }

    #[test]
    fn row_matches_per_cell_lookup() {
        let region = b([2, -1, 5], [5, 1, 6]);
        let mut r = Raster::falses(region);
        r.set_box(&b([3, 0, 6], [4, 1, 6]), true);
        for (k, z) in (5..=6).enumerate() {
            for (j, y) in (-1..=1).enumerate() {
                let want: Vec<bool> = (2..=5).map(|x| r.get(IntVect::new(x, y, z))).collect();
                assert_eq!(r.row(j, k), want, "row ({j}, {k})");
            }
        }
    }

    #[test]
    fn from_box_array_marks_union() {
        let ba = BoxArray::new(vec![b([0, 0, 0], [0, 3, 3]), b([3, 0, 0], [3, 3, 3])]);
        let r = Raster::from_box_array(b([0, 0, 0], [3, 3, 3]), &ba);
        assert_eq!(r.count(), 32);
        assert!(r.true_cells().all(|c| c[0] == 0 || c[0] == 3));
    }

    #[test]
    fn coarsen_any_vs_all() {
        let mut r = Raster::falses(b([0, 0, 0], [3, 3, 3]));
        // Fill exactly one fine child of coarse cell (0,0,0), all 8 of (1,1,1).
        r.set(IntVect::new(0, 0, 0), true);
        r.set_box(&b([2, 2, 2], [3, 3, 3]), true);
        let any = r.coarsen_any(2);
        assert!(any.get(IntVect::new(0, 0, 0)));
        assert!(any.get(IntVect::new(1, 1, 1)));
        assert!(!any.get(IntVect::new(1, 0, 0)));
    }

    #[test]
    fn logic_ops() {
        let region = b([0, 0, 0], [1, 1, 1]);
        let mut a = Raster::falses(region);
        a.set_box(&b([0, 0, 0], [0, 1, 1]), true);
        let mut bm = Raster::falses(region);
        bm.set_box(&b([0, 0, 0], [1, 0, 1]), true);
        let mut and = a.clone();
        and.and(&bm);
        assert_eq!(and.count(), 2);
        let mut or = a.clone();
        or.or(&bm);
        assert_eq!(or.count(), 6);
        let mut inv = a;
        inv.invert();
        assert_eq!(inv.count(), 4);
    }
}
