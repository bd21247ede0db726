//! Collections of boxes describing the footprint of one AMR level.

use crate::boxes::Box3;
use crate::ivec::IntVect;

/// The set of boxes making up one level's grid. In patch-based AMR the
/// boxes of a level are pairwise disjoint; [`BoxArray::validate_disjoint`]
/// checks that.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoxArray {
    boxes: Vec<Box3>,
}

impl BoxArray {
    pub fn new(boxes: Vec<Box3>) -> Self {
        BoxArray { boxes }
    }

    /// A single-box array (e.g. the root domain).
    pub fn single(bx: Box3) -> Self {
        BoxArray { boxes: vec![bx] }
    }

    pub fn boxes(&self) -> &[Box3] {
        &self.boxes
    }

    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    pub fn push(&mut self, bx: Box3) {
        self.boxes.push(bx);
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Box3> {
        self.boxes.iter()
    }

    /// Total number of cells over all boxes (assumes disjointness).
    pub fn num_cells(&self) -> usize {
        self.boxes.iter().map(Box3::num_cells).sum()
    }

    /// Smallest box containing every box, or `None` when empty.
    pub fn bounding_box(&self) -> Option<Box3> {
        self.boxes.iter().copied().reduce(|a, b| a.union_hull(&b))
    }

    /// True if any box contains the cell.
    pub fn contains(&self, iv: IntVect) -> bool {
        self.boxes.iter().any(|b| b.contains(iv))
    }

    /// True if `bx` intersects any member box.
    pub fn intersects(&self, bx: &Box3) -> bool {
        self.boxes.iter().any(|b| b.intersects(bx))
    }

    /// Refines every box.
    pub fn refine(&self, ratio: i64) -> BoxArray {
        BoxArray {
            boxes: self.boxes.iter().map(|b| b.refine(ratio)).collect(),
        }
    }

    /// Coarsens every box.
    pub fn coarsen(&self, ratio: i64) -> BoxArray {
        BoxArray {
            boxes: self.boxes.iter().map(|b| b.coarsen(ratio)).collect(),
        }
    }

    /// Coarsens inward: only the coarse cells every box *fully* covers
    /// survive ([`Box3::coarsen_inward`]); boxes too small or too
    /// misaligned to cover any coarse cell drop out entirely. The result
    /// may therefore hold fewer boxes than `self`.
    pub fn coarsen_inward(&self, ratio: i64) -> BoxArray {
        BoxArray {
            boxes: self
                .boxes
                .iter()
                .filter_map(|b| b.coarsen_inward(ratio))
                .collect(),
        }
    }

    /// Checks pairwise disjointness (O(n²); fine for the box counts AMR
    /// levels produce).
    pub fn validate_disjoint(&self) -> Result<(), (Box3, Box3)> {
        for (i, a) in self.boxes.iter().enumerate() {
            for b in &self.boxes[i + 1..] {
                if a.intersects(b) {
                    return Err((*a, *b));
                }
            }
        }
        Ok(())
    }

    /// True if the union of boxes covers `domain` exactly (assumes
    /// disjointness): coverage is checked by cell count plus containment.
    pub fn covers_exactly(&self, domain: &Box3) -> bool {
        self.boxes.iter().all(|b| domain.contains_box(b)) && self.num_cells() == domain.num_cells()
    }

    /// The parts of `bx` *not* covered by this array, as disjoint boxes.
    pub fn complement_in(&self, bx: &Box3) -> Vec<Box3> {
        let mut remaining = vec![*bx];
        for cut in &self.boxes {
            let mut next = Vec::with_capacity(remaining.len());
            for piece in remaining {
                next.extend(piece.subtract(cut));
            }
            remaining = next;
            if remaining.is_empty() {
                break;
            }
        }
        remaining
    }

    /// Splits every box so that no box has more than `max_cells` cells,
    /// chopping along the longest axis. Useful to emulate AMReX
    /// `max_grid_size` distribution.
    pub fn chop_to_max_cells(&self, max_cells: usize) -> BoxArray {
        assert!(max_cells > 0);
        let mut out = Vec::with_capacity(self.boxes.len());
        let mut stack: Vec<Box3> = self.boxes.clone();
        while let Some(bx) = stack.pop() {
            if bx.num_cells() <= max_cells {
                out.push(bx);
                continue;
            }
            let axis = bx.longest_axis();
            let mid = bx.lo()[axis] + (bx.extent(axis) as i64) / 2;
            match bx.chop(axis, mid) {
                Some((a, b)) => {
                    stack.push(a);
                    stack.push(b);
                }
                None => out.push(bx), // single-cell box larger than budget
            }
        }
        out.sort_by_key(|b| (b.lo()[2], b.lo()[1], b.lo()[0]));
        BoxArray { boxes: out }
    }
}

impl From<Vec<Box3>> for BoxArray {
    fn from(boxes: Vec<Box3>) -> Self {
        BoxArray { boxes }
    }
}

impl<'a> IntoIterator for &'a BoxArray {
    type Item = &'a Box3;
    type IntoIter = std::slice::Iter<'a, Box3>;
    fn into_iter(self) -> Self::IntoIter {
        self.boxes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> Box3 {
        Box3::new(IntVect(lo), IntVect(hi))
    }

    #[test]
    fn counts_and_bounds() {
        let ba = BoxArray::new(vec![b([0, 0, 0], [1, 1, 1]), b([4, 0, 0], [5, 1, 1])]);
        assert_eq!(ba.num_cells(), 16);
        assert_eq!(ba.bounding_box(), Some(b([0, 0, 0], [5, 1, 1])));
        assert!(ba.contains(IntVect::new(5, 1, 1)));
        assert!(!ba.contains(IntVect::new(2, 0, 0)));
    }

    #[test]
    fn disjoint_validation() {
        let good = BoxArray::new(vec![b([0, 0, 0], [1, 1, 1]), b([2, 0, 0], [3, 1, 1])]);
        assert!(good.validate_disjoint().is_ok());
        let bad = BoxArray::new(vec![b([0, 0, 0], [2, 2, 2]), b([2, 2, 2], [4, 4, 4])]);
        assert!(bad.validate_disjoint().is_err());
    }

    #[test]
    fn complement_covers_the_rest() {
        let domain = b([0, 0, 0], [7, 7, 7]);
        let ba = BoxArray::new(vec![b([0, 0, 0], [3, 7, 7]), b([4, 0, 0], [7, 3, 7])]);
        let rest = BoxArray::new(ba.complement_in(&domain));
        assert!(rest.validate_disjoint().is_ok());
        assert_eq!(ba.num_cells() + rest.num_cells(), domain.num_cells());
        for piece in rest.iter() {
            assert!(!ba.intersects(piece));
        }
    }

    #[test]
    fn complement_of_full_cover_is_empty() {
        let domain = b([0, 0, 0], [3, 3, 3]);
        let ba = BoxArray::single(domain);
        assert!(ba.complement_in(&domain).is_empty());
        assert!(ba.covers_exactly(&domain));
    }

    #[test]
    fn chop_to_max_cells_partitions() {
        let domain = b([0, 0, 0], [15, 15, 15]);
        let ba = BoxArray::single(domain).chop_to_max_cells(512);
        assert!(ba.validate_disjoint().is_ok());
        assert_eq!(ba.num_cells(), domain.num_cells());
        for bx in ba.iter() {
            assert!(bx.num_cells() <= 512, "{bx} too big");
        }
        assert!(ba.covers_exactly(&domain));
    }

    #[test]
    fn refine_coarsen_preserve_counts() {
        let ba = BoxArray::new(vec![b([0, 0, 0], [1, 1, 1]), b([4, 4, 4], [5, 5, 5])]);
        let fine = ba.refine(2);
        assert_eq!(fine.num_cells(), ba.num_cells() * 8);
        assert_eq!(fine.coarsen(2), ba);
    }
}
