//! Mapping between the integer index space and physical coordinates.

use crate::boxes::Box3;
use crate::ivec::IntVect;

/// Physical geometry of the level-0 index domain. Finer levels divide the
/// cell size by the accumulated refinement ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Level-0 index domain.
    pub domain: Box3,
    /// Physical coordinates of the domain's low corner.
    pub prob_lo: [f64; 3],
    /// Physical coordinates of the domain's high corner.
    pub prob_hi: [f64; 3],
}

impl Geometry {
    /// Unit-cube geometry over `domain`.
    pub fn unit(domain: Box3) -> Self {
        Geometry {
            domain,
            prob_lo: [0.0; 3],
            prob_hi: [1.0; 3],
        }
    }

    pub fn new(domain: Box3, prob_lo: [f64; 3], prob_hi: [f64; 3]) -> Self {
        for a in 0..3 {
            assert!(
                prob_hi[a] > prob_lo[a],
                "degenerate physical extent on axis {a}"
            );
        }
        Geometry {
            domain,
            prob_lo,
            prob_hi,
        }
    }

    /// Cell size at level 0.
    pub fn cell_size(&self) -> [f64; 3] {
        let s = self.domain.size();
        [
            (self.prob_hi[0] - self.prob_lo[0]) / s[0] as f64,
            (self.prob_hi[1] - self.prob_lo[1]) / s[1] as f64,
            (self.prob_hi[2] - self.prob_lo[2]) / s[2] as f64,
        ]
    }

    /// Cell size at a level whose accumulated refinement relative to level 0
    /// is `ratio_to_level0`.
    pub fn cell_size_at(&self, ratio_to_level0: i64) -> [f64; 3] {
        let h = self.cell_size();
        let r = ratio_to_level0 as f64;
        [h[0] / r, h[1] / r, h[2] / r]
    }

    /// Physical position of a cell *center* at the given accumulated ratio.
    pub fn cell_center(&self, iv: IntVect, ratio_to_level0: i64) -> [f64; 3] {
        let h = self.cell_size_at(ratio_to_level0);
        [
            self.prob_lo[0] + (iv[0] as f64 + 0.5) * h[0],
            self.prob_lo[1] + (iv[1] as f64 + 0.5) * h[1],
            self.prob_lo[2] + (iv[2] as f64 + 0.5) * h[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_sizes_divide_by_ratio() {
        let g = Geometry::new(Box3::from_dims(8, 8, 16), [0.0, 0.0, 0.0], [1.0, 1.0, 2.0]);
        assert_eq!(g.cell_size(), [0.125, 0.125, 0.125]);
        assert_eq!(g.cell_size_at(2), [0.0625, 0.0625, 0.0625]);
    }

    #[test]
    fn centers_and_nodes() {
        let g = Geometry::unit(Box3::from_dims(4, 4, 4));
        let c = g.cell_center(IntVect::new(0, 0, 0), 1);
        assert_eq!(c, [0.125, 0.125, 0.125]);
        // fine cell 0 center sits at half the coarse offset
        let cf = g.cell_center(IntVect::new(0, 0, 0), 2);
        assert_eq!(cf, [0.0625, 0.0625, 0.0625]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_degenerate_extent() {
        Geometry::new(Box3::from_dims(2, 2, 2), [0.0; 3], [1.0, 0.0, 1.0]);
    }
}
