//! Integer index vectors for the 3D structured index space.

use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A point in the integer index space (cell or node index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntVect(pub [i64; 3]);

impl IntVect {
    pub const ZERO: IntVect = IntVect([0, 0, 0]);
    pub const UNIT: IntVect = IntVect([1, 1, 1]);

    #[inline]
    pub const fn new(x: i64, y: i64, z: i64) -> Self {
        IntVect([x, y, z])
    }

    /// All components equal to `v`.
    #[inline]
    pub const fn splat(v: i64) -> Self {
        IntVect([v, v, v])
    }

    #[inline]
    pub fn x(&self) -> i64 {
        self.0[0]
    }

    #[inline]
    pub fn y(&self) -> i64 {
        self.0[1]
    }

    #[inline]
    pub fn z(&self) -> i64 {
        self.0[2]
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: IntVect) -> IntVect {
        IntVect([
            self.0[0].min(o.0[0]),
            self.0[1].min(o.0[1]),
            self.0[2].min(o.0[2]),
        ])
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: IntVect) -> IntVect {
        IntVect([
            self.0[0].max(o.0[0]),
            self.0[1].max(o.0[1]),
            self.0[2].max(o.0[2]),
        ])
    }

    /// Floor division by a positive scalar — the coarsening map. Rounds
    /// toward negative infinity so that, e.g., index −1 coarsened by 2 maps
    /// to −1 (the cell containing it), matching AMReX `coarsen` semantics.
    #[inline]
    pub fn coarsen(self, ratio: i64) -> IntVect {
        debug_assert!(ratio > 0);
        IntVect([
            self.0[0].div_euclid(ratio),
            self.0[1].div_euclid(ratio),
            self.0[2].div_euclid(ratio),
        ])
    }

    /// Multiplication by a positive scalar — the refinement map for a cell's
    /// low corner.
    #[inline]
    pub fn refine(self, ratio: i64) -> IntVect {
        debug_assert!(ratio > 0);
        IntVect([self.0[0] * ratio, self.0[1] * ratio, self.0[2] * ratio])
    }

    /// True if all components of `self` are `<=` those of `o`.
    #[inline]
    pub fn all_le(self, o: IntVect) -> bool {
        self.0[0] <= o.0[0] && self.0[1] <= o.0[1] && self.0[2] <= o.0[2]
    }

    /// Sum of components.
    #[inline]
    pub fn sum(self) -> i64 {
        self.0[0] + self.0[1] + self.0[2]
    }
}

impl Index<usize> for IntVect {
    type Output = i64;
    #[inline]
    fn index(&self, i: usize) -> &i64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for IntVect {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut i64 {
        &mut self.0[i]
    }
}

impl Add for IntVect {
    type Output = IntVect;
    #[inline]
    fn add(self, o: IntVect) -> IntVect {
        IntVect([self.0[0] + o.0[0], self.0[1] + o.0[1], self.0[2] + o.0[2]])
    }
}

impl AddAssign for IntVect {
    #[inline]
    fn add_assign(&mut self, o: IntVect) {
        *self = *self + o;
    }
}

impl Sub for IntVect {
    type Output = IntVect;
    #[inline]
    fn sub(self, o: IntVect) -> IntVect {
        IntVect([self.0[0] - o.0[0], self.0[1] - o.0[1], self.0[2] - o.0[2]])
    }
}

impl SubAssign for IntVect {
    #[inline]
    fn sub_assign(&mut self, o: IntVect) {
        *self = *self - o;
    }
}

impl Mul<i64> for IntVect {
    type Output = IntVect;
    #[inline]
    fn mul(self, s: i64) -> IntVect {
        IntVect([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }
}

impl Neg for IntVect {
    type Output = IntVect;
    #[inline]
    fn neg(self) -> IntVect {
        IntVect([-self.0[0], -self.0[1], -self.0[2]])
    }
}

impl From<[i64; 3]> for IntVect {
    fn from(a: [i64; 3]) -> Self {
        IntVect(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = IntVect::new(1, 2, 3);
        let b = IntVect::new(4, -1, 0);
        assert_eq!(a + b, IntVect::new(5, 1, 3));
        assert_eq!(a - b, IntVect::new(-3, 3, 3));
        assert_eq!(a * 2, IntVect::new(2, 4, 6));
        assert_eq!(-a, IntVect::new(-1, -2, -3));
    }

    #[test]
    fn coarsen_rounds_toward_neg_infinity() {
        assert_eq!(IntVect::new(5, -1, -4).coarsen(2), IntVect::new(2, -1, -2));
        assert_eq!(IntVect::new(-5, 4, 0).coarsen(4), IntVect::new(-2, 1, 0));
    }

    #[test]
    fn refine_then_coarsen_is_identity() {
        for v in [-7i64, -1, 0, 1, 13] {
            let iv = IntVect::splat(v);
            assert_eq!(iv.refine(2).coarsen(2), iv);
            assert_eq!(iv.refine(4).coarsen(4), iv);
        }
    }

    #[test]
    fn min_max_orderings() {
        let a = IntVect::new(1, 5, -2);
        let b = IntVect::new(2, 3, -2);
        assert_eq!(a.min(b), IntVect::new(1, 3, -2));
        assert_eq!(a.max(b), IntVect::new(2, 5, -2));
        assert!(a.min(b).all_le(a));
        assert!(b.all_le(a.max(b)));
    }
}
