//! Dense 3D scalar fields — the unit of compression.
//!
//! [`Field3View`] and [`FieldMut`] borrow their storage: a fab's own
//! buffer, or a sub-region gathered into rented scratch. The compressors
//! operate on views (see [`Compressor`](crate::Compressor)), so no field is
//! ever copied into a buffer of its own to be compressed.

/// A borrowed, dense, x-fastest 3D scalar field — the zero-copy input type
/// of the compressors. `Copy`, so it threads through call chains freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field3View<'a> {
    pub dims: [usize; 3],
    pub data: &'a [f64],
}

impl<'a> Field3View<'a> {
    pub fn new(dims: [usize; 3], data: &'a [f64]) -> Self {
        assert_eq!(
            data.len(),
            dims[0] * dims[1] * dims[2],
            "field buffer does not match dims"
        );
        Field3View { dims, data }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(min, max)` of the data (0.0 pair for empty fields).
    pub fn min_max(&self) -> (f64, f64) {
        if self.data.is_empty() {
            return (0.0, 0.0);
        }
        amrviz_par::min_max(self.data)
    }

    /// Value range `max − min`.
    pub fn range(&self) -> f64 {
        let (lo, hi) = self.min_max();
        hi - lo
    }
}

/// A mutably borrowed dense field: reconstruction buffers, rented scratch,
/// or fab interiors viewed as a volume without transferring ownership.
#[derive(Debug, PartialEq)]
pub struct FieldMut<'a> {
    pub dims: [usize; 3],
    pub data: &'a mut [f64],
}

impl<'a> FieldMut<'a> {
    pub fn new(dims: [usize; 3], data: &'a mut [f64]) -> Self {
        assert_eq!(
            data.len(),
            dims[0] * dims[1] * dims[2],
            "field buffer does not match dims"
        );
        FieldMut { dims, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::from_fn;

    #[test]
    fn layout_is_x_fastest() {
        let data = from_fn([2, 3, 4], |i, j, k| (i + 10 * j + 100 * k) as f64);
        let f = Field3View::new([2, 3, 4], &data);
        assert_eq!(f.data[1 + 2 * (2 + 3 * 3)], 321.0);
        assert_eq!(f.data[1], 1.0);
        assert_eq!(f.data[2], 10.0);
        assert_eq!(f.data[6], 100.0);
        assert_eq!(f.len(), 24);
    }

    #[test]
    fn range_and_minmax() {
        let f = Field3View::new([2, 1, 1], &[-3.0, 7.0]);
        assert_eq!(f.min_max(), (-3.0, 7.0));
        assert_eq!(f.range(), 10.0);
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn dims_checked() {
        FieldMut::new([2, 2, 2], &mut [0.0; 7]);
    }

    #[test]
    fn views_borrow_without_copying() {
        let mut data = from_fn([2, 3, 4], |i, j, k| (i + 10 * j + 100 * k) as f64);
        let v = Field3View::new([2, 3, 4], &data);
        assert_eq!(v.data.as_ptr(), data.as_ptr(), "view must alias the buffer");
        let ptr = data.as_ptr();
        let m = FieldMut::new([2, 3, 4], &mut data);
        assert_eq!(m.data.as_ptr(), ptr, "mutable view must alias the buffer");
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn view_dims_checked() {
        Field3View::new([2, 2, 2], &[0.0; 7]);
    }
}
