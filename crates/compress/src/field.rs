//! Dense 3D scalar fields — the unit of compression.
//!
//! [`Field3`] owns its storage; [`Field3View`] and [`FieldMut`] borrow it.
//! The compressors operate on views (see [`Compressor`](crate::Compressor)),
//! so callers can hand in a sub-region gathered into a rented scratch
//! buffer without ever materializing an owned `Field3`.

/// An owned, dense, x-fastest 3D scalar field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    pub dims: [usize; 3],
    pub data: Vec<f64>,
}

impl Field3 {
    pub fn new(dims: [usize; 3], data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            dims[0] * dims[1] * dims[2],
            "field buffer does not match dims"
        );
        Field3 { dims, data }
    }

    /// Builds a field by evaluating `f(i, j, k)`.
    pub fn from_fn(dims: [usize; 3], mut f: impl FnMut(usize, usize, usize) -> f64) -> Self {
        let [nx, ny, nz] = dims;
        let mut data = Vec::with_capacity(nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    data.push(f(i, j, k));
                }
            }
        }
        Field3 { dims, data }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.dims[0] && j < self.dims[1] && k < self.dims[2]);
        i + self.dims[0] * (j + self.dims[1] * k)
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// `(min, max)` of the data (0.0 pair for empty fields).
    pub fn min_max(&self) -> (f64, f64) {
        if self.data.is_empty() {
            return (0.0, 0.0);
        }
        self.data
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }

    /// Value range `max − min`.
    pub fn range(&self) -> f64 {
        let (lo, hi) = self.min_max();
        hi - lo
    }

    /// Size of the raw data in bytes.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Borrows the field as a [`Field3View`].
    #[inline]
    pub fn view(&self) -> Field3View<'_> {
        Field3View {
            dims: self.dims,
            data: &self.data,
        }
    }
}

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

    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.dims[0] && j < self.dims[1] && k < self.dims[2]);
        i + self.dims[0] * (j + self.dims[1] * k)
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// `(min, max)` of the data (0.0 pair for empty fields).
    pub fn min_max(&self) -> (f64, f64) {
        if self.data.is_empty() {
            return (0.0, 0.0);
        }
        self.data
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }

    /// Value range `max − min`.
    pub fn range(&self) -> f64 {
        let (lo, hi) = self.min_max();
        hi - lo
    }

    /// Size of the raw data in bytes.
    pub fn nbytes(&self) -> usize {
        std::mem::size_of_val(self.data)
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

    #[test]
    fn layout_is_x_fastest() {
        let f = Field3::from_fn([2, 3, 4], |i, j, k| (i + 10 * j + 100 * k) as f64);
        assert_eq!(f.at(1, 2, 3), 321.0);
        assert_eq!(f.data[1], 1.0);
        assert_eq!(f.data[2], 10.0);
        assert_eq!(f.data[6], 100.0);
        assert_eq!(f.len(), 24);
        assert_eq!(f.nbytes(), 192);
    }

    #[test]
    fn range_and_minmax() {
        let f = Field3::new([2, 1, 1], vec![-3.0, 7.0]);
        assert_eq!(f.min_max(), (-3.0, 7.0));
        assert_eq!(f.range(), 10.0);
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn dims_checked() {
        Field3::new([2, 2, 2], vec![0.0; 7]);
    }

    #[test]
    fn views_borrow_without_copying() {
        let f = Field3::from_fn([2, 3, 4], |i, j, k| (i + 10 * j + 100 * k) as f64);
        let v = f.view();
        assert_eq!(v.at(1, 2, 3), 321.0);
        assert_eq!(v.min_max(), f.min_max());
        assert_eq!(v.range(), f.range());
        assert_eq!(v.nbytes(), f.nbytes());
        assert_eq!(
            v.data.as_ptr(),
            f.data.as_ptr(),
            "view must alias the field"
        );
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn view_dims_checked() {
        Field3View::new([2, 2, 2], &[0.0; 7]);
    }
}
