//! Rasterized boolean masks over a box region.
//!
//! Masks are the workhorse for coverage queries ("is this coarse cell
//! covered by the fine level?") and for the redundant-coarse "switching
//! cells" logic in the dual-cell visualization method.

use crate::box_array::BoxArray;
use crate::boxes::Box3;
use crate::ivec::IntVect;

/// A dense boolean grid over a [`Box3`] region, one bit per cell.
///
/// Every x-row is its own run of `u64` words (cell `i` of a row is bit
/// `i % 64` of word `i / 64`), rows follow in y-then-z order, and the bits
/// past a row's end are always zero — so two rasters over one region are
/// equal exactly when their cells are, and a row can be combined with
/// others 64 cells at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raster {
    region: Box3,
    /// Words per x-row.
    stride: usize,
    words: Vec<u64>,
}

/// The bits of a row's last word that hold cells of an `nx`-cell row.
fn tail_mask(nx: usize) -> u64 {
    u64::MAX >> ((64 - nx % 64) % 64)
}

impl Raster {
    /// All-false raster over `region`.
    pub fn falses(region: Box3) -> Self {
        let [nx, ny, nz] = region.size();
        let stride = nx.div_ceil(64);
        Raster {
            region,
            stride,
            words: vec![0; stride * ny * nz],
        }
    }

    /// All-true raster over `region`.
    pub fn trues(region: Box3) -> Self {
        let mut r = Raster::falses(region);
        r.invert();
        r
    }

    /// Raster marking the cells of `region` covered by any box of `ba`.
    pub fn from_box_array(region: Box3, ba: &BoxArray) -> Self {
        let mut r = Raster::falses(region);
        for bx in ba.iter() {
            r.set_box(bx, true);
        }
        r
    }

    /// Raster whose row `(j, k)` (counted from the region's low corner) is
    /// what `fill(j, k, words)` writes into the zeroed row; bits it sets past
    /// the row's end are cleared. Parallel over z-planes.
    pub fn from_rows(region: Box3, fill: impl Fn(usize, usize, &mut [u64]) + Sync) -> Self {
        let mut r = Raster::falses(region);
        let [nx, ny, _] = region.size();
        let (stride, tail) = (r.stride, tail_mask(nx));
        amrviz_par::for_each_chunk_mut(&mut r.words, stride * ny, |k, plane| {
            for (j, row) in plane.chunks_exact_mut(stride).enumerate() {
                fill(j, k, row);
                row[stride - 1] &= tail;
            }
        });
        r
    }

    #[inline]
    pub fn region(&self) -> Box3 {
        self.region
    }

    /// Word and bit of a cell inside the region.
    #[inline]
    fn locate(&self, iv: IntVect) -> (usize, u32) {
        let d = iv - self.region.lo();
        let [_, ny, _] = self.region.size();
        let (i, row) = (d[0] as usize, d[1] as usize + ny * d[2] as usize);
        (row * self.stride + i / 64, (i % 64) as u32)
    }

    #[inline]
    pub fn get(&self, iv: IntVect) -> bool {
        self.region.contains(iv) && self.get_unchecked(iv)
    }

    /// Raw flag at a cell known to be inside the region.
    #[inline]
    pub fn get_unchecked(&self, iv: IntVect) -> bool {
        let (w, b) = self.locate(iv);
        self.words[w] >> b & 1 == 1
    }

    /// The words of row `(j, k)`, counted from the region's low corner: cell
    /// `i` of the row is bit `i % 64` of word `i / 64`, and the bits past
    /// the row's end are zero.
    #[inline]
    pub fn row_words(&self, j: usize, k: usize) -> &[u64] {
        let ny = self.region.size()[1];
        &self.words[self.stride * (j + ny * k)..][..self.stride]
    }

    #[inline]
    pub fn set(&mut self, iv: IntVect, v: bool) {
        if self.region.contains(iv) {
            let (w, b) = self.locate(iv);
            self.words[w] = self.words[w] & !(1 << b) | (v as u64) << b;
        }
    }

    /// Sets every cell of `bx ∩ region`.
    pub fn set_box(&mut self, bx: &Box3, v: bool) {
        let Some(overlap) = self.region.intersect(bx) else {
            return;
        };
        let ny = self.region.size()[1];
        let [onx, ony, onz] = overlap.size();
        let lo = overlap.lo() - self.region.lo();
        let (x0, x1) = (lo[0] as usize, lo[0] as usize + onx);
        for kk in 0..onz {
            for jj in 0..ony {
                let row = (lo[1] as usize + jj) + ny * (lo[2] as usize + kk);
                let row = &mut self.words[self.stride * row..][..self.stride];
                for (w, word) in row
                    .iter_mut()
                    .enumerate()
                    .take(x1.div_ceil(64))
                    .skip(x0 / 64)
                {
                    // The bits of cells x0..x1 in word w: a run of 1 to 64.
                    let (a, b) = (x0.max(64 * w) - 64 * w, x1.min(64 * w + 64) - 64 * w);
                    let bits = u64::MAX >> (64 - (b - a)) << a;
                    *word = if v { *word | bits } else { *word & !bits };
                }
            }
        }
    }

    /// Number of `true` cells.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// In-place logical negation.
    pub fn invert(&mut self) {
        let tail = tail_mask(self.region.size()[0]);
        for row in self.words.chunks_exact_mut(self.stride) {
            for w in row.iter_mut() {
                *w = !*w;
            }
            row[self.stride - 1] &= tail;
        }
    }

    /// In-place AND with another raster over the same region.
    pub fn and(&mut self, other: &Raster) {
        assert_eq!(self.region, other.region, "raster region mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place OR with another raster over the same region.
    pub fn or(&mut self, other: &Raster) {
        assert_eq!(self.region, other.region, "raster region mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Iterates over the `true` cells, in raster order.
    pub fn true_cells(&self) -> impl Iterator<Item = IntVect> + '_ {
        let (lo, ny) = (self.region.lo(), self.region.size()[1]);
        let rows = self.words.chunks_exact(self.stride).enumerate();
        rows.flat_map(move |(row, words)| {
            let (j, k) = ((row % ny) as i64, (row / ny) as i64);
            words.iter().enumerate().flat_map(move |(w, &word)| {
                let mut left = word;
                std::iter::from_fn(move || {
                    (left != 0).then(|| {
                        let i = 64 * w as i64 + i64::from(left.trailing_zeros());
                        left &= left - 1;
                        lo + IntVect::new(i, j, k)
                    })
                })
            })
        })
    }

    /// Coarsens the mask by `ratio`: a coarse cell is `true` if **any** of
    /// its fine children is `true`.
    pub fn coarsen_any(&self, ratio: i64) -> Raster {
        let mut out = Raster::falses(self.region.coarsen(ratio));
        for cell in self.true_cells() {
            out.set(cell.coarsen(ratio), true);
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

    /// The per-cell model a [`Raster`] must agree with: one `bool` per cell
    /// of `region`, x fastest.
    struct Model {
        region: Box3,
        cells: Vec<bool>,
    }

    impl Model {
        fn new(region: Box3, v: bool) -> Self {
            let cells = vec![v; region.num_cells()];
            Model { region, cells }
        }

        fn invert(&mut self) {
            self.cells.iter_mut().for_each(|c| *c = !*c);
        }

        fn at(&self, iv: IntVect) -> &bool {
            &self.cells[self.region.offset(iv)]
        }

        fn set_box(&mut self, bx: &Box3, v: bool) {
            for iv in self.region.cells().filter(|&iv| bx.contains(iv)) {
                let n = self.region.offset(iv);
                self.cells[n] = v;
            }
        }

        fn assert_matches(&self, r: &Raster, what: &str) {
            assert_eq!(r.region(), self.region, "{what}");
            assert_eq!(
                r.count(),
                self.cells.iter().filter(|&&c| c).count(),
                "{what}: count"
            );
            assert_eq!(r.any(), self.cells.contains(&true), "{what}: any");
            let [nx, ny, nz] = self.region.size();
            for (j, k) in (0..nz).flat_map(|k| (0..ny).map(move |j| (j, k))) {
                let words = r.row_words(j, k);
                assert_eq!(words.len(), nx.div_ceil(64), "{what}: words per row");
                for i in 0..64 * words.len() {
                    let bit = words[i / 64] >> (i % 64) & 1 == 1;
                    let iv = self.region.lo() + IntVect::new(i as i64, j as i64, k as i64);
                    let want = i < nx && *self.at(iv);
                    assert_eq!(bit, want, "{what}: bit {i} of row ({j}, {k})");
                    if i < nx {
                        assert_eq!(r.get(iv), want, "{what}: get {iv:?}");
                    }
                }
            }
            let listed: Vec<IntVect> = r.true_cells().collect();
            let want: Vec<IntVect> = self.region.cells().filter(|&iv| *self.at(iv)).collect();
            assert_eq!(listed, want, "{what}: true cells");
        }
    }

    #[test]
    fn word_rows_agree_with_a_per_cell_model() {
        // Widths around the word size: one word with one cell, one short of
        // a word, exactly one, one cell into the second, into the third.
        for nx in [1usize, 63, 64, 65, 129] {
            amrviz_rng::check(0x5a57 + nx as u64, 12, |rng| {
                let [ny, nz] = [rng.range_usize(1, 3), rng.range_usize(1, 3)];
                let lo = IntVect::new(rng.range_i64(-70, 70), rng.range_i64(-3, 3), 5);
                let region = Box3::new(
                    lo,
                    lo + IntVect::new(nx as i64 - 1, ny as i64 - 1, nz as i64 - 1),
                );
                let random_box = |rng: &mut amrviz_rng::Rng| {
                    let at = |rng: &mut amrviz_rng::Rng, lo: i64, n: usize| {
                        let (a, b) = (
                            rng.range_i64(-2, n as i64 + 1),
                            rng.range_i64(-2, n as i64 + 1),
                        );
                        (lo + a.min(b), lo + a.max(b))
                    };
                    let (x, y, z) = (at(rng, lo[0], nx), at(rng, lo[1], ny), at(rng, lo[2], nz));
                    Box3::new(IntVect::new(x.0, y.0, z.0), IntVect::new(x.1, y.1, z.1))
                };
                let start = rng.chance(0.5);
                let mut r = match start {
                    true => Raster::trues(region),
                    false => Raster::falses(region),
                };
                let mut m = Model::new(region, start);
                m.assert_matches(&r, "start");
                for step in 0..6 {
                    match rng.below(5) {
                        0 | 1 => {
                            let (bx, v) = (random_box(rng), rng.chance(0.7));
                            r.set_box(&bx, v);
                            m.set_box(&bx, v);
                        }
                        2 => {
                            r.invert();
                            m.invert();
                        }
                        op => {
                            let (mut other, mut om) =
                                (Raster::falses(region), Model::new(region, false));
                            for _ in 0..2 {
                                let bx = random_box(rng);
                                other.set_box(&bx, true);
                                om.set_box(&bx, true);
                            }
                            if rng.chance(0.5) {
                                other.invert();
                                om.invert();
                            }
                            om.assert_matches(&other, "operand");
                            let and = op == 3;
                            if and {
                                r.and(&other);
                            } else {
                                r.or(&other);
                            }
                            for (c, o) in m.cells.iter_mut().zip(&om.cells) {
                                *c = if and { *c && *o } else { *c || *o };
                            }
                        }
                    }
                    m.assert_matches(&r, &format!("step {step}"));
                }
                // Equality is cell equality: rebuilt cell by cell, it is equal.
                let mut rebuilt = Raster::falses(region);
                for iv in region.cells() {
                    rebuilt.set(iv, *m.at(iv));
                }
                assert_eq!(rebuilt, r);
                if let Some(iv) = region
                    .cells()
                    .nth(rng.below(region.num_cells() as u64) as usize)
                {
                    rebuilt.set(iv, !*m.at(iv));
                    assert_ne!(rebuilt, r, "one cell differs at {iv:?}");
                }
                // Rows a caller fills past their end keep zero padding.
                let filled = Raster::from_rows(region, |j, k, words| {
                    words.fill(u64::MAX);
                    words[0] ^= (j + k) as u64 & 1;
                });
                let want = region.num_cells()
                    - (0..ny * nz).filter(|n| (n % ny + n / ny) % 2 == 1).count();
                assert_eq!(filled.count(), want);
            });
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
