//! Sub-tensor extraction: row ranges, windows and axis selection.

use crate::{pool, Shape, Tensor};

impl Tensor {
    /// Extracts rows `[start, end)` of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2 and `start < end <= rows`.
    #[must_use]
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "slice_rows requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        assert!(
            start < end && end <= m,
            "invalid row range {start}..{end} for {m} rows"
        );
        Tensor::pooled_copy(
            Shape::of(&[end - start, n]),
            &self.data()[start * n..end * n],
        )
    }

    /// Extracts columns `[start, end)` of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2 and `start < end <= cols`.
    #[must_use]
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "slice_cols requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        assert!(
            start < end && end <= n,
            "invalid column range {start}..{end} for {n} columns"
        );
        let w = end - start;
        let mut data = pool::take_uninit(m * w);
        for i in 0..m {
            data[i * w..(i + 1) * w].copy_from_slice(&self.data()[i * n + start..i * n + end]);
        }
        Tensor::from_shape_pooled(Shape::of(&[m, w]), data)
    }

    /// Returns the last `k` rows of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2 and `0 < k <= rows`.
    #[must_use]
    pub fn last_rows(&self, k: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "last_rows requires rank 2");
        let m = self.dims()[0];
        assert!(k > 0 && k <= m, "invalid last_rows count {k} for {m} rows");
        self.slice_rows(m - k, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Tensor {
        // [[0,1,2],[3,4,5],[6,7,8],[9,10,11]]
        Tensor::from_vec(&[4, 3], (0..12).map(f64::from).collect()).unwrap()
    }

    #[test]
    fn slice_rows_extracts_range() {
        let g = grid();
        let s = g.slice_rows(1, 3);
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn slice_cols_extracts_range() {
        let g = grid();
        let s = g.slice_cols(1, 3);
        assert_eq!(s.dims(), &[4, 2]);
        assert_eq!(s.row(0).data(), &[1.0, 2.0]);
        assert_eq!(s.row(3).data(), &[10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "invalid row range")]
    fn slice_rows_checks_bounds() {
        let _ = grid().slice_rows(2, 5);
    }

    #[test]
    fn last_rows_takes_tail() {
        let g = grid();
        let t = g.last_rows(1);
        assert_eq!(t.data(), &[9.0, 10.0, 11.0]);
    }
}
