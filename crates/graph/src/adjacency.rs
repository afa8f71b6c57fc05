//! The weighted adjacency matrix type.

use ema_tensor::Tensor;

/// A weighted adjacency matrix over `V` nodes (EMA variables).
///
/// Weights are non-negative; the diagonal is conventionally zero (self
/// loops are added explicitly during normalisation, not stored).
/// Symmetry is *not* enforced — similarity graphs are symmetric but
/// MTGNN-learned graphs are directed.
#[derive(Debug, Clone, PartialEq)]
pub struct AdjacencyMatrix {
    weights: Tensor,
}

impl AdjacencyMatrix {
    /// Wraps a `[V, V]` weight tensor, zeroing the diagonal and clamping
    /// negative weights to zero.
    ///
    /// # Panics
    /// Panics unless `weights` is a square rank-2 tensor.
    #[must_use]
    pub fn new(mut weights: Tensor) -> Self {
        assert_eq!(weights.rank(), 2, "adjacency must be rank 2");
        let (m, n) = (weights.dims()[0], weights.dims()[1]);
        assert_eq!(m, n, "adjacency must be square, got [{m}, {n}]");
        for i in 0..n {
            weights.set2(i, i, 0.0);
        }
        weights.map_inplace(|v| v.max(0.0));
        Self { weights }
    }

    /// A graph with no edges.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Self {
            weights: Tensor::zeros(&[n, n]),
        }
    }

    /// The complete graph with unit weights (no self loops).
    #[must_use]
    pub fn complete(n: usize) -> Self {
        Self::new(Tensor::ones(&[n, n]))
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.weights.dims()[0]
    }

    /// The raw weight tensor.
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Consumes the graph, returning the weight tensor.
    #[must_use]
    pub fn into_weights(self) -> Tensor {
        self.weights
    }

    /// Edge weight from `i` to `j`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[must_use]
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights.at2(i, j)
    }

    /// Sets the edge weight from `i` to `j` (diagonal writes ignored,
    /// negative weights clamped to zero).
    pub fn set_weight(&mut self, i: usize, j: usize, w: f64) {
        if i == j {
            return;
        }
        self.weights.set2(i, j, w.max(0.0));
    }

    /// Number of directed edges with strictly positive weight.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.weights.data().iter().filter(|&&w| w > 0.0).count()
    }

    /// Fraction of possible directed edges present, in `[0, 1]`.
    #[must_use]
    pub fn density(&self) -> f64 {
        let n = self.num_nodes();
        if n <= 1 {
            return 0.0;
        }
        self.num_edges() as f64 / (n * (n - 1)) as f64
    }

    /// True when `weight(i, j) == weight(j, i)` for all pairs.
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        let n = self.num_nodes();
        for i in 0..n {
            for j in (i + 1)..n {
                if (self.weight(i, j) - self.weight(j, i)).abs() > 1e-12 {
                    return false;
                }
            }
        }
        true
    }

    /// Returns the symmetrised graph `(A + Aᵀ) / 2`.
    #[must_use]
    pub fn symmetrized(&self) -> Self {
        let sym = self.weights.add(&self.weights.transpose()).scale(0.5);
        Self::new(sym)
    }

    /// Out-degree (weighted) of each node.
    #[must_use]
    pub fn out_degrees(&self) -> Tensor {
        self.weights.row_sums()
    }

    /// Rescales weights so the maximum edge weight is 1 (no-op for an
    /// empty graph).
    #[must_use]
    pub fn max_normalized(&self) -> Self {
        let max = self.weights.max();
        if max <= 0.0 {
            return self.clone();
        }
        Self {
            weights: self.weights.scale(1.0 / max),
        }
    }

    /// All directed edges `(i, j, w)` with positive weight, row-major.
    #[must_use]
    pub fn edges(&self) -> Vec<(usize, usize, f64)> {
        let n = self.num_nodes();
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let w = self.weight(i, j);
                if w > 0.0 {
                    out.push((i, j, w));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zeroes_diagonal_and_clamps() {
        let t = Tensor::from_vec2(vec![vec![5.0, -1.0], vec![2.0, 7.0]]).unwrap();
        let a = AdjacencyMatrix::new(t);
        assert_eq!(a.weight(0, 0), 0.0);
        assert_eq!(a.weight(1, 1), 0.0);
        assert_eq!(a.weight(0, 1), 0.0); // clamped from -1
        assert_eq!(a.weight(1, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let _ = AdjacencyMatrix::new(Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn density_of_complete_graph() {
        let a = AdjacencyMatrix::complete(5);
        assert_eq!(a.num_edges(), 20);
        assert!((a.density() - 1.0).abs() < 1e-12);
        assert!(AdjacencyMatrix::empty(5).density() == 0.0);
    }

    #[test]
    fn symmetry_detection_and_fix() {
        let mut a = AdjacencyMatrix::empty(3);
        a.set_weight(0, 1, 2.0);
        assert!(!a.is_symmetric());
        let s = a.symmetrized();
        assert!(s.is_symmetric());
        assert_eq!(s.weight(0, 1), 1.0);
        assert_eq!(s.weight(1, 0), 1.0);
    }

    #[test]
    fn degrees() {
        let mut a = AdjacencyMatrix::empty(3);
        a.set_weight(0, 1, 1.0);
        a.set_weight(0, 2, 2.0);
        a.set_weight(1, 2, 4.0);
        assert_eq!(a.out_degrees().data(), &[3.0, 4.0, 0.0]);
    }

    #[test]
    fn set_weight_ignores_diagonal() {
        let mut a = AdjacencyMatrix::empty(2);
        a.set_weight(0, 0, 9.0);
        assert_eq!(a.weight(0, 0), 0.0);
    }

    #[test]
    fn max_normalized_scales_to_unit() {
        let mut a = AdjacencyMatrix::empty(2);
        a.set_weight(0, 1, 4.0);
        let n = a.max_normalized();
        assert_eq!(n.weight(0, 1), 1.0);
    }

    #[test]
    fn edges_enumerates_positive_weights() {
        let mut a = AdjacencyMatrix::empty(3);
        a.set_weight(2, 0, 1.5);
        let e = a.edges();
        assert_eq!(e, vec![(2, 0, 1.5)]);
    }
}
