//! The operation descriptor recorded on the tape for each node.

use crate::Var;
use ema_tensor::Tensor;

/// Describes how a tape node was produced from its parents.
///
/// The forward value is stored on the node itself; `Op` carries exactly
/// the information needed to route gradients backwards. Ops that need
/// forward-time randomness (dropout) store the sampled mask inline so the
/// backward pass is deterministic.
#[derive(Debug, Clone)]
pub enum Op {
    /// An input with no parents (constant, input data or parameter).
    Leaf,
    /// Elementwise sum of two same-shaped nodes.
    Add(Var, Var),
    /// Elementwise difference.
    Sub(Var, Var),
    /// Elementwise (Hadamard) product.
    Mul(Var, Var),
    /// Elementwise quotient.
    Div(Var, Var),
    /// Adds a compile-time constant scalar.
    AddScalar(Var, f64),
    /// Multiplies by a constant scalar.
    Scale(Var, f64),
    /// Matrix product `[m,k] x [k,n]`.
    Matmul(Var, Var),
    /// Transpose-aware product `a·bᵀ`: `[m,k] x [n,k]ᵀ`.
    MatmulNT(Var, Var),
    /// Fused linear layer `x·wᵀ + bias` for `x: [n,k]`, `w: [out,k]`,
    /// `bias: [out]`. Fields: x, w, bias.
    Addmm(Var, Var, Var),
    /// Fused LSTM cell step. Fields: pre-activation gates `[n, 4H]`
    /// (i|f|g|o order) and previous cell state `[n, H]`; the node value
    /// is `[n, 2H]` holding `[h' | c']`.
    LstmCell(Var, Var),
    /// Matrix transpose.
    Transpose(Var),
    /// Elementwise `tanh`.
    Tanh(Var),
    /// Elementwise logistic sigmoid.
    Sigmoid(Var),
    /// Elementwise `max(0, x)`.
    Relu(Var),
    /// Elementwise square.
    Square(Var),
    /// Softmax over the last axis (rank 1 or 2).
    SoftmaxLast(Var),
    /// Sum of all elements, producing a `[1]` tensor.
    SumAll(Var),
    /// Mean of all elements, producing a `[1]` tensor.
    MeanAll(Var),
    /// `[r,c]` matrix plus a `[c]` row vector broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// Horizontal concatenation of two matrices.
    HCat(Var, Var),
    /// Vertical concatenation of two matrices.
    VCat(Var, Var),
    /// Row range `[start, end)` of a matrix. Fields: input, start, end.
    SliceRows(Var, usize, usize),
    /// Column range `[start, end)` of a matrix.
    SliceCols(Var, usize, usize),
    /// Same data viewed under a different shape.
    Reshape(Var),
    /// Inverted dropout; the stored mask holds `0` or `1/(1-p)` factors.
    Dropout(Var, Tensor),
    /// Stacks rank-1 parents into the rows of a matrix.
    StackRows(Vec<Var>),
    /// Shared lhs times per-window blocks: `lhs: [p, q]` times each
    /// `[q, n]` block of `x: [W·q, n]`, giving `[W·p, n]`. Fields:
    /// lhs, x, window count.
    BlockLhsMatmul(Var, Var, usize),
    /// Blockwise product of two window stacks: block `w` of
    /// `x: [W·m, k]` times block `w` of `y: [W·k, n]` -> `[W·m, n]`.
    /// Fields: x, y, window count.
    BlockMatmul(Var, Var, usize),
    /// Blockwise `x_w · y_wᵀ`: block `w` of `x: [W·m, k]` times the
    /// transpose of block `w` of `y: [W·n, k]` -> `[W·m, n]`. Fields:
    /// x, y, window count.
    BlockMatmulNT(Var, Var, usize),
    /// Stacks `T` window-blocked states (each `[W·n, h]`) into
    /// `[W·T, n·h]`: output block `w`, row `t` is the flattening of
    /// state `t`'s block `w`. Fields: states, window count.
    StackWindowBlocks(Vec<Var>, usize),
    /// Per-group fused linear layer over a cohort row stack: group `b`
    /// of `x: [Σ wins·rows, k]` (its `wins[b]·rows` contiguous rows)
    /// times its own `w_b: [out, k]ᵀ` plus `bias_b: [out]`, giving
    /// `[Σ wins·rows, out]`. Forward is one `addmm` per group on the
    /// row block; backward keeps the stacked `dx` dense and defers each
    /// group's (w, bias) gradients as per-window pieces of `rows` rows
    /// replayed in the per-individual graph's accumulation order.
    /// Fields: x, per-group `(w, bias)` pairs, per-group window counts,
    /// rows per window block.
    GroupLinear(Var, GroupList<(Var, Var)>, GroupList<usize>, usize),
    /// Per-group matrix product of a cohort row stack against each
    /// group's own rhs: group `b` of `x: [Σ wins·rows, k]` times its
    /// `rhs_b: [k, n]`, giving `[Σ wins·rows, n]`. Backward keeps the
    /// stacked `dx` dense and defers each group's rhs gradient as
    /// per-window pieces. Fields: x, per-group rhs, per-group window
    /// counts, rows per window block, grouped-replay flag (see `Grads`'
    /// pending machinery).
    GroupMatmul(Var, GroupList<Var>, GroupList<usize>, usize, bool),
    /// Per-group `x · rhsᵀ` against each group's own rhs: group `b` of
    /// `x: [Σ wins·rows, k]` times `rhs_b: [n, k]ᵀ`, giving
    /// `[Σ wins·rows, n]`. Fields: x, per-group rhs, per-group window
    /// counts, rows per window block.
    GroupMatmulNT(Var, GroupList<Var>, GroupList<usize>, usize),
    /// Each group's own `[c]` row added to every row of that group's
    /// block of a `[Σ wins·rows, c]` cohort stack. Fields: m, per-group
    /// rows, per-group window counts, rows per window block.
    GroupAddRow(Var, GroupList<Var>, GroupList<usize>, usize),
    /// Per-group block-lhs product: group `b`'s own `lhs_b: [p, q]`
    /// times each `[q, n]` window block of its slice of
    /// `x: [Σ wins·q, n]`, giving `[Σ wins·p, n]` — the grouped twin of
    /// `BlockLhsMatmul` for per-individual graph constants. Fields:
    /// per-group lhs, x, per-group window counts.
    GroupBlockLhsMatmul(GroupList<Var>, Var, GroupList<usize>),
}

/// A grouped op's per-group operands (parameters, constants or window
/// counts), one entry per group. A one-group list — every
/// single-individual fit — is stored inline, so recording it does not
/// allocate.
#[derive(Debug, Clone)]
pub enum GroupList<T> {
    /// Exactly one group.
    One(T),
    /// Any number of groups.
    Many(Vec<T>),
}

impl<T: Copy> From<&[T]> for GroupList<T> {
    fn from(items: &[T]) -> Self {
        match items {
            [one] => GroupList::One(*one),
            _ => GroupList::Many(items.to_vec()),
        }
    }
}

impl<T> std::ops::Deref for GroupList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            GroupList::One(one) => std::slice::from_ref(one),
            GroupList::Many(items) => items,
        }
    }
}
