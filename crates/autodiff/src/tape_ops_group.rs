//! Grouped-operand tape operations: the forward path of every model.
//!
//! A cohort stack row-stacks B individuals' window batches into one
//! operand (`[Σ_b rows_b, c]`, individual-major); each individual keeps
//! its *own* parameters and graph constants. Each op here sends group
//! `b`'s contiguous row block through its own parameter/constant. A
//! single-individual fit is the one-group case, so these ops serve
//! every training run.
//!
//! Row geometry: group `b` spans `group_wins[b] · block_rows`
//! contiguous rows — `block_rows` is 1 for window-level stacks (LSTM
//! hidden rows, attention scores, VAR inputs) and `V` (nodes per
//! window) for the graph models' node-level stacks.
//!
//! Bit-identity contract with the per-window oracle graph: forward runs
//! the per-individual kernel on each row block (the kernel contract
//! makes every output row independent of the batch height, and the
//! per-group call repeats the one-group blocked-path decision, since
//! the block's `(m, k, n)` matches); backward keeps the stacked `dx`
//! dense and defers each group's weight/bias/constant gradients as
//! per-window pieces anchored at the group's row offset, replayed in
//! the per-window graph's accumulation order by the pending machinery
//! in `Grads`/`Tape::backward_into`.

use crate::{Op, Tape, Var};
use ema_tensor::{kernels, pool, Tensor};

/// Asserts the shared group-geometry preconditions and returns the
/// total row count `Σ group_wins[b] · block_rows`.
fn group_rows_check(name: &str, operands: usize, group_wins: &[usize], block_rows: usize) -> usize {
    assert_eq!(
        operands,
        group_wins.len(),
        "{name}: {operands} per-group operands vs {} window counts",
        group_wins.len()
    );
    assert!(!group_wins.is_empty(), "{name} needs at least one group");
    assert!(block_rows > 0, "{name}: block_rows must be positive");
    for (b, &w) in group_wins.iter().enumerate() {
        assert!(w > 0, "{name}: group {b} has zero windows");
    }
    group_wins.iter().sum::<usize>() * block_rows
}

impl Tape {
    /// Per-group fused linear layer over a window-level cohort stack:
    /// [`Tape::group_linear_blocks`] with one row per window.
    ///
    /// # Panics
    /// Panics when `params` and `group_rows` disagree in length, are
    /// empty, the row counts don't sum to `x`'s rows, a group has zero
    /// rows, or any group's parameter shapes mismatch.
    pub fn group_linear(&self, x: Var, params: &[(Var, Var)], group_rows: &[usize]) -> Var {
        self.group_linear_blocks(x, params, group_rows, 1)
    }

    /// Per-group fused linear layer over a cohort row stack: group `b`
    /// (its `group_wins[b] · block_rows` contiguous rows of
    /// `x: [Σ wins·rows, k]`) times its own `w_b: [out, k]ᵀ` plus
    /// `bias_b: [out]`, producing `[Σ wins·rows, out]`. All groups must
    /// share the in/out widths.
    ///
    /// # Panics
    /// Panics when `params` and `group_wins` disagree in length, are
    /// empty, the row counts don't sum to `x`'s rows, a group has zero
    /// windows, or any group's parameter shapes mismatch.
    pub fn group_linear_blocks(
        &self,
        x: Var,
        params: &[(Var, Var)],
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        let total = group_rows_check("group_linear", params.len(), group_wins, block_rows);
        let out = self.compute_values(|v| {
            let xv = v.get(x);
            let k = xv.dims()[1];
            assert_eq!(
                total,
                xv.dims()[0],
                "group_linear: group rows must sum to the stacked row count {}",
                xv.dims()[0]
            );
            let out_cols = v.get(params[0].0).dims()[0];
            let mut out = pool::take_uninit(total * out_cols);
            let mut off = 0usize;
            for (b, (&(w, bias), &wins)) in params.iter().zip(group_wins).enumerate() {
                let r = wins * block_rows;
                let (wv, bv) = (v.get(w), v.get(bias));
                assert_eq!(
                    wv.dims(),
                    &[out_cols, k],
                    "group_linear: group {b} weight shape mismatch"
                );
                assert_eq!(bv.len(), out_cols, "group_linear: group {b} bias length mismatch");
                kernels::addmm_into(
                    &xv.data()[off * k..(off + r) * k],
                    wv.data(),
                    bv.data(),
                    &mut out[off * out_cols..(off + r) * out_cols],
                    r,
                    k,
                    out_cols,
                );
                off += r;
            }
            Tensor::from_vec(&[total, out_cols], out).expect("group_linear shape")
        });
        self.push(
            out,
            Op::GroupLinear(x, params.into(), group_wins.into(), block_rows),
        )
    }

    /// Per-group matrix product: group `b`'s row block of
    /// `x: [Σ wins·rows, k]` times its own `rhs_b: [k, n]`, producing
    /// `[Σ wins·rows, n]`.
    ///
    /// # Panics
    /// Panics on length/shape mismatches (see [`Tape::group_linear_blocks`]).
    pub fn group_matmul(
        &self,
        x: Var,
        rhses: &[Var],
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        self.group_matmul_impl(x, rhses, group_wins, block_rows, false)
    }

    /// [`Tape::group_matmul`] whose deferred rhs gradients replay with
    /// window-grouped accumulation — for oracle graphs that fold one
    /// window's pieces before accumulating (e.g. attention scores
    /// against a per-window transpose of the score vector).
    pub fn group_matmul_grouped(
        &self,
        x: Var,
        rhses: &[Var],
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        self.group_matmul_impl(x, rhses, group_wins, block_rows, true)
    }

    fn group_matmul_impl(
        &self,
        x: Var,
        rhses: &[Var],
        group_wins: &[usize],
        block_rows: usize,
        grouped: bool,
    ) -> Var {
        let total = group_rows_check("group_matmul", rhses.len(), group_wins, block_rows);
        let out = self.compute_values(|v| {
            let xv = v.get(x);
            let k = xv.dims()[1];
            assert_eq!(
                total,
                xv.dims()[0],
                "group_matmul: group rows must sum to the stacked row count {}",
                xv.dims()[0]
            );
            let n = v.get(rhses[0]).dims()[1];
            let mut out = pool::take_uninit(total * n);
            let mut off = 0usize;
            for (b, (&rhs, &wins)) in rhses.iter().zip(group_wins).enumerate() {
                let r = wins * block_rows;
                let rv = v.get(rhs);
                assert_eq!(rv.dims(), &[k, n], "group_matmul: group {b} rhs shape mismatch");
                kernels::matmul_into(
                    &xv.data()[off * k..(off + r) * k],
                    rv.data(),
                    &mut out[off * n..(off + r) * n],
                    r,
                    k,
                    n,
                );
                off += r;
            }
            Tensor::from_vec(&[total, n], out).expect("group_matmul shape")
        });
        self.push(
            out,
            Op::GroupMatmul(x, rhses.into(), group_wins.into(), block_rows, grouped),
        )
    }

    /// Per-group `x · rhsᵀ`: group `b`'s row block of
    /// `x: [Σ wins·rows, k]` times its own `rhs_b: [n, k]ᵀ`, producing
    /// `[Σ wins·rows, n]`.
    ///
    /// # Panics
    /// Panics on length/shape mismatches (see [`Tape::group_linear_blocks`]).
    pub fn group_matmul_nt(
        &self,
        x: Var,
        rhses: &[Var],
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        let total = group_rows_check("group_matmul_nt", rhses.len(), group_wins, block_rows);
        let out = self.compute_values(|v| {
            let xv = v.get(x);
            let k = xv.dims()[1];
            assert_eq!(
                total,
                xv.dims()[0],
                "group_matmul_nt: group rows must sum to the stacked row count {}",
                xv.dims()[0]
            );
            let n = v.get(rhses[0]).dims()[0];
            let mut out = pool::take_uninit(total * n);
            let mut off = 0usize;
            for (b, (&rhs, &wins)) in rhses.iter().zip(group_wins).enumerate() {
                let r = wins * block_rows;
                let rv = v.get(rhs);
                assert_eq!(rv.dims(), &[n, k], "group_matmul_nt: group {b} rhs shape mismatch");
                kernels::matmul_nt_into(
                    &xv.data()[off * k..(off + r) * k],
                    rv.data(),
                    &mut out[off * n..(off + r) * n],
                    r,
                    k,
                    n,
                );
                off += r;
            }
            Tensor::from_vec(&[total, n], out).expect("group_matmul_nt shape")
        });
        self.push(
            out,
            Op::GroupMatmulNT(x, rhses.into(), group_wins.into(), block_rows),
        )
    }

    /// Each group's own `[c]` row added to every row of that group's
    /// block of `m: [Σ wins·rows, c]`.
    ///
    /// # Panics
    /// Panics on length/shape mismatches (see [`Tape::group_linear_blocks`]).
    pub fn group_add_row_broadcast(
        &self,
        m: Var,
        rows: &[Var],
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        let total = group_rows_check("group_add_row_broadcast", rows.len(), group_wins, block_rows);
        let out = self.compute_values(|v| {
            let mv = v.get(m);
            let c = mv.dims()[1];
            assert_eq!(
                total,
                mv.dims()[0],
                "group_add_row_broadcast: group rows must sum to the stacked row count {}",
                mv.dims()[0]
            );
            let mut out = pool::take_uninit(total * c);
            out.copy_from_slice(mv.data());
            let mut off = 0usize;
            for (b, (&row, &wins)) in rows.iter().zip(group_wins).enumerate() {
                let r = wins * block_rows;
                let rv = v.get(row);
                assert_eq!(rv.len(), c, "group_add_row_broadcast: group {b} row length mismatch");
                let row = rv.data();
                for chunk in out[off * c..(off + r) * c].chunks_exact_mut(c) {
                    for (o, &a) in chunk.iter_mut().zip(row) {
                        *o += a;
                    }
                }
                off += r;
            }
            Tensor::from_vec(mv.dims(), out).expect("group_add_row_broadcast shape")
        });
        self.push(
            out,
            Op::GroupAddRow(m, rows.into(), group_wins.into(), block_rows),
        )
    }

    /// Per-group block-lhs product: group `b`'s own `lhs_b: [p, q]`
    /// (a per-individual graph constant or derived adjacency) times
    /// each `[q, n]` window block of its slice of `x: [Σ wins·q, n]`,
    /// producing `[Σ wins·p, n]`; all groups must share the lhs shape.
    /// A constant shared by every window (attention row averaging) is
    /// one group spanning them all. Each group's products run as
    /// **one** kernel call on a column-permuted layout (see
    /// `gather_window_cols`): `lhs_b · [x_0 | x_1 | … ]` computes
    /// every block of the group at once, and each output element keeps
    /// the exact per-window accumulation sequence (the kernel contract
    /// makes element results independent of the output width).
    ///
    /// # Panics
    /// Panics on length/shape mismatches (see [`Tape::group_linear_blocks`]).
    pub fn group_block_lhs_matmul(&self, lhses: &[Var], x: Var, group_wins: &[usize]) -> Var {
        let total_wins =
            group_rows_check("group_block_lhs_matmul", lhses.len(), group_wins, 1);
        let out = self.compute_values(|v| {
            let xv = v.get(x);
            let n = xv.dims()[1];
            let (p, q) = (v.get(lhses[0]).dims()[0], v.get(lhses[0]).dims()[1]);
            assert_eq!(
                xv.dims()[0],
                total_wins * q,
                "group_block_lhs_matmul: x rows must be Σ wins ({total_wins}) x lhs cols ({q})"
            );
            let mut out = pool::take_uninit(total_wins * p * n);
            let (mut xoff, mut goff) = (0usize, 0usize);
            for (b, (&lhs, &wins)) in lhses.iter().zip(group_wins).enumerate() {
                let lv = v.get(lhs);
                assert_eq!(
                    lv.dims(),
                    &[p, q],
                    "group_block_lhs_matmul: group {b} lhs shape mismatch"
                );
                // Gather → one matmul → scatter restricted to this
                // group's window span, so each window block matches a
                // per-window `lhs · x_w` product bit for bit.
                let xhat =
                    gather_window_cols(&xv.data()[xoff * n..(xoff + wins * q) * n], wins, q, n);
                let mut yhat = pool::take_uninit(p * wins * n);
                kernels::matmul_into(lv.data(), &xhat, &mut yhat, p, q, wins * n);
                pool::recycle(xhat);
                scatter_window_cols(&yhat, wins, p, n, &mut out[goff * n..(goff + wins * p) * n]);
                pool::recycle(yhat);
                xoff += wins * q;
                goff += wins * p;
            }
            Tensor::from_vec(&[total_wins * p, n], out).expect("group_block_lhs_matmul shape")
        });
        self.push(
            out,
            Op::GroupBlockLhsMatmul(lhses.into(), x, group_wins.into()),
        )
    }
}

/// Gathers a window stack `[W·r, n]` into the column-concatenated
/// layout `[r, W·n]`: element `(w·r + i, c)` lands at `(i, w·n + c)`.
/// The result is a pooled buffer — recycle it when done. A matmul
/// against this layout computes all `W` per-window products in one
/// call without changing any output element's accumulation sequence.
pub(crate) fn gather_window_cols(x: &[f64], wins: usize, r: usize, n: usize) -> Vec<f64> {
    let mut xhat = pool::take_uninit(r * wins * n);
    for w in 0..wins {
        for i in 0..r {
            xhat[i * wins * n + w * n..i * wins * n + (w + 1) * n]
                .copy_from_slice(&x[(w * r + i) * n..(w * r + i + 1) * n]);
        }
    }
    xhat
}

/// Inverse of [`gather_window_cols`]: scatters `[r, W·n]` back into the
/// window-stacked `[W·r, n]` layout of `out`.
pub(crate) fn scatter_window_cols(yhat: &[f64], wins: usize, r: usize, n: usize, out: &mut [f64]) {
    for w in 0..wins {
        for i in 0..r {
            out[(w * r + i) * n..(w * r + i + 1) * n]
                .copy_from_slice(&yhat[i * wins * n + w * n..i * wins * n + (w + 1) * n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Rng64;

    fn rand(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        Tensor::rand_normal(dims, 0.0, 1.0, &mut rng)
    }

    /// The per-window oracle for one group: a leaf per `block_rows`-row
    /// window block of `xv`, `per_window` applied to each, outputs
    /// stacked with `vcat`. Returns the stacked output and the window
    /// leaves (whose gradients concatenate to the group's `dx` rows).
    fn per_window_graph(
        tape: &Tape,
        xv: &Tensor,
        block_rows: usize,
        per_window: &dyn Fn(&Tape, Var) -> Var,
    ) -> (Var, Vec<Var>) {
        let wins = xv.dims()[0] / block_rows;
        let leaves: Vec<Var> = (0..wins)
            .map(|w| tape.leaf(xv.slice_rows(w * block_rows, (w + 1) * block_rows)))
            .collect();
        let outs: Vec<Var> = leaves.iter().map(|&xw| per_window(tape, xw)).collect();
        let stacked = outs[1..].iter().fold(outs[0], |acc, &o| tape.vcat(acc, o));
        (stacked, leaves)
    }

    /// Concatenates the gradients of `leaves` in order.
    fn concat_grads(grads: &crate::Grads, leaves: &[Var]) -> Vec<f64> {
        leaves
            .iter()
            .flat_map(|&l| grads.get(l).expect("window leaf gradient").data().to_vec())
            .collect()
    }

    /// Builds the cohort graph `grouped` over a `[Σ wins·rows, k]`
    /// stack with per-group mse-style losses added pairwise (each
    /// group's loss node then receives exactly the seed gradient 1.0,
    /// as in its standalone graph), and for each group the per-window
    /// oracle graph of `per_window` over just that group's rows. Asserts
    /// forward rows, every per-group operand gradient, and dx rows match
    /// bit for bit. `operands[b]` lists group `b`'s per-group operand
    /// tensors; the closures receive them as leaves in the same order.
    fn assert_grouped_matches_per_window(
        wins: &[usize],
        block_rows: usize,
        k: usize,
        operands: &[Vec<Tensor>],
        grouped: impl Fn(&Tape, Var, &[Vec<Var>]) -> Var,
        per_window: impl Fn(&Tape, Var, &[Var]) -> Var,
    ) {
        let total: usize = wins.iter().sum::<usize>() * block_rows;
        let xv = rand(&[total, k], 1);

        let tape = Tape::new();
        let x = tape.leaf(xv.clone());
        let ops: Vec<Vec<Var>> = operands
            .iter()
            .map(|group| group.iter().map(|t| tape.leaf(t.clone())).collect())
            .collect();
        let y = grouped(&tape, x, &ops);
        let o = tape.value(y).dims()[1];
        let mut off = 0;
        let mut total_loss = None;
        for &wb in wins {
            let r = wb * block_rows;
            let l_b = tape.mean_all(tape.square(tape.slice_rows(y, off, off + r)));
            total_loss = Some(match total_loss {
                None => l_b,
                Some(acc) => tape.add(acc, l_b),
            });
            off += r;
        }
        let grads = tape.backward(total_loss.unwrap());

        let mut off = 0;
        for (b, &wb) in wins.iter().enumerate() {
            let r = wb * block_rows;
            let reference = Tape::new();
            let rops: Vec<Var> = operands[b].iter().map(|t| reference.leaf(t.clone())).collect();
            let (ry, leaves) = per_window_graph(
                &reference,
                &xv.slice_rows(off, off + r),
                block_rows,
                &|t, xw| per_window(t, xw, &rops),
            );
            let rloss = reference.mean_all(reference.square(ry));
            let rgrads = reference.backward(rloss);

            assert_eq!(
                &tape.value(y).data()[off * o..(off + r) * o],
                reference.value(ry).data(),
                "group {b} forward rows"
            );
            for (j, (&op, &rop)) in ops[b].iter().zip(&rops).enumerate() {
                assert_eq!(
                    grads.get(op).unwrap().data(),
                    rgrads.get(rop).unwrap().data(),
                    "group {b} operand {j} grad"
                );
            }
            assert_eq!(
                &grads.get(x).unwrap().data()[off * k..(off + r) * k],
                concat_grads(&rgrads, &leaves).as_slice(),
                "group {b} input grad rows"
            );
            off += r;
        }
    }

    /// Per-group random operand tensors of the given shapes.
    fn operands(groups: usize, shapes: &[&[usize]], seed: u64) -> Vec<Vec<Tensor>> {
        (0..groups)
            .map(|b| {
                shapes
                    .iter()
                    .enumerate()
                    .map(|(j, dims)| rand(dims, seed + 10 * b as u64 + j as u64))
                    .collect()
            })
            .collect()
    }

    /// Pairs up `[w, bias]` operand leaves per group.
    fn pairs(ops: &[Vec<Var>], first: usize) -> Vec<(Var, Var)> {
        ops.iter().map(|g| (g[first], g[first + 1])).collect()
    }

    /// The cohort stack through a chain of two `group_linear` layers
    /// (as in an unrolled RNN) must match the per-window oracle graphs
    /// bit for bit — values, every parameter gradient (including the
    /// deferred replay order through the chain) and the input rows.
    #[test]
    fn group_linear_matches_per_individual_graphs() {
        let rows = [3usize, 1, 4];
        let (k, o) = (5, 2);
        let ops = operands(rows.len(), &[&[o, k], &[o], &[o, o], &[o]], 10);
        assert_grouped_matches_per_window(
            &rows,
            1,
            k,
            &ops,
            |tape, x, ov| {
                let h = tape.group_linear(x, &pairs(ov, 0), &rows);
                tape.group_linear(h, &pairs(ov, 2), &rows)
            },
            |tape, xw, r| {
                let h = tape.linear(xw, r[0], r[1]);
                tape.linear(h, r[2], r[3])
            },
        );
    }

    /// `group_matmul` with per-individual rhs over node-level blocks.
    #[test]
    fn group_matmul_matches_per_individual_graphs() {
        let wins = [2usize, 1, 3];
        let (block_rows, k, n) = (2usize, 4usize, 3usize);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            k,
            &operands(wins.len(), &[&[k, n]], 50),
            |tape, x, ov| {
                let rhses: Vec<Var> = ov.iter().map(|g| g[0]).collect();
                tape.group_matmul(x, &rhses, &wins, block_rows)
            },
            |tape, xw, r| tape.matmul(xw, r[0]),
        );
    }

    /// `group_matmul_grouped` against an oracle that multiplies each
    /// window by its own intermediate node over the rhs, whose pieces
    /// fold per window before reaching the rhs.
    #[test]
    fn group_matmul_grouped_matches_per_individual_graphs() {
        let wins = [3usize, 2];
        let (block_rows, k, n) = (1usize, 5usize, 1usize);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            k,
            &operands(wins.len(), &[&[k, n]], 60),
            |tape, x, ov| {
                let rhses: Vec<Var> = ov.iter().map(|g| g[0]).collect();
                tape.group_matmul_grouped(x, &rhses, &wins, block_rows)
            },
            |tape, xw, r| {
                let per_window = tape.scale(r[0], 1.0);
                tape.matmul(xw, per_window)
            },
        );
    }

    /// `group_matmul_nt` with per-individual rhs.
    #[test]
    fn group_matmul_nt_matches_per_individual_graphs() {
        let wins = [1usize, 4, 2];
        let (block_rows, k, n) = (3usize, 2usize, 4usize);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            k,
            &operands(wins.len(), &[&[n, k]], 70),
            |tape, x, ov| {
                let rhses: Vec<Var> = ov.iter().map(|g| g[0]).collect();
                tape.group_matmul_nt(x, &rhses, &wins, block_rows)
            },
            |tape, xw, r| tape.matmul_nt(xw, r[0]),
        );
    }

    /// `group_add_row_broadcast` with per-individual rows.
    #[test]
    fn group_add_row_broadcast_matches_per_individual_graphs() {
        let wins = [2usize, 3];
        let (block_rows, c) = (2usize, 5usize);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            c,
            &operands(wins.len(), &[&[c]], 80),
            |tape, x, ov| {
                let rows: Vec<Var> = ov.iter().map(|g| g[0]).collect();
                tape.group_add_row_broadcast(x, &rows, &wins, block_rows)
            },
            |tape, xw, r| tape.add_row_broadcast(xw, r[0]),
        );
    }

    /// `group_block_lhs_matmul`: each individual propagating through
    /// its *own* graph constant (the op individual graphs actually
    /// break sharing on).
    #[test]
    fn group_block_lhs_matmul_matches_per_individual_graphs() {
        let wins = [3usize, 1, 2];
        let (q, n) = (4usize, 2usize);
        // Square lhs (p == q) so chained use keeps row geometry simple.
        assert_grouped_matches_per_window(
            &wins,
            q,
            n,
            &operands(wins.len(), &[&[q, q]], 90),
            |tape, x, ov| {
                let lhses: Vec<Var> = ov.iter().map(|g| g[0]).collect();
                tape.group_block_lhs_matmul(&lhses, x, &wins)
            },
            |tape, xw, r| tape.matmul(r[0], xw),
        );
    }

    /// `group_linear_blocks` at `block_rows > 1` over node-level row
    /// blocks.
    #[test]
    fn group_linear_blocks_matches_per_individual_graphs() {
        let wins = [2usize, 3, 1];
        let (block_rows, k, o) = (3usize, 4usize, 2usize);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            k,
            &operands(wins.len(), &[&[o, k], &[o]], 110),
            |tape, x, ov| tape.group_linear_blocks(x, &pairs(ov, 0), &wins, block_rows),
            |tape, xw, r| tape.linear(xw, r[0], r[1]),
        );
    }

    #[test]
    #[should_panic(expected = "group rows must sum")]
    fn group_linear_rejects_bad_row_split() {
        let tape = Tape::new();
        let x = tape.leaf(rand(&[4, 3], 1));
        let w = tape.leaf(rand(&[2, 3], 2));
        let b = tape.leaf(rand(&[2], 3));
        let _ = tape.group_linear(x, &[(w, b)], &[3]);
    }

    #[test]
    #[should_panic(expected = "lhs shape mismatch")]
    fn group_block_lhs_matmul_rejects_mismatched_lhs_shapes() {
        let tape = Tape::new();
        let x = tape.leaf(rand(&[10, 2], 1));
        let l0 = tape.leaf(rand(&[2, 2], 2));
        let l1 = tape.leaf(rand(&[3, 3], 3));
        let _ = tape.group_block_lhs_matmul(&[l0, l1], x, &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn group_linear_rejects_mismatched_group_widths() {
        let tape = Tape::new();
        let x = tape.leaf(rand(&[4, 3], 1));
        let w0 = tape.leaf(rand(&[2, 3], 2));
        let b0 = tape.leaf(rand(&[2], 3));
        let w1 = tape.leaf(rand(&[5, 3], 4));
        let b1 = tape.leaf(rand(&[5], 5));
        let _ = tape.group_linear(x, &[(w0, b0), (w1, b1)], &[2, 2]);
    }
}
