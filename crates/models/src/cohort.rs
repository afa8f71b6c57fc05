//! Cohort batching: one tape graph per B individuals.
//!
//! A [`CohortBatch`] row-stacks B individuals' windows into one operand
//! set, **individual-major then window-major**: step `t` is the
//! `[Σ_b W_b, V]` concatenation of each individual's window rows at
//! step `t`. Models implementing [`CohortForecaster`] run the whole
//! group through one forward graph using grouped-operand tape ops
//! (`Tape::group_linear`), with each individual keeping its own
//! parameters; row block `b` of the output is bit-identical to
//! [`Forecaster::predict_window`] on each of that individual's windows
//! alone. A single-individual fit is the one-member case
//! ([`Forecaster::predict_member`]).
//!
//! **RNG contract:** randomness (dropout masks) is consumed
//! individual-major — group `b` draws exactly the sequence its
//! per-window forward would draw (window-major), from its own stream
//! in [`CohortCtx::rngs`], so batching individuals never changes
//! numbers.

use crate::config::DROPOUT;
use crate::Forecaster;
use ema_autodiff::{Tape, Var};
use ema_nn::Binding;
use ema_tensor::{Rng64, Tensor};

/// B individuals' windows row-stacked into one operand set.
///
/// Rebuilt whenever the active group changes (e.g. an individual
/// early-stops out of a training cohort): the stacking is an input
/// layout only and carries no state.
#[derive(Debug, Clone)]
pub struct CohortBatch {
    group_wins: Vec<usize>,
    offsets: Vec<usize>,
    seq_len: usize,
    num_vars: usize,
    /// `steps[t]` is `[Σ_b W_b, V]`: row `w` of block `b` is window
    /// `w` of individual `b` at step `t`.
    steps: Vec<Tensor>,
    /// `[Σ_b W_b·s, V]`: every window's `[s, V]` rows, in stack order.
    stacked: Tensor,
    /// `[Σ_b W_b·V, s]`: every window transposed (variables over
    /// time), in stack order.
    stacked_transposed: Tensor,
}

impl CohortBatch {
    /// Stacks each member's `[s, V]` windows. All windows must share
    /// one shape and every member needs at least one window.
    ///
    /// # Panics
    /// Panics on an empty cohort, an empty member, or mismatched
    /// window geometry.
    #[must_use]
    pub fn from_windows(members: &[&[Tensor]]) -> Self {
        assert!(!members.is_empty(), "cohort batch needs at least one individual");
        let first = members[0].first().expect("individual 0 has zero windows");
        assert_eq!(first.rank(), 2, "windows must be [seq, V]");
        let (seq_len, num_vars) = (first.dims()[0], first.dims()[1]);
        let mut group_wins = Vec::with_capacity(members.len());
        let mut offsets = Vec::with_capacity(members.len() + 1);
        let mut total = 0usize;
        for (b, windows) in members.iter().enumerate() {
            assert!(!windows.is_empty(), "individual {b} has zero windows");
            for win in windows.iter() {
                assert_eq!(win.dims()[0], seq_len, "individual {b} seq_len mismatch");
                assert_eq!(win.dims()[1], num_vars, "individual {b} num_vars mismatch");
            }
            offsets.push(total);
            group_wins.push(windows.len());
            total += windows.len();
        }
        offsets.push(total);
        let windows = || members.iter().flat_map(|m| m.iter());
        let steps = (0..seq_len)
            .map(|t| {
                let mut data = Vec::with_capacity(total * num_vars);
                for win in windows() {
                    data.extend_from_slice(win.row(t).data());
                }
                Tensor::from_vec(&[total, num_vars], data).expect("cohort step shape")
            })
            .collect();
        let mut stacked = Vec::with_capacity(total * seq_len * num_vars);
        let mut stacked_t = Vec::with_capacity(total * num_vars * seq_len);
        for win in windows() {
            stacked.extend_from_slice(win.data());
            stacked_t.extend_from_slice(win.transpose().data());
        }
        let stacked = Tensor::from_vec(&[total * seq_len, num_vars], stacked)
            .expect("cohort stacked shape");
        let stacked_transposed = Tensor::from_vec(&[total * num_vars, seq_len], stacked_t)
            .expect("cohort stacked_transposed shape");
        Self {
            group_wins,
            offsets,
            seq_len,
            num_vars,
            steps,
            stacked,
            stacked_transposed,
        }
    }

    /// Number of individuals in the stack.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.group_wins.len()
    }

    /// Windows per individual, in stack order.
    #[must_use]
    pub fn group_wins(&self) -> &[usize] {
        &self.group_wins
    }

    /// First stacked row of individual `b`'s block.
    #[must_use]
    pub fn offset(&self, b: usize) -> usize {
        self.offsets[b]
    }

    /// Total stacked rows (`Σ_b W_b`).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// Window length shared by every individual.
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Variable count shared by every individual.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Step `t` across the whole cohort: `[Σ_b W_b, V]`.
    #[must_use]
    pub fn step(&self, t: usize) -> &Tensor {
        &self.steps[t]
    }

    /// The whole cohort's window rows: `[Σ_b W_b·s, V]`.
    #[must_use]
    pub fn stacked(&self) -> &Tensor {
        &self.stacked
    }

    /// Transposed window blocks: `[Σ_b W_b·V, s]`.
    #[must_use]
    pub fn stacked_transposed(&self) -> &Tensor {
        &self.stacked_transposed
    }
}

/// Per-forward cohort context: training flag plus one RNG stream per
/// individual (stack order). Each individual's stream is consumed
/// exactly as its standalone forward would consume its own RNG.
pub struct CohortCtx<'a> {
    /// Training mode (dropout active)?
    pub training: bool,
    /// One stream per individual, in stack order.
    pub rngs: &'a mut [Rng64],
}

impl<'a> CohortCtx<'a> {
    /// Training-mode context.
    pub fn train(rngs: &'a mut [Rng64]) -> Self {
        Self { training: true, rngs }
    }

    /// Evaluation-mode context (no randomness drawn).
    pub fn eval(rngs: &'a mut [Rng64]) -> Self {
        Self { training: false, rngs }
    }
}

/// Models that can run a whole cohort through one tape graph.
pub trait CohortForecaster: Forecaster {
    /// Forwards every individual's windows at once: row `w` of block
    /// `b` of the returned `[Σ_b W_b, V]` output is bit-identical to
    /// `group[b].predict_window` on that window, with each individual's
    /// windows forwarded in order on its own tape with its own RNG.
    fn predict_cohort(
        group: &[&Self],
        tape: &Tape,
        bindings: &[&Binding],
        batch: &CohortBatch,
        ctx: &mut CohortCtx,
    ) -> Var
    where
        Self: Sized;
}

/// Grouped dropout at the models' `DROPOUT` rate (0.3) over a cohort row stack,
/// bit-identical per block to `Tape::dropout` on that individual alone.
/// Group `b` spans `group_wins[b] · block_rows` rows:
///
/// - not training → identity (no tape node, no draws), matching
///   `Tape::dropout`'s pass-through;
/// - training → one `[Σ rows, cols]` mask built individual-major, each
///   group drawing its mask entries row-major from **its own** stream —
///   the exact per-individual draw sequence.
///
/// # Panics
/// Panics when the window counts and RNG streams disagree in number.
pub fn cohort_dropout(
    tape: &Tape,
    a: Var,
    group_wins: &[usize],
    block_rows: usize,
    ctx: &mut CohortCtx,
) -> Var {
    assert_eq!(group_wins.len(), ctx.rngs.len(), "one RNG stream per group");
    if !ctx.training {
        return a;
    }
    let cols = tape.cols(a);
    let total: usize = group_wins.iter().sum::<usize>() * block_rows;
    let mut mask = Tensor::zeros(&[total, cols]);
    let data = mask.data_mut();
    let keep = 1.0 - DROPOUT;
    let mut off = 0usize;
    for (&wins, rng) in group_wins.iter().zip(ctx.rngs.iter_mut()) {
        let rows = wins * block_rows;
        for v in &mut data[off * cols..(off + rows) * cols] {
            if rng.bernoulli(keep) {
                *v = 1.0 / keep;
            }
        }
        off += rows;
    }
    tape.dropout_masked(a, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{A3tgcn, Astgcn, ForwardCtx, LstmForecaster, ModelConfig, Mtgnn};
    use ema_graph::AdjacencyMatrix;

    fn windows(wins: usize, seq: usize, v: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng64::seed_from(seed);
        (0..wins)
            .map(|_| Tensor::rand_normal(&[seq, v], 0.0, 1.0, &mut rng))
            .collect()
    }

    /// A different graph per individual so grouped constants are
    /// genuinely per-group: ring, complete, or path, by index.
    fn graph_for(b: usize, n: usize) -> AdjacencyMatrix {
        match b % 3 {
            0 => {
                let mut a = AdjacencyMatrix::empty(n);
                for i in 0..n {
                    let j = (i + 1) % n;
                    a.set_weight(i, j, 1.0);
                    a.set_weight(j, i, 1.0);
                }
                a
            }
            1 => AdjacencyMatrix::complete(n),
            _ => {
                let mut a = AdjacencyMatrix::empty(n);
                for i in 0..n - 1 {
                    a.set_weight(i, i + 1, 1.0);
                    a.set_weight(i + 1, i, 1.0);
                }
                a
            }
        }
    }

    /// Asserts the cohort forward matches each individual's per-window
    /// forward bit for bit — training mode (dropout active,
    /// per-individual streams) and eval mode.
    fn assert_cohort_matches_oracle<M: CohortForecaster>(
        models: &[M],
        wins: &[usize],
        seq: usize,
        v: usize,
    ) {
        for training in [true, false] {
            let members: Vec<Vec<Tensor>> = wins
                .iter()
                .enumerate()
                .map(|(b, &w)| windows(w, seq, v, 10 + b as u64))
                .collect();
            let member_refs: Vec<&[Tensor]> = members.iter().map(Vec::as_slice).collect();
            let cohort = CohortBatch::from_windows(&member_refs);

            let tape = Tape::new();
            let bindings: Vec<Binding> = models.iter().map(|m| m.params().bind(&tape)).collect();
            let binding_refs: Vec<&Binding> = bindings.iter().collect();
            let group: Vec<&M> = models.iter().collect();
            let mut rngs: Vec<Rng64> =
                (0..wins.len()).map(|b| Rng64::seed_from(70 + b as u64)).collect();
            let mut ctx = CohortCtx { training, rngs: &mut rngs };
            let out = M::predict_cohort(&group, &tape, &binding_refs, &cohort, &mut ctx);
            let out_value = tape.value(out);

            for (b, model) in models.iter().enumerate() {
                let reference = Tape::new();
                let binding = model.params().bind(&reference);
                let mut rng = Rng64::seed_from(70 + b as u64);
                let mut rctx = if training {
                    ForwardCtx::train(&mut rng)
                } else {
                    ForwardCtx::eval(&mut rng)
                };
                let preds: Vec<Var> = members[b]
                    .iter()
                    .map(|w| model.predict_window(&reference, &binding, w, &mut rctx))
                    .collect();
                let rout = reference.stack_rows(&preds);
                let (off, w) = (cohort.offset(b), wins[b]);
                assert_eq!(
                    &out_value.data()[off * v..(off + w) * v],
                    reference.value(rout).data(),
                    "individual {b} rows (training = {training})"
                );
            }
        }
    }

    #[test]
    fn cohort_batch_stacks_individual_major() {
        let b0 = windows(3, 2, 4, 1);
        let b1 = windows(5, 2, 4, 2);
        let cohort = CohortBatch::from_windows(&[&b0, &b1]);
        assert_eq!(cohort.num_groups(), 2);
        assert_eq!(cohort.group_wins(), &[3, 5]);
        assert_eq!(cohort.total_rows(), 8);
        assert_eq!(cohort.offset(0), 0);
        assert_eq!(cohort.offset(1), 3);
        for t in 0..2 {
            let step = cohort.step(t);
            assert_eq!(step.dims(), &[8, 4]);
            let rows: Vec<f64> =
                b0.iter().chain(&b1).flat_map(|w| w.row(t).data().to_vec()).collect();
            assert_eq!(step.data(), rows.as_slice(), "step {t}");
        }
        let stacked: Vec<f64> = b0.iter().chain(&b1).flat_map(|w| w.data().to_vec()).collect();
        assert_eq!(cohort.stacked().data(), stacked.as_slice());
    }

    #[test]
    #[should_panic(expected = "seq_len mismatch")]
    fn cohort_batch_rejects_mixed_seq_len() {
        let b0 = windows(2, 2, 3, 1);
        let b1 = windows(2, 3, 3, 2);
        let _ = CohortBatch::from_windows(&[&b0, &b1]);
    }

    #[test]
    fn lstm_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4]);
        let models: Vec<LstmForecaster> = (0..wins.len())
            .map(|b| LstmForecaster::new(v, &ModelConfig::tiny(100 + b as u64)))
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn a3tgcn_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4]);
        let models: Vec<A3tgcn> = (0..wins.len())
            .map(|b| {
                A3tgcn::with_options(v, &graph_for(b, v), &ModelConfig::tiny(100 + b as u64), true)
            })
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn a3tgcn_cohort_without_attention_matches_per_individual() {
        let (v, seq, wins) = (3, 2, [2usize, 3]);
        let models: Vec<A3tgcn> = (0..wins.len())
            .map(|b| {
                A3tgcn::with_options(v, &graph_for(b, v), &ModelConfig::tiny(200 + b as u64), false)
            })
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn astgcn_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4]);
        let models: Vec<Astgcn> = (0..wins.len())
            .map(|b| {
                Astgcn::with_options(
                    v,
                    seq,
                    &graph_for(b, v),
                    &ModelConfig::tiny(100 + b as u64),
                    true,
                )
            })
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn mtgnn_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4]);
        let models: Vec<Mtgnn> = (0..wins.len())
            .map(|b| {
                Mtgnn::new(
                    v,
                    seq,
                    Some(&graph_for(b, v)),
                    &ModelConfig::tiny(100 + b as u64),
                )
            })
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }
}
