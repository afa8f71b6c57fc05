//! A3TGCN: Attention Temporal Graph Convolutional Network (Bai et al.,
//! 2021), the paper's R-GCN representative.
//!
//! A TGCN cell — a GRU whose gates are computed by graph convolutions
//! over the variable graph — runs across the window; a temporal
//! attention module pools the hidden states into a context that a
//! per-node head maps to the 1-lag prediction.

use crate::cohort::{cohort_dropout, CohortBatch, CohortCtx, CohortForecaster};
use crate::gcn::{gcn_layer, gcn_layer_grouped};
use crate::{Forecaster, ForwardCtx, ModelConfig};
use ema_autodiff::{Tape, Var};
use ema_graph::{normalize, AdjacencyMatrix};
use ema_nn::{Binding, Initializer, ParamId, ParamStore, TemporalAttention};
use ema_tensor::{Rng64, Tensor};

/// One TGCN gate's parameters: a graph-convolution weight over the
/// concatenated `[x ‖ h]` features.
struct Gate {
    w: ParamId, // [H, 1 + H]
    b: ParamId, // [H]
}

impl Gate {
    fn new(store: &mut ParamStore, name: &str, hidden: usize, rng: &mut Rng64) -> Self {
        let w = store.register(
            format!("{name}.w"),
            Initializer::XavierUniform.init(&[hidden, 1 + hidden], rng),
        );
        let b = store.register(
            format!("{name}.b"),
            Initializer::Zeros.init(&[hidden], rng),
        );
        Self { w, b }
    }
}

/// The A3TGCN forecaster.
pub struct A3tgcn {
    store: ParamStore,
    update: Gate,
    reset: Gate,
    candidate: Gate,
    attention: TemporalAttention,
    head_w: ParamId, // [1, H]
    head_b: ParamId, // [1]
    a_hat: Tensor,   // symmetric GCN normalisation of the input graph
    hidden: usize,
    dropout: f64,
    use_attention: bool,
    num_variables: usize,
}

impl A3tgcn {
    /// Builds an A3TGCN over the given static graph.
    ///
    /// # Panics
    /// Panics if the graph's node count differs from `num_variables`.
    #[must_use]
    pub fn new(num_variables: usize, graph: &AdjacencyMatrix, config: &ModelConfig) -> Self {
        Self::with_options(num_variables, graph, config, true)
    }

    /// [`A3tgcn::new`] with temporal attention optionally disabled —
    /// the ablation reduces the model to a plain TGCN whose last hidden
    /// state feeds the head (isolating the "A3" part's contribution).
    ///
    /// # Panics
    /// Panics if the graph's node count differs from `num_variables`.
    #[must_use]
    pub fn with_options(
        num_variables: usize,
        graph: &AdjacencyMatrix,
        config: &ModelConfig,
        use_attention: bool,
    ) -> Self {
        assert_eq!(
            graph.num_nodes(),
            num_variables,
            "graph has {} nodes, expected {num_variables}",
            graph.num_nodes()
        );
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(config.seed);
        let hidden = config.hidden;
        let update = Gate::new(&mut store, "tgcn.update", hidden, &mut rng);
        let reset = Gate::new(&mut store, "tgcn.reset", hidden, &mut rng);
        let candidate = Gate::new(&mut store, "tgcn.candidate", hidden, &mut rng);
        let attention =
            TemporalAttention::new(&mut store, "attn", hidden, config.attn_dim, &mut rng);
        let head_w = store.register(
            "head.w",
            Initializer::XavierUniform.init(&[1, hidden], &mut rng),
        );
        let head_b = store.register("head.b", Initializer::Zeros.init(&[1], &mut rng));
        Self {
            store,
            update,
            reset,
            candidate,
            attention,
            head_w,
            head_b,
            a_hat: normalize::gcn_norm(graph),
            hidden,
            dropout: config.dropout,
            use_attention,
            num_variables,
        }
    }

    /// One TGCN step: graph-convolved GRU gates.
    fn tgcn_step(&self, tape: &Tape, binding: &Binding, a_hat: Var, x: Var, h: Var) -> Var {
        // x: [V, 1], h: [V, H]
        let xh = tape.hcat(x, h); // [V, 1 + H]
        // Update and reset read the same graph-propagated features:
        // compute Â·[x ‖ h] once and share it between both gates.
        let xh_prop = tape.matmul(a_hat, xh); // [V, 1 + H]
        let u_pre = tape.linear(xh_prop, binding.var(self.update.w), binding.var(self.update.b));
        let u = tape.sigmoid(u_pre);
        let r_pre = tape.linear(xh_prop, binding.var(self.reset.w), binding.var(self.reset.b));
        let r = tape.sigmoid(r_pre);
        let rh = tape.mul(r, h);
        let xrh = tape.hcat(x, rh);
        let c_pre = gcn_layer(
            tape,
            a_hat,
            xrh,
            binding.var(self.candidate.w),
            binding.var(self.candidate.b),
        );
        let c = tape.tanh(c_pre);
        // h' = u ⊙ h + (1 − u) ⊙ c
        let uh = tape.mul(u, h);
        let uc = tape.mul(u, c);
        let c_minus_uc = tape.sub(c, uc);
        tape.add(uh, c_minus_uc)
    }

    /// [`A3tgcn::tgcn_step`] over a cohort stack (`x: [Σ W_b·V, 1]`,
    /// `h: [Σ W_b·V, H]`): each individual's window blocks propagate
    /// through its *own* `a_hat` and gate parameters via the grouped
    /// ops, in the per-window op order so every window block — and
    /// every parameter-gradient accumulation — is bit-identical.
    /// `gates` holds every individual's `(w, b)` for the update, reset
    /// and candidate gates, in that order.
    fn tgcn_step_grouped(
        tape: &Tape,
        gates: &[Vec<(Var, Var)>; 3],
        a_hats: &[Var],
        x: Var,
        h: Var,
        group_wins: &[usize],
        v: usize,
    ) -> Var {
        let [update, reset, candidate] = gates;
        let xh = tape.hcat(x, h); // [Σ W_b·V, 1 + H]
        let xh_prop = tape.group_block_lhs_matmul(a_hats, xh, group_wins);
        let u_pre = tape.group_linear_blocks(xh_prop, update, group_wins, v);
        let u = tape.sigmoid(u_pre);
        let r_pre = tape.group_linear_blocks(xh_prop, reset, group_wins, v);
        let r = tape.sigmoid(r_pre);
        let rh = tape.mul(r, h);
        let xrh = tape.hcat(x, rh);
        let c_pre = gcn_layer_grouped(tape, a_hats, xrh, candidate, group_wins, v);
        let c = tape.tanh(c_pre);
        let uh = tape.mul(u, h);
        let uc = tape.mul(u, c);
        let c_minus_uc = tape.sub(c, uc);
        tape.add(uh, c_minus_uc)
    }
}

impl Forecaster for A3tgcn {
    fn name(&self) -> &'static str {
        "A3TGCN"
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn num_variables(&self) -> usize {
        self.num_variables
    }

    fn predict_window(
        &self,
        tape: &Tape,
        binding: &Binding,
        window: &Tensor,
        ctx: &mut ForwardCtx,
    ) -> Var {
        assert_eq!(window.dims()[1], self.num_variables, "window width");
        let seq = window.dims()[0];
        let v = self.num_variables;
        // Constants shared by every window of the epoch: the normalised
        // propagation matrix and the initial hidden state (read-only —
        // each step produces a fresh var).
        let a_hat = ctx.memo("a3tgcn_a_hat", || tape.leaf(self.a_hat.clone()));
        let mut h = ctx.memo("a3tgcn_h0", || tape.leaf(Tensor::zeros(&[v, self.hidden])));
        let mut states = Vec::with_capacity(seq);
        for t in 0..seq {
            // Node features at step t: each variable's value, [V, 1].
            let x = tape.leaf(window.row(t).reshaped(&[v, 1]));
            h = self.tgcn_step(tape, binding, a_hat, x, h);
            states.push(h);
        }
        let ctx_state = if self.use_attention {
            self.attention.forward(tape, binding, &states) // [V, H]
        } else {
            *states.last().expect("non-empty window")
        };
        let dropped = tape.dropout(ctx_state, self.dropout, ctx.training, ctx.rng);
        let pred = tape.linear(dropped, binding.var(self.head_w), binding.var(self.head_b)); // [V, 1]
        tape.flatten(pred)
    }

    fn predict_member(
        &self,
        tape: &Tape,
        binding: &Binding,
        batch: &CohortBatch,
        ctx: &mut CohortCtx,
    ) -> Var {
        Self::predict_cohort(&[self], tape, &[binding], batch, ctx)
    }
}

impl CohortForecaster for A3tgcn {
    fn predict_cohort(
        group: &[&Self],
        tape: &Tape,
        bindings: &[&Binding],
        batch: &CohortBatch,
        ctx: &mut CohortCtx,
    ) -> Var {
        assert_eq!(group.len(), batch.num_groups(), "one window batch per model");
        assert_eq!(group.len(), bindings.len(), "one binding per model");
        let first = group[0];
        for (b, model) in group.iter().enumerate() {
            assert_eq!(
                model.num_variables,
                batch.num_vars(),
                "individual {b}: batch has {} variables, model expects {}",
                batch.num_vars(),
                model.num_variables
            );
            assert_eq!(
                model.hidden, first.hidden,
                "individual {b}: cohort models must share the hidden width"
            );
            assert_eq!(
                model.use_attention, first.use_attention,
                "individual {b}: cohort models must agree on attention use"
            );
        }
        let v = batch.num_vars();
        let seq = batch.seq_len();
        let group_wins = batch.group_wins();
        let total = batch.total_rows();
        // Per-individual propagation constants, in stack order — the
        // grouped block-lhs op applies each to its own window blocks.
        let a_hats: Vec<Var> = group.iter().map(|m| tape.leaf(m.a_hat.clone())).collect();
        let gate_params = |gate: fn(&Self) -> &Gate| -> Vec<(Var, Var)> {
            group
                .iter()
                .zip(bindings)
                .map(|(m, bind)| (bind.var(gate(m).w), bind.var(gate(m).b)))
                .collect()
        };
        let gates = [
            gate_params(|m| &m.update),
            gate_params(|m| &m.reset),
            gate_params(|m| &m.candidate),
        ];
        let mut h = tape.leaf(Tensor::zeros(&[total * v, first.hidden]));
        let mut states = Vec::with_capacity(seq);
        for t in 0..seq {
            // Step t's [Σ W_b, V] rows reshape to the window-blocked
            // [Σ W_b·V, 1] node-feature column, individual-major.
            let x = tape.leaf(batch.step(t).reshaped(&[total * v, 1]));
            h = Self::tgcn_step_grouped(tape, &gates, &a_hats, x, h, group_wins, v);
            states.push(h);
        }
        let ctx_state = if first.use_attention {
            let attns: Vec<&TemporalAttention> = group.iter().map(|m| &m.attention).collect();
            TemporalAttention::forward_grouped(&attns, tape, bindings, &states, group_wins)
        } else {
            *states.last().expect("non-empty window")
        };
        // Each individual's [W_b·V, H] mask rows come from its own
        // stream in the per-window (window-major) draw order.
        let dropped = cohort_dropout(tape, ctx_state, group, |m| m.dropout, group_wins, v, ctx);
        let heads: Vec<(Var, Var)> = group
            .iter()
            .zip(bindings)
            .map(|(m, bind)| (bind.var(m.head_w), bind.var(m.head_b)))
            .collect();
        let pred = tape.group_linear_blocks(dropped, &heads, group_wins, v); // [Σ W_b·V, 1]
        tape.reshape(pred, &[total, v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_nn::Adam;

    fn ring_graph(n: usize) -> AdjacencyMatrix {
        let mut a = AdjacencyMatrix::empty(n);
        for i in 0..n {
            let j = (i + 1) % n;
            a.set_weight(i, j, 1.0);
            a.set_weight(j, i, 1.0);
        }
        a
    }

    #[test]
    fn prediction_shape_and_finiteness() {
        let model = A3tgcn::new(6, &ring_graph(6), &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(1);
        let window = Tensor::rand_normal(&[5, 6], 0.0, 1.0, &mut rng);
        let pred = model.predict(&window, &mut rng);
        assert_eq!(pred.dims(), &[6]);
        assert!(pred.all_finite());
    }

    #[test]
    fn seq1_works() {
        let model = A3tgcn::new(4, &ring_graph(4), &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(2);
        let window = Tensor::rand_normal(&[1, 4], 0.0, 1.0, &mut rng);
        assert_eq!(model.predict(&window, &mut rng).dims(), &[4]);
    }

    #[test]
    #[should_panic(expected = "nodes, expected")]
    fn rejects_mismatched_graph() {
        let _ = A3tgcn::new(5, &ring_graph(4), &ModelConfig::tiny(0));
    }

    #[test]
    fn different_graphs_give_different_predictions() {
        let cfg = ModelConfig::tiny(3);
        let ring = A3tgcn::new(6, &ring_graph(6), &cfg);
        let full = A3tgcn::new(6, &AdjacencyMatrix::complete(6), &cfg);
        let mut rng = Rng64::seed_from(4);
        let window = Tensor::rand_normal(&[4, 6], 0.0, 1.0, &mut rng);
        let a = ring.predict(&window, &mut rng);
        let b = full.predict(&window, &mut rng);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn attention_ablation_changes_predictions() {
        let cfg = ModelConfig::tiny(8);
        let with_attn = A3tgcn::new(5, &ring_graph(5), &cfg);
        let without = A3tgcn::with_options(5, &ring_graph(5), &cfg, false);
        let mut rng = Rng64::seed_from(9);
        let window = Tensor::rand_normal(&[4, 5], 0.0, 1.0, &mut rng);
        let a = with_attn.predict(&window, &mut rng);
        let b = without.predict(&window, &mut rng);
        assert_ne!(a.data(), b.data());
        assert!(b.all_finite());
    }

    #[test]
    fn gradients_flow_and_loss_drops() {
        let mut model = A3tgcn::new(4, &ring_graph(4), &ModelConfig::tiny(5));
        let mut rng = Rng64::seed_from(6);
        let window = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let target = Tensor::from_vec1(vec![0.3, -0.4, 0.1, 0.6]);
        let mut adam = Adam::new(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..120 {
            let tape = Tape::new();
            let binding = model.params().bind(&tape);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let pred = model.predict_window(&tape, &binding, &window, &mut ctx);
            let tgt = tape.leaf(target.clone());
            let loss = tape.mse(pred, tgt);
            last = tape.value(loss).data()[0];
            first.get_or_insert(last);
            let grads = tape.backward(loss);
            adam.step(model.params_mut(), &binding, &grads);
        }
        assert!(last < first.unwrap() * 0.2, "loss stuck at {last}");
    }
}
