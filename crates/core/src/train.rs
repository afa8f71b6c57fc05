//! Full-batch personalized training (paper Section V-D).
//!
//! One epoch loop serves every training run: B individuals forward
//! through one grouped tape graph per epoch
//! ([`crate::cohort::train_cohort`]), and a single-individual fit
//! ([`train_model`]) is the one-member case of the same loop.

use crate::checkpoint::Checkpoint;
use ema_autodiff::{Grads, Tape, Var};
use ema_data::WindowedData;
use ema_models::{CohortBatch, CohortCtx, CohortForecaster, Forecaster};
use ema_nn::{global_grad_norm, Adam, Binding, ParamStore};
use ema_obs::metrics::{EPOCH_BUCKETS, GRAD_NORM_BUCKETS, LOSS_BUCKETS};
use ema_obs::point;
use ema_tensor::{KernelBackend, Rng64, Tensor};

/// Early-stopping patience in epochs: a run with `early_stop_rel > 0`
/// stops once its training loss has failed to improve by that relative
/// amount for this many consecutive epochs.
pub const EARLY_STOP_PATIENCE: usize = 25;

/// Training hyper-parameters. Defaults follow the paper: Adam with
/// lr = 0.01, one batch per individual, 300 epochs, dropout handled by
/// the models themselves (rate 0.3).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs (paper: 300).
    pub epochs: usize,
    /// Adam learning rate (paper: 0.01). [`Adam`] clips gradients at a
    /// global norm of 5.
    pub learning_rate: f64,
    /// Seed for dropout masks.
    pub seed: u64,
    /// Stop early when the training loss improves by less than this
    /// relative amount over [`EARLY_STOP_PATIENCE`] epochs. **`0`
    /// disables early stopping entirely** (the default): every run goes
    /// the full `epochs`.
    pub early_stop_rel: f64,
    /// Which matmul kernel backend the run executes on (default: the
    /// process resolution of `EMA_KERNEL` — SIMD where available).
    /// `Scalar` pins the bit-identity oracle regardless of environment.
    pub kernel_backend: KernelBackend,
    /// Warm start: restore these parameters (bit-exact) over the
    /// model's seeded init before the first epoch — the
    /// cluster-then-personalize fine-tune path. **RNG contract:** the
    /// model's init draws come from its own constructor RNG
    /// (`ModelConfig::seed`), entirely separate from this config's
    /// dropout stream, so a warm-started run consumes *identical*
    /// training draw order to a cold run — the restore only overwrites
    /// values. With `epochs == 0` the run is a pure restore: no
    /// training RNG is created and zero draws are consumed.
    /// `Arc` so one cluster checkpoint is shared across a shard's
    /// individuals without copying parameters.
    pub warm_start: Option<std::sync::Arc<Checkpoint>>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 300,
            learning_rate: 0.01,
            seed: 7,
            early_stop_rel: 0.0,
            kernel_backend: KernelBackend::default(),
            warm_start: None,
        }
    }
}

impl TrainConfig {
    /// A short schedule for tests and quick experiment presets.
    #[must_use]
    pub fn quick(epochs: usize, seed: u64) -> Self {
        Self {
            epochs,
            seed,
            early_stop_rel: 1e-4,
            ..Self::default()
        }
    }
}

/// What happened during training.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Training loss per epoch (length ≤ `epochs` with early stopping).
    pub losses: Vec<f64>,
    /// Global gradient L2 norm per epoch (same length as `losses`),
    /// measured before clipping.
    pub grad_norms: Vec<f64>,
    /// Number of epochs actually run.
    pub epochs_run: usize,
    /// Whether the early-stopping rule truncated the schedule.
    pub early_stopped: bool,
}

impl TrainReport {
    /// The final training loss.
    ///
    /// # Panics
    /// Panics if no epochs ran.
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        *self.losses.last().expect("at least one epoch")
    }

    /// The final training loss, or `default` when no epochs ran (a
    /// 0-epoch warm-start restore run has no training loss).
    #[must_use]
    pub fn final_loss_or(&self, default: f64) -> f64 {
        self.losses.last().copied().unwrap_or(default)
    }

    /// The first epoch's loss.
    ///
    /// # Panics
    /// Panics if no epochs ran.
    #[must_use]
    pub fn initial_loss(&self) -> f64 {
        self.losses[0]
    }
}

/// Trains a model on an individual's windows with full-batch Adam:
/// every epoch, all windows are forwarded on one tape, the stacked
/// predictions are scored against the stacked targets with MSE, and one
/// optimizer step is taken ("each individual's data is processed in a
/// single batch", Sec. V-D). This is the one-member case of the cohort
/// training loop, bit-identical to the individual's run inside any
/// [`crate::cohort::train_cohort`] group.
///
/// With `warm_start` set, the checkpoint's parameters are restored
/// (bit-exact) over the seeded init first; `epochs == 0` is then a
/// pure restore run that consumes zero RNG draws and returns an empty
/// report.
///
/// # Panics
/// Panics on an empty window set, or on zero epochs without a
/// warm-start checkpoint.
pub fn train_model(
    model: &mut dyn Forecaster,
    windows: &WindowedData,
    config: &TrainConfig,
) -> TrainReport {
    fit(model, std::slice::from_ref(windows), std::slice::from_ref(config))
        .pop()
        .expect("one report per member")
}

/// The models one training loop fits together: per-member parameters
/// plus one forward over any subset of them.
pub(crate) trait Members {
    /// Number of members.
    fn count(&self) -> usize;
    /// Member `i`'s parameters.
    fn member_params(&self, i: usize) -> &ParamStore;
    /// Member `i`'s parameters, for the optimizer and warm starts.
    fn member_params_mut(&mut self, i: usize) -> &mut ParamStore;
    /// Forwards the members at positions `active` (in stack order,
    /// matching `batch` and `bindings`) through one tape graph,
    /// returning `[Σ W_b, V]`.
    fn forward(
        &self,
        active: &[usize],
        tape: &Tape,
        bindings: &[Binding],
        batch: &CohortBatch,
        ctx: &mut CohortCtx,
    ) -> Var;
}

impl<M: CohortForecaster> Members for [M] {
    fn count(&self) -> usize {
        self.len()
    }

    fn member_params(&self, i: usize) -> &ParamStore {
        self[i].params()
    }

    fn member_params_mut(&mut self, i: usize) -> &mut ParamStore {
        self[i].params_mut()
    }

    fn forward(
        &self,
        active: &[usize],
        tape: &Tape,
        bindings: &[Binding],
        batch: &CohortBatch,
        ctx: &mut CohortCtx,
    ) -> Var {
        let group: Vec<&M> = active.iter().map(|&i| &self[i]).collect();
        let binding_refs: Vec<&Binding> = bindings.iter().collect();
        M::predict_cohort(&group, tape, &binding_refs, batch, ctx)
    }
}

impl Members for dyn Forecaster + '_ {
    fn count(&self) -> usize {
        1
    }

    fn member_params(&self, _i: usize) -> &ParamStore {
        self.params()
    }

    fn member_params_mut(&mut self, _i: usize) -> &mut ParamStore {
        self.params_mut()
    }

    fn forward(
        &self,
        _active: &[usize],
        tape: &Tape,
        bindings: &[Binding],
        batch: &CohortBatch,
        ctx: &mut CohortCtx,
    ) -> Var {
        self.predict_member(tape, &bindings[0], batch, ctx)
    }
}

/// The training loop: trains member `b` on `windows[b]` under
/// `configs[b]`, building one tape graph per epoch for the whole
/// active group. Per-member MSE losses are summed into one scalar
/// whose add chain hands every loss node the seed gradient `1.0`, so
/// one backward pass yields each member's standalone gradients.
///
/// Per-member state (Adam moments, RNG stream, early-stopping
/// counters) stays per member: a member that early-stops or finishes
/// its schedule leaves the active group, the [`CohortBatch`] is rebuilt
/// without it, and — per the cohort RNG contract — it stops consuming
/// draws exactly as a one-member run would. A warm-started config
/// with `epochs == 0` is a pure restore: the member never joins the
/// group and never seeds an RNG.
///
/// Obs: a one-member run emits a `train_epoch` point per epoch (loss,
/// grad norm, tape nodes); a larger group emits `cohort_epoch` points.
pub(crate) fn fit<G: Members + ?Sized>(
    members: &mut G,
    windows: &[WindowedData],
    configs: &[TrainConfig],
) -> Vec<TrainReport> {
    let n = members.count();
    assert!(n > 0, "cannot train an empty cohort");
    assert_eq!(n, windows.len(), "one window set per model");
    assert_eq!(n, configs.len(), "one config per model");
    for (b, (w, c)) in windows.iter().zip(configs).enumerate() {
        assert!(!w.is_empty(), "individual {b}: cannot train on zero windows");
        assert!(
            c.epochs > 0 || c.warm_start.is_some(),
            "individual {b}: need at least one epoch (or a warm-start checkpoint)"
        );
        assert_eq!(
            c.kernel_backend, configs[0].kernel_backend,
            "individual {b}: cohort configs must share the kernel backend"
        );
    }
    // Pin the configured kernel backend for the whole run. The scope is
    // thread-local and training runs entirely on the calling thread, so
    // concurrent runs with different backends cannot perturb each other.
    let _kernel = configs[0].kernel_backend.scoped();
    let obs = ema_obs::recorder();

    for (i, config) in configs.iter().enumerate() {
        if let Some(ckpt) = &config.warm_start {
            ckpt.restore(members.member_params_mut(i))
                .expect("warm-start checkpoint must match the model architecture");
        }
    }

    // The active group: cohort positions still training, in stack
    // order. It starts as every member with a non-empty schedule;
    // 0-epoch warm-start restores never join it and never seed an RNG.
    // `rngs`/`adams` are indexed by *active* position and compacted
    // alongside `act_idx`, so the forward sees one contiguous RNG
    // stream per active member; `progress` is indexed by cohort
    // position.
    let mut act_idx: Vec<usize> = (0..n).filter(|&i| configs[i].epochs > 0).collect();
    let mut adams: Vec<Adam> =
        act_idx.iter().map(|&i| Adam::new(configs[i].learning_rate)).collect();
    let mut rngs: Vec<Rng64> =
        act_idx.iter().map(|&i| Rng64::seed_from(configs[i].seed)).collect();
    let mut progress: Vec<Progress> = configs.iter().map(Progress::new).collect();

    // One tape and one gradient workspace for the whole run: reset
    // keeps the node storage between epochs and recycles every tensor
    // buffer through the pool, so steady-state epochs allocate almost
    // nothing. Every member's target matrix is a persistent tape
    // prefix that `reset_to` keeps alive; vars do not survive reset,
    // so parameters rebind per epoch.
    let mut tape = Tape::new();
    let mut grads = Grads::empty();
    let tgts: Vec<_> = windows.iter().map(|w| tape.leaf(w.targets_matrix())).collect();
    let keep = tape.len();
    let stack = |act_idx: &[usize]| {
        let active: Vec<&[Tensor]> =
            act_idx.iter().map(|&i| windows[i].inputs.as_slice()).collect();
        CohortBatch::from_windows(&active)
    };
    let mut cohort_batch = (!act_idx.is_empty()).then(|| stack(&act_idx));
    let (mut bindings, mut loss_vars, mut keep_mask) = (Vec::new(), Vec::new(), Vec::new());
    let mut epoch = 0usize;
    while let Some(batch) = &cohort_batch {
        tape.reset_to(keep);
        bindings.clear();
        bindings.extend(act_idx.iter().map(|&i| members.member_params(i).bind(&tape)));
        let mut ctx = CohortCtx::train(&mut rngs);
        let out = members.forward(&act_idx, &tape, &bindings, batch, &mut ctx);
        // Per-member MSE over each row block, summed pairwise: the add
        // chain hands every loss node the seed gradient 1.0, so member
        // b's backward matches its one-member graph.
        loss_vars.clear();
        let mut total = None;
        for (pos, &i) in act_idx.iter().enumerate() {
            let pred = if act_idx.len() == 1 {
                out
            } else {
                let off = batch.offset(pos);
                tape.slice_rows(out, off, off + batch.group_wins()[pos])
            };
            let l = tape.mse(pred, tgts[i]);
            loss_vars.push(l);
            total = Some(match total {
                None => l,
                Some(acc) => tape.add(acc, l),
            });
        }
        tape.backward_into(total.expect("non-empty active group"), &mut grads);

        keep_mask.clear();
        let mut total_loss = 0.0;
        for (pos, &i) in act_idx.iter().enumerate() {
            let config = &configs[i];
            let p = &mut progress[i];
            let loss_value = tape.value(loss_vars[pos]).data()[0];
            p.losses.push(loss_value);
            total_loss += loss_value;
            let grad_norm = global_grad_norm(&bindings[pos], &grads);
            p.grad_norms.push(grad_norm);
            adams[pos].step(members.member_params_mut(i), &bindings[pos], &grads);
            obs.observe("train_loss", &LOSS_BUCKETS, loss_value);
            if n == 1 {
                point!(
                    "train_epoch",
                    epoch = epoch,
                    loss = loss_value,
                    grad_norm = grad_norm,
                    tape_nodes = tape.len()
                );
            }

            // Optional early stopping on stalled training loss (the
            // stopping epoch still takes its step), then schedule end.
            let mut stays = epoch + 1 < config.epochs;
            if config.early_stop_rel > 0.0 {
                if loss_value < p.best * (1.0 - config.early_stop_rel) {
                    p.best = loss_value;
                    p.since_best = 0;
                } else {
                    p.since_best += 1;
                    if p.since_best >= EARLY_STOP_PATIENCE {
                        p.early_stopped = true;
                        stays = false;
                        point!(
                            "early_stop",
                            epoch = epoch,
                            best_loss = p.best.min(loss_value),
                            patience = EARLY_STOP_PATIENCE,
                            rel_threshold = config.early_stop_rel
                        );
                        obs.inc_counter("early_stops", 1);
                    }
                }
            }
            if !stays {
                obs.observe("epochs_run", &EPOCH_BUCKETS, p.losses.len() as f64);
                obs.observe("grad_norm_final", &GRAD_NORM_BUCKETS, grad_norm);
            }
            keep_mask.push(stays);
        }
        if n > 1 {
            point!(
                "cohort_epoch",
                epoch = epoch,
                active = act_idx.len(),
                loss_total = total_loss,
                tape_nodes = tape.len()
            );
        }
        // Graph size per epoch: constant while the group is unchanged
        // (one tape graph, reset each epoch), so a gauge suffices — a
        // drift here means a model is leaking nodes into the tape.
        obs.set_gauge("tape_nodes", tape.len() as f64);
        epoch += 1;

        // Members that finished leave the group: compact the
        // active-state vectors in lockstep and rebuild the stacked
        // batch without them.
        if keep_mask.contains(&false) {
            retain_kept(&mut act_idx, &keep_mask);
            retain_kept(&mut rngs, &keep_mask);
            retain_kept(&mut adams, &keep_mask);
            cohort_batch = (!act_idx.is_empty()).then(|| stack(&act_idx));
        }
    }
    // Attribute the kernel work of a direct (non-executor) training run
    // to the current phase; under the executor the job-level drain in
    // `exec` usually gets there first — take-semantics make both safe.
    ema_obs::drain_kernel_counters();
    progress.into_iter().map(Progress::into_report).collect()
}

/// Drops the entries of `items` whose `keep` flag is false.
fn retain_kept<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    items.retain(|_| *flags.next().expect("one flag per item"));
}

/// One member's training record while the loop runs.
struct Progress {
    losses: Vec<f64>,
    grad_norms: Vec<f64>,
    best: f64,
    since_best: usize,
    early_stopped: bool,
}

impl Progress {
    fn new(config: &TrainConfig) -> Self {
        Self {
            losses: Vec::with_capacity(config.epochs),
            grad_norms: Vec::with_capacity(config.epochs),
            best: f64::INFINITY,
            since_best: 0,
            early_stopped: false,
        }
    }

    fn into_report(self) -> TrainReport {
        TrainReport {
            epochs_run: self.losses.len(),
            early_stopped: self.early_stopped,
            losses: self.losses,
            grad_norms: self.grad_norms,
        }
    }
}

/// Predicts every window in evaluation mode, returning `[n, V]`.
///
/// Runs the one-member forward (one tape graph for all windows); eval
/// mode draws no randomness, so the rows are bit-identical to
/// per-window [`Forecaster::predict`] calls.
#[must_use]
pub fn predict_all(model: &dyn Forecaster, windows: &WindowedData, seed: u64) -> Tensor {
    let mut rngs = [Rng64::seed_from(seed)];
    let batch = CohortBatch::from_windows(&[&windows.inputs]);
    let tape = Tape::new();
    let binding = model.params().bind(&tape);
    let out = model.predict_member(&tape, &binding, &batch, &mut CohortCtx::eval(&mut rngs));
    tape.value(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_data::make_windows;
    use ema_models::{build_model, ModelConfig, ModelKind};
    use ema_tensor::Tensor;

    fn toy_windows(seq: usize) -> WindowedData {
        // A predictable AR(1)-ish series: x_t = 0.8 x_{t-1}.
        let t = 40;
        let mut rows = vec![vec![1.0, -1.0, 0.5]];
        for i in 1..t {
            let prev: &Vec<f64> = &rows[i - 1];
            rows.push(prev.iter().map(|&x| 0.8 * x).collect());
        }
        make_windows(&Tensor::from_vec2(rows).unwrap(), seq)
    }

    #[test]
    fn lstm_training_reduces_loss() {
        let windows = toy_windows(2);
        let mut model = build_model(ModelKind::Lstm, 3, 2, &ModelConfig::tiny(0), None);
        let report = train_model(&mut *model, &windows, &TrainConfig::quick(80, 1));
        assert!(
            report.final_loss() < report.initial_loss() * 0.5,
            "loss {} -> {}",
            report.initial_loss(),
            report.final_loss()
        );
    }

    #[test]
    fn early_stopping_truncates() {
        let windows = toy_windows(2);
        let mut model = build_model(ModelKind::Lstm, 3, 2, &ModelConfig::tiny(0), None);
        let mut cfg = TrainConfig::quick(500, 2);
        cfg.early_stop_rel = 0.05; // aggressive: stop as soon as gains slow
        let report = train_model(&mut *model, &windows, &cfg);
        assert!(report.epochs_run < 500, "early stopping never fired");
        assert!(report.early_stopped);
        assert_eq!(report.losses.len(), report.epochs_run);
        assert_eq!(report.grad_norms.len(), report.epochs_run);
        assert!(report.grad_norms.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn disabled_early_stop_ignores_patience() {
        // early_stop_rel = 0 (the default) must run the full schedule.
        let windows = toy_windows(2);
        let mut model = build_model(ModelKind::Lstm, 3, 2, &ModelConfig::tiny(0), None);
        let cfg = TrainConfig { epochs: 12, seed: 4, ..TrainConfig::default() };
        assert_eq!(cfg.early_stop_rel, 0.0);
        let report = train_model(&mut *model, &windows, &cfg);
        assert_eq!(report.epochs_run, 12);
        assert!(!report.early_stopped);
    }

    #[test]
    fn predict_all_shape() {
        let windows = toy_windows(3);
        let model = build_model(ModelKind::Lstm, 3, 3, &ModelConfig::tiny(0), None);
        let preds = predict_all(&*model, &windows, 0);
        assert_eq!(preds.dims(), &[windows.len(), 3]);
    }

    #[test]
    #[should_panic(expected = "zero windows")]
    fn rejects_empty_windows() {
        let empty = WindowedData {
            inputs: vec![],
            targets: vec![],
            seq_len: 1,
        };
        let mut model = build_model(ModelKind::Lstm, 3, 1, &ModelConfig::tiny(0), None);
        let _ = train_model(&mut *model, &empty, &TrainConfig::default());
    }

    #[test]
    fn training_is_seed_deterministic() {
        let windows = toy_windows(2);
        let run = |seed| {
            let mut model = build_model(ModelKind::Lstm, 3, 2, &ModelConfig::tiny(9), None);
            train_model(&mut *model, &windows, &TrainConfig::quick(30, seed)).final_loss()
        };
        assert_eq!(run(5), run(5));
    }
}
