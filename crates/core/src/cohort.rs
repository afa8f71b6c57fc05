//! Cohort training: one tape graph per shard of B individuals,
//! scheduled as streaming shard jobs on the [`crate::exec`] engine.
//!
//! [`train_cohort`] trains B individuals in one loop: every epoch, all
//! their windows forward through **one** tape graph
//! ([`CohortForecaster::predict_cohort`]), per-individual MSE losses
//! are summed into one scalar, and one backward pass yields every
//! individual's gradients — bit-identical to B one-member runs of the
//! same loop ([`crate::train::train_model`]), which in turn match the
//! per-window oracle graph (enforced by
//! `crates/models/tests/batched_equivalence.rs` and
//! `tests/determinism.rs`).
//!
//! `fit_shard` is the one place a run spec becomes models: it
//! prepares each individual (split → graph → model → windows) and
//! trains the shard with [`train_cohort`]. [`run_cohort_batch`],
//! [`crate::pipeline::run_individual`] (a one-individual shard) and
//! the cluster phase all go through it.
//!
//! [`run_cohort_sharded`] streams a synthetic study through the
//! executor in shards of `shard_size` individuals: each shard job
//! *generates* its slice of the study on the worker
//! ([`EmaGenerator::generate_range`]), trains it as one cohort batch,
//! evaluates, and drops the data — so peak memory is bounded by
//! (workers × shard), not the study size. Results are byte-identical at
//! every `(thread count, shard size)` pair; shard size 1 is
//! per-individual training.

use crate::cluster::{plan_clusters, ClusterPlan, TrainStrategy};
use crate::evaluate::evaluate_mses;
use crate::exec::{expect_all, Executor, Job};
use crate::pipeline::{graph_for_individual, GraphSpec, IndividualOutcome, RunSpec};
use crate::train::{fit, TrainConfig, TrainReport};
use ema_data::{
    make_test_windows, make_windows, split_train_test, EmaGenerator, Individual, WindowedData,
};
use ema_graph::AdjacencyMatrix;
use ema_models::{
    A3tgcn, Astgcn, CohortForecaster, Forecaster, LstmForecaster, ModelKind, Mtgnn, VarForecaster,
};
use ema_obs::metrics::EPOCH_BUCKETS;
use ema_obs::span;
use ema_tensor::Tensor;

/// Trains `models[b]` on `windows[b]` under `configs[b]` for every `b`,
/// building one tape graph per epoch for the whole group, with O(depth)
/// tape nodes per epoch for the whole cohort. Bit-identical to calling
/// [`crate::train::train_model`] once per individual.
///
/// All configs must agree on the kernel backend (one thread-local pin
/// covers the shared graph).
///
/// A config with `warm_start` set restores the checkpoint into its
/// model before the first epoch; a warm-started config with
/// `epochs == 0` is a pure restore — the individual never joins the
/// active group and, per the cohort RNG contract, consumes zero
/// training draws (exactly as its standalone
/// [`crate::train::train_model`] run would).
///
/// # Panics
/// Panics on empty inputs, length mismatches, an empty window set,
/// zero epochs without a warm-start checkpoint, or disagreeing kernel
/// backends.
pub fn train_cohort<M: CohortForecaster>(
    models: &mut [M],
    windows: &[WindowedData],
    configs: &[TrainConfig],
) -> Vec<TrainReport> {
    fit(models, windows, configs)
}

/// One individual of a [`fit_shard`] call, trained and ready to
/// evaluate.
pub(crate) struct Fitted {
    /// Study id.
    pub id: usize,
    /// The trained model.
    pub model: Box<dyn Forecaster>,
    /// What training did.
    pub report: TrainReport,
    /// Test windows (the test split, primed with the training tail).
    pub test_windows: WindowedData,
    /// The static graph used, after sparsification.
    pub graph: Option<AdjacencyMatrix>,
}

/// Prepares every `(id, data)` individual as `spec` says — sequential
/// split, graph from the training split only, model, windows, and a
/// training config with the individual's own derived dropout stream —
/// then trains them all as one cohort. `configure` may adjust each
/// config from the individual's training split (cluster warm starts).
///
/// This is the single place a [`ModelKind`] becomes a model type.
pub(crate) fn fit_shard(
    individuals: &[(usize, &Tensor)],
    spec: &RunSpec,
    configure: &dyn Fn(&Tensor, &mut TrainConfig),
) -> Vec<Fitted> {
    let config = &spec.model_config;
    match spec.model {
        ModelKind::Lstm => {
            fit_shard_as(individuals, spec, configure, |v, _| LstmForecaster::new(v, config))
        }
        ModelKind::A3tgcn => fit_shard_as(individuals, spec, configure, |v, graph| {
            let graph = graph.expect("A3TGCN requires a graph");
            A3tgcn::with_options(v, graph, config, spec.use_attention)
        }),
        ModelKind::Astgcn => fit_shard_as(individuals, spec, configure, |v, graph| {
            let graph = graph.expect("ASTGCN requires a graph");
            Astgcn::with_options(v, spec.seq_len, graph, config, spec.use_spatial_attention)
        }),
        ModelKind::Mtgnn => fit_shard_as(individuals, spec, configure, |v, graph| {
            Mtgnn::with_learner(
                v,
                spec.seq_len,
                graph,
                config,
                spec.learn_graph,
                spec.graph_learner,
            )
        }),
        ModelKind::Var => fit_shard_as(individuals, spec, configure, |v, _| {
            VarForecaster::new(v, spec.seq_len, config)
        }),
    }
}

/// The typed body of [`fit_shard`]: `build` constructs one
/// individual's model from its variable count and graph.
fn fit_shard_as<M, F>(
    individuals: &[(usize, &Tensor)],
    spec: &RunSpec,
    configure: &dyn Fn(&Tensor, &mut TrainConfig),
    build: F,
) -> Vec<Fitted>
where
    M: CohortForecaster + 'static,
    F: Fn(usize, Option<&AdjacencyMatrix>) -> M,
{
    assert!(!individuals.is_empty(), "empty shard");
    let mut models = Vec::with_capacity(individuals.len());
    let mut train_windows = Vec::with_capacity(individuals.len());
    let mut configs = Vec::with_capacity(individuals.len());
    let mut test_windows = Vec::with_capacity(individuals.len());
    let mut graphs = Vec::with_capacity(individuals.len());
    for &(id, data) in individuals {
        let (train, test) = split_train_test(data, spec.train_fraction);
        // Graph built from training data only — no test leakage; it is
        // recorded in the outcome even for models (LSTM) that ignore it.
        let graph = match &spec.graph {
            GraphSpec::None => None,
            GraphSpec::Static { metric, gdt } => {
                let _graph_span = span!(
                    "build_graph",
                    individual = id,
                    metric = metric.label(),
                    gdt = gdt.label()
                );
                Some(graph_for_individual(&train, *metric, *gdt))
            }
            GraphSpec::Provided(g) => Some(g.clone()),
        };
        models.push(build(data.dims()[1], graph.as_ref()));
        train_windows.push(make_windows(&train, spec.seq_len));
        test_windows.push(make_test_windows(&train, &test, spec.seq_len));
        // Per-individual dropout stream: derived from (run seed, id) up
        // front — never from draw order — so results are identical at
        // any thread count and shard size.
        let mut config = spec.train_config.clone();
        config.seed = ema_tensor::derive_stream_seed(spec.train_config.seed, id as u64);
        configure(&train, &mut config);
        configs.push(config);
        graphs.push(graph);
    }

    let reports = {
        let _train_span = span!("train", individuals = individuals.len());
        train_cohort(&mut models, &train_windows, &configs)
    };
    individuals
        .iter()
        .zip(models)
        .zip(reports)
        .zip(test_windows)
        .zip(graphs)
        .map(|(((((id, _), model), report), test_windows), graph)| Fitted {
            id: *id,
            model: Box::new(model),
            report,
            test_windows,
            graph,
        })
        .collect()
}

/// Runs one shard of individuals through one [`train_cohort`] call,
/// then evaluates each member. Outcomes are bit-identical to
/// [`crate::pipeline::run_individual`] on each member.
///
/// # Panics
/// Panics on an empty shard or the same data inconsistencies as
/// [`crate::pipeline::run_individual`].
#[must_use]
pub fn run_cohort_batch(individuals: &[Individual], spec: &RunSpec) -> Vec<IndividualOutcome> {
    let inputs: Vec<(usize, &Tensor)> = individuals.iter().map(|i| (i.id, &i.data)).collect();
    run_cohort_batch_planned(&inputs, spec, None)
}

/// [`run_cohort_batch`] over `(id, data)` pairs with an optional
/// cluster-warm-start plan: when present, every individual is assigned
/// to its nearest cluster from the *training* split and fine-tuned from
/// that cluster's checkpoint (`epochs = fine_tune_epochs`,
/// `warm_start` from the cache) instead of training from scratch.
pub(crate) fn run_cohort_batch_planned(
    individuals: &[(usize, &Tensor)],
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
) -> Vec<IndividualOutcome> {
    // Pin the spec's kernel backend for the whole job — graph build and
    // evaluation matmuls included, not just the training loop. Each
    // shard job runs wholly on one executor worker thread, so this
    // thread-local scope covers everything the job computes.
    let _kernel = spec.train_config.kernel_backend.scoped();
    let fitted = fit_shard(individuals, spec, &|train, config| {
        if let Some(plan) = plan {
            // Cluster warm start: nearest medoid by training-split
            // series distance, fine-tune schedule from the plan.
            let cluster = plan.assign(train);
            config.epochs = plan.fine_tune_epochs;
            config.warm_start = Some(plan.checkpoint(cluster));
        }
    });
    fitted
        .into_iter()
        .map(|f| {
            let _eval_span = span!("evaluate", individual = f.id, windows = f.test_windows.len());
            // Extract the learned graph from MTGNN for Experiment C.
            let learned_graph = if spec.model == ModelKind::Mtgnn && spec.learn_graph {
                let concrete = f
                    .model
                    .as_any_mtgnn()
                    .expect("MTGNN model exposes its learned graph");
                Some(concrete.learned_graph())
            } else {
                None
            };
            if plan.is_some() {
                ema_obs::recorder().observe(
                    "cluster.fine_tune_epochs",
                    &EPOCH_BUCKETS,
                    f.report.epochs_run as f64,
                );
            }
            let (mse, per_variable_mse) = evaluate_mses(&*f.model, &f.test_windows);
            let outcome = IndividualOutcome {
                id: f.id,
                mse,
                per_variable_mse,
                // 0.0 stands in for "no training loss" on a 0-epoch
                // warm-start restore run (nomothetic serving).
                final_train_loss: f.report.final_loss_or(0.0),
                epochs_run: f.report.epochs_run,
                graph_used: f.graph,
                learned_graph,
            };
            // Kernel work from graph build + evaluation lands in the
            // current phase before the job's span closes; take-semantics
            // keep this and the executor's job-level drain from double
            // counting.
            ema_obs::drain_kernel_counters();
            outcome
        })
        .collect()
}

/// Streams a synthetic study through the executor in shards of
/// `shard_size` individuals. Each shard becomes one [`Job`] that
/// generates its slice of the study on the worker, trains it as one
/// cohort ([`run_cohort_batch`]) and returns its outcomes; per-shard
/// memory is dropped when the job ends, and warm pool buffers are
/// handed across jobs by the executor.
///
/// Results come back in individual order and are byte-identical at
/// every `(thread count, shard size)` pair.
///
/// # Panics
/// Panics when `shard_size` is zero, or propagates the first shard
/// failure after the queue drains.
#[must_use]
pub fn run_cohort_sharded(
    generator: &EmaGenerator,
    spec: &RunSpec,
    shard_size: usize,
    executor: &Executor,
) -> Vec<IndividualOutcome> {
    assert!(shard_size > 0, "shard size must be positive");
    let n = generator.config().num_individuals;
    let _span = span!(
        "cohort_sharded",
        model = spec.model.label(),
        graph = spec.graph.label(),
        individuals = n,
        shard_size = shard_size,
        threads = executor.threads()
    );
    // Cluster phase (when the strategy asks for it) runs once on the
    // calling thread before any shard job is spawned, so the plan — and
    // through it every result — is identical at every thread count.
    let plan = match &spec.train_strategy {
        TrainStrategy::Idiographic => None,
        TrainStrategy::ClusterWarmStart { .. } => Some(plan_clusters(generator, spec)),
    };
    let plan = plan.as_ref();
    let jobs: Vec<Job<'_, Vec<IndividualOutcome>>> = (0..n)
        .step_by(shard_size)
        .map(|start| {
            let end = (start + shard_size).min(n);
            Job::new(format!("shard_{start}_{end}"), move || {
                let _shard_span = span!("shard", start = start, individuals = end - start);
                let recorder = ema_obs::recorder();
                recorder.inc_counter("exec.shard_batches", 1);
                recorder.inc_counter("exec.shard_individuals", (end - start) as u64);
                let individuals = generator.generate_range(start, end);
                let inputs: Vec<(usize, &Tensor)> =
                    individuals.iter().map(|i| (i.id, &i.data)).collect();
                run_cohort_batch_planned(&inputs, spec, plan)
            })
        })
        .collect();
    expect_all(executor.run(jobs), "sharded cohort").into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_individual;
    use crate::train::train_model;
    use ema_data::GeneratorConfig;
    use ema_models::{Forecaster, ModelConfig};

    fn quick_spec() -> RunSpec {
        RunSpec {
            model_config: ModelConfig::tiny(0),
            train_config: TrainConfig::quick(12, 3),
            ..RunSpec::new(ModelKind::Lstm, GraphSpec::None, 2)
        }
    }

    fn generator() -> EmaGenerator {
        EmaGenerator::new(GeneratorConfig::quick(5, 4, 17))
    }

    /// The whole point: one cohort tape graph must reproduce B separate
    /// `train_model` runs bit for bit — losses, gradient norms, epoch
    /// counts, and the trained parameters.
    #[test]
    fn train_cohort_matches_per_individual_train_model() {
        let ds = generator().generate();
        let spec = quick_spec();
        let prep = |ind: &Individual| {
            let (train, _) = split_train_test(&ind.data, spec.train_fraction);
            let mut config = spec.train_config.clone();
            config.seed = ema_tensor::derive_stream_seed(spec.train_config.seed, ind.id as u64);
            (make_windows(&train, spec.seq_len), config)
        };
        let mut models: Vec<LstmForecaster> = ds
            .individuals
            .iter()
            .map(|ind| LstmForecaster::new(ind.data.dims()[1], &spec.model_config))
            .collect();
        let (windows, configs): (Vec<_>, Vec<_>) =
            ds.individuals.iter().map(prep).unzip();
        let reports = train_cohort(&mut models, &windows, &configs);

        for (b, ind) in ds.individuals.iter().enumerate() {
            let mut reference = LstmForecaster::new(ind.data.dims()[1], &spec.model_config);
            let r = train_model(&mut reference, &windows[b], &configs[b]);
            assert_eq!(reports[b].losses, r.losses, "individual {b} losses");
            assert_eq!(reports[b].grad_norms, r.grad_norms, "individual {b} grad norms");
            assert_eq!(reports[b].epochs_run, r.epochs_run, "individual {b} epochs");
            assert_eq!(reports[b].early_stopped, r.early_stopped);
            for id in reference.params().ids() {
                assert_eq!(
                    models[b].params().value(id).data(),
                    reference.params().value(id).data(),
                    "individual {b} param {} diverged",
                    reference.params().name(id)
                );
            }
        }
    }

    #[test]
    fn sharded_outcomes_match_oracle_at_any_shard_size_and_thread_count() {
        let generator = generator();
        let spec = quick_spec();
        let key = |outcomes: &[IndividualOutcome]| -> Vec<(usize, f64, f64, usize)> {
            outcomes
                .iter()
                .map(|o| (o.id, o.mse, o.final_train_loss, o.epochs_run))
                .collect()
        };
        let oracle: Vec<IndividualOutcome> = generator
            .generate()
            .individuals
            .iter()
            .map(|ind| run_individual(ind.id, &ind.data, &spec))
            .collect();
        assert_eq!(oracle.len(), 5);
        for (shard_size, threads) in [(1, 1), (2, 2), (3, 4), (5, 1)] {
            let got = run_cohort_sharded(
                &generator,
                &spec,
                shard_size,
                &Executor::with_threads(threads),
            );
            assert_eq!(key(&got), key(&oracle), "shard_size={shard_size} threads={threads}");
        }
    }

    #[test]
    fn early_stopping_individuals_leave_the_active_group() {
        let ds = generator().generate();
        let spec = quick_spec();
        let mut configs: Vec<TrainConfig> = Vec::new();
        let mut models = Vec::new();
        let mut windows = Vec::new();
        for (b, ind) in ds.individuals.iter().enumerate() {
            let (train, _) = split_train_test(&ind.data, spec.train_fraction);
            let mut config = spec.train_config.clone();
            config.seed = ema_tensor::derive_stream_seed(config.seed, ind.id as u64);
            // Stagger schedules so the group shrinks mid-run.
            config.epochs = 4 + 3 * b;
            config.early_stop_rel = 0.0;
            models.push(LstmForecaster::new(ind.data.dims()[1], &spec.model_config));
            windows.push(make_windows(&train, spec.seq_len));
            configs.push(config);
        }
        let reports = train_cohort(&mut models, &windows, &configs);
        for (b, report) in reports.iter().enumerate() {
            assert_eq!(report.epochs_run, 4 + 3 * b, "individual {b}");
            assert!(!report.early_stopped);
        }
    }

    /// The VAR baseline trains on the grouped path like every other
    /// model: a 5-individual shard reproduces each member's own run.
    #[test]
    fn run_cohort_batch_runs_var() {
        let ds = generator().generate();
        let spec = RunSpec {
            model_config: ModelConfig::tiny(0),
            train_config: TrainConfig::quick(6, 3),
            ..RunSpec::new(ModelKind::Var, GraphSpec::None, 2)
        };
        let got = run_cohort_batch(&ds.individuals, &spec);
        for (o, ind) in got.iter().zip(&ds.individuals) {
            let want = run_individual(ind.id, &ind.data, &spec);
            assert!(o.mse.is_finite(), "individual {} mse", ind.id);
            assert_eq!(o.mse, want.mse, "individual {} mse", ind.id);
            assert_eq!(o.per_variable_mse, want.per_variable_mse);
            assert_eq!(o.final_train_loss, want.final_train_loss);
            assert_eq!(o.epochs_run, want.epochs_run);
        }
    }

    /// Every graph model's cohort-batched shard must reproduce
    /// `run_individual` on each member bit for bit — MSEs, losses,
    /// epoch counts, and MTGNN's learned graph.
    #[test]
    fn graph_model_cohort_batch_matches_run_individual() {
        let ds = generator().generate();
        for model in [ModelKind::A3tgcn, ModelKind::Astgcn, ModelKind::Mtgnn] {
            let spec = RunSpec {
                model_config: ModelConfig::tiny(0),
                train_config: TrainConfig::quick(6, 3),
                ..RunSpec::new(
                    model,
                    GraphSpec::Static {
                        metric: ema_similarity::GraphMetric::Correlation,
                        gdt: ema_graph::sparsify::DensityThreshold::Gdt40,
                    },
                    2,
                )
            };
            let got = run_cohort_batch(&ds.individuals, &spec);
            for (o, ind) in got.iter().zip(&ds.individuals) {
                let want = run_individual(ind.id, &ind.data, &spec);
                assert_eq!(o.mse, want.mse, "{model:?} individual {} mse", ind.id);
                assert_eq!(
                    o.per_variable_mse, want.per_variable_mse,
                    "{model:?} individual {} per-variable mse",
                    ind.id
                );
                assert_eq!(
                    o.final_train_loss, want.final_train_loss,
                    "{model:?} individual {} final loss",
                    ind.id
                );
                assert_eq!(o.epochs_run, want.epochs_run, "{model:?} individual {}", ind.id);
                assert_eq!(
                    o.learned_graph.as_ref().map(|g| g.weights().data().to_vec()),
                    want.learned_graph.as_ref().map(|g| g.weights().data().to_vec()),
                    "{model:?} individual {} learned graph",
                    ind.id
                );
            }
        }
    }
}
