//! The three workloads: their inputs, the program calls an untraced
//! pass makes, the same sequence rebuilt from public calls under the
//! layer timers for the traced pass, and the oracle re-runs.

use crate::tracer::{Layer, Tracer};
use ema_core::evaluate::{evaluate_mse, evaluate_per_variable_mse};
use ema_core::experiments::ExperimentScale;
use ema_core::{
    plan_clusters, run_cohort_sharded, run_cohort_with, run_individual, train_cohort, train_model,
    ClusterPlan, Executor, GraphSpec, IndividualOutcome, Job, RunSpec, TrainConfig, TrainStrategy,
};
use ema_data::{
    make_test_windows, make_windows, split_train_test, EmaDataset, EmaGenerator, GeneratorConfig,
};
use ema_graph::sparsify::{sparsify, DensityThreshold};
use ema_graph::AdjacencyMatrix;
use ema_models::{
    build_model, A3tgcn, Astgcn, CohortForecaster, Forecaster, LstmForecaster, ModelConfig,
    ModelKind, Mtgnn,
};
use ema_obs::span;
use ema_similarity::{build_graph, GraphMetric};
use ema_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `table2` / `table3` / `fig3` path on quick-scale individuals.
    PaperQuick,
    /// Idiographic LSTM and MTGNN streams on the batched cohort path.
    CohortStream,
    /// The LSTM stream under cluster warm start.
    WarmstartStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperQuick,
        Workload::CohortStream,
        Workload::WarmstartStream,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuick => "paper_quick",
            Workload::CohortStream => "cohort_stream",
            Workload::WarmstartStream => "warmstart_stream",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How many individuals one pass of a workload fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Individuals in the `paper_quick` study (each runs 7 conditions).
    pub quick_individuals: usize,
    /// Training epochs of a `paper_quick` fit.
    pub quick_epochs: usize,
    /// Individuals in the streamed study.
    pub stream_individuals: usize,
}

impl Size {
    /// The measured size.
    pub const BENCH: Size = Size {
        quick_individuals: 2,
        quick_epochs: 60,
        stream_individuals: 1536,
    };
    /// The self-test size.
    pub const TINY: Size = Size {
        quick_individuals: 2,
        quick_epochs: 2,
        stream_individuals: 20,
    };
}

/// One model condition: the spec and, for streams, the shard size.
#[derive(Debug, Clone)]
pub struct Condition {
    /// Short label, e.g. `MTGNN/CORR@20%`.
    pub label: String,
    /// The run spec.
    pub spec: RunSpec,
    /// Shard size (streams only; 0 for the table path).
    pub shard: usize,
}

/// Where a workload's individuals come from.
pub enum Study {
    /// A materialised dataset, as the paper tables use.
    Table(EmaDataset),
    /// A generator the shard jobs draw from.
    Stream(EmaGenerator),
}

/// Everything a pass needs: the study, the conditions and the executor.
pub struct Inputs {
    /// The study.
    pub study: Study,
    /// The conditions one pass runs, in order.
    pub conditions: Vec<Condition>,
    /// The executor every pipeline call runs on.
    pub executor: Executor,
}

/// What one condition produced: its outcomes in individual order, or
/// `None` when the call panicked.
pub type ConditionResult = Option<Vec<IndividualOutcome>>;

/// The table conditions: LSTM plus {A3TGCN, ASTGCN, MTGNN} × {DTW, CORR}
/// at GDT 20% and sequence length 5, as `run_experiment_a` specifies them.
fn quick_conditions(scale: &ExperimentScale) -> Vec<Condition> {
    let mut out = vec![Condition {
        label: "LSTM".to_string(),
        spec: scale.spec(ModelKind::Lstm, GraphSpec::None, 5),
        shard: 0,
    }];
    for metric in [GraphMetric::Dtw, GraphMetric::Correlation] {
        for model in ModelKind::gnns() {
            let graph = GraphSpec::Static {
                metric,
                gdt: DensityThreshold::Gdt20,
            };
            out.push(Condition {
                label: format!("{}/{}", model.label(), graph.label()),
                spec: scale.spec(model, graph, 5),
                shard: 0,
            });
        }
    }
    out
}

/// The LSTM stream spec of the committed `cohort_stream_10k_*` entries.
fn stream_lstm_spec() -> RunSpec {
    let mut spec = ExperimentScale::tiny().spec(ModelKind::Lstm, GraphSpec::None, 2);
    spec.model_config = ModelConfig::tiny(0);
    spec.train_config = TrainConfig::quick(4, 7);
    spec
}

/// Builds a workload's inputs from the seed. This is the timed set-up.
#[must_use]
pub fn prepare(workload: Workload, seed: u64, size: Size, threads: usize) -> Inputs {
    let executor = Executor::with_threads(threads);
    let stream = || {
        EmaGenerator::new(GeneratorConfig {
            num_individuals: size.stream_individuals,
            num_variables: 3,
            mean_time_points: 12,
            seed,
            ..GeneratorConfig::default()
        })
    };
    match workload {
        Workload::PaperQuick => {
            let scale = ExperimentScale {
                num_individuals: size.quick_individuals,
                data_seed: seed,
                epochs: size.quick_epochs,
                ..ExperimentScale::quick()
            };
            // `scale.dataset()` with every series at exactly the mean
            // length, so each seed asks for the same amount of work.
            let dataset = EmaGenerator::new(GeneratorConfig {
                num_individuals: scale.num_individuals,
                num_variables: scale.num_variables,
                mean_time_points: scale.mean_time_points,
                time_points_std: 0.0,
                seed,
                ..GeneratorConfig::default()
            })
            .generate();
            Inputs {
                study: Study::Table(dataset),
                conditions: quick_conditions(&scale),
                executor,
            }
        }
        Workload::CohortStream => {
            let mut mtgnn = ExperimentScale::tiny().spec(
                ModelKind::Mtgnn,
                GraphSpec::Static {
                    metric: GraphMetric::Correlation,
                    gdt: DensityThreshold::Gdt40,
                },
                2,
            );
            mtgnn.model_config = ModelConfig::tiny(0);
            mtgnn.train_config = TrainConfig::quick(2, 7);
            Inputs {
                study: Study::Stream(stream()),
                conditions: vec![
                    Condition {
                        label: "LSTM".to_string(),
                        spec: stream_lstm_spec(),
                        shard: 64,
                    },
                    Condition {
                        label: "MTGNN/CORR@40%".to_string(),
                        spec: mtgnn,
                        shard: 8,
                    },
                ],
                executor,
            }
        }
        Workload::WarmstartStream => {
            let mut spec = stream_lstm_spec();
            spec.train_strategy = TrainStrategy::ClusterWarmStart {
                k: 4,
                cluster_epochs: 4,
                fine_tune_epochs: 1,
            };
            Inputs {
                study: Study::Stream(stream()),
                conditions: vec![Condition {
                    label: "LSTM/warm".to_string(),
                    spec,
                    shard: 64,
                }],
                executor,
            }
        }
    }
}

impl Inputs {
    /// Individuals in the study.
    #[must_use]
    pub fn individuals(&self) -> usize {
        match &self.study {
            Study::Table(dataset) => dataset.individuals.len(),
            Study::Stream(generator) => generator.config().num_individuals,
        }
    }

    /// Runs condition `ci` once, untraced, through the program's own
    /// entry point, guarded so a panic is counted instead of aborting
    /// the run.
    #[must_use]
    pub fn run(&self, ci: usize) -> ConditionResult {
        let c = &self.conditions[ci];
        catch_unwind(AssertUnwindSafe(|| match &self.study {
            Study::Table(dataset) => run_cohort_with(dataset, &c.spec, &self.executor),
            Study::Stream(generator) => {
                run_cohort_sharded(generator, &c.spec, c.shard, &self.executor)
            }
        }))
        .ok()
    }

    /// Runs condition `ci` once, traced: the same job sequence rebuilt
    /// from public calls, each call into a module timed by `tracer`.
    #[must_use]
    pub fn run_traced(&self, ci: usize, tracer: &Tracer) -> ConditionResult {
        let c = &self.conditions[ci];
        tracer.call(self.executor.threads(), || {
            catch_unwind(AssertUnwindSafe(|| match &self.study {
                Study::Table(dataset) => traced_cohort(dataset, &c.spec, &self.executor, tracer),
                Study::Stream(generator) => {
                    traced_sharded(generator, &c.spec, c.shard, &self.executor, tracer)
                }
            }))
            .ok()
            .flatten()
        })
    }

    /// Re-runs a fixed sample of individuals through the per-individual
    /// oracle and returns `(condition, outcome)` pairs to compare with a
    /// pass's outcomes. Streams use the calls `run_cohort_sharded` makes
    /// on [`ema_core::CohortPath::PerIndividual`]: `run_individual`, or
    /// `ClusterPlan::run_individual_warm` under a warm start. The table
    /// re-runs individual 0 of the LSTM and first graph conditions on
    /// the calling thread.
    #[must_use]
    pub fn oracle_sample(&self) -> Vec<(usize, IndividualOutcome)> {
        let mut out = Vec::new();
        match &self.study {
            Study::Table(dataset) => {
                let ind = &dataset.individuals[0];
                for ci in [0, 1] {
                    out.push((
                        ci,
                        run_individual(ind.id, &ind.data, &self.conditions[ci].spec),
                    ));
                }
            }
            Study::Stream(generator) => {
                let n = generator.config().num_individuals;
                let mut ids = vec![0, n / 3, 2 * n / 3, n - 1];
                ids.dedup();
                for (ci, c) in self.conditions.iter().enumerate() {
                    let spec = &c.spec;
                    let plan = match spec.train_strategy {
                        TrainStrategy::Idiographic => None,
                        TrainStrategy::ClusterWarmStart { .. } => {
                            Some(plan_clusters(generator, spec))
                        }
                    };
                    for &id in &ids {
                        let ind = generator.generate_range(id, id + 1).remove(0);
                        let outcome = match &plan {
                            None => run_individual(id, &ind.data, spec),
                            Some(plan) => plan.run_individual_warm(id, &ind.data, spec),
                        };
                        out.push((ci, outcome));
                    }
                }
            }
        }
        out
    }
}

/// Builds the similarity graph from the training split and sparsifies
/// it, as `graph_for_individual` does, timing each call.
fn traced_graph(train: &Tensor, spec: &RunSpec, tracer: &Tracer) -> Option<AdjacencyMatrix> {
    match &spec.graph {
        GraphSpec::None => None,
        GraphSpec::Static { metric, gdt } => {
            let dense = tracer.time(Layer::BuildGraph, || build_graph(train, *metric));
            Some(tracer.time(Layer::Sparsify, || sparsify(&dense, *gdt)))
        }
        GraphSpec::Provided(g) => Some(g.clone()),
    }
}

/// `run_cohort_with`, rebuilt: one logged job per individual.
fn traced_cohort(
    dataset: &EmaDataset,
    spec: &RunSpec,
    executor: &Executor,
    tracer: &Tracer,
) -> Option<Vec<IndividualOutcome>> {
    let _cohort_span = span!(
        "cohort",
        model = spec.model.label(),
        graph = spec.graph.label(),
        seq_len = spec.seq_len,
        individuals = dataset.individuals.len(),
        threads = executor.threads()
    );
    let jobs: Vec<Job<'_, IndividualOutcome>> = dataset
        .individuals
        .iter()
        .map(|ind| {
            Job::new(format!("individual_{}", ind.id), move || {
                tracer.job(|| traced_individual(ind.id, &ind.data, spec, tracer))
            })
        })
        .collect();
    executor
        .run(jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .ok()
}

/// `run_individual`, rebuilt call for call (spans included, so the
/// traced pass does the program's own telemetry work too).
fn traced_individual(
    id: usize,
    data: &Tensor,
    spec: &RunSpec,
    tracer: &Tracer,
) -> IndividualOutcome {
    let _kernel = spec.train_config.kernel_backend.scoped();
    let _individual_span = span!(
        "individual",
        individual = id,
        model = spec.model.label(),
        graph = spec.graph.label(),
        seq_len = spec.seq_len
    );
    let (train, test) = tracer.time(Layer::DataWindow, || {
        split_train_test(data, spec.train_fraction)
    });
    let graph = {
        let _graph_span = match &spec.graph {
            GraphSpec::Static { metric, gdt } => Some(span!(
                "build_graph",
                individual = id,
                metric = metric.label(),
                gdt = gdt.label()
            )),
            _ => None,
        };
        traced_graph(&train, spec, tracer)
    };
    let v = data.dims()[1];
    let mut model: Box<dyn Forecaster> = tracer.time(Layer::ModelsBuild, || match spec.model {
        ModelKind::Mtgnn => Box::new(Mtgnn::with_learner(
            v,
            spec.seq_len,
            graph.as_ref(),
            &spec.model_config,
            spec.learn_graph,
            spec.graph_learner,
        )) as Box<dyn Forecaster>,
        ModelKind::A3tgcn => Box::new(A3tgcn::with_options(
            v,
            graph.as_ref().expect("A3TGCN requires a graph"),
            &spec.model_config,
            spec.use_attention,
        )),
        ModelKind::Astgcn => Box::new(Astgcn::with_options(
            v,
            spec.seq_len,
            graph.as_ref().expect("ASTGCN requires a graph"),
            &spec.model_config,
            spec.use_spatial_attention,
        )),
        _ => build_model(
            spec.model,
            v,
            spec.seq_len,
            &spec.model_config,
            graph.as_ref(),
        ),
    });
    let (train_windows, test_windows) = tracer.time(Layer::DataWindow, || {
        (
            make_windows(&train, spec.seq_len),
            make_test_windows(&train, &test, spec.seq_len),
        )
    });
    let mut train_config = spec.train_config.clone();
    train_config.seed = ema_tensor::derive_stream_seed(spec.train_config.seed, id as u64);
    let report = {
        let _train_span = span!("train", individual = id, windows = train_windows.len());
        tracer.time(Layer::Train, || {
            train_model(&mut *model, &train_windows, &train_config)
        })
    };
    tracer.add_epochs(report.epochs_run);
    let (mse, per_variable_mse) = {
        let _eval_span = span!("evaluate", individual = id, windows = test_windows.len());
        tracer.time(Layer::Evaluate, || {
            (
                evaluate_mse(&*model, &test_windows),
                evaluate_per_variable_mse(&*model, &test_windows),
            )
        })
    };
    let learned_graph = if spec.model == ModelKind::Mtgnn && spec.learn_graph {
        model.as_any_mtgnn().map(Mtgnn::learned_graph)
    } else {
        None
    };
    ema_obs::drain_kernel_counters();
    IndividualOutcome {
        id,
        mse,
        per_variable_mse,
        final_train_loss: report.final_loss_or(0.0),
        epochs_run: report.epochs_run,
        graph_used: graph,
        learned_graph,
    }
}

/// `run_cohort_sharded` on the batched path, rebuilt: the cluster plan
/// on the calling thread, then one logged job per shard.
fn traced_sharded(
    generator: &EmaGenerator,
    spec: &RunSpec,
    shard_size: usize,
    executor: &Executor,
    tracer: &Tracer,
) -> Option<Vec<IndividualOutcome>> {
    let n = generator.config().num_individuals;
    let _span = span!(
        "cohort_sharded",
        model = spec.model.label(),
        graph = spec.graph.label(),
        individuals = n,
        shard_size = shard_size,
        threads = executor.threads()
    );
    let plan = match spec.train_strategy {
        TrainStrategy::Idiographic => None,
        TrainStrategy::ClusterWarmStart { .. } => {
            Some(tracer.time(Layer::ClusterPlan, || plan_clusters(generator, spec)))
        }
    };
    let plan = plan.as_ref();
    let jobs: Vec<Job<'_, Vec<IndividualOutcome>>> = (0..n)
        .step_by(shard_size)
        .map(|start| {
            let end = (start + shard_size).min(n);
            Job::new(format!("shard_{start}_{end}"), move || {
                tracer.job(|| traced_shard(generator, spec, plan, start, end, tracer))
            })
        })
        .collect();
    let shards = executor
        .run(jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .ok()?;
    Some(shards.into_iter().flatten().collect())
}

/// One shard job of the batched cohort path.
fn traced_shard(
    generator: &EmaGenerator,
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
    start: usize,
    end: usize,
    tracer: &Tracer,
) -> Vec<IndividualOutcome> {
    let _shard_span = span!("shard", start = start, individuals = end - start);
    let recorder = ema_obs::recorder();
    recorder.inc_counter("exec.shard_batches", 1);
    recorder.inc_counter("exec.shard_individuals", (end - start) as u64);
    let individuals = tracer.time(Layer::DataGenerate, || generator.generate_range(start, end));
    let inputs: Vec<(usize, &Tensor)> = individuals.iter().map(|i| (i.id, &i.data)).collect();
    match spec.model {
        ModelKind::Lstm => traced_batch(&inputs, spec, plan, tracer, |v, _graph| {
            LstmForecaster::new(v, &spec.model_config)
        }),
        ModelKind::Mtgnn => traced_batch(&inputs, spec, plan, tracer, |v, graph| {
            Mtgnn::with_learner(
                v,
                spec.seq_len,
                graph,
                &spec.model_config,
                spec.learn_graph,
                spec.graph_learner,
            )
        }),
        other => unreachable!("no stream condition trains {}", other.label()),
    }
}

/// The typed body of one batched shard: per-individual split, graph,
/// model and windows (plus the cluster assignment under a warm start),
/// one `train_cohort` call, then per-individual evaluation.
fn traced_batch<M, F>(
    individuals: &[(usize, &Tensor)],
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
    tracer: &Tracer,
    build: F,
) -> Vec<IndividualOutcome>
where
    M: CohortForecaster,
    F: Fn(usize, Option<&AdjacencyMatrix>) -> M,
{
    let _kernel = spec.train_config.kernel_backend.scoped();
    let mut models = Vec::with_capacity(individuals.len());
    let mut train_windows = Vec::with_capacity(individuals.len());
    let mut test_windows = Vec::with_capacity(individuals.len());
    let mut configs = Vec::with_capacity(individuals.len());
    let mut graphs = Vec::with_capacity(individuals.len());
    for &(id, data) in individuals {
        let (train, test) = tracer.time(Layer::DataWindow, || {
            split_train_test(data, spec.train_fraction)
        });
        let graph = traced_graph(&train, spec, tracer);
        let v = data.dims()[1];
        models.push(tracer.time(Layer::ModelsBuild, || build(v, graph.as_ref())));
        let (tw, sw) = tracer.time(Layer::DataWindow, || {
            (
                make_windows(&train, spec.seq_len),
                make_test_windows(&train, &test, spec.seq_len),
            )
        });
        train_windows.push(tw);
        test_windows.push(sw);
        let mut config = spec.train_config.clone();
        config.seed = ema_tensor::derive_stream_seed(spec.train_config.seed, id as u64);
        if let Some(plan) = plan {
            let cluster = tracer.time(Layer::ClusterAssign, || plan.assign(&train));
            config.epochs = plan.fine_tune_epochs;
            config.warm_start = Some(plan.checkpoint(cluster));
        }
        configs.push(config);
        graphs.push(graph);
    }
    let reports = {
        let _train_span = span!("train", individuals = individuals.len());
        tracer.time(Layer::Train, || {
            train_cohort(&mut models, &train_windows, &configs)
        })
    };
    individuals
        .iter()
        .zip(&models)
        .zip(&test_windows)
        .zip(reports)
        .zip(graphs)
        .map(|(((((id, _), model), test), report), graph)| {
            tracer.add_epochs(report.epochs_run);
            let _eval_span = span!("evaluate", individual = *id, windows = test.len());
            let learned_graph = if spec.model == ModelKind::Mtgnn && spec.learn_graph {
                model.as_any_mtgnn().map(Mtgnn::learned_graph)
            } else {
                None
            };
            if plan.is_some() {
                ema_obs::recorder().observe(
                    "cluster.fine_tune_epochs",
                    &ema_obs::metrics::EPOCH_BUCKETS,
                    report.epochs_run as f64,
                );
            }
            let (mse, per_variable_mse) = tracer.time(Layer::Evaluate, || {
                (
                    evaluate_mse(model, test),
                    evaluate_per_variable_mse(model, test),
                )
            });
            let outcome = IndividualOutcome {
                id: *id,
                mse,
                per_variable_mse,
                final_train_loss: report.final_loss_or(0.0),
                epochs_run: report.epochs_run,
                graph_used: graph,
                learned_graph,
            };
            ema_obs::drain_kernel_counters();
            outcome
        })
        .collect()
}
