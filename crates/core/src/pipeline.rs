//! The personalized per-individual pipeline and its parallel cohort
//! runner (scheduled by the [`crate::exec`] cohort execution engine).

use crate::cluster::{ClusterPlan, TrainStrategy};
use crate::cohort::run_cohort_batch_planned;
use crate::exec::{expect_all, Executor, Job};
use crate::train::TrainConfig;
use ema_data::EmaDataset;
use ema_graph::sparsify::{sparsify, DensityThreshold};
use ema_graph::AdjacencyMatrix;
use ema_models::{GraphLearnerKind, ModelConfig, ModelKind};
use ema_obs::span;
use ema_similarity::{build_graph, GraphMetric};
use ema_tensor::Tensor;

/// Where a model's graph comes from.
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// No graph (the LSTM baseline).
    None,
    /// Similarity graph built per individual from the *training* data,
    /// sparsified to the given GDT.
    Static {
        /// Distance/similarity metric.
        metric: GraphMetric,
        /// Graph density threshold.
        gdt: DensityThreshold,
    },
    /// An externally supplied graph (e.g. an MTGNN-learned graph being
    /// fed to another model, Experiment C).
    Provided(AdjacencyMatrix),
}

impl GraphSpec {
    /// Short label for telemetry (obs span fields).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            GraphSpec::None => "none".to_string(),
            GraphSpec::Static { metric, gdt } => {
                format!("{}@{}", metric.label(), gdt.label())
            }
            GraphSpec::Provided(_) => "provided".to_string(),
        }
    }
}

/// Everything needed to run one model condition on one individual.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which model to train.
    pub model: ModelKind,
    /// Graph source.
    pub graph: GraphSpec,
    /// Input window length (paper: 1, 2 or 5).
    pub seq_len: usize,
    /// Train/test split fraction (paper: 0.7).
    pub train_fraction: f64,
    /// Model hyper-parameters.
    pub model_config: ModelConfig,
    /// Training hyper-parameters.
    pub train_config: TrainConfig,
    /// For MTGNN: whether the graph-learning module is active
    /// (disabled = ablation).
    pub learn_graph: bool,
    /// For MTGNN: which graph-learner parameterisation to use.
    pub graph_learner: GraphLearnerKind,
    /// For A3TGCN: whether temporal attention is active (disabled =
    /// plain-TGCN ablation).
    pub use_attention: bool,
    /// For ASTGCN: whether spatial attention masks the Chebyshev stack
    /// (disabled = plain-ChebNet ablation).
    pub use_spatial_attention: bool,
    /// How sharded cohort runs train each individual: from scratch
    /// (idiographic) or warm-started from K-medoids cluster
    /// checkpoints ([`crate::cluster`]). Only
    /// [`crate::cohort::run_cohort_sharded`] applies the strategy;
    /// direct [`run_individual`] / [`crate::cohort::run_cohort_batch`]
    /// calls always train idiographically.
    pub train_strategy: TrainStrategy,
}

impl RunSpec {
    /// A spec with the paper's defaults for the given model and graph.
    #[must_use]
    pub fn new(model: ModelKind, graph: GraphSpec, seq_len: usize) -> Self {
        Self {
            model,
            graph,
            seq_len,
            train_fraction: 0.7,
            model_config: ModelConfig::default(),
            train_config: TrainConfig::default(),
            learn_graph: true,
            graph_learner: GraphLearnerKind::Embedding,
            use_attention: true,
            use_spatial_attention: true,
            train_strategy: TrainStrategy::default(),
        }
    }
}

/// The result of one (individual, condition) run.
#[derive(Debug, Clone)]
pub struct IndividualOutcome {
    /// Individual id.
    pub id: usize,
    /// Test MSE (Eq. (1) for this individual).
    pub mse: f64,
    /// Per-variable test MSEs.
    pub per_variable_mse: Vec<f64>,
    /// Final training loss.
    pub final_train_loss: f64,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// The static graph used (when any), after sparsification.
    pub graph_used: Option<AdjacencyMatrix>,
    /// MTGNN's learned graph after training, when applicable.
    pub learned_graph: Option<AdjacencyMatrix>,
}

/// Builds the sparsified similarity graph for one individual from the
/// training portion of its data.
#[must_use]
pub fn graph_for_individual(
    train_data: &Tensor,
    metric: GraphMetric,
    gdt: DensityThreshold,
) -> AdjacencyMatrix {
    sparsify(&build_graph(train_data, metric), gdt)
}

/// Runs the full pipeline for one individual: split → graph → windows →
/// train → evaluate — a one-individual shard of
/// [`crate::cohort::run_cohort_batch`].
///
/// # Panics
/// Panics when the series is too short for the requested window length
/// or the spec is inconsistent (graph-free GNN).
#[must_use]
pub fn run_individual(id: usize, data: &Tensor, spec: &RunSpec) -> IndividualOutcome {
    run_one(id, data, spec, None)
}

/// [`run_individual`], fine-tuned from `plan`'s cluster checkpoints
/// when one is given.
pub(crate) fn run_one(
    id: usize,
    data: &Tensor,
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
) -> IndividualOutcome {
    let _individual_span = span!(
        "individual",
        individual = id,
        model = spec.model.label(),
        graph = spec.graph.label(),
        seq_len = spec.seq_len
    );
    run_cohort_batch_planned(&[(id, data)], spec, plan)
        .pop()
        .expect("one outcome per individual")
}

/// Runs a condition across a whole cohort on the environment-configured
/// executor (`--threads` / `EMA_THREADS`, default = available
/// parallelism). Results are returned in individual order and are
/// byte-identical at every thread count.
#[must_use]
pub fn run_cohort(dataset: &EmaDataset, spec: &RunSpec) -> Vec<IndividualOutcome> {
    run_cohort_with(dataset, spec, &Executor::from_env())
}

/// [`run_cohort`] on an explicit executor (tests pin thread counts;
/// binaries pass the CLI-configured one).
///
/// Each individual becomes one [`Job`] — split → graph construction →
/// windows → train → evaluate, all hoisted into the job body — so the
/// executor is free to schedule the cohort however its backend likes.
///
/// # Panics
/// Propagates the first individual's panic (with its job label) after
/// the whole queue has drained.
#[must_use]
pub fn run_cohort_with(
    dataset: &EmaDataset,
    spec: &RunSpec,
    executor: &Executor,
) -> Vec<IndividualOutcome> {
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
                run_individual(ind.id, &ind.data, spec)
            })
        })
        .collect();
    expect_all(executor.run(jobs), "cohort")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_data::{EmaGenerator, GeneratorConfig};

    fn quick_spec(model: ModelKind, graph: GraphSpec) -> RunSpec {
        RunSpec {
            model_config: ModelConfig::tiny(0),
            train_config: TrainConfig::quick(15, 3),
            ..RunSpec::new(model, graph, 2)
        }
    }

    fn dataset() -> EmaDataset {
        EmaGenerator::new(GeneratorConfig::quick(3, 6, 11)).generate()
    }

    #[test]
    fn lstm_individual_run() {
        let ds = dataset();
        let spec = quick_spec(ModelKind::Lstm, GraphSpec::None);
        let out = run_individual(0, &ds.individuals[0].data, &spec);
        assert!(out.mse.is_finite() && out.mse > 0.0);
        assert_eq!(out.per_variable_mse.len(), 6);
        assert!(out.graph_used.is_none());
        assert!(out.learned_graph.is_none());
    }

    #[test]
    fn gnn_individual_run_builds_graph() {
        let ds = dataset();
        let spec = quick_spec(
            ModelKind::A3tgcn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt40,
            },
        );
        let out = run_individual(0, &ds.individuals[0].data, &spec);
        let g = out.graph_used.unwrap();
        assert_eq!(g.num_nodes(), 6);
        // GDT 40% of 30 possible edges = 12.
        assert!(g.num_edges() <= 12);
    }

    #[test]
    fn mtgnn_run_exposes_learned_graph() {
        let ds = dataset();
        let spec = quick_spec(
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: GraphMetric::Euclidean,
                gdt: DensityThreshold::Gdt20,
            },
        );
        let out = run_individual(0, &ds.individuals[0].data, &spec);
        let learned = out.learned_graph.expect("MTGNN yields a learned graph");
        assert_eq!(learned.num_nodes(), 6);
        assert!(learned.num_edges() > 0);
    }

    #[test]
    fn cohort_runs_all_individuals_in_order() {
        let ds = dataset();
        let spec = quick_spec(ModelKind::Lstm, GraphSpec::None);
        let outcomes = run_cohort(&ds, &spec);
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.id, ds.individuals[i].id);
            assert!(o.mse.is_finite());
        }
    }

    #[test]
    fn cohort_is_deterministic() {
        let ds = dataset();
        let spec = quick_spec(ModelKind::Lstm, GraphSpec::None);
        let a: Vec<f64> = run_cohort(&ds, &spec).iter().map(|o| o.mse).collect();
        let b: Vec<f64> = run_cohort(&ds, &spec).iter().map(|o| o.mse).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn cohort_results_identical_across_backends() {
        let ds = dataset();
        let spec = quick_spec(ModelKind::Lstm, GraphSpec::None);
        let mse = |executor: &Executor| -> Vec<f64> {
            run_cohort_with(&ds, &spec, executor).iter().map(|o| o.mse).collect()
        };
        let sequential = mse(&Executor::sequential());
        assert_eq!(sequential, mse(&Executor::with_threads(2)));
        assert_eq!(sequential, mse(&Executor::with_threads(7)));
    }

    #[test]
    fn provided_graph_is_used_verbatim() {
        let ds = dataset();
        let g = AdjacencyMatrix::complete(6);
        let spec = quick_spec(ModelKind::A3tgcn, GraphSpec::Provided(g.clone()));
        let out = run_individual(0, &ds.individuals[0].data, &spec);
        assert_eq!(
            out.graph_used.unwrap().weights().data(),
            g.weights().data()
        );
    }
}
