//! End-to-end determinism guard: the entire pipeline — synthetic data,
//! graph construction, training, evaluation, result aggregation and the
//! in-house JSON writer — must produce *byte-identical* artifacts when
//! re-run with the same seeds. This is the contract every experiment
//! record in `results/` relies on.

use ema_autodiff::Tape;
use ema_core::checkpoint::Checkpoint;
use ema_core::experiments::ExperimentScale;
use ema_core::pipeline::{run_cohort_with, GraphSpec};
use ema_core::results::{CellStat, ResultTable};
use ema_core::{graph_for_individual, ClusterPlan, Executor, IndividualOutcome, RunSpec};
use ema_core::{KernelBackend, TrainConfig, EARLY_STOP_PATIENCE};
use ema_data::{make_test_windows, make_windows, split_train_test, EmaDataset, WindowedData};
use ema_graph::sparsify::DensityThreshold;
use ema_models::{
    A3tgcn, Astgcn, Forecaster, ForwardCtx, LstmForecaster, ModelKind, Mtgnn, VarForecaster,
};
use ema_nn::Adam;
use ema_similarity::GraphMetric;
use ema_tensor::{Rng64, Tensor};
use std::sync::Mutex;

/// Serialises the tests that flip the process-global obs mode; without
/// it they would race through `set_mode` and `begin_run_in`.
static OBS_MODE_LOCK: Mutex<()> = Mutex::new(());

/// The per-window reference pipeline for one individual, independent of
/// the production training loop and grouped forward: split → graph →
/// model → full-batch Adam where every epoch forwards each window
/// through `predict_window` on one tape and stacks the predictions →
/// per-window eval predictions. Under a cluster plan the individual
/// fine-tunes from its cluster's checkpoint instead.
fn per_window_oracle(
    id: usize,
    data: &Tensor,
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
) -> IndividualOutcome {
    let _kernel = spec.train_config.kernel_backend.scoped();
    let (train, test) = split_train_test(data, spec.train_fraction);
    let graph = match &spec.graph {
        GraphSpec::None => None,
        GraphSpec::Static { metric, gdt } => Some(graph_for_individual(&train, *metric, *gdt)),
        GraphSpec::Provided(g) => Some(g.clone()),
    };
    let (v, s, cfg) = (data.dims()[1], spec.seq_len, &spec.model_config);
    let mut model: Box<dyn Forecaster> = match spec.model {
        ModelKind::Lstm => Box::new(LstmForecaster::new(v, cfg)),
        ModelKind::A3tgcn => {
            Box::new(A3tgcn::with_options(v, graph.as_ref().unwrap(), cfg, spec.use_attention))
        }
        ModelKind::Astgcn => Box::new(Astgcn::with_options(
            v,
            s,
            graph.as_ref().unwrap(),
            cfg,
            spec.use_spatial_attention,
        )),
        ModelKind::Mtgnn => Box::new(Mtgnn::with_learner(
            v,
            s,
            graph.as_ref(),
            cfg,
            spec.learn_graph,
            spec.graph_learner,
        )),
        ModelKind::Var => Box::new(VarForecaster::new(v, s, cfg)),
    };
    let mut config = spec.train_config.clone();
    config.seed = ema_tensor::derive_stream_seed(spec.train_config.seed, id as u64);
    if let Some(plan) = plan {
        config.epochs = plan.fine_tune_epochs;
        config.warm_start = Some(plan.checkpoint(plan.assign(&train)));
    }
    let losses = per_window_train(&mut *model, &make_windows(&train, s), &config);

    let test_windows = make_test_windows(&train, &test, s);
    let mut eval_rng = Rng64::seed_from(0);
    let preds: Vec<Tensor> =
        test_windows.inputs.iter().map(|w| model.predict(w, &mut eval_rng)).collect();
    let preds = Tensor::stack_rows(&preds);
    let targets = test_windows.targets_matrix();
    let (n, vars) = (preds.dims()[0], preds.dims()[1]);
    let per_variable_mse = (0..vars)
        .map(|j| {
            let mut acc = 0.0;
            for i in 0..n {
                let d = preds.at2(i, j) - targets.at2(i, j);
                acc += d * d;
            }
            acc / n as f64
        })
        .collect();
    IndividualOutcome {
        id,
        mse: preds.mse(&targets),
        per_variable_mse,
        final_train_loss: losses.last().copied().unwrap_or(0.0),
        epochs_run: losses.len(),
        graph_used: graph,
        learned_graph: None,
    }
}

/// Full-batch Adam through the per-window graph, with the same warm
/// start, early-stopping rule and RNG stream as the production loop;
/// returns the per-epoch training losses.
fn per_window_train(
    model: &mut dyn Forecaster,
    windows: &WindowedData,
    config: &TrainConfig,
) -> Vec<f64> {
    if let Some(ckpt) = &config.warm_start {
        ckpt.restore(model.params_mut()).unwrap();
    }
    let mut adam = Adam::new(config.learning_rate);
    let mut rng = Rng64::seed_from(config.seed);
    let targets = windows.targets_matrix();
    let (mut losses, mut best, mut since_best) = (Vec::new(), f64::INFINITY, 0usize);
    for _ in 0..config.epochs {
        let tape = Tape::new();
        let tgt = tape.leaf(targets.clone());
        let binding = model.params().bind(&tape);
        let mut ctx = ForwardCtx::train(&mut rng);
        let preds: Vec<_> = windows
            .inputs
            .iter()
            .map(|w| model.predict_window(&tape, &binding, w, &mut ctx))
            .collect();
        let loss = tape.mse(tape.stack_rows(&preds), tgt);
        let loss_value = tape.value(loss).data()[0];
        losses.push(loss_value);
        adam.step(model.params_mut(), &binding, &tape.backward(loss));
        if config.early_stop_rel > 0.0 {
            if loss_value < best * (1.0 - config.early_stop_rel) {
                best = loss_value;
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= EARLY_STOP_PATIENCE {
                    break;
                }
            }
        }
    }
    losses
}

/// A seconds-scale slice of the Table II pipeline: one LSTM row and one
/// graph-model row over a tiny cohort.
fn tiny_results_json() -> String {
    tiny_results_json_with(&Executor::from_env())
}

/// [`tiny_results_json`] on an explicit executor, so tests can pin the
/// thread count.
fn tiny_results_json_with(executor: &Executor) -> String {
    tiny_results_json_kernel(executor, KernelBackend::default())
}

/// [`tiny_results_json_with`] with an explicit matmul kernel backend.
/// Pinning the backend in the spec makes the probe independent of the
/// `EMA_KERNEL` environment the test process runs under.
fn tiny_results_json_kernel(executor: &Executor, kernel_backend: KernelBackend) -> String {
    tiny_results_json_from(kernel_backend, &|dataset, spec| {
        run_cohort_with(dataset, spec, executor).iter().map(|o| o.mse).collect()
    })
}

/// The tiny results table, with each condition's per-individual test
/// MSEs computed by `run`.
fn tiny_results_json_from(
    kernel_backend: KernelBackend,
    run: &dyn Fn(&EmaDataset, &RunSpec) -> Vec<f64>,
) -> String {
    let mut scale = ExperimentScale::tiny();
    scale.num_individuals = 2;
    scale.epochs = 3;
    let dataset = scale.dataset();

    let mut table = ResultTable::new("determinism probe", vec!["Seq2".to_string()]);
    for (label, model, graph) in [
        ("Baseline LSTM", ModelKind::Lstm, GraphSpec::None),
        (
            "MTGNN_CORR",
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt20,
            },
        ),
    ] {
        let mut spec = scale.spec(model, graph, 2);
        spec.train_config.kernel_backend = kernel_backend;
        let mses = run(&dataset, &spec);
        table.push_row(label, vec![CellStat::from_samples(&mses)]);
    }
    table.to_json()
}

#[test]
fn same_seed_pipeline_runs_emit_byte_identical_json() {
    let first = tiny_results_json();
    let second = tiny_results_json();
    assert!(
        first == second,
        "same-seed pipeline runs diverged:\n--- first ---\n{first}\n--- second ---\n{second}"
    );
    // The record must also survive a parse round trip bit-exactly.
    let parsed = ResultTable::from_json(&first).unwrap();
    assert_eq!(parsed.to_json(), first);
}

/// The production forward (one grouped tape graph per epoch) must emit
/// results JSON byte-identical to the per-window oracle
/// (`predict_window` per window, a test-local training loop), at both
/// thread counts — dropout masks are drawn window-major so the RNG
/// stream, and hence every byte, matches.
#[test]
fn batched_and_per_window_paths_emit_identical_results_json() {
    let oracle = tiny_results_json_from(KernelBackend::default(), &|dataset, spec| {
        dataset
            .individuals
            .iter()
            .map(|ind| per_window_oracle(ind.id, &ind.data, spec, None).mse)
            .collect()
    });
    for threads in [1, 4] {
        let production = tiny_results_json_with(&Executor::with_threads(threads));
        assert!(
            production == oracle,
            "threads={threads}: production vs per-window oracle diverged:\n--- production ---\n{production}\n--- oracle ---\n{oracle}"
        );
    }
}

/// The cohort executor's headline guarantee: results JSON is
/// byte-identical at every thread count, because each individual's
/// random streams are derived from `(run seed, id)` rather than from
/// sequential draw order.
#[test]
fn thread_count_never_changes_results_json() {
    let sequential = tiny_results_json_with(&Executor::sequential());
    let pooled = tiny_results_json_with(&Executor::with_threads(4));
    assert!(
        sequential == pooled,
        "threads=1 vs threads=4 diverged:\n--- threads=1 ---\n{sequential}\n--- threads=4 ---\n{pooled}"
    );
}

/// The same invariance with full telemetry streaming: worker-tagged,
/// per-worker-buffered obs events must not leak into the results, and
/// the JSONL manifest written by a 4-thread run stays parseable with
/// every job's span tree tagged by its worker.
#[test]
fn thread_count_invariance_holds_under_full_obs() {
    use ema_core::Json;
    use ema_obs::{recorder, set_mode, ObsMode};
    use std::path::Path;

    let _guard = OBS_MODE_LOCK.lock().unwrap();
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("target/obs-threads-test");
    let _ = std::fs::remove_dir_all(&scratch);

    set_mode(ObsMode::Full);
    assert!(recorder().begin_run_in("det_threads", Json::Null, &scratch));
    let sequential = tiny_results_json_with(&Executor::sequential());
    let pooled = tiny_results_json_with(&Executor::with_threads(4));
    let summary = recorder().finish_run().expect("summary written");
    set_mode(ObsMode::from_env());

    assert!(
        sequential == pooled,
        "EMA_OBS=full: threads=1 vs threads=4 diverged:\n--- threads=1 ---\n{sequential}\n--- threads=4 ---\n{pooled}"
    );
    assert!(summary.exists());

    // Every line of the multi-threaded manifest parses, and the pooled
    // cohort's job spans carry the worker tag.
    let text = std::fs::read_to_string(scratch.join("det_threads.jsonl"))
        .expect("full mode streams JSONL");
    let mut worker_tagged = 0;
    for line in text.lines() {
        let event = Json::parse(line).expect("every JSONL line parses");
        if event.get("worker").is_some() {
            worker_tagged += 1;
        }
    }
    assert!(
        worker_tagged > 0,
        "multi-threaded runs must emit worker-tagged events"
    );
}

/// Obs is observation only: switching `EMA_OBS` between `off` and
/// `full` must leave the experiment record byte-identical, and `off`
/// must never touch the filesystem.
#[test]
fn obs_modes_never_perturb_results_and_off_writes_nothing() {
    use ema_core::Json;
    use ema_obs::{recorder, set_mode, ObsMode};
    use std::path::Path;

    let _guard = OBS_MODE_LOCK.lock().unwrap();
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("target/obs-det-test");
    let _ = std::fs::remove_dir_all(&scratch);

    // Off: runs cannot start and no files appear.
    set_mode(ObsMode::Off);
    let off_json = tiny_results_json();
    assert!(
        !recorder().begin_run_in("det_off", Json::Null, &scratch),
        "off mode must refuse to start a run"
    );
    assert!(!scratch.exists(), "off mode must not create obs files");

    // Full: stream everything; the results must not change by a byte.
    set_mode(ObsMode::Full);
    assert!(recorder().begin_run_in("det_full", Json::Null, &scratch));
    let full_json = tiny_results_json();
    let summary = recorder().finish_run().expect("summary written");
    set_mode(ObsMode::from_env());

    assert!(
        off_json == full_json,
        "obs mode changed the experiment output:\n--- off ---\n{off_json}\n--- full ---\n{full_json}"
    );

    // The streamed log exists, parses line by line with the in-house
    // JSON parser, and carries the per-epoch training telemetry.
    let log = scratch.join("det_full.jsonl");
    let text = std::fs::read_to_string(&log).expect("full mode streams JSONL");
    let mut train_epochs = 0;
    for line in text.lines() {
        let event = Json::parse(line).expect("every JSONL line parses");
        if event.get("name").and_then(Json::as_str) == Some("train_epoch") {
            train_epochs += 1;
        }
    }
    assert!(train_epochs > 0, "full-mode log must record train_epoch events");
    assert!(summary.exists(), "run summary JSON must exist");

    // The new profiling layer fills every section of the manifest: an
    // aggregated span profile, kernel FLOP/byte counters from the
    // matmul funnel, and executor utilization counters.
    let summary_json = Json::parse(&std::fs::read_to_string(&summary).unwrap()).unwrap();
    let profile = summary_json.require("profile").expect("summary carries a profile section");
    assert!(
        matches!(profile, Json::Arr(roots) if !roots.is_empty()),
        "full-mode profile must aggregate at least one span tree"
    );
    let counters = summary_json
        .require("metrics")
        .and_then(|m| m.require("counters"))
        .expect("summary carries metrics counters");
    let counter_keys: Vec<&str> = match counters {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("counters must be an object, got {}", other.compact()),
    };
    assert!(
        counter_keys.iter().any(|k| k.starts_with("kernel.") && k.ends_with(".calls")),
        "training under full obs must record kernel call counters, got {counter_keys:?}"
    );
    assert!(
        counter_keys.iter().any(|k| k.starts_with("kernel.") && k.ends_with(".flops")),
        "training under full obs must record kernel FLOP counters, got {counter_keys:?}"
    );
    assert!(
        counter_keys.iter().any(|k| k.starts_with("exec.worker_jobs.")),
        "cohort runs must publish per-worker job counters, got {counter_keys:?}"
    );
    // The folded-stacks twin of the profile is flamegraph food: every
    // line is `root;child;... self_ns`.
    let folded = std::fs::read_to_string(scratch.join("det_full.folded"))
        .expect("non-empty profiles write a .folded file");
    assert!(!folded.trim().is_empty());
    for line in folded.lines() {
        let (path, self_ns) = line.rsplit_once(' ').expect("folded line has `path ns`");
        assert!(!path.is_empty());
        self_ns.parse::<u64>().expect("folded self time is integral ns");
    }
}

/// Warm-pool invariance: running the same cohort twice in one process
/// (so the second run draws recycled, stale-content buffers from the
/// tensor pool — handed across runs by the executor's shelf) and at
/// different thread counts must still emit byte-identical JSON. A
/// kernel that reads a pooled buffer before overwriting it fails here.
#[test]
fn warm_buffer_pool_never_changes_results_json() {
    let cold = tiny_results_json_with(&Executor::with_threads(4));
    let warm = tiny_results_json_with(&Executor::with_threads(4));
    assert!(
        cold == warm,
        "cold-pool vs warm-pool runs diverged:\n--- cold ---\n{cold}\n--- warm ---\n{warm}"
    );
    let sequential_warm = tiny_results_json_with(&Executor::sequential());
    assert!(
        warm == sequential_warm,
        "warm pool: threads=4 vs threads=1 diverged:\n--- threads=4 ---\n{warm}\n--- threads=1 ---\n{sequential_warm}"
    );
}

/// The SIMD backend upholds the executor's headline guarantee exactly
/// like the scalar oracle: full results JSON byte-identical at
/// threads=1 vs threads=4 (kernel dispatch is per-thread state, and
/// every random stream is derived from `(run seed, id)`).
#[test]
fn simd_backend_results_json_identical_across_thread_counts() {
    let sequential = tiny_results_json_kernel(&Executor::sequential(), KernelBackend::Simd);
    let pooled = tiny_results_json_kernel(&Executor::with_threads(4), KernelBackend::Simd);
    assert!(
        sequential == pooled,
        "EMA_KERNEL=simd: threads=1 vs threads=4 diverged:\n--- threads=1 ---\n{sequential}\n--- threads=4 ---\n{pooled}"
    );
}

/// The scalar oracle is frozen: its results JSON must match the
/// committed same-seed baseline byte for byte, so any accidental
/// rewrite of the reference kernel (or of anything upstream of it —
/// data generation, graph build, training, aggregation, the JSON
/// writer) is caught even when both backends drift together. Regenerate
/// deliberately with `EMA_WRITE_BASELINE=1 cargo test -q --test
/// determinism scalar_backend` after an *intentional* numeric change.
#[test]
fn scalar_backend_results_match_committed_baseline() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("tests/fixtures/scalar_baseline.json");
    let current = tiny_results_json_kernel(&Executor::with_threads(4), KernelBackend::Scalar);
    if std::env::var_os("EMA_WRITE_BASELINE").is_some() {
        std::fs::write(&fixture, &current).expect("write scalar baseline fixture");
        return;
    }
    let committed = std::fs::read_to_string(&fixture)
        .expect("committed scalar baseline missing; regenerate with EMA_WRITE_BASELINE=1");
    assert!(
        current == committed,
        "scalar-backend results diverged from the committed baseline:\n--- committed ---\n{committed}\n--- current ---\n{current}"
    );
}

/// The streamed study and spec of the sharded grids.
fn sharded_setup(
    model: ModelKind,
    graph: GraphSpec,
    strategy: ema_core::TrainStrategy,
) -> (ema_data::EmaGenerator, RunSpec) {
    use ema_data::{EmaGenerator, GeneratorConfig};
    use ema_models::ModelConfig;

    let generator = EmaGenerator::new(GeneratorConfig::quick(4, 4, 41));
    let mut spec = RunSpec::new(model, graph, 2);
    spec.model_config = ModelConfig::tiny(0);
    spec.train_config = TrainConfig::quick(3, 7);
    spec.train_strategy = strategy;
    (generator, spec)
}

/// A per-individual record of a streamed sharded cohort run; sharding
/// must be invisible in it byte for byte.
fn outcomes_json(outcomes: &[IndividualOutcome]) -> String {
    use ema_core::Json;

    Json::Arr(
        outcomes
            .iter()
            .map(|o| {
                Json::obj(vec![
                    ("id", Json::Num(o.id as f64)),
                    ("mse", Json::Num(o.mse)),
                    (
                        "per_variable_mse",
                        Json::Arr(o.per_variable_mse.iter().map(|&m| Json::Num(m)).collect()),
                    ),
                    ("final_train_loss", Json::Num(o.final_train_loss)),
                    ("epochs_run", Json::Num(o.epochs_run as f64)),
                ])
            })
            .collect(),
    )
    .compact()
}

/// [`outcomes_json`] of `run_cohort_sharded` at the given thread count
/// and shard size.
fn cohort_sharded_results_json(
    threads: usize,
    shard_size: usize,
    model: ModelKind,
    graph: GraphSpec,
    strategy: ema_core::TrainStrategy,
) -> String {
    let (generator, spec) = sharded_setup(model, graph, strategy);
    let executor = Executor::with_threads(threads);
    outcomes_json(&ema_core::run_cohort_sharded(&generator, &spec, shard_size, &executor))
}

/// [`outcomes_json`] of the per-window oracle on every individual of
/// the same study (under a warm-start strategy, fine-tuned from the
/// same cluster plan).
fn cohort_oracle_results_json(
    model: ModelKind,
    graph: GraphSpec,
    strategy: ema_core::TrainStrategy,
) -> String {
    let (generator, spec) = sharded_setup(model, graph, strategy);
    let plan = match strategy {
        ema_core::TrainStrategy::Idiographic => None,
        ema_core::TrainStrategy::ClusterWarmStart { .. } => {
            Some(ema_core::plan_clusters(&generator, &spec))
        }
    };
    let outcomes: Vec<IndividualOutcome> = generator
        .generate()
        .individuals
        .iter()
        .map(|ind| per_window_oracle(ind.id, &ind.data, &spec, plan.as_ref()))
        .collect();
    outcomes_json(&outcomes)
}

/// Runs the sharded grid for one condition: results byte-identical at
/// every `(thread count, shard size)` pair and to the per-window
/// oracle.
fn assert_sharded_grid(
    label: &str,
    model: ModelKind,
    graph: GraphSpec,
    strategy: ema_core::TrainStrategy,
    grid: &[(usize, usize)],
) {
    let run = |threads, shard| {
        cohort_sharded_results_json(threads, shard, model, graph.clone(), strategy)
    };
    let baseline = run(1, 1);
    for &(threads, shard) in grid {
        let probe = run(threads, shard);
        assert!(
            baseline == probe,
            "{label}: threads={threads}, shard={shard} diverged from threads=1, shard=1:\n--- baseline ---\n{baseline}\n--- probe ---\n{probe}"
        );
    }
    let oracle = cohort_oracle_results_json(model, graph, strategy);
    assert!(
        baseline == oracle,
        "{label}: cohort path diverged from the per-window oracle:\n--- cohort ---\n{baseline}\n--- oracle ---\n{oracle}"
    );
}

/// The streaming sharded cohort path's headline guarantee: results are
/// byte-identical at every `(thread count, shard size)` pair — shard
/// boundaries never change numbers because every per-individual stream
/// is derived from `(run seed, id)` — and match the per-window oracle
/// byte for byte. Covers the LSTM and the VAR baseline.
#[test]
fn cohort_sharded_results_identical_across_threads_shards_and_paths() {
    use ema_core::TrainStrategy;

    // (4, 2) is the CI smoke shape: 2 shards × 2 individuals on a
    // 4-worker executor.
    for (label, model) in [("LSTM", ModelKind::Lstm), ("VAR", ModelKind::Var)] {
        assert_sharded_grid(
            label,
            model,
            GraphSpec::None,
            TrainStrategy::Idiographic,
            &[(4, 4), (4, 2), (4, 1)],
        );
    }
}

/// Same grid for a graph model: the grouped graph-conv/attention tape
/// ops must keep sharding invisible and match the per-window oracle
/// byte for byte, with each individual's training-split graph built on
/// whichever worker generates its shard.
#[test]
fn cohort_sharded_graph_model_identical_across_threads_shards_and_paths() {
    assert_sharded_grid(
        "A3TGCN",
        ModelKind::A3tgcn,
        GraphSpec::Static {
            metric: ema_similarity::GraphMetric::Correlation,
            gdt: ema_graph::sparsify::DensityThreshold::Gdt40,
        },
        ema_core::TrainStrategy::Idiographic,
        &[(4, 4), (4, 2), (4, 1)],
    );
}

/// The cluster-warm-start strategy keeps the same guarantee: the plan
/// (representatives, K-medoids, cluster checkpoints) is built once on
/// the caller thread, and warm-started fine-tunes derive their streams
/// from `(run seed, id)` exactly as idiographic runs do — so results
/// are byte-identical at every `(thread count, shard size)` pair and
/// the warm path matches per-window fine-tunes from the same plan.
#[test]
fn cohort_sharded_warm_start_identical_across_threads_shards_and_paths() {
    assert_sharded_grid(
        "LSTM warm start",
        ModelKind::Lstm,
        GraphSpec::None,
        ema_core::TrainStrategy::ClusterWarmStart {
            k: 2,
            cluster_epochs: 3,
            fine_tune_epochs: 2,
        },
        &[(4, 4), (4, 1)],
    );
}

#[test]
fn same_seed_training_yields_byte_identical_checkpoints() {
    use ema_models::{build_model, ModelConfig};

    let capture = || {
        let mut rng = Rng64::seed_from(77);
        let model = build_model(ModelKind::Lstm, 4, 2, &ModelConfig::tiny(9), None);
        // Touch the RNG the way a training loop would, then snapshot.
        let _ = model.predict(&Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut rng), &mut rng);
        Checkpoint::capture(model.params()).to_json()
    };
    assert_eq!(capture(), capture());
}
