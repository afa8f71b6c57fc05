//! The benchmark's own layer timers and executor job log, used by the
//! traced run only. Nothing here reaches inside the program: every
//! timer wraps one call the benchmark makes into a module's public
//! functions, and every job record comes from the benchmark's own
//! `Job` closures.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers the traced run times, named after the modules they call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `EmaGenerator::generate_range`.
    DataGenerate,
    /// `split_train_test`, `make_windows`, `make_test_windows`.
    DataWindow,
    /// `ema_similarity::build_graph`.
    BuildGraph,
    /// `ema_graph::sparsify::sparsify`.
    Sparsify,
    /// The model constructors.
    ModelsBuild,
    /// `train_model` / `train_cohort`.
    Train,
    /// `evaluate_mse` + `evaluate_per_variable_mse`.
    Evaluate,
    /// `plan_clusters`, on the calling thread before any job runs.
    ClusterPlan,
    /// `ClusterPlan::assign`.
    ClusterAssign,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::DataGenerate,
        Layer::DataWindow,
        Layer::BuildGraph,
        Layer::Sparsify,
        Layer::ModelsBuild,
        Layer::Train,
        Layer::Evaluate,
        Layer::ClusterPlan,
        Layer::ClusterAssign,
    ];

    /// The per-layer metric prefix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::DataGenerate => "data.generate",
            Layer::DataWindow => "data.window",
            Layer::BuildGraph => "similarity.build_graph",
            Layer::Sparsify => "graph.sparsify",
            Layer::ModelsBuild => "models.build",
            Layer::Train => "core.train",
            Layer::Evaluate => "core.evaluate",
            Layer::ClusterPlan => "core.cluster.plan",
            Layer::ClusterAssign => "core.cluster.assign",
        }
    }

    /// True for layers that run inside executor jobs, whose time is
    /// part of job busy time (the plan runs before the jobs).
    #[must_use]
    pub fn in_jobs(self) -> bool {
        self != Layer::ClusterPlan
    }
}

/// One executor job as its closure saw it.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Which thread ran it (ids are handed out on first use).
    pub thread: usize,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl JobRecord {
    /// The job's wall time.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One pipeline call (one `run_cohort_with` or `run_cohort_sharded`
/// equivalent): its wall time and the jobs it ran.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Wall time of the whole call, cluster plan included.
    pub wall_ns: u64,
    /// The executor's worker count.
    pub threads: usize,
    /// The call's jobs.
    pub jobs: Vec<JobRecord>,
}

impl CallRecord {
    /// Time from when the first worker went idle until the last job
    /// ended. A worker that got no job is idle from the first job's
    /// start.
    #[must_use]
    pub fn tail_ns(&self) -> u64 {
        let Some(last_end) = self.jobs.iter().map(|j| j.end_ns).max() else {
            return 0;
        };
        let first_start = self
            .jobs
            .iter()
            .map(|j| j.start_ns)
            .min()
            .unwrap_or(last_end);
        let mut threads: Vec<usize> = self.jobs.iter().map(|j| j.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        let workers = self.threads.min(self.jobs.len());
        let first_idle = if threads.len() < workers {
            first_start
        } else {
            threads
                .iter()
                .map(|&t| {
                    self.jobs
                        .iter()
                        .filter(|j| j.thread == t)
                        .map(|j| j.end_ns)
                        .max()
                        .unwrap_or(0)
                })
                .min()
                .unwrap_or(last_end)
        };
        last_end - first_idle
    }
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Accumulated layer times, exact counts and job records of one traced
/// section.
pub struct Tracer {
    origin: Instant,
    ns: [AtomicU64; Layer::ALL.len()],
    calls: [AtomicU64; Layer::ALL.len()],
    epochs: AtomicU64,
    current: Mutex<Vec<JobRecord>>,
    finished: Mutex<Vec<CallRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            epochs: AtomicU64::new(0),
            current: Mutex::new(Vec::new()),
            finished: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f`, charging its wall time and one call to `layer`.
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let i = layer as usize;
        self.ns[i].fetch_add(ns, Ordering::Relaxed);
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Adds trained individual-epochs.
    pub fn add_epochs(&self, epochs: usize) {
        self.epochs.fetch_add(epochs as u64, Ordering::Relaxed);
    }

    /// Runs one job body, logging its thread and span. A panicking job
    /// is still logged (the record is written on unwind).
    pub fn job<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Log<'a> {
            tracer: &'a Tracer,
            start_ns: u64,
        }
        impl Drop for Log<'_> {
            fn drop(&mut self) {
                let record = JobRecord {
                    thread: THREAD.with(|t| *t),
                    start_ns: self.start_ns,
                    end_ns: self.tracer.now_ns(),
                };
                // A poisoned log only means another job panicked while
                // pushing; the records themselves stay valid.
                self.tracer
                    .current
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(record);
            }
        }
        let _log = Log {
            tracer: self,
            start_ns: self.now_ns(),
        };
        f()
    }

    /// Runs one pipeline call on an executor of `threads` workers and
    /// files the jobs it logged under it.
    pub fn call<R>(&self, threads: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let jobs = std::mem::take(
            &mut *self
                .current
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        self.finished
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(CallRecord {
                wall_ns,
                threads,
                jobs,
            });
        out
    }

    /// Total nanoseconds charged to `layer`.
    #[must_use]
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize].load(Ordering::Relaxed)
    }

    /// Calls charged to `layer`.
    #[must_use]
    pub fn layer_calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize].load(Ordering::Relaxed)
    }

    /// Trained individual-epochs.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Every finished pipeline call.
    #[must_use]
    pub fn calls(&self) -> Vec<CallRecord> {
        self.finished
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}
