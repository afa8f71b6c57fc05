//! End-to-end benchmark of the ema-gnn pipeline.
//!
//! One run sets a workload up, runs whole passes of it (each after
//! fresh set-ups) until the time budget is spent, and checks its
//! outputs. With tracing off it reports the end-to-end metrics;
//! with tracing on it runs an untraced section and then a traced
//! section of equal length, and reports the per-layer metrics. Every
//! pipeline call is timed beside the host-speed reference run just
//! before it, and times are reported at a nominal host speed (see
//! [`reference`]). See `METRICS.md` for what each workload and metric
//! is for.

pub mod alloc;
pub mod reference;
pub mod tracer;
pub mod workloads;

use ema_core::IndividualOutcome;
use ema_obs::{Json, ObsMode};
use std::fmt::Write as _;
use std::time::Instant;
use tracer::{Layer, Tracer};
use workloads::{prepare, ConditionResult, Inputs, Size, Workload};

/// The seed whose outcome digests `digests.json` records.
pub const DEFAULT_SEED: u64 = 2024;

/// How many times the set-up runs before each untraced pass; `setup_s`
/// is the median over the whole run.
const SETUP_REPEATS: usize = 5;

/// Outcome digests at [`DEFAULT_SEED`] and [`Size::BENCH`], per
/// workload and kernel backend.
const DIGESTS: &str = include_str!("../digests.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        better,
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed for the study's data.
    pub seed: u64,
    /// Seconds of timed passes (at least one pass runs per section).
    pub seconds: f64,
    /// Report per-layer metrics from a traced section.
    pub trace: bool,
    /// Individuals per pass.
    pub size: Size,
    /// Executor worker count.
    pub threads: usize,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Report {
    /// True when every output check passed.
    pub correct: bool,
    /// Each failed check, in words.
    pub problems: Vec<String>,
    /// Individual fits attempted.
    pub attempted: u64,
    /// Fits that panicked or gave a non-finite test MSE.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of one pass's outcomes.
    pub digest: String,
    /// The active kernel backend's label.
    pub backend: &'static str,
    /// Human-readable summary.
    pub text: String,
}

impl Report {
    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", self.metrics_json()),
        ])
        .compact()
    }

    /// `{name: {"value", "unit"}}` for every metric; a non-finite value
    /// is written as `null`.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let value = if m.value.is_finite() {
                        Json::Num(m.value)
                    } else {
                        Json::Null
                    };
                    (
                        m.name.clone(),
                        Json::obj(vec![("value", value), ("unit", Json::from(m.unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// The bit pattern of one fit's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FitKey {
    id: usize,
    mse: u64,
    per_variable_mse: Vec<u64>,
    final_train_loss: u64,
    epochs_run: usize,
}

impl FitKey {
    fn of(o: &IndividualOutcome) -> Self {
        Self {
            id: o.id,
            mse: o.mse.to_bits(),
            per_variable_mse: o.per_variable_mse.iter().map(|v| v.to_bits()).collect(),
            final_train_loss: o.final_train_loss.to_bits(),
            epochs_run: o.epochs_run,
        }
    }
}

/// One pass's outcomes, per condition (`None` = the call panicked).
type PassKeys = Vec<Option<Vec<FitKey>>>;

/// One timed pipeline call.
#[derive(Debug, Clone, Copy)]
struct Call {
    wall_s: f64,
    /// Process CPU seconds, all threads.
    cpu_s: f64,
    /// The host-speed reference run just before the call.
    reference: reference::Sample,
}

/// One pass, reduced to what the checks and metrics need.
#[derive(Default)]
struct Pass {
    /// Each condition's call, in order.
    calls: Vec<Call>,
    /// Live-heap high-water mark above the live heap at the pass start.
    peak_growth_bytes: u64,
    /// Live heap the pass left behind: at its end, less at its start.
    retained_bytes: i64,
    attempted: u64,
    failed: u64,
    keys: PassKeys,
    mse_sum: f64,
    mse_count: u64,
}

impl Pass {
    fn new(results: &[ConditionResult], individuals: usize) -> Self {
        let mut pass = Pass::default();
        for result in results {
            pass.attempted += individuals as u64;
            match result {
                None => {
                    pass.failed += individuals as u64;
                    pass.keys.push(None);
                }
                Some(outcomes) => {
                    for o in outcomes {
                        if o.mse.is_finite() {
                            pass.mse_sum += o.mse;
                            pass.mse_count += 1;
                        } else {
                            pass.failed += 1;
                        }
                    }
                    pass.keys
                        .push(Some(outcomes.iter().map(FitKey::of).collect()));
                }
            }
        }
        pass
    }
}

/// FNV-1a over every condition's outcome bits.
fn digest(keys: &PassKeys) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (ci, cond) in keys.iter().enumerate() {
        eat(ci as u64);
        match cond {
            None => eat(u64::MAX),
            Some(fits) => {
                for k in fits {
                    eat(k.id as u64);
                    eat(k.mse);
                    k.per_variable_mse.iter().for_each(|&v| eat(v));
                    eat(k.final_train_loss);
                    eat(k.epochs_run as u64);
                }
            }
        }
    }
    format!("{h:016x}")
}

/// CPU time of the whole process (user + system, all threads).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads one of the kernel's CPU-time clocks, in seconds.
#[must_use]
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process CPU time (user + system, all threads), in seconds.
#[must_use]
fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Runs passes until `budget_s` has elapsed (at least one).
fn section(budget_s: f64, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = vec![pass()];
    while start.elapsed().as_secs_f64() < budget_s {
        passes.push(pass());
    }
    passes
}

/// Runs every condition once, timing each call and, just before it,
/// the host-speed reference on `threads` threads.
fn timed_pass(inputs: &Inputs, threads: usize, run: impl Fn(usize) -> ConditionResult) -> Pass {
    alloc::reset_peak();
    let start_live = alloc::live_bytes();
    let mut results = Vec::with_capacity(inputs.conditions.len());
    let mut calls = Vec::with_capacity(inputs.conditions.len());
    for ci in 0..inputs.conditions.len() {
        let reference = reference::run(threads);
        let cpu_start = process_cpu_s();
        let start = Instant::now();
        results.push(run(ci));
        calls.push(Call {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - cpu_start,
            reference,
        });
    }
    let peak = alloc::peak_bytes();
    let mut pass = Pass::new(&results, inputs.individuals());
    drop(results);
    pass.calls = calls;
    pass.peak_growth_bytes = peak.saturating_sub(start_live);
    pass.retained_bytes = alloc::live_bytes() as i64 - start_live as i64;
    pass
}

/// The heap one pass needs on top of what the process already holds:
/// the median peak growth over the passes after the first. The first
/// pass also fills the tensor pools, whose retained buffers depend on
/// which series lengths arrive first, so it only counts when it ran
/// alone.
fn pass_heap_mib(passes: &[Pass]) -> f64 {
    let warm = if passes.len() > 1 {
        &passes[1..]
    } else {
        passes
    };
    median(warm.iter().map(|p| p.peak_growth_bytes as f64).collect()) / MIB
}

/// Sums, over the conditions of a pass, the median over passes of
/// `per_call` for that condition's call.
fn composite(passes: &[Pass], per_call: impl Fn(&Call) -> f64) -> f64 {
    (0..passes[0].calls.len())
        .map(|ci| median(passes.iter().map(|p| per_call(&p.calls[ci])).collect()))
        .sum()
}

/// Wall seconds of the median composite pass, as measured.
fn measured_wall_s(passes: &[Pass]) -> f64 {
    composite(passes, |c| c.wall_s)
}

/// Wall and CPU seconds of the median composite pass at the nominal
/// host speed: each call's time over the time of the reference run
/// just before it, scaled by what the reference takes at that speed.
/// The host's speed drifts over minutes and moves a call and the
/// reference beside it alike, so the ratio holds the program's own
/// speed. Per condition the median ratio over the run is kept.
fn host_scaled(passes: &[Pass], threads: usize) -> (f64, f64) {
    let wall = composite(passes, |c| c.wall_s / c.reference.wall_s) * reference::NOMINAL_THREAD_S;
    let cpu = composite(passes, |c| c.cpu_s / c.reference.thread_cpu_s)
        * threads as f64
        * reference::NOMINAL_THREAD_S;
    (wall, cpu)
}

/// Every reference sample of the passes.
fn references(passes: &[Pass]) -> impl Iterator<Item = reference::Sample> + '_ {
    passes
        .iter()
        .flat_map(|p| p.calls.iter().map(|c| c.reference))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Program counters the traced section reads from the obs recorder.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    matmul_calls: u64,
    matmul_flops: u64,
    matmul_bytes: u64,
    pool_hits: u64,
    pool_misses: u64,
    cache_hits: u64,
}

impl Counters {
    fn read() -> Self {
        ema_obs::drain_kernel_counters();
        let snapshot = ema_obs::recorder().metrics_snapshot();
        let mut c = Counters::default();
        let Some(Json::Obj(counters)) = snapshot.get("counters") else {
            return c;
        };
        for (name, value) in counters {
            let v = value.as_f64().unwrap_or(0.0) as u64;
            if name.starts_with("kernel.") {
                if name.ends_with(".calls") {
                    c.matmul_calls += v;
                } else if name.ends_with(".flops") {
                    c.matmul_flops += v;
                } else if name.ends_with(".bytes") {
                    c.matmul_bytes += v;
                }
            }
            match name.as_str() {
                "pool_hits" => c.pool_hits = v,
                "pool_misses" => c.pool_misses = v,
                "cluster.cache_hits" => c.cache_hits = v,
                _ => {}
            }
        }
        c
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            matmul_calls: self.matmul_calls - before.matmul_calls,
            matmul_flops: self.matmul_flops - before.matmul_flops,
            matmul_bytes: self.matmul_bytes - before.matmul_bytes,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            cache_hits: self.cache_hits - before.cache_hits,
        }
    }
}

/// Runs one workload and checks it. `process_start` is when the
/// process began, so the first set-up includes everything before it.
#[must_use]
pub fn run(opts: &Options, process_start: Instant) -> Report {
    // The program's default telemetry level, pinned so an `EMA_OBS`
    // setting cannot change what is measured; the kernel and pool
    // counters the traced section reads only exist at this level.
    ema_obs::set_mode(ObsMode::Summary);
    let backend = ema_tensor::KernelBackend::active().label();

    // The inputs the checks and the traced section use, timed from
    // process start; each untraced pass then sets up its own inputs,
    // as a user running one table or one stream would.
    let inputs = prepare(opts.workload, opts.seed, opts.size, opts.threads);
    let mut setup = vec![process_start.elapsed().as_secs_f64()];
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = section(budget, || {
        let mut fresh = None;
        for _ in 0..SETUP_REPEATS {
            drop(fresh.take());
            let start = Instant::now();
            fresh = Some(prepare(opts.workload, opts.seed, opts.size, opts.threads));
            setup.push(start.elapsed().as_secs_f64());
        }
        let fresh = fresh.expect("set-up ran");
        timed_pass(&fresh, opts.threads, |ci| fresh.run(ci))
    });
    // Set-up runs on the calling thread between reference runs; it is
    // scaled to the nominal host speed by the run's median reference.
    let reference_wall_s = median(references(&plain).map(|r| r.wall_s).collect());
    let measured_setup_s = median(setup);
    let setup_s = measured_setup_s * reference::NOMINAL_THREAD_S / reference_wall_s;

    let tracer = Tracer::new();
    let mut traced = Vec::new();
    let mut counters = Counters::default();
    let mut allocs = (0, 0);
    if opts.trace {
        let before = Counters::read();
        let alloc_before = alloc::totals();
        traced = section(budget, || {
            timed_pass(&inputs, opts.threads, |ci| inputs.run_traced(ci, &tracer))
        });
        counters = Counters::read().since(before);
        let alloc_after = alloc::totals();
        let (reference_calls, reference_bytes) =
            references(&traced).fold((0, 0), |a, r| (a.0 + r.alloc_calls, a.1 + r.alloc_bytes));
        allocs = (
            alloc_after.calls - alloc_before.calls - reference_calls,
            alloc_after.bytes - alloc_before.bytes - reference_bytes,
        );
    }

    // Output checks.
    let mut problems = Vec::new();
    let first = &plain[0];
    let attempted: u64 = plain.iter().chain(&traced).map(|p| p.attempted).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|p| p.failed).sum();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} fits panicked or gave a non-finite MSE"
        ));
    }
    for (i, p) in plain.iter().enumerate().skip(1) {
        if p.keys != first.keys {
            problems.push(format!(
                "untraced pass {} outcomes differ from pass 1",
                i + 1
            ));
        }
    }
    for (i, p) in traced.iter().enumerate() {
        if p.keys != first.keys {
            problems.push(format!(
                "traced pass {} outcomes differ from the untraced pass",
                i + 1
            ));
        }
    }
    for (ci, oracle) in inputs.oracle_sample() {
        let want = FitKey::of(&oracle);
        let got = first.keys[ci]
            .as_ref()
            .and_then(|fits| fits.iter().find(|k| k.id == oracle.id));
        if got != Some(&want) {
            problems.push(format!(
                "{} individual {}: oracle re-run differs from the pass",
                inputs.conditions[ci].label, oracle.id
            ));
        }
    }
    // The reference stands for the host only if nothing else in the
    // process ran beside it: a program thread still busy between calls
    // would slow the reference and make the program look faster.
    let (foreign_cpu_s, reference_cpu_s) = references(&plain).fold((0.0, 0.0), |a, r| {
        (a.0 + r.foreign_cpu_s(), a.1 + r.thread_cpu_s)
    });
    if foreign_cpu_s > MAX_FOREIGN_CPU_FRAC * reference_cpu_s {
        problems.push(format!(
            "the process used {foreign_cpu_s:.3} CPU s beside {reference_cpu_s:.3} s of \
             host-speed reference runs (limit {MAX_FOREIGN_CPU_FRAC})"
        ));
    }
    let pass_digest = digest(&first.keys);
    if opts.seed == DEFAULT_SEED && opts.size == Size::BENCH {
        match recorded_digest(opts.workload, backend) {
            Some(want) if want == pass_digest => {}
            Some(want) => problems.push(format!(
                "outcome digest {pass_digest} differs from the recorded {want} ({backend} kernels)"
            )),
            None => problems.push(format!(
                "no digest recorded for {} on {backend} kernels (this run: {pass_digest})",
                opts.workload.name()
            )),
        }
    }

    let fits = first.attempted as f64;
    let mut text = format!(
        "{} seed {} · {} threads · {backend} kernels · {} individuals × {} conditions per pass\n",
        opts.workload.name(),
        opts.seed,
        opts.threads,
        inputs.individuals(),
        inputs.conditions.len()
    );
    let metrics = if opts.trace {
        let (m, bases) = layer_metrics(&tracer, &traced, &plain, counters, allocs, opts.threads);
        text.push_str(&layer_table(&tracer, &traced, &m, &bases));
        m
    } else {
        let (wall_s, cpu_s) = host_scaled(&plain, opts.threads);
        let total: u64 = plain.iter().map(|p| p.attempted).sum();
        let ok: u64 = plain.iter().map(|p| p.attempted - p.failed).sum();
        let m = vec![
            metric("setup_s", setup_s, "s", Better::Lower),
            metric("individuals_per_s", fits / wall_s, "1/s", Better::Higher),
            metric("cpu_s_per_individual", cpu_s / fits, "s", Better::Lower),
            metric("peak_heap_mib", pass_heap_mib(&plain), "MiB", Better::Lower),
            metric(
                "test_mse_mean",
                first.mse_sum / first.mse_count as f64,
                "mse",
                Better::Lower,
            ),
            metric(
                "completed_frac",
                ok as f64 / total as f64,
                "ratio",
                Better::Higher,
            ),
        ];
        for x in &m {
            let _ = writeln!(text, "  {:<24} {:>14.6} {}", x.name, x.value, x.unit);
        }
        let _ = writeln!(
            text,
            "  host speed: reference {:.4} s median over {} runs (nominal {} s), so the host ran at {:.2}x nominal; \
             as measured: {:.3} fits/s, set-up {:.3e} s; beside the reference the process used {:.4} CPU s of {:.3}",
            reference_wall_s,
            references(&plain).count(),
            reference::NOMINAL_THREAD_S,
            reference::NOMINAL_THREAD_S / reference_wall_s,
            fits / measured_wall_s(&plain),
            measured_setup_s,
            foreign_cpu_s,
            reference_cpu_s,
        );
        m
    };
    let _ = writeln!(
        text,
        "  failed_frac {:.6} ({failed} failed / {attempted} attempted) · {} untraced + {} traced passes of {fits} fits · digest {pass_digest}",
        failed as f64 / attempted as f64,
        plain.len(),
        traced.len(),
    );
    for p in &problems {
        let _ = writeln!(text, "  CHECK FAILED: {p}");
    }
    Report {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics,
        digest: pass_digest,
        backend,
        text,
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Largest share of the reference's CPU time that the rest of the
/// process may use while the reference runs.
const MAX_FOREIGN_CPU_FRAC: f64 = 0.05;

fn recorded_digest(workload: Workload, backend: &str) -> Option<String> {
    let json = Json::parse(DIGESTS).expect("digests.json is valid JSON");
    json.get("digests")?
        .get(workload.name())?
        .get(backend)?
        .as_str()
        .map(str::to_string)
}

/// The per-layer metrics of a traced section, per pass.
fn layer_metrics(
    tracer: &Tracer,
    traced: &[Pass],
    plain: &[Pass],
    counters: Counters,
    (alloc_calls, alloc_bytes): (u64, u64),
    threads: usize,
) -> (Vec<Metric>, Vec<String>) {
    use Better::{Higher, Lower};
    let passes = traced.len() as u64;
    let per_pass = |x: u64| (x / passes) as f64;
    let ms = |layer: Layer| tracer.layer_ns(layer) as f64 / passes as f64 / 1e6;
    let calls = tracer.calls();
    let job_ns: Vec<f64> = {
        let mut v: Vec<f64> = calls
            .iter()
            .flat_map(|c| c.jobs.iter().map(|j| j.ns() as f64))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let busy_ns: f64 = job_ns.iter().sum();
    let capacity_ns: f64 = calls
        .iter()
        .map(|c| c.threads as f64 * c.wall_ns as f64)
        .sum();
    let tail_ms =
        calls.iter().map(|c| c.tail_ns() as f64).sum::<f64>() / calls.len().max(1) as f64 / 1e6;
    let attributed_ns: f64 = Layer::ALL
        .iter()
        .filter(|l| l.in_jobs())
        .map(|&l| tracer.layer_ns(l) as f64)
        .sum();
    let train_ms = ms(Layer::Train);
    let gflop = per_pass(counters.matmul_flops) / 1e9;
    let fits: u64 = traced.iter().map(|p| p.attempted).sum();
    let pool_total = counters.pool_hits + counters.pool_misses;
    let wall = |ps: &[Pass]| host_scaled(ps, threads).0;

    let mut m = vec![
        metric("data.generate_ms", ms(Layer::DataGenerate), "ms", Lower),
        metric("data.window_ms", ms(Layer::DataWindow), "ms", Lower),
        metric(
            "similarity.build_graph_ms",
            ms(Layer::BuildGraph),
            "ms",
            Lower,
        ),
        metric(
            "similarity.build_graph_calls",
            per_pass(tracer.layer_calls(Layer::BuildGraph)),
            "count",
            Lower,
        ),
        metric("graph.sparsify_ms", ms(Layer::Sparsify), "ms", Lower),
        metric("models.build_ms", ms(Layer::ModelsBuild), "ms", Lower),
        metric("core.train_ms", train_ms, "ms", Lower),
    ];
    m.push(metric(
        "core.train_epochs",
        per_pass(tracer.epochs()),
        "count",
        Lower,
    ));
    m.push(metric(
        "core.train_us_per_individual_epoch",
        tracer.layer_ns(Layer::Train) as f64 / tracer.epochs().max(1) as f64 / 1e3,
        "us",
        Lower,
    ));
    m.push(metric("core.evaluate_ms", ms(Layer::Evaluate), "ms", Lower));
    m.push(metric(
        "core.cluster.plan_ms",
        ms(Layer::ClusterPlan),
        "ms",
        Lower,
    ));
    m.push(metric(
        "core.cluster.assign_ms",
        ms(Layer::ClusterAssign),
        "ms",
        Lower,
    ));
    m.push(metric(
        "core.cluster.cache_hits",
        per_pass(counters.cache_hits),
        "count",
        Higher,
    ));
    m.push(metric(
        "core.exec.busy_frac",
        busy_ns / capacity_ns,
        "ratio",
        Higher,
    ));
    m.push(metric(
        "core.exec.job_p50_ms",
        percentile(&job_ns, 0.50) / 1e6,
        "ms",
        Lower,
    ));
    m.push(metric(
        "core.exec.job_p99_ms",
        percentile(&job_ns, 0.99) / 1e6,
        "ms",
        Lower,
    ));
    m.push(metric(
        "core.exec.jobs",
        per_pass(job_ns.len() as u64),
        "count",
        Lower,
    ));
    m.push(metric("core.exec.tail_ms", tail_ms, "ms", Lower));
    m.push(metric(
        "tensor.matmul_calls",
        per_pass(counters.matmul_calls),
        "count",
        Lower,
    ));
    m.push(metric("tensor.matmul_gflop", gflop, "GFLOP", Lower));
    m.push(metric(
        "tensor.matmul_gbyte_computed",
        per_pass(counters.matmul_bytes) / 1e9,
        "GB",
        Lower,
    ));
    m.push(metric(
        "tensor.matmul_gflops_per_train_s",
        gflop / (train_ms / 1e3),
        "GFLOP/s",
        Higher,
    ));
    m.push(metric(
        "tensor.pool_hit_ratio",
        counters.pool_hits as f64 / pool_total.max(1) as f64,
        "ratio",
        Higher,
    ));
    m.push(metric(
        "alloc.count_per_individual",
        alloc_calls as f64 / fits as f64,
        "count",
        Lower,
    ));
    m.push(metric(
        "alloc.mib_per_individual",
        alloc_bytes as f64 / fits as f64 / MIB,
        "MiB",
        Lower,
    ));
    m.push(metric(
        "alloc.retained_mib",
        plain[0].retained_bytes as f64 / MIB,
        "MiB",
        Lower,
    ));
    m.push(metric(
        "trace.overhead_frac",
        wall(traced) / wall(plain) - 1.0,
        "ratio",
        Lower,
    ));
    m.push(metric(
        "trace.unattributed_frac",
        1.0 - attributed_ns / busy_ns,
        "ratio",
        Lower,
    ));

    let bases = vec![
        format!(
            "core.exec.busy_frac = {:.1} ms job time / ({} calls' threads x wall = {:.1} ms)",
            busy_ns / 1e6,
            calls.len(),
            capacity_ns / 1e6
        ),
        format!(
            "core.exec.job_p50_ms, job_p99_ms over {} jobs",
            job_ns.len()
        ),
        format!(
            "core.exec.tail_ms: mean over {} pipeline calls",
            calls.len()
        ),
        format!(
            "tensor.matmul_gflops_per_train_s = {gflop:.6} GFLOP / {:.3} s core.train per pass",
            train_ms / 1e3
        ),
        format!(
            "tensor.pool_hit_ratio = {} hits / {pool_total} (hits + misses)",
            counters.pool_hits
        ),
        format!("alloc.*_per_individual = {alloc_calls} calls, {alloc_bytes} bytes / {fits} fits"),
        format!(
            "trace.overhead_frac = {:.3} s traced / {:.3} s untraced median pass wall at nominal host speed - 1",
            wall(traced),
            wall(plain)
        ),
        format!(
            "trace.unattributed_frac = 1 - {:.1} ms in layer timers / {:.1} ms job time",
            attributed_ns / 1e6,
            busy_ns / 1e6
        ),
    ];
    (m, bases)
}

/// The human-readable layer table: busy time per pass, its share of
/// worker busy time, call counts, then every ratio with its base.
fn layer_table(tracer: &Tracer, traced: &[Pass], metrics: &[Metric], bases: &[String]) -> String {
    let passes = traced.len() as f64;
    let busy_ns: f64 = tracer
        .calls()
        .iter()
        .flat_map(|c| c.jobs.iter().map(|j| j.ns() as f64))
        .sum();
    let mut t = format!(
        "  {:<22} {:>12} {:>9} {:>12}   (per pass; share of {:.1} ms worker busy time per pass)\n",
        "layer",
        "busy ms",
        "share",
        "calls",
        busy_ns / passes / 1e6
    );
    for layer in Layer::ALL {
        let ns = tracer.layer_ns(layer) as f64 / passes;
        let share = if layer.in_jobs() {
            format!("{:>8.2}%", 100.0 * ns * passes / busy_ns)
        } else {
            format!("{:>9}", "(caller)")
        };
        let _ = writeln!(
            t,
            "  {:<22} {:>12.3} {share} {:>12}",
            layer.name(),
            ns / 1e6,
            tracer.layer_calls(layer) as f64 / passes
        );
    }
    for m in metrics {
        let _ = writeln!(t, "  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for b in bases {
        let _ = writeln!(t, "  base: {b}");
    }
    t
}
