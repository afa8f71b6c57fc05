//! # ema-obs
//!
//! Zero-dependency observability for the ema-gnn workspace: structured
//! span/event tracing, a metrics registry (counters, gauges,
//! fixed-bucket histograms) and per-experiment run manifests, all
//! emitted through the in-house JSON model (which lives here so lower
//! layers can log without depending on `ema-core`; `ema_core::Json` is
//! a re-export of [`json::Json`]).
//!
//! ## Quick tour
//!
//! ```
//! use ema_obs::{recorder, span, point, Json, ObsMode};
//!
//! // Library code instruments itself through the global recorder:
//! {
//!     let _epoch = span!("train_epoch", individual = 3usize, epoch = 0usize);
//!     point!("early_stop", epoch = 0usize, best = 0.25);
//!     recorder().inc_counter("early_stops", 1);
//! }
//!
//! // Experiment binaries bracket their work in a run manifest:
//! // recorder().begin_run("table2", config);
//! // recorder().phase("experiment"); ... recorder().finish_run();
//! # let _ = ObsMode::Summary;
//! ```
//!
//! ## Verbosity knob
//!
//! `EMA_OBS=off|summary|full` (default `summary`); see [`trace`] for
//! the exact semantics. The contract that makes telemetry safe to
//! leave on: **timing only ever appears in obs output** — results and
//! checkpoint JSON stay byte-identical across same-seed runs whatever
//! the mode (guarded by `tests/determinism.rs` at the workspace root).

#![warn(missing_docs)]

pub mod json;
pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use json::{write_f64, Json, JsonError};
pub use manifest::{default_obs_dir, results_dir};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{Profile, ProfileNode};
pub use trace::{
    drain_kernel_counters, mode, recorder, set_mode, ObsMode, Recorder, SpanGuard, WorkerScope,
};
