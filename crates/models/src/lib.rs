//! # ema-models
//!
//! The four forecasting models compared by the paper, implemented on the
//! `ema-nn`/`ema-autodiff` substrate:
//!
//! | Model | Paper category | Graph usage |
//! |-------|----------------|-------------|
//! | [`LstmForecaster`] | baseline | none |
//! | [`A3tgcn`] | Recurrent GCN | static Â (GCN-gated GRU + temporal attention) |
//! | [`Astgcn`] | Temporal GAT | static Chebyshev stack ⊙ learned spatial attention |
//! | [`Mtgnn`] | Temporal GAT + graph learning | **learned** adjacency (node embeddings), optionally primed with a static graph |
//!
//! All models (and the [`VarForecaster`] baseline) implement
//! [`Forecaster`]: given a `[seq_len, V]` window they predict the `[V]`
//! vector at the next time point (the paper's 1-lag forecasting task).
//! Training and evaluation run one forward for every model, the
//! grouped [`CohortForecaster::predict_cohort`] over all windows of one
//! or more individuals; [`Forecaster::predict_window`] is the
//! per-window reference it is tested against.
//!
//! Model hyper-parameters follow Section V-D: 32 hidden units
//! ([`ModelConfig::hidden`]) and two crate constants shared by every
//! model, temporal kernel `KERNEL = 3` and `DROPOUT = 0.3`. MTGNN's
//! graph learner and mix-hop propagation use Wu et al.'s (KDD 2020)
//! constants `GRAPH_ALPHA = 3.0`, `MIXHOP_BETA = 0.05` and
//! `MIXHOP_DEPTH = 2`.

#![warn(missing_docs)]

mod a3tgcn;
mod astgcn;
mod cohort;
mod config;
mod forecaster;
mod gcn;
mod lstm;
mod mtgnn;
mod var;

pub use a3tgcn::A3tgcn;
pub use astgcn::Astgcn;
pub use cohort::{cohort_dropout, CohortBatch, CohortCtx, CohortForecaster};
pub use config::ModelConfig;
pub use forecaster::{build_model, Forecaster, ForwardCtx, ModelKind};
pub use gcn::{gcn_layer, mixhop_propagation};
pub use lstm::LstmForecaster;
pub use mtgnn::{GraphLearnerKind, Mtgnn};
pub use var::VarForecaster;
