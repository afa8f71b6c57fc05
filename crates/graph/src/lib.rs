//! # ema-graph
//!
//! Graph structures and transformations for GNN-based EMA forecasting:
//!
//! * [`AdjacencyMatrix`] — a weighted, possibly directed variable-
//!   interaction graph over the `V` EMA variables;
//! * normalisation (symmetric GCN normalisation, row-stochastic,
//!   scaled Laplacian) in [`normalize`];
//! * sparsification to a *graph density threshold* (GDT) as used in the
//!   paper's Experiment B, plus per-row top-k (MTGNN) in [`sparsify`];
//! * random graph generation (the paper's RAND control) in [`random`];
//! * Chebyshev polynomial stacks for ASTGCN's spectral convolutions in
//!   [`chebyshev`];
//! * comparison statistics between graphs (edge-weight correlation,
//!   density, degree summaries) in [`stats`].

#![warn(missing_docs)]

mod adjacency;
pub mod chebyshev;
pub mod normalize;
pub mod random;
pub mod sparsify;
pub mod stats;

pub use adjacency::AdjacencyMatrix;
