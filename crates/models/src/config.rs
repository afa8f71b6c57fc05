//! Shared model hyper-parameters (paper Section V-D).

/// Temporal kernel size of every model (paper Sec. V-D: k = 3);
/// automatically reduced when a window is shorter than the kernel.
pub(crate) const KERNEL: usize = 3;

/// Dropout rate of every model (paper Sec. V-D: 0.3).
pub(crate) const DROPOUT: f64 = 0.3;

/// Hyper-parameters common to every model.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Hidden units in every channel/layer (paper: 32).
    pub hidden: usize,
    /// MTGNN graph-learning embedding dimension.
    pub embed_dim: usize,
    /// MTGNN top-k neighbours kept per node in the learned graph.
    pub graph_top_k: usize,
    /// Attention projection width for attention modules.
    pub attn_dim: usize,
    /// Parameter-initialisation seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            embed_dim: 10,
            graph_top_k: 8,
            attn_dim: 16,
            seed: 1,
        }
    }
}

impl ModelConfig {
    /// A smaller configuration for fast tests.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        Self {
            hidden: 8,
            embed_dim: 4,
            graph_top_k: 3,
            attn_dim: 4,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ModelConfig::default();
        assert_eq!(c.hidden, 32);
        assert_eq!(KERNEL, 3);
        assert!((DROPOUT - 0.3).abs() < 1e-12);
        assert!((crate::mtgnn::GRAPH_ALPHA - 3.0).abs() < 1e-12);
        assert!((crate::mtgnn::MIXHOP_BETA - 0.05).abs() < 1e-12);
        assert_eq!(crate::mtgnn::MIXHOP_DEPTH, 2);
    }

    #[test]
    fn tiny_is_smaller() {
        let c = ModelConfig::tiny(0);
        assert!(c.hidden < ModelConfig::default().hidden);
    }
}
