//! Multi-head scaled dot-product attention.
//!
//! The same module implements self-attention (queries, keys and values all
//! derived from one token matrix) and cross-attention (queries from one
//! modality, keys/values from the other), which is exactly the layer structure
//! the paper's feature enhancer and cross-modality decoder use (§VI-B):
//! image-to-text attention uses `Q_image, K_text, V_text`; text-to-image
//! attention swaps the roles.

use crate::nn::Linear;
use crate::ops::softmax_inplace;
use crate::{Matrix, Result, TensorError};
use serde::{Deserialize, Serialize};

/// Multi-head scaled dot-product attention with separate Q/K/V/O projections.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    num_heads: usize,
    head_dim: usize,
    q_proj: Linear,
    k_proj: Linear,
    v_proj: Linear,
    out_proj: Linear,
}

impl MultiHeadAttention {
    /// Creates an attention block over `model_dim`-wide tokens with
    /// `num_heads` heads. `model_dim` must be divisible by `num_heads`.
    pub fn new(model_dim: usize, num_heads: usize, seed: u64, label: &str) -> Result<Self> {
        if num_heads == 0 || model_dim == 0 {
            return Err(TensorError::InvalidArgument(
                "attention dimensions must be non-zero".to_string(),
            ));
        }
        if model_dim % num_heads != 0 {
            return Err(TensorError::InvalidArgument(format!(
                "model_dim {model_dim} not divisible by num_heads {num_heads}"
            )));
        }
        Ok(Self {
            num_heads,
            head_dim: model_dim / num_heads,
            q_proj: Linear::new(model_dim, model_dim, seed, &format!("{label}.q")),
            k_proj: Linear::new(model_dim, model_dim, seed, &format!("{label}.k")),
            v_proj: Linear::new(model_dim, model_dim, seed, &format!("{label}.v")),
            out_proj: Linear::new(model_dim, model_dim, seed, &format!("{label}.o")),
        })
    }

    /// Model (token embedding) dimension.
    pub fn model_dim(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Self-attention: queries, keys and values all come from `tokens`.
    pub fn self_attention(&self, tokens: &Matrix) -> Result<Matrix> {
        self.cross_attention(tokens, tokens)
    }

    /// Cross-attention: queries come from `queries`, keys and values from
    /// `context`. Output has one row per query token.
    ///
    /// This is [`attend`](Self::attend) over
    /// [`project_queries`](Self::project_queries) and
    /// [`project_context`](Self::project_context). A caller that attends
    /// many times with the same queries or the same context calls the steps
    /// itself and keeps `Q` or `(K, V)`; the result is the same, bit for bit.
    pub fn cross_attention(&self, queries: &Matrix, context: &Matrix) -> Result<Matrix> {
        let (k, v) = self.project_context(context)?;
        self.attend(&self.project_queries(queries)?, &k, &v)
    }

    /// The query projection `Q` of `(tokens, model_dim)` query tokens. Row
    /// `r` of `Q` depends on row `r` of `queries` only.
    pub fn project_queries(&self, queries: &Matrix) -> Result<Matrix> {
        self.q_proj.forward(queries)
    }

    /// The key and value projections `(K, V)` of `(tokens, model_dim)`
    /// context tokens. Row `r` of each depends on row `r` of `context` only.
    pub fn project_context(&self, context: &Matrix) -> Result<(Matrix, Matrix)> {
        Ok((self.k_proj.forward(context)?, self.v_proj.forward(context)?))
    }

    /// Attends projected queries `q` over projected context `(k, v)`: per
    /// head `softmax(q_h · k_h^T / sqrt(d_head)) · v_h`, the heads
    /// concatenated and passed through the output projection. Output row `r`
    /// depends on row `r` of `q` and on all of `k` and `v`; with no query or
    /// no context rows the output is all zeros.
    pub fn attend(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<Matrix> {
        let model_dim = self.model_dim();
        if q.cols() != model_dim || k.shape() != v.shape() || k.cols() != model_dim {
            return Err(TensorError::ShapeMismatch(format!(
                "attend: q {}x{}, k {}x{}, v {}x{}, model_dim {model_dim}",
                q.rows(),
                q.cols(),
                k.rows(),
                k.cols(),
                v.rows(),
                v.cols()
            )));
        }
        let mut concat = Matrix::zeros(q.rows(), model_dim);
        if q.rows() == 0 || k.rows() == 0 {
            return Ok(concat);
        }

        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut weights = vec![0.0f32; k.rows()];
        for i in 0..q.rows() {
            for head in 0..self.num_heads {
                let span = head * self.head_dim..(head + 1) * self.head_dim;
                // weights[j] = (q_i . k_j) / sqrt(d_head) over this head's columns
                let q_head = &q.row(i)[span.clone()];
                for (weight, k_row) in weights.iter_mut().zip(k.iter_rows()) {
                    let mut acc = 0.0f32;
                    for (a, b) in q_head.iter().zip(&k_row[span.clone()]) {
                        acc += a * b;
                    }
                    *weight = acc * scale;
                }
                softmax_inplace(&mut weights);
                // A weight that underflowed to 0.0 adds a zero to a sum
                // seeded with +0.0: the bits `Matrix::matmul` gets by
                // skipping the term.
                let out_head = &mut concat.row_mut(i)[span.clone()];
                for (&weight, v_row) in weights.iter().zip(v.iter_rows()) {
                    for (o, &x) in out_head.iter_mut().zip(&v_row[span.clone()]) {
                        *o += weight * x;
                    }
                }
            }
        }

        self.out_proj.forward(&concat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_indivisible_heads() {
        assert!(MultiHeadAttention::new(10, 3, 0, "a").is_err());
        assert!(MultiHeadAttention::new(0, 1, 0, "a").is_err());
        assert!(MultiHeadAttention::new(12, 3, 0, "a").is_ok());
    }

    #[test]
    fn self_attention_preserves_shape() {
        let attn = MultiHeadAttention::new(16, 4, 7, "enc").unwrap();
        let tokens = Matrix::full(5, 16, 0.3);
        let out = attn.self_attention(&tokens).unwrap();
        assert_eq!(out.shape(), (5, 16));
    }

    #[test]
    fn cross_attention_output_rows_follow_queries() {
        let attn = MultiHeadAttention::new(8, 2, 7, "x").unwrap();
        let q = Matrix::full(3, 8, 0.1);
        let ctx = Matrix::full(6, 8, 0.2);
        let out = attn.cross_attention(&q, &ctx).unwrap();
        assert_eq!(out.shape(), (3, 8));
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let attn = MultiHeadAttention::new(8, 2, 7, "x").unwrap();
        let q = Matrix::zeros(0, 8);
        let ctx = Matrix::full(4, 8, 0.2);
        let out = attn.cross_attention(&q, &ctx).unwrap();
        assert_eq!(out.shape(), (0, 8));
    }

    #[test]
    fn shape_mismatch_is_error() {
        let attn = MultiHeadAttention::new(8, 2, 3, "e").unwrap();
        let q = Matrix::zeros(2, 6);
        let ctx = Matrix::zeros(3, 8);
        assert!(attn.cross_attention(&q, &ctx).is_err());
    }
}
