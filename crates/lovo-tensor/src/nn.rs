//! Neural-network layers: linear projections, layer normalization, and the
//! two-layer GELU MLP block used by the transformer encoders.

use crate::init::{rng_for, uniform_vector, xavier_uniform};
use crate::ops::{gelu, mean, variance};
use crate::{Matrix, Result, TensorError};
use serde::{Deserialize, Serialize};

/// Output columns [`Linear::forward`] accumulates together in registers.
const LINEAR_BLOCK: usize = 16;

/// A dense affine layer `y = x W^T + b` applied row-wise to a token matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// The weight stored transposed, shape `(in_features, out_features)`, so
    /// the kernel's inner loop walks one weight row and one output row
    /// contiguously (see [`Linear::forward`]).
    weight_t: Matrix,
    /// Bias of length `out_features`.
    bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights, deterministically derived
    /// from `(seed, label)`.
    pub fn new(in_features: usize, out_features: usize, seed: u64, label: &str) -> Self {
        let mut rng = rng_for(seed, label);
        // Drawn in `(out, in)` order and then transposed, so the value of
        // weight `(out, in)` does not depend on the storage layout.
        let weight = xavier_uniform(&mut rng, out_features, in_features);
        let bias = uniform_vector(&mut rng, out_features, 0.01);
        Self {
            weight_t: weight.transpose(),
            bias,
        }
    }

    /// Creates a layer from explicit parameters: `weight` has shape
    /// `(out_features, in_features)` (used by tests and the
    /// attribute-grounded encoder which builds structured projections).
    pub fn from_parts(weight: Matrix, bias: Vec<f32>) -> Result<Self> {
        if weight.rows() != bias.len() {
            return Err(TensorError::ShapeMismatch(format!(
                "Linear::from_parts: {} output rows vs bias of {}",
                weight.rows(),
                bias.len()
            )));
        }
        Ok(Self {
            weight_t: weight.transpose(),
            bias,
        })
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.weight_t.rows()
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.bias.len()
    }

    /// Applies the layer to a `(tokens, in_features)` matrix, producing
    /// `(tokens, out_features)`.
    ///
    /// `out[i][j] = (Σ_k x[i][k] · w[j][k]) + b[j]`, the sum accumulated from
    /// `0.0` in increasing `k` — the same per-element order as a row-times-row
    /// dot product, so the result is bit-identical to
    /// `x.matmul_transposed(w)` plus the bias. Each output row depends on its
    /// own input row only.
    ///
    /// The loops are register-blocked: for each input row and each block of
    /// 16 output columns, a local `[f32; 16]` accumulator starts at `0.0`,
    /// takes `x[k] · w_t[k][c..c + 16]` for `k` in increasing order, then the
    /// bias, and is stored once; a scalar loop does the same for the columns
    /// left over. Every element still sees exactly the adds of the
    /// dot-product form in the same order, so the bits cannot change, while
    /// the block's columns advance together (which vectorises) and stay in
    /// registers instead of being loaded and stored once per `k`.
    pub fn forward(&self, input: &Matrix) -> Result<Matrix> {
        if input.cols() != self.in_features() {
            return Err(TensorError::ShapeMismatch(format!(
                "Linear::forward: input has {} features, layer expects {}",
                input.cols(),
                self.in_features()
            )));
        }
        let out_features = self.out_features();
        let blocked = out_features - out_features % LINEAR_BLOCK;
        let mut out = Matrix::zeros(input.rows(), out_features);
        for r in 0..input.rows() {
            let x_row = input.row(r);
            let out_row = out.row_mut(r);
            for c in (0..blocked).step_by(LINEAR_BLOCK) {
                let mut acc = [0.0f32; LINEAR_BLOCK];
                for (&x, w_row) in x_row.iter().zip(self.weight_t.iter_rows()) {
                    for (a, &w) in acc.iter_mut().zip(&w_row[c..c + LINEAR_BLOCK]) {
                        *a += x * w;
                    }
                }
                for ((o, a), &b) in out_row[c..c + LINEAR_BLOCK]
                    .iter_mut()
                    .zip(acc)
                    .zip(&self.bias[c..c + LINEAR_BLOCK])
                {
                    *o = a + b;
                }
            }
            for (j, o) in out_row.iter_mut().enumerate().skip(blocked) {
                let mut acc = 0.0f32;
                for (&x, w_row) in x_row.iter().zip(self.weight_t.iter_rows()) {
                    acc += x * w_row[j];
                }
                *o = acc + self.bias[j];
            }
        }
        Ok(out)
    }

    /// Applies the layer to a single vector.
    pub fn forward_vec(&self, input: &[f32]) -> Result<Vec<f32>> {
        let m = Matrix::row_vector(input);
        Ok(self.forward(&m)?.into_vec())
    }
}

/// Layer normalization over the feature dimension of each token.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
}

impl LayerNorm {
    /// Creates an identity-initialized layer norm (`gamma = 1`, `beta = 0`).
    pub fn new(features: usize) -> Self {
        Self {
            gamma: vec![1.0; features],
            beta: vec![0.0; features],
            eps: 1e-5,
        }
    }

    /// Number of normalized features.
    pub fn features(&self) -> usize {
        self.gamma.len()
    }

    /// Normalizes each row of `input` to zero mean / unit variance and applies
    /// the learned scale and shift.
    pub fn forward(&self, input: &Matrix) -> Result<Matrix> {
        if input.cols() != self.gamma.len() {
            return Err(TensorError::ShapeMismatch(format!(
                "LayerNorm::forward: input has {} features, layer expects {}",
                input.cols(),
                self.gamma.len()
            )));
        }
        let mut out = input.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let m = mean(row);
            let v = variance(row);
            let denom = (v + self.eps).sqrt();
            for (i, x) in row.iter_mut().enumerate() {
                *x = (*x - m) / denom * self.gamma[i] + self.beta[i];
            }
        }
        Ok(out)
    }
}

/// The standard transformer MLP block: `Linear -> GELU -> Linear`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
}

impl Mlp {
    /// Creates an MLP with the given hidden expansion, deterministically
    /// initialized from `(seed, label)`.
    pub fn new(features: usize, hidden: usize, out: usize, seed: u64, label: &str) -> Self {
        Self {
            fc1: Linear::new(features, hidden, seed, &format!("{label}.fc1")),
            fc2: Linear::new(hidden, out, seed, &format!("{label}.fc2")),
        }
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.fc1.in_features()
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.fc2.out_features()
    }

    /// Applies the block row-wise.
    pub fn forward(&self, input: &Matrix) -> Result<Matrix> {
        let hidden = self.fc1.forward(input)?.map(gelu);
        self.fc2.forward(&hidden)
    }

    /// Applies the block to a single vector.
    pub fn forward_vec(&self, input: &[f32]) -> Result<Vec<f32>> {
        let m = Matrix::row_vector(input);
        Ok(self.forward(&m)?.into_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_determinism() {
        let l1 = Linear::new(8, 4, 11, "test");
        let l2 = Linear::new(8, 4, 11, "test");
        let input = Matrix::full(3, 8, 0.5);
        let a = l1.forward(&input).unwrap();
        let b = l2.forward(&input).unwrap();
        assert_eq!(a.shape(), (3, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn linear_rejects_wrong_input_width() {
        let l = Linear::new(8, 4, 0, "test");
        assert!(l.forward(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn linear_from_parts_validates_bias() {
        let w = Matrix::zeros(3, 2);
        assert!(Linear::from_parts(w.clone(), vec![0.0; 2]).is_err());
        assert!(Linear::from_parts(w, vec![0.0; 3]).is_ok());
    }

    #[test]
    fn linear_identity_weights_pass_through() {
        let l = Linear::from_parts(Matrix::identity(3), vec![1.0, 2.0, 3.0]).unwrap();
        let out = l.forward_vec(&[10.0, 20.0, 30.0]).unwrap();
        assert_eq!(out, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn layer_norm_zero_mean_unit_variance() {
        let ln = LayerNorm::new(4);
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = ln.forward(&m).unwrap();
        let row = out.row(0);
        assert!(mean(row).abs() < 1e-5);
        assert!((variance(row) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_rejects_wrong_width() {
        let ln = LayerNorm::new(4);
        assert!(ln.forward(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn mlp_shapes() {
        let mlp = Mlp::new(16, 32, 8, 5, "mlp");
        let out = mlp.forward(&Matrix::full(4, 16, 0.1)).unwrap();
        assert_eq!(out.shape(), (4, 8));
        assert_eq!(mlp.in_features(), 16);
        assert_eq!(mlp.out_features(), 8);
    }

    #[test]
    fn mlp_is_nonlinear() {
        // f(2x) should differ from 2 f(x) for a GELU MLP with nonzero input.
        let mlp = Mlp::new(4, 8, 4, 1, "nl");
        let x = vec![0.5, -0.3, 0.8, 0.1];
        let fx = mlp.forward_vec(&x).unwrap();
        let x2: Vec<f32> = x.iter().map(|v| v * 2.0).collect();
        let fx2 = mlp.forward_vec(&x2).unwrap();
        let linear_prediction: Vec<f32> = fx.iter().map(|v| v * 2.0).collect();
        let diff: f32 = fx2
            .iter()
            .zip(linear_prediction.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "MLP behaved linearly, diff={diff}");
    }
}
