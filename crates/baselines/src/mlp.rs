//! A from-scratch multi-layer perceptron with Adam training.
//!
//! Small, dense, CPU-only — sized for the paper's ANN baseline (a few
//! thousand training samples, 3 inputs, 1 output). No autograd: gradients
//! are hand-derived for the dense-layer + pointwise-activation stack with
//! mean-squared-error loss.

use gradest_math::DMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Pointwise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Identity (used on the output layer for regression).
    Linear,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Linear => 1.0,
        }
    }
}

/// One dense layer: `y = act(W·x + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    w: DMatrix,
    b: Vec<f64>,
    act: Activation,
    // Adam moments.
    mw: DMatrix,
    vw: DMatrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, act: Activation, rng: &mut StdRng) -> Self {
        // Xavier-uniform initialization.
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        let mut w = DMatrix::zeros(outputs, inputs);
        for r in 0..outputs {
            for c in 0..inputs {
                w[(r, c)] = rng.gen_range(-limit..limit);
            }
        }
        Layer {
            w,
            b: vec![0.0; outputs],
            act,
            mw: DMatrix::zeros(outputs, inputs),
            vw: DMatrix::zeros(outputs, inputs),
            mb: vec![0.0; outputs],
            vb: vec![0.0; outputs],
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        (0..self.w.rows())
            .map(|r| {
                let z: f64 =
                    self.w.row(r).iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + self.b[r];
                self.act.apply(z)
            })
            .collect()
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam β₁.
    pub beta1: f64,
    /// Adam β₂.
    pub beta2: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 60, learning_rate: 3e-3, batch_size: 32, beta1: 0.9, beta2: 0.999 }
    }
}

/// A dense feed-forward network trained with MSE + Adam.
///
/// # Example
///
/// ```
/// use gradest_baselines::mlp::{Activation, Mlp, TrainConfig};
///
/// // Learn y = 2x on [0, 1].
/// let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
/// let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
/// let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, 42);
/// net.train(&xs, &ys, &TrainConfig { epochs: 200, ..Default::default() });
/// let pred = net.forward(&[0.25]);
/// assert!((pred[0] - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
    adam_t: u64,
}

impl Mlp {
    /// Builds a network with the given layer sizes (`sizes[0]` = inputs,
    /// last = outputs). Hidden layers use `hidden_act`; the output layer
    /// is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], hidden_act: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be nonzero");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == sizes.len() { Activation::Linear } else { hidden_act };
                Layer::new(w[0], w[1], act, &mut rng)
            })
            .collect();
        Mlp { layers, adam_t: 0 }
    }

    /// Number of inputs the network expects.
    fn input_size(&self) -> usize {
        self.layers[0].w.cols()
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the input size.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_size(), "input size mismatch");
        let mut cur = x.to_vec();
        for layer in &self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Mean-squared error over a dataset.
    pub fn mse(&self, xs: &[Vec<f64>], ys: &[Vec<f64>]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        let mut total = 0.0;
        let mut count = 0usize;
        for (x, y) in xs.iter().zip(ys) {
            let p = self.forward(x);
            for (pi, yi) in p.iter().zip(y) {
                total += (pi - yi) * (pi - yi);
                count += 1;
            }
        }
        total / count.max(1) as f64
    }

    /// Trains with mini-batch Adam on MSE loss. Deterministic given the
    /// construction seed (batch order is a fixed shuffle per epoch).
    ///
    /// # Panics
    ///
    /// Panics if inputs/targets are empty, lengths mismatch, or any sample
    /// has the wrong arity.
    pub fn train(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], cfg: &TrainConfig) {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len(), "inputs/targets length mismatch");
        let n = xs.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(0x7A11);
        for epoch in 0..cfg.epochs {
            // Fisher–Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let _ = epoch;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                self.train_batch(xs, ys, chunk, cfg);
            }
        }
    }

    /// One Adam step on a mini-batch.
    fn train_batch(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], idx: &[usize], cfg: &TrainConfig) {
        let nl = self.layers.len();
        // Accumulated gradients per layer.
        let mut gw: Vec<DMatrix> =
            self.layers.iter().map(|l| DMatrix::zeros(l.w.rows(), l.w.cols())).collect();
        let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        for &i in idx {
            // Forward, caching every layer's output.
            let mut activations: Vec<Vec<f64>> = vec![xs[i].clone()];
            for layer in &self.layers {
                let next = layer.forward(activations.last().expect("nonempty"));
                activations.push(next);
            }
            // Backward: dL/dy for MSE (scaled 2/m handled via lr).
            let out = activations.last().expect("nonempty");
            let mut delta: Vec<f64> =
                out.iter().zip(&ys[i]).map(|(p, y)| 2.0 * (p - y) / idx.len() as f64).collect();
            for l in (0..nl).rev() {
                let layer = &self.layers[l];
                let y = &activations[l + 1];
                let x = &activations[l];
                // δ_z = δ_y ⊙ act'(y)
                let dz: Vec<f64> = delta
                    .iter()
                    .zip(y)
                    .map(|(d, yi)| d * layer.act.derivative_from_output(*yi))
                    .collect();
                for (r, dzr) in dz.iter().enumerate() {
                    gb[l][r] += dzr;
                    let grow = gw[l].row_mut(r);
                    for (c, xc) in x.iter().enumerate() {
                        grow[c] += dzr * xc;
                    }
                }
                if l > 0 {
                    // Propagate: δ_x = Wᵀ·δ_z.
                    let mut next_delta = vec![0.0; x.len()];
                    for (r, dzr) in dz.iter().enumerate() {
                        for (c, nd) in next_delta.iter_mut().enumerate() {
                            *nd += layer.w[(r, c)] * dzr;
                        }
                    }
                    delta = next_delta;
                }
            }
        }

        // Adam update.
        self.adam_t += 1;
        let t = self.adam_t as f64;
        let (b1, b2) = (cfg.beta1, cfg.beta2);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        for (l, layer) in self.layers.iter_mut().enumerate() {
            for r in 0..layer.w.rows() {
                for c in 0..layer.w.cols() {
                    let g = gw[l][(r, c)];
                    let m = &mut layer.mw[(r, c)];
                    *m = b1 * *m + (1.0 - b1) * g;
                    let v = &mut layer.vw[(r, c)];
                    *v = b2 * *v + (1.0 - b2) * g * g;
                    let mhat = layer.mw[(r, c)] / bc1;
                    let vhat = layer.vw[(r, c)] / bc2;
                    layer.w[(r, c)] -= cfg.learning_rate * mhat / (vhat.sqrt() + 1e-8);
                }
                let g = gb[l][r];
                layer.mb[r] = b1 * layer.mb[r] + (1.0 - b1) * g;
                layer.vb[r] = b2 * layer.vb[r] + (1.0 - b2) * g * g;
                let mhat = layer.mb[r] / bc1;
                let vhat = layer.vb[r] / bc2;
                layer.b[r] -= cfg.learning_rate * mhat / (vhat.sqrt() + 1e-8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let net = Mlp::new(&[3, 8, 2], Activation::Tanh, 1);
        assert_eq!(net.input_size(), 3);
        let y = net.forward(&[0.1, -0.2, 0.3]);
        assert_eq!(y.len(), 2);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn forward_wrong_arity_panics() {
        let net = Mlp::new(&[3, 4, 1], Activation::Tanh, 1);
        let _ = net.forward(&[1.0]);
    }

    #[test]
    fn deterministic_construction() {
        let a = Mlp::new(&[2, 4, 1], Activation::Tanh, 7);
        let b = Mlp::new(&[2, 4, 1], Activation::Tanh, 7);
        assert_eq!(a.forward(&[0.3, 0.7]), b.forward(&[0.3, 0.7]));
        let c = Mlp::new(&[2, 4, 1], Activation::Tanh, 8);
        assert_ne!(a.forward(&[0.3, 0.7]), c.forward(&[0.3, 0.7]));
    }

    #[test]
    fn learns_linear_function() {
        let xs: Vec<Vec<f64>> =
            (0..300).map(|i| vec![(i % 100) as f64 / 100.0, (i % 17) as f64 / 17.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![0.5 * x[0] - 0.3 * x[1] + 0.1]).collect();
        let mut net = Mlp::new(&[2, 10, 1], Activation::Tanh, 3);
        net.train(&xs, &ys, &TrainConfig { epochs: 150, ..Default::default() });
        let mse = net.mse(&xs, &ys);
        assert!(mse < 1e-3, "MSE {mse}");
    }

    #[test]
    fn learns_xor() {
        let xs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let ys = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, 5);
        net.train(
            &xs,
            &ys,
            &TrainConfig { epochs: 2000, learning_rate: 1e-2, batch_size: 4, ..Default::default() },
        );
        for (x, y) in xs.iter().zip(&ys) {
            let p = net.forward(x)[0];
            assert!((p - y[0]).abs() < 0.2, "xor({x:?}) = {p}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![(3.0 * x[0]).sin()]).collect();
        let mut net = Mlp::new(&[1, 12, 1], Activation::Tanh, 9);
        let before = net.mse(&xs, &ys);
        net.train(&xs, &ys, &TrainConfig { epochs: 100, ..Default::default() });
        let after = net.mse(&xs, &ys);
        assert!(after < before / 5.0, "before {before}, after {after}");
    }

    #[test]
    fn relu_network_trains() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0].powi(2)]).collect();
        let mut net = Mlp::new(&[1, 16, 1], Activation::Relu, 11);
        net.train(&xs, &ys, &TrainConfig { epochs: 200, ..Default::default() });
        assert!(net.mse(&xs, &ys) < 5e-3);
    }

    #[test]
    fn activation_derivatives() {
        assert_eq!(Activation::Linear.derivative_from_output(5.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        let y = 0.5f64;
        assert!((Activation::Tanh.derivative_from_output(y) - (1.0 - 0.25)).abs() < 1e-12);
    }
}
