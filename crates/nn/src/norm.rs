//! Normalisation layers.
//!
//! The AutoCTS supernet follows DARTS's ReLU-operator-norm ordering (§4.1.4).
//! [`LayerNorm`] (running-stat free, identical in train and eval mode) is the
//! workspace default for that role; [`BatchNorm`] with running statistics is
//! provided as well and is exercised by tests and by baselines that call for
//! it. The substitution is noted in DESIGN.md.

use cts_autograd::{Backend, Parameter, Tape, Var};
use cts_tensor::Tensor;
use std::cell::{Cell, RefCell};

/// Layer normalisation over the last (channel) axis with learnable affine.
pub struct LayerNorm {
    gamma: Parameter,
    beta: Parameter,
    eps: f32,
}

impl LayerNorm {
    /// LayerNorm over a channel dimension of width `d`.
    pub fn new(name: &str, d: usize) -> Self {
        Self {
            gamma: Parameter::new(format!("{name}.gamma"), Tensor::ones([d])),
            beta: Parameter::new(format!("{name}.beta"), Tensor::zeros([d])),
            eps: 1e-5,
        }
    }

    /// Normalise `[..., d]` per position over the channel axis. LayerNorm
    /// is stateless, so eval and train behaviour coincide.
    pub fn forward<'a, B: Backend<'a>>(&'a self, b: &B, x: &B::Val) -> B::Val {
        let axis = b.shape(x).len() - 1;
        let mean = b.mean_axis(x, axis, true);
        let centered = b.sub(x, &mean);
        let var = b.mean_axis(&b.square(&centered), axis, true);
        let std = b.sqrt(&b.add_scalar(&var, self.eps));
        let normed = b.div(&centered, &std);
        b.add(&b.mul(&normed, &b.param(&self.gamma)), &b.param(&self.beta))
    }

    /// Learnable affine parameters.
    pub fn parameters(&self) -> Vec<Parameter> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Batch normalisation over the channel (last) axis, with running statistics
/// for evaluation mode.
pub struct BatchNorm {
    gamma: Parameter,
    beta: Parameter,
    running_mean: RefCell<Tensor>,
    running_var: RefCell<Tensor>,
    momentum: f32,
    eps: f32,
    training: Cell<bool>,
}

impl BatchNorm {
    /// BatchNorm over a channel dimension of width `d`.
    pub fn new(name: &str, d: usize) -> Self {
        Self {
            gamma: Parameter::new(format!("{name}.gamma"), Tensor::ones([d])),
            beta: Parameter::new(format!("{name}.beta"), Tensor::zeros([d])),
            running_mean: RefCell::new(Tensor::zeros([d])),
            running_var: RefCell::new(Tensor::ones([d])),
            momentum: 0.1,
            eps: 1e-5,
            training: Cell::new(true),
        }
    }

    /// Switch between batch statistics (train) and running statistics (eval).
    pub fn set_training(&self, training: bool) {
        self.training.set(training);
    }

    /// Normalise `[..., d]` over all leading axes.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let shape = x.shape();
        // invariant: batchnorm inputs are at least rank 1.
        let d = *shape.last().expect("batchnorm on rank-0");
        let rows: usize = shape[..shape.len() - 1].iter().product();
        let flat = x.reshape(&[rows, d]);
        let (normed, batch_mean, batch_var) = if self.training.get() {
            let mean = flat.mean_axis(0, true);
            let centered = flat.sub(&mean);
            let var = centered.square().mean_axis(0, true);
            let std = var.add_scalar(self.eps).sqrt();
            let normed = centered.div(&std);
            (normed, Some(mean.value()), Some(var.value()))
        } else {
            let mean = tape.constant(self.running_mean.borrow().clone().reshaped(vec![1, d]));
            let var = tape.constant(self.running_var.borrow().clone().reshaped(vec![1, d]));
            let std = var.add_scalar(self.eps).sqrt();
            (flat.sub(&mean).div(&std), None, None)
        };
        if let (Some(m), Some(v)) = (batch_mean, batch_var) {
            let mut rm = self.running_mean.borrow_mut();
            let mut rv = self.running_var.borrow_mut();
            rm.scale_inplace(1.0 - self.momentum);
            rm.axpy(self.momentum, &m.reshaped(vec![d]));
            rv.scale_inplace(1.0 - self.momentum);
            rv.axpy(self.momentum, &v.reshaped(vec![d]));
        }
        normed
            .mul(&tape.param(&self.gamma))
            .add(&tape.param(&self.beta))
            .reshape(&shape)
    }

    /// Learnable affine parameters.
    pub fn parameters(&self) -> Vec<Parameter> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_tensor::init;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let mut rng = SmallRng::seed_from_u64(0);
        let ln = LayerNorm::new("ln", 8);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [4, 8], -5.0, 5.0));
        let y = ln.forward(&tape, &x).value();
        for row in 0..4 {
            let vals = &y.data()[row * 8..(row + 1) * 8];
            let mean: f32 = vals.iter().sum::<f32>() / 8.0;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        use cts_autograd::gradcheck::assert_gradients;
        let mut rng = SmallRng::seed_from_u64(1);
        let ln = LayerNorm::new("ln", 4);
        let x = cts_autograd::Parameter::new("x", init::uniform(&mut rng, [2, 4], -1.0, 1.0));
        let mut params = ln.parameters();
        params.push(x.clone());
        assert_gradients(&params, 1e-2, 5e-2, |tape| {
            ln.forward(tape, &tape.param(&x)).square().sum_all()
        });
    }

    #[test]
    fn batchnorm_train_normalizes_per_channel() {
        let mut rng = SmallRng::seed_from_u64(2);
        let bn = BatchNorm::new("bn", 3);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [50, 3], 2.0, 6.0));
        let y = bn.forward(&tape, &x).value();
        for c in 0..3 {
            let vals: Vec<f32> = (0..50).map(|r| y.data()[r * 3 + c]).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 50.0;
            assert!(mean.abs() < 1e-3, "channel {c} mean {mean}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = SmallRng::seed_from_u64(3);
        let bn = BatchNorm::new("bn", 2);
        // Run several training batches to build running stats near (3, 1).
        for _ in 0..60 {
            let tape = Tape::new();
            let x = tape.constant(init::normal(&mut rng, [64, 2], 1.0).map(|v| v + 3.0));
            let _ = bn.forward(&tape, &x);
        }
        bn.set_training(false);
        let tape = Tape::new();
        // Input exactly at the running mean must map to ~beta (0).
        let x = tape.constant(Tensor::full([1, 2], 3.0));
        let y = bn.forward(&tape, &x).value();
        assert!(y.data().iter().all(|v| v.abs() < 0.2), "{:?}", y);
    }
}
