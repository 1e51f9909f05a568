//! The output head every forecasting backbone ends in, written once over
//! [`Backend`]: the tape forward, compiled plans and static pricing all run
//! this body.

use cts_autograd::{Backend, Eager, EagerVal};
use cts_nn::Linear;
use cts_tensor::Tensor;

/// Output head over the merged backbone representation `[B, N, T, D]`:
/// ReLU → flatten to `[B, N, T·D]` → `output` → inverse-scaler affine
/// `y·scale + shift`, giving `[B, N, Q]` in the data's original units.
pub fn project<'a, B: Backend<'a>>(
    b: &B,
    merged: &B::Val,
    output: &'a Linear,
    scale: f32,
    shift: f32,
) -> B::Val {
    let s = b.shape(merged);
    let flat = b.reshape(b.relu(merged), &[s[0], s[1], s[2].saturating_mul(s[3])]);
    b.add_scalar(&b.scale(&output.forward(b, &flat), scale), shift)
}

/// Tape-free [`project`], for compiled plans.
pub fn project_eval(merged: &Tensor, output: &Linear, scale: f32, shift: f32) -> Tensor {
    project(&Eager, &EagerVal::Borrowed(merged), output, scale, shift).into_tensor()
}
