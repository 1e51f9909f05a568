//! One kernel surface, any number of executions.
//!
//! Layer and operator bodies are written once, generic over [`Backend`].
//! This crate provides two backends:
//!
//! * [`Tape`] records every kernel as a [`Var`] node, for training and
//!   search;
//! * [`Eager`] runs the same kernels directly on [`Tensor`]s, with nothing
//!   recorded, for compiled inference plans. Weights and graph supports are
//!   read in place ([`EagerVal::Param`], [`EagerVal::Borrowed`]), never
//!   copied.
//!
//! Both dispatch the same `cts_tensor::ops` kernel for every method, so one
//! body yields bit-identical values on either backend. No method needs
//! tensor values to decide what runs next, so a backend whose values are
//! shapes only can run the same body to price it (`cts-ops` does this for
//! static cost analysis).
//!
//! The lifetime `'a` bounds what an [`Eager`] value may borrow: the
//! parameters, constants and inputs a body reads without copying.

use crate::{Parameter, Tape, Var};
use cts_tensor::{ops, Shape, Tensor};
use std::borrow::Borrow;
use std::cell::Ref;
use std::cmp::Ordering;
use std::ops::Deref;

/// The kernels a layer or operator body may call.
///
/// Values are taken by reference except by [`Backend::reshape`], which
/// consumes its input so [`Eager`] can reinterpret an owned buffer without
/// copying it. Cloning a value is cheap on the tape (a node handle) and
/// copies an owned buffer on [`Eager`], exactly like `Tensor::clone`.
pub trait Backend<'a> {
    /// The value a body passes between kernels.
    type Val: Clone;

    /// A non-trainable input (data, masks, graph supports).
    fn constant(&self, t: &'a Tensor) -> Self::Val;
    /// A non-trainable tensor of `shape` with every element `value`.
    fn fill(&self, shape: &[usize], value: f32) -> Self::Val;
    /// A trainable weight.
    fn param(&self, p: &'a Parameter) -> Self::Val;
    /// Shape of `x`.
    fn shape(&self, x: &Self::Val) -> Shape;
    /// ProbSparse query selection: write into `sel`, ascending, the `u`
    /// queries of `q [B', L, D]` with the largest batch-averaged sparsity
    /// measurement `max_j s_ij − mean_j s_ij` over the scores `q·kᵀ`.
    /// Nothing is recorded, so no gradient flows through the choice.
    fn top_queries(&self, q: &Self::Val, k: &Self::Val, u: usize, sel: &mut Vec<usize>);

    /// `a + b` (broadcasting).
    fn add(&self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// `a - b` (broadcasting).
    fn sub(&self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// `a * b` (broadcasting).
    fn mul(&self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// `a / b` (broadcasting).
    fn div(&self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// Batched matrix product over the trailing two dims.
    fn matmul(&self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// Multiply by a scalar.
    fn scale(&self, a: &Self::Val, c: f32) -> Self::Val;
    /// Add a scalar.
    fn add_scalar(&self, a: &Self::Val, c: f32) -> Self::Val;
    /// Negation.
    fn neg(&self, a: &Self::Val) -> Self::Val;
    /// ReLU.
    fn relu(&self, a: &Self::Val) -> Self::Val;
    /// Sigmoid.
    fn sigmoid(&self, a: &Self::Val) -> Self::Val;
    /// Tanh.
    fn tanh(&self, a: &Self::Val) -> Self::Val;
    /// Square root.
    fn sqrt(&self, a: &Self::Val) -> Self::Val;
    /// Elementwise square.
    fn square(&self, a: &Self::Val) -> Self::Val;
    /// Softmax over the last axis.
    fn softmax_last(&self, a: &Self::Val) -> Self::Val;
    /// Permute dimensions.
    fn permute(&self, a: &Self::Val, perm: &[usize]) -> Self::Val;
    /// Reshape to `shape` (same element count).
    fn reshape(&self, a: Self::Val, shape: &[usize]) -> Self::Val;
    /// Slice `[start, end)` along `axis`.
    fn slice(&self, a: &Self::Val, axis: usize, start: usize, end: usize) -> Self::Val;
    /// Gather `indices` along `axis`.
    fn index_select(&self, a: &Self::Val, axis: usize, indices: &[usize]) -> Self::Val;
    /// Concatenate along `axis`.
    fn concat(&self, parts: &[Self::Val], axis: usize) -> Self::Val;
    /// Mean over `axis`.
    fn mean_axis(&self, a: &Self::Val, axis: usize, keepdim: bool) -> Self::Val;
    /// Dilated causal temporal convolution of `x [B,N,T,Din]` with
    /// `w [K,Din,Dout]`.
    fn temporal_conv(&self, x: &Self::Val, w: &Self::Val, dilation: usize) -> Self::Val;
}

/// [`Backend::top_queries`] on values: six kernels (transpose, matmul,
/// max, mean, subtract, batch mean), then a stable descending sort of the
/// query indices by score.
fn select_top_queries(q: &Tensor, k: &Tensor, u: usize, sel: &mut Vec<usize>) {
    let scores = ops::matmul(q, &ops::transpose_last2(k)); // [B', L, L]
    let max = ops::max_axis(&scores, 2, false); // [B', L]
    let mean = ops::mean_axis(&scores, 2, false); // [B', L]
    let m = ops::sub(&max, &mean);
    let batch_avg = ops::mean_axis(&m, 0, false); // [L]
    let avg = batch_avg.data();
    sel.clear();
    sel.extend(0..avg.len());
    sel.sort_by(|&a, &b| avg[b].partial_cmp(&avg[a]).unwrap_or(Ordering::Equal));
    sel.truncate(u);
    sel.sort_unstable();
}

/// The tape's same-named `Var` methods, one recorded node per call.
macro_rules! tape_kernels {
    (unary: $($f:ident),*) => { $(fn $f(&self, a: &Var) -> Var { a.$f() })* };
    (binary: $($f:ident),*) => { $(fn $f(&self, a: &Var, b: &Var) -> Var { a.$f(b) })* };
}

/// The same-named `cts_tensor::ops` kernels, run immediately.
macro_rules! eager_kernels {
    (unary: $($f:ident),*) => {
        $(fn $f(&self, a: &Self::Val) -> Self::Val { EagerVal::Owned(ops::$f(a)) })*
    };
    (binary: $($f:ident),*) => {
        $(fn $f(&self, a: &Self::Val, b: &Self::Val) -> Self::Val { EagerVal::Owned(ops::$f(a, b)) })*
    };
}

impl<'a> Backend<'a> for Tape {
    type Val = Var;

    fn constant(&self, t: &'a Tensor) -> Var {
        Tape::constant(self, t.clone())
    }
    fn fill(&self, shape: &[usize], value: f32) -> Var {
        Tape::constant(self, Tensor::full(shape, value))
    }
    fn param(&self, p: &'a Parameter) -> Var {
        Tape::param(self, p)
    }
    fn shape(&self, x: &Var) -> Shape {
        x.shape()
    }
    fn top_queries(&self, q: &Var, k: &Var, u: usize, sel: &mut Vec<usize>) {
        q.with_values2(k, |q, k| select_top_queries(q, k, u, sel));
    }
    tape_kernels!(unary: neg, relu, sigmoid, tanh, sqrt, square, softmax_last);
    tape_kernels!(binary: add, sub, mul, div, matmul);
    fn scale(&self, a: &Var, c: f32) -> Var {
        a.scale(c)
    }
    fn add_scalar(&self, a: &Var, c: f32) -> Var {
        a.add_scalar(c)
    }
    fn permute(&self, a: &Var, perm: &[usize]) -> Var {
        a.permute(perm)
    }
    fn reshape(&self, a: Var, shape: &[usize]) -> Var {
        a.reshape(shape)
    }
    fn slice(&self, a: &Var, axis: usize, start: usize, end: usize) -> Var {
        a.slice(axis, start, end)
    }
    fn index_select(&self, a: &Var, axis: usize, indices: &[usize]) -> Var {
        a.index_select(axis, indices)
    }
    fn concat(&self, parts: &[Var], axis: usize) -> Var {
        Var::concat(parts, axis)
    }
    fn mean_axis(&self, a: &Var, axis: usize, keepdim: bool) -> Var {
        a.mean_axis(axis, keepdim)
    }
    fn temporal_conv(&self, x: &Var, w: &Var, dilation: usize) -> Var {
        x.temporal_conv(w, dilation)
    }
}

/// The tape-free backend: every kernel runs immediately and nothing is
/// recorded.
#[derive(Clone, Copy, Debug)]
pub struct Eager;

/// A value of the [`Eager`] backend: a tensor it owns, or one it reads in
/// place.
pub enum EagerVal<'a> {
    /// A kernel output.
    Owned(Tensor),
    /// An input or constant read in place.
    Borrowed(&'a Tensor),
    /// A parameter's live value, read in place.
    Param(Ref<'a, Tensor>),
}

impl EagerVal<'_> {
    /// The value as an owned tensor; copies unless it is already owned.
    pub fn into_tensor(self) -> Tensor {
        match self {
            EagerVal::Owned(t) => t,
            other => Tensor::clone(&other),
        }
    }
}

impl Deref for EagerVal<'_> {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            EagerVal::Owned(t) => t,
            EagerVal::Borrowed(t) => t,
            EagerVal::Param(t) => t,
        }
    }
}

impl Borrow<Tensor> for EagerVal<'_> {
    fn borrow(&self) -> &Tensor {
        self
    }
}

impl Clone for EagerVal<'_> {
    fn clone(&self) -> Self {
        match self {
            EagerVal::Owned(t) => EagerVal::Owned(t.clone()),
            EagerVal::Borrowed(t) => EagerVal::Borrowed(t),
            EagerVal::Param(t) => EagerVal::Param(Ref::clone(t)),
        }
    }
}

impl<'a> Backend<'a> for Eager {
    type Val = EagerVal<'a>;

    fn constant(&self, t: &'a Tensor) -> EagerVal<'a> {
        EagerVal::Borrowed(t)
    }
    fn fill(&self, shape: &[usize], value: f32) -> EagerVal<'a> {
        EagerVal::Owned(Tensor::full(shape, value))
    }
    fn param(&self, p: &'a Parameter) -> EagerVal<'a> {
        EagerVal::Param(p.value())
    }
    fn shape(&self, x: &EagerVal<'a>) -> Shape {
        x.shape().into()
    }
    fn top_queries(&self, q: &EagerVal<'a>, k: &EagerVal<'a>, u: usize, sel: &mut Vec<usize>) {
        select_top_queries(q, k, u, sel);
    }
    eager_kernels!(unary: neg, relu, sigmoid, tanh, sqrt, square, softmax_last);
    eager_kernels!(binary: add, sub, mul, div, matmul);
    fn scale(&self, a: &EagerVal<'a>, c: f32) -> EagerVal<'a> {
        EagerVal::Owned(ops::scale(a, c))
    }
    fn add_scalar(&self, a: &EagerVal<'a>, c: f32) -> EagerVal<'a> {
        EagerVal::Owned(ops::add_scalar(a, c))
    }
    fn permute(&self, a: &EagerVal<'a>, perm: &[usize]) -> EagerVal<'a> {
        EagerVal::Owned(ops::permute(a, perm))
    }
    fn reshape(&self, a: EagerVal<'a>, shape: &[usize]) -> EagerVal<'a> {
        EagerVal::Owned(a.into_tensor().reshaped(shape))
    }
    fn slice(&self, a: &EagerVal<'a>, axis: usize, start: usize, end: usize) -> EagerVal<'a> {
        EagerVal::Owned(ops::slice(a, axis, start, end))
    }
    fn index_select(&self, a: &EagerVal<'a>, axis: usize, indices: &[usize]) -> EagerVal<'a> {
        EagerVal::Owned(ops::index_select(a, axis, indices))
    }
    fn concat(&self, parts: &[EagerVal<'a>], axis: usize) -> EagerVal<'a> {
        EagerVal::Owned(ops::concat(parts, axis))
    }
    fn mean_axis(&self, a: &EagerVal<'a>, axis: usize, keepdim: bool) -> EagerVal<'a> {
        EagerVal::Owned(ops::mean_axis(a, axis, keepdim))
    }
    fn temporal_conv(&self, x: &EagerVal<'a>, w: &EagerVal<'a>, dilation: usize) -> EagerVal<'a> {
        EagerVal::Owned(ops::temporal_conv(x, w, dilation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One generic body, run on both backends: identical bits, and the
    /// eager run reads the parameter in place.
    fn body<'a, B: Backend<'a>>(b: &B, x: &B::Val, w: &'a Parameter) -> B::Val {
        let h = b.tanh(&b.matmul(x, &b.param(w)));
        let s = b.shape(&h);
        b.reshape(b.softmax_last(&h), &[s[0] * s[1]])
    }

    #[test]
    fn tape_and_eager_agree_bitwise() {
        let w = Parameter::new(
            "w",
            Tensor::from_vec([2, 3], vec![0.5, -1.0, 2.0, 1.5, 0.25, -0.75]),
        );
        let x = Tensor::from_vec([2, 2], vec![1.0, -2.0, 0.5, 3.0]);
        let tape = Tape::new();
        let taped = body(&tape, &tape.constant(x.clone()), &w).value();
        let eager = body(&Eager, &EagerVal::Borrowed(&x), &w).into_tensor();
        assert_eq!(taped.shape(), eager.shape());
        for (a, b) in taped.data().iter().zip(eager.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn eager_clone_of_borrowed_value_does_not_copy() {
        let x = Tensor::ones([3]);
        let v = EagerVal::Borrowed(&x);
        assert!(matches!(v.clone(), EagerVal::Borrowed(t) if std::ptr::eq(t, &x)));
    }
}
