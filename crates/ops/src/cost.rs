//! Static op pricing: every body run once more, on shapes only.
//!
//! [`Cost`] is a third [`Backend`], next to the tape and `Eager`. Its
//! values are shapes. Each method prices the kernel `Eager` would run for
//! it and computes the output shape; nothing executes. So an operator's
//! price is its own body's kernel sequence, not a copy of it:
//! `StOperator::price` runs an operator body here, [`price_linear`],
//! [`price_project`] and [`price_add`] run the embedding, the output head
//! and the same-shape adds of a compiled plan, and `ExecPlan::step_costs`
//! calls them once per step of the plan's own program. `cts-verify` prices
//! a candidate genotype by compiling it and rolling those step prices up
//! into whole-genotype budgets before a single forward pass runs.
//!
//! The contract (the static counterpart of the meter in
//! `cts_tensor::meter`):
//!
//! * `flops` / `bytes_read` / `bytes_written` / `kernel_calls` are **exact**:
//!   they equal, bit for bit, what [`cts_tensor::meter`] observes during
//!   one `forward_eval` of the same body on the same concrete shape. The
//!   kernel primitives below follow the metering of `cts_tensor::ops`:
//!   shape ops (`permute`, `slice`, `index_select`, `concat`), clones and
//!   reshapes are free, and same-shape zips take the fast path. The tests
//!   below, `tests/pricing_oracle.rs` and the workspace `cost_oracle` hold
//!   the prices to the meter.
//! * `dense_flops` is the matmul/conv-class subset of `flops`, used by the
//!   latency model (dense flops run much faster per flop than strided
//!   element-wise traffic).
//! * `scratch_bytes` is an arena-aligned **upper bound** (sum, not max) on
//!   the bytes of every buffer the body allocates while evaluating: kernel
//!   outputs, shape-op outputs, and the copies `Eager` makes when it clones
//!   an owned value or reshapes one it reads in place. It over-counts the
//!   true transient peak by design; it must never under-count.
//! * `param_count` is read from the weights of the priced layer or
//!   operator.
//!
//! Pricing runs no kernel and allocates nothing beyond what the caller
//! already built: the priced layers' weights and the graph context.

use crate::project;
use cts_autograd::{Backend, Parameter};
use cts_nn::Linear;
use cts_tensor::{broadcast_shapes, Shape, Tensor};
use std::cell::RefCell;

/// Every tensor element is an `f32`.
pub const BYTES_PER_ELEM: u64 = 4;

/// Static resource price of one operator application (or any composition of
/// kernel invocations — costs add).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Floating-point operations, matching the meter's per-kernel `work`.
    pub flops: u64,
    /// Bytes read by metered kernels (input elements × 4).
    pub bytes_read: u64,
    /// Bytes written by metered kernels (output elements × 4).
    pub bytes_written: u64,
    /// Trainable parameter count of the operator (excluding shared
    /// context parameters such as adaptive-adjacency embeddings).
    pub param_count: u64,
    /// Metered kernel dispatches.
    pub kernel_calls: u64,
    /// The matmul/conv-class subset of `flops` (for the latency model).
    pub dense_flops: u64,
    /// Arena-aligned upper bound on bytes allocated while evaluating.
    pub scratch_bytes: u64,
}

impl OpCost {
    /// Field-wise saturating sum (param counts included — callers rolling up
    /// a graph where one operator instance serves one edge can add freely).
    pub fn saturating_add(&self, other: &OpCost) -> OpCost {
        OpCost {
            flops: self.flops.saturating_add(other.flops),
            bytes_read: self.bytes_read.saturating_add(other.bytes_read),
            bytes_written: self.bytes_written.saturating_add(other.bytes_written),
            param_count: self.param_count.saturating_add(other.param_count),
            kernel_calls: self.kernel_calls.saturating_add(other.kernel_calls),
            dense_flops: self.dense_flops.saturating_add(other.dense_flops),
            scratch_bytes: self.scratch_bytes.saturating_add(other.scratch_bytes),
        }
    }

    /// Total bytes moved (read + written).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read.saturating_add(self.bytes_written)
    }
}

/// Arena-aligned byte footprint of a buffer of `elems` f32 elements: the
/// arena rounds every allocation up to the next power of two capacity.
pub fn arena_bytes(elems: u64) -> u64 {
    elems
        .max(1)
        .checked_next_power_of_two()
        .unwrap_or(u64::MAX)
        .saturating_mul(BYTES_PER_ELEM)
}

/// Accumulates an [`OpCost`] one kernel at a time.
///
/// Each method mirrors one `cts_tensor::ops` kernel's metering contract
/// (`flops` = the kernel's `work` parameter, `reads`/`writes` = the elements
/// its entry hook and dispatch record). Free operations (shape ops, clones)
/// only contribute `scratch_bytes` through [`Trace::alloc`].
#[derive(Clone, Debug, Default)]
pub(crate) struct Trace {
    cost: OpCost,
}

impl Trace {
    /// Finish the trace, yielding the accumulated cost.
    pub fn finish(self) -> OpCost {
        self.cost
    }

    /// Record an un-metered arena allocation of `elems` elements (clones,
    /// permutes, slices, concat outputs, filled constants).
    pub fn alloc(&mut self, elems: u64) {
        self.cost.scratch_bytes = self.cost.scratch_bytes.saturating_add(arena_bytes(elems));
    }

    /// Record `elems` elements read at a metered kernel's entry hook.
    pub fn reads(&mut self, elems: u64) {
        self.cost.bytes_read = self
            .cost
            .bytes_read
            .saturating_add(elems.saturating_mul(BYTES_PER_ELEM));
    }

    fn exec(&mut self, work: u64, out_elems: u64) {
        self.cost.flops = self.cost.flops.saturating_add(work);
        self.cost.bytes_written = self
            .cost
            .bytes_written
            .saturating_add(out_elems.saturating_mul(BYTES_PER_ELEM));
        self.cost.kernel_calls = self.cost.kernel_calls.saturating_add(1);
        self.alloc(out_elems);
    }

    /// A same-shape element-wise zip (`add`/`sub`/`mul`/`div` fast path):
    /// work = len, reads both operands, writes len.
    pub fn zip_same(&mut self, len: u64) {
        self.reads(len.saturating_mul(2));
        self.exec(len, len);
    }

    /// A broadcasting element-wise zip: work = output elements, reads both
    /// operands in full, writes the output.
    pub fn zip_bcast(&mut self, a_len: u64, b_len: u64, out_len: u64) {
        self.reads(a_len.saturating_add(b_len));
        self.exec(out_len, out_len);
    }

    /// An element-wise unary kernel (`relu`, `tanh`, `sigmoid`, `scale`,
    /// `add_scalar`, `sqrt`, `square`, `neg`, …) or `transpose_last2`:
    /// work = reads = writes = len.
    pub fn unary(&mut self, len: u64) {
        self.reads(len);
        self.exec(len, len);
    }

    /// A batched matmul `[batch, m, k] × [batch|1, k, n]`: `2·batch·m·n·k`
    /// dense flops, reads both operands in full (`a_len`, `b_len` elements),
    /// writes `batch·m·n`.
    pub fn matmul(&mut self, dims: [u64; 4], a_len: u64, b_len: u64) {
        let [batch, m, k, n] = dims;
        let work = 2u64
            .saturating_mul(batch)
            .saturating_mul(m)
            .saturating_mul(n)
            .saturating_mul(k);
        self.reads(a_len.saturating_add(b_len));
        self.exec(work, batch.saturating_mul(m).saturating_mul(n));
        self.cost.dense_flops = self.cost.dense_flops.saturating_add(work);
    }

    /// `softmax_last` over `len` total elements: ~4 flops per element.
    pub fn softmax(&mut self, len: u64) {
        self.reads(len);
        self.exec(len.saturating_mul(4), len);
    }

    /// An axis reduction (`sum_axis` / `max_axis`) decomposed as
    /// `(outer, len, inner)`: work/reads = the full input, writes
    /// `outer·inner`. (`mean_axis` adds nothing — its scale is in-place
    /// and un-metered.)
    pub fn reduce(&mut self, outer: u64, len: u64, inner: u64) {
        let total = outer.saturating_mul(len).saturating_mul(inner);
        self.reads(total);
        self.exec(total, outer.saturating_mul(inner));
    }

    /// The dilated causal `temporal_conv` kernel: `2·series·t·k·din·dout`
    /// dense flops, reads activations and kernel, writes `series·t·dout`.
    pub fn temporal_conv(&mut self, series: u64, t: u64, taps: [u64; 3]) {
        let [k, din, dout] = taps;
        let work = 2u64
            .saturating_mul(series)
            .saturating_mul(t)
            .saturating_mul(k)
            .saturating_mul(din)
            .saturating_mul(dout);
        self.reads(
            series
                .saturating_mul(t)
                .saturating_mul(din)
                .saturating_add(k.saturating_mul(din).saturating_mul(dout)),
        );
        self.exec(work, series.saturating_mul(t).saturating_mul(dout));
        self.cost.dense_flops = self.cost.dense_flops.saturating_add(work);
    }
}

/// Saturating element count of `shape`.
fn numel(shape: &[usize]) -> u64 {
    shape.iter().fold(1u64, |acc, &d| acc.saturating_mul(d as u64))
}

/// The shape-only pricing backend.
///
/// `&Cost` implements [`Backend`]: run a body on it, then read the price
/// with [`Cost::finish`]. Its values ([`CostVal`]) remember whether `Eager`
/// would own the buffer or read it in place, so the copies `Eager` makes
/// (cloning an owned value, reshaping a borrowed one, handing a borrowed
/// result back as a tensor) are priced too.
#[derive(Debug, Default)]
pub struct Cost {
    trace: RefCell<Trace>,
}

/// A value of the [`Cost`] backend: a shape, and whether `Eager` would own
/// its buffer.
#[derive(Debug)]
pub struct CostVal<'a> {
    shape: Shape,
    owned: bool,
    trace: &'a RefCell<Trace>,
}

impl CostVal<'_> {
    fn numel(&self) -> u64 {
        numel(&self.shape)
    }
}

impl Clone for CostVal<'_> {
    /// Cloning an owned `Eager` value copies its buffer.
    fn clone(&self) -> Self {
        if self.owned {
            self.trace.borrow_mut().alloc(self.numel());
        }
        CostVal {
            shape: self.shape.clone(),
            owned: self.owned,
            trace: self.trace,
        }
    }
}

impl Cost {
    /// A backend with nothing priced yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A value of `shape` the body reads in place (an input, constant or
    /// weight): free, like `EagerVal::Borrowed`.
    pub fn input(&self, shape: &[usize]) -> CostVal<'_> {
        CostVal {
            shape: Shape::from_slice(shape),
            owned: false,
            trace: &self.trace,
        }
    }

    /// Take `y` as an owned tensor, like `EagerVal::into_tensor`: a copy
    /// unless the body computed it. Handing a result to the caller does
    /// this, and so does `Eager`'s reshape.
    pub fn output(&self, y: CostVal<'_>) {
        if !y.owned {
            self.trace.borrow_mut().alloc(y.numel());
        }
    }

    /// Everything priced so far, with `param_count` read from `weights`.
    pub fn finish(self, weights: &[Parameter]) -> OpCost {
        let mut cost = self.trace.into_inner().finish();
        cost.param_count = weights
            .iter()
            .fold(0u64, |acc, p| acc.saturating_add(p.len() as u64));
        cost
    }

    /// A buffer `Eager` owns, already priced by the caller.
    fn owned(&self, shape: Shape) -> CostVal<'_> {
        CostVal {
            shape,
            owned: true,
            trace: &self.trace,
        }
    }

    /// One metered kernel writing a fresh `shape` buffer.
    fn kernel(&self, shape: Shape, price: impl FnOnce(&mut Trace)) -> CostVal<'_> {
        price(&mut self.trace.borrow_mut());
        self.owned(shape)
    }

    /// An un-metered data movement into a fresh `shape` buffer.
    fn copy(&self, shape: Shape) -> CostVal<'_> {
        self.trace.borrow_mut().alloc(numel(&shape));
        self.owned(shape)
    }

    /// `add`/`sub`/`mul`/`div`: the same-shape fast path, or a broadcast.
    fn zip<'a>(&'a self, a: &CostVal<'a>, b: &CostVal<'a>) -> CostVal<'a> {
        if a.shape == b.shape {
            return self.kernel(a.shape.clone(), |t| t.zip_same(a.numel()));
        }
        let out = broadcast_shapes(&a.shape, &b.shape)
            .unwrap_or_else(|| panic!("broadcast mismatch {:?} vs {:?}", a.shape, b.shape));
        let len = numel(&out);
        self.kernel(out, |t| t.zip_bcast(a.numel(), b.numel(), len))
    }

    fn unary<'a>(&'a self, a: &CostVal<'a>) -> CostVal<'a> {
        self.kernel(a.shape.clone(), |t| t.unary(a.numel()))
    }
}

/// The same-named [`Trace`] pricing for each element-wise kernel.
macro_rules! cost_kernels {
    (unary: $($f:ident),*) => {
        $(fn $f(&self, a: &CostVal<'a>) -> CostVal<'a> { self.unary(a) })*
    };
    (binary: $($f:ident),*) => {
        $(fn $f(&self, a: &CostVal<'a>, b: &CostVal<'a>) -> CostVal<'a> { self.zip(a, b) })*
    };
}

impl<'a> Backend<'a> for &'a Cost {
    type Val = CostVal<'a>;

    fn constant(&self, t: &'a Tensor) -> CostVal<'a> {
        self.input(t.shape())
    }
    fn fill(&self, shape: &[usize], _value: f32) -> CostVal<'a> {
        self.copy(Shape::from_slice(shape))
    }
    fn param(&self, p: &'a Parameter) -> CostVal<'a> {
        self.input(p.value().shape())
    }
    fn shape(&self, x: &CostVal<'a>) -> Shape {
        x.shape.clone()
    }
    /// The six kernels of the value-level selection, then queries `0..u`:
    /// which queries win changes no count.
    fn top_queries(&self, q: &CostVal<'a>, k: &CostVal<'a>, u: usize, sel: &mut Vec<usize>) {
        let mut kt = k.shape.clone();
        let r = kt.len();
        kt.swap(r - 2, r - 1);
        let kt = self.kernel(kt, |t| t.unary(k.numel())); // transpose_last2
        let scores = self.matmul(q, &kt);
        // max_axis prices exactly like the sum inside mean_axis.
        let max = self.mean_axis(&scores, 2, false);
        let mean = self.mean_axis(&scores, 2, false);
        self.mean_axis(&self.sub(&max, &mean), 0, false);
        sel.clear();
        sel.extend(0..u);
    }
    cost_kernels!(unary: neg, relu, sigmoid, tanh, sqrt, square);
    cost_kernels!(binary: add, sub, mul, div);
    fn matmul(&self, a: &CostVal<'a>, b: &CostVal<'a>) -> CostVal<'a> {
        let (ra, rb) = (a.shape.len(), b.shape.len());
        assert!(ra >= 2 && rb >= 2, "matmul needs rank >= 2");
        let (m, k, n) = (a.shape[ra - 2], a.shape[ra - 1], b.shape[rb - 1]);
        let mut out = broadcast_shapes(&a.shape[..ra - 2], &b.shape[..rb - 2])
            .unwrap_or_else(|| panic!("matmul batch broadcast {:?} x {:?}", a.shape, b.shape));
        let batch = numel(&out);
        out.push(m);
        out.push(n);
        let dims = [batch, m as u64, k as u64, n as u64];
        self.kernel(out, |t| t.matmul(dims, a.numel(), b.numel()))
    }
    fn scale(&self, a: &CostVal<'a>, _c: f32) -> CostVal<'a> {
        self.unary(a)
    }
    fn add_scalar(&self, a: &CostVal<'a>, _c: f32) -> CostVal<'a> {
        self.unary(a)
    }
    fn softmax_last(&self, a: &CostVal<'a>) -> CostVal<'a> {
        self.kernel(a.shape.clone(), |t| t.softmax(a.numel()))
    }
    fn permute(&self, a: &CostVal<'a>, perm: &[usize]) -> CostVal<'a> {
        self.copy(perm.iter().map(|&p| a.shape[p]).collect())
    }
    fn reshape(&self, a: CostVal<'a>, shape: &[usize]) -> CostVal<'a> {
        self.output(a);
        self.owned(Shape::from_slice(shape))
    }
    fn slice(&self, a: &CostVal<'a>, axis: usize, start: usize, end: usize) -> CostVal<'a> {
        let mut out = a.shape.clone();
        out[axis] = end - start;
        self.copy(out)
    }
    fn index_select(&self, a: &CostVal<'a>, axis: usize, indices: &[usize]) -> CostVal<'a> {
        let mut out = a.shape.clone();
        out[axis] = indices.len();
        self.copy(out)
    }
    fn concat(&self, parts: &[CostVal<'a>], axis: usize) -> CostVal<'a> {
        let mut out = parts[0].shape.clone();
        out[axis] = parts.iter().map(|p| p.shape[axis]).sum();
        self.copy(out)
    }
    fn mean_axis(&self, a: &CostVal<'a>, axis: usize, keepdim: bool) -> CostVal<'a> {
        let outer = numel(&a.shape[..axis]);
        let inner = numel(&a.shape[axis + 1..]);
        let len = a.shape[axis] as u64;
        let mut out: Shape = (a.shape.iter().enumerate())
            .filter_map(|(i, &d)| if i != axis { Some(d) } else { keepdim.then_some(1) })
            .collect();
        if out.is_empty() {
            out.push(1);
        }
        self.kernel(out, |t| t.reduce(outer, len, inner))
    }
    fn temporal_conv(&self, x: &CostVal<'a>, w: &CostVal<'a>, _dilation: usize) -> CostVal<'a> {
        let (s, ws) = (&x.shape, &w.shape);
        let series = (s[0] as u64).saturating_mul(s[1] as u64);
        let taps = [ws[0] as u64, ws[1] as u64, ws[2] as u64];
        let out = Shape::from_slice(&[s[0], s[1], s[2], ws[2]]);
        self.kernel(out, |t| t.temporal_conv(series, s[2] as u64, taps))
    }
}

/// Price one `layer.forward` on an input of `shape`, read in place.
pub fn price_linear(layer: &Linear, shape: &[usize]) -> OpCost {
    let cost = Cost::new();
    let b = &cost;
    let y = layer.forward(&b, &b.input(shape));
    b.output(y);
    cost.finish(&layer.parameters())
}

/// Price one [`project`] through `output` on a merged backbone
/// representation of `shape`, read in place.
pub fn price_project(output: &Linear, shape: &[usize]) -> OpCost {
    let cost = Cost::new();
    let b = &cost;
    let y = project(&b, &b.input(shape), output, 1.0, 0.0);
    b.output(y);
    cost.finish(&output.parameters())
}

/// Price one same-shape `add` of two `shape` operands read in place: an
/// accumulate fold, block residual or skip merge of a compiled plan.
pub fn price_add(shape: &[usize]) -> OpCost {
    let cost = Cost::new();
    let b = &cost;
    b.output(b.add(&b.input(shape), &b.input(shape)));
    cost.finish(&[])
}

#[cfg(test)]
mod tests {
    use crate::{build_operator, full_set, GraphContext, OpKind};
    use cts_graph::{random_geometric_graph, GraphGenConfig};
    use cts_tensor::{init, meter};
    use rand::{rngs::SmallRng, SeedableRng};

    /// The heart of the contract: for every operator kind, the static price
    /// must equal the instrumented meter's observation of one forward_eval,
    /// bit for bit, and the parameter count must match the real weights.
    #[test]
    fn cost_matches_meter_for_every_op() {
        let (b, n, t, d, k) = (2usize, 5usize, 12usize, 6usize, 2usize);
        let mut rng = SmallRng::seed_from_u64(42);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig { n, sigma: 0.8, threshold: 0.1 },
        );
        for adaptive in [false, true] {
            let ctx = if adaptive {
                GraphContext::from_graph(&g, k).with_adaptive(&mut rng, 4)
            } else {
                GraphContext::from_graph(&g, k)
            };
            for kind in full_set() {
                let op = build_operator(&mut rng, kind, "op", d, k, adaptive);
                let x = init::uniform(&mut rng, [b, n, t, d], -1.0, 1.0);
                meter::set_enabled(true);
                meter::reset();
                let y = op.forward_eval(&x, &ctx);
                let got = meter::snapshot();
                meter::set_enabled(false);
                assert_eq!(y.shape(), x.shape(), "{kind} changed shape");
                let want = op.price(&[b, n, t, d], &ctx);
                assert_eq!(want.flops, got.flops, "{kind} (adaptive={adaptive}): flops");
                assert_eq!(
                    want.bytes_read,
                    got.bytes_read(),
                    "{kind} (adaptive={adaptive}): bytes_read"
                );
                assert_eq!(
                    want.bytes_written,
                    got.bytes_written(),
                    "{kind} (adaptive={adaptive}): bytes_written"
                );
                assert_eq!(
                    want.kernel_calls, got.kernel_calls,
                    "{kind} (adaptive={adaptive}): kernel_calls"
                );
                let real_params: usize = op.parameters().iter().map(|p| p.len()).sum();
                assert_eq!(
                    want.param_count, real_params as u64,
                    "{kind} (adaptive={adaptive}): param_count"
                );
                assert!(want.dense_flops <= want.flops, "{kind}: dense subset");
            }
        }
    }

    /// ProbSparse must fall back to the full path exactly when the runtime
    /// does (u ≥ L), including the boundary the f32 ceil math produces.
    #[test]
    fn informer_fallback_boundary_matches_runtime() {
        let (b, n, d, k) = (1usize, 3usize, 4usize, 2usize);
        let mut rng = SmallRng::seed_from_u64(7);
        let g = random_geometric_graph(&mut rng, &GraphGenConfig { n, ..Default::default() });
        let ctx = GraphContext::from_graph(&g, k);
        for t in [2usize, 3, 4, 8, 16, 24] {
            let op = build_operator(&mut rng, OpKind::InformerT, "op", d, k, false);
            let x = init::uniform(&mut rng, [b, n, t, d], -1.0, 1.0);
            meter::set_enabled(true);
            meter::reset();
            let _ = op.forward_eval(&x, &ctx);
            let got = meter::snapshot();
            meter::set_enabled(false);
            let want = op.price(&[b, n, t, d], &ctx);
            assert_eq!(want.flops, got.flops, "T={t}: flops");
            assert_eq!(want.kernel_calls, got.kernel_calls, "T={t}: calls");
        }
    }

    #[test]
    fn zero_and_identity_prices() {
        let mut rng = SmallRng::seed_from_u64(0);
        let ctx = GraphContext::zeros(0, 2);
        let price = |rng: &mut SmallRng, kind| build_operator(rng, kind, "op", 6, 2, false).price(&[3], &ctx);
        // Zero accepts anything and is one metered kernel.
        let z = price(&mut rng, OpKind::Zero);
        assert_eq!(z.kernel_calls, 1);
        assert_eq!(z.flops, 3);
        // Identity is free but still occupies scratch.
        let i = price(&mut rng, OpKind::Identity);
        assert_eq!(i.kernel_calls, 0);
        assert!(i.scratch_bytes > 0);
    }

    #[test]
    fn costs_scale_with_batch() {
        let mut rng = SmallRng::seed_from_u64(0);
        let op = build_operator(&mut rng, OpKind::Gdcc, "op", 6, 2, false);
        let ctx = GraphContext::zeros(0, 2);
        let small = op.price(&[1, 5, 8, 6], &ctx);
        let big = op.price(&[4, 5, 8, 6], &ctx);
        assert!(big.flops > small.flops);
        assert_eq!(big.param_count, small.param_count);
    }
}
