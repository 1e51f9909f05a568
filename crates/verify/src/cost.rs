//! Whole-architecture static resource analysis: FLOPs, bytes, peak arena
//! residency, and predicted latency for a candidate genotype — without
//! running a model.
//!
//! [`analyze_cost`] builds the candidate the way every model builds it
//! (fixed-seed weights, zero-filled graph supports), compiles it with
//! `cts_runtime::ExecPlan::compile` and prices the plan's own step list
//! with `ExecPlan::step_costs`: the architecture's forward program is
//! described once, by the compiler. The per-step `flops`/`bytes` are
//! **exact** against the instrumented kernel meter; two peak-memory
//! estimates come out of a walk over those steps:
//!
//! * `peak_bytes` — *plan-faithful*: workspace slots fill in emission order
//!   and are never freed mid-run (matching `ExecPlan`'s persistent slots),
//!   plus each step's transient scratch upper bound. This is the number to
//!   compare against observed arena residency: it must never under-count.
//! * `ideal_peak_bytes` — the liveness-interval lower target: slots are
//!   freed immediately after their last use. The gap between the two is
//!   the headroom a smarter slot allocator could reclaim.
//!
//! [`LatencyModel`] converts a cost into predicted nanoseconds with three
//! coefficients (dense flops, light flops, per-dispatch overhead), either
//! default (conservative scalar-CPU constants) or fitted in-process by
//! [`LatencyModel::calibrate`] from timed probe kernels.
//!
//! [`check_budgets`] turns a [`CostReport`] plus [`CostBudgets`] into
//! [`FindingKind::OverBudget`] findings naming the offending step — the
//! search pre-flight rejects over-budget genotypes before training spends
//! a single step on them.
//!
//! This file is under the `lint_forbidden.sh` checked-arithmetic rule:
//! every integer size/count product or sum must go through
//! `saturating_*`/`checked_*` (floating-point latency math is exempt).

use crate::check_genotype;
use crate::finding::{FindingKind, VerifyReport};
use crate::spec::ArchSpec;
use crate::VerifyError;
use cts_nn::Linear;
use cts_ops::{arena_bytes, build_operator, GraphContext, OpCost, ShapeIssue};
use cts_runtime::{BlockPlan, ExecPlan, PlanError, PlanSpec, StepCost};
use rand::{rngs::SmallRng, SeedableRng};
use std::rc::Rc;

/// The priced architecture: per-step costs, totals, and both peak models.
#[derive(Clone, Debug)]
pub struct CostReport {
    /// Every step in `ExecPlan` emission order.
    pub steps: Vec<StepCost>,
    /// Field-wise total over all steps (params: embedding, every operator
    /// instance, and the output head).
    pub total: OpCost,
    /// Arena-aligned bytes of one `[B, N, T, D]` workspace slot.
    pub slot_bytes: u64,
    /// Number of workspace slots the plan would allocate.
    pub num_slots: usize,
    /// Plan-faithful peak resident bytes (slots persist; never under-counts
    /// observed arena residency).
    pub peak_bytes: u64,
    /// The step at which the plan-faithful walk peaked.
    pub peak_site: String,
    /// Liveness-interval peak (slots freed after last use) — the lower
    /// target an ideal slot allocator could reach.
    pub ideal_peak_bytes: u64,
}

impl CostReport {
    /// Predicted wall-clock for one forward pass under `model`.
    pub fn predicted_ns(&self, model: &LatencyModel) -> f64 {
        model.predict_ns(&self.total)
    }

    /// The most FLOP-expensive step, when any exist.
    pub fn max_flops_step(&self) -> Option<&StepCost> {
        self.steps.iter().max_by_key(|s| s.cost.flops)
    }
}

/// Resource ceilings the pre-flight enforces; `None` disables a check.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostBudgets {
    /// Reject when any single step exceeds this many FLOPs.
    pub max_flops_per_step: Option<u64>,
    /// Reject when the plan-faithful peak residency exceeds this.
    pub max_peak_bytes: Option<u64>,
    /// Reject when predicted forward latency exceeds this.
    pub max_latency_ms: Option<f32>,
}

impl CostBudgets {
    /// True when every ceiling is disabled (pre-flight can skip pricing).
    pub fn is_unbounded(&self) -> bool {
        self.max_flops_per_step.is_none()
            && self.max_peak_bytes.is_none()
            && self.max_latency_ms.is_none()
    }
}

/// Three-coefficient latency model: `ns = dense·c_d ⊕ light·c_l ⊕ calls·c_k`.
///
/// Dense flops (matmul/conv class) stream through cache-friendly inner
/// loops; "light" flops (element-wise, reductions, softmax) are memory
/// bound and cost more per flop; every kernel dispatch pays a fixed
/// pool/arena overhead.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Nanoseconds per dense (matmul/conv) flop.
    pub dense_ns_per_flop: f64,
    /// Nanoseconds per non-dense flop.
    pub light_ns_per_flop: f64,
    /// Fixed nanoseconds per kernel dispatch.
    pub dispatch_ns: f64,
}

impl Default for LatencyModel {
    /// Conservative single-core defaults (≈3 GFLOP/s dense, ≈4 GFLOP/s
    /// element-wise, ≈2 µs per dispatch) for budget pre-flights run before
    /// any calibration data exists. Re-calibrated against the measured
    /// family rows after the SIMD kernels landed (`bench_cost --gate`
    /// fails if these drift more than 3x from a fresh refit): vectorized
    /// element-wise/reduction passes cut the light-flop cost from the old
    /// scalar 1.25 ns/flop, while dense stays ~0.35 because the matmul
    /// microkernel was already cache-blocked.
    fn default() -> Self {
        Self {
            dense_ns_per_flop: 0.35,
            light_ns_per_flop: 0.25,
            dispatch_ns: 2_000.0,
        }
    }
}

impl LatencyModel {
    /// Predicted nanoseconds for `cost`.
    pub fn predict_ns(&self, cost: &OpCost) -> f64 {
        let dense = cost.dense_flops as f64;
        let light = cost.flops.saturating_sub(cost.dense_flops) as f64;
        let calls = cost.kernel_calls as f64;
        // f64 ns model, not buffer-size arithmetic
        dense * self.dense_ns_per_flop + light * self.light_ns_per_flop + calls * self.dispatch_ns // f64
    }

    /// Fit the three coefficients from timed probe kernels run in-process:
    /// a dense matmul prices `dense_ns_per_flop`, an element-wise chain
    /// prices `light_ns_per_flop`, and a burst of tiny ops prices
    /// `dispatch_ns` (solved sequentially, each already-known term
    /// subtracted out). Takes a few milliseconds; results are clamped to
    /// sane positive ranges so a noisy timer can never produce a zero or
    /// negative coefficient.
    pub fn calibrate() -> Self {
        use cts_obs::Stopwatch;
        use cts_tensor::{ops, Tensor};

        let median = |mut v: Vec<f64>| -> f64 {
            // invariant: samples are elapsed-time ratios, always finite
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            v[v.len() / 2]
        };

        // Dense: [64,64]·[64,64] matmul, 2·64³ flops per call.
        let a = Tensor::full(vec![64, 64], 1.01f32);
        let b = Tensor::full(vec![64, 64], 0.99f32);
        let dense_flops_per_call = 2.0f64 * 64.0 * 64.0 * 64.0;
        let mut dense_samples = Vec::new();
        for _ in 0..9 {
            let t0 = Stopwatch::start();
            let y = ops::matmul(&a, &b);
            let dt = t0.elapsed_secs() * 1e9; // f64 seconds -> ns
            assert!(!y.is_empty());
            dense_samples.push(dt / dense_flops_per_call);
        }
        let dense = median(dense_samples).clamp(0.01, 100.0);

        // Light: relu over 1<<16 elements, 1 flop per element.
        let big = Tensor::full(vec![1usize << 16], -0.5f32);
        let light_flops_per_call = (1u64 << 16) as f64;
        let mut light_samples = Vec::new();
        for _ in 0..9 {
            let t0 = Stopwatch::start();
            let y = ops::relu(&big);
            let dt = t0.elapsed_secs() * 1e9; // f64 seconds -> ns
            assert!(!y.is_empty());
            light_samples.push(dt / light_flops_per_call);
        }
        let light = median(light_samples).clamp(0.01, 100.0);

        // Dispatch: 64 tiny unary calls; subtract the (known) light cost.
        let tiny = Tensor::full(vec![8usize], 1.0f32);
        let mut disp_samples = Vec::new();
        for _ in 0..9 {
            let t0 = Stopwatch::start();
            for _ in 0..64 {
                let y = ops::relu(&tiny);
                assert!(!y.is_empty());
            }
            let dt = t0.elapsed_secs() * 1e9; // f64 seconds -> ns
            let per_call = dt / 64.0 - 8.0 * light; // f64 timing residual
            disp_samples.push(per_call);
        }
        let dispatch = median(disp_samples).clamp(10.0, 1_000_000.0);

        Self {
            dense_ns_per_flop: dense,
            light_ns_per_flop: light,
            dispatch_ns: dispatch,
        }
    }
}

/// The candidate as a compilable plan: fixed-seed weights, as every model
/// builds them, over one zero-filled graph context of the architecture's
/// size. A symbolic node count builds one node.
fn plan_spec(spec: &ArchSpec) -> PlanSpec {
    let dims = &spec.dims;
    let nodes = dims.num_nodes.unwrap_or(1);
    let mut rng = SmallRng::seed_from_u64(0);
    let mut ctx = GraphContext::zeros(nodes, dims.gcn_k);
    if dims.adaptive {
        ctx = ctx.with_adaptive(&mut rng, dims.adaptive_emb);
    }
    let mut blocks = Vec::with_capacity(spec.blocks.len());
    for block in &spec.blocks {
        let mut edges = Vec::with_capacity(block.edges.len());
        for &(from, to, kind) in &block.edges {
            let op = build_operator(&mut rng, kind, "price", dims.d_model, dims.gcn_k, dims.adaptive);
            edges.push((from, to, Rc::from(op)));
        }
        blocks.push(BlockPlan { m: block.m, edges });
    }
    let flat_width = dims.input_len.saturating_mul(dims.d_model);
    PlanSpec {
        embed: Rc::new(Linear::new(&mut rng, "embed", dims.features, dims.d_model, true)),
        output: Rc::new(Linear::new(&mut rng, "output", flat_width, dims.horizon, true)),
        ctx: Rc::new(ctx),
        blocks,
        backbone: spec.backbone.clone(),
        out_scale: 1.0,
        out_shift: 0.0,
        input_len: dims.input_len,
        d_model: dims.d_model,
        nodes,
        features: dims.features,
    }
}

/// A plan the compiler refused, as a typed rejection.
fn compile_error(err: PlanError) -> VerifyError {
    let kind = match &err {
        PlanError::Shape { issue, .. } => match issue {
            ShapeIssue::Rank { .. } => FindingKind::RankError,
            ShapeIssue::Channel { .. } => FindingKind::ChannelMismatch,
            ShapeIssue::Nodes { .. } => FindingKind::NodeCountMismatch,
        },
        PlanError::Mismatch { .. } => FindingKind::BroadcastMismatch,
        PlanError::Invalid(_) => FindingKind::MalformedBlock,
    };
    let mut report = VerifyReport::default();
    report.error(kind, "model", format!("the architecture does not compile: {err}"));
    VerifyError { report }
}

/// Price a validated architecture for batch size `batch`.
///
/// Compiles the architecture into an `ExecPlan` and prices its step list,
/// so the per-step flops/bytes match what the instrumented meter observes
/// during one `ExecPlan::try_run` of the same genotype, bit for bit. When
/// `dims.num_nodes` is `None` the node dim prices as 1 — callers that want
/// node-count scaling must bind it.
///
/// # Errors
/// [`VerifyError`] when the genotype fails validation ([`check_genotype`])
/// or the plan compiler refuses it.
pub fn analyze_cost(spec: &ArchSpec, batch: usize) -> Result<CostReport, VerifyError> {
    check_genotype(spec)?;
    let plan = ExecPlan::compile(plan_spec(spec)).map_err(compile_error)?;
    let steps = plan.step_costs(batch);
    let num_slots = plan.num_slots();
    let slot_elems = [batch, plan.nodes(), spec.dims.input_len, spec.dims.d_model]
        .iter()
        .fold(1u64, |acc, &d| acc.saturating_mul(d as u64));
    let slot_bytes = arena_bytes(slot_elems);

    // Plan-faithful peak: slots persist once filled; each step's transient
    // scratch rides on top of the resident set at that moment.
    let mut filled = vec![false; num_slots];
    let mut resident = 0u64;
    let mut peak = 0u64;
    let mut peak_site = String::new();
    for s in &steps {
        let candidate = resident.saturating_add(s.cost.scratch_bytes);
        if candidate > peak {
            peak = candidate;
            peak_site = s.site.clone();
        }
        if s.new_slot && !filled[s.dst] {
            filled[s.dst] = true;
            resident = resident.saturating_add(slot_bytes);
        }
    }

    // Ideal liveness-interval peak: free every slot after its last read.
    let mut last_use = vec![usize::MAX; num_slots];
    for (i, s) in steps.iter().enumerate() {
        for &src in &s.srcs {
            last_use[src] = i;
        }
    }
    let mut live = vec![false; num_slots];
    let mut live_bytes = 0u64;
    let mut ideal = 0u64;
    for (i, s) in steps.iter().enumerate() {
        if s.new_slot && !live[s.dst] {
            live[s.dst] = true;
            live_bytes = live_bytes.saturating_add(slot_bytes);
        }
        let candidate = live_bytes.saturating_add(s.cost.scratch_bytes);
        if candidate > ideal {
            ideal = candidate;
        }
        for &src in &s.srcs {
            if live[src] && last_use[src] == i {
                live[src] = false;
                live_bytes = live_bytes.saturating_sub(slot_bytes);
            }
        }
    }

    let total = steps
        .iter()
        .fold(OpCost::default(), |acc, s| acc.saturating_add(&s.cost));
    Ok(CostReport {
        steps,
        total,
        slot_bytes,
        num_slots,
        peak_bytes: peak,
        peak_site,
        ideal_peak_bytes: ideal,
    })
}

/// Check a priced architecture against resource budgets, recording an
/// [`FindingKind::OverBudget`] error finding (naming the offending step)
/// for every exceeded ceiling.
pub fn check_budgets(
    report: &mut VerifyReport,
    cost: &CostReport,
    budgets: &CostBudgets,
    model: &LatencyModel,
) {
    if let Some(cap) = budgets.max_flops_per_step {
        for s in cost.steps.iter().filter(|s| s.cost.flops > cap) {
            let opname = s
                .kind
                .map_or_else(|| "fixed stage".to_string(), |k| k.to_string());
            report.error(
                FindingKind::OverBudget,
                s.site.clone(),
                format!(
                    "step {site} ({opname}) needs {flops} FLOPs, over the {cap} per-step budget",
                    site = s.site,
                    flops = s.cost.flops,
                ),
            );
        }
    }
    if let Some(cap) = budgets.max_peak_bytes {
        if cost.peak_bytes > cap {
            report.error(
                FindingKind::OverBudget,
                cost.peak_site.clone(),
                format!(
                    "peak resident estimate {peak} bytes (at {site}) exceeds the {cap}-byte arena budget",
                    peak = cost.peak_bytes,
                    site = cost.peak_site,
                ),
            );
        }
    }
    if let Some(cap_ms) = budgets.max_latency_ms {
        let ns = cost.predicted_ns(model);
        let cap_ns = f64::from(cap_ms) * 1.0e6;
        if ns > cap_ns {
            let worst = cost
                .max_flops_step()
                .map_or_else(|| "?".to_string(), |s| s.site.clone());
            report.error(
                FindingKind::OverBudget,
                "model",
                format!(
                    "predicted forward latency {ms:.3} ms exceeds the {cap_ms} ms budget (heaviest step: {worst})",
                    ms = ns / 1.0e6,
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BlockSpec, ModelDims};
    use cts_ops::OpKind;

    fn dims() -> ModelDims {
        ModelDims {
            features: 2,
            input_len: 12,
            horizon: 12,
            d_model: 8,
            num_nodes: Some(5),
            gcn_k: 2,
            adaptive: false,
            adaptive_emb: 0,
        }
    }

    fn healthy_block() -> BlockSpec {
        BlockSpec {
            m: 3,
            edges: vec![
                (0, 1, OpKind::Gdcc),
                (0, 2, OpKind::InformerS),
                (1, 2, OpKind::Identity),
            ],
        }
    }

    fn arch(blocks: Vec<BlockSpec>, backbone: Vec<usize>) -> ArchSpec {
        ArchSpec {
            dims: dims(),
            blocks,
            backbone,
        }
    }

    #[test]
    fn prices_a_healthy_architecture() {
        let spec = arch(vec![healthy_block(), healthy_block()], vec![0, 1]);
        let report = analyze_cost(&spec, 4).expect("healthy arch prices");
        // embed + 2×(3 edges + residual) + 1 merge + output head = 11 steps.
        assert_eq!(report.steps.len(), 11);
        assert!(report.total.flops > 0);
        assert!(report.total.param_count > 0);
        assert!(report.total.bytes_read > 0);
        assert!(report.peak_bytes >= report.ideal_peak_bytes);
        assert!(report.peak_bytes >= report.slot_bytes);
        assert!(!report.peak_site.is_empty());
        assert!(report.total.dense_flops <= report.total.flops);
    }

    #[test]
    fn cost_grows_with_batch() {
        let spec = arch(vec![healthy_block()], vec![0]);
        let small = analyze_cost(&spec, 1).unwrap();
        let big = analyze_cost(&spec, 8).unwrap();
        assert!(big.total.flops > small.total.flops);
        assert!(big.peak_bytes > small.peak_bytes);
        // Parameters are batch-independent.
        assert_eq!(big.total.param_count, small.total.param_count);
    }

    #[test]
    fn invalid_genotype_is_rejected_before_pricing() {
        let broken = BlockSpec {
            m: 3,
            edges: vec![(0, 1, OpKind::Gdcc)], // node 2 dangling
        };
        let err = analyze_cost(&arch(vec![broken], vec![0]), 1).unwrap_err();
        assert!(!err.report.is_ok());
    }

    /// Regression: a zero `input_len` under an `inf-t` edge and a zero
    /// `num_nodes` under an `inf-s` edge used to pass validation and then
    /// panic inside ProbSparse's `u = clamp(⌈ln L⌉, 1, L)` while pricing.
    #[test]
    fn zero_dims_are_a_typed_error_not_a_panic() {
        let block = |op| BlockSpec {
            m: 3,
            edges: vec![(0, 1, OpKind::Gdcc), (0, 2, op), (1, 2, OpKind::Identity)],
        };
        let mut zero_len = arch(vec![block(OpKind::InformerT)], vec![0]);
        zero_len.dims.input_len = 0;
        let mut zero_nodes = arch(vec![block(OpKind::InformerS)], vec![0]);
        zero_nodes.dims.num_nodes = Some(0);
        for (spec, dim) in [(zero_len, "input_len"), (zero_nodes, "num_nodes")] {
            let err = analyze_cost(&spec, 2).unwrap_err();
            let f = err
                .report
                .errors()
                .find(|f| f.kind == FindingKind::ZeroDim)
                .expect("zero-dimension finding");
            assert!(f.message.contains(dim), "{}", f.message);
        }
    }

    /// An unbound node count prices exactly like one node: same steps,
    /// same per-step costs, same totals and peaks.
    #[test]
    fn symbolic_node_count_prices_as_one_node() {
        let block = BlockSpec {
            m: 3,
            edges: vec![
                (0, 1, OpKind::Dgcn),
                (1, 2, OpKind::InformerS),
                (0, 2, OpKind::Zero),
            ],
        };
        let mut symbolic = arch(vec![block], vec![0]);
        symbolic.dims.num_nodes = None;
        let mut one = symbolic.clone();
        one.dims.num_nodes = Some(1);
        let sym = analyze_cost(&symbolic, 3).expect("symbolic N prices");
        let bound = analyze_cost(&one, 3).expect("N = 1 prices");
        assert_eq!(sym.total, bound.total);
        let steps = |r: &CostReport| -> Vec<(String, OpCost)> {
            r.steps.iter().map(|s| (s.site.clone(), s.cost)).collect()
        };
        assert_eq!(steps(&sym), steps(&bound));
        assert_eq!(sym.steps.len(), 6);
        assert_eq!(sym.peak_bytes, bound.peak_bytes);
        assert_eq!(sym.ideal_peak_bytes, bound.ideal_peak_bytes);
    }

    /// A plan the compiler refuses comes back as a typed finding.
    #[test]
    fn compile_refusal_is_a_typed_finding() {
        let err = compile_error(PlanError::Invalid("no blocks".into()));
        let f = err.report.errors().next().expect("one error finding");
        assert_eq!(f.kind, FindingKind::MalformedBlock);
        assert!(f.message.contains("no blocks"), "{}", f.message);
    }

    #[test]
    fn per_step_flops_budget_names_the_offending_edge() {
        let spec = arch(vec![healthy_block()], vec![0]);
        let cost = analyze_cost(&spec, 4).unwrap();
        let heavy = cost.max_flops_step().unwrap();
        let budgets = CostBudgets {
            max_flops_per_step: Some(heavy.cost.flops.saturating_sub(1)),
            ..CostBudgets::default()
        };
        let mut report = VerifyReport::default();
        check_budgets(&mut report, &cost, &budgets, &LatencyModel::default());
        let f = report
            .errors()
            .find(|f| f.kind == FindingKind::OverBudget)
            .expect("over-budget finding");
        assert_eq!(f.site, heavy.site);
        assert!(f.message.contains("FLOPs"), "{}", f.message);
    }

    #[test]
    fn peak_and_latency_budgets_fire() {
        let spec = arch(vec![healthy_block()], vec![0]);
        let cost = analyze_cost(&spec, 4).unwrap();
        let budgets = CostBudgets {
            max_peak_bytes: Some(1),
            max_latency_ms: Some(0.0),
            ..CostBudgets::default()
        };
        let mut report = VerifyReport::default();
        check_budgets(&mut report, &cost, &budgets, &LatencyModel::default());
        let over: Vec<_> = report
            .errors()
            .filter(|f| f.kind == FindingKind::OverBudget)
            .collect();
        assert_eq!(over.len(), 2, "{over:?}");
        // Generous budgets pass clean.
        let mut ok = VerifyReport::default();
        check_budgets(
            &mut ok,
            &cost,
            &CostBudgets {
                max_flops_per_step: Some(u64::MAX),
                max_peak_bytes: Some(u64::MAX),
                max_latency_ms: Some(f32::MAX),
            },
            &LatencyModel::default(),
        );
        assert!(ok.is_ok(), "{:?}", ok.findings);
    }

    #[test]
    fn latency_model_orders_architectures_sensibly() {
        let small = analyze_cost(&arch(vec![healthy_block()], vec![0]), 1).unwrap();
        let large =
            analyze_cost(&arch(vec![healthy_block(), healthy_block()], vec![0, 1]), 1).unwrap();
        let m = LatencyModel::default();
        assert!(large.predicted_ns(&m) > small.predicted_ns(&m));
        assert!(small.predicted_ns(&m) > 0.0);
    }

    #[test]
    fn calibration_produces_sane_coefficients() {
        let m = LatencyModel::calibrate();
        assert!(m.dense_ns_per_flop > 0.0 && m.dense_ns_per_flop.is_finite());
        assert!(m.light_ns_per_flop > 0.0 && m.light_ns_per_flop.is_finite());
        assert!(m.dispatch_ns > 0.0 && m.dispatch_ns.is_finite());
    }

    #[test]
    fn unbounded_budgets_detected() {
        assert!(CostBudgets::default().is_unbounded());
        assert!(!CostBudgets {
            max_peak_bytes: Some(1),
            ..CostBudgets::default()
        }
        .is_unbounded());
    }
}
