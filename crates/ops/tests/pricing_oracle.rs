//! Layer-level pricing oracle for the shape-only `Cost` backend.
//!
//! Each nn layer body the operators are built from runs twice: once on
//! `Eager` under the `cts_tensor::meter` instrumentation, and once on
//! `Cost`. The price must equal the count exactly. Then the meter stays on
//! around every pricing entry point — `StOperator::price`, `analyze_cost`
//! and `ExecPlan::static_cost` — and must record nothing: pricing runs no
//! kernel.

use cts_autograd::{Backend, Eager, EagerVal};
use cts_graph::{random_geometric_graph, GraphGenConfig};
use cts_nn::{AttentionKind, AttentionLayer, Gru, LayerNorm, Linear, Lstm};
use cts_ops::{
    build_operator, compact_set, full_set, node_mix, Cost, GraphContext, OpKind, StOperator,
};
use cts_runtime::{BlockPlan, ExecPlan, PlanSpec};
use cts_tensor::{init, meter, Tensor};
use cts_verify::{analyze_cost, ArchSpec, BlockSpec, ModelDims};
use rand::{rngs::SmallRng, SeedableRng};
use std::rc::Rc;

/// Run `$body` (an expression over backend `$b` and input value `$x`) on
/// `Eager` under the meter and on `Cost`, and require equal counts.
macro_rules! assert_priced {
    ($name:expr, $input:expr, |$b:ident, $x:ident| $body:expr) => {{
        let input: &Tensor = $input;
        meter::reset();
        meter::set_enabled(true);
        {
            let $b = &Eager;
            let $x = EagerVal::Borrowed(input);
            drop($body.into_tensor());
        }
        meter::set_enabled(false);
        let got = meter::snapshot();
        let cost = Cost::new();
        {
            let $b = &&cost;
            let $x = cost.input(input.shape());
            cost.output($body);
        }
        let want = cost.finish(&[]);
        assert_eq!(want.flops, got.flops, "{}: flops", $name);
        assert_eq!(want.bytes_read, got.bytes_read(), "{}: bytes read", $name);
        assert_eq!(want.bytes_written, got.bytes_written(), "{}: bytes written", $name);
        assert_eq!(want.kernel_calls, got.kernel_calls, "{}: kernel calls", $name);
        assert!(want.kernel_calls > 0, "{}: priced nothing", $name);
    }};
}

#[test]
fn layer_prices_match_the_meter_and_pricing_runs_no_kernel() {
    let mut rng = SmallRng::seed_from_u64(3);
    let seq = |rng: &mut SmallRng, l: usize| init::uniform(rng, [3, l, 4], -1.0, 1.0);

    let x = seq(&mut rng, 5);
    for bias in [true, false] {
        let lin = Linear::new(&mut rng, "lin", 4, 6, bias);
        assert_priced!(format!("Linear(bias={bias})"), &x, |b, v| lin.forward(b, &v));
    }
    let norm = LayerNorm::new("norm", 4);
    assert_priced!("LayerNorm", &x, |b, v| norm.forward(b, &v));
    let lstm = Lstm::new(&mut rng, "lstm", 4, 3);
    assert_priced!("Lstm", &x, |b, v| lstm.forward_sequence(b, &v));
    let gru = Gru::new(&mut rng, "gru", 4, 3);
    assert_priced!("Gru", &x, |b, v| gru.forward_sequence(b, &v));

    // Full attention, then ProbSparse with u = ⌈ln 12⌉ = 3 < L = 12 (the
    // sparse path) and with u = min(⌈10·ln 6⌉, 6) = L (the full fallback).
    for (kind, l) in [
        (AttentionKind::Full, 6),
        (AttentionKind::ProbSparse { factor: 1.0 }, 12),
        (AttentionKind::ProbSparse { factor: 10.0 }, 6),
    ] {
        let attn = AttentionLayer::new(&mut rng, "attn", 4, kind);
        let x = seq(&mut rng, l);
        assert_priced!(format!("{kind:?} at L={l}"), &x, |b, v| attn.forward(b, &v));
    }

    let support = init::uniform(&mut rng, [5, 5], 0.0, 1.0);
    let x = init::uniform(&mut rng, [2, 5, 3, 4], -1.0, 1.0);
    assert_priced!("node_mix", &x, |b, v| node_mix(b, &v, &b.constant(&support)));

    // Pricing itself: every operator kind, a whole-architecture analysis
    // and a compiled plan's static cost, with the meter on.
    let (n, t, d, f, k) = (5usize, 6usize, 4usize, 2usize, 2usize);
    let g = random_geometric_graph(&mut rng, &GraphGenConfig { n, sigma: 0.8, threshold: 0.1 });
    let ctx = Rc::new(GraphContext::from_graph(&g, k).with_adaptive(&mut rng, 3));
    let ops = compact_set();
    let edges: Vec<(usize, usize, Rc<dyn StOperator>)> = [(0, 1), (1, 2), (0, 2)]
        .iter()
        .zip(&ops[2..])
        .map(|(&(from, to), &kind)| {
            let op = build_operator(&mut rng, kind, "op", d, k, true);
            (from, to, Rc::from(op))
        })
        .collect();
    let arch = ArchSpec {
        dims: ModelDims {
            features: f,
            input_len: t,
            horizon: 3,
            d_model: d,
            num_nodes: Some(n),
            gcn_k: k,
            adaptive: true,
            adaptive_emb: 3,
        },
        blocks: vec![BlockSpec {
            m: 3,
            edges: edges.iter().map(|(from, to, op)| (*from, *to, op.kind())).collect(),
        }],
        backbone: vec![0],
    };
    let plan = ExecPlan::compile(PlanSpec {
        embed: Rc::new(Linear::new(&mut rng, "embed", f, d, true)),
        output: Rc::new(Linear::new(&mut rng, "output", t * d, 3, true)),
        ctx: Rc::clone(&ctx),
        blocks: vec![BlockPlan { m: 3, edges }],
        backbone: vec![0],
        out_scale: 1.0,
        out_shift: 0.0,
        input_len: t,
        d_model: d,
        nodes: n,
        features: f,
    })
    .expect("plan compiles");
    let every_op: Vec<_> = full_set()
        .into_iter()
        .map(|kind| build_operator(&mut rng, kind, "op", d, k, true))
        .collect();

    meter::reset();
    meter::set_enabled(true);
    for op in &every_op {
        assert!(op.price(&[2, n, t, d], &ctx).flops > 0 || op.kind() == OpKind::Identity);
    }
    let report = analyze_cost(&arch, 2).expect("accepted architecture prices");
    let static_cost = plan.static_cost(2);
    meter::set_enabled(false);
    assert_eq!(meter::snapshot(), meter::MeterSnapshot::default(), "pricing ran a kernel");
    assert_eq!(report.total, static_cost, "analyzer and plan disagree");
}
