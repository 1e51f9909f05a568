//! What the workloads share: the dataset at the experiment harness's
//! default scale, the fixed serving genotype, metric bookkeeping and
//! process-level readings.

use crate::stats::Latency;
use crate::trace::Tracer;
use autocts::{BlockGenotype, DerivedModel, Genotype, SearchConfig};
use cts_autograd::Tape;
use cts_data::{build_windows, generate, CtsData, DatasetSpec, SplitWindows};
use cts_nn::Forecaster;
use cts_ops::OpKind;
use cts_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sensors at the experiment harness's default scale (`NODES`).
pub const NODES: usize = 16;
/// Timestamps at the experiment harness's default scale (`STEPS`).
pub const STEPS: usize = 1200;
/// Windows kept per split (`WINDOW_CAP`).
pub const WINDOW_CAP: usize = 48;
/// Mini-batch size (`BATCH`).
pub const BATCH: usize = 8;
/// Hidden width (`D_MODEL`).
pub const D_MODEL: usize = 16;

/// Metric values by name; the runner attaches units.
pub type Metrics = BTreeMap<String, f64>;

/// What one workload run measured and found.
#[derive(Default)]
pub struct Outcome {
    /// Correctness failures (any makes the run incorrect).
    pub errors: Vec<String>,
    /// Operations attempted (steps or requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Saturated throughput in windows per second.
    pub windows_per_s: f64,
    /// The workload's request latency.
    pub lat: Latency,
    /// Per-layer values (only complete in traced runs).
    pub layer: Metrics,
    /// Extra header fields as `(key, JSON value)`.
    pub header: Vec<(&'static str, String)>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// A generated, windowed dataset and how long each stage took.
pub struct Prepared {
    /// The scaled METR-LA stand-in.
    pub spec: DatasetSpec,
    /// Generated series and sensor graph.
    pub data: CtsData,
    /// Standardised windows with chronological splits.
    pub windows: SplitWindows,
    /// Seconds in `generate`.
    pub generate_s: f64,
    /// Seconds in `build_windows`.
    pub windows_s: f64,
}

fn name_fingerprint(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The scaled METR-LA spec exactly as the experiment harness sizes it at
/// its default scale (the per-dataset size jitter included).
pub fn metr_la_spec() -> DatasetSpec {
    let spec = DatasetSpec::metr_la();
    let fp = name_fingerprint(&spec.name);
    let nodes = NODES + (fp % 5) as usize;
    let steps = STEPS + (fp % 7) as usize * 40;
    spec.scaled(nodes as f32 / spec.n as f32, steps as f32 / spec.t as f32)
}

/// Generate and window the dataset for `seed` (the harness's windowing:
/// a stride that leaves about four windows per kept one, capped splits).
pub fn prepare(seed: u64, tr: &mut Tracer) -> Prepared {
    let spec = metr_la_spec();
    let t = Instant::now();
    let s = tr.enter("generate", None);
    let data = generate(&spec, seed);
    tr.exit(s);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let stride = (spec.max_windows() / (4 * WINDOW_CAP)).max(1);
    let s = tr.enter("build_windows", None);
    let windows = build_windows(&data, stride, WINDOW_CAP);
    tr.exit(s);
    let windows_s = t.elapsed().as_secs_f64();
    Prepared {
        spec,
        data,
        windows,
        generate_s,
        windows_s,
    }
}

/// The search configuration at the harness's default scale. Its seed is
/// part of the system under test, not of the workload: the workload seed
/// only shapes the data.
pub fn search_config(epochs: usize) -> SearchConfig {
    SearchConfig {
        d_model: D_MODEL,
        batch_size: BATCH,
        epochs,
        seed: 1,
        ..SearchConfig::default()
    }
}

/// The fixed genotype that is retrained and served: temporal conv,
/// ProbSparse attention and diffusion graph conv in every block, blocks
/// chained.
pub fn serving_genotype(cfg: &SearchConfig) -> Genotype {
    let block = BlockGenotype {
        m: 3,
        edges: vec![
            (0, 1, OpKind::Gdcc),
            (1, 2, OpKind::InformerT),
            (0, 2, OpKind::Dgcn),
        ],
    };
    Genotype {
        blocks: vec![block; cfg.b],
        backbone: (0..cfg.b).collect(),
    }
}

/// The model's tape forward on `x`: the reference a compiled plan must
/// reproduce bit for bit.
pub fn tape_forward(model: &DerivedModel, x: &Tensor) -> Tensor {
    let tape = Tape::new();
    let xv = tape.constant(x.clone());
    model.forward(&tape, &xv).value()
}

/// Process peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Kernels whose per-kernel rows are reported.
pub const KERNELS: [&str; 17] = [
    "matmul",
    "matmul.nt",
    "matmul.tn",
    "matmul.transpose_last2",
    "elementwise.zip",
    "elementwise.zip_broadcast",
    "elementwise.zip_exact",
    "elementwise.unary",
    "elementwise.reduce_to_shape",
    "reduce.sum_axis",
    "reduce.sum_axis_grad",
    "reduce.max_axis",
    "softmax.forward",
    "softmax.grad",
    "conv.temporal",
    "conv.temporal_grad_x",
    "conv.temporal_grad_w",
];

/// The six kernels whose parallel and SIMD shares are reported.
pub const HOT_KERNELS: [&str; 6] = [
    "matmul",
    "matmul.nt",
    "matmul.tn",
    "elementwise.zip_broadcast",
    "elementwise.reduce_to_shape",
    "reduce.sum_axis",
];

/// Kernel counters by name.
pub type KernelSnap = BTreeMap<&'static str, cts_obs::KernelCounters>;

/// Current counters of every registered kernel.
pub fn kernel_snapshot() -> KernelSnap {
    cts_tensor::parallel::kernel_stats().into_iter().collect()
}

/// `x / y`, or 0 when `y` is 0.
pub fn ratio(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        0.0
    } else {
        x / y
    }
}

/// Per-kernel rows: time and calls per step (`steps`, 0 when the
/// workload has no steps) and microseconds per window, plus the parallel
/// and SIMD shares of the hottest kernels.
pub fn kernel_metrics(m: &mut Metrics, k: &KernelSnap, steps: f64, windows: f64) {
    for name in KERNELS {
        let c = k.get(name).copied().unwrap_or_default();
        m.insert(
            format!("kernel.{name}.ms_per_step"),
            ratio(c.ns as f64 / 1e6, steps),
        );
        m.insert(
            format!("kernel.{name}.calls_per_step"),
            ratio(c.calls as f64, steps),
        );
        m.insert(
            format!("kernel.{name}.us_per_window"),
            ratio(c.ns as f64 / 1e3, windows),
        );
    }
    for name in HOT_KERNELS {
        let c = k.get(name).copied().unwrap_or_default();
        let calls = c.calls as f64;
        m.insert(
            format!("kernel.{name}.parallel_share"),
            ratio(c.parallel_calls as f64, calls),
        );
        m.insert(
            format!("kernel.{name}.simd_share"),
            ratio(c.simd_calls as f64, calls),
        );
    }
}

/// Sum of kernel nanoseconds.
pub fn kernel_ns(k: &KernelSnap) -> u64 {
    k.values().map(|c| c.ns).sum()
}

/// Zero the program's counters and, in traced runs, start counting
/// allocations, so the next phase's rows cover that phase alone.
pub fn reset_counters(traced: bool) {
    cts_tensor::metrics::reset();
    cts_obs::reset_phases();
    cts_obs::tape::reset();
    cts_obs::serve::reset();
    crate::alloc::reset();
    crate::alloc::set_counting(traced);
}

/// Pool rows: dispatches, wakes and nested serial regions per `unit`
/// (a step or a window), and the workers' busy share of `wall_ns`.
pub fn pool_metrics(m: &mut Metrics, units: f64, wall_ns: f64) {
    let p = cts_tensor::parallel::pool_stats();
    m.insert(
        "pool.dispatches_per_step".into(),
        ratio(p.dispatches as f64, units),
    );
    m.insert("pool.wakes_per_step".into(), ratio(p.wakes as f64, units));
    m.insert(
        "pool.nested_serial_per_step".into(),
        ratio(p.nested_serial as f64, units),
    );
    let busy: u64 = p.busy_ns.iter().sum();
    m.insert(
        "pool.busy_share".into(),
        ratio(busy as f64, p.workers as f64 * wall_ns),
    );
}
