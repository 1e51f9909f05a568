//! `perfbench`: one workload run of the repository benchmark (see
//! `README.md` next to this crate). `run.py` builds and drives it:
//!
//! ```text
//! perfbench --workload <search|serve_hot> --seed <n> \
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints a `header` line, report lines, and last a JSON object with
//! `correct`, `attempted`, `failed`, `windows_per_s` and `metrics`
//! (values only; the runner attaches units). With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the program's metrics are switched
//! on, the per-layer rows are printed instead, and spans plus the run
//! log go to `--out`. Exits 1 when any correctness check fails.

mod alloc;
mod checks;
mod common;
mod schedule;
mod search;
mod serve;
mod stats;
mod trace;

use common::{Metrics, Outcome};
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Per-layer rows besides the per-kernel ones. Rows a workload does not
/// exercise read 0.
const LAYER_METRICS: &[&str] = &[
    "error_rate",
    "search_windows_per_s",
    "retrain_windows_per_s",
    "sat_rps",
    "lat_p50_ms.low",
    "lat_p99_ms.low",
    "lat_p50_ms.high",
    "lat_p99_ms.high",
    "lat_p50_ms.infer",
    "lat_p99_ms.infer",
    "bench.samples.low",
    "bench.samples.high",
    "bench.gen_lag_p99_ms",
    "bench.offered_rps",
    "obs.trace_overhead_share",
    "data.generate_s",
    "data.windows_s",
    "core.supernet_init_s",
    "core.step_ms",
    "core.forward_ms_per_step",
    "core.unattributed_ms_per_step",
    "core.derive_ms",
    "autograd.backward_ms_per_step",
    "autograd.tape_nodes_per_step",
    "autograd.peak_activation_mb",
    "nn.adam_ms_per_step",
    "nn.retrain_epoch_s",
    "kernel.total_share",
    "pool.dispatches_per_step",
    "pool.wakes_per_step",
    "pool.nested_serial_per_step",
    "pool.busy_share",
    "arena.hit_ratio",
    "arena.misses_per_step",
    "arena.resident_mb",
    "alloc.count_per_step",
    "alloc.bytes_per_step",
    "alloc.count_per_request",
    "runtime.front_setup_s",
    "runtime.submit_us_p50",
    "runtime.flush_ms_p50",
    "runtime.flush_ms_p99",
    "runtime.flush_ms_mean",
    "runtime.queue_peak",
    "runtime.batch_windows_mean",
    "runtime.plan_ms.b1",
    "runtime.plan_ms.bmax",
    "runtime.plan_gflops.bmax",
    "runtime.plan_ms_per_flush",
    "runtime.unattributed_ms",
    "runtime.cache_hit_ratio",
    "runtime.cache_evict_per_1k",
    "runtime.cache_expired_per_1k",
    "runtime.refused",
    "runtime.degraded",
];

/// Every per-layer row a traced run prints.
fn layer_metric_names() -> Vec<String> {
    let mut names: Vec<String> = LAYER_METRICS.iter().map(|n| n.to_string()).collect();
    for k in common::KERNELS {
        for row in ["ms_per_step", "calls_per_step", "us_per_window"] {
            names.push(format!("kernel.{k}.{row}"));
        }
    }
    for k in common::HOT_KERNELS {
        for row in ["parallel_share", "simd_share"] {
            names.push(format!("kernel.{k}.{row}"));
        }
    }
    names
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_map(m: &Metrics) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_f64(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let Some(dir) = &args.out else {
            eprintln!("perfbench: --trace 1 needs --out for the spans and the run log");
            return ExitCode::from(2);
        };
        cts_obs::set_metrics(Some(true));
        cts_obs::runlog::set_path(Some(&dir.join(format!("runlog-{}.jsonl", args.workload))));
    }
    let mut tr = Tracer::new(args.trace);
    let mut out: Outcome = match args.workload.as_str() {
        "search" => search::run(args.seed, args.seconds, &mut tr),
        "serve_hot" => serve::run(&serve::HOT, args.seed, args.seconds, &mut tr),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    cts_obs::runlog::flush();
    let peak_rss_mb = common::peak_rss_mb().unwrap_or_else(|e| {
        out.errors.push(e);
        0.0
    });
    if let Some(dir) = args.out.as_ref().filter(|_| args.trace) {
        let path = dir.join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = tr.write_jsonl(&path) {
            out.errors
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    for (name, (calls, total, own)) in trace::totals_by_name(tr.spans()) {
        out.lines.push(format!(
            "span {name}: {calls} calls, {:.3} ms total, {:.3} ms self",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    if tr.dropped() > 0 {
        out.lines.push(format!(
            "spans past the cap, not recorded: {}",
            tr.dropped()
        ));
    }

    let cfg = common::search_config(1);
    let spec = common::metr_la_spec();
    let mut header = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_f64(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()).to_string(),
        ),
        ("simd_detected", format!("\"{}\"", cts_tensor::simd::detected_name())),
        ("simd_active", format!("\"{}\"", cts_tensor::simd::level_name())),
        (
            "scale",
            format!(
                "{{\"nodes\": {}, \"steps\": {}, \"d_model\": {}, \"batch\": {}, \"m\": {}, \"b\": {}}}",
                spec.n,
                spec.t,
                cfg.d_model,
                cfg.batch_size,
                cfg.m,
                cfg.b
            ),
        ),
    ];
    header.append(&mut out.header);
    let header: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("header {{{}}}", header.join(", "));
    for line in &out.lines {
        println!("{line}");
    }
    let error_rate = common::ratio(out.failed as f64, out.attempted as f64);
    println!(
        "setup_s {:.4} s | peak_rss_mb {:.1} MiB | windows_per_s {:.3} windows/s | \
         lat_p50_ms {:.4} ms, lat_p99_ms {:.4} ms (n={}) | error_rate {error_rate} ratio \
         ({} of {})",
        out.setup_s,
        peak_rss_mb,
        out.windows_per_s,
        out.lat.p50,
        out.lat.p99,
        out.lat.count,
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        println!("error: {e}");
    }

    let mut metrics = Metrics::new();
    if args.trace {
        let names = layer_metric_names();
        for (k, v) in &out.layer {
            if !names.contains(k) {
                println!("error: unregistered per-layer metric {k}");
                out.errors.push(format!("unregistered metric {k}"));
            }
            metrics.insert(k.clone(), *v);
        }
        for name in names {
            metrics.entry(name).or_insert(0.0);
        }
        metrics.insert("error_rate".into(), error_rate);
    } else {
        metrics.insert("setup_s".into(), out.setup_s);
        metrics.insert("peak_rss_mb".into(), peak_rss_mb);
        metrics.insert("windows_per_s".into(), out.windows_per_s);
        metrics.insert("lat_p99_ms".into(), out.lat.p99);
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"windows_per_s\": {}, \
         \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_f64(out.windows_per_s),
        json_map(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
