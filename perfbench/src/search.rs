//! The `search` workload: Algorithm 1 through `autocts::joint_search`,
//! retraining of the fixed serving genotype through
//! `autocts::eval::evaluate_genotype`, and the compiled inference latency
//! of that architecture (the paper's Table 7 and Tables 27–34 costs).
//! No serving layer runs here.

use crate::checks;
use crate::common::{self, Metrics, Outcome};
use crate::stats;
use crate::trace::Tracer;
use autocts::eval::evaluate_genotype;
use autocts::{derive_genotype, joint_search, DerivedModel, SupernetModel};
use cts_data::batches_from_windows;
use cts_tensor::Tensor;
use rand::{rngs::SmallRng, SeedableRng};
use std::time::Instant;

/// Kernel-pool threads (caller included) for search and retraining: both
/// cores of the reference host, and the thread count the recorded
/// reference bits belong to.
pub const THREADS: usize = 2;
/// Search epochs per `joint_search` call.
const SEARCH_EPOCHS: usize = 1;
/// Retraining epochs per `evaluate_genotype` call.
const RETRAIN_EPOCHS: usize = 1;
/// Compiled inference windows per round.
const INFERENCE_PER_ROUND: usize = 800;
/// Fewest inference windows per run, so the p99 has ten samples beyond it.
const INFERENCE_MIN: usize = 1000;
/// Set-ups per run; `setup_s` is their median. A set-up takes a few
/// milliseconds here, so more repeats than serving's keep the median
/// steady at little cost.
const SETUP_REPEATS: usize = 31;
/// Seed of the retrained architecture's inference replica.
const REPLICA_SEED: u64 = 7;

/// Derived genotype and final pseudo-validation loss bits per workload
/// seed, recorded at [`THREADS`] threads: `seed<TAB>bits<TAB>genotype`.
const REFERENCE: &str = include_str!("../reference.tsv");

fn reference(seed: u64) -> Option<(u32, &'static str)> {
    REFERENCE.lines().find_map(|line| {
        let mut f = line.splitn(3, '\t');
        let s = f.next()?.parse::<u64>().ok()?;
        let bits = f.next()?.parse::<u32>().ok()?;
        let genotype = f.next()?;
        (s == seed).then_some((bits, genotype))
    })
}

/// Run the workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    cts_tensor::parallel::set_num_threads(THREADS);
    let traced = tr.on();
    let mut out = Outcome::default();
    let cfg = common::search_config(SEARCH_EPOCHS);

    // Set-up, repeated: data, windows and supernet initialisation.
    let mut setup_s = Vec::new();
    let mut init_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut win_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let p = common::prepare(seed, tr);
        let ti = Instant::now();
        let s = tr.enter("SupernetModel::new", None);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let net = SupernetModel::new(&mut rng, &cfg, &p.spec, &p.data.graph, &p.windows.scaler);
        tr.exit(s);
        init_s.push(ti.elapsed().as_secs_f64());
        drop(net);
        setup_s.push(t.elapsed().as_secs_f64());
        gen_s.push(p.generate_s);
        win_s.push(p.windows_s);
        prepared = Some(p);
    }
    let Some(p) = prepared else {
        out.errors.push("no set-up ran".into());
        return out;
    };
    out.setup_s = stats::median(&setup_s);
    let (spec, graph, windows) = (&p.spec, &p.data.graph, &p.windows);

    // Windows one call pushes through forward and backward: each step
    // takes a pseudo-train batch (w) and a pseudo-validation batch (Θ).
    let (pseudo_train, pseudo_val) = windows.pseudo_split();
    let train_b = batches_from_windows(&pseudo_train, cfg.batch_size);
    let val_b = batches_from_windows(&pseudo_val, cfg.batch_size);
    if train_b.is_empty() || val_b.is_empty() {
        out.errors.push("empty pseudo split".into());
        return out;
    }
    let steps_per_epoch = train_b.len();
    let windows_per_epoch: usize = (0..steps_per_epoch)
        .map(|i| train_b[i].0.shape()[0] + val_b[i % val_b.len()].0.shape()[0])
        .sum();

    let serving = common::serving_genotype(&cfg);
    let merged = windows.train_and_val().len();
    let retrain_steps = merged.div_ceil(cfg.batch_size) * RETRAIN_EPOCHS;
    let mut rng = SmallRng::seed_from_u64(REPLICA_SEED);
    let model = DerivedModel::new(&mut rng, &cfg, &serving, spec, graph, &windows.scaler);
    let plan = match model.compiled_plan() {
        Ok(p) => p,
        Err(e) => {
            out.errors
                .push(format!("serving genotype does not compile: {e}"));
            return out;
        }
    };
    let xs: Vec<Tensor> = windows
        .test
        .iter()
        .map(|w| {
            let mut shape = vec![1];
            shape.extend_from_slice(w.x.shape());
            w.x.clone().reshaped(shape)
        })
        .collect();
    let want = [1, spec.n, spec.output_len];

    // Rounds of one search call, one retraining call and a burst of
    // compiled inference, until the run's time is spent: a passing
    // slowdown of the host then touches every measurement a little.
    let started = Instant::now();
    let mut counters = SearchCounters::default();
    let (mut search_wps, mut retrain_wps, mut epoch_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut windows_done, mut search_secs, mut steps) = (0usize, 0.0f64, 0usize);
    let mut derive_ms = Vec::new();
    let mut lat_ms = Vec::new();
    let mut first: Option<(String, u32)> = None;
    while started.elapsed().as_secs_f64() < seconds || lat_ms.len() < INFERENCE_MIN {
        cts_tensor::parallel::set_num_threads(THREADS);
        common::reset_counters(traced);
        let t = Instant::now();
        let s = tr.enter("joint_search", None);
        let result = joint_search(&cfg, spec, graph, windows);
        tr.exit(s);
        let dt = t.elapsed().as_secs_f64();
        if traced {
            counters.add_call();
        }
        let attempted = steps_per_epoch * SEARCH_EPOCHS;
        match result {
            Ok((genotype, net, st)) => {
                let rolled_back = st.rollbacks * steps_per_epoch;
                out.attempted += (st.steps + rolled_back) as u64;
                out.failed += rolled_back as u64;
                let done = windows_per_epoch * st.steps / steps_per_epoch;
                windows_done += done;
                search_secs += dt;
                steps += st.steps;
                search_wps.push(done as f64 / dt);
                let loss = st.final_val_loss;
                if !loss.is_finite() || st.epochs.iter().any(|e| !e.val_loss.is_finite()) {
                    out.errors
                        .push(format!("search loss is not finite: {loss}"));
                }
                if let Err(e) = genotype.validate() {
                    out.errors.push(format!("derived genotype is invalid: {e}"));
                }
                let t = Instant::now();
                let s = tr.enter("derive_genotype", None);
                let again = derive_genotype(&net);
                tr.exit(s);
                derive_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match again {
                    Ok(g) if g == genotype => {}
                    Ok(g) => out.errors.push(format!(
                        "derive_genotype disagrees with joint_search: {} vs {}",
                        g.to_text(),
                        genotype.to_text()
                    )),
                    Err(e) => out.errors.push(format!("derive_genotype failed: {e}")),
                }
                let got = (genotype.to_text(), loss.to_bits());
                match &first {
                    None => first = Some(got),
                    Some(f) if *f != got => out.errors.push(format!(
                        "repeated search is not bit-identical: {} / {:#x} vs {} / {:#x}",
                        got.0, got.1, f.0, f.1
                    )),
                    Some(_) => {}
                }
            }
            Err(e) => {
                out.attempted += attempted as u64;
                out.failed += attempted as u64;
                out.errors.push(format!("joint_search failed: {e}"));
            }
        }

        let s = tr.enter("evaluate_genotype", None);
        let result = evaluate_genotype(&cfg, &serving, spec, graph, windows, RETRAIN_EPOCHS);
        tr.exit(s);
        out.attempted += retrain_steps as u64;
        match result {
            Ok(report) => {
                let o = report.overall;
                if ![o.mae, o.rmse].iter().all(|v| v.is_finite()) {
                    out.errors
                        .push(format!("retrained metrics not finite: {o:?}"));
                }
                let secs = report.train_secs_per_epoch * RETRAIN_EPOCHS as f64;
                retrain_wps.push((merged * RETRAIN_EPOCHS) as f64 / secs);
                epoch_s.push(report.train_secs_per_epoch);
            }
            Err(e) => {
                out.failed += retrain_steps as u64;
                out.errors.push(format!("evaluate_genotype failed: {e}"));
            }
        }

        // The retrained architecture's compiled plan, one window at a time
        // on serial kernels (as each serving shard runs it); the first
        // pass over the test windows is checked against the tape.
        cts_tensor::parallel::set_num_threads(1);
        plan.prewarm(1);
        for _ in 0..INFERENCE_PER_ROUND {
            let i = lat_ms.len();
            let x = &xs[i % xs.len()];
            let t = Instant::now();
            let s = tr.enter("try_run", Some(i as u64));
            let y = plan.try_run(x);
            tr.exit(s);
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match y {
                Ok(y) => {
                    if let Err(e) = checks::forecast(&y, &want) {
                        out.errors.push(format!("inference window {i}: {e}"));
                    } else if i < xs.len()
                        && checks::bits(&y) != checks::bits(&common::tape_forward(&model, x))
                    {
                        out.errors
                            .push(format!("compiled forecast {i} differs from the tape"));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("try_run failed: {e}"));
                }
            }
        }
    }
    out.windows_per_s = stats::median(&search_wps);
    match stats::latency(lat_ms) {
        Ok(l) => out.lat = l,
        Err(e) => out.errors.push(format!("inference latency: {e}")),
    }

    let mut m = Metrics::new();
    if traced {
        counters.metrics(&mut m, steps as f64, windows_done as f64, search_secs * 1e9);
        m.insert("core.derive_ms".into(), stats::median(&derive_ms));
    }
    if let Some((genotype, bits)) = &first {
        out.header.push(("genotype", format!("\"{genotype}\"")));
        out.header.push(("val_loss_bits", bits.to_string()));
        match reference(seed) {
            Some((rb, rg)) if rb == *bits && rg == genotype => {
                out.header.push(("reference", "\"match\"".into()));
            }
            Some((rb, rg)) => out.errors.push(format!(
                "seed {seed} differs from its recorded reference: {genotype} / {bits} vs {rg} / {rb}"
            )),
            None => out.header.push(("reference", "\"none recorded for this seed\"".into())),
        }
    }
    m.insert("search_windows_per_s".into(), out.windows_per_s);
    m.insert("lat_p50_ms.infer".into(), out.lat.p50);
    m.insert("lat_p99_ms.infer".into(), out.lat.p99);
    m.insert("retrain_windows_per_s".into(), stats::median(&retrain_wps));
    m.insert("nn.retrain_epoch_s".into(), stats::median(&epoch_s));
    m.insert("data.generate_s".into(), stats::median(&gen_s));
    m.insert("data.windows_s".into(), stats::median(&win_s));
    m.insert("core.supernet_init_s".into(), stats::median(&init_s));
    out.layer = m;
    out.lines.push(format!(
        "search: {} calls, {steps} bi-level steps, {windows_done} windows in {search_secs:.3} s; \
         retrain: {} calls; inference: {} windows",
        search_wps.len(),
        retrain_wps.len(),
        out.lat.count
    ));
    out.header.push(("kernel_threads", THREADS.to_string()));
    out.header.push(("inference_kernel_threads", "1".into()));
    out.header.push(("cache_hit_ratio", "0".into()));
    out
}

/// The program's counters summed over the `joint_search` calls only:
/// they are zeroed before each call and read right after it.
#[derive(Default)]
struct SearchCounters {
    forward_ns: u64,
    backward_ns: u64,
    adam_ns: u64,
    derive_ns: u64,
    tape_nodes: u64,
    peak_activation_scalars: u64,
    kernels: common::KernelSnap,
    dispatches: u64,
    wakes: u64,
    nested_serial: u64,
    busy_ns: u64,
    workers: usize,
    arena_hits: u64,
    arena_misses: u64,
    arena_resident_floats: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl SearchCounters {
    fn add_call(&mut self) {
        for (p, c) in cts_obs::phase_snapshot() {
            match p.name() {
                "forward" => self.forward_ns += c.ns,
                "backward" => self.backward_ns += c.ns,
                "arch_step" | "weight_step" => self.adam_ns += c.ns,
                "derive" => self.derive_ns += c.ns,
                _ => {}
            }
        }
        let tape = cts_obs::tape::snapshot();
        self.tape_nodes += tape.nodes;
        self.peak_activation_scalars = self
            .peak_activation_scalars
            .max(tape.peak_activation_scalars);
        for (name, c) in common::kernel_snapshot() {
            let k = self.kernels.entry(name).or_default();
            k.calls += c.calls;
            k.parallel_calls += c.parallel_calls;
            k.simd_calls += c.simd_calls;
            k.units += c.units;
            k.ns += c.ns;
        }
        let p = cts_tensor::parallel::pool_stats();
        self.dispatches += p.dispatches;
        self.wakes += p.wakes;
        self.nested_serial += p.nested_serial;
        self.busy_ns += p.busy_ns.iter().sum::<u64>();
        self.workers = p.workers;
        let a = cts_tensor::arena::stats();
        self.arena_hits += a.hits;
        self.arena_misses += a.misses;
        self.arena_resident_floats = a.resident_floats;
        let (count, bytes) = crate::alloc::snapshot();
        self.allocs += count;
        self.alloc_bytes += bytes;
    }

    /// Per-layer rows of the search calls, per bi-level step.
    fn metrics(&self, m: &mut Metrics, steps: f64, windows: f64, call_ns: f64) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let (fwd, bwd, adam) = (ms(self.forward_ns), ms(self.backward_ns), ms(self.adam_ns));
        // Step wall time: the calls minus the derivation each ends with.
        let step_ms = common::ratio(call_ns / 1e6 - ms(self.derive_ns), steps);
        m.insert("core.step_ms".into(), step_ms);
        m.insert("core.forward_ms_per_step".into(), common::ratio(fwd, steps));
        m.insert(
            "autograd.backward_ms_per_step".into(),
            common::ratio(bwd, steps),
        );
        m.insert("nn.adam_ms_per_step".into(), common::ratio(adam, steps));
        m.insert(
            "core.unattributed_ms_per_step".into(),
            step_ms - common::ratio(fwd + bwd + adam, steps),
        );
        m.insert(
            "autograd.tape_nodes_per_step".into(),
            common::ratio(self.tape_nodes as f64, steps),
        );
        m.insert(
            "autograd.peak_activation_mb".into(),
            self.peak_activation_scalars as f64 * 4.0 / (1 << 20) as f64,
        );
        common::kernel_metrics(m, &self.kernels, steps, windows);
        m.insert(
            "kernel.total_share".into(),
            common::ratio(ms(common::kernel_ns(&self.kernels)), fwd + bwd),
        );
        m.insert(
            "pool.dispatches_per_step".into(),
            common::ratio(self.dispatches as f64, steps),
        );
        m.insert(
            "pool.wakes_per_step".into(),
            common::ratio(self.wakes as f64, steps),
        );
        m.insert(
            "pool.nested_serial_per_step".into(),
            common::ratio(self.nested_serial as f64, steps),
        );
        m.insert(
            "pool.busy_share".into(),
            common::ratio(self.busy_ns as f64, self.workers as f64 * call_ns),
        );
        let lookups = (self.arena_hits + self.arena_misses) as f64;
        m.insert(
            "arena.hit_ratio".into(),
            common::ratio(self.arena_hits as f64, lookups),
        );
        m.insert(
            "arena.misses_per_step".into(),
            common::ratio(self.arena_misses as f64, steps),
        );
        m.insert(
            "arena.resident_mb".into(),
            self.arena_resident_floats as f64 * 4.0 / (1 << 20) as f64,
        );
        m.insert(
            "alloc.count_per_step".into(),
            common::ratio(self.allocs as f64, steps),
        );
        m.insert(
            "alloc.bytes_per_step".into(),
            common::ratio(self.alloc_bytes as f64, steps),
        );
    }
}
