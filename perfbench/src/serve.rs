//! The serving workload: seeded open-loop Poisson traffic into a
//! `ServeFront` serving two default-scale models, at a low fixed rate, a
//! high fixed rate, then a saturation phase that keeps every shard's
//! queue at least one micro-batch deep.
//!
//! `serve_hot` (live dashboards) asks for the current origin of a small
//! window set; the origin advances on a fixed schedule, each advance's
//! publisher requests compute and every client request is a cache hit,
//! and the horizon TTL expires stale entries.

use crate::checks;
use crate::common::{self, Metrics, Outcome};
use crate::schedule::{poisson_arrivals, SplitMix64};
use crate::stats;
use crate::trace::Tracer;
use autocts::DerivedModel;
use cts_data::{generate, DatasetSpec, Scaler};
use cts_graph::SensorGraph;
use cts_runtime::{
    AdmissionPolicy, FrontConfig, ServeFront, ShardCanary, ShardFactory, ShardModel,
};
use cts_tensor::Tensor;
use rand::{rngs::SmallRng, SeedableRng};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving shards (worker threads). With the generator, which mostly
/// waits inside `flush`, this keeps two threads busy: the reference
/// host's core count.
pub const SHARDS: usize = 2;
/// Kernel-pool threads per shard: kernels run serially on each shard.
pub const KERNEL_THREADS: usize = 1;
/// Micro-batch cap per model.
pub const MAX_BATCH: usize = 8;
/// Pending-queue bound per model, far above any queue this traffic builds.
const QUEUE_LIMIT: usize = 1 << 16;
/// Forecast-cache byte cap per model and shard: room for every live
/// entry.
const CACHE_BYTES: usize = 1 << 20;
/// Served models and the seeds their weights derive from.
const MODELS: [(&str, u64); 2] = [("autocts-a", 7), ("autocts-b", 13)];
/// Shares of the run in the low-rate, high-rate and saturation phases.
const PHASE_SHARES: [f64; 3] = [0.3, 0.4, 0.3];
/// The phases run in this many rounds, so a passing slowdown of the host
/// touches every phase a little instead of one phase entirely; latencies
/// pool across rounds and the saturation rate is the rounds' median.
const ROUNDS: usize = 9;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Salt separating the traffic series from the training series.
const TRAFFIC_SALT: u64 = 0x7472_6166;

/// One serving workload's traffic.
pub struct Traffic {
    /// Workload name.
    pub name: &'static str,
    /// Low fixed arrival rate (requests per second).
    pub low_rps: f64,
    /// High fixed arrival rate, near the knee.
    pub high_rps: f64,
    /// Latency limit on the high-rate p99, in ms.
    pub limit_ms: f64,
    /// Live window set: `(streams, seconds between origin advances)`.
    pub live: (usize, f64),
}

/// Live-dashboard traffic: many clients, a few windows, a moving origin.
pub const HOT: Traffic = Traffic {
    name: "serve_hot",
    low_rps: 500.0,
    high_rps: 2000.0,
    limit_ms: 100.0,
    live: (8, 0.25),
};

fn derive(
    seed: u64,
    spec: &DatasetSpec,
    graph: &SensorGraph,
    scaler: &Scaler,
) -> Result<(Rc<DerivedModel>, Rc<cts_runtime::ExecPlan>), String> {
    let cfg = common::search_config(1);
    let genotype = common::serving_genotype(&cfg);
    let mut rng = SmallRng::seed_from_u64(seed);
    let model = Rc::new(DerivedModel::new(
        &mut rng, &cfg, &genotype, spec, graph, scaler,
    ));
    let plan = model.compiled_plan().map_err(|e| e.to_string())?;
    Ok((model, plan))
}

/// Each shard derives both models on its own thread, gates each replica
/// on bit parity with its tape forward, keeps the tape as the last
/// fallback and prewarms the full micro-batch shape.
fn factory(spec: DatasetSpec, graph: SensorGraph, scaler: Scaler, probe: Tensor) -> ShardFactory {
    Arc::new(move |_shard| {
        let mut out = Vec::with_capacity(MODELS.len());
        for (id, seed) in MODELS {
            let (model, plan) =
                derive(seed, &spec, &graph, &scaler).map_err(cts_runtime::ServeError::Config)?;
            let reference = common::tape_forward(&model, &probe);
            plan.prewarm(MAX_BATCH);
            out.push(ShardModel {
                id: id.into(),
                plan,
                tape_fallback: Some(Box::new(move |x| Some(common::tape_forward(&model, x)))),
                canary: Some(ShardCanary {
                    probe: probe.clone(),
                    reference,
                    tol: 0.0,
                }),
            });
        }
        Ok(out)
    })
}

/// Standardised `[1, N, P, F]` request windows over consecutive origins
/// of a traffic series generated for this run.
fn traffic_windows(spec: &DatasetSpec, scaler: &Scaler, seed: u64, count: usize) -> Vec<Tensor> {
    let (n, p, f) = (spec.n, spec.input_len, spec.features);
    let mut tspec = spec.clone();
    tspec.t = count + p + spec.output_len;
    let values = generate(&tspec, seed ^ TRAFFIC_SALT).values;
    (0..count)
        .map(|start| {
            let mut x = Tensor::zeros([1, n, p, f]);
            for i in 0..n {
                for s in 0..p {
                    for k in 0..f {
                        *x.at_mut(&[0, i, s, k]) = values.at(&[i, start + s, k]);
                    }
                }
            }
            scaler.transform(&mut x);
            x
        })
        .collect()
}

/// Which request comes next, as `(model index, window index, origin)`,
/// and whether the program should compute it (a cache miss) or answer it
/// from the cache.
struct Source {
    rng: SplitMix64,
    live: Live,
}

struct Live {
    streams: usize,
    period_s: f64,
    origin: u64,
    /// Window index of stream `k` at origin `o`: `k * stride + o`.
    stride: usize,
}

struct Request {
    model: usize,
    window: usize,
    origin: u64,
    computes: bool,
    client: bool,
}

impl Source {
    fn client(&mut self) -> Request {
        let model = self.rng.below(MODELS.len());
        let l = &self.live;
        let k = self.rng.below(l.streams);
        Request {
            model,
            window: k * l.stride + l.origin as usize,
            origin: l.origin,
            computes: false,
            client: true,
        }
    }

    /// The origin advances due by `t` seconds into the run, each with
    /// the publisher requests that compute the new origin's forecasts.
    fn advances(&mut self, t: f64) -> Vec<Vec<Request>> {
        let l = &mut self.live;
        let mut out = Vec::new();
        while l.origin as f64 * l.period_s <= t && (l.origin as usize + 1) < l.stride {
            l.origin += 1;
            out.push(l.feed());
        }
        out
    }
}

impl Live {
    /// The publisher requests of the current origin: every stream, every
    /// model.
    fn feed(&self) -> Vec<Request> {
        (0..self.streams)
            .flat_map(|k| {
                (0..MODELS.len()).map(move |model| Request {
                    model,
                    window: k * self.stride + self.origin as usize,
                    origin: self.origin,
                    computes: true,
                    client: false,
                })
            })
            .collect()
    }
}

/// Per-phase request accounting.
#[derive(Clone, Copy, Default)]
struct PhaseCount {
    sent: u64,
    ok: u64,
    failed: u64,
}

impl PhaseCount {
    fn add(&mut self, o: PhaseCount) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
    }
}

/// Everything the generator measures and checks while traffic runs.
struct Generator<'a> {
    front: ServeFront,
    windows: &'a [Tensor],
    want: [usize; 3],
    tr: &'a mut Tracer,
    errors: Vec<String>,
    /// First answer per `(model, window)`: every later answer must match
    /// it bit for bit.
    first: HashMap<(usize, usize), Vec<u32>>,
    /// Requests submitted since the last flush: `(ticket, due, request,
    /// shard)`, due in seconds from the run start (`None` for requests
    /// sent with no due time).
    pending: Vec<(u64, Option<f64>, Request, usize)>,
    count: PhaseCount,
    submit_us: Vec<f64>,
    flush_ms: Vec<f64>,
    /// Per flush: `(flush ms, computed windows per (shard, model))`.
    flushes: Vec<(f64, Vec<usize>)>,
    computed: u64,
    submitted: u64,
    t0: Instant,
}

impl Generator<'_> {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn submit(&mut self, r: Request, due: Option<f64>) -> Result<(), String> {
        let (id, _) = MODELS[r.model];
        let x = self
            .windows
            .get(r.window)
            .ok_or_else(|| format!("window pool exhausted at {}", r.window))?
            .clone();
        let shard = self.front.shard_of(id, &x);
        // The front numbers tickets in submission order from 0, so the
        // span's request id is the ticket the call returns.
        let request = self.submitted;
        self.submitted += 1;
        let t = Instant::now();
        let s = self.tr.enter("submit_with", Some(request));
        let ticket = self.front.submit_with(id, x, None, r.origin);
        self.tr.exit(s);
        self.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.count.sent += 1;
        match ticket {
            Ok(ticket) => {
                self.pending.push((ticket, due, r, shard));
                Ok(())
            }
            Err(e) => {
                self.count.failed += 1;
                Err(format!("submit failed: {e}"))
            }
        }
    }

    /// Flush, check every answer, and return each client request's
    /// latency from its due time.
    fn flush(&mut self, lat_ms: &mut Vec<f64>) {
        let t = Instant::now();
        let s = self.tr.enter("flush", None);
        let answers = self.front.flush();
        self.tr.exit(s);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let done = self.now();
        self.flush_ms.push(ms);
        let pending = std::mem::take(&mut self.pending);
        let mut groups = vec![0usize; SHARDS * MODELS.len()];
        for (_, _, r, shard) in &pending {
            if r.computes {
                groups[shard * MODELS.len() + r.model] += 1;
                self.computed += 1;
            }
        }
        self.flushes.push((ms, groups));
        let answers = match answers {
            Ok(a) => a,
            Err(e) => {
                self.errors.push(format!("flush failed: {e}"));
                self.count.failed += pending.len() as u64;
                return;
            }
        };
        // Answers come sorted by ticket, and tickets were issued in
        // submission order: walk both lists together.
        let mut answers = answers.into_iter().peekable();
        for (ticket, due, r, _) in pending {
            while answers.next_if(|(t, _)| *t < ticket).is_some() {
                self.errors
                    .push(format!("answer for a ticket never sent, before {ticket}"));
            }
            match answers.next_if(|(t, _)| *t == ticket) {
                Some((_, Ok(y))) => {
                    if let Err(e) = checks::forecast(&y, &self.want) {
                        self.errors.push(format!("ticket {ticket}: {e}"));
                    }
                    match self.first.get(&(r.model, r.window)) {
                        None => {
                            self.first.insert((r.model, r.window), checks::bits(&y));
                        }
                        Some(b) if !b.iter().zip(y.data()).all(|(b, v)| *b == v.to_bits()) => {
                            self.errors.push(format!(
                                "ticket {ticket}: cached answer for window {} differs from its \
                                 first computed answer",
                                r.window
                            ))
                        }
                        Some(_) => {}
                    }
                    self.count.ok += 1;
                }
                _ => self.count.failed += 1,
            }
            if let (true, Some(due)) = (r.client, due) {
                lat_ms.push((done - due) * 1e3);
            }
        }
        if answers.next().is_some() {
            self.errors.push("answers for tickets never sent".into());
        }
    }

    /// Open loop: client requests at `arrivals` (seconds from `start`),
    /// origin advances by the clock, one flush whenever anything is
    /// pending. Returns client latencies from due time and the
    /// generator's lateness per request, both in ms.
    fn open_loop(
        &mut self,
        src: &mut Source,
        arrivals: &[f64],
        start: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut lat = Vec::with_capacity(arrivals.len());
        let mut lag = Vec::with_capacity(arrivals.len());
        let mut next = 0;
        while next < arrivals.len() || !self.pending.is_empty() {
            let now = self.now();
            for feed in src.advances(now) {
                for r in feed {
                    if let Err(e) = self.submit(r, None) {
                        self.errors.push(e);
                    }
                }
                self.flush(&mut lat);
            }
            while next < arrivals.len() && start + arrivals[next] <= self.now() {
                let due = start + arrivals[next];
                lag.push((self.now() - due) * 1e3);
                if let Err(e) = self.submit(src.client(), Some(due)) {
                    self.errors.push(e);
                }
                next += 1;
            }
            if !self.pending.is_empty() {
                self.flush(&mut lat);
            } else if next < arrivals.len() {
                let wait = start + arrivals[next] - self.now();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
            }
        }
        (lat, lag)
    }

    /// Drop what the warm-up measured, keeping the checks' state.
    fn reset(&mut self) {
        self.count = PhaseCount::default();
        self.submit_us.clear();
        self.flush_ms.clear();
        self.flushes.clear();
        self.computed = 0;
    }

    /// Saturation: before every flush, send at least `per_shard` client
    /// requests (cache hits) to every shard. Returns windows answered per
    /// second.
    fn saturate(
        &mut self,
        src: &mut Source,
        seconds: f64,
        per_shard: usize,
    ) -> Result<f64, String> {
        let start = self.now();
        let ok_before = self.count.ok;
        let mut sink = Vec::new();
        while self.now() - start < seconds {
            for feed in src.advances(self.now()) {
                for r in feed {
                    self.submit(r, None)?;
                }
                self.flush(&mut sink);
            }
            // Bounded, in case a shard holds no live key.
            let mut per = [0usize; SHARDS];
            let mut sent = 0;
            while per.iter().any(|&c| c < per_shard) && sent < 4 * per_shard * SHARDS {
                self.submit(src.client(), None)?;
                if let Some((_, _, _, shard)) = self.pending.last() {
                    per[*shard] += 1;
                }
                sent += 1;
            }
            self.flush(&mut sink);
        }
        Ok((self.count.ok - ok_before) as f64 / (self.now() - start))
    }
}

/// Run one serving workload for about `seconds`.
pub fn run(traffic: &Traffic, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    cts_tensor::parallel::set_num_threads(KERNEL_THREADS);
    let traced = tr.on();
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(seed);
    let phase_s: Vec<f64> = PHASE_SHARES.iter().map(|s| s * seconds).collect();
    let low_n = (traffic.low_rps * phase_s[0] / ROUNDS as f64).round() as usize;
    let high_n = (traffic.high_rps * phase_s[1] / ROUNDS as f64).round() as usize;
    let schedules: Vec<(Vec<f64>, Vec<f64>)> = (0..ROUNDS)
        .map(|_| {
            let low = poisson_arrivals(&mut rng, traffic.low_rps, low_n);
            (low, poisson_arrivals(&mut rng, traffic.high_rps, high_n))
        })
        .collect();
    // Windows the traffic needs: one per stream and origin.
    let (streams, period_s) = traffic.live;
    let stride = (seconds / period_s).ceil() as usize + 2;
    let pool = streams * stride;

    // Set-up, repeated: data, traffic windows, and the front (each shard
    // derives, canary-gates and prewarms its replicas).
    let mut setup_s = Vec::new();
    let mut front_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut win_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let p = common::prepare(seed, tr);
        let tw = Instant::now();
        let s = tr.enter("traffic_windows", None);
        let windows = traffic_windows(&p.spec, &p.windows.scaler, seed, pool);
        tr.exit(s);
        let traffic_s = tw.elapsed().as_secs_f64();
        let admission = match AdmissionPolicy::new(p.spec.null_value, 1.0) {
            Ok(a) => a,
            Err(e) => {
                out.errors.push(format!("admission policy: {e}"));
                return out;
            }
        };
        let cfg = FrontConfig {
            threads: SHARDS,
            max_batch: MAX_BATCH,
            queue_limit: QUEUE_LIMIT,
            retries: 1,
            admission,
            cache_bytes: CACHE_BYTES,
        };
        let probe = windows[0].clone();
        let f = factory(
            p.spec.clone(),
            p.data.graph.clone(),
            p.windows.scaler.clone(),
            probe,
        );
        let tf = Instant::now();
        let s = tr.enter("ServeFront::new", None);
        let front = ServeFront::new(cfg, f);
        tr.exit(s);
        front_s.push(tf.elapsed().as_secs_f64());
        setup_s.push(t.elapsed().as_secs_f64());
        gen_s.push(p.generate_s);
        win_s.push(p.windows_s + traffic_s);
        match front {
            Ok(front) => built = Some((front, p, windows)),
            Err(e) => {
                out.errors.push(format!("ServeFront::new failed: {e}"));
                return out;
            }
        }
    }
    let Some((front, p, windows)) = built else {
        out.errors.push("no set-up ran".into());
        return out;
    };
    out.setup_s = stats::median(&setup_s);
    let want = [1, p.spec.n, p.spec.output_len];

    let mut src = Source {
        rng: SplitMix64::new(seed.wrapping_add(1)),
        live: Live {
            streams,
            period_s,
            origin: 1,
            stride,
        },
    };
    let mut d = Generator {
        front,
        windows: &windows,
        want,
        tr,
        errors: Vec::new(),
        first: HashMap::new(),
        pending: Vec::new(),
        count: PhaseCount::default(),
        submit_us: Vec::new(),
        flush_ms: Vec::new(),
        flushes: Vec::new(),
        computed: 0,
        submitted: 0,
        t0: Instant::now(),
    };
    // The first origin's publisher requests, before any client asks.
    let mut sink = Vec::new();
    for r in src.live.feed() {
        if let Err(e) = d.submit(r, None) {
            d.errors.push(e);
        }
    }
    d.flush(&mut sink);
    common::reset_counters(traced);
    d.reset();

    let mut counts = [PhaseCount::default(); 3];
    let (mut low_lat, mut high_lat, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    let (mut high_s, mut sat_rps) = (0.0, Vec::new());
    let mut sat_err = None;
    for (low, high) in &schedules {
        let (lat, late) = d.open_loop(&mut src, low, d.now());
        low_lat.extend(lat);
        lag.extend(late);
        counts[0].add(std::mem::take(&mut d.count));
        let started = d.now();
        let (lat, late) = d.open_loop(&mut src, high, started);
        high_s += d.now() - started;
        high_lat.extend(lat);
        lag.extend(late);
        counts[1].add(std::mem::take(&mut d.count));
        match d.saturate(
            &mut src,
            phase_s[2] / ROUNDS as f64,
            MAX_BATCH * MODELS.len(),
        ) {
            Ok(rps) => sat_rps.push(rps),
            Err(e) => sat_err = Some(e),
        }
        counts[2].add(std::mem::take(&mut d.count));
    }
    let traffic_ns = d.t0.elapsed().as_nanos() as f64;
    let (allocs, _) = crate::alloc::snapshot();
    let snap = cts_obs::serve::snapshot();
    let shard_rows = cts_obs::serve::shard_rows();
    let kernels = common::kernel_snapshot();

    let mut errors = std::mem::take(&mut d.errors);
    out.windows_per_s = stats::median(&sat_rps);
    if let Some(e) = sat_err {
        errors.push(format!("saturation phase: {e}"));
    }
    if let Err(e) = checks::conservation(&snap) {
        errors.push(e);
    }
    if snap.cache_hit == 0 {
        errors.push("live traffic never hit the forecast cache".into());
    }
    let low_l = stats::latency(low_lat);
    let high_l = stats::latency(high_lat);
    match (&low_l, &high_l) {
        (Ok(_), Ok(h)) => out.lat = *h,
        (Err(e), _) => errors.push(format!("low-rate latency: {e}")),
        (_, Err(e)) => errors.push(format!("high-rate latency: {e}")),
    }
    let low_l = low_l.unwrap_or_default();
    let high_l = high_l.unwrap_or_default();
    for c in &counts {
        out.attempted += c.sent;
        out.failed += c.failed;
    }

    let mut m = Metrics::new();
    let requests = out.attempted as f64;
    m.insert("sat_rps".into(), out.windows_per_s);
    m.insert("lat_p50_ms.low".into(), low_l.p50);
    m.insert("lat_p99_ms.low".into(), low_l.p99);
    m.insert("lat_p50_ms.high".into(), high_l.p50);
    m.insert("lat_p99_ms.high".into(), high_l.p99);
    m.insert("bench.samples.low".into(), low_l.count as f64);
    m.insert("bench.samples.high".into(), high_l.count as f64);
    let mut lag_sorted = lag;
    lag_sorted.sort_by(f64::total_cmp);
    m.insert(
        "bench.gen_lag_p99_ms".into(),
        stats::percentile(&lag_sorted, 99).unwrap_or(0.0),
    );
    m.insert(
        "bench.offered_rps".into(),
        common::ratio(counts[1].sent as f64, high_s),
    );
    let lookups = (snap.cache_hit + snap.cache_miss) as f64;
    m.insert(
        "runtime.cache_hit_ratio".into(),
        common::ratio(snap.cache_hit as f64, lookups),
    );
    m.insert(
        "runtime.cache_evict_per_1k".into(),
        common::ratio(snap.cache_evict as f64 * 1e3, requests),
    );
    m.insert(
        "runtime.cache_expired_per_1k".into(),
        common::ratio(snap.cache_expired as f64 * 1e3, requests),
    );
    m.insert(
        "runtime.refused".into(),
        (snap.rejected_shape
            + snap.rejected_non_finite
            + snap.rejected_missing
            + snap.queue_shed
            + snap.deadline_shed) as f64,
    );
    m.insert(
        "runtime.degraded".into(),
        (snap.degraded_solo + snap.degraded_tape) as f64,
    );
    m.insert("runtime.front_setup_s".into(), stats::median(&front_s));
    m.insert("data.generate_s".into(), stats::median(&gen_s));
    m.insert("data.windows_s".into(), stats::median(&win_s));
    if traced {
        let computed = d.computed as f64;
        let mut submit = d.submit_us.clone();
        submit.sort_by(f64::total_cmp);
        let mut flush = d.flush_ms.clone();
        flush.sort_by(f64::total_cmp);
        m.insert(
            "runtime.submit_us_p50".into(),
            stats::percentile(&submit, 50).unwrap_or(0.0),
        );
        m.insert(
            "runtime.flush_ms_p50".into(),
            stats::percentile(&flush, 50).unwrap_or(0.0),
        );
        m.insert(
            "runtime.flush_ms_p99".into(),
            stats::percentile(&flush, 99).unwrap_or(0.0),
        );
        m.insert(
            "runtime.queue_peak".into(),
            shard_rows.iter().map(|r| r.2).max().unwrap_or(0) as f64,
        );
        let batches: usize = d
            .flushes
            .iter()
            .flat_map(|(_, g)| g.iter().map(|&k| k.div_ceil(MAX_BATCH)))
            .sum();
        m.insert(
            "runtime.batch_windows_mean".into(),
            common::ratio(computed, batches as f64),
        );
        common::kernel_metrics(&mut m, &kernels, 0.0, computed);
        common::pool_metrics(&mut m, computed, traffic_ns);
        m.insert(
            "alloc.count_per_request".into(),
            common::ratio(allocs as f64, requests),
        );
        let flushes = std::mem::take(&mut d.flushes);
        drop(d);
        plan_layers(&mut m, &p, &windows, &flushes, tr, &mut errors);
    }
    out.errors = errors;
    out.layer = m;
    out.header
        .push(("traffic", format!("\"{}\"", traffic.name)));
    out.header.push(("front_threads", SHARDS.to_string()));
    out.header
        .push(("kernel_threads", KERNEL_THREADS.to_string()));
    out.header.push(("max_batch", MAX_BATCH.to_string()));
    out.header.push(("low_rps", traffic.low_rps.to_string()));
    out.header.push(("high_rps", traffic.high_rps.to_string()));
    out.header
        .push(("lat_limit_ms", traffic.limit_ms.to_string()));
    out.header.push((
        "cache_hit_ratio",
        common::ratio(snap.cache_hit as f64, lookups).to_string(),
    ));
    for (name, c) in ["low", "high", "saturation"].iter().zip(&counts) {
        out.lines.push(format!(
            "phase {name}: sent {}, succeeded {}, failed {}",
            c.sent, c.ok, c.failed
        ));
    }
    out.lines.push(format!(
        "high-rate p99 {:.3} ms against the {} ms limit: {}",
        high_l.p99,
        traffic.limit_ms,
        if high_l.p99 <= traffic.limit_ms {
            "met"
        } else {
            "missed"
        }
    ));
    out
}

/// Plan rows from a main-thread replica: `try_run` time at every batch
/// size, the static FLOP count at the full batch, and how much of the
/// mean flush those plan runs account for.
fn plan_layers(
    m: &mut Metrics,
    p: &common::Prepared,
    windows: &[Tensor],
    flushes: &[(f64, Vec<usize>)],
    tr: &mut Tracer,
    errors: &mut Vec<String>,
) {
    let (_, plan) = match derive(MODELS[0].1, &p.spec, &p.data.graph, &p.windows.scaler) {
        Ok(r) => r,
        Err(e) => {
            errors.push(format!("main-thread replica: {e}"));
            return;
        }
    };
    plan.prewarm(MAX_BATCH);
    let shape = windows[0].shape()[1..].to_vec();
    let mut plan_ms = [0.0; MAX_BATCH + 1];
    for (b, slot) in plan_ms.iter_mut().enumerate().skip(1) {
        let mut data = Vec::new();
        for w in windows.iter().take(b) {
            data.extend_from_slice(w.data());
        }
        let mut full = vec![b];
        full.extend_from_slice(&shape);
        let x = Tensor::from_vec(full, data);
        let mut samples = Vec::new();
        for _ in 0..7 {
            let t = Instant::now();
            let s = tr.enter("try_run", None);
            let y = plan.try_run(&x);
            tr.exit(s);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = y {
                errors.push(format!("replica try_run at batch {b}: {e}"));
                return;
            }
        }
        *slot = stats::median(&samples);
    }
    let flops = plan.static_cost(MAX_BATCH).flops as f64;
    m.insert("runtime.plan_ms.b1".into(), plan_ms[1]);
    m.insert("runtime.plan_ms.bmax".into(), plan_ms[MAX_BATCH]);
    m.insert(
        "runtime.plan_gflops.bmax".into(),
        common::ratio(flops / 1e9, plan_ms[MAX_BATCH] / 1e3),
    );
    // Predicted plan time of a flush: its shards run in parallel, each
    // executing its models' micro-batches one after another.
    let predicted: Vec<f64> = flushes
        .iter()
        .map(|(_, groups)| {
            groups
                .chunks(MODELS.len())
                .map(|shard| {
                    shard
                        .iter()
                        .map(|&k| {
                            let full = k / MAX_BATCH;
                            let rest = k % MAX_BATCH;
                            full as f64 * plan_ms[MAX_BATCH] + plan_ms[rest]
                        })
                        .sum::<f64>()
                })
                .fold(0.0, f64::max)
        })
        .collect();
    let n = flushes.len().max(1) as f64;
    let flush_mean = flushes.iter().map(|(ms, _)| ms).sum::<f64>() / n;
    let plan_mean = predicted.iter().sum::<f64>() / n;
    m.insert("runtime.flush_ms_mean".into(), flush_mean);
    m.insert("runtime.plan_ms_per_flush".into(), plan_mean);
    m.insert("runtime.unattributed_ms".into(), flush_mean - plan_mean);
}
