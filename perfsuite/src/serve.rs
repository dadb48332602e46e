//! The two serving workloads: open-loop Poisson traffic through an
//! 8-card fleet, timed from the outside by a [`WorkloadSource`] wrapper.
//!
//! * `serve-churn` — three encoder classes on the default (unmanaged)
//!   path with its timing memo; two thirds of batches switch class, so
//!   the per-switch weight reload dominates host time.
//! * `serve-decode` — one decoder class with per-token deadlines, which
//!   selects the managed event path (continuous batching, KV
//!   accounting); it reprograms only at warm-up and never consults the
//!   memo, so it bypasses the reload.
//!
//! A run serves the same seeded trace repeatedly until its time is up.
//! Every repetition must reproduce the first one's report and final
//! state hash, so the simulated metrics are a function of the seed.

use crate::spans::Tracer;
use crate::stats::{self, Tail};
use crate::{repeated_setup, timed_region, Args, Host, Outcome, PINNED_SEED};
use protea_core::{Accelerator, RunPlan, RuntimeConfig, SynthesisConfig};
use protea_mem::kv::{attn_read_bytes, step_write_bytes, KvSpec};
use protea_model::{EncoderConfig, EncoderWeights, QuantSchedule, QuantizedEncoder};
use protea_platform::FpgaDevice;
use protea_serve::{
    BatchPolicy, Fleet, FleetConfig, MetricsMode, PoissonSource, ServeError, ServePlan,
    ServeReport, ServeRequest, SourceState, WorkloadSource,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const CARDS: usize = 8;
const MAX_BATCH: usize = 8;

/// One serving workload's traffic and its pinned fingerprint.
struct Spec {
    rate: f64,
    classes: &'static [(usize, usize, usize)],
    seq: (usize, usize),
    /// Requests (sessions) per repetition.
    requests: usize,
    /// `(tokens per session, per-token deadline ns)` for generation.
    decode: Option<(u32, u64)>,
    /// Arrivals per host sample. Large enough that the samples a run
    /// keeps stay small beside the program's own memory even when the
    /// program gets much faster.
    host_chunk: u64,
    host_tail_pct: f64,
    /// Arrivals per simulated sample.
    sim_chunk: u64,
    /// Final state hash of one repetition at [`PINNED_SEED`].
    pinned_hash: u64,
}

/// The soak's three capacity classes at 2500 req/s, SL 8–32.
const CHURN: Spec = Spec {
    rate: 2500.0,
    classes: &[(96, 4, 2), (64, 4, 1), (96, 4, 1)],
    seq: (8, 32),
    requests: 20_000,
    decode: None,
    host_chunk: 128,
    host_tail_pct: 98.0,
    sim_chunk: 32,
    pinned_hash: 0x3a7c_8344_55eb_7db3,
};

/// Generation sessions at 300/s: prompts of 8–16 tokens, 32 decode
/// steps each, 20 ms per-token deadline.
const DECODE: Spec = Spec {
    rate: 300.0,
    classes: &[(256, 8, 2)],
    seq: (8, 16),
    requests: 1500,
    decode: Some((32, 20_000_000)),
    host_chunk: 4,
    host_tail_pct: 99.0,
    sim_chunk: 4,
    pinned_hash: 0x2608_d88f_d5de_6c4d,
};

impl Spec {
    fn source(&self, seed: u64) -> PoissonSource {
        let src = PoissonSource::new(self.requests, self.rate, self.classes, self.seq, seed);
        match self.decode {
            Some((steps, deadline)) => src.with_decode(steps, Some(deadline)),
            None => src,
        }
    }

    /// Ops one repetition attempts: requests, or output tokens.
    fn ops(&self) -> u64 {
        self.requests as u64 * self.decode.map_or(1, |(steps, _)| u64::from(steps))
    }

    fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            cards: CARDS,
            policy: BatchPolicy { max_batch: MAX_BATCH, ..BatchPolicy::default() },
            ..FleetConfig::default()
        }
    }
}

/// Times the fleet's pulls from the generator: every `chunk`-th pull
/// closes a host sample (the chunk's wall time over its ops).
struct TimedSource<'a> {
    inner: PoissonSource,
    chunk: u64,
    ops_per_pull: f64,
    pulls: u64,
    mark: Instant,
    samples_ms: Vec<f32>,
    /// Sequence rows pulled (the output tokens of an encoder request).
    rows: u64,
    tracer: &'a mut Tracer,
}

impl WorkloadSource for TimedSource<'_> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn next_request(&mut self) -> Result<Option<ServeRequest>, ServeError> {
        let traced = self.tracer.enabled();
        let t0 = if traced { Some(Instant::now()) } else { None };
        let r = self.inner.next_request();
        if let Some(t0) = t0 {
            self.tracer.leaf("serve.PoissonSource::next_request", self.pulls, t0, Instant::now());
        }
        if let Ok(Some(req)) = &r {
            self.rows += req.seq_len as u64;
            self.pulls += 1;
            if self.pulls.is_multiple_of(self.chunk) {
                let now = Instant::now();
                let ops = self.chunk as f64 * self.ops_per_pull;
                self.samples_ms.push(((now - self.mark).as_secs_f64() * 1e3 / ops) as f32);
                self.mark = now;
            }
        }
        r
    }

    fn has_deadlines(&self) -> bool {
        self.inner.has_deadlines()
    }

    fn has_decode(&self) -> bool {
        self.inner.has_decode()
    }

    fn state(&self) -> SourceState {
        self.inner.state()
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), ServeError> {
        self.inner.restore(state)
    }
}

/// The first repetition's results, which every later one must match.
struct Served {
    report: ServeReport,
    hash: u64,
    rows: u64,
    reps: u64,
}

/// Conservation laws and the pinned fingerprint.
fn check(spec: &Spec, seed: u64, report: &ServeReport, hash: u64) -> Result<(), String> {
    let settled = report.completed + report.failed.len() + report.shed.len() + report.expired.len();
    if settled != report.submitted || report.submitted != spec.requests {
        return Err(format!(
            "request conservation broken: {} completed + {} failed + {} shed + {} expired \
             of {} submitted ({} generated)",
            report.completed,
            report.failed.len(),
            report.shed.len(),
            report.expired.len(),
            report.submitted,
            spec.requests
        ));
    }
    if spec.decode.is_some()
        && (report.tokens_emitted + report.tokens_shed != report.tokens_requested
            || report.tokens_requested != spec.ops())
    {
        return Err(format!(
            "token conservation broken: {} emitted + {} shed of {} requested",
            report.tokens_emitted, report.tokens_shed, report.tokens_requested
        ));
    }
    if seed == PINNED_SEED && hash != spec.pinned_hash {
        return Err(format!(
            "final state hash {hash:016x} differs from the pinned {:016x}",
            spec.pinned_hash
        ));
    }
    Ok(())
}

/// Serve the seeded trace repeatedly for `budget`.
fn region(
    spec: &Spec,
    seed: u64,
    fleet: &Fleet,
    budget: Duration,
    tracer: &mut Tracer,
    first: &mut Option<Served>,
) -> Result<Host, String> {
    let deadline = Instant::now() + budget;
    let mut host = Host::default();
    let mut rep = 0;
    loop {
        tracer.begin("serve.Fleet::run", rep);
        let start = Instant::now();
        let mut src = TimedSource {
            inner: spec.source(seed),
            chunk: spec.host_chunk,
            ops_per_pull: spec.ops() as f64 / spec.requests as f64,
            pulls: 0,
            mark: start,
            samples_ms: Vec::new(),
            rows: 0,
            tracer,
        };
        let plan = ServePlan::stream(&mut src)
            .metrics(MetricsMode::Sketch)
            .snapshot_every(spec.requests as u64);
        let outcome = fleet.run(plan).map_err(|e| format!("serving failed: {e}"))?;
        let wall = start.elapsed().as_secs_f64();
        let (samples, rows) = (std::mem::take(&mut src.samples_ms), src.rows);
        tracer.end();
        host.wall_s += wall;
        host.ops += spec.ops();
        host.samples_ms.extend(samples);
        host.segment(spec.ops(), wall);

        let hash = outcome.state_hash.ok_or("a snapshotting run reports its state hash")?;
        match first {
            None => {
                check(spec, seed, &outcome.report, hash)?;
                *first = Some(Served { report: outcome.report, hash, rows, reps: 1 });
            }
            Some(f) => {
                if f.report != outcome.report || f.hash != hash {
                    return Err(format!(
                        "repetition {rep} diverged: state hash {hash:016x} vs {:016x}",
                        f.hash
                    ));
                }
                f.reps += 1;
            }
        }
        rep += 1;
        if Instant::now() >= deadline {
            return Ok(host);
        }
    }
}

/// The simulated clock, sampled like the host clock: the mean simulated
/// latency of each chunk of consecutive arrivals. (Request latencies
/// are nearly discrete — most batches are flushed by the 2 ms timer at
/// one of a few service times — so their plain percentiles repeat
/// across seeds.) The seed's trace is served once more, untimed,
/// keeping every response; the replay must agree with the timed runs,
/// and the timed runs' sketch must sit within its documented 1.01 %
/// relative error of the exact percentiles.
fn sim_chunks(
    spec: &Spec,
    seed: u64,
    fleet: &Fleet,
    sketch: &ServeReport,
) -> Result<Vec<f64>, String> {
    let mut src = spec.source(seed);
    let outcome = fleet
        .run(ServePlan::stream(&mut src).collect_responses())
        .map_err(|e| format!("serving failed: {e}"))?;
    let r = &outcome.report;
    if (r.completed, r.batches, r.reprograms, r.tokens_emitted)
        != (sketch.completed, sketch.batches, sketch.reprograms, sketch.tokens_emitted)
    {
        return Err("the exact-metrics replay served a different run than the timed one".into());
    }
    for (name, exact, approx) in [
        ("p50", r.latency_ms.p50, sketch.latency_ms.p50),
        ("p99", r.latency_ms.p99, sketch.latency_ms.p99),
    ] {
        if (approx - exact).abs() > 0.0102 * exact {
            return Err(format!(
                "sketch {name} {approx} ms is not within 1.01 % of the exact {exact} ms"
            ));
        }
    }
    let responses = outcome.responses.ok_or("the replay collects responses")?;
    let chunks = spec.requests.div_ceil(spec.sim_chunk as usize);
    let (mut sum, mut n) = (vec![0.0; chunks], vec![0u32; chunks]);
    for resp in &responses {
        let c = (resp.id / spec.sim_chunk) as usize;
        sum[c] += resp.latency_ms();
        n[c] += 1;
    }
    Ok(sum.iter().zip(&n).filter(|(_, &n)| n > 0).map(|(s, &n)| s / f64::from(n)).collect())
}

fn setup(spec: &Spec) -> Result<(Fleet, f64), String> {
    // Fleet::try_new takes microseconds: repeat it for a stable median.
    repeated_setup(1001, || Fleet::try_new(spec.fleet_config()).map_err(|e| e.to_string()))
}

/// Common shape of both serving workloads; `layers` adds the
/// workload's own per-layer measurements on traced runs.
fn serve(
    spec: &Spec,
    args: &Args,
    tracer: &mut Tracer,
    layers: impl FnOnce(&Served, f64, &mut Tracer) -> BTreeMap<&'static str, f64>,
) -> Result<Outcome, String> {
    let (fleet, setup_s) = setup(spec)?;
    let mut first = None;
    let (host, host_traced) = timed_region(args, tracer, |budget, tr| {
        region(spec, args.seed, &fleet, budget, tr, &mut first)
    })?;
    let served = first.expect("at least one repetition ran");
    let r = &served.report;
    let sim = sim_chunks(spec, args.seed, &fleet, r)?;
    let reps = served.reps;
    let attempted = reps * spec.ops();
    let done = match spec.decode {
        Some(_) => r.tokens_emitted as f64 / r.tokens_requested as f64,
        None => r.completed as f64 / r.submitted as f64,
    };
    let failed = attempted - (done * attempted as f64).round() as u64;

    let (sim_tpot_ms, sim_slo_frac) = match spec.decode {
        // Generation: decode time per token; tokens on time over tokens
        // requested (a shed token misses).
        Some(_) => (r.decode_ms_per_token, r.tokens_on_time as f64 / r.tokens_requested as f64),
        // Encoders emit one row per input token: card-busy ms per row.
        // Requests carry no deadline, so every completion meets its SLO.
        None => {
            let busy_ms: f64 = r.card_utilization.iter().map(|u| u * r.makespan_s * 1e3).sum();
            (busy_ms / served.rows as f64, r.completed as f64 / r.submitted as f64)
        }
    };
    let wall_per_rep = host.wall_s / host.ops as f64 * spec.ops() as f64;
    let layers = if args.trace { layers(&served, wall_per_rep, tracer) } else { BTreeMap::new() };
    let mut base = serve_layers(r);
    base.extend(layers);
    base.insert("hls.synth_ms", synth_ms());
    Ok(Outcome {
        setup_s,
        host,
        host_traced,
        host_tail_pct: spec.host_tail_pct,
        sim_ms_p50: stats::median(&sim),
        sim_ms_tail: Tail::of(&sim, 99.0),
        sim_tpot_ms,
        sim_slo_frac,
        done_frac: done,
        attempted,
        failed,
        layers: base,
        notes: vec![
            format!(
                "{} repetitions of {} requests; final state hash {:016x}; {} reprograms in {} batches",
                reps, spec.requests, served.hash, r.reprograms, r.batches
            ),
            format!(
                "sim samples: mean latency of {}-arrival chunks; request latency p50 {} / p99 {} ms \
                 (sketch)",
                spec.sim_chunk, r.latency_ms.p50, r.latency_ms.p99
            ),
        ],
        tracer: std::mem::replace(tracer, Tracer::new(false)),
    })
}

/// Counters and simulated statistics straight from the report.
fn serve_layers(r: &ServeReport) -> BTreeMap<&'static str, f64> {
    let lookups = r.memo_hits + r.memo_misses;
    let util = &r.card_utilization;
    BTreeMap::from([
        ("serve.reprograms", r.reprograms as f64),
        ("serve.batches", r.batches as f64),
        ("serve.reprogram_ratio", r.reprograms as f64 / r.batches as f64),
        (
            "serve.memo_hit_ratio",
            if lookups == 0 { 0.0 } else { r.memo_hits as f64 / lookups as f64 },
        ),
        ("serve.mean_batch", r.mean_batch),
        ("serve.queue_ms_p50", r.queue_ms.p50),
        ("serve.queue_ms_p99", r.queue_ms.p99),
        ("serve.card_util_mean", util.iter().sum::<f64>() / util.len() as f64),
        ("serve.prefill_ms_mean", r.prefill_ms_mean),
    ])
}

/// Host ms of one paper-default synthesis onto the U55C (the HLS
/// resource and Fmax model).
fn synth_ms() -> f64 {
    let device = FpgaDevice::alveo_u55c();
    let syn = SynthesisConfig::paper_default();
    median_us(25, || {
        std::hint::black_box(syn.synthesize(&device));
    }) / 1e3
}

/// Median microseconds of `reps` calls of `f`.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&us)
}

fn accelerator(rt: RuntimeConfig) -> Result<Accelerator, String> {
    let mut acc = Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
        .map_err(|e| e.to_string())?;
    acc.program(rt).map_err(|e| e.to_string())?;
    Ok(acc)
}

pub fn churn(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    serve(&CHURN, args, tracer, |served, wall_per_rep_s, tr| {
        let r = &served.report;
        let mut layers = BTreeMap::new();
        // The reload a class switch costs: digest, load, and the clone
        // the fleet makes of the class image, per class image.
        let (mut digest, mut load, mut clone, mut eval) = (0.0, 0.0, 0.0, 0.0);
        for (i, &(d, h, l)) in CHURN.classes.iter().enumerate() {
            let cfg = EncoderConfig::new(d, h, l, 8);
            let w = QuantizedEncoder::from_float(
                &EncoderWeights::random(cfg, args.seed ^ i as u64),
                QuantSchedule::paper(),
            );
            let rt = RuntimeConfig { heads: h, layers: l, d_model: d, seq_len: 8 };
            let mut acc = accelerator(rt).expect("serving classes fit the paper design");
            tr.begin("bench.reload", i as u64);
            digest += median_us(15, || {
                std::hint::black_box(protea_core::weight_digest(&w));
            });
            clone += median_us(15, || {
                std::hint::black_box(w.clone());
            });
            let images: Vec<QuantizedEncoder> = (0..15).map(|_| w.clone()).collect();
            let mut images = images.into_iter();
            load += median_us(15, || {
                let image = images.next().expect("one image per load");
                acc.try_load_weights(image).expect("class image fits its program");
            });
            tr.end();
            // Pricing a batch of 8 at the largest sequence bucket.
            acc.program(RuntimeConfig { seq_len: CHURN.seq.1, ..rt }).expect("fits");
            eval += median_us(15, || {
                let (out, _) = acc.execute(RunPlan::timing(MAX_BATCH));
                std::hint::black_box(out.expect("timing plans cannot fail"));
            });
        }
        let n = CHURN.classes.len() as f64;
        let (digest, load, clone, eval) = (digest / n, load / n, clone / n, eval / n);
        layers.insert("core.weight_digest_us", digest);
        layers.insert("core.load_weights_us", load);
        layers.insert("model.encoder_clone_us", clone);
        layers.insert("core.timing_eval_us", eval);
        layers.insert(
            "serve.reload_share",
            r.reprograms as f64 * (load + clone) * 1e-6 / wall_per_rep_s,
        );
        let mut src = CHURN.source(args.seed);
        let ((), ms) = tr.time("serve.PoissonSource::next_request x N", 0, || {
            while let Ok(Some(req)) = src.next_request() {
                std::hint::black_box(req);
            }
        });
        layers.insert("serve.source_us", ms * 1e3 / CHURN.requests as f64);
        layers
    })
}

pub fn decode(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    serve(&DECODE, args, tracer, |served, wall_per_rep_s, tr| {
        let r = &served.report;
        let (d, h, l) = DECODE.classes[0];
        let (steps, _) = DECODE.decode.expect("the decode workload generates");
        let prompt = (DECODE.seq.0 + DECODE.seq.1) / 2;
        let mut layers = BTreeMap::new();
        // Pricing one decode round over the workload's mix of batch
        // widths and cache lengths, timing only.
        let rt = RuntimeConfig { heads: h, layers: l, d_model: d, seq_len: prompt };
        let acc = accelerator(rt).expect("the decode class fits the paper design");
        let mut us = Vec::new();
        tr.begin("bench.decode_price", 0);
        for batch in [1, 8, 32] {
            for step in 0..steps as usize {
                us.push(median_us(3, || {
                    let (out, _) = acc.execute(RunPlan::decode(step, prompt + step + 1, batch));
                    std::hint::black_box(out.expect("decode pricing fits"));
                }));
            }
        }
        tr.end();
        let price_us = stats::median(&us);
        layers.insert("core.decode_price_us", price_us);
        // Decode rounds ≈ tokens / mean batch, each priced once.
        let rounds = r.tokens_emitted as f64 / r.mean_batch.max(1.0);
        layers.insert("serve.price_share", rounds * price_us * 1e-6 / wall_per_rep_s);
        let spec = KvSpec {
            layers: l,
            d_model: d,
            self_rows: prompt + steps as usize,
            cross_rows: prompt,
        };
        layers.insert("mem.kv_session_bytes", spec.session_bytes() as f64);
        // One token at the mean cache length: write the new K/V row,
        // read cached K and V for self- and cross-attention.
        let self_rows = (prompt + steps as usize / 2) as u64;
        let per_layer = step_write_bytes(d)
            + 2 * attn_read_bytes(self_rows, d)
            + 2 * attn_read_bytes(prompt as u64, d);
        layers.insert("mem.kv_bytes_per_token", (per_layer * l as u64) as f64);
        layers
    })
}
