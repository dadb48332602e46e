//! `generate`: one session at a time, closed loop. Each op is one
//! KV-cached decode step through `Accelerator::execute` on a
//! `RunPlan::decode(..).with_session(..)` with packed weights: the only
//! workload where the `tensor` kernels run at m = 1 and
//! `model::decoder` runs functionally. The decoder has d = 768, 8 heads
//! and 2 layers and attends to a 32-row encoder memory; sessions run a
//! seeded 48–80 tokens (64 on average).

use crate::spans::Tracer;
use crate::stats::{self, Fnv, Tail};
use crate::{repeated_setup, timed_region, Args, Host, Outcome, PINNED_SEED};
use protea_core::{Accelerator, DecodeSession, RunPlan, RuntimeConfig, SynthesisConfig};
use protea_model::{
    DecoderKvCache, DecoderWeights, EncoderConfig, PackedDecoder, QuantSchedule, QuantizedDecoder,
};
use protea_platform::FpgaDevice;
use protea_tensor::{matmul_i8_i32_packed, Matrix, PackedWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const D: usize = 768;
const HEADS: usize = 8;
const LAYERS: usize = 2;
const MEMORY_ROWS: usize = 32;
/// Decode steps priced for the simulated metrics (the first sessions'
/// steps in order), enough for ten beyond the p99.
const SIM_STEPS: usize = 1200;
const HOST_TAIL_PCT: f64 = 99.0;
/// Decode steps per host segment (about half a second).
const SEGMENT_OPS: u64 = 256;
const SIM_TAIL_PCT: f64 = 99.0;
/// Fingerprint of session 0's outputs at [`PINNED_SEED`], computed with
/// `PROTEA_BACKEND=reference`.
const PINNED_SESSION: u64 = 0xfbb6_585a_c055_5fa6;

/// A session's seeded inputs.
struct Session {
    tokens: usize,
    memory: Matrix<i8>,
    first_row: Matrix<i8>,
}

fn session(seed: u64, s: u64) -> Session {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ s);
    let tokens = rng.gen_range(48..=80);
    let memory = Matrix::from_fn(MEMORY_ROWS, D, |_, _| rng.gen_range(-128i32..128) as i8);
    let first_row = Matrix::from_fn(1, D, |_, _| rng.gen_range(-128i32..128) as i8);
    Session { tokens, memory, first_row }
}

struct Ready {
    accel: Accelerator,
    dec: QuantizedDecoder,
    packed: PackedDecoder,
    synth_ms: f64,
    pack_ms: f64,
}

fn setup(weights: &DecoderWeights, seed: u64) -> Result<Ready, String> {
    let t = Instant::now();
    let mut accel =
        Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
            .map_err(|e| e.to_string())?;
    let synth_ms = t.elapsed().as_secs_f64() * 1e3;
    accel
        .program(RuntimeConfig { heads: HEADS, layers: LAYERS, d_model: D, seq_len: MEMORY_ROWS })
        .map_err(|e| e.to_string())?;
    let dec = QuantizedDecoder::from_float(weights, QuantSchedule::paper());
    let t = Instant::now();
    let packed = dec.pack();
    let pack_ms = t.elapsed().as_secs_f64() * 1e3;
    // Warm-up: one step of a throwaway session.
    let warm = session(seed, u64::MAX);
    let mut cache = DecoderKvCache::new(&dec, &warm.memory);
    let plan = RunPlan::decode(0, 1, 1).with_session(DecodeSession {
        decoder: &dec,
        packed: Some(&packed),
        cache: &mut cache,
        x_row: &warm.first_row,
    });
    accel.execute(plan).0.map_err(|e| e.to_string())?;
    Ok(Ready { accel, dec, packed, synth_ms, pack_ms })
}

/// Decode sessions 0, 1, … until `budget` is spent (at least one op).
fn region(
    r: &Ready,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    session0: &mut Option<u64>,
    sim_ms: &BTreeMap<(u64, usize), f64>,
) -> Result<Host, String> {
    let deadline = Instant::now() + budget;
    let start = Instant::now();
    let mut host = Host::default();
    let mut s = 0;
    let mut seg_start = start;
    'sessions: loop {
        let sess = session(seed, s);
        let t = Instant::now();
        let mut cache = DecoderKvCache::new(&r.dec, &sess.memory);
        tracer.leaf("model.DecoderKvCache::new", host.ops, t, Instant::now());
        let mut row = sess.first_row;
        let mut fp = Fnv::default();
        for pos in 0..sess.tokens {
            let plan = RunPlan::decode(pos, pos + 1, 1).with_session(DecodeSession {
                decoder: &r.dec,
                packed: Some(&r.packed),
                cache: &mut cache,
                x_row: &row,
            });
            let t = Instant::now();
            let out = r.accel.execute(plan).0.map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            tracer.leaf("core.Accelerator::execute(decode)", host.ops, t, t1);
            host.samples_ms.push(((t1 - t).as_secs_f64() * 1e3) as f32);
            host.ops += 1;
            if host.ops % SEGMENT_OPS == 0 {
                let now = Instant::now();
                host.segment(SEGMENT_OPS, (now - seg_start).as_secs_f64());
                seg_start = now;
            }
            if let Some(&priced) = sim_ms.get(&(s, pos)) {
                if priced != out.latency_ms {
                    return Err(format!(
                        "session {s} step {pos}: priced {priced} ms, ran {}",
                        out.latency_ms
                    ));
                }
            }
            fp.i8s(out.outputs[0].as_slice());
            row = out.outputs[0].map(|v| v.saturating_add(1));
            if s > 0 && Instant::now() >= deadline {
                break 'sessions;
            }
        }
        if s == 0 && session0.is_none() {
            *session0 = Some(fp.0);
        }
        s += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    host.wall_s = start.elapsed().as_secs_f64();
    Ok(host)
}

/// Replay session 0 on the scalar reference path and compare.
fn check_session0(r: &Ready, seed: u64, got: u64) -> Result<(), String> {
    let sess = session(seed, 0);
    let mut cache = DecoderKvCache::new(&r.dec, &sess.memory);
    let mut row = sess.first_row;
    let mut fp = Fnv::default();
    for _ in 0..sess.tokens {
        let out = r.dec.try_decode_step(&mut cache, &row).map_err(|e| e.to_string())?;
        fp.i8s(out.as_slice());
        row = out.map(|v| v.saturating_add(1));
    }
    if fp.0 != got {
        return Err("session 0 differs from the scalar reference decoder".into());
    }
    if seed == PINNED_SEED && got != PINNED_SESSION {
        return Err(format!(
            "session 0 fingerprint {got:016x} differs from the pinned {PINNED_SESSION:016x}"
        ));
    }
    Ok(())
}

pub fn generate(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    // Random float weights are the benchmark's own input, made before
    // set-up is timed; quantizing and packing them is set-up.
    let weights = DecoderWeights::random(EncoderConfig::new(D, HEADS, LAYERS, 1), args.seed);
    let (ready, setup_s) = repeated_setup(3, || setup(&weights, args.seed))?;

    let mut sim = Vec::new();
    let mut sim_ms = BTreeMap::new();
    let mut stall = 0.0;
    for s in 0.. {
        if sim.len() == SIM_STEPS {
            break;
        }
        for pos in 0..session(args.seed, s).tokens.min(SIM_STEPS - sim.len()) {
            let (out, _) = ready.accel.execute(RunPlan::decode(pos, pos + 1, 1));
            let out = out.map_err(|e| e.to_string())?;
            stall += out.report.total_stall().get() as f64 / out.report.total.get() as f64;
            sim.push(out.latency_ms);
            sim_ms.insert((s, pos), out.latency_ms);
        }
    }

    let mut session0 = None;
    let (host, host_traced) = timed_region(args, tracer, |budget, tr| {
        region(&ready, args.seed, budget, tr, &mut session0, &sim_ms)
    })?;
    let session0 = match session0 {
        Some(fp) => fp,
        None => return Err("the run ended before session 0 completed".into()),
    };
    check_session0(&ready, args.seed, session0)?;

    let mut layers = BTreeMap::new();
    if args.trace {
        layers =
            decode_layers(&ready, args.seed, tracer, stats::median(&host.fastest_quarter().1))?;
        layers.insert("hls.synth_ms", ready.synth_ms);
        layers.insert("core.pack_ms", ready.pack_ms);
        layers.insert("core.sim_stall_frac", stall / sim.len() as f64);
    }
    let ops = host.ops + host_traced.as_ref().map_or(0, |h| h.ops);
    Ok(Outcome {
        setup_s,
        host,
        host_traced,
        host_tail_pct: HOST_TAIL_PCT,
        sim_ms_p50: stats::median(&sim),
        sim_ms_tail: Tail::of(&sim, SIM_TAIL_PCT),
        // One session at a time: a step emits one token.
        sim_tpot_ms: sim.iter().sum::<f64>() / sim.len() as f64,
        // Closed loop without deadlines: every completed op is on time.
        sim_slo_frac: 1.0,
        done_frac: 1.0,
        attempted: ops,
        failed: 0,
        layers,
        notes: vec![format!(
            "session 0 fingerprint {session0:016x} matches the scalar reference; \
             sim window {SIM_STEPS} steps"
        )],
        tracer: std::mem::replace(tracer, Tracer::new(false)),
    })
}

/// Where a decode step's host time goes: the model step alone, the
/// pricing alone, and m = 1 kernels at the decoder's shapes.
fn decode_layers(
    r: &Ready,
    seed: u64,
    tracer: &mut Tracer,
    execute_ms: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let sess = session(seed, 0);
    let mut cache = DecoderKvCache::new(&r.dec, &sess.memory);
    let mut row = sess.first_row.clone();
    let mut step_ms = Vec::new();
    let mut price_ms = Vec::new();
    for pos in 0..sess.tokens {
        let (out, ms) = tracer.time("model.try_decode_step_packed", pos as u64, || {
            r.dec.try_decode_step_packed(&r.packed, &mut cache, &row)
        });
        step_ms.push(ms);
        row = out.map_err(|e| e.to_string())?.map(|v| v.saturating_add(1));
        let (_, ms) = tracer.time("core.decode_step_timing", pos as u64, || {
            r.accel.decode_step_timing(&r.dec, pos, MEMORY_ROWS)
        });
        price_ms.push(ms);
    }
    let (step, price) = (stats::median(&step_ms), stats::median(&price_ms));

    let mut rng = StdRng::seed_from_u64(seed);
    let mut random = |rows: usize, cols: usize| {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-128i32..128) as i8)
    };
    let shapes = [(D, D), (D, 4 * D), (4 * D, D)];
    let kernels: Vec<(Matrix<i8>, PackedWeights)> =
        shapes.iter().map(|&(k, n)| (random(1, k), PackedWeights::pack(&random(k, n)))).collect();
    let mut gemv_ms = Vec::new();
    for i in 0..64 {
        let ((), ms) = tracer.time("tensor.gemv x3", i, || {
            for (x, w) in &kernels {
                std::hint::black_box(matmul_i8_i32_packed(x, w));
            }
        });
        gemv_ms.push(ms);
    }
    let gemv = stats::median(&gemv_ms);
    let macs: usize = shapes.iter().map(|&(k, n)| k * n).sum();
    Ok(BTreeMap::from([
        ("model.decode_step_ms", step),
        ("core.decode_price_ms", price),
        ("core.decode_overhead_ms", execute_ms - step - price),
        ("tensor.gemv_ms", gemv),
        ("tensor.gemv_gops", 2.0 * macs as f64 / (gemv * 1e-3) / 1e9),
    ]))
}
