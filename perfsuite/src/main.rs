//! The repository benchmark: four workloads through the public API of
//! the `serve`, `core`, `model`, `tensor`, `fixed`, `mem` and `hls`
//! layers, measured in both clocks — simulated accelerator time and
//! host wall-clock.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfsuite/Cargo.toml -- \
//!     --workload <serve-churn|serve-decode|table1-encode|generate> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric. With `--trace 1` the timed region is split: the
//! first half runs untraced, the second half records host-time spans
//! around each call into a layer, and the line carries every per-layer
//! metric instead (with the tracing overhead). A correctness mismatch
//! exits 1 without printing a result. See `perfsuite/README.md`.

mod encode;
mod generate;
mod serve;
mod spans;
mod stats;

use spans::Tracer;
use stats::Tail;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed whose output fingerprints are pinned in the workloads.
pub const PINNED_SEED: u64 = 1;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        let key = pair[0].strip_prefix("--").ok_or_else(|| format!("unexpected '{}'", pair[0]))?;
        let val = pair.get(1).ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, val);
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|_| format!("--{k} must be a number"))
    };
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace must be 0 or 1, got '{v}'")),
    };
    let seconds = num("seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let seed = get("seed")?.parse::<u64>().map_err(|_| "--seed must be a whole number")?;
    Ok(Args { workload: get("workload")?.to_string(), seed, seconds, trace })
}

/// Host-clock record of one timed region.
#[derive(Debug, Clone, Default)]
pub struct Host {
    /// Ops completed.
    pub ops: u64,
    /// Wall seconds of the whole region.
    pub wall_s: f64,
    /// Host milliseconds per op, one entry per sample.
    pub samples_ms: Vec<f32>,
    /// Consecutive stretches of the region: (ops, wall seconds, samples
    /// taken).
    pub segments: Vec<(u64, f64, usize)>,
}

impl Host {
    /// Close a segment of `ops` ops over `wall_s` seconds, owning the
    /// samples taken since the previous one.
    pub fn segment(&mut self, ops: u64, wall_s: f64) {
        let taken: usize = self.segments.iter().map(|s| s.2).sum();
        self.segments.push((ops, wall_s, self.samples_ms.len() - taken));
    }

    /// The fastest quarter of the segments, pooled: their ops per
    /// second and their samples. The host is shared, and other tenants
    /// slow whole stretches of a run; the fastest quarter is the part of
    /// the run they disturbed least.
    pub fn fastest_quarter(&self) -> (f64, Vec<f64>) {
        let mut segs: Vec<(u64, f64, std::ops::Range<usize>)> = Vec::new();
        let mut at = 0;
        for &(ops, wall_s, n) in &self.segments {
            segs.push((ops, wall_s, at..at + n));
            at += n;
        }
        segs.sort_by(|a, b| (b.0 as f64 / b.1).total_cmp(&(a.0 as f64 / a.1)));
        segs.truncate(self.segments.len().div_ceil(4));
        let ops: u64 = segs.iter().map(|s| s.0).sum();
        let wall: f64 = segs.iter().map(|s| s.1).sum();
        let samples = segs
            .iter()
            .flat_map(|s| self.samples_ms[s.2.clone()].iter().map(|&v| f64::from(v)))
            .collect();
        (ops as f64 / wall, samples)
    }
}

/// What a workload measured. Every `sim_*` field is a function of the
/// seed alone.
#[derive(Debug)]
pub struct Outcome {
    /// Median host seconds of the repeated set-up.
    pub setup_s: f64,
    /// Timed region with tracing off (the whole run, or the first half
    /// of a traced run).
    pub host: Host,
    /// Timed region with spans on (traced runs only).
    pub host_traced: Option<Host>,
    /// The fixed tail percentile of this workload's host samples.
    pub host_tail_pct: f64,
    pub sim_ms_p50: f64,
    pub sim_ms_tail: Tail,
    pub sim_tpot_ms: f64,
    pub sim_slo_frac: f64,
    pub done_frac: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values measured on this workload (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines printed above the result (provenance of the numbers).
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// Run `setup` `n` times and keep the last state; returns it with the
/// median set-up seconds.
pub fn repeated_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        // Drop the previous state first, so peak memory holds one.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&secs)))
}

/// Run the timed region: all of it untraced, or, when tracing, the
/// first half untraced and the second half with spans on.
pub fn timed_region(
    args: &Args,
    tracer: &mut Tracer,
    mut region: impl FnMut(Duration, &mut Tracer) -> Result<Host, String>,
) -> Result<(Host, Option<Host>), String> {
    let total = Duration::from_secs_f64(args.seconds);
    let untraced_share = if args.trace { total / 2 } else { total };
    let untraced = region(untraced_share, &mut Tracer::new(false))?;
    let traced = if args.trace { Some(region(total / 2, tracer)?) } else { None };
    Ok((untraced, traced))
}

/// The workloads `BENCHMARK.json` gates on. `serve-decode` and
/// `generate` run by hand only: their host time varies by more than the
/// gate's largest bound from one process to the next on a shared host.
const GATED: [&str; 2] = ["serve-churn", "table1-encode"];

/// Every per-layer metric: name, unit, the workloads that measure it,
/// and the end-to-end metric it should move (with the prediction for
/// the workload that bypasses the layer).
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    ("hls.synth_ms", "ms", "all", "setup_s, every workload"),
    ("core.deploy_ms", "ms", "table1-encode", "setup_s, table1-encode"),
    ("core.pack_ms", "ms", "table1-encode generate", "setup_s, table1-encode and generate"),
    (
        "serve.reprograms",
        "count",
        "serve-churn",
        "host_ops_per_s, serve-churn; serve-decode unchanged",
    ),
    ("serve.batches", "count", "serve-churn", "host_ops_per_s, serve-churn"),
    ("serve.reprogram_ratio", "1", "serve-churn", "host_ops_per_s, serve-churn"),
    (
        "core.weight_digest_us",
        "us",
        "serve-churn",
        "host_ms_p50, serve-churn; serve-decode unchanged",
    ),
    (
        "core.load_weights_us",
        "us",
        "serve-churn",
        "host_ms_p50, serve-churn; serve-decode unchanged",
    ),
    (
        "model.encoder_clone_us",
        "us",
        "serve-churn",
        "host_ms_p50, serve-churn; serve-decode unchanged",
    ),
    (
        "serve.reload_share",
        "1",
        "serve-churn",
        "host_ops_per_s, serve-churn; serve-decode unchanged",
    ),
    ("serve.memo_hit_ratio", "1", "serve-churn serve-decode", "host_ops_per_s, serve-churn"),
    ("core.timing_eval_us", "us", "serve-churn", "host_ms_p50, serve-churn"),
    ("serve.source_us", "us", "serve-churn", "host_ops_per_s, serve-churn (generator share)"),
    ("serve.mean_batch", "count", "serve-churn serve-decode", "sim_ms_p50, both serve workloads"),
    ("serve.queue_ms_p50", "ms", "serve-churn", "sim_ms_p50, serve-churn"),
    ("serve.queue_ms_p99", "ms", "serve-churn", "sim_ms_tail, serve-churn"),
    ("serve.card_util_mean", "1", "serve-churn", "sim_ms_tail, serve-churn"),
    (
        "core.decode_price_us",
        "us",
        "serve-decode",
        "host_ops_per_s, serve-decode; serve-churn unchanged",
    ),
    (
        "serve.price_share",
        "1",
        "serve-decode",
        "host_ops_per_s, serve-decode; serve-churn unchanged",
    ),
    ("mem.kv_session_bytes", "B", "serve-decode", "sim_tpot_ms, serve-decode"),
    ("mem.kv_bytes_per_token", "B", "serve-decode", "sim_tpot_ms, serve-decode"),
    ("serve.prefill_ms_mean", "ms", "serve-decode", "sim_slo_frac, serve-decode"),
    (
        "tensor.qkv_ms",
        "ms",
        "table1-encode",
        "host_ms_p50, table1-encode; serve workloads unchanged",
    ),
    (
        "tensor.qk_ms",
        "ms",
        "table1-encode",
        "host_ms_p50, table1-encode; serve workloads unchanged",
    ),
    (
        "tensor.sv_ms",
        "ms",
        "table1-encode",
        "host_ms_p50, table1-encode; serve workloads unchanged",
    ),
    (
        "tensor.out_proj_ms",
        "ms",
        "table1-encode",
        "host_ms_p50, table1-encode; serve workloads unchanged",
    ),
    (
        "tensor.ffn1_ms",
        "ms",
        "table1-encode",
        "host_ms_p50, table1-encode; serve workloads unchanged",
    ),
    (
        "tensor.ffn2_ms",
        "ms",
        "table1-encode",
        "host_ms_p50, table1-encode; serve workloads unchanged",
    ),
    (
        "fixed.softmax_ms",
        "ms",
        "table1-encode",
        "host_ms_p50, table1-encode; serve workloads unchanged",
    ),
    (
        "fixed.layernorm_ms",
        "ms",
        "table1-encode",
        "host_ms_p50, table1-encode; serve workloads unchanged",
    ),
    ("core.forward_ms", "ms", "table1-encode", "host_ms_p50 and host_ops_per_s, table1-encode"),
    ("core.unattributed_frac", "1", "table1-encode", "host_ms_p50, table1-encode"),
    ("tensor.qkv_gops", "GOPS", "table1-encode", "host_ops_per_s, table1-encode"),
    ("tensor.qk_gops", "GOPS", "table1-encode", "host_ops_per_s, table1-encode"),
    ("tensor.sv_gops", "GOPS", "table1-encode", "host_ops_per_s, table1-encode"),
    ("tensor.out_proj_gops", "GOPS", "table1-encode", "host_ops_per_s, table1-encode"),
    ("tensor.ffn1_gops", "GOPS", "table1-encode", "host_ops_per_s, table1-encode"),
    ("tensor.ffn2_gops", "GOPS", "table1-encode", "host_ops_per_s, table1-encode"),
    ("tensor.host_peak_gops", "GOPS", "table1-encode", "host roofline for the stage rates"),
    ("core.timing_ms", "ms", "table1-encode", "nothing: timing is 0.1% of a forward"),
    (
        "mem.weight_stream_ms",
        "ms",
        "table1-encode",
        "sim_ms_p50, table1-encode (load-bound phases)",
    ),
    ("core.sim_share.qkv", "1", "table1-encode", "sim_ms_p50 and sim_err_pct, table1-encode"),
    ("core.sim_share.qk", "1", "table1-encode", "sim_ms_p50 and sim_err_pct, table1-encode"),
    ("core.sim_share.softmax", "1", "table1-encode", "sim_ms_p50 and sim_err_pct, table1-encode"),
    ("core.sim_share.sv", "1", "table1-encode", "sim_ms_p50 and sim_err_pct, table1-encode"),
    ("core.sim_share.ffn1", "1", "table1-encode", "sim_ms_p50 and sim_err_pct, table1-encode"),
    ("core.sim_share.ffn2", "1", "table1-encode", "sim_ms_p50 and sim_err_pct, table1-encode"),
    ("core.sim_share.ffn3", "1", "table1-encode", "sim_ms_p50 and sim_err_pct, table1-encode"),
    ("core.sim_share.ln", "1", "table1-encode", "sim_ms_p50 and sim_err_pct, table1-encode"),
    (
        "core.sim_stall_frac",
        "1",
        "table1-encode generate",
        "sim_ms_p50, table1-encode and generate",
    ),
    ("model.decode_step_ms", "ms", "generate", "host_ms_p50, generate; table1-encode unchanged"),
    ("core.decode_price_ms", "ms", "generate", "host_ms_p50, generate"),
    ("core.decode_overhead_ms", "ms", "generate", "host_ms_p50, generate"),
    ("tensor.gemv_ms", "ms", "generate", "host_ms_p50, generate; table1-encode unchanged"),
    ("tensor.gemv_gops", "GOPS", "generate", "host_ops_per_s, generate"),
    ("trace.host_ops_per_s", "1/s", "all", "host_ops_per_s with spans on"),
    ("trace.overhead_frac", "1", "all", "tracing overhead: 1 - traced / untraced ops per s"),
];

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git")
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The provenance header every result carries.
fn provenance(args: &Args) -> String {
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "unknown".into(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"commit\": \"{commit}\", \"dirty\": \"{dirty}\", \"kernel\": \"{}\", \
         \"rayon_threads\": {}, \"nproc\": {nproc}, \"rustc\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        protea_tensor::active_kernel(),
        rayon::current_num_threads(),
        env!("PERFSUITE_RUSTC"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// Table I fidelity: mean |sim/paper − 1| × 100 over the nine rows, each
/// priced at its published layer count by a timing-only plan.
fn sim_err_pct() -> f64 {
    let rows = protea_bench::table1::run();
    rows.iter().map(|r| (r.latency_ratio() - 1.0).abs() * 100.0).sum::<f64>() / rows.len() as f64
}

/// Where result files go: `out/` beside this package's manifest.
fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args) -> Result<String, String> {
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "serve-churn" => serve::churn(args, &mut tracer)?,
        "serve-decode" => serve::decode(args, &mut tracer)?,
        "table1-encode" => encode::table1(args, &mut tracer)?,
        "generate" => generate::generate(args, &mut tracer)?,
        w => return Err(format!("unknown workload '{w}'")),
    };
    let header = provenance(args);
    println!("provenance {header}");
    for n in &outcome.notes {
        println!("note {n}");
    }

    let host = &outcome.host;
    let (host_rate, host_samples) = host.fastest_quarter();
    let host_tail = Tail::of(&host_samples, outcome.host_tail_pct);
    println!(
        "note host metrics from the fastest {} of {} segments; tail {}",
        host.segments.len().div_ceil(4),
        host.segments.len(),
        host_tail.describe()
    );
    println!("note sim tail: {}", outcome.sim_ms_tail.describe());
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let traced = outcome.host_traced.as_ref().expect("traced run measures a traced half");
        let traced_rate = traced.fastest_quarter().0;
        let mut layers = outcome.layers.clone();
        layers.insert("trace.host_ops_per_s", traced_rate);
        layers.insert("trace.overhead_frac", 1.0 - traced_rate / host_rate);
        println!(
            "\nper-layer metrics, {} (spans recorded: {}; untraced {host_rate:.1} ops/s, traced \
             {traced_rate:.1} ops/s)",
            args.workload,
            outcome.tracer.len(),
        );
        println!("{:<26} {:>14} {:<6} should move", "metric", "value", "unit");
        for &(name, unit, on, moves) in PER_LAYER {
            let measures = |w: &str| on == "all" || on.split(' ').any(|o| o == w);
            let here = measures(&args.workload);
            let v = if here { layers.get(name).copied().unwrap_or(f64::NAN) } else { 0.0 };
            if here && !v.is_finite() {
                return Err(format!("per-layer metric {name} was not measured"));
            }
            let shown = if here { format!("{v:.4}") } else { "n/a".into() };
            println!("{name:<26} {shown:>14} {unit:<6} {moves}");
            if here || GATED.iter().any(|w| measures(w)) {
                metrics.push((name, v, unit));
            }
        }
        println!(
            "tracing overhead: {:.2}% of untraced host_ops_per_s",
            100.0 * layers["trace.overhead_frac"]
        );
        println!("\nself time by span (traced half):");
        println!("{:<44} {:>9} {:>12} {:>12}", "span", "count", "total ms", "self ms");
        for (name, row) in outcome.tracer.self_times() {
            println!("{name:<44} {:>9} {:>12.3} {:>12.3}", row.count, row.total_ms, row.self_ms);
        }
        let path = out_dir()?.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, outcome.tracer.chrome_json(50_000))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("chrome trace: {}", path.display());
    } else {
        metrics.extend([
            ("setup_s", outcome.setup_s, "s"),
            ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
            ("host_ops_per_s", host_rate, "1/s"),
            ("host_ms_p50", stats::median(&host_samples), "ms"),
            ("host_ms_tail", host_tail.value, "ms"),
            ("sim_ms_p50", outcome.sim_ms_p50, "ms"),
            ("sim_ms_tail", outcome.sim_ms_tail.value, "ms"),
            ("sim_tpot_ms", outcome.sim_tpot_ms, "ms"),
            ("sim_slo_frac", outcome.sim_slo_frac, "1"),
            ("done_frac", outcome.done_frac, "1"),
            ("sim_err_pct", sim_err_pct(), "%"),
        ]);
        for (name, v, unit) in &metrics {
            println!("{name:<16} {:>16} {unit}", number(*v));
        }
    }

    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(json, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*v));
    }
    json.push_str("}}");

    let path = out_dir()?.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let file = format!(
        "{{\"provenance\": {header}, \"host_tail\": \"{}\", \"sim_tail\": \"{}\", \"result\": {json}}}\n",
        host_tail.describe(),
        outcome.sim_ms_tail.describe()
    );
    std::fs::write(&path, file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(json)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfsuite: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfsuite: {e}");
            ExitCode::FAILURE
        }
    }
}
