//! `xbench-traced` — the benchmark's in-process half.
//!
//! The end-to-end runner (`xbench/run.py`) reaches xtrace only through the
//! `xtrace` binary. This separate build target calls the libraries
//! directly, for two jobs the binary cannot do:
//!
//! ```text
//! xbench-traced replay <spec.json> <out.json>   timed per-layer replay of sampled ops
//! xbench-traced cache-check <seed>              product cache vs the frozen seed kernel
//! ```
//!
//! `replay` re-runs each sampled op as the sequence the product performs
//! (resolve, surface, collect, fit/diagnose/synthesize, simulate, predict,
//! store put/get, v1 DTO encode/decode), timing every call, and fails
//! unless the replayed predictions equal the product's byte for byte. It
//! then runs the product engine on a store in the op's state, so the op
//! time the layer calls do not explain can be reported, and prices its own
//! timed calls, so the overhead of tracing can be reported too.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use serde::Deserialize;
use xtrace_bench::seed_cache::SeedCacheHierarchy;
use xtrace_cache::{CacheHierarchy, Replacement};
use xtrace_core::{ArtifactStore, PipelineConfig, PredictionRow, XtraceEngine};
use xtrace_ir::rng::SplitMix64;
use xtrace_obs::{FitDiagnostics, ObsContext, Recorder};
use xtrace_psins::Prediction;
use xtrace_serve::{ServeRequestV1, ServeResponseV1, ServeSweepResponseV1};
use xtrace_spmd::CriticalPathReport;
use xtrace_tracer::{SigMemo, TaskTrace};

type Res<T> = Result<T, String>;

/// One sampled op, as the runner describes it. Every field is present in
/// the spec file (paths may be empty strings where a surface was not
/// driven).
#[derive(Debug, Deserialize)]
struct OpSpec {
    /// `cold` (nothing stored), `warm` (every artifact stored) or `sweep`
    /// (training prefix stored, targets new).
    kind: String,
    /// The v1 request body the product answered.
    request_body: String,
    /// Empty directory the replay files its artifacts into.
    replay_store: String,
    /// Store in the op's state, for the in-process engine run.
    engine_store: String,
    /// The product's `xtrace pipeline --out` file for this op.
    cli_out: String,
    /// The product's HTTP response body for this op.
    http_body: String,
}

#[derive(Debug, Deserialize)]
struct Spec {
    ops: Vec<OpSpec>,
}

/// Named measurements of one op.
#[derive(Default)]
struct Sample(BTreeMap<String, f64>);

impl Sample {
    fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
    /// Adds the milliseconds since `t` to `name`: one timed call, counted
    /// so the replay can report what its own timing costs.
    fn time(&mut self, name: &str, t: Instant) {
        self.add(name, ms_since(t));
        self.add("trace.timed_calls", 1.0);
    }
}

/// What one timed call costs the replay: reading the clock twice and
/// filing the result, median over batches, in milliseconds.
fn timed_call_ms() -> f64 {
    const CALLS: usize = 20_000;
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let mut cal = Sample::default();
            let t0 = Instant::now();
            for _ in 0..CALLS {
                let t = Instant::now();
                cal.time("calibration_ms", t);
            }
            std::hint::black_box(&cal);
            ms_since(t0) / CALLS as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Bytes this process has read through `read(2)` and friends so far
/// (`rchar` of `/proc/self/io`).
fn bytes_read() -> Res<u64> {
    let io = read("/proc/self/io")?;
    io.lines()
        .find_map(|l| l.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "/proc/self/io has no rchar line".to_string())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn read(path: &str) -> Res<String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn file_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => file_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn pretty<T: serde::Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("plain serializable tree")
}

/// What one target's tail produced in the replay.
struct Tail {
    target: u32,
    diagnostics: FitDiagnostics,
    trace: TaskTrace,
    critical: Option<CriticalPathReport>,
    prediction: Prediction,
}

fn replay_op(op: &OpSpec) -> Res<Sample> {
    let mut s = Sample::default();
    let sweep = op.kind == "sweep";

    // Step 8a: the server's request decode (body → DTO → config).
    let body = read(&op.request_body)?;
    let t = Instant::now();
    let request: ServeRequestV1 =
        serde_json::from_str(&body).map_err(|e| format!("request body: {e}"))?;
    let config: PipelineConfig = request.to_config().map_err(|e| e.to_string())?;
    s.time("serve.parse_ms", t);

    // Step 1: resolve the config.
    let t = Instant::now();
    let ctx = config.resolve().map_err(|e| e.to_string())?;
    s.time("core.resolve_ms", t);
    let recorder = Recorder::new();
    let obs = ObsContext::with_recorder(recorder.clone());

    // Step 2: the MultiMAPS surface on the freshly built profile.
    let t = Instant::now();
    let points = ctx.machine.surface().points.len();
    s.time("machine.surface_ms", t);
    s.add("machine.surface_points", points as f64);

    // Step 3: collect per training count, one memo across the ladder.
    let memo = SigMemo::new();
    let mut traces = Vec::with_capacity(config.training.len());
    let t = Instant::now();
    for &p in &config.training {
        let sig = xtrace_tracer::collect_signature_memo_obs(
            ctx.app.spmd(),
            p,
            &ctx.machine,
            &ctx.tracer,
            &memo,
            &obs,
        );
        traces.push(sig.longest_task().clone());
    }
    s.time("tracer.collect_ms", t);
    let refs: f64 = traces.iter().map(TaskTrace::total_mem_ops).sum();
    s.add("tracer.refs_simulated", refs);
    s.add("tracer.memo_hits", memo.hits() as f64);
    s.add("tracer.memo_misses", memo.misses() as f64);
    let trace_bytes: usize = traces
        .iter()
        .map(|tr| xtrace_tracer::to_bytes(tr).len())
        .sum();
    s.add("tracer.trace_bytes", trace_bytes as f64);

    // Step 4: fit, diagnose, synthesize — per target, as the product does
    // (a sweep fits the candidates once and selects per target).
    let targets = config.effective_targets();
    let mut xs: Vec<f64> = config.training.iter().map(|&p| f64::from(p)).collect();
    xs.sort_by(f64::total_cmp);
    let candidates = if sweep {
        let t = Instant::now();
        let c = xtrace_extrap::fit_signature_candidates_obs(&traces, &ctx.extrap, &obs)
            .map_err(|e| e.to_string())?;
        s.time("extrap.fit_ms", t);
        Some(c)
    } else {
        None
    };
    let mut tails = Vec::with_capacity(targets.len());
    for &target in &targets {
        let t = Instant::now();
        let fit = match &candidates {
            Some(c) => c.select_obs(target, &obs),
            None => xtrace_extrap::fit_signature_obs(&traces, target, &ctx.extrap, &obs),
        }
        .map_err(|e| e.to_string())?;
        s.time("extrap.fit_ms", t);
        let t = Instant::now();
        let diagnostics = xtrace_extrap::diagnose_fit(&fit, &xs, &ctx.extrap);
        s.time("extrap.diagnose_ms", t);
        let t = Instant::now();
        let trace = xtrace_extrap::synthesize_from_fit(&fit);
        s.time("extrap.synth_ms", t);

        // Step 5: the attributed SPMD simulation the convolution runs,
        // and the plain one, whose difference is the attribution cost.
        let t = Instant::now();
        let (comm, critical) = ctx.app.comm_attr_obs(target, &obs);
        s.time("spmd.simulate_ms", t);
        let t = Instant::now();
        let plain = ctx.app.comm_obs(target, &ObsContext::disabled());
        s.time("spmd.plain_ms", t);
        if plain != comm {
            return Err(format!(
                "t{target}: attributed simulation changed the comm profile"
            ));
        }

        // Step 6: convolve.
        let t = Instant::now();
        let prediction = xtrace_psins::try_predict_runtime(&trace, &comm, &ctx.machine)
            .map_err(|e| e.to_string())?;
        s.time("psins.predict_ms", t);
        tails.push(Tail {
            target,
            diagnostics,
            trace,
            critical,
            prediction,
        });
    }
    s.add(
        "spmd.critical_path_ms",
        s.get("spmd.simulate_ms") - s.get("spmd.plain_ms"),
    );
    let snap = recorder.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    s.add(
        "tracer.blocks_simulated",
        counter("tracer.blocks_simulated"),
    );
    s.add("extrap.elements_fit", counter("extrap.elements_fit"));
    s.add("spmd.events_stepped", counter("spmd.events_stepped"));
    s.add("psins.groups_convolved", counter("psins.groups_convolved"));
    let classes = snap.gauges.get("spmd.rank_classes").copied().unwrap_or(0);
    s.add("spmd.rank_classes", classes as f64);

    // Step 7: file every artifact the product files, then read each back
    // through a fresh handle (an empty in-memory cache).
    store_roundtrip(&mut s, op, &config, &traces, &tails)?;

    // The product's engine on a store in the op's state.
    let engine = XtraceEngine::new()
        .with_store(&op.engine_store)
        .map_err(|e| e.to_string())?;
    let predictions: Vec<&Prediction> = tails.iter().map(|t| &t.prediction).collect();
    let rows: Vec<PredictionRow> = tails
        .iter()
        .map(|t| PredictionRow {
            target: t.target,
            config_hash: config.for_target(t.target).config_hash(),
            prediction: t.prediction.clone(),
        })
        .collect();
    let t = Instant::now();
    if sweep {
        let outcome = engine.run_sweep(&config).map_err(|e| e.to_string())?;
        s.time("engine.run_ms", t);
        // Step 8b: the server's response encode.
        let t = Instant::now();
        let response = ServeSweepResponseV1::from_outcome(&outcome);
        std::hint::black_box(pretty(&response));
        s.time("serve.encode_ms", t);
        s.add(
            "serve.telemetry_bytes",
            pretty(&response.telemetry).len() as f64,
        );
        if pretty(&outcome.sweep.prediction_rows()) != pretty(&rows) {
            return Err("engine sweep rows differ from the replay".into());
        }
    } else {
        let outcome = engine.run(&config).map_err(|e| e.to_string())?;
        s.time("engine.run_ms", t);
        let t = Instant::now();
        let response = ServeResponseV1::from_outcome(&outcome);
        std::hint::black_box(pretty(&response));
        s.time("serve.encode_ms", t);
        s.add(
            "serve.telemetry_bytes",
            pretty(&response.telemetry).len() as f64,
        );
        if pretty(&outcome.report.prediction) != pretty(predictions[0]) {
            return Err("engine prediction differs from the replay".into());
        }
    }

    compare_with_product(op, sweep, &rows)?;
    s.add("replay.match", 1.0);

    // The replayed calls the op itself executes, by the op's store state.
    let decode_all: f64 =
        s.0.iter()
            .filter(|(k, _)| k.starts_with("store.decode_ms."))
            .map(|(_, v)| v)
            .sum();
    let compute = [
        "machine.surface_ms",
        "extrap.fit_ms",
        "extrap.diagnose_ms",
        "extrap.synth_ms",
        "spmd.simulate_ms",
        "psins.predict_ms",
    ]
    .iter()
    .map(|k| s.get(k))
    .sum::<f64>();
    let op_ms = s.get("core.resolve_ms")
        + match op.kind.as_str() {
            "cold" => s.get("tracer.collect_ms") + compute + s.get("store.encode_ms"),
            "warm" => decode_all,
            _ => {
                s.get("store.decode_ms.training") + compute + s.get("store.encode_ms")
                    - s.get("store.encode_ms.training")
            }
        };
    s.add("replay.op_ms", op_ms);
    s.add(
        "trace.overhead_ms",
        s.get("trace.timed_calls") * timed_call_ms(),
    );
    Ok(s)
}

fn store_roundtrip(
    s: &mut Sample,
    op: &OpSpec,
    config: &PipelineConfig,
    traces: &[TaskTrace],
    tails: &[Tail],
) -> Res<()> {
    let err = |e: xtrace_core::XtraceError| e.to_string();
    let root = Path::new(&op.replay_store);
    let store = ArtifactStore::open_shared(root).map_err(err)?;
    let prefix = config.prefix_hash();
    let t = Instant::now();
    for (p, trace) in config.training.iter().zip(traces) {
        store
            .put_trace(&prefix, &format!("training-p{p}"), trace)
            .map_err(err)?;
    }
    s.time("store.encode_ms.training", t);
    s.add("store.encode_ms", s.get("store.encode_ms.training"));
    for tail in tails {
        let t = Instant::now();
        let target = tail.target;
        store
            .put_json(
                &prefix,
                &format!("fit-diagnostics-t{target}"),
                &tail.diagnostics,
            )
            .map_err(err)?;
        store
            .put_trace_json(&prefix, &format!("extrapolated-t{target}"), &tail.trace)
            .map_err(err)?;
        store
            .put_json(&prefix, &format!("prediction-t{target}"), &tail.prediction)
            .map_err(err)?;
        if let Some(c) = &tail.critical {
            store
                .put_json(&prefix, &format!("critical-path-t{target}"), c)
                .map_err(err)?;
        }
        s.time("store.encode_ms", t);
    }
    s.add("store.write_bytes", file_bytes(&root.join(&prefix)) as f64);

    // Bytes the reads below load, net of reading the counter itself.
    let counter_cost = bytes_read()?.abs_diff(bytes_read()?);
    let read0 = bytes_read()?;
    let store = ArtifactStore::open_shared(root).map_err(err)?;
    let missing = |what: &str| format!("replay store lost {what}");
    for (p, trace) in config.training.iter().zip(traces) {
        let t = Instant::now();
        let back = store
            .get_trace(&prefix, &format!("training-p{p}"))
            .map_err(err)?
            .ok_or_else(|| missing("a training trace"))?;
        s.time("store.decode_ms.training", t);
        if &back != trace {
            return Err(format!("training-p{p} did not round-trip"));
        }
    }
    for tail in tails {
        let target = tail.target;
        let t = Instant::now();
        let back = store
            .get_trace_json(&prefix, &format!("extrapolated-t{target}"))
            .map_err(err)?
            .ok_or_else(|| missing("an extrapolated trace"))?;
        s.time("store.decode_ms.extrapolated", t);
        if back != tail.trace {
            return Err(format!("extrapolated-t{target} did not round-trip"));
        }
        let t = Instant::now();
        let back = store
            .get_json::<FitDiagnostics>(&prefix, &format!("fit-diagnostics-t{target}"))
            .map_err(err)?
            .ok_or_else(|| missing("fit diagnostics"))?;
        s.time("store.decode_ms.fit-diagnostics", t);
        if back.elements.len() != tail.diagnostics.elements.len() {
            return Err(format!("fit-diagnostics-t{target} did not round-trip"));
        }
        let t = Instant::now();
        let back = store
            .get_json::<Prediction>(&prefix, &format!("prediction-t{target}"))
            .map_err(err)?
            .ok_or_else(|| missing("a prediction"))?;
        s.time("store.decode_ms.prediction", t);
        if pretty(&back) != pretty(&tail.prediction) {
            return Err(format!("prediction-t{target} did not round-trip"));
        }
        let t = Instant::now();
        let back = store
            .get_json::<CriticalPathReport>(&prefix, &format!("critical-path-t{target}"))
            .map_err(err)?;
        s.time("store.decode_ms.critical-path", t);
        if back.is_some() != tail.critical.is_some() {
            return Err(format!("critical-path-t{target} did not round-trip"));
        }
    }
    let read = bytes_read()? - read0;
    s.add("store.read_bytes", read.saturating_sub(counter_cost) as f64);
    Ok(())
}

/// The replay must reproduce the product's answers byte for byte: the CLI
/// `--out` file exactly, and the HTTP body's predictions after the v1 DTO
/// decode.
fn compare_with_product(op: &OpSpec, sweep: bool, rows: &[PredictionRow]) -> Res<()> {
    if !op.cli_out.is_empty() {
        let expected = if sweep {
            pretty(rows) + "\n"
        } else {
            pretty(&rows[0].prediction) + "\n"
        };
        if read(&op.cli_out)? != expected {
            return Err(format!(
                "{}: CLI answer differs from the replay",
                op.cli_out
            ));
        }
    }
    if !op.http_body.is_empty() {
        let body = read(&op.http_body)?;
        let same = if sweep {
            let r: ServeSweepResponseV1 =
                serde_json::from_str(&body).map_err(|e| format!("{}: {e}", op.http_body))?;
            pretty(&r.rows) == pretty(rows)
        } else {
            let r: ServeResponseV1 =
                serde_json::from_str(&body).map_err(|e| format!("{}: {e}", op.http_body))?;
            pretty(&r.prediction) == pretty(&rows[0].prediction) && r.target == rows[0].target
        };
        if !same {
            return Err(format!(
                "{}: HTTP answer differs from the replay",
                op.http_body
            ));
        }
    }
    Ok(())
}

fn cmd_replay(spec_path: &str, out_path: &str) -> Res<()> {
    let spec: Spec =
        serde_json::from_str(&read(spec_path)?).map_err(|e| format!("{spec_path}: {e}"))?;
    let mut samples = Vec::with_capacity(spec.ops.len());
    for (i, op) in spec.ops.iter().enumerate() {
        let s = replay_op(op).map_err(|e| format!("op {i} ({}): {e}", op.kind))?;
        samples.push(s.0);
    }
    std::fs::write(out_path, pretty(&samples) + "\n").map_err(|e| format!("{out_path}: {e}"))
}

/// Seeded reference streams that exercise every path of the kernel:
/// sequential and strided sweeps, random touches inside working sets that
/// straddle each cache size, repeat touches of one line, and references
/// that span several lines.
fn stream(seed: u64, len: usize) -> Vec<(u64, u32)> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let phase = rng.next_u64() % 4;
        let ws = 1u64 << (12 + rng.next_u64() % 13); // 4 KiB .. 16 MiB
        let base = (rng.next_u64() % 64) << 24;
        let n = 2_000 + (rng.next_u64() % 8_000) as usize;
        for i in 0..n as u64 {
            let (addr, bytes) = match phase {
                0 => (base + (i * 8) % ws, 8),
                1 => (base + (i * 136) % ws, 8),
                2 => (base + rng.next_u64() % ws, 4 << (rng.next_u64() % 3)),
                _ => (base + (i / 4) * 64 % ws + rng.next_u64() % 200, 96),
            };
            out.push((addr, bytes));
        }
    }
    out.truncate(len);
    out
}

fn cmd_cache_check(seed: u64) -> Res<()> {
    let mut checked = 0;
    let mut refs = 0u64;
    for machine in xtrace_machine::presets::all() {
        let cfg = machine.hierarchy.clone();
        // The frozen kernel draws a different victim sequence under Random
        // replacement, so only deterministic policies are comparable.
        if cfg
            .levels
            .iter()
            .any(|l| matches!(l.replacement, Replacement::Random))
        {
            continue;
        }
        let mut product = CacheHierarchy::try_new(cfg.clone())?;
        let mut frozen = SeedCacheHierarchy::new(cfg);
        let mut a = vec![0u64; product.depth() + 1];
        let mut b = vec![0u64; frozen.depth() + 1];
        for (addr, bytes) in stream(seed ^ checked as u64, 400_000) {
            a[usize::from(product.access(addr, bytes))] += 1;
            b[usize::from(frozen.access(addr, bytes))] += 1;
            refs += 1;
        }
        if a != b {
            return Err(format!(
                "{}: per-level hits differ: product {a:?}, frozen kernel {b:?}",
                machine.name
            ));
        }
        println!("{}: per-level hits {a:?} (match)", machine.name);
        checked += 1;
    }
    if checked == 0 {
        return Err("no machine preset uses a deterministic replacement policy".into());
    }
    println!("cache-check: {checked} hierarchies, {refs} references, all levels match");
    Ok(())
}

fn run() -> Res<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The product runs at `--threads 1` in every workload; so does the replay.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .map_err(|e| format!("thread pool: {e}"))?;
    match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["replay", spec, out] => cmd_replay(spec, out),
        ["cache-check", seed] => cmd_cache_check(
            seed.parse()
                .map_err(|_| format!("seed must be an integer, got {seed:?}"))?,
        ),
        _ => Err("usage: xbench-traced replay <spec.json> <out.json> | cache-check <seed>".into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xbench-traced: {e}");
            ExitCode::FAILURE
        }
    }
}
