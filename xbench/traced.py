"""The traced run: per-layer metrics for a sample of each workload's ops.

For every sampled op the product answers three times from the same store
state — once through the workload's own surface (CLI or HTTP, timed as the
untraced op), once through the other surface, and once through the
in-process engine inside `xbench-traced replay`, which also replays the op
as timed calls into each layer and fails unless every answer equals the
replay's byte for byte. Counters the program exports (`--metrics-out`,
response telemetry) are only read.
"""

import json
import random
import shutil
import subprocess

import checks
from harness import BenchError, Client, median, pipeline_argv, run_process, fresh_dir
import workloads
from workloads import (post_ok, specfem_configs, start_daemon, sweep_request, uh3d_prefixes,
                       warm_prefix_request)

# Per-layer metrics in report order, with units.
LAYER_UNITS = {
    "tracer.collect_ms": "ms", "tracer.refs_simulated": "count", "tracer.mrefs_per_s": "Mref/s",
    "tracer.blocks_simulated": "count", "tracer.sig_memo_hit_frac": "fraction",
    "tracer.trace_kb": "KiB",
    "machine.surface_ms": "ms", "machine.surface_points": "count",
    "extrap.fit_ms": "ms", "extrap.diagnose_ms": "ms", "extrap.synth_ms": "ms",
    "extrap.elements_fit": "count",
    "spmd.simulate_ms": "ms", "spmd.critical_path_ms": "ms", "spmd.events_stepped": "count",
    "spmd.rank_classes": "count",
    "psins.predict_ms": "ms", "psins.groups_convolved": "count",
    "store.decode_ms.training": "ms", "store.decode_ms.extrapolated": "ms",
    "store.decode_ms.fit-diagnostics": "ms", "store.decode_ms.prediction": "ms",
    "store.decode_ms.critical-path": "ms", "store.encode_ms": "ms", "store.read_kb": "KiB",
    "store.write_kb": "KiB", "store.hit_frac": "fraction",
    "engine.run_ms": "ms", "engine.unattributed_ms": "ms", "engine.unattributed_pct": "%",
    "serve.parse_ms": "ms", "serve.encode_ms": "ms", "serve.server_ms": "ms",
    "serve.wire_ms": "ms", "serve.telemetry_kb": "KiB",
    "cli.process_ms": "ms",
    "trace.overhead_ms": "ms",
}


def _pipeline_span_ms(metrics_path):
    with open(metrics_path) as f:
        snap = json.load(f)
    spans = [s["seconds"] for s in snap["spans"] if s["name"] == "pipeline"]
    if not spans:
        raise BenchError(f"{metrics_path}: no pipeline span")
    return spans[0] * 1e3, snap["counters"]


def _cli_op(ctx, req, store, name):
    """The op through `xtrace pipeline`: wall ms, engine span ms, counters,
    answer path."""
    out, mpath = ctx.path(f"{name}.out.json"), ctx.path(f"{name}.metrics.json")
    r = run_process(pipeline_argv(ctx.xtrace, req, store, out=out, metrics_out=mpath),
                    ctx.path(f"{name}.stderr"))
    if r.code != 0:
        raise BenchError(f"{name}: xtrace pipeline exited {r.code}: {r.stderr[-300:]}")
    span_ms, counters = _pipeline_span_ms(mpath)
    return {"wall_ms": r.wall_s * 1e3, "span_ms": span_ms, "counters": counters, "out": out}


# Requests the daemon rejects at the v1 DTO decode (a missing field), timed
# on the ops' connection: the HTTP path with no engine work.
WIRE_PROBES = 15


def _http_ops(ctx, store, warm_reqs, ops, name):
    """Ops through a daemon over `store` (after the warming requests):
    [{ms, body path, counters, wire_ms}]."""
    daemon, _ = start_daemon(ctx, store, name)
    res = []
    try:
        client = Client(daemon)
        for k, req in enumerate(warm_reqs):
            post_ok(client, "/v1/predict", req, f"{name} warming {k}")
        for k, (path, req) in enumerate(ops):
            dt, body = post_ok(client, path, req, f"{name} op {k}")
            bpath = ctx.path(f"{name}.op{k}.body.json")
            with open(bpath, "wb") as f:
                f.write(body)
            doc = json.loads(body)
            tele = doc["telemetry"]
            counters = tele["metrics"]["counters"]
            problems = (checks.check_sweep_body(doc, req, f"{name} op {k}") if "targets" in req
                        else checks.check_predict_body(doc, req, f"{name} op {k}"))
            if problems:
                raise BenchError("; ".join(problems))
            res.append({"ms": dt * 1e3, "body": bpath, "counters": counters})
        wire = []
        for _ in range(WIRE_PROBES):
            dt, status, body = client.post("/v1/predict", {"api_version": 1})
            if status != 400:
                raise BenchError(f"{name}: malformed request answered {status}: {body[:300]!r}")
            wire.append(dt * 1e3)
        for r in res:
            r["wire_ms"] = median(wire)
        client.close()
    finally:
        daemon.stop()
    return res


def _hit_frac(counters):
    hits, misses = counters.get("store.hits", 0), counters.get("store.misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def _layers(r, cli, http, surface):
    """Per-layer metrics of one op from the replay sample `r`, the CLI pass
    and the HTTP pass; `surface` names the workload's own surface."""
    m = {k: r.get(k, 0.0) for k in LAYER_UNITS if k in r}
    memo = r["tracer.memo_hits"] + r["tracer.memo_misses"]
    m["tracer.mrefs_per_s"] = r["tracer.refs_simulated"] / r["tracer.collect_ms"] / 1e3
    m["tracer.sig_memo_hit_frac"] = r["tracer.memo_hits"] / memo if memo else 0.0
    m["tracer.trace_kb"] = r["tracer.trace_bytes"] / 1024.0
    m["store.read_kb"] = r["store.read_bytes"] / 1024.0
    m["store.write_kb"] = r["store.write_bytes"] / 1024.0
    own = cli if surface == "cli" else http
    m["store.hit_frac"] = _hit_frac(own["counters"])
    m["psins.groups_convolved"] = float(cli["counters"].get("psins.groups_convolved", 0))
    m["engine.unattributed_ms"] = r["engine.run_ms"] - r["replay.op_ms"]
    m["engine.unattributed_pct"] = 100.0 * m["engine.unattributed_ms"] / r["engine.run_ms"]
    m["serve.server_ms"] = r["serve.parse_ms"] + r["engine.run_ms"] + r["serve.encode_ms"]
    m["serve.wire_ms"] = http["wire_ms"]
    m["serve.telemetry_kb"] = r["serve.telemetry_bytes"] / 1024.0
    m["cli.process_ms"] = cli["wall_ms"] - cli["span_ms"]
    return m


def _replay(ctx, ops):
    spec, out = ctx.path("replay-spec.json"), ctx.path("replay-out.json")
    with open(spec, "w") as f:
        json.dump({"ops": ops}, f)
    r = subprocess.run([ctx.traced, "replay", spec, out], capture_output=True, text=True)
    if r.returncode != 0:
        return None, [f"traced replay: {r.stderr.strip()[-500:]}"]
    with open(out) as f:
        return json.load(f), []


def _op_spec(ctx, kind, k, req, engine_store, cli_out, http_body):
    body = ctx.path(f"request{k}.json")
    with open(body, "w") as f:
        json.dump(req, f)
    return {"kind": kind, "request_body": body,
            "replay_store": fresh_dir(ctx.path(f"replay{k}")),
            "engine_store": engine_store, "cli_out": cli_out, "http_body": http_body}


def run(workload, ctx):
    rng = random.Random(f"{workload}:{ctx.seed}")
    n = 1 if ctx.quick else 2
    ops, clis, https = [], [], []
    if workload in ("cold_predict", "warm_serve"):
        configs = specfem_configs(rng, n)
        if workload == "cold_predict":
            surface, kind = "cli", "cold"
            https = _http_ops(ctx, fresh_dir(ctx.path("http-store")), [],
                              [("/v1/predict", c) for c in configs], "http")
            for k, c in enumerate(configs):
                clis.append(_cli_op(ctx, c, fresh_dir(ctx.path(f"cli{k}")), f"cli{k}"))
            engine_stores = [fresh_dir(ctx.path(f"engine{k}")) for k in range(n)]
        else:
            surface, kind = "http", "warm"
            store = fresh_dir(ctx.path("warm-store"))
            https = _http_ops(ctx, store, configs, [("/v1/predict", c) for c in configs], "http")
            for k, c in enumerate(configs):
                clis.append(_cli_op(ctx, c, store, f"cli{k}"))
            engine_stores = [store] * n
        reqs = configs
    else:
        surface, kind = "http", "sweep"
        prefixes = uh3d_prefixes(rng, n)
        gen = workloads.SweepTargets(rng, prefixes)
        store = fresh_dir(ctx.path("sweep-store"))
        daemon, _ = start_daemon(ctx, store, "fill")
        try:
            client = Client(daemon)
            for k, p in enumerate(prefixes):
                post_ok(client, "/v1/predict", warm_prefix_request(p), f"prefix {k}")
            client.close()
        finally:
            daemon.stop()
        copies = []
        for name in ("http", "cli", "engine"):
            shutil.copytree(store, ctx.path(f"sweep-{name}"))
            copies.append(ctx.path(f"sweep-{name}"))
        reqs = [sweep_request(p, gen.next(k, max(p["training"]))) for k, p in enumerate(prefixes)]
        https = _http_ops(ctx, copies[0], [], [("/v1/sweep", r) for r in reqs], "http")
        for k, r in enumerate(reqs):
            clis.append(_cli_op(ctx, r, copies[1], f"cli{k}"))
        engine_stores = [copies[2]] * n

    for k, req in enumerate(reqs):
        ops.append(_op_spec(ctx, kind, k, req, engine_stores[k], clis[k]["out"], https[k]["body"]))
    samples, problems = _replay(ctx, ops)
    if problems:
        return len(ops), 0, problems, {}
    per_op = [_layers(r, c, h, surface) for r, c, h in zip(samples, clis, https)]
    metrics = {k: (median([m[k] for m in per_op]), u) for k, u in LAYER_UNITS.items()}
    return len(ops), 0, [], metrics
