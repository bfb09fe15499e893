"""The three workloads: seeded inputs, the closed timed loop, the untimed
validation pass and the checks.

Each workload drives xtrace only through its binary (`xtrace pipeline`
processes, or one keep-alive connection to an `xtrace serve` daemon) and
returns (attempted, failed, problems, end-to-end metrics).
"""

import json
import os
import random
import shutil
import time

import checks
from harness import (PROGRAM_THREADS, BenchError, Client, Daemon, log, median, pipeline_argv,
                     run_process, tree_bytes, fresh_dir)

GOLDEN = 0.6180339887498949
# uh3d sweep bands, in multiples of the ladder's largest count: one
# target per band per op, so every op spans 8x .. 1024x.
BANDS = [(8, 32), (32, 128), (128, 512), (512, 1024)]
# Set-up repetitions; each workload reports their median. cold_predict runs
# half before its timed loop and half after it; a daemon workload sets up
# once before its loop and again after it, so the median samples the host
# across the whole run, as the ops do.
COLD_SETUP_REPS = 6
SERVED_SETUP_REPEATS = 2


class Ctx:
    def __init__(self, xtrace, traced, work, seed, seconds, quick):
        self.xtrace, self.traced = xtrace, traced
        self.work, self.seed, self.seconds, self.quick = work, seed, seconds, quick

    def path(self, *parts):
        return os.path.join(self.work, *parts)


def specfem_configs(rng, n):
    """n distinct specfem3d tiny configs: a three-count ladder from a narrow
    range and a target at most 4x its largest count."""
    out = []
    while len(out) < n:
        p1 = rng.randint(4, 8)
        p2 = p1 * rng.randint(3, 5)
        p3 = p2 * rng.randint(3, 5)
        cfg = {"api_version": 1, "app": "specfem3d", "scale": "tiny", "machine": "cray-xt5",
               "training": [p1, p2, p3], "target": p3 * rng.randint(2, 4), "validate": False}
        if cfg not in out:
            out.append(cfg)
    return out


def uh3d_prefixes(rng, n):
    """n distinct uh3d tiny ladders (b, 2b, 4b), b in 5..8, in seeded order.
    A full run uses all four, so every seed sweeps the same mix of ladder
    sizes and only the targets differ."""
    return [{"api_version": 1, "app": "uh3d", "scale": "tiny", "machine": "cray-xt5",
             "training": [b, 2 * b, 4 * b], "validate": False}
            for b in rng.sample([5, 6, 7, 8], n)]


class SweepTargets:
    """Never-repeating sweep targets per prefix: one per band, placed along
    each band by a golden-ratio sequence from a seeded start, so a run's
    targets cover every band evenly whatever its length."""

    def __init__(self, rng, prefixes):
        self.starts = [[rng.random() for _ in BANDS] for _ in prefixes]
        self.count = [0] * len(prefixes)
        self.used = [set() for _ in prefixes]

    def next(self, i, ladder_max):
        j = self.count[i]
        self.count[i] += 1
        out = []
        for b, (lo, hi) in enumerate(BANDS):
            u = (self.starts[i][b] + j * GOLDEN) % 1.0
            t = int(round(ladder_max * lo * (hi / lo) ** u))
            while t in self.used[i]:
                t += 1
            self.used[i].add(t)
            out.append(t)
        return sorted(out)


def warm_prefix_request(prefix):
    """The set-up request that fills a prefix: one target at 2x the ladder."""
    return dict(prefix, target=2 * max(prefix["training"]))


def sweep_request(prefix, targets):
    return dict(prefix, target=targets[0], targets=targets)


def closed_loop(seconds, one_round):
    """Runs whole rounds of ops until `seconds` have passed (so every run
    attempts the same ops in the same proportions); returns the loop's wall
    seconds."""
    t0 = time.perf_counter()
    while True:
        one_round()
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed


def op_metrics(lat_s, loop_s, cpu_s, rss_kb):
    n = len(lat_s)
    return {
        "op_p50_ms": (median(lat_s) * 1e3, "ms"),
        "ops_per_s": (n / loop_s, "1/s"),
        "cpu_ms_per_op": (cpu_s * 1e3 / n, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
    }


def common_checks(ctx):
    return (checks.known_forms(ctx.xtrace, ctx.work, ctx.seed)
            + checks.cache_kernel(ctx.traced, ctx.seed))


def post_ok(client, path, req, where):
    dt, status, body = client.post(path, req)
    if status != 200:
        raise BenchError(f"{where}: HTTP {status}: {body[:300]!r}")
    return dt, body


def start_daemon(ctx, store, name):
    """A daemon over `store`, answering `healthz`; returns it with the
    seconds from spawn to the first healthy answer."""
    t0 = time.perf_counter()
    daemon = Daemon(ctx.xtrace, store, ctx.path(f"{name}.stderr"))
    try:
        daemon.wait_healthy()
    except BenchError:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - t0


def repeat_served_setup(ctx, name, requests, first_answers):
    """Sets a daemon workload up again after its timed loop, each time on a
    fresh store: spawn -> first `healthz`, then the warming requests, whose
    answers must equal the first set-up's. Returns (seconds, problems)."""
    times, problems = [], []
    for k in range(1 if ctx.quick else SERVED_SETUP_REPEATS):
        daemon, start_s = start_daemon(ctx, fresh_dir(ctx.path(f"{name}-again")), name)
        try:
            client = Client(daemon)
            t0 = time.perf_counter()
            answers = [json.loads(post_ok(client, "/v1/predict", req, f"set-up {k + 2}")[1])
                       for req in requests]
            times.append(start_s + time.perf_counter() - t0)
            client.close()
        finally:
            daemon.stop()
        for i, (first, again) in enumerate(zip(first_answers, answers)):
            problems += checks.warm_equals_cold(first, again, f"set-up {k + 2} answer {i}")
    shutil.rmtree(ctx.path(f"{name}-again"))
    return times, problems


def log_failures(failures):
    """Failed ops count in `failed`; they do not make the answers of the
    ops that succeeded incorrect."""
    for f in failures[:5]:
        log(f"op failed: {f}")


def served_loop(ctx, daemon, client, path, next_requests):
    """The timed loop of a daemon workload: each round posts
    `next_requests()`; returns (latencies, answers, failures, loop seconds,
    daemon CPU seconds)."""
    lat, answers, failures = [], [], []

    def one_round():
        for req in next_requests():
            dt, status, body = client.post(path, req)
            if status != 200:
                failures.append(f"{path}: HTTP {status}: {body[:300]!r}")
                continue
            lat.append(dt)
            answers.append((req, body))

    cpu0 = daemon.cpu_s()
    loop_s = closed_loop(ctx.seconds, one_round)
    cpu_s = daemon.cpu_s() - cpu0
    log(f"timed loop: {len(lat)} ops in {loop_s:.1f}s")
    if not lat:
        raise BenchError("no op succeeded: " + "; ".join(failures[:3]))
    log_failures(failures)
    return lat, answers, failures, loop_s, cpu_s


# ---------------------------------------------------------------------------
# cold_predict
# ---------------------------------------------------------------------------

def cold_predict(ctx):
    rng = random.Random(f"cold_predict:{ctx.seed}")
    # One config per run: every op repeats the same first-ever computation
    # on a fresh store, so a run's spread is the host's, not the inputs'.
    [cfg] = specfem_configs(rng, 1)
    stores = ctx.path("cold")

    # Set-up: profile the target machine. `xtrace machine-export` measures
    # the MultiMAPS surface, which every cold op measures again at resolve.
    spec = ctx.path("machine.json")
    setup = []

    def profile_machine(reps):
        for _ in range(reps):
            t0 = time.perf_counter()
            r = run_process([ctx.xtrace, "machine-export", "--machine", cfg["machine"],
                             "--out", spec, "--threads", str(PROGRAM_THREADS)],
                            ctx.path("machine.stderr"))
            setup.append(time.perf_counter() - t0)
            if r.code != 0:
                raise BenchError(f"xtrace machine-export failed: {r.stderr[-300:]}")
        with open(spec) as f:
            if not json.load(f)["surface"]["points"]:
                raise BenchError("xtrace machine-export wrote an empty surface")

    reps = 1 if ctx.quick else COLD_SETUP_REPS // 2
    profile_machine(reps)
    fresh_dir(stores)

    ops, failures, problems, first = [], [], [], []

    def one_round():
        d = os.path.join(stores, f"op{len(ops) + len(failures)}")
        out = d + ".pred.json"
        r = run_process(pipeline_argv(ctx.xtrace, cfg, d, out=out), ctx.path("op.stderr"))
        if r.code != 0:
            failures.append(f"xtrace pipeline exited {r.code}: {r.stderr[-300:]}")
            return
        with open(out) as f:
            text = f.read()
        ops.append((r, len(r.stdout) + len(text), tree_bytes(d)))
        if not first:
            first.extend([d, text, r.stdout])
            return
        if text != first[1]:
            problems.append(f"op {len(ops)}: cold answer differs from the run's first")
        shutil.rmtree(d)

    loop_s = closed_loop(ctx.seconds, one_round)
    log(f"timed loop: {len(ops)} ops in {loop_s:.1f}s")
    profile_machine(reps)
    if not ops:
        raise BenchError("no op succeeded: " + "; ".join(failures[:3]))
    log_failures(failures)

    # Untimed validation pass: a daemon over the first op's store answers
    # the config with validation on (prediction reused, validation computed).
    d, text, stdout = first
    pred = json.loads(text)
    problems += checks.check_prediction(pred, "cold answer")
    if f"@ {cfg['target']} cores: predicted" not in stdout:
        problems.append(f"cold answer: unexpected stdout {stdout.strip()!r}")
    daemon, _ = start_daemon(ctx, d, "validate")
    try:
        client = Client(daemon)
        _, body = post_ok(client, "/v1/predict", dict(cfg, validate=True), "validation")
        client.close()
    finally:
        daemon.stop()
    body = json.loads(body)
    problems += checks.warm_equals_cold({"prediction": pred}, body, "validated re-read",
                                        same_config=False)
    err, p = checks.validation_error(pred, body["telemetry"]["report"]["validation"],
                                     cfg["target"], max(cfg["training"]), "cold config")
    problems += p + common_checks(ctx)

    metrics = {"setup_s": (median(setup), "s")}
    metrics.update(op_metrics([r.wall_s for r, _, _ in ops], loop_s,
                              sum(r.cpu_s for r, _, _ in ops), max(r.maxrss_kb for r, _, _ in ops)))
    metrics.update({
        "prediction_err_pct": (100.0 * err, "%"),
        "response_kb": (sum(b for _, b, _ in ops) / len(ops) / 1024.0, "KiB"),
        "store_kb_per_op": (sum(s for _, _, s in ops) / len(ops) / 1024.0, "KiB"),
    })
    return len(ops) + len(failures), len(failures), problems, metrics


# ---------------------------------------------------------------------------
# warm_serve
# ---------------------------------------------------------------------------

def warm_serve(ctx):
    rng = random.Random(f"warm_serve:{ctx.seed}")
    configs = specfem_configs(rng, 1 if ctx.quick else 2)
    store = fresh_dir(ctx.path("warm-store"))
    daemon, start_s = start_daemon(ctx, store, "warm")
    try:
        client = Client(daemon)
        t0 = time.perf_counter()
        cold = [json.loads(post_ok(client, "/v1/predict", cfg, f"warming config {ci}")[1])
                for ci, cfg in enumerate(configs)]
        setup_s = start_s + time.perf_counter() - t0
        lat, answers, failures, loop_s, cpu = served_loop(ctx, daemon, client, "/v1/predict",
                                                          lambda: configs)
        rss = daemon.peak_rss_kb()
        client.close()

        # Untimed validation pass over the served configs.
        client = Client(daemon)
        validated = [json.loads(post_ok(client, "/v1/predict", dict(cfg, validate=True),
                                        "validation")[1]) for cfg in configs]
        client.close()
    finally:
        daemon.stop()

    again, problems = repeat_served_setup(ctx, "warm", configs, cold)
    for k, (req, body) in enumerate(answers):
        b = json.loads(body)
        problems += checks.check_predict_body(b, req, f"warm op {k}")
        problems += checks.warm_equals_cold(cold[configs.index(req)], b, f"warm op {k}")
    errs = []
    for ci, (cfg, v) in enumerate(zip(configs, validated)):
        problems += checks.warm_equals_cold(cold[ci], v, f"validated config {ci}",
                                            same_config=False)
        err, p = checks.validation_error(v["prediction"], v["telemetry"]["report"]["validation"],
                                         cfg["target"], max(cfg["training"]), f"config {ci}")
        errs.append(err)
        problems += p
    problems += common_checks(ctx)

    # What each answer rests on in the store: its config's artifacts.
    ns = [tree_bytes(os.path.join(store, c["telemetry"]["report"]["prefix_hash"])) for c in cold]
    metrics = {"setup_s": (median([setup_s] + again), "s")}
    metrics.update(op_metrics(lat, loop_s, cpu, rss))
    metrics.update({
        "prediction_err_pct": (100.0 * sum(errs) / len(errs), "%"),
        "response_kb": (sum(len(b) for _, b in answers) / len(answers) / 1024.0, "KiB"),
        "store_kb_per_op": (sum(ns[configs.index(r)] for r, _ in answers) / len(answers) / 1024.0,
                            "KiB"),
    })
    return len(lat) + len(failures), len(failures), problems, metrics


# ---------------------------------------------------------------------------
# sweep_targets
# ---------------------------------------------------------------------------

def sweep_targets(ctx):
    rng = random.Random(f"sweep_targets:{ctx.seed}")
    prefixes = uh3d_prefixes(rng, 1 if ctx.quick else 4)
    gen = SweepTargets(rng, prefixes)
    store = fresh_dir(ctx.path("sweep-store"))
    daemon, start_s = start_daemon(ctx, store, "sweep")
    try:
        client = Client(daemon)
        t0 = time.perf_counter()
        warmed = [json.loads(post_ok(client, "/v1/predict", warm_prefix_request(p),
                                     f"warming prefix {pi}")[1])
                  for pi, p in enumerate(prefixes)]
        setup_s = start_s + time.perf_counter() - t0
        bytes0 = tree_bytes(store)
        lat, answers, failures, loop_s, cpu = served_loop(
            ctx, daemon, client, "/v1/sweep",
            lambda: [sweep_request(p, gen.next(pi, max(p["training"])))
                     for pi, p in enumerate(prefixes)])
        rss = daemon.peak_rss_kb()
        written = tree_bytes(store) - bytes0
        client.close()

        # Untimed: validate each prefix's 2x warm-up target and its first
        # op's four targets (one per band; validating every answered target
        # would cost more than the timed loop), and re-ask one sampled row
        # standalone.
        client = Client(daemon)
        errs, problems = [], []
        for pi, prefix in enumerate(prefixes):
            rows = next(json.loads(b)["rows"] for r, b in answers
                        if r["training"] == prefix["training"])
            answered = {r["target"]: r for r in rows}
            answered[warm_prefix_request(prefix)["target"]] = warmed[pi]
            vreq = dict(sweep_request(prefix, sorted(answered)), validate=True)
            vbody = json.loads(post_ok(client, "/v1/sweep", vreq, "validation")[1])
            for vrow, rep in zip(vbody["rows"], vbody["telemetry"]["sweep"]["reports"]):
                t = vrow["target"]
                problems += checks.row_equals_standalone(answered[t], vrow,
                                                         f"prefix {pi} t{t} (validated re-read)",
                                                         same_config=False)
                err, p = checks.validation_error(vrow["prediction"], rep["validation"], t,
                                                 max(prefix["training"]), f"prefix {pi} t{t}")
                errs.append(err)
                problems += p
        req, body = rng.choice(answers)
        row = rng.choice(json.loads(body)["rows"])
        single_req = {k: v for k, v in req.items() if k != "targets"}
        single_req["target"] = row["target"]
        single = json.loads(post_ok(client, "/v1/predict", single_req, "standalone")[1])
        problems += checks.row_equals_standalone(row, single, f"t{row['target']} standalone")
        client.close()
    finally:
        daemon.stop()

    again, setup_problems = repeat_served_setup(
        ctx, "sweep", [warm_prefix_request(prefix) for prefix in prefixes], warmed)
    problems += setup_problems
    for k, (req, body) in enumerate(answers):
        problems += checks.check_sweep_body(json.loads(body), req, f"sweep op {k}")
    problems += common_checks(ctx)

    metrics = {"setup_s": (median([setup_s] + again), "s")}
    metrics.update(op_metrics(lat, loop_s, cpu, rss))
    metrics.update({
        "prediction_err_pct": (100.0 * sum(errs) / len(errs), "%"),
        "response_kb": (sum(len(b) for _, b in answers) / len(answers) / 1024.0, "KiB"),
        "store_kb_per_op": (written / len(answers) / 1024.0, "KiB"),
    })
    return len(lat) + len(failures), len(failures), problems, metrics


WORKLOADS = {
    "cold_predict": cold_predict,
    "warm_serve": warm_serve,
    "sweep_targets": sweep_targets,
}
