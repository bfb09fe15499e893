"""Independent output checks.

Each check compares the program's answers with a computation the benchmark
makes itself, or with a property the method must have. None compares with
a stored copy of earlier output. A check returns a list of problems; an
empty list means it passed.
"""

import json
import math
import os
import random
import subprocess

from harness import run_process

# Extrapolated vs collected prediction at targets <= 4x the ladder (the
# paper's Section V regime): relative difference allowed between the two
# runtime predictions. specfem3d tiny agrees within 0.2%; uh3d tiny ladders
# (b, 2b, 4b), b = 5..8, differ by 2.1-5.8% at 2-4x, so the bound sits above
# today's tiny-scale gap and far below a broken extrapolation.
AGREEMENT_TOL = 0.08
# Closed-form extrapolation: relative error allowed per element.
FORM_TOL = 1e-6


def canon(obj):
    """Canonical bytes of a JSON value: equal iff every number is
    bit-equal (Python floats round-trip the shortest repr exactly)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def positive_finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def check_prediction(pred, where):
    """Properties every runtime prediction must have."""
    problems = []
    total = pred.get("total_seconds")
    if not positive_finite(total):
        problems.append(f"{where}: total_seconds {total!r} is not a positive number")
        return problems
    parts = pred.get("compute_seconds", 0.0) + pred.get("comm_seconds", 0.0)
    if abs(parts - total) > 1e-9 * total:
        problems.append(f"{where}: compute + comm = {parts!r} != total {total!r}")
    return problems


def check_predict_body(body, req, where):
    """A `/v1/predict` 200 body: answers the requested target with a sane
    prediction."""
    problems = []
    if body.get("api_version") != 1:
        problems.append(f"{where}: api_version {body.get('api_version')!r}")
    if body.get("target") != req["target"]:
        problems.append(f"{where}: answered target {body.get('target')} not {req['target']}")
    problems += check_prediction(body.get("prediction", {}), where)
    return problems


def check_sweep_body(body, req, where):
    """A `/v1/sweep` 200 body: one sane row per requested target, in order."""
    problems = []
    rows = body.get("rows", [])
    if [r.get("target") for r in rows] != req["targets"]:
        problems.append(f"{where}: rows answer {[r.get('target') for r in rows]}, "
                        f"asked {req['targets']}")
    for r in rows:
        problems += check_prediction(r.get("prediction", {}), f"{where} t{r.get('target')}")
    return problems


def warm_equals_cold(cold, warm, where, same_config=True):
    """A warm answer must be byte-equal to the cold answer for its config.
    A validated re-read (`same_config=False`) hashes differently but must
    carry the same prediction."""
    if canon(cold["prediction"]) != canon(warm["prediction"]):
        return [f"{where}: warm prediction {warm['prediction'].get('total_seconds')!r} "
                f"!= cold {cold['prediction'].get('total_seconds')!r}"]
    if same_config and cold.get("config_hash") != warm.get("config_hash"):
        return [f"{where}: warm config_hash {warm.get('config_hash')} "
                f"!= cold {cold.get('config_hash')}"]
    return []


def row_equals_standalone(row, standalone, where, same_config=True):
    """A sweep row must equal a standalone single-target prediction."""
    if canon(row["prediction"]) != canon(standalone["prediction"]):
        return [f"{where}: sweep row {row['prediction'].get('total_seconds')!r} "
                f"!= standalone {standalone['prediction'].get('total_seconds')!r}"]
    if same_config and row.get("config_hash") != standalone.get("config_hash"):
        return [f"{where}: sweep row config {row.get('config_hash')} "
                f"!= standalone {standalone.get('config_hash')}"]
    return []


def validation_error(prediction, validation, target, ladder_max, where):
    """Returns (|extrapolated - measured| / measured, problems). At targets
    <= 4x the ladder the extrapolated- and collected-trace predictions must
    agree within AGREEMENT_TOL."""
    problems = []
    measured = validation.get("measured_seconds")
    collected = validation.get("collected", {}).get("total_seconds")
    pred = prediction.get("total_seconds")
    if not (positive_finite(measured) and positive_finite(collected) and positive_finite(pred)):
        return 0.0, [f"{where}: validation carries no usable numbers"]
    err = abs(pred - measured) / measured
    reported = validation.get("extrapolated_error")
    if not (isinstance(reported, float) and abs(reported - err) <= 1e-9 * max(err, 1e-12)):
        problems.append(f"{where}: program reports error {reported!r}, benchmark computes {err!r}")
    if target <= 4 * ladder_max:
        gap = abs(pred - collected) / collected
        if gap > AGREEMENT_TOL:
            problems.append(f"{where}: extrapolated {pred!r} vs collected {collected!r} "
                            f"differ by {gap:.2%} (> {AGREEMENT_TOL:.0%})")
    return err, problems


# ---------------------------------------------------------------------------
# Extrapolation against known forms
# ---------------------------------------------------------------------------

FEATURES = ["exec_count", "mem_ops", "loads", "stores", "fp_add", "fp_mul", "fp_div",
            "fp_sqrt", "fp_fma", "working_set"]


def _form(rng, pmax):
    """A seeded canonical form in P, positive and increasing over the
    extrapolation range, so the non-negativity guard never applies."""
    kind = rng.choice(["constant", "linear", "log", "exp"])
    a = rng.uniform(1e3, 1e6)
    if kind == "constant":
        return kind, (lambda p: a)
    if kind == "linear":
        b = rng.uniform(10.0, 1e4)
        return kind, (lambda p: a + b * p)
    if kind == "log":
        b = rng.uniform(1e2, 1e5)
        return kind, (lambda p: a + b * math.log(p))
    b = math.log(rng.uniform(1.5, 3.0)) / pmax
    return kind, (lambda p: a * math.exp(b * p))


def known_forms_traces(seed):
    """Training traces whose every element follows a seeded closed form in
    P; returns (ladder, target, traces by P, expected trace at target)."""
    rng = random.Random(f"known-forms:{seed}")
    p1 = rng.randint(4, 16)
    ladder = [p1, p1 * 2, p1 * 4]
    target = ladder[-1] * rng.randint(2, 4)
    blocks = []
    for b in range(rng.randint(3, 6)):
        inv, it = rng.randint(1, 20), rng.randint(1, 1000)
        step = rng.randint(0, 50)
        instrs = []
        for i in range(rng.randint(1, 4)):
            forms = {f: _form(rng, ladder[-1]) for f in FEATURES}
            rates = sorted(rng.uniform(0.5, 1.0) for _ in range(3)) + [1.0]
            instrs.append((forms, rates, rng.choice([8.0, 4.0]), rng.uniform(1.0, 3.0)))
        blocks.append((f"blk{b}", inv, it, step, instrs))

    def trace_at(p):
        return {
            "format": "xtrace-task-trace",
            "version": 1,
            "trace": {
                "app": "known-forms", "rank": 0, "nranks": p, "machine": "cray-xt5", "depth": 3,
                "blocks": [{
                    "name": name,
                    "source": {"file": "forms.f90", "line": 1, "function": name},
                    "invocations": inv,
                    "iterations": it + step * p,
                    "instrs": [{
                        "instr": k,
                        "pattern": "strided",
                        "features": dict(
                            {f: fn(p) for f, (_, fn) in forms.items()},
                            bytes_per_ref=bpr, hit_rates=rates, ilp=ilp),
                    } for k, (forms, rates, bpr, ilp) in enumerate(instrs)],
                } for name, inv, it, step, instrs in blocks],
            },
        }

    return ladder, target, {p: trace_at(p) for p in ladder}, trace_at(target)


def compare_known_forms(expected, got):
    problems = []
    eb, gb = expected["trace"]["blocks"], got["trace"]["blocks"]
    if got["trace"]["nranks"] != expected["trace"]["nranks"] or len(eb) != len(gb):
        return [f"known forms: extrapolated shape differs (nranks {got['trace']['nranks']})"]
    for be, bg in zip(eb, gb):
        for key in ("invocations", "iterations"):
            if be[key] != bg[key]:
                problems.append(f"known forms: {be['name']}.{key} = {bg[key]}, closed form "
                                f"{be[key]}")
        for ie, ig in zip(be["instrs"], bg["instrs"]):
            for f in FEATURES + ["bytes_per_ref", "ilp"]:
                want, have = ie["features"][f], ig["features"][f]
                if abs(have - want) > FORM_TOL * abs(want):
                    problems.append(f"known forms: {be['name']}#{ie['instr']}.{f} = {have!r}, "
                                    f"closed form {want!r}")
            for lvl, (want, have) in enumerate(zip(ie["features"]["hit_rates"],
                                                   ig["features"]["hit_rates"])):
                if abs(have - want) > FORM_TOL:
                    problems.append(f"known forms: {be['name']}#{ie['instr']}.hit_rates[{lvl}] "
                                    f"= {have!r}, closed form {want!r}")
    return problems


def known_forms(xtrace, workdir, seed):
    """Runs `xtrace extrapolate` on the generated traces and compares every
    element with its closed form at the target."""
    ladder, target, traces, expected = known_forms_traces(seed)
    paths = []
    for p in ladder:
        path = os.path.join(workdir, f"known-p{p}.json")
        with open(path, "w") as f:
            json.dump(traces[p], f)
        paths.append(path)
    out = os.path.join(workdir, f"known-t{target}.json")
    r = run_process([xtrace, "extrapolate", "--target", str(target), "--out", out] + paths,
                    os.path.join(workdir, "known.stderr"))
    if r.code != 0:
        return [f"known forms: xtrace extrapolate exited {r.code}: {r.stderr.strip()[-300:]}"]
    with open(out) as f:
        return compare_known_forms(expected, json.load(f))


def cache_kernel(traced, seed):
    """Product cache hierarchy vs the frozen pre-optimisation kernel."""
    r = subprocess.run([traced, "cache-check", str(seed)], capture_output=True, text=True)
    if r.returncode != 0:
        return [f"cache kernel: {r.stderr.strip()[-300:]}"]
    return []
