"""The benchmark's own tests: a quick mode of every workload (plain and
traced), and negative cases showing that the checks catch real faults.

    python3 -m unittest discover -s xbench/tests -v

Run from the root of an xtrace checkout; builds the binaries first
(`CARGO_TARGET_DIR` as for the runner, default `.bench_build`).
"""

import glob
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
XBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(XBENCH)
sys.path.insert(0, XBENCH)

import checks  # noqa: E402
import harness  # noqa: E402
from harness import Client, Daemon, fresh_dir, pipeline_argv, run_process  # noqa: E402

UH3D = {"api_version": 1, "app": "uh3d", "scale": "tiny", "machine": "cray-xt5",
        "training": [5, 10, 20], "target": 40, "validate": False}


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            cls.xtrace, cls.traced = harness.build(ROOT)
        finally:
            os.chdir(cwd)
        cls.tmp = tempfile.mkdtemp(prefix="xbench-test-", dir=ROOT)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def run_bench(self, workload, trace):
        r = subprocess.run(
            [sys.executable, os.path.join(XBENCH, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        return json.loads(r.stdout.strip().splitlines()[-1])

    def served(self, store, requests):
        """Bodies the daemon returns for `requests` over `store`."""
        d = Daemon(self.xtrace, store, os.path.join(self.tmp, "daemon.stderr"))
        try:
            d.wait_healthy()
            c = Client(d)
            out = []
            for path, req in requests:
                _, status, body = c.post(path, req)
                self.assertEqual(status, 200, body[:300])
                out.append(json.loads(body))
            c.close()
        finally:
            d.stop()
        return out


class QuickWorkloads(BenchTest):
    def check_result(self, res, names):
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(sorted(res["metrics"]), sorted(names))
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], float, name)

    def test_every_workload_quick(self):
        spec = bench_spec()
        e2e = [m["name"] for m in spec["end_to_end"]]
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"]):
                res = self.run_bench(w["name"], 0)
                self.check_result(res, e2e)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{w['name']} {name}")

    def test_every_workload_traced_quick(self):
        spec = bench_spec()
        layers = [m["name"] for m in spec["per_layer"]]
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"]):
                res = self.run_bench(w["name"], 1)
                self.check_result(res, layers)
                # Measured, never derived from another metric or left at 0.
                for name in ("trace.overhead_ms", "store.read_kb", "serve.wire_ms"):
                    self.assertGreater(res["metrics"][name]["value"], 0, name)


class ChecksCatchFaults(BenchTest):
    def test_tampered_artifact_in_a_copied_store(self):
        store = fresh_dir(os.path.join(self.tmp, "store"))
        [cold] = self.served(store, [("/v1/predict", UH3D)])
        copy = os.path.join(self.tmp, "tampered")
        shutil.copytree(store, copy)
        [pred_file] = glob.glob(os.path.join(copy, "*", f"prediction-t{UH3D['target']}.json"))
        with open(pred_file) as f:
            doc = json.load(f)
        doc["total_seconds"] *= 1.5
        with open(pred_file, "w") as f:
            json.dump(doc, f, indent=2)
        [honest] = self.served(store, [("/v1/predict", UH3D)])
        [tampered] = self.served(copy, [("/v1/predict", UH3D)])
        self.assertEqual(checks.warm_equals_cold(cold, honest, "honest"), [])
        self.assertNotEqual(checks.warm_equals_cold(cold, tampered, "tampered"), [])

    def test_altered_response_prediction(self):
        store = fresh_dir(os.path.join(self.tmp, "store2"))
        sweep = dict(UH3D, target=200, targets=[200, 900])
        single, rows = self.served(store, [("/v1/predict", dict(UH3D, target=200)),
                                           ("/v1/sweep", sweep)])
        row = rows["rows"][0]
        self.assertEqual(checks.row_equals_standalone(row, single, "honest"), [])
        altered = json.loads(json.dumps(single))
        # One unit in the last place: byte-equality must still notice.
        altered["prediction"]["total_seconds"] = math.nextafter(
            altered["prediction"]["total_seconds"], math.inf)
        self.assertNotEqual(checks.row_equals_standalone(row, altered, "altered"), [])
        self.assertNotEqual(checks.warm_equals_cold(single, altered, "altered"), [])
        self.assertNotEqual(checks.check_sweep_body(rows, dict(sweep, targets=[200, 901]),
                                                    "wrong target"), [])

    def test_replay_rejects_an_altered_cli_answer(self):
        work = fresh_dir(os.path.join(self.tmp, "replay"))
        out = os.path.join(work, "out.json")
        r = run_process(pipeline_argv(self.xtrace, UH3D, fresh_dir(os.path.join(work, "s")),
                                      out=out), os.path.join(work, "err"))
        self.assertEqual(r.code, 0, r.stderr)
        req = os.path.join(work, "req.json")
        with open(req, "w") as f:
            json.dump(UH3D, f)

        def replay(cli_out):
            spec = os.path.join(work, "spec.json")
            with open(spec, "w") as f:
                json.dump({"ops": [{
                    "kind": "cold", "request_body": req,
                    "replay_store": fresh_dir(os.path.join(work, "r")),
                    "engine_store": fresh_dir(os.path.join(work, "e")),
                    "cli_out": cli_out, "http_body": ""}]}, f)
            return subprocess.run([self.traced, "replay", spec, os.path.join(work, "o.json")],
                                  capture_output=True, text=True)

        self.assertEqual(replay(out).returncode, 0)
        with open(out) as f:
            text = f.read()
        bad = os.path.join(work, "bad.json")
        with open(bad, "w") as f:
            f.write(text.replace('"total_seconds": ', '"total_seconds": 1', 1))
        r = replay(bad)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("differs from the replay", r.stderr)

    def test_known_forms_catch_a_wrong_extrapolation(self):
        work = fresh_dir(os.path.join(self.tmp, "forms"))
        self.assertEqual(checks.known_forms(self.xtrace, work, 5), [])
        _, _, _, expected = checks.known_forms_traces(5)
        wrong = json.loads(json.dumps(expected))
        wrong["trace"]["blocks"][0]["instrs"][0]["features"]["mem_ops"] *= 1.001
        self.assertNotEqual(checks.compare_known_forms(expected, wrong), [])
        wrong = json.loads(json.dumps(expected))
        wrong["trace"]["blocks"][-1]["iterations"] += 1
        self.assertNotEqual(checks.compare_known_forms(expected, wrong), [])

    def test_cache_kernel_check_passes(self):
        self.assertEqual(checks.cache_kernel(self.traced, 9), [])

    def test_validation_disagreement_is_flagged(self):
        pred = {"total_seconds": 1.10}
        v = {"measured_seconds": 1.0, "extrapolated_error": 0.10000000000000009,
             "collected": {"total_seconds": 1.0}}
        err, problems = checks.validation_error(pred, v, 100, 50, "far")
        self.assertAlmostEqual(err, 0.1)
        self.assertTrue(any("differ" in p for p in problems))
        # Beyond 4x the ladder the two traces may disagree (the method's reach).
        self.assertEqual(checks.validation_error(pred, v, 1000, 50, "beyond")[1], [])
        # A program-reported error that the benchmark cannot reproduce.
        v["extrapolated_error"] = 0.2
        self.assertTrue(any("reports error" in p
                            for p in checks.validation_error(pred, v, 1000, 50, "x")[1]))


class Refusals(unittest.TestCase):
    def test_runner_refuses_a_directory_without_the_program(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(XBENCH, os.path.join(d, "xbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            r = subprocess.run([sys.executable, "xbench/run.py", "--workload", "warm_serve",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=d, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
