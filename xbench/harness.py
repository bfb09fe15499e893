"""Process, HTTP and statistics plumbing shared by the benchmark's runner,
checker and traced run.

Everything here talks to xtrace through its binary: `xtrace pipeline`
child processes and the v1 HTTP wire of an `xtrace serve` daemon.
"""

import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

# Threads the program may use, fixed for every workload (the reference host
# has 2 cores; one keeps the program's own work off the load generator's).
PROGRAM_THREADS = 1
# Daemon workers: one client holds one keep-alive connection.
DAEMON_WORKERS = 1

CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """A failure that makes the run's result unusable (exit non-zero)."""


_T0 = time.perf_counter()


def log(msg):
    print(f"[xbench {time.perf_counter() - _T0:7.2f}s] {msg}", file=sys.stderr, flush=True)


def repo_root():
    """The checkout the benchmark runs from: the current directory, which
    must hold the xtrace workspace."""
    root = os.getcwd()
    for need in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, need)):
            raise BenchError(
                f"{need} not found under {root}: run from the root of an xtrace checkout"
            )
    return root


def build(root):
    """Builds the `xtrace` binary and the traced-run binary from source
    (release profile, offline); returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "xtrace-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("xbench", "traced", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    out = os.path.join(root, target, "release")
    return os.path.join(out, "xtrace"), os.path.join(out, "xbench-traced")


def tree_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


class ProcResult:
    def __init__(self, wall_s, cpu_s, maxrss_kb, code, stdout, stderr):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def run_process(argv, stderr_path):
    """Runs one child to completion; wall time spans spawn to exit, CPU
    time and peak RSS come from the child's own rusage."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, "rb") as f:
        errtext = f.read().decode(errors="replace")
    return ProcResult(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, p.returncode,
                      out.decode(errors="replace"), errtext)


def pipeline_argv(xtrace, req, store, out=None, metrics_out=None):
    """`xtrace pipeline` flags equivalent to a v1 request body."""
    targets = req.get("targets") or [req["target"]]
    argv = [
        xtrace, "pipeline",
        "--app", req["app"], "--scale", req["scale"], "--machine", req["machine"],
        "--training", ",".join(str(p) for p in req["training"]),
        "--target", ",".join(str(t) for t in targets),
        "--validate", "true" if req["validate"] else "false",
        "--store", store, "--threads", str(PROGRAM_THREADS),
    ]
    if out:
        argv += ["--out", out]
    if metrics_out:
        argv += ["--metrics-out", metrics_out]
    return argv


class Daemon:
    """One `xtrace serve` process on an ephemeral localhost port."""

    def __init__(self, xtrace, store, stderr_path):
        self.stderr = open(stderr_path, "wb")
        self.proc = subprocess.Popen(
            [xtrace, "serve", "--addr", "127.0.0.1:0", "--workers", str(DAEMON_WORKERS),
             "--max-queue", "4", "--store", store, "--threads", str(PROGRAM_THREADS)],
            stdout=subprocess.PIPE, stderr=self.stderr)
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("listening on "):
            self.stop()
            raise BenchError(f"xtrace serve did not start (said {line!r})")
        host, port = line[len("listening on "):].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def wait_healthy(self, timeout_s=30.0):
        deadline = time.perf_counter() + timeout_s
        while True:
            try:
                c = http.client.HTTPConnection(self.host, self.port, timeout=5)
                c.request("GET", "/v1/healthz")
                r = c.getresponse()
                body = r.read()
                c.close()
                if r.status == 200 and json.loads(body).get("status") == "ok":
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise BenchError("xtrace serve never answered /v1/healthz")
            time.sleep(0.002)

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("VmHWM missing from /proc status")

    def stop(self):
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Client:
    """One keep-alive HTTP/1.1 connection to a daemon."""

    def __init__(self, daemon):
        self.conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=170)

    def post(self, path, req):
        """Returns (seconds, status, body bytes); the time spans send to the
        last body byte."""
        body = json.dumps(req).encode()
        t0 = time.perf_counter()
        self.conn.request("POST", path, body, {"Content-Type": "application/json"})
        r = self.conn.getresponse()
        data = r.read()
        return time.perf_counter() - t0, r.status, data

    def close(self):
        self.conn.close()


def median(values):
    return statistics.median(values)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
