#!/usr/bin/env python3
"""repfn benchmark: end-to-end metrics with --trace 0, per-layer with --trace 1.

Run from the repository root:

    python3 benchmarks/run.py --workload bulk-table --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* bulk-table     table/violations requests at N log-uniform on [2^12, 2^17]
* small-requests thousands of cheap requests at N <= 512, 4% oversized
* verify-all     `python -m repfn verify all` in a fresh process per run

bulk-table and small-requests drive `repfn.cli.main(argv)` inside one worker
process with a single closed-loop client: the next request is sent only
after the previous response has come back and been checked.  Every
response is checked by an oracle that does not use repfn, outside the timed
region.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's details (provenance, sample counts, failures, layer mapping).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bench_oracle  # noqa: E402
import bench_spans  # noqa: E402
import bench_workloads  # noqa: E402
from bench_worker import recv, send  # noqa: E402

DEFAULT_SECONDS = 30
MIN_REQUESTS = 100  # p90 then has at least 10 samples beyond it
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every child is killed if a run takes longer than this
DIGESTS = BENCH / "digests.json"
SPANS_DIR = BENCH / "out"
VERIFY_ARGV = ("-m", "repfn", "verify", "all")
# Workers and verify processes run on this one CPU, so their caches stay warm
# and the scheduler does not move them mid-request; setup probes do not.
BENCH_CPU = max(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "requests_per_s": "1/s",
    "rows_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def percentile(samples, p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def hd_quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982).

    A mean of all order statistics, the i-th weighted by the mass that
    Beta((n+1)p, (n+1)(1-p)) puts on ((i-1)/n, i/n].  A single order
    statistic jumps across the gap between the latencies of two neighbouring
    requests when noise swaps them; this estimate moves smoothly.  The beta
    density is integrated by the midpoint rule, 256 points per interval.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    if n == 1:
        return float(xs[0])
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    t = (np.arange(256 * n) + 0.5) / (256 * n)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, 256).sum(axis=1)
    return float(weights @ xs / weights.sum())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify_digest(stdout: str) -> str:
    # suite timings differ on every run; everything else must not
    return digest(re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": 0', stdout))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Children:
    """Every process the run starts; all are killed once RUN_LIMIT_S passes."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []
        self.timer = threading.Timer(RUN_LIMIT_S, self.kill)
        self.timer.daemon = True
        self.timer.start()

    def spawn(self, argv, *, pin: bool = False, **kwargs) -> subprocess.Popen:
        """Start a child; with `pin` it inherits an affinity of BENCH_CPU alone."""
        allowed = os.sched_getaffinity(0)
        if pin:
            os.sched_setaffinity(0, {BENCH_CPU})
        try:
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), **kwargs)
        finally:
            os.sched_setaffinity(0, allowed)
        self.procs.append(proc)
        return proc

    def kill(self) -> None:
        for proc in self.procs:
            if proc.returncode is None:
                proc.kill()

    def reap(self, proc: subprocess.Popen):
        """Wait for proc; return (exit code, peak RSS in MiB) from wait4."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024

    def close(self) -> None:
        self.timer.cancel()
        self.kill()
        for proc in self.procs:
            if proc.returncode is None:
                self.reap(proc)


def measure_setup(children: Children) -> dict:
    """Fresh interpreter until repfn.cli is imported, SETUP_PROBES times."""
    total, numpy_s, repfn_s = [], [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = children.spawn([sys.executable, str(BENCH / "bench_worker.py"), "--probe"], stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        total.append(time.perf_counter() - start)
        proc.stdout.close()
        rc, _ = children.reap(proc)
        if rc != 0:
            raise RuntimeError(f"setup probe exited {rc}")
        times = json.loads(line)
        numpy_s.append(times["numpy_import_s"])
        repfn_s.append(times["repfn_import_s"])
    return {
        "setup_s": statistics.median(total),
        "process.numpy_import_s": statistics.median(numpy_s),
        "process.repfn_import_s": statistics.median(repfn_s),
        "samples": total,
    }


class Worker:
    def __init__(self, children: Children):
        self.children = children
        self.spawned = time.perf_counter()
        self.proc = children.spawn(
            [sys.executable, str(BENCH / "bench_worker.py")], pin=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        recv(self.proc.stdout)  # the worker has imported repfn
        self.ready_s = time.perf_counter() - self.spawned

    def call(self, msg: dict):
        send(self.proc.stdin, msg)
        return recv(self.proc.stdout)

    def finish(self, **msg):
        reply = self.call({"op": "finish", **msg})
        self.proc.stdin.close()
        self.proc.stdout.close()
        _, rss = self.children.reap(self.proc)
        return reply, rss


class Tally:
    """Requests attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.examples: list[dict] = []
        self.wrong_output = 0

    def add(self, argv, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if reason != bench_oracle.NOT_REJECTED:
            self.wrong_output += 1
        if len(self.examples) < 5:
            self.examples.append({"argv": list(argv), "reason": reason})


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def argv_digest(argvs) -> str:
    return digest(json.dumps([list(a) for a in argvs]))


class RequestRun:
    """Closed-loop passes over one seeded request list in one worker."""

    def __init__(self, worker: Worker, reqs, guard: dict | None, tally: Tally):
        self.worker, self.reqs, self.guard, self.tally = worker, reqs, guard, tally
        self.first: list[tuple] = []  # (stdout digest, exit code, failure) per request of pass 0
        self.guard_mismatch = None
        self.passes = 0

    def one_request(self, i: int, latencies: list, rows: list) -> float:
        req = self.reqs[i]
        resp = self.worker.call({"op": "run", "argv": req.argv, "id": (self.passes, i)})
        latency = resp["latency_s"]
        latencies.append(latency)
        if req.rows:
            rows[0] += req.rows
            rows[1] += latency
        key = (digest(resp["stdout"]), resp["rc"])
        if len(self.first) <= i:
            reason = bench_oracle.check(req, resp["rc"], resp["stdout"], resp["exception"])
            if self.guard is not None and key[0] != self.guard["stdout_sha256"][i]:
                if self.guard_mismatch is None:
                    self.guard_mismatch = {"index": i, "argv": list(req.argv)}
                reason = reason or "stdout differs from the recorded digest"
            self.first.append((*key, reason))
        else:
            reason = self.first[i][2] if key == self.first[i][:2] else "response differs from the first pass"
        self.tally.add(req.argv, reason)
        return latency

    def warm_up(self) -> None:
        """One untimed pass.  The oracle checks its responses between its
        requests, so that work stays out of every timed pass.  The worker also
        changes state over its first pass: on bulk-table, the first pass of a
        fresh worker had a median latency 10-20% below that of later passes,
        which agree with each other."""
        for i in range(len(self.reqs)):
            self.one_request(i, [], [0, 0.0])
        self.passes += 1

    def passes_for(self, seconds: float, *, min_samples: int = MIN_REQUESTS) -> list[dict]:
        """Run whole passes until one more would overrun `seconds` of request
        time (after at least one pass) and at least `min_samples` latencies
        are taken; return one record per pass.
        """
        passes = []
        while True:
            latencies, rows = [], [0, 0.0]
            for i in range(len(self.reqs)):
                self.one_request(i, latencies, rows)
            passes.append({"latencies": latencies, "rows": rows[0], "rows_time": rows[1], "time": sum(latencies)})
            self.passes += 1
            ahead = sum(p["time"] for p in passes) + passes[-1]["time"]
            if ahead >= seconds and len(passes) * len(self.reqs) >= min_samples:
                return passes


def latency_groups(passes: list[dict]) -> list[list[float]]:
    """Per pass when a pass alone has 10 samples beyond p90, else all pooled."""
    if len(passes[0]["latencies"]) >= MIN_REQUESTS:
        return [p["latencies"] for p in passes]
    return [[x for p in passes for x in p["latencies"]]]


def end_to_end(setup: dict, passes: list[dict], peak_rss: float) -> dict:
    """Each figure is taken per pass of the request list, or per group of
    latencies for the percentiles, and the run reports the median.  A slow
    spell on a shared machine then moves a few passes, not the result.
    Percentiles are Harrell-Davis estimates (`hd_quantile`)."""
    p50s, p90s = [], []
    for group in latency_groups(passes):
        p50 = hd_quantile(group, 0.5)
        _, beyond = percentile(group, 90)
        p50s.append(p50)
        # too few requests for a tail percentile: report the median instead
        p90s.append(hd_quantile(group, 0.9) if beyond >= 10 else p50)
    return {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(p["time"] for p in passes),
        "requests_per_s": statistics.median(len(p["latencies"]) / p["time"] for p in passes),
        "rows_per_s": statistics.median(p["rows"] / p["rows_time"] for p in passes),
        "latency_p50_ms": statistics.median(p50s) * 1000,
        "latency_p90_ms": statistics.median(p90s) * 1000,
        "peak_rss_mib": peak_rss,
    }


def sample_info(passes: list[dict]) -> dict:
    groups = latency_groups(passes)
    beyond = min(percentile(g, 90)[1] for g in groups)
    return {
        "latency_samples": sum(len(g) for g in groups),
        "percentiles_over": "each pass" if len(groups) > 1 else "all passes pooled",
        "beyond_p90_per_group": beyond,
        "latency_p90_ms_is": "p90" if beyond >= 10 else "p50, too few samples for p90",
        "complete_passes": len(passes),
        "pass_times_s": [p["time"] for p in passes],
    }


def run_requests(args, children: Children, setup: dict, tally: Tally, details: dict) -> dict:
    reqs = bench_workloads.requests_for(args.workload, args.seed)
    recorded = load_digests().get(args.workload)
    argvs = argv_digest(r.argv for r in reqs)
    guard = recorded if recorded and recorded["argv_sha256"] == argvs else None
    worker = Worker(children)
    run = RequestRun(worker, reqs, guard, tally)
    details["requests_per_pass"] = len(reqs)
    run.warm_up()
    if not args.trace:
        m = run.passes_for(args.seconds)
        _, rss = worker.finish()
        details["samples"] = sample_info(m)
        metrics = end_to_end(setup, m, rss)
    else:
        plain = run.passes_for(0.4 * args.seconds, min_samples=0)
        missing = worker.call({"op": "trace"})["missing"]
        traced = run.passes_for(0.4 * args.seconds, min_samples=0)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        reply, _ = worker.finish(passes=len(traced), spans_path=str(spans_path))
        details["samples"] = {"untraced": sample_info(plain), "traced": sample_info(traced)}
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        overhead = statistics.median(p["time"] for p in traced) - statistics.median(p["time"] for p in plain)
        metrics = layer_report(args, setup, reply, missing, overhead, details)
    details["byte_identity"] = {
        "checked": guard is not None,
        "first_mismatch": run.guard_mismatch,
    }
    return metrics


def layer_report(args, setup: dict, reply: dict, missing: list, overhead: float, details: dict) -> dict:
    metrics = dict(reply["layers"])
    memory = reply["memory"]
    for key in ("core.estimated_bytes", "core.traced_peak_bytes", "core.estimate_over_peak"):
        metrics[key] = memory[key]
    metrics["process.numpy_import_s"] = setup["process.numpy_import_s"]
    metrics["process.repfn_import_s"] = setup["process.repfn_import_s"]
    metrics["trace.overhead_s"] = overhead
    counters = {**reply["counters"], "probe": len(setup["samples"]), "memprobe": memory["probed"]}
    uncovered = [
        name
        for name, _unit, source, moves in bench_spans.PER_LAYER
        if any(m.endswith("@" + args.workload) for m in moves) and counters.get(source, 0) == 0
    ]
    details["layer_coverage"] = {"uncovered": uncovered, "missing_functions": missing}
    details["layer_mapping"] = {name: list(moves) for name, _u, _s, moves in bench_spans.PER_LAYER}
    details["tracing_overhead_s"] = overhead
    details["spans_recorded"] = reply["spans"]
    details["memory_probe_calls"] = memory["probed"]
    return metrics


def verify_once(children: Children, guard: dict | None, tally: Tally) -> tuple[float, float, str | None]:
    """One `python -m repfn verify all`: (wall seconds, peak RSS MiB, digest)."""
    start = time.perf_counter()
    proc = children.spawn([sys.executable, *VERIFY_ARGV], pin=True, stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    rc, rss = children.reap(proc)
    wall = time.perf_counter() - start
    reason, dig = None, None
    if rc != 0:
        reason = f"exit {rc}, expected 0"
    else:
        try:
            report = json.loads(out)
            suites = [r["suite"] for r in report]
            if sorted(suites) != sorted(bench_spans.SUITES) or not all(r["passed"] for r in report):
                reason = "a suite is missing or failed"
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"malformed output: {exc}"
        dig = verify_digest(out)
        if reason is None and guard is not None and dig != guard["stdout_sha256"][0]:
            reason = "stdout differs from the recorded digest"
    tally.add(("python", *VERIFY_ARGV), reason)
    return wall, rss, dig


def run_verify_all(args, children: Children, setup: dict, tally: Tally, details: dict) -> dict:
    recorded = load_digests().get("verify-all")
    guard = recorded if recorded and recorded["argv_sha256"] == argv_digest([VERIFY_ARGV]) else None
    details["byte_identity"] = {"checked": guard is not None}
    if args.trace:
        plain_wall, _, _ = verify_once(children, guard, tally)
        worker = Worker(children)
        missing = worker.call({"op": "trace"})["missing"]
        result = worker.call({"op": "verify"})
        tally.add(("run_suites", "all"), f"suites failed: {result['failed']}" if result["failed"] else None)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-verify-all-seed{args.seed}.json"
        reply, _ = worker.finish(passes=1, spans_path=str(spans_path))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["traced_wall_s"] = worker.ready_s + result["wall_s"]
        details["untraced_wall_s"] = plain_wall
        return layer_report(args, setup, reply, missing, worker.ready_s + result["wall_s"] - plain_wall, details)
    walls, rss = [], []
    while sum(walls) < args.seconds:
        wall, peak, _ = verify_once(children, guard, tally)
        walls.append(wall)
        rss.append(peak)
    # one pass per verify-all process; its rows are the suites of the report
    passes = [{"latencies": [w], "rows": len(bench_spans.SUITES), "rows_time": w, "time": w} for w in walls]
    details["samples"] = sample_info(passes)
    return end_to_end(setup, passes, max(rss))


def provenance() -> dict:
    sha = dirty = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True
        ).stdout.strip()
        if Path(top).resolve() == ROOT:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                    capture_output=True, text=True, check=True,
                ).stdout.strip()
            )
    except (OSError, subprocess.CalledProcessError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def record_digests(args) -> int:
    """Store per-response stdout digests for the default seed's request list."""
    children = Children()
    tally = Tally()
    try:
        if args.workload == "verify-all":
            _, _, dig = verify_once(children, None, tally)
            entry = {"seed": args.seed, "argv_sha256": argv_digest([VERIFY_ARGV]), "stdout_sha256": [dig]}
        else:
            reqs = bench_workloads.requests_for(args.workload, args.seed)
            worker = Worker(children)
            run = RequestRun(worker, reqs, None, tally)
            run.warm_up()
            worker.finish()
            entry = {
                "seed": args.seed,
                "argv_sha256": argv_digest(r.argv for r in reqs),
                "stdout_sha256": [d for d, _rc, _r in run.first],
            }
    finally:
        children.close()
    if tally.wrong_output:
        print(f"not recorded: {tally.wrong_output} responses are wrong: {tally.examples}", file=sys.stderr)
        return 1
    data = load_digests()
    data[args.workload] = entry
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entry['stdout_sha256'])} digests for {args.workload}; failed requests: {tally.reasons}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=bench_workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true", help="store response digests for the default seed")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repfn" / "cli.py").is_file():
        print(f"no repfn sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.record_digests:
        if args.seed != bench_workloads.DEFAULT_SEED:
            print("digests are recorded for the default seed only", file=sys.stderr)
            return 2
        return record_digests(args)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_avg_start": os.getloadavg(),
        "bench_cpu": BENCH_CPU,
        "provenance": provenance(),
        "client": "one closed-loop client",
    }
    children = Children()
    tally = Tally()
    try:
        setup = measure_setup(children)
        details["setup_samples_s"] = setup["samples"]
        runner = run_verify_all if args.workload == "verify-all" else run_requests
        metrics = runner(args, children, setup, tally, details)
    finally:
        children.close()
    details["load_avg_end"] = os.getloadavg()
    details["failed_ratio"] = tally.failed / tally.attempted
    details["failures"] = {"by_reason": tally.reasons, "examples": tally.examples}
    coverage = details.get("layer_coverage", {})
    correct = tally.wrong_output == 0 and not coverage.get("uncovered") and not coverage.get("missing_functions")

    if args.trace:
        units = {name: unit for name, unit, _s, _m in bench_spans.PER_LAYER}
    else:
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
