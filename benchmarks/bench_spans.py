"""Span tracing of repfn's public functions, installed from outside repfn.

`Tracer.install` replaces each traced function at every name it is bound
under in the loaded `repfn` modules (`from .core import batch_table` in
another module makes a second binding that patching `repfn.core` alone
would miss).  Each call records a span: name, start, end, parent span,
request id and one measured quantity.  Spans stay in memory until the run
ends.

`PER_LAYER` lists every per-layer metric, the end-to-end metric it should
move, the workloads where it should show, and the counter that must be
non-zero on those workloads for the coverage check.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (metric, unit, coverage source, "end-to-end metric @ workload" it moves)
PER_LAYER = (
    ("process.numpy_import_s", "s", "probe", ("setup_s@bulk-table", "setup_s@small-requests", "setup_s@verify-all")),
    ("process.repfn_import_s", "s", "probe", ("setup_s@bulk-table", "setup_s@small-requests", "setup_s@verify-all")),
    ("cli.main.calls", "count", "cli.main", ("latency_p50_ms@small-requests", "rows_per_s@bulk-table")),
    ("cli.main.self_ms", "ms", "cli.main", ("latency_p50_ms@small-requests", "rows_per_s@bulk-table")),
    ("cli.json_dumps.busy_ms", "ms", "cli.json_dumps", ("latency_p50_ms@small-requests", "rows_per_s@bulk-table")),
    ("cli.json_dumps.bytes", "bytes", "cli.json_dumps", ("latency_p50_ms@small-requests", "rows_per_s@bulk-table")),
    ("sets.parse_set_spec.calls", "count", "sets.parse_set_spec", ("requests_per_s@small-requests", "latency_p50_ms@small-requests")),
    ("sets.parse_set_spec.busy_ms", "ms", "sets.parse_set_spec", ("requests_per_s@small-requests", "latency_p50_ms@small-requests")),
    ("sets.membership_bytes.busy_ms", "ms", "sets.membership_bytes", ("requests_per_s@small-requests", "latency_p50_ms@small-requests")),
    ("sets.membership_bytes.bytes", "bytes", "sets.membership_bytes", ("requests_per_s@small-requests", "latency_p50_ms@small-requests")),
    ("sets.complement_prefix.busy_ms", "ms", "sets.complement_prefix", ("requests_per_s@small-requests", "latency_p50_ms@small-requests")),
    ("core.batch_table.calls", "count", "core.batch_table", ("rows_per_s@bulk-table", "latency_p90_ms@bulk-table", "wall_s@verify-all")),
    ("core.batch_table.busy_ms", "ms", "core.batch_table", ("rows_per_s@bulk-table", "latency_p90_ms@bulk-table", "wall_s@verify-all")),
    ("core.batch_table.self_ms", "ms", "core.batch_table", ("rows_per_s@bulk-table", "latency_p90_ms@bulk-table", "wall_s@verify-all")),
    ("core.batch_table.rows", "count", "core.batch_table", ("rows_per_s@bulk-table", "latency_p90_ms@bulk-table", "wall_s@verify-all")),
    ("core.batch_table.rows_per_s", "1/s", "core.batch_table", ("rows_per_s@bulk-table", "latency_p90_ms@bulk-table", "wall_s@verify-all")),
    ("core.batch_table.pair_ops_computed", "count", "core.batch_table", ("rows_per_s@bulk-table", "latency_p90_ms@bulk-table", "wall_s@verify-all")),
    ("core.RepTable.to_csv.busy_ms", "ms", "core.RepTable.to_csv", ("rows_per_s@bulk-table", "latency_p50_ms@bulk-table")),
    ("core.RepTable.to_csv.bytes", "bytes", "core.RepTable.to_csv", ("rows_per_s@bulk-table", "latency_p50_ms@bulk-table")),
    ("core.RepTable.to_json_obj.busy_ms", "ms", "core.RepTable.to_json_obj", ("rows_per_s@bulk-table", "latency_p50_ms@bulk-table")),
    ("core.estimated_bytes", "bytes", "memprobe", ("peak_rss_mib@bulk-table", "peak_rss_mib@small-requests", "peak_rss_mib@verify-all")),
    ("core.traced_peak_bytes", "bytes", "memprobe", ("peak_rss_mib@bulk-table", "peak_rss_mib@small-requests", "peak_rss_mib@verify-all")),
    ("core.estimate_over_peak", "ratio", "memprobe", ("peak_rss_mib@bulk-table", "peak_rss_mib@small-requests", "peak_rss_mib@verify-all")),
    ("budget.rejects", "count", "budget", ("latency_p90_ms@small-requests", "failed_ratio@small-requests")),
    ("budget.reject_ms", "ms", "budget", ("latency_p90_ms@small-requests", "failed_ratio@small-requests")),
)
BUDGET_COMMANDS = ("table", "witness", "render", "density")
PER_LAYER += tuple(
    (f"budget.{cmd}.{what}", unit, f"cli.main:{cmd}", ("latency_p90_ms@small-requests", "failed_ratio@small-requests"))
    for cmd in BUDGET_COMMANDS
    for what, unit in (("rejects", "count"), ("reject_ms", "ms"))
)
PER_LAYER += (
    ("monotonicity.find_violations.busy_ms", "ms", "monotonicity.find_violations", ("latency_p50_ms@small-requests",)),
    ("monotonicity.natural_density_estimate.busy_ms", "ms", "monotonicity.natural_density_estimate", ("latency_p50_ms@small-requests",)),
    ("witnesses.predict_r2_decrease.calls", "count", "witnesses.predict_r2_decrease", ("latency_p50_ms@small-requests", "wall_s@verify-all")),
    ("witnesses.predict_r2_decrease.busy_ms", "ms", "witnesses.predict_r2_decrease", ("latency_p50_ms@small-requests", "wall_s@verify-all")),
    ("witnesses.first_r2_decrease_bruteforce.busy_ms", "ms", "witnesses.first_r2_decrease_bruteforce", ("latency_p50_ms@small-requests", "wall_s@verify-all")),
    # no CLI subcommand reaches refute_strict_increase, so only verify-all can show it
    ("witnesses.refute_strict_increase.calls", "count", "witnesses.refute_strict_increase", ("wall_s@verify-all",)),
    ("witnesses.refute_strict_increase.busy_ms", "ms", "witnesses.refute_strict_increase", ("wall_s@verify-all",)),
    ("diagram.render_diagram.calls", "count", "diagram.render_diagram", ("latency_p90_ms@small-requests",)),
    ("diagram.render_diagram.busy_ms", "ms", "diagram.render_diagram", ("latency_p90_ms@small-requests",)),
    ("diagram.diagram_points.points", "count", "diagram.diagram_points", ("latency_p90_ms@small-requests",)),
)
SUITES = ("closed-forms", "identities", "strategies", "density-zero", "density-one", "blocks", "decrease", "window-step", "diagram")
PER_LAYER += tuple((f"verify.run_suite.{s}.s", "s", f"verify.run_suite:{s}", ("wall_s@verify-all",)) for s in SUITES)
PER_LAYER += (
    ("pool.mixed_pool.busy_ms", "ms", "pool.mixed_pool", ("wall_s@verify-all",)),
    ("pool.decrease_pool.busy_ms", "ms", "pool.decrease_pool", ("wall_s@verify-all",)),
    ("trace.overhead_s", "s", None, ()),
)


def _argv0(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def _first_arg(args, kwargs, result):
    return args[0] if args else None


def _length(args, kwargs, result):
    return len(result)


# (span name, module, attribute, measure); "Class.method" names a method
TARGETS = (
    ("cli.main", "repfn.cli", "main", _argv0),
    ("sets.parse_set_spec", "repfn.sets", "parse_set_spec", None),
    ("sets.complement_prefix", "repfn.sets", "complement_prefix", None),
    ("core.batch_table", "repfn.core", "batch_table", None),  # measured by Tracer._table_measure
    ("core.RepTable.to_csv", "repfn.core", "RepTable.to_csv", _length),
    ("core.RepTable.to_json_obj", "repfn.core", "RepTable.to_json_obj", None),
    ("monotonicity.find_violations", "repfn.monotonicity", "find_violations", None),
    ("monotonicity.natural_density_estimate", "repfn.monotonicity", "natural_density_estimate", None),
    ("witnesses.predict_r2_decrease", "repfn.witnesses", "predict_r2_decrease", None),
    ("witnesses.first_r2_decrease_bruteforce", "repfn.witnesses", "first_r2_decrease_bruteforce", None),
    ("witnesses.refute_strict_increase", "repfn.witnesses", "refute_strict_increase", None),
    ("diagram.render_diagram", "repfn.diagram", "render_diagram", None),
    ("diagram.diagram_points", "repfn.diagram", "diagram_points", _length),
    ("verify.run_suite", "repfn.verify", "run_suite", _first_arg),
    ("pool.mixed_pool", "repfn.pool", "mixed_pool", None),
    ("pool.decrease_pool", "repfn.pool", "decrease_pool", None),
)


class _JsonProxy:
    """Stands in for the `json` module inside repfn.cli with a traced dumps."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, request id, measured value]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request_id = None
        self.budget_events: list[tuple[float, object]] = []
        self.table_calls: dict[tuple, tuple] = {}
        self.missing: list[str] = []

    def wrap(self, name, fn, measure=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "repfn" or n.startswith("repfn.")]
        for name, modname, attr, measure in TARGETS:
            owner = importlib.import_module(modname)
            cls_name, _, meth = attr.rpartition(".")
            holder = getattr(owner, cls_name) if cls_name else owner
            fn = getattr(holder, meth, None)
            if fn is None:
                self.missing.append(name)
                continue
            if name == "core.batch_table":
                measure = self._table_measure
            wrapped = self.wrap(name, fn, measure)
            if cls_name:
                setattr(holder, meth, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
        self._install_membership()
        self._install_json()
        self._install_budget()

    def _table_measure(self, args, kwargs, result):
        a, max_n = args[0], result.max_n
        strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "auto")
        self.table_calls.setdefault((id(a), max_n, strategy), (a, max_n, strategy))
        return max_n + 1

    def _install_membership(self) -> None:
        sets = importlib.import_module("repfn.sets")
        todo = [sets.IntegerSet]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            fn = cls.__dict__.get("membership_bytes")
            if fn is not None and cls is not sets.IntegerSet:
                setattr(cls, "membership_bytes", self.wrap("sets.membership_bytes", fn, _length))

    def _install_json(self) -> None:
        cli = importlib.import_module("repfn.cli")
        real = cli.json
        cli.json = _JsonProxy(real, self.wrap("cli.json_dumps", real.dumps, _length))

    def _install_budget(self) -> None:
        errors = importlib.import_module("repfn.errors")
        cls = errors.BudgetExceededError
        init = cls.__init__
        events = self.budget_events

        def traced_init(exc, *args, **kwargs):
            events.append((time.perf_counter(), self.request_id))
            init(exc, *args, **kwargs)

        cls.__init__ = traced_init

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request", "value"],
                    "spans": self.spans,
                    "budget_events": self.budget_events,
                },
                fh,
            )


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def span_stats(spans) -> dict:
    """Per span name: calls, busy (outermost spans only), self time, and
    the sum of measured values over outermost spans.

    Self time is a span's duration minus what its child spans cover.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, _req, value) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "value": 0})
        st["calls"] += 1
        covered = union_length(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        )
        st["self"] += (end - start) - covered
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st["busy"] += end - start
            if isinstance(value, (int, float)):
                st["value"] += value
    return stats


def counters(tracer: Tracer) -> dict[str, int]:
    """Call counts the coverage check reads, keyed like PER_LAYER sources."""
    out: dict[str, int] = defaultdict(int)
    for name, _s, _e, _p, _r, value in tracer.spans:
        out[name] += 1
        if name in ("cli.main", "verify.run_suite"):
            out[f"{name}:{value}"] += 1
    out["budget"] = len(tracer.budget_events)
    return dict(out)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans, per pass of the request list."""
    stats = span_stats(tracer.spans)
    zero = {"calls": 0, "busy": 0.0, "self": 0.0, "value": 0}
    out: dict[str, float] = {}

    def get(name):
        return stats.get(name, zero)

    def per_pass(x):
        return x / passes

    for name in (
        "cli.main", "sets.parse_set_spec", "core.batch_table", "witnesses.predict_r2_decrease",
        "witnesses.refute_strict_increase", "diagram.render_diagram",
    ):
        out[f"{name}.calls"] = per_pass(get(name)["calls"])
    for name in (
        "cli.json_dumps", "sets.parse_set_spec", "sets.membership_bytes", "sets.complement_prefix",
        "core.batch_table", "core.RepTable.to_csv", "core.RepTable.to_json_obj",
        "monotonicity.find_violations", "monotonicity.natural_density_estimate",
        "witnesses.predict_r2_decrease", "witnesses.first_r2_decrease_bruteforce",
        "witnesses.refute_strict_increase", "diagram.render_diagram", "pool.mixed_pool", "pool.decrease_pool",
    ):
        out[f"{name}.busy_ms"] = per_pass(get(name)["busy"] * 1000)
    out["cli.main.self_ms"] = per_pass(get("cli.main")["self"] * 1000)
    out["core.batch_table.self_ms"] = per_pass(get("core.batch_table")["self"] * 1000)
    for name in ("cli.json_dumps", "sets.membership_bytes", "core.RepTable.to_csv"):
        out[f"{name}.bytes"] = per_pass(get(name)["value"])
    table = get("core.batch_table")
    out["core.batch_table.rows"] = per_pass(table["value"])
    out["core.batch_table.rows_per_s"] = table["value"] / table["busy"] if table["busy"] else 0.0
    out["core.batch_table.pair_ops_computed"] = per_pass(
        sum(s[5] * (s[5] + 1) // 2 for s in _outermost(tracer.spans, "core.batch_table") if s[5] is not None)
    )
    out["diagram.diagram_points.points"] = per_pass(get("diagram.diagram_points")["value"])

    mains = {s[4]: (s[1], s[5]) for s in tracer.spans if s[0] == "cli.main"}
    rejects = {cmd: [0, 0.0] for cmd in BUDGET_COMMANDS}
    for t, req in tracer.budget_events:
        if req in mains:
            start, cmd = mains[req]
            if cmd in rejects:
                rejects[cmd][0] += 1
                rejects[cmd][1] += (t - start) * 1000
    for cmd, (count, ms) in rejects.items():
        out[f"budget.{cmd}.rejects"] = per_pass(count)
        out[f"budget.{cmd}.reject_ms"] = per_pass(ms)
    out["budget.rejects"] = per_pass(sum(c for c, _ in rejects.values()))
    out["budget.reject_ms"] = per_pass(sum(ms for _, ms in rejects.values()))

    suite_s = defaultdict(float)
    for s in tracer.spans:
        if s[0] == "verify.run_suite":
            suite_s[s[5]] += s[2] - s[1]
    for suite in SUITES:
        out[f"verify.run_suite.{suite}.s"] = per_pass(suite_s[suite])
    return out


def _outermost(spans, name):
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            yield s


def memory_probe(tracer: Tracer, limit: int = 6) -> dict[str, float]:
    """Re-run a spread of the traced batch_table calls under tracemalloc.

    The probe runs after the timed phase so tracemalloc's cost stays out of
    the spans.  Up to `limit` calls are taken evenly across the recorded
    calls sorted by size, always including the largest.
    """
    import tracemalloc

    core = importlib.import_module("repfn.core")
    fn = _unwrapped(core.batch_table)
    estimate = getattr(core, "_estimate_bytes", None)
    calls = sorted(tracer.table_calls.values(), key=lambda c: c[1])
    if not calls or estimate is None:
        return {"core.estimated_bytes": 0.0, "core.traced_peak_bytes": 0.0, "core.estimate_over_peak": 0.0, "probed": 0}
    step = (len(calls) - 1) / max(limit - 1, 1)
    picks = sorted({round(i * step) for i in range(min(limit, len(calls)))} | {len(calls) - 1})
    est_total = peak_total = 0
    tracer.request_id = "memory-probe"  # marks the probe's spans in the written trace
    for i in picks:
        a, max_n, strategy = calls[i]
        tracemalloc.start()
        try:
            fn(a, max_n, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        est_total += estimate(max_n)
        peak_total += peak
    return {
        "core.estimated_bytes": float(est_total),
        "core.traced_peak_bytes": float(peak_total),
        "core.estimate_over_peak": est_total / peak_total if peak_total else 0.0,
        "probed": len(picks),
    }


def _unwrapped(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn
