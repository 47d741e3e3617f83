"""The benchmark's span tracer patches repfn functions by name; a name
that no longer resolves would drop its layer from a `--trace 1` run."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repfn import cli, core
from repfn.core import RepTable, batch_table
from repfn.sets import parse_set_spec

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans_targets", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, modname, attr", [t[:3] for t in load_targets()])
def test_trace_target_resolves(name, modname, attr):
    holder = importlib.import_module(modname)
    for part in attr.split("."):
        holder = getattr(holder, part, None)
    assert callable(holder), name


@pytest.mark.parametrize("max_n", [0, 512, 4096, 4097, 2**15, 2**17])
def test_one_argument_estimate_bounds_every_route(max_n):
    # the memory probe charges a recorded table estimate(max_n), not knowing its route
    open_routes = ["naive"] + (["sparse", "co-sparse", "periodic", "fft"] if max_n > core.FFT_CUTOVER else [])
    assert core._estimate_bytes(max_n) == max(core._estimate_bytes(max_n, r) for r in open_routes)
    for spec in ("pow2", "complement(pow2)", "periodic:01;0110100", "finite:1,2,4,7"):
        for strategy in ("naive", "auto"):
            assert core._plan(parse_set_spec(spec), max_n, strategy)[2] <= core._estimate_bytes(max_n)


def test_batch_table_takes_strategy_third():
    # the memory probe replays recorded tables as fn(a, max_n, strategy)
    params = list(inspect.signature(batch_table).parameters.values())
    assert params[2].name == "strategy"
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


@pytest.mark.parametrize("max_n", [8, 5000])
@pytest.mark.parametrize(
    "argv, reached",
    [
        (("table", "--format", "json"), {"to_json_obj", "dumps"}),
        (("table", "--format", "csv"), {"to_csv"}),
        (("violations", "--format", "json"), {"dumps"}),
    ],
)
def test_bulk_outputs_reach_traced_layers(monkeypatch, capsys, argv, reached, max_n):
    # bulk-table's layers are RepTable.to_csv, RepTable.to_json_obj and cli's
    # json.dumps; a run that reaches none of them counts as uncovered
    calls = dict.fromkeys(("to_csv", "to_json_obj", "dumps"), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(RepTable, "to_csv", counting("to_csv", RepTable.to_csv))
    monkeypatch.setattr(RepTable, "to_json_obj", counting("to_json_obj", RepTable.to_json_obj))
    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=counting("dumps", json.dumps)))
    assert cli.main([*argv, "--set", "periodic:01;0110100", "--max", str(max_n)]) == 0
    capsys.readouterr()
    assert {name for name, n in calls.items() if n} == reached


# Installs the tracer in a fresh process, after one warm request or straight
# after `import repfn.cli` (as the benchmark's verify-all worker does), runs
# each request of the JSON list it is given and prints the span names each
# one recorded.
TRACE_REQUESTS = """
import contextlib, importlib.util, io, json, sys
from repfn import cli
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
bench_spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_spans)
requests = json.loads(sys.argv[3])
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[2] == "warm":
        cli.main(["table", "--set", "pow2", "--max", "8"])
    tracer = bench_spans.Tracer()
    tracer.install()
    for i, argv in enumerate(requests):
        tracer.request_id = i
        assert cli.main(argv) == 0, argv
names = [sorted({s[0] for s in tracer.spans if s[4] == i}) for i in range(len(requests))]
print(json.dumps({"missing": tracer.missing, "names": names}))
"""

# `sets.membership_bytes` is each atom class's own method, which the tracer
# wraps class by class
TRACED_REQUESTS = [
    (
        ["table", "--set", "pow2", "--max", "64", "--format", "json"],
        {"sets.parse_set_spec", "sets.membership_bytes", "core.batch_table", "cli.json_dumps"},
    ),
    (
        ["violations", "--set", "complement(pow2)", "--max", "64"],
        {"sets.membership_bytes", "core.batch_table", "monotonicity.find_violations", "cli.json_dumps"},
    ),
    (
        ["density", "--set", "pow2", "--max", "100"],
        {"monotonicity.natural_density_estimate", "cli.json_dumps"},
    ),
    (
        ["witness", "--set", "complement(finite:1,3,5)"],
        {"core.batch_table", "witnesses.predict_r2_decrease", "cli.json_dumps"},
    ),
    (
        ["render", "--set", "pow2", "--max", "12"],
        {"sets.parse_set_spec", "sets.membership_bytes", "diagram.render_diagram"},
    ),
    (
        ["verify", "diagram"],  # pool is a module that only verify reads
        {"verify.run_suite", "pool.mixed_pool", "diagram.render_diagram", "core.batch_table"},
    ),
]


@pytest.mark.parametrize("start", ["warm", "cold"])
def test_tracer_records_every_layer_of_lazy_modules(start):
    # the tracer re-binds names only in repfn modules present when it is
    # installed; the package binds each library module before it has run
    argvs = [argv for argv, _ in TRACED_REQUESTS]
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_REQUESTS, str(SPANS), start, json.dumps(argvs)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["missing"] == []
    for (argv, expected), names in zip(TRACED_REQUESTS, report["names"]):
        assert {"cli.main"} | expected <= set(names), argv
