"""The benchmark's span tracer patches repfn functions by name; a name
that no longer resolves would drop its layer from a `--trace 1` run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repfn.core import batch_table

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


def test_batch_table_takes_strategy_third():
    # the memory probe replays recorded tables as fn(a, max_n, strategy)
    params = list(inspect.signature(batch_table).parameters.values())
    assert params[2].name == "strategy"
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
