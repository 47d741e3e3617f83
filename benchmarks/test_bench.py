"""Tests of the benchmark harness itself: the percentile rule and
estimate, span self-time arithmetic, and how failed requests are counted."""

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_oracle  # noqa: E402
import bench_spans  # noqa: E402
import bench_workloads  # noqa: E402
import run as bench_run  # noqa: E402
from bench_worker import run_request  # noqa: E402


class InProcessWorker:
    """Stands in for the worker process; `corrupt` alters chosen responses."""

    def __init__(self, corrupt=()):
        self.corrupt = set(corrupt)

    def call(self, msg):
        resp = run_request(msg["argv"])
        if msg["id"][1] in self.corrupt:
            resp["stdout"] = resp["stdout"].replace("1", "2", 1)
        return resp


def density_request(n, *, oversized=False):
    case = bench_workloads.SetCase("sparse", "pow2")
    argv = ["density", "--set", "pow2", "--max", str(n)]
    if oversized:
        argv += ["--budget", str(bench_workloads.SMALL_BUDGET)]
    return bench_workloads.Request("density", tuple(argv), case, n, oversized=oversized)


def test_percentile_counts_samples_beyond_its_rank():
    samples = list(range(1, 101))
    assert bench_run.percentile(samples, 90) == (90, 10)
    assert bench_run.percentile(samples, 50) == (50, 50)
    assert bench_run.percentile(samples[:99], 90) == (90, 9)


def test_run_continues_until_p90_has_ten_samples_beyond_it():
    tally = bench_run.Tally()
    run = bench_run.RequestRun(InProcessWorker(), [density_request(64), density_request(100), density_request(7)], None, tally)
    passes = run.passes_for(0.0)
    samples = [x for p in passes for x in p["latencies"]]
    assert len(samples) >= bench_run.MIN_REQUESTS
    assert bench_run.percentile(samples, 90)[1] >= 10
    assert all(len(p["latencies"]) == 3 for p in passes)  # whole passes only
    assert tally.failed == 0


def test_tail_percentile_falls_back_to_the_median_with_few_samples():
    passes = [{"latencies": [x], "rows": 9, "rows_time": x, "time": x} for x in (1.0, 2.0, 3.0, 9.0)]
    metrics = bench_run.end_to_end({"setup_s": 0.3}, passes, 50.0)
    assert metrics["latency_p90_ms"] == metrics["latency_p50_ms"]
    assert metrics["latency_p50_ms"] == pytest.approx(1000 * bench_run.hd_quantile([1.0, 2.0, 3.0, 9.0], 0.5))


def test_percentiles_are_taken_per_pass_when_a_pass_is_large_enough():
    base = [0.001 * (i + 1) for i in range(200)]
    passes = [
        {"latencies": [x * k for x in base], "rows": 10, "rows_time": 1.0, "time": sum(base) * k}
        for k in (1.0, 1.0, 3.0)  # one pass taken during a slow spell
    ]
    metrics = bench_run.end_to_end({"setup_s": 0.3}, passes, 50.0)
    assert metrics["latency_p90_ms"] == pytest.approx(180.5)
    assert metrics["latency_p50_ms"] == pytest.approx(100.5)
    assert metrics["wall_s"] == pytest.approx(sum(base))


def test_median_estimate_does_not_jump_across_a_gap():
    even = [1.0] * 20 + [2.0] * 20
    shifted = [1.0] * 19 + [2.0] * 21  # noise moved one request across the gap
    assert statistics.median(shifted) - statistics.median(even) == 0.5
    assert bench_run.hd_quantile(even, 0.5) == pytest.approx(1.5)
    assert bench_run.hd_quantile(shifted, 0.5) - bench_run.hd_quantile(even, 0.5) < 0.15
    assert bench_run.hd_quantile([7.0] * 9, 0.9) == pytest.approx(7.0)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 3.0, 0, 0, 4],
        ["b", 2.0, 5.0, 0, 0, 6],  # overlaps its sibling; the overlap counts once
        ["c", 7.0, 8.0, 0, 0, None],
        ["b", 7.2, 7.6, 3, 0, 1],
        ["b", 7.3, 7.5, 4, 0, 1],  # nested in a span of its own name
    ]
    stats = bench_spans.span_stats(spans)
    assert stats["a"]["self"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert stats["c"]["self"] == pytest.approx(1.0 - 0.4)
    assert stats["b"]["calls"] == 4
    # busy counts only spans with no ancestor of the same name
    assert stats["b"]["busy"] == pytest.approx(2.0 + 3.0 + 0.4)
    assert stats["b"]["value"] == 4 + 6 + 1
    assert stats["b"]["self"] == pytest.approx(2.0 + 3.0 + 0.2 + 0.2)


def test_union_length_merges_overlaps():
    assert bench_spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert bench_spans.union_length([]) == 0


def test_wrong_output_and_unrejected_oversized_request_both_fail():
    reqs = [density_request(50), density_request(300_000, oversized=True), density_request(80)]
    tally = bench_run.Tally()
    run = bench_run.RequestRun(InProcessWorker(corrupt={0}), reqs, None, tally)
    run.passes_for(0.0, min_samples=0)
    assert tally.attempted == 3
    assert tally.failed == 2
    assert tally.reasons[bench_oracle.NOT_REJECTED] == 1
    assert tally.wrong_output == 1  # the corrupted response; the oversized one printed a right count


def test_oracle_accepts_right_answers_for_every_request_kind():
    reqs = bench_workloads.small_requests(7)
    for req in reqs[:60]:
        resp = run_request(req.argv)
        reason = bench_oracle.check(req, resp["rc"], resp["stdout"], resp["exception"])
        assert reason in (None, bench_oracle.NOT_REJECTED), (req.argv, reason)


def test_request_lists_depend_only_on_the_seed():
    assert bench_workloads.bulk_table(3) == bench_workloads.bulk_table(3)
    assert bench_workloads.small_requests(3) != bench_workloads.small_requests(4)
    assert len(bench_workloads.small_requests(3)) == sum(c for _, c in bench_workloads.SMALL_MIX)


def test_bulk_table_sizes_are_the_same_for_every_seed():
    def sizes(seed):
        return sorted(r.max_n for r in bench_workloads.bulk_table(seed))

    assert sizes(3) == sizes(4) == bench_workloads.log_grid(bench_workloads.BULK_PER_PASS, 2**12, 2**17)
    assert 2**12 < sizes(3)[0] and sizes(3)[-1] < 2**17
    assert bench_workloads.bulk_table(3) != bench_workloads.bulk_table(4)


def test_benchmark_json_names_every_printed_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [(n, u) for n, u, _s, _m in bench_spans.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(bench_workloads.WORKLOADS)
