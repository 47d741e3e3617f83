"""stdout of the benchmark's request lists against its recorded digests.

`benchmarks/digests.json` holds, for the default seed of each request-list
workload, a digest of the request list and one digest of stdout per
request.  The benchmark refuses a run whose stdout differs from them; this
test runs the same requests in-process, so a change to that stdout fails
tier-1 as well.  It only reads `benchmarks/`.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import bench_workloads  # noqa: E402
import run as bench_run  # noqa: E402
from bench_worker import run_request  # noqa: E402

RECORDED = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", ["bulk-table", "small-requests"])
def test_stdout_matches_recorded_digests(workload):
    recorded = RECORDED[workload]
    reqs = bench_workloads.requests_for(workload, recorded["seed"])
    argvs = bench_run.argv_digest(r.argv for r in reqs)
    assert argvs == recorded["argv_sha256"], (
        f"the {workload} request list for seed {recorded['seed']} digests to {argvs}, not to the recorded "
        f"{recorded['argv_sha256']}: benchmarks/bench_workloads.py changed, so the recorded stdout digests "
        "no longer describe these requests and must be recorded again (run.py --record-digests)"
    )
    got = [bench_run.digest(run_request(r.argv)["stdout"]) for r in reqs]
    differ = [i for i, (g, w) in enumerate(zip(got, recorded["stdout_sha256"])) if g != w]
    assert len(got) == len(recorded["stdout_sha256"]) and not differ, (
        f"{len(differ)} of {len(got)} {workload} responses differ from the recorded stdout, "
        f"first {list(reqs[differ[0]].argv) if differ else None}"
    )
