"""Benchmark worker process.

`run.py` starts this script with `src` on PYTHONPATH.  With `--probe` it
imports numpy and repfn.cli, prints the two import times as one JSON line
and exits.  Otherwise it serves requests over stdin/stdout, one closed-loop
request at a time: each message is an 8-byte length and a pickle written by
`run.py`.  The program's own stdout and stderr are captured per request, so
the protocol stream carries nothing else.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import struct
import sys
import time

_HEADER = struct.Struct(">Q")


def send(stream, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(data)) + data)
    stream.flush()


def recv(stream):
    header = stream.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise EOFError("peer closed the stream")
    (size,) = _HEADER.unpack(header)
    return pickle.loads(stream.read(size))


def import_times() -> dict[str, float]:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import repfn.cli  # noqa: F401

    t2 = time.perf_counter()
    return {"numpy_import_s": t1 - t0, "repfn_import_s": t2 - t1}


def run_request(argv) -> dict:
    """One call of repfn.cli.main; the latency covers main() only."""
    import repfn.cli

    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = repfn.cli.main(list(argv))
        except Exception as e:  # the benchmark counts it as a failed request
            exc = f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - start
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-400:], "latency_s": latency, "exception": exc}


def serve(inp, out) -> None:
    import bench_spans

    send(out, {"ready": True, **import_times()})
    tracer = None
    while True:
        msg = recv(inp)
        op = msg["op"]
        if op == "run":
            if tracer is not None:
                tracer.request_id = msg["id"]
            send(out, run_request(msg["argv"]))
        elif op == "trace":
            tracer = bench_spans.Tracer()
            tracer.install()
            send(out, {"missing": tracer.missing})
        elif op == "verify":
            import repfn.verify

            start = time.perf_counter()
            results = repfn.verify.run_suites("all")
            send(out, {"wall_s": time.perf_counter() - start, "failed": [r.suite for r in results if not r.passed]})
        elif op == "finish":
            reply = {}
            if tracer is not None:
                reply["layers"] = bench_spans.layer_metrics(tracer, msg["passes"])
                reply["counters"] = bench_spans.counters(tracer)
                reply["memory"] = bench_spans.memory_probe(tracer)
                reply["spans"] = len(tracer.spans)
                if msg.get("spans_path"):
                    tracer.write(msg["spans_path"])
            send(out, reply)
            return
        else:
            raise ValueError(f"unknown op {op!r}")


def main() -> None:
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps(import_times()), flush=True)
        return
    proto_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray prints go to stderr, never into the protocol stream
    serve(sys.stdin.buffer, proto_out)


if __name__ == "__main__":
    main()
