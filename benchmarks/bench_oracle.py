"""Independent checks of repfn responses.

Nothing here imports repfn.  Counts come from the request's own set model
(`bench_workloads.SetCase`): r1 over the whole range by an FFT convolution
whose rounding is certified, and r1, r2, r3 at sampled n by direct pair
counting.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ElementTree
from fractions import Fraction

import numpy as np

from bench_workloads import Request, SetCase


# An oversized request that exited 0 with a right answer instead of exit 3.
NOT_REJECTED = "exit 0, expected 3: --budget not enforced"


class OracleError(RuntimeError):
    """The oracle could not certify its own result."""


class Own:
    """r1, r2, r3 on [0, max_n] for one set, computed without repfn."""

    def __init__(self, case: SetCase, max_n: int):
        self.mem = case.membership(max_n)
        x = self.mem.astype(np.float64)
        size = 1 << (2 * max_n + 1).bit_length()
        full = np.fft.irfft(np.fft.rfft(x, size) ** 2, size)[: 2 * max_n + 1]
        rounded = np.rint(full)
        # every entry is an integer count; a residual near 1/2 would make the
        # rounding ambiguous, and the full sum must be the squared member count
        members = int(self.mem.sum())
        if len(full) and (np.max(np.abs(full - rounded)) > 0.25 or int(rounded.sum()) != members * members):
            raise OracleError(f"FFT convolution not certified at max_n={max_n}")
        self.r1 = rounded[: max_n + 1].astype(np.int64)
        self.diag = np.zeros(max_n + 1, dtype=np.int64)
        self.diag[0::2] = self.mem[: max_n // 2 + 1]
        self.r3 = (self.r1 - self.diag) // 2
        self.r2 = self.r3 + self.diag

    def pair_counts(self, n: int) -> tuple[int, int, int]:
        """(r1, r2, r3) at n by counting member pairs directly."""
        lo = self.mem[: n + 1].astype(np.int64)
        hi = lo[::-1]
        return (
            int(np.dot(lo, hi)),
            int(np.dot(lo[: n // 2 + 1], hi[: n // 2 + 1])),
            int(np.dot(lo[: (n + 1) // 2], hi[: (n + 1) // 2])),
        )

    def values(self, rkind: str) -> np.ndarray:
        return {"r1": self.r1, "r2": self.r2, "r3": self.r3}[rkind]


def check(req: Request, rc: int | None, stdout: str, exception: str | None = None) -> str | None:
    """None when the response is right, else the reason it is wrong."""
    if exception is not None:
        return f"uncaught exception: {exception}"
    if req.oversized and rc == 0:
        # the work was done although it exceeds --budget: a failed request,
        # but its output must still be right
        return _check_output(req, stdout) or NOT_REJECTED
    if rc != req.expected_exit:
        return f"exit {rc}, expected {req.expected_exit}"
    if req.oversized:
        return None if stdout == "" else "output written for a rejected request"
    return _check_output(req, stdout)


def _check_output(req: Request, stdout: str) -> str | None:
    try:
        return _CHECKS[req.op](req, stdout)
    except (ValueError, KeyError, TypeError, IndexError, ElementTree.ParseError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check_table(req: Request, stdout: str) -> str | None:
    n_max = req.max_n
    if req.fmt == "csv":
        lines = stdout.split("\n")
        if lines[0] != "n,r1,r2,r3" or lines[-1] != "":
            return "bad CSV header or missing final newline"
        cols = np.array(",".join(lines[1:-1]).split(","), dtype=np.int64).reshape(-1, 4)
        if len(cols) != n_max + 1 or not np.array_equal(cols[:, 0], np.arange(n_max + 1)):
            return f"expected rows n = 0..{n_max}"
        r1, r2, r3 = cols[:, 1], cols[:, 2], cols[:, 3]
    else:
        obj = json.loads(stdout)
        if obj["set"] != req.case.spec or obj["max_n"] != n_max:
            return "wrong set or max_n"
        r1, r2, r3 = (np.array(obj[k], dtype=np.int64) for k in ("r1", "r2", "r3"))
        if not len(r1) == len(r2) == len(r3) == n_max + 1:
            return f"expected {n_max + 1} values per function"
    own = Own(req.case, n_max)
    if not np.array_equal(r1, r2 + r3):
        return "r1 != r2 + r3"
    if not np.array_equal(r2 - r3, own.diag):
        return "r2 - r3 is not the diagonal indicator"
    for n in req.samples:
        if (int(r1[n]), int(r2[n]), int(r3[n])) != own.pair_counts(n):
            return f"pair counts differ at n={n}"
    if not np.array_equal(r1, own.r1):
        return f"r1 differs first at n={int(np.nonzero(r1 != own.r1)[0][0])}"
    return None


def _own_violations(own: Own, rkind: str, strict: bool) -> list[int]:
    v = own.values(rkind)
    bad = (v[1:] <= v[:-1]) if strict else (v[:-1] > v[1:])
    return np.nonzero(bad)[0].tolist()


def _check_violations(req: Request, stdout: str) -> str | None:
    own = Own(req.case, req.max_n)
    for n in req.samples:
        if (int(own.r1[n]), int(own.r2[n]), int(own.r3[n])) != own.pair_counts(n):
            raise OracleError(f"own table disagrees with pair counting at n={n}")
    expected = _own_violations(own, req.rkind, req.strict)
    if req.fmt == "csv":
        return None if stdout == "n\n" + "".join(f"{n}\n" for n in expected) else "violation list differs"
    obj = json.loads(stdout)
    density = Fraction(len(expected), req.max_n) if req.max_n else Fraction(0)
    want = {
        "set": req.case.spec,
        "kind": req.rkind,
        "strict": req.strict,
        "max_n": req.max_n,
        "count": len(expected),
        "density_upper": {"num": density.numerator, "den": density.denominator},
        "violations": expected,
    }
    return None if obj == want else "violation report differs"


def _check_witness(req: Request, stdout: str) -> str | None:
    obj = json.loads(stdout)
    n, scan = obj["n"], req.max_n
    own = Own(req.case, max(n + 1, scan))
    if obj["set"] != req.case.spec or obj["scan_bound"] != scan:
        return "wrong set or scan bound"
    before, after = own.pair_counts(n)[1], own.pair_counts(n + 1)[1]
    if not before > after:
        return f"no r2 decrease at n={n}: {before} -> {after}"
    if (obj["before"], obj["after"]) != (before, after):
        return "reported r2 values differ"
    drops = np.nonzero(own.r2[:scan] > own.r2[1 : scan + 1])[0]
    first = int(drops[0]) if len(drops) else None
    return None if obj["brute_force_first"] == first else "brute-force first decrease differs"


def _check_density(req: Request, stdout: str) -> str | None:
    obj = json.loads(stdout)
    count = int(req.case.membership(req.max_n)[1:].sum())
    ratio = Fraction(count, req.max_n)
    want = {
        "set": req.case.spec,
        "max_n": req.max_n,
        "member_count": count,
        "ratio": {"num": ratio.numerator, "den": ratio.denominator},
    }
    return None if obj == want else "density report differs"


def _check_render(req: Request, stdout: str) -> str | None:
    top = req.max_n
    own = Own(req.case, top)
    if req.fmt == "ascii":
        mem = own.mem.astype(bool)
        rows = []
        for y in range(top, -1, -1):
            rows.append("".join("*" if mem[y] and x >= y and mem[x - y] else "." for x in range(top + 1)))
        return None if stdout == "\n".join(rows) + "\n" else "ASCII grid differs"
    columns: dict[float, int] = {}
    for el in ElementTree.fromstring(stdout):
        if el.tag.endswith("circle"):
            cx = float(el.get("cx"))
            columns[cx] = columns.get(cx, 0) + 1
    want = [(n, int(own.r1[n])) for n in range(top + 1) if own.r1[n]]
    got = sorted(columns.items())
    if [c for _, c in got] != [c for _, c in want]:
        return "SVG column counts differ from r1"
    if len(want) >= 2:
        # columns must sit at x = offset + scale * n for one offset and scale
        (x0, _), (x1, _) = got[0], got[-1]
        scale = (x1 - x0) / (want[-1][0] - want[0][0])
        for (x, _), (n, _) in zip(got, want):
            if abs(x - (x0 + scale * (n - want[0][0]))) > 1e-6:
                return "SVG columns are not evenly spaced by n"
    return None


_CHECKS = {
    "table": _check_table,
    "violations": _check_violations,
    "witness": _check_witness,
    "density": _check_density,
    "render": _check_render,
}
