"""Seeded request lists for the benchmark workloads.

Each workload is a list of CLI argument vectors for `repfn.cli.main`, built
from the benchmark seed alone.  Every request also carries the set it was
built from, described here independently of repfn, so the oracle can check
the response without calling the program under test.

Sizes are stratified rather than drawn independently: each pass holds one
size from each of a fixed number of equal-width bins, and the set kind and
request type of each bin are fixed.  A different seed therefore changes the
random sets, the order and (in small-requests) the exact sizes, but not the
amount of work in a pass, so figures from runs with different seeds can be
compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1
WORKLOADS = ("bulk-table", "small-requests", "verify-all")

SET_KINDS = ("dense", "sparse", "periodic", "cofinite")
# Budget given to oversized requests; far below what any of them needs.
SMALL_BUDGET = 4096


@dataclass(frozen=True)
class SetCase:
    """A set of non-negative integers, with its repfn set-spec."""

    kind: str
    spec: str
    preperiod: str = ""
    period: str = ""
    missing: tuple[int, ...] = ()

    def membership(self, max_n: int) -> np.ndarray:
        """0/1 memberships of 0..max_n as uint8, computed from the kind."""
        size = max_n + 1
        if self.kind == "periodic":
            reps = size // len(self.period) + 1
            bits = (self.preperiod + self.period * reps)[:size]
            return np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        mem = np.zeros(size, dtype=np.uint8)
        powers = [1 << k for k in range(1, size.bit_length() + 1) if (1 << k) <= max_n]
        mem[powers] = 1
        if self.kind == "sparse":
            return mem
        if self.kind == "dense":
            return 1 - mem
        mem[:] = 1
        mem[[c for c in self.missing if c <= max_n]] = 0
        return mem


@dataclass(frozen=True)
class Request:
    """One call of `repfn.cli.main` and what the oracle needs to check it."""

    op: str  # table, violations, witness, density, render
    argv: tuple[str, ...]
    case: SetCase
    max_n: int
    fmt: str = ""
    rkind: str = ""
    strict: bool = False
    oversized: bool = False
    samples: tuple[int, ...] = ()

    @property
    def expected_exit(self) -> int:
        # The README documents exit 3 for every request over its --budget.
        return 3 if self.oversized else 0

    @property
    def rows(self) -> int:
        """Table rows the request computes (N + 1 for table and violations)."""
        return self.max_n + 1 if self.op in ("table", "violations") and not self.oversized else 0


def make_set(rng: random.Random, kind: str) -> SetCase:
    if kind == "dense":
        return SetCase("dense", "complement(pow2)")
    if kind == "sparse":
        return SetCase("sparse", "pow2")
    if kind == "periodic":
        # a period holding both values keeps the set infinite with infinitely
        # many missing values, so every witness request resolves
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        length = rng.randint(5, 16)
        ones = min(length - 1, max(1, round(length * rng.uniform(0.35, 0.65))))
        bits = ["0"] * length
        for i in rng.sample(range(length), ones):
            bits[i] = "1"
        per = "".join(bits)
        return SetCase("periodic", f"periodic:{pre};{per}", preperiod=pre, period=per)
    if kind == "cofinite":
        # 0 stays a member and three or more values below 49 are missing
        missing = tuple(sorted(rng.sample(range(1, 49), rng.randint(3, 6))))
        spec = "complement(finite:" + ",".join(map(str, missing)) + ")"
        return SetCase("cofinite", spec, missing=missing)
    raise ValueError(f"unknown set kind {kind!r}")


def stratified(rng: random.Random, count: int, lo: float, hi: float, *, log: bool) -> list[int]:
    """One draw in each of `count` equal-width bins of [lo, hi], in order.

    With `log` the bins are equal in log2, which makes the draws
    log-uniform over the whole range.
    """
    if log:
        lo, hi = math.log2(lo), math.log2(hi)
    out = []
    for i in range(count):
        x = lo + (hi - lo) * (i + rng.random()) / count
        out.append(int(2**x) if log else int(x))
    return out


def log_grid(count: int, lo: float, hi: float) -> list[int]:
    """The centres of `count` bins of equal width in log2 over [lo, hi]:
    the (i + 1/2) / count quantiles of the log-uniform distribution."""
    lo, hi = math.log2(lo), math.log2(hi)
    return [int(2 ** (lo + (hi - lo) * (i + 0.5) / count)) for i in range(count)]


def _samples(rng: random.Random, max_n: int) -> tuple[int, ...]:
    return tuple(sorted({rng.randint(0, max_n) for _ in range(3)} | {max_n}))


def _table_like(rng: random.Random, op: str, fmt: str, case: SetCase, n: int) -> Request:
    argv = [op, "--set", case.spec, "--max", str(n), "--format", fmt]
    rkind, strict = "", False
    if op == "violations":
        rkind, strict = rng.choice(("r1", "r2", "r3")), rng.random() < 0.5
        argv += ["--kind", rkind] + (["--strict"] if strict else [])
    return Request(op, tuple(argv), case, n, fmt=fmt, rkind=rkind, strict=strict, samples=_samples(rng, n))


BULK_PER_PASS = 40
BULK_TYPES = (("table", "csv"), ("table", "json"), ("violations", "json"), ("violations", "csv"))


def bulk_table(seed: int) -> list[Request]:
    """Table and violation requests at N log-uniform on [2^12, 2^17].

    In size order the requests form groups of four; each group holds every
    set kind and every request type once, so every size range sees the
    same mix.  The sizes are the bin centres of `log_grid`, the same for
    every seed: a request here costs roughly N^2, and sizes drawn anywhere
    in their bins moved the median latency by about a tenth from seed to
    seed.  The seed picks the random sets, the violation kinds, the sampled
    n and the order.
    """
    rng = random.Random(f"bulk-table:{seed}")
    sizes = log_grid(BULK_PER_PASS, 2**12, 2**17)
    out = []
    for i, n in enumerate(sizes):
        case = make_set(rng, SET_KINDS[i % 4])
        op, fmt = BULK_TYPES[(i + i // 4) % 4]
        out.append(_table_like(rng, op, fmt, case, n))
    rng.shuffle(out)
    return out


# Requests per pass of small-requests, by type.  Oversized requests are 4%.
SMALL_MIX = (
    ("table-csv", 48),
    ("table-json", 48),
    ("violations", 96),
    ("witness", 64),
    ("density", 64),
    ("render-svg", 32),
    ("render-ascii", 32),
    ("oversized-table", 4),
    ("oversized-witness", 4),
    ("oversized-render", 4),
    ("oversized-density", 4),
)


def small_requests(seed: int) -> list[Request]:
    """Cheap requests at N <= 512 plus a fixed share of oversized ones."""
    rng = random.Random(f"small-requests:{seed}")
    out: list[Request] = []
    for typ, count in SMALL_MIX:
        kinds = [SET_KINDS[i % 4] for i in range(count)]
        if typ == "oversized-render":
            sizes = stratified(rng, count, 800, 1001, log=False)
        elif typ.startswith("render"):
            sizes = stratified(rng, count, 8, 41, log=False)
        elif typ == "witness":
            sizes = stratified(rng, count, 64, 512, log=True)
        elif typ.startswith("oversized"):
            sizes = stratified(rng, count, 2**18, 2**20, log=True)
        else:
            sizes = stratified(rng, count, 16, 512, log=True)
        for i, (kind, n) in enumerate(zip(kinds, sizes)):
            case = make_set(rng, kind)
            out.append(_small_request(rng, typ, i, case, n))
    rng.shuffle(out)
    return out


def _small_request(rng: random.Random, typ: str, i: int, case: SetCase, n: int) -> Request:
    if typ in ("table-csv", "table-json"):
        return _table_like(rng, "table", typ[6:], case, n)
    if typ == "violations":
        return _table_like(rng, "violations", ("json", "csv")[i % 2], case, n)
    if typ.startswith("render"):
        fmt = typ[7:]
        return Request("render", ("render", "--set", case.spec, "--max", str(n), "--format", fmt), case, n, fmt=fmt)
    if typ in ("witness", "density"):
        return Request(typ, (typ, "--set", case.spec, "--max", str(n)), case, n)
    op = typ[len("oversized-"):]
    budget = 1000 if op == "render" else SMALL_BUDGET
    argv = [op, "--set", case.spec, "--max", str(n), "--budget", str(budget)]
    fmt = ""
    if op == "render":
        fmt = ("svg", "ascii")[i % 2]
        argv += ["--format", fmt]
    return Request(op, tuple(argv), case, n, fmt=fmt, oversized=True)


def requests_for(workload: str, seed: int) -> list[Request]:
    if workload == "bulk-table":
        return bulk_table(seed)
    if workload == "small-requests":
        return small_requests(seed)
    raise ValueError(f"{workload!r} is not a request-list workload")
