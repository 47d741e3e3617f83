"""Named verification suites.

Each suite recomputes one family of claims from scratch and compares the
results against an independent route (pair counting, table scans, or the
predicted formulas).  Suites return structured results rather than raising,
so the CLI can emit one JSON report and an exit code.

The `corrupt` flag deliberately perturbs one computed value per suite; it
exists so the failure path is reachable and testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diagram, pool
from .constants import SUITE_NAMES
from .core import (
    RepKind,
    _r1_naive,
    batch_table,
    closed_form,
    diagonal_indicator,
    membership_array,
    r1_array_via_complement,
    r1_at,
    r1_via_complement,
    r2_at,
    r3_at,
    sparse_r1,
    table_from_r1,
)
from .monotonicity import find_violations
from .sets import FiniteSet, complement, natural_density_estimate
from .witnesses import (
    DecreaseCase,
    almost_monotone_set,
    check_block_values,
    first_r2_decrease_bruteforce,
    predict_r2_decrease,
    refute_strict_increase,
    violation_bound,
)

__all__ = ["Check", "SuiteResult", "SUITE_NAMES", "run_suite", "run_suites"]


@dataclass
class Check:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class SuiteResult:
    suite: str
    seed: int | None
    elapsed: float
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [c.to_json_obj() for c in self.checks],
        }


def _half_range_counts(mem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r2 and r3 by direct pair counting, one member row at a time.

    Member x adds its pairs (x, y) with x <= y, or x < y for r3, as one
    slice landing at n = x + y.  No convolution, FFT or r1 is involved, so
    this route stays independent of both the closed forms and the table
    construction (which derives r2/r3 from r1).
    """
    size = len(mem)
    m = mem.astype(np.int64)
    r2 = np.zeros(size, dtype=np.int64)
    r3 = np.zeros(size, dtype=np.int64)
    for x in np.flatnonzero(m[: (size + 1) // 2]).tolist():
        r2[2 * x :] += m[x : size - x]
        r3[2 * x + 1 :] += m[x + 1 : size - x]
    return r2, r3


def _r1_word_parallel(mem: np.ndarray) -> np.ndarray:
    """r1 by AND and popcount over little-endian 64-bit membership words.

    r1(n) is the overlap of the bits with their reversal shifted by
    s = len - 1 - n.  For each bit offset b < 64, row q of a sliding word
    window over the reversal shifted by b sits at s = 64q + b, so one (w, w)
    AND-and-popcount block gives all those shifts.  The block is done in
    bands of 64 rows, and band q is cut at column w - q: every shifted word
    from index w on is zero, so the cut skips the zero half of the block.
    No convolution or FFT is involved, so the route stays independent of
    the r1 kernels it checks.
    """
    size = len(mem)
    w = (size + 63) // 64
    bits = np.zeros(128 * w, dtype=np.uint8)
    bits[:size] = mem
    words = np.packbits(bits[: 64 * w], bitorder="little").view("<u8")
    rev = mem[::-1]
    by_shift = np.zeros((w, 64), dtype=np.int64)
    anded = np.empty((64, w), dtype=np.uint64)  # scratch reused by every band
    counts = np.empty((64, w), dtype=np.uint8)
    for b in range(min(64, size)):
        bits[: size - b] = rev[b:]
        bits[size - b : size] = 0
        shifted = np.packbits(bits, bitorder="little").view("<u8")
        window = sliding_window_view(shifted, w)[:w]
        for q in range(0, w, 64):
            band = window[q : q + 64, : w - q]
            rows = np.bitwise_and(band, words[: w - q], out=anded[: len(band), : w - q])
            ones = np.bitwise_count(rows, out=counts[: len(band), : w - q])
            # a row holds at most 64 w bits, so uint32 sums are exact below 2^32 bits
            by_shift[q : q + 64, b] = ones.sum(axis=1, dtype=np.uint32)
    return by_shift.ravel()[size - 1 :: -1]


def _mismatch_details(expected: np.ndarray, got: np.ndarray) -> dict:
    bad = np.nonzero(expected != got)[0]
    if not len(bad):
        return {}
    n = int(bad[0])
    return {"first_mismatch_n": n, "expected": int(expected[n]), "got": int(got[n])}


def suite_closed_forms(*, seed: int | None = None, corrupt: bool = False) -> list[Check]:
    max_n = 5000
    nat = complement(FiniteSet())
    mem = membership_array(nat, max_n)
    counted_r1 = _r1_naive(mem)
    counted_r2, counted_r3 = _half_range_counts(mem)
    checks = []
    for kind, counted in (
        (RepKind.R1, counted_r1),
        (RepKind.R2, counted_r2),
        (RepKind.R3, counted_r3),
    ):
        formula = np.array([closed_form(kind, n) for n in range(max_n + 1)], dtype=np.int64)
        if corrupt and kind is RepKind.R1:
            formula[7] += 1
        ok = np.array_equal(formula, counted)
        checks.append(
            Check(
                f"{kind.value} closed form equals pair counting on [0, {max_n}]",
                ok,
                _mismatch_details(counted, formula),
            )
        )
    # pure-python pointwise loops as a second, slower route over a short prefix
    spot_ok = all(
        r1_at(nat, n) == closed_form(RepKind.R1, n)
        and r2_at(nat, n) == closed_form(RepKind.R2, n)
        and r3_at(nat, n) == closed_form(RepKind.R3, n)
        for n in range(301)
    )
    checks.append(Check("pointwise loops agree with the closed forms on [0, 300]", spot_ok))
    return checks


def suite_identities(*, seed: int = pool.DEFAULT_SEED, corrupt: bool = False) -> list[Check]:
    count = 100
    max_n = 2000
    sets = pool.periodic_pool(count, seed)
    decomposition_bad = []
    diagonal_bad = []
    for i, a in enumerate(sets):
        mem = membership_array(a, max_n)
        r1 = _r1_naive(mem)
        r2, r3 = _half_range_counts(mem)
        if corrupt and i == 0:
            r2 = r2.copy()
            r2[3] += 1
        d = diagonal_indicator(a, max_n)
        if not np.array_equal(r1, r2 + r3):
            decomposition_bad.append(a.spec())
        if not np.array_equal(r2 - r3, d):
            diagonal_bad.append(a.spec())
    checks = [
        Check(
            f"r1 = r2 + r3 for {count} periodic sets on [0, {max_n}]",
            not decomposition_bad,
            {"failing_sets": decomposition_bad[:5]},
        ),
        Check(
            "r2 - r3 equals the diagonal indicator",
            not diagonal_bad,
            {"failing_sets": diagonal_bad[:5]},
        ),
    ]
    return checks


def suite_strategies(*, seed: int = pool.DEFAULT_SEED, corrupt: bool = False) -> list[Check]:
    count = 20
    max_n = 2**15
    sets = pool.mixed_pool(count, seed)
    bad = []
    # a table derives r2 and r3 from r1 and the diagonal (`_derive_table`),
    # so r1 alone decides whether two kernels' tables match
    for i, a in enumerate(sets):
        mem = membership_array(a, max_n)
        naive_r1 = _r1_naive(mem)
        word_r1 = _r1_word_parallel(mem)
        if corrupt and i == 0:
            word_r1[5] += 1
        if not np.array_equal(naive_r1, word_r1):
            bad.append(a.spec())
    return [
        Check(
            f"naive and word_parallel tables match entrywise at N = {max_n} for {count} sets",
            not bad,
            {"failing_sets": bad[:5]},
        )
    ]


def suite_density_zero(*, seed: int | None = None, corrupt: bool = False) -> list[Check]:
    max_n = 2**20
    a = almost_monotone_set(1)
    bound = violation_bound(1, max_n)
    profile = sparse_r1(a, max_n)
    positives = sorted(profile)
    violations = sum(1 for n in positives if n < max_n and profile.get(n + 1, 0) < profile[n])
    if corrupt:
        violations = bound + 1
    checks = [
        Check(
            f"positions with r1 > 0 up to {max_n} fit the bound {bound}",
            len(positives) <= bound,
            {"positive_positions": len(positives), "bound": bound},
        ),
        Check(
            "non-strict violations fit the same bound",
            violations <= bound,
            {"violations": violations, "bound": bound},
        ),
    ]
    spot = all(profile.get(n, 0) == r1_at(a, n) for n in list(positives[:8]) + [0, 1, 3, 5, 100, 2049])
    checks.append(Check("sparse profile matches pointwise counting at sampled n", spot))
    density = natural_density_estimate(a, max_n)
    checks.append(
        Check(
            "member count up to N is floor(log2 N)",
            density.member_count == max_n.bit_length() - 1,
            {"member_count": density.member_count, "ratio": str(density.ratio)},
        )
    )
    return checks


def suite_density_one(*, seed: int | None = None, corrupt: bool = False) -> list[Check]:
    max_n = 2**20
    block_j_max = 14
    a = almost_monotone_set(2)
    r1 = r1_array_via_complement(a, max_n)
    if corrupt:
        r1 = r1.copy()
        r1[9] -= 1
    bound = violation_bound(2, max_n)
    table = table_from_r1(a, r1)
    report = find_violations(table, RepKind.R1, strict=True)
    checks = [
        Check(
            f"strict-increase failures up to {max_n} fit the bound {bound}",
            report.count <= bound,
            {"failures": report.count, "bound": bound, "density": str(report.density_upper)},
        )
    ]
    # cross-route check of the complement path against direct convolution
    small = batch_table(a, 4096, "naive")
    checks.append(
        Check(
            "complement path agrees with the naive table on [0, 4096]",
            np.array_equal(small.r1, r1[:4097]),
            _mismatch_details(small.r1, r1[:4097]),
        )
    )
    spot = all(
        r1_via_complement(a, n) == int(r1[n]) for n in (0, 1, 2, 5, 6, 100, 2**15, 2**20 - 1)
    )
    checks.append(Check("scalar inclusion-exclusion agrees at sampled n", spot))
    bad_blocks = []
    for j in range(1, block_j_max + 1):
        lo, hi = 2**j + 1, 2 ** (j + 1) - 2
        if lo > hi:
            continue
        ns = np.arange(lo, hi + 1)
        forms = [2**j + 2**i for i in range(1, j + 1) if 2**j + 2**i <= hi]
        interior = ns[~np.isin(ns, forms)]
        if not np.all(r1[interior + 1] > r1[interior]):
            bad_blocks.append(j)
    checks.append(
        Check(
            f"strict increase holds at every interior non-pair position, blocks 1..{block_j_max}",
            not bad_blocks,
            {"failing_blocks": bad_blocks},
        )
    )
    return checks


def suite_blocks(*, seed: int | None = None, corrupt: bool = False) -> list[Check]:
    j_max = 14
    failing = [j for j in range(1, j_max + 1) if not check_block_values(j)]
    if corrupt:
        failing = [1] + failing
    return [
        Check(
            f"predicted block values match direct tables for 1 <= j <= {j_max}",
            not failing,
            {"failing_blocks": failing},
        )
    ]


def suite_decrease(*, seed: int = pool.DEFAULT_SEED, corrupt: bool = False) -> list[Check]:
    count = 500
    sets = pool.decrease_pool(count, seed)
    unverified = []
    oracle_bad = []
    gap_bad = []
    clean_gaps = 0
    for i, a in enumerate(sets):
        w = predict_r2_decrease(a)
        # the predictor verifies on a table; cross-check by pair counting
        before, after = r2_at(a, w.n), r2_at(a, w.n + 1)
        if corrupt and i == 0:
            after = before
        if not (before == w.before and after == w.after and before > after):
            unverified.append(a.spec())
        first = first_r2_decrease_bruteforce(a, w.n + 1)
        if first is None or first > w.n:
            oracle_bad.append(a.spec())
        if w.case is DecreaseCase.C3_GAP:
            c1, c2, c3 = w.c_values
            if c3 > c1 + c2 + 1:
                clean_gaps += 1
                x, y = c1 // 2, c2 // 2
                if (w.before, w.after) != (x + y, x + y - 1):
                    gap_bad.append(a.spec())
    return [
        Check(
            f"every predicted witness shows a strict r2 decrease ({count} sets)",
            not unverified,
            {"failing_sets": unverified[:5]},
        ),
        Check(
            "the first brute-force decrease is never after the predicted one",
            not oracle_bad,
            {"failing_sets": oracle_bad[:5]},
        ),
        Check(
            "clean gap cases drop from x + y to x + y - 1",
            not gap_bad and clean_gaps > 0,
            {"clean_gap_instances": clean_gaps, "failing_sets": gap_bad[:5]},
        ),
    ]


def suite_window_step(*, seed: int = pool.DEFAULT_SEED, corrupt: bool = False) -> list[Check]:
    count = 200
    start_max = 64
    sets = pool.mixed_pool(count, seed)
    bad = []
    for a in sets:
        table = batch_table(a, 2 * start_max + 3)
        for kind in (RepKind.R2, RepKind.R3):
            for start in range(start_max + 1):
                ref = refute_strict_increase(table, start, kind)
                witness = ref.witness
                if corrupt and not bad and start == 0 and kind is RepKind.R2:
                    witness = ref.window_end + 1
                if not (start <= witness <= ref.window_end and ref.end_value <= ref.value_cap):
                    bad.append((a.spec(), kind.value, start))
    return [
        Check(
            f"a flat step exists in [start, 2*start + 2] for every start <= {start_max}, "
            f"both kinds, {count} sets, within the cap start + 2",
            not bad,
            {"failures": bad[:5]},
        )
    ]


def suite_diagram(*, seed: int = pool.DEFAULT_SEED, corrupt: bool = False) -> list[Check]:
    count = 10
    max_sum = 50
    sets = pool.mixed_pool(count, seed)
    mismatched = []
    malformed = []
    for i, a in enumerate(sets):
        svg = diagram.render_diagram(a, max_sum, "svg")
        try:
            counts = diagram.svg_column_counts(svg, max_sum)
        except Exception:
            malformed.append(a.spec())
            continue
        expected = batch_table(a, max_sum, "naive").r1.tolist()
        if corrupt and i == 0:
            expected = list(expected)
            expected[0] += 1
        if counts != expected:
            mismatched.append(a.spec())
    return [
        Check("every rendered SVG parses as XML", not malformed, {"failing_sets": malformed}),
        Check(
            f"per-column point counts equal r1 for {count} sets at max_sum = {max_sum}",
            not mismatched,
            {"failing_sets": mismatched[:5]},
        ),
    ]


# keyed in the order of SUITE_NAMES, which the parser reads without this module
_SUITES = {
    "closed-forms": suite_closed_forms,
    "identities": suite_identities,
    "strategies": suite_strategies,
    "density-zero": suite_density_zero,
    "density-one": suite_density_one,
    "blocks": suite_blocks,
    "decrease": suite_decrease,
    "window-step": suite_window_step,
    "diagram": suite_diagram,
}


def run_suite(name: str, *, seed: int = pool.DEFAULT_SEED, corrupt: bool = False) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    started = time.perf_counter()
    checks = _SUITES[name](seed=seed, corrupt=corrupt)
    return SuiteResult(name, seed, time.perf_counter() - started, checks)


def run_suites(
    names: list[str] | tuple[str, ...] | str = "all",
    *,
    seed: int = pool.DEFAULT_SEED,
    corrupt: bool = False,
) -> list[SuiteResult]:
    if names == "all":
        names = SUITE_NAMES
    return [run_suite(n, seed=seed, corrupt=corrupt) for n in names]
