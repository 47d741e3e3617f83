"""Constructions, bounds, and counterexample witnesses.

The classical monotonicity facts about r1, r2, r3 become executable here:

* the powers-of-two set (density 0) keeps r1 non-decreasing outside a set
  of indices bounded by floor(log2 N)^2, and its complement (density 1)
  keeps r1 strictly increasing outside roughly (log2 N + 3)^2 indices;
* any nonempty set missing infinitely many values has an r2 decrease whose
  location follows from the first two or three missing values;
* strict growth of r2 or r3 always stalls inside [N, 2N + 2].

Every predicted witness is verified by recomputation before it is returned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .core import DEFAULT_MEMORY_BUDGET, RepKind, RepTable, batch_table
from .errors import EmptySetError, InsufficientComplementError, SelfCheckError
from .monotonicity import find_violations
from .sets import (
    IntegerSet,
    PowersOfTwo,
    complement,
    complement_prefix,
    min_element,
    shift_down,
)

__all__ = [
    "almost_monotone_set",
    "violation_bound",
    "check_block_values",
    "block_value",
    "DecreaseCase",
    "DecreaseWitness",
    "predict_r2_decrease",
    "decrease_case_resolvable",
    "first_r2_decrease_bruteforce",
    "WindowRefutation",
    "refute_strict_increase",
]


def almost_monotone_set(variant: int) -> IntegerSet:
    """The two witness constructions: variant 1 is the powers of two,
    variant 2 is everything except the powers of two."""
    if variant == 1:
        return PowersOfTwo()
    if variant == 2:
        return complement(PowersOfTwo())
    raise ValueError("variant must be 1 or 2")


def violation_bound(variant: int, max_n: int) -> int:
    """Upper bound on monotonicity failures of r1 up to max_n.

    Variant 1 bounds the indices where r1 of the powers-of-two set is
    positive (hence where it can decrease) by floor(log2 max_n)^2.
    Variant 2 bounds the strict-increase failures of its complement by
    2 + (log2 max_n + 3)^2, rounded up to keep the weaker integer bound.
    """
    if max_n < 1:
        raise ValueError("max_n must be positive")
    if variant == 1:
        return (max_n.bit_length() - 1) ** 2
    if variant == 2:
        return math.ceil(2.0 + (math.log2(max_n) + 3.0) ** 2)
    raise ValueError("variant must be 1 or 2")


def block_value(n: int, j: int) -> int:
    """Predicted r1 value of the powers-of-two complement on the block
    (2^j, 2^{j+1}].

    Interior values are n + 1 - 2j, except n = 2^j + 2^i (1 <= i < j)
    where two removed powers pair up and the value is n + 1 - 2(j - 1).
    The right endpoint 2^{j+1} is special: it is itself a removed power
    and also the sum of the removed pair (2^j, 2^j), which nets to n - 2j.
    """
    top = 2 ** (j + 1)
    if not 2**j < n <= top:
        raise ValueError(f"{n} is not in the block ({2**j}, {top}]")
    if n == top:
        return n - 2 * j
    low = n - 2**j
    if low >= 2 and (low & (low - 1)) == 0:
        return n + 1 - 2 * (j - 1)
    return n + 1 - 2 * j


def check_block_values(j: int) -> bool:
    """Compare `block_value` against a directly computed table on the
    whole block (2^j, 2^{j+1}] for the powers-of-two complement."""
    if j < 1:
        raise ValueError("j must be positive")
    a = almost_monotone_set(2)
    top = 2 ** (j + 1)
    table = batch_table(a, top, "naive")
    return all(int(table.r1[n]) == block_value(n, j) for n in range(2**j + 1, top + 1))


class DecreaseCase(enum.Enum):
    """Which part of the case analysis produced a predicted r2 decrease."""

    C1_ODD = "C1_ODD"  # first missing value odd: decrease at c1 - 1
    C2_ODD = "C2_ODD"  # c1 even > 0, second missing value odd: at c2 - 1
    C3_ADJACENT = "C3_ADJACENT"  # c1, c2 even and c3 = c2 + 1: at c2
    C3_GAP = "C3_GAP"  # c1, c2 even and c3 > c2 + 1: at c1 + c2
    SHIFTED = "SHIFTED"  # 0 missing: recurse on the set shifted to start at 0


@dataclass(frozen=True)
class DecreaseWitness:
    """A verified index n with r2(A, n) > r2(A, n + 1)."""

    set_spec: str
    n: int
    case: DecreaseCase
    c_values: tuple[int, ...]
    before: int
    after: int
    shift: int = 0
    inner: "DecreaseWitness | None" = None

    def to_json_obj(self) -> dict:
        obj = {
            "set": self.set_spec,
            "n": self.n,
            "case_trace": self.case.value,
            "c_values": list(self.c_values),
            "before": self.before,
            "after": self.after,
        }
        if self.case is DecreaseCase.SHIFTED:
            obj["shift"] = self.shift
            obj["inner"] = self.inner.to_json_obj() if self.inner else None
        return obj


def _decrease_case(a: IntegerSet) -> DecreaseWitness:
    """The case split of `predict_r2_decrease`, before verification: the
    r2 values `before` and `after` are left at 0."""
    cs = complement_prefix(a, 3)
    if not cs:
        raise InsufficientComplementError(f"{a.spec()} has no missing values")
    c1 = cs[0]
    if c1 % 2 == 1:
        return DecreaseWitness(a.spec(), c1 - 1, DecreaseCase.C1_ODD, (c1,), 0, 0)
    if c1 == 0:
        m = min_element(a)
        shifted = shift_down(a, m)
        if not shifted.contains(0):
            raise SelfCheckError("a shifted set is still missing 0")
        inner = _decrease_case(shifted)
        n = 2 * m + inner.n
        return DecreaseWitness(a.spec(), n, DecreaseCase.SHIFTED, inner.c_values, 0, 0, m, inner)
    if len(cs) < 2:
        raise InsufficientComplementError(f"{a.spec()} has no second missing value")
    c2 = cs[1]
    if c2 % 2 == 1:
        return DecreaseWitness(a.spec(), c2 - 1, DecreaseCase.C2_ODD, (c1, c2), 0, 0)
    if len(cs) < 3:
        raise InsufficientComplementError(f"{a.spec()} has no third missing value")
    c3 = cs[2]
    if c3 == c2 + 1:
        return DecreaseWitness(a.spec(), c2, DecreaseCase.C3_ADJACENT, (c1, c2, c3), 0, 0)
    return DecreaseWitness(a.spec(), c1 + c2, DecreaseCase.C3_GAP, (c1, c2, c3), 0, 0)


def predict_r2_decrease(
    a: IntegerSet, *, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> DecreaseWitness:
    """Locate an r2 decrease from the first missing values of a.

    The case split on the missing values c1 < c2 < c3 pins the decrease:
    c1 odd puts it at c1 - 1; c1 even > 0 with c2 odd puts it at c2 - 1;
    c1, c2 even put it at c2 when c3 = c2 + 1 and at c1 + c2 otherwise.
    A set missing 0 is shifted down by its minimum m and the witness of
    the shifted set is translated back by 2m.  Both are verified on one
    table of a: r2(A, n) = r2(A - m, n - 2m).

    Raises InsufficientComplementError when a misses fewer values than the
    case split needs, and BudgetExceededError before the verifying table up
    to n + 1 would exceed memory_budget.
    """
    w = _decrease_case(a)
    r2 = batch_table(a, w.n + 1, memory_budget=memory_budget).r2
    before, after = int(r2[w.n]), int(r2[w.n + 1])
    if not before > after:
        raise SelfCheckError(
            f"predicted decrease at n={w.n} for {a.spec()} does not hold: "
            f"r2 goes {before} -> {after} (case {w.case.value})"
        )
    # a shifted set contains 0, so its own witness is never SHIFTED
    inner = replace(w.inner, before=before, after=after) if w.inner else None
    return replace(w, before=before, after=after, inner=inner)


def decrease_case_resolvable(a: IntegerSet) -> bool:
    """Whether a misses enough values for `predict_r2_decrease`.  Runs its
    case split without verifying."""
    try:
        _decrease_case(a)
    except (InsufficientComplementError, EmptySetError):
        return False
    return True


def first_r2_decrease_bruteforce(
    a: IntegerSet, max_n: int, *, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> int | None:
    """Least n < max_n with r2(n) > r2(n+1), by full table scan."""
    if max_n < 1:
        raise ValueError("max_n must be positive")
    table = batch_table(a, max_n, memory_budget=memory_budget)
    v = find_violations(table, RepKind.R2).violations
    return int(v[0]) if len(v) else None


@dataclass(frozen=True)
class WindowRefutation:
    """A flat step refuting strict growth of r2 or r3 beyond `start`.

    `value_cap` records why the step must exist: r2 at 2*start + 3 can be
    at most the full-set value start + 2, while strict growth across the
    window would force it past that.
    """

    witness: int
    window_end: int
    value_cap: int
    end_value: int


def refute_strict_increase(table: RepTable, start: int, kind: RepKind) -> WindowRefutation:
    """Find the least flat step of r2 or r3 in [start, 2*start + 2] and
    record the cap that forces it.  Aborts loudly if none exists.

    The table must reach 2*start + 3; r(n) depends only on membership up
    to n, so a longer table gives the same answer.
    """
    kind = RepKind(kind)
    if kind is RepKind.R1:
        raise ValueError("the window step is guaranteed for r2 and r3 only")
    if start < 0:
        raise ValueError("start must be non-negative")
    end = 2 * start + 3
    if table.max_n < end:
        raise ValueError(f"the window from {start} needs a table up to {end}, not {table.max_n}")
    v = table.values(kind)
    witness = next((n for n in range(start, end) if v[n + 1] <= v[n]), None)
    if witness is None:
        raise SelfCheckError(
            f"no flat step for {kind.value} of {table.set_spec} in [{start}, {end - 1}]"
        )
    cap = start + 2
    end_value = int(table.r2[end])
    if end_value > cap:
        raise SelfCheckError(
            f"r2 of {table.set_spec} at {end} is {end_value}, above the full-set cap {cap}"
        )
    return WindowRefutation(witness, 2 * start + 2, cap, end_value)
