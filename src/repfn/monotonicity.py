"""Monotonicity reports.  The density counts live in `sets`, which imports
no numpy, and are re-exported here."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import RepKind, RepTable, _decimal_rows
from .sets import DensityEstimate, IntegerSet, natural_density_estimate

__all__ = [
    "ViolationReport",
    "DensityEstimate",
    "find_violations",
    "natural_density_estimate",
]


@dataclass(frozen=True)
class ViolationReport:
    """Indices n < max_n where the step n -> n+1 fails monotonicity.

    Non-strict mode lists n with r(n) > r(n+1); strict mode lists n with
    r(n+1) <= r(n).  The last index has no step and is never listed.
    `violations` is a read-only int64 array in increasing order.
    """

    integer_set: IntegerSet
    kind: RepKind
    strict: bool
    max_n: int
    violations: np.ndarray

    @property
    def set_spec(self) -> str:
        """The set's spec, rendered when read (see `RepTable.set_spec`)."""
        return self.integer_set.spec()

    @property
    def count(self) -> int:
        return len(self.violations)

    @property
    def density_upper(self) -> Fraction:
        if self.max_n == 0:
            return Fraction(0)
        return Fraction(self.count, self.max_n)

    def to_json_obj(self) -> dict:
        """The JSON document's fields; the violations stay an int64 array."""
        d = self.density_upper
        return {
            "set": self.set_spec,
            "kind": self.kind.value,
            "strict": self.strict,
            "max_n": self.max_n,
            "count": self.count,
            "density_upper": {"num": d.numerator, "den": d.denominator},
            "violations": self.violations,
        }

    def to_csv(self) -> str:
        return "n\n" + _decimal_rows((self.violations,))


def find_violations(table: RepTable, kind: RepKind, strict: bool = False) -> ViolationReport:
    """Scan a table for monotonicity failures of one function."""
    kind = RepKind(kind)
    v = table.values(kind)
    bad = (v[1:] <= v[:-1]) if strict else (v[:-1] > v[1:])
    idx = np.flatnonzero(bad).astype(np.int64, copy=False)
    idx.setflags(write=False)
    return ViolationReport(table.integer_set, kind, strict, table.max_n, idx)

