"""Decidable sets of non-negative integers given by finite descriptors.

Five descriptor kinds cover everything the rest of the package needs:
explicit finite lists, eventually periodic bit patterns, the powers of two
2, 4, 8, ..., complements, and downward shifts.  Membership of any n, the
next member or missing value from any k (`next_value`), and the member count
of [0, n] (`count`) are decided in time bounded by the descriptor size, so
nothing here scans up to a value.  A descriptor without `pow2` is eventually
periodic, and `eventual_form` gives a preperiod and period from the
descriptor.  `natural_density_estimate` reads the exact member count of
[1, N] from `count`, so a density needs no table.

The textual mini-language (`parse_set_spec`) is:

    spec   := prefix* atom ")"*              one ")" closes each prefix
    prefix := "complement(" | "shift(" uint ","
    atom   := "nat" | "empty" | "pow2" | "finite:" ints
            | "periodic:" bits ";" bits
    ints   := "" | uint ("," uint)*          strictly increasing
    bits   := ("0"|"1")*                     period part must be nonempty
    uint   := decimal digits                 at most sys.get_int_max_str_digits()

At most MAX_NESTING (64) prefixes wrap the atom, so no method of a parsed
descriptor recurses deeper than that.  Whitespace is not significant.
"nat" is sugar for complement(finite:) and "empty" for finite:.  Bit k of
the unrolled preperiod+period sequence gives membership of the integer k.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import EmptySetError, SetSpecError

__all__ = [
    "IntegerSet",
    "FiniteSet",
    "PeriodicSet",
    "PowersOfTwo",
    "Complement",
    "Shifted",
    "parse_set_spec",
    "MAX_NESTING",
    "contains",
    "complement",
    "shift_down",
    "min_element",
    "complement_prefix",
    "eventual_form",
    "DensityEstimate",
    "natural_density_estimate",
]


class IntegerSet:
    """Base class for set descriptors.  Instances are immutable and hashable."""

    def contains(self, n: int) -> bool:
        raise NotImplementedError

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def next_value(self, k: int, member: bool = True) -> int | None:
        """Least member n >= k (with member=False, least missing n >= k) or None."""
        raise NotImplementedError

    def spec(self) -> str:
        """Canonical set-spec string; `parse_set_spec` round-trips it."""
        raise NotImplementedError

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        """Memberships of start..max_n as a bytes object of 0/1 values."""
        raise NotImplementedError

    def count(self, max_n: int) -> int:
        """Number of members in [0, max_n]."""
        raise NotImplementedError

    def members(self, max_n: int) -> list[int]:
        """Members up to max_n in increasing order."""
        return list(compress(range(max_n + 1), self.membership_bytes(max_n)))


@dataclass(frozen=True)
class FiniteSet(IntegerSet):
    elements: tuple[int, ...] = ()

    def __post_init__(self):
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        last = -1
        for e in elems:
            if not isinstance(e, int) or isinstance(e, bool):
                raise SetSpecError(f"finite set element {e!r} is not an integer")
            if e <= last:
                raise SetSpecError(
                    "finite set elements must be non-negative and strictly increasing"
                )
            last = e

    def contains(self, n: int) -> bool:
        i = bisect_left(self.elements, n)
        return i < len(self.elements) and self.elements[i] == n

    def next_value(self, k: int, member: bool = True) -> int | None:
        elems = self.elements
        i = bisect_left(elems, k)
        if member:
            return elems[i] if i < len(elems) else None
        while i < len(elems) and elems[i] == k:
            i, k = i + 1, k + 1
        return k

    def spec(self) -> str:
        if not self.elements:
            return "empty"
        return "finite:" + ",".join(map(str, self.elements))

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        out = bytearray(max_n + 1 - start)
        for e in self.elements[bisect_left(self.elements, start) :]:
            if e > max_n:
                break
            out[e - start] = 1
        return bytes(out)

    def members(self, max_n: int) -> list[int]:
        return list(self.elements[: bisect_right(self.elements, max_n)])

    def count(self, max_n: int) -> int:
        return bisect_right(self.elements, max_n)


# translate() table from the "0"/"1" characters of a bit string to 0/1 bytes
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class PeriodicSet(IntegerSet):
    """Eventually periodic membership: a finite preperiod, then a repeated period."""

    preperiod: str
    period: str

    def __post_init__(self):
        for name, bits in (("preperiod", self.preperiod), ("period", self.period)):
            if any(c not in "01" for c in bits):
                raise SetSpecError(f"{name} bits must be 0 or 1")
        if not self.period:
            raise SetSpecError("period must be nonempty")

    def contains(self, n: int) -> bool:
        if n < len(self.preperiod):
            return self.preperiod[n] == "1"
        return self.period[(n - len(self.preperiod)) % len(self.period)] == "1"

    def _bits_from(self, k: int) -> tuple[str, str]:
        """The bits from k on: the rest of the preperiod, then the period
        rotated to the phase where it resumes, repeated forever."""
        pre = len(self.preperiod)
        phase = (max(k, pre) - pre) % len(self.period)
        return self.preperiod[k:], self.period[phase:] + self.period[:phase]

    def next_value(self, k: int, member: bool = True) -> int | None:
        i = "".join(self._bits_from(k)).find("01"[member])
        return None if i == -1 else k + i

    def spec(self) -> str:
        return f"periodic:{self.preperiod};{self.period}"

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        length = max_n + 1 - start
        head, per = (bits.encode().translate(_BIT_VALUES) for bits in self._bits_from(start))
        reps = max(length - len(head), 0) // len(per) + 1
        return (head + per * reps)[:length]

    def count(self, max_n: int) -> int:
        pre, per = self.preperiod, self.period
        if max_n < len(pre):
            return pre[: max_n + 1].count("1")
        reps, rest = divmod(max_n + 1 - len(pre), len(per))
        return pre.count("1") + reps * per.count("1") + per[:rest].count("1")


@dataclass(frozen=True)
class PowersOfTwo(IntegerSet):
    """The set {2, 4, 8, ...}.  Note that 1 is not a member."""

    def contains(self, n: int) -> bool:
        return n >= 2 and (n & (n - 1)) == 0

    def next_value(self, k: int, member: bool = True) -> int | None:
        if member:
            return 1 << (max(k, 2) - 1).bit_length()
        # no two consecutive integers are both powers of two >= 2
        return k + 1 if self.contains(k) else k

    def spec(self) -> str:
        return "pow2"

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        out = bytearray(max_n + 1 - start)
        p = 2
        while p <= max_n:
            if p >= start:
                out[p - start] = 1
            p <<= 1
        return bytes(out)

    def members(self, max_n: int) -> list[int]:
        return [1 << k for k in range(1, max(max_n, 0).bit_length())]

    def count(self, max_n: int) -> int:
        return max(max_n.bit_length() - 1, 0)


# translate() table flipping the 0/1 byte values a membership_bytes produces
_FLIP = bytes([1, 0]) + bytes(range(2, 256))


@dataclass(frozen=True)
class Complement(IntegerSet):
    inner: IntegerSet

    def contains(self, n: int) -> bool:
        return not self.inner.contains(n)

    def next_value(self, k: int, member: bool = True) -> int | None:
        return self.inner.next_value(k, not member)

    def spec(self) -> str:
        if self.inner == FiniteSet():
            return "nat"
        return f"complement({self.inner.spec()})"

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        return self.inner.membership_bytes(max_n, start).translate(_FLIP)

    def count(self, max_n: int) -> int:
        return max_n + 1 - self.inner.count(max_n)


@dataclass(frozen=True)
class Shifted(IntegerSet):
    """The set {a - offset : a in inner}; offset may not exceed min(inner)."""

    inner: IntegerSet
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise SetSpecError("shift offset must be non-negative")
        m = min_element(self.inner)
        if self.offset > m:
            raise SetSpecError(
                f"shift offset {self.offset} exceeds the inner set minimum {m}"
            )

    def contains(self, n: int) -> bool:
        return self.inner.contains(n + self.offset)

    def next_value(self, k: int, member: bool = True) -> int | None:
        n = self.inner.next_value(k + self.offset, member)
        return None if n is None else n - self.offset

    def spec(self) -> str:
        return f"shift({self.offset},{self.inner.spec()})"

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        return self.inner.membership_bytes(max_n + self.offset, start + self.offset)

    def members(self, max_n: int) -> list[int]:
        return [m - self.offset for m in self.inner.members(max_n + self.offset)]

    def count(self, max_n: int) -> int:
        # offset <= min(inner), so inner has no members below offset
        return self.inner.count(max_n + self.offset)


def contains(a: IntegerSet, n: int) -> bool:
    """Membership test; defined for non-negative n only."""
    if n < 0:
        raise ValueError("membership is defined for non-negative integers")
    return a.contains(n)


def complement(a: IntegerSet) -> IntegerSet:
    """Complement within the non-negative integers; a double complement unwraps."""
    if isinstance(a, Complement):
        return a.inner
    return Complement(a)


def shift_down(a: IntegerSet, m: int) -> IntegerSet:
    """The set {x - m : x in a}; requires m <= min(a) and a nonempty."""
    if m < 0:
        raise ValueError("shift offset must be non-negative")
    if m == 0:
        min_element(a)  # still an error to shift an empty set
        return a
    if isinstance(a, Shifted):
        return Shifted(a.inner, a.offset + m)
    return Shifted(a, m)


def min_element(a: IntegerSet) -> int:
    """Least member of a, or EmptySetError."""
    m = a.next_value(0)
    if m is None:
        raise EmptySetError(f"{a.spec()} has no elements")
    return m


def complement_prefix(a: IntegerSet, count: int) -> tuple[int, ...]:
    """The first `count` values missing from a; fewer only when a misses
    fewer than `count` values in all."""
    if count < 1:
        raise ValueError("count must be positive")
    found: list[int] = []
    while len(found) < count:
        c = a.next_value(found[-1] + 1 if found else 0, member=False)
        if c is None:
            break
        found.append(c)
    return tuple(found)


def eventual_form(a: IntegerSet) -> tuple[int, int] | None:
    """A preperiod q and a period p of a, or None when its descriptor holds `pow2`.

    n >= q is a member exactly when n + p is.  The pair comes from the
    descriptor alone, in time bounded by its size: a finite set is periodic
    from one past its largest element with period 1, a periodic set gives
    its own lengths, a complement keeps its inner pair and a shift by k
    lowers q by k.  The pair need not be the shortest.
    """
    if isinstance(a, PeriodicSet):
        return len(a.preperiod), len(a.period)
    if isinstance(a, FiniteSet):
        return (a.elements[-1] + 1 if a.elements else 0), 1
    inner = eventual_form(a.inner) if isinstance(a, (Complement, Shifted)) else None
    if inner is None or isinstance(a, Complement):
        return inner
    q, p = inner
    return max(q - a.offset, 0), p


@dataclass(frozen=True)
class DensityEstimate:
    """Exact membership count over the window [1, max_n]."""

    max_n: int
    member_count: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.member_count, self.max_n)

    def to_json_obj(self) -> dict:
        r = self.ratio
        return {
            "max_n": self.max_n,
            "member_count": self.member_count,
            "ratio": {"num": r.numerator, "den": r.denominator},
        }


def natural_density_estimate(a: IntegerSet, max_n: int) -> DensityEstimate:
    """Count members in [1, max_n]; membership of 0 is never counted."""
    if max_n < 1:
        raise ValueError("window bound must be positive")
    return DensityEstimate(max_n, a.count(max_n) - a.contains(0))


# --- set-spec parsing ---------------------------------------------------

MAX_NESTING = 64  # complement( and shift( prefixes around one atom

_UINT = re.compile(r"\d+")
_UINTS = re.compile(r"(?:\d+(?:,\d+)*)?")
_BITS = re.compile(r"[01]*")


def parse_set_spec(text: str) -> IntegerSet:
    """Parse a set-spec string; raises SetSpecError with a position on errors."""
    s = "".join(text.split())
    if not s:
        raise SetSpecError("empty set-spec", position=0)
    # the prefixes, outermost first, as (position, shift offset or None)
    prefixes: list[tuple[int, int | None]] = []
    i = 0
    while s.startswith(("complement(", "shift("), i):
        if len(prefixes) == MAX_NESTING:
            raise SetSpecError(f"set-spec nested deeper than {MAX_NESTING} levels", position=i)
        if s[i] == "c":
            prefixes.append((i, None))
            i += 11
            continue
        m = _UINT.match(s, i + 6)
        if m is None:
            raise SetSpecError("expected a number", position=i + 6)
        prefixes.append((i, _int(m)))
        i = _expect(s, m.end(), ",")
    value, i = _parse_atom(s, i)
    for start, offset in reversed(prefixes):
        i = _expect(s, i, ")")
        if offset is None:
            value = complement(value)
            continue
        try:
            value = shift_down(value, offset)
        except EmptySetError:
            raise SetSpecError("cannot shift an empty set", position=start) from None
    if i != len(s):
        raise SetSpecError(f"unexpected {s[i]!r}", position=i)
    return value


def _parse_atom(s: str, i: int) -> tuple[IntegerSet, int]:
    if s.startswith("nat", i):
        return complement(FiniteSet()), i + 3
    if s.startswith("empty", i):
        return FiniteSet(), i + 5
    if s.startswith("pow2", i):
        return PowersOfTwo(), i + 4
    if s.startswith("finite:", i):
        j = _UINTS.match(s, i + 7).end()
        try:
            values = tuple(map(int, s[i + 7 : j].split(","))) if j > i + 7 else ()
        except ValueError:  # a number past the interpreter's int-string limit
            values = tuple(map(_int, _UINT.finditer(s, i + 7, j)))
        return FiniteSet(values), j
    if s.startswith("periodic:", i):
        pre = _BITS.match(s, i + 9).group()
        j = _expect(s, i + 9 + len(pre), ";")
        per = _BITS.match(s, j).group()
        if not per:
            raise SetSpecError("period must be nonempty", position=j)
        return PeriodicSet(pre, per), j + len(per)
    raise SetSpecError("expected a set expression", position=i)


def _int(m: re.Match) -> int:
    """The value of a `\\d+` token; one longer than the interpreter's
    int-string limit is a spec error at the token's start."""
    try:
        return int(m.group())
    except ValueError:
        raise SetSpecError(
            f"number longer than {sys.get_int_max_str_digits()} digits", position=m.start()
        ) from None


def _expect(s: str, i: int, ch: str) -> int:
    if i < len(s) and s[i] == ch:
        return i + 1
    raise SetSpecError(f"expected {ch!r}", position=i)
