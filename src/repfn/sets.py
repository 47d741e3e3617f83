"""Decidable sets of non-negative integers given by finite descriptors.

A descriptor is one of three atoms, an explicit finite list (`FiniteSet`),
an eventually periodic bit pattern (`PeriodicSet`) or the powers of two
2, 4, 8, ... (`PowersOfTwo`), plus an offset k and a `complemented` flag:
its members are the n >= 0 with (n + k in atom) != complemented.  Shifts
and complements commute in this form, so `complement`, `shift_down` and
the parser fold any chain of prefixes into one descriptor of the same
atom (offsets add, flags are XORed) and no method recurses.  Membership of
any n, the next member or missing value from any k (`next_value`), and
the member count of [0, n] (`count`) are decided in time bounded by the
descriptor size, so nothing here scans up to a value.  A descriptor
without `pow2` is eventually periodic, and `eventual_form` gives a
preperiod and period from the descriptor.  `natural_density_estimate`
reads the exact member count of [1, N] from `count`, so a density needs
no table.

The textual mini-language (`parse_set_spec`) is:

    spec   := prefix* atom ")"*              one ")" closes each prefix
    prefix := "complement(" | "shift(" uint ","
    atom   := "nat" | "empty" | "pow2" | "finite:" ints
            | "periodic:" bits ";" bits
    ints   := "" | uint ("," uint)*          strictly increasing
    bits   := ("0"|"1")*                     period part must be nonempty
    uint   := decimal digits                 at most sys.get_int_max_str_digits()

At most MAX_NESTING (64) prefixes wrap the atom.  Whitespace is not
significant.  "nat" is sugar for complement(finite:) and "empty" for
finite:.  Bit k of the unrolled preperiod+period sequence gives membership
of the integer k.  A descriptor keeps its prefixes, with adjacent
complements cancelled and adjacent shifts added, only to print its spec.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import compress

from .errors import EmptySetError, SetSpecError

__all__ = [
    "IntegerSet",
    "FiniteSet",
    "PeriodicSet",
    "PowersOfTwo",
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
    """Base class for set descriptors: an atom, an offset and a flag.

    Each atom implements membership in its own coordinates: `_has(x)`,
    `_next(x, member)` (least x' >= x whose membership is `member`, or
    None), `_count(x)` (members in [0, x]) and `_atom_spec()`, plus
    `membership_bytes`, which applies the offset and the flag as it fills.
    Instances are never changed once built and are hashable; two are equal
    when their spec texts are.
    """

    __slots__ = ("offset", "complemented", "_prefixes")

    def __init__(self):
        # the prefixes, outermost first: None for complement(, k for shift(k,
        self.offset, self.complemented, self._prefixes = 0, False, ()

    def _derive(self, prefixes: tuple, offset: int, complemented: bool) -> IntegerSet:
        """The same atom under another offset, flag and prefix chain."""
        new = object.__new__(type(self))
        for name in type(self).__slots__:  # the atom's own fields
            setattr(new, name, getattr(self, name))
        new.offset, new.complemented, new._prefixes = offset, complemented, prefixes
        return new

    def contains(self, n: int) -> bool:
        return self._has(n + self.offset) != self.complemented

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def next_value(self, k: int, member: bool = True) -> int | None:
        """Least member n >= k (with member=False, least missing n >= k) or None."""
        n = self._next(k + self.offset, member != self.complemented)
        return None if n is None else n - self.offset

    def count(self, max_n: int) -> int:
        """Number of members in [0, max_n]."""
        # the atom's members below the offset are not shifted into the set
        inside = self._count(max_n + self.offset) - self._count(self.offset - 1)
        return max_n + 1 - inside if self.complemented else inside

    def members(self, max_n: int) -> list[int]:
        """Members up to max_n in increasing order: stepped from member to
        member when they are sparse, else read off the membership bytes."""
        # one step costs about as much as reading 32 membership bytes
        if 32 * self.count(max_n) > max_n:
            return list(compress(range(max_n + 1), self.membership_bytes(max_n)))
        out, n = [], self.next_value(0)
        while n is not None and n <= max_n:
            out.append(n)
            n = self.next_value(n + 1)
        return out

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        """Memberships of start..max_n as a bytes object of 0/1 values."""
        raise NotImplementedError

    def spec(self) -> str:
        """Canonical set-spec string; `parse_set_spec` round-trips it."""
        head = "".join("complement(" if p is None else f"shift({p}," for p in self._prefixes)
        text = head + self._atom_spec() + ")" * len(self._prefixes)
        return "nat" if text == "complement(empty)" else text

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerSet) and self.spec() == other.spec()

    def __hash__(self) -> int:
        return hash(self.spec())

    def __repr__(self) -> str:
        return f"parse_set_spec({self.spec()!r})"


def _blank(length: int, complemented: bool) -> bytearray:
    """`length` membership bytes of a window that holds no atom member."""
    return bytearray(b"\1") * length if complemented else bytearray(length)


class FiniteSet(IntegerSet):
    __slots__ = ("elements",)

    def __init__(self, elements: tuple[int, ...] = ()):
        super().__init__()
        self.elements = elems = tuple(elements)
        last = -1
        for e in elems:
            if not isinstance(e, int) or isinstance(e, bool):
                raise SetSpecError(f"finite set element {e!r} is not an integer")
            if e <= last:
                raise SetSpecError(
                    "finite set elements must be non-negative and strictly increasing"
                )
            last = e

    def _has(self, x: int) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def _next(self, x: int, member: bool) -> int | None:
        elems = self.elements
        i = bisect_left(elems, x)
        if member:
            return elems[i] if i < len(elems) else None
        while i < len(elems) and elems[i] == x:
            i, x = i + 1, x + 1
        return x

    def _count(self, x: int) -> int:
        return bisect_right(self.elements, x)

    def _atom_spec(self) -> str:
        if not self.elements:
            return "empty"
        return "finite:" + ",".join(map(str, self.elements))

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        elems, lo = self.elements, start + self.offset
        out, bit = _blank(max_n + 1 - start, self.complemented), 1 - self.complemented
        for e in elems[bisect_left(elems, lo) : bisect_right(elems, max_n + self.offset)]:
            out[e - lo] = bit
        return bytes(out)


# translate() tables from the "0"/"1" characters of a bit string to 0/1
# bytes, as they are and flipped
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_FLIPPED_BIT_VALUES = bytes.maketrans(b"01", b"\1\0")


class PeriodicSet(IntegerSet):
    """Eventually periodic membership: a finite preperiod, then a repeated period."""

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: str, period: str):
        super().__init__()
        self.preperiod, self.period = preperiod, period
        for name, bits in (("preperiod", preperiod), ("period", period)):
            if any(c not in "01" for c in bits):
                raise SetSpecError(f"{name} bits must be 0 or 1")
        if not period:
            raise SetSpecError("period must be nonempty")

    def _has(self, x: int) -> bool:
        if x < len(self.preperiod):
            return self.preperiod[x] == "1"
        return self.period[(x - len(self.preperiod)) % len(self.period)] == "1"

    def _bits_from(self, x: int) -> tuple[str, str]:
        """The bits from x on: the rest of the preperiod, then the period
        rotated to the phase where it resumes, repeated forever."""
        pre = len(self.preperiod)
        phase = (max(x, pre) - pre) % len(self.period)
        return self.preperiod[x:], self.period[phase:] + self.period[:phase]

    def _next(self, x: int, member: bool) -> int | None:
        i = "".join(self._bits_from(x)).find("01"[member])
        return None if i == -1 else x + i

    def _count(self, x: int) -> int:
        pre, per = self.preperiod, self.period
        if x < len(pre):
            return pre[: x + 1].count("1")
        reps, rest = divmod(x + 1 - len(pre), len(per))
        return pre.count("1") + reps * per.count("1") + per[:rest].count("1")

    def _atom_spec(self) -> str:
        return f"periodic:{self.preperiod};{self.period}"

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        length = max_n + 1 - start
        values = _FLIPPED_BIT_VALUES if self.complemented else _BIT_VALUES
        head, per = (bits.encode().translate(values) for bits in self._bits_from(start + self.offset))
        reps = max(length - len(head), 0) // len(per) + 1
        return (head + per * reps)[:length]


class PowersOfTwo(IntegerSet):
    """The set {2, 4, 8, ...}.  Note that 1 is not a member."""

    __slots__ = ()

    def _has(self, x: int) -> bool:
        return x >= 2 and (x & (x - 1)) == 0

    def _next(self, x: int, member: bool) -> int | None:
        if member:
            return 1 << (max(x, 2) - 1).bit_length()
        # no two consecutive integers are both powers of two >= 2
        return x + 1 if self._has(x) else x

    def _count(self, x: int) -> int:
        return max(x.bit_length() - 1, 0)

    def _atom_spec(self) -> str:
        return "pow2"

    def membership_bytes(self, max_n: int, start: int = 0) -> bytes:
        lo, hi = start + self.offset, max_n + self.offset
        out, bit = _blank(max_n + 1 - start, self.complemented), 1 - self.complemented
        for j in range(max((lo - 1).bit_length(), 1), hi.bit_length()):  # lo <= 2^j <= hi
            out[(1 << j) - lo] = bit
        return bytes(out)


def contains(a: IntegerSet, n: int) -> bool:
    """Membership test; defined for non-negative n only."""
    if n < 0:
        raise ValueError("membership is defined for non-negative integers")
    return a.contains(n)


def complement(a: IntegerSet) -> IntegerSet:
    """Complement within the non-negative integers; a double complement unwraps."""
    prefixes = a._prefixes
    prefixes = prefixes[1:] if prefixes[:1] == (None,) else (None, *prefixes)
    return a._derive(prefixes, a.offset, not a.complemented)


def shift_down(a: IntegerSet, m: int) -> IntegerSet:
    """The set {x - m : x in a}; requires m <= min(a) and a nonempty."""
    if m < 0:
        raise ValueError("shift offset must be non-negative")
    low = min_element(a)  # a shift by 0 still rejects an empty set
    if m == 0:
        return a
    prefixes, outer = a._prefixes, 0
    if prefixes and prefixes[0] is not None:  # adjacent shifts add
        outer, prefixes = prefixes[0], prefixes[1:]
    if m > low:
        raise SetSpecError(f"shift offset {outer + m} exceeds the inner set minimum {outer + low}")
    return a._derive((outer + m, *prefixes), a.offset + m, a.complemented)


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
    """A preperiod q and a period p of a, or None when its atom is `pow2`.

    n >= q is a member exactly when n + p is.  The pair comes from the
    atom alone, in time bounded by its size: a finite set is periodic from
    one past its largest element with period 1, and a periodic set gives
    its own lengths.  The flag keeps the pair and the offset k lowers q by
    k.  The pair need not be the shortest.
    """
    if isinstance(a, PowersOfTwo):
        return None
    if isinstance(a, PeriodicSet):
        q, p = len(a.preperiod), len(a.period)
    else:
        q, p = (a.elements[-1] + 1 if a.elements else 0), 1
    return max(q - a.offset, 0), p


class DensityEstimate:
    """Exact membership count over the window [1, max_n]."""

    __slots__ = ("max_n", "member_count")

    def __init__(self, max_n: int, member_count: int):
        self.max_n, self.member_count = max_n, member_count

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
