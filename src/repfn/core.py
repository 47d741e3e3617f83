"""Representation-function computation.

For a set A and n >= 0 the three counts are

    r1(A, n) = #{(a, b) in A x A : a + b = n}            ordered pairs
    r2(A, n) = #{(a, b) in A x A : a + b = n, a <= b}
    r3(A, n) = #{(a, b) in A x A : a + b = n, a < b}

This module provides pointwise counting, the closed forms for the full set
of non-negative integers, batch tables over [0, N] (r1 and the diagonal;
r2 and r3 are derived when first read), pair counting for sparse sets, and
inclusion-exclusion that reaches large N when A's complement is sparse.

Batch tables get r1 from one of two strategies with identical results.
`naive` is the oracle: a direct pair sum, done by `np.convolve` up to
N = 4096 and by block matrix products above; neither uses a transform.
The default, `auto`, runs the oracle up to N = 4096.  Above, it answers
from the set's structure when it can, taking the first route that applies:

1. sparse: at most sqrt(N + 1)/2 members, their pairs counted by `sparse_r1`;
2. co-sparse: at most sqrt(N + 1)/2 missing values (`r1_array_via_complement`);
3. periodic: a set with preperiod q and period p, read from the
   descriptor by `sets.eventual_form`, and 2q + 3p <= (N + 1)/4, whose r1
   is extrapolated from a naive table of its first 2q + 3p entries
   (`_r1_periodic` has the proof and the checks);
4. otherwise a length-2^k real FFT, certified on every call by an a-priori
   rounding bound, the observed rounding residual and the sum of the counts.

The limits keep each route well below the FFT's cost: at sqrt(N + 1)
members or missing values the pairs cost about as much as the FFT.  The
pair routes count in integers; the periodic route and the FFT raise
`SelfCheckError` rather than return a count they cannot certify.  `_plan`
alone picks the route, from the descriptor before anything is allocated,
and the memory budget charges the route it picks.

Tables and violation lists leave as text through one decimal writer.  Below
`_WRITER_CUTOVER` values it %-formats them in Python; above, numpy writes
blocks of `_CSV_BLOCK` rows, so its scratch memory stays bounded.  A block
is split into runs of rows whose columns keep their digit counts, and each
run is written with one copy; a block with more than one change per
`_MIN_RUN` rows (a sparse set's r1, flipping between 1 and 2 digits) is
written with one boolean compress instead.  Either way the bytes equal
those of "%d" formatting and of `json.dumps` on lists.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import DEFAULT_MEMORY_BUDGET
from .errors import BudgetExceededError, SelfCheckError
from .sets import IntegerSet, complement, eventual_form

__all__ = [
    "RepKind",
    "RepTable",
    "r1_at",
    "r2_at",
    "r3_at",
    "closed_form",
    "batch_table",
    "sparse_r1",
    "r1_via_complement",
    "r1_array_via_complement",
    "table_from_r1",
    "membership_array",
    "diagonal_indicator",
    "DEFAULT_MEMORY_BUDGET",
    "STRATEGIES",
]

STRATEGIES = ("naive", "auto")
FFT_CUTOVER = 4096  # auto strategy switches from naive to fft above this N
_BLOCK = 128  # block size of the naive kernel's matrix products above FFT_CUTOVER
_FIXED_BYTES = 2048  # array headers and numpy scratch, about 1.8 KB traced at N <= 16
_CSV_BLOCK = 16384  # rows per decimal-writer block: bounds its scratch, amortises numpy's per-call cost
_MIN_RUN = 256  # a writer block with more digit-count changes than rows / _MIN_RUN is compressed, not split
_WRITER_CUTOVER = 2048  # below this many values the decimal writer %-formats them in Python
_EPS = 2.0**-53  # unit roundoff of float64


class RepKind(enum.Enum):
    R1 = "r1"
    R2 = "r2"
    R3 = "r3"


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError("n must be non-negative")


def r1_at(a: IntegerSet, n: int) -> int:
    """Number of ordered pairs of members summing to n."""
    _check_n(n)
    return sum(1 for x in range(n + 1) if a.contains(x) and a.contains(n - x))


def r2_at(a: IntegerSet, n: int) -> int:
    """Number of pairs a <= b of members summing to n."""
    _check_n(n)
    return sum(1 for x in range(n // 2 + 1) if a.contains(x) and a.contains(n - x))


def r3_at(a: IntegerSet, n: int) -> int:
    """Number of pairs a < b of members summing to n."""
    _check_n(n)
    return sum(1 for x in range((n + 1) // 2) if a.contains(x) and a.contains(n - x))


def closed_form(kind: RepKind, n: int) -> int:
    """Value of the representation function on the full set of non-negative
    integers: n + 1, floor(n/2) + 1, and floor((n-1)/2) + 1 respectively.

    Python's floor division rounds toward minus infinity, so the r3 form
    gives 0 at n = 0.
    """
    _check_n(n)
    kind = RepKind(kind)
    if kind is RepKind.R1:
        return n + 1
    if kind is RepKind.R2:
        return n // 2 + 1
    return (n - 1) // 2 + 1


@dataclass(frozen=True)
class RepTable:
    """The counts over [0, max_n] for one set, all read-only: r1, maybe the array given to
    `table_from_r1`, and the diagonal d; r2 = (r1 + d)/2 and r3 = r2 - d are derived on first read."""

    integer_set: IntegerSet
    max_n: int
    r1: np.ndarray
    diagonal: np.ndarray

    def __post_init__(self) -> None:
        self.r1.setflags(write=False)
        self.diagonal.setflags(write=False)

    @functools.cached_property
    def r2(self) -> np.ndarray:
        r2 = self.r1 + self.diagonal
        r2 >>= 1
        r2.setflags(write=False)
        return r2

    @functools.cached_property
    def r3(self) -> np.ndarray:
        r3 = self.r2 - self.diagonal
        r3.setflags(write=False)
        return r3

    @property
    def set_spec(self) -> str:
        """The set's spec, rendered when read: a long `finite:` list costs
        about as much to render as the table does to compute."""
        return self.integer_set.spec()

    def values(self, kind: RepKind) -> np.ndarray:
        return getattr(self, RepKind(kind).value)

    def to_csv(self) -> str:
        n = np.arange(self.max_n + 1)
        return "n,r1,r2,r3\n" + _decimal_rows((n, self.r1, self.r2, self.r3))

    def to_json_obj(self) -> dict:
        """The JSON document's fields; r1, r2 and r3 stay int64 arrays."""
        return {"set": self.set_spec, "max_n": self.max_n, "r1": self.r1, "r2": self.r2, "r3": self.r3}


def _decimal_rows(cols: Sequence[np.ndarray], end: str = "\n") -> str:
    """Rows `a,b,c{end}` of equal-length columns of non-negative integers in
    decimal: the text `("%d,%d,%d" + end) * rows % values` gives."""
    rows = len(cols[0])
    if rows * len(cols) < _WRITER_CUTOVER:
        # numpy's per-call cost outweighs what it saves on a few values
        values = cols[0] if len(cols) == 1 else np.column_stack(cols).ravel()
        return (",".join(["%d"] * len(cols)) + end) * rows % tuple(values.tolist())
    return "".join(
        _decimal_block([c[lo : lo + _CSV_BLOCK] for c in cols], end)
        for lo in range(0, rows, _CSV_BLOCK)
    )


def _decimal_block(cols: list[np.ndarray], end: str) -> str:
    # Every row is laid out at one width: each column right-aligned in as
    # many digits as its largest value has, then "," or end.  Row j of the
    # buffer is character j of every text row, so each digit plane, taken
    # by repeated floor division by 10, is one contiguous write.  A
    # keep-mask drops the leading zeros.  The rows between two changes of
    # any column's digit count keep the same planes, so each such run
    # leaves as one transposed copy of its kept planes.  A block with more
    # than one change per _MIN_RUN rows takes one boolean compress of the
    # transposed buffer instead, which costs more per row but nothing per run.
    tails = [","] * (len(cols) - 1) + [end]
    tops = [int(c.max()) for c in cols]
    width = sum(len(str(top)) + len(tail) for top, tail in zip(tops, tails))
    rows = len(cols[0])
    buf = np.empty((width, rows), dtype=np.uint8)
    keep = np.ones(buf.shape, dtype=bool)
    cut = np.zeros(rows, dtype=bool)  # some digit count differs from the previous row's
    pos = 0
    for c, top, tail in zip(cols, tops, tails):
        q = c.astype(np.int32 if top < 2**31 else np.int64)
        last = pos + len(str(top)) - 1
        for p in range(last, pos - 1, -1):
            if p < last:
                np.not_equal(q, 0, out=keep[p])
            div = q // 10
            np.subtract(q, div * 10, out=buf[p], casting="unsafe")
            q = div
        digits = keep[pos:last].sum(axis=0, dtype=np.uint8)
        cut[1:] |= digits[1:] != digits[:-1]
        buf[pos : last + 1] += ord("0")
        pos = last + 1 + len(tail)
        buf[last + 1 : pos] = np.frombuffer(tail.encode(), np.uint8)[:, None]
    starts = np.flatnonzero(cut)
    if len(starts) * _MIN_RUN > rows:
        return str(buf.T[keep.T], "ascii")
    edges = [0, *starts.tolist(), rows]
    return b"".join(buf[keep[:, lo], lo:hi].T.tobytes() for lo, hi in zip(edges, edges[1:])).decode("ascii")


def membership_array(a: IntegerSet, max_n: int) -> np.ndarray:
    """Memberships of 0..max_n as a read-only uint8 array."""
    return np.frombuffer(a.membership_bytes(max_n), dtype=np.uint8)


def diagonal_indicator(a: IntegerSet, max_n: int) -> np.ndarray:
    """1 where n is even and n/2 is a member, else 0, as a uint8 array over
    [0, max_n].  Equals r2 - r3."""
    return _diagonal(membership_array(a, max_n))


def _diagonal(mem: np.ndarray) -> np.ndarray:
    d = np.zeros(len(mem), dtype=np.uint8)
    d[0::2] = mem[: (len(mem) + 1) // 2]
    return d


def _r1_naive(mem: np.ndarray) -> np.ndarray:
    # Direct pair sum of the 0/1 membership sequence with itself.  Floats
    # carry it exactly: every product is 0 or 1 and every partial sum, in
    # whatever order np.convolve or BLAS adds them, is a non-negative
    # integer bounded by len(mem), below 2**24 (float32) or 2**53 (float64).
    # Up to N = FFT_CUTOVER np.convolve does it, where it beats the block
    # products.  Only n < len(mem) is kept, so the upper half is never
    # squared: a pair with both terms in it sums past the end, and a mixed
    # pair is counted twice.
    dtype = np.float32 if len(mem) < (1 << 24) - 1 else np.float64
    if len(mem) - 1 > FFT_CUTOVER:
        return _r1_blocks(mem, dtype)
    x = mem.astype(dtype)
    h = (len(x) + 1) // 2
    r1 = np.zeros(len(x), dtype=dtype)
    r1[: 2 * h - 1] = np.convolve(x[:h], x[:h])
    if h < len(x):
        r1[h:] += 2 * np.convolve(x[:h], x[h:])[: len(x) - h]
    return r1.astype(np.int64)


def _r1_blocks(mem: np.ndarray, dtype: type) -> np.ndarray:
    # The same pair sum as block-Toeplitz matrix products.  Cut x into m
    # blocks of b; ar[k] is block k reversed and win[s] = x[s - b + 1 : s + 1].
    # Then ar[k] . win[d b + t] sums x[i] x[n - i] over i in block k, for
    # n = (k + d) b + t, so one product per block distance d adds every
    # block pair at that distance to the output blocks k + d.
    n, b = len(mem), _BLOCK
    m = -(-n // b)
    xp = np.zeros(b - 1 + m * b, dtype=dtype)
    xp[b - 1 : b - 1 + n] = mem
    win = sliding_window_view(xp, b)
    ar = np.ascontiguousarray(xp[b - 1 :].reshape(m, b)[:, ::-1])
    out = np.zeros((m, b), dtype=dtype)
    prod = np.empty((m, b), dtype=dtype)
    for d in range(m):
        np.matmul(ar[: m - d], win[d * b : d * b + b].T, out=prod[: m - d])
        out[d:] += prod[: m - d]
    return out.ravel()[:n].astype(np.int64)


def _fft_error_bound(k: int, norm2: int) -> float:
    # Percival, Math. Comp. 72 (2003) 387-395: a length-2^k FFT convolution
    # of x and y is off by less than |x| |y| ((1+e)^3k (1+e sqrt5)^(3k+1)
    # (1+b)^3k - 1) in every entry, e the unit roundoff and b the error of
    # the roots of unity, taken as e (pocketfft rounds them from higher
    # precision).  For 0/1 memberships |x|^2 is the member count.
    logs = 6 * k * math.log1p(_EPS) + (3 * k + 1) * math.log1p(_EPS * math.sqrt(5))
    return norm2 * math.expm1(logs)


def _r1_fft(mem: np.ndarray) -> np.ndarray:
    # Self-convolution by a real FFT long enough that nothing wraps around,
    # rounded to the nearest integers.  Rounding is exact when every entry
    # is within 1/2 of its count; the a-priori bound and the observed
    # residual must both stay under 1/4, and the full convolution must sum
    # to the squared member count (in float64 that sum is exact below 2^53).
    n = len(mem)
    size = 1 << (2 * n - 1).bit_length()
    count = int(np.count_nonzero(mem))
    bound = _fft_error_bound(size.bit_length() - 1, count)
    if bound >= 0.25 or count * count >= 1 << 53:
        raise SelfCheckError(f"FFT of length {size} over {count} members not certifiable")
    spec = np.fft.rfft(mem, size)
    spec *= spec
    y = np.fft.irfft(spec, size)
    del spec
    r1 = np.rint(y)
    y -= r1
    residual = float(np.abs(y, out=y).max())
    del y
    if residual >= 0.25:
        raise SelfCheckError(f"FFT rounding residual {residual:.3g} at length {size}")
    total = int(r1.sum())
    if total != count * count:
        raise SelfCheckError(f"FFT convolution sums to {total}, not {count}^2 = {count * count}")
    return r1[:n].astype(np.int64)


def _r1_periodic(mem: np.ndarray, q: int, p: int) -> np.ndarray:
    """r1 of a set with preperiod q and period p, from a naive table of its
    first 2q + 3p entries.

    The generating function is A(z) = E(z) + z^q Q(z)/(1 - z^p) with
    deg E < q and deg Q < p, so (1 - z^p) A(z) is a polynomial of degree at
    most q + p - 1, and (1 - z^p)^2 A(z)^2 one of degree at most
    2q + 2p - 2.  Its coefficient of z^(m + 2p) is
    r1(m + 2p) - 2 r1(m + p) + r1(m), which is therefore 0 for every
    m >= 2q - 1.  So for b >= 2q, r1(b + jp) = r1(b) + j (r1(b + p) - r1(b)).
    The table gives r1 on [2q, 2q + 2p).  Two checks raise SelfCheckError:
    mem itself must repeat with period p from q on, so the proof holds for
    this input whatever pair was passed, and the table's last p entries
    must equal the extrapolation.
    """
    n, s = len(mem), 2 * q
    if not np.array_equal(mem[q + p :], mem[q : n - p]):
        raise SelfCheckError(f"membership from {q} does not repeat with period {p}")
    head = _r1_naive(mem[: s + 3 * p])
    base = head[s : s + p]
    step = head[s + p : s + 2 * p] - base
    if not np.array_equal(head[s + 2 * p :], base + 2 * step):
        raise SelfCheckError(f"r1 from {s} does not follow period {p} in its naive prefix")
    r1 = np.empty(n, dtype=np.int64)
    r1[:s] = head[:s]
    # row j of the whole periods from s is base + j step, a running sum down
    # the rows, taken in place; the last, partial row follows its predecessor
    k, rest = divmod(n - s, p)
    rows = r1[s : n - rest].reshape(k, p)
    rows[0], rows[1:] = base, step
    np.cumsum(rows, axis=0, out=rows)
    r1[n - rest :] = rows[-1, :rest] + step[:rest]
    return r1


def _estimate_bytes(max_n: int, route: str | None = None) -> int:
    """Bytes a table up to max_n is charged on `route`, or with no route the
    most that any route open at that size is charged.  Past a fixed overhead
    that is 48 per entry on a structural route (26.5-27.5 traced: the
    membership and diagonal bytes and the three count arrays), 64 on naive
    (its float copies and convolution output too), and on the fft 16 more
    per entry of its 2^k transform length (padded spectrum and inverse
    transform)."""
    n = max_n + 1
    if route is None:
        route = "fft" if max_n > FFT_CUTOVER else "naive"
    if route in ("sparse", "co-sparse", "periodic"):
        return _FIXED_BYTES + 48 * n
    return _FIXED_BYTES + 64 * n + (16 << (2 * n - 1).bit_length() if route == "fft" else 0)


def _plan(a: IntegerSet, max_n: int, strategy: str) -> tuple[str, tuple[int, int] | None, int]:
    """The route of the module docstring that a table up to max_n takes, read
    from the descriptor alone, with the periodic route's (q, p) and the
    route's byte charge.  A structural route runs only where its own work is
    at most a quarter of the table length: m^2 member or miss pairs, or a
    naive prefix of 2q + 3p entries."""
    n, route, form = max_n + 1, "naive", None
    if strategy == "auto" and max_n > FFT_CUTOVER:
        members, form = a.count(max_n), eventual_form(a)
        if 4 * members * members <= n:
            route = "sparse"
        elif 4 * (n - members) ** 2 <= n:
            route = "co-sparse"
        elif form is not None and 4 * (2 * form[0] + 3 * form[1]) <= n:
            route = "periodic"
        else:
            route = "fft"
    return route, form, _estimate_bytes(max_n, route)


def batch_table(
    a: IntegerSet,
    max_n: int,
    strategy: str = "auto",
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> RepTable:
    """Compute all three functions on [0, max_n].

    Both strategies produce identical tables by contract.  "naive" is the
    oracle at any N, a direct pair sum with no transform.  "auto" (the
    default) runs the route `_plan` reads from the descriptor, and the
    budget is checked against that route's charge before anything is
    allocated.  The table derives r2 and r3 from r1 and the diagonal when
    they are first read, which keeps a single source of truth for the counts.
    """
    _check_n(max_n)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    route, form, need = _plan(a, max_n, strategy)
    if need > memory_budget:
        raise BudgetExceededError(f"a table up to {max_n} needs about {need} bytes", budget=memory_budget)
    mem = membership_array(a, max_n)
    if route == "naive":
        r1 = _r1_naive(mem)
    elif route == "sparse":
        r1 = np.zeros(max_n + 1, dtype=np.int64)
        for n, pairs in sparse_r1(a, max_n).items():
            r1[n] = pairs
    elif route == "co-sparse":
        r1 = r1_array_via_complement(a, max_n)
    elif route == "periodic":
        r1 = _r1_periodic(mem, *form)
    else:
        r1 = _r1_fft(mem)
    return RepTable(a, max_n, r1, _diagonal(mem))


def sparse_r1(a: IntegerSet, max_n: int) -> dict[int, int]:
    """r1 of a sparse set on [0, max_n] as {n: count} in increasing n; every
    n absent from the map has r1 = 0.  Every ordered member pair is visited,
    so the cost is the square of the member count up to max_n."""
    _check_n(max_n)
    members = a.members(max_n)
    sums = Counter(x + y for x in members for y in members if x + y <= max_n)
    return {n: sums[n] for n in sorted(sums)}


def r1_via_complement(a: IntegerSet, n: int) -> int:
    """r1(a, n) by inclusion-exclusion over the values a misses up to n:
    (n + 1) - 2 * #misses + #ordered miss pairs summing to n."""
    _check_n(n)
    misses = complement(a).members(n)
    present = set(misses)
    pairs = sum(1 for c in misses if (n - c) in present)
    return (n + 1) - 2 * len(misses) + pairs


def r1_array_via_complement(a: IntegerSet, max_n: int) -> np.ndarray:
    """Vector form of `r1_via_complement` over all n in [0, max_n]; fast
    when the complement of a is sparse, since its pairs go to `sparse_r1`."""
    _check_n(max_n)
    misses = complement(a)
    # each n adds 1 to n + 1 and each miss up to n takes 2 away: one int64 array, summed in place
    r1 = np.subtract(1, 2 * membership_array(misses, max_n), dtype=np.int64)
    np.cumsum(r1, out=r1)
    for n, pairs in sparse_r1(misses, max_n).items():
        r1[n] += pairs
    return r1


def table_from_r1(a: IntegerSet, r1: Sequence[int] | np.ndarray) -> RepTable:
    """A full table over [0, len(r1) - 1] from a precomputed r1, deriving r2
    and r3.  An int64 array becomes the table's r1 without a copy and is made
    read-only, as every table's arrays are.  Raises ValueError unless r1 is a
    non-empty 1-D array or sequence of non-negative integers."""
    r1 = np.asarray(r1)
    if r1.ndim != 1 or not len(r1) or r1.dtype.kind not in "iu":
        raise ValueError(f"r1 must be a non-empty 1-D integer array, not {r1.dtype} of shape {r1.shape}")
    r1 = r1.astype(np.int64, copy=False)
    if r1.min() < 0:
        raise ValueError("r1 counts must be non-negative")
    return RepTable(a, len(r1) - 1, r1, diagonal_indicator(a, len(r1) - 1))
