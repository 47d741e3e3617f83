import json
import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repfn import core
from repfn.cli import _json_document, main
from repfn.core import (
    RepKind,
    batch_table,
    closed_form,
    diagonal_indicator,
    r1_array_via_complement,
    r1_at,
    r1_via_complement,
    r2_at,
    r3_at,
    sparse_r1,
    table_from_r1,
)
from repfn.errors import BudgetExceededError, SelfCheckError
from repfn.monotonicity import find_violations
from repfn.pool import mixed_pool, periodic_pool
from repfn.sets import FiniteSet, PowersOfTwo, complement, min_element, parse_set_spec, shift_down
from repfn.verify import _half_range_counts, _r1_word_parallel, suite_density_one


def unstructured_set(max_n, seed=5):
    """A seeded finite set of about max_n / 2 values up to max_n: too many
    members and missing values for the pair routes of `auto`, and a
    preperiod too long for its periodic route, so `auto` runs the FFT."""
    rng = np.random.default_rng(seed)
    return FiniteSet(tuple(np.flatnonzero(rng.random(max_n + 1) < 0.5).tolist()))


def table_ceiling(max_n):
    """The traced bytes a table up to max_n may take at most: its membership,
    diagonal and three int64 count arrays are 26 per entry, and 28 leaves
    room for a route's pair map and the fixed overhead, but for no more int64."""
    return 28 * (max_n + 1) + core._FIXED_BYTES


def brute_counts(a, n):
    """Oracle: enumerate all ordered pairs directly."""
    pairs = [(x, n - x) for x in range(n + 1) if a.contains(x) and a.contains(n - x)]
    return len(pairs), sum(1 for x, y in pairs if x <= y), sum(1 for x, y in pairs if x < y)


class TestPointwise:
    def test_known_values(self):
        nat = parse_set_spec("nat")
        assert r1_at(nat, 5) == 6
        assert r1_at(parse_set_spec("empty"), 7) == 0
        assert r1_at(parse_set_spec("finite:2,4,8"), 6) == 2
        assert r2_at(nat, 7) == 4
        assert r2_at(parse_set_spec("finite:0"), 0) == 1
        assert r2_at(parse_set_spec("complement(finite:2,5)"), 4) == 2
        assert r3_at(nat, 0) == 0
        assert r3_at(nat, 9) == 5
        assert r3_at(parse_set_spec("finite:1,2"), 3) == 1

    @pytest.mark.parametrize("spec", ["pow2", "periodic:01;110", "complement(finite:1,6)"])
    def test_against_pair_enumeration(self, spec):
        a = parse_set_spec(spec)
        for n in range(80):
            b1, b2, b3 = brute_counts(a, n)
            assert (r1_at(a, n), r2_at(a, n), r3_at(a, n)) == (b1, b2, b3)


class TestClosedForm:
    def test_known_values(self):
        assert closed_form(RepKind.R1, 5) == 6
        assert closed_form(RepKind.R2, 0) == 1
        assert closed_form(RepKind.R3, 8) == 4
        assert closed_form(RepKind.R3, 0) == 0

    def test_matches_full_set_counting(self):
        nat = parse_set_spec("nat")
        for n in range(120):
            b1, b2, b3 = brute_counts(nat, n)
            assert closed_form(RepKind.R1, n) == b1
            assert closed_form(RepKind.R2, n) == b2
            assert closed_form(RepKind.R3, n) == b3


class TestBatchTable:
    def test_spec_example(self):
        t = batch_table(parse_set_spec("complement(finite:1)"), 4)
        assert t.r1.tolist() == [1, 0, 2, 2, 3]
        assert t.r2.tolist() == [1, 0, 1, 1, 2]
        assert t.r3.tolist() == [0, 0, 1, 1, 1]

    def test_full_set_row(self):
        t = batch_table(parse_set_spec("nat"), 6)
        assert t.r1.tolist() == [1, 2, 3, 4, 5, 6, 7]

    def test_empty_set(self):
        t = batch_table(parse_set_spec("empty"), 9)
        assert not t.r1.any() and not t.r2.any() and not t.r3.any()

    @pytest.mark.parametrize("strategy", ["naive", "auto"])
    def test_matches_pointwise(self, strategy):
        for a in mixed_pool(6, seed=5):
            t = batch_table(a, 64, strategy)
            for n in range(65):
                assert int(t.r1[n]) == r1_at(a, n)
                assert int(t.r2[n]) == r2_at(a, n)
                assert int(t.r3[n]) == r3_at(a, n)

    def test_strategies_agree_midsize(self):
        # 5000 is past FFT_CUTOVER, so there auto runs the fft kernel
        for max_n in (600, 5000):
            for a in mixed_pool(8, seed=11):
                tn = batch_table(a, max_n, "naive")
                tw = table_from_r1(a, _r1_word_parallel(core.membership_array(a, max_n)))
                ta = batch_table(a, max_n, "auto")
                for t in (tw, ta):
                    for x, y in ((tn.r1, t.r1), (tn.r2, t.r2), (tn.r3, t.r3)):
                        assert np.array_equal(x, y)

    def test_count_bounds(self):
        for a in mixed_pool(6, seed=3):
            t = batch_table(a, 100)
            for n in range(101):
                assert t.r1[n] <= n + 1
                assert t.r2[n] <= n // 2 + 1
                assert t.r3[n] <= (n - 1) // 2 + 1

    def test_decomposition_invariant(self):
        for a in mixed_pool(6, seed=9):
            t = batch_table(a, 200)
            d = diagonal_indicator(a, 200)
            assert d.dtype == np.uint8
            assert np.array_equal(t.r1, t.r2 + t.r3)
            assert np.array_equal(t.r2 - t.r3, d)
            assert np.array_equal(t.r1, 2 * t.r3 + d)

    def test_tables_immutable(self):
        t = batch_table(parse_set_spec("pow2"), 10)
        with pytest.raises(ValueError):
            t.r1[0] = 99

    def test_budget_error_names_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            batch_table(parse_set_spec("nat"), 10**9, memory_budget=1024)
        assert "1024" in str(err.value)

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            batch_table(parse_set_spec("nat"), 4, "bogus")

    @pytest.mark.parametrize("strategy", ["fft", "word_parallel"])
    def test_kernel_names_are_not_strategies(self, strategy):
        with pytest.raises(ValueError):
            batch_table(parse_set_spec("nat"), 10, strategy)

    def test_max_n_zero(self):
        t = batch_table(parse_set_spec("nat"), 0)
        assert t.r1.tolist() == [1] and t.r2.tolist() == [1] and t.r3.tolist() == [0]


class TestNaiveKernel:
    # around the np.convolve / block-product dispatch at N = 4096 and around
    # the edges of 128-entry blocks
    LENGTHS = [4097, 4098, 4224, 4225, 4352, 8193, 32769]

    @pytest.mark.parametrize("fill", [0.0, 0.05, 0.5, 1.0])
    def test_block_route_equals_full_convolution(self, fill):
        rng = np.random.default_rng(int(fill * 100) + 1)
        for length in self.LENGTHS:
            mem = (rng.random(length) < fill).astype(np.uint8)
            want = np.convolve(mem.astype(np.float64), mem.astype(np.float64))[:length]
            got = core._r1_naive(mem)
            assert got.dtype == np.int64
            assert np.array_equal(got, want.astype(np.int64)), length


class TestFftKernel:
    LENGTHS = [*range(1, 80), 4095, 4096, 4097, 32767, 32768, 32769]

    @pytest.mark.parametrize("density", [0.05, 0.5, 0.95])
    def test_equals_naive(self, density):
        rng = np.random.default_rng(int(density * 100))
        for length in self.LENGTHS:
            mem = (rng.random(length) < density).astype(np.uint8)
            assert np.array_equal(core._r1_fft(mem), core._r1_naive(mem)), length

    @staticmethod
    def _corrupt_irfft(monkeypatch, index, delta):
        real = np.fft.irfft

        def corrupted(spec, size):
            y = real(spec, size)
            y[index] += delta
            return y

        monkeypatch.setattr(np.fft, "irfft", corrupted)

    def test_error_bound_checked(self, monkeypatch):
        # the bound for a whole 2^23-entry membership is far below 1/4
        assert core._fft_error_bound(24, 1 << 23) < 1e-6
        monkeypatch.setattr(core, "_fft_error_bound", lambda k, norm2: 0.25)
        with pytest.raises(SelfCheckError, match="not certifiable"):
            batch_table(unstructured_set(5000), 5000)

    def test_rounding_residual_checked(self, monkeypatch):
        self._corrupt_irfft(monkeypatch, 3, 0.3)
        with pytest.raises(SelfCheckError, match="residual"):
            batch_table(unstructured_set(5000), 5000)

    def test_count_sum_checked(self, monkeypatch, capsys):
        # one extra pair past N leaves r1 on [0, N] intact; only the sum shows it
        self._corrupt_irfft(monkeypatch, -1, 1.0)
        a = unstructured_set(5000)
        with pytest.raises(SelfCheckError, match="sums to"):
            batch_table(a, 5000)
        assert main(["table", "--set", a.spec(), "--max", "5000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "not certified" in captured.err

    @pytest.mark.parametrize("strategy", ["naive", "auto"])
    @pytest.mark.parametrize(
        "max_n",
        [0, 1, 2, 16, 100, 512, 4096, 4097, 2**15, 2**16 - 1, 2**16, 100000, 2**17],
    )
    def test_estimate_covers_traced_peak(self, strategy, max_n):
        a = parse_set_spec("complement(pow2)")
        tracemalloc.start()
        try:
            batch_table(a, max_n, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = core._plan(a, max_n, strategy)[2]
        assert estimate >= peak
        naive_runs = strategy == "naive" or max_n <= core.FFT_CUTOVER
        if naive_runs and max_n >= 100:
            assert estimate <= 3 * peak
        if max_n == 2**17:
            assert peak <= table_ceiling(max_n)

    def test_fft_runs_exactly_when_estimated(self, monkeypatch):
        class FftCalled(Exception):
            pass

        def refuse(mem):
            raise FftCalled

        monkeypatch.setattr(core, "_r1_fft", refuse)
        cut = core.FFT_CUTOVER
        a = unstructured_set(cut + 1)
        naive = core._estimate_bytes(cut + 1, "naive")
        # the padded spectrum and inverse transform: 16 bytes per entry of 2^k >= 2N + 1
        fft_term = 16 * (1 << (2 * cut + 3).bit_length())
        assert core._plan(a, cut, "auto") == ("naive", None, core._estimate_bytes(cut, "naive"))
        assert core._plan(a, cut + 1, "naive") == ("naive", None, naive)
        assert core._plan(a, cut + 1, "auto")[::2] == ("fft", naive + fft_term)
        batch_table(a, cut)
        batch_table(a, cut + 1, "naive")
        with pytest.raises(FftCalled):
            batch_table(a, cut + 1)


def limit_set(route, max_n, seed=7):
    """A set at the limit of a structural route of `auto` at max_n:
    floor(sqrt(N + 1)/2) random members or missing values, or a preperiod q
    and period p with 4 (2q + 3p) as close to N + 1 as it may be."""
    rng = np.random.default_rng(seed)
    if route == "periodic":
        q = (max_n + 1) // 32
        p = ((max_n + 1) // 4 - 2 * q) // 3
        bits = "".join(map(str, rng.integers(0, 2, q + p).tolist()))
        return parse_set_spec(f"periodic:{bits[:q]};{bits[q:]}")
    m = math.isqrt(max_n + 1) // 2
    a = FiniteSet(tuple(sorted(rng.choice(max_n + 1, m, replace=False).tolist())))
    return a if route == "sparse" else complement(a)


class TestAutoRoutes:
    """`auto` above FFT_CUTOVER answers from the set's structure where it can."""

    # each spec with the function its route runs, which names the test ids
    ROUTE_OF = {"sparse_r1": "sparse", "r1_array_via_complement": "co-sparse", "_r1_periodic": "periodic"}
    ROUTED = [
        ("pow2", "sparse_r1"),
        ("shift(1,pow2)", "sparse_r1"),
        ("complement(pow2)", "r1_array_via_complement"),
        ("complement(finite:3,7,40)", "r1_array_via_complement"),
        ("periodic:01;0110100", "_r1_periodic"),
        ("complement(periodic:1;011)", "_r1_periodic"),
        ("shift(3,periodic:0001;011)", "_r1_periodic"),
    ]

    @pytest.mark.parametrize("max_n", [4097, 9001, 2**15])
    @pytest.mark.parametrize("spec, route", ROUTED)
    def test_route_equals_naive(self, spec, route, max_n):
        a = parse_set_spec(spec)
        assert core._plan(a, max_n, "auto")[0] == self.ROUTE_OF[route]
        want = batch_table(a, max_n, "naive")
        got = batch_table(a, max_n)
        for kind in RepKind:
            assert np.array_equal(got.values(kind), want.values(kind))

    def test_naive_takes_no_route(self, monkeypatch):
        # a small table and the naive strategy plan without reading the descriptor
        def refuse(self, max_n):
            raise AssertionError("the plan counted the members")

        monkeypatch.setattr(PowersOfTwo, "count", refuse)
        a = parse_set_spec("pow2")
        for max_n, strategy in ((0, "auto"), (core.FFT_CUTOVER, "auto"), (9001, "naive"), (2**20, "naive")):
            assert core._plan(a, max_n, strategy) == ("naive", None, core._estimate_bytes(max_n, "naive"))

    def test_periodic_route_checks_its_prefix(self, monkeypatch):
        real = core._r1_naive

        def corrupted(mem):
            r1 = real(mem)
            r1[-1] += 1
            return r1

        monkeypatch.setattr(core, "_r1_naive", corrupted)
        with pytest.raises(SelfCheckError, match="period"):
            batch_table(parse_set_spec("periodic:01;0110100"), 9001)

    def test_periodic_route_checks_its_input(self, monkeypatch):
        # period 3 from 0 is wrong for this set, and its naive prefix still fits it
        monkeypatch.setattr(core, "eventual_form", lambda a: (0, 3))
        with pytest.raises(SelfCheckError, match="repeat"):
            batch_table(parse_set_spec("periodic:01;0110100"), 9001)

    FAR_MEMBERS = ",".join(map(str, [3 + 125 * i for i in range(40)] + [10**12]))

    @pytest.mark.parametrize(
        "spec",
        [
            f"finite:{FAR_MEMBERS}",
            f"complement(finite:{FAR_MEMBERS})",
            f"shift(3,finite:{FAR_MEMBERS})",
        ],
    )
    def test_far_element_costs_nothing_up_to_it(self, spec):
        # 40 members up to N: no pair route; a preperiod past 10^12: no periodic route
        a, max_n = parse_set_spec(spec), 5000
        route, _, charge = core._plan(a, max_n, "auto")
        assert route == "fft"
        want = batch_table(a, max_n, "naive")
        tracemalloc.start()
        try:
            got = batch_table(a, max_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charge
        for kind in RepKind:
            assert np.array_equal(got.values(kind), want.values(kind))

    @pytest.mark.parametrize(
        "spec",
        [spec for spec, _ in ROUTED[::2]] + ["unstructured", "sparse-limit", "co-sparse-limit", "periodic-limit"],
    )
    def test_route_peak_within_estimate(self, spec):
        # a structural route is charged between one and two times its peak
        route_of = {s: self.ROUTE_OF[fn] for s, fn in self.ROUTED} | {"unstructured": "fft"}
        limit = spec.endswith("-limit")
        want = spec.removesuffix("-limit") if limit else route_of[spec]
        for max_n in (4097, 2**15, 2**17):
            if limit:
                a = limit_set(want, max_n)
            elif spec == "unstructured":
                a = unstructured_set(max_n)
            else:
                a = parse_set_spec(spec)
            route, _, charge = core._plan(a, max_n, "auto")
            assert route == want
            tracemalloc.start()
            try:
                batch_table(a, max_n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= charge
            if route != "fft":
                assert charge <= 2 * peak, (route, max_n)
            if route != "fft" and max_n == 2**17:
                assert peak <= table_ceiling(max_n), route


class TestSubsetMonotonicity:
    def test_bitwise_superset_dominates(self):
        import random

        rng = random.Random(2)
        for _ in range(10):
            bits_a = [rng.randint(0, 1) for _ in range(150)]
            bits_b = [x | rng.randint(0, 1) for x in bits_a]
            a = parse_set_spec("periodic:" + "".join(map(str, bits_a)) + ";0")
            b = parse_set_spec("periodic:" + "".join(map(str, bits_b)) + ";0")
            ta, tb = batch_table(a, 149), batch_table(b, 149)
            assert np.all(ta.r1 <= tb.r1)
            assert np.all(ta.r2 <= tb.r2)
            assert np.all(ta.r3 <= tb.r3)


class TestShiftIdentity:
    @pytest.mark.parametrize(
        "spec", ["pow2", "complement(finite:0,3,8)", "periodic:0001;0110", "finite:2,5,11"]
    )
    def test_all_three_functions(self, spec):
        a = parse_set_spec(spec)
        m = min_element(a)
        s = shift_down(a, m)
        ta = batch_table(a, 2 * m + 120)
        ts = batch_table(s, 120)
        for kind in RepKind:
            va, vs = ta.values(kind), ts.values(kind)
            for n in range(121):
                assert va[2 * m + n] == vs[n]


class TestComplementPath:
    def test_known_values(self):
        assert r1_via_complement(parse_set_spec("complement(finite:1)"), 4) == 3
        assert r1_via_complement(parse_set_spec("nat"), 9) == 10
        assert r1_via_complement(parse_set_spec("complement(pow2)"), 10) == 7

    def test_matches_direct_count(self):
        a = parse_set_spec("complement(finite:2,4,8,9,15)")
        for n in range(120):
            assert r1_via_complement(a, n) == r1_at(a, n)

    def test_array_form_matches_naive(self):
        a = parse_set_spec("complement(finite:1,2,6,30,101)")
        arr = r1_array_via_complement(a, 500)
        t = batch_table(a, 500, "naive")
        assert np.array_equal(arr, t.r1)

    def test_array_form_empty_misses(self):
        assert r1_array_via_complement(parse_set_spec("nat"), 5).tolist() == [1, 2, 3, 4, 5, 6]

    def test_scalar_form_reads_misses_from_descriptor(self):
        a = parse_set_spec("complement(pow2)")
        r1_via_complement(a, 10)
        tracemalloc.start()
        try:
            r1_via_complement(a, 2**24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        # the n the density-one suite samples
        ns = (0, 1, 2, 5, 6, 100, 2**15, 2**20 - 1)
        arr = r1_array_via_complement(a, ns[-1])
        assert [r1_via_complement(a, n) for n in ns] == [int(arr[n]) for n in ns]

    def test_table_from_r1(self):
        a = parse_set_spec("complement(pow2)")
        arr = r1_array_via_complement(a, 40)
        t = table_from_r1(a, arr)
        direct = batch_table(a, 40, "naive")
        assert np.array_equal(t.r2, direct.r2)
        assert np.array_equal(t.r3, direct.r3)

    def test_table_from_r1_keeps_an_int64_array(self):
        a = parse_set_spec("complement(pow2)")
        arr = r1_array_via_complement(a, 40)
        t = table_from_r1(a, arr)
        assert np.shares_memory(t.r1, arr)
        assert not arr.flags.writeable
        assert table_from_r1(a, arr.astype(np.int32)).r1.dtype == np.int64
        assert table_from_r1(a, arr.tolist()).r1.tolist() == arr.tolist()

    @pytest.mark.parametrize(
        "r1",
        [[], [0, 0, 1.5], [[1, 0], [2, 2]], [1, -1, 2], np.zeros(3, dtype=bool), 5, np.array([2**63], dtype=np.uint64)],
    )
    def test_table_from_r1_rejects_what_is_not_a_count_array(self, r1):
        with pytest.raises(ValueError):
            table_from_r1(parse_set_spec("nat"), r1)

    def test_density_one_suite_holds_one_r1_and_its_table(self):
        # r1, r2 and r3 over 2^20 + 1 entries are 24 MiB; a fourth int64 array would pass 28
        tracemalloc.start()
        try:
            checks = suite_density_one()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in checks)
        assert peak <= 28 * 2**20


class TestSparseR1:
    def test_pow2_reads_members_from_descriptor(self):
        sparse_r1(PowersOfTwo(), 10)
        tracemalloc.start()
        try:
            profile = sparse_r1(PowersOfTwo(), 2**24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(PowersOfTwo().members(2**24)) == 24
        assert profile[2**24] == 1 and profile[2**23 + 2] == 2
        assert peak < 64 * 1024


# lengths around every 64-bit word boundary below 200 and at 2^12 and 2^15;
# 8193 bits make 129 words: two full bands of 64 rows plus one row
WORD_LENGTHS = list(range(1, 201)) + [4095, 4096, 4097, 8193, 32767, 32768, 32769]


def _dot_half_range_counts(memf):
    # the former per-n route, kept as a reference: two dot products per n
    size = len(memf)
    r2 = np.empty(size, dtype=np.int64)
    r3 = np.empty(size, dtype=np.int64)
    for n in range(size):
        rev = memf[n::-1]
        k2 = n // 2 + 1
        r2[n] = int(np.dot(memf[:k2], rev[:k2]))
        k3 = (n + 1) // 2
        r3[n] = int(np.dot(memf[:k3], rev[:k3])) if k3 else 0
    return r2, r3


class TestWordParallel:
    @pytest.mark.parametrize("fill", [0.0, 0.05, 0.5, 0.95, 1.0])
    def test_matches_naive(self, fill):
        rng = np.random.default_rng(int(fill * 100))
        for length in WORD_LENGTHS:
            mem = (rng.random(length) < fill).astype(np.uint8)
            got = _r1_word_parallel(mem)
            assert got.dtype == np.int64
            assert np.array_equal(got, core._r1_naive(mem)), length

    def test_read_only_membership(self):
        for a in mixed_pool(6, seed=4):
            for max_n in (0, 63, 64, 1000):
                mem = core.membership_array(a, max_n)
                assert not mem.flags.writeable
                assert np.array_equal(_r1_word_parallel(mem), core._r1_naive(mem))


class TestHalfRangeCounts:
    def test_matches_pointwise(self):
        for a in mixed_pool(8, seed=5):
            memf = core.membership_array(a, 150).astype(np.float64)
            r2, r3 = _half_range_counts(memf)
            assert r2.tolist() == [r2_at(a, n) for n in range(151)]
            assert r3.tolist() == [r3_at(a, n) for n in range(151)]

    def test_matches_dot_product_route(self):
        for a in periodic_pool(10, seed=7):
            memf = core.membership_array(a, 2000).astype(np.float64)
            for got, want in zip(_half_range_counts(memf), _dot_half_range_counts(memf)):
                assert np.array_equal(got, want)


def test_oracle_routes_use_no_r1_kernel(monkeypatch):
    # neither oracle may quietly become a second copy of the kernel it checks
    a = parse_set_spec("periodic:0110;10011")
    mem = core.membership_array(a, 3000)
    want = batch_table(a, 3000, "naive")

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle route reached an r1 kernel")

    for owner, name in (
        (np, "convolve"),
        (np.fft, "rfft"),
        (np.fft, "irfft"),
        (core, "_r1_naive"),
        (core, "_r1_fft"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    r2, r3 = _half_range_counts(mem.astype(np.float64))
    assert np.array_equal(r2, want.r2) and np.array_equal(r3, want.r3)
    assert np.array_equal(_r1_word_parallel(mem), want.r1)


class TestSerialization:
    @pytest.mark.parametrize("max_n", [0, 1, 4095, 4096, 4097, 9000])
    def test_csv_rows(self, max_n):
        t = batch_table(parse_set_spec("complement(pow2)"), max_n)
        rows = [f"{n},{t.r1[n]},{t.r2[n]},{t.r3[n]}\n" for n in range(max_n + 1)]
        assert t.to_csv() == "n,r1,r2,r3\n" + "".join(rows)

    def test_csv_shape(self):
        t = batch_table(parse_set_spec("nat"), 3)
        lines = t.to_csv().strip().split("\n")
        assert lines[0] == "n,r1,r2,r3"
        assert lines[1] == "0,1,1,0"
        assert len(lines) == 5

    def test_json_keys(self):
        t = batch_table(parse_set_spec("pow2"), 5)
        obj = json.loads(_json_document(t.to_json_obj()))
        assert set(obj) == {"set", "max_n", "r1", "r2", "r3"}
        assert obj["set"] == "pow2"
        assert obj["max_n"] == 5
        assert obj["r1"] == [0, 0, 0, 0, 1, 0]

    @pytest.mark.parametrize("max_n", [100, 9000])
    def test_spec_rendered_only_when_read(self, monkeypatch, max_n):
        # rendering a long finite: list costs about as much as the table itself
        render = FiniteSet.spec
        calls = []
        monkeypatch.setattr(FiniteSet, "spec", lambda self: calls.append(self) or render(self))
        a = FiniteSet(tuple(range(1, max_n, 3)))
        table = batch_table(a, max_n)
        report = find_violations(table, RepKind.R1)
        table.to_csv()
        report.to_csv()
        assert calls == []
        assert table.to_json_obj()["set"] == report.to_json_obj()["set"] == render(a)
        assert calls == [a, a]


WRITER_LENGTHS = (
    0,
    1,
    core._WRITER_CUTOVER - 1,
    core._WRITER_CUTOVER,
    core._WRITER_CUTOVER + 1,
    core._CSV_BLOCK - 1,
    core._CSV_BLOCK + 1,
    3 * core._CSV_BLOCK + 5,
)
# 0, and 10^k - 1 and 10^k for every k <= 18: each digit count and its edges
WRITER_VALUES = sorted({0} | {v for k in range(19) for v in (10**k - 1, 10**k)})


def first_difference(got, want):
    """None if the texts are equal, else where they first differ; pytest's
    own diff of two long texts takes minutes when every line differs."""
    if got == want:
        return None
    i = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    lo = max(i - 30, 0)
    return f"at {i}: {got[lo : i + 30]!r} != {want[lo : i + 30]!r}"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(WRITER_LENGTHS),
    st.integers(1, 4),
    st.lists(st.sampled_from(WRITER_VALUES), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
@example(3 * core._CSV_BLOCK + 5, 2, [9, 10], 0)
@example(core._CSV_BLOCK + 1, 1, [0, 10**18], 1)
def test_decimal_writer_matches_reference_formats(rows, k, values, seed):
    rng = np.random.default_rng(seed)
    assert_writer_matches_references([rng.choice(np.array(values, dtype=np.int64), rows) for _ in range(k)])


def assert_writer_matches_references(cols):
    """The writer's rows against `%d` rows, and each column's JSON array
    against `json.dumps` of its list."""
    lists = [c.tolist() for c in cols]
    values = tuple(np.column_stack(cols).ravel().tolist())
    want = (",".join(["%d"] * len(cols)) + "\n") * len(lists[0]) % values
    assert first_difference(core._decimal_rows(cols), want) is None
    obj = {"set": "s", "max_n": len(lists[0]), **{f"c{j}": c for j, c in enumerate(cols)}}
    with_lists = {"set": "s", "max_n": len(lists[0]), **{f"c{j}": v for j, v in enumerate(lists)}}
    assert first_difference(_json_document(obj), json.dumps(with_lists) + "\n") is None


def layout_cuts(cols, lo, hi):
    """Rows of [lo, hi) after the first whose digit counts differ, in some
    column, from those of the row before."""
    digits = np.array([[len(str(v)) for v in c[lo:hi].tolist()] for c in cols])
    return int(np.count_nonzero((digits[:, 1:] != digits[:, :-1]).any(axis=0)))


def monotone_columns(start, rows):
    """Four columns over n = start, start + 1, ...: near n = 10^5, n + 1
    gains a digit one row before n does, 2 * 10^5 - 1 - n loses one in the
    row where n gains one, and n // 7 keeps its five digits."""
    n = np.arange(start, start + rows, dtype=np.int64)
    return [n, n + 1, 2 * 10**5 - 1 - n, n // 7]


def flipping_column(rows, run):
    """9 and 10 alternating in runs of `run` rows: a new layout every run."""
    return np.where(np.arange(rows) // run % 2 == 1, 10, 9).astype(np.int64)


BLOCK = core._CSV_BLOCK
WRITER_RUN_CASES = {
    # 10^5 in the middle of the first block, and a 100-row last block
    "crossing-inside-block": (monotone_columns(10**5 - BLOCK // 2, BLOCK + 100), [(0, 2)]),
    # n gains and 2 * 10^5 - 1 - n loses a digit at row BLOCK; without n + 1
    # each block is one run
    "crossing-at-block-edge": (
        [c for j, c in enumerate(monotone_columns(10**5 - BLOCK, 2 * BLOCK)) if j != 1],
        [(0, 0), (BLOCK, 0)],
    ),
    "one-run-block": (monotone_columns(10**5, BLOCK), [(0, 0)]),
    "runs-of-min-run-rows": ([flipping_column(BLOCK, core._MIN_RUN)] * 2, [(0, BLOCK // core._MIN_RUN - 1)]),
    # runs of 8 rows average far below _MIN_RUN: the compress route
    "runs-of-8-rows": ([flipping_column(BLOCK + 40, 8), np.arange(BLOCK + 40) + 10**5], [(0, BLOCK // 8 - 1)]),
    # 10^5 at row 2B + 5 of a 17-row last block
    "crossing-in-short-last-block": (monotone_columns(10**5 - 2 * BLOCK - 5, 2 * BLOCK + 17), [(2 * BLOCK, 2)]),
}


@pytest.mark.parametrize("case", WRITER_RUN_CASES)
def test_decimal_writer_runs_match_reference_formats(case):
    cols, cuts = WRITER_RUN_CASES[case]
    for lo, want in cuts:  # the layout changes that put the case on its route
        assert layout_cuts(cols, lo, min(lo + BLOCK, len(cols[0]))) == want
    assert_writer_matches_references(cols)


def test_decimal_writer_scratch_is_bounded_by_its_block():
    """At the end the writer holds its block texts and their join, twice
    the text; above that it keeps at most a few blocks of scratch, however
    many rows it writes."""
    excess = []
    for rows in (2**16 + 1, 2**17 + 1):
        n = np.arange(rows, dtype=np.int64)
        cols = [n, n + 1, n // 2 + 1, (n + 1) // 2]
        width = sum(len(str(int(c[-1]))) + 1 for c in cols)
        tracemalloc.start()
        try:
            text = core._decimal_rows(cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess.append(peak - 2 * len(text))
        assert excess[-1] <= 4 * core._CSV_BLOCK * width
    assert excess[1] <= excess[0] + core._CSV_BLOCK * width
