import tracemalloc

import numpy as np
import pytest

from repfn import witnesses
from repfn.core import RepKind, batch_table, r1_array_via_complement, r1_at, r2_at, sparse_r1
from repfn.errors import BudgetExceededError, EmptySetError, InsufficientComplementError
from repfn.monotonicity import find_violations
from repfn.pool import decrease_pool, mixed_pool
from repfn.sets import FiniteSet, PowersOfTwo, parse_set_spec, shift_down
from repfn.witnesses import (
    DecreaseCase,
    almost_monotone_set,
    block_value,
    check_block_values,
    decrease_case_resolvable,
    first_r2_decrease_bruteforce,
    predict_r2_decrease,
    refute_strict_increase,
    violation_bound,
)


class TestConstructions:
    def test_variant_one_is_powers(self):
        a = almost_monotone_set(1)
        assert a.contains(8) and not a.contains(9) and not a.contains(1)

    def test_variant_two_contains_zero(self):
        assert almost_monotone_set(2).contains(0)

    def test_variant_two_misses_ten_below_1024(self):
        a = almost_monotone_set(2)
        assert sum(1 for n in range(1, 1025) if not a.contains(n)) == 10

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            almost_monotone_set(3)


class TestViolationCountBound:
    def test_known_values(self):
        assert violation_bound(1, 1024) == 100
        assert violation_bound(2, 1024) == 171
        assert violation_bound(1, 1) == 0
        assert violation_bound(1, 2**20) == 400
        assert violation_bound(2, 2**20) == 531

    def test_monotone_in_n(self):
        for variant in (1, 2):
            values = [violation_bound(variant, n) for n in range(1, 300)]
            assert all(x <= y for x, y in zip(values, values[1:]))


class TestSparseProfile:
    def test_matches_pointwise(self):
        a = PowersOfTwo()
        profile = sparse_r1(a, 300)
        for n in range(301):
            assert profile.get(n, 0) == r1_at(a, n)

    def test_every_sum_is_even(self):
        assert all(n % 2 == 0 for n in sparse_r1(PowersOfTwo(), 10**4))


class TestBlockValues:
    def test_spot_values_against_enumeration(self):
        a = almost_monotone_set(2)
        assert block_value(11, 3) == 6 == r1_at(a, 11)
        assert block_value(10, 3) == 7 == r1_at(a, 10)
        # right endpoint of each block: the removed power itself
        assert block_value(8, 2) == 4 == r1_at(a, 8)
        assert block_value(4, 1) == 2 == r1_at(a, 4)

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6, 7])
    def test_whole_blocks(self, j):
        assert check_block_values(j)

    def test_out_of_block_rejected(self):
        with pytest.raises(ValueError):
            block_value(9, 2)


class TestPredictDecrease:
    def test_case_c1_odd(self):
        w = predict_r2_decrease(parse_set_spec("complement(finite:1)"))
        assert (w.n, w.case, w.before, w.after) == (0, DecreaseCase.C1_ODD, 1, 0)

    def test_case_c2_odd(self):
        w = predict_r2_decrease(parse_set_spec("complement(finite:2,5)"))
        assert (w.n, w.case, w.before, w.after) == (4, DecreaseCase.C2_ODD, 2, 1)

    def test_case_c3_adjacent(self):
        w = predict_r2_decrease(parse_set_spec("complement(finite:2,4,5)"))
        assert (w.n, w.case, w.before, w.after) == (4, DecreaseCase.C3_ADJACENT, 1, 0)

    def test_case_c3_gap(self):
        w = predict_r2_decrease(parse_set_spec("complement(finite:2,4,8)"))
        assert (w.n, w.case, w.before, w.after) == (6, DecreaseCase.C3_GAP, 3, 2)

    def test_case_shifted(self):
        w = predict_r2_decrease(parse_set_spec("complement(finite:0,3,8)"))
        assert (w.n, w.case, w.before, w.after) == (8, DecreaseCase.SHIFTED, 3, 2)
        assert w.shift == 1
        assert w.c_values == (2, 7)
        assert w.inner is not None
        assert (w.inner.case, w.inner.n) == (DecreaseCase.C2_ODD, 6)
        assert w.n == 2 * w.shift + w.inner.n

    def test_witness_location_matches_case(self):
        for a in decrease_pool(60, seed=77):
            w = predict_r2_decrease(a)
            c = w.c_values
            if w.case is DecreaseCase.C1_ODD:
                assert w.n == c[0] - 1
            elif w.case is DecreaseCase.C2_ODD:
                assert w.n == c[1] - 1
            elif w.case is DecreaseCase.C3_ADJACENT:
                assert w.n == c[1]
            elif w.case is DecreaseCase.C3_GAP:
                assert w.n == c[0] + c[1]
            else:
                assert w.inner is not None and w.n == 2 * w.shift + w.inner.n

    def test_full_set_insufficient(self):
        with pytest.raises(InsufficientComplementError):
            predict_r2_decrease(parse_set_spec("nat"))

    def test_two_even_misses_insufficient(self):
        with pytest.raises(InsufficientComplementError):
            predict_r2_decrease(parse_set_spec("complement(finite:2,4)"))

    def test_shifted_full_set_insufficient(self):
        # {3, 4, 5, ...} shifts down to the full set
        with pytest.raises(InsufficientComplementError):
            predict_r2_decrease(parse_set_spec("complement(finite:0,1,2)"))

    def test_scan_bound_hides_second_miss(self):
        # the second missing value lies far past the first; the descriptor
        # supplies it without a caller-chosen scan range
        a = parse_set_spec("complement(finite:2,601)")
        w = predict_r2_decrease(a)
        assert w.n == 600 and w.case is DecreaseCase.C2_ODD
        assert (w.before, w.after) == (r2_at(a, 600), r2_at(a, 601))

    def test_budget_checked_before_verifying(self):
        # c2 = 10**9 + 1 puts the witness at 10**9, past any table the default
        # budget allows; the case split itself reads no membership bytes
        a = parse_set_spec("complement(finite:2,1000000001)")
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                predict_r2_decrease(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(BudgetExceededError):
            predict_r2_decrease(parse_set_spec("complement(finite:2,601)"), memory_budget=10000)

    def test_empty_set(self):
        with pytest.raises(EmptySetError):
            predict_r2_decrease(parse_set_spec("empty"))

    def test_resolvable_mirrors_predictor(self):
        for spec, expected in [
            ("nat", False),
            ("complement(finite:2,4)", False),
            ("complement(finite:0,1,2)", False),
            ("complement(finite:1)", True),
            ("complement(finite:0,3,8)", True),
            ("pow2", True),
        ]:
            assert decrease_case_resolvable(parse_set_spec(spec)) == expected

    def test_verified_decrease_and_oracle_order(self):
        for a in decrease_pool(80, seed=13):
            w = predict_r2_decrease(a)
            assert r2_at(a, w.n) == w.before
            assert r2_at(a, w.n + 1) == w.after
            assert w.before > w.after
            first = first_r2_decrease_bruteforce(a, w.n + 1)
            assert first is not None and first <= w.n

    def test_one_table_per_witness(self, monkeypatch):
        calls = []

        def counting_batch_table(*args, **kwargs):
            calls.append(args)
            return batch_table(*args, **kwargs)

        monkeypatch.setattr(witnesses, "batch_table", counting_batch_table)
        w = predict_r2_decrease(PowersOfTwo())
        assert w.case is DecreaseCase.SHIFTED
        assert len(calls) == 1

    def test_shifted_inner_values_are_shifted_r2(self):
        found = [predict_r2_decrease(a) for a in decrease_pool(500)]
        shifted = [w for w in found if w.case is DecreaseCase.SHIFTED]
        assert shifted
        for w in shifted:
            inner_set = shift_down(parse_set_spec(w.set_spec), w.shift)
            assert w.inner.set_spec == inner_set.spec()
            assert (w.inner.before, w.inner.after) == (
                r2_at(inner_set, w.inner.n),
                r2_at(inner_set, w.inner.n + 1),
            )

    def test_json_shape(self):
        w = predict_r2_decrease(parse_set_spec("complement(finite:0,3,8)"))
        obj = w.to_json_obj()
        assert set(obj) == {"set", "n", "case_trace", "c_values", "before", "after", "shift", "inner"}
        assert obj["inner"]["case_trace"] == "C2_ODD"


class TestBruteforceFirstDecrease:
    def test_known_values(self):
        assert first_r2_decrease_bruteforce(parse_set_spec("complement(finite:1)"), 50) == 0
        assert first_r2_decrease_bruteforce(parse_set_spec("nat"), 50) is None
        assert first_r2_decrease_bruteforce(parse_set_spec("complement(finite:2,4,8)"), 100) == 6

    def test_matches_table_scan(self):
        a = parse_set_spec("periodic:1;10")
        t = batch_table(a, 60)
        expected = next((n for n in range(60) if t.r2[n] > t.r2[n + 1]), None)
        assert first_r2_decrease_bruteforce(a, 60) == expected


class TestRefuteStrictIncrease:
    def test_full_set_r3(self):
        ref = refute_strict_increase(batch_table(parse_set_spec("nat"), 3), 0, RepKind.R3)
        assert ref.witness == 1
        assert ref.value_cap == 2

    def test_variant_two_window(self):
        ref = refute_strict_increase(batch_table(almost_monotone_set(2), 13), 5, RepKind.R2)
        assert 5 <= ref.witness <= 12

    def test_empty_set(self):
        ref = refute_strict_increase(batch_table(parse_set_spec("empty"), 17), 7, RepKind.R2)
        assert ref.witness == 7
        assert ref.end_value == 0

    def test_cap_holds_across_pool(self):
        for a in mixed_pool(12, seed=55):
            table = batch_table(a, 23)
            for start in (0, 3, 10):
                for kind in (RepKind.R2, RepKind.R3):
                    ref = refute_strict_increase(table, start, kind)
                    assert start <= ref.witness <= 2 * start + 2
                    assert ref.end_value <= ref.value_cap == start + 2

    def test_r1_rejected(self):
        with pytest.raises(ValueError):
            refute_strict_increase(batch_table(parse_set_spec("nat"), 7), 2, RepKind.R1)


class TestBoundsAgainstReports:
    @pytest.mark.parametrize("max_n", [2**10, 2**12])
    def test_variant_one_bound_via_table(self, max_n):
        a = almost_monotone_set(1)
        t = batch_table(a, max_n)
        report = find_violations(t, RepKind.R1, strict=False)
        bound = violation_bound(1, max_n)
        assert report.count <= bound
        assert int(np.count_nonzero(t.r1)) <= bound

    @pytest.mark.parametrize("max_n", [2**10, 2**12])
    def test_variant_two_bound_via_table(self, max_n):
        a = almost_monotone_set(2)
        t = batch_table(a, max_n)
        report = find_violations(t, RepKind.R1, strict=True)
        assert report.count <= violation_bound(2, max_n)

    @pytest.mark.parametrize("max_n", [2**10, 2**14, 2**17, 2**20])
    def test_variant_one_bound_via_sparse_profile(self, max_n):
        profile = sparse_r1(almost_monotone_set(1), max_n)
        bound = violation_bound(1, max_n)
        assert len(profile) <= bound
        violations = sum(
            1 for n in profile if n < max_n and profile.get(n + 1, 0) < profile[n]
        )
        assert violations <= bound

    @pytest.mark.parametrize("max_n", [2**10, 2**14, 2**17, 2**20])
    def test_variant_two_bound_via_complement_path(self, max_n):
        r1 = r1_array_via_complement(almost_monotone_set(2), max_n)
        failures = int(np.count_nonzero(r1[1:] <= r1[:-1]))
        assert failures <= violation_bound(2, max_n)


class TestPartialFamilyBlocks:
    @pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
    def test_block_value_with_fewer_powers_removed(self, j):
        # with only the first j-1 powers removed, the whole block (2^j, 2^{j+1}]
        # sits above every pair sum of the removed values
        removed = ",".join(str(2**i) for i in range(1, j))
        a = parse_set_spec(f"complement(finite:{removed})")
        t = batch_table(a, 2 ** (j + 1))
        for n in range(2**j + 1, 2 ** (j + 1) + 1):
            assert int(t.r1[n]) == n + 1 - 2 * (j - 1)
