from fractions import Fraction

import pytest

from repfn.core import RepKind, batch_table
from repfn.monotonicity import find_violations, natural_density_estimate
from repfn.pool import mixed_pool
from repfn.sets import complement, parse_set_spec
from repfn.witnesses import refute_strict_increase


def scan_steps(values, strict):
    """Oracle: re-derive the violation list with a plain loop."""
    out = []
    for n in range(len(values) - 1):
        if strict:
            if values[n + 1] <= values[n]:
                out.append(n)
        elif values[n] > values[n + 1]:
            out.append(n)
    return out


class TestFindViolations:
    def test_full_set_nonstrict_clean(self):
        t = batch_table(parse_set_spec("nat"), 10)
        assert find_violations(t, RepKind.R2, strict=False).violations.tolist() == []

    def test_full_set_strict_flat_steps(self):
        t = batch_table(parse_set_spec("nat"), 6)
        assert find_violations(t, RepKind.R2, strict=True).violations.tolist() == [0, 2, 4]

    def test_pow2_drops(self):
        t = batch_table(parse_set_spec("pow2"), 10)
        report = find_violations(t, RepKind.R1, strict=False)
        assert {4, 6} <= set(report.violations)
        assert report.violations.tolist() == [4, 6, 8]

    def test_matches_plain_scan(self):
        for a in mixed_pool(12, seed=21):
            t = batch_table(a, 300)
            for kind in RepKind:
                for strict in (False, True):
                    report = find_violations(t, kind, strict)
                    assert list(report.violations) == scan_steps(t.values(kind).tolist(), strict)
                    assert report.count == len(report.violations)
                    assert all(n < t.max_n for n in report.violations)

    def test_density_exact_rational(self):
        t = batch_table(parse_set_spec("pow2"), 10)
        report = find_violations(t, RepKind.R1, strict=False)
        assert report.density_upper == Fraction(3, 10)

    @pytest.mark.parametrize("strict", [False, True])
    def test_zero_length_table(self, strict):
        t = batch_table(parse_set_spec("nat"), 0)
        report = find_violations(t, RepKind.R1, strict)
        assert report.violations.tolist() == [] and report.density_upper == 0

    def test_json_shape(self):
        t = batch_table(parse_set_spec("pow2"), 10)
        obj = find_violations(t, RepKind.R1).to_json_obj()
        assert set(obj) == {"set", "kind", "strict", "max_n", "count", "density_upper", "violations"}
        assert obj["kind"] == "r1"
        assert obj["density_upper"] == {"num": 3, "den": 10}

    def test_csv_one_index_per_row(self):
        t = batch_table(parse_set_spec("pow2"), 10)
        assert find_violations(t, RepKind.R1).to_csv() == "n\n4\n6\n8\n"


class TestDensity:
    def test_pow2_window(self):
        est = natural_density_estimate(parse_set_spec("pow2"), 1024)
        assert est.member_count == 10
        assert est.ratio == Fraction(10, 1024)

    def test_full_set(self):
        est = natural_density_estimate(parse_set_spec("nat"), 7)
        assert est.ratio == 1

    def test_window_partition(self):
        for a in mixed_pool(10, seed=31):
            n = 97
            total = (
                natural_density_estimate(a, n).member_count
                + natural_density_estimate(complement(a), n).member_count
            )
            assert total == n

    def test_reads_the_descriptor(self):
        # no membership bytes: a window of 2^64 costs no more than a short one
        est = natural_density_estimate(parse_set_spec("complement(pow2)"), 2**64)
        assert est.member_count == 2**64 - 64

    def test_zero_not_counted(self):
        est = natural_density_estimate(parse_set_spec("finite:0"), 5)
        assert est.member_count == 0

    def test_requires_positive_window(self):
        with pytest.raises(ValueError):
            natural_density_estimate(parse_set_spec("nat"), 0)


class TestWindowStep:
    @staticmethod
    def step(spec, start, kind):
        table = batch_table(parse_set_spec(spec), 2 * start + 3)
        return refute_strict_increase(table, start, kind).witness

    def test_full_set_example(self):
        assert self.step("nat", 3, RepKind.R2) == 4

    def test_empty_set(self):
        assert self.step("empty", 0, RepKind.R2) == 0

    def test_missing_one(self):
        assert self.step("complement(finite:1)", 0, RepKind.R2) == 0

    def test_least_witness_in_window(self):
        for a in mixed_pool(8, seed=41):
            table = batch_table(a, 2 * 16 + 3)
            for start in (0, 1, 5, 16):
                for kind in (RepKind.R2, RepKind.R3):
                    w = refute_strict_increase(table, start, kind).witness
                    assert start <= w <= 2 * start + 2
                    v = batch_table(a, 2 * start + 3).values(kind)
                    assert v[w + 1] <= v[w]
                    assert all(v[n + 1] > v[n] for n in range(start, w))

    def test_longer_table_same_witness(self):
        for a in mixed_pool(8, seed=41):
            long_table = batch_table(a, 2 * 64 + 3)
            for start in (0, 1, 5, 16, 64):
                short_table = batch_table(a, 2 * start + 3)
                for kind in (RepKind.R2, RepKind.R3):
                    short = refute_strict_increase(short_table, start, kind)
                    assert refute_strict_increase(long_table, start, kind) == short

    def test_r1_rejected(self):
        with pytest.raises(ValueError):
            self.step("nat", 3, RepKind.R1)

    def test_short_table_rejected(self):
        table = batch_table(parse_set_spec("nat"), 2 * 3 + 2)
        with pytest.raises(ValueError):
            refute_strict_increase(table, 3, RepKind.R2)
        assert self.step("nat", 3, RepKind.R2) == 4  # a table ending at 2*start + 3 suffices
