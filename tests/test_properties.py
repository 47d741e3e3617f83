from itertools import accumulate

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repfn.core import (
    FFT_CUTOVER,
    RepKind,
    batch_table,
    r1_array_via_complement,
    r1_at,
    r1_via_complement,
    r2_at,
    r3_at,
    sparse_r1,
)
from repfn.diagram import render_diagram
from repfn.errors import EmptySetError, InsufficientComplementError, SetSpecError
from repfn.sets import (
    MAX_NESTING,
    FiniteSet,
    IntegerSet,
    PeriodicSet,
    PowersOfTwo,
    complement,
    complement_prefix,
    contains,
    eventual_form,
    min_element,
    parse_set_spec,
    shift_down,
)
from repfn.witnesses import decrease_case_resolvable, predict_r2_decrease

COMMON = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

finite_sets = st.lists(st.integers(0, 120), unique=True, max_size=8).map(
    lambda v: FiniteSet(tuple(sorted(v)))
)
periodic_sets = st.builds(
    PeriodicSet,
    st.text(alphabet="01", max_size=8),
    st.text(alphabet="01", min_size=1, max_size=8),
)
base_sets = st.one_of(finite_sets, periodic_sets, st.just(PowersOfTwo()))


@st.composite
def integer_sets(draw):
    a = draw(base_sets)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["complement", "shift"]))
        if op == "complement":
            a = complement(a)
        else:
            try:
                m = min_element(a)
            except Exception:
                continue
            a = shift_down(a, draw(st.integers(0, min(m, 40))))
    return a


@COMMON
@given(integer_sets())
def test_spec_round_trip(a):
    again = parse_set_spec(a.spec())
    assert again == a
    assert again.membership_bytes(300) == a.membership_bytes(300)


# pieces of specs, right and wrong, including a digit that str.isdigit takes
# and int() does not
SPEC_TOKENS = [
    "nat", "empty", "pow2", "finite:", "periodic:", "complement(", "shift(",
    ")", "(", ",", ";", "0", "1", "7", "12", " ", "x", "\u00b2",
]
spec_pieces = st.lists(st.sampled_from(SPEC_TOKENS), max_size=16).map("".join)


@st.composite
def nested_specs(draw):
    prefix = draw(st.sampled_from(["complement(", "shift(0,", "shift(1,", "complement(shift(0,"]))
    depth = draw(st.integers(0, 2 * MAX_NESTING))
    closing = draw(st.integers(0, depth * prefix.count("(")))
    return prefix * depth + draw(spec_pieces) + ")" * closing


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="natemypow2fiecrdl:();,01 \u00b2"), spec_pieces, nested_specs()))
def test_parse_returns_a_set_or_a_spec_error(text):
    try:
        a = parse_set_spec(text)
    except SetSpecError:
        return
    assert isinstance(a, IntegerSet)


@COMMON
@given(integer_sets(), st.integers(0, 120), st.integers(0, 121))
def test_membership_window_is_a_slice(a, max_n, start):
    start = min(start, max_n + 1)
    assert a.membership_bytes(max_n, start) == a.membership_bytes(max_n)[start:]


@COMMON
@given(integer_sets())
def test_double_complement_is_identity(a):
    b = complement(complement(a))
    assert b == a


@COMMON
@given(integer_sets(), st.integers(0, 250))
def test_complement_flips_membership(a, n):
    assert contains(complement(a), n) == (not contains(a, n))


@COMMON
@given(integer_sets())
def test_membership_bytes_agree_with_contains(a):
    bts = a.membership_bytes(120)
    assert all(bool(bts[n]) == a.contains(n) for n in range(121))


@COMMON
@given(integer_sets())
def test_count_matches_membership_bytes(a):
    assert [a.count(n) for n in range(301)] == list(accumulate(a.membership_bytes(300)))


@COMMON
@given(integer_sets(), st.integers(0, 120))
def test_ordered_unordered_decomposition(a, n):
    r1, r2, r3 = r1_at(a, n), r2_at(a, n), r3_at(a, n)
    diag = 1 if n % 2 == 0 and a.contains(n // 2) else 0
    assert r1 == r2 + r3
    assert r2 - r3 == diag
    assert r1 == 2 * r3 + diag


@COMMON
@given(integer_sets(), st.integers(0, 80))
def test_shift_identity_pointwise(a, n):
    try:
        m = min_element(a)
    except Exception:
        return
    s = shift_down(a, m)
    for kind, fn in ((RepKind.R1, r1_at), (RepKind.R2, r2_at), (RepKind.R3, r3_at)):
        assert fn(a, 2 * m + n) == fn(s, n), kind


# Past every drawn descriptor: a lookup from k <= 80 through at most two
# shifts of at most 40 each starts below 161; finite elements are at most
# 120, preperiods and periods have at most 8 bits, and the next power of
# two from there is at most 256.  So any member or missing value at or above
# such k, and the first six missing values of any drawn set, lie below it.
SCAN_PAST = 512


@COMMON
@given(integer_sets(), st.integers(0, 80), st.booleans())
def test_next_value_matches_scan(a, k, member):
    scan = next((n for n in range(k, SCAN_PAST) if a.contains(n) == member), None)
    assert a.next_value(k, member) == scan


@COMMON
@given(integer_sets(), st.integers(1, 6))
def test_complement_prefix_matches_scan(a, count):
    # a result shorter than count must mean nothing else is missing
    missing = [n for n in range(SCAN_PAST) if not a.contains(n)]
    assert list(complement_prefix(a, count)) == missing[:count]


@COMMON
@given(integer_sets(), st.integers(0, 90))
def test_sparse_routes_match_naive(a, max_n):
    r1 = batch_table(a, max_n, "naive").r1
    assert np.array_equal(r1_array_via_complement(a, max_n), r1)
    assert sparse_r1(a, max_n) == {int(n): int(r1[n]) for n in np.flatnonzero(r1)}


@COMMON
@given(integer_sets(), st.integers(0, 120))
def test_scalar_complement_route_matches_pointwise(a, n):
    assert r1_via_complement(a, n) == r1_at(a, n)


@settings(max_examples=25, deadline=None)
@given(integer_sets(), st.sampled_from(["naive", "auto"]))
def test_batch_matches_pointwise_small(a, strategy):
    t = batch_table(a, 48, strategy)
    for n in range(49):
        assert int(t.r1[n]) == r1_at(a, n)
        assert int(t.r2[n]) == r2_at(a, n)
        assert int(t.r3[n]) == r3_at(a, n)


@settings(max_examples=40, deadline=None)
@given(integer_sets(), st.integers(FFT_CUTOVER + 1, 3 * FFT_CUTOVER))
def test_auto_matches_naive_above_cutover(a, max_n):
    got, want = batch_table(a, max_n), batch_table(a, max_n, "naive")
    for kind in RepKind:
        assert np.array_equal(got.values(kind), want.values(kind))


@COMMON
@given(integer_sets())
def test_eventual_form_is_a_period_of_the_set(a):
    form = eventual_form(a)
    assert (form is None) == ("pow2" in a.spec())
    if form is not None:
        q, p = form
        mem = a.membership_bytes(q + p + 300)
        assert mem[q + p :] == mem[q : len(mem) - p]


@COMMON
@given(integer_sets(), st.integers(0, 60))
def test_ascii_columns_count_r1(a, max_sum):
    rows = render_diagram(a, max_sum, "ascii").splitlines()
    counts = [sum(row[n] == "*" for row in rows) for n in range(max_sum + 1)]
    assert counts == batch_table(a, max_sum, "naive").r1.tolist()


@COMMON
@given(integer_sets())
def test_resolvable_exactly_when_predictor_returns(a):
    if decrease_case_resolvable(a):
        w = predict_r2_decrease(a)
        assert w.before > w.after
        return
    try:
        min_element(a)
    except EmptySetError:
        with pytest.raises(EmptySetError):
            predict_r2_decrease(a)
        return
    with pytest.raises(InsufficientComplementError):
        predict_r2_decrease(a)
