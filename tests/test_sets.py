import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repfn.errors import EmptySetError, SetSpecError
from repfn.sets import (
    MAX_NESTING,
    FiniteSet,
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


DEEP = "complement(" * 65 + "pow2" + ")" * 65
LONG = "1" * 5000  # past Python's default int-string limit of 4300 digits

# message and position of each rejected spec
REJECTS = {
    "": ("empty set-spec (at position 0)", 0),
    "foo": ("expected a set expression (at position 0)", 0),
    "finite:5,3": ("finite set elements must be non-negative and strictly increasing", None),
    "finite:2,2": ("finite set elements must be non-negative and strictly increasing", None),
    "periodic:10;": ("period must be nonempty (at position 12)", 12),
    "periodic:12;1": ("expected ';' (at position 10)", 10),
    "complement(finite:2,5": ("expected ')' (at position 21)", 21),
    "complement finite:2": ("expected a set expression (at position 0)", 0),
    "shift(5,pow2)": ("shift offset 5 exceeds the inner set minimum 2", None),
    "shift(1,empty)": ("cannot shift an empty set (at position 0)", 0),
    "shift(,pow2)": ("expected a number (at position 6)", 6),
    "pow2junk": ("unexpected 'j' (at position 4)", 4),
    "finite:3,": ("unexpected ',' (at position 8)", 8),
    # \d takes exactly the digits int() reads; "²" passes str.isdigit only
    "finite:²": ("unexpected '²' (at position 7)", 7),
    "shift(²,pow2)": ("expected a number (at position 6)", 6),
    # the 65th prefix starts after 64 "complement(" prefixes of 11 characters
    DEEP: ("set-spec nested deeper than 64 levels (at position 704)", 704),
    "finite:" + LONG: ("number longer than 4300 digits (at position 7)", 7),
    "finite:3," + LONG: ("number longer than 4300 digits (at position 9)", 9),
    f"shift({LONG},pow2)": ("number longer than 4300 digits (at position 6)", 6),
}
REJECT_IDS = {
    DEEP: "complement-65-deep",
    "finite:" + LONG: "finite-5000-digits",
    "finite:3," + LONG: "finite-3-then-5000-digits",
    f"shift({LONG},pow2)": "shift-5000-digits",
}


def unrolled_bit(pre: str, per: str, n: int) -> bool:
    # independent oracle: literally unroll the bit sequence out to index n
    seq = pre
    while len(seq) <= n:
        seq += per
    return seq[n] == "1"


class TestMembership:
    def test_pow2_members(self):
        p = parse_set_spec("pow2")
        assert [n for n in range(20) if p.contains(n)] == [2, 4, 8, 16]
        assert contains(p, 2) and not contains(p, 1)

    def test_finite_singleton(self):
        assert [n for n in range(5) if parse_set_spec("finite:0").contains(n)] == [0]

    def test_complement_brute_force(self):
        a = parse_set_spec("complement(finite:2,5)")
        expected = set(range(101)) - {2, 5}
        assert {n for n in range(101) if a.contains(n)} == expected

    def test_complement_of_pow2_contains_zero(self):
        assert contains(parse_set_spec("complement(pow2)"), 0)

    def test_periodic_against_unroll(self):
        a = PeriodicSet("110", "10")
        for n in range(40):
            assert a.contains(n) == unrolled_bit("110", "10", n), n
        # the unrolled sequence is 1,1,0,1,0,1,0,... so index 5 is a member
        assert a.contains(5)

    def test_periodic_empty_preperiod(self):
        a = parse_set_spec("periodic:;10")
        assert [n for n in range(6) if a.contains(n)] == [0, 2, 4]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            contains(PowersOfTwo(), -1)

    def test_nat_and_empty(self):
        nat = parse_set_spec("nat")
        empty = parse_set_spec("empty")
        assert all(nat.contains(n) for n in range(50))
        assert not any(empty.contains(n) for n in range(50))


class TestMembershipBytes:
    @pytest.mark.parametrize(
        "spec",
        [
            "empty",
            "nat",
            "pow2",
            "finite:0,3,17",
            "periodic:110;10",
            "periodic:;0010",
            "complement(pow2)",
            "complement(periodic:1;01)",
            "shift(2,pow2)",
            "shift(1,complement(finite:0,3,8))",
        ],
    )
    def test_matches_contains(self, spec):
        a = parse_set_spec(spec)
        bts = a.membership_bytes(150)
        assert len(bts) == 151
        assert list(bts) == [int(a.contains(n)) for n in range(151)]

    @pytest.mark.parametrize(
        "spec",
        [
            "empty",
            "nat",
            "pow2",
            "finite:0,3,17",
            "periodic:110;10",
            "complement(pow2)",
            "shift(2,pow2)",
            "shift(3,finite:3,5,9)",
            "shift(1,periodic:01;1)",
            "shift(1,complement(finite:0,3,8))",
        ],
    )
    def test_members_match_contains(self, spec):
        a = parse_set_spec(spec)
        for max_n in range(70):
            assert a.members(max_n) == [n for n in range(max_n + 1) if a.contains(n)]


class TestParse:
    @pytest.mark.parametrize(
        "spec",
        [
            "empty",
            "nat",
            "pow2",
            "finite:1,2,9",
            "periodic:;1",
            "periodic:0110;01",
            "complement(finite:2,5)",
            "complement(periodic:;10)",
            "shift(2,pow2)",
            "shift(1,complement(finite:0,3,8))",
        ],
    )
    def test_round_trip(self, spec):
        a = parse_set_spec(spec)
        again = parse_set_spec(a.spec())
        assert again == a
        assert again.membership_bytes(500) == a.membership_bytes(500)

    def test_whitespace_not_significant(self):
        assert parse_set_spec(" complement( finite:2, 5 ) ") == parse_set_spec(
            "complement(finite:2,5)"
        )

    def test_sugar_forms(self):
        assert parse_set_spec("nat") == complement(FiniteSet())
        assert parse_set_spec("empty") == FiniteSet()

    @pytest.mark.parametrize("bad", REJECTS, ids=lambda s: REJECT_IDS.get(s, s))
    def test_rejects(self, bad):
        with pytest.raises(SetSpecError) as err:
            parse_set_spec(bad)
        assert (str(err.value), err.value.position) == REJECTS[bad]

    @pytest.mark.parametrize("prefix", ["complement(", "shift(0,"])
    def test_nesting_cap_is_inclusive(self, prefix):
        # 64 prefixes still parse, and both wrappers collapse to the atom
        spec = prefix * MAX_NESTING + "pow2" + ")" * MAX_NESTING
        assert parse_set_spec(spec) == PowersOfTwo()
        with pytest.raises(SetSpecError) as err:
            parse_set_spec(prefix + spec + ")")
        assert err.value.position == MAX_NESTING * len(prefix)

    def test_error_carries_position(self):
        with pytest.raises(SetSpecError) as err:
            parse_set_spec("complement(wat)")
        assert err.value.position == 11


class TestComplement:
    def test_double_complement_normalizes(self):
        a = parse_set_spec("periodic:01;110")
        assert complement(complement(a)) == a

    def test_double_complement_membership(self):
        for spec in ("pow2", "finite:1,4", "periodic:0;01"):
            a = parse_set_spec(spec)
            b = complement(complement(a))
            assert b.membership_bytes(10**4) == a.membership_bytes(10**4)

    def test_parse_normalizes_nested(self):
        assert parse_set_spec("complement(complement(pow2))") == PowersOfTwo()


class TestComplementPrefix:
    def test_cofinite_exhausts(self):
        # asking for more missing values than exist returns all of them
        p = complement_prefix(parse_set_spec("complement(finite:2,5)"), 3)
        assert p == (2, 5)

    def test_full_set_empty_prefix(self):
        assert complement_prefix(parse_set_spec("nat"), 4) == ()

    def test_pow2_complement(self):
        # 16, 32, 64, ... are missing too, but only 3 were asked for
        assert complement_prefix(parse_set_spec("complement(pow2)"), 3) == (2, 4, 8)

    def test_matches_direct_scan(self):
        for spec in ("pow2", "periodic:10;0110", "complement(finite:0,7)"):
            a = parse_set_spec(spec)
            missing = [n for n in range(61) if not a.contains(n)]
            assert list(complement_prefix(a, 5)) == missing[:5]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            complement_prefix(PowersOfTwo(), 0)


class TestShift:
    def test_elementwise(self):
        a = shift_down(parse_set_spec("finite:3,5,9"), 3)
        assert {n for n in range(10) if a.contains(n)} == {0, 2, 6}

    def test_zero_shift_identity(self):
        a = parse_set_spec("pow2")
        assert shift_down(a, 0) is a

    def test_shift_then_complement_prefix(self):
        a = parse_set_spec("complement(finite:0,3,8)")
        assert min_element(a) == 1
        shifted = shift_down(a, 1)
        assert complement_prefix(shifted, 2) == (2, 7)

    def test_membership_translation(self):
        a = parse_set_spec("periodic:0011;101")
        m = min_element(a)
        s = shift_down(a, m)
        for n in range(200):
            assert s.contains(n) == a.contains(n + m)

    def test_offset_beyond_minimum_rejected(self):
        with pytest.raises(SetSpecError):
            shift_down(PowersOfTwo(), 3)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            shift_down(FiniteSet(), 0)

    def test_nested_shifts_flatten(self):
        inner = parse_set_spec("finite:4,9")
        a = shift_down(shift_down(inner, 1), 2)
        assert a == parse_set_spec("shift(3,finite:4,9)")
        assert a.spec() == "shift(3,finite:4,9)"
        assert (a.offset, a.complemented) == (3, False)

    def test_membership_reads_only_the_window(self):
        # a window of 6 bytes, not the 10**7 below the offset
        a = parse_set_spec("shift(10000000,finite:10000000,10000003)")
        tracemalloc.start()
        try:
            bts = a.membership_bytes(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bts == bytes([1, 0, 0, 1, 0, 0])
        assert peak < 4096


class TestMinElement:
    def test_examples(self):
        assert min_element(parse_set_spec("pow2")) == 2
        assert min_element(parse_set_spec("finite:0,4")) == 0
        assert min_element(parse_set_spec("complement(finite:0,1,2)")) == 3

    def test_empty_variants(self):
        with pytest.raises(EmptySetError):
            min_element(FiniteSet())
        with pytest.raises(EmptySetError):
            min_element(PeriodicSet("00", "0"))
        with pytest.raises(EmptySetError):
            min_element(complement(PeriodicSet("", "1")))
        with pytest.raises(EmptySetError):
            min_element(parse_set_spec("complement(periodic:;1)"))

    def test_scan_bound_exhaustion(self):
        # the scan range is derived from the descriptor, so a long run of
        # leading non-members never exhausts it before the first member
        a = parse_set_spec("complement(finite:0,1,2,3,4,5,6,7,8,9)")
        assert min_element(a) == 10
        a = parse_set_spec("complement(finite:" + ",".join(map(str, range(100))) + ")")
        assert min_element(a) == 100

    def test_periodic_late_first_member(self):
        a = PeriodicSet("0000000", "0001")
        assert min_element(a) == 10

    def test_large_values_read_from_descriptor(self, monkeypatch):
        # a scan up to the first member would test membership about 10**18 times
        def no_scan(self, n):
            raise AssertionError("membership scan")

        monkeypatch.setattr(FiniteSet, "_has", no_scan)
        assert min_element(FiniteSet((10**18,))) == 10**18
        a = parse_set_spec("shift(1,finite:1000000000)")
        assert a == shift_down(FiniteSet((10**9,)), 1)
        assert min_element(a) == 10**9 - 1
        misses = complement_prefix(parse_set_spec("complement(finite:2,1000000001)"), 3)
        assert misses == (2, 10**9 + 1)


class TestDeepDescriptor:
    def test_every_method_returns_at_the_cap(self, monkeypatch):
        # alternating shifts and complements collapse neither way in the
        # spec, but fold into one offset and one flag on the atom
        a = PowersOfTwo()
        for level in range(MAX_NESTING):
            a = complement(a) if level % 2 else shift_down(a, min_element(a))
        assert parse_set_spec(a.spec()) == a
        assert a.spec().count("(") == MAX_NESTING
        bts = a.membership_bytes(200)
        assert list(bts) == [int(a.contains(n)) for n in range(201)]
        assert a.count(200) == sum(bts)
        assert a.members(200) == [n for n in range(201) if bts[n]]
        wide = a.membership_bytes(1 << 17)
        assert a.next_value(0) == wide.index(1) == 65535
        assert a.next_value(0, member=False) == wide.index(0)
        assert eventual_form(a) is None
        assert hash(a) == hash(parse_set_spec(a.spec()))
        calls = []
        real = PowersOfTwo._next

        def spy(self, x, member):
            calls.append(x)
            return real(self, x, member)

        monkeypatch.setattr(PowersOfTwo, "_next", spy)
        assert a.next_value(0) == 65535
        assert calls == [a.offset]  # one atom call for all 64 prefixes


# --- reference model: each prefix as a wrapper around its inner set ------

WINDOW = 256  # leading positions of the final set that are compared
SHIFT_CAP = 64  # largest drawn shift, so the shifts drop at most 4096 bits
ATOM_BITS = WINDOW + MAX_NESTING * SHIFT_CAP
FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def atom_bits(atom):
    """Memberships of 0 .. ATOM_BITS - 1, from the atom's definition."""
    if isinstance(atom, PeriodicSet):
        seq = atom.preperiod
        while len(seq) < ATOM_BITS:
            seq += atom.period
        return bytes(c == "1" for c in seq[:ATOM_BITS])
    if isinstance(atom, PowersOfTwo):
        marks = {1 << j for j in range(1, ATOM_BITS.bit_length())}
    else:
        marks = set(atom.elements)
    return bytes(n in marks for n in range(ATOM_BITS))


def wrapper_spec(tree):
    """The spec text of a nested ("complement", inner) / ("shift", inner, k) tree."""
    if isinstance(tree, str):
        return tree
    if tree[0] == "complement":
        return "nat" if tree[1] == "empty" else f"complement({wrapper_spec(tree[1])})"
    return f"shift({tree[2]},{wrapper_spec(tree[1])})"


def wrapper_model(atom, prefixes):
    """Bits, wrapper tree and eventual form of the prefixes (innermost first;
    None complements, k shifts by min(k, the least member)) around atom, the
    way the wrapper classes built them: a complement flips every bit and
    keeps the form, a shift drops the first k bits and lowers q by k."""
    bits, tree = atom_bits(atom), atom.spec()
    if isinstance(atom, PowersOfTwo):
        form = None
    elif isinstance(atom, PeriodicSet):
        form = len(atom.preperiod), len(atom.period)
    else:
        form = (atom.elements[-1] + 1 if atom.elements else 0), 1
    applied = []
    for p in prefixes:
        if p is None:
            bits = bits.translate(FLIP)
            tree = tree[1] if tree[0] == "complement" else ("complement", tree)
        else:
            if bits.find(1) == -1:
                continue  # no member seen, so no shift is known to be valid
            p = min(p, bits.find(1))
            bits = bits[p:]
            if p:
                tree = ("shift", tree[1], tree[2] + p) if tree[0] == "shift" else ("shift", tree, p)
                form = form and (max(form[0] - p, 0), form[1])
        applied.append(p)
    return bits, tree, form, applied


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 300), unique=True, max_size=8).map(lambda v: FiniteSet(tuple(sorted(v)))),
        st.builds(PeriodicSet, st.text("01", max_size=8), st.text("01", min_size=1, max_size=8)),
        st.just(PowersOfTwo()),
    ),
    st.lists(st.none() | st.integers(0, SHIFT_CAP), max_size=MAX_NESTING),
    st.integers(1, WINDOW - 1),
    st.integers(0, WINDOW - 1),
)
@example(PowersOfTwo(), [2, None, 1], 2, 40)  # shift(1,complement(shift(2,pow2)))
def test_folded_descriptor_matches_wrapper_model(atom, prefixes, start, max_n):
    bits, tree, form, applied = wrapper_model(atom, prefixes)
    a = atom
    for p in applied:
        a = complement(a) if p is None else shift_down(a, p)
    spec = wrapper_spec(tree)
    assert a.spec() == spec
    again = parse_set_spec(spec)
    assert again == a and hash(again) == hash(a)
    assert [a.contains(n) for n in range(WINDOW)] == list(map(bool, bits[:WINDOW]))
    for k in range(WINDOW):
        for member in (True, False):
            i = bits.find(int(member), k)
            got = a.next_value(k, member)
            assert got == i if i != -1 else got is None or got >= len(bits), (k, member)
    assert a.count(max_n) == sum(bits[: max_n + 1])
    assert a.members(max_n) == [n for n in range(max_n + 1) if bits[n]]
    start = min(start, max_n + 1)
    assert a.membership_bytes(max_n, start) == bits[start : max_n + 1]
    # core._plan reads the pair for its route and its budget charge
    assert eventual_form(a) == form
