import tracemalloc
from xml.etree import ElementTree

import pytest

from repfn import diagram
from repfn.core import DEFAULT_MEMORY_BUDGET, batch_table
from repfn.diagram import _point_count, diagram_points, render_diagram, svg_column_counts
from repfn.errors import BudgetExceededError
from repfn.pool import mixed_pool
from repfn.sets import parse_set_spec


def elementtree_svg(points, max_sum):
    # the former writer, kept as the reference the string writer must match
    side = 2 * diagram._MARGIN + max_sum * diagram._CELL
    root = ElementTree.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(side),
        height=str(side),
        viewBox=f"0 0 {side} {side}",
    )
    for x, y in points:
        ElementTree.SubElement(
            root,
            "circle",
            cx=str(diagram._MARGIN + x * diagram._CELL),
            cy=str(diagram._MARGIN + (max_sum - y) * diagram._CELL),
            r=str(diagram._RADIUS),
        )
    return ElementTree.tostring(root, encoding="unicode") + "\n"


def all_pairs_points(a, max_sum):
    # the former diagram_points, visiting every (n, x) pair
    mem = a.membership_bytes(max_sum)
    points = []
    for n in range(max_sum + 1):
        for x in range(n + 1):
            if mem[x] and mem[n - x]:
                points.append((n, x))
    return points


def grid_ascii(points, max_sum):
    # the former ASCII writer, filling an (N + 1)^2 grid from the points
    grid = [["."] * (max_sum + 1) for _ in range(max_sum + 1)]
    for x, y in points:
        grid[max_sum - y][x] = "*"
    return "\n".join("".join(row) for row in grid) + "\n"


# sets and sizes on which the renderers must match the former ones byte for byte
REFERENCE_SETS = mixed_pool(10, seed=5) + [
    parse_set_spec(spec) for spec in ("empty", "nat", "pow2", "complement(pow2)")
]
REFERENCE_SUMS = (0, 1, 7, 41, 150)


def ascii_column_counts(text, max_sum):
    rows = text.strip("\n").split("\n")
    return [sum(row[x] == "*" for row in rows) for x in range(max_sum + 1)]


class TestPoints:
    def test_full_set_columns(self):
        pts = diagram_points(parse_set_spec("nat"), 4)
        for n in range(5):
            assert sum(1 for x, _ in pts if x == n) == n + 1

    def test_empty_set(self):
        assert diagram_points(parse_set_spec("empty"), 6) == []

    def test_point_count_matches_points(self):
        for a in mixed_pool(30, seed=5):
            for max_sum in (0, 1, 17, 60):
                members = a.members(max_sum)
                assert _point_count(members, max_sum) == len(diagram_points(a, max_sum))

    def test_matches_all_pairs(self):
        for a in REFERENCE_SETS:
            for max_sum in REFERENCE_SUMS:
                assert diagram_points(a, max_sum) == all_pairs_points(a, max_sum), (a.spec(), max_sum)

    def test_column_counts_match_r1(self):
        a = parse_set_spec("complement(finite:1)")
        pts = diagram_points(a, 4)
        counts = [sum(1 for x, _ in pts if x == n) for n in range(5)]
        assert counts == [1, 0, 2, 2, 3]


class TestAscii:
    def test_grid_shape(self):
        text = render_diagram(parse_set_spec("nat"), 4, "ascii")
        rows = text.strip("\n").split("\n")
        assert len(rows) == 5 and all(len(r) == 5 for r in rows)

    def test_counts(self):
        text = render_diagram(parse_set_spec("complement(finite:1)"), 4, "ascii")
        assert ascii_column_counts(text, 4) == [1, 0, 2, 2, 3]

    def test_removed_value_blanks_its_row(self):
        # y axis points up: row for a = 1 is the second row from the bottom
        text = render_diagram(parse_set_spec("complement(finite:1)"), 4, "ascii")
        rows = text.strip("\n").split("\n")
        assert "*" not in rows[-2]

    def test_matches_grid_writer(self):
        for a in REFERENCE_SETS:
            for max_sum in REFERENCE_SUMS:
                expected = grid_ascii(all_pairs_points(a, max_sum), max_sum)
                assert render_diagram(a, max_sum, "ascii") == expected, (a.spec(), max_sum)

    def test_origin_bottom_left(self):
        text = render_diagram(parse_set_spec("finite:0"), 2, "ascii")
        rows = text.strip("\n").split("\n")
        assert rows[-1][0] == "*"  # the pair (0, 0) sits at the origin
        assert sum(row.count("*") for row in rows) == 1


class TestSvg:
    def test_well_formed_and_counts(self):
        for a in mixed_pool(6, seed=3):
            svg = render_diagram(a, 30, "svg")
            ElementTree.fromstring(svg)
            expected = batch_table(a, 30, "naive").r1.tolist()
            assert svg_column_counts(svg, 30) == expected

    def test_empty_set_has_no_circles(self):
        svg = render_diagram(parse_set_spec("empty"), 5, "svg")
        assert svg_column_counts(svg, 5) == [0] * 6

    def test_matches_elementtree_writer(self):
        for a in REFERENCE_SETS:
            for max_sum in REFERENCE_SUMS:
                expected = elementtree_svg(all_pairs_points(a, max_sum), max_sum)
                assert render_diagram(a, max_sum, "svg") == expected, (a.spec(), max_sum)


class TestBudget:
    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            render_diagram(parse_set_spec("nat"), 100, "ascii", budget=100)

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    @pytest.mark.parametrize("spec", ["nat", "pow2", "complement(pow2)", "periodic:1;10", "empty"])
    @pytest.mark.parametrize("max_sum", [0, 7, 41, 150, 300, 512])
    def test_estimate_covers_traced_peak(self, fmt, spec, max_sum):
        a = parse_set_spec(spec)
        tracemalloc.start()
        try:
            render_diagram(a, max_sum, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = diagram._estimate_bytes(fmt, a, max_sum, DEFAULT_MEMORY_BUDGET)
        assert estimate >= peak
        if max_sum >= 150:
            assert estimate <= 2 * peak

    @pytest.mark.parametrize("spec", ["pow2", "empty"])
    def test_sparse_svg_estimate_covers_traced_peak(self, spec):
        # the membership bytes are live twice, so one byte per integer
        # would fall short of the peak here
        a = parse_set_spec(spec)
        tracemalloc.start()
        try:
            render_diagram(a, 100000, "svg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diagram._estimate_bytes("svg", a, 100000, DEFAULT_MEMORY_BUDGET) >= peak

    def test_bad_format(self):
        with pytest.raises(ValueError):
            render_diagram(parse_set_spec("nat"), 4, "png")
