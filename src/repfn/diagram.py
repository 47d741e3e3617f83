"""Sum diagrams: every ordered member pair (a, b) plotted at (a + b, a).

All pairs with the same sum n land on the vertical line x = n, so the
column at x = n carries exactly r1(A, n) points.  Removing an integer c
from the set blanks the horizontal line y = c and one falling diagonal.
The x axis points right and the y axis points up, origin at bottom left.
"""

from __future__ import annotations

from xml.etree import ElementTree

import numpy as np

from .core import DEFAULT_MEMORY_BUDGET
from .errors import BudgetExceededError
from .sets import IntegerSet

__all__ = ["render_diagram", "diagram_points"]

_CELL = 12  # svg lattice spacing in pixels
_MARGIN = 10
_RADIUS = 3
# Budget terms above the tracemalloc peaks of render_diagram (max_sum up to
# 600): about 6 KB of first-call scratch; per ascii cell, a grid slot, two
# text characters and a share of the row headers (10.2 bytes); per point,
# an (n, x) tuple in a list (at most 83 bytes) or an svg circle element with
# its attributes and serialised text (at most 850).
_FIXED_BYTES = 8192
_CELL_BYTES = {"ascii": 12, "svg": 0}
_POINT_BYTES = {"ascii": 96, "svg": 1024}


def diagram_points(a: IntegerSet, max_sum: int) -> list[tuple[int, int]]:
    """Lattice points (a + b, a) for ordered member pairs with a + b <= max_sum."""
    if max_sum < 0:
        raise ValueError("max_sum must be non-negative")
    mem = a.membership_bytes(max_sum)
    points = []
    for n in range(max_sum + 1):
        for x in range(n + 1):
            if mem[x] and mem[n - x]:
                points.append((n, x))
    return points


def render_diagram(
    a: IntegerSet,
    max_sum: int,
    fmt: str = "svg",
    *,
    budget: int = DEFAULT_MEMORY_BUDGET,
) -> str:
    """Render the sum diagram as an SVG document or an ASCII grid."""
    if fmt not in ("svg", "ascii"):
        raise ValueError(f"unknown diagram format {fmt!r}")
    if max_sum < 0:
        raise ValueError("max_sum must be non-negative")
    estimate = _estimate_bytes(fmt, a, max_sum, budget)
    if estimate > budget:
        raise BudgetExceededError(
            f"diagram of {a.spec()} up to {max_sum} needs about {estimate} bytes",
            budget=budget,
        )
    points = diagram_points(a, max_sum)
    if fmt == "ascii":
        return _render_ascii(points, max_sum)
    return _render_svg(points, max_sum)


def _estimate_bytes(fmt: str, a: IntegerSet, max_sum: int, budget: int) -> int:
    # counting the points takes the membership bytes and two int64 vectors,
    # so a count over budget is refused before it is taken
    before = _FIXED_BYTES + 17 * (max_sum + 1) + _CELL_BYTES[fmt] * (max_sum + 1) ** 2
    if before > budget:
        return before
    return before + _POINT_BYTES[fmt] * _point_count(a, max_sum)


def _point_count(a: IntegerSet, max_sum: int) -> int:
    """len(diagram_points(a, max_sum)) in O(max_sum): each member x pairs
    with every member y <= max_sum - x."""
    mem = np.frombuffer(a.membership_bytes(max_sum), dtype=np.uint8)
    return int(np.dot(mem, np.cumsum(mem, dtype=np.int64)[::-1]))


def _render_ascii(points: list[tuple[int, int]], max_sum: int) -> str:
    # row 0 of the text is the top of the picture, so y runs downward here
    grid = [["."] * (max_sum + 1) for _ in range(max_sum + 1)]
    for x, y in points:
        grid[max_sum - y][x] = "*"
    return "\n".join("".join(row) for row in grid) + "\n"


def _render_svg(points: list[tuple[int, int]], max_sum: int) -> str:
    side = 2 * _MARGIN + max_sum * _CELL
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
            cx=str(_MARGIN + x * _CELL),
            cy=str(_MARGIN + (max_sum - y) * _CELL),
            r=str(_RADIUS),
        )
    return ElementTree.tostring(root, encoding="unicode") + "\n"


def svg_column_counts(svg_text: str, max_sum: int) -> list[int]:
    """Recover per-column point counts from a rendered SVG document."""
    root = ElementTree.fromstring(svg_text)
    counts = [0] * (max_sum + 1)
    for el in root:
        if el.tag.endswith("circle"):
            x = (int(el.get("cx")) - _MARGIN) // _CELL
            counts[x] += 1
    return counts
