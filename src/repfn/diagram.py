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
# 300).  Counting the points holds the membership bytes, two int64 vectors
# and about 6 KB of scratch.  Rendering holds the membership bytes and under
# 1 KB of scratch, then per ascii cell a grid slot, two text characters and
# a share of the row headers (10.2 bytes), and per point an (n, x) tuple in
# a list (at most 83 bytes), or that tuple with its svg circle text and its
# share of the joined document (at most 193).
_COUNT_BYTES = 8192
_RENDER_BYTES = 2048
_CELL_BYTES = {"ascii": 12, "svg": 0}
_POINT_BYTES = {"ascii": 96, "svg": 256}


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
    # the two phases do not hold memory at the same time, so the estimate is
    # the larger of them; the points are counted only if the rest fits
    counting = _COUNT_BYTES + 17 * (max_sum + 1)
    rendering = _RENDER_BYTES + (max_sum + 1) + _CELL_BYTES[fmt] * (max_sum + 1) ** 2
    if max(counting, rendering) <= budget:
        rendering += _POINT_BYTES[fmt] * _point_count(a, max_sum)
    return max(counting, rendering)


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
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}"'
        f' viewBox="0 0 {side} {side}"'
    )
    if not points:
        return head + " />\n"
    circles = "".join(
        f'<circle cx="{_MARGIN + x * _CELL}" cy="{_MARGIN + (max_sum - y) * _CELL}"'
        f' r="{_RADIUS}" />'
        for x, y in points
    )
    return f"{head}>{circles}</svg>\n"


def svg_column_counts(svg_text: str, max_sum: int) -> list[int]:
    """Recover per-column point counts from a rendered SVG document."""
    root = ElementTree.fromstring(svg_text)
    counts = [0] * (max_sum + 1)
    for el in root:
        if el.tag.endswith("circle"):
            x = (int(el.get("cx")) - _MARGIN) // _CELL
            counts[x] += 1
    return counts
