"""Sum diagrams: every ordered member pair (a, b) plotted at (a + b, a).

All pairs with the same sum n land on the vertical line x = n, so the
column at x = n carries exactly r1(A, n) points.  Removing an integer c
from the set blanks the horizontal line y = c and one falling diagonal.
The x axis points right and the y axis points up, origin at bottom left.
"""

from __future__ import annotations

from bisect import bisect_right

from .constants import DEFAULT_MEMORY_BUDGET
from .errors import BudgetExceededError
from .sets import IntegerSet

__all__ = ["render_diagram", "diagram_points"]

_CELL = 12  # svg lattice spacing in pixels
_MARGIN = 10
_RADIUS = 3
# Budget terms above the tracemalloc peaks of render_diagram (max_sum up to
# 512).  ASCII holds its rows and their joined text: two bytes per cell and
# 57 per row, whatever the set.  SVG holds the membership bytes twice (a
# bytearray and its bytes copy), the members (counted from the descriptor
# before they are listed), and per point an (n, x) tuple, its circle text
# and its share of the joined document (at most 193 bytes).
_ASCII_BYTES = 2048
_ASCII_CELL_BYTES = 3
_SVG_BYTES = 800
_MEMBER_BYTES = 48
_POINT_BYTES = 256


def diagram_points(a: IntegerSet, max_sum: int) -> list[tuple[int, int]]:
    """Lattice points (a + b, a) for ordered member pairs with a + b <= max_sum."""
    if max_sum < 0:
        raise ValueError("max_sum must be non-negative")
    mem = a.membership_bytes(max_sum)
    members = a.members(max_sum)
    points = []
    for n in range(max_sum + 1):
        points += [(n, x) for x in members[: bisect_right(members, n)] if mem[n - x]]
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
    if fmt == "ascii":
        return _render_ascii(a, max_sum)
    return _render_svg(diagram_points(a, max_sum), max_sum)


def _estimate_bytes(fmt: str, a: IntegerSet, max_sum: int, budget: int) -> int:
    if fmt == "ascii":
        return _ASCII_BYTES + _ASCII_CELL_BYTES * (max_sum + 1) ** 2
    bound = _SVG_BYTES + 2 * (max_sum + 1) + _MEMBER_BYTES * a.count(max_sum)
    if bound > budget:
        return bound
    return bound + _POINT_BYTES * _point_count(a.members(max_sum), max_sum)


def _point_count(members: list[int], max_sum: int) -> int:
    """len(diagram_points): each member x pairs with every member y <= max_sum - x."""
    return sum(bisect_right(members, max_sum - x) for x in members)


def _render_ascii(a: IntegerSet, max_sum: int) -> str:
    # the row of a member y holds a point at each n = y + b for a member b,
    # so it is y dots and then the memberships of 0..max_sum - y; row 0 of
    # the text is the top of the picture, so y runs downward here
    mem = a.membership_bytes(max_sum)
    line = mem.translate(bytes.maketrans(b"\0\1", b".*")).decode("ascii")
    rows = [
        "." * y + line[: max_sum + 1 - y] if mem[y] else "." * (max_sum + 1)
        for y in range(max_sum, -1, -1)
    ]
    rows.append("")  # the text ends with a newline, joined without a copy
    return "\n".join(rows)


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
    from xml.etree import ElementTree  # only the diagram suite parses SVG

    root = ElementTree.fromstring(svg_text)
    counts = [0] * (max_sum + 1)
    for el in root:
        if el.tag.endswith("circle"):
            x = (int(el.get("cx")) - _MARGIN) // _CELL
            counts[x] += 1
    return counts
