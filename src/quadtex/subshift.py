"""Finite rectangular patches of the tile shift, with transfer counts.

Tiles glue horizontally when right(left tile) == left(right tile) and
vertically when bottom(upper tile) == top(lower tile); the same adjacency
that drives the graded word gluing.  Rectangles are finite admissible
patches only; nothing here decides anything about infinite configurations.

``count_rectangles`` is a cell-by-cell transfer over integer edge codes: a
state is the bottom codes of the last w cells and the right code of the
previous cell, with weights in one dict.  It runs by rows, with at most
|E_A|^w * |E_B| states, or on the transposed tiles by columns, with at
most |E_B|^h * |E_A|, whichever bound is smaller.  A 1 x w strip transfer
first raises if some width 2..w has more than ``cap`` rows, before any row
or state exists.  Patches of at most 9 cells are re-counted by brute force.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator

from .errors import CrossCheckFailure, PatternSpaceTooLarge
from .textile import TextileSystem, Tile

DEFAULT_ROW_CAP = 200_000
BRUTE_FORCE_CELLS = 9


def glue(direction: str, first: Tile, second: Tile) -> bool:
    """Can ``second`` sit to the right of (or below) ``first``?"""
    if direction == "horizontal":
        return first.right == second.left
    if direction == "vertical":
        return first.bottom == second.top
    raise ValueError(f"direction must be 'horizontal' or 'vertical', got {direction!r}")


@dataclass(frozen=True)
class Rectangle:
    """k x l array of tiles satisfying both gluing conditions."""

    cells: tuple[tuple[Tile, ...], ...]

    def validate(self) -> None:
        pairs = [("horizontal", a, b) for row in self.cells for a, b in zip(row, row[1:])]
        for upper, lower in zip(self.cells, self.cells[1:]):
            pairs += [("vertical", a, b) for a, b in zip(upper, lower)]
        for direction, first, second in pairs:
            if not glue(direction, first, second):
                raise ValueError(f"{direction} gluing fails between {first!r} and {second!r}")


def _check_shape(ts: TextileSystem, height: int, width: int, cap: int) -> None:
    if height < 1 or width < 1:
        raise ValueError("rectangle sides must be positive")
    ends = Counter(t.right for t in ts.tiles)  # rows of the current width by right edge
    for _ in range(width - 1):
        extended: Counter = Counter()
        for t in ts.tiles:
            extended[t.right] += ends[t.left]
        ends = extended
        if sum(ends.values()) > cap:
            raise PatternSpaceTooLarge(f"more than {cap} admissible rows of width {width}")


def _rows_of_width(ts: TextileSystem, width: int) -> list[tuple[Tile, ...]]:
    rows: list[tuple[Tile, ...]] = [(t,) for t in ts.tiles]
    for _ in range(width - 1):
        rows = [row + (t,) for row in rows for t in ts.tiles if glue("horizontal", row[-1], t)]
    return rows


def _brute_force_count(ts: TextileSystem, height: int, width: int) -> int:
    cells = [[None] * width for _ in range(height)]

    def fill(pos: int) -> int:
        if pos == height * width:
            return 1
        i, j = divmod(pos, width)
        total = 0
        for tile in ts.tiles:
            if j > 0 and not glue("horizontal", cells[i][j - 1], tile):
                continue
            if i > 0 and not glue("vertical", cells[i - 1][j], tile):
                continue
            cells[i][j] = tile
            total += fill(pos + 1)
            cells[i][j] = None
        return total

    return fill(0)


def _transfer(tiles: list[tuple[int, int, int, int]], height: int, width: int) -> int:
    """Count patches of (top, right, left, bottom) coded tiles cell by cell."""
    wild = -1  # matches any edge: the tops of the first row, the left of a row's first cell
    inside: dict = {}  # (top, left) -> the state's next (bottom, right) inside a row
    at_end: dict = {}  # the same at the end of a row, with the right code reset to wild
    for top, right, left, bottom in tiles:
        for key in product((top, wild), (left, wild)):
            inside.setdefault(key, []).append((bottom, right))
            at_end.setdefault(key, []).append((bottom, wild))
    weights = {(wild,) * (width + 1): 1}  # bottoms, oldest first, then the right code
    for _ in range(height):
        for j in range(width):
            fits = at_end if j == width - 1 else inside
            advanced: dict = {}
            for state, weight in weights.items():
                tail = state[1:width]
                for suffix in fits.get((state[0], state[-1]), ()):
                    key = tail + suffix
                    advanced[key] = advanced.get(key, 0) + weight
            weights = advanced
    return sum(weights.values())


def count_rectangles(ts: TextileSystem, height: int, width: int, cap: int = DEFAULT_ROW_CAP) -> int:
    """Number of admissible height x width patches (see the module docstring)."""
    _check_shape(ts, height, width, cap)
    codes: dict = {}
    tiles = [
        tuple(codes.setdefault(e, len(codes)) for e in (t.top, t.right, t.left, t.bottom))
        for t in ts.tiles
    ]
    n_a = len({e for t in ts.tiles for e in (t.top, t.bottom)})
    n_b = len(codes) - n_a
    if n_b**height * n_a < n_a**width * n_b:
        columns = [(left, bottom, top, right) for top, right, left, bottom in tiles]
        total = _transfer(columns, width, height)
    else:
        total = _transfer(tiles, height, width)
    if height * width <= BRUTE_FORCE_CELLS:
        brute = _brute_force_count(ts, height, width)
        if brute != total:
            raise CrossCheckFailure(
                f"transfer count {total} != brute-force count {brute} "
                f"for a {height}x{width} patch"
            )
    return total


def enumerate_rectangles(
    ts: TextileSystem, height: int, width: int, limit: int | None = None, cap: int = DEFAULT_ROW_CAP
) -> Iterator[Rectangle]:
    """Yield admissible patches in row-major lexicographic tile order."""
    _check_shape(ts, height, width, cap)
    rows = _rows_of_width(ts, width)
    by_top: dict[tuple, list] = {}
    for row in rows:
        by_top.setdefault(tuple(t.top for t in row), []).append(row)

    def extend(stack: list) -> Iterator[Rectangle]:
        if len(stack) == height:
            yield Rectangle(cells=tuple(stack))
            return
        for row in by_top.get(tuple(t.bottom for t in stack[-1]), []):
            yield from extend(stack + [row])

    yield from islice((patch for first in rows for patch in extend([first])), limit)


def wang_tile_list(ts: TextileSystem) -> list[dict]:
    """Tile alphabet as generic Wang-tile records."""
    sides = ("top", "right", "left", "bottom")
    return [
        {"id": i, **{side: getattr(t, side).id for side in sides}, "vertex": t.vertex}
        for i, t in enumerate(ts.tiles)
    ]
