"""Finite rectangular patches of the tile shift, counted in closed form.

Tiles glue horizontally when right(left tile) == left(right tile) and
vertically when bottom(upper tile) == top(lower tile), the adjacency of the
graded word gluing.  Rectangles are finite admissible patches only.

Every composable (A-edge, B-edge) pair is the (top, right) of exactly one
tile, so an h x w patch is fixed by its top A-path and its right B-path,
and every such pair of paths fills one: the unique factorization of the
2-graph of (A, B, kappa) (Kumjian-Pask, New York J. Math. 6 (2000)).  So
``count_rectangles`` is 1^T A^w B^h 1 for every kappa, and the rows of
width k number 1^T A^k B 1, which the cap check reads first.  Patches of at
most 9 cells are re-counted by brute force within ``BRUTE_FORCE_WORK``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator

from .errors import CrossCheckFailure, PatternSpaceTooLarge
from .textile import IntMatrix, TextileSystem, Tile

DEFAULT_ROW_CAP = 200_000
BRUTE_FORCE_CELLS = 9
# the re-count runs while the count times the number of tiles is at most
# this; with the tiles read off an index by edge codes, 2**20 such units
# take at most 0.12 s (0.03 to 0.9 us each on a 2-vCPU x86 host), and
# exchange [[8]] x [[8]] at 3x3 (2**24, not re-counted) would take 0.4 s
BRUTE_FORCE_WORK = 2**20


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


def _times(matrix: IntMatrix, vector: list) -> list[int]:
    return [sum(m * x for m, x in zip(row, vector)) for row in matrix.rows]


def _power(matrix: IntMatrix, steps: int, vector: list[int]) -> list[int]:
    for _ in range(steps):
        vector = _times(matrix, vector)
    return vector


def _reachable(matrix: IntMatrix, steps: int) -> list[list[bool]]:
    """reach[k][v]: some path of length k starts at vertex v, for k = 0..steps."""
    reach = [[True] * matrix.n]
    for _ in range(steps):
        reach.append([x > 0 for x in _times(matrix, reach[-1])])
    return reach


def _check_shape(ts: TextileSystem, height: int, width: int, cap: int) -> None:
    if height < 1 or width < 1:
        raise ValueError("rectangle sides must be positive")
    rows = _times(ts.matrix_a, _times(ts.matrix_b, [1] * ts.n_vertices))  # by left vertex
    for _ in range(width - 1):
        rows = _times(ts.matrix_a, rows)
        if sum(rows) > cap:
            raise PatternSpaceTooLarge(f"more than {cap} admissible rows of width {width}")


def _brute_force_count(ts: TextileSystem, height: int, width: int) -> int:
    code = {e: k for k, e in enumerate(ts.edges_a + ts.edges_b)}
    # (left, top) edge codes, None on the patch's left or top border -> the
    # (right, bottom) codes of every tile that fits there, in tile order
    fitting: dict[tuple, list[tuple[int, int]]] = {}
    for t in ts.tiles:
        for key in product((code[t.left], None), (code[t.top], None)):
            fitting.setdefault(key, []).append((code[t.right], code[t.bottom]))
    cells: list = [None] * (height * width)  # (right, bottom) codes, row-major

    def fill(pos: int) -> int:
        if pos == len(cells):
            return 1
        left = cells[pos - 1][0] if pos % width else None
        top = cells[pos - width][1] if pos >= width else None
        total = 0
        for ends in fitting.get((left, top), ()):
            cells[pos] = ends
            total += fill(pos + 1)
        return total

    return fill(0)


def count_rectangles(ts: TextileSystem, height: int, width: int, cap: int = DEFAULT_ROW_CAP) -> int:
    """Number of admissible height x width patches (see the module docstring)."""
    _check_shape(ts, height, width, cap)
    total = sum(_power(ts.matrix_a, width, _power(ts.matrix_b, height, [1] * ts.n_vertices)))
    small = height * width <= BRUTE_FORCE_CELLS and total * len(ts.tiles) <= BRUTE_FORCE_WORK
    brute = _brute_force_count(ts, height, width) if small else total
    if brute != total:
        raise CrossCheckFailure(
            f"matrix count {total} != brute-force count {brute} for a {height}x{width} patch"
        )
    return total


def enumerate_rectangles(
    ts: TextileSystem, height: int, width: int, limit: int | None = None, cap: int = DEFAULT_ROW_CAP
) -> Iterator[Rectangle]:
    """Yield admissible patches in row-major lexicographic tile order.

    Cells fill depth first.  A right-to-left pass at the start of each row
    finds per column the right edges from which the row can still be
    finished, its last right edge starting a B-path as long as the rows
    left to fill; a cell takes only such tiles, so no branch dead-ends.
    """
    _check_shape(ts, height, width, cap)
    below = _reachable(ts.matrix_b, height - 1)
    placed: list[Tile] = []  # row-major
    ends: dict[int, list[set]] = {}  # row -> column -> right edges that can finish the row

    def fits(t: Tile, k: int) -> bool:  # t may sit under the tile above cell k
        return k < width or t.top == placed[k - width].bottom

    def options(k: int) -> Iterator[Tile]:
        i, j = divmod(k, width)
        if j == 0:
            ahead = below[height - 1 - i]
            sets = [{t.right for t in ts.tiles if fits(t, k + width - 1) and ahead[t.vertex - 1]}]
            for col in range(width - 1, 0, -1):
                sets.append({t.left for t in ts.tiles if fits(t, k + col) and t.right in sets[-1]})
            ends[i] = sets[::-1]
        for t in ts.tiles:
            if t.right in ends[i][j] and fits(t, k) and (j == 0 or t.left == placed[k - 1].right):
                yield t

    def patches() -> Iterator[Rectangle]:
        choices = [options(0)]
        while choices:
            del placed[len(choices) - 1 :]
            tile = next(choices[-1], None)
            if tile is None:
                choices.pop()
                continue
            placed.append(tile)
            if len(placed) < height * width:
                choices.append(options(len(placed)))
            else:
                starts = range(0, len(placed), width)
                yield Rectangle(tuple(tuple(placed[k : k + width]) for k in starts))

    yield from islice(patches(), limit)


def wang_tile_list(ts: TextileSystem) -> list[dict]:
    """Tile alphabet as generic Wang-tile records."""
    sides = ("top", "right", "left", "bottom")
    return [
        {"id": i, **{side: getattr(t, side).id for side in sides}, "vertex": t.vertex}
        for i, t in enumerate(ts.tiles)
    ]
