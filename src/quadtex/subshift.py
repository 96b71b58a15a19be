"""Finite rectangular patches of the tile shift, counted in closed form.

Tiles glue horizontally when right(left tile) == left(right tile) and
vertically when bottom(upper tile) == top(lower tile), the adjacency of the
graded word gluing.  Rectangles are finite admissible patches only.

Every composable (A-edge, B-edge) pair is the (top, right) of exactly one
tile, so an h x w patch is fixed by its top A-path and its right B-path,
and every such pair of paths fills one: the unique factorization of the
2-graph of (A, B, kappa) (Kumjian-Pask, New York J. Math. 6 (2000)).  So
``count_rectangles`` is 1^T A^w B^h 1 for every kappa.  The count is
this closed form alone and reads no tile; the tests hold it to a
brute-force count and to the row and cell transfers.

Powers are taken by repeated squaring, every product held at 10^D
(``textile.digit_ceiling``).  As min(ab, C) = min(min(a, C) min(b, C), C)
for a, b >= 0, and so for sums, the held count is exact below 10^D and
reaches 10^D exactly when ``str`` could not print it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

# wang_tile_list lives in textile, as it reads only tiles; it stays importable from here
from .textile import IntMatrix, TextileSystem, Tile, digit_ceiling, limited, printable, wang_tile_list


class Rectangle(NamedTuple):
    """k x l array of tiles satisfying both gluing conditions."""

    cells: tuple[tuple[Tile, ...], ...]


def _power(matrix: IntMatrix, steps: int, vector: list[int], ceiling: int) -> list[int]:
    """M^steps v by repeated squaring, every entry held at ``ceiling`` (0: not held)."""
    cap = ceiling or float("inf")
    while steps:
        if steps & 1:
            vector = [min(x, cap) for x in matrix.times(vector)]
        steps >>= 1
        if steps:
            matrix = IntMatrix(tuple(tuple(min(x, cap) for x in row) for row in matrix.mul(matrix).rows))
    return vector


def _reachable(matrix: IntMatrix, steps: int) -> list[list[bool]]:
    """reach[k][v]: some path of length k starts at vertex v, for k = 0..steps."""
    reach = [[True] * matrix.n]
    for _ in range(steps):
        reach.append([x > 0 for x in matrix.times(reach[-1])])
    return reach


def _check_shape(height: int, width: int) -> None:
    if height < 1 or width < 1:
        raise ValueError("rectangle sides must be positive")


def count_rectangles(ts: TextileSystem, height: int, width: int) -> int:
    """Number of admissible height x width patches (see the module docstring)."""
    _check_shape(height, width)
    ceiling = digit_ceiling()
    down = _power(ts.matrix_b, height, [1] * ts.n_vertices, ceiling)
    count = sum(_power(ts.matrix_a, width, down, ceiling))
    return printable(count, ceiling, f"{height}x{width} patches")


def enumerate_rectangles(
    ts: TextileSystem, height: int, width: int, limit: int | None = None
) -> Iterator[Rectangle]:
    """Yield admissible patches in row-major lexicographic tile order.

    Cells fill depth first.  A right-to-left pass at the start of each row
    finds per column the right edges from which the row can still be
    finished, its last right edge starting a B-path as long as the rows
    left to fill; a cell takes only such tiles, so no branch dead-ends.
    """
    _check_shape(height, width)
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

    yield from limited(patches(), limit)

