"""The benchmark's own model of a tile system, independent of quadtex.

Everything the checks compare against is computed here from the two
matrices and the pairing strategy alone: edges, tiles, corner pairs, the
transition matrices by their definition, exact rank and determinant by
``Fraction`` elimination, word-space level sizes from the gluing matrices,
and rectangle counts by a column-major cell-by-cell transfer.  None of it
imports quadtex, so a fault in the program cannot hide in its own oracle.

Edges are tuples ``(layer, source, target, multiplicity)`` with 1-based
vertices; their tuple order is the program's canonical edge order, so
sorted lists here line up index for index with the program's output.
"""

from __future__ import annotations

import math
from fractions import Fraction


def edge_id(edge) -> str:
    layer, source, target, mult = edge
    return f"{layer}:{source}->{target}#{mult}"


def mat_mul(a, b):
    n, inner, m = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(m)] for i in range(n)]


def total(matrix) -> int:
    return sum(sum(row) for row in matrix)


class Model:
    """Tiles, corner pairs and gluing of the system (A, B, strategy)."""

    def __init__(self, a_rows, b_rows, kappa: str = "lex"):
        self.a = [list(row) for row in a_rows]
        self.b = [list(row) for row in b_rows]
        self.n = len(self.a)
        self.edges_a = self._edges(self.a, "A")
        self.edges_b = self._edges(self.b, "B")
        if kappa == "exchange":
            if self.n != 1:
                raise ValueError("the exchange pairing needs a single vertex")
            tiles = [(alpha, b, b, alpha) for alpha in self.edges_a for b in self.edges_b]
        elif kappa == "lex":
            tiles = self._lex_tiles()
        else:
            raise ValueError(f"unsupported pairing {kappa!r}")
        # (top, right, left, bottom), ordered by (top, right)
        self.tiles = sorted(tiles)
        self.omega = sorted({(top, left) for top, _, left, _ in self.tiles})

    def _edges(self, matrix, layer):
        return [
            (layer, i + 1, j + 1, k + 1)
            for i in range(self.n)
            for j in range(self.n)
            for k in range(matrix[i][j])
        ]

    def _lex_tiles(self):
        tiles = []
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                ab = sorted(
                    (alpha, b)
                    for alpha in self.edges_a
                    for b in self.edges_b
                    if alpha[1] == i and alpha[2] == b[1] and b[2] == j
                )
                ba = sorted(
                    (a, beta)
                    for a in self.edges_b
                    for beta in self.edges_a
                    if a[1] == i and a[2] == beta[1] and beta[2] == j
                )
                if len(ab) != len(ba):
                    raise ValueError("the matrices do not commute")
                tiles.extend((alpha, b, a, beta) for (alpha, b), (a, beta) in zip(ab, ba))
        return tiles

    def tile_records(self) -> set:
        return {tuple(edge_id(e) for e in tile) for tile in self.tiles}

    def quad_matrices(self):
        """A_kappa and B_kappa by definition: (alpha, a) -> (delta, b) when a
        tile has top alpha, left a and right b; (alpha, a) -> (beta, d) when
        a tile has top alpha, left a and bottom beta."""
        rights, bottoms = set(), set()
        for top, right, left, bottom in self.tiles:
            rights.add((top, left, right))
            bottoms.add((top, left, bottom))
        a_kappa = [
            [int((alpha, a, dst_a) in rights) for _, dst_a in self.omega]
            for alpha, a in self.omega
        ]
        b_kappa = [
            [int((alpha, a, dst_alpha) in bottoms) for dst_alpha, _ in self.omega]
            for alpha, a in self.omega
        ]
        return a_kappa, b_kappa

    def level_sizes(self, max_level: int) -> list[int]:
        """Words per level: |E_A| + |E_B|, the tile count, then the entry sum
        of (G_eta + G_rho)^(n-1) over the 0/1 tile-gluing matrices."""
        glue = [
            [int(s[1] == t[2]) + int(s[3] == t[0]) for t in self.tiles]
            for s in self.tiles
        ]
        sizes = [len(self.edges_a) + len(self.edges_b), len(self.tiles)]
        vec = [1] * len(self.tiles)
        for _ in range(2, max_level + 1):
            vec = [sum(vec[i] * glue[i][j] for i in range(len(vec))) for j in range(len(vec))]
            sizes.append(sum(vec))
        return sizes

    def count_rectangles(self, height: int, width: int) -> int:
        """Patches counted column by column, one cell at a time.

        The state holds the right edge of the cell last placed in each row
        (or of the previous column, for rows not yet reached) and the bottom
        edge of the cell just above.  Rights in the last column are dropped,
        since nothing reads them.
        """
        states = {((None,) * height, None): 1}
        for col in range(width):
            last_col = col == width - 1
            for row in range(height):
                nxt: dict = {}
                for (rights, above), weight in states.items():
                    for top, right, left, bottom in self.tiles:
                        if col and rights[row] != left:
                            continue
                        if row and above != top:
                            continue
                        key = (
                            rights[:row] + (None if last_col else right,) + rights[row + 1:],
                            bottom if row < height - 1 else None,
                        )
                        nxt[key] = nxt.get(key, 0) + weight
                states = nxt
        return sum(states.values())

    def is_patch(self, rows) -> bool:
        """Do these tile indices (row-major) glue both ways?"""
        cells = [[self.tiles[t] for t in row] for row in rows]
        for row in cells:
            if any(left[1] != right[2] for left, right in zip(row, row[1:])):
                return False
        for upper, lower in zip(cells, cells[1:]):
            if any(u[3] != d[0] for u, d in zip(upper, lower)):
                return False
        return True


def corner_bound(a_rows, b_rows) -> int:
    """Upper bound on the corner pairs: A-edges times B-edges leaving each vertex."""
    return sum(sum(ra) * sum(rb) for ra, rb in zip(a_rows, b_rows))


def specification_count(a_rows, b_rows) -> int:
    out = 1
    for row in mat_mul(a_rows, b_rows):
        for v in row:
            out *= math.factorial(v)
    return out


def rank_and_det(matrix) -> tuple[int, int]:
    """Exact rank and determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank, det = 0, Fraction(1)
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][c] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][c]
        for r in range(rank + 1, rows):
            if m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    if rank < rows:
        det = Fraction(0)
    return rank, int(det)


def presentation(a_kappa, b_kappa):
    """A_kappa + B_kappa - I."""
    n = len(a_kappa)
    return [[a_kappa[i][j] + b_kappa[i][j] - (i == j) for j in range(n)] for i in range(n)]


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def exchange_count(p: int, q: int, height: int, width: int) -> int:
    """Patches of the exchange pair [[p]] x [[q]]: every column keeps one
    B-edge and every row one A-edge, so q^height * p^width."""
    return q**height * p**width


def fibonacci_lex_count(height: int, width: int) -> int:
    return fibonacci(height + width + 3)
