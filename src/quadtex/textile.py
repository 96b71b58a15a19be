"""Layered edge graphs from commuting matrices, specifications and tiles.

A pair of commuting nonnegative integer matrices A, B over a common vertex
set defines two directed multigraphs on those vertices.  A *specification*
pairs every composable edge path alpha.b (an A-edge followed by a B-edge)
with a composable path a.beta (B-edge then A-edge) having the same outer
endpoints.  Each pairing kappa(alpha, b) = (a, beta) is drawn as a unit
square

        . --alpha--> .
        |            |
        a            b
        v            v
        . --beta-->  .

and those squares are the tile alphabet of everything downstream: the quad
module basis, the graded word spaces, and the two-dimensional subshift.
The facts that more than one layer reads off a system live here too: the
corner-pair transition matrices A_kappa, B_kappa and their block stack
H_kappa (``build_quad_matrices``), the edges no tile lies over
(``empty_basis_edges``), and whether a layer is essential (``is_essential``).
The tile alphabet is also written out here as Wang-tile records
(``wang_tile_list``), since that reads the tiles alone.

All orderings are fixed here (edges by (source, target, multiplicity),
tiles by (top, right), corner pairs by (alpha, a)) so every derived matrix
is bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

from .errors import (
    BlockViolation,
    ExchangeUnavailable,
    InvalidMatrix,
    NonCommuting,
    NotABijection,
    PatternSpaceTooLarge,
)

LAYER_A = "A"
LAYER_B = "B"


def _is_sequence(value) -> bool:
    """A list or a tuple, but not a record such as an ``IntMatrix`` or a
    ``Kappa``: the value types here are named tuples."""
    return isinstance(value, (list, tuple)) and not hasattr(value, "_fields")


class IntMatrix(NamedTuple):
    """Square matrix of nonnegative integers; rows are immutable tuples."""

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        if not _is_sequence(rows) or not all(map(_is_sequence, rows)):
            raise InvalidMatrix(f"matrix must be a list of rows, got {rows!r}")
        n = len(rows)
        if n == 0:
            raise InvalidMatrix("matrix must have positive size")
        for row in rows:
            if len(row) != n:
                raise InvalidMatrix(f"matrix is not square: {n} rows, row of length {len(row)}")
            for entry in row:
                # bool is an int subclass, and JSON true must not read as 1
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 0:
                    raise InvalidMatrix(f"entry {entry!r} is not a nonnegative integer")
        return IntMatrix(tuple(tuple(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """The product: each row sums ``other``'s rows at its nonzero entries."""
        rows = []
        for row in self.rows:
            total = (0,) * other.n
            for a, line in zip(row, other.rows):
                if a:
                    term = line if a == 1 else map(operator.mul, line, itertools.repeat(a))
                    total = tuple(map(operator.add, total, term))
            rows.append(total)
        return IntMatrix(tuple(rows))

    def times(self, vector) -> list[int]:
        """The product M v of this matrix with a column vector."""
        return [sum(m * x for m, x in zip(row, vector)) for row in self.rows]


class Edge(NamedTuple):
    """Directed edge in one layer; vertices are 1-based.

    Field order gives the canonical sort: (layer, source, target, mult_index).
    """

    layer: str
    source: int
    target: int
    mult_index: int

    @property
    def id(self) -> str:
        return f"{self.layer}:{self.source}->{self.target}#{self.mult_index}"

    def __repr__(self):
        return f"Edge({self.id})"


class Tile(NamedTuple):
    """Unit square (top, right, left, bottom) with kappa(top, right) = (left, bottom)."""

    top: Edge
    right: Edge
    left: Edge
    bottom: Edge

    @property
    def vertex(self) -> int:
        """Bottom-right corner vertex: r(right) = r(bottom)."""
        return self.right.target

    def __repr__(self):
        return f"Tile({self.top.id},{self.right.id},{self.left.id},{self.bottom.id})"


class OmegaPair(NamedTuple):
    """Top-left corner pair (alpha, a) realized by at least one tile."""

    alpha: Edge
    a: Edge


class Kappa(NamedTuple):
    """Bijection between composable AB pairs and BA pairs, stored as pairs.

    ``pairs`` holds ((alpha, b), (a, beta)) entries sorted by the domain
    pair; ``forward`` and ``inverse`` build the lookup maps on each read.
    """

    pairs: tuple[tuple[tuple[Edge, Edge], tuple[Edge, Edge]], ...]

    @property
    def forward(self) -> dict[tuple[Edge, Edge], tuple[Edge, Edge]]:
        return dict(self.pairs)

    @property
    def inverse(self) -> dict[tuple[Edge, Edge], tuple[Edge, Edge]]:
        return {image: preimage for preimage, image in self.pairs}


class TextileSystem:
    """Two commuting matrices, their edge lists, a validated specification
    and the sigma-block table over those very edges (see ``sigma_blocks``).

    The six fields are read-only and the tables below are built on first
    read.  Systems compare, hash and print by their first five fields."""

    matrix_a: IntMatrix
    matrix_b: IntMatrix
    edges_a: tuple[Edge, ...]
    edges_b: tuple[Edge, ...]
    kappa: Kappa
    blocks: dict

    def __init__(self, matrix_a, matrix_b, edges_a, edges_b, kappa, blocks):
        # cached_property also writes to the instance dict, past __setattr__
        vars(self).update(
            matrix_a=matrix_a, matrix_b=matrix_b, edges_a=edges_a, edges_b=edges_b, kappa=kappa, blocks=blocks
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a TextileSystem is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a TextileSystem is read-only")

    def _key(self) -> tuple:
        return self.matrix_a, self.matrix_b, self.edges_a, self.edges_b, self.kappa

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is TextileSystem else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        names = ("matrix_a", "matrix_b", "edges_a", "edges_b", "kappa")
        return f"TextileSystem({', '.join(f'{k}={v!r}' for k, v in zip(names, self._key()))})"

    @property
    def n_vertices(self) -> int:
        return self.matrix_a.n

    def edges(self, layer: str) -> tuple[Edge, ...]:
        """The edges of layer "A" or "B"; any other name is a ValueError."""
        return self.edges_a if _known_layer(layer) == LAYER_A else self.edges_b

    @cached_property
    def tiles(self) -> tuple[Tile, ...]:
        # by (top, right), the first two fields, which fix a tile
        return tuple(sorted(Tile(alpha, b, a, beta) for (alpha, b), (a, beta) in self.kappa.pairs))

    @cached_property
    def tile_index(self) -> dict[Tile, int]:
        return {tile: i for i, tile in enumerate(self.tiles)}

    @cached_property
    def omega(self) -> tuple[OmegaPair, ...]:
        seen = sorted({(t.top, t.left) for t in self.tiles})
        return tuple(OmegaPair(alpha=alpha, a=a) for alpha, a in seen)


def build_quad_matrices(ts: TextileSystem) -> tuple[list[list[int]], ...]:
    """Horizontal and vertical 0/1 transition matrices on the corner pairs
    ``ts.omega``, plus their 2x2 block stack [[A, A], [B, B]], in one pass
    over the tiles: a tile with top alpha and left a puts into row
    (alpha, a) of A the pairs whose left edge is its right edge, and of B
    those whose top edge is its bottom edge."""
    omega = ts.omega
    n = len(omega)
    row_of = {(pair.alpha, pair.a): i for i, pair in enumerate(omega)}
    by_left, by_top = {}, {}
    for j, pair in enumerate(omega):
        by_left.setdefault(pair.a, []).append(j)
        by_top.setdefault(pair.alpha, []).append(j)
    a_kappa = [[0] * n for _ in range(n)]
    b_kappa = [[0] * n for _ in range(n)]
    for tile in ts.tiles:
        i = row_of[tile.top, tile.left]
        for j in by_left.get(tile.right, ()):
            a_kappa[i][j] = 1
        for j in by_top.get(tile.bottom, ()):
            b_kappa[i][j] = 1
    return a_kappa, b_kappa, [row + row for row in a_kappa] + [row + row for row in b_kappa]


def empty_basis_edges(ts: TextileSystem) -> list[Edge]:
    """The edges no tile lies over, whose quad-module basis vectors are zero:
    the A-edges that are no tile's top, then the B-edges that are no tile's left."""
    tops = {t.top for t in ts.tiles}
    lefts = {t.left for t in ts.tiles}
    return [e for e in ts.edges_a if e not in tops] + [e for e in ts.edges_b if e not in lefts]


def is_essential(ts: TextileSystem, layer: str) -> bool:
    """Every vertex receives at least one edge of the layer: no column of its matrix is zero."""
    matrix = ts.matrix_a if _known_layer(layer) == LAYER_A else ts.matrix_b
    return all(map(any, zip(*matrix.rows)))


def _known_layer(layer: str) -> str:
    if layer not in (LAYER_A, LAYER_B):
        raise ValueError(f"layer must be {LAYER_A!r} or {LAYER_B!r}, got {layer!r}")
    return layer


def edges_from_matrix(matrix: IntMatrix, layer: str) -> tuple[Edge, ...]:
    """M(i,j) parallel edges i -> j, ordered by (source, target, multiplicity)."""
    _known_layer(layer)
    out = []
    n = matrix.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, matrix[i - 1, j - 1] + 1):
                out.append(Edge(layer=layer, source=i, target=j, mult_index=k))
    return tuple(out)


def check_commuting(matrix_a: IntMatrix, matrix_b: IntMatrix) -> None:
    """Raise NonCommuting at the first entry where A*B != B*A."""
    if matrix_a.n != matrix_b.n:
        raise InvalidMatrix(f"size mismatch: {matrix_a.n} vs {matrix_b.n}")
    ab = matrix_a.mul(matrix_b)
    ba = matrix_b.mul(matrix_a)
    for i in range(matrix_a.n):
        for j in range(matrix_a.n):
            if ab[i, j] != ba[i, j]:
                raise NonCommuting((i + 1, j + 1), ab[i, j], ba[i, j])


def _layers(matrix_a: IntMatrix, matrix_b: IntMatrix):
    """Check that A and B commute, then build each layer's edges and the
    sigma-block table over those very edges (see ``sigma_blocks``)."""
    check_commuting(matrix_a, matrix_b)
    edges_a = edges_from_matrix(matrix_a, LAYER_A)
    edges_b = edges_from_matrix(matrix_b, LAYER_B)
    n = matrix_a.n
    blocks: dict[tuple[int, int], tuple[list, list]] = {
        (i, j): ([], []) for i in range(1, n + 1) for j in range(1, n + 1)
    }
    for alpha in edges_a:
        for b in edges_b:
            if alpha.target == b.source:
                blocks[(alpha.source, b.target)][0].append((alpha, b))
    for a in edges_b:
        for beta in edges_a:
            if a.target == beta.source:
                blocks[(a.source, beta.target)][1].append((a, beta))
    table = {key: (tuple(sorted(ab)), tuple(sorted(ba))) for key, (ab, ba) in blocks.items()}
    return edges_a, edges_b, table


def sigma_blocks(
    matrix_a: IntMatrix, matrix_b: IntMatrix
) -> dict[tuple[int, int], tuple[tuple[tuple[Edge, Edge], ...], tuple[tuple[Edge, Edge], ...]]]:
    """Composable pair sets per (start, end) vertex block.

    Block (i, j) collects the AB pairs (alpha, b) with s(alpha)=i, r(b)=j and
    the BA pairs (a, beta) with s(a)=i, r(beta)=j; both lists have (A*B)(i,j)
    elements and are sorted by edge order.
    """
    return _layers(matrix_a, matrix_b)[2]


def _validate_kappa(blocks: dict, pairs: list) -> Kappa:
    domain = {p for ab, _ in blocks.values() for p in ab}
    codomain = {p for _, ba in blocks.values() for p in ba}
    seen_domain = set()
    seen_codomain = set()
    for (alpha, b), (a, beta) in pairs:
        if (alpha, b) not in domain:
            raise BlockViolation(((alpha.id, b.id), (a.id, beta.id)), "domain pair not composable")
        if (a, beta) not in codomain:
            raise BlockViolation(((alpha.id, b.id), (a.id, beta.id)), "image pair not composable")
        if alpha.source != a.source:
            raise BlockViolation(((alpha.id, b.id), (a.id, beta.id)), "sources differ")
        if b.target != beta.target:
            raise BlockViolation(((alpha.id, b.id), (a.id, beta.id)), "ranges differ")
        seen_domain.add((alpha, b))
        seen_codomain.add((a, beta))
    if seen_domain != domain or seen_codomain != codomain or len(pairs) != len(domain):
        raise NotABijection(
            f"pairing of {len(pairs)} entries covers {len(seen_domain)}/{len(domain)} "
            f"domain pairs and {len(seen_codomain)}/{len(codomain)} image pairs"
        )
    return Kappa(pairs=tuple(sorted(pairs)))


def _specify(edges: tuple[Edge, ...], blocks: dict, strategy) -> Kappa:
    """The validated specification of ``strategy`` over one system's edges
    and sigma-block table.

    ``lex`` pairs the k-th AB pair with the k-th BA pair inside each block.
    ``exchange`` maps (alpha, b) to (b, alpha); it needs a single vertex,
    where every edge pair is composable both ways.  An explicit list of
    ((alpha_id, b_id), (a_id, beta_id)) entries is accepted as-is and fully
    validated.
    """
    if strategy == "lex":
        pairs = [pair for key in sorted(blocks) for pair in zip(*blocks[key])]
    elif strategy == "exchange":
        if len(blocks) != 1:
            raise ExchangeUnavailable(
                f"exchange pairing needs a single vertex, system has {math.isqrt(len(blocks))}"
            )
        pairs = [((alpha, b), (b, alpha)) for alpha, b in blocks[(1, 1)][0]]
    elif _is_sequence(strategy):
        by_id = {e.id: e for e in edges}
        try:
            pairs = [
                ((by_id[alpha], by_id[b]), (by_id[a], by_id[beta]))
                for (alpha, b), (a, beta) in strategy
            ]
        except KeyError as exc:
            raise NotABijection(f"unknown edge id {exc.args[0]!r} in explicit pairing") from exc
        except (TypeError, ValueError) as exc:
            raise NotABijection(
                "explicit pairing entries must read [[alpha_id, b_id], [a_id, beta_id]]"
            ) from exc
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _validate_kappa(blocks, pairs)


def digit_ceiling() -> int:
    """10**D, the least int that ``str`` refuses to print, where D is
    ``sys.get_int_max_str_digits()``; 0, no ceiling, when D is 0 or the
    interpreter has no such limit (3.10 before 3.10.7)."""
    return _ten_to(getattr(sys, "get_int_max_str_digits", lambda: 0)())


@lru_cache(maxsize=1)  # the limit seldom changes; 10**4300 costs 46 us
def _ten_to(digits: int) -> int:
    return 10**digits if digits else 0


def printable(count: int, ceiling: int, what: str) -> int:
    """``count``, unless it reaches ``ceiling`` (``digit_ceiling``): then
    PatternSpaceTooLarge, as ``str`` could not print it."""
    if ceiling and count >= ceiling:
        digits = sys.get_int_max_str_digits()
        raise PatternSpaceTooLarge(
            f"the count of {what} has more than {digits} digits, "
            "the limit of sys.get_int_max_str_digits()"
        )
    return count


def count_specifications(matrix_a: IntMatrix, matrix_b: IntMatrix) -> int:
    """Number of specifications: the product of (A*B)(i,j)! over all blocks.
    Raises PatternSpaceTooLarge when it has too many digits to print."""
    ab = matrix_a.mul(matrix_b)
    total = 1
    for i in range(matrix_a.n):
        for j in range(matrix_a.n):
            total *= math.factorial(ab[i, j])
    return printable(total, digit_ceiling(), "specifications")


def enumerate_kappas(
    matrix_a: IntMatrix, matrix_b: IntMatrix, limit: int | None = None
) -> Iterator[Kappa]:
    """Yield every specification in a fixed order (see ``block_kappas``)."""
    yield from block_kappas(sigma_blocks(matrix_a, matrix_b), limit)


def block_kappas(blocks: dict, limit: int | None = None) -> Iterator[Kappa]:
    """Yield every specification of a sigma-block table in a fixed order.

    Within each block the BA side runs through its permutations in
    lexicographic order; blocks combine by (i, j) order with the last block
    varying fastest.  The first yield is therefore the ``lex`` pairing.
    Each yield pairs the AB and BA lists of every block one to one, so it
    is a specification by construction and is not validated again.
    """
    keys = sorted(key for key in blocks if blocks[key][0])

    def pairings(k: int, prefix: list):
        # nested loops over lazily generated permutations, first block
        # outermost: the order of itertools.product without building lists
        if k == len(keys):
            yield prefix
            return
        ab, ba = blocks[keys[k]]
        for perm in itertools.permutations(ba):
            yield from pairings(k + 1, prefix + list(zip(ab, perm)))

    for pairs in limited(pairings(0, []), limit):
        yield Kappa(pairs=tuple(sorted(pairs)))


def limited(items: Iterator, limit: int | None) -> Iterator:
    """The first ``limit`` items of a listing: all of them for None, none for
    a negative limit."""
    # islice takes no stop past sys.maxsize, more than any listing yields
    return itertools.islice(items, None if limit is None else min(max(limit, 0), sys.maxsize))


def build_system(a_rows, b_rows, kappa="lex") -> TextileSystem:
    """Validate the matrices and return the system with its specification.

    Commutation is checked once and each layer's edges and the sigma-block
    table are built once; every strategy (see ``_specify``) reads that
    table and is validated, so the tiles hold the very edges of
    ``edges_a`` and ``edges_b``.  A given ``Kappa`` is read by its edge ids
    like an explicit pairing: validated against the table and mapped onto
    this system's edges.  The system keeps the table (``blocks``), so its
    specifications are listed by ``block_kappas`` without building it again.
    """
    matrix_a = IntMatrix.from_rows(a_rows)
    matrix_b = IntMatrix.from_rows(b_rows)
    edges_a, edges_b, blocks = _layers(matrix_a, matrix_b)
    if isinstance(kappa, Kappa):
        kappa = [((alpha.id, b.id), (a.id, beta.id)) for (alpha, b), (a, beta) in kappa.pairs]
    spec = _specify(edges_a + edges_b, blocks, kappa)
    return TextileSystem(matrix_a, matrix_b, edges_a, edges_b, spec, blocks)


def wang_tile_list(ts: TextileSystem) -> list[dict]:
    """Tile alphabet as generic Wang-tile records."""
    return [
        {"id": i, **{side: e.id for side, e in zip(Tile._fields, t)}, "vertex": t.vertex}
        for i, t in enumerate(ts.tiles)
    ]

