"""Graded word spaces of glued tiles, creation operators, identity checks.

The graded space has the two edge algebras at level 0 (one basis word per
B-edge, then one per A-edge), the tiles at level 1, and at level n the
length-n tile words glued by a separator sequence: an ``eta`` separator
demands left(next) == right(previous), a ``rho`` separator demands
top(next) == bottom(previous).  Everything is truncated at a chosen top
level L.

Operators are exact integer sparse matrices over that basis.  The two
creation families prepend a tile (raising the level by one), diagonal
operators read an edge of the first tile, and adjoints are transposes:
every primitive operator here maps basis words to basis words with the
same terminal vertex, which makes the transpose the adjoint for the
vertex-valued pairing.  The basis records each word as (first tile,
first separator, tail) (``TruncatedFock.splits``), so a creation operator
is one pass over the target words: a tile word comes from a level-0
marker, a deeper one from its tail.  The basis is these flat per-word
columns alone (level, split, first tile, terminal vertex): no word object
is built, and ``TruncatedFock.word`` rebuilds a ``FockWord`` from the
splits when one is read (witness labels; ``words`` for tests).

Truncation semantics: a product of operators computed on the truncated
basis agrees with the untruncated product on any column whose intermediate
images never leave the basis.  Each verified identity therefore carries a
margin m and is compared only on the block of rows and columns at levels
<= L - m (identity suite) or on interior levels [2, L - m] (relation
suite), where the level-0/1 corrections are provably absent.  Levels never
decrease, so levels <= L - m are the first n words; each product runs right to
left from the columns of its last factor below n, exactly, as column c of
F1 ... Fk is F1 (... (Fk[:, c])).  The first multiplication reads those
columns off Fk itself (``SparseOp.times``), so no cut of Fk is built; only a
lone factor is cut, unless n spans the basis.  Every compared side holds only
these columns.  The shared products ss* and SS* + TT* keep the columns of
levels <= L - 1: each row that reads them has margin >= 1 and puts them at
most left of a diagonal.  Creations, adjoints, diagonals, e, S and T stay
whole; a diagonal lone factor is cut to a diagonal.

Diagonal operators (edge and vertex actions, range and level projections,
the identity and e) are ``_DiagonalOp``s: one value per word, read off the
basis columns (an edge action off each word's first tile, ``heads``; a
level-0 marker off the edge lists).  A product with a diagonal scales the
rows or columns of the other factor, a product or sum of diagonals is a
diagonal, and a diagonal is its own transpose.

Identity checks: every checked identity of the three reports (word-space
identities, universal relations, corner generators) is one row of the
table ``_TABLE``: report, id, formula, margin m, lowest compared level and
the builders of its (case, lhs, rhs) triples.  Relations come in mirrored
pairs, s over the A-edges with diagonal p and t over the B-edges with
diagonal q; each builder is written once over a ``_Layer`` record and
loops over both.  ``_run`` is the one runner: it compares the sides of
every row and reports the first differing entry of the row's block
[low, L - m] as the witness.

One ``_Bank`` per basis (``TruncatedFock._bank``) holds the primitive
operators with integer entries (``creation_expansion`` scales its rational
tile vectors by the lcm of their denominators, and only the differing
entries of a case are divided back into ``Fraction``s for the witness) and
the products several identities share: sum ss* and sum tt*, s*s and t*t,
the corner projections e = p q, A_kappa and B_kappa, and per corner pair
S = e s, T = e t and SS* + TT*.  It keeps, per builder, only the entries
where the two sides differ (nothing when the identity holds), so ids that
share a builder are evaluated once per basis and each reports on its own
block:

* ``range_partition`` and ``unit_partition_uncut``, both on [0, L-1];
* ``diagonal_commutation`` on [0, L-1], ``range_proj_diag_commutation``
  and ``cross_proj_commutation`` on [2, L-1];
* ``twisted_sandwich`` on [0, L-2], its halves ``same_layer_compression``
  and ``cross_layer_pullback`` (also ``corner_selection``) on [2, L-2];
* ``vertex_commutation`` on [0, L-1], ``vertex_commutation_quotient`` on
  [2, L-1]; ``vertex_sandwich`` on [0, L-2],
  ``vertex_compression_quotient`` on [2, L-2];
* ``unit_partition_interior`` and the ``sum ss* + tt*`` case of
  ``edge_partitions``, both on [2, L-1].
"""

from __future__ import annotations

import itertools
import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce
from typing import Iterator, NamedTuple

from .algebra import DiagElem, EdgeElem, embed, pullback_along_kappa
from .errors import (
    BasisTooLarge,
    LayerMismatch,
    TruncationTooShallow,
    UnknownEdge,
)
from .ktheory import build_quad_matrices
from .quadmod import QuadVector, inner_eta, inner_rho, left_basis_vector, top_basis_vector
from .textile import LAYER_A, LAYER_B, Edge, TextileSystem, Tile

SEP_ETA = "eta"
SEP_RHO = "rho"
DEFAULT_BASIS_CAP = 10**6


@dataclass(frozen=True)
class FockWord:
    """One basis word: a glued tile sequence, or a level-0 edge marker.

    Level-0 words carry ``base_kind`` 'q' (B-edge summand) or 'p' (A-edge
    summand) and an edge; higher words carry n tiles and n-1 separators.
    """

    tiles: tuple[Tile, ...] = ()
    seps: tuple[str, ...] = ()
    base_kind: str | None = None
    base: Edge | None = None

    @property
    def level(self) -> int:
        return len(self.tiles)

    @property
    def vertex(self) -> int:
        """Terminal vertex: corner of the last tile, or range of the base edge."""
        if self.tiles:
            return self.tiles[-1].vertex
        return self.base.target

    def label(self) -> str:
        if not self.tiles:
            return f"{self.base_kind}[{self.base.id}]"
        parts = [f"({self.tiles[0].top.id},{self.tiles[0].right.id})"]
        for sep, tile in zip(self.seps, self.tiles[1:]):
            parts.append("-h-" if sep == SEP_ETA else "-v-")
            parts.append(f"({tile.top.id},{tile.right.id})")
        return "".join(parts)


@dataclass(frozen=True, eq=False)
class TruncatedFock:
    """Basis of all glued words up to a top level, stored as per-word columns.

    ``splits[i]`` is word i split as (first tile's index in ``ts.tiles``,
    first separator, tail index); None on level 0, (k, None, None) on level 1.
    ``heads[i]`` is the first tile's index (None on level 0) and
    ``vertices[i]`` the terminal vertex.  ``word(i)`` rebuilds word i from
    ``splits``; ``words`` builds them all on first read.
    """

    ts: TextileSystem
    max_level: int
    levels: tuple[int, ...] = field(repr=False)
    splits: tuple[tuple[int, str | None, int | None] | None, ...] = field(repr=False)
    heads: tuple[int | None, ...] = field(repr=False)
    vertices: tuple[int, ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.levels)

    def count_at(self, level: int) -> int:
        return self.prefix(level) - self.prefix(level - 1)

    def prefix(self, level: int) -> int:
        """Number of words of level <= ``level``: the first ones, as levels never decrease."""
        return bisect_right(self.levels, level)

    @cached_property
    def index(self) -> dict[FockWord, int]:
        """Position of each word, hashed on first use; ``verify`` needs none."""
        return {w: i for i, w in enumerate(self.words)}

    @cached_property
    def _bank(self) -> "_Bank":
        """The one operator bank of this basis, shared by every identity suite.

        The bank reaches the basis only through a weak proxy, so the two form
        no reference cycle and are freed together as soon as the basis is
        dropped, without waiting for the cycle collector.
        """
        return _Bank(weakref.proxy(self))

    @cached_property
    def words(self) -> tuple[FockWord, ...]:
        """Every word, rebuilt from ``splits`` on first read; ``verify`` reads none."""
        return tuple(map(self.word, range(self.dim)))

    def word(self, i: int) -> FockWord:
        """Word i (0 <= i < dim): its first tile, then the word at its tail."""
        ts, splits = self.ts, self.splits
        split = splits[i]
        if split is None:  # the q markers, then the p markers
            kind = "q" if i < len(ts.edges_b) else "p"
            return FockWord(base_kind=kind, base=(ts.edges_b + ts.edges_a)[i])
        tiles, seps = [], []
        while True:
            head, sep, tail = split
            tiles.append(ts.tiles[head])
            if sep is None:
                return FockWord(tiles=tuple(tiles), seps=tuple(seps))
            seps.append(sep)
            split = splits[tail]


def _extensions(tiles) -> list[list[tuple[str, int]]]:
    """Per tile, the (separator, index) of every tile that may follow it, eta first."""
    return [
        [(SEP_ETA, k) for k, u in enumerate(tiles) if u.left == t.right]
        + [(SEP_RHO, k) for k, u in enumerate(tiles) if u.top == t.bottom]
        for t in tiles
    ]


def level_sizes(ts: TextileSystem, max_level: int) -> Iterator[int]:
    """Yield the number of words at each level 0..max_level, without
    building them.

    Words are counted by their last tile: a level-n word ending in tile i
    extends to one level-(n+1) word per eta- or rho-gluing of i to a tile.
    """
    n = len(ts.tiles)
    gluing = [[sum(k == u for _, k in ext) for u in range(n)] for ext in _extensions(ts.tiles)]
    yield len(ts.edges_a) + len(ts.edges_b)
    ending = [1] * n
    for _ in range(1, max_level + 1):
        yield sum(ending)
        ending = [sum(c * row[j] for c, row in zip(ending, gluing)) for j in range(n)]


def fock_basis(ts: TextileSystem, max_level: int, cap: int = DEFAULT_BASIS_CAP) -> TruncatedFock:
    """Enumerate the graded basis up to ``max_level``.

    Words at each level are generated in order: level 0 lists the B-edge
    markers then the A-edge markers; level n+1 extends each level-n word in
    order by (separator, tile), eta before rho.  Only the per-word columns
    are built (levels, splits, first tiles and terminal vertices), no word.
    Raises BasisTooLarge when a level from 2 on would exceed ``cap`` words,
    before any of them is built.
    """
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    for n, size in enumerate(level_sizes(ts, max_level)):
        if n >= 2 and size > cap:
            raise BasisTooLarge(f"level {n} would hold {size} words (cap {cap})")
    tiles = ts.tiles
    start = len(ts.edges_a) + len(ts.edges_b)
    levels = [0] * start + [1] * len(tiles)
    splits: list = [None] * start + [(k, None, None) for k in range(len(tiles))]
    heads: list = [None] * start + list(range(len(tiles)))
    vertices = [e.target for e in ts.edges_b + ts.edges_a] + [t.vertex for t in tiles]
    follow = _extensions(tiles)
    # the terminal vertex of every extension of a word ending in tile k
    follow_vertices = [[tiles[u].vertex for _, u in ext] for ext in follow]
    # a word and its tail end in the same tile, so both have the same
    # extensions in the same order: the tail of the k-th extension of a
    # word is the k-th extension of its tail
    first_child: dict[int, int] = {}
    level = [(start + k, k) for k in range(len(tiles))]  # (word index, last tile index)
    for depth in range(2, max_level + 1):
        nxt = []
        for i, last in level:
            first_child[i] = len(splits)
            head, first_sep, tail = splits[i]
            ext = follow[last]
            for k, (sep, u) in enumerate(ext):
                nxt.append((len(splits), u))
                if tail is None:
                    splits.append((head, sep, start + u))
                else:
                    splits.append((head, first_sep, first_child[tail] + k))
            heads.extend([head] * len(ext))
            vertices.extend(follow_vertices[last])
        levels.extend([depth] * len(nxt))
        level = nxt
    return TruncatedFock(
        ts=ts,
        max_level=max_level,
        levels=tuple(levels),
        splits=tuple(splits),
        heads=tuple(heads),
        vertices=tuple(vertices),
    )


class SparseOp:
    """Exact sparse matrix over a truncated word basis: a column-major dict
    ``{col: {row: value}}`` with no empty column and no zero entry; a diagonal
    is a ``_DiagonalOp``.  Products with a diagonal scale rows (on the left)
    or columns (on the right), and diagonals times diagonals stay diagonal."""

    __slots__ = ("tf", "cols")

    def __init__(self, tf: TruncatedFock, cols: dict[int, dict[int, object]] | None = None):
        self.tf = tf
        self.cols = {} if cols is None else cols

    @staticmethod
    def zero(tf: TruncatedFock) -> "SparseOp":
        return SparseOp(tf)

    @staticmethod
    def identity(tf: TruncatedFock) -> "_DiagonalOp":
        return _DiagonalOp(tf, dict.fromkeys(range(tf.dim), 1))

    @staticmethod
    def diagonal(tf: TruncatedFock, values) -> "_DiagonalOp":
        """Diagonal operator from one value per basis word."""
        return _DiagonalOp(tf, dict(itertools.compress(enumerate(values), values)))

    def column(self, c: int) -> dict[int, object]:
        """Column c, ``{}`` where it has no entry."""
        return self.cols.get(c, {})

    def entries(self):
        for c, col in self.cols.items():
            for r, v in col.items():
                yield r, c, v

    @staticmethod
    def sum(tf: TruncatedFock, ops) -> "SparseOp":
        """Sum in one pass: a column is copied when first met, cancelled entries
        dropped.  A sum of diagonals is a diagonal."""
        values: dict[int, object] = {}
        cols: dict[int, dict[int, object]] | None = None
        for op in ops:
            if cols is None:
                if type(op) is _DiagonalOp:
                    for c, v in op.values.items():
                        if total := values.get(c, 0) + v:
                            values[c] = total
                        else:
                            del values[c]
                    continue
                # an operand that is not diagonal: go on by columns from the sum so far
                cols = {c: {c: v} for c, v in values.items()}
            for c, col in op.cols.items():
                if (target := cols.get(c)) is None:
                    cols[c] = dict(col)
                    continue
                for r, v in col.items():
                    if total := target.get(r, 0) + v:
                        target[r] = total
                    else:
                        del target[r]
                if not target:
                    del cols[c]
        return _DiagonalOp(tf, values) if cols is None else SparseOp(tf, cols)

    def __add__(self, other: "SparseOp") -> "SparseOp":
        return SparseOp.sum(self.tf, (self, other))

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        return self.times(other)

    def times(self, other: "SparseOp", n: int | None = None) -> "SparseOp":
        """self @ other, or its columns 0..n-1 read off other's columns below
        n; no cut of other is built."""
        # a product with a diagonal factor multiplies nonzero entries only,
        # so nothing cancels on those paths
        diagonal = type(other) is _DiagonalOp
        right = other.values if diagonal else other.cols
        if n is None:
            items = right.items()
        else:  # the columns below n, found and read in C
            kept = [*filter(right.__contains__, range(n))]
            items = zip(kept, map(right.__getitem__, kept))
        if type(self) is _DiagonalOp:
            scalars = self.values
            if diagonal:
                return _DiagonalOp(self.tf, {c: scalars[c] * bv for c, bv in items if c in scalars})
            cols = {}
            for c, col in items:
                if acc := {r: scalars[r] * bv for r, bv in col.items() if r in scalars}:
                    cols[c] = acc
            return SparseOp(self.tf, cols)
        left = self.cols
        if diagonal:
            cols = {
                c: {r: av * bv for r, av in left_col.items()}
                for c, bv in items
                if (left_col := left.get(c))
            }
            return SparseOp(self.tf, cols)
        cols = {}
        for c, col in items:
            acc: dict[int, object] = {}
            for k, bv in col.items():
                left_col = left.get(k)
                if not left_col:
                    continue
                for r, av in left_col.items():
                    acc[r] = acc.get(r, 0) + av * bv
            if 0 in acc.values():  # signed entries cancelled
                acc = {r: v for r, v in acc.items() if v}
            if acc:
                cols[c] = acc
        return SparseOp(self.tf, cols)

    def transpose(self) -> "SparseOp":
        cols: dict[int, dict[int, object]] = {}
        for r, c, v in self.entries():
            cols.setdefault(r, {})[c] = v
        return SparseOp(self.tf, cols)

    def is_zero(self) -> bool:
        return not self.nnz()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOp):
            return NotImplemented
        return self.cols == other.cols

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols.values())


class _DiagonalOp(SparseOp):
    """A diagonal operator, stored as ``values = {col: value}`` with no zero;
    ``cols`` builds ``{c: {c: v}}`` on each read (tests, mixed sums)."""

    __slots__ = ("values",)

    def __init__(self, tf: TruncatedFock, values: dict[int, object]):
        self.tf = tf
        self.values = values

    @property
    def cols(self) -> dict[int, dict[int, object]]:
        return {c: {c: v} for c, v in self.values.items()}

    def column(self, c: int) -> dict[int, object]:
        v = self.values.get(c)
        return {} if v is None else {c: v}

    def entries(self):
        return ((c, c, v) for c, v in self.values.items())

    def transpose(self) -> "_DiagonalOp":
        return self

    def __eq__(self, other) -> bool:
        if type(other) is _DiagonalOp:
            return self.values == other.values
        if not isinstance(other, SparseOp):
            return NotImplemented
        # column by column, without building the {c: {c: v}} dict
        cols = other.cols
        return len(cols) == len(self.values) and all(
            (col := cols.get(c)) is not None and len(col) == 1 and col.get(c) == v
            for c, v in self.values.items()
        )

    def nnz(self) -> int:
        return len(self.values)


def adjoint(op: SparseOp) -> SparseOp:
    """Transpose; coincides with the adjoint for the vertex-valued pairing
    because every operator built here preserves terminal vertices."""
    return op.transpose()


def creation_from_vector(tf: TruncatedFock, kind: str, xi: QuadVector) -> SparseOp:
    """Creation operator of an arbitrary tile vector.

    ``s`` prepends with an eta separator and consumes the level-0 B-edge
    summand; ``t`` prepends with a rho separator and consumes the A-edge
    summand.  Words pushed past the top level are dropped (truncation).
    """
    ts = tf.ts
    # the level-0 marker each tile word comes from: q[right] for s, p[bottom] for t
    if kind == "s":
        sep, markers = SEP_ETA, [ts.edges_b.index(t.right) for t in ts.tiles]
    else:
        first_p = len(ts.edges_b)  # the p markers follow the q markers
        sep, markers = SEP_RHO, [first_p + ts.edges_a.index(t.bottom) for t in ts.tiles]
    coeffs = xi.coeffs
    cols: dict[int, dict[int, object]] = {}
    for j in range(len(ts.edges_a) + len(ts.edges_b), tf.dim):
        head, first_sep, tail = tf.splits[j]
        c = coeffs[head]
        if not c:
            continue
        if first_sep is None:
            cols.setdefault(markers[head], {})[j] = c
        elif first_sep == sep:
            cols.setdefault(tail, {})[j] = c
    return SparseOp(tf, cols)


def creation(tf: TruncatedFock, kind: str, edge: Edge) -> SparseOp:
    """s_alpha (kind 's', A-edge) or t_a (kind 't', B-edge)."""
    ts = tf.ts
    if kind == "s":
        own, other, side, layer = ts.edges_a, ts.edges_b, "top", "an A"
    elif kind == "t":
        own, other, side, layer = ts.edges_b, ts.edges_a, "left", "a B"
    else:
        raise ValueError(f"kind must be 's' or 't', got {kind!r}")
    if edge not in own:
        raise (LayerMismatch if edge in other else UnknownEdge)(
            f"{edge.id} is not {layer}-layer edge"
        )
    xi = QuadVector(coeffs=tuple(int(getattr(t, side) == edge) for t in ts.tiles))
    return creation_from_vector(tf, kind, xi)


def _exact(c):
    """An integral coefficient as int, any other as it is."""
    return c.numerator if c.denominator == 1 else c


def _by_first_tile(tf: TruncatedFock, marker_values, tile_values, n: int | None = None) -> list:
    """Per word of the first n: its value in ``marker_values`` on level 0 (the
    q markers, then the p markers), else its first tile's value."""
    start = len(marker_values)
    return marker_values[:n] + list(map(tile_values.__getitem__, itertools.islice(tf.heads, start, n)))


def left_action_op(tf: TruncatedFock, kind: str, elem: EdgeElem, n: int | None = None) -> SparseOp:
    """Diagonal left action of an edge vector, on the first n words (all by default).

    rho reads the first tile's top edge (level 0: scales A-edge markers);
    eta reads the first tile's left edge (level 0: scales B-edge markers).
    """
    ts = tf.ts
    if kind == "rho":
        if elem.layer != LAYER_A:
            raise LayerMismatch("rho action takes an A-layer vector")
        side = "top"
    elif kind == "eta":
        if elem.layer != LAYER_B:
            raise LayerMismatch("eta action takes a B-layer vector")
        side = "left"
    else:
        raise ValueError(f"kind must be 'rho' or 'eta', got {kind!r}")
    coeff = {e: _exact(c) for e, c in zip(ts.edges(elem.layer), elem.coeffs)}
    markers = [coeff.get(e, 0) for e in ts.edges_b + ts.edges_a]
    values = _by_first_tile(tf, markers, [coeff[getattr(t, side)] for t in ts.tiles], n)
    return SparseOp.diagonal(tf, values)


def vertex_action_op(tf: TruncatedFock, y: DiagElem) -> SparseOp:
    """Diagonal action of a vertex vector through the first tile's source.

    On words it scales by y at the source of the first tile's top edge (equal
    to the source of its left edge); level-0 markers are scaled by y at their
    edge's source on each summand.  Only used inside identities whose other
    factors vanish on level 0, where the two level-0 conventions cannot
    disagree.
    """
    ts = tf.ts
    at = [None] + [_exact(c) for c in y.coeffs]  # 1-based vertices
    markers = [at[e.source] for e in ts.edges_b + ts.edges_a]
    values = _by_first_tile(tf, markers, [at[t.top.source] for t in ts.tiles])
    return SparseOp.diagonal(tf, values)


def graded_projection(tf: TruncatedFock, which, n: int | None = None) -> SparseOp:
    """P_n ('level', n), or the first-separator projections 'rho' / 'eta'.

    'rho' keeps the words of level >= 2 whose first separator is eta (the
    range of the s-family above level 1); 'eta' keeps first separator rho.
    """
    if which == "level":
        return SparseOp.diagonal(tf, [int(lv == n) for lv in tf.levels])
    if which in ("rho", "eta"):
        sep = SEP_ETA if which == "rho" else SEP_RHO
        return SparseOp.diagonal(tf, [1 if split and split[1] == sep else 0 for split in tf.splits])
    raise ValueError(f"which must be 'level', 'rho' or 'eta', got {which!r}")


def rank_one(tf: TruncatedFock, xi, zeta) -> SparseOp:
    """theta_{xi,zeta}: gamma -> xi scaled by the vertex pairing <zeta|gamma>.

    ``xi`` and ``zeta`` are vectors over the truncated basis (any indexable).
    Sends basis word W to sum_W' xi(W') zeta(W) [vertex(W') == vertex(W)] W'.
    """
    vertices = tf.vertices
    # the supports, found by a scan in C, and xi's grouped by terminal vertex
    xi_at: dict[int, list] = {}
    for i in itertools.compress(itertools.count(), xi):
        xi_at.setdefault(vertices[i], []).append((i, xi[i]))
    cols: dict[int, dict[int, object]] = {}
    for j in itertools.compress(itertools.count(), zeta):
        if same := xi_at.get(vertices[j]):
            z = zeta[j]
            cols[j] = {i: v * z for i, v in same}
    return SparseOp(tf, cols)


def basis_vector(tf: TruncatedFock, word: FockWord):
    vec = [0] * tf.dim
    vec[tf.index[word]] = 1
    return vec


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


@dataclass
class IdentityCheck:
    identity_id: str
    formula: str
    margin: int
    levels_checked: tuple[int, int] | None
    status: str  # 'pass' | 'fail' | 'skipped'
    notice: str | None = None
    witness: dict | None = None

    def to_jsonable(self) -> dict:
        out = {
            "identity_id": self.identity_id,
            "formula": self.formula,
            "levels_checked": list(self.levels_checked) if self.levels_checked else None,
            "status": self.status,
        }
        if self.notice:
            out["notice"] = self.notice
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    title: str
    max_level: int
    checks: list[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def skipped(self) -> list[str]:
        return [c.identity_id for c in self.checks if c.status == "skipped"]

    def to_jsonable(self) -> dict:
        return {
            "title": self.title,
            "max_level": self.max_level,
            "passed": self.passed,
            "identities": [c.to_jsonable() for c in self.checks],
        }


def _differences(tf: TruncatedFock, cases, high: int) -> list:
    """(case, {(row, col): (lhs, rhs)}) for the entries on levels <= high, the words
    0..n-1, where the two sides of a case differ, divided by the case's optional
    4th item (a denominator of both sides); empty maps when all are equal."""
    n = tf.prefix(high)
    out = []
    for label, lhs, rhs, *den in cases:
        diff = {}
        walked = range(n) if lhs != rhs else ()  # sides equal as wholes agree on the block
        # each side's column reader, bound once: None or {} where it has no entry
        left_at, right_at = (op.column if type(op) is _DiagonalOp else op.cols.get for op in (lhs, rhs))
        for c in walked:
            left, right = left_at(c) or {}, right_at(c) or {}
            if left == right:
                continue
            for r in left.keys() | right.keys():
                a, b = left.get(r, 0), right.get(r, 0)
                if r < n and a != b:
                    diff[r, c] = (Fraction(a, *den), Fraction(b, *den)) if den else (a, b)
        out.append((label, diff))
    return out


def _witness(tf: TruncatedFock, cases, low: int) -> dict | None:
    """The first differing entry, by column then row, of the first case
    that differs on levels >= low; None when every case agrees there."""
    levels = tf.levels
    for label, diff in cases:
        block = [(c, r) for r, c in diff if min(levels[r], levels[c]) >= low]
        if block:
            col, row = min(block)
            lhs, rhs = diff[row, col]
            return {
                "case": label,
                "row": tf.word(row).label(),
                "col": tf.word(col).label(),
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
    return None


class _Layer:
    """One creation family with the operators its mirrored relations use.

    The horizontal layer is s over the A-edges with diagonal p, whose edge
    algebra acts through rho; the vertical one is t over the B-edges with
    diagonal q, acting through eta.
    """

    def __init__(self, bank, index, name, own, act, layer, unit_vector, inner, corner):
        tf, ts = bank.tf, bank.ts
        self.tf, self.index, self.name, self.own, self.act = tf, index, name, own, act
        self.unit_vector, self.inner, self.corner = unit_vector, inner, corner
        self.edges = ts.edges(layer)
        self.op = {x: creation(tf, name, x) for x in self.edges}
        self.adj = {x: adjoint(op) for x, op in self.op.items()}
        self.diag = {x: left_action_op(tf, act, EdgeElem.basis(ts, x)) for x in self.edges}
        self.range = {x: bank.product(bank.widest, self.op[x], self.adj[x]) for x in self.edges}
        self.range_proj = graded_projection(tf, act)
        self.vertex = {
            v: left_action_op(tf, act, embed(ts, layer, DiagElem.basis(ts.n_vertices, v)))
            for v in range(1, ts.n_vertices + 1)
        }

    @cached_property
    def range_sum(self) -> SparseOp:
        return SparseOp.sum(self.tf, self.range.values())

    @cached_property
    def initial(self) -> dict[Edge, SparseOp]:
        return {x: self.adj[x] @ self.op[x] for x in self.edges}

    def edge_of(self, pair) -> Edge:
        return getattr(pair, self.corner)


class _Bank:
    """The operators of one basis: primitive ones with integer entries, the
    products several identities share, and each builder's differences."""

    def __init__(self, tf: TruncatedFock):
        self.tf = tf
        self.ts = ts = tf.ts
        # every row that reads the shared products has margin >= 1
        self.widest = tf.prefix(tf.max_level - 1)
        self.layers = (
            _Layer(self, 0, "s", "p", "rho", LAYER_A, top_basis_vector, inner_eta, "alpha"),
            _Layer(self, 1, "t", "q", "eta", LAYER_B, left_basis_vector, inner_rho, "a"),
        )
        # each layer with its opposite one
        self.mirrored = (self.layers, self.layers[::-1])
        self.zero = SparseOp.zero(tf)
        self.identity = SparseOp.identity(tf)
        self.p0 = graded_projection(tf, "level", 0)
        self.p1 = graded_projection(tf, "level", 1)
        self.vertex = {
            v: vertex_action_op(tf, DiagElem.basis(ts.n_vertices, v))
            for v in range(1, ts.n_vertices + 1)
        }
        self._differences: dict = {}

    def differences(self, builder, margin: int) -> list:
        """The builder's cases, given the block bound n, compared on levels <= L - margin, computed once."""
        key = (builder, margin)
        if key not in self._differences:
            high = self.tf.max_level - margin
            self._differences[key] = _differences(self.tf, builder(self, self.tf.prefix(high)), high)
        return self._differences[key]

    def product(self, n: int, *factors: SparseOp) -> SparseOp:
        """Columns 0..n-1 of F1 ... Fk, right to left from the columns of Fk below n:
        F1 (... (Fk[:, c])).  A lone factor is cut to them (a diagonal stays
        diagonal), or returned itself when n spans the basis."""
        *left, last = factors
        if left:
            return reduce(lambda out, op: op @ out, reversed(left[:-1]), left[-1].times(last, n))
        if n >= self.tf.dim:
            return last
        if type(last) is _DiagonalOp:
            values = last.values
            return _DiagonalOp(self.tf, {c: values[c] for c in range(n) if c in values})
        cols = last.cols
        return SparseOp(self.tf, {c: cols[c] for c in range(n) if c in cols})

    def sum(self, n: int, *ops: SparseOp) -> SparseOp:
        """Columns 0..n-1 of the sum, from each operand cut to them."""
        return SparseOp.sum(self.tf, (self.product(n, op) for op in ops))

    @cached_property
    def quad(self) -> tuple:
        """(A_kappa, B_kappa), indexed by layer."""
        return build_quad_matrices(self.ts)[:2]

    @cached_property
    def e(self) -> dict:
        """Corner projections e = p q, in corner-pair order."""
        h, v = self.layers
        return {pair: h.diag[pair.alpha] @ v.diag[pair.a] for pair in self.ts.omega}

    @cached_property
    def generators(self) -> tuple[dict, dict]:
        """S = e s and T = e t per corner pair."""
        return tuple(
            {pair: e @ lay.op[lay.edge_of(pair)] for pair, e in self.e.items()}
            for lay in self.layers
        )

    @cached_property
    def generator_ranges(self) -> dict:
        """SS* + TT* per corner pair, on the widest block."""
        return {
            pair: SparseOp.sum(self.tf, (self.product(self.widest, g[pair], adjoint(g[pair])) for g in self.generators))
            for pair in self.e
        }


# Builders: each yields (case, lhs, rhs) triples for one bank, given the
# block bound n of the comparison: every side is ``bank.product(n, ...)``
# or ``bank.sum(n, ...)``, so no column past the block is computed or kept.
# Mirrored relations loop over the two layers; names in labels come from
# the layer (s/t for the creation family, p/q for its diagonal).


def _creation_range(bank, n):
    for lay in bank.layers:
        yield f"{lay.name}-family", bank.product(n, lay.range_sum), bank.sum(n, bank.p1, lay.range_proj)


def _range_partition(bank, n):
    h, v = bank.layers
    yield "", bank.sum(n, h.range_sum, v.range_sum, bank.p0), bank.sum(n, bank.identity, bank.p1)


def _co_isometry(bank, n):
    tf, ts = bank.tf, bank.ts
    for lay, oth in bank.mirrored:
        name = lay.name
        for x, z in itertools.product(lay.edges, repeat=2):
            pairing = lay.inner(ts, lay.unit_vector(ts, z), lay.unit_vector(ts, x))
            lhs = bank.product(n, lay.initial[x]) if z == x else bank.product(n, lay.adj[z], lay.op[x])
            yield f"{name}*[{z.id}]{name}[{x.id}]", lhs, left_action_op(tf, oth.act, pairing, n)


def _vertex_sandwich(bank, n):
    for lay, oth in bank.mirrored:
        for x in lay.edges:
            for v, phi in bank.vertex.items():
                rhs = bank.product(n, oth.vertex[x.target] if v == x.source else bank.zero)
                yield f"{lay.name}*[{x.id}] E{v} {lay.name}", bank.product(n, lay.adj[x], phi, lay.op[x]), rhs


def _vertex_commutation(bank, n):
    for lay, oth in bank.mirrored:
        for x, rng in lay.range.items():
            for v, phi in bank.vertex.items():
                label = f"[{lay.name}{lay.name}*[{x.id}], E{v}]"
                yield label, bank.product(n, rng, oth.vertex[v]), bank.product(n, phi, rng)


def _tile_word_commutation(bank, n):
    h, v = bank.layers
    for tile in bank.ts.tiles:
        word = (v.op[tile.left], h.op[tile.bottom], v.adj[tile.right], h.adj[tile.top])
        for k, phi in bank.vertex.items():
            yield f"tile {tile!r}, E{k}", bank.product(n, *word, phi), bank.product(n, phi, *word)


def _compressed_range(bank, n):
    # the compressed element of a vertex mass at v through an edge is
    # nonzero only at v = r(edge); both branches are exercised
    for lay in bank.layers:
        for x in lay.edges:
            for v, phi in lay.vertex.items():
                lhs = bank.product(n, lay.diag[x], lay.range_proj) if v == x.target else bank.zero
                yield f"{lay.own}[{x.id}] from E{v}", lhs, bank.product(n, lay.op[x], phi, lay.adj[x])


def _diagonal_commutation(bank, n):
    diagonals = [(f"{lay.own}[{d.id}]", op) for lay in bank.layers for d, op in lay.diag.items()]
    for lay in bank.layers:
        for x, rng in lay.range.items():
            for name, op in diagonals:
                label = f"[{lay.name}{lay.name}*[{x.id}], {name}]"
                yield label, bank.product(n, rng, op), bank.product(n, op, rng)


def _same_layer_compression(bank, n):
    for lay, oth in bank.mirrored:
        for x in lay.edges:
            for d, op in lay.diag.items():
                rhs = bank.product(n, oth.vertex[x.target] if d == x else bank.zero)
                label = f"{lay.name}*[{x.id}] {lay.own}[{d.id}] {lay.name}"
                yield label, bank.product(n, lay.adj[x], op, lay.op[x]), rhs


def _cross_layer_pullback(bank, n):
    for lay, oth in bank.mirrored:
        for x in lay.edges:
            for d, op in oth.diag.items():
                twisted = pullback_along_kappa(bank.ts, x, EdgeElem.basis(bank.ts, d))
                label = f"{lay.name}*[{x.id}] {oth.own}[{d.id}] {lay.name}"
                lhs = bank.product(n, lay.adj[x], op, lay.op[x])
                yield label, lhs, left_action_op(bank.tf, oth.act, twisted, n)


def _diagonal_reconstruction(bank, n):
    # only the matching creation term survives: compressing p_gamma
    # through s_alpha gives the range mass when alpha == gamma, else 0
    for lay, oth in bank.mirrored:
        for g, op in lay.diag.items():
            rhs = (
                bank.product(n, lay.op[g], oth.vertex[g.target], lay.adj[g])
                + bank.product(n, oth.range_proj, op, oth.range_proj)
                + bank.product(n, bank.p0, op, bank.p0)
            )
            yield f"{lay.own}[{g.id}]", bank.product(n, op), rhs


def _rank_one_partition(bank, n, level: int):
    tf = bank.tf
    positions = range(tf.prefix(level - 1), tf.prefix(level))
    units = ([0] * i + [1] + [0] * (tf.dim - i - 1) for i in positions)
    total = SparseOp.sum(tf, (rank_one(tf, vec, vec) for vec in units))
    yield "", bank.product(n, total), bank.product(n, (bank.p0, bank.p1)[level])


def _creation_expansion(bank, n):
    # both sides times the lcm d of xi's denominators, so all entries are ints
    tf, ts = bank.tf, bank.ts
    for tag, xi in _seeded_tile_vectors(ts):
        d = math.lcm(*(c.denominator for c in xi.coeffs))
        xi = QuadVector(coeffs=tuple(int(c * d) for c in xi.coeffs))
        for lay, oth in bank.mirrored:
            pairings = ((x, lay.inner(ts, lay.unit_vector(ts, x), xi)) for x in lay.edges)
            terms = (bank.product(n, lay.op[x], left_action_op(tf, oth.act, w, n)) for x, w in pairings)
            lhs = creation_from_vector(tf, lay.name, xi)
            yield f"{lay.name}[{tag}]", bank.product(n, lhs), SparseOp.sum(tf, terms), d


def _unit_partition(bank, n):
    h, v = bank.layers
    yield "sum ss* + tt*", bank.sum(n, h.range_sum, v.range_sum), bank.product(n, bank.identity)


def _edge_sums(bank, n):
    for lay in bank.layers:
        yield f"sum {lay.own}", bank.sum(n, *lay.diag.values()), bank.product(n, bank.identity)


def _embedding_agreement(bank, n):
    h, v = bank.layers
    for k in bank.vertex:
        yield f"E{k}", bank.product(n, h.vertex[k]), bank.product(n, v.vertex[k])


def _range_proj_support(bank, n):
    for lay in bank.layers:
        for x, rng in lay.range.items():
            yield f"{lay.name}{lay.name}*[{x.id}] {lay.own}", bank.product(n, rng, lay.diag[x]), bank.product(n, rng)


def _initial_sums(bank, n, cross: bool):
    # u*u is the sum of the diagonal over the edges that can follow u, in
    # its own layer or (cross) the opposite one
    for lay, oth in bank.mirrored:
        diag = oth.diag if cross else lay.diag
        for x in lay.edges:
            rhs = bank.sum(n, *(op for d, op in diag.items() if d.source == x.target))
            yield f"{lay.name}*{lay.name}[{x.id}]", bank.product(n, lay.initial[x]), rhs


def _corner_commutation(bank, n):
    h, v = bank.layers
    for alpha, p in h.diag.items():
        for a, q in v.diag.items():
            yield f"[p[{alpha.id}], q[{a.id}]]", bank.product(n, p, q), bank.product(n, q, p)


def _shared_range_initials(bank, n):
    h, v = bank.layers
    for alpha in h.edges:
        for a in v.edges:
            if alpha.target == a.target:
                yield f"s*s[{alpha.id}] = t*t[{a.id}]", bank.product(n, h.initial[alpha]), bank.product(n, v.initial[a])


def _corner_partition(bank, n):
    yield "sum e", bank.sum(n, *bank.e.values()), bank.product(n, bank.identity)


def _range_proj_corner_refinement(bank, n):
    for lay in bank.layers:
        for x, rng in lay.range.items():
            corners = [e for pair, e in bank.e.items() if lay.edge_of(pair) == x]
            label = f"{lay.name}{lay.name}*[{x.id}] via e"
            yield f"{label} (right)", bank.product(n, rng), SparseOp.sum(bank.tf, (bank.product(n, rng, e) for e in corners))
            yield f"{label} (left)", bank.product(n, rng), SparseOp.sum(bank.tf, (bank.product(n, e, rng) for e in corners))


def _corner_transition(bank, n):
    corners = list(bank.e.values())
    for i, (pair, e) in enumerate(bank.e.items()):
        for lay in bank.layers:
            x = lay.edge_of(pair)
            rhs = bank.sum(n, *(f for f, keep in zip(corners, bank.quad[lay.index][i]) if keep))
            yield f"{lay.name}*[{x.id}] e {lay.name} (row {i})", bank.product(n, lay.adj[x], e, lay.op[x]), rhs


def _generator_partition(bank, n):
    yield "", bank.sum(n, *bank.generator_ranges.values()), bank.product(n, bank.identity)


def _generator_transition(bank, n, index: int):
    ranges = list(bank.generator_ranges.values())
    for i, gen in enumerate(bank.generators[index].values()):
        rhs = bank.sum(n, *(r for r, keep in zip(ranges, bank.quad[index][i]) if keep))
        yield f"row {i}", bank.product(n, adjoint(gen), gen), rhs


def _corner_decomposition(bank, n):
    for pair, e in bank.e.items():
        yield f"({pair.alpha.id},{pair.a.id})", bank.product(n, e), bank.product(n, bank.generator_ranges[pair])


class _Row(NamedTuple):
    report: str
    identity_id: str
    formula: str
    margin: int
    low: int
    builders: tuple


WORDS, RELATIONS, GENERATORS = "identity", "relation", "generator"
# report -> (title, the smallest max_level it runs on)
_REPORTS = {
    WORDS: ("word-space identities", 3),
    RELATIONS: ("universal relations", 4),
    GENERATORS: ("corner generators", 4),
}

# Every checked identity.  Rows that share a builder are twins: its cases
# are computed once per basis and compared on each row's own block
# [low, L - margin].
_TABLE = (
    _Row(WORDS, "creation_range", "sum_a s_a s_a* = P1 + Prho ; sum_b t_b t_b* = P1 + Peta", 1, 0, (_creation_range,)),
    _Row(WORDS, "range_partition", "sum ss* + sum tt* + P0 = 1 + P1", 1, 0, (_range_partition,)),
    _Row(WORDS, "co_isometry", "s_z* s_x = act_eta(<z|x>_eta) ; t_z* t_x = act_rho(<z|x>_rho)", 1, 0, (_co_isometry,)),
    _Row(WORDS, "vertex_sandwich", "s_a* phi(y) s_a = act_eta(edge_map_a(y))", 2, 0, (_vertex_sandwich,)),
    _Row(WORDS, "vertex_commutation", "s_a s_a* phi(y) = phi(y) s_a s_a*", 1, 0, (_vertex_commutation,)),
    _Row(WORDS, "tile_word_commutation", "t_a s_beta t_b* s_alpha* phi(y) = phi(y) (same word)", 4, 0, (_tile_word_commutation,)),
    _Row(WORDS, "compressed_range", "act_rho(p_a) Prho = s_a act_rho(E_{r(a)}) s_a*", 2, 0, (_compressed_range,)),
    _Row(WORDS, "diagonal_commutation", "s_a s_a* D = D s_a s_a* for diagonal D", 1, 0, (_diagonal_commutation,)),
    _Row(WORDS, "twisted_sandwich", "s_a* D s_a = act(pullback of D along kappa)", 2, 0, (_same_layer_compression, _cross_layer_pullback)),
    _Row(WORDS, "diagonal_reconstruction", "act_rho(w) = sum_a s_a act_eta(w_a) s_a* + Peta.. + P0..", 2, 0, (_diagonal_reconstruction,)),
    _Row(WORDS, "base_rank_one_partition", "sum theta(edge markers) = P0", 0, 0, (partial(_rank_one_partition, level=0),)),
    _Row(WORDS, "tile_rank_one_partition", "sum theta(tile words) = P1", 0, 0, (partial(_rank_one_partition, level=1),)),
    _Row(WORDS, "creation_expansion", "s_x = sum_a s_a act_eta(<u_a|x>_eta)", 1, 0, (_creation_expansion,)),
    _Row(RELATIONS, "unit_partition_interior", "sum uu* + sum vv* = 1", 1, 2, (_unit_partition,)),
    _Row(RELATIONS, "unit_partition_uncut", "sum ss* + sum tt* + P0 = 1 + P1", 1, 0, (_range_partition,)),
    _Row(RELATIONS, "range_proj_diag_commutation", "uu* w = w uu*, vv* w = w vv* (w, z diagonal)", 1, 2, (_diagonal_commutation,)),
    _Row(RELATIONS, "same_layer_compression", "u* w u = compress(w), v* z v = compress(z)", 2, 2, (_same_layer_compression,)),
    _Row(RELATIONS, "cross_layer_pullback", "u* z u = pullback(z), v* w v = pullback(w)", 2, 2, (_cross_layer_pullback,)),
    _Row(RELATIONS, "embedding_agreement", "source embedding acts equally through both layers", 0, 2, (_embedding_agreement,)),
    _Row(RELATIONS, "edge_partitions", "sum p = sum q = sum uu* + vv* = 1", 1, 2, (_edge_sums, _unit_partition)),
    _Row(RELATIONS, "range_proj_support", "uu* p_u = uu*, vv* q_v = vv*", 1, 2, (_range_proj_support,)),
    _Row(RELATIONS, "cross_proj_commutation", "[uu*, q] = 0, [vv*, p] = 0", 1, 2, (_diagonal_commutation,)),
    _Row(RELATIONS, "initial_projections", "u*u = sum of p over following edges (and v*v dually)", 1, 2, (partial(_initial_sums, cross=False),)),
    _Row(RELATIONS, "corner_selection", "u* q u and v* p v select tiles with the fixed corner", 2, 2, (_cross_layer_pullback,)),
    _Row(RELATIONS, "corner_projection_commutation", "p and q commute", 0, 2, (_corner_commutation,)),
    _Row(RELATIONS, "initial_support_by_composability", "u*u = sum of q over composable edges", 1, 2, (partial(_initial_sums, cross=True),)),
    _Row(RELATIONS, "shared_range_initials", "r(alpha) = r(a) forces u*u = v*v", 1, 2, (_shared_range_initials,)),
    _Row(RELATIONS, "corner_partition", "sum over corner pairs of e = 1", 1, 2, (_corner_partition,)),
    _Row(RELATIONS, "range_proj_corner_refinement", "uu* = sum_a uu* e = sum_a e uu*", 1, 2, (_range_proj_corner_refinement,)),
    _Row(RELATIONS, "corner_transition", "u* e u = row of the horizontal matrix over e (vertical dual)", 2, 2, (_corner_transition,)),
    _Row(RELATIONS, "vertex_commutation_quotient", "[uu*, y] = [vv*, y] = 0 for vertex y", 1, 2, (_vertex_commutation,)),
    _Row(RELATIONS, "vertex_compression_quotient", "u* y u and v* y v move vertex masses along edges", 2, 2, (_vertex_sandwich,)),
    _Row(GENERATORS, "generator_partition", "sum SS* + sum TT* = 1", 2, 2, (_generator_partition,)),
    _Row(GENERATORS, "horizontal_transition", "S*S = sum A[(row),(col)] (SS* + TT*)", 2, 2, (partial(_generator_transition, index=0),)),
    _Row(GENERATORS, "vertical_transition", "T*T = sum B[(row),(col)] (SS* + TT*)", 2, 2, (partial(_generator_transition, index=1),)),
    _Row(GENERATORS, "corner_decomposition", "e = SS* + TT*", 2, 2, (_corner_decomposition,)),
)


def _run(tf: TruncatedFock, report: str, identities=None, headroom: int = 1) -> Report:
    """Compare every row of one report on its block; the one comparison runner.

    A row whose top level L - m falls below ``headroom`` is skipped with a
    named notice, or raises TruncationTooShallow when it was asked for by id.
    """
    title, depth = _REPORTS[report]
    if tf.max_level < depth:
        raise TruncationTooShallow(f"the {report} suite needs max_level >= {depth}")
    bank = tf._bank
    checks = []
    for row in _TABLE:
        if row.report != report or (identities is not None and row.identity_id not in identities):
            continue
        high = tf.max_level - row.margin
        if high < headroom:
            needs = f"needs max_level >= {row.margin + headroom}"
            if identities is not None:
                raise TruncationTooShallow(
                    f"identity {row.identity_id!r} {needs}, basis has {tf.max_level}"
                )
            notice = f"{needs}, basis has {tf.max_level}"
            checks.append(
                IdentityCheck(row.identity_id, row.formula, row.margin, None, "skipped", notice)
            )
            continue
        cases = itertools.chain.from_iterable(
            bank.differences(builder, row.margin) for builder in row.builders
        )
        witness = _witness(tf, cases, row.low)
        checks.append(
            IdentityCheck(
                row.identity_id,
                row.formula,
                row.margin,
                (row.low, high),
                "fail" if witness else "pass",
                witness=witness,
            )
        )
    return Report(title=title, max_level=tf.max_level, checks=checks)


def _seeded_tile_vectors(ts: TextileSystem, count=2, seed=20240311):
    import random

    rng = random.Random(seed)
    out = []
    for k in range(count):
        values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in ts.tiles]
        out.append((f"rand{k}", QuadVector.from_values(ts, values)))
    return out


def verify_fock_identities(
    tf: TruncatedFock, identities: list[str] | None = None, headroom: int = 1
) -> Report:
    """Check the word-space operator identities on their safe blocks.

    Each identity carries a margin m and is compared on rows and columns of
    level <= L - m.  Identities with L - m < headroom are skipped with a
    named notice when running the full default suite; explicitly requesting
    such an identity raises TruncationTooShallow.
    """
    if identities is not None:
        unknown = set(identities) - {r.identity_id for r in _TABLE if r.report == WORDS}
        if unknown:
            raise ValueError(f"unknown identity ids: {sorted(unknown)}")
    return _run(tf, WORDS, identities, headroom)


def verify_relations_hk(tf: TruncatedFock) -> Report:
    """Check the universal-algebra relations in the truncated representation.

    The creation families stand in for the generating partial isometries
    and the diagonal edge actions for the coefficient algebras.  Each
    relation is compared on interior levels [2, L - m] where the level-0/1
    corrections of the range partition vanish; the one genuinely uncut
    identity is also checked from level 0.
    """
    return _run(tf, RELATIONS)


def ck_generators(tf: TruncatedFock):
    """Corner-cut generators and their Cuntz-Krieger relation report.

    Builds S = e u and T = e v for every corner pair, then verifies the
    partition of unity, both transition relations against the block
    matrices, and the corner decomposition e = SS* + TT*, all on interior
    levels [2, L-2].  Returns ({pair: S}, {pair: T}, report).
    """
    report = _run(tf, GENERATORS)
    # the bank's operators refer to the basis weakly; hand out ones that
    # keep it alive
    s_ops, t_ops = (
        {pair: SparseOp(tf, op.cols) for pair, op in ops.items()} for ops in tf._bank.generators
    )
    return s_ops, t_ops, report
