"""Graded word spaces of glued tiles, creation operators, identity checks.

The graded space has the two edge algebras at level 0 (one basis word per
B-edge, then one per A-edge, laid out once in ``TruncatedFock.markers``),
the tiles at level 1, and at level n the length-n tile words glued by a
separator sequence: an ``eta`` separator demands left(next) ==
right(previous), a ``rho`` separator demands top(next) == bottom(previous).
Everything is truncated at a chosen top level L.

Operators are exact integer sparse matrices over that basis.  The two
creation families prepend a tile (raising the level by one), diagonal
operators read an edge of the first tile, and adjoints are transposes:
every primitive operator here maps basis words to basis words with the
same terminal vertex, which makes the transpose the adjoint for the
vertex-valued pairing.  The basis records each word as (first tile,
first separator, tail) (``TruncatedFock.splits``) and is built that way,
prepending tiles to runs of the level below.  So a creation operator is
one pass over the target words: a tile word comes from a level-0 marker,
a deeper one from its tail.  The basis is these split records and the
index where each level starts (``TruncatedFock.starts``): no word object
is built, and ``TruncatedFock.word`` rebuilds a ``FockWord`` from the
splits when one is read (witness labels, ``rank_one``; ``words`` for
tests).  An operator is its entries alone and holds no basis.

Truncation semantics: a product of operators computed on the truncated
basis agrees with the untruncated product on any column whose intermediate
images never leave the basis.  Each verified identity therefore carries a
margin m and its block is the rows and columns at levels [low, L - m]:
low = 0 (identity suite) or the interior levels from 2 (relation suite),
where the level-0/1 corrections are provably absent.

Every bank operator is prefix-local, with a shape (d, r, s): it sends a word
u.v, u of d tiles and the separator after them, to sum c u'.v, u' of d - s
tiles, c fixed by u and the first tile of v, and reads no word over r levels
above u.v.  The bank sets the shape per kind of primitive: a creation
(0, 1, -1), its adjoint (1, 0, 1), the first-separator projections
(1, 0, 0), every other diagonal (0, 0, 0).  P0, P1 and the rank-one sums
vanish from level 2 on, which holds every column the argument below moves,
so they count as (0, 0, 0) if no strip acts before them.  F G (G first) has
shape (max(d_G, d_F + s_G), max(r_G, r_F - s_G), s_F + s_G), a sum the
largest of each component, and a row's (d, r) is the largest over its
builders' sides, folded once per process (``_BUILDER_SHAPES``).  A
difference in a column deeper than d + max(1, low) thus also shows in the
column of that prefix, at a row of level >= low, and that column comes
first since levels never decrease.  So the witness (the block's first
difference) lies in a column of level <= c = min(L - m, d + max(1, low)),
and a row builds and compares only those columns, its rows still cut at
L - m: its status, witness and ``levels_checked`` are the whole block's.
Ids that share a builder at one margin take it at the widest c among them.

The columns of level <= c are the first n words.  Each product runs right
to left from the columns of its last factor below n, exactly, as column c
of F1 ... Fk is F1 (... (Fk[:, c])).  The first multiplication reads those
columns off Fk itself (``SparseOp.times``), so no cut of Fk is built; only a
lone factor is cut, unless n spans the basis.  Every compared side holds only
these columns.  Primitives and shared products stay whole on the bank's
basis; a diagonal lone factor is cut to a diagonal.

On its columns a row's products read no word above c + r, and none above
L0, the largest c + r over the rows that run (``_depth``): 4 from L = 5
on, set by the transition rows, d = r = 1.  So every entry point decides
on a bank over the first min(L, L0) levels: ``verify_level`` (the CLI's)
builds only those, and each library call takes them from the basis it is
given (``TruncatedFock.up_to``).  The cap, ``max_level``,
``levels_checked``, skips and errors are decided at L, the cap and then
each report's plan (``_plan``: its rows, their skips and every refusal)
before any basis or bank is built; a difference above L0 would show at
its compared prefixes.

Diagonal operators (edge and vertex actions, range and level projections,
the identity and e) are ``_DiagonalOp``s: one value per word, read off the
basis (an edge action off each word's first tile, the head of its split;
a level-0 marker off the edge lists).  The bank's vertex action phi(y) is
layer A's (rho of the source embedding).  It differs from layer B's only on
level 0, which no product that reads it reaches: s and t map into level
>= 1, and s* and t* vanish there.  A product with a diagonal scales the
rows or columns of the other factor, a product or sum of diagonals is a
diagonal, and a diagonal is its own transpose.

Operators are values, never changed once built, so they may share column
dicts.  Every composable pair is the corner of exactly one tile, so s_x,
t_a and their adjoints are partial permutations (one entry per column):
most product columns are an operand's column, kept or scaled once, and
``SparseOp.sum`` copies a column only when a second operand adds to it.

Identity checks: every checked identity of the three reports (word-space
identities, universal relations, corner generators) is one row of the
table ``_TABLE``: report, id, formula, margin m, lowest compared level
and the builders of its (case, lhs, rhs) triples.  Relations
come in mirrored pairs, s over the A-edges with diagonal p and t over the
B-edges with diagonal q; each builder is written once over a ``_Layer``
record and loops over both.  ``_run`` is the one runner: it compares the
sides of every row and reports the first differing entry of the row's
block [low, L - m] as the witness.

One ``_Bank`` per decision holds the primitive operators with integer
entries (``creation_expansion`` scales its rational tile vectors by the
lcm of their denominators, and only the differing entries of a case are
divided back into ``Fraction``s for the witness) and the products several
identities share: sum ss* and sum tt*, s*s and t*t, the corner
projections e = p q, A_kappa and B_kappa, and per corner pair S = e s,
T = e t and SS* + TT*.  It keeps, per builder, only the entries
where the two sides differ (nothing when the identity holds), so ids that
share a builder are evaluated once per bank and each reports on its own
block (``verify_level``'s three reports share one bank):

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
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, partial, reduce
from operator import itemgetter
from typing import Iterator, NamedTuple

from .algebra import (
    DiagElem, EdgeElem, QuadVector, embed, inner_eta, inner_rho, left_basis_vector, pullback_along_kappa, top_basis_vector
)
from .errors import (
    BasisTooLarge,
    LayerMismatch,
    TruncationTooShallow,
    UnknownEdge,
)
from .textile import LAYER_A, LAYER_B, Edge, TextileSystem, Tile, build_quad_matrices, build_system

SEP_ETA = "eta"
SEP_RHO = "rho"
DEFAULT_BASIS_CAP = 10**6
# operator shapes (d, r, s): leading tiles read, levels climbed, tiles stripped
PUSH, STRIP, SEPARATOR, READ = (0, 1, -1), (1, 0, 1), (1, 0, 0), (0, 0, 0)


class FockWord(NamedTuple):
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


class TruncatedFock:
    """Basis of all glued words up to a top level: one split record per word
    and the index where each level starts.  The four fields are read-only,
    the tables below are built on first read, and two bases are equal only
    when they are the same object.

    ``splits[i]`` is word i split as (first tile's index in ``ts.tiles``,
    first separator, tail index); None on level 0, (k, None, None) on level 1.
    Levels never decrease along the basis: ``starts[n]`` is the index of the
    first word of level n, up to ``max_level`` or the first empty level from
    1 on, whichever comes first (every later level is empty too), and
    ``starts[-1] == dim``.  ``word(i)`` rebuilds word i from ``splits``;
    ``words`` builds them all on first read.
    """

    ts: TextileSystem
    max_level: int
    starts: tuple[int, ...]
    splits: tuple[tuple[int, str | None, int | None] | None, ...]

    def __init__(self, ts, max_level, starts, splits):
        # cached_property also writes to the instance dict, past __setattr__
        vars(self).update(ts=ts, max_level=max_level, starts=starts, splits=splits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a TruncatedFock is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a TruncatedFock is read-only")

    def __repr__(self):
        return f"TruncatedFock(ts={self.ts!r}, max_level={self.max_level!r}, starts={self.starts!r})"

    @property
    def dim(self) -> int:
        return self.starts[-1]

    def count_at(self, level: int) -> int:
        return self.prefix(level) - self.prefix(level - 1)

    def prefix(self, level: int) -> int:
        """Number of words of level <= ``level``: the first ones."""
        return self.starts[min(max(level + 1, 0), len(self.starts) - 1)]

    def level(self, i: int) -> int:
        """The level of word i (0 <= i < dim)."""
        return bisect_right(self.starts, i) - 1

    @cached_property
    def markers(self) -> tuple[Edge, ...]:
        """The edge of each level-0 word: the B-edges (q markers), then the A-edges (p markers)."""
        return self.ts.edges_b + self.ts.edges_a

    @cached_property
    def index(self) -> dict[FockWord, int]:
        """Position of each word, hashed on first use; ``verify`` needs none."""
        return {w: i for i, w in enumerate(self.words)}

    def up_to(self, level: int) -> "TruncatedFock":
        """The basis of its words of level <= ``level``, under the same indices
        and split records; itself when it holds no deeper word."""
        if level >= self.max_level:
            return self
        return TruncatedFock(self.ts, level, self.starts[: level + 2], self.splits[: self.prefix(level)])

    @cached_property
    def words(self) -> tuple[FockWord, ...]:
        """Every word, rebuilt from ``splits`` on first read; ``verify`` reads none."""
        return tuple(map(self.word, range(self.dim)))

    def word(self, i: int) -> FockWord:
        """Word i (0 <= i < dim): its first tile, then the word at its tail."""
        ts, splits = self.ts, self.splits
        split = splits[i]
        if split is None:
            edge = self.markers[i]
            return FockWord(base_kind="q" if edge.layer == LAYER_B else "p", base=edge)
        tiles, seps = [], []
        while True:
            head, sep, tail = split
            tiles.append(ts.tiles[head])
            if sep is None:
                return FockWord(tiles=tuple(tiles), seps=tuple(seps))
            seps.append(sep)
            split = splits[tail]


def level_sizes(ts: TextileSystem, max_level: int) -> Iterator[int]:
    """Yield the number of words at each level 0..max_level (``_levels``)."""
    return (size for _, (size, _held) in zip(range(max_level + 1), _levels(ts)))


def _levels(ts: TextileSystem) -> Iterator[tuple[int, bool]]:
    """Yield, for each level n = 0, 1, ..., its number of words and True once
    every later level is known to hold as many, from the two matrices alone.

    A word of level n >= 1 is fixed by its separators and its top-right
    boundary path: the first tile's top A-edge, an A-edge per eta, a B-edge
    per rho and the last tile's right B-edge, and every such path bounds
    one word, by the unique factorization ``subshift`` counts patches by.
    So level n holds 1^T A p words, p = (A+B)^(n-1) B 1, and once p repeats
    from one level to the next, so does every later level size.
    """
    yield len(ts.edges_a) + len(ts.edges_b), False
    paths = ts.matrix_b.times([1] * ts.n_vertices)  # paths[v]: the paths (A+B)^k B from vertex v
    while True:
        ahead = ts.matrix_a.times(paths)
        step = [x + y for x, y in zip(ahead, ts.matrix_b.times(paths))]
        yield sum(ahead), step == paths
        paths = step


def _check_cap(ts: TextileSystem, max_level: int, cap: int) -> None:
    """Raise BasisTooLarge if a level from 2 to ``max_level`` would hold over
    ``cap`` words.  The count stops at the first empty level >= 1, as each
    word's tail is a word of the level below, and from level 2 on once every
    later level is known to hold as many words (``_levels``)."""
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    for n, (size, held) in zip(range(max_level + 1), _levels(ts)):
        if n >= 2 and size > cap:
            raise BasisTooLarge(f"level {n} would hold {size} words (cap {cap})")
        if (n and not size) or (n >= 2 and held):
            return


def fock_basis(ts: TextileSystem, max_level: int, cap: int = DEFAULT_BASIS_CAP) -> TruncatedFock:
    """Enumerate the graded basis up to ``max_level``.

    Level 0 holds the edge markers (``TruncatedFock.markers``), level 1 the
    tiles.  For each tile k in order and each tile u that may follow it
    (eta, then rho; tiles in order within each), level n takes the run of
    level-(n-1) words that start with u as tails of k.  So every level is
    in lexicographic order of (tile, separator, tile, ...), and one run per
    tile carries it to the next.  Only the split records and the level
    starts are built, no word, and none past the first empty level.
    Raises BasisTooLarge when a level from 2 on would exceed ``cap`` words,
    before any of them is built.
    """
    _check_cap(ts, max_level, cap)
    start = len(ts.edges_a) + len(ts.edges_b)  # the level-0 markers
    tiles = ts.tiles
    # per edge, in order, the tiles whose left edge (a B-edge) or top edge (an A-edge) it is
    opening: dict[Edge, list[int]] = {}
    for k, u in enumerate(tiles):
        opening.setdefault(u.left, []).append(k)
        opening.setdefault(u.top, []).append(k)
    splits: list = [None] * start + [(k, None, None) for k in range(len(tiles))]
    starts = [0, start, len(splits)]
    # the words of the top level so far, one run per first tile
    runs = [range(i, i + 1) for i in range(start, len(splits))]
    for _ in range(2, max_level + 1):
        if starts[-1] == starts[-2]:  # an empty level: so is every later one
            break
        level = []
        for k, t in enumerate(tiles):
            first = len(splits)
            for sep, edge in ((SEP_ETA, t.right), (SEP_RHO, t.bottom)):
                for u in opening.get(edge, ()):
                    splits.extend((k, sep, tail) for tail in runs[u])
            level.append(range(first, len(splits)))
        runs = level
        starts.append(len(splits))
    return TruncatedFock(ts=ts, max_level=max_level, starts=tuple(starts), splits=tuple(splits))


def _below(d: dict, n: int):
    """The items of d whose key is below n, found and read in C: by walking
    d's keys when d holds fewer than n, else by probing range(n)."""
    kept = [*filter(n.__gt__, d)] if len(d) < n else [*filter(d.__contains__, range(n))]
    return zip(kept, map(d.__getitem__, kept))


class SparseOp:
    """Exact sparse matrix over a truncated word basis: a column-major dict
    ``{col: {row: value}}`` with no empty column and no zero entry; a diagonal
    is a ``_DiagonalOp``.  Products with a diagonal scale rows (on the left)
    or columns (on the right), and diagonals times diagonals stay diagonal.
    Never changed once built: its column dicts may be other operators' too.
    ``shape`` is its (d, r, s), set by the bank on primitives (default READ)."""

    __slots__ = ("cols", "shape")

    def __init__(self, cols: dict[int, dict[int, object]] | None = None, shape: tuple = READ):
        self.cols = {} if cols is None else cols
        self.shape = shape

    @staticmethod
    def identity(tf: TruncatedFock) -> "_DiagonalOp":
        return _DiagonalOp(dict.fromkeys(range(tf.dim), 1))

    @staticmethod
    def diagonal(values) -> "_DiagonalOp":
        """Diagonal operator from one value per basis word."""
        return _DiagonalOp(dict(itertools.compress(enumerate(values), values)))

    def column(self, c: int) -> dict[int, object]:
        """Column c, ``{}`` where it has no entry."""
        return self.cols.get(c, {})

    def entries(self):
        for c, col in self.cols.items():
            for r, v in col.items():
                yield r, c, v

    @staticmethod
    def sum(ops) -> "SparseOp":
        """Sum in one pass, cancelled entries dropped; a column met first is the
        operand's own until a second operand adds to it.  Diagonals sum to one;
        the shape is the largest of each component of the operands'."""
        values: dict[int, object] = {}
        cols: dict[int, dict[int, object]] | None = None
        ops = list(ops)
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
                owned = set(cols)  # the columns this sum made, free to add into
            for c, col in op.cols.items():
                if (target := cols.get(c)) is None:
                    cols[c] = col  # shared with the operand until added to
                    continue
                if c not in owned:
                    cols[c] = target = dict(target)
                    owned.add(c)
                for r, v in col.items():
                    if total := target.get(r, 0) + v:
                        target[r] = total
                    else:
                        del target[r]
                if not target:
                    # a later operand may bring this column back shared
                    del cols[c]
                    owned.discard(c)
        shape = tuple(map(max, zip(*(op.shape for op in ops)))) or READ
        return _DiagonalOp(values, shape) if cols is None else SparseOp(cols, shape)

    def __add__(self, other: "SparseOp") -> "SparseOp":
        return SparseOp.sum((self, other))

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        return self.times(other)

    def times(self, other: "SparseOp", n: int | None = None) -> "SparseOp":
        """self @ other, or its columns 0..n-1 read off other's columns below n
        (no cut of other is built); a column equal to an operand's is that one."""
        # self @ other has the shape of F G with G = other acting first
        # (see the module docstring)
        (df, rf, sf), (dg, rg, sg) = self.shape, other.shape
        shape = max(dg, df + sg), max(rg, rf - sg), sf + sg
        # a product with a diagonal factor multiplies nonzero entries only,
        # so nothing cancels on those paths
        diagonal = type(other) is _DiagonalOp
        right = other.values if diagonal else other.cols
        items = right.items() if n is None else _below(right, n)
        if type(self) is _DiagonalOp:
            scalars = self.values
            if diagonal:
                return _DiagonalOp({c: scalars[c] * bv for c, bv in items if c in scalars}, shape)
            scalar_at = scalars.get
            cols = {}
            for c, col in items:
                if len(col) == 1:  # a partial permutation's column
                    ((r, bv),) = col.items()
                    if (a := scalar_at(r)) is not None:
                        cols[c] = col if a == 1 else {r: a * bv}
                elif acc := {r: scalars[r] * bv for r, bv in col.items() if r in scalars}:
                    cols[c] = acc
            return SparseOp(cols, shape)
        left = self.cols
        if diagonal:
            cols = {
                c: left_col if bv == 1 else {r: av * bv for r, av in left_col.items()}
                for c, bv in items
                if (left_col := left.get(c))
            }
            return SparseOp(cols, shape)
        left_at = left.get
        cols = {}
        for c, col in items:
            if len(col) == 1:  # one left column, scaled
                ((k, bv),) = col.items()
                if left_col := left_at(k):
                    cols[c] = left_col if bv == 1 else {r: av * bv for r, av in left_col.items()}
                continue
            acc: dict[int, object] = {}
            for k, bv in col.items():
                left_col = left_at(k)
                if not left_col:
                    continue
                for r, av in left_col.items():
                    acc[r] = acc.get(r, 0) + av * bv
            if 0 in acc.values():  # signed entries cancelled
                acc = {r: v for r, v in acc.items() if v}
            if acc:
                cols[c] = acc
        return SparseOp(cols, shape)

    def transpose(self) -> "SparseOp":
        cols: dict[int, dict[int, object]] = {}
        for c, col in self.cols.items():
            for r, v in col.items():
                cols.setdefault(r, {})[c] = v
        return SparseOp(cols)

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

    def __init__(self, values: dict[int, object], shape: tuple = READ):
        self.values = values
        self.shape = shape

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
        # the same columns, one entry each, on the diagonal
        cols, values = other.cols, self.values
        return (
            cols.keys() == values.keys()
            and set(map(len, cols.values())) <= {1}
            and {c: col.get(c) for c, col in cols.items()} == values
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
    summand.  Words pushed past the top level are dropped (truncation);
    an integral coefficient enters as an int.
    """
    ts = tf.ts
    # the level-0 marker each tile word comes from: q[right] for s, p[bottom] for t
    if kind == "s":
        sep, side = SEP_ETA, "right"
    elif kind == "t":
        sep, side = SEP_RHO, "bottom"
    else:
        raise ValueError(f"kind must be 's' or 't', got {kind!r}")
    marker = {e: i for i, e in enumerate(tf.markers)}
    markers = [marker[getattr(t, side)] for t in ts.tiles]
    coeffs = [*map(_exact, xi.coeffs)]
    cols: dict[int, dict[int, object]] = {}
    for j in range(tf.starts[1], tf.dim):
        head, first_sep, tail = tf.splits[j]
        c = coeffs[head]
        if not c:
            continue
        if first_sep is None:
            cols.setdefault(markers[head], {})[j] = c
        elif first_sep == sep:
            cols.setdefault(tail, {})[j] = c
    return SparseOp(cols)


def creation(tf: TruncatedFock, kind: str, edge: Edge) -> SparseOp:
    """s_alpha (kind 's', A-edge) or t_a (kind 't', B-edge)."""
    ts = tf.ts
    if kind == "s":
        own, other, unit_vector, layer = ts.edges_a, ts.edges_b, top_basis_vector, "an A"
    elif kind == "t":
        own, other, unit_vector, layer = ts.edges_b, ts.edges_a, left_basis_vector, "a B"
    else:
        raise ValueError(f"kind must be 's' or 't', got {kind!r}")
    if edge not in own:
        raise (LayerMismatch if edge in other else UnknownEdge)(
            f"{edge.id} is not {layer}-layer edge"
        )
    return creation_from_vector(tf, kind, unit_vector(ts, edge))


def _exact(c):
    """An integral coefficient as int, any other as it is."""
    return c.numerator if c.denominator == 1 else c


def _by_first_tile(tf: TruncatedFock, marker_values, tile_values, n: int | None = None) -> list:
    """Per word of the first n: its value in ``marker_values`` on level 0 (in
    ``tf.markers`` order), else its first tile's value."""
    heads = map(itemgetter(0), itertools.islice(tf.splits, len(marker_values), n))
    return marker_values[:n] + list(map(tile_values.__getitem__, heads))


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
    markers = [coeff.get(e, 0) for e in tf.markers]
    values = _by_first_tile(tf, markers, [coeff[getattr(t, side)] for t in ts.tiles], n)
    return SparseOp.diagonal(values)


def graded_projection(tf: TruncatedFock, which, n: int | None = None) -> SparseOp:
    """P_n ('level', n), or the first-separator projections 'rho' / 'eta'.

    'rho' keeps the words of level >= 2 whose first separator is eta (the
    range of the s-family above level 1); 'eta' keeps first separator rho.
    """
    if which == "level":
        return _DiagonalOp(dict.fromkeys(range(tf.prefix(n - 1), tf.prefix(n)), 1))
    if which in ("rho", "eta"):
        sep = SEP_ETA if which == "rho" else SEP_RHO
        return SparseOp.diagonal([1 if split and split[1] == sep else 0 for split in tf.splits])
    raise ValueError(f"which must be 'level', 'rho' or 'eta', got {which!r}")


def rank_one(tf: TruncatedFock, xi, zeta) -> SparseOp:
    """theta_{xi,zeta}: gamma -> xi scaled by the vertex pairing <zeta|gamma>.

    ``xi`` and ``zeta`` are vectors over the truncated basis (any indexable).
    Sends basis word W to sum_W' xi(W') zeta(W) [vertex(W') == vertex(W)] W'.
    Each support word is rebuilt to read its vertex, cheap on the levels 0
    and 1 ``verify`` uses.
    """
    # the supports, found by a scan in C, and xi's grouped by terminal vertex
    xi_at: dict[int, list] = {}
    for i in itertools.compress(itertools.count(), xi):
        xi_at.setdefault(tf.word(i).vertex, []).append((i, xi[i]))
    cols: dict[int, dict[int, object]] = {}
    for j in itertools.compress(itertools.count(), zeta):
        if same := xi_at.get(tf.word(j).vertex):
            z = zeta[j]
            cols[j] = {i: v * z for i, v in same}
    return SparseOp(cols)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


class IdentityCheck(NamedTuple):
    identity_id: str
    formula: str
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


class Report(NamedTuple):
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


def _differences(tf: TruncatedFock, cases, high: int, columns: int | None = None) -> list:
    """(case, {(row, col): (lhs, rhs)}) for the entries in rows of level <= high
    and columns of level <= ``columns`` (default high) where the two sides of a
    case differ, divided by the case's optional 4th item (a denominator of both
    sides); empty maps when all are equal."""
    n, width = tf.prefix(high), tf.prefix(high if columns is None else columns)
    out = []
    for label, lhs, rhs, *den in cases:
        diff = {}
        out.append((label, diff))
        if lhs == rhs:  # sides equal as wholes agree on the block
            continue
        # each side's column reader, bound once per walked case (a diagonal
        # builds its column dict here): None where it has no entry
        left_at, right_at = lhs.cols.get, rhs.cols.get
        for c in range(width):
            left, right = left_at(c) or {}, right_at(c) or {}
            if left == right:
                continue
            for r in left.keys() | right.keys():
                a, b = left.get(r, 0), right.get(r, 0)
                if r < n and a != b:
                    diff[r, c] = (Fraction(a, *den), Fraction(b, *den)) if den else (a, b)
    return out


def _witness(tf: TruncatedFock, cases, low: int, columns: int) -> dict | None:
    """The first differing entry, by column then row, of the first case that
    differs on levels >= low, in columns of level <= ``columns``; None when
    every case agrees there."""
    first = tf.prefix(low - 1)  # the first word of level >= low
    width = tf.prefix(columns)
    for label, diff in cases:
        block = [(c, r) for r, c in diff if first <= c < width and r >= first]
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
        self.index, self.name, self.own, self.act = index, name, own, act
        self.unit_vector, self.inner, self.corner = unit_vector, inner, corner
        self.edges = ts.edges(layer)
        # each primitive takes the shape of its kind here, whatever the
        # function that built its entries returned
        self.op = {x: SparseOp(creation(tf, name, x).cols, PUSH) for x in self.edges}
        self.adj = {x: SparseOp(adjoint(op).cols, STRIP) for x, op in self.op.items()}
        self.diag = {x: left_action_op(tf, act, EdgeElem.basis(ts, x)) for x in self.edges}
        self.range = {x: self.op[x] @ self.adj[x] for x in self.edges}
        self.range_proj = _DiagonalOp(graded_projection(tf, act).values, SEPARATOR)
        self.vertex = {
            v: left_action_op(tf, act, embed(ts, layer, DiagElem.basis(ts.n_vertices, v)))
            for v in range(1, ts.n_vertices + 1)
        }

    @cached_property
    def range_sum(self) -> SparseOp:
        return SparseOp.sum(self.range.values())

    @cached_property
    def initial(self) -> dict[Edge, SparseOp]:
        return {x: self.adj[x] @ self.op[x] for x in self.edges}

    def edge_of(self, pair) -> Edge:
        return getattr(pair, self.corner)


class _Bank:
    """The operators of one basis: primitive ones with integer entries, the
    products several identities share, and each builder's differences, for
    the rows decided at truncation level ``level`` (the basis's own top
    level, or above it when the basis reaches every column they compare)."""

    def __init__(self, tf: TruncatedFock, level: int):
        self.tf = tf
        self.ts = tf.ts
        self.level = level
        self.layers = (
            _Layer(self, 0, "s", "p", "rho", LAYER_A, top_basis_vector, inner_eta, "alpha"),
            _Layer(self, 1, "t", "q", "eta", LAYER_B, left_basis_vector, inner_rho, "a"),
        )
        # each layer with its opposite one
        self.mirrored = (self.layers, self.layers[::-1])
        self.zero = SparseOp()
        self.identity = SparseOp.identity(tf)
        self.p0 = graded_projection(tf, "level", 0)
        self.p1 = graded_projection(tf, "level", 1)
        # phi(y) is layer A's vertex action; the products that read it
        # never reach level 0, where the two layers' actions differ
        self.vertex = self.layers[0].vertex
        self._differences: dict = {}

    def differences(self, builder, margin: int) -> list:
        """The builder's cases, computed once on the columns of level <= c, the
        widest c of the rows that take it at this margin (``_WIDEST``), and
        compared there on rows of level <= L - margin."""
        key = (builder, margin)
        if key not in self._differences:
            columns = min(self.level - margin, _WIDEST[key])
            cases = builder(self, self.tf.prefix(columns))
            self._differences[key] = _differences(self.tf, cases, self.level - margin, columns)
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
            return _DiagonalOp(dict(_below(last.values, n)), last.shape)
        return SparseOp(dict(_below(last.cols, n)), last.shape)

    def sum(self, n: int, *ops: SparseOp) -> SparseOp:
        """Columns 0..n-1 of the sum, from each operand cut to them."""
        return SparseOp.sum(self.product(n, op) for op in ops)

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
    def generator_adjoints(self) -> tuple[dict, dict]:
        """S* and T* per corner pair."""
        return tuple({pair: SparseOp(adjoint(g).cols, STRIP) for pair, g in gens.items()} for gens in self.generators)

    @cached_property
    def generator_ranges(self) -> dict:
        """SS* + TT* per corner pair."""
        pairs = tuple(zip(self.generators, self.generator_adjoints))
        return {pair: SparseOp.sum(g[pair] @ g_adj[pair] for g, g_adj in pairs) for pair in self.e}


# Builders: each yields (case, lhs, rhs) triples for one bank, given the
# column bound n of the comparison: every side is ``bank.product(n, ...)``
# or ``bank.sum(n, ...)``, so no column past it is computed or kept.
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
    total = SparseOp.sum(rank_one(tf, vec, vec) for vec in units)
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
            lhs = SparseOp(creation_from_vector(tf, lay.name, xi).cols, PUSH)
            yield f"{lay.name}[{tag}]", bank.product(n, lhs), SparseOp.sum(terms), d


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
            yield f"{label} (right)", bank.product(n, rng), SparseOp.sum(bank.product(n, rng, e) for e in corners)
            yield f"{label} (left)", bank.product(n, rng), SparseOp.sum(bank.product(n, e, rng) for e in corners)


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
    gens = zip(bank.generator_adjoints[index].values(), bank.generators[index].values())
    for i, (adj, gen) in enumerate(gens):
        rhs = bank.sum(n, *(r for r, keep in zip(ranges, bank.quad[index][i]) if keep))
        yield f"row {i}", bank.product(n, adj, gen), rhs


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

    @property
    def shape(self) -> tuple[int, int]:
        """(d, r): the deepest read and the highest climb of its builders' sides."""
        return _ROW_SHAPES[self.identity_id]

    @property
    def width(self) -> int:
        """d + max(1, low): the top level of the columns compared, when L - m is no lower."""
        return self.shape[0] + max(1, self.low)

    def columns(self, level: int) -> int:
        """c: the top level of the columns compared at truncation level L,
        the deepest that can hold the first difference of the block."""
        return min(level - self.margin, self.width)

    def reach(self, level: int) -> int:
        """c + r: the top level its products read on those columns."""
        return self.columns(level) + self.shape[1]


WORDS, RELATIONS, GENERATORS = "identity", "relation", "generator"
# report -> (title, the smallest max_level it runs on)
_REPORTS = {
    WORDS: ("word-space identities", 3),
    RELATIONS: ("universal relations", 4),
    GENERATORS: ("corner generators", 4),
}

# Every checked identity: report, id, formula, margin m, lowest compared
# level and builders; its read depth d and climb r are derived from the
# builders (``_Row.shape``).  Rows that share a builder are twins: its cases
# are computed once per bank and margin and compared on each row's own
# block [low, L - margin], in its own columns.
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


def _derive_shapes() -> dict:
    """(d, r) per builder: the largest over its cases' sides, built with no column
    on one bank of the one-tile system, where no case takes ``bank.zero``."""
    bank = _Bank(fock_basis(build_system([[1]], [[1]]), 1), 1)
    builders = dict.fromkeys(b for row in _TABLE for b in row.builders)
    return {b: tuple(map(max, zip(*(side.shape[:2] for _, *sides in b(bank, 0) for side in sides[:2])))) for b in builders}


def _widest() -> dict:
    """The largest ``_Row.width`` per (builder, margin) over the rows that take
    it, so the widest c at level L is min(L - margin, that)."""
    widest: dict = {}
    for row in _TABLE:
        for builder in row.builders:
            key = (builder, row.margin)
            widest[key] = max(widest.get(key, 0), row.width)
    return widest


def _plan(level: int, report: str, identities=None, headroom: int = 1) -> list:
    """The rows of one report at level L in table order, each with None (it
    runs) or its skip notice (its L - m is below ``headroom`` on a word-space
    row, 1 on any other).  Raises, before anything is built: ValueError on an
    id the report lacks, then TruncationTooShallow on L below the report's
    depth, then on a row asked for by id that would be skipped."""
    rows = [row for row in _TABLE if row.report == report]
    if identities is not None:
        if unknown := set(identities) - {row.identity_id for row in rows}:
            raise ValueError(f"unknown identity ids: {sorted(unknown)}")
        rows = [row for row in rows if row.identity_id in identities]
    depth = _REPORTS[report][1]
    if level < depth:
        raise TruncationTooShallow(f"the {report} suite needs max_level >= {depth}")
    floor = headroom if report == WORDS else 1
    plan = [
        (row, None if level - row.margin >= floor else f"needs max_level >= {row.margin + floor}, basis has {level}")
        for row in rows
    ]
    for row, notice in plan:
        if notice and identities is not None:
            raise TruncationTooShallow(f"identity {row.identity_id!r} {notice}")
    return plan


def _depth(level: int, plan) -> int:
    """min(L, L0) at level L: L0 is the largest c + r of the planned rows that run."""
    return min(level, max((row.reach(level) for row, notice in plan if notice is None), default=0))


def _run(bank: _Bank, report: str, plan) -> Report:
    """Compare every planned row of one report on its block at the bank's level
    L, listing each skipped one with its notice; the one comparison runner."""
    level = bank.level
    checks = []
    for row, notice in plan:
        if notice:
            checks.append(IdentityCheck(row.identity_id, row.formula, None, "skipped", notice))
            continue
        cases = itertools.chain.from_iterable(bank.differences(b, row.margin) for b in row.builders)
        witness = _witness(bank.tf, cases, row.low, row.columns(level))
        status = "fail" if witness else "pass"
        checks.append(IdentityCheck(row.identity_id, row.formula, (row.low, level - row.margin), status, witness=witness))
    return Report(title=_REPORTS[report][0], max_level=level, checks=checks)


def _seeded_tile_vectors(ts: TextileSystem, count=2, seed=20240311):
    import random

    rng = random.Random(seed)
    out = []
    for k in range(count):
        values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in ts.tiles]
        out.append((f"rand{k}", QuadVector.from_values(ts, values)))
    return out


def _decide(tf: TruncatedFock, report: str, identities=None, headroom: int = 1) -> tuple[Report, _Bank]:
    """One report planned at ``tf``'s top level L (``_plan``), decided on a bank
    over its first min(L, L0) levels (``_depth``), and that bank."""
    plan = _plan(tf.max_level, report, identities, headroom)
    bank = _Bank(tf.up_to(_depth(tf.max_level, plan)), tf.max_level)
    return _run(bank, report, plan), bank


def verify_fock_identities(
    tf: TruncatedFock, identities: list[str] | None = None, headroom: int = 1
) -> Report:
    """Check the word-space operator identities on their safe blocks.

    Each identity carries a margin m and its block is the rows and columns
    of level <= L - m; it is compared on the columns that can hold the
    block's first difference (``_Row.columns``), so its status and witness
    are the block's.  Identities with L - m < headroom are skipped with a
    named notice when running the full default suite; explicitly requesting
    such an identity raises TruncationTooShallow.
    """
    return _decide(tf, WORDS, identities, headroom)[0]


def verify_relations_hk(tf: TruncatedFock) -> Report:
    """Check the universal-algebra relations in the truncated representation.

    The creation families stand in for the generating partial isometries
    and the diagonal edge actions for the coefficient algebras.  Each
    relation is compared on interior levels [2, L - m] where the level-0/1
    corrections of the range partition vanish; the one genuinely uncut
    identity is also checked from level 0.
    """
    return _decide(tf, RELATIONS)[0]


def ck_generators(tf: TruncatedFock):
    """Corner-cut generators and their Cuntz-Krieger relation report.

    Builds S = e u and T = e v for every corner pair, then verifies the
    partition of unity, both transition relations against the block
    matrices, and the corner decomposition e = SS* + TT*, all on interior
    levels [2, L-2].  Returns ({pair: S}, {pair: T}, report), with the S and
    T of the bank that decided it, on the first min(L, L0) levels of ``tf``.
    """
    report, bank = _decide(tf, GENERATORS)
    return (*bank.generators, report)


def verify_level(
    ts: TextileSystem, level: int, cap: int = DEFAULT_BASIS_CAP, headroom: int = 1
) -> list[Report]:
    """The three reports at truncation level L, the word-space one with
    ``headroom``, as the library calls give them on ``fock_basis(ts, L, cap)``:
    capped and planned at L, decided on one bank min(L, L0) deep (``_depth``)."""
    _check_cap(ts, level, cap)
    plans = {report: _plan(level, report, headroom=headroom) for report in _REPORTS}
    bank = _Bank(fock_basis(ts, _depth(level, itertools.chain(*plans.values())), cap), level)
    return [_run(bank, report, plan) for report, plan in plans.items()]


# every builder and what it calls are defined above
_BUILDER_SHAPES = _derive_shapes()
_ROW_SHAPES = {row.identity_id: tuple(map(max, zip(*map(_BUILDER_SHAPES.get, row.builders)))) for row in _TABLE}
_WIDEST = _widest()
