"""K-groups, structure checks and the Smith normal form reference.

The corner pairs (top edge, left edge) of the tiles index two 0/1
transition matrices, built in ``textile`` (``build_quad_matrices``): the
horizontal one allows (alpha, a) -> (delta, b) when a tile has top alpha,
left a and right b; the vertical one allows (alpha, a) -> (beta, d) when a
tile has top alpha, left a and bottom beta.  Their 2x2 block stack
[[A, A], [B, B]] is the defining matrix of the associated Cuntz-Krieger
algebra.  A + B = R C factors through the edges, so its K-groups are
presented by C R - I, of size |E_A| + |E_B|; the block stack minus the
identity presents them independently, as a cross-check.  Invariant factors
are computed on sparse rows {column: entry} in three passes: every pivot
that is +-1 is eliminated exactly over Z, each giving a factor 1 (most of
them: 649 of 684 on the block stack of [[18]] x [[19]]); a Bareiss pass
over the rows left gives a nonzero maximal minor D; and the elimination
ends modulo 2|D|.  Every entry of the first two passes is a minor of the
input, so no coefficient grows past its Hadamard bound.  The Smith normal
form with its unimodular transforms is kept as the reference.  All
arithmetic is arbitrary-precision integer.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import NamedTuple

from .errors import CrossCheckFailure
from .textile import LAYER_A, LAYER_B, TextileSystem, build_quad_matrices, empty_basis_edges, is_essential

Matrix = list[list[int]]
Rows = list[dict[int, int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _unit_pivots(rows: Rows) -> tuple[int, Rows]:
    """Eliminate every pivot that is +-1 in the current rows, exactly over Z.

    Returns the number of such pivots, each an invariant factor 1, and the
    rows left, whose invariant factors are the others; the rows are
    consumed.  A unit pivot clears its column by one subtraction per row
    with a nonzero there, and then its own row by column steps that change
    no other row, so its row and column leave.  A per-column index of the
    live rows lets each step touch only the rows of its column, and a heap
    of (length, row) gives the shortest row that holds a unit, its pivot
    in the column with the fewest rows: a row is looked at again only
    after a step changed it.  Each entry left is a minor of the input, up
    to sign (``invariant_factors``).  The rows hold no zero entry, and
    empty rows are dropped.
    """
    live = {i: row for i, row in enumerate(rows) if row}
    where: dict[int, set[int]] = {}  # column -> the live rows with a nonzero there
    for i, row in live.items():
        for j in row:
            where.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    units = 0
    while heap:
        n, i = heappop(heap)
        top = live.get(i)
        if top is None or len(top) != n:
            continue  # stale: the row left, or a later entry holds its length
        c = None
        for j, x in top.items():  # the first unit in a column of fewest rows
            if (x == 1 or x == -1) and (c is None or len(where[j]) < fewest):
                c, fewest = j, len(where[j])
                if fewest == 1:  # the row itself: no column has fewer
                    break
        if c is None:
            continue  # looked at again once a step changes it
        units += 1
        del live[i]
        for j in top:
            where[j].discard(i)
        p = top.pop(c)
        for k in where.pop(c):
            row = live[k]
            a = row.pop(c) * p  # a / p, as p = +-1
            get = row.get
            for j, y in top.items():
                x = get(j)
                if x is None:  # a new entry, nonzero as a and y are
                    row[j] = -a * y
                    where[j].add(k)
                elif x := x - a * y:
                    row[j] = x
                else:
                    del row[j]
                    where[j].discard(k)
            if row:
                heappush(heap, (len(row), k))
            else:
                del live[k]
    return units, list(live.values())


def _bareiss(rows: Rows) -> tuple[int, int]:
    """Rank r and |D| for a nonzero r x r minor D of sparse rows, by
    fraction-free (Bareiss) elimination; the rows are consumed.

    Each pivot is the first entry of a shortest live row, and each step
    rescales every live row exactly.  Zero entries and empty rows are
    dropped.  A zero matrix has rank 0 and minor 1 (the empty minor).
    """
    live = [row for row in rows if row]
    rank = 0
    prev = 1
    while live:
        lengths = list(map(len, live))
        top = live.pop(lengths.index(min(lengths)))
        c = next(iter(top))
        p = top.pop(c)
        rank += 1
        for row in live:
            a = row.pop(c, 0)
            new = {j: x * p for j, x in row.items()}
            if a:
                for j, y in top.items():
                    new[j] = new.get(j, 0) - a * y
            row.clear()
            row.update((j, x // prev) for j, x in new.items() if x)
        live = [row for row in live if row]
        prev = p
    return rank, abs(prev)


class SNFResult(NamedTuple):
    """U * M * V = D with U, V unimodular and D diagonal with a divisor chain."""

    d: Matrix
    u: Matrix
    v: Matrix
    invariant_factors: list[int]
    rank: int


def smith_normal_form(matrix: Matrix) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivots are chosen with minimal nonzero absolute value to limit
    coefficient growth; Python integers keep everything exact regardless.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = [list(map(int, row)) for row in matrix]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in d:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    size = min(rows, cols)
    while t < size:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = abs(d[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear the pivot column, restarting when a remainder survives
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] == 0:
                    continue
                quotient = d[i][t] // d[t][t]
                add_row(t, i, -quotient)
                if d[i][t]:
                    swap_rows(t, i)
                    dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if d[t][j] == 0:
                    continue
                quotient = d[t][j] // d[t][t]
                add_col(t, j, -quotient)
                if d[t][j]:
                    swap_cols(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            # enforce that the pivot divides the rest of the submatrix
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    factors = [d[i][i] for i in range(size) if d[i][i] != 0]
    return SNFResult(d=d, u=u, v=v, invariant_factors=factors, rank=len(factors))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _diagonalize_mod(rows: Rows, modulus: int) -> list[int]:
    """Diagonal of an elimination of sparse rows over Z/modulus.

    The rows are consumed; their entries must already lie in (0, modulus).
    The pivot is the first entry sharing the fewest factors with the
    modulus, and extended-gcd row and column steps shrink it until it
    divides its whole cross; a unit divides every entry, so it needs no
    column step.  Zero entries, finished pivot rows and empty rows are
    dropped; each diagonal entry is returned as its gcd with the modulus,
    in order.
    """
    n = modulus
    rows = [row for row in rows if row]
    diagonal = []
    while rows:
        least = n  # the first entry of least gcd, found at once when it is 1
        for k, row in enumerate(rows):
            for j, x in row.items():
                if (g := math.gcd(x, n)) < least:
                    i, c, least = k, j, g
                    if g == 1:
                        break
            if least == 1:
                break
        top = rows.pop(i)
        while True:
            # p divides a in Z/n exactly when g = gcd(p, n) divides a
            p = top[c]
            g = math.gcd(p, n)
            inv = pow(p // g, -1, n // g)
            for row in [row for row in rows if c in row]:
                a = row[c]
                if a % g == 0:
                    q = a // g * inv % (n // g)
                    for j, y in top.items():
                        x = (row.get(j, 0) - q * y) % n
                        if x:
                            row[j] = x
                        else:
                            row.pop(j, None)
                    continue
                d, s, t = _xgcd(p, a)
                u, v = p // d, a // d
                old, keys = top, top.keys() | row.keys()
                top = {j: z for j in keys if (z := (s * old.get(j, 0) + t * row.get(j, 0)) % n)}
                new = {j: z for j in keys if (z := (u * row.get(j, 0) - v * old.get(j, 0)) % n)}
                row.clear()
                row.update(new)
                p = d
                g = math.gcd(p, n)
                inv = pow(p // g, -1, n // g)
            # the column is clear below the pivot, so a column step that
            # divides out only touches the pivot row; one that does not
            # pushes entries back into the column, which is cleared again
            j = next((j for j, b in top.items() if b % g), None)
            if j is None:
                break
            d, s, t = _xgcd(p, top[j])
            u, v = p // d, top[j] // d
            for row in [row for row in rows if j in row]:
                y = row.pop(j)
                for k, z in ((c, t * y % n), (j, u * y % n)):
                    if z:
                        row[k] = z
            top[c] = d
            del top[j]
        diagonal.append(g)
        rows = [row for row in rows if row]
    return diagonal


def _factors(rows: Rows) -> list[int]:
    """``invariant_factors`` of sparse rows, which are consumed."""
    units, rows = _unit_pivots(rows)
    rank, minor = _bareiss([dict(row) for row in rows])
    if rank == 0:
        return [1] * units
    n = 2 * minor
    reduced = [{j: r for j, x in row.items() if (r := x % n)} for row in rows]
    gcds = _diagonalize_mod(reduced, n)
    # unique divisor chain of the diagonal: gcd/lcm swaps, smallest first;
    # a unit only moves ahead, so the chain runs over the others
    chain = [g for g in gcds if g != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            g = math.gcd(a, b)
            chain[i], chain[j] = g, a // g * b
    return [1] * (units + len(gcds) - len(chain)) + [g for g in chain if g != n]


def invariant_factors(matrix: Matrix) -> list[int]:
    """Nonzero invariant factors of an integer matrix, in divisor order.

    The same list as ``smith_normal_form(matrix).invariant_factors``, in
    polynomial time and without transforms.  First every pivot that is +-1
    in the current rows is eliminated exactly over Z, each a factor 1
    (``_unit_pivots``).  On the rows left, a Bareiss pass gives the rank r
    and a nonzero r x r minor D; every other invariant factor divides D, so
    the elimination runs modulo N = 2|D|, where the k-th one is recovered
    as gcd(t, N) over a divisor chain of the diagonal.  The factor 2 keeps
    a factor equal to |D| apart from the zeros, which read as N.

    No coefficient grows.  After k unit pivots on rows R and columns C,
    det M[R, C] = +-1, and by Sylvester's identity every t x t minor of the
    rows left is +-det M[R + I, C + J] / det M[R, C], a (k + t) x (k + t)
    minor of the input.  Each entry left (t = 1), each Bareiss entry and D
    are such minors, so they are bounded by the input's Hadamard bound, and
    the last pass works below N.  All passes run on sparse rows.
    """
    return _factors([dict(compress(enumerate(row), row)) for row in matrix])


class KGroups(NamedTuple):
    """Torsion and free ranks of the two K-groups."""

    k0_torsion: list[int]
    k0_free_rank: int
    k1_free_rank: int

    def describe(self) -> tuple[str, str]:
        def free(rank: int) -> list[str]:
            return [] if rank == 0 else ["Z" if rank == 1 else f"Z^{rank}"]

        k0 = [f"Z/{f}Z" for f in self.k0_torsion] + free(self.k0_free_rank)
        return " + ".join(k0) or "0", " + ".join(free(self.k1_free_rank)) or "0"


def edge_matrix(ts: TextileSystem) -> Matrix:
    """C R for A + B = R C, over the A-edges then the B-edges.

    R sends a corner pair to the right and bottom edges of its tiles, C an
    edge to the pairs with it as left or top edge; so entry (e, e') counts
    the tiles with e as left or top edge and e' as right or bottom edge.
    """
    index = {e: k for k, e in enumerate(ts.edges_a + ts.edges_b)}
    m = [[0] * len(index) for _ in index]
    for tile in ts.tiles:
        right, bottom = index[tile.right], index[tile.bottom]
        for e in (tile.left, tile.top):
            row = m[index[e]]
            row[right] += 1
            row[bottom] += 1
    return m


def _groups_of(matrix: Matrix) -> KGroups:
    """K-groups presented by a square matrix minus the identity."""
    rows = [dict(compress(enumerate(r), r)) for r in matrix]
    for i, row in enumerate(rows):
        if x := row.get(i, 0) - 1:
            row[i] = x
        else:
            del row[i]
    factors = _factors(rows)
    free_rank = len(matrix) - len(factors)
    return KGroups([f for f in factors if f > 1], free_rank, free_rank)


def k_groups(edges: Matrix, h_kappa: Matrix) -> KGroups:
    """K-groups presented by M - I, M the edge matrix, recomputed from the
    block stack minus the identity; CrossCheckFailure if the torsion lists
    or free ranks differ (they agree for every system; a mismatch is a bug)."""
    from_edges = _groups_of(edges)
    from_block = _groups_of(h_kappa)
    if (from_edges.k0_torsion, from_edges.k0_free_rank) != (
        from_block.k0_torsion, from_block.k0_free_rank
    ):
        raise CrossCheckFailure(
            "K-group presentations disagree between the edge matrix and the block stack",
            details={"edges": from_edges._asdict(), "block": from_block._asdict()},
        )
    return from_edges


def k_theory(ts: TextileSystem) -> KGroups:
    """K-groups of a system, cross-checked between both presentations."""
    return k_groups(edge_matrix(ts), build_quad_matrices(ts)[2])


def structure_checks(h_matrix: Matrix) -> dict:
    """Graph-level diagnostics of a 0/1 matrix, read straight off its rows.

    irreducible: the directed graph is strongly connected, so vertex 0
    reaches every vertex and every vertex reaches vertex 0 (False for the
    empty matrix).  condition_I: every vertex reaches a cycle and every
    cycle has an exit.  has_zero_row: some row is identically zero.  A
    vertex with an edge out has an endless walk, which repeats a vertex, so
    every vertex reaches a cycle exactly when no row is zero.  A cycle
    without an exit runs only through vertices of out-degree one: following
    each such vertex's one edge until the walk leaves them or meets a
    vertex already walked, a walk that meets itself closes one.
    """
    n = len(h_matrix)
    adj = [list(compress(range(n), row)) for row in h_matrix]
    reverse: list[list[int]] = [[] for _ in adj]
    for i, outs in enumerate(adj):
        for j in outs:
            reverse[j].append(i)

    def reaches_all(graph: list[list[int]]) -> bool:
        seen = [False] * n
        seen[0] = True
        todo = [0]
        while todo:
            for w in graph[todo.pop()]:
                if not seen[w]:
                    seen[w] = True
                    todo.append(w)
        return all(seen)

    walked = [-1] * n  # the start of the walk that met each vertex
    exitless = False
    for start in range(n):
        v = start
        while walked[v] < 0 and len(adj[v]) == 1:
            walked[v] = start
            v = adj[v][0]
        exitless = exitless or walked[v] == start
    has_zero_row = not all(adj)
    return {
        "irreducible": n > 0 and reaches_all(adj) and reaches_all(reverse),
        "condition_I": not has_zero_row and not exitless,
        "has_zero_row": has_zero_row,
    }


def analyze_system(ts: TextileSystem) -> dict:
    """Full invariant report: matrices, K-groups, structure and warnings.

    The warnings are read off ``ts`` alone: a layer is not essential when a
    column of its matrix is zero (``textile.is_essential``), and an edge has
    no tile when no tile's top or left is it (``textile.empty_basis_edges``).
    """
    a_kappa, b_kappa, h_kappa = build_quad_matrices(ts)
    groups = k_groups(edge_matrix(ts), h_kappa)
    k0, k1 = groups.describe()
    warnings = [
        f"layer {layer} is not essential (some vertex has no incoming edge)"
        for layer in (LAYER_A, LAYER_B)
        if not is_essential(ts, layer)
    ]
    if empty := empty_basis_edges(ts):
        warnings.append("edges without a tile over them: " + ", ".join(e.id for e in empty))
    return {
        "n": len(ts.omega),
        "omega": [[pair.alpha.id, pair.a.id] for pair in ts.omega],
        "A_kappa": a_kappa,
        "B_kappa": b_kappa,
        "H_kappa": h_kappa,
        "K0": {"torsion": groups.k0_torsion, "free_rank": groups.k0_free_rank},
        "K1": {"free_rank": groups.k1_free_rank},
        "K0_text": k0,
        "K1_text": k1,
        "cross_check": "ok",
        "structure": structure_checks(h_kappa),
        "warnings": warnings,
    }

