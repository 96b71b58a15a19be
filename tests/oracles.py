"""Test oracles and test-only helpers for the exact package.

* K-theory: ``minor_gcd`` (the gcd of all k x k minors, the
  determinant-divisor oracle for invariant factors), ``int_det``,
  ``mat_mul`` and ``mat_add``; ``dense_bareiss`` and
  ``dense_diagonalize_mod``, the dense-row kernels that the sparse ones
  in ``quadtex.ktheory`` replaced, kept as references, and
  ``sparse_rows``, a dense matrix as the sparse kernels' input;
  ``quad_matrices_by_definition``, the
  corner-pair matrices entry by entry from ``kappa_indicators``, the
  tables of the tiles with two fixed edges, and
  ``corner_pair_presentation``, A + B - I over the corner pairs;
  ``random_commuting_pair`` and ``presentation_cross_check_pairs`` draw
  seeded commuting pairs.
* Module: the two reconstruction identities through the top- and
  left-edge basis vectors, and ``squared_norms``, the exact squares of
  the vertex, rho and eta norms.
* Words: ``eager_words``, every basis word built whole, the reference
  for the words ``TruncatedFock`` rebuilds on each read, and
  ``basis_vector``, the unit vector of one word.
* Identity checks: ``full_block_report`` evaluates every row of a
  ``verify`` report on every column of its block [low, L - m], as the
  runner did before it compared only the columns that can hold the
  block's first difference; ``full_block_differences`` is its per-builder
  evaluation.
* Operators: ``entry``, ``apply``, ``scale``, ``restrict`` and
  ``level_shift`` on a ``SparseOp``; they read only its ``cols``, and
  ``apply``, ``restrict`` and ``level_shift`` take its basis ``tf``.
* Patches: ``brute_force_count`` counts the h x w patches one tile at a
  time, the oracle for ``subshift.count_rectangles`` on small shapes.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from itertools import product

import quadtex.fock as fock
from quadtex.algebra import QuadVector, inner_eta, inner_rho, left_basis_vector, top_basis_vector
from quadtex.errors import TruncationTooShallow
from quadtex.fock import SEP_ETA, SEP_RHO, FockWord, IdentityCheck, Report, SparseOp, TruncatedFock
from quadtex.ktheory import Matrix, Rows, _xgcd, identity_matrix
from quadtex.textile import Edge, IntMatrix, TextileSystem, build_system, check_commuting

from library import act_right_eta, act_right_rho, basis_words, inner_vertex, word_level


# ---------------------------------------------------------------------------
# K-theory
# ---------------------------------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            x = ai[k]
            if x == 0:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                oi[j] += x * bk[j]
    return out


def mat_add(a: Matrix, b: Matrix, scale_b: int = 1) -> Matrix:
    return [
        [x + scale_b * y for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a, b)
    ]


def kappa_indicators(ts: TextileSystem):
    """0/1 existence tables for tiles with two fixed edges.

    Returns (left_table, bottom_table): ``left_table[(a, alpha, b)] = 1``
    when some tile has top alpha, right b and left a, and
    ``bottom_table[(alpha, a, beta)] = 1`` when some tile has top alpha,
    left a and bottom beta.  Missing keys mean 0.
    """
    left_table: dict[tuple[Edge, Edge, Edge], int] = {}
    bottom_table: dict[tuple[Edge, Edge, Edge], int] = {}
    for tile in ts.tiles:
        left_table[(tile.left, tile.top, tile.right)] = 1
        bottom_table[(tile.top, tile.left, tile.bottom)] = 1
    return left_table, bottom_table


def quad_matrices_by_definition(ts: TextileSystem) -> tuple[Matrix, Matrix]:
    """A_kappa and B_kappa entry by entry over all pairs of corner pairs."""
    left_table, bottom_table = kappa_indicators(ts)
    omega = ts.omega
    n = len(omega)
    a_kappa = [[0] * n for _ in range(n)]
    b_kappa = [[0] * n for _ in range(n)]
    for i, src in enumerate(omega):
        for j, dst in enumerate(omega):
            if left_table.get((src.a, src.alpha, dst.a)):
                a_kappa[i][j] = 1
            if bottom_table.get((src.alpha, src.a, dst.alpha)):
                b_kappa[i][j] = 1
    return a_kappa, b_kappa


def corner_pair_presentation(a_kappa: Matrix, b_kappa: Matrix) -> Matrix:
    """A + B - I, the presentation of the K-groups over the corner pairs."""
    return mat_add(mat_add(a_kappa, b_kappa), identity_matrix(len(a_kappa)), scale_b=-1)


def sparse_rows(matrix: Matrix) -> Rows:
    """The {column: entry} rows of a dense matrix, zeros left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def int_det(matrix: Matrix) -> int:
    """Exact determinant, sign included, by the dense Bareiss reference."""
    n = len(matrix)
    rank, minor = dense_bareiss(matrix)
    return minor if rank == n else 0


def dense_bareiss(matrix: Matrix) -> tuple[int, int]:
    """Rank r and a nonzero r x r minor, by fraction-free (Bareiss) elimination.

    Pivots are searched over the whole remaining submatrix, so the returned
    minor is the leading one of the row- and column-permuted matrix; its
    sign is that of the unpermuted minor on the same rows and columns.  A
    pivot equal to the previous one up to sign is preferred: it is made
    equal by negating its row, and then the step touches only the rows
    with a nonzero in the pivot column, and in them only the columns where
    the pivot row is nonzero.  A zero matrix has rank 0 and minor 1 (the
    empty minor).
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    sign = 1
    prev = 1
    for k in range(min(rows, cols)):
        cells = ((i, j) for i in range(k, rows) for j in range(k, cols) if m[i][j])
        first = next(cells, None)
        if first is None:
            return k, sign * prev
        i, j = next(
            (ij for ij in itertools.chain([first], cells) if abs(m[ij[0]][ij[1]]) == abs(prev)),
            first,
        )
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        if j != k:
            for row in m:
                row[k], row[j] = row[j], row[k]
            sign = -sign
        top = m[k]
        if top[k] == -prev:
            top[:] = [-x for x in top]
            sign = -sign
        p = top[k]
        if p == prev:
            # (x*p - a*y) / p = x - a*y/p: only the pivot row's support moves
            support = [(j, y) for j, y in enumerate(top) if y and j > k]
            for row in m[k + 1:]:
                a = row[k]
                if a:
                    for j, y in support:
                        row[j] -= a * y // p
                    row[k] = 0
        else:
            tail = top[k + 1:]
            for row in m[k + 1:]:
                a = row[k]
                row[k + 1:] = [(x * p - a * y) // prev for x, y in zip(row[k + 1:], tail)]
                row[k] = 0
        prev = p
    return min(rows, cols), sign * prev


def dense_diagonalize_mod(m: Matrix, modulus: int) -> list[int]:
    """Diagonal entries of an elimination of ``m`` over Z/modulus.

    ``m`` is consumed; its entries must already lie in [0, modulus).  Units
    are taken as pivots first: they divide every entry, so each row of
    their column is cleared by one subtraction and their row needs no
    column step at all, the column being zero elsewhere.  Once no unit is
    left, the entry sharing the fewest factors with the modulus is the
    pivot, and extended-gcd row and column steps shrink it until it
    divides its whole cross.  Finished pivot rows and columns are dropped,
    and so are zero rows; the diagonal entries are returned in order.
    """
    n = modulus
    rows = [row for row in m if any(row)]
    diagonal = []
    while rows:
        pivot = next(
            ((i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
             if x and math.gcd(x, n) == 1),
            None,
        )
        if pivot is None:
            pivot = min(
                ((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x),
                key=lambda ij: math.gcd(rows[ij[0]][ij[1]], n),
            )
        i, c = pivot
        top = rows.pop(i)
        while True:
            # p divides a in Z/n exactly when g = gcd(p, n) divides a
            p = top[c]
            g = math.gcd(p, n)
            inv = pow(p // g, -1, n // g)
            support = [(j, y) for j, y in enumerate(top) if y]
            for row in rows:
                a = row[c]
                if not a:
                    continue
                if a % g == 0:
                    q = a // g * inv % (n // g)
                    for j, y in support:
                        row[j] = (row[j] - q * y) % n
                    continue
                d, s, t = _xgcd(p, a)
                u, v = p // d, a // d
                top, row[:] = (
                    [(s * y + t * x) % n for x, y in zip(row, top)],
                    [(u * x - v * y) % n for x, y in zip(row, top)],
                )
                p = d
                g = math.gcd(p, n)
                inv = pow(p // g, -1, n // g)
                support = [(j, y) for j, y in enumerate(top) if y]
            # the column is clear below the pivot, so a column step that
            # divides out only touches the pivot row; one that does not
            # pushes entries back into the column, which is cleared again
            j = next((j for j, b in enumerate(top) if b % g), None)
            if j is None:
                break
            d, s, t = _xgcd(p, top[j])
            u, v = p // d, top[j] // d
            for row in rows:
                x, y = row[c], row[j]
                row[c], row[j] = (s * x + t * y) % n, (u * y - v * x) % n
            top[c], top[j] = d, 0
        diagonal.append(p)
        for row in rows:
            del row[c]
        rows = [row for row in rows if any(row)]
    return diagonal


def minor_gcd(matrix: Matrix, k: int) -> int:
    """Gcd of all k x k minors; the determinant-divisor oracle."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    g = 0
    for row_idx in itertools.combinations(range(rows), k):
        for col_idx in itertools.combinations(range(cols), k):
            sub = [[matrix[i][j] for j in col_idx] for i in row_idx]
            g = math.gcd(g, int_det(sub))
            if g == 1:
                return 1
    return g


def random_commuting_pair(
    rng: random.Random, size: int = 3, max_entry: int = 2, total_cap: int = 60
) -> tuple[IntMatrix, IntMatrix]:
    """A commuting pair built as two polynomials in one random matrix.

    Entries of the base matrix and the polynomial coefficients are bounded
    by ``max_entry``; samples whose product has more than ``total_cap``
    composable pairs are rejected so the corner-pair matrices stay small.
    """
    while True:
        n = rng.randint(1, size)
        base = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]

        def poly_of_base():
            coeffs = [rng.randint(0, max_entry) for _ in range(3)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(3)] = 1
            acc = [[coeffs[0] if i == j else 0 for j in range(n)] for i in range(n)]
            power = identity_matrix(n)
            for c in coeffs[1:]:
                power = mat_mul(power, base)
                acc = mat_add(acc, power, scale_b=c)
            return acc

        a_rows = poly_of_base()
        b_rows = poly_of_base()
        product = mat_mul(a_rows, b_rows)
        total = sum(sum(row) for row in product)
        if total == 0 or total > total_cap:
            continue
        matrix_a = IntMatrix.from_rows(a_rows)
        matrix_b = IntMatrix.from_rows(b_rows)
        check_commuting(matrix_a, matrix_b)
        return matrix_a, matrix_b


def presentation_cross_check_pairs(seed: int = 7, count: int = 20):
    """Deterministic commuting pairs for the presentation cross-check."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        matrix_a, matrix_b = random_commuting_pair(rng)
        out.append(build_system(matrix_a.rows, matrix_b.rows, "lex"))
    return out


# ---------------------------------------------------------------------------
# the tile-spanned module
# ---------------------------------------------------------------------------


def reconstruct_from_top_basis(ts: TextileSystem, xi: QuadVector) -> QuadVector:
    """Sum over alpha of u_alpha acted on the right by <u_alpha | xi>_eta.

    Must reproduce xi exactly: the top-edge vectors form an orthogonal basis
    for the right B-layer module structure.
    """
    total = QuadVector(coeffs=(Fraction(0),) * len(ts.tiles))
    for alpha in ts.edges_a:
        u = top_basis_vector(ts, alpha)
        total = total + act_right_eta(ts, u, inner_eta(ts, u, xi))
    return total


def reconstruct_from_left_basis(ts: TextileSystem, xi: QuadVector) -> QuadVector:
    """Symmetric reconstruction through the left-edge vectors and the rho pairing."""
    total = QuadVector(coeffs=(Fraction(0),) * len(ts.tiles))
    for a in ts.edges_b:
        v = left_basis_vector(ts, a)
        total = total + act_right_rho(ts, v, inner_rho(ts, v, xi))
    return total


def squared_norms(ts: TextileSystem, xi: QuadVector) -> tuple[Fraction, Fraction, Fraction]:
    """Squares of the (vertex, rho, eta) norms of a vector, exactly.

    Each is the largest entry of the matching self-pairing: groups of tiles
    sharing a corner vertex, a bottom edge, or a right edge.
    """
    pairings = (inner_vertex(ts, xi, xi), inner_rho(ts, xi, xi), inner_eta(ts, xi, xi))
    return tuple(max(p.coeffs, default=Fraction(0)) for p in pairings)


# ---------------------------------------------------------------------------
# operators on the truncated word basis
# ---------------------------------------------------------------------------


def eager_words(ts: TextileSystem, max_level: int) -> tuple[FockWord, ...]:
    """Every basis word up to ``max_level``, each built whole with its own tile
    and separator tuples, in the basis order: the q markers, the p markers,
    then each level extending every word of the one below by (separator,
    tile), eta before rho.  The reference for the words ``TruncatedFock``
    rebuilds (``library.basis_words``)."""
    words = [FockWord(base_kind="q", base=b) for b in ts.edges_b]
    words.extend(FockWord(base_kind="p", base=alpha) for alpha in ts.edges_a)
    level = [FockWord(tiles=(t,), seps=()) for t in ts.tiles]
    words.extend(level)
    for _ in range(1, max_level):
        level = [
            FockWord(tiles=w.tiles + (u,), seps=w.seps + (sep,))
            for w in level
            for sep, glued in ((SEP_ETA, "left"), (SEP_RHO, "top"))
            for u in ts.tiles
            if getattr(u, glued) == (w.tiles[-1].right if sep == SEP_ETA else w.tiles[-1].bottom)
        ]
        words.extend(level)
    return tuple(words)


def basis_vector(tf: TruncatedFock, word: FockWord):
    """The unit vector of one word, found among all the words of ``tf``."""
    vec = [0] * tf.dim
    vec[basis_words(tf).index(word)] = 1
    return vec


def entry(op: SparseOp, row: int, col: int):
    return op.cols.get(col, {}).get(row, 0)


def apply(tf: TruncatedFock, op: SparseOp, vec):
    """Matrix-vector product; vec is indexable by basis position."""
    out = [Fraction(0)] * tf.dim
    for c, col in op.cols.items():
        x = vec[c]
        if x == 0:
            continue
        for r, v in col.items():
            out[r] += v * x
    return out


def scale(op: SparseOp, c) -> SparseOp:
    if c == 0:
        return SparseOp()
    return SparseOp({j: {r: c * v for r, v in col.items()} for j, col in op.cols.items()})


def restrict(tf: TruncatedFock, op: SparseOp, low_level: int, high_level: int) -> SparseOp:
    """Cut rows and columns to words with level in [low_level, high_level]."""
    cols = {}
    for c, col in op.cols.items():
        if not low_level <= word_level(tf, c) <= high_level:
            continue
        kept = {r: v for r, v in col.items() if low_level <= word_level(tf, r) <= high_level}
        if kept:
            cols[c] = kept
    return SparseOp(cols)


def level_shift(tf: TruncatedFock, op: SparseOp) -> int | None:
    """The uniform level shift of all entries, or None if mixed/empty."""
    shifts = {word_level(tf, r) - word_level(tf, c) for c, col in op.cols.items() for r in col}
    if len(shifts) == 1:
        return shifts.pop()
    return None


# ---------------------------------------------------------------------------
# identity checks on whole blocks
# ---------------------------------------------------------------------------


def full_block_differences(bank, builder, margin: int) -> list:
    """(case, {(row, col): (lhs, rhs)}) of one builder on ``bank``, a bank
    over a whole basis: its sides on every column of level <= L - m,
    compared on every entry of rows and columns of level <= L - m, divided
    by the case's optional 4th item."""
    tf = bank.tf
    high = tf.max_level - margin
    n = tf.prefix(high)
    out = []
    for label, lhs, rhs, *den in builder(bank, n):
        left, right = lhs.cols, rhs.cols
        diff = {}
        for c in range(n):
            left_col, right_col = left.get(c, {}), right.get(c, {})
            for r in left_col.keys() | right_col.keys():
                a, b = left_col.get(r, 0), right_col.get(r, 0)
                if r < n and a != b:
                    diff[r, c] = (Fraction(a, *den), Fraction(b, *den)) if den else (a, b)
        out.append((label, diff))
    return out


def first_difference(tf: TruncatedFock, cases, low: int):
    """(case, row, col, lhs, rhs) of the first differing entry, by column then
    row, of the first case that differs on levels >= low; None if none does."""
    first = tf.prefix(low - 1)
    for label, diff in cases:
        block = [(c, r) for r, c in diff if min(r, c) >= first]
        if block:
            col, row = min(block)
            return (label, row, col, *diff[row, col])
    return None


def full_block_report(tf: TruncatedFock, report: str, headroom: int = 1) -> Report:
    """One ``verify`` report on ``tf``, every row evaluated on its whole block
    [low, L - m] on a bank over the whole basis: what
    ``verify_fock_identities``, ``verify_relations_hk`` and ``ck_generators``
    must report, with the same skips and errors."""
    title, depth = fock._REPORTS[report]
    if tf.max_level < depth:
        raise TruncationTooShallow(f"the {report} suite needs max_level >= {depth}")
    bank = fock._Bank(tf, tf.max_level)
    evaluated: dict = {}
    checks = []
    for row in fock._TABLE:
        if row.report != report:
            continue
        high = tf.max_level - row.margin
        if high < headroom:
            notice = f"needs max_level >= {row.margin + headroom}, basis has {tf.max_level}"
            checks.append(IdentityCheck(row.identity_id, row.formula, None, "skipped", notice))
            continue
        cases = []
        for builder in row.builders:
            key = (builder, row.margin)
            if key not in evaluated:
                evaluated[key] = full_block_differences(bank, builder, row.margin)
            cases += evaluated[key]
        found = first_difference(tf, cases, row.low)
        witness = None
        if found:
            label, r, c, lhs, rhs = found
            witness = {
                "case": label,
                "row": tf.word(r).label(),
                "col": tf.word(c).label(),
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
        status = "fail" if witness else "pass"
        checks.append(IdentityCheck(row.identity_id, row.formula, (row.low, high), status, witness=witness))
    return Report(title=title, max_level=tf.max_level, checks=checks)


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def brute_force_count(ts: TextileSystem, height: int, width: int) -> int:
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
