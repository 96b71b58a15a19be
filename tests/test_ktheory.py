import json
import math
import random
from pathlib import Path

import pytest

import quadtex as q
from quadtex.errors import CrossCheckFailure
from quadtex.ktheory import (
    _bareiss,
    _unit_pivots,
    build_quad_matrices,
    edge_matrix,
    identity_matrix,
    invariant_factors,
    k_groups,
    k_theory,
    smith_normal_form,
    structure_checks,
)
from conftest import FIB
from oracles import (
    corner_pair_presentation,
    dense_bareiss,
    dense_diagonalize_mod,
    int_det,
    mat_add,
    mat_mul,
    minor_gcd,
    presentation_cross_check_pairs,
    quad_matrices_by_definition,
    random_commuting_pair,
    sparse_rows,
)
from test_golden import SINGULAR


def test_exchange_pair_matrices(exchange_pair):
    a_kappa, b_kappa, h_kappa = build_quad_matrices(exchange_pair)
    assert a_kappa == [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ]
    assert b_kappa == [
        [1, 1, 1, 0, 0, 0],
        [1, 1, 1, 0, 0, 0],
        [1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1, 1],
    ]
    for i in range(6):
        for j in range(6):
            assert h_kappa[i][j] == a_kappa[i][j]
            assert h_kappa[i][6 + j] == a_kappa[i][j]
            assert h_kappa[6 + i][j] == b_kappa[i][j]
            assert h_kappa[6 + i][6 + j] == b_kappa[i][j]


def test_one_tile_matrices(one_tile):
    a_kappa, b_kappa, h_kappa = build_quad_matrices(one_tile)
    assert a_kappa == [[1]]
    assert b_kappa == [[1]]
    assert h_kappa == [[1, 1], [1, 1]]


def test_fibonacci_matrices(fibonacci):
    a_kappa, b_kappa, _ = build_quad_matrices(fibonacci)
    assert a_kappa == [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
    assert b_kappa == [[1, 1, 0], [0, 0, 1], [1, 1, 0]]


def test_snf_identity():
    snf = smith_normal_form(identity_matrix(4))
    assert snf.invariant_factors == [1, 1, 1, 1]


def test_snf_worked_example():
    # determinant-divisor oracle: d1 = gcd of entries = 2, d1*d2 = |det| = 8
    m = [[2, 4], [6, 8]]
    assert math.gcd(2, 4, 6, 8) == 2
    assert abs(int_det(m)) == 8
    snf = smith_normal_form(m)
    assert snf.invariant_factors == [2, 4]


def test_snf_of_exchange_presentation(exchange_pair):
    a_kappa, b_kappa, _ = build_quad_matrices(exchange_pair)
    m = corner_pair_presentation(a_kappa, b_kappa)
    snf = smith_normal_form(m)
    assert snf.invariant_factors == [1, 1, 1, 1, 1, 8]


def check_snf_contract(matrix):
    snf = smith_normal_form(matrix)
    rows, cols = len(matrix), len(matrix[0])
    assert mat_mul(mat_mul(snf.u, matrix), snf.v) == snf.d
    assert abs(int_det(snf.u)) == 1
    assert abs(int_det(snf.v)) == 1
    for i in range(min(rows, cols)):
        for j in range(min(rows, cols)):
            if i != j:
                assert snf.d[i][j] == 0
    factors = snf.invariant_factors
    assert all(f > 0 for f in factors)
    for first, second in zip(factors, factors[1:]):
        assert second % first == 0
    # product of the first k factors = gcd of all k x k minors
    prod = 1
    for k, factor in enumerate(factors, start=1):
        prod *= factor
        assert prod == minor_gcd(matrix, k)
    if len(factors) < min(rows, cols):
        assert minor_gcd(matrix, len(factors) + 1) == 0
    return snf


def test_snf_property_suite_small():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        check_snf_contract(matrix)


def test_snf_edge_cases():
    zero = [[0, 0], [0, 0]]
    assert smith_normal_form(zero).invariant_factors == []
    assert smith_normal_form(zero).rank == 0

    deficient = [[1, 2], [2, 4]]
    snf = check_snf_contract(deficient)
    assert snf.invariant_factors == [1]

    negative = [[-6]]
    snf = smith_normal_form(negative)
    assert snf.invariant_factors == [6]

    rng = random.Random(5)
    wide_entries = [[rng.randint(-99, 99) for _ in range(6)] for _ in range(6)]
    snf = smith_normal_form(wide_entries)
    assert mat_mul(mat_mul(snf.u, wide_entries), snf.v) == snf.d
    assert abs(int_det(snf.u)) == 1 and abs(int_det(snf.v)) == 1


def check_invariant_factors(matrix):
    # the reference normal form, itself held to the minor-gcd oracle
    factors = invariant_factors(matrix)
    assert factors == check_snf_contract(matrix).invariant_factors
    return factors


def test_invariant_factors_on_seeded_random_matrices():
    rng = random.Random(2024)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        check_invariant_factors(matrix)


def test_invariant_factors_on_singular_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(3, 5), rng.randint(2, 5)
        matrix = [[rng.choice([0, 0, 1, -1, 2, 3, -4, 6]) for _ in range(cols)] for _ in range(rows)]
        matrix[2] = [x + y for x, y in zip(matrix[0], matrix[1])]
        factors = check_invariant_factors(matrix)
        assert len(factors) < rows


def test_invariant_factors_edge_cases():
    assert invariant_factors([[0, 0], [0, 0]]) == []
    assert invariant_factors([[0]]) == []
    assert invariant_factors([[-6]]) == [6]
    assert invariant_factors([[1]]) == [1]
    # the last factor equals the minor the modulus is built from
    assert invariant_factors([[4, 0], [0, 6]]) == [2, 12]
    assert invariant_factors([[9, 0], [0, 9]]) == [9, 9]
    assert invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert invariant_factors([[1, 2], [2, 4]]) == [1]
    assert invariant_factors([[3, 0, 0]]) == [3]
    assert invariant_factors([[0], [0], [-5]]) == [5]
    assert invariant_factors(identity_matrix(4)) == [1, 1, 1, 1]


def _kernel_cases():
    """3,000 seeded matrices of sizes 1-6 x 1-6, a quarter of each kind:
    plain, with a dependent row, with a zero row and column, and scaled so
    that every pivot is a non-unit.  Entries include negatives."""
    rng = random.Random(1729)
    for k in range(3000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.choice([0, 0, 1, -1, 2, -2, 3, -4, 6]) for _ in range(cols)] for _ in range(rows)]
        if k % 4 == 1 and rows > 2:
            s, t = rng.choice([1, -1, 2]), rng.choice([1, -3])
            matrix[rng.randrange(2, rows)] = [s * x + t * y for x, y in zip(matrix[0], matrix[1])]
        elif k % 4 == 2:
            matrix[rng.randrange(rows)] = [0] * cols
            for row in matrix:
                row[rng.randrange(cols)] = 0
        elif k % 4 == 3:
            factor = rng.choice([2, -3, 6])
            matrix = [[factor * x for x in row] for row in matrix]
        yield matrix


def _reference_factors(matrix):
    """The invariant factors by the dense reference kernels."""
    rank, minor = dense_bareiss(matrix)
    if rank == 0:
        return []
    n = 2 * abs(minor)
    gcds = [math.gcd(t, n) for t in dense_diagonalize_mod([[x % n for x in row] for row in matrix], n)]
    for i in range(len(gcds)):
        for j in range(i + 1, len(gcds)):
            a, b = gcds[i], gcds[j]
            g = math.gcd(a, b)
            gcds[i], gcds[j] = g, a // g * b
    return [g for g in gcds if g != n]


def test_sparse_bareiss_matches_the_dense_reference():
    full_rank = 0
    for matrix in _kernel_cases():
        rank, minor = _bareiss(sparse_rows(matrix))
        reference_rank, reference_minor = dense_bareiss(matrix)
        assert rank == reference_rank and minor != 0
        if rank == len(matrix) == len(matrix[0]):
            # the determinant's absolute value
            assert minor == abs(reference_minor)
            full_rank += 1
    assert full_rank >= 200


def _check_factors(matrix, snf=True):
    """``invariant_factors`` against the dense reference kernels and, when
    ``snf``, the normal form.  The unit-pivot pass leaves no +-1 entry and
    no entry past the input's Hadamard bound, and its count of pivots plus
    the reference factors of the rows left are the factors.  Returns the
    number of rows left."""
    factors = invariant_factors(matrix)
    assert factors == _reference_factors(matrix)
    if snf:
        assert factors == smith_normal_form(matrix).invariant_factors
    units, left = _unit_pivots(sparse_rows(matrix))
    entries = [x for row in left for x in row.values()]
    assert all(x not in (0, 1, -1) for x in entries)
    bound = _hadamard_square(matrix)
    assert all(x * x <= bound for x in entries)
    dense = [[row.get(j, 0) for j in range(len(matrix[0]))] for row in left]
    assert [1] * units + (_reference_factors(dense) if dense else []) == factors
    return len(left)


def _hadamard_square(matrix):
    """The square of the Hadamard bound on every minor: the product of the
    squared norms of the nonzero rows."""
    return math.prod(sum(x * x for x in row) for row in matrix if any(row))


def test_sparse_kernels_give_the_normal_form_and_the_reference_factors():
    # about 0.5 s
    for matrix in _kernel_cases():
        _check_factors(matrix)


def test_block_stack_factors_match_the_reference_kernels():
    # about 0.2 s; the transform-carrying normal form only up to p = 4
    for p in range(2, 11):
        ts = q.build_system([[p]], [[p + 1]], "exchange")
        _check_factors(_minus_identity(build_quad_matrices(ts)[2]), snf=p <= 4)


def _unit_rich_cases():
    """60 seeded sparse matrices of 20-60 rows and columns, most nonzero
    entries +-1, with dependent rows and a scaled block mixed in; a third
    each has density 0.04, 0.08 and 0.15, in turn."""
    rng = random.Random(4711)
    for k in range(60):
        rows, cols = rng.randint(20, 60), rng.randint(20, 60)
        density = (0.04, 0.08, 0.15)[k // 3 % 3]
        matrix = [
            [rng.choice([1, -1, 1, -1, 2, -3]) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        if k % 3 == 1:
            matrix[-1] = [x - 2 * y for x, y in zip(matrix[0], matrix[1])]
        elif k % 3 == 2:
            for row in matrix[: rows // 2]:
                row[:] = [6 * x for x in row]
        yield matrix


def test_unit_pivots_keep_the_factors_on_unit_rich_matrices():
    # about 0.3 s.  The transform-carrying normal form runs on the sparsest
    # third alone: on the denser ones its coefficients grow for seconds
    left_over = 0
    for k, matrix in enumerate(_unit_rich_cases()):
        left_over += _check_factors(matrix, snf=k // 3 % 3 == 0) > 0
    assert left_over >= 50


def test_exchange_family_k0():
    for p in range(3, 11):
        groups = k_theory(q.build_system([[p]], [[p + 1]], "exchange"))
        assert groups.k0_torsion == [p - 1] + [p * (p - 1)] * (p - 2) + [2 * p * p * (p - 1)]
        assert groups.k0_free_rank == 0 and groups.k1_free_rank == 0


def test_exchange_six_by_seven_regression():
    # took unbounded time through the transform-carrying normal form
    ts = q.build_system([[6]], [[7]], "exchange")
    groups = k_theory(ts)
    assert groups.k0_torsion == [5, 30, 30, 30, 30, 360]
    assert groups.k0_free_rank == 0 and groups.k1_free_rank == 0
    assert math.prod(groups.k0_torsion) == 1_458_000_000
    a_kappa, b_kappa, _ = build_quad_matrices(ts)
    small = corner_pair_presentation(a_kappa, b_kappa)
    assert abs(int_det(small)) == 1_458_000_000


def test_k_theory_values(exchange_pair, one_tile, fibonacci):
    groups = k_theory(exchange_pair)
    assert groups.k0_torsion == [8]
    assert groups.k0_free_rank == 0
    assert groups.k1_free_rank == 0
    assert groups.describe() == ("Z/8Z", "0")

    groups = k_theory(one_tile)
    assert groups.describe() == ("0", "0")

    # oracle for the fibonacci presentation: cofactor determinant and
    # 2x2 minor gcd fix the invariant factors as (1, 1, 5)
    a_kappa, b_kappa, _ = build_quad_matrices(fibonacci)
    m = corner_pair_presentation(a_kappa, b_kappa)
    assert int_det(m) == 5
    assert minor_gcd(m, 1) == 1
    assert minor_gcd(m, 2) == 1
    groups = k_theory(fibonacci)
    assert groups.k0_torsion == [5]
    assert groups.describe() == ("Z/5Z", "0")


def test_presentation_cross_check_over_enumerated_kappas(one_tile):
    fib = q.IntMatrix.from_rows(FIB)
    for spec in q.enumerate_kappas(fib, fib):
        ts = q.build_system(FIB, FIB, spec)
        k_theory(ts)  # raises CrossCheckFailure on mismatch
    k_theory(one_tile)


def test_disagreeing_presentations_report_both_groups():
    # [[3]] - I presents Z/2 with no free part, [[1]] - I presents Z
    with pytest.raises(CrossCheckFailure) as exc:
        k_groups([[3]], [[1]])
    assert exc.value.details == {
        "edges": {"k0_torsion": [2], "k0_free_rank": 0, "k1_free_rank": 0},
        "block": {"k0_torsion": [], "k0_free_rank": 1, "k1_free_rank": 1},
    }


def test_presentation_cross_check_on_random_pairs():
    for ts in presentation_cross_check_pairs(seed=3, count=5):
        k_theory(ts)


def _systems_for_the_three_presentations():
    inputs = Path(__file__).resolve().parent.parent / "inputs"
    for path in sorted(inputs.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        yield q.build_system(doc["A"], doc["B"], doc.get("kappa", "lex"))
    yield from presentation_cross_check_pairs(7, 20)
    rng = random.Random(41)
    for _ in range(12):
        a, b = random_commuting_pair(rng)
        for spec in q.enumerate_kappas(a, b, limit=4):
            yield q.build_system(a.rows, b.rows, spec)
    for doc in SINGULAR.values():
        yield q.build_system(doc["A"], doc["B"], doc.get("kappa", "lex"))
    for p in range(2, 11):
        yield q.build_system([[p]], [[p + 1]], "exchange")


def _k0(presentation):
    factors = invariant_factors(presentation)
    return [f for f in factors if f > 1], len(presentation) - len(factors)


def _minus_identity(matrix):
    return mat_add(matrix, identity_matrix(len(matrix)), scale_b=-1)


def test_edge_matrix_block_stack_and_corner_pairs_present_the_same_groups():
    singular = 0
    for ts in _systems_for_the_three_presentations():
        a_kappa, b_kappa, h_kappa = build_quad_matrices(ts)
        # the one-pass build against the entry-by-entry definition
        assert (a_kappa, b_kappa) == quad_matrices_by_definition(ts)
        edges = edge_matrix(ts)
        assert len(edges) == len(ts.edges_a) + len(ts.edges_b)
        expected = _k0(corner_pair_presentation(a_kappa, b_kappa))
        assert _k0(_minus_identity(edges)) == expected
        assert _k0(_minus_identity(h_kappa)) == expected
        groups = k_theory(ts)
        assert (groups.k0_torsion, groups.k0_free_rank) == expected
        singular += expected[1] > 0
    # the sweep reaches presentations with free part, not only finite groups
    assert singular >= 3


def test_edge_matrix_counts_tiles_by_edges(exchange_pair):
    # [[2]] x [[3]] exchange: tile (alpha, b) has left b, top alpha, right b, bottom alpha
    assert edge_matrix(exchange_pair) == [
        [3, 0, 1, 1, 1],
        [0, 3, 1, 1, 1],
        [1, 1, 2, 0, 0],
        [1, 1, 0, 2, 0],
        [1, 1, 0, 0, 2],
    ]


def test_analyze_warnings_agree_with_the_library_checks(all_systems, fibonacci_alt):
    from quadtex.algebra import layer_unit_vector, left_basis_vector, top_basis_vector
    from quadtex.ktheory import analyze_system
    from quadtex.textile import empty_basis_edges, is_essential

    rng = random.Random(4242)
    seeded = [q.build_system(a.rows, b.rows, "lex") for a, b in (random_commuting_pair(rng) for _ in range(30))]
    bridge = q.build_system([[0, 1], [0, 0]], [[0, 1], [0, 0]], "lex")  # no tiles at all
    seen = set()
    for ts in all_systems + [fibonacci_alt, bridge] + seeded:
        expected = [
            f"layer {layer} is not essential (some vertex has no incoming edge)"
            for layer in ("A", "B")
            if not is_essential(ts, layer)
        ]
        if empty := empty_basis_edges(ts):
            expected.append("edges without a tile over them: " + ", ".join(e.id for e in empty))
        assert analyze_system(ts)["warnings"] == expected
        # both checks agree with their module definitions: in-degree >= 1, and a zero basis vector
        for layer in ("A", "B"):
            assert is_essential(ts, layer) == all(c >= 1 for c in layer_unit_vector(ts, layer).coeffs)
        zero = [e for e in ts.edges_a if top_basis_vector(ts, e).is_zero()]
        zero += [e for e in ts.edges_b if left_basis_vector(ts, e).is_zero()]
        assert empty_basis_edges(ts) == zero
        seen.update(w.split(" ")[0] for w in expected)
    # both warnings occur among these systems
    assert seen == {"layer", "edges"}


def test_random_commuting_pairs_commute_and_stay_small():
    rng = random.Random(1)
    for _ in range(10):
        a, b = random_commuting_pair(rng)
        q.check_commuting(a, b)
        product = a.mul(b)
        assert sum(product[i, j] for i in range(a.n) for j in range(a.n)) <= 60


def test_structure_checks(exchange_pair):
    _, _, h_kappa = build_quad_matrices(exchange_pair)
    result = structure_checks(h_kappa)
    assert result == {"irreducible": True, "condition_I": True, "has_zero_row": False}

    permutation = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    result = structure_checks(permutation)
    assert result["irreducible"] is True
    assert result["condition_I"] is False

    with_zero_row = [[1, 1], [0, 0]]
    assert structure_checks(with_zero_row)["has_zero_row"] is True


def test_structure_check_reachability():
    # vertex 0 only feeds a dead end: no cycle is reachable from it
    unreachable = [[0, 1], [0, 0]]
    assert structure_checks(unreachable)["condition_I"] is False
    # cycle with an exit and a return path satisfies both properties
    good = [[1, 1], [1, 0]]
    assert structure_checks(good) == {
        "irreducible": True,
        "condition_I": True,
        "has_zero_row": False,
    }


def brute_structure(matrix):
    """The three structure flags straight from their definitions."""
    n = len(matrix)
    # reach[i][j]: a path of length >= 1 from i to j (transitive closure)
    reach = [[bool(v) for v in row] for row in matrix]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    on_cycle = {v for v in range(n) if reach[v][v]}
    every_vertex_reaches = all(
        v in on_cycle or any(reach[v][w] for w in on_cycle) for v in range(n)
    )
    out_degree = [sum(1 for v in row if v) for row in matrix]
    # a cycle without an exit: a cycle in the graph cut down to the
    # vertices of out-degree one
    single = [[bool(v) and out_degree[i] == 1 for v in row] for i, row in enumerate(matrix)]
    for k in range(n):
        for i in range(n):
            if single[i][k]:
                for j in range(n):
                    single[i][j] = single[i][j] or single[k][j]
    exitless = any(single[v][v] for v in range(n))
    return {
        "irreducible": n > 0 and all(i == j or reach[i][j] for i in range(n) for j in range(n)),
        "condition_I": every_vertex_reaches and not exitless,
        "has_zero_row": any(out_degree[v] == 0 for v in range(n)),
    }


def test_structure_checks_match_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 7)
        density = rng.choice([0.15, 0.3, 0.5])
        matrix = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        assert structure_checks(matrix) == brute_structure(matrix), matrix
    # functional graphs: one 1 per row, so every walk closes a cycle of
    # out-degree-one vertices or merges into an earlier walk; a second 1
    # in some rows gives those cycles exits
    for _ in range(600):
        n = rng.randint(0, 9)
        matrix = [[0] * n for _ in range(n)]
        for row in matrix:
            row[rng.randrange(n)] = 1
        for row in matrix:
            if rng.random() < rng.choice([0, 0.1, 0.3]):
                row[rng.randrange(n)] = 1
        assert structure_checks(matrix) == brute_structure(matrix), matrix
    for _ in range(300):
        n = rng.randint(0, 9)
        density = rng.choice([0.1, 0.2, 0.35])
        matrix = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        assert structure_checks(matrix) == brute_structure(matrix), matrix
    assert structure_checks([]) == {
        "irreducible": False,
        "condition_I": True,
        "has_zero_row": False,
    }


def test_row_sum_consistency(all_systems):
    for ts in all_systems:
        left_table, _ = q.kappa_indicators(ts)
        a_kappa, _, _ = build_quad_matrices(ts)
        omega = ts.omega
        count_by_b = {}
        for pair in omega:
            count_by_b[pair.a] = count_by_b.get(pair.a, 0) + 1
        for i, pair in enumerate(omega):
            expected = sum(
                left_table.get((pair.a, pair.alpha, b), 0) * count_by_b.get(b, 0)
                for b in ts.edges_b
            )
            assert sum(a_kappa[i]) == expected
