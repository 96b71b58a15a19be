"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import quadtex as q
from quadtex.fock import ck_generators, fock_basis, verify_fock_identities, verify_relations_hk
from quadtex.ktheory import (
    build_quad_matrices,
    identity_matrix,
    k_theory,
    smith_normal_form,
)
from quadtex.subshift import count_rectangles
from conftest import FIB
from oracles import (
    brute_force_count,
    corner_pair_presentation,
    int_det,
    mat_add,
    mat_mul,
    minor_gcd,
    presentation_cross_check_pairs,
)
from row_transfer import row_transfer_count

EXCHANGE_A_KAPPA = [
    [1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 1],
    [1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 1],
]
EXCHANGE_B_KAPPA = [
    [1, 1, 1, 0, 0, 0],
    [1, 1, 1, 0, 0, 0],
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 1],
    [0, 0, 0, 1, 1, 1],
    [0, 0, 0, 1, 1, 1],
]


def report(n, ok):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


def fib_systems():
    fib = q.IntMatrix.from_rows(FIB)
    return [q.build_system(FIB, FIB, spec) for spec in q.enumerate_kappas(fib, fib)]


def test_criterion_1_exchange_example_reproduction():
    start = time.time()
    ts = q.build_system([[2]], [[3]], "exchange")
    a_kappa, b_kappa, _ = build_quad_matrices(ts)
    groups = k_theory(ts)
    elapsed = time.time() - start
    ok = (
        a_kappa == EXCHANGE_A_KAPPA
        and b_kappa == EXCHANGE_B_KAPPA
        and groups.k0_torsion == [8]
        and groups.k0_free_rank == 0
        and groups.k1_free_rank == 0
        and elapsed < 1.0
    )
    report(1, ok)


def test_criterion_2_presentation_cross_check():
    start = time.time()
    systems = []
    for a_rows, b_rows in (([[1]], [[1]]), ([[2]], [[3]])):
        a = q.IntMatrix.from_rows(a_rows)
        b = q.IntMatrix.from_rows(b_rows)
        systems.extend(
            q.build_system(a_rows, b_rows, spec) for spec in q.enumerate_kappas(a, b)
        )
    systems.extend(fib_systems())
    systems.extend(presentation_cross_check_pairs(seed=7, count=20))
    ok = True
    for ts in systems:
        a_kappa, b_kappa, h_kappa = build_quad_matrices(ts)
        n = len(a_kappa)
        small = smith_normal_form(corner_pair_presentation(a_kappa, b_kappa))
        big = smith_normal_form(mat_add(h_kappa, identity_matrix(2 * n), scale_b=-1))
        torsion_small = [f for f in small.invariant_factors if f > 1]
        torsion_big = [f for f in big.invariant_factors if f > 1]
        free_small = n - small.rank
        free_big = 2 * n - big.rank
        if torsion_small != torsion_big or free_small != free_big:
            ok = False
            break
    elapsed = time.time() - start
    report(2, ok and elapsed < 30.0)


def test_criterion_3_block_cardinality_law(all_systems):
    ok = True
    for ts in all_systems:
        product = ts.matrix_a.mul(ts.matrix_b)
        blocks = q.sigma_blocks(ts.matrix_a, ts.matrix_b)
        for (i, j), (ab, ba) in blocks.items():
            if not (len(ab) == len(ba) == product[i - 1, j - 1]):
                ok = False
    report(3, ok)


def _suite_cases():
    one = q.build_system([[1]], [[1]], "lex")
    exchange = q.build_system([[2]], [[3]], "exchange")
    fib_lex, fib_alt = fib_systems()
    return [
        ("one-tile", one, 6),
        ("exchange-2x3", exchange, 4),
        ("fib-lex", fib_lex, 5),
        ("fib-alt", fib_alt, 5),
    ]


def test_criterion_4_fock_identity_suite():
    start = time.time()
    ok = True
    for name, ts, level in _suite_cases():
        tf = fock_basis(ts, level)
        rep = verify_fock_identities(tf)
        if not rep.passed:
            ok = False
        # the margin-4 identity fits whenever the level allows; at level 4
        # it is skipped by name rather than silently dropped
        if level >= 5:
            if rep.skipped:
                ok = False
        else:
            if rep.skipped != ["tile_word_commutation"]:
                ok = False
    elapsed = time.time() - start
    report(4, ok and elapsed < 60.0)


def test_criterion_5_universal_relation_suite():
    ok = True
    for name, ts, level in _suite_cases():
        tf = fock_basis(ts, level)
        rep = verify_relations_hk(tf)
        if not rep.passed or rep.skipped:
            ok = False
    report(5, ok)


def test_criterion_6_ck_realization():
    ok = True
    for name, ts, level in _suite_cases():
        tf = fock_basis(ts, level)
        s_ops, t_ops, rep = ck_generators(tf)
        if not rep.passed:
            ok = False
        if len(s_ops) != len(ts.omega) or len(t_ops) != len(ts.omega):
            ok = False
        if {c.identity_id for c in rep.checks} != {
            "generator_partition",
            "horizontal_transition",
            "vertical_transition",
            "corner_decomposition",
        }:
            ok = False
    report(6, ok)


def test_criterion_7_snf_property_suite():
    start = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        snf = smith_normal_form(matrix)
        if mat_mul(mat_mul(snf.u, matrix), snf.v) != snf.d:
            ok = False
            break
        if abs(int_det(snf.u)) != 1 or abs(int_det(snf.v)) != 1:
            ok = False
            break
        factors = snf.invariant_factors
        if any(b % a for a, b in zip(factors, factors[1:])):
            ok = False
            break
        prod = 1
        for k, factor in enumerate(factors, start=1):
            prod *= factor
            if prod != minor_gcd(matrix, k):
                ok = False
                break
        if not ok:
            break
        if len(factors) < n and minor_gcd(matrix, len(factors) + 1) != 0:
            ok = False
            break
    elapsed = time.time() - start
    report(7, ok and elapsed < 10.0)


def test_criterion_8_subshift_consistency(all_systems):
    ok = True
    for ts in all_systems:
        for height in range(1, 10):
            for width in range(1, 10):
                if height * width > 9:
                    continue
                count = count_rectangles(ts, height, width)
                if count != brute_force_count(ts, height, width):
                    ok = False
                if count != row_transfer_count(ts, height, width):
                    ok = False
        tf = fock_basis(ts, 2)
        eta_words = sum(1 for w in tf.words if w.level == 2 and w.seps[0] == "eta")
        rho_words = sum(1 for w in tf.words if w.level == 2 and w.seps[0] == "rho")
        if count_rectangles(ts, 1, 2) != eta_words:
            ok = False
        if count_rectangles(ts, 2, 1) != rho_words:
            ok = False
    exchange = all_systems[1]
    ok = ok and count_rectangles(exchange, 1, 2) == 12 and count_rectangles(exchange, 2, 1) == 18
    report(8, ok)


def test_criterion_9_kappa_enumeration():
    cases = [
        ([[1]], [[1]]),
        ([[2]], [[3]]),
        (FIB, FIB),
        ([[2]], [[2]]),
    ]
    ok = True
    for a_rows, b_rows in cases:
        a = q.IntMatrix.from_rows(a_rows)
        b = q.IntMatrix.from_rows(b_rows)
        expected = q.count_specifications(a, b)
        if expected > 10**4:
            ok = False
            continue
        seen = {spec.pairs for spec in q.enumerate_kappas(a, b)}
        if len(seen) != expected:
            ok = False
    two = q.IntMatrix.from_rows([[2]])
    three = q.IntMatrix.from_rows([[3]])
    fib = q.IntMatrix.from_rows(FIB)
    ok = ok and q.count_specifications(two, three) == 720
    ok = ok and q.count_specifications(fib, fib) == 2
    report(9, ok)
