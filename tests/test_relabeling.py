"""Invariants do not depend on how the vertices are numbered.

A permutation P of the vertices conjugates A and B and carries every edge
i -> j (with its multiplicity index) to P(i) -> P(j), and the specification
with it.  The relabeled system must give the same K-groups, structure
flags, tile and specification counts, word-level sizes and patch counts.
"""

import random

import quadtex as q
from quadtex.fock import level_sizes
from quadtex.ktheory import analyze_system
from quadtex.subshift import count_rectangles
from conftest import FIB
from oracles import random_commuting_pair

SHAPES = [(1, 1), (1, 3), (2, 2), (3, 2), (2, 4), (4, 3)]


def _relabeled(ts, perm):
    old = [perm.index(i) for i in range(ts.n_vertices)]  # new vertex -> old vertex

    def conjugate(m):
        return [[m[i, j] for j in old] for i in old]

    def moved(e):
        return f"{e.layer}:{perm[e.source - 1] + 1}->{perm[e.target - 1] + 1}#{e.mult_index}"

    pairs = [
        [[moved(alpha), moved(b)], [moved(a), moved(beta)]]
        for (alpha, b), (a, beta) in ts.kappa.pairs
    ]
    # an explicit pairing is validated again as a specification of the new pair
    return q.build_system(conjugate(ts.matrix_a), conjugate(ts.matrix_b), pairs)


def _invariants(ts):
    report = analyze_system(ts)
    return {
        "K0": report["K0"],
        "K1": report["K1"],
        "structure": report["structure"],
        "tiles": len(ts.tiles),
        "specifications": q.count_specifications(ts.matrix_a, ts.matrix_b),
        "level_sizes": list(level_sizes(ts, 5)),
        "patches": [count_rectangles(ts, h, w) for h, w in SHAPES],
    }


def _systems():
    """Fibonacci and seeded pairs on 2 or 3 vertices, with up to two specifications each."""
    rng = random.Random(3)
    fib = q.IntMatrix.from_rows(FIB)
    pairs = [(fib, fib)]
    while len(pairs) < 8:
        a, b = random_commuting_pair(rng, total_cap=12)
        if a.n > 1:
            pairs.append((a, b))
    return [
        q.build_system(a.rows, b.rows, kappa)
        for a, b in pairs
        for kappa in q.enumerate_kappas(a, b, limit=2)
    ]


def test_invariants_survive_relabeling_the_vertices():
    systems = _systems()
    assert {ts.n_vertices for ts in systems} == {2, 3}
    rng = random.Random(3)
    for ts in systems:
        perm = list(range(ts.n_vertices))
        while perm == sorted(perm):
            rng.shuffle(perm)
        relabeled = _relabeled(ts, perm)
        assert _invariants(relabeled) == _invariants(ts), (ts.matrix_a, ts.matrix_b, perm)
