"""Invariants do not depend on which layer is called horizontal.

Swapping the two layers takes ``(A, B, kappa)`` to ``(B, A, kappa')``: each
edge keeps its ends and multiplicity index and moves to the other layer,
and every tile is reflected in its main diagonal, so top and left trade
places, and so do right and bottom.  For ``kappa((alpha, b)) = (a, beta)``
the swapped specification sends ``(a', beta')`` to ``(alpha', b')``.  The
swap must give the same K-groups and structure flags, the same tile,
specification and word counts, and transposed patches.
"""

import json
import random

import quadtex as q
from quadtex.fock import ck_generators, fock_basis, verify_fock_identities, verify_relations_hk
from quadtex.ktheory import analyze_system
from quadtex.subshift import count_rectangles, enumerate_rectangles
from conftest import FIB
from library import level_sizes
from oracles import random_commuting_pair

SHAPES = [(1, 1), (2, 3), (3, 2), (2, 2), (1, 4)]
OTHER_LAYER = {"A": "B", "B": "A"}


def _moved(e):
    return e._replace(layer=OTHER_LAYER[e.layer])


def _reflected(t):
    return q.Tile(top=_moved(t.left), right=_moved(t.bottom), left=_moved(t.top), bottom=_moved(t.right))


def _swapped(ts):
    pairs = [
        [[_moved(a).id, _moved(beta).id], [_moved(alpha).id, _moved(b).id]]
        for (alpha, b), (a, beta) in ts.kappa.pairs
    ]
    # an explicit pairing is validated again as a specification of the new pair
    return q.build_system(ts.matrix_b.rows, ts.matrix_a.rows, pairs)


def _invariants(ts):
    report = analyze_system(ts)
    return {
        "n": report["n"],
        "K0": report["K0"],
        "K1": report["K1"],
        "structure": report["structure"],
        "tiles": len(ts.tiles),
        "specifications": q.count_specifications(ts.matrix_a, ts.matrix_b),
        "level_sizes": list(level_sizes(ts, 5)),
    }


def _bundled():
    """The systems of ``inputs/``, as the CLI reads them."""
    return [
        q.build_system([[1]], [[1]], "lex"),
        q.build_system([[2]], [[3]], "exchange"),
        q.build_system(FIB, FIB, "lex"),
    ]


def _systems():
    """The bundled systems, [[3]] x [[4]] exchange, and seeded pairs with up
    to five specifications each."""
    rng = random.Random(9)
    systems = _bundled() + [q.build_system([[3]], [[4]], "exchange")]
    for _ in range(15):
        a, b = random_commuting_pair(rng, total_cap=12)
        systems.extend(q.build_system(a.rows, b.rows, k) for k in q.enumerate_kappas(a, b, limit=5))
    return systems


def test_swapping_the_layers_twice_is_the_identity():
    for ts in _bundled():
        back = _swapped(_swapped(ts))
        assert (back.matrix_a, back.matrix_b, back.kappa, back.tiles) == (ts.matrix_a, ts.matrix_b, ts.kappa, ts.tiles)


def test_invariants_survive_swapping_the_layers():
    systems = _systems()
    assert len(systems) == 66 and {ts.n_vertices for ts in systems} == {1, 2, 3}
    for ts in systems:
        swapped = _swapped(ts)
        label = (ts.matrix_a, ts.matrix_b, ts.kappa.pairs)
        reflected = {t: _reflected(t) for t in ts.tiles}
        assert set(swapped.tiles) == set(reflected.values()), label
        assert _invariants(swapped) == _invariants(ts), label
        for h, w in SHAPES:
            assert count_rectangles(swapped, w, h) == count_rectangles(ts, h, w), (label, h, w)
        transposed = {
            tuple(tuple(reflected[row[j]] for row in rect.cells) for j in range(3))
            for rect in enumerate_rectangles(ts, 2, 3)
        }
        assert {rect.cells for rect in enumerate_rectangles(swapped, 3, 2)} == transposed, label
        assert len(transposed) == count_rectangles(ts, 2, 3), label


def _reports(ts):
    tf = fock_basis(ts, 4)
    reports = (verify_fock_identities(tf, headroom=2), verify_relations_hk(tf), ck_generators(tf)[2])
    return [r.to_jsonable() for r in reports]


def test_verify_reports_survive_swapping_the_layers():
    for ts in _bundled():
        reports = _reports(ts)
        assert all(r["passed"] for r in reports)
        assert json.dumps(_reports(_swapped(ts))) == json.dumps(reports)
