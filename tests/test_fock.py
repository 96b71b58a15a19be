import gc
import itertools
import random
import re
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from functools import reduce

import pytest

import quadtex as q
import quadtex.fock as fock

from quadtex.algebra import DiagElem, EdgeElem, pullback_along_kappa
from quadtex.errors import BasisTooLarge, LayerMismatch, TruncationTooShallow, UnknownEdge
from quadtex.fock import (
    SEP_ETA,
    SEP_RHO,
    FockWord,
    SparseOp,
    adjoint,
    ck_generators,
    creation,
    creation_from_vector,
    fock_basis,
    graded_projection,
    left_action_op,
    rank_one,
    verify_fock_identities,
    verify_relations_hk,
)
from conftest import by_id
import creation_oracle
from library import basis_words, edge_from_values, level_sizes, word_level
from oracles import (
    apply,
    basis_vector,
    eager_words,
    entry,
    kappa_indicators,
    level_shift,
    random_commuting_pair,
    restrict,
    scale,
)


@pytest.fixture(scope="module")
def tf_exchange(exchange_pair):
    return fock_basis(exchange_pair, 4)


@pytest.fixture(scope="module")
def tf_fib(fibonacci):
    return fock_basis(fibonacci, 4)


def word_inner(tf, left, right):
    out = [Fraction(0)] * tf.ts.n_vertices
    for i, (x, y) in enumerate(zip(left, right)):
        if x and y:
            out[tf.word(i).vertex - 1] += x * y
    return tuple(out)


def test_basis_counts(tf_exchange, one_tile):
    assert tf_exchange.count_at(0) == 5
    assert tf_exchange.count_at(1) == 6
    assert tf_exchange.count_at(2) == 30
    eta_first = [
        w for w in basis_words(tf_exchange) if w.level == 2 and w.seps[0] == "eta"
    ]
    assert len(eta_first) == 12

    tf0 = fock_basis(one_tile, 3)
    assert [tf0.count_at(n) for n in range(4)] == [2, 1, 2, 4]


def test_basis_gluing_invariant(tf_fib):
    for word in basis_words(tf_fib):
        for prev, sep, nxt in zip(word.tiles, word.seps, word.tiles[1:]):
            if sep == "eta":
                assert prev.right == nxt.left
            else:
                assert prev.bottom == nxt.top


def test_basis_cap(exchange_pair):
    with pytest.raises(BasisTooLarge):
        fock_basis(exchange_pair, 4, cap=100)
    with pytest.raises(ValueError):
        fock_basis(exchange_pair, 0)


# a level past sys.maxsize (2**63 - 1 on 64-bit builds) answers as a smaller one
DEEP_LEVELS = (10**9, 2**63 - 1, 2**63, 10**20)


def test_the_cap_check_stops_at_the_first_empty_level(monkeypatch):
    # each word's tail is a word of the level below, so after an empty level
    # every level is empty; and once the vector of path counts repeats, every
    # later level holds as many words.  Neither the count nor verify walks on
    # to the level asked for.  Level 10^9 answers in milliseconds; the bound is 2 s
    drawn = []
    real = fock._levels
    monkeypatch.setattr(fock, "_levels", lambda ts: ((drawn.append(n) or (n, held)) for n, held in real(ts)))
    shift = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    one_word = ([[1, 1], [0, 1]], [[0, 1], [0, 0]])
    # no tile (A = 0); one tile and no longer word (A = B nilpotent); one
    # word at every level, read to level 2, the first one the cap applies to
    for a, b, sizes in (([[0]], [[1]], [1, 0]), (shift, shift, [4, 1, 0]), (*one_word, [4, 1, 1])):
        ts = q.build_system(a, b)
        for top in DEEP_LEVELS:
            drawn.clear()
            start = time.perf_counter()
            reports = fock.verify_level(ts, top)
            assert time.perf_counter() - start < 2
            assert [r.max_level for r in reports] == [top] * 3 and all(r.passed for r in reports)
            # the cap check at the top level, then the basis verify_level builds (depth 4)
            assert drawn == sizes + sizes, (a, b, top)
    # a level over the cap before the first empty one is still refused
    longer = [[int(j == i + 1) for j in range(4)] for i in range(4)]
    assert list(level_sizes(q.build_system(longer, longer), 4)) == [6, 2, 2, 0, 0]
    with pytest.raises(BasisTooLarge, match=r"^level 2 would hold 2 words \(cap 1\)$"):
        fock.verify_level(q.build_system(longer, longer), 10**9, cap=1)
    # a repeated level size is still held to the cap
    for top in DEEP_LEVELS:
        with pytest.raises(BasisTooLarge, match=r"^level 2 would hold 1 words \(cap 0\)$"):
            fock.verify_level(q.build_system(*one_word), top, cap=0)


def _library_reports(tf):
    reports = verify_fock_identities(tf), verify_relations_hk(tf), ck_generators(tf)[2]
    return [r.to_jsonable() for r in reports]


def test_the_basis_stops_at_the_first_empty_level():
    # no level is built past an empty one, as every later level is empty too:
    # the basis at 10^9 and deeper takes milliseconds; the bound is 1 s
    shift = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    # no tile (A = 0); one tile and no longer word (A = B nilpotent)
    for a, b, sizes in (([[0]], [[1]], [1, 0]), (shift, shift, [4, 1, 0])):
        ts = q.build_system(a, b)
        # a start per level up to the first empty one, then dim
        starts = tuple(sum(sizes[:n]) for n in range(len(sizes) + 1))
        for top in DEEP_LEVELS:
            start = time.perf_counter()
            tf = fock_basis(ts, top)
            assert time.perf_counter() - start < 1
            assert (tf.max_level, tf.starts, tf.dim) == (top, starts, sum(sizes))
            levels = [-1, 0, 1, 2, 3, top, top + 1]
            assert [tf.count_at(n) for n in levels] == [sizes[n] if 0 <= n < len(sizes) else 0 for n in levels]
            assert tf.prefix(top) == tf.prefix(3) == tf.dim
            head = tf.up_to(4)
            assert (head.max_level, head.starts, head.splits) == (4, starts, tf.splits)
            assert _library_reports(tf) == [r.to_jsonable() for r in fock.verify_level(ts, top)]
        # the same answers as with a start for every level, the layout that
        # had one per level up to max_level
        short = fock_basis(ts, 7)
        full = fock.TruncatedFock(ts, 7, short.starts + (short.dim,) * (9 - len(short.starts)), short.splits)
        for n in range(-2, 10):
            assert (short.count_at(n), short.prefix(n)) == (full.count_at(n), full.prefix(n))
        assert [word_level(short, i) for i in range(short.dim)] == [word_level(full, i) for i in range(full.dim)]
        for n in range(1, 8):
            assert short.up_to(n).splits == full.up_to(n).splits
        assert _library_reports(short) == _library_reports(full)


def test_creation_on_base_words(tf_exchange, exchange_pair):
    alpha1 = by_id(exchange_pair, "A:1->1#1")
    b2 = by_id(exchange_pair, "B:1->1#2")
    s1 = creation(tf_exchange, "s", alpha1)
    index = {w: i for i, w in enumerate(basis_words(tf_exchange))}
    col = index[FockWord(base_kind="q", base=b2)]
    target = {(t.top, t.right): t for t in exchange_pair.tiles}[(alpha1, b2)]
    assert s1.cols[col] == {index[FockWord(tiles=(target,), seps=())]: 1}
    # the A-edge summand is annihilated
    for alpha in exchange_pair.edges_a:
        assert index[FockWord(base_kind="p", base=alpha)] not in s1.cols


def test_creation_on_base_words_vertical(tf_fib, fibonacci):
    b1 = by_id(fibonacci, "B:1->1#1")
    a1 = by_id(fibonacci, "A:1->1#1")
    t1 = creation(tf_fib, "t", b1)
    index = {w: i for i, w in enumerate(basis_words(tf_fib))}
    col = index[FockWord(base_kind="p", base=a1)]
    tile = {(t.top, t.right): t for t in fibonacci.tiles}[(a1, b1)]
    assert tile.left == b1 and tile.bottom == a1
    assert t1.cols[col] == {index[FockWord(tiles=(tile,), seps=())]: 1}


def test_creation_argument_checks(tf_exchange, exchange_pair):
    with pytest.raises(LayerMismatch):
        creation(tf_exchange, "s", by_id(exchange_pair, "B:1->1#1"))
    with pytest.raises(UnknownEdge):
        from quadtex.textile import Edge

        creation(tf_exchange, "t", Edge("B", 7, 7, 1))
    with pytest.raises(ValueError):
        creation(tf_exchange, "x", by_id(exchange_pair, "A:1->1#1"))


def test_creation_refuses_an_unknown_kind_and_keeps_int_entries(tf_exchange, exchange_pair):
    # every kind other than s and t is refused, not read as t
    xi = q.QuadVector.from_values(exchange_pair, [1] * len(exchange_pair.tiles))
    with pytest.raises(ValueError, match="kind must be 's' or 't', got 'x'"):
        creation_from_vector(tf_exchange, "x", xi)
    for lay in fock._Bank(tf_exchange, 4).layers:
        for op in lay.op.values():
            assert op.nnz() and all(type(v) is int for col in op.cols.values() for v in col.values())


def test_adjoint_involution_and_level_shifts(tf_exchange, exchange_pair):
    for kind, edges in (("s", exchange_pair.edges_a), ("t", exchange_pair.edges_b)):
        for edge in edges:
            op = creation(tf_exchange, kind, edge)
            assert adjoint(adjoint(op)) == op
            assert level_shift(tf_exchange, op) == 1
            assert level_shift(tf_exchange, adjoint(op)) == -1
            # partial permutation: no column carries two entries
            assert all(len(col) == 1 for col in op.cols.values())
            assert all(v == 1 for col in op.cols.values() for v in col.values())
    diag = left_action_op(tf_exchange, "rho", edge_from_values(exchange_pair, "A", [1, 1]))
    assert level_shift(tf_exchange, diag) == 0


def test_adjoint_of_creation_sends_tiles_to_markers(tf_exchange, exchange_pair):
    alpha1 = by_id(exchange_pair, "A:1->1#1")
    star = adjoint(creation(tf_exchange, "s", alpha1))
    index = {w: i for i, w in enumerate(basis_words(tf_exchange))}
    for tile in exchange_pair.tiles:
        col = index[FockWord(tiles=(tile,), seps=())]
        if tile.top == alpha1:
            expected = index[FockWord(base_kind="q", base=tile.right)]
            assert star.cols[col] == {expected: 1}
        else:
            assert col not in star.cols


def test_co_isometry_on_markers(tf_exchange, exchange_pair):
    alpha1 = by_id(exchange_pair, "A:1->1#1")
    s1 = creation(tf_exchange, "s", alpha1)
    block = restrict(tf_exchange, adjoint(s1) @ s1, 0, 0)
    expected = {}
    index = {w: i for i, w in enumerate(basis_words(tf_exchange))}
    for b in exchange_pair.edges_b:
        i = index[FockWord(base_kind="q", base=b)]
        expected[i] = {i: 1}
    assert block == SparseOp(expected)


def test_adjoint_is_adjoint_for_word_pairing(tf_fib):
    rng = random.Random(17)
    ops = [
        creation(tf_fib, "s", tf_fib.ts.edges_a[0]),
        creation(tf_fib, "t", tf_fib.ts.edges_b[1]),
        left_action_op(tf_fib, "eta", EdgeElem.basis(tf_fib.ts, tf_fib.ts.edges_b[0])),
        graded_projection(tf_fib, "rho"),
    ]
    vec = lambda: [
        Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0)
        for _ in range(tf_fib.dim)
    ]
    for op in ops:
        star = adjoint(op)
        for _ in range(25):
            zeta, w = vec(), vec()
            assert word_inner(tf_fib, apply(tf_fib, star, zeta), w) == word_inner(
                tf_fib, zeta, apply(tf_fib, op, w)
            )


def test_left_action_unit_and_support(tf_exchange, exchange_pair):
    unit_rho = left_action_op(tf_exchange, "rho", edge_from_values(exchange_pair, "A", [1, 1]))
    words = basis_words(tf_exchange)
    for i, word in enumerate(words):
        expected = 1 if word.tiles or word.base_kind == "p" else 0
        assert entry(unit_rho, i, i) == expected

    p1 = left_action_op(
        tf_exchange, "rho", EdgeElem.basis(exchange_pair, by_id(exchange_pair, "A:1->1#1"))
    )
    level1 = [i for i in range(tf_exchange.dim) if words[i].level == 1]
    hits = [i for i in level1 if entry(p1, i, i) == 1]
    assert len(hits) == 3
    assert all(words[i].tiles[0].top.mult_index == 1 for i in hits)


def test_embeddings_agree_above_level_zero(tf_fib, fibonacci):
    from quadtex.algebra import embed

    for v in range(1, 3):
        y = DiagElem.basis(2, v)
        lhs = left_action_op(tf_fib, "rho", embed(fibonacci, "A", y))
        rhs = left_action_op(tf_fib, "eta", embed(fibonacci, "B", y))
        assert restrict(tf_fib, lhs, 1, 4) == restrict(tf_fib, rhs, 1, 4)


def test_graded_projection_partition(tf_exchange):
    total = (
        graded_projection(tf_exchange, "level", 0)
        + graded_projection(tf_exchange, "level", 1)
        + graded_projection(tf_exchange, "rho")
        + graded_projection(tf_exchange, "eta")
    )
    assert total == SparseOp.identity(tf_exchange)
    assert graded_projection(tf_exchange, "level", 1).nnz() == 6
    tf2 = fock_basis(tf_exchange.ts, 2)
    assert graded_projection(tf2, "rho").nnz() == 12
    assert graded_projection(tf2, "eta").nnz() == 18


def test_rank_one_partitions(tf_exchange, exchange_pair):
    total = SparseOp()
    for a in exchange_pair.edges_b:
        marker = basis_vector(tf_exchange, FockWord(base_kind="q", base=a))
        total = total + rank_one(tf_exchange, marker, marker)
    for alpha in exchange_pair.edges_a:
        marker = basis_vector(tf_exchange, FockWord(base_kind="p", base=alpha))
        total = total + rank_one(tf_exchange, marker, marker)
    assert total == graded_projection(tf_exchange, "level", 0)

    total = SparseOp()
    for tile in exchange_pair.tiles:
        vec = basis_vector(tf_exchange, FockWord(tiles=(tile,), seps=()))
        total = total + rank_one(tf_exchange, vec, vec)
    assert total == graded_projection(tf_exchange, "level", 1)


def test_rank_one_off_diagonal(tf_exchange, tf_fib):
    # single vertex: every mixed tile pair gives one matrix unit
    tiles = tf_exchange.ts.tiles
    for i, first in enumerate(tiles):
        for j, second in enumerate(tiles):
            if i == j:
                continue
            op = rank_one(
                tf_exchange,
                basis_vector(tf_exchange, FockWord(tiles=(first,), seps=())),
                basis_vector(tf_exchange, FockWord(tiles=(second,), seps=())),
            )
            assert op.nnz() == 1

    # two vertices: the pairing vanishes unless the corner vertices match
    tiles = tf_fib.ts.tiles
    for first in tiles:
        for second in tiles:
            op = rank_one(
                tf_fib,
                basis_vector(tf_fib, FockWord(tiles=(first,), seps=())),
                basis_vector(tf_fib, FockWord(tiles=(second,), seps=())),
            )
            assert op.nnz() == (1 if first.vertex == second.vertex else 0)


def test_rank_one_above_level_one_matches_the_vertex_pairing(tf_fib):
    # theta_{xi,zeta}(gamma) = xi scaled, per word, by <zeta|gamma> at the
    # word's terminal vertex; supports on levels 2..4 over both vertices
    rng = random.Random(1123)
    tf = tf_fib
    above = range(tf.prefix(1), tf.dim)
    values = [-2, -1, 1, 3, Fraction(1, 2)]
    for _ in range(4):
        xi, zeta = [0] * tf.dim, [0] * tf.dim
        for vec in (xi, zeta):
            for i in rng.sample(above, 15):
                vec[i] = rng.choice(values)
        op = rank_one(tf, xi, zeta)
        assert op.nnz() and all(word_level(tf, i) >= 2 for c, col in op.cols.items() for i in (c, *col))
        for _ in range(3):
            gamma = [rng.choice(values + [0, 0]) for _ in range(tf.dim)]
            pairing = word_inner(tf, zeta, gamma)
            expected = [x * pairing[w.vertex - 1] for x, w in zip(xi, basis_words(tf))]
            assert apply(tf, op, gamma) == expected
    assert {tf.word(i).vertex for i in above} == {1, 2}


def test_identity_suite_passes(tf_exchange):
    report = verify_fock_identities(tf_exchange)
    assert report.passed
    assert [c.identity_id for c in report.checks if c.status == "skipped"] == ["tile_word_commutation"]


def test_identity_suite_strict_request_raises(exchange_pair):
    tf3 = fock_basis(exchange_pair, 3)
    with pytest.raises(TruncationTooShallow):
        verify_fock_identities(tf3, identities=["tile_word_commutation"])
    with pytest.raises(ValueError):
        verify_fock_identities(tf3, identities=["no_such_identity"])


def test_identity_suite_full_at_higher_level(fibonacci_alt):
    tf = fock_basis(fibonacci_alt, 5)
    report = verify_fock_identities(tf)
    assert report.passed
    assert all(c.status != "skipped" for c in report.checks)


def test_relations_and_generators(tf_fib, fibonacci):
    report = verify_relations_hk(tf_fib)
    assert report.passed
    s_ops, t_ops, gen_report = ck_generators(tf_fib)
    assert gen_report.passed
    assert len(s_ops) == len(t_ops) == len(fibonacci.omega)


def test_relations_need_depth(exchange_pair):
    tf3 = fock_basis(exchange_pair, 3)
    with pytest.raises(TruncationTooShallow):
        verify_relations_hk(tf3)
    with pytest.raises(TruncationTooShallow):
        ck_generators(tf3)


def test_report_serialization(tf_exchange):
    report = verify_fock_identities(tf_exchange)
    payload = report.to_jsonable()
    assert payload["passed"] is True
    for check in payload["identities"]:
        assert set(check) >= {"identity_id", "formula", "levels_checked", "status"}


def test_word_basis_vertex_bookkeeping(fibonacci):
    # the pairing of two distinct basis words vanishes and a word pairs
    # with itself to its terminal vertex, exhaustively at shallow depth
    tf = fock_basis(fibonacci, 3)
    words = basis_words(tf)
    units = [basis_vector(tf, word) for word in words]
    for i, word in enumerate(words):
        if word.tiles:
            assert word.vertex == word.tiles[-1].vertex
        else:
            assert word.vertex == word.base.target
        e_i = units[i]
        self_pair = word_inner(tf, e_i, e_i)
        assert self_pair == tuple(
            1 if v == word.vertex else 0 for v in range(1, 3)
        )
        for j in range(i + 1, tf.dim):
            assert word_inner(tf, e_i, units[j]) == (0, 0)


def test_random_commuting_systems_satisfy_relations():
    import random

    rng = random.Random(314)
    checked = 0
    while checked < 3:
        a, b = random_commuting_pair(rng, total_cap=6)
        import quadtex as q

        ts = q.build_system(a.rows, b.rows, "lex")
        if not ts.tiles:
            continue
        tf = fock_basis(ts, 4)
        assert verify_fock_identities(tf).passed
        assert verify_relations_hk(tf).passed
        assert ck_generators(tf)[2].passed
        checked += 1


def test_tile_word_identity_with_content_at_depth(fibonacci):
    # the four-factor word operator lowers twice before raising, so it only
    # carries entries on levels >= 3; at depth 7 the compared block [0, 3]
    # genuinely exercises the identity instead of comparing empty blocks
    tf = fock_basis(fibonacci, 7)
    report = verify_fock_identities(tf, identities=["tile_word_commutation"])
    assert report.passed and all(c.status != "skipped" for c in report.checks)

    s, t = fock._Bank(tf, 7).layers
    content = 0
    for tile in fibonacci.tiles:
        word_op = t.op[tile.left] @ s.op[tile.bottom] @ t.adj[tile.right] @ s.adj[tile.top]
        content += restrict(tf, word_op, 0, 3).nnz()
    assert content > 0


def test_detects_a_broken_identity(tf_exchange, exchange_pair):
    # sanity check of the comparison harness itself: a wrong right-hand
    # side must produce a fail with a witness entry
    from quadtex.fock import _differences

    s1 = creation(tf_exchange, "s", by_id(exchange_pair, "A:1->1#1"))
    [(case, diff)] = _differences(
        tf_exchange, [("broken", s1 @ adjoint(s1), SparseOp.identity(tf_exchange))], 3
    )
    assert diff
    assert case == "broken"


def test_level_sizes_predict_the_basis_and_the_cap():
    # lex on every pair and, on one vertex, the exchange specification too
    rng = random.Random(2718)
    checked = {"lex": 0, "exchange": 0}
    while checked["lex"] < 6 or checked["exchange"] < 3:
        a, b = random_commuting_pair(rng, total_cap=6)
        if not any(map(any, a.mul(b).rows)):  # no tile
            continue
        for kappa in ("lex", "exchange") if a.n == 1 else ("lex",):
            _check_level_sizes(q.build_system(a.rows, b.rows, kappa))
            checked[kappa] += 1


def _check_level_sizes(ts):
    sizes = list(level_sizes(ts, 4))
    assert "tiles" not in vars(ts)  # counted from the matrices alone
    tf = fock_basis(ts, 4)
    assert sizes == [tf.count_at(n) for n in range(5)]
    # the cap is met exactly at the largest predicted level above 1
    top = max(sizes[2:])
    assert fock_basis(ts, 4, cap=top).dim == tf.dim
    first = next(n for n in range(2, 5) if sizes[n] > top - 1)
    message = f"level {first} would hold {sizes[first]} words (cap {top - 1})"
    with pytest.raises(BasisTooLarge, match=re.escape(message)):
        fock_basis(ts, 4, cap=top - 1)


def test_level_sizes_of_a_thousand_tiles_read_no_tile():
    ts = q.build_system([[1]], [[1001]], "lex")
    assert list(level_sizes(ts, 3)) == [1002, 1001, 1002 * 1001, 1002**2 * 1001]
    with pytest.raises(BasisTooLarge, match=re.escape("level 2 would hold 1003002 words (cap 1000000)")):
        fock_basis(ts, 2)
    assert "tiles" not in vars(ts)


def test_basis_cap_is_checked_before_any_word_is_built(exchange_pair, monkeypatch):
    built = []

    class CountingWord(FockWord):
        # a named tuple takes its fields in __new__
        def __new__(cls, *args, **kwargs):
            word = super().__new__(cls, *args, **kwargs)
            built.append(word)
            return word

    monkeypatch.setattr(fock, "FockWord", CountingWord)
    # levels 0..4 hold 5 + 6 + 30 + 150 + 750 = 941 words, level 5 would hold 3750
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(BasisTooLarge, match="level 5 would hold 3750 words"):
            fock_basis(exchange_pair, 12, cap=1000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the refused call holds less memory at its peak than the split records
    # of the words below the refused level would take
    assert peak < 941 * sys.getsizeof((0, SEP_ETA, 0))
    assert built == []
    # the basis holds columns only; reading the words builds each one once
    tf = fock_basis(exchange_pair, 4)
    assert built == [] and tf.dim == 941
    words = list(basis_words(tf))
    assert len(built) == tf.dim and words == built
    # the prediction stops at the first level over the cap
    with pytest.raises(BasisTooLarge, match="level 9 would hold 2343750 words"):
        fock_basis(exchange_pair, 10**6, cap=10**6)


@pytest.fixture(scope="module")
def run_order_systems(all_systems, fibonacci_alt):
    """The bundled systems, two with no tile at all, and exchange [[3]]x[[4]]:
    12 tiles, four with each A-edge on top and three with each B-edge on the
    left, so the followers of a tile come from groups of several."""
    tileless = [
        q.build_system([[0, 1], [0, 0]], [[0, 1], [0, 0]], "lex"),
        q.build_system([[0]], [[1]], "lex"),
    ]
    assert not any(ts.tiles for ts in tileless)
    return all_systems + [fibonacci_alt] + tileless + [q.build_system([[3]], [[4]], "exchange")]


def test_words_are_rebuilt_equal_to_the_eager_reference(run_order_systems):
    # the basis prepends tiles to runs of the level below, the reference
    # appends tiles to whole words: both must give one order
    for level, ts in itertools.product(range(1, 6), run_order_systems):
        tf = fock_basis(ts, level)
        eager = eager_words(ts, level)
        words = basis_words(tf)
        assert len(words) == tf.dim == len(eager)
        assert tuple(words) == eager
        for i in range(tf.dim):
            assert tf.word(i) == words[i] == eager[i] and words[i - tf.dim] == eager[i - tf.dim]
        slices = (
            slice(None), slice(3, None), slice(None, -2), slice(-5, -1),
            slice(1, 40, 3), slice(None, None, -7), slice(tf.dim, None),
        )
        for sl in slices:
            assert words[sl] == eager[sl], sl
        for bad in (tf.dim, -tf.dim - 1):
            with pytest.raises(IndexError):
                words[bad]
        with pytest.raises(TypeError):
            words["0"]
        index = {w: i for i, w in enumerate(words)}
        assert all(index[w] == i for i, w in enumerate(eager))
        # words are read-only, and so is the basis
        with pytest.raises(TypeError):
            words[0] = eager[0]
        with pytest.raises(AttributeError):
            tf.max_level = level + 1


def _built_banks(monkeypatch) -> list:
    """Every bank built from now on."""
    banks = []

    class CountingBank(fock._Bank):
        def __init__(self, tf, level):
            super().__init__(tf, level)
            banks.append(self)

    monkeypatch.setattr(fock, "_Bank", CountingBank)
    return banks


def test_one_bank_and_one_evaluation_per_twin(fibonacci, monkeypatch):
    quads, evaluated = [], []
    banks = _built_banks(monkeypatch)
    real_quad, real_differences = fock.build_quad_matrices, fock._differences
    monkeypatch.setattr(fock, "build_quad_matrices", lambda ts: quads.append(ts) or real_quad(ts))
    monkeypatch.setattr(
        fock,
        "_differences",
        lambda tf, cases, high, columns: evaluated.append((cases.__name__, high, columns))
        or real_differences(tf, cases, high, columns),
    )
    level = 4
    reports = fock.verify_level(fibonacci, level, headroom=2)
    assert all(r.passed for r in reports)
    # the three reports share one bank, over levels <= 3 of the basis
    [bank] = banks
    assert (bank.level, bank.tf.max_level) == (level, 3)
    primitives = [
        op
        for lay in bank.layers
        for ops in (lay.op, lay.adj, lay.diag, lay.vertex)
        for op in ops.values()
    ]
    assert {type(v) for op in primitives for col in op.cols.values() for v in col.values()} == {int}
    assert len(quads) == 1
    rows = [r for r in fock._TABLE if r.identity_id != "tile_word_commutation"]
    keys = {(b, r.margin) for r in rows for b in r.builders}
    assert len(evaluated) == len(keys)
    assert len(evaluated) < sum(len(r.builders) for r in rows)
    names = [name for name, _, _ in evaluated]
    for twin in (
        "_range_partition",
        "_diagonal_commutation",
        "_same_layer_compression",
        "_cross_layer_pullback",
        "_unit_partition",
        "_vertex_commutation",
        "_vertex_sandwich",
    ):
        assert names.count(twin) == 1, twin
    # each on rows of level <= L - m and on the columns of the widest c of
    # the rows that take it at that margin
    expected = [(getattr(b, "func", b).__name__, level - m, _widest_columns(level, b, m)) for b, m in keys]
    assert sorted(evaluated) == sorted(expected)
    # diagonal_commutation's own columns stop at level 2, its twins' at 3
    columns = {name: c for name, _, c in evaluated}
    own = next(r for r in fock._TABLE if r.identity_id == "diagonal_commutation")
    assert columns["_diagonal_commutation"] == 3 > own.columns(level) == 2
    # rows whose cases are those of a twin's builder, compared on their own block
    builders = {r.identity_id: r.builders for r in fock._TABLE}
    for row, twin in (
        ("corner_selection", "cross_layer_pullback"),
        ("cross_proj_commutation", "range_proj_diag_commutation"),
        ("vertex_commutation_quotient", "vertex_commutation"),
        ("vertex_compression_quotient", "vertex_sandwich"),
    ):
        assert builders[row] == builders[twin], row


WORD_LABEL = re.compile(r"^([pq]\[[^]]+\]|\([^,()]+,[^,()]+\)(-[hv]-\([^,()]+,[^,()]+\))*)$")

# doubling s for one A-edge changes one side of these identities by a
# different power of two than the other; the rest are commutators,
# homogeneous in s, or free of s
BROKEN_BY_DOUBLED_S = {
    "creation_range",
    "range_partition",
    "co_isometry",
    "vertex_sandwich",
    "compressed_range",
    "twisted_sandwich",
    "diagonal_reconstruction",
    "creation_expansion",
    "unit_partition_interior",
    "unit_partition_uncut",
    "same_layer_compression",
    "cross_layer_pullback",
    "edge_partitions",
    "initial_projections",
    "corner_selection",
    "initial_support_by_composability",
    "shared_range_initials",
    "corner_transition",
    "vertex_compression_quotient",
    "generator_partition",
    "horizontal_transition",
    "vertical_transition",
    "corner_decomposition",
}


def _double_s(monkeypatch, ts):
    """Make every bank built from now on double s for the A-edge A:1->1#1."""
    alpha = by_id(ts, "A:1->1#1")
    real = fock.creation

    def doubled(tf, kind, edge):
        op = real(tf, kind, edge)
        return scale(op, 2) if edge == alpha else op

    monkeypatch.setattr(fock, "creation", doubled)


def test_a_broken_bank_operator_is_caught(exchange_pair, monkeypatch):
    _double_s(monkeypatch, exchange_pair)
    tf = fock_basis(exchange_pair, 4)
    checks = [
        c
        for report in (verify_fock_identities(tf), verify_relations_hk(tf), ck_generators(tf)[2])
        for c in report.checks
    ]
    assert {c.identity_id for c in checks if c.status == "fail"} == BROKEN_BY_DOUBLED_S
    for check in checks:
        if check.status != "fail":
            continue
        witness = check.witness
        assert set(witness) == {"case", "row", "col", "lhs", "rhs"}
        assert WORD_LABEL.match(witness["row"]) and WORD_LABEL.match(witness["col"])
        assert Fraction(witness["lhs"]) != Fraction(witness["rhs"])
        low, high = check.levels_checked
        for end in ("row", "col"):
            level = next(w.level for w in basis_words(tf) if w.label() == witness[end])
            assert low <= level <= high


def test_basis_and_bank_are_freed_without_the_cycle_collector(fibonacci, monkeypatch):
    # a library call's bank lives for that call, and nothing refers back to
    # the basis: dropping it frees it at once, so repeated verify calls do
    # not pile up dead banks or bases
    banks = []

    class WatchedBank(fock._Bank):
        def __init__(self, tf, level):
            super().__init__(tf, level)
            banks.append(weakref.ref(self))

    monkeypatch.setattr(fock, "_Bank", WatchedBank)
    gc.disable()
    try:
        tf = fock_basis(fibonacci, 4)
        s_ops, t_ops, _ = ck_generators(tf)
        assert verify_relations_hk(tf).passed
        basis = weakref.ref(tf)
        del tf
        # no operator holds its basis: the generators handed out keep
        # neither the basis nor their bank alive, and stay usable
        assert basis() is None and len(banks) == 2 and not any(bank() for bank in banks)
        again = fock_basis(fibonacci, 4)
        assert (s_ops, t_ops) == ck_generators(again)[:2]
        assert sum(restrict(again, adjoint(op) @ op, 2, 3).nnz() for op in s_ops.values()) > 0
    finally:
        gc.enable()


def _seeded_specifications(count, seed, total_cap, per_system=3):
    """Systems with tiles from ``random_commuting_pair``, up to
    ``per_system`` specifications each."""
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        a, b = random_commuting_pair(rng, total_cap=total_cap)
        kappas = list(q.enumerate_kappas(a, b, limit=per_system))
        if q.build_system(a.rows, b.rows, kappas[0]).tiles:
            systems.append([q.build_system(a.rows, b.rows, k) for k in kappas])
    return systems


def _assert_creation_matches_oracle(ts, level):
    tf = fock_basis(ts, level)
    index = {w: i for i, w in enumerate(basis_words(tf))}
    for kind, edges, side in (("s", ts.edges_a, "top"), ("t", ts.edges_b, "left")):
        for edge in edges:
            xi = q.QuadVector(coeffs=tuple(int(getattr(t, side) == edge) for t in ts.tiles))
            op = creation(tf, kind, edge)
            assert op == creation_oracle.creation_from_vector(tf, kind, xi, index), (kind, edge)
        for tag, xi in fock._seeded_tile_vectors(ts):
            op = creation_from_vector(tf, kind, xi)
            assert op == creation_oracle.creation_from_vector(tf, kind, xi, index), (kind, tag)


def test_creation_matches_the_rebuild_oracle(all_systems, fibonacci_alt):
    # every s_alpha and t_a and both seeded rational vectors per layer, on
    # bundled and seeded systems with several specifications each
    seeded = [ts for specs in _seeded_specifications(10, seed=1618, total_cap=6) for ts in specs]
    for ts in all_systems + [fibonacci_alt] + seeded:
        for level in (4, 5):
            _assert_creation_matches_oracle(ts, level)


def test_splits_decompose_every_word(all_systems, fibonacci_alt):
    for ts in all_systems + [fibonacci_alt]:
        tf = fock_basis(ts, 4)
        words = basis_words(tf)
        for word, split in zip(words, tf.splits):
            if word.level == 0:
                assert split is None
                continue
            head, first_sep, tail = split
            assert ts.tiles[head] == word.tiles[0]
            if word.level == 1:
                assert first_sep is None and tail is None
            else:
                assert first_sep == word.seps[0]
                assert words[tail] == FockWord(tiles=word.tiles[1:], seps=word.seps[1:])


def test_cancelling_sums_and_products_store_no_zero(tf_exchange, exchange_pair):
    zero = SparseOp()
    a = SparseOp({0: {0: 1, 1: Fraction(2, 3)}, 2: {3: -4}})
    cancelled = [a + scale(a, -1), scale(a, -1) + a]
    # left @ right adds 1 * 1 and 1 * (-1) in the single entry of column 2
    left = SparseOp({0: {0: 1}, 1: {0: 1}})
    right = SparseOp({2: {0: 1, 1: -1}})
    cancelled.append(left @ right)
    # s s* is a projection, so s s* (1 - s s*) cancels in every column
    s1 = creation(tf_exchange, "s", by_id(exchange_pair, "A:1->1#1"))
    rng = s1 @ adjoint(s1)
    cancelled.append(rng @ (SparseOp.identity(tf_exchange) + scale(rng, -1)))
    for op in cancelled:
        assert op.nnz() == 0 and op == zero and op.cols == {}
    with pytest.raises(TypeError):
        hash(zero)
    # a partial cancellation keeps only the surviving entries
    partial = a + SparseOp({0: {1: Fraction(-2, 3)}, 2: {3: 4, 5: 1}})
    assert partial.cols == {0: {0: 1}, 2: {5: 1}}
    assert (left @ SparseOp({2: {0: 1, 1: 1}})).cols == {2: {0: 2}}


def test_corner_selection_tables_equal_the_pullback(all_systems, fibonacci_alt):
    # the right-hand side corner_selection used to build from the tile
    # tables, against the pullback along kappa its twin builds from
    seeded = [ts for specs in _seeded_specifications(25, seed=2024, total_cap=24) for ts in specs]
    for ts in all_systems + [fibonacci_alt] + seeded:
        left_table, bottom_table = kappa_indicators(ts)
        for alpha in ts.edges_a:
            for a in ts.edges_b:
                through_s = pullback_along_kappa(ts, alpha, EdgeElem.basis(ts, a))
                assert through_s.coeffs == tuple(
                    int((a, alpha, d) in left_table) for d in ts.edges_b
                )
                through_t = pullback_along_kappa(ts, a, EdgeElem.basis(ts, alpha))
                assert through_t.coeffs == tuple(
                    int((alpha, a, d) in bottom_table) for d in ts.edges_a
                )


def test_one_pass_sum_equals_pairwise_sums_and_stores_no_zero(tf_exchange):
    rng = random.Random(4242)

    def signed_op():
        cols = {}
        for _ in range(rng.randint(0, 12)):
            cols.setdefault(rng.randrange(8), {})[rng.randrange(8)] = rng.choice(
                [-2, -1, 1, 2, Fraction(1, 3)]
            )
        return SparseOp(cols)

    for trial in range(300):
        ops = [signed_op() for _ in range(rng.randint(0, 5))]
        ops += [scale(op, -1) for op in ops if rng.random() < 0.5]
        if trial % 10 == 0:  # full cancellation
            ops += [scale(op, -1) for op in ops]
        rng.shuffle(ops)
        before = [{c: dict(col) for c, col in op.cols.items()} for op in ops]
        total = SparseOp.sum(ops)
        chain = SparseOp()
        for op in ops:
            chain = chain + op
        dense = {}
        for op in ops:
            for c, col in op.cols.items():
                for r, v in col.items():
                    dense[r, c] = dense.get((r, c), 0) + v
        assert total == chain
        assert {(r, c): v for c, col in total.cols.items() for r, v in col.items()} == {k: v for k, v in dense.items() if v}
        assert all(col and all(col.values()) for col in total.cols.values())
        assert [op.cols for op in ops] == before  # operands untouched
        if trial % 10 == 0:
            assert total.cols == {}


def test_verify_builds_no_word_index(exchange_pair):
    tf = fock_basis(exchange_pair, 4)
    # the three reports of a full ``verify``, with the CLI's headroom
    assert verify_fock_identities(tf, headroom=2).passed
    assert verify_relations_hk(tf).passed
    assert ck_generators(tf)[2].passed
    assert not hasattr(tf, "index") and not hasattr(tf, "words")
    assert set(vars(tf)) <= {"ts", "max_level", "starts", "splits", "markers"}
    words = basis_words(tf)
    index = {w: i for i, w in enumerate(words)}
    assert [index[word] for word in words] == list(range(tf.dim))
    for i in (0, tf.dim // 2, tf.dim - 1):
        vec = basis_vector(tf, words[i])
        assert vec[i] == 1 and sum(vec) == 1


def _distinct_builders():
    """Every (builder, margin) of the table, once, in table order."""
    return list(dict.fromkeys((b, r.margin) for r in fock._TABLE for b in r.builders))


def test_levels_never_decrease_and_prefixes_count_them(all_systems, fibonacci_alt):
    # the block of levels <= h is the first prefix(h) words only because
    # levels never decrease along the basis; the level starts, word_level,
    # prefix and count_at all agree with the predicted sizes and the words
    seeded = [specs[0] for specs in _seeded_specifications(6, seed=3141, total_cap=6, per_system=1)]
    top = 5
    for ts in all_systems + [fibonacci_alt] + seeded:
        tf = fock_basis(ts, top)
        levels = [tf.word(i).level for i in range(tf.dim)]
        assert levels == sorted(levels)
        assert [word_level(tf, i) for i in range(tf.dim)] == levels
        sizes = list(level_sizes(ts, top))
        assert [tf.count_at(n) for n in range(top + 1)] == sizes == [levels.count(n) for n in range(top + 1)]
        assert tf.count_at(-1) == tf.count_at(top + 1) == 0
        below = [sum(lv < n for lv in levels) for n in range(top + 2)]
        assert list(tf.starts) == below == [sum(sizes[:n]) for n in range(top + 2)]
        assert tf.starts[top + 1] == tf.dim
        prefixes = [sum(sizes[: max(n + 1, 0)]) for n in range(-3, top + 4)]
        assert [tf.prefix(n) for n in range(-3, top + 4)] == prefixes
        assert tf.prefix(-1) == 0 and tf.prefix(top + 3) == tf.dim


def _widest_columns(level, builder, margin) -> int:
    """c of a bank's evaluation of (builder, margin) at truncation level L: the
    widest of the rows that take it."""
    return max(r.columns(level) for r in fock._TABLE if r.margin == margin and builder in r.builders)


def _full_bank(tf):
    """The bank over the whole of ``tf``, deciding at its top level."""
    return fock._Bank(tf, tf.max_level)


def _assert_block_equals_full(tf):
    # the cut's differences are the full block's, restricted to columns <= c
    bank = _full_bank(tf)
    for builder, margin in _distinct_builders():
        high = tf.max_level - margin
        full = fock._differences(tf, builder(bank, tf.dim), high)
        width = tf.prefix(_widest_columns(tf.max_level, builder, margin))
        cut = [(label, {(r, c): v for (r, c), v in diff.items() if c < width}) for label, diff in full]
        assert bank.differences(builder, margin) == cut, (builder, margin)
    return bank


def test_block_evaluation_equals_full_evaluation(all_systems, fibonacci_alt):
    # each builder with its products cut to the block, against the same
    # builder with every column kept, compared on the same block
    seeded = [specs[0] for specs in _seeded_specifications(3, seed=577, total_cap=6, per_system=1)]
    for ts in all_systems + [fibonacci_alt] + seeded:
        for level in (4, 5):
            _assert_block_equals_full(fock_basis(ts, level))


def test_block_evaluation_equals_full_evaluation_on_a_broken_bank(exchange_pair, monkeypatch):
    _double_s(monkeypatch, exchange_pair)
    for level in (4, 5):
        bank = _assert_block_equals_full(fock_basis(exchange_pair, level))
        differing = {b for b, m in _distinct_builders() if any(d for _, d in bank.differences(b, m))}
        assert len(differing) >= 10


def test_no_product_computes_a_column_outside_its_block(exchange_pair, monkeypatch):
    tf = fock_basis(exchange_pair, 5)
    bank = _full_bank(tf)
    # the shared operators are built once per bank, whole: build them before watching
    for lay in bank.layers:
        lay.range_sum, lay.initial
    bank.e, bank.generators, bank.generator_ranges, bank.quad
    right_columns, fused = [], []
    real = SparseOp.times

    def watched(left, right, n=None):
        out = real(left, right, n)
        if n is None:
            right_columns.extend(right.cols)
        else:
            # the first step of a product takes the whole right-hand factor
            # and the column range 0..n-1: watch the columns it computed
            fused.append(n)
            right_columns.extend(out.cols)
        return out

    monkeypatch.setattr(SparseOp, "times", watched)
    margins, steps, widths = {}, 0, []
    for builder, margin in _distinct_builders():
        n = tf.prefix(_widest_columns(tf.max_level, builder, margin))
        widths.append(n)
        right_columns.clear()
        fused.clear()
        bank.differences(builder, margin)
        assert all(c < n for c in right_columns), (builder, margin, n)
        assert all(m == n for m in fused), (builder, margin, n)
        margins[margin] = margins.get(margin, 0) + len(right_columns)
        steps += len(fused)
    # every margin of the table made products, each from a fused first step
    assert sorted(margins) == [0, 1, 2, 4] and all(margins.values()) and steps
    assert any(r.identity_id == "corner_projection_commutation" and r.margin == 0 for r in fock._TABLE)
    # no builder reads a column of level 4 or 5, which hold most words; margin
    # 0 compares the whole basis as its block, yet computes levels <= 2 only
    assert max(widths) == tf.prefix(3) < tf.prefix(tf.max_level - 1) < tf.dim
    assert max(n for (b, m), n in zip(_distinct_builders(), widths) if m == 0) == tf.prefix(2)


def _yielded_sides(bank):
    """(builder, block bound n, case label, side) for both sides of every case
    of every distinct builder."""
    tf = bank.tf
    for builder, margin in _distinct_builders():
        n = tf.prefix(tf.max_level - margin)
        for label, lhs, rhs, *_ in builder(bank, n):
            yield builder, n, label, lhs
            yield builder, n, label, rhs


def _block_bases(all_systems, fibonacci_alt):
    seeded = [specs[0] for specs in _seeded_specifications(3, seed=2718, total_cap=6, per_system=1)]
    return [fock_basis(ts, level) for ts in all_systems + [fibonacci_alt] + seeded for level in (4, 5)]


def test_every_side_and_shared_product_stays_on_its_block(all_systems, fibonacci_alt):
    for tf in _block_bases(all_systems, fibonacci_alt):
        bank = _full_bank(tf)
        for builder, n, label, side in _yielded_sides(bank):
            assert all(c < n for c in side.cols), (builder, label)
        # ss* and SS* + TT* are whole products on the bank's basis: their
        # columns reach its top level
        for lay in bank.layers:
            assert lay.range == {x: op @ lay.adj[x] for x, op in lay.op.items()}
        (s, t), (s_adj, t_adj) = bank.generators, bank.generator_adjoints
        assert bank.generator_ranges == {p: s[p] @ s_adj[p] + t[p] @ t_adj[p] for p in bank.e}
        assert max(c for lay in bank.layers for c in lay.range_sum.cols) >= tf.prefix(tf.max_level - 1)


def test_every_yielded_side_has_int_entries(all_systems, fibonacci_alt):
    denominators = set()
    for tf in _block_bases(all_systems, fibonacci_alt):
        bank = _full_bank(tf)
        for builder, _, label, side in _yielded_sides(bank):
            assert {type(v) for col in side.cols.values() for v in col.values()} <= {int}, (builder, label)
        denominators.update(d for *_, d in fock._creation_expansion(bank, tf.dim))
    # creation_expansion scaled rational vectors to get there
    assert max(denominators) > 1


def _plain(op):
    """An operator's columns as a plain dict of dicts."""
    return {c: dict(col) for c, col in op.cols.items()}


def _old_diagonal(words, value, n=None):
    """{i: {i: v}} for the nonzero value(word) of the first n words: a diagonal
    as every diagonal used to be stored."""
    return {i: {i: v} for i, w in enumerate(words[:n]) if (v := value(w))}


def _near_misses(tf, op):
    """Operators one entry off the diagonal ``op`` over ``tf``: a value changed
    and a column dropped (as diagonals and as column dicts), and an
    off-diagonal entry added to a column of ``op`` and, where it has an
    empty one, to that."""
    values = op.values
    c = next(iter(values))
    changed = {**values, c: 2 * values[c]}
    dropped = {k: v for k, v in values.items() if k != c}
    near = [fock._DiagonalOp(changed), fock._DiagonalOp(dropped)]
    near += [SparseOp({k: {k: v} for k, v in vals.items()}) for vals in (changed, dropped)]
    near.append(SparseOp({**op.cols, c: {c: values[c], (c + 1) % tf.dim: 1}}))
    if (empty := next((k for k in range(tf.dim) if k not in values), None)) is not None:
        near.append(SparseOp({**op.cols, empty: {c: 1}}))
    return near


def _assert_diagonal(tf, op, old):
    assert isinstance(op, fock._DiagonalOp)
    cols = op.cols  # built on each read
    assert cols == old and _plain(op) == old
    assert len(cols) == len(old) and op.nnz() == len(old)
    assert list(cols.values()) == list(old.values())
    same = SparseOp(old)
    assert op == same and same == op and not op != same and not same != op
    for other in _near_misses(tf, op) if old else ():
        assert op != other and other != op and not op == other and not other == op


def _reads(w, side):
    """The edge a layer's diagonals read: the first tile's top or left edge,
    or the level-0 marker's edge."""
    return getattr(w.tiles[0], side) if w.tiles else w.base


# (layer, side its diagonals read, first separator of its range projection)
_LAYER_READS = (("A", "top", SEP_ETA), ("B", "left", SEP_RHO))


def test_the_banks_diagonals_stay_diagonal(all_systems, fibonacci_alt):
    rng = random.Random(1729)
    for tf in _block_bases(all_systems, fibonacci_alt):
        reports = (verify_fock_identities(tf, headroom=2), verify_relations_hk(tf), ck_generators(tf)[2])
        assert all(r.passed for r in reports)
        bank, ts, words = _full_bank(tf), tf.ts, basis_words(tf)
        for lay, (layer, side, sep) in zip(bank.layers, _LAYER_READS):
            for x, op in lay.diag.items():
                _assert_diagonal(tf, op, _old_diagonal(words, lambda w: int(_reads(w, side) == x)))
            for v, op in lay.vertex.items():
                old = _old_diagonal(words, lambda w: int(_reads(w, side).layer == layer and _reads(w, side).source == v))
                _assert_diagonal(tf, op, old)
            _assert_diagonal(tf, lay.range_proj, _old_diagonal(words, lambda w: int(w.level >= 2 and w.seps[0] == sep)))
            # an edge vector with negative and fractional coefficients, on a block
            values = [rng.choice([-3, -1, 0, 2, Fraction(1, 2), Fraction(-4, 3)]) for _ in ts.edges(layer)]
            elem = edge_from_values(ts, layer, values)
            coeff = dict(zip(ts.edges(layer), elem.coeffs))
            for n in (tf.prefix(tf.max_level - 2), tf.dim):
                op = left_action_op(tf, lay.act, elem, n)
                _assert_diagonal(tf, op, _old_diagonal(words, lambda w: coeff.get(_reads(w, side), 0), n))
        assert bank.vertex is bank.layers[0].vertex
        _assert_diagonal(tf, bank.identity, _old_diagonal(words, lambda w: 1))
        _assert_diagonal(tf, bank.p0, _old_diagonal(words, lambda w: int(w.level == 0)))
        _assert_diagonal(tf, bank.p1, _old_diagonal(words, lambda w: int(w.level == 1)))
        assert list(bank.e) == list(ts.omega)
        for pair, op in bank.e.items():
            corner = (pair.alpha, pair.a)
            _assert_diagonal(tf, op, _old_diagonal(words, lambda w: int(bool(w.tiles) and (w.tiles[0].top, w.tiles[0].left) == corner)))


# the builders whose products read the bank's vertex actions phi(y)
_VERTEX_BUILDERS = (fock._vertex_sandwich, fock._vertex_commutation, fock._tile_word_commutation)


def _vertex_cases(bank):
    """(builder, margin, cases, differences) of every builder that reads
    ``bank.vertex``, at each margin the table compares it with."""
    tf, out = bank.tf, []
    for builder, margin in _distinct_builders():
        if builder in _VERTEX_BUILDERS:
            high = tf.max_level - margin
            cases = list(builder(bank, tf.prefix(high)))
            out.append((builder, margin, cases, fock._differences(tf, cases, high)))
    return out


def _assert_vertex_rows_skip_level_zero(tf, rng):
    # phi(y) with arbitrary nonzero values on the level-0 markers and
    # layer A's values above them leaves every side and difference as it was
    bank = _full_bank(tf)
    before = _vertex_cases(bank)
    markers = tf.count_at(0)
    bank.vertex = {
        v: fock._DiagonalOp(
            {c: rng.choice([-7, -2, 1, 3, 5]) for c in range(markers)}
            | {c: x for c, x in op.values.items() if c >= markers}
        )
        for v, op in bank.layers[0].vertex.items()
    }
    assert _vertex_cases(bank) == before
    return before


def test_the_vertex_rows_never_read_level_zero(all_systems, exchange_pair, monkeypatch):
    rng = random.Random(271)
    for ts in all_systems:
        for level in (4, 5):
            _assert_vertex_rows_skip_level_zero(fock_basis(ts, level), rng)
    _double_s(monkeypatch, exchange_pair)
    for level in (4, 5):
        cases = _assert_vertex_rows_skip_level_zero(fock_basis(exchange_pair, level), rng)
        # the doubled s breaks the sandwich, so not every difference is empty
        assert any(diff for builder, _, _, diffs in cases for _, diff in diffs if builder is fock._vertex_sandwich)


def _plain_product(left, right):
    """left @ right over plain dicts of dicts, by the general rule."""
    out = {}
    for c, col in right.items():
        acc = {}
        for k, bv in col.items():
            for r, av in left.get(k, {}).items():
                acc[r] = acc.get(r, 0) + av * bv
        if acc := {r: v for r, v in acc.items() if v}:
            out[c] = acc
    return out


def _plain_transpose(cols):
    out = {}
    for c, col in cols.items():
        for r, v in col.items():
            out.setdefault(r, {})[c] = v
    return out


def _plain_sum(ops):
    """The sum of operators over plain dicts of dicts, cancelled entries dropped."""
    total = {}
    for op in ops:
        for c, col in _plain(op).items():
            target = total.setdefault(c, {})
            for r, x in col.items():
                target[r] = target.get(r, 0) + x
    return {c: kept for c, col in total.items() if (kept := {r: x for r, x in col.items() if x})}


def test_products_with_a_diagonal_equal_the_plain_products(all_systems, fibonacci_alt):
    rng = random.Random(2357)
    for tf in _block_bases(all_systems, fibonacci_alt):
        bank = _full_bank(tf)
        h, v = bank.layers
        signed = SparseOp.diagonal([rng.choice([-2, -1, 0, 1, 3, Fraction(2, 3), Fraction(-1, 2)]) for _ in range(tf.dim)])
        diagonals = [bank.identity, bank.p1, h.range_proj, *h.diag.values(), *v.vertex.values(), *bank.e.values()]
        generals = [*h.op.values(), *v.adj.values(), *h.range.values()]
        diagonals = [signed, *rng.sample(diagonals, 5)]
        generals = [scale(next(iter(v.op.values())), Fraction(-3, 2)), *rng.sample(generals, 3)]
        plain = {id(op): _plain(op) for op in diagonals + generals}
        for left, right in itertools.chain(
            itertools.product(diagonals, generals),
            itertools.product(generals, diagonals),
            itertools.product(diagonals, repeat=2),
        ):
            product = left @ right
            expected = _plain_product(plain[id(left)], plain[id(right)])
            cols = product.cols
            assert cols == expected and _plain(product) == expected
            assert product.nnz() == sum(len(col) for col in expected.values())
            assert all(cols.values()) and all(x for col in cols.values() for x in col.values())
            both = isinstance(left, fock._DiagonalOp) and isinstance(right, fock._DiagonalOp)
            assert isinstance(product, fock._DiagonalOp) == both
        for op in diagonals + generals:
            assert _plain(adjoint(op)) == _plain_transpose(plain[id(op)])
            assert op.nnz() == sum(len(col) for col in plain[id(op)].values())
            # a lone factor at full width is the operator itself
            assert bank.product(tf.dim, op) is op
        mixed = diagonals[:3] + [scale(d, -1) for d in diagonals[:2]] + generals[:2]
        assert _plain(SparseOp.sum(mixed)) == _plain_sum(mixed)
        # a sum of diagonals alone stays diagonal, cancelled values dropped
        minus = SparseOp.diagonal([-1] * tf.dim)
        only = diagonals[:3] + [minus @ d for d in diagonals[:2]]
        summed = SparseOp.sum(iter(only))
        assert isinstance(summed, fock._DiagonalOp) and _plain(summed) == _plain_sum(only)
        assert all(summed.values.values())
        # the block bound n cuts the last factor; its columns are the full product's
        d, d2, g, g2 = diagonals[0], diagonals[1], generals[0], generals[1]
        for factors in ((d, g), (g, d, g2), (g, d), (d, d2), (d, g, d2), (g, g2, d)):
            full = reduce(_plain_product, (plain[id(f)] for f in factors))
            for n in (tf.prefix(1), tf.prefix(tf.max_level - 2), tf.dim):
                cut = bank.product(n, *factors)
                assert _plain(cut) == {c: col for c, col in full.items() if c < n}, (factors, n)
                diagonal = all(isinstance(f, fock._DiagonalOp) for f in factors)
                assert isinstance(cut, fock._DiagonalOp) == diagonal


# the witnesses of the doubled-s run at level 4, as the full products gave
# them before products were cut to their block
_TILE = "(A:1->1#1,B:1->1#1)"
_H, _V, _Q = f"{_TILE}-h-{_TILE}", f"{_TILE}-v-{_TILE}", "q[B:1->1#1]"
DOUBLED_S_WITNESSES = {
    "creation_range": ("s-family", _TILE, _TILE, "4", "1"),
    "range_partition": ("", _TILE, _TILE, "5", "2"),
    "co_isometry": ("s*[A:1->1#1]s[A:1->1#1]", _Q, _Q, "4", "1"),
    "vertex_sandwich": ("s*[A:1->1#1] E1 s", _Q, _Q, "4", "1"),
    "compressed_range": ("p[A:1->1#1] from E1", _H, _H, "1", "4"),
    "twisted_sandwich": ("s*[A:1->1#1] p[A:1->1#1] s", _Q, _Q, "4", "1"),
    "diagonal_reconstruction": ("p[A:1->1#1]", _TILE, _TILE, "1", "4"),
    "creation_expansion": ("s[rand0]", _TILE, _Q, "-1/2", "-1"),
    "unit_partition_interior": ("sum ss* + tt*", _H, _H, "4", "1"),
    "unit_partition_uncut": ("", _TILE, _TILE, "5", "2"),
    "same_layer_compression": ("s*[A:1->1#1] p[A:1->1#1] s", _H, _H, "4", "1"),
    "cross_layer_pullback": ("s*[A:1->1#1] q[B:1->1#1] s", _H, _H, "4", "1"),
    "edge_partitions": ("sum ss* + tt*", _H, _H, "4", "1"),
    "initial_projections": ("s*s[A:1->1#1]", _H, _H, "4", "1"),
    "corner_selection": ("s*[A:1->1#1] q[B:1->1#1] s", _H, _H, "4", "1"),
    "initial_support_by_composability": ("s*s[A:1->1#1]", _H, _H, "4", "1"),
    "shared_range_initials": ("s*s[A:1->1#1] = t*t[B:1->1#1]", _H, _H, "4", "1"),
    "corner_transition": ("s*[A:1->1#1] e s (row 0)", _H, _H, "4", "1"),
    "vertex_compression_quotient": ("s*[A:1->1#1] E1 s", _H, _H, "4", "1"),
    "generator_partition": ("", _H, _H, "4", "1"),
    "horizontal_transition": ("row 0", _V, _V, "4", "1"),
    "vertical_transition": ("row 0", _H, _H, "1", "4"),
    "corner_decomposition": (_TILE, _H, _H, "1", "4"),
}


def test_doubled_s_witnesses_are_pinned(exchange_pair, monkeypatch):
    _double_s(monkeypatch, exchange_pair)
    tf = fock_basis(exchange_pair, 4)
    reports = (verify_fock_identities(tf), verify_relations_hk(tf), ck_generators(tf)[2])
    witnesses = {c.identity_id: c.witness for r in reports for c in r.checks if c.status == "fail"}
    assert set(DOUBLED_S_WITNESSES) == BROKEN_BY_DOUBLED_S
    keys = ("case", "row", "col", "lhs", "rhs")
    assert witnesses == {i: dict(zip(keys, w)) for i, w in DOUBLED_S_WITNESSES.items()}


def test_doubled_s_witnesses_are_pinned_on_the_cli_basis(exchange_pair, monkeypatch):
    # verify_level builds its basis only as deep as the compared columns reach
    _double_s(monkeypatch, exchange_pair)
    for level in (4, 8):
        reports = fock.verify_level(exchange_pair, level)
        witnesses = {c.identity_id: c.witness for r in reports for c in r.checks if c.status == "fail"}
        keys = ("case", "row", "col", "lhs", "rhs")
        assert witnesses == {i: dict(zip(keys, w)) for i, w in DOUBLED_S_WITNESSES.items()}, level


def test_each_generator_adjoint_is_built_once(fibonacci, monkeypatch):
    calls = []
    real = fock.adjoint
    monkeypatch.setattr(fock, "adjoint", lambda op: calls.append(op) or real(op))
    banks = _built_banks(monkeypatch)
    reports = fock.verify_level(fibonacci, 4, headroom=2)
    assert all(r.passed for r in reports)
    [bank] = banks
    generators = [g for gens in bank.generators for g in gens.values()]
    creations = [op for lay in bank.layers for op in lay.op.values()]
    # one transpose per creation operator (the layers' adj) and one per generator
    assert sorted(map(id, calls)) == sorted(map(id, generators + creations))
    for gens, adjs in zip(bank.generators, bank.generator_adjoints):
        assert list(adjs) == list(gens)
        assert all(_plain(adjs[pair]) == _plain_transpose(_plain(g)) for pair, g in gens.items())


def test_a_sum_copies_a_shared_column_before_adding_into_it(tf_exchange):
    tf = tf_exchange
    shared = {5: 1, 6: Fraction(1, 2)}
    # column 0 cancels to empty, comes back as the column ``other`` also
    # holds, and a further operand adds into it
    first, cancel = SparseOp({0: {1: 2}}), SparseOp({0: {1: -2}})
    readd, other = SparseOp({0: shared, 2: {2: 1}}), SparseOp({3: shared})
    further = SparseOp({0: {5: 2, 7: Fraction(-1, 3)}, 3: {5: -1}})
    for lead in ([], [SparseOp.diagonal([0, 0, 3])]):
        ops = [*lead, first, cancel, readd, other, further]
        before = [_plain(op) for op in ops]
        total = SparseOp.sum(ops)
        expected = {0: {5: 3, 6: Fraction(1, 2), 7: Fraction(-1, 3)}, 2: {2: 4 if lead else 1}, 3: {6: Fraction(1, 2)}}
        assert total.cols == expected == _plain_sum(ops)
        assert [_plain(op) for op in ops] == before  # operands untouched
        assert shared == {5: 1, 6: Fraction(1, 2)} and readd.cols[0] is shared is other.cols[3]
        # the sum's columns are in turn left alone by a sum that reads them
        SparseOp.sum([total, total, readd])
        assert total.cols == expected and [_plain(op) for op in ops] == before


def test_products_leave_both_operands_unchanged(tf_exchange, exchange_pair):
    tf = tf_exchange
    bank = _full_bank(tf)
    h, v = bank.layers
    xi = fock._seeded_tile_vectors(exchange_pair)[0][1]
    diagonals = [
        bank.identity,  # unit scales
        h.diag[by_id(exchange_pair, "A:1->1#1")],
        SparseOp.diagonal([(-2, 1, 3, Fraction(2, 3), 0)[i % 5] for i in range(tf.dim)]),
    ]
    generals = [
        h.op[by_id(exchange_pair, "A:1->1#1")],  # one unit entry per column
        v.adj[by_id(exchange_pair, "B:1->1#2")],
        scale(h.op[by_id(exchange_pair, "A:1->1#2")], Fraction(-3, 2)),  # one scaled entry
        creation_from_vector(tf, "s", xi),  # several Fraction entries per column
        h.range_sum,
    ]
    assert {len(col) for op in generals for col in op.cols.values()} > {1}
    ops = diagonals + generals
    plain = {id(op): _plain(op) for op in ops}
    n = tf.prefix(tf.max_level - 2)
    for left, right in itertools.product(ops, repeat=2):
        expected = _plain_product(plain[id(left)], plain[id(right)])
        cut = {c: col for c, col in expected.items() if c < n}
        for product, want in ((left @ right, expected), (left.times(right, n), cut)):
            assert _plain(product) == want
            # a sum that adds into the product's columns, which may be the operands'
            twice = SparseOp.sum([product, product, product])
            assert _plain(twice) == {c: {r: 3 * x for r, x in col.items()} for c, col in _plain(product).items()}
        assert _plain(left) == plain[id(left)] and _plain(right) == plain[id(right)]
    assert all(_plain(op) == plain[id(op)] for op in ops)


def _bank_operators(bank) -> dict:
    """Every operator the bank holds, by a key naming it."""
    ops = {name: getattr(bank, name) for name in ("identity", "p0", "p1")}
    for lay in bank.layers:
        for name in ("op", "adj", "diag", "range", "vertex", "initial"):
            ops.update(((lay.name, name, x), op) for x, op in getattr(lay, name).items())
        ops[lay.name, "range_proj"], ops[lay.name, "range_sum"] = lay.range_proj, lay.range_sum
    ops.update((("e", pair), op) for pair, op in bank.e.items())
    for k, (gens, adjs) in enumerate(zip(bank.generators, bank.generator_adjoints)):
        ops.update((("generator", k, pair), op) for pair, op in gens.items())
        ops.update((("generator_adjoint", k, pair), op) for pair, op in adjs.items())
    ops.update((("generator_range", pair), op) for pair, op in bank.generator_ranges.items())
    return ops


def test_the_suites_change_no_bank_operator(exchange_pair, fibonacci, monkeypatch):
    # products and sums share the operands' columns: none may be written to.
    # Every operator of the bank is built, and copied, before the three
    # reports of verify_level run on it
    built = []

    class SnapshotBank(fock._Bank):
        def __init__(self, tf, level):
            super().__init__(tf, level)
            ops = _bank_operators(self)
            built.append((self, ops, {key: _plain(op) for key, op in ops.items()}))

    monkeypatch.setattr(fock, "_Bank", SnapshotBank)
    for ts, level in ((exchange_pair, 4), (fibonacci, 5)):
        assert all(r.passed for r in fock.verify_level(ts, level, headroom=2))
        [(bank, ops, before)] = built
        built.clear()
        assert all(op is ops[key] for key, op in _bank_operators(bank).items())
        assert {key: _plain(op) for key, op in ops.items()} == before
