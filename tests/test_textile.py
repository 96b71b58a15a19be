import itertools
import math

import pytest

import quadtex as q
from quadtex.errors import (
    BlockViolation,
    ExchangeUnavailable,
    InvalidMatrix,
    NonCommuting,
    NotABijection,
    PatternSpaceTooLarge,
)
from quadtex.textile import block_kappas
from conftest import FIB, by_id
from oracles import kappa_indicators


def test_edges_from_two_loops():
    m = q.IntMatrix.from_rows([[2]])
    assert [e.id for e in q.edges_from_matrix(m, "A")] == ["A:1->1#1", "A:1->1#2"]


def test_edges_from_zero_matrix():
    m = q.IntMatrix.from_rows([[0]])
    assert q.edges_from_matrix(m, "A") == ()


def test_edges_from_fibonacci():
    m = q.IntMatrix.from_rows(FIB)
    assert [e.id for e in q.edges_from_matrix(m, "A")] == [
        "A:1->1#1",
        "A:1->2#1",
        "A:2->1#1",
    ]


def test_invalid_matrices():
    with pytest.raises(InvalidMatrix):
        q.IntMatrix.from_rows([[1, 2]])
    with pytest.raises(InvalidMatrix):
        q.IntMatrix.from_rows([[-1]])
    with pytest.raises(InvalidMatrix):
        q.IntMatrix.from_rows([])
    for rows in ([[True]], [[1.0]], [[None]], 5, [1], "AB"):
        with pytest.raises(InvalidMatrix):
            q.IntMatrix.from_rows(rows)
    # the value types are named tuples, yet none is read as a list of rows
    matrix = q.IntMatrix.from_rows(FIB)
    for rows in (matrix, q.build_system(FIB, FIB).kappa, [matrix.rows[0], matrix]):
        with pytest.raises(InvalidMatrix, match="must be a list of rows"):
            q.IntMatrix.from_rows(rows)


def test_a_product_costs_what_its_nonzero_entries_cost():
    # I_100 squared: one row sum per nonzero entry is n^2 = 10,000 sums; a
    # dense row-by-column product takes 2 n^3 = 2,000,000 operations
    ops = [0]

    class Counted(int):
        def __add__(self, other):
            ops[0] += 1
            return Counted(int(self) + int(other))

        def __mul__(self, other):
            ops[0] += 1
            return Counted(int(self) * int(other))

        __radd__ = __add__
        __rmul__ = __mul__

    n = 100
    identity = q.IntMatrix(tuple(tuple(Counted(i == j) for j in range(n)) for i in range(n)))
    assert identity.mul(identity) == identity
    assert ops[0] <= 2 * n * n


def test_commuting_accepts_loops_and_self():
    q.check_commuting(q.IntMatrix.from_rows([[2]]), q.IntMatrix.from_rows([[3]]))
    m = q.IntMatrix.from_rows(FIB)
    q.check_commuting(m, m)


def test_non_commuting_reports_first_entry():
    a = q.IntMatrix.from_rows([[1, 1], [0, 1]])
    b = q.IntMatrix.from_rows([[1, 0], [1, 1]])
    with pytest.raises(NonCommuting) as err:
        q.check_commuting(a, b)
    assert err.value.entry == (1, 1)
    assert err.value.lhs == 2
    assert err.value.rhs == 1


def test_sigma_blocks_sizes(exchange_pair, one_tile, fibonacci):
    blocks = q.sigma_blocks(exchange_pair.matrix_a, exchange_pair.matrix_b)
    ab, ba = blocks[(1, 1)]
    assert len(ab) == 6 and len(ba) == 6

    blocks = q.sigma_blocks(one_tile.matrix_a, one_tile.matrix_b)
    ab, ba = blocks[(1, 1)]
    assert len(ab) == len(ba) == 1

    blocks = q.sigma_blocks(fibonacci.matrix_a, fibonacci.matrix_b)
    sizes = {key: len(ab) for key, (ab, _) in blocks.items()}
    assert sizes == {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 1}


def test_block_cardinality_law(all_systems):
    for ts in all_systems:
        product = ts.matrix_a.mul(ts.matrix_b)
        blocks = q.sigma_blocks(ts.matrix_a, ts.matrix_b)
        for (i, j), (ab, ba) in blocks.items():
            assert len(ab) == len(ba) == product[i - 1, j - 1]


def test_exchange_kappa_swaps(exchange_pair):
    for (alpha, b), (a, beta) in exchange_pair.kappa.pairs:
        assert a == b and beta == alpha


def test_exchange_needs_single_vertex():
    with pytest.raises(ExchangeUnavailable):
        q.build_system(FIB, FIB, "exchange")


def test_lex_kappa_on_singleton_blocks():
    identity = [[1, 0], [0, 1]]
    ones = [[1, 1], [1, 1]]
    kappas = list(
        q.enumerate_kappas(q.IntMatrix.from_rows(identity), q.IntMatrix.from_rows(ones))
    )
    assert len(kappas) == 1
    assert kappas[0] == q.build_system(identity, ones, "lex").kappa


def test_lex_kappa_table_fibonacci(fibonacci):
    table = {
        (pre[0].id, pre[1].id): (img[0].id, img[1].id)
        for pre, img in fibonacci.kappa.pairs
    }
    assert table == {
        ("A:1->1#1", "B:1->1#1"): ("B:1->1#1", "A:1->1#1"),
        ("A:1->2#1", "B:2->1#1"): ("B:1->2#1", "A:2->1#1"),
        ("A:1->1#1", "B:1->2#1"): ("B:1->1#1", "A:1->2#1"),
        ("A:2->1#1", "B:1->1#1"): ("B:2->1#1", "A:1->1#1"),
        ("A:2->1#1", "B:1->2#1"): ("B:2->1#1", "A:1->2#1"),
    }


def test_explicit_kappa_round_trip(fibonacci):
    listing = [
        [[pre[0].id, pre[1].id], [img[0].id, img[1].id]]
        for pre, img in fibonacci.kappa.pairs
    ]
    rebuilt = q.build_system(FIB, FIB, listing)
    assert rebuilt.kappa == fibonacci.kappa


def test_explicit_kappa_validation():
    good = [
        [[pre[0].id, pre[1].id], [img[0].id, img[1].id]]
        for pre, img in q.build_system(FIB, FIB, "lex").kappa.pairs
    ]
    with pytest.raises(NotABijection):
        q.build_system(FIB, FIB, good[:-1])
    swapped = [list(entry) for entry in good]
    # point one pairing at an image from the wrong block
    swapped[1][1] = good[0][1]
    with pytest.raises((BlockViolation, NotABijection)):
        q.build_system(FIB, FIB, swapped)


def test_count_specifications(exchange_pair, fibonacci, one_tile):
    assert q.count_specifications(exchange_pair.matrix_a, exchange_pair.matrix_b) == 720
    assert q.count_specifications(fibonacci.matrix_a, fibonacci.matrix_b) == 2
    assert q.count_specifications(one_tile.matrix_a, one_tile.matrix_b) == 1


def test_count_specifications_is_refused_exactly_past_the_printable_digits(digit_limit):
    # 2000! has 5,736 digits: counted under a limit of 5,736, refused under 5,735
    a, b = q.IntMatrix.from_rows([[1]]), q.IntMatrix.from_rows([[2000]])
    for digits in (5736, 0):  # 0: no limit
        digit_limit(digits)
        assert q.count_specifications(a, b) == math.factorial(2000)
    assert len(str(math.factorial(2000))) == 5736
    digit_limit(5735)
    with pytest.raises(PatternSpaceTooLarge, match="^the count of specifications has more than 5735 digits"):
        q.count_specifications(a, b)


def test_enumerate_kappas_counts():
    m = q.IntMatrix.from_rows(FIB)
    assert len(list(q.enumerate_kappas(m, m, limit=10))) == 2
    two = q.IntMatrix.from_rows([[2]])
    assert len(list(q.enumerate_kappas(two, two, limit=5))) == 5
    assert q.count_specifications(two, two) == 24


def test_enumeration_matches_count_and_is_distinct(one_tile, fibonacci):
    ones = q.IntMatrix.from_rows([[1, 1], [1, 1]])
    assert q.count_specifications(ones, ones) == 16
    cases = [
        (one_tile.matrix_a, one_tile.matrix_b),
        (fibonacci.matrix_a, fibonacci.matrix_b),
        (q.IntMatrix.from_rows([[2]]), q.IntMatrix.from_rows([[2]])),
        (ones, ones),
    ]
    for a, b in cases:
        expected = q.count_specifications(a, b)
        seen = set()
        for spec in q.enumerate_kappas(a, b):
            seen.add(spec.pairs)
        assert len(seen) == expected


def test_enumeration_matches_brute_force_bijections(fibonacci):
    a, b = fibonacci.matrix_a, fibonacci.matrix_b
    blocks = q.sigma_blocks(a, b)
    brute = set()
    per_block = []
    for key in sorted(blocks):
        ab, ba = blocks[key]
        if ab:
            per_block.append([tuple(zip(ab, perm)) for perm in itertools.permutations(ba)])
    for combo in itertools.product(*per_block):
        brute.add(tuple(sorted(pair for block in combo for pair in block)))
    enumerated = {spec.pairs for spec in q.enumerate_kappas(a, b)}
    assert enumerated == brute


def product_order(a, b):
    """Every specification in itertools.product order, last block fastest."""
    blocks = q.sigma_blocks(a, b)
    per_block = [
        [list(zip(blocks[key][0], perm)) for perm in itertools.permutations(blocks[key][1])]
        for key in sorted(blocks)
        if blocks[key][0]
    ]
    return [
        tuple(sorted(pair for block in combo for pair in block))
        for combo in itertools.product(*per_block)
    ]


def test_enumeration_keeps_product_order(fibonacci, exchange_pair):
    for ts in (fibonacci, exchange_pair):
        a, b = ts.matrix_a, ts.matrix_b
        assert [spec.pairs for spec in q.enumerate_kappas(a, b)] == product_order(a, b)
        assert [spec.pairs for spec in q.enumerate_kappas(a, b, limit=3)] == product_order(a, b)[:3]


def test_every_enumerated_specification_is_valid():
    # enumerate_kappas yields without validating; every specification it
    # lists must still pass the full check, and there are exactly as many
    # as count_specifications says
    from quadtex.textile import _validate_kappa

    ones = q.IntMatrix.from_rows([[1, 1], [1, 1]])
    cases = [
        (q.IntMatrix.from_rows([[2]]), q.IntMatrix.from_rows([[3]])),
        (ones, q.IntMatrix.from_rows([[2, 1], [1, 2]])),
    ]
    for a, b in cases:
        specs = list(q.enumerate_kappas(a, b))
        assert len(specs) == q.count_specifications(a, b)
        blocks = q.sigma_blocks(a, b)
        for spec in specs:
            assert _validate_kappa(blocks, list(spec.pairs)) == spec


def test_build_system_builds_each_layer_once(fibonacci, monkeypatch):
    from quadtex import textile

    calls = []

    def counted(name):
        real = getattr(textile, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(textile, name, wrapper)

    for name in ("check_commuting", "edges_from_matrix", "_layers", "sigma_blocks"):
        counted(name)
    listing = [
        [[pre[0].id, pre[1].id], [img[0].id, img[1].id]] for pre, img in fibonacci.kappa.pairs
    ]
    cases = [
        ([[2]], [[3]], "exchange"),
        ([[2]], [[3]], "lex"),
        (FIB, FIB, "lex"),
        (FIB, FIB, listing),
        # a Kappa of another build: equal edges, but not this system's objects
        (FIB, FIB, fibonacci.kappa),
        ([[1, 1], [1, 1]], [[2, 1], [1, 2]], "lex"),
    ]
    for a_rows, b_rows, kappa in cases:
        calls.clear()
        ts = q.build_system(a_rows, b_rows, kappa)
        # one commutation check, two edge lists, one sigma-block table
        assert sorted(calls) == ["_layers", "check_commuting", "edges_from_matrix", "edges_from_matrix"]
        in_a = {id(e) for e in ts.edges_a}
        in_b = {id(e) for e in ts.edges_b}
        for t in ts.tiles:
            assert id(t.top) in in_a and id(t.bottom) in in_a
            assert id(t.left) in in_b and id(t.right) in in_b
        if isinstance(kappa, q.Kappa):
            assert ts.tiles == fibonacci.tiles


def test_block_kappas_list_the_systems_own_edges(fibonacci):
    fib = q.IntMatrix.from_rows(FIB)
    own = {id(e) for e in fibonacci.edges_a + fibonacci.edges_b}
    listed = list(block_kappas(fibonacci.blocks, limit=5))
    assert listed == list(q.enumerate_kappas(fib, fib, limit=5))
    # a negative limit lists nothing, as it does for enumerate_rectangles
    assert list(block_kappas(fibonacci.blocks, limit=-1)) == []
    assert listed[0] == fibonacci.kappa
    for spec in listed:
        assert all(id(e) in own for pair in spec.pairs for half in pair for e in half)


def test_build_system_validates_a_given_kappa(fibonacci):
    fib = q.IntMatrix.from_rows(FIB)
    foreign = next(q.enumerate_kappas(fib, fib))
    # fibonacci edges such as A:1->2#1 are not edges of a one-vertex system
    with pytest.raises((BlockViolation, NotABijection)):
        q.build_system([[2]], [[3]], foreign)
    # a Kappa of the right edges that pairs across sigma-blocks
    pairs = list(fibonacci.kappa.pairs)
    (pre0, img0), (pre1, img1) = pairs[0], pairs[-1]
    pairs[0], pairs[-1] = (pre0, img1), (pre1, img0)
    with pytest.raises((BlockViolation, NotABijection)):
        q.build_system(FIB, FIB, q.Kappa(pairs=tuple(sorted(pairs))))
    # one pairing short of a bijection
    with pytest.raises(NotABijection):
        q.build_system(FIB, FIB, q.Kappa(pairs=fibonacci.kappa.pairs[:-1]))


def test_a_given_valid_kappa_builds_its_own_tiles():
    # every specification the acceptance criteria build from, taken as a Kappa
    for a_rows, b_rows in (([[1]], [[1]]), ([[2]], [[3]]), (FIB, FIB)):
        a, b = q.IntMatrix.from_rows(a_rows), q.IntMatrix.from_rows(b_rows)
        for spec in q.enumerate_kappas(a, b):
            ts = q.build_system(a_rows, b_rows, spec)
            assert ts.kappa == spec
            assert sorted(((t.top, t.right), (t.left, t.bottom)) for t in ts.tiles) == list(spec.pairs)


def test_enumeration_is_lazy_on_a_huge_block():
    four = q.IntMatrix.from_rows([[4]])
    (first,) = q.enumerate_kappas(four, four, limit=1)
    assert first == q.build_system([[4]], [[4]], "lex").kappa
    assert list(q.enumerate_kappas(four, four, limit=0)) == []


def test_tiles_exchange_pair(exchange_pair):
    assert len(exchange_pair.tiles) == 6
    for tile in exchange_pair.tiles:
        assert tile.left == tile.right
        assert tile.bottom == tile.top


def test_tiles_counts(one_tile, fibonacci):
    assert len(one_tile.tiles) == 1
    assert len(fibonacci.tiles) == 5


def test_tile_corner_constraints(all_systems):
    for ts in all_systems:
        assert len(ts.tiles) == len(ts.kappa.pairs)
        product = ts.matrix_a.mul(ts.matrix_b)
        assert len(ts.tiles) == sum(
            product[i, j] for i in range(product.n) for j in range(product.n)
        )
        for tile in ts.tiles:
            assert ts.kappa.forward[(tile.top, tile.right)] == (tile.left, tile.bottom)
            assert tile.top.source == tile.left.source
            assert tile.top.target == tile.right.source
            assert tile.left.target == tile.bottom.source
            assert tile.right.target == tile.bottom.target
            assert tile.vertex == tile.right.target == tile.bottom.target


def test_omega_orderings(exchange_pair, one_tile, fibonacci):
    omega = exchange_pair.omega
    assert [(p.alpha.mult_index, p.a.mult_index) for p in omega] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
    ]
    assert len(one_tile.omega) == 1
    assert [(p.alpha.id, p.a.id) for p in fibonacci.omega] == [
        ("A:1->1#1", "B:1->1#1"),
        ("A:1->2#1", "B:1->2#1"),
        ("A:2->1#1", "B:2->1#1"),
    ]


def test_kappa_indicators_exchange(exchange_pair):
    left_table, _ = kappa_indicators(exchange_pair)
    for a in exchange_pair.edges_b:
        for alpha in exchange_pair.edges_a:
            for b in exchange_pair.edges_b:
                assert left_table.get((a, alpha, b), 0) == (1 if b == a else 0)


def test_kappa_indicator_fibonacci(fibonacci):
    _, bottom_table = kappa_indicators(fibonacci)
    alpha = by_id(fibonacci, "A:1->1#1")
    a = by_id(fibonacci, "B:1->1#1")
    beta = by_id(fibonacci, "A:1->2#1")
    assert bottom_table.get((alpha, a, beta)) == 1


def test_indicators_agree_with_tiles(all_systems):
    for ts in all_systems:
        left_table, bottom_table = kappa_indicators(ts)
        tile_set = {(t.left, t.top, t.right) for t in ts.tiles}
        for a in ts.edges_b:
            for alpha in ts.edges_a:
                for b in ts.edges_b:
                    expected = 1 if (a, alpha, b) in tile_set else 0
                    assert left_table.get((a, alpha, b), 0) == expected
        bottom_set = {(t.top, t.left, t.bottom) for t in ts.tiles}
        for alpha in ts.edges_a:
            for a in ts.edges_b:
                for beta in ts.edges_a:
                    expected = 1 if (alpha, a, beta) in bottom_set else 0
                    assert bottom_table.get((alpha, a, beta), 0) == expected


def test_indicator_row_sums(all_systems):
    # summing the left table over its first slot detects exactly the
    # composable (top, right) pairs
    for ts in all_systems:
        left_table, _ = kappa_indicators(ts)
        for alpha in ts.edges_a:
            for b in ts.edges_b:
                total = sum(left_table.get((a, alpha, b), 0) for a in ts.edges_b)
                assert total == (1 if alpha.target == b.source else 0)


@pytest.mark.parametrize(
    "entry, reason",
    [
        # A:1->2#1 ends at vertex 2, B:1->1#1 starts at vertex 1
        ([["A:1->2#1", "B:1->1#1"], ["B:1->1#1", "A:1->1#1"]], "domain pair not composable"),
        ([["A:1->1#1", "B:1->1#1"], ["B:1->2#1", "A:1->1#1"]], "image pair not composable"),
    ],
)
def test_explicit_pairs_must_compose(entry, reason):
    with pytest.raises(BlockViolation) as exc:
        q.build_system(FIB, FIB, [entry])
    assert exc.value.pair == tuple(map(tuple, entry))
    assert str(exc.value) == f"pairing violates block constraints for {exc.value.pair}: {reason}"


def test_unknown_strategy_is_refused():
    with pytest.raises(ValueError, match="unknown strategy 'spiral'"):
        q.build_system(FIB, FIB, "spiral")
    # nor is a value type other than a Kappa read as an explicit pairing
    with pytest.raises(ValueError, match="unknown strategy"):
        q.build_system(FIB, FIB, q.IntMatrix.from_rows(FIB))


def test_a_system_is_read_only_and_compares_by_its_first_five_fields(fibonacci):
    again = q.build_system(FIB, FIB, fibonacci.kappa)
    assert again == fibonacci and hash(again) == hash(fibonacci) and repr(again) == repr(fibonacci)
    assert again.blocks is not fibonacci.blocks
    for name in ("kappa", "tiles"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(fibonacci, name, None)
