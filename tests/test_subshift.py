import itertools
import random
import sys
import time

import pytest

import quadtex as q
from quadtex import subshift
from quadtex.errors import PatternSpaceTooLarge
from quadtex.fock import fock_basis
from quadtex.subshift import (
    Rectangle,
    count_rectangles,
    enumerate_rectangles,
    wang_tile_list,
)
from conftest import by_id
from library import basis_words
from oracles import brute_force_count, random_commuting_pair
import row_transfer
from row_transfer import cell_transfer_count, glue, listing_order, row_transfer_count, validate

# h < w, h = w and h > w, with and without the brute-force oracle
ORACLE_SHAPES = [
    (1, 5), (2, 4), (3, 3), (4, 2), (5, 1), (9, 1),
    (2, 6), (3, 4), (4, 4), (4, 3), (6, 2), (3, 5), (5, 3),
]
KAPPA_LIMIT = 3  # specifications taken per system from enumerate_kappas


def _seeded_systems(count, seed):
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        a, b = random_commuting_pair(rng, total_cap=6)
        systems.append(q.build_system(a.rows, b.rows, "lex"))
    return systems


def test_glue_single_tile(one_tile):
    tile = one_tile.tiles[0]
    assert glue("horizontal", tile, tile)
    assert glue("vertical", tile, tile)


def test_glue_exchange_tiles(exchange_pair):
    for first in exchange_pair.tiles:
        for second in exchange_pair.tiles:
            assert glue("horizontal", first, second) == (first.right == second.left)
            assert glue("vertical", first, second) == (first.bottom == second.top)


def test_glue_fibonacci_vertical(fibonacci):
    a2 = by_id(fibonacci, "A:1->2#1")
    b3 = by_id(fibonacci, "B:2->1#1")
    upper = {(t.top, t.right): t for t in fibonacci.tiles}[(a2, b3)]
    assert upper.bottom.id == "A:2->1#1"
    for lower in fibonacci.tiles:
        assert glue("vertical", upper, lower) == (lower.top.id == "A:2->1#1")
    with pytest.raises(ValueError):
        glue("diagonal", upper, upper)


def test_count_1x1(all_systems):
    for ts in all_systems:
        assert count_rectangles(ts, 1, 1) == len(ts.tiles)


def test_count_strips_match_level_two_summands(exchange_pair, all_systems):
    assert count_rectangles(exchange_pair, 1, 2) == 12
    assert count_rectangles(exchange_pair, 2, 1) == 18
    for ts in all_systems:
        words = basis_words(fock_basis(ts, 2))
        eta_words = sum(
            1 for w in words if w.level == 2 and w.seps[0] == "eta"
        )
        rho_words = sum(
            1 for w in words if w.level == 2 and w.seps[0] == "rho"
        )
        assert count_rectangles(ts, 1, 2) == eta_words
        assert count_rectangles(ts, 2, 1) == rho_words


def test_transfer_equals_brute_force(all_systems):
    for ts in all_systems:
        for height in range(1, 4):
            for width in range(1, 4):
                if height * width > 9:
                    continue
                assert count_rectangles(ts, height, width) == brute_force_count(
                    ts, height, width
                )
    assert count_rectangles(all_systems[1], 9, 1) == brute_force_count(
        all_systems[1], 9, 1
    )


def test_strip_counts_follow_successor_recursion(exchange_pair):
    # every exchange tile has 2 horizontal and 3 vertical successors
    assert count_rectangles(exchange_pair, 1, 5) == 6 * 2**4
    assert count_rectangles(exchange_pair, 5, 1) == 6 * 3**4


def test_enumerate_rectangles(one_tile, exchange_pair, fibonacci):
    for height, width in ((1, 1), (2, 2), (3, 2)):
        patches = list(enumerate_rectangles(one_tile, height, width))
        assert len(patches) == 1
        validate(patches[0])

    patches = list(enumerate_rectangles(exchange_pair, 1, 2, limit=100))
    assert len(patches) == 12
    for patch in patches:
        validate(patch)

    expected = count_rectangles(fibonacci, 2, 2)
    patches = list(enumerate_rectangles(fibonacci, 2, 2))
    assert len(patches) == expected
    assert len(set(patches)) == expected
    for patch in patches:
        validate(patch)

    limited = list(enumerate_rectangles(exchange_pair, 1, 2, limit=5))
    assert limited == patches_prefix(exchange_pair, 5)
    # a negative limit lists nothing, as it does for block_kappas
    assert list(enumerate_rectangles(exchange_pair, 1, 2, limit=-1)) == []


def patches_prefix(ts, k):
    return list(itertools.islice(enumerate_rectangles(ts, 1, 2), k))


def test_rectangle_validation_rejects_bad_gluing(fibonacci):
    a2 = by_id(fibonacci, "A:1->2#1")
    b3 = by_id(fibonacci, "B:2->1#1")
    upper = {(t.top, t.right): t for t in fibonacci.tiles}[(a2, b3)]
    bad = Rectangle(cells=((upper, upper),))
    with pytest.raises(ValueError):
        validate(bad)


def _ten():
    """One vertex, A = [[1]], B = [[10]]: 10^h patches of h x w."""
    return q.build_system([[1]], [[10]])


def _held_dead_end():
    """B's walk grows as 10^h at vertex 1, where no A-path ends: 1 patch."""
    return q.build_system([[0, 0], [0, 1]], [[10, 0], [0, 1]])


def test_a_count_is_refused_exactly_past_the_printable_digits(digit_limit):
    # 10^h has h + 1 digits: refused past the limit of D digits, h >= D
    ten = _ten()
    for digits in (640, 4300):
        digit_limit(digits)
        assert count_rectangles(ten, digits - 1, 1) == 10 ** (digits - 1)
        message = (
            f"^the count of {digits}x1 patches has more than {digits} digits, "
            r"the limit of sys.get_int_max_str_digits\(\)$"
        )
        with pytest.raises(PatternSpaceTooLarge, match=message):
            count_rectangles(ten, digits, 1)
    digit_limit(0)  # no limit: nothing is refused
    assert count_rectangles(ten, 5000, 1) == 10**5000


def _record_transfers(monkeypatch):
    """Record the (height, width) each cell-transfer oracle run goes over."""
    calls = []
    transfer = row_transfer._transfer

    def recording(tiles, height, width):
        calls.append((height, width))
        return transfer(tiles, height, width)

    monkeypatch.setattr(row_transfer, "_transfer", recording)
    return calls


def _assert_counts_agree(ts):
    for height, width in ORACLE_SHAPES:
        count = count_rectangles(ts, height, width)
        assert count == row_transfer_count(ts, height, width), (height, width)
        assert count == cell_transfer_count(ts, height, width), (height, width)
        if height * width <= 9:
            assert count == brute_force_count(ts, height, width), (height, width)


def test_counts_match_row_oracle_on_bundled_systems(all_systems, fibonacci_alt):
    for ts in all_systems + [fibonacci_alt]:
        _assert_counts_agree(ts)


def test_counts_match_row_oracle_on_seeded_systems(monkeypatch):
    calls = _record_transfers(monkeypatch)
    systems = _seeded_systems(15, seed=5)
    for ts in systems:
        _assert_counts_agree(ts)
    requested = ORACLE_SHAPES * len(systems)
    assert len(calls) == len(requested)
    big = [(shape, call) for shape, call in zip(requested, calls) if shape[0] * shape[1] > 9]
    by_rows = {shape for shape, call in big if call == shape}
    by_columns = {shape for shape, call in big if call != shape}
    # both orientations ran on shapes above 9 cells, with h < w and h > w
    for shapes in (by_rows, by_columns):
        assert any(h < w for h, w in shapes) and any(h > w for h, w in shapes)


def test_transfer_runs_along_the_cheaper_side(monkeypatch):
    calls = _record_transfers(monkeypatch)
    # |E_A| = 3, |E_B| = 4: 3**7 * 4 = 8748 states by rows, 4**3 * 3 = 192 by columns
    ex34 = q.build_system([[3]], [[4]], "exchange")
    count = count_rectangles(ex34, 3, 7)
    assert cell_transfer_count(ex34, 3, 7) == count == row_transfer_count(ex34, 3, 7)
    # 3**6 * 4 = 2916 by rows, 4**6 * 3 = 12288 by columns
    assert count_rectangles(ex34, 6, 6) == 2985984 == cell_transfer_count(ex34, 6, 6)
    assert calls == [(7, 3), (6, 6)]


def _exact_count(ts, height, width):
    """1^T A^w B^h 1 walked step by step, no entry held."""
    vector = [1] * ts.n_vertices
    for matrix, steps in ((ts.matrix_b, height), (ts.matrix_a, width)):
        for _ in range(steps):
            vector = matrix.times(vector)
    return sum(vector)


def test_the_held_walk_gives_the_exact_count_or_refuses_it(digit_limit):
    # entries held at 10^640 stay exact below it, so the count is exact
    # unless it reaches 10^640, and then it is refused
    polynomial = q.build_system([[1, 1], [0, 1]], [[1, 0], [0, 1]])
    systems = _seeded_systems(15, seed=3) + _dead_end_systems() + [_held_dead_end(), polynomial]
    shapes = [(1, 1), (4, 3), (700, 1), (1, 700), (300, 400), (1200, 900)]
    seen = set()
    for ts in systems:
        for height, width in shapes:
            digit_limit(0)
            exact = _exact_count(ts, height, width)
            digit_limit(640)
            if exact < 10**640:
                assert count_rectangles(ts, height, width) == exact, (ts.matrix_a, height, width)
                seen.add("long" if exact >= 10**100 else "short")
            else:
                with pytest.raises(PatternSpaceTooLarge):
                    count_rectangles(ts, height, width)
                seen.add("refused")
    assert seen == {"short", "long", "refused"}
    # an entry held at 10^640 that no A-path reads
    assert count_rectangles(_held_dead_end(), 700, 1) == 1


def test_long_strips_count_in_logarithmic_steps(digit_limit, one_tile):
    # the powers are taken by repeated squaring: each call takes
    # milliseconds, whether the count is held, constant or growing; the
    # bound is 1 s
    digit_limit(4300)
    polynomial_columns = q.build_system([[1, 1], [0, 1]], [[1, 0], [0, 1]])
    polynomial_rows = q.build_system([[1, 0], [0, 1]], [[1, 1], [0, 1]])
    # 100 vertices: each squaring skips the zero entries of I
    identity = [[int(i == j) for j in range(100)] for i in range(100)]
    calls = [
        (_ten(), 10**9, 1, None),  # 10^h, held at 10^4300
        (_held_dead_end(), 200_000, 1, 1),
        (one_tile, 3, 3 * 10**9, 1),
        (one_tile, 10**9, 3, 1),
        (polynomial_columns, 1, 10**9, 10**9 + 2),  # 1^T A^w 1 = w + 2
        (polynomial_rows, 10**9, 1, 10**9 + 2),
        (q.build_system(identity, identity), 1000, 1000, 100),
    ]
    for ts, height, width, expected in calls:
        start = time.perf_counter()
        if expected is None:
            with pytest.raises(PatternSpaceTooLarge, match="has more than 4300 digits"):
                count_rectangles(ts, height, width)
        else:
            assert count_rectangles(ts, height, width) == expected
        assert time.perf_counter() - start < 1, (height, width)


def _dead_end_systems():
    """Systems with a zero row in A or B: no row or column goes on from there."""
    return [
        q.build_system([[0, 1], [0, 0]], [[1, 1], [0, 1]]),
        q.build_system([[1, 1], [0, 0]], [[2, 2], [0, 0]]),
        q.build_system([[1, 0], [4, 1]], [[0, 0], [2, 0]]),
    ]


def _kappa_variants(ts):
    kappas = q.enumerate_kappas(ts.matrix_a, ts.matrix_b, limit=KAPPA_LIMIT)
    return [q.build_system(ts.matrix_a.rows, ts.matrix_b.rows, kappa) for kappa in kappas]


def test_counts_agree_over_every_kappa(all_systems):
    systems = all_systems + _seeded_systems(15, seed=5)
    assert sum(len(_kappa_variants(ts)) for ts in systems) > 2 * len(systems)
    for ts in systems:
        variants = _kappa_variants(ts)
        for height, width in ORACLE_SHAPES:
            # the oracles read the tiles, so each specification is counted on its own
            count = count_rectangles(ts, height, width)
            for variant in variants:
                shape = (variant.kappa, height, width)
                assert row_transfer_count(variant, height, width) == count, shape
                assert cell_transfer_count(variant, height, width) == count, shape
                if height * width <= 9:
                    assert brute_force_count(variant, height, width) == count, shape


def test_listing_matches_the_order_oracle():
    systems = _dead_end_systems() + _seeded_systems(15, seed=5)
    shapes = [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (4, 1), (3, 3)]
    for ts in systems:
        for variant in _kappa_variants(ts):
            for height, width in shapes:
                expected = list(listing_order(variant, height, width))
                assert list(enumerate_rectangles(variant, height, width)) == expected
                for limit in (0, 1, 2, 5):
                    listed = list(enumerate_rectangles(variant, height, width, limit=limit))
                    assert listed == expected[:limit]


def _listing_with_cells_entered(ts, height, width):
    """The full listing, and how many cells it started to fill: the listing
    opens one candidate generator (``options``) per cell it enters."""
    entered = {}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "options" and code.co_filename == subshift.__file__:
            entered[id(frame)] = frame  # kept alive, so ids stay distinct

    sys.setprofile(profile)
    try:
        patches = list(enumerate_rectangles(ts, height, width))
    finally:
        sys.setprofile(None)
    return patches, len(entered)


def test_every_partial_patch_the_listing_visits_extends():
    for ts in _dead_end_systems():
        for height, width in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
            patches, entered = _listing_with_cells_entered(ts, height, width)
            flat = [tuple(t for row in patch.cells for t in row) for patch in patches]
            prefixes = {cells[:k] for cells in flat for k in range(1, height * width)}
            # the first cell, then one more cell per proper prefix of a listed patch
            assert entered == 1 + len(prefixes), (ts.matrix_a, height, width)


def test_long_strips_count_and_list_at_once(one_tile):
    assert count_rectangles(one_tile, 3, 30000) == 1
    ex34 = q.build_system([[3]], [[4]], "exchange")
    patches = list(enumerate_rectangles(ex34, 2, 9, limit=1))
    assert len(patches) == 1
    validate(patches[0])
    assert patches[0] == next(listing_order(ex34, 2, 9))


def _subshift(path, rows, cols) -> list[str]:
    return ["subshift", str(path), "--rows", str(rows), "--cols", str(cols)]


def test_exchange_8x8_counts_at_3x3(tmp_path, capsys):
    # 8**6 patches of 64 tiles, from the closed form
    from quadtex.cli import main

    path = tmp_path / "exchange-8x8.json"
    path.write_text('{"A": [[8]], "B": [[8]], "kappa": "exchange"}', encoding="utf-8")
    assert main(_subshift(path, 3, 3)) == 0
    assert capsys.readouterr().out == "3x3 patches: 262144\n"


def test_the_count_reads_no_tile(all_systems, monkeypatch):
    systems = all_systems + _seeded_systems(5, seed=5) + _dead_end_systems()
    shapes = [(1, 1), (3, 3), (1, 9), (9, 1), (2, 4), (6, 6)]
    expected = [[cell_transfer_count(ts, h, w) for h, w in shapes] for ts in systems]

    def unread(ts):
        raise AssertionError("count_rectangles read the tiles")

    monkeypatch.setattr(q.TextileSystem, "tiles", property(unread))
    counts = [[count_rectangles(ts, h, w) for h, w in shapes] for ts in systems]
    assert counts == expected


def test_subalphabet_monotonicity(fibonacci, exchange_pair):
    # dropping tiles can only remove patches
    rng = random.Random(8)

    def brute_restricted(ts, keep, height, width):
        cells = [[None] * width for _ in range(height)]

        def fill(pos):
            if pos == height * width:
                return 1
            i, j = divmod(pos, width)
            total = 0
            for tile in keep:
                if j > 0 and not glue("horizontal", cells[i][j - 1], tile):
                    continue
                if i > 0 and not glue("vertical", cells[i - 1][j], tile):
                    continue
                cells[i][j] = tile
                total += fill(pos + 1)
                cells[i][j] = None
            return total

        return fill(0)

    for ts in (fibonacci, exchange_pair):
        for _ in range(10):
            keep = [t for t in ts.tiles if rng.random() < 0.7]
            for height, width in ((1, 2), (2, 2), (2, 1)):
                full = count_rectangles(ts, height, width)
                assert brute_restricted(ts, keep, height, width) <= full


def test_wang_tile_records(fibonacci):
    records = wang_tile_list(fibonacci)
    assert len(records) == 5
    assert records[0] == {
        "id": 0,
        "top": "A:1->1#1",
        "right": "B:1->1#1",
        "left": "B:1->1#1",
        "bottom": "A:1->1#1",
        "vertex": 1,
    }
    assert [r["id"] for r in records] == list(range(5))
