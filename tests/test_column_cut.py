"""``verify`` compares each identity only on the columns that can hold its
first difference, and decides on a basis only as deep as they reach: the
CLI builds just that, and each library call takes that prefix of its basis.

The oracle (``oracles.full_block_report``) evaluates every row on every
column of its block [low, L - m]; the library calls on ``fock_basis(ts, L)``
and ``verify_level`` must report exactly what it reports, on the true
operator bank and on four broken ones.  The cut rests on the shape every
bank operator carries; the last tests check the derived shapes: pinned per
row, prefix-local on full bases, within their builders' on every system, and
the same when the derivation runs on a broken bank.
"""

import functools
import random

import pytest

import quadtex as q
import quadtex.fock as fock
from quadtex.cli import CLI_HEADROOM
from quadtex.errors import BasisTooLarge, TruncationTooShallow
from quadtex.fock import ck_generators, fock_basis, verify_fock_identities, verify_level, verify_relations_hk

from conftest import FIB
from library import basis_words, word_level
from oracles import full_block_report, random_commuting_pair

LEVELS = range(2, 7)
REPORTS = (fock.WORDS, fock.RELATIONS, fock.GENERATORS)


def _seeded_systems(count, seed=8, total_cap=8):
    """Distinct seeded commuting pairs with at least one tile, as lex systems."""
    rng, seen, out = random.Random(seed), set(), []
    while len(out) < count:
        a, b = random_commuting_pair(rng, total_cap=total_cap)
        ts = q.build_system(a.rows, b.rows, "lex")
        if ts.tiles and (a.rows, b.rows) not in seen:
            seen.add((a.rows, b.rows))
            out.append((f"seeded {a.rows} x {b.rows}", ts))
    return out


# name -> (system, levels): the bundled inputs, exchange [[3]] x [[4]] (12
# tiles; at level 6 the oracle alone takes over 10 s per bank, so it stops at
# 5) and seeded pairs
SYSTEMS = {
    "exchange-2x3": (q.build_system([[2]], [[3]], "exchange"), LEVELS),
    "fibonacci": (q.build_system(FIB, FIB, "lex"), LEVELS),
    "one-tile": (q.build_system([[1]], [[1]], "lex"), LEVELS),
    "exchange-3x4": (q.build_system([[3]], [[4]], "exchange"), range(2, 6)),
    **{name: (ts, LEVELS) for name, ts in _seeded_systems(4)},
}


def _break(patch, ts, bank):
    """Patch ``fock`` so that every bank built from now on is ``bank``: the
    true one, s tripled on the first A-edge, t tripled on the first B-edge,
    every eta action doubled, or s tripled on the first A-edge past the
    markers (on the columns of level >= 1 only).  The last still reads only
    the first tile and whether a word is a marker, and it moves first
    differences one level deeper, to where a depth of 1 is needed."""
    if bank in ("s tripled", "t tripled", "s tripled past the markers"):
        edge = (ts.edges_b if bank == "t tripled" else ts.edges_a)[0]
        real = fock.creation

        def tripled(tf, kind, x):
            op = real(tf, kind, x)
            if x != edge:
                return op
            first = tf.starts[1] if bank == "s tripled past the markers" else 0
            return fock.SparseOp({c: {r: 3 * v for r, v in col.items()} if c >= first else col for c, col in op.cols.items()})

        patch.setattr(fock, "creation", tripled)
    elif bank == "eta doubled":
        real = fock.left_action_op

        def doubled(tf, kind, elem, n=None):
            op = real(tf, kind, elem, n)
            return fock._DiagonalOp({c: 2 * v for c, v in op.values.items()}) if kind == "eta" else op

        patch.setattr(fock, "left_action_op", doubled)


BANKS = ("true", "s tripled", "t tripled", "eta doubled", "s tripled past the markers")


def _outcome(call):
    """A report as JSON, or the type and message of the error it raised."""
    try:
        return call().to_jsonable()
    except (TruncationTooShallow, BasisTooLarge) as exc:
        return type(exc).__name__, str(exc)


@functools.cache
def _runs(bank: str, name: str, level: int) -> dict:
    """The oracle's reports and both production paths' on one system."""
    ts = SYSTEMS[name][0]
    with pytest.MonkeyPatch.context() as patch:
        _break(patch, ts, bank)
        tf = fock_basis(ts, level)
        headrooms = {fock.WORDS: CLI_HEADROOM, fock.RELATIONS: 1, fock.GENERATORS: 1}
        oracle = [_outcome(lambda: full_block_report(tf, r, headrooms[r])) for r in REPORTS]
        library = [
            _outcome(lambda: verify_fock_identities(tf, headroom=CLI_HEADROOM)),
            _outcome(lambda: verify_relations_hk(tf)),
            _outcome(lambda: ck_generators(tf)[2]),
        ]
        try:
            cli = [r.to_jsonable() for r in verify_level(ts, level, headroom=CLI_HEADROOM)]
        except TruncationTooShallow as exc:
            cli = type(exc).__name__, str(exc)
        # verify_level raises at the first report that does
        expected_cli = next((o for o in oracle if isinstance(o, tuple)), oracle)
        return {"oracle": oracle, "library": library, "cli": cli, "expected_cli": expected_cli}


def _cases():
    """(system name, level) of every run."""
    return [(name, level) for name, (_, levels) in SYSTEMS.items() for level in levels]


def _label_level(label: str) -> int:
    """The level of the word a witness label names."""
    return label.count("-h-") + label.count("-v-") + 1 if label.startswith("(") else 0


@pytest.mark.parametrize("bank", BANKS)
def test_the_cut_reports_what_the_full_block_reports(bank):
    failing = 0
    for name, level in _cases():
        runs = _runs(bank, name, level)
        assert runs["library"] == runs["oracle"], (name, level)
        assert runs["cli"] == runs["expected_cli"], (name, level)
        failing += sum(
            c["status"] == "fail" for r in runs["oracle"] if isinstance(r, dict) for c in r["identities"]
        )
    # the broken banks break rows on every report; the true one breaks none
    assert (failing == 0) == (bank == "true")


@pytest.mark.parametrize("bank", BANKS[1:])
def test_each_first_difference_lies_within_the_rows_columns(bank):
    # a read depth derived too small cuts off the column that holds the
    # block's first difference: name the row, its builders and their shapes
    rows = {r.identity_id: r for r in fock._TABLE}
    failing = set()
    for name, level in _cases():
        for report in _runs(bank, name, level)["oracle"]:
            if not isinstance(report, dict):
                continue
            for check in report["identities"]:
                if check["status"] != "fail":
                    continue
                row = rows[check["identity_id"]]
                column = _label_level(check["witness"]["col"])
                assert column <= row.columns(level), (
                    f"{row.identity_id}: the first difference of its block lies in a column of "
                    f"level {column} on {name} at level {level}, above c = {row.columns(level)}; "
                    f"the read depth d = {row.shape[0]} derived from its builders "
                    f"{_builder_shapes(row)} is too small"
                )
                failing.add(row.identity_id)
    assert len(failing) >= 10


def _builder_shapes(row) -> dict:
    """Each builder of a row by name, with its derived (d, r)."""
    return {getattr(b, "func", b).__name__: fock._BUILDER_SHAPES[b] for b in row.builders}


def test_the_cli_basis_stops_at_the_deepest_compared_reach(exchange_pair, monkeypatch):
    depths = []
    real = fock.fock_basis
    monkeypatch.setattr(fock, "fock_basis", lambda ts, level, cap: depths.append(level) or real(ts, level, cap))
    for level in range(4, 9):  # level 9 would hold 2,343,750 words, over the cap
        reports = verify_level(exchange_pair, level, headroom=CLI_HEADROOM)
        assert [r.max_level for r in reports] == [level] * 3
        assert all(r.passed for r in reports)
    # at level 4 the relation rows of margin 2 reach level 3 (c = 2, r = 1);
    # from level 5 on the transition rows (d = r = 1, c = 3) reach level 4,
    # and tile_word_commutation (d = 2, r = 0) reaches only its columns' 3
    assert depths == [3, 4, 4, 4, 4]
    # fock_basis still builds every level it is asked for
    tf = fock_basis(exchange_pair, 6)
    assert tf.max_level == 6 and tf.count_at(6) == 6 * 5**5
    assert verify_fock_identities(tf, headroom=CLI_HEADROOM).max_level == 6


def test_a_prefix_of_a_basis_is_the_shallower_basis(all_systems):
    for ts in all_systems:
        tf = fock_basis(ts, 5)
        assert tf.up_to(5) is tf.up_to(9) is tf
        for level in range(0, 5):
            head, built = tf.up_to(level), fock_basis(ts, max(level, 1)).up_to(level)
            assert (head.max_level, head.starts, head.splits) == (level, built.starts, built.splits)
            assert head.dim == tf.prefix(level) and head.splits == tf.splits[: head.dim]


def _bank_depths(monkeypatch) -> list:
    """The top level of the basis of every bank built from now on."""
    depths = []

    class Recorded(fock._Bank):
        def __init__(self, tf, level):
            depths.append(tf.max_level)
            super().__init__(tf, level)

    monkeypatch.setattr(fock, "_Bank", Recorded)
    return depths


def test_each_library_call_decides_on_the_prefix_its_rows_reach(exchange_pair, monkeypatch):
    # about 0.25 s, most of it building the basis of level 8 (585,941 words)
    depths = _bank_depths(monkeypatch)
    for level in range(4, 9):
        tf = fock_basis(exchange_pair, level)
        reports = [verify_fock_identities(tf, headroom=CLI_HEADROOM), verify_relations_hk(tf), ck_generators(tf)[2]]
        assert [r.max_level for r in reports] == [level] * 3
        assert all(r.passed for r in reports)
    # (words, relations, generators) per level: tile_word_commutation (d = 2)
    # reaches level 3 from level 7 on, the relation rows level 3, and the
    # transition rows (d = r = 1) level 4 from level 5 on
    assert depths == [2, 3, 3] + [2, 3, 4] * 2 + [3, 3, 4] * 2


def test_a_single_identity_uses_only_its_own_rows_reach(exchange_pair, monkeypatch):
    depths = _bank_depths(monkeypatch)
    tf = fock_basis(exchange_pair, 7)
    for identity in ("co_isometry", "tile_word_commutation", "creation_range"):
        assert verify_fock_identities(tf, identities=[identity]).passed
    assert verify_fock_identities(tf, identities=[]).checks == []
    # co_isometry (d = 0, r = 1) and creation_range (d = 1, r = 0) read
    # level 2, tile_word_commutation (d = 2, r = 0) level 3, where the whole
    # suite reads 3 as well; no row runs on an empty list
    assert depths == [2, 3, 2, 0]


def test_the_generators_returned_live_on_the_deciding_prefix(exchange_pair, monkeypatch):
    depths = _bank_depths(monkeypatch)
    for level in (4, 6):
        tf = fock_basis(exchange_pair, level)
        s_ops, t_ops, report = ck_generators(tf)
        assert report.passed
        n = tf.prefix(depths[-1])
        entries = [(r, c) for op in (*s_ops.values(), *t_ops.values()) for c, col in op.cols.items() for r in col]
        assert entries and all(r < n and c < n for r, c in entries)
        # whole on that prefix: the top level of it holds images
        assert max(r for r, _ in entries) >= tf.prefix(depths[-1] - 1)
    assert depths == [3, 4]


def test_verify_level_reports_what_the_library_reports_at_every_headroom(exchange_pair):
    # the headroom skips word-space rows only, in both paths
    for level in (4, 5, 6):
        tf = fock_basis(exchange_pair, level)
        for headroom in (1, 2, 3):
            library = [verify_fock_identities(tf, headroom=headroom), verify_relations_hk(tf), ck_generators(tf)[2]]
            cli = verify_level(exchange_pair, level, headroom=headroom)
            assert [r.to_jsonable() for r in cli] == [r.to_jsonable() for r in library], (level, headroom)
    words, relations, generators = verify_level(exchange_pair, 4, headroom=3)
    # the word-space rows of margin >= 2 are skipped; the 5 relation and 4
    # generator rows of margin 2 still run
    statuses = [[c.status for c in report.checks] for report in (words, relations, generators)]
    assert [s.count("skipped") for s in statuses] == [5, 0, 0]


def test_the_cap_and_the_depth_errors_are_decided_at_the_level_asked_for(exchange_pair):
    # level 8 holds 468,750 words; the basis verify_level builds holds 941
    with pytest.raises(BasisTooLarge, match="level 8 would hold 468750 words"):
        verify_level(exchange_pair, 8, cap=100_000)
    with pytest.raises(ValueError, match="max_level must be at least 1"):
        verify_level(exchange_pair, 0)
    for level, report in ((2, "identity"), (3, "relation")):
        with pytest.raises(TruncationTooShallow, match=f"the {report} suite needs max_level >= "):
            verify_level(exchange_pair, level)



def test_every_refusal_is_raised_before_anything_is_built(exchange_pair, monkeypatch):
    # the cap, then an unknown id, then the report's depth, then a too-shallow
    # id: each raises its own error and message with no basis, bank or
    # creation operator built
    tf2, tf3 = fock_basis(exchange_pair, 2), fock_basis(exchange_pair, 3)

    def unbuilt(*args, **kwargs):
        raise AssertionError("built before the refusal")

    for name in ("_Bank", "fock_basis", "creation"):
        monkeypatch.setattr(fock, name, unbuilt)
    words, relations = "the identity suite needs max_level >= 3", "the relation suite needs max_level >= 4"
    refusals = [
        (lambda: verify_level(exchange_pair, 2, cap=10), BasisTooLarge, "level 2 would hold 30 words (cap 10)"),
        (lambda: verify_level(exchange_pair, 1), TruncationTooShallow, words),
        (lambda: verify_level(exchange_pair, 3), TruncationTooShallow, relations),
        (lambda: verify_fock_identities(tf2), TruncationTooShallow, words),
        (lambda: verify_relations_hk(tf3), TruncationTooShallow, relations),
        (lambda: ck_generators(tf3), TruncationTooShallow, "the generator suite needs max_level >= 4"),
        (
            lambda: verify_fock_identities(tf3, identities=["co_isometry", "tile_word_commutation"]),
            TruncationTooShallow,
            "identity 'tile_word_commutation' needs max_level >= 5, basis has 3",
        ),
        (
            lambda: verify_fock_identities(tf3, identities=["tile_word_commutation"], headroom=2),
            TruncationTooShallow,
            "identity 'tile_word_commutation' needs max_level >= 6, basis has 3",
        ),
        (lambda: verify_fock_identities(tf2, identities=["no_such", "co_isometry"]), ValueError, "unknown identity ids: ['no_such']"),
        (lambda: verify_fock_identities(tf2, identities=["tile_word_commutation"]), TruncationTooShallow, words),
        # a relation id is unknown to the word-space report
        (lambda: verify_fock_identities(tf3, identities=["corner_partition"]), ValueError, "unknown identity ids: ['corner_partition']"),
    ]
    for call, error, message in refusals:
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message

# (d, r) of every row, derived from its builders' sides.  Each d is the read
# depth the table declared by hand before it was derived; each r is at most
# m - d, the bound that stood in for it
DERIVED = {
    "creation_range": (1, 0),
    "range_partition": (1, 0),
    "co_isometry": (0, 1),
    "vertex_sandwich": (0, 1),
    "vertex_commutation": (1, 0),
    "tile_word_commutation": (2, 0),
    "compressed_range": (1, 0),
    "diagonal_commutation": (1, 0),
    "twisted_sandwich": (0, 1),
    "diagonal_reconstruction": (1, 0),
    "base_rank_one_partition": (0, 0),
    "tile_rank_one_partition": (0, 0),
    "creation_expansion": (0, 1),
    "unit_partition_interior": (1, 0),
    "unit_partition_uncut": (1, 0),
    "range_proj_diag_commutation": (1, 0),
    "same_layer_compression": (0, 1),
    "cross_layer_pullback": (0, 1),
    "embedding_agreement": (0, 0),
    "edge_partitions": (1, 0),
    "range_proj_support": (1, 0),
    "cross_proj_commutation": (1, 0),
    "initial_projections": (0, 1),
    "corner_selection": (0, 1),
    "corner_projection_commutation": (0, 0),
    "initial_support_by_composability": (0, 1),
    "shared_range_initials": (0, 1),
    "corner_partition": (0, 0),
    "range_proj_corner_refinement": (1, 0),
    "corner_transition": (0, 1),
    "vertex_commutation_quotient": (1, 0),
    "vertex_compression_quotient": (0, 1),
    "generator_partition": (1, 0),
    "horizontal_transition": (1, 1),
    "vertical_transition": (1, 1),
    "corner_decomposition": (1, 0),
}


def test_each_rows_depth_and_climb_are_derived():
    assert {row.identity_id: row.shape for row in fock._TABLE} == DERIVED
    assert all(r <= row.margin - d for row in fock._TABLE for d, r in [row.shape])
    # tightened below m - d on 13 rows; nothing climbs more than one level
    assert sum(r < row.margin - d for row in fock._TABLE for d, r in [row.shape]) == 13
    assert max(r for _, r in DERIVED.values()) == 1


def _primitives(bank) -> list:
    """The primitive operators of a bank, and the corner projections."""
    ops = [bank.identity, *bank.e.values()]
    for lay in bank.layers:
        ops += [*lay.op.values(), *lay.adj.values(), *lay.diag.values(), *lay.vertex.values(), lay.range_proj]
    return ops


def test_primitives_are_prefix_local_at_their_depth():
    # about 1 s.  A primitive of shape (d, r, s) sends each word u.v, u of d
    # tiles with the separator after them, to sum c u'.v, u' of d - s tiles,
    # with c fixed by u and the first tile of v: on the full basis, at every
    # column whose image stays inside it
    level = 4
    for name, (ts, _) in SYSTEMS.items():
        tf = fock_basis(ts, level)
        words = basis_words(tf)
        for op in _primitives(fock._Bank(tf, level)):
            d, r, s = op.shape
            cols = op.cols  # a diagonal builds its columns on each read
            images = {}
            for i in range(tf.prefix(d), tf.prefix(level - r)):
                w = words[i]
                image = {}
                for j, value in cols.get(i, {}).items():
                    out = words[j]
                    assert out.level == w.level - s, (name, op.shape, w.label(), out.label())
                    assert (out.tiles[d - s :], out.seps[d - s :]) == (w.tiles[d:], w.seps[d:])
                    image[out.tiles[: d - s], out.seps[: d - s]] = value
                key = w.tiles[: d + 1], w.seps[:d]
                assert images.setdefault(key, image) == image, (name, op.shape, w.label())
            assert images, (name, op.shape)


def test_short_operators_vanish_above_level_one():
    # P0, P1 and the rank-one sums count as read-only (0, 0, 0) because
    # every compared column they act on has level >= 2, where they vanish
    for ts, _ in SYSTEMS.values():
        tf = fock_basis(ts, 4)
        bank = fock._Bank(tf, 4)
        sums = [lhs for level in (0, 1) for _, lhs, _ in fock._rank_one_partition(bank, tf.dim, level)]
        for op in (bank.p0, bank.p1, *sums):
            assert op.shape == fock.READ
            levels = {word_level(tf, i) for c, col in op.cols.items() for i in (c, *col)}
            assert op.nnz() and levels <= {0, 1}


def test_the_derivation_sees_every_branch():
    # builders take bank.zero on some branches: no system yields a side
    # deeper or climbing higher than its builder's derived shape
    for name, (ts, _) in SYSTEMS.items():
        bank = fock._Bank(fock_basis(ts, 3), 3)
        for builder, (d, r) in fock._BUILDER_SHAPES.items():
            for _, *sides in builder(bank, 0):
                assert all(side.shape[0] <= d and side.shape[1] <= r for side in sides[:2]), (name, builder)


@pytest.mark.parametrize("bank", BANKS[1:])
def test_the_derivation_is_the_same_on_every_broken_bank(bank):
    # the bank tags the shapes of the primitives it builds, so a broken
    # creation or action still folds as a push or a read
    with pytest.MonkeyPatch.context() as patch:
        _break(patch, SYSTEMS["one-tile"][0], bank)
        assert fock._derive_shapes() == fock._BUILDER_SHAPES
