"""Output checks: every CLI payload against the benchmark's own model.

``check(call, payload)`` raises ``CheckFailed`` on the first property that
does not hold.  The expected values come from ``oracle`` (rebuilt from the
input matrices) or from closed forms, never from a stored copy of an
earlier output.
"""

from __future__ import annotations

import math

import oracle

SUITES = {
    "word-space identities": [
        "creation_range", "range_partition", "co_isometry", "vertex_sandwich",
        "vertex_commutation", "tile_word_commutation", "compressed_range",
        "diagonal_commutation", "twisted_sandwich", "diagonal_reconstruction",
        "base_rank_one_partition", "tile_rank_one_partition", "creation_expansion",
    ],
    "universal relations": [
        "unit_partition_interior", "unit_partition_uncut", "range_proj_diag_commutation",
        "same_layer_compression", "cross_layer_pullback", "embedding_agreement",
        "edge_partitions", "range_proj_support", "cross_proj_commutation",
        "initial_projections", "corner_selection", "corner_projection_commutation",
        "initial_support_by_composability", "shared_range_initials", "corner_partition",
        "range_proj_corner_refinement", "corner_transition", "vertex_commutation_quotient",
        "vertex_compression_quotient",
    ],
    "corner generators": [
        "generator_partition", "horizontal_transition", "vertical_transition",
        "corner_decomposition",
    ],
}
# the paper's example: [[2]] x [[3]] exchange has K0 = Z/8Z and K1 = 0
PAPER_EXAMPLE = ((2, 3), [8], 0)


class CheckFailed(Exception):
    """A payload property does not hold."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_verify(call, payload) -> None:
    level = call.options["level"]
    expect(payload.get("passed") is True, "verify did not report passed")
    reports = payload["reports"]
    expect([r["title"] for r in reports] == list(SUITES), "unexpected report titles")
    for report in reports:
        expect(report["max_level"] == level, f"{report['title']}: wrong max_level")
        ids = [c["identity_id"] for c in report["identities"]]
        expect(ids == SUITES[report["title"]], f"{report['title']}: identity ids differ")
        for entry in report["identities"]:
            name = f"{report['title']}/{entry['identity_id']}"
            expect(entry["status"] in ("pass", "skipped"), f"{name}: status {entry['status']}")
            if entry["status"] == "skipped":
                expect(bool(entry.get("notice")), f"{name}: skipped without a notice")
                expect(entry["levels_checked"] is None, f"{name}: skipped but has levels")
            else:
                low, high = entry["levels_checked"]
                expect(0 <= low <= high <= level, f"{name}: levels {low}..{high} outside 0..{level}")


def check_level_sizes(call, sizes) -> None:
    """Word counts per level of the program's basis against the model's."""
    expected = call.doc.model.level_sizes(call.options["level"])
    expect(sizes == expected, f"level sizes {sizes} != {expected}")


def check_analyze(call, payload) -> None:
    model = call.doc.model
    a_kappa, b_kappa = model.quad_matrices()
    n = len(model.omega)
    expect(payload["n"] == n, f"n = {payload['n']}, expected {n}")
    omega_ids = [[oracle.edge_id(alpha), oracle.edge_id(a)] for alpha, a in model.omega]
    expect(payload["omega"] == omega_ids, "corner pairs differ")
    expect(payload["A_kappa"] == a_kappa, "A_kappa differs from its definition")
    expect(payload["B_kappa"] == b_kappa, "B_kappa differs from its definition")
    expect(payload["cross_check"] == "ok", "cross-check not ok")
    torsion = payload["K0"]["torsion"]
    free = payload["K0"]["free_rank"]
    expect(all(f > 1 for f in torsion), f"torsion {torsion} has a factor <= 1")
    expect(
        all(b % a == 0 for a, b in zip(torsion, torsion[1:])),
        f"torsion {torsion} is not a divisor chain",
    )
    expect(payload["K1"]["free_rank"] == free, "K1 rank differs from the K0 free rank")
    rank, det = oracle.rank_and_det(oracle.presentation(a_kappa, b_kappa))
    expect(free == n - rank, f"free rank {free}, expected n - rank = {n - rank}")
    if det:
        expect(math.prod(torsion) == abs(det), f"torsion product != |det| = {abs(det)}")
    if call.doc.exchange:
        p, q = call.doc.exchange
        expect(n == p * q, f"exchange [[{p}]]x[[{q}]]: n = {n}, expected {p * q}")
        expect(all(sum(row) == p for row in a_kappa), "A_kappa row sums differ from p")
        expect(all(sum(row) == q for row in b_kappa), "B_kappa row sums differ from q")
        if call.doc.exchange == PAPER_EXAMPLE[0]:
            expect(torsion == PAPER_EXAMPLE[1], f"paper example: K0 torsion {torsion} != [8]")
            expect(free == PAPER_EXAMPLE[2], "paper example: K1 is not 0")


def check_kappa(call, payload) -> None:
    model = call.doc.model
    count = oracle.specification_count(model.a, model.b)
    expect(payload["count"] == count, f"count {payload['count']} != {count}")
    listed = payload["specifications"]
    expect(payload["listed"] == len(listed) == min(count, call.options["limit"]), "listed count")
    n_pairs = len(model.tiles)
    for spec in listed:
        domain = {tuple(pre) for pre, _ in spec}
        image = {tuple(img) for _, img in spec}
        expect(len(spec) == len(domain) == len(image) == n_pairs, "a listing is not a bijection")
    expect(len({repr(spec) for spec in listed}) == len(listed), "a specification is listed twice")
    if listed and call.doc.kappa == "lex":
        lex = [
            [[oracle.edge_id(alpha), oracle.edge_id(b)], [oracle.edge_id(a), oracle.edge_id(beta)]]
            for alpha, b, a, beta in sorted(model.tiles)
        ]
        expect(listed[0] == lex, "the first specification is not the lex pairing")


def check_tiles(call, payload) -> None:
    model = call.doc.model
    count = oracle.total(oracle.mat_mul(model.a, model.b))
    expect(payload["count"] == count, f"tile count {payload['count']} != {count}")
    records = payload["tiles"]
    expect([r["id"] for r in records] == list(range(count)), "tile ids are not 0..count-1")
    got = {(r["top"], r["right"], r["left"], r["bottom"]) for r in records}
    expect(got == model.tile_records(), "tile records differ from the pairing")


def expected_patches(doc, height: int, width: int) -> int:
    if doc.exchange:
        return oracle.exchange_count(*doc.exchange, height, width)
    if doc.fibonacci_lex:
        return oracle.fibonacci_lex_count(height, width)
    return doc.model.count_rectangles(height, width)


def check_subshift(call, payload) -> None:
    height, width = call.options["rows"], call.options["cols"]
    expect((payload["rows"], payload["cols"]) == (height, width), "shape echoed wrongly")
    count = expected_patches(call.doc, height, width)
    expect(payload["count"] == count, f"{height}x{width} count {payload['count']} != {count}")
    limit = call.options.get("limit")
    if limit:
        patches = payload["patches"]
        expect(len(patches) == min(limit, count), "listing length")
        expect(len({repr(p) for p in patches}) == len(patches), "a patch is listed twice")
        tiles = len(call.doc.model.tiles)
        for patch in patches:
            expect(
                len(patch) == height and all(len(row) == width for row in patch),
                "listed patch has the wrong shape",
            )
            expect(all(0 <= t < tiles for row in patch for t in row), "tile index out of range")
            expect(call.doc.model.is_patch(patch), f"listed patch {patch} does not glue")


CHECKERS = {
    "verify": check_verify,
    "analyze": check_analyze,
    "kappa": check_kappa,
    "tiles": check_tiles,
    "subshift": check_subshift,
}


def check(call, payload) -> None:
    expect(payload.get("command") == call.command, "wrong command in payload")
    CHECKERS[call.command](call, payload)
