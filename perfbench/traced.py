"""Traced passes: the benchmark's own spans around calls into each layer.

A traced call makes the calls the CLI subcommand makes, in its order, but
directly into the public functions of ``quadtex.textile``, ``fock``,
``ktheory`` and ``subshift``, each inside a span.  It returns the payload
the CLI would print, so the same checks apply.  Layer calls the CLI makes
only inside another function (the operator bank, a single identity, the
two Smith normal forms inside ``k_theory``) are timed by separate calls
after the pass, so they do not count in the traced pass time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from quadtex.fock import (
    ck_generators,
    creation,
    fock_basis,
    verify_fock_identities,
    verify_relations_hk,
)
from quadtex.ktheory import (
    analyze_system,
    build_quad_matrices,
    k_theory,
    smith_normal_form,
    structure_checks,
)
from quadtex.subshift import count_rectangles, enumerate_rectangles, wang_tile_list
from quadtex.textile import build_system, count_specifications, enumerate_kappas

import checks
import oracle

# the CLI runs the word-space suite with this headroom (quadtex.cli.CLI_HEADROOM)
CLI_HEADROOM = 2


class Recorder:
    """Busy time per span name (ms, summed over a pass) and exact counts."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_ms(name, (time.perf_counter() - start) * 1000.0)

    def add_ms(self, name: str, value: float) -> None:
        self.ms[name] = self.ms.get(name, 0.0) + value

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def high(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


def _load(rec: Recorder, call):
    with open(call.doc.path, encoding="utf-8") as handle:
        doc = json.load(handle)
    with rec.span("textile.build_system"):
        return build_system(doc["A"], doc["B"], doc.get("kappa", "lex"))


def _elapsed_ms(fn) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return (time.perf_counter() - start) * 1000.0, out


def _verify(rec: Recorder, call):
    ts = _load(rec, call)
    with rec.span("fock.fock_basis"):
        tf = fock_basis(ts, call.options["level"])
    with rec.span("fock.identity_suite"):
        words = verify_fock_identities(tf, headroom=CLI_HEADROOM)
    with rec.span("fock.relation_suite"):
        relations = verify_relations_hk(tf)
    with rec.span("fock.generator_suite"):
        generators = ck_generators(tf)[2]
    reports = [words, relations, generators]
    payload = {
        "command": "verify",
        "max_level": tf.max_level,
        "reports": [r.to_jsonable() for r in reports],
        "passed": all(r.passed for r in reports),
    }

    def after():
        checks.check_level_sizes(call, [tf.count_at(lv) for lv in range(tf.max_level + 1)])
        rec.count("fock.words", tf.dim)
        statuses = [c.status for r in reports for c in r.checks]
        rec.count("fock.skipped", statuses.count("skipped"))
        rec.count("fock.compared", len(statuses) - statuses.count("skipped"))
        nnz = sum(creation(tf, "s", e).nnz() for e in ts.edges_a)
        nnz += sum(creation(tf, "t", e).nnz() for e in ts.edges_b)
        rec.count("fock.creation_nnz", nnz)
        bank_ms, _ = _elapsed_ms(lambda: verify_fock_identities(tf, identities=[]))
        rec.add_ms("fock.bank", bank_ms)
        for check in words.checks:
            if check.status == "skipped":
                continue
            ms, single = _elapsed_ms(
                lambda: verify_fock_identities(
                    tf, identities=[check.identity_id], headroom=CLI_HEADROOM
                )
            )
            checks.expect(single.passed, f"{check.identity_id} fails on its own")
            rec.add_ms(f"fock.identity.{check.identity_id}", ms - bank_ms)

    return payload, after


def _analyze(rec: Recorder, call):
    ts = _load(rec, call)
    with rec.span("ktheory.analyze_system"):
        payload = analyze_system(ts)
    payload["command"] = "analyze"

    def after():
        rec.count("ktheory.corner_pairs", len(ts.omega))
        with rec.span("ktheory.build_quad_matrices"):
            a_kappa, b_kappa, h_kappa = build_quad_matrices(ts)
        with rec.span("ktheory.k_theory"):
            k_theory(ts)
        with rec.span("ktheory.structure_checks"):
            structure_checks(h_kappa)
        small = oracle.presentation(a_kappa, b_kappa)
        big = [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(h_kappa)]
        with rec.span("ktheory.snf"):
            snf = smith_normal_form(small)
        with rec.span("ktheory.snf_block"):
            smith_normal_form(big)
        bits = max(abs(x).bit_length() for m in (snf.u, snf.v) for row in m for x in row)
        rec.high("ktheory.snf_max_bits", bits)

    return payload, after


def _kappa(rec: Recorder, call):
    ts = _load(rec, call)
    with rec.span("textile.kappa"):
        total = count_specifications(ts.matrix_a, ts.matrix_b)
        specs = list(enumerate_kappas(ts.matrix_a, ts.matrix_b, limit=call.options["limit"]))
    shown = [
        [[[pre[0].id, pre[1].id], [img[0].id, img[1].id]] for pre, img in spec.pairs]
        for spec in specs
    ]
    return {"command": "kappa", "count": total, "listed": len(shown), "specifications": shown}, None


def _tiles(rec: Recorder, call):
    ts = _load(rec, call)
    records = wang_tile_list(ts)
    return {"command": "tiles", "count": len(records), "tiles": records}, None


def _subshift(rec: Recorder, call):
    ts = _load(rec, call)
    height, width = call.options["rows"], call.options["cols"]
    with rec.span("subshift.count"):
        count = count_rectangles(ts, height, width)
    payload = {"command": "subshift", "rows": height, "cols": width, "count": count}
    limit = call.options.get("limit")
    if limit:
        with rec.span("subshift.enumerate"):
            rects = list(enumerate_rectangles(ts, height, width, limit=limit))
        payload["patches"] = [[[ts.tile_index[t] for t in row] for row in r.cells] for r in rects]

    def after():
        rows = count_rectangles(ts, 1, width)
        checks.expect(
            rows == checks.expected_patches(call.doc, 1, width), f"rows of width {width}"
        )
        rec.count("subshift.rows", rows)

    return payload, after


TRACERS = {
    "verify": _verify,
    "analyze": _analyze,
    "kappa": _kappa,
    "tiles": _tiles,
    "subshift": _subshift,
}


def traced_call(rec: Recorder, call):
    """(payload, after): the CLI's layer calls, and the extra timings to run later."""
    return TRACERS[call.command](rec, call)
