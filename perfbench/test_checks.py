"""Tests of the benchmark's oracle and checks.

Run from the repository root:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from quadtex import cli  # noqa: E402

FIB = workloads.FIB


def call_for(command, a, b, kappa, **options):
    doc = workloads.Doc("case", a, b, kappa)
    return workloads.Call(command, doc, options)


def cli_payload(call, directory):
    call.doc.path = os.path.join(directory, "case.json")
    with open(call.doc.path, "w", encoding="utf-8") as handle:
        json.dump({"A": call.doc.a, "B": call.doc.b, "kappa": call.doc.kappa}, handle)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(call.argv())
    assert code == 0
    return json.loads(out.getvalue())


class OracleHandValues(unittest.TestCase):
    def test_paper_example_presentation(self):
        model = oracle.Model([[2]], [[3]], "exchange")
        rank, det = oracle.rank_and_det(oracle.presentation(*model.quad_matrices()))
        # K0 = Z/8Z: full rank 6 and |det| = 8
        self.assertEqual((rank, abs(det)), (6, 8))

    def test_exchange_patches(self):
        model = oracle.Model([[2]], [[3]], "exchange")
        self.assertEqual(model.count_rectangles(3, 3), 216)
        self.assertEqual(oracle.exchange_count(2, 3, 3, 3), 3**3 * 2**3)
        for h in range(1, 4):
            for w in range(1, 4):
                self.assertEqual(model.count_rectangles(h, w), oracle.exchange_count(2, 3, h, w))

    def test_fibonacci_patches(self):
        self.assertEqual(oracle.fibonacci(9), 34)
        model = oracle.Model(FIB, FIB, "lex")
        self.assertEqual(model.count_rectangles(3, 3), 34)
        for h in range(1, 5):
            for w in range(1, 5):
                self.assertEqual(model.count_rectangles(h, w), oracle.fibonacci_lex_count(h, w))

    def test_level_sizes(self):
        # |E_A| + |E_B| = 5, six tiles, each glued to 2 (eta) + 3 (rho) tiles
        self.assertEqual(oracle.Model([[2]], [[3]], "exchange").level_sizes(4), [5, 6, 30, 150, 750])

    def test_rank_and_det(self):
        self.assertEqual(oracle.rank_and_det([[2, 1], [4, 2]]), (1, 0))
        self.assertEqual(oracle.rank_and_det([[0, 1], [1, 0]]), (2, -1))


class CheckerTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(dir=HERE)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def assertRejects(self, call, payload):
        with self.assertRaises(checks.CheckFailed):
            checks.check(call, payload)

    def test_analyze(self):
        call = call_for("analyze", [[2]], [[3]], "exchange")
        payload = cli_payload(call, self.tmp)
        checks.check(call, payload)
        self.assertEqual(payload["K0"]["torsion"], [8])
        for mutate in (
            lambda p: p["K0"].update(torsion=[4]),
            lambda p: p["K0"].update(free_rank=1),
            lambda p: p["K1"].update(free_rank=1),
            lambda p: p["A_kappa"][0].__setitem__(0, 0),
            lambda p: p["B_kappa"][1].__setitem__(0, 0),
        ):
            wrong = copy.deepcopy(payload)
            mutate(wrong)
            self.assertRejects(call, wrong)

    def test_analyze_divisor_chain(self):
        call = call_for("analyze", [[1, 1], [0, 1]], [[2, 1], [0, 2]], "lex")
        payload = cli_payload(call, self.tmp)
        checks.check(call, payload)
        wrong = copy.deepcopy(payload)
        wrong["K0"]["torsion"] = [3, 2]
        self.assertRejects(call, wrong)

    def test_subshift(self):
        call = call_for("subshift", [[2]], [[3]], "exchange", rows=3, cols=3)
        checks.check(call, {"command": "subshift", "rows": 3, "cols": 3, "count": 216})
        self.assertRejects(call, {"command": "subshift", "rows": 3, "cols": 3, "count": 215})
        call = call_for("subshift", FIB, FIB, "lex", rows=3, cols=3)
        checks.check(call, {"command": "subshift", "rows": 3, "cols": 3, "count": 34})
        self.assertRejects(call, {"command": "subshift", "rows": 3, "cols": 3, "count": 33})

    def test_subshift_seeded_and_listing(self):
        call = call_for("subshift", [[1, 1], [0, 1]], [[2, 1], [0, 2]], "lex", rows=2, cols=3, limit=4)
        payload = cli_payload(call, self.tmp)
        checks.check(call, payload)
        wrong = copy.deepcopy(payload)
        wrong["count"] += 1
        self.assertRejects(call, wrong)
        wrong = copy.deepcopy(payload)
        wrong["patches"][0] = wrong["patches"][1]
        self.assertRejects(call, wrong)

    def test_verify(self):
        call = call_for("verify", [[1]], [[2]], "lex", level=4)
        payload = cli_payload(call, self.tmp)
        checks.check(call, payload)
        self.assertEqual(sum(len(r["identities"]) for r in payload["reports"]), 36)
        wrong = copy.deepcopy(payload)
        wrong["reports"][1]["identities"][0]["status"] = "fail"
        self.assertRejects(call, wrong)
        wrong = copy.deepcopy(payload)
        del wrong["reports"][2]["identities"][-1]
        self.assertRejects(call, wrong)
        wrong = copy.deepcopy(payload)
        skipped = [c for c in wrong["reports"][0]["identities"] if c["status"] == "skipped"]
        del skipped[0]["notice"]
        self.assertRejects(call, wrong)

    def test_level_sizes(self):
        call = call_for("verify", [[2]], [[3]], "exchange", level=4)
        checks.check_level_sizes(call, [5, 6, 30, 150, 750])
        with self.assertRaises(checks.CheckFailed):
            checks.check_level_sizes(call, [5, 6, 30, 150, 749])

    def test_kappa_and_tiles(self):
        call = call_for("kappa", FIB, FIB, "lex", limit=10)
        payload = cli_payload(call, self.tmp)
        checks.check(call, payload)
        self.assertEqual(payload["count"], 2)  # (A.B) = [[2,1],[1,1]]: 2! * 1 * 1 * 1
        wrong = copy.deepcopy(payload)
        wrong["count"] = 3
        self.assertRejects(call, wrong)
        wrong = copy.deepcopy(payload)
        wrong["specifications"].reverse()
        self.assertRejects(call, wrong)
        call = call_for("tiles", FIB, FIB, "lex")
        payload = cli_payload(call, self.tmp)
        checks.check(call, payload)
        wrong = copy.deepcopy(payload)
        wrong["tiles"][0]["bottom"] = wrong["tiles"][1]["bottom"]
        self.assertRejects(call, wrong)


class WorkloadTests(unittest.TestCase):
    def test_seeded_inputs_repeat(self):
        for name, builder in workloads.BUILDERS.items():
            docs = workloads.bundled(ROOT)
            first = [(c.doc.a, c.doc.b) for c in builder(7, docs).light]
            again = [(c.doc.a, c.doc.b) for c in builder(7, docs).light]
            self.assertEqual(first, again, name)

    def test_draws_respect_caps(self):
        for seed in range(5):
            for doc in workloads.draw_docs(seed, "verify", workloads.VERIFY_WORD_SLOTS, 3,
                                           workloads._verify_accept):
                self.assertLessEqual(len(doc.model.tiles), 4)
                self.assertEqual(oracle.mat_mul(doc.a, doc.b), oracle.mat_mul(doc.b, doc.a))
            for doc in workloads.draw_docs(seed, "analyze", workloads.ANALYZE_CORNER_SLOTS, 3,
                                           workloads._analyze_accept):
                self.assertLessEqual(len(doc.model.omega), 12)


class TimeLimitTests(unittest.TestCase):
    def test_stops_and_recovers(self):
        start = time.perf_counter()
        with self.assertRaises(run.TimeLimit):
            with run.time_limit(0.05):
                while True:
                    pass
        self.assertLess(time.perf_counter() - start, 1.0)
        with run.time_limit(1.0):
            self.assertEqual(sum(range(10)), 45)


class TimerTests(unittest.TestCase):
    class FixedReference:
        def __init__(self, times):
            self.times = iter(times)

        def seconds(self):
            return next(self.times)

    def test_scales_by_the_reference_around_each_operation(self):
        ref_s = run.REFERENCE_MS / 1000.0
        # the reference reads 2, 2 and 8 times REFERENCE_MS: the first
        # operation is scaled by 1/2, the second by 1/sqrt(2 * 8) = 1/4
        timer = run.Timer(self.FixedReference([2 * ref_s, 2 * ref_s, 8 * ref_s]))
        timer.add(1.0)
        timer.add(3.0)
        self.assertAlmostEqual(timer.raw, 4.0)
        self.assertAlmostEqual(timer.scaled, 1.0 / 2 + 3.0 / 4)

    def test_reference_is_repeatable(self):
        reference = run.Reference()
        self.assertGreater(reference.seconds(), 0.0)
        self.assertEqual(reference.fibonacci.count_rectangles(7, 7), oracle.fibonacci(17))


if __name__ == "__main__":
    unittest.main()
