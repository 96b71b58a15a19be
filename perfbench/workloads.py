"""Workload inputs: fixed heavy lists, seeded light draws, and their documents.

A workload is a heavy pass and a light pass, each a fixed list of CLI
calls.  Heavy passes use only fixed inputs, so their cost does not depend on
the seed.  Light passes mix the bundled inputs with seeded draws; each draw
fills a *slot* that fixes its size class (by tiles, corner pairs or
word-space size, computed by the benchmark's own model), so that every seed
draws inputs of about the same cost and none can draw a heavy input into a
light pass.

Seeded pairs are two polynomials in one random nonnegative matrix, so they
commute by construction.  The documents are written as JSON files that the
CLI reads, under a run directory of the benchmark.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from functools import cached_property

import oracle

FIB = [[1, 1], [1, 0]]
BUNDLED = ("exchange-2x3", "fibonacci", "one-tile")
MAX_DRAWS = 200_000
# the [[6]] x [[7]] exchange pair; analyze on it is the time-limited attempt
ATTEMPT_P = 6


@dataclass
class Doc:
    """One input document and the benchmark's model of it."""

    name: str
    a: list
    b: list
    kappa: str
    path: str = ""

    @cached_property
    def model(self) -> oracle.Model:
        return oracle.Model(self.a, self.b, self.kappa)

    @property
    def exchange(self) -> tuple[int, int] | None:
        """(p, q) when this is the exchange pairing of [[p]] x [[q]]."""
        if self.kappa == "exchange":
            return self.a[0][0], self.b[0][0]
        return None

    @property
    def fibonacci_lex(self) -> bool:
        return self.kappa == "lex" and self.a == FIB and self.b == FIB


@dataclass
class Call:
    """One CLI call: subcommand, document and options."""

    command: str
    doc: Doc
    options: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        out = [self.command, self.doc.path]
        for key, value in self.options.items():
            out += [f"--{key}", str(value)]
        return out + ["--format", "json"]

    def label(self) -> str:
        opts = " ".join(f"{k}={v}" for k, v in self.options.items())
        return f"{self.command} {self.doc.name} {opts}".strip()


@dataclass
class Workload:
    name: str
    heavy: list[Call]
    light: list[Call]
    attempt: Call | None = None

    def docs(self) -> list[Doc]:
        seen = {}
        calls = self.heavy + self.light + ([self.attempt] if self.attempt else [])
        for call in calls:
            seen[id(call.doc)] = call.doc
        return list(seen.values())


def _poly(rng: random.Random, base, n: int):
    coeffs = [rng.randint(0, 2) for _ in range(3)]
    if not any(coeffs):
        coeffs[rng.randrange(3)] = 1
    square = oracle.mat_mul(base, base)
    return [
        [coeffs[0] * (i == j) + coeffs[1] * base[i][j] + coeffs[2] * square[i][j] for j in range(n)]
        for i in range(n)
    ]


def draw_pair(rng: random.Random, max_vertices: int):
    """A commuting pair: two polynomials of degree <= 2 in one random 0..2 matrix."""
    n = rng.randint(1, max_vertices)
    base = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
    return _poly(rng, base, n), _poly(rng, base, n)


def draw_docs(seed: int, stream: str, slots, max_vertices: int, accept) -> list[Doc]:
    """One lex document per slot; ``accept(a, b, slot)`` filters the draws.

    The stream name keeps the draws of different workloads independent.
    """
    rng = random.Random(f"{stream}:{seed}")
    docs = []
    for k, slot in enumerate(slots):
        for _ in range(MAX_DRAWS):
            a, b = draw_pair(rng, max_vertices)
            if oracle.total(oracle.mat_mul(a, b)) and accept(a, b, slot):
                docs.append(Doc(f"{stream}-{k}", a, b, "lex"))
                break
        else:
            raise RuntimeError(f"no {stream} draw fits slot {slot!r} in {MAX_DRAWS} tries")
    return docs


def bundled(root: str) -> dict[str, Doc]:
    """The program's own input documents, read from ``inputs/``."""
    docs = {}
    for name in BUNDLED:
        path = os.path.join(root, "inputs", f"{name}.json")
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        docs[name] = Doc(name, raw["A"], raw["B"], raw.get("kappa", "lex"), path)
    return docs


def exchange(p: int, q: int) -> Doc:
    return Doc(f"exchange-{p}x{q}", [[p]], [[q]], "exchange")


# verify: word-space size at level 4 (all levels) per slot, at most 4 tiles
VERIFY_WORD_SLOTS = [(80, 90), (80, 90), (160, 170), (160, 170)]


def _verify_accept(a, b, slot):
    ab = oracle.mat_mul(a, b)
    if oracle.total(ab) > 4:
        return False
    words = sum(oracle.Model(a, b).level_sizes(4))
    return slot[0] <= words <= slot[1]


# analyze: corner pairs per slot, at most 3 vertices, blocks of at most 4
# composable pairs so that listing ten specifications stays cheap
ANALYZE_CORNER_SLOTS = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]


def _analyze_accept(a, b, slot):
    if max(max(row) for row in oracle.mat_mul(a, b)) > 4:
        return False
    if oracle.corner_bound(a, b) > slot[1]:
        return False
    return slot[0] <= len(oracle.Model(a, b).omega) <= slot[1]


# patch-count: at most 6 tiles, and the patches over all light shapes per
# slot; the program re-counts patches of <= 9 cells by brute force, whose
# cost follows that number
PATCH_COUNT_SLOTS = [(10, 60), (100, 250), (400, 700)]
PATCH_SHAPES = [(3, 3), (2, 4), (1, 9)]


def _patch_accept(a, b, slot):
    if oracle.total(oracle.mat_mul(a, b)) > 6:
        return False
    model = oracle.Model(a, b)
    return slot[0] <= sum(model.count_rectangles(h, w) for h, w in PATCH_SHAPES) <= slot[1]


def verify_suites(seed: int, docs: dict) -> Workload:
    heavy = [
        Call("verify", docs["exchange-2x3"], {"level": 4}),
        Call("verify", docs["fibonacci"], {"level": 5}),
    ]
    light = [Call("verify", docs["one-tile"], {"level": 6})]
    for doc in draw_docs(seed, "verify", VERIFY_WORD_SLOTS, 3, _verify_accept):
        light.append(Call("verify", doc, {"level": 4}))
    return Workload("verify-suites", heavy, light)


def analyze_sweep(seed: int, docs: dict) -> Workload:
    heavy = [Call("analyze", exchange(p, p + 1)) for p in (3, 4, 5)]
    light = []
    systems = list(docs.values())
    systems += draw_docs(seed, "analyze", ANALYZE_CORNER_SLOTS, 3, _analyze_accept)
    for doc in systems:
        light.append(Call("analyze", doc))
        light.append(Call("kappa", doc, {"limit": 10}))
        light.append(Call("tiles", doc))
    attempt = Call("analyze", exchange(ATTEMPT_P, ATTEMPT_P + 1))
    return Workload("analyze-sweep", heavy, light, attempt)


def patch_count(seed: int, docs: dict) -> Workload:
    ex34 = exchange(3, 4)
    heavy = [
        Call("subshift", ex34, {"rows": 6, "cols": 6}),
        Call("subshift", ex34, {"rows": 3, "cols": 7}),
        Call("subshift", docs["fibonacci"], {"rows": 8, "cols": 8}),
        Call("subshift", docs["fibonacci"], {"rows": 10, "cols": 6}),
        Call("subshift", docs["exchange-2x3"], {"rows": 8, "cols": 8}),
    ]
    seeded = draw_docs(seed, "patch", PATCH_COUNT_SLOTS, 3, _patch_accept)
    light = []
    for doc in list(docs.values()) + seeded:
        for rows, cols in PATCH_SHAPES:
            light.append(Call("subshift", doc, {"rows": rows, "cols": cols}))
    for doc in [docs["exchange-2x3"], docs["fibonacci"], seeded[-1]]:
        light.append(Call("subshift", doc, {"rows": 2, "cols": 3, "limit": 5}))
    return Workload("patch-count", heavy, light)


BUILDERS = {
    "verify-suites": verify_suites,
    "analyze-sweep": analyze_sweep,
    "patch-count": patch_count,
}


def draw(name: str, seed: int, root: str) -> Workload:
    """The workload's calls, with the seeded documents drawn but not written."""
    return BUILDERS[name](seed, bundled(root))


def write(workload: Workload, run_dir: str) -> None:
    """Write every generated document of the workload under run_dir."""
    os.makedirs(run_dir, exist_ok=True)
    for doc in workload.docs():
        if doc.path:
            continue
        doc.path = os.path.join(run_dir, f"{workload.name}-{doc.name}.json")
        with open(doc.path, "w", encoding="utf-8") as handle:
            json.dump({"A": doc.a, "B": doc.b, "kappa": doc.kappa}, handle)


def build(name: str, seed: int, root: str, run_dir: str) -> Workload:
    """Draw the workload's inputs and write every generated document under run_dir."""
    workload = draw(name, seed, root)
    write(workload, run_dir)
    return workload
