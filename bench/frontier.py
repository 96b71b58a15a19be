"""Bounded CLI runs at the frontier: one table of cases and one runner.

Run from any directory, with no options:

    python3 bench/frontier.py

Each case runs ``python -m quadtex.cli`` as a child process with
``PYTHONPATH=src``, from the repository root, on an input document (a path
under ``inputs/`` or a document written to a temp file), and checks:

- its exit code;
- its whole output, stdout then stderr as ``2>&1`` would join them: an
  exact text, a golden file under ``tests/golden/``, or a sha256;
- that it ends before its timeout, at which it is killed;
- optionally, that its peak RSS (``ru_maxrss`` from ``os.wait4``) stays
  under a bound.  Linux counts the peak of the process that started the
  child in that reading, so the runner's own peak, printed last, is a floor
  under every reading.

The runner prints one line per case and exits 1 if any case fails.  It
imports quadtex only through its child processes.  The measurements in the
comments were taken on a 2-core host with Python 3.11; where a bound was
set from them, it adds 40-50%, as only 3.11 was measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Case(NamedTuple):
    name: str
    doc: str | dict  # a path under the repository root, or a document
    argv: str  # the command and its options; the input path goes after the command
    timeout: float  # seconds
    peak_mib: float | None = None  # the child's peak RSS must stay under it
    exit: int = 0
    text: str | None = None  # exactly one of text, golden and sha256
    golden: str | None = None  # a file under tests/golden/
    sha256: str | None = None


def _exchange(p: int) -> dict:
    return {"A": [[p]], "B": [[p + 1]], "kappa": "exchange"}


ONE_WORD = {"A": [[1, 1], [0, 1]], "B": [[0, 1], [0, 0]]}
IDENTITY_100 = [[int(r == c) for c in range(100)] for r in range(100)]

CASES = [
    # A^w and B^h are taken by repeated squaring: about log2(h) + log2(w)
    # matrix products, whatever the counts do
    Case(
        "long strip count",
        "inputs/one-tile.json",
        "subshift --rows 3 --cols 1000000000",
        timeout=20,
        text="3x1000000000 patches: 1\n",
    ),
    # 1^T A^w 1 = w + 2 on the first system, 1^T B^h 1 = h + 2 on the
    # second: no entry is held and no vector repeats.  0.06 s each (10^9
    # single steps would take about 40 min)
    Case(
        "polynomially growing columns",
        {"A": [[1, 1], [0, 1]], "B": [[1, 0], [0, 1]]},
        "subshift --rows 1 --cols 1000000000",
        timeout=10,
        text="1x1000000000 patches: 1000000002\n",
    ),
    Case(
        "polynomially growing rows",
        {"A": [[1, 0], [0, 1]], "B": [[1, 1], [0, 1]]},
        "subshift --rows 1000000000 --cols 1",
        timeout=10,
        text="1000000000x1 patches: 1000000002\n",
    ),
    # A = B = I (100 x 100): each squaring skips the zero entries, so it
    # costs n^2, not n^3.  0.14 s with no bytecode cache (0.69-0.83 s when
    # every product was dense)
    Case(
        "a count over 100 vertices",
        {"A": IDENTITY_100, "B": IDENTITY_100},
        "subshift --rows 1000 --cols 1000",
        timeout=5,
        text="1000x1000 patches: 100\n",
    ),
    # 10^h patches, held at 10^4300 (Python's default digit limit) from
    # h = 4300 on: 0.1 s
    Case(
        "a count past the printable digits refuses at once",
        {"A": [[1]], "B": [[10]]},
        "subshift --rows 1000000000 --cols 1",
        timeout=10,
        exit=2,
        text="error: the count of 1000000000x1 patches has more than 4300 digits, "
        "the limit of sys.get_int_max_str_digits()\n",
    ),
    # the cap check stops at the first empty level, as every later one is
    # empty too (0.25 s).  The sha256 pins max_level 10^9
    Case(
        "verify a tile-less system at level 10^9",
        {"A": [[0]], "B": [[1]]},
        "verify --level 1000000000 --format json",
        timeout=10,
        sha256="fc1595033ccb7e48074d16437367f2bd79a24673cb903f2353a2cf2af99273cb",
    ),
    # the cap check stops at level 2 once the vector of path counts
    # repeats, as every later level then holds as many words (0.1 s; 3.6 s
    # at level 10^6 when it walked on).  Level 10^20, past sys.maxsize,
    # answers as level 10^9 does, with its top levels moved up.  The two
    # sha256 sums pin max_level and that answer
    Case(
        "verify one word per level at level 10^9",
        ONE_WORD,
        "verify --level 1000000000 --format json",
        timeout=10,
        sha256="fc1595033ccb7e48074d16437367f2bd79a24673cb903f2353a2cf2af99273cb",
    ),
    Case(
        "verify one word per level at level 10^20",
        ONE_WORD,
        "verify --level 100000000000000000000 --format json",
        timeout=10,
        sha256="23b2bc038e32aeb004aa1078fbb5b93277e8e2a97407941b1642ebf4addc6b16",
    ),
    # verify builds its basis only as deep as the compared columns reach
    # (level 4 here and from level 5 on).  Peaks with no bytecode cache:
    # 19.4 MiB at levels 6, 7 and 8 (0.2 s each)
    Case(
        "verify exchange-2x3 at level 6",
        "inputs/exchange-2x3.json",
        "verify --level 6 --format json",
        timeout=60,
        peak_mib=30,
        golden="verify-exchange-2x3-l6.json",
    ),
    Case(
        "verify exchange-2x3 at level 7",
        "inputs/exchange-2x3.json",
        "verify --level 7 --format json",
        timeout=60,
        peak_mib=30,
        golden="verify-exchange-2x3-l7.json",
    ),
    # the whole basis of level 8 holds 585,941 words (16.8 s and 1,001 MiB
    # when verify built it); the one verify builds holds 941
    Case(
        "verify exchange-2x3 at level 8",
        "inputs/exchange-2x3.json",
        "verify --level 8 --format json",
        timeout=10,
        peak_mib=30,
        golden="verify-exchange-2x3-l8.json",
    ),
    Case(
        "verify fibonacci at level 7",
        "inputs/fibonacci.json",
        "verify --level 7 --format json",
        timeout=30,
        peak_mib=36,
        golden="verify-fibonacci-l7.json",
    ),
    # several tiles per edge: 12 tiles.  Peak 24.3 MiB with no bytecode
    # cache (0.2 s).  A passing report prints no system data, so it equals
    # exchange 2x3's
    Case(
        "verify exchange [[3]]x[[4]] at level 5",
        _exchange(3),
        "verify --level 5 --format json",
        timeout=30,
        peak_mib=36,
        golden="verify-exchange-2x3-l5.json",
    ),
    # 20 tiles; verify builds levels <= 3 (1,829 words).  Peak 21.3 MiB with
    # no bytecode cache (0.2 s)
    Case(
        "verify exchange [[4]]x[[5]] at level 4",
        _exchange(4),
        "verify --level 4 --format json",
        timeout=30,
        peak_mib=32,
        golden="verify-exchange-2x3-l4.json",
    ),
    # the cap is checked on counted level sizes, before any word is built;
    # this message also keeps the cap check ahead of any depth error
    Case(
        "verify refuses 1,001 tiles at level 2",
        {"A": [[1]], "B": [[1001]]},
        "verify --level 2",
        timeout=10,
        peak_mib=40,
        exit=2,
        text="error: level 2 would hold 1003002 words (cap 1000000)\n",
    ),
    # each report is planned at the level asked for before any basis or
    # bank is built.  With no bytecode cache, [[300]] x [[300]] at level 1
    # exits 2 in 0.63-0.65 s at 64.6 MiB peak, all of it build_system (94.5 s
    # and 201.4 MiB when the whole bank came first); exchange [[12]]x[[13]]
    # at level 3 in 0.10-0.24 s at 18.4 MiB (2.3 s and 145.8 MiB)
    Case(
        "verify refuses [[300]]x[[300]] at level 1 before it builds",
        {"A": [[300]], "B": [[300]]},
        "verify --level 1",
        timeout=5,
        peak_mib=94,
        exit=2,
        text="error: the identity suite needs max_level >= 3\n",
    ),
    Case(
        "verify refuses exchange [[12]]x[[13]] at level 3 before it builds",
        _exchange(12),
        "verify --level 3",
        timeout=2,
        peak_mib=27,
        exit=2,
        text="error: the relation suite needs max_level >= 4\n",
    ),
    # 0.18-0.30 s and 24.9-25.1 MiB peak with no bytecode cache, the JSON
    # written one row at a time.  The sha256 of the whole 6.3 MB output
    # pins K0 = Z/17 + (Z/306)^16 + Z/11016
    Case(
        "analyze exchange [[18]]x[[19]]",
        _exchange(18),
        "analyze --format json",
        timeout=5,
        peak_mib=36,
        sha256="774a27b38c478e597947f33b69777e3b2cb193f796413f445c72032a089a4a85",
    ),
    # 650 corner pairs (a 1,300 x 1,300 block stack) and a 22,879,118-byte
    # output: 0.38-0.54 s and 45.5 MiB peak with no bytecode cache, run from
    # any directory.  The peak is reached while the K-groups are computed
    # (30.0 MiB traced by tracemalloc), not while the JSON is written one
    # row at a time (20.8 MiB, the payload's dense matrices).  The sha256
    # pins K0 = Z/24 + (Z/600)^23 + Z/30000
    Case(
        "analyze exchange [[25]]x[[26]]",
        _exchange(25),
        "analyze --format json",
        timeout=10,
        peak_mib=64,
        sha256="d805a960a8a87a6d64e3a8cf3f808d6851c270ddff3fd24b9db8b7a5db8236e0",
    ),
    # 1,056 corner pairs and a 60,321,265-byte output: 0.91-1.25 s and 92.0
    # MiB peak with no bytecode cache (1.98 s and 284.1 MiB when the
    # document was built as one string).  The sha256 pins
    # K0 = Z/31 + (Z/992)^30 + Z/63488
    Case(
        "analyze exchange [[32]]x[[33]]",
        _exchange(32),
        "analyze --format json",
        timeout=20,
        peak_mib=128,
        sha256="41c67ea2dba152f394f874aac50c367357510b955a7f055482c534264c578832",
    ),
]


def _expected_sha256(case: Case) -> str:
    if case.sha256 is not None:
        return case.sha256
    if case.golden is not None:
        return hashlib.sha256((ROOT / "tests" / "golden" / case.golden).read_bytes()).hexdigest()
    return hashlib.sha256(case.text.encode()).hexdigest()


def _sha256_and_first_line(path: Path) -> tuple[str, str]:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        first = handle.readline(100)
        handle.seek(0)
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest(), first.decode(errors="replace").rstrip("\n")


def check(case: Case, tmp: Path) -> tuple[list[str], float, float]:
    """Run one case in ``tmp``: (what differs from the case, seconds, peak MiB).

    The child's peak from ``os.wait4`` also counts the peak of the process
    that calls this, as Linux keeps the larger across exec, so call it
    from a small process such as ``main``.
    """
    if isinstance(case.doc, str):
        path = ROOT / case.doc
    else:
        path = tmp / "input.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case.doc, handle)  # in chunks: json.dumps raises the runner's peak
    command, *options = case.argv.split()
    argv = [sys.executable, "-m", "quadtex.cli", command, str(path), *options]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    output = tmp / "output"
    with open(output, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, env=env)
        timer = threading.Timer(case.timeout, child.kill)
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        # a returncode tells Popen the child is reaped, so a late kill sends nothing
        child.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    peak = usage.ru_maxrss / 1024  # KiB on Linux
    faults = []
    if seconds >= case.timeout:
        faults.append(f"killed at its {case.timeout} s timeout")
    if child.returncode != case.exit:
        faults.append(f"exit {child.returncode}, expected {case.exit}")
    if case.peak_mib is not None and peak >= case.peak_mib:
        faults.append(f"peak RSS {peak:.1f} MiB, bound {case.peak_mib} MiB")
    digest, first = _sha256_and_first_line(output)
    expected = _expected_sha256(case)
    if digest != expected:
        faults.append(f"output sha256 {digest}, expected {expected}; it begins {first!r}")
    return faults, seconds, peak


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            faults, seconds, peak = check(case, Path(tmp))
            bound = "" if case.peak_mib is None else f"/{case.peak_mib}"
            line = f"{seconds:.2f}/{case.timeout} s, {peak:.1f}{bound} MiB  {case.name}"
            print("FAIL" if faults else "ok  ", line + "".join(f"\n     {f}" for f in faults), flush=True)
            failed += bool(faults)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(CASES) - failed} of {len(CASES)} cases hold; no peak reads under this runner's {own:.1f} MiB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
