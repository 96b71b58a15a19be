"""The bounded-run table's check fails each way a case can break.

``bench/frontier.py`` is the one runner of the CLI's bounded runs; here its
``check`` is given one tiny true case and five copies of it, each broken in
one field, so a runner that stopped comparing a field fails here.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "frontier.py"
_spec = importlib.util.spec_from_file_location("frontier", SCRIPT)
frontier = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(frontier)

# A child's ru_maxrss also counts the memory of the process that started it
# (Linux keeps the larger across exec), and a test session holds far more
# than a case does, so the checks run in a small process, as the runner does
CHECK_IN_A_SMALL_PROCESS = """
import importlib.util, json, sys, tempfile
from pathlib import Path
spec = importlib.util.spec_from_file_location("frontier", sys.argv[1])
frontier = importlib.util.module_from_spec(spec)
spec.loader.exec_module(frontier)
with tempfile.TemporaryDirectory() as tmp:
    cases = [frontier.Case(*case) for case in json.load(sys.stdin)]
    print(json.dumps([frontier.check(case, Path(tmp))[0] for case in cases]))
"""

# its output is "1x1 patches: 1\n"
TRUE = frontier.Case(
    "one tile at 1x1",
    "inputs/one-tile.json",
    "subshift --rows 1 --cols 1",
    timeout=10,
    peak_mib=100,
    sha256="60b810686ccbf7af48f19c0a1f09e1650f50150314fd5321d6c42de916b26f2d",
)
# each copy breaks one field, and the fault it must raise names it
BROKEN = [
    (TRUE._replace(sha256="0" * 64), "output sha256"),
    (TRUE._replace(sha256=None, text="1x1 patches: 2\n"), "output sha256"),
    (TRUE._replace(exit=2), "exit 0, expected 2"),
    (TRUE._replace(peak_mib=1), "bound 1 MiB"),
    (TRUE._replace(timeout=0.01), "killed at its 0.01 s timeout"),
]


def test_the_check_passes_the_true_case_and_fails_each_broken_copy():
    # six child processes, about 0.1 s each
    start = time.perf_counter()
    cases = [TRUE] + [case for case, _ in BROKEN]
    child = subprocess.run(
        [sys.executable, "-c", CHECK_IN_A_SMALL_PROCESS, str(SCRIPT)],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
        check=True,
    )
    true_faults, *broken_faults = json.loads(child.stdout)
    assert true_faults == []
    for (case, fault), faults in zip(BROKEN, broken_faults):
        assert any(fault in f for f in faults), (case, faults)
    assert time.perf_counter() - start < 2
