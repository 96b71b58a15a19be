"""Byte-for-byte golden outputs of ``analyze --format json``.

Any refactor of the analyze path must reproduce the files under
``tests/golden/`` exactly; rewrite them only for an intended change of
output.
"""

import json
from pathlib import Path

import pytest

from quadtex.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

EXCHANGE = {
    f"exchange-{p}x{p + 1}": {"A": [[p]], "B": [[p + 1]], "kappa": "exchange"}
    for p in range(2, 6)
}
# presentations of corank 2 to 6, with and without torsion
SINGULAR = {
    "singular-1v": {"A": [[10]], "B": [[4]]},
    "singular-2v": {"A": [[0, 2], [4, 0]], "B": [[1, 2], [4, 1]]},
    "singular-3v": {
        "A": [[2, 0, 0], [4, 4, 0], [6, 3, 4]],
        "B": [[0, 0, 0], [2, 1, 0], [4, 2, 1]],
    },
}


def _analyze_json(path, capsys) -> str:
    assert main(["analyze", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "inputs").glob("*.json")))
def test_bundled_inputs_match_golden(name, capsys):
    out = _analyze_json(ROOT / "inputs" / f"{name}.json", capsys)
    assert out == (GOLDEN / f"analyze-{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(EXCHANGE) + sorted(SINGULAR))
def test_generated_inputs_match_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**EXCHANGE, **SINGULAR}[name]), encoding="utf-8")
    out = _analyze_json(path, capsys)
    assert out == (GOLDEN / f"analyze-{name}.json").read_text(encoding="utf-8")
