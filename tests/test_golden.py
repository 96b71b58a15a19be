"""Byte-for-byte golden outputs of the CLI in ``--format json``.

Any refactor must reproduce the files under ``tests/golden/`` exactly;
rewrite them only for an intended change of output.  The files cover
``analyze`` on the bundled inputs, the exchange family and singular
presentations; ``verify`` on the bundled inputs at levels 4 and 5, on
one-tile at level 6, on exchange-2x3 at levels 6 to 8 and on fibonacci at
levels 6 and 7; ``kappa``, ``tiles`` and ``subshift`` on the bundled
inputs; and ``subshift`` counts at larger sizes: exchange [[3]] x [[4]] at
6x6 and 3x7, fibonacci at 10x6 and exchange-2x3 at 8x8.  The ``verify``
files of exchange-2x3 at levels 7 and 8 were written when ``verify``
built every level of its basis (seconds and about 1 GB at level 8); it
now builds only the levels its compared columns reach.
"""

import json
from pathlib import Path

import pytest

from quadtex.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted(p.stem for p in (ROOT / "inputs").glob("*.json"))

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

# (golden file stem, subcommand arguments after the input path)
BUNDLED = (
    [
        (f"verify-{n}-l{level}", n, ["verify", "--level", str(level)])
        for n in INPUTS
        for level in (4, 5)
    ]
    + [(f"verify-{n}-l6", n, ["verify", "--level", "6"]) for n in ("exchange-2x3", "one-tile")]
    + [(f"verify-exchange-2x3-l{level}", "exchange-2x3", ["verify", "--level", str(level)]) for level in (7, 8)]
    + [(f"verify-fibonacci-l{level}", "fibonacci", ["verify", "--level", str(level)]) for level in (6, 7)]
    + [(f"kappa-{n}", n, ["kappa", "--limit", "10"]) for n in INPUTS]
    + [(f"tiles-{n}", n, ["tiles"]) for n in INPUTS]
    + [(f"subshift-{n}", n, ["subshift", "--rows", "3", "--cols", "3", "--limit", "5"]) for n in INPUTS]
    + [
        ("subshift-fibonacci-10x6", "fibonacci", ["subshift", "--rows", "10", "--cols", "6"]),
        ("subshift-exchange-2x3-8x8", "exchange-2x3", ["subshift", "--rows", "8", "--cols", "8"]),
    ]
)
# (golden file stem, generated document, subcommand arguments after the input path)
GENERATED = [
    ("subshift-exchange-3x4-6x6", "exchange-3x4", ["subshift", "--rows", "6", "--cols", "6"]),
    (
        "subshift-exchange-3x4-3x7",
        "exchange-3x4",
        ["subshift", "--rows", "3", "--cols", "7", "--limit", "5"],
    ),
]


def _json_out(argv, capsys) -> str:
    assert main(argv + ["--format", "json"]) == 0
    return capsys.readouterr().out


def _golden(stem: str) -> str:
    return (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", INPUTS)
def test_bundled_inputs_match_golden(name, capsys):
    out = _json_out(["analyze", str(ROOT / "inputs" / f"{name}.json")], capsys)
    assert out == _golden(f"analyze-{name}")


@pytest.mark.parametrize("name", sorted(EXCHANGE) + sorted(SINGULAR))
def test_generated_inputs_match_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**EXCHANGE, **SINGULAR}[name]), encoding="utf-8")
    out = _json_out(["analyze", str(path)], capsys)
    assert out == _golden(f"analyze-{name}")


@pytest.mark.parametrize("stem,name,args", BUNDLED, ids=[stem for stem, _, _ in BUNDLED])
def test_subcommands_match_golden(stem, name, args, capsys):
    command, *options = args
    out = _json_out([command, str(ROOT / "inputs" / f"{name}.json"), *options], capsys)
    assert out == _golden(stem)


@pytest.mark.parametrize("stem,name,args", GENERATED, ids=[stem for stem, _, _ in GENERATED])
def test_generated_subcommands_match_golden(stem, name, args, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(EXCHANGE[name]), encoding="utf-8")
    command, *options = args
    out = _json_out([command, str(path), *options], capsys)
    assert out == _golden(stem)
