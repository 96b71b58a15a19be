import enum
import errno
import json
import sys
from pathlib import Path

import pytest

import quadtex as q
from quadtex.cli import _dumps, _load_input, build_parser, main
from conftest import FIB

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def write_input(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture()
def exchange_input(write_input):
    return write_input("exchange.json", {"A": [[2]], "B": [[3]], "kappa": "exchange"})


@pytest.fixture()
def fib_input(write_input):
    return write_input("fib.json", {"A": FIB, "B": FIB, "kappa": "lex"})


def test_analyze_exchange_pair(exchange_input, capsys):
    assert main(["analyze", exchange_input]) == 0
    out = capsys.readouterr().out
    assert "K0 = Z/8Z, K1 = 0" in out
    assert "n = 6" in out


def test_analyze_prints_its_warnings(write_input, capsys):
    path = write_input("dead-end.json", {"A": [[0, 1], [0, 0]], "B": [[1, 1], [0, 1]]})
    assert main(["analyze", path]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning: ")]
    assert warnings == [
        "warning: layer A is not essential (some vertex has no incoming edge)",
        "warning: edges without a tile over them: B:1->2#1, B:2->2#1",
    ]


def test_analyze_non_commuting(write_input, capsys):
    path = write_input("bad.json", {"A": [[1, 1], [0, 1]], "B": [[1, 0], [1, 1]]})
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "do not commute" in err and "(1,1)" in err


def test_analyze_fibonacci_json(fib_input, capsys):
    assert main(["analyze", fib_input, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert payload["K0"] == {"torsion": [5], "free_rank": 0}
    assert payload["K1"] == {"free_rank": 0}
    assert payload["cross_check"] == "ok"


def test_json_reports_round_trip(exchange_input, capsys):
    assert main(["analyze", exchange_input, "--format", "json"]) == 0
    text = capsys.readouterr().out.rstrip("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_text_and_json_agree(fib_input, capsys):
    assert main(["analyze", fib_input, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["analyze", fib_input]) == 0
    text = capsys.readouterr().out
    assert f"K0 = {payload['K0_text']}, K1 = {payload['K1_text']}" in text
    assert f"n = {payload['n']}" in text


def test_verify_exchange_pair(exchange_input, capsys):
    assert main(["verify", exchange_input, "--level", "4"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out


def test_verify_too_shallow(write_input, capsys):
    path = write_input("one.json", {"A": [[1]], "B": [[1]]})
    assert main(["verify", path, "--level", "3"]) == 2
    assert "max_level >= 4" in capsys.readouterr().err


def test_verify_names_skipped_identities(write_input, capsys):
    path = write_input("one.json", {"A": [[1]], "B": [[1]]})
    assert main(["verify", path, "--level", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    word_report = payload["reports"][0]
    skipped = [
        c["identity_id"] for c in word_report["identities"] if c["status"] == "skipped"
    ]
    assert skipped == ["tile_word_commutation"]
    assert payload["passed"] is True


def test_verify_runs_deep_identity_at_level_six(write_input, capsys):
    path = write_input("one.json", {"A": [[1]], "B": [[1]]})
    assert main(["verify", path, "--level", "6", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    checks = {c["identity_id"]: c for c in payload["reports"][0]["identities"]}
    assert checks["tile_word_commutation"]["status"] == "pass"


def test_kappa_command(exchange_input, capsys):
    assert main(["kappa", exchange_input, "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("720 specifications")
    listed = [line for line in out.splitlines() if line.lstrip().startswith("#")]
    assert len(listed) == 3
    # a limit past sys.maxsize lists every specification, as one of 720 does
    assert main(["kappa", exchange_input, "--limit", "720"]) == 0
    every = capsys.readouterr().out
    assert main(["kappa", exchange_input, "--limit", str(2**63)]) == 0
    assert capsys.readouterr().out == every and every.count("\n  #") == 720


def test_kappa_builds_the_sigma_block_table_once(fib_input, capsys, monkeypatch):
    from quadtex import textile

    calls = []
    real = textile._layers

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(textile, "_layers", counted)
    assert main(["kappa", fib_input, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["listed"] == 2
    assert len(calls) == 1


class _Text(str):
    """A str subclass: not a plain str to ``_dumps``, a string to json."""


class _Bit(enum.IntEnum):
    """IntEnum entries: ints to ``bytes``, but not plain ints to ``_dumps``."""

    OFF = 0
    ON = 1


def test_dumps_is_json_dumps_with_indent_two():
    values = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(GOLDEN.glob("*.json"))]
    assert len(values) > 20
    values += [
        [],
        {},
        [[], [[]], {}],
        {"a": [], "b": {}, "c": [{}], "d": {"e": []}},
        [1, True, 2, False],
        [True, False],
        None,
        [None, 1],
        {"none": None},
        2**64 + 1,
        -(2**70),
        [3, -(2**80), 0, -1],
        'tab\t "quote" back\\slash \u0000 caf\u00e9 \u2603 \U0001d11e',
        {"\u00fc": "\u00df", "line\nbreak": 1, "a": 0},
        (1, 2),
        [(1, ("a", 2.5)), ()],
        1.5,
        [0.1, -2.0, 1e300, float("inf"), float("nan")],
        ["a", "b\n", "caf\u00e9", ""],
        ("x",),
        [_Text("sub"), "plain"],
        [_Text("only")],
        ["a", 1, True],
        [1, "a"],
        [True, "a", None],
        [["a", "b"], [1, 2], ["c", 3]],
    ]
    # the digit path of an all-int row (0-9), and every row it must pass on
    values += [
        list(range(10)),
        [[0, 1, 9], [9, 8, 7, 0], [5]],
        [[0] * 12, [1] * 12],
        [[1, 10, 0], [255, 256], [-1, 0, 1], [2**70, 3]],
        [10],
        [256],
        [-1],
        [2**70],
        [0, 1, True],
        [False, 0, 1],
        [[1, 0], [True, 0]],
        [_Bit.ON, _Bit.OFF],
        [0, _Bit.ON, 1],
        [(0, 1), (1, 0, 9)],
        (0, 1, 2),
        [[7], [0], [3]],
        [1],
        [[0, 1], [1], [], [1, 2, 3]],
        [[], [], []],
    ]
    for value in values:
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


class _Writes:
    """A stdout that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


INPUTS = sorted((Path(__file__).resolve().parents[1] / "inputs").glob("*.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["verify", "--level", "5"],
        ["kappa", "--limit", "10"],
        ["tiles"],
        ["subshift", "--rows", "2", "--cols", "3", "--limit", "5"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("path", INPUTS, ids=lambda path: path.stem)
def test_streamed_json_is_json_dumps_of_the_payload(argv, path, capsys):
    argv = [argv[0], str(path), *argv[1:], "--format", "json"]
    args = build_parser().parse_args(argv)
    payload, _ = args.func(args, _load_input(args.input, args.kappa))
    payload["command"] = args.command
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_analyze_writes_its_json_one_row_at_a_time(write_input, monkeypatch):
    path = write_input("exchange-10x11.json", {"A": [[10]], "B": [[11]], "kappa": "exchange"})
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["analyze", path, "--format", "json"]) == 0
    h_kappa = json.loads("".join(out.writes))["H_kappa"]
    assert len(h_kappa) == 220
    # one row of H_kappa as the document lays it out: its separator and its text
    row = ",\n    " + _dumps(h_kappa[0], "\n    ")
    assert max(map(len, out.writes)) <= len(row)
    assert len(out.writes) > 2 * len(h_kappa)  # A, B, H and omega write a row each


class _FullDisk:
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("form", ["json", "text"])
def test_a_failed_stdout_write_exits_two(exchange_input, capsys, monkeypatch, form):
    monkeypatch.setattr(sys, "stdout", _FullDisk())
    assert main(["analyze", exchange_input, "--format", form]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_tiles_command(write_input, capsys):
    path = write_input("one.json", {"A": [[1]], "B": [[1]]})
    assert main(["tiles", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 tiles")


def test_tiles_emit_wang(fib_input, capsys, tmp_path):
    assert main(["tiles", fib_input, "--emit", "wang"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 5
    assert set(records[0]) == {"id", "top", "right", "left", "bottom", "vertex"}

    out_file = tmp_path / "tiles.json"
    assert main(["tiles", fib_input, "--emit", "wang", "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text()) == records


def test_tiles_out_without_emit_wang_is_refused(fib_input, capsys, tmp_path):
    out_file = tmp_path / "tiles.json"
    assert main(["tiles", fib_input, "--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--emit wang" in captured.err
    assert not out_file.exists()


def test_tiles_emit_wang_to_an_empty_path_is_refused(fib_input, capsys):
    # an empty --out is a path that cannot be opened, not a missing --out
    assert main(["tiles", fib_input, "--emit", "wang", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_subshift_command(exchange_input, capsys):
    assert main(["subshift", exchange_input, "--rows", "1", "--cols", "2"]) == 0
    assert "1x2 patches: 12" in capsys.readouterr().out


def test_subshift_lists_patches_as_text(exchange_input, capsys):
    assert main(["subshift", exchange_input, "--rows", "2", "--cols", "2", "--limit", "2"]) == 0
    assert capsys.readouterr().out == "2x2 patches: 36\n  0 0; 0 0\n  0 0; 1 1\n"
    # a limit past sys.maxsize lists every patch, as one of 36 does
    assert main(["subshift", exchange_input, "--rows", "2", "--cols", "2", "--limit", "36"]) == 0
    every = capsys.readouterr().out
    assert main(["subshift", exchange_input, "--rows", "2", "--cols", "2", "--limit", str(2**63)]) == 0
    assert capsys.readouterr().out == every and every.count("\n") == 37


def test_subshift_rows_must_be_positive(exchange_input, capsys):
    assert main(["subshift", exchange_input, "--rows", "0", "--cols", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: rectangle sides must be positive\n")


def test_subshift_counts_strips_of_any_width(exchange_input, capsys):
    # 6 * 2**29 rows of width 30, counted without building one
    assert main(["subshift", exchange_input, "--rows", "1", "--cols", "30"]) == 0
    assert capsys.readouterr().out == "1x30 patches: 3221225472\n"


def test_subshift_refuses_a_count_past_the_printable_digits(write_input, capsys, digit_limit):
    # 10^h patches: printed up to 4,300 digits, refused from 4,301
    digit_limit(4300)
    path = write_input("ten.json", {"A": [[1]], "B": [[10]]})
    assert main(["subshift", path, "--rows", "4299", "--cols", "1"]) == 0
    assert capsys.readouterr().out == "4299x1 patches: 1" + "0" * 4299 + "\n"
    for rows in ("4300", "1000000000"):  # held at 10^4300, so at once
        assert main(["subshift", path, "--rows", rows, "--cols", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the count of {rows}x1 patches has more than 4300 digits, "
            "the limit of sys.get_int_max_str_digits()\n"
        )


def test_kappa_refuses_a_count_past_the_printable_digits(write_input, capsys, digit_limit):
    # 2000! has 5,736 digits
    digit_limit(4300)
    path = write_input("wide.json", {"A": [[1]], "B": [[2000]]})
    assert main(["kappa", path, "--limit", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the count of specifications has more than 4300 digits, "
        "the limit of sys.get_int_max_str_digits()\n"
    )


def test_subshift_has_no_cap_option(exchange_input, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["subshift", exchange_input, "--rows", "2", "--cols", "2", "--cap", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --cap 5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["subshift", "--rows", "2", "--cols", "2", "--limit", "-1"],
        ["kappa", "--limit", "-2"],
    ],
    ids=["subshift-limit", "kappa-limit"],
)
def test_negative_counts_rejected_at_parse_time(args, exchange_input, capsys):
    command, *options = args
    with pytest.raises(SystemExit) as exc:
        main([command, exchange_input, *options])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be nonnegative" in captured.err
    assert captured.out == ""


def test_zero_counts_accepted(exchange_input, capsys):
    assert main(["kappa", exchange_input, "--limit", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["listed"] == 0
    code = main(["subshift", exchange_input, "--rows", "1", "--cols", "2", "--limit", "0", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"command": "subshift", "rows": 1, "cols": 2, "count": 12}


def test_explicit_kappa_from_document(write_input, capsys):
    fib = q.IntMatrix.from_rows(FIB)
    second = list(q.enumerate_kappas(fib, fib))[1]
    listing = [
        [[pre[0].id, pre[1].id], [img[0].id, img[1].id]] for pre, img in second.pairs
    ]
    path = write_input("alt.json", {"A": FIB, "B": FIB, "kappa": listing})
    assert main(["analyze", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert payload["K0"] == {"torsion": [2, 10], "free_rank": 0}
    assert main(["analyze", path, "--kappa", "explicit", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == payload


@pytest.mark.parametrize("kappa", [None, "lex", "exchange", "explicit"])
def test_explicit_flag_needs_a_pair_list(write_input, capsys, kappa):
    doc = {"A": [[2]], "B": [[3]]} if kappa is None else {"A": [[2]], "B": [[3]], "kappa": kappa}
    path = write_input("y.json", doc)
    assert main(["tiles", path, "--kappa", "explicit"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert 'error: kappa "explicit" needs a pair list in the input document' in captured.err


def test_kappa_override_flag(write_input, capsys):
    path = write_input("plain.json", {"A": [[2]], "B": [[3]]})
    assert main(["analyze", path, "--kappa", "exchange"]) == 0
    assert "K0 = Z/8Z" in capsys.readouterr().out


def test_verify_json_round_trips(exchange_input, capsys):
    assert main(["verify", exchange_input, "--format", "json"]) == 0
    text = capsys.readouterr().out.rstrip("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_basis_cap_env_override(exchange_input, capsys, monkeypatch):
    monkeypatch.setenv("QUADTEX_BASIS_CAP", "100")
    assert main(["verify", exchange_input, "--level", "4"]) == 2
    assert "cap 100" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-1", ""])
def test_basis_cap_env_override_must_be_a_nonnegative_integer(exchange_input, capsys, monkeypatch, value):
    # refused by name, not as an int() error or as a cap that refuses every input
    monkeypatch.setenv("QUADTEX_BASIS_CAP", value)
    assert main(["verify", exchange_input, "--level", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: QUADTEX_BASIS_CAP must be a nonnegative integer, got {value!r}\n"


def test_basis_cap_refuses_a_thousand_tiles_at_once(write_input, capsys):
    # level 2 of 1,001 tiles is counted, not built: the refusal is immediate
    path = write_input("thousand.json", {"A": [[1]], "B": [[1001]]})
    assert main(["verify", path, "--level", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level 2 would hold 1003002 words (cap 1000000)\n"


def test_missing_file_and_bad_json(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "broken.json"
    deep = '{"A": ' + "[" * 100_000 + "]" * 100_000 + ', "B": [[1]]}'
    for text in ("{not json", deep):
        bad.write_text(text)
        assert main(["analyze", str(bad)]) == 2
    # json reads nested arrays by recursion: past its depth, one line, not a traceback
    assert capsys.readouterr().err.splitlines()[-1] == "error: input document nests too deeply to read"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"A": [[None]], "B": [[1]]}, "entry None"),
        ({"A": 5, "B": [[1]]}, "list of rows"),
        ("AB", '"A" and "B"'),
        ({"A": [[True]], "B": [[1]]}, "entry True"),
        ({"A": [[1.0]], "B": [[1]]}, "entry 1.0"),
        ({"A": [[1]], "B": [[1]], "kappa": [1]}, "explicit pairing"),
        (
            {"A": FIB, "B": FIB, "kappa": [[["A:1->2#1", "B:1->1#1"], ["B:1->1#1", "A:1->1#1"]]]},
            "domain pair not composable",
        ),
        (
            {"A": FIB, "B": FIB, "kappa": [[["A:1->1#1", "B:1->1#1"], ["B:1->2#1", "A:1->1#1"]]]},
            "image pair not composable",
        ),
        ({"A": [[1]], "B": [[1]], "kappa": "spiral"}, "unknown strategy 'spiral'"),
        ({"A": [[1]], "B": [[1, 0], [0, 1]]}, "size mismatch: 1 vs 2"),
        (
            {"A": [[1]], "B": [[1]], "kappa": [[["A:1->1#1", "B:1->1#1"], ["B:1->1#1", "A:1->1#1"]]] * 2},
            "pairing of 2 entries covers 1/1 domain pairs and 1/1 image pairs",
        ),
    ],
)
def test_malformed_documents_exit_two(write_input, capsys, doc, message):
    path = write_input("bad.json", doc)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_kappa_limit_one_on_sixteen_factorial(write_input, capsys):
    path = write_input("four.json", {"A": [[4]], "B": [[4]]})
    assert main(["kappa", path, "--limit", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 20922789888000
    assert payload["listed"] == 1
    lex = q.build_system([[4]], [[4]], "lex").kappa
    assert payload["specifications"][0] == [
        [[pre[0].id, pre[1].id], [img[0].id, img[1].id]] for pre, img in lex.pairs
    ]


def test_internal_cross_check_maps_to_exit_three(exchange_input, capsys, monkeypatch):
    from quadtex import ktheory
    from quadtex.errors import CrossCheckFailure

    def explode(ts):
        raise CrossCheckFailure("forced disagreement")

    monkeypatch.setattr(ktheory, "analyze_system", explode)
    assert main(["analyze", exchange_input]) == 3
    assert "cross-check" in capsys.readouterr().err


def test_a_perturbed_edge_matrix_fails_the_cross_check(exchange_input, capsys, monkeypatch):
    from quadtex import ktheory

    real = ktheory.edge_matrix

    def perturbed(ts):
        m = real(ts)
        m[0][0] += 1
        return m

    monkeypatch.setattr(ktheory, "edge_matrix", perturbed)
    assert main(["analyze", exchange_input]) == 3
    err = capsys.readouterr().err
    assert "internal cross-check failure" in err
    assert "edge matrix" in err and "block stack" in err


def _run_fresh(*lines):
    """Run a script in a fresh interpreter that sees only the package."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    package_root = str(Path(q.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


SHARED_LAYERS = {"quadtex", "quadtex.cli", "quadtex.errors", "quadtex.textile"}
# analyze_system reads its two warnings off the system itself
ANALYZE_LAYERS = {"quadtex.ktheory"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["subshift", "--rows", "2", "--cols", "2", "--limit", "3"], {"quadtex.subshift"}),
        (["tiles"], set()),
        (["kappa"], set()),
        (["analyze"], ANALYZE_LAYERS),
        (["verify", "--level", "4"], {"quadtex.algebra", "quadtex.fock"}),
    ],
    ids=["subshift", "tiles", "kappa", "analyze", "verify"],
)
def test_each_subcommand_loads_only_its_layers(exchange_input, argv, extra):
    argv = [argv[0], exchange_input, *argv[1:], "--format", "json"]
    out = _run_fresh(
        "import sys",
        "started = set(sys.modules)  # a site hook may import stdlib modules first",
        "import contextlib, io, json",
        "from quadtex.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert main({argv!r}) == 0",
        "layers = [m for m in sys.modules if m.split('.')[0] == 'quadtex']",
        "print(json.dumps([layers, [m for m in ('dataclasses', 'inspect') if m in sys.modules.keys() - started]]))",
    )
    layers, stdlib = json.loads(out)
    assert set(layers) == SHARED_LAYERS | extra
    # the value types are named tuples: no command builds a dataclass
    assert stdlib == []


def test_a_bare_import_loads_no_layer_and_resolves_every_name():
    exported = {
        "textile": [
            "IntMatrix", "Edge", "Kappa", "OmegaPair", "TextileSystem", "Tile", "build_system",
            "check_commuting", "count_specifications", "edges_from_matrix", "enumerate_kappas",
            "sigma_blocks",
        ],
        "algebra": ["DiagElem", "EdgeElem", "QuadVector"],
        "fock": ["FockWord", "SparseOp", "TruncatedFock", "fock_basis"],
        "ktheory": ["KGroups", "SNFResult", "k_theory", "smith_normal_form", "structure_checks"],
    }
    _run_fresh(
        "import sys",
        "import quadtex",
        "assert [m for m in sys.modules if m.split('.')[0] == 'quadtex'] == ['quadtex']",
        "assert set(quadtex.__all__) <= set(dir(quadtex))",
        "import pkgutil",
        "layers = [m.name for m in pkgutil.iter_modules(quadtex.__path__)]",
        "assert {'fock', 'subshift', 'cli'} < set(layers), layers",
        "for name in layers:",
        "    assert getattr(quadtex, name) is sys.modules['quadtex.' + name], name",
        "assert quadtex.fock.fock_basis and quadtex.subshift.count_rectangles",
        "names = {}",
        "exec('from quadtex import *', names)",
        f"exported = {exported!r}",
        "assert sorted(quadtex.__all__) == sorted(n for ns in exported.values() for n in ns)",
        "for module, ns in exported.items():",
        "    for name in ns:",
        "        home = sys.modules['quadtex.' + module]",
        "        assert names[name] is getattr(quadtex, name) is getattr(home, name), name",
        "assert not hasattr(quadtex, 'no_such_name')",
    )


def test_parser_is_built_once_and_survives_a_parse_error(exchange_input, capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    from quadtex.cli import build_parser

    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["kappa", exchange_input, "--limit", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["kappa", exchange_input, "--limit", "3", "--format", "json"]
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    package_root = str(Path(q.__file__).resolve().parent.parent)
    fresh = subprocess.run(
        [sys.executable, "-m", "quadtex.cli", *argv],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert fresh.stdout == in_process


def test_verify_reports_a_broken_operator_with_its_witnesses(exchange_pair, capsys, monkeypatch):
    from test_fock import DOUBLED_S_WITNESSES, _double_s

    _double_s(monkeypatch, exchange_pair)
    path = str(GOLDEN.parent.parent / "inputs" / "exchange-2x3.json")
    assert main(["verify", path, "--level", "4", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    checks = [c for r in payload["reports"] for c in r["identities"]]
    failed = [c["identity_id"] for c in checks if c["status"] == "fail"]
    # the CLI's headroom skips no identity that the doubled s breaks
    assert sorted(failed) == sorted(DOUBLED_S_WITNESSES)
    keys = ("case", "row", "col", "lhs", "rhs")
    expected = {i: dict(zip(keys, w)) for i, w in DOUBLED_S_WITNESSES.items()}
    assert {c["identity_id"]: c.get("witness") for c in checks if c["status"] == "fail"} == expected
    assert not any("witness" in c for c in checks if c["status"] != "fail")

    assert main(["verify", path, "--level", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    witnesses = [line.strip() for line in lines if line.lstrip().startswith("witness:")]
    assert witnesses == [f"witness: {expected[i]}" for i in failed]
    assert lines[-1] == "FAILURES above"
