"""Command-line entry point.

Subcommands: analyze (invariants and K-groups), verify (operator identity
suites on a truncated word basis), kappa (specification counting and
enumeration), tiles (the tile alphabet, optionally as Wang-tile JSON),
subshift (rectangle counting).  Input is a JSON document:

    {"A": [[...]], "B": [[...]], "kappa": "lex" | "exchange" | [[[...]]]}

where an explicit kappa lists [[alpha_id, b_id], [a_id, beta_id]] pairs.
Each ``cmd_*(args, ts)`` returns its payload and a text renderer; ``main``
loads the input, writes the payload and picks the exit code: 0 success, 1
a verified identity failed, 2 invalid input, an exceeded cap, a count too
long to print or a failed write, 3 internal cross-check failure (only
analyze checks).  JSON is written as it is encoded (``_write_json``), so no
command holds its whole document, and a row of ints 0-9 is converted in C
(``_ints``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
# a layer that one command alone uses is imported inside that command
from .errors import CrossCheckFailure, QuadtexError
from .textile import block_kappas, build_system, count_specifications, wang_tile_list

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_CROSS_CHECK = 3

# the CLI only runs identities whose compared block reaches a level with
# content; shallower ones are reported as skipped by name
CLI_HEADROOM = 2


def nonnegative(text: str) -> int:
    """argparse type for a nonnegative count; anything else exits with 2."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _load_input(path: str, kappa_override: str | None):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:  # json reads each nesting level by recursion
            raise QuadtexError("input document nests too deeply to read") from None
    if not isinstance(doc, dict) or "A" not in doc or "B" not in doc:
        raise QuadtexError('input document needs "A" and "B" matrices')
    kappa = kappa_override or doc.get("kappa", "lex")
    if kappa == "explicit":
        kappa = doc.get("kappa")
        if not isinstance(kappa, list):
            raise QuadtexError('kappa "explicit" needs a pair list in the input document')
    return build_system(doc["A"], doc["B"], kappa)


# byte b -> its digit for b = 0-9, and a non-digit for any other byte
_DIGITS = b"0123456789".ljust(256, b"x")


def _ints(row, sep: str) -> str:
    """``sep.join(map(str, row))`` for a row of plain ints.

    When every entry is 0-9 the row is converted in C, one digit per entry:
    one ``bytes(row).translate`` and one join, with no ``str()`` per entry.
    """
    try:
        digits = bytes(row).translate(_DIGITS)
    except ValueError:  # an entry outside 0-255
        return sep.join(map(str, row))
    return sep.join(digits.decode() if digits.isdigit() else map(str, row))


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    That call runs every value through json's pure-Python encoder, which
    it uses whenever ``indent`` is set.  Here dicts, lists and tuples are
    laid out by hand, strings and keys go to the C string encoder, a list
    of plain ints (``_ints``) or of plain strs is joined in one step, and
    any other scalar is encoded by the compact ``json.dumps``.
    """
    kind = type(value)
    inner = indent + "  "
    if kind is list or isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            return "[" + inner + _ints(value, "," + inner) + indent + "]"
        items = map(_quote, value) if kinds == {str} else [_dumps(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is int:
        return str(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        # a key that is not a str is coerced (or refused) as json itself does
        items = [
            (_quote(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]) + ": " + _dumps(v, inner)
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    return json.dumps(value)


def _write_json(payload: dict, write) -> None:
    """Write ``_dumps(payload) + "\\n"`` for a non-empty dict with str keys,
    one top-level entry per ``write`` and a list of rows one row per
    ``write``, so the whole document is never held at once."""
    close = "{"
    for key, value in sorted(payload.items()):
        head = close + "\n  " + _quote(key) + ": "
        if type(value) is list and value and type(value[0]) is list:  # a list of rows
            write(head + "[")
            sep = "\n    "
            for row in value:
                write(sep + _dumps(row, "\n    "))
                sep = ",\n    "
            close = "\n  ],"
        else:
            write(head + _dumps(value, "\n  "))
            close = ","
    write(close[:-1] + "\n}\n")


def _matrix_lines(name: str, matrix) -> list[str]:
    return [f"{name} ="] + ["  [" + _ints(row, " ") + "]" for row in matrix]


def cmd_analyze(args, ts):
    from .ktheory import analyze_system

    def render(p):
        print(f"corner pairs: n = {p['n']}")
        for name in ("A_kappa", "B_kappa"):
            print(*_matrix_lines(name, p[name]), sep="\n")
        print(f"K0 = {p['K0_text']}, K1 = {p['K1_text']}")
        structure = p["structure"]
        print(
            "structure: irreducible={irreducible} condition_I={condition_I} "
            "has_zero_row={has_zero_row}".format(**structure)
        )
        print(f"cross-check: {p['cross_check']}")
        for warning in p["warnings"]:
            print(f"warning: {warning}")

    return analyze_system(ts), render


def cmd_verify(args, ts):
    from .fock import DEFAULT_BASIS_CAP, verify_level

    text = os.environ.get("QUADTEX_BASIS_CAP", str(DEFAULT_BASIS_CAP))
    try:
        cap = nonnegative(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise QuadtexError(f"QUADTEX_BASIS_CAP must be a nonnegative integer, got {text!r}") from None
    # decided at args.level, on a basis only as deep as the compared columns reach
    reports = verify_level(ts, args.level, cap=cap, headroom=CLI_HEADROOM)
    payload = {
        "max_level": args.level,
        "reports": [r.to_jsonable() for r in reports],
        "passed": all(r.passed for r in reports),
    }

    def render(p):
        for report in p["reports"]:
            print(f"== {report['title']} (levels up to {report['max_level']}) ==")
            for check in report["identities"]:
                line = f"  [{check['status']:>7}] {check['identity_id']}: {check['formula']}"
                if check.get("notice"):
                    line += f"  ({check['notice']})"
                print(line)
                if check.get("witness"):
                    print(f"           witness: {check['witness']}")
        print("all passed" if p["passed"] else "FAILURES above")

    return payload, render


def cmd_kappa(args, ts):
    total = count_specifications(ts.matrix_a, ts.matrix_b)
    shown = [
        [[[pre[0].id, pre[1].id], [img[0].id, img[1].id]] for pre, img in spec.pairs]
        for spec in block_kappas(ts.blocks, limit=args.limit)
    ]
    payload = {"count": total, "listed": len(shown), "specifications": shown}

    def render(p):
        print(f"{p['count']} specifications")
        for i, spec in enumerate(p["specifications"]):
            pairs = ", ".join(f"({a},{b})->({c},{d})" for (a, b), (c, d) in spec)
            print(f"  #{i}: {pairs}")

    return payload, render


def cmd_tiles(args, ts):
    if args.out is not None and args.emit != "wang":
        raise QuadtexError("--out writes only the records of --emit wang; add --emit wang")
    records = wang_tile_list(ts)
    if args.emit == "wang":  # the bare record list, written here: no payload
        text = _dumps(records)
        if args.out is not None:  # an empty path fails to open like any unwritable one
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
        return None, None

    def render(p):
        print(f"{p['count']} tiles")
        for record in p["tiles"]:
            print(
                "  #{id}: top={top} right={right} left={left} bottom={bottom} "
                "vertex={vertex}".format(**record)
            )

    return {"count": len(records), "tiles": records}, render


def cmd_subshift(args, ts):
    from .subshift import count_rectangles, enumerate_rectangles

    count = count_rectangles(ts, args.rows, args.cols)
    payload = {"rows": args.rows, "cols": args.cols, "count": count}
    if args.limit:
        rects = enumerate_rectangles(ts, args.rows, args.cols, limit=args.limit)
        payload["patches"] = [[[ts.tile_index[t] for t in row] for row in r.cells] for r in rects]

    def render(p):
        print(f"{p['rows']}x{p['cols']} patches: {p['count']}")
        for patch in p.get("patches", []):
            print("  " + "; ".join(" ".join(str(t) for t in row) for row in patch))

    return payload, render


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: one subparser per command, taking the shared
    options from one parent parser and binding its ``cmd_*`` as ``func``.
    Patching ``cli.cmd_*`` after the first build does not reach ``main``;
    patching the names those commands call does."""
    parser = argparse.ArgumentParser(
        prog="quadtex",
        description="Invariants and operator identity checks for commuting-matrix tile systems.",
    )
    parser.add_argument("--version", action="version", version=f"quadtex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # every subcommand's options
    shared.add_argument("input", help="path to the JSON input document")
    shared.add_argument(
        "--kappa",
        choices=["lex", "exchange", "explicit"],
        default=None,
        help="override the specification strategy from the input document",
    )
    shared.add_argument("--format", choices=["text", "json"], default="text")
    add = functools.partial(sub.add_parser, parents=[shared])

    p = add("analyze", help="transition matrices, K-groups, structure checks")
    p.set_defaults(func=cmd_analyze)

    p = add("verify", help="operator identity suites on the truncated word basis")
    p.add_argument("--level", type=int, default=4, help="truncation level (default 4)")
    p.set_defaults(func=cmd_verify)

    p = add("kappa", help="count and enumerate specifications")
    p.add_argument("--limit", type=nonnegative, default=10, help="how many to list (default 10)")
    p.set_defaults(func=cmd_kappa)

    p = add("tiles", help="list the tile alphabet")
    p.add_argument("--emit", choices=["wang"], default=None, help="emit Wang-tile JSON records")
    p.add_argument("--out", default=None, help="write the emitted JSON to a file")
    p.set_defaults(func=cmd_tiles)

    p = add("subshift", help="count admissible rectangular patches")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--limit", type=nonnegative, default=0, help="also list up to this many patches")
    p.set_defaults(func=cmd_subshift)

    return parser


def main(argv=None) -> int:
    """Load the input, run the subcommand and write its payload as JSON, one
    top-level entry or row at a time to the ``sys.stdout`` current at the
    call, or through its renderer; exit with 1 exactly when it holds
    ``"passed": false``, and with 2 when a write fails (``OSError``)."""
    args = build_parser().parse_args(argv)
    try:
        payload, render = args.func(args, _load_input(args.input, args.kappa))
        if payload is None:  # tiles --emit wang wrote its own output
            return EXIT_OK
        payload["command"] = args.command
        if args.format == "json":
            _write_json(payload, sys.stdout.write)
        else:
            render(payload)
    except CrossCheckFailure as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except (QuadtexError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_FAIL if payload.get("passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
