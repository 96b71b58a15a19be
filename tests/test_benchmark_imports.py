"""The benchmark's imports from quadtex resolve, and none reads the tests.

``perfbench`` imports public names of the package directly, so a change
under ``src/`` that renames or moves one of them fails here, in tier-1,
and not only in the benchmark's own smoke run.  The test oracles and the
library calls no command runs live in ``tests/``; the benchmark and the
bounded runs of ``bench/`` time the package alone, so neither imports a
module defined there.
"""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
BENCH = TESTS.parent / "bench"


def _quadtex_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from quadtex... import name`` in a file, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quadtex"
        for alias in node.names
    ]


@pytest.mark.parametrize("script", ["traced.py", "run.py"])
def test_every_name_the_benchmark_imports_resolves(script):
    imports = _quadtex_imports(PERFBENCH / script)
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def _imported_modules(path: Path) -> set[str]:
    """The top-level name of every module a file imports, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_benchmark_imports_no_module_of_the_tests():
    test_modules = {path.stem for path in TESTS.glob("*.py")}
    assert {"conftest", "library", "oracles", "row_transfer", "creation_oracle"} <= test_modules
    for directory in (PERFBENCH, BENCH):
        scripts = sorted(directory.glob("*.py"))
        assert scripts, directory
        for script in scripts:
            assert not _imported_modules(script) & test_modules, script.name


def test_ktheory_reads_the_corner_pair_matrices_from_textile():
    from quadtex import ktheory, textile

    assert ktheory.build_quad_matrices is textile.build_quad_matrices


def test_subshift_names_the_wang_records_of_textile():
    from quadtex import subshift, textile

    assert subshift.wang_tile_list is textile.wang_tile_list
