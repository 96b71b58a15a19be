"""Tile systems of commuting matrices: invariants, word-space operators, patches.

The package takes a pair of commuting nonnegative integer matrices plus a
pairing of their composable edge paths, builds the resulting tile alphabet,
and offers three computation layers on top of it:

* exact module arithmetic over the vertices, edges and tiles (``algebra``),
* creation operators on truncated graded word spaces with machine-checked
  operator identities (``fock``),
* integer K-group invariants and two-dimensional patch counting
  (``ktheory``, ``subshift``).

The ``quadtex`` console script drives all of it from a JSON input document.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

# each exported name is imported from its layer on first use (PEP 562), so
# a process compiles only the layers it runs
_LAYER = {
    "IntMatrix": "textile",
    "Edge": "textile",
    "Kappa": "textile",
    "OmegaPair": "textile",
    "TextileSystem": "textile",
    "Tile": "textile",
    "DiagElem": "algebra",
    "EdgeElem": "algebra",
    "QuadVector": "algebra",
    "FockWord": "fock",
    "SparseOp": "fock",
    "TruncatedFock": "fock",
    "KGroups": "ktheory",
    "SNFResult": "ktheory",
    "build_kappa": "textile",
    "build_system": "textile",
    "check_commuting": "textile",
    "count_specifications": "textile",
    "edges_from_matrix": "textile",
    "enumerate_kappas": "textile",
    "fock_basis": "fock",
    "k_theory": "ktheory",
    "kappa_indicators": "textile",
    "sigma_blocks": "textile",
    "smith_normal_form": "ktheory",
    "structure_checks": "ktheory",
}

__all__ = list(_LAYER)


def __getattr__(name):
    if name in _LAYER:
        return getattr(importlib.import_module(f".{_LAYER[name]}", __name__), name)
    if importlib.util.find_spec(f"{__name__}.{name}"):  # any submodule
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | set(__all__))
