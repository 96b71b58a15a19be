"""Tile systems of commuting matrices: invariants, word-space operators, patches.

The package takes a pair of commuting nonnegative integer matrices plus a
pairing of their composable edge paths, builds the resulting tile alphabet,
and offers three computation layers on top of it:

* exact module arithmetic over the tiles (``quadmod``, ``algebra``),
* creation operators on truncated graded word spaces with machine-checked
  operator identities (``fock``),
* integer K-group invariants and two-dimensional patch counting
  (``ktheory``, ``subshift``).

The ``quadtex`` console script drives all of it from a JSON input document.
"""

__version__ = "0.1.0"

from .textile import (
    IntMatrix,
    Edge,
    Kappa,
    OmegaPair,
    TextileSystem,
    Tile,
    build_kappa,
    build_system,
    check_commuting,
    count_specifications,
    edges_from_matrix,
    enumerate_kappas,
    kappa_indicators,
    sigma_blocks,
)
from .algebra import DiagElem, EdgeElem
from .quadmod import QuadVector
from .ktheory import KGroups, SNFResult, k_theory, smith_normal_form, structure_checks

__all__ = [
    "IntMatrix",
    "Edge",
    "Kappa",
    "OmegaPair",
    "TextileSystem",
    "Tile",
    "DiagElem",
    "EdgeElem",
    "QuadVector",
    "FockWord",
    "SparseOp",
    "TruncatedFock",
    "KGroups",
    "SNFResult",
    "build_kappa",
    "build_system",
    "check_commuting",
    "count_specifications",
    "edges_from_matrix",
    "enumerate_kappas",
    "fock_basis",
    "k_theory",
    "kappa_indicators",
    "sigma_blocks",
    "smith_normal_form",
    "structure_checks",
]


def __getattr__(name):
    # the word-space layer is imported on first use (PEP 562)
    if name in ("FockWord", "SparseOp", "TruncatedFock", "fock_basis"):
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
