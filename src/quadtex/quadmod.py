"""The tile-spanned module with its three inner products and six actions.

Vectors are rational coefficient lists over the tile alphabet.  Every
action is diagonal: each kind scales a tile's coefficient by the operand's
value at one of the tile's four edges or at its corner vertex.  The three
inner products pair coefficients tile-by-tile and collect them at the
corner vertex, the bottom edge, or the right edge respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .algebra import DiagElem, EdgeElem, _as_fractions, _indicator, _Vector
from .errors import LayerMismatch, UnknownEdge
from .textile import LAYER_A, LAYER_B, Edge, TextileSystem


@dataclass(frozen=True)
class QuadVector(_Vector):
    """Rational vector over the tiles, in canonical tile order."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def zeros(ts: TextileSystem) -> "QuadVector":
        return QuadVector(coeffs=(Fraction(0),) * len(ts.tiles))

    @staticmethod
    def basis(ts: TextileSystem, tile) -> "QuadVector":
        return QuadVector(coeffs=_indicator(range(len(ts.tiles)), ts.tile_index[tile]))

    @staticmethod
    def from_values(ts: TextileSystem, values) -> "QuadVector":
        coeffs = _as_fractions(values)
        if len(coeffs) != len(ts.tiles):
            raise ValueError(f"expected {len(ts.tiles)} coefficients")
        return QuadVector(coeffs=coeffs)


def _sides(ts: TextileSystem, side: str):
    """Each tile's ``side``: its corner vertex or one of its four edges."""
    return map(attrgetter(side), ts.tiles)


def _pairing(ts: TextileSystem, side: str, keys, xi: QuadVector, xi2: QuadVector) -> tuple:
    """Sum xi(t) * xi2(t) into the key at each tile's ``side``; the sums in ``keys`` order."""
    out = dict.fromkeys(keys, Fraction(0))
    for key, x, y in zip(_sides(ts, side), xi.coeffs, xi2.coeffs):
        out[key] += x * y
    return tuple(out.values())


def inner_vertex(ts: TextileSystem, xi: QuadVector, xi2: QuadVector) -> DiagElem:
    """Vertex-valued pairing: sum xi(t)*xi2(t) at each tile's corner vertex."""
    return DiagElem(coeffs=_pairing(ts, "vertex", range(1, ts.n_vertices + 1), xi, xi2))


def inner_rho(ts: TextileSystem, xi: QuadVector, xi2: QuadVector) -> EdgeElem:
    """A-layer-valued pairing: coefficients collected at each tile's bottom edge."""
    return EdgeElem(layer=LAYER_A, coeffs=_pairing(ts, "bottom", ts.edges_a, xi, xi2))


def inner_eta(ts: TextileSystem, xi: QuadVector, xi2: QuadVector) -> EdgeElem:
    """B-layer-valued pairing: coefficients collected at each tile's right edge."""
    return EdgeElem(layer=LAYER_B, coeffs=_pairing(ts, "right", ts.edges_b, xi, xi2))


def _act(ts: TextileSystem, xi: QuadVector, side: str, elem, layer=None, refusal=None) -> QuadVector:
    """Scale each tile's coefficient by elem's value at its ``side``: a vertex vector
    (no ``layer``) or an edge vector over ``layer``, else LayerMismatch(refusal)."""
    if layer is not None and elem.layer != layer:
        raise LayerMismatch(refusal)
    keys = range(1, ts.n_vertices + 1) if layer is None else ts.edges(layer)
    value = dict(zip(keys, elem.coeffs))
    return QuadVector(coeffs=tuple(x * value[key] for key, x in zip(_sides(ts, side), xi.coeffs)))


def act_right_vertex(ts: TextileSystem, xi: QuadVector, y: DiagElem) -> QuadVector:
    return _act(ts, xi, "vertex", y)


def act_right_rho(ts: TextileSystem, xi: QuadVector, w: EdgeElem) -> QuadVector:
    """Right action of an A-layer vector: scale each tile by w(bottom)."""
    return _act(ts, xi, "bottom", w, LAYER_A, "right rho action takes an A-layer vector")


def act_right_eta(ts: TextileSystem, xi: QuadVector, z: EdgeElem) -> QuadVector:
    """Right action of a B-layer vector: scale each tile by z(right)."""
    return _act(ts, xi, "right", z, LAYER_B, "right eta action takes a B-layer vector")


def act_left_rho(ts: TextileSystem, xi: QuadVector, w: EdgeElem) -> QuadVector:
    """Left action of an A-layer vector: scale each tile by w(top)."""
    return _act(ts, xi, "top", w, LAYER_A, "left rho action takes an A-layer vector")


def act_left_eta(ts: TextileSystem, xi: QuadVector, z: EdgeElem) -> QuadVector:
    """Left action of a B-layer vector: scale each tile by z(left)."""
    return _act(ts, xi, "left", z, LAYER_B, "left eta action takes a B-layer vector")


def top_basis_vector(ts: TextileSystem, alpha: Edge) -> QuadVector:
    """u_alpha: 0/1 vector supported on the tiles with top edge alpha."""
    if alpha not in ts.edges_a:
        raise UnknownEdge(f"{alpha.id} is not an A-layer edge of the system")
    return QuadVector(coeffs=_indicator(_sides(ts, "top"), alpha))


def left_basis_vector(ts: TextileSystem, a: Edge) -> QuadVector:
    """v_a: 0/1 vector supported on the tiles with left edge a."""
    if a not in ts.edges_b:
        raise UnknownEdge(f"{a.id} is not a B-layer edge of the system")
    return QuadVector(coeffs=_indicator(_sides(ts, "left"), a))

