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

from .algebra import DiagElem, EdgeElem
from .errors import LayerMismatch, UnknownEdge
from .textile import LAYER_A, LAYER_B, Edge, TextileSystem


@dataclass(frozen=True)
class QuadVector:
    """Rational vector over the tiles, in canonical tile order."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def zeros(ts: TextileSystem) -> "QuadVector":
        return QuadVector(coeffs=(Fraction(0),) * len(ts.tiles))

    @staticmethod
    def basis(ts: TextileSystem, tile) -> "QuadVector":
        i = ts.tile_index[tile]
        return QuadVector(
            coeffs=tuple(Fraction(1) if j == i else Fraction(0) for j in range(len(ts.tiles)))
        )

    @staticmethod
    def from_values(ts: TextileSystem, values) -> "QuadVector":
        coeffs = tuple(Fraction(v) for v in values)
        if len(coeffs) != len(ts.tiles):
            raise ValueError(f"expected {len(ts.tiles)} coefficients")
        return QuadVector(coeffs=coeffs)

    def __add__(self, other: "QuadVector") -> "QuadVector":
        return QuadVector(coeffs=tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "QuadVector":
        c = Fraction(c)
        return QuadVector(coeffs=tuple(c * x for x in self.coeffs))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)


def inner_vertex(ts: TextileSystem, xi: QuadVector, xi2: QuadVector) -> DiagElem:
    """Vertex-valued pairing: sum xi(t)*xi2(t) at each tile's corner vertex."""
    out = [Fraction(0)] * ts.n_vertices
    for tile, x, y in zip(ts.tiles, xi.coeffs, xi2.coeffs):
        out[tile.vertex - 1] += x * y
    return DiagElem(coeffs=tuple(out))


def inner_rho(ts: TextileSystem, xi: QuadVector, xi2: QuadVector) -> EdgeElem:
    """A-layer-valued pairing: coefficients collected at each tile's bottom edge."""
    out = {e: Fraction(0) for e in ts.edges_a}
    for tile, x, y in zip(ts.tiles, xi.coeffs, xi2.coeffs):
        out[tile.bottom] += x * y
    return EdgeElem(layer=LAYER_A, coeffs=tuple(out[e] for e in ts.edges_a))


def inner_eta(ts: TextileSystem, xi: QuadVector, xi2: QuadVector) -> EdgeElem:
    """B-layer-valued pairing: coefficients collected at each tile's right edge."""
    out = {e: Fraction(0) for e in ts.edges_b}
    for tile, x, y in zip(ts.tiles, xi.coeffs, xi2.coeffs):
        out[tile.right] += x * y
    return EdgeElem(layer=LAYER_B, coeffs=tuple(out[e] for e in ts.edges_b))


def act_right_vertex(ts: TextileSystem, xi: QuadVector, y: DiagElem) -> QuadVector:
    return QuadVector(
        coeffs=tuple(x * y[t.vertex] for t, x in zip(ts.tiles, xi.coeffs))
    )


def act_right_rho(ts: TextileSystem, xi: QuadVector, w: EdgeElem) -> QuadVector:
    """Right action of an A-layer vector: scale each tile by w(bottom)."""
    if w.layer != LAYER_A:
        raise LayerMismatch("right rho action takes an A-layer vector")
    return QuadVector(
        coeffs=tuple(x * w.coeff(ts, t.bottom) for t, x in zip(ts.tiles, xi.coeffs))
    )


def act_right_eta(ts: TextileSystem, xi: QuadVector, z: EdgeElem) -> QuadVector:
    """Right action of a B-layer vector: scale each tile by z(right)."""
    if z.layer != LAYER_B:
        raise LayerMismatch("right eta action takes a B-layer vector")
    return QuadVector(
        coeffs=tuple(x * z.coeff(ts, t.right) for t, x in zip(ts.tiles, xi.coeffs))
    )


def act_left_rho(ts: TextileSystem, xi: QuadVector, w: EdgeElem) -> QuadVector:
    """Left action of an A-layer vector: scale each tile by w(top)."""
    if w.layer != LAYER_A:
        raise LayerMismatch("left rho action takes an A-layer vector")
    return QuadVector(
        coeffs=tuple(x * w.coeff(ts, t.top) for t, x in zip(ts.tiles, xi.coeffs))
    )


def act_left_eta(ts: TextileSystem, xi: QuadVector, z: EdgeElem) -> QuadVector:
    """Left action of a B-layer vector: scale each tile by z(left)."""
    if z.layer != LAYER_B:
        raise LayerMismatch("left eta action takes a B-layer vector")
    return QuadVector(
        coeffs=tuple(x * z.coeff(ts, t.left) for t, x in zip(ts.tiles, xi.coeffs))
    )


def top_basis_vector(ts: TextileSystem, alpha: Edge) -> QuadVector:
    """u_alpha: 0/1 vector supported on the tiles with top edge alpha."""
    if alpha not in ts.edges_a:
        raise UnknownEdge(f"{alpha.id} is not an A-layer edge of the system")
    return QuadVector(
        coeffs=tuple(Fraction(1 if t.top == alpha else 0) for t in ts.tiles)
    )


def left_basis_vector(ts: TextileSystem, a: Edge) -> QuadVector:
    """v_a: 0/1 vector supported on the tiles with left edge a."""
    if a not in ts.edges_b:
        raise UnknownEdge(f"{a.id} is not a B-layer edge of the system")
    return QuadVector(
        coeffs=tuple(Fraction(1 if t.left == a else 0) for t in ts.tiles)
    )


def empty_basis_edges(ts: TextileSystem) -> list[Edge]:
    """Edges whose basis vector has empty support (no tile over them)."""
    tops = {t.top for t in ts.tiles}
    lefts = {t.left for t in ts.tiles}
    return [e for e in ts.edges_a if e not in tops] + [
        e for e in ts.edges_b if e not in lefts
    ]

