"""Exact arithmetic over the vertices, edges and tiles of a textile system.

Vertex vectors live in the diagonal algebra spanned by the vertex
projections E_1..E_N; edge vectors live in the diagonal algebras spanned by
the edge projections p_alpha (layer A) and q_a (layer B).  Tile vectors
span the quad module over them: every action is diagonal, scaling a tile's
coefficient by the operand's value at one of the tile's four edges or at
its corner vertex, and the three inner products pair coefficients
tile-by-tile and collect them at the corner vertex, the bottom edge or the
right edge.  Coefficients are exact rationals throughout; every map in
this module is linear and sends 0/1 data to 0/1 data.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .errors import LayerMismatch, UnknownEdge
from .textile import LAYER_A, LAYER_B, Edge, TextileSystem


def _as_fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _indicator(keys, hit) -> tuple[Fraction, ...]:
    """The 0/1 coefficients that are 1 exactly at the keys equal to ``hit``."""
    return tuple(Fraction(1 if key == hit else 0) for key in keys)


# coefficient-wise ``+``, ``scale`` and ``is_zero``, bound by each vector
# class: ``+`` and ``scale`` give a copy of the left operand with new ``coeffs``
def _add(self, other):
    return self._replace(coeffs=tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))


def _scale(self, c):
    c = Fraction(c)
    return self._replace(coeffs=tuple(c * x for x in self.coeffs))


def _is_zero(self) -> bool:
    return all(x == 0 for x in self.coeffs)


class DiagElem(NamedTuple):
    """Rational vector indexed by vertices 1..N."""

    coeffs: tuple[Fraction, ...]

    __add__, scale, is_zero = _add, _scale, _is_zero

    @staticmethod
    def zeros(n: int) -> "DiagElem":
        return DiagElem(coeffs=(Fraction(0),) * n)

    @staticmethod
    def unit(n: int) -> "DiagElem":
        return DiagElem(coeffs=(Fraction(1),) * n)

    @staticmethod
    def basis(n: int, vertex: int) -> "DiagElem":
        """The projection onto one vertex (1-based)."""
        return DiagElem(coeffs=_indicator(range(1, n + 1), vertex))

    @staticmethod
    def from_values(values) -> "DiagElem":
        return DiagElem(coeffs=_as_fractions(values))

    def __getitem__(self, vertex: int) -> Fraction:
        return self.coeffs[vertex - 1]


class EdgeElem(NamedTuple):
    """Rational vector indexed by one layer's edges, in canonical edge order."""

    layer: str
    coeffs: tuple[Fraction, ...]

    scale, is_zero = _scale, _is_zero

    @staticmethod
    def zeros(ts: TextileSystem, layer: str) -> "EdgeElem":
        return EdgeElem(layer=layer, coeffs=(Fraction(0),) * len(ts.edges(layer)))

    @staticmethod
    def unit(ts: TextileSystem, layer: str) -> "EdgeElem":
        return EdgeElem(layer=layer, coeffs=(Fraction(1),) * len(ts.edges(layer)))

    @staticmethod
    def basis(ts: TextileSystem, edge: Edge) -> "EdgeElem":
        """The projection p_alpha / q_a onto one edge."""
        _check_edge(ts, edge)
        return EdgeElem(layer=edge.layer, coeffs=_indicator(ts.edges(edge.layer), edge))

    @staticmethod
    def from_values(ts: TextileSystem, layer: str, values) -> "EdgeElem":
        coeffs = _as_fractions(values)
        if len(coeffs) != len(ts.edges(layer)):
            raise LayerMismatch(f"expected {len(ts.edges(layer))} coefficients for layer {layer}")
        return EdgeElem(layer=layer, coeffs=coeffs)

    def coeff(self, ts: TextileSystem, edge: Edge) -> Fraction:
        return self.coeffs[ts.edges(self.layer).index(edge)]

    def __add__(self, other: "EdgeElem") -> "EdgeElem":
        if self.layer != other.layer:
            raise LayerMismatch(f"cannot add layer {self.layer} to layer {other.layer}")
        return _add(self, other)


def _check_edge(ts: TextileSystem, edge: Edge) -> None:
    if edge not in ts.edges(edge.layer):
        raise UnknownEdge(f"{edge.id} is not an edge of the system")


def _at_ranges(ts: TextileSystem, edges, values) -> DiagElem:
    """Sum each edge's value into its range vertex."""
    out = [Fraction(0)] * ts.n_vertices
    for e, c in zip(edges, values):
        out[e.target - 1] += c
    return DiagElem(coeffs=tuple(out))


def apply_edge(ts: TextileSystem, edge: Edge, x: DiagElem) -> DiagElem:
    """One edge's endomorphism: moves the coefficient at s(e) to r(e)."""
    _check_edge(ts, edge)
    return _at_ranges(ts, [edge], [x[edge.source]])


def embed(ts: TextileSystem, layer: str, y: DiagElem) -> EdgeElem:
    """Source-wise embedding of a vertex vector into a layer's edge algebra."""
    return EdgeElem(layer=layer, coeffs=tuple(y[e.source] for e in ts.edges(layer)))


def range_embed(ts: TextileSystem, layer: str, y: DiagElem) -> EdgeElem:
    """Range-wise spreading of a vertex vector over a layer's edges."""
    return EdgeElem(layer=layer, coeffs=tuple(y[e.target] for e in ts.edges(layer)))


def range_sum(ts: TextileSystem, w: EdgeElem) -> DiagElem:
    """Collapse an edge vector to vertices: sum the coefficients at each range."""
    return _at_ranges(ts, ts.edges(w.layer), w.coeffs)


def compress(ts: TextileSystem, edge: Edge, w: EdgeElem) -> DiagElem:
    """Extract one edge's coefficient onto its range vertex (w(e) * E_{r(e)})."""
    _check_edge(ts, edge)
    if w.layer != edge.layer:
        raise LayerMismatch(f"edge {edge.id} is in layer {edge.layer}, vector in {w.layer}")
    return _at_ranges(ts, [edge], [w.coeff(ts, edge)])


def pullback_along_kappa(ts: TextileSystem, edge: Edge, w: EdgeElem) -> EdgeElem:
    """Precompose an edge vector with the kappa-induced edge substitution.

    For a B-edge ``a`` acting on an A-layer vector w: the coefficient at
    beta becomes w(alpha) where kappa(alpha, b) = (a, beta) for the unique
    preimage, and 0 when (a, beta) is not composable.  For an A-edge alpha
    acting on a B-layer vector z: the coefficient at b becomes z(a) where
    kappa(alpha, b) = (a, beta).
    """
    _check_edge(ts, edge)
    if w.layer == edge.layer:
        raise LayerMismatch(f"edge {edge.id} must lie opposite to the vector's layer {w.layer}")
    # the result lies over w's layer: a B-edge finds (alpha, b) by the
    # inverse lookup of (edge, beta), an A-edge (a, beta) by the forward one
    # of (edge, b); either way the pair's first edge is where w is read
    lookup = ts.kappa.inverse if edge.layer == LAYER_B else ts.kappa.forward
    pairs = (lookup.get((edge, x)) for x in ts.edges(w.layer))
    return EdgeElem(layer=w.layer, coeffs=tuple(w.coeff(ts, p[0]) if p else Fraction(0) for p in pairs))


def layer_unit_vector(ts: TextileSystem, layer: str) -> DiagElem:
    """Sum over the layer's edges of apply_edge(e, 1): counts in-edges per vertex."""
    edges = ts.edges(layer)
    return _at_ranges(ts, edges, [Fraction(1)] * len(edges))


def sup_norm(elem) -> Fraction:
    """Max |coefficient|; the operator norm of a diagonal element."""
    return max((abs(c) for c in elem.coeffs), default=Fraction(0))


class QuadVector(NamedTuple):
    """Rational vector over the tiles, in canonical tile order."""

    coeffs: tuple[Fraction, ...]

    __add__, scale, is_zero = _add, _scale, _is_zero

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

