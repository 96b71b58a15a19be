"""Exact arithmetic over vertices and edges of a textile system.

Vertex vectors live in the diagonal algebra spanned by the vertex
projections E_1..E_N; edge vectors live in the diagonal algebras spanned by
the edge projections p_alpha (layer A) and q_a (layer B).  Coefficients are
exact rationals throughout; every map in this module is linear and sends
0/1 data to 0/1 data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import LayerMismatch, UnknownEdge
from .textile import LAYER_B, Edge, TextileSystem


def _as_fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _indicator(keys, hit) -> tuple[Fraction, ...]:
    """The 0/1 coefficients that are 1 exactly at the keys equal to ``hit``."""
    return tuple(Fraction(1 if key == hit else 0) for key in keys)


class _Vector:
    """Coefficient-wise ``+`` and ``scale``: a copy of the left operand with new ``coeffs``."""

    def __add__(self, other):
        return replace(self, coeffs=tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def scale(self, c):
        c = Fraction(c)
        return replace(self, coeffs=tuple(c * x for x in self.coeffs))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)


@dataclass(frozen=True)
class DiagElem(_Vector):
    """Rational vector indexed by vertices 1..N."""

    coeffs: tuple[Fraction, ...]

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


@dataclass(frozen=True)
class EdgeElem(_Vector):
    """Rational vector indexed by one layer's edges, in canonical edge order."""

    layer: str
    coeffs: tuple[Fraction, ...]

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
        return super().__add__(other)


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
