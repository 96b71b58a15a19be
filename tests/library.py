"""Library calls over the quad module and the word basis that no command runs.

* The vertex-valued pairing ``inner_vertex``: sum xi(t) * xi2(t) at each
  tile's corner vertex.
* The five diagonal actions on tile vectors, through one helper: the right
  actions scale each tile by the operand's value at its corner vertex,
  bottom edge (rho) or right edge (eta), the left actions at its top edge
  (rho) or left edge (eta).
* ``range_embed``, ``layer_unit_vector`` and ``sup_norm`` on vertex and
  edge vectors.
* ``basis_words``: every word of a ``TruncatedFock``, in basis order.

Each is written from the definitions and reads none of the package's
private helpers.
"""

from __future__ import annotations

from fractions import Fraction

from quadtex.algebra import DiagElem, EdgeElem, QuadVector, apply_edge
from quadtex.errors import LayerMismatch
from quadtex.fock import FockWord, TruncatedFock
from quadtex.textile import LAYER_A, LAYER_B, TextileSystem


def inner_vertex(ts: TextileSystem, xi: QuadVector, xi2: QuadVector) -> DiagElem:
    """Vertex-valued pairing: sum xi(t)*xi2(t) at each tile's corner vertex."""
    out = [Fraction(0)] * ts.n_vertices
    for tile, x, y in zip(ts.tiles, xi.coeffs, xi2.coeffs):
        out[tile.vertex - 1] += x * y
    return DiagElem(coeffs=tuple(out))


def _act(ts: TextileSystem, xi: QuadVector, side: str, elem, layer=None, refusal=None) -> QuadVector:
    """Scale each tile's coefficient by elem's value at its ``side``: a vertex vector
    (no ``layer``) or an edge vector over ``layer``, else LayerMismatch(refusal)."""
    if layer is not None and elem.layer != layer:
        raise LayerMismatch(refusal)
    keys = range(1, ts.n_vertices + 1) if layer is None else ts.edges(layer)
    value = dict(zip(keys, elem.coeffs))
    return QuadVector(coeffs=tuple(x * value[getattr(t, side)] for t, x in zip(ts.tiles, xi.coeffs)))


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


def range_embed(ts: TextileSystem, layer: str, y: DiagElem) -> EdgeElem:
    """Range-wise spreading of a vertex vector over a layer's edges."""
    return EdgeElem(layer=layer, coeffs=tuple(y[e.target] for e in ts.edges(layer)))


def layer_unit_vector(ts: TextileSystem, layer: str) -> DiagElem:
    """Sum over the layer's edges of apply_edge(e, 1): counts in-edges per vertex."""
    total = DiagElem.zeros(ts.n_vertices)
    for edge in ts.edges(layer):
        total = total + apply_edge(ts, edge, DiagElem.unit(ts.n_vertices))
    return total


def sup_norm(elem) -> Fraction:
    """Max |coefficient|; the operator norm of a diagonal element."""
    return max((abs(c) for c in elem.coeffs), default=Fraction(0))


def basis_words(tf: TruncatedFock) -> tuple[FockWord, ...]:
    """Every word of the basis, in order, each rebuilt from its split records."""
    return tuple(map(tf.word, range(tf.dim)))
