"""Library calls over the quad module and the word basis that no command runs.

* The vertex-valued pairing ``inner_vertex``: sum xi(t) * xi2(t) at each
  tile's corner vertex.
* The five diagonal actions on tile vectors, through one helper: the right
  actions scale each tile by the operand's value at its corner vertex,
  bottom edge (rho) or right edge (eta), the left actions at its top edge
  (rho) or left edge (eta).
* ``range_embed``, ``layer_unit_vector`` and ``sup_norm`` on vertex and
  edge vectors.
* ``edge_from_values``: an edge vector from one value per edge of a layer.
* The module maps into the vertices, through one helper that sums each
  edge's value into its range vertex: ``apply_edge``, ``range_sum`` and
  ``compress``.
* On the word basis: ``basis_words``, every word of a ``TruncatedFock`` in
  basis order; ``word_level``, the level of one word; and ``level_sizes``, the
  words at each level.

Each is written from the definitions.  Two read a private helper of the
package: ``apply_edge`` refuses a foreign edge as every edge map does
(``algebra._check_edge``), and ``level_sizes`` reads the level walk that
``verify``'s cap runs (``fock._levels``), so the tests of both check them.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterator

from quadtex.algebra import DiagElem, EdgeElem, QuadVector, _check_edge
from quadtex.errors import LayerMismatch
from quadtex.fock import FockWord, TruncatedFock, _levels
from quadtex.textile import LAYER_A, LAYER_B, Edge, TextileSystem


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
    unit = DiagElem(coeffs=(Fraction(1),) * ts.n_vertices)
    total = DiagElem(coeffs=(Fraction(0),) * ts.n_vertices)
    for edge in ts.edges(layer):
        total = total + apply_edge(ts, edge, unit)
    return total


def sup_norm(elem) -> Fraction:
    """Max |coefficient|; the operator norm of a diagonal element."""
    return max((abs(c) for c in elem.coeffs), default=Fraction(0))


def edge_from_values(ts: TextileSystem, layer: str, values) -> EdgeElem:
    coeffs = tuple(map(Fraction, values))
    if len(coeffs) != len(ts.edges(layer)):
        raise LayerMismatch(f"expected {len(ts.edges(layer))} coefficients for layer {layer}")
    return EdgeElem(layer=layer, coeffs=coeffs)


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


def range_sum(ts: TextileSystem, w: EdgeElem) -> DiagElem:
    """Collapse an edge vector to vertices: sum the coefficients at each range."""
    return _at_ranges(ts, ts.edges(w.layer), w.coeffs)


def compress(ts: TextileSystem, edge: Edge, w: EdgeElem) -> DiagElem:
    """Extract one edge's coefficient onto its range vertex (w(e) * E_{r(e)})."""
    return _at_ranges(ts, [edge], [w.coeff(ts, edge)])


def basis_words(tf: TruncatedFock) -> tuple[FockWord, ...]:
    """Every word of the basis, in order, each rebuilt from its split records."""
    return tuple(map(tf.word, range(tf.dim)))


def word_level(tf: TruncatedFock, i: int) -> int:
    """The level of word i (0 <= i < dim)."""
    return bisect_right(tf.starts, i) - 1


def level_sizes(ts: TextileSystem, max_level: int) -> Iterator[int]:
    """Yield the number of words at each level 0..max_level (``fock._levels``)."""
    return (size for _, (size, _held) in zip(range(max_level + 1), _levels(ts)))
