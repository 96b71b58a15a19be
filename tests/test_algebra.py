from fractions import Fraction

import pytest

import quadtex as q
from quadtex.algebra import DiagElem, EdgeElem, embed, pullback_along_kappa
from quadtex.errors import LayerMismatch, UnknownEdge
from quadtex.textile import Edge, is_essential
from conftest import by_id
from library import apply_edge, compress, edge_from_values, layer_unit_vector, range_embed, range_sum


def test_apply_edge_loop(exchange_pair):
    e1 = DiagElem.basis(1, 1)
    assert apply_edge(exchange_pair, by_id(exchange_pair, "A:1->1#1"), e1) == e1


def test_apply_edge_zero(fibonacci):
    zero = DiagElem(coeffs=(Fraction(0),) * 2)
    assert apply_edge(fibonacci, by_id(fibonacci, "A:1->2#1"), zero) == zero


def test_apply_edge_fibonacci(fibonacci):
    bridge = by_id(fibonacci, "A:1->2#1")
    assert apply_edge(fibonacci, bridge, DiagElem.basis(2, 1)) == DiagElem.basis(2, 2)
    assert apply_edge(fibonacci, bridge, DiagElem.basis(2, 2)).is_zero()


def test_apply_edge_rejects_foreign_edge(fibonacci):
    with pytest.raises(UnknownEdge):
        apply_edge(fibonacci, Edge("A", 5, 5, 1), DiagElem(coeffs=(Fraction(1),) * 2))


def test_embed_unit_and_basis(exchange_pair, fibonacci):
    assert embed(exchange_pair, "A", DiagElem(coeffs=(Fraction(1),))).coeffs == (Fraction(1),) * 2
    assert embed(exchange_pair, "A", DiagElem.basis(1, 1)).coeffs == (Fraction(1),) * 2
    e2 = embed(fibonacci, "A", DiagElem.basis(2, 2))
    assert e2 == EdgeElem.basis(fibonacci, by_id(fibonacci, "A:2->1#1"))


def test_range_embed(fibonacci, exchange_pair):
    assert range_embed(fibonacci, "A", DiagElem(coeffs=(Fraction(1),) * 2)).coeffs == (Fraction(1),) * 3
    spread = range_embed(fibonacci, "A", DiagElem.basis(2, 1))
    expected = EdgeElem.basis(fibonacci, by_id(fibonacci, "A:1->1#1")) + EdgeElem.basis(
        fibonacci, by_id(fibonacci, "A:2->1#1")
    )
    assert spread == expected
    assert range_embed(exchange_pair, "A", DiagElem.basis(1, 1)) == embed(
        exchange_pair, "A", DiagElem.basis(1, 1)
    )


def test_range_sum(exchange_pair, fibonacci):
    p1 = EdgeElem.basis(exchange_pair, by_id(exchange_pair, "A:1->1#1"))
    assert range_sum(exchange_pair, p1) == DiagElem.basis(1, 1)
    assert range_sum(fibonacci, edge_from_values(fibonacci, "A", [0] * 3)).is_zero()
    w = EdgeElem.basis(fibonacci, by_id(fibonacci, "A:1->1#1")) + EdgeElem.basis(
        fibonacci, by_id(fibonacci, "A:1->2#1")
    )
    assert range_sum(fibonacci, w) == DiagElem.basis(2, 1) + DiagElem.basis(2, 2)


def test_compress(exchange_pair):
    loop1 = by_id(exchange_pair, "A:1->1#1")
    loop2 = by_id(exchange_pair, "A:1->1#2")
    w = EdgeElem.basis(exchange_pair, loop1).scale(2) + EdgeElem.basis(exchange_pair, loop2).scale(5)
    assert compress(exchange_pair, loop1, w) == DiagElem.basis(1, 1).scale(2)
    assert compress(exchange_pair, loop2, EdgeElem.basis(exchange_pair, loop2).scale(3)) == (
        DiagElem.basis(1, 1).scale(3)
    )


def test_compress_layer_mismatch(exchange_pair):
    with pytest.raises(LayerMismatch):
        compress(exchange_pair, by_id(exchange_pair, "B:1->1#1"), edge_from_values(exchange_pair, "A", [1, 1]))
    # reading the coefficient of the other layer's edge refuses the same way
    with pytest.raises(LayerMismatch, match="^edge B:1->1#1 is in layer B, vector in A$"):
        edge_from_values(exchange_pair, "A", [1, 1]).coeff(exchange_pair, by_id(exchange_pair, "B:1->1#1"))


def test_pullback_exchange_is_identity(exchange_pair):
    # under the exchange pairing the substitution fixes every A-edge
    loop2 = EdgeElem.basis(exchange_pair, by_id(exchange_pair, "A:1->1#2"))
    for b in exchange_pair.edges_b:
        assert pullback_along_kappa(exchange_pair, b, loop2) == loop2


def test_pullback_zero(fibonacci):
    zero = edge_from_values(fibonacci, "A", [0] * 3)
    assert pullback_along_kappa(fibonacci, by_id(fibonacci, "B:1->1#1"), zero) == zero


def test_pullback_fibonacci_table(fibonacci):
    # read off the lex table: both (b1,a1) <- (a1,b1) and (b1,a2) <- (a1,b2),
    # so the pullback through b1 duplicates the a1 coefficient
    a1 = EdgeElem.basis(fibonacci, by_id(fibonacci, "A:1->1#1"))
    a2 = EdgeElem.basis(fibonacci, by_id(fibonacci, "A:1->2#1"))
    a3 = EdgeElem.basis(fibonacci, by_id(fibonacci, "A:2->1#1"))
    b1 = by_id(fibonacci, "B:1->1#1")
    b3 = by_id(fibonacci, "B:2->1#1")
    assert pullback_along_kappa(fibonacci, b1, a1) == a1 + a2
    # kappa(a3,b1)=(b3,a1) and kappa(a3,b2)=(b3,a2)
    assert pullback_along_kappa(fibonacci, b3, a3) == a1 + a2
    assert pullback_along_kappa(fibonacci, b3, a1).is_zero()


def test_pullback_layer_mismatch(fibonacci):
    with pytest.raises(LayerMismatch):
        pullback_along_kappa(
            fibonacci, by_id(fibonacci, "A:1->1#1"), edge_from_values(fibonacci, "A", [1] * 3)
        )


def test_pullback_matches_tile_table_route(all_systems):
    # independent route: the substituted coefficient at beta is the top
    # edge of the unique tile with left a and bottom beta
    from fractions import Fraction

    for ts in all_systems:
        by_left_bottom = {(t.left, t.bottom): t for t in ts.tiles}
        for a in ts.edges_b:
            for alpha in ts.edges_a:
                w = EdgeElem.basis(ts, alpha)
                expected = []
                for beta in ts.edges_a:
                    tile = by_left_bottom.get((a, beta))
                    expected.append(
                        Fraction(1 if tile is not None and tile.top == alpha else 0)
                    )
                assert pullback_along_kappa(ts, a, w) == EdgeElem(
                    layer="A", coeffs=tuple(expected)
                )
        by_top_right = {(t.top, t.right): t for t in ts.tiles}
        for alpha in ts.edges_a:
            for a in ts.edges_b:
                z = EdgeElem.basis(ts, a)
                expected = []
                for b in ts.edges_b:
                    tile = by_top_right.get((alpha, b))
                    expected.append(
                        Fraction(1 if tile is not None and tile.left == a else 0)
                    )
                assert pullback_along_kappa(ts, alpha, z) == EdgeElem(
                    layer="B", coeffs=tuple(expected)
                )


def test_pullback_respects_units(all_systems):
    for ts in all_systems:
        unit = edge_from_values(ts, "A", [1] * len(ts.edges_a))
        for a in ts.edges_b:
            image = pullback_along_kappa(ts, a, unit)
            for beta, c in zip(ts.edges_a, image.coeffs):
                assert c == (1 if a.target == beta.source else 0)


def test_tile_commutation(all_systems):
    # going right-then-down equals down-then-right across every tile
    for ts in all_systems:
        for tile in ts.tiles:
            for v in range(1, ts.n_vertices + 1):
                x = DiagElem.basis(ts.n_vertices, v)
                lhs = apply_edge(ts, tile.right, apply_edge(ts, tile.top, x))
                rhs = apply_edge(ts, tile.bottom, apply_edge(ts, tile.left, x))
                assert lhs == rhs


def test_essentiality_matches_column_sums(all_systems):
    for ts in all_systems:
        for layer, matrix in (("A", ts.matrix_a), ("B", ts.matrix_b)):
            col_sums = [
                sum(matrix[i, j] for i in range(matrix.n)) for j in range(matrix.n)
            ]
            assert is_essential(ts, layer) == all(s >= 1 for s in col_sums)
            assert list(layer_unit_vector(ts, layer).coeffs) == col_sums


def test_non_essential_flagged():
    ts = q.build_system([[0, 1], [0, 0]], [[0, 1], [0, 0]], "lex")
    assert not is_essential(ts, "A")
    assert not is_essential(ts, "B")


def test_range_sum_after_range_embed_scales_by_indegree(fibonacci):
    y = DiagElem(coeffs=(Fraction(3), Fraction(-2)))
    collapsed = range_sum(fibonacci, range_embed(fibonacci, "A", y))
    indegree = layer_unit_vector(fibonacci, "A")
    assert collapsed == DiagElem(
        coeffs=tuple(a * b for a, b in zip(y.coeffs, indegree.coeffs))
    )


def test_edge_vectors_of_two_layers_do_not_add(exchange_pair):
    with pytest.raises(LayerMismatch, match="cannot add layer A to layer B"):
        edge_from_values(exchange_pair, "A", [1, 1]) + edge_from_values(exchange_pair, "B", [1] * 3)


def test_edge_basis_rejects_a_foreign_edge(fibonacci):
    with pytest.raises(UnknownEdge, match="A:5->5#1 is not an edge of the system"):
        EdgeElem.basis(fibonacci, Edge("A", 5, 5, 1))
    for edge in (Edge("A", 5, 5, 1), Edge("B", 5, 5, 1)):  # either layer, no coefficient
        with pytest.raises(UnknownEdge, match=f"^{edge.id} is not an edge of the system$"):
            edge_from_values(fibonacci, "A", [1] * 3).coeff(fibonacci, edge)


@pytest.mark.parametrize(
    "build",
    [
        lambda ts: edge_from_values(ts, "X", [1, 2, 3]),
        lambda ts: embed(ts, "X", DiagElem(coeffs=(Fraction(1),) * ts.n_vertices)),
        lambda ts: range_embed(ts, "X", DiagElem(coeffs=(Fraction(1),) * ts.n_vertices)),
        lambda ts: EdgeElem.basis(ts, Edge("X", 1, 1, 1)),
        lambda ts: ts.edges("X"),
    ],
    ids=["from_values", "embed", "range_embed", "basis", "edges"],
)
def test_an_unknown_layer_name_is_refused(fibonacci, build):
    # "X" is neither layer, so no vector over it is built
    with pytest.raises(ValueError, match="layer must be 'A' or 'B', got 'X'"):
        build(fibonacci)


def test_edge_values_need_one_per_edge(fibonacci):
    with pytest.raises(LayerMismatch, match="expected 3 coefficients for layer B"):
        edge_from_values(fibonacci, "B", [1, 2])


def test_arithmetic_keeps_the_class_fields_and_layer(fibonacci):
    y = DiagElem(coeffs=(Fraction(1), Fraction(-1, 2)))
    w = edge_from_values(fibonacci, "B", [1, -2, 3])
    # vertices are 1-based, and no other key reads a coefficient
    assert (y[1], y[2]) == (1, Fraction(-1, 2))
    for vertex in (0, -1, 3):
        with pytest.raises(IndexError, match=f"^vertex {vertex} is not in 1..2$"):
            y[vertex]
    for v in (y + y, y.scale(2)):
        assert type(v) is DiagElem and v == DiagElem(coeffs=(Fraction(2), Fraction(-1)))
    for v in (w + w, w.scale(2)):
        assert type(v) is EdgeElem and v == edge_from_values(fibonacci, "B", [2, -4, 6])
    assert (w + w.scale(-1)).is_zero() and not w.is_zero()
    # scaling by an int still gives exact rationals
    assert all(type(c) is Fraction for c in w.scale(3).coeffs + y.scale(3).coeffs)
    assert EdgeElem._fields == ("layer", "coeffs")
    assert repr(EdgeElem.basis(fibonacci, by_id(fibonacci, "A:1->2#1"))) == (
        "EdgeElem(layer='A', coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)))"
    )
    assert repr(DiagElem.basis(2, 2)) == "DiagElem(coeffs=(Fraction(0, 1), Fraction(1, 1)))"
    with pytest.raises(AttributeError):
        w.layer = "A"
