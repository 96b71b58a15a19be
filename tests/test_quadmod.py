import random
from fractions import Fraction

import pytest

from quadtex.algebra import (
    DiagElem,
    EdgeElem,
    QuadVector,
    act_left_eta,
    act_left_rho,
    act_right_eta,
    act_right_rho,
    act_right_vertex,
    apply_edge,
    embed,
    inner_eta,
    inner_rho,
    inner_vertex,
    left_basis_vector,
    range_sum,
    sup_norm,
    top_basis_vector,
)
from quadtex.errors import LayerMismatch, UnknownEdge
from quadtex.textile import Edge
from conftest import by_id
from oracles import reconstruct_from_left_basis, reconstruct_from_top_basis, squared_norms


def random_vector(ts, rng):
    return QuadVector.from_values(
        ts, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in ts.tiles]
    )


def test_basis_inner_products(fibonacci):
    for i, tile in enumerate(fibonacci.tiles):
        e = QuadVector.basis(fibonacci, tile)
        assert inner_vertex(fibonacci, e, e) == DiagElem.basis(2, tile.vertex)
        for j, other in enumerate(fibonacci.tiles):
            if i != j:
                assert inner_vertex(
                    fibonacci, e, QuadVector.basis(fibonacci, other)
                ).is_zero()


def test_top_basis_eta_inner(exchange_pair):
    u1 = top_basis_vector(exchange_pair, by_id(exchange_pair, "A:1->1#1"))
    assert inner_eta(exchange_pair, u1, u1) == EdgeElem.unit(exchange_pair, "B")


def test_actions_scale_by_the_right_edge(exchange_pair, fibonacci):
    # unit acts as the identity
    rng = random.Random(5)
    xi = random_vector(exchange_pair, rng)
    assert act_left_rho(exchange_pair, xi, EdgeElem.unit(exchange_pair, "A")) == xi

    # a top projection kills the tiles with the other top edge
    p1 = EdgeElem.basis(exchange_pair, by_id(exchange_pair, "A:1->1#1"))
    acted = act_left_rho(exchange_pair, QuadVector.from_values(exchange_pair, [1] * 6), p1)
    for tile, c in zip(exchange_pair.tiles, acted.coeffs):
        assert c == (1 if tile.top.mult_index == 1 else 0)

    # a vertex mass annihilates exactly the tiles at the other vertex
    ones = QuadVector.from_values(fibonacci, [1] * 5)
    acted = act_right_vertex(fibonacci, ones, DiagElem.basis(2, 1))
    for tile, c in zip(fibonacci.tiles, acted.coeffs):
        assert c == (0 if tile.vertex == 2 else 1)


def test_action_layer_checks(exchange_pair):
    with pytest.raises(LayerMismatch):
        act_left_rho(exchange_pair, QuadVector.zeros(exchange_pair), EdgeElem.unit(exchange_pair, "B"))
    with pytest.raises(LayerMismatch):
        act_right_eta(exchange_pair, QuadVector.zeros(exchange_pair), EdgeElem.unit(exchange_pair, "A"))


def test_basis_vector_supports(exchange_pair, fibonacci):
    u1 = top_basis_vector(exchange_pair, by_id(exchange_pair, "A:1->1#1"))
    assert sum(u1.coeffs) == 3
    v1 = left_basis_vector(exchange_pair, by_id(exchange_pair, "B:1->1#1"))
    assert sum(v1.coeffs) == 2

    u = top_basis_vector(fibonacci, by_id(fibonacci, "A:1->1#1"))
    support = [t for t, c in zip(fibonacci.tiles, u.coeffs) if c]
    assert all(t.top.id == "A:1->1#1" for t in support)
    assert len(support) == 2

    with pytest.raises(UnknownEdge):
        top_basis_vector(fibonacci, Edge("A", 9, 9, 1))


def test_reconstruction(all_systems):
    rng = random.Random(11)
    for ts in all_systems:
        for tile in ts.tiles:
            e = QuadVector.basis(ts, tile)
            assert reconstruct_from_top_basis(ts, e) == e
            assert reconstruct_from_left_basis(ts, e) == e
        for _ in range(100):
            xi = random_vector(ts, rng)
            assert reconstruct_from_top_basis(ts, xi) == xi
            assert reconstruct_from_left_basis(ts, xi) == xi


def test_norms(exchange_pair):
    # squared norms, compared exactly
    e = QuadVector.basis(exchange_pair, exchange_pair.tiles[0])
    assert squared_norms(exchange_pair, e) == (1, 1, 1)
    u1 = top_basis_vector(exchange_pair, by_id(exchange_pair, "A:1->1#1"))
    vertex, _, eta = squared_norms(exchange_pair, u1)
    assert eta == 1
    assert vertex == 3
    assert squared_norms(exchange_pair, QuadVector.zeros(exchange_pair)) == (0, 0, 0)


def test_norm_equivalence_bounds(all_systems):
    rng = random.Random(23)
    for ts in all_systems:
        c_rho = max(range_sum(ts, embed(ts, "A", DiagElem.unit(ts.n_vertices))).coeffs)
        c_eta = max(range_sum(ts, embed(ts, "B", DiagElem.unit(ts.n_vertices))).coeffs)
        for _ in range(200):
            xi = random_vector(ts, rng)
            # squares of rho <= vertex <= sqrt(c_rho) rho, and likewise for eta
            vertex, rho, eta = squared_norms(ts, xi)
            assert rho <= vertex <= c_rho * rho
            assert eta <= vertex <= c_eta * eta


def test_vertex_pairing_collapses_both_edge_pairings(all_systems):
    rng = random.Random(37)
    for ts in all_systems:
        for _ in range(25):
            xi = random_vector(ts, rng)
            zeta = random_vector(ts, rng)
            by_vertex = inner_vertex(ts, xi, zeta)
            assert range_sum(ts, inner_rho(ts, xi, zeta)) == by_vertex
            assert range_sum(ts, inner_eta(ts, xi, zeta)) == by_vertex


def test_left_action_of_vertex_mass_moves_to_right_action(all_systems):
    # acting by a vertex mass on the left of a top basis vector equals the
    # right action of that mass pushed through the top edge
    for ts in all_systems:
        for alpha in ts.edges_a:
            u = top_basis_vector(ts, alpha)
            for v in range(1, ts.n_vertices + 1):
                y = DiagElem.basis(ts.n_vertices, v)
                lhs = act_left_rho(ts, u, embed(ts, "A", y))
                moved = apply_edge(ts, alpha, y)
                rhs = act_right_eta(ts, u, embed(ts, "B", moved))
                assert lhs == rhs
                assert inner_eta(ts, u, lhs) == embed(ts, "B", moved)


def test_left_actions_commute_and_agree_on_vertex_masses(all_systems):
    rng = random.Random(41)
    for ts in all_systems:
        for _ in range(20):
            xi = random_vector(ts, rng)
            w = EdgeElem.from_values(
                ts, "A", [Fraction(rng.randint(-3, 3)) for _ in ts.edges_a]
            )
            z = EdgeElem.from_values(
                ts, "B", [Fraction(rng.randint(-3, 3)) for _ in ts.edges_b]
            )
            assert act_left_rho(ts, act_left_eta(ts, xi, z), w) == act_left_eta(
                ts, act_left_rho(ts, xi, w), z
            )
            y = DiagElem.from_values(
                [Fraction(rng.randint(-3, 3)) for _ in range(ts.n_vertices)]
            )
            assert act_left_rho(ts, xi, embed(ts, "A", y)) == act_left_eta(
                ts, xi, embed(ts, "B", y)
            )


def test_sup_norm_helper():
    assert sup_norm(DiagElem.from_values([Fraction(-3), Fraction(2)])) == 3
    assert sup_norm(DiagElem.zeros(2)) == 0


def test_zero_support_basis_vectors_are_flagged():
    import quadtex as q
    from quadtex.textile import empty_basis_edges

    # both layers share the single bridge 1 -> 2, so nothing composes and
    # there are no tiles at all; every basis vector is empty and reported
    ts = q.build_system([[0, 1], [0, 0]], [[0, 1], [0, 0]], "lex")
    assert ts.tiles == ()
    for alpha in ts.edges_a:
        assert top_basis_vector(ts, alpha).is_zero()
    flagged = empty_basis_edges(ts)
    assert set(flagged) == set(ts.edges_a + ts.edges_b)


def test_quad_values_need_one_per_tile(fibonacci):
    with pytest.raises(ValueError, match="expected 5 coefficients"):
        QuadVector.from_values(fibonacci, [1, 2])


def test_quad_arithmetic_keeps_the_class(fibonacci):
    xi = QuadVector.from_values(fibonacci, [1, -2, 0, Fraction(1, 3), 4])
    half = xi.scale(Fraction(1, 2))
    assert type(half) is QuadVector
    assert half.coeffs == (Fraction(1, 2), -1, 0, Fraction(1, 6), 2)
    assert type(half + half) is QuadVector and half + half == xi
    assert xi.scale(0).is_zero() and xi.scale(0) == QuadVector.zeros(fibonacci)
    assert repr(QuadVector.basis(fibonacci, fibonacci.tiles[0])).startswith(
        "QuadVector(coeffs=(Fraction(1, 1), Fraction(0, 1),"
    )


def test_every_action_checks_its_layer(exchange_pair):
    xi = QuadVector.zeros(exchange_pair)
    a_unit, b_unit = EdgeElem.unit(exchange_pair, "A"), EdgeElem.unit(exchange_pair, "B")
    for act, wrong, message in (
        (act_right_rho, b_unit, "right rho action takes an A-layer vector"),
        (act_right_eta, a_unit, "right eta action takes a B-layer vector"),
        (act_left_rho, b_unit, "left rho action takes an A-layer vector"),
        (act_left_eta, a_unit, "left eta action takes a B-layer vector"),
    ):
        with pytest.raises(LayerMismatch) as exc:
            act(exchange_pair, xi, wrong)
        assert str(exc.value) == message


def test_left_basis_vector_rejects_a_foreign_edge(fibonacci):
    with pytest.raises(UnknownEdge, match="B:9->9#1 is not a B-layer edge of the system"):
        left_basis_vector(fibonacci, Edge("B", 9, 9, 1))
    # an A-edge is not a B-edge either
    with pytest.raises(UnknownEdge, match="A:1->1#1 is not a B-layer edge"):
        left_basis_vector(fibonacci, by_id(fibonacci, "A:1->1#1"))
