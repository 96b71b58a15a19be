import sys

import pytest

import quadtex as q

FIB = [[1, 1], [1, 0]]


def by_id(ts, edge_id):
    for e in ts.edges_a + ts.edges_b:
        if e.id == edge_id:
            return e
    raise KeyError(edge_id)


@pytest.fixture(scope="session")
def one_tile():
    return q.build_system([[1]], [[1]], "lex")


@pytest.fixture(scope="session")
def exchange_pair():
    return q.build_system([[2]], [[3]], "exchange")


@pytest.fixture(scope="session")
def fibonacci():
    return q.build_system(FIB, FIB, "lex")


@pytest.fixture(scope="session")
def fibonacci_alt():
    a = q.IntMatrix.from_rows(FIB)
    kappas = list(q.enumerate_kappas(a, a))
    assert len(kappas) == 2
    return q.build_system(FIB, FIB, kappas[1])


@pytest.fixture(scope="session")
def all_systems(one_tile, exchange_pair, fibonacci):
    return [one_tile, exchange_pair, fibonacci]


@pytest.fixture()
def digit_limit():
    """Set the interpreter's limit on the digits of a printed int for one
    test (``digit_limit(D)``; 0 is no limit), restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints ints of any length")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)
