"""Shared fixtures: fields, canonical subspaces, and the repro matroids."""

from __future__ import annotations

import pytest

from qmatroids import (
    Subspace,
    direct_sum,
    make_field,
    uniform,
)
from qmatroids.repro import blockdiag_matroid, example_nonrepresentable


def _xor_closed(values):
    s = set(values)
    return all(x ^ y in s for x in s for y in s)


@pytest.fixture(scope="session")
def xor_violations():
    """Oracle for maps of F_2^dim given as tables of codes: the 2-spaces
    {0, a, b, a^b}, as triples (a, b, a^b) with a < b < a^b in (a, b)
    order, whose image set with 0 is not XOR-closed."""
    def violations(table, dim):
        size = 1 << dim
        triples = [(a, b, a ^ b) for a in range(1, size)
                   for b in range(a + 1, size) if a ^ b > b]
        return [t for t in triples
                if not _xor_closed([0] + [table[v] for v in t])]
    return violations


@pytest.fixture(scope="session")
def gf16():
    return make_field(2, 1, 4)


@pytest.fixture(scope="session")
def gf81():
    return make_field(3, 1, 4)


@pytest.fixture(scope="session")
def t1():
    return Subspace.from_rows(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])


@pytest.fixture(scope="session")
def t2():
    return Subspace.from_rows(2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])


@pytest.fixture(scope="session")
def n1_matroid():
    return blockdiag_matroid(2, 4, 1)


@pytest.fixture(scope="session")
def n2_matroid():
    return blockdiag_matroid(2, 4, 2)


@pytest.fixture(scope="session")
def spread_matroid():
    return example_nonrepresentable()


@pytest.fixture(scope="session")
def uniform_sum():
    return direct_sum(uniform(2, 2, 1), uniform(2, 2, 1))


@pytest.fixture(scope="session")
def repro_matroids(spread_matroid, n1_matroid, n2_matroid, uniform_sum):
    """The named matroids every exhaustive sweep runs over."""
    ms = {"ex-2-2": spread_matroid, "N1": n1_matroid, "N2": n2_matroid,
          "sum": uniform_sum.total}
    for k in range(5):
        ms[f"U{k}"] = uniform(2, 4, k)
    return ms
