"""GF(2) kernels, each checked against an independent exhaustive reference."""

import itertools
import random

import pytest

from qmatroids import (
    Mat,
    Subspace,
    ground_field,
    is_isomorphic,
    kernels,
    lattice,
    lmap_from_matrix,
    pushforward,
)
from qmatroids.kernels import _pure
from qmatroids.qmatroid import _gl_search_generic
from qmatroids.repro import blockdiag_matroid


def test_active_backend_is_known():
    assert kernels.BACKEND == "pure"


def test_pure_rref_canonical():
    rows, rank = _pure.gf2_rref([0b1100, 0b0110, 0b1010], 4)
    assert rank == 2
    pivots = [r & -r for r in rows]
    assert pivots == sorted(pivots)


def test_pure_lmap_violation_detects_open_triple():
    # images e1, e2, e3 of a 2-space cannot be XOR-closed
    table = [0, 1, 2, 4]
    assert _pure.gf2_lmap_violation(table, 2) == (1, 2, 3)
    assert _pure.gf2_lmap_violation([0, 1, 2, 3], 2) is None


def test_pure_factor_search_forced_solution():
    # a free slot completing a triple of two fixed vectors is forced
    fixed = [0, 1, 2, -1]
    sol, nodes = _pure.gf2_factor_search(fixed, 2, [3], list(range(4)))
    assert sol == [0, 1, 2, 3]


def test_pure_factor_search_unsatisfiable():
    # fixed triple already violates closure: certificate without search
    fixed = [0, 1, 2, 4]
    sol, nodes = _pure.gf2_factor_search(fixed, 2, [], [])
    assert sol is None and nodes == 0


# ---------------------------------------------------------------------------
# exhaustive references

def _span(rows):
    """Every XOR combination of ``rows``."""
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return span


def _xor_closed(values):
    s = set(values)
    return all(x ^ y in s for x in s for y in s)


def _two_spaces(dim):
    """Nonzero triples (a, b, a^b) with a < b < a^b, in (a, b) order."""
    size = 1 << dim
    return [(a, b, a ^ b) for a in range(1, size) for b in range(a + 1, size)
            if a ^ b > b]


def _violations(table, dim):
    """The 2-spaces whose image set, with 0, is not XOR-closed."""
    return [t for t in _two_spaces(dim)
            if not _xor_closed([0] + [table[v] for v in t])]


def test_rref_against_span():
    rng = random.Random(1)
    for _ in range(800):
        n = rng.randint(1, 10)
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(0, n + 2))]
        red, rank = _pure.gf2_rref(rows, n)
        assert _span(red) == _span(rows)
        assert rank == len(red) and len(_span(rows)) == 1 << rank
        # canonical: nonzero rows in increasing pivot order, each pivot
        # (lowest set bit) cleared from every other row
        pivots = [r & -r for r in red]
        assert all(pivots) and pivots == sorted(set(pivots))
        assert all(not (other & p) for p, r in zip(pivots, red)
                   for other in red if other != r)
        # unique: the same span from shuffled, redundant rows reduces alike
        again = rows + [rows[0] ^ rows[-1]] if rows else []
        rng.shuffle(again)
        assert _pure.gf2_rref(again, n) == (red, rank)


def test_key_against_decoding():
    rng = random.Random(2)
    keys = {}
    for _ in range(200):
        n = rng.randint(1, 6)
        rows, rank = _pure.gf2_rref(
            [rng.randrange(1 << n) for _ in range(n)], n)
        key = _pure.gf2_key(rows, n)
        decoded = [(key >> (i * n)) & ((1 << n) - 1) for i in range(rank)]
        assert decoded == rows and key >> (rank * n) == 0
        space = (n, frozenset(_span(rows)))
        # equal keys exactly for equal spaces of the same ambient
        assert keys.setdefault((n, key), space) == space
    assert len(set(keys.values())) == len(keys)


def test_lmap_violation_against_closure():
    rng = random.Random(3)
    outcomes = set()
    for _ in range(400):
        dn = rng.randint(2, 4)
        table = [0] + [rng.randrange(16) for _ in range((1 << dn) - 1)]
        bad = _violations(table, dn)
        got = _pure.gf2_lmap_violation(table, dn)
        assert got == (bad[0] if bad else None)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_factor_search_against_enumeration():
    rng = random.Random(4)
    outcomes = set()
    for _ in range(150):
        dn = rng.randint(2, 3)
        size = 1 << dn
        if rng.random() < 0.5:
            # the table of a linear map F_2^dn -> F_2^3: always completable
            images = [rng.randrange(8) for _ in range(dn)]
            full = [0] * size
            for v in range(size):
                for i in range(dn):
                    if v >> i & 1:
                        full[v] ^= images[i]
        else:
            full = [0] + [rng.randrange(8) for _ in range(size - 1)]
        order = rng.sample(range(1, size), rng.randint(0, min(3, size - 1)))
        fixed = [-1 if v in order else full[v] for v in range(size)]
        value_order = rng.sample(range(8), 8)
        table, nodes = _pure.gf2_factor_search(fixed, dn, order, value_order)
        # the first valid completion when slots are filled in ``order`` and
        # values are tried in ``value_order``
        want = None
        for values in itertools.product(value_order, repeat=len(order)):
            cand = list(fixed)
            for v, x in zip(order, values):
                cand[v] = x
            if not _violations(cand, dn):
                want = cand
                break
        assert table == want
        assert nodes <= sum(8 ** d for d in range(1, len(order) + 1))
        if want is not None:
            assert nodes >= len(order)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def _generic_scan(M1, M2, prune):
    """qmatroid's q-generic GL scan on the inputs ``is_isomorphic`` prepares."""
    q, n = M1.ambient()
    lat = lattice(q, n)
    rv1, rv2 = M1.rank_vector(), M2.rank_vector()
    flag = [rv1[lat.id_of(Subspace.from_rows(
        q, n, [[int(c == r) for c in range(n)] for r in range(j)]))]
        for j in range(1, n + 1)]
    order = sorted(range(lat.size),
                   key=lambda i: (0 if rv1[i] < lat.dims[i] else 1, lat.dims[i], i))
    counters = [0, 0]
    rows = _gl_search_generic(q, n, lat, rv1, rv2, flag, prune, order, counters)
    return rows, counters[0], counters[1]


# an invertible 4x4 matrix over GF(2) that moves every standard flag space
SHEAR = [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 1]


@pytest.mark.parametrize("a, b, moved, prune, leaves, nodes", [
    (1, 2, False, False, 20160, 22905),
    (1, 2, False, True, 1152, 1521),
    (1, 1, False, False, 1, 4),
    (2, 2, False, True, 1, 4),
    (1, 1, True, False, 1976, 2246),
    (1, 1, True, True, 56, 86),
    (2, 2, True, False, 7438, 8452),
    (2, 2, True, True, 46, 136),
])
def test_gl_search_against_generic_scan(a, b, moved, prune, leaves, nodes):
    # N^(a) against N^(b) over F_2^4, or against its image under SHEAR;
    # is_isomorphic runs gl2_iso_search at q = 2
    M1, M2 = blockdiag_matroid(2, 4, a), blockdiag_matroid(2, 4, b)
    if moved:
        M2 = pushforward(M2, lmap_from_matrix(Mat(ground_field(2), 4, 4, SHEAR)))
    stats = {}
    witness = is_isomorphic(M1, M2, prune=prune, stats=stats)
    rows = (None if witness is None else
            [list(witness.linear_matrix.row(i)) for i in range(4)])
    assert (rows, stats["leaves"], stats["nodes"]) == _generic_scan(M1, M2, prune)
    assert (stats["leaves"], stats["nodes"]) == (leaves, nodes)
    assert (rows is None) == (a != b)
