"""The kernels, each checked against an independent exhaustive reference."""

import functools
import itertools
import random
from math import prod

import pytest

from qmatroids import (
    Mat,
    Subspace,
    from_matrix,
    ground_field,
    is_isomorphic,
    kernels,
    lattice,
    lmap_from_matrix,
    lmap_from_table,
    make_field,
    pushforward,
    uniform,
)
from qmatroids.errors import NotAnLMap
from qmatroids.fields import prime_power
from qmatroids.kernels import _pure
from qmatroids.maps import lmap_checks, subspace_test
from qmatroids.qmatroid import _flag_depth, from_rank_vector
from qmatroids.repro import blockdiag_matroid
from qmatroids.subspaces import code_arithmetic, decode_vector

from helpers import reference_gl_iso_search


def test_active_backend_is_known():
    assert kernels.BACKEND == "pure"


def test_pure_rref_canonical():
    rows, rank = _pure.gf2_rref([0b1100, 0b0110, 0b1010], 4)
    assert rank == 2
    pivots = [r & -r for r in rows]
    assert pivots == sorted(pivots)


def test_pure_factor_search_forced_solution():
    # a free slot completing a triple of two fixed vectors is forced
    fixed = [0, 1, 2, -1]
    sol, nodes = _pure.factor_search(fixed, [3], range(4), lmap_checks(2, 2),
                                     subspace_test(2, 2))
    assert sol == [0, 1, 2, 3]


def test_pure_factor_search_unsatisfiable():
    # fixed triple already violates closure: certificate without search
    fixed = [0, 1, 2, 4]
    sol, nodes = _pure.factor_search(fixed, [], [], lmap_checks(2, 2), subspace_test(2, 3))
    assert sol is None and nodes == 0


# ---------------------------------------------------------------------------
# exhaustive references

def _span(rows):
    """Every XOR combination of ``rows``."""
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return span


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


def test_factor_search_against_enumeration(xor_violations):
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
        table, nodes = _pure.factor_search(fixed, order, value_order, lmap_checks(2, dn),
                                           subspace_test(2, 3))
        # the first valid completion when slots are filled in ``order`` and
        # values are tried in ``value_order``
        want = None
        for values in itertools.product(value_order, repeat=len(order)):
            cand = list(fixed)
            for v, x in zip(order, values):
                cand[v] = x
            if not xor_violations(cand, dn):
                want = cand
                break
        assert table == want
        assert nodes <= sum(8 ** d for d in range(1, len(order) + 1))
        if want is not None:
            assert nodes >= len(order)
        outcomes.add(want is None)
    assert outcomes == {True, False}
    # maps F_3^2 -> F_3^2, against the first completion lmap_from_table accepts
    F, outcomes = ground_field(3), set()
    for _ in range(60):
        if rng.random() < 0.5:
            full = lmap_from_matrix(Mat(F, 2, 2, [rng.randrange(3) for _ in range(4)])).table
        else:
            full = [0] + [rng.randrange(9) for _ in range(8)]
        order = rng.sample(range(1, 9), rng.randint(0, 2))
        fixed = [-1 if v in order else full[v] for v in range(9)]
        value_order = rng.sample(range(9), 9)
        table, nodes = _pure.factor_search(fixed, order, value_order, lmap_checks(3, 2),
                                           subspace_test(3, 2))
        want = None
        for values in itertools.product(value_order, repeat=len(order)):
            cand = list(fixed)
            for v, x in zip(order, values):
                cand[v] = x
            try:
                lmap_from_table(3, 2, 2, cand)
            except NotAnLMap:
                continue
            want = cand
            break
        assert table == want
        assert nodes <= sum(9 ** d for d in range(1, len(order) + 1))
        if want is not None:
            assert nodes >= len(order)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def _witness_rows(witness, n):
    if witness is None:
        return None
    return [list(witness.linear_matrix.row(i)) for i in range(n)]


# an invertible 4x4 matrix over GF(2) that moves every standard flag space
SHEAR = [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 1]

# the first witness of N^(a) -> N^(b) (or its SHEAR image) in scan order,
# by (a, b, moved), as found by the generic tuple-based GL scan that
# preceded the lattice-id kernel; the pairs not listed are not isomorphic
GENERIC_SCAN_WITNESS = {
    (1, 1, False): [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    (2, 2, False): [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    (1, 1, True): [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]],
    (2, 2, True): [[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 0], [1, 1, 0, 1]],
}


@pytest.mark.parametrize("a, b, moved, prune, leaves, nodes", [
    (1, 2, False, False, 20160, 22905),
    (1, 2, False, True, 0, 0),
    (1, 1, False, False, 1, 4),
    (2, 2, False, True, 1, 4),
    (1, 1, True, False, 1976, 2246),
    (1, 1, True, True, 12, 19),
    (2, 2, True, False, 7438, 8452),
    (2, 2, True, True, 1, 5),
])
def test_gl_search_against_generic_scan(a, b, moved, prune, leaves, nodes):
    # N^(a) against N^(b) over F_2^4, or against its image under SHEAR
    M1, M2 = blockdiag_matroid(2, 4, a), blockdiag_matroid(2, 4, b)
    if moved:
        M2 = pushforward(M2, lmap_from_matrix(Mat(ground_field(2), 4, 4, SHEAR)))
    stats = {}
    witness = is_isomorphic(M1, M2, prune=prune, stats=stats)
    assert _witness_rows(witness, 4) == GENERIC_SCAN_WITNESS.get((a, b, moved))
    assert (stats["leaves"], stats["nodes"]) == (leaves, nodes)
    if witness is not None:
        assert all(M2.rank(witness.image_of(S)) == M1.rank(S)
                   for S in lattice(2, 4).spaces)


def _gl_partial_counts(q, n):
    """The number of lists of k linearly independent vectors of F_q^n, k = 1..n."""
    return [prod(q ** n - q ** i for i in range(k)) for k in range(1, n + 1)]


@functools.lru_cache(maxsize=1)  # a test scans one (q, n); GL(4, 2)'s list is 11 MB
def _gl_in_scan_order(q, n):
    """The invertible matrices over GF(q) in the order of the search, rows
    ascending by code, each with its linear map: a row is skipped when it
    lies in the span of the rows above it."""
    F = ground_field(q)
    out = []

    def rows_below(codes):
        if len(codes) == n:
            A = Mat(F, n, n, [x for c in codes for x in decode_vector(c, q, n)])
            out.append((A, lmap_from_matrix(A)))
            return
        for v in range(1, q ** n):
            if Subspace.from_codes(q, n, codes + (v,)).dim > len(codes):
                rows_below(codes + (v,))

    rows_below(())
    return out


def _first_rank_preserving(M1, M2):
    """Brute force over GL(n, q) in the order of the search: the rows of the
    first rank-preserving matrix (None if there is none) and the number of
    invertible matrices up to and including it."""
    q, n = M1.ambient()
    spaces = lattice(q, n).spaces
    rv1 = M1.rank_vector()
    position = 0
    for A, phi in _gl_in_scan_order(q, n):
        position += 1
        if all(M2.rank(phi.image_of(S)) == r for S, r in zip(spaces, rv1)):
            return [list(A.row(i)) for i in range(n)], position
    return None, position


def _random_representable(spec, k, n, rng):
    # entries from the ground field half of the time, which makes loops
    while True:
        G = Mat(spec, k, n, [rng.randrange(rng.choice((spec.q, spec.order)))
                             for _ in range(k * n)])
        if G.rank() == k:
            return from_matrix(G)


def _random_invertible(F, n, rng):
    while True:
        A = Mat(F, n, n, [rng.randrange(F.q) for _ in range(n * n)])
        if A.rank() == n:
            return A


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_gl_search_against_brute_force(q, n):
    p, e = prime_power(q)
    spec = make_field(p, e, n)  # GF(q^n)
    F = ground_field(q)
    rng = random.Random(q * 10 + n)
    outcomes = set()
    for case in range(8):
        k = rng.randint(1, n - 1)
        M1 = _random_representable(spec, k, n, rng)
        if case < 3:  # isomorphic through a change of basis
            M2 = pushforward(M1, lmap_from_matrix(_random_invertible(F, n, rng)))
        elif case < 5:  # another rank: never isomorphic
            M2 = _random_representable(spec, k + 1, n, rng)
        else:  # the same rank: either way
            M2 = _random_representable(spec, k, n, rng)
        rows, position = _first_rank_preserving(M1, M2)
        if rows is None:
            assert position == _gl_partial_counts(q, n)[-1]
        for prune in (False, True):
            stats = {}
            witness = is_isomorphic(M1, M2, prune=prune, stats=stats)
            assert _witness_rows(witness, n) == rows
            if prune:
                assert stats["leaves"] <= position
            else:
                assert stats["leaves"] == position
        outcomes.add(rows is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("q, n, nodes", [
    (2, 2, 9), (2, 3, 217), (2, 4, 22905), (3, 2, 56), (3, 3, 11882),
    (4, 2, 195), (5, 2, 504),
])
def test_unpruned_scan_visits_all_of_gl(q, n, nodes):
    # a non-isomorphic pair: the exhausted counts certify the answer
    stats = {}
    assert is_isomorphic(uniform(q, n, 1), uniform(q, n, 2), prune=False,
                         stats=stats) is None
    partial = _gl_partial_counts(q, n)
    assert stats["leaves"] == stats["candidates"] == partial[-1]
    assert stats["nodes"] == sum(partial) == nodes


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("mode", ["linear", "semilinear"])
@pytest.mark.parametrize("prune", [False, True])
def test_scan_of_f_q_0_checks_the_empty_matrix(q, mode, prune):
    # GL(0, q) has one element, the empty matrix; it is a leaf with no nodes
    stats = {}
    witness = is_isomorphic(uniform(q, 0, 0), uniform(q, 0, 0), mode=mode,
                            prune=prune, stats=stats)
    assert witness is not None and _witness_rows(witness, 0) == []
    assert (stats["leaves"], stats["nodes"]) == (1, 0)
    autos = ground_field(q).k if mode == "semilinear" else 1
    assert stats["candidates"] == autos


def _relabelled_pair(q, n, dim, rng):
    """Two rank vectors, not q-matroids, that are dim V on every space V
    except those of dimension ``dim``, which get random labels in M1 and
    a shuffle of the same labels in M2.  Their (dim, rank) histograms
    agree, and at dim = 1 so do their point colours, so only a scan
    tells them apart."""
    lat = lattice(q, n)
    ids = [i for i in range(lat.size) if lat.dims[i] == dim]
    values = rng.choice((2, 3, None))  # None: every label distinct
    labels = [rng.randrange(values) for _ in ids] if values else list(range(len(ids)))
    shuffled = rng.sample(labels, len(labels))
    pair = []
    for chosen in (labels, shuffled):
        rv = list(lat.dims)
        for i, label in zip(ids, chosen):
            rv[i] = label
        pair.append(from_rank_vector(q, n, rv))
    return pair


@pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_pruned_answers_agree_with_the_unpruned_scan(q, n):
    # refusals and exhausted colour scans against the exhaustive scan of
    # GL(n, q); a witness is the first in scan order either way
    p, e = prime_power(q)
    spec = make_field(p, e, n)
    F = ground_field(q)
    rng = random.Random(100 * q + n)
    modes = ["linear", "semilinear"] if F.k > 1 else ["linear"]
    outcomes = set()
    for case in range(8 if (q, n) in [(2, 4), (3, 3)] else 24):
        kind = case % 4
        if kind < 2:
            M1 = _random_representable(spec, rng.randint(1, n - 1), n, rng)
            if kind == 0:  # another rank
                M2 = _random_representable(spec, M1.matroid_rank + 1, n, rng)
            else:  # a change of basis
                M2 = pushforward(M1, lmap_from_matrix(_random_invertible(F, n, rng)))
        else:  # relabelled points, or 2-spaces
            M1, M2 = _relabelled_pair(q, n, min(kind - 1, n - 1), rng)
        for mode in modes:
            pruned, full = {}, {}
            w = is_isomorphic(M1, M2, mode=mode, stats=pruned)
            want = is_isomorphic(M1, M2, mode=mode, prune=False, stats=full)
            assert (w and w.table) == (want and want.table)
            assert full["refused"] is None
            if pruned["refused"]:
                assert want is None
                assert (pruned["leaves"], pruned["nodes"]) == (0, 0)
                outcomes.add(pruned["refused"])
            else:
                assert pruned["leaves"] <= full["leaves"]
                assert pruned["nodes"] <= full["nodes"]
                outcomes.add("found" if w else "exhausted")
    assert {"found", "(dim, rank) histograms differ"} <= outcomes
    if (q, n) != (3, 2):  # PGL(2, 3) is every permutation of the 4 points
        assert "exhausted" in outcomes
    if n > 2:  # at n = 2 a point's colour is its rank
        assert "point colours differ" in outcomes


PAIR_KINDS = ("image", "other rank", "relabelled", "relabelled image", "uniform first")


def _random_pair(q, n, kind, rng):
    """Two q-matroids (or rank vectors) on F_q^n: a random representable
    one and its image under a random change of basis (isomorphic), or one
    of another rank (never isomorphic); a relabelled pair (either way), or
    the first of one and its image (isomorphic); or, for n > 1, U(q, n, k)
    against a representable rank-k one whose ranks differ (never
    isomorphic, with (dim, rank) histograms that differ)."""
    F = ground_field(q)
    if n == 0:
        return uniform(q, 0, 0), uniform(q, 0, 0)
    if kind in ("relabelled", "relabelled image"):
        M1, M2 = _relabelled_pair(q, n, min(rng.randint(1, 2), n), rng)
    elif kind == "uniform first" and n > 1:
        M1 = uniform(q, n, rng.randint(1, n - 1))
        spec = make_field(*prime_power(q), n)
        M2 = M1
        while M2.rank_vector() == M1.rank_vector():
            M2 = _random_representable(spec, M1.matroid_rank, n, rng)
    else:
        M1 = _random_representable(make_field(*prime_power(q), n), rng.randint(1, n), n, rng)
        M2 = uniform(q, n, (M1.matroid_rank + 1) % (n + 1))
    if kind.endswith("image"):
        M2 = pushforward(M1, lmap_from_matrix(_random_invertible(F, n, rng)))
    return M1, M2


@pytest.mark.parametrize("q, n, kinds", [
    pytest.param(q, n, PAIR_KINDS * rounds, id=f"{q}-{n}")
    for q, n, rounds in [(q, n, 3) for q in (2, 3, 4) for n in range(3)]
    + [(2, 3, 3), (3, 3, 2), (2, 4, 2)]
] + [
    # the recursive scan of all of GL(3, 4) takes over a second
    pytest.param(4, 3, ("relabelled image",), id="4-3"),
])
def test_flat_last_row_agrees_with_the_recursive_scan(q, n, kinds, monkeypatch):
    # every kernel call that is_isomorphic makes is run again by the
    # recursive scan, which checks each leaf on a full image table: the
    # witness rows, leaves and nodes must be the same
    results = []

    def both(*args):
        got = _pure.gl_iso_search(*args)
        assert got == reference_gl_iso_search(*args)
        results.append(got)
        return got

    monkeypatch.setattr(kernels, "gl_iso_search", both)
    # semilinear differs from linear only over GF(4); (2, 4) is linear
    modes = ["linear", "semilinear"] if q == 4 else ["linear"]
    rng = random.Random(1000 * q + n)
    for kind in kinds:
        M1, M2 = _random_pair(q, n, kind, rng)
        for mode in modes:
            for prune in (False, True):
                is_isomorphic(M1, M2, mode=mode, prune=prune)
    assert any(rows is not None for rows, _, _ in results)
    if n and len(kinds) > 1:
        assert any(rows is None and leaves for rows, leaves, _ in results)
    if n > 1:  # a witness after the scan has backtracked
        assert any(rows is not None and nodes > n for rows, _, nodes in results)


def _scan_both_ways(monkeypatch):
    """Route every kernel call of is_isomorphic through the recursive
    scan as well, asserting the same rows, leaves and nodes; returns the
    list of results, in call order."""
    results = []

    def both(*args):
        got = _pure.gl_iso_search(*args)
        assert got == reference_gl_iso_search(*args)
        results.append(got)
        return got

    monkeypatch.setattr(kernels, "gl_iso_search", both)
    return results


def _loop_at(q, n, d):
    """The rank-1 q-matroid on F_q^n whose one loop is <e_d>: G lists the
    powers 1, x, .., x^(n-1) of GF(q^n), with column d zero."""
    p, e = prime_power(q)
    spec = make_field(p, e, n)
    M = from_matrix(Mat(spec, 1, n, [0 if i == d - 1 else q ** i for i in range(n)]))
    loops = [S for S in lattice(q, n).spaces if S.dim == 1 and M.rank(S) == 0]
    assert [S.codes for S in loops] == [(q ** (d - 1),)]
    return M


def _first_differing_depth(M1, M2):
    """The least d with a space inside <e_1..e_d> whose ranks differ: the
    depth of the first node-fixed check that fails in a plain scan, which
    meets the standard flag first."""
    q, n = M1.ambient()
    return min(_flag_depth(codes, q)
               for codes, r1, r2 in zip(lattice(q, n).basis_codes, M1.rank_vector(),
                                        M2.rank_vector()) if r1 != r2)


def _swap(q, n, d):
    """The permutation matrix exchanging e_d and e_(d+1)."""
    perm = list(range(n))
    perm[d - 1], perm[d] = d, d - 1
    return Mat(ground_field(q), n, n, [int(j == perm[i]) for i in range(n) for j in range(n)])


@pytest.mark.parametrize("q, n", [(2, 3), (3, 3), (2, 4)])
def test_node_fixed_checks_fail_at_every_depth(q, n, monkeypatch):
    # M1 has the one loop <e_d>.  Against U(q, n, 1) the first failing
    # check of the plain scan is <e_d>'s, decided at the first depth-d
    # node, and the exhausted counts certify that no witness exists.
    # Against its image under the swap of e_d and e_(d+1) every node
    # whose rows put a nonloop at e_d fails, and the witness follows the
    # counted subtrees of those nodes.
    results = _scan_both_ways(monkeypatch)
    partial = _gl_partial_counts(q, n)
    for d in range(1, n):
        M1 = _loop_at(q, n, d)
        U = uniform(q, n, 1)
        swapped = pushforward(M1, lmap_from_matrix(_swap(q, n, d)))
        assert _first_differing_depth(M1, U) == _first_differing_depth(M1, swapped) == d
        for prune in (False, True):
            stats = {}
            assert is_isomorphic(M1, U, prune=prune, stats=stats) is None
            if not prune:
                assert (stats["leaves"], stats["nodes"]) == (partial[-1], sum(partial))
            stats = {}
            witness = is_isomorphic(M1, swapped, prune=prune, stats=stats)
            assert witness is not None
            assert all(swapped.rank(witness.image_of(S)) == M1.rank(S)
                       for S in lattice(q, n).spaces)
            if not prune:  # past the subtree of the first depth-d node at least
                assert stats["leaves"] > prod(q ** n - q ** j for j in range(d, n))
    # per depth two plain scans and one pruned: pruned M1 vs U is refused unscanned
    assert len(results) == 3 * (n - 1)


@pytest.mark.parametrize("prune", [False, True])
def test_n1_against_n2_node_fixed(prune, monkeypatch):
    # Theorem 4.5's pair: no witness, and the plain scan's certificate is
    # all of GL(4, 2): 20,160 leaves and 15 + 210 + 2,520 + 20,160 nodes
    results = _scan_both_ways(monkeypatch)
    stats = {}
    assert is_isomorphic(blockdiag_matroid(2, 4, 1), blockdiag_matroid(2, 4, 2),
                         prune=prune, stats=stats) is None
    if prune:
        assert stats["refused"] and not results
    else:
        assert len(results) == 1
        assert (stats["leaves"], stats["nodes"]) == (20160, 22905)


@pytest.mark.parametrize("q, n", [(2, 3), (3, 3), (2, 4)])
def test_kernel_on_shuffled_candidates_agrees_with_the_recursive_scan(q, n):
    # the kernel on its own, with candidates in shuffled order, some rows
    # missing some codes, so that the subtrees it counts differ by span.
    # Plain scans (every check at depth n) in lattice order, with every
    # check that reads the last row first (each node-fixed check is a leaf
    # check), with the node-fixed checks first (each decided as the nodes
    # of its depth are entered), or in a seeded random order; or each
    # space checked at its flag depth or at the leaves, a pruned scan.
    # The check order changes only the time a scan takes
    lat = lattice(q, n)
    add, scale = code_arithmetic(q)
    rng = random.Random(10 * q + n)
    layouts = ("lattice order", "last row first", "node-fixed first", "random order", "pruned")
    seen = set()
    for kind in PAIR_KINDS:
        M1, M2 = _random_pair(q, n, kind, rng)
        candidates = []
        for _ in range(n):
            row = rng.sample(range(1, q ** n), q ** n - 1)
            candidates.append(row[:rng.choice((len(row), len(row) - 2))])
        for layout in layouts:
            spaces = list(zip(lat.basis_codes, M1.rank_vector()))
            if layout == "last row first":  # sorts are stable
                spaces.sort(key=lambda space: _flag_depth(space[0], q) < n)
            elif layout == "node-fixed first":
                spaces.sort(key=lambda space: _flag_depth(space[0], q) == n)
            elif layout == "random order":
                rng.shuffle(spaces)
            checks = [[] for _ in range(n + 1)]
            for codes, rank in spaces:
                d = rng.choice((_flag_depth(codes, q), n)) if layout == "pruned" else n
                checks[d].append((codes, rank))
            args = (n, q, lat.holders, candidates, checks, M2.rank_vector(), add, scale)
            got = _pure.gl_iso_search(*args)
            assert got == reference_gl_iso_search(*args)
            seen.add((layout, got[0] is None))
    assert seen == {(layout, none) for layout in layouts for none in (True, False)}


def _lacking_pairs(q, n, rng):
    """Pairs (M1, M2) where M2 lacks some (dim, rank) class of M1: random
    rank-k q-matroids against U(q, n, k), ranks differing, and two
    rank vectors that are dim V except on the spaces of one dimension,
    where M2 takes a shuffle of M1's labels with every copy of one label
    made another.  The reverse of each pair lacks no class of M1: U(q,
    n, k) has one class per dimension, of rank min(d, k), which every
    rank-k q-matroid has, and the relabelled M1 has every label of M2."""
    spec = make_field(*prime_power(q), n)
    pairs = []
    for _ in range(1 if q ** n > 16 else 2):  # fewer at (2,4) and (3,3)
        U = uniform(q, n, rng.randint(1, n - 1))
        M = U
        while M.rank_vector() == U.rank_vector():
            M = _random_representable(spec, U.matroid_rank, n, rng)
        pairs.append((M, U))
    lat = lattice(q, n)
    dim = rng.randint(1, n - 1)
    ids = [i for i in range(lat.size) if lat.dims[i] == dim]
    labels = rng.sample([i % 3 for i in range(len(ids))], len(ids))  # each of 0, 1, 2
    gone, kept = rng.sample(range(3), 2)
    shuffled = [kept if label == gone else label for label in rng.sample(labels, len(labels))]
    rv1, rv2 = list(lat.dims), list(lat.dims)
    for i, a, b in zip(ids, labels, shuffled):
        rv1[i], rv2[i] = a, b
    pairs.append((from_rank_vector(q, n, rv1), from_rank_vector(q, n, rv2)))
    return pairs


@pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_a_lacking_class_is_decided_at_the_root(q, n, monkeypatch):
    # a matrix (twisted or not) maps a d-space onto a d-space, so a space
    # whose (dim, rank) class M2 lacks fails at every leaf: the plain scan
    # fails at the root and counts all of GL(n, q), for each automorphism.
    # The reverse pairs lack no class and are walked.  Brute force finds
    # no witness either way.  (test_flat_last_row_agrees_with_the_recursive_scan
    # checks such scans against the recursive one, which walks every leaf)
    fired = []

    def recorded(*args):
        fired.append(bool(args[8]))  # lacking
        return _pure.gl_iso_search(*args)

    monkeypatch.setattr(kernels, "gl_iso_search", recorded)
    partial = _gl_partial_counts(q, n)
    for M1, M2 in _lacking_pairs(q, n, random.Random(20 * q + n)):
        for first, second, lacks in ((M1, M2, True), (M2, M1, False)):
            assert _first_rank_preserving(first, second) == (None, partial[-1])
            for mode in ("linear", "semilinear"):
                autos = ground_field(q).k if mode == "semilinear" else 1
                fired.clear()
                stats = {}
                assert is_isomorphic(first, second, mode=mode, prune=False, stats=stats) is None
                assert stats["leaves"] == partial[-1] * autos
                assert stats["nodes"] == sum(partial) * autos
                assert fired == [lacks] * autos
