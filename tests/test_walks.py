"""Prefix-order lattice walks, the filtered axiom sweep and flats after a
passed sweep, each against the per-space computation it replaces."""

import random
from collections import defaultdict

import pytest

from qmatroids import (
    Mat,
    check_rank_axioms,
    direct_sum,
    from_matrix,
    lattice,
    lmap_from_matrix,
    submodular_completion,
    uniform,
)
from qmatroids.errors import FlatAxiomViolation
from qmatroids.fields import ground_field, make_field
from qmatroids.qmatroid import flat_violations, from_rank_vector, r2_r3_violations
from qmatroids.subspaces import decode_vector, row_rank

AMBIENTS = [(2, 1), (2, 4), (2, 5), (3, 3), (4, 2), (5, 2)]


def random_matrix(rng, spec, rows, cols):
    """A random rows x cols matrix over ``spec`` of full row rank."""
    while True:
        G = Mat(spec, rows, cols, [rng.randrange(spec.order) for _ in range(rows * cols)])
        if G.rank() == rows:
            return G


def _pk(q):
    """(p, k) with q = p^k."""
    F = ground_field(q)
    return F.p, F.k


def reference_r2_r3(lat, values):
    """The unfiltered sweep: every cover pair, then every height-2
    interval grouped by its top."""
    spaces, upper = lat.spaces, lat.upper
    for i in range(lat.size):
        for j in upper[i]:
            if values[i] > values[j]:
                yield ("R2", (spaces[i], spaces[j]), (values[i], values[j]))
    for a in range(lat.size):
        middles = defaultdict(list)
        for b in upper[a]:
            for top in upper[b]:
                middles[top].append(b)
        failing = []
        for top, mids in middles.items():
            b, c = sorted(mids, key=values.__getitem__)[:2]
            if values[top] + values[a] > values[b] + values[c]:
                failing.append((top, min(b, c), max(b, c)))
        for top, b, c in sorted(failing):
            yield ("R3", (spaces[b], spaces[c]),
                   (values[top] + values[a], values[b] + values[c]))


@pytest.mark.parametrize("q,n", AMBIENTS)
def test_prefix_order_lists_each_id_once_after_its_hyperplane(q, n):
    lat = lattice(q, n)
    order = list(lat.prefix_order)
    assert sorted(order) == list(range(lat.size))
    position = {i: k for k, i in enumerate(order)}
    ids = {codes: i for i, codes in enumerate(lat.basis_codes)}
    for k, i in enumerate(order):
        codes = lat.basis_codes[i]
        if codes:
            h = ids[codes[:-1]]  # the RREF hyperplane is a space of the lattice
            assert lat.dims[h] == lat.dims[i] - 1
            assert lat.contains_ids(i, h)
            # only extensions of the hyperplane lie between it and the space
            assert all(lat.basis_codes[j][:len(codes) - 1] == codes[:-1]
                       for j in order[position[h] + 1:k])


@pytest.mark.parametrize("q,n,ms", [(2, 4, (2, 5)), (3, 3, (2, 3)), (4, 3, (2, 3))])
def test_matrix_rank_vector_against_row_rank(q, n, ms):
    # m < n and m >= n, and every k = 1..n
    lat = lattice(q, n)
    rng = random.Random(q * 100 + n)
    for m in ms:
        spec = make_field(*_pk(q), m)
        for k in range(1, n + 1):
            G = random_matrix(rng, spec, k, n)
            columns = [G.entries[j::n] for j in range(n)]

            def image(code):
                # G v^T for the vector with this code, one column per digit
                row = [0] * k
                for d, column in zip(decode_vector(code, q, n), columns):
                    row = [spec.add(x, spec.mul(d, y)) for x, y in zip(row, column)]
                return row

            want = [row_rank(spec, map(image, codes), k) for codes in lat.basis_codes]
            assert from_matrix(G).rank_vector() == want, (q, n, m, k)


@pytest.mark.parametrize("q,n1,n2", [(2, 5, 5), (2, 3, 5), (2, 5, 2), (3, 4, 4),
                                     (3, 2, 4), (3, 4, 3), (4, 3, 3), (4, 2, 3)])
def test_image_ids_against_span_of_basis_images(q, n1, n2):
    F = ground_field(q)
    rng = random.Random(q * 100 + n1 * 10 + n2)
    lat1, lat2 = lattice(q, n1), lattice(q, n2)
    for j in range(F.k):  # semilinear twists where Aut(F_q) is not trivial
        u = [rng.randrange(1, q) for _ in range(n1)]
        v = [rng.randrange(1, q) for _ in range(n2)]
        for A in (Mat(F, n1, n2, [0] * (n1 * n2)),  # zero, rank 1, random
                  Mat(F, n1, n2, [F.mul(x, y) for x in u for y in v]),
                  Mat(F, n1, n2, [rng.randrange(q) for _ in range(n1 * n2)])):
            phi = lmap_from_matrix(A, automorphism=j)
            image = phi.table.__getitem__
            want = [lat2.span_id(map(image, codes)) for codes in lat1.basis_codes]
            assert phi.image_ids == want, (A, j)
            # and the image of each space is the span of all its vectors' images
            assert all(lat2.spaces[e] == phi.image_of(S)
                       for e, S in zip(phi.image_ids, lat1.spaces))


def _perturbed(rng, lat, rv):
    """Copies of the valid rank vector ``rv`` that break R1, R2 and R3,
    and some with a few random changes."""
    dims, upper = lat.dims, lat.upper
    out = []
    inner = [i for i in range(lat.size) if 0 < dims[i] < lat.n]
    for i in rng.sample(inner, min(4, len(inner))):
        up = list(rv)
        up[i] = rv[upper[i][0]] + 1  # above an upper cover: R2 (and R1 if over dim)
        out.append(up)
        down = list(rv)
        down[i] -= 1  # below a lower cover or a middle too low: R2 or R3
        out.append(down)
    out.append([r + 1 for r in rv])  # R1 at the zero space
    out.append([min(r, d - 1) for r, d in zip(rv, dims)])  # R1 at the zero space
    for _ in range(4):
        noisy = list(rv)
        for i in rng.sample(range(lat.size), 3):
            noisy[i] += rng.choice((-1, 1))
        out.append(noisy)
    return out


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (4, 2), (2, 5)])
def test_filtered_sweep_against_unfiltered(q, n):
    lat = lattice(q, n)
    rng = random.Random(q * 10 + n)
    spec = make_field(*_pk(q), n)
    valid = [uniform(q, n, k).rank_vector() for k in range(n + 1)]
    valid += [from_matrix(random_matrix(rng, spec, k, n)).rank_vector()
              for k in range(1, n + 1)]
    kinds = set()
    for rv in valid:
        assert list(r2_r3_violations(lat, rv)) == []
        for bad in [rv] + _perturbed(rng, lat, rv):
            want = list(reference_r2_r3(lat, bad))
            assert list(r2_r3_violations(lat, bad)) == want
            kinds |= {v[0] for v in want}
            full = check_rank_axioms(from_rank_vector(q, n, bad), limit=None)
            assert [v for v in full.violations if v[0] != "R1"] == want
            kinds |= {v[0] for v in full.violations}
    assert kinds == {"R1", "R2", "R3"}


def _swept_valid(q, n):
    rng = random.Random(q * 10 + n)
    spec = make_field(*_pk(q), n)
    A, B = (from_matrix(random_matrix(rng, spec, k, n)) for k in (1, 2))
    yield from_matrix(random_matrix(rng, spec, 2, n))
    yield uniform(q, n, n // 2)
    yield submodular_completion(q, n, lambda V: A.rank(V) + B.rank(V))
    yield direct_sum(uniform(q, 1, 1), from_matrix(random_matrix(rng, spec, 1, n - 1))).total


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3)])
def test_flats_after_a_passed_sweep_satisfy_the_axioms(q, n):
    for M in _swept_valid(q, n):
        assert check_rank_axioms(M).ok
        fam = M.flats()
        assert list(flat_violations(fam)) == []
        # the family an unswept copy of the vector checks and returns
        assert fam == from_rank_vector(q, n, M.rank_vector()).flats()


def test_unswept_invalid_vector_still_raises_from_flats():
    # rank 1 at the zero space of F_2^2: the three points are flats but
    # their meet, the zero space, is not
    def bad():
        return from_rank_vector(2, 2, [1, 1, 1, 1, 2])

    with pytest.raises(FlatAxiomViolation):
        bad().flats()
    M = bad()
    assert not check_rank_axioms(M).ok
    with pytest.raises(FlatAxiomViolation):
        M.flats()
    M = bad()
    assert check_rank_axioms(M, limit=0).ok  # no sweep ran
    with pytest.raises(FlatAxiomViolation):
        M.flats()


def test_a_passed_sweep_does_not_follow_the_callers_list():
    values = uniform(2, 2, 1).rank_vector()[:]
    M = from_rank_vector(2, 2, values)
    assert check_rank_axioms(M).ok
    values[0] = 1  # the invalid vector of the test above
    assert M.rank_vector() == [0, 1, 1, 1, 1]
    assert list(flat_violations(M.flats())) == []


@pytest.mark.parametrize("q,n", AMBIENTS)
def test_prefix_fold_steps_from_the_rref_hyperplane(q, n):
    # folding the last codes back onto the hyperplane's state rebuilds
    # every basis, so each step started from the right state
    lat = lattice(q, n)
    assert lat.prefix_fold((), lambda codes, c: codes + (c,), tuple) == lat.basis_codes
