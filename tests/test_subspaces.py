"""RREF, lattice operations, enumeration counts and the quotient map."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatroids import (
    Mat,
    Subspace,
    complement,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    join,
    lattice,
    meet,
    one_spaces,
    quotient_map,
    row_space,
    rref,
    subspaces_of,
)
from qmatroids.errors import AmbientMismatch, EnumerationCapExceeded
from qmatroids.fields import ground_field
from qmatroids.subspaces import (
    DEFAULT_MAX_SUBSPACES,
    Caps,
    code_arithmetic,
    count_subspaces,
    decode_vector,
    encode_vector,
    mask_ids,
    vec_add,
    vec_scale,
)


class TestRref:
    def test_hand_elimination(self):
        red, rank = rref([(1, 1, 0), (0, 1, 1)], 2, 3)
        assert red == ((1, 0, 1), (0, 1, 1))
        assert rank == 2

    def test_zero_matrix(self):
        red, rank = rref([(0, 0), (0, 0)], 2, 2)
        assert red == () and rank == 0

    def test_equal_rows(self):
        red, rank = rref([(1, 1), (1, 1)], 2, 2)
        assert red == ((1, 1),) and rank == 1

    def test_gf3_normalization(self):
        red, rank = rref([(2, 1)], 3, 2)
        assert red == ((1, 2),)  # scaled by 2^{-1} = 2

    @settings(max_examples=150)
    @given(st.lists(st.tuples(*[st.integers(0, 1)] * 4), max_size=5))
    def test_idempotent_and_canonical(self, rows):
        red, rank = rref(rows, 2, 4)
        red2, rank2 = rref(list(red), 2, 4)
        assert (red, rank) == (red2, rank2)
        assert rank == len(red)
        pivots = [next(j for j, x in enumerate(r) if x) for r in red]
        assert pivots == sorted(pivots)
        for i, p in enumerate(pivots):
            assert all(red[k][p] == (1 if k == i else 0) for k in range(rank))

    @settings(max_examples=100)
    @given(st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=1, max_size=4),
           st.randoms(use_true_random=False))
    def test_row_space_invariant_under_shuffle(self, rows, rnd):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert row_space(2, 4, rows) == row_space(2, 4, shuffled)


class TestRowSpace:
    def test_swap_rows(self):
        S = row_space(2, 2, [(0, 1), (1, 0)])
        assert S.basis == ((1, 0), (0, 1)) and S.dim == 2

    def test_single_row(self):
        S = row_space(2, 4, [(1, 1, 1, 0)])
        assert S.dim == 1 and S.basis == ((1, 1, 1, 0),)

    def test_duplicate_rows(self):
        S = row_space(2, 2, [(1, 0), (1, 0)])
        assert S.dim == 1


class TestJoinMeet:
    def test_axes(self):
        e1 = row_space(2, 4, [(1, 0, 0, 0)])
        e2 = row_space(2, 4, [(0, 1, 0, 0)])
        assert join(e1, e2).basis == ((1, 0, 0, 0), (0, 1, 0, 0))
        assert meet(e1, e2).is_zero

    def test_t1_t2(self, t1, t2):
        assert join(t1, t2) == Subspace.full(2, 4)
        assert meet(t1, t2).is_zero

    def test_diagonal_plane(self, t1):
        # meet 0 with both summands 2-dimensional forces a 4-dimensional join
        V = row_space(2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
        assert meet(V, t1).is_zero
        assert join(V, t1).dim == 4

    def test_diagonal_line(self, t1):
        v = row_space(2, 4, [(1, 0, 1, 0)])
        assert meet(v, t1).is_zero
        assert join(v, t1).dim == 3

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            join(Subspace.full(2, 2), Subspace.full(2, 3))

    def test_modularity_exhaustive_f2_4(self):
        lat = lattice(2, 4)
        for i in range(lat.size):
            for j in range(lat.size):
                d_join = lat.dims[lat.join_id(i, j)]
                d_meet = lat.dims[lat.meet_id(i, j)]
                assert lat.dims[i] + lat.dims[j] == d_join + d_meet

    def test_complement_dimension(self):
        for S in enumerate_subspaces(3, 3):
            assert complement(S).dim == 3 - S.dim
            assert meet(S, complement(S)).dim + S.dim <= 3


class TestContains:
    def test_basic(self, t1):
        assert contains(t1, row_space(2, 4, [(1, 0, 0, 0)]))

    def test_disjoint(self, t1, t2):
        assert not contains(t1, t2)

    def test_reflexive(self, t1):
        assert contains(t1, t1)


class TestEnumeration:
    def test_count_35(self):
        assert gaussian_binomial(4, 2, 2) == 35
        assert len(list(enumerate_subspaces(2, 4, 2))) == 35

    def test_count_all_67(self):
        assert len(list(enumerate_subspaces(2, 4))) == 67

    def test_tiny(self):
        assert [S.dim for S in enumerate_subspaces(2, 1)] == [0, 1]

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_counts_match_gaussian(self, q, n):
        for d in range(n + 1):
            assert len(list(enumerate_subspaces(q, n, d))) == gaussian_binomial(n, d, q)

    def test_each_exactly_once(self):
        all_spaces = list(enumerate_subspaces(3, 3))
        assert len(all_spaces) == len(set(all_spaces)) == count_subspaces(3, 3)

    def test_order_by_dimension(self):
        dims = [S.dim for S in enumerate_subspaces(2, 3)]
        assert dims == sorted(dims)

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapExceeded):
            list(enumerate_subspaces(2, 20))
        with pytest.raises(EnumerationCapExceeded):
            list(enumerate_subspaces(2, 4, caps=Caps(max_subspaces=10)))

    def test_deterministic(self):
        a = [S.basis for S in enumerate_subspaces(3, 2)]
        b = [S.basis for S in enumerate_subspaces(3, 2)]
        assert a == b


class TestSubspacesOf:
    def test_t1_lines(self, t1):
        lines = list(subspaces_of(t1, 1))
        want = {row_space(2, 4, [v]) for v in
                [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]}
        assert set(lines) == want

    def test_zero(self):
        Z = Subspace.zero(2, 3)
        assert list(subspaces_of(Z)) == [Z]

    def test_planes_of_f23(self):
        assert len(list(subspaces_of(Subspace.full(2, 3), 2))) == 7


class TestOneSpaces:
    def test_full_f2_4(self):
        assert len(one_spaces(Subspace.full(2, 4))) == 15

    def test_zero(self):
        assert one_spaces(Subspace.zero(2, 4)) == []

    def test_f3_2(self):
        assert len(one_spaces(Subspace.full(3, 2))) == 4


class TestQuotientMap:
    def test_zero_kernel_is_identity(self):
        pi, d = quotient_map(Subspace.zero(2, 3))
        assert d == 3
        assert all(pi.apply_enc(c) == c for c in range(8))

    def test_full_kernel(self):
        pi, d = quotient_map(Subspace.full(2, 3))
        assert d == 0
        assert all(pi.apply_enc(c) == 0 for c in range(8))

    def test_axis_kernel(self):
        pi, d = quotient_map(row_space(2, 3, [(1, 0, 0)]))
        assert d == 2
        assert pi((1, 1, 0)) == (1, 0)
        assert pi((0, 1, 1)) == (1, 1)

    @pytest.mark.parametrize("rows", [
        [(1, 0, 0, 0)], [(1, 1, 0, 0), (0, 0, 1, 1)], [(0, 1, 1, 0)]])
    def test_linear_surjective_kernel(self, rows):
        X = row_space(2, 4, rows)
        pi, d = quotient_map(X)
        assert pi.is_linear
        images = {pi.apply_enc(c) for c in range(16)}
        assert len(images) == 2 ** d
        kernel = [c for c in range(16) if pi.apply_enc(c) == 0]
        assert sorted(kernel) == sorted(
            encode_vector(v, 2) for v in X.vectors())


class TestMat:
    def test_rank_over_extension(self, gf16):
        w = gf16.omega_val
        G = Mat(gf16, 2, 2, [1, w, w, gf16.pow(w, 2)])
        assert G.rank() == 1  # second row is w * first
        G2 = Mat(gf16, 2, 2, [1, w, 0, 1])
        assert G2.rank() == 2

    def test_mul_identity(self, gf16):
        A = Mat(gf16, 2, 2, [1, 2, 3, 4])
        I = Mat(gf16, 2, 2, [1, 0, 0, 1])
        assert A.mul(I).entries == A.entries


# exhaustive over every pair where samples is None, else that many seeded pairs
ORDER_CASES = [(2, 4, None), (3, 3, None), (4, 2, None), (2, 5, 1500), (3, 4, 1500)]


def lattice_pairs(lat, samples):
    if samples is None:
        return [(i, j) for i in range(lat.size) for j in range(lat.size)]
    rng = random.Random(lat.q * 100 + lat.n)
    return [(rng.randrange(lat.size), rng.randrange(lat.size)) for _ in range(samples)]


class TestLatticeCache:
    def test_meet_join_against_direct(self):
        lat = lattice(3, 2)
        for i in range(lat.size):
            for j in range(lat.size):
                assert lat.spaces[lat.meet_id(i, j)] == meet(lat.spaces[i], lat.spaces[j])
                assert lat.spaces[lat.join_id(i, j)] == join(lat.spaces[i], lat.spaces[j])

    @pytest.mark.parametrize("q,n,samples", ORDER_CASES)
    def test_meet_join_ids_against_direct(self, q, n, samples):
        lat = lattice(q, n)
        for i, j in lattice_pairs(lat, samples):
            assert lat.spaces[lat.meet_id(i, j)] == meet(lat.spaces[i], lat.spaces[j])
            assert lat.spaces[lat.join_id(i, j)] == join(lat.spaces[i], lat.spaces[j])

    @pytest.mark.parametrize("q,n,samples", ORDER_CASES)
    def test_order_tables_against_vector_masks(self, q, n, samples):
        # sub_masks and up_masks against pairwise containment of vector
        # sets, so each is the transpose of the other
        lat = lattice(q, n)
        vm, subs, ups = lat.vec_masks, lat.sub_masks, lat.up_masks
        for i, j in lattice_pairs(lat, samples):
            below = vm[i] & vm[j] == vm[j]  # space j <= space i
            assert (subs[i] >> j) & 1 == below
            assert (ups[j] >> i) & 1 == below

    @pytest.mark.parametrize("q,n", [(q, n) for q, n, _ in ORDER_CASES] + [(5, 2)])
    def test_vector_and_layer_masks(self, q, n):
        lat = lattice(q, n)
        for i, S in enumerate(lat.spaces):
            members = [code for code in range(q ** n)
                       if S.contains_vector(decode_vector(code, q, n))]
            assert lat.vec_masks[i] == sum(1 << code for code in members)
            assert len(members) == q ** S.dim
            assert [(lat.holders[code] >> i) & 1 for code in range(q ** n)] == [
                int(code in members) for code in range(q ** n)]
            assert [d for d in range(n + 1) if (lat.layer_masks[d] >> i) & 1] == [S.dim]

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (5, 2)])
    def test_vectors_in_coefficient_order(self, q, n):
        F = ground_field(q)
        for S in enumerate_subspaces(q, n):
            want = []
            for coeffs in itertools.product(range(q), repeat=S.dim):
                v = (0,) * n
                for c, row in zip(coeffs, S.basis):
                    v = tuple(F.base_add(x, F.base_mul(c, y)) for x, y in zip(v, row))
                want.append(v)
            assert list(S.vectors()) == want

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (5, 2)])
    def test_vector_at_inverts_coordinates(self, q, n):
        for S in enumerate_subspaces(q, n):
            for coeffs in itertools.product(range(q), repeat=S.dim):
                v = S.vector_at(coeffs)
                assert len(v) == n and S.coordinates_of(v) == coeffs
        outside = Subspace.from_rows(q, n, [[1] + [0] * (n - 1)])
        assert not outside.contains_vector([0] * (n - 1) + [1])
        assert outside.coordinates_of([0] * (n - 1) + [1]) is None

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (4, 2), (5, 2), (7, 2),
                                     (8, 2), (9, 2)])
    def test_code_arithmetic_against_tuples(self, q, n):
        F = ground_field(q)
        add, scale = code_arithmetic(q, n)
        for u, v in itertools.product(range(q ** n), repeat=2):
            du, dv = decode_vector(u, q, n), decode_vector(v, q, n)
            assert add(u, v) == encode_vector(vec_add(du, dv, F), q)
        for c, v in itertools.product(range(q), range(q ** n)):
            assert scale(c, v) == encode_vector(
                vec_scale(c, decode_vector(v, q, n), F), q)

    @pytest.mark.parametrize("q,n", [(3, 9), (3, 11), (4, 9)])
    def test_code_arithmetic_beyond_the_caps(self, q, n):
        # no q^n tables there: sample codes against tuple arithmetic
        assert count_subspaces(q, n) > DEFAULT_MAX_SUBSPACES
        F = ground_field(q)
        add, scale = code_arithmetic(q, n)
        rng = random.Random(q * 100 + n)
        for _ in range(200):
            u, v, c = rng.randrange(q ** n), rng.randrange(q ** n), rng.randrange(q)
            du, dv = decode_vector(u, q, n), decode_vector(v, q, n)
            assert add(u, v) == encode_vector(vec_add(du, dv, F), q)
            assert scale(c, v) == encode_vector(vec_scale(c, dv, F), q)

    def test_code_arithmetic_built_once(self):
        assert code_arithmetic(3, 4) is code_arithmetic(3, 4)
        assert code_arithmetic(3, 4) is not code_arithmetic(3, 3)

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    def test_minimal_ids_against_containment(self, q, n):
        lat = lattice(q, n)
        rng = random.Random(q * 10 + n)
        for density in (0.1, 0.5, 0.9):
            mask = sum(1 << i for i in range(lat.size) if rng.random() < density)
            want = [i for i in range(lat.size) if (mask >> i) & 1
                    and not any((mask >> j) & 1 and j != i and lat.contains_ids(i, j)
                                for j in range(lat.size))]
            assert lat.minimal_ids(mask) == want
        assert lat.minimal_ids(0) == []

    def test_vector_encoding_roundtrip(self):
        for code in range(81):
            assert encode_vector(decode_vector(code, 3, 4), 3) == code



class TestMaskIds:
    WIDTHS = [1, 7, 8, 9, 64, 1000, 8193, 29212]

    def _masks(self, rng, width):
        top = 1 << (width - 1)
        yield top
        yield rng.getrandbits(width) | top                          # dense
        yield sum(1 << b for b in rng.sample(range(width), min(width, 3))) | top
        yield sum(1 << b for b in rng.sample(range(width), min(width, 40)))
        yield (1 << width) - 1                                      # every bit
        yield 1 << rng.randrange(width)                             # one bit

    def test_against_bit_tests(self):
        rng = random.Random(2024)
        assert list(mask_ids(0)) == []
        for width in self.WIDTHS:
            for mask in self._masks(rng, width):
                assert list(mask_ids(mask)) == [
                    i for i in range(width) if mask >> i & 1]
