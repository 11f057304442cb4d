"""RREF, lattice operations, enumeration counts and the quotient map."""

import functools
import itertools
import operator
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
    kernels,
    lattice,
    meet,
    one_spaces,
    row_space,
    rref,
    subspaces_of,
)
from qmatroids.errors import AmbientMismatch, EnumerationCapExceeded
from qmatroids.fields import ground_field
from qmatroids.subspaces import (
    code_arithmetic,
    count_subspaces,
    decode_vector,
    encode_vector,
    mask_ids,
)

from helpers import (
    fresh_python,
    quotient_map,
    reference_combination,
    reference_rref,
    reference_subspaces,
    vec_add,
    vec_scale,
    vector_at,
)

# every ambient within the caps with at most 400 spaces, q in {2, 3, 4, 5}
SMALL_AMBIENTS = [(q, n) for q in (2, 3, 4, 5) for n in range(1, 8)
                  if count_subspaces(q, n) <= 400]


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
    @given(st.sampled_from([2, 3, 4]).flatmap(lambda q: st.tuples(
        st.just(q), st.lists(st.tuples(*[st.integers(0, q - 1)] * 4), max_size=5))))
    def test_idempotent_and_canonical(self, q_rows):
        q, rows = q_rows
        red, rank = rref(rows, q, 4)
        red2, rank2 = rref(list(red), q, 4)
        assert (red, rank) == (red2, rank2)
        assert rank == len(red)
        pivots = [next(j for j, x in enumerate(r) if x) for r in red]
        assert pivots == sorted(pivots)
        for i, p in enumerate(pivots):
            assert all(red[k][p] == (1 if k == i else 0) for k in range(rank))

    @pytest.mark.parametrize("q,n,trials", [
        (2, 4, 300), (2, 7, 200), (3, 4, 300), (3, 11, 40), (4, 3, 300), (5, 3, 300)])
    def test_against_reference_elimination(self, q, n, trials):
        # (3, 11) is beyond the enumeration caps: code arithmetic decodes per call
        rng = random.Random(q * 100 + n)
        for _ in range(trials):
            rows = [tuple(rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(n))
                    for _ in range(rng.randint(0, n + 2))]
            want = reference_rref(rows, q, n)
            assert rref(rows, q, n) == want, rows
            codes = [encode_vector(row, q) for row in rows]
            assert Subspace.from_codes(q, n, codes).basis == want[0], rows

    @pytest.mark.parametrize("n", range(1, 8))
    def test_gf2_kernel_on_more_rows_than_columns(self, n):
        # every row past the rank reduces to zero; the kernel returns the
        # reduced rows by ascending pivot bit
        rng = random.Random(n)
        for _ in range(100):
            rows = [tuple(rng.randrange(2) for _ in range(n))
                    for _ in range(rng.randint(n + 1, 3 * n))]
            want_rows, want_rank = reference_rref(rows, 2, n)
            codes, rank = kernels.gf2_rref([encode_vector(row, 2) for row in rows], n)
            assert rank == want_rank, rows
            assert tuple(decode_vector(c, 2, n) for c in codes) == want_rows, rows

    @pytest.mark.parametrize("q,n,rows", [
        (2, 3, [(2, 0, 0)]),
        (2, 3, [(1, 0, 0, 1)]),
        (2, 2, [(1, 1, 1)]),
        (3, 2, [(5, 1)]),
        (3, 2, [(1, -1)]),
        (2, 2, [(1.0, 0)]),
    ])
    def test_malformed_rows_rejected(self, q, n, rows):
        with pytest.raises(ValueError, match=f"not a vector of F_{q}\\^{n}"):
            rref(rows, q, n)
        with pytest.raises(ValueError, match=f"not a vector of F_{q}\\^{n}"):
            Subspace.from_rows(q, n, rows)

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

    def test_rows_are_stored_as_codes(self):
        # (2, 1, 0) scales to (1, 2, 0): code 1 + 2 * 3; the tuple basis is
        # decoded on each read, not stored
        S = row_space(3, 3, [(2, 1, 0), (0, 0, 1)])
        assert S.codes == (7, 9) and S.pivots() == (0, 2)
        assert S.basis == ((1, 2, 0), (0, 0, 1))
        assert Subspace.__slots__ == ("q", "n", "codes", "_hash")
        assert S == Subspace(3, 3, (7, 9)) and hash(S) == hash(Subspace(3, 3, (7, 9)))


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

    @pytest.mark.parametrize("q,n", SMALL_AMBIENTS)
    def test_counts_match_gaussian(self, q, n):
        for d in range(n + 1):
            assert len(list(enumerate_subspaces(q, n, d))) == gaussian_binomial(n, d, q)

    @pytest.mark.parametrize("q,n", SMALL_AMBIENTS)
    def test_against_tuple_enumeration(self, q, n):
        # the code-native lattice lists the bases of the digit-tuple
        # enumeration, in its order, and holds each space's codes once
        lat = lattice(q, n)
        assert [S.basis for S in lat.spaces] == list(reference_subspaces(q, n))
        assert all(codes is S.codes for codes, S in zip(lat.basis_codes, lat.spaces))
        # subspaces_of and one_spaces: that enumeration of F_q^dim V,
        # carried into V through its basis and reduced
        for V in lat.spaces:
            inner = [reference_rref([reference_combination(c, V.basis, q) for c in rows],
                                    q, n)[0] for rows in reference_subspaces(q, V.dim)]
            assert [S.basis for S in subspaces_of(V)] == inner
            assert [S.basis for S in one_spaces(V)] == [
                b for b in inner if len(b) == 1]

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
            # 2^16 vectors are within the vector cap, its subspaces are not
            list(enumerate_subspaces(2, 16))

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
        assert all(pi.table[c] == c for c in range(8))

    def test_full_kernel(self):
        pi, d = quotient_map(Subspace.full(2, 3))
        assert d == 0
        assert all(pi.table[c] == 0 for c in range(8))

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
        images = {pi.table[c] for c in range(16)}
        assert len(images) == 2 ** d
        kernel = [c for c in range(16) if pi.table[c] == 0]
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

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2)])
    def test_contains_ids_against_direct(self, q, n):
        lat = lattice(q, n)
        for i, j in lattice_pairs(lat, None):
            assert lat.contains_ids(i, j) == contains(lat.spaces[i], lat.spaces[j])

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (5, 2)])
    def test_ids_of_every_space(self, q, n):
        # id_of spans a space's codes
        lat = lattice(q, n)
        assert lat.spaces[lat.zero_id] == Subspace.zero(q, n)
        for i, S in enumerate(lat.spaces):
            assert lat.id_of(S) == i

    def test_id_of_a_subspace_of_another_ambient(self):
        lat = lattice(2, 3)
        # the first has the codes of a space of F_2^3
        for S in (Subspace.from_rows(2, 4, [(1, 0, 0, 0)]), Subspace.full(2, 2),
                  Subspace.full(3, 3), Subspace.zero(3, 3)):
            with pytest.raises(AmbientMismatch):
                lat.id_of(S)

    @pytest.mark.parametrize("q,n,samples", ORDER_CASES + [(5, 2, None)])
    def test_order_tables_against_vector_masks(self, q, n, samples):
        # sub_masks, above and the cover lists against pairwise
        # containment of vector sets and dimensions: a cover is a space
        # containing another whose dimension is one more
        lat = lattice(q, n)
        dims, subs = lat.dims, lat.sub_masks
        vm = [sum(1 << code for code in range(q ** n)
                  if S.contains_vector(decode_vector(code, q, n))) for S in lat.spaces]
        for i, j in lattice_pairs(lat, samples):
            below = vm[i] & vm[j] == vm[j]  # space j <= space i
            assert (subs[i] >> j) & 1 == below
            assert contains(lat.spaces[i], lat.spaces[j]) == below
            assert (lat.above(j) >> i) & 1 == below
        for i in range(lat.size):
            assert lat.upper[i] == [j for j in range(lat.size) if dims[j] == dims[i] + 1
                                    and vm[j] & vm[i] == vm[i]]

    @pytest.mark.parametrize("q,n", [(q, n) for q, n, _ in ORDER_CASES] + [(5, 2)])
    def test_vector_and_layer_masks(self, q, n):
        lat = lattice(q, n)
        for i, S in enumerate(lat.spaces):
            members = [code for code in range(q ** n)
                       if S.contains_vector(decode_vector(code, q, n))]
            assert len(members) == q ** S.dim
            assert [(lat.holders[code] >> i) & 1 for code in range(q ** n)] == [
                int(code in members) for code in range(q ** n)]
        # each dimension d is one run of consecutive ids, [n choose d]_q long
        runs = [len(list(group)) for _, group in itertools.groupby(lat.dims)]
        assert runs == [gaussian_binomial(n, d, q) for d in range(n + 1)]

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
                v = vector_at(S, coeffs)
                assert len(v) == n and S.coordinates_of(v) == coeffs
        outside = Subspace.from_rows(q, n, [[1] + [0] * (n - 1)])
        assert not outside.contains_vector([0] * (n - 1) + [1])
        assert outside.coordinates_of([0] * (n - 1) + [1]) is None

    # codes of one block of digits, then of two: (3,5) and (13,2) fill one
    # block, (7,3) spans two
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (4, 2), (5, 2), (7, 2),
                                     (8, 2), (9, 2), (3, 5), (13, 2), (7, 3)])
    def test_code_arithmetic_against_tuples(self, q, n):
        F = ground_field(q)
        add, scale = code_arithmetic(q)
        for u, v in itertools.product(range(q ** n), repeat=2):
            du, dv = decode_vector(u, q, n), decode_vector(v, q, n)
            assert add(u, v) == encode_vector(vec_add(du, dv, F), q)
        for c, v in itertools.product(range(q), range(q ** n)):
            assert scale(c, v) == encode_vector(
                vec_scale(c, decode_vector(v, q, n), F), q)

    @pytest.mark.parametrize("q,n", [(3, 9), (3, 11), (4, 9), (256, 2), (9, 5), (27, 3),
                                     (5, 6), (5, 5), (7, 4), (9, 3), (13, 5), (251, 3),
                                     (257, 3), (1024, 2)])
    def test_code_arithmetic_beyond_the_caps(self, q, n):
        # the same tables for codes of any length, of two blocks of digits
        # and more, within the caps and beyond them, and one digit per
        # block past q = 256: sample codes against tuple arithmetic
        F = ground_field(q)
        add, scale = code_arithmetic(q)
        rng = random.Random(q * 100 + n)
        for _ in range(200):
            u, v, c = rng.randrange(q ** n), rng.randrange(q ** n), rng.randrange(q)
            du, dv = decode_vector(u, q, n), decode_vector(v, q, n)
            assert add(u, v) == encode_vector(vec_add(du, dv, F), q)
            assert scale(c, v) == encode_vector(vec_scale(c, dv, F), q)

    def test_lattice_256_2_in_little_memory(self):
        # a fresh process, so no cached table is reused: q tables of q^n
        # codes would be 16.7M codes
        child = fresh_python("-c", (
            "import tracemalloc; from qmatroids import lattice; tracemalloc.start(); "
            "print(len(lattice(256, 2).spaces), tracemalloc.get_traced_memory()[1])"), timeout=60)
        assert child.returncode == 0, child.stderr
        spaces, peak = map(int, child.stdout.split())
        assert spaces == 259
        assert peak < 1 << 25

    def test_code_arithmetic_built_once(self):
        assert code_arithmetic(3) is code_arithmetic(3)
        assert code_arithmetic(3) is not code_arithmetic(5)
        assert code_arithmetic(3)[0] == ground_field(3).add

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

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (2, 5)])
    def test_minimal_ids_against_sub_masks(self, q, n):
        # the one pass over the cover lists against the definition on
        # sub_masks: the empty and full masks, random masks, and unions of
        # the up-sets and of the down-sets of a few seeds
        lat = lattice(q, n)
        subs = lat.sub_masks
        rng = random.Random(q * 100 + n)
        full = (1 << lat.size) - 1
        masks = [0, full]
        masks += [sum(1 << i for i in range(lat.size) if rng.random() < density)
                  for density in (0.02, 0.1, 0.5, 0.9)]
        for k in (1, 3, 10):
            seeds = rng.sample(range(lat.size), k)
            masks.append(functools.reduce(operator.or_, map(lat.above, seeds)))
            masks.append(functools.reduce(operator.or_, (subs[i] for i in seeds)))
        for mask in masks:
            want = [i for i in range(lat.size)
                    if (mask >> i) & 1 and subs[i] & mask & ~(1 << i) == 0]
            assert lat.minimal_ids(mask) == want
        assert lat.minimal_ids(full) == [lat.zero_id]
        assert lat.minimal_ids(masks[-1]) == [0]  # a down-set holds the zero space

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
