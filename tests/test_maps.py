"""L-map verification, equivalence, tweaks and type classification."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatroids import (
    Mat,
    Subspace,
    classify_map,
    compose,
    embedding_map,
    enumerate_subspaces,
    identity_map,
    is_weak_linear_via_circuits,
    join,
    l_equivalent,
    lattice,
    lmap_from_matrix,
    lmap_from_table,
    meet,
    preimage,
    row_space,
    trivial,
    tweak_equivalent,
    uniform,
    zero_map,
)
from qmatroids.errors import NotAnLMap, NotBijective, ZeroNotFixed
from qmatroids.fields import ground_field
from qmatroids.maps import LClass, LMap, pointwise_scalars
from qmatroids.repro import example_nonrepresentable
from qmatroids.subspaces import decode_vector, encode_vector, over_vector_cap

from helpers import quotient_map


def brute_force_is_lmap(table, q, n1, n2):
    """Oracle: check the image of EVERY subspace is a subspace."""
    from qmatroids.subspaces import rref
    for S in enumerate_subspaces(q, n1):
        codes = {table[encode_vector(v, q)] for v in S.vectors()}
        rows = [decode_vector(c, q, n2) for c in codes if c]
        _, rank = rref(rows, q, n2)
        if q ** rank != len(codes):
            return False
    return True


def collapse_map(q, n):
    """The nonlinear L-map sending every nonzero vector to the all-ones vector."""
    ones = (1,) * n
    return lmap_from_table(q, n, n, lambda v: ones if any(v) else (0,) * n)


def drop_last_map():
    """(v1, v2, 0) -> (v1, v2) and (v1, v2, 1) -> 0; nonlinear, preimages break."""
    return lmap_from_table(2, 3, 2,
                           lambda v: (v[0], v[1]) if v[2] == 0 else (0, 0))


class TestFromTable:
    def test_collapse_is_valid_nonlinear(self):
        phi = collapse_map(2, 2)
        assert phi.verified and not phi.is_linear

    def test_drop_last_is_valid_nonlinear(self):
        phi = drop_last_map()
        assert phi.verified and not phi.is_linear

    def test_coordinate_swap_linear(self):
        phi = lmap_from_table(2, 2, 2, lambda v: (v[1], v[0]))
        assert phi.is_linear
        assert phi.linear_matrix.entries == (0, 1, 1, 0)

    def test_zero_not_fixed(self):
        with pytest.raises(ZeroNotFixed):
            lmap_from_table(2, 2, 2, lambda v: (1, 1))

    def test_not_an_lmap_witness(self):
        # three independent images of a 2-space cannot close up
        table = [0, 1, 2, 4]
        with pytest.raises(NotAnLMap) as ei:
            lmap_from_table(2, 2, 3, table)
        assert ei.value.witness == Subspace.full(2, 2)

    def test_open_triple_detected(self):
        # images e1, e2, e3 of a 2-space are not XOR-closed, so the 2-space
        # spanned by its three nonzero vectors is the witness; images
        # closed under XOR give a linear map
        with pytest.raises(NotAnLMap) as ei:
            lmap_from_table(2, 2, 3, [0, 1, 2, 4])
        triple = sorted(encode_vector(v, 2) for v in ei.value.witness.vectors() if any(v))
        assert triple == [1, 2, 3]
        assert lmap_from_table(2, 2, 3, [0, 1, 2, 3]).is_linear

    def test_first_failing_line_is_the_witness(self):
        # over GF(3) the identity with the images of (2,1) and (2,2)
        # swapped fails on two lines: <(1,1)> = {4, 8}, whose least code
        # is 4, and <(2,1)> = {5, 7}, whose least code is 5 but greatest 7.
        # lmap_checks lists lines by least code, so <(1,1)> is the witness
        table = [0, 1, 2, 3, 4, 8, 6, 7, 5]
        failing = [line for line in ((1, 2), (3, 6), (4, 8), (5, 7))
                   if Subspace.from_codes(3, 2, [table[c] for c in line]).dim != 1]
        assert failing == [(4, 8), (5, 7)]
        with pytest.raises(NotAnLMap) as ei:
            lmap_from_table(3, 2, 2, table)
        assert ei.value.witness == Subspace.from_codes(3, 2, [4])

    def test_verdict_against_closure(self, xor_violations):
        rng = random.Random(3)
        outcomes = set()
        for _ in range(400):
            dn = rng.randint(2, 4)
            table = [0] + [rng.randrange(16) for _ in range((1 << dn) - 1)]
            bad = xor_violations(table, dn)
            try:
                lmap_from_table(2, dn, 4, table)
                witness = None
            except NotAnLMap as e:
                witness = e.witness
            assert (witness is None) == (not bad)
            if witness is not None:
                # a 2-space whose image set is not a subspace
                triple = sorted(encode_vector(v, 2) for v in witness.vectors() if any(v))
                assert tuple(triple) in bad
            outcomes.add(witness is None)
        assert outcomes == {True, False}

    @settings(max_examples=120)
    @given(st.lists(st.integers(0, 7), min_size=7, max_size=7))
    def test_verifier_matches_bruteforce_f2(self, images):
        table = [0] + images
        verdict = brute_force_is_lmap(table, 2, 3, 3)
        try:
            lmap_from_table(2, 3, 3, table)
            got = True
        except NotAnLMap:
            got = False
        assert got == verdict

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 8), min_size=8, max_size=8))
    def test_verifier_matches_bruteforce_f3(self, images):
        table = [0] + images
        verdict = brute_force_is_lmap(table, 3, 2, 2)
        try:
            lmap_from_table(3, 2, 2, table)
            got = True
        except NotAnLMap:
            got = False
        assert got == verdict

    @settings(max_examples=120)
    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.integers(0, 1), st.integers(1, 15), st.integers(1, 15))
    def test_verifier_matches_bruteforce_f4(self, entries, automorphism, a, b):
        # GF(4) adds by XOR but scales non-trivially: a (semi)linear table
        # with two images swapped stays an L-map when a and b share a line
        # and breaks a line image otherwise (for invertible matrices)
        A = Mat(ground_field(4), 2, 2, entries)
        table = list(lmap_from_matrix(A, automorphism=automorphism).table)
        table[a], table[b] = table[b], table[a]
        verdict = brute_force_is_lmap(table, 4, 2, 2)
        try:
            lmap_from_table(4, 2, 2, table)
            got = True
        except NotAnLMap:
            got = False
        assert got == verdict

    @pytest.mark.parametrize("q, n1, n2", [(2, 3, 17), (3, 2, 11)])
    def test_codomain_over_vector_cap(self, q, n1, n2):
        # F_q^n2 has more vectors than the vector cap, so no codomain
        # lattice may be built.  Swapping the images of two non-parallel
        # vectors of an injective map breaks the image of a line or
        # 2-space (over F_2^2 every swap keeps the one 2-space's image,
        # hence a domain F_2^3)
        assert over_vector_cap(q, n2)
        rng, F = random.Random(n2), ground_field(q)
        while True:
            A = Mat(F, n1, n2, [rng.randrange(q) for _ in range(n1 * n2)])
            if A.rank() == n1:
                break
        table = list(lmap_from_matrix(A).table)
        phi = lmap_from_table(q, n1, n2, table)
        assert phi.is_linear and phi.linear_matrix == A
        table[1], table[q] = table[q], table[1]  # the images of e_1 and e_2
        with pytest.raises(NotAnLMap):
            lmap_from_table(q, n1, n2, table)

    def test_one_space_images_are_spans(self):
        # image of <v> equals the span of the image of v
        for phi in (collapse_map(2, 2), drop_last_map(), identity_map(3, 2)):
            q, n1 = phi.q, phi.n1
            for code in range(1, q ** n1):
                v = decode_vector(code, q, n1)
                img = phi.image_of(row_space(q, n1, [v]))
                w = phi(v)
                want = row_space(q, phi.n2, [w]) if any(w) \
                    else Subspace.zero(q, phi.n2)
                assert img == want


class TestFromMatrix:
    def test_identity(self):
        phi = identity_map(2, 3)
        assert phi.table == tuple(range(8))

    def test_project_first_coordinate(self):
        F = ground_field(2)
        phi = lmap_from_matrix(Mat(F, 2, 2, [1, 0, 0, 0]))
        assert phi((1, 1)) == (1, 0)
        assert phi((0, 1)) == (0, 0)

    def test_zero_map(self):
        phi = zero_map(2, 2, 2)
        assert set(phi.table) == {0}


class TestImagePreimage:
    def test_drop_last_preimage_of_zero_not_subspace(self):
        phi = drop_last_map()
        codes, is_sub, P = preimage(phi, Subspace.zero(2, 2))
        assert not is_sub and P is None
        assert len(codes) == 5  # 0 plus the four (v1, v2, 1) vectors

    def test_linear_preimages_always_subspaces(self):
        F = ground_field(2)
        phi = lmap_from_matrix(Mat(F, 3, 2, [1, 0, 0, 1, 1, 1]))
        for W in enumerate_subspaces(2, 2):
            _, is_sub, P = preimage(phi, W)
            assert is_sub and P is not None

    def test_collapse_preimages_are_subspaces(self):
        phi = collapse_map(2, 2)
        for W in enumerate_subspaces(2, 2):
            _, is_sub, _ = preimage(phi, W)
            assert is_sub


    @staticmethod
    def image_by_enumeration(phi, V):
        q, n1, n2 = phi.q, phi.n1, phi.n2
        codes = {phi.table[c] for c in range(q ** n1)
                 if V.contains_vector(decode_vector(c, q, n1))}
        return Subspace.from_rows(q, n2, [decode_vector(c, q, n2) for c in codes])

    @staticmethod
    def assert_image_ids(phi):
        # the image id of each domain space is the id of the set of the
        # table images of all its vectors (None if that set is not a
        # subspace)
        lat1, lat2 = lattice(phi.q, phi.n1), lattice(phi.q, phi.n2)
        assert len(phi.image_ids) == lat1.size
        for i, V in enumerate(lat1.spaces):
            image = {phi.table[encode_vector(v, phi.q)] for v in V.vectors()}
            assert phi.image_ids[i] == lat2.id_of(Subspace.from_codes(phi.q, phi.n2, image))
            assert len(image) == phi.q ** lat2.dims[phi.image_ids[i]]

    @pytest.mark.parametrize("q,n1,n2,automorphism", [
        (2, 3, 4, 0), (2, 4, 2, 0), (3, 2, 3, 0), (3, 3, 2, 0), (4, 2, 3, 0),
        (4, 3, 2, 0), (4, 3, 2, 1), (4, 2, 2, 1)])
    def test_matrix_images_against_enumeration(self, q, n1, n2, automorphism):
        rng = random.Random(q * 1000 + n1 * 10 + n2)
        F = ground_field(q)
        zero = zero_map(q, n1, n2)
        self.assert_image_ids(zero)
        assert set(zero.image_ids) == {lattice(q, n2).zero_id}
        for _ in range(4):
            A = Mat(F, n1, n2, [rng.randrange(q) for _ in range(n1 * n2)])
            phi = lmap_from_matrix(A, automorphism=automorphism)
            assert (phi.semilinear_matrix is None) == (automorphism == 0)
            B = Mat(F, n2, n1, [rng.randrange(q) for _ in range(n1 * n2)])
            psi = compose(lmap_from_matrix(B, automorphism=automorphism), phi)
            for chi in (phi, psi):
                for V in enumerate_subspaces(q, n1):
                    assert chi.image_of(V) == self.image_by_enumeration(chi, V)
                self.assert_image_ids(chi)

    @pytest.mark.parametrize("make", [
        lambda: collapse_map(2, 3), drop_last_map,
        lambda: tweak_equivalent(identity_map(3, 2), (1, 1), 2)],
        ids=["collapse", "drop-last", "tweak-q3"])
    def test_nonlinear_images_against_enumeration(self, make):
        phi = make()
        assert phi.linear_matrix is None and phi.semilinear_matrix is None
        for V in enumerate_subspaces(phi.q, phi.n1):
            assert phi.image_of(V) == self.image_by_enumeration(phi, V)
        self.assert_image_ids(phi)


class TestEquivalence:
    def test_scalar_multiple_equivalent_f3(self):
        F = ground_field(3)
        psi = lmap_from_matrix(Mat(F, 2, 2, [1, 0, 0, 1]))
        phi = lmap_from_matrix(Mat(F, 2, 2, [2, 0, 0, 2]))
        assert l_equivalent(phi, psi)

    def test_distinct_linear_maps_inequivalent_f2(self):
        F = ground_field(2)
        mats = [Mat(F, 2, 2, [(c >> b) & 1 for b in range(4)]) for c in range(16)]
        maps = [lmap_from_matrix(A) for A in mats]
        for a, b in itertools.combinations(maps, 2):
            assert not l_equivalent(a, b)

    def test_tweak_is_equivalent(self):
        psi = identity_map(3, 2)
        phi = tweak_equivalent(psi, (1, 0), 2)
        assert l_equivalent(phi, psi)
        assert phi.table != psi.table
        assert not phi.is_linear

    def test_pointwise_scalars_exist(self):
        psi = identity_map(3, 2)
        phi = tweak_equivalent(psi, (1, 0), 2)
        lam = pointwise_scalars(phi, psi)
        assert lam is not None and all(v != 0 for v in lam.values())

    def test_equivalent_maps_share_preimages(self):
        psi = identity_map(3, 2)
        phi = tweak_equivalent(psi, (1, 0), 2)
        for W in enumerate_subspaces(3, 2):
            assert preimage(phi, W)[0] == preimage(psi, W)[0]

    def test_lclass_equality_and_composition(self):
        psi = identity_map(3, 2)
        phi = tweak_equivalent(psi, (1, 0), 2)
        assert LClass(phi) == LClass(psi)
        assert hash(LClass(phi)) == hash(LClass(psi))
        other = LClass(lmap_from_matrix(
            Mat(ground_field(3), 2, 2, [0, 1, 1, 0])))
        assert LClass(phi) != other
        assert other.compose(other) == LClass(identity_map(3, 2))


class TestTweak:
    def test_tau_one_returns_psi(self):
        psi = identity_map(3, 2)
        assert tweak_equivalent(psi, (1, 0), 1) is psi

    def test_q2_only_tau_is_one(self):
        psi = identity_map(2, 2)
        assert tweak_equivalent(psi, (1, 0), 1) is psi

    def test_needs_bijection(self):
        with pytest.raises(NotBijective):
            tweak_equivalent(zero_map(3, 2, 2), (1, 0), 2)

    def test_breaks_additivity_but_not_classes(self):
        phi = tweak_equivalent(identity_map(3, 2), (1, 0), 2)
        assert phi((1, 0)) == (2, 0)
        assert phi((1, 1)) == (1, 1)


def _bijection(q, kind, rng):
    F = ground_field(q)
    while True:
        A = Mat(F, 3, 3, [rng.randrange(q) for _ in range(9)])
        if A.rank() == 3:
            break
    if kind == "semilinear":
        return lmap_from_matrix(A, automorphism=1)
    phi = lmap_from_matrix(A)
    return tweak_equivalent(phi, (1, 0, 0), 2) if kind == "nonlinear" else phi


class TestInverseAndLatticeHom:
    @pytest.mark.parametrize("q, kind", [
        (2, "linear"), (3, "linear"), (3, "nonlinear"), (4, "linear"),
        (4, "semilinear"), (4, "nonlinear")])
    def test_inverse_matches_verified_inverse_table(self, q, kind):
        rng = random.Random(q)
        for _ in range(3):
            phi = _bijection(q, kind, rng)
            inv_table = [0] * len(phi.table)
            for v, w in enumerate(phi.table):
                inv_table[w] = v
            want = lmap_from_table(q, 3, 3, inv_table)
            inv = phi.inverse()
            assert inv.verified and inv.table == want.table
            assert (inv.is_linear, inv.automorphism) == (want.is_linear, want.automorphism)
            assert inv.linear_matrix == want.linear_matrix
            assert inv.semilinear_matrix == want.semilinear_matrix
            assert inv.image_ids == want.image_ids
            assert inv.is_linear == (kind == "linear")

    def test_inverse_keeps_unverified(self):
        # a bijection of F_2^3 that is not an L-map: its inverse is not one
        table = [0, 1, 2, 4, 3, 5, 6, 7]
        with pytest.raises(NotAnLMap):
            lmap_from_table(2, 3, 3, table)
        inv = LMap(2, 3, 3, table).inverse()
        assert not inv.verified and inv.automorphism is None

    def test_inverse_of_nonlinear_bijection(self):
        phi = tweak_equivalent(identity_map(3, 2), (1, 0), 2)
        inv = phi.inverse()
        assert inv.verified
        assert compose(inv, phi).table == identity_map(3, 2).table

    def test_injective_maps_preserve_meet_join(self):
        # injective L-maps induce lattice homomorphisms
        F = ground_field(2)
        candidates = [
            lmap_from_matrix(Mat(F, 2, 3, [1, 0, 0, 0, 1, 0])),
            lmap_from_matrix(Mat(F, 2, 3, [1, 1, 0, 0, 1, 1])),
            tweak_equivalent(identity_map(3, 2), (1, 1), 2).inverse(),
        ]
        for phi in candidates:
            q, n1 = phi.q, phi.n1
            assert len(set(phi.table)) == q ** n1  # injective
            for A, B in itertools.product(enumerate_subspaces(q, n1), repeat=2):
                assert phi.image_of(meet(A, B)) == meet(phi.image_of(A),
                                                        phi.image_of(B))
                assert phi.image_of(join(A, B)) == join(phi.image_of(A),
                                                        phi.image_of(B))

    def test_bijective_lmaps_on_f2_are_linear(self):
        # q = 2: every 0-fixing bijection that verifies as an L-map is linear
        rng = random.Random(99)
        nonzero = list(range(1, 8))
        found_linear = 0
        for _ in range(60):
            img = nonzero[:]
            rng.shuffle(img)
            table = [0] + img
            try:
                phi = lmap_from_table(2, 3, 3, table)
            except NotAnLMap:
                continue
            assert phi.is_linear
            found_linear += 1
        assert found_linear  # identity-like shuffles do appear

    def test_all_bijections_on_f2_2_are_linear_lmaps(self):
        for img in itertools.permutations([1, 2, 3]):
            phi = lmap_from_table(2, 2, 2, [0] + list(img))
            assert phi.is_linear


class TestCompose:
    def test_identity_neutral(self):
        phi = collapse_map(2, 2)
        assert compose(identity_map(2, 2), phi).table == phi.table

    def test_projection_after_embedding(self, t1):
        iota = embedding_map(t1)
        pi, d = quotient_map(t1)
        comp = compose(pi, iota)
        assert set(comp.table) == {0}  # T1 is exactly the kernel

    def test_nonlinear_composition_verified(self):
        phi = collapse_map(2, 2)        # F_2^2 -> F_2^2
        psi = drop_last_map()           # F_2^3 -> F_2^2
        comp = compose(phi, psi)
        assert comp.verified and comp.n1 == 3 and comp.n2 == 2


class TestClassify:
    def test_identity_uniform_to_spread_weak_not_strong(self):
        M1 = uniform(2, 4, 2)
        M2 = example_nonrepresentable()
        rep = classify_map(identity_map(2, 4), M1, M2)
        assert rep.is_weak and not rep.is_strong
        assert not rep.is_rank_preserving

    def test_identity_to_trivial_strong_not_rank_preserving(self, n2_matroid):
        rep = classify_map(identity_map(2, 4), n2_matroid, trivial(2, 4))
        assert rep.is_strong and rep.is_weak and not rep.is_rank_preserving

    def test_projection_between_loop_matroids(self):
        # rank-1 matroids with loop lines <e2> and <e1+e2>; the projection
        # (x, y) -> (x, 0) preserves ranks, and its flat preimages land on
        # the loop line, so it is strong as well
        lat = lattice(2, 2)
        e2 = row_space(2, 2, [(0, 1)])
        diag = row_space(2, 2, [(1, 1)])
        m1 = {S: (0 if S.dim == 0 or S == e2 else 1) for S in lat.spaces}
        m2 = {S: (0 if S.dim == 0 or S == diag else 1) for S in lat.spaces}
        from qmatroids import from_rank_table
        M1 = from_rank_table(2, 2, m1)
        M2 = from_rank_table(2, 2, m2)
        F = ground_field(2)
        phi = lmap_from_matrix(Mat(F, 2, 2, [1, 0, 0, 0]))
        rep = classify_map(phi, M1, M2)
        assert rep.is_rank_preserving and rep.is_weak
        assert rep.is_strong  # computed fact; see the F3 witness machinery

    def test_nonlinear_strong_map(self):
        # collapsing to a single line is strong into the free matroid
        phi = lmap_from_table(2, 2, 3,
                              lambda v: (1, 0, 0) if any(v) else (0, 0, 0))
        rep = classify_map(phi, uniform(2, 2, 1), uniform(2, 3, 3))
        assert rep.is_strong and rep.is_rank_preserving and rep.is_weak

    def test_strong_fails_on_nonsubspace_preimage(self):
        phi = drop_last_map()
        M1 = uniform(2, 3, 3)
        M2 = uniform(2, 2, 2)
        rep = classify_map(phi, M1, M2)
        assert not rep.is_strong
        assert any("not a subspace" in str(w) for w in rep.witnesses["strong"])


class TestMinorMaps:
    def test_embedding_strong_and_rank_preserving(self, repro_matroids):
        lat = lattice(2, 4)
        sample = [lat.spaces[i] for i in (3, 20, 40, 66)]
        for M in repro_matroids.values():
            for X in sample:
                if X.dim == 0:
                    continue
                rep = classify_map(embedding_map(X), M.restriction(X), M)
                assert rep.is_strong and rep.is_rank_preserving and rep.is_weak

    def test_projection_strong_and_weak(self, repro_matroids):
        lat = lattice(2, 4)
        sample = [lat.spaces[i] for i in (1, 20, 40)]
        for M in repro_matroids.values():
            for X in sample:
                pi, d = quotient_map(X)
                rep = classify_map(pi, M, M.contraction(X))
                assert rep.is_strong and rep.is_weak

    def test_image_restriction_preserves_type(self):
        # restricting a map to its image keeps its classification
        M1 = uniform(2, 4, 2)
        M2 = example_nonrepresentable()
        phi = identity_map(2, 4)
        before = classify_map(phi, M1, M2)
        img = phi.image_of(Subspace.full(2, 4))
        hat = compose(quotient_like_identity(img), phi)
        after = classify_map(hat, M1, M2.restriction(img))
        assert (before.is_weak, before.is_strong, before.is_rank_preserving) == \
               (after.is_weak, after.is_strong, after.is_rank_preserving)

        F = ground_field(2)
        proj = lmap_from_matrix(Mat(F, 2, 3, [1, 0, 0, 0, 0, 0]))
        M3 = uniform(2, 3, 3)
        before = classify_map(proj, uniform(2, 2, 1), M3)
        img = proj.image_of(Subspace.full(2, 2))
        hat = compose(quotient_like_identity(img), proj)
        after = classify_map(hat, uniform(2, 2, 1), M3.restriction(img))
        assert (before.is_weak, before.is_rank_preserving) == \
               (after.is_weak, after.is_rank_preserving)


def quotient_like_identity(X):
    """Coordinate map of the ambient onto X's coordinates, defined on X."""
    # X is the image of the map being restricted; re-coordinatize via the
    # basis: vectors of X written in basis coordinates
    q, n = X.q, X.n
    d = X.dim
    table = [0] * (q ** n)
    for v in X.vectors():
        table[encode_vector(v, q)] = encode_vector(X.coordinates_of(v), q)
    return lmap_from_table(q, n, d, table)


class TestPropositions311:
    def _matroid_pairs(self, n):
        pairs = [(uniform(2, n, 1), uniform(2, n, 1)),
                 (uniform(2, n, 1), uniform(2, n, min(2, n))),
                 (uniform(2, n, n), uniform(2, n, 1))]
        if n == 3:
            lat = lattice(2, 3)
            e3 = row_space(2, 3, [(0, 0, 1)])
            from qmatroids import from_rank_table
            loopy = from_rank_table(
                2, 3, {S: (0 if S == e3 or S.dim == 0 else min(1, S.dim))
                       for S in lat.spaces})
            pairs.append((loopy, uniform(2, 3, 1)))
        return pairs

    @pytest.mark.parametrize("n", [2, 3])
    def test_three_way_equivalence_over_gl(self, n):
        # for L-isomorphisms: (phi and inverse weak) <=> rank-preserving
        # <=> (phi and inverse strong)
        F = ground_field(2)
        gl = []
        for code in range(2 ** (n * n)):
            entries = [(code >> b) & 1 for b in range(n * n)]
            A = Mat(F, n, n, entries)
            phi = lmap_from_matrix(A)
            if phi.is_bijective():
                gl.append(phi)
        assert len(gl) == {2: 6, 3: 168}[n]
        for M1, M2 in self._matroid_pairs(n):
            for phi in gl:
                inv = phi.inverse()
                fwd = classify_map(phi, M1, M2)
                bwd = classify_map(inv, M2, M1)
                both_weak = fwd.is_weak and bwd.is_weak
                both_strong = fwd.is_strong and bwd.is_strong
                assert both_weak == fwd.is_rank_preserving == both_strong


class TestCircuitCriterion:
    def test_identity_into_blockdiag_weak(self, uniform_sum, n2_matroid):
        eps = identity_map(2, 4)
        assert is_weak_linear_via_circuits(eps, uniform_sum.total, n2_matroid)

    def test_uniform_rank_increase_not_weak(self):
        eps = identity_map(2, 2)
        assert not is_weak_linear_via_circuits(eps, uniform(2, 2, 1),
                                               uniform(2, 2, 2))

    def test_zero_map_weak(self):
        assert is_weak_linear_via_circuits(zero_map(2, 2, 2),
                                           uniform(2, 2, 1), uniform(2, 2, 2))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
    def test_agreement_with_bruteforce(self, shape):
        n1, n2 = shape
        F = ground_field(2)
        m1s = [uniform(2, n1, k) for k in range(n1 + 1)]
        m2s = [uniform(2, n2, k) for k in range(n2 + 1)]
        if n1 == 2:
            m1s.append(example_restriction_rank1())
        for code in range(2 ** (n1 * n2)):
            entries = [(code >> b) & 1 for b in range(n1 * n2)]
            phi = lmap_from_matrix(Mat(F, n1, n2, entries))
            for M1 in m1s:
                for M2 in m2s:
                    brute = classify_map(phi, M1, M2).is_weak
                    assert is_weak_linear_via_circuits(phi, M1, M2) == brute


def example_restriction_rank1():
    lat = lattice(2, 2)
    e2 = row_space(2, 2, [(0, 1)])
    from qmatroids import from_rank_table
    return from_rank_table(
        2, 2, {S: (0 if S.dim == 0 or S == e2 else 1) for S in lat.spaces})
