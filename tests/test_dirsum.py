"""Submodular completion, direct sums, and the coproduct harness."""

import itertools
import random

import pytest

from qmatroids import (
    DirectSum,
    Mat,
    Subspace,
    additivity_check,
    check_rank_axioms,
    direct_sum,
    dirsum_circuits,
    dirsum_is_max,
    enumerate_subspaces,
    from_function,
    from_matrix,
    identity_map,
    iota_maps,
    join,
    l_equivalent,
    lattice,
    lclass_scaling_family,
    lmap_from_matrix,
    lmap_from_table,
    make_field,
    pi_maps,
    row_space,
    subspaces_of,
    submodular_completion,
    trivial,
    uniform,
    verify_coproduct_lw,
    zero_map,
)
from qmatroids.dirsum import _complete, canonical_factoring_map
from qmatroids.errors import AlphaNotLinear, AlphaNotWeak, TauNotMonotone, TauNotSubmodular
from qmatroids.fields import ground_field
from qmatroids.maps import compose
from qmatroids.repro import blockdiag_matroid


class TestSubmodularCompletion:
    def test_dim_gives_free(self):
        M = submodular_completion(2, 3, lambda V: V.dim)
        assert all(M.rank(S) == S.dim for S in lattice(2, 3).spaces)

    def test_zero_gives_trivial(self):
        M = submodular_completion(2, 3, lambda V: 0)
        assert all(M.rank(S) == 0 for S in lattice(2, 3).spaces)

    def test_sum_of_pushed_uniform_ranks(self, uniform_sum, t1, t2):
        # the completion of rho'_1 + rho'_2 is the direct-sum rank function
        M = uniform_sum.total
        assert M.rank(t1) == 1 and M.rank(t2) == 1
        assert M.matroid_rank == 2
        others = [S for S in lattice(2, 4).spaces
                  if S.dim == 2 and S not in (t1, t2)]
        assert all(M.rank(S) == 2 for S in others)

    def test_monotonicity_required(self):
        with pytest.raises(TauNotMonotone):
            submodular_completion(2, 2, lambda V: 1 if V.dim == 0 else 0)

    def test_submodularity_required(self):
        # 0 on lines, 2 on the plane: join+meet beats the pair sum
        with pytest.raises(TauNotSubmodular):
            submodular_completion(2, 2, lambda V: 0 if V.dim <= 1 else 2)

    def test_completion_always_a_matroid(self):
        # clamped sums of matroid ranks are monotone and submodular
        rng = random.Random(4242)
        for _ in range(8):
            k1 = rng.randint(0, 3)
            k2 = rng.randint(0, 3)
            cap = rng.randint(1, 3)
            M1, M2 = uniform(2, 3, k1), uniform(2, 3, k2)

            def tau(V):
                return min(M1.rank(V) + M2.rank(V), cap)

            M = submodular_completion(2, 3, tau)
            assert check_rank_axioms(M).ok

    def test_independence_characterization(self):
        # V independent iff tau(W) >= dim W for every subspace W of V
        from qmatroids import subspaces_of
        M1, M2 = uniform(2, 3, 1), uniform(2, 3, 1)

        def tau(V):
            return M1.rank(V) + M2.rank(V)

        M = submodular_completion(2, 3, tau)
        for S in lattice(2, 3).spaces:
            want = all(tau(W) >= W.dim for W in subspaces_of(S))
            assert M.is_independent(S) == want


    @pytest.mark.parametrize("q,n,seed", [(2, 4, 1), (2, 4, 2), (3, 3, 3), (3, 3, 4)])
    def test_cover_recursion_against_direct_formula(self, q, n, seed):
        # oracle: the defining minimum over X <= V, for a tau that is
        # neither monotone, submodular nor non-negative
        from qmatroids import subspaces_of
        rng = random.Random(seed)
        lat = lattice(q, n)
        tau = {S: rng.randint(-2, n + 2) for S in lat.spaces}
        rv = _complete(lat, [tau[S] for S in lat.spaces])
        for V in lat.spaces:
            assert rv[lat.id_of(V)] == min(tau[X] + V.dim - X.dim for X in subspaces_of(V))


def random_representable(rng, q, n, m):
    """from_matrix of a random full-row-rank k x n matrix over GF(q^m),
    with k drawn from 1..n."""
    F = make_field(q, 1, m)
    k = rng.randint(1, n)
    while True:
        G = Mat(F, k, n, [rng.randrange(F.order) for _ in range(k * n)])
        if G.rank() == k:
            return from_matrix(G)


def defining_sum_ranks(M1, M2):
    """Reference: for every space V of F_q^(n1+n2), the minimum over X <= V
    of rho1(pi1 X) + rho2(pi2 X) + dim V - dim X, through Subspace images."""
    q, n = M1.q, M1.n + M2.n
    pi1, pi2 = pi_maps(q, M1.n, M2.n)
    tau = {X: M1.rank(pi1.image_of(X)) + M2.rank(pi2.image_of(X))
           for X in enumerate_subspaces(q, n)}
    return [min(tau[X] + V.dim - X.dim for X in subspaces_of(V))
            for V in lattice(q, n).spaces]


class TestDirectSum:
    def test_equals_blockdiag_two(self, uniform_sum):
        assert uniform_sum.total.same_rank_table(blockdiag_matroid(2, 4, 2))

    def test_embedding_identities(self, uniform_sum):
        # spelled out, although the constructor asserts them already
        D = uniform_sum
        for V in lattice(2, 2).spaces:
            e1 = D.iota1.image_of(V)
            e2 = D.iota2.image_of(V)
            r = D.m1.rank(V)
            assert D.pushed[0].rank(e1) == r == D.total.rank(e1)
            assert D.pushed[1].rank(e1) == 0
            assert D.pushed[1].rank(e2) == D.m2.rank(V) == D.total.rank(e2)
            assert D.pushed[0].rank(e2) == 0

    def test_pushed_are_matroids(self, uniform_sum):
        assert check_rank_axioms(uniform_sum.pushed[0]).ok
        assert check_rank_axioms(uniform_sum.pushed[1]).ok

    def test_total_passes_axioms(self, uniform_sum):
        assert check_rank_axioms(uniform_sum.total).ok

    def test_adding_a_loop_space(self):
        # M (+) U_0 has the pushed rank function of M
        M = uniform(2, 2, 1)
        D = direct_sum(M, trivial(2, 2))
        for S in lattice(2, 4).spaces:
            assert D.total.rank(S) == D.pushed[0].rank(S)

    def test_trivial_sum(self):
        D = direct_sum(trivial(2, 1), trivial(2, 1))
        assert all(D.total.rank(S) == 0 for S in lattice(2, 2).spaces)

    def test_q3_sum_of_lines_is_free(self):
        D = direct_sum(uniform(3, 1, 1), uniform(3, 1, 1))
        assert all(D.total.rank(S) == S.dim for S in lattice(3, 2).spaces)

    @pytest.mark.parametrize("q,n1,n2,m", [(2, 1, 2, 3), (2, 2, 2, 3), (3, 1, 2, 2),
                                           (2, 2, 3, 2)])
    def test_total_against_defining_minimum(self, q, n1, n2, m):
        rng = random.Random(100 * q + 10 * n1 + n2)
        for _ in range(3):
            M1 = random_representable(rng, q, n1, m)
            M2 = random_representable(rng, q, n2, m)
            D = direct_sum(M1, M2)
            assert D.total.rank_vector() == defining_sum_ranks(M1, M2)
            assert additivity_check(D).ok


class TestCircuits:
    def test_uniform_sum_circuits(self, uniform_sum, t1, t2):
        circ = set(dirsum_circuits(uniform_sum))
        lat = lattice(2, 4)
        want = {S for S in lat.spaces if S.dim == 3
                and not (t1 <= S) and not (t2 <= S)} | {t1, t2}
        assert circ == want
        assert len(circ) == 11

    def test_trivial_sum_circuits_are_lines(self):
        D = direct_sum(trivial(2, 1), trivial(2, 1))
        assert all(C.dim == 1 for C in dirsum_circuits(D))
        assert len(dirsum_circuits(D)) == 3

    def test_free_sum_no_circuits(self):
        D = direct_sum(uniform(2, 2, 2), uniform(2, 2, 2))
        assert dirsum_circuits(D) == []


class TestAdditivity:
    def test_uniform_sum(self, uniform_sum):
        rep = additivity_check(uniform_sum)
        assert rep.ok, rep.checks

    def test_spot_value(self, uniform_sum):
        e1 = row_space(2, 4, [(1, 0, 0, 0)])
        e3 = row_space(2, 4, [(0, 0, 1, 0)])
        from qmatroids import join
        assert uniform_sum.total.rank(join(e1, e3)) == 2

    def test_mixed_sum(self):
        D = direct_sum(uniform(2, 2, 2), uniform(2, 2, 1))
        assert additivity_check(D).ok

    @pytest.mark.parametrize("q", [2, 3])
    def test_zero_ambient_summand(self, q):
        # the contraction to the zero summand is checked by a GL(0, q) scan
        for D in (direct_sum(uniform(q, 0, 0), uniform(q, 2, 1)),
                  direct_sum(uniform(q, 2, 1), uniform(q, 0, 0))):
            rep = additivity_check(D)
            assert rep.ok, rep.checks

    def test_reports_a_perturbed_box_sum(self):
        rng = random.Random(7)
        M1 = random_representable(rng, 2, 1, 3)
        M2 = random_representable(rng, 2, 2, 3)
        D = direct_sum(M1, M2)
        V1, V2 = Subspace.full(2, 1), row_space(2, 2, [(1, 1)])
        box = join(D.iota1.image_of(V1), D.iota2.image_of(V2))
        ranks = D.total.rank_table()
        ranks[box] += 1
        bad = DirectSum(D.m1, D.m2, from_function(2, 3, ranks.__getitem__),
                        D.iota1, D.iota2, D.pi1, D.pi2, D.pushed)
        checks = {name: (ok, detail) for name, ok, detail in additivity_check(bad).checks}
        assert checks["additivity"] == (False, [(V1, V2)])


class TestCoproduct:
    def test_targets_from_blockdiag_family(self, uniform_sum):
        M1 = uniform(2, 2, 1)
        iota1, iota2 = uniform_sum.iota1, uniform_sum.iota2
        targets = [(blockdiag_matroid(2, 4, j), iota1, iota2) for j in (1, 2, 7)]
        targets.append((uniform_sum.total, iota1, iota2))
        targets.append((trivial(2, 4), zero_map(2, 2, 4), zero_map(2, 2, 4)))
        reports = verify_coproduct_lw(M1, M1, targets, exhaustive_for=3)
        assert all(r.ok for r in reports)
        ident = identity_map(2, 4)
        for r in reports[:4]:
            assert r.epsilon.table == ident.table
        assert reports[3].exhaustive_count == reports[3].exhaustive_expected == 1
        assert reports[3].exhaustive_scanned == 2 ** 16
        assert set(reports[4].epsilon.table) == {0}

    def test_factoring_count_at_q3_is_the_blockwise_scalings(self):
        # eps' o iota_i = iota_i as maps of subspaces holds for the
        # (q - 1)^2 blockwise scalings of the identity and no other matrix
        M1 = uniform(3, 1, 1)
        D = direct_sum(M1, M1)
        (report,) = verify_coproduct_lw(M1, M1, [(D.total, D.iota1, D.iota2)],
                                        exhaustive_for=0)
        assert (report.exhaustive_count, report.exhaustive_scanned) == (4, 3 ** 4)
        assert report.exhaustive_expected == 4 and report.ok
        F = ground_field(3)
        found = set()
        for entries in itertools.product(range(3), repeat=4):
            eps = lmap_from_matrix(Mat(F, 2, 2, entries))
            if all(compose(eps, iota).image_of(V) == iota.image_of(V)
                   for iota in (D.iota1, D.iota2)
                   for V in enumerate_subspaces(3, 1)):
                found.add(eps.table)
        scalings = {lclass_scaling_family(identity_map(3, 2), 1, l1, l2).table
                    for l1 in (1, 2) for l2 in (1, 2)}
        assert found == scalings and len(found) == 4
        # a zero alpha_i fixes its block to zero: one scaling fewer
        (report,) = verify_coproduct_lw(
            M1, M1, [(trivial(3, 2), zero_map(3, 1, 2), D.iota2)], exhaustive_for=0)
        assert (report.exhaustive_count, report.exhaustive_expected) == (2, 2)
        assert report.ok

    def test_alpha_must_be_weak(self):
        M1 = uniform(2, 2, 1)
        iota1, iota2 = iota_maps(2, 2, 2)
        # into the free matroid the embeddings raise rank: not weak
        with pytest.raises(AlphaNotWeak):
            verify_coproduct_lw(M1, M1, [(uniform(2, 4, 4), iota1, iota2)])

    def test_alpha_must_be_linear(self):
        M1 = uniform(2, 2, 1)
        collapse = lmap_from_table(
            2, 2, 4, lambda v: (1, 1, 1, 1) if any(v) else (0,) * 4)
        with pytest.raises(AlphaNotLinear):
            verify_coproduct_lw(M1, M1, [(trivial(2, 4), collapse, collapse)])

    def test_canonical_map_factors(self, uniform_sum):
        a1, a2 = uniform_sum.iota1, uniform_sum.iota2
        eps = canonical_factoring_map(uniform_sum, a1, a2)
        assert compose(eps, uniform_sum.iota1).table == a1.table
        assert compose(eps, uniform_sum.iota2).table == a2.table


class TestMaximality:
    def test_blockdiag_candidates_below_sum(self):
        M1 = uniform(2, 2, 1)
        candidates = [blockdiag_matroid(2, 4, j) for j in (1, 2)]
        candidates.append(trivial(2, 4))
        rep = dirsum_is_max(M1, M1, candidates)
        assert rep.ok, rep.checks

    def test_sum_itself_is_candidate(self, uniform_sum):
        rep = dirsum_is_max(uniform_sum.m1, uniform_sum.m2, [uniform_sum.total])
        assert rep.ok

    def test_free_candidate_rejected_from_s_hat(self):
        M1 = uniform(2, 2, 1)
        rep = dirsum_is_max(M1, M1, [uniform(2, 4, 4)])
        # the free matroid exceeds the summand ranks on embedded planes
        assert any(name == "candidate_0_in_S_hat" and not ok
                   for name, ok, _ in rep.checks)


class TestScalingFamily:
    def test_q3_classes_differ(self):
        eps = identity_map(3, 2)
        scaled = lclass_scaling_family(eps, 1, 1, 2)
        assert not l_equivalent(eps, scaled)

    def test_q3_equal_scalars_same_class(self):
        eps = identity_map(3, 2)
        assert l_equivalent(eps, lclass_scaling_family(eps, 1, 2, 2))

    def test_q2_scaling_is_identity(self):
        eps = identity_map(2, 4)
        assert lclass_scaling_family(eps, 2, 1, 1).table == eps.table

    def test_blockwise_action(self):
        eps = identity_map(3, 2)
        scaled = lclass_scaling_family(eps, 1, 1, 2)
        assert scaled((1, 0)) == (1, 0)
        assert scaled((0, 1)) == (0, 2)
