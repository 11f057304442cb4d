"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.  Each test asserts both the mathematical content and
the wall-clock budget.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from qmatroids import (
    FlatFamily,
    Mat,
    Subspace,
    check_flat_axioms,
    check_rank_axioms,
    classify_map,
    compose,
    direct_sum,
    embedding_map,
    from_flats,
    identity_map,
    iota_maps,
    is_isomorphic,
    is_weak_linear_via_circuits,
    join,
    l_equivalent,
    lattice,
    lclass_scaling_family,
    lmap_from_matrix,
    make_field,
    preimage,
    row_space,
    trivial,
    tweak_equivalent,
    uniform,
    verify_coproduct_lw,
    zero_map,
)
from qmatroids.fields import ground_field, omega_index_set
from qmatroids.kernels import factor_search
from qmatroids.maps import lmap_checks, pointwise_scalars, subspace_test
from qmatroids.repro import (
    _alpha_maps,
    _factor_fixed_table,
    blockdiag_matroid,
    example_nonrepresentable,
    fprime,
    fprime_closed_form,
)
from qmatroids.subspaces import rref

from helpers import quotient_map


@contextmanager
def criterion(num, slug, budget_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] {slug}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num:2d}] {slug}: PASS "
          f"({elapsed:.2f}s / budget {budget_seconds}s)", flush=True)
    assert elapsed < budget_seconds, f"budget exceeded: {elapsed:.2f}s"


@pytest.fixture(scope="module", autouse=True)
def warm_lattice():
    # shared lattice tables; built once for the whole workbench session
    lat = lattice(2, 4)
    lat.sub_masks
    for i in range(lat.size):
        for j in range(lat.size):
            lat.join_id(i, j)


@pytest.fixture(scope="module")
def gf16():
    F = make_field(2, 1, 4)
    assert F.ext_modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1 pinned
    return F


T1_ROWS = [(1, 0, 0, 0), (0, 1, 0, 0)]
T2_ROWS = [(0, 0, 1, 0), (0, 0, 0, 1)]


def repro_matroid_dict():
    out = {"ex-2-2": example_nonrepresentable(),
           "N1": blockdiag_matroid(2, 4, 1),
           "N2": blockdiag_matroid(2, 4, 2),
           "sum": direct_sum(uniform(2, 2, 1), uniform(2, 2, 1)).total}
    for k in range(5):
        out[f"U{k}"] = uniform(2, 4, k)
    return out


def test_criterion_1_blockdiag_family(gf16):
    with criterion(1, "blockdiag family ranks and dichotomy", 1.0):
        lat = lattice(2, 4)
        T1 = row_space(2, 4, T1_ROWS)
        T2 = row_space(2, 4, T2_ROWS)
        w = gf16.omega_val
        for i in range(1, 15):
            M = blockdiag_matroid(2, 4, i)
            assert M.rank(T1) == 1 and M.rank(T2) == 1
            assert M.matroid_rank == 2
            assert all(M.rank(lat.spaces[j]) == 1 for j in lat.one_ids)
            assert all(M.rank(S) == 2 for S in lat.spaces if S.dim == 3)
            # independent oracle for the dichotomy: rank of the coefficient
            # matrix of {1, w, w^i, w^{i+1}} over F_2
            rows = [gf16.coeffs(gf16.pow(w, e)) for e in (0, 1, i, i + 1)]
            _, rk = rref(rows, 2, 4)
            indep = rk == 4
            l2 = [S for S in lat.spaces
                  if S.dim == 2 and S != T1 and S != T2]
            assert len(l2) == 33
            assert all(M.rank(S) == 2 for S in l2) == indep
            if not indep:
                assert any(M.rank(S) == 1 for S in l2)


def test_criterion_2_fprime_set_equality():
    with criterion(2, "flat-union closed form", 5.0):
        members, rep = fprime(2, 4)
        assert rep.passed
        assert len(members) == 19


def test_criterion_3_gl_nonisomorphism():
    with criterion(3, "GL(4,2) exhaustive non-isomorphism", 5.0):
        stats = {}
        witness = is_isomorphic(blockdiag_matroid(2, 4, 1),
                                blockdiag_matroid(2, 4, 2),
                                prune=False, stats=stats)
        assert witness is None
        assert stats["candidates"] == 20160
        assert stats["leaves"] == 20160


def test_criterion_4_factoring_search():
    with criterion(4, "complete L-map factoring search", 300.0):
        a1, a2 = _alpha_maps(2)
        fixed = _factor_fixed_table(a1, a2)
        order = [c for c in range(16) if fixed[c] < 0]
        assert len(order) == 9  # 8^9 assignment space, pruned
        checks = lmap_checks(2, 4)
        sol, nodes = factor_search(fixed, order, range(8), checks, subspace_test(2, 3))
        assert sol is None and nodes > 0
        # sanity inversion: target U1 (+) U1 must recover the identity
        iota1, iota2 = iota_maps(2, 2, 2)
        inv_fixed = [-1] * 16
        for v1 in range(4):
            inv_fixed[v1] = iota1.table[v1]
        for v2 in range(4):
            inv_fixed[v2 << 2] = iota2.table[v2]
        inv_order = [c for c in range(16) if inv_fixed[c] < 0]
        sol2, _ = factor_search(inv_fixed, inv_order, range(16), checks,
                                subspace_test(2, 4))
        assert sol2 == list(range(16))


def test_criterion_5_flat_axiom_failure():
    with criterion(5, "flat-union fails unique-cover axiom", 5.0):
        members = fprime_closed_form(2)
        fam = FlatFamily(2, 4, members)
        T1 = row_space(2, 4, T1_ROWS)
        T2 = row_space(2, 4, T2_ROWS)
        zero = Subspace.zero(2, 4)
        full = Subspace.full(2, 4)
        f1 = [S for S in fam.sorted_members if S.dim == 1]
        f2 = [S for S in fam.sorted_members
              if S.dim == 2 and S not in (T1, T2)]
        # cover structure on every member
        for V in fam.sorted_members:
            got = set(fam.covers_of(V))
            if V == zero:
                assert got == {T1, T2} | set(f1)
            elif V in f1:
                want = {W for W in f2 if V <= W}
                assert want and got == want
            elif V == full:
                assert got == set()
            else:
                assert got == {full}
        # the pinned witness
        V0 = row_space(2, 4, [(1, 1, 1, 0)])
        e1 = (1, 0, 0, 0)
        report = check_flat_axioms(fam, limit=None)
        assert not report.ok
        hits = [w for ax, w, _ in report.violations if ax == "F3"]
        assert (V0, e1) in hits
        assert not any(C.contains_vector(e1) for C in fam.covers_of(V0))
        # an intermediate member keeps the full space from covering V0
        assert any(V0 < W for W in f2)


def test_criterion_6_uniform_sum_equals_blockdiag():
    with criterion(6, "uniform sum reproduces the blockdiag matroid", 5.0):
        D = direct_sum(uniform(2, 2, 1), uniform(2, 2, 1))
        N2 = blockdiag_matroid(2, 4, 2)
        lat = lattice(2, 4)
        assert all(D.total.rank(S) == N2.rank(S) for S in lat.spaces)
        # embedding identities on every subspace of both summands
        for V in lattice(2, 2).spaces:
            for Mi, iota, own, other in (
                    (D.m1, D.iota1, D.pushed[0], D.pushed[1]),
                    (D.m2, D.iota2, D.pushed[1], D.pushed[0])):
                emb = iota.image_of(V)
                assert own.rank(emb) == Mi.rank(V) == D.total.rank(emb)
                assert other.rank(emb) == 0
        # circuit characterization against rank-derived circuits
        from qmatroids import dirsum_circuits
        circ = dirsum_circuits(D)
        assert set(circ) == set(D.total.circuits())


def test_criterion_7_cryptomorphism_roundtrips():
    with criterion(7, "flats/rank roundtrips", 10.0):
        for name, M in repro_matroid_dict().items():
            fam = M.flats()
            again = from_flats(fam)
            assert again.same_rank_table(M), name
            assert again.flats() == fam, name


def test_criterion_8_axiom_suites():
    with criterion(8, "exhaustive rank and flat axioms", 30.0):
        lat = lattice(2, 4)
        for name, M in repro_matroid_dict().items():
            assert check_rank_axioms(M, limit=1).ok, name
            fam = M.flats()
            assert check_flat_axioms(fam, limit=1).ok, name
            # semimodularity of the flat lattice
            for F1, F2 in itertools.product(fam.sorted_members, repeat=2):
                m = lat.spaces[lat.meet_id(lat.id_of(F1), lat.id_of(F2))]
                if F1 in fam.covers_of(m):
                    v = fam.closure_of(join(F1, F2))
                    assert v in fam.covers_of(F2), (name, F1, F2)


def test_criterion_9_map_theory():
    with criterion(9, "minor maps, iso equivalences, circuit criterion", 120.0):
        matroids = repro_matroid_dict()
        lat = lattice(2, 4)
        # embeddings strong + rank-preserving, projections strong + weak,
        # for every subspace of every repro matroid
        for name, M in matroids.items():
            for X in lat.spaces:
                if X.dim > 0:
                    rep = classify_map(embedding_map(X), M.restriction(X), M)
                    assert rep.is_rank_preserving and rep.is_strong, (name, X)
                if X.dim < 4:
                    pi, _ = quotient_map(X)
                    rep = classify_map(pi, M, M.contraction(X))
                    assert rep.is_strong and rep.is_weak, (name, X)

        # three-way equivalence for L-isomorphisms over all of GL(2,2), GL(3,2)
        F = ground_field(2)
        for n in (2, 3):
            gl = []
            for code in range(2 ** (n * n)):
                phi = lmap_from_matrix(
                    Mat(F, n, n, [(code >> b) & 1 for b in range(n * n)]))
                if phi.is_bijective():
                    gl.append(phi)
            assert len(gl) == {2: 6, 3: 168}[n]
            lat_n = lattice(2, n)
            e_last = row_space(2, n, [tuple(1 if i == n - 1 else 0
                                            for i in range(n))])
            from qmatroids import from_rank_table
            loopy = from_rank_table(
                2, n, {S: (0 if S.dim == 0 or S == e_last else min(1, S.dim))
                       for S in lat_n.spaces})
            pairs = [(uniform(2, n, 1), uniform(2, n, 1)),
                     (uniform(2, n, 1), uniform(2, n, 2)),
                     (loopy, uniform(2, n, 1))]
            for M1, M2 in pairs:
                for phi in gl:
                    inv = phi.inverse()
                    fwd = classify_map(phi, M1, M2)
                    bwd = classify_map(inv, M2, M1)
                    both_weak = fwd.is_weak and bwd.is_weak
                    both_strong = fwd.is_strong and bwd.is_strong
                    assert both_weak == fwd.is_rank_preserving == both_strong

        # circuit criterion equals brute-force weakness for every linear map
        for n1, n2 in ((2, 2), (2, 3), (3, 2)):
            sample1 = [uniform(2, n1, k) for k in range(n1 + 1)]
            sample2 = [uniform(2, n2, k) for k in range(n2 + 1)]
            for code in range(2 ** (n1 * n2)):
                phi = lmap_from_matrix(
                    Mat(F, n1, n2, [(code >> b) & 1 for b in range(n1 * n2)]))
                for M1 in sample1:
                    for M2 in sample2:
                        assert (is_weak_linear_via_circuits(phi, M1, M2)
                                == classify_map(phi, M1, M2).is_weak)

        # equivalence facts and the tweak construction at q in {2, 3}
        for q in (2, 3):
            Fq = ground_field(q)
            psi = identity_map(q, 2)
            for tau in range(1, q):
                phi = tweak_equivalent(psi, (1, 0), tau)
                assert l_equivalent(phi, psi)
                lam = pointwise_scalars(phi, psi)
                assert lam is not None and all(v != 0 for v in lam.values())
                from qmatroids import enumerate_subspaces
                for W in enumerate_subspaces(q, 2):
                    assert preimage(phi, W)[0] == preimage(psi, W)[0]
            if q == 3:
                lam_map = lmap_from_matrix(Mat(Fq, 2, 2, [2, 0, 0, 2]))
                assert l_equivalent(lam_map, psi)  # scalar criterion


def test_criterion_10_coproduct_harness():
    with criterion(10, "linear-weak universal property", 120.0):
        spec = make_field(2, 1, 4)
        M1 = uniform(2, 2, 1)
        D = direct_sum(M1, M1)
        targets = [(blockdiag_matroid(2, 4, j), D.iota1, D.iota2)
                   for j in sorted(omega_index_set(spec))]
        targets.append((D.total, D.iota1, D.iota2))
        targets.append((trivial(2, 4), zero_map(2, 2, 4), zero_map(2, 2, 4)))
        reports = verify_coproduct_lw(M1, M1, targets,
                                      exhaustive_for=len(targets) - 2)
        assert all(r.ok for r in reports)
        ident = identity_map(2, 4)
        for r in reports[:-1]:
            assert r.epsilon.table == ident.table
            assert r.eps_weak_bruteforce and r.eps_weak_circuits
        assert reports[-2].exhaustive_count == 1


def test_criterion_11_lclass_phenomena():
    with criterion(11, "L-class uniqueness and its failure", 60.0):
        # q = 2: distinct linear maps on F_2^2 are never L-equivalent
        F = ground_field(2)
        maps2 = [lmap_from_matrix(Mat(F, 2, 2, [(c >> b) & 1 for b in range(4)]))
                 for c in range(16)]
        for a, b in itertools.combinations(maps2, 2):
            assert not l_equivalent(a, b)
        # q = 3: the scaling family breaks class-level uniqueness
        M1 = uniform(3, 1, 1)
        D = direct_sum(M1, M1)
        eps = identity_map(3, 2)
        eps2 = lclass_scaling_family(eps, 1, 1, 2)
        assert not l_equivalent(eps, eps2)
        assert l_equivalent(compose(eps2, D.iota1), D.iota1)
        assert l_equivalent(compose(eps2, D.iota2), D.iota2)
        assert classify_map(eps2, D.total, D.total).is_weak
        assert l_equivalent(eps, lclass_scaling_family(eps, 1, 2, 2))
