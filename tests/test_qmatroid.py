"""Matroid constructors, axioms, closure/flats cryptomorphisms and minors."""

import functools
import itertools
import random
import tracemalloc

import pytest

from qmatroids import (
    FlatFamily,
    Mat,
    Subspace,
    check_flat_axioms,
    check_rank_axioms,
    contains,
    direct_sum,
    embedding_map,
    from_flats,
    from_function,
    from_matrix,
    from_rank_table,
    is_isomorphic,
    join,
    lattice,
    lmap_from_matrix,
    meet,
    pushforward,
    row_space,
    submodular_completion,
    subspaces_of,
    trivial,
    uniform,
)
from qmatroids.errors import (
    AmbientMismatch,
    AxiomViolation,
    BadRankBound,
    FlatAxiomViolation,
    IncompleteTable,
    RankDeficientG,
    SearchBoundExceeded,
    TauNotMonotone,
    TauNotSubmodular,
)
from qmatroids.fields import (
    DEFAULT_MAX_SUBSPACES,
    DEFAULT_MAX_VECTORS,
    count_subspaces,
    ground_field,
    make_field,
)
from qmatroids.qmatroid import from_rank_vector, pullback
from qmatroids.repro import blockdiag_matroid, example_nonrepresentable, fprime_closed_form
from qmatroids.subspaces import decode_vector

from helpers import quotient_map, vector_at


SWEEP_AMBIENTS = [(2, 3), (3, 2), (2, 4), (3, 3), (4, 2)]


def _rank_inputs(q, n, rng):
    """Rank vectors by lattice id that break any mix of R1-R3.

    Uniform ranks perturbed at random spaces break any of them.  Each
    of the other kinds breaks one axiom only: uniform ranks shifted by
    one break R1; min(dim, k, m - dim) for m >= n (a concave function
    of the dimension, so submodular) and uniform ranks with the full
    space lowered break R2; max(0, dim - c) (convex), uniform ranks with
    the full space raised, and the dimension lowered by one on random
    nonzero spaces (no longer submodular at a diamond through one of
    them) break R3.
    """
    dims = lattice(q, n).dims
    for _ in range(30):
        k = rng.randint(0, n)
        rv = [min(k, d) for d in dims]
        for i in rng.sample(range(len(dims)), rng.randint(0, 3)):
            rv[i] += rng.choice((-1, 1))
        yield rv
    for k in range(n + 1):
        shift, m = rng.choice((-1, 1)), n + rng.randint(0, 1)
        yield [min(k, d) + shift for d in dims]
        yield [min(d, k, m - d) for d in dims]
        if k:
            yield [min(k, d) - (d == n) for d in dims]
        if 0 < k < n:
            yield [max(0, d - k) for d in dims]
        if k <= n - 2:
            yield [min(k, d) + (d == n) for d in dims]
    for _ in range(5):
        low = set(rng.sample(range(1, len(dims)), rng.randint(1, 3)))
        yield [d - (i in low) for i, d in enumerate(dims)]


class TestUniform:
    def test_u1_values(self):
        M = uniform(2, 2, 1)
        assert M.rank(row_space(2, 2, [(1, 0)])) == 1
        assert M.matroid_rank == 1

    def test_trivial(self):
        M = uniform(2, 3, 0)
        assert all(M.rank(S) == 0 for S in lattice(2, 3).spaces)

    def test_u2_flats(self):
        M = uniform(2, 4, 2)
        want = {S for S in lattice(2, 4).spaces if S.dim <= 1}
        want.add(Subspace.full(2, 4))
        assert M.flats().members == frozenset(want)

    def test_bad_bound(self):
        with pytest.raises(BadRankBound):
            uniform(2, 3, 4)


def product_rank(G, V):
    """Reference matrix rank: rank(G Y^T) by a Mat product and Mat.rank,
    with Y the RREF basis of V."""
    if V.dim == 0:
        return 0
    yt = Mat(G.spec, G.cols, V.dim,
             [V.basis[j][i] for i in range(G.cols) for j in range(V.dim)])
    return G.mul(yt).rank()


def full_rank_matrices(F, k, n, rng):
    """Two random full-row-rank k x n matrices over F, then each of them
    with its last column zeroed and with its last column a copy of the
    first, where the row rank survives."""
    found = []
    while len(found) < 2:
        G = Mat(F, k, n, [rng.randrange(F.order) for _ in range(k * n)])
        if G.rank() == k:
            found.append(G)
    out = list(found)
    for G in found:
        rows = [list(r) for r in G.iter_rows()]
        for copy in (lambda r: 0, lambda r: r[0]):
            H = Mat.from_rows(F, [r[:-1] + [copy(r)] for r in rows])
            if H.rank() == k:
                out.append(H)
    return out


class TestFromMatrix:
    def test_one_omega_is_uniform(self, gf16):
        G = Mat(gf16, 1, 2, [1, gf16.omega_val])
        assert from_matrix(G).same_rank_table(uniform(2, 2, 1))

    def test_identity_is_free(self, gf16):
        G = Mat(gf16, 3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1])
        M = from_matrix(G)
        assert all(M.rank(S) == S.dim for S in lattice(2, 3).spaces)

    def test_blockdiag_values(self, n2_matroid, t1, t2):
        assert n2_matroid.rank(t1) == 1
        assert n2_matroid.rank(t2) == 1
        assert n2_matroid.matroid_rank == 2

    def test_rank_deficient_rejected(self, gf16):
        w = gf16.omega_val
        with pytest.raises(RankDeficientG):
            from_matrix(Mat(gf16, 2, 2, [1, w, w, gf16.mul(w, w)]))

    def test_memoized_equals_recompute(self, n2_matroid, gf16):
        # a fresh oracle against the session's matroid, on 100 seeded subspaces
        fresh = from_matrix(n2_matroid.payload["G"])
        lat = lattice(2, 4)
        rng = random.Random(12345)
        for _ in range(100):
            S = lat.spaces[rng.randrange(lat.size)]
            assert n2_matroid.rank(S) == fresh._rank_fn(S)

    @pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                     (3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2)])
    def test_ranks_against_matrix_product(self, q, m):
        base = ground_field(q)
        F = make_field(base.p, base.k, m)
        n = 4 if q == 2 else 3
        lat = lattice(q, n)
        rng = random.Random(q * 10 + m)
        zero_column = repeated_column = False
        for k in range(1, n + 1):
            for G in full_rank_matrices(F, k, n, rng):
                columns = [G.entries[j::n] for j in range(n)]
                zero_column |= not any(columns[-1])
                repeated_column |= len(set(columns)) < n
                want = [product_rank(G, S) for S in lat.spaces]
                assert from_matrix(G).rank_vector() == want
                fresh = from_matrix(G)  # one space at a time, no vector
                assert [fresh.rank(S) for S in lat.spaces] == want
        assert zero_column and repeated_column

    def test_ranks_beyond_the_vector_cap(self):
        # F_2^18 has more vectors than the enumeration cap; one rank maps
        # the space's basis rows and tabulates no image per vector
        q, n = 2, 18
        assert q ** n > DEFAULT_MAX_VECTORS
        rng = random.Random(18)
        G = full_rank_matrices(make_field(2, 1, 5), 3, n, rng)[0]
        spaces = [Subspace.from_rows(q, n, [[rng.randrange(q) for _ in range(n)]
                                           for _ in range(rng.randrange(1, 5))])
                  for _ in range(20)]
        want = [product_rank(G, S) for S in spaces]
        tracemalloc.start()
        try:
            M = from_matrix(G)
            got = [M.rank(S) for S in spaces]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1 << 20


class TestFromRankTable:
    def test_spread_table_valid(self, spread_matroid):
        assert check_rank_axioms(spread_matroid).ok

    def test_rank_of_zero_must_vanish(self):
        lat = lattice(2, 2)
        table = {S: min(1, S.dim) for S in lat.spaces}
        table[Subspace.zero(2, 2)] = 1
        with pytest.raises(AxiomViolation) as ei:
            from_rank_table(2, 2, table)
        assert ei.value.axiom == "R1"

    def test_dimension_table_is_free(self):
        lat = lattice(2, 2)
        M = from_rank_table(2, 2, {S: S.dim for S in lat.spaces})
        assert M.matroid_rank == 2

    def test_incomplete_table(self):
        with pytest.raises(IncompleteTable):
            from_rank_table(2, 2, {Subspace.zero(2, 2): 0})

    def test_monotonicity_violation_witnessed(self):
        lat = lattice(2, 2)
        table = {S: (2 if S.dim == 2 else 0) for S in lat.spaces}
        with pytest.raises(AxiomViolation) as ei:
            from_rank_table(2, 2, table)
        assert ei.value.axiom in ("R2", "R3")

    def test_submodularity_violation_witnessed(self):
        lat = lattice(2, 2)
        # rank jumps by 2 at the top: R3 fails on two distinct lines
        table = {S: (0 if S.dim <= 1 else 2) for S in lat.spaces}
        report = check_rank_axioms(
            from_function(2, 2, lambda V: table[V]), limit=None)
        assert any(ax == "R3" for ax, _, _ in report.violations)


class TestFromFlats:
    def test_two_member_chain(self):
        fam = FlatFamily(2, 2, [Subspace.zero(2, 2), Subspace.full(2, 2)])
        assert from_flats(fam).same_rank_table(uniform(2, 2, 1))

    def test_all_subspaces_free(self):
        fam = FlatFamily(2, 2, lattice(2, 2).spaces)
        M = from_flats(fam)
        assert all(M.rank(S) == S.dim for S in lattice(2, 2).spaces)

    def test_invalid_family_rejected(self):
        fam = FlatFamily(2, 4, fprime_closed_form(2))
        with pytest.raises(FlatAxiomViolation):
            from_flats(fam)

    def test_blockdiag_roundtrip(self, n2_matroid):
        M = from_flats(n2_matroid.flats())
        assert M.same_rank_table(n2_matroid)


class TestClosure:
    def test_uniform_closure_saturates(self):
        M = uniform(2, 2, 1)
        assert M.closure(row_space(2, 2, [(1, 0)])) == Subspace.full(2, 2)

    def test_free_closure_identity(self):
        M = uniform(2, 3, 3)
        for S in lattice(2, 3).spaces:
            assert M.closure(S) == S

    def test_blockdiag_t1_closed(self, n2_matroid, t1):
        assert n2_matroid.closure(t1) == t1

    def test_closure_properties_exhaustive(self, repro_matroids):
        lat = lattice(2, 4)
        for M in repro_matroids.values():
            for S in lat.spaces:
                c = M.closure(S)
                assert contains(c, S)                      # extensive
                assert M.rank(c) == M.rank(S)              # rank-preserving
                assert M.closure(c) == c                   # idempotent
            for i in range(lat.size):
                for x in lat.one_ids:
                    j = lat.join_id(i, x)
                    ci = M.closure(lat.spaces[i])
                    cj = M.closure(lat.spaces[j])
                    assert contains(cj, ci)                # monotone


class TestFlats:
    def test_trivial_matroid_single_flat(self):
        M = trivial(2, 2)
        assert M.flats().members == frozenset({Subspace.full(2, 2)})

    def test_flat_characterization_cross_check(self, repro_matroids):
        # V is a flat iff every strictly larger space has larger rank
        lat = lattice(2, 4)
        for M in repro_matroids.values():
            members = M.flats().members
            for i, S in enumerate(lat.spaces):
                strictly_bigger = [j for j in range(lat.size)
                                   if j != i and lat.contains_ids(j, i)]
                is_flat = all(M.rank(lat.spaces[j]) > M.rank(S)
                              for j in strictly_bigger)
                assert (S in members) == is_flat

    def test_blockdiag_flat_formula(self, n1_matroid, n2_matroid, t1, t2):
        for M in (n1_matroid, n2_matroid):
            lat = lattice(2, 4)
            f2 = {S for S in lat.spaces if S.dim == 2 and M.rank(S) == 1}
            f1 = {S for S in lat.spaces if S.dim == 1
                  and not any(contains(W, S) for W in f2)}
            want = {Subspace.zero(2, 4), Subspace.full(2, 4)} | f1 | f2
            assert M.flats().members == frozenset(want)

    def test_heights_are_graded(self, repro_matroids):
        # every cover step raises the height by exactly one
        for M in repro_matroids.values():
            fam = M.flats()
            for F in fam.sorted_members:
                for C in fam.covers_of(F):
                    assert fam.height_of(C) == fam.height_of(F) + 1

    def test_semimodularity(self, repro_matroids):
        # if F1 covers F1 ^ F2 then F1 v F2 covers F2
        lat = lattice(2, 4)
        for M in repro_matroids.values():
            fam = M.flats()
            mem = fam.sorted_members
            for F1, F2 in itertools.product(mem, repeat=2):
                m = lat.spaces[lat.meet_id(lat.id_of(F1), lat.id_of(F2))]
                if m in fam.members and F1 in fam.covers_of(m):
                    v = fam.closure_of(join(F1, F2))
                    assert v in fam.covers_of(F2)


class TestCheckFlatAxioms:
    def test_uniform_passes(self):
        assert check_flat_axioms(uniform(2, 4, 2).flats()).ok

    def test_full_space_alone_passes(self):
        fam = FlatFamily(2, 2, [Subspace.full(2, 2)])
        assert check_flat_axioms(fam).ok

    def test_missing_full_space_fails_f1(self):
        fam = FlatFamily(2, 2, [Subspace.zero(2, 2)])
        report = check_flat_axioms(fam)
        assert not report.ok
        assert report.violations[0][0] == "F1"

    def test_fprime_fails_f3_at_1110_e1(self):
        fam = FlatFamily(2, 4, fprime_closed_form(2))
        report = check_flat_axioms(fam, limit=None)
        assert not report.ok
        hits = [w for ax, w, _ in report.violations if ax == "F3"]
        V = row_space(2, 4, [(1, 1, 1, 0)])
        assert (V, (1, 0, 0, 0)) in hits
        # and the specific failure is "no cover contains the vector"
        detail = next(d for ax, w, d in report.violations
                      if ax == "F3" and w == (V, (1, 0, 0, 0)))
        assert detail == []

    def test_f2_violation(self):
        # two crossing planes without their meet
        fam = FlatFamily(2, 3, [Subspace.full(2, 3),
                                row_space(2, 3, [(1, 0, 0), (0, 1, 0)]),
                                row_space(2, 3, [(0, 1, 0), (0, 0, 1)]),
                                Subspace.zero(2, 3)])
        report = check_flat_axioms(fam, limit=None)
        assert any(ax == "F2" for ax, _, _ in report.violations)


def _one_failing_diamond(q, n):
    """Ranks min(dim, 1) except 0 on the second and last line of the first
    plane, and that pair of lines.

    Only the interval from the zero space to that plane breaks R3, and
    only at that one of its diamonds: rank 1 + 0 exceeds 0 + 0 there,
    while every other pair of its middles has a rank-1 line.  The two
    lines are not the plane's first two, so the witness must pick them
    by rank.
    """
    S = lattice(q, n).spaces
    plane = next(V for V in S if V.dim == 2)
    lines = [i for i, V in enumerate(S) if V.dim == 1 and contains(plane, V)]
    pair = (lines[1], lines[-1])
    return [0 if i in pair else min(V.dim, 1) for i, V in enumerate(S)], pair


@functools.lru_cache(maxsize=None)
def _order_tables(q, n):
    """Containment, meets, joins and vector membership of the spaces of
    F_q^n by lattice id, from Subspace operations (RREF), not from the
    bitmask tables of the lattice."""
    S = lattice(q, n).spaces
    ids = {V: i for i, V in enumerate(S)}
    below = [[contains(T, V) for T in S] for V in S]  # S[i] <= S[j]
    meets = [[ids[meet(V, T)] for T in S] for V in S]
    joins = [[ids[join(V, T)] for T in S] for V in S]
    vectors = [decode_vector(c, q, n) for c in range(1, q ** n)]
    holds = [[V.contains_vector(v) for v in vectors] for V in S]
    return ids, below, meets, joins, vectors, holds


def _reference_covers(fam, i):
    """Ids of the members G > space i with no member strictly between,
    by a quadratic scan."""
    ids, below = _order_tables(fam.q, fam.n)[:2]
    ups = [g for g in sorted(map(ids.get, fam.members)) if g != i and below[i][g]]
    return [g for g in ups if not any(h != g and below[h][g] for h in ups)]


def _reference_flat_axioms(fam, limit):
    """F1, then F2 on every pair of members, then F3 on every (member,
    outside vector) pair in code order, cut at ``limit``."""
    ids, _, meets, _, vectors, holds = _order_tables(fam.q, fam.n)
    S = lattice(fam.q, fam.n).spaces
    members = sorted(map(ids.get, fam.members))
    full = ids[Subspace.full(fam.q, fam.n)]
    out = []

    def room():
        return limit is None or len(out) < limit

    if full not in members:
        out.append(("F1", S[full], None))
    for a, b in itertools.combinations(members, 2):
        if not room():
            break
        if meets[a][b] not in members:
            out.append(("F2", (S[a], S[b]), S[meets[a][b]]))
    if full in members:
        for f in members:
            if not room():
                break
            covers = _reference_covers(fam, f)
            for k, v in enumerate(vectors):
                if holds[f][k]:
                    continue
                hits = [S[c] for c in covers if holds[c][k]]
                if len(hits) != 1:
                    out.append(("F3", (S[f], v), hits))
                    if not room():
                        break
    return out


def _reference_heights(fam):
    """Longest chain below each member, in members."""
    ids, below = _order_tables(fam.q, fam.n)[:2]
    h = {}
    for i in sorted(map(ids.get, fam.members)):
        h[i] = max((h[j] + 1 for j in h if j != i and below[j][i]), default=0)
    S = lattice(fam.q, fam.n).spaces
    return {S[i]: v for i, v in h.items()}


def _families(q, n, rng):
    """Flat families: the flats of uniform matroids, families breaking
    F1, F2 or F3 by construction, random subsets of the lattice (with
    and without the full space) and the closure fixed points of the
    rank inputs of the axiom sweep test, valid or not."""
    lat = lattice(q, n)
    S = lat.spaces
    for k in range(n + 1):
        yield uniform(q, n, k).flats()
    yield FlatFamily(q, n, [Subspace.zero(q, n)])
    yield FlatFamily(q, n, [Subspace.full(q, n)])
    yield FlatFamily(q, n, S)
    yield FlatFamily(q, n, [V for V in S if V.dim != 1])
    for _ in range(8):
        members = rng.sample(S, rng.randint(1, lat.size))
        if rng.random() < 0.7:
            members.append(Subspace.full(q, n))
        yield FlatFamily(q, n, members)
    for rv in itertools.islice(_rank_inputs(q, n, rng), 0, None, 3):
        M = from_function(q, n, lambda V, rv=rv: rv[lat.id_of(V)])
        yield FlatFamily(q, n, [V for i, V in enumerate(S)
                                if M.closure_id(i) == i])


class TestFlatReference:
    """Closures, covers, heights and the flat axioms against their
    definitions, on valid and violating inputs."""

    @pytest.mark.parametrize("q, n", SWEEP_AMBIENTS)
    def test_closure_id_against_definition(self, q, n):
        # closure(V) = V + every 1-space X with rank(V + X) = rank(V);
        # flats() holds the fixed points, or raises on their first
        # flat-axiom failure
        ids, _, _, joins, _, _ = _order_tables(q, n)
        S = lattice(q, n).spaces
        ones = [i for i, V in enumerate(S) if V.dim == 1]
        for rv in _rank_inputs(q, n, random.Random(q * n)):
            M = from_function(q, n, lambda V: rv[ids[V]])
            fixed = []
            for i, V in enumerate(S):
                acc = i
                for x in ones:
                    if rv[joins[i][x]] == rv[i]:
                        acc = joins[acc][x]
                assert M.closure_id(i) == acc
                if acc == i:
                    fixed.append(V)
            fam = FlatFamily(q, n, fixed)
            if _reference_flat_axioms(fam, 1):
                with pytest.raises(FlatAxiomViolation):
                    M.flats()
            else:
                assert M.flats() == fam

    @pytest.mark.parametrize("q, n", SWEEP_AMBIENTS)
    def test_flat_family_against_quadratic_scans(self, q, n):
        ids, below, meets = _order_tables(q, n)[:3]
        S = lattice(q, n).spaces
        kinds = set()
        for fam in _families(q, n, random.Random(7 * q + n)):
            for limit in (None, 1, 3):
                report = check_flat_axioms(fam, limit=limit)
                assert report.violations == _reference_flat_axioms(fam, limit)
                assert report.ok == (not report.violations)
            kinds.update(v[0] for v in check_flat_axioms(fam, limit=None).violations)
            members = sorted(map(ids.get, fam.members))
            for i, V in enumerate(S):
                assert fam.covers_of(V) == [S[g] for g in _reference_covers(fam, i)]
                above = [f for f in members if below[i][f]]
                if above:
                    acc = above[0]
                    for f in above:
                        acc = meets[acc][f]
                    assert fam.closure_of(V) == S[acc]
                else:
                    with pytest.raises(FlatAxiomViolation):
                        fam.closure_of(V)
            assert fam.heights == _reference_heights(fam)
        assert kinds == {"F1", "F2", "F3"}

    def test_named_violating_families(self):
        fams = [FlatFamily(2, 4, fprime_closed_form(2)),
                FlatFamily(2, 3, [Subspace.full(2, 3),
                                  row_space(2, 3, [(1, 0, 0), (0, 1, 0)]),
                                  row_space(2, 3, [(0, 1, 0), (0, 0, 1)]),
                                  Subspace.zero(2, 3)]),
                FlatFamily(2, 2, [Subspace.zero(2, 2)]),
                # the covers of 0 hold 3 + 3 + 1 = 7 nonzero vectors, as
                # many as F_2^3 has, yet miss 111 and share 010
                FlatFamily(2, 3, [Subspace.zero(2, 3), Subspace.full(2, 3),
                                  row_space(2, 3, [(1, 0, 0), (0, 1, 0)]),
                                  row_space(2, 3, [(0, 1, 0), (0, 0, 1)]),
                                  row_space(2, 3, [(1, 0, 1)])])]
        for fam in fams:
            for limit in (None, 1, 3):
                assert (check_flat_axioms(fam, limit=limit).violations
                        == _reference_flat_axioms(fam, limit))
            ids = _order_tables(fam.q, fam.n)[0]
            for F in fam.sorted_members:
                assert fam.covers_of(F) == [lattice(fam.q, fam.n).spaces[g]
                                            for g in _reference_covers(fam, ids[F])]


class TestIndependenceCircuitsLoops:
    def test_u1_circuits(self):
        assert uniform(2, 2, 1).circuits() == [Subspace.full(2, 2)]

    def test_loops_of_trivial(self):
        M = trivial(2, 2)
        assert len(M.loops()) == 3

    def test_free_has_no_circuits(self):
        assert uniform(2, 3, 3).circuits() == []

    def test_subspaces_of_independent_are_independent(self, repro_matroids):
        from qmatroids import subspaces_of
        for M in repro_matroids.values():
            for S in lattice(2, 4).spaces:
                if M.is_independent(S):
                    assert all(M.is_independent(T) for T in subspaces_of(S))

    def test_rank_attained_by_independent_subspace(self, repro_matroids):
        from qmatroids import subspaces_of
        for M in repro_matroids.values():
            for S in lattice(2, 4).spaces:
                assert any(M.is_independent(T) and M.rank(T) == M.rank(S)
                           for T in subspaces_of(S))


class TestMinors:
    def test_restriction_of_uniform(self):
        M = uniform(2, 3, 2)
        X = row_space(2, 3, [(1, 0, 0), (0, 1, 0)])
        assert M.restriction(X).same_rank_table(uniform(2, 2, 2))

    def test_restriction_to_full_is_identity(self, n2_matroid):
        assert n2_matroid.restriction(Subspace.full(2, 4)).same_rank_table(n2_matroid)

    def test_restriction_to_t1(self, n2_matroid, t1):
        R = n2_matroid.restriction(t1)
        assert R.same_rank_table(uniform(2, 2, 1))

    def test_contraction_by_zero(self, n2_matroid):
        C = n2_matroid.contraction(Subspace.zero(2, 4))
        assert C.same_rank_table(n2_matroid)

    def test_contraction_of_uniform(self):
        M = uniform(2, 3, 2)
        C = M.contraction(row_space(2, 3, [(1, 0, 0)]))
        assert C.same_rank_table(uniform(2, 2, 1))

    def test_contraction_by_full(self, n2_matroid):
        C = n2_matroid.contraction(Subspace.full(2, 4))
        assert C.n == 0 and C.matroid_rank == 0

    def test_contraction_well_defined(self, spread_matroid):
        # the stated value is independent of the preimage chosen
        lat = lattice(2, 4)
        for X in [row_space(2, 4, [(1, 0, 0, 0)]),
                  row_space(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])]:
            C = spread_matroid.contraction(X)
            pi, d = quotient_map(X)
            rx = spread_matroid.rank(X)
            for V in lat.spaces:
                W = pi.image_of(V)
                assert C.rank(W) == spread_matroid.rank(join(V, X)) - rx

    def test_restriction_rank_agrees_on_sublattice(self, repro_matroids, t1):
        from qmatroids import embedding_map
        for M in repro_matroids.values():
            R = M.restriction(t1)
            emb = embedding_map(t1)
            for S in lattice(2, 2).spaces:
                assert R.rank(S) == M.rank(emb.image_of(S))


def _random_ranks(q, n, rng):
    # an arbitrary integer on every space: pullbacks must transport any
    # rank function, valid or not
    lat = lattice(q, n)
    return from_rank_vector(q, n, [rng.randrange(lat.dims[i] + 2)
                                   for i in range(lat.size)])


def _restriction_by_coordinates(M, X):
    """Ranks of M|X by id: each space S <= X, in coordinates of X's basis."""
    lat = lattice(M.q, X.dim)
    rv = [None] * lat.size
    for S in lattice(M.q, M.n).spaces:
        if contains(X, S):
            V = Subspace.from_rows(M.q, X.dim, [X.coordinates_of(r) for r in S.basis])
            rv[lat.id_of(V)] = M.rank(S)
    return rv


def _contraction_by_quotient(M, X):
    """Ranks of M/X by id: rank(V + X) - rank(X) at the quotient image of V."""
    pi, d = quotient_map(X)
    lat = lattice(M.q, d)
    rx = M.rank(X)
    rv = [None] * lat.size
    for V in lattice(M.q, M.n).spaces:
        i, r = lat.id_of(pi.image_of(V)), M.rank(join(V, X)) - rx
        assert rv[i] in (None, r)
        rv[i] = r
    return rv


def _frobenius_twist(S, j):
    """sigma^j applied to every entry of S's basis rows, re-reduced."""
    F = ground_field(S.q)
    return Subspace.from_rows(S.q, S.n, [tuple(F.base_frobenius(x, j) for x in row)
                                         for row in S.basis])


class TestPullback:
    """Rank vectors of the pullbacks against their per-space ranks and
    against each minor's definition, computed without ``pullback``."""

    @staticmethod
    def _inputs(q, uniform_sum):
        rng = random.Random(q)
        if q == 2:
            return [uniform_sum.total, _random_ranks(2, 3, rng)]
        spec = make_field(3, 1, 3)
        return [from_matrix(full_rank_matrices(spec, 2, 3, rng)[0]),
                _random_ranks(3, 3, rng)]

    @staticmethod
    def _agree(P, want):
        spaces = lattice(P.q, P.n).spaces
        assert P.rank_vector() == [P.rank(V) for V in spaces] == want

    @pytest.mark.parametrize("q", [2, 3])
    def test_restriction_and_contraction(self, q, uniform_sum):
        for M in self._inputs(q, uniform_sum):
            M.rank_vector()
            for X in lattice(M.q, M.n).spaces:
                # a minor reads M's ranks by id when they are materialized
                # or it has M's dimension, else it ranks its own spaces
                fresh = from_function(M.q, M.n, M.rank)
                for N in (M, fresh):
                    self._agree(N.restriction(X), _restriction_by_coordinates(M, X))
                    self._agree(N.contraction(X), _contraction_by_quotient(M, X))
                assert (fresh._rank_vector is None) == (0 < X.dim < M.n)

    @pytest.mark.parametrize("q", [2, 3])
    def test_pushforward(self, q, uniform_sum):
        from qmatroids.maps import preimage
        F = ground_field(q)
        rng = random.Random(10 + q)
        for M in self._inputs(q, uniform_sum):
            for _ in range(3):
                while True:
                    A = Mat(F, M.n, M.n, [rng.randrange(q) for _ in range(M.n ** 2)])
                    if A.rank() == M.n:
                        break
                phi = lmap_from_matrix(A)
                self._agree(pushforward(M, phi),
                            [M.rank(preimage(phi, W)[2])
                             for W in lattice(q, M.n).spaces])

    @pytest.mark.parametrize("q, n", [(4, 2), (4, 3), (8, 2)])
    def test_semilinear_twist(self, q, n):
        F = ground_field(q)
        eye = Mat(F, n, n, [int(i == j) for i in range(n) for j in range(n)])
        M = _random_ranks(q, n, random.Random(q + n))
        for j in range(1, F.k):
            twisted = pullback(M, lmap_from_matrix(eye, automorphism=j))
            self._agree(twisted, [M.rank(_frobenius_twist(S, j))
                                  for S in lattice(q, n).spaces])

    def test_minors_beyond_the_parents_lattice(self):
        # F_2^10 has more subspaces than the enumeration cap; minors of
        # small dimension rank their own lattice without the parent's
        q, n = 2, 10
        rng = random.Random(10)
        X = Subspace.from_rows(q, n, [[rng.randrange(q) for _ in range(n)]
                                      for _ in range(3)])
        assert X.dim == 3
        Y = Subspace.from_rows(q, n, [[rng.randrange(q) for _ in range(n)]
                                      for _ in range(7)])
        assert Y.dim == 7
        R = uniform(q, n, 2).restriction(X)
        C = uniform(q, n, 8).contraction(Y)
        dims = lattice(q, 3).dims
        assert R.rank_vector() == [min(d, 2) for d in dims]
        assert C.rank_vector() == [min(d, 1) for d in dims]
        assert R.flats().members == uniform(q, 3, 2).flats().members
        assert R.circuits() == uniform(q, 3, 2).circuits()
        assert C.circuits() == uniform(q, 3, 1).circuits()

    @pytest.mark.parametrize("n", [9, 11])
    def test_restriction_beyond_the_caps(self, n):
        # F_3^9 has more subspaces than the enumeration cap, F_3^11 more
        # vectors too; a rank of a restriction maps the basis rows of a
        # space of X and builds no table over the parent's vectors
        q = 3
        assert count_subspaces(q, n) > DEFAULT_MAX_SUBSPACES
        rng = random.Random(n)
        G = full_rank_matrices(make_field(3, 1, 2), 3, n, rng)[0]
        X = Subspace.from_rows(q, n, [[rng.randrange(q) for _ in range(n)]
                                      for _ in range(4)])
        spaces = [Subspace.from_rows(q, X.dim, [[rng.randrange(q) for _ in range(X.dim)]
                                                for _ in range(rng.randrange(1, 4))])
                  for _ in range(10)]
        want = [product_rank(G, Subspace.from_rows(q, n, (vector_at(X, row) for row in S.basis)))
                for S in spaces]
        tracemalloc.start()
        try:
            R = from_matrix(G).restriction(X)
            got = [R.rank(S) for S in spaces]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1 << 20

    def test_codomain_must_be_the_ambient(self):
        with pytest.raises(AmbientMismatch):
            pullback(uniform(2, 3, 1), lmap_from_matrix(
                Mat(ground_field(2), 2, 2, [1, 0, 0, 1])))


def _brute_completion(tau):
    """rank(V) = min over X <= V of tau(X) + dim V - dim X, by enumeration."""
    return lambda V: min(tau(X) + V.dim - X.dim for X in subspaces_of(V))


class TestOneRankStore:
    """Every constructor's single ranks, before and after its rank vector
    is materialized, against a rank defined without the vector."""

    @staticmethod
    def _constructors():
        """(name, make, oracle): make() builds a fresh matroid, oracle(V)
        ranks V by the constructor's definition."""
        F = ground_field(2)
        G = blockdiag_matroid(2, 4, 2).payload["G"]
        spread = example_nonrepresentable().rank_table()
        X = row_space(2, 4, [(1, 0, 0, 1), (0, 1, 1, 1)])
        pinch = lmap_from_matrix(Mat(F, 3, 4, [1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1]))
        twist = lmap_from_matrix(Mat(F, 4, 4, [1, 1, 0, 0, 0, 1, 0, 0,
                                               0, 0, 1, 1, 1, 0, 0, 1]))
        tau = {S: min(2, S.dim) for S in lattice(2, 3).spaces}
        tau[row_space(2, 3, [(1, 0, 0), (0, 1, 0)])] = 1
        contracted = _contraction_by_quotient(from_function(2, 4, spread.__getitem__), X)
        return [
            ("matrix", lambda: from_matrix(G), lambda V: product_rank(G, V)),
            ("uniform", lambda: uniform(2, 4, 2), lambda V: min(2, V.dim)),
            ("function", lambda: from_function(2, 4, spread.__getitem__), spread.__getitem__),
            ("rank table", lambda: from_rank_table(2, 4, spread), spread.__getitem__),
            ("flats", lambda: from_flats(example_nonrepresentable().flats()),
             spread.__getitem__),
            ("pullback", lambda: pullback(from_rank_table(2, 4, spread), pinch),
             lambda V: spread[pinch.image_of(V)]),
            ("restriction", lambda: example_nonrepresentable().restriction(X),
             lambda V: spread[embedding_map(X).image_of(V)]),
            ("contraction", lambda: example_nonrepresentable().contraction(X),
             lambda V: contracted[lattice(2, 2).id_of(V)]),
            ("pushforward", lambda: pushforward(example_nonrepresentable(), twist),
             lambda V: spread[twist.inverse().image_of(V)]),
            ("completion", lambda: submodular_completion(2, 3, tau.__getitem__),
             _brute_completion(tau.__getitem__)),
            ("direct sum", lambda: direct_sum(uniform(2, 2, 1), uniform(2, 2, 1)).total,
             lambda V: product_rank(G, V)),
        ]

    def test_single_ranks_against_each_definition(self):
        for name, make, oracle in self._constructors():
            M = make()
            spaces = lattice(M.q, M.n).spaces
            want = [oracle(V) for V in spaces]
            assert [M.rank(V) for V in spaces] == want, name
            assert M.rank_vector() == want, name
            assert [M.rank(V) for V in spaces] == want, name
            assert [make().rank(V) for V in spaces] == want, name

    def test_rank_table_keeps_no_reference_to_the_table(self):
        lat = lattice(2, 3)
        table = {S: min(2, S.dim) for S in lat.spaces}
        M = from_rank_table(2, 3, table)
        for S in lat.spaces:
            table[S] = 0
        assert [M.rank(S) for S in lat.spaces] == [min(2, d) for d in lat.dims]
        assert M.rank_vector() == [min(2, d) for d in lat.dims]
        assert "table" not in (M.payload or {})


class TestRoundtrips:
    def test_rank_to_flats_to_rank(self, repro_matroids):
        for name, M in repro_matroids.items():
            again = from_flats(M.flats())
            assert again.same_rank_table(M), name

    def test_flats_to_rank_to_flats(self, repro_matroids):
        for name, M in repro_matroids.items():
            fam = M.flats()
            assert from_flats(fam).flats() == fam, name


class TestIsIsomorphic:
    def test_self_isomorphic_identity(self, n2_matroid):
        w = is_isomorphic(n2_matroid, n2_matroid)
        assert w is not None
        assert w.table == tuple(range(16))

    def test_uniform_invariant_under_shuffle(self):
        M = uniform(2, 2, 1)
        F = ground_field(2)
        swap = lmap_from_matrix(Mat(F, 2, 2, [0, 1, 1, 0]))
        assert is_isomorphic(M, pushforward(M, swap)) is not None

    def test_n1_n2_not_isomorphic(self, n1_matroid, n2_matroid):
        stats = {}
        assert is_isomorphic(n1_matroid, n2_matroid, prune=False,
                             stats=stats) is None
        assert stats["leaves"] == 20160

    def test_pruned_and_unpruned_agree(self, n1_matroid, n2_matroid):
        assert is_isomorphic(n1_matroid, n2_matroid, prune=True) is None
        w1 = is_isomorphic(n1_matroid, n1_matroid, prune=True)
        assert w1 is not None

    def test_generic_path_q3(self):
        M = uniform(3, 2, 1)
        F = ground_field(3)
        twist = lmap_from_matrix(Mat(F, 2, 2, [0, 1, 2, 0]))
        N = pushforward(M, twist)
        w = is_isomorphic(M, N)
        assert w is not None
        lat = lattice(3, 2)
        for S in lat.spaces:
            assert N.rank(w.image_of(S)) == M.rank(S)

    def test_q3_negative(self):
        assert is_isomorphic(uniform(3, 2, 1), uniform(3, 2, 2)) is None

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            is_isomorphic(uniform(2, 2, 1), uniform(2, 3, 1))

    def test_search_bound(self):
        with pytest.raises(SearchBoundExceeded):
            is_isomorphic(uniform(2, 16, 1), uniform(2, 16, 1))

    def test_semilinear_coincides_with_linear_for_prime_q(self):
        # Aut(F_q) is trivial for prime q, so the two modes must agree
        M = uniform(3, 2, 1)
        F = ground_field(3)
        twist = lmap_from_matrix(Mat(F, 2, 2, [0, 1, 2, 0]))
        N = pushforward(M, twist)
        lin = is_isomorphic(M, N, mode="linear")
        semi = is_isomorphic(M, N, mode="semilinear")
        assert lin is not None and semi is not None
        assert lin.table == semi.table
        assert is_isomorphic(uniform(3, 2, 1), uniform(3, 2, 2),
                             mode="semilinear") is None

    def test_semilinear_mode_gf4(self):
        # over GF(4) the Frobenius twist of a representable matroid is
        # semilinearly, and here also linearly, isomorphic to it
        spec = make_field(2, 2, 2)
        w = spec.omega_val
        F4 = ground_field(4)
        for G in (Mat(spec, 1, 2, [1, w]), Mat(spec, 2, 3, [1, w, 0, 0, 1, w])):
            M = from_matrix(G)
            n = G.cols
            eye = [int(i == j) for i in range(n) for j in range(n)]
            frob = lmap_from_matrix(Mat(F4, n, n, eye), automorphism=1)
            N = pushforward(M, frob)
            witness = is_isomorphic(M, N, mode="semilinear")
            assert witness is not None
            for S in lattice(4, n).spaces:
                assert N.rank(witness.image_of(S)) == M.rank(S)

    def test_semilinear_witness_gf8(self):
        # Aut(GF(8)) has order 3, so sigma^j and sigma^-j differ; these
        # arbitrary ranks are linearly isomorphic to neither Frobenius
        # image, and the witness must map every space onto one of its rank
        F8 = ground_field(8)
        M = _random_ranks(8, 2, random.Random(9))
        for a in (1, 2):
            N = pushforward(M, lmap_from_matrix(Mat(F8, 2, 2, [1, 0, 0, 1]),
                                                automorphism=a))
            assert is_isomorphic(M, N) is None
            witness = is_isomorphic(M, N, mode="semilinear")
            assert witness is not None
            for S in lattice(8, 2).spaces:
                assert N.rank(witness.image_of(S)) == M.rank(S)

    def test_semilinear_scan_exhausts_every_twist(self):
        # Aut(GF(4)) has two elements: an unpruned scan of a
        # non-isomorphic pair runs GL(2,4) once for each
        stats = {}
        assert is_isomorphic(uniform(4, 2, 1), uniform(4, 2, 2),
                             mode="semilinear", prune=False, stats=stats) is None
        assert stats == {"leaves": 2 * 180, "nodes": 2 * (15 + 180),
                         "candidates": 2 * 180, "refused": None}


class TestPushforward:
    def test_ranks_transported(self, spread_matroid):
        F = ground_field(2)
        A = Mat(F, 4, 4, [0, 1, 0, 0,
                          1, 0, 0, 0,
                          0, 0, 0, 1,
                          0, 0, 1, 0])
        phi = lmap_from_matrix(A)
        N = pushforward(spread_matroid, phi)
        for S in lattice(2, 4).spaces:
            assert N.rank(phi.image_of(S)) == spread_matroid.rank(S)
        assert check_rank_axioms(N).ok


class TestAxiomSweeps:
    def test_all_repro_matroids_pass(self, repro_matroids):
        for name, M in repro_matroids.items():
            assert check_rank_axioms(M).ok, name

    @pytest.mark.parametrize("q, n", SWEEP_AMBIENTS)
    def test_sweep_against_pairwise_definition(self, q, n):
        # the defining checks (R2 on every containment, R3 on every pair)
        # judge each input; the report must agree on the verdict, list
        # the R1 failures exactly, and draw its R2/R3 witnesses from
        # them; in full it is the cover failures, then one witness per
        # height-2 interval [A, L] with a failing diamond, by A and L:
        # the diamond whose middles have the least (rank, id) keys
        lat = lattice(q, n)
        S = lat.spaces
        ids = {V: i for i, V in enumerate(S)}
        pairs = [(i, j, ids[join(S[i], S[j])], ids[meet(S[i], S[j])])
                 for i, j in itertools.combinations(range(lat.size), 2)]
        nested = [(i, j) for i in range(lat.size) for j in range(lat.size)
                  if j != i and contains(S[i], S[j])]
        covers = [[j for j in range(lat.size)
                   if S[j].dim == S[i].dim + 1 and contains(S[j], S[i])]
                  for i in range(lat.size)]
        diamonds = [(a, b, c, ids[join(S[b], S[c])]) for a in range(lat.size)
                    for b, c in itertools.combinations(covers[a], 2)]
        intervals = {}  # (A, L) -> the middle pairs (B, C) of its diamonds
        for a, b, c, top in diamonds:
            intervals.setdefault((a, top), []).append((b, c))
        assert all(len(mids) == q * (q + 1) // 2 for mids in intervals.values())
        inputs = list(_rank_inputs(q, n, random.Random(10 * q + n)))
        if q == 3:
            single, witness = _one_failing_diamond(q, n)
            inputs.append(single)
        classes = set()
        for rv in inputs:
            r1 = [("R1", (S[i],), rv[i]) for i in range(lat.size)
                  if not 0 <= rv[i] <= S[i].dim]
            want = r1 + [("R2", (S[j], S[i]), (rv[j], rv[i]))
                         for i, j in nested if rv[j] > rv[i]]
            for i, j, ij_join, ij_meet in pairs:
                lhs = rv[ij_join] + rv[ij_meet]
                if lhs > rv[i] + rv[j]:
                    want.append(("R3", (S[i], S[j]), (lhs, rv[i] + rv[j])))
            local = [("R2", (S[i], S[j]), (rv[i], rv[j]))
                     for i in range(lat.size) for j in covers[i]
                     if rv[i] > rv[j]]
            failing_diamonds = []
            for (a, top), mids in sorted(intervals.items()):
                lhs = rv[top] + rv[a]
                failing = [(b, c) for b, c in mids if lhs > rv[b] + rv[c]]
                failing_diamonds += failing
                if failing:
                    b, c = min(mids, key=lambda bc: sorted((rv[x], x) for x in bc))
                    assert (b, c) in failing
                    local.append(("R3", (S[b], S[c]), (lhs, rv[b] + rv[c])))
            if q == 3 and rv is single:
                assert failing_diamonds == [witness]
                assert [v for v in local if v[0] == "R3"] == [
                    ("R3", (S[witness[0]], S[witness[1]]), (1, 0))]
            M = from_function(q, n, lambda V: rv[ids[V]])
            full = check_rank_axioms(M, limit=None)
            assert full.ok == (not want)
            assert full.violations == r1 + local
            assert all(v in want for v in local)
            for limit in (1, 3):
                report = check_rank_axioms(M, limit=limit)
                assert report.violations == full.violations[:limit]
                assert report.ok == full.ok
            failing = {v[0] for v in want}
            if {"R2", "R3"} & failing:
                axiom = "R2" if "R2" in failing else "R3"
                error = TauNotMonotone if axiom == "R2" else TauNotSubmodular
                with pytest.raises(error) as ei:
                    submodular_completion(q, n, lambda V: rv[ids[V]])
                first = next(w for ax, w, _ in local if ax == axiom)
                assert ei.value.witness == first
                assert first in [w for ax, w, _ in want if ax == axiom]
            else:
                submodular_completion(q, n, lambda V: rv[ids[V]])
            classes.add(frozenset(failing))
        assert {frozenset(), frozenset({"R1"}), frozenset({"R2"}),
                frozenset({"R3"})} <= classes

    def test_rank_of_zero_reported_once(self):
        # rank 1 everywhere breaks R1 at the zero space only
        bad = from_function(2, 2, lambda V: 1)
        want = [("R1", (Subspace.zero(2, 2),), 1)]
        for limit in (None, 1, 2):
            assert check_rank_axioms(bad, limit=limit).violations == want

    def test_limit_none_collects_everything(self):
        lat = lattice(2, 2)
        bad = from_function(2, 2, lambda V: 1 if V.dim else 1)
        report = check_rank_axioms(bad, limit=None)
        assert not report.ok  # rank(0) = 1 breaks R1
