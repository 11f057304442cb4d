"""Named constructions and counterexample verifiers, runnable by id.

Every verifier returns a ReproReport listing named sub-checks with
pass/fail and witnesses; search-based checks record exhausted node
counts so a pass doubles as a certificate.  Reports are deterministic
given the default field moduli.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from . import kernels
from .errors import ExtensionTooSmall, IndexNotInOmega, SearchBoundExceeded
from .fields import ground_field, make_field, omega_index_set
from .maps import (
    LMap,
    classify_map,
    compose,
    identity_map,
    iota_maps,
    l_equivalent,
    lmap_checks,
    lmap_from_table,
    subspace_test,
    zero_map,
)
from .qmatroid import (
    FlatFamily,
    QMatroid,
    check_flat_axioms,
    check_rank_axioms,
    from_matrix,
    from_rank_table,
    is_isomorphic,
    uniform,
)
from .dirsum import (
    CheckReport,
    direct_sum,
    dirsum_circuits,
    lclass_scaling_family,
    verify_coproduct_lw,
)
from .subspaces import Mat, Subspace, join, lattice, meet


class ReproReport(CheckReport):
    """The checks of one named item, with its counters and wall time."""
    __slots__ = ("item", "counters", "wall_time")

    def __init__(self, item: str):
        super().__init__()
        self.item = item
        self.counters = {}
        self.wall_time = 0.0

    @property
    def passed(self) -> bool:
        return self.ok

    def summary(self) -> str:
        lines = [f"[{self.item}] {'PASS' if self.passed else 'FAIL'} "
                 f"({self.wall_time:.2f}s)"]
        for name, ok, detail in self.checks:
            mark = "ok " if ok else "FAIL"
            extra = f"  {detail}" if (detail is not None and not ok) else ""
            lines.append(f"  {mark} {name}{extra}")
        for k, v in sorted(self.counters.items()):
            lines.append(f"  # {k} = {v}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the smallest non-representable q-matroid

def spread_members():
    rows = [((1, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 1), (0, 1, 1, 1)),
            ((1, 0, 1, 1), (0, 1, 1, 0))]
    return [Subspace.from_rows(2, 4, r) for r in rows]


def example_nonrepresentable() -> QMatroid:
    """Rank 1 on the four listed partial-spread planes, min(2, dim) elsewhere."""
    spread = set(spread_members())
    for A in spread:
        for B in spread:
            if A != B:
                assert meet(A, B).is_zero, "spread members must meet trivially"
    lat = lattice(2, 4)
    table = {S: (1 if S in spread else min(2, S.dim)) for S in lat.spaces}
    M = from_rank_table(2, 4, table)
    M.kind = "spread_example"
    return M


def verify_example_nonrepresentable() -> ReproReport:
    rep = ReproReport("ex-2-2")
    M = example_nonrepresentable()
    rep.add("rank_axioms", check_rank_axioms(M).ok)
    spread = spread_members()
    rep.add("spread_pairwise_meet_zero",
            all(meet(A, B).is_zero for A in spread for B in spread if A != B))
    rep.add("rank_of_listed_plane",
            M.rank(Subspace.from_rows(2, 4, [(1, 0, 1, 1), (0, 1, 1, 0)])) == 1)
    lat = lattice(2, 4)
    rep.add("one_spaces_rank_1",
            all(M.rank(lat.spaces[i]) == 1 for i in lat.one_ids))
    rep.add("full_rank_2", M.matroid_rank == 2)
    rep.add("flat_axioms", check_flat_axioms(M.flats()).ok)
    return rep


# ---------------------------------------------------------------------------
# block-diagonal family N^(i)

def _field_for(q: int, m: int):
    g = ground_field(q)
    return make_field(g.p, g.k, m)


def blockdiag_matroid(q: int, m: int, i: int) -> QMatroid:
    """N^(i), represented by ((1, w, 0, 0), (0, 0, 1, w^i)) over GF(q^m)."""
    spec = _field_for(q, m)
    if i not in omega_index_set(spec):
        raise IndexNotInOmega(f"i={i} not in Omega for q={q}, m={m}")
    w = spec.omega_val
    G = Mat(spec, 2, 4, [1, w, 0, 0, 0, 0, 1, spec.pow(w, i)])
    M = from_matrix(G)
    M.kind = "blockdiag"
    M.payload["index"] = i
    return M


def _t_spaces(q: int):
    T1 = Subspace.from_rows(q, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    T2 = Subspace.from_rows(q, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    return T1, T2


def _powers_independent(spec, i: int) -> bool:
    """Are 1, w, w^i, w^{i+1} linearly independent over the base field?"""
    rows = [spec.coeffs(spec.pow(spec.omega_val, e)) for e in (0, 1, i, i + 1)]
    from .subspaces import rref
    _, rank = rref(rows, spec.q, spec.m)
    return rank == 4


def _dependency_vector(spec, i: int):
    """Nonzero f with f0 + f1 w + f2 w^i + f3 w^{i+1} = 0, if one exists."""
    from .subspaces import complement, row_space
    rows = [spec.coeffs(spec.pow(spec.omega_val, e)) for e in (0, 1, i, i + 1)]
    # f . rows = 0  <=>  f orthogonal to the columns of the 4 x m matrix
    cols = [tuple(r[j] for r in rows) for j in range(spec.m)]
    ker = complement(row_space(spec.q, 4, cols))
    if ker.is_zero:
        return None
    return ker.basis[0]


def verify_blockdiag(q: int, m: int, i: int, check_flats: bool = True) -> ReproReport:
    rep = ReproReport(f"prop-4-2(q={q},m={m},i={i})")
    spec = _field_for(q, m)
    M = blockdiag_matroid(q, m, i)
    T1, T2 = _t_spaces(q)
    lat = lattice(q, 4)
    rep.add("rank_T1_T2_is_1", M.rank(T1) == 1 and M.rank(T2) == 1)
    rep.add("rank_full_is_2", M.matroid_rank == 2)
    rep.add("one_spaces_rank_1",
            all(M.rank(lat.spaces[j]) == 1 for j in lat.one_ids))
    rep.add("three_spaces_rank_2",
            all(M.rank(S) == 2 for S in lat.spaces if S.dim == 3))
    l2 = [S for S in lat.spaces if S.dim == 2 and S != T1 and S != T2]
    rep.counters["l2_spaces"] = len(l2)
    rank1 = [S for S in l2 if M.rank(S) == 1]
    indep = _powers_independent(spec, i)
    rep.add("l2_dichotomy", (not rank1) == indep,
            {"independent": indep, "rank1_members": rank1[:4]})
    if not indep:
        f = _dependency_vector(spec, i)
        F = ground_field(q)
        wit = Subspace.from_rows(q, 4, [
            (1, 0, F.base_neg(f[1]), F.base_neg(f[3])),
            (0, 1, f[0], f[2])])
        rep.add("dependency_witness_rank_1", M.rank(wit) == 1, wit)
    if check_flats:
        fam = M.flats()
        f2 = {S for S in l2 if M.rank(S) == 1} | {T1, T2}
        f1 = {lat.spaces[j] for j in lat.one_ids
              if not any(lat.spaces[j] <= S for S in f2)}
        expected = {Subspace.zero(q, 4), Subspace.full(q, 4)} | f1 | f2
        rep.add("flats_formula", fam.members == frozenset(expected))
    return rep


def verify_blockdiag_family(q: int = 2, m: int = 4) -> ReproReport:
    """Prop 4.2 across the whole index set Omega."""
    rep = ReproReport(f"prop-4-2(q={q},m={m})")
    spec = _field_for(q, m)
    omega = sorted(omega_index_set(spec))
    rep.counters["indices"] = len(omega)
    for i in omega:
        sub = verify_blockdiag(q, m, i, check_flats=(q == 2))
        rep.add(f"i={i}", sub.passed,
                None if sub.passed else sub.checks)
    return rep


# ---------------------------------------------------------------------------
# Lemma: the union of the N^(i) flats in closed form

def fprime_closed_form(q: int):
    T1, T2 = _t_spaces(q)
    lat = lattice(q, 4)
    members = {Subspace.zero(q, 4), Subspace.full(q, 4), T1, T2}
    t1id, t2id = lat.id_of(T1), lat.id_of(T2)
    for idx, S in enumerate(lat.spaces):
        if 1 <= S.dim <= 2:
            if (lat.meet_id(idx, t1id) == lat.zero_id
                    and lat.meet_id(idx, t2id) == lat.zero_id):
                members.add(S)
    return members


def fprime(q: int, m: int):
    """Union of the N^(i) flat families, brute force vs closed form.

    Returns (members, report); the report asserts the two sets agree.
    """
    if m < 4:
        raise ExtensionTooSmall("the closed form needs m >= 4")
    rep = ReproReport(f"lemma-4-3(q={q},m={m})")
    spec = _field_for(q, m)
    omega = sorted(omega_index_set(spec))
    brute = set()
    for i in omega:
        brute |= blockdiag_matroid(q, m, i).flats().members
    closed = fprime_closed_form(q)
    rep.counters["indices"] = len(omega)
    rep.counters["members"] = len(closed)
    lat = lattice(q, 4)
    rep.add("union_equals_closed_form", brute == closed,
            {"only_brute": sorted(brute - closed, key=lat.id_of),
             "only_closed": sorted(closed - brute, key=lat.id_of)})
    T1, T2 = _t_spaces(q)
    rep.add("contains_T1_T2", T1 in closed and T2 in closed)
    rep.add("example_member_1110",
            Subspace.from_rows(q, 4, [(1, 1, 1, 0)]) in closed)
    rep.add("e1_not_member",
            Subspace.from_rows(q, 4, [(1, 0, 0, 0)]) not in closed)
    return closed, rep


def verify_fprime(q: int = 2, m: int = 4) -> ReproReport:
    return fprime(q, m)[1]


# ---------------------------------------------------------------------------
# non-existence of a coproduct for linear strong / linear rank-preserving maps

def verify_thm_linear_noncoproduct(q: int = 2, m: int = 4) -> ReproReport:
    rep = ReproReport("thm-4-5")
    members, sub = fprime(q, m)
    rep.add("lemma_4_3", sub.passed)
    T1, T2 = _t_spaces(q)
    zero = Subspace.zero(q, 4)
    full = Subspace.full(q, 4)
    fam = FlatFamily(q, 4, members)
    f1 = sorted((S for S in members if S.dim == 1), key=lattice(q, 4).id_of)
    f2 = sorted((S for S in members if S.dim == 2 and S not in (T1, T2)),
                key=lattice(q, 4).id_of)

    # cover formula over every member
    formula_ok = True
    witness = None
    for V in fam.sorted_members:
        got = set(fam.covers_of(V))
        if V == zero:
            want = {T1, T2} | set(f1)
        elif V in f1:
            want = {W for W in f2 if V <= W}
            if not want:
                formula_ok, witness = False, (V, "no F2-prime cover")
                break
        elif V in f2 or V in (T1, T2):
            want = {full}
        else:  # V == full
            want = set()
        if got != want:
            formula_ok, witness = False, (V, got, want)
            break
    rep.add("cover_formula", formula_ok, witness)

    # the concrete F3 failure driving the proof
    V0 = Subspace.from_rows(q, 4, [(1, 1, 1, 0)])
    e1 = (1, 0, 0, 0)
    covers = fam.covers_of(V0)
    rep.add("no_cover_of_1110_contains_e1",
            not any(C.contains_vector(e1) for C in covers),
            [c for c in covers if c.contains_vector(e1)])
    f3 = check_flat_axioms(fam, limit=None)
    f3_hits = [w for a, w, _ in f3.violations if a == "F3"]
    rep.add("f3_fails", not f3.ok)
    rep.add("f3_fails_at_1110_e1", (V0, e1) in f3_hits)

    # the forced chain: V0 + <e1> pulls back to a nonzero subspace of M1,
    # forcing T1, hence the 3-space S; S pulls back through iota_2,
    # forcing T2, hence the full space
    iota1, iota2 = iota_maps(q, 2, 2)
    Vv = join(V0, Subspace.from_rows(q, 4, [e1]))
    from .maps import preimage
    _, is_sub1, P1 = preimage(iota1, Vv)
    rep.add("iota1_preimage_nonzero", is_sub1 and not P1.is_zero, P1)
    S = join(Vv, T1)
    rep.add("forced_3_space",
            S == Subspace.from_rows(q, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
            and S.dim == 3)
    _, is_sub2, P2 = preimage(iota2, S)
    rep.add("iota2_preimage_nonzero", is_sub2 and not P2.is_zero, P2)
    rep.add("forced_flat_is_full", join(S, T2) == full)
    intermediates = [W for W in f2 if V0 < W]
    rep.add("intermediate_flat_exists", bool(intermediates),
            intermediates[:3])

    # linear rank-preserving case: no isomorphism between N^(1) and N^(2)
    stats = {}
    witness_map = is_isomorphic(blockdiag_matroid(q, m, 1),
                                blockdiag_matroid(q, m, 2),
                                prune=False, stats=stats)
    rep.add("no_rank_preserving_gl_map", witness_map is None)
    rep.counters["gl_candidates"] = stats["candidates"]
    rep.counters["gl_leaves"] = stats["leaves"]
    return rep


# ---------------------------------------------------------------------------
# non-existence of a coproduct for the nonlinear types

def _alpha_maps(q: int):
    """alpha_i sending every nonzero v to (leftmost nonzero entry) * e_i."""
    F = ground_field(q)

    def alpha(target_coord):
        def fn(v):
            out = [0, 0, 0]
            if any(v):
                out[target_coord] = next(x for x in v if x)
            return tuple(out)
        return fn

    a1 = lmap_from_table(q, 2, 3, alpha(0))
    a2 = lmap_from_table(q, 2, 3, alpha(1))
    return a1, a2


def _factor_fixed_table(a1: LMap, a2: LMap):
    """Prescribed entries of eps on the two embedded copies of F_q^2 in
    F_q^4, at the codes v1 + v2 q^2; -1 elsewhere."""
    q = a1.q
    fixed = [-1] * q ** 4
    fixed[:q ** 2] = a1.table
    fixed[::q ** 2] = a2.table
    return fixed


def verify_thm_nonlinear_noncoproduct(q: int = 2,
                                      branch_perm: Optional[Sequence[int]] = None
                                      ) -> ReproReport:
    """Complete backtracking certificate that no L-map factors the alphas:
    the free codes of eps: F_q^4 -> F_q^3 are set in order, each check of
    ``lmap_checks(q, 4)`` decided once its last free code is set."""
    if q != 2:
        raise SearchBoundExceeded("thm-4-6 runs at q = 2 only: the q = 3 search (64 free "
                                  "codes of 27 values each) is unsized and needs a node cap")
    rep = ReproReport("thm-4-6")
    M1 = uniform(q, 2, 1)
    N = uniform(q, 3, 3)
    a1, a2 = _alpha_maps(q)
    for name, a in (("alpha1", a1), ("alpha2", a2)):
        cls = classify_map(a, M1, N)
        rep.add(f"{name}_rank_preserving_weak_strong",
                cls.is_rank_preserving and cls.is_weak and cls.is_strong)

    checks = lmap_checks(q, 4)
    fixed = _factor_fixed_table(a1, a2)
    order = [c for c in range(q ** 4) if fixed[c] < 0]
    rep.counters["free_slots"] = len(order)
    rep.counters["assignment_space"] = (q ** 3) ** len(order)
    if branch_perm is not None:
        order = [order[i] for i in branch_perm]
    sol, nodes = kernels.factor_search(fixed, order, range(q ** 3), checks,
                                       subspace_test(q, 3))
    rep.add("no_factoring_lmap", sol is None)
    rep.counters["nodes"] = nodes

    # sanity inversion: with target U1 (+) U1 and alpha_i = iota_i the
    # search must find the identity
    inv_fixed = _factor_fixed_table(*iota_maps(q, 2, 2))
    inv_order = [c for c in range(q ** 4) if inv_fixed[c] < 0]
    sol2, nodes2 = kernels.factor_search(inv_fixed, inv_order, range(q ** 4), checks,
                                         subspace_test(q, 4))
    rep.add("sanity_inversion_finds_identity", sol2 == list(range(q ** 4)))
    rep.counters["sanity_nodes"] = nodes2
    return rep


# ---------------------------------------------------------------------------
# L-class phenomena

def verify_lclass_theorem(q: int) -> ReproReport:
    """q = 2: distinct linear maps are never L-equivalent, so the
    linear-weak coproduct survives the passage to L-classes.  q = 3: a
    blockwise scaling produces two distinct classes that both factor the
    embeddings at class level, breaking uniqueness."""
    rep = ReproReport(f"thm-6-1(q={q})")
    if q == 2:
        from .subspaces import Mat as _Mat
        F = ground_field(2)
        maps2 = []
        for code in range(16):
            entries = [(code >> b) & 1 for b in range(4)]
            from .maps import lmap_from_matrix
            maps2.append(lmap_from_matrix(_Mat(F, 2, 2, entries)))
        bad = []
        for i in range(len(maps2)):
            for j in range(i + 1, len(maps2)):
                if l_equivalent(maps2[i], maps2[j]):
                    bad.append((i, j))
        rep.add("distinct_linear_maps_inequivalent", not bad, bad[:5])
        rep.counters["pairs"] = len(maps2) * (len(maps2) - 1) // 2
        # over F_2 a row spanning <e_j> must equal e_j, so a linear map
        # fixing the embedded summands classwise is the identity on F_2^4
        forced = True
        for j in range(4):
            ej = tuple(1 if t == j else 0 for t in range(4))
            cands = [code for code in range(1, 16)
                     if Subspace.from_rows(2, 4, [tuple((code >> t) & 1 for t in range(4))])
                     == Subspace.from_rows(2, 4, [ej])]
            forced &= cands == [sum(b << t for t, b in enumerate(ej))]
        rep.add("classwise_factoring_forces_identity_rows", forced)
    elif q == 3:
        M1 = uniform(3, 1, 1)
        D = direct_sum(M1, M1)
        eps = identity_map(3, 2)
        eps_scaled = lclass_scaling_family(eps, 1, 1, 2)
        rep.add("classes_differ", not l_equivalent(eps, eps_scaled))
        rep.add("scaled_still_factors_classwise",
                l_equivalent(compose(eps_scaled, D.iota1), D.iota1)
                and l_equivalent(compose(eps_scaled, D.iota2), D.iota2))
        rep.add("scaled_is_weak",
                classify_map(eps_scaled, D.total, D.total).is_weak)
        same = lclass_scaling_family(eps, 1, 2, 2)
        rep.add("equal_scalars_same_class", l_equivalent(eps, same))
    else:
        raise ValueError("q must be 2 or 3")
    return rep


# ---------------------------------------------------------------------------
# block-diagonal embeddings (Prop 4.1 shape) and the uniform-sum example

def verify_blockdiag_embeddings(q: int, m: int,
                                g1_rows: Optional[Sequence[Sequence[int]]] = None,
                                g2_rows: Optional[Sequence[Sequence[int]]] = None
                                ) -> ReproReport:
    rep = ReproReport(f"prop-4-1(q={q},m={m})")
    spec = _field_for(q, m)
    w = spec.omega_val
    if g1_rows is None:
        g1_rows = [[1, w]]
    if g2_rows is None:
        g2_rows = [[1, w]]
    G1 = Mat.from_rows(spec, g1_rows)
    G2 = Mat.from_rows(spec, g2_rows)
    n1, n2 = G1.cols, G2.cols
    diag = []
    for i in range(G1.rows):
        diag.append(list(G1.row(i)) + [0] * n2)
    for i in range(G2.rows):
        diag.append([0] * n1 + list(G2.row(i)))
    N = from_matrix(Mat.from_rows(spec, diag))
    M1, M2 = from_matrix(G1), from_matrix(G2)
    iota1, iota2 = iota_maps(q, n1, n2)
    for name, (Mi, iota) in (("iota1", (M1, iota1)), ("iota2", (M2, iota2))):
        cls = classify_map(iota, Mi, N)
        rep.add(f"{name}_rank_preserving", cls.is_rank_preserving)
        rep.add(f"{name}_strong", cls.is_strong)
        rep.add(f"{name}_weak", cls.is_weak)
        emb = iota.image_of(Subspace.full(q, Mi.n))
        restr = N.restriction(emb)
        rep.add(f"{name}_image_isomorphic_to_summand",
                is_isomorphic(restr, Mi) is not None)
    return rep


def verify_ex_uniform_dirsum(q: int = 2, m: int = 4) -> ReproReport:
    rep = ReproReport("ex-5-5")
    M1 = uniform(q, 2, 1)
    D = direct_sum(M1, M1)
    N2 = blockdiag_matroid(q, m, 2)
    lat = lattice(q, 4)
    mism = [S for S in lat.spaces if D.total.rank(S) != N2.rank(S)]
    rep.add("rank_tables_agree", not mism, mism[:5])
    rep.counters["subspaces_compared"] = lat.size
    T1, T2 = _t_spaces(q)
    rep.add("spot_T1", D.total.rank(T1) == 1 and N2.rank(T1) == 1)
    rep.add("spot_T2", D.total.rank(T2) == 1 and N2.rank(T2) == 1)
    rep.add("spot_full", D.total.matroid_rank == 2 and N2.matroid_rank == 2)
    circ = dirsum_circuits(D)
    t1id, t2id = lat.id_of(T1), lat.id_of(T2)
    expected = {lat.spaces[i] for i in range(lat.size)
                if lat.dims[i] == 3
                and not lat.contains_ids(i, t1id)
                and not lat.contains_ids(i, t2id)} | {T1, T2}
    rep.add("circuits_match_expected", set(circ) == expected)
    return rep


def verify_coproduct_suite(q: int = 2, m: int = 4) -> ReproReport:
    """Universal-property checks for targets N^(j), the sum itself, trivial."""
    rep = ReproReport("thm-5-6")
    spec = _field_for(q, m)
    M1 = uniform(q, 2, 1)
    D = direct_sum(M1, M1)
    iota1, iota2 = D.iota1, D.iota2
    targets = []
    names = []
    for j in sorted(omega_index_set(spec)):
        targets.append((blockdiag_matroid(q, m, j), iota1, iota2))
        names.append(f"N^({j})")
    targets.append((D.total, iota1, iota2))
    names.append("sum_itself")
    targets.append((uniform(q, 4, 0), zero_map(q, 2, 4), zero_map(q, 2, 4)))
    names.append("trivial")
    exhaustive_for = len(targets) - 2  # the sum itself
    reports = verify_coproduct_lw(M1, M1, targets, exhaustive_for=exhaustive_for)
    ident = identity_map(q, 4)
    for name, tr in zip(names, reports):
        rep.add(name, tr.ok,
                None if tr.ok else tr)
        if name.startswith("N^") or name == "sum_itself":
            rep.add(f"{name}_eps_is_identity", tr.epsilon.table == ident.table)
    tr = reports[exhaustive_for]
    rep.counters["exhaustive_linear_maps"] = tr.exhaustive_scanned
    rep.add("exhaustive_uniqueness", tr.exhaustive_count == tr.exhaustive_expected)
    return rep


# ---------------------------------------------------------------------------
# registry

ITEMS = {
    "ex-2-2": verify_example_nonrepresentable,
    "prop-4-1": lambda: verify_blockdiag_embeddings(2, 4),
    "prop-4-2": lambda: verify_blockdiag_family(2, 4),
    "lemma-4-3": lambda: verify_fprime(2, 4),
    "thm-4-5": lambda: verify_thm_linear_noncoproduct(2, 4),
    "thm-4-6": lambda: verify_thm_nonlinear_noncoproduct(2),
    "ex-5-5": lambda: verify_ex_uniform_dirsum(2, 4),
    "thm-5-6": lambda: verify_coproduct_suite(2, 4),
    "thm-6-1": lambda: _combined_lclass(),
}


def _combined_lclass() -> ReproReport:
    rep = ReproReport("thm-6-1")
    for q in (2, 3):
        sub = verify_lclass_theorem(q)
        for name, ok, detail in sub.checks:
            rep.add(f"q={q}:{name}", ok, detail)
        rep.counters.update({f"q={q}:{k}": v for k, v in sub.counters.items()})
    return rep


def run_item(item: str) -> ReproReport:
    """Run a named item; its report's ``wall_time`` is the item's time."""
    if item not in ITEMS:
        raise KeyError(f"unknown repro item {item!r}; known: {sorted(ITEMS)}")
    t0 = time.perf_counter()
    rep = ITEMS[item]()
    rep.wall_time = time.perf_counter() - t0
    return rep
