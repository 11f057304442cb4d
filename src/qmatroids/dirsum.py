"""Direct sums of q-matroids and the coproduct machinery around them.

The rank function of a direct sum is the submodular completion of
rho'_1 + rho'_2, where rho'_i pulls the summand rank back through the
coordinate projection.  The completion minimizes tau(X) + dim V - dim X
over the subspaces X of V.  It is computed up the lattice by the cover
recursion rank(V) = min(tau(V), 1 + min rank(W) over the hyperplanes W
of V), which is exact for any integer tau.  Direct sums build tau as a
list by lattice id, from the rank vectors of the pushed summands (the
pullbacks of the summands through the projections), and the identity
checks compare ranks by id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import (
    AlphaNotLinear,
    AlphaNotWeak,
    AmbientMismatch,
    EnumerationCapExceeded,
    TauNotMonotone,
    TauNotSubmodular,
)
from .fields import ground_field
from .maps import (
    LMap,
    _line_images,
    classify_map,
    compose,
    iota_maps,
    is_weak_linear_via_circuits,
    lmap_from_matrix,
    pi_maps,
)
from .qmatroid import (
    QMatroid,
    from_rank_vector,
    is_isomorphic,
    pullback,
    r2_r3_violations,
)
from .subspaces import (
    Mat,
    Subspace,
    _vector_codes,
    code_arithmetic,
    lattice,
    mask_ids,
)


def submodular_completion(q: int, n: int, tau: Callable[[Subspace], int],
                          validate: bool = True) -> QMatroid:
    """The matroid with rank(V) = min over X <= V of tau(X) + dim V - dim X.

    ``tau`` must be monotone and submodular; with validate=True this is
    checked exhaustively and violations are rejected with witnesses.
    """
    lat = lattice(q, n)
    tv = [tau(S) for S in lat.spaces]
    if validate:
        for axiom, witnesses, _ in r2_r3_violations(lat, tv):
            if axiom == "R2":
                raise TauNotMonotone(witnesses)
            raise TauNotSubmodular(witnesses)
    return from_rank_vector(q, n, _complete(lat, tv), kind="completion")


def _complete(lat, tv: List[int]) -> List[int]:
    """Ranks by lattice id of the completion of ``tv``, a rank list by id."""
    # rank(V) = min(tau(V), 1 + min rank(W) over the hyperplanes W of V):
    # every X < V lies in a hyperplane of V; ids ascend with dimension
    subs = lat.sub_masks
    values = []
    for i in range(lat.size):
        best = tv[i]
        d = lat.dims[i]
        if d:
            for w in mask_ids(subs[i] & lat.layer_masks[d - 1]):
                if values[w] < best - 1:
                    best = values[w] + 1
        values.append(best)
    return values


@dataclass
class DirectSum:
    """M1 (+) M2 with its embeddings, projections and pushed summands."""
    m1: QMatroid
    m2: QMatroid
    total: QMatroid
    iota1: LMap
    iota2: LMap
    pi1: LMap
    pi2: LMap
    pushed: Tuple[QMatroid, QMatroid]

    @property
    def ambient(self):
        return self.total.ambient()


def direct_sum(M1: QMatroid, M2: QMatroid) -> DirectSum:
    """Build the direct sum on F_q^(n1+n2) and verify its embedding identities."""
    if M1.q != M2.q:
        raise AmbientMismatch("summands must share the ground field")
    q, n1, n2 = M1.q, M1.n, M2.n
    n = n1 + n2
    iota1, iota2 = iota_maps(q, n1, n2)
    pi1, pi2 = pi_maps(q, n1, n2)
    # rho'_i(V) = rho_i(pi_i V)
    P1, P2 = pullback(M1, pi1, kind="pushed"), pullback(M2, pi2, kind="pushed")
    tau = [a + b for a, b in zip(P1.rank_vector(), P2.rank_vector())]
    total = from_rank_vector(q, n, _complete(lattice(q, n), tau), kind="direct_sum",
                             payload={"summands": (M1, M2)})
    D = DirectSum(M1, M2, total, iota1, iota2, pi1, pi2, (P1, P2))
    _assert_embedding_identities(D)
    return D


def _assert_embedding_identities(D: DirectSum):
    # rho'_i(iota_i V) = rho_i(V) = rho(iota_i V), rho'_j(iota_i V) = 0
    total = D.total.rank_vector()
    own1, own2 = (P.rank_vector() for P in D.pushed)
    for Mi, iota, own, other in ((D.m1, D.iota1, own1, own2),
                                 (D.m2, D.iota2, own2, own1)):
        rv = Mi.rank_vector()
        for i, e in enumerate(iota.image_ids):
            if not (own[e] == rv[i] == total[e] and other[e] == 0):
                V = lattice(Mi.q, Mi.n).spaces[i]
                raise AssertionError(
                    f"embedding identities fail at {V!r}: "
                    f"{own[e]}, {rv[i]}, {total[e]}, {other[e]}")


def dirsum_circuits(D: DirectSum) -> List[Subspace]:
    """Circuits via minimality under rho'_1(C) + rho'_2(C) <= dim C - 1.

    Cross-checked against the circuits computed from the rank function.
    """
    lat = lattice(*D.ambient)
    r1, r2 = (P.rank_vector() for P in D.pushed)
    cond_mask = sum(1 << i for i, d in enumerate(lat.dims) if r1[i] + r2[i] <= d - 1)
    out = [lat.spaces[i] for i in lat.minimal_ids(cond_mask)]
    if out != D.total.circuits():
        raise AssertionError("circuit characterization disagrees with rank-derived circuits")
    return out


@dataclass
class CheckReport:
    """Pass/fail verdicts with witnesses, one entry per named check."""
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail=None):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def __bool__(self):
        return self.ok


def additivity_check(D: DirectSum) -> CheckReport:
    """rho(V1 (+) V2) = rho1(V1) + rho2(V2), and (M1 (+) M2)/E_i ~ M_j."""
    rep = CheckReport()
    lat = lattice(*D.ambient)
    rv = D.total.rank_vector()
    rv1, rv2 = D.m1.rank_vector(), D.m2.rank_vector()
    # V1 (+) V2 is the join of the two embedded images
    bad = [(i1, i2)
           for i1, e1 in enumerate(D.iota1.image_ids)
           for i2, e2 in enumerate(D.iota2.image_ids)
           if rv[lat.join_id(e1, e2)] != rv1[i1] + rv2[i2]]
    spaces1 = lattice(D.m1.q, D.m1.n).spaces
    spaces2 = lattice(D.m2.q, D.m2.n).spaces
    rep.add("additivity", not bad, [(spaces1[i1], spaces2[i2]) for i1, i2 in bad[:5]])
    E1 = D.iota1.image_of(Subspace.full(D.m1.q, D.m1.n))
    E2 = D.iota2.image_of(Subspace.full(D.m2.q, D.m2.n))
    c2 = D.total.contraction(E1)
    c1 = D.total.contraction(E2)
    rep.add("contract_E1_iso_M2", is_isomorphic(c2, D.m2) is not None)
    rep.add("contract_E2_iso_M1", is_isomorphic(c1, D.m1) is not None)
    return rep


# ---------------------------------------------------------------------------
# coproduct verification in the linear-weak setting

@dataclass
class CoproductTargetReport:
    epsilon: LMap
    factors: bool            # eps o iota_i == alpha_i
    eps_weak_bruteforce: bool
    eps_weak_circuits: bool
    unique_structural: bool  # linearity forces eps from the alpha_i
    exhaustive_count: Optional[int] = None  # linear factoring maps found
    exhaustive_scanned: Optional[int] = None  # linear maps the count covers

    @property
    def ok(self):
        agree = self.eps_weak_bruteforce == self.eps_weak_circuits
        unique = self.exhaustive_count in (None, 1)
        return (self.factors and self.eps_weak_bruteforce and agree
                and self.unique_structural and unique)


def canonical_factoring_map(D: DirectSum, alpha1: LMap, alpha2: LMap) -> LMap:
    """The unique linear map with eps o iota_i = alpha_i: block-stacked rows."""
    if not (alpha1.is_linear and alpha2.is_linear):
        raise AlphaNotLinear("factoring maps must be linear")
    if alpha1.codomain != alpha2.codomain:
        raise AmbientMismatch("alpha maps must share their codomain")
    F = ground_field(D.total.q)
    A1, A2 = alpha1.linear_matrix, alpha2.linear_matrix
    rows = [A1.row(i) for i in range(A1.rows)] + [A2.row(i) for i in range(A2.rows)]
    eps = lmap_from_matrix(Mat(F, len(rows), A1.cols,
                               [x for r in rows for x in r]))
    assert compose(eps, D.iota1).table == alpha1.table
    assert compose(eps, D.iota2).table == alpha2.table
    return eps


def verify_coproduct_lw(M1: QMatroid, M2: QMatroid,
                        targets: Sequence[Tuple[QMatroid, LMap, LMap]],
                        exhaustive_for: Optional[int] = None) -> List[CoproductTargetReport]:
    """Check the universal property of the direct sum against given targets.

    Each target is (N, alpha1, alpha2) with alpha_i linear weak maps
    M_i -> N (rejected otherwise).  For each one the canonical factoring
    map eps is built, checked weak both by brute force and by the circuit
    criterion, and checked unique among linear maps: structurally always,
    and for the target index given in ``exhaustive_for`` by counting,
    over all q^(n*n') matrices, the linear maps eps' with eps' o iota_i
    equal to alpha_i as maps of subspaces.  That count is 1 at q = 2; at
    q > 2 the blockwise scalings of eps also factor, (q - 1)^2 in all.
    """
    D = direct_sum(M1, M2)
    out = []
    for idx, (N, a1, a2) in enumerate(targets):
        for a, Mi in ((a1, M1), (a2, M2)):
            if not a.is_linear:
                raise AlphaNotLinear(f"alpha for {Mi!r} is not linear")
            if not classify_map(a, Mi, N).is_weak:
                raise AlphaNotWeak(f"alpha for {Mi!r} is not weak")
        eps = canonical_factoring_map(D, a1, a2)
        factors = (compose(eps, D.iota1).table == a1.table
                   and compose(eps, D.iota2).table == a2.table)
        weak_bf = classify_map(eps, D.total, N).is_weak
        weak_circ = is_weak_linear_via_circuits(eps, D.total, N)
        count = scanned = None
        if exhaustive_for == idx:
            count, scanned = _count_linear_factoring_maps(a1, a2)
        out.append(CoproductTargetReport(
            epsilon=eps, factors=factors, eps_weak_bruteforce=weak_bf,
            eps_weak_circuits=weak_circ, unique_structural=True,
            exhaustive_count=count, exhaustive_scanned=scanned))
    return out


def _count_linear_factoring_maps(a1: LMap, a2: LMap) -> Tuple[int, int]:
    """(count, scanned): the linear maps eps' on F_q^(n1+n2) whose
    composite eps' o iota_i equals alpha_i as a map of subspaces, and the
    number of linear maps scanned.

    eps' o iota_i is the linear map of block i of eps''s rows, and a
    linear map's images of subspaces are fixed by its line images, so
    each block is scanned on its own against alpha_i's line images; the
    block counts and the block sizes multiply.
    """
    q, n = a1.q, a1.n2
    sizes = [q ** (a.n1 * n) for a in (a1, a2)]
    if sum(sizes) > 1 << 20:
        raise EnumerationCapExceeded(f"{sum(sizes)} block matrices exceed the scan cap")
    add, scale = code_arithmetic(q, n)
    count = 1
    for a in (a1, a2):
        _, line_scale = code_arithmetic(q, a.n1)
        want = _line_images(a.table, q, line_scale)
        block = 0
        for rows in itertools.product(range(q ** n), repeat=a.n1):
            table = _vector_codes(rows, add, scale, range(1, q))
            block += _line_images(table, q, line_scale) == want
        count *= block
    return count, sizes[0] * sizes[1]


# ---------------------------------------------------------------------------
# maximality (partial) and scaling classes

def dirsum_is_max(M1: QMatroid, M2: QMatroid,
                  candidates: Sequence[QMatroid]) -> CheckReport:
    """Partial maximality check for the direct-sum rank function.

    Verifies the sum's restrictions to the embedded summands equal the
    summand ranks, and that every candidate rank function bounded by the
    summands on the embedded copies is pointwise <= the sum.  (The full
    claim quantifies over all rank functions; only supplied candidates
    are examined.)
    """
    D = direct_sum(M1, M2)
    rep = CheckReport()
    lat = lattice(*D.ambient)
    rv = D.total.rank_vector()
    # (id of iota_i V, rho_i(V)) for every space V of each summand
    emb = [(e, r) for Mi, iota in ((M1, D.iota1), (M2, D.iota2))
           for e, r in zip(iota.image_ids, Mi.rank_vector())]
    rep.add("sum_restriction_equals_summands", all(rv[e] == r for e, r in emb))
    for i, cand in enumerate(candidates):
        if cand.ambient() != D.ambient:
            raise AmbientMismatch(f"candidate {i} has ambient {cand.ambient()}")
        rc = cand.rank_vector()
        if not all(rc[e] <= r for e, r in emb):
            rep.add(f"candidate_{i}_in_S_hat", False, "restriction exceeds a summand")
            continue
        bad = [lat.spaces[j] for j in range(lat.size) if rc[j] > rv[j]]
        rep.add(f"candidate_{i}_below_sum", not bad, bad[:5])
    return rep


def lclass_scaling_family(eps: LMap, n1: int, lam1: int, lam2: int) -> LMap:
    """Scale a linear map on F_q^(n1+n2) blockwise by nonzero lam1, lam2.

    The result agrees with eps on subspaces of each embedded summand; for
    q = 2 it is eps itself, and for lam1 != lam2 (q > 2) it lies in a
    different L-class.
    """
    if not eps.is_linear:
        raise AlphaNotLinear("scaling family needs a linear map")
    if lam1 == 0 or lam2 == 0:
        raise ValueError("scalars must be nonzero")
    F = ground_field(eps.q)
    A = eps.linear_matrix
    entries = []
    for i in range(A.rows):
        lam = lam1 if i < n1 else lam2
        entries.extend(F.base_mul(lam, x) for x in A.row(i))
    return lmap_from_matrix(Mat(F, A.rows, A.cols, entries))
