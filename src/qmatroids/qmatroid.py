"""q-Matroids: rank functions on subspace lattices and their cryptomorphisms.

A QMatroid pairs an ambient space F_q^n with a total rank oracle.  Rank
values are memoized per canonical subspace and, for ambients within the
enumeration caps, materialized as a vector aligned with the shared
lattice cache, which makes the exhaustive axiom sweeps and closure
computations table lookups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from . import kernels
from .errors import (
    AmbientMismatch,
    AxiomViolation,
    BadRankBound,
    FlatAxiomViolation,
    IncompleteTable,
    NotBijective,
    RankDeficientG,
    SearchBoundExceeded,
)
from .fields import FieldSpec, ground_field
from .subspaces import (
    Mat,
    Subspace,
    code_arithmetic,
    decode_vector,
    encode_vector,
    lattice,
    mask_ids,
    quotient_map,
)


# ---------------------------------------------------------------------------
# axiom reports

@dataclass
class AxiomReport:
    """Result of an exhaustive axiom sweep; empty violations = pass."""
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# flat families

class FlatFamily:
    """A set of subspaces with the flat-axiom checkers and height function.

    Construction does not validate; run check_flat_axioms to test F1-F3.
    Heights (longest chains from the minimal member) are computed on
    demand and are meaningful only for families passing the axioms.
    """

    def __init__(self, q: int, n: int, members: Iterable[Subspace]):
        self.q = q
        self.n = n
        self.members = frozenset(members)
        for S in self.members:
            if (S.q, S.n) != (q, n):
                raise AmbientMismatch(f"{S!r} does not live in F_{q}^{n}")
        self._heights = None
        self._sorted = None

    @property
    def sorted_members(self) -> List[Subspace]:
        if self._sorted is None:
            lat = lattice(self.q, self.n)
            self._sorted = sorted(self.members, key=lat.id_of)
        return self._sorted

    def closure_of(self, V: Subspace) -> Subspace:
        """Meet of all members containing V (the smallest such member)."""
        lat = lattice(self.q, self.n)
        vid = lat.id_of(V)
        acc = None
        vmask = lat.vec_masks[vid]
        for F in self.sorted_members:
            fid = lat.id_of(F)
            fmask = lat.vec_masks[fid]
            if fmask & vmask == vmask:
                acc = fmask if acc is None else acc & fmask
        if acc is None:
            raise FlatAxiomViolation("F1", V)
        return lat.spaces[lat._mask_to_id[acc]]

    def covers_of(self, F: Subspace) -> List[Subspace]:
        """Members G > F with no member strictly between."""
        lat = lattice(self.q, self.n)
        fmask = lat.vec_masks[lat.id_of(F)]
        ups = []
        for G in self.sorted_members:
            gmask = lat.vec_masks[lat.id_of(G)]
            if gmask != fmask and gmask & fmask == fmask:
                ups.append((G, gmask))
        covers = []
        for G, gmask in ups:
            if not any(hmask != gmask and gmask & hmask == hmask
                       for _, hmask in ups):
                covers.append(G)
        return covers

    @property
    def heights(self) -> Dict[Subspace, int]:
        if self._heights is None:
            lat = lattice(self.q, self.n)
            order = sorted(self.members, key=lambda S: (S.dim, lat.id_of(S)))
            masks = {S: lat.vec_masks[lat.id_of(S)] for S in order}
            h: Dict[Subspace, int] = {}
            for S in order:
                below = [h[T] for T in order
                         if T != S and masks[S] & masks[T] == masks[T]
                         and T in h]
                h[S] = max(below) + 1 if below else 0
            self._heights = h
        return self._heights

    def height_of(self, F: Subspace) -> int:
        return self.heights[F]

    def __eq__(self, other):
        return (isinstance(other, FlatFamily)
                and (self.q, self.n) == (other.q, other.n)
                and self.members == other.members)

    def __hash__(self):
        return hash((self.q, self.n, self.members))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.sorted_members)

    def __repr__(self):
        return f"FlatFamily(F{self.q}^{self.n}, {len(self.members)} members)"


def check_flat_axioms(fam: FlatFamily, limit: Optional[int] = 10) -> AxiomReport:
    """Exhaustively verify F1-F3; the report carries witnesses.

    F3 iterates every (member, outside vector) pair and counts the covers
    of the member inside the family that contain the vector.
    """
    lat = lattice(fam.q, fam.n)
    violations = []

    def room():
        return limit is None or len(violations) < limit

    full = Subspace.full(fam.q, fam.n)
    if full not in fam.members:
        violations.append(("F1", full, None))
    for A, B in itertools.combinations(fam.sorted_members, 2):
        if not room():
            break
        m = lat.spaces[lat.meet_id(lat.id_of(A), lat.id_of(B))]
        if m not in fam.members:
            violations.append(("F2", (A, B), m))
    if full in fam.members:
        cover_cache = {F: fam.covers_of(F) for F in fam.sorted_members}
        for F in fam.sorted_members:
            if not room():
                break
            fmask = lat.vec_masks[lat.id_of(F)]
            covers = cover_cache[F]
            cmasks = [(C, lat.vec_masks[lat.id_of(C)]) for C in covers]
            for code in range(1, fam.q ** fam.n):
                if (fmask >> code) & 1:
                    continue
                hits = [C for C, cm in cmasks if (cm >> code) & 1]
                if len(hits) != 1:
                    violations.append(
                        ("F3", (F, decode_vector(code, fam.q, fam.n)), hits))
                    if not room():
                        break
    return AxiomReport(ok=not violations, violations=violations)


# ---------------------------------------------------------------------------
# the q-matroid object

class QMatroid:
    """Ambient space (q, n) plus a memoized total rank oracle."""

    def __init__(self, q: int, n: int, rank_fn: Callable[[Subspace], int],
                 kind: str = "functional", payload=None):
        self.q = q
        self.n = n
        self.kind = kind
        self.payload = payload
        self._rank_fn = rank_fn
        self._memo: Dict[Subspace, int] = {}
        self._rank_vector: Optional[List[int]] = None
        self._flats: Optional[FlatFamily] = None
        self._circuits = None

    # -------------------------------------------------------------- ranks

    def ambient(self) -> Tuple[int, int]:
        return (self.q, self.n)

    def rank(self, V: Subspace) -> int:
        if (V.q, V.n) != (self.q, self.n):
            raise AmbientMismatch(f"{V!r} is not in the ambient of this matroid")
        got = self._memo.get(V)
        if got is None:
            got = self._rank_fn(V)
            self._memo[V] = got
        return got

    @property
    def matroid_rank(self) -> int:
        return self.rank(Subspace.full(self.q, self.n))

    def rank_vector(self) -> List[int]:
        """Ranks aligned with the shared lattice order (materialized once)."""
        if self._rank_vector is None:
            lat = lattice(self.q, self.n)
            self._rank_vector = [self.rank(S) for S in lat.spaces]
        return self._rank_vector

    def rank_table(self) -> Dict[Subspace, int]:
        lat = lattice(self.q, self.n)
        rv = self.rank_vector()
        return {S: rv[i] for i, S in enumerate(lat.spaces)}

    def same_rank_table(self, other: "QMatroid") -> bool:
        return (self.ambient() == other.ambient()
                and self.rank_vector() == other.rank_vector())

    # ------------------------------------------------------------ closure

    def closure_id(self, i: int) -> int:
        lat = lattice(self.q, self.n)
        rv = self.rank_vector()
        acc = i
        ri = rv[i]
        for x in lat.one_ids:
            if rv[lat.join_id(i, x)] == ri:
                acc = lat.join_id(acc, x)
        return acc

    def closure(self, V: Subspace) -> Subspace:
        """Sum of the 1-spaces X of the ambient with rank(V+X) = rank(V)."""
        lat = lattice(self.q, self.n)
        return lat.spaces[self.closure_id(lat.id_of(V))]

    def flats(self) -> FlatFamily:
        """Closure fixed points, with heights; flat axioms asserted."""
        if self._flats is None:
            lat = lattice(self.q, self.n)
            members = [S for i, S in enumerate(lat.spaces)
                       if self.closure_id(i) == i]
            fam = FlatFamily(self.q, self.n, members)
            report = check_flat_axioms(fam, limit=1)
            if not report.ok:
                raise FlatAxiomViolation(report.violations[0][0],
                                         report.violations[0][1])
            self._flats = fam
        return self._flats

    # ------------------------------------------------- independence, circuits

    def is_independent(self, V: Subspace) -> bool:
        return self.rank(V) == V.dim

    def circuits(self) -> List[Subspace]:
        """Inclusion-minimal dependent spaces, in lattice order."""
        if self._circuits is None:
            lat = lattice(self.q, self.n)
            rv = self.rank_vector()
            dep_mask = 0
            for i in range(lat.size):
                if rv[i] < lat.dims[i]:
                    dep_mask |= 1 << i
            subs = lat.sub_masks
            out = []
            for i in range(lat.size):
                if (dep_mask >> i) & 1:
                    if subs[i] & dep_mask & ~(1 << i) == 0:
                        out.append(lat.spaces[i])
            self._circuits = out
        return self._circuits

    def loops(self) -> List[Subspace]:
        """Rank-0 one-spaces."""
        lat = lattice(self.q, self.n)
        rv = self.rank_vector()
        return [lat.spaces[i] for i in lat.one_ids if rv[i] == 0]

    # -------------------------------------------------------------- minors

    def restriction(self, X: Subspace) -> "QMatroid":
        """M|_X, re-coordinatized to F_q^dim(X) through X's RREF basis."""
        if (X.q, X.n) != (self.q, self.n):
            raise AmbientMismatch("restriction subspace outside the ambient")

        def rank_fn(V: Subspace) -> int:
            rows = map(X.vector_at, V.basis)
            return self.rank(Subspace.from_rows(self.q, self.n, rows))

        return QMatroid(self.q, X.dim, rank_fn, kind="restriction",
                        payload={"parent": self, "subspace": X})

    def contraction(self, X: Subspace) -> "QMatroid":
        """M/X on the quotient coordinates of quotient_map(X)."""
        if (X.q, X.n) != (self.q, self.n):
            raise AmbientMismatch("contraction subspace outside the ambient")
        pi, qdim = quotient_map(X)
        piv = set(X.pivots())
        nonpiv = [j for j in range(self.n) if j not in piv]
        rx = self.rank(X)

        def lift(w):
            v = [0] * self.n
            for c, j in zip(w, nonpiv):
                v[j] = c
            return tuple(v)

        def rank_fn(W: Subspace) -> int:
            rows = list(X.basis) + [lift(w) for w in W.basis]
            return self.rank(Subspace.from_rows(self.q, self.n, rows)) - rx

        return QMatroid(self.q, qdim, rank_fn, kind="contraction",
                        payload={"parent": self, "subspace": X, "projection": pi})

    def __repr__(self):
        return f"QMatroid(F{self.q}^{self.n}, kind={self.kind!r})"


# ---------------------------------------------------------------------------
# constructors

def uniform(q: int, n: int, k: int) -> QMatroid:
    """The uniform q-matroid: rank(V) = min(k, dim V)."""
    if not 0 <= k <= n:
        raise BadRankBound(f"need 0 <= k <= n, got k={k}, n={n}")
    return QMatroid(q, n, lambda V: min(k, V.dim), kind="uniform",
                    payload={"k": k})


def trivial(q: int, n: int) -> QMatroid:
    return uniform(q, n, 0)


def from_function(q: int, n: int, fn: Callable[[Subspace], int],
                  kind: str = "functional", payload=None) -> QMatroid:
    return QMatroid(q, n, fn, kind=kind, payload=payload)


def from_matrix(G: Mat) -> QMatroid:
    """Matroid on F_q^n with rank(rowspace Y) = rank(G Y^T) over GF(q^m)."""
    spec: FieldSpec = G.spec
    k, n = G.rows, G.cols
    if G.rank() != k:
        raise RankDeficientG(f"G must have full row rank {k}")
    q = spec.q

    def rank_fn(V: Subspace) -> int:
        if V.dim == 0:
            return 0
        yt = Mat(spec, n, V.dim,
                 [V.basis[j][i] for i in range(n) for j in range(V.dim)])
        return G.mul(yt).rank()

    return QMatroid(q, n, rank_fn, kind="matrix", payload={"G": G})


def from_rank_table(q: int, n: int, table: Dict[Subspace, int]) -> QMatroid:
    """Validated matroid from a total rank table.

    Raises IncompleteTable if any subspace is missing and AxiomViolation
    (with the first witness) if R1-R3 fail.
    """
    lat = lattice(q, n)
    missing = [S for S in lat.spaces if S not in table]
    if missing:
        raise IncompleteTable(f"{len(missing)} subspaces missing, first {missing[0]!r}")
    M = QMatroid(q, n, lambda V: table[V], kind="rank_table",
                 payload={"table": dict(table)})
    report = check_rank_axioms(M, limit=1)
    if not report.ok:
        axiom, witnesses, values = report.violations[0]
        raise AxiomViolation(axiom, witnesses, values)
    return M


def from_flats(fam: FlatFamily) -> QMatroid:
    """Matroid with rank(V) = height of the smallest flat containing V."""
    report = check_flat_axioms(fam, limit=1)
    if not report.ok:
        raise FlatAxiomViolation(report.violations[0][0], report.violations[0][1])
    heights = fam.heights

    def rank_fn(V: Subspace) -> int:
        return heights[fam.closure_of(V)]

    return QMatroid(fam.q, fam.n, rank_fn, kind="flats", payload={"flats": fam})


def pushforward(M: QMatroid, phi) -> QMatroid:
    """The matroid with rank(V) = rank_M(phi^{-1}(V)) for bijective phi."""
    if not phi.is_bijective():
        raise NotBijective("pushforward needs an L-isomorphism")
    inv = phi.inverse()

    def rank_fn(V: Subspace) -> int:
        return M.rank(inv.image_of(V))

    return QMatroid(phi.q, phi.n2, rank_fn, kind="pushforward",
                    payload={"source": M, "map": phi})


# ---------------------------------------------------------------------------
# axiom checking

def check_rank_axioms(M: QMatroid, limit: Optional[int] = 10) -> AxiomReport:
    """Exhaustive R1/R2/R3 verification over the ambient lattice.

    R1 sweeps every subspace, R2 every containment pair, R3 every
    unordered pair.  Violations (up to ``limit``) carry witnesses.
    """
    lat = lattice(M.q, M.n)
    rv = M.rank_vector()
    violations = []

    def room():
        return limit is None or len(violations) < limit

    if rv[lat.zero_id] != 0:
        violations.append(("R1", (lat.spaces[lat.zero_id],), rv[lat.zero_id]))
    for i in range(lat.size):
        if not room():
            break
        if not 0 <= rv[i] <= lat.dims[i]:
            violations.append(("R1", (lat.spaces[i],), rv[i]))
    rest = None if limit is None else max(0, limit - len(violations))
    violations.extend(itertools.islice(r2_r3_violations(lat, rv), rest))
    return AxiomReport(ok=not violations, violations=violations)


def r2_r3_violations(lat, values: List[int]):
    """Every R2 violation of ``values`` (ranks by lattice id), then every
    R3 violation, as (axiom, witnesses, values) triples.

    R2 sweeps every containment pair, R3 every unordered pair.
    """
    subs = lat.sub_masks
    for i in range(lat.size):
        for j in mask_ids(subs[i] & ~(1 << i)):
            if values[j] > values[i]:
                yield ("R2", (lat.spaces[j], lat.spaces[i]),
                       (values[j], values[i]))
    for i in range(lat.size):
        for j in range(i + 1, lat.size):
            lhs = values[lat.join_id(i, j)] + values[lat.meet_id(i, j)]
            if lhs > values[i] + values[j]:
                yield ("R3", (lat.spaces[i], lat.spaces[j]),
                       (lhs, values[i] + values[j]))


# ---------------------------------------------------------------------------
# isomorphism search

def _gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def is_isomorphic(M1: QMatroid, M2: QMatroid, mode: str = "linear",
                  prune: bool = True, stats: Optional[dict] = None):
    """Search GL(n, q) (times Aut(F_q) in semilinear mode) for a
    rank-preserving bijection M1 -> M2.

    Returns a witness LMap or None; None is definitive since the search
    is exhaustive.  ``stats``, when given, receives leaf and node counts.
    With prune=True, partial candidates are discarded as soon as the
    image of the standard flag has the wrong rank.
    """
    if M1.ambient() != M2.ambient():
        raise AmbientMismatch("isomorphism search needs equal ambients")
    q, n = M1.ambient()
    F = ground_field(q)
    autos = range(F.k) if (mode == "semilinear" and F.k > 1) else range(1)
    if _gl_order(n, q) * len(autos) > 10 ** 8:
        raise SearchBoundExceeded(f"|GL({n},{q})| x |Aut| exceeds 10^8")

    from .maps import lmap_from_matrix

    lat = lattice(q, n)
    rv1 = M1.rank_vector()
    rv2 = M2.rank_vector()
    # the standard flag <e_1..e_j>
    eye = Subspace.full(q, n).basis
    flag_ids = [lat.id_of(Subspace(q, n, eye[:j])) for j in range(1, n + 1)]
    # dependent spaces discriminate fastest; fixed deterministic order
    order = sorted(range(lat.size),
                   key=lambda i: (0 if rv1[i] < lat.dims[i] else 1, lat.dims[i], i))
    space_codes = [[encode_vector(row, q) for row in lat.spaces[i].basis]
                   for i in order]
    add, scale = code_arithmetic(q, n)

    leaves = nodes = 0
    witness = None
    for j in autos:
        if j == 0:
            rv1_t = rv1
        else:
            # a candidate v -> sigma_j(v) A is rank-preserving iff the linear
            # part A satisfies rank2(A T) = rank1(sigma_j^{-1} T) for all T
            inv_j = (F.k - j) % F.k
            def _twist(S):
                rows = [tuple(F.base_frobenius(x, inv_j) for x in row)
                        for row in S.basis]
                return Subspace.from_rows(q, n, rows)
            rv1_t = [rv1[lat.id_of(_twist(S))] for S in lat.spaces]
        rows, found_leaves, found_nodes = kernels.gl_iso_search(
            n, q, lat.holders, space_codes, [rv1_t[i] for i in order], rv2,
            [rv1_t[i] for i in flag_ids], prune, add, scale)
        leaves += found_leaves
        nodes += found_nodes
        if rows is not None:
            A = Mat(F, n, n, [x for r in rows for x in decode_vector(r, q, n)])
            witness = lmap_from_matrix(A, automorphism=j)
            break
    if stats is not None:
        stats.update(leaves=leaves, nodes=nodes,
                     candidates=_gl_order(n, q) * len(autos))
    return witness
