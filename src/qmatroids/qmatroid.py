"""q-Matroids: rank functions on subspace lattices and their cryptomorphisms.

A QMatroid pairs an ambient space F_q^n with a total rank oracle.  Rank
values are memoized per canonical subspace and, for ambients within the
enumeration caps, materialized as a vector aligned with the shared
lattice cache, which makes the exhaustive axiom sweeps and closure
computations table lookups.  Matrix matroids, completions and direct
sums fill that vector by lattice id, without a rank call per subspace.
Every matroid read through a map -- restriction, contraction,
pushforward, the pushed summands of a direct sum and the Frobenius
twist of the semilinear isomorphism search -- is a :func:`pullback`,
with rank(V) = rank_M(phi(V) + X) - rank_M(X): single ranks through
the image of V, the rank vector through the map's image ids, except
that a proper minor of a matroid whose ranks are not materialized ranks
its own spaces, so minors of matroids beyond the caps keep working.
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
from .maps import embedding_map, lmap_from_matrix
from .subspaces import (
    Mat,
    Subspace,
    code_arithmetic,
    decode_vector,
    encode_vector,
    join,
    lattice,
    mask_ids,
)


# ---------------------------------------------------------------------------
# axiom reports

@dataclass
class AxiomReport:
    """Result of an exhaustive axiom sweep; empty violations = pass.

    Each violation is (axiom, witnesses, values).  The rank sweep visits
    every space (R1), every space and upper cover (R2) and every diamond
    (R3), so its R2 witnesses are cover pairs and its R3 witnesses the
    two middles of a diamond; each is also a violation of the pairwise
    axiom.  The flat sweep reports F1, F2 on pairs of members and F3 on
    (member, outside vector) pairs.
    """
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# flat families

class FlatFamily:
    """A set of subspaces with the flat-axiom checkers and height function.

    Construction does not validate; run check_flat_axioms to test F1-F3.
    Members are also held as lattice ids: ``member_ids`` ascending and
    ``id_mask`` with bit i set for each member i.  Covers inside the
    family, heights (longest chains from a minimal member, read off the
    covers) and closures are bitmask computations over those ids, made
    on demand; heights are meaningful only for families passing the
    axioms.
    """

    def __init__(self, q: int, n: int, members: Iterable[Subspace]):
        self.q = q
        self.n = n
        self.members = frozenset(members)
        for S in self.members:
            if (S.q, S.n) != (q, n):
                raise AmbientMismatch(f"{S!r} does not live in F_{q}^{n}")
        self.member_ids = sorted(map(lattice(q, n).id_of, self.members))
        self.id_mask = sum(1 << i for i in self.member_ids)
        self._heights = None

    @property
    def sorted_members(self) -> List[Subspace]:
        lat = lattice(self.q, self.n)
        return [lat.spaces[i] for i in self.member_ids]

    def _cover_ids(self, i: int) -> List[int]:
        """Ids of the members G > space i with no member strictly between,
        ascending.

        The lowest id left among the members above i is a minimal one,
        since every member below it has a lower id; dropping its up-set
        and repeating yields each minimal member once.
        """
        up = lattice(self.q, self.n).up_masks
        rest = up[i] & self.id_mask & ~(1 << i)
        covers = []
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append(j)
            rest &= ~up[j]
        return covers

    def closure_of(self, V: Subspace) -> Subspace:
        """Meet of all members containing V (the smallest such member)."""
        lat = lattice(self.q, self.n)
        above = lat.up_masks[lat.id_of(V)] & self.id_mask
        if not above:
            raise FlatAxiomViolation("F1", V)
        acc = -1
        for j in mask_ids(above):
            acc &= lat.vec_masks[j]
        return lat.spaces[lat._mask_to_id[acc]]

    def covers_of(self, F: Subspace) -> List[Subspace]:
        """Members G > F with no member strictly between."""
        lat = lattice(self.q, self.n)
        return [lat.spaces[j] for j in self._cover_ids(lat.id_of(F))]

    @property
    def heights(self) -> Dict[Subspace, int]:
        if self._heights is None:
            # ids ascend with dimension, so a member's height is final
            # before its covers are reached
            lat = lattice(self.q, self.n)
            h = dict.fromkeys(self.member_ids, 0)
            for i in self.member_ids:
                for j in self._cover_ids(i):
                    h[j] = max(h[j], h[i] + 1)
            self._heights = {lat.spaces[i]: h[i] for i in self.member_ids}
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
    """Exhaustively verify F1-F3; the report carries up to ``limit``
    violations of :func:`flat_violations`, with witnesses."""
    violations = list(itertools.islice(flat_violations(fam), limit))
    return AxiomReport(ok=not violations, violations=violations)


def flat_violations(fam: FlatFamily):
    """Every F1, F2 and F3 violation of ``fam``, streamed in that order.

    F2 meets every pair of members (an AND of vector masks).  F3 asks, for
    every member F and every vector outside F, that exactly one cover of
    F in the family contains it; the vectors in no cover or in several
    are read off two masks (in at least one cover, in at least two), and
    each such (F, vector) pair is reported with those covers.  F3 is
    checked only when the full space is a member.
    """
    lat = lattice(fam.q, fam.n)
    vm = lat.vec_masks
    ids = fam.member_ids
    member_vms = {vm[i] for i in ids}
    full = Subspace.full(fam.q, fam.n)
    if full not in fam.members:
        yield ("F1", full, None)
    for k, a in enumerate(ids):
        va = vm[a]
        for b in ids[k + 1:]:
            m = va & vm[b]
            if m not in member_vms:
                yield ("F2", (lat.spaces[a], lat.spaces[b]),
                       lat.spaces[lat._mask_to_id[m]])
    if full not in fam.members:
        return
    everything = (1 << fam.q ** fam.n) - 1
    for f in ids:
        covers = fam._cover_ids(f)
        once = twice = 0  # vectors in at least one, two covers of F
        for c in covers:
            twice |= once & vm[c]
            once |= vm[c]
        for code in mask_ids((everything & ~once | twice) & ~vm[f]):
            hits = [lat.spaces[c] for c in covers if (vm[c] >> code) & 1]
            yield ("F3", (lat.spaces[f], decode_vector(code, fam.q, fam.n)), hits)


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
        # set by constructors that rank every lattice id at once
        self._rank_vector_fn: Optional[Callable[[], List[int]]] = None
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
            if self._rank_vector_fn is not None:
                self._rank_vector = self._rank_vector_fn()
            else:
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
        """Id of the closure of space i: its join with every upper cover of
        the same rank.  A 1-space X outside V with rank(V+X) = rank(V)
        spans such a cover with V, and each such cover is spanned so."""
        lat = lattice(self.q, self.n)
        rv = self.rank_vector()
        acc = lat.up_masks[i]
        for j in mask_ids(lat.covers_mask(i)):
            if rv[j] == rv[i]:
                acc &= lat.up_masks[j]
        return (acc & -acc).bit_length() - 1

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
            first = next(flat_violations(fam), None)
            if first:
                raise FlatAxiomViolation(*first[:2])
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
            dep_mask = sum(1 << i for i in range(lat.size) if rv[i] < lat.dims[i])
            self._circuits = [lat.spaces[i] for i in lat.minimal_ids(dep_mask)]
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
        return pullback(self, embedding_map(X), kind="restriction",
                        payload={"parent": self, "subspace": X})

    def contraction(self, X: Subspace) -> "QMatroid":
        """M/X on the coordinates at the non-pivot columns of X's RREF
        basis: the unit vectors there span a complement of X."""
        if (X.q, X.n) != (self.q, self.n):
            raise AmbientMismatch("contraction subspace outside the ambient")
        units = tuple(e for j, e in enumerate(Subspace.full(self.q, self.n).basis)
                      if j not in X.pivots())
        return pullback(self, embedding_map(Subspace(self.q, self.n, units)), X,
                        kind="contraction", payload={"parent": self, "subspace": X})

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


def from_rank_vector(q: int, n: int, values: List[int], kind: str = "functional",
                     payload=None) -> QMatroid:
    """The matroid whose rank at lattice id i is values[i] (not validated)."""
    lat = lattice(q, n)
    M = QMatroid(q, n, lambda V: values[lat.id_of(V)], kind=kind, payload=payload)
    M._rank_vector = values
    return M


def from_matrix(G: Mat) -> QMatroid:
    """Matroid on F_q^n with rank(rowspace Y) = rank(G Y^T) over GF(q^m).

    The rank of a space is the GF(q^m)-rank of the images g(v) = G v^T
    of its basis rows, each computed once per vector code on first use;
    the rank vector reads them through the lattice's basis codes.
    """
    spec: FieldSpec = G.spec
    k, n = G.rows, G.cols
    if G.rank() != k:
        raise RankDeficientG(f"G must have full row rank {k}")
    q = spec.q
    add, mul, neg = spec.add, spec.mul, spec.neg
    columns = [G.entries[i::n] for i in range(n)]
    images: Dict[int, list] = {}

    def image(code: int) -> list:
        g = images.get(code)
        if g is None:
            g = [0] * k
            for d, column in zip(decode_vector(code, q, n), columns):
                if d:
                    g = [add(x, mul(d, y)) for x, y in zip(g, column)]
            images[code] = g
        return g

    def rank_of(rows) -> int:
        # each kept row is 1 at its pivot and 0 at the earlier pivots
        basis = []
        for row in rows:
            for p, b in basis:
                f = row[p]
                if f:
                    f = neg(f)
                    row = [add(x, mul(f, y)) for x, y in zip(row, b)]
            p = next((j for j, x in enumerate(row) if x), None)
            if p is not None:
                inv = spec.inv(row[p])
                basis.append((p, [mul(inv, x) for x in row]))
                if len(basis) == k:
                    break
        return len(basis)

    def rank_fn(V: Subspace) -> int:
        return rank_of(image(encode_vector(row, q)) for row in V.basis)

    M = QMatroid(q, n, rank_fn, kind="matrix", payload={"G": G})
    M._rank_vector_fn = lambda: [rank_of(map(image, codes))
                                 for codes in lattice(q, n).basis_codes]
    return M


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
    first = next(flat_violations(fam), None)
    if first:
        raise FlatAxiomViolation(*first[:2])
    heights = fam.heights

    def rank_fn(V: Subspace) -> int:
        return heights[fam.closure_of(V)]

    return QMatroid(fam.q, fam.n, rank_fn, kind="flats", payload={"flats": fam})


def pushforward(M: QMatroid, phi) -> QMatroid:
    """The matroid with rank(V) = rank_M(phi^{-1}(V)) for bijective phi."""
    if not phi.is_bijective():
        raise NotBijective("pushforward needs an L-isomorphism")
    return pullback(M, phi.inverse(), kind="pushforward",
                    payload={"source": M, "map": phi})


def pullback(M: QMatroid, phi, X: Optional[Subspace] = None,
             kind: str = "pullback", payload=None) -> QMatroid:
    """The matroid on phi's domain with rank(V) = rank_M(phi(V) + X) - rank_M(X)
    (rank_M(phi(V)) when X is None).

    A single rank joins ``phi.image_of(V)`` with X, so it needs no
    lattice.  The rank vector reads M's rank vector at the join of X's id
    with each of ``phi.image_ids`` unless M's lattice is larger than
    phi's domain's and M's ranks are not yet materialized.  Then (a
    proper minor) it ranks the domain's spaces one by one, so M's
    lattice, which may lie beyond the caps, is never built.
    """
    if phi.codomain != M.ambient():
        raise AmbientMismatch("the map's codomain is not the matroid's ambient")
    rx = 0 if X is None else M.rank(X)

    def rank_fn(V: Subspace) -> int:
        image = phi.image_of(V)
        return M.rank(image if X is None else join(image, X)) - rx

    def rank_vector() -> List[int]:
        if phi.n1 < M.n and M._rank_vector is None:
            return [P.rank(V) for V in lattice(P.q, P.n).spaces]
        rv = M.rank_vector()
        if X is None:
            return [rv[j] for j in phi.image_ids]
        lat = lattice(M.q, M.n)
        x = lat.id_of(X)
        return [rv[lat.join_id(x, j)] - rx for j in phi.image_ids]

    P = QMatroid(phi.q, phi.n1, rank_fn, kind=kind, payload=payload)
    P._rank_vector_fn = rank_vector
    return P


# ---------------------------------------------------------------------------
# axiom checking

def check_rank_axioms(M: QMatroid, limit: Optional[int] = 10) -> AxiomReport:
    """Exhaustive R1/R2/R3 verification over the ambient lattice.

    R1 sweeps every subspace (the zero space first, so rank(0) != 0 is
    its first entry); R2 and R3 come from :func:`r2_r3_violations`, which
    visits every cover pair and every diamond.  Violations (up to
    ``limit``) carry witnesses: a space for R1, a space and an upper
    cover for R2, the two middle spaces of a diamond for R3.
    """
    lat = lattice(M.q, M.n)
    rv = M.rank_vector()
    r1 = (("R1", (lat.spaces[i],), rv[i]) for i in range(lat.size)
          if not 0 <= rv[i] <= lat.dims[i])
    violations = list(itertools.islice(
        itertools.chain(r1, r2_r3_violations(lat, rv)), limit))
    return AxiomReport(ok=not violations, violations=violations)


def r2_r3_violations(lat, values: List[int]):
    """Every R2 violation of ``values`` (ranks by lattice id) on a cover
    pair, then every R3 violation on a diamond, as (axiom, witnesses,
    values) triples, streamed in lattice order.

    R2 holds for every containment iff it holds for every space V and
    each upper cover W of V (a chain of covers joins nested spaces); its
    witness is (V, W) with values (rank V, rank W).  A diamond is a space
    A with two upper covers B and C, B before C in lattice order: their
    meet is A and their join, which covers both, is the lowest id in
    ``up_masks[B] & up_masks[C]``.  R3 holds for every pair iff it holds
    on every diamond, by induction on the heights of the pair above its
    meet using only modularity of the lattice, not R2.  The witness is
    (B, C) with values (rank(B v C) + rank A, rank B + rank C).  Each
    witness is thus a genuine pairwise violation, and every R2 failure
    shows up among the cover pairs, which all come before any R3 entry.
    """
    spaces = lat.spaces
    for i in range(lat.size):
        for j in mask_ids(lat.covers_mask(i)):
            if values[i] > values[j]:
                yield ("R2", (spaces[i], spaces[j]), (values[i], values[j]))
    for a in range(lat.size):
        covers = list(mask_ids(lat.covers_mask(a)))
        for b, c in itertools.combinations(covers, 2):
            lhs = values[lat.join_id(b, c)] + values[a]
            if lhs > values[b] + values[c]:
                yield ("R3", (spaces[b], spaces[c]), (lhs, values[b] + values[c]))


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

    lat = lattice(q, n)
    rv1 = M1.rank_vector()
    rv2 = M2.rank_vector()
    # the standard flag <e_1..e_j>
    units = Subspace.full(q, n).basis
    flag_ids = [lat.id_of(Subspace(q, n, units[:j])) for j in range(1, n + 1)]
    eye = Mat(F, n, n, [x for row in units for x in row])
    # dependent spaces discriminate fastest; fixed deterministic order
    order = sorted(range(lat.size),
                   key=lambda i: (0 if rv1[i] < lat.dims[i] else 1, lat.dims[i], i))
    space_codes = [lat.basis_codes[i] for i in order]
    add, scale = code_arithmetic(q, n)

    leaves = nodes = 0
    witness = None
    for j in autos:
        # a candidate v -> sigma_j(v) A is rank-preserving iff the linear
        # part A satisfies rank2(A T) = rank1(sigma_j^{-1} T) for all T
        rv1_t = rv1 if j == 0 else pullback(
            M1, lmap_from_matrix(eye, automorphism=(F.k - j) % F.k)).rank_vector()
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
