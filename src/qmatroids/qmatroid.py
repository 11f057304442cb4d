"""q-Matroids: rank functions on subspace lattices and their cryptomorphisms.

A QMatroid pairs an ambient space F_q^n with a total rank oracle, asked
unmemoized until, within the enumeration caps, the ranks are
materialized once as a vector aligned with the shared lattice cache.
Ranks, closures, flats, circuits and the axiom sweeps are then read off
that vector and the lattice's cover lists.  Matrix matroids,
completions and direct sums fill the vector by lattice id, without a
rank call per subspace.
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
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from . import kernels
from .kernels import flag_depth as _flag_depth
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
    _vector_codes,
    code_arithmetic,
    decode_vector,
    join,
    lattice,
    mask_ids,
    reduced_row,
    row_rank,
)


# ---------------------------------------------------------------------------
# axiom reports

class AxiomReport:
    """Result of an exhaustive axiom sweep; empty violations = pass.

    Each violation is (axiom, witnesses, values).  The rank sweep visits
    every space (R1), every space and upper cover (R2) and every height-2
    interval (R3), so its R2 witnesses are cover pairs and its R3
    witnesses two middles of an interval; each is also a violation of the
    pairwise axiom.  The flat sweep reports F1, F2 on pairs of members
    and F3 on (member, outside vector) pairs.
    """
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: Optional[list] = None):
        self.ok = ok
        self.violations = [] if violations is None else violations

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
        ascending."""
        above = lattice(self.q, self.n).above
        return _minimal_members(above(i) & self.id_mask & ~(1 << i), above)

    def _member_covers(self) -> Dict[int, List[int]]:
        """``_cover_ids`` of every member, ANDing each member's up-set once."""
        above = lattice(self.q, self.n).above
        up = {i: above(i) & self.id_mask for i in self.member_ids}
        return {i: _minimal_members(up[i] & ~(1 << i), up.__getitem__)
                for i in self.member_ids}

    def closure_of(self, V: Subspace) -> Subspace:
        """Meet of all members containing V (the smallest such member): the
        span of the vectors of the lowest of them that all of them hold."""
        lat = lattice(self.q, self.n)
        above = lat.above(lat.id_of(V)) & self.id_mask
        if not above:
            raise FlatAxiomViolation("F1", V)
        holders, low = lat.holders, (above & -above).bit_length() - 1
        return lat.spaces[lat.span_id([v for v in lat.spaces[low].vector_codes()
                                       if holders[v] & above == above])]

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
            for i, covers in self._member_covers().items():
                for j in covers:
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


def _minimal_members(rest: int, up: Callable[[int], int]) -> List[int]:
    """The ids of ``rest`` with no other id of it below them, ascending,
    for ``rest`` a set of members and ``up(j)`` holding the members above
    member j.  The lowest id left is a minimal one, since every member
    below it has a lower id; dropping its up-set and repeating yields
    each minimal member once."""
    out = []
    while rest:
        j = (rest & -rest).bit_length() - 1
        out.append(j)
        rest &= ~up(j)
    return out


def check_flat_axioms(fam: FlatFamily, limit: Optional[int] = 10) -> AxiomReport:
    """Exhaustively verify F1-F3; the report carries up to ``limit``
    violations of :func:`flat_violations`, with witnesses."""
    violations = list(itertools.islice(flat_violations(fam), limit))
    return AxiomReport(ok=not violations, violations=violations)


def flat_violations(fam: FlatFamily):
    """Every F1, F2 and F3 violation of ``fam``, streamed in that order.

    The sweep holds the vector mask of each member, bit v set for each
    vector code v of it, built on entry.  F2 meets every pair of members
    (an AND of vector masks).  F3 asks, for every member F and every
    vector outside F, that exactly one cover of F in the family contains
    it; the vectors in no cover or in several are read off two masks (in
    at least one cover, in at least two), and each such (F, vector) pair
    is reported with those covers.  F3 is checked only when the full
    space is a member.
    """
    lat = lattice(fam.q, fam.n)
    ids = fam.member_ids
    bit = (1).__lshift__
    everything = (1 << fam.q ** fam.n) - 1
    # the full space, the last id, holds every code without listing them
    masks = [sum(map(bit, _vector_codes(lat.basis_codes[i], fam.q)))
             if i < lat.size - 1 else everything for i in ids]
    vm, member_vms = dict(zip(ids, masks)), set(masks)
    full = Subspace.full(fam.q, fam.n)
    if full not in fam.members:
        yield ("F1", full, None)
    for k, (a, va) in enumerate(zip(ids, masks)):
        for vb in masks[k + 1:]:
            if va & vb not in member_vms:
                break
        else:
            continue
        for b in ids[k + 1:]:  # some meet with a is no member: find each
            m = va & vm[b]
            if m not in member_vms:
                yield ("F2", (lat.spaces[a], lat.spaces[b]),
                       lat.spaces[lat.span_id(mask_ids(m))])
    if full not in fam.members:
        return
    for f, covers in fam._member_covers().items():
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
    """Ambient space (q, n) plus a total rank oracle (None for a matroid
    made from a rank vector), the rank vector once materialized, and
    whether a full axiom sweep has passed it."""

    def __init__(self, q: int, n: int, rank_fn: Optional[Callable[[Subspace], int]],
                 kind: str = "functional", payload=None):
        self.q = q
        self.n = n
        self.kind = kind
        self.payload = payload
        self._rank_fn = rank_fn
        self._rank_vector: Optional[List[int]] = None
        # set by constructors that rank every lattice id at once
        self._rank_vector_fn: Optional[Callable[[], List[int]]] = None
        self._flats: Optional[FlatFamily] = None
        self._circuits = None
        # set by check_rank_axioms once R1-R3 hold on the whole rank vector
        self._swept_valid = False

    # -------------------------------------------------------------- ranks

    def ambient(self) -> Tuple[int, int]:
        return (self.q, self.n)

    def rank(self, V: Subspace) -> int:
        if (V.q, V.n) != (self.q, self.n):
            raise AmbientMismatch(f"{V!r} is not in the ambient of this matroid")
        if self._rank_vector is None:
            return self._rank_fn(V)
        return self._rank_vector[lattice(self.q, self.n).span_id(V.codes)]

    @property
    def matroid_rank(self) -> int:
        return self.rank(Subspace.full(self.q, self.n))

    def rank_vector(self) -> List[int]:
        """Ranks aligned with the shared lattice order (materialized once).

        The list is the matroid's own; callers must not change it.
        """
        if self._rank_vector is None:
            if self._rank_vector_fn is not None:
                self._rank_vector = self._rank_vector_fn()
            else:
                self._rank_vector = list(map(self._rank_fn, lattice(self.q, self.n).spaces))
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
        rv, holders, acc = self.rank_vector(), lat.holders, lat.above(i)
        for j in lat.upper[i]:
            if rv[j] == rv[i]:  # V and a vector of j outside V span j
                acc &= holders[next(c for c in lat.basis_codes[j]
                                    if not holders[c] >> i & 1)]
        return (acc & -acc).bit_length() - 1

    def closure(self, V: Subspace) -> Subspace:
        """Sum of the 1-spaces X of the ambient with rank(V+X) = rank(V)."""
        lat = lattice(self.q, self.n)
        return lat.spaces[self.closure_id(lat.id_of(V))]

    def flats(self) -> FlatFamily:
        """Closure fixed points, with heights; flat axioms asserted.

        The flats of a q-matroid satisfy F1-F3 (Jurrius-Pellikaan,
        *Defining the q-analogue of a matroid*, EJC 2018), so after
        :func:`check_rank_axioms` has passed this rank vector the family
        is not checked again; otherwise :func:`flat_violations` checks it
        and the first violation raises FlatAxiomViolation.
        """
        if self._flats is None:
            lat = lattice(self.q, self.n)
            rv = self.rank_vector()
            # closure_id joins exactly the covers of equal rank, valid or not
            members = [lat.spaces[i] for i, covers in enumerate(lat.upper)
                       if rv[i] not in map(rv.__getitem__, covers)]
            fam = FlatFamily(self.q, self.n, members)
            if not self._swept_valid:
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
        pivots = X.pivots()
        units = tuple(self.q ** j for j in range(self.n) if j not in pivots)
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
    """The matroid whose rank at lattice id i is values[i] (not validated).

    M keeps its own copy, so a passed sweep's verdict holds however the
    caller's list changes later.
    """
    M = QMatroid(q, n, None, kind=kind, payload=payload)
    M._rank_vector = list(values)
    return M


def from_matrix(G: Mat) -> QMatroid:
    """Matroid on F_q^n with rank(rowspace Y) = rank(G Y^T) over GF(q^m).

    The rank of a space is the GF(q^m)-rank of the images g(v) = G v^T
    of its basis rows, each computed once per vector code on first use.
    A single rank eliminates them with ``row_rank``.  The rank vector
    walks the lattice's prefix order (``SubspaceLattice.prefix_fold``):
    a space's echelon is its RREF hyperplane's, extended by the image of
    its last basis code with the same elimination step, so its rank is
    its hyperplane's or one more, and a full echelon of k rows is kept
    without a step.
    """
    spec: FieldSpec = G.spec
    k, n = G.rows, G.cols
    if G.rank() != k:
        raise RankDeficientG(f"G must have full row rank {k}")
    q = spec.q
    add, mul = spec.add, spec.mul
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

    def rank_fn(V: Subspace) -> int:
        return row_rank(spec, map(image, V.codes), k)

    def extend(echelon: list, code: int) -> list:
        if len(echelon) == k:
            return echelon
        kept = reduced_row(spec, echelon, image(code))
        return echelon if kept is None else echelon + [kept]

    M = QMatroid(q, n, rank_fn, kind="matrix", payload={"G": G})
    M._rank_vector_fn = lambda: lattice(q, n).prefix_fold([], extend, len)
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
    M = from_rank_vector(q, n, [table[S] for S in lat.spaces], kind="rank_table")
    report = check_rank_axioms(M, limit=1)
    if not report.ok:
        axiom, witnesses, values = report.violations[0]
        raise AxiomViolation(axiom, witnesses, values)
    return M


def from_flats(fam: FlatFamily) -> QMatroid:
    """Matroid with rank(V) = height of the smallest flat containing V,
    the least height of a member above V: one walk down ``upper`` from
    the full space (a member, F1) ranks every space."""
    first = next(flat_violations(fam), None)
    if first:
        raise FlatAxiomViolation(*first[:2])
    lat, heights = lattice(fam.q, fam.n), fam.heights
    ranks = [0] * lat.size
    for i in reversed(range(lat.size)):
        ranks[i] = (heights[lat.spaces[i]] if fam.id_mask >> i & 1
                    else min(map(ranks.__getitem__, lat.upper[i])))
    return from_rank_vector(fam.q, fam.n, ranks, kind="flats", payload={"flats": fam})


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
        up_x = lat.above(lat.id_of(X))
        joins = (up_x & lat.above(j) for j in phi.image_ids)
        return [rv[(up & -up).bit_length() - 1] - rx for up in joins]

    P = QMatroid(phi.q, phi.n1, rank_fn, kind=kind, payload=payload)
    P._rank_vector_fn = rank_vector
    return P


# ---------------------------------------------------------------------------
# axiom checking

def check_rank_axioms(M: QMatroid, limit: Optional[int] = 10) -> AxiomReport:
    """Exhaustive R1/R2/R3 verification over the ambient lattice.

    R1 sweeps every subspace (the zero space first, so rank(0) != 0 is
    its first entry); R2 and R3 come from :func:`r2_r3_violations`, which
    decides every cover pair and every height-2 interval.  Violations (up
    to ``limit``) carry witnesses: a space for R1, a space and an upper
    cover for R2, two middle spaces of an interval for R3.  A sweep that
    ran to its end without a violation marks M, so ``M.flats()`` then
    skips the flat-axiom check.
    """
    lat = lattice(M.q, M.n)
    rv = M.rank_vector()
    r1 = (("R1", (lat.spaces[i],), rv[i]) for i in range(lat.size)
          if not 0 <= rv[i] <= lat.dims[i])
    violations = list(itertools.islice(
        itertools.chain(r1, r2_r3_violations(lat, rv)), limit))
    if not violations and limit != 0:  # islice exhausted the sweep
        M._swept_valid = True
    return AxiomReport(ok=not violations, violations=violations)


def r2_r3_violations(lat, values: List[int]):
    """Every R2 violation of ``values`` (ranks by lattice id) on a cover
    pair, then every R3 violation on a height-2 interval, as (axiom,
    witnesses, values) triples, streamed in lattice order.

    R2 holds for every containment iff it holds for every space V and
    each upper cover W of V (a chain of covers joins nested spaces); its
    witness is (V, W) with values (rank V, rank W).  R3 holds for every
    pair iff it holds on every diamond (a space A, two upper covers and
    their join L), by induction on the heights of the pair above its
    meet using only modularity of the lattice, not R2.  On the diamonds
    of an interval [A, L] it holds iff rank L + rank A <= the two
    smallest ranks of its q + 1 middles summed (Byrne-Ceria-Jurrius,
    *Constructions of new q-cryptomorphisms*).  A failing interval, by A
    and then L, is reported by those middles (B, C), ties to the lower
    id, B before C, with values (rank L + rank A, rank B + rank C): a
    genuine pairwise violation.  All R2 entries come first.

    Both sweeps skip the spaces that cannot fail, without assuming R2.
    A space no higher than the least rank of its covers has no R2
    violation.  Any two middles above A sum to at least m1 + m2, the two
    least ranks of A's covers, and every L above A ranks at most the
    most of the cover ranks of A's covers, so an A where that most plus
    rank A is at most m1 + m2 has no failing interval.  The first maxima
    and then their maxima over each cover list are two passes over
    ``upper``.
    """
    spaces, upper = lat.spaces, lat.upper
    rank_of = values.__getitem__
    for i, covers in enumerate(upper):
        if covers and values[i] > min(map(rank_of, covers)):
            for j in covers:
                if values[i] > values[j]:
                    yield ("R2", (spaces[i], spaces[j]), (values[i], values[j]))
    # an empty cover list reads 0: it bounds the ranks of no space above
    most = [max(map(rank_of, covers), default=0) for covers in upper]
    for a, covers in enumerate(upper):
        if len(covers) < 2:
            continue
        low = sorted(map(rank_of, covers))
        if max(map(most.__getitem__, covers)) + values[a] <= low[0] + low[1]:
            continue
        middles = defaultdict(list)  # the covers of A below each L, ascending
        for b in covers:
            for top in upper[b]:
                middles[top].append(b)
        failing = []
        for top, mids in middles.items():
            b, c = sorted(mids, key=values.__getitem__)[:2]
            if values[top] + values[a] > values[b] + values[c]:
                failing.append((top, min(b, c), max(b, c)))
        for top, b, c in sorted(failing):
            yield ("R3", (spaces[b], spaces[c]),
                   (values[top] + values[a], values[b] + values[c]))


# ---------------------------------------------------------------------------
# isomorphism search

def _gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def _point_colours(lat, rv: List[int], slots: Dict[tuple, int]) -> Dict[int, tuple]:
    """The colour of each 1-space, by lattice id: the (dim, rank)
    histogram of the spaces containing it, the point itself included (so
    the colour holds its rank), counted at the positions ``slots`` gives
    each (dim, rank) pair of ``rv``.  A rank-preserving bijection maps
    each point to one of the same colour."""
    slot = [slots[key] for key in zip(lat.dims, rv)]
    colours = {}
    for p in lat.one_ids:
        counts = [0] * len(slots)
        for i in mask_ids(lat.above(p)):
            counts[slot[i]] += 1
        colours[p] = tuple(counts)
    return colours


def is_isomorphic(M1: QMatroid, M2: QMatroid, mode: str = "linear",
                  prune: bool = True, stats: Optional[dict] = None):
    """Search GL(n, q) (times Aut(F_q) in semilinear mode) for a
    rank-preserving bijection M1 -> M2.

    Returns a witness LMap, the first rank-preserving matrix in the scan
    order of ``kernels.gl_iso_search`` (the linear part first, then the
    automorphism), or None; None is definitive since the search is
    exhaustive.  ``stats``, when given, receives leaf and node counts,
    the number of candidates and ``refused``: the invariant that told
    the matroids apart without a scan, or None.

    With prune=True the search is colour-refined, in the manner of
    McKay-Piperno (*Practical graph isomorphism II*, JSC 2014), with one
    round of colouring.  It refuses when the (dim, rank) histograms of
    the two matroids differ, and then when the multisets of their point
    colours (:func:`_point_colours`) differ; a Frobenius twist permutes
    the lattice, so one comparison covers every automorphism.  Otherwise
    the image of e_(d+1) ranges over the points of the colour of
    <e_(d+1)>, and every space inside <e_1..e_d> is checked as soon as
    the first d rows are placed.  With prune=False every invertible
    matrix up to the first witness is a leaf, checked on every space,
    those of the (dim, rank) classes whose counts differ first; leading
    spaces that read only the first d < n rows are decided once per node.

    Either way the candidates for the last row are scanned in one flat
    loop: the image of a domain code is computed only when a check reads
    it, and every leaf is checked against the spaces left to it in order
    until the first one whose rank differs.
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
    refused = witness = None
    leaves = nodes = 0
    histogram, histogram2 = Counter(zip(lat.dims, rv1)), Counter(zip(lat.dims, rv2))
    differ = histogram != histogram2
    if prune:
        if differ:
            refused = "(dim, rank) histograms differ"
        else:
            slots = {key: k for k, key in enumerate(histogram)}
            colours1 = _point_colours(lat, rv1, slots)
            colours2 = _point_colours(lat, rv2, slots)
            if Counter(colours1.values()) != Counter(colours2.values()):
                refused = "point colours differ"
    if refused is None:
        eye = Mat(F, n, n, [int(i == j) for i in range(n) for j in range(n)])
        # dependent spaces discriminate fastest; fixed deterministic order
        order = sorted(range(lat.size),
                       key=lambda i: (0 if rv1[i] < lat.dims[i] else 1, lat.dims[i], i))
        if differ:  # a plain scan: lead with the classes whose counts differ
            order.sort(key=lambda i: histogram[lat.dims[i], rv1[i]]
                       == histogram2[lat.dims[i], rv1[i]])
        codes = lat.basis_codes
        depths = [_flag_depth(codes[i], q) if prune else n for i in order]
        add, scale = code_arithmetic(q)
        if prune:  # the colour of <v> for each nonzero code v
            target = [colours2[lat.span_id((v,))] for v in range(1, q ** n)]
        for j in autos:
            # a candidate v -> sigma_j(v) A is rank-preserving iff the linear
            # part A satisfies rank2(A T) = rank1(sigma_j^{-1} T) for all T
            rv1_t = rv1 if j == 0 else pullback(
                M1, lmap_from_matrix(eye, automorphism=(F.k - j) % F.k)).rank_vector()
            checks = [[] for _ in range(n + 1)]
            for i, d in zip(order, depths):
                checks[d].append((codes[i], rv1_t[i]))
            if prune:
                # row d takes the codes whose point has the colour of <e_(d+1)>
                source = colours1 if j == 0 else _point_colours(lat, rv1_t, slots)
                wanted = (source[lat.span_id((q ** d,))] for d in range(n))
                candidates = [[v for v, c in enumerate(target, 1) if c == want]
                              for want in wanted]
            else:
                candidates = [range(1, q ** n)] * n
            rows, found_leaves, found_nodes = kernels.gl_iso_search(
                n, q, lat.holders, candidates, checks, rv2, add, scale)
            leaves += found_leaves
            nodes += found_nodes
            if rows is not None:
                A = Mat(F, n, n, [x for r in rows for x in decode_vector(r, q, n)])
                witness = lmap_from_matrix(A, automorphism=j)
                break
    if stats is not None:
        stats.update(leaves=leaves, nodes=nodes,
                     candidates=_gl_order(n, q) * len(autos), refused=refused)
    return witness
