"""Maps between ground spaces that send subspaces to subspaces.

An LMap stores the total table of a map F_q^n1 -> F_q^n2 on encoded
vectors (base-q codes, see ``subspaces.encode_vector``), and every
verdict on it is read on codes; tuples appear only where vectors enter
or leave.  Verification only needs to look at 1- and 2-dimensional
subspaces of the domain: the image of any subspace is closed under
addition as soon as the images of the 2-spaces through its vector pairs
are subspaces, and closed under scaling as soon as the 1-space images
are.  ``lmap_checks`` lists them once per (q, n), for ``lmap_from_table``
and the factoring search of ``repro``; an image set is a subspace iff
it holds q^rank codes, the rank read off by ``subspaces.code_rref`` (or
off the codomain lattice's holders, by ``subspace_test``).  A preimage
is a set of codes, a subspace iff it holds q^dim codes of its span.
The image sets of the lines also decide L-equivalence.  The brute-force
check over all subspaces is kept in the test suite as an oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .errors import (
    AmbientMismatch,
    NotAnLMap,
    NotBijective,
    ZeroNotFixed,
)
from .fields import ground_field
from .subspaces import (
    Mat,
    Subspace,
    _vector_codes,
    code_arithmetic,
    code_rref,
    decode_vector,
    encode_vector,
    enumerate_subspaces,
    lattice,
)


class LMap:
    """A verified subspace-to-subspace map between F_q^n1 and F_q^n2.

    ``table[c]`` is the code of the image of the vector with code c.
    ``image_ids``, built on first use, lists for each domain lattice id
    the codomain lattice id of that space's image, so whole-lattice
    sweeps compare ranks by id; ``image_of`` gives one image as a
    ``Subspace`` in any ambient.
    """

    __slots__ = ("q", "n1", "n2", "table", "linear_matrix", "automorphism",
                 "semilinear_matrix", "verified", "_image_ids")

    def __init__(self, q, n1, n2, table, linear_matrix=None,
                 automorphism=None, semilinear_matrix=None, verified=False):
        self.q = q
        self.n1 = n1
        self.n2 = n2
        self.table = tuple(table)
        self.linear_matrix = linear_matrix
        self.automorphism = automorphism
        self.semilinear_matrix = semilinear_matrix
        self.verified = verified
        self._image_ids = None

    # ------------------------------------------------------------ basics

    @property
    def is_linear(self) -> bool:
        return self.linear_matrix is not None

    @property
    def domain(self):
        return (self.q, self.n1)

    @property
    def codomain(self):
        return (self.q, self.n2)

    def __call__(self, vec: Sequence[int]):
        return decode_vector(self.table[encode_vector(vec, self.q)], self.q, self.n2)

    @property
    def _spans_by_basis(self) -> bool:
        # v -> sigma(v) A sends sum c_i b_i to sum sigma(c_i) (b_i's image),
        # so the image of a space is the span of its basis rows' images
        return self.linear_matrix is not None or self.semilinear_matrix is not None

    def image_of(self, V: Subspace) -> Subspace:
        """The image set of V, as a canonical subspace of the codomain.

        A (semi)linear map sends V onto the span of the images of its
        basis rows; other maps are applied to every vector.
        """
        if (V.q, V.n) != (self.q, self.n1):
            raise AmbientMismatch("subspace does not live in the domain")
        codes = V.codes if self._spans_by_basis else V.vector_codes()
        return Subspace.from_codes(self.q, self.n2, map(self.table.__getitem__, codes))

    @property
    def image_ids(self) -> List[int]:
        """image_ids[i] = the codomain lattice id of the image of domain
        space i, built on first use.

        The image is spanned by the table images of the space's basis
        codes ((semi)linear maps) or of all its vectors (other L-maps);
        the span is the lowest id in the AND of their codomain holders.
        For a (semi)linear map that AND is its RREF hyperplane's AND with
        the holders of the image of the last basis code, one AND per
        space along ``SubspaceLattice.prefix_fold``.
        """
        if self._image_ids is None:
            lat1 = lattice(self.q, self.n1)
            lat2 = lattice(self.q, self.n2)
            holders, table = lat2.holders, self.table
            if self._spans_by_basis:
                self._image_ids = lat1.prefix_fold(
                    holders[0], lambda up, code: up & holders[table[code]],
                    lambda up: (up & -up).bit_length() - 1)
            else:
                image = table.__getitem__
                self._image_ids = [lat2.span_id(map(image, S.vector_codes()))
                                   for S in lat1.spaces]
        return self._image_ids

    def is_bijective(self) -> bool:
        return (self.n1 == self.n2
                and len(set(self.table)) == self.q ** self.n1)

    def inverse(self) -> "LMap":
        """Inverse of a bijective L-map.

        The inverse of a bijective L-map is an L-map, so the inverted
        table is not verified again: only its structure is detected, and
        ``verified`` is carried over.
        """
        if not self.is_bijective():
            raise NotBijective("map is not bijective")
        inv = [0] * len(self.table)
        for v, w in enumerate(self.table):
            inv[w] = v
        A, auto, semi = _detect_structure(self.q, self.n2, self.n1, inv)
        return LMap(self.q, self.n2, self.n1, inv, linear_matrix=A,
                    automorphism=auto, semilinear_matrix=semi,
                    verified=self.verified)

    def __eq__(self, other):
        return (isinstance(other, LMap)
                and (self.q, self.n1, self.n2) == (other.q, other.n1, other.n2)
                and self.table == other.table)

    def __hash__(self):
        return hash((self.q, self.n1, self.n2, self.table))

    def __repr__(self):
        kind = "linear" if self.is_linear else (
            "semilinear" if self.semilinear_matrix is not None else "nonlinear")
        return f"LMap(F{self.q}^{self.n1}->F{self.q}^{self.n2}, {kind})"


# ---------------------------------------------------------------------------
# constructors

def _detect_structure(q, n1, n2, table):
    """Return (linear_matrix, automorphism, semilinear_matrix) for the table."""
    F = ground_field(q)
    # row i of the candidate matrix is the image of e_(i+1), code q**i
    A = Mat(F, n1, n2, [x for i in range(n1)
                        for x in decode_vector(table[q ** i], q, n2)])
    table = list(table)
    for j in range(F.k if F.k > 1 else 1):
        if _matrix_table(A, j) == table:
            if j == 0:
                return A, 0, None
            return None, j, A
    return None, None, None


def _matrix_table(A: Mat, automorphism: int = 0) -> List[int]:
    """Codes of sigma(v) A for every code v of the domain, by linearity.

    The codes below q**(i+1) whose digit i is d are those below q**i
    plus d * e_(i+1), so their images add sigma(d) times row i of A to
    the images already listed.
    """
    F = A.spec
    q = F.q
    rows = [encode_vector(A.row(i), q) for i in range(A.rows)]
    return _vector_codes(rows, q, [F.base_frobenius(d, automorphism) for d in range(1, q)])


def _line_images(table, q) -> List[frozenset]:
    """For each nonzero code v of the domain, in code order, the set of
    table images of the line {c v : c in GF(q)}: the image set of the
    1-space <v>."""
    _, scale = code_arithmetic(q)
    return [frozenset(table[scale(c, v)] for c in range(q))
            for v in range(1, len(table))]


@lru_cache(maxsize=None)
def lmap_checks(q: int, n: int) -> Tuple[Tuple[int, ...], ...]:
    """The nonzero codes of each line, by least code (q > 2: over GF(2) a
    line image {0, w} is a subspace), then of each 2-space of F_q^n in
    ``enumerate_subspaces`` order: the sets an L-map maps onto subspaces."""
    _, scale = code_arithmetic(q)
    lines = [] if q == 2 else [
        line for line in (tuple(scale(c, v) for c in range(1, q))
                          for v in range(1, q ** n))
        if min(line) == line[0]]
    return tuple(lines) + tuple(tuple(W.vector_codes()[1:])
                                for W in enumerate_subspaces(q, n, 2))


def subspace_test(q: int, n: int):
    """holds(images): the codes ``images`` and 0 are a subspace of F_q^n,
    i.e. q^dim of their span, the lowest id in the AND of their holders."""
    lat = lattice(q, n)
    holders, sizes = lat.holders, [q ** d for d in lat.dims]

    def holds(images):
        up = holders[0]
        for w in images:
            up &= holders[w]
        return sizes[(up & -up).bit_length() - 1] == len({0, *images})

    return holds


def lmap_from_table(q: int, n1: int, n2: int, table_or_fn) -> LMap:
    """Build and verify an LMap from a total vector map.

    ``table_or_fn`` is either a sequence of encoded images (one per
    encoded domain vector) or a callable on coordinate tuples.  Raises
    ZeroNotFixed or NotAnLMap (with a witness subspace: the first of
    ``lmap_checks`` whose image is not a subspace) on failure.
    """
    size = q ** n1
    if callable(table_or_fn):
        table = [encode_vector(table_or_fn(decode_vector(code, q, n1)), q)
                 for code in range(size)]
    else:
        table = [int(x) for x in table_or_fn]
        if len(table) != size:
            raise ValueError(f"table must have {size} entries")
    if table[0] != 0:
        raise ZeroNotFixed("an L-map must send 0 to 0")
    if any(not 0 <= x < q ** n2 for x in table):
        raise ValueError("table entry out of codomain range")

    for codes in lmap_checks(q, n1):
        images = {0, *map(table.__getitem__, codes)}
        if q ** code_rref(images, q, n2)[1] != len(images):
            raise NotAnLMap(Subspace.from_codes(q, n1, codes))

    A, auto, semi = _detect_structure(q, n1, n2, table)
    return LMap(q, n1, n2, table, linear_matrix=A, automorphism=auto,
                semilinear_matrix=semi, verified=True)


def lmap_from_matrix(A: Mat, automorphism: int = 0) -> LMap:
    """LMap of the (semi)linear map v -> sigma(v) A (row-vector convention).

    Semilinear maps are always L-maps, so no enumeration is needed for
    verification.
    """
    F = A.spec
    q, n1, n2 = F.q, A.rows, A.cols
    table = _matrix_table(A, automorphism)
    if automorphism % max(F.k, 1) == 0:
        return LMap(q, n1, n2, table, linear_matrix=A, automorphism=0,
                    verified=True)
    return LMap(q, n1, n2, table, linear_matrix=None,
                automorphism=automorphism, semilinear_matrix=A, verified=True)


def identity_map(q: int, n: int) -> LMap:
    F = ground_field(q)
    eye = Mat(F, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])
    return lmap_from_matrix(eye)


def zero_map(q: int, n1: int, n2: int) -> LMap:
    F = ground_field(q)
    return lmap_from_matrix(Mat(F, n1, n2, [0] * (n1 * n2)))


def embedding_map(X: Subspace) -> LMap:
    """The linear embedding F_q^dim(X) -> F_q^n given by X's RREF basis."""
    F = ground_field(X.q)
    return lmap_from_matrix(Mat(F, X.dim, X.n, [x for r in X.basis for x in r]))


def iota_maps(q: int, n1: int, n2: int):
    """The two block embeddings into F_q^(n1+n2): x -> (x,0) and y -> (0,y)."""
    F = ground_field(q)
    n = n1 + n2
    A1 = Mat(F, n1, n, [1 if j == i else 0 for i in range(n1) for j in range(n)])
    A2 = Mat(F, n2, n, [1 if j == i + n1 else 0 for i in range(n2) for j in range(n)])
    return lmap_from_matrix(A1), lmap_from_matrix(A2)


def pi_maps(q: int, n1: int, n2: int):
    """The coordinate projections of F_q^(n1+n2) onto the two blocks."""
    F = ground_field(q)
    n = n1 + n2
    A1 = Mat(F, n, n1, [1 if j == i else 0 for i in range(n) for j in range(n1)])
    A2 = Mat(F, n, n2, [1 if j == i - n1 else 0 for i in range(n) for j in range(n2)])
    return lmap_from_matrix(A1), lmap_from_matrix(A2)


# ---------------------------------------------------------------------------
# image, preimage, composition, equivalence

def preimage(phi: LMap, W: Subspace):
    """Preimage of W: (encoded vector set, is_subspace, Subspace or None)."""
    if (W.q, W.n) != (phi.q, phi.n2):
        raise AmbientMismatch("subspace does not live in the codomain")
    wcodes = set(W.vector_codes())
    codes = frozenset(v for v, w in enumerate(phi.table) if w in wcodes)
    P = Subspace.from_codes(phi.q, phi.n1, codes)
    is_subspace = phi.q ** P.dim == len(codes)
    return codes, is_subspace, P if is_subspace else None


def compose(phi: LMap, psi: LMap) -> LMap:
    """phi after psi."""
    if phi.domain != psi.codomain:
        raise AmbientMismatch("codomain of inner map must equal domain of outer")
    table = tuple(phi.table[w] for w in psi.table)
    if phi.is_linear and psi.is_linear:
        A = psi.linear_matrix.mul(phi.linear_matrix)
        return LMap(phi.q, psi.n1, phi.n2, table, linear_matrix=A, automorphism=0,
                    verified=phi.verified and psi.verified)
    A, auto, semi = _detect_structure(phi.q, psi.n1, phi.n2, table)
    return LMap(phi.q, psi.n1, phi.n2, table, linear_matrix=A, automorphism=auto,
                semilinear_matrix=semi, verified=phi.verified and psi.verified)


def l_equivalent(phi: LMap, psi: LMap) -> bool:
    """True iff the induced maps agree on every 1-space of the domain."""
    if phi.domain != psi.domain or phi.codomain != psi.codomain:
        raise AmbientMismatch("maps must share domain and codomain")
    result = _line_images(phi.table, phi.q) == _line_images(psi.table, psi.q)
    if phi.is_linear and psi.is_linear:
        assert result == _scalar_equivalent(phi, psi), \
            "1-space criterion disagrees with the scalar criterion"
    return result


def _scalar_equivalent(phi: LMap, psi: LMap) -> bool:
    # linear maps are equivalent iff phi = lambda psi for a nonzero scalar:
    # one pointwise scalar for every vector that psi does not send to 0
    lam = pointwise_scalars(phi, psi)
    return lam is not None and len({lam[v] for v in lam if psi.table[v]}) <= 1


def pointwise_scalars(phi: LMap, psi: LMap):
    """For equivalent maps: the scalars lambda_v with phi(v) = lambda_v psi(v).

    Returns a dict encoded-vector -> scalar index, or None if some vector
    admits no scalar.
    """
    q = phi.q
    _, scale = code_arithmetic(q)
    out = {}
    for code, a, b in zip(range(1, q ** phi.n1), phi.table[1:], psi.table[1:]):
        if not a and not b:
            out[code] = 1
            continue
        # a nonzero b has at most one scalar multiple equal to a
        lam = next((c for c in range(1, q) if scale(c, b) == a), None) if b else None
        if lam is None:
            return None
        out[code] = lam
    return out


def tweak_equivalent(psi: LMap, w: Sequence[int], tau: int) -> LMap:
    """Redefine psi on the line through w without changing 1-space images.

    With w_hat = psi^{-1}(tau psi(w)), the new map sends mu*w to
    psi(mu*w_hat) and agrees with psi elsewhere.  The result is an
    L-isomorphism equivalent to psi; tau = 1 returns psi itself.
    """
    if not psi.verified:
        raise ValueError("psi must be a verified L-map")
    if not psi.is_bijective():
        raise NotBijective("tweak construction needs a bijective map")
    q = psi.q
    if not any(w):
        raise ValueError("w must be nonzero")
    if tau == 0:
        raise ValueError("tau must be nonzero")
    if tau == 1:
        return psi
    _, scale = code_arithmetic(q)
    inv = {img: v for v, img in enumerate(psi.table)}
    w_code = encode_vector(w, q)
    w_hat = inv[scale(tau, psi.table[w_code])]
    table = list(psi.table)
    for mu in range(q):
        table[scale(mu, w_code)] = psi.table[scale(mu, w_hat)]
    phi = lmap_from_table(q, psi.n1, psi.n2, table)
    assert l_equivalent(phi, psi)
    return phi


class LClass:
    """Equivalence class of L-maps inducing the same map on subspaces."""

    __slots__ = ("representative",)

    def __init__(self, representative: LMap):
        self.representative = representative

    def __call__(self, V: Subspace) -> Subspace:
        return self.representative.image_of(V)

    def compose(self, other: "LClass") -> "LClass":
        return LClass(compose(self.representative, other.representative))

    def __eq__(self, other):
        if not isinstance(other, LClass):
            return NotImplemented
        return l_equivalent(self.representative, other.representative)

    def __hash__(self):
        # hash by the induced 1-space map
        phi = self.representative
        return hash(tuple(_line_images(phi.table, phi.q)))

    def __repr__(self):
        return f"LClass({self.representative!r})"


# ---------------------------------------------------------------------------
# classification against q-matroids

WITNESS_LIMIT = 10


class MapTypeReport:
    __slots__ = ("is_weak", "is_strong", "is_rank_preserving", "witnesses")

    def __init__(self, is_weak: bool, is_strong: bool, is_rank_preserving: bool,
                 witnesses: Optional[dict] = None):
        if is_rank_preserving and not is_weak:
            raise AssertionError("rank-preserving must imply weak")
        self.is_weak = is_weak
        self.is_strong = is_strong
        self.is_rank_preserving = is_rank_preserving
        self.witnesses = {} if witnesses is None else witnesses


def classify_map(phi: LMap, M1, M2) -> MapTypeReport:
    """Classify phi as weak / strong / rank-preserving from M1 to M2.

    Weakness and rank-preservation sweep every subspace of the domain,
    comparing rank vectors at each lattice id and its image id;
    strongness checks the preimage of every flat of M2, in lattice
    order (a preimage that is not even a subspace fails with that
    witness).  Each kind keeps its first ``WITNESS_LIMIT`` witnesses.
    """
    if not phi.verified:
        raise ValueError("phi must be a verified L-map")
    if phi.domain != (M1.q, M1.n) or phi.codomain != (M2.q, M2.n):
        raise AmbientMismatch("map ambients do not match the matroids")
    lat1 = lattice(phi.q, phi.n1)
    lat2 = lattice(phi.q, phi.n2)
    rv1, rv2 = M1.rank_vector(), M2.rank_vector()
    weak_viol, rp_viol, strong_viol = [], [], []
    for i, j in enumerate(phi.image_ids):
        r1, r2 = rv1[i], rv2[j]
        if r2 > r1 and len(weak_viol) < WITNESS_LIMIT:
            weak_viol.append((lat1.spaces[i], r1, r2))
        if r2 != r1 and len(rp_viol) < WITNESS_LIMIT:
            rp_viol.append((lat1.spaces[i], r1, r2))
    flats1 = M1.flats().id_mask
    q, dims1, holders2 = phi.q, lat1.dims, lat2.holders
    images = [holders2[w] for w in phi.table]  # the holders of each code's image
    for f in M2.flats().member_ids:
        if len(strong_viol) >= WITNESS_LIMIT:
            break
        # the codes sent into flat f, a subspace iff q^dim of them span it
        into = 1 << f
        codes = [v for v, up in enumerate(images) if up & into]
        i = lat1.span_id(codes)
        if q ** dims1[i] != len(codes):
            strong_viol.append((lat2.spaces[f], "preimage is not a subspace"))
        elif not flats1 >> i & 1:
            strong_viol.append((lat2.spaces[f], lat1.spaces[i]))
    return MapTypeReport(
        is_weak=not weak_viol,
        is_strong=not strong_viol,
        is_rank_preserving=not rp_viol,
        witnesses={"weak": weak_viol, "strong": strong_viol,
                   "rank_preserving": rp_viol},
    )


def is_weak_linear_via_circuits(phi: LMap, M1, M2) -> bool:
    """Weakness test for linear maps through the circuit criterion.

    A linear map fails to be weak exactly when some circuit C of M1 has
    an independent image of the same dimension with strictly larger rank.
    """
    if not phi.is_linear:
        raise ValueError("circuit criterion applies to linear maps only")
    lat1 = lattice(phi.q, phi.n1)
    dims2 = lattice(phi.q, phi.n2).dims
    rv1, rv2 = M1.rank_vector(), M2.rank_vector()
    for C in M1.circuits():
        i = lat1.id_of(C)
        j = phi.image_ids[i]
        if rv2[j] > rv1[i] and dims2[j] == C.dim and rv2[j] == dims2[j]:
            return False
    return True
