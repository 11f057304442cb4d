"""Exact linear algebra over GF(q) and the subspace lattice of F_q^n.

Vectors over GF(q) are tuples of element indices at the interface;
inside, a vector is its integer code sum(v_i * q**i) (little-endian
base-q digits), added and scaled by ``code_arithmetic`` for every q.
The lattice spans each space's basis codes with it to list the space's
vectors.  Subspaces are canonical: the stored basis is the unique RREF,
so equal subspaces compare and hash equal.

RREF is the one routine split by q: for q = 2 the rows are packed into
the GF(2) kernel of :mod:`qmatroids.kernels`, and for odd
characteristic elimination needs the digits.  It works on rows of any
length, beyond the caps where no table of q^n codes may be built.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from math import prod
from typing import Iterable, Iterator, List, Optional, Sequence

from . import kernels
from .errors import AmbientMismatch, EnumerationCapExceeded
from .fields import FieldSpec, ground_field

DEFAULT_MAX_VECTORS = 1 << 16
DEFAULT_MAX_SUBSPACES = 10 ** 7


@dataclass(frozen=True)
class Caps:
    """Enumeration guard rails."""
    max_vectors: int = DEFAULT_MAX_VECTORS
    max_subspaces: int = DEFAULT_MAX_SUBSPACES


DEFAULT_CAPS = Caps()


# ---------------------------------------------------------------------------
# vector encoding

def encode_vector(vec: Sequence[int], q: int) -> int:
    code = 0
    for v in reversed(vec):
        code = code * q + v
    return code


def decode_vector(code: int, q: int, n: int):
    out = []
    for _ in range(n):
        out.append(code % q)
        code //= q
    return tuple(out)


def vec_add(u, v, F: FieldSpec):
    return tuple(F.base_add(a, b) for a, b in zip(u, v))


def vec_scale(c, v, F: FieldSpec):
    return tuple(F.base_mul(c, x) for x in v)


@lru_cache(maxsize=None)
def code_arithmetic(q: int, n: int):
    """(add, scale): the sum of two codes of F_q^n and a scalar times a code,
    built once per (q, n).

    In characteristic 2 the sum is XOR.  Otherwise it adds one term per
    digit, read from a table of (a + b) * q**i by digit value.  Products
    come from one table of q^n codes per scalar; over GF(2) the only
    nonzero scalar is 1 and no table is built.  Nor is one built for an
    ambient beyond the enumeration caps: each call decodes its codes to
    digits, so a map into it costs its own domain's q^n1 calls only.
    """
    F = ground_field(q)
    if q == 2:
        return operator.xor, lambda c, v: v if c else 0
    if q ** n > DEFAULT_MAX_VECTORS or count_subspaces(q, n) > DEFAULT_MAX_SUBSPACES:
        at = partial(decode_vector, q=q, n=n)
        add = lambda u, v: encode_vector(vec_add(at(u), at(v), F), q)
        return (operator.xor if F.p == 2 else add), (
            lambda c, v: encode_vector(vec_scale(c, at(v), F), q))
    digits = [decode_vector(code, q, n) for code in range(q ** n)]
    scaled = [[encode_vector(vec_scale(c, v, F), q) for v in digits]
              for c in range(q)]

    def scale(c, v):
        return scaled[c][v]

    if F.p == 2:
        return operator.xor, scale
    shifted = [[[F.base_add(a, b) * q ** i for b in range(q)] for a in range(q)]
               for i in range(n)]
    terms = [[shifted[i][a] for i, a in enumerate(d)] for d in digits]

    def add(u, v):
        return sum(map(operator.getitem, terms[u], digits[v]))

    return add, scale


# ---------------------------------------------------------------------------
# matrices over an arbitrary FieldSpec (used for representing matrices G)

class Mat:
    """Dense matrix over a FieldSpec; entries are element indices."""

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries: Sequence[int]):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Sequence[Sequence[int]]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in row)
        return cls(spec, r, c, flat)

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def iter_rows(self):
        for i in range(self.rows):
            yield self.row(i)

    def mul(self, other: "Mat") -> "Mat":
        if self.spec != other.spec:
            raise AmbientMismatch("matrix fields differ")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        F = self.spec
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = 0
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        b = other.entries[k * other.cols + j]
                        if b:
                            acc = F.add(acc, F.mul(a, b))
                out.append(acc)
        return Mat(self.spec, self.rows, other.cols, out)

    def rank(self) -> int:
        F = self.spec
        mat = [list(r) for r in self.iter_rows()]
        rank = 0
        for c in range(self.cols):
            piv = None
            for i in range(rank, len(mat)):
                if mat[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            inv = F.inv(mat[rank][c])
            for i in range(rank + 1, len(mat)):
                f = mat[i][c]
                if f:
                    factor = F.mul(f, inv)
                    mat[i] = [F.sub(x, F.mul(factor, y))
                              for x, y in zip(mat[i], mat[rank])]
            rank += 1
            if rank == len(mat):
                break
        return rank

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.spec == other.spec
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over GF({self.spec.q}^{self.spec.m}))"


# ---------------------------------------------------------------------------
# RREF over the ground field

def rref(rows: Sequence[Sequence[int]], q: int, n: int):
    """Unique RREF of the given rows; returns (rows, rank), no zero rows."""
    if q == 2:
        packed = [_pack(r) for r in rows]
        red, rank = kernels.gf2_rref(packed, n)
        return tuple(_unpack(r, n) for r in red), rank
    F = ground_field(q)
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = F.base_inv(mat[r][c])
        if inv != 1:
            mat[r] = [F.base_mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [F.base_add(x, F.base_neg(F.base_mul(f, y)))
                          for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), r


def _pack(row) -> int:
    bits = 0
    for i, v in enumerate(row):
        if v:
            bits |= 1 << i
    return bits


def _unpack(bits: int, n: int):
    return tuple((bits >> i) & 1 for i in range(n))


# ---------------------------------------------------------------------------
# canonical subspaces

class Subspace:
    """A subspace of F_q^n, stored as its unique RREF basis (no zero rows)."""

    __slots__ = ("q", "n", "basis", "_hash")

    def __init__(self, q: int, n: int, basis):
        self.q = q
        self.n = n
        self.basis = basis
        self._hash = hash((q, n, basis))

    @classmethod
    def from_rows(cls, q: int, n: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        basis, _ = rref(list(rows), q, n)
        return cls(q, n, basis)

    @classmethod
    def zero(cls, q: int, n: int) -> "Subspace":
        return cls(q, n, ())

    @classmethod
    def full(cls, q: int, n: int) -> "Subspace":
        eye = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return cls(q, n, eye)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def pivots(self):
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)

    def ambient(self):
        return (self.q, self.n)

    def contains_vector(self, vec: Sequence[int]) -> bool:
        return self.coordinates_of(vec) is not None

    def vectors(self) -> Iterator[tuple]:
        """All q^dim vectors, in coefficient-lexicographic order."""
        F = ground_field(self.q)
        out = [(0,) * self.n]
        # prefixing the multiples of each earlier row keeps the order
        for row in reversed(self.basis):
            multiples = [vec_scale(c, row, F) for c in range(1, self.q)]
            out += [vec_add(m, v, F) for m in multiples for v in out]
        return iter(out)

    def coordinates_of(self, vec: Sequence[int]):
        """Coefficients of vec in this basis; None if vec lies outside."""
        F = ground_field(self.q)
        v = list(vec)
        coeffs = []
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x)
            c = v[p]
            coeffs.append(c)
            if c:
                for j in range(self.n):
                    v[j] = F.base_add(v[j], F.base_neg(F.base_mul(c, row[j])))
        if any(v):
            return None
        return tuple(coeffs)

    def vector_at(self, coeffs: Sequence[int]) -> tuple:
        """The combination of the basis rows with these coefficients."""
        F = ground_field(self.q)
        v = [0] * self.n
        for c, row in zip(coeffs, self.basis):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = F.base_add(v[j], F.base_mul(c, x))
        return tuple(v)

    def to_dict(self):
        return {"ambient_n": self.n, "q": self.q,
                "basis": [list(r) for r in self.basis]}

    @classmethod
    def from_dict(cls, d) -> "Subspace":
        return cls.from_rows(d["q"], d["ambient_n"], d["basis"])

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and (self.q, self.n, self.basis) == (other.q, other.n, other.basis))

    def __hash__(self):
        return self._hash

    def __le__(self, other: "Subspace"):
        return contains(other, self)

    def __lt__(self, other: "Subspace"):
        return self != other and contains(other, self)

    def __repr__(self):
        rows = ",".join("".join(str(x) for x in row) for row in self.basis)
        return f"<{rows or '0'}|F{self.q}^{self.n}>"


def _check_same_ambient(U: Subspace, V: Subspace):
    if (U.q, U.n) != (V.q, V.n):
        raise AmbientMismatch(f"ambients differ: {U.ambient()} vs {V.ambient()}")


def join(U: Subspace, V: Subspace) -> Subspace:
    _check_same_ambient(U, V)
    return Subspace.from_rows(U.q, U.n, list(U.basis) + list(V.basis))


def complement(U: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product."""
    F = ground_field(U.q)
    n = U.n
    pivots = set(U.pivots())
    piv_list = U.pivots()
    free = [j for j in range(n) if j not in pivots]
    rows = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for i, p in enumerate(piv_list):
            v[p] = F.base_neg(U.basis[i][j])
        rows.append(v)
    return Subspace.from_rows(U.q, n, rows)


def meet(U: Subspace, V: Subspace) -> Subspace:
    """U intersect V, via (U^perp + V^perp)^perp."""
    _check_same_ambient(U, V)
    m = complement(join(complement(U), complement(V)))
    assert U.dim + V.dim == join(U, V).dim + m.dim
    return m


def contains(U: Subspace, V: Subspace) -> bool:
    """True iff V <= U."""
    _check_same_ambient(U, V)
    if V.dim > U.dim:
        return False
    return all(U.contains_vector(row) for row in V.basis)


def row_space(q: int, n: int, rows: Iterable[Sequence[int]]) -> Subspace:
    return Subspace.from_rows(q, n, rows)


# ---------------------------------------------------------------------------
# counting and enumeration

def gaussian_binomial(n: int, d: int, q: int) -> int:
    if d < 0 or d > n:
        return 0
    num = prod(q ** n - q ** i for i in range(d))
    den = prod(q ** d - q ** i for i in range(d))
    return num // den


def count_subspaces(q: int, n: int, d: Optional[int] = None) -> int:
    if d is not None:
        return gaussian_binomial(n, d, q)
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def _check_caps(q: int, n: int, d: Optional[int], caps: Caps):
    if q ** n > caps.max_vectors:
        raise EnumerationCapExceeded(
            f"q^n = {q ** n} exceeds vector cap {caps.max_vectors}")
    if count_subspaces(q, n, d) > caps.max_subspaces:
        raise EnumerationCapExceeded(
            f"{count_subspaces(q, n, d)} subspaces exceed cap {caps.max_subspaces}")


def enumerate_subspaces(q: int, n: int, d: Optional[int] = None,
                        caps: Caps = DEFAULT_CAPS) -> Iterator[Subspace]:
    """All subspaces of F_q^n, dimension d only if given.

    Deterministic order: by dimension, then pivot-column set in colex
    order, then lexicographically on the free entries.
    """
    _check_caps(q, n, d, caps)
    dims = [d] if d is not None else list(range(n + 1))
    for k in dims:
        if k == 0:
            yield Subspace.zero(q, n)
            continue
        for pivots in sorted(itertools.combinations(range(n), k),
                             key=lambda t: tuple(reversed(t))):
            pivset = set(pivots)
            free_pos = [(i, j) for i in range(k)
                        for j in range(pivots[i] + 1, n) if j not in pivset]
            for values in itertools.product(range(q), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, j), v in zip(free_pos, values):
                    rows[i][j] = v
                yield Subspace(q, n, tuple(tuple(r) for r in rows))


def subspaces_of(V: Subspace, d: Optional[int] = None,
                 caps: Caps = DEFAULT_CAPS) -> Iterator[Subspace]:
    """All subspaces of V (of dimension d if given), canonical in the ambient."""
    if d is not None and d > V.dim:
        return
    for inner in enumerate_subspaces(V.q, V.dim, d, caps):
        yield Subspace.from_rows(V.q, V.n, map(V.vector_at, inner.basis))


def one_spaces(V: Subspace) -> list:
    """The (q^dim - 1)/(q - 1) one-dimensional subspaces of V."""
    out = []
    # canonical projective representatives: first nonzero coefficient is 1
    for k in range(V.dim):
        for tail in itertools.product(range(V.q), repeat=V.dim - k - 1):
            v = V.vector_at((0,) * k + (1,) + tail)
            out.append(Subspace.from_rows(V.q, V.n, [v]))
    return out


def quotient_map(X: Subspace):
    """The projection of F_q^n onto the quotient by X, in coordinates.

    The quotient coordinates are indexed by the non-pivot columns of X's
    RREF basis; the kernel of the returned linear map is exactly X.
    Returns (LMap, quotient_dim).
    """
    from . import maps  # deferred: maps depends on this module

    F = ground_field(X.q)
    n = X.n
    piv = X.pivots()
    nonpiv = [j for j in range(n) if j not in piv]
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        for bi, p in enumerate(piv):
            c = e[p]
            if c:
                row = X.basis[bi]
                e = [F.base_add(x, F.base_neg(F.base_mul(c, y)))
                     for x, y in zip(e, row)]
        rows.append([e[j] for j in nonpiv])
    A = Mat(F, n, len(nonpiv), [x for row in rows for x in row])
    return maps.lmap_from_matrix(A), len(nonpiv)


# ---------------------------------------------------------------------------
# the cached lattice

class SubspaceLattice:
    """Materialized subspace lattice of F_q^n with structure tables.

    Spaces are indexed in enumeration order, so ids ascend with
    dimension.  The order is held in bitmask tables: ``vec_masks[i]``
    has bit v set for each encoded vector v of space i, its transpose
    ``holders[v]`` has bit i set for each space i containing vector v
    (``holders[0]`` holds every id), and ``up_masks[i]`` has bit j set
    for each space j containing space i.  Meets are vector-mask
    intersections.  Joins and spans come from up-sets: the spaces
    containing both i and j are the up-set of their join, which is the
    one of least dimension and hence the lowest id in
    ``up_masks[i] & up_masks[j]``; likewise the span of some vectors is
    the lowest id in the AND of their holders.  ``basis_codes[i]`` lists
    the codes of space i's RREF basis rows, whose span gives its vector
    codes.  ``layer_masks[d]`` holds the ids of dimension d, so
    ``covers_mask(i)``, the upper covers of space i, is
    ``up_masks[i] & layer_masks[dim + 1]``.  ``sub_masks``, the
    transpose of ``up_masks``, is built on first use from the covers.
    No table changes once built.
    """

    def __init__(self, q: int, n: int, caps: Caps = DEFAULT_CAPS):
        self.q = q
        self.n = n
        self.spaces = list(enumerate_subspaces(q, n, caps=caps))
        self.index = {S: i for i, S in enumerate(self.spaces)}
        self.dims = [S.dim for S in self.spaces]
        self.size = len(self.spaces)
        self.zero_id = self.index[Subspace.zero(q, n)]
        self.full_id = self.index[Subspace.full(q, n)]
        self.basis_codes = [tuple(encode_vector(row, q) for row in S.basis)
                            for S in self.spaces]
        add, scale = code_arithmetic(q, n)
        self.holders = holders = [0] * (q ** n)
        self.vec_masks = []
        for i, codes in enumerate(self.basis_codes):
            bit = 1 << i
            mask = 0
            for v in _vector_codes(codes, add, scale, range(1, q)):
                mask |= 1 << v
                holders[v] |= bit
            self.vec_masks.append(mask)
        self._mask_to_id = {m: i for i, m in enumerate(self.vec_masks)}
        everything = (1 << self.size) - 1
        self.up_masks = []
        for codes in self.basis_codes:
            up = everything
            for c in codes:
                up &= holders[c]
            self.up_masks.append(up)
        self.layer_masks = [0] * (n + 1)  # ids of each dimension
        for i, d in enumerate(self.dims):
            self.layer_masks[d] |= 1 << i
        self.one_ids = [i for i, d in enumerate(self.dims) if d == 1]
        self._sub_masks = None

    def id_of(self, S: Subspace) -> int:
        try:
            return self.index[S]
        except KeyError:
            raise AmbientMismatch(f"{S!r} is not a subspace of F_{self.q}^{self.n}")

    def contains_ids(self, i: int, j: int) -> bool:
        """True iff space j <= space i."""
        mj = self.vec_masks[j]
        return self.vec_masks[i] & mj == mj

    def meet_id(self, i: int, j: int) -> int:
        return self._mask_to_id[self.vec_masks[i] & self.vec_masks[j]]

    def join_id(self, i: int, j: int) -> int:
        common = self.up_masks[i] & self.up_masks[j]
        return (common & -common).bit_length() - 1

    def span_id(self, codes: Iterable[int]) -> int:
        """Id of the span of the vectors with these codes: the lowest id
        in the AND of their holders (the zero space for no codes)."""
        holders = self.holders
        up = holders[0]
        for c in codes:
            up &= holders[c]
        return (up & -up).bit_length() - 1

    def covers_mask(self, i: int) -> int:
        """Bitmask of the upper covers of space i: the spaces containing
        it whose dimension is one more."""
        d = self.dims[i]
        return self.up_masks[i] & self.layer_masks[d + 1] if d < self.n else 0

    def minimal_ids(self, mask: int) -> List[int]:
        """The ids set in ``mask`` with no other id of ``mask`` below them,
        ascending."""
        subs = self.sub_masks
        return [i for i in range(self.size)
                if (mask >> i) & 1 and subs[i] & mask & ~(1 << i) == 0]

    @property
    def sub_masks(self):
        """sub_masks[i] = bitmask over ids j with space_j <= space_i."""
        if self._sub_masks is None:
            # the subspaces of a space are itself and those of its
            # hyperplanes (the spaces it covers), whose ids are lower
            hyperplanes = [[] for _ in range(self.size)]
            for j in range(self.size):
                for i in mask_ids(self.covers_mask(j)):
                    hyperplanes[i].append(j)
            masks = []
            for i, below in enumerate(hyperplanes):
                mask = 1 << i
                for j in below:
                    mask |= masks[j]
                masks.append(mask)
            self._sub_masks = masks
        return self._sub_masks


def mask_ids(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _vector_codes(rows, add, scale, scalars) -> List[int]:
    """The codes of the combinations of the row codes ``rows``, listed by
    their coefficient codes, where digit value d stands for the scalar
    ``scalars[d - 1]``.  With scalars 1..q-1 this lists the span of the
    rows; ``add`` and ``scale`` are ``code_arithmetic``'s.

    The combinations of the first i + 1 rows are those of the first i
    plus each multiple of row i, so each row is scaled once per scalar.
    """
    codes = [0]
    for r in rows:
        lower = codes[:]
        for c in scalars:
            codes += map(add, itertools.repeat(scale(c, r)), lower)
    return codes


@lru_cache(maxsize=None)
def lattice(q: int, n: int) -> SubspaceLattice:
    """Shared lattice cache for the default caps."""
    return SubspaceLattice(q, n)
