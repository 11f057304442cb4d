"""Exact linear algebra over GF(q) and the subspace lattice of F_q^n.

A vector of F_q^n is its integer code sum(v_i * q**i) (little-endian base-q
digits), added and scaled by ``code_arithmetic(q)``, one pair for every n.  A
``Subspace`` is the tuple of the codes of its unique RREF rows, so equal
subspaces compare and hash equal; enumeration, joins, containment,
coordinates and the lattice's tables all work on those codes.  Tuples
of digits appear only at the boundary: ``rref`` and
``Subspace.from_rows`` check and encode rows given as tuples, and
``Subspace.basis`` decodes the rows for printing and JSON.

Row reduction runs on codes (``code_rref``): over GF(2) a code is
already a packed row of the GF(2) kernel in :mod:`qmatroids.kernels`,
and for q > 2 elimination adds and scales codes with
``code_arithmetic``, whose tables depend on GF(q) alone: a byte per
entry, read block by block, so they serve codes of any length.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from functools import lru_cache, partial, reduce
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from . import kernels
from .errors import AmbientMismatch
from .fields import FieldSpec, _Computed, byte_blocks, check_caps, ground_field


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


def _multiples(F: FieldSpec):
    """The rows of GF(q)'s multiplication table, q <= 256: row c is the bytes
    c x for x < q.  Along the powers c of the primitive element g, row(g c)
    is row(c) translated by row(g): q - 1 translations, not q^2 products."""
    q, g = F.order, F.omega_val
    times_g = bytes(map(F.mul, itertools.repeat(g), range(q))).ljust(256, b"\0")
    rows = [bytes(q)] * q
    c, row = 1, bytes(range(q))
    for _ in range(q - 1):
        rows[c] = row
        c, row = F.mul(g, c), row.translate(times_g)
    return rows


@lru_cache(maxsize=None)
def code_arithmetic(q: int):
    """(add, scale): the sum of two vector codes over GF(q) and a scalar
    times a code, for codes of any length, built once per q.  The sum is
    the field's ``add`` (XOR if p = 2); c v reads row c of a byte table of the
    multiples of each block of base-q digits once per block of v (for
    q > 256 a block is one digit, multiplied on reading)."""
    F = ground_field(q)
    Q, rows = (q, _Computed(_Computed, F.mul)) if q > 256 else byte_blocks(
        _multiples(F), False)

    def scale(c, v):
        if v < Q:
            return rows[c][v]
        out, unit = 0, 1
        while v:
            out += rows[c][v % Q] * unit
            v, unit = v // Q, unit * Q
        return out

    return (operator.xor if F.p == 2 else F.add), scale


# ---------------------------------------------------------------------------
# matrices over an arbitrary FieldSpec (used for representing matrices G)

class Mat:
    """Dense matrix over a FieldSpec; entries are element indices."""

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries: Sequence[int]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        for x in entries:  # a float raises, not truncates
            if not 0 <= operator.index(x) < spec.order:
                raise ValueError(f"entries must be element indices of GF({spec.order})")
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Sequence[Sequence[int]]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
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
        return row_rank(self.spec, self.iter_rows(), min(self.rows, self.cols))

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.spec == other.spec
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over GF({self.spec.q}^{self.spec.m}))"


def row_rank(spec: FieldSpec, rows: Iterable[Sequence[int]], cap: int) -> int:
    """GF(q^m)-rank of the rows (sequences of element indices), counted
    up to ``cap``: the scan stops at the cap'th independent row."""
    basis = []
    for row in rows:
        kept = reduced_row(spec, basis, row)
        if kept is not None:
            basis.append(kept)
            if len(basis) == cap:
                break
    return len(basis)


def reduced_row(spec: FieldSpec, basis, row: Sequence[int]):
    """``row`` reduced against the echelon ``basis`` of ``row_rank``, as
    a (pivot, row) entry to append to it, scaled to 1 at its pivot; None
    if the row lies in the span of ``basis``.  Each kept row is 1 at its
    pivot and 0 at the earlier pivots."""
    add, mul, neg = spec.add, spec.mul, spec.neg
    for p, b in basis:
        f = row[p]
        if f:
            f = neg(f)
            row = [add(x, mul(f, y)) for x, y in zip(row, b)]
    p = next((j for j, x in enumerate(row) if x), None)
    if p is None:
        return None
    inv = spec.inv(row[p])
    return p, [mul(inv, x) for x in row]


# ---------------------------------------------------------------------------
# RREF over the ground field

def code_rref(codes: Iterable[int], q: int, n: int):
    """Unique RREF of the vectors of F_q^n with these codes: (the codes of
    its rows by ascending pivot, rank), no zero rows.

    A row's pivot is its lowest nonzero digit, scaled to 1.  Over GF(2)
    the codes are the packed rows of ``kernels.gf2_rref``; otherwise
    Gauss-Jordan elimination runs with ``code_arithmetic(q)``.
    """
    if q == 2:
        return kernels.gf2_rref(codes, n)
    F = ground_field(q)
    add, scale = code_arithmetic(q)
    basis = {}  # q**pivot -> row code
    for r in codes:
        for w, b in basis.items():
            d = r // w % q
            if d:
                r = add(r, scale(F.base_neg(d), b))
        if r:
            w = 1
            while not r // w % q:
                w *= q
            r = scale(F.base_inv(r // w % q), r)
            for v, b in basis.items():
                d = b // w % q
                if d:
                    basis[v] = add(b, scale(F.base_neg(d), r))
            basis[w] = r
    return [basis[w] for w in sorted(basis)], len(basis)


def _row_codes(rows: Iterable[Sequence[int]], q: int, n: int) -> List[int]:
    """The codes of rows given as vectors of F_q^n; ValueError for a row
    of another length or with an entry that is not an int in range(q)."""
    codes = []
    for row in rows:
        if len(row) != n or not all(isinstance(x, int) and 0 <= x < q for x in row):
            raise ValueError(f"row {tuple(row)!r} is not a vector of F_{q}^{n}")
        codes.append(encode_vector(row, q))
    return codes


def rref(rows: Sequence[Sequence[int]], q: int, n: int):
    """Unique RREF of the given rows; returns (rows, rank), no zero rows."""
    red, rank = code_rref(_row_codes(rows, q, n), q, n)
    return tuple(decode_vector(c, q, n) for c in red), rank


# ---------------------------------------------------------------------------
# canonical subspaces

class Subspace:
    """A subspace of F_q^n, stored as the codes of its unique RREF rows
    (no zero rows), by ascending pivot."""

    __slots__ = ("q", "n", "codes", "_hash")

    def __init__(self, q: int, n: int, codes: tuple):
        self.q = q
        self.n = n
        self.codes = codes
        self._hash = hash((q, n, codes))

    @classmethod
    def from_rows(cls, q: int, n: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        return cls.from_codes(q, n, _row_codes(rows, q, n))

    @classmethod
    def from_codes(cls, q: int, n: int, codes: Iterable[int]) -> "Subspace":
        """The span of the vectors with these codes."""
        return cls(q, n, tuple(code_rref(codes, q, n)[0]))

    @classmethod
    def zero(cls, q: int, n: int) -> "Subspace":
        return cls(q, n, ())

    @classmethod
    def full(cls, q: int, n: int) -> "Subspace":
        return cls(q, n, tuple(q ** i for i in range(n)))

    @property
    def basis(self):
        """The RREF rows as tuples of digits, decoded on each read."""
        return tuple(decode_vector(c, self.q, self.n) for c in self.codes)

    @property
    def dim(self) -> int:
        return len(self.codes)

    @property
    def is_zero(self) -> bool:
        return not self.codes

    def pivots(self):
        """The pivot of each row: its lowest nonzero digit."""
        return tuple(map(partial(_pivot, q=self.q), self.codes))

    def ambient(self):
        return (self.q, self.n)

    def contains_vector(self, vec: Sequence[int]) -> bool:
        return self.coordinates_of(vec) is not None

    def vector_codes(self) -> List[int]:
        """The codes of all q^dim vectors, in coefficient-lexicographic order."""
        # prefixing the multiples of each earlier row keeps the order
        return _vector_codes(self.codes[::-1], self.q)

    def vectors(self) -> Iterator[tuple]:
        """All q^dim vectors, in coefficient-lexicographic order."""
        return (decode_vector(c, self.q, self.n) for c in self.vector_codes())

    def coordinates_of(self, vec: Sequence[int]):
        """Coefficients of vec in this basis; None if vec lies outside."""
        return self._coordinates(encode_vector(vec, self.q))

    def _coordinates(self, code: int):
        # in RREF the coefficient of a row is the vector's digit at its pivot
        q = self.q
        coeffs = tuple(code // q ** p % q for p in self.pivots())
        return coeffs if self._combination(coeffs) == code else None

    def _combination(self, coeffs: Sequence[int]) -> int:
        add, scale = code_arithmetic(self.q)
        return reduce(add, map(scale, coeffs, self.codes), 0)

    def to_dict(self):
        return {"ambient_n": self.n, "q": self.q,
                "basis": [list(r) for r in self.basis]}

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and (self.q, self.n, self.codes) == (other.q, other.n, other.codes))

    def __hash__(self):
        return self._hash

    def __le__(self, other: "Subspace"):
        return contains(other, self)

    def __lt__(self, other: "Subspace"):
        return self != other and contains(other, self)

    def __repr__(self):
        rows = ",".join("".join(str(x) for x in row) for row in self.basis)
        return f"<{rows or '0'}|F{self.q}^{self.n}>"


def _pivot(code: int, q: int) -> int:
    """The position of the lowest nonzero digit of a nonzero code."""
    j = 0
    while not code % q:
        code //= q
        j += 1
    return j


def _check_same_ambient(U: Subspace, V: Subspace):
    if (U.q, U.n) != (V.q, V.n):
        raise AmbientMismatch(f"ambients differ: {U.ambient()} vs {V.ambient()}")


def join(U: Subspace, V: Subspace) -> Subspace:
    _check_same_ambient(U, V)
    return Subspace.from_codes(U.q, U.n, U.codes + V.codes)


def complement(U: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product."""
    F = ground_field(U.q)
    q, n = U.q, U.n
    pivots = U.pivots()
    # e_j minus, at each pivot, the entry of that pivot's row in column j
    rows = [q ** j + sum(F.base_neg(b // q ** j % q) * q ** p
                         for p, b in zip(pivots, U.codes))
            for j in range(n) if j not in pivots]
    return Subspace.from_codes(q, n, rows)


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
    return all(U._coordinates(c) is not None for c in V.codes)


def row_space(q: int, n: int, rows: Iterable[Sequence[int]]) -> Subspace:
    return Subspace.from_rows(q, n, rows)


# ---------------------------------------------------------------------------
# enumeration

def enumerate_subspaces(q: int, n: int, d: Optional[int] = None) -> Iterator[Subspace]:
    """All subspaces of F_q^n, dimension d only if given.

    Deterministic order: by dimension, then pivot-column set in colex
    order, then lexicographically on the free entries, row by row.  A
    row's code is q^pivot plus each free digit times q^column.
    """
    check_caps(q, n, d)
    dims = [d] if d is not None else list(range(n + 1))
    for k in dims:
        for pivots in sorted(itertools.combinations(range(n), k),
                             key=lambda t: tuple(reversed(t))):
            options = []  # each row's codes, lexicographic on its free digits
            for p in pivots:
                row = [q ** p]
                for j in range(p + 1, n):
                    if j not in pivots:
                        row = [c + v * q ** j for c in row for v in range(q)]
                options.append(row)
            for codes in itertools.product(*options):
                yield Subspace(q, n, codes)


def subspaces_of(V: Subspace, d: Optional[int] = None) -> Iterator[Subspace]:
    """All subspaces of V (of dimension d if given), canonical in the ambient."""
    if d is not None and d > V.dim:
        return
    q = V.q
    for inner in enumerate_subspaces(q, V.dim, d):
        # RREF rows of coefficients give RREF rows of the ambient: each
        # has digit 1 at its pivot row's pivot and 0 at the others'
        yield Subspace(q, V.n, tuple(V._combination(decode_vector(c, q, V.dim))
                                     for c in inner.codes))


def one_spaces(V: Subspace) -> list:
    """The (q^dim - 1)/(q - 1) one-dimensional subspaces of V."""
    add = code_arithmetic(V.q)[0]
    # canonical projective representatives: row k plus a combination of
    # the later rows has first nonzero coefficient 1, so it is reduced
    return [Subspace(V.q, V.n, (add(row, v),))
            for k, row in enumerate(V.codes) for v in _vector_codes(V.codes[:k:-1], V.q)]


# ---------------------------------------------------------------------------
# the cached lattice

class SubspaceLattice:
    """Materialized subspace lattice of F_q^n with structure tables.

    Spaces are indexed in enumeration order, so each dimension is a run
    of consecutive ids, ascending with it, and the zero space is id 0.
    Which vectors lie in which space is held once, as ``holders[v]``,
    with bit i set for each space i containing the vector with code v
    (``holders[0]`` holds every id).  ``basis_codes[i]`` is
    ``spaces[i].codes``, the codes of space i's RREF rows, not a copy.
    The AND of the holders of some vectors holds the spaces containing
    them, and its lowest id is their span: ``above(i)`` ANDs over space
    i's basis codes on each call, a join spans both spaces' basis codes,
    ``id_of`` spans a space's own codes, and a meet spans the vectors of
    one space that the other holds.  The covering relation is held once,
    as ascending id lists ``upper[i]``, the upper covers of space i; a
    sweep that needs the hyperplanes of a space pushes its values up
    ``upper`` in id order instead, as ``minimal_ids`` does.
    ``prefix_order`` (see ``prefix_fold``) and ``sub_masks``, N^2 bits,
    are built on first use.  No table changes once built.
    """

    def __init__(self, q: int, n: int):
        self.q = q
        self.n = n
        self.spaces = list(enumerate_subspaces(q, n))
        self.dims = [S.dim for S in self.spaces]
        self.size = len(self.spaces)
        self.zero_id = 0
        self.basis_codes = [S.codes for S in self.spaces]
        self.holders = holders = [0] * (q ** n)
        for i, codes in enumerate(self.basis_codes):
            bit = 1 << i
            for v in _vector_codes(codes, q):
                holders[v] |= bit
        ids = list(range(self.size))  # one int object per id for all lists
        first = [self.dims.index(d) for d in range(n + 1)] + [self.size] * 2
        self.upper = []
        for d in range(n + 1):
            lo, hi = first[d + 1], first[d + 2]  # the ids of dimension d + 1
            layer = [(h >> lo) & ((1 << (hi - lo)) - 1) for h in holders]
            for i in ids[first[d]:lo]:
                up = reduce(operator.and_, map(layer.__getitem__, self.basis_codes[i]),
                            layer[0])
                bits, covers = bin(up)[:1:-1], []  # mask_ids inlined: a third faster
                k = bits.find("1")
                while k >= 0:
                    covers.append(ids[lo + k])
                    k = bits.find("1", k + 1)
                self.upper.append(covers)
        self.one_ids = [i for i, d in enumerate(self.dims) if d == 1]
        self._prefix_order = None
        self._sub_masks = None

    def id_of(self, S: Subspace) -> int:
        if (S.q, S.n) != (self.q, self.n):
            raise AmbientMismatch(f"{S!r} is not a subspace of F_{self.q}^{self.n}")
        return self.span_id(S.codes)

    def contains_ids(self, i: int, j: int) -> bool:
        """True iff space j <= space i: space i holds every basis code of j."""
        holders = self.holders
        return all(holders[c] >> i & 1 for c in self.basis_codes[j])

    def meet_id(self, i: int, j: int) -> int:
        """Id of the meet of spaces i and j: the span of the vectors of the
        smaller one that the other holds."""
        if self.dims[i] > self.dims[j]:
            i, j = j, i
        holders = self.holders
        return self.span_id([v for v in self.spaces[i].vector_codes()
                             if holders[v] >> j & 1])

    def join_id(self, i: int, j: int) -> int:
        return self.span_id(self.basis_codes[i] + self.basis_codes[j])

    def above(self, i: int) -> int:
        """Bitmask of the ids of the spaces containing space i."""
        return reduce(operator.and_, map(self.holders.__getitem__, self.basis_codes[i]),
                      self.holders[0])

    def span_id(self, codes: Iterable[int]) -> int:
        """Id of the span of the vectors with these codes: the lowest id
        in the AND of their holders (the zero space for no codes)."""
        up = reduce(operator.and_, map(self.holders.__getitem__, codes), self.holders[0])
        return (up & -up).bit_length() - 1

    def minimal_ids(self, mask: int) -> List[int]:
        """The ids set in ``mask`` with no other id of ``mask`` below them,
        ascending: one pass over ``upper`` in id order marks the covers of
        each id in ``mask`` or marked, so an id is marked before it is
        reached iff an id of ``mask`` lies strictly below it."""
        in_mask = bin(mask)[:1:-1].ljust(self.size, "0")  # in_mask[i]: bit i
        below = bytearray(self.size)
        for i, covers in enumerate(self.upper):
            if below[i] or in_mask[i] == "1":
                for j in covers:
                    below[j] = 1
        return [i for i in mask_ids(mask) if not below[i]]

    @property
    def prefix_order(self) -> array:
        """The ids sorted by ``basis_codes``, built on first use.

        A subset of the rows of an RREF matrix is again in RREF, so a
        space's basis codes less the last one are those of a hyperplane
        of it, its RREF hyperplane.  In this order that hyperplane comes
        before the space, and only spaces extending it lie between them.
        """
        if self._prefix_order is None:
            self._prefix_order = array(
                "i", sorted(range(self.size), key=self.basis_codes.__getitem__))
        return self._prefix_order

    def prefix_fold(self, start, step: Callable, read: Callable) -> list:
        """[read(s_i) for each id i], where s_0 = ``start`` for the zero
        space and s_i = step(s_h, c) for the RREF hyperplane h of space i
        and the last code c of its basis.

        One walk over ``prefix_order`` keeps the state of the last space
        met at each depth, at most n + 1 states: a space's RREF
        hyperplane is the last space met one level up, since only its
        own extensions lie between them.
        """
        codes = self.basis_codes
        out = [read(start)] * self.size
        stack = [start] * (self.n + 1)
        for i in itertools.islice(self.prefix_order, 1, None):  # after the zero space
            c = codes[i]
            d = len(c)
            stack[d] = s = step(stack[d - 1], c[-1])
            out[i] = read(s)
        return out

    @property
    def sub_masks(self):
        """sub_masks[i] = bitmask over ids j with space_j <= space_i (for
        the benchmark's set-up and the tests; the library never reads it)."""
        if self._sub_masks is None:
            # the subspaces of a space are itself and those of its
            # hyperplanes, whose ids are lower: in id order a space's mask
            # is complete before it is ORed into its upper covers
            masks = [1 << i for i in range(self.size)]
            for i, covers in enumerate(self.upper):
                mask = masks[i]
                for j in covers:
                    masks[j] |= mask
            self._sub_masks = masks
        return self._sub_masks


def mask_ids(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending, in one pass
    over ``bin`` of the mask without its trailing zeros: O(width) plus
    O(set bits)."""
    low = (mask & -mask).bit_length() - 1
    bits = bin(mask >> low)[:1:-1] if mask else ""  # bits[k]: bit low + k
    k = bits.find("1")
    while k >= 0:
        yield low + k
        k = bits.find("1", k + 1)


def _vector_codes(rows, q: int, scalars: Sequence[int] = ()) -> List[int]:
    """The codes of the combinations of the row codes ``rows`` over GF(q),
    listed by their coefficient codes, where digit value d stands for the
    scalar ``scalars[d - 1]``, by default d: the span of the rows.

    The combinations of the first i + 1 rows are those of the first i
    plus each multiple of row i, so each row is scaled once per scalar;
    the first of those combinations is 0, so the multiple itself comes
    first, with no addition.
    """
    add, scale = code_arithmetic(q)
    codes = [0]
    for r in rows:
        lower = codes[1:]
        for c in scalars or range(1, q):
            multiple = scale(c, r)
            codes.append(multiple)
            codes += map(add, itertools.repeat(multiple), lower)
    return codes


@lru_cache(maxsize=None)
def lattice(q: int, n: int) -> SubspaceLattice:
    """Shared lattice cache."""
    return SubspaceLattice(q, n)
