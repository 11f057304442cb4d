"""An independent model of F_q^n and its subspaces, for checking answers.

Nothing here imports ``qmatroids``.  A vector of F_q^n (q prime) is the
integer sum(v_i * q**i); a subspace is the bitmask of the vectors it
holds.  Spans are closures of explicit vector sets, joins are spans of
unions, meets are intersections, and matrices act on row vectors
(v -> vA).  Ranks of representable q-matroids are computed with a
separate GF(q^m) arithmetic built from the moduli below.  Counting
formulas (Gaussian binomials, |GL(n,q)|) use recurrences and products
that the program does not share.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

# Primitive moduli, little-endian and monic.  Spec files and in-process
# fields are built from these, so the model and the program agree on
# which field a coefficient vector names.
BASE_MODULI = {2: (1, 1), 3: (1, 1)}
EXT_MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (3, 2): (2, 1, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
}


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n choose k]_q by the q-Pascal rule [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    if k < 0 or k > n:
        return 0
    row = [1]  # row[j] = [i choose j]_q for the current i
    for i in range(1, n + 1):
        new = [1] * (i + 1)
        for j in range(1, i):
            new[j] = row[j - 1] + q ** j * row[j]
        row = new
    return row[k]


def gl_order(n: int, q: int) -> int:
    """|GL(n, q)| = prod_{i<n} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


# ---------------------------------------------------------------------------
# GF(q^m) as coefficient vectors over GF(q)

class ExtField:
    """GF(q^m): element sum(c_i q^i) <-> polynomial sum(c_i x^i) mod EXT_MODULI."""

    def __init__(self, q: int, m: int):
        self.q, self.m = q, m
        self.order = q ** m
        self.modulus = EXT_MODULI[(q, m)] if m > 1 else None
        size = self.order
        self.add = [[self._from(self.coeffs(a), self.coeffs(b), 1) for b in range(size)]
                    for a in range(size)]
        self.mul = [[self._mul(a, b) for b in range(size)] for a in range(size)]
        self.neg = [self._from((0,) * m, self.coeffs(a), -1) for a in range(size)]
        self.inv = [0] * size
        for a in range(1, size):
            self.inv[a] = next(b for b in range(1, size) if self.mul[a][b] == 1)

    def coeffs(self, a):
        out = []
        for _ in range(self.m):
            out.append(a % self.q)
            a //= self.q
        return out

    def _val(self, cs):
        v = 0
        for c in reversed(cs):
            v = v * self.q + c % self.q
        return v

    def _from(self, xs, ys, sign):
        return self._val([x + sign * y for x, y in zip(xs, ys)])

    def _mul(self, a, b):
        q, m = self.q, self.m
        if m == 1:
            return a * b % q
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.coeffs(a)):
            for j, y in enumerate(self.coeffs(b)):
                prod[i + j] += x * y
        for top in range(2 * m - 2, m - 1, -1):
            lead = prod[top] % q
            prod[top] = 0
            if lead:
                for i in range(m):
                    prod[top - m + i] -= lead * self.modulus[i]
        return self._val(prod[:m])

    def matrix_rank(self, rows) -> int:
        mat = [list(r) for r in rows]
        rank = 0
        ncols = len(mat[0]) if mat else 0
        for c in range(ncols):
            piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            inv = self.inv[mat[rank][c]]
            for i in range(rank + 1, len(mat)):
                f = self.mul[mat[i][c]][inv]
                if f:
                    nf = self.neg[f]
                    mat[i] = [self.add[x][self.mul[nf][y]]
                              for x, y in zip(mat[i], mat[rank])]
            rank += 1
        return rank


@lru_cache(maxsize=None)
def ext_field(q: int, m: int) -> ExtField:
    return ExtField(q, m)


# ---------------------------------------------------------------------------
# the ambient space F_q^n and its subspaces as vector bitmasks

class Ambient:
    """F_q^n with explicit vector arithmetic and span closure."""

    def __init__(self, q: int, n: int):
        self.q, self.n = q, n
        self.size = q ** n
        self.digits = [self._digits(v) for v in range(self.size)]
        self.add = [[self._enc([(x + y) % q for x, y in zip(self.digits[a], self.digits[b])])
                     for b in range(self.size)] for a in range(self.size)]
        self.scale = [[self._enc([c * x % q for x in self.digits[a]])
                       for a in range(self.size)] for c in range(q)]

    def _digits(self, v):
        out = []
        for _ in range(self.n):
            out.append(v % self.q)
            v //= self.q
        return tuple(out)

    def _enc(self, ds):
        v = 0
        for d in reversed(ds):
            v = v * self.q + d
        return v

    def encode(self, vec) -> int:
        return self._enc([int(x) % self.q for x in vec])

    def span(self, gens, mask: int = 1) -> int:
        """Bitmask of the span of ``mask``'s vectors and the encoded ``gens``."""
        for g in gens:
            if (mask >> g) & 1:
                continue
            members = self.vectors(mask)
            for c in range(1, self.q):
                w = self.scale[c][g]
                for s in members:
                    mask |= 1 << self.add[s][w]
        return mask

    def vectors(self, mask: int):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def dim(self, mask: int) -> int:
        count, d = bin(mask).count("1"), 0
        while count > 1:
            count //= self.q
            d += 1
        return d

    def basis(self, mask: int):
        """Encoded vectors spanning the subspace, chosen greedily."""
        out, cur = [], 1
        for v in self.vectors(mask):
            if not (cur >> v) & 1:
                out.append(v)
                cur = self.span(out)
        return out

    def join(self, a: int, b: int) -> int:
        return self.span(self.vectors(b), a)

    def meet(self, a: int, b: int) -> int:
        return a & b

    def of_rows(self, rows) -> int:
        return self.span([self.encode(r) for r in rows])

    def apply(self, matrix, v: int, target: "Ambient") -> int:
        """v -> vA for an n x n2 matrix given as rows over GF(q)."""
        acc = [0] * target.n
        for c, row in zip(self.digits[v], matrix):
            if c:
                acc = [(x + c * y) % self.q for x, y in zip(acc, row)]
        return target.encode(acc)

    def image(self, matrix, mask: int, target: "Ambient") -> int:
        out = 0
        for v in self.vectors(mask):
            out |= 1 << self.apply(matrix, v, target)
        return out

    def is_invertible(self, matrix) -> bool:
        full = self.size
        return bin(self.image(matrix, (1 << full) - 1, self)).count("1") == full


@lru_cache(maxsize=None)
def ambient(q: int, n: int) -> Ambient:
    return Ambient(q, n)


class Lattice:
    """Every subspace of F_q^n, found by closing spans dimension by dimension."""

    def __init__(self, q: int, n: int):
        self.amb = A = ambient(q, n)
        layer = {1}
        masks = [1]
        for _ in range(n):
            nxt = set()
            for S in layer:
                for v in range(1, A.size):
                    if not (S >> v) & 1:
                        nxt.add(A.span([v], S))
            layer = nxt
            masks += sorted(nxt)
        self.masks = masks
        self.index = {m: i for i, m in enumerate(masks)}
        self.dims = [A.dim(m) for m in masks]
        self.size = len(masks)
        self.one_ids = [i for i, d in enumerate(self.dims) if d == 1]


@lru_cache(maxsize=None)
def lattice(q: int, n: int) -> Lattice:
    return Lattice(q, n)


# ---------------------------------------------------------------------------
# rank functions on the model lattice

def representable_ranks(q: int, m: int, G, lat: Lattice):
    """rank(Y) = rank over GF(q^m) of G Y^T, with G a list of element rows."""
    F = ext_field(q, m)
    A = lat.amb
    out = []
    for mask in lat.masks:
        basis = [A.digits[v] for v in A.basis(mask)]
        if not basis:
            out.append(0)
            continue
        prod = []
        for g in G:
            row = []
            for y in basis:
                acc = 0
                for gi, yi in zip(g, y):
                    if yi:
                        acc = F.add[acc][F.mul[gi][yi]]
                row.append(acc)
            prod.append(row)
        out.append(F.matrix_rank(prod))
    return out


def uniform_ranks(k: int, lat: Lattice):
    return [min(k, d) for d in lat.dims]


def completion_ranks(tau, lat: Lattice):
    """min over X <= V of tau(X) + dim V - dim X, by brute force."""
    out = []
    for i, mask in enumerate(lat.masks):
        dv = lat.dims[i]
        best = tau[i]
        for j, x in enumerate(lat.masks):
            if x & mask == x:
                best = min(best, tau[j] + dv - lat.dims[j])
        out.append(best)
    return out


def flats(ranks, lat: Lattice):
    """Model ids of the flats: adding any outside 1-space raises the rank."""
    A = lat.amb
    out = set()
    for i, mask in enumerate(lat.masks):
        if all(ranks[lat.index[A.join(mask, lat.masks[x])]] > ranks[i]
               for x in lat.one_ids if lat.masks[x] & mask != lat.masks[x]):
            out.add(i)
    return out


def circuits(ranks, lat: Lattice):
    """Model ids of the inclusion-minimal dependent spaces."""
    dep = [i for i in range(lat.size) if ranks[i] < lat.dims[i]]
    out = set()
    for i in dep:
        m = lat.masks[i]
        if not any(j != i and lat.masks[j] & m == lat.masks[j] for j in dep):
            out.add(i)
    return out


def histogram(ranks, lat: Lattice) -> Counter:
    """Multiset of (dim, rank) pairs."""
    return Counter(zip(lat.dims, ranks))


def rank_preserved(matrix, ranks1, ranks2, lat: Lattice) -> bool:
    """Does v -> vA send every subspace to one of the same rank?"""
    A = lat.amb
    if not A.is_invertible(matrix):
        return False
    return all(ranks2[lat.index[A.image(matrix, mask, A)]] == ranks1[i]
               for i, mask in enumerate(lat.masks))


def inverse(matrix, q: int):
    """Inverse of an invertible n x n matrix over GF(q), by Gauss-Jordan."""
    n = len(matrix)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(matrix)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] % q)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], q - 2, q)
        aug[c] = [x * inv % q for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % q for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def violates(axiom: str, masks, table, amb: Ambient) -> bool:
    """Recompute a reported R1/R2/R3 violation on a rank table keyed by mask."""
    if axiom == "R1":
        (S,) = masks
        return not 0 <= table[S] <= amb.dim(S)
    if axiom == "R2":
        A, B = masks
        return A & B == A and table[A] > table[B]
    if axiom == "R3":
        A, B = masks
        return table[amb.join(A, B)] + table[amb.meet(A, B)] > table[A] + table[B]
    return False
