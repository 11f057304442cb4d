"""Seeded inputs: representing matrices, changes of basis and spec files.

Everything is drawn from a ``random.Random`` seeded by the benchmark's
``--seed``, and every expected answer is derived here from the model
(``model.py``) or fixed by construction, never from program output.
"""

from __future__ import annotations

import random

from model import BASE_MODULI, EXT_MODULI, ambient, ext_field, inverse, lattice
import model


class Matroid:
    """A q-matroid as the benchmark knows it: how to build it, and its model ranks.

    ``kind`` is "matrix" (``G`` rows of GF(q^m) elements), "uniform"
    (rank ``k``) or "table" (``ranks`` only).  ``ranks`` is aligned with
    the model lattice of (q, n).
    """

    def __init__(self, q, n, kind, ranks, G=None, m=None, k=None):
        self.q, self.n, self.kind = q, n, kind
        self.ranks, self.G, self.m, self.k = ranks, G, m, k

    @property
    def rank(self) -> int:
        return self.ranks[-1]


def representable(rng: random.Random, q: int, n: int, k: int, m: int) -> Matroid:
    """A random full-row-rank k x n matrix over GF(q^m) and its matroid."""
    F = ext_field(q, m)
    while True:
        G = [[rng.randrange(F.order) for _ in range(n)] for _ in range(k)]
        if F.matrix_rank(G) == k:
            break
    lat = lattice(q, n)
    return Matroid(q, n, "matrix", model.representable_ranks(q, m, G, lat), G=G, m=m)


def flagged(rng: random.Random, q: int, n: int, m: int) -> Matroid:
    """Rank 2, no loops, rank(<e1, e2>) = 2 and some 2-space of rank 1.

    Against U(q,n,2) the standard flag of such a matroid never prunes a
    GL(n,q) search, and the rank-1 2-space makes the pair non-isomorphic.
    """
    lat = lattice(q, n)
    e12 = lat.index[lat.amb.of_rows([[1, 0] + [0] * (n - 2), [0, 1] + [0] * (n - 2)])]
    while True:
        M = representable(rng, q, n, 2, m)
        if (M.ranks[e12] == 2 and all(M.ranks[i] == 1 for i in lat.one_ids)
                and model.histogram(M.ranks, lat)[(2, 1)] > 0):
            return M


def uniform(q: int, n: int, k: int) -> Matroid:
    return Matroid(q, n, "uniform", model.uniform_ranks(k, lattice(q, n)), k=k)


def table(q: int, n: int, ranks) -> Matroid:
    return Matroid(q, n, "table", list(ranks))


def random_gl(rng: random.Random, q: int, n: int):
    A = ambient(q, n)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        if A.is_invertible(rows):
            return rows


def pushforward_ranks(M: Matroid, A_rows):
    """Model ranks of the image of M under v -> vA."""
    lat = lattice(M.q, M.n)
    out = [0] * lat.size
    for i, mask in enumerate(lat.masks):
        out[lat.index[lat.amb.image(A_rows, mask, lat.amb)]] = M.ranks[i]
    return out


def pushforward(M: Matroid, A_rows) -> Matroid:
    """The image of a representable M as a matrix matroid: G' = G (A^-1)^T."""
    F = ext_field(M.q, M.m)
    Ainv = inverse(A_rows, M.q)
    G2 = []
    for g in M.G:
        row = []
        for j in range(M.n):
            acc = 0
            for gk, c in zip(g, Ainv[j]):
                acc = F.add[acc][F.mul[gk][c]]
            row.append(acc)
        G2.append(row)
    return Matroid(M.q, M.n, "matrix", pushforward_ranks(M, A_rows), G=G2, m=M.m)


def truncation(M: Matroid) -> Matroid:
    """rank(V) = min(r - 1, rank_M(V)) for M of rank r >= 1."""
    return table(M.q, M.n, [min(M.rank - 1, r) for r in M.ranks])


def differing(rng, make, other: Matroid) -> Matroid:
    """Draw from ``make`` until the (dim, rank) histogram differs from ``other``'s."""
    lat = lattice(other.q, other.n)
    want = model.histogram(other.ranks, lat)
    while True:
        M = make(rng)
        if model.histogram(M.ranks, lat) != want:
            return M


# ---------------------------------------------------------------------------
# JSON spec files, in the formats of qmatroids.jsonio

def field_dict(q: int, m: int) -> dict:
    return {"p": q, "k": 1, "m": m, "base_modulus": list(BASE_MODULI[q]),
            "ext_modulus": list(EXT_MODULI[(q, m)])}


def spec(M: Matroid) -> dict:
    if M.kind == "uniform":
        return {"q": M.q, "n": M.n, "kind": "uniform", "k": M.k}
    if M.kind == "matrix":
        F = ext_field(M.q, M.m)
        return {"q": M.q, "n": M.n, "kind": "matrix", "field": field_dict(M.q, M.m),
                "rows": [[F.coeffs(x) for x in row] for row in M.G]}
    lat = lattice(M.q, M.n)
    A = lat.amb
    return {"q": M.q, "n": M.n, "kind": "rank_table",
            "table": [[[list(A.digits[v]) for v in A.basis(mask)], M.ranks[i]]
                      for i, mask in enumerate(lat.masks)]}


def map_spec(q: int, rows) -> dict:
    return {"kind": "matrix", "q": q, "n1": len(rows), "n2": len(rows[0]),
            "rows": [list(r) for r in rows]}


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# the same matroids as qmatroids objects (in-process workloads)

def program_matrix(qm, M: Matroid):
    F = qm.make_field(M.q, 1, M.m, moduli=(BASE_MODULI[M.q], EXT_MODULI[(M.q, M.m)]))
    return qm.Mat(F, len(M.G), M.n, [x for row in M.G for x in row])


def program_matroid(qm, M: Matroid):
    """A fresh QMatroid (empty memo) for a matrix or uniform Matroid."""
    if M.kind == "uniform":
        return qm.uniform(M.q, M.n, M.k)
    return qm.from_matrix(program_matrix(qm, M))


def program_map(qm, q: int, rows):
    F = qm.ground_field(q)
    return qm.lmap_from_matrix(qm.Mat(F, len(rows), len(rows[0]),
                                      [x for r in rows for x in r]))
