"""Reference constructions shared by several test modules."""

import itertools
import os
import subprocess
import sys
from functools import lru_cache

from qmatroids import Mat, fields, ground_field, lmap_from_matrix


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(*args, timeout=120):
    """A fresh interpreter with the package's sources on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def reference_rref(rows, q, n):
    """Unique RREF of rows of F_q^n by Gauss-Jordan elimination on digit
    lists: (rows as tuples, rank), no zero rows."""
    F = ground_field(q)
    mat = [list(r) for r in rows]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = F.base_inv(mat[r][c])
        mat[r] = [F.base_mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [F.base_add(x, F.base_neg(F.base_mul(f, y)))
                          for x, y in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r]), r


def reference_subspaces(q, n):
    """The RREF bases of the subspaces of F_q^n, as tuples of digit tuples
    built entry by entry: by dimension, then pivot-column set in colex
    order, then lexicographically on the free entries."""
    for k in range(n + 1):
        for pivots in sorted(itertools.combinations(range(n), k),
                             key=lambda t: tuple(reversed(t))):
            free_pos = [(i, j) for i in range(k)
                        for j in range(pivots[i] + 1, n) if j not in pivots]
            for values in itertools.product(range(q), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, j), v in zip(free_pos, values):
                    rows[i][j] = v
                yield tuple(tuple(r) for r in rows)


def reference_combination(coeffs, rows, q):
    """The combination of the digit tuples ``rows`` with these
    coefficients, by digit-list arithmetic."""
    F = ground_field(q)
    v = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        v = [F.base_add(x, F.base_mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def vec_add(u, v, F):
    """The sum of two digit tuples over the ground field F, digit by digit."""
    return tuple(F.base_add(a, b) for a, b in zip(u, v))


def vec_scale(c, v, F):
    """The scalar c times a digit tuple over the ground field F, digit by digit."""
    return tuple(F.base_mul(c, x) for x in v)


def vector_at(S, coeffs):
    """The combination of the basis rows of S with these coefficients, as
    a digit tuple, by digit-list arithmetic."""
    return reference_combination(coeffs, S.basis, S.q) if S.dim else (0,) * S.n


def poly_mul(a, b, zero, add, mul):
    """a * b for coefficient tuples over a ring given by its zero and
    operations, as a list."""
    res = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            res[i + j] = add(res[i + j], mul(x, y))
    return res


def _poly_mulmod(a, b, mod, zero, add, mul, neg):
    """a * b mod the monic polynomial ``mod``, for coefficient tuples a and b
    of length deg(mod) over a ring given by its zero and operations."""
    res = poly_mul(a, b, zero, add, mul)
    d = len(mod) - 1
    while len(res) > d:
        lead, top = res.pop(), len(res) - d
        for i in range(d):
            res[top + i] = add(res[top + i], neg(mul(lead, mod[i])))
    return tuple(res)


class ReferenceField:
    """GF((p^k)^m) by polynomial arithmetic, on the indices of the FieldSpec
    F and with its moduli.  An element is m coefficients over GF(q), each k
    digits over F_p: the base-p digits of its index.  Sums add digits mod p;
    products are reduced mod ``base_modulus`` over F_p, then mod
    ``ext_modulus`` over GF(q)."""

    def __init__(self, F):
        self.p, self.k, self.m, self.order = F.p, F.k, F.m, F.order
        p, k = F.p, F.k
        self.digits = [tuple(v // p ** i % p for i in range(k * F.m))
                       for v in range(F.order)]
        self.index = {d: v for v, d in enumerate(self.digits)}

        def badd(a, b):
            return tuple((x + y) % p for x, y in zip(a, b))

        @lru_cache(maxsize=None)
        def bmul(a, b):
            return _poly_mulmod(a, b, F.base_modulus, 0, lambda x, y: (x + y) % p,
                                lambda x, y: x * y % p, lambda x: -x % p)

        self._base = (badd, bmul, lambda a: tuple(-x % p for x in a))
        self._ext = [self._coeffs(c)[0] for c in F.ext_modulus]

    def _coeffs(self, v):
        d, k = self.digits[v], self.k
        return tuple(d[i * k:(i + 1) * k] for i in range(self.m))

    def add(self, a, b):
        return self.index[tuple((x + y) % self.p
                                for x, y in zip(self.digits[a], self.digits[b]))]

    def neg(self, a):
        return self.index[tuple(-x % self.p for x in self.digits[a])]

    def mul(self, a, b):
        cs = _poly_mulmod(self._coeffs(a), self._coeffs(b), self._ext, (0,) * self.k,
                          *self._base)
        return self.index[tuple(d for c in cs for d in c)]

    def products(self, a):
        """[a * b for b in range(order)]: ``mul`` by the k*m basis elements
        p**j (x^t omega^i for j = i*k + t), the rest by sums in index order."""
        out = [0]
        for j in range(self.k * self.m):
            step = self.mul(a, self.p ** j)
            lower, term = out[:], 0
            for _ in range(self.p - 1):
                term = self.add(term, step)
                out += [self.add(term, x) for x in lower]
        return out

    def pow(self, a, e):
        """a^e for e >= 0, by square and multiply."""
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a, e = self.mul(a, a), e >> 1
        return out


def reference_default_ext_poly(ops, q, m):
    """The least primitive monic degree-m polynomial over the field of order
    q with operations ``ops`` = (add, mul, neg), by the direct search:
    candidates in the order of ``fields._default_ext_poly``, each tested for
    irreducibility by trial division, then for x stepping through all
    q^m - 1 nonzero residues before it returns to 1."""
    _, mul, neg = ops
    for tail in itertools.product(range(q), repeat=m):
        cand = list(tail) + [1]
        if cand[0] == 0 or not fields._poly_is_irreducible(cand, q, ops):
            continue
        if m == 1:
            x, order = neg(cand[0]), 1
            while x != 1 and order < q:
                x, order = mul(x, neg(cand[0])), order + 1
        else:
            one = [1] + [0] * (m - 1)
            x = cur = [0, 1] + [0] * (m - 2)
            order = 1
            while cur != one and order < q ** m:
                cur, order = fields._poly_mulmod(cur, x, cand, ops), order + 1
        if order == q ** m - 1:
            return tuple(cand)
    return None


def frobenius_fixed(a):
    """Cross-check for in_base_field: a is in GF(q) iff a^q = a."""
    return a.spec.pow(a.val, a.spec.q) == a.val


def map_to_dict(phi):
    """The JSON spec of an L-map that ``jsonio.map_from_dict`` reads: its
    matrix when it is linear, else its table of nonzero images."""
    if phi.is_linear:
        A = phi.linear_matrix
        return {"kind": "matrix", "q": phi.q, "n1": phi.n1, "n2": phi.n2,
                "rows": [list(A.row(i)) for i in range(A.rows)]}
    return {"kind": "table", "q": phi.q, "n1": phi.n1, "n2": phi.n2,
            "images": list(phi.table[1:])}


def reference_gl_iso_search(n, q, holders, candidates, checks, ranks2, add, scale,
                            lacking=()):
    """The GL(n, q) scan of ``kernels.gl_iso_search``, one recursive call
    per row down to the leaves: each placed row extends the image of
    every code of <e_1..e_depth>, and a leaf is checked on the full image
    table, against the checks of ``lacking`` as well.  Same arguments and
    results: (rows_or_None, leaves, nodes)."""
    everything = holders[0]
    rows = [0] * n
    image = [0]
    stats = [0, 0]  # leaves, nodes

    def fits(spaces):
        for codes, rank in spaces:
            up = everything
            for c in codes:
                up &= holders[image[c]]
            if ranks2[(up & -up).bit_length() - 1] != rank:
                return False
        return True

    def rec(depth, up):
        if depth == n:
            stats[0] += 1
            return fits(checks[depth]) and fits(lacking)
        if not fits(checks[depth]):
            return False
        span = (up & -up).bit_length() - 1
        for v in candidates[depth]:
            if holders[v] >> span & 1:
                continue
            stats[1] += 1
            rows[depth] = v
            base = len(image)
            for a in range(1, q):
                av = scale(a, v)
                image.extend([add(av, w) for w in image[:base]])
            found = rec(depth + 1, up & holders[v])
            del image[base:]
            if found:
                return True
        return False

    if rec(0, everything):
        return list(rows), stats[0], stats[1]
    return None, stats[0], stats[1]


def quotient_map(X):
    """The projection of F_q^n onto the quotient by X, in coordinates.

    The quotient coordinates are indexed by the non-pivot columns of X's
    RREF basis; the kernel of the returned linear map is exactly X.
    Returns (LMap, quotient_dim).
    """
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
    return lmap_from_matrix(A), len(nonpiv)
