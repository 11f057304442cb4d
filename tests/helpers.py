"""Reference constructions shared by several test modules."""

import itertools

from qmatroids import Mat, ground_field, lmap_from_matrix


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


def vector_at(S, coeffs):
    """The combination of the basis rows of S with these coefficients, as
    a digit tuple, by digit-list arithmetic."""
    return reference_combination(coeffs, S.basis, S.q) if S.dim else (0,) * S.n


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


def reference_gl_iso_search(n, q, holders, candidates, checks, ranks2, add, scale):
    """The GL(n, q) scan of ``kernels.gl_iso_search``, one recursive call
    per row down to the leaves: each placed row extends the image of
    every code of <e_1..e_depth>, and a leaf is checked on the full image
    table.  Same arguments and results: (rows_or_None, leaves, nodes)."""
    everything = holders[0]
    rows = [0] * n
    image = [0]
    stats = [0, 0]  # leaves, nodes

    def fits(depth):
        for codes, rank in checks[depth]:
            up = everything
            for c in codes:
                up &= holders[image[c]]
            if ranks2[(up & -up).bit_length() - 1] != rank:
                return False
        return True

    def rec(depth, up):
        if depth == n:
            stats[0] += 1
            return fits(depth)
        if not fits(depth):
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
