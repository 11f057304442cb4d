"""Reference constructions shared by several test modules."""

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
