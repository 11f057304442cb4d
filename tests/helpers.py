"""Reference constructions shared by several test modules."""

from qmatroids import Mat, ground_field, lmap_from_matrix


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
