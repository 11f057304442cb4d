"""Pure-Python kernels for the GF(2) hot loops.

Rows of GF(2) matrices are packed into machine integers, bit i holding
column i.  ``kernels/__init__`` re-exports the public functions.
"""

from __future__ import annotations

BACKEND = "pure"


def gf2_rref(rows, ncols):
    """Reduced row echelon form of packed GF(2) rows.

    Returns (rref_rows, rank) with rref_rows sorted by pivot column and
    containing no zero rows.  Pivot of a row is its lowest set bit.
    """
    basis = []  # kept sorted by pivot column
    for r in rows:
        for b in basis:
            low = b & -b
            if r & low:
                r ^= b
        if r:
            low = r & -r
            for i, b in enumerate(basis):
                if b & low:
                    basis[i] = b ^ r
            basis.append(r)
            basis.sort(key=lambda x: x & -x)
    return basis, len(basis)


def gf2_key(rows, ncols):
    """Canonical integer key of an RREF row list (rows already reduced)."""
    key = 0
    for i, r in enumerate(rows):
        key |= r << (i * ncols)
    return key


def gf2_lmap_violation(table, dim_domain):
    """First 2-space of F_2^dim_domain whose image set is not XOR-closed.

    ``table`` maps packed domain vectors to packed codomain vectors and
    must satisfy table[0] == 0.  Returns the violating triple (a, b, a^b)
    or None.  Checking 1- and 2-spaces suffices: the image of any subspace
    is the union of the images of the 2-spaces through pairs of its
    vectors, so pairwise closure propagates upward.
    """
    size = 1 << dim_domain
    for a in range(1, size):
        ta = table[a]
        for b in range(a + 1, size):
            c = a ^ b
            if c < b:
                continue
            tb, tc = table[b], table[c]
            x = ta ^ tb
            if x and x != tc and x != ta and x != tb:
                return (a, b, c)
            x = ta ^ tc
            if x and x != tb and x != ta and x != tc:
                return (a, b, c)
            x = tb ^ tc
            if x and x != ta and x != tb and x != tc:
                return (a, b, c)
    return None


def _triple_ok(s1, s2, s3):
    x = s1 ^ s2
    if x and x != s3 and x != s1 and x != s2:
        return False
    x = s1 ^ s3
    if x and x != s2 and x != s1 and x != s3:
        return False
    x = s2 ^ s3
    if x and x != s1 and x != s2 and x != s3:
        return False
    return True


def gf2_factor_search(fixed, dim_domain, order, value_order):
    """Backtracking search for a subspace-preserving completion of ``fixed``.

    ``fixed`` has one entry per packed domain vector: the prescribed image,
    or -1 for the slots listed in ``order``.  Values are tried in
    ``value_order``.  A completion is valid when the image set of every
    2-space of the domain is XOR-closed (which makes the full map an
    L-map).  Returns (table_or_None, nodes) where nodes counts tried
    assignments; an exhausted search with result None is a certificate
    that no completion exists.
    """
    size = 1 << dim_domain
    table = list(fixed)
    # triples (a, b, c=a^b) with a < b < c, precomputed per slot
    triples = []
    for a in range(1, size):
        for b in range(a + 1, size):
            c = a ^ b
            if c > b:
                triples.append((a, b, c))
    by_slot = {v: [] for v in order}
    for t in triples:
        for v in t:
            if v in by_slot:
                by_slot[v].append(t)
    # a fixed-only violation rules out every completion
    for a, b, c in triples:
        if table[a] >= 0 and table[b] >= 0 and table[c] >= 0:
            if not _triple_ok(table[a], table[b], table[c]):
                return None, 0

    nodes = 0
    depth = len(order)

    def rec(d):
        nonlocal nodes
        if d == depth:
            return True
        v = order[d]
        for val in value_order:
            nodes += 1
            table[v] = val
            ok = True
            for a, b, c in by_slot[v]:
                ta, tb, tc = table[a], table[b], table[c]
                if ta >= 0 and tb >= 0 and tc >= 0 and not _triple_ok(ta, tb, tc):
                    ok = False
                    break
            if ok and rec(d + 1):
                return True
        table[v] = -1
        return False

    if rec(0):
        return table, nodes
    return None, nodes


def gl2_iso_search(n, space_rows, space_dims, ranks1, rank2_by_key,
                   flag_ranks1, prune):
    """Exhaustive scan of GL(n, 2) for a rank-preserving bijection.

    space_rows: flat list, subspace i occupies entries [i*n, (i+1)*n) as
        packed RREF rows padded with zeros; space_dims its dimensions;
        ranks1 the source matroid ranks in the same order.
    rank2_by_key: target ranks keyed by the gf2_key of the canonical
        basis of every subspace of F_2^n.
    flag_ranks1: ranks1 of <e_1..e_j> for j = 1..n, used for flag pruning.

    Returns (rows_or_None, leaves, nodes): rows is a witness matrix (row i
    is the image of e_i), leaves counts full-depth candidates checked and
    nodes all partial extensions.  With prune=False, leaves equals
    |GL(n,2)| when no witness exists.
    """
    size = 1 << n
    nspaces = len(space_dims)
    rows = [0] * n
    stats = [0, 0]  # leaves, nodes

    def span_reduce(v, basis):
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        return v

    def rec(depth, basis):
        # basis: current rref of rows[0:depth]
        if depth == n:
            stats[0] += 1
            for i in range(nspaces):
                d = space_dims[i]
                img = []
                for j in range(d):
                    b = space_rows[i * n + j]
                    w = 0
                    t = b
                    while t:
                        low = t & -t
                        w ^= rows[low.bit_length() - 1]
                        t ^= low
                    img.append(w)
                rr, _ = gf2_rref(img, n)
                if rank2_by_key[gf2_key(rr, n)] != ranks1[i]:
                    return False
            return True
        for v in range(1, size):
            if span_reduce(v, basis) == 0:
                continue
            stats[1] += 1
            rows[depth] = v
            nb, _ = gf2_rref(basis + [v], n)
            if prune:
                if rank2_by_key[gf2_key(nb, n)] != flag_ranks1[depth]:
                    continue
            if rec(depth + 1, nb):
                return True
        return False

    if rec(0, []):
        return list(rows), stats[0], stats[1]
    return None, stats[0], stats[1]
