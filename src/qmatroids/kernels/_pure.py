"""Pure-Python kernels for the hot loops.

Rows of GF(2) matrices are packed into machine integers, bit i holding
column i.  The GL(n, q) scan works on vector codes and lattice-id
bitmasks for every q.  ``kernels/__init__`` re-exports the public
functions.
"""

from __future__ import annotations

BACKEND = "pure"


def gf2_rref(rows, ncols):
    """Reduced row echelon form of packed GF(2) rows.

    Returns (rref_rows, rank) with rref_rows sorted by pivot column and
    containing no zero rows.  Pivot of a row is its lowest set bit.
    """
    basis = {}  # pivot bit -> the reduced row holding it
    for r in rows:
        for low, b in basis.items():
            if r & low:
                r ^= b
        if r:
            low = r & -r
            for p, b in basis.items():
                if b & low:
                    basis[p] = b ^ r
            basis[low] = r
    return [basis[p] for p in sorted(basis)], len(basis)


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


def gl_iso_search(n, q, holders, candidates, checks, ranks2, add, scale):
    """Depth-first scan of GL(n, q) for a rank-preserving bijection.

    Vectors of F_q^n are base-q codes, e_(d+1) having code q^d, added and
    scaled by ``add`` and ``scale``; for even q, ``add`` must be the XOR
    of codes, as it is in characteristic 2.  holders[v] is the bitmask of
    the lattice ids of the spaces containing code v; ids ascend with
    dimension, so the span of some codes is the lowest set bit of the AND
    of their holders.

    Row d of a candidate is the image of e_(d+1), tried in the order of
    ``candidates[d]`` and skipped when it lies in the span of the earlier
    rows.  Once rows[0:d] are placed the image of every domain code below
    q^d is known: checks[d] lists the (basis codes, source rank) pairs of
    the spaces checked then, all of whose basis codes are below q^d, and
    ranks2 holds the target ranks by lattice id.

    The last row is scanned in one flat loop.  Each basis code of a space
    in checks[n] is split once into lo = code mod q^(n-1) and its top
    digit t, and a leaf computes the image of a code, image(lo) + t times
    the last row, only when a check reads it.  Every leaf is checked
    against the spaces of checks[n] in order, until the first that fails.

    Returns (rows_or_None, leaves, nodes): rows is the first witness as
    codes, leaves counts the candidates reaching depth n and nodes every
    row placed.  With every nonzero code as a candidate for every row
    and every check at depth n this is the plain scan of GL(n, q), whose
    leaves equal |GL(n, q)| when no witness exists.
    """
    everything = holders[0]
    rows = [0] * n
    # image[c]: the image of domain code c, for the codes of <e_1..e_depth>
    # with depth < n; a leaf reads a code from its split (lo, t) instead
    image = [0]
    stats = [0, 0]  # leaves, nodes
    xor = q % 2 == 0
    top = q ** (n - 1) if n else 1
    last = [([(c % top, c // top) for c in codes], rank) for codes, rank in checks[n]]
    multiples = [None] * q ** n  # multiples[v][t]: t times v, as needed

    def fits(depth):
        for codes, rank in checks[depth]:
            up = everything
            for c in codes:
                up &= holders[image[c]]
            if ranks2[(up & -up).bit_length() - 1] != rank:
                return False
        return True

    def last_row(span):
        # rows[0:n-1] are placed and span is the id of their span; each
        # candidate for rows[n-1] is a node and a leaf
        tried, found = 0, False
        for v in candidates[n - 1]:
            if holders[v] >> span & 1:
                continue
            tried += 1
            times = multiples[v]
            if times is None:
                times = multiples[v] = [scale(t, v) for t in range(q)]
            for pairs, rank in last:
                up = everything
                if xor:
                    for lo, t in pairs:
                        up &= holders[image[lo] ^ times[t]]
                else:
                    for lo, t in pairs:
                        up &= holders[add(times[t], image[lo]) if t else image[lo]]
                if ranks2[(up & -up).bit_length() - 1] != rank:
                    break
            else:  # no space failed: v completes the witness
                rows[n - 1], found = v, True
                break
        stats[0] += tried
        stats[1] += tried
        return found

    def rec(depth, up):
        # up: the ids of the spaces containing rows[0:depth], depth < n
        if not fits(depth):
            return False
        span = (up & -up).bit_length() - 1
        if depth == n - 1:
            return last_row(span)
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

    if n == 0:  # GL(0, q): the empty matrix is the one leaf
        stats[0] = 1
        found = fits(0)
    else:
        found = rec(0, everything)
    if found:
        return list(rows), stats[0], stats[1]
    return None, stats[0], stats[1]
