"""Pure-Python kernels for the hot loops.

Rows of GF(2) matrices are packed into machine integers, bit i holding
column i.  The GL(n, q) scan works on vector codes and lattice-id
bitmasks, and the factoring search on tables of codes, for every q.
``kernels/__init__`` re-exports the public functions.
"""

from __future__ import annotations

from operator import itemgetter

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


def factor_search(fixed, order, value_order, checks, holds):
    """Backtracking search for a completion of ``fixed`` passing every check.

    ``fixed`` holds a value per code, -1 at the free slots, which are set
    in ``order`` to each value of ``value_order`` in turn.  ``checks`` are
    tuples of two or more codes, and ``holds`` decides one from the tuple
    of its codes' values, at the slot where its last free code is set; one
    with no free code before the search, returning (None, 0) if it fails.
    Returns (the first completion or None, nodes): nodes counts every value
    tried, so an exhausted search certifies that no completion exists.
    """
    table = list(fixed)
    slot = [-1] * len(table)  # slot[c]: the depth at which code c is set
    for d, v in enumerate(order):
        slot[v] = d
    at = [[] for _ in order]  # at[d]: the checks decided once order[d] is set
    for codes in checks:
        values = itemgetter(*codes)
        last = max(map(slot.__getitem__, codes))
        if last >= 0:
            at[last].append(values)
        elif not holds(values(table)):
            return None, 0
    nodes = 0

    def rec(d):
        nonlocal nodes
        if d == len(order):
            return True
        v = order[d]
        for val in value_order:
            nodes += 1
            table[v] = val
            for values in at[d]:
                if not holds(values(table)):
                    break
            else:
                if rec(d + 1):
                    return True
        table[v] = -1
        return False

    if rec(0):
        return table, nodes
    return None, nodes


def flag_depth(codes, q):
    """The least d with every code below q^d: the space spanned by the
    vectors with these codes lies in <e_1..e_d>."""
    top, d = max(codes, default=0), 0
    while top >= q ** d:
        d += 1
    return d


def gl_iso_search(n, q, holders, candidates, checks, ranks2, add, scale, lacking=()):
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
    ranks2 holds the target ranks by lattice id.  A node that fails a
    check of checks[d], d < n, is pruned: its leaves are not counted.

    Every leaf is checked against the spaces of checks[n] in order, until
    the first that fails.  The last row is scanned in one flat loop.
    Each basis code of a space that reads it is split once into
    lo = code mod q^(n-1) and its top digit t, and a leaf computes the
    image of a code, image(lo) + t times the last row, only when a check
    reads it.

    A plain scan is a call whose checks[0:n] are all empty.  There a
    node-fixed check, for a space whose basis codes all lie below q^d,
    d < n, holds at every leaf below a node placing rows[0:d] or at none.
    The leading run of such checks in checks[n], those before the first
    that reads the last row, is decided as each node of their depth is
    entered, and a node that fails one has its subtree counted by span
    tests alone instead of walked; every later check is a leaf check.

    A matrix maps a d-space onto a d-space, so a check (codes, rank)
    fails at every leaf when no space of the target of its dimension,
    len(codes), has that rank: its verdict is fixed at the root, depth 0.
    ``lacking`` lists such checks, apart from ``checks``.  When there is
    one the root fails: a plain scan counts the whole tree and a pruned
    one visits nothing.

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
    plain = not any(checks[:n])
    enter = [list(spaces) for spaces in checks[:n]]  # decided as a node is entered
    leaf = []  # (split codes, rank) per leaf check
    for codes, rank in checks[n]:
        d = flag_depth(codes, q) if plain else n
        if d < n and not leaf:  # the leading run of node-fixed checks
            enter[d].append((codes, rank))
        else:
            leaf.append(([(c % top, c // top) for c in codes], rank))
    multiples = [None] * q ** n  # multiples[v][t]: t times v, as needed
    below = {}  # span id -> (leaves, nodes) of the subtree under its node

    def holds(spaces):
        for codes, rank in spaces:
            up = everything
            for c in codes:
                up &= holders[image[c]]
            if ranks2[(up & -up).bit_length() - 1] != rank:
                return False
        return True

    def count(depth, up):
        # leaves and nodes below a node whose rows span the lowest id of up;
        # the rows are independent, so that span's dimension is depth
        span = (up & -up).bit_length() - 1
        got = below.get(span)
        if got is None:
            free = [v for v in candidates[depth] if not holders[v] >> span & 1]
            if depth == n - 1:
                got = (len(free), len(free))
            else:
                leaves, nodes = 0, len(free)
                for v in free:
                    sub_leaves, sub_nodes = count(depth + 1, up & holders[v])
                    leaves += sub_leaves
                    nodes += sub_nodes
                got = (leaves, nodes)
            below[span] = got
        return got

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
            for pairs, rank in leaf:
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
        # up: the ids of the spaces containing rows[0:depth], depth < n;
        # None when the node fails a check of enter[depth]
        if not holds(enter[depth]):
            return None
        span = (up & -up).bit_length() - 1
        if depth == n - 1:
            return last_row(span)
        base = len(image)
        for v in candidates[depth]:
            if holders[v] >> span & 1:
                continue
            stats[1] += 1
            rows[depth] = v
            if q == 2:
                image.extend([v ^ w for w in image])
            else:
                for a in range(1, q):
                    av = scale(a, v)
                    image.extend([add(av, w) for w in image[:base]])
            found = rec(depth + 1, up & holders[v])
            if found is None and plain:  # no leaf below the node holds
                sub_leaves, sub_nodes = count(depth + 1, up & holders[v])
                stats[0] += sub_leaves
                stats[1] += sub_nodes
            del image[base:]
            if found:
                return True
        return False

    if n == 0:  # GL(0, q): the empty matrix is the one leaf
        stats[0] = 1
        found = not lacking and holds(checks[0])
    else:
        found = None if lacking else rec(0, everything)
        if found is None and plain:
            stats[:] = count(0, everything)
    # rec and count call themselves through this scope: dropping them frees
    # this call's tables now instead of at the next full collection
    rec = count = None
    if found:
        return list(rows), stats[0], stats[1]
    return None, stats[0], stats[1]
