"""search: isomorphism and factoring searches in one interpreter.

The lattices are tiny here (at most 212 spaces), so the GL scans and the
backtracking kernels do almost all the work.  Invariant pruning or kernel
work shows on this workload and almost nowhere else.
"""

from __future__ import annotations

import random

import gen
import model
from harness import Op, expect

# pruned searches on isomorphic pairs: (q, n, k, m, pairs per round).
ISO_PAIRS = [(2, 4, 2, 2, 4), (3, 3, 1, 3, 4)]
# (3,4) pairs have the loop space <e1, e2>, which the standard flag meets
# first, so the pruned search cost does not depend on the seed.  Random
# (3,4) matroids are left out: on them the pruned search took from 0.01 s
# to over 5 s, depending on the seed.
LOOPED_34 = 3
FACTOR_PERMS = 3


class Workload:
    setup_reps = 15

    def __init__(self, seed: int, qm):
        self.qm = qm
        rng = random.Random(seed)
        lat24 = model.lattice(2, 4)
        # N^(1), N^(2): rows (1, w, 0, 0), (0, 0, 1, w^i) over GF(16), w = x
        F16 = model.ext_field(2, 4)
        w2 = F16.mul[2][2]
        self.n1 = gen.Matroid(2, 4, "matrix", model.representable_ranks(
            2, 4, [[1, 2, 0, 0], [0, 0, 1, 2]], lat24))
        self.n2 = gen.Matroid(2, 4, "matrix", model.representable_ranks(
            2, 4, [[1, 2, 0, 0], [0, 0, 1, w2]], lat24))
        u24 = gen.uniform(2, 4, 2)
        # unpruned: a random rank-2 (2,4) matroid against U(2,4,2)
        self.cert_pair = (gen.differing(
            rng, lambda r: gen.representable(r, 2, 4, 2, 4), u24), u24)
        # pruned, not isomorphic: M with flag ranks (1, 2, 2) and a rank-1
        # 2-space against U(3,3,2); the flag never prunes, so today's search
        # visits every leaf of GL(3,3)
        u33 = gen.uniform(3, 3, 2)
        self.generic_pairs = [(gen.flagged(rng, 3, 3, 3), u33) for _ in range(2)]
        self.iso_pairs = []
        for q, n, k, m, count in ISO_PAIRS:
            for _ in range(count):
                M = gen.representable(rng, q, n, k, m)
                A = gen.random_gl(rng, q, n)
                self.iso_pairs.append((M, A, gen.pushforward_ranks(M, A)))
        for _ in range(LOOPED_34):
            M = self._looped_34(rng)
            A = gen.random_gl(rng, 3, 4)
            self.iso_pairs.append((M, A, gen.pushforward_ranks(M, A)))
        self.perms = []
        for _ in range(FACTOR_PERMS):
            perm = list(range(9))
            rng.shuffle(perm)
            self.perms.append(perm)

    @staticmethod
    def _looped_34(rng):
        """Rank 1 on F_3^4 from G = (0, 0, a, b), a and b independent over GF(3)."""
        F = model.ext_field(3, 4)
        while True:
            a, b = rng.randrange(1, F.order), rng.randrange(1, F.order)
            if all(b != F.mul[c][a] for c in range(3)):
                break
        G = [[0, 0, a, b]]
        return gen.Matroid(3, 4, "matrix", model.representable_ranks(
            3, 4, G, model.lattice(3, 4)), G=G, m=4)

    def setup_steps(self):
        """Fresh lattices and program matroids, with the rank vector of each."""
        return [self.fresh, self.rank_vectors, self.factor_lattices]

    def fresh(self):
        qm = self.qm
        qm.lattice.cache_clear()
        fresh = lambda M: gen.program_matroid(qm, M)  # noqa: E731
        self.p_n = (qm.repro.blockdiag_matroid(2, 4, 1), qm.repro.blockdiag_matroid(2, 4, 2))
        self.p_cert = tuple(fresh(M) for M in self.cert_pair)
        self.p_generic = [(fresh(M), fresh(U)) for M, U in self.generic_pairs]
        self.p_iso = []
        for M, A, _ in self.iso_pairs:
            P = fresh(M)
            self.p_iso.append((P, qm.pushforward(P, gen.program_map(qm, M.q, A))))

    def rank_vectors(self):
        for P1, P2 in [self.p_n, self.p_cert, *self.p_generic, *self.p_iso]:
            P1.rank_vector()
            P2.rank_vector()

    def factor_lattices(self):
        """The lattices and joins of the factoring item's maps F_2^2 -> F_2^3."""
        for n in (2, 3):
            self.qm.check_rank_axioms(self.qm.uniform(2, n, 1))

    def ops(self):
        out = []
        n1, n2 = self.n1, self.n2
        lat24 = model.lattice(2, 4)
        h1, h2 = model.histogram(n1.ranks, lat24), model.histogram(n2.ranks, lat24)
        expect_counts = (h1[(2, 1)], h2[(2, 1)]) == (3, 2)
        for _ in range(2):
            out.append(self.iso_op("unpruned N1 N2", *self.p_n, n1, n2, prune=False,
                                   expect_iso=False, extra=expect_counts))
        out.append(self.iso_op("unpruned (2,4) vs U", *self.p_cert, *self.cert_pair,
                               prune=False, expect_iso=False))
        for (P1, P2), (M, U) in zip(self.p_generic, self.generic_pairs):
            out.append(self.iso_op("pruned (3,3) vs U", P1, P2, M, U, prune=True,
                                   expect_iso=False))
        for (P1, P2), (M, A, ranks2) in zip(self.p_iso, self.iso_pairs):
            out.append(self.iso_op(f"pruned iso ({M.q},{M.n})", P1, P2, M,
                                   gen.table(M.q, M.n, ranks2), prune=True,
                                   expect_iso=True))
        for perm in self.perms:
            out.append(self.factor_op(perm))
        return out

    def iso_op(self, name, P1, P2, M1, M2, prune, expect_iso, extra=True):
        """An unpruned scan visits every leaf of GL(n,q); how many of them a
        pruned search visits is its own affair, as long as it is not more."""
        qm = self.qm
        lat = model.lattice(M1.q, M1.n)
        gl = model.gl_order(M1.n, M1.q)

        def run():
            stats = {}
            return qm.is_isomorphic(P1, P2, prune=prune, stats=stats), stats

        def check(answer):
            witness, stats = answer
            expect(extra, "input property fixed by construction does not hold")
            expect((witness is not None) == expect_iso,
                   f"verdict {witness is not None}, expected {expect_iso}")
            if prune:
                expect(stats.get("leaves", 0) <= gl,
                       f"{stats.get('leaves')} leaves, more than |GL| = {gl}")
            else:
                expect(stats.get("leaves") == gl,
                       f"{stats.get('leaves')} leaves, expected |GL| = {gl}")
            if expect_iso:
                A = witness.linear_matrix
                rows = [list(A.row(i)) for i in range(A.rows)]
                expect(model.rank_preserved(rows, M1.ranks, M2.ranks, lat),
                       f"witness {rows} does not preserve every rank")
            else:
                expect(model.histogram(M1.ranks, lat) != model.histogram(M2.ranks, lat),
                       "non-isomorphic pair with equal (dim, rank) histograms")

        return Op(name, run, check)

    def factor_op(self, perm):
        qm = self.qm
        # free slots: vectors of F_2^4 outside both embedded copies of F_2^2,
        # each with 2^3 possible images in F_2^3
        free = 2 ** 4 - 2 * 2 ** 2 + 1
        space = (2 ** 3) ** free

        def run():
            return qm.repro.verify_thm_nonlinear_noncoproduct(2, branch_perm=perm)

        def check(rep):
            expect(rep.passed, f"thm-4-6 failed: {rep.checks}")
            expect(rep.counters.get("free_slots") == free
                   and rep.counters.get("assignment_space") == space,
                   f"counters {rep.counters}")

        return Op("factor search", run, check)
