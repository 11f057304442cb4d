"""session: one interpreter working through a seeded stream of q-matroids.

This is the notebook pattern.  Lattices and join caches are shared and
warm, so rank oracles, closure and flats, circuits, submodular completion
and map classification dominate instead of cold joins.
"""

from __future__ import annotations

import random

import gen
import model
from harness import Op, expect

AMBIENTS = [(2, 5), (3, 4)]
# summand ambients of the direct sums, and of their contractions
SUMMANDS = [(2, 2), (2, 3), (2, 4)]
# representable matroids per round: (q, n, k, m)
REPRESENTABLE = [(2, 5, 2, 5), (2, 5, 3, 4), (2, 5, 3, 3), (3, 4, 2, 4), (3, 4, 2, 2)]
# direct sums into (2,6): summand ambients and ranks, (n1, k1, n2, k2)
SUMS = [(3, 2, 3, 1), (2, 1, 4, 2)]


class Workload:
    setup_reps = 5

    def __init__(self, seed: int, qm):
        self.qm = qm
        rng = random.Random(seed)
        self.matroids = [gen.representable(rng, *cfg) for cfg in REPRESENTABLE]
        self.uniforms = [gen.uniform(q, n, rng.randint(1, n)) for q, n in AMBIENTS]
        self.completions = []
        for q, n in AMBIENTS:
            A = gen.representable(rng, q, n, 1, n)
            B = gen.representable(rng, q, n, 2, n)
            tau = [a + b for a, b in zip(A.ranks, B.ranks)]
            self.completions.append((A, B, model.completion_ranks(tau, model.lattice(q, n))))
        self.perturbed = [self._perturb(rng, M) for M in (self.matroids[0], self.matroids[3])]
        self.maps = []
        for M in (self.matroids[1], self.matroids[4]):
            self.maps.append(("pushforward", M, gen.random_gl(rng, M.q, M.n)))
            self.maps.append(("truncation", M, gen.identity(M.n)))
        self.sums = [(gen.representable(rng, 2, n1, k1, n1), gen.representable(rng, 2, n2, k2, n2))
                     for n1, k1, n2, k2 in SUMS]
        self._ids = {}

    @staticmethod
    def _perturb(rng, M):
        """Raise rank(S) above rank(S + x), or above dim S: R2 or R1 must fail."""
        lat = model.lattice(M.q, M.n)
        A = lat.amb
        i = rng.choice([j for j in range(lat.size) if 1 <= lat.dims[j] < M.n])
        S = lat.masks[i]
        x = rng.choice([v for v in range(1, A.size) if not (S >> v) & 1])
        U = lat.index[A.span([x], S)]
        ranks = list(M.ranks)
        ranks[i] = M.ranks[U] + 1 if M.ranks[U] + 1 <= lat.dims[i] else lat.dims[i] + 1
        return M, ranks

    def setup_steps(self):
        """Fresh lattices with sub_masks, and one axiom sweep per ambient to warm joins."""
        qm = self.qm
        steps = [self.fresh]
        steps += [lambda q=q, n=n: qm.lattice(q, n).sub_masks
                  for q, n in AMBIENTS + SUMMANDS + [(2, 6)]]
        steps += [lambda q=q, n=n: qm.check_rank_axioms(qm.uniform(q, n, 1))
                  for q, n in AMBIENTS + SUMMANDS]
        return steps + [self.perturbed_tables]

    def fresh(self):
        qm = self.qm
        qm.lattice.cache_clear()
        self.p_mats = {id(M): gen.program_matrix(qm, M)
                       for M in self.matroids + [m for c in self.completions for m in c[:2]]
                       + [m for pair in self.sums for m in pair]}

    def perturbed_tables(self):
        self.p_tables = []
        for M, ranks in self.perturbed:
            ids = self.model_ids(M.q, M.n)
            self.p_tables.append({S: ranks[ids[i]]
                                  for i, S in enumerate(self.qm.lattice(M.q, M.n).spaces)})

    def model_ids(self, q, n):
        """Model lattice id of each program lattice space, in program order."""
        if (q, n) not in self._ids:
            lat = model.lattice(q, n)
            self._ids[(q, n)] = [lat.index[lat.amb.of_rows(S.basis)]
                                 for S in self.qm.lattice(q, n).spaces]
        return self._ids[(q, n)]

    def program(self, M):
        return self.qm.from_matrix(self.p_mats[id(M)])

    def ops(self):
        qm = self.qm
        out = [self.analyze_op(f"analyze ({M.q},{M.n}) k={len(M.G)}", M.q, M.n,
                               lambda M=M: self.program(M), M.ranks)
               for M in self.matroids]
        for U in self.uniforms:
            out.append(self.analyze_op(f"analyze U({U.q},{U.n},{U.k})", U.q, U.n,
                                       lambda U=U: qm.uniform(U.q, U.n, U.k),
                                       U.ranks, uniform_k=U.k))
        for A, B, ranks in self.completions:
            def make(A=A, B=B):
                PA, PB = self.program(A), self.program(B)
                return qm.submodular_completion(A.q, A.n, lambda V: PA.rank(V) + PB.rank(V))
            out.append(self.analyze_op(f"completion ({A.q},{A.n})", A.q, A.n, make, ranks))
        for k, (M, ranks) in enumerate(self.perturbed):
            out.append(self.perturbed_op(M, ranks, k))
        for kind, M, A in self.maps:
            out.append(self.map_op(kind, M, A))
        for M1, M2 in self.sums:
            out.append(self.sum_op(M1, M2))
        return out

    def analyze_op(self, name, q, n, make, ranks, uniform_k=None):
        qm = self.qm

        def run():
            P = make()
            return P.rank_vector(), qm.check_rank_axioms(P), P.flats(), P.circuits()

        def check(answer):
            rv, report, flats, circuits = answer
            lat, ids = model.lattice(q, n), self.model_ids(q, n)
            expect([rv[i] for i in sorted(range(len(ids)), key=ids.__getitem__)] == ranks,
                   "rank vector differs from the model")
            expect(report.ok, f"valid matroid rejected: {report.violations[:2]}")
            expect({lat.index[lat.amb.of_rows(F.basis)] for F in flats.members}
                   == model.flats(ranks, lat), "flats differ from the model")
            expect({lat.index[lat.amb.of_rows(C.basis)] for C in circuits}
                   == model.circuits(ranks, lat), "circuits differ from the model")
            if uniform_k is not None:
                k = uniform_k
                expect(len(flats) == 1 + sum(model.gaussian_binomial(n, d, q) for d in range(k)),
                       f"U({q},{n},{k}) has {len(flats)} flats")
                expect(len(circuits) == model.gaussian_binomial(n, k + 1, q),
                       f"U({q},{n},{k}) has {len(circuits)} circuits")

        return Op(name, run, check)

    def perturbed_op(self, M, ranks, k):
        qm = self.qm
        q, n = M.q, M.n

        def run():
            table = self.p_tables[k]
            return qm.check_rank_axioms(qm.from_function(q, n, table.__getitem__))

        def check(report):
            expect(not report.ok, "perturbed rank table accepted")
            lat = model.lattice(q, n)
            by_mask = {mask: ranks[i] for i, mask in enumerate(lat.masks)}
            for axiom, witnesses, _ in report.violations:
                masks = [lat.amb.of_rows(S.basis) for S in witnesses]
                expect(model.violates(axiom, masks, by_mask, lat.amb),
                       f"reported {axiom} at {witnesses} does not hold in the model")

        return Op(f"perturbed ({q},{n})", run, check)

    def map_op(self, kind, M, A):
        qm = self.qm

        def run():
            P = self.program(M)
            phi = gen.program_map(qm, M.q, A)
            if kind == "pushforward":
                target = qm.pushforward(P, phi)
            else:
                r = P.matroid_rank
                target = qm.from_function(M.q, M.n, lambda V: min(r - 1, P.rank(V)))
            return qm.classify_map(phi, P, target)

        def check(rep):
            if kind == "pushforward":
                expect(rep.is_weak and rep.is_rank_preserving,
                       "identity onto the pushforward is not rank-preserving")
            else:
                expect(rep.is_weak and not rep.is_rank_preserving,
                       "identity onto the truncation is not weak-only")

        return Op(f"classify {kind} ({M.q},{M.n})", run, check)

    def sum_op(self, M1, M2):
        qm = self.qm
        A6 = model.ambient(2, 6)
        embedded = set()
        for M, shift in ((M1, 1), (M2, 2 ** M1.n)):
            lat = model.lattice(2, M.n)
            for c in model.circuits(M.ranks, lat):
                embedded.add(sum(1 << (v * shift) for v in lat.amb.vectors(lat.masks[c])))

        def run():
            D = qm.direct_sum(self.program(M1), self.program(M2))
            return D.total.matroid_rank, qm.additivity_check(D), qm.dirsum_circuits(D)

        def check(answer):
            rank, rep, circuits = answer
            expect(rank == M1.rank + M2.rank, f"sum rank {rank} != {M1.rank} + {M2.rank}")
            expect(rep.ok, f"additivity checks failed: {rep.checks}")
            got = {A6.of_rows(C.basis) for C in circuits}
            expect(embedded <= got, "a summand circuit is not a circuit of the sum")

        return Op(f"direct sum (2,{M1.n})+(2,{M2.n})", run, check)
