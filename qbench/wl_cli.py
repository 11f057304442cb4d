"""cli: fresh-process ``qmatroids`` commands, one after another.

This is the only workload where every operation pays interpreter start,
import, lattice build, JSON parsing and a cold join cache.  Commands run
as ``python -m qmatroids.cli`` (untraced) or through ``launch.py``
(traced), one child at a time, with ``--jobs 1``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import gen
import model
from harness import CheckFailed, Op, expect

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 150

# Malformed inputs: the right answer is exit 2 (parse error) with no
# traceback.  Each is fixed, independent of the seed.
MALFORMED = {
    "bad_q.json": {"q": 1, "n": 2, "kind": "uniform", "k": 1},
    "top_list.json": [1, 2],
    "no_k.json": {"q": 2, "n": 2, "kind": "uniform"},
    "short_rows.json": {"kind": "matrix", "q": 2, "n1": 2, "n2": 2, "rows": [[1, 0]]},
}


class Workload:
    # the reference loop, run in this process, tracks the speed of the four
    # children of a repetition less closely than in-process work: more
    # repetitions than the other workloads
    setup_reps = 9

    def __init__(self, seed: int, root: str, work: str, trace_dir=None):
        self.work, self.trace_dir = work, trace_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.children = 0
        rng = random.Random(seed)
        self.u25 = gen.uniform(2, 5, rng.randint(1, 5))
        self.r34 = gen.representable(rng, 3, 4, 2, 4)
        self.t34 = gen.representable(rng, 3, 4, 2, 3)
        self.m1 = gen.flagged(rng, 2, 4, 4)
        self.gl = gen.random_gl(rng, 2, 4)
        self.m2 = gen.pushforward(self.m1, self.gl)
        # m1 against U(2,4,2): the flag never prunes, so today's search
        # visits every leaf of GL(4,2)
        self.other = gen.uniform(2, 4, 2)
        self.trunc = gen.truncation(self.m1)
        # the completion into (2,6) costs from 1.2 to 1.7 s depending on
        # random summands, so that sum is of fixed uniform summands
        self.sums = [(gen.representable(rng, 2, 2, 1, 2), gen.representable(rng, 2, 3, 2, 3)),
                     (gen.uniform(2, 3, 2), gen.uniform(2, 3, 1))]
        self.files = {
            "u25.json": gen.spec(self.u25),
            "r34.json": gen.spec(self.r34), "t34.json": gen.spec(self.t34),
            "m1.json": gen.spec(self.m1), "m2.json": gen.spec(self.m2),
            "other.json": gen.spec(self.other), "trunc.json": gen.spec(self.trunc),
            "gl.json": gen.map_spec(2, self.gl), "id4.json": gen.map_spec(2, gen.identity(4)),
            "u22.json": {"q": 2, "n": 2, "kind": "uniform", "k": 1},
            **MALFORMED,
        }
        for k, (a, b) in enumerate(self.sums):
            self.files[f"s{k}a.json"] = gen.spec(a)
            self.files[f"s{k}b.json"] = gen.spec(b)
        # rank-table artifacts made in set-up by `build -o` and loaded later
        self.artifacts = [("t34.json", "t34.art.json"), ("m1.json", "m1.art.json"),
                          ("m2.json", "m2.art.json"), ("trunc.json", "trunc.art.json")]

    # ------------------------------------------------------------ processes

    def command(self, args):
        if self.trace_dir is None:
            return [sys.executable, "-m", "qmatroids.cli", *args]
        return [sys.executable, os.path.join(HERE, "launch.py"), *args]

    def call(self, args):
        env = self.env
        if self.trace_dir is not None:
            self.children += 1
            env = dict(env, QBENCH_SPAWN=repr(time.time()),
                       QBENCH_TRACE_OUT=os.path.join(self.trace_dir, f"{self.children}.json"))
        proc = subprocess.run(self.command(["--jobs", "1", *args]), cwd=self.work, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def setup_steps(self):
        """Write the spec files, then build each rank-table artifact in a fresh process."""
        return [self.write_files] + [lambda a=a: self.build_artifact(*a) for a in self.artifacts]

    def write_files(self):
        for name, doc in self.files.items():
            with open(os.path.join(self.work, name), "w") as fh:
                json.dump(doc, fh)

    def build_artifact(self, src, dst):
        code, _, err = self.call(["build", src, "-o", dst])
        if code != 0:
            raise RuntimeError(f"set-up build {src} exited {code}: {err[-500:]}")

    # ------------------------------------------------------------ operations

    def op(self, name, args, expect_code, check_json=None, known_fault=False):
        def run():
            return self.call(args)

        def check(answer):
            code, out, err = answer
            expect("Traceback" not in err, f"traceback: {err.strip().splitlines()[-1:]}")
            expect(code == expect_code, f"exit {code}, expected {expect_code}")
            if check_json is not None:
                try:
                    docs = _json_docs(out)
                except ValueError as e:
                    raise CheckFailed(f"unparsable output: {e}")
                check_json(docs)

        return Op(name, run, check, known_fault=known_fault)

    def ops(self):
        J = ["--format", "json"]
        out = [self.op("repro all", [*J, "repro", "all"], 0, self.check_repro)]
        for name, M in (("u25", self.u25), ("r34", self.r34)):
            out.append(self.op(f"build {name}", [*J, "build", f"{name}.json"], 0,
                               self.check_build(M)))
        out.append(self.op("build t34 artifact", [*J, "build", "t34.art.json"], 0,
                           self.check_build(self.t34)))
        for k, (a, b) in enumerate(self.sums):
            out.append(self.op(f"dirsum (2,{a.n})+(2,{b.n})",
                               [*J, "dirsum", f"s{k}a.json", f"s{k}b.json"], 0,
                               self.check_dirsum(a, b)))
        out.append(self.op("iso pair", [*J, "iso", "m1.art.json", "m2.art.json"], 0,
                           self.check_iso))
        out.append(self.op("iso non-pair", [*J, "iso", "m1.art.json", "other.json"], 1,
                           self.check_non_iso))
        out.append(self.op("map onto pushforward",
                           [*J, "map", "gl.json", "m1.art.json", "m2.art.json"], 0,
                           self.check_map(True)))
        out.append(self.op("map onto truncation",
                           [*J, "map", "id4.json", "m1.art.json", "trunc.art.json"], 0,
                           self.check_map(False)))
        for name in ("bad_q.json", "top_list.json", "no_k.json"):
            out.append(self.op(f"malformed {name}", ["build", name], 2, known_fault=True))
        out.append(self.op("malformed short_rows.json",
                           ["map", "short_rows.json", "u22.json", "u22.json"], 2,
                           known_fault=True))
        return out

    # ---------------------------------------------------------------- checks

    @staticmethod
    def check_repro(docs):
        items = {d["item"]: d for d in docs}
        expect(len(items) == 9 and all(d["passed"] for d in items.values()),
               f"items {sorted(items)} passed {[d['passed'] for d in items.values()]}")
        leaves = model.gl_order(4, 2)
        c45 = items["thm-4-5"]["counters"]
        expect(c45.get("gl_leaves") == leaves and c45.get("gl_candidates") == leaves,
               f"thm-4-5 counters {c45}")
        expect(items["thm-5-6"]["counters"].get("exhaustive_linear_maps") == 2 ** (4 * 4),
               "thm-5-6 did not scan every linear map F_2^4 -> F_2^4")
        expect(items["thm-4-6"]["counters"].get("assignment_space") == 8 ** 9,
               "thm-4-6 assignment space")

    @staticmethod
    def check_build(M):
        def check(docs):
            (d,) = docs
            expect((d["q"], d["n"], d["rank"], d["axioms_ok"]) == (M.q, M.n, M.rank, True),
                   f"build answered {d}, expected rank {M.rank}")
        return check

    @staticmethod
    def check_dirsum(a, b):
        lat_a, lat_b = model.lattice(2, a.n), model.lattice(2, b.n)
        at_least = len(model.circuits(a.ranks, lat_a)) + len(model.circuits(b.ranks, lat_b))

        def check(docs):
            (d,) = docs
            expect(d["n"] == a.n + b.n and d["rank"] == a.rank + b.rank,
                   f"sum ({d['n']}, rank {d['rank']}), expected rank {a.rank + b.rank}")
            expect(all(ok for _, ok in d["checks"]), f"checks {d['checks']}")
            expect(d["circuit_count"] >= at_least,
                   f"{d['circuit_count']} circuits, fewer than the summands' {at_least}")
        return check

    def check_iso(self, docs):
        (d,) = docs
        expect(d["isomorphic"], "isomorphic pair reported non-isomorphic")
        lat = model.lattice(2, 4)
        expect(model.rank_preserved(d["matrix"], self.m1.ranks, self.m2.ranks, lat),
               f"witness {d['matrix']} does not preserve every rank")

    def check_non_iso(self, docs):
        (d,) = docs
        lat = model.lattice(2, 4)
        expect(not d["isomorphic"], "non-isomorphic pair reported isomorphic")
        # a pruned search: the leaves it visits are its own affair, up to |GL(4,2)|
        expect(d.get("leaves", 0) <= model.gl_order(4, 2),
               f"{d.get('leaves')} leaves, more than |GL(4,2)|")
        expect(model.histogram(self.m1.ranks, lat) != model.histogram(self.other.ranks, lat),
               "pair has equal (dim, rank) histograms")

    @staticmethod
    def check_map(rank_preserving):
        def check(docs):
            (d,) = docs
            expect(d["weak"] and d["rank_preserving"] == rank_preserving,
                   f"map classified {d}, expected weak, rank_preserving={rank_preserving}")
        return check


def _json_docs(text: str):
    """The JSON documents printed one after another."""
    dec, docs, i = json.JSONDecoder(), [], 0
    text = text.strip()
    while i < len(text):
        doc, i = dec.raw_decode(text, i)
        docs.append(doc)
        while i < len(text) and text[i].isspace():
            i += 1
    return docs
