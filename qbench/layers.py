"""Per-layer spans and counts, installed from outside the program.

``install`` wraps the public functions of the ``qmatroids`` modules in
timing wrappers.  Each wrapper replaces the name wherever a calling module
looks it up (every ``qmatroids`` module attribute bound to the original
function), so calls between modules are caught as well as calls from the
benchmark.  The kernel backend modules themselves are left alone: calls a
kernel makes to its own helpers (the RREFs inside the GL scan) are part of
that kernel's self time.

Spans nest.  A layer's self time is its span's duration minus the time
of the spans it encloses.  Totals live in memory in a ``Tracer`` and are
read with ``snapshot``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric, module, attribute) of every timed function; the metric is the
# layer's self time in seconds.
FUNCTIONS = [
    ("subspaces.join_s", "qmatroids.subspaces", "join"),
    ("kernels.gf2_rref_s", "qmatroids.kernels", "gf2_rref"),
    ("qmatroid.check_rank_axioms_s", "qmatroids.qmatroid", "check_rank_axioms"),
    ("qmatroid.is_isomorphic_s", "qmatroids.qmatroid", "is_isomorphic"),
    ("kernels.gl2_iso_search_s", "qmatroids.kernels", "gl2_iso_search"),
    ("kernels.gf2_factor_search_s", "qmatroids.kernels", "gf2_factor_search"),
    ("dirsum.submodular_completion_s", "qmatroids.dirsum", "submodular_completion"),
    ("dirsum.direct_sum_s", "qmatroids.dirsum", "direct_sum"),
    ("dirsum.additivity_check_s", "qmatroids.dirsum", "additivity_check"),
    ("dirsum.verify_coproduct_lw_s", "qmatroids.dirsum", "verify_coproduct_lw"),
    ("maps.classify_map_s", "qmatroids.maps", "classify_map"),
    ("maps.lmap_from_table_s", "qmatroids.maps", "lmap_from_table"),
    ("jsonio.matroid_from_dict_s", "qmatroids.jsonio", "matroid_from_dict"),
    ("cli.build_s", "qmatroids.cli", "cmd_build"),
    ("cli.dirsum_s", "qmatroids.cli", "cmd_dirsum"),
    ("cli.iso_s", "qmatroids.cli", "cmd_iso"),
    ("cli.map_s", "qmatroids.cli", "cmd_map"),
    ("cli.repro_s", "qmatroids.cli", "cmd_repro"),
]
METHODS = [
    ("subspaces.lattice_s", "qmatroids.subspaces", "SubspaceLattice", "__init__"),
    ("qmatroid.rank_vector_s", "qmatroids.qmatroid", "QMatroid", "rank_vector"),
    ("qmatroid.flats_s", "qmatroids.qmatroid", "QMatroid", "flats"),
    ("qmatroid.circuits_s", "qmatroids.qmatroid", "QMatroid", "circuits"),
]
COUNTS = ["subspaces.spaces", "subspaces.join_calls", "kernels.gf2_rref_calls",
          "qmatroid.axiom_pairs", "qmatroid.iso_leaves", "qmatroid.iso_nodes",
          "kernels.factor_nodes"]
REPRO_ITEMS = ["ex-2-2", "ex-5-5", "lemma-4-3", "prop-4-1", "prop-4-2",
               "thm-4-5", "thm-4-6", "thm-5-6", "thm-6-1"]
# wall times read from outside a span: cli.start_s (fresh interpreter to
# imported qmatroids) and each repro item's ReproReport.wall_time
VALUES = ["cli.start_s"] + [f"repro.{item}_s" for item in REPRO_ITEMS]

LAYERS = ([name for name, *_ in FUNCTIONS] + [name for name, *_ in METHODS]
          + ["subspaces.sub_masks_s"] + COUNTS + VALUES)
UNITS = {name: ("count" if name in COUNTS else "s") for name in LAYERS}

_SKIP = ("qmatroids.kernels._pure", "qmatroids.kernels._fast")


class Tracer:
    """Self times, counts and values accumulated by the installed wrappers."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.stack = [[0.0]]  # one frame per open span: [time of enclosed spans]

    def add(self, name: str, value):
        self.totals[name] += value

    def snapshot(self) -> dict:
        return {name: self.totals.get(name, 0) for name in LAYERS}

    def timed(self, name: str, fn):
        stack, totals, clock = self.stack, self.totals, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                totals[name] += dur - frame[0]
                stack[-1][0] += dur

        return wrapper


def _rebind(original, replacement):
    """Point every qmatroids module attribute bound to ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname in _SKIP:
            continue
        if modname != "qmatroids" and not modname.startswith("qmatroids."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap every layer of the already imported ``qmatroids`` package."""
    import qmatroids.cli  # noqa: F401  (cli and repro hold their own bindings)

    wrappers = {}
    for name, modname, attr in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        wrappers[attr] = tracer.timed(name, original)
        _rebind(original, wrappers[attr])

    classes = {}
    for name, modname, cls, attr in METHODS:
        klass = getattr(sys.modules[modname], cls)
        classes[cls] = klass
        setattr(klass, attr, tracer.timed(name, getattr(klass, attr)))

    counted(tracer, wrappers, "join", "subspaces.join_calls")
    counted(tracer, wrappers, "gf2_rref", "kernels.gf2_rref_calls")

    Lattice = classes["SubspaceLattice"]
    build = Lattice.__init__

    def lattice_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        tracer.add("subspaces.spaces", self.size)

    Lattice.__init__ = lattice_init

    masks = tracer.timed("subspaces.sub_masks_s", Lattice.sub_masks.fget)
    Lattice.sub_masks = property(
        lambda self: self._sub_masks if self._sub_masks is not None else masks(self))

    # R3 pairs: join_id calls made directly by the axiom sweep
    axioms = wrappers["check_rank_axioms"]
    sweep_frames = []
    join_id = Lattice.join_id

    def axioms_marked(*args, **kwargs):
        sweep_frames.append(len(tracer.stack))
        try:
            return axioms(*args, **kwargs)
        finally:
            sweep_frames.pop()

    def join_id_counted(self, i, j):
        if sweep_frames and sweep_frames[-1] == len(tracer.stack) - 1:
            tracer.totals["qmatroid.axiom_pairs"] += 1
        return join_id(self, i, j)

    _rebind(axioms, axioms_marked)
    Lattice.join_id = join_id_counted

    iso = wrappers["is_isomorphic"]

    def iso_counted(M1, M2, *args, stats=None, **kwargs):
        stats = {} if stats is None else stats
        try:
            return iso(M1, M2, *args, stats=stats, **kwargs)
        finally:
            tracer.add("qmatroid.iso_leaves", stats.get("leaves", 0))
            tracer.add("qmatroid.iso_nodes", stats.get("nodes", 0))

    _rebind(iso, iso_counted)

    factor = wrappers["gf2_factor_search"]

    def factor_counted(*args, **kwargs):
        sol, nodes = factor(*args, **kwargs)
        tracer.add("kernels.factor_nodes", nodes)
        return sol, nodes

    _rebind(factor, factor_counted)

    import qmatroids.repro as repro
    run_item = repro.run_item

    def run_item_recorded(item):
        rep = run_item(item)
        tracer.add(f"repro.{item}_s", rep.wall_time)
        return rep

    _rebind(run_item, run_item_recorded)


def counted(tracer: Tracer, wrappers: dict, attr: str, metric: str):
    inner = wrappers[attr]

    def wrapper(*args, **kwargs):
        tracer.totals[metric] += 1
        return inner(*args, **kwargs)

    _rebind(inner, wrapper)
    wrappers[attr] = wrapper
