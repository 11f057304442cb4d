"""qmatroids: a workbench for q-matroids over small finite fields.

Construct q-matroids from matrices, rank tables or flat families;
compute closures, flats, circuits and minors; classify maps between
them; build direct sums; and run the bundled reproduction suite of
concrete claims and counterexamples.
"""

from .errors import QMatroidsError

# each public name and the submodule that defines it
_HOMES = {
    "QMatroidsError": "errors",
    **dict.fromkeys(["FieldElem", "FieldSpec", "gaussian_binomial", "ground_field",
                     "in_base_field", "make_field", "omega_index_set", "primitive_power"],
                    "fields"),
    **dict.fromkeys(["Mat", "Subspace", "complement", "contains", "enumerate_subspaces",
                     "join", "lattice", "meet", "one_spaces",
                     "row_space", "rref", "subspaces_of"], "subspaces"),
    **dict.fromkeys(["FlatFamily", "QMatroid", "check_flat_axioms", "check_rank_axioms",
                     "from_flats", "from_function", "from_matrix", "from_rank_table",
                     "is_isomorphic", "pushforward", "trivial", "uniform"], "qmatroid"),
    **dict.fromkeys(["LClass", "LMap", "MapTypeReport", "classify_map", "compose",
                     "embedding_map", "identity_map", "iota_maps",
                     "is_weak_linear_via_circuits", "l_equivalent", "lmap_from_matrix",
                     "lmap_from_table", "pi_maps", "preimage", "tweak_equivalent",
                     "zero_map"], "maps"),
    **dict.fromkeys(["DirectSum", "additivity_check", "direct_sum", "dirsum_circuits",
                     "dirsum_is_max", "lclass_scaling_family", "submodular_completion",
                     "verify_coproduct_lw"], "dirsum"),
}

__version__ = "0.1.0"

# the public functions and classes, not the submodules that bind them
__all__ = sorted(_HOMES) + ["repro"]


def _register_lazily(name: str):
    """Put submodule ``name`` in sys.modules and bind it here, compiled and
    run on the first read of one of its attributes.  An entry, not a
    PEP 562 name: qbench/layers.py reads the modules from sys.modules.

    CPython 3.11's lazy modules hold no lock: a module must not be read for
    the first time in a worker thread (``cli.cmd_repro`` loads ``repro``,
    and so every module its items use, before it starts a pool)."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    globals()[name] = module


# every submodule but errors, which the package and cli import at once, and
# cli, which ``python -m qmatroids.cli`` runs as __main__: runpy would warn
# of an entry for it and run it twice
for _name in ("fields", "kernels", "subspaces", "maps", "qmatroid", "dirsum", "jsonio",
              "repro"):
    _register_lazily(_name)
del _name


def __getattr__(name):
    # a public name is read from its submodule on first use and kept here
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
