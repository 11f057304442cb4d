"""qmatroids: a workbench for q-matroids over small finite fields.

Construct q-matroids from matrices, rank tables or flat families;
compute closures, flats, circuits and minors; classify maps between
them; build direct sums; and run the bundled reproduction suite of
concrete claims and counterexamples.
"""

from .errors import QMatroidsError
from .fields import (
    FieldElem,
    FieldSpec,
    ground_field,
    in_base_field,
    make_field,
    omega_index_set,
    primitive_power,
)
from .subspaces import (
    Mat,
    Subspace,
    complement,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    join,
    lattice,
    meet,
    one_spaces,
    row_space,
    rref,
    subspaces_of,
)
from .qmatroid import (
    FlatFamily,
    QMatroid,
    check_flat_axioms,
    check_rank_axioms,
    from_flats,
    from_function,
    from_matrix,
    from_rank_table,
    is_isomorphic,
    pushforward,
    trivial,
    uniform,
)
from .maps import (
    LClass,
    LMap,
    MapTypeReport,
    classify_map,
    compose,
    embedding_map,
    identity_map,
    iota_maps,
    is_weak_linear_via_circuits,
    l_equivalent,
    lmap_from_matrix,
    lmap_from_table,
    pi_maps,
    preimage,
    tweak_equivalent,
    zero_map,
)
from .dirsum import (
    DirectSum,
    additivity_check,
    direct_sum,
    dirsum_circuits,
    dirsum_is_max,
    lclass_scaling_family,
    submodular_completion,
    verify_coproduct_lw,
)

__version__ = "0.1.0"

# the public functions and classes, not the submodules that importing them binds
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and callable(value)) + ["repro"]


def __getattr__(name):
    # the reproduction suite is loaded on first use, so a command that does
    # not run it does not compile it; import_module, not ``from . import``,
    # which would look the name up here again
    if name == "repro":
        import importlib
        return importlib.import_module(".repro", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
