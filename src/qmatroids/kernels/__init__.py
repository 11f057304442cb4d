"""Pure-Python kernels for the hot loops, implemented in ``_pure``."""

from ._pure import (
    BACKEND,
    factor_search,
    flag_depth,
    gf2_rref,
    gl_iso_search,
)

# qbench/layers.py times the GL scan and the factoring search under these names
gl2_iso_search = gl_iso_search
gf2_factor_search = factor_search

__all__ = ["BACKEND", "factor_search", "flag_depth", "gf2_rref", "gl_iso_search"]
