"""Pure-Python kernels for the hot loops, implemented in ``_pure``."""

from ._pure import (
    BACKEND,
    flag_depth,
    gf2_factor_search,
    gf2_rref,
    gl_iso_search,
)

# qbench/layers.py times the GL scan under this name
gl2_iso_search = gl_iso_search

__all__ = ["BACKEND", "flag_depth", "gf2_factor_search", "gf2_rref", "gl_iso_search"]
