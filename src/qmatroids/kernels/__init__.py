"""Packed GF(2) kernels for the hot loops, implemented in ``_pure``."""

from ._pure import (
    BACKEND,
    gf2_factor_search,
    gf2_key,
    gf2_lmap_violation,
    gf2_rref,
    gl2_iso_search,
)

__all__ = ["BACKEND", "gf2_factor_search", "gf2_key", "gf2_lmap_violation",
           "gf2_rref", "gl2_iso_search"]
