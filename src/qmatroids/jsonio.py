"""JSON formats for fields, subspaces, matroids and maps.

Matroid spec files carry {"q", "n", "kind", ...payload}; kinds are
"uniform", "matrix", "rank_table" and "flats".  Matrix payloads embed
the field data (p, k, m and both moduli) and the rows of G as element
coefficient lists over GF(q).  Rank tables are keyed by serialized
canonical bases, listed in lattice enumeration order so that artifacts
round-trip byte-identically.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Tuple

from .errors import EnumerationCapExceeded, ParseError
from .fields import (
    MAX_FIELD_ORDER,
    FieldSpec,
    ground_field,
    make_field,
    over_field_cap,
    prime_power,
)
from .maps import LMap, lmap_from_matrix, lmap_from_table
from .qmatroid import FlatFamily, QMatroid, from_flats, from_matrix, from_rank_table, uniform
from .subspaces import Mat, Subspace, lattice


def field_to_dict(spec: FieldSpec) -> dict:
    return {"p": spec.p, "k": spec.k, "m": spec.m,
            "base_modulus": list(spec.base_modulus),
            "ext_modulus": list(spec.ext_modulus)}


def _int(x) -> int:
    """x if it is a JSON integer; a float, a bool or a string is refused
    rather than truncated."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def field_from_dict(d: dict) -> FieldSpec:
    moduli = [[_int(c) for c in d[name]]
              for name in ("base_modulus", "ext_modulus") if name in d]
    _check(len(moduli) != 1, "a field needs both moduli or neither")
    return make_field(_int(d["p"]), _int(d.get("k", 1)), _int(d.get("m", 1)),
                      moduli=moduli or None)


def subspace_to_dict(S: Subspace) -> dict:
    return S.to_dict()


def matroid_to_dict(M: QMatroid, materialize: bool = False) -> dict:
    """Serialize a matroid; materialize=True forces a rank_table artifact."""
    q, n = M.ambient()
    if materialize:
        lat = lattice(q, n)
        rv = M.rank_vector()
        return {"q": q, "n": n, "kind": "rank_table",
                "table": [[[list(r) for r in S.basis], rv[i]]
                          for i, S in enumerate(lat.spaces)]}
    if M.kind == "uniform":
        return {"q": q, "n": n, "kind": "uniform", "k": M.payload["k"]}
    if M.kind in ("matrix", "blockdiag"):
        G: Mat = M.payload["G"]
        return {"q": q, "n": n, "kind": "matrix",
                "field": field_to_dict(G.spec),
                "rows": [[list(G.spec.coeffs(x)) for x in G.row(i)]
                         for i in range(G.rows)]}
    if M.kind == "flats":
        fam: FlatFamily = M.payload["flats"]
        return {"q": q, "n": n, "kind": "flats",
                "members": [[list(r) for r in S.basis]
                            for S in fam.sorted_members]}
    return matroid_to_dict(M, materialize=True)


@contextmanager
def _reading(what: str):
    """Turn a missing key or a bad value into a ParseError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed {what}: {e!r}") from None


def _check(ok: bool, message: str):
    if not ok:
        raise ParseError(message)


def _header(d, what: str, sizes):
    """(kind, q, *sizes) of a spec object, checked: a JSON object, q a
    prime power, sizes >= 0."""
    _check(isinstance(d, dict), f"{what} spec must be a JSON object, not {type(d).__name__}")
    with _reading(f"{what} spec header (kind, q, {', '.join(sizes)})"):
        kind, q = d["kind"], _int(d["q"])
        dims = [_int(d[name]) for name in sizes]
    _check(q >= 2, f"{what} spec needs q >= 2, got q={q}")
    # not factored above MAX_FIELD_ORDER: no such field is ever built, and
    # q^n exceeds the vector cap for every n >= 1
    _check(q > MAX_FIELD_ORDER or prime_power(q) is not None,
           f"{what} spec needs q to be a prime power, got q={q}")
    for name, size in zip(sizes, dims):
        _check(size >= 0, f"{what} spec needs {name} >= 0, got {name}={size}")
    return (kind, q, *dims)


def _vectors(rows, q: int, n: int, what: str):
    """``rows`` as a list of vectors of F_q^n (entries in range(q)), checked."""
    with _reading(what):
        rows = [[_int(x) for x in row] for row in rows]
    _check(all(len(r) == n and all(0 <= x < q for x in r) for r in rows),
           f"{what} must be vectors of F_{q}^{n}")
    return rows


def matroid_ambient(d) -> Tuple[int, int]:
    """(q, n) of a matroid spec; raises ParseError on a malformed header."""
    _, q, n = _header(d, "matroid", ("n",))
    return q, n


def check_field_cap(d):
    """Refuse a matrix spec whose field GF(p^(k*m)) is over the field-order
    cap, from the field's header, before the field is built.  A field
    header that does not parse is left to ``matroid_from_dict``."""
    try:
        field = d["field"] if d.get("kind") == "matrix" else None
        p, k, m = _int(field["p"]), _int(field.get("k", 1)), _int(field.get("m", 1))
    except (AttributeError, KeyError, TypeError):
        return
    if over_field_cap(p, k, m):
        raise EnumerationCapExceeded(
            f"field order {p}^{k * m} exceeds cap {MAX_FIELD_ORDER}")


def map_ambient(d) -> Tuple[int, int, int]:
    """(q, n1, n2) of a map spec; raises ParseError on a malformed header."""
    _, q, n1, n2 = _header(d, "map", ("n1", "n2"))
    return q, n1, n2


def matroid_from_dict(d: dict) -> QMatroid:
    kind, q, n = _header(d, "matroid", ("n",))
    if kind == "uniform":
        with _reading("uniform spec"):
            k = _int(d["k"])
        return uniform(q, n, k)
    if kind == "matrix":
        with _reading("matrix spec"):
            spec = field_from_dict(d["field"])
            rows = [[spec.from_coeffs(map(_int, entry)) for entry in row] for row in d["rows"]]
        _check(spec.q == q, f"field base GF({spec.q}) does not match q={q}")
        _check(len(rows) > 0 and all(len(row) == n for row in rows),
               f"matrix spec needs rows of n={n} entries")
        return from_matrix(Mat.from_rows(spec, rows))
    if kind == "rank_table":
        with _reading("rank_table spec"):
            entries = [(_vectors(basis, q, n, "basis rows"), _int(rank))
                       for basis, rank in d["table"]]
        return from_rank_table(q, n, {Subspace.from_rows(q, n, rows): rank
                                      for rows, rank in entries})
    if kind == "flats":
        with _reading("flats spec"):
            members = [_vectors(basis, q, n, "basis rows") for basis in d["members"]]
        return from_flats(FlatFamily(q, n, [Subspace.from_rows(q, n, rows)
                                            for rows in members]))
    raise ParseError(f"unknown matroid kind {kind!r}")


def map_from_dict(d: dict) -> LMap:
    kind, q, n1, n2 = _header(d, "map", ("n1", "n2"))
    if kind == "matrix":
        with _reading("matrix map spec"):
            rows = _vectors(d["rows"], q, n2, "matrix map rows")
        _check(len(rows) == n1, f"matrix map needs n1={n1} rows, got {len(rows)}")
        return lmap_from_matrix(Mat(ground_field(q), n1, n2, [x for row in rows for x in row]))
    if kind == "table":
        with _reading("table map spec"):
            images = [0] + [_int(x) for x in d["images"]]
        _check(len(images) == q ** n1, f"table must list the {q ** n1 - 1} nonzero images")
        _check(all(0 <= x < q ** n2 for x in images),
               f"table images must encode vectors of F_{q}^{n2}")
        return lmap_from_table(q, n1, n2, images)
    raise ParseError(f"unknown map kind {kind!r}")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or bad UTF-8
        raise ParseError(f"cannot read {path}: {e}")


def dump_json(obj, path: str):
    try:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e}")
