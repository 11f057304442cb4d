"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check failed (witnesses printed),
2 usage or parse error, 3 an enumeration or search cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    EnumerationCapExceeded,
    ParseError,
    QMatroidsError,
    SearchBoundExceeded,
)
from .jsonio import (
    check_field_cap,
    dump_json,
    load_json,
    map_ambient,
    map_from_dict,
    matroid_ambient,
    matroid_from_dict,
    matroid_to_dict,
    subspace_to_dict,
)
from .maps import classify_map
from .qmatroid import check_rank_axioms, is_isomorphic
from .subspaces import Subspace, check_caps, count_subspaces, lattice

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPS = 3


def _parse_subspace(text: str, q: int, n: int) -> Subspace:
    rows = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if len(part) != n or not all("0" <= ch <= "9" and int(ch) < q for ch in part):
            raise ParseError(f"bad subspace row {part!r} for F_{q}^{n}")
        rows.append(tuple(int(ch) for ch in part))
    return Subspace.from_rows(q, n, rows)


def _emit(payload, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        if isinstance(payload, str):
            print(payload)
        else:
            print(json.dumps(payload, indent=1, sort_keys=True))


def _load_matroid(path: str, max_subspaces: int, sweep: bool = True):
    """The matroid of a spec file.  An over-cap field, and for a command
    that sweeps its lattice an over-cap ambient, is refused before the
    payload's field is built."""
    d = load_json(path)
    q, n = matroid_ambient(d)
    if sweep:
        check_caps(q, n)
    check_field_cap(d)
    # F_q^n has at least the 2^n coordinate subspaces
    if n >= max_subspaces.bit_length() or count_subspaces(q, n) > max_subspaces:
        raise EnumerationCapExceeded(
            f"the subspaces of F_{q}^{n} exceed --caps {max_subspaces}")
    return matroid_from_dict(d)


def cmd_build(args) -> int:
    M = _load_matroid(args.spec, args.caps)
    report = check_rank_axioms(M)
    lines = [f"matroid F{M.q}^{M.n} kind={M.kind} rank={M.matroid_rank}",
             f"axioms: {'pass' if report.ok else 'FAIL'}"]
    for axiom, witnesses, values in report.violations:
        lines.append(f"  {axiom} violated at {witnesses} (values {values})")
    if args.format == "json":
        _emit({"q": M.q, "n": M.n, "kind": M.kind, "rank": M.matroid_rank,
               "axioms_ok": report.ok,
               "violations": [str(v) for v in report.violations]}, "json")
    else:
        _emit("\n".join(lines), "text")
    if args.out:
        dump_json(matroid_to_dict(M, materialize=True), args.out)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _flats_dot(M) -> str:
    fam = M.flats()
    lat = lattice(M.q, M.n)
    ids = {F: lat.id_of(F) for F in fam.sorted_members}
    lines = ["digraph flats {", "  rankdir=BT;"]
    for F in fam.sorted_members:
        label = ",".join("".join(map(str, r)) for r in F.basis) or "0"
        lines.append(
            f'  s{ids[F]} [label="{label}\\ndim={F.dim} h={fam.height_of(F)}"];')
    for F in fam.sorted_members:
        for C in fam.covers_of(F):
            lines.append(f"  s{ids[F]} -> s{ids[C]};")
    lines.append("}")
    return "\n".join(lines)


def cmd_query(args) -> int:
    sub = args.subcommand
    # a single rank needs no lattice, and a minor ranks only its own
    M = _load_matroid(args.artifact, args.caps,
                      sweep=sub in ("closure", "flats", "circuits", "loops"))
    if sub in ("rank", "closure", "restrict", "contract"):
        if not args.subspace:
            raise ParseError(f"query {sub} needs --subspace")
        V = _parse_subspace(args.subspace, M.q, M.n)
    if sub == "rank":
        _emit({"rank": M.rank(V)} if args.format == "json" else f"rank = {M.rank(V)}",
              args.format)
    elif sub == "closure":
        C = M.closure(V)
        _emit(subspace_to_dict(C) if args.format == "json" else f"closure = {C!r}",
              args.format)
    elif sub == "flats":
        if args.format == "dot":
            print(_flats_dot(M))
        else:
            fam = M.flats()
            items = [{"basis": [list(r) for r in F.basis],
                      "dim": F.dim, "height": fam.height_of(F)}
                     for F in fam.sorted_members]
            if args.format == "json":
                _emit({"flats": items}, "json")
            else:
                for it in items:
                    _emit(f"dim={it['dim']} h={it['height']} "
                          + (",".join("".join(map(str, r)) for r in it["basis"]) or "0"),
                          "text")
    elif sub == "circuits":
        circ = M.circuits()
        _emit({"circuits": [subspace_to_dict(C) for C in circ]}
              if args.format == "json" else
              "\n".join(repr(C) for C in circ) or "(none)", args.format)
    elif sub == "loops":
        loops = M.loops()
        _emit({"loops": [subspace_to_dict(L) for L in loops]}
              if args.format == "json" else
              "\n".join(repr(L) for L in loops) or "(none)", args.format)
    elif sub == "restrict":
        R = M.restriction(V)
        out = matroid_to_dict(R, materialize=True)
        if args.out:
            dump_json(out, args.out)
        else:
            _emit(out, "json")
    elif sub == "contract":
        C = M.contraction(V)
        out = matroid_to_dict(C, materialize=True)
        if args.out:
            dump_json(out, args.out)
        else:
            _emit(out, "json")
    else:
        raise ParseError(f"unknown query {sub!r}")
    return EXIT_OK


def cmd_map(args) -> int:
    d = load_json(args.mapspec)
    q, n1, n2 = map_ambient(d)  # refuse an over-cap map before building its field
    check_caps(q, n1)
    check_caps(q, n2)
    phi = map_from_dict(d)
    M1 = _load_matroid(args.m1, args.caps)
    M2 = _load_matroid(args.m2, args.caps)
    rep = classify_map(phi, M1, M2)
    payload = {"weak": rep.is_weak, "strong": rep.is_strong,
               "rank_preserving": rep.is_rank_preserving,
               "witnesses": {k: [str(w) for w in v]
                             for k, v in rep.witnesses.items() if v}}
    if args.format == "json":
        _emit(payload, "json")
    else:
        _emit(f"weak={rep.is_weak} strong={rep.is_strong} "
              f"rank_preserving={rep.is_rank_preserving}", "text")
        for k, v in payload["witnesses"].items():
            for w in v:
                _emit(f"  {k} witness: {w}", "text")
    return EXIT_OK


def cmd_dirsum(args) -> int:
    from .dirsum import additivity_check, direct_sum, dirsum_circuits
    M1 = _load_matroid(args.m1, args.caps)
    M2 = _load_matroid(args.m2, args.caps)
    D = direct_sum(M1, M2)
    rep = additivity_check(D)
    circuits = dirsum_circuits(D)
    payload = {"q": D.total.q, "n": D.total.n, "rank": D.total.matroid_rank,
               "checks": [(name, ok) for name, ok, _ in rep.checks],
               "circuit_count": len(circuits)}
    if args.out:
        dump_json(matroid_to_dict(D.total, materialize=True), args.out)
    _emit(payload if args.format == "json" else
          "\n".join(f"{name}: {'pass' if ok else 'FAIL'}"
                    for name, ok, _ in rep.checks)
          + f"\ncircuits: {len(circuits)}", args.format)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def cmd_iso(args) -> int:
    M1 = _load_matroid(args.m1, args.caps)
    M2 = _load_matroid(args.m2, args.caps)
    stats = {}
    witness = is_isomorphic(M1, M2, mode=args.mode, stats=stats)
    if witness is None:
        why = stats["refused"] or f"exhausted {stats['candidates']} candidates"
        _emit({"isomorphic": False, **stats} if args.format == "json"
              else f"not isomorphic ({why})", args.format)
        return EXIT_CHECK_FAILED
    A = witness.linear_matrix or witness.semilinear_matrix
    rows = [list(A.row(i)) for i in range(A.rows)]
    _emit({"isomorphic": True, "matrix": rows,
           "automorphism": witness.automorphism or 0}
          if args.format == "json" else f"isomorphic via rows {rows}",
          args.format)
    return EXIT_OK


def cmd_repro(args) -> int:
    from . import repro
    if args.item == "list":
        for name in sorted(repro.ITEMS):
            _emit(name, "text")
        return EXIT_OK
    if args.item != "all" and args.item not in repro.ITEMS:
        raise ParseError(f"unknown repro item {args.item!r} "
                         "(try 'qmatroids repro list')")
    items = sorted(repro.ITEMS) if args.item == "all" else [args.item]
    if args.jobs > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(repro.run_item, items))
    else:
        reports = [repro.run_item(it) for it in items]
    ok = True
    for rep in reports:
        ok &= rep.passed
        if args.format == "json":
            _emit({"item": rep.item, "passed": rep.passed,
                   "checks": [(n, o, str(d) if d is not None else None)
                              for n, o, d in rep.checks],
                   "counters": rep.counters,
                   "wall_time": round(rep.wall_time, 4)}, "json")
        else:
            _emit(rep.summary(), "text")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_selftest(args) -> int:
    import random

    from . import repro
    from .fields import make_field
    from .subspaces import rref
    rng = random.Random(args.seed)
    failures = []
    F = make_field(2, 1, 4)
    elems = list(range(F.order))
    for a in elems:
        for b in elems:
            if F.mul(a, b) != F.mul(b, a):
                failures.append(("mul_commutes", a, b))
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        red, rank = rref(rows, 2, n)
        red2, rank2 = rref(list(red), 2, n)
        if red2 != red or rank2 != rank:
            failures.append(("rref_idempotent", rows))
    for item in ("ex-2-2", "ex-5-5"):
        if not repro.run_item(item).passed:
            failures.append(("repro", item))
    if failures:
        _emit(f"selftest FAILED: {failures[:5]}", "text")
        return EXIT_CHECK_FAILED
    _emit("selftest passed", "text")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qmatroids",
        description="Workbench for q-matroids over small finite fields.")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--caps", type=int, default=10 ** 7,
                   help="maximum number of subspaces to enumerate")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="validate a matroid spec and emit an artifact")
    b.add_argument("spec")
    b.add_argument("-o", "--out")
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="rank/flats/circuits/loops/closure/restrict/contract")
    q.add_argument("artifact")
    q.add_argument("subcommand", choices=("rank", "flats", "circuits", "loops",
                                          "closure", "restrict", "contract"))
    q.add_argument("--subspace", help="comma-separated rows, e.g. 1000,0100")
    q.add_argument("-o", "--out")
    q.set_defaults(fn=cmd_query)

    m = sub.add_parser("map", help="classify a map between two matroids")
    m.add_argument("mapspec")
    m.add_argument("m1")
    m.add_argument("m2")
    m.set_defaults(fn=cmd_map)

    d = sub.add_parser("dirsum", help="direct sum of two matroid artifacts")
    d.add_argument("m1")
    d.add_argument("m2")
    d.add_argument("-o", "--out")
    d.set_defaults(fn=cmd_dirsum)

    i = sub.add_parser("iso", help="search for a rank-preserving isomorphism")
    i.add_argument("m1")
    i.add_argument("m2")
    i.add_argument("--mode", choices=("linear", "semilinear"), default="linear")
    i.set_defaults(fn=cmd_iso)

    r = sub.add_parser("repro", help="run a named reproduction item")
    r.add_argument("item", help="'list', 'all', or an item id such as thm-4-6")
    r.set_defaults(fn=cmd_repro)

    s = sub.add_parser("selftest", help="quick internal consistency checks")
    s.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    if args.jobs < 1 or args.caps < 1:
        print("--jobs and --caps must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (EnumerationCapExceeded, SearchBoundExceeded) as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAPS
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except QMatroidsError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
