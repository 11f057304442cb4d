"""CLI subcommands, JSON round-trips, DOT emission and exit codes."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmatroids
from qmatroids import identity_map, lattice, uniform
from qmatroids.cli import main
from qmatroids.jsonio import (
    dump_json,
    map_from_dict,
    matroid_from_dict,
    matroid_to_dict,
)
from qmatroids.repro import blockdiag_matroid

from helpers import fresh_python as _python, map_to_dict


@pytest.fixture()
def uniform_spec(tmp_path):
    path = tmp_path / "u1.json"
    dump_json({"q": 2, "n": 2, "kind": "uniform", "k": 1}, str(path))
    return str(path)


@pytest.fixture()
def blockdiag_spec(tmp_path):
    path = tmp_path / "n2.json"
    dump_json(matroid_to_dict(blockdiag_matroid(2, 4, 2)), str(path))
    return str(path)


class TestJsonRoundtrip:
    def test_uniform(self):
        M = uniform(3, 2, 1)
        again = matroid_from_dict(matroid_to_dict(M))
        assert again.same_rank_table(M)

    def test_matrix_spec_carries_field(self):
        M = blockdiag_matroid(2, 4, 2)
        d = matroid_to_dict(M)
        assert d["kind"] == "matrix"
        assert d["field"]["ext_modulus"] == [1, 1, 0, 0, 1]
        assert matroid_from_dict(d).same_rank_table(M)

    def test_materialized_table(self):
        M = blockdiag_matroid(2, 4, 1)
        d = matroid_to_dict(M, materialize=True)
        assert d["kind"] == "rank_table"
        assert matroid_from_dict(d).same_rank_table(M)

    def test_flats_spec(self):
        M = uniform(2, 3, 1)
        fam = M.flats()
        d = {"q": 2, "n": 3, "kind": "flats",
             "members": [[list(r) for r in S.basis] for S in fam.sorted_members]}
        assert matroid_from_dict(d).same_rank_table(M)

    def test_map_roundtrip_linear(self):
        from qmatroids import identity_map
        phi = identity_map(2, 3)
        assert map_from_dict(map_to_dict(phi)).table == phi.table

    def test_map_roundtrip_table(self):
        from qmatroids import lmap_from_table
        phi = lmap_from_table(2, 2, 2, lambda v: (1, 1) if any(v) else (0, 0))
        assert map_from_dict(map_to_dict(phi)).table == phi.table


class TestBuild:
    def test_build_uniform(self, uniform_spec, capsys, tmp_path):
        out = tmp_path / "artifact.json"
        assert main(["build", uniform_spec, "-o", str(out)]) == 0
        assert "axioms: pass" in capsys.readouterr().out
        artifact = json.loads(out.read_text())
        assert artifact["kind"] == "rank_table"

    def test_build_export_build_identical(self, blockdiag_spec, tmp_path, capsys):
        out1 = tmp_path / "a1.json"
        out2 = tmp_path / "a2.json"
        assert main(["build", blockdiag_spec, "-o", str(out1)]) == 0
        assert main(["build", str(out1), "-o", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["build", str(bad)]) == 2

    def test_cap_exceeded_exit_3(self, tmp_path, uniform_spec):
        assert main(["--caps", "3", "build", uniform_spec]) == 3

    @pytest.mark.parametrize("field", [
        {"p": 2 ** 61 - 1, "k": 1, "m": 1},
        {"p": 2 ** 61 - 1, "k": 1, "m": 1, "base_modulus": [0, 1], "ext_modulus": [0, 1]},
        {"p": 2, "k": 1, "m": 10 ** 9},
    ], ids=["p=2^61-1", "p=2^61-1 given moduli", "m=10^9"])
    def test_over_cap_field_refused_at_once(self, tmp_path, field):
        # trial division of 2^61 - 1 would run for hours, and 2^(10^9) need
        # not be built: a fresh process must refuse the field on its order,
        # as a cap, in the queries that read the payload of an ambient of
        # any size as in `build`
        spec = tmp_path / "big.json"
        dump_json({"q": field["p"], "n": 1, "kind": "matrix", "field": field,
                   "rows": [[[1]]]}, str(spec))
        for sub in ("rank", "restrict", "contract"):
            child = _python("-m", "qmatroids.cli", "query", str(spec), sub,
                            "--subspace", "1", timeout=10)
            assert child.returncode == 3, sub
            assert child.stderr.startswith("cap exceeded: "), sub
            assert "Traceback" not in child.stdout + child.stderr

    @pytest.mark.parametrize("field", [
        {"p": 2, "k": 1, "m": 21, "base_modulus": [0, 1],
         "ext_modulus": [1, 0, 1] + [0] * 18 + [1]},
        {"p": 2, "k": 1, "m": 30},
    ], ids=["m=21 given moduli", "m=30"])
    def test_over_cap_field_exit_3(self, tmp_path, capsys, field):
        # GF(2^21) and GF(2^30) are over the field-order cap: a command that
        # sweeps the lattice refuses the field from its header as a cap
        spec = tmp_path / "big.json"
        dump_json({"q": 2, "n": 1, "kind": "matrix", "field": field, "rows": [[[1]]]},
                  str(spec))
        assert main(["build", str(spec)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: field order 2^") and "Traceback" not in err

    def test_over_cap_ambient_refused_before_its_field(self, tmp_path, monkeypatch,
                                                       uniform_spec, capsys):
        # F_(3^12)^1 has more vectors than the vector cap: each command that
        # sweeps a lattice exits 3 from the header, building no field
        from qmatroids.fields import FieldSpec, ground_field

        def unbuildable(*args, **kwargs):
            raise RuntimeError("no field may be built")

        ground_field(2)  # for the map spec, parsed before the matroids
        big, headless, mapspec = (tmp_path / name for name in ("big", "headless", "map"))
        matrix = {"q": 3 ** 12, "n": 1, "kind": "matrix",
                  "field": {"p": 3, "k": 12, "m": 1}, "rows": [[[1]]]}
        dump_json(matrix, str(big))
        dump_json({key: v for key, v in matrix.items() if key != "n"}, str(headless))
        dump_json({"kind": "matrix", "q": 2, "n1": 1, "n2": 1, "rows": [[1]]}, str(mapspec))
        monkeypatch.setattr(FieldSpec, "__init__", unbuildable)
        for argv in (["build", big], ["dirsum", big, uniform_spec],
                     ["iso", uniform_spec, big], ["map", mapspec, big, uniform_spec]):
            assert main([str(a) for a in argv]) == 3
            assert "exceeds vector cap" in capsys.readouterr().err
        assert main(["build", str(headless)]) == 2

    def test_over_cap_map_and_queries_refused_before_a_field(self, tmp_path, monkeypatch,
                                                            uniform_spec, capsys):
        # a map into or out of F_531441^1, and the queries that sweep a
        # lattice, exit 3 from the header without building a field
        from qmatroids.fields import FieldSpec

        def unbuildable(*args, **kwargs):
            raise RuntimeError("no field may be built")

        big_map, bad_map, big = (tmp_path / name for name in ("big_map", "bad_map", "big"))
        dump_json({"kind": "matrix", "q": 531441, "n1": 1, "n2": 1, "rows": [[1]]},
                  str(big_map))
        dump_json({"kind": "matrix", "q": 6, "n1": 1, "n2": 1, "rows": [[1]]}, str(bad_map))
        dump_json({"q": 3 ** 12, "n": 1, "kind": "matrix",
                   "field": {"p": 3, "k": 12, "m": 1}, "rows": [[[1]]]}, str(big))
        monkeypatch.setattr(FieldSpec, "__init__", unbuildable)
        argvs = [["map", big_map, uniform_spec, uniform_spec]]
        argvs += [["query", big, sub] for sub in ("flats", "circuits", "loops")]
        argvs.append(["query", big, "closure", "--subspace", "1"])
        for argv in argvs:
            assert main([str(a) for a in argv]) == 3, argv
            err = capsys.readouterr().err
            assert "exceeds vector cap" in err and "Traceback" not in err
        assert main(["map", str(bad_map), uniform_spec, uniform_spec]) == 2
        assert "prime power" in capsys.readouterr().err

    def test_reducible_base_modulus_exit_1(self, tmp_path, capsys):
        # x^2 + x + 1 = (x + 2)^2 over F_3 is a check failure, not a parse error
        spec = tmp_path / "gf9.json"
        dump_json({"q": 9, "n": 2, "kind": "matrix",
                   "field": {"p": 3, "k": 2, "m": 1, "base_modulus": [1, 1, 1],
                             "ext_modulus": [6, 1]},
                   "rows": [[[1], [0]]]}, str(spec))
        assert main(["build", str(spec)]) == 1
        assert "base modulus [1, 1, 1] reducible over F_3" in capsys.readouterr().err


    def test_huge_ambient_refused_at_once(self, tmp_path, uniform_spec):
        # q^n is neither built nor printed and no Gaussian binomial is
        # summed: n alone passes the vector cap and --caps
        huge, vast, big_map = (tmp_path / name for name in ("huge", "vast", "big_map"))
        dump_json({"q": 2, "n": 100000, "kind": "uniform", "k": 1}, str(huge))
        dump_json({"q": 2, "n": 10 ** 30, "kind": "uniform", "k": 1}, str(vast))
        dump_json({"kind": "matrix", "q": 2, "n1": 10000000, "n2": 1, "rows": [[1]]},
                  str(big_map))
        argvs = [["build", huge], ["build", vast], ["query", huge, "rank", "--subspace", "1"],
                 ["map", big_map, uniform_spec, uniform_spec]]
        script = ("import json, sys, time\n"
                  "from qmatroids.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    start = time.perf_counter()\n"
                  "    code = main(argv)\n"
                  "    print(code, time.perf_counter() - start)\n")
        child = _python("-c", script, json.dumps([[str(a) for a in argv] for argv in argvs]),
                        timeout=60)
        assert "Traceback" not in child.stdout + child.stderr, child.stderr
        runs = [line.split() for line in child.stdout.splitlines()]
        assert [code for code, _ in runs] == ["3"] * len(argvs), child.stderr
        assert all(float(took) < 1 for _, took in runs), runs

    def test_unwritable_output_exit_2(self, tmp_path, uniform_spec, capsys):
        out = str(tmp_path / "missing" / "x.json")
        for argv in (["build", uniform_spec], ["dirsum", uniform_spec, uniform_spec],
                     ["query", uniform_spec, "restrict", "--subspace", "10"],
                     ["query", uniform_spec, "contract", "--subspace", "10"]):
            assert main(argv + ["-o", out]) == 2, argv
            assert f"cannot write {out}" in capsys.readouterr().err

class TestQuery:
    def test_rank(self, blockdiag_spec, capsys):
        assert main(["query", blockdiag_spec, "rank",
                     "--subspace", "1000,0100"]) == 0
        assert "rank = 1" in capsys.readouterr().out

    def test_closure(self, blockdiag_spec, capsys):
        assert main(["query", blockdiag_spec, "closure",
                     "--subspace", "1000,0100"]) == 0
        assert "1000,0100" in capsys.readouterr().out

    def test_circuits_json(self, uniform_spec, capsys):
        assert main(["--format", "json", "query", uniform_spec, "circuits"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["circuits"]) == 1

    def test_loops(self, tmp_path, capsys):
        spec = tmp_path / "t.json"
        dump_json({"q": 2, "n": 2, "kind": "uniform", "k": 0}, str(spec))
        assert main(["query", str(spec), "loops"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_restrict_contract(self, blockdiag_spec, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["query", blockdiag_spec, "restrict",
                     "--subspace", "1000,0100", "-o", str(out)]) == 0
        sub = json.loads(out.read_text())
        assert sub["n"] == 2
        assert main(["query", blockdiag_spec, "contract",
                     "--subspace", "1000,0100", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 2

    def test_flats_dot_matches_cover_relation(self, blockdiag_spec, capsys):
        assert main(["--format", "dot", "query", blockdiag_spec, "flats"]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("digraph")
        M = blockdiag_matroid(2, 4, 2)
        fam = M.flats()
        lat = lattice(2, 4)
        want_edges = set()
        for F in fam.sorted_members:
            for C in fam.covers_of(F):
                want_edges.add((lat.id_of(F), lat.id_of(C)))
        got_edges = set()
        for line in dot.splitlines():
            line = line.strip()
            if "->" in line:
                a, b = line.rstrip(";").split("->")
                got_edges.add((int(a.strip()[1:]), int(b.strip()[1:])))
        assert got_edges == want_edges


class TestMapCommand:
    def test_identity_between_uniform_and_spread(self, tmp_path, capsys):
        from qmatroids.repro import example_nonrepresentable
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        dump_json({"q": 2, "n": 4, "kind": "uniform", "k": 2}, str(m1))
        dump_json(matroid_to_dict(example_nonrepresentable(), materialize=True),
                  str(m2))
        spec = tmp_path / "map.json"
        dump_json({"kind": "matrix", "q": 2, "n1": 4, "n2": 4,
                   "rows": [[1 if i == j else 0 for j in range(4)]
                            for i in range(4)]}, str(spec))
        assert main(["map", str(spec), str(m1), str(m2)]) == 0
        out = capsys.readouterr().out
        assert "weak=True" in out and "strong=False" in out


class TestDirsumCommand:
    def test_sum_artifact_equals_blockdiag(self, uniform_spec, blockdiag_spec,
                                           tmp_path, capsys):
        out = tmp_path / "sum.json"
        assert main(["dirsum", uniform_spec, uniform_spec, "-o", str(out)]) == 0
        summed = matroid_from_dict(json.loads(out.read_text()))
        assert summed.same_rank_table(blockdiag_matroid(2, 4, 2))


class TestIsoCommand:
    def test_not_isomorphic_exit_1(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        dump_json(matroid_to_dict(blockdiag_matroid(2, 4, 1)), str(a))
        dump_json(matroid_to_dict(blockdiag_matroid(2, 4, 2)), str(b))
        assert main(["iso", str(a), str(b)]) == 1
        assert "not isomorphic" in capsys.readouterr().out

    def test_refused_pair_names_the_invariant(self, tmp_path, capsys):
        # N^(1) has three dependent 2-spaces, N^(2) two: no scan is needed
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        dump_json(matroid_to_dict(blockdiag_matroid(2, 4, 1)), str(a))
        dump_json(matroid_to_dict(blockdiag_matroid(2, 4, 2)), str(b))
        assert main(["iso", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "not isomorphic ((dim, rank) histograms differ)" in out
        assert "exhausted" not in out
        assert main(["--format", "json", "iso", str(a), str(b)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"isomorphic": False, "refused": "(dim, rank) histograms differ",
                       "leaves": 0, "nodes": 0, "candidates": 20160}

    def test_isomorphic_exit_0(self, blockdiag_spec, capsys):
        assert main(["iso", blockdiag_spec, blockdiag_spec]) == 0

    def test_zero_ambient_is_isomorphic_to_itself(self, tmp_path, capsys):
        spec = tmp_path / "zero.json"
        dump_json({"q": 3, "n": 0, "kind": "uniform", "k": 0}, str(spec))
        assert main(["iso", str(spec), str(spec)]) == 0
        assert "isomorphic via rows []" in capsys.readouterr().out


class TestReproCommand:
    def test_list(self, capsys):
        assert main(["repro", "list"]) == 0
        out = capsys.readouterr().out
        assert "thm-4-6" in out and "ex-2-2" in out

    def test_run_item_text(self, capsys):
        assert main(["repro", "ex-5-5"]) == 0
        assert "[ex-5-5] PASS" in capsys.readouterr().out

    def test_unknown_item_exit_2(self):
        child = _python("-m", "qmatroids.cli", "repro", "nosuch")
        assert child.returncode == 2
        assert child.stderr.startswith("parse error: unknown repro item 'nosuch'")
        assert "Traceback" not in child.stderr

    def test_run_item_json(self, capsys):
        assert main(["--format", "json", "repro", "thm-4-6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["counters"]["assignment_space"] == 8 ** 9

    def test_jobs_flag(self, capsys):
        assert main(["--jobs", "2", "repro", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 9

    def test_all_json_matches_golden(self, capsys):
        # every report of `repro all`, apart from its wall_time, equal
        # to the one recorded in tests/data/repro_all.json
        assert main(["--format", "json", "repro", "all"]) == 0
        # one indented object per item: only top-level braces start a line
        out = capsys.readouterr().out.strip()
        reports = json.loads("[" + out.replace("}\n{", "},{") + "]")
        for report in reports:
            del report["wall_time"]
        path = os.path.join(os.path.dirname(__file__), "data", "repro_all.json")
        with open(path) as fh:
            assert reports == json.load(fh)


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == "selftest passed\n"


@pytest.mark.parametrize("command, doc", [
    ("build", {"q": 1, "n": 2, "kind": "uniform", "k": 1}),
    ("build", [1, 2]),
    ("build", {"q": 2, "n": 2, "kind": "uniform"}),
    ("map", {"kind": "matrix", "q": 2, "n1": 2, "n2": 2, "rows": [[1, 0]]}),
    ("build", {"q": 6, "n": 2, "kind": "uniform", "k": 1}),
    ("map", {"kind": "matrix", "q": 6, "n1": 1, "n2": 1, "rows": [[1]]}),
    ("map", {"kind": "table", "q": 12, "n1": 1, "n2": 1, "images": list(range(1, 12))}),
    ("build", {"q": 1e400, "n": 2, "kind": "uniform", "k": 1}),
    ("build", {"q": 2, "n": float("inf"), "kind": "uniform", "k": 1}),
    ("build", {"q": 2, "n": 2, "kind": "uniform", "k": float("inf")}),
    ("build", {"q": 2, "n": 1, "kind": "rank_table", "table": [[[], 0], [[[float("inf")]], 1]]}),
    ("build", {"q": 2, "n": 1, "kind": "matrix", "field": {"p": 2, "k": 1, "m": float("inf")},
               "rows": [[[1]]]}),
    ("map", {"kind": "table", "q": 2, "n1": 1, "n2": 2, "images": [float("inf")]}),
    ("build", {"q": 2.9, "n": 2, "kind": "uniform", "k": 1}),
    ("build", {"q": 2, "n": 2, "kind": "uniform", "k": 1.5}),
    ("build", {"q": 2, "n": True, "kind": "uniform", "k": 1}),
    ("build", {"q": "2", "n": 2, "kind": "uniform", "k": 1}),
    ("build", {"q": 2, "n": 1, "kind": "rank_table", "table": [[[], 0], [[[1]], 1.7]]}),
    ("build", {"q": 2, "n": 1, "kind": "matrix", "field": {"p": 2, "k": 1, "m": 1},
               "rows": [[[1.5]]]}),
    ("map", {"kind": "table", "q": 2, "n1": 2, "n2": 2, "images": [1.9, 2, 3]}),
    ("build", {"q": 2, "n": 2, "kind": "matrix",
               "field": {"p": 2, "k": 1, "m": 4, "base_modulus": [1, 1]},
               "rows": [[[1], [0, 1]]]}),
    ("build", {"q": 2, "n": 2, "kind": "matrix",
               "field": {"p": 2, "k": 1, "m": 4, "ext_modulus": [1, 0, 0, 1, 1]},
               "rows": [[[1], [0, 1]]]}),
], ids=["q=1", "top-level list", "uniform without k", "rows short of n1 x n2",
        "q=6 matroid", "q=6 matrix map", "q=12 table map", "q=1e400", "n=Infinity",
        "k=Infinity", "rank-table basis entry Infinity", "matrix field m=Infinity",
        "table map image Infinity", "q=2.9", "k=1.5", "n=true", "q string",
        "rank-table rank 1.7", "matrix coefficient 1.5", "table map image 1.9",
        "base modulus alone", "ext modulus alone"])
def test_malformed_spec_exit_2(command, doc, tmp_path, uniform_spec, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    args = ([command, str(bad)] if command == "build"
            else [command, str(bad), uniform_spec, uniform_spec])
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_usage_error_exit_2(uniform_spec, capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    # a superscript two and an Arabic-Indic one pass str.isdigit
    for text in ("\u00b20", "\u06610"):
        capsys.readouterr()
        assert main(["query", uniform_spec, "rank", "--subspace", text]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")


# the package's modules that have run, as against those only registered
EXECUTED = ("import sys, types; print(*sorted(name for name, module in sys.modules.items() "
            "if name.startswith('qmatroids') and type(module) is types.ModuleType))")


class TestColdStart:
    # qbench/layers.py wraps functions of these modules, reading them from
    # sys.modules right after `import qmatroids.cli`: importing the package
    # registers them in sys.modules, and each is compiled on first use
    EAGER = {"qmatroids.subspaces", "qmatroids.kernels", "qmatroids.qmatroid",
             "qmatroids.maps", "qmatroids.dirsum", "qmatroids.jsonio"}
    # loaded by the commands or classes that use them, not by every command
    LAZY = {"dataclasses", "inspect", "concurrent.futures"}

    def test_cli_import_adds_only_what_every_command_needs(self):
        listing = "import sys; print('\\n'.join(sys.modules))"
        bare = _python("-c", listing)
        cli = _python("-c", "import qmatroids.cli; " + listing)
        executed = _python("-c", "import qmatroids.cli; " + EXECUTED)
        assert bare.returncode == cli.returncode == executed.returncode == 0, (
            bare.stderr + cli.stderr + executed.stderr)
        added = set(cli.stdout.split()) - set(bare.stdout.split())
        assert not added & self.LAZY
        assert self.EAGER | {"qmatroids.repro"} <= added
        assert executed.stdout.split() == ["qmatroids", "qmatroids.cli", "qmatroids.errors",
                                           "qmatroids.jsonio"]

    # a command, its exit code and the modules it must leave unexecuted
    COMMANDS = [
        (["build", "bad_q.json"], 2, {"fields", "subspaces", "kernels", "qmatroid", "maps",
                                      "dirsum", "repro"}),
        (["map", "bad_map.json", "u25.json", "u25.json"], 2,
         {"fields", "subspaces", "kernels", "qmatroid", "maps", "dirsum", "repro"}),
        # a well-formed header over a malformed payload: the caps are
        # checked with the header's q and n alone, by arithmetic in fields
        (["build", "no_k.json"], 2, {"subspaces", "kernels", "qmatroid", "maps", "dirsum",
                                     "repro"}),
        (["map", "short_rows.json", "u25.json", "u25.json"], 2,
         {"subspaces", "kernels", "qmatroid", "maps", "dirsum", "repro"}),
        (["build", "u25.json"], 0, {"maps", "dirsum", "repro"}),
        (["iso", "u25.json", "u251.json"], 1, {"maps", "dirsum", "repro"}),
        (["map", "id5.json", "u25.json", "u25.json"], 0, {"dirsum", "repro"}),
    ]

    @pytest.mark.parametrize("argv,code,skipped", COMMANDS,
                             ids=["malformed build", "malformed map", "build without k",
                                  "map with a short row", "build", "iso", "map"])
    def test_command_executes_only_the_modules_it_calls(self, tmp_path, argv, code, skipped):
        specs = {"bad_q.json": {"q": 1, "n": 2, "kind": "uniform", "k": 1},
                 "bad_map.json": {"kind": "matrix", "q": 1, "n1": 5, "n2": 5, "rows": []},
                 "no_k.json": {"q": 2, "n": 5, "kind": "uniform"},
                 "short_rows.json": {"kind": "matrix", "q": 2, "n1": 2, "n2": 5,
                                     "rows": [[1, 0, 0, 0, 0], [0, 1]]},
                 "u25.json": {"q": 2, "n": 5, "kind": "uniform", "k": 2},
                 "u251.json": {"q": 2, "n": 5, "kind": "uniform", "k": 1},
                 "id5.json": map_to_dict(identity_map(2, 5))}
        for name, spec in specs.items():
            dump_json(spec, str(tmp_path / name))
        child = _python("-c", "import sys; from qmatroids.cli import main; "
                        "print(main(sys.argv[1:])); " + EXECUTED,
                        *(str(tmp_path / a) if a in specs else a for a in argv))
        assert child.returncode == 0, child.stderr
        exit_code, executed = child.stdout.splitlines()[-2:]
        assert int(exit_code) == code
        executed = set(executed.split())
        assert {"qmatroids", "qmatroids.errors", "qmatroids.jsonio", "qmatroids.cli"} <= executed
        assert not executed & {f"qmatroids.{name}" for name in skipped}

    def test_run_as_main_without_warnings(self, uniform_spec):
        # runpy warns of an entry for qmatroids.cli made before it runs it
        child = _python("-W", "error", "-m", "qmatroids.cli", "build", uniform_spec)
        assert child.returncode == 0, child.stderr
        assert child.stderr == ""

    def test_public_names_are_their_submodules_objects(self):
        child = _python("-c", """
import sys
import qmatroids
listed = dir(qmatroids)  # before any name is read
for name in qmatroids.__all__:
    assert name in listed, name
    value = getattr(qmatroids, name)
    home = "qmatroids.repro" if name == "repro" else value.__module__
    assert home.startswith("qmatroids."), (name, home)
    assert value is (sys.modules[home] if name == "repro" else getattr(sys.modules[home], name))
    assert vars(qmatroids)[name] is value, name
print(len(qmatroids.__all__))
""")
        assert child.returncode == 0, child.stderr
        assert int(child.stdout) == len(qmatroids.__all__)

    @pytest.mark.parametrize("statement", [
        "import qmatroids; repro = qmatroids.repro",
        "from qmatroids import repro",
        "from qmatroids import *",
    ])
    def test_repro_loads_on_first_use(self, statement):
        child = _python("-c", f"""
import sys
{statement}
assert repro is sys.modules["qmatroids.repro"] is sys.modules["qmatroids"].repro
print(sorted(repro.ITEMS))
""")
        assert child.returncode == 0, child.stderr
        assert "thm-5-6" in child.stdout

    def test_star_import_binds_no_submodule_but_repro(self):
        child = _python("-c", """
import types
from qmatroids import *
print(*sorted(name for name, value in globals().items()
              if isinstance(value, types.ModuleType) and name[0] != "_"))
""")
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["repro", "types"]

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qmatroids.no_such_name
        assert "repro" in qmatroids.__all__


# ---------------------------------------------------------------------------
# fuzzing the JSON boundary: valid specs, specs with one key replaced,
# dropped or added, and documents that are not objects at all

FUZZ_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                      st.floats(allow_nan=False, allow_infinity=True, width=16),
                      st.dictionaries(st.sampled_from(["p", "k", "m"]), st.integers(-1, 5),
                                      max_size=3))
FUZZ_VALUES = st.one_of(st.integers(-2, 13), FUZZ_JUNK,
                        st.lists(st.one_of(st.integers(-1, 4), st.lists(st.integers(-1, 4),
                                                                        max_size=4)),
                                 max_size=5))
FUZZ_KEYS = ["q", "n", "n1", "n2", "kind", "k", "rows", "field", "table", "members",
             "images", "base_modulus", "ext_modulus"]


def _matroid_bases():
    from qmatroids import make_field
    from qmatroids.jsonio import field_to_dict
    matrix = {"q": 2, "n": 3, "kind": "matrix", "field": field_to_dict(make_field(2, 1, 2)),
              "rows": [[[1, 0], [0, 1], [1, 1]]]}
    return [{"q": 2, "n": 3, "kind": "uniform", "k": 1},
            {"q": 3, "n": 2, "kind": "uniform", "k": 2},
            {"q": 4, "n": 2, "kind": "uniform", "k": 1},
            matrix,
            matroid_to_dict(uniform(2, 2, 1), materialize=True),
            matroid_to_dict(uniform(3, 2, 1), materialize=True),
            {"q": 2, "n": 2, "kind": "flats", "members": [[], [[1, 1]], [[1, 0], [0, 1]]]}]


FUZZ_MAPS = [
    ({"kind": "matrix", "q": 2, "n1": 2, "n2": 3, "rows": [[1, 0, 1], [0, 1, 1]]}, 2, 2, 3),
    ({"kind": "matrix", "q": 3, "n1": 2, "n2": 2, "rows": [[2, 0], [1, 1]]}, 3, 2, 2),
    ({"kind": "table", "q": 2, "n1": 2, "n2": 2, "images": [3, 3, 3]}, 2, 2, 2),
    ({"kind": "table", "q": 2, "n1": 2, "n2": 2, "images": [1, 2, 0]}, 2, 2, 2),
]


@st.composite
def fuzzed(draw, bases):
    spec = dict(draw(st.sampled_from(bases)))
    action = draw(st.sampled_from(["keep", "replace", "drop", "not an object"]))
    if action == "not an object":
        return draw(FUZZ_VALUES)
    if action != "keep":
        key = draw(st.sampled_from(FUZZ_KEYS))
        if action == "drop":
            spec.pop(key, None)
        else:
            spec[key] = draw(FUZZ_VALUES)
    return spec


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code


@settings(max_examples=120, deadline=None, derandomize=True)
@given(fuzzed(_matroid_bases()))
def test_fuzzed_matroid_spec_exit_codes(tmp_path_factory, spec):
    path = tmp_path_factory.getbasetemp() / "fuzz_matroid.json"
    path.write_text(json.dumps(spec))
    _run_cli(["build", str(path)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(FUZZ_MAPS).flatmap(
    lambda base: st.tuples(fuzzed([base[0]]), st.just(base[1:]))))
def test_fuzzed_map_spec_exit_codes(tmp_path_factory, case):
    spec, (q, n1, n2) = case
    root = tmp_path_factory.getbasetemp()
    paths = [root / name for name in ("fuzz_map.json", "fuzz_m1.json", "fuzz_m2.json")]
    for path, doc in zip(paths, (spec, {"q": q, "n": n1, "kind": "uniform", "k": 1},
                                 {"q": q, "n": n2, "kind": "uniform", "k": 1})):
        path.write_text(json.dumps(doc))
    _run_cli(["map"] + [str(p) for p in paths])
