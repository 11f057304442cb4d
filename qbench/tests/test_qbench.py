"""Tests of the benchmark itself: its model, its checks and its runs.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q qbench/tests
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import qmatroids as qm  # noqa: E402

import gen  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import model  # noqa: E402
import wl_search  # noqa: E402
import wl_session  # noqa: E402

SEED = 7


# ---------------------------------------------------------------- the model

@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3)])
def test_model_lattice_counts_match_gaussian_binomials(q, n):
    lat = model.lattice(q, n)
    for d in range(n + 1):
        assert lat.dims.count(d) == model.gaussian_binomial(n, d, q)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_gl_order_counts_invertible_matrices(q, n):
    A = model.ambient(q, n)
    count = sum(A.is_invertible([list(entries[i * n:(i + 1) * n]) for i in range(n)])
                for entries in itertools.product(range(q), repeat=n * n))
    assert count == model.gl_order(n, q)


def test_model_ranks_agree_with_program_on_representable_matroids():
    import random
    rng = random.Random(SEED)
    for q, n, k, m in [(2, 4, 2, 4), (3, 3, 2, 3)]:
        M = gen.representable(rng, q, n, k, m)
        lat, rv = model.lattice(q, n), gen.program_matroid(qm, M).rank_vector()
        for i, S in enumerate(qm.lattice(q, n).spaces):
            assert M.ranks[lat.index[lat.amb.of_rows(S.basis)]] == rv[i]


# ------------------------------------------------------- the checks bite

@pytest.fixture(scope="module")
def search():
    w = wl_search.Workload(SEED, qm)
    harness.time_steps(w.setup_steps())
    return w


def _looped_op(w, **overrides):
    (P1, P2), (M, A, ranks2) = w.p_iso[-1], w.iso_pairs[-1]
    kwargs = dict(prune=True, expect_iso=True)
    kwargs.update(overrides)
    return w.iso_op("looped (3,4)", P1, P2, M, gen.table(3, 4, ranks2), **kwargs)


def test_unchanged_ops_pass(search):
    for op in search.ops():
        assert harness.execute(op)[1] is None, op.name


def test_wrong_expected_verdict_fails(search):
    assert harness.execute(_looped_op(search, expect_iso=False))[1] is not None


def test_witness_with_one_row_altered_fails(search):
    op = _looped_op(search)
    run = op.run

    def altered():
        witness, stats = run()
        A = witness.linear_matrix
        rows = [list(A.row(i)) for i in range(A.rows)]
        # e1 is a loop, so its image must stay in the target's loop space;
        # adding the image of e3 (outside that space) moves it out
        rows[0] = [(x + y) % 3 for x, y in zip(rows[0], rows[2])]
        return gen.program_map(qm, 3, rows), stats

    op.run = altered
    failure = harness.execute(op)[1]
    assert failure is not None and "witness" in failure


def _miscounted(op, delta):
    run = op.run

    def miscounted():
        witness, stats = run()
        return witness, dict(stats, leaves=stats["leaves"] + delta)

    op.run = miscounted
    return op


def test_wrong_leaf_count_fails(search):
    def cert():
        return search.iso_op("cert", *search.p_cert, *search.cert_pair, prune=False,
                             expect_iso=False)

    assert harness.execute(cert())[1] is None
    assert "leaves" in harness.execute(_miscounted(cert(), -1))[1]
    assert "leaves" in harness.execute(_miscounted(cert(), +1))[1]


def test_pruned_search_may_visit_fewer_leaves_but_not_more(search):
    (P1, P2), (M, U) = search.p_generic[0], search.generic_pairs[0]

    def pruned():
        return search.iso_op("generic", P1, P2, M, U, prune=True, expect_iso=False)

    assert harness.execute(_miscounted(pruned(), -1000))[1] is None
    assert "leaves" in harness.execute(_miscounted(pruned(), model.gl_order(3, 3)))[1]


def test_accepted_perturbed_table_fails():
    w = wl_session.Workload(SEED, qm)
    harness.time_steps(w.setup_steps())
    op = next(op for op in w.ops() if op.name.startswith("perturbed"))
    assert harness.execute(op)[1] is None
    M = w.perturbed[0][0]
    valid = gen.program_matroid(qm, M).rank_table()
    w.p_tables[0] = valid
    assert "accepted" in harness.execute(op)[1]


def test_known_fault_is_counted_but_keeps_run_correct():
    def boom():
        raise ValueError("fault")

    ops = [harness.Op("fault", boom, lambda a: None, known_fault=True),
           harness.Op("ok", lambda: 1, lambda a: harness.expect(a == 1, "wrong"))]
    res = harness.run_rounds(ops, 0)
    assert (res.attempted, res.failed, res.correct) == (2, 1, True)
    ops.append(harness.Op("wrong", lambda: 2, lambda a: harness.expect(a == 1, "wrong")))
    res = harness.run_rounds(ops, 0)
    assert (res.failed, res.correct) == (2, False)


# ------------------------------------------------------ whole runs, reduced

def _run(workload, trace=0, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script, "--workload", workload, "--seed",
                           str(SEED), "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload,failed", [("search", 0), ("session", 0), ("cli", 4)])
def test_one_round_runs_to_the_end(workload, failed):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == failed, record["unexpected"]
    assert result["attempted"] == record["ops_per_round"]
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["backend"] == qm.kernels.BACKEND


def test_traced_run_reports_every_layer():
    proc = _run("search", trace=1)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(x) for x in proc.stdout.strip().splitlines()[-2:])
    assert set(result["metrics"]) == set(layers.LAYERS)
    assert record["counts_repeat"]
    m = result["metrics"]
    assert m["qmatroid.iso_leaves"]["unit"] == "count"
    assert m["qmatroid.iso_leaves"]["value"] >= 3 * model.gl_order(4, 2)
    assert m["kernels.gl2_iso_search_s"]["value"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "qbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("search", cwd=tmp_path, script=str(tmp_path / "qbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
