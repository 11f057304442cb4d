"""The named reproduction items: every one passes, deterministically."""

import pytest

from qmatroids import repro
from qmatroids.errors import ExtensionTooSmall, IndexNotInOmega, SearchBoundExceeded


@pytest.mark.parametrize("item", sorted(repro.ITEMS))
def test_item_passes(item):
    rep = repro.run_item(item)
    assert rep.passed, rep.summary()


def test_unknown_item():
    with pytest.raises(KeyError):
        repro.run_item("no-such-item")


def test_blockdiag_rejects_index_outside_omega():
    with pytest.raises(IndexNotInOmega):
        repro.blockdiag_matroid(2, 4, 15)
    with pytest.raises(IndexNotInOmega):
        repro.blockdiag_matroid(3, 2, 4)  # 4 = (9-1)/(3-1) lands in the base


def test_fprime_needs_m_at_least_4():
    with pytest.raises(ExtensionTooSmall):
        repro.fprime(2, 3)


def test_reports_deterministic():
    a = repro.run_item("thm-4-5")
    b = repro.run_item("thm-4-5")
    assert a.checks == b.checks
    assert a.counters == b.counters


def test_factor_search_order_independent():
    # permuted branching orders must reach the same verdict, each after
    # its pinned number of nodes
    base = repro.verify_thm_nonlinear_noncoproduct(2)
    assert base.passed
    assert (base.counters["nodes"], base.counters["sanity_nodes"]) == (16, 99)
    for perm, nodes in (([8, 7, 6, 5, 4, 3, 2, 1, 0], 16), ([4, 0, 8, 2, 6, 1, 5, 3, 7], 32)):
        rep = repro.verify_thm_nonlinear_noncoproduct(2, branch_perm=perm)
        assert rep.passed
        assert [c[:2] for c in rep.checks] == [c[:2] for c in base.checks]
        assert (rep.counters["nodes"], rep.counters["sanity_nodes"]) == (nodes, 99)


def test_thm_4_6_search_is_fixed_to_q2():
    with pytest.raises(SearchBoundExceeded):
        repro.verify_thm_nonlinear_noncoproduct(3)


def test_thm_4_6_certificate_counters():
    rep = repro.verify_thm_nonlinear_noncoproduct(2)
    assert rep.counters["free_slots"] == 9
    assert rep.counters["assignment_space"] == 8 ** 9
    assert rep.counters["nodes"] > 0


def test_thm_4_5_gl_certificate():
    rep = repro.verify_thm_linear_noncoproduct(2, 4)
    assert rep.counters["gl_candidates"] == 20160
    assert rep.counters["gl_leaves"] == 20160  # unpruned exhaustive run


def test_blockdiag_q3_dichotomy_sweep():
    # the L_2 dichotomy extends to q = 3, m = 4 (flats formula sampled)
    from qmatroids.fields import omega_index_set
    spec = repro._field_for(3, 4)
    omega = sorted(omega_index_set(spec))
    assert len(omega) == 78
    for i in (1, 2, 5, 40 - 1):
        rep = repro.verify_blockdiag(3, 4, i, check_flats=(i == 2))
        assert rep.passed, rep.summary()


def test_coproduct_suite_at_q3():
    # at q = 3 the embeddings factor through the (q - 1)^2 = 4 blockwise
    # scalings of eps, found among all 3^16 linear maps of F_3^4
    rep = repro.verify_coproduct_suite(3, 4)
    assert rep.passed, rep.summary()
    assert rep.counters["exhaustive_linear_maps"] == 3 ** 16


def test_blockdiag_embeddings_mixed_blocks():
    # identity block over the base field next to a (1, w) block
    from qmatroids import make_field
    spec = make_field(2, 1, 4)
    w = spec.omega_val
    rep = repro.verify_blockdiag_embeddings(
        2, 4, g1_rows=[[1, 0], [0, 1]], g2_rows=[[1, w]])
    assert rep.passed, rep.summary()


def test_verify_blockdiag_dependent_case_witness():
    rep = repro.verify_blockdiag(2, 4, 1)
    assert rep.passed
    names = [c[0] for c in rep.checks]
    assert "dependency_witness_rank_1" in names


def test_ex_2_2_spot_values():
    M = repro.example_nonrepresentable()
    from qmatroids import row_space
    assert M.rank(row_space(2, 4, [(1, 0, 0, 1), (0, 1, 1, 1)])) == 1
    assert M.rank(row_space(2, 4, [(1, 0, 1, 1), (0, 1, 1, 0)])) == 1
    assert M.matroid_rank == 2


def test_summary_format():
    rep = repro.run_item("ex-5-5")
    text = rep.summary()
    assert text.startswith("[ex-5-5] PASS")
    assert "subspaces_compared = 67" in text
