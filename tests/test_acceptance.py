"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (run with -s to stream them) and
asserts both the verdict and the stated runtime budget. The criteria come
from one shared run of the battery (the `acceptance_run` fixture).
"""

from fractions import Fraction

from qvbs import transfercorr, vbsstate
from qvbs.qnum import RatQ, q_integer


def _report(n, acceptance_run, limit_s):
    rep = acceptance_run[0]["items"][n - 1]
    seconds = acceptance_run[1][n - 1]
    assert rep["criterion"] == n
    line = "ACCEPTANCE %d %-24s %s  (%.2fs, limit %ds)" % (
        n, rep["id"], "PASS" if rep["passed"] else "FAIL", seconds, limit_s)
    print(line)
    assert rep["passed"], rep
    assert seconds < limit_s, "runtime budget exceeded: %s" % line
    return rep


def test_criterion_1_spectrum_s2(acceptance_run):
    rep = _report(1, acceptance_run, 1)
    assert rep["details"]["tolerance"] == 1e-10
    assert len(rep["details"]["points"]) == 5
    iso = [p for p in rep["details"]["points"] if p["q"] == "1"][0]
    assert [(round(v), m) for v, m in iso["groups"]] == [(40, 1), (-20, 3), (4, 5)]


def test_criterion_2_eigenvalue_conjecture(acceptance_run):
    rep = _report(2, acceptance_run, 10)
    assert rep["details"]["exact_s2"] is True
    assert len(rep["details"]["numeric"]) == 15  # S in {3,4,5} x five q points
    assert rep["details"]["tolerance"] == 1e-9


def test_criterion_3_divisibility(acceptance_run):
    rep = _report(3, acceptance_run, 60)
    rows = rep["details"]["vectors"]
    assert len(rows) == sum((S + 1) ** 2 for S in (1, 2, 3, 4))
    assert all(r["remainder_zero"] for r in rows)
    assert rep["details"]["spin2_quotients_match"] is True


def test_criterion_4_ground_state(acceptance_run):
    rep = _report(4, acceptance_run, 120)
    cases = rep["details"]["cases"]
    pbc = [(c["S"], c["L"]) for c in cases if c["boundary"] == "periodic"]
    assert pbc == [(1, 6), (2, 5), (3, 4)]
    assert sum(1 for c in cases if c["boundary"] == "open") == 9
    assert rep["details"]["control_nonzero"] is True


def test_criterion_5_mps_equivalence(acceptance_run):
    rep = _report(5, acceptance_run, 60)
    cases = rep["details"]["cases"]
    pbc = [(c["S"], c["L"]) for c in cases if c["boundary"] == "periodic"]
    assert pbc == [(S, L) for S in (1, 2) for L in (3, 4, 5, 6)]
    assert all(c.get("gauge_equal", True) for c in cases)
    open_case = [c for c in cases if c["boundary"] == "open"][0]
    assert open_case["ratio_constant"] is True


def test_criterion_6_sz_distribution(acceptance_run):
    rep = _report(6, acceptance_run, 5)
    d = rep["details"]
    assert d["exact_identities"] and d["sum_exact_one"] and d["isotropic_uniform"]
    assert all(abs(row["sum"] - 1) < 1e-14 for row in d["sums"])
    assert len(d["sums"]) == 7  # q = 0.5 .. 2.0 in steps of 0.25


def test_criterion_7_closed_form_correlators(acceptance_run):
    rep = _report(7, acceptance_run, 5)
    d = rep["details"]
    assert d["tolerance"] == 1e-9
    assert len(d["comparisons"]) == 2 * 3 * 7  # S in {2,3}, three q, r=2..8
    assert d["isotropic_limits"] is True
    flag = d["thermo_form_flag"]
    assert flag["printed_variant_consistent"] is False
    assert abs(flag["implemented_form"] - flag["finite_L200"]) < 1e-10


def test_criterion_8_oracle_closure(acceptance_run):
    rep = _report(8, acceptance_run, 30)
    d = rep["details"]
    assert all(row["match"] for row in d["dense_comparisons"])
    assert {row["r"] for row in d["dense_comparisons"]} == {2, 3, 4, 5}
    assert d["convergence"][-1]["L"] == 200
    assert d["convergence"][-1]["abs_diff"] < 1e-10


def test_criterion_9_algebra(acceptance_run):
    rep = _report(9, acceptance_run, 10)
    d = rep["details"]
    assert d["commutators"] and d["boson_relations"] and d["product_identity_m_le_6"]


def test_full_battery_summary():
    # spot re-checks on top of the per-criterion runs above
    i2, i4, i5 = q_integer(2), q_integer(4), q_integer(5)
    assert transfercorr.conjectured_eigenvalue(2, 0) == RatQ(i5 * i4 * i2)
    assert vbsstate.two_site_kernel_dimension(3) == 16
    probs = transfercorr.sz_distribution(2, Fraction(1, 2))
    assert abs(sum(probs) - 1) < 1e-14
