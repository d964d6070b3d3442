import json
import re
from pathlib import Path

import pytest

from qvbs import suites


def test_symmetries_suite():
    rep = suites.suite_symmetries()
    assert rep["passed"]
    d = rep["details"]
    assert d["translation_exact"] is True
    assert all(r["match"] for r in d["bar_symmetry"])
    assert all(r["exact"] for r in d["spin_flip"])
    # unique closed-chain ground state at the measured sizes
    assert all(r["kernel_dim"] == 1 for r in d["pbc_kernel_dims_measured"])
    # finite-size error shrinks monotonically from the first measured size on
    assert d["monotone_from_index"] == 0


@pytest.mark.parametrize("order", ((0, 2, 1), (0, 1, 1)),
                         ids=("swapped", "repeated"))
def test_spectrum_suite_rejects_misplaced_levels(monkeypatch, order):
    # levels 1 and 2 swapped put multiplicity 5 on level 1 and 3 on level 2;
    # level 1 in place of level 2 leaves five eigenvalues unmatched
    printed = suites._printed_s2()
    monkeypatch.setattr(suites, "_printed_s2",
                        lambda: [printed[i] for i in order])
    rep = suites.suite_spectrum_s2()
    assert rep["passed"] is False
    assert [pt["match"] for pt in rep["details"]["points"]] == [False] * 5


def test_suite_registry_complete():
    assert set(suites.SUITE_BY_NAME) == {
        "spectrum", "conjecture", "divisibility", "groundstate", "mps",
        "szdist", "correlators", "oracle", "algebra", "symmetries",
        "certificates",
    }
    assert len(suites.ACCEPTANCE_SUITES) == 9
    assert set(suites.ACCEPTANCE_SUITES) <= set(suites.SUITE_BY_NAME)


def test_readme_lists_exactly_the_registered_suites():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"runs a single suite; names:(.*?)\.", readme, re.S)
    assert listed, "README no longer lists the suite names"
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert sorted(names) == sorted(suites.SUITE_BY_NAME)


def test_run_acceptance_shape(acceptance_run):
    rep, seconds = acceptance_run
    assert rep["passed"]
    assert [it["criterion"] for it in rep["items"]] == list(range(1, 10))
    assert len(seconds) == 9
    # the runner hands each criterion's time to progress; reports hold none
    assert "elapsed_s" not in json.dumps(rep)


def test_certificates_suite():
    rep = suites.suite_exact_certificates()
    assert rep["passed"]
    assert [r["S"] for r in rep["details"]["spectrum_certificates"]] == [1, 2, 3, 4]
    assert all(r["proved"] for r in rep["details"]["spectrum_certificates"])
    assert all(r["solution_space_identified"]
               for r in rep["details"]["two_site_lemma"])
