import pytest

from qvbs import suites, transfercorr
from qvbs.qnum import Batch


@pytest.fixture(scope="session")
def acceptance_run():
    """One run of the full acceptance battery, shared by every test that
    reads it: (report, each criterion's seconds as the runner timed it)."""
    seconds = []
    rep = suites.run_acceptance(
        seed=0, progress=lambda item, s: seconds.append(s))
    return rep, seconds


@pytest.fixture
def slipped_rule(monkeypatch):
    """Serve a copy of _entry_rule(S) with one entry of one row changed, to
    every consumer of the shared closed form."""
    def slip(S, row, col, change):
        rule = transfercorr._entry_rule(S).copy()
        rule[row, col] = change(rule[row, col])
        monkeypatch.setattr(transfercorr, "_entry_rule", lambda S: rule)
    return slip


@pytest.fixture
def batches_built(monkeypatch):
    """The polynomials of every qnum.Batch constructed while the test
    runs, one list per batch."""
    built = []
    init = Batch.__init__

    def spy(self, polys):
        polys = list(polys)
        built.append(polys)
        init(self, polys)
    monkeypatch.setattr(Batch, "__init__", spy)
    return built
