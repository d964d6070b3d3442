import pytest

from qvbs import suites


@pytest.fixture(scope="session")
def acceptance_run():
    """One run of the full acceptance battery, shared by every test that
    reads it: (report, progress lines)."""
    lines = []
    rep = suites.run_acceptance(seed=0, progress=lines.append)
    return rep, lines
