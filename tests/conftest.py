"""Shared fixtures.

The exhaustive sweeps are the slowest thing in the suite, so they run once
per session and every test reads from the same report map.
"""

import pytest

from large_atlas import sweep

# The only sweeps that disagree with their checked-in golden, each by the
# extra members listed.  test_acceptance keeps one strict xfail per case.
KNOWN_DIFFS = {
    "psu-c2-t3": [(31,)],
    "pso-c2-go-wr": [(2, 2, 6, "-", "+")],
}


@pytest.fixture(scope="session")
def sweep_reports():
    return {r.case_id: r for r in sweep.run_all()}


@pytest.fixture(scope="session")
def known_diffs():
    return KNOWN_DIFFS
