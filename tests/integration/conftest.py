"""Fixtures shared by the integration suite."""

import functools

import pytest

from repro.scenarios import get_scenario, run_scenario


@pytest.fixture(scope="session")
def first_run():
    """``first_run(name)``: the named library scenario run at its
    library seed — once per session however many tests ask.

    The golden-digest suite and the invariants/replay suite both start
    from this run (``cache_offload_star`` alone is ~17 s each time);
    sharing it drops no assertion, and the replay test's *second* run
    stays a real one.  A :class:`~repro.scenarios.ScenarioResult` is
    plain data, so the cache keeps no cluster alive.
    """
    return functools.lru_cache(maxsize=None)(
        lambda name: run_scenario(get_scenario(name))
    )
