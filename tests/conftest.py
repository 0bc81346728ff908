"""Test-wide isolation for the runner subsystem.

The result cache and run manifests are durable by design; tests must not
read a developer's warm cache (a stale entry could mask a regression) nor
litter the repository with ``runs/`` manifests.  Point both at
session-scoped temporary directories before anything imports them.
"""

import pytest

from repro.experiments import common
from repro.runner import cache


@pytest.fixture(autouse=True, scope="session")
def _isolated_runner_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runner")
    mp = pytest.MonkeyPatch()
    mp.setenv(cache.CACHE_DIR_ENV, str(root / "cache"))
    mp.setenv("REPRO_RUNS_DIR", str(root / "runs"))
    cache.reset_cache()
    getattr(common, "clear_memo", lambda: None)()
    yield
    mp.undo()
    cache.reset_cache()
    getattr(common, "clear_memo", lambda: None)()


@pytest.fixture
def run_counted(monkeypatch):
    """Run a callable as a registered experiment through ``run_one``.

    Returns ``(ExperimentResult.counters, the callable's return value)``,
    so tests read operating-point counts exactly as the run manifest
    records them.
    """
    from repro.experiments.registry import REGISTRY, Experiment
    from repro.runner.executor import run_one

    def run(fn):
        box = []
        monkeypatch.setitem(REGISTRY, "probe", Experiment(
            "probe", "operating-point counter probe",
            lambda: box.append(fn()), lambda _result: ""))
        result = run_one("probe", use_result_cache=False)
        assert result.ok, result.error
        return result.counters, box[0]

    return run
