"""End-to-end smoke: every registered experiment runs and renders.

Each rendered report is also pinned by the SHA-256 of its UTF-8 bytes in
``tests/golden/experiments.json``.  Regenerate after an intentional
output change with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_registry_all.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.experiments import REGISTRY, run_experiment

GOLDEN = Path(__file__).parent / "golden" / "experiments.json"


def _digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        payload = {eid: _digest(run_experiment(eid)) for eid in REGISTRY}
        GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True)
                          + "\n")
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_registry(golden):
    assert sorted(golden) == sorted(REGISTRY)


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_experiment_runs_and_renders(experiment_id, golden):
    output = run_experiment(experiment_id)
    assert isinstance(output, str)
    assert len(output.strip()) > 20
    # Rendered tables/bars always carry multiple lines.
    assert "\n" in output
    assert _digest(output) == golden[experiment_id], output


def test_registry_descriptions_unique_and_present():
    descriptions = [e.description for e in REGISTRY.values()]
    assert all(descriptions)
    assert len(set(descriptions)) == len(descriptions)


def test_cli_run_all(capsys):
    from repro.cli import main
    assert main(["run", "all"]) == 0
    out = capsys.readouterr().out
    for experiment_id in REGISTRY:
        assert f"{experiment_id}:" in out


def test_cli_export(tmp_path, capsys):
    from repro.cli import main
    path = str(tmp_path / "fig3.csv")
    assert main(["export", "fig3", path]) == 0
    with open(path) as handle:
        header = handle.readline()
    assert header.startswith("label,")


def test_cli_export_rejects_non_row_experiment(tmp_path, capsys):
    from repro.cli import main
    assert main(["export", "fig4", str(tmp_path / "x.csv")]) == 2
