"""Recompute ``POST /grid`` bodies for the grid workload's byte check.

Usage: ``PYTHONPATH=src python e2ebench/verify_grid.py SPECS.json``

Prints a JSON list with, per spec, the sha256 of
``render_json(ProfilingService().grid_payload(...))`` and the number of
failed grid rows.  Run in its own process on a fresh cache, so a served
body is checked against an independent computation.
"""

import hashlib
import json
import sys

from repro.serve.service import ProfilingService, render_json


def main(path: str) -> int:
    service = ProfilingService()
    out = []
    for spec in json.loads(open(path).read()):
        payload = service.grid_payload(*service.parse_grid_spec(spec))
        out.append({
            "sha256": hashlib.sha256(render_json(payload)).hexdigest(),
            "failed": payload["failed"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
