"""Every benchmark op's outcome, byte for byte, against its recorded digest.

``perfbench/digests.json`` holds a digest of the outcome of every op any
benchmark seed can draw: the structured CLI output or the rendered library
result.  Speed work must not change a result, so each outcome must pass its
op's identity check and match its digest here, without a benchmark run.
"""

import importlib
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _workloads():
    sys.path.insert(0, PERFBENCH)  # workloads imports corpus as a top-level module
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)


workloads = _workloads()
with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as handle:
    DIGESTS = json.load(handle)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_op_outcome_matches_its_recorded_digest(name, tmp_path, monkeypatch):
    # the benchmark passes every bound as a flag; an inherited default would change results
    monkeypatch.delenv("SCATTERKIT_MAX_POINTS", raising=False)
    recorded = DIGESTS[name]
    for op in workloads.WORKLOADS[name].all_ops(str(tmp_path)):
        outcome = op.run()
        assert op.check(outcome), (op.id, outcome[:300])
        assert workloads.digest(outcome) == recorded[op.id], (op.id, outcome[:300])
