"""The golden CLI runs of ``golden_runs`` against their committed outputs."""

import json

import golden_runs
from conftest import replayed_objective


def test_golden_runs_reproduce_the_committed_outputs(tmp_path):
    golden_runs.run(tmp_path)
    expected = golden_runs.outputs(golden_runs.GOLDEN_DIR)
    assert golden_runs.moved(expected, golden_runs.outputs(tmp_path)) == []
    # Every trace replays to its final objective against the target it names,
    # the xy layered ones (whose cost terms do not commute) and truncated ones too.
    flavors = set()
    for path in sorted((tmp_path / "out" / "traces").glob("*.json")):
        payload = json.loads(path.read_text())
        value = replayed_objective(payload)
        assert abs(value - payload["final_objective"]) <= 1e-12, path.name
        flavors.add(payload["flavor"])
    assert flavors == {"vqe", "qaoa", "baseline"}
