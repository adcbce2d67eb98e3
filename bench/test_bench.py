"""Tests of the benchmark's own derivations, on tiny sweeps (n_data = 2).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import derive  # noqa: E402
from spec import WORKLOADS  # noqa: E402
from tracing import Tracer, install_layer_spans  # noqa: E402

import gibbsprep  # noqa: E402
from gibbsprep import cli, harness, models, simcore  # noqa: E402

TINY_VQE = ["vqe-gibbs", "--n_data", "2", "--n_ancilla", "1",
            "--beta_inv_list", "1.0,2.0", "--restarts", "3", "--master_seed", "5"]
TINY_LAYERED = ["--n_data", "2", "--beta_inv_list", "1.5", "--restarts", "2",
                "--layer_budget", "1", "--master_seed", "5"]


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def replay_fidelity(trace: dict, row: dict) -> float:
    state = harness.replay_state(trace, row["n_data"], row["n_ancilla"])
    target = models.gibbs_state(
        harness.MODEL_BUILDERS[row["model"]](row["n_data"]), 1.0 / row["beta_inv"]
    )
    return simcore.fidelity(simcore.partial_trace_ancilla(state), target.as_density_matrix())


@pytest.fixture(scope="module")
def vqe_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("vqe")
    printed = run_cli(TINY_VQE + ["--out", str(out)])
    return out, printed


def check(out: Path, printed: str, algorithm="vqe", cells=2, restarts=3, exit_code=0):
    rows = derive.read_results_csv(out / "results.csv")
    traces, _ = derive.read_traces(out / "traces")
    return derive.check_sweep(
        algorithm, rows, traces, derive.parse_printed(printed),
        cells, restarts, exit_code, replay_fidelity,
    )


def test_csv_and_traces_agree_with_what_the_cli_printed(vqe_sweep):
    out, printed = vqe_sweep
    rows = derive.read_results_csv(out / "results.csv")
    shown = derive.parse_printed(printed)
    assert sorted(shown) == sorted(r["run_id"] for r in rows)
    for row in rows:
        assert shown[row["run_id"]]["fidelity"] == pytest.approx(row["fidelity"], abs=6e-7)
        assert shown[row["run_id"]]["cnots"] == row["cnot_count"]
    traces, size = derive.read_traces(out / "traces")
    assert size > 0
    assert sum(len(group) for group in traces.values()) == 2 * 3
    assert check(out, printed) == {"attempted": 6, "failed": 0, "errors": []}


def test_failed_restarts_are_counted_from_trace_files(vqe_sweep, tmp_path):
    out, printed = vqe_sweep
    copy = tmp_path / "copy"
    (copy / "traces").mkdir(parents=True)
    (copy / "results.csv").write_text((out / "results.csv").read_text())
    spare = None
    for path in (out / "traces").glob("*.json"):
        (copy / "traces" / path.name).write_text(path.read_text())
        if not json.loads(path.read_text())["postselected"]:
            spare = path.name
    (copy / "traces" / spare).unlink()
    result = check(copy, printed)
    assert (result["attempted"], result["failed"]) == (6, 1)
    assert result["errors"] == ["vqe: 1 of 6 restarts wrote no trace"]

    aborted = check(copy, printed, exit_code=3)
    assert (aborted["attempted"], aborted["failed"]) == (6, 6)


def test_a_row_that_fails_a_check_fails_its_restart(vqe_sweep):
    out, printed = vqe_sweep
    rows = derive.read_results_csv(out / "results.csv")
    traces, _ = derive.read_traces(out / "traces")
    rows[0]["fidelity"] = rows[0]["max_fidelity_bound"] + 1e-3
    result = derive.check_sweep(
        "vqe", rows, traces, derive.parse_printed(printed), 2, 3, 0, replay_fidelity
    )
    assert result["failed"] == 1
    assert any("above rank bound" in e for e in result["errors"])
    assert any("replayed fidelity" in e for e in result["errors"])


def test_layered_sweeps_sharing_a_directory_are_checked_per_algorithm(tmp_path):
    qaoa = run_cli(["qaoa-gibbs", *TINY_LAYERED, "--out", str(tmp_path)])
    base = run_cli(["baseline", *TINY_LAYERED, "--out", str(tmp_path)])
    for algorithm, printed in (("qaoa", qaoa), ("baseline", base)):
        result = check(tmp_path, printed, algorithm, cells=1, restarts=2)
        assert result == {"attempted": 2, "failed": 0, "errors": []}


def span(name, start, end, parent, info=None):
    return [name, start, end, parent, info]


def test_scan_remainder_subtracts_bfgs_and_fidelity_and_adds_the_final_scan():
    info = {
        "flavor": "vqe", "n_data": 2, "n_ancilla": 1, "termination": "threshold",
        "step_ms": [5.0, 100.0, 200.0], "objectives": [0.0, -1.0, -1.0],
    }
    spans = [
        span("restart", 0.0, 0.400, -1, info),
        span("adapt.fidelity", 0.001, 0.002, 0),          # step 0
        span("adapt.optimize_fixed_ansatz", 0.030, 0.090, 0, {"nit": 4}),
        span("adapt.ansatz_value_and_gradient", 0.031, 0.080, 2),
        span("adapt.fidelity", 0.092, 0.097, 0),          # step 1
        span("adapt.optimize_fixed_ansatz", 0.150, 0.290, 0, {"nit": 6}),
        span("adapt.fidelity", 0.291, 0.300, 0),          # step 2
    ]
    (rest,) = derive.scan_remainders(spans)
    # 300 ms of steps - 60 - 140 ms BFGS - 5 - 9 ms fidelity + 100 ms final scan
    assert rest["ms"] == pytest.approx(300 - 60 - 140 - 5 - 9 + 100)
    assert (rest["scans"], rest["steps"], rest["improving"]) == (3, 2, 1)

    metrics = derive.layer_metrics(spans, cell_ms_sum=400.0, scan_words=lambda *a: 36)
    assert metrics["adapt.bfgs.nit"] == 10
    assert metrics["adapt.scan.words"] == 3 * 36
    assert metrics["adapt.valgrad.calls"] == 1
    assert metrics["adapt.optimize.share"] == pytest.approx((200 - 49) / 400)
    assert metrics["trace.attributed_frac"] == pytest.approx((200 + 15 + 186) / 400)


def test_traced_tiny_sweep_accounts_for_the_cell_time(tmp_path):
    tracer = Tracer()
    original = gibbsprep.adapt.ansatz_value_and_gradient
    install_layer_spans(tracer, gibbsprep)
    try:
        run_cli(TINY_VQE + ["--out", str(tmp_path)])
    finally:
        tracer.restore()
    assert gibbsprep.adapt.ansatz_value_and_gradient is original
    rows = derive.read_results_csv(tmp_path / "results.csv")
    traces, _ = derive.read_traces(tmp_path / "traces")
    steps = sum(len(t["records"]) - 1 for g in traces.values() for t in g)
    at_threshold = sum(t["termination"] == "threshold" for g in traces.values() for t in g)
    metrics = derive.layer_metrics(
        tracer.spans, sum(r["wall_ms"] for r in rows), lambda *a: 36
    )
    assert metrics["adapt.growth_steps"] == steps
    assert metrics["adapt.scan.count"] == steps + at_threshold
    assert metrics["adapt.valgrad.calls"] > 0
    assert 0.8 < metrics["trace.attributed_frac"] <= 1.0


def test_benchmark_json_lists_the_workloads_with_their_reasons():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
