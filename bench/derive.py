"""Derivations from a sweep's artifacts and from recorded spans.

Everything here is plain data in, plain data out: the CSV and trace files a
sweep wrote, the lines ``gibbsprep.cli.main`` printed, and the span list of
:mod:`tracing`. Nothing imports gibbsprep, so a refactoring of the package's
private helpers cannot break the benchmark.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

RANK_BOUND_SLACK = 1e-6
REPLAY_TOLERANCE = 1e-9
PRINTED_TOLERANCE = 6e-7  # the CLI prints fidelity and bound with 6 decimals
IMPROVEMENT = 1e-12
TABLE_BYTES_PER_AMPLITUDE = 24  # int64 source index + complex128 phase

_INT_COLUMNS = ("n_data", "n_ancilla", "seed", "iteration_index", "cnot_count")
_FLOAT_COLUMNS = (
    "beta_inv",
    "objective",
    "fidelity",
    "pool_grad_norm",
    "max_fidelity_bound",
    "wall_ms",
)
_PRINTED = re.compile(
    r"^(\S+): beta_inv=(\S+) fidelity=(\S+) bound=(\S+) cnots=(\d+)$"
)


def read_results_csv(path: Path) -> list[dict]:
    """Rows of a results CSV, numeric columns converted; '#' lines skipped."""
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for key in _INT_COLUMNS:
            row[key] = int(row[key])
        for key in _FLOAT_COLUMNS:
            row[key] = float(row[key])
        row["algorithm"] = row["run_id"].split("_", 1)[0]
        rows.append(row)
    return rows


def read_traces(traces_dir: Path) -> tuple[dict[str, list[dict]], int]:
    """Restart traces grouped by run_id, and their total size in bytes."""
    grouped: dict[str, list[dict]] = {}
    size = 0
    for path in sorted(Path(traces_dir).glob("*.json")):
        text = path.read_text()
        size += len(text.encode())
        payload = json.loads(text)
        grouped.setdefault(payload["run_id"], []).append(payload)
    return grouped, size


def parse_printed(stdout: str) -> dict[str, dict]:
    """The per-cell summary lines a sweep command printed, by run_id."""
    printed = {}
    for line in stdout.splitlines():
        match = _PRINTED.match(line.strip())
        if match:
            run_id, beta_inv, fid, bound, cnots = match.groups()
            printed[run_id] = {
                "beta_inv": float(beta_inv),
                "fidelity": float(fid),
                "bound": float(bound),
                "cnots": int(cnots),
            }
    return printed


def check_sweep(
    algorithm: str,
    rows: list[dict],
    traces: dict[str, list[dict]],
    printed: dict[str, dict],
    cells: int,
    restarts: int,
    exit_code,
    replay_fidelity,
) -> dict:
    """Output checks of one sweep step; returns attempted/failed restarts and errors.

    A restart failed when it left no trace file, when the sweep aborted,
    or when it is the postselected restart of a row that fails a check.
    ``replay_fidelity(trace, row)`` rebuilds the trace's final state and
    returns its fidelity to the row's exact target.
    """
    attempted = cells * restarts
    errors: list[str] = []
    if exit_code != 0:
        return {
            "attempted": attempted,
            "failed": attempted,
            "errors": [f"{algorithm} sweep exited with {exit_code}"],
        }
    rows = [r for r in rows if r["algorithm"] == algorithm]
    if len(rows) != cells:
        errors.append(f"{algorithm}: {len(rows)} CSV rows for {cells} cells")
    written = sum(
        1 for group in traces.values() for t in group if t["flavor"] == algorithm
    )
    failed = max(attempted - written, 0)
    if failed:
        errors.append(f"{algorithm}: {failed} of {attempted} restarts wrote no trace")
    if len(printed) != len(rows):
        errors.append(f"{algorithm}: printed {len(printed)} cells, CSV has {len(rows)}")
    for row in rows:
        problems = _row_problems(row, traces, printed, replay_fidelity)
        errors.extend(f"{row['run_id']}: {p}" for p in problems)
        failed += bool(problems)
    return {"attempted": attempted, "failed": min(failed, attempted), "errors": errors}


def _row_problems(row, traces, printed, replay_fidelity) -> list[str]:
    problems = []
    if row["fidelity"] > row["max_fidelity_bound"] + RANK_BOUND_SLACK:
        problems.append(
            f"fidelity {row['fidelity']} above rank bound {row['max_fidelity_bound']}"
        )
    shown = printed.get(row["run_id"])
    if shown is None:
        problems.append("not in the printed summary")
    elif (
        abs(shown["fidelity"] - row["fidelity"]) > PRINTED_TOLERANCE
        or abs(shown["bound"] - row["max_fidelity_bound"]) > PRINTED_TOLERANCE
        or shown["cnots"] != row["cnot_count"]
        or shown["beta_inv"] != row["beta_inv"]
    ):
        problems.append(f"printed {shown} disagrees with the CSV row")
    chosen = [t for t in traces.get(row["run_id"], []) if t["seed"] == row["seed"]]
    if len(chosen) != 1:
        problems.append(f"{len(chosen)} traces carry the row's seed {row['seed']}")
    else:
        trace = chosen[0]
        if not trace["postselected"]:
            problems.append("the trace with the row's seed is not marked postselected")
        try:
            replayed = replay_fidelity(trace, row)
        except (KeyError, ValueError) as exc:
            return problems + [f"trace does not replay: {exc!r}"]
        if abs(replayed - row["fidelity"]) > REPLAY_TOLERANCE:
            problems.append(f"replayed fidelity {replayed} != {row['fidelity']}")
    return problems


def quality(rows: list[dict]) -> dict:
    """How close the cells get to their rank bound, and their mean CNOT count.

    Closeness is given both as fidelity / bound and as bound - fidelity
    (the gap); each over the cells as mean and worst cell. Without rows
    (the sweep wrote none) every value is 0.
    """
    if not rows:
        return dict.fromkeys(
            ("fidelity_to_bound_mean", "fidelity_to_bound_min", "fidelity_gap_mean",
             "fidelity_gap_max", "cnots_mean"),
            0.0,
        )
    ratios = [r["fidelity"] / r["max_fidelity_bound"] for r in rows]
    gaps = [r["max_fidelity_bound"] - r["fidelity"] for r in rows]
    return {
        "fidelity_to_bound_mean": sum(ratios) / len(ratios),
        "fidelity_to_bound_min": min(ratios),
        "fidelity_gap_mean": sum(gaps) / len(gaps),
        "fidelity_gap_max": max(gaps),
        "cnots_mean": sum(r["cnot_count"] for r in rows) / len(rows),
    }


# -- spans ------------------------------------------------------------------


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Calls, total and self milliseconds per span name.

    Self time is a span's duration minus the durations of its direct
    children, which the tracer nests strictly inside it.
    """
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    totals: dict[str, dict] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        duration = (end - start) * 1e3
        entry["calls"] += 1
        entry["total_ms"] += duration
        entry["self_ms"] += duration - child_ms[index]
    return totals


def _children(spans: list[list]) -> dict[int, list[list]]:
    children: dict[int, list[list]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append(span)
    return children


def scan_remainders(spans: list[list]) -> list[dict]:
    """Pool-scan time per restart, as the remainder its growth steps leave.

    A growth step's recorded ``wall_ms`` covers two ``Ansatz.prepare``
    calls, the scan (qaoa and vqe only), BFGS and one fidelity; the
    remainder is the step time minus its BFGS and fidelity spans. A vqe
    restart that ends at the threshold runs one more scan after its last
    recorded step, which is the time from its last fidelity span to the end
    of the restart. The first fidelity span belongs to step 0, which does
    no scan.
    """
    children = _children(spans)
    remainders = []
    for index, (name, start, end, _, info) in enumerate(spans):
        if name != "restart" or info is None:
            continue
        kids = children.get(index, [])
        optimize = [s for s in kids if s[0] == "adapt.optimize_fixed_ansatz"]
        fid = [s for s in kids if s[0] == "adapt.fidelity"]
        steps = info["step_ms"][1:]
        ms = sum(steps)
        ms -= sum((s[2] - s[1]) * 1e3 for s in optimize)
        ms -= sum((s[2] - s[1]) * 1e3 for s in fid[1:])
        scans = len(steps) if info["flavor"] != "baseline" else 0
        if info["termination"] == "threshold" and fid:
            ms += (end - fid[-1][2]) * 1e3
            scans += 1
        objectives = info["objectives"]
        remainders.append(
            {
                "flavor": info["flavor"],
                "n_data": info["n_data"],
                "n_ancilla": info["n_ancilla"],
                "ms": ms,
                "scans": scans,
                "steps": len(steps),
                "improving": sum(
                    1
                    for before, after in zip(objectives, objectives[1:])
                    if after < before - IMPROVEMENT
                ),
            }
        )
    return remainders


# Layer metrics that count work: a function of the seed alone.
COUNT_METRICS = (
    "adapt.valgrad.calls",
    "adapt.objective.calls",
    "adapt.bfgs.nit",
    "adapt.growth_steps",
    "adapt.improving_step_frac",
    "adapt.scan.count",
    "adapt.scan.words",
    "simcore.fidelity.calls",
    "simcore.table_mb",
)


def layer_metrics(spans: list[list], cell_ms_sum: float, scan_words) -> dict:
    """Per-layer counts (COUNT_METRICS) and time shares of the summed cell ``wall_ms``.

    ``scan_words(flavor, n_data, n_ancilla)`` is the number of Pauli words
    one scan of that register rotates. Shares use self time, so the layer
    shares plus ``trace.attributed_frac``'s complement add up to one.
    """
    totals = span_totals(spans)
    empty = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    valgrad = totals.get("adapt.ansatz_value_and_gradient", empty)
    objective = totals.get("adapt.ansatz_objective", empty)
    optimize = totals.get("adapt.optimize_fixed_ansatz", empty)
    fid = totals.get("adapt.fidelity", empty)
    restarts = scan_remainders(spans)
    scan_ms = sum(r["ms"] for r in restarts)
    scans = sum(r["scans"] for r in restarts)
    steps = sum(r["steps"] for r in restarts)
    children = _children(spans)
    table_bytes = 0
    for index, (name, _, _, _, info) in enumerate(spans):
        if name != "harness.restart_postselect" or info is None:
            continue
        sizes = {
            s[4]["n_data"] + s[4]["n_ancilla"]
            for s in children.get(index, [])
            if s[0] == "restart" and s[4] is not None
        }
        if sizes:  # a cell's restarts all share one register size
            table_bytes += info["new_tables"] * TABLE_BYTES_PER_AMPLITUDE << sizes.pop()

    def share(ms: float) -> float:
        return ms / cell_ms_sum if cell_ms_sum else 0.0

    return {
        "adapt.valgrad.calls": valgrad["calls"],
        "adapt.valgrad.ms_per_call": valgrad["total_ms"] / max(valgrad["calls"], 1),
        "adapt.valgrad.share": share(valgrad["self_ms"]),
        "adapt.objective.calls": objective["calls"],
        "adapt.objective.share": share(objective["self_ms"]),
        "adapt.optimize.share": share(optimize["self_ms"]),
        "adapt.bfgs.nit": sum(
            s[4]["nit"] for s in spans if s[0] == "adapt.optimize_fixed_ansatz" and s[4]
        ),
        "adapt.growth_steps": steps,
        "adapt.improving_step_frac": sum(r["improving"] for r in restarts) / max(steps, 1),
        "adapt.scan.count": scans,
        "adapt.scan.words": sum(
            r["scans"] * scan_words(r["flavor"], r["n_data"], r["n_ancilla"])
            for r in restarts
        ),
        "adapt.scan.ms_per_scan": scan_ms / max(scans, 1),
        "adapt.scan.share": share(scan_ms),
        "simcore.fidelity.calls": fid["calls"],
        "simcore.fidelity.share": share(fid["self_ms"]),
        "simcore.table_mb": table_bytes / 2**20,
        "trace.attributed_frac": share(optimize["total_ms"] + fid["total_ms"] + scan_ms),
    }
