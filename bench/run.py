"""Run one workload of the gibbsprep benchmark and print its metrics.

    python3 bench/run.py --workload layered-fig2 --seed 1234 --seconds 60 --trace 0

Each repetition of the workload is one fresh Python process (workload.py),
so imports and the lazily filled Pauli-table cache are paid as a CLI user
pays them. Repetitions run one after another while another one still fits
in ``--seconds``, counted from the start of the set-up timing, so a whole run
takes about ``--seconds``; at least MIN_REPS run (one pair when traced).
Repetition ``i`` passes ``seed + SEED_STRIDE * i`` as the sweeps'
``--master_seed``, so repetition 0 runs the seed itself and the median over
repetitions averages over inputs as well as over machine noise, and is not
moved by one slow input. Values that must be a function of the seed alone
come from the first MIN_REPS repetitions (quality) or from the first one
(per-layer counts). Before the repetitions, the set-up (interpreter start,
``import gibbsprep``, building the configs) is timed in SETUP_RUNS fresh
processes, and ``gibbsprep gradcheck`` runs once as a pre-flight check.
Every process runs with one BLAS thread (BLAS_THREADS).

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported;
with ``--trace 1`` every repetition is an untraced run followed by a traced
run of the same seed, and the per-layer metrics are reported. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record (machine, samples, checks). Exits 1 without a result if the
benchmark itself cannot run, for instance when the gibbsprep sources are
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from derive import COUNT_METRICS
from spec import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
MIN_REPS = 3
SEED_STRIDE = 1_000_003
TIME_LIMIT_S = 170  # a run must end within 180 s
# At these sizes a second OpenBLAS thread spins on the other core: it doubles
# the CPU time without shortening the wall time, and on two shared cores six
# same-seed layered-fig2 repetitions varied more with it (coefficient of
# variation 0.19) than without (0.065).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_child(deadline: float, *args: str) -> float:
    """Run ``workload.py args`` in the checkout and wait for it; returns its seconds.

    The child is killed and reaped if it is still running at ``deadline``.
    """
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError(f"out of time before workload.py {args[0]}")
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *args],
            cwd=ROOT,
            env=os.environ | BLAS_THREADS,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload.py {args[0]} ran past the time limit") from exc
    if done.returncode != 0:
        raise BenchError(
            f"workload.py {args[0]} exited {done.returncode}: {done.stderr[-1500:]}"
        )
    return time.perf_counter() - started


median = statistics.median


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    """Medians over repetitions; quality over the first MIN_REPS of them."""

    def quality(key: str) -> float:
        return median([r["quality"][key] for r in reps[:MIN_REPS]])

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "fidelity_to_bound_mean": quality("fidelity_to_bound_mean"),
        "fidelity_to_bound_min": quality("fidelity_to_bound_min"),
        "cnots_mean": quality("cnots_mean"),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(pairs: list[tuple[dict, dict]], gradcheck: dict) -> dict:
    """Counts from the first pair (the run's own seed); timings are medians."""
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    first = traced[0]
    metrics = {
        name: first["layers"][name] if name in COUNT_METRICS
        else median([t["layers"][name] for t in traced])
        for name in first["layers"]
    }
    metrics.update(first["probes"])
    sweep_ms = median([p["sweep_s"] for p in plain]) * 1e3
    cell_ms = median([p["cell_ms_sum"] for p in plain])
    metrics.update(
        {
            "simcore.tables_cached": first["tables_cached"],
            "objective.gradcheck_ms": gradcheck["ms"],
            "harness.persist.share": (sweep_ms - cell_ms) / sweep_ms,
            "harness.trace_bytes": first["trace_bytes"],
            "harness.plotdata_ms": median([p["plotdata_ms"] for p in plain]),
            "harness.cell_s_max": median([p["cell_s_max"] for p in plain]),
            "trace.overhead_s": median([t["wall_s"] - p["wall_s"] for p, t in pairs]),
        }
    )
    return metrics


def measure(args, work: Path, deadline: float) -> dict:
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    seed = str(args.seed)
    setups = [
        run_child(deadline, "setup", "--workload", workload.name, "--seed", seed)
        for _ in range(SETUP_RUNS)
    ]
    run_child(deadline, "gradcheck", "--seed", seed, "--result", str(work / "gradcheck.json"))
    gradcheck = json.loads((work / "gradcheck.json").read_text())

    def repetition(index: int, trace: bool) -> dict:
        out = work / f"rep{index}{'t' if trace else ''}"
        result = out.with_suffix(".json")
        flags = []
        if trace:
            flags = ["--trace", "--probes"] if index == 0 else ["--trace"]
        run_child(
            deadline, "run", "--workload", workload.name,
            "--seed", str(args.seed + SEED_STRIDE * index),
            "--dir", str(out), "--result", str(result), *flags,
        )
        rep = json.loads(result.read_text())
        shutil.rmtree(out)
        return rep

    reps, pairs = [], []
    while True:
        before = time.perf_counter()
        if args.trace:
            index = len(pairs)
            pairs.append((repetition(index, False), repetition(index, True)))
            reps.extend(pairs[-1])
        else:
            reps.append(repetition(len(reps), False))
        last = time.perf_counter() - before
        enough = len(pairs) >= 1 if args.trace else len(reps) >= MIN_REPS
        if enough and time.perf_counter() - started + last > args.seconds:
            break

    errors = [e for rep in reps for e in rep["errors"]]
    if not gradcheck["passed"]:
        errors.append(f"gradcheck pre-flight failed: {gradcheck['summary']}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        values = per_layer(pairs, gradcheck)
    else:
        values = end_to_end(reps, setups)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": gradcheck["machine"],
        "gradcheck": {k: gradcheck[k] for k in ("passed", "ms", "summary")},
        "setup_s_samples": setups,
        "repetitions": [
            {k: r[k] for k in r if k != "errors"} | {"traced": "layers" in r} for r in reps
        ],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": errors,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="gibbsprep benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "gibbsprep" / "__init__.py").is_file():
        print(f"no gibbsprep sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = benchmark["per_layer" if args.trace else "end_to_end"]

    (ROOT / ".bench_runs").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_runs"))
    try:
        record = measure(args, work, time.perf_counter() + TIME_LIMIT_S)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    metrics = {}
    for spec in specs:
        value = record["values"].get(spec["name"])
        if value is None:
            print(f"benchmark failed: no value for {spec['name']}", file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:>36} = {value:.6g} {spec['unit']}")
    for error in record["errors"]:
        print(f"check failed: {error}")
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not record["errors"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
