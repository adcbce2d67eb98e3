"""One fresh process of the gibbsprep benchmark.

    python3 bench/workload.py setup     --workload NAME --seed N
    python3 bench/workload.py gradcheck --seed N --result FILE
    python3 bench/workload.py run       --workload NAME --seed N --dir DIR \\
                                        --result FILE [--trace] [--probes]

``setup`` imports gibbsprep and builds the workload's configs and does
nothing else; its caller times the whole process. ``gradcheck`` runs the
CLI's shift-rule self-check and records the machine. ``run`` runs the
workload's CLI steps through ``gibbsprep.cli.main`` one after another in
DIR, checks their outputs, and writes a JSON summary to FILE; ``--trace``
records spans around the layers, ``--probes`` adds the fixed-input layer
timings. gibbsprep is always imported from the ``src`` directory next to
this one.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from derive import (
    check_sweep,
    layer_metrics,
    parse_printed,
    quality,
    read_results_csv,
    read_traces,
)
from spec import WORKLOADS
from tracing import Tracer, install_layer_spans

SRC = Path(__file__).resolve().parent.parent / "src"
GRADCHECK_TRIALS = 100


def import_gibbsprep():
    sys.path.insert(0, str(SRC))
    import gibbsprep

    if Path(gibbsprep.__file__).resolve().parent != SRC / "gibbsprep":
        raise SystemExit(f"gibbsprep imported from {gibbsprep.__file__}, not {SRC}")
    return gibbsprep


def run_cli(cli, argv: list[str], tracer: Tracer | None) -> dict:
    """One CLI step: exit code, seconds, and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an escaped exception aborts the step; record it
            code = "exception"
            err.write(traceback.format_exc())
    return {
        "argv": argv,
        "exit": code,
        "seconds": time.perf_counter() - started,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }


def setup(args) -> None:
    import_gibbsprep()
    from gibbsprep import cli, harness  # noqa: F401  (what a CLI call imports)

    for sweep in WORKLOADS[args.workload].sweeps:
        harness.build_config(sweep.raw_config(args.seed, "unused"))


def blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it, if found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba": numba,
    }


def gradcheck(args) -> dict:
    import_gibbsprep()
    from gibbsprep import cli

    step = run_cli(
        cli,
        ["gradcheck", "--seed", str(args.seed), "--trials", str(GRADCHECK_TRIALS)],
        None,
    )
    return {
        "ms": step["seconds"] * 1e3,
        "passed": step["exit"] == 0 and "gradcheck PASS" in step["stdout"],
        "summary": step["stdout"].strip().splitlines()[-1:],
        "machine": machine(),
    }


def run(args) -> dict:
    gibbsprep = import_gibbsprep()
    from gibbsprep import cli, harness, models, simcore

    workload = WORKLOADS[args.workload]
    out = str(Path(args.dir).resolve())
    configs = [
        harness.build_config(sweep.raw_config(args.seed, out)) for sweep in workload.sweeps
    ]

    tracer = Tracer() if args.trace else None
    if tracer:
        install_layer_spans(tracer, gibbsprep)
    span = tracer.span("workload") if tracer else contextlib.nullcontext()
    started = time.perf_counter()
    with span:
        steps = [run_cli(cli, argv, tracer) for argv in workload.steps(args.seed, out)]
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tables_cached = simcore.pauli_action_tables.cache_info().currsize
    if tracer:
        tracer.restore()

    def replay_fidelity(trace: dict, row: dict) -> float:
        state = harness.replay_state(trace, row["n_data"], row["n_ancilla"])
        hamiltonian = harness.MODEL_BUILDERS[row["model"]](row["n_data"])
        target = models.gibbs_state(hamiltonian, 1.0 / row["beta_inv"])
        return simcore.fidelity(
            simcore.partial_trace_ancilla(state), target.as_density_matrix()
        )

    csv_path = Path(out) / "results.csv"
    rows = read_results_csv(csv_path) if csv_path.exists() else []
    traces, trace_bytes = read_traces(Path(out) / "traces")
    attempted = failed = 0
    errors: list[str] = []
    for sweep, config, step in zip(workload.sweeps, configs, steps):
        checked = check_sweep(
            sweep.algorithm,
            rows,
            traces,
            parse_printed(step["stdout"]),
            cells=len(config.n_ancilla) * len(config.beta_inv_list),
            restarts=config.restarts,
            exit_code=step["exit"],
            replay_fidelity=replay_fidelity,
        )
        attempted += checked["attempted"]
        failed += checked["failed"]
        errors += checked["errors"]
    for step in steps:
        if step["exit"] != 0:
            errors.append(f"{step['argv'][0]} exited {step['exit']}: {step['stderr'][-300:]}")
    plot = steps[-1]
    written = plot["stdout"].split()
    if plot["exit"] == 0 and not (written and all(map(os.path.exists, written))):
        errors.append(f"plotdata listed missing series files: {written}")

    sweep_s = sum(s["seconds"] for s in steps[:-1])
    cell_ms = [r["wall_ms"] for r in rows]
    result = {
        "wall_s": wall_s,
        "sweep_s": sweep_s,
        "plotdata_ms": plot["seconds"] * 1e3,
        "cell_s_max": max(cell_ms, default=0.0) / 1e3,
        "cell_ms_sum": sum(cell_ms),
        "peak_rss_mb": peak_rss_mb,
        "tables_cached": tables_cached,
        "trace_bytes": trace_bytes,
        "growth_steps": sum(
            len(t["records"]) - 1 for group in traces.values() for t in group
        ),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "quality": quality(rows),
    }
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, sum(cell_ms), scan_words)
        result["spans"] = len(tracer.spans)
    if args.probes:
        result["probes"] = probes(args.seed)
    return result


@functools.cache
def scan_words(flavor: str, n_data: int, n_ancilla: int) -> int:
    """Pauli words one pool scan rotates (the entangler counts its terms)."""
    from gibbsprep import adapt, models

    if flavor == "vqe":
        pool = adapt.build_vqe_pool(n_data + n_ancilla)
    elif flavor == "qaoa":
        pool = adapt.build_qaoa_pool(n_data, models.entangling_hamiltonian(n_data))
    else:
        return 0
    return sum(1 if op.kind == "pauli" else len(op.operator.terms) for op in pool)


# -- probes -------------------------------------------------------------------


def per_call_s(fn, batch_s: float = 0.02, batches: int = 7) -> float:
    """Median seconds per call over ``batches`` timed batches of equal size."""
    fn()  # fill caches first
    calls = 1
    while True:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - started >= batch_s:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls)
    return statistics.median(samples)


ROTATION_BYTES_PER_AMPLITUDE = 24 + 2 * 16  # table entry, amplitude read and write


def probes(seed: int) -> dict:
    """Layer timings on fixed seeded inputs, through public functions only."""
    import numpy as np

    from gibbsprep import adapt, models, simcore
    from gibbsprep.objective import ObjectiveContext

    rng = np.random.default_rng(seed)
    result = {}
    for n in (8, 12, 16):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = simcore.StateVector(n // 2, n - n // 2, amps / np.linalg.norm(amps))
        word = simcore.PauliString((0, n - 1), "XY")
        seconds = per_call_s(lambda: simcore.pauli_rotation(state, word, 0.3))
        result[f"simcore.rotate_us.q{n}"] = seconds * 1e6
    result["simcore.rotate_bytes.q16"] = ROTATION_BYTES_PER_AMPLITUDE << 16

    ising4 = models.ising_hamiltonian(4)
    ctx = ObjectiveContext(models.gibbs_state(ising4, 1.0), 4, 4)
    pool = adapt.build_vqe_pool(8)
    for layers in (20, 100):
        reference, angles = adapt.vqe_reference_state(4, 4, rng)
        ansatz = adapt.Ansatz(
            flavor="vqe",
            n_data=4,
            n_ancilla=4,
            reference=reference,
            reference_spec={"kind": "random_y", "angles": list(angles)},
            generators=[pool[i] for i in rng.integers(0, len(pool), layers)],
            parameters=rng.uniform(-np.pi, np.pi, layers),
        )
        seconds = per_call_s(
            lambda: adapt.ansatz_value_and_gradient(ansatz, ansatz.parameters, ctx)
        )
        result[f"adapt.valgrad_ms.vqe_q8_L{layers}"] = seconds * 1e3

    ising5 = models.ising_hamiltonian(5)
    entangler = adapt.PoolOperator.from_entangler(models.entangling_hamiltonian(5), 5)
    layered = adapt.Ansatz(
        flavor="qaoa",
        n_data=5,
        n_ancilla=5,
        reference=adapt.singlet_reference_state(5),
        reference_spec={"kind": "singlet"},
        generators=[entangler] * 4,
        parameters=rng.uniform(0.0, np.pi / 2, 8),
        cost_operator=models.joint_problem_hamiltonian(ising5),
    )
    ctx5 = ObjectiveContext(models.gibbs_state(ising5, 1.0), 5, 5)
    seconds = per_call_s(
        lambda: adapt.ansatz_value_and_gradient(layered, layered.parameters, ctx5)
    )
    result["adapt.valgrad_ms.layered_q10_L4"] = seconds * 1e3

    ising6 = models.ising_hamiltonian(6)
    seconds = per_call_s(lambda: models.gibbs_state(ising6, 0.5))
    result["models.target_ms"] = seconds * 1e3
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "gradcheck", "run"):
        p = sub.add_parser(mode)
        p.add_argument("--seed", type=int, required=True)
        if mode != "gradcheck":
            p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        if mode != "setup":
            p.add_argument("--result", required=True)
        if mode == "run":
            p.add_argument("--dir", required=True)
            p.add_argument("--trace", action="store_true")
            p.add_argument("--probes", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args)
        return
    result = gradcheck(args) if args.mode == "gradcheck" else run(args)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
