"""Command-line harness.

Subcommands ``vqe-gibbs``, ``qaoa-gibbs`` and ``baseline`` run a sweep with
the algorithm pinned; ``sweep`` takes the algorithm from the config;
``gradcheck`` checks the shift rule against finite differences and the
adjoint gradient engine against the shift rule; ``plotdata`` converts a
results CSV into per-curve series files.

Every config-file key can be overridden by a flag of the same name. Exit
codes: 0 success, 2 configuration error, 3 numerical failure.

An unpinned OpenBLAS (a thread per core) can stall on these small matrices: on
2 vCPUs a 0.05 s sweep took 1.13 s, a 64 x 64 ``eigh`` 24 ms instead of 0.3 ms.
The benchmark and CI pin one thread; for timed runs set ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields

from .adapt import NumericalFailure
from .harness import (
    ALGORITHMS,
    PANELS,
    ConfigError,
    ExperimentConfig,
    build_config,
    emit_plot_data,
    format_float,
    gradcheck,
    parse_config_file,
    run_sweep,
)

# Every config field but ``algorithm`` and ``out``, which are added on their own.
_SWEEP_KEYS = tuple(
    f.name for f in fields(ExperimentConfig) if f.name not in ("algorithm", "out")
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="gibbsprep",
        description="Adaptive variational thermal-state preparation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, algorithm in (
        ("vqe-gibbs", "vqe"),
        ("qaoa-gibbs", "qaoa"),
        ("baseline", "baseline"),
        ("sweep", None),
    ):
        p = sub.add_parser(
            name,
            help=(
                "run a sweep with the algorithm taken from the config"
                if algorithm is None
                else f"run a sweep with algorithm={algorithm}"
            ),
        )
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory for CSV and traces")
        if algorithm is None:
            p.add_argument("--algorithm", choices=ALGORITHMS)
        for key in _SWEEP_KEYS:
            p.add_argument(f"--{key}")
        # A pinned algorithm overrides the config file's, as any flag does.
        p.set_defaults(command_kind="sweep", algorithm=algorithm)

    g = sub.add_parser(
        "gradcheck", help="shift rule vs finite differences, adjoint vs shift rule"
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--trials", type=int, default=100)
    g.set_defaults(command_kind="gradcheck")

    d = sub.add_parser("plotdata", help="emit per-curve series files from a CSV")
    d.add_argument("--csv", required=True)
    d.add_argument("--panel", required=True, choices=PANELS)
    d.add_argument("--out", required=True)
    d.set_defaults(command_kind="plotdata")
    return parser


def _run_sweep_command(args: argparse.Namespace) -> int:
    raw: dict = {}
    if args.config:
        raw.update(parse_config_file(args.config))
    for key in _SWEEP_KEYS + ("out", "algorithm"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    config = build_config(raw)
    records = run_sweep(config)
    for record in records:
        print(
            f"{record.run_id}: beta_inv={format_float(record.beta_inv)}"
            f" fidelity={record.fidelity:.6f}"
            f" bound={record.max_fidelity_bound:.6f}"
            f" cnots={record.cnot_count}"
        )
    if config.out:
        print(f"results appended to {config.out}/results.csv")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command_kind == "sweep":
            return _run_sweep_command(args)
        if args.command_kind == "gradcheck":
            report = gradcheck(args.seed, args.trials)
            for line in report.lines():
                print(line)
            return 0 if report.passed else 3
        for path in emit_plot_data(args.csv, args.panel, args.out):  # plotdata
            print(path)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
