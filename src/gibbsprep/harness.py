"""Experiment configuration, sweeps, persistence, and plot-data emission.

An :class:`ExperimentConfig` is complete and valid once constructed. Every
model runs under every algorithm; the layered ones need ``n_ancilla ==
n_data``.
Sweeps iterate the cell grid (ancilla count x inverse-temperature list),
run the configured number of seeded restarts per cell, postselect by final
objective, and append one :class:`ResultRecord` row per cell to a CSV whose
column order is fixed by ``CSV_COLUMNS``. Each successful restart's trace is
persisted as JSON in ``traces/{run_id}.{config_hash}.r{restart}.json`` next
to the CSV, before the cell's row, sufficient to replay the ansatz
bit-exactly; the config hash keeps sweeps that share an output directory and
a run_id apart.

The CSV is read back only through ``_read_results``, which needs the
writer's exact two header lines and returns one ``ResultRecord`` per row,
with at most one row per ``(run_id, config_hash)``. A sweep reads an
existing CSV before it appends, and refuses to run a cell that is already on
disk: one CSV row resolves to exactly one set of traces.

Seed scheme (pinned by tests): the seed of restart ``r`` in the cell with
inverse-temperature index ``b`` and ancilla count ``a`` is the first output
of ``numpy.random.SeedSequence([master_seed, model_code, b, a, r])`` where
``model_code`` is 0 for ``ising`` and 1 for ``xy``. Each restart's growth
run (``adapt.GROWTH_RUNS``) draws its start from that seed alone; for the
layered rule see :func:`~gibbsprep.adapt.adapt_qaoa_run`. Scheduling order
can therefore never affect results.

Built once per process, by the module that owns it: in ``models``, a
Hamiltonian's eigensystem, per operator value; in ``adapt``, the pool a
register scans with its support groups and the entangler's spectrum, per
register, and a layered ansatz's cost gate, per cost operator. A target
builds its density matrix and that matrix's square root once. A cell builds
the rest: its Hamiltonian, settings, targets and objective context, and each
restart's run. Replay and ``gradcheck`` build ansatzes through ``adapt``'s
two constructors, ``Ansatz.vqe`` and ``Ansatz.layered``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, fields
from itertools import zip_longest
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .adapt import (
    DEFAULT_QAOA_RESTARTS,
    DEFAULT_VQE_RESTARTS,
    GROWTH_RUNS,
    Ansatz,
    MAX_QAOA_LAYERS,
    NumericalFailure,
    QaoaSettings,
    VqeSettings,
    ansatz_value_and_gradient,
    cnot_count,
    register_pool,
    restart_postselect,
)
from .models import (
    gibbs_state,
    ising_hamiltonian,
    max_fidelity_bound,
    truncated_target,
    xy_hamiltonian,
)
from .objective import ObjectiveContext, objective, shift_rule_gradient
from .simcore import StateVector, partial_trace_ancilla

MODEL_BUILDERS = {"ising": ising_hamiltonian, "xy": xy_hamiltonian}
MODEL_CODES = {"ising": 0, "xy": 1}
ALGORITHMS = tuple(GROWTH_RUNS)

DEFAULT_VQE_BETA_INV_GRID = tuple(round(0.2 * k, 1) for k in range(1, 16))
DEFAULT_QAOA_BETA_INV_GRID = (0.2, 0.6, 1.0, 1.2, 1.6, 2.0, 2.2, 2.6, 3.0)

CSV_SCHEMA_COMMENT = "# gibbsprep results schema v1"

GRADCHECK_THRESHOLD = 1e-6  # shift rule vs central differences
GRADCHECK_ENGINE_THRESHOLD = 1e-12  # adjoint engine vs shift rule
GRADCHECK_LAYERED_PERIOD = 4


class ConfigError(ValueError):
    """Invalid configuration or malformed input files (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "ising"
    n_data: int = 4
    n_ancilla: tuple[int, ...] | None = None
    beta_inv_list: tuple[float, ...] | None = None
    algorithm: str = "vqe"
    epsilon: float = 1e-3
    layer_budget: int = 4
    truncation: str | int = "exact"
    restarts: int | None = None
    master_seed: int = 1234
    workers: int = 1
    out: str | None = None

    def __post_init__(self):
        """Fill the algorithm-dependent defaults, then validate (on ``replace`` too).

        Only None means "not given": an explicit ``0`` or empty tuple is
        validated, and refused, like any other value.
        """
        vqe = self.algorithm == "vqe"
        if self.n_ancilla is None:
            object.__setattr__(self, "n_ancilla", (self.n_data,))
        if self.beta_inv_list is None:
            grid = DEFAULT_VQE_BETA_INV_GRID if vqe else DEFAULT_QAOA_BETA_INV_GRID
            object.__setattr__(self, "beta_inv_list", grid)
        if self.restarts is None:
            restarts = DEFAULT_VQE_RESTARTS if vqe else DEFAULT_QAOA_RESTARTS
            object.__setattr__(self, "restarts", restarts)
        self.validate()

    def validate(self) -> None:
        if self.model not in MODEL_BUILDERS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.n_data < 2:
            raise ConfigError("n_data must be >= 2")
        if not self.n_ancilla or any(a < 1 for a in self.n_ancilla):
            raise ConfigError("n_ancilla must be nonempty with entries >= 1")
        if len(set(self.n_ancilla)) != len(self.n_ancilla):
            # Their cells would share run_ids and overwrite each other's traces.
            raise ConfigError(f"n_ancilla has repeated entries: {self.n_ancilla}")
        if not self.beta_inv_list or any(
            not (b > 0 and np.isfinite(b)) for b in self.beta_inv_list
        ):
            raise ConfigError("beta_inv_list must be nonempty with positive entries")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0 <= self.layer_budget <= MAX_QAOA_LAYERS:
            raise ConfigError(f"layer_budget must be in [0, {MAX_QAOA_LAYERS}]")
        if isinstance(self.truncation, int) and self.truncation < 0:
            raise ConfigError("truncation order must be >= 0")
        if isinstance(self.truncation, str) and self.truncation != "exact":
            raise ConfigError(f"truncation must be 'exact' or an integer")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.algorithm in ("qaoa", "baseline"):
            if any(a != self.n_data for a in self.n_ancilla):
                raise ConfigError(
                    f"{self.algorithm} requires n_ancilla == n_data"
                )

    def config_hash(self) -> str:
        """Short digest of one ``name=value`` line per field but out/workers."""
        payload = "\n".join(
            f"{f.name}={_format_value(getattr(self, f.name))}"
            for f in fields(self)
            if f.name not in ("workers", "out")
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


_CONFIG_PARSERS = {
    "model": str,
    "n_data": int,
    "n_ancilla": lambda s: tuple(int(x) for x in str(s).split(",") if x.strip()),
    "beta_inv_list": lambda s: tuple(float(x) for x in str(s).split(",") if x.strip()),
    "algorithm": str,
    "epsilon": float,
    "layer_budget": int,
    "truncation": lambda s: "exact" if str(s).strip() == "exact" else int(s),
    "restarts": int,
    "master_seed": int,
    "workers": int,
    "out": str,
}


def _read_text(path: Path) -> str:
    """The file's text; a file that cannot be read as UTF-8 is a ConfigError."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def parse_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` text; '#' lines are comments, lists are comma-separated."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(Path(path)).splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def build_config(raw: dict) -> ExperimentConfig:
    """Coerce raw string values (file or CLI) into a validated config."""
    parsed: dict = {}
    for key, value in raw.items():
        if value is None:
            continue
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            parsed[key] = _CONFIG_PARSERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    return ExperimentConfig(**parsed)


def cell_seed(
    master_seed: int, model: str, beta_index: int, n_ancilla: int, restart_index: int
) -> int:
    """Deterministic per-restart seed; see the module docstring for the scheme."""
    sequence = np.random.SeedSequence(
        [master_seed, MODEL_CODES[model], beta_index, n_ancilla, restart_index]
    )
    return int(sequence.generate_state(1, np.uint64)[0])


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _format_value(value) -> str:
    """A CSV, series or config-hash value; floats by format_float, tuples by commas."""
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return format_float(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class ResultRecord:
    run_id: str
    config_hash: str
    model: str
    n_data: int
    n_ancilla: int
    beta_inv: float
    truncation: str
    seed: int
    iteration_index: int
    objective: float
    fidelity: float
    pool_grad_norm: float
    cnot_count: int
    max_fidelity_bound: float
    wall_ms: float

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0 + 1e-9:
            raise NumericalFailure(f"fidelity {self.fidelity} outside [0, 1]")
        if self.fidelity > self.max_fidelity_bound + 1e-6:
            raise NumericalFailure(
                f"fidelity {self.fidelity} exceeds rank bound "
                f"{self.max_fidelity_bound}"
            )

    @property
    def algorithm(self) -> str:
        return self.run_id.split("_", 1)[0]

    def to_csv_row(self) -> str:
        return ",".join(_format_value(getattr(self, c)) for c in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(ResultRecord))
_CSV_HEADER = [CSV_SCHEMA_COMMENT, ",".join(CSV_COLUMNS)]

# The field types of ResultRecord parse its CSV columns back (_read_results).
_COLUMN_TYPES = get_type_hints(ResultRecord)


def _read_results(csv_path: Path) -> list[ResultRecord]:
    """The records of a results CSV that starts with the writer's two header lines.

    Any other header, a line whose fields ``ResultRecord`` cannot take, or a
    second row for one ``(run_id, config_hash)`` is a ConfigError naming the
    file (and the line).
    """
    lines = _read_text(csv_path).splitlines()
    if lines[:2] != _CSV_HEADER:
        raise ConfigError(
            f"{csv_path} has header {lines[:2]}, expected {_CSV_HEADER};"
            " write to another output directory"
        )
    records: list[ResultRecord] = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(lines[2:], 3):
        values = line.split(",")
        if len(values) != len(CSV_COLUMNS):
            raise ConfigError(
                f"{csv_path}:{lineno}: {len(values)} fields, the header has "
                f"{len(CSV_COLUMNS)}"
            )
        parsed = {}
        for column, value in zip(CSV_COLUMNS, values):
            try:
                parsed[column] = _COLUMN_TYPES[column](value)
            except ValueError as exc:
                raise ConfigError(
                    f"{csv_path}:{lineno}: bad {column} value {value!r}"
                ) from exc
        try:
            record = ResultRecord(**parsed)
        except NumericalFailure as exc:
            raise ConfigError(f"{csv_path}:{lineno}: {exc}") from exc
        key = (record.run_id, record.config_hash)
        if key in seen:
            raise ConfigError(
                f"{csv_path}:{lineno}: run_id {record.run_id} with config_hash "
                f"{record.config_hash} is already on line {seen[key]}"
            )
        seen[key] = lineno
        records.append(record)
    return records


def _run_id(config: ExperimentConfig, beta_index: int, n_ancilla: int) -> str:
    return (
        f"{config.algorithm}_{config.model}_nd{config.n_data}"
        f"_na{n_ancilla}_b{beta_index}"
    )


def _run_cell(
    config: ExperimentConfig, beta_index: int, n_ancilla: int
) -> tuple[ResultRecord, list[dict]]:
    """Run all restarts of one (beta_inv, n_ancilla) cell and postselect.

    Returns the cell's row and the trace payload of every restart that ran.
    """
    started = time.perf_counter()
    beta_inv = config.beta_inv_list[beta_index]
    beta = 1.0 / beta_inv
    hamiltonian = MODEL_BUILDERS[config.model](config.n_data)
    if config.algorithm == "vqe":
        settings = VqeSettings(config.epsilon)
    else:
        settings = QaoaSettings(hamiltonian, config.layer_budget)
    try:
        exact = gibbs_state(hamiltonian, beta)
    except ValueError as exc:
        # At a low enough temperature exp(-beta E) underflows to 0.
        raise NumericalFailure(f"beta_inv={beta_inv}: {exc}") from exc
    if config.truncation == "exact":
        optimization_target = exact
    else:
        optimization_target = truncated_target(hamiltonian, beta, config.truncation)
    ctx = ObjectiveContext(optimization_target, config.n_data, n_ancilla)
    bound = max_fidelity_bound(exact, n_ancilla)

    def run(index: int):
        seed = cell_seed(config.master_seed, config.model, beta_index, n_ancilla, index)
        return GROWTH_RUNS[config.algorithm](settings, ctx, exact, seed)

    outcome = restart_postselect(run, config.restarts)
    best = outcome.trace
    run_id = _run_id(config, beta_index, n_ancilla)
    pool_norm = best.final_pool_gradient_norm
    record = ResultRecord(
        run_id=run_id,
        config_hash=config.config_hash(),
        model=config.model,
        n_data=config.n_data,
        n_ancilla=n_ancilla,
        beta_inv=beta_inv,
        truncation=str(config.truncation),
        seed=best.seed,
        iteration_index=best.records[-1].index,
        objective=best.final_objective,
        fidelity=best.final_fidelity,
        pool_grad_norm=float("nan") if pool_norm is None else pool_norm,
        cnot_count=best.records[-1].cnot_count,
        max_fidelity_bound=bound,
        wall_ms=(time.perf_counter() - started) * 1e3,
    )
    trace_dicts = []
    for restart_index, trace in outcome.traces.items():
        payload = trace.to_dict()
        payload["run_id"] = run_id
        payload["config_hash"] = record.config_hash
        payload["restart_index"] = restart_index
        payload["beta_inv"] = beta_inv
        payload["model"] = config.model
        payload["truncation"] = str(config.truncation)
        payload["postselected"] = trace is outcome.trace
        trace_dicts.append(payload)
    return record, trace_dicts


def _cell_job(args: tuple) -> tuple[ResultRecord, list[dict]]:
    # One argument tuple per cell for map; _run_cell is looked up at call time.
    return _run_cell(*args)


def run_sweep(config: ExperimentConfig) -> list[ResultRecord]:
    """Run the full cell grid; persist CSV rows and traces if ``out`` is set.

    Rows are written in deterministic grid order (ancilla-major, then
    temperature) with a flush after each row, so an interrupted sweep leaves
    only whole rows behind. Worker processes only change wall-clock columns.
    A cell whose ``(run_id, config_hash)`` is already in the CSV is refused
    before any cell runs.
    """
    cells = [
        (config, beta_index, n_ancilla)
        for n_ancilla in config.n_ancilla
        for beta_index in range(len(config.beta_inv_list))
    ]
    out_dir = Path(config.out) if config.out else None
    writer = None
    if out_dir is not None:
        csv_path = out_dir / "results.csv"
        fresh = not csv_path.exists()
        if not fresh:
            done = {(r.run_id, r.config_hash) for r in _read_results(csv_path)}
            config_hash = config.config_hash()
            for cell in cells:
                run_id = _run_id(*cell)
                if (run_id, config_hash) in done:
                    raise ConfigError(
                        f"{csv_path} already holds run_id {run_id} of this "
                        "config; write to another --out"
                    )
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "traces").mkdir(exist_ok=True)
            writer = csv_path.open("a")
            if fresh:
                writer.write("\n".join(_CSV_HEADER) + "\n")
                writer.flush()
        except OSError as exc:
            raise ConfigError(f"cannot write to output path {out_dir}: {exc}")

    records: list[ResultRecord] = []
    # The pool forks all its workers at the first submit, so it gets no
    # more than there are cells.
    workers = min(config.workers, len(cells))
    executor = None
    try:
        if workers == 1:
            results = map(_cell_job, cells)
        else:
            # Imported here: concurrent.futures.process costs a serial run's
            # start-up ~20 ms.
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(max_workers=workers)
            results = executor.map(_cell_job, cells)
        for record, trace_dicts in results:
            records.append(record)
            if writer is None:
                continue
            # Traces first: a row on disk always has its traces.
            try:
                for payload in trace_dicts:
                    trace_path = out_dir / "traces" / (
                        f"{payload['run_id']}.{payload['config_hash']}"
                        f".r{payload['restart_index']}.json"
                    )
                    trace_path.write_text(json.dumps(payload, indent=1))
                writer.write(record.to_csv_row() + "\n")
                writer.flush()
            except OSError as exc:
                raise ConfigError(f"cannot write to output path {out_dir}: {exc}")
    finally:
        if executor is not None:
            # On an error, queued cells are dropped instead of run to the end.
            executor.shutdown(cancel_futures=True)
        if writer is not None:
            writer.close()
    return records


# -- trace replay -----------------------------------------------------------


def replay_state(trace: dict, n_data: int, n_ancilla: int) -> StateVector:
    """Rebuild the final state of a persisted trace bit-exactly.

    A generator label that the register's pool lacks raises ``ValueError``.
    """
    layered = trace["flavor"] != "vqe"
    if layered and n_ancilla != n_data:
        raise ValueError(f"a {trace['flavor']} trace needs n_ancilla == n_data")
    pool = {op.label: op for op in register_pool(n_data, n_ancilla, layered)}
    try:
        generators = [pool[label] for label in trace["generator_labels"]]
    except KeyError as exc:
        raise ValueError(
            f"generator {exc.args[0]!r} is not in the {n_data}+{n_ancilla} "
            f"register's {trace['flavor']} pool"
        ) from None
    parameters = trace["final_parameters"]
    if not layered:
        angles = trace["reference_spec"]["angles"]
        return Ansatz.vqe(n_data, n_ancilla, angles, generators, parameters).prepare()
    hamiltonian = MODEL_BUILDERS[trace["model"]](n_data)
    return Ansatz.layered(trace["flavor"], hamiltonian, generators, parameters).prepare()


# -- gradient self-check ----------------------------------------------------


@dataclass
class GradcheckTrial:
    trial: int
    flavor: str
    worst_index: int
    deviation: float  # max |shift rule - central difference|
    engine_deviation: float  # max |adjoint engine - shift rule|


@dataclass
class GradcheckReport:
    entries: list[GradcheckTrial]

    @property
    def max_deviation(self) -> float:
        return max(e.deviation for e in self.entries)

    @property
    def max_engine_deviation(self) -> float:
        return max(e.engine_deviation for e in self.entries)

    @property
    def passed(self) -> bool:
        return (
            self.max_deviation < GRADCHECK_THRESHOLD
            and self.max_engine_deviation < GRADCHECK_ENGINE_THRESHOLD
        )

    def lines(self) -> list[str]:
        out = [
            f"gradcheck: {len(self.entries)} trials, threshold {GRADCHECK_THRESHOLD:g}"
            f" (shift vs fd), {GRADCHECK_ENGINE_THRESHOLD:g} (adjoint vs shift)",
        ]
        for e in self.entries:
            out.append(
                f"  trial {e.trial:3d} {e.flavor:4s}: worst index {e.worst_index}"
                f"  |shift - fd| = {e.deviation:.3e}"
                f"  |adjoint - shift| = {e.engine_deviation:.3e}"
            )
        out.append(
            f"gradcheck {'PASS' if self.passed else 'FAIL'}:"
            f" max deviation {self.max_deviation:.3e},"
            f" max adjoint deviation {self.max_engine_deviation:.3e}"
        )
        return out


def gradcheck(seed: int, trials: int) -> GradcheckReport:
    """Shift rule vs central differences, and the adjoint engine vs the shift rule.

    Every trial is a random 2+2-qubit ansatz: ``vqe``, except that every
    ``GRADCHECK_LAYERED_PERIOD``-th trial is a ``qaoa`` ansatz whose first
    mixer is the pair entangler. Trial 0 uses all-zero parameters; later
    trials draw everything (model, temperature, truncation, generators,
    parameters) from the seeded stream. PASS needs both deviations below
    their thresholds on every trial.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    pool = register_pool(2, 2, False)
    qaoa_pool = register_pool(2, 2, True)
    entries: list[GradcheckTrial] = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        model = MODEL_BUILDERS["ising" if rng.integers(2) else "xy"](2)
        beta = 1.0 / rng.uniform(0.3, 3.0)
        if rng.uniform() < 0.25:
            target = truncated_target(model, beta, int(rng.choice([1, 3, 5])))
        else:
            target = gibbs_state(model, beta)
        ctx = ObjectiveContext(target, 2, 2)
        if trial % GRADCHECK_LAYERED_PERIOD == GRADCHECK_LAYERED_PERIOD - 1:
            depth = int(rng.integers(1, 4))
            drawn = rng.integers(0, len(qaoa_pool), depth - 1)
            mixers = [qaoa_pool[-1]] + [qaoa_pool[int(i)] for i in drawn]
            ansatz = Ansatz.layered("qaoa", model, mixers)
            params = rng.uniform(-np.pi, np.pi, 2 * depth)
        else:
            angles = rng.uniform(0, 2 * np.pi, size=4)
            depth = int(rng.integers(2, 6))
            chosen = [pool[int(i)] for i in rng.integers(0, len(pool), depth)]
            params = (
                np.zeros(depth) if trial == 0 else rng.uniform(-np.pi, np.pi, depth)
            )
            ansatz = Ansatz.vqe(2, 2, angles, chosen)

        def value_at(x: np.ndarray) -> float:
            return objective(partial_trace_ancilla(ansatz.prepare(x)), ctx)

        exact = shift_rule_gradient(ansatz, params, ctx)
        steps = 1e-5 * np.eye(params.size)
        approx = [(value_at(params + e) - value_at(params - e)) / 2e-5 for e in steps]
        deviations = np.abs(exact - approx)
        _, adjoint = ansatz_value_and_gradient(ansatz, params, ctx)
        entries.append(
            GradcheckTrial(
                trial,
                ansatz.flavor,
                int(np.argmax(deviations)),
                float(deviations.max()),
                float(np.abs(adjoint - exact).max()),
            )
        )
    return GradcheckReport(entries)


# -- plot data --------------------------------------------------------------

INFIDELITY_FLOOR = 1e-16
CONVERGED_FIDELITY = 0.99


# A panel's series files: file name -> (column header, rows), in write order.
_Table = dict[str, tuple[str, list[tuple]]]


def _write_series(path: Path, header: str, rows: list[tuple]) -> Path:
    lines = [f"# {header}"]
    for row in rows:
        lines.append(" ".join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _fixed_mixer_cnots(model: str, n_data: int) -> int:
    """CNOTs of the fixed-entangler ``baseline`` ansatz at ceil(n_data/2) layers."""
    entangler = register_pool(n_data, n_data, True)[-1]
    hamiltonian = MODEL_BUILDERS[model](n_data)
    layers = [entangler] * math.ceil(n_data / 2)
    return cnot_count(Ansatz.layered("baseline", hamiltonian, layers))


def _columns(rows: list[ResultRecord], *columns: str) -> tuple[str, list[tuple]]:
    """A series of CSV columns against ``beta_inv``: its header and sorted rows."""
    columns = ("beta_inv",) + columns
    series = sorted(tuple(getattr(r, c) for c in columns) for r in rows)
    return " ".join(columns), series


def _rows_by_model(rows: list[ResultRecord]) -> list[tuple[str, list[ResultRecord]]]:
    """Rows grouped by model, in model order, each group of one ``n_data``.

    A series is named by model alone, so rows of two register sizes would
    merge into one unlabelled series; such a model is refused.
    """
    groups = []
    for model in sorted({r.model for r in rows}):
        model_rows = [r for r in rows if r.model == model]
        sizes = sorted({r.n_data for r in model_rows})
        if len(sizes) > 1:
            raise ConfigError(
                f"{model} rows span n_data {sizes}; emit their sweeps separately"
            )
        groups.append((model, model_rows))
    return groups


def _fig1(rows: list[ResultRecord], traces_dir: Path) -> _Table:
    vqe_rows = [r for r in rows if r.algorithm == "vqe" and r.truncation == "exact"]
    if not vqe_rows:
        raise ConfigError("fig1 needs exact-target vqe rows")
    table: _Table = {}
    for model, model_rows in _rows_by_model(vqe_rows):
        for a in sorted({r.n_ancilla for r in model_rows}):
            cell = [r for r in model_rows if r.n_ancilla == a]
            table[f"{model}_fidelity_na{a}.dat"] = _columns(cell, "fidelity")
            table[f"{model}_bound_na{a}.dat"] = _columns(cell, "max_fidelity_bound")
        table[f"{model}_cnots.dat"] = _columns(model_rows, "n_ancilla", "cnot_count")
        overlay = _fixed_mixer_cnots(model, model_rows[0].n_data)
        table[f"{model}_fixed_mixer_cnots.dat"] = (
            "beta_inv cnot_count",
            [(b, overlay) for b in sorted({r.beta_inv for r in model_rows})],
        )
    return table


def _truncation_suffix(row: ResultRecord) -> str:
    return "" if row.truncation == "exact" else f"_m{row.truncation}"


def _fig2(rows: list[ResultRecord], traces_dir: Path) -> _Table:
    rows = sorted(rows, key=lambda r: r.beta_inv)
    qaoa_rows = [r for r in rows if r.algorithm == "qaoa"]
    if not qaoa_rows:
        raise ConfigError("fig2 needs qaoa rows")
    # Truncated rows are named as in fig3; a name two rows share is refused.
    names = [
        f"qaoa_fidelity_binv{r.beta_inv:g}{_truncation_suffix(r)}.dat"
        for r in qaoa_rows
    ]
    shared = sorted({n for n in names if names.count(n) > 1})
    if shared:
        raise ConfigError(
            f"several qaoa rows map to {shared}; emit their sweeps separately"
        )
    table: _Table = {}
    # One CNOT series per algorithm and truncation order, named like the above:
    # the CNOTs of the first record that reaches CONVERGED_FIDELITY.
    to_target: dict[str, list[tuple]] = {}
    baseline_rows = [r for r in rows if r.algorithm == "baseline"]
    for row, name in zip_longest(qaoa_rows + baseline_rows, names):
        records = _load_postselected_trace(traces_dir, row)["records"]
        if name is not None:
            table[name] = (
                "layer fidelity",
                [(rec["index"], rec["fidelity"]) for rec in records],
            )
        reached = [
            r["cnot_count"] for r in records if r["fidelity"] >= CONVERGED_FIDELITY
        ]
        if reached:
            stem = f"{row.algorithm}_cnots_to_target{_truncation_suffix(row)}"
            to_target.setdefault(f"{stem}.dat", []).append((row.beta_inv, reached[0]))
    header = f"beta_inv cnot_count_to_fidelity_{CONVERGED_FIDELITY}"
    table.update((name, (header, series)) for name, series in to_target.items())
    return table


def _fig3(rows: list[ResultRecord], traces_dir: Path) -> _Table:
    vqe_rows = [r for r in rows if r.algorithm == "vqe"]
    if not vqe_rows:
        raise ConfigError("fig3 needs vqe rows")
    table: _Table = {}
    for model, model_rows in _rows_by_model(vqe_rows):
        for a, trunc in sorted({(r.n_ancilla, r.truncation) for r in model_rows}):
            suffix = "minf" if trunc == "exact" else f"m{trunc}"
            table[f"{model}_infidelity_na{a}_{suffix}.dat"] = (
                "beta_inv infidelity",
                sorted(
                    (r.beta_inv, max(1.0 - r.fidelity, INFIDELITY_FLOOR))
                    for r in model_rows
                    if (r.n_ancilla, r.truncation) == (a, trunc)
                ),
            )
    return table


_PANELS = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3}
PANELS = tuple(_PANELS)


def emit_plot_data(
    csv_path: str | Path, panel: str, out_dir: str | Path
) -> list[Path]:
    """Write whitespace-delimited series files for one figure panel.

    ``fig1``: per model, fidelity and rank-bound vs inverse temperature per
    ancilla count, a long-format CNOT series, and the fixed-mixer overlay.
    ``fig2``: per temperature, fidelity vs layer (from the postselected
    traces; truncated rows get an ``_m{order}`` suffix), plus CNOTs to reach
    99% fidelity vs temperature.
    ``fig3``: per model, ancilla count ``a`` and truncation order,
    infidelity vs temperature in ``{model}_infidelity_na{a}_minf.dat``
    (``exact`` rows) or ``{model}_infidelity_na{a}_m{order}.dat``.

    The panel's whole table is computed before ``out_dir`` is made, so a
    panel that fails (no matching rows, a missing trace, a file name two
    rows share, fig1/fig3 rows of one model at two ``n_data``) writes
    nothing. An unreadable input, a CSV without the writer's header, a row
    that ``ResultRecord`` refuses (a fidelity above its rank bound, say), two
    rows for one ``(run_id, config_hash)``, or an output path that cannot be
    written, is a :class:`ConfigError` naming the file. Returns the written
    paths in write order.
    """
    csv_path = Path(csv_path)
    rows = _read_results(csv_path)
    if not rows:
        raise ConfigError(f"{csv_path} contains no data rows")
    if panel not in _PANELS:
        expected = ", ".join(PANELS)
        raise ConfigError(f"unknown panel {panel!r}; expected one of {expected}")
    table = _PANELS[panel](rows, csv_path.parent / "traces")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return [
            _write_series(out_dir / name, header, series)
            for name, (header, series) in table.items()
        ]
    except OSError as exc:
        raise ConfigError(f"cannot write to output path {out_dir}: {exc}") from exc


def _is_trace(payload) -> bool:
    """An object with a seed and non-empty records of the numbers fig2 reads."""
    records = payload.get("records") if isinstance(payload, dict) else None
    keys = ("index", "fidelity", "cnot_count")
    return isinstance(records, list) and "seed" in payload and records != [] and all(
        isinstance(r, dict) and all(type(r.get(k)) in (int, float) for k in keys)
        for r in records
    )


def _load_postselected_trace(traces_dir: Path, row: ResultRecord) -> dict:
    """Locate the restart trace of the row's run_id, config_hash and seed."""
    key = f"{row.run_id}.{row.config_hash}"
    matches = sorted(traces_dir.glob(f"{key}.r*.json"))
    if not matches:
        raise ConfigError(f"no trace files for {key} under {traces_dir}")
    for path in matches:
        try:
            payload = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not JSON: {exc}") from exc
        if not _is_trace(payload):
            raise ConfigError(
                f"{path} is not a trace object with a seed and a non-empty list of "
                "records, each with a numeric index, fidelity and cnot_count"
            )
        if payload["seed"] == row.seed:
            return payload
    raise ConfigError(f"no trace with seed {row.seed} for {key}")
