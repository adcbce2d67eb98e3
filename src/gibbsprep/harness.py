"""Experiment configuration, sweeps, persistence, and plot-data emission.

Sweeps iterate the cell grid (ancilla count x inverse-temperature list),
run the configured number of seeded restarts per cell, postselect by final
objective, and append one result row per cell to a CSV whose column order is
fixed by ``CSV_COLUMNS``; appending to a CSV with another header is a
configuration error. Every restart's full trace is persisted as JSON in
``traces/{run_id}.{config_hash}.r{restart}.json`` next to the CSV,
sufficient to replay the ansatz bit-exactly; the config hash keeps sweeps
that share an output directory and a run_id apart.

Seed scheme (pinned by tests): the seed of restart ``r`` in the cell with
inverse-temperature index ``b`` and ancilla count ``a`` is the first output
of ``numpy.random.SeedSequence([master_seed, model_code, b, a, r])`` where
``model_code`` is 0 for ``ising`` and 1 for ``xy``. Scheduling order can
therefore never affect results.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .adapt import (
    DEFAULT_QAOA_RESTARTS,
    DEFAULT_VQE_RESTARTS,
    Ansatz,
    MAX_QAOA_LAYERS,
    NumericalFailure,
    PoolOperator,
    QaoaSettings,
    VqeSettings,
    adapt_qaoa_run,
    adapt_vqe_run,
    ansatz_value_and_gradient,
    baseline_qaoa_run,
    build_qaoa_pool,
    build_vqe_pool,
    reference_from_angles,
    restart_postselect,
    singlet_reference_state,
)
from .models import (
    entangling_hamiltonian,
    gibbs_state,
    ising_hamiltonian,
    joint_problem_hamiltonian,
    max_fidelity_bound,
    truncated_target,
    xy_hamiltonian,
)
from .objective import ObjectiveContext, objective, shift_gradient
from .simcore import PauliString, StateVector, partial_trace_ancilla

MODEL_BUILDERS = {"ising": ising_hamiltonian, "xy": xy_hamiltonian}
MODEL_CODES = {"ising": 0, "xy": 1}
ALGORITHMS = ("vqe", "qaoa", "baseline")

DEFAULT_VQE_BETA_INV_GRID = tuple(round(0.2 * k, 1) for k in range(1, 16))
DEFAULT_QAOA_BETA_INV_GRID = (0.2, 0.6, 1.0, 1.2, 1.6, 2.0, 2.2, 2.6, 3.0)

CSV_SCHEMA_COMMENT = "# gibbsprep results schema v1"
CSV_COLUMNS = (
    "run_id",
    "config_hash",
    "model",
    "n_data",
    "n_ancilla",
    "beta_inv",
    "truncation",
    "seed",
    "iteration_index",
    "objective",
    "fidelity",
    "pool_grad_norm",
    "cnot_count",
    "max_fidelity_bound",
    "wall_ms",
)

GRADCHECK_THRESHOLD = 1e-6  # shift rule vs central differences
GRADCHECK_ENGINE_THRESHOLD = 1e-12  # adjoint engine vs shift rule
GRADCHECK_LAYERED_PERIOD = 4


class ConfigError(ValueError):
    """Invalid configuration or malformed input files (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "ising"
    n_data: int = 4
    n_ancilla: tuple[int, ...] = ()
    beta_inv_list: tuple[float, ...] = ()
    algorithm: str = "vqe"
    epsilon: float = 1e-3
    layer_budget: int = 4
    truncation: str | int = "exact"
    restarts: int = 0
    master_seed: int = 1234
    workers: int = 1
    out: str | None = None

    def normalized(self) -> "ExperimentConfig":
        """Fill algorithm-dependent defaults and validate everything."""
        cfg = self
        if not cfg.n_ancilla:
            cfg = replace(cfg, n_ancilla=(cfg.n_data,))
        if not cfg.beta_inv_list:
            grid = (
                DEFAULT_VQE_BETA_INV_GRID
                if cfg.algorithm == "vqe"
                else DEFAULT_QAOA_BETA_INV_GRID
            )
            cfg = replace(cfg, beta_inv_list=grid)
        if cfg.restarts == 0:
            cfg = replace(
                cfg,
                restarts=(
                    DEFAULT_VQE_RESTARTS
                    if cfg.algorithm == "vqe"
                    else DEFAULT_QAOA_RESTARTS
                ),
            )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.model not in MODEL_BUILDERS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.n_data < 2:
            raise ConfigError("n_data must be >= 2")
        if not self.n_ancilla or any(a < 1 for a in self.n_ancilla):
            raise ConfigError("n_ancilla entries must be >= 1")
        if not self.beta_inv_list or any(
            not (b > 0 and np.isfinite(b)) for b in self.beta_inv_list
        ):
            raise ConfigError("beta_inv_list must be nonempty with positive entries")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if not 0 <= self.layer_budget <= MAX_QAOA_LAYERS:
            raise ConfigError(f"layer_budget must be in [0, {MAX_QAOA_LAYERS}]")
        if isinstance(self.truncation, int) and self.truncation < 0:
            raise ConfigError("truncation order must be >= 0")
        if isinstance(self.truncation, str) and self.truncation != "exact":
            raise ConfigError(f"truncation must be 'exact' or an integer")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.algorithm in ("qaoa", "baseline"):
            if any(a != self.n_data for a in self.n_ancilla):
                raise ConfigError(
                    f"{self.algorithm} requires n_ancilla == n_data"
                )
            h = MODEL_BUILDERS[self.model](self.n_data)
            if not joint_problem_hamiltonian(h).terms_commute():
                raise ConfigError(
                    f"{self.algorithm} needs a cost Hamiltonian with mutually "
                    f"commuting terms; {self.model} at n_data={self.n_data} "
                    "does not qualify"
                )

    def config_hash(self) -> str:
        """Short digest over all result-relevant fields (not out/workers)."""
        payload = "\n".join(
            [
                f"model={self.model}",
                f"n_data={self.n_data}",
                f"n_ancilla={','.join(str(a) for a in self.n_ancilla)}",
                f"beta_inv_list={','.join(format_float(b) for b in self.beta_inv_list)}",
                f"algorithm={self.algorithm}",
                f"epsilon={format_float(self.epsilon)}",
                f"layer_budget={self.layer_budget}",
                f"truncation={self.truncation}",
                f"restarts={self.restarts}",
                f"master_seed={self.master_seed}",
            ]
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


def parse_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` text; '#' lines are comments, lists are comma-separated."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
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
    fields: dict = {}
    for key, value in raw.items():
        if value is None:
            continue
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            fields[key] = _CONFIG_PARSERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    return ExperimentConfig(**fields).normalized()


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
    """A CSV or series field: a float by :func:`format_float`, anything else by str."""
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

    def to_csv_row(self) -> str:
        return ",".join(_format_value(getattr(self, c)) for c in CSV_COLUMNS)


# The field types of ResultRecord parse its CSV columns back (_read_csv).
_COLUMN_TYPES = get_type_hints(ResultRecord)


@dataclass
class CellResult:
    record: ResultRecord
    trace_dicts: list[dict]


def _run_cell(
    config: ExperimentConfig, beta_index: int, n_ancilla: int
) -> CellResult:
    """Run all restarts of one (beta_inv, n_ancilla) cell and postselect."""
    started = time.perf_counter()
    beta_inv = config.beta_inv_list[beta_index]
    beta = 1.0 / beta_inv
    hamiltonian = MODEL_BUILDERS[config.model](config.n_data)
    exact = gibbs_state(hamiltonian, beta)
    if config.truncation == "exact":
        optimization_target = exact
    else:
        optimization_target = truncated_target(hamiltonian, beta, config.truncation)
    ctx = ObjectiveContext(optimization_target, config.n_data, n_ancilla)
    bound = max_fidelity_bound(exact, n_ancilla)

    seeds = [
        cell_seed(config.master_seed, config.model, beta_index, n_ancilla, r)
        for r in range(config.restarts)
    ]
    if config.algorithm == "vqe":
        settings = VqeSettings(
            pool=build_vqe_pool(config.n_data + n_ancilla), epsilon=config.epsilon
        )

        def run(index: int):
            return adapt_vqe_run(settings, ctx, exact, seeds[index])

    else:
        settings = QaoaSettings(
            pool=build_qaoa_pool(
                config.n_data, entangling_hamiltonian(config.n_data)
            ),
            cost_operator=joint_problem_hamiltonian(hamiltonian),
            layer_budget=config.layer_budget,
        )
        runner = adapt_qaoa_run if config.algorithm == "qaoa" else baseline_qaoa_run

        def run(index: int):
            gamma0 = float(
                np.random.default_rng(seeds[index]).uniform(0.0, np.pi / 2)
            )
            return runner(settings, ctx, exact, gamma0, seeds[index])

    outcome = restart_postselect(run, config.restarts)
    best = outcome.trace
    run_id = (
        f"{config.algorithm}_{config.model}_nd{config.n_data}"
        f"_na{n_ancilla}_b{beta_index}"
    )
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
    for restart_index, trace in enumerate(outcome.traces):
        payload = trace.to_dict()
        payload["run_id"] = run_id
        payload["config_hash"] = record.config_hash
        payload["restart_index"] = restart_index
        payload["beta_inv"] = beta_inv
        payload["model"] = config.model
        payload["truncation"] = str(config.truncation)
        payload["postselected"] = trace is outcome.trace
        trace_dicts.append(payload)
    return CellResult(record=record, trace_dicts=trace_dicts)


def _cell_job(args: tuple) -> CellResult:
    return _run_cell(*args)


def run_sweep(config: ExperimentConfig) -> list[ResultRecord]:
    """Run the full cell grid; persist CSV rows and traces if ``out`` is set.

    Rows are written in deterministic grid order (ancilla-major, then
    temperature) with a flush after each row, so an interrupted sweep leaves
    only whole rows behind. Worker processes only change wall-clock columns.
    """
    config = config.normalized()
    out_dir = Path(config.out) if config.out else None
    writer = None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "traces").mkdir(exist_ok=True)
            csv_path = out_dir / "results.csv"
            header = [CSV_SCHEMA_COMMENT, ",".join(CSV_COLUMNS)]
            fresh = not csv_path.exists()
            if not fresh:
                with csv_path.open() as existing:
                    found = [existing.readline().rstrip("\n") for _ in header]
                if found != header:
                    raise ConfigError(
                        f"{csv_path} has header {found}, expected {header};"
                        " write to another output directory"
                    )
            writer = csv_path.open("a")
            if fresh:
                writer.write("\n".join(header) + "\n")
                writer.flush()
        except OSError as exc:
            raise ConfigError(f"cannot write to output path {out_dir}: {exc}")

    cells = [
        (config, beta_index, n_ancilla)
        for n_ancilla in config.n_ancilla
        for beta_index in range(len(config.beta_inv_list))
    ]
    records: list[ResultRecord] = []
    executor = None
    try:
        if config.workers == 1 or len(cells) == 1:
            results = map(_cell_job, cells)
        else:
            # Imported here: concurrent.futures.process costs a serial run's
            # start-up ~20 ms.
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(max_workers=config.workers)
            results = executor.map(_cell_job, cells)
        for cell in results:
            records.append(cell.record)
            if writer is not None:
                writer.write(cell.record.to_csv_row() + "\n")
                writer.flush()
                for payload in cell.trace_dicts:
                    trace_path = out_dir / "traces" / (
                        f"{payload['run_id']}.{payload['config_hash']}"
                        f".r{payload['restart_index']}.json"
                    )
                    trace_path.write_text(json.dumps(payload, indent=1))
    finally:
        if executor is not None:
            # On an error, queued cells are dropped instead of run to the end.
            executor.shutdown(cancel_futures=True)
        if writer is not None:
            writer.close()
    return records


# -- trace replay -----------------------------------------------------------


def replay_state(trace: dict, n_data: int, n_ancilla: int) -> StateVector:
    """Rebuild the final state of a persisted trace bit-exactly."""
    spec = trace["reference_spec"]
    if spec["kind"] == "random_y":
        reference = reference_from_angles(
            n_data, n_ancilla, np.array(spec["angles"])
        )
    elif spec["kind"] == "singlet":
        reference = singlet_reference_state(n_data)
    else:
        raise ValueError(f"unknown reference kind {spec['kind']!r}")
    generators = []
    for label in trace["generator_labels"]:
        if label == "ENTANGLER":
            generators.append(
                PoolOperator.from_entangler(entangling_hamiltonian(n_data), n_data)
            )
        else:
            generators.append(PoolOperator.from_pauli(PauliString.from_label(label)))
    cost = None
    if trace["flavor"] in ("qaoa", "baseline"):
        cost = joint_problem_hamiltonian(
            MODEL_BUILDERS[trace["model"]](n_data)
        )
    ansatz = Ansatz(
        flavor=trace["flavor"],
        n_data=n_data,
        n_ancilla=n_ancilla,
        reference=reference,
        reference_spec=spec,
        generators=generators,
        parameters=np.array(trace["final_parameters"], dtype=np.float64),
        cost_operator=cost,
    )
    return ansatz.prepare()


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
    trials: int
    threshold: float
    engine_threshold: float
    max_deviation: float
    max_engine_deviation: float
    entries: list[GradcheckTrial]
    passed: bool

    def lines(self) -> list[str]:
        out = [
            f"gradcheck: {self.trials} trials, threshold {self.threshold:g}"
            f" (shift vs fd), {self.engine_threshold:g} (adjoint vs shift)",
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


def _shift_rule_gradient(
    ansatz: Ansatz, params: np.ndarray, ctx: ObjectiveContext
) -> np.ndarray:
    """Full gradient from the two-point shift rule, one Pauli word at a time.

    The ansatz is unrolled into single-word rotations (layered cost and mixer
    generators are commuting Pauli sums), and the chain rule maps each word's
    derivative back onto its parameter.
    """
    words, owners, scales = [], [], []
    for k, op in enumerate(ansatz.generators):
        if ansatz.flavor == "vqe":
            layer = [(k, 1.0, op.terms)]
        else:
            cost = ansatz.cost_operator.terms
            layer = [(2 * k, 0.5, cost), (2 * k + 1, 1.0, op.terms)]
        for index, scale, terms in layer:
            for c, p in terms:
                words.append(PoolOperator.from_pauli(p))
                owners.append(index)
                scales.append(scale * c)
    unrolled = Ansatz(
        flavor="vqe",
        n_data=ansatz.n_data,
        n_ancilla=ansatz.n_ancilla,
        reference=ansatz.reference,
        reference_spec=ansatz.reference_spec,
        generators=words,
    )
    angles = params[owners] * scales
    weighted = [
        scale * shift_gradient(unrolled.prepare, i, angles, ctx)
        for i, scale in enumerate(scales)
    ]
    return np.bincount(owners, weights=weighted, minlength=params.size)


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
    pool = build_vqe_pool(4)
    qaoa_pool = build_qaoa_pool(2, entangling_hamiltonian(2))
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
            n_layers = int(rng.integers(1, 4))
            drawn = rng.integers(0, len(qaoa_pool), n_layers - 1)
            ansatz = Ansatz(
                flavor="qaoa",
                n_data=2,
                n_ancilla=2,
                reference=singlet_reference_state(2),
                reference_spec={"kind": "singlet"},
                generators=[qaoa_pool[-1]] + [qaoa_pool[int(i)] for i in drawn],
                cost_operator=joint_problem_hamiltonian(model),
            )
            params = rng.uniform(-np.pi, np.pi, 2 * n_layers)
        else:
            reference = reference_from_angles(2, 2, rng.uniform(0, 2 * np.pi, size=4))
            n_layers = int(rng.integers(2, 6))
            chosen = [pool[int(i)] for i in rng.integers(0, len(pool), n_layers)]
            params = (
                np.zeros(n_layers)
                if trial == 0
                else rng.uniform(-np.pi, np.pi, n_layers)
            )
            ansatz = Ansatz(
                flavor="vqe",
                n_data=2,
                n_ancilla=2,
                reference=reference,
                reference_spec={"kind": "random_y"},
                generators=chosen,
            )

        def value_at(x: np.ndarray) -> float:
            return objective(partial_trace_ancilla(ansatz.prepare(x)), ctx)

        exact = _shift_rule_gradient(ansatz, params, ctx)
        h = 1e-5
        deviations = np.zeros(params.size)
        for index in range(params.size):
            plus, minus = params.copy(), params.copy()
            plus[index] += h
            minus[index] -= h
            approx = (value_at(plus) - value_at(minus)) / (2 * h)
            deviations[index] = abs(exact[index] - approx)
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
    max_deviation = max(e.deviation for e in entries)
    max_engine_deviation = max(e.engine_deviation for e in entries)
    return GradcheckReport(
        trials=trials,
        threshold=GRADCHECK_THRESHOLD,
        engine_threshold=GRADCHECK_ENGINE_THRESHOLD,
        max_deviation=max_deviation,
        max_engine_deviation=max_engine_deviation,
        entries=entries,
        passed=bool(
            max_deviation < GRADCHECK_THRESHOLD
            and max_engine_deviation < GRADCHECK_ENGINE_THRESHOLD
        ),
    )


# -- plot data --------------------------------------------------------------

INFIDELITY_FLOOR = 1e-16
CONVERGED_FIDELITY = 0.99


def _read_csv(csv_path: Path) -> list[dict]:
    if not csv_path.exists():
        raise ConfigError(f"no such CSV: {csv_path}")
    lines = [
        line
        for line in csv_path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if not lines:
        raise ConfigError(f"{csv_path} has no header row")
    header = lines[0].split(",")
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"{csv_path} is missing columns: {missing}")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for column in CSV_COLUMNS:
            row[column] = _COLUMN_TYPES[column](row[column])
        row["algorithm"] = row["run_id"].split("_", 1)[0]
        rows.append(row)
    if not rows:
        raise ConfigError(f"{csv_path} contains no data rows")
    return rows


def _write_series(path: Path, header: str, rows: list[tuple]) -> Path:
    lines = [f"# {header}"]
    for row in rows:
        lines.append(" ".join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _fixed_mixer_cnots(model: str, n_data: int) -> int:
    """CNOTs of the fixed-entangler ansatz at n_data/2 layers (convention)."""
    h = MODEL_BUILDERS[model](n_data)
    two_qubit_terms = sum(1 for _, p in h.terms if p.weight == 2)
    layers = math.ceil(n_data / 2)
    return n_data + layers * (2 * two_qubit_terms + 3 * n_data)


def emit_plot_data(
    csv_path: str | Path, panel: str, out_dir: str | Path
) -> list[Path]:
    """Write whitespace-delimited series files for one figure panel.

    ``fig1``: per model, fidelity and rank-bound vs inverse temperature per
    ancilla count, a long-format CNOT series, and the fixed-mixer overlay.
    ``fig2``: per temperature, fidelity vs layer (from the postselected
    traces; truncated rows get an ``_m{order}`` suffix), plus CNOTs to reach
    99% fidelity vs temperature.
    ``fig3``: per model and truncation order, infidelity vs temperature,
    with ``exact`` rows emitted as the untruncated series.
    """
    csv_path = Path(csv_path)
    out_dir = Path(out_dir)
    rows = _read_csv(csv_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if panel == "fig1":
        vqe_rows = [
            r for r in rows if r["algorithm"] == "vqe" and r["truncation"] == "exact"
        ]
        if not vqe_rows:
            raise ConfigError("fig1 needs exact-target vqe rows")
        for model in sorted({r["model"] for r in vqe_rows}):
            model_rows = [r for r in vqe_rows if r["model"] == model]
            ancillas = sorted({r["n_ancilla"] for r in model_rows})
            for a in ancillas:
                series = sorted(
                    (r["beta_inv"], r["fidelity"])
                    for r in model_rows
                    if r["n_ancilla"] == a
                )
                written.append(
                    _write_series(
                        out_dir / f"{model}_fidelity_na{a}.dat",
                        "beta_inv fidelity",
                        series,
                    )
                )
                bound_series = sorted(
                    (r["beta_inv"], r["max_fidelity_bound"])
                    for r in model_rows
                    if r["n_ancilla"] == a
                )
                written.append(
                    _write_series(
                        out_dir / f"{model}_bound_na{a}.dat",
                        "beta_inv max_fidelity_bound",
                        bound_series,
                    )
                )
            cnot_series = sorted(
                (r["beta_inv"], r["n_ancilla"], r["cnot_count"])
                for r in model_rows
            )
            written.append(
                _write_series(
                    out_dir / f"{model}_cnots.dat",
                    "beta_inv n_ancilla cnot_count",
                    cnot_series,
                )
            )
            n_data = model_rows[0]["n_data"]
            overlay = _fixed_mixer_cnots(model, n_data)
            betas = sorted({r["beta_inv"] for r in model_rows})
            written.append(
                _write_series(
                    out_dir / f"{model}_fixed_mixer_cnots.dat",
                    "beta_inv cnot_count",
                    [(b, overlay) for b in betas],
                )
            )
        return written

    if panel == "fig2":
        traces_dir = csv_path.parent / "traces"
        qaoa_rows = [r for r in rows if r["algorithm"] == "qaoa"]
        if not qaoa_rows:
            raise ConfigError("fig2 needs qaoa rows")
        qaoa_rows.sort(key=lambda r: r["beta_inv"])

        def suffix(row: dict) -> str:
            return "" if row["truncation"] == "exact" else f"_m{row['truncation']}"

        # Truncated rows are named as in fig3; a name two rows share is refused.
        names = [
            f"qaoa_fidelity_binv{r['beta_inv']:g}{suffix(r)}.dat" for r in qaoa_rows
        ]
        shared = sorted({n for n in names if names.count(n) > 1})
        if shared:
            raise ConfigError(
                f"several qaoa rows map to {shared}; emit their sweeps separately"
            )
        # One CNOT series per algorithm and truncation order, named like the above.
        to_target: dict[str, list[tuple[float, int]]] = {}
        for row, name in zip(qaoa_rows, names):
            trace = _load_postselected_trace(traces_dir, row)
            series = [
                (rec["index"], rec["fidelity"]) for rec in trace["records"]
            ]
            written.append(_write_series(out_dir / name, "layer fidelity", series))
            _add_cnots_to_target(
                to_target, f"qaoa_cnots_to_target{suffix(row)}", row, trace
            )
        baseline_rows = [r for r in rows if r["algorithm"] == "baseline"]
        for row in sorted(baseline_rows, key=lambda r: r["beta_inv"]):
            trace = _load_postselected_trace(traces_dir, row)
            _add_cnots_to_target(
                to_target, f"baseline_cnots_to_target{suffix(row)}", row, trace
            )
        for stem, series in to_target.items():
            written.append(
                _write_series(
                    out_dir / f"{stem}.dat",
                    f"beta_inv cnot_count_to_fidelity_{CONVERGED_FIDELITY}",
                    series,
                )
            )
        return written

    if panel == "fig3":
        vqe_rows = [r for r in rows if r["algorithm"] == "vqe"]
        if not vqe_rows:
            raise ConfigError("fig3 needs vqe rows")
        for model in sorted({r["model"] for r in vqe_rows}):
            model_rows = [r for r in vqe_rows if r["model"] == model]
            for trunc in sorted({r["truncation"] for r in model_rows}):
                series = sorted(
                    (
                        r["beta_inv"],
                        max(1.0 - r["fidelity"], INFIDELITY_FLOOR),
                    )
                    for r in model_rows
                    if r["truncation"] == trunc
                )
                suffix = "minf" if trunc == "exact" else f"m{trunc}"
                written.append(
                    _write_series(
                        out_dir / f"{model}_infidelity_{suffix}.dat",
                        "beta_inv infidelity",
                        series,
                    )
                )
        return written

    raise ConfigError(f"unknown panel {panel!r}; expected fig1, fig2 or fig3")


def _add_cnots_to_target(
    to_target: dict[str, list[tuple[float, int]]], stem: str, row: dict, trace: dict
) -> None:
    """Append ``(beta_inv, CNOTs at the first record reaching CONVERGED_FIDELITY)``."""
    for rec in trace["records"]:
        if rec["fidelity"] >= CONVERGED_FIDELITY:
            to_target.setdefault(stem, []).append((row["beta_inv"], rec["cnot_count"]))
            return


def _load_postselected_trace(traces_dir: Path, row: dict) -> dict:
    """Locate the restart trace of the row's run_id, config_hash and seed."""
    key = f"{row['run_id']}.{row['config_hash']}"
    matches = sorted(traces_dir.glob(f"{key}.r*.json"))
    if not matches:
        raise ConfigError(f"no trace files for {key} under {traces_dir}")
    for path in matches:
        payload = json.loads(path.read_text())
        if payload.get("seed") == row["seed"]:
            return payload
    raise ConfigError(f"no trace with seed {row['seed']} for {key}")
