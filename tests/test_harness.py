"""Config parsing, seed scheme, sweeps, CSV persistence, plot-data emission."""

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from gibbsprep import (
    Ansatz,
    NumericalFailure,
    ObjectiveContext,
    PoolOperator,
    cnot_count,
    entangling_hamiltonian,
    gibbs_state,
    joint_problem_hamiltonian,
    objective,
    partial_trace_ancilla,
    truncated_target,
)
from gibbsprep.adapt import ENTANGLER_LABEL, GROWTH_RUNS, CostGate
from gibbsprep.harness import (
    CSV_COLUMNS,
    CSV_SCHEMA_COMMENT,
    MODEL_BUILDERS,
    ConfigError,
    DEFAULT_QAOA_BETA_INV_GRID,
    DEFAULT_VQE_BETA_INV_GRID,
    ExperimentConfig,
    ResultRecord,
    build_config,
    cell_seed,
    emit_plot_data,
    format_float,
    gradcheck,
    parse_config_file,
    replay_state,
    run_sweep,
)

from conftest import replayed_objective, without_wall_ms


def tiny_config(**overrides):
    base = dict(
        model="ising",
        n_data=2,
        n_ancilla=(1,),
        beta_inv_list=(1.0,),
        algorithm="vqe",
        epsilon=1e-2,
        restarts=1,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_file_parsing_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# sweep configuration\n"
            "model = xy\n"
            "n_data = 2\n"
            "n_ancilla = 1,2\n"
            "beta_inv_list = 0.5, 1.0\n"
            "algorithm = vqe\n"
            "restarts = 2\n"
        )
        raw = parse_config_file(cfg_file)
        raw["restarts"] = "3"  # CLI override wins
        config = build_config(raw)
        assert config.model == "xy"
        assert config.n_ancilla == (1, 2)
        assert config.beta_inv_list == (0.5, 1.0)
        assert config.restarts == 3

    def test_none_value_is_not_given(self):
        # A flag that was not passed reaches build_config as None.
        config = build_config({"n_data": "2", "restarts": None, "out": None})
        assert config == build_config({"n_data": "2"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            build_config({"modle": "ising"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"n_data": "two"})
        with pytest.raises(ConfigError):
            tiny_config(beta_inv_list=(0.0,))
        with pytest.raises(ConfigError):
            tiny_config(restarts=-1)
        with pytest.raises(ConfigError):
            tiny_config(truncation="m5")

    def test_repeated_ancilla_count_rejected(self):
        with pytest.raises(ConfigError, match="repeated"):
            tiny_config(n_ancilla=(1, 2, 1))
        with pytest.raises(ConfigError, match="repeated"):
            build_config({"n_data": "2", "n_ancilla": "1,1"})

    def test_repeated_temperature_gets_its_own_run_and_seed(self):
        records = run_sweep(tiny_config(beta_inv_list=(1.0, 1.0)))
        assert len({r.run_id for r in records}) == 2
        assert len({r.seed for r in records}) == 2

    def test_layered_requires_matching_registers(self):
        with pytest.raises(ConfigError, match="n_ancilla == n_data"):
            tiny_config(algorithm="qaoa", n_ancilla=(1,))

    def test_layered_accepts_noncommuting_cost_model(self):
        # 2-site XY terms commute, 3-site ones do not; the cost gate takes both.
        for n_data in (2, 3):
            config = tiny_config(
                algorithm="qaoa", model="xy", n_data=n_data, n_ancilla=(n_data,)
            )
            assert (config.model, config.n_data) == ("xy", n_data)

    def test_invalid_config_refused_when_constructed(self):
        with pytest.raises(ConfigError, match="restarts"):
            ExperimentConfig(restarts=-1)
        valid = tiny_config()
        with pytest.raises(ConfigError, match="n_ancilla"):
            dataclasses.replace(valid, n_ancilla=(0,))
        layered_xy = dict(algorithm="qaoa", model="xy", n_data=3)
        with pytest.raises(ConfigError, match="n_ancilla == n_data"):
            dataclasses.replace(valid, n_ancilla=(2,), **layered_xy)
        assert dataclasses.replace(valid, n_ancilla=(3,), **layered_xy).n_data == 3

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    @pytest.mark.parametrize("n_data", range(2, 7))
    def test_commute_check_on_h_agrees_with_the_mirrored_cost(self, model, n_data):
        # The config takes every model; the one commute check is the shift
        # rule's, in CostGate.terms, and it reads H, not the mirrored cost.
        h = MODEL_BUILDERS[model](n_data)
        commutes = joint_problem_hamiltonian(h).terms_commute
        assert h.terms_commute == commutes
        tiny_config(algorithm="qaoa", model=model, n_data=n_data, n_ancilla=(n_data,))
        if commutes:
            assert len(CostGate(h).terms) == 2 * len(h.terms)
        else:
            with pytest.raises(ValueError, match="commute"):
                CostGate(h).terms

    def test_default_grids_and_restarts(self):
        vqe = ExperimentConfig(algorithm="vqe")
        assert vqe.beta_inv_list == DEFAULT_VQE_BETA_INV_GRID
        assert vqe.restarts == 5
        qaoa = ExperimentConfig(algorithm="qaoa")
        assert qaoa.beta_inv_list == DEFAULT_QAOA_BETA_INV_GRID
        assert qaoa.restarts == 8
        assert qaoa.n_ancilla == (qaoa.n_data,)

    def test_config_hash_ignores_out_and_workers(self):
        a = tiny_config(out="/tmp/a", workers=1)
        b = tiny_config(out="/tmp/b", workers=2)
        assert a.config_hash() == b.config_hash()
        c = tiny_config(master_seed=8)
        assert a.config_hash() != c.config_hash()

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({}, "04537d53bc37"),
            (
                dict(
                    n_ancilla=(1, 2),
                    beta_inv_list=(0.5, 1 / 3),
                    truncation=3,
                    epsilon=1e-4,
                ),
                "06f91c27f36f",
            ),
            (dict(algorithm="qaoa", n_ancilla=(2,), layer_budget=2), "b2b09553c6e9"),
        ],
    )
    def test_config_hash_is_pinned(self, overrides, digest):
        # Trace file names carry the digest: a new one orphans existing traces.
        assert tiny_config(**overrides).config_hash() == digest


class TestSeedScheme:
    def test_pinned_values(self):
        # frozen: the documented SeedSequence-based derivation must not drift
        assert cell_seed(1234, "ising", 0, 4, 0) == 3324858440468420795
        assert cell_seed(1234, "xy", 0, 4, 0) == 17795478238518367211
        assert cell_seed(1234, "ising", 3, 2, 4) == 10209910920304480762

    def test_distinct_across_axes(self):
        seeds = {
            cell_seed(1, m, b, a, r)
            for m in ("ising", "xy")
            for b in range(3)
            for a in (1, 2)
            for r in range(3)
        }
        assert len(seeds) == 2 * 3 * 2 * 3


class TestResultRecord:
    def _record(self, **overrides):
        fields = dict(
            run_id="vqe_ising_nd2_na1_b0",
            config_hash="abc",
            model="ising",
            n_data=2,
            n_ancilla=1,
            beta_inv=1.0,
            truncation="exact",
            seed=1,
            iteration_index=3,
            objective=-0.4,
            fidelity=0.97,
            pool_grad_norm=1e-4,
            cnot_count=12,
            max_fidelity_bound=0.98,
            wall_ms=10.0,
        )
        fields.update(overrides)
        return ResultRecord(**fields)

    def test_accepts_valid(self):
        self._record()

    def test_rejects_fidelity_above_bound(self):
        with pytest.raises(NumericalFailure):
            self._record(fidelity=0.99, max_fidelity_bound=0.98)

    def test_row_uses_17_significant_digits(self):
        row = self._record(objective=-1 / 3).to_csv_row()
        assert "-0.33333333333333331" in row

    @pytest.mark.parametrize("pool_grad_norm", [1e-4, float("nan")])
    def test_row_reads_back_bit_exactly(self, tmp_path, pool_grad_norm):
        from gibbsprep.harness import _read_results

        record = self._record(
            beta_inv=0.1 + 0.2,
            objective=-1 / 3,
            fidelity=0.97 * (1 + 2**-52),
            pool_grad_norm=pool_grad_norm,
            max_fidelity_bound=math.pi / 3.2,
            wall_ms=1e-300 / 3,
        )
        path = tmp_path / "results.csv"
        header = [CSV_SCHEMA_COMMENT, ",".join(CSV_COLUMNS)]
        path.write_text("\n".join(header + [record.to_csv_row()]) + "\n")
        (row,) = _read_results(path)
        for column in CSV_COLUMNS:
            written, read = getattr(record, column), getattr(row, column)
            assert type(read) is type(written), column
            if isinstance(written, float):
                assert struct.pack("<d", read) == struct.pack("<d", written), column
            else:
                assert read == written, column


class TestRunSweep:
    def test_single_cell_produces_one_record_and_trace(self, tmp_path):
        config = tiny_config(out=str(tmp_path / "out"))
        records = run_sweep(config)
        assert len(records) == 1
        csv_path = tmp_path / "out" / "results.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        traces = sorted((tmp_path / "out" / "traces").glob("*.json"))
        assert len(traces) == 1
        payload = json.loads(traces[0].read_text())
        assert payload["postselected"] is True
        assert payload["seed"] == records[0].seed

    def test_rerun_is_byte_identical_except_timing(self, tmp_path):
        config_a = tiny_config(out=str(tmp_path / "a"), restarts=2)
        config_b = tiny_config(out=str(tmp_path / "b"), restarts=2)
        run_sweep(config_a)
        run_sweep(config_b)

        def stripped(path):
            rows = []
            for line in (path / "results.csv").read_text().splitlines()[2:]:
                rows.append(line.rsplit(",", 1)[0])  # drop wall_ms
            return rows

        assert stripped(tmp_path / "a") == stripped(tmp_path / "b")

    def test_grid_order_and_record_counts(self, tmp_path):
        config = tiny_config(
            n_ancilla=(1, 2), beta_inv_list=(0.5, 1.0), out=str(tmp_path / "o")
        )
        records = run_sweep(config)
        assert [(r.n_ancilla, r.beta_inv) for r in records] == [
            (1, 0.5),
            (1, 1.0),
            (2, 0.5),
            (2, 1.0),
        ]
        trace_files = list((tmp_path / "o" / "traces").glob("*.json"))
        assert len(trace_files) == 4  # one restart per cell

    def test_worker_pool_matches_sequential(self, tmp_path):
        seq = run_sweep(tiny_config(beta_inv_list=(0.5, 1.0), workers=1))
        par = run_sweep(tiny_config(beta_inv_list=(0.5, 1.0), workers=2))
        for a, b in zip(seq, par):
            assert a.to_csv_row().rsplit(",", 1)[0] == b.to_csv_row().rsplit(",", 1)[0]

    def test_failing_cell_tears_down_worker_pool(self, monkeypatch):
        import multiprocessing

        from gibbsprep import harness

        real = harness._run_cell

        def flaky(config, beta_index, n_ancilla):
            if beta_index == 1:
                raise NumericalFailure("injected cell failure")
            return real(config, beta_index, n_ancilla)

        monkeypatch.setattr(harness, "_run_cell", flaky)
        config = tiny_config(beta_inv_list=(0.5, 1.0, 1.5, 2.0), workers=2)
        with pytest.raises(NumericalFailure, match="injected"):
            run_sweep(config)
        assert multiprocessing.active_children() == []

    def test_worker_pool_capped_at_cell_count(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingExecutor:
            """Records the pool size it is given and runs the jobs in-process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, jobs):
                return map(fn, jobs)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        assert len(run_sweep(tiny_config(beta_inv_list=(0.5, 1.0), workers=64))) == 2
        assert sizes == [2]
        run_sweep(tiny_config(workers=64))  # one cell: no pool at all
        assert sizes == [2]

    def test_fidelity_never_exceeds_bound(self, tmp_path):
        records = run_sweep(
            tiny_config(n_ancilla=(1, 2), beta_inv_list=(0.5, 2.0))
        )
        for r in records:
            assert r.fidelity <= r.max_fidelity_bound + 1e-6

    def test_unwritable_output_rejected(self):
        config = tiny_config(out="/proc/definitely/not/writable")
        with pytest.raises(ConfigError):
            run_sweep(config)

    def test_sweeps_differing_in_truncation_keep_their_own_traces(self, tmp_path):
        from gibbsprep.harness import _load_postselected_trace, _read_results

        out = tmp_path / "out"
        for truncation in ("exact", 3):
            run_sweep(
                tiny_config(algorithm="qaoa", n_ancilla=(2,), layer_budget=1,
                            truncation=truncation, out=str(out))
            )
        rows = _read_results(out / "results.csv")
        assert [r.truncation for r in rows] == ["exact", "3"]
        assert rows[0].run_id == rows[1].run_id
        assert rows[0].seed == rows[1].seed
        assert len(list((out / "traces").glob("*.json"))) == 2
        for row in rows:
            trace = _load_postselected_trace(out / "traces", row)
            assert trace["truncation"] == row.truncation
            assert trace["config_hash"] == row.config_hash
            assert trace["postselected"]

    def test_trace_files_keep_their_restart_index_after_a_failure(
        self, monkeypatch, tmp_path
    ):
        real = GROWTH_RUNS["vqe"]

        def first_restart_fails(settings, ctx, target, seed):
            if seed == cell_seed(7, "ising", 0, 1, 0):
                raise NumericalFailure("injected restart failure")
            return real(settings, ctx, target, seed)

        monkeypatch.setitem(GROWTH_RUNS, "vqe", first_restart_fails)
        out = tmp_path / "out"
        run_sweep(tiny_config(restarts=3, out=str(out)))
        paths = sorted((out / "traces").glob("*.json"))
        assert [p.suffixes[-2] for p in paths] == [".r1", ".r2"]
        for path in paths:
            payload = json.loads(path.read_text())
            index = payload["restart_index"]
            assert path.name.endswith(f".r{index}.json")
            assert payload["seed"] == cell_seed(7, "ising", 0, 1, index)

    def test_layered_restart_draws_gamma0_from_its_cell_seed(self, tmp_path):
        out = tmp_path / "out"
        run_sweep(
            tiny_config(algorithm="qaoa", n_ancilla=(2,), layer_budget=1,
                        restarts=2, out=str(out))
        )
        payloads = [
            json.loads(path.read_text())
            for path in sorted((out / "traces").glob("*.json"))
        ]
        assert [p["restart_index"] for p in payloads] == [0, 1]
        for payload in payloads:
            seed = cell_seed(7, "ising", 0, 2, payload["restart_index"])
            assert payload["seed"] == seed
            assert payload["gamma0"] == np.random.default_rng(seed).uniform(
                0.0, np.pi / 2
            )

    def test_failed_trace_write_leaves_no_row(self, monkeypatch, tmp_path):
        real = Path.write_text

        def full_disk(path, *args, **kwargs):
            if path.parent.name == "traces":
                raise OSError(28, "No space left on device")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="No space left"):
            run_sweep(tiny_config(out=str(out)))
        header = [CSV_SCHEMA_COMMENT, ",".join(CSV_COLUMNS)]
        assert (out / "results.csv").read_text().splitlines() == header

    def test_csv_reads_back_as_the_records_the_sweep_returned(self, tmp_path):
        from gibbsprep.harness import _read_results

        out = tmp_path / "out"
        returned = run_sweep(tiny_config(n_ancilla=(1, 2), out=str(out)))
        for algorithm in ("qaoa", "baseline"):  # baseline rows have no pool norm
            returned += run_sweep(
                tiny_config(algorithm=algorithm, n_ancilla=(2,), layer_budget=1,
                            out=str(out))
            )
        assert math.isnan(returned[-1].pool_grad_norm)
        read = _read_results(out / "results.csv")
        # Rows compare as text: a NaN pool norm is never equal to itself.
        assert [r.to_csv_row() for r in read] == [r.to_csv_row() for r in returned]
        assert [r.algorithm for r in read] == ["vqe", "vqe", "qaoa", "baseline"]

    def test_append_rejects_foreign_header(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        foreign = "# some other tool\nrun_id,model,fidelity\n"
        (out / "results.csv").write_text(foreign)
        with pytest.raises(ConfigError, match="header"):
            run_sweep(tiny_config(out=str(out)))
        assert (out / "results.csv").read_text() == foreign
        assert not list((out / "traces").glob("*.json"))

    def test_replay_reproduces_final_state(self, tmp_path):
        config = tiny_config(out=str(tmp_path / "out"), algorithm="qaoa",
                             n_ancilla=(2,), layer_budget=2, restarts=2)
        records = run_sweep(config)
        trace_path = next(
            p
            for p in (tmp_path / "out" / "traces").glob("*.json")
            if json.loads(p.read_text())["postselected"]
        )
        payload = json.loads(trace_path.read_text())
        state = replay_state(payload, config.n_data, 2)
        from gibbsprep import ising_hamiltonian

        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 1.0), 2, 2)
        value = objective(partial_trace_ancilla(state), ctx)
        assert abs(value - records[0].objective) < 1e-12
        with pytest.raises(ValueError, match="qaoa trace needs n_ancilla == n_data"):
            replay_state(payload, config.n_data, 1)

    def test_replay_refuses_nan_parameters(self, tmp_path):
        out = tmp_path / "out"
        run_sweep(tiny_config(out=str(out)))
        (path,) = (out / "traces").glob("*.json")
        payload = json.loads(path.read_text())
        nans = [math.nan] * len(payload["final_parameters"])
        assert nans
        # Python's json writes and reads a bare NaN.
        text = json.dumps(payload | {"final_parameters": nans})
        assert "NaN" in text
        with pytest.raises(ValueError, match="state norm .*nan"):
            replay_state(json.loads(text), 2, 1)

    def test_replay_builds_no_pool_operator(self, monkeypatch, tmp_path):
        # Replay looks its generators up in the pool the sweep already built.
        out = tmp_path / "out"
        config = tiny_config(algorithm="baseline", n_ancilla=(2,), layer_budget=4,
                             out=str(out))
        run_sweep(config)
        (path,) = (out / "traces").glob("*.json")
        payload = json.loads(path.read_text())
        assert payload["generator_labels"] == [ENTANGLER_LABEL] * 4
        built = []
        for name in ("from_entangler", "from_pauli"):
            real = getattr(PoolOperator, name)
            counted = lambda *args, real=real: built.append(args) or real(*args)
            monkeypatch.setattr(PoolOperator, name, counted)
        replay_state(payload, config.n_data, 2)
        assert built == []

    @pytest.mark.parametrize(
        "overrides",
        [dict(n_ancilla=(1, 2)), dict(model="xy", truncation=3)],
        ids=["ising-na1-na2", "xy-truncated"],
    )
    def test_vqe_traces_replay_to_their_objective(self, tmp_path, overrides):
        out = tmp_path / "out"
        run_sweep(tiny_config(out=str(out), restarts=2, **overrides))
        paths = sorted((out / "traces").glob("*.json"))
        assert len(paths) == 2 * len(overrides.get("n_ancilla", (1,)))
        for path in paths:
            payload = json.loads(path.read_text())
            value = replayed_objective(payload)
            assert abs(value - payload["final_objective"]) <= 1e-12, path.name

    @pytest.mark.parametrize(
        "algorithm, n_ancilla, label",
        [("vqe", 1, "X0Z5"), ("qaoa", 2, "Z0")],
        ids=["qubit-outside-the-register", "word-outside-the-layered-pool"],
    )
    def test_replay_refuses_a_label_outside_the_pool(
        self, tmp_path, algorithm, n_ancilla, label
    ):
        out = tmp_path / "out"
        config = tiny_config(algorithm=algorithm, n_ancilla=(n_ancilla,),
                             layer_budget=1, out=str(out))
        run_sweep(config)
        (path,) = (out / "traces").glob("*.json")
        payload = json.loads(path.read_text())
        payload["generator_labels"][-1] = label
        with pytest.raises(ValueError, match=f"generator '{label}' is not in"):
            replay_state(payload, config.n_data, n_ancilla)


@pytest.fixture
def cold_caches():
    """Every process-wide cache of the package emptied before the test and after it.

    A cache is any module-level function with ``cache_clear``, found where
    it is defined, so a new cache is emptied without being listed here.
    """
    from gibbsprep import adapt, cli, harness, models, objective, simcore

    modules = (adapt, cli, harness, models, objective, simcore)
    caches = {
        obj
        for module in modules
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
    }
    assert {adapt.register_pool, adapt._register_groups, simcore.bell_frame} <= caches
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def layered_sweep(algorithm, **overrides):
    settings = dict(n_ancilla=(2,), beta_inv_list=(0.5, 1.0), layer_budget=2)
    return tiny_config(algorithm=algorithm, **(settings | overrides))


class TestProcessCaches:
    def test_warm_caches_reproduce_a_cold_run(self, cold_caches, tmp_path):
        def run_all(out):
            for algorithm in ("qaoa", "baseline"):
                run_sweep(layered_sweep(algorithm, restarts=2, out=str(out)))
            run_sweep(tiny_config(n_ancilla=(1, 2), restarts=2, out=str(out)))
            rows = [
                line.rsplit(",", 1)[0]  # drop wall_ms
                for line in (out / "results.csv").read_text().splitlines()
            ]
            traces = {
                path.name: without_wall_ms(json.loads(path.read_text()))
                for path in sorted((out / "traces").glob("*.json"))
            }
            return rows, traces

        cold_rows, cold_traces = run_all(tmp_path / "cold")
        warm_rows, warm_traces = run_all(tmp_path / "warm")
        assert len(cold_rows) == 2 + 2 + 2 + 2 and len(cold_traces) == 12
        assert warm_rows == cold_rows
        assert warm_traces == cold_traces

    @staticmethod
    def count_calls(monkeypatch, module, name) -> list:
        """The argument tuples of every call of ``module.name`` from now on."""
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_layered_sweeps_build_the_pool_once(self, cold_caches, monkeypatch):
        from gibbsprep import adapt, models

        pools = self.count_calls(monkeypatch, adapt, "build_qaoa_pool")
        groups = self.count_calls(monkeypatch, adapt, "_terms_by_support")
        for algorithm in ("qaoa", "baseline", "qaoa"):
            assert len(run_sweep(layered_sweep(algorithm, layer_budget=1))) == 2
        assert len(pools) == len(groups) == 1
        # One eigensystem (the model's, shared by every cell) and one cost gate.
        assert models._eigensystem.cache_info().misses == 1
        assert adapt._cost_gate.cache_info().misses == 1

    @pytest.mark.parametrize("model", ["ising", "xy"])
    def test_layered_sweep_pays_one_eigh_per_hamiltonian(
        self, cold_caches, monkeypatch, model
    ):
        # The model's eigensystem (which the xy cost gate's frame shares) and
        # each cell's target square root.
        calls = self.count_calls(monkeypatch, np.linalg, "eigh")
        config = layered_sweep("qaoa", model=model, n_data=3, n_ancilla=(3,),
                               layer_budget=1)
        assert len(run_sweep(config)) == 2
        assert len(calls) == 3

    def test_baseline_sweep_builds_no_support_groups(self, cold_caches, monkeypatch):
        from gibbsprep import adapt

        groups = self.count_calls(monkeypatch, adapt, "_terms_by_support")
        assert len(run_sweep(layered_sweep("baseline", layer_budget=2))) == 2
        assert groups == []
        assert len(run_sweep(layered_sweep("qaoa", layer_budget=1))) == 2
        assert len(groups) == 1


class TestGradcheck:
    def test_hundred_trials_pass(self):
        report = gradcheck(seed=0, trials=100)
        assert report.passed
        assert report.max_deviation < 1e-6

    def test_single_zero_parameter_trial(self):
        report = gradcheck(seed=5, trials=1)
        assert report.passed
        assert report.entries[0].trial == 0

    def test_report_format(self):
        report = gradcheck(seed=1, trials=2)
        lines = report.lines()
        assert any("worst index" in line for line in lines)
        assert lines[-1].startswith("gradcheck PASS")

    def test_layered_trials_check_the_adjoint_engine(self):
        report = gradcheck(seed=2, trials=8)
        assert [e.flavor for e in report.entries].count("qaoa") == 2
        assert report.passed
        assert report.max_engine_deviation < 1e-12

    def test_engine_mismatch_fails(self, monkeypatch):
        from gibbsprep import harness

        real = harness.ansatz_value_and_gradient

        def skewed(ansatz, params, ctx):
            value, grad = real(ansatz, params, ctx)
            return value, grad + 1e-9

        monkeypatch.setattr(harness, "ansatz_value_and_gradient", skewed)
        report = gradcheck(seed=1, trials=2)
        assert report.max_deviation < 1e-6
        assert not report.passed
        assert report.lines()[-1].startswith("gradcheck FAIL")

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            gradcheck(seed=0, trials=0)


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    """One small sweep per algorithm, reused across plot-data tests."""
    root = tmp_path_factory.mktemp("sweeps")
    out = root / "out"
    run_sweep(
        tiny_config(
            n_ancilla=(1, 2),
            beta_inv_list=(0.5, 1.0),
            out=str(out),
        )
    )
    run_sweep(
        tiny_config(
            algorithm="qaoa",
            n_ancilla=(2,),
            beta_inv_list=(0.5, 1.0),
            layer_budget=2,
            restarts=2,
            out=str(out),
        )
    )
    run_sweep(
        tiny_config(
            algorithm="baseline",
            n_ancilla=(2,),
            beta_inv_list=(1.0,),
            layer_budget=2,
            restarts=2,
            out=str(out),
        )
    )
    run_sweep(
        tiny_config(
            truncation=3,
            beta_inv_list=(0.5, 1.0),
            out=str(out),
        )
    )
    return out


class TestEmitPlotData:
    def test_fig1_cardinality(self, sweep_outputs, tmp_path):
        written = emit_plot_data(sweep_outputs / "results.csv", "fig1", tmp_path)
        names = [p.name for p in written]
        assert sum(1 for n in names if "fidelity_na" in n) == 2
        assert sum(1 for n in names if "bound_na" in n) == 2
        assert sum(1 for n in names if n == "ising_cnots.dat") == 1
        assert "ising_fixed_mixer_cnots.dat" in names
        body = (tmp_path / "ising_fidelity_na1.dat").read_text().splitlines()
        assert body[0].startswith("#")
        assert len(body) == 3  # header + 2 temperatures

    def test_fig1_fixed_mixer_overlay_for_xy(self, tmp_path):
        # The overlay is a gate count: it needs no layered xy run.
        out = tmp_path / "out"
        run_sweep(tiny_config(model="xy", n_data=3, out=str(out)))
        emit_plot_data(out / "results.csv", "fig1", tmp_path / "plot")
        overlay = tmp_path / "plot" / "xy_fixed_mixer_cnots.dat"
        assert overlay.read_text() == "# beta_inv cnot_count\n1 45\n"

    @pytest.mark.parametrize("n_data", range(2, 7))
    def test_fig1_overlay_is_the_baseline_ansatz_cnot_count(self, n_data):
        from gibbsprep.harness import _fixed_mixer_cnots

        entangler = PoolOperator.from_entangler(entangling_hamiltonian(n_data), n_data)
        for model, build in sorted(MODEL_BUILDERS.items()):
            layers = [entangler] * math.ceil(n_data / 2)
            ansatz = Ansatz.layered("baseline", build(n_data), layers)
            assert _fixed_mixer_cnots(model, n_data) == cnot_count(ansatz)

    def test_fig1_xy_overlay_is_pinned(self):
        # The values of the convention n + ceil(n/2) (2 per two-qubit term + 3 n),
        # so that a change to the convention shows.
        from gibbsprep.harness import _fixed_mixer_cnots

        overlays = [_fixed_mixer_cnots("xy", n) for n in range(2, 7)]
        assert overlays == [16, 45, 60, 110, 132]

    def test_fig2_layer_series_and_convergence(self, sweep_outputs, tmp_path):
        written = emit_plot_data(sweep_outputs / "results.csv", "fig2", tmp_path)
        names = [p.name for p in written]
        assert "qaoa_fidelity_binv0.5.dat" in names
        assert "qaoa_fidelity_binv1.dat" in names
        series = (tmp_path / "qaoa_fidelity_binv1.dat").read_text().splitlines()
        assert len(series) == 4  # header + layers 0..2

    def test_fig2_keeps_one_series_per_truncation(self, tmp_path):
        out = tmp_path / "out"
        for truncation in ("exact", 3):
            run_sweep(
                tiny_config(algorithm="qaoa", n_ancilla=(2,), layer_budget=1,
                            beta_inv_list=(0.5,), truncation=truncation,
                            out=str(out))
            )
        written = emit_plot_data(out / "results.csv", "fig2", tmp_path / "plot")
        exact = tmp_path / "plot" / "qaoa_fidelity_binv0.5.dat"
        truncated = tmp_path / "plot" / "qaoa_fidelity_binv0.5_m3.dat"
        assert {exact, truncated} <= set(written)
        assert exact.read_text() != truncated.read_text()
        # Both orders reach the target; each CNOT series holds its own row only.
        cnots = tmp_path / "plot" / "qaoa_cnots_to_target.dat"
        cnots_m3 = tmp_path / "plot" / "qaoa_cnots_to_target_m3.dat"
        assert {cnots, cnots_m3} <= set(written)
        for path in (cnots, cnots_m3):
            rows = path.read_text().splitlines()[1:]
            assert len(rows) == 1 and rows[0].startswith("0.5 ")

    def test_fig2_rejects_rows_sharing_a_series(self, tmp_path):
        out = tmp_path / "out"
        for seed in (7, 8):
            run_sweep(
                tiny_config(algorithm="qaoa", n_ancilla=(2,), layer_budget=1,
                            master_seed=seed, out=str(out))
            )
        with pytest.raises(ConfigError, match="qaoa_fidelity_binv1.dat"):
            emit_plot_data(out / "results.csv", "fig2", tmp_path / "plot")
        assert not (tmp_path / "plot").exists()

    def test_fig2_missing_trace_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        run_sweep(
            tiny_config(algorithm="qaoa", n_ancilla=(2,), layer_budget=1,
                        beta_inv_list=(0.5, 1.0), out=str(out))
        )
        # The later row's only restart, hence its postselected trace.
        (trace,) = (out / "traces").glob("qaoa_ising_nd2_na2_b1.*.json")
        payload = json.loads(trace.read_text())
        seed = payload["seed"]
        payload["seed"] += 1  # as if of another restart
        trace.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=f"no trace with seed {seed} for"):
            emit_plot_data(out / "results.csv", "fig2", tmp_path / "plot")
        assert not (tmp_path / "plot").exists()
        trace.unlink()
        with pytest.raises(ConfigError, match="no trace files"):
            emit_plot_data(out / "results.csv", "fig2", tmp_path / "plot")
        assert not (tmp_path / "plot").exists()

    def test_fig3_series_per_truncation(self, sweep_outputs, tmp_path):
        # One series per ancilla count and truncation order, one point per
        # temperature in each: the fixture sweeps na 1 and 2 at exact, na 1 at m3.
        written = emit_plot_data(sweep_outputs / "results.csv", "fig3", tmp_path)
        assert [p.name for p in written] == [
            "ising_infidelity_na1_m3.dat",
            "ising_infidelity_na1_minf.dat",
            "ising_infidelity_na2_minf.dat",
        ]
        for path in written:
            body = path.read_text().splitlines()
            assert body[0] == "# beta_inv infidelity"
            points = [tuple(map(float, line.split())) for line in body[1:]]
            assert [b for b, _ in points] == [0.5, 1.0], path.name
            assert all(v >= 1e-16 for _, v in points)

    def test_empty_csv_rejected(self, tmp_path):
        csv_path = tmp_path / "results.csv"
        csv_path.write_text(CSV_SCHEMA_COMMENT + "\n" + ",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(ConfigError, match="no data rows"):
            emit_plot_data(csv_path, "fig1", tmp_path / "series")
        assert not (tmp_path / "series").exists()

    def test_missing_columns_rejected(self, tmp_path):
        csv_path = tmp_path / "results.csv"
        csv_path.write_text("run_id,model\nx,y\n")
        with pytest.raises(ConfigError, match="header"):
            emit_plot_data(csv_path, "fig1", tmp_path / "series")

    def test_unknown_panel_rejected(self, sweep_outputs, tmp_path):
        with pytest.raises(ConfigError, match="unknown panel"):
            emit_plot_data(sweep_outputs / "results.csv", "fig9", tmp_path)


class TestFormatFloat:
    def test_roundtrip(self):
        for x in (1 / 3, 0.1, 2e-16, 123456.789):
            assert float(format_float(x)) == x
