"""Config parsing, seed scheme, sweeps, CSV persistence, plot-data emission."""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from gibbsprep import NumericalFailure, partial_trace_ancilla
from gibbsprep.harness import (
    CSV_COLUMNS,
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
    return ExperimentConfig(**base).normalized()


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

    def test_layered_requires_matching_registers(self):
        with pytest.raises(ConfigError, match="n_ancilla == n_data"):
            tiny_config(algorithm="qaoa", n_ancilla=(1,))

    def test_layered_rejects_noncommuting_cost_model(self):
        # 2-site XY terms commute, 3-site ones do not
        tiny_config(algorithm="qaoa", model="xy", n_data=2, n_ancilla=(2,))
        with pytest.raises(ConfigError, match="commut"):
            tiny_config(algorithm="qaoa", model="xy", n_data=3, n_ancilla=(3,))

    def test_default_grids_and_restarts(self):
        vqe = ExperimentConfig(algorithm="vqe").normalized()
        assert vqe.beta_inv_list == DEFAULT_VQE_BETA_INV_GRID
        assert vqe.restarts == 5
        qaoa = ExperimentConfig(algorithm="qaoa").normalized()
        assert qaoa.beta_inv_list == DEFAULT_QAOA_BETA_INV_GRID
        assert qaoa.restarts == 8
        assert qaoa.n_ancilla == (qaoa.n_data,)

    def test_config_hash_ignores_out_and_workers(self):
        a = tiny_config(out="/tmp/a", workers=1)
        b = tiny_config(out="/tmp/b", workers=2)
        assert a.config_hash() == b.config_hash()
        c = tiny_config(master_seed=8)
        assert a.config_hash() != c.config_hash()


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
        from gibbsprep.harness import _read_csv

        record = self._record(
            beta_inv=0.1 + 0.2,
            objective=-1 / 3,
            fidelity=0.97 * (1 + 2**-52),
            pool_grad_norm=pool_grad_norm,
            max_fidelity_bound=math.pi / 3.2,
            wall_ms=1e-300 / 3,
        )
        path = tmp_path / "results.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + record.to_csv_row() + "\n")
        (row,) = _read_csv(path)
        for column in CSV_COLUMNS:
            written, read = getattr(record, column), row[column]
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
        from gibbsprep.harness import _load_postselected_trace, _read_csv

        out = tmp_path / "out"
        for truncation in ("exact", 3):
            run_sweep(
                tiny_config(algorithm="qaoa", n_ancilla=(2,), layer_budget=1,
                            truncation=truncation, out=str(out))
            )
        rows = _read_csv(out / "results.csv")
        assert [r["truncation"] for r in rows] == ["exact", "3"]
        assert rows[0]["run_id"] == rows[1]["run_id"]
        assert rows[0]["seed"] == rows[1]["seed"]
        assert len(list((out / "traces").glob("*.json"))) == 2
        for row in rows:
            trace = _load_postselected_trace(out / "traces", row)
            assert trace["truncation"] == row["truncation"]
            assert trace["config_hash"] == row["config_hash"]
            assert trace["postselected"]

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
        from gibbsprep import ObjectiveContext, gibbs_state, ising_hamiltonian, objective

        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 1.0), 2, 2)
        value = objective(partial_trace_ancilla(state), ctx)
        assert abs(value - records[0].objective) < 1e-12


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
        assert not list((tmp_path / "plot").glob("*.dat"))

    def test_fig3_series_per_truncation(self, sweep_outputs, tmp_path):
        written = emit_plot_data(sweep_outputs / "results.csv", "fig3", tmp_path)
        names = [p.name for p in written]
        assert "ising_infidelity_minf.dat" in names
        assert "ising_infidelity_m3.dat" in names
        body = (tmp_path / "ising_infidelity_minf.dat").read_text().splitlines()
        values = [float(line.split()[1]) for line in body[1:]]
        assert all(v >= 1e-16 for v in values)

    def test_empty_csv_rejected(self, tmp_path):
        csv_path = tmp_path / "results.csv"
        csv_path.write_text("# comment\n" + ",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(ConfigError, match="no data rows"):
            emit_plot_data(csv_path, "fig1", tmp_path / "series")
        assert not (tmp_path / "series").exists()

    def test_missing_columns_rejected(self, tmp_path):
        csv_path = tmp_path / "results.csv"
        csv_path.write_text("run_id,model\nx,y\n")
        with pytest.raises(ConfigError, match="missing columns"):
            emit_plot_data(csv_path, "fig1", tmp_path / "series")

    def test_unknown_panel_rejected(self, sweep_outputs, tmp_path):
        with pytest.raises(ConfigError, match="unknown panel"):
            emit_plot_data(sweep_outputs / "results.csv", "fig9", tmp_path)


class TestFormatFloat:
    def test_roundtrip(self):
        for x in (1 / 3, 0.1, 2e-16, 123456.789):
            assert float(format_float(x)) == x
