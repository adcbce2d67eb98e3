"""End-to-end command-line behavior: subcommands, overrides, exit codes."""

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gibbsprep.cli import main
from gibbsprep.harness import CSV_COLUMNS


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "model = ising\n"
        "n_data = 2\n"
        "n_ancilla = 1\n"
        "beta_inv_list = 1.0\n"
        "epsilon = 1e-2\n"
        "restarts = 1\n"
        "master_seed = 7\n"
    )
    return path


class TestSweepCommands:
    def test_vqe_gibbs_runs_and_persists(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["vqe-gibbs", "--config", str(tiny_cfg), "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "vqe_ising_nd2_na1_b0" in captured
        assert (out / "results.csv").exists()
        assert list((out / "traces").glob("*.json"))

    def test_cli_flag_overrides_config(self, tiny_cfg, tmp_path, capsys):
        code = main(
            [
                "vqe-gibbs",
                "--config",
                str(tiny_cfg),
                "--beta_inv_list",
                "0.5",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 0
        assert "beta_inv=0.5" in capsys.readouterr().out

    def test_qaoa_gibbs_forces_algorithm(self, tmp_path, capsys):
        code = main(
            [
                "qaoa-gibbs",
                "--n_data",
                "2",
                "--n_ancilla",
                "2",
                "--beta_inv_list",
                "1.0",
                "--layer_budget",
                "1",
                "--restarts",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 0
        assert "qaoa_ising_nd2_na2_b0" in capsys.readouterr().out

    def test_baseline_subcommand(self, tmp_path, capsys):
        code = main(
            [
                "baseline",
                "--n_data",
                "2",
                "--n_ancilla",
                "2",
                "--beta_inv_list",
                "1.0",
                "--layer_budget",
                "1",
                "--restarts",
                "1",
            ]
        )
        assert code == 0
        assert "baseline_ising_nd2_na2_b0" in capsys.readouterr().out

    def test_sweep_takes_algorithm_from_config(self, tiny_cfg, capsys):
        code = main(["sweep", "--config", str(tiny_cfg), "--algorithm", "vqe"])
        assert code == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model = heisenberg\n")
        assert main(["vqe-gibbs", "--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err
        # The sweep command takes its algorithm from the file.
        for line, message in (
            ("algorithm = annealing", "unknown algorithm 'annealing'"),
            ("n_data 2", f"{bad}:2: expected 'key = value'"),
        ):
            bad.write_text(f"model = ising\n{line}\n")
            assert main(["sweep", "--config", str(bad)]) == 2
            err = capsys.readouterr().err
            assert message in err and len(err.splitlines()) == 1

    def test_key_set_twice_in_config_file_exit_code(self, tiny_cfg, tmp_path, capsys):
        # The last value used to win silently: this file ran n_data 2.
        tiny_cfg.write_text(tiny_cfg.read_text().replace("n_data = 2", "n_data = 3"))
        tiny_cfg.write_text(tiny_cfg.read_text() + "# again\nn_data = 2\n")
        out = tmp_path / "out"
        assert main(["vqe-gibbs", "--config", str(tiny_cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{tiny_cfg}:9: 'n_data' is already set on line 2" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_empty_out_exit_code(self, where, tiny_cfg, tmp_path, monkeypatch, capsys):
        # An empty out used to run the sweep, persist nothing and exit 0.
        monkeypatch.chdir(tmp_path)
        argv = ["vqe-gibbs", "--config", str(tiny_cfg)]
        if where == "flag":
            argv += ["--out", ""]
        else:
            tiny_cfg.write_text(tiny_cfg.read_text() + "out =\n")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: out must be a nonempty path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [tiny_cfg.name]

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("modle = ising\n")
        assert main(["sweep", "--config", str(bad)]) == 2

    def test_repeated_ancilla_count_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["vqe-gibbs", "--n_data", "2", "--n_ancilla", "1,1", "--beta_inv_list",
             "1.0", "--restarts", "1", "--out", str(out)]
        )
        assert code == 2
        assert "repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_temperature_exit_code(self, tmp_path, capsys):
        # It used to run both cells, whose rows every plot-data panel refuses.
        out = tmp_path / "out"
        code = main(
            ["vqe-gibbs", "--n_data", "2", "--n_ancilla", "1", "--beta_inv_list",
             "1.0,1.0", "--restarts", "1", "--out", str(out)]
        )
        assert code == 2
        assert "beta_inv_list has repeated entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["--master_seed", "-1"], "master_seed"),
            (["--epsilon", "nan"], "epsilon"),
            (["--epsilon", "inf"], "epsilon"),
            (["--restarts", "0"], "restarts"),
            (["--n_ancilla", ","], "n_ancilla"),
            (["--beta_inv_list", ","], "beta_inv_list"),
            (["--n_data", "1"], "n_data"),
            (["--layer_budget", "7"], "layer_budget"),
            (["--truncation", "-1"], "truncation"),
            (["--workers", "0"], "workers"),
        ],
    )
    def test_out_of_range_value_exit_code(self, overrides, key, tmp_path, capsys):
        # An explicit 0 or empty list is refused, not read as "use the default".
        out = tmp_path / "out"
        argv = ["vqe-gibbs", "--n_data", "2", "--n_ancilla", "1", "--beta_inv_list",
                "1.0", "--restarts", "1", "--master_seed", "1234", "--out", str(out)]
        assert main(argv + overrides) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_zero_restarts_in_config_file_exit_code(self, tiny_cfg, capsys):
        tiny_cfg.write_text(tiny_cfg.read_text().replace("restarts = 1", "restarts = 0"))
        assert main(["vqe-gibbs", "--config", str(tiny_cfg)]) == 2
        err = capsys.readouterr().err
        assert "restarts" in err and len(err.splitlines()) == 1

    def test_cached_parser_keeps_each_commands_algorithm(self):
        from gibbsprep.cli import _build_parser

        parser = _build_parser()
        for argv, algorithm in (
            (["qaoa-gibbs", "--n_data", "2"], "qaoa"),
            (["sweep", "--algorithm", "baseline"], "baseline"),
            (["vqe-gibbs"], "vqe"),
            (["sweep"], None),  # taken from the config later
        ):
            assert _build_parser() is parser
            assert parser.parse_args(argv).algorithm == algorithm

    def test_layered_register_mismatch_exit_code(self, capsys):
        code = main(
            ["qaoa-gibbs", "--n_data", "2", "--n_ancilla", "1", "--restarts", "1"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["vqe-gibbs", "--n_data", "2", "--n_ancilla", "1"],
            ["qaoa-gibbs", "--n_data", "2"],
        ],
    )
    def test_underflowing_temperature_exit_code(self, argv, capsys):
        # At beta = 200, exp(-4 beta) underflows to 0: the exact target has a
        # zero eigenvalue, which no Gibbs state has.
        code = main(argv + ["--beta_inv_list", "0.005", "--restarts", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "beta_inv=0.005" in err and "strictly positive" in err
        assert len(err.splitlines()) == 1

    def test_failed_trace_write_exit_code(self, tiny_cfg, tmp_path, monkeypatch, capsys):
        real = Path.write_text

        def full_disk(path, *args, **kwargs):
            if path.parent.name == "traces":
                raise OSError(28, "No space left on device")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        code = main(["vqe-gibbs", "--config", str(tiny_cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err

    def test_foreign_csv_header_exit_code(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "results.csv").write_text("run_id,fidelity\n")
        code = main(["vqe-gibbs", "--config", str(tiny_cfg), "--out", str(out)])
        assert code == 2
        assert "header" in capsys.readouterr().err


    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rerun_into_the_same_out_is_refused(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        argv = ["vqe-gibbs", "--model", "ising", "--n_data", "2", "--n_ancilla", "1",
                "--beta_inv_list", "1.0,2.0", "--restarts", "1", "--workers", workers,
                "--out", str(out)]
        assert main(argv) == 0
        written = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(written) == 1 + 2  # the CSV and one trace per cell
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(out / "results.csv") in err and "vqe_ising_nd2_na1_b0" in err
        assert "write to another --out" in err
        after = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert after == written


class TestImports:
    @staticmethod
    @functools.cache
    def modules_after_cli_import():
        """``sys.modules`` after ``import gibbsprep.cli`` in a fresh interpreter."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        probe = "import sys, gibbsprep.cli; print(*sys.modules, sep='\\n')"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return frozenset(done.stdout.split())

    def test_cli_import_leaves_scipy_unloaded(self):
        assert "scipy" not in self.modules_after_cli_import()

    def test_cli_import_leaves_worker_pool_unloaded(self):
        assert "concurrent.futures.process" not in self.modules_after_cli_import()

    def test_cli_import_leaves_doctest_unloaded(self):
        # The package docstring's example runs from the tests, not on import.
        assert "doctest" not in self.modules_after_cli_import()


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "3", "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck PASS" in out
        assert out.count("trial") >= 4

    def test_rejects_bad_trials(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == 2

    def test_rejects_negative_seed(self, capsys):
        assert main(["gradcheck", "--seed", "-1", "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and len(err.splitlines()) == 1


class TestPlotdataCommand:
    def test_emits_series_files(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["vqe-gibbs", "--config", str(tiny_cfg), "--out", str(out)]) == 0
        series = tmp_path / "series"
        code = main(
            [
                "plotdata",
                "--csv",
                str(out / "results.csv"),
                "--panel",
                "fig1",
                "--out",
                str(series),
            ]
        )
        assert code == 0
        assert (series / "ising_fidelity_na1.dat").exists()

    def test_panel_choices_are_the_harness_panels(self):
        import argparse

        from gibbsprep.cli import _build_parser
        from gibbsprep.harness import _PANELS

        (sub,) = (
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        (panel,) = (a for a in sub.choices["plotdata"]._actions if a.dest == "panel")
        assert tuple(panel.choices) == tuple(_PANELS)

    def test_rows_of_two_register_sizes_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        for n_data in ("2", "3"):
            code = main(
                ["vqe-gibbs", "--n_data", n_data, "--n_ancilla", "1",
                 "--beta_inv_list", "1.0", "--restarts", "1", "--epsilon", "1e-2",
                 "--out", str(out)]
            )
            assert code == 0
        # Layered rows at both sizes too; their temperatures differ, so no two
        # of their fig2 series share a file name.
        for n_data, beta_inv in (("2", "0.5"), ("3", "1.0")):
            code = main(
                ["qaoa-gibbs", "--n_data", n_data, "--n_ancilla", n_data,
                 "--beta_inv_list", beta_inv, "--restarts", "1",
                 "--layer_budget", "2", "--out", str(out)]
            )
            assert code == 0
        capsys.readouterr()
        for panel in ("fig1", "fig2", "fig3"):
            series = tmp_path / panel
            code = main(
                ["plotdata", "--csv", str(out / "results.csv"), "--panel", panel,
                 "--out", str(series)]
            )
            assert code == 2
            assert not series.exists()
            assert "ising rows span n_data [2, 3]" in capsys.readouterr().err

    def test_two_sweeps_of_one_cell_refused(self, tmp_path, capsys):
        # Two master seeds of one grid give two rows per temperature; each
        # would be a second point at one beta_inv in fig1's and fig3's series.
        out = tmp_path / "out"
        for seed in ("1", "2"):
            code = main(
                ["vqe-gibbs", "--model", "ising", "--n_data", "2", "--n_ancilla", "1",
                 "--beta_inv_list", "0.6,2.0", "--restarts", "1",
                 "--master_seed", seed, "--out", str(out)]
            )
            assert code == 0
        capsys.readouterr()
        for panel, name in (
            ("fig1", "ising_fidelity_na1.dat"), ("fig3", "ising_infidelity_na1_minf.dat")
        ):
            series = tmp_path / panel
            code = main(
                ["plotdata", "--csv", str(out / "results.csv"), "--panel", panel,
                 "--out", str(series)]
            )
            assert code == 2
            assert not series.exists()
            err = capsys.readouterr().err
            assert f"{name} has two points at beta_inv 0.6; emit their sweeps" in err

    @pytest.mark.parametrize(
        "panel, sweep, message",
        [
            ("fig1", "qaoa", "fig1 needs exact-target vqe rows"),
            ("fig2", "vqe", "fig2 needs qaoa rows"),
            ("fig3", "qaoa", "fig3 needs vqe rows"),
        ],
    )
    def test_panel_without_its_rows(
        self, sweep_outputs, tmp_path, capsys, panel, sweep, message
    ):
        series = tmp_path / "series"
        argv = ["plotdata", "--csv", str(sweep_outputs / sweep / "results.csv"),
                "--panel", panel, "--out", str(series)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not series.exists()

    def test_missing_csv_is_config_error(self, tmp_path):
        code = main(
            [
                "plotdata",
                "--csv",
                str(tmp_path / "none.csv"),
                "--panel",
                "fig1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2


def with_field(row: str, column: str, value: str) -> str:
    """A results CSV row with ``column`` set to ``value``."""
    values = row.split(",")
    values[CSV_COLUMNS.index(column)] = value
    return ",".join(values)


def refused(capsys, argv, path) -> None:
    """``main(argv)`` exits 2 with one stderr line that names ``path``."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(path) in err, err


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    """A vqe and a qaoa sweep's output directories, copied by each test to break."""
    root = tmp_path_factory.mktemp("sweeps")
    common = ["--n_data", "2", "--beta_inv_list", "1.0", "--restarts", "1"]
    assert main(["vqe-gibbs", *common, "--n_ancilla", "1", "--out", str(root / "vqe")]) == 0
    assert main(
        ["qaoa-gibbs", *common, "--layer_budget", "1", "--out", str(root / "qaoa")]
    ) == 0
    return root


class TestUnreadableInputs:
    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        refused(capsys, ["vqe-gibbs", "--config", str(path)], path)

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe")
        refused(capsys, ["vqe-gibbs", "--config", str(path)], path)

    @pytest.mark.parametrize(
        "edit, line",
        [
            (lambda row: row.replace(",ising,2,", ",ising,two,", 1), 3),
            (lambda row: row + "\nvqe_ising_nd2_na1_b0,abc", 4),
            (lambda row: row + ",1", 3),
            (lambda row: with_field(row, "fidelity", "-0.5"), 3),
        ],
        ids=["unparsable-value", "short-row", "surplus-field", "fidelity-below-zero"],
    )
    def test_malformed_csv_row(self, sweep_outputs, tmp_path, capsys, edit, line):
        out = shutil.copytree(sweep_outputs / "vqe", tmp_path / "vqe")
        csv = out / "results.csv"
        comment, header, row = csv.read_text().splitlines()
        csv.write_text("\n".join([comment, header, edit(row)]) + "\n")
        argv = ["plotdata", "--csv", str(csv), "--panel", "fig1", "--out", str(tmp_path)]
        refused(capsys, argv, f"{csv}:{line}")

    @pytest.mark.parametrize("text", ["{not json", "[1,2]"])
    def test_malformed_trace(self, sweep_outputs, tmp_path, capsys, text):
        out = shutil.copytree(sweep_outputs / "qaoa", tmp_path / "qaoa")
        (trace,) = (out / "traces").glob("*.json")
        trace.write_text(text)
        argv = ["plotdata", "--csv", str(out / "results.csv"), "--panel", "fig2",
                "--out", str(tmp_path / "plot")]
        refused(capsys, argv, trace)

    @pytest.mark.parametrize(
        "records", [[{"index": 0}], 5], ids=["record-without-fidelity", "not-a-list"]
    )
    def test_malformed_trace_records(self, sweep_outputs, tmp_path, capsys, records):
        out = shutil.copytree(sweep_outputs / "qaoa", tmp_path / "qaoa")
        (trace,) = (out / "traces").glob("*.json")
        payload = json.loads(trace.read_text())
        payload["records"] = records
        trace.write_text(json.dumps(payload))
        argv = ["plotdata", "--csv", str(out / "results.csv"), "--panel", "fig2",
                "--out", str(tmp_path / "plot")]
        refused(capsys, argv, trace)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:1] + [",".join(r.split(",")[::-1]) for r in lines[1:]],
            lambda lines: ["# another tool's comment", *lines],
            lambda lines: lines[1:],
        ],
        ids=["reordered-columns", "foreign-comment", "no-schema-comment"],
    )
    def test_foreign_csv_header(self, sweep_outputs, tmp_path, capsys, edit):
        out = shutil.copytree(sweep_outputs / "vqe", tmp_path / "vqe")
        csv = out / "results.csv"
        csv.write_text("\n".join(edit(csv.read_text().splitlines())) + "\n")
        argv = ["plotdata", "--csv", str(csv), "--panel", "fig1", "--out", str(tmp_path)]
        refused(capsys, argv, csv)

    def test_row_above_its_rank_bound(self, sweep_outputs, tmp_path, capsys):
        out = shutil.copytree(sweep_outputs / "vqe", tmp_path / "vqe")
        csv = out / "results.csv"
        comment, header, row = csv.read_text().splitlines()
        row = with_field(row, "max_fidelity_bound", "0.5")
        csv.write_text("\n".join([comment, header, row]) + "\n")
        argv = ["plotdata", "--csv", str(csv), "--panel", "fig1", "--out", str(tmp_path)]
        refused(capsys, argv, f"{csv}:3")
        assert not list(tmp_path.glob("*.dat"))

    def test_duplicated_row(self, sweep_outputs, tmp_path, capsys):
        out = shutil.copytree(sweep_outputs / "vqe", tmp_path / "vqe")
        csv = out / "results.csv"
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(lines + lines[2:]) + "\n")
        series = tmp_path / "series"
        argv = ["plotdata", "--csv", str(csv), "--panel", "fig1", "--out", str(series)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{csv}:4" in err and "vqe_ising_nd2_na1_b0" in err
        assert not series.exists()

    def test_csv_path_is_a_directory(self, sweep_outputs, tmp_path, capsys):
        out = sweep_outputs / "vqe"
        argv = ["plotdata", "--csv", str(out), "--panel", "fig1", "--out", str(tmp_path)]
        refused(capsys, argv, out)

    def test_out_below_a_regular_file(self, sweep_outputs, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = ["plotdata", "--csv", str(sweep_outputs / "vqe" / "results.csv"),
                "--panel", "fig1", "--out", str(afile / "sub")]
        refused(capsys, argv, afile / "sub")
