"""End-to-end command-line behavior: subcommands, overrides, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gibbsprep.cli import main


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

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("modle = ising\n")
        assert main(["sweep", "--config", str(bad)]) == 2

    def test_layered_register_mismatch_exit_code(self, capsys):
        code = main(
            ["qaoa-gibbs", "--n_data", "2", "--n_ancilla", "1", "--restarts", "1"]
        )
        assert code == 2

    def test_foreign_csv_header_exit_code(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "results.csv").write_text("run_id,fidelity\n")
        code = main(["vqe-gibbs", "--config", str(tiny_cfg), "--out", str(out)])
        assert code == 2
        assert "header" in capsys.readouterr().err


class TestImports:
    @staticmethod
    def loaded_after_cli_import(module):
        """Whether ``import gibbsprep.cli`` in a fresh interpreter loads ``module``."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        probe = f"import sys, gibbsprep.cli; print({module!r} in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return done.stdout.strip() == "True"

    def test_cli_import_leaves_scipy_unloaded(self):
        assert not self.loaded_after_cli_import("scipy")

    def test_cli_import_leaves_worker_pool_unloaded(self):
        assert not self.loaded_after_cli_import("concurrent.futures.process")


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "3", "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck PASS" in out
        assert out.count("trial") >= 4

    def test_rejects_bad_trials(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == 2


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
        capsys.readouterr()
        for panel in ("fig1", "fig3"):
            series = tmp_path / panel
            code = main(
                ["plotdata", "--csv", str(out / "results.csv"), "--panel", panel,
                 "--out", str(series)]
            )
            assert code == 2
            assert not series.exists()
            assert "ising rows span n_data [2, 3]" in capsys.readouterr().err

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
