import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coorbitkit
from coorbitkit import experiments as ex
from coorbitkit.cli import main as cli_main
from coorbitkit.errors import TruncationError


FAST_REALLINE = {"t_list": (1.0, 2.0), "half_width": 8.0, "step": 0.02}
FAST_AFFINE = {"targets": (1.0, 2.0), "b_list": (16.0, 64.0), "x_half": 20.0,
               "x_step": 0.05, "a_min": 0.05, "a_max": 16.0, "a_ratio": 1.06}


class TestRng:
    def test_deterministic(self):
        a = ex.rng_for(7, "exp", 3).random(5)
        b = ex.rng_for(7, "exp", 3).random(5)
        assert np.array_equal(a, b)

    def test_splittable(self):
        a = ex.rng_for(7, "exp", 0).random(5)
        b = ex.rng_for(7, "exp", 1).random(5)
        c = ex.rng_for(7, "other", 0).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestReallineRunner:
    def test_passes_fast_config(self):
        report = ex.run_counterexample_realline(**FAST_REALLINE)
        assert report.all_pass
        names = [m.name for m in report.metrics]
        assert "ratio_growth" in names

    def test_ratio_scaling(self):
        report = ex.run_counterexample_realline(**FAST_REALLINE)
        growth = next(m for m in report.metrics if m.name == "ratio_growth")
        assert growth.value == pytest.approx(np.exp(2.0), rel=0.1)

    def test_domain_too_small(self):
        with pytest.raises(TruncationError):
            ex.run_counterexample_realline(t_list=(1.0, 5.0), half_width=6.0, step=0.05)


class TestAffineRunner:
    def test_passes_fast_config(self):
        report = ex.run_counterexample_affine(**FAST_AFFINE)
        assert report.all_pass

    def test_rejects_bad_exponents(self):
        with pytest.raises(TruncationError):
            ex.run_counterexample_affine(alpha=0.5, beta=0.5)


class TestSuites:
    def test_gabor_suite(self):
        report = ex.run_gabor_suite(n_side=4, lattice_steps=(1, 1))
        assert report.all_pass
        a = next(m for m in report.metrics if m.name == "lower_frame_bound")
        b = next(m for m in report.metrics if m.name == "upper_frame_bound")
        assert a.value == pytest.approx(1.0, abs=1e-10)
        assert b.value == pytest.approx(1.0, abs=1e-10)

    def test_gabor_suite_n8(self):
        report = ex.run_gabor_suite(n_side=8, lattice_steps=(2, 2))
        assert report.all_pass
        recon = next(m for m in report.metrics if m.name == "reconstruction_error")
        assert recon.value <= 1e-9
        assert report.parameters["neumann_terms"] > 0
        assert "amalgam_value" in report.parameters["envelope"]

    def test_riesz_suite(self):
        report = ex.run_riesz_suite(n_side=8, separation=4)
        assert report.all_pass

    def test_in_diagnostic(self):
        report = ex.run_in_diagnostic("all")
        assert report.all_pass

    def test_coorbit_runners(self):
        assert ex.run_coorbit_norm().all_pass
        assert ex.run_coorbit_embed().all_pass


class TestReports:
    def test_empty_metrics_valid_json(self, tmp_path):
        report = ex.Report(command="demo", parameters={}, metrics=[])
        paths = ex.emit_report(report, tmp_path)
        obj = json.loads((tmp_path / "demo.json").read_text())
        assert obj["metrics"] == []
        assert paths[0].endswith("demo.json")
        assert obj["artifacts"] == ["demo.json"]
        assert paths == [str(tmp_path / "demo.json")]

        report.curves = {"ratio": [{"parameter": 1.0, "value": 2.0}]}
        paths = ex.emit_report(report, tmp_path / "csv", fmt="csv")
        obj = json.loads((tmp_path / "csv" / "demo.json").read_text())
        assert obj["artifacts"] == ["demo.json", "demo_ratio.csv"]
        assert paths == [str(tmp_path / "csv" / name) for name in obj["artifacts"]]
        assert all(Path(path).exists() for path in paths)

    def test_csv_rows_per_parameter(self, tmp_path):
        report = ex.run_counterexample_realline(**FAST_REALLINE)
        ex.emit_report(report, tmp_path, fmt="csv")
        csv_path = tmp_path / "counterexample_realline_ratio.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "parameter,value,bound,pass"
        assert len(lines) == 1 + len(FAST_REALLINE["t_list"])

    def test_round_trip(self, tmp_path):
        report = ex.run_gabor_suite(n_side=4, lattice_steps=(2, 1))
        ex.emit_report(report, tmp_path)
        text = (tmp_path / "gabor_frame.json").read_text()
        again = ex.report_from_json(text)
        assert again == ex.report_from_json(again.to_json())
        assert again.command == report.command
        assert [m.name for m in again.metrics] == [m.name for m in report.metrics]

    def test_determinism_excluding_timestamp(self):
        r1 = ex.run_riesz_suite(n_side=8, separation=4, seed=5)
        r2 = ex.run_riesz_suite(n_side=8, separation=4, seed=5)
        strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', s)
        assert strip(r1.to_json()) == strip(r2.to_json())

    def test_metric_pass_flags_present(self):
        report = ex.run_riesz_suite(n_side=8, separation=4)
        for metric in report.metrics:
            if metric.bound is not None:
                assert metric.passed is not None


class TestCli:
    def test_gabor_frame_exit_zero(self, tmp_path):
        code = cli_main(["gabor", "frame", "--config", self._cfg(tmp_path),
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "gabor_frame.json").exists()

    def _cfg(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_side": 4, "lattice_steps": [1, 1]}))
        return str(path)

    def test_diagnostic_subcommand(self, tmp_path):
        code = cli_main(["diagnostic", "in-group", "--out", str(tmp_path),
                         "--config", self._diag_cfg(tmp_path)])
        assert code == 0

    def _diag_cfg(self, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"model_id": "cyclic"}))
        return str(path)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_side": 4, "lattice_step": [1, 1]}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["gabor", "frame", "--config", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'lattice_step'" in err and "lattice_steps" in err
        assert not (tmp_path / "gabor_frame.json").exists()

    def test_module_entry_point(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_side": 4, "lattice_steps": [2, 1]}))
        # the child imports the package under test, also from an uninstalled checkout
        src = os.path.dirname(os.path.dirname(coorbitkit.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "coorbitkit", "gabor", "frame",
             "--config", str(cfg), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "reconstruction_error" in proc.stdout
