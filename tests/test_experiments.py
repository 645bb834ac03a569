import argparse
import dataclasses
import functools
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coorbitkit
from coorbitkit import experiments as ex
from coorbitkit import cli
from coorbitkit.cli import main as cli_main
from coorbitkit.coorbit import CoorbitContext
from coorbitkit.errors import InvalidParameterError, ResolutionError, TruncationError
from coorbitkit.frames import Representation
from coorbitkit.groups import AffineGridModel, RealLineModel, affine_axes, build_affine_grid

from _oracles import affine_coords, brute_affine_selfconvolution, brute_scale_selfconvolution, \
    masked_partial_norms


FAST_REALLINE = {"t_list": (1.0, 2.0), "half_width": 8.0, "step": 0.02}
FAST_AFFINE = {"targets": (1.0, 2.0), "b_list": (16.0, 64.0), "x_half": 20.0,
               "x_step": 0.05, "a_min": 0.05, "a_max": 16.0, "a_ratio": 1.06}


class TestRng:
    def test_deterministic(self):
        a = ex.rng_for(7, "exp").random(5)
        b = ex.rng_for(7, "exp").random(5)
        assert np.array_equal(a, b)

    def test_splittable(self):
        """One stream per (seed, experiment)."""
        a = ex.rng_for(7, "exp").random(5)
        assert not np.array_equal(a, ex.rng_for(7, "other").random(5))
        assert not np.array_equal(a, ex.rng_for(8, "exp").random(5))


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
    # the partial norms' M^L carrier steps (x_step, a_ratio) at both resolutions of the
    # default config: the minorant's scale window is the index window +-9 and +-18
    @pytest.mark.parametrize("b_list, ml_step", [((16.0, 64.0), (0.25, 1.075)),
                                                 ((16.0, 64.0), (0.125, 1.0375)),
                                                 ((16.0, 256.0), (0.25, 1.075))])
    def test_partial_norms_match_the_masked_minorant(self, b_list, ml_step):
        assert ex._affine_partial_norms(2.0, 0.5, b_list, *ml_step) \
            == masked_partial_norms(2.0, 0.5, b_list, *ml_step)

    def test_passes_fast_config(self):
        report = ex.run_counterexample_affine(**FAST_AFFINE)
        assert report.all_pass

    def test_rejects_bad_exponents(self):
        with pytest.raises(TruncationError):
            ex.run_counterexample_affine(alpha=0.5, beta=0.5)

    # FAST_AFFINE's quadrature grid and a coarse one with a long scale range
    @pytest.mark.parametrize("params", [(20.0, 0.05, 0.05, 16.0, 1.06),
                                        (4.0, 0.1, 0.01, 64.0, 1.25)])
    def test_selfconvolution_matches_per_point_sum(self, params):
        targets = (0.5, 1.0, 2.0, 8.0)
        got = ex.affine_selfconvolution_at(*affine_axes(*params), 2.0, 0.5, targets)
        want = brute_affine_selfconvolution(build_affine_grid(*params), 2.0, 0.5, targets)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    # S(a) in closed form against the exactly rounded sum of the grid's own terms
    # e^{-2|x_j|/a}, x_j as affine_axes builds it, over t = 2h/a in [1e-6, 1e3]
    @pytest.mark.parametrize("h", [0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5])
    def test_x_sum_matches_fsum_of_the_grid_terms(self, h):
        a = 2.0 * h / np.geomspace(1e-6, 1e3, 46)
        for k in (1, 2, 3, 10, 250, 1000, 4000):
            x = affine_axes(k * h, h, 0.25, 4.0, 2.0)[0]
            assert len(x) == 2 * k + 1
            got = ex._uniform_x_sum(x, a)
            want = np.array([math.fsum(np.exp(-2.0 * np.abs(x) / ai)) for ai in a])
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), (h, k)

    @pytest.mark.parametrize("grid", [[-3.0, -1.0, 0.0, 1.0, 3.0], [-1.5, -0.5, 0.5, 1.5],
                                      [0.0], [-1.0, -0.25, 0.0, 0.25, 1.0]])
    def test_selfconvolution_rejects_a_mirrored_grid_that_is_not_uniform(self, grid):
        _, a, mu = affine_axes(4.0, 0.5, 0.25, 4.0, 2.0)
        with pytest.raises(InvalidParameterError, match=r"x-grid must be uniform.* got "
                                                        rf"{len(grid)} points"):
            ex.affine_selfconvolution_at(np.array(grid), a, mu, 2.0, 0.5, (1.0,))

    def test_selfconvolution_rejects_one_nudged_pair(self):
        x, a, mu = affine_axes(4.0, 0.5, 0.25, 4.0, 2.0)
        x[[1, -2]] += [-0.01, 0.01]  # still mirror-symmetric
        with pytest.raises(InvalidParameterError, match="x-grid must be uniform"):
            ex.affine_selfconvolution_at(x, a, mu, 2.0, 0.5, (1.0,))

    @pytest.mark.parametrize("asymmetric", [lambda x: x + 0.01, lambda x: x[1:],
                                       lambda x: np.where(x == x[0], x[0] - 0.5, x)])
    def test_selfconvolution_rejects_a_grid_that_is_not_mirror_symmetric(self, asymmetric):
        x, a, mu = affine_axes(4.0, 0.5, 0.25, 4.0, 2.0)
        with pytest.raises(InvalidParameterError, match="mirror-symmetric"):
            ex.affine_selfconvolution_at(asymmetric(x), a, mu, 2.0, 0.5, (1.0,))

    def test_builds_only_the_partial_norm_carriers(self, monkeypatch):
        built = []
        init = AffineGridModel.__init__

        def recording_init(model, x_half_width, *args):
            init(model, x_half_width, *args)
            built.append((x_half_width, model.size))

        monkeypatch.setattr(AffineGridModel, "__init__", recording_init)
        report = ex.run_counterexample_affine(**FAST_AFFINE)
        monkeypatch.undo()
        # one M^L carrier per resolution, none for the quadrature grid (x_half 20)
        partial_half = 1.1 * max(FAST_AFFINE["b_list"]) + 2.0
        assert [h for h, _ in built] == [partial_half, partial_half]
        assert max(n for _, n in built) <= 192_394
        # the max over the 1-D grids' product equals the max over every carrier point
        carrier = build_affine_grid(20.0, 0.05, 0.05, 16.0, 1.06)
        per_point = ex.affine_test_function(2.0, 0.5)(*affine_coords(carrier).T).max()
        assert next(m.value for m in report.metrics if m.name == "sup_norm") == per_point


# (field, value) pairs that leave the affine runner nothing to check or nothing to divide by
DEGENERATE_AFFINE = [("b_list", [64.0]), ("b_list", [64.0, 64.0]), ("b_list", [0.5, 64.0]),
                     ("b_list", [1.0, 64.0]), ("b_list", [16.0, float("inf")]),
                     ("b_list", [16.0, float("nan")]), ("targets", []), ("targets", [0.0, 1.0]),
                     ("targets", [-1.0]), ("targets", [float("inf")]),
                     ("targets", [float("nan")])]


class TestAffineConfig:
    @pytest.mark.parametrize("key, value", DEGENERATE_AFFINE)
    def test_runner_names_the_field(self, key, value):
        with pytest.raises(InvalidParameterError, match=f"{key} .*got {key}="):
            ex.run_counterexample_affine(**{**FAST_AFFINE, key: value})

    @pytest.mark.parametrize("key, value", DEGENERATE_AFFINE)
    def test_cli_exits_two(self, key, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        code = cli_main(["counterexample", "affine", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameterError: ") and f"got {key}=" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "counterexample_affine.json").exists()

    def test_oversized_b_list_builds_no_carrier(self, monkeypatch, tmp_path, capsys):
        built = []
        init = AffineGridModel.__init__

        def recording_init(model, *args):
            init(model, *args)
            built.append(model.size)

        monkeypatch.setattr(AffineGridModel, "__init__", recording_init)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b_list": [16.0, 1000.0]}))
        code = cli_main(["counterexample", "affine", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2 and built == []
        err = capsys.readouterr().err
        # the half-step M^L carrier at b_max = 1000: 4,249,553 points, over 2**22
        assert err.startswith("error: InvalidParameterError: b_list ")
        assert "4,249,553 points" in err and "got b_list=[16.0, 1000.0]" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "counterexample_affine.json").exists()


# t_list values that leave the real-line runner no growth to measure or nothing finite
DEGENERATE_REALLINE = [[2.0], [], [2.0, 2.0], [1.0, float("inf")], [1.0, float("nan")],
                       [1.0, 2.0, 1.0]]


class TestReallineConfig:
    @pytest.mark.parametrize("value", DEGENERATE_REALLINE)
    def test_runner_names_the_field(self, value):
        with pytest.raises(InvalidParameterError, match="t_list .*got t_list="):
            ex.run_counterexample_realline(**{**FAST_REALLINE, "t_list": value})

    @pytest.mark.parametrize("value", DEGENERATE_REALLINE)
    def test_cli_exits_two(self, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_list": value}))
        code = cli_main(["counterexample", "realline", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameterError: ") and "got t_list=" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "counterexample_realline.json").exists()


    def test_growth_runs_from_the_smallest_to_the_largest_t(self):
        # in list order [3, 1] once read the decay e^-4 and passed
        report = ex.run_counterexample_realline(**{**FAST_REALLINE, "t_list": [3.0, 1.0]})
        growth = next(m for m in report.metrics if m.name == "ratio_growth")
        assert growth.bound == pytest.approx(np.exp(4.0))
        assert abs(growth.value / np.exp(4.0) - 1.0) <= 0.10 and growth.passed
        assert report.all_pass

    # e^x overflows beyond ln(max float) = 709.78...; 800 once stopped with an
    # InvalidWeightError that did not name half_width
    @pytest.mark.parametrize("half_width", [800.0, 709.79, float("inf")])
    def test_overflowing_half_width_names_the_field(self, half_width, tmp_path, capsys,
                                                    monkeypatch):
        built = []
        init = RealLineModel.__init__

        def recording_init(model, *args):
            init(model, *args)
            built.append(model.size)

        monkeypatch.setattr(RealLineModel, "__init__", recording_init)
        with pytest.raises(InvalidParameterError,
                           match=r"half_width must be below ln\(max float\) = 709\.78.*"
                                 f"got half_width={half_width!r}"):
            ex.run_counterexample_realline(half_width=half_width, step=0.5)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"half_width": half_width, "step": 0.5}))
        code = cli_main(["counterexample", "realline", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2 and built == []
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameterError: half_width must be below ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "counterexample_realline.json").exists()

    # f = 1_(T,T+1) and g = 1_(-T-1,-T) must both fit on [-L, L]; at T = -20 they
    # once fell off the grid and the ratio divided by zero
    @pytest.mark.parametrize("value", [[-20.0, 1.0], [1.0, -10.0], [1.0, 10.0]])
    def test_t_off_the_grid_names_the_field(self, value, tmp_path, capsys):
        with pytest.raises(TruncationError, match="t_list"):
            ex.run_counterexample_realline(t_list=value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_list": value}))
        code = cli_main(["counterexample", "realline", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TruncationError: ") and f"got t_list={value!r}" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "counterexample_realline.json").exists()


# (half_width, step) whose half-step line would exceed MAX_CARRIER_POINTS = 2**22,
# with its point count 2 floor(2 L / h) + 1; none of these was capped before
OVERSIZED_LINE = [({"step": 1e-6}, "48,000,001"), ({"half_width": 1e5}, "80,000,001"),
                  ({"half_width": 6000.0, "step": 0.005}, "4,800,001")]


class TestReallineCarrierCap:
    @pytest.mark.parametrize("config, points", OVERSIZED_LINE)
    def test_runner_names_both_fields(self, config, points, monkeypatch):
        built = []
        init = RealLineModel.__init__

        def recording_init(model, *args):
            init(model, *args)
            built.append(model.size)

        monkeypatch.setattr(RealLineModel, "__init__", recording_init)
        cfg = {"half_width": 12.0, "step": 0.005, **config}
        with pytest.raises(InvalidParameterError,
                           match=f"half_width and step need a half-step line of {points} points, "
                                 f"more than 4,194,304; got half_width={cfg['half_width']!r}, "
                                 f"step={cfg['step']!r}"):
            ex.run_counterexample_realline(**config)
        assert built == []

    @pytest.mark.parametrize("config, points", OVERSIZED_LINE)
    def test_cli_exits_two(self, config, points, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = cli_main(["counterexample", "realline", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameterError: half_width and step need ")
        assert f"{points} points" in err and "got half_width=" in err and ", step=" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "counterexample_realline.json").exists()

    @pytest.mark.parametrize("half_width, step", [(12.0, 0.005), (5.5, 0.3), (8.0, 0.02),
                                                  (5.5, 0.07), (6.0, 0.1)])
    def test_count_is_the_line_model_size(self, half_width, step, monkeypatch):
        # with no point allowed, the runner names the size the half-step line model has
        monkeypatch.setattr(ex, "MAX_CARRIER_POINTS", 0)
        with pytest.raises(InvalidParameterError, match="half-step line of ") as exc:
            ex.run_counterexample_realline(half_width=half_width, step=step)
        points = int(re.search(r"line of ([\d,]+) points", str(exc.value))[1].replace(",", ""))
        assert points == RealLineModel(half_width, step / 2.0).size


class TestHalfStepRecheck:
    """One re-check for both quadrature runners: a flag that flips at the half step raises."""

    def test_names_every_flipped_flag(self):
        def evaluate(h):
            metrics = [ex.Metric("steady", h, 2.0, True),
                       ex.Metric("flaky", h, 0.75, h <= 0.75),
                       ex.Metric("unbounded", h, None, h > 0.75)]  # no bound: not a pass flag
            return metrics, {"unreported": h > 0.75, "kept": True}, None

        with pytest.raises(ResolutionError,
                           match=r"^pass flags flipped at half step: \['flaky', 'unreported'\]$"):
            ex._rechecked(evaluate, 1.0, 0.5)

    def test_returns_both_results(self):
        def evaluate(h):
            return [ex.Metric("steady", h, 2.0, h < 2.0)], {"kept": True}, 10 * h

        coarse, fine = ex._rechecked(evaluate, 1.0, 0.5)
        assert (coarse[0][0].value, coarse[2]) == (1.0, 10.0)
        assert (fine[0][0].value, fine[2]) == (0.5, 5.0)

    @staticmethod
    def _at_half_step(monkeypatch, name, change, is_half):
        """Wrap ``ex.<name>`` so that ``change`` is applied to its result at the half step."""
        original = getattr(ex, name)

        def wrapped(*args):
            out = original(*args)
            return change(out) if is_half(*args) else out

        monkeypatch.setattr(ex, name, wrapped)

    def test_realline_reported_flag(self, monkeypatch, tmp_path, capsys):
        self._at_half_step(monkeypatch, "_realline_quantities",
                           lambda q: {**q, "conv_at_zero": q["conv_at_zero"] + 1.0},
                           lambda t, half_width, step: step < FAST_REALLINE["step"] and t == 2.0)
        with pytest.raises(ResolutionError, match=r"\['conv_at_zero_T2'\]"):
            ex.run_counterexample_realline(**FAST_REALLINE)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: list(v) if isinstance(v, tuple) else v
                                    for k, v in FAST_REALLINE.items()}))
        code = cli_main(["counterexample", "realline", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == ("error: ResolutionError: pass flags flipped at half "
                                           "step: ['conv_at_zero_T2']\n")
        assert not (tmp_path / "counterexample_realline.json").exists()

    def test_realline_unreported_step_flags(self, monkeypatch):
        # doubling the T = 2 ratio at the half step breaks both steps but not T1 -> T3
        config = {**FAST_REALLINE, "t_list": (1.0, 2.0, 3.0)}
        assert ex.run_counterexample_realline(**config).all_pass
        self._at_half_step(monkeypatch, "_realline_quantities",
                           lambda q: {**q, "ratio": 2.0 * q["ratio"]},
                           lambda t, half_width, step: step < config["step"] and t == 2.0)
        with pytest.raises(ResolutionError,
                           match=r"\['ratio_step_T1_T2', 'ratio_step_T2_T3'\]$"):
            ex.run_counterexample_realline(**config)

    def test_affine_flag_is_named_by_its_metric(self, monkeypatch):
        # the M^L carrier's x_step is 0.25 at the base resolution and 0.125 at the half step
        self._at_half_step(monkeypatch, "_affine_partial_norms",
                           lambda norms: dict.fromkeys(norms, 1.0),
                           lambda alpha, beta, b_list, x_step, a_ratio: x_step < 0.25)
        with pytest.raises(ResolutionError, match=r"\['norm_growth_ratio'\]$"):
            ex.run_counterexample_affine(**FAST_AFFINE)

    @pytest.mark.parametrize("factor, drifts", [(1.06, True), (0.94, True), (1.04, False)])
    def test_affine_value_drift(self, monkeypatch, factor, drifts):
        # the half step returns the base step's values times ``factor``, a drift of
        # |factor - 1| that flips no flag here
        selfconv, base = ex.affine_selfconvolution_at, []

        def scaled(*args):
            base.append(selfconv(*args))
            return factor * base[0] if len(base) == 2 else base[0]

        monkeypatch.setattr(ex, "affine_selfconvolution_at", scaled)
        if drifts:
            with pytest.raises(ResolutionError,
                               match=r"^values drift 0\.060 > 5% under refinement$"):
                ex.run_counterexample_affine(**FAST_AFFINE)
        else:
            assert ex.run_counterexample_affine(**FAST_AFFINE).all_pass


class TestDiagnosticConfig:
    @pytest.mark.parametrize("value", ["bogus", "", "Affine"])
    def test_runner_names_the_accepted_values(self, value):
        with pytest.raises(InvalidParameterError,
                           match="'line', 'cyclic', 'affine', 'all', got model_id="):
            ex.run_in_diagnostic(value)

    def test_cli_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model_id": "bogus"}))
        code = cli_main(["diagnostic", "in-group", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameterError: model_id must be one of ")
        assert len(err.splitlines()) == 1 and "got model_id='bogus'" in err
        assert not (tmp_path / "diagnostic_in-group.json").exists()


# cyclic configs that once ended in ZeroDivisionError, ValueError, IndexError or
# KeyError, or (n_side 2.5) were truncated by int() and misreported as a lattice mismatch
BAD_CYCLIC = [(ex.run_gabor_suite, "lattice_steps", [0, 2]),
              (ex.run_gabor_suite, "lattice_steps", [2]),
              (ex.run_gabor_suite, "lattice_steps", [2, 1.5]),
              (ex.run_riesz_suite, "separation", 0),
              (ex.run_riesz_suite, "separation", -2),
              (ex.run_gabor_suite, "n_side", 2.5),
              (ex.run_riesz_suite, "n_side", 0),
              (ex.run_coorbit_norm, "n_side", 8.0),
              (ex.run_riesz_suite, "window_id", "bogus")]


@pytest.mark.parametrize("runner, key, value", BAD_CYCLIC)
def test_cyclic_runner_names_the_field(runner, key, value):
    with pytest.raises(InvalidParameterError, match=f"{key} .*got {key}="):
        runner(**{key: value})


# one mistyped field per runner group; each once ended in a bare TypeError or was
# truncated silently before the CLI checked config types against the runner's defaults
MISTYPED = [("gabor frame", "eps_target", "x"), ("gabor frame", "p", "x"),
            ("coorbit embed", "p_to", None), ("gabor frame", "n_side", 8.0),
            ("gabor riesz", "separation", True), ("coorbit norm", "p", True),
            ("gabor frame", "lattice_steps", "2,2"), ("gabor riesz", "window_id", 1),
            ("diagnostic in-group", "model_id", ["all"]),
            ("counterexample affine", "b_list", 64.0),
            ("counterexample realline", "step", "0.01"), ("coorbit embed", "seed", 1.5)]


class TestConfigTypes:
    @pytest.mark.parametrize("command, key, value", MISTYPED)
    def test_cli_names_the_field(self, command, key, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            cli_main([*command.split(), "--config", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--config key {key!r} needs " in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("group, variant", list(cli._RUNNERS))
    def test_every_default_has_a_type_rule(self, group, variant):
        params = inspect.signature(cli._RUNNERS[(group, variant)]).parameters
        assert all(type(p.default) in cli._CONFIG_TYPES for p in params.values())

    def test_benchmark_configs_pass_the_check(self, tmp_path, monkeypatch, capsys):
        spec_path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
        loader = importlib.util.spec_from_file_location("perfbench_spec", spec_path)
        spec = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(spec)
        configs = [(command, config) for ops in spec.WORKLOADS.values()
                   for command, config in ops if config is not None]
        assert len(configs) == 11
        for command, config in configs:
            runner = cli._RUNNERS[tuple(command.split())]

            @functools.wraps(runner)
            def reached(**kwargs):
                raise RuntimeError("the config reached the runner")

            monkeypatch.setitem(cli._RUNNERS, tuple(command.split()), reached)
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            assert cli_main([*command.split(), "--config", str(path),
                             "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == \
                "error: RuntimeError: the config reached the runner\n"


class TestEmbedDirection:
    def test_runner_names_both_fields(self):
        with pytest.raises(InvalidParameterError, match="got p_from=1.0, p_to=0.5"):
            ex.run_coorbit_embed(p_from=1.0, p_to=0.5)

    def test_cli_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p_from": 1.0, "p_to": 0.5}))
        code = cli_main(["coorbit", "embed", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: InvalidParameterError: coorbit embed needs p_from <= p_to, "
                       "got p_from=1.0, p_to=0.5\n")
        assert not (tmp_path / "coorbit_embed.json").exists()


def _scale_nodes(a_ratio):
    """The partial-norm scale nodes: ratio 1 + 2(a_ratio - 1), from 1e-3 to 1e3."""
    c_ratio = 1.0 + 2.0 * (a_ratio - 1.0)
    lnr = np.log(c_ratio)
    exponents = np.arange(int(np.floor(np.log(1e-3) / lnr)), int(np.ceil(np.log(1e3) / lnr)) + 1)
    return c_ratio ** exponents, lnr


class TestScaleSelfconvolution:
    # the two partial-norm grids of the default config, at the base and at the half step
    @pytest.mark.parametrize("params", [(72.4, 0.25, 1 / 2.6, 166.4, 1.075),
                                        (72.4, 0.125, 1 / 2.6, 166.4, 1.0375)])
    def test_matches_per_node_loop(self, params):
        y, b, _ = affine_axes(*params)
        c_grid, lnr = _scale_nodes(params[-1])
        got = ex._scale_selfconvolution(y, b, 2.0, 0.5, c_grid, lnr)
        want = brute_scale_selfconvolution(y[:, None], b[None, :], 2.0, 0.5, c_grid, lnr)
        assert got.shape == (len(y), len(b))
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_matches_per_node_loop_off_grid(self):
        y = np.linspace(-3.7, 11.3, 41)  # not symmetric about 0
        b = np.array([0.3, 1.07, 1.37, 5.5, 17.1, 250.0])  # no node of ratio 1.15 is among them
        c_grid, lnr = _scale_nodes(1.075)
        assert np.abs(np.log(b)[:, None] - np.log(c_grid)[None, :]).min() > 1e-3
        for alpha, beta in [(2.0, 0.5), (1.5, 0.25)]:
            got = ex._scale_selfconvolution(y, b, alpha, beta, c_grid, lnr)
            want = brute_scale_selfconvolution(y[:, None], b[None, :], alpha, beta, c_grid, lnr)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("u", [0.0, 0.5, 3.0, 10.0])
    def test_closed_form_x_convolution(self, u):
        # int e^{-|z|} e^{-|z-u|} dz = e^{-|u|} (1 + |u|), by a fine trapezoid rule
        # whose nodes include both kinks, z = 0 and z = u
        z = np.linspace(-50.0, 60.0, 220_001)
        integral = np.trapezoid(np.exp(-np.abs(z)) * np.exp(-np.abs(z - u)), z)
        assert integral == pytest.approx(np.exp(-u) * (1.0 + u), rel=1e-6)


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
        assert report.parameters["neumann_terms"] == 16
        # q = (B - A)/(B + A) fixes the count and the tail bound before summing
        a, b = report.parameters["bounds"]
        q = report.parameters["series_rate"]
        assert q == pytest.approx((b - a) / (b + a), rel=1e-15) and 0.16 < q < 0.18
        omega = 2.0 / (a + b)
        assert report.parameters["series_tail_bound"] == pytest.approx(
            omega * q ** 17 / (1.0 - q), rel=1e-12)
        assert report.parameters["series_tail_bound"] <= 1e-12
        assert "amalgam_value" in report.parameters["envelope"]
        assert report.parameters["frame_kernel_check"] == {"pairs": 4096, "absent": 0}

    def test_riesz_suite(self):
        report = ex.run_riesz_suite(n_side=8, separation=4)
        assert report.all_pass

    def test_in_diagnostic(self):
        report = ex.run_in_diagnostic("all")
        assert report.all_pass

    def test_coorbit_runners(self):
        assert ex.run_coorbit_norm().all_pass
        report = ex.run_coorbit_embed()
        assert report.all_pass
        # the factors of the certificate bound sit in the parameters, not the metrics
        pars = report.parameters
        bound = next(m.bound for m in report.metrics if m.name == "embedding_measured")
        assert bound == pars["certificate_bound"] * (1 + 1e-6)
        assert pars["certificate_bound"] == pars["reconstruction_norm"] * next(
            m.value for m in report.metrics if m.name == "sequence_embedding_constant") \
            * pars["coefficient_norm"]


class TestScale:
    @pytest.mark.parametrize("runner, limit_mb", [(ex.run_gabor_suite, 120),
                                                  (ex.run_coorbit_embed, 60)])
    def test_n64_peak_memory(self, runner, limit_mb):
        # an n x n frame kernel (268 MB at N = 64) or an n x m voices matrix
        # (67 MB) held at once would break these limits
        tracemalloc.start()
        try:
            report = runner(n_side=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_pass
        assert peak < limit_mb * 1e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_runs_do_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call, about 14 ms inside a run
        code = ("import sys\n"
                "from coorbitkit.cli import main\n"
                "for command in (['gabor', 'frame'], ['counterexample', 'realline']):\n"
                f"    assert main(command + ['--out', {str(tmp_path)!r}]) == 0\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        src = os.path.dirname(os.path.dirname(coorbitkit.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr


class TestOneKernelSystem:
    """Each cyclic runner forms the orbit of each window it uses once."""

    @pytest.mark.parametrize("runner, orbits", [(ex.run_gabor_suite, 1), (ex.run_riesz_suite, 1),
                                                (ex.run_coorbit_norm, 2),  # gaussian, boxcar
                                                (ex.run_coorbit_embed, 1)])
    def test_orbit_calls(self, runner, orbits, monkeypatch):
        calls = []
        orbit = Representation.orbit

        def counting(rep, vec):
            calls.append(vec.shape)
            return orbit(rep, vec)

        monkeypatch.setattr(Representation, "orbit", counting)
        assert runner().all_pass
        assert len(calls) == orbits

    def test_embed_target_context_is_the_built_one(self, monkeypatch):
        # Co(Z) by dataclasses.replace equals the context CoorbitContext.build makes for Z
        contexts = []
        check = ex.embedding_check

        def recording(ctx_y, ctx_z, *args, **kwargs):
            contexts.append((ctx_y, ctx_z))
            return check(ctx_y, ctx_z, *args, **kwargs)

        monkeypatch.setattr(ex, "embedding_check", recording)
        ex.run_coorbit_embed()
        ((ctx_y, ctx_z),) = contexts
        ks = ctx_y.kernel_system
        built = CoorbitContext.build(ks.rep, ks.window, ctx_z.y_spec, ctx_y.weight, ctx_y.p)
        assert ctx_z.kernel_system is ks and ctx_z.y_spec.p == 1.0
        assert ctx_z.weight is built.weight and ctx_z.p == built.p
        assert np.array_equal(ctx_z.kernel_system.orbit, built.kernel_system.orbit)


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

    @pytest.mark.parametrize("fmt", ["xml", "JSON", "", None])
    def test_unknown_format_writes_nothing(self, tmp_path, fmt):
        # an unknown fmt once wrote the JSON alone and said nothing
        report = ex.Report(command="demo", parameters={}, metrics=[])
        with pytest.raises(InvalidParameterError, match="fmt must be 'json' or 'csv', got fmt="):
            ex.emit_report(report, tmp_path / "out", fmt=fmt)
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("group, variant", list(cli._RUNNERS))
    def test_to_json_matches_asdict(self, group, variant):
        report = cli._RUNNERS[(group, variant)]()
        assert report.to_json() == json.dumps(dataclasses.asdict(report), sort_keys=True,
                                              indent=2, default=ex._json_default)

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
    @pytest.mark.parametrize("group, variant", list(cli._RUNNERS))
    def test_every_runner_parses(self, group, variant, capsys):
        args = cli.build_parser().parse_args([group, variant])
        assert (args.group, args.variant) == (group, variant)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([group, "no-such-variant"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("group, variant", [
        (group, variant) for group in dict.fromkeys(g for g, _ in cli._RUNNERS)
        for variant in dict.fromkeys(v for _, v in cli._RUNNERS)
        if (group, variant) not in cli._RUNNERS])
    def test_mismatched_pair_exits_two(self, group, variant, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([group, variant, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        variants = [v for g, v in cli._RUNNERS if g == group]
        assert "invalid choice" in err and "Traceback" not in err
        assert all(repr(v) in err for v in variants)
        assert not (tmp_path / "out").exists()

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(f"{group} {variant}" in out for group, variant in cli._RUNNERS)

    def test_parser_built_once(self, tmp_path, monkeypatch):
        argv = ["gabor", "frame", "--config", self._cfg(tmp_path), "--out", str(tmp_path)]
        assert cli_main(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert cli_main(argv) == 0 and cli_main(argv) == 0
        assert built == []
        assert cli.build_parser() is cli.build_parser()

    def test_affine_negative_half_width_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"x_half": -1.0}))
        code = cli_main(["counterexample", "affine", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: InvalidParameterError: ")

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

    @pytest.mark.parametrize("content", ['{"n_side": 4,', None])
    def test_unreadable_config_rejected(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            cli_main(["gabor", "frame", "--config", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot read --config {path}" in err and "Traceback" not in err
        assert not (tmp_path / "gabor_frame.json").exists()

    def test_runner_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lattice_steps": [3, 3]}))
        code = cli_main(["gabor", "frame", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: TruncationError: lattice steps must divide N\n"
        assert not (tmp_path / "gabor_frame.json").exists()

    def test_failed_metric_exits_one(self, tmp_path):
        path = tmp_path / "strict.json"
        path.write_text(json.dumps({"eps_target": 1e-6}))
        code = cli_main(["gabor", "frame", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert (tmp_path / "gabor_frame.json").exists()

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
