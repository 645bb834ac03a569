"""Experiment runners producing machine-readable reports.

Every quadrature pass flag is re-verified at half the step by ``_rechecked``; a
flag that flips raises ResolutionError.  Every random draw is seeded by the run's
``seed``, so every run is reproducible: ``coorbit norm`` draws its vectors from the
counter-based generator ``rng_for`` keyed by (seed, experiment), ``coorbit embed``
from ``default_rng(seed + 3)`` inside ``embedding_check``, and the Rayleigh oracle of
``gabor riesz`` from ``default_rng(seed + 1)``.  The other runners draw nothing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .amalgam import QuasiNormSpec, amalgam_norm, convolve, indicator, involution
from .coorbit import CoorbitContext, embedding_check, window_independence_ratio, \
    wiener_vs_plain_ratio
from .errors import InvalidParameterError, ResolutionError, TruncationError
from .frames import (
    KernelSystem,
    WINDOWS,
    biorthogonal_system,
    boxcar_window,
    build_almost_tight_frame,
    build_riesz_system,
    dual_frame,
    frame_kernel_envelope_check,
    gabor_representation,
    orthonormalize,
    parseval_frame,
    rayleigh_extremes,
    reconstruction_error,
)
from .groups import (
    _is_int_at_least,
    _window_max,
    affine_axes,
    build_affine_grid,
    build_cyclic_phase_space,
    build_real_line,
    measure_QxQ,
    symmetrize_weight,
)
from .sampling import SampleSet, _sorted_unique

E = float(np.e)
# the most points a counterexample runner lets its largest carrier (the half-step
# line, the half-step M^L carrier) have
MAX_CARRIER_POINTS = 2 ** 22


def rng_for(seed: int, experiment: str) -> np.random.Generator:
    """Philox generator keyed by (seed, experiment); stable, one stream per experiment."""
    digest = hashlib.sha256(experiment.encode()).digest()
    key = int.from_bytes(digest[:8], "big")
    bits = np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, key],
                            counter=[0, 0, 0, 0])
    return np.random.Generator(bits)


@dataclass
class Metric:
    name: str
    value: float
    bound: Optional[float] = None
    passed: Optional[bool] = None


@dataclass
class Report:
    command: str
    parameters: dict
    metrics: list
    artifacts: list = field(default_factory=list)
    version: str = __version__
    seed: int = 0
    timestamp: str = ""
    curves: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(m.passed for m in self.metrics if m.bound is not None)

    def to_json(self) -> str:
        return json.dumps(self, sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj):  # the report and its metrics, read in place: no asdict deep copy
        return vars(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def report_from_json(text: str) -> Report:
    obj = json.loads(text)
    obj["metrics"] = [Metric(**m) for m in obj["metrics"]]
    return Report(**obj)


def emit_report(report: Report, out_dir, fmt: str = "json") -> list:
    """Write the JSON report (always) plus one CSV per curve when fmt='csv'.

    ``report.artifacts`` lists the written file names, the JSON's own first,
    relative to ``out_dir`` so the JSON does not depend on where it is written;
    the return value holds the same files as full paths.
    """
    if fmt not in ("json", "csv"):
        raise InvalidParameterError(f"fmt must be 'json' or 'csv', got fmt={fmt!r}")
    out_dir = Path(out_dir)
    stem = report.command.replace(" ", "_")
    csv_names = {name: f"{stem}_{name}.csv" for name in report.curves} if fmt == "csv" else {}
    # the JSON lists every artifact, itself included, so the list comes first
    report.artifacts = [f"{stem}.json"] + list(csv_names.values())
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / report.artifacts[0]).write_text(report.to_json())
        for name, csv_name in csv_names.items():
            with (out_dir / csv_name).open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["parameter", "value", "bound", "pass"])
                for row in report.curves[name]:
                    writer.writerow([row["parameter"], row["value"],
                                     row.get("bound"), row.get("pass")])
        return [str(out_dir / name) for name in report.artifacts]
    except OSError as exc:
        raise OSError(f"cannot write report under {out_dir}: {exc}") from exc


def _stamp(report: Report) -> Report:
    report.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    return report


def _rechecked(evaluate, coarse, fine) -> tuple:
    """``evaluate`` at the coarse and at the fine (half-step) resolution, both results.

    ``evaluate(resolution)`` returns (metrics, flags, data): the report's metrics,
    the pass flags the report does not carry, and what else the runner reads.
    A pass flag of a bounded metric or in ``flags`` that differs between the two
    resolutions raises ResolutionError naming it.
    """
    results = evaluate(coarse), evaluate(fine)
    base, half = ({**{m.name: m.passed for m in metrics if m.bound is not None}, **flags}
                  for metrics, flags, _ in results)
    flipped = [name for name in base if base[name] != half[name]]
    if flipped:
        raise ResolutionError(f"pass flags flipped at half step: {flipped}")
    return results


# ---------------------------------------------------------------------------
# counterexample on the real line


def _realline_quantities(t_value: float, half_width: float, step: float) -> dict:
    model = build_real_line(half_width, step)
    x = model.coords
    f = indicator(model, np.nonzero((x > t_value) & (x < t_value + 1.0))[0])
    g = indicator(model, np.nonzero((x > -t_value - 1.0) & (x < -t_value))[0])
    conv = convolve(f, g)
    v = np.exp(-x)  # ||L_{x^{-1}}|| weight for Y = L^1_w, w = e^x
    w = np.exp(x)
    f_wl = amalgam_norm(f, QuasiNormSpec(p=1.0, weight=v, flavor="left"))
    g_mirror = amalgam_norm(involution(g), QuasiNormSpec(p=1.0, weight=v, flavor="left"))
    conv_wl = amalgam_norm(conv, QuasiNormSpec(p=1.0, weight=w, flavor="left"))
    return {
        "conv_at_zero": float(conv.values[model.identity].real),
        "f_wl_norm": f_wl,
        "g_mirror_norm": g_mirror,
        "conv_wl_norm": conv_wl,
        "ratio": conv_wl / (f_wl * g_mirror),
    }


def run_counterexample_realline(t_list=(1.0, 2.0, 3.0), half_width: float = 12.0,
                                step: float = 0.005, seed: int = 0) -> Report:
    """Failure of the Wiener-amalgam convolution relation on the line.

    For f = 1_(T,T+1), g = 1_(-T-1,-T) and exponential weights, the product of
    the two amalgam factors decays like e^{-2T} while ||f*g|| stays bounded
    below, so the ratio grows like e^{2T}.
    """
    t = np.asarray(t_list, dtype=float)
    if not (t.ndim == 1 and t.size >= 2 and _sorted_unique(t).size == t.size
            and np.all(np.isfinite(t))):
        raise InvalidParameterError(f"t_list must hold at least two finite values, none "
                                    f"repeated, got t_list={t_list!r}")
    t_list = tuple(float(t) for t in t_list)
    if max(abs(t) for t in t_list) + 2.0 >= half_width:
        raise TruncationError(f"need |T|+2 < half_width for every T in t_list, "
                              f"got t_list={list(t_list)!r}, half_width={half_width}")
    # the half-step line has 2 floor(L / (h/2)) + 1 points; the chained comparison
    # leaves a non-finite or non-positive step to the line model's own check
    if 0 < step <= half_width < np.inf:
        n_half = 2 * int(np.floor(half_width / (step / 2.0) + 1e-9)) + 1
        if n_half > MAX_CARRIER_POINTS:
            raise InvalidParameterError(
                f"half_width and step need a half-step line of {n_half:,} points, more than "
                f"{MAX_CARRIER_POINTS:,}; got half_width={half_width!r}, step={step!r}")
    # the weights e^x and e^-x of the amalgam factors span the line, and e^x
    # overflows beyond ln(max float)
    max_half_width = float(np.log(np.finfo(float).max))
    if half_width >= max_half_width:
        raise InvalidParameterError(f"half_width must be below ln(max float) = {max_half_width!r}, "
                                    f"where the weight e^x overflows; got half_width={half_width!r}")

    def evaluate(h: float) -> tuple:
        rows = {t: _realline_quantities(t, half_width, h) for t in t_list}
        metrics = []
        for t in t_list:
            q = rows[t]
            metrics.append(Metric(f"conv_at_zero_T{t:g}", q["conv_at_zero"], 1.0,
                                  abs(q["conv_at_zero"] - 1.0) <= 2 * h))
            bound = E * float(np.exp(-t)) * 1.05
            metrics.append(Metric(f"f_amalgam_T{t:g}", q["f_wl_norm"], bound,
                                  q["f_wl_norm"] <= bound))
        lowest, bound = min(q["conv_wl_norm"] for q in rows.values()), (E - 1.0 / E) * 0.95
        metrics.append(Metric("conv_norm_lower", lowest, bound, lowest >= bound))
        t0, t1 = min(t_list), max(t_list)
        growth = rows[t1]["ratio"] / rows[t0]["ratio"]
        expected = np.exp(2.0 * (t1 - t0))
        metrics.append(Metric("ratio_growth", growth, expected,
                              abs(growth / expected - 1.0) <= 0.10))
        steps = {f"ratio_step_T{ta:g}_T{tb:g}": abs(rows[tb]["ratio"] / rows[ta]["ratio"]
                                                    / np.exp(2.0 * (tb - ta)) - 1.0) <= 0.10
                 for ta, tb in zip(t_list, t_list[1:])}
        return metrics, steps, rows

    (metrics, _, rows), _ = _rechecked(evaluate, step, step / 2.0)
    curve = [{"parameter": t, "value": rows[t]["ratio"], "bound": float(np.exp(2 * t)),
              "pass": True} for t in t_list]
    report = Report(
        command="counterexample realline",
        parameters={"T_list": list(t_list), "half_width": half_width, "step": step},
        metrics=metrics, seed=seed, curves={"ratio": curve},
    )
    return _stamp(report)


# ---------------------------------------------------------------------------
# counterexample on the affine group


def affine_test_function(alpha: float, beta: float):
    """f((x,a)) = e^{-|x|} min{a^alpha, a^{-beta}}, the paper-style window."""

    def f(x, a):
        return np.exp(-np.abs(x)) * np.minimum(a ** alpha, a ** (-beta))

    return f


def affine_selfconvolution_at(x_coords, a_coords, scale_haar, alpha: float, beta: float,
                              targets) -> np.ndarray:
    """(f^vee * f)(0, a0) by the Haar sum over the product of the grids of ``affine_axes``.

    The integrand f^vee(x, a) f(-x/a, a0/a) = e^{-2|x|/a} m(1/a) m(a0/a), with
    m(s) = min{s^alpha, s^-beta} = f(0, s), and the weight mu_a depend on x only
    through S(a) = sum_x e^{-2|x|/a}.  So sum_a m(1/a) m(a0/a) mu_a S(a) adds the
    carrier sum's terms in another order, and S(a) is the closed form of
    ``_uniform_x_sum``: one exponential per scale, not one per carrier point.
    """
    f = affine_test_function(alpha, beta)
    row = f(0.0, 1.0 / a_coords) * scale_haar * _uniform_x_sum(x_coords, a_coords)
    return np.array([float((row * f(0.0, a0 / a_coords)).sum()) for a0 in targets])


def _uniform_x_sum(x_coords, a_coords) -> np.ndarray:
    """S(a) = sum_j e^{-2|x_j|/a} for each a on the ``affine_axes`` x-grid x_j = j h, |j| <= k.

    With t = 2h/a the sum is the geometric series 1 + 2 sum_{j=1}^k e^{-jt}
    = 1 + 2 e^{-t} expm1(-kt) / expm1(-t); expm1 keeps the quotient accurate as
    t -> 0, where it tends to k.  The grid must be mirror-symmetric and uniform
    with k >= 1, as ``affine_axes`` builds it; InvalidParameterError otherwise.
    """
    x = np.asarray(x_coords, dtype=float)
    if not np.array_equal(x, -x[::-1]):
        raise InvalidParameterError("the x-grid must be mirror-symmetric about 0, as "
                                    "affine_axes builds it")
    n, k = len(x), len(x) // 2
    if not (k >= 1 and np.array_equal(x, np.arange(-k, k + 1) * x[k + 1])):
        raise InvalidParameterError(f"the x-grid must be uniform, x_j = j h for |j| <= k "
                                    f"with k >= 1, as affine_axes builds it; got {n} points "
                                    f"from {x[0]!r} to {x[-1]!r}")
    t = 2.0 * x[k + 1] / np.asarray(a_coords, dtype=float)
    return 1.0 + 2.0 * np.exp(-t) * np.expm1(-k * t) / np.expm1(-t)


def _scale_selfconvolution(y, b, alpha: float, beta: float, c_grid: np.ndarray,
                           lnr: float) -> np.ndarray:
    """(f^vee * f)(y, b) on the grid product y x b, as the matrix product H = E @ M.

    int e^{-|z|} e^{-|z-u|} dz = e^{-|u|} (1 + |u|) does the x-convolution in
    closed form, leaving one quadrature over the scale nodes c (step ln r):
    E[y, c] = e^{-|y|/c} (1 + |y|/c) is n_y x n_c, M[c, b] = ln r m(1/c) m(b/c)
    is n_c x n_b, with m(s) = min{s^alpha, s^-beta}.
    """
    u = np.abs(y)[:, None] / c_grid[None, :]
    bc = b[None, :] / c_grid[:, None]
    m = np.minimum(c_grid ** (-alpha), c_grid ** beta)[:, None] \
        * np.minimum(bc ** alpha, bc ** (-beta)) * lnr
    return (np.exp(-u) * (1.0 + u)) @ m


def _partial_norm_axes(b_max: float, x_step: float, a_ratio: float) -> tuple:
    """The ``affine_axes`` arguments of the M^L carrier for the region 1 <= b <= b_max.

    Window rows for b in [1, b_max] live in (1/2, 2 b_max); the minorant region
    needs |y| < b only, so a modest margin beyond b_max suffices in x.
    """
    return 1.1 * b_max + 2.0, x_step, 1.0 / 2.6, 2.6 * b_max, a_ratio


def _affine_partial_norms(alpha: float, beta: float, b_list, x_step: float,
                          a_ratio: float) -> dict:
    """Partial amalgam norms of f^vee * f over the region 1 <= b <= B.

    The maximal function is lower-bounded by the larger of the on-grid window
    maximum and the window-containment minorant H(0, b') for |y| < b with
    b' in (b/2, 2b); both lie inside the continuum window, so the partial norm
    is an honest lower bound that still exhibits the divergence.
    """
    model = build_affine_grid(*_partial_norm_axes(max(b_list), x_step, a_ratio))
    c_ratio = 1.0 + 2.0 * (a_ratio - 1.0)
    lnr_c = np.log(c_ratio)
    c_grid = c_ratio ** np.arange(int(np.floor(np.log(1e-3) / lnr_c)),
                                  int(np.ceil(np.log(1e3) / lnr_c)) + 1)
    xg, ag = model.x_coords, model.a_coords
    # E[y, c] is even in y and the x-grid is mirror-symmetric: the rows of y >= 0, mirrored
    upper = _scale_selfconvolution(xg[len(xg) // 2:], ag, alpha, beta, c_grid, lnr_c)
    h_vals = np.concatenate([upper[:0:-1], upper])

    ml = model.local_max(h_vals.reshape(-1), "left").reshape(len(xg), len(ag))
    # row b: max of H(0, b') over b' in (b/2, 2b), on the geometric scale grid the index
    # window of a = 1 in every row, raised on |y| < b: x-indices k - r < j < k + r of
    # the mirror-symmetric x-grid
    level = _window_max(upper[0], -np.count_nonzero((ag > 0.5) & (ag < 1.0)),
                        np.count_nonzero((ag > 1.0) & (ag < 2.0)))
    k = len(xg) // 2
    for m, r in enumerate(np.searchsorted(xg[k:], ag).tolist()):
        col = ml[k - r + 1:k + r, m]
        np.maximum(col, level[m], out=col)

    weight = 1.0 + ag
    norms = {}
    for b in b_list:
        mask = (ag >= 1.0) & (ag <= b)
        norms[b] = float((ml * (weight * model.scale_haar * mask)[None, :]).sum())
    return norms


def run_counterexample_affine(alpha: float = 2.0, beta: float = 0.5,
                              targets=(1.0, 2.0, 4.0, 8.0), b_list=(16.0, 64.0),
                              x_half: float = 40.0, x_step: float = 0.02,
                              a_min: float = 0.02, a_max: float = 32.0,
                              a_ratio: float = 1.03, seed: int = 0) -> Report:
    """Affine-group failure of the convolution relation: f^vee * f escapes W^L(Y).

    The integrand of the self-convolution is separable, so its Haar sum is a sum
    over scales of 1-D sums (``affine_selfconvolution_at``), and ``sup_norm`` is a
    max over the product of the two grids; only M^L needs a carrier.
    """
    if not (alpha > 1.0 and 0.0 < beta < 1.0):
        raise TruncationError("need alpha > 1 and beta in (0,1)")
    # the comparisons are False on NaN, so these also reject non-finite values
    t, b = np.asarray(targets, dtype=float), np.asarray(b_list, dtype=float)
    if not (t.ndim == 1 and t.size and np.all((0 < t) & (t < np.inf))):
        raise InvalidParameterError(f"targets must be a non-empty list of finite values > 0, "
                                    f"got targets={targets!r}")
    if not (b.ndim == 1 and _sorted_unique(b).size >= 2 and np.all((1 < b) & (b < np.inf))):
        raise InvalidParameterError(f"b_list must hold at least two distinct finite values, "
                                    f"all > 1, got b_list={b_list!r}")
    # the quadrature grids come first, so a bad grid parameter is named as given
    resolutions = [(x_step, a_ratio), (x_step / 2.0, 1.0 + (a_ratio - 1.0) / 2.0)]
    grids = [affine_axes(x_half, xs, a_min, a_max, ratio) for xs, ratio in resolutions]
    # (x_step, a_ratio) of the partial norms' M^L carrier at each resolution
    ml_steps = [(0.25 * xs / x_step, 1.0 + 2.5 * (ratio - 1.0)) for xs, ratio in resolutions]
    x_ml, a_ml, _ = affine_axes(*_partial_norm_axes(max(b_list), *ml_steps[1]))
    if x_ml.size * a_ml.size > MAX_CARRIER_POINTS:
        raise InvalidParameterError(
            f"b_list needs a half-step M^L carrier of {x_ml.size * a_ml.size:,} points, more "
            f"than {MAX_CARRIER_POINTS:,}; got b_list={b_list!r}")
    c2 = 1.0  # int (e^{-|z|})^2 dz
    lower = lambda a0: c2 / (2.0 * beta) * a0 ** (-beta)

    def evaluate(resolution: tuple) -> tuple:
        (x, a, mu), ml_step = resolution
        values = affine_selfconvolution_at(x, a, mu, alpha, beta, targets)
        norms = _affine_partial_norms(alpha, beta, b_list, *ml_step)
        # f(x, a) = f(x, 1) f(0, a), both >= 0 and rounding monotone: the grid max, bit for bit
        f = affine_test_function(alpha, beta)
        sup_norm = float(f(x, 1.0).max() * f(0.0, a).max())
        metrics = [Metric("sup_norm", sup_norm, 1.0, sup_norm <= 1.0 + 1e-12)]
        for a0, val in zip(targets, values):
            bound = 0.95 * lower(a0)
            metrics.append(Metric(f"selfconv_a{a0:g}", float(val), bound, val >= bound))
        b_lo, b_hi = min(b_list), max(b_list)
        growth = norms[b_hi] / norms[b_lo]
        needed = 0.8 * (b_hi ** (1 - beta) - 1.0) / (b_lo ** (1 - beta) - 1.0)
        metrics.append(Metric("norm_growth_ratio", growth, needed, growth >= needed))
        return metrics, {}, (values, norms)

    (metrics, _, (values, norms)), (_, _, (half_values, _)) = \
        _rechecked(evaluate, *zip(grids, ml_steps))
    drift = max(abs(v1 / v0 - 1.0) for v0, v1 in zip(values, half_values))
    if drift > 0.05:
        raise ResolutionError(f"values drift {drift:.3f} > 5% under refinement")

    curve = [{"parameter": a0, "value": m.value, "bound": m.bound, "pass": m.passed}
             for a0, m in zip(targets, metrics[1:])]  # metrics[0] is sup_norm
    norm_curve = [{"parameter": b, "value": norms[b], "bound": None, "pass": None}
                  for b in b_list]
    report = Report(
        command="counterexample affine",
        parameters={"alpha": alpha, "beta": beta, "targets": list(targets),
                    "B_list": list(b_list), "x_half": x_half, "x_step": x_step,
                    "a_min": a_min, "a_max": a_max, "a_ratio": a_ratio},
        metrics=metrics, seed=seed,
        curves={"selfconv": curve, "partial_norm": norm_curve},
    )
    return _stamp(report)


# ---------------------------------------------------------------------------
# Gabor frame / Riesz suites on the cyclic model


def _cyclic_setup(n_side: int, window_id: str):
    if window_id not in WINDOWS:
        raise InvalidParameterError(f"window_id must be one of {', '.join(map(repr, WINDOWS))}, "
                                    f"got window_id={window_id!r}")
    model = build_cyclic_phase_space(n_side)
    rep = gabor_representation(model)
    return model, rep, WINDOWS[window_id](model)


def lattice_points(model, step_k: int, step_l: int) -> SampleSet:
    n = model.n_side
    pts = [k * n + l for k in range(0, n, step_k) for l in range(0, n, step_l)]
    return SampleSet(model=model, points=np.array(pts))


def block_indices(model, size_k: int, size_l: int) -> np.ndarray:
    n = model.n_side
    return np.array([(k % n) * n + (l % n) for k in range(size_k) for l in range(size_l)])


def run_gabor_suite(n_side: int = 8, lattice_steps=(2, 2), window_id: str = "gaussian",
                    eps_target: float = 0.5, p: float = 1.0, seed: int = 0) -> Report:
    """Almost-tight frame, canonical dual by power series, Parseval companion."""
    try:
        sk, sl = lattice_steps
    except (TypeError, ValueError):
        sk = sl = None
    if not (_is_int_at_least(sk, 1) and _is_int_at_least(sl, 1)):
        raise InvalidParameterError(f"lattice_steps must be two positive integers, "
                                    f"got lattice_steps={lattice_steps!r}")
    model, rep, window = _cyclic_setup(n_side, window_id)
    if n_side % sk or n_side % sl:
        raise TruncationError("lattice steps must divide N")
    ks = KernelSystem.build(rep, window)
    sample = lattice_points(model, sk, sl)
    u = block_indices(model, sk, sl)
    fs = build_almost_tight_frame(ks, sample, u)
    a_bound, b_bound = fs.bounds
    dev = fs.deviation

    duals = dual_frame(fs, p=p)
    direct = np.linalg.solve(fs.frame_operator, (fs.tau[:, None] * fs.atoms).T).T
    dual_gap = float(np.abs(duals - direct).max())
    recon = reconstruction_error(fs, duals)
    pars_err = parseval_frame(fs)[1]
    kernel_env = frame_kernel_envelope_check(fs)

    metrics = [
        Metric("lower_frame_bound", a_bound, None, None),
        Metric("upper_frame_bound", b_bound, None, None),
        Metric("frame_operator_deviation", dev, eps_target, dev <= eps_target),
        Metric("dual_vs_direct", dual_gap, 1e-9, dual_gap <= 1e-9),
        Metric("reconstruction_error", recon, 1e-9, recon <= 1e-9),
        Metric("parseval_identity_error", pars_err, 1e-8, pars_err <= 1e-8),
        Metric("frame_kernel_envelope_excess", kernel_env["max_excess"], 1e-10,
               kernel_env["holds"]),
    ]
    report = Report(
        command="gabor frame",
        parameters={
            "N": n_side,
            "lattice": list(lattice_steps),
            "window": window_id,
            "tau_policy": "cover-cell-mass",
            "p": p,
            "bounds": [a_bound, b_bound],
            "neumann_terms": fs.neumann_terms,
            "series_rate": fs.relaxation[1],
            "series_tail_bound": fs.series_tail_bound,
            "reconstruction_error": recon,
            "envelope": fs.certificates["dual"].to_json_obj(),
            "frame_kernel_check": {key: kernel_env[key] for key in ("pairs", "absent")},
        },
        metrics=metrics, seed=seed,
        curves={"bounds": [
            {"parameter": "A", "value": a_bound, "bound": None, "pass": None},
            {"parameter": "B", "value": b_bound, "bound": None, "pass": None},
        ]},
    )
    return _stamp(report)


def run_riesz_suite(n_side: int = 8, separation: int = 4, window_id: str = "gaussian",
                    seed: int = 0) -> Report:
    """Gramian bounds, biorthogonal system and orthonormalization on a sparse lattice.

    A Rayleigh quotient at angle t from an extreme eigenvector is within (hi - lo) sin^2 t
    of it, so the 1e-6 gap to the power-iteration oracle screens for a wrong extreme.
    """
    if not _is_int_at_least(separation, 1):
        raise InvalidParameterError(f"separation must be a positive integer, "
                                    f"got separation={separation!r}")
    model, rep, window = _cyclic_setup(n_side, window_id)
    if n_side % separation:
        raise TruncationError("separation must divide N")
    ks = KernelSystem.build(rep, window)
    sample = lattice_points(model, separation, separation)
    rs = build_riesz_system(ks, sample)
    lo, hi = rs.bounds
    oracle_lo, oracle_hi = rayleigh_extremes(rs.gram.entries, seed=seed + 1)
    bio_dev = biorthogonal_system(rs)[1]
    ortho_dev = orthonormalize(rs)[1]

    metrics = [
        Metric("riesz_lower", lo, None, None),
        Metric("riesz_upper", hi, None, None),
        Metric("rayleigh_gap_lower", abs(lo - oracle_lo), 1e-6, abs(lo - oracle_lo) <= 1e-6),
        Metric("rayleigh_gap_upper", abs(hi - oracle_hi), 1e-6, abs(hi - oracle_hi) <= 1e-6),
        Metric("biorthogonality_deviation", bio_dev, 1e-9, bio_dev <= 1e-9),
        Metric("orthonormalization_deviation", ortho_dev, 1e-9, ortho_dev <= 1e-9),
    ]
    report = Report(
        command="gabor riesz",
        parameters={"N": n_side, "separation": separation, "window": window_id},
        metrics=metrics, seed=seed,
    )
    return _stamp(report)


# ---------------------------------------------------------------------------
# IN-group diagnostic


def run_in_diagnostic(model_id: str = "affine", seed: int = 0) -> Report:
    """Tabulate mu(QxQ): bounded on line/cyclic models, growing on the affine group."""
    if model_id not in ("line", "cyclic", "affine", "all"):
        raise InvalidParameterError(f"model_id must be one of 'line', 'cyclic', 'affine', "
                                    f"'all', got model_id={model_id!r}")
    metrics = []
    curves = {}
    if model_id in ("line", "all"):
        model = build_real_line(8.0, 0.01)
        points = [model.index_of(v) for v in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        vals = [measure_QxQ(model, i) for i in points]
        spread = max(vals) - min(vals)
        tol = 4 * model.step + 1e-9
        metrics.append(Metric("line_spread", spread, tol, spread <= tol))
        metrics.append(Metric("line_value", float(np.mean(vals)), None, None))
        curves["line"] = [{"parameter": model.coords[i], "value": v,
                           "bound": 4.0, "pass": None}
                          for i, v in zip(points, vals)]
    if model_id in ("cyclic", "all"):
        model = build_cyclic_phase_space(8)
        points = [model.index_of((k, l)) for (k, l) in [(0, 0), (1, 2), (4, 4), (7, 3)]]
        vals = [measure_QxQ(model, i) for i in points]
        spread = max(vals) - min(vals)
        metrics.append(Metric("cyclic_spread", spread, 1e-12, spread <= 1e-12))
        curves["cyclic"] = [{"parameter": i, "value": v, "bound": None, "pass": None}
                            for i, v in zip(points, vals)]
    if model_id in ("affine", "all"):
        model = build_affine_grid(8.0, 0.05, 1.0 / 128.0, 16.0, 1.04)
        scales = [1.0, 0.5, 0.25, 0.125, 0.0625]
        points = [model.index_of((0.0, model.a_coords[np.argmin(np.abs(model.a_coords - s))]))
                  for s in scales]
        vals = [measure_QxQ(model, i) for i in points]
        increasing = all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        growth = vals[-1] / vals[0]
        metrics.append(Metric("affine_monotone_growth", float(increasing), 1.0,
                              increasing))
        metrics.append(Metric("affine_growth_factor", growth, 3.0, growth >= 3.0))
        q_mass = model.q_mass()
        for s, v in zip(scales, vals):
            delta = 1.0 / s
            ok = v >= max(q_mass, delta * q_mass) * 0.9
            metrics.append(Metric(f"affine_lower_bound_a{s:g}", v,
                                  max(q_mass, delta * q_mass) * 0.9, ok))
        curves["affine"] = [{"parameter": s, "value": v, "bound": None, "pass": None}
                            for s, v in zip(scales, vals)]
    report = Report(command="diagnostic in-group", parameters={"model": model_id},
                    metrics=metrics, seed=seed, curves=curves)
    return _stamp(report)


# ---------------------------------------------------------------------------
# coorbit norm / embedding reports


def run_coorbit_norm(n_side: int = 8, p: float = 0.5, seed: int = 0) -> Report:
    """Window-independence and Wiener-vs-plain ratio measurements on the cyclic model."""
    model, rep, window = _cyclic_setup(n_side, "gaussian")
    weight = symmetrize_weight(model, np.ones(model.size), p)
    y_spec = QuasiNormSpec(p=p, weight=weight, flavor="plain")
    ctx = CoorbitContext.build(rep, window, y_spec, weight, p)
    rng = rng_for(seed, "coorbit-norm")
    f_samples = [rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
                 for _ in range(100)]
    wi = window_independence_ratio(ctx, boxcar_window(model), f_samples)
    wp = wiener_vs_plain_ratio(ctx, f_samples)
    metrics = [
        Metric("window_ratio_spread", wi["spread"], None, None),
        Metric("window_ratio_finite", float(np.isfinite(wi["spread"])), 1.0,
               bool(np.isfinite(wi["spread"]))),
        Metric("wiener_plain_max", wp["max"], None, None),
        Metric("wiener_plain_finite", float(np.isfinite(wp["max"])), 1.0,
               bool(np.isfinite(wp["max"]))),
    ]
    report = Report(command="coorbit norm",
                    parameters={"N": n_side, "p": p}, metrics=metrics, seed=seed)
    return _stamp(report)


def run_coorbit_embed(n_side: int = 8, p_from: float = 0.5, p_to: float = 1.0,
                      seed: int = 0) -> Report:
    """Factorized coorbit embedding constant through the sequence spaces."""
    if not p_from <= p_to:
        raise InvalidParameterError(f"coorbit embed needs p_from <= p_to, "
                                    f"got p_from={p_from!r}, p_to={p_to!r}")
    model, rep, window = _cyclic_setup(n_side, "gaussian")
    weight = symmetrize_weight(model, np.ones(model.size), p_from)
    ctx_y = CoorbitContext.build(rep, window, QuasiNormSpec(p=p_from, weight=weight),
                                 weight, p_from)
    # Co(Z) shares the window, weight, p and window norm of Co(Y); only Y differs
    ctx_z = replace(ctx_y, y_spec=QuasiNormSpec(p=p_to, weight=weight))
    sample = lattice_points(model, 2, 2)
    fs = build_almost_tight_frame(ctx_y.kernel_system, sample, block_indices(model, 2, 2))
    duals = dual_frame(fs, p=p_from, weight=weight)
    result = embedding_check(ctx_y, ctx_z, sample, fs.atoms, duals, seed=seed + 3)
    metrics = [
        Metric("embedding_measured", result["measured"], result["certificate_bound"] * (1 + 1e-6),
               result["pass"]),
        Metric("sequence_embedding_constant", result["sequence_embedding_constant"],
               None, None),
    ]
    report = Report(command="coorbit embed",
                    parameters={"N": n_side, "p_from": p_from, "p_to": p_to,
                                **{key: result[key] for key in ("coefficient_norm",
                                                                "reconstruction_norm",
                                                                "certificate_bound")}},
                    metrics=metrics, seed=seed)
    return _stamp(report)
