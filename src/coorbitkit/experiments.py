"""Experiment runners producing machine-readable reports.

Every quadrature-based pass flag is re-verified at half the step size; a flag
that flips raises ResolutionError.  Random samples come from a counter-based
generator keyed by (seed, experiment, index) so sweeps are reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .amalgam import GridFunction, QuasiNormSpec, amalgam_norm, convolve, indicator, involution
from .errors import ResolutionError, TruncationError
from .frames import (
    KernelSystem,
    WINDOWS,
    biorthogonal_system,
    build_almost_tight_frame,
    dual_frame,
    frame_kernel_envelope_check,
    gabor_representation,
    gramian,
    orthonormalize,
    parseval_frame,
    rayleigh_extremes,
    riesz_bounds,
)
from .groups import (
    AffineGridModel,
    build_affine_grid,
    build_cyclic_phase_space,
    build_real_line,
    measure_QxQ,
)
from .sampling import SampleSet

E = float(np.e)


def rng_for(seed: int, experiment: str, index: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, experiment, index); splittable and stable."""
    digest = hashlib.sha256(experiment.encode()).digest()
    key = int.from_bytes(digest[:8], "big")
    bits = np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, key],
                            counter=[index, 0, 0, 0])
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
        obj = asdict(self)
        return json.dumps(obj, sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
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
    t_list = tuple(float(t) for t in t_list)
    if max(t_list) + 2.0 >= half_width:
        raise TruncationError(
            f"need max(T)+2 < half_width, got T={max(t_list)}, L={half_width}"
        )

    def evaluate(h: float) -> tuple:
        rows = {t: _realline_quantities(t, half_width, h) for t in t_list}
        flags = {}
        for t, q in rows.items():
            flags[f"conv_at_zero_T{t:g}"] = abs(q["conv_at_zero"] - 1.0) <= 2 * h
            flags[f"f_amalgam_T{t:g}"] = q["f_wl_norm"] <= E * np.exp(-t) * 1.05
        flags["conv_norm_lower"] = all(
            q["conv_wl_norm"] >= (E - 1.0 / E) * 0.95 for q in rows.values()
        )
        t0, t1 = t_list[0], t_list[-1]
        growth = rows[t1]["ratio"] / rows[t0]["ratio"]
        expected = np.exp(2.0 * (t1 - t0))
        flags["ratio_growth"] = abs(growth / expected - 1.0) <= 0.10
        for ta, tb in zip(t_list, t_list[1:]):
            gr = rows[tb]["ratio"] / rows[ta]["ratio"]
            flags[f"ratio_step_T{ta:g}_T{tb:g}"] = \
                abs(gr / np.exp(2.0 * (tb - ta)) - 1.0) <= 0.10
        return rows, flags, growth, expected

    rows, flags, growth, expected = evaluate(step)
    _, flags_half, _, _ = evaluate(step / 2.0)
    flipped = [k for k in flags if flags[k] != flags_half[k]]
    if flipped:
        raise ResolutionError(f"pass flags flipped at half step: {flipped}")

    metrics = []
    curve = []
    for t in t_list:
        q = rows[t]
        metrics.append(Metric(f"conv_at_zero_T{t:g}", q["conv_at_zero"], 1.0,
                              flags[f"conv_at_zero_T{t:g}"]))
        metrics.append(Metric(f"f_amalgam_T{t:g}", q["f_wl_norm"],
                              E * float(np.exp(-t)) * 1.05, flags[f"f_amalgam_T{t:g}"]))
        curve.append({"parameter": t, "value": q["ratio"],
                      "bound": float(np.exp(2 * t)), "pass": True})
    metrics.append(Metric("conv_norm_lower", min(q["conv_wl_norm"] for q in rows.values()),
                          (E - 1.0 / E) * 0.95, flags["conv_norm_lower"]))
    metrics.append(Metric("ratio_growth", growth, expected, flags["ratio_growth"]))
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


def affine_selfconvolution_at(model: AffineGridModel, alpha: float, beta: float,
                              targets) -> np.ndarray:
    """(f^vee * f)(0, a) by the model's Haar sum at exact group products."""
    f = affine_test_function(alpha, beta)
    x = model.coords[:, 0]
    a = model.coords[:, 1]
    fvee = f(-x / a, 1.0 / a)
    out = []
    for a0 in targets:
        out.append(float((fvee * f(-x / a, a0 / a) * model.haar).sum()))
    return np.array(out)


def _scale_selfconvolution(y, b, alpha: float, beta: float, c_grid: np.ndarray,
                           lnr: float) -> np.ndarray:
    """(f^vee * f)(y, b) with the Euclidean x-convolution in closed form.

    Uses int e^{-|z|} e^{-|z-u|} dz = e^{-|u|} (1 + |u|), leaving a single
    quadrature over the scale variable.
    """
    yb = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(b, dtype=float))
    yy, bb = yb
    out = np.zeros(yy.shape)
    m1 = np.minimum(c_grid ** (-alpha), c_grid ** beta)
    for m1c, c in zip(m1, c_grid):
        u = np.abs(yy) / c
        m2 = np.minimum((bb / c) ** alpha, (c / bb) ** beta)
        out += m1c * m2 * np.exp(-u) * (1.0 + u) * lnr
    return out


def _affine_partial_norms(alpha: float, beta: float, b_list, x_half: float,
                          x_step: float, a_ratio: float) -> dict:
    """Partial amalgam norms of f^vee * f over the region 1 <= b <= B.

    The maximal function is lower-bounded by the larger of the on-grid window
    maximum and the window-containment minorant H(0, b') for |y| < b with
    b' in (b/2, 2b); both lie inside the continuum window, so the partial norm
    is an honest lower bound that still exhibits the divergence.
    """
    b_max = max(b_list)
    # window rows for b in [1, b_max] live in (1/2, 2 b_max); the minorant region
    # needs |y| < b only, so a modest margin beyond b_max suffices in x
    model = build_affine_grid(x_half, x_step, a_min=1.0 / 2.6,
                              a_max=2.6 * b_max, a_ratio=a_ratio)
    c_ratio = 1.0 + 2.0 * (a_ratio - 1.0)
    lnr_c = np.log(c_ratio)
    c_grid = c_ratio ** np.arange(int(np.floor(np.log(1e-3) / lnr_c)),
                                  int(np.ceil(np.log(1e3) / lnr_c)) + 1)
    xg = model.x_coords
    ag = model.a_coords
    h_vals = _scale_selfconvolution(xg[:, None], ag[None, :], alpha, beta, c_grid, lnr_c)

    grid_fn = GridFunction(model, h_vals.reshape(-1))
    from .amalgam import maximal_left

    ml = maximal_left(grid_fn).values.real.reshape(len(xg), len(ag))
    h0 = h_vals[model._k_max, :]  # H(0, b') per scale row
    minorant_level = np.zeros(len(ag))
    for mi, b in enumerate(ag):
        sel = (ag > b / 2.0) & (ag < 2.0 * b)
        if sel.any():
            minorant_level[mi] = h0[sel].max()
    minor = np.where(np.abs(xg)[:, None] < ag[None, :], minorant_level[None, :], 0.0)
    ml = np.maximum(ml, minor)

    weight = 1.0 + ag
    mu = model.x_step * np.log(model.a_ratio) / ag
    norms = {}
    for b in b_list:
        mask = (ag >= 1.0) & (ag <= b)
        norms[b] = float((ml * (weight * mu * mask)[None, :]).sum())
    return norms


def run_counterexample_affine(alpha: float = 2.0, beta: float = 0.5,
                              targets=(1.0, 2.0, 4.0, 8.0), b_list=(16.0, 64.0),
                              x_half: float = 40.0, x_step: float = 0.02,
                              a_min: float = 0.02, a_max: float = 32.0,
                              a_ratio: float = 1.03, seed: int = 0) -> Report:
    """Affine-group failure of the convolution relation: f^vee * f escapes W^L(Y)."""
    if not (alpha > 1.0 and 0.0 < beta < 1.0):
        raise TruncationError("need alpha > 1 and beta in (0,1)")
    c2 = 1.0  # int (e^{-|z|})^2 dz
    lower = lambda a0: c2 / (2.0 * beta) * a0 ** (-beta)

    def evaluate(xs: float, ratio: float) -> tuple:
        model = build_affine_grid(x_half, xs, a_min, a_max, ratio)
        values = affine_selfconvolution_at(model, alpha, beta, targets)
        norms = _affine_partial_norms(alpha, beta, b_list,
                                      x_half=1.1 * max(b_list) + 2.0,
                                      x_step=0.25 * xs / x_step,
                                      a_ratio=1.0 + 2.5 * (ratio - 1.0))
        flags = {}
        for a0, val in zip(targets, values):
            flags[f"selfconv_a{a0:g}"] = val >= 0.95 * lower(a0)
        b_lo, b_hi = min(b_list), max(b_list)
        growth = norms[b_hi] / norms[b_lo]
        needed = 0.8 * (b_hi ** (1 - beta) - 1.0) / (b_lo ** (1 - beta) - 1.0)
        flags["norm_growth"] = growth >= needed
        sup_norm = float(affine_test_function(alpha, beta)(model.coords[:, 0],
                                                           model.coords[:, 1]).max())
        flags["sup_norm"] = sup_norm <= 1.0 + 1e-12
        return values, norms, growth, needed, sup_norm, flags

    values, norms, growth, needed, sup_norm, flags = evaluate(x_step, a_ratio)
    half = evaluate(x_step / 2.0, 1.0 + (a_ratio - 1.0) / 2.0)
    flipped = [k for k in flags if flags[k] != half[5][k]]
    if flipped:
        raise ResolutionError(f"pass flags flipped at half step: {flipped}")
    drift = max(
        abs(v1 / v0 - 1.0) for v0, v1 in zip(values, half[0])
    )
    if drift > 0.05:
        raise ResolutionError(f"values drift {drift:.3f} > 5% under refinement")

    metrics = [Metric("sup_norm", sup_norm, 1.0, flags["sup_norm"])]
    curve = []
    for a0, val in zip(targets, values):
        metrics.append(Metric(f"selfconv_a{a0:g}", float(val), 0.95 * lower(a0),
                              flags[f"selfconv_a{a0:g}"]))
        curve.append({"parameter": a0, "value": float(val),
                      "bound": 0.95 * lower(a0), "pass": flags[f"selfconv_a{a0:g}"]})
    metrics.append(Metric("norm_growth_ratio", growth, needed, flags["norm_growth"]))
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
    model = build_cyclic_phase_space(n_side)
    rep = gabor_representation(model)
    window = WINDOWS[window_id](model)
    return model, rep, KernelSystem.build(rep, window)


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
    model, rep, ks = _cyclic_setup(n_side, window_id)
    sk, sl = lattice_steps
    if n_side % sk or n_side % sl:
        raise TruncationError("lattice steps must divide N")
    sample = lattice_points(model, sk, sl)
    u = block_indices(model, sk, sl)
    fs = build_almost_tight_frame(ks, sample, u)
    a_bound, b_bound = fs.bounds
    dev = float(np.linalg.norm(fs.frame_operator - np.eye(rep.dim), 2))

    duals = dual_frame(fs, p=p)
    direct = np.linalg.solve(fs.frame_operator, (fs.tau[:, None] * fs.atoms).T).T
    dual_gap = float(np.abs(duals - direct).max())
    from .frames import reconstruction_error

    recon = reconstruction_error(fs, duals)
    pars = parseval_frame(fs)
    pars_op = pars.T @ pars.conj()
    pars_err = float(np.abs(pars_op - np.eye(rep.dim)).max())
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
            "reconstruction_error": recon,
            "envelope": fs.certificates["dual"].to_json_obj(),
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
    """Gramian bounds, biorthogonal system and orthonormalization on a sparse lattice."""
    model, rep, ks = _cyclic_setup(n_side, window_id)
    if n_side % separation:
        raise TruncationError("separation must divide N")
    sample = lattice_points(model, separation, separation)
    gram = gramian(ks, sample)
    lo, hi = riesz_bounds(gram)
    oracle_lo, oracle_hi = rayleigh_extremes(gram.entries, seed=seed + 1)
    bio = biorthogonal_system(ks, sample)
    atoms = rep.orbit(ks.window)[sample.points]
    bio_dev = float(np.abs(atoms.conj() @ bio.T - np.eye(len(sample))).max())
    ortho = orthonormalize(ks, sample)
    ortho_dev = float(np.abs(ortho @ ortho.conj().T - np.eye(len(sample))).max())

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
    from .coorbit import CoorbitContext, window_independence_ratio, wiener_vs_plain_ratio
    from .frames import boxcar_window
    from .groups import symmetrize_weight

    model, rep, ks = _cyclic_setup(n_side, "gaussian")
    weight = symmetrize_weight(model, np.ones(model.size), p)
    y_spec = QuasiNormSpec(p=p, weight=weight, flavor="plain")
    ctx = CoorbitContext.build(rep, ks.window, y_spec, weight, p)
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
    from .coorbit import CoorbitContext, embedding_check
    from .groups import symmetrize_weight

    model, rep, ks = _cyclic_setup(n_side, "gaussian")
    weight = symmetrize_weight(model, np.ones(model.size), p_from)
    sample = lattice_points(model, 2, 2)
    fs = build_almost_tight_frame(ks, sample, block_indices(model, 2, 2))
    duals = dual_frame(fs, p=p_from, weight=weight)
    ctx_y = CoorbitContext.build(rep, ks.window,
                                 QuasiNormSpec(p=p_from, weight=weight), weight, p_from)
    ctx_z = CoorbitContext.build(rep, ks.window,
                                 QuasiNormSpec(p=p_to, weight=weight), weight, p_from)
    result = embedding_check(ctx_y, ctx_z, sample, fs.atoms, duals, seed=seed + 3)
    metrics = [
        Metric("embedding_measured", result["measured"], result["certificate_bound"] * (1 + 1e-6),
               result["pass"]),
        Metric("sequence_embedding_constant", result["sequence_embedding_constant"],
               None, None),
    ]
    report = Report(command="coorbit embed",
                    parameters={"N": n_side, "p_from": p_from, "p_to": p_to},
                    metrics=metrics, seed=seed)
    return _stamp(report)
