"""Grid functions, weighted Lebesgue and Wiener amalgam quasi-norms, twisted convolution.

All operations are pure; a GridFunction never mutates its model.  Absent group
products contribute zero everywhere, consistent with zero-extension.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import IncompatibleOperandsError, InvalidParameterError
from .groups import GroupModel, PWeight, padded

_BLOCK = 512


@dataclass(frozen=True)
class GridFunction:
    """Complex-valued function on a GroupModel carrier."""

    model: GroupModel
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.model.size,):
            raise IncompatibleOperandsError(
                f"values must have shape ({self.model.size},), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("grid function entries must be finite")
        object.__setattr__(self, "values", v)

    def __abs__(self) -> "GridFunction":
        return GridFunction(self.model, np.abs(self.values))

    def to_csv(self, path: Union[str, Path]) -> Path:
        """One row per carrier point: coordinate label(s), re, im."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            if self.model.kind == "cyclic":
                writer.writerow(["k", "l", "re", "im"])
                n = self.model.n_side
                for i, v in enumerate(self.values):
                    writer.writerow([i // n, i % n, v.real, v.imag])
            elif self.model.kind == "affine":
                writer.writerow(["x", "a", "re", "im"])
                for i, v in enumerate(self.values):
                    writer.writerow([self.model.coords[i, 0], self.model.coords[i, 1],
                                     v.real, v.imag])
            else:
                writer.writerow(["x", "re", "im"])
                for i, v in enumerate(self.values):
                    writer.writerow([self.model.coords[i], v.real, v.imag])
        return path


def indicator(model: GroupModel, indices) -> GridFunction:
    v = np.zeros(model.size, dtype=complex)
    v[np.asarray(indices, dtype=int)] = 1.0
    return GridFunction(model, v)


def delta(model: GroupModel, index: int, normalized: bool = False) -> GridFunction:
    """Point mass; ``normalized`` scales by 1/mu so it acts as convolution identity."""
    v = np.zeros(model.size, dtype=complex)
    v[index] = 1.0 / model.haar[index] if normalized else 1.0
    return GridFunction(model, v)


def _same_model(f: GridFunction, h: GridFunction):
    if f.model is not h.model:
        raise IncompatibleOperandsError("grid functions live on different models")


@dataclass(frozen=True)
class QuasiNormSpec:
    """Exponent, weight and flavor of a (possibly amalgam) quasi-norm.

    flavor: "plain" (L^p_w), "left" (W^L), "right" (W^R) or "two_sided" (W).
    weight may be a PWeight, a raw positive array, or None for the unit weight.
    """

    p: float
    weight: Optional[Union[PWeight, np.ndarray]] = None
    flavor: str = "plain"

    _FLAVORS = ("plain", "left", "right", "two_sided")

    def __post_init__(self):
        if self.flavor not in self._FLAVORS:
            raise InvalidParameterError(f"unknown flavor {self.flavor!r}")
        if not (self.p > 0 or np.isinf(self.p)):
            raise InvalidParameterError(f"p must be positive or inf, got {self.p}")

    def weight_values(self, model: GroupModel) -> np.ndarray:
        if self.weight is None:
            return np.ones(model.size)
        values = self.weight.values if isinstance(self.weight, PWeight) else np.asarray(self.weight, dtype=float)
        if values.shape != (model.size,):
            raise IncompatibleOperandsError("weight does not match the model carrier")
        return values


# ---------------------------------------------------------------------------
# elementary operations


def involution(f: GridFunction) -> GridFunction:
    """F^vee(x) = F(x^{-1}); absent inverses yield zero."""
    model = f.model
    inv = model.inv_indices(np.arange(model.size))
    return GridFunction(model, padded(f.values)[inv])


def translate_left(f: GridFunction, x_index: int, twisted: bool = False) -> GridFunction:
    """L_x F(y) = F(x^{-1} y); the twisted variant multiplies by sigma(x, x^{-1}y)."""
    model = f.model
    z = model.div_indices(x_index, np.arange(model.size))
    out = padded(f.values)[z]
    if twisted and not model.has_trivial_cocycle:
        out *= model.cocycle_values(x_index, z)  # absent entries stay zero
    return GridFunction(model, out)


def translate_right(f: GridFunction, x_index: int, twisted: bool = False) -> GridFunction:
    """R_x F(y) = F(y x); the twisted variant multiplies by conj(sigma(y, x))."""
    model = f.model
    y = np.arange(model.size)
    z = next(model.translates(y, [x_index]))
    out = padded(f.values)[z]
    if twisted and not model.has_trivial_cocycle:
        out *= np.conj(model.cocycle_values(y, x_index))  # absent entries stay zero
    return GridFunction(model, out)


def _maximal(f: GridFunction, side: str) -> GridFunction:
    model = f.model
    mag = padded(np.abs(f.values))
    out = np.zeros(model.size)
    for t in model.translates(np.arange(model.size), model.q_indices, side):
        np.maximum(out, mag[t], out=out)
    return GridFunction(model, out)


def maximal_left(f: GridFunction) -> GridFunction:
    """M^L F(x) = max over q in Q with xq defined of |F(xq)|."""
    return _maximal(f, "left")


def maximal_right(f: GridFunction) -> GridFunction:
    """M^R F(x) = max over q in Q with qx defined of |F(qx)|."""
    return _maximal(f, "right")


def maximal_two_sided(f: GridFunction) -> GridFunction:
    return maximal_left(maximal_right(f))


# ---------------------------------------------------------------------------
# norms


def lpw_norm(f: GridFunction, spec: QuasiNormSpec) -> float:
    """Weighted Haar-quadrature L^p norm; p = inf gives the weighted maximum."""
    if spec.flavor != "plain":
        raise InvalidParameterError("lpw_norm expects a plain-flavor spec")
    w = spec.weight_values(f.model)
    weighted = np.abs(f.values) * w
    if np.isinf(spec.p):
        return float(weighted.max()) if weighted.size else 0.0
    return float((weighted ** spec.p * f.model.haar).sum() ** (1.0 / spec.p))


def amalgam_norm(f: GridFunction, spec: QuasiNormSpec) -> float:
    """Quasi-norm for any flavor: plain L^p_w, or L^p_w of the flavor's maximal function."""
    if spec.flavor == "plain":
        return lpw_norm(f, spec)
    if spec.flavor == "left":
        mf = maximal_left(f)
    elif spec.flavor == "right":
        mf = maximal_right(f)
    else:
        mf = maximal_two_sided(f)
    return lpw_norm(mf, QuasiNormSpec(p=spec.p, weight=spec.weight, flavor="plain"))


# the older name of amalgam_norm; perfbench/tracing.py still wraps it by name
norm = amalgam_norm


# ---------------------------------------------------------------------------
# convolution


def _convolve_values(model: GroupModel, v1: np.ndarray, v2: np.ndarray,
                     use_cocycle: bool) -> np.ndarray:
    n = model.size
    if model.kind == "line" and not use_cocycle:
        # same quadrature sum; addition on a uniform grid is a plain sequence
        # convolution, which numpy evaluates directly (no FFT involved)
        i0 = model.identity
        full = np.convolve(v1, v2)
        return model.step * full[i0:i0 + n]
    out = np.zeros(n, dtype=complex)
    x = np.arange(n)
    weighted = v1 * model.haar
    v2_pad = padded(v2)
    for start in range(0, n, _BLOCK):
        block = np.arange(start, min(start + _BLOCK, n))
        rows = weighted[block]
        if not np.any(rows):
            continue
        z = model.div_indices(block[:, None], x[None, :])
        vals = v2_pad[z]
        if use_cocycle:
            vals = vals * model.cocycle_values(block[:, None], z)  # absent entries stay zero
        out += rows @ vals
    return out


def twisted_convolve(f1: GridFunction, f2: GridFunction) -> GridFunction:
    """(F1 *_sigma F2)(x) = sum_y F1(y) sigma(y, y^{-1}x) F2(y^{-1}x) mu(y)."""
    _same_model(f1, f2)
    use_sigma = not f1.model.has_trivial_cocycle
    return GridFunction(f1.model, _convolve_values(f1.model, f1.values, f2.values, use_sigma))


def convolve(f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Plain (untwisted) group convolution by Haar quadrature."""
    _same_model(f1, f2)
    return GridFunction(f1.model, _convolve_values(f1.model, f1.values, f2.values, False))


# ---------------------------------------------------------------------------
# empirical convolution-relation and embedding checks


@dataclass
class ConvolutionRelationReport:
    lhs: float
    wl_factor: float
    wr_factor: float
    empirical_constant: float
    maximal_left_violation: float
    maximal_right_violation: float

    @property
    def maximal_estimates_hold(self) -> bool:
        return self.maximal_left_violation <= 1e-10 and self.maximal_right_violation <= 1e-10


def convolution_relation_check(f1: GridFunction, f2: GridFunction,
                               y_spec: QuasiNormSpec, w: PWeight) -> ConvolutionRelationReport:
    """Empirical constant of ||F1*F2||_Y <= C ||F1||_{W^L(Y)} ||F2||_{W^R(L^p_w)}.

    Also verifies the pointwise maximal-function estimates
    M^L(F1 *_sigma F2) <= |F1| * M^L F2 and M^R(F1 *_sigma F2) <= M^R F1 * |F2|.
    """
    _same_model(f1, f2)
    conv = twisted_convolve(f1, f2)
    lhs = amalgam_norm(conv, QuasiNormSpec(p=y_spec.p, weight=y_spec.weight, flavor="plain"))
    wl = amalgam_norm(f1, QuasiNormSpec(p=y_spec.p, weight=y_spec.weight, flavor="left"))
    wr = amalgam_norm(f2, QuasiNormSpec(p=w.p, weight=w, flavor="right"))
    prod = wl * wr
    empirical = lhs / prod if prod > 0 else (0.0 if lhs == 0 else float("inf"))

    ml_conv = maximal_left(conv).values.real
    ml_bound = convolve(abs(f1), maximal_left(f2)).values.real
    mr_conv = maximal_right(conv).values.real
    mr_bound = convolve(maximal_right(f1), abs(f2)).values.real
    scale = max(1.0, float(ml_bound.max()), float(mr_bound.max()))
    return ConvolutionRelationReport(
        lhs=lhs, wl_factor=wl, wr_factor=wr, empirical_constant=empirical,
        maximal_left_violation=float((ml_conv - ml_bound).max()) / scale,
        maximal_right_violation=float((mr_conv - mr_bound).max()) / scale,
    )


@dataclass
class EmbeddingConstantReport:
    max_ratio: float
    ratios: list = field(default_factory=list)

    @property
    def finite(self) -> bool:
        return np.isfinite(self.max_ratio)


def embedding_constant_check(samples, p_from: float, p_to: float,
                             w: PWeight) -> EmbeddingConstantReport:
    """Max over samples of ||F||_{L^{p_to}_w} / ||F||_{W^L(L^{p_from}_w)}."""
    if p_from > p_to:
        raise InvalidParameterError("embedding requires p_from <= p_to")
    ratios = []
    for f in samples:
        num = lpw_norm(f, QuasiNormSpec(p=p_to, weight=w, flavor="plain"))
        den = amalgam_norm(f, QuasiNormSpec(p=p_from, weight=w, flavor="left"))
        ratios.append(num / den if den > 0 else (0.0 if num == 0 else float("inf")))
    return EmbeddingConstantReport(max_ratio=float(max(ratios)) if ratios else 0.0,
                                   ratios=ratios)
