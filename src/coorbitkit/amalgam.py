"""Grid functions, weighted Lebesgue and Wiener amalgam quasi-norms, twisted convolution.

All operations are pure; a GridFunction never mutates its model.  Absent group
products contribute zero everywhere, consistent with zero-extension.

Every quasi-norm is one kernel, ``magnitude_norm(model, mags, spec)``, on an
array of nonnegative magnitudes: the spec's flavor takes ``model.local_max`` on
no side (plain L^p_w), the left (W^L), the right (W^R) or the right and then
the left (two-sided W), and the weighted Haar sum (the weighted maximum for
p = inf) follows.  ``mags`` is (..., n) and the norm reduces over its last axis:
a single function gives a float, a stack of rows one norm per row, each
bit-identical to the row's own call.  ``lpw_norm`` and ``amalgam_norm`` are its
front ends for a GridFunction.

Convolution is the model kernel ``model.convolve(v1, v2, twisted)``; ``convolve``
and ``twisted_convolve`` are its front ends for two GridFunctions on one model.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import IncompatibleOperandsError, InvalidParameterError, InvalidWeightError
from .groups import GroupModel, PWeight, padded


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
        if not np.isfinite(v).all():
            raise InvalidParameterError("grid function entries must be finite")
        object.__setattr__(self, "values", v)

    def __abs__(self) -> "GridFunction":
        return GridFunction(self.model, np.abs(self.values))


def indicator(model: GroupModel, indices) -> GridFunction:
    v = np.zeros(model.size, dtype=complex)
    v[np.asarray(indices, dtype=int)] = 1.0
    return GridFunction(model, v)


def _same_model(f: GridFunction, h: GridFunction):
    if f.model is not h.model:
        raise IncompatibleOperandsError("grid functions live on different models")


@dataclass(frozen=True)
class QuasiNormSpec:
    """Exponent, weight and flavor of a (possibly amalgam) quasi-norm.

    flavor: "plain" (L^p_w), "left" (W^L), "right" (W^R) or "two_sided" (W).
    p is a real scalar > 0 or +inf (the weighted maximum), never a bool, an array
    or a str, and keeps the type it is given.  weight may be a PWeight, a raw
    array of finite positive entries, or None for the unit weight.  p and a raw
    weight are checked here and a PWeight when it is made, so no norm call checks
    them again.
    """

    p: float
    weight: Optional[Union[PWeight, np.ndarray]] = None
    flavor: str = "plain"

    _FLAVORS = ("plain", "left", "right", "two_sided")

    def __post_init__(self):
        if self.flavor not in self._FLAVORS:
            raise InvalidParameterError(f"unknown flavor {self.flavor!r}")
        # a bool is Integral (True > 0), so it is named; p > 0 is False on NaN and on -inf
        if not isinstance(self.p, numbers.Real) or isinstance(self.p, bool) or not self.p > 0:
            raise InvalidParameterError(f"p must be positive or inf, got {self.p!r}")
        if self.weight is not None and not isinstance(self.weight, PWeight):
            values = np.asarray(self.weight, dtype=float)
            if not np.all(np.isfinite(values) & (values > 0)):
                raise InvalidWeightError("weight entries must be positive and finite")

    def weight_values(self, model: GroupModel) -> np.ndarray:
        """The weight on ``model``'s carrier; the spec's weight is not None."""
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


def maximal_left(f: GridFunction) -> GridFunction:
    """M^L F(x) = max over q in Q with xq defined of |F(xq)|."""
    return GridFunction(f.model, f.model.local_max(np.abs(f.values), "left"))


def maximal_right(f: GridFunction) -> GridFunction:
    """M^R F(x) = max over q in Q with qx defined of |F(qx)|."""
    return GridFunction(f.model, f.model.local_max(np.abs(f.values), "right"))


# ---------------------------------------------------------------------------
# norms


def magnitude_norm(model: GroupModel, mags, spec: QuasiNormSpec):
    """The spec's quasi-norm of a function whose magnitudes on ``model`` are ``mags`` (>= 0).

    ``mags`` of shape (n,) gives a float; a (..., n) stack gives an array of one
    norm per row.  The unit weight (``spec.weight`` None) reads ``mags`` as they
    are: x·1.0 = x exactly, so skipping the multiply moves no value.
    """
    mags = np.asarray(mags, dtype=float)
    if spec.flavor in ("right", "two_sided"):
        mags = model.local_max(mags, "right")
    if spec.flavor in ("left", "two_sided"):
        mags = model.local_max(mags, "left")
    if spec.weight is not None:
        mags = mags * spec.weight_values(model)
    if math.isinf(spec.p):
        norms = mags.max(axis=-1, initial=0.0)
    else:
        total = (mags ** spec.p * model.haar).sum(axis=-1)
        # float_power takes numpy's scalar power entry by entry, where an array **
        # rounds some roots (1/p = 3, 1/2) differently
        norms = np.float_power(total, 1.0 / spec.p)
    return float(norms) if norms.ndim == 0 else norms


def lpw_norm(f: GridFunction, spec: QuasiNormSpec) -> float:
    """Weighted Haar-quadrature L^p norm; p = inf gives the weighted maximum."""
    if spec.flavor != "plain":
        raise InvalidParameterError("lpw_norm expects a plain-flavor spec")
    return magnitude_norm(f.model, np.abs(f.values), spec)


def amalgam_norm(f: GridFunction, spec: QuasiNormSpec) -> float:
    """Quasi-norm for any flavor: plain L^p_w, or L^p_w of the flavor's maximal function."""
    return magnitude_norm(f.model, np.abs(f.values), spec)


# the older name of amalgam_norm; perfbench/tracing.py still wraps it by name
norm = amalgam_norm


# ---------------------------------------------------------------------------
# convolution


def twisted_convolve(f1: GridFunction, f2: GridFunction) -> GridFunction:
    """(F1 *_sigma F2)(x) = sum_y F1(y) sigma(y, y^{-1}x) F2(y^{-1}x) mu(y)."""
    _same_model(f1, f2)
    return GridFunction(f1.model, f1.model.convolve(f1.values, f2.values, twisted=True))


def convolve(f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Plain (untwisted) group convolution by Haar quadrature."""
    _same_model(f1, f2)
    return GridFunction(f1.model, f1.model.convolve(f1.values, f2.values))


# ---------------------------------------------------------------------------
# empirical convolution-relation check


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
