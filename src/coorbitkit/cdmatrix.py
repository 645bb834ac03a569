"""Convolution-dominated matrices: envelope certificates, Schur bounds, calculus.

A matrix indexed by two sample sets is localized when its entries are dominated
by a symmetric envelope evaluated at the relative positions of its index points.
The envelope travels through products and the power series, which is what
makes the class an algebra at desk scale.  The power series itself,
phi(S) = sum a_n (I - S)^n, lives here; frames sums it relaxed,
w^{1 or 1/2} sum a_n (I - wS)^n with w = 2/(A + B), for S^{-1} and S^{-1/2} of a
frame operator A <= S <= B, its count fixed by the rate q = (B - A)/(B + A).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .amalgam import GridFunction, QuasiNormSpec, amalgam_norm, involution
from .errors import (
    IncompatibleOperandsError,
    InvalidParameterError,
    NoCertificateError,
    NotContractiveError,
)
from .groups import ABSENT, padded
from .sampling import SampleSet, molecule_bound, rel_separation


@dataclass
class CDMatrix:
    """Complex matrix indexed by rows Lambda and cols Gamma with optional envelope."""

    rows: SampleSet
    cols: SampleSet
    entries: np.ndarray
    envelope: Optional[GridFunction] = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (len(self.rows), len(self.cols)):
            raise IncompatibleOperandsError(
                f"entries must have shape ({len(self.rows)}, {len(self.cols)}), got {e.shape}"
            )
        if self.rows.model is not self.cols.model:
            raise IncompatibleOperandsError("row and column samples live on different models")
        self.entries = e

    @property
    def model(self):
        return self.rows.model


def verify_envelope(a: CDMatrix, phi: GridFunction) -> dict:
    """Exhaustive check of |A_ij| <= min over defined positions of the envelope.

    An entry whose two relative positions are both absent is bounded by nothing:
    it counts in ``absent``, the others in ``checked``.  A non-empty matrix with
    no entry checked does not hold.
    """
    model = a.model
    z1 = model.div_indices(a.cols.points[None, :], a.rows.points[:, None])  # gamma_j^{-1} lambda_i
    z2 = model.div_indices(a.rows.points[:, None], a.cols.points[None, :])
    vals = padded(phi.values.real, np.inf)  # an absent position bounds nothing
    bound = np.minimum(vals[z1], vals[z2])
    excess = np.abs(a.entries) - bound
    max_excess = float(excess.max()) if excess.size else 0.0
    checked = int(np.count_nonzero((z1 != ABSENT) | (z2 != ABSENT)))
    return {"holds": max_excess <= 1e-12 and (checked > 0 or excess.size == 0),
            "max_excess": max(max_excess, 0.0), "checked": checked,
            "absent": excess.size - checked}


def minimal_envelope(a: CDMatrix) -> GridFunction:
    """Smallest symmetric sampled envelope: per-bin max of |A_ij|, then symmetrized."""
    model = a.model
    return _symmetrized(model, model.relative_max(np.abs(a.entries), a.rows.points,
                                                  a.cols.points))


def _symmetrized(model, values) -> GridFunction:
    """max(Phi, Phi^vee) of the per-bin maxima Phi (real, one per carrier point)."""
    env = GridFunction(model, values)
    return GridFunction(model, np.maximum(env.values.real, involution(env).values.real))


def schur_bounds(a: CDMatrix) -> dict:
    """Schur-test bounds from the envelope, next to the measured quantities.

    row_sum_bound = rel(Lambda)/mu(Q) * ||Phi||_{W^L(L^1)}, and symmetrically for
    columns; the l2 bound is the geometric mean.  The exact spectral norm is
    included for comparison.
    """
    if a.envelope is None:
        raise NoCertificateError("schur_bounds needs an envelope certificate")
    model = a.model
    wl1 = amalgam_norm(a.envelope, QuasiNormSpec(p=1.0, flavor="left"))
    q_mass = model.q_mass()
    row_bound = rel_separation(a.rows) / q_mass * wl1
    col_bound = rel_separation(a.cols) / q_mass * wl1
    mags = np.abs(a.entries)
    measured_row = float(mags.sum(axis=0).max()) if mags.size else 0.0  # max over j of column sums
    measured_col = float(mags.sum(axis=1).max()) if mags.size else 0.0
    op_norm = float(np.linalg.norm(a.entries, 2)) if mags.size else 0.0
    if not np.any(mags):
        row_bound = col_bound = 0.0
    return {
        "row_sum_bound": row_bound,
        "col_sum_bound": col_bound,
        "op_bound_l2": float(np.sqrt(row_bound * col_bound)),
        "measured_max_row_sum": measured_row,
        "measured_max_col_sum": measured_col,
        "measured_op_norm": op_norm,
    }


def product_with_envelope(a: CDMatrix, b: CDMatrix) -> CDMatrix:
    """Matrix product with the propagated envelope

    H = rel(Lambda)/mu(Q) * (M^L Theta * M^R Phi + M^L Phi * M^R Theta),

    where Phi, Theta are the factors' envelopes and Lambda the contracted sample.
    """
    if a.cols.model is not b.rows.model or len(a.cols) != len(b.rows) \
            or not np.array_equal(a.cols.points, b.rows.points):
        raise IncompatibleOperandsError("inner sample sets do not match")
    if a.envelope is None or b.envelope is None:
        raise NoCertificateError("both factors need envelope certificates")
    phi, theta = a.envelope, b.envelope
    h_vals = molecule_bound(rel_separation(a.cols), [(theta, phi), (phi, theta)])
    return CDMatrix(rows=a.rows, cols=b.cols, entries=a.entries @ b.entries,
                    envelope=GridFunction(a.model, h_vals))


# ---------------------------------------------------------------------------
# holomorphic functional calculus by power series


def _series_coefficients(phi: str):
    """The coefficients a_0, a_1, ... of phi(S) = sum a_n (I - S)^n, formed as they are read.

    inverse: a_n = 1; inverse_sqrt: a_0 = 1, a_n = a_{n-1} (n - 1/2)/n, generated by
    recurrence to avoid factorial overflow.  A sum of n terms forms only a_0 .. a_n.
    """
    if phi == "inverse":
        return itertools.repeat(1.0)
    if phi == "inverse_sqrt":
        return itertools.accumulate(itertools.count(1), lambda a, n: a * (n - 0.5) / n,
                                    initial=1.0)
    raise InvalidParameterError(f"unknown series function {phi!r}")


# the unrelaxed series sums around I only while ||I - S||_2 is at most this
_MAX_DEVIATION = 0.999999


def _series_apply(s: np.ndarray, phi: str, tail_tol: float, relax: Optional[tuple] = None):
    """Truncated power series sum a_n D^n; returns (result, n_terms, tail_bound).

    As |a_n| <= 1, the tail after term n is at most q^{n+1}/(1 - q) for ||D||_2 <= q.
    Unrelaxed, D = I - S with q = ||D||_2 <= ``_MAX_DEVIATION`` measured, summed until
    the last term's 2-norm plus that tail is <= tail_tol.  With ``relax = (w, q)``,
    where ||I - wS||_2 = q is known, D = I - wS, n is the smallest with
    q^n/(1 - q) <= tail_tol, fixed before summing, and result and tail are scaled by
    w^{1 or 1/2}.
    """
    max_terms, omega, n_fixed = 20_000, 1.0, None
    if relax is not None:
        omega, dev = relax
        n_fixed = 1 if dev == 0 else math.ceil(math.log(tail_tol * (1 - dev)) / math.log(dev))
        n_fixed = max(1, n_fixed + (dev ** n_fixed / (1 - dev) > tail_tol))  # log rounding
        if n_fixed > max_terms:
            raise NotContractiveError(
                f"the relaxed series at q = {dev:.6f} (B/A = {(1 + dev) / (1 - dev):.4g}) needs "
                f"{n_fixed} terms, more than the {max_terms}-term cap")
    s = np.asarray(s, dtype=complex)
    d = np.eye(s.shape[0]) - omega * s
    if relax is None:
        dev = float(np.linalg.norm(d, 2))
        if dev > _MAX_DEVIATION:
            raise NotContractiveError(
                f"||S - I||_2 = {dev:.4f} exceeds the contractivity budget "
                f"{_MAX_DEVIATION:.4f}; densify the sample set")
    coeffs = _series_coefficients(phi)
    next(coeffs)  # a_0 = 1, the identity the result starts from
    scale = omega if phi == "inverse" else math.sqrt(omega)
    result = np.eye(s.shape[0], dtype=complex)
    power = np.eye(s.shape[0], dtype=complex)
    for n in range(1, max_terms + 1):
        power = power @ d
        term = next(coeffs) * power
        result = result + term
        tail_bound = dev ** (n + 1) / (1.0 - dev)
        if n == n_fixed or (n_fixed is None
                            and float(np.linalg.norm(term, 2)) + tail_bound <= tail_tol):
            return scale * result, n, scale * tail_bound
    raise NotContractiveError(f"series did not reach the tail tolerance in {max_terms} terms")


def matrix_holomorphic(a: CDMatrix, phi: str, tail_tol: float = 1e-10) -> CDMatrix:
    """phi(A) by power series with an envelope propagated through the terms.

    Envelope: |a_0| E_I + sum_{n<=n0} |a_n| Theta^{(n)} + tail bump, where E_I and
    Theta are the minimal envelopes of I and A - I, Theta^{(n)} the n-fold product
    envelope, and the bump is the geometric operator-norm tail folded into a
    constant.
    Theta^{(n+1)} is the envelope ``product_with_envelope`` gives the product of
    Theta^{(n)} and Theta, formed without the product's entries.  A long series
    can overflow the envelope: the first term whose sum is not finite raises
    ArithmeticError.
    """
    if not np.array_equal(a.rows.points, a.cols.points):
        raise IncompatibleOperandsError("holomorphic calculus needs a square sample")
    m = len(a.rows)
    result, n_terms, op_tail = _series_apply(a.entries, phi, tail_tol)

    diff = CDMatrix(rows=a.rows, cols=a.cols, entries=a.entries - np.eye(m))
    theta = minimal_envelope(diff)
    rel = rel_separation(a.cols)
    # E_I bins each lambda^{-1} lambda: the identity, or nothing where lambda^{-1} is absent
    eye_env = minimal_envelope(CDMatrix(rows=a.rows, cols=a.rows, entries=np.eye(m)))
    coeffs = list(itertools.islice(_series_coefficients(phi), n_terms + 1))
    env_vals = np.abs(coeffs[0]) * eye_env.values.real
    power = theta.values.real
    for n in range(1, n_terms + 1):
        with np.errstate(over="ignore"):  # the first non-finite term is named below
            if n > 1:
                prev = GridFunction(a.model, power)
                try:
                    power = molecule_bound(rel, [(theta, prev), (prev, theta)])
                except InvalidParameterError:  # one of its convolutions overflowed
                    power = np.full(a.model.size, np.inf)
            env_vals = env_vals + abs(coeffs[n]) * power
        if not np.all(np.isfinite(env_vals)):
            raise ArithmeticError(f"the propagated envelope of the {phi} series overflows "
                                  f"at term {n} of {n_terms}")
    env_vals = env_vals + op_tail  # constant bump dominating the truncated tail
    out = CDMatrix(rows=a.rows, cols=a.cols, entries=result,
                   envelope=GridFunction(a.model, env_vals))
    check = verify_envelope(out, out.envelope)
    if check["max_excess"] > tail_tol:
        raise ArithmeticError(
            f"propagated envelope fails by {check['max_excess']:.2e} > tail_tol"
        )
    return out
