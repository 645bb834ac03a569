"""Convolution-dominated matrices: envelope certificates, Schur bounds, calculus.

A matrix indexed by two sample sets is localized when its entries are dominated
by a symmetric envelope evaluated at the relative positions of its index points.
The envelope travels through sums, products and the inverse power series, which
is what makes the class an algebra at desk scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .amalgam import GridFunction, QuasiNormSpec, amalgam_norm, convolve, involution, \
    maximal_left, maximal_right
from .errors import (
    CoverageWarning,
    IncompatibleOperandsError,
    NoCertificateError,
    NotContractiveError,
)
from .frames import _series_apply
from .groups import PWeight, padded, unit_weight
from .sampling import SampleSet, rel_separation


@dataclass
class CDMatrix:
    """Complex matrix indexed by rows Lambda and cols Gamma with optional envelope."""

    rows: SampleSet
    cols: SampleSet
    entries: np.ndarray
    envelope: Optional[GridFunction] = None
    context: dict = field(default_factory=dict)  # {"p": ..., "weight": PWeight}

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

    def to_json_obj(self) -> dict:
        obj = {
            "rows": self.rows.points.tolist(),
            "cols": self.cols.points.tolist(),
            "entries_re": self.entries.real.tolist(),
            "entries_im": self.entries.imag.tolist(),
        }
        if self.envelope is not None:
            obj["envelope"] = self.envelope.values.real.tolist()
        if self.context:
            obj["context"] = {
                "p": self.context.get("p"),
                "weight_id": f"pweight(p={self.context['weight'].p})"
                if "weight" in self.context else None,
            }
        return obj


def _relative_positions(a: CDMatrix):
    """Indices of gamma_j^{-1} lambda_i, shape (m_rows, m_cols); -1 when absent."""
    model = a.model
    return model.div_indices(a.cols.points[None, :], a.rows.points[:, None])


def verify_envelope(a: CDMatrix, phi: GridFunction) -> dict:
    """Exhaustive check of |A_ij| <= min over defined positions of the envelope."""
    model = a.model
    z1 = _relative_positions(a)                       # gamma_j^{-1} lambda_i
    z2 = model.div_indices(a.rows.points[:, None], a.cols.points[None, :])
    vals = padded(phi.values.real, np.inf)  # an absent position bounds nothing
    bound = np.minimum(vals[z1], vals[z2])
    excess = np.abs(a.entries) - bound
    max_excess = float(excess.max()) if excess.size else 0.0
    return {"holds": max_excess <= 1e-12, "max_excess": max(max_excess, 0.0)}


def minimal_envelope(a: CDMatrix) -> GridFunction:
    """Smallest symmetric sampled envelope: per-bin max of |A_ij|, then symmetrized."""
    model = a.model
    phi = np.zeros(model.size + 1)  # pad slot absorbs absent relative positions
    z1 = _relative_positions(a)
    mags = np.abs(a.entries)
    if not np.all((z1 >= 0) | (mags == 0)):
        warnings.warn(
            "some nonzero entries have no carrier representative for their relative "
            "position; the minimal envelope does not certify them",
            CoverageWarning,
        )
    np.maximum.at(phi, z1, mags)
    phi = phi[:-1]
    env = GridFunction(model, phi)
    sym = np.maximum(phi, involution(env).values.real)
    return GridFunction(model, sym)


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
    factor = rel_separation(a.cols) / a.model.q_mass()
    h_vals = factor * (
        convolve(maximal_left(theta), maximal_right(phi)).values.real
        + convolve(maximal_left(phi), maximal_right(theta)).values.real
    )
    out = CDMatrix(rows=a.rows, cols=b.cols, entries=a.entries @ b.entries,
                   envelope=GridFunction(a.model, h_vals),
                   context=dict(a.context) or dict(b.context))
    return out


def add_with_envelope(a: CDMatrix, b: CDMatrix, p: float) -> CDMatrix:
    """Sum with the p-triangle envelope (Phi_A^p + Phi_B^p)^{1/p}."""
    if a.rows is not b.rows and not np.array_equal(a.rows.points, b.rows.points):
        raise IncompatibleOperandsError("row samples do not match")
    if not np.array_equal(a.cols.points, b.cols.points):
        raise IncompatibleOperandsError("column samples do not match")
    if a.envelope is None or b.envelope is None:
        raise NoCertificateError("both summands need envelope certificates")
    vals = (a.envelope.values.real ** p + b.envelope.values.real ** p) ** (1.0 / p)
    return CDMatrix(rows=a.rows, cols=b.cols, entries=a.entries + b.entries,
                    envelope=GridFunction(a.model, vals), context=dict(a.context))


def identity_cd(sample: SampleSet, p: float = 1.0,
                weight: Optional[PWeight] = None) -> CDMatrix:
    """Identity matrix on a sample set with its minimal envelope."""
    m = len(sample)
    out = CDMatrix(rows=sample, cols=sample, entries=np.eye(m, dtype=complex),
                   context={"p": p, "weight": weight or unit_weight(sample.model, p)})
    out.envelope = minimal_envelope(out)
    return out


def matrix_holomorphic(a: CDMatrix, phi: str, tail_tol: float = 1e-10) -> CDMatrix:
    """phi(A) by power series with an envelope propagated through the terms.

    Envelope: |a_0| E_I + sum_{n<=n0} |a_n| Theta^{(n)} + tail bump, where Theta
    is the minimal envelope of A - I, Theta^{(n)} the n-fold product envelope,
    and the bump is the geometric operator-norm tail folded into a constant.
    """
    if not np.array_equal(a.rows.points, a.cols.points):
        raise IncompatibleOperandsError("holomorphic calculus needs a square sample")
    m = len(a.rows)
    dev = float(np.linalg.norm(a.entries - np.eye(m), 2))
    if dev >= 1.0:
        raise NotContractiveError(f"||A - I||_2 = {dev:.4f} >= 1")

    result, n_terms, op_tail = _series_apply(a.entries, phi, 0.999999, tail_tol)

    diff = CDMatrix(rows=a.rows, cols=a.cols, entries=a.entries - np.eye(m),
                    context=dict(a.context))
    diff.envelope = minimal_envelope(diff)
    eye_env = identity_cd(a.rows).envelope
    from .frames import _series_coefficients

    coeffs = _series_coefficients(phi, n_terms + 1)
    env_vals = np.abs(coeffs[0]) * eye_env.values.real
    power = diff
    for n in range(1, n_terms + 1):
        env_vals = env_vals + abs(coeffs[n]) * power.envelope.values.real
        if n < n_terms:
            power = product_with_envelope(power, diff)
    env_vals = env_vals + op_tail  # constant bump dominating the truncated tail
    out = CDMatrix(rows=a.rows, cols=a.cols, entries=result,
                   envelope=GridFunction(a.model, env_vals), context=dict(a.context))
    check = verify_envelope(out, out.envelope)
    if check["max_excess"] > tail_tol:
        raise ArithmeticError(
            f"propagated envelope fails by {check['max_excess']:.2e} > tail_tol"
        )
    return out
