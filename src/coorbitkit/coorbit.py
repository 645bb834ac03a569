"""Discrete sequence spaces, coorbit quasi-norms and the measured operator norms.

At desk scale the reservoir pairing coincides with the Hilbert inner product, so
every operator acts on the representation space directly; the quasi-norms are the
ones that distinguish coorbit levels.  Implicit constants are never invented:
each report carries a constant calibrated by the documented sampling battery in
``calibrate_constants`` and the measured quantity it certifies.

Both quasi-norms take a stack: ``coorbit_norm`` a (k, dim) array of vectors and
``sequence_norm`` a (k, |Lambda|) array of sequences give k norms, reduced row
by row, so every sup over sampled vectors takes one call per norm.

A family of atoms h_i (the rows of ``atoms``) acts by the coefficient map
C f = (<f, h_i>)_i and the reconstruction map D c = sum_i c_i h_i.  On a stack each
is one matrix product, ``f_samples @ atoms.conj().T`` and ``c_samples @ atoms``, whose
rows round as that product does, not as lone vectors.  Each check forms a family's
coefficient stack once, and the molecule envelope of the family bounds both maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .amalgam import QuasiNormSpec, amalgam_norm, magnitude_norm
from .errors import (
    IncompatibleOperandsError,
    InvalidParameterError,
    NotAFrameError,
    NotContractiveError,
    NotDenseError,
)
from .frames import (
    KernelSystem,
    Representation,
    build_almost_tight_frame,
    dual_frame,
    fit_envelope,
    orbit_envelope,
)
from .groups import PWeight, unit_weight
from .sampling import SampleSet, rel_separation


@dataclass(frozen=True)
class SequenceSpaceSpec:
    """Base quasi-norm Y together with the sample set Lambda defining Y_d(Lambda)."""

    base: QuasiNormSpec
    sample: SampleSet


def sequence_norm(c, sspec: SequenceSpaceSpec):
    """||c||_{Y_d} = || sum_i |c_i| 1_{lambda_i Q} ||_Y.

    ``c`` of shape (|Lambda|,) gives a float; a (k, |Lambda|) stack gives k norms.
    """
    c = np.asarray(c)
    sample = sspec.sample
    if c.shape[-1:] != (len(sample),):
        raise IncompatibleOperandsError(
            f"coefficient vector must have length {len(sample)}, got {c.shape}"
        )
    model = sample.model
    return magnitude_norm(model, model.q_spread(np.abs(c), sample.points), sspec.base)


def _stack(vectors, dim: int) -> np.ndarray:
    """The vectors as the rows of a (k, dim) complex array; no vectors give k = 0."""
    try:
        out = np.asarray(vectors, dtype=complex)
    except ValueError as exc:  # rows of unequal length
        raise IncompatibleOperandsError(f"every vector must have length {dim}") from exc
    if not out.size:
        return out.reshape(0, dim)
    if out.ndim != 2 or out.shape[1] != dim:
        raise IncompatibleOperandsError(f"every vector must have length {dim}, got {out.shape}")
    return out


def _ratios(num, den) -> np.ndarray:
    """num / den over the entries with den > 0; raises if there is none."""
    keep = den > 0
    if not np.any(keep):
        raise InvalidParameterError("no sample has a positive denominator")
    return num[keep] / den[keep]


@dataclass
class CoorbitContext:
    """Admissible window (its kernel system) plus the target quasi-norm Y and its (p, w)."""

    kernel_system: KernelSystem
    y_spec: QuasiNormSpec
    weight: PWeight
    p: float

    @classmethod
    def build(cls, rep: Representation, window: np.ndarray, y_spec: QuasiNormSpec,
              weight: Optional[PWeight] = None, p: float = 1.0) -> "CoorbitContext":
        ks = KernelSystem.build(rep, window)
        w = weight or unit_weight(rep.model, p)
        # the window class condition: V_g g finite in the two-sided amalgam of L^p_w
        two_sided = QuasiNormSpec(p=p, weight=w, flavor="two_sided")
        if not np.isfinite(amalgam_norm(ks.voice(ks.window), two_sided)):
            raise InvalidParameterError("window fails the two-sided amalgam condition")
        return cls(kernel_system=ks, y_spec=y_spec, weight=w, p=p)


def coorbit_norm(ctx: CoorbitContext, f: np.ndarray):
    """||f||_{Co(Y)} = ||V_g f||_{W^L(Y)}; a (k, dim) stack of vectors gives k norms."""
    ks = ctx.kernel_system
    return magnitude_norm(ks.rep.model, np.abs(ks.voices(f)),
                          QuasiNormSpec(p=ctx.y_spec.p, weight=ctx.y_spec.weight, flavor="left"))


def window_independence_ratio(ctx: CoorbitContext, other_window: np.ndarray,
                              f_samples: Sequence[np.ndarray]) -> dict:
    """Extreme ratios of the two coorbit quasi-norms over a sample of vectors."""
    alt = CoorbitContext.build(ctx.kernel_system.rep, other_window, ctx.y_spec, ctx.weight, ctx.p)
    f_samples = _stack(f_samples, ctx.kernel_system.rep.dim)
    ratios = _ratios(coorbit_norm(ctx, f_samples), coorbit_norm(alt, f_samples))
    return {"min_ratio": float(ratios.min()), "max_ratio": float(ratios.max()),
            "spread": float(ratios.max() / ratios.min())}


# ---------------------------------------------------------------------------
# measured norms of the coefficient and reconstruction maps


def _coefficient_norm(ctx: CoorbitContext, coefficients: np.ndarray, sample: SampleSet,
                      f_norms: np.ndarray) -> float:
    """sup over sampled f of ||C f||_{Y_d} / ||f||_{Co(Y)}, C f = (<f, h_i>)_i.

    Row r of ``coefficients`` is C f_r, ``f_samples @ atoms.conj().T``, and
    ``f_norms[r]`` is ||f_r||_{Co(Y)}: a caller forms each stack once and may
    hand it on as reconstruction input.
    """
    sspec = SequenceSpaceSpec(base=ctx.y_spec, sample=sample)
    return float(_ratios(sequence_norm(coefficients, sspec), f_norms).max())


def measured_reconstruction_norm(ctx: CoorbitContext, atoms, sample: SampleSet,
                                 c_samples: Sequence[np.ndarray]) -> float:
    """sup over samples of ||D c||_{Co(Y)} / ||c||_{Y_d}."""
    sspec = SequenceSpaceSpec(base=ctx.y_spec, sample=sample)
    c_samples = _stack(c_samples, len(sample))
    images = c_samples @ np.asarray(atoms)
    return float(_ratios(coorbit_norm(ctx, images), sequence_norm(c_samples, sspec)).max())


# ---------------------------------------------------------------------------
# calibration of implicit constants


@dataclass
class Calibration:
    """Worst measured ratio over the documented battery, per operator direction.

    coefficient_c bounds ||C|| / (rel(Lambda) ||M Phi||_{L^p_w});
    reconstruction_c bounds ||D|| / ||M Phi||_{L^p_w}.
    """

    coefficient_c: float
    reconstruction_c: float
    battery: list


def _random_vectors(rng, dim: int, count: int) -> np.ndarray:
    """The dim basis vectors, then ``count`` seeded complex Gaussian vectors, as rows."""
    return np.concatenate([np.eye(dim, dtype=complex), _random_sequences(rng, count, dim)])


def _random_sequences(rng, count: int, length: int) -> np.ndarray:
    """``count`` complex Gaussian rows, each drawing its real part and then its imaginary part."""
    z = rng.normal(size=(count, 2, length))
    return z[:, 0] + 1j * z[:, 1]


def _calibration_samples(model, seed: int) -> list:
    """Sample sets of varying covering multiplicity for the calibration battery."""
    rng = np.random.default_rng(seed)
    out = [SampleSet(model=model, points=np.arange(model.size))]
    for stride in (2, 3, 4):
        pts = np.arange(0, model.size, stride)
        if len(pts) >= 2:
            out.append(SampleSet(model=model, points=pts))
    half = max(2, model.size // 2)
    out.append(SampleSet(model=model,
                         points=np.sort(rng.choice(model.size, half, replace=False))))
    return out


def calibrate_constants(ctx: CoorbitContext, sample: Optional[SampleSet] = None,
                        seed: int = 2024) -> Calibration:
    """Calibrate the implicit constants once per (p, w, Q, model).

    Documented battery: sample sets of varying covering multiplicity (full
    carrier, strided subsets, a seeded random half) crossed with atom families
    (the plain atoms pi(lambda_i) g, a twisted shift of them, the canonical dual
    family where the frame exists, and images under seeded convolution-type
    operators).  Each family's coefficient/reconstruction norm is measured over
    basis + 12 seeded random vectors and divided by the certificate factors; the
    calibration keeps the worst ratio, forming each coefficient stack once (the
    dual's and the atoms' are reconstruction input too).  The atoms and their shift are
    the orbit families of g and pi(s) g, so their envelopes are one column each
    (``orbit_envelope``); the duals keep the certificate of ``dual_frame``, and
    the convolution images are fitted.
    """
    n_random = 12
    rng = np.random.default_rng(seed)
    ks = ctx.kernel_system
    rep, model = ks.rep, ks.rep.model
    sample_sets = _calibration_samples(model, seed)
    if sample is not None:
        sample_sets.append(sample)
    atom_sets = [ks.atoms(lam) for lam in sample_sets]  # a sample of another model raises

    f_samples = _random_vectors(rng, rep.dim, n_random)
    f_norms = coorbit_norm(ctx, f_samples)  # the denominator of every coefficient ratio
    coeff_best, recon_best, rows = 0.0, 0.0, []
    for lam, atoms0 in zip(sample_sets, atom_sets):
        families = {"atoms": atoms0}
        shift = int(rng.integers(0, model.size))
        # pi(s) pi(lambda_i) g is a unimodular multiple of pi(lambda_i) pi(s) g
        families["shifted"] = rep.apply(shift, atoms0)
        certs = {name: orbit_envelope(ks, window, 1.0, ctx.p, ctx.weight)
                 for name, window in (("atoms", ks.window),
                                      ("shifted", rep.apply(shift, ks.window)))}
        try:
            fs = build_almost_tight_frame(ks, lam, model.q_indices)
            if fs.bounds[0] > 1e-9:
                families["dual"] = dual_frame(fs, p=ctx.p, weight=ctx.weight)
                certs["dual"] = fs.certificates["dual"]
        except (NotAFrameError, NotDenseError, NotContractiveError):
            pass
        for t in range(2):
            coeff = rng.normal(size=model.size) * np.exp(
                -3.0 * np.arange(model.size) / model.size) * model.haar
            # images T h of the atoms under T = sum_x coeff(x) pi(x): row j of t_rows is
            # T e_j, so atoms0 @ t_rows has row i equal to T atoms0[i]
            t_rows = np.array([coeff @ rep.orbit(e) for e in np.eye(rep.dim)])
            families[f"conv{t}"] = atoms0 @ t_rows
            certs[f"conv{t}"] = fit_envelope(ks, families[f"conv{t}"], lam, ctx.p, ctx.weight)

        coefficients = {name: f_samples @ atoms.conj().T for name, atoms in families.items()}
        # random and delta sequences (often extremal), then the dual's and atoms' coefficients
        c_samples = np.concatenate(
            [_random_sequences(rng, n_random, len(lam)), np.eye(len(lam))]
            + [coefficients[name] for name in ("dual", "atoms") if name in coefficients])
        rel = rel_separation(lam)
        if len(lam) == 0:  # every family is empty: its fitted envelope is zero
            continue
        for name, atoms in families.items():
            cert = certs[name]
            if cert.amalgam_value == 0:
                continue
            mc = _coefficient_norm(ctx, coefficients[name], lam, f_norms)
            mr = measured_reconstruction_norm(ctx, atoms, lam, c_samples)
            coeff_ratio = mc / (rel * cert.amalgam_value)
            recon_ratio = mr / cert.amalgam_value
            coeff_best = max(coeff_best, coeff_ratio)
            recon_best = max(recon_best, recon_ratio)
            rows.append({"family": name, "size": len(lam), "rel": rel,
                         "coefficient_ratio": coeff_ratio,
                         "reconstruction_ratio": recon_ratio})
    return Calibration(coefficient_c=coeff_best, reconstruction_c=recon_best,
                       battery=rows)


# ---------------------------------------------------------------------------
# embeddings and operator extension


def embedding_check(ctx_y: CoorbitContext, ctx_z: CoorbitContext, sample: SampleSet,
                    atoms, dual_atoms, seed: int = 31) -> dict:
    """Check the factorization of Co(Y) -> Co(Z) through the sequence spaces.

    For each sampled f the chain f = D_g (iota C_h f) gives
    ||f||_{Co(Z)} <= ||D|| ||iota|| ||C||; the three factors are measured over
    sample sets that contain every intermediate element, which makes the
    factorized bound a per-sample guarantee rather than a statistical one.
    """
    n_samples = 20
    rng = np.random.default_rng(seed)
    f_samples = _random_vectors(rng, ctx_y.kernel_system.rep.dim, n_samples)
    y_seq = SequenceSpaceSpec(base=ctx_y.y_spec, sample=sample)
    z_seq = SequenceSpaceSpec(base=ctx_z.y_spec, sample=sample)

    coefficients = f_samples @ np.asarray(dual_atoms).conj().T
    seqs = np.concatenate([coefficients, _random_sequences(rng, n_samples, len(sample))])

    y_norms = coorbit_norm(ctx_y, f_samples)
    emb = float(_ratios(coorbit_norm(ctx_z, f_samples), y_norms).max())
    c_norm = _coefficient_norm(ctx_y, coefficients, sample, y_norms)
    iota = float(_ratios(sequence_norm(seqs, z_seq), sequence_norm(seqs, y_seq)).max())
    d_norm = measured_reconstruction_norm(ctx_z, atoms, sample, seqs)

    bound = d_norm * iota * c_norm
    return {
        "measured": emb,
        "certificate_bound": bound,
        "sequence_embedding_constant": iota,
        "coefficient_norm": c_norm,
        "reconstruction_norm": d_norm,
        "pass": bool(emb <= bound * (1 + 1e-6)),
    }


def extend_operator_check(ctx: CoorbitContext, t_matrix: np.ndarray, sample: SampleSet,
                          dual_atoms, cal: Calibration, seed: int = 47) -> dict:
    """Measured ||T||_{Co(Y)} against the calibrated molecule-envelope bound.

    The images m_i = T pi(lambda_i) g get a fitted envelope Phi_T; the bound is
    reconstruction_c * ||M Phi_T||_{L^p_w} * measured ||C_h||, following the
    atoms-to-molecules factorization T = D_m C_h.  The reconstruction norm of
    the image family over the coefficient sequences induced by the sampled
    vectors is reported alongside; when it stays below the calibrated factor
    the per-sample chain makes the bound a guarantee, not a statistic.
    """
    ks = ctx.kernel_system
    rng = np.random.default_rng(seed)
    t_matrix = np.asarray(t_matrix, dtype=complex)
    images = ks.atoms(sample) @ t_matrix.T
    cert = fit_envelope(ks, images, sample, ctx.p, ctx.weight)

    f_samples = _random_vectors(rng, ks.rep.dim, 20)
    f_norms = coorbit_norm(ctx, f_samples)
    measured = float(_ratios(coorbit_norm(ctx, f_samples @ t_matrix.T), f_norms).max())
    coefficients = f_samples @ np.asarray(dual_atoms).conj().T
    c_norm = _coefficient_norm(ctx, coefficients, sample, f_norms)
    d_images = measured_reconstruction_norm(ctx, images, sample, coefficients)
    bound = cal.reconstruction_c * cert.amalgam_value * c_norm
    return {
        "measured": measured,
        "certificate_bound": bound,
        "envelope_amalgam": cert.amalgam_value,
        "image_reconstruction_norm": d_images,
        "calibrated_factor": cal.reconstruction_c * cert.amalgam_value,
        "pass": bool(measured <= bound * (1 + 1e-9)),
    }


def wiener_vs_plain_ratio(ctx: CoorbitContext, f_samples: Sequence[np.ndarray]) -> dict:
    """Extreme ratios ||V_g f||_{W^L(Y)} / ||V_g f||_Y over the samples."""
    plain = QuasiNormSpec(p=ctx.y_spec.p, weight=ctx.y_spec.weight, flavor="plain")
    wiener = QuasiNormSpec(p=ctx.y_spec.p, weight=ctx.y_spec.weight, flavor="left")
    ks = ctx.kernel_system
    mags = np.abs(ks.voices(_stack(f_samples, ks.rep.dim)))
    ratios = _ratios(magnitude_norm(ks.rep.model, mags, wiener),
                     magnitude_norm(ks.rep.model, mags, plain))
    return {"min": float(ratios.min()), "max": float(ratios.max())}
