"""Discrete sequence spaces, coorbit quasi-norms and molecule-certified operators.

At desk scale the reservoir pairing coincides with the Hilbert inner product, so
every operator acts on the representation space directly; the quasi-norms are the
ones that distinguish coorbit levels.  Implicit constants are never invented:
each report carries a constant calibrated by the documented sampling battery in
``calibrate_constants`` and the measured quantity it certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .amalgam import GridFunction, QuasiNormSpec, amalgam_norm
from .errors import IncompatibleOperandsError, InvalidParameterError, NoCertificateError
from .frames import (
    MoleculeCertificate,
    Representation,
    check_admissible,
    fit_envelope,
    voice_transform,
)
from .groups import PWeight, unit_weight
from .sampling import SampleSet, rel_separation


@dataclass(frozen=True)
class SequenceSpaceSpec:
    """Base quasi-norm Y together with the sample set Lambda defining Y_d(Lambda)."""

    base: QuasiNormSpec
    sample: SampleSet


def sequence_norm(c, sspec: SequenceSpaceSpec, q_indices=None) -> float:
    """||c||_{Y_d} = || sum_i |c_i| 1_{lambda_i Q} ||_Y (optionally with another Q)."""
    c = np.asarray(c)
    sample = sspec.sample
    if c.shape != (len(sample),):
        raise IncompatibleOperandsError(
            f"coefficient vector must have length {len(sample)}, got {c.shape}"
        )
    model = sample.model
    q = model.q_indices if q_indices is None else np.asarray(q_indices, dtype=int)
    acc = np.zeros(model.size + 1)  # pad slot absorbs absent products
    mags = np.abs(c)
    for t in model.translates(sample.points, q):
        np.add.at(acc, t, mags)
    return amalgam_norm(GridFunction(model, acc[:-1]), sspec.base)


@dataclass
class CoorbitContext:
    """Admissible window plus the target quasi-norm Y and its control data (p, w)."""

    rep: Representation
    window: np.ndarray
    y_spec: QuasiNormSpec
    weight: PWeight
    p: float
    window_amalgam: float = float("nan")

    @classmethod
    def build(cls, rep: Representation, window: np.ndarray, y_spec: QuasiNormSpec,
              weight: Optional[PWeight] = None, p: float = 1.0) -> "CoorbitContext":
        info = check_admissible(rep, window)
        if not info["is_admissible"]:
            raise InvalidParameterError("coorbit context needs an admissible window")
        w = weight or unit_weight(rep.model, p)
        ctx = cls(rep=rep, window=np.asarray(window, dtype=complex), y_spec=y_spec,
                  weight=w, p=p)
        # the window class condition: V_g g finite in the two-sided amalgam of L^p_w
        vgg = voice_transform(rep, ctx.window, ctx.window)
        ctx.window_amalgam = amalgam_norm(vgg, QuasiNormSpec(p=p, weight=w, flavor="two_sided"))
        if not np.isfinite(ctx.window_amalgam):
            raise InvalidParameterError("window fails the two-sided amalgam condition")
        return ctx


def coorbit_norm(ctx: CoorbitContext, f: np.ndarray) -> float:
    """||f||_{Co(Y)} = ||V_g f||_{W^L(Y)}."""
    vf = voice_transform(ctx.rep, ctx.window, f)
    return amalgam_norm(vf, QuasiNormSpec(p=ctx.y_spec.p, weight=ctx.y_spec.weight,
                                          flavor="left"))


def window_independence_ratio(ctx: CoorbitContext, other_window: np.ndarray,
                              f_samples: Sequence[np.ndarray]) -> dict:
    """Extreme ratios of the two coorbit quasi-norms over a sample of vectors."""
    alt = CoorbitContext.build(ctx.rep, other_window, ctx.y_spec, ctx.weight, ctx.p)
    ratios = []
    for f in f_samples:
        a = coorbit_norm(ctx, f)
        b = coorbit_norm(alt, f)
        if b > 0:
            ratios.append(a / b)
    return {"min_ratio": float(min(ratios)), "max_ratio": float(max(ratios)),
            "spread": float(max(ratios) / min(ratios))}


# ---------------------------------------------------------------------------
# molecule-certified operators


def _require_certificate(cert: Optional[MoleculeCertificate], atoms, sample):
    if cert is None:
        raise NoCertificateError("operation requires a molecule certificate")
    atoms = np.asarray(atoms)
    if atoms.ndim != 2 or atoms.shape[0] != len(sample):
        raise NoCertificateError("certificate does not match the atom family")
    if not np.isfinite(cert.amalgam_value) or cert.max_violation > 1e-8:
        raise NoCertificateError("certificate is invalid")


def coefficient_operator(ctx: CoorbitContext, atoms, cert: MoleculeCertificate,
                         sample: SampleSet, f: np.ndarray) -> np.ndarray:
    """C f = (<f, h_i>)_i for a certified molecule family."""
    _require_certificate(cert, atoms, sample)
    return np.asarray(atoms).conj() @ np.asarray(f, dtype=complex)


def reconstruction_operator(ctx: CoorbitContext, atoms, cert: MoleculeCertificate,
                            sample: SampleSet, c) -> np.ndarray:
    """D c = sum_i c_i h_i for a certified molecule family."""
    _require_certificate(cert, atoms, sample)
    return np.asarray(c, dtype=complex) @ np.asarray(atoms)


def measured_coefficient_norm(ctx: CoorbitContext, atoms, sample: SampleSet,
                              f_samples: Sequence[np.ndarray]) -> float:
    """sup over samples of ||C f||_{Y_d} / ||f||_{Co(Y)}."""
    sspec = SequenceSpaceSpec(base=ctx.y_spec, sample=sample)
    best = 0.0
    for f in f_samples:
        den = coorbit_norm(ctx, f)
        if den == 0:
            continue
        c = np.asarray(atoms).conj() @ f
        best = max(best, sequence_norm(c, sspec) / den)
    return best


def measured_reconstruction_norm(ctx: CoorbitContext, atoms, sample: SampleSet,
                                 c_samples: Sequence[np.ndarray]) -> float:
    """sup over samples of ||D c||_{Co(Y)} / ||c||_{Y_d}."""
    sspec = SequenceSpaceSpec(base=ctx.y_spec, sample=sample)
    best = 0.0
    for c in c_samples:
        den = sequence_norm(c, sspec)
        if den == 0:
            continue
        f = np.asarray(c, dtype=complex) @ np.asarray(atoms)
        best = max(best, coorbit_norm(ctx, f) / den)
    return best


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


def _random_vectors(rng, dim: int, count: int) -> list:
    out = [np.eye(dim)[j] + 0j for j in range(dim)]
    for _ in range(count):
        out.append(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return out


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
                        seed: int = 2024, n_random: int = 12) -> Calibration:
    """Calibrate the implicit constants once per (p, w, Q, model).

    Documented battery: sample sets of varying covering multiplicity (full
    carrier, strided subsets, a seeded random half) crossed with atom families
    (the plain atoms pi(lambda_i) g, a twisted shift of them, the canonical dual
    family where the frame exists, and images under seeded convolution-type
    operators).  Each family's coefficient/reconstruction norm is measured over
    basis + seeded random vectors and divided by the certificate factors; the
    calibration keeps the worst ratio.
    """
    rng = np.random.default_rng(seed)
    rep, g = ctx.rep, ctx.window
    model = rep.model
    orbit = rep.orbit(g)
    from .errors import NotAFrameError, NotDenseError
    from .frames import KernelSystem, build_almost_tight_frame, dual_frame

    ks = KernelSystem.build(rep, g)
    sample_sets = _calibration_samples(model, seed)
    if sample is not None:
        sample_sets.append(sample)

    f_samples = _random_vectors(rng, rep.dim, n_random)
    coeff_best, recon_best, rows = 0.0, 0.0, []
    for lam in sample_sets:
        atoms0 = orbit[lam.points]
        families = {"atoms": atoms0}
        shift = int(rng.integers(0, model.size))
        families["shifted"] = np.array([rep.apply(shift, a) for a in atoms0])
        try:
            fs = build_almost_tight_frame(ks, lam, model.q_indices)
            if fs.bounds[0] > 1e-9:
                families["dual"] = dual_frame(fs, p=ctx.p, weight=ctx.weight)
        except (NotAFrameError, NotDenseError):
            pass
        for t in range(2):
            coeff = rng.normal(size=model.size) * np.exp(
                -3.0 * np.arange(model.size) / model.size)
            conv_op = np.einsum("n,nij->ij", coeff * model.haar, rep.matrices)
            families[f"conv{t}"] = atoms0 @ conv_op.T

        c_samples = [rng.normal(size=len(lam)) + 1j * rng.normal(size=len(lam))
                     for _ in range(n_random)]
        c_samples.extend(np.eye(len(lam)))  # delta sequences are often extremal
        if "dual" in families:
            c_samples.extend(np.asarray(families["dual"]).conj() @ f for f in f_samples)
        c_samples.extend(orbit[lam.points].conj() @ f for f in f_samples)
        rel = rel_separation(lam)
        for name, atoms in families.items():
            cert = fit_envelope(rep, g, atoms, lam, ctx.p, ctx.weight)
            if cert.amalgam_value == 0:
                continue
            mc = measured_coefficient_norm(ctx, atoms, lam, f_samples)
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


def coefficient_bound_report(ctx: CoorbitContext, atoms, cert: MoleculeCertificate,
                             sample: SampleSet, f_samples, cal: Calibration) -> dict:
    """Measured ||C|| against the calibrated certificate bound C rel(Lambda) ||M Phi||."""
    measured = measured_coefficient_norm(ctx, atoms, sample, f_samples)
    bound = cal.coefficient_c * rel_separation(sample) * cert.amalgam_value
    return {
        "context": {"p": ctx.p, "y_p": ctx.y_spec.p},
        "measured": measured,
        "certificate_bound": bound,
        "pass": bool(measured <= bound * (1 + 1e-9)),
    }


# ---------------------------------------------------------------------------
# embeddings and operator extension


def embedding_check(ctx_y: CoorbitContext, ctx_z: CoorbitContext, sample: SampleSet,
                    atoms, dual_atoms, n_samples: int = 20, seed: int = 31) -> dict:
    """Check the factorization of Co(Y) -> Co(Z) through the sequence spaces.

    For each sampled f the chain f = D_g (iota C_h f) gives
    ||f||_{Co(Z)} <= ||D|| ||iota|| ||C||; the three factors are measured over
    sample sets that contain every intermediate element, which makes the
    factorized bound a per-sample guarantee rather than a statistical one.
    """
    rep = ctx_y.rep
    rng = np.random.default_rng(seed)
    f_samples = _random_vectors(rng, rep.dim, n_samples)
    atoms = np.asarray(atoms)
    dual_atoms = np.asarray(dual_atoms)
    y_seq = SequenceSpaceSpec(base=ctx_y.y_spec, sample=sample)
    z_seq = SequenceSpaceSpec(base=ctx_z.y_spec, sample=sample)

    coefficient_seqs = [dual_atoms.conj() @ f for f in f_samples]
    extra_seqs = [rng.normal(size=len(sample)) + 1j * rng.normal(size=len(sample))
                  for _ in range(n_samples)]

    emb = 0.0
    for f in f_samples:
        ny = coorbit_norm(ctx_y, f)
        nz = coorbit_norm(ctx_z, f)
        if ny > 0:
            emb = max(emb, nz / ny)

    c_norm = measured_coefficient_norm(ctx_y, dual_atoms, sample, f_samples)
    iota = 0.0
    for c in coefficient_seqs + extra_seqs:
        dy = sequence_norm(c, y_seq)
        dz = sequence_norm(c, z_seq)
        if dy > 0:
            iota = max(iota, dz / dy)
    d_norm = measured_reconstruction_norm(ctx_z, atoms, sample, coefficient_seqs + extra_seqs)

    bound = d_norm * iota * c_norm
    return {
        "context": {"y_p": ctx_y.y_spec.p, "z_p": ctx_z.y_spec.p},
        "measured": emb,
        "certificate_bound": bound,
        "sequence_embedding_constant": iota,
        "coefficient_norm": c_norm,
        "reconstruction_norm": d_norm,
        "pass": bool(emb <= bound * (1 + 1e-6)),
    }


def extend_operator_check(ctx: CoorbitContext, t_matrix: np.ndarray, sample: SampleSet,
                          dual_atoms, cal: Calibration, n_samples: int = 20,
                          seed: int = 47) -> dict:
    """Measured ||T||_{Co(Y)} against the calibrated molecule-envelope bound.

    The images m_i = T pi(lambda_i) g get a fitted envelope Phi_T; the bound is
    reconstruction_c * ||M Phi_T||_{L^p_w} * measured ||C_h||, following the
    atoms-to-molecules factorization T = D_m C_h.  The reconstruction norm of
    the image family over the coefficient sequences induced by the sampled
    vectors is reported alongside; when it stays below the calibrated factor
    the per-sample chain makes the bound a guarantee, not a statistic.
    """
    rep = ctx.rep
    rng = np.random.default_rng(seed)
    t_matrix = np.asarray(t_matrix, dtype=complex)
    dual_atoms = np.asarray(dual_atoms)
    atoms = rep.orbit(ctx.window)[sample.points]
    images = atoms @ t_matrix.T
    cert = fit_envelope(rep, ctx.window, images, sample, ctx.p, ctx.weight)

    f_samples = _random_vectors(rng, rep.dim, n_samples)
    measured = 0.0
    for f in f_samples:
        den = coorbit_norm(ctx, f)
        if den > 0:
            measured = max(measured, coorbit_norm(ctx, t_matrix @ f) / den)
    c_norm = measured_coefficient_norm(ctx, dual_atoms, sample, f_samples)
    induced = [dual_atoms.conj() @ f for f in f_samples]
    d_images = measured_reconstruction_norm(ctx, images, sample, induced)
    bound = cal.reconstruction_c * cert.amalgam_value * c_norm
    return {
        "context": {"p": ctx.p, "y_p": ctx.y_spec.p},
        "measured": measured,
        "certificate_bound": bound,
        "envelope_amalgam": cert.amalgam_value,
        "image_reconstruction_norm": d_images,
        "calibrated_factor": cal.reconstruction_c * cert.amalgam_value,
        "pass": bool(measured <= bound * (1 + 1e-9)),
    }


def wiener_vs_plain_ratio(ctx: CoorbitContext, f_samples: Sequence[np.ndarray]) -> dict:
    """Extreme ratios ||V_g f||_{W^L(Y)} / ||V_g f||_Y over the samples."""
    ratios = []
    for f in f_samples:
        vf = voice_transform(ctx.rep, ctx.window, f)
        plain = amalgam_norm(vf, QuasiNormSpec(p=ctx.y_spec.p, weight=ctx.y_spec.weight,
                                               flavor="plain"))
        wiener = amalgam_norm(vf, QuasiNormSpec(p=ctx.y_spec.p, weight=ctx.y_spec.weight,
                                                flavor="left"))
        if plain > 0:
            ratios.append(wiener / plain)
    return {"min": float(min(ratios)), "max": float(max(ratios))}
