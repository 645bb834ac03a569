"""Coefficient transforms, reproducing kernels, frames, Riesz systems and molecules.

Frame operators are represented on the representation space (dimension d) rather
than on the kernel space inside L^2(G); the coefficient transform of an admissible
window is a surjective isometry between the two, so all spectra coincide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .amalgam import GridFunction, QuasiNormSpec, involution, lpw_norm, maximal_two_sided
from .errors import (
    IncompatibleOperandsError,
    InvalidParameterError,
    NotAFrameError,
    NotContractiveError,
    NotRieszError,
    ReducibilityWarning,
)
from .groups import CyclicPhaseSpace, GroupModel, PWeight, index_pairs, padded, unit_weight
from .sampling import SampleSet, build_cover, rel_separation


class Representation:
    """Projective unitary representation given by one matrix per carrier point."""

    def __init__(self, model: GroupModel, matrices: np.ndarray):
        matrices = np.asarray(matrices, dtype=complex)
        if matrices.shape[0] != model.size or matrices.ndim != 3 \
                or matrices.shape[1] != matrices.shape[2]:
            raise InvalidParameterError("need one square matrix per carrier point")
        self.model = model
        self.matrices = matrices
        self.dim = matrices.shape[1]

    def action(self, i: int) -> np.ndarray:
        return self.matrices[i]

    def apply(self, i: int, vec: np.ndarray) -> np.ndarray:
        return self.matrices[i] @ vec

    def orbit(self, vec: np.ndarray) -> np.ndarray:
        """All pi(x) vec stacked as rows, shape (n, dim)."""
        return np.einsum("nij,j->ni", self.matrices, vec)


def gabor_representation(model: CyclicPhaseSpace) -> Representation:
    """Time-frequency shifts pi(k,l)f(t) = exp(2 pi i l t / N) f(t - k) on C^N."""
    if not isinstance(model, CyclicPhaseSpace):
        raise InvalidParameterError("the Gabor representation needs a cyclic phase space")
    n = model.n_side
    t = np.arange(n)
    mats = np.zeros((model.size, n, n), dtype=complex)
    for k in range(n):
        shift = np.zeros((n, n))
        shift[t, (t - k) % n] = 1.0
        for l in range(n):
            phase = np.exp(2j * np.pi * l * t / n)
            mats[k * n + l] = phase[:, None] * shift
    return Representation(model, mats)


def gaussian_window(model: CyclicPhaseSpace) -> np.ndarray:
    """Unit-norm cyclic Gaussian g(t) = c exp(-pi d(t,0)^2 / N)."""
    n = model.n_side
    d = np.minimum(np.arange(n), n - np.arange(n)).astype(float)
    g = np.exp(-np.pi * d * d / n)
    return g / np.linalg.norm(g)


def boxcar_window(model: CyclicPhaseSpace) -> np.ndarray:
    """Unit-norm indicator of the cyclic ball of radius floor(N/4)."""
    n = model.n_side
    d = np.minimum(np.arange(n), n - np.arange(n))
    g = (d <= n // 4).astype(float)
    return g / np.linalg.norm(g)


WINDOWS: dict = {"gaussian": gaussian_window, "boxcar": boxcar_window}


# ---------------------------------------------------------------------------
# coefficient transform and admissibility


def voice_transform(rep: Representation, g: np.ndarray, f: np.ndarray) -> GridFunction:
    """V_g f(x) = <f, pi(x) g> evaluated at every carrier point."""
    g = np.asarray(g, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if g.shape != (rep.dim,) or f.shape != (rep.dim,):
        raise IncompatibleOperandsError("vector length must match the representation")
    if np.linalg.norm(g) == 0:
        raise InvalidParameterError("window must be nonzero")
    return GridFunction(rep.model, rep.orbit(g).conj() @ f)


def orbit_gram_operator(rep: Representation, g: np.ndarray) -> np.ndarray:
    """C = sum_x mu(x) |pi(x)g><pi(x)g|; equals const * I iff V_g is a scaled isometry."""
    orbit = rep.orbit(g)
    return (orbit * rep.model.haar[:, None]).T @ orbit.conj()


def check_admissible(rep: Representation, g: np.ndarray, tol: float = 1e-10) -> dict:
    """Measure the admissibility constant ||V_g f||^2 / ||f||^2 and its f-dependence."""
    g = np.asarray(g, dtype=complex)
    if np.linalg.norm(g) == 0:
        raise InvalidParameterError("window must be nonzero")
    gram = orbit_gram_operator(rep, g)
    constant = float(np.trace(gram).real) / rep.dim
    deviation = float(np.abs(gram - constant * np.eye(rep.dim)).max())
    if deviation > tol * max(1.0, constant):
        warnings.warn(
            f"admissibility constant varies by {deviation:.2e}; representation may be reducible",
            ReducibilityWarning,
        )
    return {
        "constant": constant,
        "deviation": deviation,
        "is_admissible": abs(constant - 1.0) <= tol and deviation <= tol * max(1.0, constant),
    }


def normalize_admissible(rep: Representation, g: np.ndarray) -> np.ndarray:
    """Rescale g by constant^{-1/2} so the coefficient transform is an isometry."""
    info = check_admissible(rep, g)
    return np.asarray(g, dtype=complex) / np.sqrt(info["constant"])


def reproducing_check(rep: Representation, g: np.ndarray, h: np.ndarray,
                      f: np.ndarray) -> float:
    """sup-norm error of the reproducing formula V_h f = V_g f *_sigma V_h g."""
    from .amalgam import twisted_convolve

    lhs = voice_transform(rep, h, f)
    rhs = twisted_convolve(voice_transform(rep, g, f), voice_transform(rep, h, g))
    return float(np.abs(lhs.values - rhs.values).max())


# ---------------------------------------------------------------------------
# kernel systems, frames and molecules


@dataclass
class KernelSystem:
    """Admissible window together with its reproducing kernels K_x = V_g(pi(x)g)."""

    rep: Representation
    window: np.ndarray
    kernel_matrix: np.ndarray  # (n, n); column x holds K_x over the carrier

    @classmethod
    def build(cls, rep: Representation, window: np.ndarray) -> "KernelSystem":
        window = np.asarray(window, dtype=complex)
        info = check_admissible(rep, window)
        if not info["is_admissible"]:
            raise InvalidParameterError(
                f"window is not admissible (constant {info['constant']:.6f}); "
                "normalize_admissible() first"
            )
        orbit = rep.orbit(window)
        kernels = orbit.conj() @ orbit.T  # [x, y] = V_g(pi(y) g)(x)
        return cls(rep=rep, window=window, kernel_matrix=kernels)

    def kernel(self, x_index: int) -> GridFunction:
        return GridFunction(self.rep.model, self.kernel_matrix[:, x_index])


@dataclass
class MoleculeCertificate:
    """Symmetric envelope Phi with |V_g h_i(x)| <= Phi(lam_i^{-1} x) + max_violation."""

    envelope: GridFunction
    p: float
    weight: PWeight
    amalgam_value: float
    max_violation: float

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "w_id": f"pweight(p={self.weight.p})",
            "amalgam_value": self.amalgam_value,
            "max_violation": self.max_violation,
        }


@dataclass
class FrameSystem:
    kernel_system: KernelSystem
    sample: SampleSet
    tau: np.ndarray
    frame_operator: np.ndarray
    bounds: tuple
    dual_atoms: Optional[np.ndarray] = None
    parseval_atoms: Optional[np.ndarray] = None
    biorthogonal_atoms: Optional[np.ndarray] = None
    certificates: dict = field(default_factory=dict)
    neumann_terms: Optional[int] = None

    @property
    def atoms(self) -> np.ndarray:
        """pi(lambda_i) g stacked as rows."""
        rep = self.kernel_system.rep
        return rep.orbit(self.kernel_system.window)[self.sample.points]


def hermitian_extremes(s: np.ndarray, residual_tol: float = 1e-9) -> tuple:
    """Extreme eigenvalues by direct Hermitian eigensolve with a residual check."""
    s = np.asarray(s)
    vals, vecs = np.linalg.eigh(s)
    for pick in (0, -1):
        v = vecs[:, pick]
        resid = np.linalg.norm(s @ v - vals[pick] * v)
        if resid > residual_tol * max(1.0, abs(vals[pick])):
            raise ArithmeticError(f"eigensolve residual {resid:.2e} exceeds tolerance")
    return float(vals[0]), float(vals[-1])


def build_almost_tight_frame(ks: KernelSystem, sample: SampleSet, u_indices) -> FrameSystem:
    """Weighted kernel frame with tau_i = mu(U_i) from a greedy disjoint cover."""
    model = ks.rep.model
    if sample.model is not model:
        raise IncompatibleOperandsError("sample set lives on a different model")
    if len(sample) == 0:
        d = ks.rep.dim
        return FrameSystem(ks, sample, np.zeros(0), np.zeros((d, d), complex), (0.0, 0.0))
    cover = build_cover(sample, u_indices)
    tau = cover.cell_masses()
    atoms = ks.rep.orbit(ks.window)[sample.points]
    s = (atoms * tau[:, None]).T @ atoms.conj()
    s = 0.5 * (s + s.conj().T)
    return FrameSystem(ks, sample, tau, s, hermitian_extremes(s))


def frame_bounds(fs: FrameSystem) -> tuple:
    return hermitian_extremes(fs.frame_operator)


# ---------------------------------------------------------------------------
# holomorphic functional calculus by power series


def _series_coefficients(phi: str, n_terms: int) -> np.ndarray:
    """Coefficients a_n of phi(S) = sum a_n (I - S)^n.

    inverse: a_n = 1; inverse_sqrt: a_0 = 1, a_{n+1} = a_n (n + 1/2)/(n + 1),
    generated by recurrence to avoid factorial overflow.
    """
    if phi == "inverse":
        return np.ones(n_terms)
    if phi == "inverse_sqrt":
        a = np.empty(n_terms)
        a[0] = 1.0
        for n in range(n_terms - 1):
            a[n + 1] = a[n] * (n + 0.5) / (n + 1.0)
        return a
    raise InvalidParameterError(f"unknown series function {phi!r}")


def _series_apply(s: np.ndarray, phi: str, eps_bound: float, tail_tol: float):
    """Truncated power series in D = I - S; returns (result, n_terms, tail_bound)."""
    s = np.asarray(s, dtype=complex)
    d = np.eye(s.shape[0]) - s
    dev = float(np.linalg.norm(d, 2))
    if dev >= 1.0 or dev > eps_bound:
        raise NotContractiveError(
            f"||S - I||_2 = {dev:.4f} exceeds the contractivity budget {min(eps_bound, 1.0):.4f}; "
            "densify the sample set"
        )
    max_terms = 20_000
    coeffs = _series_coefficients(phi, max_terms)
    result = np.eye(s.shape[0], dtype=complex)
    power = np.eye(s.shape[0], dtype=complex)
    n_used = 0
    for n in range(1, max_terms):
        power = power @ d
        term = coeffs[n] * power
        result = result + term
        n_used = n
        term_norm = float(np.linalg.norm(term, 2))
        # all coefficient sequences here are bounded by 1, so the remaining tail
        # is dominated by the geometric series in dev
        tail_bound = dev ** (n + 1) / (1.0 - dev)
        if term_norm + tail_bound <= tail_tol:
            break
    else:
        raise NotContractiveError(f"series did not reach the tail tolerance in {max_terms} terms")
    return result, n_used, dev ** (n_used + 1) / (1.0 - dev)


def holomorphic_apply(s: np.ndarray, phi: str, eps_bound: float = 0.999,
                      tail_tol: float = 1e-12) -> np.ndarray:
    """phi(S) for phi in {inverse, inverse_sqrt} via the power series around I.

    Requires the measured ||S - I||_2 to stay below eps_bound < 1.  The residual
    of the returned matrix is checked against 10 * tail_tol.
    """
    result, _, _ = _series_apply(s, phi, eps_bound, tail_tol)
    eye = np.eye(result.shape[0])
    if phi == "inverse":
        resid = float(np.linalg.norm(result @ s - eye, 2))
    else:
        resid = float(np.linalg.norm(result @ s @ result - eye, 2))
    if resid > 10 * tail_tol:
        raise ArithmeticError(f"series residual {resid:.2e} exceeds 10*tail_tol")
    return result


# ---------------------------------------------------------------------------
# dual / Parseval frames


def dual_frame(fs: FrameSystem, p: float = 1.0, weight: Optional[PWeight] = None,
               tail_tol: float = 1e-12) -> np.ndarray:
    """Canonical dual atoms h_i = S^{-1}(tau_i pi(lambda_i) g) with certificate.

    Uses the power series when S is measurably contractive, a direct solve
    otherwise; reconstruction is verified on the full basis to 1e-9.
    """
    a_bound, _ = fs.bounds
    if a_bound <= 0:
        raise NotAFrameError("lower frame bound is zero")
    atoms = fs.atoms
    weighted = fs.tau[:, None] * atoms
    dev = float(np.linalg.norm(fs.frame_operator - np.eye(fs.kernel_system.rep.dim), 2))
    if dev < 0.999:
        s_inv, n_terms, _ = _series_apply(fs.frame_operator, "inverse", 0.999, tail_tol)
        duals = weighted @ s_inv.T
        fs.neumann_terms = n_terms
    else:
        duals = np.linalg.solve(fs.frame_operator, weighted.T).T
        fs.neumann_terms = 0
    recon_err = reconstruction_error(fs, duals)
    if recon_err > 1e-9:
        raise NotAFrameError(f"dual reconstruction error {recon_err:.2e} exceeds 1e-9")
    fs.dual_atoms = duals
    fs.certificates["dual"] = fit_envelope(
        fs.kernel_system.rep, fs.kernel_system.window, duals, fs.sample, p,
        weight or unit_weight(fs.kernel_system.rep.model, p),
    )
    return duals


def reconstruction_error(fs: FrameSystem, duals: np.ndarray) -> float:
    """max entry error of sum_i <e_j, pi(lam_i)g> h_i = e_j over the full basis."""
    atoms = fs.atoms
    recon = atoms.conj().T @ duals  # row j: sum_i conj(atom_i[j]) h_i
    eye = np.eye(fs.kernel_system.rep.dim)
    return float(np.abs(recon - eye).max())


def parseval_frame(fs: FrameSystem, tail_tol: float = 1e-12) -> np.ndarray:
    """Atoms S^{-1/2}(tau_i^{1/2} pi(lambda_i) g); their frame operator is I to 1e-8."""
    a_bound, _ = fs.bounds
    if a_bound <= 0:
        raise NotAFrameError("lower frame bound is zero")
    atoms = fs.atoms
    weighted = np.sqrt(fs.tau)[:, None] * atoms
    dev = float(np.linalg.norm(fs.frame_operator - np.eye(fs.kernel_system.rep.dim), 2))
    if dev < 0.999:
        s_isqrt = holomorphic_apply(fs.frame_operator, "inverse_sqrt", 0.999, tail_tol)
    else:
        vals, vecs = np.linalg.eigh(fs.frame_operator)
        s_isqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    pars = weighted @ s_isqrt.T
    new_s = pars.T @ pars.conj()
    if float(np.abs(new_s - np.eye(pars.shape[1])).max()) > 1e-8:
        raise NotAFrameError("Parseval construction failed the identity check")
    fs.parseval_atoms = pars
    return pars


# ---------------------------------------------------------------------------
# Gramian, Riesz systems


def gramian(ks: KernelSystem, sample: SampleSet):
    """Gramian of (pi(lambda_i) g) as a CDMatrix with its minimal envelope attached."""
    from .cdmatrix import CDMatrix, minimal_envelope

    atoms = ks.rep.orbit(ks.window)[sample.points]
    g = atoms.conj() @ atoms.T  # [i, i'] = <pi(lam_i') g, pi(lam_i) g>
    cdm = CDMatrix(rows=sample, cols=sample, entries=g)
    cdm.envelope = minimal_envelope(cdm)
    return cdm


def riesz_bounds(gram_cdm) -> tuple:
    return hermitian_extremes(gram_cdm.entries)


def biorthogonal_system(ks: KernelSystem, sample: SampleSet) -> np.ndarray:
    """h_i = sum_{i'} conj(G^{-1})_{i,i'} pi(lambda_{i'}) g; exact biorthogonality."""
    atoms = ks.rep.orbit(ks.window)[sample.points]
    g = atoms.conj() @ atoms.T
    lo, _ = hermitian_extremes(g)
    if lo <= 1e-12:
        raise NotRieszError(f"Gramian minimal eigenvalue {lo:.2e} is numerically singular")
    duals = np.linalg.solve(g, atoms.conj()).conj()
    dev = float(np.abs(atoms.conj() @ duals.T - np.eye(len(sample))).max())
    if dev > 1e-9:
        raise NotRieszError(f"biorthogonality deviation {dev:.2e} exceeds 1e-9")
    return duals


def orthonormalize(ks: KernelSystem, sample: SampleSet) -> np.ndarray:
    """Atoms conj(G^{-1/2}) (pi(lambda_i) g): an orthonormal family to 1e-9."""
    atoms = ks.rep.orbit(ks.window)[sample.points]
    g = atoms.conj() @ atoms.T
    lo, _ = hermitian_extremes(g)
    if lo <= 1e-12:
        raise NotRieszError(f"Gramian minimal eigenvalue {lo:.2e} is numerically singular")
    vals, vecs = np.linalg.eigh(g)
    g_isqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    ortho = g_isqrt.conj() @ atoms
    dev = float(np.abs(ortho @ ortho.conj().T - np.eye(len(sample))).max())
    if dev > 1e-9:
        raise NotRieszError(f"orthonormalization deviation {dev:.2e} exceeds 1e-9")
    return ortho


# ---------------------------------------------------------------------------
# molecule envelopes


def fit_envelope(rep: Representation, g: np.ndarray, atoms: np.ndarray,
                 sample: SampleSet, p: float, weight: PWeight) -> MoleculeCertificate:
    """Minimal sampled envelope Phi(z) = max_i |V_g h_i(lambda_i z)|, symmetrized.

    Matching the truncation policy, the bin of a pair (i, x) is the carrier point
    nearest to lambda_i^{-1} x; pairs whose relative position is absent are skipped.
    """
    atoms = np.asarray(atoms, dtype=complex)
    if atoms.ndim != 2 or atoms.shape[0] != len(sample) or atoms.shape[1] != rep.dim:
        raise IncompatibleOperandsError("atoms must be one length-dim vector per sample point")
    model = rep.model
    phi = np.zeros(model.size + 1)  # pad slot absorbs absent relative positions
    orbit_g = rep.orbit(np.asarray(g, dtype=complex))
    all_x = np.arange(model.size)
    for i, lam in enumerate(sample.points):
        v = np.abs(orbit_g.conj() @ atoms[i])
        np.maximum.at(phi, model.div_indices(lam, all_x), v)
    phi = phi[:-1]
    sym = involution(GridFunction(model, phi)).values.real
    phi = np.maximum(phi, sym)
    env = GridFunction(model, phi)
    amalgam_value = lpw_norm(maximal_two_sided(env), QuasiNormSpec(p=p, weight=weight))
    return MoleculeCertificate(envelope=env, p=p, weight=weight,
                               amalgam_value=amalgam_value, max_violation=0.0)


def frame_kernel_envelope_check(fs: FrameSystem, pair_limit: int = 200_000,
                                seed: int = 5) -> dict:
    """Check |H(x,y)| <= rel/mu(Q) (M^L Phi * M^R Phi)(y^{-1} x) for the frame kernel.

    H(x,y) = sum_i tau_i K_{lam_i}(x) conj(K_{lam_i}(y)) and Phi is the fitted
    envelope of the weighted kernel family (sqrt(tau_i) K_{lam_i}).
    """
    from .amalgam import convolve, maximal_left, maximal_right

    ks = fs.kernel_system
    model = ks.rep.model
    if len(fs.sample) == 0 or not np.any(fs.tau):
        return {"max_excess": 0.0, "holds": True, "pairs": 0}
    weights = np.sqrt(fs.tau)
    weighted_atoms = weights[:, None] * fs.atoms
    cert = fit_envelope(ks.rep, ks.window, weighted_atoms, fs.sample, 1.0,
                        unit_weight(model))
    phi = cert.envelope
    kern_cols = ks.kernel_matrix[:, fs.sample.points]  # [x, i]
    h = (kern_cols * fs.tau[None, :]) @ kern_cols.conj().T
    bound_fn = convolve(maximal_left(phi), maximal_right(phi)).values.real
    factor = rel_separation(fs.sample) / model.q_mass()

    xs, ys, _ = index_pairs(model.size, pair_limit, pair_limit, seed)
    rhs = factor * padded(bound_fn, np.inf)[model.div_indices(ys, xs)]
    lhs = np.abs(h[xs, ys])
    scale = max(1.0, float(rhs[np.isfinite(rhs)].max(initial=0.0)))
    max_excess = float((lhs - rhs).max()) / scale
    return {"max_excess": max_excess, "holds": max_excess <= 1e-10, "pairs": int(xs.size)}


# ---------------------------------------------------------------------------
# independent oracle


def rayleigh_extremes(s: np.ndarray, starts: int = 8, squarings: int = 60,
                      seed: int = 123) -> tuple:
    """Extreme Rayleigh quotients by squared power iteration (eigensolve-free).

    Repeated squaring of the normalized matrix drives random start vectors into
    the extreme eigenspaces; the Rayleigh quotient of the result is read off.
    """
    s = np.asarray(s, dtype=complex)
    d = s.shape[0]
    rng = np.random.default_rng(seed)
    shift = float(np.abs(s).sum(axis=1).max()) + 1.0  # Gershgorin upper bound

    def extreme(mat):
        proj = mat / max(float(np.abs(mat).max()), 1e-300)
        for _ in range(squarings):
            proj = proj @ proj
            top = float(np.abs(proj).max())
            if top == 0 or not np.isfinite(top):
                break
            proj = proj / top
        best = -np.inf
        for _ in range(starts):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v = proj @ v
            nv = np.linalg.norm(v)
            if nv < 1e-150:
                continue
            v = v / nv
            best = max(best, float((v.conj() @ (mat @ v)).real))
        return best

    top = extreme(s)
    bottom = shift - extreme(shift * np.eye(d) - s)
    return bottom, top
