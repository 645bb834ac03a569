"""Coefficient transforms, reproducing kernels, frames, Riesz systems and molecules.

Frame operators are represented on the representation space (dimension d) rather
than on the kernel space inside L^2(G); the coefficient transform of an admissible
window is a surjective isometry between the two, so all spectra coincide.

Molecule envelopes come in two forms.  On Z_N x Z_N, pi(lambda)^* pi(x) is a
unimodular multiple of pi(lambda^{-1} x), so an orbit family h_i = c_i pi(lambda_i) w
has |V_g h_i(x)| = |c_i| |V_g w(lambda_i^{-1} x)|: its envelope is one column,
max |c_i| |V_g w| symmetrized (``orbit_envelope``), exact in exact arithmetic and
equal to the fitted one to rounding.  The weighted atoms of the frame-kernel check
are such a family for any sample.  So are the canonical duals when the sample is
a subgroup and tau is constant: S then commutes with every pi(lambda), and the
duals are the orbit of the identity's dual gamma = S^{-1}(tau_0 g).  Every other
family, and the duals of any other sample, is fitted column by column
(``fit_envelope``), the generic path and the test oracle.

The same covariance shrinks the frame-kernel check to a few rows of H: on a
subgroup sample with constant tau, |H(lambda x, lambda y)| = |H(x, y)| and the
bound's argument y^{-1} x is unchanged, so one row of H per coset of the sample
covers every carrier pair (``_covariant_rows`` finds the cosets).  Every other
sample reads every carrier point as a row.  Either way every pair of rows x
carrier is read: the check is exhaustive at every size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .amalgam import GridFunction, QuasiNormSpec, amalgam_norm
from .cdmatrix import CDMatrix, _series_apply, _symmetrized, minimal_envelope
from .errors import (
    IncompatibleOperandsError,
    InvalidParameterError,
    NotAFrameError,
    NotRieszError,
    ReducibilityWarning,
)
from .groups import CyclicPhaseSpace, PWeight, _block_items, _is_int_at_least, unit_weight
from .sampling import SampleSet, build_cover, molecule_bound, pair_check, rel_separation


class Representation:
    """Gabor orbit map pi(k,l)f(t) = exp(2 pi i l t / N) f(t - k) on C^N, x = k N + l, read
    off the model's tables: ``sub[k, t]`` = (t - k) mod N and the phase ``chi[l, t]``."""

    def __init__(self, model: CyclicPhaseSpace):
        if not isinstance(model, CyclicPhaseSpace):
            raise InvalidParameterError("the Gabor representation needs a cyclic phase space")
        self.model = model
        self.dim = model.n_side

    def action(self, i: int) -> np.ndarray:
        """pi(x_i) as a dim x dim matrix, built on every call, integer 0 <= i < n."""
        return self.apply(i, np.eye(self.dim)).T

    @property
    def matrices(self) -> np.ndarray:
        """All pi(x) stacked, shape (n, dim, dim), built on every access."""
        return np.stack([self.action(i) for i in range(self.model.size)])

    def apply(self, i: int, vecs: np.ndarray) -> np.ndarray:
        """pi(x_i) vec for one vector or for each row of a (k, dim) stack, integer 0 <= i < n."""
        k, l = self._point(i)
        return self.model.chi[l] * self._shifted(vecs, k, (1, 2))

    def orbit(self, vec: np.ndarray) -> np.ndarray:
        """All pi(x) vec stacked as rows, shape (n, dim), in O(n dim) from the two tables."""
        shifted = self._shifted(vec, slice(None), (1,))  # [k, t] = vec((t - k) mod N)
        return (self.model.chi[None, :, :] * shifted[:, None, :]).reshape(-1, self.dim)

    def _point(self, i) -> tuple:
        """(k, l) of point index ``i``; InvalidParameterError unless it is an integer in [0, n)."""
        if not (_is_int_at_least(i, 0) and i < self.model.size):
            raise InvalidParameterError(f"point index {i!r} is not an integer, or is outside "
                                        f"[0, {self.model.size})")
        return divmod(int(i), self.dim)

    def _shifted(self, vecs, k, ndims) -> np.ndarray:
        vecs = np.asarray(vecs)
        if vecs.ndim not in ndims or vecs.shape[-1] != self.dim:
            raise IncompatibleOperandsError(f"need length-{self.dim} vectors, got {vecs.shape}")
        return vecs[..., self.model.sub[k]]


def gabor_representation(model: CyclicPhaseSpace) -> Representation:
    """Time-frequency shifts pi(k,l)f(t) = exp(2 pi i l t / N) f(t - k) on C^N."""
    return Representation(model)


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
    """V_g f(x) = <f, pi(x) g> evaluated at every carrier point, for any nonzero g."""
    return KernelSystem.form(rep, g).voice(f)


def normalize_admissible(rep: Representation, g: np.ndarray) -> np.ndarray:
    """Rescale g by constant^{-1/2} so the coefficient transform is an isometry."""
    info = KernelSystem.form(rep, g).admissibility()
    return np.asarray(g, dtype=complex) / np.sqrt(info["constant"])


# ---------------------------------------------------------------------------
# kernel systems, frames and molecules


@dataclass
class KernelSystem:
    """Window g and its orbit pi(x) g, formed once; V_g f, kernels and atoms read the orbit."""

    rep: Representation
    window: np.ndarray
    orbit: np.ndarray  # (n, dim); row x holds pi(x) g

    @classmethod
    def form(cls, rep: Representation, window: np.ndarray) -> "KernelSystem":
        """Any nonzero window and its orbit; ``build`` also requires it admissible."""
        window = np.asarray(window, dtype=complex)
        if np.linalg.norm(window) == 0:
            raise InvalidParameterError("window must be nonzero")
        return cls(rep=rep, window=window, orbit=rep.orbit(window))

    @classmethod
    def build(cls, rep: Representation, window: np.ndarray) -> "KernelSystem":
        ks = cls.form(rep, window)
        info = ks.admissibility()
        if not info["is_admissible"]:
            raise InvalidParameterError(f"window is not admissible (constant "
                                        f"{info['constant']:.6f}); normalize_admissible() first")
        return ks

    def admissibility(self) -> dict:
        """The admissibility constant ||V_g f||^2 / ||f||^2 and its f-dependence."""
        tol = 1e-10
        # C = sum_x mu(x) |pi(x)g><pi(x)g| equals const * I iff V_g is a scaled isometry
        gram = (self.orbit.T * self.rep.model.haar) @ self.orbit.conj()
        constant = float(np.trace(gram).real) / self.rep.dim
        deviation = float(np.abs(gram - constant * np.eye(self.rep.dim)).max())
        flat = deviation <= tol * max(1.0, constant)
        if not flat:
            warnings.warn(f"admissibility constant varies by {deviation:.2e}; "
                          "representation may be reducible", ReducibilityWarning)
        return {"constant": constant, "deviation": deviation,
                "is_admissible": abs(constant - 1.0) <= tol and flat}

    def voice(self, f: np.ndarray) -> GridFunction:
        """V_g f(x) = <f, pi(x) g> at every carrier point."""
        if np.shape(f) != (self.rep.dim,):
            raise IncompatibleOperandsError("vector length must match the representation")
        return GridFunction(self.rep.model, self.voices(f))

    def voices(self, f: np.ndarray) -> np.ndarray:
        """V_g f for each row f of a (..., dim) stack, as a (..., n) array of finite values.

        One product ``f @ orbit.conj().T``: a row rounds as the stack's product does.
        """
        f = np.asarray(f, dtype=complex)
        if f.shape[-1:] != (self.rep.dim,):
            raise IncompatibleOperandsError("vector length must match the representation")
        values = f @ self.orbit.conj().T
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("grid function entries must be finite")
        return values

    def atoms(self, sample: SampleSet) -> np.ndarray:
        """The orbit rows pi(lambda_i) g at the points of ``sample``, which must share the model."""
        _check_sample(self, sample)
        return self.orbit[sample.points]

    def kernels(self, points) -> np.ndarray:
        """Kernel columns [x, i] = K_{points[i]}(x) = <pi(points[i]) g, pi(x) g>."""
        return self.orbit.conj() @ self.orbit[points].T

    @property
    def kernel_matrix(self) -> np.ndarray:
        """Every kernel as a column, shape (n, n), built on every access."""
        return self.kernels(np.arange(self.rep.model.size))


def _check_sample(ks: KernelSystem, sample: SampleSet) -> None:
    if sample.model is not ks.rep.model:
        raise IncompatibleOperandsError("sample set lives on a different model")


@dataclass
class MoleculeCertificate:
    """Symmetric envelope Phi with |V_g h_i(x)| <= Phi(lam_i^{-1} x) + max_violation.

    ``columns`` counts the atom columns the envelope was fitted over: 1 for an
    orbit family, the number of atoms on the generic path.
    """

    envelope: GridFunction
    p: float
    weight: PWeight
    amalgam_value: float
    max_violation: float
    columns: int

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "w_id": f"pweight(p={self.weight.p})",
            "amalgam_value": self.amalgam_value,
            "max_violation": self.max_violation,
            "columns": self.columns,
        }


@dataclass
class FrameSystem:
    kernel_system: KernelSystem
    sample: SampleSet
    tau: np.ndarray
    frame_operator: np.ndarray
    bounds: tuple
    certificates: dict = field(default_factory=dict)
    neumann_terms: Optional[int] = None
    series_tail_bound: Optional[float] = None

    @property
    def deviation(self) -> float:
        """||S - I||_2, exact from the frame bounds because S is Hermitian."""
        a_bound, b_bound = self.bounds
        return max(1.0 - a_bound, b_bound - 1.0)

    @property
    def relaxation(self) -> tuple:
        """(w, q) with w = 2/(A + B): ||I - wS||_2 = q = (B - A)/(B + A) since S is Hermitian."""
        a_bound, b_bound = self.bounds
        return 2.0 / (a_bound + b_bound), (b_bound - a_bound) / (b_bound + a_bound)

    @property
    def atoms(self) -> np.ndarray:
        """pi(lambda_i) g stacked as rows."""
        return self.kernel_system.atoms(self.sample)


def _eigh(m: np.ndarray) -> tuple:
    """Ascending eigenvalues and eigenvectors of Hermitian M; extreme pairs residual-checked."""
    vals, vecs = np.linalg.eigh(m)
    for pick in (0, -1):
        v = vecs[:, pick]
        resid = np.linalg.norm(m @ v - vals[pick] * v)
        if resid > 1e-9 * max(1.0, abs(vals[pick])):
            raise ArithmeticError(f"eigensolve residual {resid:.2e} exceeds tolerance")
    return vals, vecs


def hermitian_extremes(s: np.ndarray) -> tuple:
    """Extreme eigenvalues by direct Hermitian eigensolve with a residual check."""
    vals, _ = _eigh(np.asarray(s))
    return float(vals[0]), float(vals[-1])


def _identity_gap(x: np.ndarray, spectral: bool = False) -> float:
    """||X - I|| of a square X: the largest entry modulus, or the 2-norm if ``spectral``."""
    gap = x - np.eye(len(x))
    return float(np.linalg.norm(gap, 2) if spectral else np.abs(gap).max())


def build_almost_tight_frame(ks: KernelSystem, sample: SampleSet, u_indices) -> FrameSystem:
    """Weighted kernel frame with tau_i = mu(U_i) from the greedy disjoint cover.

    ``build_cover`` gives each carrier point x its owner rank i, the cell U_i being
    ``owner == i``, so tau is one Haar-weighted bincount of the owner array.
    """
    atoms = ks.atoms(sample)
    if len(sample) == 0:
        d = ks.rep.dim
        return FrameSystem(ks, sample, np.zeros(0), np.zeros((d, d), complex), (0.0, 0.0))
    owner = build_cover(sample, u_indices)
    tau = np.bincount(owner, weights=sample.model.haar, minlength=len(sample))
    s = (atoms.T * tau) @ atoms.conj()
    s = 0.5 * (s + s.conj().T)
    return FrameSystem(ks, sample, tau, s, hermitian_extremes(s))


# ---------------------------------------------------------------------------
# dual / Parseval frames


def _frame_phi(fs: FrameSystem, phi: str) -> tuple:
    """(phi(S), series terms, tail bound) for every frame: S^{-1} or S^{-1/2}.

    phi(S) = w^{1 or 1/2} sum a_n (I - wS)^n with w = 2/(A + B), the power series
    ``_series_apply``.  The rate q = (B - A)/(B + A) < 1 (``fs.relaxation``) fixes
    the count, the smallest n with q^n/(1 - q) <= tail_tol = 1e-12, and the tail
    bound w^{1 or 1/2} q^{n+1}/(1 - q) before summing; past the term cap it raises.
    ||R S - I||_2, or ||R S R - I||_2, is held to 10 tail_tol: the check that
    catches a wrong q.  The tail E alone gives ||E S|| < 2 tail_tol, or
    ||S^{1/2} E + E S^{1/2} + E S E|| < 2.9 tail_tol (w B < 2); the rest is room for
    rounding.  The gabor frame lattices at N <= 32 keep the residual under 0.2 tail_tol.
    """
    if fs.bounds[0] <= 0:
        raise NotAFrameError("lower frame bound is zero")
    tail_tol, s = 1e-12, fs.frame_operator
    result, n_terms, tail_bound = _series_apply(s, phi, tail_tol, fs.relaxation)
    product = result @ s if phi == "inverse" else result @ s @ result
    resid = _identity_gap(product, spectral=True)
    if resid > 10 * tail_tol:
        raise ArithmeticError(f"series residual {resid:.2e} exceeds 10*tail_tol")
    return result, n_terms, tail_bound


def _covariant_rows(fs: FrameSystem) -> Optional[np.ndarray]:
    """One carrier point of each coset Lambda x if S commutes with every pi(lambda_i), else None.

    S commutes with every pi(lambda_i) when the sample is a subgroup and tau is
    constant.  One pass over the index group of Z_N x Z_N, which is abelian,
    decides the first and yields the cosets.  It draws a greedy generating set:
    each generator t is the first point outside the span H of those before it,
    first from the sample, then from the carrier, and H grows to <H, t>, the
    disjoint union of the cosets H t^k up to the first power of t in H.
    - The sample is a subgroup iff it holds the identity and every coset formed
      while it is spanned stays inside it: the span then holds the sample and
      lies inside it.
    - While the carrier is spanned, the coset points of Lambda in H, times t^k,
      are those of Lambda in H t^k.
    A generator t with t^k the first power in H costs one product per new point,
    |H| (k - 1), at most 2k for its powers by doubling and, in the carrier stage,
    one per new coset point: under 2n products in all, where closing every pair
    of sample points takes m^2.
    """
    model, points = fs.sample.model, fs.sample.points
    in_sample = np.zeros(model.size, dtype=bool)
    in_sample[points] = True
    if not in_sample[model.identity] or not np.all(fs.tau == fs.tau[0]):
        return None
    span = np.zeros(model.size, dtype=bool)
    span[model.identity] = True
    elements = reps = np.array([model.identity])
    for pool, in_pool in ((points, in_sample), (np.arange(model.size), None)):
        while not span[pool].all():
            powers = pool[np.argmin(span[pool])][None]  # t, the first point outside the span
            while not span[powers].any():  # t .. t^L, doubled to t .. t^2L
                powers = np.concatenate([powers, model.mul_indices(powers, powers[-1])])
            powers = powers[:np.argmax(span[powers]), None]  # t^k, 0 < k < the first power in H
            cosets = model.mul_indices(elements, powers).ravel()  # H t^k for those k
            if in_pool is not None and not in_pool[cosets].all():
                return None
            span[cosets] = True
            elements = np.concatenate([elements, cosets])
            if in_pool is None:
                reps = np.concatenate([reps, model.mul_indices(reps, powers).ravel()])
    return reps


def dual_frame(fs: FrameSystem, p: float = 1.0, weight: Optional[PWeight] = None) -> np.ndarray:
    """Canonical dual atoms h_i = S^{-1}(tau_i pi(lambda_i) g); reconstruction verified to 1e-9.

    1e-9 screens for a wrong dual: 100 times the series gate of ``_frame_phi``, which
    the entries inherit (1e-15 to 1.4e-13 on the gabor frame lattices at N <= 32).
    On a subgroup sample with constant tau the duals are the orbit rows pi(lambda_i) gamma
    of the identity's dual gamma = S^{-1}(tau_0 g), certified by ``orbit_envelope``;
    on any other sample they are certified by ``fit_envelope``.
    """
    s_inv, fs.neumann_terms, fs.series_tail_bound = _frame_phi(fs, "inverse")
    duals = (fs.tau[:, None] * fs.atoms) @ s_inv.T
    recon_err = reconstruction_error(fs, duals)
    if recon_err > 1e-9:
        raise NotAFrameError(f"dual reconstruction error {recon_err:.2e} exceeds 1e-9")
    ks, weight = fs.kernel_system, weight or unit_weight(fs.sample.model, p)
    if _covariant_rows(fs) is not None:
        gamma = duals[np.flatnonzero(fs.sample.points == fs.sample.model.identity)[0]]
        fs.certificates["dual"] = orbit_envelope(ks, gamma, 1.0, p, weight)
    else:
        fs.certificates["dual"] = fit_envelope(ks, duals, fs.sample, p, weight)
    return duals


def reconstruction_error(fs: FrameSystem, duals: np.ndarray) -> float:
    """max entry error of sum_i <e_j, pi(lam_i)g> h_i = e_j over the full basis."""
    return _identity_gap(fs.atoms.conj().T @ duals)  # row j: sum_i conj(atom_i[j]) h_i


def parseval_frame(fs: FrameSystem) -> tuple:
    """Atoms S^{-1/2}(tau_i^{1/2} pi(lambda_i) g) and their frame operator's deviation from I.

    NotAFrameError if the deviation exceeds 1e-8, a screen 1000 times the series gate
    of ``_frame_phi`` that the entries inherit (9e-16 to 3e-14 measured).
    """
    s_isqrt = _frame_phi(fs, "inverse_sqrt")[0]
    pars = (np.sqrt(fs.tau)[:, None] * fs.atoms) @ s_isqrt.T
    dev = _identity_gap(pars.T @ pars.conj())
    if dev > 1e-8:
        raise NotAFrameError("Parseval construction failed the identity check")
    return pars, dev


# ---------------------------------------------------------------------------
# Gramian, Riesz systems


def gramian(ks: KernelSystem, sample: SampleSet):
    """Gramian of (pi(lambda_i) g) as a CDMatrix with its minimal envelope attached."""
    atoms = ks.atoms(sample)
    g = atoms.conj() @ atoms.T  # [i, i'] = <pi(lam_i') g, pi(lam_i) g>
    cdm = CDMatrix(rows=sample, cols=sample, entries=g)
    cdm.envelope = minimal_envelope(cdm)
    return cdm


@dataclass
class RieszSystem:
    """Atoms pi(lambda_i) g, their Gramian G and its eigendecomposition, formed once."""

    sample: SampleSet
    atoms: np.ndarray  # (m, dim); row i holds pi(lambda_i) g
    gram: CDMatrix  # with its minimal envelope attached
    eig: tuple  # ascending eigenvalues and eigenvectors of gram.entries

    @property
    def bounds(self) -> tuple:
        """The Riesz bounds (lambda_min(G), lambda_max(G)), read off ``eig``."""
        return float(self.eig[0][0]), float(self.eig[0][-1])


def build_riesz_system(ks: KernelSystem, sample: SampleSet) -> RieszSystem:
    """The family pi(lambda_i) g on ``sample`` with its Gramian, decomposed once."""
    if len(sample) == 0:
        raise InvalidParameterError("a Riesz system needs at least one sample point")
    gram = gramian(ks, sample)
    return RieszSystem(sample, ks.atoms(sample), gram, _eigh(gram.entries))


def _riesz_phi(rs: RieszSystem, power: float) -> np.ndarray:
    """conj(G^{-power}) of the atoms from ``rs.eig``; NotRieszError if lambda_min(G) <= 1e-12."""
    vals, vecs = rs.eig
    if vals[0] <= 1e-12:
        raise NotRieszError(f"Gramian minimal eigenvalue {vals[0]:.2e} is numerically singular")
    return ((vecs / vals ** power) @ vecs.conj().T).conj() @ rs.atoms


def biorthogonal_system(rs: RieszSystem) -> tuple:
    """h_i = sum_{i'} conj(G^{-1})_{i,i'} pi(lambda_{i'}) g and its biorthogonality deviation.

    The deviation is max |<h_i', pi(lambda_i) g> - delta_ii'|; NotRieszError above 1e-9, a
    screen: a backward-stable eigh leaves a gap of order m u lambda_max/lambda_min.
    """
    duals = _riesz_phi(rs, 1.0)
    dev = _identity_gap(rs.atoms.conj() @ duals.T)
    if dev > 1e-9:
        raise NotRieszError(f"biorthogonality deviation {dev:.2e} exceeds 1e-9")
    return duals, dev


def orthonormalize(rs: RieszSystem) -> tuple:
    """Atoms conj(G^{-1/2}) (pi(lambda_i) g) and the deviation of their Gramian from I.

    NotRieszError if the deviation exceeds 1e-9, the screen of ``biorthogonal_system``.
    """
    ortho = _riesz_phi(rs, 0.5)
    dev = _identity_gap(ortho @ ortho.conj().T)
    if dev > 1e-9:
        raise NotRieszError(f"orthonormalization deviation {dev:.2e} exceeds 1e-9")
    return ortho, dev


# ---------------------------------------------------------------------------
# molecule envelopes


def fit_envelope(ks: KernelSystem, atoms: np.ndarray, sample: SampleSet, p: float,
                 weight: PWeight) -> MoleculeCertificate:
    """Minimal sampled envelope Phi(z) = max_i |V_g h_i(lambda_i z)|, symmetrized.

    It is the minimal envelope of the matrix [x, i] = V_g h_i(x) over the carrier
    rows and the sample columns: matching the truncation policy, the bin of a pair
    (i, x) is the carrier point nearest to lambda_i^{-1} x; pairs whose relative
    position is absent are skipped.  The matrix is formed one block of atoms at a
    time, at most ``_BLOCK_ENTRIES`` entries, and the per-bin maxima are carried
    over the blocks; a single block at N <= 32 with the default lattices.
    """
    _check_sample(ks, sample)
    atoms = np.asarray(atoms, dtype=complex)
    if atoms.ndim != 2 or atoms.shape[0] != len(sample) or atoms.shape[1] != ks.rep.dim:
        raise IncompatibleOperandsError("atoms must be one length-dim vector per sample point")
    model = ks.rep.model
    carrier = np.arange(model.size)
    orbit_conj = ks.orbit.conj()
    per_bin = np.zeros(model.size)
    step = _block_items(model.size)
    for start in range(0, len(sample), step):
        block = slice(start, start + step)
        voices = orbit_conj @ atoms[block].T
        np.maximum(per_bin, model.relative_max(np.abs(voices), carrier, sample.points[block]),
                   out=per_bin)
    return _certificate(model, per_bin, p, weight, len(sample))


def orbit_envelope(ks: KernelSystem, window: np.ndarray, scale: float, p: float,
                   weight: PWeight) -> MoleculeCertificate:
    """The envelope of an orbit family h_i = c_i pi(lambda_i) w with max |c_i| = scale.

    It is scale |V_g w| symmetrized, from one ``ks.voices`` product.  On Z_N x Z_N
    pi(lambda_i)^* pi(x) is a unimodular multiple of pi(lambda_i^{-1} x), so
    |V_g h_i(x)| = |c_i| |V_g w(lambda_i^{-1} x)| and each of ``fit_envelope``'s
    columns bins |c_i| |V_g w| onto the whole carrier: the two envelopes agree in
    exact arithmetic and to rounding in floating point, for any nonempty sample.
    """
    return _certificate(ks.rep.model, scale * np.abs(ks.voices(window)), p, weight, 1)


def _certificate(model, per_bin: np.ndarray, p: float, weight: PWeight,
                 columns: int) -> MoleculeCertificate:
    """The symmetrized per-bin maxima with their two-sided W(L^p_w) amalgam value."""
    env = _symmetrized(model, per_bin)
    amalgam_value = amalgam_norm(env, QuasiNormSpec(p=p, weight=weight, flavor="two_sided"))
    return MoleculeCertificate(envelope=env, p=p, weight=weight, amalgam_value=amalgam_value,
                               max_violation=0.0, columns=columns)


def frame_kernel_envelope_check(fs: FrameSystem) -> dict:
    """Check |H(x,y)| <= rel/mu(Q) (M^L Phi * M^R Phi)(y^{-1} x) for the frame kernel.

    H(x,y) = sum_i tau_i K_{lam_i}(x) conj(K_{lam_i}(y)) = <S pi(y)g, pi(x)g>, and
    Phi is the envelope of the weighted kernel family (sqrt(tau_i) K_{lam_i}), an
    orbit family: sqrt(max tau) |V_g g| symmetrized (``orbit_envelope``).

    When S commutes with every pi(lambda), lambda in Lambda (a subgroup sample
    with constant tau, ``_covariant_rows``), both sides are invariant under
    (x, y) -> (lambda x, lambda y):
    - pi(lambda x) = c pi(lambda) pi(x) with |c| = 1, so H(lambda x, lambda y) =
      c' <pi(lambda)^* S pi(lambda) pi(y)g, pi(x)g> = c' H(x, y) with |c'| = 1;
    - (lambda y)^{-1} (lambda x) = y^{-1} x, so the bound reads the same point.
    One row x per coset Lambda x then covers every carrier pair: 4 rows at steps
    (2, 2).  Any other sample is invariant under the trivial subgroup only, and
    its rows are every carrier point.  ``pair_check`` reads every pair of rows x
    carrier.

    H is formed one block of ``pair_check``'s rows at a time: the block's rows of
    conj(orbit) S times the whole orbit, at most ``_BLOCK_ENTRIES`` entries.  No
    n x n table of H is formed.
    """
    ks = fs.kernel_system
    model = ks.rep.model
    if len(fs.sample) == 0 or not np.any(fs.tau):  # the keys of pair_check, no pair read
        return {"pairs": 0, "absent": 0, "max_excess": 0.0, "max_ratio": 0.0, "holds": True}
    phi = orbit_envelope(ks, ks.window, np.sqrt(fs.tau.max()), 1.0, unit_weight(model)).envelope
    bound = molecule_bound(rel_separation(fs.sample), [(phi, phi)])
    rows = _covariant_rows(fs)
    if rows is None:  # invariant under the trivial subgroup only
        rows = np.arange(model.size)
    left = ks.orbit[rows].conj() @ fs.frame_operator  # H(rows[r], y) = left[r] . orbit[y]
    return pair_check(model, bound, lambda block: np.abs(left[block] @ ks.orbit.T), rows)


# ---------------------------------------------------------------------------
# independent oracle


def rayleigh_extremes(s: np.ndarray, seed: int = 123) -> tuple:
    """Extreme Rayleigh quotients by squared power iteration (eigensolve-free).

    Sixty repeated squarings of the normalized matrix drive eight random start
    vectors into the extreme eigenspaces; the best Rayleigh quotient is read off.
    """
    s = np.asarray(s, dtype=complex)
    d = s.shape[0]
    rng = np.random.default_rng(seed)
    shift = float(np.abs(s).sum(axis=1).max()) + 1.0  # Gershgorin upper bound

    def extreme(mat):
        proj = mat / max(float(np.abs(mat).max()), 1e-300)
        for _ in range(60):
            proj = proj @ proj
            top = float(np.abs(proj).max())
            if top == 0 or not np.isfinite(top):
                break
            proj = proj / top
        best = -np.inf
        for _ in range(8):
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
