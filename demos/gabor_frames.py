"""Gabor frames on the exact phase space: duals, Parseval companions, envelopes.

The cyclic model Z_N x Z_N carries the projective time-frequency representation
pi(k,l)f(t) = exp(2 pi i l t / N) f(t - k).  Sampling the orbit of a Gaussian
window on a sub-lattice with cover-cell weights gives an almost-tight frame;
the canonical dual follows from a short power series because the frame operator
is measurably close to the identity.
"""

import numpy as np

from coorbitkit import (
    KernelSystem,
    SampleSet,
    build_almost_tight_frame,
    build_cyclic_phase_space,
    dual_frame,
    fit_envelope,
    frame_kernel_envelope_check,
    gabor_representation,
    gaussian_window,
    normalize_admissible,
    parseval_frame,
    unit_weight,
)
from coorbitkit.frames import reconstruction_error

N = 8
model = build_cyclic_phase_space(N)
rep = gabor_representation(model)
g = gaussian_window(model)
ks = KernelSystem.build(rep, g)
print(f"phase space Z_{N} x Z_{N}: {model.size} points, Haar weight 1/{N} each")
scaled = KernelSystem.form(rep, 3.0 * g).admissibility()["constant"]
h = normalize_admissible(rep, 3.0 * g)
print(f"3g has admissibility constant {scaled:.4f} = 9 C(g); normalize_admissible rescales "
      f"it back to g (max difference {np.abs(h - g).max():.1e})")

lattice = SampleSet(model=model, points=np.array(
    [k * N + l for k in range(0, N, 2) for l in range(0, N, 2)]))
u_block = np.array([k * N + l for k in range(2) for l in range(2)])
fs = build_almost_tight_frame(ks, lattice, u_block)
a, b = fs.bounds
print(f"2x2 lattice, {len(lattice)} atoms: frame bounds A = {a:.4f}, B = {b:.4f}")
print(f"||S - I||_2 = {np.linalg.norm(fs.frame_operator - np.eye(N), 2):.4f} < 1, "
      "so the inverse power series applies")

duals = dual_frame(fs)
print(f"dual atoms via {fs.neumann_terms}-term series; "
      f"basis reconstruction error {reconstruction_error(fs, duals):.2e}")

cert = fs.certificates["dual"]
print(f"dual molecule certificate: amalgam value {cert.amalgam_value:.4f}, "
      f"max violation {cert.max_violation}")

gap = parseval_frame(fs)[1]
print(f"Parseval companion: frame operator deviates from identity by {gap:.2e}")

atom_cert = fit_envelope(ks, fs.atoms, lattice, 1.0, unit_weight(model))
print(f"atom envelope amalgam value {atom_cert.amalgam_value:.4f} "
      "(the symmetrized window autocorrelation)")
kernel_check = frame_kernel_envelope_check(fs)
print(f"frame-operator kernel dominated by the envelope convolution at all "
      f"{kernel_check['pairs']} pairs: {kernel_check['holds']}")
