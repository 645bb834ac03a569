"""Riesz sequences of time-frequency atoms and their biorthogonal partners.

A 4x4-separated lattice in the N=8 phase space spans a 4-dimensional subspace;
its Gramian stays near the identity, so the biorthogonal system and the
orthonormalized family both come from Gramian inverse (square) roots and stay
as localized as the atoms themselves.  ``build_riesz_system`` forms the Gramian
and its eigendecomposition once; the bounds and both families read it.
"""

import numpy as np

from coorbitkit import (
    KernelSystem,
    SampleSet,
    biorthogonal_system,
    build_cyclic_phase_space,
    build_riesz_system,
    gabor_representation,
    gaussian_window,
    orthonormalize,
    rayleigh_extremes,
)

N = 8
model = build_cyclic_phase_space(N)
rep = gabor_representation(model)
g = gaussian_window(model)
ks = KernelSystem.build(rep, g)

lattice = SampleSet(model=model, points=np.array(
    [k * N + l for k in range(0, N, 4) for l in range(0, N, 4)]))
print(f"lattice of {len(lattice)} atoms, separation 4 in both directions")

rs = build_riesz_system(ks, lattice)
lo, hi = rs.bounds
print(f"Riesz bounds from the Gramian: ({lo:.6f}, {hi:.6f})")
olo, ohi = rayleigh_extremes(rs.gram.entries)
print(f"independent Rayleigh-quotient oracle:  ({olo:.6f}, {ohi:.6f})")

duals, dev = biorthogonal_system(rs)
atoms = rs.atoms
print(f"biorthogonality deviation: {dev:.2e}")

rng = np.random.default_rng(0)
c = rng.normal(size=len(lattice))
f = c @ duals
print("moment problem: coefficients recovered with error",
      f"{np.abs(atoms.conj() @ f - c).max():.2e}")

ortho, ortho_dev = orthonormalize(rs)
print(f"orthonormalized family deviation: {ortho_dev:.2e}")
print("Gramian envelope attached:", rs.gram.envelope is not None)
