"""Weighted amalgam quasi-norms, maximal functions and weights on three models.

The local maximal function runs a max over the fixed unit neighborhood Q; its
weighted quasi-norm defines the Wiener amalgam spaces.  On the affine group the
modular function forces genuine p-weights to grow, which symmetrize_weight
produces from any submultiplicative seed.
"""

import numpy as np

from coorbitkit import (
    GridFunction,
    QuasiNormSpec,
    amalgam_norm,
    build_affine_grid,
    build_cyclic_phase_space,
    build_real_line,
    convolution_relation_check,
    indicator,
    lpw_norm,
    maximal_left,
    measure_QxQ,
    symmetrize_weight,
    validate_p_weight,
)

print("-- real line ------------------------------------------------------")
line = build_real_line(8.0, 0.01)
box = indicator(line, np.nonzero((line.coords > 2.0) & (line.coords < 3.0))[0])
print(f"box on (2,3): L^1 mass {lpw_norm(box, QuasiNormSpec(p=1.0)):.3f}, "
      f"W^L(L^1) mass {amalgam_norm(box, QuasiNormSpec(p=1.0, flavor='left')):.3f}")
print("maximal function support grows by Q = (-1,1) on both sides:",
      f"{(maximal_left(box).values.real > 0).sum() * line.step:.2f}")

print()
print("-- cyclic phase space --------------------------------------------")
cyc = build_cyclic_phase_space(8)
w = symmetrize_weight(cyc, np.ones(cyc.size), 0.5)
report = validate_p_weight(cyc, w.values, 0.5)
print(f"unit weight on an exact model: all axioms pass = {report.passed}")
rng = np.random.default_rng(1)
f1 = GridFunction(cyc, rng.normal(size=64) + 0j)
f2 = GridFunction(cyc, rng.normal(size=64) + 0j)
rel = convolution_relation_check(f1, f2, QuasiNormSpec(p=0.5, weight=w), w)
print(f"convolution relation, Y = L^(1/2)_w: empirical constant "
      f"{rel.empirical_constant:.4f}; pointwise maximal estimates hold = "
      f"{rel.maximal_estimates_hold}")

print()
print("-- affine group ---------------------------------------------------")
aff = build_affine_grid(4.0, 0.05, 1.0 / 16.0, 16.0, 1.05)
w1 = symmetrize_weight(aff, np.ones(aff.size), 1.0)
print("symmetrizing the unit weight against the modular function gives "
      f"max(1, a); range [{w1.values.min():.3f}, {w1.values.max():.3f}]")
paper_weight = 1.0 + np.tile(aff.a_coords, aff.n_x)  # point j*n_a + m has scale a_m
rep = validate_p_weight(aff, paper_weight, 1.0)
print(f"w(x,a) = 1 + a is a genuine 1-weight: (w3) deviation {rep.w3_max_rel_dev:.1e}")
print(f"mu(Q) by quadrature: {aff.q_mass():.3f} (closed form: 3)")
vals = [measure_QxQ(aff, aff.index_of((0.0, aff.a_coords[np.argmin(np.abs(aff.a_coords - s))])))
        for s in (1.0, 0.5, 0.25)]
print("mu(QxQ) at scales 1, 1/2, 1/4:", " -> ".join(f"{v:.2f}" for v in vals),
      " (unbounded: not an IN group)")
