"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Exact-model identities are checked exhaustively at machine-level tolerances;
quadrature models carry the documented discretization budgets.
"""

import time

import numpy as np
import pytest

from _oracles import reproducing_check, translate_left
from coorbitkit import (
    CDMatrix,
    CoorbitContext,
    GridFunction,
    KernelSystem,
    QuasiNormSpec,
    SampleSet,
    SequenceSpaceSpec,
    amalgam_norm,
    build_almost_tight_frame,
    build_cyclic_phase_space,
    build_riesz_system,
    calibrate_constants,
    convolve,
    dual_frame,
    embedding_check,
    extend_operator_check,
    gabor_representation,
    gaussian_window,
    biorthogonal_system,
    involution,
    lpw_norm,
    matrix_holomorphic,
    maximal_left,
    maximal_right,
    minimal_envelope,
    orthonormalize,
    product_with_envelope,
    rayleigh_extremes,
    schur_bounds,
    sequence_norm,
    symmetrize_weight,
    unit_weight,
    verify_envelope,
    voice_transform,
)
from coorbitkit import experiments as ex
from coorbitkit.frames import reconstruction_error


def _announce(number: int, label: str, passed: bool, detail: str = ""):
    flag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{flag}] criterion {number}: {label}{suffix}")


def lattice(model, step):
    n = model.n_side
    return SampleSet(model=model, points=np.array(
        [k * n + l for k in range(0, n, step) for l in range(0, n, step)]))


def block(model, size):
    n = model.n_side
    return np.array([(k % n) * n + (l % n) for k in range(size) for l in range(size)])


def test_criterion_1_realline_counterexample():
    start = time.perf_counter()
    report = ex.run_counterexample_realline(t_list=(1.0, 2.0, 3.0),
                                            half_width=12.0, step=0.005)
    elapsed = time.perf_counter() - start
    by_name = {m.name: m for m in report.metrics}
    checks = {
        "runtime": elapsed < 5.0,
        "growth": by_name["ratio_growth"].passed,
    }
    for t in (1, 2, 3):
        checks[f"conv0_T{t}"] = abs(by_name[f"conv_at_zero_T{t}"].value - 1.0) <= 0.01
        checks[f"amalgam_T{t}"] = by_name[f"f_amalgam_T{t}"].passed
    growth = by_name["ratio_growth"].value
    checks["growth_value"] = abs(growth / np.e ** 4 - 1.0) <= 0.10
    passed = all(checks.values())
    _announce(1, "real-line counterexample", passed,
              f"R(3)/R(1)={growth:.2f}, {elapsed:.2f}s")
    assert passed, checks


def test_criterion_2_affine_counterexample():
    start = time.perf_counter()
    report = ex.run_counterexample_affine(alpha=2.0, beta=0.5,
                                          targets=(1.0, 2.0, 4.0, 8.0),
                                          b_list=(16.0, 64.0))
    elapsed = time.perf_counter() - start
    by_name = {m.name: m for m in report.metrics}
    checks = {"runtime": elapsed < 30.0}
    for a0 in (1, 2, 4, 8):
        metric = by_name[f"selfconv_a{a0}"]
        checks[f"selfconv_a{a0}"] = metric.value >= 0.95 * a0 ** -0.5
    ratio = by_name["norm_growth_ratio"].value
    checks["growth"] = ratio >= 1.8
    passed = all(checks.values())
    _announce(2, "affine counterexample", passed,
              f"norm(64)/norm(16)={ratio:.2f}, {elapsed:.2f}s")
    assert passed, checks


def test_criterion_3_exact_gabor_identities():
    start = time.perf_counter()
    tol = 1e-10
    checks = {}
    for n in (4, 8):
        model = build_cyclic_phase_space(n)
        rep = gabor_representation(model)
        g = gaussian_window(model)
        size = model.size
        idx = np.arange(size)

        x, y, z = np.meshgrid(idx, idx, idx, indexing="ij")
        lhs = model.cocycle_values(x, model.mul_indices(y, z)) * model.cocycle_values(y, z)
        rhs = model.cocycle_values(model.mul_indices(x, y), z) * model.cocycle_values(x, y)
        checks[f"cocycle_N{n}"] = float(np.abs(lhs - rhs).max()) <= tol

        prods = np.einsum("iab,jbc->ijac", rep.matrices, rep.matrices)
        i, j = np.meshgrid(idx, idx, indexing="ij")
        expected = model.cocycle_values(i, j)[:, :, None, None] \
            * rep.matrices[model.mul_indices(i, j)]
        checks[f"projective_N{n}"] = float(np.abs(prods - expected).max()) <= tol

        rng = np.random.default_rng(n)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        vf = voice_transform(rep, g, f)
        worst = 0.0
        for xi in range(size):
            a = voice_transform(rep, g, rep.apply(xi, f)).values
            b = translate_left(vf, xi, twisted=True).values
            worst = max(worst, float(np.abs(a - b).max()))
        checks[f"intertwining_N{n}"] = worst <= tol

        checks[f"reproducing_N{n}"] = reproducing_check(rep, g, h, f) <= tol

        func = GridFunction(model, rng.normal(size=size) + 1j * rng.normal(size=size))
        invol_gap = np.abs(involution(maximal_left(func)).values
                           - maximal_right(involution(func)).values).max()
        checks[f"maximal_involution_N{n}"] = float(invol_gap) <= tol

        worst = 0.0
        for xi in range(size):
            a = maximal_left(translate_left(func, xi)).values
            b = translate_left(maximal_left(func), xi).values
            worst = max(worst, float(np.abs(a - b).max()))
        checks[f"maximal_commutation_N{n}"] = worst <= tol
    elapsed = time.perf_counter() - start
    checks["runtime"] = elapsed < 5.0
    passed = all(checks.values())
    _announce(3, "exact Gabor identities (N=4, 8)", passed, f"{elapsed:.2f}s")
    assert passed, checks


def test_criterion_4_almost_tight_frames():
    start = time.perf_counter()
    checks = {}
    for n in (4, 8):
        model = build_cyclic_phase_space(n)
        rep = gabor_representation(model)
        ks = KernelSystem.build(rep, gaussian_window(model))
        fs = build_almost_tight_frame(ks, lattice(model, 1),
                                      np.array([model.identity]))
        dev = float(np.abs(fs.frame_operator - np.eye(n)).max())
        checks[f"full_lattice_identity_N{n}"] = dev <= 1e-10

    model = build_cyclic_phase_space(16)
    rep = gabor_representation(model)
    ks = KernelSystem.build(rep, gaussian_window(model))
    n = model.n_side
    ratios = []
    for sk, sl in ((2, 4), (2, 2), (1, 1)):
        pts = np.array([k * n + l for k in range(0, n, sk) for l in range(0, n, sl)])
        u = np.array([(k % n) * n + (l % n) for k in range(sk) for l in range(sl)])
        fs = build_almost_tight_frame(ks, SampleSet(model=model, points=pts), u)
        a, b = fs.bounds
        checks[f"lower_bound_positive_{sk}x{sl}"] = a > 0.1
        ratios.append(b / a)
    checks["monotone_refinement"] = all(
        r1 >= r2 - 1e-3 for r1, r2 in zip(ratios, ratios[1:]))
    checks["tight_limit"] = abs(ratios[-1] - 1.0) <= 1e-10
    elapsed = time.perf_counter() - start
    checks["runtime"] = elapsed < 5.0
    passed = all(checks.values())
    _announce(4, "almost-tight frames", passed,
              "B/A = " + " -> ".join(f"{r:.4f}" for r in ratios) + f", {elapsed:.2f}s")
    assert passed, checks


def test_criterion_5_dual_frames_of_molecules():
    start = time.perf_counter()
    model = build_cyclic_phase_space(8)
    rep = gabor_representation(model)
    g = gaussian_window(model)
    ks = KernelSystem.build(rep, g)
    lam = lattice(model, 2)
    fs = build_almost_tight_frame(ks, lam, block(model, 2))
    duals = dual_frame(fs)

    direct = np.linalg.solve(fs.frame_operator, (fs.tau[:, None] * fs.atoms).T).T
    neumann_gap = float(np.abs(duals - direct).max())
    recon = reconstruction_error(fs, duals)

    # series majorant for the dual envelope, built from the kernel of S - id
    kern = ks.kernel_matrix[:, lam.points]
    l_kernel = (kern * fs.tau[None, :]) @ kern.conj().T - ks.kernel_matrix
    size = model.size
    psi_eps = np.zeros(size)
    all_idx = np.arange(size)
    for y in range(size):
        zpos = model.div_indices(np.full(size, y), all_idx)
        np.maximum.at(psi_eps, zpos, np.abs(l_kernel[all_idx, y]))
    inv = model.inv_indices(all_idx)
    psi_eps = np.maximum(psi_eps, psi_eps[inv])
    vgg = np.abs(voice_transform(rep, g, g).values)
    phi_atom = fs.tau.max() * np.maximum(vgg, vgg[inv])
    dev = float(np.linalg.norm(fs.frame_operator - np.eye(8), 2))
    n_terms = 60
    majorant = phi_atom.copy()
    power = GridFunction(model, psi_eps + 0j)
    psi_fn = GridFunction(model, psi_eps + 0j)
    for _ in range(n_terms):
        majorant = majorant + fs.tau.max() * power.values.real
        power = convolve(power, psi_fn)
    majorant = majorant + fs.tau.max() * dev ** (n_terms + 1) / (1 - dev)
    dual_env = fs.certificates["dual"].envelope.values.real
    envelope_ok = bool(np.all(dual_env <= majorant + 1e-8))

    elapsed = time.perf_counter() - start
    checks = {
        "neumann_matches_direct": neumann_gap <= 1e-9,
        "reconstruction": recon <= 1e-9,
        "envelope_majorant": envelope_ok,
        "runtime": elapsed < 10.0,
    }
    passed = all(checks.values())
    _announce(5, "dual frames of molecules", passed,
              f"neumann gap {neumann_gap:.1e}, recon {recon:.1e}, {elapsed:.2f}s")
    assert passed, checks


def test_criterion_6_riesz_machinery():
    model = build_cyclic_phase_space(8)
    rep = gabor_representation(model)
    g = gaussian_window(model)
    ks = KernelSystem.build(rep, g)

    lam = lattice(model, 4)
    rs = build_riesz_system(ks, lam)
    duals, _ = biorthogonal_system(rs)
    atoms = rep.orbit(g)[lam.points]
    bio_dev = float(np.abs(atoms.conj() @ duals.T - np.eye(len(lam))).max())
    ortho, _ = orthonormalize(rs)
    ortho_dev = float(np.abs(ortho @ ortho.conj().T - np.eye(len(lam))).max())

    lo, hi = rs.bounds
    olo, ohi = rayleigh_extremes(rs.gram.entries)
    fs = build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
    fa, fb = fs.bounds
    ofa, ofb = rayleigh_extremes(fs.frame_operator)

    checks = {
        "biorthogonality": bio_dev <= 1e-9,
        "orthonormalization": ortho_dev <= 1e-9,
        "riesz_oracle": abs(lo - olo) <= 1e-6 and abs(hi - ohi) <= 1e-6,
        "frame_oracle": abs(fa - ofa) <= 1e-6 and abs(fb - ofb) <= 1e-6,
    }
    passed = all(checks.values())
    _announce(6, "Riesz machinery", passed,
              f"bio {bio_dev:.1e}, ortho {ortho_dev:.1e}")
    assert passed, checks


def _random_localized(model, sample, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n = model.n_side
    idx = np.arange(model.size)
    prof = np.exp(-1.2 * (np.minimum(idx // n, n - idx // n)
                          + np.minimum(idx % n, n - idx % n)))
    z = model.div_indices(sample.points[None, :], sample.points[:, None])
    mags = prof[z] * rng.random(z.shape) * scale
    phases = np.exp(2j * np.pi * rng.random(z.shape))
    cdm = CDMatrix(rows=sample, cols=sample, entries=mags * phases)
    cdm.envelope = minimal_envelope(cdm)
    return cdm


def test_criterion_7_cd_matrix_soundness():
    model = build_cyclic_phase_space(8)
    full = SampleSet(model=model, points=np.arange(64))
    schur_violations = 0
    for seed in range(50):
        cdm = _random_localized(model, full, seed)
        bounds = schur_bounds(cdm)
        if bounds["measured_op_norm"] > bounds["op_bound_l2"] + 1e-12:
            schur_violations += 1

    a = _random_localized(model, full, 1001)
    b = _random_localized(model, full, 1002)
    prod = product_with_envelope(a, b)
    prod_check = verify_envelope(prod, prod.envelope)

    lam = SampleSet(model=model, points=np.arange(0, 64, 2))
    perturb = _random_localized(model, lam, 1003)
    scale = 0.4 / np.linalg.norm(perturb.entries, 2)
    mat = CDMatrix(rows=lam, cols=lam, entries=np.eye(32) + scale * perturb.entries)
    mat.envelope = minimal_envelope(mat)
    tail_tol = 1e-10
    inv = matrix_holomorphic(mat, "inverse", tail_tol=tail_tol)
    direct = np.linalg.inv(mat.entries)
    inverse_gap = float(np.abs(inv.entries - direct).max())
    inv_check = verify_envelope(inv, inv.envelope)

    checks = {
        "schur_sound": schur_violations == 0,
        "product_envelope": prod_check["holds"] and prod_check["max_excess"] == 0.0,
        "series_inverse": inverse_gap <= 1e-9,
        "inverse_envelope": inv_check["max_excess"] <= tail_tol,
    }
    passed = all(checks.values())
    _announce(7, "CD-matrix soundness", passed,
              f"0/50 Schur violations, inverse gap {inverse_gap:.1e}")
    assert passed, checks


def test_criterion_8_quasi_norm_structure():
    model = build_cyclic_phase_space(8)
    lam = lattice(model, 2)
    rng = np.random.default_rng(88)
    failures = 0
    pairs = 1000
    for p in (1.0 / 3.0, 0.5, 1.0):
        plain = QuasiNormSpec(p=p)
        left = QuasiNormSpec(p=p, flavor="left")
        sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=p), sample=lam)
        for _ in range(pairs):
            f = rng.normal(size=64) + 1j * rng.normal(size=64)
            h = rng.normal(size=64) + 1j * rng.normal(size=64)
            gf, gh = GridFunction(model, f), GridFunction(model, h)
            gs = GridFunction(model, f + h)
            if lpw_norm(gs, plain) ** p > (lpw_norm(gf, plain) ** p
                                           + lpw_norm(gh, plain) ** p) * (1 + 1e-10):
                failures += 1
            if amalgam_norm(gs, left) ** p > (amalgam_norm(gf, left) ** p
                                              + amalgam_norm(gh, left) ** p) * (1 + 1e-10):
                failures += 1
            c1 = rng.normal(size=16) + 1j * rng.normal(size=16)
            c2 = rng.normal(size=16) + 1j * rng.normal(size=16)
            if sequence_norm(c1 + c2, sspec) ** p > (sequence_norm(c1, sspec) ** p
                                                     + sequence_norm(c2, sspec) ** p) * (1 + 1e-10):
                failures += 1
    passed = failures == 0
    _announce(8, "quasi-norm p-triangle structure", passed,
              f"{3 * pairs} pairs x 3 exponents, {failures} failures")
    assert passed


def test_criterion_9_coorbit_factorizations():
    model = build_cyclic_phase_space(8)
    rep = gabor_representation(model)
    g = gaussian_window(model)
    ks = KernelSystem.build(rep, g)
    lam = lattice(model, 2)
    fs = build_almost_tight_frame(ks, lam, block(model, 2))
    p = 0.5
    w = symmetrize_weight(model, np.ones(model.size), p)
    duals = dual_frame(fs, p=p, weight=w)

    ctx_y = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
    ctx_z = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0, weight=w), w, p)
    emb = embedding_check(ctx_y, ctx_z, lam, fs.atoms, duals)
    emb_same = embedding_check(ctx_y, ctx_y, lam, fs.atoms, duals)

    ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0), unit_weight(model), 1.0)
    duals1 = dual_frame(build_almost_tight_frame(ks, lam, block(model, 2)), p=1.0)
    cal = calibrate_constants(ctx, lam)
    rng = np.random.default_rng(99)
    coeff = rng.normal(size=model.size) * np.exp(-np.arange(model.size) / 8.0)
    conv_t = np.einsum("n,nij->ij", coeff * model.haar, rep.matrices)
    tested = {
        "identity": np.eye(8),
        "shift": rep.action(11),
        "conv_type": conv_t,
    }
    op_results = {name: extend_operator_check(ctx, t, lam, duals1, cal)
                  for name, t in tested.items()}

    checks = {
        "embedding_half_to_one": emb["pass"],
        "embedding_same_space": emb_same["pass"],
    }
    for name, res in op_results.items():
        checks[f"operator_{name}"] = res["pass"]
    passed = all(checks.values())
    _announce(9, "coorbit-level factorizations", passed,
              f"embedding {emb['measured']:.3f} <= {emb['certificate_bound']:.3f}")
    assert passed, checks


def test_criterion_10_in_diagnostic():
    report = ex.run_in_diagnostic("all")
    by_name = {m.name: m for m in report.metrics}
    growth = by_name["affine_growth_factor"].value
    checks = {
        "line_constant": by_name["line_spread"].passed,
        "cyclic_constant": by_name["cyclic_spread"].passed,
        "affine_monotone": by_name["affine_monotone_growth"].passed,
        "affine_growth": growth >= 3.0,
    }
    passed = all(checks.values())
    _announce(10, "IN-group diagnostic", passed, f"affine growth {growth:.1f}x")
    assert passed, checks
