"""Independent oracles used by the tests.

These deliberately avoid the library's vectorized code paths: the cyclic-group
oracle works on explicit (k, l) tuples with dict lookups, the generic
neighbourhood oracles call the scalar ``mul`` once per pair, the Gabor
representation is an explicit matrix stack built in nested loops, the frame
kernel is summed atom by atom from the dense kernel table, matrix functions
come from a plain eigendecomposition (and frame operators also from the series
around I, with its eigendecomposition fallback, the oracle of the relaxed
series), and the affine group law is one exact scalar (a Fraction) per pair
of cells of the per-point affine carrier.  One section keeps the GridFunction compositions
that the amalgam-norm kernel, the molecule bound, the pair check and the direct
holomorphic envelopes replaced, the power series with its coefficients built
eagerly, the convolution read through a y^{-1} x index table, the envelope
bins filled one scalar product at a time, the window max that reads every
window entry and the generic local-max loop over the Q-translates, so the
tests can pin those to them bit for bit.
The next section states paper identities on library primitives (the
translates, the reproducing formula, the shifted-series bound and the
measured coefficient norm), and the last one holds helpers that only the
tests call: the identity CD-matrix and the per-point affine coordinates.
"""

import itertools
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from coorbitkit import CDMatrix, CoorbitContext, GridFunction, KernelSystem, QuasiNormSpec, \
    Representation, SampleSet, convolve, coorbit_norm, fit_envelope, maximal_left, maximal_right, minimal_envelope, product_with_envelope, rel_separation, \
    twisted_convolve, unit_weight
from coorbitkit.cdmatrix import _MAX_DEVIATION, _series_apply, _series_coefficients
from coorbitkit.coorbit import _coefficient_norm, _stack
from coorbitkit.errors import IncompatibleOperandsError, InvalidParameterError
from coorbitkit.experiments import _partial_norm_axes, _scale_selfconvolution
from coorbitkit.groups import GroupModel, _block_items, _check_side, build_affine_grid, padded
from coorbitkit.sampling import molecule_bound, pair_check

ABSENT = -1


def mul(model, i, j) -> int:
    """The index of x_i x_j for two scalar indices, ABSENT off the grid."""
    return int(model.mul_indices(np.asarray(i), np.asarray(j)))


def inv(model, i) -> int:
    """The index of x_i^{-1} for a scalar index, ABSENT off the grid."""
    return int(model.inv_indices(np.asarray(i)))


def cyclic_points(n):
    return [(k, l) for k in range(n) for l in range(n)]


def cyclic_sigma(n, x, y):
    return np.exp(-2j * np.pi * x[0] * y[1] / n)


def brute_twisted_convolve(n, v1, v2, twisted=True):
    """Direct double loop over Z_N x Z_N with Haar weight 1/N per point."""
    pts = cyclic_points(n)
    index = {p: i for i, p in enumerate(pts)}
    out = np.zeros(len(pts), dtype=complex)
    mu = 1.0 / n
    for xi, x in enumerate(pts):
        acc = 0.0 + 0.0j
        for yi, y in enumerate(pts):
            z = ((x[0] - y[0]) % n, (x[1] - y[1]) % n)  # y^{-1} x
            phase = cyclic_sigma(n, y, z) if twisted else 1.0
            acc += v1[yi] * phase * v2[index[z]] * mu
        out[xi] = acc
    return out


def brute_maximal_left(n, v):
    """max over the 3x3 Q block of |v| at x*q, explicit tuple arithmetic."""
    pts = cyclic_points(n)
    index = {p: i for i, p in enumerate(pts)}
    offs = sorted({o % n for o in (-1, 0, 1)})
    out = np.zeros(len(pts))
    for xi, x in enumerate(pts):
        out[xi] = max(
            abs(v[index[((x[0] + dk) % n, (x[1] + dl) % n)]])
            for dk in offs for dl in offs
        )
    return out


def eig_apply(s, fn):
    """Matrix function via eigendecomposition (oracle for the power series)."""
    vals, vecs = np.linalg.eigh(np.asarray(s))
    return (vecs * fn(vals)) @ vecs.conj().T


def unrelaxed_frame_phi(fs, phi, tail_tol=1e-12):
    """(phi(S), terms) by the series around I while ||S - I||_2 < 0.999, else eigh (0 terms)."""
    if fs.deviation < 0.999:
        return _series_apply(fs.frame_operator, phi, tail_tol)[:2]
    return eig_apply(fs.frame_operator, {"inverse": lambda v: 1.0 / v,
                                         "inverse_sqrt": lambda v: v ** -0.5}[phi]), 0


def brute_rel_separation(model, points):
    """Count distinct sample points inside xQ by scanning every x and q pair."""
    best = 0
    pts = set(int(p) for p in points)
    for x in range(model.size):
        found = set()
        for q in model.q_indices:
            t = mul(model, x, int(q))
            if t in pts:
                found.add(t)
        best = max(best, len(found))
    return best


# ---------------------------------------------------------------------------
# generic neighbourhood oracles: one scalar ``model.mul`` call per (x, q) pair,
# absent products skipped explicitly; valid on every model


def brute_maximal(model, values, side="left"):
    """M^L F(x) = max_q |F(xq)| (side="left") or M^R F(x) = max_q |F(qx)| ("right")."""
    mag = np.abs(values)
    out = np.zeros(model.size)
    for x in range(model.size):
        for q in model.q_indices:
            t = mul(model, x, int(q)) if side == "left" else mul(model, int(q), x)
            if t >= 0:
                out[x] = max(out[x], mag[t])
    return out


def brute_sequence_accumulator(model, points, coeffs, q_indices):
    """sum_i |c_i| 1_{lambda_i Q}, added in the library's order (q outer, i inner).

    1_{lambda_i Q} is an indicator, so a product lambda_i q that an earlier q
    already gave for the same lambda_i is skipped.
    """
    acc = np.zeros(model.size)
    seen = set()
    for q in q_indices:
        for lam, c in zip(points, np.abs(coeffs)):
            t = mul(model, int(lam), int(q))
            if t >= 0 and (int(lam), t) not in seen:
                seen.add((int(lam), t))
                acc[t] += c
    return acc


def brute_translate_sets(model, points, u):
    """The on-grid part of lambda_i U as a set, for every sample point lambda_i."""
    sets = []
    for lam in points:
        products = (mul(model, int(lam), int(uj)) for uj in u)
        sets.append({t for t in products if t >= 0})
    return sets


def brute_is_dense(model, points, u):
    """The translates lambda_i U cover the carrier."""
    return set().union(*brute_translate_sets(model, points, u)) == set(range(model.size))


def brute_is_separated(model, points, u):
    """The translates lambda_i U are pairwise disjoint."""
    sets = brute_translate_sets(model, points, u)
    return all(not (a & b) for i, a in enumerate(sets) for b in sets[i + 1:])


def brute_cover_owners(model, points, u):
    """Owner of each carrier point in the greedy cover: the first i with y in lambda_i U."""
    owner = np.full(model.size, -1)
    for rank, cell in enumerate(brute_translate_sets(model, points, u)):
        for t in cell:
            if owner[t] == -1:
                owner[t] = rank
    return owner


def brute_max_separated_subset(model, u):
    """Greedy scan in carrier order keeping x when xU misses every kept translate."""
    blocked, chosen = set(), []
    for cell, x in zip(brute_translate_sets(model, range(model.size), u), range(model.size)):
        if not cell & blocked:
            chosen.append(x)
            blocked |= cell
    return chosen


# ---------------------------------------------------------------------------
# dense Gabor oracles: the representation as an explicit n x N x N matrix stack


def brute_gabor_matrices(n):
    """pi(k,l) = diag(exp(2 pi i l t / N)) T_k, one N x N matrix per carrier point k N + l."""
    t = np.arange(n)
    mats = np.zeros((n * n, n, n), dtype=complex)
    for k in range(n):
        shift = np.zeros((n, n))
        shift[t, (t - k) % n] = 1.0
        for l in range(n):
            phase = np.exp(2j * np.pi * l * t / n)
            mats[k * n + l] = phase[:, None] * shift
    return mats


def brute_frame_kernel_excess(model, kernel_matrix, points, tau, bound):
    """Scaled max excess of |H(x, y)| over bound(y^{-1} x) on every pair (x, y).

    H = sum_i tau_i K_{lam_i} conj(K_{lam_i}) is summed one atom at a time from the
    dense kernel table, and y^{-1} x comes from the scalar group law.
    """
    h = np.zeros((model.size, model.size), dtype=complex)
    for lam, t in zip(points, tau):
        k = kernel_matrix[:, lam]
        h += t * np.outer(k, k.conj())
    lhs, rhs = [], []
    for x in range(model.size):
        for y in range(model.size):
            z = mul(model, inv(model, y), x)
            lhs.append(abs(h[x, y]))
            rhs.append(bound[z] if z >= 0 else np.inf)
    lhs, rhs = np.array(lhs), np.array(rhs)
    scale = max(1.0, float(rhs[np.isfinite(rhs)].max(initial=0.0)))
    return float((lhs - rhs).max()) / scale


def brute_is_covariant(fs) -> bool:
    """Whether the sample holds the identity and every product lambda_i lambda_j, and tau is
    constant: all m^2 products, formed in one broadcast."""
    model, points = fs.sample.model, fs.sample.points
    if model.identity not in points or not np.all(fs.tau == fs.tau[0]):
        return False
    return bool(np.isin(model.mul_indices(points[:, None], points[None, :]), points).all())


def brute_envelope(model, orbit_g, atoms, points):
    """Unsymmetrized sampled envelope: one matvec per atom, one scalar max per (i, x)."""
    phi = np.zeros(model.size)
    for i, lam in enumerate(points):
        v = np.abs(orbit_g.conj() @ atoms[i])
        for x in range(model.size):
            z = int(model.div_indices(int(lam), x))
            if z >= 0:
                phi[z] = max(phi[z], v[x])
    return phi


# ---------------------------------------------------------------------------
# affine carrier: per-point expressions, no use of the separable structure


def _affine_rule(x_half_width, x_step, a_min, a_max, a_ratio):
    """k_max, m_lo, m_hi of the affine grid, the grid rule written out on its own.

    Scale exponents round(log(a)/ln r) anchored at a = 1, floor(x_half_width/x_step)
    x-cells on each side of 0.
    """
    lnr = np.log(float(a_ratio))
    return (int(np.floor(x_half_width / float(x_step) + 1e-9)),
            int(round(np.log(a_min) / lnr)), int(round(np.log(a_max) / lnr)))


def per_point_affine_arrays(x_half_width, x_step, a_min, a_max, a_ratio):
    """coords, haar, modular and q_indices of the affine carrier, built point by point.

    The grid follows ``_affine_rule``; point (j, m) is at index j*n_a + m.
    """
    x_step = float(x_step)
    a_ratio = float(a_ratio)
    lnr = np.log(a_ratio)
    k_max, m_lo, m_hi = _affine_rule(x_half_width, x_step, a_min, a_max, a_ratio)
    n_a = m_hi - m_lo + 1
    idx = np.arange((2 * k_max + 1) * n_a)
    xs = (np.arange(2 * k_max + 1) - k_max)[idx // n_a] * x_step
    avs = (a_ratio ** np.arange(m_lo, m_hi + 1))[idx % n_a]
    return {
        "coords": np.column_stack([xs, avs]),
        "haar": x_step * lnr / avs,
        "modular": 1.0 / avs,
        "q_indices": np.nonzero((np.abs(xs) < 1.0) & (avs > 0.5) & (avs < 2.0))[0],
    }


def _affine_scalar_group(params):
    """The carrier's cells as (j, m, a) tuples, the index of a cell, and k_max.

    Cell (j, m) is the point ((j - k_max) x_step, a), a = a_ratio**m as an exact
    Fraction; ``index(j, m)`` is its carrier index, or ABSENT when either leaves
    the grid.
    """
    k_max, m_lo, m_hi = _affine_rule(*params)
    n_a = m_hi - m_lo + 1
    coords = per_point_affine_arrays(*params)["coords"]
    cells = [(i // n_a, m_lo + i % n_a, Fraction(a)) for i, (_, a) in enumerate(coords)]

    def index(j, m):
        return j * n_a + (m - m_lo) if 0 <= j <= 2 * k_max and m_lo <= m <= m_hi else ABSENT

    return cells, index, k_max


def brute_affine_mul(*params):
    """Index of p_i p_j for every pair of carrier points, one exact scalar per pair.

    (j, m)(j', m') = (j + round(a (j' - k)), m + m'): the increment a (j' - k) is
    rounded, a half-integer to even, and the scale exponents add.
    """
    cells, index, k = _affine_scalar_group(params)
    return np.array([[index(j + round(a * (j2 - k)), m + m2) for j2, m2, _ in cells]
                     for j, m, a in cells])


def brute_affine_inv(*params):
    """Index of p_i^{-1} = (k - round(a' (j - k)), -m) for every point, a' = a_ratio**-m."""
    cells, index, k = _affine_scalar_group(params)
    scale = {m: a for _, m, a in cells}
    return np.array([index(k - round(scale[-m] * (j - k)), -m) if -m in scale else ABSENT
                     for j, m, _ in cells])


def brute_affine_selfconvolution(model, alpha, beta, targets):
    """(f^vee * f)(0, a0) as the Haar sum of f^vee(x, a) f(-x/a, a0/a) over every carrier point.

    f(x, a) = e^{-|x|} min{a^alpha, a^{-beta}}, evaluated at each point of
    ``affine_coords(model)``.
    """

    def f(x, a):
        return np.exp(-np.abs(x)) * np.minimum(a ** alpha, a ** (-beta))

    x, a = affine_coords(model).T
    fvee = f(-x / a, 1.0 / a)
    return np.array([float((fvee * f(-x / a, a0 / a) * model.haar).sum()) for a0 in targets])


def masked_partial_norms(alpha, beta, b_list, x_step, a_ratio):
    """``_affine_partial_norms`` with its minorant as a full masked max: H(0, b') over every
    scale b' in (b/2, 2b), put on every carrier point with |y| < b by ``np.where``."""
    model = build_affine_grid(*_partial_norm_axes(max(b_list), x_step, a_ratio))
    c_ratio = 1.0 + 2.0 * (a_ratio - 1.0)
    lnr_c = np.log(c_ratio)
    c_grid = c_ratio ** np.arange(int(np.floor(np.log(1e-3) / lnr_c)),
                                  int(np.ceil(np.log(1e3) / lnr_c)) + 1)
    xg, ag = model.x_coords, model.a_coords
    upper = _scale_selfconvolution(xg[len(xg) // 2:], ag, alpha, beta, c_grid, lnr_c)
    ml = model.local_max(np.concatenate([upper[:0:-1], upper]).reshape(-1), "left")
    window = (ag[None, :] > ag[:, None] / 2.0) & (ag[None, :] < 2.0 * ag[:, None])
    level = np.where(window, upper[0][None, :], 0.0).max(axis=1)
    ml = np.maximum(ml.reshape(len(xg), len(ag)),
                    np.where(np.abs(xg)[:, None] < ag[None, :], level[None, :], 0.0))
    weight = (1.0 + ag) * model.scale_haar
    return {b: float((ml * (weight * ((ag >= 1.0) & (ag <= b)))[None, :]).sum())
            for b in b_list}


def brute_scale_selfconvolution(y, b, alpha, beta, c_grid, lnr):
    """(f^vee * f)(y, b) for broadcastable y and b, accumulated one scale node c at a time.

    Each node adds m(1/c) m(b/c) e^{-|y|/c} (1 + |y|/c) ln r over the whole
    broadcast shape, with m(s) = min{s^alpha, s^-beta}.
    """
    yy, bb = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(b, dtype=float))
    out = np.zeros(yy.shape)
    m1 = np.minimum(c_grid ** (-alpha), c_grid ** beta)
    for m1c, c in zip(m1, c_grid):
        u = np.abs(yy) / c
        m2 = np.minimum((bb / c) ** alpha, (c / bb) ** beta)
        out += m1c * m2 * np.exp(-u) * (1.0 + u) * lnr
    return out


# ---------------------------------------------------------------------------
# the compositions the norm kernel, the molecule bound, the pair check, the
# direct holomorphic envelopes, the lazy series coefficients, the left
# translates and the doubling window max replaced


def composed_amalgam_norm(f, spec):
    """L^p_w of the flavor's maximal function, each step a complex GridFunction."""
    if spec.flavor == "left":
        f = maximal_left(f)
    elif spec.flavor == "right":
        f = maximal_right(f)
    elif spec.flavor == "two_sided":
        f = maximal_left(maximal_right(f))
    plain = QuasiNormSpec(p=spec.p, weight=spec.weight, flavor="plain")
    weight = np.ones(f.model.size) if plain.weight is None else plain.weight_values(f.model)
    weighted = np.abs(f.values) * weight
    if np.isinf(plain.p):
        return float(weighted.max()) if weighted.size else 0.0
    return float((weighted ** plain.p * f.model.haar).sum() ** (1.0 / plain.p))


def composed_sequence_norm(c, sspec):
    """The amalgam norm of the push sum sum_i |c_i| 1_{lambda_i Q}, wrapped in a GridFunction."""
    model = sspec.sample.model
    spread = model.q_spread(np.abs(np.asarray(c)), sspec.sample.points)
    return composed_amalgam_norm(GridFunction(model, spread), sspec.base)


def composed_product_envelope(a, b):
    """rel/mu(Q) * (M^L Theta * M^R Phi + M^L Phi * M^R Theta) for the product A B."""
    phi, theta = a.envelope, b.envelope
    factor = rel_separation(a.cols) / a.model.q_mass()
    return factor * (
        convolve(maximal_left(theta), maximal_right(phi)).values.real
        + convolve(maximal_left(phi), maximal_right(theta)).values.real
    )


def eager_series_apply(s, phi, tail_tol):
    """The unrelaxed power series with all 20,001 coefficients built before summing."""
    max_terms = 20_000
    coeffs = np.ones(max_terms + 1)
    if phi == "inverse_sqrt":
        for n in range(max_terms):
            coeffs[n + 1] = coeffs[n] * (n + 0.5) / (n + 1.0)
    d = np.eye(len(s)) - np.asarray(s, dtype=complex)
    dev = float(np.linalg.norm(d, 2))
    assert dev <= _MAX_DEVIATION
    result = np.eye(len(s), dtype=complex)
    power = np.eye(len(s), dtype=complex)
    for n in range(1, max_terms + 1):
        power = power @ d
        term = coeffs[n] * power
        result = result + term
        tail_bound = dev ** (n + 1) / (1.0 - dev)
        if float(np.linalg.norm(term, 2)) + tail_bound <= tail_tol:
            return result, n, tail_bound
    raise AssertionError("the series did not converge")


def composed_holomorphic_envelope(a, phi, tail_tol=1e-10):
    """The envelope of phi(A), each Theta^{(n+1)} read off the full product of CD-matrices."""
    _, n_terms, op_tail = _series_apply(a.entries, phi, tail_tol)
    diff = CDMatrix(rows=a.rows, cols=a.cols, entries=a.entries - np.eye(len(a.rows)))
    diff.envelope = minimal_envelope(diff)
    coeffs = list(itertools.islice(_series_coefficients(phi), n_terms + 1))
    env_vals = np.abs(coeffs[0]) * identity_cd(a.rows).envelope.values.real
    power = diff
    for n in range(1, n_terms + 1):
        env_vals = env_vals + abs(coeffs[n]) * power.envelope.values.real
        if n < n_terms:
            power = product_with_envelope(power, diff)
    return env_vals + op_tail


def inline_shifted_series_check(f1, f2, sample):
    """The shifted-series check with its bound, pairs and excess written out in place."""
    model = sample.model
    v1, v2 = f1.values.real, f2.values.real
    rel = rel_separation(sample)
    bound_fn = convolve(maximal_left(f2), maximal_right(f1)).values.real
    factor = rel / model.q_mass()
    xs, ys = np.divmod(np.arange(model.size ** 2), model.size)  # every pair, row-major
    v1_pad, v2_pad = padded(v1), padded(v2)
    lhs = np.zeros(xs.shape)
    for lam in sample.points:
        lhs += v1_pad[model.div_indices(lam, xs)] * v2_pad[model.div_indices(ys, lam)]
    rhs = factor * padded(bound_fn, np.inf)[model.div_indices(ys, xs)]
    scale = max(1.0, float(rhs[np.isfinite(rhs)].max(initial=0.0)))
    max_excess = float((lhs - rhs).max()) / scale
    with np.errstate(invalid="ignore"):
        ratios = np.where(rhs > 0, lhs / np.maximum(rhs, 1e-300), 0.0)
    return {
        "rel": rel,
        "pairs": int(xs.size),
        "max_excess": max_excess,
        "max_ratio": float(ratios[np.isfinite(ratios)].max(initial=0.0)),
        "holds": max_excess <= 1e-10,
    }


def inline_frame_kernel_check(fs):
    """The frame-kernel envelope check over all n^2 entries of the dense table of H."""
    ks = fs.kernel_system
    model = ks.rep.model
    weighted_atoms = np.sqrt(fs.tau)[:, None] * fs.atoms
    phi = fit_envelope(ks, weighted_atoms, fs.sample, 1.0, unit_weight(model)).envelope
    h = (ks.orbit.conj() @ fs.frame_operator) @ ks.orbit.T
    bound_fn = convolve(maximal_left(phi), maximal_right(phi)).values.real
    factor = rel_separation(fs.sample) / model.q_mass()
    carrier = np.arange(model.size)
    rhs = factor * padded(bound_fn, np.inf)[model.div_indices(carrier[None, :], carrier[:, None])]
    lhs = np.abs(h)
    scale = max(1.0, float(rhs[np.isfinite(rhs)].max(initial=0.0)))
    max_excess = float((lhs - rhs).max()) / scale
    return {"max_excess": max_excess, "holds": max_excess <= 1e-10, "pairs": int(lhs.size)}


def blocked_convolve(model, v1, v2, block=None, twisted=False):
    """The convolution, one row block at a time of the y^{-1} x table read padded, each
    entry times the cocycle if ``twisted``; the blocks are the library's unless given."""
    n = model.size
    block = _block_items(n) if block is None else block
    out = np.zeros(n, dtype=complex)
    weighted = v1 * model.haar
    for start in range(0, n, block):
        ys = np.arange(start, min(start + block, n))
        if np.any(weighted[ys]):
            z = GroupModel.div_indices(model, ys[:, None], np.arange(n)[None, :])
            # each entry is v2(z) sigma(y, z), the product the library forms before it
            # translates the modulated rows
            vals = padded(v2)[z] * model.cocycle_values(ys[:, None], z) if twisted \
                else padded(v2)[z]
            out += weighted[ys] @ vals
    return out


def brute_relative_max(model, mags, rows, cols):
    """Per bin cols_j^{-1} rows_i the max of mags[i, j], one scalar inv and mul per pair."""
    phi = np.zeros(model.size)
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            col_inv = inv(model, int(col))
            z = mul(model, col_inv, int(row)) if col_inv >= 0 else ABSENT
            if z >= 0:
                phi[z] = max(phi[z], mags[i, j])
    return phi


def brute_absent_pairs(is_absent, xs, ys):
    """#{(x, y) : y^{-1} x is off the grid}, one scalar ``is_absent(y, x)`` call per pair."""
    return sum(bool(is_absent(int(y), int(x))) for x, y in zip(xs, ys))


def sliding_window_max(values, lo, hi):
    """out[..., i] = max of values[..., i+lo .. i+hi], zero-padded, reading all w entries each."""
    values = np.asarray(values)
    pad = [(0, 0)] * (values.ndim - 1) + [(-lo, hi)]
    return sliding_window_view(np.pad(values, pad), hi - lo + 1, axis=-1).max(axis=-1)


def local_max_loop(model, mag, side="left"):
    """max over q in Q of ``mag`` ((..., n), nonnegative) at x·q (left) or q·x (right).

    The generic loop every model's ``local_max`` replaced, one gather per q; an
    absent product reads 0.
    """
    _check_side(side)
    x = np.arange(model.size)
    mag = padded(mag)
    out = np.zeros(mag.shape[:-1] + (model.size,))
    for q in model.q_indices:
        t = model.mul_indices(x, q) if side == "left" else model.mul_indices(q, x)
        np.maximum(out, mag[..., t], out=out)
    return out


# ---------------------------------------------------------------------------
# paper identities stated on library primitives: the translates L_x and R_x, the
# reproducing formula, the shifted-series bound through ``pair_check`` and the
# measured coefficient norm


def translate_left(f: GridFunction, x_index: int, twisted: bool = False) -> GridFunction:
    """L_x F(y) = F(x^{-1} y); the twisted variant multiplies by sigma(x, x^{-1}y)."""
    model = f.model
    z = model.div_indices(x_index, np.arange(model.size))
    out = padded(f.values)[z]
    if twisted:
        out *= model.cocycle_values(x_index, z)  # absent entries stay zero
    return GridFunction(model, out)


def translate_right(f: GridFunction, x_index: int, twisted: bool = False) -> GridFunction:
    """R_x F(y) = F(y x); the twisted variant multiplies by conj(sigma(y, x))."""
    model = f.model
    y = np.arange(model.size)
    z = model.translates(y, [x_index])[0]
    out = padded(f.values)[z]
    if twisted:
        out *= np.conj(model.cocycle_values(y, x_index))  # absent entries stay zero
    return GridFunction(model, out)


def reproducing_check(rep: Representation, g: np.ndarray, h: np.ndarray,
                      f: np.ndarray) -> float:
    """sup-norm error of the reproducing formula V_h f = V_g f *_sigma V_h g."""
    ks_g, ks_h = KernelSystem.form(rep, g), KernelSystem.form(rep, h)
    lhs = ks_h.voice(f)
    rhs = twisted_convolve(ks_g.voice(f), ks_h.voice(g))
    return float(np.abs(lhs.values - rhs.values).max())


def shifted_series_check(f1: GridFunction, f2: GridFunction, sample: SampleSet) -> dict:
    """Verify sum_i F1(lam_i^{-1} x) F2(y^{-1} lam_i) <= ``molecule_bound`` at y^{-1}x.

    Runs ``pair_check`` with every carrier point as a row.  Requires nonnegative inputs.
    """
    model = sample.model
    if f1.model is not model or f2.model is not model:
        raise IncompatibleOperandsError("grid functions must live on the sample's model")
    v1, v2 = padded(f1.values.real), padded(f2.values.real)
    if np.any(v1 < 0) or np.any(v2 < 0) or np.any(f1.values.imag) or np.any(f2.values.imag):
        raise InvalidParameterError("shifted series check needs nonnegative inputs")

    carrier = np.arange(model.size)

    def series(block):  # rows carrier[block] against every column y
        xs, ys = carrier[block, None], carrier[None, :]
        out = np.zeros((xs.size, model.size))
        for lam in sample.points:
            out += v1[model.div_indices(lam, xs)] * v2[model.div_indices(ys, lam)]
        return out

    rel = rel_separation(sample)
    return {"rel": rel, **pair_check(model, molecule_bound(rel, [(f2, f1)]), series, carrier)}


def measured_coefficient_norm(ctx: CoorbitContext, atoms, sample: SampleSet,
                              f_samples: Sequence[np.ndarray]) -> float:
    """sup over samples of ||C f||_{Y_d} / ||f||_{Co(Y)}."""
    f_samples = _stack(f_samples, ctx.kernel_system.rep.dim)
    coefficients = f_samples @ np.asarray(atoms).conj().T
    return _coefficient_norm(ctx, coefficients, sample, coorbit_norm(ctx, f_samples))


# ---------------------------------------------------------------------------
# test-only report helpers


def coefficient_bound_report(ctx, atoms, cert, sample, f_samples, cal):
    """Measured ||C|| against the calibrated certificate bound C rel(Lambda) ||M Phi||."""
    measured = measured_coefficient_norm(ctx, atoms, sample, f_samples)
    bound = cal.coefficient_c * rel_separation(sample) * cert.amalgam_value
    return {
        "measured": measured,
        "certificate_bound": bound,
        "pass": bool(measured <= bound * (1 + 1e-9)),
    }


def identity_cd(sample: SampleSet) -> CDMatrix:
    """Identity matrix on a sample set with its minimal envelope."""
    out = CDMatrix(rows=sample, cols=sample, entries=np.eye(len(sample), dtype=complex))
    out.envelope = minimal_envelope(out)
    return out


def affine_coords(model) -> np.ndarray:
    """(size, 2) array of the (x, a) of every affine carrier point; index j*n_a + m is (x_j, a_m)."""
    jx, ma = np.divmod(np.arange(model.size), model.n_a)
    return np.column_stack([model.x_coords[jx], model.a_coords[ma]])
