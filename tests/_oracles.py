"""Independent oracles used by the tests.

These deliberately avoid the library's vectorized code paths: the cyclic-group
oracle works on explicit (k, l) tuples with dict lookups, the generic
neighbourhood oracles call the scalar ``model.mul`` once per pair, and matrix
functions come from a plain eigendecomposition.
"""

import numpy as np


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


def brute_rel_separation(model, points):
    """Count distinct sample points inside xQ by scanning every x and q pair."""
    best = 0
    pts = set(int(p) for p in points)
    for x in range(model.size):
        found = set()
        for q in model.q_indices:
            t = model.mul(x, int(q))
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
            t = model.mul(x, int(q)) if side == "left" else model.mul(int(q), x)
            if t >= 0:
                out[x] = max(out[x], mag[t])
    return out


def brute_sequence_accumulator(model, points, coeffs, q_indices):
    """sum_i |c_i| 1_{lambda_i Q}, added in the library's order (q outer, i inner)."""
    acc = np.zeros(model.size)
    for q in q_indices:
        for lam, c in zip(points, np.abs(coeffs)):
            t = model.mul(int(lam), int(q))
            if t >= 0:
                acc[t] += c
    return acc


def brute_translate_sets(model, points, u):
    """The on-grid part of lambda_i U as a set, for every sample point lambda_i."""
    sets = []
    for lam in points:
        products = (model.mul(int(lam), int(uj)) for uj in u)
        sets.append({t for t in products if t >= 0})
    return sets


def brute_multiplicity(model, points, u):
    """#{i : y in lambda_i U} for every carrier point y."""
    counts = np.zeros(model.size, dtype=int)
    for cell in brute_translate_sets(model, points, u):
        for t in cell:
            counts[t] += 1
    return counts


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
