"""Relatively separated families, density/separation predicates and disjoint covers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amalgam import GridFunction, convolve, maximal_left, maximal_right
from .errors import IncompatibleOperandsError, InvalidParameterError, NotDenseError
from .groups import GroupModel, index_pairs, padded


@dataclass(frozen=True)
class SampleSet:
    """Ordered duplicate-free list of carrier indices."""

    model: GroupModel
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=int)
        if pts.ndim != 1:
            raise InvalidParameterError("sample points must form a flat index list")
        if pts.size and (pts.min() < 0 or pts.max() >= self.model.size):
            raise InvalidParameterError("sample index out of carrier range")
        if len(np.unique(pts)) != len(pts):
            raise InvalidParameterError("sample points must be duplicate-free")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def to_json_obj(self) -> dict:
        return {"model": self.model.kind, "points": self.points.tolist()}


@dataclass(frozen=True)
class DisjointCover:
    """Per-sample cells U_i subseteq lambda_i U partitioning the carrier."""

    sample: SampleSet
    cells: tuple  # tuple of index arrays

    def cell_masses(self) -> np.ndarray:
        haar = self.sample.model.haar
        return np.array([haar[c].sum() for c in self.cells])


def _multiplicity(model: GroupModel, points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per carrier point y, #{i : y in lambda_i U}; each lambda_i counts once per y.

    Snapped products can collide inside one translate lambda_i U, so every
    translate is deduplicated before it is counted.
    """
    counts = np.zeros(model.size + 1, dtype=int)  # pad slot absorbs absent products
    for row in model.translates(u, points, side="right"):
        counts[np.unique(row)] += 1
    return counts[:-1]


def rel_separation(sample: SampleSet) -> int:
    """rel(Lambda) = max over carrier x of #{i : lambda_i in xQ}.

    Each sample point contributes at most once per carrier point: lambda_i
    belongs to xQ iff x lies in lambda_i Q^{-1}, so the preimages are
    accumulated per i with deduplication (snapped products can collide).
    """
    model = sample.model
    q_inv = model.inv_indices(model.q_indices)
    q_inv = q_inv[q_inv >= 0]
    return int(_multiplicity(model, sample.points, q_inv).max())


def is_U_dense(sample: SampleSet, u_indices) -> bool:
    """True iff the translates lambda_i U cover the whole carrier."""
    u = _check_u(sample.model, u_indices)
    return bool(_multiplicity(sample.model, sample.points, u).all())


def is_U_separated(sample: SampleSet, u_indices) -> bool:
    """True iff the translates lambda_i U are pairwise disjoint."""
    u = _check_u(sample.model, u_indices)
    return bool(_multiplicity(sample.model, sample.points, u).max() <= 1)


def _check_u(model: GroupModel, u_indices) -> np.ndarray:
    u = np.asarray(u_indices, dtype=int)
    if model.identity not in u:
        raise InvalidParameterError("U must contain the identity")
    return u


def build_cover(sample: SampleSet, u_indices) -> DisjointCover:
    """Greedy disjoint cover in list order: U_i = lambda_i U minus earlier cells."""
    model = sample.model
    u = _check_u(model, u_indices)
    # owner = first rank in list order whose translate holds the point; a point
    # no translate holds keeps the sentinel len(sample); the pad slot absorbs
    # absent products
    m = len(sample.points)
    owner = np.full(model.size + 1, m, dtype=int)
    ranks = np.arange(m)
    for t in model.translates(sample.points, u):
        np.minimum.at(owner, t, ranks)
    owner = owner[:-1]
    uncovered = np.nonzero(owner == m)[0]
    if uncovered.size:
        i = int(uncovered[0])
        raise NotDenseError(i, model.point_label(i))
    cells = tuple(np.nonzero(owner == rank)[0] for rank in range(m))
    return DisjointCover(sample=sample, cells=cells)


def max_separated_subset(model: GroupModel, u_indices) -> SampleSet:
    """Greedy scan in carrier order; the result is U-separated and UU^{-1}-dense."""
    u = _check_u(model, u_indices)
    blocked = np.zeros(model.size + 1, dtype=bool)
    chosen = []
    for x, row in enumerate(model.translates(u, np.arange(model.size), side="right")):
        if blocked[row].any():
            continue
        chosen.append(x)
        blocked[row] = True
        blocked[-1] = False  # the pad slot must keep reading "not blocked"
    return SampleSet(model=model, points=np.array(chosen, dtype=int))


def uu_inverse_indices(model: GroupModel, u_indices) -> np.ndarray:
    """The product set U U^{-1} as carrier indices (absent factors skipped)."""
    u = np.asarray(u_indices, dtype=int)
    inv = model.inv_indices(u)
    inv = inv[inv >= 0]
    hit = np.zeros(model.size + 1, dtype=bool)  # pad slot absorbs absent products
    for t in model.translates(u, inv):
        hit[t] = True
    return np.nonzero(hit[:-1])[0]


def shifted_series_check(f1: GridFunction, f2: GridFunction, sample: SampleSet,
                         pair_limit: int = 200_000, seed: int = 11) -> dict:
    """Verify sum_i F1(lam_i^{-1} x) F2(y^{-1} lam_i) <= rel/mu(Q) (M^L F2 * M^R F1)(y^{-1}x).

    Exhaustive over all (x, y) pairs on exact models, seeded sample otherwise.
    Requires nonnegative inputs.
    """
    model = sample.model
    if f1.model is not model or f2.model is not model:
        raise IncompatibleOperandsError("grid functions must live on the sample's model")
    v1 = f1.values.real
    v2 = f2.values.real
    if np.any(v1 < 0) or np.any(v2 < 0) or np.any(f1.values.imag) or np.any(f2.values.imag):
        raise InvalidParameterError("shifted series check needs nonnegative inputs")

    rel = rel_separation(sample)
    bound_fn = convolve(maximal_left(f2), maximal_right(f1)).values.real
    factor = rel / model.q_mass()

    xs, ys, exhaustive = index_pairs(model.size, pair_limit, pair_limit, seed)
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
        "exhaustive": exhaustive,
        "max_excess": max_excess,
        "max_ratio": float(ratios[np.isfinite(ratios)].max(initial=0.0)),
        "holds": max_excess <= 1e-10,
    }
