"""Relatively separated families, disjoint covers, the molecule bound and its pair check.

The molecule estimates rest on one bound and one check.  ``molecule_bound(rel,
pairs)`` is rel(Lambda)/mu(Q) times the sum over the given pairs (Theta, Phi) of
M^L Theta * M^R Phi, the bound for sums over a relatively separated family
Lambda.  ``pair_check(model, bound, lhs_rows, rows)`` compares the left side with
bound(y^{-1} x) at every pair of rows x carrier.  The rows are every carrier
point, or one point per coset of a subgroup under which both sides are
invariant, so that they cover every carrier pair.  It reports the carrier pairs
covered, always all of them, and how many had y^{-1} x off the grid
(``absent``; the bound reads inf there).

The verification kernels on Z_N x Z_N (the pair check, the frame-kernel rows it
reads and envelope fitting) form their temporaries in blocks of at most
``groups._BLOCK_ENTRIES`` entries, so none holds an n x n or n x m array.  The
same budget bounds the blocks of the convolution, the Z_N x Z_N local maxima and
the push sums in ``groups``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amalgam import convolve, maximal_left, maximal_right
from .errors import InvalidParameterError, NotDenseError
from .groups import ABSENT, GroupModel, _block_items, drop_repeats, padded


def _sorted_unique(values) -> np.ndarray:
    """The distinct entries of ``values``, sorted; np.unique without its numpy.ma import.

    NaNs are not merged, so a caller that counts distinct values rejects NaN itself.
    """
    s = np.sort(np.ravel(values))
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


@dataclass(frozen=True)
class SampleSet:
    """Ordered duplicate-free list of carrier indices."""

    model: GroupModel
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.size and not np.issubdtype(pts.dtype, np.integer):
            raise InvalidParameterError(f"sample points must be integer indices, got {pts.dtype}")
        if pts.ndim != 1:
            raise InvalidParameterError("sample points must form a flat index list")
        if pts.size and (pts.min() < 0 or pts.max() >= self.model.size):
            raise InvalidParameterError("sample index out of carrier range")
        if _sorted_unique(pts).size != pts.size:
            raise InvalidParameterError("sample points must be duplicate-free")
        object.__setattr__(self, "points", np.asarray(pts, dtype=int))

    def __len__(self) -> int:
        return len(self.points)


def rel_separation(sample: SampleSet) -> int:
    """rel(Lambda) = max over carrier x of #{i : lambda_i in xQ}.

    The products x q are formed directly: on a snapped grid, counting x as
    lambda_i q^{-1} instead can miss sample points.  Only the number of distinct
    hits counts, so each column of products is sorted by value and its repeats
    dropped.
    """
    model = sample.model
    in_sample = np.zeros(model.size + 1, dtype=bool)  # pad slot: absent products miss
    in_sample[sample.points] = True
    table = np.sort(model.translates(np.arange(model.size), model.q_indices), axis=0)
    drop_repeats(table)
    return int(in_sample[table].sum(axis=0).max(initial=0))


def _check_u(model: GroupModel, u_indices) -> np.ndarray:
    """U as a sorted duplicate-free index array of carrier indices holding the identity."""
    u = np.asarray(u_indices)
    if u.size and not (np.issubdtype(u.dtype, np.integer)
                       and 0 <= u.min() and u.max() < model.size):
        raise InvalidParameterError(f"U must hold integer carrier indices in "
                                    f"[0, {model.size}), got U={u_indices!r}")
    u = _sorted_unique(u.astype(int))
    if model.identity not in u:
        raise InvalidParameterError("U must contain the identity")
    return u


def build_cover(sample: SampleSet, u_indices) -> np.ndarray:
    """The greedy disjoint cover in list order as its (n,) owner array.

    owner[x] is the first rank i, in list order, with x in lambda_i U, so the cell
    U_i = lambda_i U minus the earlier cells is ``owner == i``.  A point that no
    translate holds raises NotDenseError.
    """
    model = sample.model
    u = _check_u(model, u_indices)
    # a point no translate holds keeps the sentinel len(sample); the pad slot
    # absorbs absent products
    m = len(sample.points)
    owner = np.full(model.size + 1, m, dtype=int)
    t = model.translates(sample.points, u)
    # values broadcast by hand: ufunc.at misreads them over a 2-D index (numpy 2.4)
    np.minimum.at(owner, t, np.broadcast_to(np.arange(m), t.shape))
    owner = owner[:-1]
    uncovered = np.nonzero(owner == m)[0]
    if uncovered.size:
        i = int(uncovered[0])
        raise NotDenseError(i, model.point_label(i))
    return owner


def molecule_bound(rel: int, pairs) -> np.ndarray:
    """rel/mu(Q) times the sum over (Theta, Phi) in ``pairs`` of M^L Theta * M^R Phi (real).

    With rel = rel(Lambda), the pair (F2, F1) bounds sum_i F1(lam_i^{-1} x) F2(y^{-1} lam_i)
    at y^{-1} x.  The convolutions are summed before the one scaling.
    """
    convs = [convolve(maximal_left(theta), maximal_right(phi)) for theta, phi in pairs]
    return rel / convs[0].model.q_mass() * sum(conv.values.real for conv in convs)


def pair_check(model: GroupModel, bound: np.ndarray, lhs_rows, rows) -> dict:
    """Check lhs(x, y) <= bound at y^{-1} x at every pair of rows x carrier.

    ``rows`` holds one point of each coset Lambda x of a subgroup Lambda under
    which both sides are invariant (every carrier point for Lambda = {e}):
    lhs(lam x, lam y) = lhs(x, y), and (lam y)^{-1}(lam x) = y^{-1} x leaves the
    bound's argument as it is.  Each pair read then stands for its n/len(rows)
    images, and ``pairs`` (n^2) and ``absent`` count the carrier pairs covered.

    The rows are read in blocks of at most ``_BLOCK_ENTRIES`` pairs:
    ``lhs_rows(block)`` is the left side at (rows[block][r], y) for every carrier
    y, one row per row of the block.  Only running maxima and counts are kept
    across the blocks.  An absent y^{-1} x reads an infinite bound and counts in
    ``absent``; the excess is relative to max(1, the largest finite bound read).
    The maxima are numpy's, so a NaN left side propagates.
    """
    carrier = np.arange(model.size)
    bound = padded(bound, np.inf)
    diff, top, ratio, absent = -np.inf, 0.0, 0.0, 0
    step = _block_items(model.size)
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        lhs = lhs_rows(block)
        z = model.div_indices(carrier[None, :], rows[block, None])
        rhs = bound[z]
        with np.errstate(invalid="ignore"):
            ratios = np.where(rhs > 0, lhs / np.maximum(rhs, 1e-300), 0.0)
        diff = np.maximum(diff, (lhs - rhs).max())
        top = max(top, float(rhs[np.isfinite(rhs)].max(initial=0.0)))
        ratio = max(ratio, float(ratios[np.isfinite(ratios)].max(initial=0.0)))
        absent += int(np.count_nonzero(z == ABSENT))
    max_excess = float(diff) / max(1.0, top)
    images = model.size // len(rows)  # the coset size |Lambda|
    return {
        "pairs": model.size ** 2,
        "absent": absent * images,
        "max_excess": max_excess,
        "max_ratio": ratio,
        "holds": max_excess <= 1e-10,
    }
