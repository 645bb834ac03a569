"""Concrete group models: finite Gabor phase space, discretized line, quadrature affine group.

A model is a finite carrier of group points with per-point left-Haar weights, a
(possibly partial) group law, a modular function, a unit-modulus cocycle and a
fixed base neighborhood Q of the identity.  Partial products and inverses are
encoded by the index ABSENT = -1; every integral treats absent values as zero,
matching zero-extension of compactly supported functions.

Absent convention.  An array read through product indices carries one trailing
pad slot (``padded``) holding what an absent product reads: 0 for sums, maxima
and translates, ``inf`` for upper bounds.  Since ABSENT = -1 addresses that
slot, a gather ``padded(v)[t]`` needs no mask.  An array written through
product indices is allocated with ``size + 1`` entries; the pad slot absorbs
the absent writes and is dropped afterwards.

Neighbourhood translates.  ``GroupModel.translates(points, u, side)`` is the one
place that forms the translates x·U (or U·x) of the sets the paper builds
everything on: Wiener amalgams, local maximal functions, rel(Lambda), U-dense
and U-separated families and the sequence spaces Y_d.  It yields one index
vector per element of ``u``, so peak memory stays at one ``len(points)`` vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import InvalidParameterError, InvalidWeightError

ABSENT = -1


def padded(values, fill=0.0) -> np.ndarray:
    """``values`` followed by one pad slot holding ``fill``, read by ABSENT indices."""
    return np.append(np.asarray(values), fill)


def index_pairs(n: int, exhaustive_limit: int, sample_size: int, seed: int):
    """Index pairs (i, j) over range(n) and whether they are exhaustive.

    All n*n pairs in row-major order when n*n <= exhaustive_limit, else
    ``sample_size`` pairs drawn uniformly from a generator seeded with ``seed``.
    """
    if n * n <= exhaustive_limit:
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return i.ravel(), j.ravel(), True
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, sample_size), rng.integers(0, n, sample_size), False


class GroupModel:
    """Finite carrier with Haar weights, partial group law, cocycle and neighborhood Q.

    Subclasses implement the vectorized index maps ``mul_indices`` / ``inv_indices``
    and the cocycle.  Points are referred to by their carrier index (0-based);
    absent products/inverses are returned as -1.
    """

    kind: str
    size: int
    haar: np.ndarray          # (n,) strictly positive quadrature weights
    modular: np.ndarray       # (n,) values of the modular function
    identity: int
    q_indices: np.ndarray     # carrier indices forming Q
    exact: bool               # True iff mul and inv are total

    # -- group law -------------------------------------------------------

    def mul_indices(self, i, j) -> np.ndarray:
        raise NotImplementedError

    def inv_indices(self, i) -> np.ndarray:
        raise NotImplementedError

    def cocycle_values(self, i, j) -> np.ndarray:
        """sigma(x_i, x_j) for valid index arrays (broadcasting allowed)."""
        return np.ones(np.broadcast(np.asarray(i), np.asarray(j)).shape, dtype=complex)

    @property
    def has_trivial_cocycle(self) -> bool:
        return True

    # -- conveniences ----------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_indices(np.asarray(i), np.asarray(j)))

    def inv(self, i: int) -> int:
        return int(self.inv_indices(np.asarray(i)))

    def translates(self, points, u, side: str = "left"):
        """Yield, for each u_j in ``u``, the indices points·u_j (left) or u_j·points (right).

        Products off the grid are ABSENT.  Each element of ``u`` costs one
        ``mul_indices`` call on ``points``, so no len(points) x len(u) array exists.
        """
        points = np.asarray(points)
        for uj in np.asarray(u):
            yield self.mul_indices(points, uj) if side == "left" else self.mul_indices(uj, points)

    def div_indices(self, i, j) -> np.ndarray:
        """Index of x_i^{-1} x_j, -1 when absent."""
        inv_i = self.inv_indices(i)
        return np.where(inv_i >= 0, self.mul_indices(np.maximum(inv_i, 0), j), ABSENT)

    def point_label(self, i: int) -> str:
        raise NotImplementedError

    def q_mass(self) -> float:
        return float(self.haar[self.q_indices].sum())

    def total_mass(self) -> float:
        return float(self.haar.sum())

    def index_of(self, coord) -> int:
        """Carrier index of an exactly representable coordinate (raises if off-grid)."""
        raise NotImplementedError


class CyclicPhaseSpace(GroupModel):
    """Z_N x Z_N with the time-frequency cocycle; the exact Gabor phase space.

    Point (k, l) has index k*N + l.  The cocycle convention
    sigma((k,l),(k',l')) = exp(-2*pi*i * k*l'/N) is the one validated exhaustively
    against the pinned representation pi(k,l)f(t) = exp(2*pi*i*l*t/N) f(t-k).
    """

    kind = "cyclic"
    exact = True

    def __init__(self, n_side: int):
        if n_side < 1:
            raise InvalidParameterError(f"cyclic phase space needs N >= 1, got {n_side}")
        self.n_side = int(n_side)
        n = self.n_side * self.n_side
        self.size = n
        self.haar = np.full(n, 1.0 / self.n_side)
        self.modular = np.ones(n)
        self.identity = 0
        offs = sorted({o % self.n_side for o in (-1, 0, 1)})
        self.q_indices = np.array(
            [k * self.n_side + l for k in offs for l in offs], dtype=int
        )
        idx = np.arange(n)
        self._k = idx // self.n_side
        self._l = idx % self.n_side

    def mul_indices(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        k = (self._k[i] + self._k[j]) % self.n_side
        l = (self._l[i] + self._l[j]) % self.n_side
        return k * self.n_side + l

    def inv_indices(self, i):
        i = np.asarray(i)
        k = (-self._k[i]) % self.n_side
        l = (-self._l[i]) % self.n_side
        return k * self.n_side + l

    def cocycle_values(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        return np.exp(-2j * np.pi * self._k[i] * self._l[j] / self.n_side)

    @property
    def has_trivial_cocycle(self) -> bool:
        return self.n_side == 1

    def point_label(self, i: int) -> str:
        return f"({self._k[i]},{self._l[i]})"

    def index_of(self, coord) -> int:
        k, l = coord
        return (int(k) % self.n_side) * self.n_side + (int(l) % self.n_side)


class RealLineModel(GroupModel):
    """Uniform symmetric grid on [-L, L] under addition; products off-grid are absent."""

    kind = "line"
    exact = False

    def __init__(self, half_width: float, step: float):
        if step <= 0:
            raise InvalidParameterError(f"step must be positive, got {step}")
        if half_width <= 0 or step > half_width:
            raise InvalidParameterError(
                f"need 0 < step <= half_width, got step={step}, half_width={half_width}"
            )
        self.step = float(step)
        self._k_max = int(np.floor(half_width / step + 1e-9))
        n = 2 * self._k_max + 1
        self.size = n
        self.coords = (np.arange(n) - self._k_max) * self.step
        self.haar = np.full(n, self.step)
        self.modular = np.ones(n)
        self.identity = self._k_max
        self.q_indices = np.nonzero(np.abs(self.coords) < 1.0)[0]

    def mul_indices(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        k = i + j - self.identity
        return np.where((k >= 0) & (k < self.size), k, ABSENT)

    def inv_indices(self, i):
        i = np.asarray(i)
        return 2 * self.identity - i

    def point_label(self, i: int) -> str:
        return f"{self.coords[i]:g}"

    def index_of(self, coord) -> int:
        k = int(round(float(coord) / self.step)) + self.identity
        if not (0 <= k < self.size) or abs(self.coords[k] - coord) > 1e-9 * max(1.0, abs(coord)):
            raise InvalidParameterError(f"coordinate {coord} is not on the grid")
        return k


class AffineGridModel(GroupModel):
    """ax+b group on a uniform x-grid times a geometric scale grid.

    Group law (x,a)(y,b) = (x+ay, ab); Haar density dx da/a^2 turns into the
    per-point weight x_step*ln(ratio)/a on the log-uniform scale grid.  The scale
    component of products is exact (exponents add); the x component snaps to the
    nearest cell, absent when it leaves the grid.
    """

    kind = "affine"
    exact = False

    def __init__(self, x_half_width: float, x_step: float, a_min: float,
                 a_max: float, a_ratio: float):
        if not (0 < a_min < 1 < a_max):
            raise InvalidParameterError(
                f"need 0 < a_min < 1 < a_max, got a_min={a_min}, a_max={a_max}"
            )
        if a_ratio <= 1:
            raise InvalidParameterError(f"a_ratio must exceed 1, got {a_ratio}")
        if x_step <= 0:
            raise InvalidParameterError(f"x_step must be positive, got {x_step}")
        self.x_step = float(x_step)
        self.a_ratio = float(a_ratio)
        lnr = np.log(self.a_ratio)
        # anchor the scale grid at a=1 exactly so the identity is on-grid
        self._m_lo = int(round(np.log(a_min) / lnr))
        self._m_hi = int(round(np.log(a_max) / lnr))
        if self._m_lo >= 0 or self._m_hi <= 0:
            raise InvalidParameterError("scale range must straddle a = 1")
        self._k_max = int(np.floor(x_half_width / x_step + 1e-9))
        self.n_x = 2 * self._k_max + 1
        self.n_a = self._m_hi - self._m_lo + 1
        self.size = self.n_x * self.n_a
        self.x_coords = (np.arange(self.n_x) - self._k_max) * self.x_step
        self.a_coords = self.a_ratio ** np.arange(self._m_lo, self._m_hi + 1)
        idx = np.arange(self.size)
        self._jx = idx // self.n_a
        self._ma = idx % self.n_a
        xs = self.x_coords[self._jx]
        avs = self.a_coords[self._ma]
        self.coords = np.column_stack([xs, avs])
        self.haar = self.x_step * lnr / avs
        self.modular = 1.0 / avs
        self.identity = self._k_max * self.n_a + (-self._m_lo)
        self.q_indices = np.nonzero((np.abs(xs) < 1.0) & (avs > 0.5) & (avs < 2.0))[0]

    def _pack(self, jx, ma, valid):
        ok = valid & (jx >= 0) & (jx < self.n_x) & (ma >= 0) & (ma < self.n_a)
        return np.where(ok, jx * self.n_a + ma, ABSENT)

    def mul_indices(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        x = self.x_coords[self._jx[i]] + self.a_coords[self._ma[i]] * self.x_coords[self._jx[j]]
        ma = self._ma[i] + self._ma[j] + self._m_lo
        jx = np.rint(x / self.x_step).astype(int) + self._k_max
        return self._pack(jx, ma, np.isfinite(x))

    def inv_indices(self, i):
        i = np.asarray(i)
        x = -self.x_coords[self._jx[i]] / self.a_coords[self._ma[i]]
        ma = -(self._ma[i] + self._m_lo) - self._m_lo
        jx = np.rint(x / self.x_step).astype(int) + self._k_max
        return self._pack(jx, ma, np.isfinite(x))

    def point_label(self, i: int) -> str:
        return f"({self.coords[i, 0]:g},{self.coords[i, 1]:g})"

    def index_of(self, coord) -> int:
        x, a = coord
        jx = int(round(float(x) / self.x_step)) + self._k_max
        ma = int(round(np.log(float(a)) / np.log(self.a_ratio))) - self._m_lo
        if not (0 <= jx < self.n_x and 0 <= ma < self.n_a):
            raise InvalidParameterError(f"coordinate {coord} is off the grid")
        if abs(self.x_coords[jx] - x) > 1e-9 * max(1.0, abs(x)) or \
                abs(self.a_coords[ma] - a) > 1e-9 * abs(a):
            raise InvalidParameterError(f"coordinate {coord} is not on the grid")
        return jx * self.n_a + ma


def build_cyclic_phase_space(n_side: int) -> CyclicPhaseSpace:
    """Exact finite Gabor phase space Z_N x Z_N with Haar weight 1/N per point."""
    return CyclicPhaseSpace(n_side)


def build_real_line(half_width: float, step: float) -> RealLineModel:
    """Truncated real line [-L, L] with uniform step and Q = (-1, 1)."""
    return RealLineModel(half_width, step)


def build_affine_grid(x_half_width: float, x_step: float, a_min: float,
                      a_max: float, a_ratio: float) -> AffineGridModel:
    """Truncated affine group with Q = (-1,1) x (1/2, 2)."""
    return AffineGridModel(x_half_width, x_step, a_min, a_max, a_ratio)


_MODEL_FIELDS = {
    "cyclic": (build_cyclic_phase_space, int, ("N",)),
    "line": (build_real_line, float, ("half_width", "step")),
    "affine": (build_affine_grid, float,
               ("x_half_width", "x_step", "a_min", "a_max", "a_ratio")),
}


def model_from_config(config: Union[str, Path, dict]) -> GroupModel:
    """Build a model from a JSON document {"model": "cyclic"|"line"|"affine", ...}."""
    if not isinstance(config, dict):
        config = json.loads(Path(config).read_text())
    kind = config.get("model")
    if not isinstance(kind, str) or kind not in _MODEL_FIELDS:
        raise InvalidParameterError(f"unknown model kind {kind!r}")
    build, cast, fields = _MODEL_FIELDS[kind]
    missing = [key for key in fields if key not in config]
    if missing:
        raise InvalidParameterError(
            f"{kind} model config is missing {', '.join(repr(k) for k in missing)}"
        )
    return build(*(cast(config[key]) for key in fields))


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class PWeight:
    """Validated weight w >= 1 with submultiplicativity and the p-symmetry axiom."""

    values: np.ndarray
    p: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass
class WeightValidationReport:
    w1_pass: bool
    w1_min: float
    w2_pass: bool
    w2_max_ratio: float
    w3_pass: bool
    w3_max_rel_dev: float
    pairs_checked: int
    exhaustive: bool

    @property
    def passed(self) -> bool:
        return self.w1_pass and self.w2_pass and self.w3_pass


def validate_p_weight(model: GroupModel, w, p: float,
                      tol: float = 1e-9) -> WeightValidationReport:
    """Check the three weight axioms; truncated models use a relative tolerance."""
    w = np.asarray(w, dtype=float)
    if w.shape != (model.size,):
        raise InvalidWeightError(f"weight must have shape ({model.size},), got {w.shape}")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise InvalidWeightError("weight entries must be positive and finite")
    if not (0 < p <= 1):
        raise InvalidParameterError(f"p must lie in (0, 1], got {p}")

    w1_min = float(w.min())
    w1_pass = w1_min >= 1.0 - tol

    i, j, exhaustive = index_pairs(model.size, exhaustive_limit=4_000_000,
                                   sample_size=2_000_000, seed=7)
    prod = model.mul_indices(i, j)
    ok = prod >= 0
    ratios = w[prod[ok]] / (w[i[ok]] * w[j[ok]])
    w2_max = float(ratios.max()) if ratios.size else 1.0
    w2_pass = w2_max <= 1.0 + tol

    inv = model.inv_indices(np.arange(model.size))
    has_inv = inv >= 0
    mirrored = w[inv[has_inv]] * model.modular[inv[has_inv]] ** (1.0 / p)
    rel_dev = np.abs(w[has_inv] - mirrored) / w[has_inv]
    w3_max = float(rel_dev.max()) if rel_dev.size else 0.0
    w3_tol = tol if model.exact else 1e-6
    w3_pass = w3_max <= w3_tol

    return WeightValidationReport(
        w1_pass=w1_pass, w1_min=w1_min,
        w2_pass=w2_pass, w2_max_ratio=w2_max,
        w3_pass=w3_pass, w3_max_rel_dev=w3_max,
        pairs_checked=int(ok.sum()), exhaustive=exhaustive,
    )


def symmetrize_weight(model: GroupModel, w0, p: float) -> PWeight:
    """Produce the p-symmetric majorant w(x) = max{w0(x), w0(x^{-1}) Delta(x^{-1})^{1/p}}."""
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (model.size,):
        raise InvalidWeightError(f"weight must have shape ({model.size},), got {w0.shape}")
    if np.any(w0 < 1.0 - 1e-12):
        raise InvalidWeightError("raw weight must satisfy w0 >= 1")
    if not (0 < p <= 1):
        raise InvalidParameterError(f"p must lie in (0, 1], got {p}")
    inv = model.inv_indices(np.arange(model.size))
    # an absent inverse reads 0 and leaves w0 in the maximum (w0 >= 1)
    mirrored = padded(w0 * model.modular ** (1.0 / p))[inv]
    return PWeight(values=np.maximum(w0, mirrored), p=float(p))


def unit_weight(model: GroupModel, p: float = 1.0) -> PWeight:
    return PWeight(values=np.ones(model.size), p=float(p))


# ---------------------------------------------------------------------------
# IN diagnostic


def measure_QxQ(model: GroupModel, x_index: int) -> float:
    """Haar measure of {q1 * x * q2 : q1, q2 in Q} via on-grid products.

    Absent products are skipped; on exact models the value is exact.
    """
    if not (0 <= x_index < model.size):
        raise InvalidParameterError(f"carrier index {x_index} out of range")
    q = model.q_indices
    # Q x as a duplicate-free sorted index set, then its right Q-translates
    qx = np.zeros(model.size + 1, dtype=bool)
    qx[next(model.translates(q, [x_index]))] = True
    hit = np.zeros(model.size + 1, dtype=bool)
    for t in model.translates(np.nonzero(qx[:-1])[0], q):
        hit[t] = True
    return float(model.haar[hit[:-1]].sum())
