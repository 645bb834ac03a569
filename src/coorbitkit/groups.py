"""Concrete group models: finite Gabor phase space, discretized line, quadrature affine group.

A model is a finite carrier of group points with per-point left-Haar weights, a
(possibly partial) group law, a modular function, a unit-modulus cocycle and a
fixed base neighborhood Q of the identity.  Partial products and inverses are
encoded by the index ABSENT = -1; every integral treats absent values as zero,
matching zero-extension of compactly supported functions.  The affine model
stores only the two 1-D grids of ``affine_axes`` and derives its per-point arrays.

Absent convention.  An array read through product indices carries one trailing
pad slot (``padded``) holding what an absent product reads: 0 for sums, maxima
and translates, ``inf`` for upper bounds.  Since ABSENT = -1 addresses that
slot, a gather ``padded(v)[t]`` needs no mask.  An array written through
product indices is allocated with ``size + 1`` entries; the pad slot absorbs
the absent writes and is dropped afterwards.

Neighbourhood translates.  ``GroupModel.translates(points, u)`` is the one
place that forms the translates x·U of the sets the paper builds everything
on: rel(Lambda), covers, U-dense and U-separated families and the generic push
sets and sums of the sequence spaces Y_d.  It returns the (len(u), len(points))
table of points·u_j from one broadcast ``mul_indices`` call.  A translate is a
set, and ``drop_repeats`` is the one rule for it: in a table sorted along its u
axis, an entry equal to the one above it becomes ABSENT.  rel(Lambda) counts
the distinct sample hits of each column, so it sorts the table by value alone;
``first_products`` sorts stably, so the product that two u_j give a point stays
at the first of them in ``u`` order, which the generic push sums read.

Local maxima.  ``GroupModel.local_max(mag, side)`` is the second primitive: the
max over q in Q of ``mag`` at x·q (left) or q·x (right), an absent product
reading 0; the local maximal functions M^L, M^R and the amalgams W^L(Y), W^R(Y)
are built on it.  ``mag`` is (..., n): a stack of rows gets one maximal
function per row, bit-identical to the row's own call.  Each model implements
it; the generic loop, one gather through ``mul_indices`` per q, is kept only as
a test oracle.  The three models take the same products, so their maxima are
bit-identical to that loop: the line's Q is a contiguous index window around
the identity (x·q = q·x = x + q), read as one window max; on Z_N x Z_N, where
x·q and q·x share an index and Q = Q^{-1} as a set, the |Q| x n table of
x·q_j^{-1} that ``q_spread`` reads serves both sides: the rows of a stack (a
vector is one row) are gathered through it along their last axis one block of
``_block_items(|Q| n)`` rows at a time and maxed over the Q axis into one
(..., n) output, so no (..., |Q|, n) gather is held whole.  The affine
grid, with x_j = (j - k) h (h the x-step) and Q = Q_x x Q_a, has its group law
on cell indices: (j, m)·(j', m') = (j + rint(a_m (j' - k)), m + m' + m_lo), the
cell nearest x + a y, a tie rounding the increment to even.  So x·q shifts the
whole scale row a by rint(a i) for q_x = i h, and M^L is a window max over the
scale shifts q_a followed, per scale row, by one shifted in-place max per
distinct shift of the row.  M^R is the mirror: the q_x are i h
with |i| <= i_max and q·x has x-index k + i + rint(q_a (j - k)) in every scale
row, so one window max over [-i_max, i_max] along x is followed by one gather
per scale shift q_a at the centres k + rint(q_a (j - k)).  Every window
max is ``_window_max``, a doubling (sparse-table) running max: floor(log2 w)
passes of pairwise maxima at shifts 1, 2, 4, ... and one last maximum of two
overlapping runs, O(n log w) for a window of w entries instead of the n·w
reads of a sliding window; a max is exact, so the result is the same.

Push sets.  ``GroupModel.q_neighbourhood(points)`` is the third primitive: the
sorted, duplicate-free on-grid indices of P·Q = {p·q : p in P, q in Q}, from
which the IN diagnostic measures mu(QxQ).  The base class marks the
``translates`` table of P in one write and is the test oracle.  Two models
override it with the split of ``local_max``.  On the line p·q = p + q, so P is
marked in a bool vector and the marks are pushed by one window max over the
window of Q, reflected against the pull of ``local_max``.  On the affine grid
the x-index of p·q is the x-index of p shifted by rint(a_p i) for q_x = i h,
and its scale index is ma_p + ma_q, so one pass per q_x marks the x-index of
p·q_x at the scale of p and the marks are dilated along the scale axis by the
shifts of Q_a.  Either way the index set is the same.

Push sums.  ``GroupModel.q_spread(mags, points)``, the adjoint of ``local_max``,
is the fourth primitive: sum_i mags_i 1_{p_i Q}, whose amalgam norm is the Y_d
sequence norm and whose value at ``mags`` = 1 is the multiplicity of the
translates p_i Q.  ``mags`` is (..., |P|): a stack of rows gets one push sum per
row, shape (..., n).  The base class, the test oracle, adds ``mags`` through the
``translates`` table into a padded accumulator in one ``np.add.at``, q outer and
p inner.  On a snapped grid two q_j can give p_i one product, which the
indicator 1_{p_i Q} counts once: the table is read through ``first_products``,
which keeps the first such q_j.  Z_N x Z_N scatters ``mags`` onto a zero carrier
(each occurrence of a repeated point added) and gathers it through the |Q| x n
``translates`` table of the carrier by Q^{-1}, x·q_j^{-1}, built at
construction, in the row blocks of ``local_max``, each summed over the Q axis.
Its products p_i q_j are distinct for
each p_i, and for duplicate-free points x = p_i q_j holds for at most one i per
q_j, so each entry adds the base loop's terms in its order (q outer, from 0.0)
and the result is bit-identical; a repeated point has its occurrences added
first, which moves only the last bits.

Left translates.  ``GroupModel.left_translates(values, points)`` is the fifth
primitive: row i is L_{p_i} v, x -> v(p_i^{-1} x) over the carrier, an absent
product reading 0; ``values`` is one (n,) vector for every point or a stack with
one row per point.  ``convolve`` reads its rows from it, and
``relative_max(mags, rows, cols)``, the envelope bins phi(z) = max |A_ij| over
cols_j^{-1} rows_i = z, is built on it.  The base class gathers ``padded(values)``
at ``div_indices`` and fills the bins by a scatter-max; both are the test
oracles, and the scatter-max is the path of the snapped grids.  On Z_N x Z_N,
p^{-1} x = (a - k_p, b - l_p) for x = (a, b): one vector or a stack is read as
an N x N grid through two |P| x N tables, the rows k_p and l_p of the N x N
table of coordinate differences, two reads of which are its ``div_indices``.
x -> lambda^{-1} x is a bijection there, so phi(z) = max_j |A|[lambda_j z, j]:
the columns are spread onto the carrier (0 off the rows), translated by
lambda_j^{-1} and maxed over j; with fewer rows than half the carrier the
scatter-max, whose cost goes with rows x cols, is the faster and is kept.  A
gather moves values without arithmetic and a max is exact, so both are
bit-identical.

Convolution.  ``GroupModel.convolve(v1, v2, twisted)`` is the sixth primitive,
behind the convolution relations Y * W^R(L^r_w) in Y: sum_y v1(y) v2(y^{-1} x)
mu(y) at each x, an absent y^{-1} x reading 0, each term times sigma(y, y^{-1} x)
when ``twisted``.  The base class adds up blocks of ``_block_items(n)`` rows y
(one block up to n = 512, 256 rows at N = 32), skipping those where v1
vanishes: v1 mu times the ``left_translates`` rows of v2.  Twisted, they are the
rows of the modulated v2: row y reads u -> v2(u) sigma(y, u) at u = y^{-1} x, so
the plain gather gives each term its cocycle with no index table of its own.
Each block's table, and in the twisted sum its modulated rows, is released
before the next block is built.  Another block size regroups the partial sums
of the block products and moves the last bits of the values.  The line
overrides it with ``np.convolve``, a plain sequence convolution under addition,
on the nonzero span of each input.  A trivial cocycle reads as all ones (line,
affine grid, Z_1 x Z_1), so a twist there leaves every value equal and the line
ignores it.

Block budget.  ``_BLOCK_ENTRIES`` is the one bound on the largest temporary a
blocked kernel forms: a convolution block of rows y x carrier, a Z_N x Z_N
Q-gather block of rows x |Q| x n, and, in ``sampling`` and ``frames``, a
pair-check row block (and the frame-kernel rows it reads) and an envelope's
voices block.  ``_block_items`` turns it into items per block.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CoverageWarning, InvalidParameterError, InvalidWeightError

ABSENT = -1
# entries of the largest temporary one block of a blocked kernel forms (see "Block budget")
_BLOCK_ENTRIES = 2 ** 18


def _block_items(entries_per_item: int) -> int:
    """Items per block, at least one, for blocks of at most ``_BLOCK_ENTRIES`` entries."""
    return max(1, _BLOCK_ENTRIES // max(1, entries_per_item))


def _is_int_at_least(value, minimum: int) -> bool:
    """True iff ``value`` is an integer (not a bool, not a float such as 2.0) >= ``minimum``."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= minimum)


def _real_coordinate(value, coord) -> float:
    """``value``, one entry of ``coord``, as a float; only a real number, never a bool or a str."""
    if isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"coordinate {coord!r}: {value!r} is a bool, not a number")
    if not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"coordinate {coord!r}: {value!r} is not a real number")
    return float(value)


def _pair(coord) -> tuple:
    """The two entries of a point coordinate; InvalidParameterError naming it otherwise."""
    try:
        first, second = coord
    except (TypeError, ValueError):
        raise InvalidParameterError(f"coordinate {coord!r} needs two entries") from None
    return first, second


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise InvalidParameterError(f"side must be 'left' or 'right', got {side!r}")


def _uniform_axis(half_width: float, step: float, prefix: str = "") -> np.ndarray:
    """``(-k .. k) * step`` with k = floor(half_width/step): the line and the affine x-grid."""
    # a chained comparison is False on NaN, so this also rejects non-finite values
    if not (0 < step <= half_width < np.inf):
        raise InvalidParameterError(f"need 0 < {prefix}step <= {prefix}half_width < inf, got "
                                    f"{prefix}step={step}, {prefix}half_width={half_width}")
    k_max = int(np.floor(half_width / step + 1e-9))
    return np.arange(-k_max, k_max + 1) * float(step)


def _window_max(values, lo: int, hi: int) -> np.ndarray:
    """out[..., i] = max of ``values[..., i+lo .. i+hi]``, 0 off the ends of the last axis.

    ``lo <= 0 <= hi``; ``values`` is nonnegative, so the zero padding reads as an
    absent product does.  The max is taken by doubling in O(n log w) for a window
    of w = hi - lo + 1: after the passes m[i] is the max over [i, i + s) for the
    largest power of two s <= w, and two such runs cover the window.
    """
    values = np.asarray(values)
    n, w = values.shape[-1], hi - lo + 1
    m = np.pad(values, [(0, 0)] * (values.ndim - 1) + [(-lo, hi)])
    s = 1
    while 2 * s <= w:
        m = np.maximum(m[..., :-s], m[..., s:])
        s *= 2
    return np.maximum(m[..., :n], m[..., w - s:w - s + n])


def drop_repeats(sorted_table) -> None:
    """Set ABSENT, in place, each entry of a table sorted along axis 0 that equals the one above."""
    sorted_table[1:][sorted_table[1:] == sorted_table[:-1]] = ABSENT


def first_products(table) -> np.ndarray:
    """A copy of a ``translates`` table, each product an earlier row gave its column ABSENT."""
    table = np.array(table)
    order = np.argsort(table, axis=0, kind="stable")  # equal products stay in u order
    cols = np.arange(table.shape[1])
    s = table[order, cols]
    drop_repeats(s)
    table[order, cols] = s
    return table


def padded(values, fill=0.0) -> np.ndarray:
    """``values`` with one pad slot holding ``fill`` after its last axis, read by ABSENT indices."""
    values = np.asarray(values)
    return np.concatenate([values, np.full(values.shape[:-1] + (1,), fill)], axis=-1)


class GroupModel:
    """Finite carrier with Haar weights, partial group law, cocycle and neighborhood Q.

    Subclasses implement the vectorized index maps ``mul_indices`` / ``inv_indices``
    and the cocycle.  Points are referred to by their carrier index (0-based);
    absent products/inverses are returned as -1.
    """

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

    def translates(self, points, u) -> np.ndarray:
        """The (len(u), len(points)) table of the indices points·u_j, ABSENT off the grid."""
        return self.mul_indices(np.asarray(points, dtype=int)[None, :],
                                np.asarray(u, dtype=int)[:, None])

    def local_max(self, mag, side: str = "left") -> np.ndarray:
        """max over q in Q of ``mag`` (nonnegative, (..., n)) at x·q (left) or q·x (right).

        An absent product reads 0.
        """
        raise NotImplementedError

    def q_neighbourhood(self, points) -> np.ndarray:
        """Sorted, duplicate-free on-grid indices of {p·q : p in ``points``, q in Q}."""
        hit = np.zeros(self.size + 1, dtype=bool)  # pad slot absorbs absent products
        hit[self.translates(points, self.q_indices)] = True
        return np.nonzero(hit[:-1])[0]

    def q_spread(self, mags, points) -> np.ndarray:
        """sum_i ``mags``_i 1_{p_i Q} over the carrier; absent products drop.

        1_{p_i Q} is an indicator: a product p_i q_j that an earlier q_j gave is not added again.
        ``mags`` may be a (..., len(points)) stack; each row gets its own sum.
        """
        t = first_products(self.translates(points, self.q_indices))
        mags = np.asarray(mags)
        acc = np.zeros(mags.shape[:-1] + (self.size + 1,))  # pad slot absorbs absent products
        # q outer, p inner: the terms in q order; the values are broadcast by hand, as
        # ufunc.at misreads them over a 2-D index (numpy 2.4)
        np.add.at(acc, (..., t), np.broadcast_to(mags[..., None, :], mags.shape[:-1] + t.shape))
        return acc[..., :-1]

    def div_indices(self, i, j) -> np.ndarray:
        """Index of x_i^{-1} x_j, -1 when absent."""
        inv_i = self.inv_indices(i)
        return np.where(inv_i >= 0, self.mul_indices(np.maximum(inv_i, 0), j), ABSENT)

    def left_translates(self, values, points) -> np.ndarray:
        """Row i is L_{p_i} v: x -> v(p_i^{-1} x) over the carrier; an absent product reads 0.

        ``values`` is one (n,) vector for every point or a (len(points), n) stack,
        row i translated by p_i.
        """
        points = np.asarray(points, dtype=int)
        z = self.div_indices(points[:, None], np.arange(self.size))
        values = padded(values)
        if values.ndim == 1:
            return values[z]
        return values[np.arange(len(z))[:, None], z]

    def convolve(self, v1, v2, twisted: bool = False) -> np.ndarray:
        """sum_y v1(y) v2(y^{-1}x) mu(y), times sigma(y, y^{-1}x) if ``twisted``; absent reads 0."""
        n = self.size
        out = np.zeros(n, dtype=complex)
        weighted = v1 * self.haar
        step = _block_items(n)
        for start in range(0, n, step):
            block = np.arange(start, min(start + step, n))
            rows = weighted[block]
            if not np.any(rows):
                continue
            # twisted, row y reads v2 sigma(y, .) at y^{-1}x: the plain rows of modulated v2
            vals = self.left_translates(
                v2 * self.cocycle_values(block[:, None], np.arange(n)) if twisted else v2, block)
            out += rows @ vals
            del vals  # released before the next block's table is built
        return out

    def relative_max(self, mags, rows, cols) -> np.ndarray:
        """phi(z) = max of ``mags``[i, j] over the pairs with cols_j^{-1} rows_i = z; 0 if none.

        ``mags`` is nonnegative, (len(rows), len(cols)); ``rows`` and ``cols`` are
        duplicate-free carrier indices.  A nonzero entry whose relative position
        is absent has no bin: phi does not bound it, and a CoverageWarning says so.
        """
        z = self.div_indices(np.asarray(cols)[None, :], np.asarray(rows)[:, None])
        mags = np.asarray(mags)
        if not np.all((z >= 0) | (mags == 0)):
            warnings.warn(
                "some nonzero entries have no carrier representative for their relative "
                "position; the minimal envelope does not certify them",
                CoverageWarning,
            )
        phi = np.zeros(self.size + 1)  # pad slot absorbs absent relative positions
        np.maximum.at(phi, z, mags)
        return phi[:-1]

    def point_label(self, i: int) -> str:
        raise NotImplementedError

    def q_mass(self) -> float:
        return float(self.haar[self.q_indices].sum())

    def index_of(self, coord) -> int:
        """Carrier index of an exactly representable coordinate (raises if off-grid)."""
        raise NotImplementedError


class CyclicPhaseSpace(GroupModel):
    """Z_N x Z_N with the time-frequency cocycle; the exact Gabor phase space.

    Point (k, l) has index k*N + l.  The cocycle convention sigma((k,l),(k',l')) =
    exp(-2*pi*i * k*l'/N) = conj(chi[k, l']) is the one validated exhaustively against
    the representation pi(k,l)f(t) = exp(2*pi*i*l*t/N) f(t-k), read off ``chi`` and ``sub``.
    """

    exact = True

    def __init__(self, n_side: int):
        if not _is_int_at_least(n_side, 1):
            raise InvalidParameterError(f"n_side must be an integer >= 1, got n_side={n_side!r}")
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
        # row j holds the index of x·q_j^{-1}, the point whose push by q_j lands on x; as
        # Q = Q^{-1} and x·q, q·x share an index, its rows, in another order, are x·q and q·x
        self._q_inv_table = self.translates(idx, self.inv_indices(self.q_indices))
        # sub[a, b] = (b - a) mod N, the coordinate of x_i^{-1} x_j, and its row offset
        axis = np.arange(self.n_side)
        self.sub = (axis[None, :] - axis[:, None]) % self.n_side
        self._sub_rows = self.sub * self.n_side

    @functools.cached_property
    def chi(self) -> np.ndarray:
        """exp(2 pi i k l / N) at [k, l], the one Gabor phase table, formed on first read."""
        axis = np.arange(self.n_side)
        return np.exp(2j * np.pi * axis[:, None] * axis / self.n_side)

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

    def div_indices(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        return self._sub_rows[self._k[i], self._k[j]] + self.sub[self._l[i], self._l[j]]

    def left_translates(self, values, points) -> np.ndarray:
        # p^{-1} x = (a - k_p, b - l_p) for x = (a, b): row i reads v as an N x N grid
        # through two |P| x N tables of shifted coordinates, rows of sub
        points = np.asarray(points, dtype=int)
        values = np.asarray(values)
        rows = self.sub[self._k[points]]
        cols = self.sub[self._l[points]]
        grids = values.reshape(values.shape[:-1] + (self.n_side, self.n_side))
        lead = (np.arange(len(points))[:, None, None],) if values.ndim > 1 else ()
        out = grids[lead + (rows[:, :, None], cols[:, None, :])]
        return out.reshape(len(points), self.size)

    def relative_max(self, mags, rows, cols) -> np.ndarray:
        # the spread gathers len(cols) * n entries, the scatter-max bins len(rows) * len(cols)
        # at about twice the cost each, so it is the faster below half the carrier
        if 2 * len(rows) < self.size:
            return super().relative_max(mags, rows, cols)
        # x -> lambda^{-1} x is a bijection, so phi(z) = max_j mags[row at cols_j z, j]:
        # column j spread onto the carrier (0 off the rows), read at cols_j z
        spread = np.zeros((len(cols), self.size))
        spread[:, np.asarray(rows, dtype=int)] = np.asarray(mags).T
        translated = self.left_translates(spread, self.inv_indices(np.asarray(cols, dtype=int)))
        return translated.max(axis=0, initial=0.0)

    def cocycle_values(self, i, j):
        return np.conj(self.chi[self._k[i], self._l[j]])

    def _q_reduce(self, values, ufunc) -> np.ndarray:
        """``ufunc`` reduced over q_j of ``values`` ((..., n)) read at x·q_j^{-1}.

        The rows (a vector is one) are gathered through the |Q| x n table one block of
        ``_block_items(|Q| n)`` rows at a time into one C-contiguous (..., n) output.
        """
        rows = values.reshape(-1, self.size)
        out = np.empty(rows.shape, dtype=rows.dtype)
        step = _block_items(self._q_inv_table.size)
        for start in range(0, len(rows), step):
            block = slice(start, start + step)
            ufunc.reduce(rows[block].take(self._q_inv_table, axis=-1), axis=-2, out=out[block])
        return out.reshape(values.shape)

    def local_max(self, mag, side: str = "left") -> np.ndarray:
        _check_side(side)
        return self._q_reduce(np.asarray(mag), np.maximum)

    def q_spread(self, mags, points) -> np.ndarray:
        # x = p_i q_j for one i at most per q_j, so x sums carrier[x q_j^{-1}] over the q_j
        # in order: the base loop's terms, added in its order from 0.0
        mags = np.asarray(mags)
        carrier = np.zeros(mags.shape[:-1] + (self.size,))
        np.add.at(carrier, (..., np.asarray(points, dtype=int)), mags)
        return self._q_reduce(carrier, np.add)

    def point_label(self, i: int) -> str:
        return f"({self._k[i]},{self._l[i]})"

    def index_of(self, coord) -> int:
        """Index of (k, l) for integers k, l (numpy integers too), each taken mod N; no bool."""
        k, l = _pair(coord)
        if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool) for c in (k, l)):
            raise InvalidParameterError(f"coordinate {coord!r} needs two integers")
        return (int(k) % self.n_side) * self.n_side + (int(l) % self.n_side)


class RealLineModel(GroupModel):
    """Uniform symmetric grid on [-L, L] under addition; products off-grid are absent."""

    exact = False

    def __init__(self, half_width: float, step: float):
        self.coords = _uniform_axis(half_width, step)
        self.step = float(step)
        self.size = n = len(self.coords)
        self.haar = np.full(n, self.step)
        self.modular = np.ones(n)
        self.identity = n // 2
        self.q_indices = np.nonzero(np.abs(self.coords) < 1.0)[0]

    def mul_indices(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        k = i + j - self.identity
        return np.where((k >= 0) & (k < self.size), k, ABSENT)

    def inv_indices(self, i):
        i = np.asarray(i)
        return 2 * self.identity - i

    def local_max(self, mag, side: str = "left") -> np.ndarray:
        # Q is the contiguous index window around the identity and x·q = q·x = x + q
        _check_side(side)
        return _window_max(mag, self.q_indices[0] - self.identity,
                           self.q_indices[-1] - self.identity)

    def q_neighbourhood(self, points) -> np.ndarray:
        # p·q = p + q: the marked points pushed by the window of Q (a push, so the
        # window is reflected against local_max's pull)
        marks = np.zeros(self.size, dtype=bool)
        marks[np.asarray(points, dtype=int)] = True
        return np.flatnonzero(_window_max(marks, self.identity - self.q_indices[-1],
                                          self.identity - self.q_indices[0]))

    def convolve(self, v1, v2, twisted: bool = False) -> np.ndarray:
        # the same sum: under addition on a uniform grid a plain sequence convolution, taken
        # directly (no FFT) on the nonzero span of each input, as the zeros outside it add
        # exact zeros.  The cocycle is trivial, so ``twisted`` changes nothing
        n, i0 = self.size, self.identity
        full = np.zeros(2 * n - 1, dtype=np.result_type(v1, v2))
        nz1, nz2 = np.flatnonzero(v1), np.flatnonzero(v2)
        if nz1.size and nz2.size:
            part = np.convolve(v1[nz1[0]:nz1[-1] + 1], v2[nz2[0]:nz2[-1] + 1])
            full[nz1[0] + nz2[0]:][:part.size] = part
        return self.step * full[i0:i0 + n]

    def point_label(self, i: int) -> str:
        return f"{self.coords[i]:g}"

    def index_of(self, coord) -> int:
        x = _real_coordinate(coord, coord)
        if not math.isfinite(x):
            raise InvalidParameterError(f"coordinate {coord} is not finite")
        k = int(round(x / self.step)) + self.identity
        if not (0 <= k < self.size) or abs(self.coords[k] - x) > 1e-9 * max(1.0, abs(x)):
            raise InvalidParameterError(f"coordinate {coord} is not on the grid")
        return k


def affine_axes(x_half_width: float, x_step: float, a_min: float, a_max: float,
                a_ratio: float) -> tuple:
    """The affine grid rule: the x-grid, the scale grid and the Haar weight of each scale.

    x is the uniform axis of the line model; a runs over ``a_ratio**m`` for m from
    ``round(log(a_min)/ln r)`` to ``round(log(a_max)/ln r)``, so a = 1 is on the
    grid.  Every point of scale row a weighs x_step ln(r)/a.
    """
    x_coords = _uniform_axis(x_half_width, x_step, "x_")
    # chained comparisons are False on NaN, so these also reject non-finite values
    if not (0 < a_min < 1 < a_max < np.inf):
        raise InvalidParameterError(f"need 0 < a_min < 1 < a_max < inf, got "
                                    f"a_min={a_min}, a_max={a_max}")
    if not (1 < a_ratio < np.inf):
        raise InvalidParameterError(f"need 1 < a_ratio < inf, got a_ratio={a_ratio}")
    lnr = np.log(float(a_ratio))
    m_lo = int(round(np.log(a_min) / lnr))
    m_hi = int(round(np.log(a_max) / lnr))
    if m_lo >= 0 or m_hi <= 0:
        raise InvalidParameterError("scale range must straddle a = 1")
    a_coords = float(a_ratio) ** np.arange(m_lo, m_hi + 1)
    return x_coords, a_coords, float(x_step) * lnr / a_coords


class AffineGridModel(GroupModel):
    """ax+b group on the grids of ``affine_axes``, whose weights carry dx da/a^2.

    Group law (x,a)(y,b) = (x+ay, ab), taken on cell indices.  Point (x_j, a_m),
    x_j = (j - k) h, has index j*n_a + m, and
    (j, m)·(j', m') = (j + rint(a_m (j' - k)), m + m' + m_lo) and
    (j, m)^{-1} = (k - rint(a_m' (j - k)), m'), m' = -m - 2 m_lo the mirrored row.
    Each is the cell nearest the exact x + a y or -x/a (a tie rounds the increment
    to even), absent when it leaves the grid; the scale part is exact (exponents
    add), and x^{-1}·x = e wherever x^{-1} is on the grid.  A product shifts a
    whole scale row by one integer, which is how ``local_max`` reads M^L row by
    row, and M^R by x-windows.  The model stores only the two axes, so ``haar``
    and ``modular`` are built on each access and the group law recovers (j, m)
    from an index by ``divmod``.
    """

    exact = False

    def __init__(self, x_half_width: float, x_step: float, a_min: float,
                 a_max: float, a_ratio: float):
        self.x_coords, self.a_coords, self.scale_haar = affine_axes(
            x_half_width, x_step, a_min, a_max, a_ratio)
        self.x_step = float(x_step)
        self.n_x, self.n_a = len(self.x_coords), len(self.a_coords)
        self._k_max = self.n_x // 2
        self._m_lo = -int(np.searchsorted(self.a_coords, 1.0))  # a_ratio**0 == 1.0
        self.size = self.n_x * self.n_a
        self.identity = self._k_max * self.n_a + (-self._m_lo)
        q_x, q_a = self._q_windows()
        self.q_indices = (q_x[:, None] * self.n_a + q_a[None, :]).ravel()

    def _q_windows(self):
        """Q = (-1, 1) x (1/2, 2) as its x-index window and its scale-index window."""
        return (np.nonzero(np.abs(self.x_coords) < 1.0)[0],
                np.nonzero((self.a_coords > 0.5) & (self.a_coords < 2.0))[0])

    @property
    def haar(self) -> np.ndarray:
        return np.tile(self.scale_haar, self.n_x)

    @property
    def modular(self) -> np.ndarray:
        return np.tile(1.0 / self.a_coords, self.n_x)

    def _shift(self, a, jx) -> np.ndarray:
        """rint(a (jx - k)): the x-index shift by which scale a moves the x-index jx."""
        return np.rint(a * (jx - self._k_max)).astype(int)

    def _cell(self, jx, ma) -> np.ndarray:
        """The index of cell (jx, ma), ABSENT when either leaves the grid."""
        ok = (jx >= 0) & (jx < self.n_x) & (ma >= 0) & (ma < self.n_a)
        return np.where(ok, jx * self.n_a + ma, ABSENT)

    def mul_indices(self, i, j):
        jx_i, ma_i = np.divmod(np.asarray(i), self.n_a)
        jx_j, ma_j = np.divmod(np.asarray(j), self.n_a)
        return self._cell(jx_i + self._shift(self.a_coords[ma_i], jx_j),
                          ma_i + ma_j + self._m_lo)

    def inv_indices(self, i):
        jx_i, ma_i = np.divmod(np.asarray(i), self.n_a)
        ma = -ma_i - 2 * self._m_lo  # the mirrored row; off the grid the cell is absent
        a = self.a_coords[np.clip(ma, 0, self.n_a - 1)]
        return self._cell(self._k_max - self._shift(a, jx_i), ma)

    def local_max(self, mag, side: str = "left") -> np.ndarray:
        """max over q in Q of ``mag`` at x·q (left) or q·x (right); an absent product reads 0.

        Over Q = Q_x x Q_a both scale indices are a shift of the scale index of x
        by that of q_a, and with q_x = i h, |i| <= i_max, the x-index of the
        product is an integer shift of a row-wide or column-wide index:
        - M^L: j + rint(a_m i) for every j of scale row a_m.  M^L takes the window
          max over the scale shifts of Q_a, then, per scale row, one shifted max
          per distinct rint(a_m i) of the row.
        - M^R: k + i + rint(q_a (j - k)) for every i and every scale row.  M^R takes
          one window max over [-i_max, i_max] along x, then, per scale offset s of
          Q_a, one gather of the rows m + s at the window centres
          k + rint(q_a (j - k)), reading 0 where the window misses the grid or the
          row m + s leaves it.
        These are the products of ``mul_indices`` and a max is exact, so the
        result is bit-identical to the base loop.
        """
        _check_side(side)
        lead = np.shape(mag)[:-1]
        grid = np.reshape(mag, lead + (self.n_x, self.n_a))
        out = self._left_rows(grid) if side == "left" else self._right_rows(grid)
        return np.swapaxes(out, -1, -2).reshape(lead + (self.size,))

    def _left_rows(self, grid) -> np.ndarray:
        """M^L of ``grid``, the (..., n_x, n_a) values, as (..., n_a, n_x) scale rows."""
        q_x, q_a = self._q_windows()
        s_a, n_x = q_a + self._m_lo, self.n_x
        scaled = _window_max(grid, s_a[0], s_a[-1])
        rows = np.ascontiguousarray(np.swapaxes(scaled, -1, -2))  # (..., n_a, n_x)
        del scaled  # the peak stays at rows, out and the result
        out = np.zeros_like(rows)
        shifts = self._shift(self.a_coords[:, None], q_x)
        for m, d_m in enumerate(shifts.tolist()):
            row, acc = rows[..., m, :], out[..., m, :]
            # out[j] reads row[j + s]; off the grid it reads 0, so the slice stops there
            for s in {s for s in d_m if abs(s) < n_x}:
                lo, hi = max(0, -s), min(n_x, n_x - s)
                np.maximum(acc[..., lo:hi], row[..., lo + s:hi + s], out=acc[..., lo:hi])
        return out

    def _right_rows(self, grid) -> np.ndarray:
        """M^R of ``grid``, the (..., n_x, n_a) values, as (..., n_a, n_x) scale rows."""
        q_x, q_a = self._q_windows()
        s_a, n_x, n_a, k = q_a + self._m_lo, self.n_x, self.n_a, self._k_max
        i_max = k - q_x[0]  # Q_x is the index window k + [-i_max, i_max]
        # the rows padded by i_max + 1 zeros at both ends: window[..., k + d + pad] is the
        # max of row[k + d - i_max .. k + d + i_max] for every centre whose window reaches
        # the grid, and window[..., 0] and window[..., -1] read only zeros, which is
        # where the clip mode sends every centre beyond them
        pad = i_max + 1
        centres = k + pad + self._shift(self.a_coords[q_a, None], np.arange(n_x))
        rows = np.zeros(grid.shape[:-2] + (n_a, n_x + 2 * pad))
        rows[..., pad:pad + n_x] = np.swapaxes(grid, -1, -2)
        window = _window_max(rows, -i_max, i_max)
        del rows  # the peak stays at window, out and one gather
        out = np.zeros(grid.shape[:-2] + (n_a, n_x))
        for s, centre in zip(s_a.tolist(), centres):
            lo, hi = max(0, -s), min(n_a, n_a - s)  # rows m with m + s on the grid
            acc = out[..., lo:hi, :]
            np.maximum(acc, np.take(window[..., lo + s:hi + s, :], centre, axis=-1,
                                    mode="clip"), out=acc)
        return out

    def q_neighbourhood(self, points) -> np.ndarray:
        # p·q = (jx_p + rint(a_p i), ma_p + ma_q) for q_x = i h: per q_x, mark (x-index of
        # p·q_x, scale of p), then push the marks along the scale axis by the shifts of
        # Q_a (a push, so the window is reflected against local_max's pull)
        q_x, q_a = self._q_windows()
        jx_p, ma_p = np.divmod(np.asarray(points), self.n_a)
        a_p = self.a_coords[ma_p]
        marks = np.zeros(self.size + 1, dtype=bool)  # pad slot absorbs absent products
        for jq in q_x:
            marks[self._cell(jx_p + self._shift(a_p, jq), ma_p)] = True
        s_a = q_a + self._m_lo
        grid = marks[:-1].reshape(self.n_x, self.n_a)
        return np.flatnonzero(_window_max(grid, -s_a[-1], -s_a[0]))

    def point_label(self, i: int) -> str:
        jx, ma = divmod(int(i), self.n_a)
        return f"({self.x_coords[jx]:g},{self.a_coords[ma]:g})"

    def index_of(self, coord) -> int:
        x, a = (_real_coordinate(c, coord) for c in _pair(coord))
        jx = int(np.abs(self.x_coords - x).argmin())
        ma = int(np.abs(self.a_coords - a).argmin())
        if not (abs(self.x_coords[jx] - x) <= 1e-9 * max(1.0, abs(x))
                and abs(self.a_coords[ma] - a) <= 1e-9 * abs(a)):
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


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class PWeight:
    """Weight values with the exponent p they serve; the values are checked finite and > 0.

    The axioms (w >= 1, submultiplicativity, p-symmetry) are checked by
    ``validate_p_weight``, not here; p is not checked, since ``gabor frame``
    accepts p > 1.
    """

    values: np.ndarray
    p: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values) & (values > 0)):
            raise InvalidWeightError("weight entries must be positive and finite")
        object.__setattr__(self, "values", values)


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


def validate_p_weight(model: GroupModel, w, p: float) -> WeightValidationReport:
    """Check the three weight axioms; truncated models use a relative tolerance.

    Submultiplicativity is checked at every pair when there are at most
    4,000,000, else at 2,000,000 pairs drawn with seed 7 (``exhaustive`` False).
    """
    tol = 1e-9
    w = np.asarray(w, dtype=float)
    if w.shape != (model.size,):
        raise InvalidWeightError(f"weight must have shape ({model.size},), got {w.shape}")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise InvalidWeightError("weight entries must be positive and finite")
    if not (0 < p <= 1):
        raise InvalidParameterError(f"p must lie in (0, 1], got {p}")

    w1_min = float(w.min())
    w1_pass = w1_min >= 1.0 - tol

    n = model.size
    exhaustive = n * n <= 4_000_000
    if exhaustive:
        i, j = np.divmod(np.arange(n * n), n)
    else:
        rng = np.random.default_rng(7)
        i, j = rng.integers(0, n, 2_000_000), rng.integers(0, n, 2_000_000)
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
    if not (_is_int_at_least(x_index, 0) and x_index < model.size):
        raise InvalidParameterError(f"carrier index {x_index!r} is not an integer, or is "
                                    f"outside [0, {model.size})")
    qx = model.mul_indices(model.q_indices, x_index)
    return float(model.haar[model.q_neighbourhood(qx[qx >= 0])].sum())
