"""The amalgam-norm kernel, the molecule bound and the pair check, pinned bit for bit.

Each is compared with ``==`` or ``array_equal`` against the GridFunction
composition it replaced (``tests/_oracles.py``), on the line, the affine grid
(whose M^R is the base loop) and Z_N x Z_N.
"""

import numpy as np
import pytest

import _oracles
from _oracles import (
    ABSENT,
    brute_absent_pairs,
    brute_affine_inv,
    brute_affine_mul,
    composed_amalgam_norm,
    composed_product_envelope,
    composed_sequence_norm,
    inline_shifted_series_check,
    shifted_series_check,
)
from coorbitkit import (
    CDMatrix,
    GridFunction,
    QuasiNormSpec,
    SampleSet,
    SequenceSpaceSpec,
    amalgam_norm,
    build_affine_grid,
    build_cyclic_phase_space,
    build_real_line,
    convolve,
    lpw_norm,
    maximal_left,
    maximal_right,
    product_with_envelope,
    rel_separation,
    sequence_norm,
)
from coorbitkit import groups
from coorbitkit.sampling import molecule_bound, pair_check

AFFINE_PARAMS = (2.0, 0.25, 0.3, 3.0, 1.5)
MODELS = {
    "line": lambda: build_real_line(4.0, 0.25),
    "affine": lambda: build_affine_grid(*AFFINE_PARAMS),
    "cyclic": lambda: build_cyclic_phase_space(8),
}
FLAVORS = ("plain", "left", "right", "two_sided")


@pytest.fixture(params=list(MODELS), scope="module")
def model(request):
    return MODELS[request.param]()


def random_function(model, seed, nonnegative=False):
    rng = np.random.default_rng(seed)
    if nonnegative:
        return GridFunction(model, rng.random(model.size) + 0j)
    return GridFunction(model, rng.normal(size=model.size) + 1j * rng.normal(size=model.size))


def specs(model):
    """Every flavor at p in {1/2, 1, 2, inf}, with the unit weight and a random one."""
    weight = 0.5 + np.random.default_rng(9).random(model.size)
    return [QuasiNormSpec(p=p, weight=w, flavor=flavor)
            for flavor in FLAVORS for p in (0.5, 1.0, 2.0, np.inf) for w in (None, weight)]


def sample_of(model, step=3):
    return SampleSet(model=model, points=np.arange(0, model.size, step))


def all_pairs(model):
    """(x, y) index arrays over all carrier pairs, row-major."""
    return np.divmod(np.arange(model.size ** 2), model.size)


class TestNormKernel:
    def test_amalgam_norm_matches_composition(self, model):
        for seed in range(3):
            f = random_function(model, seed)
            for spec in specs(model):
                assert amalgam_norm(f, spec) == composed_amalgam_norm(f, spec)

    def test_lpw_norm_matches_composition(self, model):
        f = random_function(model, 4)
        for spec in specs(model):
            if spec.flavor == "plain":
                assert lpw_norm(f, spec) == composed_amalgam_norm(f, spec)

    def test_sequence_norm_matches_composition(self, model):
        rng = np.random.default_rng(5)
        sample = sample_of(model)
        for spec in specs(model):
            c = rng.normal(size=len(sample)) + 1j * rng.normal(size=len(sample))
            sspec = SequenceSpaceSpec(base=spec, sample=sample)
            assert sequence_norm(c, sspec) == composed_sequence_norm(c, sspec)

    def test_no_wrapper_is_built(self, model, monkeypatch):
        f = random_function(model, 6)
        all_specs = specs(model)
        sspecs = [SequenceSpaceSpec(base=spec, sample=sample_of(model)) for spec in all_specs]
        c = np.ones(len(sample_of(model)))
        built = []
        for cls in (GridFunction, QuasiNormSpec):
            init = cls.__post_init__

            def counting(obj, init=init, name=cls.__name__):
                built.append(name)
                init(obj)

            monkeypatch.setattr(cls, "__post_init__", counting)
        for spec, sspec in zip(all_specs, sspecs):
            amalgam_norm(f, spec)
            sequence_norm(c, sspec)
        assert built == []
        GridFunction(model, np.zeros(model.size))  # the counter itself is live
        assert built == ["GridFunction"]


def envelope_matrix(model, sample, seed):
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(len(sample), len(sample))) \
        + 1j * rng.normal(size=(len(sample), len(sample)))
    cdm = CDMatrix(rows=sample, cols=sample, entries=entries)
    cdm.envelope = GridFunction(model, rng.random(model.size) + 0j)
    return cdm


class TestMoleculeBound:
    def test_product_envelope_matches_composition(self, model):
        sample = sample_of(model, 5)
        a, b = envelope_matrix(model, sample, 1), envelope_matrix(model, sample, 2)
        prod = product_with_envelope(a, b)
        assert np.array_equal(prod.envelope.values.real, composed_product_envelope(a, b))

    def test_one_pair_is_the_scaled_convolution(self, model):
        theta, phi = random_function(model, 8, True), random_function(model, 9, True)
        rel = rel_separation(sample_of(model))
        conv = convolve(maximal_left(theta), maximal_right(phi)).values.real
        expected = rel / model.q_mass() * conv
        assert np.array_equal(molecule_bound(rel, [(theta, phi)]), expected)


class TestShiftedSeries:
    def test_matches_inline_check(self, model):
        f1, f2 = random_function(model, 11, True), random_function(model, 12, True)
        for step in (1, 4):
            sample = sample_of(model, step)
            result = shifted_series_check(f1, f2, sample)
            expected = inline_shifted_series_check(f1, f2, sample)
            assert {k: result[k] for k in expected} == expected

    def test_wide_line_matches_inline_check(self):
        model = build_real_line(30.0, 0.1)  # 601 points: all 361,201 pairs, in two row blocks
        f1, f2 = random_function(model, 13, True), random_function(model, 14, True)
        sample = sample_of(model, 40)
        result = shifted_series_check(f1, f2, sample)
        assert result["pairs"] == 601 ** 2
        expected = inline_shifted_series_check(f1, f2, sample)
        assert {k: result[k] for k in expected} == expected


class TestPairCheckChunks:
    """pair_check reads the rows one block at a time and keeps running maxima."""

    @pytest.mark.parametrize("where", [0, -1])
    def test_nan_left_side_propagates(self, where, monkeypatch):
        # Python's max(-1.0, nan) is -1.0: the maxima, within and across blocks, must be numpy's
        model = build_real_line(4.0, 0.25)  # 33 points
        rows = np.arange(model.size)
        nan_row = rows[where]
        reads = []

        def lhs_rows(block):
            reads.append(rows[block].size)
            out = np.zeros((rows[block].size, model.size))
            out[rows[block] == nan_row, where] = np.nan
            return out

        # one block; then 9 blocks of 4 rows, the last of 1: the NaN in the first or last
        for entries, blocks in ((groups._BLOCK_ENTRIES, [33]), (4 * model.size, [4] * 8 + [1])):
            monkeypatch.setattr(groups, "_BLOCK_ENTRIES", entries)
            reads.clear()
            result = pair_check(model, np.ones(model.size), lhs_rows, rows)
            assert reads == blocks
            assert np.isnan(result["max_excess"]) and not result["holds"]
            assert result["pairs"] == model.size ** 2


class TestPairCheckRows:
    """Rows x carrier: every point as a row, or the coset rows of a subgroup, which
    cover every pair with n/|Lambda| times fewer reads."""

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("n", [576, 1024])
    def test_square_draws_are_unchanged(self, n, seed):
        # every point as a row: all n x n pairs are read, in 2 (n = 576) or 4 row blocks,
        # and the result is the dense check's over a left side and bound drawn with seed
        model = build_cyclic_phase_space(int(round(n ** 0.5)))
        assert model.size == n
        rng = np.random.default_rng(seed)
        lhs, bound = rng.random((n, n)), 0.5 + rng.random(n)
        rows = np.arange(n)
        result = pair_check(model, bound, lambda block: lhs[rows[block]], rows)
        rhs = bound[model.div_indices(rows[None, :], rows[:, None])]
        assert result == {
            "pairs": n * n,
            "absent": 0,
            "max_excess": float((lhs - rhs).max()) / max(1.0, float(rhs.max())),
            "max_ratio": float((lhs / rhs).max()),
            "holds": float((lhs - rhs).max()) / max(1.0, float(rhs.max())) <= 1e-10,
        }
        assert not result["holds"]

    @staticmethod
    def difference_check(model, rows):
        """pair_check of |f(y^{-1} x)| against a bound above it: both sides depend on
        y^{-1} x only, so they are invariant under every (x, y) -> (lam x, lam y).
        Also returns the rows of each block read and the shape of its left side."""
        values = random_function(model, 21, True).values.real
        carrier = np.arange(model.size)
        blocks = []

        def lhs_rows(block):
            out = values[model.div_indices(carrier[None, :], rows[block, None])]
            blocks.append((rows[block], out.shape))
            return out

        return pair_check(model, 1.1 * values, lhs_rows, rows), blocks

    @staticmethod
    def assert_read_once(model, rows, blocks):
        """Each row is read in exactly one block, in order, against every carrier point."""
        assert np.array_equal(np.concatenate([read for read, _ in blocks]), rows)
        assert all(shape == (read.size, model.size) for read, shape in blocks)

    def test_coset_rows_cover_every_pair(self):
        model = build_cyclic_phase_space(8)
        full, _ = self.difference_check(model, np.arange(model.size))
        rows = np.array([0, 1, 8, 9])  # the cosets of the (2, 2) lattice
        result, blocks = self.difference_check(model, rows)
        assert result == full
        assert result["pairs"] == 64 ** 2
        assert len(blocks) == 1
        self.assert_read_once(model, rows, blocks)

    def test_coset_rows_are_read_once(self):
        model = build_cyclic_phase_space(32)
        rows = np.array([k * 32 + l for k in range(16) for l in range(16)])  # 256 cosets
        result, blocks = self.difference_check(model, rows)  # 262,144 rows x carrier pairs
        self.assert_read_once(model, rows, blocks)
        assert result["pairs"] == 1024 ** 2
        assert result["max_excess"] < 0 and result["holds"]
        full, _ = self.difference_check(model, np.arange(model.size))  # 4 blocks of 256 rows
        assert result == full

    def test_steps_4_4_at_n128_read_every_pair(self):
        """The 16 coset rows of steps (4, 4) at N = 128, a check that once sampled
        200,000 of its 262,144 row x carrier pairs."""
        model = build_cyclic_phase_space(128)
        rows = np.array([k * 128 + l for k in range(4) for l in range(4)])
        result, blocks = self.difference_check(model, rows)
        self.assert_read_once(model, rows, blocks)
        assert result["pairs"] == model.size ** 2 == 268_435_456
        assert result["absent"] == 0 and result["max_excess"] < 0 and result["holds"]


class TestAbsentPairs:
    def test_line_matches_brute_count(self):
        model = build_real_line(4.0, 0.25)
        f = random_function(model, 15, True)
        result = shifted_series_check(f, f, sample_of(model))
        xs, ys = all_pairs(model)
        half_width = model.coords[-1]

        def is_absent(y, x):  # y^{-1} x = x - y leaves [-L, L]
            return abs(model.coords[x] - model.coords[y]) > half_width + 1e-9

        assert result["absent"] == brute_absent_pairs(is_absent, xs, ys) > 0
        assert result["pairs"] == model.size ** 2

    def test_line_row_blocks_match_brute_count(self, monkeypatch):
        """7 blocks of 5 rows, the last of 3: the absent pairs summed over the blocks."""
        model = build_real_line(4.0, 0.25)
        f = random_function(model, 15, True)
        one = shifted_series_check(f, f, sample_of(model))
        reads = []

        def spy(model, bound, lhs_rows, rows):
            return pair_check(model, bound,
                              lambda block: reads.append(rows[block].size) or lhs_rows(block), rows)

        monkeypatch.setattr(_oracles, "pair_check", spy)
        monkeypatch.setattr(groups, "_BLOCK_ENTRIES", 5 * model.size)
        blocked = shifted_series_check(f, f, sample_of(model))
        assert reads == [5] * 6 + [3]
        xs, ys = all_pairs(model)
        off = np.abs(model.coords[xs] - model.coords[ys]) > model.coords[-1] + 1e-9
        assert blocked["absent"] == one["absent"] == int(off.sum()) > 0
        assert blocked == one

    def test_wide_line_matches_coordinate_count(self):
        model = build_real_line(30.0, 0.1)  # 601 points, in two row blocks
        zeros = np.zeros(model.size)
        result = pair_check(model, zeros, lambda block: np.zeros((zeros[block].size, model.size)),
                            np.arange(model.size))
        assert result["pairs"] == 601 ** 2
        xs, ys = all_pairs(model)
        off = np.abs(model.coords[xs] - model.coords[ys]) > model.coords[-1] + 1e-9
        assert result["absent"] == int(off.sum()) > 0

    def test_affine_matches_brute_count(self):
        model = build_affine_grid(*AFFINE_PARAMS)
        mul, inv = brute_affine_mul(*AFFINE_PARAMS), brute_affine_inv(*AFFINE_PARAMS)

        def is_absent(y, x):
            return inv[y] == ABSENT or mul[inv[y], x] == ABSENT

        f = random_function(model, 16, True)
        result = shifted_series_check(f, f, sample_of(model, 7))
        xs, ys = all_pairs(model)
        assert result["absent"] == brute_absent_pairs(is_absent, xs, ys) > 0

    def test_cyclic_has_none(self):
        model = build_cyclic_phase_space(8)
        f = random_function(model, 17, True)
        result = shifted_series_check(f, f, sample_of(model))
        assert result["absent"] == 0

    def test_absent_pairs_read_an_infinite_bound(self):
        # a huge left side on exactly the pairs whose x - y is off the grid, zero elsewhere
        model = build_real_line(4.0, 0.25)

        coords = model.coords

        def lhs_rows(block):
            off = np.abs(coords[block, None] - coords[None, :]) > coords[-1] + 1e-9
            return np.where(off, 1e6, 0.0)

        result = pair_check(model, np.zeros(model.size), lhs_rows, np.arange(model.size))
        assert result["absent"] > 0 and result["holds"] and result["max_excess"] == 0.0
