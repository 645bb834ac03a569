"""The amalgam-norm kernel, the molecule bound and the pair check, pinned bit for bit.

Each is compared with ``==`` or ``array_equal`` against the GridFunction
composition it replaced (``tests/_oracles.py``), on the line, the affine grid
(whose M^R is the base loop) and Z_N x Z_N.
"""

import numpy as np
import pytest

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
from coorbitkit.groups import index_pairs
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

    def test_sampled_pairs_match_inline_check(self):
        model = build_real_line(30.0, 0.1)  # 601 points: 361,201 pairs, so 200,000 are drawn
        f1, f2 = random_function(model, 13, True), random_function(model, 14, True)
        sample = sample_of(model, 40)
        result = shifted_series_check(f1, f2, sample)
        assert not result["exhaustive"] and result["pairs"] == 200_000
        expected = inline_shifted_series_check(f1, f2, sample)
        assert {k: result[k] for k in expected} == expected


class TestPairCheckChunks:
    """pair_check reads every pair in one pass."""

    @pytest.mark.parametrize("where", [0, -1])
    def test_nan_left_side_propagates(self, where):
        # Python's max(-1.0, nan) is -1.0: the maxima must be numpy's
        model = build_real_line(4.0, 0.25)

        def lhs_at(xs, ys):
            out = np.zeros(xs.shape)
            out[where] = np.nan
            return out

        result = pair_check(model, np.ones(model.size), lhs_at, seed=0,
                            rows=np.arange(model.size))
        assert np.isnan(result["max_excess"]) and not result["holds"]
        assert result["pairs"] == model.size ** 2 and result["exhaustive"]


class TestPairCheckRows:
    """Rows x carrier: with every point as a row, the n x n draws; with the coset rows of
    a subgroup, every pair covered by n/|Lambda| times fewer reads."""

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("n", [576, 1024])
    def test_square_draws_are_unchanged(self, n, seed):
        i, j, exhaustive = index_pairs(n, n, 200_000, 200_000, seed)
        rng = np.random.default_rng(seed)
        assert not exhaustive
        assert np.array_equal(i, rng.integers(0, n, 200_000))
        assert np.array_equal(j, rng.integers(0, n, 200_000))

    def test_rectangular_pairs(self):
        i, j, exhaustive = index_pairs(3, 5, 15, 7, 0)
        assert exhaustive and i.tolist() == [r for r in range(3) for _ in range(5)]
        assert j.tolist() == list(range(5)) * 3
        i, j, exhaustive = index_pairs(3, 5, 14, 7, 0)
        assert not exhaustive and i.size == j.size == 7 and i.max() < 3 and j.max() < 5

    @staticmethod
    def difference_check(model, rows):
        """pair_check of |f(y^{-1} x)| against a bound above it: both sides depend on
        y^{-1} x only, so they are invariant under every (x, y) -> (lam x, lam y)."""
        values = random_function(model, 21, True).values.real
        pairs = []

        def lhs_at(xs, ys):
            pairs.append((xs, ys))
            return values[model.div_indices(ys, xs)]

        return pair_check(model, 1.1 * values, lhs_at, seed=3, rows=rows), pairs

    def test_coset_rows_cover_every_pair(self):
        model = build_cyclic_phase_space(8)
        full, _ = self.difference_check(model, np.arange(model.size))
        rows = np.array([0, 1, 8, 9])  # the cosets of the (2, 2) lattice
        result, pairs = self.difference_check(model, rows)
        assert result == full
        assert result["pairs"] == 64 ** 2 and result["exhaustive"]
        xs, ys = pairs[0]
        assert xs.size == 4 * 64 and set(xs.tolist()) == set(rows.tolist())

    def test_coset_rows_are_drawn_past_the_budget(self):
        model = build_cyclic_phase_space(32)
        rows = np.array([k * 32 + l for k in range(16) for l in range(16)])  # 256 cosets
        result, pairs = self.difference_check(model, rows)  # 262,144 rows x carrier pairs
        xs, ys = pairs[0]
        assert not result["exhaustive"] and xs.size == 200_000
        assert result["pairs"] == 200_000 * 4 and np.isin(xs, rows).all()
        assert result["max_excess"] < 0 and result["holds"]


class TestAbsentPairs:
    def test_line_matches_brute_count(self):
        model = build_real_line(4.0, 0.25)
        f = random_function(model, 15, True)
        result = shifted_series_check(f, f, sample_of(model))
        xs, ys, _ = index_pairs(model.size, model.size, 200_000, 200_000, 11)
        half_width = model.coords[-1]

        def is_absent(y, x):  # y^{-1} x = x - y leaves [-L, L]
            return abs(model.coords[x] - model.coords[y]) > half_width + 1e-9

        assert result["absent"] == brute_absent_pairs(is_absent, xs, ys) > 0
        assert result["exhaustive"] and result["pairs"] == model.size ** 2

    def test_sampled_line_matches_coordinate_count(self):
        model = build_real_line(30.0, 0.1)
        xs, ys, exhaustive = index_pairs(model.size, model.size, 200_000, 200_000, 3)
        result = pair_check(model, np.zeros(model.size), lambda x, y: np.zeros(x.shape), seed=3,
                            rows=np.arange(model.size))
        assert not exhaustive and result["pairs"] == 200_000
        off = np.abs(model.coords[xs] - model.coords[ys]) > model.coords[-1] + 1e-9
        assert result["absent"] == int(off.sum()) > 0

    def test_affine_matches_brute_count(self):
        model = build_affine_grid(*AFFINE_PARAMS)
        mul, inv = brute_affine_mul(*AFFINE_PARAMS), brute_affine_inv(*AFFINE_PARAMS)

        def is_absent(y, x):
            return inv[y] == ABSENT or mul[inv[y], x] == ABSENT

        f = random_function(model, 16, True)
        result = shifted_series_check(f, f, sample_of(model, 7))
        xs, ys, _ = index_pairs(model.size, model.size, 200_000, 200_000, 11)
        assert result["absent"] == brute_absent_pairs(is_absent, xs, ys) > 0

    def test_cyclic_has_none(self):
        model = build_cyclic_phase_space(8)
        f = random_function(model, 17, True)
        result = shifted_series_check(f, f, sample_of(model))
        assert result["absent"] == 0 and result["exhaustive"]

    def test_absent_pairs_read_an_infinite_bound(self):
        # a huge left side on exactly the pairs whose x - y is off the grid, zero elsewhere
        model = build_real_line(4.0, 0.25)

        def lhs_at(xs, ys):
            off = np.abs(model.coords[xs] - model.coords[ys]) > model.coords[-1] + 1e-9
            return np.where(off, 1e6, 0.0)

        result = pair_check(model, np.zeros(model.size), lhs_at, seed=0,
                            rows=np.arange(model.size))
        assert result["absent"] > 0 and result["holds"] and result["max_excess"] == 0.0
