import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import affine_coords, brute_maximal_left, brute_twisted_convolve, inv, mul, \
    translate_left, translate_right
from coorbitkit import (
    GridFunction,
    QuasiNormSpec,
    amalgam_norm,
    build_affine_grid,
    build_cyclic_phase_space,
    build_real_line,
    convolution_relation_check,
    convolve,
    indicator,
    involution,
    lpw_norm,
    maximal_left,
    maximal_right,
    symmetrize_weight,
    twisted_convolve,
    unit_weight,
)
from coorbitkit.amalgam import magnitude_norm
from coorbitkit.errors import IncompatibleOperandsError, InvalidParameterError, \
    InvalidWeightError

E = float(np.e)


@pytest.fixture(scope="module")
def cyclic8():
    return build_cyclic_phase_space(8)


def random_grid(model, seed, real=False):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=model.size) + (0 if real else 1j * rng.normal(size=model.size))
    return GridFunction(model, v + 0j)


class TestInvolution:
    def test_q_indicator_symmetric(self, cyclic8):
        f = indicator(cyclic8, cyclic8.q_indices)
        assert np.allclose(involution(f).values, f.values)

    def test_cyclic_delta(self):
        m = build_cyclic_phase_space(4)
        f = indicator(m, [m.index_of((1, 0))])
        assert np.allclose(involution(f).values, indicator(m, [m.index_of((3, 0))]).values)

    def test_line_interval(self):
        m = build_real_line(6.0, 0.25)
        t = 2.0
        f = indicator(m, np.nonzero((m.coords > t) & (m.coords < t + 1))[0])
        expected = indicator(m, np.nonzero((m.coords > -t - 1) & (m.coords < -t))[0])
        assert np.allclose(involution(f).values, expected.values)


class TestLpwNorm:
    def test_zero(self, cyclic8):
        assert lpw_norm(GridFunction(cyclic8, np.zeros(64)), QuasiNormSpec(p=1.0)) == 0.0

    def test_total_mass_n2(self):
        m = build_cyclic_phase_space(2)
        val = lpw_norm(GridFunction(m, np.ones(4)), QuasiNormSpec(p=1.0))
        assert val == pytest.approx(2.0)

    def test_exponential_weight_quadrature(self):
        m = build_real_line(4.0, 0.5)
        f = indicator(m, np.nonzero((m.coords >= 0) & (m.coords <= 1))[0])
        val = lpw_norm(f, QuasiNormSpec(p=1.0, weight=np.exp(m.coords)))
        # closed-interval Riemann sum: first-order boundary error h*(f(0)+f(1))/2
        assert abs(val - (E - 1)) <= m.step * (1 + E) / 2 + m.step
        m2 = build_real_line(4.0, 0.01)
        f2 = indicator(m2, np.nonzero((m2.coords >= 0) & (m2.coords <= 1))[0])
        val2 = lpw_norm(f2, QuasiNormSpec(p=1.0, weight=np.exp(m2.coords)))
        assert abs(val2 - (E - 1)) <= 0.02 * (E - 1)

    def test_p_infinity(self, cyclic8):
        f = random_grid(cyclic8, 0)
        w = 1.0 + np.arange(64.0)
        spec = QuasiNormSpec(p=np.inf, weight=w)
        assert lpw_norm(f, spec) == pytest.approx((np.abs(f.values) * w).max())



class TestSpecInput:
    """p = -inf once read as the sup norm, a bool as p = 1; a weight <= 0 gave a negative norm."""

    # from np.array([1.0]) on, p is no real scalar: an array p once passed and made lpw_norm
    # return an array, and the others raised ValueError or TypeError from p > 0
    @pytest.mark.parametrize("p", [-np.inf, np.nan, 0.0, -1.0, True, False, np.True_,
                                   np.array([1.0]), np.array([1.0, 2.0]), np.array(1.0), "1",
                                   None, 1j, 1 + 0j])
    def test_rejects_p(self, p):
        with pytest.raises(InvalidParameterError, match="p must be positive or inf, got "):
            QuasiNormSpec(p=p)

    @pytest.mark.parametrize("p", [0.25, 1, 2.0, np.float64(0.5), np.inf, np.float32(0.5),
                                   np.int64(2)])
    def test_accepts_p(self, p):
        assert QuasiNormSpec(p=p).p == p
        assert type(QuasiNormSpec(p=p).p) is type(p)

    def test_inf_is_the_sup_norm(self):
        m = build_cyclic_phase_space(4)
        f = GridFunction(m, np.arange(16.0))
        assert amalgam_norm(f, QuasiNormSpec(p=np.inf)) == 15.0

    @pytest.mark.parametrize("entry", [-1.0, 0.0, -np.inf, np.inf, np.nan])
    @pytest.mark.parametrize("flavor", ["plain", "left"])
    def test_rejects_raw_weight(self, entry, flavor):
        w = np.ones(16)
        w[5] = entry
        with pytest.raises(InvalidWeightError, match="positive and finite"):
            QuasiNormSpec(p=1.0, weight=w, flavor=flavor)
        with pytest.raises(InvalidWeightError, match="positive and finite"):
            QuasiNormSpec(p=1.0, weight=np.full(16, entry), flavor=flavor)


class TestMaximalFunctions:
    def test_constant_exact(self, cyclic8):
        f = GridFunction(cyclic8, np.full(64, 3.0))
        assert np.allclose(maximal_left(f).values, 3.0)

    def test_line_window_domination(self):
        m = build_real_line(8.0, 0.25)
        t = 2.0
        f = indicator(m, np.nonzero((m.coords > t) & (m.coords < t + 1))[0])
        bound = indicator(m, np.nonzero((m.coords > t - 1) & (m.coords < t + 2))[0])
        assert np.all(maximal_left(f).values.real <= bound.values.real + 1e-12)

    def test_involution_duality(self, cyclic8):
        f = random_grid(cyclic8, 1)
        lhs = involution(maximal_left(f)).values.real
        rhs = maximal_right(involution(f)).values.real
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_matches_independent_oracle(self, cyclic8):
        f = random_grid(cyclic8, 2)
        assert np.allclose(maximal_left(f).values.real,
                           brute_maximal_left(8, f.values))

    def test_commutation_with_translation(self, cyclic8):
        f = random_grid(cyclic8, 3)
        for x in (1, 13, 63):
            lhs = maximal_left(translate_left(f, x)).values.real
            rhs = translate_left(maximal_left(f), x).values.real
            assert np.abs(lhs - rhs).max() < 1e-12
            lhs_r = maximal_right(translate_right(f, x)).values.real
            rhs_r = translate_right(maximal_right(f), x).values.real
            assert np.abs(lhs_r - rhs_r).max() < 1e-12


class TestAmalgamNorm:
    def test_zero(self, cyclic8):
        spec = QuasiNormSpec(p=1.0, flavor="left")
        assert amalgam_norm(GridFunction(cyclic8, np.zeros(64)), spec) == 0.0

    def test_delta_gives_q_mass(self):
        m = build_cyclic_phase_space(4)
        f = indicator(m, [m.identity])
        val = amalgam_norm(f, QuasiNormSpec(p=1.0, flavor="left"))
        assert val == pytest.approx(m.q_mass())

    def test_dominates_plain(self, cyclic8):
        f = random_grid(cyclic8, 4)
        for p in (0.5, 1.0, 2.0):
            spec_l = QuasiNormSpec(p=p, flavor="left")
            spec_p = QuasiNormSpec(p=p, flavor="plain")
            assert amalgam_norm(f, spec_l) >= lpw_norm(f, spec_p) - 1e-12

    def test_right_equals_left_of_involution(self, cyclic8):
        # nontrivial p-weight: symmetrize a submultiplicative seed on the torus
        n = cyclic8.n_side
        idx = np.arange(cyclic8.size)
        dist = np.minimum(idx // n, n - idx // n) + np.minimum(idx % n, n - idx % n)
        w = symmetrize_weight(cyclic8, np.exp(0.3 * dist), 0.5)
        f = random_grid(cyclic8, 5)
        lhs = amalgam_norm(f, QuasiNormSpec(p=0.5, weight=w, flavor="right"))
        rhs = amalgam_norm(involution(f), QuasiNormSpec(p=0.5, weight=w, flavor="left"))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestConvolution:
    def test_normalized_delta_is_identity(self, cyclic8):
        f = random_grid(cyclic8, 6)
        d = GridFunction(cyclic8, indicator(cyclic8, [cyclic8.identity]).values
                         / cyclic8.haar[cyclic8.identity])
        assert np.abs(convolve(f, d).values - f.values).max() < 1e-12
        assert np.abs(twisted_convolve(f, d).values - f.values).max() < 1e-12

    def test_twisted_matches_brute_force(self, cyclic8):
        f = random_grid(cyclic8, 7)
        h = random_grid(cyclic8, 8)
        expected = brute_twisted_convolve(8, f.values, h.values, twisted=True)
        assert np.abs(twisted_convolve(f, h).values - expected).max() < 1e-12
        plain = brute_twisted_convolve(8, f.values, h.values, twisted=False)
        assert np.abs(convolve(f, h).values - plain).max() < 1e-12

    def test_pointwise_domination(self, cyclic8):
        f = random_grid(cyclic8, 9)
        h = random_grid(cyclic8, 10)
        lhs = np.abs(twisted_convolve(f, h).values)
        rhs = convolve(abs(f), abs(h)).values.real
        assert np.all(lhs <= rhs + 1e-12)

    @pytest.mark.parametrize("build", [lambda: build_real_line(3.0, 0.25),
                                       lambda: build_affine_grid(2.0, 0.25, 0.3, 3.0, 1.5),
                                       lambda: build_cyclic_phase_space(1)],
                             ids=["line", "affine", "cyclic1"])
    def test_trivial_cocycle_twist_changes_nothing(self, build):
        # the cocycle reads as all ones there, so the twist leaves every value equal
        m = build()
        f, h = random_grid(m, 19), random_grid(m, 20)
        assert np.array_equal(twisted_convolve(f, h).values, convolve(f, h).values)

    def test_line_interval_convolution(self):
        m = build_real_line(8.0, 0.01)
        t = 2.0
        f = indicator(m, np.nonzero((m.coords > t) & (m.coords < t + 1))[0])
        g = indicator(m, np.nonzero((m.coords > -t - 1) & (m.coords < -t))[0])
        val = convolve(f, g).values[m.identity].real
        assert abs(val - 1.0) <= 2 * m.step

    def test_line_fast_path_matches_generic_sum(self):
        m = build_real_line(3.0, 0.25)
        rng = np.random.default_rng(17)
        v1 = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
        v2 = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
        fast = convolve(GridFunction(m, v1), GridFunction(m, v2)).values
        slow = np.zeros(m.size, complex)
        for yi in range(m.size):
            for xi in range(m.size):
                zi = mul(m, inv(m, yi), xi)
                if zi >= 0:
                    slow[xi] += v1[yi] * v2[zi] * m.step
        assert np.abs(fast - slow).max() < 1e-12

    def test_model_mismatch(self, cyclic8):
        other = build_cyclic_phase_space(8)
        with pytest.raises(IncompatibleOperandsError):
            convolve(random_grid(cyclic8, 11), random_grid(other, 12))

    def test_twisted_associativity(self, cyclic8):
        f1 = random_grid(cyclic8, 13)
        f2 = random_grid(cyclic8, 14)
        f3 = random_grid(cyclic8, 15)
        lhs = twisted_convolve(twisted_convolve(f1, f2), f3).values
        rhs = twisted_convolve(f1, twisted_convolve(f2, f3)).values
        assert np.abs(lhs - rhs).max() < 1e-12


def untrimmed_line_convolution(m, v1, v2):
    """The line convolution on the whole carrier, zeros included."""
    return m.step * np.convolve(v1, v2)[m.identity:m.identity + m.size]


class TestLineConvolutionTrim:
    """The line path convolves only the non-zero span of each input."""

    @pytest.mark.parametrize("step", [0.005, 0.0025])
    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
    def test_realline_indicators_exact(self, step, t):
        # the runner's indicators: 0/1 entries, so every partial sum is an exact integer
        m = build_real_line(12.0, step)
        f = indicator(m, np.nonzero((m.coords > t) & (m.coords < t + 1))[0])
        g = indicator(m, np.nonzero((m.coords > -t - 1) & (m.coords < -t))[0])
        assert np.array_equal(convolve(f, g).values,
                              untrimmed_line_convolution(m, f.values, g.values))

    @pytest.mark.parametrize("margins", [(0, 0, 0, 0), (1, 0, 0, 3), (5, 17, 30, 2),
                                         (40, 40, 0, 80), (100, 3, 7, 110)])
    def test_zero_margins_random(self, margins):
        m = build_real_line(30.0, 0.25)
        rng = np.random.default_rng(sum(margins))
        v1, v2 = (rng.normal(size=m.size) + 1j * rng.normal(size=m.size) for _ in range(2))
        lo1, hi1, lo2, hi2 = margins
        v1[:lo1] = 0
        v1[m.size - hi1:] = 0
        v2[:lo2] = 0
        v2[m.size - hi2:] = 0
        got = convolve(GridFunction(m, v1), GridFunction(m, v2)).values
        expected = untrimmed_line_convolution(m, v1, v2)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_degenerate_supports(self, dtype):
        m = build_real_line(3.0, 0.25)
        zero = np.zeros(m.size, dtype)
        single = zero.copy()
        single[4] = 2.0
        full = random_grid(m, 18).values
        full = full.real if dtype is float else full
        for v1, v2 in [(zero, full), (full, zero), (zero, zero)]:
            got = m.convolve(v1, v2)
            assert got.dtype == dtype and np.array_equal(got, np.zeros(m.size))
        for v1, v2 in [(single, full), (full, single), (single, single), (full, full)]:
            got = m.convolve(v1, v2)
            expected = untrimmed_line_convolution(m, v1, v2)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


class TestConvolutionRelation:
    def test_zero_factor(self, cyclic8):
        f = GridFunction(cyclic8, np.zeros(64))
        h = random_grid(cyclic8, 16)
        w = symmetrize_weight(cyclic8, np.ones(64), 1.0)
        rep = convolution_relation_check(f, h, QuasiNormSpec(p=1.0), w)
        assert rep.lhs == 0.0

    def test_maximal_estimates_exhaustive(self, cyclic8):
        w = symmetrize_weight(cyclic8, np.ones(64), 0.5)
        y = QuasiNormSpec(p=0.5, weight=w)
        for seed in range(50):
            f = random_grid(cyclic8, 100 + seed)
            h = random_grid(cyclic8, 200 + seed)
            rep = convolution_relation_check(f, h, y, w)
            assert rep.maximal_estimates_hold

    def test_affine_ratio_stable(self):
        m = __import__("coorbitkit").build_affine_grid(4.0, 0.1, 0.125, 8.0, 1.25)
        x, a = affine_coords(m).T
        w = symmetrize_weight(m, np.maximum(1.0, 1.0 + a - 1.0), 1.0)
        rng = np.random.default_rng(21)
        inner = (np.abs(x) < 2.0) & (a > 0.4) & (a < 2.5)
        ratios = []
        for _ in range(5):
            v1 = np.where(inner, rng.random(m.size), 0.0)
            v2 = np.where(inner, rng.random(m.size), 0.0)
            rep = convolution_relation_check(
                GridFunction(m, v1 + 0j), GridFunction(m, v2 + 0j),
                QuasiNormSpec(p=1.0, weight=w), w)
            ratios.append(rep.empirical_constant)
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        assert ratios.max() / ratios.min() < 10.0


STACK_MODELS = {
    "line": lambda: build_real_line(4.0, 0.25),
    "affine": lambda: build_affine_grid(2.0, 0.25, 0.3, 3.0, 1.5),
    "cyclic5": lambda: build_cyclic_phase_space(5),
    "cyclic8": lambda: build_cyclic_phase_space(8),
}


@pytest.mark.parametrize("name", list(STACK_MODELS))
def test_magnitude_norm_stack_rows_match_single_calls(name):
    # every row of a stack bit for bit as its own call: the row sums add in the
    # 1-D order and the root is numpy's scalar power
    model = STACK_MODELS[name]()
    rng = np.random.default_rng(9)
    stack = np.abs(rng.normal(size=(4, model.size)))
    stack[1] = 0.0
    weight = 1.0 + rng.random(model.size)
    for p in (1.0 / 3.0, 0.5, 1.0, 2.0, np.inf):
        for flavor in ("plain", "left", "right", "two_sided"):
            spec = QuasiNormSpec(p=p, weight=weight, flavor=flavor)
            got = magnitude_norm(model, stack, spec)
            assert got.shape == (4,)
            singles = [magnitude_norm(model, mags, spec) for mags in stack]
            assert all(isinstance(x, float) for x in singles)
            assert np.array_equal(got, singles), (p, flavor)
    assert isinstance(magnitude_norm(model, np.zeros(model.size), QuasiNormSpec(p=np.inf)), float)


@pytest.mark.parametrize("name", list(STACK_MODELS))
def test_magnitude_norm_unit_weight_reads_mags_as_they_are(name):
    # x * 1.0 == x, so the unit weight's skipped multiply moves no norm
    model = STACK_MODELS[name]()
    rng = np.random.default_rng(10)
    stack = np.abs(rng.normal(size=(3, model.size)))
    stack[1, ::3] = 0.0
    for p in (1.0 / 3.0, 0.5, 1.0, 2.0, np.inf):
        for flavor in ("plain", "left", "right", "two_sided"):
            unit = QuasiNormSpec(p=p, flavor=flavor)
            ones = QuasiNormSpec(p=p, weight=unit_weight(model, p), flavor=flavor)
            for mags in (stack[0], stack):
                before = mags.copy()
                got = magnitude_norm(model, mags, unit)
                assert np.array_equal(got, magnitude_norm(model, mags, ones)), (p, flavor)
                assert type(got) is type(magnitude_norm(model, mags, ones))
                assert np.array_equal(mags, before)


class TestEmbeddingConstant:
    """||F||_{L^{p_to}_w} / ||F||_{W^L(L^{p_from}_w)}: two magnitude_norm calls over a stack."""

    @staticmethod
    def norms(fs, p_from, p_to, w):
        mags = np.abs([f.values for f in fs])
        model = fs[0].model
        return (magnitude_norm(model, mags, QuasiNormSpec(p=p_to, weight=w)),
                magnitude_norm(model, mags, QuasiNormSpec(p=p_from, weight=w, flavor="left")))

    def test_single_delta_closed_form(self):
        m = build_cyclic_phase_space(4)
        f = indicator(m, [m.identity])
        w = unit_weight(m)
        num, den = self.norms([f], 0.5, 1.0, w)
        # ||delta||_{L^1} = mu(e); ||M^L delta||_{L^{1/2}} = (sum over Q of mu)^2
        expected = m.haar[m.identity] / float(m.haar[m.q_indices].sum() ** 2)
        assert (num / den).max() == pytest.approx(expected)

    def test_constant_function(self, cyclic8):
        f = GridFunction(cyclic8, np.ones(64))
        num, den = self.norms([f], 0.5, 1.0, unit_weight(cyclic8))
        mass = cyclic8.haar.sum()
        assert (num / den).max() == pytest.approx(mass ** (1.0 - 2.0))
        assert (num / den).max() <= 1.0

    def test_stack_matches_per_sample_ratios(self, cyclic8):
        fs = [random_grid(cyclic8, 40 + k) for k in range(4)]
        fs.append(GridFunction(cyclic8, np.zeros(64)))
        w = unit_weight(cyclic8)
        num, den = self.norms(fs, 0.5, 1.0, w)
        plain, left = QuasiNormSpec(p=1.0, weight=w), QuasiNormSpec(p=0.5, weight=w, flavor="left")
        assert num.tolist() == [lpw_norm(f, plain) for f in fs]
        assert den.tolist() == [amalgam_norm(f, left) for f in fs]
        assert num[-1] == den[-1] == 0.0

    def test_same_exponent_dominated(self, cyclic8):
        fs = [random_grid(cyclic8, 30 + k) for k in range(5)]
        num, den = self.norms(fs, 1.0, 1.0, unit_weight(cyclic8))
        assert (num / den).max() <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1.0 / 3.0, 0.5, 1.0]))
def test_p_triangle_inequality(seed, p):
    model = build_cyclic_phase_space(4)
    rng = np.random.default_rng(seed)
    f = GridFunction(model, rng.normal(size=16) + 1j * rng.normal(size=16))
    h = GridFunction(model, rng.normal(size=16) + 1j * rng.normal(size=16))
    both = GridFunction(model, f.values + h.values)
    for flavor in ("plain", "left", "two_sided"):
        spec = QuasiNormSpec(p=p, flavor=flavor)
        lhs = (lpw_norm(both, QuasiNormSpec(p=p)) if flavor == "plain"
               else amalgam_norm(both, spec)) ** p
        rhs = ((lpw_norm(f, QuasiNormSpec(p=p)) if flavor == "plain"
                else amalgam_norm(f, spec)) ** p
               + (lpw_norm(h, QuasiNormSpec(p=p)) if flavor == "plain"
                  else amalgam_norm(h, spec)) ** p)
        assert lhs <= rhs * (1 + 1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6))
def test_solid_summation(seed, count):
    model = build_cyclic_phase_space(4)
    rng = np.random.default_rng(seed)
    p = 0.5
    fs = [rng.normal(size=16) + 1j * rng.normal(size=16) for _ in range(count)]
    total = GridFunction(model, np.abs(np.array(fs)).sum(axis=0) + 0j)
    lhs = lpw_norm(total, QuasiNormSpec(p=p)) ** p
    rhs = sum(lpw_norm(GridFunction(model, v), QuasiNormSpec(p=p)) ** p for v in fs)
    assert lhs <= rhs * (1 + 1e-10)

