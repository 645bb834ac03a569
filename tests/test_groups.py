import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coorbitkit import (
    build_affine_grid,
    build_cyclic_phase_space,
    build_real_line,
    measure_QxQ,
    symmetrize_weight,
    unit_weight,
    validate_p_weight,
)
from coorbitkit.errors import InvalidParameterError, InvalidWeightError
from coorbitkit.groups import PWeight, affine_axes

from _oracles import affine_coords, brute_affine_inv, brute_affine_mul, inv, mul, \
    per_point_affine_arrays

# the two grids of the per-pair oracle; a = 1.5 and a = 1/2 make exact rint ties
ORACLE_GRIDS = [(2.0, 0.25, 0.3, 3.0, 1.5), (2.0, 0.5, 0.25, 4.0, 2.0)]
# every affine grid the tests and demos build, by their build_affine_grid arguments
AFFINE_GRIDS = [
    *ORACLE_GRIDS, (4.0, 0.5, 0.25, 4.0, 2.0), (3.0, 0.02, 0.25, 4.0, 1.02),
    (2.0, 0.5, 0.125, 8.0, 2.0), (6.0, 0.05, 1 / 64, 8.0, 1.05), (8.0, 0.05, 1 / 128, 16.0, 1.04),
    (72.4, 0.25, 1 / 2.6, 166.4, 1.075), (72.4, 0.125, 1 / 2.6, 166.4, 1.0375),
    (4.0, 0.5, 1 / 2.25, 2.25, 1.5), (4.0, 0.05, 1 / 16, 16.0, 1.05), (2.0, 0.25, 0.75, 3.0, 1.2),
    (4.0, 0.1, 0.3, 3.0, 1.2), (4.0, 0.1, 0.125, 8.0, 1.25), (3.0, 0.25, 0.25, 4.0, 1.3),
    (1.0, 0.1, 1 / 1.05 ** 2, 1.05 ** 2, 1.05), (20.0, 0.05, 0.05, 16.0, 1.06),
    (4.0, 0.1, 0.01, 64.0, 1.25),
]


class TestCyclicModel:
    def test_trivial_group(self):
        m = build_cyclic_phase_space(1)
        assert m.size == 1
        assert m.identity == 0
        assert m.cocycle_values(0, 0) == 1.0
        assert m.modular[0] == 1.0

    def test_invalid_n(self):
        with pytest.raises(InvalidParameterError):
            build_cyclic_phase_space(0)

    # 2.5 once built Z_2 x Z_2, True built N = 1 and NaN ended in a bare ValueError
    @pytest.mark.parametrize("n", [2.5, 8.0, np.float64(4.0), np.nan, True, np.True_, "4", None])
    def test_non_integer_n_named(self, n):
        with pytest.raises(InvalidParameterError, match="n_side must be an integer >= 1, got "):
            build_cyclic_phase_space(n)

    @pytest.mark.parametrize("n", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_n_accepted(self, n):
        m = build_cyclic_phase_space(n)
        assert m.n_side == 3 and type(m.n_side) is int and m.size == 9

    def test_cocycle_identity_all_triples_n4(self):
        m = build_cyclic_phase_space(4)
        idx = np.arange(m.size)
        x, y, z = np.meshgrid(idx, idx, idx, indexing="ij")
        yz = m.mul_indices(y, z)
        xy = m.mul_indices(x, y)
        lhs = m.cocycle_values(x, yz) * m.cocycle_values(y, z)
        rhs = m.cocycle_values(xy, z) * m.cocycle_values(x, y)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_cocycle_normalized_at_identity(self):
        m = build_cyclic_phase_space(5)
        idx = np.arange(m.size)
        e = np.full(m.size, m.identity)
        assert np.abs(m.cocycle_values(idx, e) - 1).max() < 1e-15
        assert np.abs(m.cocycle_values(e, idx) - 1).max() < 1e-15

    def test_group_axioms_exact(self):
        m = build_cyclic_phase_space(4)
        idx = np.arange(m.size)
        inv = m.inv_indices(idx)
        assert np.all(m.mul_indices(idx, inv) == m.identity)
        i, j = np.meshgrid(idx, idx, indexing="ij")
        assert np.allclose(m.modular[m.mul_indices(i, j)], m.modular[i] * m.modular[j])

    def test_q_symmetric(self):
        m = build_cyclic_phase_space(8)
        q = set(m.q_indices.tolist())
        assert m.identity in q
        assert {inv(m, i) for i in q} == q

    def test_haar_weights(self):
        m = build_cyclic_phase_space(2)
        assert np.allclose(m.haar, 0.5)
        assert m.haar.sum() == pytest.approx(2.0)

    def test_index_of_wraps_integers(self):
        m = build_cyclic_phase_space(4)
        assert m.index_of((2, 0)) == 8
        assert m.index_of((np.int64(2), -1)) == m.index_of((2, 3)) == 11

    @pytest.mark.parametrize("coord", [(2.7, 0), (2.0, 0), (0, np.float64(1.0)), (True, 0),
                                       (0, np.True_)])
    def test_index_of_rejects_non_integers(self, coord):
        with pytest.raises(InvalidParameterError, match="needs two integers"):
            build_cyclic_phase_space(8).index_of(coord)

    @pytest.mark.parametrize("coord, message", [(5, "needs two entries"),
                                                ((1, 2, 3), "needs two entries"),
                                                (None, "needs two entries"),
                                                ("ab", "needs two integers")])
    def test_index_of_names_a_malformed_coordinate(self, coord, message):
        # the first three raised a raw TypeError or ValueError
        with pytest.raises(InvalidParameterError, match=message) as err:
            build_cyclic_phase_space(8).index_of(coord)
        assert repr(coord) in str(err.value)


@st.composite
def cyclic_triples(draw):
    """A cyclic model with random N and index arrays x, y, z of random triples."""
    m = build_cyclic_phase_space(draw(st.integers(1, 12)))
    idx = st.integers(0, m.size - 1)
    triples = draw(st.lists(st.tuples(idx, idx, idx), min_size=1, max_size=16))
    return (m, *np.array(triples).T)


@settings(max_examples=60, deadline=None)
@given(cyclic_triples())
def test_cyclic_group_axioms_random_triples(args):
    m, x, y, z = args
    e = np.full(len(x), m.identity)
    assert np.array_equal(m.mul_indices(m.mul_indices(x, y), z),
                          m.mul_indices(x, m.mul_indices(y, z)))
    assert np.array_equal(m.mul_indices(x, e), x)
    assert np.array_equal(m.mul_indices(e, x), x)
    inv = m.inv_indices(x)
    assert np.array_equal(m.mul_indices(x, inv), e)
    assert np.array_equal(m.mul_indices(inv, x), e)


@settings(max_examples=60, deadline=None)
@given(cyclic_triples())
def test_cyclic_two_cocycle_random_triples(args):
    m, x, y, z = args
    lhs = m.cocycle_values(x, y) * m.cocycle_values(m.mul_indices(x, y), z)
    rhs = m.cocycle_values(x, m.mul_indices(y, z)) * m.cocycle_values(y, z)
    assert np.abs(lhs - rhs).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2 ** 31 - 1))
def test_symmetrized_weight_passes_w1_w3(n, p, seed):
    m = build_cyclic_phase_space(n)
    w0 = 1.0 + 10.0 * np.random.default_rng(seed).random(m.size)
    report = validate_p_weight(m, symmetrize_weight(m, w0, p).values, p)
    assert report.w1_pass and report.w3_pass


class TestRealLineModel:
    def test_carrier_and_truncation(self):
        m = build_real_line(2.0, 1.0)
        assert np.allclose(m.coords, [-2, -1, 0, 1, 2])
        one = m.index_of(1.0)
        two = m.index_of(2.0)
        assert mul(m, one, one) == two
        assert mul(m, two, one) == -1

    def test_unimodular(self):
        m = build_real_line(3.0, 0.5)
        assert np.all(m.modular == 1.0)

    def test_q_mass_quadrature(self):
        m = build_real_line(12.0, 0.01)
        assert abs(m.q_mass() - 2.0) <= m.step + 1e-12

    @pytest.mark.parametrize("coord", [float("nan"), float("inf"), -np.inf])
    def test_index_of_rejects_non_finite(self, coord):
        with pytest.raises(InvalidParameterError, match="is not finite"):
            build_real_line(2.0, 1.0).index_of(coord)

    @pytest.mark.parametrize("coord", [True, False, np.True_])
    def test_index_of_rejects_a_bool(self, coord):
        with pytest.raises(InvalidParameterError, match="is a bool"):
            build_real_line(2.0, 1.0).index_of(coord)

    def test_index_of_keeps_numbers(self):
        m = build_real_line(2.0, 1.0)
        assert m.index_of(1) == m.index_of(np.int64(1)) == m.index_of(1.0) == 3

    @pytest.mark.parametrize("coord", ["1.0", None, 1j, [1.0], np.array(1.0)])
    def test_index_of_names_a_non_number(self, coord):
        # "1.0" was read as 1.0; the others raised a raw TypeError
        with pytest.raises(InvalidParameterError, match="is not a real number"):
            build_real_line(2.0, 1.0).index_of(coord)

    def test_invalid_step(self):
        with pytest.raises(InvalidParameterError):
            build_real_line(2.0, 0.0)
        with pytest.raises(InvalidParameterError):
            build_real_line(2.0, -1.0)


class TestAffineModel:
    def test_modular_function(self):
        m = build_affine_grid(2.0, 0.5, 0.25, 4.0, 2.0)
        assert m.modular[m.index_of((0.0, 2.0))] == pytest.approx(0.5)

    @pytest.mark.parametrize("coord", [(True, True), (0.0, True), (np.False_, 1.0)])
    def test_index_of_rejects_a_bool(self, coord):
        with pytest.raises(InvalidParameterError, match="is a bool"):
            build_affine_grid(2.0, 0.5, 0.25, 4.0, 2.0).index_of(coord)

    def test_index_of_keeps_numbers(self):
        m = build_affine_grid(2.0, 0.5, 0.25, 4.0, 2.0)
        assert m.index_of((1, 1)) == m.index_of((np.int64(1), 1.0)) == m.index_of((1.0, 1.0))

    @pytest.mark.parametrize("coord, message", [
        (("0.5", "1.0"), "is not a real number"), ((0.5, None), "is not a real number"),
        ("ab", "is not a real number"), (0.5, "needs two entries"), (None, "needs two entries"),
        ((0.5, 1.0, 2.0), "needs two entries")])
    def test_index_of_names_a_malformed_coordinate(self, coord, message):
        # ("0.5", "1.5") was read as numbers; the others raised a raw TypeError or ValueError
        with pytest.raises(InvalidParameterError, match=message) as err:
            build_affine_grid(2.0, 0.5, 0.25, 4.0, 2.0).index_of(coord)
        assert repr(coord) in str(err.value)

    def test_identity_and_inverse(self):
        m = build_affine_grid(2.0, 0.5, 0.25, 4.0, 2.0)
        assert m.point_label(m.identity) == "(0,1)"
        assert inv(m, m.identity) == m.identity

    def test_q_mass_quadrature(self):
        m = build_affine_grid(3.0, 0.02, 0.25, 4.0, 1.02)
        assert abs(m.q_mass() - 3.0) / 3.0 <= 0.02

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            build_affine_grid(2.0, 0.5, 2.0, 0.25, 2.0)
        with pytest.raises(InvalidParameterError):
            build_affine_grid(2.0, 0.5, 0.25, 4.0, 0.9)

    def test_group_law_snapping(self):
        m = build_affine_grid(4.0, 0.5, 0.25, 4.0, 2.0)
        i = m.index_of((1.0, 2.0))
        j = m.index_of((0.5, 0.5))
        # (1,2)(0.5,0.5) = (1 + 2*0.5, 1) = (2, 1)
        assert m.point_label(mul(m, i, j)) == "(2,1)"

    # the in-group diagnostic grid and both partial-norm grids of the counterexample
    @pytest.mark.parametrize("params", [(8.0, 0.05, 1 / 128, 16.0, 1.04),
                                        (72.4, 0.25, 1 / 2.6, 166.4, 1.075),
                                        (72.4, 0.125, 1 / 2.6, 166.4, 1.0375)])
    def test_arrays_match_per_point_rule(self, params):
        m = build_affine_grid(*params)
        expected = per_point_affine_arrays(*params)
        assert np.array_equal(affine_coords(m), expected.pop("coords"))
        for name, value in expected.items():
            assert np.array_equal(getattr(m, name), value), name
        assert tuple(affine_coords(m)[m.identity]) == (0.0, 1.0)

    # on both grids snapped products collide (scales a < 1 shrink x-steps below the
    # grid step) and about half the products leave the grid
    @pytest.mark.parametrize("params", ORACLE_GRIDS)
    def test_group_law_matches_per_pair_oracle(self, params):
        m = build_affine_grid(*params)
        i, j = np.divmod(np.arange(m.size * m.size), m.size)
        prod = m.mul_indices(i, j).reshape(m.size, m.size)
        assert np.array_equal(prod, brute_affine_mul(*params))
        assert np.array_equal(m.inv_indices(np.arange(m.size)), brute_affine_inv(*params))
        assert np.any(prod == -1)
        assert any(len(np.unique(r[r >= 0])) < np.count_nonzero(r >= 0) for r in prod)

    # on x_j = (j - k) h the product is the cell nearest the exact x + a y: within h/2,
    # exactly h/2 only at a tie, a (j' - k) a half-integer; an absent product whose scale
    # is on the grid has no cell within h/2
    @pytest.mark.parametrize("params", ORACLE_GRIDS)
    def test_product_is_the_nearest_cell(self, params):
        m = build_affine_grid(*params)
        k, h, e = m.n_x // 2, Fraction(m.x_step), m.identity % m.n_a
        ties = 0
        for i, j in itertools.product(range(m.size), repeat=2):
            (ji, mi), (jj, mj) = divmod(i, m.n_a), divmod(j, m.n_a)
            increment = Fraction(m.a_coords[mi]) * (jj - k)
            exact = (ji - k + increment) * h
            tie = increment.denominator == 2
            p = mul(m, i, j)
            if p >= 0:
                assert p % m.n_a == mi + mj - e
                assert abs(exact - (p // m.n_a - k) * h) <= h / 2
                assert (abs(exact - (p // m.n_a - k) * h) == h / 2) == tie
                ties += tie
            elif 0 <= mi + mj - e < m.n_a:
                assert abs(exact) >= (k + Fraction(1, 2)) * h
        assert ties > 0

    # x^{-1} reads the mirrored row's scale, so x^{-1} x adds back the shift it took
    @pytest.mark.parametrize("params", AFFINE_GRIDS)
    def test_inverse_times_point_is_the_identity(self, params):
        m = build_affine_grid(*params)
        points = np.arange(m.size)
        on = m.inv_indices(points) >= 0
        z = m.div_indices(points, points)
        assert np.any(on) and np.all(z[on] == m.identity) and np.all(z[~on] == -1)

    @pytest.mark.parametrize("params", [(2.0, 0.5, 0.25, 4.0, 2.0),
                                        (8.0, 0.05, 1 / 128, 16.0, 1.04)])
    def test_stores_no_per_point_array(self, params):
        m = build_affine_grid(*params)
        assert len(m.q_indices) < m.size
        stored = [name for name, value in vars(m).items()
                  if isinstance(value, np.ndarray) and value.size == m.size]
        assert stored == []

    @pytest.mark.parametrize("x_half_width, x_step", [(-1.0, 0.5), (0.0, 0.5), (0.2, 0.5)])
    def test_x_step_must_fit_half_width(self, x_half_width, x_step):
        with pytest.raises(InvalidParameterError, match="x_step <= x_half_width < inf"):
            build_affine_grid(x_half_width, x_step, 0.5, 2.0, 1.1)
        with pytest.raises(InvalidParameterError, match="x_step <= x_half_width < inf"):
            affine_axes(x_half_width, x_step, 0.5, 2.0, 1.1)


_BUILDERS = {"line": build_real_line, "affine": build_affine_grid}
_GOOD = {"line": {"half_width": 2.0, "step": 0.5},
         "affine": {"x_half_width": 2.0, "x_step": 0.5, "a_min": 0.25, "a_max": 4.0,
                    "a_ratio": 2.0}}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind, field", [(kind, field) for kind, fields in _GOOD.items()
                                         for field in fields])
def test_non_finite_parameter_named(kind, field, value):
    with pytest.raises(InvalidParameterError, match=rf"< inf, got .*\b{field}={value}\b"):
        _BUILDERS[kind](**{**_GOOD[kind], field: value})


class TestPWeight:
    def test_unit_weight_passes(self):
        m = build_cyclic_phase_space(4)
        for p in (0.5, 1.0):
            report = validate_p_weight(m, np.ones(m.size), p)
            assert report.passed
            assert report.w2_max_ratio <= 1.0 + 1e-12

    def test_affine_one_plus_a_passes_w3(self):
        m = build_affine_grid(2.0, 0.5, 0.125, 8.0, 2.0)
        w = 1.0 + affine_coords(m)[:, 1]
        report = validate_p_weight(m, w, 1.0)
        assert report.w3_pass  # (1 + 1/a) * a = a + 1

    def test_exponential_fails_w3_on_line(self):
        m = build_real_line(3.0, 0.5)
        report = validate_p_weight(m, np.exp(m.coords), 1.0)
        assert not report.w3_pass

    def test_pairs_are_every_pair_in_row_major_order(self):
        # 33 points: all 1,089 pairs, whose on-grid products are counted and read
        m = build_real_line(4.0, 0.25)
        w = 1.0 + np.random.default_rng(3).random(m.size)
        report = validate_p_weight(m, w, 1.0)
        i, j = np.meshgrid(np.arange(m.size), np.arange(m.size), indexing="ij")
        prod = m.mul_indices(i, j)
        ok = prod >= 0
        assert report.exhaustive and report.pairs_checked == int(ok.sum()) < m.size ** 2
        assert report.w2_max_ratio == float((w[prod[ok]] / (w[i[ok]] * w[j[ok]])).max())

    def test_past_four_million_pairs_the_draw_is_unchanged(self):
        # 2,401 points: 5,764,801 pairs, so 2,000,000 are drawn with seed 7, rows first
        m = build_real_line(12.0, 0.01)
        w = 1.0 + np.random.default_rng(4).random(m.size)
        report = validate_p_weight(m, w, 1.0)
        rng = np.random.default_rng(7)
        i, j = rng.integers(0, m.size, 2_000_000), rng.integers(0, m.size, 2_000_000)
        prod = m.mul_indices(i, j)
        ok = prod >= 0
        assert not report.exhaustive and report.pairs_checked == int(ok.sum()) < 2_000_000
        assert report.w2_max_ratio == float((w[prod[ok]] / (w[i[ok]] * w[j[ok]])).max())

    def test_nonpositive_weight_rejected(self):
        m = build_cyclic_phase_space(2)
        with pytest.raises(InvalidWeightError):
            validate_p_weight(m, np.zeros(m.size), 1.0)

    def test_symmetrize_fixed_point(self):
        m = build_cyclic_phase_space(4)
        w = symmetrize_weight(m, np.ones(m.size), 0.5)
        assert np.allclose(w.values, 1.0)

    def test_symmetrize_affine(self):
        m = build_affine_grid(2.0, 0.5, 0.125, 8.0, 2.0)
        w = symmetrize_weight(m, np.ones(m.size), 1.0)
        assert np.allclose(w.values, np.maximum(1.0, affine_coords(m)[:, 1]))

    def test_symmetrize_exponential_line(self):
        m = build_real_line(3.0, 0.5)
        w = symmetrize_weight(m, np.maximum(np.exp(m.coords), 1.0), 1.0)
        # raw e^x is not >= 1; the clipped version symmetrizes to e^{|x|}
        assert np.allclose(w.values, np.exp(np.abs(m.coords)))

    def test_symmetrized_validates_on_exact_model(self):
        m = build_cyclic_phase_space(8)
        # submultiplicative seed: exp of the cyclic l1 distance (a metric)
        idx = np.arange(m.size)
        dist = np.minimum(idx // 8, 8 - idx // 8) + np.minimum(idx % 8, 8 - idx % 8)
        for p in (0.5, 1.0):
            w0 = np.exp(0.4 * dist)
            assert validate_p_weight(m, symmetrize_weight(m, w0, p).values, p).passed

    def test_raw_weight_below_one_rejected(self):
        m = build_real_line(3.0, 0.5)
        with pytest.raises(InvalidWeightError):
            symmetrize_weight(m, np.exp(m.coords), 1.0)

    @pytest.mark.parametrize("values", [-1, 0.0, [1.0, -1.0], [1.0, 0.0], [1.0, np.inf],
                                        [np.nan, 1.0], [-np.inf]])
    def test_construction_rejects_nonpositive_or_nonfinite(self, values):
        with pytest.raises(InvalidWeightError, match="positive and finite"):
            PWeight(values=values, p=5.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 5.0])
    def test_construction_leaves_p_and_the_axioms_to_validate_p_weight(self, p):
        # 0.5 < 1 breaks w >= 1; p > 1 is what ``gabor frame`` may ask for
        w = PWeight(values=[0.5, 2.0], p=p)
        assert w.values.dtype == float and w.p == p


class TestMeasureQxQ:
    def test_line_translation_invariance(self):
        m = build_real_line(8.0, 0.1)
        vals = [measure_QxQ(m, m.index_of(v)) for v in (-2.0, 0.0, 1.5)]
        # strict-open Q reaches only +-(1-h), so QxQ mass is 4 - 3h exactly
        for v in vals:
            assert abs(v - 4.0) <= 3 * m.step + 1e-12
        assert max(vals) - min(vals) <= 1e-12

    def test_cyclic_matches_enumeration(self):
        m = build_cyclic_phase_space(8)
        for x in (0, 9, 27):
            explicit = set()
            for q1, q2 in itertools.product(m.q_indices, m.q_indices):
                explicit.add(mul(m, mul(m, int(q1), x), int(q2)))
            expected = m.haar[list(explicit)].sum()
            assert measure_QxQ(m, x) == pytest.approx(float(expected))

    def test_affine_proof_lower_bound(self):
        m = build_affine_grid(6.0, 0.05, 1.0 / 64.0, 8.0, 1.05)
        a_quarter = m.a_coords[np.argmin(np.abs(m.a_coords - 0.25))]
        x = m.index_of((0.0, a_quarter))
        delta = m.modular[x]
        assert measure_QxQ(m, x) >= 0.9 * max(1.0, delta) * m.q_mass()

    def test_affine_growth(self):
        m = build_affine_grid(6.0, 0.05, 1.0 / 64.0, 8.0, 1.05)
        vals = []
        for s in (1.0, 0.5, 0.25, 0.125):
            a = m.a_coords[np.argmin(np.abs(m.a_coords - s))]
            vals.append(measure_QxQ(m, m.index_of((0.0, a))))
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_point(self):
        m = build_cyclic_phase_space(2)
        with pytest.raises(InvalidParameterError):
            measure_QxQ(m, 99)

    @pytest.mark.parametrize("build", [lambda: build_real_line(8.0, 0.01),
                                       lambda: build_affine_grid(2.0, 0.5, 0.25, 4.0, 2.0)])
    def test_index_must_be_an_integer(self, build):
        # 10.5 read the value at 10 on the line; True read the value at 1
        m = build()
        for index in (10.5, 10.0, True, np.True_, -1, m.size, "3", None):
            with pytest.raises(InvalidParameterError, match="carrier index"):
                measure_QxQ(m, index)
        assert measure_QxQ(m, np.int64(10)) == measure_QxQ(m, 10)
