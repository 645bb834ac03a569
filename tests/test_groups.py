import itertools

import numpy as np
import pytest

from coorbitkit import (
    build_affine_grid,
    build_cyclic_phase_space,
    build_real_line,
    measure_QxQ,
    model_from_config,
    symmetrize_weight,
    unit_weight,
    validate_p_weight,
)
from coorbitkit.errors import InvalidParameterError, InvalidWeightError


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
        assert {int(m.inv(i)) for i in q} == q

    def test_haar_weights(self):
        m = build_cyclic_phase_space(2)
        assert np.allclose(m.haar, 0.5)
        assert m.total_mass() == pytest.approx(2.0)


class TestRealLineModel:
    def test_carrier_and_truncation(self):
        m = build_real_line(2.0, 1.0)
        assert np.allclose(m.coords, [-2, -1, 0, 1, 2])
        one = m.index_of(1.0)
        two = m.index_of(2.0)
        assert m.mul(one, one) == two
        assert m.mul(two, one) == -1

    def test_unimodular(self):
        m = build_real_line(3.0, 0.5)
        assert np.all(m.modular == 1.0)

    def test_q_mass_quadrature(self):
        m = build_real_line(12.0, 0.01)
        assert abs(m.q_mass() - 2.0) <= m.step + 1e-12

    def test_invalid_step(self):
        with pytest.raises(InvalidParameterError):
            build_real_line(2.0, 0.0)
        with pytest.raises(InvalidParameterError):
            build_real_line(2.0, -1.0)


class TestAffineModel:
    def test_modular_function(self):
        m = build_affine_grid(2.0, 0.5, 0.25, 4.0, 2.0)
        assert m.modular[m.index_of((0.0, 2.0))] == pytest.approx(0.5)

    def test_identity_and_inverse(self):
        m = build_affine_grid(2.0, 0.5, 0.25, 4.0, 2.0)
        assert m.point_label(m.identity) == "(0,1)"
        assert m.inv(m.identity) == m.identity

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
        assert m.point_label(m.mul(i, j)) == "(2,1)"


class TestModelFromConfig:
    def test_cyclic(self):
        m = model_from_config({"model": "cyclic", "N": 4})
        assert m.kind == "cyclic" and m.size == 16

    def test_line(self):
        m = model_from_config({"model": "line", "half_width": 2.0, "step": 1.0})
        assert m.kind == "line" and m.size == 5

    def test_affine(self):
        m = model_from_config({"model": "affine", "x_half_width": 2.0, "x_step": 0.5,
                               "a_min": 0.25, "a_max": 4.0, "a_ratio": 2.0})
        assert m.kind == "affine"

    def test_unknown(self):
        with pytest.raises(InvalidParameterError):
            model_from_config({"model": "nope"})

    def test_missing_field_named(self):
        with pytest.raises(InvalidParameterError, match="'a_ratio'"):
            model_from_config({"model": "affine", "x_half_width": 2.0, "x_step": 0.5,
                               "a_min": 0.25, "a_max": 4.0})

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"model": "cyclic", "N": 2}')
        assert model_from_config(path).size == 4


class TestPWeight:
    def test_unit_weight_passes(self):
        m = build_cyclic_phase_space(4)
        for p in (0.5, 1.0):
            report = validate_p_weight(m, np.ones(m.size), p)
            assert report.passed
            assert report.w2_max_ratio <= 1.0 + 1e-12

    def test_affine_one_plus_a_passes_w3(self):
        m = build_affine_grid(2.0, 0.5, 0.125, 8.0, 2.0)
        w = 1.0 + m.coords[:, 1]
        report = validate_p_weight(m, w, 1.0)
        assert report.w3_pass  # (1 + 1/a) * a = a + 1

    def test_exponential_fails_w3_on_line(self):
        m = build_real_line(3.0, 0.5)
        report = validate_p_weight(m, np.exp(m.coords), 1.0)
        assert not report.w3_pass

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
        assert np.allclose(w.values, np.maximum(1.0, m.coords[:, 1]))

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
                explicit.add(m.mul(m.mul(int(q1), x), int(q2)))
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
