import numpy as np
import pytest

from _oracles import brute_rel_separation
from coorbitkit import (
    GridFunction,
    SampleSet,
    build_cover,
    build_cyclic_phase_space,
    build_real_line,
    is_U_dense,
    is_U_separated,
    max_separated_subset,
    rel_separation,
    shifted_series_check,
)
from coorbitkit.errors import InvalidParameterError, NotDenseError
from coorbitkit.sampling import uu_inverse_indices


def cyclic_lattice(model, step):
    n = model.n_side
    return SampleSet(model=model, points=np.array(
        [k * n + l for k in range(0, n, step) for l in range(0, n, step)]))


def block(model, size):
    n = model.n_side
    return np.array([(k % n) * n + (l % n) for k in range(size) for l in range(size)])


class TestRelSeparation:
    def test_singleton(self):
        m = build_cyclic_phase_space(8)
        assert rel_separation(SampleSet(model=m, points=np.array([3]))) == 1

    def test_full_carrier(self):
        m = build_cyclic_phase_space(8)
        lam = SampleSet(model=m, points=np.arange(64))
        assert rel_separation(lam) == 9

    def test_line_integers(self):
        m = build_real_line(4.0, 0.5)
        pts = np.array([m.index_of(float(k)) for k in range(-4, 5)])
        lam = SampleSet(model=m, points=pts)
        assert rel_separation(lam) == 2  # two integers in x+(-1,1) at half-integers

    @pytest.mark.parametrize("build", [
        lambda: build_cyclic_phase_space(8),
        lambda: build_cyclic_phase_space(5),
        lambda: build_real_line(4.0, 0.25),
    ], ids=["cyclic8", "cyclic5", "line"])
    def test_matches_brute_force(self, build):
        # exact products only: on the snapped affine grid "lambda in xQ" read as
        # x*q = lambda differs from the counted x = lambda*q^{-1}
        m = build()
        rng = np.random.default_rng(0)
        pts = np.sort(rng.choice(m.size, size=17, replace=False))
        lam = SampleSet(model=m, points=pts)
        assert rel_separation(lam) == brute_rel_separation(m, pts)

    def test_duplicates_rejected(self):
        m = build_cyclic_phase_space(4)
        with pytest.raises(InvalidParameterError):
            SampleSet(model=m, points=np.array([1, 1]))


class TestDensitySeparation:
    def test_full_carrier_dense(self):
        m = build_cyclic_phase_space(8)
        lam = SampleSet(model=m, points=np.arange(64))
        assert is_U_dense(lam, np.array([m.identity]))

    def test_lattice_separated(self):
        m = build_cyclic_phase_space(8)
        lam = cyclic_lattice(m, 4)
        assert is_U_separated(lam, block(m, 2))

    def test_shared_cell_not_separated(self):
        m = build_cyclic_phase_space(8)
        lam = SampleSet(model=m, points=np.array([0, 1]))
        assert not is_U_separated(lam, block(m, 2))

    def test_u_must_contain_identity(self):
        m = build_cyclic_phase_space(8)
        lam = cyclic_lattice(m, 4)
        with pytest.raises(InvalidParameterError):
            is_U_dense(lam, np.array([3]))


class TestBuildCover:
    def test_singleton_full_u(self):
        m = build_cyclic_phase_space(2)
        lam = SampleSet(model=m, points=np.array([0]))
        cover = build_cover(lam, np.arange(4))
        assert sorted(cover.cells[0].tolist()) == [0, 1, 2, 3]

    def test_lattice_partition(self):
        m = build_cyclic_phase_space(4)
        lam = cyclic_lattice(m, 2)
        cover = build_cover(lam, block(m, 2))
        sizes = [len(c) for c in cover.cells]
        assert sizes == [4, 4, 4, 4]
        all_points = np.sort(np.concatenate(cover.cells))
        assert np.array_equal(all_points, np.arange(16))

    def test_masses_sum_to_total(self):
        m = build_cyclic_phase_space(8)
        lam = cyclic_lattice(m, 2)
        cover = build_cover(lam, block(m, 2))
        assert cover.cell_masses().sum() == pytest.approx(m.total_mass())
        assert np.all(cover.cell_masses() <= m.haar[block(m, 2)].sum() + 1e-12)

    def test_permutation_preserves_partition(self):
        m = build_cyclic_phase_space(4)
        lam = cyclic_lattice(m, 2)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(lam))
        lam2 = SampleSet(model=m, points=lam.points[perm])
        cover2 = build_cover(lam2, block(m, 2))
        all_points = np.sort(np.concatenate(cover2.cells))
        assert np.array_equal(all_points, np.arange(16))

    def test_not_dense_error_names_point(self):
        m = build_cyclic_phase_space(8)
        lam = SampleSet(model=m, points=np.array([0]))
        with pytest.raises(NotDenseError) as err:
            build_cover(lam, block(m, 2))
        assert 0 <= err.value.uncovered_index < 64


class TestMaxSeparatedSubset:
    def test_singleton_u_gives_full_carrier(self):
        m = build_cyclic_phase_space(4)
        lam = max_separated_subset(m, np.array([m.identity]))
        assert len(lam) == m.size

    def test_cyclic_blocks(self):
        m = build_cyclic_phase_space(8)
        u = block(m, 2)
        lam = max_separated_subset(m, u)
        assert len(lam) == 16
        assert is_U_separated(lam, u)
        assert is_U_dense(lam, uu_inverse_indices(m, u))

    def test_line_spacing(self):
        # on-grid open U = (-1,1) has radius 1-h, so separated spacing is 2-h
        for h in (0.5, 0.1):
            m = build_real_line(6.0, h)
            lam = max_separated_subset(m, m.q_indices)
            xs = np.sort(m.coords[lam.points])
            assert np.all(np.diff(xs) >= 2.0 - h - 1e-12)

    def test_separated_in_q_means_rel_one(self):
        m = build_cyclic_phase_space(8)
        u = block(m, 3)  # contains Q up to translation; use Q itself
        lam = max_separated_subset(m, m.q_indices)
        assert is_U_separated(lam, m.q_indices)
        assert rel_separation(lam) == 1


class TestShiftedSeries:
    def test_zero_input(self):
        m = build_cyclic_phase_space(4)
        z = GridFunction(m, np.zeros(16))
        lam = SampleSet(model=m, points=np.arange(16))
        result = shifted_series_check(z, z, lam)
        assert result["holds"] and result["max_ratio"] == 0.0

    def test_exhaustive_cyclic(self):
        m = build_cyclic_phase_space(8)
        rng = np.random.default_rng(2)
        f1 = GridFunction(m, rng.random(64) + 0j)
        f2 = GridFunction(m, rng.random(64) + 0j)
        lam = SampleSet(model=m, points=np.arange(64))
        result = shifted_series_check(f1, f2, lam)
        assert result["exhaustive"]
        assert result["pairs"] == 64 * 64
        assert result["holds"]

    def test_single_atom(self):
        m = build_cyclic_phase_space(8)
        rng = np.random.default_rng(3)
        f1 = GridFunction(m, rng.random(64) + 0j)
        f2 = GridFunction(m, rng.random(64) + 0j)
        lam = SampleSet(model=m, points=np.array([11]))
        assert shifted_series_check(f1, f2, lam)["holds"]

    def test_rejects_signed_input(self):
        m = build_cyclic_phase_space(4)
        f = GridFunction(m, -np.ones(16))
        lam = SampleSet(model=m, points=np.arange(16))
        with pytest.raises(InvalidParameterError):
            shifted_series_check(f, f, lam)


def test_sample_set_json_round_trip():
    import json

    m = build_cyclic_phase_space(4)
    lam = SampleSet(model=m, points=np.array([0, 3, 7]))
    obj = json.loads(json.dumps(lam.to_json_obj()))
    assert obj == {"model": "cyclic", "points": [0, 3, 7]}
