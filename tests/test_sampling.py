import numpy as np
import pytest

from _oracles import brute_cover_owners, brute_is_dense, brute_is_separated, \
    brute_rel_separation, shifted_series_check
from coorbitkit import (
    GridFunction,
    KernelSystem,
    SampleSet,
    build_affine_grid,
    build_almost_tight_frame,
    build_cover,
    build_cyclic_phase_space,
    build_real_line,
    gabor_representation,
    gaussian_window,
    rel_separation,
)
from coorbitkit.coorbit import _calibration_samples
from coorbitkit.errors import InvalidParameterError, NotDenseError
from coorbitkit.sampling import _sorted_unique


def cyclic_lattice(model, step):
    n = model.n_side
    return SampleSet(model=model, points=np.array(
        [k * n + l for k in range(0, n, step) for l in range(0, n, step)]))


def block(model, size):
    n = model.n_side
    return np.array([(k % n) * n + (l % n) for k in range(size) for l in range(size)])


@pytest.mark.parametrize("values", [[], [3, 1, 3, 2, 1], np.array([[4, 0], [0, 7]]), 5,
                                    [0.5, -0.0, 0.0, 2.0, 0.5], np.array([7], dtype=np.int32)])
def test_sorted_unique_matches_np_unique(values):
    got, expected = _sorted_unique(values), np.unique(values)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


class TestSampleSetPoints:
    @pytest.mark.parametrize("points", [[0.5, 1.7, 3.2], np.array([0.0, 2.0]), [True, False]])
    def test_non_integer_points_rejected(self, points):
        m = build_cyclic_phase_space(2)
        with pytest.raises(InvalidParameterError, match="integer indices"):
            SampleSet(model=m, points=points)

    @pytest.mark.parametrize("points, expected", [([], []), (np.array([], dtype=int), []),
                                                  (np.array([3, 1], dtype=np.int32), [3, 1]),
                                                  ([0, 2], [0, 2])])
    def test_integer_and_empty_points_accepted(self, points, expected):
        lam = SampleSet(model=build_cyclic_phase_space(2), points=points)
        assert lam.points.dtype == int and lam.points.tolist() == expected


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
        lambda: build_affine_grid(3.0, 0.25, 0.25, 4.0, 1.3),
    ], ids=["cyclic8", "cyclic5", "line", "affine"])
    def test_matches_brute_force(self, build):
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
    """U-dense: every point in some lambda_i U; U-separated: in at most one."""

    def test_full_carrier_dense(self):
        m = build_cyclic_phase_space(8)
        lam = SampleSet(model=m, points=np.arange(64))
        assert brute_is_dense(m, lam.points, [m.identity])

    def test_lattice_separated(self):
        m = build_cyclic_phase_space(8)
        lam = cyclic_lattice(m, 4)
        assert brute_is_separated(m, lam.points, block(m, 2))

    def test_shared_cell_not_separated(self):
        m = build_cyclic_phase_space(8)
        lam = SampleSet(model=m, points=np.array([0, 1]))
        assert not brute_is_separated(m, lam.points, block(m, 2))

    def test_u_must_contain_identity(self):
        m = build_cyclic_phase_space(8)
        lam = cyclic_lattice(m, 4)
        with pytest.raises(InvalidParameterError, match="identity"):
            build_cover(lam, np.array([3]))


class TestBuildCover:
    def test_singleton_full_u(self):
        m = build_cyclic_phase_space(2)
        lam = SampleSet(model=m, points=np.array([0]))
        owner = build_cover(lam, np.arange(4))
        assert np.flatnonzero(owner == 0).tolist() == [0, 1, 2, 3]

    def test_lattice_partition(self):
        m = build_cyclic_phase_space(4)
        lam = cyclic_lattice(m, 2)
        owner = build_cover(lam, block(m, 2))
        assert np.bincount(owner, minlength=len(lam)).tolist() == [4, 4, 4, 4]
        all_points = np.sort(np.concatenate([np.flatnonzero(owner == i) for i in range(len(lam))]))
        assert np.array_equal(all_points, np.arange(16))

    def test_masses_sum_to_total(self):
        m = build_cyclic_phase_space(8)
        lam = cyclic_lattice(m, 2)
        ks = KernelSystem.build(gabor_representation(m), gaussian_window(m))
        tau = build_almost_tight_frame(ks, lam, block(m, 2)).tau
        assert tau.sum() == pytest.approx(m.haar.sum())
        assert np.all(tau <= m.haar[block(m, 2)].sum() + 1e-12)

    def test_permutation_preserves_partition(self):
        m = build_cyclic_phase_space(4)
        lam = cyclic_lattice(m, 2)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(lam))
        lam2 = SampleSet(model=m, points=lam.points[perm])
        owner2 = build_cover(lam2, block(m, 2))
        all_points = np.sort(np.concatenate([np.flatnonzero(owner2 == i)
                                             for i in range(len(lam2))]))
        assert np.array_equal(all_points, np.arange(16))

    @pytest.mark.parametrize("model_id", ["cyclic", "affine"])
    @pytest.mark.parametrize("kind", ["lattice", "q", "random"])
    def test_cells_equal_owner_comprehension(self, model_id, kind):
        """The owner array is the one a scan of the translates in list order gives, with
        the same dtype, so each cell ``owner == rank`` holds the same points."""
        if model_id == "cyclic":
            m = build_cyclic_phase_space(8)
            jx, ma = divmod(np.arange(m.size), 8)
        else:
            m = build_affine_grid(2.0, 0.25, 0.3, 3.0, 1.5)
            jx, ma = divmod(np.arange(m.size), m.n_a)
        u = block(m, 2) if kind == "lattice" and model_id == "cyclic" else m.q_indices
        if kind == "lattice":
            points = np.flatnonzero((jx % 2 == 0) & (ma % 2 == 0))
        elif kind == "q":
            points = np.arange(0, m.size, 3)
        else:
            rng = np.random.default_rng(0)
            points = np.sort(rng.choice(m.size, m.size // 2, replace=False))
        owner = brute_cover_owners(m, points, u)
        assert np.all(owner >= 0)  # dense
        got = build_cover(SampleSet(model=m, points=points), u)
        assert got.dtype == owner.dtype and np.array_equal(got, owner)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 6, 12, 24])
    def test_tau_is_the_cell_sums(self, n):
        """tau from one weighted bincount against the per-cell sums haar[owner == i].sum().

        Both add the same c = #U_i nonnegative weights of a cell, in two orders:
        bincount runs through the carrier in order, and numpy's sum of the gathered
        cell, once c reaches 8, keeps eight partial sums and adds blocks pairwise.
        Any order of c nonnegative terms with exact sum s returns s_hat with
        |s_hat - s| <= gamma_(c-1) s, where gamma_k = k u / (1 - k u) and u = 2^-53
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  So the two
        results differ by at most 2 gamma_(c-1) s, and s <= tau_i / (1 - gamma_(c-1))
        bounds s by the computed tau_i: |tau_i - sum_i| <= 2 gamma_(c-1) tau_i /
        (1 - gamma_(c-1)), which is 2 (c - 1) u tau_i to first order in u.  At a
        power-of-two N every weight is 1/N and every partial sum k/N of them is exact,
        so the two agree bit for bit.  The cases are every lattice whose steps (a, b)
        divide N, with U its a x b block, and the calibration samples with U = Q.
        """
        m = build_cyclic_phase_space(n)
        ks = KernelSystem.build(gabor_representation(m), gaussian_window(m))
        steps = [d for d in range(1, n + 1) if n % d == 0]
        cases = [(SampleSet(model=m, points=np.array([k * n + l for k in range(0, n, a)
                                                      for l in range(0, n, b)])),
                  np.array([k * n + l for k in range(a) for l in range(b)]))
                 for a in steps for b in steps]
        cases += [(lam, m.q_indices) for lam in _calibration_samples(m, 2024)]
        checked = 0
        for lam, u in cases:
            try:
                owner = build_cover(lam, u)
            except NotDenseError:
                continue
            tau = build_almost_tight_frame(ks, lam, u).tau
            sums = np.array([m.haar[owner == i].sum() for i in range(len(lam))])
            if n & (n - 1) == 0:
                assert np.array_equal(tau, sums)
            else:
                ku = (np.bincount(owner, minlength=len(lam)) - 1) * 2.0 ** -53
                gamma = ku / (1 - ku)
                assert np.all(np.abs(tau - sums) <= 2 * gamma * tau / (1 - gamma))
            checked += 1
        assert checked >= len(steps) ** 2

    @pytest.mark.parametrize("build", [lambda: build_cyclic_phase_space(4),
                                       lambda: build_real_line(4.0, 0.25),
                                       lambda: build_affine_grid(2.0, 0.25, 0.3, 3.0, 1.5)])
    def test_u_outside_the_carrier_rejected(self, build):
        """-1 would read the ABSENT pad slot (on Z_4 x Z_4 it added point 15 to a cell), n
        raised a raw IndexError, 1.5 was cut to 1 and on the snapped models an index past
        the carrier read as absent."""
        m = build()
        lam = SampleSet(model=m, points=np.arange(0, m.size, 2))
        e = m.identity
        for u in ([e, -1], [e, -m.size], [e, m.size], [float(e), 1.5], np.array([e, 1.0]),
                  [True, False], np.array([[e], [m.size + 3]])):
            with pytest.raises(InvalidParameterError, match=r"^U must hold integer carrier "
                                                            r"indices in \[0, \d+\), got U="):
                build_cover(lam, u)
        every = SampleSet(model=m, points=np.arange(m.size))
        for u in ([e], np.array([e, m.size - 1], dtype=np.int32), [0, e]):
            want = build_cover(every, np.asarray(u, dtype=int))
            got = build_cover(every, u)
            assert np.array_equal(got, want)

    def test_not_dense_error_names_point(self):
        m = build_cyclic_phase_space(8)
        lam = SampleSet(model=m, points=np.array([0]))
        with pytest.raises(NotDenseError) as err:
            build_cover(lam, block(m, 2))
        assert 0 <= err.value.uncovered_index < 64


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

