import numpy as np
import pytest

from _oracles import brute_envelope, brute_frame_kernel_excess, brute_gabor_matrices, eig_apply, \
    brute_is_covariant, inline_frame_kernel_check, mul, reproducing_check, translate_left, \
    unrelaxed_frame_phi
from coorbitkit import (
    GridFunction,
    KernelSystem,
    SampleSet,
    biorthogonal_system,
    boxcar_window,
    build_almost_tight_frame,
    build_cyclic_phase_space,
    build_real_line,
    build_riesz_system,
    convolve,
    dual_frame,
    fit_envelope,
    frame_kernel_envelope_check,
    gabor_representation,
    gaussian_window,
    gramian,
    maximal_left,
    maximal_right,
    normalize_admissible,
    orbit_envelope,
    orthonormalize,
    parseval_frame,
    rayleigh_extremes,
    rel_separation,
    unit_weight,
    voice_transform,
)
from coorbitkit.errors import (
    IncompatibleOperandsError,
    InvalidParameterError,
    NotAFrameError,
    NotContractiveError,
    NotDenseError,
    NotRieszError,
)
from coorbitkit import experiments, frames, groups
from coorbitkit.cdmatrix import _series_apply
from coorbitkit.coorbit import _calibration_samples
from coorbitkit.frames import FrameSystem, hermitian_extremes, reconstruction_error


def setup_gabor(n):
    model = build_cyclic_phase_space(n)
    rep = gabor_representation(model)
    return model, rep, gaussian_window(model)


def lattice(model, step):
    n = model.n_side
    return SampleSet(model=model, points=np.array(
        [k * n + l for k in range(0, n, step) for l in range(0, n, step)]))


def block(model, size):
    n = model.n_side
    return np.array([(k % n) * n + (l % n) for k in range(size) for l in range(size)])


def irregular_complex_frame():
    """Frame on 40 seeded random points of Z_8 x Z_8 whose frame operator is not real."""
    model, rep, g = setup_gabor(8)
    t = np.arange(8)
    window = normalize_admissible(rep, g * (1 + 0.5j * np.sin(2 * np.pi * t / 8) + 0.2 * t / 8))
    ks = KernelSystem.build(rep, window)
    rng = np.random.default_rng(0)
    lam = SampleSet(model=model, points=np.sort(rng.choice(model.size, 40, replace=False)))
    return build_almost_tight_frame(ks, lam, model.q_indices)


class TestRepresentation:
    def test_unitarity(self):
        model, rep, _ = setup_gabor(8)
        for i in (0, 5, 17, 63):
            u = rep.action(i)
            assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12

    def test_projective_identity_exhaustive(self):
        model, rep, _ = setup_gabor(4)
        for i in range(16):
            for j in range(16):
                lhs = rep.action(i) @ rep.action(j)
                rhs = model.cocycle_values(i, j) * rep.action(mul(model, i, j))
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_identity_matrix(self):
        model, rep, _ = setup_gabor(4)
        assert np.allclose(rep.action(model.identity), np.eye(4))


class TestOrbitMap:
    """The orbit map against the dense nested-loop matrix stack, exhaustively."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_matches_dense_stack(self, n):
        model, rep, g = setup_gabor(n)
        mats = brute_gabor_matrices(n)
        assert np.array_equal(rep.matrices, mats)
        rng = np.random.default_rng(n)
        real = rng.normal(size=n)
        cplx = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.array_equal(rep.orbit(real), np.einsum("nij,j->ni", mats, real))
        dense = np.einsum("nij,j->ni", mats, cplx)
        tol = 1e-15 * np.abs(cplx).max()
        assert np.abs(rep.orbit(cplx) - dense).max() <= tol
        for i in range(model.size):
            assert np.array_equal(rep.action(i), mats[i])
            assert np.abs(rep.apply(i, cplx) - mats[i] @ cplx).max() <= tol

        ks = KernelSystem.build(rep, g)
        orbit = np.einsum("nij,j->ni", mats, ks.window)
        points = rng.permutation(model.size)[: max(1, model.size // 3)]
        dense_cols = (orbit.conj() @ orbit.T)[:, points]
        assert np.abs(ks.kernels(points) - dense_cols).max() <= 1e-14
        assert np.abs(ks.kernels([points[0]])[:, 0] - dense_cols[:, 0]).max() <= 1e-14

    def test_no_dense_state(self):
        model, rep, g = setup_gabor(32)
        ks = KernelSystem.build(rep, g)
        arrays = [v for obj in (rep, ks) for v in vars(obj).values()
                  if isinstance(v, np.ndarray)]
        assert max(a.size for a in arrays) <= model.size * rep.dim

    def test_wrong_length_vector_rejected(self):
        model, rep, _ = setup_gabor(4)
        for vec in (np.ones(3), np.ones(5), np.ones((2, 5)), np.ones((2, 2, 4))):
            with pytest.raises(IncompatibleOperandsError):
                rep.orbit(vec)
            with pytest.raises(IncompatibleOperandsError):
                rep.apply(1, vec)
        with pytest.raises(IncompatibleOperandsError):  # apply takes it as a stack of four
            rep.orbit(np.ones((4, 4)))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_apply_to_a_stack_is_rowwise(self, n):
        model, rep, _ = setup_gabor(n)
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        for i in range(model.size):
            assert np.array_equal(rep.apply(i, stack), np.array([rep.apply(i, v) for v in stack]))

    @pytest.mark.parametrize("i", [-1, 16, 17, -16])
    def test_apply_rejects_an_index_off_the_carrier(self, i):
        model, rep, g = setup_gabor(4)
        with pytest.raises(InvalidParameterError, match="outside"):
            rep.apply(i, g)

    @pytest.mark.parametrize("i", [2.7, 2.0, np.float64(3.0), True, np.True_, "1", np.nan])
    def test_apply_rejects_a_non_integer_index(self, i):
        # apply(2.7, v) once applied pi(x_2): int() truncated before the range check
        model, rep, g = setup_gabor(4)
        with pytest.raises(InvalidParameterError, match="not an integer"):
            rep.apply(i, g)

    def test_apply_takes_numpy_integers(self):
        model, rep, g = setup_gabor(4)
        for i in (np.int64(5), np.int32(15), np.uint8(0)):
            assert np.array_equal(rep.apply(i, g), rep.apply(int(i), g))

    @pytest.mark.parametrize("i", [-1, 16, -16, 2.7, 2.0, True, "1", np.nan])
    def test_action_rejects_what_apply_rejects(self, i):
        # action(2.7) once built pi(x_2) and action(-1) pi(x_15); action(16) hit an IndexError
        model, rep, g = setup_gabor(4)
        with pytest.raises(InvalidParameterError):
            rep.action(i)
        with pytest.raises(InvalidParameterError):
            rep.apply(i, g)

    def test_action_takes_numpy_integers(self):
        model, rep, g = setup_gabor(4)
        for i in (np.int64(5), np.int32(15), np.uint8(0)):
            assert np.array_equal(rep.action(i), rep.action(int(i)))
            assert np.abs(rep.action(i) @ g - rep.apply(i, g)).max() <= 1e-15

    def test_non_cyclic_model_rejected(self):
        with pytest.raises(InvalidParameterError):
            gabor_representation(build_real_line(4.0, 0.5))


class TestVoiceTransform:
    def test_at_identity(self):
        model, rep, g = setup_gabor(4)
        vg = voice_transform(rep, g, g)
        assert vg.values[model.identity] == pytest.approx(np.linalg.norm(g) ** 2)

    def test_intertwining_exhaustive(self):
        model, rep, g = setup_gabor(4)
        rng = np.random.default_rng(0)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        vf = voice_transform(rep, g, f)
        for x in range(16):
            lhs = voice_transform(rep, g, rep.apply(x, f))
            rhs = translate_left(vf, x, twisted=True)
            assert np.abs(lhs.values - rhs.values).max() < 1e-12

    def test_isometry_for_admissible(self):
        model, rep, g = setup_gabor(4)
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.normal(size=4) + 1j * rng.normal(size=4)
            vf = voice_transform(rep, g, f)
            energy = float((np.abs(vf.values) ** 2 * model.haar).sum())
            assert energy == pytest.approx(np.linalg.norm(f) ** 2)


class TestAdmissibility:
    def test_unit_norm_is_admissible(self):
        model, rep, _ = setup_gabor(4)
        rng = np.random.default_rng(2)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        g /= np.linalg.norm(g)
        info = KernelSystem.form(rep, g).admissibility()
        assert info["is_admissible"]
        assert info["constant"] == pytest.approx(1.0, abs=1e-12)

    def test_scaling_homogeneity(self):
        model, rep, g = setup_gabor(4)
        c = 1.7 - 0.3j
        info = KernelSystem.form(rep, c * g).admissibility()
        assert info["constant"] == pytest.approx(abs(c) ** 2, rel=1e-12)

    def test_zero_window_rejected(self):
        model, rep, _ = setup_gabor(4)
        with pytest.raises(InvalidParameterError):
            KernelSystem.form(rep, np.zeros(4)).admissibility()

    def test_normalize(self):
        model, rep, g = setup_gabor(4)
        h = normalize_admissible(rep, 3.0 * g)
        assert KernelSystem.form(rep, h).admissibility()["is_admissible"]


class TestReproducingFormula:
    def test_window_self(self):
        model, rep, g = setup_gabor(4)
        assert reproducing_check(rep, g, g, g) < 1e-10

    def test_zero_vector(self):
        model, rep, g = setup_gabor(4)
        assert reproducing_check(rep, g, g, np.zeros(4)) == 0.0

    def test_random_exhaustive_n8(self):
        model, rep, g = setup_gabor(8)
        rng = np.random.default_rng(3)
        for _ in range(3):
            h = rng.normal(size=8) + 1j * rng.normal(size=8)
            f = rng.normal(size=8) + 1j * rng.normal(size=8)
            assert reproducing_check(rep, g, h, f) < 1e-10


class TestAlmostTightFrames:
    def test_full_lattice_identity(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 1), np.array([model.identity]))
        assert np.abs(fs.frame_operator - np.eye(4)).max() < 1e-10
        a, b = fs.bounds
        assert a == pytest.approx(1.0, abs=1e-10)
        assert b == pytest.approx(1.0, abs=1e-10)

    def test_sublattice_positive_lower_bound(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
        a, b = fs.bounds
        assert a > 0
        assert b >= a

    def test_empty_sample(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, SampleSet(model=model, points=np.array([], dtype=int)),
                                      np.array([model.identity]))
        assert fs.bounds == (0.0, 0.0)

    def test_refinement_trend(self):
        model, rep, g = setup_gabor(16)
        ks = KernelSystem.build(rep, g)
        ratios = []
        for size in (4, 2, 1):
            fs = build_almost_tight_frame(ks, lattice(model, size), block(model, size))
            a, b = fs.bounds
            assert a > 0
            ratios.append(b / a)
        assert ratios[0] >= ratios[1] - 1e-3
        assert ratios[1] >= ratios[2] - 1e-3
        assert ratios[-1] == pytest.approx(1.0, abs=1e-10)


class TestFrameBounds:
    @pytest.mark.parametrize("frame", ["lattice", "irregular", "irregular_lower"])
    def test_deviation_is_spectral_norm(self, frame):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        if frame == "lattice":
            fs = build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
        elif frame == "irregular":
            fs = irregular_complex_frame()
        else:
            points = np.sort(np.random.default_rng(1).choice(model.size, 40, replace=False))
            fs = build_almost_tight_frame(ks, SampleSet(model=model, points=points),
                                          block(model, 2))
            assert 1 - fs.bounds[0] > fs.bounds[1] - 1  # here the lower side sets ||S - I||
        exact = np.linalg.norm(fs.frame_operator - np.eye(fs.frame_operator.shape[0]), 2)
        assert abs(fs.deviation - exact) <= 1e-14

    def test_identity(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 1), np.array([model.identity]))
        assert fs.bounds == pytest.approx((1.0, 1.0), abs=1e-10)

    def test_diagonal_mock(self):
        assert hermitian_extremes(np.diag([0.5, 2.0])) == pytest.approx((0.5, 2.0))

    def test_matches_rayleigh_oracle(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
        a, b = fs.bounds
        oa, ob = rayleigh_extremes(fs.frame_operator)
        assert abs(a - oa) < 1e-6
        assert abs(b - ob) < 1e-6


class TestHolomorphicApply:
    def test_identity_input(self):
        r = _series_apply(np.eye(3), "inverse", 1e-12)[0]
        assert np.allclose(r, np.eye(3))

    def test_diagonal_inverse(self):
        s = np.diag([0.8, 1.2])
        r = _series_apply(s, "inverse", 1e-13)[0]
        assert np.abs(r - np.diag([1.25, 1.0 / 1.2])).max() < 1e-11

    def test_inverse_sqrt_against_eig_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 5))
        s = np.eye(5) + 0.05 * (a + a.T)
        r = _series_apply(s, "inverse_sqrt", 1e-13)[0]
        oracle = eig_apply(s, lambda v: v ** -0.5)
        assert np.abs(r - oracle).max() < 1e-10

    def test_composition_consistency(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
        tail = 1e-12
        r = _series_apply(fs.frame_operator, "inverse_sqrt", tail)[0]
        resid = np.linalg.norm(r @ r @ fs.frame_operator - np.eye(8), 2)
        assert resid <= 10 * tail
        inv = _series_apply(fs.frame_operator, "inverse", tail)[0]
        assert np.abs(r @ r - inv).max() < 100 * tail

    def test_not_contractive(self):
        with pytest.raises(NotContractiveError):
            _series_apply(np.diag([-0.5, 1.0]), "inverse", 1e-12)
        with pytest.raises(NotContractiveError):
            # measured deviation 1 - 1e-7 exceeds the budget 0.999999
            _series_apply(np.diag([1e-7, 1.0]), "inverse", 1e-12)


class TestDualFrame:
    def test_tight_frame_scalar_inverse(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 1), np.array([model.identity]))
        duals = dual_frame(fs)
        expected = fs.tau[:, None] * fs.atoms  # S = I here
        assert np.abs(duals - expected).max() < 1e-10

    def test_neumann_matches_direct_solve(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
        duals = dual_frame(fs)
        direct = np.linalg.solve(fs.frame_operator, (fs.tau[:, None] * fs.atoms).T).T
        assert np.abs(duals - direct).max() < 1e-9
        assert fs.neumann_terms and fs.neumann_terms > 1

    def test_reconstruction_on_basis(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
        duals = dual_frame(fs)
        assert reconstruction_error(fs, duals) <= 1e-9

    def test_both_expansions(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
        duals = dual_frame(fs)
        atoms = fs.atoms
        rng = np.random.default_rng(5)
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        via_dual = (atoms.conj() @ f) @ duals
        via_atoms = (duals.conj() @ f) @ atoms
        assert np.abs(via_dual - f).max() < 1e-9
        assert np.abs(via_atoms - f).max() < 1e-9

    def test_not_a_frame(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, SampleSet(model=model, points=np.array([], dtype=int)),
                                      np.array([model.identity]))
        with pytest.raises(NotAFrameError):
            dual_frame(fs)


class TestParsevalFrame:
    def test_already_parseval(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 1), np.array([model.identity]))
        pars, _ = parseval_frame(fs)
        expected = np.sqrt(fs.tau)[:, None] * fs.atoms
        assert np.abs(pars - expected).max() < 1e-8

    def test_frame_operator_is_identity(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
        pars, dev = parseval_frame(fs)
        s_new = pars.T @ pars.conj()
        assert np.abs(s_new - np.eye(8)).max() <= 1e-8
        assert dev == np.abs(s_new - np.eye(8)).max()  # the gap the construction checked
        a, b = hermitian_extremes(s_new)
        assert a == pytest.approx(1.0, abs=1e-8)
        assert b == pytest.approx(1.0, abs=1e-8)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count the calls of np.linalg.eigh and np.linalg.solve."""
    calls = {"eigh": 0, "solve": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def scaled_frame(fs, c):
    """The frame system with tau and S scaled by c: the same duals and Parseval atoms."""
    a_bound, b_bound = fs.bounds
    return FrameSystem(fs.kernel_system, fs.sample, c * fs.tau, c * fs.frame_operator,
                       (c * a_bound, c * b_bound))


class TestCanonicalConstructions:
    """phi(M) comes from the power series or one eigendecomposition, never a solve."""

    def test_dual_series_path_terms(self, linalg_calls):
        model, rep, g = setup_gabor(8)
        fs = build_almost_tight_frame(KernelSystem.build(rep, g), lattice(model, 2),
                                      block(model, 2))
        linalg_calls.update(eigh=0, solve=0)  # building the frame ran one for its bounds
        duals = dual_frame(fs)
        assert linalg_calls == {"eigh": 0, "solve": 0}
        # the default `gabor frame` report records 16 terms; the series around I takes 17
        assert fs.neumann_terms == 16
        assert fs.neumann_terms == _series_apply(fs.frame_operator, "inverse", 1e-12,
                                                 fs.relaxation)[1]
        s_inv, unrelaxed_terms = unrelaxed_frame_phi(fs, "inverse")
        assert unrelaxed_terms == 17
        assert np.abs(duals - (fs.tau[:, None] * fs.atoms) @ s_inv.T).max() < 1e-12

    def test_eigendecomposition_path(self, linalg_calls):
        """A frame far from I takes the relaxed series too: no eigh, the same count."""
        model, rep, g = setup_gabor(8)
        fs = build_almost_tight_frame(KernelSystem.build(rep, g), lattice(model, 2),
                                      block(model, 2))
        big = scaled_frame(fs, 3.0)
        assert big.deviation >= 0.999
        assert unrelaxed_frame_phi(big, "inverse")[1] == 0  # beyond the series around I
        linalg_calls.update(eigh=0, solve=0)
        duals = dual_frame(big)
        assert linalg_calls == {"eigh": 0, "solve": 0}
        assert np.abs(duals - dual_frame(fs)).max() < 1e-12
        assert big.neumann_terms == fs.neumann_terms == 16  # q does not change under scaling
        assert np.abs(parseval_frame(big)[0] - parseval_frame(fs)[0]).max() < 1e-12
        assert linalg_calls == {"eigh": 0, "solve": 0}

    def test_riesz_constructions_decompose_once(self, linalg_calls):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        rs = build_riesz_system(ks, lattice(model, 4))
        assert linalg_calls == {"eigh": 1, "solve": 0}
        orthonormalize(rs)
        biorthogonal_system(rs)
        assert rs.bounds[0] > 0
        assert linalg_calls == {"eigh": 1, "solve": 0}

    @pytest.mark.parametrize("n_side, separation", [(8, 4), (32, 8)])
    def test_riesz_suite_forms_and_decomposes_the_gramian_once(self, linalg_calls, monkeypatch,
                                                                n_side, separation):
        formed = []
        real_gramian = frames.gramian
        monkeypatch.setattr(frames, "gramian", lambda *a: formed.append(1) or real_gramian(*a))
        report = experiments.run_riesz_suite(n_side=n_side, separation=separation)
        assert report.all_pass
        assert linalg_calls == {"eigh": 1, "solve": 0}
        assert len(formed) == 1


def n8_frames():
    """The N = 8 frames of the calibration battery (Q covers) and the (2, 2) lattice frames."""
    model, rep, g = setup_gabor(8)
    ks = KernelSystem.build(rep, g)
    lat = lattice(model, 2)
    frames = [build_almost_tight_frame(ks, lat, block(model, 2)),
              build_almost_tight_frame(ks, lat, model.q_indices)]
    for lam in _calibration_samples(model, 2024):
        try:
            frames.append(build_almost_tight_frame(ks, lam, model.q_indices))
        except NotDenseError:  # every fourth point leaves Q-gaps
            assert len(lam) == 16
    return frames


def smallest_count(q, tail_tol=1e-12):
    n = 1
    while q ** n / (1.0 - q) > tail_tol:
        n += 1
    return n


class TestRelaxedSeries:
    """S^{-1} = w sum (I - wS)^n and S^{-1/2} = w^{1/2} sum a_n (I - wS)^n at rate q."""

    @pytest.mark.parametrize("index", range(6))
    def test_tail_is_earned(self, index):
        fs = n8_frames()[index]
        omega, q = fs.relaxation
        assert 0 < q < 1
        for phi, fn in (("inverse", lambda v: 1.0 / v), ("inverse_sqrt", lambda v: v ** -0.5)):
            r, n_terms, tail = _series_apply(fs.frame_operator, phi, 1e-12, fs.relaxation)
            exact = eig_apply(fs.frame_operator, fn)
            assert n_terms == smallest_count(q)
            scale = omega if phi == "inverse" else np.sqrt(omega)
            assert tail == pytest.approx(scale * q ** (n_terms + 1) / (1.0 - q), rel=1e-14)
            assert np.abs(r - exact).max() <= 1e-12
            assert np.linalg.norm(r - exact, 2) <= tail + 1e-13

    def test_counts(self):
        frames = n8_frames()
        terms = []
        for fs in frames:
            dual_frame(fs)
            terms.append(fs.neumann_terms)
        assert len(frames) == 6
        assert terms[0] == 16  # the default `gabor frame`
        assert terms[2] == 171  # the full carrier, q = 0.841
        assert max(terms) == 171

    def test_tight_frame_rate_zero(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 1), np.array([model.identity]))
        exact = FrameSystem(ks, fs.sample, fs.tau, np.eye(4, dtype=complex), (1.0, 1.0))
        assert exact.relaxation == (1.0, 0.0)
        for phi in ("inverse", "inverse_sqrt"):
            r, n_terms, tail = _series_apply(exact.frame_operator, phi, 1e-12,
                                             exact.relaxation)
            assert (n_terms, tail) == (1, 0.0)
            assert np.array_equal(r, np.eye(4))
        duals = dual_frame(exact)
        assert (exact.neumann_terms, exact.series_tail_bound) == (1, 0.0)
        assert np.array_equal(duals, exact.tau[:, None] * exact.atoms)

    def test_ill_conditioned_frame_is_named(self):
        class Unread:
            """A frame operator that fails the test when the series reads it."""

            def __array__(self, *args, **kwargs):
                raise AssertionError("the frame operator was read")

        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        lam = lattice(model, 1)
        fs = FrameSystem(ks, lam, np.ones(len(lam)), Unread(), (1e-6, 1.0))
        with pytest.raises(NotContractiveError) as err:
            dual_frame(fs)
        # q = 0.999998 needs n = ceil(log(1e-12 (1 - q))/log q) = 20,376,693 terms
        assert str(err.value) == ("the relaxed series at q = 0.999998 (B/A = 1e+06) needs "
                                  "20376693 terms, more than the 20000-term cap")
        with pytest.raises(NotContractiveError):
            parseval_frame(fs)


class TestGramianRiesz:
    def test_single_atom(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        lam = SampleSet(model=model, points=np.array([0]))
        cdm = gramian(ks, lam)
        assert cdm.entries.shape == (1, 1)
        assert cdm.entries[0, 0] == pytest.approx(1.0)
        duals, _ = biorthogonal_system(build_riesz_system(ks, lam))
        assert np.abs(duals[0] - g).max() < 1e-12  # g / ||g||^2 with unit norm

    def test_biorthogonality(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        lam = lattice(model, 4)
        duals, gap = biorthogonal_system(build_riesz_system(ks, lam))
        atoms = rep.orbit(g)[lam.points]
        dev = np.abs(atoms.conj() @ duals.T - np.eye(len(lam))).max()
        assert dev <= 1e-9
        assert gap == dev

    def test_matches_direct_inverse_oracle(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        lam = lattice(model, 4)
        atoms = rep.orbit(g)[lam.points]
        gram = atoms.conj() @ atoms.T
        oracle = np.conj(np.linalg.inv(gram)) @ atoms
        assert np.abs(biorthogonal_system(build_riesz_system(ks, lam))[0] - oracle).max() < 1e-10

    def test_orthonormalize(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        lam = lattice(model, 4)
        ortho, gap = orthonormalize(build_riesz_system(ks, lam))
        dev = np.abs(ortho @ ortho.conj().T - np.eye(len(lam))).max()
        assert dev <= 1e-9
        assert gap == dev

    def test_gramian_envelope_bound(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        lam = lattice(model, 2)
        cdm = gramian(ks, lam)
        vgg = voice_transform(rep, g, g)
        absvgg = GridFunction(model, np.abs(vgg.values))
        bound = convolve(absvgg, absvgg).values.real
        for ii, li in enumerate(lam.points):
            for jj, lj in enumerate(lam.points):
                z = model.div_indices(np.array(lj), np.array(li))
                assert abs(cdm.entries[ii, jj]) <= bound[int(z)] + 1e-10

    def test_riesz_bounds_and_oracle(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        rs = build_riesz_system(ks, lattice(model, 4))
        lo, hi = rs.bounds
        assert lo > 0
        olo, ohi = rayleigh_extremes(rs.gram.entries)
        assert abs(lo - olo) < 1e-6 and abs(hi - ohi) < 1e-6

    def test_moment_problem(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        lam = lattice(model, 4)
        duals, _ = biorthogonal_system(build_riesz_system(ks, lam))
        atoms = rep.orbit(g)[lam.points]
        rng = np.random.default_rng(6)
        c = rng.normal(size=len(lam)) + 1j * rng.normal(size=len(lam))
        f = c @ duals
        recovered = atoms.conj() @ f
        assert np.abs(recovered - c).max() < 1e-9

    def test_singular_gramian(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        lam = lattice(model, 1)  # 16 atoms in C^4: necessarily not Riesz
        rs = build_riesz_system(ks, lam)
        with pytest.raises(NotRieszError):
            biorthogonal_system(rs)
        with pytest.raises(NotRieszError):
            orthonormalize(rs)

    def test_system_holds_the_gramian_and_its_envelope(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        lam = lattice(model, 4)
        rs = build_riesz_system(ks, lam)
        cdm = gramian(ks, lam)
        assert np.array_equal(rs.atoms, ks.orbit[lam.points])
        assert np.array_equal(rs.gram.entries, cdm.entries)
        assert np.array_equal(rs.gram.envelope.values, cdm.envelope.values)

    def test_empty_sample_rejected(self):
        model, rep, g = setup_gabor(4)
        with pytest.raises(InvalidParameterError):
            build_riesz_system(KernelSystem.build(rep, g),
                               SampleSet(model=model, points=np.zeros(0, dtype=int)))


class TestFitEnvelope:
    def test_atoms_give_symmetrized_kernel(self):
        model, rep, g = setup_gabor(8)
        lam = lattice(model, 2)
        atoms = rep.orbit(g)[lam.points]
        cert = fit_envelope(KernelSystem.build(rep, g), atoms, lam, 1.0, unit_weight(model))
        vgg = np.abs(voice_transform(rep, g, g).values)
        inv = model.inv_indices(np.arange(model.size))
        expected = np.maximum(vgg, vgg[inv])
        assert np.abs(cert.envelope.values.real - expected).max() < 1e-12
        assert cert.max_violation == 0.0

    def test_matches_per_atom_loop(self):
        model, rep, g = setup_gabor(8)
        rng = np.random.default_rng(7)
        lam = SampleSet(model=model, points=np.sort(rng.choice(model.size, 20, replace=False)))
        atoms = rng.normal(size=(len(lam), 8)) + 1j * rng.normal(size=(len(lam), 8))
        phi = brute_envelope(model, rep.orbit(g + 0j), atoms, lam.points)
        expected = np.maximum(phi, phi[model.inv_indices(np.arange(model.size))])
        ks = KernelSystem.build(rep, g)
        env = fit_envelope(ks, atoms, lam, 1.0, unit_weight(model)).envelope.values.real
        assert np.abs(env - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_zero_atoms(self):
        model, rep, g = setup_gabor(4)
        lam = lattice(model, 2)
        cert = fit_envelope(KernelSystem.build(rep, g), np.zeros((len(lam), 4), complex), lam,
                            1.0, unit_weight(model))
        assert np.all(cert.envelope.values == 0)
        assert cert.amalgam_value == 0.0

    def test_envelope_is_symmetric_and_valid(self):
        model, rep, g = setup_gabor(8)
        lam = lattice(model, 2)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lam, block(model, 2))
        duals = dual_frame(fs)
        cert = fs.certificates["dual"]
        env = cert.envelope.values.real
        inv = model.inv_indices(np.arange(model.size))
        assert np.abs(env - env[inv]).max() < 1e-12
        for i, lam_i in enumerate(lam.points):
            v = np.abs(voice_transform(rep, g, duals[i]).values)
            z = model.div_indices(np.full(model.size, lam_i), np.arange(model.size))
            assert np.all(v <= env[z] + 1e-12)

    def test_dual_envelope_dominated_by_series_majorant(self):
        model, rep, g = setup_gabor(8)
        lam = lattice(model, 2)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lam, block(model, 2))
        duals = dual_frame(fs)
        cert = fs.certificates["dual"]

        # kernel of S - id on the kernel space, binned into a symmetric envelope
        kern = ks.kernel_matrix[:, lam.points]
        frame_kernel = (kern * fs.tau[None, :]) @ kern.conj().T
        l_kernel = frame_kernel - ks.kernel_matrix
        psi_eps = np.zeros(model.size)
        all_idx = np.arange(model.size)
        for y in range(model.size):
            z = model.div_indices(np.full(model.size, y), all_idx)
            np.maximum.at(psi_eps, z, np.abs(l_kernel[all_idx, y]))
        inv = model.inv_indices(all_idx)
        psi_eps = np.maximum(psi_eps, psi_eps[inv])

        vgg = np.abs(voice_transform(rep, g, g).values)
        phi_atom = fs.tau.max() * np.maximum(vgg, vgg[inv])
        dev = np.linalg.norm(fs.frame_operator - np.eye(8), 2)
        n_terms = 60
        majorant = phi_atom.copy()
        power = GridFunction(model, psi_eps + 0j)
        psi_fn = GridFunction(model, psi_eps + 0j)
        for _ in range(1, n_terms + 1):
            majorant = majorant + fs.tau.max() * power.values.real
            power = convolve(power, psi_fn)
        tail = fs.tau.max() * np.linalg.norm(g) ** 2 * dev ** (n_terms + 1) / (1 - dev)
        majorant = majorant + tail
        assert np.all(cert.envelope.values.real <= majorant + 1e-8)


def orbit_family(n, family):
    """(kernel system, sample, window w, coefficients c) of the family c_i pi(lambda_i) w."""
    model, rep, g = setup_gabor(n)
    ks = KernelSystem.build(rep, g)
    rng = np.random.default_rng(n)
    if family == "lattice":
        return ks, lattice(model, 2), g, np.ones(model.size // 4)
    points = np.sort(rng.choice(model.size, model.size // 2, replace=False))
    window = rng.normal(size=n) + 1j * rng.normal(size=n)
    if family == "irregular":  # unimodular coefficients: scale 1
        coeffs = np.exp(2j * np.pi * rng.random(len(points)))
    else:  # weighted: sqrt(tau_i) with tau varying over the sample
        coeffs = np.sqrt(rng.uniform(0.1, 1.5, len(points)))
    return ks, SampleSet(model=model, points=points), window, coeffs


class TestOrbitEnvelope:
    """The envelope of an orbit family is one column: the fitted envelope to rounding."""

    @pytest.mark.parametrize("family", ["lattice", "irregular", "weighted"])
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_matches_fit_envelope(self, n, family):
        ks, lam, window, coeffs = orbit_family(n, family)
        model = ks.rep.model
        atoms = coeffs[:, None] * KernelSystem.form(ks.rep, window).atoms(lam)
        weight = unit_weight(model, 0.5)
        fitted = fit_envelope(ks, atoms, lam, 0.5, weight)
        orbit = orbit_envelope(ks, window, np.abs(coeffs).max(), 0.5, weight)
        assert np.abs(orbit.envelope.values - fitted.envelope.values).max() <= 1e-12
        # p = 1/2 sums squares: values of a few hundred, so the amalgam agrees relatively
        assert orbit.amalgam_value == pytest.approx(fitted.amalgam_value, rel=1e-12)
        assert (orbit.columns, fitted.columns) == (1, len(lam))
        assert orbit.to_json_obj()["columns"] == 1

    def test_frame_kernel_check_reads_one_column(self, monkeypatch):
        fits = []
        monkeypatch.setattr(frames, "fit_envelope", lambda *a: fits.append(1))
        fs = irregular_complex_frame()
        assert np.ptp(fs.tau) > 0  # a Q cover: tau varies
        assert frame_kernel_envelope_check(fs)["holds"]
        assert fits == []


def frame_of(n, kind):
    """The frame of a lattice, stride-3, random-half or Q-cover sample at N = n."""
    model, rep, g = setup_gabor(n)
    ks = KernelSystem.build(rep, g)
    if kind == "lattice":
        return build_almost_tight_frame(ks, lattice(model, 2), block(model, 2))
    if kind == "q-cover":
        return build_almost_tight_frame(ks, lattice(model, 2), model.q_indices)
    samples = _calibration_samples(model, 2024)
    lam = samples[2] if kind == "stride-3" else samples[-1]
    assert len(lam) == (-(-model.size // 3) if kind == "stride-3" else model.size // 2)
    return build_almost_tight_frame(ks, lam, model.q_indices)


class TestCovariantDuals:
    """On a subgroup with constant tau the duals are the orbit of gamma = S^{-1}(tau_0 g),
    so their certificate is one column."""

    @pytest.mark.parametrize("n", [8, 16, 32])  # at N = 4 the (2, 2) lattice is no frame
    def test_certified_as_the_orbit_of_gamma(self, n, monkeypatch):
        fs = frame_of(n, "lattice")
        s_inv = frames._frame_phi(fs, "inverse")[0]
        fits = []
        monkeypatch.setattr(frames, "fit_envelope", lambda *a: fits.append(1))
        duals = dual_frame(fs)
        assert fits == []
        assert np.array_equal(duals, (fs.tau[:, None] * fs.atoms) @ s_inv.T)
        # the duals are the orbit rows pi(lambda_i) gamma of gamma = S^{-1}(tau_0 g)
        gamma = s_inv @ (fs.tau[0] * fs.kernel_system.window)
        orbit = KernelSystem.form(fs.kernel_system.rep, gamma).atoms(fs.sample)
        assert np.abs(orbit - duals).max() <= 1e-12
        cert = fs.certificates["dual"]
        monkeypatch.undo()
        fitted = fit_envelope(fs.kernel_system, duals, fs.sample, 1.0,
                              unit_weight(fs.sample.model))
        assert cert.columns == 1 and fitted.columns == len(fs.sample)
        assert np.abs(cert.envelope.values - fitted.envelope.values).max() <= 1e-12
        assert cert.amalgam_value == pytest.approx(fitted.amalgam_value, abs=1e-12)

    @pytest.mark.parametrize("kind", ["stride-3", "random-half", "q-cover"])
    def test_other_samples_take_the_generic_path(self, kind, monkeypatch):
        fs = frame_of(8, kind)
        fits = []
        fit = frames.fit_envelope
        monkeypatch.setattr(frames, "fit_envelope", lambda *a: fits.append(1) or fit(*a))
        duals = dual_frame(fs)
        assert fits == [1]
        assert fs.certificates["dual"].columns == len(fs.sample)
        s_inv = frames._frame_phi(fs, "inverse")[0]
        assert np.array_equal(duals, (fs.tau[:, None] * fs.atoms) @ s_inv.T)

    def test_a_coset_or_varying_tau_is_not_covariant(self):
        fs = frame_of(8, "lattice")
        assert frames._covariant_rows(fs) is not None
        model = fs.sample.model
        coset = SampleSet(model=model, points=model.mul_indices(fs.sample.points, 9))
        assert frames._covariant_rows(FrameSystem(fs.kernel_system, coset, fs.tau,
                                                  fs.frame_operator, fs.bounds)) is None
        tau = fs.tau.copy()
        tau[3] = np.nextafter(tau[3], 1.0)  # one ulp
        assert frames._covariant_rows(FrameSystem(fs.kernel_system, fs.sample, tau,
                                                  fs.frame_operator, fs.bounds)) is None

    def test_closure_takes_about_2n_products(self, monkeypatch):
        fs = frame_of(16, "lattice")  # m = 64 points of n = 256
        model = fs.sample.model
        products = []
        mul = model.mul_indices
        monkeypatch.setattr(model, "mul_indices", lambda i, j: products.append(np.size(
            mul(i, j))) or mul(i, j))
        rows = frames._covariant_rows(fs)
        # the lattice: (0, 2) and (2, 0) double up to their 8th powers (1 + 2 + 4 products)
        # and form 7 cosets of 1 and of 8 points; the carrier: (0, 1) and (1, 0) reach their
        # squares in 1 product, form one coset of 64 and of 128 points, and carry 1 and 2
        # coset points
        assert products == [1, 2, 4, 7, 1, 2, 4, 56, 1, 64, 1, 1, 128, 2]
        assert sum(products) == 274 < len(fs.sample) ** 2  # the pairwise closure: 4,096
        assert len(rows) == 4
        # the lattice less one point holds the identity but is not closed
        less = SampleSet(model=model, points=fs.sample.points[:-1])
        assert frames._covariant_rows(FrameSystem(fs.kernel_system, less, fs.tau[:-1],
                                                  fs.frame_operator, fs.bounds)) is None


def subgroup(model, gens):
    """The subgroup generated by ``gens``, closed one scalar product at a time."""
    span = {model.identity}
    while True:
        grown = span | {mul(model, x, t) for x in span for t in gens}
        if grown == span:
            return np.array(sorted(span))
        span = grown


def on_points(ks, points, tau=None):
    """A frame system on ``points`` with weights ``tau`` (default 1); S is not read."""
    model, d = ks.rep.model, ks.rep.dim
    tau = np.ones(len(points)) if tau is None else tau
    return FrameSystem(ks, SampleSet(model=model, points=np.asarray(points, dtype=int)), tau,
                       np.eye(d, dtype=complex), (1.0, 1.0))


def covariance_cases(n):
    """(name, points, tau) on Z_n x Z_n: subgroups, cosets, near-subgroups and random subsets."""
    model = build_cyclic_phase_space(n)
    rng = np.random.default_rng(n)
    cases = []
    for sk, sl in [(1, 1), (2, 2), (4, 2), (2, 4)]:
        points = experiments.lattice_points(model, sk, sl).points
        cases += [(f"lattice{sk}{sl}", points, None),
                  (f"shuffled{sk}{sl}", rng.permutation(points), None)]
        if len(points) > 1:
            tau = np.ones(len(points))
            tau[-1] = np.nextafter(1.0, 2.0)  # one ulp
            cases += [(f"ulp{sk}{sl}", points, tau),
                      (f"less-one{sk}{sl}", points[:-1], None),
                      (f"less-identity{sk}{sl}", points[1:], None)]
        outside = np.setdiff1d(np.arange(model.size), points)
        if outside.size:
            cases.append((f"coset{sk}{sl}", np.sort(model.mul_indices(points, outside[0])), None))
    cases.append(("identity", np.array([model.identity]), None))
    for j in range(4):
        gens = rng.choice(model.size, 1 + j % 2, replace=False)
        cases.append((f"generated{j}", subgroup(model, gens), None))
        size = int(rng.integers(1, model.size + 1))
        points = rng.choice(model.size, size, replace=False)
        if j % 2:
            points = np.union1d(points, [model.identity])
        cases.append((f"random{j}", points, None))
    return cases


class TestCovariantRows:
    """``_covariant_rows`` decides covariance as the m^2 closure does and returns one point
    of each coset."""

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_agrees_with_the_pairwise_closure(self, n):
        model, rep, g = setup_gabor(n)
        ks = KernelSystem.build(rep, g)
        verdicts = set()
        for name, points, tau in covariance_cases(n):
            fs = on_points(ks, points, tau)
            rows = frames._covariant_rows(fs)
            covariant = brute_is_covariant(fs)
            assert (rows is not None) == covariant, name
            verdicts.add(covariant)
            if covariant:  # the cosets rows[r] Lambda partition the carrier
                cosets = model.mul_indices(rows[:, None], fs.sample.points[None, :])
                assert np.array_equal(np.sort(cosets.ravel()), np.arange(model.size)), name
        assert verdicts == {True, False}

    def test_lattice_rows(self):
        model, rep, g = setup_gabor(32)
        fs = on_points(KernelSystem.build(rep, g), experiments.lattice_points(model, 2, 2).points)
        assert frames._covariant_rows(fs).tolist() == [0, 1, 32, 33]  # (0|1, 0|1)
        fs = on_points(fs.kernel_system, np.array([model.identity]))
        assert np.array_equal(np.sort(frames._covariant_rows(fs)), np.arange(model.size))


class TestFrameKernelEnvelope:
    def test_full_lattice(self):
        model, rep, g = setup_gabor(8)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 1), np.array([model.identity]))
        result = frame_kernel_envelope_check(fs)
        assert result["holds"]
        assert result["pairs"] == 64 * 64

    def test_zero_weights(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, lattice(model, 1), np.array([model.identity]))
        fs.tau = np.zeros(len(fs.sample))
        assert frame_kernel_envelope_check(fs)["holds"]

    def test_single_atom(self):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        lam = SampleSet(model=model, points=np.array([model.identity]))
        fs = build_almost_tight_frame(
            ks, lam, np.arange(model.size))
        assert frame_kernel_envelope_check(fs)["holds"]

    @pytest.mark.parametrize("empty", ["sample", "tau"])
    def test_early_return_has_every_key(self, empty):
        model, rep, g = setup_gabor(4)
        ks = KernelSystem.build(rep, g)
        full = frame_kernel_envelope_check(
            build_almost_tight_frame(ks, lattice(model, 1), np.array([model.identity])))
        if empty == "sample":
            fs = build_almost_tight_frame(ks, SampleSet(model=model, points=[]),
                                          np.array([model.identity]))
        else:
            fs = build_almost_tight_frame(ks, lattice(model, 1), np.array([model.identity]))
            fs.tau = np.zeros(len(fs.sample))
        result = frame_kernel_envelope_check(fs)
        assert result.keys() == full.keys()
        assert result == {"pairs": 0, "absent": 0, "max_excess": 0.0, "max_ratio": 0.0,
                          "holds": True}

    def test_matches_kernel_table_oracle(self):
        fs = irregular_complex_frame()
        ks, lam = fs.kernel_system, fs.sample
        model = ks.rep.model
        s = fs.frame_operator
        assert np.abs(s - s.real).max() > 1e-3  # S != S^T, so a conjugation slip shows
        phi = fit_envelope(ks, np.sqrt(fs.tau)[:, None] * fs.atoms, lam, 1.0,
                           unit_weight(model)).envelope
        bound = rel_separation(lam) / model.q_mass() * \
            convolve(maximal_left(phi), maximal_right(phi)).values.real
        expected = brute_frame_kernel_excess(model, ks.kernel_matrix, lam.points, fs.tau, bound)
        assert frame_kernel_envelope_check(fs)["max_excess"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 24])  # N = 24: 4 rows cover all 331,776 pairs
    def test_matches_inline_check(self, n):
        model, rep, g = setup_gabor(n)
        fs = build_almost_tight_frame(KernelSystem.build(rep, g), lattice(model, 2),
                                      block(model, 2))
        result = frame_kernel_envelope_check(fs)
        expected = inline_frame_kernel_check(fs)
        # the check's envelope is one orbit column, the oracle's is fitted over the atoms
        assert result["max_excess"] == pytest.approx(expected["max_excess"], abs=1e-12)
        assert (result["holds"], result["pairs"]) == (expected["holds"], expected["pairs"])
        assert result["absent"] == 0

    @pytest.mark.parametrize("steps", [(1, 1), (2, 2), (4, 2), (2, 4)])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_coset_rows_match_brute_excess(self, n, steps):
        model, rep, g = setup_gabor(n)
        ks = KernelSystem.build(rep, g)
        fs = build_almost_tight_frame(ks, experiments.lattice_points(model, *steps),
                                      experiments.block_indices(model, *steps))
        rows = frames._covariant_rows(fs)
        assert len(rows) == steps[0] * steps[1]
        lam = fs.sample
        phi = fit_envelope(ks, np.sqrt(fs.tau)[:, None] * fs.atoms, lam, 1.0,
                           unit_weight(model)).envelope
        bound = rel_separation(lam) / model.q_mass() * \
            convolve(maximal_left(phi), maximal_right(phi)).values.real
        expected = brute_frame_kernel_excess(model, ks.kernel_matrix, lam.points, fs.tau, bound)
        result = frame_kernel_envelope_check(fs)
        assert result["max_excess"] == pytest.approx(expected, abs=1e-12)
        assert (result["pairs"], result["absent"]) == (model.size ** 2, 0)

    @pytest.mark.parametrize("steps", [(1, 1), (2, 2), (4, 2), (2, 4)])
    def test_coset_rows_match_dense_table(self, steps):
        model, rep, g = setup_gabor(24)
        fs = build_almost_tight_frame(KernelSystem.build(rep, g),
                                      experiments.lattice_points(model, *steps),
                                      experiments.block_indices(model, *steps))
        result = frame_kernel_envelope_check(fs)
        expected = inline_frame_kernel_check(fs)
        assert result["max_excess"] == pytest.approx(expected["max_excess"], abs=1e-12)
        assert (result["holds"], result["pairs"]) == (expected["holds"], model.size ** 2)
        assert result["absent"] == 0

    @pytest.mark.parametrize("kind", ["irregular", "coset", "ulp"])
    def test_other_samples_read_every_row(self, kind, monkeypatch):
        """A sample that is no subgroup with constant tau reads every carrier point as a
        row: the n x n pairs of before."""
        fs = irregular_complex_frame() if kind == "irregular" else frame_of(8, "lattice")
        model = fs.sample.model
        if kind == "coset":
            coset = SampleSet(model=model, points=model.mul_indices(fs.sample.points, 9))
            fs = build_almost_tight_frame(fs.kernel_system, coset, block(model, 2))
        elif kind == "ulp":
            fs.tau[3] = np.nextafter(fs.tau[3], 1.0)  # one ulp, set after the build
        calls = []
        check = frames.pair_check

        def spy(model, bound, lhs_rows, rows):
            calls.append(rows)
            return check(model, bound, lhs_rows, rows)

        monkeypatch.setattr(frames, "pair_check", spy)
        result = frame_kernel_envelope_check(fs)
        assert len(calls) == 1 and np.array_equal(calls[0], np.arange(model.size))
        assert result["pairs"] == model.size ** 2
        expected = inline_frame_kernel_check(fs)
        assert result["max_excess"] == pytest.approx(expected["max_excess"], abs=1e-12)

    def test_gabor_frame_at_n32_forms_four_rows_of_h(self, monkeypatch):
        """Steps (2, 2) at N = 32: ``pair_check`` gets the 4 coset rows, H is formed at
        those rows only, in one (4, 1024) block, and they cover all 1,048,576 pairs;
        every carrier point as a row would pass every value test."""
        rows_seen, blocks = [], []
        check = frames.pair_check

        def spy(model, bound, lhs_rows, rows):
            rows_seen.append(rows)

            def recorded(block):
                out = lhs_rows(block)
                blocks.append(out.shape)
                return out

            return check(model, bound, recorded, rows)

        monkeypatch.setattr(frames, "pair_check", spy)
        report = experiments.run_gabor_suite(n_side=32, lattice_steps=(2, 2))
        assert [len(rows) for rows in rows_seen] == [4]
        assert blocks == [(4, 1024)]
        assert report.parameters["frame_kernel_check"] == {"pairs": 1024 ** 2,
                                                           "absent": 0}

    def test_irregular_frame_matches_inline_check(self):
        fs = irregular_complex_frame()
        result = frame_kernel_envelope_check(fs)
        expected = inline_frame_kernel_check(fs)
        assert result["max_excess"] == pytest.approx(expected["max_excess"], abs=1e-12)
        assert (result["holds"], result["pairs"]) == (expected["holds"], expected["pairs"])


class TestBlockBoundaries:
    """The blocked kernels at N = 8 with the block budget cut to a few rows or atoms.

    A gemm over a sub-block may round differently, so floating values match their
    one-block result to 1e-12; counts and flags match exactly.
    """

    @staticmethod
    def record_row_blocks(monkeypatch) -> list:
        """Each block the frame-kernel check reads, as (its rows, its left side)."""
        blocks = []
        check = frames.pair_check

        def spy(model, bound, lhs_rows, rows):
            def recorded(block):
                out = lhs_rows(block)
                blocks.append((rows[block], out))
                return out

            return check(model, bound, recorded, rows)

        monkeypatch.setattr(frames, "pair_check", spy)
        return blocks

    def test_frame_kernel_row_blocks(self, monkeypatch):
        fs = irregular_complex_frame()
        one = frame_kernel_envelope_check(fs)
        blocks = self.record_row_blocks(monkeypatch)
        # 5 rows a block: 13 row blocks, the last of 4 rows; the envelope takes 8
        # blocks of 5 atoms
        monkeypatch.setattr(groups, "_BLOCK_ENTRIES", 64 * 5)
        blocked = frame_kernel_envelope_check(fs)
        assert [read.size for read, _ in blocks] == [5] * 12 + [4]
        exact = ("pairs", "absent", "holds")
        assert {k: blocked[k] for k in exact} == {k: one[k] for k in exact}
        for key in ("max_excess", "max_ratio"):
            assert blocked[key] == pytest.approx(one[key], abs=1e-12)
        inline = inline_frame_kernel_check(fs)
        assert blocked["max_excess"] == pytest.approx(inline["max_excess"], abs=1e-12)
        assert (blocked["holds"], blocked["pairs"]) == (inline["holds"], inline["pairs"])

    def test_frame_kernel_row_blocks_match_dense_h(self, monkeypatch):
        fs = irregular_complex_frame()
        ks = fs.kernel_system
        blocks = self.record_row_blocks(monkeypatch)
        monkeypatch.setattr(groups, "_BLOCK_ENTRIES", 64 * 5)  # 5 rows a block
        frame_kernel_envelope_check(fs)
        assert [read.size for read, _ in blocks] == [5] * 12 + [4]
        kern = ks.kernel_matrix[:, fs.sample.points]
        h = (kern * fs.tau) @ kern.conj().T  # H(x, y) = sum_i tau_i K_i(x) conj(K_i(y))
        for read, out in blocks:
            assert np.abs(out - np.abs(h[read])).max() <= 1e-12

    def test_fit_envelope_atom_blocks(self, monkeypatch):
        model, rep, g = setup_gabor(8)
        rng = np.random.default_rng(7)
        lam = SampleSet(model=model, points=np.sort(rng.choice(model.size, 20, replace=False)))
        atoms = rng.normal(size=(len(lam), 8)) + 1j * rng.normal(size=(len(lam), 8))
        ks = KernelSystem.build(rep, g)
        one = fit_envelope(ks, atoms, lam, 1.0, unit_weight(model))
        bins = model.relative_max
        calls = []
        monkeypatch.setattr(model, "relative_max",
                            lambda *args: calls.append(len(args[2])) or bins(*args))
        monkeypatch.setattr(groups, "_BLOCK_ENTRIES", 64 * 3)  # 3 atoms a block
        blocked = fit_envelope(ks, atoms, lam, 1.0, unit_weight(model))
        assert calls == [3] * 6 + [2]
        phi = brute_envelope(model, rep.orbit(g + 0j), atoms, lam.points)
        expected = np.maximum(phi, phi[model.inv_indices(np.arange(model.size))])
        env = blocked.envelope.values.real
        assert np.abs(env - one.envelope.values.real).max() <= 1e-12
        assert np.abs(env - expected).max() <= 1e-12
        assert blocked.amalgam_value == pytest.approx(one.amalgam_value, abs=1e-12)


class TestForeignSample:
    """A sample of another model is refused, not read as indices into this orbit: an
    N = 8 lattice of step 4 read on Z_16 x Z_16 gave Riesz bounds (0.153, 1.847)."""

    @staticmethod
    def foreign():
        model, rep, g = setup_gabor(16)
        return KernelSystem.build(rep, g), lattice(build_cyclic_phase_space(8), 4)

    def test_atoms(self):
        ks, lam = self.foreign()
        with pytest.raises(IncompatibleOperandsError, match="different model"):
            ks.atoms(lam)
        own = lattice(ks.rep.model, 4)
        assert np.array_equal(ks.atoms(own), ks.orbit[own.points])

    def test_riesz_system(self):
        ks, lam = self.foreign()
        with pytest.raises(IncompatibleOperandsError, match="different model"):
            build_riesz_system(ks, lam)

    def test_almost_tight_frame(self):
        ks, lam = self.foreign()
        for sample in (lam, SampleSet(model=lam.model, points=np.array([], dtype=int))):
            with pytest.raises(IncompatibleOperandsError, match="different model"):
                build_almost_tight_frame(ks, sample, block(ks.rep.model, 4))

    def test_fit_envelope(self):
        ks, lam = self.foreign()
        with pytest.raises(IncompatibleOperandsError, match="different model"):
            fit_envelope(ks, ks.orbit[:len(lam)], lam, 1.0, unit_weight(ks.rep.model))


class TestWindowVariants:
    def test_boxcar_admissible(self):
        model, rep, _ = setup_gabor(8)
        info = KernelSystem.form(rep, boxcar_window(model)).admissibility()
        assert info["is_admissible"]
