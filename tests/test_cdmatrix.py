import itertools
import warnings

import numpy as np
import pytest

from coorbitkit import (
    CDMatrix,
    GridFunction,
    KernelSystem,
    SampleSet,
    build_affine_grid,
    build_cyclic_phase_space,
    convolve,
    gabor_representation,
    gaussian_window,
    gramian,
    matrix_holomorphic,
    minimal_envelope,
    product_with_envelope,
    schur_bounds,
    verify_envelope,
    voice_transform,
)
from coorbitkit.cdmatrix import _series_apply, _series_coefficients
from coorbitkit.errors import (
    CoverageWarning,
    IncompatibleOperandsError,
    InvalidParameterError,
    NoCertificateError,
    NotContractiveError,
)

from _oracles import composed_holomorphic_envelope, eager_series_apply, identity_cd


@pytest.fixture(scope="module")
def model():
    return build_cyclic_phase_space(8)


@pytest.fixture(scope="module")
def full_sample(model):
    return SampleSet(model=model, points=np.arange(64))


def decaying_profile(model, rate=1.2):
    n = model.n_side
    idx = np.arange(model.size)
    k = np.minimum(idx // n, n - idx // n)
    l = np.minimum(idx % n, n - idx % n)
    return np.exp(-rate * (k + l)).astype(float)


def random_localized(model, sample, seed, scale=1.0):
    """Entries bounded by a symmetric decaying profile at relative positions."""
    rng = np.random.default_rng(seed)
    prof = decaying_profile(model)
    z = model.div_indices(sample.points[None, :], sample.points[:, None])
    mags = prof[z] * rng.random(z.shape) * scale
    phases = np.exp(2j * np.pi * rng.random(z.shape))
    cdm = CDMatrix(rows=sample, cols=sample, entries=mags * phases)
    cdm.envelope = minimal_envelope(cdm)
    return cdm


class TestVerifyEnvelope:
    def test_zero_matrix(self, model, full_sample):
        cdm = CDMatrix(rows=full_sample, cols=full_sample,
                       entries=np.zeros((64, 64), complex))
        result = verify_envelope(cdm, GridFunction(model, np.zeros(64)))
        assert result["holds"] and result["max_excess"] == 0.0

    def test_gramian_against_autocorrelation(self, model):
        rep = gabor_representation(model)
        g = gaussian_window(model)
        ks = KernelSystem.build(rep, g)
        lam = SampleSet(model=model, points=np.arange(0, 64, 2))
        cdm = gramian(ks, lam)
        vgg = np.abs(voice_transform(rep, g, g).values)
        absf = GridFunction(model, vgg)
        bound = convolve(absf, absf)
        assert verify_envelope(cdm, GridFunction(model, bound.values.real))["holds"]

    def test_identity_with_q_indicator(self, model):
        lam = SampleSet(model=model, points=np.array([0, 4, 36]))  # distinct mod Q
        cdm = identity_cd(lam)
        ind = np.zeros(64)
        ind[model.q_indices] = 1.0
        assert verify_envelope(cdm, GridFunction(model, ind))["holds"]


    def test_counts_checked_and_absent_entries(self, model, full_sample):
        cdm = random_localized(model, full_sample, 0)
        result = verify_envelope(cdm, cdm.envelope)
        assert result["checked"] == 64 * 64 and result["absent"] == 0

    def test_nothing_checked_does_not_hold(self):
        # every relative position of the identity on these points is off the grid,
        # so its minimal envelope is all zero and bounds no entry
        model = build_affine_grid(2.0, 0.5, 0.25, 4.0, 2.0)
        with pytest.warns(CoverageWarning):
            cdm = identity_cd(SampleSet(model=model, points=np.array([0, 1, 5])))
        assert not np.any(cdm.envelope.values)
        assert verify_envelope(cdm, cdm.envelope) == {"holds": False, "max_excess": 0.0,
                                                      "checked": 0, "absent": 9}

    def test_empty_matrix_holds(self, model):
        empty = SampleSet(model=model, points=np.array([], dtype=int))
        cdm = CDMatrix(rows=empty, cols=empty, entries=np.zeros((0, 0)))
        assert verify_envelope(cdm, GridFunction(model, np.zeros(64))) == {
            "holds": True, "max_excess": 0.0, "checked": 0, "absent": 0}


class TestMinimalEnvelope:
    def test_diagonal(self, model):
        lam = SampleSet(model=model, points=np.array([1, 18, 35]))
        cdm = CDMatrix(rows=lam, cols=lam, entries=np.diag([1.0, 3.0, 2.0]).astype(complex))
        env = minimal_envelope(cdm)
        assert env.values.real[model.identity] == pytest.approx(3.0)
        assert float(np.delete(env.values.real, model.identity).max()) == 0.0

    def test_random_matrix_certified(self, model, full_sample):
        for seed in range(5):
            cdm = random_localized(model, full_sample, seed)
            result = verify_envelope(cdm, cdm.envelope)
            assert result["holds"] and result["max_excess"] == 0.0

    def test_zero(self, model, full_sample):
        cdm = CDMatrix(rows=full_sample, cols=full_sample,
                       entries=np.zeros((64, 64), complex))
        assert np.all(minimal_envelope(cdm).values == 0)


class TestSchurBounds:
    def test_zero_matrix(self, model, full_sample):
        cdm = CDMatrix(rows=full_sample, cols=full_sample,
                       entries=np.zeros((64, 64), complex))
        cdm.envelope = minimal_envelope(cdm)
        result = schur_bounds(cdm)
        assert result["op_bound_l2"] == 0.0
        assert result["measured_op_norm"] == 0.0

    def test_spectral_norm_dominated_50_random(self, model, full_sample):
        for seed in range(50):
            cdm = random_localized(model, full_sample, 100 + seed)
            result = schur_bounds(cdm)
            assert result["measured_op_norm"] <= result["op_bound_l2"] + 1e-12
            assert result["measured_max_row_sum"] <= result["row_sum_bound"] + 1e-12
            assert result["measured_max_col_sum"] <= result["col_sum_bound"] + 1e-12

    def test_single_entry(self, model):
        lam = SampleSet(model=model, points=np.array([5]))
        cdm = CDMatrix(rows=lam, cols=lam, entries=np.array([[2.0 + 0j]]))
        cdm.envelope = minimal_envelope(cdm)
        result = schur_bounds(cdm)
        # identity-bin envelope: ||M^L(v delta_e)||_{L^1} = v mu(Q), so the
        # bound collapses to rel(Lambda) * v = 2
        assert result["row_sum_bound"] == pytest.approx(2.0)
        assert result["measured_op_norm"] <= result["op_bound_l2"]

    def test_missing_envelope(self, model, full_sample):
        cdm = CDMatrix(rows=full_sample, cols=full_sample,
                       entries=np.zeros((64, 64), complex))
        with pytest.raises(NoCertificateError):
            schur_bounds(cdm)


class TestProductEnvelope:
    def test_identity_factor_dominates(self, model, full_sample):
        a = random_localized(model, full_sample, 7)
        eye = identity_cd(full_sample)
        prod = product_with_envelope(a, eye)
        assert np.abs(prod.entries - a.entries).max() < 1e-12
        assert verify_envelope(prod, prod.envelope)["holds"]

    def test_zero_product(self, model, full_sample):
        z = CDMatrix(rows=full_sample, cols=full_sample,
                     entries=np.zeros((64, 64), complex))
        z.envelope = minimal_envelope(z)
        prod = product_with_envelope(z, z)
        assert np.all(prod.entries == 0)
        assert np.all(prod.envelope.values == 0)

    def test_random_pair_certified(self, model, full_sample):
        a = random_localized(model, full_sample, 8)
        b = random_localized(model, full_sample, 9)
        prod = product_with_envelope(a, b)
        result = verify_envelope(prod, prod.envelope)
        assert result["holds"] and result["max_excess"] == 0.0
        env = prod.envelope.values.real
        inv = model.inv_indices(np.arange(model.size))
        assert np.abs(env - env[inv]).max() < 1e-12

    def test_index_mismatch(self, model, full_sample):
        a = random_localized(model, full_sample, 10)
        sub = SampleSet(model=model, points=np.arange(32))
        b = random_localized(model, sub, 11)
        with pytest.raises(IncompatibleOperandsError):
            product_with_envelope(a, b)


class TestMatrixHolomorphic:
    def test_identity(self, model, full_sample):
        eye = identity_cd(full_sample)
        out = matrix_holomorphic(eye, "inverse")
        assert np.abs(out.entries - np.eye(64)).max() < 1e-12
        assert verify_envelope(out, out.envelope)["holds"]

    def test_identity_envelope_on_a_snapped_diagonal(self):
        # lambda^{-1} lambda is the identity wherever lambda^{-1} is on the grid, and absent
        # where it leaves it, as some do on this grid: E_I is the identity's indicator
        model = build_affine_grid(1.0, 0.1, 1 / 1.05 ** 2, 1.05 ** 2, 1.05)
        points = np.arange(model.size)
        z = model.div_indices(points, points)
        assert np.all(z[z >= 0] == model.identity) and np.any(z < 0)
        lam = SampleSet(model=model, points=points)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)  # some inverses leave the grid
            out = matrix_holomorphic(CDMatrix(rows=lam, cols=lam, entries=1.01 * np.eye(len(lam))),
                                     "inverse")
        assert verify_envelope(out, out.envelope)["holds"]

    def test_inverse_matches_direct_solve(self, model):
        lam = SampleSet(model=model, points=np.arange(0, 64, 2))
        perturb = random_localized(model, lam, 14, scale=1.0)
        scale = 0.4 / np.linalg.norm(perturb.entries, 2)
        a = CDMatrix(rows=lam, cols=lam,
                     entries=np.eye(32) + scale * perturb.entries)
        a.envelope = minimal_envelope(a)
        out = matrix_holomorphic(a, "inverse", tail_tol=1e-12)
        direct = np.linalg.inv(a.entries)
        assert np.abs(out.entries - direct).max() <= 1e-9

    def test_gabor_gramian_inverse(self, model):
        rep = gabor_representation(model)
        ks = KernelSystem.build(rep, gaussian_window(model))
        lam = SampleSet(model=model, points=np.array(
            [k * 8 + l for k in range(0, 8, 4) for l in range(0, 8, 4)]))
        cdm = gramian(ks, lam)
        out = matrix_holomorphic(cdm, "inverse", tail_tol=1e-12)
        direct = np.linalg.inv(cdm.entries)
        assert np.abs(out.entries - direct).max() <= 1e-9

    def test_envelope_valid_after_inverse(self, model):
        lam = SampleSet(model=model, points=np.arange(0, 64, 2))
        perturb = random_localized(model, lam, 15)
        scale = 0.35 / np.linalg.norm(perturb.entries, 2)
        a = CDMatrix(rows=lam, cols=lam, entries=np.eye(32) + scale * perturb.entries)
        a.envelope = minimal_envelope(a)
        tail_tol = 1e-10
        out = matrix_holomorphic(a, "inverse", tail_tol=tail_tol)
        result = verify_envelope(out, out.envelope)
        assert result["max_excess"] <= tail_tol
        resid = np.linalg.norm(out.entries @ a.entries - np.eye(32), 2)
        assert resid <= 10 * tail_tol

    @pytest.mark.parametrize("phi", ["inverse", "inverse_sqrt"])
    @pytest.mark.parametrize("seed, step", [(14, 2), (15, 1)])
    def test_envelope_matches_product_composition(self, model, phi, seed, step):
        lam = SampleSet(model=model, points=np.arange(0, 64, step))
        perturb = random_localized(model, lam, seed)
        a = CDMatrix(rows=lam, cols=lam, entries=np.eye(len(lam))
                     + 0.3 / np.linalg.norm(perturb.entries, 2) * perturb.entries)
        a.envelope = minimal_envelope(a)
        out = matrix_holomorphic(a, phi)
        assert np.array_equal(out.envelope.values.real, composed_holomorphic_envelope(a, phi))

    def test_not_contractive(self, model, full_sample):
        a = identity_cd(full_sample)
        a.entries = 3.0 * a.entries
        with pytest.raises(NotContractiveError):
            matrix_holomorphic(a, "inverse")

    def test_envelope_overflow_is_named(self, model, full_sample):
        # 240 inverse_sqrt terms: the propagated envelope leaves the floats at term 239
        perturb = random_localized(model, full_sample, 15)
        a = CDMatrix(rows=full_sample, cols=full_sample, entries=np.eye(64)
                     + 0.9 / np.linalg.norm(perturb.entries, 2) * perturb.entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="inverse_sqrt series overflows at term 239 "):
                matrix_holomorphic(a, "inverse_sqrt")


class TestLazySeriesCoefficients:
    """The series forms a_n as it sums; values and term counts match the eager coefficients."""

    def test_stream_matches_eager_recurrence(self):
        eager = np.ones(20_001)
        for n in range(20_000):
            eager[n + 1] = eager[n] * (n + 0.5) / (n + 1.0)
        stream = itertools.islice(_series_coefficients("inverse_sqrt"), 20_001)
        assert np.array_equal(np.fromiter(stream, float), eager)
        assert list(itertools.islice(_series_coefficients("inverse"), 3)) == [1.0, 1.0, 1.0]
        with pytest.raises(InvalidParameterError):
            _series_coefficients("log")

    @pytest.mark.parametrize("seed, scale, terms, holomorphic_terms",
                             [(14, 0.3, 19, 23), (16, 0.99, 2749, 3207)])
    def test_inverse_sqrt_pinned(self, model, seed, scale, terms, holomorphic_terms):
        lam = SampleSet(model=model, points=np.arange(0, 64, 2))
        perturb = random_localized(model, lam, seed)
        a = CDMatrix(rows=lam, cols=lam, entries=np.eye(32)
                     + scale / np.linalg.norm(perturb.entries, 2) * perturb.entries)
        a.envelope = minimal_envelope(a)
        expected, n_terms, tail = eager_series_apply(a.entries, "inverse_sqrt", 1e-10)
        result = _series_apply(a.entries, "inverse_sqrt", 1e-10)
        assert np.array_equal(result[0], expected) and result[1:] == (n_terms, tail)
        assert n_terms == terms
        if terms < 100:  # the propagated envelope overflows long before 2,749 terms
            assert np.array_equal(matrix_holomorphic(a, "inverse_sqrt").entries, expected)
        expected, n_terms, _ = eager_series_apply(a.entries, "inverse_sqrt", 1e-12)
        assert n_terms == holomorphic_terms
        assert np.array_equal(_series_apply(a.entries, "inverse_sqrt", 1e-12)[0], expected)

