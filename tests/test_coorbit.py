import numpy as np
import pytest

from _oracles import brute_sequence_accumulator, coefficient_bound_report, \
    measured_coefficient_norm
from coorbitkit import (
    Calibration,
    CoorbitContext,
    GridFunction,
    KernelSystem,
    QuasiNormSpec,
    Representation,
    SampleSet,
    SequenceSpaceSpec,
    amalgam_norm,
    build_almost_tight_frame,
    build_cyclic_phase_space,
    calibrate_constants,
    coorbit_norm,
    dual_frame,
    embedding_check,
    extend_operator_check,
    fit_envelope,
    gabor_representation,
    gaussian_window,
    boxcar_window,
    sequence_norm,
    symmetrize_weight,
    unit_weight,
    voice_transform,
    wiener_vs_plain_ratio,
    window_independence_ratio,
)
from coorbitkit import coorbit
from coorbitkit.amalgam import magnitude_norm
from coorbitkit.coorbit import measured_reconstruction_norm
from coorbitkit.errors import IncompatibleOperandsError, InvalidParameterError, \
    NotContractiveError


@pytest.fixture(scope="module")
def setup():
    model = build_cyclic_phase_space(8)
    rep = gabor_representation(model)
    g = gaussian_window(model)
    ks = KernelSystem.build(rep, g)
    return model, rep, g, ks


def lattice(model, step):
    n = model.n_side
    return SampleSet(model=model, points=np.array(
        [k * n + l for k in range(0, n, step) for l in range(0, n, step)]))


def block(model, size):
    n = model.n_side
    return np.array([(k % n) * n + (l % n) for k in range(size) for l in range(size)])


def rand_vectors(dim, count, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(count)]


class TestSequenceNorm:
    def test_zero(self, setup):
        model, rep, g, ks = setup
        sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=1.0), sample=lattice(model, 2))
        assert sequence_norm(np.zeros(16), sspec) == 0.0

    def test_single_unit_coefficient(self, setup):
        model, rep, g, ks = setup
        lam = lattice(model, 2)
        sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=1.0), sample=lam)
        c = np.zeros(16)
        c[3] = 1.0
        # one translate of Q: mass mu(Q)
        assert sequence_norm(c, sspec) == pytest.approx(model.q_mass())

    def test_weighted_lp_identification(self, setup):
        # on a Q-separated lattice the sequence norm is the weighted l^p norm
        # of the samples, scaled by the Q-mass factor
        model, rep, g, ks = setup
        lam = lattice(model, 4)
        p = 0.5
        w = symmetrize_weight(model, 1.0 + np.arange(model.size) / 64.0, p)
        sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=p, weight=w), sample=lam)
        rng = np.random.default_rng(0)
        c = rng.random(len(lam))
        direct = sequence_norm(c, sspec)
        manual = 0.0
        for ci, lam_i in zip(c, lam.points):
            q_pts = model.mul_indices(np.full(9, lam_i), model.q_indices)
            manual += float((np.abs(ci) * w.values[q_pts]) ** p @ model.haar[q_pts])
        assert direct == pytest.approx(manual ** (1.0 / p))

    def test_length_mismatch(self, setup):
        model, rep, g, ks = setup
        sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=1.0), sample=lattice(model, 2))
        with pytest.raises(IncompatibleOperandsError):
            sequence_norm(np.zeros(5), sspec)

    def test_p_norm_property(self, setup):
        model, rep, g, ks = setup
        lam = lattice(model, 2)
        rng = np.random.default_rng(1)
        for p in (1.0 / 3.0, 0.5, 1.0):
            sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=p), sample=lam)
            for _ in range(20):
                a = rng.normal(size=16) + 1j * rng.normal(size=16)
                b = rng.normal(size=16) + 1j * rng.normal(size=16)
                lhs = sequence_norm(a + b, sspec) ** p
                rhs = sequence_norm(a, sspec) ** p + sequence_norm(b, sspec) ** p
                assert lhs <= rhs * (1 + 1e-10)

    def test_base_set_robustness(self, setup):
        # norms with Q and QQ differ by the measured translation factor,
        # uniformly over random sample sets: QQ = {-2..2}^2 is covered by four
        # right-translates of Q, and ||R_x|| = 1 on L^1 of the exact model
        model, rep, g, ks = setup
        q = model.q_indices
        qq = np.unique(model.mul_indices(q[:, None], q[None, :]).ravel())
        translates = [model.index_of(kl) for kl in ((-1, -1), (-1, 2), (2, -1), (2, 2))]
        covered = np.unique(np.concatenate(
            [model.mul_indices(q, np.full(len(q), t)) for t in translates]))
        assert np.all(np.isin(qq, covered))
        measured_factor = sum(
            max(np.ones(model.size)) for _ in translates)  # ||R_x||_{L^1} = 1 each
        rng = np.random.default_rng(2)
        ratios = []
        for trial in range(20):
            pts = np.sort(rng.choice(model.size, size=10, replace=False))
            lam = SampleSet(model=model, points=pts)
            sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=1.0), sample=lam)
            c = rng.random(10)
            spread_qq = brute_sequence_accumulator(model, pts, c, qq)
            ratios.append(amalgam_norm(GridFunction(model, spread_qq), QuasiNormSpec(p=1.0))
                          / sequence_norm(c, sspec))
        assert max(ratios) <= measured_factor + 1e-9
        assert min(ratios) >= 1.0 - 1e-9  # Q subset of QQ

    def test_zero_padding_monotone(self, setup):
        model, rep, g, ks = setup
        lam_small = lattice(model, 4)
        lam_big = lattice(model, 2)
        positions = {int(p): i for i, p in enumerate(lam_big.points)}
        rng = np.random.default_rng(3)
        c_small = rng.random(len(lam_small))
        c_big = np.zeros(len(lam_big))
        for ci, pt in zip(c_small, lam_small.points):
            c_big[positions[int(pt)]] = ci
        for p in (0.5, 1.0):
            ns = sequence_norm(c_small, SequenceSpaceSpec(QuasiNormSpec(p=p), lam_small))
            nb = sequence_norm(c_big, SequenceSpaceSpec(QuasiNormSpec(p=p), lam_big))
            assert nb >= ns - 1e-12


class TestCoorbitNorm:
    def test_zero(self, setup):
        model, rep, g, ks = setup
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=2.0))
        assert coorbit_norm(ctx, np.zeros(8)) == 0.0

    def test_l2_equivalence_interval(self, setup):
        model, rep, g, ks = setup
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=2.0))
        ratios = []
        for f in rand_vectors(8, 100, 4):
            ratios.append(coorbit_norm(ctx, f) / np.linalg.norm(f))
        ratios = np.array(ratios)
        # M^L V_g f dominates |V_g f| and ||V_g f||_2 = ||f||; Q has 9 points
        assert ratios.min() >= 1.0 - 1e-10
        assert ratios.max() <= 3.0 + 1e-10  # sqrt(|Q|) is a crude upper bound

    def test_pi_invariance_weighted(self, setup):
        model, rep, g, ks = setup
        p = 1.0
        w = symmetrize_weight(model, 1.0 + np.arange(model.size) / 32.0, p)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
        f = rand_vectors(8, 1, 5)[0]
        base = coorbit_norm(ctx, f)
        for x in range(model.size):
            shifted = coorbit_norm(ctx, rep.apply(x, f))
            assert shifted <= w.values[x] * base * (1 + 1e-10)


class TestContextOwnsTheOrbit:
    def test_non_admissible_window_rejected(self, setup):
        model, rep, g, ks = setup
        with pytest.raises(InvalidParameterError, match="not admissible"):
            CoorbitContext.build(rep, 3.0 * g, QuasiNormSpec(p=1.0))

    def test_norms_form_no_orbit(self, setup, monkeypatch):
        model, rep, g, ks = setup
        calls = []
        orbit = Representation.orbit
        monkeypatch.setattr(Representation, "orbit",
                            lambda self, vec: calls.append(vec) or orbit(self, vec))
        KernelSystem.build(rep, g)
        assert len(calls) == 1
        calls.clear()
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        one_build = len(calls)
        for f in rand_vectors(8, 10, 11):
            coorbit_norm(ctx, f)
        wiener_vs_plain_ratio(ctx, rand_vectors(8, 3, 12))
        assert one_build == 1 and len(calls) == one_build


class TestWindowIndependence:
    def test_same_window(self, setup):
        model, rep, g, ks = setup
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        result = window_independence_ratio(ctx, g, rand_vectors(8, 10, 6))
        assert result["min_ratio"] == pytest.approx(1.0)
        assert result["max_ratio"] == pytest.approx(1.0)

    def test_shifted_window_bounded_by_weight(self, setup):
        model, rep, g, ks = setup
        p = 1.0
        w = symmetrize_weight(model, np.ones(model.size), p)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
        x0 = 9
        shifted = rep.apply(x0, g)
        result = window_independence_ratio(ctx, shifted, rand_vectors(8, 20, 7))
        # with w == 1 the translate gives an equal norm family up to w(x0) = 1
        assert result["max_ratio"] <= 1.0 + 1e-9
        assert result["min_ratio"] >= 1.0 - 1e-9

    def test_gaussian_vs_boxcar_finite_spread(self, setup):
        model, rep, g, ks = setup
        p = 0.5
        w = symmetrize_weight(model, np.ones(model.size), p)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
        result = window_independence_ratio(ctx, boxcar_window(model),
                                           rand_vectors(8, 30, 8))
        assert np.isfinite(result["spread"])
        assert result["spread"] >= 1.0


class TestOperators:
    def test_zero_inputs(self, setup):
        model, rep, g, ks = setup
        lam = lattice(model, 2)
        fs = build_almost_tight_frame(ks, lam, block(model, 2))
        duals = dual_frame(fs)
        assert np.all(duals.conj() @ np.zeros(8) == 0)  # C f = (<f, h_i>)_i
        assert np.all(np.zeros(16) @ duals == 0)  # D c = sum_i c_i h_i

    def test_dual_frame_reconstruction_identity(self, setup):
        model, rep, g, ks = setup
        lam = lattice(model, 2)
        fs = build_almost_tight_frame(ks, lam, block(model, 2))
        duals = dual_frame(fs)
        cert = fs.certificates["dual"]
        assert np.isfinite(cert.amalgam_value) and cert.max_violation <= 1e-8
        for f in np.eye(8):
            c = fs.atoms.conj() @ (f + 0j)
            back = c @ duals
            assert np.abs(back - f).max() <= 1e-9

    def test_measured_below_calibrated_bound_five_lattices(self, setup):
        model, rep, g, ks = setup
        p = 1.0
        w = unit_weight(model, p)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
        cal = calibrate_constants(ctx, lattice(model, 2))
        f_samples = rand_vectors(8, 10, 9)
        samples = [
            lattice(model, 2),
            lattice(model, 4),
            SampleSet(model=model, points=np.arange(0, 64, 3)),
            SampleSet(model=model, points=np.arange(64)),
            SampleSet(model=model, points=np.sort(
                np.random.default_rng(10).choice(64, size=24, replace=False))),
        ]
        for lam in samples:
            atoms = rep.orbit(g)[lam.points]
            cert = fit_envelope(ks, atoms, lam, p, w)
            report = coefficient_bound_report(ctx, atoms, cert, lam, f_samples, cal)
            assert report["pass"], report


class TestEmbedding:
    def _frame(self, setup):
        model, rep, g, ks = setup
        lam = lattice(model, 2)
        fs = build_almost_tight_frame(ks, lam, block(model, 2))
        duals = dual_frame(fs)
        return model, rep, g, lam, fs.atoms, duals

    def test_equal_spaces_constant_one(self, setup):
        model, rep, g, lam, atoms, duals = self._frame(setup)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        result = embedding_check(ctx, ctx, lam, atoms, duals)
        assert result["pass"]
        assert result["measured"] == pytest.approx(1.0, abs=1e-9)

    def test_half_to_one_factorization(self, setup):
        model, rep, g, lam, atoms, duals = self._frame(setup)
        p = 0.5
        w = symmetrize_weight(model, np.ones(model.size), p)
        ctx_y = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
        ctx_z = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0, weight=w), w, p)
        result = embedding_check(ctx_y, ctx_z, lam, atoms, duals)
        assert result["pass"]

    def test_reverse_direction_reported(self, setup):
        model, rep, g, lam, atoms, duals = self._frame(setup)
        ctx_y = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        ctx_z = CoorbitContext.build(rep, g, QuasiNormSpec(p=0.5))
        result = embedding_check(ctx_y, ctx_z, lam, atoms, duals)
        # L^1 -> L^{1/2} has no uniform embedding; the factorized bound still
        # dominates the measured constant on the sampled vectors
        assert result["pass"]
        assert result["sequence_embedding_constant"] > 1.0


class TestExtendOperator:
    def _context(self, setup):
        model, rep, g, ks = setup
        lam = lattice(model, 2)
        fs = build_almost_tight_frame(ks, lam, block(model, 2))
        duals = dual_frame(fs)
        p = 1.0
        w = unit_weight(model, p)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
        cal = calibrate_constants(ctx, lam)
        return model, rep, g, lam, duals, ctx, cal

    def test_identity_operator(self, setup):
        model, rep, g, lam, duals, ctx, cal = self._context(setup)
        result = extend_operator_check(ctx, np.eye(8), lam, duals, cal)
        assert result["pass"], result

    def test_shift_operator(self, setup):
        model, rep, g, lam, duals, ctx, cal = self._context(setup)
        result = extend_operator_check(ctx, rep.action(11), lam, duals, cal)
        assert result["pass"], result

    def test_convolution_type_operator(self, setup):
        model, rep, g, lam, duals, ctx, cal = self._context(setup)
        rng = np.random.default_rng(12)
        coeff = rng.normal(size=model.size) * np.exp(-np.arange(model.size) / 8.0)
        t = np.einsum("n,nij->ij", coeff * model.haar, rep.matrices)
        result = extend_operator_check(ctx, t, lam, duals, cal)
        assert result["pass"], result


class TestForeignSample:
    """A sample of another model is refused, not read as indices into this orbit."""

    def test_extend_operator_check(self, setup):
        model, rep, g, ks = setup
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        lam = lattice(build_cyclic_phase_space(4), 2)  # its indices lie inside Z_8 x Z_8
        cal = Calibration(coefficient_c=1.0, reconstruction_c=1.0, battery=[])
        with pytest.raises(IncompatibleOperandsError, match="different model"):
            extend_operator_check(ctx, np.eye(8), lam, np.zeros((len(lam), 8)), cal)

    def test_calibration_user_sample(self, setup, monkeypatch):
        model, rep, g, ks = setup
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        measured = []
        monkeypatch.setattr(coorbit, "fit_envelope", lambda *args: measured.append(1))
        with pytest.raises(IncompatibleOperandsError, match="different model"):
            calibrate_constants(ctx, lattice(build_cyclic_phase_space(4), 2))
        assert measured == []  # refused before the battery is measured


class TestWienerVsPlain:
    def test_no_positive_denominator_rejected(self, setup):
        model, rep, g, ks = setup
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        with pytest.raises(InvalidParameterError, match="positive denominator"):
            wiener_vs_plain_ratio(ctx, [np.zeros(8)])
        with pytest.raises(InvalidParameterError, match="positive denominator"):
            window_independence_ratio(ctx, boxcar_window(model), [np.zeros(8)])

    def test_window_itself(self, setup):
        model, rep, g, ks = setup
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        result = wiener_vs_plain_ratio(ctx, [g])
        assert result["min"] == result["max"]
        assert result["min"] >= 1.0

    def test_banach_case_bounded_by_young(self, setup):
        # for Y = L^1_w the self-improvement constant is exactly Young's bound
        model, rep, g, ks = setup
        p = 1.0
        w = symmetrize_weight(model, np.ones(model.size), p)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
        vgg = voice_transform(rep, g, g)
        young = amalgam_norm(vgg, QuasiNormSpec(p=1.0, weight=w, flavor="left"))
        result = wiener_vs_plain_ratio(ctx, rand_vectors(8, 100, 13))
        assert result["max"] <= young * (1 + 1e-9)

    def test_quasi_banach_finite_spread(self, setup):
        model, rep, g, ks = setup
        p = 0.5
        w = symmetrize_weight(model, np.ones(model.size), p)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
        result = wiener_vs_plain_ratio(ctx, rand_vectors(8, 100, 14))
        assert np.isfinite(result["max"])
        assert result["min"] >= 1.0 - 1e-12


class TestMeasuredNorms:
    def test_coefficient_norm_positive(self, setup):
        model, rep, g, ks = setup
        lam = lattice(model, 2)
        atoms = rep.orbit(g)[lam.points]
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        val = measured_coefficient_norm(ctx, atoms, lam, rand_vectors(8, 5, 15))
        assert val > 0

    def test_reconstruction_norm_positive(self, setup):
        model, rep, g, ks = setup
        lam = lattice(model, 2)
        atoms = rep.orbit(g)[lam.points]
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        rng = np.random.default_rng(16)
        cs = [rng.normal(size=16) for _ in range(5)]
        val = measured_reconstruction_norm(ctx, atoms, lam, cs)
        assert val > 0


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), with u = 2^-53 the unit roundoff of float64."""
    ku = k * 2.0 ** -53
    return ku / (1 - ku)


def _voice_error(ks, stack) -> np.ndarray:
    """A bound e(x) >= |fl(V_g f(x)) - V_g f(x)| for each row f, whatever product forms it.

    V_g f(x) = sum_j f_j conj(h_j), h = pi(x) g, has real and imaginary parts that are
    each a sum of 2d real products, such as Re = sum_j (Re f_j Re h_j + Im f_j Im h_j),
    and Cauchy-Schwarz bounds the 2d moduli of either part by sum_j |f_j| |h_j|.  In any
    order, with each product rounded or fused into the next addition, a term meets at
    most 2d roundings, so each part is within gamma_(2d) sum_j |f_j| |h_j| of its exact
    value (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3,
    (3.4) and Lemma 3.3): e(x) = sqrt(2) gamma_(2d) (|f| . |h|).  That holds for a lone
    matrix-vector product and for a row of a stacked matrix product alike.  Computing
    e adds two moduli (one ulp each, so gamma_2 each), d nonnegative products summed
    (gamma_d) and the scale (gamma_2): dividing by 1 - gamma_(d+6) makes the computed
    value an upper bound.
    """
    d = ks.rep.dim
    dot = np.abs(stack) @ np.abs(ks.orbit).T
    return np.sqrt(2) * _gamma(2 * d) * dot / (1 - _gamma(d + 6))


class TestStacks:
    """A stack of vectors or sequences gets the norms its rows get one at a time: bit for
    bit where the norm reads the rows as they are, and within the rounding of V_g f where
    the stack's voices are one matrix product."""

    def test_voices_stack_matches_rows(self, setup):
        """Each row of ``voices`` on a stack is within 2 e(x) of the lone products
        ``voices(f)`` and ``orbit.conj() @ f``: both are within e(x) of V_g f(x)."""
        model, rep, g, ks = setup
        stack = np.array(rand_vectors(8, 12, 21))
        got = ks.voices(stack)
        allowance = 2 * _voice_error(ks, stack)
        for f, row, bound in zip(stack, got, allowance):
            for lone in (ks.voices(f), ks.orbit.conj() @ f):
                assert np.all(np.abs(row - lone) <= bound)

    @pytest.mark.parametrize("p", [1.0 / 3.0, 0.5, 1.0, 2.0, np.inf])
    def test_coorbit_norm_stack_matches_rows(self, setup, p):
        """The stack's norms N' and the rows' own calls N agree within the voices' rounding.

        Let r = min(1, p) and N(m) = ||M^L m||_{L^p_w}, the exact norm of moduli m.
        - |.|: the stacked and the lone V_g f(x) are each within e(x) of the exact
          value (``_voice_error``), so their moduli differ by at most 2 e(x).
        - M^L: a max over Q moves by at most the largest move, so the two maximal
          functions differ by at most M^L(2 e); N is monotone.
        - The weighted sum: N^r is subadditive (Minkowski for p >= 1, the p-triangle
          inequality for p < 1), so the exact norms' r-th powers differ by at most
          D^r, D = N(2 e).
        - Rounding: the code forms N from the computed moduli with per-entry relative
          errors that N, monotone and homogeneous, keeps relative: the modulus (2),
          the weight (1), the power (2), the Haar mass (1), the n-term sum (n - 1) and
          the root (2), then the test's r-th power (2): gamma_(n+9).  Its exponent
          fl(r) is off r by at most u r, which moves x^r by at most u r |ln x|
          relative, L the largest |ln x| of the three quantities.  So each computed
          r-th power, and D^r formed from the bound e, is within
          kappa = gamma_(n+9) + u r L (first order in u) of its exact value, and
          |N'^r - N^r| <= (1 + kappa) D^r + kappa (N'^r + N^r) / (1 - kappa).
        For p < 1 that is of order D^p, far above D: a sound bound, not an estimate.
        """
        model, rep, g, ks = setup
        r = min(p, 1.0)
        w = symmetrize_weight(model, 1.0 + np.arange(model.size) / 32.0, r)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, r)
        stack = np.array(rand_vectors(8, 12, 21))
        rows = np.array([coorbit_norm(ctx, f) for f in stack])
        got = coorbit_norm(ctx, stack)
        assert got.shape == (12,)
        assert isinstance(coorbit_norm(ctx, stack[0]), float)
        gap = magnitude_norm(model, 2 * _voice_error(ks, stack),
                             QuasiNormSpec(p=p, weight=w, flavor="left"))
        log_max = np.abs(np.log(np.concatenate([got, rows, gap]))).max()
        kappa = _gamma(model.size + 9) + 2.0 ** -53 * r * log_max
        assert np.all(np.abs(got ** r - rows ** r)
                      <= (1 + kappa) * gap ** r + kappa * (got ** r + rows ** r) / (1 - kappa))

    @pytest.mark.parametrize("p", [1.0 / 3.0, 0.5, 1.0, 2.0, np.inf])
    def test_sequence_norm_stack_matches_rows(self, setup, p):
        model, rep, g, ks = setup
        for lam in (lattice(model, 2), SampleSet(model=model, points=np.arange(0, 64, 3))):
            sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=p), sample=lam)
            stack = np.array(rand_vectors(len(lam), 9, 22))
            got = sequence_norm(stack, sspec)
            assert np.array_equal(got, [sequence_norm(c, sspec) for c in stack])
            assert np.array_equal(sequence_norm(stack.reshape(3, 3, -1), sspec), got.reshape(3, 3))

    def test_stack_errors(self, setup):
        model, rep, g, ks = setup
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
        stack = np.array(rand_vectors(8, 3, 23))
        with pytest.raises(IncompatibleOperandsError):
            coorbit_norm(ctx, stack[:, :7])
        bad = stack.copy()
        bad[1, 2] = np.nan
        with pytest.raises(InvalidParameterError, match="finite"):
            coorbit_norm(ctx, bad)
        sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=1.0), sample=lattice(model, 2))
        with pytest.raises(IncompatibleOperandsError):
            sequence_norm(np.ones((3, 15)), sspec)
        with pytest.raises(IncompatibleOperandsError):
            sequence_norm(np.float64(1.0), sspec)
        zeros = np.zeros((2, 8))
        with pytest.raises(InvalidParameterError, match="positive denominator"):
            window_independence_ratio(ctx, boxcar_window(model), zeros)
        with pytest.raises(InvalidParameterError, match="positive denominator"):
            measured_coefficient_norm(ctx, ks.orbit[lattice(model, 2).points],
                                      lattice(model, 2), zeros)
        with pytest.raises(InvalidParameterError, match="positive denominator"):
            wiener_vs_plain_ratio(ctx, [])
        lam = lattice(model, 2)
        atoms = ks.orbit[lam.points]
        for short in (stack[:, :7], [stack[0], stack[1, :7]]):
            with pytest.raises(IncompatibleOperandsError):
                measured_coefficient_norm(ctx, atoms, lam, short)
        seqs = np.array(rand_vectors(len(lam), 3, 24))
        for short in (seqs[:, :-1], [seqs[0], seqs[1, :-1]]):
            with pytest.raises(IncompatibleOperandsError):
                measured_reconstruction_norm(ctx, atoms, lam, short)

    def test_ratio_sups_match_row_loops(self, setup):
        model, rep, g, ks = setup
        p = 0.5
        w = symmetrize_weight(model, np.ones(model.size), p)
        ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=p, weight=w), w, p)
        lam = lattice(model, 2)
        sspec = SequenceSpaceSpec(base=ctx.y_spec, sample=lam)
        atoms = ks.orbit[lam.points]
        fs = rand_vectors(8, 10, 24)
        cs = rand_vectors(len(lam), 10, 25)
        coefficient = max(sequence_norm(atoms.conj() @ f, sspec) / coorbit_norm(ctx, f)
                          for f in fs)
        reconstruction = max(coorbit_norm(ctx, c @ atoms) / sequence_norm(c, sspec) for c in cs)
        assert measured_coefficient_norm(ctx, atoms, lam, fs) == coefficient
        assert measured_reconstruction_norm(ctx, atoms, lam, cs) == reconstruction
        ratios = [coorbit_norm(ctx, f) for f in fs]
        alt = CoorbitContext.build(rep, boxcar_window(model), ctx.y_spec, w, p)
        ratios = [r / coorbit_norm(alt, f) for r, f in zip(ratios, fs)]
        result = window_independence_ratio(ctx, boxcar_window(model), fs)
        assert (result["min_ratio"], result["max_ratio"]) == (min(ratios), max(ratios))


def test_calibration_skips_a_dual_the_series_cannot_reach():
    # B/A = 6,449 for this sample: the relaxed series would need 115,144 terms
    model = build_cyclic_phase_space(4)
    rep = gabor_representation(model)
    g = gaussian_window(model)
    ks = KernelSystem.build(rep, g)
    lam = SampleSet(model=model, points=np.array([3, 6, 7, 8, 12]))
    with pytest.raises(NotContractiveError):
        dual_frame(build_almost_tight_frame(ks, lam, model.q_indices))
    ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
    cal = calibrate_constants(ctx, lam)
    assert [row["family"] for row in cal.battery if row["size"] == 5] == \
        ["atoms", "shifted", "conv0", "conv1"]
    assert np.isfinite(cal.coefficient_c) and np.isfinite(cal.reconstruction_c)


def test_calibration_of_an_empty_sample_adds_no_row(setup):
    # every family of an empty sample is empty: no certificate, no ratio
    model, rep, g, ks = setup
    ctx = CoorbitContext.build(rep, g, QuasiNormSpec(p=1.0))
    cal = calibrate_constants(ctx, SampleSet(model=model, points=np.array([], dtype=int)))
    assert cal == calibrate_constants(ctx)
