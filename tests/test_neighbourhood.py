"""Every Q/U-translate computation against the scalar per-pair oracles.

The affine model is chosen so that snapped products collide inside one
translate lambda U (its scales a < 1 shrink x-steps below the grid step),
which is where deduplication and the absent-product convention matter.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from _oracles import (
    blocked_convolve,
    brute_cover_owners,
    brute_is_dense,
    brute_is_separated,
    brute_max_separated_subset,
    brute_maximal,
    brute_rel_separation,
    brute_relative_max,
    brute_sequence_accumulator,
    brute_translate_sets,
    inv,
    local_max_loop,
    mul,
    sliding_window_max,
)
from coorbitkit import (
    GridFunction,
    QuasiNormSpec,
    SampleSet,
    SequenceSpaceSpec,
    amalgam_norm,
    build_affine_grid,
    build_cover,
    build_cyclic_phase_space,
    build_real_line,
    maximal_left,
    maximal_right,
    measure_QxQ,
    rel_separation,
    sequence_norm,
)
from coorbitkit import groups
from coorbitkit.errors import CoverageWarning, InvalidParameterError, NotDenseError
from coorbitkit.groups import ABSENT, AffineGridModel, CyclicPhaseSpace, GroupModel, \
    RealLineModel, _window_max, first_products, padded

MODELS = {
    "line": lambda: build_real_line(4.0, 0.25),
    "affine": lambda: build_affine_grid(2.0, 0.25, 0.3, 3.0, 1.5),
    "cyclic5": lambda: build_cyclic_phase_space(5),
    "cyclic8": lambda: build_cyclic_phase_space(8),
}


@pytest.fixture(params=list(MODELS), scope="module")
def model(request):
    return MODELS[request.param]()


def samples(model):
    rng = np.random.default_rng(4)
    n = model.size
    return [np.arange(n), np.arange(0, n, 3), rng.permutation(n)[: n // 4]]


def neighbourhoods(model):
    """Q and the identity alone, the sets U a cover is built from."""
    return [model.q_indices, np.array([model.identity])]


def test_affine_model_has_colliding_products():
    m = MODELS["affine"]()
    rows = (m.mul_indices(lam, m.q_indices) for lam in range(m.size))
    assert any(len(np.unique(r[r >= 0])) < np.count_nonzero(r >= 0) for r in rows)


def test_translates_match_scalar_products(model):
    """translates is one (len(u), len(points)) int table whose row j holds points·u_j, an
    empty u or empty points included."""
    empty = np.array([], dtype=int)
    for points in [samples(model)[2], empty, []]:
        for u in [model.q_indices, [model.identity], empty, []]:
            table = model.translates(points, u)
            assert table.shape == (len(u), len(points))
            assert np.issubdtype(table.dtype, np.integer)
            for j, uj in enumerate(u):
                assert np.array_equal(table[j], [mul(model, int(x), int(uj)) for x in points])


# affine grids whose snapped products collide inside one translate lambda U: the
# colliding model above and the grid with exact rint ties
COLLIDING_AFFINE = ["affine", "affine_tie"]


@pytest.mark.parametrize("name", COLLIDING_AFFINE)
def test_first_products_keep_the_first_u_of_each_product(name):
    """Column i keeps each product lambda_i u_j at the first u_j in u order and leaves
    ABSENT where it was; what it keeps is the oracle's set lambda_i U."""
    model = LOCAL_MAX_MODELS[name]()
    rng = np.random.default_rng(5)
    points = rng.permutation(model.size)[: model.size // 2]
    u = rng.permutation(model.q_indices)  # not sorted, so u order is not index order
    table = model.translates(points, u)
    got = first_products(table)
    dropped = 0
    for i, cell in enumerate(brute_translate_sets(model, points, u)):
        col, seen = table[:, i], set()
        for j, t in enumerate(col.tolist()):
            if t == ABSENT or t in seen:
                assert got[j, i] == ABSENT
                dropped += t != ABSENT
            else:
                assert got[j, i] == t
            seen.add(t)
        assert set(got[:, i].tolist()) - {ABSENT} == cell
    assert dropped  # the grid has collisions, so the rule is exercised
    # reversed, u keeps the other end of each collision: the rule reads u order
    assert not np.array_equal(first_products(table[::-1])[::-1], got)


@pytest.mark.parametrize("name", COLLIDING_AFFINE)
def test_rel_separation_counts_each_product_once(name):
    """rel(Lambda) drops the repeats of each column sorted by value, not in u order: on
    the grids where two q_j give x one product, a sample point in xQ counts once."""
    model = LOCAL_MAX_MODELS[name]()
    rng = np.random.default_rng(6)
    table = model.translates(np.arange(model.size), model.q_indices)
    # the points of the translate xQ whose products repeat most
    repeats = [np.count_nonzero(col >= 0) - len(set(col.tolist()) - {ABSENT}) for col in table.T]
    col = table[:, int(np.argmax(repeats))]
    collided = np.unique(col[col >= 0])
    for points in (collided, np.arange(model.size), np.arange(0, model.size, 2),
                   np.sort(rng.permutation(model.size)[: model.size // 3])):
        assert rel_separation(SampleSet(model=model, points=points)) \
            == brute_rel_separation(model, points)
    # counted with its repeats, the collided sample would read more
    in_sample = np.zeros(model.size + 1, dtype=bool)
    in_sample[collided] = True
    assert in_sample[table].sum(axis=0).max() > brute_rel_separation(model, collided)


def test_maximal_functions(model):
    rng = np.random.default_rng(1)
    f = GridFunction(model, rng.normal(size=model.size) + 1j * rng.normal(size=model.size))
    assert np.array_equal(maximal_left(f).values.real, brute_maximal(model, f.values, "left"))
    assert np.array_equal(maximal_right(f).values.real,
                          brute_maximal(model, f.values, "right"))


# local_max overrides against the generic loop, _oracles.local_max_loop: at cyclic N <= 2
# the offsets -1, 0, 1 fold onto each other, the small line's Q window is clipped at both
# carrier ends, the step-0.01 line and the step-0.05 affine grid are the in-group
# diagnostic's, the next two are the counterexample's partial-norm grids, the tie grid
# has exact rint ties on both sides and the demo grid's a = 1.05 row a left near-tie:
# 1.05 i rounds to 10.5 at i = 10, which rint takes to 10 along the whole row
LOCAL_MAX_MODELS = {
    **MODELS,
    **{f"cyclic{n}": (lambda n=n: build_cyclic_phase_space(n)) for n in (1, 2, 3)},
    "line_clipped": lambda: build_real_line(0.5, 0.25),
    "line_diagnostic": lambda: build_real_line(8.0, 0.01),
    "affine_in_group": lambda: build_affine_grid(8.0, 0.05, 1 / 128, 16.0, 1.04),
    "affine_partial": lambda: build_affine_grid(72.4, 0.25, 1 / 2.6, 166.4, 1.075),
    "affine_partial_fine": lambda: build_affine_grid(72.4, 0.125, 1 / 2.6, 166.4, 1.0375),
    "affine_tie": lambda: build_affine_grid(4.0, 0.5, 1 / 2.25, 2.25, 1.5),
    "affine_demo": lambda: build_affine_grid(4.0, 0.05, 1 / 16, 16.0, 1.05),
}


@pytest.mark.parametrize("name", list(LOCAL_MAX_MODELS))
def test_local_max_matches_base_loop(name):
    model = LOCAL_MAX_MODELS[name]()
    rng = np.random.default_rng(3)
    mag = rng.random(model.size)
    mag[rng.random(model.size) < 0.3] = 0.0
    for side in ("left", "right"):
        assert np.array_equal(model.local_max(mag, side),
                              local_max_loop(model, mag, side))


# widths 1 and 2, the powers of two up to 64 and their neighbours; from 41 on the
# window is wider than the 40-entry axis
WINDOW_WIDTHS = sorted({1, 2, *(2 ** k + d for k in range(1, 7) for d in (-1, 0, 1))})


@pytest.mark.parametrize("width", WINDOW_WIDTHS)
def test_window_max_matches_the_full_window_read(width):
    rng = np.random.default_rng(width)
    for lo in sorted({0, -(width // 2), 1 - width}):  # hi = 0 and lo = 0 among them
        hi = lo + width - 1
        for shape in [(40,), (5,), (3, 40), (2, 3, 40)]:
            values = rng.random(shape)
            values[rng.random(shape) < 0.3] = 0.0
            for v in (values, values > 0.5):
                got, want = _window_max(v, lo, hi), sliding_window_max(v, lo, hi)
                assert got.dtype == want.dtype and got.shape == shape
                assert np.array_equal(got, want)


def test_local_max_stack_matches_base_loop_by_row(model):
    rng = np.random.default_rng(7)
    stack = rng.random((3, model.size))
    stack[rng.random(stack.shape) < 0.3] = 0.0
    for side in ("left", "right"):
        got = model.local_max(stack, side)
        assert got.shape == stack.shape and got.flags.c_contiguous
        for row, mag in zip(got, stack):
            assert np.array_equal(row, local_max_loop(model, mag, side))
        assert np.array_equal(local_max_loop(model, stack, side), got)
        assert np.array_equal(model.local_max(stack.reshape(3, 1, -1), side), got[:, None])


# on the tie grid, h = 0.5, the a = 1.5 row shifts by a i = 1.5 exactly at q_x = i h =
# 0.5, and by -1.5 at q_x = -0.5: rint ties, which round the increment to even, so the
# row moves by one shift, ±2, like every other row
def test_affine_left_local_max_at_rint_ties():
    model = LOCAL_MAX_MODELS["affine_tie"]()
    row = np.arange(model.n_x) * model.n_a + model.index_of((0.0, 1.5)) % model.n_a
    for q_x, shift in ((0.5, 2), (-0.5, -2)):
        prod = model.mul_indices(row, model.index_of((q_x, 1.0)))
        on = prod >= 0
        assert set(prod[on] // model.n_a - np.arange(model.n_x)[on]) == {shift}
    rng = np.random.default_rng(11)
    stack = rng.random((3, model.size))
    stack[rng.random(stack.shape) < 0.3] = 0.0
    assert np.array_equal(model.local_max(stack[0]), local_max_loop(model, stack[0]))
    for row, mag in zip(model.local_max(stack), stack):
        assert np.array_equal(row, local_max_loop(model, mag))


def test_affine_left_local_max_peak_memory():
    model = LOCAL_MAX_MODELS["affine_partial_fine"]()
    mag = np.random.default_rng(5).random(model.size)
    tracemalloc.start()
    try:
        model.local_max(mag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 3.0 carrier-sized float vectors; one snapped gather per q_x took 6.1
    assert peak < 5 * 8 * model.size, f"traced peak {peak / (8 * model.size):.2f} vectors"


# on the tie grid q_a (j - k) = 1.5 (j - k) is a half-integer for every odd j - k at
# q_a = 1.5: rint ties, whose rounded increment is one centre for every q_x
def test_affine_right_local_max_at_rint_ties():
    model = LOCAL_MAX_MODELS["affine_tie"]()
    x = np.arange(model.n_x) * model.n_a + model.identity % model.n_a
    at_0 = model.mul_indices(model.index_of((0.0, 1.5)), x)
    at_h = model.mul_indices(model.index_of((0.5, 1.5)), x)
    on = (at_0 >= 0) & (at_h >= 0)
    odd = (np.arange(model.n_x) - model.n_x // 2) % 2 == 1
    assert np.any(on & odd) and set((at_h - at_0)[on] // model.n_a) == {1}
    rng = np.random.default_rng(11)
    stack = rng.random((3, model.size))
    stack[rng.random(stack.shape) < 0.3] = 0.0
    assert np.array_equal(model.local_max(stack[0], "right"),
                          local_max_loop(model, stack[0], "right"))
    for row, mag in zip(model.local_max(stack, "right"), stack):
        assert np.array_equal(row, local_max_loop(model, mag, "right"))


def test_affine_right_local_max_peak_memory():
    model = LOCAL_MAX_MODELS["affine_partial_fine"]()
    mag = np.random.default_rng(5).random(model.size)
    tracemalloc.start()
    try:
        model.local_max(mag, "right")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 3.4 carrier-sized float vectors: the x-window, the result rows and one gather
    assert peak < 4 * 8 * model.size, f"traced peak {peak / (8 * model.size):.2f} vectors"


@pytest.mark.parametrize("name", [*MODELS, "cyclic1", "cyclic2", "cyclic3"])
def test_q_spread_stack_matches_base_loop_by_row(name):
    model = LOCAL_MAX_MODELS[name]()
    rng = np.random.default_rng(8)
    for points in [*samples(model), np.array([], dtype=int)]:
        stack = np.abs(rng.normal(size=(3, len(points))))
        # an inf and a nan reach the same entries in the same order in both paths
        special = stack.copy()
        special[1, :len(points) // 2] = np.inf
        special[2, len(points) // 3:] = np.nan
        for mags_stack in (stack, special):
            got = model.q_spread(mags_stack, points)
            # each row contiguous, so a norm's row sums add in the 1-D order
            assert got.shape == (3, model.size) and got.strides[-1] == got.itemsize
            for row, mags in zip(got, mags_stack):
                assert np.array_equal(row, GroupModel.q_spread(model, mags, points),
                                      equal_nan=True)
            assert np.array_equal(GroupModel.q_spread(model, mags_stack, points), got,
                                  equal_nan=True)


def test_q_spread_adds_every_occurrence_of_a_repeated_point(model):
    # a repeated point's occurrences are added before the Q-sum, so only the last bits move
    rng = np.random.default_rng(12)
    draws = rng.integers(0, model.size, 2 * model.size)
    for points, rtol in ((np.array([3, 3, 5]), 1e-15), (draws, 1e-14)):
        stack = np.abs(rng.normal(size=(2, len(points))))
        got = model.q_spread(stack, points)
        assert np.allclose(got, GroupModel.q_spread(model, stack, points), rtol=rtol, atol=0)
    # the two occurrences of 3 count twice: the multiplicity of 3 Q
    mult = model.q_spread(np.ones(3), np.array([3, 3, 5]))
    assert np.array_equal(mult, 2 * model.q_spread(np.ones(1), np.array([3]))
                          + model.q_spread(np.ones(1), np.array([5])))


def test_line_clipped_window_covers_carrier():
    model = LOCAL_MAX_MODELS["line_clipped"]()
    assert np.array_equal(model.q_indices, np.arange(model.size))


def test_unknown_side_rejected(model):
    for local_max in (model.local_max, lambda v, side: local_max_loop(model, v, side)):
        with pytest.raises(InvalidParameterError):
            local_max(np.ones(model.size), "up")


def test_sequence_norm_accumulator(model):
    rng = np.random.default_rng(2)
    base = QuasiNormSpec(p=0.5)
    for points in samples(model):
        sample = SampleSet(model=model, points=points)
        c = rng.normal(size=len(points)) + 1j * rng.normal(size=len(points))
        acc = brute_sequence_accumulator(model, points, c, model.q_indices)
        expected = amalgam_norm(GridFunction(model, acc), base)
        assert np.array_equal(sequence_norm(c, SequenceSpaceSpec(base=base, sample=sample)),
                              expected)


def q_and_qq(model):
    """Q and the on-grid part of Q·Q."""
    q = model.q_indices
    qq = np.unique(model.mul_indices(q[:, None], q[None, :]))
    return [q, qq[qq >= 0]]


def test_q_spread_matches_base_loop(model):
    rng = np.random.default_rng(6)
    for points in [*samples(model), carrier_edges(model), np.array([], dtype=int)]:
        mags = np.abs(rng.normal(size=len(points)) + 1j * rng.normal(size=len(points)))
        got = model.q_spread(mags, points)
        assert np.array_equal(got, GroupModel.q_spread(model, mags, points))
        assert np.array_equal(got, brute_sequence_accumulator(model, points, mags,
                                                              model.q_indices))


def test_q_spread_of_ones_is_the_translate_multiplicity(model):
    # 1_{lambda_i U} is an indicator: on the affine grid with every point sampled,
    # counting each snapped product lambda_i u once per u overcounted 68 of 119 points
    for points in [*samples(model), np.arange(model.size)]:
        mult = np.zeros(model.size)
        for cell in brute_translate_sets(model, points, model.q_indices):
            mult[list(cell)] += 1
        assert np.array_equal(model.q_spread(np.ones(len(points)), points), mult)


def test_q_spread_samples_have_absent_products(model):
    # the line and affine samples push mass off the grid, which q_spread must drop
    absent = [np.any(t < 0) for u in q_and_qq(model)
              for t in model.translates(samples(model)[0], u)]
    assert any(absent) == (not isinstance(model, CyclicPhaseSpace))


def test_density_separation_and_rel(model):
    # a Q-separated sample among them; Q-dense is a multiplicity >= 1 everywhere,
    # Q-separated one <= 1
    separated = np.array(brute_max_separated_subset(model, model.q_indices))
    for points in [*samples(model), separated]:
        mult = model.q_spread(np.ones(len(points)), points)
        assert bool(mult.all()) == brute_is_dense(model, points, model.q_indices)
        assert bool(mult.max() <= 1) == brute_is_separated(model, points, model.q_indices)
        assert rel_separation(SampleSet(model=model, points=points)) \
            == brute_rel_separation(model, points)


def test_cover_owners(model):
    for points in samples(model):
        sample = SampleSet(model=model, points=points)
        for u in neighbourhoods(model):
            owner = brute_cover_owners(model, points, u)
            if (owner == -1).any():
                with pytest.raises(NotDenseError) as err:
                    build_cover(sample, u)
                assert err.value.uncovered_index == int(np.nonzero(owner == -1)[0][0])
                continue
            assert np.array_equal(build_cover(sample, u), owner)


def edge_points(model):
    """One point next to each edge of the carrier: the affine grid's x- and scale-edges.

    The affine points next to an x-edge sit at a large scale, where the x-steps
    of p·q exceed the grid step, so some products skip the edge cell and leave.
    """
    if not isinstance(model, AffineGridModel):
        return [1, model.size - 2]
    mid_x, top = model.n_x // 2, model.n_a - 2
    return [jx * model.n_a + ma for jx, ma in
            [(1, top), (model.n_x - 2, top), (mid_x, 1), (mid_x, top)]]


def carrier_edges(model):
    """Every point on the edge of the carrier, where products leave the grid."""
    if not isinstance(model, AffineGridModel):
        return np.array([0, model.size - 1])
    jx, ma = np.divmod(np.arange(model.size), model.n_a)
    return np.nonzero((jx == 0) | (jx == model.n_x - 1) | (ma == 0) | (ma == model.n_a - 1))[0]


# Q_a = (1/2, 2) is symmetric in the scale exponent unless a_min or a_max clips it,
# as the last grid's a_min = 0.75 does, so only it tells a push from a pull
Q_NEIGHBOURHOOD_MODELS = {
    **MODELS,
    "line_diagnostic": LOCAL_MAX_MODELS["line_diagnostic"],
    "affine_clipped": lambda: build_affine_grid(2.0, 0.25, 0.75, 3.0, 1.2),
}


@pytest.mark.parametrize("name", list(Q_NEIGHBOURHOOD_MODELS))
def test_q_neighbourhood_matches_base_loop(name):
    model = Q_NEIGHBOURHOOD_MODELS[name]()
    for points in [*samples(model), carrier_edges(model), np.array(edge_points(model)),
                   np.array([], dtype=int)]:
        got = model.q_neighbourhood(points)
        assert np.array_equal(got, GroupModel.q_neighbourhood(model, points))
        assert np.array_equal(got, np.unique(got))


IN_GROUP_GRID = LOCAL_MAX_MODELS["affine_in_group"]
# the diagnostic's five points (0, a) at a near 1, 1/2, 1/4, 1/8 and 1/16
IN_GROUP_SCALES = [1.0, 0.5, 0.25, 0.125, 0.0625]


def in_group_points(model):
    return [model.index_of((0.0, model.a_coords[np.argmin(np.abs(model.a_coords - s))]))
            for s in IN_GROUP_SCALES]


def test_measure_qxq_diagnostic_grid_matches_base_path(monkeypatch):
    model = IN_GROUP_GRID()
    points = in_group_points(model)
    for x in points:
        qx = model.mul_indices(model.q_indices, x)
        assert np.array_equal(model.q_neighbourhood(qx[qx >= 0]),
                              GroupModel.q_neighbourhood(model, qx[qx >= 0]))
    fast = [measure_QxQ(model, x) for x in points]
    monkeypatch.setattr(AffineGridModel, "q_neighbourhood", GroupModel.q_neighbourhood)
    assert fast == [measure_QxQ(model, x) for x in points]


def test_measure_qxq_takes_the_affine_fast_path(monkeypatch):
    # the base loop makes 1 + |Q| = 1,366 mul_indices calls per point on this grid
    model = IN_GROUP_GRID()
    calls = []
    mul_indices = AffineGridModel.mul_indices

    def counted(self, i, j):
        calls.append(1)
        return mul_indices(self, i, j)

    monkeypatch.setattr(AffineGridModel, "mul_indices", counted)
    for x in in_group_points(model):
        calls.clear()
        measure_QxQ(model, x)
        assert len(calls) <= 2


DIAGNOSTIC_LINE = LOCAL_MAX_MODELS["line_diagnostic"]
DIAGNOSTIC_LINE_COORDS = (-3.0, -1.0, 0.0, 1.0, 3.0)


def test_line_q_neighbourhood_on_the_diagnostic_line(monkeypatch):
    model = DIAGNOSTIC_LINE()
    assert len(model.q_indices) == 199
    points = [model.index_of(v) for v in DIAGNOSTIC_LINE_COORDS]
    # Q·x at the five points and at points whose Q·x or (Q·x)·Q leaves the carrier;
    # the carrier edges and random samples are in test_q_neighbourhood_matches_base_loop
    ends = [0, 1, 150, model.size - 151, model.size - 2, model.size - 1]
    sets = [np.array(points)]
    for x in points + ends:
        qx = model.mul_indices(model.q_indices, x)
        sets.append(qx[qx >= 0])
    for pts in sets:
        assert np.array_equal(model.q_neighbourhood(pts), GroupModel.q_neighbourhood(model, pts))
    fast = [measure_QxQ(model, x) for x in points + ends]
    monkeypatch.setattr(RealLineModel, "q_neighbourhood", GroupModel.q_neighbourhood)
    assert fast == [measure_QxQ(model, x) for x in points + ends]


def test_measure_qxq_takes_the_line_fast_path(monkeypatch):
    # the base loop makes 1 + |Q| = 200 mul_indices calls per point on this line
    model = DIAGNOSTIC_LINE()
    calls = []
    mul_indices = RealLineModel.mul_indices

    def counted(self, i, j):
        calls.append(1)
        return mul_indices(self, i, j)

    monkeypatch.setattr(RealLineModel, "mul_indices", counted)
    for v in DIAGNOSTIC_LINE_COORDS:
        calls.clear()
        measure_QxQ(model, model.index_of(v))
        assert len(calls) == 1


def test_measure_qxq(model):
    for x in (0, model.identity, model.size - 1, *edge_points(model)):
        explicit = set()
        for q1 in model.q_indices:
            left = mul(model, int(q1), x)
            if left < 0:
                continue
            for q2 in model.q_indices:
                t = mul(model, left, int(q2))
                if t >= 0:
                    explicit.add(t)
        expected = model.haar[sorted(explicit)].sum()
        assert np.array_equal(measure_QxQ(model, x), expected)


# left translates, relative maxima and y^{-1} x: the Z_N x Z_N overrides against
# the base class, whose N <= 2 carriers fold the shifts onto each other
CYCLIC_SIDES = (1, 2, 3, 5, 8)


def test_left_translates_read_scalar_products(model):
    rng = np.random.default_rng(10)
    points = samples(model)[2]
    v = rng.normal(size=model.size)
    stack = rng.random((len(points), model.size))
    one, rows = model.left_translates(v, points), model.left_translates(stack, points)
    for i, p in enumerate(points):
        p_inv = inv(model, int(p))
        z = [mul(model, p_inv, x) if p_inv >= 0 else -1 for x in range(model.size)]
        assert np.array_equal(one[i], padded(v)[z])
        assert np.array_equal(rows[i], padded(stack[i])[z])


@pytest.mark.parametrize("n_side", CYCLIC_SIDES)
def test_cyclic_left_translates_match_base(n_side):
    model = build_cyclic_phase_space(n_side)
    rng = np.random.default_rng(11)
    for points in (np.arange(model.size), rng.permutation(model.size)[:(model.size + 1) // 2],
                   np.array([], dtype=int)):
        v = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
        for values in (v, rng.random((len(points), model.size))):
            got = model.left_translates(values, points)
            assert got.shape == (len(points), model.size)
            assert np.array_equal(got, GroupModel.left_translates(model, values, points))


@pytest.mark.parametrize("n_side", CYCLIC_SIDES)
def test_cyclic_div_indices_match_inv_and_mul(n_side):
    model = build_cyclic_phase_space(n_side)
    i, j = np.arange(model.size)[:, None], np.arange(model.size)[None, :]
    assert np.array_equal(model.div_indices(i, j), GroupModel.div_indices(model, i, j))
    last = model.size - 1  # a scalar x_i, as translate_left passes it
    assert np.array_equal(model.div_indices(last, j[0]), GroupModel.div_indices(model, last, j[0]))


def relative_max_cases(model, rng):
    """(mags, rows, cols) on random row and column subsets with zero entries, 1 x 1 and empty.

    Z_N x Z_N spreads the columns from half the carrier's rows on, and bins below.
    """
    n = model.size
    cases = []
    for rows, cols in [(np.arange(n), rng.permutation(n)[:max(1, n // 4)]),
                       (rng.permutation(n)[:(n + 1) // 2], rng.permutation(n)[:max(1, n // 3)]),
                       (rng.permutation(n)[:max(1, n // 3)], rng.permutation(n)[:max(1, n // 2)]),
                       (np.array([n - 1]), np.array([0])),
                       (np.arange(n), np.array([], dtype=int)),
                       (np.array([], dtype=int), np.arange(n))]:
        mags = rng.random((len(rows), len(cols)))
        mags[rng.random(mags.shape) < 0.3] = 0.0
        cases.append((mags, rows, cols))
    return cases


def test_relative_max_matches_scalar_bins(model):
    rng = np.random.default_rng(12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)  # line and affine positions leave the grid
        for mags, rows, cols in relative_max_cases(model, rng):
            assert np.array_equal(model.relative_max(mags, rows, cols),
                                  brute_relative_max(model, mags, rows, cols))


@pytest.mark.parametrize("n_side", CYCLIC_SIDES)
def test_cyclic_relative_max_matches_base(n_side):
    model = build_cyclic_phase_space(n_side)
    rng = np.random.default_rng(13)
    for mags, rows, cols in relative_max_cases(model, rng):
        assert np.array_equal(model.relative_max(mags, rows, cols),
                              GroupModel.relative_max(model, mags, rows, cols))


def test_relative_max_warns_of_an_uncovered_entry():
    model = MODELS["line"]()
    rows, cols = np.array([0]), np.array([model.size - 1])  # x_0 - x_{n-1} = -8 is off the grid
    with pytest.warns(CoverageWarning):
        assert not model.relative_max(np.ones((1, 1)), rows, cols).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model.relative_max(np.zeros((1, 1)), rows, cols)  # a zero entry needs no bin


def assert_convolve_matches_blocked(model, rng):
    """``model.convolve`` bit for bit against the blocked table sum; zeroing the first half
    of F1 skips the first half of the row blocks on a carrier of 1,024 points or more."""
    z = rng.normal(size=(4, model.size))
    v1, v2 = z[0] + 1j * z[1], z[2] + 1j * z[3]
    for factor in (v1, np.where(np.arange(model.size) < model.size // 2, 0, v1)):
        assert np.array_equal(model.convolve(factor, v2), blocked_convolve(model, factor, v2))


@pytest.mark.parametrize("n_side", (*CYCLIC_SIDES, 32, 64))
def test_cyclic_convolution_matches_blocked_table_path(n_side):
    # N = 32 has 4 row blocks of 256 and N = 64 has 64 blocks of 64; zeroing the first
    # half of F1 skips the first half of them
    assert_convolve_matches_blocked(build_cyclic_phase_space(n_side), np.random.default_rng(14))


def test_affine_convolution_matches_blocked_table_path():
    # 81 x 14 = 1,134 points: 5 row blocks of 231, the last one of 210
    model = build_affine_grid(4.0, 0.1, 0.3, 3.0, 1.2)
    assert model.size == 1134
    assert_convolve_matches_blocked(model, np.random.default_rng(15))


class TestBlockBudget:
    """The Z_N x Z_N kernels under one block budget, ``groups._BLOCK_ENTRIES``: cut to a
    few rows, the Q-gathers give the one-block values bit for bit and the convolution
    gives the blocked table sum over the same blocks; at the default budget no kernel
    holds more than a few blocks."""

    @staticmethod
    def traced_peak(kernel, *args):
        """The traced peak of one call, with the call's result."""
        tracemalloc.start()
        try:
            out = kernel(*args)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n_side", [8, 32])
    def test_q_gathers_under_a_few_rows(self, n_side, monkeypatch):
        model = build_cyclic_phase_space(n_side)
        rng = np.random.default_rng(n_side)
        stack = rng.random((5, model.size))
        points = np.sort(rng.choice(model.size, model.size // 3, replace=False))
        mags = rng.random((5, len(points)))
        kernels = [lambda v: model.local_max(v, "left"), lambda v: model.local_max(v, "right"),
                   lambda v: model.q_spread(v, points)]
        inputs = [stack, stack, mags]
        one = [(kernel(v), kernel(v[0])) for kernel, v in zip(kernels, inputs)]
        # 2 rows a block: the stack of 5 in 3 blocks, the last of one row
        monkeypatch.setattr(groups, "_BLOCK_ENTRIES", 2 * model.q_indices.size * model.size)
        assert groups._block_items(model.q_indices.size * model.size) == 2
        for kernel, v, (whole, row) in zip(kernels, inputs, one):
            blocked = kernel(v)
            assert blocked.shape == v.shape[:-1] + (model.size,) and blocked.flags.c_contiguous
            assert np.array_equal(blocked, whole) and np.array_equal(kernel(v[0]), row)
            assert np.array_equal(blocked[0], row)

    @pytest.mark.parametrize("twisted", [False, True])
    @pytest.mark.parametrize("n_side", [8, 32])
    def test_convolution_under_a_few_rows(self, n_side, twisted, monkeypatch):
        model = build_cyclic_phase_space(n_side)
        z = np.random.default_rng(n_side).normal(size=(4, model.size))
        v1, v2 = z[0] + 1j * z[1], z[2] + 1j * z[3]
        one = model.convolve(v1, v2, twisted)
        assert np.array_equal(one, blocked_convolve(model, v1, v2, twisted=twisted))
        # 3 rows y a block; another grouping of the partial sums moves only the last bits
        monkeypatch.setattr(groups, "_BLOCK_ENTRIES", 3 * model.size)
        blocked = model.convolve(v1, v2, twisted)
        assert np.array_equal(blocked, blocked_convolve(model, v1, v2, 3, twisted))
        assert np.abs(blocked - one).max() <= 1e-12 * np.abs(one).max()

    @pytest.mark.parametrize("twisted", [False, True])
    def test_convolution_peak_memory(self, twisted):
        """At N = 64 (64 rows y a block) the peak stays within 3 blocks of complex
        entries: 4.5 MB, or 8.8 MB twisted, whose rows are the plain rows of v2 times
        the cocycle.  The twist read through a div_indices table took 14.8 MB, and
        512-row blocks, the next one built while the last one was held, 64.8 and 144.1 MB."""
        model = build_cyclic_phase_space(64)
        z = np.random.default_rng(64).normal(size=(4, model.size))
        v1, v2 = z[0] + 1j * z[1], z[2] + 1j * z[3]
        peak, out = self.traced_peak(model.convolve, v1, v2, twisted)
        assert peak < 3 * groups._BLOCK_ENTRIES * 16 + out.nbytes, f"traced peak {peak:,} B"

    @pytest.mark.parametrize("kernel", ["left", "right", "q_spread"])
    def test_q_gather_peak_memory(self, kernel):
        """A (100, 1024) stack at N = 32 is gathered 28 rows at a time: 2.8 MB for a
        local max, 3.5 MB for a push sum, where the whole (100, 9, 1024) gather took 7.8
        and 8.6 MB."""
        model = build_cyclic_phase_space(32)
        rng = np.random.default_rng(32)
        points = np.arange(0, model.size, 3)
        if kernel == "q_spread":
            peak, out = self.traced_peak(model.q_spread, rng.random((100, len(points))), points)
        else:
            peak, out = self.traced_peak(model.local_max, rng.random((100, model.size)), kernel)
        # one block of float entries and two outputs: the result and the push sum's carrier
        assert peak < groups._BLOCK_ENTRIES * 16 + 2 * out.nbytes, f"traced peak {peak:,} B"


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_cyclic_q_spread_counts_a_repeated_u_once(n):
    """Q is a set: at N <= 2 the offsets -1, 0, 1 fold onto each other, and the
    Z_N x Z_N override adds each product p_i q once, as the base loop does."""
    model = build_cyclic_phase_space(n)
    offsets = [(dk % n) * n + dl % n for dk in (-1, 0, 1) for dl in (-1, 0, 1)]
    assert sorted(model.q_indices.tolist()) == sorted(set(offsets))
    rng = np.random.default_rng(n)
    points = np.sort(rng.choice(model.size, max(1, model.size // 2), replace=False))
    stack = np.abs(rng.normal(size=(2, len(points))))
    got = model.q_spread(stack, points)
    assert np.array_equal(got, GroupModel.q_spread(model, stack, points))
    for row, mags in zip(got, stack):
        # the nine offsets, repeats and all, each product counted once, in another order
        assert np.allclose(row, brute_sequence_accumulator(model, points, mags, offsets),
                           rtol=1e-14, atol=0)


def test_repeated_u_leaves_the_sequence_norm_alone():
    """At N = 2 the offsets -1 and 1 of Q coincide: Q is the whole carrier, counted once."""
    model = build_cyclic_phase_space(2)
    points, mags = np.array([0, 3]), np.array([1.0, 2.0])
    assert model.q_spread(mags, points).tolist() == [3.0] * 4
    sspec = SequenceSpaceSpec(base=QuasiNormSpec(p=1.0),
                              sample=SampleSet(model=model, points=points))
    assert sequence_norm(mags, sspec) == 6.0  # (1 + 2) mu(Q), four points of mass 1/2
