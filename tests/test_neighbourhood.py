"""Every Q/U-translate computation against the scalar per-pair oracles.

The affine model is chosen so that snapped products collide inside one
translate lambda U (its scales a < 1 shrink x-steps below the grid step),
which is where deduplication and the absent-product convention matter.
"""

import numpy as np
import pytest

from _oracles import (
    brute_cover_owners,
    brute_is_dense,
    brute_is_separated,
    brute_max_separated_subset,
    brute_maximal,
    brute_multiplicity,
    brute_sequence_accumulator,
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
    is_U_dense,
    is_U_separated,
    maximal_left,
    max_separated_subset,
    maximal_right,
    measure_QxQ,
    rel_separation,
    sequence_norm,
)
from coorbitkit.errors import NotDenseError

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
    """Q, the identity alone, and Q^{-1} (the set rel(Lambda) is counted with)."""
    q_inv = model.inv_indices(model.q_indices)
    return [model.q_indices, np.array([model.identity]), q_inv[q_inv >= 0]]


def test_affine_model_has_colliding_products():
    m = MODELS["affine"]()
    rows = (m.mul_indices(lam, m.q_indices) for lam in range(m.size))
    assert any(len(np.unique(r[r >= 0])) < np.count_nonzero(r >= 0) for r in rows)


def test_translates_match_scalar_products(model):
    points = samples(model)[2]
    u = model.q_indices
    left = list(model.translates(points, u))
    right = list(model.translates(points, u, side="right"))
    assert len(left) == len(right) == len(u)
    for j, uj in enumerate(u):
        assert np.array_equal(left[j], [model.mul(int(x), int(uj)) for x in points])
        assert np.array_equal(right[j], [model.mul(int(uj), int(x)) for x in points])


def test_maximal_functions(model):
    rng = np.random.default_rng(1)
    f = GridFunction(model, rng.normal(size=model.size) + 1j * rng.normal(size=model.size))
    assert np.array_equal(maximal_left(f).values.real, brute_maximal(model, f.values, "left"))
    assert np.array_equal(maximal_right(f).values.real,
                          brute_maximal(model, f.values, "right"))


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


def test_density_separation_and_rel(model):
    for points in samples(model):
        sample = SampleSet(model=model, points=points)
        for u in neighbourhoods(model):
            if model.identity in u:
                assert is_U_dense(sample, u) == brute_is_dense(model, points, u)
                assert is_U_separated(sample, u) == brute_is_separated(model, points, u)
        q_inv = neighbourhoods(model)[2]
        assert rel_separation(sample) == brute_multiplicity(model, points, q_inv).max()


def test_cover_owners(model):
    for points in samples(model):
        sample = SampleSet(model=model, points=points)
        for u in neighbourhoods(model)[:2]:
            owner = brute_cover_owners(model, points, u)
            if (owner == -1).any():
                with pytest.raises(NotDenseError) as err:
                    build_cover(sample, u)
                assert err.value.uncovered_index == int(np.nonzero(owner == -1)[0][0])
                continue
            cells = build_cover(sample, u).cells
            got = np.full(model.size, -1)
            for rank, cell in enumerate(cells):
                got[cell] = rank
            assert np.array_equal(got, owner)


def test_max_separated_subset(model):
    for u in neighbourhoods(model)[:2]:
        assert np.array_equal(max_separated_subset(model, u).points,
                              brute_max_separated_subset(model, u))


def test_measure_qxq(model):
    for x in (0, model.identity, model.size - 1):
        explicit = set()
        for q1 in model.q_indices:
            left = model.mul(int(q1), x)
            if left < 0:
                continue
            for q2 in model.q_indices:
                t = model.mul(left, int(q2))
                if t >= 0:
                    explicit.add(t)
        expected = model.haar[sorted(explicit)].sum()
        assert np.array_equal(measure_QxQ(model, x), expected)
