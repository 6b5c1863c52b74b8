"""The depolarization closed form of the order-structure projector.

Every validity check computes the forbidden part ``Q = 1 - P`` by partial
traces.  These properties compare it with the term-level definition, the
coefficient-tensor mask (``allowed_mask`` / ``hierarchy_mask``), which is
kept here as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmx.hs_algebra import coefficient_tensor, from_coefficient_tensor
from pmx.operator_core import PaddedOperator, SpaceLayout, max_norm
from pmx.process_space import (
    ProcessMatrix,
    allowed_mask,
    project_valid_matrix,
    single_party_layout,
    validate,
)
from pmx.supermaps import (
    HierarchyLevel,
    Supermap,
    hierarchy_mask,
    hierarchy_projector,
    v_lambda,
    validate_order_n,
    validate_supermap,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def mask_projector(m, dims, mask):
    """The oracle: keep the coefficients the mask allows."""
    c = coefficient_tensor(m, dims)
    return from_coefficient_tensor(np.where(mask, c, 0.0), dims)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


@st.composite
def layouts(draw, max_dim):
    """1-3 parties, 0-2 input and 0-1 output factors each, dims in {1, 2, 3}.

    A factor whose dimension would push the total past ``max_dim`` gets
    dimension 1, so every drawn structure is kept.  Factor order is shuffled.
    """
    factors = []
    parties = []
    budget = max_dim
    for p in range(draw(st.integers(1, 3))):
        name = "ABC"[p]
        roles = ([], [])
        n_in = draw(st.integers(0, 2))
        n_out = draw(st.integers(0, 1))
        for role, count, tag in ((0, n_in, "I"), (1, n_out, "O")):
            for k in range(count):
                d = draw(st.sampled_from([1, 2, 3]))
                if d > budget:
                    d = 1
                budget //= d
                label = f"{name}_{tag}{k}"
                factors.append((label, d))
                roles[role].append(label)
        parties.append((name, roles[0], roles[1]))
    if not factors:
        factors.append(("A_I0", draw(st.sampled_from([1, 2, 3]))))
        parties[0][1].append("A_I0")
    order = draw(st.permutations(range(len(factors))))
    return SpaceLayout.build([factors[k] for k in order], parties)


@PROPERTY_SETTINGS
@given(layout=layouts(max_dim=36), seed=st.integers(0, 2**32 - 1))
def test_level1_projector_matches_mask(layout, seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, layout.dim)
    want = mask_projector(m, layout.dims, allowed_mask(layout))
    scale = max(1.0, max_norm(m))
    assert max_norm(project_valid_matrix(m, layout) - want) <= 1e-12 * scale
    # validate's subspace residual is the max-norm of the forbidden part
    resid = validate(ProcessMatrix(layout, m)).subspace.residual
    assert abs(resid - max_norm(m - want)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(
    l1=layouts(max_dim=8),
    l2=layouts(max_dim=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_level2_projector_matches_mask(l1, l2, seed):
    rng = np.random.default_rng(seed)
    level = HierarchyLevel.pair(HierarchyLevel.process(l1), HierarchyLevel.process(l2))
    m = random_hermitian(rng, level.dim)
    want = mask_projector(m, level.dims, hierarchy_mask(level))
    scale = max(1.0, max_norm(m))
    assert max_norm(hierarchy_projector(level)(m) - want) <= 1e-12 * scale
    resid = validate_order_n(m, level).subspace.residual
    assert abs(resid - max_norm(m - want)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(
    l1=layouts(max_dim=8),
    l2=layouts(max_dim=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_pure_supermap_residual_matches_dense(l1, l2, seed):
    rng = np.random.default_rng(seed)
    d = l1.dim * l2.dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    pure = Supermap(l1, l2, cj_vector=v)
    dense = Supermap(l1, l2, cj=np.outer(v, v.conj()))
    dims = l1.dims + l2.dims
    level = HierarchyLevel.pair(HierarchyLevel.process(l1), HierarchyLevel.process(l2))
    oracle = max_norm(dense.cj - mask_projector(dense.cj, dims, hierarchy_mask(level)))
    r_pure = validate_supermap(pure).subspace
    r_dense = validate_supermap(dense).subspace
    scale = max_norm(dense.cj)
    assert abs(r_pure.residual - oracle) <= 1e-12 * scale
    assert abs(r_dense.residual - oracle) <= 1e-12 * scale
    assert r_pure.tolerance == pytest.approx(r_dense.tolerance, rel=1e-12)
    assert pure._cj is None


# one fixed layout with every feature: an output-less party, an input-less
# party, a party with two input factors, and factors of dimension 1 and 3
MIXED = SpaceLayout.build(
    [("A_I", 2), ("C_I", 3), ("B_O", 2), ("A_J", 3), ("A_O", 2), ("D_I", 1), ("D_O", 1)],
    [
        ("A", ["A_I", "A_J"], ["A_O"]),
        ("B", [], ["B_O"]),
        ("C", ["C_I"], []),
        ("D", ["D_I"], ["D_O"]),
    ],
)


def test_mixed_layout_projector_matches_mask():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, MIXED.dim)
    want = mask_projector(m, MIXED.dims, allowed_mask(MIXED))
    assert max_norm(project_valid_matrix(m, MIXED) - want) <= 1e-12 * max_norm(m)


def test_level3_projector_matches_mask():
    a = HierarchyLevel.process(single_party_layout())
    b = HierarchyLevel.process(
        SpaceLayout.build(
            [("X_I", 1), ("X_O", 2), ("Y_I", 2)],
            [("X", ["X_I"], ["X_O"]), ("Y", ["Y_I"], [])],
        )
    )
    level = HierarchyLevel.pair(HierarchyLevel.pair(a, b), HierarchyLevel.pair(b, a))
    assert level.n == 3 and level.dim == 256
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, level.dim)
    want = mask_projector(m, level.dims, hierarchy_mask(level))
    assert max_norm(hierarchy_projector(level)(m) - want) <= 1e-12 * max_norm(m)
    resid = validate_order_n(m, level).subspace.residual
    assert abs(resid - max_norm(m - want)) <= 1e-12 * max_norm(m)


def test_projector_leaves_its_input_untouched():
    rng = np.random.default_rng(2)
    m = random_hermitian(rng, MIXED.dim)
    keep = m.copy()
    project_valid_matrix(m, MIXED)
    m.setflags(write=False)
    validate(ProcessMatrix(MIXED, m))
    assert np.array_equal(m, keep)


def test_padded_operator_depolarizes_without_expanding():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 12)
    op = PaddedOperator.of_matrix(m, (2, 3, 2)).depolarized([1])
    assert op.kept == (0, 2) and op.g.shape == (2, 2, 2, 2)
    reduced = np.einsum("abcdbf->acdf", m.reshape(2, 3, 2, 2, 3, 2)) / 3
    full = np.einsum("acdf,be->abcdef", reduced, np.eye(3)).reshape(12, 12)
    assert max_norm(op.dense() - full) <= 1e-12
    assert op.max_norm() == pytest.approx(max_norm(full), rel=1e-12)
    # a rank-one operator held by its vector depolarizes to the same thing
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    pure = PaddedOperator.of_vector(v, (2, 3, 2)).depolarized([1])
    dense = PaddedOperator.of_matrix(np.outer(v, v.conj()), (2, 3, 2)).depolarized([1])
    assert max_norm(pure.g - dense.g) <= 1e-12


def test_pure_switch_validation_never_forms_cj():
    s = v_lambda(0.3)
    report = validate_supermap(s)
    assert s._cj is None
    dense = validate_supermap(Supermap(s.in_layout, s.out_layout, cj=s.cj))
    for name in ("trace", "subspace"):
        pure_c, dense_c = report.condition(name), dense.condition(name)
        assert abs(pure_c.residual - dense_c.residual) <= 1e-12
        assert pure_c.passed == dense_c.passed
    assert dense.positivity.residual <= 1e-12 and report.positivity.residual == 0.0
    assert not report.subspace.passed
    assert report.subspace.tolerance == pytest.approx(dense.subspace.tolerance, rel=1e-12)
