"""The depolarization closed forms of the order structure.

Every validity check computes the forbidden part ``Q = 1 - P`` by partial
traces, and the causal-order check compares partial traces as well.  These
properties compare them with the term-level definitions in ``oracles``: the
coefficient-tensor masks (``allowed_mask`` / ``hierarchy_mask``) and the
coefficient support of a causally ordered process.  They also check that
the one validity core gives the same report through every entry point.
"""

import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    classify_term_reference,
    coefficient_tensor,
    comb_order_by_support,
    enumerate_patterns,
    from_coefficient_tensor,
    hierarchy_mask,
    order_mask,
    permute_factors,
)
from pmx import operator_core
from pmx.operator_core import (
    DEFAULT_TOL,
    PaddedOperator,
    SpaceLayout,
    max_norm,
    partial_trace,
    tensor,
)
from pmx.process_space import (
    ProcessMatrix,
    TermClass,
    _storage_order,
    _validity_report,
    allowed_mask,
    cj_of_unitary,
    comb_order_satisfied,
    forbidden_part,
    single_party_layout,
    switch_layout,
    validate,
)
from pmx.supermaps import (
    HierarchyLevel,
    Supermap,
    hierarchy_projector,
    v_lambda,
    v_lambda_unitary,
    validate_order_n,
    validate_supermap,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
SWITCH = switch_layout()


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
    project = hierarchy_projector(HierarchyLevel.process(layout))
    assert max_norm(project(m) - want) <= 1e-12 * scale
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
    cj = np.outer(v, v.conj())
    dense = Supermap(l1, l2, cj=cj)
    dims = l1.dims + l2.dims
    level = HierarchyLevel.pair(HierarchyLevel.process(l1), HierarchyLevel.process(l2))
    oracle = max_norm(cj - mask_projector(cj, dims, hierarchy_mask(level)))
    r_pure = validate_supermap(pure).subspace
    r_dense = validate_supermap(dense).subspace
    scale = max_norm(cj)
    assert abs(r_pure.residual - oracle) <= 1e-12 * scale
    assert abs(r_dense.residual - oracle) <= 1e-12 * scale
    assert r_pure.tolerance == pytest.approx(r_dense.tolerance, rel=1e-12)


@PROPERTY_SETTINGS
@given(
    l1=layouts(max_dim=8),
    l2=layouts(max_dim=8),
    seed=st.integers(0, 2**32 - 1),
)
# every factor has dimension 1 and the three 1 x 1 terms are positive, so
# the terms' summed max-norms equal the dense sum's max-norm in real
# arithmetic; in floats they round one ulp below it
@example(
    l1=SpaceLayout.build([("A_I0", 1)], [("A", ["A_I0"], [])]),
    l2=SpaceLayout.build(
        [("A_O0", 1), ("B_O0", 1)], [("A", [], ["A_O0"]), ("B", [], ["B_O0"])]
    ),
    seed=1,
)
def test_term_sum_report_matches_its_dense_sum(l1, l2, seed):
    # a rank-one term plus two Hermitian blocks padded on random factor sets,
    # which need not nest
    rng = np.random.default_rng(seed)
    level = HierarchyLevel.pair(HierarchyLevel.process(l1), HierarchyLevel.process(l2))
    dims = level.dims
    v = rng.standard_normal(level.dim) + 1j * rng.standard_normal(level.dim)
    terms = [PaddedOperator.of_vector(v, dims)]
    for _ in range(2):
        kept = sorted(rng.permutation(len(dims))[: rng.integers(len(dims) + 1)])
        kept_dims = tuple(dims[f] for f in kept)
        g = random_hermitian(rng, int(np.prod(kept_dims)))
        terms.append(PaddedOperator(dims, kept, g=g.reshape(kept_dims * 2)))
    dense = sum(t.dense() for t in terms)
    want = validate_order_n(dense, level)
    got = _validity_report(terms, level, DEFAULT_TOL)
    scale = max(1.0, max_norm(dense))
    for name in ("trace", "subspace"):
        assert abs(got.condition(name).residual - want.condition(name).residual) <= (
            1e-12 * scale
        )
    # the sum of lowest eigenvalues bounds the lowest eigenvalue from below
    assert got.positivity.residual >= want.positivity.residual - 1e-12 * scale
    # the sum of max-norms bounds the max-norm of the sum
    assert got.subspace.tolerance >= want.subspace.tolerance * (1 - 1e-12)


@PROPERTY_SETTINGS
@given(
    l1=layouts(max_dim=8),
    l2=layouts(max_dim=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_reordered_forbidden_part_matches_mask_entrywise(l1, l2, seed):
    # forbidden_part keeps its blocks in the level's storage order; undone by
    # dense(), each entry must equal the natural-order oracle's.  The
    # max-norm alone would not see a mislabelled factor.
    rng = np.random.default_rng(seed)
    level = HierarchyLevel.pair(HierarchyLevel.process(l1), HierarchyLevel.process(l2))
    dims = level.dims
    mask = hierarchy_mask(level)
    v = rng.standard_normal(level.dim) + 1j * rng.standard_normal(level.dim)
    kept = sorted(rng.permutation(len(dims))[: rng.integers(len(dims) + 1)])
    kept_dims = tuple(dims[f] for f in kept)
    g = random_hermitian(rng, int(np.prod(kept_dims)))
    terms = [
        PaddedOperator.of_vector(v, dims),
        PaddedOperator(dims, kept, g=g.reshape(kept_dims * 2)),
        PaddedOperator.of_matrix(random_hermitian(rng, level.dim), dims),
    ]
    order = _storage_order(level)
    for term in terms:
        m = term.dense()
        got = forbidden_part(term, level)
        assert list(got.kept) == [f for f in order if f in got.kept]
        want = m - mask_projector(m, dims, mask)
        assert max_norm(got.dense() - want) <= 1e-12 * max(1.0, max_norm(m))


@contextlib.contextmanager
def held_in_pieces(factored, band):
    """Lower the sizes at which roots hold blocks and sums are cut in sub-blocks.

    With the package's sizes only operators above 256^2 take those forms;
    lowered, the small layouts the oracle can afford take them too.
    """
    with mock.patch.object(operator_core, "_FACTORED_BLOCK", factored):
        with mock.patch.object(operator_core, "_SUB_BLOCK", band):
            yield


def check_pieces_against_mask(level, seed, factored, band):
    """Forbidden parts and the subspace residual, in pieces, against the mask.

    The terms are a vector, a root-held operator padded on some factors (a
    depolarized vector), a block padded on others and a dense operator.  Each
    forbidden part's ``dense``, ``max_norm`` and Hermitian max-norm, and the
    report's subspace residual of their sum, are compared with
    ``m - mask_projector(m)``.
    """
    rng = np.random.default_rng(seed)
    dims = level.dims
    mask = hierarchy_mask(level)

    def vector():
        return rng.standard_normal(level.dim) + 1j * rng.standard_normal(level.dim)

    def factor_subset():
        return sorted(rng.permutation(len(dims))[: rng.integers(len(dims) + 1)])

    kept = factor_subset()
    kept_dims = tuple(dims[f] for f in kept)
    g = random_hermitian(rng, int(np.prod(kept_dims)))
    dense = random_hermitian(rng, level.dim)
    with held_in_pieces(factored, band):
        terms = [
            PaddedOperator.of_vector(vector(), dims),
            PaddedOperator.of_vector(vector(), dims).depolarized(factor_subset()),
            PaddedOperator(dims, kept, g=g.reshape(kept_dims * 2)),
            PaddedOperator.of_matrix(dense, dims),
        ]
        order = _storage_order(level)
        total = 0
        for term in terms:
            m = term.dense()
            total = total + m
            want = m - mask_projector(m, dims, mask)
            scale = max(1.0, max_norm(m))
            got = forbidden_part(term.alias(), level)
            assert list(got.kept) == [f for f in order if f in got.kept]
            assert abs(got.max_norm() - max_norm(want)) <= 1e-12 * scale
            hermitian = forbidden_part(term.alias(), level)._hermitian_max_norm()
            assert abs(hermitian - max_norm(want)) <= 1e-12 * scale
            assert max_norm(got.dense() - want) <= 1e-12 * scale
        report = _validity_report([t.alias() for t in terms], level, DEFAULT_TOL)
    want = max_norm(total - mask_projector(total, dims, mask))
    assert abs(report.subspace.residual - want) <= 1e-12 * max(1.0, max_norm(total))


# an output-less party, a qutrit and a dimension-1 factor
SMALL_MIXED = SpaceLayout.build(
    [("A_I", 3), ("A_O", 1), ("C_I", 2)],
    [("A", ["A_I"], ["A_O"]), ("C", ["C_I"], [])],
)


@settings(max_examples=40, deadline=None)
@given(
    l1=layouts(max_dim=8),
    l2=layouts(max_dim=8),
    seed=st.integers(0, 2**32 - 1),
    factored=st.sampled_from([0, 16, 256]),
    band=st.sampled_from([1, 16, 256]),
)
@example(
    l1=SMALL_MIXED, l2=single_party_layout(2, 3), seed=3, factored=0, band=16
)
def test_level2_forbidden_part_in_pieces_matches_mask(l1, l2, seed, factored, band):
    level = HierarchyLevel.pair(HierarchyLevel.process(l1), HierarchyLevel.process(l2))
    check_pieces_against_mask(level, seed, factored, band)


@settings(max_examples=10, deadline=None)
@given(
    l1=layouts(max_dim=3),
    l2=layouts(max_dim=3),
    seed=st.integers(0, 2**32 - 1),
    factored=st.sampled_from([16, 256]),
    band=st.sampled_from([64, 256]),
)
@example(l1=SMALL_MIXED, l2=single_party_layout(1, 1), seed=4, factored=16, band=64)
def test_level3_forbidden_part_in_pieces_matches_mask(l1, l2, seed, factored, band):
    a, b = HierarchyLevel.process(l1), HierarchyLevel.process(l2)
    level = HierarchyLevel.pair(HierarchyLevel.pair(a, b), HierarchyLevel.pair(b, a))
    check_pieces_against_mask(level, seed, factored, band)


@pytest.mark.parametrize("factored, most", [(16, 3), (0, 2)])
def test_level3_forbidden_part_of_a_vector_cancels_to_few_pieces(factored, most):
    # dims (3, 3, 3, 1, 3, 1, 3, 3), 729 in all.  The projector reaches the
    # same depolarization of the vector along several paths, with opposite
    # signs; held by the root and the kept factors, those pieces cancel
    a = HierarchyLevel.process(single_party_layout(3, 3))
    b = HierarchyLevel.process(single_party_layout(3, 1))
    level = HierarchyLevel.pair(HierarchyLevel.pair(a, b), HierarchyLevel.pair(b, a))
    rng = np.random.default_rng(5)
    v = rng.standard_normal(level.dim) + 1j * rng.standard_normal(level.dim)
    dense = PaddedOperator.of_matrix(np.outer(v, v.conj()), level.dims)
    want = forbidden_part(dense, level).max_norm()
    with mock.patch.object(operator_core, "_FACTORED_BLOCK", factored):
        got = forbidden_part(PaddedOperator.of_vector(v, level.dims), level)
        assert got._pieces is not None and len(got._pieces) <= most
        assert got.max_norm() == pytest.approx(want, abs=1e-12)


def test_one_depolarization_reached_two_ways_cancels_exactly():
    # D_1 D_0 and D_0 D_1 of one vector are one operator: their difference
    # leaves no piece and reads exactly zero
    dims = (2,) * 6
    rng = np.random.default_rng(6)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    with mock.patch.object(operator_core, "_FACTORED_BLOCK", 16):
        op = PaddedOperator.of_vector(v, dims)
        diff = op.depolarized([0]).depolarized([1])
        diff.subtract(op.depolarized([1]).depolarized([0]))
        assert diff._pieces == []
        assert diff.max_norm() == 0.0


def test_switch_pair_forbidden_part_in_sub_blocks_matches_the_dense_path():
    # at the package's sizes the pure CJ's forbidden part on the switch pair
    # is a sum of pieces over a 1024^2 block; the dense CJ takes the
    # depolarizations of dense blocks, which the mask properties check
    (term,) = v_lambda(0.7)._terms
    level = HierarchyLevel.pair(
        HierarchyLevel.process(SWITCH), HierarchyLevel.process(SWITCH)
    )
    got = forbidden_part(term.alias(), level)
    assert got._pieces is not None and len(got.kept) == 10
    want = forbidden_part(PaddedOperator.of_matrix(term.dense(), level.dims), level)
    assert got._hermitian_max_norm() == pytest.approx(want.max_norm(), abs=1e-15)
    assert got.max_norm() == pytest.approx(want.max_norm(), abs=1e-15)
    assert got.kept == want.kept
    assert max_norm(got.matrix() - want.matrix()) <= 1e-15


def test_switch_pair_hermitian_max_norm_reads_the_upper_sub_blocks():
    # the forbidden part's 1024^2 block is cut into 4 x 4 sub-blocks of
    # 256^2; the Hermitian read takes the 10 with y >= x, the diagonal ones
    # included, and together with their transposes they cover the block
    (term,) = v_lambda(0.7)._terms
    level = HierarchyLevel.pair(
        HierarchyLevel.process(SWITCH), HierarchyLevel.process(SWITCH)
    )
    got = forbidden_part(term.alias(), level)
    every = [idx for idx, _ in got._assembled()]
    upper = [idx for idx, _ in got._assembled(upper=True)]
    assert len(every) == 16 and len(upper) == 10
    n = len(got.kept)

    def cut(idx):
        # the sub-block's row and column indices on the cut factors
        at = [i for i in range(n) if idx[i] != slice(None)]
        return tuple(idx[i] for i in at), tuple(idx[n + i] for i in at)

    pairs = {cut(idx) for idx in upper}
    assert len(pairs) == 10
    assert pairs | {(y, x) for x, y in pairs} == {cut(idx) for idx in every}
    assert sum(x == y for x, y in pairs) == 4
    # a sum of pieces whose only nonzero entry, |0><0|, lies on a diagonal
    # sub-block: here 2 of 3 qubits are cut, 4 x 4 sub-blocks of 2^2
    dims = (2, 2, 2)
    with held_in_pieces(0, 4):
        total = PaddedOperator(dims, [0], g=np.zeros((2, 2), dtype=complex))
        total.add(PaddedOperator.of_vector(np.eye(1, 8, 0).reshape(-1), dims))
        assert total._pieces is not None
        assert len(list(total._assembled(upper=True))) == 10
        assert total._hermitian_max_norm() == total.max_norm() == 1.0


def test_an_assembled_sum_holds_no_negative_zero():
    # each sub-block is +0 plus every piece, so no entry reads -0.0, also
    # where the first piece's product, written straight into the sub-block,
    # holds one: a vector with exact zeros, depolarized with a padded block
    dims = (2, 2, 2)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v[rng.random(8) < 0.5] = 0
    h = random_hermitian(rng, 8)
    with held_in_pieces(4, 4):
        op = PaddedOperator.of_vector(v, dims)
        op.add(PaddedOperator.of_matrix(h, dims).depolarized([1]))
        entries = op.depolarized([0]).dense().view(float)
    assert not np.any(np.signbit(entries) & (entries == 0))


def test_sum_of_blocks_on_disjoint_factors_matches_the_dense_sum():
    # neither block keeps the other's factors, so neither sum is nested; B
    # has no input, so both blocks have a nonzero forbidden part as well
    layout = SpaceLayout.build(
        [("A_I", 2), ("A_O", 2), ("B_O", 2)],
        [("A", ["A_I"], ["A_O"]), ("B", [], ["B_O"])],
    )
    level = HierarchyLevel.process(layout)
    rng = np.random.default_rng(8)
    g01, g2 = random_hermitian(rng, 4), random_hermitian(rng, 2)
    want = np.kron(g01, np.eye(2)) + np.kron(np.eye(4), g2)

    def blocks():
        return [
            PaddedOperator(layout.dims, [0, 1], g=g01.reshape(2, 2, 2, 2)),
            PaddedOperator(layout.dims, [2], g=g2),
        ]

    total, other = blocks()
    total.add(other)
    assert np.array_equal(total.dense(), want)
    assert total.max_norm() == total._hermitian_max_norm() == max_norm(want)
    got = _validity_report(blocks(), level, DEFAULT_TOL)
    dense = PaddedOperator.of_matrix(want, layout.dims)
    dense = _validity_report([dense], level, DEFAULT_TOL)
    assert got.subspace.residual > 0.1
    assert got.subspace.residual == pytest.approx(dense.subspace.residual, abs=1e-15)


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
    project = hierarchy_projector(HierarchyLevel.process(MIXED))
    assert max_norm(project(m) - want) <= 1e-12 * max_norm(m)


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
    hierarchy_projector(HierarchyLevel.process(MIXED))(m)
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


def embedded_link_product(m, dims, factors, stack):
    """The oracle: ``Tr_X((C_k (x) 1) W)`` with ``W`` reordered to put ``X`` first."""
    order = factors + [f for f in range(len(dims)) if f not in factors]
    w = permute_factors(m, dims, order)
    eye = np.eye(len(w) // len(stack[0]))
    sub = [dims[f] for f in order]
    x = range(len(factors))
    return np.stack([partial_trace(np.kron(c, eye) @ w, sub, x) for c in stack])


@PROPERTY_SETTINGS
@given(
    dims=st.lists(st.integers(2, 3), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_absorbed_vector_matches_its_dense_copy(dims, seed):
    # the one link product: a held |v><v|, its dense copy and a block padded
    # on some factors against the embedded product, with X in shuffled order
    rng = np.random.default_rng(seed)
    dims = tuple(dims)
    n = len(dims)
    factors = [int(f) for f in rng.permutation(n)[: rng.integers(1, n + 1)]]
    d_x = int(np.prod([dims[f] for f in factors]))
    d_rest = int(np.prod(dims)) // d_x
    stack = rng.standard_normal((3, d_x, d_x)) + 1j * rng.standard_normal((3, d_x, d_x))
    v = rng.standard_normal(d_x * d_rest) + 1j * rng.standard_normal(d_x * d_rest)
    m = np.outer(v, v.conj())
    pure = PaddedOperator.of_vector(v, dims).absorbed(factors, stack)
    dense = PaddedOperator.of_matrix(m, dims).absorbed(factors, stack)
    assert pure.shape == dense.shape == (3, d_rest, d_rest)
    scale = max_norm(dense)
    assert max_norm(pure - dense) <= 1e-13 * scale
    want = embedded_link_product(m, dims, factors, stack)
    assert max_norm(dense - want) <= 1e-13 * scale
    kept = sorted(int(f) for f in rng.permutation(n)[: rng.integers(1, n + 1)])
    g = random_hermitian(rng, int(np.prod([dims[f] for f in kept])))
    padded = PaddedOperator(dims, kept, g=g.reshape(tuple(dims[f] for f in kept) * 2))
    want = embedded_link_product(padded.dense(), dims, factors, stack)
    got = padded.absorbed(factors, stack)
    assert max_norm(got - want) <= 1e-13 * max(1.0, max_norm(want))


def test_padded_operator_takes_strided_blocks():
    # a matrix or block in Fortran order is a strided view of the caller's
    # data; it depolarizes exactly as its C-ordered copy
    rng = np.random.default_rng(4)
    m = random_hermitian(rng, 24)
    dims = (2, 3, 4)
    want = PaddedOperator.of_matrix(m, dims)
    strided = (
        PaddedOperator.of_matrix(np.asfortranarray(m), dims),
        PaddedOperator(dims, range(3), g=np.asfortranarray(m.reshape(dims * 2))),
    )
    for op in strided:
        for factors in ([1], [0, 2]):
            got = op.alias().depolarized(factors).dense()
            assert np.array_equal(got, want.depolarized(factors).dense())


def test_pure_switch_validation_never_forms_cj():
    s = v_lambda(0.3)
    report = validate_supermap(s)
    cj = cj_of_unitary(v_lambda_unitary(0.3))
    dense = validate_supermap(Supermap(s.in_layout, s.out_layout, cj=cj))
    for name in ("trace", "subspace"):
        pure_c, dense_c = report.condition(name), dense.condition(name)
        assert abs(pure_c.residual - dense_c.residual) <= 1e-12
        assert pure_c.passed == dense_c.passed
    assert dense.positivity.residual <= 1e-12 and report.positivity.residual == 0.0
    assert not report.subspace.passed
    assert report.subspace.tolerance == pytest.approx(dense.subspace.tolerance, rel=1e-12)


def normalized_psd(m, layout):
    """Shift ``m`` by the identity until positive, then fix the trace.

    The identity is allowed and causally ordered in every order, so the
    shift keeps whatever term structure ``m`` has.
    """
    lo = float(np.linalg.eigvalsh(m)[0])
    m = m + (abs(lo) + 0.1) * np.eye(layout.dim)
    return ProcessMatrix(layout, m * (layout.d_out / np.trace(m).real))


def random_valid(rng, layout):
    project = hierarchy_projector(HierarchyLevel.process(layout))
    return normalized_psd(project(random_hermitian(rng, layout.dim)), layout)


def random_ordered(rng, layout, order):
    """A random valid process causally ordered as ``order``."""
    c = coefficient_tensor(random_hermitian(rng, layout.dim), layout.dims)
    m = from_coefficient_tensor(np.where(order_mask(layout, order), c, 0.0), layout.dims)
    return normalized_psd((m + m.conj().T) / 2, layout)


@PROPERTY_SETTINGS
@given(layout=layouts(max_dim=36), seed=st.integers(0, 2**32 - 1))
def test_comb_order_matches_coefficient_support(layout, seed):
    rng = np.random.default_rng(seed)
    orders = list(itertools.permutations([p.name for p in layout.parties]))
    processes = [random_valid(rng, layout)]
    processes += [random_ordered(rng, layout, order) for order in orders]
    for w in processes:
        for order in orders:
            assert comb_order_satisfied(w, order) == comb_order_by_support(w, order)
    # a process built in one order passes that order
    for w, order in zip(processes[1:], orders):
        assert comb_order_satisfied(w, order)


@PROPERTY_SETTINGS
@given(layout=layouts(max_dim=36), seed=st.integers(0, 2**32 - 1))
def test_validate_is_validate_order_n_at_level1(layout, seed):
    rng = np.random.default_rng(seed)
    level = HierarchyLevel.process(layout)
    hermitian = ProcessMatrix(layout, random_hermitian(rng, layout.dim))
    for w in (hermitian, random_valid(rng, layout)):
        assert validate(w) == validate_order_n(w.matrix, level)


@PROPERTY_SETTINGS
@given(
    l1=layouts(max_dim=8),
    l2=layouts(max_dim=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_validate_supermap_is_validate_order_n_at_level2(l1, l2, seed):
    rng = np.random.default_rng(seed)
    level = HierarchyLevel.pair(HierarchyLevel.process(l1), HierarchyLevel.process(l2))
    d = level.dim
    cj = random_hermitian(rng, d)
    assert validate_supermap(Supermap(l1, l2, cj=cj)) == validate_order_n(cj, level)
    vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d)]
    if l1 == l2:
        # |1>>, the identity supermap: valid
        vectors.append(np.eye(l1.dim).reshape(-1))
    for v in vectors:
        report = validate_supermap(Supermap(l1, l2, cj_vector=v))
        want = validate_order_n(np.outer(v, v.conj()), level)
        scale = max(1.0, max_norm(np.outer(v, v.conj())))
        for got, ref in zip(report.conditions, want.conditions):
            assert got.name == ref.name
            assert got.passed == ref.passed
            assert abs(got.residual - ref.residual) <= 1e-12 * scale
            assert got.tolerance == pytest.approx(ref.tolerance, rel=1e-12)


@PROPERTY_SETTINGS
@given(layout=layouts(max_dim=36))
def test_allowed_mask_matches_classify_term(layout):
    # classify_term reads the mask, so the mask is compared with the loop
    mask = allowed_mask(layout)
    for pattern in enumerate_patterns(layout):
        allowed = classify_term_reference(pattern, layout) is TermClass.ALLOWED
        assert mask[pattern] == allowed


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@PROPERTY_SETTINGS
@given(layout=layouts(max_dim=36), seed=st.integers(0, 2**32 - 1))
def test_validate_is_invariant_under_local_unitaries(layout, seed):
    # every depolarization commutes with a product of per-factor unitaries,
    # so the forbidden part turns with the operator and the eigenvalues and
    # trace stay.  The max-norm of a nonzero forbidden part is not unitarily
    # invariant, so the residual check takes allowed-span inputs: a valid
    # process, and one with a negative eigenvalue and a wrong trace
    rng = np.random.default_rng(seed)
    u = tensor(*(random_unitary(rng, d) for d in layout.dims))
    project = hierarchy_projector(HierarchyLevel.process(layout))
    span = project(random_hermitian(rng, layout.dim))
    for w in (random_valid(rng, layout), ProcessMatrix(layout, span)):
        before = validate(w)
        after = validate(ProcessMatrix(layout, u @ w.matrix @ u.conj().T))
        assert after.valid == before.valid
        scale = max(1.0, max_norm(w.matrix))
        for got, want in zip(after.conditions, before.conditions):
            assert got.passed == want.passed
            assert abs(got.residual - want.residual) <= 1e-12 * scale
    # a span violation stays one: its forbidden part turns, and does not vanish
    bad = ProcessMatrix(layout, random_hermitian(rng, layout.dim))
    turned = ProcessMatrix(layout, u @ bad.matrix @ u.conj().T)
    assert validate(turned).subspace.passed == validate(bad).subspace.passed
