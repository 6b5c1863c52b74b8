"""The depolarization closed forms of the order structure.

Every validity check computes the forbidden part ``Q = 1 - P`` by partial
traces, and the causal-order check compares partial traces as well.  These
properties compare them with the term-level definitions in ``oracles``: the
coefficient-tensor masks (``allowed_mask`` / ``hierarchy_mask``) and the
coefficient support of a causally ordered process.  They also check that
the one validity core gives the same report through every entry point.
"""

import itertools

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
    comb_order_satisfied,
    forbidden_part,
    single_party_layout,
    validate,
)
from pmx.supermaps import (
    HierarchyLevel,
    Supermap,
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
    assert s._cj is None
    dense = validate_supermap(Supermap(s.in_layout, s.out_layout, cj=s.cj))
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
    dense = Supermap(l1, l2, cj=random_hermitian(rng, d))
    assert validate_supermap(dense) == validate_order_n(dense.cj, level)
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
