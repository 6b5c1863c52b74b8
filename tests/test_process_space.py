"""Tests for validity, probabilities, and the named processes."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cj_of_map,
    enumerate_patterns,
    full_lowest_eigenvalue,
    hs_decompose,
    kron_born_probabilities,
    kron_memory_channel,
    kron_padded,
    product_term,
    project_valid_closed_form,
)
from pmx.operator_core import (
    PaddedOperator,
    SpaceLayout,
    is_hermitian,
    max_norm,
    partial_trace,
    tensor,
)
from pmx.process_space import (
    CausalOrderFlag,
    HierarchyLevel,
    Instrument,
    ProcessMatrix,
    TermClass,
    _lowest_eigenvalue,
    _slot1_marginal,
    allowed_mask,
    bipartite_qubit_layout,
    born_probabilities,
    causal_order_flags,
    cj_of_unitary,
    classify_term,
    comb_order_satisfied,
    extended_branch_vectors,
    extended_switch,
    grandfather_instrument,
    memory_channel,
    quantum_switch,
    shared_state,
    single_party_layout,
    switch_branch_vectors,
    switch_input_channel,
    switch_layout,
    validate,
    w_ll,
    w_ocb,
)
from pmx.supermaps import apply, hierarchy_projector, instrument_reduction
from test_order_projector import layouts, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
BIPARTITE = bipartite_qubit_layout()
PROJECT_BIPARTITE = hierarchy_projector(HierarchyLevel.process(BIPARTITE))


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_channel_cj(rng, d_in, d_out):
    """Random CPTP map's CJ operator with Tr_out C = 1_in."""
    d = d_in * d_out
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = g @ g.conj().T
    marg = partial_trace(c, (d_in, d_out), [1])
    w, v = np.linalg.eigh(marg)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    x = np.kron(inv_sqrt, np.eye(d_out))
    return x @ c @ x.conj().T


def random_instrument(rng, layout, party, n_outcomes=2):
    """Split a random channel CJ into rank pieces grouped into outcomes."""
    p = layout.party(party)
    d_in = int(np.prod([layout.dims[k] for k in p.inputs])) if p.inputs else 1
    d_out = int(np.prod([layout.dims[k] for k in p.outputs])) if p.outputs else 1
    c = random_channel_cj(rng, d_in, d_out)
    w, v = np.linalg.eigh(c)
    pieces = [np.zeros_like(c) for _ in range(n_outcomes)]
    for k in range(len(w)):
        if w[k] <= 0:
            continue
        pieces[k % n_outcomes] += w[k] * np.outer(v[:, k], v[:, k].conj())
    return Instrument(party, tuple(pieces), d_in, d_out)


# ---------------------------------------------------------------------------
# term taxonomy
# ---------------------------------------------------------------------------


def test_classify_term_examples():
    """Hand-derived representatives of each term class."""
    # identity term
    assert classify_term((0, 0, 0, 0), BIPARTITE) is TermClass.ALLOWED
    # shared input state
    assert classify_term((3, 3, 0, 0), BIPARTITE) is TermClass.ALLOWED
    # A's output correlated with B's input: signalling A -> B
    assert classify_term((0, 3, 3, 0), BIPARTITE) is TermClass.ALLOWED
    # local loop at A (input and output of the same party only)
    assert classify_term((3, 0, 3, 0), BIPARTITE) is TermClass.FORBIDDEN
    # output-only term: post-selection
    assert classify_term((0, 0, 3, 0), BIPARTITE) is TermClass.FORBIDDEN
    # global loop A -> B -> A
    assert classify_term((3, 3, 3, 3), BIPARTITE) is TermClass.FORBIDDEN


def test_term_counts_bipartite():
    """88 allowed = 16 states + 36 A->B + 36 B->A; 168 forbidden."""
    mask = allowed_mask(BIPARTITE)
    assert mask.shape == (4, 4, 4, 4)
    assert int(mask.sum()) == 88
    assert int((~mask).sum()) == 168
    states = signal_ab = signal_ba = 0
    for p in enumerate_patterns(BIPARTITE):
        if not mask[p]:
            continue
        if p[2] == 0 and p[3] == 0:
            states += 1
        elif p[3] == 0:
            signal_ab += 1
        elif p[2] == 0:
            signal_ba += 1
    assert (states, signal_ab, signal_ba) == (16, 36, 36)


def test_classify_matches_mask_everywhere():
    mask = allowed_mask(BIPARTITE)
    for p in enumerate_patterns(BIPARTITE):
        assert (classify_term(p, BIPARTITE) is TermClass.ALLOWED) == bool(mask[p])


def test_trivial_output_party_terms_allowed():
    """A party with trivial output can be touched freely on its inputs."""
    lay = switch_layout()
    # nontrivial only on C's input factors
    assert classify_term((0, 0, 0, 0, 3, 3), lay) is TermClass.ALLOWED
    # signalling into C from both A and B outputs
    assert classify_term((0, 0, 3, 3, 3, 0), lay) is TermClass.ALLOWED
    # loop among A and B ignoring C
    assert classify_term((3, 3, 3, 3, 0, 0), lay) is TermClass.FORBIDDEN


# ---------------------------------------------------------------------------
# projector
# ---------------------------------------------------------------------------


def test_projector_closed_form_equivalence_all_terms():
    """Term-rule projector equals the two-party closed form on all 256
    product terms, with coefficients exactly 0 or 1."""
    for pattern in enumerate_patterns(BIPARTITE):
        sigma = product_term(pattern, BIPARTITE)
        by_rule = PROJECT_BIPARTITE(sigma)
        by_form = project_valid_closed_form(sigma, BIPARTITE)
        np.testing.assert_allclose(by_rule, by_form, atol=1e-12)
        keep = 1.0 if classify_term(pattern, BIPARTITE) is TermClass.ALLOWED else 0.0
        np.testing.assert_allclose(by_rule, keep * sigma, atol=1e-12)


def test_projector_idempotent_on_random_input():
    rng = np.random.default_rng(21)
    m = random_hermitian(rng, 16)
    once = PROJECT_BIPARTITE(m)
    twice = PROJECT_BIPARTITE(once)
    np.testing.assert_allclose(twice, once, atol=1e-10)


def test_projector_fixes_identity_and_kills_loops():
    np.testing.assert_allclose(
        PROJECT_BIPARTITE(0.25 * np.eye(16)), 0.25 * np.eye(16)
    )
    loop = product_term((3, 3, 3, 3), BIPARTITE)
    np.testing.assert_allclose(
        PROJECT_BIPARTITE(loop), np.zeros((16, 16)), atol=1e-12
    )


def test_project_valid_wrapper_fixed_point():
    w = w_ocb()
    project = hierarchy_projector(HierarchyLevel.process(w.layout))
    fixed = project(w.matrix)
    np.testing.assert_allclose(fixed, w.matrix, atol=1e-12)
    np.testing.assert_allclose(project(fixed), fixed, atol=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_wocb_is_valid_rank_8():
    w = w_ocb()
    rep = validate(w)
    assert rep.valid
    for cond in rep.conditions:
        assert cond.residual <= 1e-9
    eigs = np.linalg.eigvalsh(w.matrix)
    np.testing.assert_allclose(np.sort(eigs), [0.0] * 8 + [0.5] * 8, atol=1e-12)


def test_switch_is_valid_rank_1():
    s = quantum_switch()
    rep = validate(s)
    assert rep.valid
    eigs = np.linalg.eigvalsh(s.matrix)
    assert int(np.sum(eigs > 1e-9)) == 1
    np.testing.assert_allclose(np.trace(s.matrix).real, 4.0, atol=1e-9)


def test_wll_fails_only_subspace():
    rep = validate(w_ll())
    assert not rep.valid
    assert rep.positivity.passed
    assert rep.trace.passed
    assert not rep.subspace.passed
    assert rep.subspace.residual > 0.1


def test_validate_flags_wrong_trace():
    w = ProcessMatrix(BIPARTITE, np.eye(16) * 0.3)
    rep = validate(w)
    assert not rep.trace.passed
    assert rep.positivity.passed and rep.subspace.passed


def test_validate_flags_negativity():
    m = 0.25 * np.eye(16) + 0.5 * product_term((3, 3, 0, 0), BIPARTITE)
    w = ProcessMatrix(BIPARTITE, m)
    rep = validate(w)
    assert not rep.positivity.passed
    assert rep.trace.passed and rep.subspace.passed


def test_process_matrix_rejects_non_hermitian():
    m = np.zeros((16, 16), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        ProcessMatrix(BIPARTITE, m)


def _lowest(m):
    return _lowest_eigenvalue(PaddedOperator.of_matrix(m, (m.shape[0],)))


def _support_block(rng, k, kind):
    """A k x k Hermitian block: indefinite, positive definite or rank one."""
    if kind == "negative":
        return random_hermitian(rng, k)
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    if kind == "rank_one":
        return np.outer(v, v.conj())
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return g @ g.conj().T / k + np.eye(k)  # lowest eigenvalue at least 1


def _padded_with_zeros(block, n, live):
    m = np.zeros((n, n), dtype=complex)
    m[np.ix_(live, live)] = block
    return m


@pytest.mark.parametrize("kind", ["negative", "psd", "rank_one"])
def test_live_block_matches_the_full_solve(kind):
    rng = np.random.default_rng(["negative", "psd", "rank_one"].index(kind))
    for n, k in ((2, 1), (9, 4), (40, 12), (64, 63)):
        live = np.sort(rng.choice(n, size=k, replace=False))
        m = _padded_with_zeros(_support_block(rng, k, kind), n, live)
        got = _lowest(m)
        assert abs(got - full_lowest_eigenvalue(m)) <= 1e-13 * max_norm(m)
        if kind == "psd":
            # the zero rows add eigenvalue 0 below the block's spectrum
            assert got == 0.0


def test_zero_matrix_has_lowest_eigenvalue_zero():
    for n in (1, 5, 64):
        m = np.zeros((n, n))
        assert _lowest(m) == 0.0 == full_lowest_eigenvalue(m)


def test_no_zero_row_solves_the_whole_matrix_bit_for_bit():
    rng = np.random.default_rng(3)
    dense = [random_hermitian(rng, n) for n in (1, 7, 32)]
    dense += [w_ocb().matrix, np.eye(16) * 0.25]
    for m in dense:
        assert _lowest(m) == full_lowest_eigenvalue(m)
    # an index whose only nonzero entry is its diagonal is live as well
    m = _padded_with_zeros(random_hermitian(rng, 6), 8, [0, 1, 2, 4, 5, 7])
    m[3, 3] = m[6, 6] = 2.0
    assert _lowest(m) == full_lowest_eigenvalue(m)


def test_an_index_live_in_its_row_or_its_column_only_is_kept():
    # the solver reads the lower triangle, where m[9, 3] = 1e-12 couples
    # index 3 (zero row) to index 9 (zero column), both with zero diagonal:
    # the lowest eigenvalue is -1e-12, where a live set read from the rows
    # only (or the columns only) drops one of them and gives 0
    rng = np.random.default_rng(5)
    m = _padded_with_zeros(_support_block(rng, 6, "psd"), 12, [0, 2, 5, 7, 8, 11])
    m[9, 3] = 1e-12
    assert is_hermitian(m)
    expected = full_lowest_eigenvalue(m)
    assert expected < -0.9e-12
    assert abs(_lowest(m) - expected) <= 1e-14


@pytest.mark.parametrize("k", [1000, 1100])
def test_live_block_of_a_2048_matrix_is_one_lapack_solve(monkeypatch, k):
    rng = np.random.default_rng(k)
    u = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    u /= np.linalg.norm(u)
    # spectrum in [1, 2] but one eigenvalue near -2, far from the rest
    block = np.diag(rng.uniform(1.0, 2.0, k)) - 3.0 * np.outer(u, u.conj())
    m = _padded_with_zeros(block, 2048, np.sort(rng.choice(2048, k, replace=False)))
    shapes, arpack = [], []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", counted)
        patch.setattr(scipy.sparse.linalg, "eigsh", lambda *a, **kw: arpack.append(a))
        got = _lowest(m)
    # one LAPACK solve of the live block, at either size
    assert shapes == [(k, k)]
    assert arpack == []
    expected = full_lowest_eigenvalue(m)  # ARPACK on the whole 2048 x 2048
    assert expected < -1.0
    assert abs(got - expected) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.booleans(), min_size=1, max_size=24),
    st.sampled_from(["negative", "psd", "rank_one"]),
    st.integers(0, 2**32 - 1),
)
def test_live_block_matches_the_full_solve_on_drawn_supports(mask, kind, seed):
    rng = np.random.default_rng(seed)
    live = np.flatnonzero(mask)
    n = len(mask)
    block = _support_block(rng, live.size, kind) if live.size else np.zeros((0, 0))
    m = _padded_with_zeros(block, n, live)
    expected = full_lowest_eigenvalue(m)
    got = _lowest(m)
    if live.size == n:
        assert got == expected
    else:
        assert got <= 0.0
        assert abs(got - expected) <= 1e-13 * max(1.0, max_norm(m))


def _assert_positivity_matches_the_full_solve(w):
    expected = full_lowest_eigenvalue(w.matrix)
    assert abs(_lowest(w.matrix) - expected) <= 1e-14
    assert abs(validate(w).positivity.residual - max(0.0, -expected)) <= 1e-14


def test_extended_switch_and_its_reductions_match_the_full_solve():
    skew = np.array([0.28 - 0.5j, 0.3 + 0.76j])
    psis = [None, np.array([0.6, 0.8j]), skew / np.linalg.norm(skew)]
    for psi in psis:
        w4 = extended_switch(psi)
        nz = w4.matrix != 0
        # the restricted path is the one taken: at most 16 of 256 are live
        assert np.count_nonzero(nz.any(0) | nz.any(1)) <= 16
        _assert_positivity_matches_the_full_solve(w4)
        for lam in (0.0, 0.3, math.pi / 4, 1.1, math.pi / 2):
            rot = np.array(
                [[math.cos(lam), -math.sin(lam)], [math.sin(lam), math.cos(lam)]]
            )
            red = instrument_reduction(w4.layout, "D", cj_of_unitary(rot))
            _assert_positivity_matches_the_full_solve(apply(red, w4))


# ---------------------------------------------------------------------------
# CJ helpers
# ---------------------------------------------------------------------------


def test_cj_of_identity_map():
    """Identity channel's CJ is |1>><<1| with trace d."""
    c = cj_of_map(np.eye(4), 2, 2)
    v = np.array([1, 0, 0, 1], dtype=complex)
    np.testing.assert_allclose(c, np.outer(v, v))
    np.testing.assert_allclose(np.trace(c), 2.0)


def test_cj_of_bit_flip():
    """CJ of conjugation by x equals the hand-built (1 (x) x)|1>><<1|(1 (x) x)."""
    c = cj_of_unitary(SX)
    v = np.array([1, 0, 0, 1], dtype=complex)
    expected = tensor(np.eye(2), SX) @ np.outer(v, v) @ tensor(np.eye(2), SX)
    np.testing.assert_allclose(c, expected)


def sweep_rotation(lam):
    return np.array([[math.cos(lam), -math.sin(lam)], [math.sin(lam), math.cos(lam)]])


def cj_cases():
    """The sweep's rotations, the identity, the flip, random complex unitaries."""
    lams = (0.0, 0.3, math.pi / 4, 1.1, math.pi / 2)
    cases = [sweep_rotation(lam) for lam in lams]
    cases += [np.eye(2), np.array([[0, 1], [1, 0]]), SX]
    rng = np.random.default_rng(61)
    return cases + [random_unitary(rng, d) for d in (2, 3, 4) for _ in range(5)]


@pytest.mark.parametrize("u", cj_cases())
def test_cj_of_unitary_is_bit_identical_to_the_superoperator_route(u):
    d = u.shape[0]
    want = cj_of_map(np.kron(u, u.conj()), d, d)
    got = cj_of_unitary(u)
    assert got.dtype == want.dtype == complex
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cj_of_unitary_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        cj_of_unitary(np.ones((2, 3)))


@pytest.mark.parametrize(
    "u", [2 * np.eye(2), np.ones((2, 2)), np.array([[np.nan, 0], [0, 1]])]
)
def test_cj_of_unitary_refuses_a_non_unitary_matrix(u):
    # 2 * 1 once gave a CJ of trace 8, which a reduction turned into a
    # process of trace 16
    with pytest.raises(ValueError, match="matrix is not unitary within tolerance"):
        cj_of_unitary(u)


def test_cj_of_depolarizing():
    """Averaging the four Pauli conjugations gives C = 1/2 on two qubits."""
    paulis = [np.eye(2, dtype=complex), SX, np.array([[0, -1j], [1j, 0]]), SZ]
    smat = sum(np.kron(p, p.conj()) for p in paulis) / 4.0
    np.testing.assert_allclose(cj_of_map(smat, 2, 2), np.eye(4) / 2, atol=1e-12)


def test_channel_cj_trace_preserving():
    rng = np.random.default_rng(33)
    c = random_channel_cj(rng, 2, 3)
    np.testing.assert_allclose(partial_trace(c, (2, 3), [1]), np.eye(2), atol=1e-9)


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------


def test_shared_state_probabilities_match_direct_born_rule():
    """Measure-and-discard instruments on a shared state reduce to ordinary
    state measurement probabilities, computed independently."""
    rng = np.random.default_rng(41)
    rho = random_density(rng, 4)
    w = shared_state(rho)
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]

    def measure_discard(party, effects):
        # measure E_i, then prepare maximally mixed: C_i = E_i^T (x) 1/2
        els = tuple(tensor(e.T, np.eye(2)) / 2 for e in effects)
        return Instrument(party, els, 2, 2)

    table = born_probabilities(
        w, [measure_discard("A", [plus, minus]), measure_discard("B", povm)]
    )
    # independent contraction: p_ij = Tr(rho (E_i (x) F_j))
    for i, e in enumerate([plus, minus]):
        for j, f in enumerate(povm):
            direct = np.trace(rho @ tensor(e, f)).real
            np.testing.assert_allclose(table[i, j], direct, atol=1e-12)
    np.testing.assert_allclose(table.sum(), 1.0, atol=1e-12)


def test_grandfather_paradox_zero_probabilities():
    """The causal-loop matrix with the anti-aligned instrument."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = born_probabilities(w_ll(), [grandfather_instrument()])
    np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-12)


def test_born_warns_on_invalid_process():
    with pytest.warns(UserWarning):
        born_probabilities(w_ll(), [grandfather_instrument()])


def test_probability_normalization_named_processes():
    """Sum to one over random trace-preserving instruments (seeded)."""
    rng = np.random.default_rng(43)
    cases = [w_ocb(), quantum_switch(), shared_state(random_density(rng, 4))]
    for w in cases:
        for _ in range(5):
            instruments = [
                random_instrument(rng, w.layout, p.name) for p in w.layout.parties
            ]
            table = born_probabilities(w, instruments, check=False)
            np.testing.assert_allclose(table.sum(), 1.0, atol=1e-9)
            assert table.min() >= -1e-9


def test_projected_matrices_normalize_probabilities():
    """Random Hermitian input, projected and rescaled, gives sum-1 tables on
    the tripartite switch layout even without positivity."""
    rng = np.random.default_rng(47)
    lay = switch_layout()
    project = hierarchy_projector(HierarchyLevel.process(lay))
    for _ in range(10):
        g = random_hermitian(rng, lay.dim)
        m = project(g)
        m = m + np.eye(lay.dim) * 0.01  # keep trace nonzero, stay in span
        m = m * (lay.d_out / np.trace(m).real)
        w = ProcessMatrix(lay, m)
        instruments = [random_instrument(rng, lay, p.name) for p in lay.parties]
        table = born_probabilities(w, instruments, check=False)
        np.testing.assert_allclose(table.sum(), 1.0, atol=1e-9)


def test_born_rejects_mismatched_instruments():
    w = w_ocb()
    with pytest.raises(ValueError):
        born_probabilities(w, [grandfather_instrument()])


def test_born_table_of_a_partyless_process_is_its_trace():
    empty = SpaceLayout((), ())
    for w in (ProcessMatrix(empty, [[0.5]]), ProcessMatrix.of_vector(empty, [0.5])):
        table = born_probabilities(w, [], check=False)
        assert table.shape == () and table == w.matrix[0, 0].real


BORN_LAYOUTS = {
    # party C has two input factors and no output
    "switch": switch_layout(),
    # A's output comes first and its input sits past B's input
    "interleaved": SpaceLayout.build(
        [("A_O", 2), ("B_I", 3), ("A_I", 2), ("B_O", 2)],
        [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
    ),
    "qutrit-qubit": SpaceLayout.build(
        [("A_I", 3), ("B_I", 2), ("A_O", 2), ("B_O", 3)],
        [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
    ),
    # an output-less party listed first, a party with no input last
    "no-outputs": SpaceLayout.build(
        [("A_I", 2), ("F_I", 3), ("A_O", 2), ("P_O", 2)],
        [("F", ["F_I"], []), ("A", ["A_I"], ["A_O"]), ("P", [], ["P_O"])],
    ),
}


@pytest.mark.parametrize("name", BORN_LAYOUTS)
@pytest.mark.parametrize("order", ["layout", "reversed"])
def test_born_table_matches_the_kronecker_oracle(name, order):
    """Entry by entry against one full Kronecker product per combination,
    on any Hermitian operator, with a different outcome count per party."""
    lay = BORN_LAYOUTS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    w = ProcessMatrix(lay, random_hermitian(rng, lay.dim))
    instruments = [
        random_instrument(rng, lay, p.name, n_outcomes=2 + k)
        for k, p in enumerate(lay.parties)
    ]
    if order == "reversed":
        instruments.reverse()
    table = born_probabilities(w, instruments, check=False)
    expected = kron_born_probabilities(w, instruments)
    assert table.shape == expected.shape == tuple(range(2, 2 + len(lay.parties)))
    assert table.dtype == np.float64
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(layouts(max_dim=48), st.integers(0, 2**32 - 1))
def test_born_table_matches_the_kronecker_oracle_on_drawn_layouts(lay, seed):
    rng = np.random.default_rng(seed)
    w = ProcessMatrix(lay, random_hermitian(rng, lay.dim))
    instruments = [
        random_instrument(rng, lay, p.name, n_outcomes=1 + k)
        for k, p in enumerate(lay.parties)
    ]
    table = born_probabilities(w, instruments[::-1], check=False)
    expected = kron_born_probabilities(w, instruments)
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_shared_state_valid_no_signalling():
    rng = np.random.default_rng(51)
    w = shared_state(random_density(rng, 4))
    assert validate(w).valid
    assert causal_order_flags(w) is CausalOrderFlag.NO_SIGNALLING


def _discard_and_prepare(party="A", d_in=2, d_out=2):
    """The one-element instrument: discard the input, prepare ``|0>``."""
    prepare = np.zeros((d_out, d_out))
    prepare[0, 0] = 1.0
    return Instrument(party, (np.kron(np.eye(d_in), prepare),), d_in, d_out)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: ProcessMatrix(bipartite_qubit_layout(), np.eye(4)),
            ValueError,
            r"matrix shape \(4, 4\) does not match layout dim 16",
        ),
        (
            lambda: Instrument("A", (), 2, 2),
            ValueError,
            "instrument needs at least one element",
        ),
        (
            lambda: Instrument("A", (np.eye(2),), 2, 2),
            ValueError,
            r"element 0 of instrument 'A' has shape \(2, 2\), expected \(4, 4\)",
        ),
        (
            lambda: Instrument("A", (np.triu(np.ones((4, 4))),), 2, 2),
            ValueError,
            "element 0 of instrument 'A' not Hermitian",
        ),
        (lambda: validate(w_ocb()).condition("nope"), KeyError, "nope"),
        (
            lambda: classify_term((0, 0, 0), bipartite_qubit_layout()),
            ValueError,
            "pattern length 3 != 4",
        ),
        (
            lambda: classify_term((0, 0, 0, 4), bipartite_qubit_layout()),
            ValueError,
            "index 4 out of range for factor dimension 2",
        ),
        (
            lambda: born_probabilities(
                w_ocb(),
                [_discard_and_prepare()] * 2 + [_discard_and_prepare("B")],
            ),
            ValueError,
            "duplicate instrument for a party",
        ),
        (
            lambda: born_probabilities(
                w_ocb(), [_discard_and_prepare(d_out=1), _discard_and_prepare("B")]
            ),
            ValueError,
            r"instrument for party 'A' has dims \(2, 1\), layout expects \(2, 2\)",
        ),
        (
            lambda: shared_state(np.eye(2) / 2),
            ValueError,
            r"shared state must have shape \(4, 4\), got \(2, 2\)",
        ),
        (
            lambda: shared_state(np.triu(np.ones((4, 4))) / 4),
            ValueError,
            "shared state must be Hermitian",
        ),
        (
            lambda: shared_state(np.diag([2.0, -1.0, 0.0, 0.0])),
            ValueError,
            "shared state must be positive semidefinite",
        ),
        (
            lambda: memory_channel(np.eye(2) / 2, np.eye(4), layout=switch_layout()),
            ValueError,
            "memory_channel needs a two-party layout",
        ),
        (
            lambda: memory_channel(np.eye(2) / 2, np.eye(4), "up"),
            ValueError,
            "direction must be 'a_to_b' or 'b_to_a', got 'up'",
        ),
        (
            lambda: memory_channel(np.eye(2) / 2, np.eye(2)),
            ValueError,
            r"channel CJ shape \(2, 2\), expected \(4, 4\)",
        ),
        (
            lambda: causal_order_flags(w_ll()),
            ValueError,
            "causal_order_flags needs at least two parties",
        ),
        (
            lambda: causal_order_flags(extended_switch()),
            ValueError,
            "party 'D' has outputs; its slot in the order is ambiguous",
        ),
    ],
    ids=[
        "process-of-wrong-shape",
        "instrument-without-elements",
        "instrument-element-of-wrong-shape",
        "instrument-element-not-hermitian",
        "unknown-condition",
        "term-of-wrong-length",
        "term-index-out-of-range",
        "two-instruments-for-one-party",
        "instrument-of-wrong-dims",
        "shared-state-of-wrong-shape",
        "shared-state-not-hermitian",
        "shared-state-not-positive",
        "memory-channel-on-three-parties",
        "memory-channel-direction-up",
        "memory-channel-cj-of-wrong-shape",
        "flags-of-one-party",
        "flags-with-a-third-party-with-outputs",
    ],
)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_shared_state_rejects_non_density():
    with pytest.raises(ValueError):
        shared_state(np.eye(4))  # trace 4, not 1


def test_memory_channel_valid_and_ordered():
    rng = np.random.default_rng(53)
    rho = random_density(rng, 2)
    cj = random_channel_cj(rng, 2, 2)
    w = memory_channel(rho, cj, "a_to_b")
    assert validate(w).valid
    assert causal_order_flags(w) is CausalOrderFlag.A_TO_B
    wb = memory_channel(rho, cj, "b_to_a")
    assert validate(wb).valid
    assert causal_order_flags(wb) is CausalOrderFlag.B_TO_A


def test_memory_channel_identity_is_deterministic_wire():
    """Identity channel from A to B transfers the state exactly."""
    rho = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    cid = cj_of_map(np.eye(4), 2, 2)
    w = memory_channel(rho, cid, "a_to_b")
    assert validate(w).valid
    # B measures its input with the computational POVM, A wires through
    wire = Instrument("A", (cid,), 2, 2)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    meas = Instrument("B", (tensor(p0, p0), tensor(p1, p1)), 2, 2)
    table = born_probabilities(w, [wire, meas])
    np.testing.assert_allclose(table[0], [0.75, 0.25], atol=1e-12)


# A's factors are qutrits and every party's factors are apart; in
# TWO_INPUTS party A reads two input factors, with others between them
SHUFFLED = SpaceLayout.build(
    [("B_O", 2), ("A_I", 3), ("B_I", 2), ("A_O", 3)],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
)
TWO_INPUTS = SpaceLayout.build(
    [("A_I1", 2), ("B_I", 2), ("A_O", 2), ("A_I2", 2), ("B_O", 2)],
    [("A", ["A_I1", "A_I2"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
)


@pytest.mark.parametrize("complex_rho", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "layout", [BIPARTITE, SHUFFLED, TWO_INPUTS], ids=["bip", "shuffled", "two_inputs"]
)
def test_padded_processes_match_the_kronecker_oracle(layout, complex_rho):
    rng = np.random.default_rng(layout.dim + complex_rho)

    def dim(facs):
        return math.prod(layout.dims[k] for k in facs)

    def density(d):
        rho = random_density(rng, d)
        return rho if complex_rho else rho.real.astype(complex)

    a, b = layout.parties
    rho = density(dim(a.inputs + b.inputs))
    expected = kron_padded(rho, a.inputs + b.inputs, layout)
    assert np.array_equal(shared_state(rho, layout).matrix, expected)
    for direction, (first, second) in (("a_to_b", (a, b)), ("b_to_a", (b, a))):
        rho = density(dim(first.inputs))
        cj = random_channel_cj(rng, dim(first.outputs), dim(second.inputs))
        w = memory_channel(rho, cj, direction, layout)
        expected = kron_memory_channel(rho, cj, direction, layout)
        if direction == "b_to_a" and complex_rho:
            # the oracle multiplies cj by rho, pmx rho by cj: the complex
            # products may round differently
            assert max_norm(w.matrix - expected) <= 1e-15 * max_norm(expected)
        else:
            assert np.array_equal(w.matrix, expected)
        assert validate(w).valid


def test_slot1_marginal_equals_the_partial_trace_on_a_qutrit_pair():
    level = HierarchyLevel.pair(
        HierarchyLevel.process(single_party_layout(3, 3)),
        HierarchyLevel.process(single_party_layout(3, 2)),
    )
    dims = level.dims
    rng = np.random.default_rng(58)

    def block(facs):
        return random_hermitian(rng, math.prod(dims[k] for k in facs)).reshape(
            tuple(dims[k] for k in facs) * 2
        )

    v = rng.standard_normal(level.dim) + 1j * rng.standard_normal(level.dim)
    ops = [
        PaddedOperator.of_matrix(random_hermitian(rng, level.dim), dims),
        PaddedOperator.of_vector(v, dims),
        # kept factors out of order, and padding on both slots
        PaddedOperator(dims, [3, 0], g=block([3, 0])),
        PaddedOperator(dims, [1], g=block([1])),
        PaddedOperator(dims, [2, 3], g=block([2, 3])),
    ]
    for op in ops:
        expected = partial_trace(op.dense(), dims, [2, 3])
        marg = _slot1_marginal(op, 2)
        assert marg.shape == (9, 9)
        assert max_norm(marg - expected) <= 1e-13 * max_norm(expected)


def test_non_finite_process_matrix_is_rejected():
    # it once passed the Hermiticity check, and validate then raised
    # LinAlgError from the eigenvalue solver
    with pytest.raises(ValueError, match="Hermitian"):
        ProcessMatrix(BIPARTITE, np.full((16, 16), np.nan))
    # held by its vector: 1e200 is finite, but its outer product is not
    for bad in (np.nan, np.inf, 1e200):
        with pytest.raises(ValueError, match="process matrix must be Hermitian"):
            ProcessMatrix.of_vector(BIPARTITE, np.full(16, bad))


def test_wocb_coefficients():
    coeffs = hs_decompose(w_ocb().matrix, BIPARTITE)
    assert set(coeffs) == {(0, 0, 0, 0), (0, 3, 3, 0), (3, 1, 0, 3)}
    np.testing.assert_allclose(coeffs[(0, 0, 0, 0)], 0.25)
    np.testing.assert_allclose(coeffs[(0, 3, 3, 0)], 0.25 / np.sqrt(2.0))
    np.testing.assert_allclose(coeffs[(3, 1, 0, 3)], 0.25 / np.sqrt(2.0))


def test_wocb_flags_neither():
    assert causal_order_flags(w_ocb()) is CausalOrderFlag.NEITHER


def test_switch_trace_against_hand_built_vector():
    """Independent construction of the switch vector by explicit loops."""
    s = quantum_switch()
    vec = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    psi = [1.0, 0.0]
    for a in range(2):
        for i in range(2):
            for j in range(2):
                # first branch: A_I = a, A_O = B_I = i, B_O = C_T = j, control 0
                vec[a, i, i, j, j, 0] += psi[a] / np.sqrt(2)
                # second branch: B_I = b, B_O = A_I = i, A_O = C_T = j, control 1
                vec[i, a, j, i, j, 1] += psi[a] / np.sqrt(2)
    flat = vec.reshape(-1)
    np.testing.assert_allclose(s.matrix, np.outer(flat, flat.conj()), atol=1e-12)
    np.testing.assert_allclose(np.trace(s.matrix).real, 4.0)


def test_switch_branches_swap_related():
    """Exchanging A and B on inputs and outputs maps one branch to the other."""
    psi = np.array([0.6, 0.8], dtype=complex)
    abc, bac = switch_branch_vectors(psi, 2)
    t = abc.reshape(2, 2, 2, 2, 2)
    swapped = t.transpose(1, 0, 3, 2, 4).reshape(-1)
    np.testing.assert_allclose(swapped, bac)


def test_switch_with_general_target_state():
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    s = quantum_switch(psi)
    assert validate(s).valid
    with pytest.raises(ValueError):
        quantum_switch(np.array([1.0, 1.0]))  # unnormalized


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_amplitudes_are_refused_as_unnormalized(bad):
    with pytest.raises(ValueError, match="psi must be normalized"):
        quantum_switch(np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="psi must be normalized"):
        extended_switch(np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="control must be normalized"):
        switch_input_channel(control=np.array([bad, 1.0]))


def test_extended_switch_valid_trace_8():
    w = extended_switch()
    rep = validate(w)
    assert rep.valid
    np.testing.assert_allclose(np.trace(w.matrix).real, 8.0, atol=1e-9)


def test_extended_switch_branch_overlaps():
    """The two embedded branches are orthogonal with norm-squared 4 each."""
    psi = np.array([1.0, 0.0])
    v1, v2 = extended_branch_vectors(psi)
    np.testing.assert_allclose(np.vdot(v1, v1), 4.0)
    np.testing.assert_allclose(np.vdot(v2, v2), 4.0)
    np.testing.assert_allclose(np.vdot(v1, v2), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# pure processes held by their vectors
# ---------------------------------------------------------------------------


def _psis():
    skew = np.array([0.28 - 0.5j, 0.3 + 0.76j])
    return [None, np.array([0.6, 0.8j]), skew / np.linalg.norm(skew)]


def _target(psi):
    return np.array([1.0, 0.0], dtype=complex) if psi is None else psi


def pure_processes(psi):
    """Each pure constructor's process and its amplitude vector, built by hand."""
    abc, bac = switch_branch_vectors(_target(psi), 2)
    switch = np.stack([abc, bac], axis=1).reshape(-1) / np.sqrt(2.0)
    control = np.array([0.6, 0.8j])
    v1, v2 = extended_branch_vectors(_target(psi))
    return [
        (quantum_switch(psi), switch),
        (switch_input_channel(psi), np.kron(abc, np.full(2, 1.0 / np.sqrt(2.0)))),
        (switch_input_channel(psi, control), np.kron(abc, control)),
        (extended_switch(psi), v1 + v2),
    ]


@pytest.fixture
def no_dense_build(monkeypatch):
    """Make reading ``matrix`` of a process held by its vector raise."""
    read = ProcessMatrix.matrix.fget

    def refuse(w):
        if w.vector is not None:
            raise AssertionError(f"built the {w.dim}^2 matrix of a vector-held process")
        return read(w)

    monkeypatch.setattr(ProcessMatrix, "matrix", property(refuse))


def test_a_sweep_operation_never_builds_the_extended_switch_matrix(no_dense_build):
    rng = np.random.default_rng(29)
    reduced = switch_layout()
    instruments = [random_instrument(rng, reduced, p.name) for p in reduced.parties]
    for psi in _psis():
        w4 = extended_switch(psi)
        assert validate(w4).valid
        for lam in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            red = instrument_reduction(w4.layout, "D", cj_of_unitary(sweep_rotation(lam)))
            out = apply(red, w4)
            assert out.vector is None and out.dim == 64
            assert validate(out).valid
            causal_order_flags(out)
            probs = born_probabilities(out, instruments, check=False)
            assert abs(probs.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("make", [extended_switch, quantum_switch])
def test_born_table_of_a_vector_needs_no_matrix(make, no_dense_build):
    w = make()
    dense = ProcessMatrix(w.layout, np.outer(w.vector, w.vector.conj()))
    rng = np.random.default_rng(w.dim)
    instruments = [
        random_instrument(rng, w.layout, p.name, n_outcomes=2 + k)
        for k, p in enumerate(w.layout.parties)
    ]
    expected = born_probabilities(dense, instruments, check=False)
    table = born_probabilities(w, instruments)
    assert table.shape == expected.shape
    assert np.abs(table - expected).max() <= 1e-14


def test_the_reduction_of_a_vector_matches_that_of_its_matrix():
    for psi in _psis():
        w4 = extended_switch(psi)
        dense = ProcessMatrix(w4.layout, w4.matrix)
        for lam in (0.0, 0.3, math.pi / 4, 1.1, math.pi / 2):
            red = instrument_reduction(w4.layout, "D", cj_of_unitary(sweep_rotation(lam)))
            assert max_norm(apply(red, w4).matrix - apply(red, dense).matrix) <= 1e-15


@pytest.mark.parametrize("psi", _psis())
def test_pure_constructors_hold_the_vector_of_their_matrix(psi):
    for w, vec in pure_processes(psi):
        assert np.array_equal(w.vector.view(np.uint64), vec.view(np.uint64))
        assert not w.vector.flags.writeable
        m = w.matrix
        want = np.outer(vec, vec.conj())
        assert np.array_equal(m.view(np.uint64), want.view(np.uint64))
        # built once, read-only
        assert w.matrix is m and not m.flags.writeable


@pytest.mark.parametrize("psi", _psis())
def test_validate_of_a_vector_matches_that_of_its_matrix(psi):
    cases = [w for w, _ in pure_processes(psi)]
    # invalid ones: a causal loop (subspace) and a doubled amplitude (trace)
    cases.append(ProcessMatrix.of_vector(single_party_layout(), [1, 0, 0, 1]))
    cases.append(ProcessMatrix.of_vector(switch_layout(), 2 * quantum_switch(psi).vector))
    for w in cases:
        got = validate(w)
        want = validate(ProcessMatrix(w.layout, w.matrix))
        assert got.positivity.residual == 0.0
        assert got.valid == want.valid
        for g, x in zip(got.conditions, want.conditions):
            assert g.name == x.name and g.passed == x.passed
            assert abs(g.residual - x.residual) <= 1e-13


def test_causal_order_flags_read_the_vector(no_dense_build):
    assert causal_order_flags(quantum_switch()) == CausalOrderFlag.NEITHER
    assert causal_order_flags(switch_input_channel()) == CausalOrderFlag.A_TO_B
    order = ["A", "B", "D", "C"]
    assert comb_order_satisfied(extended_switch(), order) is False


def test_a_vector_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="does not match layout dim 16"):
        ProcessMatrix.of_vector(BIPARTITE, np.ones(4))
    with pytest.raises(ValueError, match="does not match layout dim 16"):
        ProcessMatrix.of_vector(BIPARTITE, np.eye(4))


# ---------------------------------------------------------------------------
# causal order flags
# ---------------------------------------------------------------------------


def test_flags_on_pure_signalling_terms():
    base = 0.25 * np.eye(16)
    ab = ProcessMatrix(
        BIPARTITE, base + 0.1 * product_term((0, 3, 3, 0), BIPARTITE)
    )
    assert causal_order_flags(ab) is CausalOrderFlag.A_TO_B
    ba = ProcessMatrix(
        BIPARTITE, base + 0.1 * product_term((3, 0, 0, 3), BIPARTITE)
    )
    assert causal_order_flags(ba) is CausalOrderFlag.B_TO_A
    both = ProcessMatrix(
        BIPARTITE,
        base
        + 0.05 * product_term((0, 3, 3, 0), BIPARTITE)
        + 0.05 * product_term((3, 0, 0, 3), BIPARTITE),
    )
    assert causal_order_flags(both) is CausalOrderFlag.NEITHER


def test_comb_order_bipartite_consistency():
    rng = np.random.default_rng(61)
    w = memory_channel(random_density(rng, 2), random_channel_cj(rng, 2, 2))
    assert comb_order_satisfied(w, ["A", "B"])
    assert not comb_order_satisfied(w, ["B", "A"])
    ns = shared_state(random_density(rng, 4))
    assert comb_order_satisfied(ns, ["A", "B"])
    assert comb_order_satisfied(ns, ["B", "A"])


def test_comb_order_switch_is_indefinite():
    s = quantum_switch()
    assert not comb_order_satisfied(s, ["A", "B", "C"])
    assert not comb_order_satisfied(s, ["B", "A", "C"])


def test_comb_order_rejects_bad_party_list():
    with pytest.raises(ValueError):
        comb_order_satisfied(w_ocb(), ["A"])


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


def test_instrument_rejects_non_tp_sum():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        Instrument("A", (tensor(p0, p0),), 2, 2)


def test_instrument_rejects_negative_element():
    cid = cj_of_map(np.eye(4), 2, 2)
    with pytest.raises(ValueError):
        Instrument("A", (cid, -0.0001 * np.eye(4), 0.0001 * np.eye(4)), 2, 2)


def test_instrument_trivial_output_party():
    """A destructive measurement on the switch's C party (trivial output)."""
    lay = switch_layout()
    povm = [np.kron(np.diag([1.0, 0.0]), np.eye(2)), np.kron(np.diag([0.0, 1.0]), np.eye(2))]
    inst = Instrument.from_party(lay, "C", tuple(p.astype(complex) for p in povm))
    assert inst.d_in == 4 and inst.d_out == 1
