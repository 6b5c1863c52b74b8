"""Tests for supermap validity, application, constructors, and the hierarchy."""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    coefficient_tensor,
    dense_cj,
    dense_constant_cj,
    dense_interpolation_cj,
    from_coefficient_tensor,
    permute_factors,
    permuted_reduction,
    product_term,
    superoperator_reduction_cj,
)
import pmx.process_space
import pmx.supermaps
from pmx import operator_core
from pmx.operator_core import (
    SpaceLayout,
    max_norm,
    partial_trace,
    tensor,
)
from pmx.process_space import (
    CausalOrderFlag,
    ProcessMatrix,
    allowed_mask,
    bipartite_qubit_layout,
    causal_order_flags,
    cj_of_unitary,
    extended_switch,
    extended_switch_layout,
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
from pmx.supermaps import (
    HierarchyLevel,
    Supermap,
    apply,
    c_swap_unitary,
    c_swap_v,
    constant_map,
    hierarchy_projector,
    instrument_reduction,
    interpolation_map,
    unitary_supermap,
    v_lambda,
    v_lambda_hamiltonian,
    v_lambda_unitary,
    validate_order_n,
    validate_supermap,
)
from test_order_projector import layouts

BIP = bipartite_qubit_layout()
SWITCH = switch_layout()
TOY = single_party_layout()
ONE_DIM = SpaceLayout.build([("E", 1)], [("E", ["E"], [])])
SEVEN_LABELS = ["A_I", "B_I", "A_O", "B_O", "C_1", "C_2", "C_3"]
SEVEN = SpaceLayout.build(
    [(label, 2) for label in SEVEN_LABELS],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"]), ("C", SEVEN_LABELS[4:], [])],
)
E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotation(lam):
    return np.array([[np.cos(lam), -np.sin(lam)], [np.sin(lam), np.cos(lam)]])


def random_valid_process(rng, layout, scale=1.0):
    project = hierarchy_projector(HierarchyLevel.process(layout))
    x = project(random_hermitian(rng, layout.dim) * scale)
    lo = float(np.linalg.eigvalsh(x)[0])
    x = x + (abs(lo) + 0.1) * np.eye(layout.dim)
    w = ProcessMatrix(layout, x * (layout.d_out / np.trace(x).real))
    assert validate(w).valid
    return w


def random_channel_cj(rng, d):
    # Stinespring draw: a random isometry's channel is CPTP by construction
    v = random_unitary(rng, d * d)[:, :d]
    c = np.zeros((d * d, d * d), dtype=complex)
    for kraus in v.reshape(d, d, d):  # environment index first
        vec = kraus.T.reshape(-1)
        c += np.outer(vec, vec.conj())
    return c


def joint_masks(l1, l2):
    q1 = tuple(d * d for d in l1.dims)
    q2 = tuple(d * d for d in l2.dims)
    m1 = allowed_mask(l1).reshape(q1 + (1,) * len(q2))
    m2 = allowed_mask(l2).reshape((1,) * len(q1) + q2)
    return m1, m2


def depolarizing_supermap_cj(l1, l2):
    return np.eye(l1.dim * l2.dim) * (l2.d_out / l2.dim / l1.d_out)


def random_valid_supermap_cj(rng, l1, l2, strength=0.3):
    """Random CJ passing all three conditions: mask-project, trace-fix, mix."""
    d1, d2 = l1.dim, l2.dim
    dims = l1.dims + l2.dims
    c = coefficient_tensor(random_hermitian(rng, d1 * d2) * strength, dims)
    m1, m2 = joint_masks(l1, l2)
    x = from_coefficient_tensor(np.where(m1 & ~m2, 0.0, c), dims)
    ratio = l2.d_out / l1.d_out
    marg = partial_trace(x, (d1, d2), [1])
    x = x - np.kron(marg - ratio * np.eye(d1), np.eye(d2)) / d2
    floor = l2.d_out / d2 / l1.d_out
    lo = float(np.linalg.eigvalsh(x)[0])
    t = 0.9 * floor / (floor - lo) if lo < floor else 0.9
    cj = (1.0 - t) * depolarizing_supermap_cj(l1, l2) + t * x
    return (cj + cj.conj().T) / 2


def bump_pattern_pair(rng, l1, l2):
    s_all = np.argwhere(allowed_mask(l1))
    u_forb = np.argwhere(~allowed_mask(l2))
    s0 = tuple(int(v) for v in s_all[rng.integers(len(s_all))])
    u0 = tuple(int(v) for v in u_forb[rng.integers(len(u_forb))])
    return s0, u0


def random_bad_supermap_cj(rng, l1, l2):
    """Satisfies positivity and trace rescaling, violates the span condition."""
    cj = random_valid_supermap_cj(rng, l1, l2)
    s0, u0 = bump_pattern_pair(rng, l1, l2)
    delta = 0.02 * (l2.d_out / l2.dim / l1.d_out)
    bump = delta * product_term(s0 + u0, l1.dims + l2.dims)
    return cj + bump, s0, u0, delta


def off_span_residual(w):
    project = hierarchy_projector(HierarchyLevel.process(w.layout))
    return max_norm(w.matrix - project(w.matrix))


# ---------------------------------------------------------------------------
# validate_supermap on the simple constructors
# ---------------------------------------------------------------------------


def test_identity_conjugation_is_valid():
    r = validate_supermap(unitary_supermap(np.eye(BIP.dim), BIP))
    assert r.valid
    assert r.positivity.residual == 0.0
    assert r.trace.residual <= 1e-12


def test_local_unitary_conjugation_is_valid():
    rng = np.random.default_rng(7)
    u = tensor(*(random_unitary(rng, 2) for _ in range(4)))
    r = validate_supermap(unitary_supermap(u, BIP))
    assert r.valid


def test_input_output_mixing_unitary_fails_span_condition():
    # exchanging A's input with A's output maps allowed terms onto bare
    # output terms
    perm = np.eye(BIP.dim).reshape((2,) * 8)
    perm = perm.transpose(2, 1, 0, 3, 4, 5, 6, 7).reshape(BIP.dim, BIP.dim)
    r = validate_supermap(unitary_supermap(perm, BIP))
    assert not r.valid
    assert r.positivity.passed and r.trace.passed
    assert not r.subspace.passed


def test_unitary_supermap_cj_is_the_cj_of_its_unitary():
    rng = np.random.default_rng(19)
    perm = np.eye(BIP.dim).reshape((2,) * 8)
    perm = perm.transpose(2, 1, 0, 3, 4, 5, 6, 7).reshape(BIP.dim, BIP.dim)
    cases = [
        (tensor(*(random_unitary(rng, 2) for _ in range(4))), BIP),
        (random_unitary(rng, BIP.dim), BIP),
        (perm, BIP),
        (random_unitary(rng, 4), single_party_layout()),
    ]
    for u, layout in cases:
        assert np.array_equal(dense_cj(unitary_supermap(u, layout)), cj_of_unitary(u))


def test_unitary_supermap_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        unitary_supermap(np.ones((16, 16)), BIP)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: unitary_supermap(np.eye(2), BIP),
            r"unitary shape \(2, 2\), expected \(16, 16\)",
        ),
        (
            lambda: instrument_reduction(
                SpaceLayout.build(
                    [("A_I", 2), ("A_O", 2)],
                    [("A", ["A_I"], ["A_O"]), ("E", [], [])],
                ),
                "E",
                np.eye(1),
            ),
            "party 'E' has no factors to reduce over",
        ),
    ],
    ids=["unitary-of-wrong-shape", "reduction-over-a-party-without-factors"],
)
def test_bad_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_unitary_supermap_rejects_a_nan_unitary():
    # a nan deviation once compared false against the tolerance, and the
    # positivity of the nan supermap then read 0
    with pytest.raises(ValueError, match="not unitary"):
        v_lambda(float("nan"))


def test_constant_map_onto_valid_process_is_valid():
    r = validate_supermap(constant_map(w_ocb(), BIP))
    assert r.valid


def test_constant_map_onto_invalid_process_fails_span_only():
    r = validate_supermap(constant_map(w_ll(), BIP))
    assert not r.valid
    assert r.positivity.passed and r.trace.passed
    assert not r.subspace.passed


def test_interpolation_endpoints():
    rng = np.random.default_rng(3)
    wt = w_ocb()
    w = random_valid_process(rng, BIP)
    s0 = interpolation_map(wt, 0.0)
    s1 = interpolation_map(wt, 1.0)
    assert max_norm(apply(s0, w).matrix - w.matrix) <= 1e-12
    assert max_norm(apply(s1, w).matrix - wt.matrix) <= 1e-12


def test_interpolation_mixture_is_valid_and_interpolates():
    rng = np.random.default_rng(4)
    wt = w_ocb()
    w = random_valid_process(rng, BIP)
    s = interpolation_map(wt, 0.3)
    assert validate_supermap(s).valid
    expect = 0.7 * w.matrix + 0.3 * wt.matrix
    assert max_norm(apply(s, w).matrix - expect) <= 1e-12


def test_interpolation_weight_out_of_range():
    for p in (-0.1, 1.1):
        with pytest.raises(ValueError, match="mixing weight"):
            interpolation_map(w_ocb(), p)


def test_supermap_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="CJ"):
        Supermap(BIP, BIP)
    with pytest.raises(ValueError, match="shape"):
        Supermap(BIP, BIP, cj=np.eye(17))
    with pytest.raises(ValueError, match="length"):
        Supermap(BIP, BIP, cj_vector=np.ones(17))


def test_supermap_refuses_a_cj_and_a_cj_vector_together():
    # the vector was silently ignored, so this pair was the identity map
    # whatever the vector said
    with pytest.raises(ValueError, match="not both"):
        Supermap(
            BIP, BIP, cj=cj_of_unitary(np.eye(BIP.dim)), cj_vector=np.zeros(BIP.dim**2)
        )


def test_dense_cj_above_the_cap_is_refused_where_it_enters(monkeypatch):
    # patched below BIP's 256, so no test allocates a dense CJ above 4096^2
    monkeypatch.setattr(pmx.process_space, "MAX_CJ_DIM", 255)
    with pytest.raises(ValueError, match="dense CJ side 256 > MAX_CJ_DIM = 255"):
        Supermap(BIP, BIP, cj=cj_of_unitary(np.eye(BIP.dim)))
    monkeypatch.setattr(pmx.process_space, "MAX_CJ_DIM", 256)
    identity = Supermap(BIP, BIP, cj=cj_of_unitary(np.eye(BIP.dim)))
    assert validate_supermap(identity).valid


def test_dense_cj_is_a_copy_the_caller_cannot_edit():
    m = cj_of_unitary(np.eye(BIP.dim))
    s = Supermap(BIP, BIP, cj=m)
    out, report = apply(s, w_ocb()).matrix, validate_supermap(s)
    m[0, 5] += 1.0
    assert np.array_equal(apply(s, w_ocb()).matrix, out)
    assert validate_supermap(s) == report and report.valid


def test_reduction_element_is_a_copy_the_caller_cannot_edit():
    c = cj_of_unitary(np.eye(2))
    red = instrument_reduction(extended_switch_layout(), "D", c)
    out = apply(red, extended_switch()).matrix
    c[0, 1] += 1.0
    assert np.array_equal(apply(red, extended_switch()).matrix, out)


def test_unitary_supermap_of_a_fortran_ordered_unitary_keeps_a_copy():
    # U^T of an F-ordered U is C-ordered, so reading it row by row is a view
    rng = np.random.default_rng(5)
    u = np.asfortranarray(tensor(*(random_unitary(rng, 2) for _ in range(4))))
    s = unitary_supermap(u, BIP)
    out = apply(s, w_ocb()).matrix
    u[0, 0] = 5.0
    assert np.array_equal(apply(s, w_ocb()).matrix, out)


def test_apply_layout_mismatch_raises():
    with pytest.raises(ValueError, match="layout"):
        apply(unitary_supermap(np.eye(BIP.dim), BIP), quantum_switch())


def test_pure_and_dense_application_paths_agree():
    rng = np.random.default_rng(11)
    u = tensor(*(random_unitary(rng, 2) for _ in range(4)))
    pure = unitary_supermap(u, BIP)
    dense = Supermap(BIP, BIP, cj=cj_of_unitary(u))
    w = random_valid_process(rng, BIP)
    out_p = apply(pure, w).matrix
    out_d = apply(dense, w).matrix
    assert max_norm(out_p - out_d) <= 1e-12
    assert max_norm(out_p - u @ w.matrix @ u.conj().T) <= 1e-12


def target_processes(rng, layout):
    """A valid process, a span-violating one and one with a negative eigenvalue.

    Each has entries of modulus at most ``d_out``.  The negative one mixes in
    ``d_out (|0><0| + |0><1| + |1><0|)``, whose eigenvalue
    ``(1 - sqrt 5) / 2`` the mixture cannot lift, and keeps the trace
    ``d_out`` of the other two; on a one-dimensional layout it is
    ``-0.8 d_out`` instead.
    """
    d, d_out = layout.dim, layout.d_out
    valid = random_valid_process(rng, layout).matrix
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    x = np.zeros((d, d))
    if d >= 2:
        x[0, 0] = x[0, 1] = x[1, 0] = 1.0
    else:
        x[0, 0] = -1.0
    targets = [
        valid,
        0.5 * valid + 0.5 * d_out * np.outer(psi, psi.conj()),
        0.1 * valid + 0.9 * d_out * x,
    ]
    return [ProcessMatrix(layout, t) for t in targets]


def assert_terms_match_dense(s, old_cj, rng):
    """Report, action and CJ of a term-held supermap against the dense oracle."""
    report = validate_supermap(s)
    level = HierarchyLevel.pair(
        HierarchyLevel.process(s.in_layout), HierarchyLevel.process(s.out_layout)
    )
    want = validate_order_n(dense_cj(s), level)
    for got, ref in zip(report.conditions, want.conditions):
        assert got.name == ref.name
        assert got.passed == ref.passed
        assert abs(got.residual - ref.residual) <= 1e-12
        if got.name == "positivity":
            # scaled by the trace, which the terms sum in another order
            assert got.tolerance == pytest.approx(ref.tolerance, rel=1e-12)
        else:
            # every CJ here has max-norm at most 1, so both subspace scales
            # clamp at 1 although the terms' scale bounds the dense one
            assert got.tolerance == ref.tolerance
    assert max_norm(dense_cj(s) - old_cj) <= 1e-15
    w = random_valid_process(rng, s.in_layout)
    d1, d2 = s.in_layout.dim, s.out_layout.dim
    dense_out = np.einsum("abcd,ac->bd", old_cj.reshape(d1, d2, d1, d2), w.matrix)
    assert max_norm(apply(s, w).matrix - dense_out) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    l1=layouts(max_dim=16),
    l2=layouts(max_dim=16),
    p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
# on one dimension the rank-one term's lowest eigenvalue is |v|^2, not 0
@example(l1=ONE_DIM, l2=ONE_DIM, p=0.5, seed=0)
def test_term_held_maps_match_the_dense_oracle(l1, l2, p, seed):
    rng = np.random.default_rng(seed)
    for target in target_processes(rng, l2):
        s = constant_map(target, l1)
        assert_terms_match_dense(s, dense_constant_cj(target, l1), rng)
    for target in target_processes(rng, l1):
        s = interpolation_map(target, p)
        assert_terms_match_dense(s, dense_interpolation_cj(target, p), rng)


# ---------------------------------------------------------------------------
# the controlled swap and its one-parameter family
# ---------------------------------------------------------------------------


def test_v_at_quarter_turn_is_the_controlled_swap():
    assert max_norm(v_lambda_unitary(np.pi / 2) - c_swap_unitary()) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_v_family_closed_form_matches_the_exponential(d):
    h = v_lambda_hamiltonian(d)
    for lam in np.linspace(0.0, np.pi, 7):
        u = v_lambda_unitary(lam, d)
        assert max_norm(u - scipy.linalg.expm(-1j * lam * h)) <= 1e-14
        assert max_norm(u @ u.conj().T - np.eye(len(u))) <= 1e-14
    assert max_norm(v_lambda_unitary(np.pi / 2, d) - c_swap_unitary(d)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_switch_family_at_slot_dimension(d):
    sw, chan = quantum_switch(d=d), switch_input_channel(d=d)
    assert validate(sw).valid and causal_order_flags(sw) is CausalOrderFlag.NEITHER
    assert validate(chan).valid and causal_order_flags(chan) is CausalOrderFlag.A_TO_B
    assert max_norm(apply(c_swap_v(d), chan).matrix - sw.matrix) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_controlled_swap_is_the_projector_formula_bit_for_bit(d):
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    pair_swap = pmx.supermaps._pair_swap(d)
    oracle = tensor(np.eye(d**4), np.eye(d), p0) + tensor(pair_swap, np.eye(d), p1)
    u = c_swap_unitary(d)
    assert u.dtype == oracle.dtype == np.float64
    np.testing.assert_array_equal(u.view(np.uint64), oracle.view(np.uint64))


def test_controlled_swap_is_an_involution():
    u = c_swap_unitary()
    assert max_norm(u @ u - np.eye(64)) <= 1e-12


def test_controlled_swap_turns_plus_control_channel_into_switch():
    chan = switch_input_channel()
    out = apply(c_swap_v(), chan)
    assert max_norm(out.matrix - quantum_switch().matrix) <= 1e-12
    assert validate(chan).valid
    assert validate(out).valid


def test_controlled_swap_fails_span_condition():
    # the control factor both conditions the swap and is readable by C, so
    # allowed terms correlating an output with the control leak onto bare
    # output terms; conditions hold on the positivity and trace checks only
    r = validate_supermap(c_swap_v())
    assert not r.valid
    assert r.positivity.passed and r.trace.passed
    assert r.subspace.residual == pytest.approx(0.125, abs=1e-9)


def test_controlled_swap_maps_a_valid_process_off_span():
    # witness: allowed term x^{B_O} z^{C_C}; its image contains the bare
    # output terms (x^{B_O} - x^{A_O})/2
    eps = 0.05
    t = product_term((0, 0, 0, 1, 0, 3), SWITCH.dims)
    w = ProcessMatrix(SWITCH, np.eye(64) * (4 / 64) + eps * t)
    assert validate(w).valid
    out = apply(c_swap_v(), w)
    r = validate(out)
    assert not r.valid
    assert r.subspace.residual == pytest.approx(eps / 2, abs=1e-12)
    c = coefficient_tensor(out.matrix, SWITCH.dims)
    assert c[0, 0, 0, 1, 0, 0].real == pytest.approx(eps / 2, abs=1e-12)
    assert c[0, 0, 1, 0, 0, 0].real == pytest.approx(-eps / 2, abs=1e-12)


def test_v_family_passes_validation_only_at_full_turns():
    assert validate_supermap(v_lambda(0.0)).valid
    # H has eigenvalues {0, -2}, so lambda = pi gives back the identity
    assert max_norm(v_lambda_unitary(np.pi) - np.eye(64)) <= 1e-12
    r = validate_supermap(v_lambda(np.pi / 4))
    assert not r.valid
    assert r.positivity.passed and r.trace.passed
    assert r.subspace.residual == pytest.approx(0.125, abs=1e-9)


def test_v_quarter_twist_on_committed_control_channel():
    lam = np.pi / 4
    abc, bac = switch_branch_vectors(E0, 2)
    chan = switch_input_channel(control=E1)
    vec = v_lambda_unitary(lam) @ np.kron(abc, E1)
    pred = np.exp(1j * lam) * (
        np.cos(lam) * abc - 1j * np.sin(lam) * bac
    )
    assert np.abs(vec - np.kron(pred, E1)).max() <= 1e-12

    out = apply(v_lambda(lam), chan)
    r = validate(out)
    assert not r.valid
    assert r.positivity.passed and r.trace.passed
    assert not r.subspace.passed

    c = coefficient_tensor(out.matrix, SWITCH.dims).real
    # equal-index four-factor loops vanish identically: the cross term
    # carries Im <psi| s s^T s^T s |psi> = Im 1 = 0 for every Pauli
    for i in (1, 2, 3):
        assert abs(c[i, i, i, i, 0, 0]) <= 1e-12
    # the forbidden content sits on mixed four-factor loops and output pairs
    assert abs(c[1, 1, 1, 2, 0, 0]) == pytest.approx(1 / 64, abs=1e-12)
    assert abs(c[0, 0, 1, 2, 0, 0]) == pytest.approx(1 / 64, abs=1e-12)
    idx = np.indices((4,) * 6)
    four_factor = (
        (idx[0] > 0) & (idx[1] > 0) & (idx[2] > 0) & (idx[3] > 0)
        & (idx[4] == 0) & (idx[5] == 0)
    )
    loops = ~allowed_mask(SWITCH) & four_factor
    assert np.abs(np.where(loops, c, 0.0)).max() > 1e-6


# ---------------------------------------------------------------------------
# instrument reduction
# ---------------------------------------------------------------------------


def test_reducing_shared_state_gives_the_marginal():
    rng = np.random.default_rng(21)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    w = shared_state(rho)
    red = instrument_reduction(BIP, "B", random_channel_cj(rng, 2))
    out = apply(red, w)
    marg = partial_trace(rho, (2, 2), [1])
    assert max_norm(out.matrix - np.kron(marg, np.eye(2))) <= 1e-12


def test_reduction_action_agrees_with_its_cj():
    rng = np.random.default_rng(22)
    c_m = random_channel_cj(rng, 2)
    red = instrument_reduction(BIP, "B", c_m)
    dense = Supermap(
        BIP, red.out_layout, cj=superoperator_reduction_cj(BIP, "B", c_m)
    )
    for _ in range(3):
        w = random_valid_process(rng, BIP)
        assert max_norm(apply(red, w).matrix - apply(dense, w).matrix) <= 1e-12


# A's output comes first, its input sits between B's factors, and the
# dimensions differ; C has two inputs with B's output between them
INTERLEAVED = SpaceLayout.build(
    [("A_O", 2), ("B_I", 2), ("C_T", 2), ("A_I", 3), ("B_O", 2), ("C_C", 2)],
    [
        ("A", ["A_I"], ["A_O"]),
        ("B", ["B_I"], ["B_O"]),
        ("C", ["C_T", "C_C"], []),
    ],
)


@pytest.mark.parametrize("party", ["A", "B", "C"])
def test_reduction_action_agrees_with_its_cj_on_interleaved_factors(party):
    rng = np.random.default_rng(sum(map(ord, party)))
    p = INTERLEAVED.party(party)
    d_x = int(np.prod([INTERLEAVED.dims[k] for k in p.inputs + p.outputs]))
    g = rng.standard_normal((d_x, d_x)) + 1j * rng.standard_normal((d_x, d_x))
    c_m = g @ g.conj().T
    red = instrument_reduction(INTERLEAVED, party, c_m)
    oracle = superoperator_reduction_cj(INTERLEAVED, party, c_m)
    dense = Supermap(INTERLEAVED, red.out_layout, cj=oracle)
    for _ in range(3):
        w = ProcessMatrix(INTERLEAVED, random_hermitian(rng, INTERLEAVED.dim))
        assert max_norm(apply(red, w).matrix - apply(dense, w).matrix) <= 1e-12


@pytest.mark.parametrize(
    "layout, party",
    [(BIP, p) for p in "AB"] + [(INTERLEAVED, p) for p in "ABC"]
    + [(SWITCH, p) for p in "ABC"],
    ids=["bip-A", "bip-B", "interleaved-A", "interleaved-B", "interleaved-C",
         "switch-A", "switch-B", "switch-C"],
)
def test_reduction_cj_matches_the_superoperator_oracle(layout, party):
    rng = np.random.default_rng(layout.dim + ord(party))
    p = layout.party(party)
    d_x = int(np.prod([layout.dims[k] for k in p.inputs + p.outputs]))
    g = rng.standard_normal((d_x, d_x)) + 1j * rng.standard_normal((d_x, d_x))
    c_m = g @ g.conj().T
    assert not np.allclose(c_m, c_m.T)  # the transpose on C_M shows
    red = instrument_reduction(layout, party, c_m)
    # one vector term per eigenpair of the full-rank element
    assert len(red._terms) == d_x
    want = superoperator_reduction_cj(layout, party, c_m)
    assert max_norm(dense_cj(red) - want) <= 1e-12 * max_norm(want)


@pytest.mark.parametrize("party", ["A", "B", "D", "C"])
def test_reduction_action_agrees_with_the_permuted_formula(party):
    """On the extended switch, whose 16,384^2 CJ is not built, against
    reordering W, applying 1 (x) C_M block by block and tracing the party."""
    lay = extended_switch_layout()
    rng = np.random.default_rng(sum(map(ord, party)))
    p = lay.party(party)
    d_x = 2 ** len(p.inputs + p.outputs)
    g = rng.standard_normal((d_x, d_x)) + 1j * rng.standard_normal((d_x, d_x))
    c_m = g @ g.conj().T
    red = instrument_reduction(lay, party, c_m)
    for w in (extended_switch(), ProcessMatrix(lay, random_hermitian(rng, lay.dim))):
        expected = permuted_reduction(w.matrix, lay, party, c_m)
        out = apply(red, ProcessMatrix(lay, w.matrix)).matrix
        assert out.shape == (red.out_layout.dim,) * 2
        assert max_norm(out - expected) <= 1e-12 * max(1.0, max_norm(expected))


def test_reduction_by_depolarizing_channel_passes_all_conditions():
    c_dep = np.eye(4) / 2  # CJ of rho -> Tr(rho) 1/2
    red = instrument_reduction(BIP, "B", c_dep)
    r = validate_supermap(red)
    assert r.valid


def test_reduction_by_identity_channel_fails_trace_condition_only():
    # the comb CJ rescales traces on the valid span but no positive
    # representative does so on the full operator space; the validator
    # reports that honestly while every valid process still maps to a
    # valid process
    red = instrument_reduction(BIP, "B", cj_of_unitary(np.eye(2)))
    r = validate_supermap(red)
    assert not r.valid
    assert r.positivity.passed
    assert r.subspace.passed
    assert not r.trace.passed
    rng = np.random.default_rng(23)
    for _ in range(5):
        assert validate(apply(red, random_valid_process(rng, BIP))).valid


def test_reduction_maps_valid_to_valid():
    rng = np.random.default_rng(24)
    for _ in range(3):
        red = instrument_reduction(BIP, "B", random_channel_cj(rng, 2))
        for _ in range(3):
            out = apply(red, random_valid_process(rng, BIP))
            assert validate(out).valid


def test_reduction_layout_and_input_checks():
    red = instrument_reduction(extended_switch_layout(), "D", np.eye(4) / 2)
    assert red.out_layout == SWITCH
    with pytest.raises(KeyError):
        instrument_reduction(BIP, "Q", np.eye(4))
    with pytest.raises(ValueError, match="shape"):
        instrument_reduction(BIP, "B", np.eye(3))


def test_reduction_rejects_a_non_hermitian_element():
    # apply keeps only the Hermitian part of the action, so such an element
    # was applied as a different one
    c_m = np.zeros((4, 4))
    c_m[0, 3] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        instrument_reduction(BIP, "B", c_m)


def test_reduction_rejects_an_element_that_is_not_positive():
    # an instrument element is completely positive; this Hermitian one was
    # accepted and its reduction failed positivity by 4.0
    with pytest.raises(ValueError, match=r"element CJ is not PSD \(lowest eig.* -1"):
        instrument_reduction(BIP, "B", np.diag([1.0, -1.0, 1.0, 0.0]))


@pytest.mark.parametrize(
    "element, terms",
    [
        (cj_of_unitary(rotation(0.3)), 1),
        (np.eye(4) / 2, 4),
        # eigenvalues at most DEFAULT_TOL max(1, |Tr C_M|) are dropped
        (np.diag([1.0, 0.5, 1e-10, -1e-10]), 2),
        # the largest is always kept, so the zero element is one zero vector
        (np.zeros((4, 4)), 1),
    ],
    ids=["unitary", "depolarizing", "rounding-level", "zero"],
)
def test_reduction_keeps_one_vector_term_per_eigenvalue_above_the_bound(element, terms):
    red = instrument_reduction(BIP, "B", element)
    assert len(red._terms) == terms
    assert all(t.vector is not None for t in red._terms)
    want = superoperator_reduction_cj(BIP, "B", element)
    assert max_norm(dense_cj(red) - want) <= 1e-9


def _non_hermitian_cj() -> np.ndarray:
    """The bipartite identity-conjugation CJ plus 1 at entry (0, 5)."""
    cj = cj_of_unitary(np.eye(BIP.dim))
    cj[0, 5] += 1.0
    return cj


def test_supermap_rejects_a_non_hermitian_cj():
    # apply keeps only the Hermitian part of the action: with this CJ it was
    # off by 0.213 in max-norm on w_ocb, while validate_supermap raised
    with pytest.raises(ValueError, match="not Hermitian"):
        Supermap(BIP, BIP, cj=_non_hermitian_cj())


def test_reduction_with_a_16384_cj_applies_and_validates():
    # the depolarizing element: four vector terms, whose 16,384^2 sum is
    # never formed; the forbidden part is read as a 4096-side block
    red = instrument_reduction(extended_switch_layout(), "D", np.eye(4) / 2)
    out = apply(red, extended_switch())
    assert validate(out).valid
    # applying never builds the terms (sweep builds reductions it does not
    # validate)
    assert "_terms" not in vars(red)
    assert validate_supermap(red).valid
    assert len(red._terms) == 4


def test_supermap_takes_no_free_standing_action():
    # an action given beside the CJ could disagree with it: this one doubled
    # every process while the identity CJ passed validate_supermap
    with pytest.raises(TypeError):
        Supermap(BIP, BIP, cj_vector=np.eye(16).reshape(-1), action=lambda w: 2 * w)
    with pytest.raises(TypeError):
        Supermap(BIP, BIP, cj_builder=lambda: np.eye(256))
    with pytest.raises(ValueError, match="needs a CJ operator or vector$"):
        Supermap(BIP, BIP)


REDUCTION_CASES = [(BIP, p) for p in "AB"] + [(INTERLEAVED, p) for p in "ABC"] + [
    (SWITCH, p) for p in "ABC"
]


@pytest.mark.parametrize(
    "layout, party",
    REDUCTION_CASES,
    ids=["bip-A", "bip-B", "interleaved-A", "interleaved-B", "interleaved-C",
         "switch-A", "switch-B", "switch-C"],
)
@pytest.mark.parametrize("element", ["identity", "random"])
def test_reduction_term_validates_as_its_dense_cj(layout, party, element):
    # the one exact term, held on the kept, output and party factors, gives
    # the verdicts and residuals of the same CJ handed in as a dense matrix
    p = layout.party(party)
    d_x = int(np.prod([layout.dims[k] for k in p.inputs + p.outputs]))
    if element == "identity":
        c_m = np.eye(d_x)
    else:
        rng = np.random.default_rng(layout.dim + ord(party))
        g = rng.standard_normal((d_x, d_x)) + 1j * rng.standard_normal((d_x, d_x))
        c_m = g @ g.conj().T / d_x
    red = instrument_reduction(layout, party, c_m)
    got = validate_supermap(red)
    oracle = superoperator_reduction_cj(layout, party, c_m)
    want = validate_supermap(Supermap(layout, red.out_layout, cj=oracle))
    for a, b in zip(got.conditions, want.conditions):
        assert a.name == b.name
        assert a.passed == b.passed
        assert abs(a.residual - b.residual) <= 1e-13
    assert got.valid == want.valid


def _sweep_reductions():
    lay = extended_switch_layout()
    for lam in (0.0, 0.3, np.pi / 4, 1.1, np.pi / 2):
        rot = np.array([[np.cos(lam), -np.sin(lam)], [np.sin(lam), np.cos(lam)]])
        yield instrument_reduction(lay, "D", cj_of_unitary(rot)), extended_switch()


def test_apply_holds_the_hermitian_part_without_a_second_check(monkeypatch):
    cases = list(_sweep_reductions()) + [
        (c_swap_v(), switch_input_channel()),
        (interpolation_map(quantum_switch(), 0.4), switch_input_channel(control=E1)),
    ]
    # the result as a checked ProcessMatrix held it before
    refs = []
    for s, w in cases:
        x = s._act(w)
        refs.append(ProcessMatrix(s.out_layout, (x + x.conj().T) / 2).matrix)

    def refuse(m):
        raise AssertionError("apply checked Hermiticity")

    monkeypatch.setattr("pmx.process_space.is_hermitian", refuse)
    monkeypatch.setattr("pmx.supermaps.is_hermitian", refuse)
    for (s, w), ref in zip(cases, refs):
        out = apply(s, w).matrix
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
        assert not out.flags.writeable


def test_apply_refuses_an_overflowing_result():
    s = Supermap(BIP, BIP, cj_vector=1e160 * np.eye(16).reshape(-1))
    with pytest.raises(ValueError, match="must be Hermitian"):
        apply(s, w_ocb())


def test_blockwise_reduction_equals_the_dense_embedding():
    # the action applies 1 (x) C_M block by block; the dense product with
    # the embedded operator sums the same products plus exact zeros, so only
    # the summation order may differ
    rng = np.random.default_rng(23)
    lay_e = extended_switch_layout()
    c_m = random_channel_cj(rng, 2)
    w4 = extended_switch()
    party = lay_e.party("D")
    removed = [*party.inputs, *party.outputs]
    perm = [k for k in range(lay_e.n_factors) if k not in removed] + removed
    wp = permute_factors(w4.matrix, lay_e, perm)
    dense = partial_trace(
        np.kron(np.eye(64), c_m) @ wp, [lay_e.dims[k] for k in perm], [6, 7]
    )
    out = apply(instrument_reduction(lay_e, "D", c_m), w4)
    assert max_norm(out.matrix - dense) <= 1e-14


def test_dense_positivity_residual_repeats_exactly():
    # a dense 4096 x 4096 CJ is solved on its live block, the indices whose
    # row or column holds a nonzero entry: 568 of them, one LAPACK solve
    cj = dense_interpolation_cj(quantum_switch(), 0.4)
    nz = cj != 0
    assert np.count_nonzero(nz.any(0) | nz.any(1)) == 568
    first, second = (
        validate_supermap(Supermap(SWITCH, SWITCH, cj=cj)) for _ in range(2)
    )
    assert first.positivity.residual == second.positivity.residual
    assert first.valid and second.valid


def traced_peak(call):
    """``call()`` and the tracemalloc peak, in bytes, of what it allocates.

    The block workspace is emptied first, so a validation is measured cold,
    forming every block it keeps, as before validations kept their blocks.
    """
    operator_core._WORKSPACE.clear()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "make, residuals",
    [
        # positivity, trace and subspace residuals as read when the forbidden
        # part was formed as one 1024^2 block
        (lambda: v_lambda(0.7), (0.0, 6.206335383118183e-17, 0.12318121624855753)),
        (
            lambda: interpolation_map(quantum_switch(), 0.4),
            (2.0318491543960188e-17, 0.0, 0.0),
        ),
    ],
)
def test_switch_pair_validation_stays_within_8_mib(make, residuals):
    # the level-2 forbidden part is held in pieces and assembled in
    # sub-blocks; its 1024^2 block (16 MiB) is never formed
    s = make()
    report, peak = traced_peak(lambda: validate_supermap(s))
    assert peak <= 8 * 2**20
    for cond, want in zip(report.conditions, residuals):
        assert abs(cond.residual - want) <= 1e-13


def test_extended_switch_d_reduction_validates_as_one_vector_term():
    # the reduction's CJ |1>><<1| (x) C_M^T is 16,384^2; for a unitary
    # C_M = |c><c| it is the one vector |1>> (x) c^*, whose level-2 forbidden
    # part is held in pieces and read as a 4096-side block
    element = cj_of_unitary(rotation(0.4))
    red = instrument_reduction(extended_switch_layout(), "D", element)
    report, peak = traced_peak(lambda: validate_supermap(red))
    assert len(red._terms) == 1
    assert report.positivity.residual == 0.0
    assert report.subspace.residual <= 1e-15
    # no representative meets the full-space trace equation (see the
    # instrument_reduction docstring)
    assert report.trace.residual == pytest.approx(0.8484, abs=1e-4)
    assert peak <= 40 * 2**20


@pytest.mark.parametrize("lam", [0.0, 0.3, np.pi / 4, 1.1, np.pi / 2])
def test_d_reduction_report_at_the_sweep_angles(lam):
    # party D steers the order of A and B: the CJ is positive and keeps the
    # allowed span, and fails only the full-space trace equation, which no
    # representative meets (see the instrument_reduction docstring)
    element = cj_of_unitary(rotation(lam))
    red = instrument_reduction(extended_switch_layout(), "D", element)
    start = time.perf_counter()
    report = validate_supermap(red)
    assert time.perf_counter() - start < 2.0
    assert report.positivity.residual == 0.0
    assert report.subspace.residual <= 1e-15
    assert report.trace.residual == pytest.approx(
        (1 + abs(np.cos(2 * lam))) / 2, abs=1e-12
    )
    assert not report.trace.passed


def test_dense_cj_applies_without_a_copy_of_it():
    # a 4096^2 CJ term is contracted in place: the parent commit's tensordot
    # copied it (256 MiB) on every application
    sw = quantum_switch()
    s = Supermap(SWITCH, SWITCH, cj=dense_interpolation_cj(sw, 0.4))
    w = switch_input_channel()
    out, peak = traced_peak(lambda: apply(s, w))
    assert peak <= 8 * 2**20
    want = apply(interpolation_map(sw, 0.4), w)
    assert max_norm(out.matrix - want.matrix) <= 1e-12


def test_pure_supermap_with_a_16384_cj_validates():
    # the cap bounds the block validation reads, not the CJ: this CJ is
    # 16,384^2, its forbidden part is read as a 2048-side block
    s = unitary_supermap(np.eye(128), SEVEN)
    assert s.in_layout.dim * s.out_layout.dim == 16384
    assert validate_supermap(s).valid


def test_size_refusal_names_the_cap_not_an_action():
    # c_swap_v(3)'s forbidden part would be read as a 39,366-side block
    # (uncapped, that read takes most of a minute); the refusal comes before
    # any term is read, and says only the size
    s = c_swap_v(3)
    start = time.perf_counter()
    message = "forbidden block side 39366 > MAX_CJ_DIM = 4096"
    with pytest.raises(ValueError, match=message) as err:
        validate_supermap(s)
    assert time.perf_counter() - start < 1.0
    assert "structured action" not in str(err.value)


def test_the_cap_bounds_the_forbidden_block_validation_reads(monkeypatch):
    # the switch pair's forbidden part is read as a 1024-side block; with
    # the cap just below it the same validation is refused
    monkeypatch.setattr(pmx.process_space, "MAX_CJ_DIM", 1023)
    with pytest.raises(ValueError, match="side 1024 > MAX_CJ_DIM = 1023"):
        validate_supermap(v_lambda(0.7))
    monkeypatch.setattr(pmx.process_space, "MAX_CJ_DIM", 1024)
    assert not validate_supermap(v_lambda(0.7)).subspace.passed


@pytest.mark.parametrize(
    "make, refused, cap",
    [
        (lambda: v_lambda(0.7), "forbidden block side 1024", 64),
        (lambda: constant_map(w_ocb(), SWITCH), "slot-1 marginal side 64", 32),
        (
            lambda: instrument_reduction(
                extended_switch_layout(), "D", cj_of_unitary(rotation(0.3))
            ),
            "forbidden block side 4096",
            256,
        ),
    ],
    ids=["pure", "constant", "d-reduction"],
)
def test_a_refused_validation_forms_no_block_above_the_cap(monkeypatch, make, refused, cap):
    # the sides come from the level and the terms' kept factors, so neither
    # the marginal nor the forbidden part is formed before the refusal (the
    # parent formed both, then compared the forbidden side with the cap)
    s = make()
    s._terms  # a reduction builds its vector terms on first read
    monkeypatch.setattr(pmx.process_space, "MAX_CJ_DIM", cap)

    def validation():
        with pytest.raises(ValueError, match=f"{refused} > MAX_CJ_DIM = {cap}"):
            validate_supermap(s)

    _, peak = traced_peak(validation)
    assert peak < 16 * cap**2


def test_rotation_reduction_sweeps_channel_to_reversed_channel():
    abc, bac = switch_branch_vectors(E0, 2)
    w4 = extended_switch()
    lay_e = extended_switch_layout()
    expected_flags = {
        0.0: CausalOrderFlag.A_TO_B,
        np.pi / 4: CausalOrderFlag.NEITHER,
        np.pi / 2: CausalOrderFlag.B_TO_A,
        1.234: CausalOrderFlag.NEITHER,
    }
    for lam, flag in expected_flags.items():
        rot = np.array(
            [[np.cos(lam), -np.sin(lam)], [np.sin(lam), np.cos(lam)]]
        )
        out = apply(instrument_reduction(lay_e, "D", cj_of_unitary(rot)), w4)
        vec = np.cos(lam) * np.kron(abc, E0) + np.sin(lam) * np.kron(bac, E1)
        assert max_norm(out.matrix - np.outer(vec, vec.conj())) <= 1e-12
        assert validate(out).valid
        assert causal_order_flags(out) == flag
    out = apply(
        instrument_reduction(
            lay_e,
            "D",
            cj_of_unitary(
                np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2)
            ),
        ),
        w4,
    )
    sw = quantum_switch()
    overlap = np.trace(out.matrix @ sw.matrix).real / np.sqrt(
        np.trace(out.matrix @ out.matrix).real
        * np.trace(sw.matrix @ sw.matrix).real
    )
    assert overlap >= 1 - 1e-9


# ---------------------------------------------------------------------------
# the span condition is exactly output validity
# ---------------------------------------------------------------------------


def test_span_violating_cjs_map_some_valid_process_off_span():
    rng = np.random.default_rng(31)
    for _ in range(50):
        cj, s0, u0, delta = random_bad_supermap_cj(rng, BIP, BIP)
        s = Supermap(BIP, BIP, cj=cj)
        r = validate_supermap(s)
        assert r.positivity.passed and r.trace.passed
        assert not r.subspace.passed
        w_mat = np.eye(16) * 0.25
        if any(s0):  # the all-zero pattern is the uniform term already present
            w_mat = w_mat + 0.05 * product_term(s0, BIP.dims)
        w = ProcessMatrix(BIP, w_mat)
        assert validate(w).valid
        assert off_span_residual(apply(s, w)) > 1e-6


def test_condition_satisfying_cjs_map_every_valid_process_to_valid():
    rng = np.random.default_rng(32)
    named = [
        w_ocb(),
        shared_state(np.eye(4) / 4),
        memory_channel(np.eye(2) / 2, cj_of_unitary(np.eye(2))),
        ProcessMatrix(BIP, np.eye(16) * 0.25),
    ]
    pool = named + [random_valid_process(rng, BIP) for _ in range(20)]
    for _ in range(50):
        s = Supermap(BIP, BIP, cj=random_valid_supermap_cj(rng, BIP, BIP))
        assert validate_supermap(s).valid
        for w in pool:
            assert validate(apply(s, w)).valid


# ---------------------------------------------------------------------------
# the order hierarchy
# ---------------------------------------------------------------------------


def test_level_one_is_process_validation():
    rng = np.random.default_rng(41)
    for w in (w_ocb(), w_ll(), random_valid_process(rng, BIP)):
        r1 = validate_order_n(w.matrix, HierarchyLevel.process(w.layout))
        r0 = validate(w)
        assert r1.valid == r0.valid
        for name in ("positivity", "trace", "subspace"):
            assert r1.condition(name).residual == pytest.approx(
                r0.condition(name).residual, abs=1e-12
            )


def test_level_two_is_supermap_validation():
    rng = np.random.default_rng(42)
    level = HierarchyLevel.pair(
        HierarchyLevel.process(BIP), HierarchyLevel.process(BIP)
    )
    good = random_valid_supermap_cj(rng, BIP, BIP)
    bad, _, _, _ = random_bad_supermap_cj(rng, BIP, BIP)
    for cj in (good, bad, dense_constant_cj(w_ocb(), BIP)):
        r2 = validate_order_n(cj, level)
        rs = validate_supermap(Supermap(BIP, BIP, cj=cj))
        assert r2.valid == rs.valid
        for name in ("positivity", "trace", "subspace"):
            assert r2.condition(name).residual == pytest.approx(
                rs.condition(name).residual, abs=1e-12
            )


def test_trivial_first_slot_reduces_to_the_process_projector():
    rng = np.random.default_rng(43)
    trivial = SpaceLayout.build([("E", 1)], [("E", ["E"], [])])
    level = HierarchyLevel.pair(
        HierarchyLevel.process(trivial), HierarchyLevel.process(BIP)
    )
    assert level.trace_constant == pytest.approx(BIP.d_out)
    proj = hierarchy_projector(level)
    proj_bip = hierarchy_projector(HierarchyLevel.process(BIP))
    for _ in range(3):
        x = random_hermitian(rng, 16)
        assert max_norm(proj(x) - proj_bip(x)) <= 1e-12
    w = random_valid_process(rng, BIP)
    assert validate_order_n(w.matrix, level).valid


def test_hierarchy_projectors_are_idempotent():
    rng = np.random.default_rng(44)
    l1 = HierarchyLevel.process(TOY)
    l2 = HierarchyLevel.pair(l1, l1)
    l3 = HierarchyLevel.pair(l2, l2)
    for level in (l1, l2, l3):
        proj = hierarchy_projector(level)
        x = random_hermitian(rng, level.dim)
        once = proj(x)
        assert max_norm(proj(once) - once) <= 1e-10


def test_trace_constant_recursion():
    l1 = HierarchyLevel.process(TOY)
    assert l1.trace_constant == 2.0
    l2 = HierarchyLevel.pair(l1, l1)
    assert l2.trace_constant == pytest.approx(4.0)
    l3 = HierarchyLevel.pair(l2, l2)
    assert l3.trace_constant == pytest.approx(16.0)


def test_constructed_level_two_operator_passes():
    rng = np.random.default_rng(45)
    l2 = HierarchyLevel.pair(
        HierarchyLevel.process(TOY), HierarchyLevel.process(TOY)
    )
    proj = hierarchy_projector(l2)
    x = proj(random_hermitian(rng, 16) * 0.2)
    marg = partial_trace(x, (4, 4), [1])
    x = x - np.kron(marg - np.eye(4), np.eye(4)) / 4
    lo = float(np.linalg.eigvalsh(x)[0])
    t = 0.9 * 0.25 / (0.25 - lo) if lo < 0.25 else 0.9
    cj = (1 - t) * np.eye(16) * 0.25 + t * x
    assert validate_order_n(cj, l2).valid


def test_hierarchy_level_construction_errors():
    with pytest.raises(ValueError, match="positive"):
        HierarchyLevel(0, layout=TOY)
    with pytest.raises(ValueError, match="one layout"):
        HierarchyLevel(1)
    with pytest.raises(ValueError, match="two sub-levels"):
        HierarchyLevel(2, layout=TOY)
    l1 = HierarchyLevel.process(TOY)
    l2 = HierarchyLevel.pair(l1, l1)
    with pytest.raises(ValueError, match="one level below"):
        HierarchyLevel(3, slot1=l1, slot2=l2)


def test_validate_order_n_input_checks():
    l1 = HierarchyLevel.process(TOY)
    with pytest.raises(ValueError, match="shape"):
        validate_order_n(np.eye(5), l1)
    with pytest.raises(ValueError, match="Hermitian"):
        validate_order_n(np.triu(np.ones((4, 4))), l1)
