"""Tests for supermap validity, application, constructors, and the hierarchy."""

import numpy as np
import pytest

from pmx.hs_algebra import (
    coefficient_tensor,
    from_coefficient_tensor,
    product_term,
)
from pmx.operator_core import SpaceLayout, max_norm, partial_trace, tensor
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
    project_valid_matrix,
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
    v_lambda_unitary,
    validate_order_n,
    validate_supermap,
)

BIP = bipartite_qubit_layout()
SWITCH = switch_layout()
TOY = single_party_layout()
E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_valid_process(rng, layout, scale=1.0):
    x = project_valid_matrix(random_hermitian(rng, layout.dim) * scale, layout)
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
    return max_norm(w.matrix - project_valid_matrix(w.matrix, w.layout))


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


def test_unitary_supermap_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        unitary_supermap(np.ones((16, 16)), BIP)


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


def test_apply_layout_mismatch_raises():
    with pytest.raises(ValueError, match="layout"):
        apply(unitary_supermap(np.eye(BIP.dim), BIP), quantum_switch())


def test_pure_and_dense_application_paths_agree():
    rng = np.random.default_rng(11)
    u = tensor(*(random_unitary(rng, 2) for _ in range(4)))
    pure = unitary_supermap(u, BIP)
    dense = Supermap(BIP, BIP, cj=pure.cj.copy())
    w = random_valid_process(rng, BIP)
    out_p = apply(pure, w).matrix
    out_d = apply(dense, w).matrix
    assert max_norm(out_p - out_d) <= 1e-12
    assert max_norm(out_p - u @ w.matrix @ u.conj().T) <= 1e-12


# ---------------------------------------------------------------------------
# the controlled swap and its one-parameter family
# ---------------------------------------------------------------------------


def test_v_at_quarter_turn_is_the_controlled_swap():
    assert max_norm(v_lambda_unitary(np.pi / 2) - c_swap_unitary()) <= 1e-12


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
    red = instrument_reduction(BIP, "B", random_channel_cj(rng, 2))
    dense = Supermap(BIP, red.out_layout, cj=red.cj)
    for _ in range(3):
        w = random_valid_process(rng, BIP)
        assert max_norm(apply(red, w).matrix - apply(dense, w).matrix) <= 1e-12


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


def test_oversized_reduction_cj_is_refused_but_applies():
    red = instrument_reduction(extended_switch_layout(), "D", np.eye(4) / 2)
    with pytest.raises(ValueError, match="not materialized"):
        red.cj
    out = apply(red, extended_switch())
    assert validate(out).valid


def test_oversized_pure_supermap_is_refused_by_validation():
    # validating a pure supermap never forms its CJ, but the size limit holds
    labels = ["A_I", "B_I", "A_O", "B_O", "C_1", "C_2", "C_3"]
    seven = SpaceLayout.build(
        [(label, 2) for label in labels],
        [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"]), ("C", labels[4:], [])],
    )
    s = unitary_supermap(np.eye(128), seven)
    assert s.cj_dim == 16384
    with pytest.raises(ValueError, match="16384 x 16384.*not materialized"):
        validate_supermap(s)
    assert s._cj is None


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
    for cj in (good, bad, constant_map(w_ocb(), BIP).cj):
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
    for _ in range(3):
        x = random_hermitian(rng, 16)
        assert max_norm(proj(x) - project_valid_matrix(x, BIP)) <= 1e-12
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
