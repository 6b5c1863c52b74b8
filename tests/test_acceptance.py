"""Acceptance gate: one numbered check per release criterion.

Each test prints exactly one ``[criterion N] PASS`` or ``FAIL`` line (run
with ``pytest -s`` to see them live) and then asserts, so the suite as a
whole fails if any criterion does.  Tolerances are part of the contract and
are not loosened here; anything below that needs a tighter bound has its
own unit test elsewhere.
"""

import math

import numpy as np
import pytest

from oracles import coefficient_tensor, project_valid_closed_form, term_stack
from pmx.operator_core import max_norm, tensor
from pmx.process_space import (
    Instrument,
    ProcessMatrix,
    allowed_mask,
    bipartite_qubit_layout,
    born_probabilities,
    causal_order_flags,
    cj_of_unitary,
    extended_switch,
    extended_switch_layout,
    grandfather_instrument,
    memory_channel,
    quantum_switch,
    shared_state,
    single_party_layout,
    switch_input_channel,
    switch_layout,
    validate,
    w_ll,
    w_ocb,
)
from pmx.extremality import non_reachability_report, support_intersection_dim
from pmx.rigidity import verify_rigidity
from pmx.supermaps import (
    HierarchyLevel,
    apply,
    c_swap_v,
    constant_map,
    hierarchy_projector,
    instrument_reduction,
    unitary_supermap,
    v_lambda,
    validate_supermap,
)

BIP = bipartite_qubit_layout()


def report(n, ok, detail=""):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def random_valid_process(rng, layout):
    x = hierarchy_projector(HierarchyLevel.process(layout))(
        random_hermitian(rng, layout.dim)
    )
    lo = float(np.linalg.eigvalsh(x)[0])
    x = x + (abs(lo) + 0.1) * np.eye(layout.dim)
    return ProcessMatrix(layout, x * (layout.d_out / np.trace(x).real))


def random_channel_cj(rng, d_in, d_out):
    from pmx.operator_core import partial_trace

    d = d_in * d_out
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = g @ g.conj().T
    marg = partial_trace(c, (d_in, d_out), [1])
    vals, vecs = np.linalg.eigh(marg)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.conj().T
    x = np.kron(inv_sqrt, np.eye(d_out))
    return x @ c @ x.conj().T


def random_instrument(rng, layout, party, n_outcomes=2):
    p = layout.party(party)
    d_in = math.prod(layout.dims[k] for k in p.inputs) if p.inputs else 1
    d_out = math.prod(layout.dims[k] for k in p.outputs) if p.outputs else 1
    c = random_channel_cj(rng, d_in, d_out)
    vals, vecs = np.linalg.eigh(c)
    pieces = [np.zeros_like(c) for _ in range(n_outcomes)]
    for k in range(len(vals)):
        if vals[k] > 0:
            pieces[k % n_outcomes] += vals[k] * np.outer(vecs[:, k], vecs[:, k].conj())
    return Instrument(party, tuple(pieces), d_in, d_out)


def test_criterion_1_wocb_validity_and_spectrum():
    w = w_ocb()
    rep = validate(w)
    residuals_ok = rep.valid and all(c.residual <= 1e-9 for c in rep.conditions)
    vals = np.sort(np.linalg.eigvalsh(w.matrix))
    spectrum_ok = (
        np.abs(vals[:8]).max() <= 1e-9 and np.abs(vals[8:] - 0.5).max() <= 1e-9
    )
    rank = int(np.sum(vals > 1e-9))
    report(
        1,
        residuals_ok and spectrum_ok and rank == 8,
        f"rank={rank} max_residual={max(c.residual for c in rep.conditions):.2e}",
    )


def test_criterion_2_switch_validity_and_purity():
    sw = quantum_switch()
    rep = validate(sw)
    trace = float(np.trace(sw.matrix).real)
    vals = np.linalg.eigvalsh(sw.matrix)
    rank = int(np.sum(vals > 1e-9 * vals[-1]))
    report(
        2,
        rep.valid and abs(trace - 4.0) <= 1e-9 and rank == 1,
        f"trace={trace:.12f} rank={rank}",
    )


def test_criterion_3_projector_closed_form_agreement():
    terms = term_stack(BIP.dims)
    mask = allowed_mask(BIP).reshape(-1)
    worst_gap = 0.0
    worst_coeff = 0.0
    project = hierarchy_projector(HierarchyLevel.process(BIP))
    for u, t in enumerate(terms):
        via_rule = project(t)
        via_form = project_valid_closed_form(t, BIP)
        worst_gap = max(worst_gap, max_norm(via_rule - via_form))
        # the projector is diagonal on product terms, so the image is
        # either the term itself or zero; distance to {0, 1} coefficient
        target = t if mask[u] else np.zeros_like(t)
        worst_coeff = max(worst_coeff, max_norm(via_rule - target))
    report(
        3,
        worst_gap <= 1e-12 and worst_coeff <= 1e-12,
        f"terms=256 closed_form_gap={worst_gap:.2e} coeff_gap={worst_coeff:.2e}",
    )


def test_criterion_4_rigidity_kernel_dimensions():
    rep = verify_rigidity(BIP)
    resid = max(rep.kernel_in_span_residual, rep.span_in_kernel_residual)
    single = verify_rigidity(single_party_layout())
    report(
        4,
        rep.kernel_dim == 12 and resid <= 1e-8 and single.kernel_dim == 6,
        f"bipartite={rep.kernel_dim} residual={resid:.2e} single_party={single.kernel_dim}",
    )


def test_criterion_5_cswap_reproduces_switch():
    out = apply(c_swap_v(), switch_input_channel())
    resid = max_norm(out.matrix - quantum_switch().matrix)
    report(5, resid <= 1e-10, f"max_norm={resid:.2e}")


def test_criterion_6_quarter_twist_invalidity():
    rep = validate_supermap(v_lambda(np.pi / 4))
    out = apply(v_lambda(np.pi / 4), switch_input_channel(control=[0, 1]))
    c = coefficient_tensor(out.matrix, switch_layout().dims).real
    idx = np.indices(c.shape)
    four_pauli = (
        (idx[0] > 0) & (idx[1] > 0) & (idx[2] > 0) & (idx[3] > 0)
        & (idx[4] == 0) & (idx[5] == 0)
    )
    witness = float(np.abs(np.where(four_pauli, c, 0.0)).max())
    report(
        6,
        (not rep.valid) and witness > 1e-6,
        f"supermap_valid=false four_pauli_witness={witness:.4f}",
    )


def test_criterion_7_extremality_chain():
    dim = support_intersection_dim(w_ocb())
    rep = non_reachability_report()
    counts_ok = (
        rep.a_to_b.support_card == 64
        and rep.a_to_b.order_card == 204
        and rep.a_to_b.total == 268
        and rep.a_to_b.rank < 268
    )
    report(
        7,
        dim == 1 and counts_ok and rep.passed,
        f"intersection_dim={dim} counts=64+204=268 rank={rep.a_to_b.rank}",
    )


def test_criterion_8_grandfather_probabilities_vanish():
    table = born_probabilities(w_ll(), [grandfather_instrument()], check=False)
    worst = float(np.abs(table).max())
    report(8, table.shape == (2,) and worst <= 1e-12, f"max_probability={worst:.2e}")


def test_criterion_9_extended_switch_sweep():
    layout = extended_switch_layout()
    w4 = extended_switch()
    sw = quantum_switch()

    def reduce_at(lam):
        rot = np.array(
            [[math.cos(lam), -math.sin(lam)], [math.sin(lam), math.cos(lam)]]
        )
        return apply(instrument_reduction(layout, "D", cj_of_unitary(rot)), w4)

    flag0 = causal_order_flags(reduce_at(0.0)).value
    flag_half = causal_order_flags(reduce_at(np.pi / 2)).value
    mid = reduce_at(np.pi / 4).matrix
    overlap = float(np.trace(mid @ sw.matrix).real) / math.sqrt(
        float(np.trace(mid @ mid).real) * float(np.trace(sw.matrix @ sw.matrix).real)
    )
    report(
        9,
        flag0 == "A_to_B" and flag_half == "B_to_A" and overlap >= 1 - 1e-9,
        f"flag(0)={flag0} flag(pi/2)={flag_half} overlap(pi/4)={overlap:.12f}",
    )


def test_criterion_10_property_suites():
    rng = np.random.default_rng(2026)

    # normalization over random trace-preserving instruments
    named = {
        "state": shared_state(np.eye(4) / 4),
        "channel": memory_channel(np.eye(2) / 2, cj_of_unitary(np.eye(2))),
        "wocb": w_ocb(),
        "switch": quantum_switch(),
        "extended-switch": extended_switch(),
    }
    worst_norm = 0.0
    for w in named.values():
        for _ in range(20):
            insts = [
                random_instrument(rng, w.layout, p.name) for p in w.layout.parties
            ]
            total = float(born_probabilities(w, insts).sum())
            worst_norm = max(worst_norm, abs(total - 1.0))
    norm_ok = worst_norm <= 1e-9

    # projector idempotence at hierarchy orders 1, 2, 3
    worst_idem = 0.0
    level = HierarchyLevel.process(single_party_layout())
    for _ in range(3):
        project = hierarchy_projector(level)
        h = random_hermitian(rng, level.dim)
        once = project(h)
        worst_idem = max(worst_idem, max_norm(project(once) - once))
        level = HierarchyLevel.pair(level, level)
    idem_ok = worst_idem <= 1e-10

    # supermap validity must match output validity on samples
    u_local = tensor(*(np.linalg.qr(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )[0] for _ in range(4)))
    valid_maps = [
        unitary_supermap(u_local, BIP),
        constant_map(w_ocb(), BIP),
        v_lambda(0.0),
    ]
    invalid_maps = [
        constant_map(w_ll(), BIP),
        v_lambda(np.pi / 4),
    ]
    match_ok = True
    for s in valid_maps:
        match_ok = match_ok and validate_supermap(s).valid
        for _ in range(5):
            w = random_valid_process(rng, s.in_layout)
            match_ok = match_ok and validate(apply(s, w)).valid
    for s in invalid_maps:
        match_ok = match_ok and not validate_supermap(s).valid
    # each invalid map has a concrete valid input with invalid output
    match_ok = match_ok and not validate(
        apply(invalid_maps[0], random_valid_process(rng, BIP))
    ).valid
    match_ok = match_ok and not validate(
        apply(invalid_maps[1], switch_input_channel(control=[0, 1]))
    ).valid

    report(
        10,
        norm_ok and idem_ok and match_ok,
        f"normalization={worst_norm:.2e} idempotence={worst_idem:.2e} "
        f"supermap_samples={'ok' if match_ok else 'mismatch'}",
    )
