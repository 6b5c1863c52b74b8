"""Tests for the Weyl basis of pmx and the Gell-Mann reference basis.

The Weyl (clock-and-shift) basis is the one pmx uses; the generalized
Gell-Mann basis and its coefficient transforms live in ``tests/oracles.py``
as the reference the other tests compare against.
"""

import itertools

import numpy as np
import pytest

from oracles import (
    batch_coefficient_tensors,
    build_su_basis,
    coefficient_tensor,
    enumerate_patterns,
    from_coefficient_tensor,
    hs_decompose,
    hs_recompose,
    product_term,
    structure_constants,
    term_stack,
)
from pmx.hs_algebra import pattern_digits, weyl_elements, weyl_exponents, weyl_term
from pmx.operator_core import tensor

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# Levi-Civita on indices 1..3, zero whenever an index is 0
EPSILON = np.zeros((4, 4, 4))
EPSILON[1, 2, 3] = EPSILON[2, 3, 1] = EPSILON[3, 1, 2] = 1.0
EPSILON[1, 3, 2] = EPSILON[3, 2, 1] = EPSILON[2, 1, 3] = -1.0


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def test_qubit_weyl_basis_is_pauli_order():
    """I, X, XZ = -iY, Z: the Pauli order up to the phase of Y."""
    els = weyl_elements(2)
    for got, want in zip(els, [np.eye(2), SX, -1j * SY, SZ]):
        np.testing.assert_allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_weyl_elements_unitary_orthogonal_and_read_only(d):
    """Tr(W_a^dag W_b) = d delta_ab; every element but the first traceless."""
    els = weyl_elements(d)
    assert els.shape == (d * d, d, d) and not els.flags.writeable
    dagger = els.conj().transpose(0, 2, 1)
    unit = np.broadcast_to(np.eye(d), els.shape)
    np.testing.assert_allclose(dagger @ els, unit, atol=1e-14)
    gram = np.einsum("aji,bji->ab", els.conj(), els)
    np.testing.assert_allclose(gram, d * np.eye(d * d), atol=1e-12)
    np.testing.assert_allclose(np.einsum("aii->a", els)[1:], 0.0, atol=1e-12)
    assert weyl_exponents(d)[0].tolist() == [0, 0]


def test_weyl_term_is_the_product_of_its_factors():
    np.testing.assert_allclose(weyl_term((1, 3), (2, 2)), tensor(SX, SZ), atol=1e-15)
    w = np.exp(2j * np.pi / 3)
    # qutrit pattern 2 is X Z^1: |j> -> w^j |j + 1>
    want = np.zeros((3, 3), dtype=complex)
    want[[1, 2, 0], [0, 1, 2]] = [1, w, w * w]
    got = weyl_term((2, 0), (3, 2))
    np.testing.assert_allclose(got, tensor(want, np.eye(2)), atol=1e-15)
    digits = pattern_digits((9, 4))
    assert digits.shape == (36, 2) and digits[17].tolist() == [4, 1]


def test_qubit_basis_is_identity_and_paulis():
    b = build_su_basis(2)
    np.testing.assert_allclose(b.elements[0], np.eye(2))
    np.testing.assert_array_equal(b.elements[1], SX)
    np.testing.assert_array_equal(b.elements[2], SY)
    np.testing.assert_array_equal(b.elements[3], SZ)


def test_dim1_basis():
    b = build_su_basis(1)
    assert len(b) == 1
    np.testing.assert_allclose(b.elements[0], [[np.sqrt(2)]])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_orthogonality_and_tracelessness(d):
    """Tr(sigma_a sigma_b) = 2 delta_ab; all elements past 0 traceless."""
    els = build_su_basis(d).elements
    gram = np.einsum("aij,bji->ab", els, els)
    np.testing.assert_allclose(gram, 2 * np.eye(d * d), atol=1e-12)
    traces = np.einsum("aii->a", els)
    np.testing.assert_allclose(traces[1:], 0.0, atol=1e-12)
    np.testing.assert_allclose(traces[0], d * np.sqrt(2.0 / d))
    for el in els:
        np.testing.assert_allclose(el, el.conj().T, atol=1e-14)


def test_qubit_structure_constants_are_levi_civita():
    st = structure_constants(2)
    np.testing.assert_allclose(st.f, EPSILON, atol=1e-14)
    np.testing.assert_allclose(st.dsym, 0.0, atol=1e-14)


def test_qubit_product_relation():
    """sigma_i sigma_j = delta_ij 1 + i eps_ijk sigma_k for qubit elements."""
    els = build_su_basis(2).elements
    for i in range(1, 4):
        for j in range(1, 4):
            expected = (1.0 if i == j else 0.0) * np.eye(2, dtype=complex)
            for k in range(1, 4):
                expected = expected + 1j * EPSILON[i, j, k] * els[k]
            np.testing.assert_allclose(els[i] @ els[j], expected, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_structure_constant_trace_identities(d):
    """Tr([s_m, s_n] s_r) = 4i f and Tr({s_m, s_n} s_r) = 4 dsym (latin)."""
    els = build_su_basis(d).elements
    st = structure_constants(d)
    q = d * d
    for m in range(1, q):
        for n in range(1, q):
            comm = els[m] @ els[n] - els[n] @ els[m]
            anti = els[m] @ els[n] + els[n] @ els[m]
            for r in range(1, q):
                np.testing.assert_allclose(
                    np.trace(comm @ els[r]), 4j * st.f[m, n, r], atol=1e-12
                )
                np.testing.assert_allclose(
                    np.trace(anti @ els[r]), 4 * st.dsym[m, n, r], atol=1e-12
                )


def test_structure_constants_symmetries():
    st = structure_constants(3)
    np.testing.assert_allclose(st.f, -np.swapaxes(st.f, 0, 1), atol=1e-12)
    np.testing.assert_allclose(st.f, np.moveaxis(st.f, [0, 1, 2], [1, 2, 0]), atol=1e-12)
    np.testing.assert_allclose(st.dsym, np.swapaxes(st.dsym, 0, 1), atol=1e-12)
    # traceless: sum_i d_iik = 0
    np.testing.assert_allclose(np.einsum("iik->k", st.dsym), 0.0, atol=1e-11)
    # one frozen standard value: d_118 = 1/sqrt(3) in the usual Gell-Mann
    # numbering, which is element (1, 1, 8) here as well
    np.testing.assert_allclose(st.dsym[1, 1, 8], 1.0 / np.sqrt(3.0), atol=1e-12)


def test_product_terms_orthogonal_dims_2222():
    """Product terms satisfy Tr(sigma_s sigma_t) = 2^n delta_st at n = 4."""
    ts = term_stack((2, 2, 2, 2))
    gram = np.einsum("aij,bji->ab", ts, ts)
    np.testing.assert_allclose(gram, 16 * np.eye(256), atol=1e-10)


def test_product_terms_orthogonal_mixed_dims():
    ts = term_stack((2, 3))
    gram = np.einsum("aij,bji->ab", ts, ts)
    np.testing.assert_allclose(gram, 4 * np.eye(36), atol=1e-12)


def test_product_term_matches_stack_order():
    ts = term_stack((2, 2))
    for flat, pattern in enumerate(enumerate_patterns((2, 2))):
        np.testing.assert_array_equal(ts[flat], product_term(pattern, (2, 2)))


def test_decompose_identity_two_qubits():
    """Identity on two qubits has a single (0, 0) coefficient of value 2."""
    coeffs = hs_decompose(np.eye(4, dtype=complex), (2, 2))
    assert set(coeffs) == {(0, 0)}
    # Tr(sigma_00 * 1) / 4 = (1 * 4) / 4 ... with sigma_00 = 1 (x) 1 for qubits
    np.testing.assert_allclose(coeffs[(0, 0)], 1.0)


def test_identity_coefficient_scaling_qutrit():
    """c_(0,...,0) = Tr(M) (2/d)^(n/2) / 2^n for the scaled-identity term."""
    rng = np.random.default_rng(2)
    m = random_hermitian(rng, 9)
    c = coefficient_tensor(m, (3, 3))
    expected = np.trace(m) * (2.0 / 3.0) / 4.0
    np.testing.assert_allclose(c[0, 0], expected, atol=1e-12)


def test_roundtrip_random_hermitian():
    rng = np.random.default_rng(4)
    for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)]:
        d = int(np.prod(dims))
        m = random_hermitian(rng, d)
        c = coefficient_tensor(m, dims)
        np.testing.assert_allclose(np.max(np.abs(c.imag)), 0.0, atol=1e-12)
        np.testing.assert_allclose(from_coefficient_tensor(c, dims), m, atol=1e-10)


def test_roundtrip_sparse_api():
    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 8)
    coeffs = hs_decompose(m, (2, 2, 2))
    np.testing.assert_allclose(hs_recompose(coeffs, (2, 2, 2)), m, atol=1e-10)


def test_decompose_pauli_string():
    """A bare Pauli string decomposes to the single matching pattern."""
    m = tensor(np.eye(2), SZ, SZ, np.eye(2))
    coeffs = hs_decompose(m, (2, 2, 2, 2))
    assert set(coeffs) == {(0, 3, 3, 0)}
    np.testing.assert_allclose(coeffs[(0, 3, 3, 0)], 1.0)


def test_decompose_two_party_fixed_point_combination():
    """The two-term diagonal/off-diagonal mix used by the two-party example
    process decomposes to exactly its three construction patterns."""
    m = 0.25 * (
        tensor(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        + (tensor(np.eye(2), SZ, SZ, np.eye(2)) + tensor(SZ, SX, np.eye(2), SZ))
        / np.sqrt(2.0)
    )
    coeffs = hs_decompose(m, (2, 2, 2, 2))
    assert set(coeffs) == {(0, 0, 0, 0), (0, 3, 3, 0), (3, 1, 0, 3)}
    np.testing.assert_allclose(coeffs[(0, 0, 0, 0)], 0.25)
    np.testing.assert_allclose(coeffs[(0, 3, 3, 0)], 0.25 / np.sqrt(2.0))
    np.testing.assert_allclose(coeffs[(3, 1, 0, 3)], 0.25 / np.sqrt(2.0))


def test_recompose_empty_is_zero():
    np.testing.assert_array_equal(hs_recompose({}, (2, 2)), np.zeros((4, 4)))


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hs_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))


def test_batch_transform_matches_loop():
    rng = np.random.default_rng(8)
    ms = np.stack([random_hermitian(rng, 8) for _ in range(5)])
    batch = batch_coefficient_tensors(ms, (2, 2, 2))
    for b in range(5):
        np.testing.assert_allclose(
            batch[b], coefficient_tensor(ms[b], (2, 2, 2)), atol=1e-12
        )


def test_coefficients_against_direct_traces():
    """Spot-check c_t = Tr(sigma_t M) / 2^n against explicit traces."""
    rng = np.random.default_rng(10)
    m = random_hermitian(rng, 4)
    c = coefficient_tensor(m, (2, 2))
    for pattern in itertools.product(range(4), repeat=2):
        sigma = product_term(pattern, (2, 2))
        np.testing.assert_allclose(
            c[pattern], np.trace(sigma @ m) / 4.0, atol=1e-12
        )
