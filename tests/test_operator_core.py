"""Tests for dense multi-factor operator primitives."""

import tracemalloc

import numpy as np
import pytest

from pmx import operator_core
from pmx.operator_core import (
    SpaceLayout,
    _absorb,
    is_hermitian,
    max_norm,
    partial_trace,
    tensor,
)
from oracles import permute_factors, real_kernel

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# |phi+><phi+| written out by hand
PHI_PLUS = 0.5 * np.array(
    [
        [1, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 1],
    ],
    dtype=complex,
)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def test_tensor_matches_index_formula():
    """(A (x) B)[ik, jl] = A[i, j] B[k, l], checked entry by entry."""
    a = SZ
    b = SX
    t = tensor(a, b)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    np.testing.assert_array_equal(t, expected)


def test_tensor_single_and_identity():
    np.testing.assert_array_equal(tensor(SX), SX)
    np.testing.assert_array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))


def test_tensor_associative():
    rng = np.random.default_rng(7)
    a, b, c = (rng.standard_normal((d, d)) for d in (2, 3, 2))
    np.testing.assert_allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


def test_partial_trace_product_state():
    """Tracing one side of rho (x) tau leaves rho * Tr(tau)."""
    rng = np.random.default_rng(3)
    rho = random_hermitian(rng, 2)
    tau = random_hermitian(rng, 3)
    m = tensor(rho, tau)
    np.testing.assert_allclose(partial_trace(m, (2, 3), [1]), rho * np.trace(tau))
    np.testing.assert_allclose(partial_trace(m, (2, 3), [0]), tau * np.trace(rho))


def test_partial_trace_bell_state():
    """Either marginal of |phi+><phi+| is the maximally mixed qubit."""
    np.testing.assert_allclose(partial_trace(PHI_PLUS, (2, 2), [1]), np.eye(2) / 2)
    np.testing.assert_allclose(partial_trace(PHI_PLUS, (2, 2), [0]), np.eye(2) / 2)


def test_partial_trace_all_and_none():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 12)
    full = partial_trace(m, (2, 3, 2), [0, 1, 2])
    assert full.shape == (1, 1)
    np.testing.assert_allclose(full[0, 0], np.trace(m))
    np.testing.assert_array_equal(partial_trace(m, (2, 3, 2), []), m)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 8)
    reduced = partial_trace(m, (2, 2, 2), [1])
    np.testing.assert_allclose(np.trace(reduced), np.trace(m))


def test_partial_trace_rejects_bad_index():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 2), [2])


def test_permute_factors_roundtrip():
    rng = np.random.default_rng(17)
    a, b, c = (random_hermitian(rng, d) for d in (2, 3, 2))
    m = tensor(a, b, c)
    np.testing.assert_allclose(permute_factors(m, (2, 3, 2), [2, 0, 1]), tensor(c, a, b))
    back = permute_factors(permute_factors(m, (2, 3, 2), [2, 0, 1]), (2, 2, 3), [1, 2, 0])
    np.testing.assert_allclose(back, m)


def test_real_kernel_empty_rows_full_space():
    basis = real_kernel(np.zeros((0, 5)))
    np.testing.assert_array_equal(basis, np.eye(5))


def test_real_kernel_dimension_counts():
    """Kernel dimension is n - rank for a synthesized rank-r system."""
    rng = np.random.default_rng(23)
    for r in (1, 3, 6):
        rows = rng.standard_normal((40, r)) @ rng.standard_normal((r, 10))
        basis = real_kernel(rows)
        assert basis.shape == (10 - r, 10)
        np.testing.assert_allclose(rows @ basis.T, 0.0, atol=1e-10)
        np.testing.assert_allclose(basis @ basis.T, np.eye(10 - r), atol=1e-12)


def test_real_kernel_full_rank_empty():
    assert real_kernel(np.eye(4)).shape == (0, 4)


def test_layout_validation():
    layout = SpaceLayout.build(
        [("A_I", 2), ("B_I", 2), ("A_O", 2), ("B_O", 2)],
        [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
    )
    assert layout.dim == 16
    assert layout.d_out == 4
    assert layout.party("A").inputs == (0,)
    with pytest.raises(KeyError):
        layout.party("C")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: operator_core.Factor("X", 0), "factor 'X' has dimension 0 < 1"),
        (
            lambda: SpaceLayout(
                (operator_core.Factor("X", 2),),
                (operator_core.Party("A", (0,), (1,)),),
            ),
            "party 'A' output index 1 out of range",
        ),
        (
            lambda: SpaceLayout(
                (operator_core.Factor("X", 2), operator_core.Factor("X", 2)),
                (operator_core.Party("A", (0,), (1,)),),
            ),
            "factor labels must be unique",
        ),
        (lambda: tensor(), r"tensor\(\) needs at least one operator"),
        (
            lambda: operator_core.PaddedOperator.of_vector(np.ones(3), (2,)),
            r"vector shape \(3,\) does not match dims \(2,\)",
        ),
        (
            lambda: operator_core.PaddedOperator.of_matrix(
                np.eye(4), (2, 2)
            ).reordered((0, 0)),
            r"order \(0, 0\) is not a permutation of the factors",
        ),
    ],
    ids=[
        "factor-dim-0",
        "party-index-out-of-range",
        "repeated-labels",
        "tensor-of-nothing",
        "vector-of-wrong-length",
        "order-not-a-permutation",
    ],
)
def test_bad_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_layout_rejects_overlap_and_orphans():
    with pytest.raises(ValueError):
        SpaceLayout.build(
            [("X", 2), ("Y", 2)],
            [("A", ["X"], ["X"]), ("B", ["Y"], [])],
        )
    with pytest.raises(ValueError):
        SpaceLayout.build([("X", 2), ("Y", 2)], [("A", ["X"], [])])


def test_layout_trivial_output_party():
    layout = SpaceLayout.build(
        [("A_I", 2), ("A_O", 2), ("C_1", 2)],
        [("A", ["A_I"], ["A_O"]), ("C", ["C_1"], [])],
    )
    assert layout.d_out == 2
    assert layout.party("C").outputs == ()


def test_norm_and_hermiticity_helpers():
    assert max_norm(np.zeros((2, 2))) == 0.0
    assert is_hermitian(SY)
    assert not is_hermitian(SY + 1e-6 * np.array([[0, 1], [0, 0]]))


@pytest.mark.parametrize("n", [1, 5, 256, 600])
def test_is_hermitian_matches_full_difference_across_tiles(n):
    # the decision of the tiled check equals the full-matrix formula, also
    # for a defect in a lower block past the first tile
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g + g.conj().T
    for m in (h, h * 1e-3, g):
        full = max_norm(m - m.conj().T) <= 1e-9 * max(1.0, max_norm(m))
        assert is_hermitian(m) == full
    bad = h.copy()
    bad[n - 1, 0] += 1e-6
    assert is_hermitian(bad) == (n == 1)
    # a defect below DEFAULT_TOL, scaled by the max-norm, is forgiven
    near = h.copy()
    near[n - 1, 0] += 1e-10
    assert is_hermitian(near)


@pytest.mark.parametrize(
    "n, pos", [(4, (1, 2)), (600, (0, 0)), (600, (599, 3)), (600, (3, 599))]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_is_not_hermitian(n, pos, bad):
    # a nan once dropped out of the fold over the tiles, and an inf entry
    # scaled its own tolerance to inf
    m = np.eye(n, dtype=complex)
    m[pos] = bad
    assert not is_hermitian(m)
    assert not is_hermitian(np.full((n, n), bad))


def test_is_hermitian_rejects_non_square():
    assert not is_hermitian(np.zeros((2, 3)))
    assert not is_hermitian(np.zeros(4))


def _large_inputs():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    t = m.reshape((4,) * 10)
    return {
        "matrix": m,
        "factor-tensor": m.reshape((2,) * 20),
        "transposed-tensor": t.transpose(1, 0, 3, 2, 5, 4, 7, 6, 9, 8),
        "strided-rows": m[::3, 5:],
        "one-long-row": m.reshape(1, -1),
        "vector": m.reshape(-1),
        "real": m.real,
    }


@pytest.mark.parametrize("name", list(_large_inputs()))
def test_max_norm_over_blocks_equals_one_pass(name):
    m = _large_inputs()[name]
    assert max_norm(m) == float(np.max(np.abs(m)))
    # the largest entry in the first block, then a nan in the last
    m[(0,) * m.ndim] = -1e6
    assert max_norm(m) == 1e6
    m[(-1,) * m.ndim] = np.nan
    assert np.isnan(max_norm(m))


def test_max_norm_allocates_blocks_not_the_input_size():
    m = _large_inputs()["factor-tensor"]  # 16 MB of complex entries
    tracemalloc.start()
    try:
        max_norm(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # one pass makes an 8 MB float temporary


@pytest.mark.parametrize(
    "dims, factors, lead",
    [((2, 3, 2), [2, 0], ()), ((2, 2, 2, 2), [1], (3,)), ((3, 2), [0, 1], (2, 2))],
)
def test_absorb_by_einsum_equals_absorb_by_tensordot(monkeypatch, dims, factors, lead):
    # above _COPY_FREE_ENTRIES the contraction reads the operator in place;
    # both formulas sum the same products
    rng = np.random.default_rng(7)
    shape = lead + dims * 2
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    d_x = int(np.prod([dims[f] for f in factors]))
    stack = rng.standard_normal((3, d_x, d_x)) + 1j * rng.standard_normal((3, d_x, d_x))
    want = _absorb(w, dims, factors, stack)
    monkeypatch.setattr(operator_core, "_COPY_FREE_ENTRIES", 0)
    got = _absorb(w, dims, factors, stack)
    assert got.shape == want.shape
    assert max_norm(got - want) <= 1e-13 * max_norm(want)
