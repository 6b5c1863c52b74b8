"""Term-level reference implementations the tests compare pmx against.

pmx decides every order-structure question by partial traces.  The
definitions those closed forms reproduce are statements about coefficients
over the product basis of :mod:`pmx.hs_algebra`: which product terms an
operator contains, and which of them a layout forbids.  This module keeps
those definitions, computed the slow and obvious way, so the tests can check
the closed forms against them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from pmx.hs_algebra import (
    batch_coefficient_tensors,
    build_su_basis,
    from_coefficient_tensor,
)
from pmx.operator_core import (
    PaddedOperator,
    SpaceLayout,
    _as_dims,
    is_hermitian,
    tensor,
)
from pmx.process_space import HierarchyLevel, ProcessMatrix, TermPattern, allowed_mask


# ---------------------------------------------------------------------------
# product-term coefficients
# ---------------------------------------------------------------------------


def enumerate_patterns(dims: "Sequence[int] | SpaceLayout") -> Iterator[TermPattern]:
    """All term patterns for the given factor dimensions, in C order."""
    dims = _as_dims(dims)
    return itertools.product(*(range(d * d) for d in dims))


def product_term(
    pattern: TermPattern, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """The product basis matrix ``sigma_{a_0} (x) ... (x) sigma_{a_{n-1}}``."""
    dims = _as_dims(dims)
    if len(pattern) != len(dims):
        raise ValueError(f"pattern length {len(pattern)} != {len(dims)} factors")
    mats = []
    for a, d in zip(pattern, dims):
        if not 0 <= a < d * d:
            raise ValueError(f"basis index {a} out of range for dimension {d}")
        mats.append(build_su_basis(d).elements[a])
    return tensor(*mats)


def coefficient_tensor(
    m: np.ndarray, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """Coefficient tensor ``Tr(sigma_t M) / 2**n``, shape ``(d_0^2, ...)``."""
    return batch_coefficient_tensors(np.asarray(m, dtype=complex)[None], dims)[0]


def batch_from_coefficient_tensors(
    cs: np.ndarray, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """Inverse of ``batch_coefficient_tensors``."""
    return np.stack([from_coefficient_tensor(c, dims) for c in cs])


def hs_decompose(
    m: np.ndarray, dims: "Sequence[int] | SpaceLayout", threshold: float = 1e-12
) -> dict[TermPattern, float]:
    """Sparse real expansion: the coefficients with ``|c| > threshold``."""
    if not is_hermitian(m):
        raise ValueError("hs_decompose expects a Hermitian operator")
    c = coefficient_tensor(m, dims)
    return {
        tuple(int(i) for i in idx): float(c[tuple(idx)].real)
        for idx in np.argwhere(np.abs(c) > threshold)
    }



def hs_recompose(
    coeffs: Mapping[TermPattern, float], dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """Operator with the given sparse coefficients; empty input gives zero."""
    dims = _as_dims(dims)
    c = np.zeros(tuple(d * d for d in dims), dtype=complex)
    for pattern, value in coeffs.items():
        if len(pattern) != len(dims):
            raise ValueError(f"pattern {pattern!r} has wrong length")
        c[tuple(pattern)] = value
    return from_coefficient_tensor(c, dims)


# ---------------------------------------------------------------------------
# structure constants of one factor basis
# ---------------------------------------------------------------------------


class StructureTensors(NamedTuple):
    """``f[m, n, r] = Tr([s_m, s_n] s_r) / 4i`` and ``dsym``, its
    anticommutator analogue ``Tr({s_m, s_n} s_r) / 4``; both zero whenever
    an index is 0."""

    f: np.ndarray
    dsym: np.ndarray


def structure_constants(d: int) -> StructureTensors:
    """Structure tensors of :func:`pmx.hs_algebra.build_su_basis` at dimension ``d``."""
    sig = build_su_basis(d).elements
    prod = np.einsum("aij,bjk->abik", sig, sig)
    swapped = prod.transpose(1, 0, 2, 3)
    f = np.einsum("abij,cji->abc", prod - swapped, sig) / 4.0j
    dsym = np.einsum("abij,cji->abc", prod + swapped, sig) / 4.0
    for t in (f, dsym):
        t[0, :, :] = t[:, 0, :] = t[:, :, 0] = 0.0
    return StructureTensors(f.real, dsym.real)

# ---------------------------------------------------------------------------
# term masks
# ---------------------------------------------------------------------------


def _axis_flag(qdims: tuple[int, ...], k: int) -> np.ndarray:
    """True where a pattern is nontrivial on factor ``k``, broadcastable."""
    shape = [1] * len(qdims)
    shape[k] = qdims[k]
    return (np.arange(qdims[k]) > 0).reshape(shape)


@lru_cache(maxsize=None)
def hierarchy_mask(level: HierarchyLevel) -> np.ndarray:
    """Diagonal 0/1 action of ``P^(n)`` over product-term patterns.

    Level 1 is the allowed-term mask; level ``n`` keeps a coefficient unless
    its input-side pattern is kept by the level below while its output-side
    pattern is not: ``mask = ~m_1 | m_2`` over the slot masks.
    """
    if level.n == 1:
        return allowed_mask(level.layout)
    m1 = hierarchy_mask(level.slot1)
    m2 = hierarchy_mask(level.slot2)
    q1 = m1.shape
    q2 = m2.shape
    out = ~m1.reshape(q1 + (1,) * len(q2)) | m2.reshape((1,) * len(q1) + q2)
    out = np.array(np.broadcast_to(out, q1 + q2))
    out.setflags(write=False)
    return out


def order_mask(layout: SpaceLayout, order: Sequence[str]) -> np.ndarray:
    """Patterns a process causally ordered as ``order`` may contain.

    A pattern is excluded when, for some party ``X_k``, it is trivial on
    every factor of the parties after ``X_k`` and nontrivial on an output
    of ``X_k``.
    """
    qdims = tuple(d * d for d in layout.dims)
    n = len(qdims)
    parties = [layout.party(name) for name in order]
    excluded = np.zeros((1,) * n, dtype=bool)
    for k, party in enumerate(parties):
        trivial_later = np.ones((1,) * n, dtype=bool)
        for q in parties[k + 1 :]:
            for f in q.inputs + q.outputs:
                trivial_later = trivial_later & ~_axis_flag(qdims, f)
        out_nontrivial = np.zeros((1,) * n, dtype=bool)
        for f in party.outputs:
            out_nontrivial = out_nontrivial | _axis_flag(qdims, f)
        excluded = excluded | (trivial_later & out_nontrivial)
    return ~np.broadcast_to(excluded, qdims)


def comb_order_by_support(
    w: ProcessMatrix, order: Sequence[str], threshold: float = 1e-12
) -> bool:
    """Whether every coefficient above threshold sits on an ordered pattern.

    The threshold is relative to the largest coefficient magnitude (at
    least 1).
    """
    c = coefficient_tensor(w.matrix, w.layout)
    support = np.abs(c) > threshold * max(1.0, float(np.max(np.abs(c))))
    return not np.any(support & ~order_mask(w.layout, order))


# ---------------------------------------------------------------------------
# the two-party closed form
# ---------------------------------------------------------------------------


def _depolarize(m: np.ndarray, layout: SpaceLayout, facs: Sequence[int]) -> np.ndarray:
    """Replace the listed factors with normalized identity."""
    return PaddedOperator.of_matrix(m, layout).depolarized(facs).dense()


def project_valid_closed_form(m: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Two-party closed form of the valid-subspace projector.

    Writing ``_X W`` for the depolarize-factors operation on factor set X,
    the projector is

        _AO W + _BO W - _AIAO W - _BIBO W - _AOBO W + _AOBIBO W + _BOAIAO W

    with A, B the layout's two parties.
    """
    if len(layout.parties) != 2:
        raise ValueError("closed form applies to two-party layouts")
    a, b = layout.parties
    ai, ao = list(a.inputs), list(a.outputs)
    bi, bo = list(b.inputs), list(b.outputs)
    return (
        _depolarize(m, layout, ao)
        + _depolarize(m, layout, bo)
        - _depolarize(m, layout, ai + ao)
        - _depolarize(m, layout, bi + bo)
        - _depolarize(m, layout, ao + bo)
        + _depolarize(m, layout, ao + bi + bo)
        + _depolarize(m, layout, bo + ai + ao)
    )
