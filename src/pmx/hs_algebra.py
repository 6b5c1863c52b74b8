"""Orthogonal Hermitian operator bases and coefficient transforms.

For each factor dimension ``d`` the basis contains ``d**2`` Hermitian matrices
``sigma_0, ..., sigma_{d**2 - 1}`` with

* ``sigma_0 = sqrt(2/d) * identity``,
* ``sigma_a`` traceless for ``a >= 1``,
* ``Tr(sigma_a sigma_b) = 2 * delta_ab``.

For ``d = 2`` the traceless elements are exactly the Pauli matrices in the
order ``x, y, z``; higher dimensions follow the generalized Gell-Mann
construction (symmetric pairs, then antisymmetric pairs, then diagonals).
A product operator space carries the product basis indexed by *term patterns*:
tuples ``(a_0, ..., a_{n-1})`` with ``a_k`` choosing the basis element on
factor ``k``.  Any operator ``M`` expands as ``M = sum_t c_t sigma_t`` with
``c_t = Tr(sigma_t M) / 2**n``, and the coefficients are real iff ``M`` is
Hermitian.

Extremality works in these coordinates: its independence test stacks
coefficient vectors, and its intersection count takes the forbidden terms
from the per-factor bases.  Rigidity uses the Weyl (clock-and-shift) basis
instead, whose patterns follow the same support classes.  Order-structure
checks (validity, causal order) need no basis and go through partial traces
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .operator_core import SpaceLayout, _as_dims

__all__ = [
    "SuBasis",
    "build_su_basis",
    "term_stack",
    "from_coefficient_tensor",
    "batch_coefficient_tensors",
]


@dataclass(frozen=True)
class SuBasis:
    """Orthogonal Hermitian basis for one factor of dimension ``d``."""

    d: int
    elements: np.ndarray  # shape (d**2, d, d), read-only

    def __len__(self) -> int:
        return self.d**2


@lru_cache(maxsize=None)
def build_su_basis(d: int) -> SuBasis:
    """Generalized Gell-Mann basis of dimension ``d``, identity first.

    Ordering after ``sigma_0``: symmetric pair elements ``E_jk + E_kj`` for
    ``j < k`` in lexicographic order, then the matching antisymmetric elements
    ``-i (E_jk - E_kj)``, then the ``d - 1`` diagonal elements.  For ``d = 1``
    the basis is the single matrix ``[[sqrt(2)]]``.
    """
    if d < 1:
        raise ValueError(f"dimension {d} < 1")
    mats = [np.sqrt(2.0 / d) * np.eye(d, dtype=complex)]
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = 1.0
        m[k, j] = 1.0
        mats.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = -1.0j
        m[k, j] = 1.0j
        mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for mm in range(l):
            m[mm, mm] = 1.0
        m[l, l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
    elements = np.stack(mats)
    elements.setflags(write=False)
    return SuBasis(d, elements)


def term_stack(dims: "Sequence[int] | SpaceLayout") -> np.ndarray:
    """All product terms stacked as an array of shape ``(prod d_k^2, d, d)``.

    Patterns run in C order over ``(d_0^2, ..., d_{n-1}^2)``.  Intended for small
    layouts (the array holds ``prod d_k^4`` entries).
    """
    dims = _as_dims(dims)
    stack = build_su_basis(dims[0]).elements
    for d in dims[1:]:
        nxt = build_su_basis(d).elements
        q0, a, _ = stack.shape
        q1 = nxt.shape[0]
        stack = np.einsum("aij,bkl->abikjl", stack, nxt).reshape(
            q0 * q1, a * d, a * d
        )
    return stack


def from_coefficient_tensor(
    c: np.ndarray, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """The operator ``sum_t c_t sigma_t`` of a coefficient tensor.

    ``c`` has shape ``(d_0^2, ..., d_{n-1}^2)``, one axis per factor.
    """
    dims = _as_dims(dims)
    q = tuple(d * d for d in dims)
    if c.shape != q:
        raise ValueError(f"coefficient shape {c.shape} does not match {q}")
    n = len(dims)
    t = np.asarray(c, dtype=complex)
    for k, d in enumerate(dims):
        # axes: (r_0, c_0) .. (r_{k-1}, c_{k-1}), a_k..a_{n-1}
        t = np.tensordot(build_su_basis(d).elements, t, axes=([0], [2 * k]))
        t = np.moveaxis(t, [0, 1], [2 * k, 2 * k + 1])
    d = math.prod(dims)
    return t.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(d, d)


def batch_coefficient_tensors(
    ms: np.ndarray, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """Coefficient tensors of a stack of operators, shape ``(B, d_0^2, ...)``.

    Entry ``[b, a_0, ..., a_{n-1}]`` is ``Tr(sigma_t M_b) / 2**n`` for the
    product term ``t = (a_0, ..., a_{n-1})``.
    """
    dims = _as_dims(dims)
    d = math.prod(dims)
    if ms.ndim != 3 or ms.shape[1:] != (d, d):
        raise ValueError(f"stack shape {ms.shape} does not match dims {dims}")
    n = len(dims)
    t = np.asarray(ms, dtype=complex).reshape(ms.shape[:1] + dims + dims)
    for k, dk in enumerate(dims):
        # after k steps the axes are: batch, a_0..a_{k-1}, r_k..r_{n-1}, c_k..c_{n-1}
        t = np.tensordot(build_su_basis(dk).elements, t, axes=([2, 1], [1 + k, 1 + n]))
        t = np.moveaxis(t, 0, 1 + k)
    return t / (2.0**n)
