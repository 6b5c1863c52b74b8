"""The Weyl (clock-and-shift) operator basis of a product space.

Factor ``k`` of dimension ``d`` carries the ``d**2`` unitaries ``X^p Z^q``
with ``X|j> = |j+1 mod d>`` and ``Z|j> = w^j |j>``, ``w = exp(2 pi i / d)``.
They are orthogonal, ``Tr((X^p Z^q)^dag X^p' Z^q') = d delta_pp' delta_qq'``,
and every one but the identity is traceless.  A product operator space
carries the product basis indexed by *term patterns*: tuples
``(a_0, ..., a_{n-1})`` with ``a_k`` choosing the element on factor ``k``,
numbered by :func:`weyl_exponents`.

A pattern's *support* is the set of factors where it is not the identity.
The allowed span of a layout, the forbidden terms and every other order
structure pmx names by patterns is a union of support classes, so it is the
same space in any product basis with the identity first.  Rigidity reads
its kernel from the commutation phases of these terms, and extremality
takes both its intersection count and its independence rank from Grams of
them compressed to a support (:func:`compressed_terms`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .operator_core import tensor

__all__ = [
    "compressed_terms",
    "pattern_digits",
    "touched_mask",
    "weyl_elements",
    "weyl_exponents",
    "weyl_term",
]


@lru_cache(maxsize=None)
def weyl_exponents(d: int) -> np.ndarray:
    """``(p, q)`` of each per-factor pattern ``X^p Z^q``, shape ``(d*d, 2)``.

    The identity comes first, then the shifting patterns (``p >= 1``) in
    lexicographic order, then the diagonal ones: for ``d = 2`` the order is
    I, X, XZ (a multiple of Y), Z, as in the Pauli basis.
    """
    shifts = [(p, q) for p in range(1, d) for q in range(d)]
    clocks = [(0, q) for q in range(1, d)]
    out = np.array([(0, 0), *shifts, *clocks], dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def weyl_elements(d: int) -> np.ndarray:
    """Every ``X^p Z^q`` of one factor, read-only, shape ``(d*d, d, d)``.

    Element ``a`` is the pattern ``weyl_exponents(d)[a]``: column ``j`` holds
    ``w^(q j)`` in row ``j + p mod d``.
    """
    out = np.zeros((d * d, d, d), dtype=complex)
    j = np.arange(d)
    for a, (p, q) in enumerate(weyl_exponents(d)):
        out[a, (j + p) % d, j] = np.exp(2j * np.pi * q * j / d)
    out.setflags(write=False)
    return out


def weyl_term(pattern: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """The product unitary ``(x)_k X^{p_k} Z^{q_k}`` of a Weyl pattern."""
    return tensor(*(weyl_elements(d)[a] for a, d in zip(pattern, dims)))


def pattern_digits(qdims: tuple[int, ...]) -> np.ndarray:
    """Every pattern's per-factor indices, one row per flat index."""
    return np.stack(np.unravel_index(np.arange(math.prod(qdims)), qdims), axis=1)


def touched_mask(qdims: tuple[int, ...], factors: Sequence[int]) -> np.ndarray:
    """True where a pattern is nontrivial on one of ``factors``.

    The array broadcasts against the pattern tensor of shape ``qdims``.
    """
    out = np.zeros((1,) * len(qdims), dtype=bool)
    for k in factors:
        shape = [1] * len(qdims)
        shape[k] = qdims[k]
        out = out | (np.arange(qdims[k]) > 0).reshape(shape)
    return out


def compressed_terms(vecs: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """``V^dag W_p V`` of every pattern ``p``, shape ``(prod d_k**2, r**2)``.

    ``V`` holds ``r`` vectors of the product space as columns; row ``p`` (a
    flat pattern index, as in :func:`pattern_digits`) is the ``r x r``
    matrix ``<v_i|W_p|v_j>`` flattened.  Every pattern comes from one
    transform of the ``r**2`` operators ``|v_j><v_i|``: their entries
    ``x[a, b, ij] = conj(V[a, i]) V[b, j]`` are held with each factor's
    ``(a_k, b_k)`` axes side by side, and since ``<v_i|W_p|v_j>`` is
    ``sum_ab W_p[a, b] x[a, b, ij]`` with ``W_p[a, b]`` the product of the
    factors' ``w_{p_k}[a_k, b_k]``, factor ``k``'s axis pair becomes its
    pattern digit by one product with ``weyl_elements(d_k)`` read as a
    ``d_k**2 x d_k**2`` matrix.  No product term is formed; the working
    array has ``dim**2 r**2`` entries.
    """
    r = vecs.shape[1]
    # conj(V) on the a_k axes and V on the b_k axes, interleaved
    left = vecs.conj().reshape(*(x for d in dims for x in (d, 1)), r, 1)
    y = left * vecs.reshape(*(x for d in dims for x in (1, d)), 1, r)
    done, rest = 1, y.size
    for d in dims:
        rest //= d * d
        y = weyl_elements(d).reshape(d * d, d * d) @ y.reshape(done, d * d, rest)
        done *= d * d
    return y.reshape(done, r * r)
