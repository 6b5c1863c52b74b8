"""Dense linear algebra over multi-factor operator spaces.

Operators live on a tensor product of finite-dimensional factors and are stored
as square ``numpy`` arrays of shape ``(d, d)`` with ``d`` the product of the
factor dimensions.  Row and column indices are flattened in C order, so factor
``k`` of a layout with dimensions ``(d_0, ..., d_{n-1})`` addresses axis ``k``
(rows) and axis ``n + k`` (columns) of the reshaped tensor.

Two array conventions used throughout the package:

* complex matrices are plain ``complex128`` arrays; Hermiticity is checked
  where required rather than encoded in a type;
* real coefficient vectors over a fixed orthogonal Hermitian basis are plain
  ``float64`` arrays (see :mod:`pmx.hs_algebra` for the basis itself).

Unless a function documents otherwise, tolerances are absolute values scaled
by the max-norm of the operator being tested, with default ``DEFAULT_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "Factor",
    "Party",
    "SpaceLayout",
    "tensor",
    "partial_trace",
    "partial_transpose",
    "permute_factors",
    "PaddedOperator",
    "eig_hermitian",
    "real_kernel",
    "max_norm",
    "is_hermitian",
]


@dataclass(frozen=True)
class Factor:
    """One tensor factor: a label (unique within a layout) and its dimension."""

    label: str
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"factor {self.label!r} has dimension {self.dim} < 1")


@dataclass(frozen=True)
class Party:
    """A party with input and output factor index tuples.

    Either tuple may be empty; an empty output tuple models a party whose
    output space is trivial (one-dimensional).
    """

    name: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered tensor factors plus the assignment of factors to party roles.

    Every factor index must appear in exactly one role of exactly one party.
    Layouts are immutable and hashable so derived structures (term masks,
    projectors) can be cached against them.
    """

    factors: tuple[Factor, ...]
    parties: tuple[Party, ...]

    def __post_init__(self) -> None:
        seen: dict[int, str] = {}
        for party in self.parties:
            for role, indices in (("input", party.inputs), ("output", party.outputs)):
                for k in indices:
                    if not 0 <= k < len(self.factors):
                        raise ValueError(
                            f"party {party.name!r} {role} index {k} out of range"
                        )
                    if k in seen:
                        raise ValueError(
                            f"factor index {k} assigned to both {seen[k]} and "
                            f"{party.name}.{role}"
                        )
                    seen[k] = f"{party.name}.{role}"
        missing = set(range(len(self.factors))) - set(seen)
        if missing:
            raise ValueError(f"factor indices {sorted(missing)} belong to no party")
        labels = [f.label for f in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError("factor labels must be unique")

    @classmethod
    def build(
        cls,
        factors: Sequence[tuple[str, int]],
        parties: Sequence[tuple[str, Sequence[str], Sequence[str]]],
    ) -> "SpaceLayout":
        """Construct a layout from labelled factor and party specs.

        Args:
            factors: sequence of ``(label, dim)`` pairs in tensor order.
            parties: sequence of ``(name, input_labels, output_labels)``.
        """
        facs = tuple(Factor(label, dim) for label, dim in factors)
        index = {f.label: k for k, f in enumerate(facs)}
        parts = []
        for name, ins, outs in parties:
            parts.append(
                Party(
                    name,
                    tuple(index[lbl] for lbl in ins),
                    tuple(index[lbl] for lbl in outs),
                )
            )
        return cls(facs, tuple(parts))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def d_out(self) -> int:
        """Product of all output-factor dimensions over all parties."""
        return math.prod(
            self.factors[k].dim for p in self.parties for k in p.outputs
        )

    def party(self, name: str) -> Party:
        for p in self.parties:
            if p.name == name:
                return p
        raise KeyError(f"no party named {name!r}")

    def factor_index(self, label: str) -> int:
        for k, f in enumerate(self.factors):
            if f.label == label:
                return k
        raise KeyError(f"no factor labelled {label!r}")

    def output_indices(self) -> tuple[int, ...]:
        return tuple(k for p in self.parties for k in p.outputs)


def _as_dims(dims: "Sequence[int] | SpaceLayout") -> tuple[int, ...]:
    if isinstance(dims, SpaceLayout):
        return dims.dims
    return tuple(int(d) for d in dims)


def _check_square(m: np.ndarray, dims: tuple[int, ...]) -> int:
    d = math.prod(dims)
    if m.shape != (d, d):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    return d


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, in the given order."""
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    return reduce(np.kron, ops)


def partial_trace(
    m: np.ndarray,
    dims: "Sequence[int] | SpaceLayout",
    traced: Iterable[int],
) -> np.ndarray:
    """Trace out the listed factors, keeping the rest in their original order.

    Args:
        m: square operator on the full space.
        dims: factor dimensions (or a layout supplying them).
        traced: factor indices to trace over; may be empty.

    Returns:
        Operator on the remaining factors.  Tracing every factor returns a
        ``1 x 1`` matrix holding the full trace.
    """
    dims = _as_dims(dims)
    _check_square(m, dims)
    traced_set = sorted(set(int(k) for k in traced))
    for k in traced_set:
        if not 0 <= k < len(dims):
            raise ValueError(f"traced index {k} out of range for {len(dims)} factors")
    t = m.reshape(dims + dims)
    n = len(dims)
    for k in reversed(traced_set):
        t = np.trace(t, axis1=k, axis2=k + n)
        n -= 1
    rest = [d for k, d in enumerate(dims) if k not in traced_set]
    d_rest = math.prod(rest) if rest else 1
    return t.reshape(d_rest, d_rest)


def partial_transpose(
    m: np.ndarray,
    dims: "Sequence[int] | SpaceLayout",
    transposed: Iterable[int],
) -> np.ndarray:
    """Transpose the listed factors in place, leaving the others untouched."""
    dims = _as_dims(dims)
    d = _check_square(m, dims)
    n = len(dims)
    axes = list(range(2 * n))
    for k in set(int(k) for k in transposed):
        if not 0 <= k < n:
            raise ValueError(f"transposed index {k} out of range for {n} factors")
        axes[k], axes[k + n] = axes[k + n], axes[k]
    return m.reshape(dims + dims).transpose(axes).reshape(d, d)


def permute_factors(
    m: np.ndarray,
    dims: "Sequence[int] | SpaceLayout",
    perm: Sequence[int],
) -> np.ndarray:
    """Reorder tensor factors so result factor ``j`` is input factor ``perm[j]``."""
    dims = _as_dims(dims)
    d = _check_square(m, dims)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm!r} is not a permutation of 0..{n - 1}")
    axes = list(perm) + [p + n for p in perm]
    return m.reshape(dims + dims).transpose(axes).reshape(d, d)


def _diagonal(t: np.ndarray, pos: Sequence[int]) -> np.ndarray:
    """View of ``t`` on the entries whose row and column agree on ``pos``.

    ``t`` has ``k`` row axes followed by ``k`` column axes.  The view keeps
    every row axis and drops the column axes listed in ``pos``; it reads and
    writes ``t``'s own memory.
    """
    k = t.ndim // 2
    strides = list(t.strides)
    for p in pos:
        strides[p] += strides[k + p]
    cols = [k + j for j in range(k) if j not in pos]
    return np.lib.stride_tricks.as_strided(
        t,
        t.shape[:k] + tuple(t.shape[c] for c in cols),
        tuple(strides[:k]) + tuple(strides[c] for c in cols),
    )


class PaddedOperator:
    """An operator ``g (x) 1_R`` on a product space, stored by ``g`` alone.

    ``g`` keeps one row axis and one column axis per factor in ``kept`` (in
    factor order); ``R`` is every other factor.  Depolarizing a factor set
    ``X`` (trace it out and put back ``1_X / d_X``) shrinks ``g`` and reads
    only its ``X``-diagonal entries, and the max-norm of the whole operator
    is ``max |g|``, so neither step ever expands the identity part.

    A rank-one operator ``|v><v|`` may be held by its vector: its first
    depolarization forms ``Tr_X |v><v| = V V^dag`` without the outer product.

    ``subtract`` works in place.  An instance that shares its array with a
    caller (``owned`` false) copies it before the first write.
    """

    def __init__(
        self,
        dims: Sequence[int],
        kept: Sequence[int],
        g: np.ndarray | None = None,
        vector: np.ndarray | None = None,
        owned: bool = False,
    ) -> None:
        self.dims = tuple(dims)
        self.kept = tuple(kept)
        self._g = g
        self._vector = vector
        self.owned = owned

    @classmethod
    def of_matrix(
        cls, m: np.ndarray, dims: "Sequence[int] | SpaceLayout"
    ) -> "PaddedOperator":
        dims = _as_dims(dims)
        m = np.asarray(m, dtype=complex)
        _check_square(m, dims)
        return cls(dims, range(len(dims)), g=m.reshape(dims + dims))

    @classmethod
    def of_vector(
        cls, v: np.ndarray, dims: "Sequence[int] | SpaceLayout"
    ) -> "PaddedOperator":
        """The rank-one operator ``|v><v|``."""
        dims = _as_dims(dims)
        v = np.asarray(v, dtype=complex)
        if v.shape != (math.prod(dims),):
            raise ValueError(f"vector shape {v.shape} does not match dims {dims}")
        return cls(dims, range(len(dims)), vector=v)

    @property
    def g(self) -> np.ndarray:
        if self._g is None:
            v = self._vector
            self._g = np.outer(v, v.conj()).reshape(self.dims + self.dims)
            self._vector = None
            self.owned = True
        return self._g

    def alias(self) -> "PaddedOperator":
        """The same operator, sharing storage and copying before any write."""
        return PaddedOperator(self.dims, self.kept, self._g, self._vector)

    def depolarized(self, factors: Iterable[int]) -> "PaddedOperator":
        """``Tr_X(.) (x) 1_X / d_X`` for the factor set ``X``."""
        factors = set(factors)
        pos = [j for j, f in enumerate(self.kept) if f in factors]
        if not pos:
            return self.alias()
        d_x = math.prod(self.dims[self.kept[j]] for j in pos)
        rest = [j for j in range(len(self.kept)) if j not in pos]
        rest_dims = tuple(self.dims[self.kept[j]] for j in rest)
        if self._vector is not None:
            vt = self._vector.reshape([self.dims[f] for f in self.kept])
            v2 = vt.transpose(rest + pos).reshape(-1, d_x)
            g = (v2 @ v2.conj().T).reshape(rest_dims + rest_dims) / d_x
        else:
            g = _diagonal(self._g, pos).sum(axis=tuple(pos)) / d_x
        kept = [self.kept[j] for j in rest]
        # a full trace gives a numpy scalar; keep a writable 0-d array
        return PaddedOperator(self.dims, kept, g=np.asarray(g), owned=True)

    def subtract(self, other: "PaddedOperator") -> None:
        """``self -= other`` in place; ``other`` may pad more factors."""
        if not set(other.kept) <= set(self.kept):
            raise ValueError("subtrahend keeps a factor the operator pads")
        g = self.g  # a vector-held operator materializes into a fresh array
        if not self.owned:
            self._g = g.copy()
            self.owned = True
        view, rhs = other._aligned(self._g, self.kept)
        view -= rhs

    def _aligned(
        self, target: np.ndarray, target_kept: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """A diagonal view of ``target`` and ``g`` shaped to broadcast onto it."""
        pos = [j for j, f in enumerate(target_kept) if f not in self.kept]
        row = tuple(1 if j in pos else self.dims[f] for j, f in enumerate(target_kept))
        cols = self.g.shape[len(self.kept) :]
        return _diagonal(target, pos), self.g.reshape(row + cols)

    def max_norm(self) -> float:
        if self._vector is not None:
            return float(np.max(np.abs(self._vector), initial=0.0)) ** 2
        return max_norm(self._g)

    def dense(self) -> np.ndarray:
        """The full ``d x d`` matrix, identity padding included."""
        full = np.zeros(self.dims + self.dims, dtype=complex)
        view, rhs = self._aligned(full, range(len(self.dims)))
        view[...] = rhs
        d = math.prod(self.dims)
        return full.reshape(d, d)


def max_norm(m: np.ndarray) -> float:
    """Largest entry magnitude; the package's default operator distance."""
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``m`` equals its conjugate transpose within ``tol`` (scaled)."""
    return max_norm(m - m.conj().T) <= tol * max(1.0, max_norm(m))


def eig_hermitian(
    m: np.ndarray, check_tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Args:
        m: matrix to decompose; must be Hermitian within ``check_tol``
            (scaled by its max-norm), otherwise ``ValueError`` is raised.

    Returns:
        ``(w, v)`` with ``w`` real eigenvalues sorted descending and ``v``
        the matching orthonormal eigenvectors as columns.
    """
    if not is_hermitian(m, check_tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w[::-1], v[:, ::-1]


def real_kernel(rows: np.ndarray, rtol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of a real row system.

    Args:
        rows: real array of shape ``(m, n)``; each row is one linear
            functional.  ``m = 0`` is allowed and returns the full space.
        rtol: relative singular-value threshold; singular values at most
            ``rtol`` times the largest count toward the kernel.

    Returns:
        Array of shape ``(k, n)`` whose rows form an orthonormal basis of the
        kernel, with ``k = n - rank``.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-d array")
    n = rows.shape[1]
    if rows.shape[0] == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > rtol * s[0]))
    return vh[rank:]
