"""Dense linear algebra over multi-factor operator spaces.

Operators live on a tensor product of finite-dimensional factors and are stored
as square ``numpy`` arrays of shape ``(d, d)`` with ``d`` the product of the
factor dimensions.  Row and column indices are flattened in C order, so factor
``k`` of a layout with dimensions ``(d_0, ..., d_{n-1})`` addresses axis ``k``
(rows) and axis ``n + k`` (columns) of the reshaped tensor.

Two array conventions used throughout the package:

* complex matrices are plain ``complex128`` arrays; Hermiticity is checked
  where required rather than encoded in a type;
* product operator terms are named by *patterns*, one basis index per
  factor (see :mod:`pmx.hs_algebra` for the Weyl basis itself).

Unless a function documents otherwise, tolerances are absolute values scaled
by the max-norm of the operator being tested, with default ``DEFAULT_TOL``.
"""

from __future__ import annotations

import itertools
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
    "PaddedOperator",
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


def _diagonal(t: np.ndarray, pos: Sequence[int]) -> np.ndarray:
    """View of ``t`` on the entries whose row and column agree on ``pos``.

    ``t`` is C-contiguous, with ``k`` row axes followed by ``k`` column
    axes.  The view keeps every row axis and drops the column axes listed in
    ``pos``; it reads and writes ``t``'s own memory.
    """
    k = t.ndim // 2
    strides = list(t.strides)
    for p in pos:
        strides[p] += strides[k + p]
    cols = [k + j for j in range(k) if j not in pos]
    # a view on t's buffer; as_strided builds the same view about 3x slower
    return np.ndarray(
        t.shape[:k] + tuple(t.shape[c] for c in cols),
        t.dtype,
        buffer=t,
        strides=tuple(strides[:k]) + tuple(strides[c] for c in cols),
    )


def _axes(kept: Sequence[int], factors: Sequence[int]) -> list[int]:
    """Axes that take a block's ``kept`` rows and columns to ``factors``' order."""
    rows = [kept.index(f) for f in factors]
    return rows + [len(kept) + j for j in rows]


# entries a diagonal block must hold before _diagonal_views loops over the
# blocks: on 1024 x 1024 blocks the loop ran about 2x faster than one
# strided view, while on the 16 x 16 blocks of a level-1 qubit process its
# Python overhead cost more than it saved
_LOOPED_BLOCK = 1 << 12


def _diagonal_views(
    t: np.ndarray, pos: list[int]
) -> tuple[list[np.ndarray], list[int]]:
    """Views that together cover ``t``'s entries whose row and column agree on ``pos``.

    ``t`` is as for :func:`_diagonal`.  Each position of ``pos`` outside the
    innermost axis not in ``pos`` is fixed, one view per diagonal value,
    when that gives at least two blocks of ``_LOOPED_BLOCK`` entries: numpy
    runs such blocks one at a time about twice as fast as one strided view
    with a broadcast or reduced axis among the kept ones.  The other
    positions stay diagonal axes of every view; they are returned
    renumbered for the views.
    """
    if t.size >= 4 * _LOOPED_BLOCK:
        k = t.ndim // 2
        rest = [j for j in range(k) if j not in pos]
        outer = [j for j in pos if rest and j < rest[-1]]
        n_blocks = math.prod(t.shape[j] for j in outer)
        if n_blocks > 1 and t.size >= _LOOPED_BLOCK * n_blocks**2:
            inner = [j for j in pos if j not in outer]
            diag = _diagonal(t, inner)
            # the inner positions lie past every outer one, so an outer
            # position keeps its row axis j and its column axis k + j
            views = []
            for x in itertools.product(*(range(t.shape[j]) for j in outer)):
                idx = [slice(None)] * diag.ndim
                for j, xj in zip(outer, x):
                    idx[j] = idx[k + j] = xj
                views.append(diag[tuple(idx)])
            return views, [j - len(outer) for j in inner]
    return [_diagonal(t, pos)], pos


class PaddedOperator:
    """An operator ``g (x) 1_R`` on a product space, stored by ``g`` alone.

    ``g`` keeps one row axis and one column axis per factor in ``kept``, in
    the order of ``kept``; ``R`` is every other factor.  Depolarizing a
    factor set ``X`` (trace it out and put back ``1_X / d_X``) shrinks ``g``
    and reads only its ``X``-diagonal entries, and the max-norm of the whole
    operator is ``max |g|``, so neither step ever expands the identity part.

    A rank-one operator ``|v><v|`` may be held by its vector: its first
    depolarization forms ``Tr_X |v><v| = V V^dag`` without the outer product.

    ``order`` lists every factor, in factor order unless :meth:`reordered`
    sets another.  Each block the operator creates (a depolarization, the
    copy of a shared block, a widening) keeps its factors in that order, so
    a caller that pads the outermost factors of a large block touches long
    contiguous runs.  ``matrix`` and ``g`` follow ``kept``; ``dense`` is in
    factor order.

    ``add`` and ``subtract`` work in place.  An instance that shares its
    array with a caller (``owned`` false) copies it before the first write.
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
        self.order = tuple(range(len(self.dims)))
        # _diagonal views a block through its buffer, which must be contiguous
        self._g = g if g is None or g.flags.c_contiguous else g.copy()
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
    def vector(self) -> np.ndarray | None:
        """``v`` while the operator is still held as ``|v><v|``, else None."""
        return self._vector

    @property
    def g(self) -> np.ndarray:
        if self._g is None:
            v = self._ordered_vector(self.order).reshape(-1)
            self._g = np.outer(v, v.conj()).reshape(self._dims_of(self.order) * 2)
            self.kept, self._vector, self.owned = self.order, None, True
        return self._g

    def matrix(self) -> np.ndarray:
        """``g`` as a square matrix on the kept factors, in ``kept`` order."""
        k = math.prod(self._dims_of(self.kept))
        return self.g.reshape(k, k)

    def trace(self) -> float:
        """Real part of the trace of the whole operator, padding included."""
        if self._vector is not None:
            return float(np.vdot(self._vector, self._vector).real)
        m = self.matrix()
        return float(np.trace(m).real) * (math.prod(self.dims) // m.shape[0])

    def alias(self) -> "PaddedOperator":
        """The same operator, sharing storage and copying before any write."""
        return self._derived(self.kept, self._g, self._vector, owned=False)

    def reordered(self, order: Sequence[int]) -> "PaddedOperator":
        """An alias whose new blocks keep their factors in ``order``."""
        order = tuple(order)
        if sorted(order) != list(range(len(self.dims))):
            raise ValueError(f"order {order!r} is not a permutation of the factors")
        op = self.alias()
        op.order = order
        return op

    def depolarized(self, factors: Iterable[int]) -> "PaddedOperator":
        """``Tr_X(.) (x) 1_X / d_X`` for the factor set ``X``."""
        factors = set(factors)
        pos = [j for j, f in enumerate(self.kept) if f in factors]
        if not pos:
            return self.alias()
        d_x = math.prod(self.dims[self.kept[j]] for j in pos)
        rest = [f for f in self.kept if f not in factors]
        kept = self._in_order(rest)
        if self._vector is not None:
            v2 = self._ordered_vector(kept + [self.kept[j] for j in pos])
            v2 = v2.reshape(-1, d_x)
            # scaling the d x d_x factor costs d entries, not the block's d^2
            g = ((v2 * (1.0 / d_x)) @ v2.conj().T).reshape(self._dims_of(kept) * 2)
        else:
            g = np.empty(self._dims_of(kept) * 2, dtype=complex)
            # the sum keeps the rest in self's order; write it in g's order
            out = g if rest == kept else g.transpose(_axes(kept, rest))
            views, inner = _diagonal_views(self._g, pos)
            views[0].sum(axis=tuple(inner), out=out)
            for view in views[1:]:
                out += view.sum(axis=tuple(inner)) if inner else view
            # the real reciprocal scales in place, with no complex division
            g *= 1.0 / d_x
        return self._derived(kept, g, owned=True)

    def add(self, other: "PaddedOperator") -> None:
        """``self += other`` in place."""
        self._update(other, np.add)

    def subtract(self, other: "PaddedOperator") -> None:
        """``self -= other`` in place."""
        self._update(other, np.subtract)

    def _update(self, other: "PaddedOperator", ufunc: np.ufunc) -> None:
        # other may pad more factors; where it keeps one self pads, self's
        # block is first widened over that factor
        if not set(other.kept) <= set(self.kept):
            kept = self._in_order(set(self.kept) | set(other.kept))
            self._g, self.kept, self.owned = self._widened(kept), tuple(kept), True
        g = self.g  # a vector-held operator materializes into a fresh array
        if not self.owned:
            kept = tuple(self._in_order(self.kept))
            if kept != self.kept:
                g = g.transpose(_axes(self.kept, kept))
            self._g, self.kept, self.owned = g.copy(), kept, True
        views, rhs = other._aligned(self._g, self.kept)
        for view in views:
            ufunc(view, rhs, out=view)

    def _aligned(
        self, target: np.ndarray, target_kept: Sequence[int]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Views of ``target`` that ``g`` lands on, and ``g`` shaped for them.

        ``self`` pads the factors only ``target_kept`` lists, so ``g`` lands
        on the entries of ``target`` whose row and column agree on them
        (see :func:`_diagonal_views`).
        """
        pos = [j for j, f in enumerate(target_kept) if f not in self.kept]
        views, inner = _diagonal_views(target, pos)
        both = [f for f in target_kept if f in self.kept]
        g = self.g
        if both != list(self.kept):
            g = g.transpose(_axes(self.kept, both))
        if not inner:
            return views, g
        # a unit row axis on each diagonal axis of the views
        rows = views[0].ndim - g.ndim // 2
        return views, g[tuple(None if j in inner else slice(None) for j in range(rows))]

    def max_norm(self) -> float:
        if self._vector is not None:
            return float(np.max(np.abs(self._vector), initial=0.0)) ** 2
        return max_norm(self._g)

    def dense(self) -> np.ndarray:
        """The full ``d x d`` matrix in factor order, identity padding included."""
        if self._vector is not None:
            return np.outer(self._vector, self._vector.conj())
        d = math.prod(self.dims)
        return self._widened(range(len(self.dims))).reshape(d, d)

    def _widened(self, kept: Sequence[int]) -> np.ndarray:
        """A fresh block on the factors ``kept``, a superset of ``self.kept``."""
        full = np.zeros(self._dims_of(kept) * 2, dtype=complex)
        views, rhs = self._aligned(full, kept)
        for view in views:
            view[...] = rhs
        return full

    def _derived(
        self,
        kept: Sequence[int],
        g: np.ndarray | None,
        vector: np.ndarray | None = None,
        owned: bool = False,
    ) -> "PaddedOperator":
        op = PaddedOperator(self.dims, kept, g, vector, owned)
        op.order = self.order
        return op

    def _dims_of(self, factors: Iterable[int]) -> tuple[int, ...]:
        return tuple(self.dims[f] for f in factors)

    def _in_order(self, factors: Iterable[int]) -> list[int]:
        """``factors`` listed in ``order``."""
        factors = set(factors)
        return [f for f in self.order if f in factors]

    def _ordered_vector(self, factors: Sequence[int]) -> np.ndarray:
        """The held vector as a tensor with its axes in ``factors``' order."""
        # a vector-held operator keeps every factor, in factor order
        return self._vector.reshape(self.dims).transpose(factors)


# entries max_norm takes in one pass; a larger input is split along its
# leading axes, so ``np.abs`` never makes a temporary of more than this many
# floats (on a 1024 x 1024 input the split is as fast as one pass)
_NORM_BLOCK = 1 << 16


def max_norm(m: np.ndarray) -> float:
    """Largest entry magnitude; the package's default operator distance."""
    if m.size <= _NORM_BLOCK:
        return float(np.max(np.abs(m))) if m.size else 0.0
    step = max(1, _NORM_BLOCK * m.shape[0] // m.size)
    blocks = m if step == 1 else (m[i : i + step] for i in range(0, m.shape[0], step))
    # np.max, unlike the builtin max, keeps a nan from any block
    return float(np.max([max_norm(b) for b in blocks]))


# side of the square tiles is_hermitian compares: on a 4096 x 4096 matrix
# 256 ran faster than 512, and both about 4x faster than untiled
_HERMITIAN_TILE = 256


def is_hermitian(m: np.ndarray) -> bool:
    """Whether ``m`` equals its conjugate transpose within ``DEFAULT_TOL`` (scaled).

    The test is ``max_norm(m - m^H) <= DEFAULT_TOL * max(1, max_norm(m))``.  It is
    evaluated tile by tile over the upper block triangle, which holds every
    entry of ``m - m^H`` up to sign, so no full-size temporary is formed.
    A matrix with a nan or infinite entry is not Hermitian.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    step = _HERMITIAN_TILE
    worst = biggest = 0.0
    for i in range(0, m.shape[0], step):
        # every entry lies in some row band, so a nan or inf entry is seen
        # here, before any subtraction could turn it into a dropped nan
        band = max_norm(m[i : i + step])
        if not math.isfinite(band):
            return False
        biggest = max(biggest, band)
        for j in range(i, m.shape[0], step):
            upper = m[i : i + step, j : j + step]
            lower = m[j : j + step, i : i + step]
            worst = max(worst, max_norm(upper - lower.conj().T))
    return worst <= DEFAULT_TOL * max(1.0, biggest)
