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

import contextlib
import itertools
import math
import sys
import threading
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

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
    d_rest = math.prod(rest)
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


def _aligned(
    target: np.ndarray, target_kept: Sequence[int], kept: Sequence[int]
) -> np.ndarray:
    """The view of ``target`` that a block on ``kept`` lands on, in its axes.

    ``target`` is a C-contiguous block on ``target_kept``, which lists every
    factor of ``kept``.  The block pads the factors only ``target_kept``
    lists, so it lands on the entries of ``target`` whose row and column
    agree on them (see :func:`_diagonal`).  The view has one row axis for
    each of those first, over which the block broadcasts, then the block's
    row and column axes in ``kept`` order.
    """
    pos = [j for j, f in enumerate(target_kept) if f not in kept]
    both = [f for f in target_kept if f in kept]
    rows = [target_kept.index(f) for f in kept]
    cols = [len(target_kept) + both.index(f) for f in kept]
    return _diagonal(target, pos).transpose(pos + rows + cols)


# entries a block may hold before an operator derived from one held by its
# root vector stays held by it, or by pieces, instead of forming the block.
# Every block of a level-1 process (at most 256^2) is formed; on the switch
# pair the 1024^2 and 512^2 blocks of a pure CJ's forbidden part are held by
# its root, as 1024 x 4 and 512 x 8 views of it
_FACTORED_BLOCK = 1 << 16

# entries of the sub-block in which a sum of pieces is assembled: on the
# switch pair's 1024^2 forbidden part, 2^16 gives 16 sub-blocks of 256^2 and
# keeps the buffer at 1 MiB.  Inside a validity report the buffer, like the
# sum's other blocks, comes from the thread's _BlockWorkspace, which keeps
# the last report's blocks for the next
_SUB_BLOCK = 1 << 16

# entries from which a block formed inside a validity report comes from the
# thread's _BlockWorkspace.  From 2^16 the switch pair's smaller blocks and
# factor tables (about 1.2 MiB) stayed with malloc, and glibc trimmed and
# grew them again: a warm validation faulted 430-730 pages in about half of
# fresh processes.  From 2^12 it faulted under 10 in every process tried
_POOLED_BLOCK = 1 << 12


def _refcounts(blocks: list[np.ndarray]) -> list[int]:
    return [sys.getrefcount(b) for b in blocks]


# what _refcounts reads for a block that only the list it is given holds
_POOL_REFS = _refcounts([np.empty(0)])[0]


class _BlockWorkspace(threading.local):
    """The blocks one thread's validity reports form, kept for the next report.

    Inside :meth:`report` (``process_space._validity_report`` runs in one)
    every block of at least ``_POOLED_BLOCK`` entries that a
    :class:`PaddedOperator` forms comes from :meth:`empty`: a
    depolarization, the block of a root or a sum, the copy made before a
    first write, and the buffers and factor tables of a sum's sub-block
    assembly.  ``empty`` hands out the smallest held block that fits, as a
    view of any shape, and allocates a new one (a miss) only when none is
    free.  A held block is free when nothing but the workspace refers to
    it, that is when no view of it is alive.  When a report ends the
    workspace keeps only the blocks that report used, so a repeated
    validation reuses the heap its previous run grew, and holds no more
    between reports than the last one used.  Outside a report, and below
    ``_POOLED_BLOCK`` entries, ``empty`` is ``np.empty``.  Each thread has
    its own workspace.  Reports do not nest.
    """

    def __init__(self) -> None:
        self.open = False  # whether a report runs in this thread
        self.blocks: list[np.ndarray] = []
        self.used: set[int] = set()  # ids of the blocks the open report used
        self.misses = 0

    @contextlib.contextmanager
    def report(self) -> Iterator[None]:
        self.open = True
        try:
            yield
        finally:
            self.open = False
            self.blocks = [b for b in self.blocks if id(b) in self.used]
            self.used = set()

    def clear(self) -> None:
        """Let go of every held block."""
        self.blocks, self.used = [], set()

    def empty(self, shape: Sequence[int]) -> np.ndarray:
        """An uninitialized complex block of ``shape``."""
        n = math.prod(shape)
        if not self.open or n < _POOLED_BLOCK:
            return np.empty(shape, dtype=complex)
        refs = _refcounts(self.blocks)
        free = [
            b for b, r in zip(self.blocks, refs) if r == _POOL_REFS and b.size >= n
        ]
        if free:
            block = min(free, key=len)
        else:
            block = np.empty(n, dtype=complex)
            self.blocks.append(block)
            self.misses += 1
        self.used.add(id(block))
        return block[:n].reshape(shape)


_WORKSPACE = _BlockWorkspace()


class PaddedOperator:
    """An operator ``g (x) 1_R`` on a product space, stored by ``g`` alone.

    ``g`` keeps one row axis and one column axis per factor in ``kept``, in
    the order of ``kept``; ``R`` is every other factor.  Depolarizing a
    factor set ``X`` (trace it out and put back ``1_X / d_X``) shrinks ``g``
    and reads only its ``X``-diagonal entries, and the max-norm of the whole
    operator is ``max |g|``, so neither step ever expands the identity part.

    ``g`` is held in one of three forms:

    * a dense block;
    * a root vector ``v``: the operator is ``D_X(|v><v|)``, with ``X`` the
      factors it does not keep, so ``g = F F^dag / d_X`` with ``F`` the
      ``(d_kept, d_X)`` matrix of ``v``'s entries, a transposed view of
      ``v``.  ``|v><v|`` itself keeps every factor (``vector``).
      Depolarizing drops factors from ``kept`` and nothing else, while
      ``d_X`` stays below ``d_kept`` and the block would hold more than
      ``_FACTORED_BLOCK`` entries; otherwise it forms the block.  The
      max-norm is ``max_i |F_i|^2 / d_X``, found on the diagonal since ``g``
      is positive;
    * a signed sum of pieces, each a block or a root-held operator on some
      of ``kept``, when ``add`` or ``subtract`` meets an operand that keeps
      a factor the operator pads, or would otherwise form a block above
      ``_FACTORED_BLOCK`` entries from a root or a sum.  A piece of at most
      that many entries joins a block piece that keeps its factors.  Two
      root-held pieces are one operator when they share the root and keep
      the same factors of dimension above 1, so one of opposite sign
      cancels the other.  A sum depolarizes into an empty sum, to which
      each depolarized piece is added as by ``add``, so it forms one block
      once the result is that small.  ``max_norm`` assembles the sum one
      sub-block at a time in one reused buffer of ``_SUB_BLOCK`` entries: a
      sub-block fixes the row and the column indices of a few kept
      factors, and each piece lands in it as a padded block on the others,
      as in ``add``.  ``g`` (so ``matrix`` and ``dense``) assembles it once
      into a block.

    ``order`` lists every factor, in factor order unless :meth:`reordered`
    sets another.  Each block the operator creates (a depolarization, the
    copy of a shared block, an assembly) keeps its factors in that order,
    so a caller that pads the outermost factors of a large block touches
    long contiguous runs.  ``matrix`` and ``g`` follow ``kept``;
    ``dense`` is in factor order.

    ``add`` and ``subtract`` work in place and consume their operand, whose
    storage ``self`` may take over.  An instance that shares its array with
    a caller (``owned`` false) copies it before the first write.

    While a validity report runs (``process_space._validity_report``),
    every block of at least ``_POOLED_BLOCK`` entries that an instance
    forms comes from the thread's block workspace (:class:`_BlockWorkspace`):
    a depolarization's output, the block a root or a sum forms in ``g``,
    the copy before the first write, and the sub-block and product buffers
    and the factor tables of ``_assembled``.  The workspace lives inside
    one report at a time, holds each block until nothing refers to it and
    then hands it out again, and keeps only the last report's blocks, so a
    repeated validation grows no heap.  Smaller blocks, and every block
    formed outside a report, are plain ``np.empty``.
    """

    def __init__(
        self,
        dims: Sequence[int],
        kept: Sequence[int],
        g: np.ndarray | None = None,
        owned: bool = False,
    ) -> None:
        self.dims = tuple(dims)
        self.kept = tuple(kept)
        self.order = tuple(range(len(self.dims)))
        # _diagonal views a block through its buffer, which must be contiguous
        self._g = g if g is None or g.flags.c_contiguous else g.copy()
        self._root: np.ndarray | None = None
        self._pieces: list[tuple[float, PaddedOperator]] | None = None
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
        op = cls(dims, range(len(dims)))
        op._root = v
        return op

    @property
    def vector(self) -> np.ndarray | None:
        """``v`` while the operator is still held as ``|v><v|``, else None."""
        # depolarizing drops a factor from kept, so only |v><v| keeps them all
        if len(self.kept) < len(self.dims):
            return None
        return self._root

    @property
    def g(self) -> np.ndarray:
        if self._root is not None:
            kept = self._in_order(self.kept)
            f, w = self._root_factor(kept)
            g = _WORKSPACE.empty((f.shape[0],) * 2)
            if self.vector is not None:
                # the outer product, whose bits a matrix product need not keep
                np.outer(f[:, 0], f[:, 0].conj(), out=g)
            else:
                # scaling the d_kept x d_X factor costs d entries, not the block's
                np.matmul(f * w, f.conj().T, out=g)
            self._g = g.reshape(self._dims_of(kept) * 2)
            self.kept, self._root, self.owned = tuple(kept), None, True
        elif self._pieces is not None:
            full = _WORKSPACE.empty(self._dims_of(self.kept) * 2)
            for idx, sub in self._assembled():
                full[idx] = sub
            self._g, self._pieces, self.owned = full, None, True
        return self._g

    def matrix(self) -> np.ndarray:
        """``g`` as a square matrix on the kept factors, in ``kept`` order."""
        k = math.prod(self._dims_of(self.kept))
        return self.g.reshape(k, k)

    def trace(self) -> float:
        """Real part of the trace of the whole operator, padding included."""
        v = self.vector
        if v is not None:
            return float(np.vdot(v, v).real)
        m = self.matrix()
        return float(np.trace(m).real) * (math.prod(self.dims) // m.shape[0])

    def alias(self) -> "PaddedOperator":
        """The same operator, sharing storage and copying before any write."""
        op = self._derived(self.kept, self._g)
        if self._pieces is not None:
            op._pieces = [(s, p.alias()) for s, p in self._pieces]
        return op

    def reordered(self, order: Sequence[int]) -> "PaddedOperator":
        """An alias whose new blocks keep their factors in ``order``."""
        order = tuple(order)
        if sorted(order) != list(range(len(self.dims))):
            raise ValueError(f"order {order!r} is not a permutation of the factors")
        op = self.alias()
        for piece in [op] + [p for _, p in op._pieces or ()]:
            piece.order = order
        return op

    def depolarized(self, factors: Iterable[int]) -> "PaddedOperator":
        """``Tr_X(.) (x) 1_X / d_X`` for the factor set ``X``.

        A sum depolarizes into an empty sum on the factors that remain, to
        which each piece, depolarized, is added or subtracted in turn.
        """
        factors = set(factors)
        pos = [j for j, f in enumerate(self.kept) if f in factors]
        if not pos:
            return self.alias()
        if self._pieces is not None:
            # _update forms one block when that is small, else keeps pieces
            total = self._derived(
                self._in_order(
                    f for _, p in self._pieces for f in p.kept if f not in factors
                )
            )
            total._pieces = []
            for s, p in self._pieces:
                total._update(p.depolarized(factors), s)
            return total
        rest = [f for f in self.kept if f not in factors]
        kept = self._in_order(rest)
        if self._root is not None:
            op = self._derived(kept)
            # d_X < d_kept exactly when the block's d_kept^2 entries exceed d
            if self._entries(kept) <= max(_FACTORED_BLOCK, math.prod(self.dims)):
                op.g  # reading g forms the small block from the root
            return op
        d_x = math.prod(self.dims[self.kept[j]] for j in pos)
        g = _WORKSPACE.empty(self._dims_of(kept) * 2)
        # the sum keeps the rest in self's order; write it in g's order
        out = g if rest == kept else g.transpose(_axes(kept, rest))
        _diagonal(self._g, pos).sum(axis=tuple(pos), out=out)
        # the real reciprocal scales in place, with no complex division
        g *= 1.0 / d_x
        return self._derived(kept, g, owned=True)

    def add(self, other: "PaddedOperator") -> None:
        """``self += other`` in place; ``other`` is consumed."""
        self._update(other, 1.0)

    def subtract(self, other: "PaddedOperator") -> None:
        """``self -= other`` in place; ``other`` is consumed."""
        self._update(other, -1.0)

    def _update(self, other: "PaddedOperator", sign: float) -> None:
        # an operand that keeps a factor self pads is held as a piece, and so
        # is any operand of a root or a sum whose block would be large
        if not set(other.kept) <= set(self.kept) or (
            self._g is None and self._entries(self.kept) > _FACTORED_BLOCK
        ):
            if self._pieces is None:
                self._pieces = [(1.0, self._derived(self.kept, self._g, self.owned))]
                self._g = self._root = None
            self.kept = tuple(self._in_order(set(self.kept) | set(other.kept)))
            for s, p in [(1.0, other)] if other._pieces is None else other._pieces:
                self._append(sign * s, p)
            return
        # other keeps only factors self keeps, and may pad more of them
        g = self.g  # a root or a sum forms its block here, in a fresh array
        if not self.owned:
            kept = tuple(self._in_order(self.kept))
            if kept != self.kept:
                g = g.transpose(_axes(self.kept, kept))
            self._g = _WORKSPACE.empty(g.shape)
            np.copyto(self._g, g)
            self.kept, self.owned = kept, True
        for s, p in [(1.0, other)] if other._pieces is None else other._pieces:
            g = p.g  # a root forms its block, and its kept, here
            view = _aligned(self._g, self.kept, p.kept)
            ufunc = np.add if sign * s > 0 else np.subtract
            ufunc(view, g, out=view)

    def _append(self, sign: float, piece: "PaddedOperator") -> None:
        """Add ``sign * piece`` to a sum.

        A piece no larger than ``_FACTORED_BLOCK`` joins a block piece that
        keeps its factors.  A root-held piece cancels one of opposite sign
        that holds the same root on the same factors, up to factors of
        dimension 1, whose depolarization changes nothing.
        """
        if piece._entries(piece.kept) <= _FACTORED_BLOCK:
            for s, p in self._pieces:
                if p._g is not None and set(piece.kept) <= set(p.kept):
                    p._update(piece, sign * s)
                    return
        if piece._root is not None:
            wide = {f for f in piece.kept if self.dims[f] > 1}
            for i, (s, p) in enumerate(self._pieces):
                if s != sign and p._root is piece._root:
                    if wide == {f for f in p.kept if self.dims[f] > 1}:
                        del self._pieces[i]
                        return
        self._pieces.append((sign, piece))

    def _assembled(self, upper: bool = False) -> Iterator[tuple[tuple, np.ndarray]]:
        """A sum's block, one sub-block at a time, in one reused buffer.

        A sub-block ``(x, y)`` fixes the row indices ``x`` and the column
        indices ``y`` on as few kept factors as keep it within
        ``_SUB_BLOCK`` entries, taken first among the factors every
        root-held piece keeps: a piece padded on a fixed factor would form
        the same product again in each sub-block it meets.  Fixed there,
        each piece is a padded block on the other factors (see
        :meth:`_sub_blocks`), which lands in the buffer through
        :func:`_aligned`'s view, computed once.  A first piece that is a
        root added on every kept factor writes its product straight into
        the buffer, in place of zeroing it and adding the product; the
        other root-held pieces form theirs in a second reused buffer.  Each
        sub-block is yielded with its index into the block.  With ``upper``
        only those with ``y >= x`` (as flat indices) are: with their
        transposes they meet every entry.
        """
        kept = self.kept
        dims = self._dims_of(kept)
        pads = {
            f for _, p in self._pieces if p._root is not None
            for f in kept if f not in p.kept
        }
        pos, side = [], math.prod(dims)
        for i in sorted(range(len(kept)), key=lambda i: kept[i] in pads):
            if side * side <= _SUB_BLOCK:
                break
            pos.append(i)
            side //= dims[i]
        pos.sort()
        fixed = [kept[i] for i in pos]
        rest = [f for f in kept if f not in fixed]
        sub = _WORKSPACE.empty(self._dims_of(rest) * 2)
        pieces = list(self._pieces)
        head = pieces[0][1] if pieces and pieces[0][0] > 0 else None
        first = None
        if head is not None and head._root is not None and head.kept == kept:
            first = head._sub_blocks(fixed, sub.reshape(-1))
            del pieces[0]
        leads = [
            math.prod(self._dims_of(f for f in p.kept if f not in fixed))
            for _, p in pieces if p._root is not None
        ]
        products = _WORKSPACE.empty((max(leads, default=0) ** 2,))
        lands = [
            (
                s,
                p._sub_blocks(fixed, products),
                _aligned(sub, rest, [f for f in p.kept if f not in fixed]),
            )
            for s, p in pieces
        ]
        values = list(itertools.product(*(range(dims[i]) for i in pos)))
        for n, x in enumerate(values):
            for y in values[n if upper else 0 :]:
                if first is None:
                    sub.fill(0)
                else:
                    first(x, y)
                    # as zeroing and adding would, turn a -0.0 into +0.0
                    sub += 0.0
                for s, block_at, view in lands:
                    block = block_at(x, y)
                    if block is not None:
                        (np.add if s > 0 else np.subtract)(view, block, out=view)
                idx = [slice(None)] * 2 * len(kept)
                for i, xi, yi in zip(pos, x, y):
                    idx[i], idx[len(kept) + i] = xi, yi
                yield tuple(idx), sub

    def _sub_blocks(
        self, fixed: Sequence[int], products: np.ndarray
    ) -> Callable[[Sequence[int], Sequence[int]], np.ndarray | None]:
        """The block where the factors ``fixed`` have rows ``x`` and columns ``y``.

        The returned function takes ``x`` and ``y`` and gives the block on
        the other factors this operator keeps, in ``kept`` order, or None
        where this operator pads a fixed factor whose row and column differ.
        A block gives the slice ``g[x.., y..]``.  A root gives
        ``F_x F_y^dag / d_X``, written into ``products``; ``F_x / d_X`` and
        ``conj(F_x)`` are formed once here for every value ``x`` of the
        fixed factors the root keeps.
        """
        at = [fixed.index(f) if f in fixed else None for f in self.kept]
        padded = [i for i, f in enumerate(fixed) if f not in self.kept]

        def index(x: Sequence[int]) -> tuple:
            return tuple(slice(None) if i is None else x[i] for i in at)

        if self._root is None:
            g = self.g

            def block_at(x, y):
                if any(x[i] != y[i] for i in padded):
                    return None
                return g[index(x) + index(y)]

            return block_at
        # x's flat index over the fixed factors the root keeps, in kept order
        cut = [i for i in at if i is not None]
        cut_dims = self._dims_of(fixed[i] for i in cut)
        weights = [(i, math.prod(cut_dims[k + 1 :])) for k, i in enumerate(cut)]
        other = [f for f in self.kept if f not in fixed]
        lead = self._dims_of(other)
        side = math.prod(lead)
        t = self._root_tensor([fixed[i] for i in cut] + other)
        d_x = t.size // math.prod(self._dims_of(self.kept))
        # F_x / d_X and conj(F_x) for every x, as (x, side, d_X) tables
        scaled, conj = _WORKSPACE.empty(t.shape), _WORKSPACE.empty(t.shape)
        np.multiply(t, 1.0 / d_x, out=scaled)
        np.conjugate(t, out=conj)
        scaled, conj = scaled.reshape(-1, side, d_x), conj.reshape(-1, side, d_x)
        out = products[: side * side].reshape(side, side)

        def block_at(x, y):
            if any(x[i] != y[i] for i in padded):
                return None
            row = sum(x[i] * w for i, w in weights)
            col = sum(y[i] * w for i, w in weights)
            return np.matmul(scaled[row], conj[col].T, out=out).reshape(lead * 2)

        return block_at

    def absorbed(self, factors: Sequence[int], stack: np.ndarray) -> np.ndarray:
        """``Tr_X(C_k .)`` for every ``C_k`` of a ``(K, d_X, d_X)`` stack.

        ``X`` is ``factors``, each ``C_k`` on them in the listed order.  The
        result has shape ``(K, d, d)`` on the remaining factors, in factor
        order.  A held ``|v><v|`` gives ``M C_k^T M^dag``, with ``M`` the
        vector as a (remaining factors, ``X``) matrix, so ``|v><v|`` is never
        formed; any other operator goes into :func:`_absorb` as its tensor
        in factor order.
        """
        factors = list(factors)
        rest = [f for f in range(len(self.dims)) if f not in factors]
        d = math.prod(self._dims_of(rest))
        if self.vector is not None:
            m = self._root_tensor(rest + factors).reshape(d, -1)
            return np.stack([m @ c.T @ m.conj().T for c in stack])
        every = tuple(range(len(self.dims)))
        t = self.g if self.kept == every else self._widened(every)
        return _absorb(t, self.dims, factors, stack).reshape(-1, d, d)

    def max_norm(self) -> float:
        if self._root is not None:
            f, w = self._root_factor(self.kept)
            rows = np.abs(f[:, 0]) if f.shape[1] == 1 else np.linalg.norm(f, axis=1)
            return w * float(np.max(rows, initial=0.0)) ** 2
        if self._pieces is not None:
            # np.max, unlike the builtin max, keeps a nan from any sub-block
            return float(np.max([max_norm(sub) for _, sub in self._assembled()]))
        return max_norm(self._g)

    def _hermitian_max_norm(self) -> float:
        """``max_norm`` of an operator that is Hermitian.

        A sum is assembled only in its sub-blocks ``(x, y)`` with ``y >= x``:
        the sub-block ``(y, x)`` is the conjugate transpose of ``(x, y)``, so
        they hold every entry or its conjugate, ``(n + 1) / 2n`` of the
        ``n^2`` sub-blocks (10 of 16 on the switch pair).
        """
        if self._pieces is None:
            return self.max_norm()
        return float(np.max([max_norm(sub) for _, sub in self._assembled(True)]))

    def dense(self) -> np.ndarray:
        """The full ``d x d`` matrix in factor order, identity padding included."""
        v = self.vector
        if v is not None:
            return np.outer(v, v.conj())
        d = math.prod(self.dims)
        return self._widened(range(len(self.dims))).reshape(d, d)

    def _widened(self, kept: Sequence[int]) -> np.ndarray:
        """A fresh block on the factors ``kept``, a superset of ``self.kept``."""
        full = np.zeros(self._dims_of(kept) * 2, dtype=complex)
        g = self.g
        _aligned(full, kept, self.kept)[...] = g
        return full

    def _derived(
        self, kept: Sequence[int], g: np.ndarray | None = None, owned: bool = False
    ) -> "PaddedOperator":
        """An operator with ``self``'s order, held by ``g``, else by ``self``'s root."""
        op = PaddedOperator(self.dims, kept, g, owned)
        op.order = self.order
        if g is None:
            op._root = self._root
        return op

    def _entries(self, factors: Iterable[int]) -> int:
        """Entries of a block on ``factors``."""
        return math.prod(self._dims_of(factors)) ** 2

    def _dims_of(self, factors: Iterable[int]) -> tuple[int, ...]:
        return tuple(self.dims[f] for f in factors)

    def _in_order(self, factors: Iterable[int]) -> list[int]:
        """``factors`` listed in ``order``."""
        factors = set(factors)
        return [f for f in self.order if f in factors]

    def _root_tensor(self, rows: Sequence[int]) -> np.ndarray:
        """The root as a tensor view: the axes of ``rows``, then the others'."""
        rest = [f for f in range(len(self.dims)) if f not in rows]
        return self._root.reshape(self.dims).transpose(list(rows) + rest)

    def _root_factor(self, rows: Sequence[int]) -> tuple[np.ndarray, float]:
        """``F`` and ``1 / d_X``: ``D_X(|v><v|)`` on ``rows`` is ``F F^dag / d_X``."""
        t = self._root_tensor(rows)
        d_rows = math.prod(self._dims_of(rows))
        return t.reshape(d_rows, -1), d_rows / t.size


# entries of the operator tensor from which _absorb contracts it by einsum,
# which reads it in place, instead of tensordot, which first copies it.  One
# thread, one absorption: tensordot ran 4x faster on a 256^2 operator (0.25
# against 1.0 ms), the two tied at 1024^2 (4.7 against 4.3 ms), and at 4096^2
# einsum ran in 71 ms against 109 ms and a 256 MiB copy
_COPY_FREE_ENTRIES = 1 << 20


def _absorb(
    w: np.ndarray, dims: Sequence[int], factors: Sequence[int], stack: np.ndarray
) -> np.ndarray:
    """``Tr_X(C_k W)`` for every ``C_k`` of ``stack``, by one contraction.

    ``w`` is a layout tensor: any leading axes, then one row axis per entry
    of ``dims``, then one column axis per entry.  ``X`` is the factors at the
    positions ``factors``, and ``stack`` has shape ``(K, d_X, d_X)`` with each
    ``C_k`` on those factors in the listed order.  ``1 (x) C_k`` is never
    formed, and ``w`` is not reordered before the contraction: below
    ``_COPY_FREE_ENTRIES`` entries it goes into one ``np.tensordot`` as it
    is (``tensordot`` itself copies ``w`` with the contracted axes moved
    together), and from there into one ``np.einsum``, which makes no copy.
    Entrywise,

        Tr_X(C W)[r, r'] = sum_{x, y} C[x, y] W[(r, y), (r', x)],

    so ``C``'s row axes meet ``w``'s column axes of ``X`` and its column
    axes meet the row axes.  The result has the stack axis first, then
    ``w``'s leading axes, then the remaining row and column axes in order.
    """
    n = len(dims)
    lead = w.ndim - 2 * n
    sub = tuple(dims[f] for f in factors)
    c = stack.reshape(stack.shape[:1] + sub * 2)
    w_axes = [lead + n + f for f in factors] + [lead + f for f in factors]
    if w.size < _COPY_FREE_ENTRIES:
        return np.tensordot(c, w, axes=(range(1, 1 + 2 * len(factors)), w_axes))
    # einsum labels: w's own axis numbers, and for c the stack axis, then
    # the labels of the w axes each of its row and column axes meets
    out = [w.ndim] + [a for a in range(w.ndim) if a not in w_axes]
    return np.einsum(c, [w.ndim] + w_axes, w, list(range(w.ndim)), out)


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
