"""Process matrices: validity, projection, probabilities, named constructors.

A process matrix ``W`` on a multi-party layout is a Hermitian operator that
produces normalized outcome statistics for arbitrary local instruments via

    p(i, j, ...) = Tr(W (C_i (x) C_j (x) ...))

with ``C_x`` the Choi-Jamiolkowski (CJ) operators of the instrument elements.
``W`` is *valid* when it is (a) positive semidefinite, (b) normalized to
``Tr W = d_out`` (the product of all output dimensions), and (c) invariant
under the projector onto the span of the *allowed* product-basis terms.

A term is forbidden exactly when it acts nontrivially on some party's output
factor while every party it touches at all is touched on that party's own
output; such terms would let a party signal to itself or create a closed
signalling loop, breaking probability normalization.  Everything else -
shared input states and one-way signalling patterns - is allowed.

The same three conditions define validity at every level of the order
hierarchy (``HierarchyLevel``): processes at level 1, maps of processes at
level 2, and so on up.  One projector, :func:`forbidden_part`, computes the
forbidden part of an operator at any level by partial traces, and one core,
``_validity_report``, turns an operator and its level into the three
residuals; ``validate`` here and ``validate_supermap`` / ``validate_order_n``
in :mod:`pmx.supermaps` check their input and call it.  Causal order
(:func:`comb_order_satisfied`) is a partial-trace condition as well, so no
check needs the product-term basis; ``allowed_mask`` states the term rule
over that basis for the code that works in it (rigidity, extremality).

The CJ convention used throughout: ``C_N = (1 (x) N)|1>><<1|`` with the
unnormalized maximally entangled vector ``|1>> = sum_i |ii>``, so a map acts
on a state as ``N(rho) = Tr_in(C_N (rho^T (x) 1))`` and trace preservation
reads ``Tr_out(C_N) = 1_in``.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .hs_algebra import touched_mask
from .operator_core import (
    DEFAULT_TOL,
    PaddedOperator,
    Party,
    SpaceLayout,
    _WORKSPACE,
    _absorb,
    is_hermitian,
    max_norm,
    partial_trace,
    tensor,
)

TermPattern = tuple[int, ...]

# comb_order_satisfied's tolerance, relative to the operator's max-norm
COMB_TOL = 1e-12

# the largest block side a validation reads, and a dense supermap CJ's side
MAX_CJ_DIM = 4096

__all__ = [
    "TermClass",
    "CausalOrderFlag",
    "ProcessMatrix",
    "Instrument",
    "ConditionReport",
    "ValidationReport",
    "HierarchyLevel",
    "bipartite_qubit_layout",
    "single_party_layout",
    "switch_layout",
    "extended_switch_layout",
    "classify_term",
    "allowed_mask",
    "forbidden_part",
    "validate",
    "born_probabilities",
    "cj_of_unitary",
    "shared_state",
    "memory_channel",
    "w_ocb",
    "w_ll",
    "grandfather_instrument",
    "quantum_switch",
    "switch_branch_vectors",
    "switch_input_channel",
    "extended_switch",
    "extended_branch_vectors",
    "causal_order_flags",
    "comb_order_satisfied",
]


class TermClass(enum.Enum):
    ALLOWED = "allowed"
    FORBIDDEN = "forbidden"


class CausalOrderFlag(enum.Enum):
    NO_SIGNALLING = "no_signalling"
    A_TO_B = "A_to_B"
    B_TO_A = "B_to_A"
    NEITHER = "neither"


@dataclass(frozen=True, eq=False, init=False)
class ProcessMatrix:
    """A Hermitian operator on a layout's product space.

    ``ProcessMatrix(layout, m)`` holds a dense matrix, and Hermiticity is
    enforced at construction (validity is not: invalid matrices are
    representable so they can be diagnosed).  The stored array is a
    read-only copy.

    A pure process ``|v><v|`` is held by its amplitude vector instead
    (:meth:`of_vector`; ``quantum_switch``, ``switch_input_channel`` and
    ``extended_switch`` return this form).  It is Hermitian by
    representation, so construction checks only that ``v`` is finite.
    ``vector`` is ``v`` (None for a dense process), and ``matrix`` is built
    once, on its first read, as ``np.outer(v, v.conj())``.  ``validate``,
    :func:`comb_order_satisfied`, :func:`born_probabilities` and the
    instrument reduction's action read the vector and never build the
    matrix; PMX files and the other readers of ``matrix`` build it.
    """

    layout: SpaceLayout
    _matrix: np.ndarray | None
    _vector: np.ndarray | None

    def __init__(self, layout: SpaceLayout, matrix: np.ndarray) -> None:
        m = np.array(matrix, dtype=complex)
        d = layout.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match layout dim {d}")
        if not is_hermitian(m):
            raise ValueError("process matrix must be Hermitian")
        m.setflags(write=False)
        self._hold(layout, m, None)

    @classmethod
    def of_vector(cls, layout: SpaceLayout, vector: np.ndarray) -> "ProcessMatrix":
        """The pure process ``|v><v|``, held by a read-only copy of ``v``."""
        v = np.array(vector, dtype=complex)
        if v.shape != (layout.dim,):
            raise ValueError(
                f"vector shape {v.shape} does not match layout dim {layout.dim}"
            )
        # |v_i v_j| <= |v|^2, so a finite norm keeps every matrix entry finite;
        # a matrix with a nan or inf entry is not Hermitian
        if not math.isfinite(np.vdot(v, v).real):
            raise ValueError("process matrix must be Hermitian")
        v.setflags(write=False)
        w = cls.__new__(cls)
        w._hold(layout, None, v)
        return w

    @classmethod
    def _hermitian_part(cls, layout: SpaceLayout, m: np.ndarray) -> "ProcessMatrix":
        """``(m + m^H) / 2``, exactly Hermitian, so only finiteness is checked."""
        h = (m + m.conj().T) / 2
        if not math.isfinite(max_norm(h)):
            raise ValueError("process matrix must be Hermitian")
        h.setflags(write=False)
        w = cls.__new__(cls)
        w._hold(layout, h, None)
        return w

    def _hold(
        self, layout: SpaceLayout, m: np.ndarray | None, v: np.ndarray | None
    ) -> None:
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_matrix", m)
        object.__setattr__(self, "_vector", v)

    @property
    def matrix(self) -> np.ndarray:
        """The read-only dense matrix, built on first read for a vector."""
        if self._matrix is None:
            m = np.outer(self._vector, self._vector.conj())
            m.setflags(write=False)
            object.__setattr__(self, "_matrix", m)
        return self._matrix

    @property
    def vector(self) -> np.ndarray | None:
        """The amplitude vector of a process held by one, else None."""
        return self._vector

    @property
    def dim(self) -> int:
        return self.layout.dim


def _party_dims(layout: SpaceLayout, p: Party) -> tuple[int, int]:
    """Party ``p``'s ``(d_in, d_out)``; an empty side has dimension 1."""
    return (
        math.prod(layout.dims[k] for k in p.inputs),
        math.prod(layout.dims[k] for k in p.outputs),
    )


def _element_spectrum(c: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, float]:
    """``eigh`` of an element CJ ``c``, refused unless it is Hermitian and PSD.

    An element is completely positive, so ``c`` is refused when an
    eigenvalue is below ``-bound``, ``bound = DEFAULT_TOL max(1, |Tr c|)``.
    """
    if not is_hermitian(c):
        raise ValueError(f"{what} not Hermitian")
    lam, vecs = np.linalg.eigh((c + c.conj().T) / 2)
    bound = DEFAULT_TOL * max(1.0, abs(np.trace(c)))
    if lam[0] < -bound:
        raise ValueError(f"{what} is not PSD (lowest eigenvalue {lam[0]:.3e})")
    return lam, vecs, bound


@dataclass(frozen=True, eq=False)
class Instrument:
    """CJ operators of one party's instrument elements.

    Each element must be positive semidefinite and the element sum must be
    trace-preserving: ``Tr_out(sum_i C_i) = 1_in``.  Elements live on the
    party's input factors followed by its output factors, in layout order.
    """

    party: str
    elements: tuple[np.ndarray, ...]
    d_in: int
    d_out: int

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("instrument needs at least one element")
        d = self.d_in * self.d_out
        frozen = []
        for k, c in enumerate(self.elements):
            c = np.array(c, dtype=complex)
            if c.shape != (d, d):
                raise ValueError(
                    f"element {k} of instrument {self.party!r} has shape "
                    f"{c.shape}, expected {(d, d)}"
                )
            _element_spectrum(c, f"element {k} of instrument {self.party!r}")
            c.setflags(write=False)
            frozen.append(c)
        total = sum(frozen)
        marg = partial_trace(total, (self.d_in, self.d_out), [1])
        if max_norm(marg - np.eye(self.d_in)) > DEFAULT_TOL * max(1.0, self.d_out):
            raise ValueError(
                f"instrument {self.party!r} does not sum to a trace-preserving map"
            )
        object.__setattr__(self, "elements", tuple(frozen))

    @classmethod
    def from_party(
        cls, layout: SpaceLayout, party: str, elements: Sequence[np.ndarray]
    ) -> "Instrument":
        return cls(party, tuple(elements), *_party_dims(layout, layout.party(party)))


@dataclass(frozen=True)
class ConditionReport:
    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition residuals and the overall verdict."""

    conditions: tuple[ConditionReport, ...]
    valid: bool

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def positivity(self) -> ConditionReport:
        return self.condition("positivity")

    @property
    def trace(self) -> ConditionReport:
        return self.condition("trace")

    @property
    def subspace(self) -> ConditionReport:
        return self.condition("subspace")


@dataclass(frozen=True)
class HierarchyLevel:
    """A node of the order hierarchy.

    ``n = 1`` wraps a process layout; ``n >= 2`` pairs two level-``(n-1)``
    nodes (input side, output side).
    """

    n: int
    layout: SpaceLayout | None = None
    slot1: "HierarchyLevel | None" = None
    slot2: "HierarchyLevel | None" = None

    def __post_init__(self) -> None:
        if self.n == 1:
            if self.layout is None or self.slot1 is not None or self.slot2 is not None:
                raise ValueError("level 1 wraps exactly one layout")
        elif self.n >= 2:
            if self.layout is not None or self.slot1 is None or self.slot2 is None:
                raise ValueError("higher levels pair two sub-levels")
            if self.slot1.n != self.n - 1 or self.slot2.n != self.n - 1:
                raise ValueError("both slots must sit one level below")
        else:
            raise ValueError(f"level must be positive, got {self.n}")

    @classmethod
    def process(cls, layout: SpaceLayout) -> "HierarchyLevel":
        return cls(1, layout=layout)

    @classmethod
    def pair(cls, slot1: "HierarchyLevel", slot2: "HierarchyLevel") -> "HierarchyLevel":
        return cls(slot1.n + 1, slot1=slot1, slot2=slot2)

    @property
    def dims(self) -> tuple[int, ...]:
        if self.n == 1:
            return self.layout.dims
        return self.slot1.dims + self.slot2.dims

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def trace_constant(self) -> float:
        """Trace of any object satisfying this level's conditions.

        ``d_out`` for processes; ``dim(H_1) * t_2 / t_1`` one level up, the
        trace forced by the trace-rescaling condition.
        """
        if self.n == 1:
            return float(self.layout.d_out)
        return self.slot1.dim * self.slot2.trace_constant / self.slot1.trace_constant


# ---------------------------------------------------------------------------
# layout presets
# ---------------------------------------------------------------------------


def bipartite_qubit_layout() -> SpaceLayout:
    """Two parties with qubit input and output, ordered A_I, B_I, A_O, B_O."""
    return SpaceLayout.build(
        [("A_I", 2), ("B_I", 2), ("A_O", 2), ("B_O", 2)],
        [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
    )


def single_party_layout(d_in: int = 2, d_out: int = 2) -> SpaceLayout:
    return SpaceLayout.build(
        [("A_I", d_in), ("A_O", d_out)], [("A", ["A_I"], ["A_O"])]
    )


def switch_layout(d: int = 2) -> SpaceLayout:
    """Tripartite layout A_I, B_I, A_O, B_O, C_T, C_C.

    Parties A and B have ``d``-dimensional input and output; party C holds
    the final target (dimension ``d``) and control (qubit) factors as inputs
    and has trivial output.
    """
    return SpaceLayout.build(
        [("A_I", d), ("B_I", d), ("A_O", d), ("B_O", d), ("C_T", d), ("C_C", 2)],
        [
            ("A", ["A_I"], ["A_O"]),
            ("B", ["B_I"], ["B_O"]),
            ("C", ["C_T", "C_C"], []),
        ],
    )


def extended_switch_layout() -> SpaceLayout:
    """Four-party qubit layout A_I, B_I, D_I, A_O, B_O, D_O, C_T, C_C."""
    return SpaceLayout.build(
        [
            ("A_I", 2),
            ("B_I", 2),
            ("D_I", 2),
            ("A_O", 2),
            ("B_O", 2),
            ("D_O", 2),
            ("C_T", 2),
            ("C_C", 2),
        ],
        [
            ("A", ["A_I"], ["A_O"]),
            ("B", ["B_I"], ["B_O"]),
            ("D", ["D_I"], ["D_O"]),
            ("C", ["C_T", "C_C"], []),
        ],
    )


# ---------------------------------------------------------------------------
# term taxonomy and the valid-subspace projector
# ---------------------------------------------------------------------------


def classify_term(pattern: TermPattern, layout: SpaceLayout) -> TermClass:
    """Classify one product-basis term as allowed or forbidden.

    Forbidden iff the term is nontrivial on at least one output factor and
    every party the term touches is touched on that party's own output; the
    rule is read from :func:`allowed_mask`.
    """
    if len(pattern) != layout.n_factors:
        raise ValueError(f"pattern length {len(pattern)} != {layout.n_factors}")
    for a, d in zip(pattern, layout.dims):
        if not 0 <= a < d * d:
            raise ValueError(f"index {a} out of range for factor dimension {d}")
    allowed = allowed_mask(layout)[tuple(pattern)]
    return TermClass.ALLOWED if allowed else TermClass.FORBIDDEN


@lru_cache(maxsize=None)
def allowed_mask(layout: SpaceLayout) -> np.ndarray:
    """Boolean tensor over term patterns, True where the term is allowed.

    Shape matches the coefficient tensor ``(d_0^2, ..., d_{n-1}^2)``; the
    result is cached per layout and read-only.
    """
    n = layout.n_factors
    qdims = tuple(d * d for d in layout.dims)
    any_output = np.zeros((1,) * n, dtype=bool)
    every_touched_leaks = np.ones((1,) * n, dtype=bool)
    for p in layout.parties:
        touched = touched_mask(qdims, p.inputs + p.outputs)
        out_touched = touched_mask(qdims, p.outputs)
        any_output = any_output | out_touched
        every_touched_leaks = every_touched_leaks & (~touched | out_touched)
    forbidden = any_output & every_touched_leaks
    mask = ~np.broadcast_to(forbidden, qdims)
    mask = np.array(mask)
    mask.setflags(write=False)
    return mask


def forbidden_part(op: PaddedOperator, level: HierarchyLevel) -> PaddedOperator:
    """Apply the forbidden-term projector ``Q^(n) = 1 - P^(n)`` of a level.

    At level 1 whether a term is allowed depends only on which factors it
    touches, so ``Q_L`` factorizes over parties.  With ``D_X`` the
    depolarization of factor set ``X`` (trace it out, put back
    ``1_X / d_X``) and ``I_p``, ``O_p`` party p's input and output factors,

        Q_L = prod_p (1 - D_{O_p}(1 - D_{I_p})) - D_{all factors},

    where every factor commutes and a party without outputs contributes
    ``D_{I_p}`` (``D`` of the empty set is the identity).  The party factor
    says "p's output is touched or p's input is not"; the last term removes
    the all-untouched terms, on which every party factor is 1.  The
    output-less parties' ``D_{I_p}`` go first: they shrink ``op``, so the
    identity they imply is never expanded.

    One level up, ``Q^(n) = (1 - Q^(n-1)_1) (x) Q^(n-1)_2`` over the two
    slots.  The output slot goes first, so the factors it depolarizes are
    gone before the input slot's projector copies the operator.

    Every block the projector creates keeps its factors in the order in
    which the projector first depolarizes them (:func:`_storage_order`),
    so the factors it pads while the block is largest are its outermost
    axes.  The result is in that order too; its ``dense`` and ``max_norm``
    do not depend on it.  ``op`` is consumed: the result may share and
    overwrite its storage.

    An ``op`` held by a vector (or by any root vector, see
    :class:`PaddedOperator`) stays held by that root while the blocks would
    exceed 256^2: each such depolarization only drops factors from
    ``kept``.  So on the switch pair the 1024^2 and 512^2 blocks are never
    formed, and the result is a signed sum of padded pieces, in which two
    pieces of one root on the same factors cancel when their signs are
    opposite, assembled one sub-block at a time only when ``max_norm`` or
    ``dense`` reads it.  Every block of a level-1 process is at most 256^2
    and is formed.
    """
    return _forbidden(op.reordered(_storage_order(level)), level, 0)


def _forbidden(
    op: PaddedOperator, level: HierarchyLevel, offset: int
) -> PaddedOperator:
    """:func:`forbidden_part` of the level whose factors start at ``offset``."""
    if level.n > 1:
        h = _forbidden(op, level.slot2, offset + len(level.slot1.dims))
        h.subtract(_forbidden(h.alias(), level.slot1, offset))
        return h
    parties = _shifted_parties(level.layout, offset)
    for ins, outs in parties:
        if not outs:
            op = op.depolarized(ins)
    for ins, outs in parties:
        if ins and outs:
            leak = op.depolarized(outs)
            leak.subtract(leak.depolarized(ins))
            op.subtract(leak)
    op.subtract(op.depolarized(range(offset, offset + level.layout.n_factors)))
    return op


def _shifted_parties(
    layout: SpaceLayout, offset: int
) -> list[tuple[list[int], list[int]]]:
    """Each party's input and output factors, numbered from ``offset``."""
    return [
        ([offset + k for k in p.inputs], [offset + k for k in p.outputs])
        for p in layout.parties
    ]


def _storage_order(level: HierarchyLevel, offset: int = 0) -> tuple[int, ...]:
    """The level's factors in the order :func:`_forbidden` first depolarizes them.

    The output slot comes before the input slot, and within a level-1
    layout the output-less parties' inputs come first, then each other
    party's outputs and inputs, then the factors only the final full
    depolarization reaches.  On the switch pair the blocks start at 1024^2
    once slot 2's output-less party is traced, and the first factors they
    keep, slot 2's ``A_O, A_I, B_O, B_I``, are the ones padded at that size.
    """
    if level.n > 1:
        n1 = len(level.slot1.dims)
        return _storage_order(level.slot2, offset + n1) + _storage_order(
            level.slot1, offset
        )
    parties = _shifted_parties(level.layout, offset)
    order = [f for ins, outs in parties if not outs for f in ins]
    order += [f for ins, outs in parties if ins and outs for f in outs + ins]
    rest = range(offset, offset + level.layout.n_factors)
    return tuple(order + [f for f in rest if f not in order])


def _lowest_eigenvalue(op: PaddedOperator) -> float:
    """Lowest eigenvalue of ``g (x) 1_R``, which is that of ``g``.

    A rank-one ``|v><v|`` held by its vector has 0 (``|v|^2`` on a
    one-dimensional space) without a solve.  A dense ``g`` is solved on its
    live indices ``S``, those whose row or column holds a nonzero entry:
    ``g`` is a permutation of ``g_SS (x)+ 0_Z`` with ``Z`` the rest, so its
    spectrum is that of ``g_SS`` plus ``|Z|`` zeros, and its lowest
    eigenvalue is ``min(lambda_min(g_SS), 0)``.  No threshold enters: an
    index is dropped only when its row and column are exactly zero, which
    also covers every entry of the lower triangle the solver reads.  The
    solver is LAPACK ``eigvalsh`` at every size, so no convergence
    tolerance or start vector enters either.  Pure processes built from
    identity wires keep a few of their indices (16 of 256 for the extended
    switch); when every index is live, ``g`` itself is solved.
    """
    v = op.vector
    if v is not None:
        return float(np.vdot(v, v).real) if v.size == 1 else 0.0
    m = op.matrix()
    nz = m != 0
    live = np.flatnonzero(nz.any(0) | nz.any(1))
    if live.size == m.shape[0]:
        return float(np.linalg.eigvalsh(m)[0])
    if live.size == 0:
        return 0.0
    return min(float(np.linalg.eigvalsh(m[np.ix_(live, live)])[0]), 0.0)


def _slot1_marginal(op: PaddedOperator, n1: int) -> np.ndarray:
    """``Tr_2`` of an operator, dense on its first ``n1`` factors (slot 1)."""
    red = op.depolarized(range(n1, len(op.dims)))
    # depolarizing divides the trace by slot 2's dimension
    g = red.g * math.prod(op.dims[n1:])
    return PaddedOperator(op.dims[:n1], red.kept, g=g).dense()


def _check_side(side: int, block: str) -> None:
    """Refuse a block of side above ``MAX_CJ_DIM``."""
    if side > MAX_CJ_DIM:
        raise ValueError(f"{block} side {side} > MAX_CJ_DIM = {MAX_CJ_DIM}")


def _validity_report(
    terms: Sequence[PaddedOperator], level: HierarchyLevel, tol: float
) -> ValidationReport:
    """The three validity conditions of a sum of Hermitian operators.

    The operator is the sum of ``terms``, each ``g (x) 1_R`` or ``|v><v|``
    (see :class:`PaddedOperator`); a dense operator is a one-term sum.  The
    terms are checked one at a time, so no padding is ever expanded:

    * positivity: ``max(0, -sum_k lambda_min(term_k))``.  Since
      ``lambda_min`` of a sum is at least the sum of the ``lambda_min``, this
      is an upper bound on the most negative eigenvalue of the sum, exact
      for one term and whenever the terms share a lowest eigenvector.  A
      dense term is solved by LAPACK ``eigvalsh`` on its live block, the
      indices whose row or column holds a nonzero entry, with ``min(., 0)``
      for the exactly-zero rest (see :func:`_lowest_eigenvalue`);
    * trace: ``|Tr X - t|`` at level 1 and the max-norm of
      ``Tr_2(X) - (t_2 / t_1) 1`` above, with ``t`` the levels' trace
      constants; traces and marginals add over the terms;
    * subspace: the max-norm of the forbidden part ``Q^(n)(X)``, which is
      linear, so it is summed from the terms' forbidden parts.  A term held
      by a vector leaves its forbidden part as a sum of pieces (see
      :func:`forbidden_part`); the max-norm assembles that sum one
      sub-block at a time, and since the sum is Hermitian only the
      sub-blocks that hold every entry or its conjugate transpose (10 of
      16 on the switch pair).  There the validation stays within 8 MiB
      from a cold workspace (below), where a 1024^2 block alone is 16 MiB.

    Before any term is read, the report is refused if the slot-1 marginal
    (side ``dim H_1``) or the forbidden part would be a block of side above
    ``MAX_CJ_DIM``.  The forbidden part keeps the terms' factors but the
    output-less parties' inputs of the last level-1 slot, traced first.

    The report runs inside the thread's block workspace
    (``operator_core._BlockWorkspace``): every block of at least 2^12
    entries that it forms is a view of a block the workspace holds, handed
    out again once nothing refers to it.  The workspace is per-thread and
    keeps only the last report's blocks, so a repeated validation takes
    them from there instead of growing the heap again (under 10 page
    faults per switch-pair validation, against about 1,570 with fresh
    blocks).

    Each tolerance is ``tol`` scaled by the relevant magnitude (the trace,
    the trace target, the sum of the terms' max-norms, which bounds the
    operator's).  The terms are consumed.
    """
    last, offset = level, 0
    while last.n > 1:
        last, offset = last.slot2, offset + len(last.slot1.dims)
    traced = {f for i, o in _shifted_parties(last.layout, offset) if not o for f in i}
    kept = {f for t in terms for f in t.kept} - traced
    if level.n > 1:
        _check_side(level.slot1.dim, "slot-1 marginal")
    _check_side(math.prod(level.dims[f] for f in kept), "forbidden block")
    with _WORKSPACE.report():
        trace = sum(t.trace() for t in terms)
        pos_resid = max(0.0, -sum(_lowest_eigenvalue(t) for t in terms))
        pos_tol = tol * max(1.0, abs(trace))
        if level.n == 1:
            target = level.trace_constant
            tr_resid = abs(trace - target)
            tr_tol = tol * max(1.0, target)
        else:
            n1 = len(level.slot1.dims)
            ratio = level.slot2.trace_constant / level.slot1.trace_constant
            marg = sum(_slot1_marginal(t, n1) for t in terms)
            tr_resid = max_norm(marg - ratio * np.eye(level.slot1.dim))
            tr_tol = tol * max(1.0, ratio)
        sub_tol = tol * max(1.0, sum(t.max_norm() for t in terms))
        forbidden = forbidden_part(terms[0], level)
        for t in terms[1:]:
            forbidden.add(forbidden_part(t, level))
        sub_resid = forbidden._hermitian_max_norm()
    conds = (
        ConditionReport("positivity", pos_resid, pos_tol, pos_resid <= pos_tol),
        ConditionReport("trace", tr_resid, tr_tol, tr_resid <= tr_tol),
        ConditionReport("subspace", sub_resid, sub_tol, sub_resid <= sub_tol),
    )
    return ValidationReport(conds, all(c.passed for c in conds))


def validate(w: ProcessMatrix, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check positivity, normalization, and allowed-span membership.

    Residuals: most negative eigenvalue (clipped to 0 when positive),
    ``|Tr W - d_out|``, and the max-norm of ``P(W) - W`` (the forbidden part
    ``Q_L(W)``, see :func:`forbidden_part`).  Each tolerance is
    ``tol`` scaled by the relevant magnitude (trace for positivity, ``d_out``
    for the trace condition, the matrix max-norm for the subspace condition).
    A process held by its vector enters as that vector, so its positivity
    residual is exactly 0 by representation, with no eigensolve, and its
    matrix is not built.  A process whose forbidden part would be a block
    of side above ``MAX_CJ_DIM`` is refused (see :func:`_validity_report`).
    """
    return _validity_report([_operator(w)], HierarchyLevel.process(w.layout), tol)


def _operator(w: ProcessMatrix) -> PaddedOperator:
    """``w`` as a :class:`PaddedOperator`, by its vector when it is held by one."""
    if w.vector is not None:
        return PaddedOperator.of_vector(w.vector, w.layout)
    return PaddedOperator.of_matrix(w.matrix, w.layout)


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------


def born_probabilities(
    w: ProcessMatrix,
    instruments: Sequence[Instrument],
    check: bool = True,
) -> np.ndarray:
    """Outcome probability table for one instrument per party.

    The parties are absorbed one at a time, last first, each by one
    contraction of its stacked elements with the operator (``W ->
    Tr_X(C_k W)`` for every element ``k``): the table is the chain of the
    parties' reductions, and no product ``C_i (x) C_j (x) ...`` is formed.
    The first step is :meth:`PaddedOperator.absorbed`, so a process held
    by its vector ``|v>`` is absorbed from the vector and ``|v><v|`` is
    not built.

    Args:
        w: process matrix.
        instruments: one instrument per party; matched to parties by name.
        check: when True, warn (without failing) if ``w`` is not valid.

    Returns:
        Real array with one axis per party, in layout party order; entry
        ``[i, j, ...]`` is ``Tr(W (C_i (x) C_j (x) ...))``.
    """
    layout = w.layout
    by_name = {inst.party: inst for inst in instruments}
    if set(by_name) != {p.name for p in layout.parties}:
        raise ValueError(
            f"instruments for parties {sorted(by_name)} do not match layout "
            f"parties {[p.name for p in layout.parties]}"
        )
    if len(by_name) != len(instruments):
        raise ValueError("duplicate instrument for a party")
    if check and not validate(w).valid:
        warnings.warn("process matrix is not valid; probabilities may be unnormalized")

    ordered = [by_name[p.name] for p in layout.parties]
    for inst, p in zip(ordered, layout.parties):
        dims = _party_dims(layout, p)
        if (inst.d_in, inst.d_out) != dims:
            raise ValueError(
                f"instrument for party {p.name!r} has dims "
                f"({inst.d_in}, {inst.d_out}), layout expects {dims}"
            )
    if not layout.parties:  # no factors either: the table is the number Tr W
        return np.array(w.matrix[0, 0].real)
    (inst, p), *steps = zip(reversed(ordered), reversed(layout.parties))
    x = p.inputs + p.outputs
    left = [f for f in range(layout.n_factors) if f not in x]
    table = _operator(w).absorbed(x, np.array(inst.elements))
    table = table.reshape((-1,) + tuple(layout.dims[f] for f in left) * 2)
    # each step puts its outcome axis first, so last-to-first ends in party order
    for inst, p in steps:
        x = p.inputs + p.outputs
        dims = [layout.dims[f] for f in left]
        table = _absorb(table, dims, [left.index(f) for f in x], np.array(inst.elements))
        left = [f for f in left if f not in x]
    return table.real.copy()


# ---------------------------------------------------------------------------
# CJ helpers
# ---------------------------------------------------------------------------


def _unitary_vector(u: np.ndarray) -> np.ndarray:
    """``(1 (x) U)|1>>``, which in row-major flattening is ``U^T`` read row by row.

    A square matrix is refused unless ``U U^dag = 1`` within DEFAULT_TOL.
    """
    if not max_norm(u @ u.conj().T - np.eye(u.shape[0])) <= DEFAULT_TOL:
        raise ValueError("matrix is not unitary within tolerance")
    return u.T.reshape(-1)


def cj_of_unitary(u: np.ndarray) -> np.ndarray:
    """CJ operator of unitary conjugation, ``(1 (x) U)|1>><<1|(1 (x) U^dag)``.

    That is ``|v><v|`` with ``v = (1 (x) U)|1>>``.  The outer product is
    formed in the input's dtype and then made complex, so a real ``U``
    keeps the signs of its zero products.  A matrix that is not unitary is
    refused.
    """
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be a square matrix, got shape {u.shape}")
    v = _unitary_vector(u)
    return np.outer(v, v.conj()).astype(complex)


# ---------------------------------------------------------------------------
# named processes
# ---------------------------------------------------------------------------


def _check_state(rho: np.ndarray, d: int, what: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"{what} must have shape {(d, d)}, got {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError(f"{what} must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > DEFAULT_TOL:
        raise ValueError(f"{what} must have unit trace")
    if float(np.linalg.eigvalsh(rho)[0]) < -DEFAULT_TOL:
        raise ValueError(f"{what} must be positive semidefinite")
    return rho


def shared_state(rho: np.ndarray, layout: SpaceLayout | None = None) -> ProcessMatrix:
    """Process with a shared input state and discarded outputs.

    ``W = rho (x) 1`` with ``rho`` on all parties' input factors (in layout
    order) and normalized identity-free outputs; valid for any density
    matrix ``rho``.
    """
    if layout is None:
        layout = bipartite_qubit_layout()
    in_facs = [k for p in layout.parties for k in p.inputs]
    d_in = math.prod(layout.dims[k] for k in in_facs)
    rho = _check_state(rho, d_in, "shared state")
    return ProcessMatrix(layout, _padded(rho, in_facs, layout.dims))


def _padded(core: np.ndarray, facs: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """``core`` on the factors ``facs``, the identity on the rest, in factor order."""
    sub = tuple(dims[k] for k in facs)
    return PaddedOperator(dims, facs, g=core.reshape(sub * 2)).dense()


def memory_channel(
    rho: np.ndarray,
    channel_cj: np.ndarray,
    direction: str = "a_to_b",
    layout: SpaceLayout | None = None,
) -> ProcessMatrix:
    """Input state at the first acting party plus a channel to the second.

    ``a_to_b``: state ``rho`` at A's input, channel CJ from A's output to B's
    input.  Valid whenever ``rho`` is a density matrix and the CJ is that of
    a channel (completely positive and trace preserving).
    """
    if layout is None:
        layout = bipartite_qubit_layout()
    if len(layout.parties) != 2:
        raise ValueError("memory_channel needs a two-party layout")
    if direction not in ("a_to_b", "b_to_a"):
        raise ValueError(f"direction must be 'a_to_b' or 'b_to_a', got {direction!r}")
    a, b = layout.parties
    first, second = (a, b) if direction == "a_to_b" else (b, a)
    d_in = math.prod(layout.dims[k] for k in first.inputs)
    rho = _check_state(rho, d_in, "input state")
    cj_facs = list(first.outputs) + list(second.inputs)
    d_cj = math.prod(layout.dims[k] for k in cj_facs)
    cj = np.asarray(channel_cj, dtype=complex)
    if cj.shape != (d_cj, d_cj):
        raise ValueError(f"channel CJ shape {cj.shape}, expected {(d_cj, d_cj)}")
    facs = list(first.inputs) + cj_facs
    return ProcessMatrix(layout, _padded(np.kron(rho, cj), facs, layout.dims))


def w_ocb() -> ProcessMatrix:
    """The two-party process that violates any causal-order decomposition.

    ``W = (1 + (1 (x) z (x) z (x) 1 + z (x) x (x) 1 (x) z) / sqrt(2)) / 4``
    on the bipartite qubit layout: valid, rank 8, and signalling in both
    directions at once (its order flags are "neither").
    """
    layout = bipartite_qubit_layout()
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    one = np.eye(2, dtype=complex)
    m = 0.25 * (
        tensor(one, one, one, one)
        + (tensor(one, sz, sz, one) + tensor(sz, sx, one, sz)) / np.sqrt(2.0)
    )
    return ProcessMatrix(layout, m)


def w_ll() -> ProcessMatrix:
    """Single-party identity wiring from output back to input.

    ``W = |1>><<1|`` on (A_I, A_O): positive with the right trace but not in
    the allowed span, so it is *not* a valid process; it models a causal
    loop and yields zero total probability for the anti-aligned instrument
    of :func:`grandfather_instrument`.
    """
    return ProcessMatrix(single_party_layout(2, 2), cj_of_unitary(np.eye(2)))


def grandfather_instrument() -> Instrument:
    """Measure the input and prepare the opposite bit.

    Elements ``|0><0| (x) |1><1|`` and ``|1><1| (x) |0><0|`` on (A_I, A_O);
    combined with :func:`w_ll` every outcome has probability zero.
    """
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return Instrument("A", (tensor(p0, p1), tensor(p1, p0)), 2, 2)


def _unit_vector(x: np.ndarray, d: int, name: str) -> np.ndarray:
    """``x`` as a complex vector, refused unless it has length ``d`` and norm 1."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    if x.shape != (d,):
        raise ValueError(f"{name} must have length {d}")
    if not abs(np.linalg.norm(x) - 1.0) <= DEFAULT_TOL:
        raise ValueError(f"{name} must be normalized")
    return x


def _target_state(psi: np.ndarray | None, d: int) -> np.ndarray:
    """A switch's initial target state: ``psi`` checked, or |0> when None."""
    return _unit_vector(np.eye(d)[0] if psi is None else psi, d, "psi")


def switch_branch_vectors(psi: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The two wiring branches of the switch as vectors on (A_I, B_I, A_O, B_O, C_T).

    First branch: target enters A, A's output feeds B, B's output feeds the
    final target factor.  Second branch: same with A and B exchanged.
    """
    eye = np.eye(d)
    abc = np.einsum("a,ic,je->aicje", psi, eye, eye)
    bac = np.einsum("b,id,ce->ibcde", psi, eye, eye)
    return abc.reshape(-1), bac.reshape(-1)


def quantum_switch(psi: np.ndarray | None = None, d: int = 2) -> ProcessMatrix:
    """Coherent superposition of the two orders of using A and B.

    The control qubit (factor C_C) is |0> on the A-then-B branch and |1> on
    the B-then-A branch; the final target state lands on factor C_T.  The
    result is a rank-1 valid process with trace ``d_out``, held by its
    amplitude vector.

    Args:
        psi: normalized initial target state (defaults to |0>).
        d: target dimension.
    """
    abc, bac = switch_branch_vectors(_target_state(psi, d), d)
    # control qubit is the last tensor factor
    vec = np.stack([abc, bac], axis=1).reshape(-1) / np.sqrt(2.0)
    return ProcessMatrix.of_vector(switch_layout(d), vec)


def switch_input_channel(
    psi: np.ndarray | None = None,
    control: np.ndarray | None = None,
    d: int = 2,
) -> ProcessMatrix:
    """Causally ordered A-then-B channel process on the switch layout.

    The wiring is the first switch branch (target through A, then B, then
    the read-out), with the control factor prepared in a pure state that
    does nothing yet: conjugating this process by the controlled exchange
    of the A and B slots turns the control into an order control.

    Args:
        psi: normalized initial target state (defaults to |0>).
        control: normalized control-qubit amplitudes (defaults to |+>).
        d: target dimension.
    """
    if control is None:
        control = np.full(2, 1.0 / np.sqrt(2.0))
    control = _unit_vector(control, 2, "control")
    abc, _ = switch_branch_vectors(_target_state(psi, d), d)
    return ProcessMatrix.of_vector(switch_layout(d), np.kron(abc, control))


def extended_branch_vectors(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Switch branches embedded in the four-party layout with D and control set.

    Both vectors live on (A_I, B_I, D_I, A_O, B_O, D_O, C_T, C_C); the first
    carries D_I = D_O = 0 and control 0, the second D_I = 0, D_O = 1 and
    control 1.
    """
    abc, bac = switch_branch_vectors(psi, 2)
    v1 = np.zeros((2,) * 8, dtype=complex)
    v2 = np.zeros((2,) * 8, dtype=complex)
    v1[:, :, 0, :, :, 0, :, 0] = abc.reshape((2,) * 5)
    v2[:, :, 0, :, :, 1, :, 1] = bac.reshape((2,) * 5)
    return v1.reshape(-1), v2.reshape(-1)


def extended_switch(psi: np.ndarray | None = None) -> ProcessMatrix:
    """Four-party process whose D-party instrument steers the causal order.

    ``|W> = |branch_1> + |branch_2>`` (unnormalized sum; the cross terms
    vanish and the trace is the required ``d_out = 8``).  Feeding D's side
    channel a rotation by ``lambda`` reduces this process to a
    ``cos/sin``-weighted superposition of the two switch branches.
    """
    v1, v2 = extended_branch_vectors(_target_state(psi, 2))
    return ProcessMatrix.of_vector(extended_switch_layout(), v1 + v2)


# ---------------------------------------------------------------------------
# causal order
# ---------------------------------------------------------------------------


def causal_order_flags(w: ProcessMatrix) -> CausalOrderFlag:
    """Signalling structure between the first two parties of the layout.

    ``A_to_B`` iff the term support is compatible with the first party
    acting before the second (a comb in that order), ``B_to_A``
    symmetrically, ``no_signalling`` when both hold, ``neither`` otherwise.
    Any further parties must have trivial output and are placed after the
    pair in both tested orders (read-out parties such as the switch
    control).  Intended for valid matrices; the classification is purely
    structural.
    """
    parties = w.layout.parties
    if len(parties) < 2:
        raise ValueError("causal_order_flags needs at least two parties")
    for p in parties[2:]:
        if p.outputs:
            raise ValueError(
                f"party {p.name!r} has outputs; its slot in the order is ambiguous"
            )
    a, b = parties[0].name, parties[1].name
    tail = [p.name for p in parties[2:]]
    a_first = comb_order_satisfied(w, [a, b, *tail])
    b_first = comb_order_satisfied(w, [b, a, *tail])
    if a_first and b_first:
        return CausalOrderFlag.NO_SIGNALLING
    if a_first:
        return CausalOrderFlag.A_TO_B
    if b_first:
        return CausalOrderFlag.B_TO_A
    return CausalOrderFlag.NEITHER


def comb_order_satisfied(w: ProcessMatrix, order: Sequence[str]) -> bool:
    """Whether ``w`` is compatible with a fixed party order.

    For the order ``X_1 <= ... <= X_n`` (earlier parties act first), once
    the later parties ``X_{k+1}, ..., X_n`` are discarded what remains may
    not depend on ``X_k``'s output.  With ``D_S`` the depolarization of
    factor set ``S`` and ``L_k`` the factors of the later parties, this is
    the comb condition ``D_{O_k}(X) = X`` for ``X = D_{L_k}(W)``, checked
    from the last party to the first by partial traces alone.

    The check fails when some ``max_norm(X - D_{O_k}(X))`` exceeds
    ``COMB_TOL * max(1, max_norm(W))``: the tolerance is relative to the
    operator's max-norm.
    """
    layout = w.layout
    names = [p.name for p in layout.parties]
    if sorted(order) != sorted(names):
        raise ValueError(f"order {order!r} must list the parties {names} exactly once")
    x = _operator(w)
    bound = COMB_TOL * max(1.0, x.max_norm())
    for party in reversed([layout.party(name) for name in order]):
        if party.outputs:
            leak = x.alias()
            leak.subtract(x.depolarized(party.outputs))
            if leak.max_norm() > bound:
                return False
        x = x.depolarized(party.inputs + party.outputs)
    return True
