"""Transformations of process matrices and the order hierarchy above them.

A supermap sends process matrices on one layout to process matrices on
another.  Its canonical representation is a CJ operator ``C`` on
``H_in (x) H_out``; the action is

    A(W) = Tr_in(C (W^T (x) 1_out)).

``A`` maps every valid process to a valid process whenever

    (a) ``C >= 0``,
    (b) ``Tr_out_side(C) = (d_out'/d_in') 1_in`` with ``d'`` the output-space
        dimensions of the two layouts,
    (c) ``(P_in (x) 1)(C) = (P_in (x) P_out)(C)``,

where ``P`` projects onto a layout's allowed-term span: condition (c) says
no allowed input term may feed a forbidden output term.  The conditions are
sufficient, not necessary: they constrain ``C`` on all of ``L(H_in)``, but a
map only ever sees valid inputs, so a CJ representative that treats the
forbidden directions differently (see ``instrument_reduction``) can act
correctly while failing (b).  Given (a) and (b), condition (c) is exactly
the requirement that no valid input is mapped off the allowed span.  Iterating the same
three-condition template yields projectors ``P^(n)`` for maps of maps: at
every level ``P^(n) = 1 (x) 1 - P^(n-1) (x) 1 + P^(n-1) (x) P^(n-1)``, which
stays diagonal in the product-term basis and hence idempotent.

The hierarchy levels, the one forbidden-part projector and the one validity
core live in :mod:`pmx.process_space`: one level up the forbidden-term
projector is ``Q^(n) = (1 - Q^(n-1)_1) (x) Q^(n-1)_2``, and condition (c)
reads ``(1 - Q_in) (x) Q_out (C) = 0``.  :func:`validate_supermap` and
:func:`validate_order_n` check their input and hand the CJ to that core.  A
depolarization reads and writes only diagonal entries, an output-less party
shrinks the operator instead of padding it with an identity, and a pure CJ
``|v><v|`` enters through ``Tr_X |v><v| = V V^dag``, so the rank-one CJ is
never formed.

A :class:`Supermap` holds its CJ one way, as a sum of positive terms, and
validation reads only the terms: a pure CJ is one vector,
``constant_map`` keeps ``1_in (x) w_tilde / d'`` by its output block,
``interpolation_map`` keeps both of its terms, and a reduction keeps
``|1>><<1| (x) C_M^T`` (a wire from each kept input factor to its output
copy, the transposed element on the party's factors) as one exact term on
those factors, formed on first read.  So only a dense CJ handed in by the
caller is ever checked as one matrix.  :func:`apply` acts term by term,
each term through the one link product ``PaddedOperator.absorbed``, except
that a reduction absorbs its element into the process directly.
A CJ above ``MAX_CJ_DIM`` (the 8-factor reductions) is refused before its
terms are read, so those supermaps apply but cannot be validated.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .operator_core import (
    DEFAULT_TOL,
    PaddedOperator,
    SpaceLayout,
    is_hermitian,
    tensor,
)
from .process_space import (
    HierarchyLevel,
    ProcessMatrix,
    ValidationReport,
    _check_unitary,
    _operator,
    _validity_report,
    forbidden_part,
    switch_layout,
)

MAX_CJ_DIM = 4096

__all__ = [
    "Supermap",
    "HierarchyLevel",
    "validate_supermap",
    "apply",
    "constant_map",
    "interpolation_map",
    "unitary_supermap",
    "instrument_reduction",
    "c_swap_unitary",
    "c_swap_v",
    "v_lambda_hamiltonian",
    "v_lambda_unitary",
    "v_lambda",
    "hierarchy_projector",
    "validate_order_n",
]


class Supermap:
    """A process-matrix transformation, held by its CJ operator.

    The CJ is held one way, as a sum of positive terms, each a
    ``PaddedOperator`` on the joint factors (input layout, then output
    layout): a dense ``cj`` is one term, a pure CJ ``|v><v|`` given as
    ``cj_vector`` (unitary conjugation) one term held by its vector, and
    ``interpolation_map`` keeps its rank-one identity part and its
    ``1_in (x) g`` constant part as two terms.  A dense CJ is refused
    unless it is Hermitian: :func:`apply` keeps only the Hermitian part of
    an action.  The ``cj`` property sums the terms into a matrix, caches it
    for later ``cj`` reads only, and refuses dimensions beyond
    ``MAX_CJ_DIM`` with a size error.  Only :func:`instrument_reduction`
    acts other than term by term.

    :func:`validate_supermap` checks the terms one at a time.  Its
    positivity residual ``-sum_k lambda_min(term_k)`` (see
    ``process_space._validity_report``) is exact for a one-term CJ.  For the
    interpolation map ``a|1>><<1| + 1_in (x) g`` it is exact as well: with
    ``d_in >= 2`` the lowest eigenvalue of ``1_in (x) g`` has multiplicity at
    least ``d_in``, and a positive rank-one term lifts at most one of those
    eigenvalues (interlacing); with ``d_in = 1`` both terms are scalars.
    For any other sum it is an upper bound, so a passed check stays sound.
    """

    def __init__(
        self,
        in_layout: SpaceLayout,
        out_layout: SpaceLayout,
        *,
        cj: np.ndarray | None = None,
        cj_vector: np.ndarray | None = None,
        label: str = "",
    ) -> None:
        d = in_layout.dim * out_layout.dim
        dims = in_layout.dims + out_layout.dims
        if cj is not None:
            cj = np.asarray(cj, dtype=complex)
            if cj.shape != (d, d):
                raise ValueError(f"CJ shape {cj.shape}, expected {(d, d)}")
            if not is_hermitian(cj):
                raise ValueError("supermap CJ is not Hermitian")
            terms = (PaddedOperator.of_matrix(cj, dims),)
        elif cj_vector is not None:
            v = np.asarray(cj_vector, dtype=complex)
            if v.shape != (d,):
                raise ValueError(f"CJ vector length {v.shape}, expected {d}")
            terms = (PaddedOperator.of_vector(v, dims),)
        else:
            raise ValueError("supermap needs a CJ operator or vector")
        self.in_layout = in_layout
        self.out_layout = out_layout
        self.label = label
        self._terms = terms
        self._cj = cj

    @classmethod
    def _of_terms(
        cls,
        in_layout: SpaceLayout,
        out_layout: SpaceLayout,
        terms: tuple[PaddedOperator, ...],
        label: str,
    ) -> "Supermap":
        """A supermap whose CJ is the sum of the positive ``terms``."""
        s = cls.__new__(cls)
        s.in_layout, s.out_layout, s.label = in_layout, out_layout, label
        s._terms, s._cj = terms, None
        return s

    @property
    def cj_dim(self) -> int:
        return self.in_layout.dim * self.out_layout.dim

    @property
    def cj(self) -> np.ndarray:
        if self._cj is None:
            self._check_cj_size()
            first, *rest = self._terms
            dims = first.dims
            total = PaddedOperator(
                dims, range(len(dims)), g=first.dense().reshape(dims * 2), owned=True
            )
            for t in rest:
                total.add(t)
            self._cj = total.matrix()
        return self._cj

    def _check_cj_size(self) -> None:
        d = self.cj_dim
        if d > MAX_CJ_DIM:
            raise ValueError(
                f"CJ operator would be {d} x {d}, above MAX_CJ_DIM = "
                f"{MAX_CJ_DIM}; it is not materialized"
            )

    def _act(self, w: ProcessMatrix) -> np.ndarray:
        """``Tr_in(C (W^T (x) 1_out))``, summed over the CJ's terms."""
        n_in = self.in_layout.n_factors
        first, *rest = (_term_action(t, w.matrix, n_in) for t in self._terms)
        return sum(rest, first)

    def __repr__(self) -> str:
        tag = self.label or "supermap"
        return (
            f"Supermap({tag}: dim {self.in_layout.dim} -> {self.out_layout.dim})"
        )


def validate_supermap(s: Supermap) -> ValidationReport:
    """Check the three supermap validity conditions on the CJ operator.

    Report conditions: ``positivity`` (most negative eigenvalue),
    ``trace`` (max-norm of ``Tr_out_side(C) - (d_out'/d_in') 1``), and
    ``subspace`` (max-norm of ``(P_in (x) Q_out)(C)``, the part that
    projecting the input side only keeps and projecting both sides drops).
    This is :func:`validate_order_n` at the level pairing the two layouts,
    with tolerance ``DEFAULT_TOL``.

    The CJ's terms are checked one at a time and never summed into one
    matrix; every dense CJ was checked Hermitian where it entered.  A
    rank-one term is positive by representation, and any other term's
    lowest eigenvalue is that of its stored block, solved on the block's
    live indices (see ``process_space._lowest_eigenvalue``).  So for one
    term (a pure supermap, ``constant_map``, a reduction) and for
    ``interpolation_map`` (see :class:`Supermap`) the positivity residual
    is exact; for other sums it is an upper bound.  Trace, marginal and
    forbidden part are linear and are summed from the terms.  The
    ``MAX_CJ_DIM`` size limit is checked before any term is read.
    """
    s._check_cj_size()
    level = HierarchyLevel.pair(
        HierarchyLevel.process(s.in_layout), HierarchyLevel.process(s.out_layout)
    )
    return _validity_report([t.alias() for t in s._terms], level, DEFAULT_TOL)


def _term_action(t: PaddedOperator, w: np.ndarray, n_in: int) -> np.ndarray:
    """``Tr_in(T (W^T (x) 1_out))`` for one CJ term ``T``: the link product."""
    if all(f >= n_in for f in t.kept):
        # T = 1_in (x) G, so the action is Tr(W) G
        out_kept = [f - n_in for f in t.kept]
        return np.trace(w) * PaddedOperator(t.dims[n_in:], out_kept, g=t.g).dense()
    return t.absorbed(range(n_in), w.T[None])[0]


def apply(s: Supermap, w: ProcessMatrix) -> ProcessMatrix:
    """Act with a supermap on a process matrix.

    The input layout must match the supermap's; the result lives on the
    output layout.  Each CJ term acts on the process matrix on its own: a
    term ``1_in (x) g`` as ``Tr(W) g``, any other term ``T`` as the link
    product ``Tr_in(T (W^T (x) 1))`` by ``PaddedOperator.absorbed``, which
    takes a rank-one term as ``V^T W V^*``; a reduction absorbs its element
    into the process or its vector instead.  The result is the action's
    Hermitian part, held with no second check; one with a nan or infinite
    entry is refused, and numpy's overflow warnings on the way are
    silenced so that refusal is the one signal.
    """
    if w.layout != s.in_layout:
        raise ValueError("process layout does not match the supermap input layout")
    with np.errstate(over="ignore", invalid="ignore"):
        return ProcessMatrix._hermitian_part(s.out_layout, s._act(w))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _constant_term(
    w_tilde: ProcessMatrix, in_layout: SpaceLayout, weight: float
) -> PaddedOperator:
    """``weight * 1_in (x) w_tilde / d_in'``, stored by its output block."""
    n_in = in_layout.n_factors
    out_dims = w_tilde.layout.dims
    g = (weight / in_layout.d_out) * w_tilde.matrix
    return PaddedOperator(
        in_layout.dims + out_dims,
        range(n_in, n_in + len(out_dims)),
        g=g.reshape(out_dims * 2),
    )


def constant_map(w_tilde: ProcessMatrix, in_layout: SpaceLayout) -> Supermap:
    """Supermap sending every process on ``in_layout`` to ``w_tilde``.

    ``C = 1_in (x) w_tilde / d_in'``; valid exactly when ``w_tilde`` is a
    valid process.  The CJ is held by ``w_tilde / d_in'`` alone.
    """
    term = _constant_term(w_tilde, in_layout, 1.0)
    return Supermap._of_terms(in_layout, w_tilde.layout, (term,), "constant")


def interpolation_map(w_tilde: ProcessMatrix, p: float) -> Supermap:
    """Mix the identity supermap with the constant map onto ``w_tilde``.

    ``C = (1 - p)|1>><<1| + p (1 (x) w_tilde / d')`` on a shared layout;
    at ``p = 0`` this is the identity transformation, at ``p = 1`` the
    constant one.  The CJ is held as those two terms, the first by the
    vector ``sqrt(1 - p)|1>>``; a term of weight 0 is left out.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    layout = w_tilde.layout
    terms = []
    if p < 1.0:
        identity = math.sqrt(1.0 - p) * np.eye(layout.dim).reshape(-1)
        terms.append(PaddedOperator.of_vector(identity, layout.dims * 2))
    if p > 0.0:
        terms.append(_constant_term(w_tilde, layout, p))
    return Supermap._of_terms(layout, layout, tuple(terms), f"interpolation(p={p})")


def unitary_supermap(u: np.ndarray, layout: SpaceLayout, label: str = "") -> Supermap:
    """Conjugation supermap ``W -> U W U^dag`` with a rank-one CJ.

    ``C = (1 (x) U)|1>><<1|(1 (x) U^dag)``, the ``cj_of_unitary`` of ``U``
    held by its vector; whether the result is a valid supermap depends on
    whether ``U`` preserves the allowed span (see :func:`validate_supermap`).
    """
    u = np.asarray(u, dtype=complex)
    d = layout.dim
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape}, expected {(d, d)}")
    _check_unitary(u)
    vec = u.T.reshape(-1)  # (1 (x) U)|1>> in row-major flattening
    return Supermap(
        layout, layout, cj_vector=vec, label=label or "unitary conjugation"
    )


def _reduced_layout(layout: SpaceLayout, party_name: str) -> SpaceLayout:
    """``layout`` without the party and its factors, the rest in order."""
    p = layout.party(party_name)
    gone = set(p.inputs) | set(p.outputs)
    label = [f.label for f in layout.factors]
    factors = [(f.label, f.dim) for k, f in enumerate(layout.factors) if k not in gone]
    parties = [
        (q.name, [label[k] for k in q.inputs], [label[k] for k in q.outputs])
        for q in layout.parties
        if q.name != party_name
    ]
    return SpaceLayout.build(factors, parties)


def instrument_reduction(
    layout: SpaceLayout, party: str, element_cj: np.ndarray
) -> Supermap:
    """Absorb one party's instrument element into the process.

    The element's CJ ``C_M`` lives on the party's input factors followed by
    its output factors; the reduced process on the remaining factors is

        W' = Tr_X(C_M_embedded W)

    with ``C_M`` embedded on the party's factors and identity elsewhere.
    The reduced layout deletes the party's factors, preserving the order of
    the rest.  The supermap applies through this formula directly, as
    ``PaddedOperator.absorbed`` of the process, the contraction
    ``born_probabilities`` shares: the embedded ``C_M`` is never formed,
    ``W`` is not reordered first, and a pure process held by its vector
    ``|w>`` gives ``W' = M C_M^T M^dag`` with ``M`` the vector as a (kept
    factors, party factors) matrix, so its matrix is not built.  ``C_M``
    must be Hermitian, since :func:`apply` keeps only the Hermitian part of
    an action.

    Its CJ is one exact term, ``|1>><<1| (x) C_M^T``: the unnormalized
    ``|1>>`` wires each kept input factor to its copy in the reduced layout,
    and ``C_M^T`` closes the loop on the party's factors.  The term is held
    on those factors by label, with no superoperator matrix and no
    permutation, and is formed when it is first read (``cj`` and
    :func:`validate_supermap`, which refuse it above ``MAX_CJ_DIM`` before
    reading it, so the 16,384^2 term of the extended switch is never made).

    On the CJ representative: the formula above fixes the supermap only on
    the span of valid processes.  This natural wiring CJ is positive
    semidefinite, satisfies the order-structure condition exactly, and
    rescales the trace of every operator in the valid span; but for a
    trace-preserving ``C_M`` other
    than the completely depolarizing one, *no* representative of this
    action also satisfies the operator equation ``Tr_2(C) = (d'_2/d'_1) 1``
    on the full space (the equivalence-class freedom sits in the forbidden
    rows, whose trace column the equation pins, and the resulting affine
    set provably misses the positive cone).  ``validate_supermap``
    therefore reports the trace condition as failed for such reductions
    even though every valid process is mapped to a valid process.
    """
    return _Reduction(layout, party, np.asarray(element_cj, dtype=complex))


class _Reduction(Supermap):
    """A supermap that absorbs one party's element; see :func:`instrument_reduction`."""

    def __init__(self, layout: SpaceLayout, party: str, element_cj: np.ndarray) -> None:
        p = layout.party(party)
        self._x_facs = list(p.inputs) + list(p.outputs)
        if not self._x_facs:
            raise ValueError(f"party {party!r} has no factors to reduce over")
        d = math.prod(layout.dims[k] for k in self._x_facs)
        if element_cj.shape != (d, d):
            raise ValueError(f"element CJ shape {element_cj.shape}, expected {(d, d)}")
        if not is_hermitian(element_cj):
            raise ValueError("element CJ must be Hermitian")
        self.in_layout, self.out_layout = layout, _reduced_layout(layout, party)
        self.label, self._cj, self._element = f"reduction({party})", None, element_cj

    @functools.cached_property
    def _terms(self) -> tuple[PaddedOperator, ...]:
        """``|1>><<1| (x) C_M^T``, held on the kept, output and party factors."""
        n = self.in_layout.n_factors
        dims = self.in_layout.dims + self.out_layout.dims
        keep = [k for k in range(n) if k not in self._x_facs]
        facs = keep + list(range(n, len(dims))) + self._x_facs
        wire = np.eye(self.out_layout.dim).reshape(-1)
        g = np.kron(np.outer(wire, wire), self._element.T)
        g = g.reshape(tuple(dims[k] for k in facs) * 2)
        return (PaddedOperator(dims, facs, g=g),)

    def _act(self, w: ProcessMatrix) -> np.ndarray:
        return _operator(w).absorbed(self._x_facs, self._element[None])[0]


# ---------------------------------------------------------------------------
# switch-specific unitaries
# ---------------------------------------------------------------------------


def _pair_swap(d: int) -> np.ndarray:
    """The SWAP of (A_I, B_I) times the SWAP of (A_O, B_O), on those factors."""
    s = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return np.kron(s, s)


def c_swap_unitary(d: int = 2) -> np.ndarray:
    """Controlled exchange of the A and B slots on the switch layout.

    Identity when the control factor is |0>, the simultaneous SWAP of
    (A_I, B_I) and (A_O, B_O) when it is |1>.
    """
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return tensor(np.eye(d**4), np.eye(d), p0) + tensor(_pair_swap(d), np.eye(d), p1)


def c_swap_v(d: int = 2) -> Supermap:
    """Conjugation by the controlled-SWAP, as a supermap on the switch layout.

    Reversible (the unitary squares to the identity) and maps the one-way
    channel carrying a |+> control to the switch process exactly.  It does
    not, however, satisfy the order-structure condition on the full valid
    span: a process may correlate a party's output with the control factor
    that party C reads (for instance ``x^{B_O} (x) z^{C_C}``, an allowed
    term), and conditioning the swap on that same control collapses the
    correlation onto a bare output term, which is forbidden.  Concretely
    ``V (x_BO z_CC) V = x_BO (x) P0 - x_AO (x) P1``, whose control-trivial
    half is outside the allowed span, so ``validate_supermap`` reports an
    order-structure residual of 1/8.
    """
    return unitary_supermap(c_swap_unitary(d), switch_layout(d), label="c_swap")


def v_lambda_hamiltonian(d: int = 2) -> np.ndarray:
    """Generator of the interpolating family: ``(SWAP_pair - 1) (x) |1><1|``."""
    return tensor(_pair_swap(d) - np.eye(d**4), np.eye(d), np.diag([0.0, 1.0]))


def v_lambda_unitary(lam: float, d: int = 2) -> np.ndarray:
    """``exp(-i lam H)``: identity at 0, the controlled-SWAP at pi/2.

    The pair SWAP squares to 1, so ``H^2 = -2H`` and, in closed form,
    ``exp(-i lam H) = 1 - (e^{2 i lam} - 1) H / 2``.
    """
    h = v_lambda_hamiltonian(d)
    return np.eye(len(h)) - (np.expm1(2j * lam) / 2) * h


def v_lambda(lam: float, d: int = 2) -> Supermap:
    """Conjugation by ``exp(-i lam H)`` on the switch layout.

    The resulting supermap passes ``validate_supermap`` exactly at integer
    multiples of pi, where the unitary reduces to the identity (H has
    eigenvalues 0 and -2).  Everywhere else, including the controlled-SWAP
    point pi/2, conjugation leaks allowed terms into forbidden ones and
    fails the order-structure condition; see ``c_swap_v`` for the explicit
    leaking term.
    """
    return unitary_supermap(
        v_lambda_unitary(lam, d), switch_layout(d), label=f"v_lambda({lam})"
    )


# ---------------------------------------------------------------------------
# the order hierarchy
# ---------------------------------------------------------------------------


def hierarchy_projector(level: HierarchyLevel) -> Callable[[np.ndarray], np.ndarray]:
    """The projector ``P^(n)`` as a function on operators.

    Computed as ``M - Q^(n)(M)`` by depolarization (see
    :func:`pmx.process_space.forbidden_part`); over product terms it keeps
    a coefficient unless the input-side pattern is kept by the level below
    while the output-side one is not, and it is idempotent at every level.
    """
    dims = level.dims

    def project(m: np.ndarray) -> np.ndarray:
        return m - forbidden_part(PaddedOperator.of_matrix(m, dims), level).dense()

    return project


def validate_order_n(x: np.ndarray, level: HierarchyLevel) -> ValidationReport:
    """Positivity, trace rescaling, and ``P^(n)`` invariance at any level.

    For ``n = 1`` this is process validation; for ``n = 2`` on a pair of
    process layouts it coincides with :func:`validate_supermap` on the CJ.
    The tolerance is ``DEFAULT_TOL``.
    """
    x = np.asarray(x, dtype=complex)
    op = PaddedOperator.of_matrix(x, level.dims)  # checks the shape
    if not is_hermitian(x):
        raise ValueError("operator must be Hermitian")
    return _validity_report([op], level, DEFAULT_TOL)
