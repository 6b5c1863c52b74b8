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

A :class:`Supermap` holds its CJ as a sum of positive terms, and
validation and application read only the terms: a pure CJ is one vector,
``constant_map`` keeps ``1_in (x) w_tilde / d'`` by its output block, and
``interpolation_map`` keeps both of its terms.  So only a dense CJ handed
in by the caller is ever checked as one matrix.  The reduction supermaps
carry a structured action.  Their CJ ``|1>><<1| (x) C_M^T`` (a wire from
each kept input factor to its output copy, the transposed element on the
party's factors) is placed on those factors by label on request, and refused
above ``MAX_CJ_DIM`` (the 8-factor ones), so they cannot be validated there.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.linalg

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
    _absorb,
    _check_unitary,
    _padded,
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
    """A process-matrix transformation, canonically a CJ operator.

    The CJ is held as a sum of positive terms, each a ``PaddedOperator`` on
    the joint factors (input layout, then output layout): a dense matrix is
    one term, a pure CJ ``|v><v|`` (unitary conjugation) one term held by
    its vector, and ``interpolation_map`` keeps its rank-one identity part
    and its ``1_in (x) g`` constant part as two terms.  A supermap may
    instead carry a structured action and build its CJ only on demand; the
    action gets a process's amplitude vector (a 1-D array) when the process
    is held by one (``ProcessMatrix.vector``), else its matrix.  The
    ``cj`` property sums the terms into a matrix, caches it for later
    ``cj`` reads only, and refuses dimensions beyond ``MAX_CJ_DIM`` with a
    size error.  A dense CJ is refused unless it is Hermitian, at
    construction or when its builder first runs: :func:`apply` reads only
    the Hermitian part of an action.

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
        action: Callable[[np.ndarray], np.ndarray] | None = None,
        cj_builder: Callable[[], np.ndarray] | None = None,
        label: str = "",
    ) -> None:
        d = in_layout.dim * out_layout.dim
        dims = in_layout.dims + out_layout.dims
        terms = None
        if cj is not None:
            cj = np.asarray(cj, dtype=complex)
            if cj.shape != (d, d):
                raise ValueError(f"CJ shape {cj.shape}, expected {(d, d)}")
            _check_hermitian(cj)
            terms = (PaddedOperator.of_matrix(cj, dims),)
        elif cj_vector is not None:
            v = np.asarray(cj_vector, dtype=complex)
            if v.shape != (d,):
                raise ValueError(f"CJ vector length {v.shape}, expected {d}")
            terms = (PaddedOperator.of_vector(v, dims),)
        elif cj_builder is None:
            raise ValueError("supermap needs a CJ operator, vector, or builder")
        self.in_layout = in_layout
        self.out_layout = out_layout
        self.label = label
        self._terms = terms
        self._action = action
        self._cj_builder = cj_builder
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
        s._terms, s._action, s._cj_builder, s._cj = terms, None, None, None
        return s

    @property
    def cj_dim(self) -> int:
        return self.in_layout.dim * self.out_layout.dim

    @property
    def cj(self) -> np.ndarray:
        if self._cj is None:
            d = self._check_cj_size()
            if self._terms is not None:
                self._cj = self._sum_terms()
            else:
                cj = self._cj_builder()
                if cj.shape != (d, d):
                    raise ValueError("CJ builder returned a wrong-shaped operator")
                _check_hermitian(cj)
                self._cj = cj
        return self._cj

    def _sum_terms(self) -> np.ndarray:
        first, *rest = self._terms
        dims = first.dims
        total = PaddedOperator(
            dims, range(len(dims)), g=first.dense().reshape(dims * 2), owned=True
        )
        for t in rest:
            total.add(t)
        return total.matrix()

    def _term_operators(self) -> list[PaddedOperator]:
        """The CJ's terms, as aliases the caller may consume."""
        if self._terms is None:
            dims = self.in_layout.dims + self.out_layout.dims
            self._terms = (PaddedOperator.of_matrix(self.cj, dims),)
        return [t.alias() for t in self._terms]

    def _check_cj_size(self) -> int:
        d = self.cj_dim
        if d > MAX_CJ_DIM:
            raise ValueError(
                f"CJ operator would be {d} x {d}; this supermap is applied "
                "through its structured action and its CJ is not materialized"
            )
        return d

    def __repr__(self) -> str:
        tag = self.label or "supermap"
        return (
            f"Supermap({tag}: dim {self.in_layout.dim} -> {self.out_layout.dim})"
        )


def _check_hermitian(cj: np.ndarray) -> None:
    if not is_hermitian(cj):
        raise ValueError("supermap CJ is not Hermitian")


def validate_supermap(s: Supermap, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the three supermap validity conditions on the CJ operator.

    Report conditions: ``positivity`` (most negative eigenvalue),
    ``trace`` (max-norm of ``Tr_out_side(C) - (d_out'/d_in') 1``), and
    ``subspace`` (max-norm of ``(P_in (x) Q_out)(C)``, the part that
    projecting the input side only keeps and projecting both sides drops).
    This is :func:`validate_order_n` at the level pairing the two layouts.

    The CJ's terms are checked one at a time and never summed into one
    matrix; a supermap known only by its CJ builder is one dense term, and
    every dense CJ was checked Hermitian where it entered.  A rank-one term
    is positive by representation, and any other term's lowest eigenvalue
    is that of its stored block, solved on the block's live indices (those
    whose row or column holds a nonzero entry; the others only add zeros to
    the spectrum, see ``process_space._lowest_eigenvalue``).  So for a pure
    supermap or ``constant_map`` (one term) and for ``interpolation_map``
    (see :class:`Supermap` for the interlacing argument) the positivity
    residual is exact; for other sums it is an upper bound.  Trace, marginal
    and forbidden part are linear and are summed from the terms.  The
    ``MAX_CJ_DIM`` size limit still applies.
    """
    s._check_cj_size()
    level = HierarchyLevel.pair(
        HierarchyLevel.process(s.in_layout), HierarchyLevel.process(s.out_layout)
    )
    return _validity_report(s._term_operators(), level, tol)


def _term_action(t: PaddedOperator, w: np.ndarray, n_in: int) -> np.ndarray:
    """``Tr_in(T (W^T (x) 1_out))`` for one CJ term ``T``."""
    d1 = w.shape[0]
    if t.vector is not None:
        v2 = t.vector.reshape(d1, -1)
        return v2.T @ w @ v2.conj()
    if all(f >= n_in for f in t.kept):
        # T = 1_in (x) G, so the action is Tr(W) G
        out_kept = [f - n_in for f in t.kept]
        return np.trace(w) * PaddedOperator(t.dims[n_in:], out_kept, g=t.g).dense()
    full = t.matrix() if len(t.kept) == len(t.dims) else t.dense()
    d2 = full.shape[0] // d1
    return np.einsum("abcd,ac->bd", full.reshape(d1, d2, d1, d2), w)


def apply(s: Supermap, w: ProcessMatrix) -> ProcessMatrix:
    """Act with a supermap on a process matrix.

    The input layout must match the supermap's; the result lives on the
    output layout.  A structured action (reductions) is used when available,
    on the process's vector when it is held by one; otherwise each CJ term
    acts on the process matrix on its own: a rank-one ``|v>><<v|`` term as
    ``V^T W V^*``, a term ``1_in (x) g`` as ``Tr(W) g``, and any other
    term by the dense contraction.
    """
    if w.layout != s.in_layout:
        raise ValueError("process layout does not match the supermap input layout")
    if s._action is not None:
        out = s._action(w.matrix if w.vector is None else w.vector)
    else:
        first, *rest = (
            _term_action(t, w.matrix, s.in_layout.n_factors)
            for t in s._term_operators()
        )
        out = sum(rest, first)
    out = (out + out.conj().T) / 2
    return ProcessMatrix(s.out_layout, out)


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


def _reduced_layout(layout: SpaceLayout, party_name: str) -> tuple[SpaceLayout, list[int]]:
    p = layout.party(party_name)
    removed = sorted(set(p.inputs) | set(p.outputs))
    keep = [k for k in range(layout.n_factors) if k not in removed]
    factors = [
        (layout.factors[k].label, layout.factors[k].dim) for k in keep
    ]
    parties = []
    for q in layout.parties:
        if q.name == party_name:
            continue
        parties.append(
            (
                q.name,
                [layout.factors[k].label for k in q.inputs],
                [layout.factors[k].label for k in q.outputs],
            )
        )
    return SpaceLayout.build(factors, parties), keep


def instrument_reduction(
    layout: SpaceLayout, party: str, element_cj: np.ndarray
) -> Supermap:
    """Absorb one party's instrument element into the process.

    The element's CJ ``C_M`` lives on the party's input factors followed by
    its output factors; the reduced process on the remaining factors is

        W' = Tr_X(C_M_embedded W)

    with ``C_M`` embedded on the party's factors and identity elsewhere.
    The reduced layout deletes the party's factors, preserving the order of
    the rest.  The supermap applies through this formula directly, as one
    contraction of ``C_M`` with the party's row and column axes of ``W``
    (``process_space._absorb``): the embedded ``C_M`` is never formed and
    ``W`` is not reordered first.  A pure process held by its vector
    ``|w>`` is contracted as that vector: with ``M`` the vector as a (kept
    factors, party factors) matrix, ``W' = M C_M^T M^dag``, and the
    process's matrix is not built.  ``C_M`` must be Hermitian, since
    :func:`apply` keeps only the Hermitian part of an action.

    Its CJ, built only for small layouts, is ``|1>><<1| (x) C_M^T``: the
    unnormalized ``|1>>`` wires each kept input factor to its copy in the
    reduced layout, and ``C_M^T`` closes the loop on the party's factors.
    The product is placed on those factors by label, with no superoperator
    matrix and no permutation.

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
    p = layout.party(party)
    x_facs = list(p.inputs) + list(p.outputs)
    if not x_facs:
        raise ValueError(f"party {party!r} has no factors to reduce over")
    reduced, keep = _reduced_layout(layout, party)
    d_x = math.prod(layout.dims[k] for k in x_facs)
    element_cj = np.asarray(element_cj, dtype=complex)
    if element_cj.shape != (d_x, d_x):
        raise ValueError(f"element CJ shape {element_cj.shape}, expected {(d_x, d_x)}")
    if not is_hermitian(element_cj):
        raise ValueError("element CJ must be Hermitian")
    d_rest = reduced.dim

    def action(w: np.ndarray) -> np.ndarray:
        if w.ndim == 1:
            # W = |w><w|: with M the vector as a (kept factors, party
            # factors) matrix, Tr_X(C_M W) = M C_M^T M^dag
            m = w.reshape(layout.dims).transpose(keep + x_facs).reshape(d_rest, d_x)
            return m @ element_cj.T @ m.conj().T
        # one contraction of C_M with the party's row and column axes of W,
        # which leaves the kept factors in layout order
        t = w.reshape(layout.dims * 2)
        return _absorb(t, layout.dims, x_facs, element_cj[None]).reshape(d_rest, d_rest)

    def build_cj() -> np.ndarray:
        wire = np.eye(d_rest).reshape(-1)
        core = np.kron(np.outer(wire, wire), element_cj.T)
        dims = layout.dims + reduced.dims
        outs = list(range(layout.n_factors, len(dims)))
        return _padded(core, keep + outs + x_facs, dims)

    return Supermap(
        layout,
        reduced,
        action=action,
        cj_builder=build_cj,
        label=f"reduction({party})",
    )


# ---------------------------------------------------------------------------
# switch-specific unitaries
# ---------------------------------------------------------------------------


def _swap(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def c_swap_unitary(d: int = 2) -> np.ndarray:
    """Controlled exchange of the A and B slots on the switch layout.

    Identity when the control factor is |0>, the simultaneous SWAP of
    (A_I, B_I) and (A_O, B_O) when it is |1>.
    """
    s2 = np.kron(_swap(d), _swap(d))
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    return tensor(np.eye(d**4), np.eye(d), p0) + tensor(s2, np.eye(d), p1)


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
    s2 = np.kron(_swap(d), _swap(d))
    p1 = np.diag([0.0, 1.0])
    return tensor(s2 - np.eye(d**4), np.eye(d), p1)


def v_lambda_unitary(lam: float, d: int = 2) -> np.ndarray:
    """``exp(-i lam H)``: identity at 0, the controlled-SWAP at pi/2."""
    return scipy.linalg.expm(-1j * lam * v_lambda_hamiltonian(d))


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


def validate_order_n(
    x: np.ndarray, level: HierarchyLevel, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Positivity, trace rescaling, and ``P^(n)`` invariance at any level.

    For ``n = 1`` this is process validation; for ``n = 2`` on a pair of
    process layouts it coincides with :func:`validate_supermap` on the CJ.
    """
    x = np.asarray(x, dtype=complex)
    op = PaddedOperator.of_matrix(x, level.dims)  # checks the shape
    if not is_hermitian(x):
        raise ValueError("operator must be Hermitian")
    return _validity_report([op], level, tol)
