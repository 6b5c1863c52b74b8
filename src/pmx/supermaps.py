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

Every check computes the forbidden part ``Q = 1 - P`` in closed form, by
partial traces rather than a basis transform.  With ``D_X`` the
depolarization of factor set ``X`` (trace it out, put back ``1_X / d_X``)
and ``I_p``, ``O_p`` party p's input and output factors, a layout's
forbidden-term projector is

    Q_L = prod_{p: O_p nonempty} (1 - D_{O_p}(1 - D_{I_p}))
          * prod_{p: O_p empty} D_{I_p}  -  D_{all factors},

all factors commuting (``pmx.process_space.forbidden_part``), and one level
up ``Q^(n) = (1 - Q^(n-1)_1) (x) Q^(n-1)_2``; condition (c) is
``(1 - Q_in) (x) Q_out (C) = 0``.  A depolarization reads and writes only
diagonal entries, an output-less party shrinks the operator instead of
padding it with an identity, and a pure CJ ``|v><v|`` enters through
``Tr_X |v><v| = V V^dag``, so the rank-one CJ is never formed.  The
coefficient-tensor masks (``allowed_mask``, ``hierarchy_mask``) remain the
term-level definition that the closed form reproduces.

Large CJ operators (the 8-factor reduction supermaps) are never
materialized; such supermaps carry a structured action instead and raise a
size error if their CJ is requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .operator_core import (
    DEFAULT_TOL,
    PaddedOperator,
    SpaceLayout,
    is_hermitian,
    max_norm,
    partial_trace,
    permute_factors,
    tensor,
)
from .process_space import (
    ConditionReport,
    ProcessMatrix,
    ValidationReport,
    allowed_mask,
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
    "hierarchy_mask",
    "validate_order_n",
]


class Supermap:
    """A process-matrix transformation, canonically a CJ operator.

    The CJ may be stored dense, as a pure vector (rank one, the case for
    unitary conjugation), or left implicit behind a structured action.  The
    ``cj`` property materializes on demand and refuses dimensions beyond
    ``MAX_CJ_DIM`` with a size error.
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
        if cj is None and cj_vector is None and cj_builder is None:
            raise ValueError("supermap needs a CJ operator, vector, or builder")
        self.in_layout = in_layout
        self.out_layout = out_layout
        self.label = label
        self._cj = None if cj is None else np.asarray(cj, dtype=complex)
        self._cj_vector = (
            None if cj_vector is None else np.asarray(cj_vector, dtype=complex)
        )
        self._action = action
        self._cj_builder = cj_builder
        d = in_layout.dim * out_layout.dim
        if self._cj is not None and self._cj.shape != (d, d):
            raise ValueError(f"CJ shape {self._cj.shape}, expected {(d, d)}")
        if self._cj_vector is not None and self._cj_vector.shape != (d,):
            raise ValueError(f"CJ vector length {self._cj_vector.shape}, expected {d}")

    @property
    def cj_dim(self) -> int:
        return self.in_layout.dim * self.out_layout.dim

    @property
    def is_pure(self) -> bool:
        return self._cj_vector is not None and self._cj is None

    @property
    def cj(self) -> np.ndarray:
        if self._cj is None:
            d = self._check_cj_size()
            if self._cj_vector is not None:
                self._cj = np.outer(self._cj_vector, self._cj_vector.conj())
            else:
                self._cj = self._cj_builder()
                if self._cj.shape != (d, d):
                    raise ValueError("CJ builder returned a wrong-shaped operator")
        return self._cj

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


def _lowest_eigenvalue(m: np.ndarray) -> float:
    if m.shape[0] <= 1024:
        return float(np.linalg.eigvalsh(m)[0])
    try:
        w = scipy.sparse.linalg.eigsh(
            m, k=1, which="SA", tol=1e-10, maxiter=10_000, return_eigenvectors=False
        )
        return float(w[0])
    except scipy.sparse.linalg.ArpackError:
        return float(np.linalg.eigvalsh(m)[0])


def validate_supermap(s: Supermap, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the three supermap validity conditions on the CJ operator.

    Report conditions: ``positivity`` (most negative eigenvalue),
    ``trace`` (max-norm of ``Tr_out_side(C) - (d_out'/d_in') 1``), and
    ``subspace`` (max-norm of ``(P_in (x) Q_out)(C)``, the part that
    projecting the input side only keeps and projecting both sides drops).

    A pure supermap is checked from its CJ vector alone; the rank-one CJ is
    never formed, but the ``MAX_CJ_DIM`` size limit still applies.
    """
    s._check_cj_size()
    d1 = s.in_layout.dim
    d2 = s.out_layout.dim
    ratio = s.out_layout.d_out / s.in_layout.d_out

    if s.is_pure:
        # rank-one CJ |v><v| is PSD by representation; marginal from the vector
        v = s._cj_vector
        v2 = v.reshape(d1, d2)
        pos_resid = 0.0
        trace_c = float(np.vdot(v, v).real)
        marg = v2 @ v2.conj().T
        op = PaddedOperator.of_vector(v, s.in_layout.dims + s.out_layout.dims)
    else:
        c = s.cj
        if not is_hermitian(c):
            raise ValueError("supermap CJ is not Hermitian")
        lo = _lowest_eigenvalue(c)
        pos_resid = max(0.0, -lo)
        trace_c = float(np.trace(c).real)
        marg = partial_trace(c, (d1, d2), [1])
        op = PaddedOperator.of_matrix(c, s.in_layout.dims + s.out_layout.dims)
    pos_tol = tol * max(1.0, abs(trace_c))
    tr_resid = max_norm(marg - ratio * np.eye(d1))
    tr_tol = tol * max(1.0, ratio)

    level = HierarchyLevel.pair(
        HierarchyLevel.process(s.in_layout), HierarchyLevel.process(s.out_layout)
    )
    sub_tol = tol * max(1.0, op.max_norm())
    sub_resid = _forbidden_part(op, level).max_norm()

    conds = (
        ConditionReport("positivity", pos_resid, pos_tol, pos_resid <= pos_tol),
        ConditionReport("trace", tr_resid, tr_tol, tr_resid <= tr_tol),
        ConditionReport("subspace", sub_resid, sub_tol, sub_resid <= sub_tol),
    )
    return ValidationReport(conds, all(cd.passed for cd in conds))


def apply(s: Supermap, w: ProcessMatrix) -> ProcessMatrix:
    """Act with a supermap on a process matrix.

    The input layout must match the supermap's; the result lives on the
    output layout.  Structured actions (reductions, pure CJ vectors) are
    used when available, the dense contraction otherwise.
    """
    if w.layout != s.in_layout:
        raise ValueError("process layout does not match the supermap input layout")
    if s._action is not None:
        out = s._action(w.matrix)
    elif s.is_pure:
        v2 = s._cj_vector.reshape(s.in_layout.dim, s.out_layout.dim)
        out = v2.T @ w.matrix @ v2.conj()
    else:
        d1, d2 = s.in_layout.dim, s.out_layout.dim
        c4 = s.cj.reshape(d1, d2, d1, d2)
        out = np.einsum("abcd,ac->bd", c4, w.matrix)
    out = (out + out.conj().T) / 2
    return ProcessMatrix(s.out_layout, out)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _max_entangled_vector(d: int) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return v


def constant_map(w_tilde: ProcessMatrix, in_layout: SpaceLayout) -> Supermap:
    """Supermap sending every process on ``in_layout`` to ``w_tilde``.

    ``C = 1_in (x) w_tilde / d_in'``; valid exactly when ``w_tilde`` is a
    valid process.
    """
    d1 = in_layout.dim
    cj = np.kron(np.eye(d1), w_tilde.matrix) / in_layout.d_out
    return Supermap(
        in_layout, w_tilde.layout, cj=cj, label="constant"
    )


def interpolation_map(w_tilde: ProcessMatrix, p: float) -> Supermap:
    """Mix the identity supermap with the constant map onto ``w_tilde``.

    ``C = (1 - p)|1>><<1| + p (1 (x) w_tilde / d')`` on a shared layout;
    at ``p = 0`` this is the identity transformation, at ``p = 1`` the
    constant one.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    layout = w_tilde.layout
    d = layout.dim
    v = _max_entangled_vector(d)
    cj = (1.0 - p) * np.outer(v, v.conj()) + p * np.kron(
        np.eye(d), w_tilde.matrix
    ) / layout.d_out
    return Supermap(layout, layout, cj=cj, label=f"interpolation(p={p})")


def unitary_supermap(u: np.ndarray, layout: SpaceLayout, label: str = "") -> Supermap:
    """Conjugation supermap ``W -> U W U^dag`` with a rank-one CJ.

    ``C = (1 (x) U)|1>><<1|(1 (x) U^dag)``; whether the result is a valid
    supermap depends on whether ``U`` preserves the allowed span (see
    :func:`validate_supermap`).
    """
    u = np.asarray(u, dtype=complex)
    d = layout.dim
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape}, expected {(d, d)}")
    if max_norm(u @ u.conj().T - np.eye(d)) > 1e-9:
        raise ValueError("matrix is not unitary within tolerance")
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
    the rest.  The supermap applies through this formula directly; its CJ is
    only materialized for small layouts.

    On the CJ representative: the formula above fixes the supermap only on
    the span of valid processes, and the stored CJ is the natural wiring
    operator (identity wires on the kept factors, ``C_M`` closing the loop
    on the removed ones).  It is positive semidefinite and satisfies the
    order-structure condition exactly, and it rescales the trace of every
    operator in the valid span; but for a trace-preserving ``C_M`` other
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
    perm = keep + x_facs
    dims_p = [layout.dims[k] for k in perm]
    d_rest = reduced.dim
    n_rest = len(keep)
    embedded = np.kron(np.eye(d_rest), element_cj)

    def action(w: np.ndarray) -> np.ndarray:
        # reorder to (kept..., reduced party...), then trace the tail
        wp = permute_factors(w, layout, perm)
        return partial_trace(
            embedded @ wp, dims_p, range(n_rest, len(dims_p))
        )

    def build_cj() -> np.ndarray:
        # superoperator of X -> Tr_X(G X) for G = 1 (x) C_M on (rest, X):
        # S[(K, L), ((r, e), (r', e'))] = G[(K, e'), (r, e)] delta_{r' L}
        g4 = embedded.reshape(d_rest, d_x, d_rest, d_x)
        s6 = np.einsum("kprq,sl->klrqsp", g4, np.eye(d_rest))
        smat = s6.reshape(d_rest * d_rest, (d_rest * d_x) ** 2)
        from .process_space import cj_of_map

        cj_p = cj_of_map(smat, d_rest * d_x, d_rest)
        # input side is currently ordered (kept..., party...); restore layout order
        joint_dims = dims_p + list(reduced.dims)
        joint_perm = [perm.index(j) for j in range(len(perm))] + [
            len(perm) + k for k in range(reduced.n_factors)
        ]
        return permute_factors(cj_p, joint_dims, joint_perm)

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


def _forbidden_part(
    op: PaddedOperator, level: HierarchyLevel, offset: int = 0
) -> PaddedOperator:
    """Apply ``Q^(n) = 1 - P^(n)`` to ``op`` (consumed, see ``forbidden_part``).

    ``Q^(1)`` is the layout's forbidden-term projector and
    ``Q^(n) = (1 - Q^(n-1)_1) (x) Q^(n-1)_2`` over the two slots.  The output
    slot goes first, so the factors it depolarizes are gone before the input
    slot's projector copies the operator.
    """
    if level.n == 1:
        return forbidden_part(op, level.layout, offset)
    h = _forbidden_part(op, level.slot2, offset + len(level.slot1.dims))
    h.subtract(_forbidden_part(h.alias(), level.slot1, offset))
    return h


def hierarchy_projector(level: HierarchyLevel) -> Callable[[np.ndarray], np.ndarray]:
    """The projector ``P^(n)`` as a function on operators.

    Computed as ``M - Q^(n)(M)`` by depolarization; it agrees with keeping
    the coefficients that ``hierarchy_mask`` marks, and is idempotent at
    every level.
    """
    dims = level.dims

    def project(m: np.ndarray) -> np.ndarray:
        return m - _forbidden_part(PaddedOperator.of_matrix(m, dims), level).dense()

    return project


def validate_order_n(
    x: np.ndarray, level: HierarchyLevel, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Positivity, trace rescaling, and ``P^(n)`` invariance at any level.

    For ``n = 1`` this is process validation; for ``n = 2`` on a pair of
    process layouts it coincides with :func:`validate_supermap` on the CJ.
    """
    x = np.asarray(x, dtype=complex)
    d = level.dim
    if x.shape != (d, d):
        raise ValueError(f"operator shape {x.shape}, expected {(d, d)}")
    if not is_hermitian(x):
        raise ValueError("operator must be Hermitian")
    trace = float(np.trace(x).real)
    lo = _lowest_eigenvalue(x)
    pos_resid = max(0.0, -lo)
    pos_tol = tol * max(1.0, abs(trace))
    if level.n == 1:
        target = level.trace_constant
        tr_resid = abs(trace - target)
        tr_tol = tol * max(1.0, target)
    else:
        d1 = level.slot1.dim
        d2 = level.slot2.dim
        ratio = level.slot2.trace_constant / level.slot1.trace_constant
        marg = partial_trace(x, (d1, d2), [1])
        tr_resid = max_norm(marg - ratio * np.eye(d1))
        tr_tol = tol * max(1.0, ratio)
    forbidden = _forbidden_part(PaddedOperator.of_matrix(x, level.dims), level)
    sub_resid = forbidden.max_norm()
    sub_tol = tol * max(1.0, max_norm(x))
    conds = (
        ConditionReport("positivity", pos_resid, pos_tol, pos_resid <= pos_tol),
        ConditionReport("trace", tr_resid, tr_tol, tr_resid <= tr_tol),
        ConditionReport("subspace", sub_resid, sub_tol, sub_resid <= sub_tol),
    )
    return ValidationReport(conds, all(c.passed for c in conds))
