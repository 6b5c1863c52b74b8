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

The CJ convention used throughout: ``C_N = (1 (x) N)|1>><<1|`` with the
unnormalized maximally entangled vector ``|1>> = sum_i |ii>``, so a map acts
on a state as ``N(rho) = Tr_in(C_N (rho^T (x) 1))`` and trace preservation
reads ``Tr_out(C_N) = 1_in``.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .hs_algebra import TermPattern, coefficient_tensor
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

__all__ = [
    "TermClass",
    "CausalOrderFlag",
    "ProcessMatrix",
    "Instrument",
    "ConditionReport",
    "ValidationReport",
    "bipartite_qubit_layout",
    "single_party_layout",
    "switch_layout",
    "extended_switch_layout",
    "classify_term",
    "allowed_mask",
    "project_valid",
    "project_valid_matrix",
    "project_valid_closed_form",
    "validate",
    "born_probabilities",
    "cj_of_map",
    "superop_of_unitary",
    "cj_of_unitary",
    "apply_cj",
    "shared_state",
    "channel_with_memory",
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


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """A Hermitian operator on a layout's product space.

    Hermiticity is enforced at construction (validity is not: invalid
    matrices are representable so they can be diagnosed).  The stored array
    is a read-only copy.
    """

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        d = self.layout.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match layout dim {d}")
        if not is_hermitian(m):
            raise ValueError("process matrix must be Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.layout.dim


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
            if not is_hermitian(c):
                raise ValueError(f"element {k} of instrument {self.party!r} not Hermitian")
            lo = float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])
            if lo < -DEFAULT_TOL * max(1.0, abs(np.trace(c))):
                raise ValueError(
                    f"element {k} of instrument {self.party!r} is not PSD "
                    f"(lowest eigenvalue {lo:.3e})"
                )
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
        p = layout.party(party)
        d_in = math.prod(layout.dims[k] for k in p.inputs) if p.inputs else 1
        d_out = math.prod(layout.dims[k] for k in p.outputs) if p.outputs else 1
        return cls(party, tuple(elements), d_in, d_out)


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
    every party the term touches is touched on that party's own output.
    """
    if len(pattern) != layout.n_factors:
        raise ValueError(f"pattern length {len(pattern)} != {layout.n_factors}")
    for a, d in zip(pattern, layout.dims):
        if not 0 <= a < d * d:
            raise ValueError(f"index {a} out of range for factor dimension {d}")
    nz = [a != 0 for a in pattern]
    any_output = any(nz[k] for p in layout.parties for k in p.outputs)
    if not any_output:
        return TermClass.ALLOWED
    for p in layout.parties:
        touched = any(nz[k] for k in p.inputs) or any(nz[k] for k in p.outputs)
        out_touched = any(nz[k] for k in p.outputs)
        if touched and not out_touched:
            return TermClass.ALLOWED
    return TermClass.FORBIDDEN


@lru_cache(maxsize=None)
def allowed_mask(layout: SpaceLayout) -> np.ndarray:
    """Boolean tensor over term patterns, True where the term is allowed.

    Shape matches the coefficient tensor ``(d_0^2, ..., d_{n-1}^2)``; the
    result is cached per layout and read-only.
    """
    n = layout.n_factors
    qdims = tuple(d * d for d in layout.dims)

    def axis_flag(k: int) -> np.ndarray:
        shape = [1] * n
        shape[k] = qdims[k]
        return (np.arange(qdims[k]) > 0).reshape(shape)

    any_output = np.zeros((1,) * n, dtype=bool)
    every_touched_leaks = np.ones((1,) * n, dtype=bool)
    for p in layout.parties:
        touched = np.zeros((1,) * n, dtype=bool)
        out_touched = np.zeros((1,) * n, dtype=bool)
        for k in p.inputs:
            touched = touched | axis_flag(k)
        for k in p.outputs:
            touched = touched | axis_flag(k)
            out_touched = out_touched | axis_flag(k)
        any_output = any_output | out_touched
        every_touched_leaks = every_touched_leaks & (~touched | out_touched)
    forbidden = any_output & every_touched_leaks
    mask = ~np.broadcast_to(forbidden, qdims)
    mask = np.array(mask)
    mask.setflags(write=False)
    return mask


def forbidden_part(
    op: PaddedOperator, layout: SpaceLayout, offset: int = 0
) -> PaddedOperator:
    """Apply the forbidden-term projector ``Q_L = 1 - P_L`` by depolarization.

    Whether a term is allowed depends only on which factors it touches, so
    ``Q_L`` factorizes over parties.  With ``D_X`` the depolarization of
    factor set ``X`` (trace it out, put back ``1_X / d_X``) and ``I_p``,
    ``O_p`` party p's input and output factors,

        Q_L = prod_p (1 - D_{O_p}(1 - D_{I_p})) - D_{all factors},

    where every factor commutes and a party without outputs contributes
    ``D_{I_p}`` (``D`` of the empty set is the identity).  The party factor
    says "p's output is touched or p's input is not"; the last term removes
    the all-untouched terms, on which every party factor is 1.  The
    output-less parties' ``D_{I_p}`` go first: they shrink ``op``, so the
    identity they imply is never expanded.

    The layout's factors sit at ``offset, offset + 1, ...`` of ``op``'s
    factors, so the projector can act on one slot of a joint space.  ``op``
    is consumed: the result may share and overwrite its storage.
    """
    parties = [
        ([offset + k for k in p.inputs], [offset + k for k in p.outputs])
        for p in layout.parties
    ]
    for ins, outs in parties:
        if not outs:
            op = op.depolarized(ins)
    for ins, outs in parties:
        if ins and outs:
            leak = op.depolarized(outs)
            leak.subtract(leak.depolarized(ins))
            op.subtract(leak)
    op.subtract(op.depolarized(range(offset, offset + layout.n_factors)))
    return op


def project_valid_matrix(m: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Projector onto the span of allowed terms, applied to a bare matrix.

    Computed in closed form as ``M - Q_L(M)``, with ``D_X`` the
    depolarization of factor set ``X`` and

        Q_L = prod_{p: O_p nonempty} (1 - D_{O_p}(1 - D_{I_p}))
              * prod_{p: O_p empty} D_{I_p}  -  D_{all factors}

    (see :func:`forbidden_part`).  It agrees with zeroing the forbidden
    entries of the coefficient tensor (``allowed_mask``), the term-level
    definition, for any factor dimensions.
    """
    op = forbidden_part(PaddedOperator.of_matrix(m, layout), layout)
    return m - op.dense()


def project_valid(w: ProcessMatrix) -> ProcessMatrix:
    """Project a process matrix onto the allowed-term span (idempotent)."""
    return ProcessMatrix(w.layout, project_valid_matrix(w.matrix, w.layout))


def _depolarize(m: np.ndarray, layout: SpaceLayout, facs: Sequence[int]) -> np.ndarray:
    """Replace the listed factors with normalized identity."""
    return PaddedOperator.of_matrix(m, layout).depolarized(facs).dense()


def project_valid_closed_form(m: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Two-party closed form of the valid-subspace projector.

    Writing ``_X W`` for the depolarize-factors operation on factor set X,
    the projector is

        _AO W + _BO W - _AIAO W - _BIBO W - _AOBO W + _AOBIBO W + _BOAIAO W

    with A, B the layout's two parties.  Agrees with the term-rule projector
    on every product term; used as an independent cross-check.
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


def validate(w: ProcessMatrix, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check positivity, normalization, and allowed-span membership.

    Residuals: most negative eigenvalue (clipped to 0 when positive),
    ``|Tr W - d_out|``, and the max-norm of ``P(W) - W`` (the forbidden part
    ``Q_L(W)``, see :func:`forbidden_part`).  Each tolerance is
    ``tol`` scaled by the relevant magnitude (trace for positivity, ``d_out``
    for the trace condition, the matrix max-norm for the subspace condition).
    """
    m = w.matrix
    trace = float(np.trace(m).real)
    lo = float(np.linalg.eigvalsh(m)[0])
    pos_resid = max(0.0, -lo)
    pos_tol = tol * max(1.0, abs(trace))
    d_out = w.layout.d_out
    tr_resid = abs(trace - d_out)
    tr_tol = tol * max(1.0, float(d_out))
    forbidden = forbidden_part(PaddedOperator.of_matrix(m, w.layout), w.layout)
    sub_resid = forbidden.max_norm()
    sub_tol = tol * max(1.0, max_norm(m))
    conds = (
        ConditionReport("positivity", pos_resid, pos_tol, pos_resid <= pos_tol),
        ConditionReport("trace", tr_resid, tr_tol, tr_resid <= tr_tol),
        ConditionReport("subspace", sub_resid, sub_tol, sub_resid <= sub_tol),
    )
    return ValidationReport(conds, all(c.passed for c in conds))


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------


def born_probabilities(
    w: ProcessMatrix,
    instruments: Sequence[Instrument],
    check: bool = True,
) -> np.ndarray:
    """Outcome probability table for one instrument per party.

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

    grouped: list[int] = []
    for p in layout.parties:
        grouped.extend(p.inputs)
        grouped.extend(p.outputs)
    w_grouped = permute_factors(w.matrix, layout, grouped)

    ordered = [by_name[p.name] for p in layout.parties]
    for inst, p in zip(ordered, layout.parties):
        d_in = math.prod(layout.dims[k] for k in p.inputs) if p.inputs else 1
        d_out = math.prod(layout.dims[k] for k in p.outputs) if p.outputs else 1
        if (inst.d_in, inst.d_out) != (d_in, d_out):
            raise ValueError(
                f"instrument for party {p.name!r} has dims "
                f"({inst.d_in}, {inst.d_out}), layout expects ({d_in}, {d_out})"
            )
    shape = tuple(len(inst.elements) for inst in ordered)
    table = np.empty(shape, dtype=float)
    for combo in itertools.product(*(range(s) for s in shape)):
        big = tensor(*(inst.elements[i] for inst, i in zip(ordered, combo)))
        table[combo] = float(np.sum(w_grouped * big.T).real)
    return table


# ---------------------------------------------------------------------------
# CJ helpers
# ---------------------------------------------------------------------------


def cj_of_map(smat: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """CJ operator of a linear map given as a superoperator matrix.

    ``smat`` has shape ``(d_out**2, d_in**2)`` and acts on row-major
    vectorized operators: ``vec(N(X)) = smat @ vec(X)``.
    """
    smat = np.asarray(smat, dtype=complex)
    if smat.shape != (d_out * d_out, d_in * d_in):
        raise ValueError(
            f"superoperator shape {smat.shape}, expected {(d_out**2, d_in**2)}"
        )
    s4 = smat.reshape(d_out, d_out, d_in, d_in)
    return s4.transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out)


def superop_of_unitary(u: np.ndarray) -> np.ndarray:
    """Row-major superoperator of ``X -> U X U^dag``."""
    return np.kron(u, u.conj())


def cj_of_unitary(u: np.ndarray) -> np.ndarray:
    """CJ operator of unitary conjugation, ``(1 (x) U)|1>><<1|(1 (x) U^dag)``."""
    d = u.shape[0]
    return cj_of_map(superop_of_unitary(u), d, d)


def apply_cj(c: np.ndarray, rho: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Act with a CJ operator on a state: ``Tr_in(C (rho^T (x) 1))``."""
    c4 = np.asarray(c, dtype=complex).reshape(d_in, d_out, d_in, d_out)
    return np.einsum("iakb,ik->ab", c4, np.asarray(rho, dtype=complex))


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
    out_facs = [k for p in layout.parties for k in p.outputs]
    d_in = math.prod(layout.dims[k] for k in in_facs)
    rho = _check_state(rho, d_in, "shared state")
    d_out = math.prod(layout.dims[k] for k in out_facs) if out_facs else 1
    big = np.kron(rho, np.eye(d_out))
    current = in_facs + out_facs
    perm = [current.index(j) for j in range(layout.n_factors)]
    dims_current = [layout.dims[k] for k in current]
    return ProcessMatrix(layout, permute_factors(big, dims_current, perm))


def channel_with_memory(
    core: np.ndarray,
    direction: str = "a_to_b",
    layout: SpaceLayout | None = None,
) -> ProcessMatrix:
    """Causally ordered process ``W = core (x) 1`` on the receiver's output.

    For ``a_to_b`` the core operator lives on (A inputs, B inputs, A outputs)
    in layout order and the identity fills B's outputs; ``b_to_a`` swaps the
    roles.  The result is valid iff the core makes the full matrix satisfy
    the three validity conditions (e.g. state at the first party's input plus
    a channel CJ, see :func:`memory_channel`).
    """
    if layout is None:
        layout = bipartite_qubit_layout()
    if len(layout.parties) != 2:
        raise ValueError("channel_with_memory needs a two-party layout")
    a, b = layout.parties
    if direction == "a_to_b":
        core_facs = list(a.inputs) + list(b.inputs) + list(a.outputs)
        id_facs = list(b.outputs)
    elif direction == "b_to_a":
        core_facs = list(a.inputs) + list(b.inputs) + list(b.outputs)
        id_facs = list(a.outputs)
    else:
        raise ValueError(f"direction must be 'a_to_b' or 'b_to_a', got {direction!r}")
    core = np.asarray(core, dtype=complex)
    d_core = math.prod(layout.dims[k] for k in core_facs)
    if core.shape != (d_core, d_core):
        raise ValueError(f"core shape {core.shape}, expected {(d_core, d_core)}")
    d_id = math.prod(layout.dims[k] for k in id_facs) if id_facs else 1
    big = np.kron(core, np.eye(d_id))
    current = core_facs + id_facs
    perm = [current.index(j) for j in range(layout.n_factors)]
    dims_current = [layout.dims[k] for k in current]
    return ProcessMatrix(layout, permute_factors(big, dims_current, perm))


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
    a, b = layout.parties
    da_i = math.prod(layout.dims[k] for k in a.inputs)
    da_o = math.prod(layout.dims[k] for k in a.outputs)
    db_i = math.prod(layout.dims[k] for k in b.inputs)
    db_o = math.prod(layout.dims[k] for k in b.outputs)
    if direction == "a_to_b":
        rho = _check_state(rho, da_i, "input state")
        d_cj = da_o * db_i
        cj = np.asarray(channel_cj, dtype=complex)
        if cj.shape != (d_cj, d_cj):
            raise ValueError(f"channel CJ shape {cj.shape}, expected {(d_cj, d_cj)}")
        # core on (A_I, A_O, B_I) -> reorder to (A_I, B_I, A_O)
        core = tensor(rho, cj)
        dims_current = [da_i, da_o, db_i]
        core = permute_factors(core, dims_current, [0, 2, 1])
    elif direction == "b_to_a":
        rho = _check_state(rho, db_i, "input state")
        d_cj = db_o * da_i
        cj = np.asarray(channel_cj, dtype=complex)
        if cj.shape != (d_cj, d_cj):
            raise ValueError(f"channel CJ shape {cj.shape}, expected {(d_cj, d_cj)}")
        # core on (B_O, A_I, B_I) -> reorder to (A_I, B_I, B_O)
        core = tensor(cj, rho)
        dims_current = [db_o, da_i, db_i]
        core = permute_factors(core, dims_current, [1, 2, 0])
    else:
        raise ValueError(f"direction must be 'a_to_b' or 'b_to_a', got {direction!r}")
    return channel_with_memory(core, direction, layout)


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
    layout = single_party_layout(2, 2)
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0  # |00>
    v[3] = 1.0  # |11>
    return ProcessMatrix(layout, np.outer(v, v.conj()))


def grandfather_instrument() -> Instrument:
    """Measure the input and prepare the opposite bit.

    Elements ``|0><0| (x) |1><1|`` and ``|1><1| (x) |0><0|`` on (A_I, A_O);
    combined with :func:`w_ll` every outcome has probability zero.
    """
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return Instrument("A", (tensor(p0, p1), tensor(p1, p0)), 2, 2)


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
    result is a rank-1 valid process with trace ``d_out``.

    Args:
        psi: normalized initial target state (defaults to |0>).
        d: target dimension.
    """
    if psi is None:
        psi = np.zeros(d)
        psi[0] = 1.0
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (d,):
        raise ValueError(f"psi must have length {d}")
    if abs(np.linalg.norm(psi) - 1.0) > DEFAULT_TOL:
        raise ValueError("psi must be normalized")
    abc, bac = switch_branch_vectors(psi, d)
    n_t = d**5
    vec = np.zeros(n_t * 2, dtype=complex)
    # control qubit is the last tensor factor
    full = vec.reshape(n_t, 2)
    full[:, 0] = abc / np.sqrt(2.0)
    full[:, 1] = bac / np.sqrt(2.0)
    return ProcessMatrix(switch_layout(d), np.outer(vec, vec.conj()))


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
    if psi is None:
        psi = np.zeros(d)
        psi[0] = 1.0
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (d,):
        raise ValueError(f"psi must have length {d}")
    if abs(np.linalg.norm(psi) - 1.0) > DEFAULT_TOL:
        raise ValueError("psi must be normalized")
    if control is None:
        control = np.full(2, 1.0 / np.sqrt(2.0))
    control = np.asarray(control, dtype=complex).reshape(-1)
    if control.shape != (2,):
        raise ValueError("control must be a qubit state")
    if abs(np.linalg.norm(control) - 1.0) > DEFAULT_TOL:
        raise ValueError("control must be normalized")
    abc, _ = switch_branch_vectors(psi, d)
    vec = np.kron(abc, control)
    return ProcessMatrix(switch_layout(d), np.outer(vec, vec.conj()))


def extended_branch_vectors(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Switch branches embedded in the four-party layout with D and control set.

    Both vectors live on (A_I, B_I, D_I, A_O, B_O, D_O, C_T, C_C); the first
    carries D_I = D_O = 0 and control 0, the second D_I = 0, D_O = 1 and
    control 1.
    """
    abc, bac = switch_branch_vectors(psi, 2)
    abc5 = abc.reshape(2, 2, 2, 2, 2)
    bac5 = bac.reshape(2, 2, 2, 2, 2)
    v1 = np.zeros((2,) * 8, dtype=complex)
    v2 = np.zeros((2,) * 8, dtype=complex)
    v1[:, :, 0, :, :, 0, :, 0] = abc5
    v2[:, :, 0, :, :, 1, :, 1] = bac5
    return v1.reshape(-1), v2.reshape(-1)


def extended_switch(psi: np.ndarray | None = None) -> ProcessMatrix:
    """Four-party process whose D-party instrument steers the causal order.

    ``|W> = |branch_1> + |branch_2>`` (unnormalized sum; the cross terms
    vanish and the trace is the required ``d_out = 8``).  Feeding D's side
    channel a rotation by ``lambda`` reduces this process to a
    ``cos/sin``-weighted superposition of the two switch branches.
    """
    if psi is None:
        psi = np.array([1.0, 0.0])
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (2,):
        raise ValueError("psi must be a qubit state")
    if abs(np.linalg.norm(psi) - 1.0) > DEFAULT_TOL:
        raise ValueError("psi must be normalized")
    v1, v2 = extended_branch_vectors(psi)
    vec = v1 + v2
    return ProcessMatrix(extended_switch_layout(), np.outer(vec, vec.conj()))


# ---------------------------------------------------------------------------
# causal order
# ---------------------------------------------------------------------------


def _nonzero_patterns(
    w: ProcessMatrix, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    c = coefficient_tensor(w.matrix, w.layout)
    scale = max(1.0, float(np.max(np.abs(c))))
    return c, np.abs(c) > threshold * scale


def causal_order_flags(
    w: ProcessMatrix, threshold: float = 1e-12
) -> CausalOrderFlag:
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
    a_first = comb_order_satisfied(w, [a, b, *tail], threshold)
    b_first = comb_order_satisfied(w, [b, a, *tail], threshold)
    if a_first and b_first:
        return CausalOrderFlag.NO_SIGNALLING
    if a_first:
        return CausalOrderFlag.A_TO_B
    if b_first:
        return CausalOrderFlag.B_TO_A
    return CausalOrderFlag.NEITHER


def comb_order_satisfied(
    w: ProcessMatrix, order: Sequence[str], threshold: float = 1e-12
) -> bool:
    """Whether the term support is compatible with a fixed party order.

    For the order ``X_1 <= ... <= X_n`` (earlier parties act first), every
    nonzero term that is trivial on all factors of the later parties
    ``X_{k+1}, ..., X_n`` must be trivial on ``X_k``'s outputs: once
    everything downstream is discarded, what remains cannot depend on
    ``X_k``'s output.
    """
    layout = w.layout
    names = [p.name for p in layout.parties]
    if sorted(order) != sorted(names):
        raise ValueError(f"order {order!r} must list the parties {names} exactly once")
    _, support = _nonzero_patterns(w, threshold)
    n = layout.n_factors
    qdims = tuple(d * d for d in layout.dims)

    def axis_flag(k: int) -> np.ndarray:
        shape = [1] * n
        shape[k] = qdims[k]
        return (np.arange(qdims[k]) > 0).reshape(shape)

    parties = [layout.party(name) for name in order]
    for k in range(len(parties) - 1, -1, -1):
        later: list[int] = []
        for q in parties[k + 1 :]:
            later.extend(q.inputs)
            later.extend(q.outputs)
        trivial_later = np.ones((1,) * n, dtype=bool)
        for f in later:
            trivial_later = trivial_later & ~axis_flag(f)
        out_nontrivial = np.zeros((1,) * n, dtype=bool)
        for f in parties[k].outputs:
            out_nontrivial = out_nontrivial | axis_flag(f)
        if np.any(support & trivial_later & out_nontrivial):
            return False
    return True
