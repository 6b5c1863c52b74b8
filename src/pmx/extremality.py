"""Extremality tests for process matrices and the non-reachability chain.

Two independent criteria.  The support-intersection test works for any
valid process: ``W`` is extremal exactly when the operators that are both
supported on ``supp(W)`` and inside the allowed span form a line, i.e. the
intersection of the two subspaces is one dimensional.  The second is a
linear-independence criterion for causally ordered processes: ``W`` with
signalling only from the first party to the second is extremal iff a
Hermitian basis of ``L(supp(W))`` stays linearly independent after
adjoining a fixed list of product terms attached to the causal order.

Both live on the real vector space of Hermitian operators in product-term
coordinates, where the valid-span projector is diagonal.  The intersection
is counted on the forbidden coordinates alone: an ``|F| x |F|`` Gram of the
forbidden terms compressed to the support, so its cost follows the number
of forbidden terms rather than ``rank(W)**2`` coefficient vectors.  The
independence test stacks the coefficient vectors themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hs_algebra import batch_coefficient_tensors, build_su_basis, term_stack
from .operator_core import SpaceLayout
from .process_space import (
    ProcessMatrix,
    allowed_mask,
    cj_of_unitary,
    comb_order_satisfied,
    memory_channel,
    validate,
    w_ocb,
)

__all__ = [
    "DarianoReport",
    "ExtremalityCertificate",
    "ReachabilityReport",
    "SubspacePair",
    "dariano_test",
    "is_extremal",
    "non_reachability_report",
    "subspace_pair",
    "support_intersection_dim",
    "support_rank",
]

SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class SubspacePair:
    """Projectors onto ``L(supp W)`` and the allowed span, as real matrices.

    Both act on coefficient vectors over the product-term basis.  ``dims``
    holds their ranks ``(dim T, dim V)``.
    """

    p_t: np.ndarray
    p_v: np.ndarray
    dims: tuple[int, int]


def _support_vectors(m: np.ndarray, threshold: float = SUPPORT_TOL) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    keep = vals > threshold * max(vals.max(), 0.0)
    return vecs[:, keep]


def support_rank(w: ProcessMatrix, threshold: float = SUPPORT_TOL) -> int:
    """Number of eigenvalues above ``threshold`` times the largest."""
    return _support_vectors(w.matrix, threshold).shape[1]


def _support_operator_basis(vecs: np.ndarray) -> np.ndarray:
    """HS-orthonormal Hermitian basis of operators on ``span(vecs)``."""
    r = vecs.shape[1]
    ops = []
    for i in range(r):
        ops.append(np.outer(vecs[:, i], vecs[:, i].conj()))
    for i in range(r):
        for j in range(i + 1, r):
            e = np.outer(vecs[:, i], vecs[:, j].conj())
            ops.append((e + e.conj().T) / np.sqrt(2))
            ops.append((1j * e - 1j * e.conj().T) / np.sqrt(2))
    return np.stack(ops)


def _coefficient_rows(ops: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Orthonormal real coefficient vectors of HS-orthonormal operators."""
    n = layout.n_factors
    c = batch_coefficient_tensors(ops, layout).reshape(ops.shape[0], -1)
    return c.real * np.sqrt(2.0**n)


def subspace_pair(w: ProcessMatrix, threshold: float = SUPPORT_TOL) -> SubspacePair:
    """Materialize both projectors on the vectorized operator space."""
    layout = w.layout
    pi = _support_vectors(w.matrix, threshold)
    pi = pi @ pi.conj().T
    terms = term_stack(layout)
    mapped = np.matmul(np.matmul(pi, terms), pi)
    # column v of P_T holds the coefficients of Pi sigma_v Pi
    p_t = (
        batch_coefficient_tensors(mapped, layout)
        .reshape(terms.shape[0], -1)
        .real.T.copy()
    )
    p_v = np.diag(allowed_mask(layout).reshape(-1).astype(float))
    dims = (int(round(np.trace(p_t))), int(round(np.trace(p_v))))
    return SubspacePair(p_t, p_v, dims)


def _forbidden_gram(vecs: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """``G[f, g] = Tr(A_f A_g) / 2**n`` with ``A_f = V^dag sigma_f V``.

    ``V`` holds the support vectors as columns and ``f``, ``g`` run over the
    forbidden product terms.  Each ``sigma_f`` is applied to ``V`` factor by
    factor, so no product term is formed as a matrix: the leading axis is
    acted on, then rotated to the back, which after every factor leaves
    ``(sigma_f V)^T`` and hence ``A_f^T``, with the same Gram.
    """
    dims = layout.dims
    forbidden = np.flatnonzero(~allowed_mask(layout).reshape(-1))
    digits = np.unravel_index(forbidden, tuple(d * d for d in dims))
    r = vecs.shape[1]
    size = layout.dim * r
    y = vecs.reshape(1, dims[0], size // dims[0])
    for k, d in enumerate(dims):
        y = build_su_basis(d).elements[digits[k]] @ y.reshape(-1, d, size // d)
        y = y.transpose(0, 2, 1)
    a = y.reshape(len(forbidden), r, layout.dim) @ vecs.conj()
    # Tr(A_f A_g) = Re sum A_f conj(A_g) over entries, one real product
    a = a.view(float).reshape(len(forbidden), 2 * r * r)
    return a @ a.T / 2.0 ** len(dims)


def _intersection(w: ProcessMatrix, tol: float) -> tuple[int, int, float]:
    """Intersection dimension, support rank and the count's margin."""
    if not validate(w).valid:
        raise ValueError("support_intersection_dim needs a valid process")
    vecs = _support_vectors(w.matrix)
    r = vecs.shape[1]
    mu = np.linalg.eigvalsh(_forbidden_gram(vecs, w.layout))
    above = mu[mu > 2 * tol]
    margin = float(above.min() - 2 * tol) if above.size else math.inf
    return r * r - above.size, r, margin


def support_intersection_dim(w: ProcessMatrix, tol: float = 1e-8) -> int:
    """Dimension of ``T`` intersected with ``V`` for a valid process ``W``.

    ``T`` is the ``r**2``-dimensional space of Hermitian operators on
    ``supp(W)``; ``T`` meets ``V`` in the kernel of ``R_F``, the map to the
    forbidden coefficients.  So the dimension is ``r**2`` minus the number
    of eigenvalues of the ``|F| x |F|`` Gram ``R_F^T R_F`` (see
    ``_forbidden_gram``) above ``2 tol``; ``R_F R_F^T`` has the same nonzero
    eigenvalues.  This is the decision ``|lambda - 1| <= tol`` on the
    averaged projector ``(P_T + P_V)/2`` compressed to ``T``, whose
    eigenvalues are ``1 - mu/2``.
    """
    return _intersection(w, tol)[0]


@dataclass(frozen=True)
class ExtremalityCertificate:
    """Verdict plus the intersection dimension that produced it.

    ``margin`` is the distance from the threshold ``2 tol`` up to the
    nearest eigenvalue of the forbidden-term Gram that the intersection
    count left out (``inf`` when every eigenvalue is counted): how far a
    larger tolerance would have to move before the count grows.
    """

    extremal: bool
    intersection_dim: int
    support_rank: int
    tolerance: float
    margin: float

    def __bool__(self) -> bool:
        return self.extremal


def is_extremal(w: ProcessMatrix, tol: float = 1e-8) -> ExtremalityCertificate:
    """A valid process is extremal iff the intersection is one dimensional."""
    dim, rank, margin = _intersection(w, tol)
    return ExtremalityCertificate(dim == 1, dim, rank, tol, margin)


@dataclass(frozen=True)
class DarianoReport:
    """Linear (in)dependence of the support basis joined with order terms."""

    independent: bool
    support_card: int
    order_card: int
    total: int
    rank: int
    space_dim: int
    direction: str


def _party_factor_positions(layout: SpaceLayout, name: str) -> tuple[int, int]:
    party = layout.party(name)
    if len(party.inputs) != 1 or len(party.outputs) != 1:
        raise ValueError(f"party {name!r} must have one input and one output")
    return party.inputs[0], party.outputs[0]


def dariano_test(w: ProcessMatrix, direction: str = "a_to_b") -> DarianoReport:
    """Independence test for a causally ordered two-party process.

    ``direction`` fixes which party signals to which; the process must be a
    comb in that order.  The adjoined term list ``D`` contains every
    pattern nontrivial on the later party's input, plus the patterns local
    to the earlier party with a nontrivial input factor.  The verdict is
    the numerical rank of the stacked coefficient vectors of ``C ⊔ D``.
    """
    layout = w.layout
    if len(layout.parties) != 2:
        raise ValueError("dariano_test handles two-party layouts")
    first, second = (p.name for p in layout.parties)
    if direction == "b_to_a":
        first, second = second, first
    elif direction != "a_to_b":
        raise ValueError(f"unknown direction {direction!r}")
    if not comb_order_satisfied(w, [first, second]):
        raise ValueError(f"process is not causally ordered {first} before {second}")

    f_in, f_out = _party_factor_positions(layout, first)
    s_in, s_out = _party_factor_positions(layout, second)
    qdims = tuple(d * d for d in layout.dims)
    total = int(np.prod(qdims))

    order_patterns = []
    for pat in np.ndindex(*qdims):
        if pat[s_in] >= 1:
            order_patterns.append(pat)
        elif (
            pat[s_in] == 0
            and pat[s_out] == 0
            and pat[f_in] >= 1
            and all(pat[k] == 0 for k in range(len(qdims)) if k not in (f_in, f_out))
        ):
            order_patterns.append(pat)

    d_rows = np.zeros((len(order_patterns), total))
    for k, pat in enumerate(order_patterns):
        d_rows[k, np.ravel_multi_index(pat, qdims)] = 1.0
    c_rows = _coefficient_rows(
        _support_operator_basis(_support_vectors(w.matrix)), layout
    )
    stacked = np.vstack([c_rows, d_rows])
    svals = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(svals > 1e-9 * svals[0]))
    return DarianoReport(
        independent=rank == stacked.shape[0],
        support_card=c_rows.shape[0],
        order_card=d_rows.shape[0],
        total=stacked.shape[0],
        rank=rank,
        space_dim=total,
        direction=direction,
    )


@dataclass(frozen=True)
class ReachabilityReport:
    """The full chain ruling out a causally ordered origin for w_ocb.

    The process is extremal and rank 8; reversible maps preserve rank and
    extremality; yet for either signalling direction the adjoined basis for
    a rank-8 comb has more elements than the operator space has dimensions,
    so no causally ordered rank-8 process is extremal.
    """

    rank: int
    extremal: bool
    intersection_dim: int
    a_to_b: DarianoReport
    b_to_a: DarianoReport
    space_dim: int
    verdict: str

    @property
    def passed(self) -> bool:
        return (
            self.rank == 8
            and self.extremal
            and self.intersection_dim == 1
            and not self.a_to_b.independent
            and not self.b_to_a.independent
            and self.a_to_b.total > self.space_dim
            and self.b_to_a.total > self.space_dim
        )


def non_reachability_report() -> ReachabilityReport:
    """Assemble the argument on concrete rank-8 witnesses."""
    w = w_ocb()
    cert = is_extremal(w)
    mixed_cj = (cj_of_unitary(np.eye(2)) + cj_of_unitary(np.array([[0, 1], [1, 0]]))) / 2
    reports = {}
    for direction in ("a_to_b", "b_to_a"):
        witness = memory_channel(np.eye(2) / 2, mixed_cj, direction)
        if support_rank(witness) != 8:
            raise RuntimeError("rank-8 witness construction failed")
        reports[direction] = dariano_test(witness, direction)
    return ReachabilityReport(
        rank=support_rank(w),
        extremal=cert.extremal,
        intersection_dim=cert.intersection_dim,
        a_to_b=reports["a_to_b"],
        b_to_a=reports["b_to_a"],
        space_dim=w.layout.dim**2,
        verdict="no causally ordered rank-8 extremal bipartite-qubit process exists",
    )
