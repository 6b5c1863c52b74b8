"""Extremality tests for process matrices and the non-reachability chain.

Two independent criteria.  The support-intersection test works for any
valid process: ``W`` is extremal exactly when the operators that are both
supported on ``supp(W)`` and inside the allowed span form a line, i.e. the
intersection of the two subspaces is one dimensional.  The second is a
linear-independence criterion for causally ordered processes: ``W`` with
signalling only from the first party to the second is extremal iff a
Hermitian basis of ``L(supp(W))`` stays linearly independent after
adjoining a fixed list of product terms attached to the causal order.

Both are read from one Gram.  With ``V`` the support vectors and ``W_p``
the Weyl terms of :mod:`pmx.hs_algebra`, compress each term of a pattern set
to the support, ``A_p = V^dag W_p V``, and take the Gram of the ``A_p``.  Its
eigenvalues are the squared cosines of the principal angles between the
operators on ``supp(W)`` and the span of those terms.  Over the forbidden
patterns, the eigenvalues above a threshold count the support operators that
leave the allowed span; over the order patterns ``D``, the eigenvalues at 1
count the support operators inside ``span(D)``.  Every ``A_p`` comes from
one Weyl transform of the ``r**2`` support operators ``|v_i><v_j|``,
applied factor by factor (:func:`pmx.hs_algebra.compressed_terms`); its
working array has ``dim**2 r**2`` entries, where applying the terms one
pattern at a time would hold ``|patterns| dim r``.  A boolean mask over the
patterns picks the rows.  Each Gram is taken on its smaller side, so its
cost follows ``min(|patterns|, rank(W)**2)``.

Two ranks need no Gram for the intersection count.  At full rank ``V`` is
unitary, so the ``A_p`` are orthonormal like the ``W_p`` and the
forbidden-term Gram is the identity: every support operator outside the
allowed span is counted with eigenvalue exactly 1, and the intersection is
the allowed span itself, whose dimension is the number of allowed patterns.
At rank one ``T`` is spanned by ``W`` itself, which lies in ``V``, so the
intersection is ``T`` and its dimension is 1.  The 1 x 1 Gram agrees: its
entry is ``||Q(W)||_2^2 / Tr(W)^2``, the squared Hilbert-Schmidt norm of the
forbidden part of ``W / Tr W``.  ``validate`` bounds ``max|Q(W)|`` by
``1e-9 max(1, max|W|)``, and ``max|W| <= Tr W = d_out >= 1`` for a rank-one
``W``, so the entry is at most ``dim**2 1e-18``, below the cut
``2 INTERSECTION_TOL`` for every ``dim`` up to about ``1.4e5``.  Whether
``W`` has full rank (or rank one) is still a threshold decision
(``SUPPORT_TOL``), and its distance from that threshold is reported as the
certificate's ``support_margin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hs_algebra import compressed_terms, touched_mask
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
    "dariano_test",
    "is_extremal",
    "non_reachability_report",
    "support_intersection_dim",
]

SUPPORT_TOL = 1e-9
INTERSECTION_TOL = 1e-8  # forbidden-term Gram eigenvalues above twice this count
DARIANO_TOL = 1e-9  # D-term Gram eigenvalues within this of 1 count


def _support(w: ProcessMatrix) -> tuple[np.ndarray, float]:
    """Support vectors, and the distance of the nearest eigenvalue from the cut.

    An eigenvalue belongs to the support when it exceeds ``SUPPORT_TOL``
    times the largest one; the distance is ``min_i |lambda_i - cut|``.  A
    process held by its vector ``v`` has the eigenvalues ``|v|^2`` (on
    ``v / |v|``) and 0, so it needs no eigensolve: the support is
    ``v / |v|`` and the distance is the cut ``SUPPORT_TOL |v|^2`` itself.
    """
    v = w.vector
    if v is None:
        vals, vecs = np.linalg.eigh(w.matrix)
        cut = SUPPORT_TOL * max(vals.max(), 0.0)
        return vecs[:, vals > cut], float(np.abs(vals - cut).min())
    top = float(np.vdot(v, v).real)
    if top == 0.0:
        return np.zeros((w.dim, 0), dtype=complex), 0.0
    cut = SUPPORT_TOL * top
    return (v / math.sqrt(top)).reshape(-1, 1), cut if w.dim > 1 else top - cut


def _term_spectrum(
    vecs: np.ndarray, dims: tuple[int, ...], mask: np.ndarray
) -> np.ndarray:
    """Eigenvalues of the Gram of ``A_p = V^dag W_p V`` over ``mask``.

    ``V`` holds the support vectors as columns and ``mask`` flags patterns
    by flat index.  The Gram is normalized by the space dimension, so its
    eigenvalues lie in ``[0, 1]``.  Every ``A_p`` comes from one Weyl
    transform of the support operators
    (:func:`pmx.hs_algebra.compressed_terms`), whose working array has
    ``dim**2 r**2`` entries (applying the terms one pattern at a time would
    hold ``|patterns| dim r``); ``mask`` then selects the rows ``M``.  The
    Gram is taken as ``M M^dag`` when ``M`` has no more rows than
    ``rank**2`` and ``M^dag M`` otherwise; both have the same nonzero
    eigenvalues.
    """
    dim = math.prod(dims)
    r = vecs.shape[1]
    m = compressed_terms(vecs, dims)[mask]
    gram = m @ m.conj().T if len(m) <= r * r else m.conj().T @ m
    return np.linalg.eigvalsh(gram / dim)


def _intersection(w: ProcessMatrix) -> tuple[int, int, float, float]:
    """Intersection dimension, support rank, the count's margin and the rank's."""
    if not validate(w).valid:
        raise ValueError("the support intersection needs a valid process")
    vecs, support_margin = _support(w)
    r = vecs.shape[1]
    layout = w.layout
    forbidden = ~allowed_mask(layout).reshape(-1)
    if r == layout.dim:
        # the forbidden-term Gram is the identity (see the module docstring)
        mu = np.ones(int(forbidden.sum()))
    elif r == 1:
        # W spans T and lies in V (see the module docstring)
        mu = np.zeros(0)
    else:
        mu = _term_spectrum(vecs, layout.dims, forbidden)
    cut = 2 * INTERSECTION_TOL
    above = mu[mu > cut]
    margin = float(above.min() - cut) if above.size else math.inf
    return r * r - above.size, r, margin, support_margin


def support_intersection_dim(w: ProcessMatrix) -> int:
    """Dimension of ``T`` intersected with ``V`` for a valid process ``W``.

    ``T`` is the ``r**2``-dimensional space of Hermitian operators on
    ``supp(W)``; ``T`` meets ``V`` in the kernel of ``R_F``, the map to the
    forbidden coefficients.  So the dimension is ``r**2`` minus the number
    of eigenvalues of the forbidden-term Gram ``R_F R_F^dag`` (see
    ``_term_spectrum``) above ``2 INTERSECTION_TOL``.  This is the
    decision ``|lambda - 1| <= INTERSECTION_TOL`` on the averaged projector
    ``(P_T + P_V)/2`` compressed to ``T``, whose eigenvalues are
    ``1 - mu/2``.  At full rank ``T`` holds every operator, the Gram is the
    identity and the dimension is the number of allowed patterns, read from
    the layout with no Gram; at rank one it is 1, also with no Gram (see
    the module docstring for the bound under which this agrees with it).
    """
    return _intersection(w)[0]


@dataclass(frozen=True)
class ExtremalityCertificate:
    """Verdict plus the intersection dimension that produced it.

    ``tolerance`` is ``INTERSECTION_TOL``, and ``margin`` is the distance
    from the threshold ``2 INTERSECTION_TOL`` up to the nearest eigenvalue
    of the forbidden-term Gram that the intersection count left out
    (``inf`` when every eigenvalue is counted): how far a larger tolerance
    would have to move before the count grows.  At full
    rank every left-out eigenvalue is exactly 1, so it is
    ``1 - 2 INTERSECTION_TOL``; at rank one none is left out, so it is
    ``inf``.

    ``support_margin`` is the same for the support rank: the distance of
    the nearest eigenvalue of ``W`` from the cut ``SUPPORT_TOL`` times the
    largest, ``min_i |lambda_i - SUPPORT_TOL lambda_max|``.  It is how far
    an eigenvalue would have to move to enter or leave the support, which
    at full rank is all that decides the intersection count.
    """

    extremal: bool
    intersection_dim: int
    support_rank: int
    tolerance: float
    margin: float
    support_margin: float

    def __bool__(self) -> bool:
        return self.extremal


def is_extremal(w: ProcessMatrix) -> ExtremalityCertificate:
    """A valid process is extremal iff the intersection is one dimensional."""
    dim, rank, margin, support_margin = _intersection(w)
    return ExtremalityCertificate(
        dim == 1, dim, rank, INTERSECTION_TOL, margin, support_margin
    )


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
    whether the ``r**2`` support operators ``C`` and the terms of ``D`` are
    linearly independent.  Both sets are orthonormal, so the rank of
    ``C ⊔ D`` is ``r**2 + |D|`` minus the dimension of their intersection,
    which is the number of eigenvalues of the D-term Gram (see
    ``_term_spectrum``) within ``DARIANO_TOL`` of 1.  The certificate is the count
    itself: when ``r**2 + |D|`` exceeds the operator space dimension the
    sets cannot be independent.
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
    s_in, _ = _party_factor_positions(layout, second)
    qdims = tuple(d * d for d in layout.dims)
    elsewhere = [k for k in range(len(qdims)) if k not in (f_in, f_out)]
    in_d = touched_mask(qdims, [s_in]) | (
        touched_mask(qdims, [f_in]) & ~touched_mask(qdims, elsewhere)
    )
    in_d = np.broadcast_to(in_d, qdims).reshape(-1)

    vecs, _ = _support(w)
    support_card = vecs.shape[1] ** 2
    order_card = int(in_d.sum())
    nu = _term_spectrum(vecs, layout.dims, in_d)
    total = support_card + order_card
    rank = total - int(np.sum(np.abs(nu - 1.0) <= DARIANO_TOL))
    return DarianoReport(
        independent=rank == total,
        support_card=support_card,
        order_card=order_card,
        total=total,
        rank=rank,
        space_dim=in_d.size,
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


@lru_cache(maxsize=None)
def non_reachability_report() -> ReachabilityReport:
    """Assemble the argument on concrete rank-8 witnesses.

    The chain is computed on the first call and the same report is returned
    on every later one.  Sharing it is safe: the function takes no input, so
    its result is a constant, and the report and its two ``DarianoReport``
    are frozen dataclasses of ints, bools and strs.  Nothing is computed at
    import.  ``non_reachability_report.__wrapped__()`` recomputes the chain
    without touching the cache; ``non_reachability_report.cache_clear()``
    makes the next call recompute it.
    """
    w = w_ocb()
    cert = is_extremal(w)
    mixed_cj = (cj_of_unitary(np.eye(2)) + cj_of_unitary(np.array([[0, 1], [1, 0]]))) / 2
    reports = {}
    for direction in ("a_to_b", "b_to_a"):
        witness = memory_channel(np.eye(2) / 2, mixed_cj, direction)
        reports[direction] = dariano_test(witness, direction)
        # the support operators number rank**2
        if reports[direction].support_card != 64:
            raise RuntimeError("rank-8 witness construction failed")
    return ReachabilityReport(
        rank=cert.support_rank,
        extremal=cert.extremal,
        intersection_dim=cert.intersection_dim,
        a_to_b=reports["a_to_b"],
        b_to_a=reports["b_to_a"],
        space_dim=w.layout.dim**2,
        verdict="no causally ordered rank-8 extremal bipartite-qubit process exists",
    )
