"""Term-level reference implementations the tests compare pmx against.

pmx works in one operator basis, the Weyl (clock-and-shift) basis of
:mod:`pmx.hs_algebra`, and decides every order-structure question by
partial traces.  This module keeps a second basis, the generalized Gell-Mann
basis with its real coefficient transforms, and the definitions the closed
forms reproduce, written over that basis: which product terms an operator
contains, and which of them a layout forbids.  They are computed the slow
and obvious way, so the tests can check pmx against them.

The same holds for the certificates.  The rigidity kernel is decided exactly
in the Weyl basis; here it is the SVD of the Gell-Mann constraint rows
``Tr(H [T, F]) = 0``.  pmx reads the ``SL(2, Z_d)`` orbits of one factor's
Weyl patterns as the classes of ``gcd(p, q, d)``; here they are found by a
search over the group's generators.  The support/valid-span intersection
and the D'Ariano independence rank are read from Grams of Weyl terms
compressed to the support; here they are the eigenvalue-1 count of the
averaged projector and the SVD rank of the stacked Gell-Mann coefficient
vectors.  A supermap holds its CJ only as a sum of terms; here it is
summed into one dense array (``dense_cj``), and the constant and
interpolation CJs are written out as one dense array directly.  The Born
table and the instrument reduction absorb a party's elements by one
contraction on the operator's factor axes; here they take the joint
Kronecker product of all parties' elements, and the
reordered operator with the element applied block by block.  pmx places a
block or a vector on named factors by label (``PaddedOperator``); here the block is
padded by a Kronecker product with the identity and its factors permuted
into place, and the reduction's CJ comes from its superoperator matrix.
pmx solves a dense term's positivity on its live block, the indices whose
row or column holds a nonzero entry; here every index is solved.  pmx
classifies a term by looking it up in the allowed-term mask; here the term
rule is a loop over the parties.  pmx counts a full-rank support's
intersection with the allowed span as the number of allowed patterns; here
it is read from the forbidden-term Gram at every rank.  pmx writes the CJ of
a unitary as the outer product of one vector; here it comes from the
superoperator matrix.  pmx writes a PMX file by formatting each distinct
entry once; here every entry is formatted on its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from pmx.cli import FORMAT_VERSION, PmxDocument, _factor_records
from pmx.operator_core import (
    DEFAULT_TOL,
    PaddedOperator,
    SpaceLayout,
    _as_dims,
    _check_square,
    is_hermitian,
    partial_trace,
    tensor,
)
from pmx.extremality import _party_factor_positions, _support, _term_spectrum
from pmx.hs_algebra import weyl_exponents
from pmx.process_space import (
    HierarchyLevel,
    Instrument,
    ProcessMatrix,
    TermClass,
    TermPattern,
    allowed_mask,
    validate,
)
from pmx.supermaps import Supermap


# ---------------------------------------------------------------------------
# the generalized Gell-Mann basis
# ---------------------------------------------------------------------------
#
# For each factor dimension ``d`` the basis contains ``d**2`` Hermitian
# matrices ``sigma_0, ..., sigma_{d**2 - 1}`` with ``sigma_0 = sqrt(2/d) 1``,
# ``sigma_a`` traceless for ``a >= 1`` and ``Tr(sigma_a sigma_b) = 2
# delta_ab``.  For ``d = 2`` the traceless elements are the Pauli matrices in
# the order ``x, y, z``.  A product term pattern ``(a_0, ..., a_{n-1})``
# picks one element per factor; any operator expands as ``M = sum_t c_t
# sigma_t`` with ``c_t = Tr(sigma_t M) / 2**n``, real iff ``M`` is Hermitian.


@dataclass(frozen=True)
class SuBasis:
    """Orthogonal Hermitian basis for one factor of dimension ``d``."""

    d: int
    elements: np.ndarray  # shape (d**2, d, d), read-only

    def __len__(self) -> int:
        return self.d**2


@lru_cache(maxsize=None)
def build_su_basis(d: int) -> SuBasis:
    """Generalized Gell-Mann basis of dimension ``d``, identity first.

    Ordering after ``sigma_0``: symmetric pair elements ``E_jk + E_kj`` for
    ``j < k`` in lexicographic order, then the matching antisymmetric elements
    ``-i (E_jk - E_kj)``, then the ``d - 1`` diagonal elements.  For ``d = 1``
    the basis is the single matrix ``[[sqrt(2)]]``.
    """
    if d < 1:
        raise ValueError(f"dimension {d} < 1")
    mats = [np.sqrt(2.0 / d) * np.eye(d, dtype=complex)]
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = 1.0
        m[k, j] = 1.0
        mats.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = -1.0j
        m[k, j] = 1.0j
        mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for mm in range(l):
            m[mm, mm] = 1.0
        m[l, l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
    elements = np.stack(mats)
    elements.setflags(write=False)
    return SuBasis(d, elements)


def term_stack(dims: "Sequence[int] | SpaceLayout") -> np.ndarray:
    """All product terms stacked as an array of shape ``(prod d_k^2, d, d)``.

    Patterns run in C order over ``(d_0^2, ..., d_{n-1}^2)``.  Intended for small
    layouts (the array holds ``prod d_k^4`` entries).
    """
    dims = _as_dims(dims)
    stack = build_su_basis(dims[0]).elements
    for d in dims[1:]:
        nxt = build_su_basis(d).elements
        q0, a, _ = stack.shape
        q1 = nxt.shape[0]
        stack = np.einsum("aij,bkl->abikjl", stack, nxt).reshape(
            q0 * q1, a * d, a * d
        )
    return stack


def from_coefficient_tensor(
    c: np.ndarray, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """The operator ``sum_t c_t sigma_t`` of a coefficient tensor.

    ``c`` has shape ``(d_0^2, ..., d_{n-1}^2)``, one axis per factor.
    """
    dims = _as_dims(dims)
    q = tuple(d * d for d in dims)
    if c.shape != q:
        raise ValueError(f"coefficient shape {c.shape} does not match {q}")
    n = len(dims)
    t = np.asarray(c, dtype=complex)
    for k, d in enumerate(dims):
        # axes: (r_0, c_0) .. (r_{k-1}, c_{k-1}), a_k..a_{n-1}
        t = np.tensordot(build_su_basis(d).elements, t, axes=([0], [2 * k]))
        t = np.moveaxis(t, [0, 1], [2 * k, 2 * k + 1])
    d = math.prod(dims)
    return t.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(d, d)


def batch_coefficient_tensors(
    ms: np.ndarray, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """Coefficient tensors of a stack of operators, shape ``(B, d_0^2, ...)``.

    Entry ``[b, a_0, ..., a_{n-1}]`` is ``Tr(sigma_t M_b) / 2**n`` for the
    product term ``t = (a_0, ..., a_{n-1})``.
    """
    dims = _as_dims(dims)
    d = math.prod(dims)
    if ms.ndim != 3 or ms.shape[1:] != (d, d):
        raise ValueError(f"stack shape {ms.shape} does not match dims {dims}")
    n = len(dims)
    t = np.asarray(ms, dtype=complex).reshape(ms.shape[:1] + dims + dims)
    for k, dk in enumerate(dims):
        # after k steps the axes are: batch, a_0..a_{k-1}, r_k..r_{n-1}, c_k..c_{n-1}
        t = np.tensordot(build_su_basis(dk).elements, t, axes=([2, 1], [1 + k, 1 + n]))
        t = np.moveaxis(t, 0, 1 + k)
    return t / (2.0**n)


# ---------------------------------------------------------------------------
# product-term coefficients
# ---------------------------------------------------------------------------


def enumerate_patterns(dims: "Sequence[int] | SpaceLayout") -> Iterator[TermPattern]:
    """All term patterns for the given factor dimensions, in C order."""
    dims = _as_dims(dims)
    return itertools.product(*(range(d * d) for d in dims))


def product_term(
    pattern: TermPattern, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """The product basis matrix ``sigma_{a_0} (x) ... (x) sigma_{a_{n-1}}``."""
    dims = _as_dims(dims)
    if len(pattern) != len(dims):
        raise ValueError(f"pattern length {len(pattern)} != {len(dims)} factors")
    mats = []
    for a, d in zip(pattern, dims):
        if not 0 <= a < d * d:
            raise ValueError(f"basis index {a} out of range for dimension {d}")
        mats.append(build_su_basis(d).elements[a])
    return tensor(*mats)


def coefficient_tensor(
    m: np.ndarray, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """Coefficient tensor ``Tr(sigma_t M) / 2**n``, shape ``(d_0^2, ...)``."""
    return batch_coefficient_tensors(np.asarray(m, dtype=complex)[None], dims)[0]


def batch_from_coefficient_tensors(
    cs: np.ndarray, dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """Inverse of ``batch_coefficient_tensors``."""
    return np.stack([from_coefficient_tensor(c, dims) for c in cs])


def hs_decompose(
    m: np.ndarray, dims: "Sequence[int] | SpaceLayout", threshold: float = 1e-12
) -> dict[TermPattern, float]:
    """Sparse real expansion: the coefficients with ``|c| > threshold``."""
    if not is_hermitian(m):
        raise ValueError("hs_decompose expects a Hermitian operator")
    c = coefficient_tensor(m, dims)
    return {
        tuple(int(i) for i in idx): float(c[tuple(idx)].real)
        for idx in np.argwhere(np.abs(c) > threshold)
    }



def hs_recompose(
    coeffs: Mapping[TermPattern, float], dims: "Sequence[int] | SpaceLayout"
) -> np.ndarray:
    """Operator with the given sparse coefficients; empty input gives zero."""
    dims = _as_dims(dims)
    c = np.zeros(tuple(d * d for d in dims), dtype=complex)
    for pattern, value in coeffs.items():
        if len(pattern) != len(dims):
            raise ValueError(f"pattern {pattern!r} has wrong length")
        c[tuple(pattern)] = value
    return from_coefficient_tensor(c, dims)


# ---------------------------------------------------------------------------
# structure constants of one factor basis
# ---------------------------------------------------------------------------


class StructureTensors(NamedTuple):
    """``f[m, n, r] = Tr([s_m, s_n] s_r) / 4i`` and ``dsym``, its
    anticommutator analogue ``Tr({s_m, s_n} s_r) / 4``; both zero whenever
    an index is 0."""

    f: np.ndarray
    dsym: np.ndarray


def structure_constants(d: int) -> StructureTensors:
    """Structure tensors of :func:`build_su_basis` at dimension ``d``."""
    sig = build_su_basis(d).elements
    prod = np.einsum("aij,bjk->abik", sig, sig)
    swapped = prod.transpose(1, 0, 2, 3)
    f = np.einsum("abij,cji->abc", prod - swapped, sig) / 4.0j
    dsym = np.einsum("abij,cji->abc", prod + swapped, sig) / 4.0
    for t in (f, dsym):
        t[0, :, :] = t[:, 0, :] = t[:, :, 0] = 0.0
    return StructureTensors(f.real, dsym.real)

# ---------------------------------------------------------------------------
# term masks
# ---------------------------------------------------------------------------


def _axis_flag(qdims: tuple[int, ...], k: int) -> np.ndarray:
    """True where a pattern is nontrivial on factor ``k``, broadcastable."""
    shape = [1] * len(qdims)
    shape[k] = qdims[k]
    return (np.arange(qdims[k]) > 0).reshape(shape)


def classify_term_reference(pattern: TermPattern, layout: SpaceLayout) -> TermClass:
    """The term rule pattern by pattern, as a loop over the parties.

    Forbidden iff the term is nontrivial on at least one output factor and
    every party the term touches is touched on that party's own output.
    """
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


def order_mask(layout: SpaceLayout, order: Sequence[str]) -> np.ndarray:
    """Patterns a process causally ordered as ``order`` may contain.

    A pattern is excluded when, for some party ``X_k``, it is trivial on
    every factor of the parties after ``X_k`` and nontrivial on an output
    of ``X_k``.
    """
    qdims = tuple(d * d for d in layout.dims)
    n = len(qdims)
    parties = [layout.party(name) for name in order]
    excluded = np.zeros((1,) * n, dtype=bool)
    for k, party in enumerate(parties):
        trivial_later = np.ones((1,) * n, dtype=bool)
        for q in parties[k + 1 :]:
            for f in q.inputs + q.outputs:
                trivial_later = trivial_later & ~_axis_flag(qdims, f)
        out_nontrivial = np.zeros((1,) * n, dtype=bool)
        for f in party.outputs:
            out_nontrivial = out_nontrivial | _axis_flag(qdims, f)
        excluded = excluded | (trivial_later & out_nontrivial)
    return ~np.broadcast_to(excluded, qdims)


def comb_order_by_support(
    w: ProcessMatrix, order: Sequence[str], threshold: float = 1e-12
) -> bool:
    """Whether every coefficient above threshold sits on an ordered pattern.

    The threshold is relative to the largest coefficient magnitude (at
    least 1).
    """
    c = coefficient_tensor(w.matrix, w.layout)
    support = np.abs(c) > threshold * max(1.0, float(np.max(np.abs(c))))
    return not np.any(support & ~order_mask(w.layout, order))


# ---------------------------------------------------------------------------
# the two-party closed form
# ---------------------------------------------------------------------------


def _depolarize(m: np.ndarray, layout: SpaceLayout, facs: Sequence[int]) -> np.ndarray:
    """Replace the listed factors with normalized identity."""
    return PaddedOperator.of_matrix(m, layout).depolarized(facs).dense()


def project_valid_closed_form(m: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Two-party closed form of the valid-subspace projector.

    Writing ``_X W`` for the depolarize-factors operation on factor set X,
    the projector is

        _AO W + _BO W - _AIAO W - _BIBO W - _AOBO W + _AOBIBO W + _BOAIAO W

    with A, B the layout's two parties.
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


# ---------------------------------------------------------------------------
# dense supermap CJs
# ---------------------------------------------------------------------------


def block_diagonal(block: np.ndarray, copies: int) -> np.ndarray:
    """``1_copies (x) block``, written block by block into one zeroed array."""
    d = block.shape[0]
    out = np.zeros((copies * d, copies * d), dtype=complex)
    for i in range(0, copies * d, d):
        out[i : i + d, i : i + d] = block
    return out


def dense_cj(s: Supermap) -> np.ndarray:
    """A supermap's CJ as one dense array: the sum of its terms' ``dense()``."""
    return sum(t.dense() for t in s._terms)


def dense_constant_cj(w_tilde: ProcessMatrix, in_layout: SpaceLayout) -> np.ndarray:
    """``1_in (x) w_tilde / d_in'`` as one dense array."""
    return block_diagonal(w_tilde.matrix / in_layout.d_out, in_layout.dim)


def dense_interpolation_cj(w_tilde: ProcessMatrix, p: float) -> np.ndarray:
    """``(1 - p)|1>><<1| + p (1 (x) w_tilde / d')`` as one dense array."""
    layout = w_tilde.layout
    d = layout.dim
    cj = block_diagonal(p * w_tilde.matrix / layout.d_out, d)
    # |1>> = sum_i |ii> sits at the flat indices i (d + 1)
    cj[:: d + 1, :: d + 1] += 1.0 - p
    return cj


# ---------------------------------------------------------------------------
# probabilities and reductions by reordered, embedded operators
# ---------------------------------------------------------------------------


def kron_born_probabilities(
    w: ProcessMatrix, instruments: Sequence[Instrument]
) -> np.ndarray:
    """Born table from one full Kronecker product per outcome combination.

    ``W`` is reordered party by party (each party's inputs, then its
    outputs), and entry ``[i, j, ...]`` is ``Tr(W (C_i (x) C_j (x) ...))``.
    """
    layout = w.layout
    by_name = {inst.party: inst for inst in instruments}
    ordered = [by_name[p.name] for p in layout.parties]
    grouped = [f for p in layout.parties for f in p.inputs + p.outputs]
    w_grouped = permute_factors(w.matrix, layout, grouped)
    shape = tuple(len(inst.elements) for inst in ordered)
    table = np.empty(shape, dtype=float)
    for combo in itertools.product(*(range(s) for s in shape)):
        big = tensor(*(inst.elements[i] for inst, i in zip(ordered, combo)))
        table[combo] = float(np.sum(w_grouped * big.T).real)
    return table


def permuted_reduction(
    w: np.ndarray, layout: SpaceLayout, party: str, element_cj: np.ndarray
) -> np.ndarray:
    """``Tr_X((1 (x) C_M) W)`` with ``W`` reordered to (kept..., party...).

    ``1 (x) C_M`` is applied one diagonal block at a time, then the party's
    factors are traced out; the kept factors stay in layout order.
    """
    p = layout.party(party)
    x_facs = list(p.inputs) + list(p.outputs)
    keep = [k for k in range(layout.n_factors) if k not in x_facs]
    perm = keep + x_facs
    dims_p = [layout.dims[k] for k in perm]
    d_x = math.prod(layout.dims[k] for k in x_facs)
    d_rest = layout.dim // d_x
    wp = permute_factors(w, layout, perm)
    dim = layout.dim
    return partial_trace(
        (element_cj @ wp.reshape(d_rest, d_x, dim)).reshape(dim, dim),
        dims_p,
        range(len(keep), len(dims_p)),
    )


# ---------------------------------------------------------------------------
# blocks placed by Kronecker products and factor permutations
# ---------------------------------------------------------------------------


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


def cj_of_map(smat: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """CJ operator of a linear map given as a superoperator matrix.

    ``smat`` has shape ``(d_out**2, d_in**2)`` and acts on row-major
    vectorized operators: ``vec(N(X)) = smat @ vec(X)``.  The superoperator
    of ``X -> U X U^dag`` is ``np.kron(U, U.conj())``.
    """
    smat = np.asarray(smat, dtype=complex)
    if smat.shape != (d_out * d_out, d_in * d_in):
        raise ValueError(
            f"superoperator shape {smat.shape}, expected {(d_out**2, d_in**2)}"
        )
    s4 = smat.reshape(d_out, d_out, d_in, d_in)
    return s4.transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out)


def kron_padded(
    core: np.ndarray, facs: Sequence[int], layout: SpaceLayout
) -> np.ndarray:
    """``core (x) 1`` on (``facs``, the rest), permuted into layout order."""
    rest = [k for k in range(layout.n_factors) if k not in facs]
    big = np.kron(core, np.eye(math.prod(layout.dims[k] for k in rest)))
    current = list(facs) + rest
    perm = [current.index(j) for j in range(layout.n_factors)]
    return permute_factors(big, [layout.dims[k] for k in current], perm)


def kron_memory_channel(
    rho: np.ndarray, channel_cj: np.ndarray, direction: str, layout: SpaceLayout
) -> np.ndarray:
    """State at the first party's input, channel CJ to the second party.

    Each direction builds its core on its own factor order, permutes it to
    (A inputs, B inputs, the first party's outputs) and pads the rest.
    """
    a, b = layout.parties
    da_i, da_o, db_i, db_o = (
        math.prod(layout.dims[k] for k in facs)
        for facs in (a.inputs, a.outputs, b.inputs, b.outputs)
    )
    if direction == "a_to_b":
        # core on (A_I, A_O, B_I) -> reorder to (A_I, B_I, A_O)
        core = tensor(rho, channel_cj)
        core = permute_factors(core, [da_i, da_o, db_i], [0, 2, 1])
        facs = a.inputs + b.inputs + a.outputs
    else:
        # core on (B_O, A_I, B_I) -> reorder to (A_I, B_I, B_O)
        core = tensor(channel_cj, rho)
        core = permute_factors(core, [db_o, da_i, db_i], [1, 2, 0])
        facs = a.inputs + b.inputs + b.outputs
    return kron_padded(core, facs, layout)


def superoperator_reduction_cj(
    layout: SpaceLayout, party: str, element_cj: np.ndarray
) -> np.ndarray:
    """CJ of ``W -> Tr_X((1 (x) C_M) W)`` from its superoperator matrix.

    The superoperator acts on ``W`` reordered to (kept..., party...); its CJ
    is built by ``cj_of_map`` and its input side permuted back to layout
    order.
    """
    p = layout.party(party)
    x_facs = list(p.inputs) + list(p.outputs)
    keep = [k for k in range(layout.n_factors) if k not in x_facs]
    d_x = math.prod(layout.dims[k] for k in x_facs)
    d_rest = layout.dim // d_x
    # S[(K, L), ((r, e), (r', e'))] = G[(K, e'), (r, e)] delta_{r' L}
    g4 = np.kron(np.eye(d_rest), element_cj).reshape(d_rest, d_x, d_rest, d_x)
    s6 = np.einsum("kprq,sl->klrqsp", g4, np.eye(d_rest))
    smat = s6.reshape(d_rest * d_rest, (d_rest * d_x) ** 2)
    cj_p = cj_of_map(smat, d_rest * d_x, d_rest)
    perm = keep + x_facs
    joint_dims = [layout.dims[k] for k in perm] + [layout.dims[k] for k in keep]
    joint_perm = [perm.index(j) for j in range(len(perm))] + [
        len(perm) + k for k in range(len(keep))
    ]
    return permute_factors(cj_p, joint_dims, joint_perm)


# ---------------------------------------------------------------------------
# the lowest eigenvalue of the whole matrix
# ---------------------------------------------------------------------------


def full_lowest_eigenvalue(m: np.ndarray) -> float:
    """Lowest eigenvalue of a dense Hermitian matrix, every index solved.

    No zero row or column is dropped first.  LAPACK up to 1024 x 1024, the
    solve pmx makes of a live block, so a matrix with every index live
    matches pmx bit for bit; above that ARPACK from a fixed start, a method
    independent of pmx's LAPACK solve.
    """
    if m.shape[0] <= 1024:
        return float(np.linalg.eigvalsh(m)[0])
    v0 = np.random.default_rng(0).standard_normal(m.shape[0])
    try:
        w = scipy.sparse.linalg.eigsh(
            m, k=1, which="SA", tol=1e-10, maxiter=10_000, v0=v0,
            return_eigenvectors=False,
        )
        return float(w[0])
    except scipy.sparse.linalg.ArpackError:
        return float(np.linalg.eigvalsh(m)[0])


# ---------------------------------------------------------------------------
# the rigidity constraint system and its SVD kernel
# ---------------------------------------------------------------------------

# pattern-pair count grows with the square of the term count; this caps the
# build at five qubit-sized factors
MAX_CONSTRAINT_PATTERNS = 1024

ROW_PRUNE_TOL = 1e-12


def kept_rows(values: np.ndarray) -> np.ndarray:
    """Indices of the rows whose largest magnitude exceeds ``ROW_PRUNE_TOL``."""
    return np.flatnonzero(np.abs(values).max(axis=1) > ROW_PRUNE_TOL)


@dataclass(frozen=True)
class ConstraintSystem:
    """The linear system ``Tr(H [T, F]) = 0`` over traceless Hermitian H.

    ``rows`` stacks one real row per surviving (allowed, forbidden) pair in
    Gell-Mann pattern-coefficient coordinates (identity pattern included as
    an always empty column); ``pairs[r]`` holds the indices of row ``r``'s
    terms into ``valid_terms`` and ``forbidden_terms``.  ``pair_count`` is
    the number of pairs before identically zero rows were dropped.
    """

    layout: SpaceLayout
    valid_terms: tuple[tuple[int, ...], ...]
    forbidden_terms: tuple[tuple[int, ...], ...]
    rows: scipy.sparse.csr_matrix
    pairs: np.ndarray
    pair_count: int


@lru_cache(maxsize=None)
def triple_trace_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse ``Tr(s_u s_t s_f)`` and ``Tr(s_t s_u s_f)`` for one factor dim.

    Returns ``(u, left, right)``, each of shape ``(q, q, w)`` indexed by
    ``(t, f, slot)``: the ascending ``u`` values where either trace is
    nonzero, then the two traces there.  Entries are padded to the widest
    ``(t, f)`` with ``u = 0`` and zero traces (``w = 1`` for qubits).
    """
    s = build_su_basis(d).elements
    m = np.einsum("aij,bjk,cki->abc", s, s, s)
    left = m.transpose(1, 2, 0)  # [t, f, u] = Tr(s_u s_t s_f)
    right = m.transpose(0, 2, 1)  # [t, f, u] = Tr(s_t s_u s_f)
    hit = (left != 0) | (right != 0)
    width = max(int(hit.sum(axis=-1).max()), 1)
    # a stable sort puts each (t, f)'s hits first, in ascending u
    u = np.argsort(~hit, axis=-1, kind="stable")[..., :width]
    real = np.take_along_axis(hit, u, axis=-1)
    return (
        np.where(real, u, 0),
        np.where(real, np.take_along_axis(left, u, axis=-1), 0),
        np.where(real, np.take_along_axis(right, u, axis=-1), 0),
    )


def build_constraints(layout: SpaceLayout) -> ConstraintSystem:
    """Rows ``H -> Tr([H, T] F)`` for all allowed ``T``, forbidden ``F``.

    Row ``(T, F)`` at Gell-Mann pattern ``u`` is ``prod_k Tr(s_u s_T s_F) -
    prod_k Tr(s_T s_u s_F)``: the Kronecker product over factors of each
    pair's nonzero table entries, built for all pairs at once in T-major
    order.  Zero rows are dropped; the surviving rows keep their pair
    bookkeeping.
    """
    qdims = tuple(d * d for d in layout.dims)
    total = math.prod(qdims)
    if total > MAX_CONSTRAINT_PATTERNS:
        raise ValueError(
            f"layout has {total} basis patterns, giving {total * total} "
            f"constraint pairs; build_constraints caps the pattern count at "
            f"{MAX_CONSTRAINT_PATTERNS}"
        )
    mask = allowed_mask(layout).reshape(-1)
    digits = np.stack(np.unravel_index(np.arange(total), qdims), axis=1)
    valid_digits = digits[mask]
    forb_digits = digits[~mask]
    n_valid, n_forb = len(valid_digits), len(forb_digits)
    n_pairs = n_valid * n_forb

    cols = np.zeros((n_pairs, 1), dtype=np.int64)
    left = np.ones((n_pairs, 1), dtype=complex)
    right = np.ones((n_pairs, 1), dtype=complex)
    for k, (d, q) in enumerate(zip(layout.dims, qdims)):
        at = (valid_digits[:, k, None], forb_digits[None, :, k])
        u_tab, l_tab, r_tab = (
            tab[at].reshape(n_pairs, 1, tab.shape[-1]) for tab in triple_trace_table(d)
        )
        width = cols.shape[1] * u_tab.shape[2]
        cols = (cols[:, :, None] * q + u_tab).reshape(n_pairs, width)
        left = (left[:, :, None] * l_tab).reshape(n_pairs, width)
        right = (right[:, :, None] * r_tab).reshape(n_pairs, width)
    values = (left - right).imag
    del left, right

    # padding slots hold exact zeros, so dropping zeros leaves each row's
    # columns ascending and unique
    kept = kept_rows(values)
    values = values[kept]
    nonzero = values != 0
    indptr = np.zeros(kept.size + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    rows = scipy.sparse.csr_matrix(
        (values[nonzero], cols[kept][nonzero].astype(np.int32), indptr),
        shape=(kept.size, total),
    )
    pairs = np.stack(np.divmod(kept, max(n_forb, 1)), axis=1)
    return ConstraintSystem(
        layout,
        tuple(map(tuple, valid_digits.tolist())),
        tuple(map(tuple, forb_digits.tolist())),
        rows,
        pairs,
        n_pairs,
    )


def deduplicate_rows(rows: scipy.sparse.csr_matrix) -> np.ndarray:
    """Keep one representative per direction; parallel rows are redundant.

    Each row is scaled by its first largest-magnitude entry; rows whose
    columns and scaled values rounded to 10 digits agree are parallel, and
    the first of them is kept, in row order.
    """
    n_rows, n_cols = rows.shape
    if n_rows == 0:
        return np.zeros((0, n_cols))
    lengths = np.diff(rows.indptr)
    width = int(lengths.max())
    slot = np.arange(width) < lengths[:, None]
    cols = np.full((n_rows, width), -1, dtype=np.int64)
    cols[slot] = rows.indices
    data = np.zeros((n_rows, width))
    data[slot] = rows.data
    lead = data[np.arange(n_rows), np.argmax(np.where(slot, np.abs(data), -1.0), axis=1)]
    scaled = data / np.where(lead == 0, 1.0, lead)[:, None]
    # + 0.0 folds -0.0 into 0.0, which compare equal as dictionary keys did
    key = np.concatenate([cols, np.round(scaled, 10) + 0.0], axis=1)
    _, first = np.unique(key, axis=0, return_index=True)
    keep = np.sort(first)
    out = np.zeros((keep.size, n_cols))
    kept_slot = slot[keep]
    out[np.nonzero(kept_slot)[0], cols[keep][kept_slot]] = scaled[keep][kept_slot]
    return out


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


def svd_generator_kernel(
    system: ConstraintSystem, threshold: float = 1e-9
) -> np.ndarray:
    """Orthonormal basis of traceless Hermitian generators killing all rows.

    Returns an array of shape ``(kernel_dim, total_patterns)`` of real
    Gell-Mann coefficient vectors (identity coefficient fixed at zero).
    Singular values at or below ``threshold`` times the largest one count as
    zero.
    """
    total = system.rows.shape[1]
    cols = np.arange(1, total)  # drop the identity pattern
    basis = real_kernel(deduplicate_rows(system.rows)[:, cols], threshold)
    out = np.zeros((basis.shape[0], total))
    out[:, cols] = basis
    return out


def orbit_labels(d: int) -> np.ndarray:
    """Each per-factor Weyl pattern's orbit under ``SL(2, Z_d)``, as its least index.

    The orbits are the components of the graph that joins ``(p, q)`` to its
    images under the generators ``[[1, 1], [0, 1]]`` and ``[[1, 0], [1, 1]]``;
    each generator has finite order, so following edges forward reaches the
    whole orbit.
    """
    e = weyl_exponents(d)
    index = np.zeros((d, d), dtype=np.int64)
    index[e[:, 0], e[:, 1]] = np.arange(d * d)
    p, q = e.T
    images = (index[(p + q) % d, q], index[p, (p + q) % d])
    label = np.arange(d * d)
    while True:
        new = np.minimum.reduce([label, *(label[i] for i in images)])
        if np.array_equal(new, label):
            return label
        label = new


# ---------------------------------------------------------------------------
# extremality in Gell-Mann coefficient vectors
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class SubspacePair:
    """Projectors onto ``L(supp W)`` and the allowed span, as real matrices.

    Both act on coefficient vectors over the product-term basis.  ``dims``
    holds their ranks ``(dim T, dim V)``.
    """

    p_t: np.ndarray
    p_v: np.ndarray
    dims: tuple[int, int]


def subspace_pair(w: ProcessMatrix) -> SubspacePair:
    """Materialize both projectors on the vectorized operator space."""
    layout = w.layout
    pi = _support(w)[0]
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


def order_pattern_mask(layout: SpaceLayout, direction: str = "a_to_b") -> np.ndarray:
    """Flat mask of the order patterns ``D`` of :func:`pmx.extremality.dariano_test`.

    Every pattern nontrivial on the later party's input, and every pattern
    nontrivial on the earlier party's input and on no factor outside the
    earlier party, enumerated pattern by pattern.
    """
    first, second = (p.name for p in layout.parties)
    if direction == "b_to_a":
        first, second = second, first
    f_in, f_out = _party_factor_positions(layout, first)
    s_in, s_out = _party_factor_positions(layout, second)
    qdims = tuple(d * d for d in layout.dims)
    mask = np.zeros(math.prod(qdims), dtype=bool)
    for pat in np.ndindex(*qdims):
        later = pat[s_in] >= 1
        earlier = (
            pat[f_in] >= 1
            and pat[s_in] == 0
            and pat[s_out] == 0
            and all(pat[k] == 0 for k in range(len(qdims)) if k not in (f_in, f_out))
        )
        mask[np.ravel_multi_index(pat, qdims)] = later or earlier
    return mask


def svd_dariano_rank(w: ProcessMatrix, direction: str = "a_to_b") -> tuple[int, int]:
    """Numerical rank and row count of the stacked vectors of ``C ⊔ D``.

    ``C`` holds the coefficient vectors of the support operators and ``D``
    the indicator vectors of the order patterns (:func:`order_pattern_mask`).
    Singular values at most ``1e-9`` times the largest count as zero.
    """
    mask = order_pattern_mask(w.layout, direction)
    d_rows = np.eye(mask.size)[mask]
    c_rows = _coefficient_rows(_support_operator_basis(_support(w)[0]), w.layout)
    stacked = np.vstack([c_rows, d_rows])
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals > 1e-9 * svals[0])), stacked.shape[0]


# ---------------------------------------------------------------------------
# the support/valid-span intersection by the averaged projector
# ---------------------------------------------------------------------------


def averaged_projector_intersection_dim(w: ProcessMatrix, tol: float = 1e-8) -> int:
    """Dimension of ``L(supp W)`` intersected with the allowed span.

    Counts the eigenvalue-1 eigenspace of the averaged projector
    ``(P_T + P_V)/2`` within ``|lambda - 1| <= tol``, taken on the
    compression to ``T``, which carries the full eigenspace.
    """
    if not validate(w).valid:
        raise ValueError("support_intersection_dim needs a valid process")
    rows = _coefficient_rows(
        _support_operator_basis(_support(w)[0]), w.layout
    )
    masked = rows[:, allowed_mask(w.layout).reshape(-1)]
    avg = (np.eye(rows.shape[0]) + masked @ masked.T) / 2
    vals = np.linalg.eigvalsh(avg)
    return int(np.sum(np.abs(vals - 1.0) <= tol))


def gram_intersection(w: ProcessMatrix, tol: float = 1e-8) -> tuple[int, int, float]:
    """Intersection dimension, support rank and margin from the Gram at any rank.

    The forbidden-term Gram of :func:`pmx.extremality._term_spectrum` is
    formed and diagonalized even when the support is the whole space, where
    pmx counts the allowed patterns instead.
    """
    if not validate(w).valid:
        raise ValueError("support_intersection_dim needs a valid process")
    vecs = _support(w)[0]
    r = vecs.shape[1]
    layout = w.layout
    mu = _term_spectrum(vecs, layout.dims, ~allowed_mask(layout).reshape(-1))
    above = mu[mu > 2 * tol]
    margin = float(above.min() - 2 * tol) if above.size else math.inf
    return r * r - above.size, r, margin


# ---------------------------------------------------------------------------
# the PMX document entry by entry
# ---------------------------------------------------------------------------


def pmx_document(w: ProcessMatrix) -> PmxDocument:
    """The PMX document of ``w``, formatting every entry on its own."""
    flat = w.matrix.reshape(-1)
    entries = list(
        map(list, zip(map(repr, flat.real.tolist()), map(repr, flat.imag.tolist())))
    )
    matrix = {"dim": w.layout.dim, "entries": entries}
    return PmxDocument(FORMAT_VERSION, _factor_records(w.layout), matrix)
