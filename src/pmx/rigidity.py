"""Which Hermitian generators keep every valid process inside the allowed span.

An infinitesimal conjugation ``W -> W - i lam [H, W]`` preserves validity for
all valid ``W`` exactly when ``[H, T]`` stays inside the allowed span for
every allowed term ``T``, i.e. when ``Tr([H, T] F) = 0`` for every pair of an
allowed term ``T`` and a forbidden term ``F``.  By cyclicity this functional
is ``Tr(H [T, F])``: each constraint row is the coefficient vector of one
commutator of basis terms.  Commutators of Hermitian terms are
anti-Hermitian, so the rows are purely imaginary and the system is real
after dividing out ``i``.

The rows are built for all pairs at once, as whole arrays.  The trace of a
product of product terms is the product of per-factor traces, so row
``(T, F)`` at pattern ``u`` is ``prod_k Tr(s_u s_T s_F) - prod_k Tr(s_T s_u
s_F)`` over factors ``k``.  A table per factor dimension lists, for each
``(t, f)``, the few ``u`` where either trace is nonzero (exactly one for
qubits, at most three for qutrits); a pair's row is the Kronecker product of
its per-factor entries, so a build costs a few array operations per factor
rather than a dense row per pair.

The kernel of the stacked system, restricted to traceless Hermitian
operators, is computed by singular value decomposition after pruning
identically zero rows and deduplicating parallel ones (one ``np.unique``
over the rows' rounded, normalized entries).  For qubit factors each row
touches exactly one coefficient, so the deduplicated system stays small;
the code does not rely on that and handles wider rows too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse

from .hs_algebra import build_su_basis, from_coefficient_tensor
from .operator_core import SpaceLayout, real_kernel
from .process_space import ProcessMatrix, allowed_mask, project_valid_matrix, validate

__all__ = [
    "MAX_CONSTRAINT_PATTERNS",
    "ConstraintSystem",
    "RigidityReport",
    "build_constraints",
    "generator_kernel",
    "single_body_patterns",
    "verify_rigidity",
]

# pattern-pair count grows with the square of the term count; this caps the
# build at five qubit-sized factors
MAX_CONSTRAINT_PATTERNS = 1024

_ROW_PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class ConstraintSystem:
    """The linear system ``Tr(H [T, F]) = 0`` over traceless Hermitian H.

    ``rows`` stacks one real row per surviving (allowed, forbidden) pair in
    pattern-coefficient coordinates (identity pattern included as an always
    empty column); ``pairs[r]`` holds the indices of row ``r``'s terms into
    ``valid_terms`` and ``forbidden_terms``.  ``pair_count`` is the number
    of pairs before identically zero rows were dropped.
    """

    layout: SpaceLayout
    valid_terms: tuple[tuple[int, ...], ...]
    forbidden_terms: tuple[tuple[int, ...], ...]
    rows: scipy.sparse.csr_matrix
    pairs: np.ndarray
    pair_count: int


def _pattern_digits(qdims: tuple[int, ...]) -> np.ndarray:
    """Every pattern's per-factor indices, one row per flat index."""
    return np.stack(np.unravel_index(np.arange(math.prod(qdims)), qdims), axis=1)


@lru_cache(maxsize=None)
def _triple_trace_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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

    Zero rows are dropped; the surviving rows keep their pair bookkeeping.
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
    digits = _pattern_digits(qdims)
    valid_digits = digits[mask]
    forb_digits = digits[~mask]
    n_valid, n_forb = len(valid_digits), len(forb_digits)
    n_pairs = n_valid * n_forb

    # row(T, F)[u] = prod_k Tr(s_u s_T s_F) - prod_k Tr(s_T s_u s_F): the
    # Kronecker product over factors of each pair's nonzero entries, with
    # all pairs at once in T-major order
    cols = np.zeros((n_pairs, 1), dtype=np.int64)
    left = np.ones((n_pairs, 1), dtype=complex)
    right = np.ones((n_pairs, 1), dtype=complex)
    for k, (d, q) in enumerate(zip(layout.dims, qdims)):
        at = (valid_digits[:, k, None], forb_digits[None, :, k])
        u_tab, l_tab, r_tab = (
            tab[at].reshape(n_pairs, 1, tab.shape[-1]) for tab in _triple_trace_table(d)
        )
        width = cols.shape[1] * u_tab.shape[2]
        cols = (cols[:, :, None] * q + u_tab).reshape(n_pairs, width)
        left = (left[:, :, None] * l_tab).reshape(n_pairs, width)
        right = (right[:, :, None] * r_tab).reshape(n_pairs, width)
    values = (left - right).imag
    del left, right

    # padding slots hold exact zeros, so dropping zeros leaves each row's
    # columns ascending and unique
    kept = np.flatnonzero(np.abs(values).max(axis=1) > _ROW_PRUNE_TOL)
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


def _deduplicate_rows(rows: scipy.sparse.csr_matrix) -> np.ndarray:
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


def generator_kernel(
    system: ConstraintSystem, threshold: float = 1e-9
) -> np.ndarray:
    """Orthonormal basis of traceless Hermitian generators killing all rows.

    Returns an array of shape ``(kernel_dim, total_patterns)`` of real
    coefficient vectors over the product-term basis (identity coefficient
    fixed at zero).  Singular values at or below ``threshold`` times the
    largest one count as zero.
    """
    total = system.rows.shape[1]
    cols = np.arange(1, total)  # drop the identity pattern
    basis = real_kernel(_deduplicate_rows(system.rows)[:, cols], threshold)
    out = np.zeros((basis.shape[0], total))
    out[:, cols] = basis
    return out


def single_body_patterns(layout: SpaceLayout) -> list[tuple[int, ...]]:
    """Patterns local to one party side, in flat-index order.

    A party side is one party's joint inputs or its joint outputs; a pattern
    is local to it when it is nontrivial on some factor of that side and on
    no factor outside it.
    """
    qdims = tuple(d * d for d in layout.dims)
    digits = _pattern_digits(qdims)
    touched = digits != 0
    local = np.zeros(len(digits), dtype=bool)
    for side in (s for p in layout.parties for s in (p.inputs, p.outputs)):
        inside = np.zeros(len(qdims), dtype=bool)
        inside[list(side)] = True
        local |= touched[:, inside].any(axis=1) & ~touched[:, ~inside].any(axis=1)
    return list(map(tuple, digits[local].tolist()))


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of comparing the generator kernel with the single-body span."""

    kernel_dim: int
    single_body_dim: int
    kernel_in_span_residual: float
    span_in_kernel_residual: float
    conjugation_ok: bool
    tolerance: float

    @property
    def spans_match(self) -> bool:
        return (
            self.kernel_dim == self.single_body_dim
            and self.kernel_in_span_residual <= self.tolerance
            and self.span_in_kernel_residual <= self.tolerance
        )

    @property
    def passed(self) -> bool:
        return self.spans_match and self.conjugation_ok


def _sample_valid(rng: np.random.Generator, layout: SpaceLayout) -> ProcessMatrix:
    g = rng.standard_normal((layout.dim,) * 2) + 1j * rng.standard_normal(
        (layout.dim,) * 2
    )
    x = project_valid_matrix(g + g.conj().T, layout)
    lo = float(np.linalg.eigvalsh(x)[0])
    x = x + (abs(lo) + 0.1) * np.eye(layout.dim)
    return ProcessMatrix(layout, x * (layout.d_out / np.trace(x).real))


def _reference_processes(layout: SpaceLayout) -> list[ProcessMatrix]:
    from .process_space import (
        bipartite_qubit_layout,
        cj_of_unitary,
        memory_channel,
        shared_state,
        w_ocb,
    )

    rng = np.random.default_rng(1905)
    out = [
        ProcessMatrix(layout, np.eye(layout.dim) * (layout.d_out / layout.dim))
    ]
    if layout == bipartite_qubit_layout():
        out += [
            w_ocb(),
            shared_state(np.eye(4) / 4),
            memory_channel(np.eye(2) / 2, cj_of_unitary(np.eye(2))),
        ]
    else:
        out += [_sample_valid(rng, layout) for _ in range(3)]
    return out


def verify_rigidity(
    layout: SpaceLayout, tol: float = 1e-8, samples: int = 5, seed: int = 7
) -> RigidityReport:
    """Check that the generator kernel is exactly the single-body span.

    Compares dimensions and mutual projection residuals, then spot-checks
    that conjugating reference valid processes by ``exp(-i lam H)`` for
    random kernel elements ``H`` keeps them valid at ``lam in {0.3, 1.0}``.
    """
    system = build_constraints(layout)
    kernel = generator_kernel(system)
    qdims = tuple(d * d for d in layout.dims)
    sb = single_body_patterns(layout)
    sb_basis = np.zeros((len(sb), math.prod(qdims)))
    for k, pat in enumerate(sb):
        sb_basis[k, np.ravel_multi_index(pat, qdims)] = 1.0

    def span_residual(vectors, basis):
        if vectors.shape[0] == 0:
            return 0.0
        proj = vectors @ basis.T @ basis
        return float(np.linalg.norm(vectors - proj, axis=1).max())

    rng = np.random.default_rng(seed)
    processes = _reference_processes(layout)
    conj_ok = True
    for _ in range(samples):
        if kernel.shape[0] == 0:
            break
        coeff = rng.standard_normal(kernel.shape[0])
        h_coeffs = (coeff / np.linalg.norm(coeff)) @ kernel
        h = from_coefficient_tensor(h_coeffs.reshape(qdims), layout.dims)
        for lam in (0.3, 1.0):
            u = scipy.linalg.expm(-1j * lam * h)
            for w in processes:
                moved = ProcessMatrix(layout, u @ w.matrix @ u.conj().T)
                if not validate(moved).valid:
                    conj_ok = False

    return RigidityReport(
        kernel_dim=kernel.shape[0],
        single_body_dim=len(sb),
        kernel_in_span_residual=span_residual(kernel, sb_basis),
        span_in_kernel_residual=span_residual(sb_basis, kernel),
        conjugation_ok=conj_ok,
        tolerance=tol,
    )
