"""Which Hermitian generators keep every valid process inside the allowed span.

An infinitesimal conjugation ``W -> W - i lam [H, W]`` preserves validity for
all valid ``W`` exactly when ``[H, T]`` stays inside the allowed span for
every allowed term ``T``, i.e. when ``Tr(H [T, F]) = 0`` for every allowed
``T`` and forbidden ``F``.  Whether a product term is allowed depends only on
which factors it touches, so any product operator basis with the identity
first spans the same allowed and forbidden subspaces.

The finite flows need nothing more.  By cyclicity
``Tr(H [T, F]) = Tr([H, T] F)``, and the forbidden terms span the
orthogonal complement of the allowed span ``V``, so a kernel ``H`` has
``[H, T]`` in ``V`` for every allowed ``T``: ``ad_H = [H, .]`` maps ``V``
into itself, hence so does every power of it and the series
``exp(-i lam ad_H)``, which is conjugation by ``exp(-i lam H)``.  Unitary
conjugation keeps positivity and trace, so every kernel flow keeps every
valid process valid, at every ``lam`` (compare Oreshkov, Costa and Brukner,
arXiv:1105.4464, on local unitaries).  Deciding the kernel therefore decides
rigidity; no process needs to be conjugated.

In the Weyl (clock-and-shift) basis of :mod:`pmx.hs_algebra` the constraint
system is exact integer arithmetic (Gottesman, quant-ph/9802007).  A product
pattern ``a`` collects one ``X^{p_k} Z^{q_k}`` per factor.  Two patterns
commute up to a phase, ``W_a W_b = exp(-2 pi i sum_k <a_k, b_k> / d_k) W_b
W_a`` with the symplectic form ``<a, b> = p_a q_b - q_a p_b mod d``, so
``[W_t, W_f]`` is a nonzero multiple of ``W_{t+f}`` when that phase is
nontrivial and vanishes otherwise.  Traces of Weyl patterns are orthogonal,
so ``Tr(H [W_t, W_f])`` reads exactly one coefficient of ``H``: the one at
``u = -(t + f)``.  Hence a pattern ``u != 0`` lies in the generator kernel
iff no forbidden ``f`` has ``f - u`` allowed with ``sum_k <u_k, f_k> / d_k``
not an integer (the forbidden set is closed under ``f -> -f``).  No singular
values and no threshold enter.

The kernel is closed under ``u -> -u`` and ``W_{-u}`` is a multiple of
``W_u^dag``, so the Hermitian generators it holds span a real space whose
dimension is the pattern count.  ``SL(2, Z_d)`` is transitive on the
patterns ``(p, q)`` of each order ``d / gcd(p, q, d)``, so its orbits on one
factor are the classes of ``gcd(p, q, d)``.  For prime ``d_k`` they are the
identity and the rest, so the kernel is a union of support classes (sets of
patterns touching the same factors), the same set of generators in any
product basis with the identity first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hs_algebra import pattern_digits, weyl_exponents
from .operator_core import SpaceLayout
from .process_space import allowed_mask

__all__ = [
    "RigidityReport",
    "generator_kernel",
    "single_body_patterns",
    "verify_rigidity",
]

# one kernel chunk tests at most this many (forbidden, representative) pairs,
# or one forbidden pattern against every representative; its temporaries take
# a few tens of bytes a pair, so a few tens of MB in all.  A layout has at most
# sqrt(patterns) representatives, so more than 2^20 of them would take 2^40
# patterns, whose term mask alone fills 1 TiB
_CHUNK_PAIRS = 1 << 20


@lru_cache(maxsize=None)
def _orbits(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``SL(2, Z_d)`` orbits of one factor's patterns, the classes of
    ``gcd(p, q, d)``: each orbit's least pattern index, and each pattern's
    orbit, both read-only."""
    p, q = weyl_exponents(d).T
    _, reps, orbit = np.unique(
        np.gcd(np.gcd(p, q), d), return_index=True, return_inverse=True
    )
    reps.setflags(write=False)
    orbit.setflags(write=False)
    return reps, orbit


def generator_kernel(layout: SpaceLayout) -> np.ndarray:
    """Weyl patterns of the traceless generators that keep validity.

    Returns the kernel patterns as sorted flat indices into the pattern
    tensor of shape ``(d_0^2, ..., d_{n-1}^2)``, over the per-factor Weyl
    numbering (index 0 the identity; for qubits I, X, Y, Z).  Each index
    stands for one generator direction, so the kernel dimension is the
    length, and the decision is exact.

    Pattern ``u`` is pinned by forbidden ``f`` when ``f - u`` is allowed and
    the commutation phase of ``u`` and ``f`` is nontrivial.  A symplectic map
    on one factor keeps the forbidden set, the supports of ``f - u`` and the
    phases, so the verdict is constant on ``SL(2, Z_d)`` orbits taken factor
    by factor: the classes of ``gcd(p_k, q_k, d_k)``.  One representative,
    the least pattern index, is tested per product of orbits.  For each pair
    the support of ``f - u`` is a bit code (bit ``k`` set when ``u_k !=
    f_k``) looked up in the allowed mask, and the phase is ``sum_k <u_k,
    f_k> * (L / d_k) mod L`` with ``L = lcm(d_k)``.  Each chunk of
    forbidden patterns meets every representative, in at most
    ``_CHUNK_PAIRS`` pairs or one forbidden pattern.  A factor of dimension
    ``d`` has one orbit per divisor of ``d``, so at most ``d``, and a layout
    has at most ``sqrt(patterns)`` representatives: one chunk of one
    pattern outgrows ``_CHUNK_PAIRS`` only past 2^40 patterns.
    """
    dims = layout.dims
    n = len(dims)
    qdims = tuple(d * d for d in dims)
    lcm = math.lcm(*dims)
    phases = []  # [f_k, u_k] -> <u_k, f_k> in units of 1 / lcm
    for d in dims:
        e = weyl_exponents(d)
        symp = e[None, :, 0] * e[:, None, 1] - e[None, :, 1] * e[:, None, 0]
        phases.append(symp % d * (lcm // d))
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    # a factor of dimension 1 is never touched, so its bit is never looked up
    allowed = allowed_mask(layout)[tuple(np.minimum(bits, np.array(qdims) - 1).T)]

    reps, orbits = zip(*(_orbits(d) for d in dims))
    grid = np.meshgrid(*reps, indexing="ij")
    rep_digits = np.stack([g.reshape(-1) for g in grid], axis=1)
    f_digits = pattern_digits(qdims)[~allowed_mask(layout).reshape(-1)]
    chunk = max(1, _CHUNK_PAIRS // len(rep_digits))
    killed = np.zeros(len(rep_digits), dtype=bool)
    for start in range(0, len(f_digits), chunk):
        fd = f_digits[start : start + chunk]
        code = np.zeros((len(fd), len(rep_digits)), dtype=np.int64)
        phase = np.zeros((len(fd), len(rep_digits)), dtype=np.int64)
        for k in range(n):
            f_k, u_k = fd[:, k : k + 1], rep_digits[None, :, k]
            code |= (f_k != u_k).astype(np.int64) << k
            phase += phases[k][f_k, u_k]
        killed |= (allowed[code] & (phase % lcm != 0)).any(axis=0)

    # every pattern takes the verdict of its orbits' representative
    free = ~killed.reshape(tuple(map(len, reps)))[np.ix_(*orbits)].reshape(-1)
    free[0] = False  # the identity: generators are traceless
    return np.flatnonzero(free)


def single_body_patterns(layout: SpaceLayout) -> np.ndarray:
    """Patterns local to one party side, as sorted flat indices.

    A party side is one party's joint inputs or its joint outputs; a pattern
    is local to it when it is nontrivial on some factor of that side and on
    no factor outside it.
    """
    qdims = tuple(d * d for d in layout.dims)
    digits = pattern_digits(qdims)
    touched = digits != 0
    local = np.zeros(len(digits), dtype=bool)
    for side in (s for p in layout.parties for s in (p.inputs, p.outputs)):
        inside = np.zeros(len(qdims), dtype=bool)
        inside[list(side)] = True
        local |= touched[:, inside].any(axis=1) & ~touched[:, ~inside].any(axis=1)
    return np.flatnonzero(local)


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of comparing the generator kernel with the single-body span.

    Both spans have a basis of Weyl patterns, so each residual is the
    largest distance of one pattern from the other span: exactly 0 when its
    pattern set lies inside the other and 1 otherwise.
    """

    kernel_dim: int
    single_body_dim: int
    kernel_in_span_residual: float
    span_in_kernel_residual: float

    @property
    def spans_match(self) -> bool:
        return (
            self.kernel_dim == self.single_body_dim
            and self.kernel_in_span_residual == 0
            and self.span_in_kernel_residual == 0
        )

    @property
    def passed(self) -> bool:
        return self.spans_match


def verify_rigidity(layout: SpaceLayout) -> RigidityReport:
    """Check that the generator kernel is exactly the single-body span.

    The kernel patterns and the single-body patterns are compared as two
    sets of flat pattern indices; no process is built or validated.  Nothing
    more is needed for the finite flows: ``Tr(H [T, F]) = Tr([H, T] F)``, so
    for a kernel ``H`` every ``[H, T]`` with ``T`` allowed lies in the
    allowed span ``V``.  Hence every power of ``ad_H = [H, .]`` and
    ``exp(-i lam ad_H)``, which is conjugation by ``exp(-i lam H)``, map
    ``V`` into itself.  That conjugation keeps positivity and trace as well,
    so every kernel flow keeps every valid process valid at every ``lam``.
    """
    kernel = set(generator_kernel(layout).tolist())
    sb = set(single_body_patterns(layout).tolist())
    return RigidityReport(
        kernel_dim=len(kernel),
        single_body_dim=len(sb),
        kernel_in_span_residual=float(not kernel <= sb),
        span_in_kernel_residual=float(not sb <= kernel),
    )
