"""
Rigidity: continuous reversible transformations are local
=========================================================

Which Hermitian generators H give flows W -> e^{-i l H} W e^{i l H} that
keep every valid process valid?  Each allowed term T and forbidden term F
contributes the linear constraint Tr([H, T] F) = 0.  In the Weyl
(clock-and-shift) basis a pair that fails to commute pins exactly one
coefficient of H, so the kernel is read off from commutation phases,
exactly and without a singular value decomposition.  The surviving
generators turn out to be exactly the single-body ones, i.e. local
rotations on one party's input or output factor.  Causal structure cannot
be bent by any continuous reversible transformation.
"""

import numpy as np

from pmx import (
    ProcessMatrix,
    allowed_mask,
    bipartite_qubit_layout,
    generator_kernel,
    single_party_layout,
    validate,
    verify_rigidity,
    w_ocb,
)
from pmx.hs_algebra import weyl_term
from pmx.rigidity import single_body_patterns

layout = bipartite_qubit_layout()
allowed = allowed_mask(layout)
print(
    f"constraint system: {int(allowed.sum())} allowed x "
    f"{int((~allowed).sum())} forbidden terms, decided by commutation phases"
)

kernel = generator_kernel(layout)
print("kernel dimension:", len(kernel))
print("single-body patterns:", len(single_body_patterns(layout)))

report = verify_rigidity(layout)
print("kernel == single-body span:", report.spans_match)
print("  kernel in span residual:", f"{report.kernel_in_span_residual:.2e}")
print("  span in kernel residual:", f"{report.span_in_kernel_residual:.2e}")

# the same story at single-party scale: 2 factors x 3 Paulis
print("single party kernel:", verify_rigidity(single_party_layout()).kernel_dim)

# flow a process along a kernel direction and watch validity survive; each
# kernel entry is the flat index of one Weyl pattern, and a Weyl term such as
# XZ = -iY need not be Hermitian, so H is a random combination plus its adjoint
rng = np.random.default_rng(5)
h_coeffs = rng.standard_normal(len(kernel))
qdims = tuple(d * d for d in layout.dims)
half = sum(
    c * weyl_term(np.unravel_index(u, qdims), layout.dims)
    for c, u in zip(h_coeffs, kernel)
)
h = half + half.conj().T
w = w_ocb()
# e^{-i l H} from the spectrum of the Hermitian H
vals, vecs = np.linalg.eigh(h)
for lam in (0.25, 0.5, 1.0):
    u = (vecs * np.exp(-1j * lam * vals)) @ vecs.conj().T
    flowed = u @ w.matrix @ u.conj().T
    ok = validate(ProcessMatrix(layout, flowed)).valid
    print(f"flow at lambda={lam}: {'valid' if ok else 'invalid'}")
