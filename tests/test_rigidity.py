"""Generator-kernel computation against brute-force and hand oracles."""

import dataclasses
import math
import time
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from oracles import (
    ROW_PRUNE_TOL,
    batch_coefficient_tensors,
    batch_from_coefficient_tensors,
    build_constraints,
    build_su_basis,
    coefficient_tensor,
    deduplicate_rows,
    from_coefficient_tensor,
    kept_rows,
    orbit_labels,
    product_term,
    svd_generator_kernel,
)
import pmx.process_space
import pmx.rigidity
from pmx.hs_algebra import pattern_digits, weyl_exponents, weyl_term
from pmx.operator_core import SpaceLayout, max_norm
from pmx.process_space import (
    HierarchyLevel,
    ProcessMatrix,
    allowed_mask,
    bipartite_qubit_layout,
    cj_of_unitary,
    extended_switch_layout,
    memory_channel,
    quantum_switch,
    shared_state,
    single_party_layout,
    switch_layout,
    validate,
    w_ll,
    w_ocb,
)
from pmx.rigidity import (
    generator_kernel,
    single_body_patterns,
    verify_rigidity,
)
from pmx.supermaps import hierarchy_projector

BIP = bipartite_qubit_layout()

TRIPARTITE_ONE_SINK = SpaceLayout.build(
    [("A_I", 2), ("B_I", 2), ("C_I", 2), ("A_O", 2), ("B_O", 2)],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"]), ("C", ["C_I"], [])],
)

# party A has two input factors, then two output factors: a single-body
# generator may act on a party's whole input (or output) side
TWO_INPUT_PARTY = SpaceLayout.build(
    [("A_I", 2), ("A_J", 2), ("A_O", 2), ("B_I", 2), ("B_O", 2)],
    [("A", ["A_I", "A_J"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
)
TWO_OUTPUT_PARTY = SpaceLayout.build(
    [("A_I", 2), ("A_O", 2), ("A_P", 2), ("B_I", 2), ("B_O", 2)],
    [("A", ["A_I"], ["A_O", "A_P"]), ("B", ["B_I"], ["B_O"])],
)

QUTRIT_322 = SpaceLayout.build(
    [("A_I", 3), ("A_O", 2), ("B_I", 2)],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], [])],
)
QUTRIT_33 = SpaceLayout.build([("A_I", 3), ("A_O", 3)], [("A", ["A_I"], ["A_O"])])
QUTRIT_333 = SpaceLayout.build(
    [("A_I", 3), ("A_O", 3), ("B_I", 3)],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], [])],
)
TRIVIAL_FACTOR = SpaceLayout.build([("A_I", 2), ("A_O", 1)], [("A", ["A_I"], ["A_O"])])
# d = 4 is not prime: its nontrivial Weyl patterns fall into two orbits
# (order 2 and order 4), so the kernel need not be a union of support classes
QUART_42 = SpaceLayout.build([("A_I", 4), ("A_O", 2)], [("A", ["A_I"], ["A_O"])])
QUART_242 = SpaceLayout.build(
    [("A_I", 2), ("A_O", 4), ("B_I", 2)],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], [])],
)


def oracle_build_constraints(layout):
    """The constraint build one allowed term at a time, as a reference.

    Returns ``(valid_terms, forbidden_terms, rows, pairs, pair_count)``
    with the same meaning as the fields of ``ConstraintSystem``.
    """
    qdims = tuple(d * d for d in layout.dims)
    total = math.prod(qdims)
    mask = allowed_mask(layout).reshape(-1)
    all_patterns = [
        tuple(int(v) for v in np.unravel_index(k, qdims)) for k in range(total)
    ]
    valid_idx = np.flatnonzero(mask)
    forb_idx = np.flatnonzero(~mask)
    valid_terms = tuple(all_patterns[k] for k in valid_idx)
    forbidden_terms = tuple(all_patterns[k] for k in forb_idx)
    triples = []
    for d in layout.dims:
        s = build_su_basis(d).elements
        triples.append(np.einsum("aij,bjk,cki->abc", s, s, s))

    fidx = np.unravel_index(forb_idx, qdims)
    n_forb = forb_idx.size
    blocks = []
    kept_pairs = []
    for t_pos, t_pat in enumerate(valid_terms if n_forb else ()):
        left = np.ones((1, n_forb), dtype=complex)
        right = np.ones((1, n_forb), dtype=complex)
        for m, t, fk in zip(triples, t_pat, fidx):
            left = (left[:, None, :] * m[:, t, fk][None, :, :]).reshape(-1, n_forb)
            right = (right[:, None, :] * m[t][:, fk][None, :, :]).reshape(-1, n_forb)
        rows_t = (left - right).T.imag
        keep = np.abs(rows_t).max(axis=1) > ROW_PRUNE_TOL
        if not keep.any():
            continue
        blocks.append(scipy.sparse.csr_matrix(rows_t[keep]))
        for f_pos in np.flatnonzero(keep):
            kept_pairs.append((t_pos, int(f_pos)))

    if blocks:
        rows = scipy.sparse.vstack(blocks, format="csr")
        pairs = np.array(kept_pairs, dtype=int)
    else:
        rows = scipy.sparse.csr_matrix((0, total))
        pairs = np.zeros((0, 2), dtype=int)
    pair_count = len(valid_terms) * len(forbidden_terms)
    return valid_terms, forbidden_terms, rows, pairs, pair_count


def oracle_deduplicate_rows(rows):
    """One representative per direction, found row by row."""
    seen = {}
    for r in range(rows.shape[0]):
        start, stop = rows.indptr[r], rows.indptr[r + 1]
        cols = rows.indices[start:stop]
        data = rows.data[start:stop]
        lead = data[np.argmax(np.abs(data))]
        key = (tuple(cols), tuple(np.round(data / lead, 10)))
        if key not in seen:
            seen[key] = (cols, data / lead)
    out = np.zeros((len(seen), rows.shape[1]))
    for k, (cols, data) in enumerate(seen.values()):
        out[k, cols] = data
    return out


@lru_cache(maxsize=None)
def cached_system(layout):
    return build_constraints(layout)


@lru_cache(maxsize=None)
def cached_kernel(layout):
    return generator_kernel(layout)


@lru_cache(maxsize=None)
def cached_svd_kernel(layout):
    return svd_generator_kernel(cached_system(layout))


@pytest.fixture(scope="module")
def bip_system():
    return cached_system(BIP)


@pytest.fixture(scope="module")
def bip_kernel():
    return cached_kernel(BIP)


@pytest.fixture(scope="module")
def bip_kernel_rows(bip_kernel):
    return indicator_rows(bip_kernel, BIP)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def random_valid_process(rng, layout):
    x = hierarchy_projector(HierarchyLevel.process(layout))(
        random_hermitian(rng, layout.dim)
    )
    lo = float(np.linalg.eigvalsh(x)[0])
    x = x + (abs(lo) + 0.1) * np.eye(layout.dim)
    w = ProcessMatrix(layout, x * (layout.d_out / np.trace(x).real))
    assert validate(w).valid
    return w


def indicator_rows(flat, layout):
    """One orthonormal row per flat pattern index, over all patterns."""
    out = np.zeros((len(flat), math.prod(d * d for d in layout.dims)))
    out[np.arange(len(flat)), flat] = 1.0
    return out


def flat_index(pattern, layout):
    return int(np.ravel_multi_index(pattern, tuple(d * d for d in layout.dims)))


# the layouts whose kernel flows are conjugated numerically
FLOW_LAYOUTS = [
    BIP,
    single_party_layout(),
    switch_layout(),
    TRIPARTITE_ONE_SINK,
    TWO_INPUT_PARTY,
    TWO_OUTPUT_PARTY,
]
FLOW_IDS = [
    "bipartite",
    "single-party",
    "switch",
    "tripartite-one-sink",
    "two-input-party",
    "two-output-party",
]
FLOW_LAMBDAS = (0.3, 1.0)


def reference_processes(layout):
    """The maximally mixed process, named ones on the bipartite layout, random ones."""
    rng = np.random.default_rng(1905)
    out = [ProcessMatrix(layout, np.eye(layout.dim) * (layout.d_out / layout.dim))]
    if layout == BIP:
        out += [
            w_ocb(),
            shared_state(np.eye(4) / 4),
            memory_channel(np.eye(2) / 2, cj_of_unitary(np.eye(2))),
        ]
    return out + [random_valid_process(rng, layout) for _ in range(3)]


def kernel_generator(rng, layout):
    """A random Hermitian generator in the span of the kernel's Weyl terms.

    A Weyl term such as ``XZ = -iY`` need not be Hermitian, so the generator
    is a random complex combination plus its adjoint.
    """
    qdims = tuple(d * d for d in layout.dims)
    kernel = cached_kernel(layout)
    coeff = rng.standard_normal(kernel.size) + 1j * rng.standard_normal(kernel.size)
    half = sum(
        c * weyl_term(np.unravel_index(u, qdims), layout.dims)
        for c, u in zip(coeff, kernel)
    )
    return half + half.conj().T


def flowed_verdicts(h, processes):
    """Whether each ``exp(-i lam h) W exp(i lam h)`` is valid, one list per lam."""
    out = []
    for lam in FLOW_LAMBDAS:
        u = scipy.linalg.expm(-1j * lam * h)
        moved = (ProcessMatrix(w.layout, u @ w.matrix @ u.conj().T) for w in processes)
        out.append([validate(m).valid for m in moved])
    return out


class TestConstraintSystem:
    def test_bipartite_term_partition(self, bip_system):
        assert len(bip_system.valid_terms) == 88
        assert len(bip_system.forbidden_terms) == 168
        assert bip_system.pair_count == 88 * 168 == 14784
        assert set(bip_system.valid_terms).isdisjoint(bip_system.forbidden_terms)
        assert len(bip_system.valid_terms) + len(bip_system.forbidden_terms) == 256

    def test_identity_term_rows_all_pruned(self, bip_system):
        ident = bip_system.valid_terms.index((0, 0, 0, 0))
        assert ident not in set(bip_system.pairs[:, 0])

    def test_stored_rows_match_direct_functional(self, bip_system):
        # Tr([H,T]F) = Tr(H [T,F]), anti-Hermitian commutator, so each
        # stored row equals 2^4 times the imaginary part of the
        # coefficient tensor of [T, F]
        rng = np.random.default_rng(3)
        rows = bip_system.rows
        for r in rng.choice(rows.shape[0], size=6, replace=False):
            t = product_term(bip_system.valid_terms[bip_system.pairs[r, 0]], BIP)
            f = product_term(bip_system.forbidden_terms[bip_system.pairs[r, 1]], BIP)
            direct = coefficient_tensor(t @ f - f @ t, BIP).reshape(-1)
            stored = rows[r].toarray().ravel()
            assert np.abs(direct.real).max() <= 1e-12
            np.testing.assert_allclose(stored, 16 * direct.imag, atol=1e-10)

    def test_row_for_nonzero_pair_is_commutator_functional(self, bip_system):
        # a hand-picked pair: T = x on A_I, F = z on A_I with x on A_O
        t_pat, f_pat = (1, 0, 0, 0), (3, 0, 1, 0)
        t_idx = bip_system.valid_terms.index(t_pat)
        f_idx = bip_system.forbidden_terms.index(f_pat)
        hit = np.flatnonzero(
            (bip_system.pairs[:, 0] == t_idx) & (bip_system.pairs[:, 1] == f_idx)
        )
        assert hit.size == 1
        row = bip_system.rows[int(hit[0])].toarray().ravel()
        # [x, z] = -2i y, so the functional pins the y on A_I, x on A_O term
        expect = np.zeros(256)
        expect[np.ravel_multi_index((2, 0, 1, 0), (4, 4, 4, 4))] = 1.0
        assert np.abs(row).max() > 0
        np.testing.assert_allclose(np.abs(row) / np.abs(row).max(), expect, atol=1e-12)

    def test_rows_are_kept_only_above_the_prune_tolerance(self):
        # on real layouts a row's largest entry is rounding noise or of
        # order 1, so synthetic rows pin where the tolerance sits
        values = np.zeros((4, 3))
        values[0, 1] = 1e-13
        values[1, 2] = -1e-11
        values[2, 0] = 5e-2
        values[3] = [1e-13, -5e-2, 1e-11]
        np.testing.assert_array_equal(kept_rows(values), [1, 2, 3])
        assert ROW_PRUNE_TOL == 1e-12

    def test_size_guard_rejects_switch_layout(self):
        with pytest.raises(ValueError, match="pattern"):
            build_constraints(switch_layout())


ORACLE_LAYOUTS = {
    "bipartite": BIP,
    "tripartite-one-sink": TRIPARTITE_ONE_SINK,
    "two-input-party": TWO_INPUT_PARTY,
    "qutrit-3x2x2": QUTRIT_322,
    "qutrit-3x3": QUTRIT_33,
}


class TestAgainstPerTermOracle:
    @pytest.mark.parametrize(
        "layout", list(ORACLE_LAYOUTS.values()), ids=list(ORACLE_LAYOUTS)
    )
    def test_build_and_deduplication_match_oracle(self, layout):
        valid, forbidden, rows, pairs, pair_count = oracle_build_constraints(layout)
        system = cached_system(layout)
        assert system.valid_terms == valid
        assert system.forbidden_terms == forbidden
        assert system.pair_count == pair_count
        np.testing.assert_array_equal(system.pairs, pairs)
        # the same CSR arrays, value for value
        assert system.rows.shape == rows.shape
        np.testing.assert_array_equal(system.rows.indptr, rows.indptr)
        np.testing.assert_array_equal(system.rows.indices, rows.indices)
        np.testing.assert_array_equal(system.rows.data, rows.data)
        # so the SVD input, and with it the kernel, is bit-identical
        np.testing.assert_array_equal(
            deduplicate_rows(system.rows), oracle_deduplicate_rows(rows)
        )

    def test_deduplication_of_shuffled_rows_matches_oracle(self, bip_system):
        perm = np.random.default_rng(4).permutation(bip_system.rows.shape[0])
        shuffled = bip_system.rows[perm].tocsr()
        np.testing.assert_array_equal(
            deduplicate_rows(shuffled), oracle_deduplicate_rows(shuffled)
        )

    def test_qutrit_rows_touch_several_coefficients(self):
        widths = np.diff(cached_system(QUTRIT_33).rows.indptr)
        assert widths.min() >= 1
        assert widths.max() > 1


CROSS_CHECK_LAYOUTS = {
    **ORACLE_LAYOUTS,
    "single-party": single_party_layout(),
    "two-output-party": TWO_OUTPUT_PARTY,
    "trivial-factor": TRIVIAL_FACTOR,
    "qutrit-3x3x3": QUTRIT_333,
    "quart-4x2": QUART_42,
    "quart-2x4x2": QUART_242,
}


def weyl_kernel_in_gell_mann(layout):
    """Real Gell-Mann coefficients of the Hermitian parts of the kernel terms."""
    qdims = tuple(d * d for d in layout.dims)
    out = []
    for u in generator_kernel(layout):
        w = weyl_term(tuple(np.unravel_index(u, qdims)), layout.dims)
        for h in (w + w.conj().T, 1j * (w - w.conj().T)):
            c = coefficient_tensor(h, layout).reshape(-1)
            assert np.abs(c.imag).max() <= 1e-12
            out.append(c.real)
    return np.array(out).reshape(-1, math.prod(qdims))


def span_residual(vectors, orthonormal):
    """Largest distance of a row of ``vectors`` from the span of ``orthonormal``."""
    if vectors.shape[0] == 0:
        return 0.0
    return float(
        np.linalg.norm(vectors - vectors @ orthonormal.T @ orthonormal, axis=1).max()
    )


class TestExactKernelAgainstSvdOracle:
    @pytest.mark.parametrize(
        "layout", list(CROSS_CHECK_LAYOUTS.values()), ids=list(CROSS_CHECK_LAYOUTS)
    )
    def test_dimension_and_span_match_oracle(self, layout):
        exact = indicator_rows(cached_kernel(layout), layout)
        oracle = cached_svd_kernel(layout)
        assert exact.shape[0] == oracle.shape[0]
        # the Weyl kernel's Hermitian operators span the oracle's kernel
        mapped = weyl_kernel_in_gell_mann(layout)
        assert np.linalg.matrix_rank(mapped, tol=1e-8) == oracle.shape[0]
        assert span_residual(mapped, oracle) <= 1e-8
        if all(d in (1, 2, 3) for d in layout.dims):
            # prime factors: a union of support classes, so the same index
            # set in both numberings
            assert span_residual(exact, oracle) <= 1e-8
            assert span_residual(oracle, exact) <= 1e-8

    @pytest.mark.parametrize("chunk_pairs", [1, 7, 64])
    @pytest.mark.parametrize(
        "layout", list(CROSS_CHECK_LAYOUTS.values()), ids=list(CROSS_CHECK_LAYOUTS)
    )
    def test_kernel_does_not_depend_on_the_chunk_size(
        self, monkeypatch, layout, chunk_pairs
    ):
        expected = cached_kernel(layout)  # one chunk at the package's size
        monkeypatch.setattr(pmx.rigidity, "_CHUNK_PAIRS", chunk_pairs)
        np.testing.assert_array_equal(generator_kernel(layout), expected)

    @pytest.mark.parametrize(
        "layout", list(CROSS_CHECK_LAYOUTS.values()), ids=list(CROSS_CHECK_LAYOUTS)
    )
    def test_representatives_are_at_most_the_root_of_the_patterns(self, layout):
        reps = math.prod(len(pmx.rigidity._orbits(d)[0]) for d in layout.dims)
        assert reps * reps <= math.prod(d * d for d in layout.dims)

    def test_extended_switch_kernel_is_single_body(self):
        layout = extended_switch_layout()
        start = time.perf_counter()
        kernel = generator_kernel(layout)
        elapsed = time.perf_counter() - start
        patterns = single_body_patterns(layout)
        assert len(kernel) == len(patterns) == 33
        np.testing.assert_array_equal(kernel, patterns)
        assert elapsed < 3.0

    def test_weyl_terms_commute_up_to_the_symplectic_phase(self):
        dims = (2, 3, 4)
        qdims = tuple(d * d for d in dims)
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = (tuple(int(rng.integers(q)) for q in qdims) for _ in range(2))
            phase = sum(
                (ea[0] * eb[1] - ea[1] * eb[0]) % d / d
                for d, ea, eb in (
                    (d, weyl_exponents(d)[x], weyl_exponents(d)[y])
                    for d, x, y in zip(dims, a, b)
                )
            )
            wa, wb = weyl_term(a, dims), weyl_term(b, dims)
            np.testing.assert_allclose(
                wa @ wb, np.exp(-2j * np.pi * phase) * (wb @ wa), atol=1e-12
            )


class TestGeneratorKernel:
    def test_bipartite_kernel_dimension(self, bip_kernel):
        assert len(bip_kernel) == 12

    def test_kernel_rows_orthonormal_and_traceless(self, bip_kernel):
        # distinct indices are orthonormal rows; index 0 is the identity
        assert bip_kernel.dtype.kind == "i"
        assert np.all(np.diff(bip_kernel) > 0)
        assert 0 not in bip_kernel

    def test_single_body_x_on_a_input_in_kernel(self, bip_kernel):
        assert flat_index((1, 0, 0, 0), BIP) in bip_kernel

    def test_two_body_zz_on_inputs_not_in_kernel(self, bip_kernel):
        assert flat_index((3, 3, 0, 0), BIP) not in bip_kernel

    def test_kernel_commutators_stay_in_allowed_span(self, bip_system, bip_kernel_rows):
        qdims = tuple(d * d for d in BIP.dims)
        gone = ~allowed_mask(BIP)[None]
        terms = np.stack([product_term(p, BIP) for p in bip_system.valid_terms])
        for coeffs in bip_kernel_rows:
            h = from_coefficient_tensor(coeffs.reshape(qdims), BIP.dims)
            comm = np.matmul(h, terms) - np.matmul(terms, h)
            c = batch_coefficient_tensors(comm, BIP)
            # P(comm) - comm is minus the forbidden part of the expansion
            resid = batch_from_coefficient_tensors(np.where(gone, c, 0.0), BIP)
            assert np.abs(resid).max() <= 1e-9

    def test_brute_force_svd_agrees(self, bip_system, bip_kernel_rows):
        # independent route: stack Tr(H [T, F]) rows from dense commutators
        forb = np.stack(
            [product_term(p, BIP) for p in bip_system.forbidden_terms]
        )
        rows = []
        for t_pat in bip_system.valid_terms:
            t = product_term(t_pat, BIP)
            comm = np.matmul(t, forb) - np.matmul(forb, t)
            rows.append(batch_coefficient_tensors(comm, BIP).reshape(-1, 256).imag)
        stacked = np.vstack(rows)
        assert stacked.shape == (14784, 256)
        system = stacked[:, 1:]  # drop the identity coordinate
        assert system.shape[1] == 255
        _, svals, vt = np.linalg.svd(system, full_matrices=False)
        rank = int(np.sum(svals > 1e-9 * svals[0]))
        assert 255 - rank == 12
        brute = np.zeros((255 - rank, 256))
        brute[:, 1:] = vt[rank:]
        # mutual projection: same 12-dim subspace as generator_kernel
        resid1 = brute - brute @ bip_kernel_rows.T @ bip_kernel_rows
        resid2 = bip_kernel_rows - bip_kernel_rows @ brute.T @ brute
        assert np.linalg.norm(resid1, axis=1).max() <= 1e-8
        assert np.linalg.norm(resid2, axis=1).max() <= 1e-8

    def test_single_party_kernel_is_both_single_body_sets(self):
        layout = single_party_layout()
        kern = cached_kernel(layout)
        assert len(kern) == 6
        np.testing.assert_array_equal(single_body_patterns(layout), kern)

    def test_tripartite_one_sink_kernel_dimension(self):
        kern = cached_kernel(TRIPARTITE_ONE_SINK)
        assert len(kern) == 15 == 3 * 5

    def test_trivial_factor_contributes_nothing(self):
        layout = TRIVIAL_FACTOR
        kern = generator_kernel(layout)
        assert len(kern) == 3
        assert len(single_body_patterns(layout)) == 3

    def test_row_order_does_not_change_kernel(self, bip_system, bip_kernel_rows):
        rng = np.random.default_rng(11)
        perm = rng.permutation(bip_system.rows.shape[0])
        shuffled = bip_system.rows[perm]
        other = dataclasses.replace(
            bip_system, rows=shuffled.tocsr(), pairs=bip_system.pairs[perm]
        )
        kern2 = svd_generator_kernel(other)
        assert kern2.shape == bip_kernel_rows.shape
        resid = bip_kernel_rows - bip_kernel_rows @ kern2.T @ kern2
        assert np.linalg.norm(resid, axis=1).max() <= 1e-9

    def test_rebuild_is_deterministic(self, bip_system):
        again = build_constraints(BIP)
        assert (again.rows != bip_system.rows).nnz == 0
        np.testing.assert_array_equal(again.pairs, bip_system.pairs)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_orbits_are_the_gcd_classes(self, d):
        """The gcd classes are the orbits the generator search finds, with
        the same least-index representatives."""
        reps, orbit = pmx.rigidity._orbits(d)
        labels = orbit_labels(d)
        np.testing.assert_array_equal(np.sort(reps), np.unique(labels))
        np.testing.assert_array_equal(reps[orbit], labels)


class TestSoundnessAndCompleteness:
    @pytest.mark.parametrize("layout", FLOW_LAYOUTS, ids=FLOW_IDS)
    def test_kernel_flow_preserves_validity_of_random_processes(self, layout):
        # the numerical side of verify_rigidity's proof: conjugating by
        # exp(-i lam H) for H in the kernel keeps every process valid
        rng = np.random.default_rng(21)
        processes = reference_processes(layout)
        project = hierarchy_projector(HierarchyLevel.process(layout))
        for _ in range(3):
            h = kernel_generator(rng, layout)
            for w in processes:
                c = h @ w.matrix - w.matrix @ h
                assert max_norm(project(c) - c) <= 1e-9
            for verdicts in flowed_verdicts(h, processes):
                assert all(verdicts)

    @pytest.mark.parametrize("layout", FLOW_LAYOUTS, ids=FLOW_IDS)
    def test_non_kernel_two_body_term_breaks_validity(self, layout):
        # the check above can fail: one two-body pattern outside the kernel,
        # added to a kernel generator, takes some reference process out of
        # the valid set at each lam
        rng = np.random.default_rng(21)
        qdims = tuple(d * d for d in layout.dims)
        digits = pattern_digits(qdims)
        kernel = set(cached_kernel(layout).tolist())
        two_body = np.flatnonzero((digits != 0).sum(axis=1) == 2)
        u = next(int(u) for u in two_body if u not in kernel)
        term = weyl_term(digits[u], layout.dims)
        h = kernel_generator(rng, layout) + term + term.conj().T
        for verdicts in flowed_verdicts(h, reference_processes(layout)):
            assert not all(verdicts)

    @pytest.mark.parametrize(
        "layout", [BIP, single_party_layout(), TRIPARTITE_ONE_SINK],
        ids=["bipartite", "single-party", "tripartite-one-sink"],
    )
    def test_kernel_dim_is_three_per_qubit_factor(self, layout):
        kern = cached_kernel(layout)
        expect = 3 * sum(1 for d in layout.dims if d == 2)
        assert len(kern) == expect


class TestVerifyRigidity:
    def test_bipartite_report_passes(self):
        rep = verify_rigidity(BIP)
        assert rep.passed
        assert rep.spans_match
        assert rep.kernel_dim == rep.single_body_dim == 12
        assert rep.kernel_in_span_residual == rep.span_in_kernel_residual == 0

    def test_single_party_report_passes(self):
        rep = verify_rigidity(single_party_layout())
        assert rep.passed
        assert rep.kernel_dim == 6

    def test_tripartite_report_passes(self):
        rep = verify_rigidity(TRIPARTITE_ONE_SINK)
        assert rep.passed
        assert rep.kernel_dim == 15

    @pytest.mark.parametrize(
        "layout", [TWO_INPUT_PARTY, TWO_OUTPUT_PARTY],
        ids=["two-input-party", "two-output-party"],
    )
    def test_party_with_two_factors_on_one_side_passes(self, layout):
        # A's two-factor side carries 4 * 4 - 1 = 15 local generators, and
        # the other three sides 3 each
        rep = verify_rigidity(layout)
        assert rep.kernel_dim == rep.single_body_dim == 15 + 3 * 3
        assert rep.kernel_in_span_residual == rep.span_in_kernel_residual == 0
        assert rep.passed

    def test_decided_without_validating_a_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_rigidity called validate")

        monkeypatch.setattr(pmx.process_space, "validate", refuse)
        monkeypatch.setattr(pmx, "validate", refuse)
        monkeypatch.setattr(pmx.rigidity, "validate", refuse, raising=False)
        for layout in FLOW_LAYOUTS:
            assert verify_rigidity(layout).passed

    def test_single_body_patterns_on_a_joint_input(self):
        patterns = single_body_patterns(TWO_INPUT_PARTY)
        assert len(patterns) == 24
        assert np.all(np.diff(patterns) > 0)
        # nontrivial on both of A's inputs, and on nothing else
        assert flat_index((1, 2, 0, 0, 0), TWO_INPUT_PARTY) in patterns
        assert flat_index((1, 0, 2, 0, 0), TWO_INPUT_PARTY) not in patterns

    def test_single_body_patterns_match_kernel_on_qutrit_layouts(self):
        for layout in (QUTRIT_322, QUTRIT_33):
            np.testing.assert_array_equal(
                single_body_patterns(layout), cached_kernel(layout)
            )


class TestConjugationVerdicts:
    def test_single_body_flow_keeps_switch_valid(self):
        layout = switch_layout()
        rng = np.random.default_rng(5)
        sw = quantum_switch()
        h = np.zeros((layout.dim, layout.dim), dtype=complex)
        for pat in [(1, 0, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0), (0, 0, 0, 0, 0, 2)]:
            h = h + rng.standard_normal() * product_term(pat, layout)
        for lam in (0.3, 1.0):
            u = scipy.linalg.expm(-1j * lam * h)
            moved = ProcessMatrix(layout, u @ sw.matrix @ u.conj().T)
            assert validate(moved).valid

    def test_single_body_flow_keeps_loop_invalid(self):
        layout = w_ll().layout
        h = product_term((2, 0), layout) + 0.5 * product_term((0, 1), layout)
        for lam in (0.3, 1.0):
            u = scipy.linalg.expm(-1j * lam * h)
            moved = ProcessMatrix(layout, u @ w_ll().matrix @ u.conj().T)
            report = validate(moved)
            assert not report.valid
            assert not report.condition("subspace").passed

    def test_ocb_process_verdict_stable_under_kernel_flow(self):
        kern = cached_kernel(BIP)
        qdims = tuple(d * d for d in BIP.dims)
        rng = np.random.default_rng(9)
        for _ in range(5):
            coeffs = rng.standard_normal(12) @ indicator_rows(kern, BIP)
            h = from_coefficient_tensor(coeffs.reshape(qdims), BIP.dims)
            for lam in (0.3, 1.0):
                u = scipy.linalg.expm(-1j * lam * h)
                moved = ProcessMatrix(BIP, u @ w_ocb().matrix @ u.conj().T)
                assert validate(moved).valid
