"""Support-intersection and linear-independence extremality criteria."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmx.extremality
from pmx.extremality import (
    DARIANO_TOL,
    INTERSECTION_TOL,
    SUPPORT_TOL,
    _support,
    _term_spectrum,
    dariano_test,
    is_extremal,
    non_reachability_report,
    support_intersection_dim,
)
from oracles import (
    _coefficient_rows,
    _support_operator_basis,
    averaged_projector_intersection_dim,
    coefficient_tensor,
    gram_intersection,
    order_pattern_mask,
    permute_factors,
    subspace_pair,
    svd_dariano_rank,
)
from pmx.hs_algebra import compressed_terms, weyl_term
from pmx.operator_core import SpaceLayout, tensor
from pmx.supermaps import hierarchy_projector
from test_order_projector import layouts
from test_process_space import no_dense_build  # noqa: F401 (a fixture)
from pmx.process_space import (
    HierarchyLevel,
    ProcessMatrix,
    allowed_mask,
    bipartite_qubit_layout,
    cj_of_unitary,
    extended_switch,
    memory_channel,
    quantum_switch,
    validate,
    w_ll,
    w_ocb,
)

BIP = bipartite_qubit_layout()

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def identity_channel(direction="a_to_b", rho=None):
    rho = np.eye(2) / 2 if rho is None else rho
    return memory_channel(rho, cj_of_unitary(np.eye(2)), direction)


def random_local_unitary(rng, dims):
    blocks = []
    for d in dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        blocks.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    return tensor(*blocks)


class TestSubspacePair:
    def test_projectors_idempotent_and_symmetric(self):
        pair = subspace_pair(w_ocb())
        for p in (pair.p_t, pair.p_v):
            assert np.abs(p @ p - p).max() <= 1e-10
            assert np.abs(p - p.T).max() <= 1e-10

    def test_ranks_for_ocb_process(self):
        pair = subspace_pair(w_ocb())
        assert pair.dims == (64, 88)
        assert int(round(np.trace(pair.p_t))) == 64
        assert int(round(np.trace(pair.p_v))) == 88

    def test_valid_span_projector_is_term_mask(self):
        pair = subspace_pair(w_ocb())
        diag = np.diagonal(pair.p_v)
        assert set(np.round(diag, 12)) <= {0.0, 1.0}
        assert int(diag.sum()) == 88


class TestSupportIntersection:
    def test_ocb_process_dimension_one(self):
        assert support_intersection_dim(w_ocb()) == 1

    def test_ocb_process_is_rank_eight(self):
        assert is_extremal(w_ocb()).support_rank == 8
        vals = np.linalg.eigvalsh(w_ocb().matrix)
        np.testing.assert_allclose(vals[:8], 0.0, atol=1e-9)
        np.testing.assert_allclose(vals[8:], 0.5, atol=1e-9)

    def test_maximally_mixed_full_valid_span(self):
        mixed = ProcessMatrix(BIP, np.eye(16) / 4)
        assert support_intersection_dim(mixed) == 88

    def test_switch_rank_one_forces_dimension_one(self):
        sw = quantum_switch()
        assert is_extremal(sw).support_rank == 1
        assert support_intersection_dim(sw) == 1

    def test_rejects_invalid_process(self):
        # the message names no function the caller did not call
        for entry in (support_intersection_dim, is_extremal):
            with pytest.raises(
                ValueError, match="^the support intersection needs a valid process$"
            ):
                entry(w_ll())

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(17)
        processes = [w_ocb(), ProcessMatrix(BIP, np.eye(16) / 4), identity_channel()]
        expected = [support_intersection_dim(w) for w in processes]
        for _ in range(5):
            u = random_local_unitary(rng, BIP.dims)
            for w, dim in zip(processes, expected):
                moved = ProcessMatrix(BIP, u @ w.matrix @ u.conj().T)
                assert validate(moved).valid
                assert support_intersection_dim(moved) == dim


def random_density(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_channel_cj(rng, d_in, d_out, kraus):
    """CJ of a random channel of the given Kraus rank, input factor first."""
    ks = rng.standard_normal((kraus, d_out, d_in)) + 1j * rng.standard_normal(
        (kraus, d_out, d_in)
    )
    vals, vecs = np.linalg.eigh(np.einsum("kij,kil->jl", ks.conj(), ks))
    ks = ks @ (vecs / np.sqrt(vals)) @ vecs.conj().T
    v = ks.transpose(0, 2, 1).reshape(kraus, -1)
    return v.T @ v.conj()


def random_ordered_process(rng, layout):
    """A channel from one party's outputs to another's inputs, of random rank.

    The other inputs share a random state of random rank and the other
    outputs are discarded, so the process is valid; with one party the
    channel is empty and every input is in the state.
    """
    parties = list(layout.parties)
    first, second = (
        rng.choice(len(parties), size=2, replace=False) if len(parties) > 1 else (0, 0)
    )
    wire_in = list(parties[first].outputs) if first != second else []
    wire_out = list(parties[second].inputs) if first != second else []
    inputs = [k for p in parties for k in p.inputs if k not in wire_out]
    outputs = [k for p in parties for k in p.outputs if k not in wire_in]
    dims = layout.dims
    a, b = (math.prod(dims[k] for k in fs) for fs in (wire_in, wire_out))
    d_rest = math.prod(dims[k] for k in inputs)
    m = tensor(
        # a channel needs k * b >= a Kraus operators
        random_channel_cj(rng, a, b, int(rng.integers(-(-a // b), a * b + 1))),
        random_density(rng, d_rest, int(rng.integers(1, d_rest + 1))),
        np.eye(math.prod(dims[k] for k in outputs)),
    )
    built = wire_in + wire_out + inputs + outputs
    perm = [built.index(k) for k in range(layout.n_factors)]
    return permute_factors(m, [dims[k] for k in built], perm)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@PROPERTY_SETTINGS
@given(
    layout=layouts(max_dim=16),
    parts=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_count_matches_averaged_projector(layout, parts, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(parts))
    m = sum(p * random_ordered_process(rng, layout) for p in weights)
    w = ProcessMatrix(layout, m)
    assert validate(w).valid
    assert support_intersection_dim(w) == averaged_projector_intersection_dim(w)


class TestIsExtremal:
    def test_ocb_process_extremal_with_certificate(self):
        cert = is_extremal(w_ocb())
        assert bool(cert)
        assert cert.extremal
        assert cert.intersection_dim == 1
        assert cert.support_rank == 8

    def test_switch_extremal(self):
        assert is_extremal(quantum_switch()).extremal

    def test_two_way_channel_mixture_not_extremal(self):
        ab, ba = identity_channel("a_to_b"), identity_channel("b_to_a")
        mix = ProcessMatrix(BIP, (ab.matrix + ba.matrix) / 2)
        cert = is_extremal(mix)
        assert not cert
        assert cert.intersection_dim > 1
        # both decomposition members sit inside the intersection
        pair = subspace_pair(mix)
        for member in (ab, ba):
            v = coefficient_tensor(member.matrix, BIP).reshape(-1).real
            assert np.abs(pair.p_t @ v - v).max() <= 1e-9
            assert np.abs(pair.p_v @ v - v).max() <= 1e-9

    def test_mixed_input_identity_channel_not_extremal(self):
        cert = is_extremal(identity_channel())
        assert not cert.extremal
        assert cert.intersection_dim == 4

    @pytest.mark.parametrize(
        "w",
        [w_ocb(), quantum_switch(), identity_channel(), ProcessMatrix(BIP, np.eye(16) / 4)],
        ids=["wocb", "switch", "identity-channel", "maximally-mixed"],
    )
    def test_margin_is_the_distance_to_the_threshold(self, w):
        # eigenvalues of R_F R_F^T from the coefficient rows, an independent
        # route to the spectrum the count thresholds
        cert = is_extremal(w)
        assert cert.tolerance == 1e-8
        rows = _coefficient_rows(
            _support_operator_basis(_support(w)[0]), w.layout
        )
        r_f = rows[:, ~allowed_mask(w.layout).reshape(-1)]
        mu = np.linalg.eigvalsh(r_f @ r_f.T)
        assert cert.intersection_dim == int(np.sum(mu <= 2e-8))
        left_out = mu[mu > 2e-8]
        if left_out.size:
            assert abs(cert.margin - (left_out.min() - 2e-8)) <= 1e-12
            assert cert.margin > 0.01
        else:
            assert cert.margin == math.inf

    def test_pure_input_unitary_channel_extremal(self):
        w = identity_channel(rho=np.diag([1.0, 0.0]))
        cert = is_extremal(w)
        assert cert.extremal
        assert cert.support_rank == 2


# the certify workload's layout: two full parties and an input-only party
CERTIFY_LAYOUT = SpaceLayout.build(
    [("A_I", 2), ("A_O", 2), ("B_I", 2), ("B_O", 2), ("C_I", 2)],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"]), ("C", ["C_I"], [])],
)
QUTRIT_QUBIT = SpaceLayout.build(
    [("A_I", 3), ("A_O", 2), ("B_I", 2)],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], [])],
)
QUTRIT_BIPARTITE = SpaceLayout.build(
    [("A_I", 3), ("A_O", 3), ("B_I", 3), ("B_O", 3)],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
)


def maximally_mixed(layout):
    return ProcessMatrix(layout, np.eye(layout.dim) * (layout.d_out / layout.dim))


def certify_mixed_item(q=0.4):
    """A pure chain A, then B, then C mixed with the maximally mixed process."""
    phi = np.array([0.6, 0.8j])
    wire = np.eye(2)  # |1>> on an output and the next input
    vec = np.einsum("a,bc,de->abcde", phi, wire, wire).reshape(-1)
    pure = np.outer(vec, vec.conj())
    return ProcessMatrix(CERTIFY_LAYOUT, (1 - q) * pure + q * np.eye(32) * (4 / 32))


def full_rank_qutrit_qubit(seed=3):
    rng = np.random.default_rng(seed)
    ordered = random_ordered_process(rng, QUTRIT_QUBIT)
    mixed = maximally_mixed(QUTRIT_QUBIT).matrix
    return ProcessMatrix(QUTRIT_QUBIT, (ordered + mixed) / 2)


def rank_one_short(layout, seed=5):
    """A valid process of rank ``dim - 1``: the maximally mixed one moved
    along a traceless allowed direction until its top eigenvalue's
    eigenvector leaves the support."""
    rng = np.random.default_rng(seed)
    shape = (layout.dim, layout.dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = hierarchy_projector(HierarchyLevel.process(layout))(g + g.conj().T)
    x = x - np.eye(layout.dim) * (np.trace(x).real / layout.dim)
    w0 = maximally_mixed(layout).matrix
    return ProcessMatrix(layout, w0 - x * (w0[0, 0] / np.linalg.eigvalsh(x)[-1]))


class TestFullRankShortcut:
    @pytest.mark.parametrize(
        "w, count",
        [
            (maximally_mixed(BIP), 88),
            (certify_mixed_item(), 856),
            (full_rank_qutrit_qubit(), int(allowed_mask(QUTRIT_QUBIT).sum())),
        ],
        ids=["maximally-mixed", "certify-mixed-item", "qutrit-qubit"],
    )
    def test_count_and_margin_match_the_gram(self, w, count):
        cert = is_extremal(w)
        dim, rank, margin = gram_intersection(w)
        assert rank == cert.support_rank == w.dim
        assert cert.intersection_dim == dim == count
        assert abs(cert.margin - margin) <= 1e-12
        assert cert.margin == 1.0 - 2 * cert.tolerance

    def test_full_rank_forms_no_gram(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_term_spectrum called at full rank")

        monkeypatch.setattr(pmx.extremality, "_term_spectrum", refuse)
        assert is_extremal(certify_mixed_item()).intersection_dim == 856
        assert support_intersection_dim(maximally_mixed(BIP)) == 88
        # the forbidden-term Gram here would be 5328 x 5328
        assert is_extremal(maximally_mixed(QUTRIT_BIPARTITE)).intersection_dim == 1233

    def test_rank_one_short_takes_the_gram(self, monkeypatch):
        w = rank_one_short(BIP)
        assert validate(w).valid
        assert _support(w)[0].shape[1] == w.dim - 1
        calls = []
        spectrum = pmx.extremality._term_spectrum

        def counted(*args):
            calls.append(args)
            return spectrum(*args)

        monkeypatch.setattr(pmx.extremality, "_term_spectrum", counted)
        cert = is_extremal(w)
        assert len(calls) == 1
        dim, rank, margin = gram_intersection(w)
        assert (cert.intersection_dim, cert.support_rank) == (dim, rank)
        assert cert.margin == margin

    def test_maximally_mixed_support_margin(self):
        # every eigenvalue is 1/4, so the nearest sits 1/4 (1 - 1e-9) above the cut
        cert = is_extremal(maximally_mixed(BIP))
        assert abs(cert.support_margin - 0.25 * (1 - SUPPORT_TOL)) <= 1e-16

    def test_ocb_support_margin(self):
        # the eight zero eigenvalues sit just below the cut 1e-9 * 0.5
        cert = is_extremal(w_ocb())
        assert cert.support_margin == pytest.approx(SUPPORT_TOL * 0.5, rel=1e-6)


class TestRankOne:
    def test_rank_one_forms_no_gram_and_builds_no_matrix(
        self, monkeypatch, no_dense_build
    ):
        def refuse(*args):
            raise AssertionError("_term_spectrum called at rank one")

        monkeypatch.setattr(pmx.extremality, "_term_spectrum", refuse)
        w = extended_switch()
        cert = is_extremal(w)
        assert (cert.extremal, cert.intersection_dim, cert.support_rank) == (True, 1, 1)
        assert cert.margin == math.inf
        v = w.vector
        assert cert.support_margin == SUPPORT_TOL * float(np.vdot(v, v).real)

    @pytest.mark.parametrize("held", ["vector", "matrix"])
    @pytest.mark.parametrize("make", [quantum_switch, extended_switch])
    def test_rank_one_agrees_with_its_gram(self, make, held):
        w = make()
        if held == "matrix":
            w = ProcessMatrix(w.layout, w.matrix)
        cert = is_extremal(w)
        assert gram_intersection(w) == (1, 1, math.inf)
        assert cert.intersection_dim == cert.support_rank == 1
        assert cert.margin == math.inf
        # the 1 x 1 Gram entry is within the bound validate implies
        forbidden = ~allowed_mask(w.layout).reshape(-1)
        (mu,) = _term_spectrum(_support(w)[0], w.layout.dims, forbidden)
        assert mu <= w.dim**2 * 1e-18 < 2 * INTERSECTION_TOL


# two parties, three qutrit factors and a qubit
QUTRITS_3332 = SpaceLayout.build(
    [("A_I", 3), ("A_O", 3), ("B_I", 3), ("B_O", 2)],
    [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
)


def gell_mann_spectrum(vecs, layout, mask):
    """The same Gram from the Gell-Mann coefficient rows of the support operators."""
    rows = _coefficient_rows(_support_operator_basis(vecs), layout)[:, mask]
    return np.linalg.eigvalsh(rows @ rows.T)


def assert_same_spectrum(got, want):
    """Same counts at both thresholds, same nonzero eigenvalues within 1e-12."""
    for count in (
        lambda x: int(np.sum(x > 2 * INTERSECTION_TOL)),
        lambda x: int(np.sum(np.abs(x - 1.0) <= DARIANO_TOL)),
    ):
        assert count(got) == count(want)
    got, want = np.sort(got[got > 1e-9]), np.sort(want[want > 1e-9])
    assert got.size == want.size
    assert np.abs(got - want).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize(
    "layout, rank, directions",
    [
        (QUTRIT_QUBIT, 5, ()),
        (QUTRITS_3332, 5, ("a_to_b", "b_to_a")),
        (QUTRITS_3332, 27, ()),
    ],
    ids=["qutrit-qubit-5", "3332-5", "3332-27"],
)
def test_term_spectrum_matches_the_gell_mann_route_at_d3(layout, rank, directions):
    # a transform acting with W_p^T would leave every Gram spectrum as it is:
    # the transposed terms of a support class span that class (at d = 2 each
    # is the term up to a sign), so each A_p is also compared with its term
    rng = np.random.default_rng(rank)
    shape = (layout.dim, rank)
    vecs = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    qdims = tuple(d * d for d in layout.dims)
    terms = compressed_terms(vecs, layout.dims).reshape(-1, rank, rank)
    for p, pattern in enumerate(np.ndindex(*qdims)):
        want = vecs.conj().T @ weyl_term(pattern, layout.dims) @ vecs
        assert np.abs(terms[p] - want).max() <= 1e-12
    masks = [~allowed_mask(layout).reshape(-1)]
    masks += [order_pattern_mask(layout, d) for d in directions]
    for mask in masks:
        got = _term_spectrum(vecs, layout.dims, mask)
        assert_same_spectrum(got, gell_mann_spectrum(vecs, layout, mask))


@pytest.mark.parametrize("direction", ["a_to_b", "b_to_a"])
def test_witness_order_terms_match_the_gell_mann_route(direction):
    cjm = (cj_of_unitary(np.eye(2)) + cj_of_unitary(X)) / 2
    w = memory_channel(np.eye(2) / 2, cjm, direction)
    mask = order_pattern_mask(w.layout, direction)
    vecs = _support(w)[0]
    want = gell_mann_spectrum(vecs, w.layout, mask)
    assert_same_spectrum(_term_spectrum(vecs, w.layout.dims, mask), want)
    rep = dariano_test(w, direction)
    assert rep.order_card == int(mask.sum())
    assert rep.rank == rep.total - int(np.sum(np.abs(want - 1.0) <= DARIANO_TOL))


class TestDarianoTest:
    def test_rank_eight_witness_counts(self):
        cjm = (cj_of_unitary(np.eye(2)) + cj_of_unitary(X)) / 2
        w = memory_channel(np.eye(2) / 2, cjm)
        assert _support(w)[0].shape[1] == 8
        rep = dariano_test(w)
        assert rep.support_card == 64
        assert rep.order_card == 204 == 3 * 4 * 4 * 4 + 3 * 4
        assert rep.total == 268
        assert rep.space_dim == 256
        assert rep.total > rep.space_dim
        assert not rep.independent

    def test_identity_channel_counts_and_verdict(self):
        rep = dariano_test(identity_channel())
        assert rep.support_card == 16
        assert rep.order_card == 204
        assert rep.total == 220
        assert not rep.independent
        assert rep.rank < rep.total

    def test_pure_input_channel_independent(self):
        rep = dariano_test(identity_channel(rho=np.diag([1.0, 0.0])))
        assert rep.support_card == 4
        assert rep.total == 208
        assert rep.independent
        assert rep.rank == 208

    def test_agreement_with_intersection_criterion(self):
        cases = [
            identity_channel(),
            identity_channel(rho=np.diag([1.0, 0.0])),
            identity_channel(rho=np.diag([0.9, 0.1])),
        ]
        for w in cases:
            assert dariano_test(w).independent == is_extremal(w).extremal

    def test_b_to_a_direction(self):
        cjm = (cj_of_unitary(np.eye(2)) + cj_of_unitary(X)) / 2
        w = memory_channel(np.eye(2) / 2, cjm, "b_to_a")
        rep = dariano_test(w, "b_to_a")
        assert rep.total == 268
        assert not rep.independent

    def test_rejects_process_without_stated_order(self):
        with pytest.raises(ValueError, match="causally ordered"):
            dariano_test(w_ocb())
        with pytest.raises(ValueError, match="causally ordered"):
            dariano_test(identity_channel(), "b_to_a")

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            dariano_test(identity_channel(), "sideways")

    @pytest.mark.parametrize(
        "make, message",
        [
            (quantum_switch, "dariano_test handles two-party layouts"),
            (
                # B has no output; the maximally mixed process is ordered
                # both ways
                lambda: ProcessMatrix(
                    SpaceLayout.build(
                        [("A_I", 2), ("A_O", 2), ("B_I", 2)],
                        [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], [])],
                    ),
                    np.eye(8) / 4,
                ),
                "party 'B' must have one input and one output",
            ),
        ],
        ids=["three-parties", "second-party-without-output"],
    )
    def test_rejects_a_layout_it_does_not_handle(self, make, message):
        with pytest.raises(ValueError, match=message):
            dariano_test(make())


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.sampled_from([2, 3]), min_size=4, max_size=4).filter(
        lambda dims: math.prod(dims) <= 24
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_dariano_rank_matches_the_svd_of_the_stacked_rows(dims, seed):
    # a qutrit factor makes the Weyl and Gell-Mann coordinates really differ;
    # a second one would make each oracle SVD take seconds
    layout = SpaceLayout.build(
        list(zip(["A_I", "A_O", "B_I", "B_O"], dims)),
        [("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"])],
    )
    rng = np.random.default_rng(seed)
    w = ProcessMatrix(layout, random_ordered_process(rng, layout))
    tried = 0
    for direction in ("a_to_b", "b_to_a"):
        try:
            rep = dariano_test(w, direction)
        except ValueError:
            continue
        tried += 1
        rank, rows = svd_dariano_rank(w, direction)
        assert rep.total == rows
        assert rep.rank == rank
        assert rep.independent == (rank == rows)
        assert rep.rank <= rep.space_dim
    assert tried >= 1


class TestNonReachability:
    def test_report_chain(self):
        rep = non_reachability_report()
        assert rep.passed
        assert rep.rank == 8
        assert rep.extremal
        assert rep.intersection_dim == 1
        assert rep.space_dim == 256
        for direction in ("a_to_b", "b_to_a"):
            branch = getattr(rep, direction)
            assert branch.direction == direction
            assert (branch.support_card, branch.order_card) == (64, 204)
            assert branch.total == 268 > rep.space_dim
            assert not branch.independent
        assert "rank-8" in rep.verdict

    def test_report_is_computed_once(self, monkeypatch):
        rep = non_reachability_report()

        def refuse(*args):
            raise AssertionError("the chain was computed again")

        monkeypatch.setattr(pmx.extremality, "_term_spectrum", refuse)
        monkeypatch.setattr(pmx.extremality, "is_extremal", refuse)
        assert non_reachability_report() is rep

    def test_wrapped_recomputes_an_equal_report(self):
        rep = non_reachability_report()
        fresh = non_reachability_report.__wrapped__()
        assert fresh is not rep
        for field in dataclasses.fields(rep):
            assert getattr(fresh, field.name) == getattr(rep, field.name)
        assert non_reachability_report() is rep

    def test_shared_report_is_frozen(self):
        rep = non_reachability_report()
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.rank = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.b_to_a.independent = True
