"""The benchmark's four workloads: seeded input pools, one operation, its checks.

Each workload class builds a pool of inputs from the seed (one *pass*), a
``run`` method that performs one operation through pmx and returns what the
checks need, and a ``check`` method that compares that result with values
computed apart from pmx or with properties the method must have.  Checks go
through :class:`Checks`, which can make one named expected value wrong on
purpose so the quick mode can show that every check fires.

All pmx calls go through the ``pmx`` package namespace at call time, so the
traced run sees them once the tracer has patched the bindings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import pmx
import pmx.cli

# fixed reduction angles of the sweep; 0 and pi/2 pick one order each
LAMBDAS = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


class CheckFailed(Exception):
    """An operation's output disagrees with its expected value."""


def _wrong(expected):
    if isinstance(expected, (bool, np.bool_)):
        return not expected
    if isinstance(expected, str):
        return expected + "-wrong"
    return expected + 1


class Checks:
    """Named comparisons of one operation's outputs with expected values.

    ``tamper`` names one check whose expected value is replaced by a wrong
    one; ``names`` lists every check made, in order.
    """

    def __init__(self, tamper: str | None = None) -> None:
        self.tamper = tamper
        self.names: list[str] = []

    def _expected(self, name: str, expected):
        self.names.append(name)
        return _wrong(expected) if name == self.tamper else expected

    def equal(self, name: str, actual, expected) -> None:
        expected = self._expected(name, expected)
        if isinstance(actual, np.ndarray) or isinstance(expected, np.ndarray):
            ok = np.array_equal(actual, expected)
        else:
            ok = actual == expected
        if not ok:
            raise CheckFailed(f"{name}: got {actual!r}, expected {expected!r}")

    def close(self, name: str, actual, expected, atol: float) -> None:
        expected = self._expected(name, expected)
        err = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
        if not err <= atol:
            raise CheckFailed(f"{name}: off by {err:.3e}, tolerance {atol:.1e}")


# ---------------------------------------------------------------------------
# seeded inputs and references computed with numpy alone
# ---------------------------------------------------------------------------


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(ch) for ch in workload)
    return np.random.default_rng([tag, seed % 2**63])


def _random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _switch_branches(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both wirings of the qubit switch on (A_I, B_I, A_O, B_O, C_T).

    ``abc``: the target enters A, A's output feeds B, B's output is the
    read-out; ``bac`` is the same wiring with the A and B slots exchanged.
    """
    eye = np.eye(2)
    abc = np.einsum("a,ic,je->aicje", psi, eye, eye)
    bac = abc.transpose(1, 0, 3, 2, 4)
    return abc.reshape(-1), bac.reshape(-1)


def _measure_prepare(
    rng: np.random.Generator, d_in: int, d_out: int
) -> list[np.ndarray]:
    """CJ elements of measuring in a seeded basis and preparing seeded states."""
    basis = _random_unitary(rng, d_in)
    elements = []
    for k in range(d_in):
        effect = _projector(basis[:, k]).T
        prepared = _projector(_random_state(rng, d_out)) if d_out > 1 else np.ones((1, 1))
        elements.append(np.kron(effect, prepared))
    return elements


# ---------------------------------------------------------------------------
# sweep: the extended switch reduced by party D across angles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepItem:
    psi: np.ndarray
    instruments: tuple


class Sweep:
    """Validate the extended switch, then reduce it by D at each fixed angle."""

    name = "sweep"
    pool_size = 8

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, self.name)
        reduced = pmx.switch_layout()
        self.layout = pmx.extended_switch_layout()
        self.pool = []
        for _ in range(self.pool_size):
            psi = _random_state(rng, 2)
            instruments = (
                pmx.Instrument.from_party(reduced, "A", _measure_prepare(rng, 2, 2)),
                pmx.Instrument.from_party(reduced, "B", _measure_prepare(rng, 2, 2)),
                pmx.Instrument.from_party(reduced, "C", _measure_prepare(rng, 4, 1)),
            )
            self.pool.append(SweepItem(psi, instruments))

    def warm_up(self) -> None:
        self.run(self.pool[0])

    def run(self, item: SweepItem):
        w4 = pmx.extended_switch(item.psi)
        input_valid = pmx.validate(w4).valid
        sw = pmx.quantum_switch(item.psi).matrix
        sw_norm = np.linalg.norm(sw)
        points = []
        for lam in LAMBDAS:
            rot = np.array(
                [[math.cos(lam), -math.sin(lam)], [math.sin(lam), math.cos(lam)]]
            )
            reduction = pmx.instrument_reduction(self.layout, "D", pmx.cj_of_unitary(rot))
            out = pmx.apply(reduction, w4)
            valid = pmx.validate(out).valid
            flag = pmx.causal_order_flags(out)
            overlap = float(np.vdot(out.matrix, sw).real) / (
                np.linalg.norm(out.matrix) * sw_norm
            )
            probs = pmx.born_probabilities(out, item.instruments, check=False)
            points.append((out.matrix, valid, flag, overlap, probs))
        return input_valid, points

    def check(self, item: SweepItem, result, chk: Checks) -> None:
        input_valid, points = result
        chk.equal("input_valid", input_valid, True)
        for lam, (matrix, valid, flag, overlap, probs) in zip(LAMBDAS, points):
            at = f"[lambda={lam:.4f}]"
            chk.equal("reduced_valid" + at, valid, True)
            chk.close("reduced_trace" + at, np.trace(matrix).real, 4.0, 1e-9)
            expected_overlap = (math.cos(lam) + math.sin(lam)) ** 2 / 2
            chk.close("overlap" + at, overlap, expected_overlap, 1e-9)
            if lam == 0.0:
                expected_flag = "A_to_B"
            elif lam == math.pi / 2:
                expected_flag = "B_to_A"
            else:
                expected_flag = "neither"
            chk.equal("flag" + at, flag.value, expected_flag)
            chk.equal("born_nonnegative" + at, bool(probs.min() >= -1e-12), True)
            chk.close("born_sum" + at, probs.sum(), 1.0, 1e-9)


# ---------------------------------------------------------------------------
# files: pmx build extended-switch, then pmx validate, through pmx.cli.main
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilesItem:
    psi_text: str  # the --psi argument, comma-separated complex amplitudes


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = pmx.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _read_pmx_entries(path: str) -> np.ndarray:
    """The matrix of a PMX file, parsed with json and float alone."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    dim = doc["matrix"]["dim"]
    flat = np.array([complex(float(re), float(im)) for re, im in doc["matrix"]["entries"]])
    return flat.reshape(dim, dim)


class Files:
    """Write a d = 256 PMX file with the CLI, then validate it with the CLI."""

    name = "files"
    pool_size = 4

    def __init__(self, seed: int, workdir: str) -> None:
        rng = _rng(seed, self.name)
        self.path = os.path.join(workdir, "extended-switch.pmx")
        self.pool = []
        for _ in range(self.pool_size):
            # unnormalized on purpose: the CLI normalizes --psi
            psi = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * rng.uniform(0.5, 2.0)
            self.pool.append(FilesItem(",".join(repr(complex(a)) for a in psi)))

    def warm_up(self) -> None:
        self.run(self.pool[0])

    def run(self, item: FilesItem):
        build = _cli(["build", "extended-switch", f"--psi={item.psi_text}", "-o", self.path])
        check = _cli(["validate", self.path])
        return build, check

    def check(self, item: FilesItem, result, chk: Checks) -> None:
        (build_code, _), (validate_code, text) = result
        chk.equal("build_exit", build_code, 0)
        chk.equal("validate_exit", validate_code, 0)
        verdicts = [line for line in text.splitlines() if line.startswith("verdict=")]
        chk.equal("verdict", verdicts[-1] if verdicts else "", "verdict=valid")
        psi = np.array([complex(part) for part in item.psi_text.split(",")])
        expected = pmx.extended_switch(psi / float(np.linalg.norm(psi))).matrix
        loaded = _read_pmx_entries(self.path)
        chk.equal("round_trip_bits", loaded.view(np.uint64), expected.view(np.uint64))


# ---------------------------------------------------------------------------
# supermap: validate_supermap and apply on the switch layout (CJ 4096 x 4096)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupermapItem:
    kind: str  # "pure" or "dense"
    lam: float  # pure: the v_lambda angle
    p: float  # dense: the interpolation weight
    psi: np.ndarray  # pure: input target state; dense: switch target state
    psi_in: np.ndarray  # dense: target state of the input process


class Supermaps:
    """Alternate a pure supermap, v_lambda, with a dense interpolation map."""

    name = "supermap"
    pairs = 2

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, self.name)
        self.pool = []
        for _ in range(self.pairs):
            lam = float(rng.uniform(0.2, math.pi - 0.2))
            p = float(rng.uniform(0.2, 0.8))
            psi, psi_switch, psi_in = (_random_state(rng, 2) for _ in range(3))
            self.pool.append(SupermapItem("pure", lam, 0.0, psi, psi))
            self.pool.append(SupermapItem("dense", 0.0, p, psi_switch, psi_in))

    def warm_up(self) -> None:
        # fills the basis and mask caches without a full 12-qubit transform
        pmx.allowed_mask(pmx.switch_layout())
        toy = pmx.single_party_layout()
        w = pmx.shared_state(np.eye(2) / 2, toy)
        pmx.validate_supermap(pmx.interpolation_map(w, 0.5))
        pmx.validate_supermap(pmx.unitary_supermap(np.eye(toy.dim), toy))
        pmx.v_lambda(0.3)

    def run(self, item: SupermapItem):
        if item.kind == "pure":
            s = pmx.v_lambda(item.lam)
            w_in = pmx.switch_input_channel(item.psi)
        else:
            s = pmx.interpolation_map(pmx.quantum_switch(item.psi), item.p)
            w_in = pmx.switch_input_channel(item.psi_in)
        report = pmx.validate_supermap(s)
        out = pmx.apply(s, w_in)
        return tuple(c.passed for c in report.conditions), out.matrix

    def check(self, item: SupermapItem, result, chk: Checks) -> None:
        (positivity, trace, subspace), out = result
        chk.equal("positivity_passed", positivity, True)
        chk.equal("trace_passed", trace, True)
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        if item.kind == "pure":
            # the subspace condition holds only at integer multiples of pi
            chk.equal("subspace_passed", subspace, False)
            abc, bac = _switch_branches(item.psi)
            lam = item.lam
            turned = np.exp(1j * lam) * (math.cos(lam) * abc - 1j * math.sin(lam) * bac)
            v = (np.kron(abc, [1.0, 0.0]) + np.kron(turned, [0.0, 1.0])) / math.sqrt(2.0)
            chk.close("output", out, _projector(v), 1e-10)
        else:
            chk.equal("subspace_passed", subspace, True)
            abc, bac = _switch_branches(item.psi)
            target = _projector(
                (np.kron(abc, [1.0, 0.0]) + np.kron(bac, [0.0, 1.0])) / math.sqrt(2.0)
            )
            abc_in, _ = _switch_branches(item.psi_in)
            w_in = _projector(np.kron(abc_in, plus))
            chk.close("output", out, (1 - item.p) * w_in + item.p * target, 1e-10)


# ---------------------------------------------------------------------------
# certify: rigidity and extremality certificates on 5-qubit layouts
# ---------------------------------------------------------------------------

# two full parties and one input-only party; the seed shuffles the order
CERTIFY_FACTORS = ("A_I", "A_O", "B_I", "B_O", "C_I")
CERTIFY_PARTIES = (("A", ["A_I"], ["A_O"]), ("B", ["B_I"], ["B_O"]), ("C", ["C_I"], []))


@dataclass(frozen=True)
class CertifyItem:
    order: tuple[int, ...]  # layout factor k is CERTIFY_FACTORS[order[k]]
    pure: np.ndarray
    mixed: np.ndarray


def _ordered_chain(rng: np.random.Generator, order: tuple[int, ...]) -> np.ndarray:
    """Pure ordered process A then B then C: a state and two unitary channels.

    The vector is ``phi`` on A_I, ``(1 x U)|1>>`` on (A_O, B_I) and
    ``(1 x V)|1>>`` on (B_O, C_I), with its axes permuted to ``order``.
    """
    phi = _random_state(rng, 2)
    wire_ab = _random_unitary(rng, 2).T
    wire_bc = _random_unitary(rng, 2).T
    vec = np.einsum("a,bc,de->abcde", phi, wire_ab, wire_bc)
    return _projector(vec.transpose(order).reshape(-1))


class Certify:
    """verify_rigidity, is_extremal and the non-reachability chain."""

    name = "certify"
    pool_size = 4

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, self.name)
        self.pool = []
        for _ in range(self.pool_size):
            order = tuple(int(k) for k in rng.permutation(len(CERTIFY_FACTORS)))
            pure = _ordered_chain(rng, order)
            q = float(rng.uniform(0.2, 0.8))
            # trace d_out = 4 spread over d = 32
            mixed = (1 - q) * pure + q * np.eye(32) * (4 / 32)
            self.pool.append(CertifyItem(order, pure, mixed))

    @staticmethod
    def layout(order: tuple[int, ...]) -> pmx.SpaceLayout:
        return pmx.SpaceLayout.build(
            [(CERTIFY_FACTORS[k], 2) for k in order], CERTIFY_PARTIES
        )

    def warm_up(self) -> None:
        pmx.verify_rigidity(pmx.bipartite_qubit_layout())
        pmx.non_reachability_report()

    def run(self, item: CertifyItem):
        layout = self.layout(item.order)
        rigidity = pmx.verify_rigidity(layout)
        pure = pmx.is_extremal(pmx.ProcessMatrix(layout, item.pure))
        mixed = pmx.is_extremal(pmx.ProcessMatrix(layout, item.mixed))
        chain = pmx.non_reachability_report()
        return rigidity, pure.extremal, mixed.extremal, chain

    def check(self, item: CertifyItem, result, chk: Checks) -> None:
        rigidity, pure_extremal, mixed_extremal, chain = result
        single_body = sum(d * d - 1 for d in self.layout(item.order).dims)
        chk.equal("kernel_dim", rigidity.kernel_dim, single_body)
        chk.equal("rigidity_passed", rigidity.passed, True)
        chk.equal("pure_extremal", pure_extremal, True)
        lowest = float(np.linalg.eigvalsh(item.mixed)[0])
        chk.equal("mixed_full_rank", lowest > 1e-6, True)
        chk.equal("mixed_extremal", mixed_extremal, False)
        chk.equal("wocb_rank", chain.rank, 8)
        chk.equal("intersection_dim", chain.intersection_dim, 1)
        chk.equal("dariano_total", chain.a_to_b.total, 268)
        chk.equal("dariano_space_dim", chain.space_dim, 256)
        chk.equal("dariano_exceeds_space", chain.a_to_b.total > chain.space_dim, True)


WORKLOADS = {
    "sweep": Sweep,
    "files": Files,
    "supermap": Supermaps,
    "certify": Certify,
}


def make_workload(name: str, seed: int, workdir: str):
    """The named workload with its seeded pool built."""
    if name == "files":
        return Files(seed, workdir)
    return WORKLOADS[name](seed)
