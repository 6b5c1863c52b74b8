"""Command-line front end: build, validate, verify, and sweep.

Processes travel as PMX files, a small JSON format that stores the factor
list (label, dimension, owning party, input or output role) next to the
matrix entries.  Entries are written as decimal strings of the underlying
IEEE-754 doubles, so a build-then-load round trip reproduces the matrix
bit for bit and golden files diff cleanly.

Exit codes follow one contract everywhere: 0 success (or valid), 1 a
well-formed input failed validation or a verify suite failed, 2 usage,
I/O, or format errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .extremality import non_reachability_report
from .operator_core import SpaceLayout, max_norm
from .process_space import (
    DEFAULT_TOL,
    ProcessMatrix,
    ValidationReport,
    bipartite_qubit_layout,
    causal_order_flags,
    cj_of_unitary,
    extended_switch,
    extended_switch_layout,
    memory_channel,
    quantum_switch,
    shared_state,
    single_party_layout,
    switch_input_channel,
    validate,
    w_ll,
    w_ocb,
)
from .rigidity import verify_rigidity
from .supermaps import (
    HierarchyLevel,
    apply,
    c_swap_v,
    hierarchy_projector,
    instrument_reduction,
    validate_order_n,
)

__all__ = ["PmxDocument", "PmxFormatError", "load_pmx", "main", "write_pmx"]

FORMAT_VERSION = "1"


class PmxFormatError(Exception):
    """Raised when a PMX file violates the format contract."""


@dataclass(frozen=True)
class PmxDocument:
    """In-memory image of one PMX file."""

    format_version: str
    factors: tuple[dict, ...]
    matrix: dict

    @classmethod
    def of_process(cls, w: ProcessMatrix) -> "PmxDocument":
        layout = w.layout
        roles = {}
        for party in layout.parties:
            for k in party.inputs:
                roles[k] = (party.name, "input")
            for k in party.outputs:
                roles[k] = (party.name, "output")
        factors = []
        for k, f in enumerate(layout.factors):
            party, role = roles[k]
            factors.append(
                {"label": f.label, "dim": f.dim, "party": party, "role": role}
            )
        entries = [
            [repr(float(v.real)), repr(float(v.imag))]
            for v in w.matrix.reshape(-1)
        ]
        matrix = {"dim": layout.dim, "entries": entries}
        return cls(FORMAT_VERSION, tuple(factors), matrix)

    def to_json(self) -> str:
        doc = {
            "format_version": self.format_version,
            "factors": list(self.factors),
            "matrix": self.matrix,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_process(self) -> ProcessMatrix:
        layout = self._layout()
        dim = self.matrix.get("dim")
        if dim != layout.dim:
            raise PmxFormatError(
                f"matrix dim {dim} does not match factor product {layout.dim}"
            )
        entries = self.matrix.get("entries")
        if not isinstance(entries, list) or len(entries) != dim * dim:
            raise PmxFormatError(
                f"matrix needs {dim * dim} entries, found "
                f"{len(entries) if isinstance(entries, list) else 'none'}"
            )
        try:
            flat = np.array(
                [complex(float(re), float(im)) for re, im in entries]
            )
        except (TypeError, ValueError) as exc:
            raise PmxFormatError(f"bad matrix entry: {exc}") from exc
        if not np.all(np.isfinite(flat)):
            bad = int(np.flatnonzero(~np.isfinite(flat))[0])
            raise PmxFormatError(f"matrix entry {bad} is not finite: {entries[bad]!r}")
        m = flat.reshape(dim, dim)
        if max_norm(m - m.conj().T) > 1e-9 * max(1.0, max_norm(m)):
            raise PmxFormatError("matrix is not Hermitian within 1e-9")
        return ProcessMatrix(layout, m)

    def _layout(self) -> SpaceLayout:
        if self.format_version != FORMAT_VERSION:
            raise PmxFormatError(
                f"unsupported format_version {self.format_version!r}"
            )
        if not self.factors:
            raise PmxFormatError("factor list is empty")
        pairs = []
        parties: dict[str, tuple[list, list]] = {}
        for f in self.factors:
            try:
                label, dim, party, role = (
                    f["label"],
                    f["dim"],
                    f["party"],
                    f["role"],
                )
            except (KeyError, TypeError) as exc:
                raise PmxFormatError(f"malformed factor record: {f!r}") from exc
            if role not in ("input", "output"):
                raise PmxFormatError(f"factor role must be input/output: {f!r}")
            # bool is an int subclass, so "dim": true would read as 1
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
                raise PmxFormatError(f"factor dim must be a positive int: {f!r}")
            pairs.append((label, dim))
            ins, outs = parties.setdefault(party, ([], []))
            (ins if role == "input" else outs).append(label)
        try:
            return SpaceLayout.build(
                pairs, [(name, ins, outs) for name, (ins, outs) in parties.items()]
            )
        except ValueError as exc:
            raise PmxFormatError(f"inconsistent factor list: {exc}") from exc


def write_pmx(path: str, w: ProcessMatrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(PmxDocument.of_process(w).to_json())


def load_pmx(path: str) -> ProcessMatrix:
    with open(path, encoding="ascii") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PmxFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise PmxFormatError("top level must be an object")
    doc = PmxDocument(
        str(raw.get("format_version")),
        tuple(raw.get("factors") or ()),
        raw.get("matrix") or {},
    )
    return doc.to_process()


def _parse_amplitudes(text: str) -> np.ndarray:
    try:
        return np.array([complex(part) for part in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad amplitude list {text!r}: {exc}")


def _global_tol() -> float:
    raw = os.environ.get("PMX_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        print(f"error: PMX_TOL={raw!r} is not a number", file=sys.stderr)
        raise SystemExit(2)


def _build_named(name: str, psi: np.ndarray | None) -> ProcessMatrix:
    if name == "state":
        if psi is None:
            return shared_state(np.eye(4) / 4)
        return shared_state(np.outer(psi, psi.conj()))
    if name == "channel":
        return memory_channel(np.eye(2) / 2, cj_of_unitary(np.eye(2)))
    if name == "wocb":
        return w_ocb()
    if name == "wll":
        return w_ll()
    if name == "switch":
        return quantum_switch(psi)
    if name == "extended-switch":
        return extended_switch(psi)
    raise KeyError(name)


def cmd_build(args: argparse.Namespace) -> int:
    psi = args.psi
    if psi is not None:
        norm = float(np.linalg.norm(psi))
        if norm == 0.0:
            print("error: --psi must not be the zero vector", file=sys.stderr)
            return 2
        psi = psi / norm
    try:
        w = _build_named(args.name, psi)
    except KeyError:
        print(f"error: unknown process name {args.name!r}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        write_pmx(args.out, w)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out} ({w.layout.dim} x {w.layout.dim})")
    return 0


def _print_report(report: ValidationReport) -> None:
    for cond in report.conditions:
        print(f"{cond.name}_residual={cond.residual:.3e}")
    failed = [c.name for c in report.conditions if not c.passed]
    print(f"failed={','.join(failed) if failed else 'none'}")
    print(f"verdict={'valid' if report.valid else 'invalid'}")


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        w = load_pmx(args.file)
    except (OSError, PmxFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = validate(w, tol=_global_tol())
    _print_report(report)
    return 0 if report.valid else 1


class _Checks:
    def __init__(self) -> None:
        self.ok = True

    def line(self, text: str, passed: bool) -> None:
        self.ok = self.ok and passed
        print(f"{text} {'PASS' if passed else 'FAIL'}")

    def finish(self, suite: str) -> int:
        print(f"suite={suite} overall={'PASS' if self.ok else 'FAIL'}")
        return 0 if self.ok else 1


def _verify_rigidity(seed: int) -> int:
    checks = _Checks()
    rep = verify_rigidity(bipartite_qubit_layout(), seed=seed)
    checks.line(f"kernel_dim={rep.kernel_dim} expected=12", rep.kernel_dim == 12)
    checks.line(
        f"single_body_dim={rep.single_body_dim} expected=12",
        rep.single_body_dim == 12,
    )
    checks.line(f"spans_match={str(rep.spans_match).lower()}", rep.spans_match)
    checks.line(
        f"conjugation_ok={str(rep.conjugation_ok).lower()}", rep.conjugation_ok
    )
    small = verify_rigidity(single_party_layout(), seed=seed)
    checks.line(
        f"single_party_kernel_dim={small.kernel_dim} expected=6",
        small.kernel_dim == 6 and small.passed,
    )
    return checks.finish("rigidity")


def _verify_extremality() -> int:
    checks = _Checks()
    rep = non_reachability_report()
    checks.line(f"wocb_rank={rep.rank} expected=8", rep.rank == 8)
    checks.line(
        f"intersection_dim={rep.intersection_dim} expected=1",
        rep.intersection_dim == 1,
    )
    checks.line(
        f"dariano_card={rep.a_to_b.total} space_dim={rep.space_dim}",
        rep.a_to_b.total == 268 and rep.a_to_b.total > rep.space_dim,
    )
    checks.line(
        f"dependent_both_directions="
        f"{str(not (rep.a_to_b.independent or rep.b_to_a.independent)).lower()}",
        not (rep.a_to_b.independent or rep.b_to_a.independent),
    )
    checks.line(f"chain_passed={str(rep.passed).lower()}", rep.passed)
    return checks.finish("extremality")


def _verify_hierarchy(seed: int) -> int:
    checks = _Checks()
    rng = np.random.default_rng(seed)
    level = HierarchyLevel.process(single_party_layout())
    expected_constants = (2.0, 4.0, 16.0)
    for n in (1, 2, 3):
        project = hierarchy_projector(level)
        d = level.dim
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        once = project(h)
        resid = max_norm(project(once) - once)
        checks.line(f"level{n}_idempotence_residual={resid:.3e}", resid <= 1e-10)
        checks.line(
            f"level{n}_trace_constant={level.trace_constant:g} "
            f"expected={expected_constants[n - 1]:g}",
            level.trace_constant == expected_constants[n - 1],
        )
        if n < 3:
            level = HierarchyLevel.pair(level, level)
    toy = HierarchyLevel.process(single_party_layout())
    pair = HierarchyLevel.pair(toy, toy)
    depolarizing = np.eye(pair.dim) * (pair.trace_constant / pair.dim)
    rep = validate_order_n(depolarizing, pair)
    checks.line(
        f"level2_depolarizing_valid={str(rep.valid).lower()}", rep.valid
    )
    return checks.finish("hierarchy")


def _verify_switch() -> int:
    checks = _Checks()
    out = apply(c_swap_v(), switch_input_channel())
    resid = max_norm(out.matrix - quantum_switch().matrix)
    checks.line(f"cswap_output_residual={resid:.3e} tol=1e-10", resid <= 1e-10)
    checks.line(
        f"cswap_output_matches_switch={str(resid <= 1e-10).lower()}",
        resid <= 1e-10,
    )
    return checks.finish("switch")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "rigidity":
        return _verify_rigidity(args.seed)
    if args.suite == "extremality":
        return _verify_extremality()
    if args.suite == "hierarchy":
        return _verify_hierarchy(args.seed)
    if args.suite == "switch":
        return _verify_switch()
    print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
    return 2


def cmd_sweep(args: argparse.Namespace) -> int:
    layout = extended_switch_layout()
    w4 = extended_switch()
    sw = quantum_switch()
    sw_norm = math.sqrt(float(np.trace(sw.matrix @ sw.matrix).real))
    for lam in args.lambdas:
        rot = np.array(
            [
                [math.cos(lam), -math.sin(lam)],
                [math.sin(lam), math.cos(lam)],
            ]
        )
        out = apply(instrument_reduction(layout, "D", cj_of_unitary(rot)), w4)
        report = validate(out, tol=_global_tol())
        overlap = float(np.trace(out.matrix @ sw.matrix).real) / (
            math.sqrt(float(np.trace(out.matrix @ out.matrix).real)) * sw_norm
        )
        flag = causal_order_flags(out)
        print(
            f"lambda={lam:g} valid={str(report.valid).lower()} "
            f"flags={flag.value} overlap={overlap:.12f}"
        )
    return 0


def _lambda_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lambda list {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmx",
        description="Build, validate, and verify process matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a named process to a PMX file")
    p_build.add_argument(
        "name",
        help="state, channel, wocb, wll, switch, or extended-switch",
    )
    p_build.add_argument(
        "--psi",
        type=_parse_amplitudes,
        default=None,
        help="comma-separated complex amplitudes for the constructor",
    )
    p_build.add_argument("-o", "--out", required=True, help="output file path")
    p_build.set_defaults(func=cmd_build)

    p_val = sub.add_parser("validate", help="validate a PMX file")
    p_val.add_argument("file")
    p_val.set_defaults(func=cmd_validate)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "suite", choices=["rigidity", "extremality", "hierarchy", "switch"]
    )
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="reduce the extended switch across rotation angles"
    )
    p_sweep.add_argument("--lambdas", type=_lambda_list, required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
