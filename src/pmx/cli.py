"""Command-line front end: build, validate, verify, and sweep.

Processes travel as PMX files, a small JSON format that stores the factor
list (label, dimension, owning party, input or output role) next to the
matrix entries.  Entries are written as decimal strings of the underlying
IEEE-754 doubles, so a build-then-load round trip reproduces the matrix
bit for bit and golden files diff cleanly.  The writer formats each
distinct 16-byte entry pattern once and joins the entries by index; the
bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``.

Exit codes follow one contract everywhere: 0 success (or valid), 1 a
well-formed input failed validation or a verify suite failed, 2 usage,
I/O, or format errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

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
    switch_layout,
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

    format_version: object  # as read: any value but the string "1" is refused
    factors: tuple[dict, ...]
    matrix: dict

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline."""
        doc = {
            "format_version": self.format_version,
            "factors": list(self.factors),
            "matrix": self.matrix,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_process(self) -> ProcessMatrix:
        """Check the document; ``ProcessMatrix`` checks Hermiticity at DEFAULT_TOL."""
        layout = self._layout()
        dim = self.matrix.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise PmxFormatError(f"matrix dim must be an int: {dim!r}")
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
        # bool is an int subclass, so float(true) would read as 1.0; the
        # exact type test keeps true and false out
        if (
            set(map(type, entries)) != {list}
            or set(map(len, entries)) != {2}
            or not set(map(type, chain.from_iterable(entries))) <= {str, int, float}
        ):
            raise PmxFormatError("matrix entries must be [re, im] numbers or strings")
        try:
            parts = map(float, chain.from_iterable(entries))
            flat = np.fromiter(parts, float, 2 * len(entries)).view(complex)
        except (ValueError, OverflowError) as exc:
            raise PmxFormatError(f"bad matrix entry: {exc}") from exc
        if not np.all(np.isfinite(flat)):
            bad = int(np.flatnonzero(~np.isfinite(flat))[0])
            raise PmxFormatError(f"matrix entry {bad} is not finite: {entries[bad]!r}")
        try:
            return ProcessMatrix(layout, flat.reshape(dim, dim))
        except ValueError as exc:
            raise PmxFormatError("matrix is not Hermitian within 1e-9") from exc

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
            if not isinstance(label, str) or not isinstance(party, str):
                raise PmxFormatError(f"factor label and party must be strings: {f!r}")
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


def _factor_records(layout: SpaceLayout) -> tuple[dict, ...]:
    roles = {}
    for party in layout.parties:
        roles.update({k: (party.name, "input") for k in party.inputs})
        roles.update({k: (party.name, "output") for k in party.outputs})
    return tuple(
        {"label": f.label, "dim": f.dim, "party": roles[k][0], "role": roles[k][1]}
        for k, f in enumerate(layout.factors)
    )


# matrix entries sit at depth 3 of the document, their strings at depth 4
_ENTRIES_SLOT = "<pmx matrix entries>"
_ENTRY_TEMPLATE = "      [\n        {},\n        {}\n      ]"


def _entries_json(m: np.ndarray) -> str:
    """``m``'s entries list as indented in a PMX file, one format per distinct
    bit pattern (patterns, not values, so ``-0.0`` keeps its sign)."""
    bits, inverse = np.unique(m.reshape(-1).view("V16"), return_inverse=True)
    enc = encode_basestring_ascii
    texts = [
        _ENTRY_TEMPLATE.format(enc(repr(z.real)), enc(repr(z.imag)))
        for z in bits.view(complex).tolist()
    ]
    return "[\n" + ",\n".join(np.array(texts, dtype=object)[inverse]) + "\n    ]"


def write_pmx(path: str, w: ProcessMatrix) -> None:
    """Write the ``to_json`` bytes of ``w``'s document, whose entries are
    ``[repr(re), repr(im)]`` in row-major order: the document around a
    placeholder, with ``_entries_json`` in its place."""
    matrix = {"dim": w.layout.dim, "entries": _ENTRIES_SLOT}
    text = PmxDocument(FORMAT_VERSION, _factor_records(w.layout), matrix).to_json()
    head, _, tail = text.rpartition(json.dumps(_ENTRIES_SLOT))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{head}{_entries_json(w.matrix)}{tail}")


def load_pmx(path: str) -> ProcessMatrix:
    """Read a PMX file and check it against the format contract.

    Raises ``PmxFormatError`` when the file is not ASCII JSON, is nested
    deeper than the parser's recursion limit, or has no top-level object;
    when ``format_version`` is not ``"1"``; when the factor list is empty,
    a factor record lacks a string label or party, a role of ``input`` or
    ``output``, or a positive int dim, or the records do not form a layout;
    when ``matrix.dim`` is not the int product of the factor dims or the
    entries are not ``dim * dim`` pairs of numbers or decimal strings;
    when an entry does not parse as a finite float; and when the matrix is
    not Hermitian within 1e-9.  ``OSError`` passes through.

    Python's cyclic garbage collector is paused, process-wide, for the
    whole call: a d = 256 file parses into about 65k ``[re, im]`` lists,
    enough allocations to set off full collections that would add about
    half again to the load.  The lists hold no cycles, so reference
    counting frees them inside the pause and the pause keeps no memory.
    The collector is switched back on only if it was on before.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # the document and its entry lists are freed when this call returns,
        # before the finally clause turns the collector back on
        return _load_document(path).to_process()
    except RecursionError as exc:
        raise PmxFormatError(f"document is nested too deeply: {exc}") from exc
    finally:
        if was_enabled:
            gc.enable()


def _load_document(path: str) -> PmxDocument:
    with open(path, encoding="ascii") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PmxFormatError(f"not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise PmxFormatError(f"not ASCII text: {exc}") from exc
    if not isinstance(raw, dict):
        raise PmxFormatError("top level must be an object")
    factors = raw.get("factors") or []
    matrix = raw.get("matrix") or {}
    if not isinstance(factors, list):
        raise PmxFormatError("factors must be a list")
    if not isinstance(matrix, dict):
        raise PmxFormatError("matrix must be an object")
    return PmxDocument(raw.get("format_version"), tuple(factors), matrix)


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
        tol = float(raw)
    except ValueError:
        tol = math.nan
    # nan passes no comparison, a negative tolerance fails every check and
    # inf passes anything: each is a usage error, like a non-number
    if not 0.0 <= tol < math.inf:
        print(f"error: PMX_TOL={raw!r} is not a finite number >= 0", file=sys.stderr)
        raise SystemExit(2)
    return tol


def _build_named(name: str, psi: np.ndarray | None) -> ProcessMatrix:
    if psi is not None and name in ("channel", "wocb", "wll"):
        raise ValueError(
            f"{name} takes no --psi; the processes that take amplitudes are "
            "state, switch and extended-switch"
        )
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


# the plain norm squares each amplitude, which overflows or underflows when
# the largest one lies outside this range; such a vector is divided by its
# largest amplitude first
_PLAIN_NORM_SCALES = (1e-150, 1e150)


def cmd_build(args: argparse.Namespace) -> int:
    psi = args.psi
    if psi is not None:
        if not np.all(np.isfinite(psi)):
            print("error: --psi amplitudes must be finite", file=sys.stderr)
            return 2
        parts = psi.view(float)  # real and imaginary parts, interleaved
        scale = float(np.abs(parts).max())
        if scale == 0.0:
            print("error: --psi must not be the zero vector", file=sys.stderr)
            return 2
        if not _PLAIN_NORM_SCALES[0] <= scale <= _PLAIN_NORM_SCALES[1]:
            # part by part: a complex division would use 1 / scale, which
            # overflows for a subnormal scale
            psi = (parts / scale).view(complex)
        psi = psi / float(np.linalg.norm(psi))
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


def _verify_rigidity() -> int:
    checks = _Checks()
    rep = verify_rigidity(bipartite_qubit_layout())
    checks.line(f"kernel_dim={rep.kernel_dim} expected=12", rep.kernel_dim == 12)
    checks.line(
        f"single_body_dim={rep.single_body_dim} expected=12",
        rep.single_body_dim == 12,
    )
    checks.line(f"spans_match={str(rep.spans_match).lower()}", rep.spans_match)
    small = verify_rigidity(single_party_layout())
    checks.line(
        f"single_party_kernel_dim={small.kernel_dim} expected=6",
        small.kernel_dim == 6 and small.passed,
    )
    switch = verify_rigidity(switch_layout())
    checks.line(
        f"switch_kernel_dim={switch.kernel_dim} expected=27",
        switch.kernel_dim == 27 and switch.spans_match,
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
        # the residual itself is rounding noise near 1e-16, so only the
        # verdict against the bound is printed
        checks.line(f"level{n}_idempotence_residual<=1e-10", resid <= 1e-10)
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


# pmx verify's suites by name, each called with the --seed value, which only
# the hierarchy suite reads; the names are also the parser's choices
_SUITES = {
    "rigidity": lambda seed: _verify_rigidity(),
    "extremality": lambda seed: _verify_extremality(),
    "hierarchy": _verify_hierarchy,
    "switch": lambda seed: _verify_switch(),
}


def cmd_verify(args: argparse.Namespace) -> int:
    return _SUITES[args.suite](args.seed)


def cmd_sweep(args: argparse.Namespace) -> int:
    tol = _global_tol()
    layout = extended_switch_layout()
    w4 = extended_switch()
    sw = quantum_switch()
    # Tr(A B) = vdot(A, B) for Hermitian A, so no matrix product is formed
    sw_norm = math.sqrt(float(np.vdot(sw.matrix, sw.matrix).real))
    for lam in args.lambdas:
        rot = np.array(
            [
                [math.cos(lam), -math.sin(lam)],
                [math.sin(lam), math.cos(lam)],
            ]
        )
        out = apply(instrument_reduction(layout, "D", cj_of_unitary(rot)), w4)
        report = validate(out, tol=tol)
        overlap = float(np.vdot(out.matrix, sw.matrix).real) / (
            math.sqrt(float(np.vdot(out.matrix, out.matrix).real)) * sw_norm
        )
        flag = causal_order_flags(out)
        print(
            f"lambda={lam:g} valid={str(report.valid).lower()} "
            f"flags={flag.value} overlap={overlap:.12f}"
        )
    return 0


def _lambda_list(text: str) -> list[float]:
    try:
        lambdas = [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lambda list {text!r}: {exc}")
    if not lambdas:
        raise argparse.ArgumentTypeError(f"lambda list {text!r} is empty")
    if not all(map(math.isfinite, lambdas)):
        raise argparse.ArgumentTypeError(f"lambda list {text!r} is not finite")
    return lambdas


def _seed(text: str) -> int:
    # numpy's default_rng takes ints >= 0 only
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an int >= 0")
    return int(text)


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
    p_ver.add_argument("suite", choices=list(_SUITES))
    p_ver.add_argument(
        "--seed",
        type=_seed,
        default=42,
        help="seed of the hierarchy suite's random operators; other suites ignore it",
    )
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
