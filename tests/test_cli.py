"""End-to-end checks for the pmx command line and the PMX file format."""

import gc
import json
import math
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pmx_document
from pmx.cli import (
    PmxDocument,
    PmxFormatError,
    build_parser,
    load_pmx,
    main,
    write_pmx,
)
from pmx.process_space import (
    ProcessMatrix,
    extended_switch,
    extended_switch_layout,
    quantum_switch,
    shared_state,
    switch_input_channel,
    w_ocb,
)
from test_order_projector import layouts

GOLDEN = Path(__file__).parent / "golden"

# signed zeros, the smallest subnormal, extreme exponents, inexact decimals
ENTRY_POOL = [0.0, -0.0, 5e-324, 1e-300, 1e300, 0.1, 1 / 3, 1.0, -2.0, 3.0]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def of_process_json(w):
    """The stdlib encoding of the entry-by-entry document of ``w``."""
    image = pmx_document(w)
    doc = {
        "format_version": image.format_version,
        "factors": list(image.factors),
        "matrix": image.matrix,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def complex_psi_switch():
    psi = np.array([1 + 2j, 3 - 1j])
    return extended_switch(psi / np.linalg.norm(psi))


def dense_distinct():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    return ProcessMatrix(extended_switch_layout(), g + g.conj().T)


@st.composite
def pooled_processes(draw):
    """Hermitian matrices on a drawn layout with entries from ``ENTRY_POOL``."""
    layout = draw(layouts(max_dim=16))
    d = layout.dim
    part = st.sampled_from(ENTRY_POOL)
    pairs = draw(st.lists(st.tuples(part, part), min_size=d * d, max_size=d * d))
    m = np.array(pairs, dtype=float).view(complex).reshape(d, d)
    # assignment, not addition, so the signs of zeros survive
    lower = np.tril_indices(d, -1)
    m[lower] = m.T[lower].conj()
    m.imag[np.diag_indices(d)] = np.copysign(0.0, m.imag.diagonal())
    return ProcessMatrix(layout, m)


class TestRoundTrip:
    def test_matrix_survives_bit_for_bit(self, tmp_path):
        path = tmp_path / "w.pmx"
        w = w_ocb()
        write_pmx(str(path), w)
        back = load_pmx(str(path))
        assert np.array_equal(back.matrix, w.matrix)

    @pytest.mark.parametrize(
        "build", [quantum_switch, switch_input_channel, complex_psi_switch]
    )
    def test_a_vector_held_process_writes_the_bytes_of_its_matrix(self, tmp_path, build):
        w = build()
        vec = w.vector
        held, dense = tmp_path / "held.pmx", tmp_path / "dense.pmx"
        write_pmx(str(held), w)
        write_pmx(str(dense), ProcessMatrix(w.layout, np.outer(vec, vec.conj())))
        assert held.read_bytes() == dense.read_bytes()
        back = load_pmx(str(held))
        assert back.vector is None
        assert np.array_equal(back.matrix.view(np.uint64), w.matrix.view(np.uint64))

    def test_layout_survives(self, tmp_path):
        path = tmp_path / "w.pmx"
        w = quantum_switch()
        write_pmx(str(path), w)
        back = load_pmx(str(path))
        assert [f.label for f in back.layout.factors] == [
            f.label for f in w.layout.factors
        ]
        assert [(p.name, p.inputs, p.outputs) for p in back.layout.parties] == [
            (p.name, p.inputs, p.outputs) for p in w.layout.parties
        ]

    def test_build_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.pmx", tmp_path / "b.pmx"
        assert run(capsys, "build", "wocb", "-o", str(a))[0] == 0
        assert run(capsys, "build", "wocb", "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_document_shape(self, tmp_path):
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w_ocb())
        doc = json.loads(path.read_text())
        assert doc["format_version"] == "1"
        assert len(doc["factors"]) == 4
        assert doc["matrix"]["dim"] == 16
        assert len(doc["matrix"]["entries"]) == 256
        # entries are decimal strings, not floats, so nothing is rounded
        re, im = doc["matrix"]["entries"][0]
        assert isinstance(re, str) and isinstance(im, str)
        for f in doc["factors"]:
            assert f["role"] in ("input", "output")


    def test_written_bytes_equal_json_dumps(self, tmp_path):
        # the template encoder in to_json must match the stdlib encoder
        w = extended_switch()
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w)
        doc = pmx_document(w)
        expected = json.dumps(
            {
                "format_version": doc.format_version,
                "factors": list(doc.factors),
                "matrix": doc.matrix,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
        assert path.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize(
        "make", [complex_psi_switch, dense_distinct], ids=["signed-zeros", "dense"]
    )
    def test_written_bytes_and_bits_of_other_matrices(self, make, tmp_path):
        # a dedup by value instead of by bit pattern would write -0.0 as 0.0
        w = make()
        flat = w.matrix.reshape(-1)
        patterns = len(np.unique(flat.view("V16")))
        if make is complex_psi_switch:
            assert patterns > len(np.unique(flat))
        else:
            assert patterns == flat.size
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w)
        assert path.read_bytes() == of_process_json(w).encode("ascii")
        back = load_pmx(str(path)).matrix
        assert np.array_equal(back.view(np.uint64), w.matrix.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(w=pooled_processes())
    def test_round_trip_of_pooled_entries(self, w, tmp_path_factory):
        path = tmp_path_factory.mktemp("pooled") / "w.pmx"
        write_pmx(str(path), w)
        assert path.read_bytes() == of_process_json(w).encode("ascii")
        back = load_pmx(str(path)).matrix
        assert np.array_equal(back.view(np.uint64), w.matrix.view(np.uint64))

    def test_build_matches_golden_file(self, tmp_path, capsys):
        # pins the on-disk format apart from the stdlib encoder
        golden = GOLDEN / "build_wocb.pmx"
        path = tmp_path / "w.pmx"
        assert run(capsys, "build", "wocb", "-o", str(path))[0] == 0
        assert path.read_bytes() == golden.read_bytes()
        code, out, _ = run(capsys, "validate", str(golden))
        assert code == 0
        assert "verdict=valid" in out

    @pytest.mark.parametrize(
        "entries",
        [[], [["1.0", "0.0"], ["2.0"]], [["1.0", 0.0]], [["a\"b", "\u00e9\n"]]],
        ids=["empty", "short-pair", "non-string", "escaped"],
    )
    def test_to_json_of_other_entries_equals_json_dumps(self, entries):
        doc = PmxDocument("1", ({"label": "A_I", "dim": 1},), {"dim": 1, "entries": entries})
        expected = json.dumps(
            {"format_version": "1", "factors": list(doc.factors), "matrix": doc.matrix},
            indent=2,
            sort_keys=True,
        ) + "\n"
        assert doc.to_json() == expected


class TestBuildCommand:
    def test_unknown_name_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "bogus", "-o", str(tmp_path / "x"))
        assert code == 2
        assert "unknown process name" in err

    def test_switch_with_target_state(self, tmp_path, capsys):
        path = tmp_path / "sw.pmx"
        code, _, _ = run(capsys, "build", "switch", "--psi", "1,0", "-o", str(path))
        assert code == 0
        assert np.array_equal(load_pmx(str(path)).matrix, quantum_switch([1, 0]).matrix)

    def test_psi_is_normalized_before_use(self, tmp_path, capsys):
        path = tmp_path / "sw.pmx"
        code, _, _ = run(capsys, "build", "switch", "--psi", "3,4", "-o", str(path))
        assert code == 0
        want = quantum_switch([0.6, 0.8]).matrix
        assert np.abs(load_pmx(str(path)).matrix - want).max() <= 1e-12

    def test_ordinary_psi_is_divided_by_its_plain_norm(self, tmp_path, capsys):
        # the files benchmark checks its round trip against exactly this
        path = tmp_path / "sw.pmx"
        argv = ["build", "switch", "--psi", "1+2j,3-1j", "-o", str(path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        psi = np.array([1 + 2j, 3 - 1j])
        want = quantum_switch(psi / np.linalg.norm(psi)).matrix
        assert np.array_equal(load_pmx(str(path)).matrix, want)

    @pytest.mark.parametrize(
        "psi, same_as",
        [
            ("1e308,1e308", "1,1"),
            ("1e154,1e154", "1,1"),
            ("1e-160,1e-160", "1,1"),
            ("1e-200,0", "1,0"),
            ("1e-170,0", "1,0"),
            ("5e-324,0", "1,0"),
            ("1e308j,1e308j", "1j,1j"),
        ],
    )
    def test_extreme_psi_writes_the_scaled_process(
        self, tmp_path, capsys, psi, same_as
    ):
        got, want = tmp_path / "got.pmx", tmp_path / "want.pmx"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "build", "switch", "--psi", psi, "-o", str(got))
        assert code == 0 and err == ""
        assert run(capsys, "build", "switch", "--psi", same_as, "-o", str(want))[0] == 0
        assert got.read_bytes() == want.read_bytes()

    def test_zero_psi_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "switch", "--psi", "0,0", "-o", str(tmp_path / "x"))
        assert code == 2
        assert "zero vector" in err

    @pytest.mark.parametrize(
        "psi, message",
        [("1,0,0", "psi must have length 2"), ("nan,1", "--psi amplitudes must be finite")],
        ids=["length", "nan"],
    )
    def test_malformed_extended_switch_psi_exits_2(self, tmp_path, capsys, psi, message):
        path = tmp_path / "x"
        code, out, err = run(capsys, "build", "extended-switch", "--psi", psi, "-o", str(path))
        assert code == 2
        assert out == "" and err == f"error: {message}\n"
        assert not path.exists()

    @pytest.mark.parametrize("name", ["channel", "wocb", "wll"])
    def test_psi_for_a_process_without_amplitudes_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / "x"
        code, out, err = run(capsys, "build", name, "--psi", "1,0", "-o", str(path))
        assert code == 2
        assert out == "" and err == (
            f"error: {name} takes no --psi; the processes that take amplitudes "
            "are state, switch and extended-switch\n"
        )
        assert not path.exists()

    @pytest.mark.parametrize("psi", ["nan,1", "1,inf"], ids=["nan", "inf"])
    def test_non_finite_psi_exits_2(self, tmp_path, capsys, psi):
        path = tmp_path / "x"
        code, out, err = run(capsys, "build", "switch", "--psi", psi, "-o", str(path))
        assert code == 2
        assert out == "" and err == "error: --psi amplitudes must be finite\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "name", ["state", "channel", "wocb", "wll", "switch", "extended-switch"]
    )
    def test_every_named_process_builds(self, name, tmp_path, capsys):
        code, out, _ = run(capsys, "build", name, "-o", str(tmp_path / "w.pmx"))
        assert code == 0
        assert "wrote" in out


class TestValidateCommand:
    def test_valid_process_exits_0(self, tmp_path, capsys):
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w_ocb())
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "verdict=valid" in out
        assert "failed=none" in out

    def test_invalid_process_exits_1_and_names_subspace(self, tmp_path, capsys):
        path = tmp_path / "w.pmx"
        run(capsys, "build", "wll", "-o", str(path))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "verdict=invalid" in out
        assert "subspace" in out.split("failed=")[1].splitlines()[0]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.pmx"))
        assert code == 2
        assert err.startswith("error:")

    def test_corrupted_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.pmx"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "JSON" in err

    def test_non_hermitian_matrix_rejected(self, tmp_path):
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w_ocb())
        doc = json.loads(path.read_text())
        doc["matrix"]["entries"][1] = ["1.0", "0.0"]
        doc["matrix"]["entries"][16] = ["0.0", "0.0"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PmxFormatError, match="Hermitian"):
            load_pmx(str(path))

    def test_entry_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w_ocb())
        doc = json.loads(path.read_text())
        doc["matrix"]["entries"] = doc["matrix"]["entries"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(PmxFormatError, match="entries"):
            load_pmx(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w_ocb())
        doc = json.loads(path.read_text())
        doc["matrix"]["entries"][0] = [value, "0.0"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PmxFormatError, match="not finite"):
            load_pmx(str(path))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("error:") and "not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "malform",
        [
            lambda doc: json.dumps({**doc, "matrix": [1, 2]}),
            lambda doc: json.dumps({**doc, "factors": 5}),
            lambda doc: json.dumps(doc).replace('"label": "A_I"', '"label": ["A_I"]'),
            lambda doc: json.dumps(doc).replace('"party": "A"', '"party": ["A"]', 1),
            lambda doc: json.dumps(doc).replace('"dim": 16', '"dim": 16.0'),
            lambda doc: json.dumps(doc).replace('"0.0"', "false", 1),
            lambda doc: json.dumps(doc).replace('"A_I"', '"A_\u00ef"', 1),
            lambda doc: json.dumps(doc).replace('"0.0"', "1" + "0" * 400, 1),
            # the parser gives up with a RecursionError, not a decode error
            lambda doc: json.dumps({**doc, "matrix": None}).replace(
                "null", "[" * 50000 + "]" * 50000
            ),
            lambda doc: json.dumps(doc).replace('"dim": 16', '"dim": 8'),
            lambda doc: json.dumps({**doc, "format_version": "2"}),
            # the number 1 is not the string "1"
            lambda doc: json.dumps({**doc, "format_version": 1}),
            lambda doc: json.dumps({**doc, "factors": []}),
            lambda doc: json.dumps({**doc, "factors": [5, *doc["factors"][1:]]}),
            lambda doc: json.dumps(doc).replace(', "role": "input"', "", 1),
            lambda doc: json.dumps(doc).replace('"role": "input"', '"role": "both"', 1),
            lambda doc: json.dumps(doc).replace('"label": "A_O"', '"label": "A_I"'),
            lambda doc: json.dumps([doc]),
        ],
        ids=[
            "matrix-list",
            "factors-int",
            "label-list",
            "party-list",
            "matrix-dim-float",
            "boolean-entry",
            "non-ascii-bytes",
            "entry-beyond-float-range",
            "deeply-nested",
            "matrix-dim-not-factor-product",
            "format-version",
            "format-version-number",
            "factors-empty",
            "factor-not-object",
            "factor-without-role",
            "role-neither-input-nor-output",
            "repeated-label",
            "top-level-list",
        ],
    )
    def test_malformed_document_exits_2(self, tmp_path, capsys, malform):
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w_ocb())
        doc = json.loads(path.read_text())
        text = malform(doc)
        assert text != json.dumps(doc)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PmxFormatError):
            load_pmx(str(path))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_boolean_factor_dim_rejected(self, tmp_path, capsys):
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w_ocb())
        doc = json.loads(path.read_text())
        doc["factors"][0]["dim"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(PmxFormatError, match="factor dim must be a positive int"):
            load_pmx(str(path))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "factor dim must be a positive int" in err

    def test_tolerance_env_override(self, tmp_path, capsys, monkeypatch):
        # the forbidden-term residual of the classical-correlation process
        # is 1.0, so a huge tolerance flips the verdict
        path = tmp_path / "w.pmx"
        run(capsys, "build", "wll", "-o", str(path))
        monkeypatch.setenv("PMX_TOL", "2.0")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "verdict=valid" in out

    @pytest.mark.parametrize("raw", ["soup", "nan", "-1", "inf"])
    def test_garbage_tolerance_env_exits_2(self, tmp_path, capsys, monkeypatch, raw):
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w_ocb())
        monkeypatch.setenv("PMX_TOL", raw)
        with pytest.raises(SystemExit) as info:
            main(["validate", str(path)])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: PMX_TOL=") and out == ""


class TestVerifyCommand:
    def test_extremality_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "extremality")
        assert code == 0
        assert "wocb_rank=8 expected=8 PASS" in out
        assert "intersection_dim=1 expected=1 PASS" in out
        assert "dariano_card=268" in out
        assert "suite=extremality overall=PASS" in out

    def test_switch_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "switch")
        assert code == 0
        assert "cswap_output_matches_switch=true PASS" in out

    def test_hierarchy_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "hierarchy")
        assert code == 0
        for n, const in ((1, "2"), (2, "4"), (3, "16")):
            assert f"level{n}_trace_constant={const} expected={const} PASS" in out
        assert "level2_depolarizing_valid=true PASS" in out

    def test_rigidity_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "rigidity")
        assert code == 0
        assert "kernel_dim=12 expected=12 PASS" in out
        assert "single_party_kernel_dim=6 expected=6 PASS" in out
        assert "suite=rigidity overall=PASS" in out

    @pytest.mark.parametrize("suite", ["rigidity", "extremality", "hierarchy", "switch"])
    def test_output_matches_golden_text(self, suite, capsys):
        # full standard output and exit code
        code, out, err = run(capsys, "verify", suite)
        assert code == 0
        assert err == ""
        assert out == (GOLDEN / f"verify_{suite}.txt").read_text()


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--lambdas", "nan"],
            ["sweep", "--lambdas", "0,inf"],
            ["sweep", "--lambdas", ","],
            ["verify", "hierarchy", "--seed", "-1"],
            ["sweep", "--lambdas", "0,x"],
            ["build", "state", "--psi", "1,x", "-o", "unused.pmx"],
        ],
        ids=[
            "lambda-nan",
            "lambda-inf",
            "lambda-empty",
            "negative-seed",
            "lambda-element",
            "psi-element",
        ],
    )
    def test_bad_argument_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument" in err and "Traceback" not in err

    def test_valid_seed_runs_the_suite(self, capsys):
        assert build_parser().parse_args(["verify", "hierarchy", "--seed", "7"]).seed == 7
        code, out, err = run(capsys, "verify", "hierarchy", "--seed", "7")
        assert code == 0 and err == ""
        assert out.endswith("suite=hierarchy overall=PASS\n")

    def test_state_with_psi_is_the_shared_pure_state(self, tmp_path, capsys):
        path = tmp_path / "s.pmx"
        argv = ["build", "state", "--psi", "0.6,0.8j,0.1,-0.3-0.2j", "-o", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""
        psi = np.array([0.6, 0.8j, 0.1, -0.3 - 0.2j])
        psi = psi / np.linalg.norm(psi)
        want = shared_state(np.outer(psi, psi.conj())).matrix
        assert np.array_equal(load_pmx(str(path)).matrix, want)

    def test_unwritable_output_path_exits_2(self, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "w.pmx"
        code, out, err = run(capsys, "build", "wocb", "-o", str(path))
        assert code == 2
        assert out == "" and err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1


class TestSweepCommand:
    def test_endpoint_flags_and_midpoint_overlap(self, capsys):
        lams = f"0,{math.pi / 4},{math.pi / 2}"
        code, out, _ = run(capsys, "sweep", "--lambdas", lams)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "flags=A_to_B" in lines[0]
        assert "flags=neither" in lines[1]
        assert "flags=B_to_A" in lines[2]
        overlap = float(lines[1].split("overlap=")[1])
        assert overlap >= 1 - 1e-9

    def test_every_point_reports_validity(self, capsys):
        _, out, _ = run(capsys, "sweep", "--lambdas", "0.3,1.1")
        for line in out.strip().splitlines():
            assert "valid=true" in line

    def test_output_matches_golden_text(self, capsys):
        # both endpoints, pi/4 and two angles off any symmetry, to 12 digits
        lams = "0,0.3,0.7853981633974483,1.1,1.5707963267948966"
        code, out, err = run(capsys, "sweep", "--lambdas", lams)
        assert code == 0
        assert err == ""
        assert out == (GOLDEN / "sweep.txt").read_text()


@contextmanager
def collector(enabled):
    """Run a block with the cyclic garbage collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestLoadPausesCollector:
    def test_no_collection_starts_while_loading(self, tmp_path):
        # the d = 256 file parses into about 65k [re, im] lists, enough to
        # start many collections when the collector runs
        path = tmp_path / "w.pmx"
        w = extended_switch()
        write_pmx(str(path), w)
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        with collector(True):
            gc.collect()
            gc.callbacks.append(record)
            try:
                back = load_pmx(str(path))
            finally:
                gc.callbacks.remove(record)
        assert starts == []
        assert np.array_equal(back.matrix.view(np.uint64), w.matrix.view(np.uint64))

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "text",
        [None, "{not json", "[" * 50000 + "]" * 50000],
        ids=["valid", "not-json", "deeply-nested"],
    )
    def test_collector_state_is_restored(self, tmp_path, enabled, text):
        path = tmp_path / "w.pmx"
        if text is None:
            write_pmx(str(path), w_ocb())
        else:
            path.write_text(text)
        with collector(enabled):
            if text is None:
                load_pmx(str(path))
            else:
                with pytest.raises(PmxFormatError):
                    load_pmx(str(path))
            assert gc.isenabled() is enabled
