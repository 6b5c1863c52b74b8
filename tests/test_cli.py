"""End-to-end checks for the pmx command line and the PMX file format."""

import json
import math

import numpy as np
import pytest

from pmx.cli import PmxFormatError, load_pmx, main, write_pmx
from pmx.process_space import quantum_switch, w_ocb


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoundTrip:
    def test_matrix_survives_bit_for_bit(self, tmp_path):
        path = tmp_path / "w.pmx"
        w = w_ocb()
        write_pmx(str(path), w)
        back = load_pmx(str(path))
        assert np.array_equal(back.matrix, w.matrix)

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

    def test_zero_psi_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "switch", "--psi", "0,0", "-o", str(tmp_path / "x"))
        assert code == 2
        assert "zero vector" in err

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

    def test_garbage_tolerance_env_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "w.pmx"
        write_pmx(str(path), w_ocb())
        monkeypatch.setenv("PMX_TOL", "soup")
        with pytest.raises(SystemExit) as info:
            main(["validate", str(path)])
        assert info.value.code == 2


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
