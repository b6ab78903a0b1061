import numpy as np
import pytest

from equichan import fileio
from equichan.channels import ExtremalSpec, ExtremalTriple, extremal_choi, symmetrization_spec
from equichan.gtpaths import GtPath, enumerate_paths
from equichan.staircases import empty_staircase, staircase
from equichan.streaming import ResourceLedger
from equichan.verify import VerificationReport


class TestMatrixRoundTrip:
    def test_exact_floats(self, rng, tmp_path):
        M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        f = tmp_path / "m.json"
        fileio.save_json(fileio.matrix_to_obj(M), f)
        back = fileio.matrix_from_obj(fileio.load_json(f))
        assert np.array_equal(back, M)  # bit-exact

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            fileio.matrix_from_obj({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    @pytest.mark.parametrize(
        "data",
        [[1, 0, 0, 0], [[1.0, 0.0]] * 3 + [[1.0]], [[1.0, 0.0]] * 3 + [["1", 0]], 7],
        ids=["bare-number", "short-pair", "string-part", "not-a-list"],
    )
    def test_rejects_malformed_data(self, data):
        with pytest.raises(ValueError, match="data"):
            fileio.matrix_from_obj({"rows": 2, "cols": 2, "data": data})

    @pytest.mark.parametrize("key", ["rows", "cols"])
    @pytest.mark.parametrize(
        "value", [2.5, 2.0, True, "2"], ids=["float", "whole-float", "bool", "str"]
    )
    def test_rejects_non_integer_dimensions(self, key, value):
        obj = {"rows": 2, "cols": 2, "data": [[0.25, 0.0]] * 4}
        obj[key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be an integer, got {value!r}"):
            fileio.matrix_from_obj(obj)

    def test_rejects_nonfinite(self):
        M = np.array([[np.inf]])
        with pytest.raises(ValueError):
            fileio.matrix_to_obj(M)

    def test_choi_round_trip(self, tmp_path):
        C = extremal_choi(symmetrization_spec(2, 2))
        f = tmp_path / "c.json"
        fileio.save_json(fileio.choi_to_obj(C), f)
        back = fileio.choi_from_obj(fileio.load_json(f))
        assert np.array_equal(back.matrix, C.matrix)
        assert (back.m, back.n, back.d) == (2, 2, 2)


class TestSpecRoundTrip:
    def test_round_trip(self, rng, tmp_path):
        lam = staircase(1, 0)
        psi = rng.normal(size=1) + 1j * rng.normal(size=1)
        psi /= np.linalg.norm(psi)
        spec = ExtremalSpec(1, 1, 2, {lam: ExtremalTriple(lam, staircase(1, -1), psi)})
        f = tmp_path / "spec.json"
        fileio.save_json(fileio.spec_to_obj(spec), f)
        back = fileio.spec_from_obj(fileio.load_json(f))
        assert back.m == 1 and back.n == 1 and back.d == 2
        t = back.triple(lam)
        assert t.mu == lam and t.gamma == staircase(1, -1)
        assert np.array_equal(t.psi, psi)

    def test_rejects_malformed_psi(self):
        lam = staircase(1, 0)
        spec = ExtremalSpec(1, 1, 2, {lam: ExtremalTriple(lam, staircase(1, -1), [1.0])})
        obj = fileio.spec_to_obj(spec)
        obj["assignments"][0]["psi"] = [1.0]
        with pytest.raises(ValueError, match="psi.*entry 0"):
            fileio.spec_from_obj(obj)

    @pytest.mark.parametrize("key", ["m", "n", "d"])
    @pytest.mark.parametrize(
        "value", [2.7, 2.0, True, "2"], ids=["float", "whole-float", "bool", "str"]
    )
    def test_rejects_non_integer_size(self, key, value):
        obj = fileio.spec_to_obj(symmetrization_spec(2, 2))
        obj[key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be an integer, got {value!r}"):
            fileio.spec_from_obj(obj)

    @pytest.mark.parametrize("key", ["lambda", "mu", "gamma"])
    @pytest.mark.parametrize("value", [0.4, True, "0"], ids=["float", "bool", "str"])
    def test_rejects_non_integer_staircase_entry(self, key, value):
        obj = fileio.spec_to_obj(symmetrization_spec(2, 2))
        entries = obj["assignments"][0][key]
        entries[1] = value if isinstance(value, (bool, str)) else entries[1] + value
        with pytest.raises(ValueError, match=rf"'{key}\[1\]' must be an integer"):
            fileio.spec_from_obj(obj)

    def test_choi_rejects_non_integer_size(self):
        obj = fileio.choi_to_obj(extremal_choi(symmetrization_spec(1, 2)))
        obj["n"] = 1.0
        with pytest.raises(ValueError, match="'n' must be an integer, got 1.0"):
            fileio.choi_from_obj(obj)


class TestPathRoundTrip:
    def test_pure_addition(self):
        p = enumerate_paths(empty_staircase(2), 3, 0)[staircase(2, 1)][0]
        back = fileio.path_from_obj(fileio.path_to_obj(p))
        assert back == p
        assert (back.k, back.l) == (3, 0)

    def test_mixed(self):
        p = GtPath(
            (staircase(0, 0), staircase(1, 0), staircase(2, 0), staircase(2, -1)),
            k=2,
            l=1,
        )
        back = fileio.path_from_obj(fileio.path_to_obj(p))
        assert back == p and back.k == 2 and back.l == 1

    def test_pure_removal(self):
        p = GtPath((staircase(3, 0), staircase(2, 0)), k=0, l=1)
        back = fileio.path_from_obj(fileio.path_to_obj(p))
        assert back == p and (back.k, back.l) == (0, 1)


class TestReportRoundTrip:
    def test_round_trip(self, tmp_path):
        r = VerificationReport("demo", 7)
        r.add("case-a", 1e-12, 1e-8)
        r.add("case-b", 0.5, 0.01)
        f = tmp_path / "r.json"
        fileio.save_json(fileio.report_to_obj(r), f)
        back = fileio.report_from_obj(fileio.load_json(f))
        assert back.suite == "demo" and back.seed == 7
        assert back.cases == r.cases
        assert back.cases[0].passed and not back.cases[1].passed

    def test_reads_kind_key_of_older_files(self):
        # reports written before every case became a residual carry
        # "kind": "residual"; the key is ignored
        obj = {"suite": "demo", "seed": 1, "passed": True, "cases": [
            {"id": "a", "value": 1e-12, "threshold": 1e-8, "kind": "residual", "pass": True}
        ]}
        assert fileio.report_from_obj(obj).passed


class TestLedger:
    def test_record(self):
        led = ResourceLedger(num_simple_cg=3, peak_live_dim=8)
        obj = fileio.app_result_to_obj(np.eye(2) / 2, led)["ledger"]
        assert obj == led.as_dict()
        assert obj["num_simple_cg"] == 3
        assert obj["peak_live_dim"] == 8
