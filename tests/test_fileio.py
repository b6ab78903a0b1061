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

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_rejects_negative_dimensions(self, key):
        # rows = cols = -2 matches the length of four entries, and numpy's
        # reshape then failed with "can only specify one unknown dimension"
        obj = {"rows": 2, "cols": 2, "data": [[0.25, 0.0]] * 4}
        obj["rows"] = obj["cols"] = -2
        with pytest.raises(ValueError, match="'rows' must be non-negative, got -2"):
            fileio.matrix_from_obj(obj)
        obj[key] = 2
        obj["data"] = [[0.25, 0.0]] * 2
        other = "cols" if key == "rows" else "rows"
        with pytest.raises(ValueError, match=f"'{other}' must be non-negative, got -2"):
            fileio.matrix_from_obj(obj)

    @pytest.mark.parametrize("reader,key", [
        (fileio.matrix_from_obj, "matrix"),
        (fileio.choi_from_obj, "choi"),
    ])
    @pytest.mark.parametrize(
        "obj,found", [([1, 2], "list"), ("x", "str"), (3, "int"), (None, "NoneType")]
    )
    def test_rejects_non_object(self, reader, key, obj, found):
        # a list used to raise TypeError, "list indices must be integers"
        with pytest.raises(ValueError, match=f"^'{key}' must be an object, got {found}$"):
            reader(obj)

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

    def test_numpy_integer_shape_saves(self, tmp_path):
        # json cannot write numpy integers; the spec stores Python ints
        spec = symmetrization_spec(np.int64(2), np.int64(2))
        assert type(spec.m) is int and type(spec.d) is int
        fileio.save_json(fileio.spec_to_obj(spec), tmp_path / "spec.json")

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

    def test_rejects_non_object_spec(self):
        with pytest.raises(ValueError, match="^'spec' must be an object, got list$"):
            fileio.spec_from_obj([fileio.spec_to_obj(symmetrization_spec(2, 2))])

    @pytest.mark.parametrize(
        "value,found", [("(2,0)", "str"), ({}, "dict"), (5, "int")]
    )
    def test_rejects_non_list_assignments(self, value, found):
        # a string used to be iterated and raise TypeError at its first character
        obj = fileio.spec_to_obj(symmetrization_spec(2, 2))
        obj["assignments"] = value
        with pytest.raises(ValueError, match=f"^'assignments' must be a list, got {found}$"):
            fileio.spec_from_obj(obj)

    def test_rejects_non_object_assignment(self):
        obj = fileio.spec_to_obj(symmetrization_spec(2, 2))
        obj["assignments"].append([2, 0])
        n = len(obj["assignments"]) - 1
        message = rf"^'assignments\[{n}\]' must be an object, got list$"
        with pytest.raises(ValueError, match=message):
            fileio.spec_from_obj(obj)

    def test_rejects_repeated_lambda(self):
        # the second assignment of the same lambda used to replace the first
        obj = fileio.spec_to_obj(symmetrization_spec(2, 2))
        obj["assignments"].append(dict(obj["assignments"][0]))
        with pytest.raises(ValueError, match=r"'lambda' \(2,0\) is assigned twice"):
            fileio.spec_from_obj(obj)

    def test_choi_rejects_non_integer_size(self):
        obj = fileio.choi_to_obj(extremal_choi(symmetrization_spec(1, 2)))
        obj["n"] = 1.0
        with pytest.raises(ValueError, match="'n' must be an integer, got 1.0"):
            fileio.choi_from_obj(obj)

    @pytest.mark.parametrize(
        "key,value,least", [("m", -1, 0), ("n", -1, 0), ("d", 0, 1), ("d", -2, 1)]
    )
    def test_choi_rejects_out_of_range_size(self, key, value, least):
        # m = -1 used to fail the shape test with "expected (1.0, 1.0)",
        # d = 0 with "expected (0, 0)"
        obj = fileio.choi_to_obj(extremal_choi(symmetrization_spec(1, 2)))
        obj[key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be at least {least}, got {value}"):
            fileio.choi_from_obj(obj)

    def test_choi_accepts_zero_sizes(self):
        obj = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]], "m": 0, "n": 0, "d": 2}
        back = fileio.choi_from_obj(obj)
        assert (back.m, back.n, back.d) == (0, 0, 2)


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


    @pytest.mark.parametrize("obj,found", [(5, "int"), ({"steps": []}, "dict"), ("x", "str")])
    def test_rejects_non_list(self, obj, found):
        # 5 used to raise TypeError, "'int' object is not iterable"
        with pytest.raises(ValueError, match=f"^'path' must be a list, got {found}$"):
            fileio.path_from_obj(obj)

    def test_rejects_empty(self):
        # numpy used to raise "attempt to get argmax of an empty sequence"
        with pytest.raises(ValueError, match="^'path' must hold at least one staircase$"):
            fileio.path_from_obj([])


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

    @pytest.mark.parametrize(
        "value", [2.7, True, "3", None], ids=["float", "bool", "str", "null"]
    )
    def test_rejects_non_integer_seed(self, value):
        # int() used to load 2.7 as 2, true as 1 and "3" as 3
        obj = fileio.report_to_obj(VerificationReport("demo", 7))
        obj["seed"] = value
        with pytest.raises(ValueError, match=f"'seed' must be an integer, got {value!r}"):
            fileio.report_from_obj(obj)

    @pytest.mark.parametrize("key", ["value", "threshold"])
    @pytest.mark.parametrize("bad", ["x", True, None], ids=["str", "bool", "null"])
    def test_rejects_non_real_case_numbers(self, key, bad):
        # these used to load, and report.passed then raised TypeError
        r = VerificationReport("demo", 7)
        r.add("case-a", 1e-12, 1e-8)
        obj = fileio.report_to_obj(r)
        obj["cases"][0][key] = bad
        with pytest.raises(ValueError, match=f"'{key}' must be a real number, got {bad!r}"):
            fileio.report_from_obj(obj)

    def test_rejects_non_object_report(self):
        with pytest.raises(ValueError, match="^'report' must be an object, got list$"):
            fileio.report_from_obj([])

    @pytest.mark.parametrize("value", [3, None, ["demo"]], ids=["int", "null", "list"])
    def test_rejects_non_string_suite(self, value):
        # these used to load as the report's suite name
        obj = fileio.report_to_obj(VerificationReport("demo", 7))
        obj["suite"] = value
        with pytest.raises(ValueError, match="^'suite' must be a string, got "):
            fileio.report_from_obj(obj)

    @pytest.mark.parametrize("value", [4, None, True], ids=["int", "null", "bool"])
    def test_rejects_non_string_case_id(self, value):
        r = VerificationReport("demo", 7)
        r.add("case-a", 1e-12, 1e-8)
        obj = fileio.report_to_obj(r)
        obj["cases"][0]["id"] = value
        with pytest.raises(ValueError, match=f"^'id' must be a string, got {value!r}$"):
            fileio.report_from_obj(obj)

    def test_rejects_non_list_cases(self):
        obj = fileio.report_to_obj(VerificationReport("demo", 7))
        obj["cases"] = {"id": "a", "value": 0, "threshold": 1}
        with pytest.raises(ValueError, match="^'cases' must be a list, got dict$"):
            fileio.report_from_obj(obj)

    def test_rejects_non_object_case(self):
        obj = fileio.report_to_obj(VerificationReport("demo", 7))
        obj["cases"] = [["a", 0, 1]]
        with pytest.raises(ValueError, match=r"^'cases\[0\]' must be an object, got list$"):
            fileio.report_from_obj(obj)

    def test_integer_case_numbers_load(self):
        obj = fileio.report_to_obj(VerificationReport("demo", 7))
        obj["cases"] = [{"id": "a", "value": 0, "threshold": 1}]
        assert fileio.report_from_obj(obj).passed


class TestLedger:
    def test_record(self):
        led = ResourceLedger(num_simple_cg=3, peak_live_dim=8)
        obj = fileio.app_result_to_obj(np.eye(2) / 2, led)["ledger"]
        assert obj == led.as_dict()
        assert obj["num_simple_cg"] == 3
        assert obj["peak_live_dim"] == 8
