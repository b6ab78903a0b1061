import json

import numpy as np
import pytest

from equichan import fileio
from equichan.apps import depolarized_copies
from equichan.channels import (
    ExtremalSpec,
    ExtremalTriple,
    extremal_choi,
    symmetrization_spec,
)
from equichan.cli import run
from equichan.staircases import staircase


@pytest.fixture
def state_file(tmp_path, rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = A @ A.conj().T
    rho /= np.trace(rho)
    f = tmp_path / "state.json"
    fileio.save_json(fileio.matrix_to_obj(rho), f)
    return f, rho


class TestClassify:
    def test_lists_triples(self, capsys):
        assert run(["classify", "1", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 admissible triples" in out
        assert "(1,-1)" in out and "(0,0)" in out


    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_d_below_one_is_usage_error(self, d, capsys):
        assert run(["classify", "2", "1", d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need d >= 1, got d={d}\n"


class TestSimulate:
    def test_dense_and_streamed_agree(self, tmp_path, state_file, capsys):
        f_state, rho = state_file
        spec = symmetrization_spec(2, 2)
        f_spec = tmp_path / "spec.json"
        fileio.save_json(fileio.spec_to_obj(spec), f_spec)
        out_a = tmp_path / "dense.json"
        out_b = tmp_path / "stream.json"
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state),
                    "--out", str(out_a)]) == 0
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state),
                    "--stream", "--out", str(out_b)]) == 0
        dense = fileio.matrix_from_obj(fileio.load_json(out_a)["output"])
        rec = fileio.load_json(out_b)
        streamed = fileio.matrix_from_obj(rec["output"])
        assert np.linalg.norm(dense - streamed) < 1e-9
        assert rec["ledger"]["num_simple_cg"] == 1

    def test_dense_prints_output_record(self, tmp_path, state_file, capsys):
        f_state, rho = state_file
        spec = symmetrization_spec(2, 2)
        f_spec = tmp_path / "spec.json"
        fileio.save_json(fileio.spec_to_obj(spec), f_spec)
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state)]) == 0
        record = {"output": fileio.matrix_to_obj(extremal_choi(spec).apply(rho))}
        assert capsys.readouterr().out == json.dumps(record) + "\n"

    @pytest.mark.parametrize(
        "form",
        [[], ["--stream", "--mode", "exact"], ["--stream", "--mode", "sample"]],
        ids=["dense", "exact", "sample"],
    )
    def test_non_positive_output_is_usage_error(self, form, tmp_path, capsys):
        # Hermitian and unit trace, with eigenvalue -0.1 on the symmetric
        # vector |00>, which symmetrization keeps: the output is no state,
        # and the dense and streamed forms reject it alike
        rho = np.diag([-0.1, 0.5, 0.3, 0.3]).astype(complex)
        f_state = tmp_path / "state.json"
        fileio.save_json(fileio.matrix_to_obj(rho), f_state)
        f_spec = tmp_path / "spec.json"
        fileio.save_json(fileio.spec_to_obj(symmetrization_spec(2, 2)), f_spec)
        argv = ["simulate", "--spec", str(f_spec), "--state", str(f_state),
                *form, "--trajectories", "50"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: output not positive semidefinite: -1.00e-01\n"


def _write_matrix(M, path):
    """M as a matrix file, written without matrix_to_obj, which refuses a
    non-finite entry; json writes NaN as the bare literal NaN."""
    M = np.asarray(M, dtype=complex)
    data = [[float(x.real), float(x.imag)] for x in M.reshape(-1)]
    path.write_text(json.dumps({"rows": M.shape[0], "cols": M.shape[1], "data": data}))


def _with_entry(M, index, value):
    M = np.array(M, dtype=complex)
    M[index] = value
    return M


# (bad input, its one error line) for symmetrization_spec(2, 2)
BAD_INPUTS = {
    # refused by fileio.matrix_from_obj before any route runs
    "non-finite": (_with_entry(np.eye(4) / 4, (0, 0), np.nan),
                   "matrix entries must be finite"),
    "wrong-shape": (np.eye(3) / 3, "input shape (3, 3), expected (4, 4)"),
    "trace-20": (20 * np.eye(4) / 4, "input trace 20+0j, expected 1"),
    # within the input's STATE_TOL, outside the output's 1e-10
    "trace-1+5e-9": (np.diag([0.4, 0.3, 0.2, 0.1 + 5e-9]),
                     "output trace (1.000000005+0j), expected 1"),
    "non-hermitian": (_with_entry(np.eye(4) / 4, (0, 1), 0.1), "input is not Hermitian"),
    # eigenvalue -0.1 on the symmetric vector |00>, which symmetrization keeps
    "negative-eigenvalue": (np.diag([-0.1, 0.5, 0.3, 0.3]),
                            "output not positive semidefinite: -1.00e-01"),
}

ROUTES = {
    "dense": ["simulate", "--spec", "{spec}", "--state", "{state}"],
    "exact": ["simulate", "--spec", "{spec}", "--state", "{state}", "--stream",
              "--mode", "exact"],
    "sample": ["simulate", "--spec", "{spec}", "--state", "{state}", "--stream",
               "--mode", "sample", "--trajectories", "50"],
    "apps": ["apps", "symmetrize", "--state", "{state}", "-m", "2", "-d", "2"],
}


@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_every_route_gives_one_error_for_a_bad_input(case, route, tmp_path, capsys):
    # one state gate: every route that runs symmetrization_spec(2, 2) on a
    # bad input exits 2 with the same single error line
    M, message = BAD_INPUTS[case]
    f_state, f_spec = tmp_path / "state.json", tmp_path / "spec.json"
    _write_matrix(M, f_state)
    fileio.save_json(fileio.spec_to_obj(symmetrization_spec(2, 2)), f_spec)
    argv = [a.format(spec=f_spec, state=f_state) for a in ROUTES[route]]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


class TestSample:
    def test_box_frequencies(self, capsys):
        assert run(["sample", "--shape", "3,1", "--mode", "alg3",
                    "--count", "2000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "total variation vs exact" in out
        tv = float(out.strip().splitlines()[-1].split(":")[1])
        assert tv < 0.05

    def test_paths_newline_delimited(self, capsys):
        assert run(["sample", "--shape", "2,1", "--what", "path",
                    "--count", "3", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            steps = json.loads(line)
            assert steps[0] == [0, 0] and steps[-1] == [2, 1]

    def test_bad_shape_exits_nonzero(self, capsys):
        assert run(["sample", "--shape", "1,2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad shape '1,2'") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--shape", "3,x"],
            ["--shape", "3,1", "--count", "0"],
            ["--shape", "3,1", "--count", "-1"],
            ["--shape", "2,1", "--what", "path", "--count", "0"],
        ],
        ids=["not-an-integer", "count-zero", "count-negative", "path-count-zero"],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        assert run(["sample", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestEstimate:
    def test_tasks(self, capsys):
        assert run(["estimate", "--task", "purify", "-m", "5", "-d", "2"]) == 0
        out = capsys.readouterr().out
        assert "log2^p" in out and "d^2" in out
        assert run(["estimate", "--task", "general", "-m", "4", "-n", "4",
                    "-d", "2", "-r", "2", "--r-prime", "2"]) == 0
        out = capsys.readouterr().out
        assert "absorb" in out

    @pytest.mark.parametrize("task", ["symmetrize", "clone", "purify"])
    def test_m_below_one_is_usage_error(self, task, capsys):
        assert run(["estimate", "--task", task, "-m", "0", "-n", "3", "-d", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need m >= 1 input sites, got m=0\n"

    def test_general_without_r_is_usage_error(self, capsys):
        assert run(["estimate", "-m", "3", "-d", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --task general needs -r") and err.count("\n") == 1


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert run(["verify", "--suite", "vectorization", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "ALL SUITES PASSED" in out

    def test_requires_selection(self, capsys):
        assert run(["verify"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_symmetry_certification_needs_a_trial(self, trials, capsys):
        argv = ["verify", "--suite", "symmetry-certification", "--trials", trials]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "at least one Haar trial" in captured.err
        assert "ALL SUITES PASSED" not in captured.out

    def test_failure_exit_code(self, capsys):
        # the purity suite carries the documented impossible m=2 strictness case
        assert run(["verify", "--suite", "purity"]) == 1
        out = capsys.readouterr().out
        assert "SOME SUITES FAILED" in out


class TestApps:
    def test_symmetrize(self, tmp_path, state_file):
        f_state, rho = state_file
        out = tmp_path / "result.json"
        assert run(["apps", "symmetrize", "--state", str(f_state),
                    "-m", "2", "-d", "2", "--out", str(out)]) == 0
        rec = fileio.load_json(out)
        assert rec["fidelity"] is None
        assert rec["ledger"]["peak_live_dim"] >= 2

    def test_clone_with_fidelity(self, tmp_path):
        psi = np.array([[1.0], [0.0]])
        f_state = tmp_path / "psi.json"
        fileio.save_json(fileio.matrix_to_obj(psi), f_state)
        out = tmp_path / "clone.json"
        assert run(["apps", "clone", "--state", str(f_state),
                    "-m", "1", "-n", "2", "-d", "2", "--out", str(out)]) == 0
        rec = fileio.load_json(out)
        assert abs(rec["fidelity"] - 2 / 3) < 1e-10

    def test_purify(self, tmp_path):
        rho = depolarized_copies(np.array([1.0, 0.0]), 0.3, 3, 2)
        f_state = tmp_path / "rho.json"
        fileio.save_json(fileio.matrix_to_obj(rho), f_state)
        ref = tmp_path / "ref.json"
        fileio.save_json(fileio.matrix_to_obj(np.array([[1.0], [0.0]])), ref)
        out = tmp_path / "pa.json"
        assert run(["apps", "purify", "--state", str(f_state), "-m", "3", "-d", "2",
                    "--reference", str(ref), "--out", str(out)]) == 0
        rec = fileio.load_json(out)
        assert rec["fidelity"] > 0.85

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["apps", "symmetrize", "--state", str(tmp_path / "nope.json"),
                    "-m", "2", "-d", "2"]) == 2

    def test_clone_without_n_is_usage_error(self, tmp_path, capsys):
        f_state = tmp_path / "psi.json"
        fileio.save_json(fileio.matrix_to_obj(np.array([[1.0], [0.0]])), f_state)
        assert run(["apps", "clone", "--state", str(f_state), "-m", "1", "-d", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: clone needs -n, the number of output copies\n"

    def test_malformed_state_is_usage_error(self, tmp_path, capsys):
        f_state = tmp_path / "state.json"
        fileio.save_json({"rows": 2, "cols": 2, "data": [1, 0, 0, 0]}, f_state)
        assert run(["apps", "symmetrize", "--state", str(f_state),
                    "-m", "1", "-d", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 'data' entry 0 is 1") and err.count("\n") == 1

    def test_non_integer_spec_is_usage_error(self, tmp_path, state_file, capsys):
        # m = 2.7, n = 2.2 and staircase entries +0.4 used to load, truncated,
        # as symmetrization_spec(2, 2)
        f_state, _ = state_file
        obj = fileio.spec_to_obj(symmetrization_spec(2, 2))
        obj["m"], obj["n"] = 2.7, 2.2
        for a in obj["assignments"]:
            a["lambda"][0] += 0.4
            a["mu"][0] += 0.4
        f_spec = tmp_path / "spec.json"
        fileio.save_json(obj, f_spec)
        argv = ["simulate", "--spec", str(f_spec), "--state", str(f_state), "--stream"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'lambda[0]' must be an integer, got 2.4\n"

    def test_malformed_spec_is_usage_error(self, tmp_path, state_file, capsys):
        f_state, _ = state_file
        obj = fileio.spec_to_obj(symmetrization_spec(2, 2))
        obj["assignments"][0]["psi"] = [[1.0, "0"]]
        f_spec = tmp_path / "spec.json"
        fileio.save_json(obj, f_spec)
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 'psi' entry 0") and err.count("\n") == 1
