import inspect
import json

import numpy as np
import pytest

from equichan import cli, fileio, suites
from equichan.apps import depolarized_copies
from equichan.channels import (
    ExtremalSpec,
    ExtremalTriple,
    extremal_choi,
    symmetrization_spec,
)
from equichan.cli import run
from equichan.staircases import staircase
from equichan.streaming import streamed_apply
from equichan.verify import VerificationReport


@pytest.fixture
def state_file(tmp_path, rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = A @ A.conj().T
    rho /= np.trace(rho)
    f = tmp_path / "state.json"
    fileio.save_json(fileio.matrix_to_obj(rho), f)
    return f, rho


def _three_qubit_state(tmp_path):
    rho = np.diag([0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]).astype(complex)
    rho[0, 5] = rho[5, 0] = 0.05
    f = tmp_path / "state3.json"
    fileio.save_json(fileio.matrix_to_obj(rho), f)
    return f, rho


class TestClassify:
    def test_lists_triples(self, capsys):
        assert run(["classify", "1", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 admissible triples" in out
        assert "(1,-1)" in out and "(0,0)" in out


    def test_negative_m_is_usage_error(self, capsys):
        # used to print "0 admissible triples" and exit 0
        assert run(["classify", "-1", "1", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need m >= 0, got m=-1\n"

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

    def test_sample_mode_without_stream_is_usage_error(self, tmp_path, state_file, capsys):
        # the dense route used to run, exact, and exit 0
        f_state, _ = state_file
        f_spec = tmp_path / "spec.json"
        fileio.save_json(fileio.spec_to_obj(symmetrization_spec(2, 2)), f_spec)
        argv = ["simulate", "--spec", str(f_spec), "--state", str(f_state),
                "--mode", "sample", "--trajectories", "0"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --mode sample needs --stream; the dense route is exact\n"

    def test_dense_cap_is_usage_error(self, tmp_path, state_file, monkeypatch, capsys):
        # exit 1 means a verification case failed; the cap is not one
        f_state, _ = state_file
        f_spec = tmp_path / "spec.json"
        fileio.save_json(fileio.spec_to_obj(symmetrization_spec(2, 2)), f_spec)
        monkeypatch.setenv("EQUICHAN_MAX_DENSE", "8")
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: dense dimension 16 exceeds cap 8; raise EQUICHAN_MAX_DENSE to override\n"
        )

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
        [
            [],
            ["--stream", "--mode", "exact", "--trajectories", "50"],
            ["--stream", "--mode", "sample", "--trajectories", "50"],
        ],
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
        argv = ["simulate", "--spec", str(f_spec), "--state", str(f_state), *form]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: output not positive semidefinite: -1.00e-01\n"

    @pytest.mark.parametrize(
        "given,message",
        [
            (["--trajectories", "50"], "--trajectories"),
            (["--seed", "3"], "--seed"),
            (["--seed", "3", "--trajectories", "50"], "--trajectories and --seed"),
        ],
        ids=["trajectories", "seed", "both"],
    )
    def test_dense_route_refuses_draw_options(
        self, given, message, tmp_path, state_file, capsys
    ):
        # the dense route used to ignore them and exit 0
        f_state, _ = state_file
        f_spec = tmp_path / "spec.json"
        fileio.save_json(fileio.spec_to_obj(symmetrization_spec(2, 2)), f_spec)
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state), *given]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {message} not read by the dense route, which draws nothing\n"
        )

    def test_streamed_defaults_are_seed_0_and_10000_trajectories(self, tmp_path, capsys):
        # at m = 2 every sampled path is the only one, so m = 3 tells seeds apart
        f_state, rho = _three_qubit_state(tmp_path)
        spec = symmetrization_spec(3, 2)
        f_spec = tmp_path / "spec.json"
        fileio.save_json(fileio.spec_to_obj(spec), f_spec)
        base = ["simulate", "--spec", str(f_spec), "--state", str(f_state),
                "--stream", "--mode", "sample"]
        outputs = []
        for extra in ([], ["--seed", "0", "--trajectories", "10000"], ["--seed", "1"]):
            assert run([*base, *extra]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1] != outputs[2]
        out, ledger = streamed_apply(spec, rho, seed=0, mode="sample", trajectories=10_000)
        assert outputs[0] == fileio.app_result_to_obj(out, ledger)


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
                     "output trace (1.0000000050000002+0j), expected 1"),
    "non-hermitian": (_with_entry(np.eye(4) / 4, (0, 1), 0.1), "input is not Hermitian"),
    # eigenvalue -0.1 on the symmetric vector |00>, which symmetrization keeps
    "negative-eigenvalue": (np.diag([-0.1, 0.5, 0.3, 0.3]),
                            "output not positive semidefinite: -1.00e-01"),
    # both at once: every route tests positivity before the output trace
    "negative-and-trace-1+5e-9": (np.diag([-0.1, 0.5, 0.3, 0.3 + 5e-9]),
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
        assert run(["sample", "--shape", "3,1", "--count", "2000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "total variation vs exact" in out
        tv = float(out.strip().splitlines()[-1].split(":")[1])
        assert tv < 0.05

    def test_mode_option_is_gone(self, capsys):
        # the sampler runs the one squashed walk; --mode is an argparse usage error
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--shape", "3,1", "--mode", "alg3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --mode alg3" in captured.err

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["-m", "3", "-d", "0", "-r", "1"],
            ["--task", "purify", "-m", "3", "-d", "0"],
            ["--task", "symmetrize", "-m", "3", "-d", "0"],
        ],
        ids=["general", "purify", "symmetrize"],
    )
    def test_d_below_one_is_usage_error(self, argv, capsys):
        # these used to blame r: "need 1 <= r, r_prime <= d"
        assert run(["estimate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need d >= 1, got d=0\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["-m", "3", "-l", "-5"], "need l >= 0, got l=-5"),
            (["-m", "-3"], "need m >= 0, got m=-3"),
        ],
        ids=["l", "m"],
    )
    def test_negative_count_is_usage_error(self, argv, message, capsys):
        # -l -5 used to print negative counts and exit 0, -m -3 a math domain error
        assert run(["estimate", *argv, "-d", "2", "-r", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


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
        assert f"need trials >= 1, got trials={trials}" in captured.err
        assert "ALL SUITES PASSED" not in captured.out

    def test_failure_exit_code(self, capsys):
        # the purity suite carries the documented impossible m=2 strictness case
        assert run(["verify", "--suite", "purity"]) == 1
        out = capsys.readouterr().out
        assert "SOME SUITES FAILED" in out

    @pytest.mark.parametrize("suite", ["vectorization", "classification"])
    def test_trials_outside_symmetry_certification_is_usage_error(self, suite, capsys):
        # --trials used to be ignored, with exit 0
        assert run(["verify", "--suite", suite, "--trials", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --trials not read by suite {suite}\n"

    @pytest.mark.parametrize(
        "argv,trials",
        [
            (["--suite", "symmetry-certification"], 20),
            (["--suite", "symmetry-certification", "--trials", "3"], 3),
            (["--all", "--trials", "4"], 4),
        ],
        ids=["default", "suite", "all"],
    )
    def test_trials_reach_symmetry_certification(self, argv, trials, monkeypatch, capsys):
        seen = {}

        def fake_run_suite(name, seed, **kwargs):
            seen[name] = kwargs
            return VerificationReport(name, seed)

        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        assert run(["verify", *argv]) == 0
        capsys.readouterr()
        got = seen.pop("symmetry-certification")
        default = inspect.signature(suites.suite_symmetry_certification).parameters["trials"]
        assert got.get("trials", default.default) == trials
        assert all(kwargs == {} for kwargs in seen.values())


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

    def test_directory_as_state_is_usage_error(self, tmp_path, capsys):
        # exit 1 means a verification case failed; a file-system error is not one
        assert run(["apps", "symmetrize", "--state", str(tmp_path),
                    "-m", "2", "-d", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Is a directory" in captured.err

    def test_directory_as_out_is_usage_error(self, tmp_path, state_file, capsys):
        f_state, _ = state_file
        assert run(["apps", "symmetrize", "--state", str(f_state), "-m", "2", "-d", "2",
                    "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Is a directory" in captured.err

    @pytest.mark.parametrize("app", ["clone", "purify"])
    def test_sample_mode_outside_symmetrize_is_usage_error(self, app, tmp_path, capsys):
        # used to run exact mode and exit 0
        f_state = tmp_path / "psi.json"
        fileio.save_json(fileio.matrix_to_obj(np.array([[1.0], [0.0]])), f_state)
        argv = ["apps", app, "--state", str(f_state), "-m", "1", "-n", "2", "-d", "2",
                "--mode", "sample"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --mode sample applies to symmetrize only, not {app}\n"

    @pytest.mark.parametrize("app", ["clone", "purify"])
    @pytest.mark.parametrize(
        "given,message",
        [
            (["--trajectories", "50"], "--trajectories"),
            (["--seed", "3"], "--seed"),
            (["--trajectories", "50", "--seed", "3"], "--trajectories and --seed"),
        ],
        ids=["trajectories", "seed", "both"],
    )
    def test_draw_options_outside_symmetrize_are_usage_errors(
        self, app, given, message, tmp_path, capsys
    ):
        # clone and purify used to ignore them and exit 0
        f_state = tmp_path / "psi.json"
        fileio.save_json(fileio.matrix_to_obj(np.array([[1.0], [0.0]])), f_state)
        argv = ["apps", app, "--state", str(f_state), "-m", "1", "-n", "2", "-d", "2",
                *given]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} not read by {app}, which draws nothing\n"

    def test_symmetrize_sample_defaults(self, tmp_path, capsys):
        f_state, _ = _three_qubit_state(tmp_path)
        base = ["apps", "symmetrize", "--state", str(f_state), "-m", "3", "-d", "2",
                "--mode", "sample"]
        outputs = []
        for extra in ([], ["--seed", "0", "--trajectories", "10000"], ["--seed", "2"]):
            assert run([*base, *extra]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1] != outputs[2]

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

    def test_repeated_lambda_spec_is_usage_error(self, tmp_path, state_file, capsys):
        f_state, _ = state_file
        obj = fileio.spec_to_obj(symmetrization_spec(2, 2))
        obj["assignments"].append(dict(obj["assignments"][0]))
        f_spec = tmp_path / "spec.json"
        fileio.save_json(obj, f_spec)
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'lambda' (2,0) is assigned twice\n"

    @pytest.mark.parametrize("stream", [[], ["--stream"]], ids=["dense", "stream"])
    @pytest.mark.parametrize(
        "key,value,least", [("m", -1, 0), ("d", 0, 1)], ids=["m", "d"]
    )
    def test_spec_shape_out_of_range_is_usage_error(
        self, key, value, least, stream, tmp_path, state_file, capsys
    ):
        # a spec of m = -1 or d = 0 has no input labels; it used to load
        # with no assignments and fail at the input shape
        f_state, _ = state_file
        obj = {"m": 2, "n": 2, "d": 2, "assignments": [], key: value}
        f_spec = tmp_path / "spec.json"
        fileio.save_json(obj, f_spec)
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state), *stream]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need {key} >= {least}, got {key}={value}\n"

    def test_non_object_state_is_usage_error(self, tmp_path, capsys):
        # a JSON list where a matrix object belongs used to escape as a
        # TypeError with a traceback and exit 1, the code of a failed check
        f_state, f_spec = tmp_path / "state.json", tmp_path / "spec.json"
        f_state.write_text("[1,2]\n")
        fileio.save_json(fileio.spec_to_obj(symmetrization_spec(2, 2)), f_spec)
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'matrix' must be an object, got list\n"

    def test_malformed_spec_is_usage_error(self, tmp_path, state_file, capsys):
        f_state, _ = state_file
        obj = fileio.spec_to_obj(symmetrization_spec(2, 2))
        obj["assignments"][0]["psi"] = [[1.0, "0"]]
        f_spec = tmp_path / "spec.json"
        fileio.save_json(obj, f_spec)
        assert run(["simulate", "--spec", str(f_spec), "--state", str(f_state)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 'psi' entry 0") and err.count("\n") == 1
