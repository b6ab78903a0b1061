import re
from fractions import Fraction

import numpy as np
import pytest

from equichan.gtpaths import RemovalDistribution, exact_removal_distribution
from equichan.staircases import staircase
from equichan.verify import CaseResult, VerificationReport, haar_unitary, tv_distance


class TestHaarUnitary:
    def test_d1(self, rng):
        U = haar_unitary(1, rng)
        assert np.allclose(U, [[1.0]])

    @pytest.mark.parametrize("d", [True, False, 2.0, "2", None])
    def test_non_integer_d_rejected(self, d, rng):
        with pytest.raises(TypeError, match="d must be an integer"):
            haar_unitary(d, rng)

    @pytest.mark.parametrize("d", [0, -2])
    def test_d_below_one_rejected(self, d, rng):
        with pytest.raises(ValueError, match="need d >= 1"):
            haar_unitary(d, rng)

    @pytest.mark.parametrize("d", [1, 2])
    def test_non_generator_rng_rejected(self, d):
        # an int used to raise AttributeError at d = 2 and pass at d = 1
        with pytest.raises(TypeError, match="^rng must be a numpy.random.Generator, got 5$"):
            haar_unitary(d, 5)

    def test_numpy_integer_d(self):
        U = haar_unitary(np.int64(3), np.random.default_rng(5))
        assert np.array_equal(U, haar_unitary(3, np.random.default_rng(5)))

    def test_special_unitary(self, rng):
        for d in (2, 3, 4):
            U = haar_unitary(d, rng)
            assert np.linalg.norm(U @ U.conj().T - np.eye(d)) < 1e-12
            assert abs(np.linalg.det(U) - 1.0) < 1e-12

    def test_first_moment_twirl(self, rng):
        # E[U X U^dag] = tr(X)/d * 1 by Schur's lemma
        d = 2
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        acc = np.zeros((d, d), dtype=complex)
        N = 10_000
        for _ in range(N):
            U = haar_unitary(d, rng)
            acc += U @ X @ U.conj().T
        acc /= N
        assert np.linalg.norm(acc - np.trace(X) / d * np.eye(d)) < 0.05


class TestTvDistance:
    def test_identical(self):
        exact = exact_removal_distribution(staircase(3, 1))
        emp = {mu: float(p) for mu, p in exact.probs.items()}
        assert tv_distance(emp, exact) < 1e-15

    def test_half(self):
        exact = RemovalDistribution(
            {staircase(1, 0): Fraction(1, 2), staircase(0, 0): Fraction(1, 2)}
        )
        assert abs(tv_distance({staircase(1, 0): 1.0}, exact) - 0.5) < 1e-15

    def test_support_mismatch(self):
        exact = RemovalDistribution({staircase(1, 0): Fraction(1)})
        with pytest.raises(ValueError):
            tv_distance({staircase(0, 0): 1.0}, exact)

    def test_empty_histogram(self):
        exact = RemovalDistribution({staircase(1, 0): Fraction(1)})
        with pytest.raises(ValueError):
            tv_distance({}, exact)

    @pytest.mark.parametrize("bad", [-1, -0.5, np.nan, np.inf, -np.inf])
    def test_bad_count_rejected_by_label(self, bad):
        # {(2,0): 3, (1,1): -1} used to give 1.0, and a NaN or inf count nan
        exact = exact_removal_distribution(staircase(2, 1))
        first, second = exact.support()[:2]
        emp = {first: 3, second: bad}
        with pytest.raises(ValueError, match=rf"^count for {re.escape(str(second))} is "):
            tv_distance(emp, exact)
        # the first bad count is named
        with pytest.raises(ValueError, match=rf"^count for {re.escape(str(first))} is "):
            tv_distance({first: bad, second: bad}, exact)

    def test_zero_count_accepted(self):
        exact = exact_removal_distribution(staircase(2, 1))
        first, second = exact.support()[:2]
        assert tv_distance({first: 1, second: 0}, exact) == tv_distance({first: 1}, exact)


class TestReport:
    def test_residual_cases(self):
        r = VerificationReport("t", 1)
        r.add("resid", 1e-9, 1e-8)
        r.add("edge", 1e-3, 1e-3)
        assert r.passed
        r.add("bad", 1.0, 1e-8)
        assert not r.passed
        lines = r.summary_lines()
        assert lines[0] == "[PASS] t/resid: 1.000e-09 <= 1.000e-08"
        assert lines[2] == "[FAIL] t/bad: 1.000e+00 <= 1.000e-08"

    def test_case_result(self):
        # a case passes when its value is at most its threshold
        assert CaseResult("x", 0.1, 0.1).passed
        assert not CaseResult("x", 0.5, 0.1).passed
        with pytest.raises(TypeError):
            CaseResult("x", 0.5, 0.1, kind="pvalue")
