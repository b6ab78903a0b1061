import re
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from equichan.staircases import (
    Staircase,
    add_boxes,
    box_label,
    dim_gl_irrep,
    dim_perm_irrep,
    empty_staircase,
    enumerate_staircases,
    lr_coeff,
    partitions_of,
    remove_boxes,
    staircase,
    sym_dim,
)
from equichan.channels import ExtremalSpec, classification_isometry, enumerate_extremal_triples
from equichan.transforms import schur_transform

from oracles import lr_count, ssyt_count, syt_count


@st.composite
def partitions(draw, max_size=6, max_rows=4):
    m = draw(st.integers(min_value=0, max_value=max_size))
    d = draw(st.integers(min_value=1, max_value=max_rows))
    opts = partitions_of(m, d)
    if not opts:
        return empty_staircase(d)
    return draw(st.sampled_from(opts))


@st.composite
def staircases(draw, max_boxes=4, max_rows=4):
    m = draw(st.integers(min_value=0, max_value=max_boxes))
    n = draw(st.integers(min_value=0, max_value=max_boxes))
    d = draw(st.integers(min_value=1, max_value=max_rows))
    opts = enumerate_staircases(m, n, d)
    if not opts:
        return empty_staircase(d)
    return draw(st.sampled_from(opts))


class TestStaircase:
    def test_validation(self):
        with pytest.raises(ValueError):
            Staircase((1, 2))
        with pytest.raises(ValueError):
            Staircase(())

    @pytest.mark.parametrize(
        "entries",
        [(2.7, 1), (2.0, 1), ("2", 1), (2, None)],
        ids=["float", "whole-float", "str", "none"],
    )
    def test_rejects_non_integer_entries(self, entries):
        # int() used to truncate: (2.7, 1) was the label (2, 1)
        with pytest.raises(ValueError, match="staircase entries must be integers"):
            Staircase(entries)

    def test_accepts_numpy_integers(self):
        s = Staircase((np.int64(2), np.int32(1)))
        assert s == staircase(2, 1) and all(type(e) is int for e in s.entries)
        assert Staircase(np.array([3, 1, 0])) == staircase(3, 1, 0)

    def test_dual_involution(self):
        g = staircase(2, 1, 0, -1)
        assert g.dual() == staircase(1, 0, -1, -2)
        assert g.dual().dual() == g

    def test_sizes(self):
        g = staircase(2, 1, 0, -1)
        assert g.pos_size == 3 and g.neg_size == 1 and g.size == 2
        assert g.length == 3
        assert g.is_staircase_for(4, 2)


class TestBoxMoves:
    def test_add_four_row_staircase(self):
        got = add_boxes(staircase(2, 1, 0, -1))
        assert set(got) == {
            staircase(3, 1, 0, -1),
            staircase(2, 2, 0, -1),
            staircase(2, 1, 1, -1),
            staircase(2, 1, 0, 0),
        }
        # deterministic order: increasing row index
        assert got == [
            staircase(3, 1, 0, -1),
            staircase(2, 2, 0, -1),
            staircase(2, 1, 1, -1),
            staircase(2, 1, 0, 0),
        ]

    def test_add_small(self):
        assert add_boxes(staircase(0, 0)) == [staircase(1, 0)]
        assert add_boxes(staircase(1, 1)) == [staircase(2, 1)]

    def test_remove_small(self):
        assert remove_boxes(staircase(2, 1)) == [staircase(1, 1), staircase(2, 0)]
        # the second decrement goes below zero but is still a valid staircase;
        # it labels the adjoint block of C^2 (x) dual C^2
        assert remove_boxes(staircase(1, 0)) == [staircase(0, 0), staircase(1, -1)]
        assert remove_boxes(staircase(5, 3, 3, 2)) == [
            staircase(4, 3, 3, 2),
            staircase(5, 3, 2, 2),
            staircase(5, 3, 3, 1),
        ]

    @pytest.mark.parametrize("row", [-1, 2])
    def test_bump_refuses_a_row_outside_the_label(self, row):
        with pytest.raises(IndexError, match=f"row {row} of a staircase with 2 rows"):
            staircase(1, 0).bump(row, 1)

    @given(staircases())
    def test_add_remove_adjoint(self, nu):
        for mu in add_boxes(nu):
            assert nu in remove_boxes(mu)
        for mu in remove_boxes(nu):
            assert nu in add_boxes(mu)


class TestDims:
    def test_perm_irrep_examples(self):
        assert dim_perm_irrep(staircase(2, 1)) == 2
        assert dim_perm_irrep(staircase(5)) == 1
        assert dim_perm_irrep(staircase(3, 1)) == 3

    @given(partitions())
    def test_perm_irrep_vs_syt_enumeration(self, lam):
        assert dim_perm_irrep(lam) == syt_count(lam.entries)

    def test_gl_irrep_examples(self):
        assert dim_gl_irrep(staircase(1, 0)) == 2
        assert dim_gl_irrep(staircase(2, 1)) == 2
        assert dim_gl_irrep(staircase(1, -1)) == 3

    @given(partitions(max_size=5, max_rows=3))
    def test_gl_irrep_vs_ssyt_enumeration(self, lam):
        assert dim_gl_irrep(lam) == ssyt_count(lam.entries, lam.d)

    @given(staircases(), st.integers(min_value=-3, max_value=3))
    def test_gl_irrep_shift_invariance(self, g, k):
        assert dim_gl_irrep(g) == dim_gl_irrep(g.shift(k))

    def test_sym_dim(self):
        assert sym_dim(2, 2) == 3
        assert sym_dim(1, 7) == 7
        assert sym_dim(3, 2) == 4

    def test_schur_weyl_dimension_count(self):
        for d in (2, 3):
            for m in range(7):
                total = sum(
                    dim_perm_irrep(lam) * dim_gl_irrep(lam)
                    for lam in partitions_of(m, d)
                )
                assert total == d**m


class TestLrCoeff:
    def test_examples(self):
        assert lr_coeff(staircase(1, 0), staircase(1, 0), staircase(2, 0)) == 1
        assert lr_coeff(staircase(1, 0), staircase(1, 0), staircase(1, 1)) == 1
        assert lr_coeff(staircase(2, 1, 0), staircase(2, 1, 0), staircase(3, 2, 1)) == 2

    def test_labels_over_different_d_rejected(self):
        with pytest.raises(ValueError, match="same d"):
            lr_coeff(staircase(1, 0), staircase(1, 0, 0), staircase(2, 0))

    def test_against_brute_force(self):
        for d in (2, 3):
            for a in range(4):
                for b in range(4):
                    for lam in partitions_of(a, d):
                        for mu in partitions_of(b, d):
                            for gamma in partitions_of(a + b, d):
                                assert lr_coeff(lam, mu, gamma) == lr_count(
                                    lam.entries, mu.entries, gamma.entries
                                )

    def test_symmetries(self):
        # c_{lam,mu}^nu = c_{mu,lam}^nu = c_{mu,dual nu}^{dual lam}
        #             = c_{dual lam,dual mu}^{dual nu}, box counts <= 4, d <= 3
        for d in (2, 3):
            for a in range(5):
                for b in range(5 - a):
                    for lam in partitions_of(a, d):
                        for mu in partitions_of(b, d):
                            for nu in partitions_of(a + b, d):
                                c = lr_coeff(lam, mu, nu)
                                assert c == lr_coeff(mu, lam, nu)
                                assert c == lr_coeff(mu, nu.dual(), lam.dual())
                                assert c == lr_coeff(lam.dual(), mu.dual(), nu.dual())

    def test_dimension_sum_rule(self):
        for d in (2, 3):
            for lam in partitions_of(2, d):
                for mu in partitions_of(3, d):
                    lhs = 0
                    for gamma in partitions_of(5, d):
                        lhs += lr_coeff(lam, mu, gamma) * dim_gl_irrep(gamma)
                    assert lhs == dim_gl_irrep(lam) * dim_gl_irrep(mu)

    @given(staircases(max_boxes=3, max_rows=3))
    def test_single_box_rule(self, nu):
        box = box_label(nu.d)
        added = add_boxes(nu)
        candidates = set(added) | {nu.bump(i, +1) if False else nu for i in range(1)}
        for gamma in added:
            assert lr_coeff(nu, box, gamma) == 1
        # a staircase not reachable by one box has coefficient 0
        for gamma in enumerate_staircases(nu.pos_size + 1, nu.neg_size, nu.d):
            expected = 1 if gamma in added else 0
            if gamma.size == nu.size + 1:
                assert lr_coeff(nu, box, gamma) == expected

    def test_negative_entry_examples(self):
        # adjoint times fundamental for d=2
        lam, mu = staircase(1, -1), staircase(1, 0)
        assert lr_coeff(lam, mu, staircase(2, -1)) == 1
        assert lr_coeff(lam, mu, staircase(1, 0)) == 1
        assert lr_coeff(lam, mu, staircase(0, 0)) == 0


class TestEnumerateStaircases:
    def test_examples(self):
        assert enumerate_staircases(2, 0, 2) == [staircase(2, 0), staircase(1, 1)]
        assert enumerate_staircases(1, 1, 2) == [staircase(1, -1), staircase(0, 0)]
        assert enumerate_staircases(3, 0, 2) == [staircase(3, 0), staircase(2, 1)]

    def test_all_valid_and_unique(self):
        for m, n, d in [(2, 2, 2), (3, 1, 3), (2, 2, 3), (0, 2, 2)]:
            got = enumerate_staircases(m, n, d)
            assert len(set(got)) == len(got)
            for g in got:
                assert g.is_staircase_for(m, n)

    def test_lex_descending(self):
        got = enumerate_staircases(3, 2, 3)
        assert got == sorted(got, key=lambda s: s.entries, reverse=True)


# (m, n, d) and the one error line naming the first bad argument; m = -1
# with n = 40 would pass 2^39 to the dense cap if the cap came first
BAD_SHAPES = [
    ((2.0, 0, 2), "need an integer m, got m=2.0"),
    (("2", 0, 2), "need an integer m, got m='2'"),
    ((1, 1, 2.0), "need an integer d, got d=2.0"),
    ((1, None, 2), "need an integer n, got n=None"),
    ((-1, 0, 2), "need m >= 0, got m=-1"),
    ((-1, 40, 2), "need m >= 0, got m=-1"),
    ((1, -1, 0), "need n >= 0, got n=-1"),
    ((1, 1, 0), "need d >= 1, got d=0"),
    ((True, 0, 2), "need an integer m, got m=True"),
    ((1, 1, False), "need an integer d, got d=False"),
]


def extremal_spec(m, n, d):
    return ExtremalSpec(m, n, d, {})


@pytest.mark.parametrize(
    "build",
    [
        enumerate_staircases,
        schur_transform,
        classification_isometry,
        enumerate_extremal_triples,
        extremal_spec,
    ],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("args,message", BAD_SHAPES, ids=lambda x: repr(x))
def test_shape_builders_name_a_bad_argument(build, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(*args)


def test_shape_builders_read_integer_types():
    # numpy integers pass operator.index and share the int cache entries
    assert enumerate_staircases(np.int64(2), 0, 2) == enumerate_staircases(2, 0, 2)
    assert schur_transform(2, np.int64(0), 2) is schur_transform(2, 0, 2)
    assert classification_isometry(1, 1, np.int64(2)) is classification_isometry(1, 1, 2)


class TestMemoised:
    def test_partitions_of_returns_a_fresh_list(self):
        first = partitions_of(3, 2)
        assert first == [staircase(3, 0), staircase(2, 1)]
        first.clear()
        first.append(staircase(1, 1))
        assert partitions_of(3, 2) == [staircase(3, 0), staircase(2, 1)]
        assert partitions_of(3, 2) is not partitions_of(3, 2)

    def test_label_functions_are_cached(self):
        for fn in (dim_gl_irrep, dim_perm_irrep, lr_coeff):
            assert callable(fn.cache_info) and callable(fn.cache_clear)
