"""Exact real-root machinery and the root-layout verifier."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kadaryu.exactmath import Polynomial, Q
from kadaryu.gram import factor_one_cup
from kadaryu.roots import (column_series, cos_point_enclosure, family_series,
                           hook_t_series, lemma_roots_check, minimal_poly_2cos,
                           pi_bounds, row_series, sign_at_2cos,
                           squarefree_check, sturm_count, sturm_isolate,
                           verify_root_layout)

x = Polynomial.x()


class TestSturm:
    def test_counts(self):
        p = (x - 1) * (x + 1) * (x - 3)
        assert sturm_count(p, -math.inf, math.inf) == 3
        assert sturm_count(p, 0, 2) == 1
        assert sturm_count(p, Q(1), Q(4)) == 1  # half-open: 1 excluded at lo
        assert sturm_count(x * x + 1, -math.inf, math.inf) == 0

    def test_isolate_with_multiplicity(self):
        p = (x - 1) ** 2 * (x + 3)
        ivs = sturm_isolate(p)
        assert [iv.multiplicity for iv in ivs] == [1, 2]
        assert ivs[0].lo < -3 < ivs[0].hi
        assert ivs[1].lo < 1 < ivs[1].hi
        # disjoint
        assert ivs[0].hi <= ivs[1].lo

    def test_refine(self):
        p = x * x - 2
        iv = sturm_isolate(p)[-1]  # the positive root
        narrow = iv.refine(Fraction(1, 10 ** 6))
        assert narrow.hi - narrow.lo <= Fraction(1, 10 ** 6)
        assert narrow.lo > 1
        assert narrow.lo ** 2 < 2 < narrow.hi ** 2

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
           st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_isolate_recovers_planted_roots(self, roots, extra_mult):
        p = Polynomial.one()
        for r in roots:
            p = p * (x - r)
        p = p * (x - roots[0]) ** (extra_mult - 1)
        ivs = sturm_isolate(p)
        assert len(ivs) == len(set(roots))
        for iv in ivs:
            hits = [r for r in set(roots) if iv.lo < r < iv.hi or p(iv.lo) == 0]
            assert sturm_count(p, iv.lo, iv.hi) == 1

    def test_squarefree_check(self):
        assert squarefree_check((x - 1) * (x + 2))
        assert not squarefree_check((x - 1) ** 2 * (x + 2))


class TestEnclosures:
    def test_pi_bounds(self):
        lo, hi = pi_bounds(8)
        assert lo < Fraction(3141592653589793, 10 ** 15) < hi
        assert Fraction(314159, 100000) < lo and hi < Fraction(314160, 100000)

    def test_cos_enclosure_exact_point(self):
        lo, hi = cos_point_enclosure(1, 3)  # 2cos(pi/3) = 1
        assert lo < 1 < hi
        lo, hi = cos_point_enclosure(1, 2)  # 2cos(pi/2) = 0
        assert lo < 0 < hi

    def test_enclosure_tightens(self):
        w1 = (lambda t: t[1] - t[0])(cos_point_enclosure(1, 5, terms=8))
        w2 = (lambda t: t[1] - t[0])(cos_point_enclosure(1, 5, terms=20))
        assert w2 < w1

    def test_minimal_polys(self):
        assert minimal_poly_2cos(1, 1) == x + 2
        assert minimal_poly_2cos(2, 1) == x - 2
        assert minimal_poly_2cos(1, 2) == x
        assert minimal_poly_2cos(1, 3) == x - 1
        assert minimal_poly_2cos(2, 3) == x + 1
        assert minimal_poly_2cos(1, 4) == x * x - 2
        assert minimal_poly_2cos(1, 5) == x * x - x - 1
        assert minimal_poly_2cos(2, 5) == x * x + x - 1
        assert minimal_poly_2cos(1, 6) == x * x - 3
        # reduction of a non-primitive angle
        assert minimal_poly_2cos(2, 6) == minimal_poly_2cos(1, 3)

    def test_minimal_poly_annihilates(self):
        for r, m in [(1, 5), (3, 7), (2, 9), (5, 12)]:
            h = minimal_poly_2cos(r, m)
            lo, hi = cos_point_enclosure(r, m, terms=24)
            assert h(lo) * h(hi) <= 0 or abs(h((lo + hi) / 2)) < Fraction(1, 100)

    def test_sign_at_2cos(self):
        assert sign_at_2cos(x * x - 2, 1, 4) == 0
        assert sign_at_2cos(x, 1, 3) == 1
        assert sign_at_2cos(x, 2, 3) == -1
        assert sign_at_2cos(x - 2, 1, 7) == -1


# (3, (2, 1, 1, 1)) adds about 2.3 s to tier-1 (27 s in all); (3, (4, 1))
# would add about 3.3 s more, mostly its Specht setup (specht_gram at
# r = 5), and take tier-1 past 30 s, so it stays in the slow tier (2 cores,
# Python 3.11.7)
FAMILIES = [(0, (2,)), (0, (1, 1)), (1, (3,)), (1, (2, 1)), (1, (1, 1, 1)),
            (2, (4,)), (2, (3, 1)), (2, (2, 1, 1)), (2, (1, 1, 1, 1)),
            (3, (5,)), (3, (1, 1, 1, 1, 1)), (3, (2, 1, 1, 1)),
            pytest.param(3, (4, 1), marks=pytest.mark.slow)]


class TestClosedForms:
    @pytest.mark.parametrize("l,lam", FAMILIES)
    def test_match_computed_series(self, l, lam):
        _c, series = factor_one_cup(l, lam)
        closed = family_series(l, lam)
        for n in range(l + 2, l + 9):
            assert closed.term(n) == series.term(n), n

    def test_dispatch(self):
        # at l = 1 the hook and the conjugate hook coincide
        assert family_series(1, (2, 1)) == hook_t_series(1)
        assert family_series(0, (2,)) == row_series(0)
        assert family_series(0, (1, 1)) == column_series(0)
        with pytest.raises(ValueError):
            family_series(2, (2, 2))

    @pytest.mark.parametrize("l,lam", FAMILIES)
    def test_squarefree_and_all_real(self, l, lam):
        _c, series = factor_one_cup(l, lam)
        for n in range(l + 4, l + 11):
            p = series.term(n)
            assert squarefree_check(p), n
            assert sturm_count(p, -math.inf, math.inf) == p.degree, n

    @pytest.mark.slow
    def test_squarefree_and_all_real_l2(self):
        for lam in [(4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)]:
            series = family_series(2, lam)
            for n in range(6, 13):
                p = series.term(n)
                assert squarefree_check(p), (lam, n)
                assert sturm_count(p, -math.inf, math.inf) == p.degree, (lam, n)


class TestLemmaGrid:
    @pytest.mark.parametrize("l,lam", FAMILIES)
    def test_reflection_identity(self, l, lam):
        _c, series = factor_one_cup(l, lam)
        for k in range(1, 5):
            for kp in range(1, 5):
                for r in range(1, k + kp):
                    assert lemma_roots_check(series, k, kp, r), (k, kp, r)

    def test_bad_r_rejected(self):
        series = family_series(0, (2,))
        with pytest.raises(ValueError):
            lemma_roots_check(series, 2, 2, 4)


class TestLayoutVerifier:
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_column_family(self, l, k):
        rep = verify_root_layout(l, (1,) * (l + 2), k)
        assert rep["status"] == "pass", rep

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_row_family(self, l, k):
        rep = verify_root_layout(l, (l + 2,), k)
        assert rep["status"] == "pass", rep

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hook_families(self, k):
        assert verify_root_layout(5, (6, 1), k)["status"] == "pass"
        assert verify_root_layout(4, (2, 1, 1, 1, 1), k)["status"] == "pass"

    def test_report_schema(self):
        rep = verify_root_layout(0, (1, 1), 2)
        assert set(rep) == {"l", "lambda", "k", "status", "claims"}
        assert rep["lambda"] == [1, 1] and rep["k"] == 2
        for c in rep["claims"]:
            assert c["status"] in {"pass", "fail", "inconclusive"}

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            verify_root_layout(2, (2, 2), 1)
