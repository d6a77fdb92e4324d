"""Exact real-root machinery and the root-layout verifier."""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kadaryu.cheby import cheb_u, u_expansion
from kadaryu.exactmath import Polynomial, Q
from kadaryu.gram import factor_one_cup
from kadaryu.roots import (_U_COEFFS, _cheb_intervals, _family, _interior_layout,
                           _point_interval, _sturm_chain, family_series, lemma_roots_check,
                           minimal_poly_2cos, sign_at_2cos, sturm_count, sturm_isolate,
                           verify_root_layout)

from oracles import (_cos_bounds, cos_bounds_q, cos_point_enclosure, pi_bounds,
                     sign_at_2cos_by_enclosure, squarefree_check, sturm_chain_by_prem,
                     sturm_count_q)

x = Polynomial.x()
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestSturm:
    def test_counts(self):
        p = (x - 1) * (x + 1) * (x - 3)
        assert sturm_count(p, -math.inf, math.inf) == 3
        assert sturm_count(p, 0, 2) == 1
        assert sturm_count(p, Q(1), Q(4)) == 1  # half-open: 1 excluded at lo
        assert sturm_count(x * x + 1, -math.inf, math.inf) == 0
        # even and odd polynomials: remainders whose degree drops by two,
        # after a chain member with a negative leading coefficient
        assert sturm_count(x ** 3 + x, -math.inf, math.inf) == 1
        assert sturm_count(3 * x ** 4 + 2 * x ** 2 - 1, -math.inf, math.inf) == 2
        assert sturm_count(3 * x ** 4 + 2 * x ** 2 - 1, 0, math.inf) == 1

    def test_isolate_distinct_roots(self):
        p = (x - 1) ** 2 * (x + 3)
        (lo0, hi0), (lo1, hi1) = sturm_isolate(p)
        assert lo0 < -3 < hi0
        assert lo1 < 1 < hi1
        # disjoint and ascending
        assert hi0 <= lo1

    def test_root_at_a_midpoint_lands_left(self):
        # the root bound of the square-free part is 3/2, so the first
        # midpoint of (-5/2, 3/2] is the root -1/2: the half-open count
        # puts it in the left half
        p = (x + Q(1, 2)) * (x - 1)
        assert sturm_isolate(p) == [(Q(-5, 2), Q(-1, 2)), (Q(-1, 2), Q(3, 2))]

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
           st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_isolate_recovers_planted_roots(self, roots, extra_mult):
        p = Polynomial.one()
        for r in roots:
            p = p * (x - r)
        p = p * (x - roots[0]) ** (extra_mult - 1)
        planted = {r: roots.count(r) for r in roots}
        planted[roots[0]] += extra_mult - 1
        ivs = sturm_isolate(p)
        assert len(ivs) == len(planted)
        for lo, hi in ivs:
            hits = [r for r in planted if lo < r <= hi]
            assert len(hits) == 1, (lo, hi, hits)
            assert sturm_count(p, lo, hi) == 1
            assert sturm_count_q(p, lo, hi) == 1

    @given(st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=4),
           st.lists(st.just(Q(0)) | rationals, max_size=6), st.data())
    @settings(max_examples=120, deadline=None)
    def test_count_matches_fraction_chain(self, planted, extra, data):
        # rational coefficients of either sign, repeated roots, and
        # endpoints drawn from the planted roots and +-inf
        p = Polynomial(extra) or Polynomial.one()
        for r, mult in planted:
            p = p * (x - r) ** mult
        point = st.one_of(st.sampled_from([math.inf, -math.inf] + [r for r, _ in planted]),
                          rationals)
        lo, hi = data.draw(point), data.draw(point)
        assert sturm_count(p, lo, hi) == sturm_count_q(p, lo, hi)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_chebyshev_chain_is_the_prem_chain(self, m):
        assert _sturm_chain(cheb_u(m)) == sturm_chain_by_prem(cheb_u(m))

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

    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_cos_bounds_round_outward(self, bits):
        # coarse rounding must still enclose the exact Taylor bounds
        for num in range(0, 65, 5):
            xv = Fraction(num, 16)
            lo, hi = _cos_bounds(xv, 30, bits)
            ref_lo, ref_hi = cos_bounds_q(xv, 30)
            assert lo <= ref_lo and ref_hi <= hi, xv

    @pytest.mark.parametrize("m", range(2, 13))
    def test_enclosures_are_short_dyadics_around_the_point(self, m):
        # the interval sign_at_2cos reads p's sign off: dyadic ends, below
        # 2, around the point, no root of p inside, disjoint across r
        for p in (Polynomial.one(), cheb_u(m + 1), x ** 3 - 3,
                  family_series(5, (6, 1)).term(8 + m)):
            below = 2
            for r in range(1, m):
                assert sign_at_2cos(p, r, m) != 0, (p, r, m)
                lo, hi = _point_interval(p, r, m)
                for end in (lo, hi):
                    den = end.denominator
                    assert den & (den - 1) == 0, (r, m)
                assert hi < 2 and hi <= below, (r, m)
                below = lo
                # the only conjugate of 2cos(r pi/m) inside, and the point
                # itself (to float accuracy)
                assert sturm_count_q(minimal_poly_2cos(r, m), lo, hi) == 1, (r, m)
                assert sturm_count_q(p, lo, hi) == 0, (p, r, m)
                point = 2 * math.cos(r * math.pi / m)
                assert float(lo) - 1e-12 <= point <= float(hi) + 1e-12

    def test_sample_point_intervals_are_pinned(self):
        """The isolating intervals of the roots of P^U_m, m = 2..40: every
        layout witness is an end of one of them after further bisection,
        so an edit that moves them moves the witnesses."""
        text = "\n".join(repr(_cheb_intervals(m)) for m in range(2, 41))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e19f943424c09ae1b1efde0bf22d75aa4e42a9fe8c9ec4290e66fddcc8d9b131")

    def test_enclosure_reaches_minus_two(self):
        # at r = m the x-interval passes pi, where cos stops decreasing
        for terms in range(8, 61):
            for r, m in [(1, 1), (3, 3)]:
                lo, hi = cos_point_enclosure(r, m, terms)
                assert lo <= -2 < hi, (r, m, terms)
            lo, hi = cos_point_enclosure(4, 5, terms)
            assert -2 < lo and sturm_count(minimal_poly_2cos(4, 5), lo, hi) == 1, terms

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
        # the rational points 0, 1 and -1 take the same path
        assert sign_at_2cos(x, 1, 2) == 0
        assert sign_at_2cos(x - Q(1, 1000), 1, 2) == -1
        assert sign_at_2cos(x - Q(999, 1000), 1, 3) == 1
        assert sign_at_2cos(x + Q(1001, 1000), 2, 3) == 1

    @pytest.mark.parametrize("r,m", [(0, 3), (3, 3), (4, 3), (-1, 5), (1, 1)])
    def test_sign_at_2cos_rejects_bad_index(self, r, m):
        with pytest.raises(ValueError):
            sign_at_2cos(x, r, m)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=9),
           st.integers(2, 16), st.data())
    @settings(max_examples=150, deadline=None)
    def test_sign_matches_enclosure_oracle(self, coeffs, m, data):
        # integer polynomials of degree <= 8, some with a planted factor
        # vanishing at a point of the same m
        q = Polynomial([Q(c) for c in coeffs]) or Polynomial.one()
        r = data.draw(st.integers(1, m - 1))
        planted = data.draw(st.none() | st.integers(1, m - 1))
        h = minimal_poly_2cos(r, m)
        p = q if planted is None else q * minimal_poly_2cos(planted, m)
        s = sign_at_2cos(p, r, m)
        want = sign_at_2cos_by_enclosure(p, r, m)
        if want is not None:
            assert s == want
        zero = (q % h).is_zero() or (planted is not None
                                     and minimal_poly_2cos(planted, m) == h)
        assert (s == 0) == zero
        value = sum(float(c) * (2 * math.cos(r * math.pi / m)) ** i
                    for i, c in enumerate(p.coeffs))
        if abs(value) > 1e-6:
            assert s == (1 if value > 0 else -1)


# each case is named by its label, as [l2-lam3-1]. factor_one_cup takes at
# most 0.3 s for each default-tier family, the r = 7 ones included, and the
# three tests that read FAMILIES take about 2.0 s over all eighteen (2 cores,
# Python 3.11.7); it takes 1.6 s for (4, (5, 1)), 1.5 s for (4, (2, 1, 1, 1, 1)),
# 1.2 s for (5, (6, 1)) and 2.4 s for (5, (2, 1, 1, 1, 1, 1)), almost all of it
# in the two anchor determinants
FAMILIES = [pytest.param(l, lam, marks=marks, id=f"l{l}-lam" + "-".join(map(str, lam)))
            for l, lam, *marks in [
                (-1, (1,)), (0, (2,)), (0, (1, 1)), (1, (3,)), (1, (2, 1)), (1, (1, 1, 1)),
                (2, (4,)), (2, (3, 1)), (2, (2, 1, 1)), (2, (1, 1, 1, 1)),
                (3, (5,)), (3, (1, 1, 1, 1, 1)), (3, (2, 1, 1, 1)), (3, (4, 1)),
                (4, (6,)), (4, (1, 1, 1, 1, 1, 1)), (4, (5, 1), pytest.mark.slow),
                (4, (2, 1, 1, 1, 1), pytest.mark.slow),
                (5, (7,)), (5, (1, 1, 1, 1, 1, 1, 1)), (5, (6, 1), pytest.mark.slow),
                (5, (2, 1, 1, 1, 1, 1), pytest.mark.slow)]]


# every (l, lam) with a closed form at l <= 6, in the order the pins read them
CLOSED_FORMS = [(l, lam) for l in range(-1, 7)
                for lam in sorted(s for s in {(1,) * (l + 2), (l + 2,), (2,) + (1,) * l,
                                              (l + 1, 1)} if sum(s) == l + 2 and min(s) > 0)]


class TestClosedForms:
    @pytest.mark.parametrize("l,lam", FAMILIES)
    def test_match_computed_series(self, l, lam):
        _c, series = factor_one_cup(l, lam)
        closed = family_series(l, lam)
        for n in range(l + 2, l + 9):
            assert closed.term(n) == series.term(n), n

    def test_dispatch(self):
        # at l = -1 the column and the row coincide, at l = 1 the hook and
        # the conjugate hook
        assert _family(-1, (1,)) == "column"
        assert _family(1, (2, 1)) == "hook_t"
        assert _family(0, (2,)) == "row"
        assert _family(0, (1, 1)) == "column"
        assert _family(2, (3, 1)) == "hook"
        with pytest.raises(ValueError):
            family_series(2, (2, 2))

    @pytest.mark.parametrize("l,lam", CLOSED_FORMS)
    def test_tables_are_the_u_expansions(self, l, lam):
        table = _U_COEFFS[_family(l, lam)](l)
        expansion = u_expansion(family_series(l, lam))
        assert ({k: v for k, v in expansion.items() if v}
                == {k: v for k, v in table.items() if v})

    @pytest.mark.parametrize("l,lam", FAMILIES)
    def test_squarefree_and_all_real(self, l, lam):
        _c, series = factor_one_cup(l, lam)
        for n in range(l + 4, l + 11):
            p = series.term(n)
            assert squarefree_check(p), n
            assert sturm_count(p, -math.inf, math.inf) == p.degree, n

    @pytest.mark.parametrize("l,lam", FAMILIES)
    def test_sturm_chains_are_the_prem_chains(self, l, lam):
        """Each member, the primitive part of -(f % g), is the integer tuple
        of the pseudo-remainder chain, so every count, interval and witness
        stays the same."""
        _c, series = factor_one_cup(l, lam)
        for n in range(l + 4, l + 11):
            p = series.term(n)
            assert _sturm_chain(p) == sturm_chain_by_prem(p), n


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


def assert_exact_interleaving(rep):
    """The interleaving witness is a list of exact fractions, strictly
    decreasing from the right endpoint to the left one."""
    for c in rep["claims"]:
        if c["id"] == "interleaving":
            pts = [Fraction(w) for w in c["witness"]]
            assert all(a > b for a, b in zip(pts, pts[1:])), c


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

    def test_claims_follow_the_series_dispatch(self):
        """Every closed-form label gets the claims of the series family_series
        returns for it, so its degree claim holds; at l = 1 the hook (2, 1)
        is the conjugate hook."""
        for l, lam in CLOSED_FORMS:
            for k in range(1, 4):
                (degree,) = [c for c in verify_root_layout(l, lam, k)["claims"]
                             if c["id"] == "degree"]
                assert degree["status"] == "pass", (l, lam, k, degree)

    def test_report_schema(self):
        rep = verify_root_layout(0, (1, 1), 2)
        assert set(rep) == {"l", "lambda", "k", "status", "claims"}
        assert rep["lambda"] == [1, 1] and rep["k"] == 2
        for c in rep["claims"]:
            assert c["status"] in {"pass", "fail"}

    @pytest.mark.parametrize("p,m,signs,witness", [
        (x, 3, {1: -1, 2: -1}, "sign 1 at 2cos(1pi/3)"),
        (x, 2, {1: 1}, "sign 0 at 2cos(1pi/2)"),  # an exact zero
    ])
    def test_wrong_sign_fails_interleaving(self, p, m, signs, witness):
        claims = []
        _interior_layout(claims, p, m, signs)
        assert claims == [{"id": "interleaving", "status": "fail", "witness": witness}]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            verify_root_layout(2, (2, 2), 1)

    @pytest.mark.parametrize("l,lam", [(0, (2,)), (0, (1, 1)), (2, (3, 1)), (1, (2, 1))])
    def test_member_below_the_anchor_rejected(self, l, lam):
        # P_{l+4+k} with k < 0 is no member the layout is claimed for
        with pytest.raises(ValueError, match="rank must be at least l\\+4"):
            verify_root_layout(l, lam, -1)

    def test_layouts_are_pinned(self):
        """Every closed-form series and every layout report at l <= 6,
        0 <= k <= 6, passing or failing, witnesses included (208 lines)."""
        lines = []
        for l, lam in CLOSED_FORMS:
            s = family_series(l, lam)
            lines.append(f"series {l} {lam} {s.anchor} {s.pN!r} {s.pN1!r}")
            lines += [f"{l} {lam} {k} {json.dumps(verify_root_layout(l, lam, k))}"
                      for k in range(7)]
        assert len(lines) == 208
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "8b66b70a8e77d7fb28d55d611d7c6fc2da52c59ab000e9b3bc80cf8fc1243d91")

    def test_small_l_failures_pinned(self):
        """The 22 closed-form layouts at l <= 6, k <= 4 that fail today (the
        column at l = -1 and the hooks and conjugate hooks at l = 1..4),
        witnesses included; every other one passes.  A change of dispatch,
        claim or gate shows up here as a changed report."""
        path = Path(__file__).parent / "data" / "root_layout_failures.json"
        wants = {(w["l"], tuple(w["lambda"]), w["k"]): w for w in json.loads(path.read_text())}
        assert len(wants) == 22
        for l, lam in CLOSED_FORMS:
            for k in range(1, 5):
                rep = verify_root_layout(l, lam, k)
                assert_exact_interleaving(rep)
                if (l, lam, k) in wants:
                    assert json.dumps(rep) == json.dumps(wants[l, lam, k])
                else:
                    assert rep["status"] == "pass", (l, lam, k)

    def test_certify_reports_pinned(self):
        # the two layouts the certify workload runs, witnesses included
        path = Path(__file__).parent / "data" / "root_layouts.json"
        for want in json.loads(path.read_text()):
            rep = verify_root_layout(want["l"], tuple(want["lambda"]), want["k"])
            assert_exact_interleaving(rep)
            assert json.dumps(rep) == json.dumps(want)
