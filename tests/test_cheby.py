"""Three-term series, quantum numbers, and the U-basis expansion."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kadaryu.cheby import (CLASSICAL, ChebSeries, cheb_u, quantum_number,
                           ramping_check, series_from_u_coeffs, u_expansion)
from kadaryu.exactmath import Polynomial, Q, poly_gcd_cofactors

x = Polynomial.x()


def test_normalised_branch_values():
    assert cheb_u(0).is_zero()
    assert cheb_u(1) == Polynomial.one()
    assert cheb_u(2) == x
    assert cheb_u(3) == x * x - 1
    assert cheb_u(4) == x * (x * x - 2)


def test_negative_indices_are_odd():
    for n in range(8):
        assert cheb_u(-n) == -cheb_u(n)


def test_high_index_needs_no_recursion():
    # P^U_n(2) = n; the old per-index recursion overflowed the stack here
    assert cheb_u(1200)(2) == 1200
    assert cheb_u(-1200)(2) == -1200


@given(st.integers(-12, 12))
def test_three_term_recursion(n):
    assert cheb_u(n + 1) == x * cheb_u(n) - cheb_u(n - 1)


def test_quantum_number_product_identity():
    # [2][n] = [n+1] + [n-1]
    for n in range(1, 9):
        assert quantum_number(2) * quantum_number(n) == (
            quantum_number(n + 1) + quantum_number(n - 1))


class TestChebSeries:
    def test_two_way_extension(self):
        s = ChebSeries(4, cheb_u(4), cheb_u(5))
        for n in range(-6, 10):
            assert s.term(n) == cheb_u(n)

    def test_classical_anchor(self):
        assert CLASSICAL.term(7) == cheb_u(7)
        assert CLASSICAL.term(-3) == -cheb_u(3)

    def test_json_roundtrip(self):
        s = ChebSeries(5, x * x - 2, x ** 3)
        t = ChebSeries.from_json(s.to_json())
        assert t == s and t.term(9) == s.term(9)

    def test_order_of_requests(self):
        """Terms asked for upwards or downwards, 40 either side of the
        anchor, are the same and satisfy the recursion."""
        ks = range(3 - 40, 3 + 41)
        up, down = (ChebSeries(3, x * x - 2, x ** 3 + x) for _ in range(2))
        ups = {k: up.term(k) for k in ks}
        downs = {k: down.term(k) for k in reversed(ks)}
        assert ups == downs
        assert all(ups[k + 1] == x * ups[k] - ups[k - 1] for k in ks[1:-1])

    @given(st.integers(-4, 4), st.integers(-3, 8))
    def test_reanchoring(self, shift, probe):
        s = ChebSeries(4, cheb_u(4), cheb_u(5))
        t = ChebSeries(4 + shift, s.term(4 + shift), s.term(5 + shift))
        assert t.term(probe) == s.term(probe)


def test_ramping_check():
    ok, _ = ramping_check(ChebSeries(0, x + 1, x * x - 2))
    assert ok
    bad, why = ramping_check(ChebSeries(0, x + 1, (x + 1) * (x - 2)))
    assert not bad and "share" in why
    bad, why = ramping_check(ChebSeries(0, 2 * x + 1, x * x))
    assert not bad


def series_reduce(s: ChebSeries) -> tuple[Polynomial, ChebSeries]:
    """Split off the maximal monic common factor of the two anchors."""
    if s.pN.is_zero() and s.pN1.is_zero():
        raise ValueError("zero series")
    common, pN, pN1 = poly_gcd_cofactors(s.pN, s.pN1)
    if common.degree == 0:
        return Polynomial.one(), s
    return common, ChebSeries(s.anchor, pN, pN1)


def test_series_reduce():
    common = x - 1
    s = ChebSeries(0, common * (x + 1), common * (x * x - 3))
    g, reduced = series_reduce(s)
    assert g == common
    assert reduced.pN == x + 1


class TestUExpansion:
    def test_classical_is_delta(self):
        s = ChebSeries(0, cheb_u(4), cheb_u(5))
        coeffs = u_expansion(s)
        assert coeffs == {4: Q(1), -4: Q(0)}

    def test_roundtrip_all_indices(self):
        s = ChebSeries(4, x * x + x - 4, x ** 3 + x * x - 5 * x - 1)
        coeffs = u_expansion(s)
        for j in range(-3, 6):
            assert series_from_u_coeffs(coeffs, j) == s.term(s.anchor + j)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_synthesised_series_roundtrip(self, tail):
        """Build a series from U coefficients, expand it back."""
        d = len(tail)
        coeffs = {d + 1: Q(1), -(d + 1): Q(0)}
        for i, c in enumerate(tail):
            coeffs[i - d] = Q(c)
        s = ChebSeries(0, series_from_u_coeffs(coeffs, 0),
                       series_from_u_coeffs(coeffs, 1))
        ok, _ = ramping_check(s)
        if not ok:
            return
        assert u_expansion(s) == {k: v for k, v in coeffs.items()
                                  if v or abs(k) == d + 1}
