"""Chebyshev-type polynomial series.

A series here is any two-sided sequence satisfying

    P_{n+1} = a * P_n - P_{n-1}

(some references print the recursion with a plus sign; the minus sign is the
one consistent with P_2 = a, P_3 = a^2 - 1 and with the determinant
recursions this package verifies).  ``cheb_u`` is the normalised branch with
P_0 = 0, P_1 = 1; it satisfies P^U_n(x) = U_{n-1}(x/2) in terms of the
classical Chebyshev U and extends to negative indices by P^U_{-n} = -P^U_n.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import Polynomial, Q, poly_gcd


def cheb_u(n: int) -> Polynomial:
    """Normalised Chebyshev branch; P^U_4 = a(a^2-2), P^U_{-n} = -P^U_n.

    A term of CLASSICAL, by the memoised loop of ChebSeries.term; a negative
    index reads the positive term."""
    return -CLASSICAL.term(-n) if n < 0 else CLASSICAL.term(n)


def quantum_number(n: int) -> Polynomial:
    """[n] as a polynomial in the loop parameter delta = [2]."""
    return cheb_u(n)


class ChebSeries:
    """A Chebyshev series pinned by two consecutive anchor terms.

    term(N) = pN, term(N+1) = pN1; everything else follows from the
    three-term recursion, in both directions.
    """

    __slots__ = ("anchor", "pN", "pN1", "_memo")

    def __init__(self, anchor: int, pN: Polynomial, pN1: Polynomial):
        self.anchor = anchor
        self.pN = pN
        self.pN1 = pN1
        self._memo = {anchor: pN, anchor + 1: pN1}

    def term(self, n: int) -> Polynomial:
        memo = self._memo
        if n in memo:
            return memo[n]
        # the memo is one run of indices around the anchor; the recursion
        # P_{k-1} = a P_k - P_{k+1} is the same one read downwards
        step = 1 if n > self.anchor else -1
        k = max(memo) if step > 0 else min(memo)
        p0, p1 = memo[k - step], memo[k]
        while k != n:
            k += step
            p0, p1 = p1, Polynomial((0,) + p1.coeffs) - p0
            memo[k] = p1
        return p1

    def __eq__(self, other):
        if not isinstance(other, ChebSeries):
            return NotImplemented
        return (self.term(other.anchor) == other.pN
                and self.term(other.anchor + 1) == other.pN1)

    def to_json(self) -> dict:
        return {"anchor": self.anchor, "pN": self.pN.to_json(), "pN1": self.pN1.to_json()}

    @staticmethod
    def from_json(d: dict) -> "ChebSeries":
        return ChebSeries(d["anchor"], Polynomial.from_json(d["pN"]),
                          Polynomial.from_json(d["pN1"]))

    def __repr__(self):
        return f"ChebSeries(N={self.anchor}, P_N={self.pN}, P_N+1={self.pN1})"


CLASSICAL = ChebSeries(0, Polynomial(), Polynomial.one())


def ramping_check(s: ChebSeries) -> tuple[bool, str]:
    """True iff the anchors are coprime, monic, with degrees d and d+1."""
    pN, pN1 = s.pN, s.pN1
    if pN.is_zero() or pN1.is_zero():
        return False, "zero anchor"
    if not pN.is_monic() or not pN1.is_monic():
        return False, "anchor not monic"
    if pN1.degree != pN.degree + 1:
        return False, f"degrees {pN.degree}, {pN1.degree} do not step by one"
    if poly_gcd(pN, pN1).degree != 0:
        return False, "anchors share a factor"
    return True, "ok"


# -- the U-basis expansion --------------------------------------------------
#
# A ramping series P with deg(P_N) = d expands uniquely as
#     P_{N+j} = sum_{k=-(d+1)}^{d+1} a_k P^U_{k+j}     (all j)
# with a_{d+1} = 1 and a_{-(d+1)} = 0.  Since P^U_0 = 0 and P^U_{-k} = -P^U_k,
# the anchors are P_N = sum_{k>=1} (a_k - a_{-k}) P^U_k and
# P_{N+1} = sum_{k>=1} (a_{k-1} - a_{-(k+1)}) P^U_k; their coefficients in
# the P^U basis are read off by division, top degree first.


def _u_coeffs(p: Polynomial) -> dict[int, Fraction]:
    """The c_k with p = sum_{k>=1} c_k P^U_k (P^U_k is monic of degree k-1)."""
    c: dict[int, Fraction] = {}
    while p:
        c[p.degree + 1] = p.lc
        p -= cheb_u(p.degree + 1) * p.lc
    return c


def u_expansion(s: ChebSeries) -> dict[int, Fraction]:
    """Coefficients a_k with P_{N+j} = sum_k a_k P^U_{k+j}.

    Requires the ramping property at the anchor; the result round-trips
    exactly (checked by the caller's tests, and cheap to re-verify).
    """
    ok, why = ramping_check(s)
    if not ok:
        raise ValueError(f"series is not ramping at its anchor: {why}")
    d = s.pN.degree
    # L0 coefficients: b_k = a_k - a_{-k};  L1: b'_k = a_{k-1} - a_{-(k+1)}
    b = _u_coeffs(s.pN)
    bp = _u_coeffs(s.pN1)
    a: dict[int, Fraction] = {d + 1: Q(1), -(d + 1): Q(0), -(d + 2): Q(0)}
    for j in range(d, -1, -1):
        # from b'_{j+1} = a_j - a_{-(j+2)}
        a[j] = bp.get(j + 1, Q(0)) + a[-(j + 2)]
        if j:
            a[-j] = a[j] - b.get(j, Q(0))
    a.pop(-(d + 2), None)
    # consistency: both anchors must reconstruct exactly
    if (series_from_u_coeffs(a, 0), series_from_u_coeffs(a, 1)) != (s.pN, s.pN1):
        raise ValueError("U-expansion failed to round-trip (non-ramping input?)")
    return {k: v for k, v in a.items() if v or abs(k) == d + 1}


def series_from_u_coeffs(coeffs: dict[int, Fraction], n: int) -> Polynomial:
    """The term P_{N+n} = sum_k coeffs[k] P^U_{k+n} of the series whose
    U-expansion (u_expansion) is coeffs.  roots.family_series builds each
    closed-form family from its coefficient table this way, and
    u_expansion checks its round trip with it.
    """
    acc = Polynomial()
    for k, ak in coeffs.items():
        if ak:
            acc = acc + cheb_u(k + n) * ak
    return acc
