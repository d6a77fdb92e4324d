"""Real-root isolation and the root-layout verifier for the determinant
Chebyshev series.

Everything here is exact and runs on integers.  Each polynomial gets one
Sturm chain, built once from its primitive integer squarefree part by
pseudo-remainders scaled only by positive factors, so its sign sequences
and counts are those of the chain over Q; the sign at a rational a/b is the
sign of a homogeneous integer Horner sum.  The sample points 2cos(r pi / m)
are the roots of P^U_m, isolated once per m by its Sturm chain.  A
polynomial vanishes at one exactly when the point's minimal polynomial
divides it (an integer pseudo-remainder); otherwise the point's interval is
bisected until it holds no root of the polynomial, whose sign at the point
is then its sign at the interval's upper end, a dyadic rational.  Those
rationals are the layout witnesses.

The four closed-form families (column, row, conjugate hook, hook) are
their coefficient tables in the P^U basis, the form cheby.u_expansion
gives, and the layout verifier has one branch per claim kind: values at
the sample points for the column and the row, signs there and Sturm
counts on fixed intervals for the two hooks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .cheby import ChebSeries, cheb_u, series_from_u_coeffs
from .claims import claim, report
from .exactmath import Polynomial, Q, clear_denominators, poly_gcd, poly_squarefree_part

# ---------------------------------------------------------------------------
# Sturm machinery
# ---------------------------------------------------------------------------


def _integer_coeffs(p: Polynomial) -> tuple[int, ...]:
    """p times a positive rational, as primitive integer coefficients
    (lowest first); p keeps its sign at every real point."""
    (ints,), _den = clear_denominators((p.coeffs,))
    g = math.gcd(*ints) or 1
    return tuple(c // g for c in ints)


def _neg_prem(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """-(f mod g) over Z: a positive multiple of the remainder over Q, made
    primitive.  Each step scales by |lc(g)| > 0, never by lc(g) itself."""
    r = list(f)
    b = abs(g[-1])
    sgn = 1 if g[-1] > 0 else -1
    dg = len(g) - 1
    while len(r) > dg:
        c = sgn * r[-1]
        shift = len(r) - 1 - dg
        r = [b * v for v in r]
        for i, gi in enumerate(g):
            r[shift + i] -= c * gi
        while r and r[-1] == 0:
            r.pop()
    if not r:
        return ()
    h = math.gcd(*r)
    return tuple(-v // h for v in r)


def _divides(h: Polynomial, p: Polynomial) -> bool:
    """h | p over Q: the integer pseudo-remainder of p's primitive
    coefficients by h's is a positive multiple of p mod h."""
    return not _neg_prem(_integer_coeffs(p), _integer_coeffs(h))


@lru_cache
def _sturm_chain(p: Polynomial) -> tuple[tuple[int, ...], ...]:
    """Sturm chain of the squarefree part of p by primitive integer
    pseudo-remainders.  Every member is a positive multiple of the chain
    over Q, so every sign sequence, and so every count, is the same."""
    sq = poly_squarefree_part(p)
    if sq.degree < 1:
        return ()
    chain = [_integer_coeffs(sq), _integer_coeffs(sq.derivative())]
    while r := _neg_prem(chain[-2], chain[-1]):
        chain.append(r)
    return tuple(chain)


def _sign(f: tuple[int, ...], x) -> int:
    """Sign of f at the rational x = a/b (b > 0): the sign of the
    homogeneous integer Horner sum  sum_i f_i a^i b^(d-i)."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    h, bp = 0, 1
    for c in reversed(f):
        h = h * a + c * bp
        bp *= b
    return (h > 0) - (h < 0)


def _sign_changes(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _chain_at(chain, x) -> int:
    if x == math.inf:
        return _sign_changes([f[-1] for f in chain])
    if x == -math.inf:  # the sign of (-1)^deg * lc
        return _sign_changes([f[-1] if len(f) % 2 else -f[-1] for f in chain])
    return _sign_changes([_sign(f, x) for f in chain])


def sturm_count(p: Polynomial, lo, hi) -> int:
    """Number of distinct real roots in (lo, hi]; lo/hi rational or +-inf."""
    chain = _sturm_chain(p)
    return _chain_at(chain, lo) - _chain_at(chain, hi)


def _root_bound(p: Polynomial) -> Fraction:
    lc = abs(p.lc)
    return 1 + max((abs(c) / lc for c in p.coeffs[:-1]), default=Q(0))


def sturm_isolate(p: Polynomial) -> list[tuple[Fraction, Fraction]]:
    """Pairwise-disjoint isolating intervals (lo, hi] of the distinct real
    roots of p, ascending: the start interval (-b - 1, b] for the root
    bound b of p's squarefree part, bisected at midpoints.  A Sturm count
    on (lo, hi] is exact when an end is a root, so a root at a midpoint
    lands in the left half."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    sq = poly_squarefree_part(p)
    if sq.degree < 1:
        return []
    out = []
    b = _root_bound(sq)
    stack = [(-b - 1, b)]
    while stack:
        lo, hi = stack.pop()
        count = sturm_count(sq, lo, hi)
        if count == 1:
            out.append((lo, hi))
        elif count > 1:
            mid = (lo + hi) / 2
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sorted(out)


# ---------------------------------------------------------------------------
# the sample points 2 cos(r pi / m): the roots of P^U_m
# ---------------------------------------------------------------------------


def _half(f: Polynomial, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The half of (lo, hi] that holds the one root f has there."""
    mid = (lo + hi) / 2
    return (lo, mid) if sturm_count(f, lo, mid) else (mid, hi)


@lru_cache(maxsize=None)
def _cheb_intervals(m: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Isolating intervals (lo, hi] of the roots of P^U_m, ascending;
    2cos(r pi/m) lies in the one at m - 1 - r.  Each hi is below 2, so a
    layout witness stays below its right endpoint 2."""
    u = cheb_u(m)
    out = []
    for lo, hi in sturm_isolate(u):
        while hi >= 2:
            lo, hi = _half(u, lo, hi)
        out.append((lo, hi))
    return tuple(out)


@lru_cache
def _point_interval(p: Polynomial, r: int, m: int) -> tuple[Fraction, Fraction]:
    """The interval of 2cos(r pi/m), bisected until it holds no root of p;
    p must not vanish at the point."""
    lo, hi = _cheb_intervals(m)[m - 1 - r]
    while sturm_count(p, lo, hi):
        lo, hi = _half(cheb_u(m), lo, hi)
    return lo, hi


def sign_at_2cos(p: Polynomial, r: int, m: int) -> int:
    """Exact sign of p(2cos(r pi/m)), 0 < r < m: 0 when the minimal
    polynomial of the point divides p, and otherwise the sign of p at the
    upper end of an interval around the point that holds no root of p."""
    if not 0 < r < m:
        raise ValueError("need 0 < r < m")
    if _divides(minimal_poly_2cos(r, m), p):
        return 0
    return _sign(_integer_coeffs(p), _point_interval(p, r, m)[1])


# ---------------------------------------------------------------------------
# minimal polynomials of 2 cos(r pi / m)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _q_factor(d: int) -> Polynomial:
    """Monic factor of P^U_d with roots 2cos(j pi/d), gcd(j, d) = 1."""
    q = cheb_u(d)
    for e in range(2, d):
        if d % e == 0:
            q = q.exact_div(_q_factor(e))
    return q.monic()


@lru_cache(maxsize=None)
def minimal_poly_2cos(r: int, m: int) -> Polynomial:
    """Minimal polynomial over Q of 2 cos(r pi / m), 0 < r < 2m."""
    g = math.gcd(r, m)
    r2, m2 = r // g, m // g
    if m2 == 1:  # cos of a multiple of pi
        return Polynomial([Q(2 if r2 % 2 else -2), Q(1)])
    q = _q_factor(m2)
    # among the roots 2cos(j pi/m2) of q, the Galois conjugates of our point
    # share the parity of j; P^U_{m2-1} takes value -(-1)^j there
    split = cheb_u(m2 - 1) + Polynomial.const(Q((-1) ** r2))
    if _divides(q, split):
        return q
    h = poly_gcd(q, split)
    if h.degree < 1:
        raise RuntimeError(f"minimal-polynomial split failed for 2cos({r}pi/{m})")
    return h


def lemma_roots_check(series: ChebSeries, k: int, kp: int, r: int) -> bool:
    """P_{N+k} = (-1)^r P_{N-kp} at 2cos(r pi/(k+kp)), checked symbolically."""
    if not (0 < r < k + kp):
        raise ValueError("need 0 < r < k + k'")
    diff = series.term(series.anchor + k) - series.term(series.anchor - kp) * Q((-1) ** r)
    return _divides(minimal_poly_2cos(r, k + kp), diff)


# ---------------------------------------------------------------------------
# the closed-form determinant series used by the layout verifier
# ---------------------------------------------------------------------------

# Each family is its U-expansion (cheby.u_expansion): _U_COEFFS[family](l)
# is {k: a_k} with P_{l+4+j} = sum_k a_k P^U_{k+j}, anchored at n = l+4.
_U_COEFFS = {
    # the single column (l+2)^T
    "column": lambda l: {3: 1, 2: -(l + 1), 1: -(l + 1)},
    # the single row (l+2)
    "row": lambda l: {4: 1, 3: 3 * l + 1, 2: 2 * l * l - l - 2,
                      1: -(l + 1) * (2 * l - 1), 0: -(l + 1)},
    # the conjugate hook (2, 1^l), valid l >= 1
    "hook_t": lambda l: {5: 1, 4: -2 * (l - 1), 3: l * (l - 5), 2: 3 * l * (l - 1),
                         1: 2 * (l * l - 2 * l - 1), 0: l * (l - 1), -1: -(l + 1)},
    # the hook (l+1, 1), valid l >= 2
    "hook": lambda l: {6: 1, 5: 2 * (2 * l - 3), 4: 5 * l * l - 21 * l + 13,
                       3: (l - 2) * (2 * l * l - 17 * l + 7),
                       2: -(l - 2) * (6 * l * l - 19 * l + 5),
                       1: 4 * (l ** 3 - 6 * l * l + 8 * l - 1),
                       0: -(l - 3) * (2 * l * l - 4 * l - 1),
                       -1: -(3 * l * l - 3 * l - 4), -2: -(l + 1)},
}


def _family(l: int, lam: tuple[int, ...]) -> str:
    """The closed-form family of lam at l, the one dispatch that
    family_series and verify_root_layout both read.

    Column before row: at l = -1 the two patterns coincide and only the
    column form remains valid there.  Conjugate hook before hook: at l = 1
    they coincide, and the conjugate-hook form is the one valid down to
    l = 1.
    """
    for family, shape in (("column", (1,) * (l + 2)), ("row", (l + 2,)),
                          ("hook_t", (2,) + (1,) * l), ("hook", (l + 1, 1))):
        if lam == shape:
            return family
    raise ValueError(f"no closed-form series for lambda = {lam} at l = {l}")


def family_series(l: int, lam: tuple[int, ...]) -> ChebSeries:
    """P for the closed-form family of lam at l, built from its U-coefficient
    table and anchored at n = l+4."""
    c = _U_COEFFS[_family(l, tuple(lam))](l)
    return ChebSeries(l + 4, series_from_u_coeffs(c, 0), series_from_u_coeffs(c, 1))


# ---------------------------------------------------------------------------
# layout verification
# ---------------------------------------------------------------------------


def _interior_layout(claims, p: Polynomial, m: int, signs: dict[int, int],
                     expect_left: int = 1, expect_right: int = 1):
    """The claim "interleaving": one root between consecutive sample points.

    signs maps r -> expected sign at 2cos(r pi/m) for the interior points;
    a point with another sign fails the claim.  Each point stands in by the
    upper end of its interval from _point_interval, with no root of p in
    between, so the gap counts are those between the points, which lie
    between the ends -2 and 2.  The end gaps (largest sample point, 2) and
    (-2, smallest sample point) expect expect_right resp. expect_left
    roots (None: not claimed); all inner gaps expect exactly one.
    """
    pts = [Q(2)]
    for r in sorted(signs):
        s = sign_at_2cos(p, r, m)
        if s != signs[r]:
            claim(claims, "interleaving", False, f"sign {s} at 2cos({r}pi/{m})")
            return
        pts.append(_point_interval(p, r, m)[1])
    pts.append(Q(-2))
    expected = [expect_right] + [1] * (len(pts) - 3) + [expect_left]
    ok = all(e is None or sturm_count(p, b, a) == e
             for (a, b), e in zip(zip(pts, pts[1:]), expected))
    claim(claims, "interleaving", ok, [str(x) for x in pts])


def verify_root_layout(l: int, lam: tuple[int, ...], k: int) -> dict:
    """Check the asserted root distribution of the member P_{l+4+k}, k >= 0,
    of the closed-form family for lam; returns a claims report."""
    if k < 0:
        raise ValueError("rank must be at least l+4")
    lam = tuple(lam)
    family = _family(l, lam)
    p = family_series(l, lam).term(l + 4 + k)
    claims: list[dict] = []

    if family in ("column", "row"):
        # p = (-1)^r (l+2) w at 2cos(r pi/m): w = 1 for the column, a + 2l
        # for the row
        row = family == "row"
        m = k + 2
        claim(claims, "degree", p.degree == k + 2 + row, p.degree)
        w = Polynomial([Q(2 * l), Q(1)]) if row else Polynomial.one()
        for r in range(1, k + 2):
            ok = _divides(minimal_poly_2cos(r, m), p - w * Q((-1) ** r * (l + 2)))
            claim(claims, f"value-at-2cos({r}pi/{m})", ok)
        alternating = {r: (-1) ** r for r in range(1, k + 2)}
        if not row:
            claim(claims, "value-at--2", p(-2) == (-1) ** (k + 2) * (4 + k + l), str(p(-2)))
            claim(claims, "value-at-l+2", p(l + 2) == -cheb_u(k)(l + 2), str(p(l + 2)))
            if k >= 1:
                claim(claims, "negative-at-l+2", p(l + 2) < 0)
                # no root between the largest sample point and 2
                _interior_layout(claims, p, m, alternating, expect_right=0)
                claim(claims, "root-beyond-l+2", sturm_count(p, Q(l + 2), math.inf) == 1)
                claim(claims, "total-real-roots",
                       sturm_count(p, -math.inf, math.inf) == k + 2)
        else:
            claim(claims, "value-at-2", p(2) == 2 * (l + 1) * (l + 2), str(p(2)))
            full = l > 1 and l + 4 + k > 6
            if l >= 1 and k >= 1:
                # x_r + 2l > 0 on (-2, 2] once l >= 1, so signs alternate;
                # the claimed interior roots sit strictly above the smallest
                # sample point, with one more in the top gap below 2
                _interior_layout(claims, p, m, alternating, expect_left=0 if full else None)
            if full:
                claim(claims, "root-below--2(l+1)",
                       sturm_count(p, -math.inf, Q(-2 * (l + 1))) == 1)
                claim(claims, "root-in-(-(l+1),-l)",
                       sturm_count(p, Q(-(l + 1)), Q(-l)) == 1)
                claim(claims, "no-root-in-(-l,-2)",
                       sturm_count(p, Q(-l), Q(-2)) == 0)

    else:
        # sign eps (-1)^r at 2cos(r pi/m): eps = 1 for the conjugate hook,
        # -1 for the hook, whose degree is one higher and gate one later
        hook = family == "hook"
        eps = -1 if hook else 1
        m = k + 1
        claim(claims, "degree", p.degree == k + 4 + hook, p.degree)
        signs = {r: eps * (-1) ** r for r in range(1, k + 1)}
        for r, want in signs.items():
            s = sign_at_2cos(p, r, m)
            claim(claims, f"sign-at-2cos({r}pi/{m})", s == want, s)
        if l > 3 + hook:
            claim(claims, "sign-at-2", eps * p(2) > 0, str(p(2)))
            claim(claims, "sign-at--2", eps * (-1) ** (k + 1) * p(-2) > 0, str(p(-2)))
            _interior_layout(claims, p, m, signs)
            if hook:
                intervals = [("root-beyond-2", Q(2), math.inf),
                             ("root-below--2l", -math.inf, Q(-2 * l)),
                             ("root-in-(-2l,-l+1)", Q(-2 * l), Q(-l + 1)),
                             ("root-in-(-l+2,-l+3)", Q(-l + 2), Q(-l + 3))]
            else:
                intervals = [("root-below--2", -math.inf, Q(-2)),
                             ("root-in-(l-1,l)", Q(l - 1), Q(l)),
                             ("root-beyond-l+1", Q(l + 1), math.inf)]
            for cid, lo, hi in intervals:
                claim(claims, cid, sturm_count(p, lo, hi) == 1)

    return report({"l": l, "lambda": list(lam), "k": k}, claims)
