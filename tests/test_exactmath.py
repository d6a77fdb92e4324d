"""Exact arithmetic layer: polynomials, determinant oracles, Smith form."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kadaryu import exactmath
from kadaryu.exactmath import (Polynomial, PolyMatrix, Q, QuotElem, det_monic_companion,
                               det_rational, field_kernel, field_rank, field_row_echelon,
                               poly_content_removed, poly_gcd, poly_gcd_cofactors,
                               poly_nth_root, poly_squarefree_part, reduced)
from kadaryu.gram import ModuleLabel, gram_matrix

import oracles
from oracles import (det_cofactor, det_interpolate, det_poly, det_poly_bareiss, gram_mixed,
                     poly_gcd_euclid, poly_mul_schoolbook, smith_invariants,
                     yun_squarefree_decomposition)

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))
polys = st.lists(rationals, max_size=6).map(Polynomial)
small_polys = st.lists(st.integers(-5, 5), max_size=4).map(Polynomial)
wide_polys = st.lists(st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 20)),
                      max_size=12).map(Polynomial)
# divisors with rational coefficients, ones whose leading coefficient stays
# 7/3 or -5 times the common denominator when cleared, and constants
divisors = (polys.filter(bool)
            | st.builds(lambda p, lc: Polynomial([*p.coeffs, lc]), polys,
                        st.sampled_from([Q(7, 3), Q(-5)]))
            | rationals.filter(bool).map(Polynomial.const))


@st.composite
def gcd_inputs(draw):
    """Pairs that are not both zero: plain, sharing a factor, one of them
    zero or constant, negated and non-monic."""
    a, b, g = draw(polys), draw(polys), draw(polys.filter(bool))
    shape = draw(st.sampled_from(["plain", "shared", "zero", "constant", "negated"]))
    if shape == "shared":
        a, b = a * g, b * g
    elif shape == "zero":
        a = Polynomial()
    elif shape == "constant":
        a = Polynomial.const(draw(rationals.filter(bool)))
    elif shape == "negated":
        a, b = -(a * g * g), b * g * Polynomial([-3, 0, 5])
    return (a, b) if a or b else (a, g)


class TestPolynomial:
    def test_normalisation_strips_leading_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0]).is_zero()
        assert Polynomial().degree == -1

    def test_arithmetic_basics(self):
        x = Polynomial.x()
        assert (x + 1) * (x - 1) == x * x - 1
        assert (x ** 3).coeffs == (0, 0, 0, 1)
        assert (x ** 2 - 1) % (x - 1) == Polynomial()

    @given(polys, polys)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polys | wide_polys, polys | wide_polys)
    def test_mul_matches_schoolbook(self, p, q):
        assert p * q == poly_mul_schoolbook(p, q)

    @pytest.mark.parametrize("a,b", [([127], [1]), ([-128], [1]), ([255, -255], [255, 255]),
                                     ([1, 0, 0, -1], [2 ** 64 - 1]), ([0, 1], [0, 0, -1])])
    def test_mul_at_digit_boundaries(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        assert p * q == poly_mul_schoolbook(p, q)

    @given(polys, polys, polys)
    def test_mul_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, small_polys.filter(lambda p: not p.is_zero()))
    def test_divmod_roundtrip(self, p, q):
        quo, rem = p.divmod(q)
        assert quo * q + rem == p
        assert rem.degree < q.degree

    @given(polys | wide_polys, divisors)
    @example(Polynomial(), Polynomial([1, Q(7, 3)]))
    @example(Polynomial([1, 2]), Polynomial([0, 0, -5]))
    @example(Polynomial([3, Q(1, 2), 1]), Polynomial([Q(2, 3)]))
    def test_divmod_matches_long_division(self, p, q):
        """The integer pseudo-division returns the quotient and remainder of
        long division over Q: zero and lower-degree dividends, constant
        divisors and divisors whose cleared leading coefficient is not 1."""
        assert p.divmod(q) == oracles.divmod_over_q(p, q)

    @given(st.integers(-10 ** 30, 10 ** 30) | rationals, polys)
    def test_hash_agrees_with_eq(self, c, p):
        """A constant polynomial equals its coefficient, so the two hash
        alike and find each other in sets, the zero polynomial as 0."""
        const = Polynomial.const(c)
        assert const == c and hash(const) == hash(c)
        assert c in {const} and const in {c}
        assert hash(Polynomial()) == hash(0) and Polynomial() in {0, Q(0)}
        assert (p in {p.coeffs[0] if p.coeffs else 0}) == (p.degree < 1)

    @given(polys)
    def test_json_roundtrip(self, p):
        assert Polynomial.from_json(p.to_json()) == p

    @given(polys, rationals)
    def test_evaluation_is_hom(self, p, x):
        q = Polynomial([1, 1])
        assert (p * q)(x) == p(x) * q(x)

    def test_nth_root(self):
        x = Polynomial.x()
        p = (x ** 2 + 3 * x - 1) ** 3
        assert poly_nth_root(p, 3) == x ** 2 + 3 * x - 1
        with pytest.raises(ValueError):
            poly_nth_root(x ** 2 + 1, 2)

    @given(small_polys.filter(lambda p: p.degree >= 1), st.integers(2, 3))
    def test_nth_root_of_power(self, p, d):
        assert poly_nth_root(p ** d, d) == p.monic()


class TestGcd:
    def test_gcd_of_common_factor(self):
        x = Polynomial.x()
        a = (x - 1) * (x + 2)
        b = (x - 1) * (x - 3)
        assert poly_gcd(a, b) == x - 1

    @given(small_polys, small_polys)
    def test_gcd_divides(self, a, b):
        if a.is_zero() and b.is_zero():
            return
        g = poly_gcd(a, b)
        if g.is_zero():
            return
        for p in (a, b):
            if not p.is_zero():
                assert (p % g).is_zero()

    @given(gcd_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_euclid(self, ab):
        a, b = ab
        g = poly_gcd_euclid(a, b)
        assert poly_gcd(a, b) == poly_gcd(b, a) == g

    @given(gcd_inputs())
    @settings(deadline=None)
    def test_forced_fallback(self, ab):
        """With no evaluation point to try, every gcd of two nonconstant
        polynomials comes from Euclid's algorithm."""
        a, b = ab
        calls = []
        euclid = exactmath._gcd_euclid
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactmath, "_GCDHEU_TRIES", 0)
            mp.setattr(exactmath, "_gcd_euclid", lambda p, q: calls.append(1) or euclid(p, q))
            assert poly_gcd(a, b) == poly_gcd_euclid(a, b)
        assert calls == [1]

    @given(gcd_inputs(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_cofactors(self, ab, heuristic):
        """On the heuristic path and on Euclid's alone, the gcd is Euclid's
        and its cofactors multiply back to the inputs exactly."""
        a, b = ab
        with pytest.MonkeyPatch.context() as mp:
            if not heuristic:
                mp.setattr(exactmath, "_GCDHEU_TRIES", 0)
            g, ca, cb = poly_gcd_cofactors(a, b)
        assert g == poly_gcd_euclid(a, b)
        assert (g * ca, g * cb) == (a, b)

    @given(gcd_inputs())
    @settings(deadline=None)
    def test_rational_function_is_reduced(self, ab):
        a, b = ab
        if b.is_zero():
            a, b = b, a
        g = poly_gcd_euclid(a, b)
        lc = b.exact_div(g).lc
        assert reduced(a, b) == ((a.exact_div(g) * (1 / lc), b.exact_div(g).monic())
                                 if a else (Polynomial(), Polynomial.one()))

    def test_two_zeros(self):
        for gcd in (poly_gcd, poly_gcd_cofactors):
            with pytest.raises(ValueError):
                gcd(Polynomial(), Polynomial())
        with pytest.raises(ZeroDivisionError):
            reduced(Polynomial.one(), Polynomial())

    def test_content_removed(self):
        x = Polynomial.x()
        g, prim = poly_content_removed([(x - 1) * 2, (x - 1) * x])
        assert g == x - 1
        assert prim[0] == Polynomial([2])
        # the running gcd shrinks at the third entry and at the fifth
        vec = [(x - 1) * x * 3, Polynomial(), (x - 1) * (x + 2), x - 1, Polynomial([5])]
        assert poly_content_removed(vec) == (Polynomial.one(), vec)
        assert poly_content_removed(vec[:4]) == (x - 1, [x * 3, Polynomial(), x + 2,
                                                         Polynomial.one()])

    def test_squarefree(self):
        x = Polynomial.x()
        p = (x - 1) ** 2 * (x + 3)
        assert poly_squarefree_part(p) == ((x - 1) * (x + 3)).monic()
        decomp = yun_squarefree_decomposition(p)
        assert (x + 3, 1) in decomp and (x - 1, 2) in decomp


# ---------------------------------------------------------------------------
# determinants: the three oracles must agree
# ---------------------------------------------------------------------------

matrix_entries = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(Polynomial)
rational_entries = st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 8)),
                            max_size=3).map(Polynomial)


@st.composite
def poly_matrices(draw, max_size=4):
    n = draw(st.integers(1, max_size))
    return PolyMatrix([[draw(matrix_entries) for _ in range(n)] for _ in range(n)])


@st.composite
def rational_poly_matrices(draw, max_size=6):
    """Square matrices over Q[a], some with a zero row or a row that is a
    polynomial multiple of another (singular)."""
    n = draw(st.integers(1, max_size))
    rows = [[draw(rational_entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["plain", "zero row", "dependent row"]))
    i, j = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
    if shape == "zero row":
        rows[i] = [Polynomial()] * n
    elif shape == "dependent row" and n > 1:
        c = draw(rational_entries)
        rows[i] = [c * p for p in rows[j]]
    return PolyMatrix(rows)


@st.composite
def linearisation_matrices(draw):
    """Matrices for each branch of the det_poly oracle: rows of top degree c whose top
    coefficients are invertible (expanded at a = oo) or of rank one
    (expanded at the first a = s where the matrix is invertible); row 0
    times a(a - 1), singular at a = 0 and 1 (for n > 1 expanded at a = 2);
    and a zero determinant with no zero row."""
    n = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["uniform", "singular lead", "singular at 0 and 1",
                                  "zero det"]))
    nonzero = st.builds(Fraction, st.integers(1, 6) | st.integers(-6, -1), st.integers(1, 8))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 8))
    rows = [[Polynomial([draw(coeff) for _ in range(c)] + [draw(nonzero)])
             for _ in range(n)] for _ in range(n)]
    if shape == "singular lead":
        # top coefficients of rank one: only column 0 keeps its a^c term
        rows = [[p if j == 0 else Polynomial(p.coeffs[:c]) for j, p in enumerate(row)]
                for row in rows]
    elif shape == "singular at 0 and 1":
        rows[0] = [p * Polynomial([0, -1, 1]) for p in rows[0]]
    elif shape == "zero det" and n > 1:
        rows[-1] = [p * draw(nonzero) for p in rows[0]]
    return PolyMatrix(rows)


@st.composite
def monic_matrix_polys(draw):
    """The tail [B_0 | .. | B_{t-1}] of x^t I + B_0 + .. + B_{t-1} x^{t-1}, t = 0..3."""
    n, t = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return [[draw(st.integers(-6, 6)) for _ in range(t * n)] for _ in range(n)]


class TestDeterminants:
    @given(rational_poly_matrices())
    @settings(max_examples=60, deadline=None)
    def test_oracles_agree(self, m):
        d1 = det_poly(m)
        d2 = det_poly_bareiss(m)
        d3 = det_cofactor(m)
        assert d1 == d2 == d3

    @given(linearisation_matrices())
    @settings(max_examples=80, deadline=None)
    def test_linearisation_matches_evaluation(self, m):
        assert det_poly(m) == det_interpolate(m) == det_poly_bareiss(m)

    @pytest.mark.parametrize("matrix", [
        lambda: gram_matrix(ModuleLabel(-1, 8, 0, ())).matrix,
        lambda: gram_matrix(ModuleLabel(1, 6, 2, (2,))).matrix,
        lambda: gram_matrix(ModuleLabel(2, 6, 4, (3, 1))).matrix,
        lambda: gram_mixed(1, (2, 1), (5, 6)),
    ], ids=["TL n=8 p=0", "l=1 n=6 p=2", "l=2 n=6 p=4", "mixed (5,6)"])
    def test_gram_matrices_match_evaluation(self, matrix):
        # each is singular at a = 0 (some also at 1, 2 and 3) and has
        # invertible top coefficients, so it is expanded at a = oo; row 0
        # times a makes the top coefficients singular and forces an
        # expansion point s > 0
        m = matrix()
        det = det_poly(m)
        assert det == det_interpolate(m)
        shifted = PolyMatrix([[p * Polynomial.x() for p in m.entries[0]]] + m.entries[1:])
        assert det_poly(shifted) == det_interpolate(shifted) == det * Polynomial.x()

    @staticmethod
    def moduli_tried(monkeypatch):
        """The moduli _lift_mod hands to its residues, in order."""
        tried = []
        lift = exactmath._lift_mod

        def spy(hadamard_sq, residues):
            return lift(hadamard_sq, lambda modulus: tried.append(modulus) or residues(modulus))

        monkeypatch.setattr(exactmath, "_lift_mod", spy)
        return tried

    @pytest.mark.parametrize("floor", [2 ** 61, 3])
    def test_hadamard_bound_attained(self, monkeypatch, floor):
        # det(a I - 16) = a - 16, and H = 16 + 1 on |a| = 1; with the floor
        # at 3 the modulus is the first prime above 2H = 34 (37), and one
        # just above H alone (19) would lift -16 to 3
        monkeypatch.setattr(exactmath, "_MODULUS_FLOOR", floor)
        tried = self.moduli_tried(monkeypatch)
        assert det_monic_companion([[-16]]) == Polynomial([-16, 1])
        if floor == 3:
            assert tried == [37]

    def test_composite_modulus_is_skipped(self, monkeypatch):
        # a^11 + 169: 2H = 340, and the first candidate 341 = 11 * 31 is a
        # base-2 Fermat pseudoprime; the pivot -169 is a unit mod it, so the
        # charpoly is exact in Z/341 and the modulus is kept
        monkeypatch.setattr(exactmath, "_MODULUS_FLOOR", 3)
        tried = self.moduli_tried(monkeypatch)
        assert det_monic_companion([[169] + [0] * 10]) == Polynomial([169] + [0] * 10 + [1])
        assert tried == [341]

    def test_non_unit_pivot_skips_the_modulus(self, monkeypatch):
        # det(a I + B) = (a + 2)(a^2 - 11): H^2 = 2 * 122 * 118, so 2H = 339.4
        # and 341 is tried first, but the Hessenberg pivot -11 of the
        # companion -B is not a unit mod 341 = 11 * 31, so 347 is used
        monkeypatch.setattr(exactmath, "_MODULUS_FLOOR", 3)
        tried = self.moduli_tried(monkeypatch)
        B = [[0, 1, 0], [11, 0, 0], [10, 3, 2]]
        assert det_monic_companion(B) == Polynomial([-22, -11, 2, 1])
        assert tried == [341, 347]

    def test_failed_check_raises(self, monkeypatch):
        x = Polynomial.x()
        m = PolyMatrix([[x, Polynomial.one()], [Polynomial.one(), x]])
        assert det_poly(m) == x * x - 1
        charpoly = exactmath._charpoly_mod

        def corrupt(c, modulus):
            coeffs = charpoly(c, modulus)
            coeffs[0] = (coeffs[0] + 1) % modulus
            return coeffs

        monkeypatch.setattr(exactmath, "_charpoly_mod", corrupt)
        with pytest.raises(RuntimeError, match="determinant check failed"):
            det_poly(m)

    def test_companion_checks_itself(self, monkeypatch):
        """det_monic_companion compares its lifted result with an integer
        Bareiss determinant of a^t I + B(a) at the first a >= 2 where it is
        nonzero, here a = 4 for (a - 2)(a - 3), and raises on a corrupted
        charpoly instead of returning a wrong determinant."""
        x = Polynomial.x()
        checked = []
        bareiss = exactmath._int_det_bareiss
        monkeypatch.setattr(exactmath, "_int_det_bareiss",
                            lambda m: checked.append([row[:] for row in m]) or bareiss(m))
        assert det_monic_companion([[-2, 0], [0, -3]]) == (x - 2) * (x - 3)
        assert checked == [[[2, 0], [0, 1]]]
        # t = 2: (a^2 + a + 2)(a^2 - 1) - 2a * a
        tail = [[2, 0, 1, 2], [0, -1, 1, 0]]
        assert det_monic_companion(tail) == Polynomial([-2, -1, -1, 1, 1])
        charpoly = exactmath._charpoly_mod

        def corrupt(c, modulus):
            coeffs = charpoly(c, modulus)
            coeffs[0] = (coeffs[0] + 1) % modulus
            return coeffs

        monkeypatch.setattr(exactmath, "_charpoly_mod", corrupt)
        with pytest.raises(RuntimeError, match="determinant check failed at a = 2"):
            det_monic_companion(tail)

    def test_check_point_is_the_first_nonzero_from_two(self, monkeypatch):
        x = Polynomial.x()
        zero = Polynomial()
        m = PolyMatrix([[x - 2, zero], [zero, (x - 3) * (x - 4)]])
        points = []
        matrix_at = oracles.matrix_at
        monkeypatch.setattr(oracles, "matrix_at",
                            lambda m, a: points.append(a) or matrix_at(m, a))
        assert det_poly(m) == (x - 2) * (x - 3) * (x - 4)
        assert points == [5]

    def test_too_small_degree_bound_raises(self, monkeypatch):
        # top coefficients singular and the matrix singular at a = 0, 1: with
        # a degree bound of 1 no expansion point is left, and the zero
        # result fails the check at a = 2
        x = Polynomial.x()
        m = PolyMatrix([[x * (x - 1), Polynomial()], [Polynomial(), Polynomial.one()]])
        monkeypatch.setattr(PolyMatrix, "degree_bound", lambda self: 1)
        with pytest.raises(RuntimeError, match="determinant check failed"):
            det_poly(m)

    @given(monic_matrix_polys())
    @settings(max_examples=80, deadline=None)
    def test_companion_matches_det_poly(self, tail):
        n = len(tail)
        t = len(tail[0]) // n
        rows = [[Polynomial([tail[i][k * n + j] for k in range(t)] + [int(i == j)])
                 for j in range(n)] for i in range(n)]
        assert det_monic_companion(tail) == det_poly(PolyMatrix(rows))

    def test_rational_det(self):
        m = [[Q(1, 2), Q(1)], [Q(1), Q(3)]]
        assert det_rational(m) == Q(1, 2)

    def test_singular(self):
        x = Polynomial.x()
        m = PolyMatrix([[x, x], [x, x]])
        assert det_poly(m).is_zero()
        assert det_poly_bareiss(m).is_zero()


class TestSmith:
    def test_tridiagonal_example(self):
        """3x3 tridiagonal with parameter diagonal: invariants ascend as
        [1, 1, d(d^2-2)]."""
        d = Polynomial.x()
        one = Polynomial.one()
        zero = Polynomial()
        m = PolyMatrix([[d, one, zero], [one, d, one], [zero, one, d]])
        inv = smith_invariants(m)
        assert inv == [Polynomial.one(), Polynomial.one(), d * (d * d - 2)]

    @given(poly_matrices(max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_product_is_det(self, m):
        inv = smith_invariants(m)
        det = det_poly(m)
        prod = Polynomial.one()
        for f in inv:
            prod = prod * f
        if det.is_zero():
            assert prod.is_zero()
        else:
            assert prod == det.monic()

    @given(poly_matrices(max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_divisibility_chain(self, m):
        inv = smith_invariants(m)
        for a, b in zip(inv, inv[1:]):
            if a.is_zero():
                assert b.is_zero()
            elif not b.is_zero() and a.degree > 0:
                assert (b % a).is_zero()


# ---------------------------------------------------------------------------
# quotient rings and field linear algebra
# ---------------------------------------------------------------------------

class TestQuotientRing:
    def test_inverse(self):
        a = QuotElem(Polynomial([-4, 1, 1]), Polynomial.x())  # a^2 + a - 4
        assert (a * a.inverse()).rep == Polynomial.one()

    def test_modular_relation(self):
        a = QuotElem(Polynomial([-4, 1, 1]), Polynomial.x())
        assert (a * a + a).rep == Polynomial([4])

    def test_noninvertible(self):
        x = Polynomial.x()
        elem = QuotElem((x - 1) * (x + 1), x - 1)
        with pytest.raises(ZeroDivisionError):
            elem.inverse()
        with pytest.raises(ZeroDivisionError):
            1 / elem

    def test_mixes_with_fractions(self):
        m = Polynomial([-2, 0, 1])  # a^2 - 2
        x = QuotElem(m, Polynomial.x())
        assert QuotElem(m, m) == 0
        assert not QuotElem(m, m)
        assert x * x == 2 and x != 2 and x
        assert (Fraction(1) / x).rep == Polynomial([0, Q(1, 2)])
        assert (3 - x).rep == Polynomial([3, -1])
        assert (x * Fraction(1, 2)).rep == Polynomial([0, Q(1, 2)])
        assert (Fraction(1, 2) + x - 1).rep == Polynomial([Q(-1, 2), 1])

    def test_non_monic_modulus(self):
        """Over 3a^2 + 1 the modulus's leading coefficient is 3, so every
        reduction and inversion takes scaled pseudo-division steps."""
        m = Polynomial([1, 0, 3])
        for rep in ([0, 1], [2, Q(-1, 5)], [Q(7, 2)], [1, 1, 1, 4]):
            x = QuotElem(m, Polynomial(rep))
            assert x * x.inverse() == 1
        a = QuotElem(m, Polynomial.x())
        assert a * a == Q(-1, 3)
        rows = [[a, QuotElem(m, 1)], [QuotElem(m, -1), 3 * a]]  # det 3a^2 + 1 = 0
        assert field_rank(rows) == 1
        assert field_kernel(rows) == [[3 * a, 1]]


class TestFieldLinearAlgebra:
    def test_kernel_and_rank(self):
        rows = [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)]]
        assert field_rank(rows) == 1
        ker = field_kernel(rows)
        assert len(ker) == 2
        for v in ker:
            assert sum(a * b for a, b in zip(rows[0], v)) == 0

    def test_integer_rows_give_fractions(self):
        """Pivots are inverted as Q(1) / pivot, so integer rows never turn
        into floats."""
        assert field_kernel([[2, 1]]) == [[Q(-1, 2), Q(1)]]
        _piv, ech = field_row_echelon([[2, 1], [4, 3]])
        assert ech == [[1, 0], [0, 1]]
        for v in [*field_kernel([[2, 1]])[0], *ech[0], *ech[1]]:
            assert type(v) is Fraction, v

    def test_kernel_over_an_algebraic_field(self):
        m = Polynomial([-2, 0, 1])  # a^2 - 2
        a = QuotElem(m, Polynomial.x())
        rows = [[a, QuotElem(m, 2)], [QuotElem(m, 1), a]]
        assert field_rank(rows) == 1
        assert field_kernel(rows) == [[-a, 1]]

    @given(st.data(), st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_quotient_by_a_linear_modulus_is_evaluation(self, data, t):
        """Q[a]/(a - t) is Q by a -> t: elimination over QuotElems must take
        the same steps as over the Fractions p(t)."""
        entry = st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                         max_size=3).map(Polynomial)
        ncols = data.draw(st.integers(1, 5))
        polys = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                   min_size=1, max_size=4))
        if len(polys) > 1 and data.draw(st.booleans()):  # force a dependent row
            polys.append([p + q for p, q in zip(polys[0], polys[1])])
        modulus = Polynomial([-t, 1])
        quot = [[QuotElem(modulus, p) for p in row] for row in polys]
        frac = [[p(Q(t)) for p in row] for row in polys]
        assert field_rank(quot) == field_rank(frac)
        assert field_row_echelon(quot)[0] == field_row_echelon(frac)[0]
        assert field_kernel(quot) == field_kernel(frac)


class TestRationalFunction:
    """Quotients of polynomials as reduced (num, den) pairs."""

    def test_reduction(self):
        x = Polynomial.x()
        num, den = reduced((x - 1) * (x + 1), (x - 1) * 2)
        assert num == (x + 1) * Q(1, 2) * 2 * Q(1, 2) or den.is_monic()
        assert (num, den) == reduced(x + 1, Polynomial([2]))
