"""Exact rational arithmetic: univariate polynomials, polynomial matrices
and determinants over Q[a].

Products of polynomials are one big-integer product over the common
denominator (Kronecker substitution), and gcds run the heuristic integer
gcd on the primitive parts before Euclid's algorithm.

Determinants over Q[a] have one certified modular path,
`det_monic_companion`: the determinant of a monic integer matrix
polynomial is the characteristic polynomial of one block companion matrix,
taken modulo a prime above twice the Hadamard bound, and checked exactly at
one point by an integer Bareiss determinant of the matrix polynomial there.
This is the only check point a determinant over Q[a] needs: callers build
the monic integer matrix polynomial and take the certified result.

Linear algebra over a field has one protocol for Q and Q[a]/(m): a
`QuotElem` takes +, -, * and == with ints and Fractions on either side,
has a truth value and inverts as 1 / x, exactly as a Fraction does, so the
`field_*` functions never look at the type of an entry.

Everything here is immutable and pure.  The parameter of the coefficient
ring is the loop parameter of the diagram algebras; it is written ``a`` in
reprs (alpha in the docs).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import Iterable, Sequence

Q = Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Polynomial:
    """Univariate polynomial over Q, coefficients lowest-degree first.

    >>> p = Polynomial([0, 1]) * Polynomial([1, 1])
    >>> p
    Polynomial([0, 1, 1])
    >>> p.degree
    2
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial([1])

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    @staticmethod
    def const(c) -> "Polynomial":
        return Polynomial([c])

    @staticmethod
    def monomial(c, k: int) -> "Polynomial":
        return Polynomial([0] * k + [c])

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            return Q(0)
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as that coefficient
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        (a,), da = clear_denominators((self.coeffs,))
        (b,), db = clear_denominators((other.coeffs,))
        den = da * db
        return Polynomial([Fraction(c, den) for c in _kronecker_mul(a, b)])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        if len(num) - 1 < dd:
            return Polynomial(), self
        inv = 1 / den[-1]
        quo = [Q(0)] * (len(num) - dd)
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i] * inv
            if c:
                quo[i - dd] = c
                for j, dc in enumerate(den):
                    num[i - dd + j] -= c * dc
        return Polynomial(quo), Polynomial(num[:dd])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"non-exact polynomial division: remainder {r!r}")
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self * (1 / self.lc)

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate; works for Fraction/int and anything with + and *."""
        out = None
        for c in reversed(self.coeffs):
            out = c if out is None else out * x + c
        if out is None:
            return Q(0)
        return out

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({[str(c) if c.denominator != 1 else c.numerator for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    def to_json(self) -> dict:
        return {"coeffs": [f"{c.numerator}/{c.denominator}" if c.denominator != 1
                           else str(c.numerator) for c in self.coeffs]}

    @staticmethod
    def from_json(d: dict) -> "Polynomial":
        return Polynomial([Fraction(s) for s in d["coeffs"]])


def clear_denominators(rows) -> tuple[list[list[int]], int]:
    """(den * rows, den) for rows of Fractions or ints, den the lcm of their
    denominators: the integer numerators over one common denominator."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _kronecker_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two nonzero integer coefficient lists (lowest first) as
    one big-integer product (Kronecker substitution).

    Each list is packed in base 2^k with every digit offset by 2^(k-1),
    which exceeds every product coefficient in absolute value; subtracting
    the offsets gives the signed base-2^k expansion, so the product of the
    packed integers plus the offsets has the product coefficients, offset,
    as its digits.
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    size = bound.bit_length() // 8 + 1  # bytes per digit: 2^(8 size - 1) > bound
    off = 1 << (8 * size - 1)
    slot = bytes(size - 1) + b"\x80"  # one digit equal to the offset

    def pack(cs):
        return (int.from_bytes(b"".join((c + off).to_bytes(size, "little") for c in cs),
                               "little") - int.from_bytes(slot * len(cs), "little"))

    m = len(a) + len(b) - 1
    raw = (pack(a) * pack(b) + int.from_bytes(slot * m, "little")).to_bytes(m * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - off for i in range(0, m * size, size)]


def _primitive(coeffs: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """(q, c) with coeffs = c * q, q an integer coefficient list with
    coprime entries and a positive last one."""
    (ints,), den = clear_denominators((coeffs,))
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // g for c in ints], Fraction(g, den)


def _symmetric_digits(v: int, xi: int) -> list[int]:
    """The base-xi digits of v in (-xi/2, xi/2], lowest first."""
    out = []
    while v:
        r = v % xi
        if r > xi // 2:
            r -= xi
        out.append(r)
        v = (v - r) // xi
    return out


def _horner(cs: Sequence[int], x: int) -> int:
    v = 0
    for c in reversed(cs):
        v = v * x + c
    return v


# Evaluation points the heuristic gcd tries before it falls back to Euclid.
_GCDHEU_TRIES = 6


def _gcd_heuristic(a: Polynomial, b: Polynomial):
    """(g, a / g, b / g) for the monic gcd g of two polynomials of positive
    degree, by the heuristic gcd of their primitive parts p, q (Char,
    Geddes & Gonnet 1989; Geddes, Czapor & Labahn, *Algorithms for Computer
    Algebra*, 7.7); None after _GCDHEU_TRIES evaluation points.

    h = pp(digits of gcd(p(xi), q(xi))) is accepted only when h times the
    digits of p(xi)/h(xi) is p, and likewise for q, exactly; with
    xi >= 2 min(|p|, |q|) + 2 (max norms) an h that divides both is the gcd.
    """
    (p, cp), (q, cq) = _primitive(a.coeffs), _primitive(b.coeffs)
    xi = 2 * min(max(map(abs, p)), max(map(abs, q))) + 29
    for _ in range(_GCDHEU_TRIES):
        vp, vq = _horner(p, xi), _horner(q, xi)
        h, _c = _primitive(_symmetric_digits(math.gcd(vp, vq), xi))
        vh = _horner(h, xi)
        hp = _symmetric_digits(vp // vh, xi) if vp % vh == 0 else None
        hq = _symmetric_digits(vq // vh, xi) if vq % vh == 0 else None
        if hp and hq and _kronecker_mul(h, hp) == p and _kronecker_mul(h, hq) == q:
            # a = cp p = (cp h[-1]) (h / h[-1]) hp, and likewise b
            return (Polynomial(h).monic(), Polynomial([cp * h[-1] * c for c in hp]),
                    Polynomial([cq * h[-1] * c for c in hq]))
        xi = xi * 73794 // 27011
    return None


def _gcd_euclid(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        r = a % b
        a, b = b, (r.monic() if r else r)
    return a.monic()


def poly_gcd_cofactors(a: Polynomial,
                       b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a / g, b / g) for the monic greatest common divisor g of two
    polynomials over Q, not both zero: the heuristic gcd of the primitive
    parts, whose cofactors are exact, else Euclid's algorithm."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd undefined for two zero polynomials")
    found = a.degree > 0 and b.degree > 0 and _gcd_heuristic(a, b)
    if found:
        return found
    g = _gcd_euclid(a, b)
    if g.degree == 0:
        return g, a, b
    return g, a.exact_div(g), b.exact_div(g)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor of two polynomials over Q."""
    return poly_gcd_cofactors(a, b)[0]


def reduced(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num / den in lowest terms with a monic denominator, as a pair;
    ZeroDivisionError on a zero denominator."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    _g, num, den = poly_gcd_cofactors(num, den)
    inv = 1 / den.lc
    return num * inv, den * inv


def poly_content_removed(vec: Sequence[Polynomial]) -> tuple[Polynomial, list[Polynomial]]:
    """Divide out the monic gcd of a vector of polynomials.

    Returns (content, primitive vector).  Zero vector -> (0, input).  Each
    entry is its cofactor at its own gcd step, times old gcd / new gcd at
    every later step.
    """
    g, prim, done = Polynomial(), list(vec), []
    for i, p in enumerate(vec):
        if p.is_zero():
            continue
        g, shrink, prim[i] = poly_gcd_cofactors(g, p)
        if shrink.degree > 0:
            for j in done:
                prim[j] = prim[j] * shrink
        done.append(i)
    return g, prim


def poly_nth_root(p: Polynomial, d: int) -> Polynomial:
    """Exact monic d-th root of a polynomial that is a d-th power.

    The input is normalised monic first (the root is defined up to the root
    of the leading coefficient, which we discard); raises ValueError with the
    failing coefficient index when no exact root exists.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if d == 1:
        return p.monic()
    if p.is_zero():
        return p
    pm = p.monic()
    if pm.degree % d != 0:
        raise ValueError(f"degree {pm.degree} not divisible by {d}")
    m = pm.degree // d
    q = [Q(0)] * (m + 1)
    q[m] = Q(1)
    for i in range(m - 1, -1, -1):
        cur = Polynomial(q) ** d
        idx = i + m * (d - 1)
        target = pm.coeffs[idx] if idx <= pm.degree else Q(0)
        have = cur.coeffs[idx] if idx <= cur.degree else Q(0)
        q[i] = (target - have) / d
    root = Polynomial(q)
    if root ** d != pm:
        diff = (root ** d) - pm
        bad = min(i for i, c in enumerate(diff.coeffs) if c)
        raise ValueError(f"not an exact {d}-th power (first failing coefficient index {bad})")
    return root


def poly_squarefree_part(p: Polynomial) -> Polynomial:
    if p.degree <= 0:
        return p.monic() if p else p
    return poly_gcd_cofactors(p, p.derivative())[1].monic()


class PolyMatrix:
    """Dense rectangular matrix of Polynomial entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def degree_bound(self) -> int:
        """A-priori bound on deg(det): sum over rows of the max entry degree."""
        total = 0
        for row in self.entries:
            d = max((p.degree for p in row), default=-1)
            if d < 0:
                return 0  # a zero row: det = 0
            total += d
        return total

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def _int_det_bareiss(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (destructive)."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def det_rational(m: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a matrix of Fractions or ints (both have a
    numerator and a denominator) via integer Bareiss."""
    n = len(m)
    if n == 0:
        return Q(1)
    ints, den = clear_denominators(m)
    return Q(_int_det_bareiss(ints), den ** n)


# Floor on the modulus of _lift_mod: large enough that a probable prime above
# it is, in practice, a prime even when the coefficient bound is tiny.
_MODULUS_FLOOR = 2 ** 61


def _charpoly_mod(c: list[list[int]], modulus: int) -> list[int]:
    """det(x*I - c) mod `modulus`, lowest coefficient first (consumes c).

    Similarity transforms take c to upper Hessenberg form h; then
    p_k = (x - h_kk) p_{k-1} - sum_i h_{k-i,k} h_{k,k-1}..h_{k-i+1,k-i} p_{k-i-1}
    (Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.2.9).
    Pivots are inverted with pow, which raises ValueError for a non-unit.
    """
    m = len(c)
    for j in range(m - 2):
        for i in range(j + 1, m):
            if c[i][j]:
                break
        else:
            continue
        j1 = j + 1
        if i != j1:
            c[i], c[j1] = c[j1], c[i]
            for row in c:
                row[i], row[j1] = row[j1], row[i]
        prow = c[j1]
        inv = pow(prow[j], -1, modulus)
        pivot = [(col, y) for col, y in enumerate(prow[j:], j) if y]
        nonzero = []  # (k, u): row k -= u * row j+1, then col j+1 += u * col k
        for k in range(j + 2, m):
            row = c[k]
            u = row[j] * inv % modulus
            if u:
                nonzero.append((k, u))
                for col, y in pivot:
                    row[col] = (row[col] - u * y) % modulus
        if nonzero:
            for row in c:
                row[j1] = (row[j1] + sum([u * row[k] for k, u in nonzero])) % modulus
    polys = [[1]]  # polys[k]: charpoly of the leading k x k block of h
    for k in range(1, m + 1):
        acc = [0] + polys[-1]
        f = 1  # h[k-1][k-2] * .. * h[i+1][i], the subdiagonal below row i
        for i in range(k - 1, -1, -1):
            g = c[i][k - 1] * f
            if g:
                p = polys[i]
                acc[:i + 1] = [a - g * y for a, y in zip(acc, p)]
            f = f * c[i][i - 1] % modulus if i else 0
            if not f:
                break
        polys.append([x % modulus for x in acc])
    return polys[-1]


def _block_companion(last: list[list[int]]) -> list[list[int]]:
    """The block companion matrix [[0, I, .., 0], .., [0, .., 0, I], last]
    whose last block row is `last` (n rows of t*n entries)."""
    n, size = len(last), len(last[0])
    rows = [[0] * size for _ in range(size - n)]
    for r, row in enumerate(rows):
        row[r + n] = 1
    return rows + last


def _lift_mod(hadamard_sq: int, residues) -> list[int]:
    """residues(N), lifted to symmetric residues, for the first odd base-2
    Fermat probable prime N > max(2H, _MODULUS_FLOOR) where it raises
    no ValueError; H^2 = hadamard_sq bounds the square of every coefficient.

    A composite N whose non-unit shows up in pow(x, -1, N) is skipped; one
    that raises nothing gives residues exact in Z/N all the same.
    """
    modulus = max(math.isqrt(4 * hadamard_sq) + 1, _MODULUS_FLOOR) | 1
    while True:
        if pow(2, modulus - 1, modulus) == 1:
            try:
                coeffs = residues(modulus)
                break
            except ValueError:
                pass
        modulus += 2
    half = modulus // 2
    return [c - modulus if c > half else c for c in coeffs]


def det_monic_companion(tail: list[list[int]]) -> Polynomial:
    """det(x^t I + B_0 + B_1 x + .. + B_{t-1} x^{t-1}), a monic integer
    matrix polynomial given by its n x n blocks side by side,
    tail = [B_0 | .. | B_{t-1}] (n rows of t*n entries).

    It is the characteristic polynomial of the block companion matrix with
    last block row -tail (Gohberg, Lancaster & Rodman, *Matrix
    Polynomials*, ch. 1), taken mod one N above twice the Hadamard bound of
    x^t I + B(x) on |x| = 1 (`_lift_mod`): no leading determinant and no
    solve.  The lifted result is checked against an integer Bareiss
    determinant of x^t I + B(x) at the smallest integer x >= 2 where it is
    nonzero; a mismatch raises RuntimeError.  A pencil with rational
    entries is the caller's to clear (gram.gram_mixed_det).
    """
    n = len(tail)
    if not n or not tail[0]:
        return Polynomial.one()
    hadamard_sq = 1
    for r, row in enumerate(tail):
        norms = [sum(map(abs, row[j::n])) for j in range(n)]
        norms[r] += 1
        hadamard_sq *= sum(v * v for v in norms)

    def residues(modulus):
        return _charpoly_mod(_block_companion([[-v % modulus for v in row] for row in tail]),
                             modulus)

    det = Polynomial(_lift_mod(hadamard_sq, residues))
    x = next(x for x in count(2) if det(x))
    at_x = [[_horner(row[j::n], x) for j in range(n)] for row in tail]
    top = x ** (len(tail[0]) // n)
    for r, row in enumerate(at_x):
        row[r] += top
    if _int_det_bareiss(at_x) != det(x):
        raise RuntimeError(f"determinant check failed at a = {x}")
    return det


# ---------------------------------------------------------------------------
# the field Q[a]/(m) and exact linear algebra over a field
# ---------------------------------------------------------------------------

class QuotElem:
    """An element of Q[a]/(modulus), for a monic nonconstant modulus; a field
    when the modulus is irreducible.

    It mixes with ints and Fractions as a Fraction does (+, -, *, ==, truth
    value), and 1 / x is inverse(), so one elimination serves Q and Q(a0).
    """

    __slots__ = ("modulus", "rep")

    def __init__(self, modulus: Polynomial, rep):
        self.modulus = modulus
        if not isinstance(rep, Polynomial):
            rep = Polynomial.const(rep)
        self.rep = rep % modulus

    @staticmethod
    def _rep(x):
        return x.rep if isinstance(x, QuotElem) else x

    def __bool__(self):
        return bool(self.rep)

    def __eq__(self, other):
        if isinstance(other, QuotElem):
            return self.modulus == other.modulus and self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self.rep == other
        return NotImplemented

    def __add__(self, other):
        return QuotElem(self.modulus, self.rep + self._rep(other))

    __radd__ = __add__

    def __sub__(self, other):
        return QuotElem(self.modulus, self.rep - self._rep(other))

    def __rsub__(self, other):
        return QuotElem(self.modulus, other - self.rep)

    def __neg__(self):
        return QuotElem(self.modulus, -self.rep)

    def __mul__(self, other):
        return QuotElem(self.modulus, self.rep * self._rep(other))

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "QuotElem":
        """Extended Euclid; fails when the representative shares a factor
        with the modulus (i.e. the ring is not a field at this element)."""
        r0, r1 = self.modulus, self.rep
        s0, s1 = Polynomial(), Polynomial.one()
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise ZeroDivisionError(f"non-invertible element (gcd {r0})")
        return QuotElem(self.modulus, s0 * (1 / r0.coeffs[0]))

    def __repr__(self):
        return f"[{self.rep}]"


def field_rank(rows: list[list]) -> int:
    """Rank of a matrix over Q or Q[a]/(m)."""
    return len(field_row_echelon(rows)[0])


def field_row_echelon(rows: list[list]):
    """Reduced row echelon form over Q or Q[a]/(m); returns (pivot column
    list, echelon rows).  Entries are ints, Fractions or QuotElems: pivots
    are found by truth value and scaled by Q(1) / pivot."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return [], m
    piv_cols = []
    r = 0
    ncols = len(m[0])
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = Q(1) / m[r][c]
        m[r] = [scale * x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == len(m):
            break
    return piv_cols, m[:r]


def field_kernel(rows: list[list]) -> list[list]:
    """Basis of the right kernel of a matrix over Q or Q[a]/(m), one vector
    per free column, built on Q(0) and Q(1)."""
    if not rows:
        return []
    ncols = len(rows[0])
    piv_cols, ech = field_row_echelon(rows)
    free_cols = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for fc in free_cols:
        vec = [Q(0)] * ncols
        vec[fc] = Q(1)
        for r, pc in enumerate(piv_cols):
            vec[pc] = -ech[r][fc]
        basis.append(vec)
    return basis
