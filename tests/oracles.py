"""Slow reference implementations that the package's fast paths are tested
against: polynomial products term by term, long division over Q
(divmod_over_q) and gcds by Euclid's algorithm on it, the integer
pseudo-remainder (neg_prem) and the primitive Sturm chain built from it,
determinants over Q[a] by evaluation/interpolation, by modular
linearisation of any square matrix (det_poly), by fraction-free Bareiss
and by cofactor expansion, Smith invariants over Q[a], Brauer diagrams as
sorted pairs (PairPartition) with their general product (compose), the
flip and the split of a half diagram into an ordered one and a permutation
(half_normalize), the half-diagram bases and the S_r action on half
diagrams by composing generator diagrams, matched to the package's partner
tuples (partners), every module label at given heights and ranks, the
Brauer diagram basis by brute force and by closure under the generators, permutation images of diagrams, diagram products by
a walk on a node graph, the pairing of half diagrams by composing
diagrams, the Gram matrix from those
pairings and group-algebra products, Sturm counts from the
chain of remainders over Q, cos bounds from the exact Taylor sum, signs
at 2cos(r pi/m) from dyadic enclosures (Machin bounds for pi, Taylor
bounds for cos rounded outward, interval Horner in integers), the Specht
basis by elimination over r!-long coordinate vectors, the coordinates of
every translate by one echelon solve over Q, the Specht data
from products in the group algebra (Q S_r as finitely supported maps,
with single permutations, the Young idempotent and the involution * as
elements), permutations from cycles, the TL determinant's quantum
exponents by the diamond recursion over rank, the square-free test,
Yun's square-free decomposition,
polynomial matrices evaluated at a point, the bootstrap vector by Cramer's rule,
its uniqueness from the Gram rows, its cap scalar D from a Gram row, dense
matrix-vector products, the
radical as the kernel of the Gram matrix at a parameter value, the
mixed-rank form matrix conjugated entry by entry over Q[a], and the action
of group-algebra elements on a module as dense matrices summed over their
permutations.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import count

from kadaryu import exactmath, morphisms
from kadaryu.diagrams import one_cup_index
from kadaryu.exactmath import (Polynomial, PolyMatrix, Q, det_rational,
                               field_kernel, field_rank, field_row_echelon,
                               poly_content_removed, poly_gcd, poly_gcd_cofactors,
                               poly_squarefree_part)
from kadaryu.gram import ModuleLabel, gram_matrix
from kadaryu.morphisms import XiElement
from kadaryu.rollet import dimension
from kadaryu.roots import minimal_poly_2cos
from kadaryu.symmetric import (_canonical_tableau, _canonical_tableau_columns, _row_group,
                               all_permutations, hook_dimension, identity as perm_identity,
                               inverse, inversions, left_action_matrix, mul, partitions,
                               row_coset, sorted_by_length, specht_basis, specht_frame, specht_gram,
                               young_idempotent)


def poly_mul_schoolbook(a: Polynomial, b: Polynomial) -> Polynomial:
    """The product term by term over Q."""
    if a.is_zero() or b.is_zero():
        return Polynomial()
    out = [Q(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return Polynomial(out)


def divmod_over_q(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(q, r) with a = q b + r and deg r < deg b, by long division over Q."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    num = list(a.coeffs)
    den = b.coeffs
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return Polynomial(), a
    inv = 1 / den[-1]
    quo = [Q(0)] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * inv
        if c:
            quo[i - dd] = c
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    return Polynomial(quo), Polynomial(num[:dd])


def poly_gcd_euclid(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid's algorithm over Q."""
    while not b.is_zero():
        a, b = b, divmod_over_q(a, b)[1]
    return a.monic()


def squarefree_check(p: Polynomial) -> bool:
    """p has no repeated factor: gcd(p, p') is a constant."""
    return p.degree < 1 or poly_gcd(p, p.derivative()).degree == 0


def yun_squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: p (monic) = prod q_i^i with the q_i squarefree, coprime.

    Returns [(q_i, i)] for the nonconstant q_i.
    """
    p = p.monic()
    if p.degree <= 0:
        return []
    out = []
    _g, c, d = poly_gcd_cofactors(p, p.derivative())
    d = d - c.derivative()
    i = 1
    while c.degree > 0:
        q, c, d = poly_gcd_cofactors(c, d)
        if q.degree > 0:
            out.append((q, i))
        d = d - c.derivative()
        i += 1
    return out


def matrix_at(m: PolyMatrix, x) -> list[list[Fraction]]:
    """The entries of m evaluated at a = x."""
    return [[p(x) for p in row] for row in m.entries]


def _det_mod(rows: list[list[int]], modulus: int) -> int:
    """Determinant modulo `modulus` by Gaussian elimination (consumes rows);
    pow raises ValueError for a pivot that is not a unit."""
    det = 1
    while rows:
        for i, row in enumerate(rows):
            if row[0]:
                break
        else:
            return 0
        pivot = rows.pop(i)
        if i % 2:
            det = -det  # moving row i to the top is a cycle of length i + 1
        det = det * pivot[0] % modulus
        inv = pow(pivot[0], -1, modulus)
        tail = pivot[1:]
        rest = []
        for row in rows:
            f = row[0] * inv % modulus
            rest.append([(x - f * y) % modulus for x, y in zip(row[1:], tail)]
                        if f else row[1:])
        rows = rest
    return det


def _interpolate_mod(values: list[int], modulus: int) -> list[int]:
    """Coefficients, lowest first and reduced mod `modulus`, of the polynomial
    of degree < len(values) that takes values[x] at x = 0, 1, 2, ...
    (Newton form over the consecutive integer nodes)."""
    dd = list(values)
    k = len(dd)
    for j in range(1, k):
        inv = pow(j, -1, modulus)
        for i in range(k - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * inv % modulus
    coeffs = [dd[-1]]
    for i in range(k - 2, -1, -1):
        # coeffs <- coeffs * (x - i) + dd[i]
        coeffs = [(a - i * b) % modulus for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] = (coeffs[0] + dd[i]) % modulus
    return coeffs


def det_interpolate(m: PolyMatrix) -> Polynomial:
    """det by evaluation at a = 0..bound, elimination mod one prime above
    twice the Hadamard bound, and Newton interpolation (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, 5.5), checked exactly at bound + 1."""
    n = m.rows
    if n == 0:
        return Polynomial.one()
    bound = m.degree_bound()
    den = math.lcm(*(c.denominator for row in m.entries for p in row for c in p.coeffs))
    entries = [[[c.numerator * (den // c.denominator) for c in p.coeffs] for p in row]
               for row in m.entries]
    hadamard_sq = 1
    for row in entries:
        hadamard_sq *= sum(sum(map(abs, p)) ** 2 for p in row)
    modulus = max(math.isqrt(4 * hadamard_sq) + 1, 2 ** 61, bound + 2) | 1
    while pow(2, modulus - 1, modulus) != 1:
        modulus += 2
    values = []
    for x in range(bound + 1):
        values.append(_det_mod([[sum(c * x ** k for k, c in enumerate(p)) % modulus
                                 for p in row] for row in entries], modulus))
    half = modulus // 2
    det = Polynomial([Fraction(c - modulus if c > half else c, den ** n)
                      for c in _interpolate_mod(values, modulus)])
    x = Q(bound + 1)
    assert det(x) == det_rational(matrix_at(m, x)), "degree bound below deg det"
    return det


def _solve_mod(a: list[list[int]], b: list[list[int]], modulus: int) -> list[list[int]]:
    """a^-1 b mod `modulus` by Gauss-Jordan elimination, for a invertible mod
    `modulus`; pow raises ValueError for a pivot that is not a unit."""
    n = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    # step j eliminates column j and drops it, so index 0 is always column j
    for j in range(n):
        for i in range(j, n):
            if rows[i][0]:
                break
        else:
            raise ValueError("singular matrix")
        rows[i], rows[j] = rows[j], rows[i]
        inv = pow(rows[j][0], -1, modulus)
        prow = [x * inv % modulus for x in rows[j][1:]]
        for k, row in enumerate(rows):
            f = row[0]
            rows[k] = (prow if k == j else
                       [(x - f * y) % modulus for x, y in zip(row[1:], prow)] if f
                       else row[1:])
    return rows


def _taylor_mod(coeffs: list[int], s: int, modulus: int) -> list[int]:
    """Coefficients of p(x + s) mod `modulus`, p given lowest first."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] = (c[j] + s * c[j + 1]) % modulus
    return c


def _det_linearised_mod(entries: list[list[list[int]]], bound: int,
                        modulus: int) -> list[int]:
    """det mod `modulus`, lowest coefficient first, of the integer polynomial
    matrix A = `entries` (coefficient lists), whose det has degree <= bound.

    For a matrix polynomial P = sum_k P_k x^k of degree t with P_t
    invertible, det P = det(P_t) * det(x*I - C), C the block companion
    matrix of the P_t^-1 P_k (Gohberg, Lancaster & Rodman, *Matrix
    Polynomials*, ch. 1).  At a = oo, P = A.  Otherwise, at the first
    s = 0..bound with A(s) invertible, P(x) = x^t A(s + 1/x), whose P_k are
    the Taylor coefficients B_{t-k} of A at s; then det A(a) is the
    reversed det P shifted by s.  A(s) singular at every s means det = 0.
    """
    top = max(len(p) for row in entries for p in row) - 1
    for s in (None, *range(bound + 1)):
        if s is None:
            lead = [[p[top] % modulus if len(p) > top else 0 for p in row] for row in entries]
        else:
            powers = [pow(s, k, modulus) for k in range(top + 1)]
            lead = [[sum(map(operator.mul, p, powers)) % modulus for p in row]
                    for row in entries]
        lead_det = _det_mod([list(row) for row in lead], modulus)
        if lead_det:
            break
    else:
        return []
    # P_0..P_{t-1} side by side: A_0..A_{t-1} at oo, B_t..B_1 at s
    rows = entries if s is None else [[_taylor_mod(p, s, modulus) for p in row]
                                      for row in entries]
    ks = range(top) if s is None else range(top, 0, -1)
    x = _solve_mod(lead, [[p[k] % modulus if k < len(p) else 0 for k in ks for p in row]
                          for row in rows], modulus)
    companion = exactmath._block_companion([[-v % modulus for v in row] for row in x])
    coeffs = [lead_det * c % modulus for c in exactmath._charpoly_mod(companion, modulus)]
    if s is not None:
        coeffs = _taylor_mod(coeffs[::-1], -s, modulus)
    return coeffs


def det_poly(m: PolyMatrix) -> Polynomial:
    """det of any square matrix over Q[a] by modular linearisation, checked
    exactly at one point.

    With L the lcm of all coefficient denominators, det M = det(L*M) / L^n,
    and every coefficient of det(L*M) is at most the Hadamard bound H on
    |a| = 1.  Modulo one N > max(2H, bound + 1) (the package's modulus
    rule, with every N <= bound + 1 skipped), det(L*M) is the leading
    determinant times the characteristic polynomial of one block companion
    matrix (`_det_linearised_mod`).  The result is checked over Q at the
    smallest integer a >= 2 where it is nonzero (a = 2 for a zero result);
    a mismatch raises RuntimeError.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Polynomial.one()
    bound = m.degree_bound()
    if bound == 0:
        return Polynomial.const(det_rational(matrix_at(m, Q(0))))
    den = math.lcm(*(c.denominator for row in m.entries for p in row for c in p.coeffs))
    entries = [[[c.numerator * (den // c.denominator) for c in p.coeffs] for p in row]
               for row in m.entries]
    hadamard_sq = 1  # H^2, kept in integers
    for row in entries:
        hadamard_sq *= sum(sum(map(abs, p)) ** 2 for p in row)

    def residues(modulus):
        if modulus <= bound + 1:
            raise ValueError("the expansion points 0..bound must stay distinct")
        return _det_linearised_mod(entries, bound, modulus)

    scale = den ** n
    det = Polynomial([Fraction(c, scale) for c in exactmath._lift_mod(hadamard_sq, residues)])
    x = next(x for x in count(2) if det(x)) if det else 2
    if det(x) != det_rational(matrix_at(m, Q(x))):
        raise RuntimeError(f"determinant check failed at a = {x}")
    return det


def det_poly_bareiss(m: PolyMatrix) -> Polynomial:
    """Fraction-free elimination over Q[a]."""
    n = m.rows
    if n == 0:
        return Polynomial.one()
    a = [[p for p in row] for row in m.entries]
    sign = 1
    prev = Polynomial.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Polynomial()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]).exact_div(prev)
            a[i][k] = Polynomial()
        prev = a[k][k]
    return a[n - 1][n - 1] * sign


def det_cofactor(m: PolyMatrix) -> Polynomial:
    """Cofactor expansion along the first row; for matrices up to ~8x8."""

    def rec(rows: list[list[Polynomial]]) -> Polynomial:
        n = len(rows)
        if n == 0:
            return Polynomial.one()
        if n == 1:
            return rows[0][0]
        out = Polynomial()
        for j in range(n):
            c = rows[0][j]
            if c.is_zero():
                continue
            minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
            term = c * rec(minor)
            out = out + (term if j % 2 == 0 else -term)
        return out

    return rec([list(r) for r in m.entries])


def smith_invariants(m: PolyMatrix) -> list[Polynomial]:
    """Invariant factors of a square polynomial matrix, ascending divisibility.

    Each factor is monic (or zero); the product equals det up to a rational
    scalar.
    """
    if m.rows != m.cols:
        raise ValueError("Smith form of a non-square matrix")
    n = m.rows
    a = [[p for p in row] for row in m.entries]
    invariants: list[Polynomial] = []

    def min_entry(k):
        best = None
        for i in range(k, n):
            for j in range(k, n):
                if not a[i][j].is_zero():
                    if best is None or a[i][j].degree < a[best[0]][best[1]].degree:
                        best = (i, j)
        return best

    for k in range(n):
        pos = min_entry(k)
        if pos is None:
            invariants.extend([Polynomial()] * (n - k))
            break
        while True:
            i0, j0 = min_entry(k)
            a[k], a[i0] = a[i0], a[k]
            for row in a:
                row[k], row[j0] = row[j0], row[k]
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                if a[i][k].is_zero():
                    continue
                q = a[i][k] // pivot
                for j in range(k, n):
                    a[i][j] = a[i][j] - q * a[k][j]
                if not a[i][k].is_zero():
                    dirty = True
            for j in range(k + 1, n):
                if a[k][j].is_zero():
                    continue
                q = a[k][j] // pivot
                for i in range(k, n):
                    a[i][j] = a[i][j] - q * a[i][k]
                if not a[k][j].is_zero():
                    dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if not a[i][j].is_zero() and not (a[i][j] % pivot).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(k, n):
                a[k][j] = a[k][j] + a[offender][j]
        invariants.append(a[k][k].monic())
        for j in range(k + 1, n):
            a[k][j] = Polynomial()
        for i in range(k + 1, n):
            a[i][k] = Polynomial()
    return invariants


# ---------------------------------------------------------------------------
# Brauer diagrams as sorted pairs, and their general product
# ---------------------------------------------------------------------------

def _canon(pairs) -> tuple[tuple[int, int], ...]:
    out = []
    for a, b in pairs:
        if a > b:
            a, b = b, a
        out.append((a, b))
    out.sort()
    return tuple(out)


class PairPartition:
    """A Brauer diagram: perfect pair matching of n top + m bottom points.

    Points are labelled 1..n (top) and -1..-m (bottom, negative); the
    matching is stored as a sorted tuple of sorted pairs."""

    __slots__ = ("n_top", "n_bottom", "pairs")

    def __init__(self, n_top: int, n_bottom: int, pairs):
        self.n_top = n_top
        self.n_bottom = n_bottom
        self.pairs = _canon(pairs)
        if (n_top + n_bottom) % 2:
            raise ValueError("odd total point count")
        seen = set()
        for a, b in self.pairs:
            seen.add(a)
            seen.add(b)
        expect = set(range(1, n_top + 1)) | set(range(-n_bottom, 0))
        if seen != expect or 2 * len(self.pairs) != len(expect):
            raise ValueError("pairs are not a perfect matching of the points")

    def __eq__(self, other):
        return (isinstance(other, PairPartition)
                and self.n_top == other.n_top
                and self.n_bottom == other.n_bottom
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.n_top, self.n_bottom, self.pairs))

    def propagating_count(self) -> int:
        return sum(1 for a, b in self.pairs if a < 0 < b)

    def encode(self) -> str:
        """Text encoding "n,m:[(a,b),(c,d'),...]" with primes for bottom points."""
        def pt(x):
            return f"{-x}'" if x < 0 else str(x)
        body = ",".join(f"({pt(a)},{pt(b)})" for a, b in self.pairs)
        return f"{self.n_top},{self.n_bottom}:[{body}]"

    def __repr__(self):
        return f"PairPartition({self.encode()})"


def identity(n: int) -> PairPartition:
    return PairPartition(n, n, [(i, -i) for i in range(1, n + 1)])


def permutation_diagram(image: tuple[int, ...]) -> PairPartition:
    """Diagram of a permutation: top i joined to bottom image[i-1]."""
    n = len(image)
    return PairPartition(n, n, [(i, -image[i - 1]) for i in range(1, n + 1)])


def e_gen(i: int, n: int) -> PairPartition:
    """Temperley-Lieb cup-cap generator e_i on n strands."""
    pairs = [(i, i + 1), (-i, -(i + 1))]
    pairs += [(j, -j) for j in range(1, n + 1) if j not in (i, i + 1)]
    return PairPartition(n, n, pairs)


def s_gen(j: int, n: int) -> PairPartition:
    """Elementary transposition diagram s_j on n strands."""
    pairs = [(j, -(j + 1)), (j + 1, -j)]
    pairs += [(k, -k) for k in range(1, n + 1) if k not in (j, j + 1)]
    return PairPartition(n, n, pairs)


def generators(l: int, n: int) -> list[PairPartition]:
    gens = [e_gen(i, n) for i in range(1, n)]
    gens += [s_gen(j, n) for j in range(1, min(l + 1, n - 1) + 1)]
    return gens


def _arrays(d: PairPartition) -> tuple[list[int], list[int]]:
    """(top, bottom): top[i] is the partner of top point i and bottom[j]
    that of bottom point j, written +t for a top point t and -b for a bottom
    point b; index 0 is unused."""
    top = [0] * (d.n_top + 1)
    bottom = [0] * (d.n_bottom + 1)
    for a, b in d.pairs:  # a < b in a stored pair
        if a > 0:
            top[a], top[b] = b, a
        elif b > 0:
            bottom[-a], top[b] = b, a
        else:
            bottom[-a], bottom[-b] = b, a
    return top, bottom


def partners(d: PairPartition) -> tuple[int, ...]:
    """The partner tuple of a half diagram d whose lines do not cross, the
    form diagrams.half_basis returns."""
    top, bottom = _arrays(d)
    if [t for t in range(1, d.n_top + 1) if top[t] < 0] != bottom[1:]:
        raise ValueError(f"the lines of {d} cross")
    return tuple(top)


def compose(p1: PairPartition, p2: PairPartition) -> tuple[PairPartition, int]:
    """p1 stacked on top of p2 (p1's bottom glued to p2's top).

    Returns (result diagram, number of closed loops removed).  Both are
    walked as partner arrays: a line alternates between p2's partner of a
    glued point and p1's, marking the glued points it passes, until it is
    outer again; each unmarked glued point then starts one closed loop.
    """
    if p1.n_bottom != p2.n_top:
        raise ValueError(f"size mismatch: {p1.n_bottom} vs {p2.n_top}")
    top1, bot1 = _arrays(p1)
    top2, bot2 = _arrays(p2)
    glued = [False] * (p1.n_bottom + 1)

    def across(y):
        """The outer end of a line that leaves p1 at y, in the result's
        labels (p2's bottom points are the result's bottom points)."""
        while y < 0:
            glued[-y] = True
            y = top2[-y]
            if y < 0:
                return y
            glued[y] = True
            y = bot1[y]
        return y

    ends = set()
    pairs = []
    for i in range(1, p1.n_top + 1):
        if i not in ends:
            e = across(top1[i])
            ends.add(e)
            pairs.append((i, e))
    for j in range(1, p2.n_bottom + 1):
        if -j not in ends:
            y = bot2[j]
            if y > 0:
                glued[y] = True
                y = across(bot1[y])
            ends.add(y)
            pairs.append((-j, y))
    loops = 0
    for g in range(1, p1.n_bottom + 1):
        if not glued[g]:
            loops += 1
            t = g
            while not glued[t]:
                y = top2[t]
                glued[t] = glued[y] = True
                t = -bot1[y]
    return PairPartition(p1.n_top, p2.n_bottom, pairs), loops


def flip(p: PairPartition) -> PairPartition:
    """Vertical flip B(n,m) -> B(m,n); an involutive antihomomorphism."""
    return PairPartition(p.n_bottom, p.n_top, [(-a, -b) for a, b in p.pairs])


def half_normalize(w: PairPartition) -> tuple[PairPartition, tuple[int, ...]]:
    """Split w in B(n,p) with p propagating lines as u' composed with a
    permutation of the p outputs; u' has order-preserving propagating lines.

    Returns (u', perm image) where perm maps output slot -> bottom point.
    """
    p = w.n_bottom
    if w.propagating_count() != p:
        raise ValueError("not full propagating count")
    tt = [(a, b) for a, b in w.pairs if a > 0 and b > 0]
    prop = sorted((b, -a) for a, b in w.pairs if a < 0 < b)  # (top, bottom)
    pairs = list(tt)
    image = []
    for slot, (top, bot) in enumerate(prop, start=1):
        pairs.append((top, -slot))
        image.append(bot)
    return PairPartition(w.n_top, p, pairs), tuple(image)


def _closure(start, step) -> set:
    """Everything reachable from start by step (an element -> its
    successors), breadth first."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for d in frontier:
            for r in step(d):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


@lru_cache(maxsize=None)
def half_basis_by_closure(l: int, n: int, p: int) -> tuple[PairPartition, ...]:
    """diagrams.half_basis by composing generator diagrams: the closure of
    the right-nested cup diagram under the generators of height <= l,
    normalised by half_normalize and sorted by pairs."""
    if n == p:
        return (identity(n),)
    start = PairPartition(
        n, p,
        [(i, -i) for i in range(1, p + 1)] + [(q, q + 1) for q in range(p + 1, n, 2)])
    gens = generators(l, n)

    def step(u):
        for g in gens:
            w, _ = compose(g, u)
            if w.propagating_count() >= p:
                yield half_normalize(w)[0]

    return tuple(sorted(_closure(start, step), key=lambda d: d.pairs))


def labels(ls, ns, max_dim=None):
    """Every module label at heights ls and ranks ns (p = n and n = 0
    included), up to dimension max_dim."""
    out = [ModuleLabel(l, n, p, lam) for l in ls for n in ns
           for p in range(n % 2, n + 1, 2) for lam in partitions(min(p, l + 2))]
    return [lab for lab in out
            if max_dim is None or dimension(lab.l, lab.n, (lab.p, lab.lam)) <= max_dim]


def reference_half(label: ModuleLabel) -> list[PairPartition]:
    """The half diagrams of a module as pairs, in the order of
    gram.GramInstance (one_cup_basis for one-cup modules), matched through
    their partner tuples."""
    ref = {partners(d): d for d in half_basis_by_closure(label.l, label.n, label.p)}
    return [ref[u] for u in gram_matrix(label).half]


def permute_by_composition(d: PairPartition, s: tuple[int, ...]):
    """diagrams.permute on the partner tuple of d, by composing the
    permutation diagram of s, extended by identity strands, on d and
    splitting the product with half_normalize."""
    w, loops = compose(permutation_diagram(s + perm_identity(d.n_top)[len(s):]), d)
    if loops:
        raise RuntimeError(f"a permutation closed a loop on {d}")
    u, image = half_normalize(w)
    return partners(u), image


def permutation_image(d: PairPartition) -> tuple[int, ...]:
    """For a permutation diagram: image[i-1] = bottom point of top i."""
    if d.n_top != d.n_bottom or d.propagating_count() != d.n_top:
        raise ValueError("not a permutation diagram")
    img = [0] * d.n_top
    for a, b in d.pairs:
        img[b - 1] = -a
    return tuple(img)


def pair_halves(u: PairPartition, v: PairPartition, p: int, r: int):
    """(loops, sigma) for the form between half diagrams u, v, by composing
    flip(u) with v; None if the composite drops below p propagating lines."""
    w, loops = compose(flip(u), v)
    if w.propagating_count() < p:
        return None
    perm = permutation_image(w)
    if perm[r:] != perm_identity(len(perm))[r:]:
        raise RuntimeError(
            f"residual permutation {perm} moves a strand beyond {r}: "
            "height-closure violation")
    return loops, perm[:r]


def compose_by_graph(p1: PairPartition, p2: PairPartition) -> tuple[PairPartition, int]:
    """diagrams.compose by a walk on a node graph of the two diagrams'
    lines: ('t', i) top of p1, ('m', i) glued, ('b', i) bottom of p2."""
    if p1.n_bottom != p2.n_top:
        raise ValueError(f"size mismatch: {p1.n_bottom} vs {p2.n_top}")
    n, m, k = p1.n_top, p1.n_bottom, p2.n_bottom
    # nodes: ('t', i) top of p1, ('m', i) glued middle, ('b', i) bottom of p2
    adj: dict[tuple, list] = {}

    def link(a, b):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    for a, b in p1.pairs:
        na = ("t", a) if a > 0 else ("m", -a)
        nb = ("t", b) if b > 0 else ("m", -b)
        link(na, nb)
    for a, b in p2.pairs:
        na = ("m", a) if a > 0 else ("b", -a)
        nb = ("m", b) if b > 0 else ("b", -b)
        link(na, nb)
    ends = [("t", i) for i in range(1, n + 1)] + [("b", i) for i in range(1, k + 1)]
    seen = set()
    pairs = []
    for start in ends:
        if start in seen:
            continue
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur[0] == "m":
            seen.add(cur)
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:  # degenerate single-node path cannot happen
                break
            # a middle node has exactly two incident edges; when both go to
            # the same neighbour (double edge) the walk must still alternate
            if len(adj[cur]) == 2 and adj[cur][0] == adj[cur][1]:
                nxt = [adj[cur][0]]
            prev, cur = cur, nxt[0]
        seen.add(cur)
        a = start[1] if start[0] == "t" else -start[1]
        b = cur[1] if cur[0] == "t" else -cur[1]
        pairs.append((a, b))
    loops = 0
    for i in range(1, m + 1):
        node = ("m", i)
        if node in seen or node not in adj:
            continue
        # walk the cycle
        loops += 1
        prev, cur = node, adj[node][0]
        seen.add(node)
        while cur != node:
            seen.add(cur)
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
    return PairPartition(n, k, pairs), loops


def brauer_basis(n: int, m: int) -> list[PairPartition]:
    """All pair partitions of n top and m bottom points (small sizes only)."""
    pts = list(range(1, n + 1)) + list(range(-m, 0))

    def rec(rem):
        if not rem:
            yield []
            return
        a = rem[0]
        for i in range(1, len(rem)):
            b = rem[i]
            rest = rem[1:i] + rem[i + 1:]
            for tail in rec(rest):
                yield [(a, b)] + tail

    return [PairPartition(n, m, ps) for ps in rec(pts)]


@lru_cache(maxsize=None)
def basis_by_closure(l: int, n: int) -> frozenset[PairPartition]:
    """All diagrams expressible as products of the height-<= l generators.

    BFS over right multiplication starting from the identity; loop scalars
    are discarded.  For l = -1 this is the Temperley-Lieb basis (Catalan
    many), for l >= n-2 the full Brauer basis ((2n-1)!! many).
    """
    if n == 0:
        return frozenset({PairPartition(0, 0, [])})
    gens = generators(l, n)
    return frozenset(_closure(identity(n), lambda d: (compose(d, g)[0] for g in gens)))


@lru_cache(maxsize=None)
def _tl_factored(n: int, p: int) -> tuple[tuple[int, int], ...]:
    """Factored det for the chain: dict-as-tuple {quantum index: exponent}.

    Recursion over rank: det_n(p) picks up det_{n-1}(p-1), det_{n-1}(p+1)
    and the ratio [p+2]/[p+1] raised to the dimension of the (p+1)-module
    one rank down.  Exponents may go negative along the way; the final
    product must divide out exactly.
    """
    if p < 0 or p > n or (n - p) % 2:
        raise ValueError("bad chain label")
    if p == n:
        return ()
    acc: dict[int, int] = {}

    def mix(factors, mult=1):
        for k, e in factors:
            acc[k] = acc.get(k, 0) + e * mult

    if p > 0:
        mix(_tl_factored(n - 1, p - 1))
    d_up = dimension(-1, n - 1, (p + 1, (1,)))
    mix(_tl_factored(n - 1, p + 1))
    acc[p + 2] = acc.get(p + 2, 0) + d_up
    acc[p + 1] = acc.get(p + 1, 0) - d_up
    # [1] = 1 contributes nothing
    return tuple(sorted((k, e) for k, e in acc.items() if e and k > 1))


def tl_factored_det(n: int, p: int) -> dict[int, int]:
    """The chain-module Gram determinant as {quantum index: exponent}, by
    the diamond recursion over rank: the reference for the product formula
    of rollet.tl_recursive_det."""
    return dict(_tl_factored(n, p))


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    """p, p' and the negated remainders over Q, down to the last nonzero."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-divmod_over_q(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


def _integer_coeffs(p: Polynomial) -> tuple[int, ...]:
    """p times a positive rational, as primitive integer coefficients
    (lowest first); p keeps its sign at every real point."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = math.gcd(*ints) or 1
    return tuple(c // g for c in ints)


def neg_prem(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
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


def sturm_chain_by_prem(p: Polynomial) -> tuple[tuple[int, ...], ...]:
    """The Sturm chain of the squarefree part of p in primitive integer
    members: its primitive coefficients, those of its derivative, then
    neg_prem of the last two, down to the last nonzero."""
    sq = poly_squarefree_part(p)
    if sq.degree < 1:
        return ()
    chain = [_integer_coeffs(sq), _integer_coeffs(sq.derivative())]
    while r := neg_prem(chain[-2], chain[-1]):
        chain.append(r)
    return tuple(chain)


def _sign_changes(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _chain_at(chain: list[Polynomial], x) -> int:
    if x == math.inf:
        return _sign_changes([f.lc for f in chain])
    if x == -math.inf:
        return _sign_changes([f.lc * (-1) ** f.degree for f in chain])
    return _sign_changes([f(x) for f in chain])


def sturm_count_q(p: Polynomial, lo, hi) -> int:
    """Distinct real roots in (lo, hi] from the Sturm chain of the squarefree
    part over Q, evaluated by Fraction Horner; lo/hi rational or +-inf."""
    sq = poly_squarefree_part(p)
    if sq.degree < 1:
        return 0
    chain = sturm_chain(sq)
    return _chain_at(chain, lo) - _chain_at(chain, hi)


def cos_bounds_q(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """cos(x), 0 <= x <= 4: the exact Taylor sum of `terms` terms plus or
    minus the Lagrange bound on the rest."""
    s = Q(0)
    t = Q(1)
    for k in range(terms):
        s += t
        t = -t * x * x / ((2 * k + 1) * (2 * k + 2))
    return s - abs(t), s + abs(t)


def pi_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Machin: pi/4 = 4 atan(1/5) - atan(1/239), alternating tails."""

    def atan_bounds(inv: int, terms: int):
        x = Fraction(1, inv)
        s = Q(0)
        term = x
        for k in range(terms):
            s += (-1) ** k * term / (2 * k + 1)
            term *= x * x
        # alternating with decreasing terms: error below the next term
        nxt = term / (2 * terms + 1)
        return s - nxt, s + nxt

    a5_lo, a5_hi = atan_bounds(5, terms)
    a239_lo, a239_hi = atan_bounds(239, terms)
    return 4 * (4 * a5_lo - a239_hi), 4 * (4 * a5_hi - a239_lo)


def _cos_bounds(x: Fraction, terms: int, bits: int) -> tuple[Fraction, Fraction]:
    """cos(x) for 0 <= x <= 4: the Taylor sum of `terms` terms, each term
    rounded outward to a multiple of 2^-bits, plus or minus the Lagrange
    bound x^(2 terms)/(2 terms)! on the rest."""
    one = 1 << bits
    n, d = x.numerator ** 2 << bits, x.denominator ** 2
    x2_lo, x2_hi = n // d, -(-n // d)
    t_lo = t_hi = one
    s_lo = s_hi = 0
    for k in range(terms):
        if k % 2:
            s_lo, s_hi = s_lo - t_hi, s_hi - t_lo
        else:
            s_lo, s_hi = s_lo + t_lo, s_hi + t_hi
        step = (2 * k + 1) * (2 * k + 2) << bits
        t_lo, t_hi = t_lo * x2_lo // step, -(-t_hi * x2_hi // step)
    return Fraction(s_lo - t_hi, one), Fraction(s_hi + t_hi, one)


def _dyadic(x: Fraction, bits: int, up: bool) -> Fraction:
    """x rounded up or down to a multiple of 2^-bits."""
    n = x.numerator << bits
    return Fraction(-(-n // x.denominator) if up else n // x.denominator, 1 << bits)


def cos_point_enclosure(r: int, m: int, terms: int = 12) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of 2 cos(r pi / m), 0 < r <= m, with denominators of
    at most 4*terms + 64 bits; it tightens as terms grows."""
    if not 0 < r <= m:
        raise ValueError("need 0 < r <= m")
    bits = 4 * terms + 64
    pi_lo, pi_hi = pi_bounds(max(3, terms // 3))
    x_lo = _dyadic(r * pi_lo / m, bits, up=False)
    x_hi = _dyadic(r * pi_hi / m, bits, up=True)
    # cos is decreasing on [0, pi]; past pi only cos >= -1 is used
    lo = Q(-1) if x_hi >= pi_lo else _cos_bounds(x_hi, terms, bits)[0]
    hi = _cos_bounds(x_lo, terms, bits)[1]
    return 2 * lo, 2 * hi


def _interval_sign(f: tuple[int, ...], lo: Fraction, hi: Fraction) -> int:
    """Sign of f on [lo, hi] by interval Horner, exact in integers over the
    common denominator of lo and hi: +1 or -1, or 0 if the bounds straddle
    zero."""
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    acc_lo = acc_hi = 0
    scale = 1
    for c in reversed(f):
        cands = (acc_lo * a, acc_lo * b, acc_hi * a, acc_hi * b)
        acc_lo, acc_hi = min(cands) + c * scale, max(cands) + c * scale
        scale *= den
    return (acc_lo > 0) - (acc_hi < 0)


# refinements of an enclosure (6 more Taylor terms each) before a sign at
# 2cos(r pi/m) is given up as inconclusive
_BUDGET = 64


def sign_at_2cos_by_enclosure(p: Polynomial, r: int, m: int):
    """Certified sign of p(2cos(r pi/m)): +1, -1, 0 (exact), or None.

    Exact zeroes are detected by the remainder over Q modulo the minimal
    polynomial; otherwise the enclosure is tightened until it excludes zero
    or _BUDGET refinements are spent.
    """
    if divmod_over_q(p, minimal_poly_2cos(r, m))[1].is_zero():
        return 0
    f = _integer_coeffs(p)
    terms = 8
    for _ in range(_BUDGET):
        s = _interval_sign(f, *cos_point_enclosure(r, m, terms))
        if s:
            return s
        terms += 6
    return None


class GroupAlgebraElement:
    """Finitely supported map from permutations (image tuples) to Fractions."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.r = r
        self.terms = {s: Q(c) for s, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, Q(0)) + c
        return GroupAlgebraElement(self.r, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupAlgebraElement(self.r, {s: c * other for s, c in self.terms.items()})
        out: dict[tuple[int, ...], Fraction] = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                s = mul(s1, s2)
                out[s] = out.get(s, Q(0)) + c1 * c2
        return GroupAlgebraElement(self.r, out)

    def coeff(self, s: tuple[int, ...]) -> Fraction:
        return self.terms.get(s, Q(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement)
                and self.r == other.r and self.terms == other.terms)

    def __repr__(self):
        bits = " + ".join(f"{c}*{s}" for s, c in sorted(self.terms.items()))
        return f"GA[{bits or '0'}]"


def idempotent(lam: tuple[int, ...]) -> GroupAlgebraElement:
    """young_idempotent(lam) as an element of Q S_r."""
    return GroupAlgebraElement(sum(lam), young_idempotent(lam))


def from_cycles(r: int, *cycles) -> tuple[int, ...]:
    """The permutation of 1..r with the given cycles, each a tuple."""
    img = list(range(1, r + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            img[a - 1] = b
    return tuple(img)


def young_idempotent_by_square(lam: tuple[int, ...]):
    """(C, kappa) with y = E F E, kappa the ratio y^2 / y read off one
    supported permutation and checked on all of them, and C = y / kappa."""
    r = sum(lam)
    E = GroupAlgebraElement(r, {s: Q(1) for s in _row_group(_canonical_tableau(lam), r)})
    F = GroupAlgebraElement(r, {s: Q((-1) ** inversions(s))
                                for s in _row_group(_canonical_tableau_columns(lam), r)})
    y = E * F * E
    y2 = y * y
    probe = next(iter(y.terms))
    kappa = y2.coeff(probe) / y.coeff(probe)
    assert y * kappa == y2, "Young sandwich is not quasi-idempotent"
    return y * (1 / kappa), kappa


def specht_basis_by_elimination(lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The greedy Specht basis, each candidate translate s C tested by a row
    echelon over its coordinate vector on S_r, (s C)(pi) = C(s^-1 pi)."""
    r = sum(lam)
    d = hook_dimension(lam)
    c = idempotent(lam)
    order = all_permutations(r)
    chosen: list[tuple[int, ...]] = []
    rows: list[list[Fraction]] = []
    for s in sorted_by_length(r):
        s_inv = inverse(s)
        vec = [c.coeff(mul(s_inv, pi)) for pi in order]
        piv, ech = field_row_echelon(rows + [vec])
        if len(piv) > len(chosen):
            chosen.append(s)
            rows = ech
            if len(chosen) == d:
                break
    assert len(chosen) == d, f"failed to find {d} independent translates for {lam}"
    return tuple(chosen)


def algebra_element(s: tuple[int, ...], c=1) -> GroupAlgebraElement:
    """c times the permutation s, as an element of Q S_r."""
    return GroupAlgebraElement(len(s), {s: Q(c)})


def star(z: GroupAlgebraElement) -> GroupAlgebraElement:
    """Linear extension of permutation inversion; an involution."""
    return GroupAlgebraElement(z.r, {inverse(s): c for s, c in z.terms.items()})


def scalar_extract(lam: tuple[int, ...], z: GroupAlgebraElement) -> Fraction:
    """The t with z = t*C_lam, for z in C_lam * QS_r * C_lam; raises
    ValueError when z is not proportional to C_lam."""
    c = idempotent(lam)
    if z.is_zero():
        return Q(0)
    e = perm_identity(c.r)
    t = z.coeff(e) / c.coeff(e)
    if z == c * t:
        return t
    raise ValueError("element is not proportional to the Young idempotent")


def sandwich_sigma_table(lam, sigma):
    """M[i][j] = scalar(C x_i* sigma x_j C), by products in the group algebra."""
    c = idempotent(lam)
    xs = specht_basis(lam)
    sig = algebra_element(sigma)
    out = []
    for xi in xs:
        left = c * algebra_element(inverse(xi)) * sig
        out.append(tuple(scalar_extract(lam, left * algebra_element(xj) * c)
                         for xj in xs))
    return tuple(out)


def sandwich_specht_gram(lam):
    """G[i][j] = scalar(C x_i* x_j C)."""
    return sandwich_sigma_table(lam, perm_identity(sum(lam)))


def coordinates_by_echelon(lam: tuple[int, ...]) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """{row coset of t: the coordinates a of t C in the basis x_i C}, t the
    first permutation of its row coset in (Coxeter length, image) order,
    from one reduced echelon form over Q of [S | m(t_1) .. m(t_K)]: S the
    Specht Gram and m(t)_i = C(x_i^-1 t) / C(e) the pairing of x_i C with
    t C, so S a = m(t)."""
    c = young_idempotent(lam)
    c_e = c[perm_identity(sum(lam))]
    ts: dict[tuple[int, ...], tuple[int, ...]] = {}
    for s in sorted_by_length(sum(lam)):
        ts.setdefault(row_coset(lam, s), s)
    S = specht_gram(lam)
    M = [[c.get(mul(inverse(x), t), 0) / c_e for t in ts.values()] for x in specht_basis(lam)]
    piv, ech = field_row_echelon([[*g, *m] for g, m in zip(S, M)])
    assert piv == list(range(len(S))), f"Specht Gram of {lam} is singular"
    return {key: tuple(row[len(S) + k] for row in ech) for k, key in enumerate(ts)}


def elimination_left_action(lam, s):
    """A with s x_j C = sum_i A[i][j] x_i C, from one elimination over the
    |S_r| x 2d matrix whose columns are the translates x_k C, then the
    targets s x_j C, as coefficient vectors of group-algebra products."""
    c = idempotent(lam)
    xs = specht_basis(lam)
    order = all_permutations(sum(lam))

    def vector(g):
        z = algebra_element(g) * c
        return [z.coeff(p) for p in order]

    cols = [vector(x) for x in xs] + [vector(mul(s, x)) for x in xs]
    d = len(xs)
    piv, ech = field_row_echelon(list(zip(*cols)))
    if piv != list(range(d)):
        raise ValueError("target not in span")
    return tuple(tuple(row[d:]) for row in ech)


def solve_xi_by_cramer(l: int, lam: tuple[int, ...], n: int) -> XiElement:
    """xi from det(G) * xi_i = det(G with column i replaced by v), every
    determinant by det_poly; the content is stripped, D = det(G) / content,
    and both are scaled so that D is monic."""
    label = ModuleLabel(l, n, n - 2, tuple(lam))
    inst = gram_matrix(label)
    G = specht_gram(tuple(lam))
    rhs = [Polynomial()] * inst.dim
    for m in range(inst.d):
        rhs[inst.cup_row(m, (n - 1, n))] = Polynomial.const(G[m][0])
    rows = inst.matrix.entries
    det = det_poly(inst.matrix)
    numerators = [det_poly(PolyMatrix([row[:i] + [b] + row[i + 1:]
                                       for row, b in zip(rows, rhs)]))
                  for i in range(inst.dim)]
    content, prim = poly_content_removed(numerators)
    d_poly, rem = det.divmod(content)
    assert rem.is_zero(), f"D is not polynomial for {label}"
    scale = 1 / d_poly.lc
    return XiElement(label, tuple(p * scale for p in prim), d_poly.monic())


def xi_uniqueness_by_gram_rows(l: int, lam: tuple[int, ...], n: int) -> bool:
    """The xi-unique claim of morphisms.xi_report on the Gram rows: the rows off the last
    cup, plus the last-cup rows pinned to the ratios of the first Specht
    Gram column; xi is checked against them in Q[a] and the line certified
    at some t in 0..B, B the rows' degree bound."""
    lam = tuple(lam)
    label = ModuleLabel(l, n, n - 2, lam)
    inst = gram_matrix(label)
    G = specht_gram(lam)
    entries = inst.matrix.entries
    last_rows = [inst.cup_row(m, (n - 1, n)) for m in range(inst.d)]
    rows = [row for i, row in enumerate(entries) if i not in last_rows]
    r0 = entries[last_rows[0]]
    for m in range(1, inst.d):
        rm = entries[last_rows[m]]
        rows.append([a * G[0][0] - b * G[m][0] for a, b in zip(rm, r0)])
    xi = morphisms.solve_xi(l, lam, n)
    if not any(xi.coeffs) or any(apply_dense(rows, list(xi.coeffs))):
        return False
    # a zero row would void the degree bound and adds nothing to the kernel
    system = PolyMatrix([row for row in rows if any(row)])
    return any(inst.dim - field_rank(matrix_at(system, Q(t))) == 1
               for t in range(system.degree_bound() + 1))


def apply_dense(A, vec):
    """The product of a dense matrix with vec, skipping zero entries; a row
    with no nonzero term gives 0."""
    return [sum((v * c for c, v in zip(row, vec) if c and v), 0) for row in A]


def compute_d_by_gram_row(label: ModuleLabel, coeffs) -> Polynomial:
    """morphisms._compute_d on the Gram matrix: <u_{n-1,n} b_1, xi>, the
    Gram row of u_{n-1,n} b_1 times the vector."""
    inst = gram_matrix(label)
    row = inst.matrix.entries[inst.cup_row(0, (label.n - 1, label.n))]
    acc = Polynomial()
    for g, c in zip(row, coeffs):
        if not g.is_zero() and not c.is_zero():
            acc = acc + g * c
    return acc


def gram_by_sandwich(label: ModuleLabel) -> PolyMatrix:
    """The Gram matrix entry by entry, <u b_i, v b_j> = a^loops M(sigma)[i][j]
    with (loops, sigma) from composing flip(u) with v (pair_halves) and
    M(sigma) from products in the group algebra (sandwich_sigma_table), in
    the basis order of gram.GramInstance."""
    half = reference_half(label)
    d = hook_dimension(label.lam)
    tables = {}
    rows = [[Polynomial()] * (d * len(half)) for _ in range(d * len(half))]
    for a, u in enumerate(half):
        for b, v in enumerate(half):
            pair = pair_halves(u, v, label.p, label.r)
            if pair is None:
                continue
            loops, sigma = pair
            if sigma not in tables:
                tables[sigma] = sandwich_sigma_table(label.lam, sigma)
            for i, values in enumerate(tables[sigma]):
                for j, val in enumerate(values):
                    rows[i * len(half) + a][j * len(half) + b] = Polynomial.monomial(val, loops)
    return PolyMatrix(rows)


def gram_mixed(l: int, lam: tuple[int, ...], n_tuple: tuple[int, ...]) -> PolyMatrix:
    """Form matrix on per-Specht-vector one-cup sets of (possibly) different
    ranks, over the orthogonal Specht basis y_k = sum_m T[m][k] x_m C of
    symmetric.specht_frame: the one-cup Gram matrix at the largest rank,
    restricted to each vector's cups and conjugated by T entry by entry."""
    lam = tuple(lam)
    d = hook_dimension(lam)
    if len(n_tuple) != d:
        raise ValueError(f"need a tuple of length d = {d}")
    if any(nk < l + 4 for nk in n_tuple):
        raise ValueError("each rank must be >= l+4")
    big = max(n_tuple)
    rows = gram_matrix(ModuleLabel(l, big, big - 2, lam)).matrix.entries
    where = {jk: a for a, jk in enumerate(one_cup_index(l, big))}
    nhalf = len(where)
    _xs, T, _norms = specht_frame(lam)[:3]
    basis = [(k, where[jk]) for k in range(d) for jk in one_cup_index(l, n_tuple[k])]

    def entry(k, a, kk, b):
        # T is upper triangular: y_k only involves x_0..x_k
        return sum((rows[m * nhalf + a][mm * nhalf + b] * (T[m][k] * T[mm][kk])
                    for m in range(k + 1) for mm in range(kk + 1)), Polynomial())

    return PolyMatrix([[entry(k, a, kk, b) for kk, b in basis] for k, a in basis])


def gram_radical(label: ModuleLabel, alpha0) -> list[list]:
    """Kernel basis of G(alpha0), every polynomial Gram entry taken to Q or
    to Q[a]/(m) by morphisms._field."""
    to_f, _desc = morphisms._field(alpha0)
    return field_kernel([[to_f(p) for p in row] for row in gram_matrix(label).matrix.entries])


def action_matrix(label: ModuleLabel, g: PairPartition):
    """Matrix of a permutation diagram g acting on the module basis.

    Returns rows A with g.(basis[j]) = sum_i A[i][j] basis[i], over Q.
    """
    inst = gram_matrix(label)
    half = reference_half(label)
    index = {u: a for a, u in enumerate(half)}
    nhalf = len(half)
    d = inst.d
    size = inst.dim
    A = [[Q(0)] * size for _ in range(size)]
    for a, u in enumerate(half):
        w, loops = compose(g, u)
        if loops:
            raise ValueError("action of a diagram with closed loops is not supported here")
        if w.propagating_count() < label.p:
            continue
        u2, image = half_normalize(w)
        if sorted(image) != list(perm_identity(len(image))):
            raise RuntimeError("action residual is not a permutation")
        if image[label.r:] != perm_identity(len(image))[label.r:]:
            raise RuntimeError("action residual moves a strand beyond r")
        sigma = image[:label.r]
        lam_mat = left_action_matrix(label.lam, sigma)
        a2 = index[u2]
        for m in range(d):
            for i in range(d):
                if lam_mat[i][m]:
                    A[i * nhalf + a2][m * nhalf + a] += lam_mat[i][m]
    return A


def algebra_action(label: ModuleLabel, elem: GroupAlgebraElement):
    """Matrix (over Q) of a symmetric-group-algebra element, extended by
    identity strands, acting on the module: gram.act as one dense matrix."""
    size = gram_matrix(label).dim
    A = [[Q(0)] * size for _ in range(size)]
    for s, c in elem.terms.items():
        g = permutation_diagram(s + perm_identity(label.n)[len(s):])
        M = action_matrix(label, g)
        for i in range(size):
            row_a, row_m = A[i], M[i]
            for j in range(size):
                if row_m[j]:
                    row_a[j] += c * row_m[j]
    return A
