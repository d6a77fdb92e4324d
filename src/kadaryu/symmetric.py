"""Permutations, Young idempotents in Q S_r and Specht bases.

A permutation is its image tuple, and the product mirrors diagram stacking:
``mul(a, b)(i) = b(a(i))`` — apply ``a`` first, then ``b`` — so every
translation between permutation diagrams and group algebra elements is a
homomorphism.  The star operation inverts permutations and is the
restriction of the diagram flip.

The Specht module of lam is the left ideal QS_r C_lam of the Young
idempotent, with basis translates x_i C_lam (James, *The Representation
Theory of the Symmetric Groups*, LNM 682, sections 3-4).  rho C = C rho = C
for rho in the row group R_lam, so a translate t C and the coefficient C(t)
depend only on the row coset t R_lam, the tabloid of t (row_coset).  The
basis, the form and the action are read off the coefficients of C_lam, a
dict from image tuples to Fractions: one Gram-Schmidt pass over one
translate per row coset picks the basis and its orthogonal frame in
integers, one integer product certifies the frame and gives T^-1
(specht_frame), and S^-1 = T N^-1 T^t gives the integer coordinates of
every translate by exact division, off which each A(s) of the action is
read (left_action_matrix).  E F is formed directly from the row and column
groups inside young_idempotent, and the right factor E is summed over row
cosets.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _itperms, product

from .exactmath import Q, clear_denominators


def identity(r: int) -> tuple[int, ...]:
    return tuple(range(1, r + 1))


def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a then b: mul(a, b)(i) = b(a(i))."""
    return tuple([b[v - 1] for v in a])


def inverse(s: tuple[int, ...]) -> tuple[int, ...]:
    img = [0] * len(s)
    for i, v in enumerate(s, start=1):
        img[v - 1] = i
    return tuple(img)


def inversions(s: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(s)) for j in range(i + 1, len(s)) if s[i] > s[j])


def all_permutations(r: int) -> list[tuple[int, ...]]:
    return list(_itperms(range(1, r + 1)))


def sorted_by_length(r: int) -> list[tuple[int, ...]]:
    """All of the symmetric group ordered by (Coxeter length, image)."""
    return sorted(all_permutations(r), key=lambda s: (inversions(s), s))


# ---------------------------------------------------------------------------
# partitions, tableaux, Young idempotents
# ---------------------------------------------------------------------------

def is_partition(lam: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(lam, lam[1:])) and all(a > 0 for a in lam)


def partitions(r: int) -> list[tuple[int, ...]]:
    """All integer partitions of r, in reverse-lexicographic order."""
    if r == 0:
        return [()]
    out = []

    def rec(rest, mx, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(mx, rest), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(r, r, [])
    return out


def conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a > i) for i in range(lam[0]))


def hook_dimension(lam: tuple[int, ...]) -> int:
    """Dimension of the Specht module by the hook length formula."""
    r = sum(lam)
    if r == 0:
        return 1
    conj = conjugate_partition(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(r) // hooks


def _canonical_tableau(lam):
    """Rows filled left to right with 1..r."""
    rows = []
    v = 1
    for row_len in lam:
        rows.append(list(range(v, v + row_len)))
        v += row_len
    return rows


def _row_group(rows, r):
    """All permutations preserving each row (as a list), the first row's
    permutation varying slowest; young_idempotent's term order follows it."""
    out = []
    for perms in product(*(_itperms(row) for row in rows)):
        img = list(range(1, r + 1))
        for row, perm in zip(rows, perms):
            for a, b in zip(row, perm):
                img[a - 1] = b
        out.append(tuple(img))
    return out


def row_coset(lam: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
    """The row coset s R_lam, as the row of lam's canonical tableau that
    holds each s(i) (the tabloid of s): a row permutation rho moves no s(i)
    out of its row, so mul(s, rho) has the same key."""
    rows = [i for i, part in enumerate(lam) for _ in range(part)]
    return tuple(rows[v - 1] for v in s)


@lru_cache(maxsize=None)
def young_idempotent(lam: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """The self-adjoint idempotent C_lam = E F E / kappa, as its nonzero
    coefficients {s: C_lam(s)}.

    E is the row symmetrizer and F the signed column symmetrizer of the
    canonical tableau, and kappa = |R_lam| r!/f^lam with R_lam the row
    group: E^2 = |R_lam| E and (E F E) F = (E F)^2 = (r!/f^lam) E F give
    (E F E)^2 = kappa E F E.  For lam=(2,1) this is
    (1/6)(e+(12))(e-(13))(e+(12)).
    """
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    r = sum(lam)
    row_group = _row_group(_canonical_tableau(lam), r)
    columns = [(t, (-1) ** inversions(t))
               for t in _row_group(_canonical_tableau_columns(lam), r)]
    # E F is the sum of sign(t) s t over s in R_lam and t in the column
    # group, and the two groups meet only in e, so every s t is distinct.
    # (X E)(pi) is the sum of X = E F over the coset pi R_lam: sum X per
    # coset, then expand each coset with a nonzero sum once.
    cosets: dict[tuple[int, ...], list] = {}
    for s in row_group:
        for t, sign in columns:
            st = mul(s, t)
            coset = cosets.setdefault(row_coset(lam, st), [Q(0), st])
            coset[0] += sign
    y = {mul(s, rho): total for total, s in cosets.values() if total for rho in row_group}
    kappa = Q(len(row_group) * math.factorial(r), hook_dimension(lam))
    # the identity coefficient of y^2 = kappa y, a sum of |supp y| terms
    if sum(c * y.get(inverse(s), 0) for s, c in y.items()) != kappa * y.get(identity(r), 0):
        raise RuntimeError("Young sandwich is not quasi-idempotent")
    return {s: c / kappa for s, c in y.items()}


def _canonical_tableau_columns(lam):
    rows = _canonical_tableau(lam)
    conj = conjugate_partition(lam)
    return [[rows[i][j] for i in range(conj[j])] for j in range(len(conj))]


# ---------------------------------------------------------------------------
# the Specht module QS_r C_lam, through the translates x C_lam
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _translates(lam: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """{row coset: its first permutation in (Coxeter length, image) order},
    one permutation t for each distinct translate t C_lam."""
    out: dict[tuple[int, ...], tuple[int, ...]] = {}
    for s in sorted_by_length(sum(lam)):
        out.setdefault(row_coset(lam, s), s)
    return out


@lru_cache(maxsize=None)
def _integer_idempotent(lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """y = L C_lam over the common denominator L of the coefficients of
    C_lam, so that C(g) / C(e) = y(g) / y(e) in integers."""
    c = young_idempotent(lam)
    return dict(zip(c, clear_denominators([list(c.values())])[0][0]))


@lru_cache(maxsize=None)
def _gram_schmidt(lam: tuple[int, ...]):
    """(xs, cols, norms, Y): the greedy pass of specht_frame.  Its pairings
    of the kept translates are Y[i][j] = y(x_i^-1 x_j) = y(e) <x_i C, x_j C>
    (_integer_idempotent), and column k of T is kept as integers c_k over
    c_k[k], so <s C, y_k> is one integer dot product."""
    d = hook_dimension(lam)
    y = _integer_idempotent(lam)
    y_e = y[identity(sum(lam))]
    xs: list[tuple[int, ...]] = []
    cols: list[tuple[int, ...]] = []  # c_k, zero past row k
    norms: list[Fraction] = []
    rows: list[list[int]] = []  # row k of Y, truncated after column k
    for s in _translates(lam).values():
        pairs = [y.get(mul(inverse(x), s), 0) for x in xs]
        coefs = [Q(sum(map(operator.mul, c, pairs)), c[-1] * y_e) / nk
                 for c, nk in zip(cols, norms)]
        residual = 1 - sum(p * p * nk for p, nk in zip(coefs, norms))
        if not residual:
            continue
        col = [Q(0)] * len(xs) + [Q(1)]
        for p, c in zip(coefs, cols):
            for m, v in enumerate(c):
                col[m] -= p * v / c[-1]
        xs.append(s)
        cols.append(tuple(clear_denominators([col])[0][0]))
        norms.append(residual)
        rows.append(pairs + [y_e])
        if len(xs) == d:
            break
    if len(xs) != d:
        raise RuntimeError(f"failed to find {d} independent translates for {lam}")
    Y = tuple(tuple(rows[max(i, j)][min(i, j)] for j in range(d)) for i in range(d))
    return tuple(xs), tuple(cols), tuple(norms), Y


@lru_cache(maxsize=None)
def specht_frame(lam: tuple[int, ...]):
    """(xs, T, norms, T^-1): the Specht basis x_i C_lam, its Gram-Schmidt
    frame and the frame's inverse, certified once per lam.

    The form is positive definite on QS_r C and pairs x C with s C as the
    identity coefficient of C x^-1 s C, which is C(x^-1 s) / C(e) for the
    self-adjoint idempotent C: (C g C)(e) = C(g).  The candidates s run
    greedily in (Coxeter length, image) order, one per row coset
    (_translates: the rest repeat a translate), and s is kept exactly when
    its residual norm 1 - sum_k p_k^2 <y_k, y_k> against the orthogonal
    y_k built so far is nonzero (_gram_schmidt).  T is unit upper
    triangular with y_k = sum_m T[m][k] x_m C, and T^t S T = diag(norms)
    = N for the Specht Gram S = Y / y(e) (no normalisation: that needs
    surds) is checked exactly on the one integer product W[k] = Y c_k, so
    S^-1 = T N^-1 T^t and T^-1 = N^-1 T^t S, whose row k is
    W[k] / W[k][k].
    """
    xs, cols, norms, Y = _gram_schmidt(lam)
    # W[k] = y(e) c_k[k] (S T)[:, k]: for T unit upper triangular and S
    # symmetric, T^t S T = N exactly when the upper triangle of S T is N
    W = [[sum(map(operator.mul, row, c)) for row in Y] for c in cols]
    if any(W[k][m] != (Y[k][k] * c[k] * norms[k] if m == k else 0)
           for k, c in enumerate(cols) for m in range(k + 1)):
        raise RuntimeError(f"Specht frame of {lam} is not orthogonal: T^t S T != diag(norms)")
    T = tuple(tuple(Q(c[m], c[k]) if m <= k else Q(0) for k, c in enumerate(cols))
              for m in range(len(xs)))
    return xs, T, norms, tuple(tuple(Q(w, row[k]) for w in row) for k, row in enumerate(W))


def specht_basis(lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Permutations x_i with {x_i C_lam} a basis of the left ideal."""
    return specht_frame(lam)[0]


def specht_gram(lam: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """S[i][j] = <x_i C, x_j C> = Y[i][j] / y(e) (_gram_schmidt)."""
    Y = _gram_schmidt(lam)[3]
    return tuple(tuple(Q(v, Y[0][0]) for v in row) for row in Y)


@lru_cache(maxsize=None)
def _coordinates(lam: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """{row coset of t: the integer coordinates a of t C in the basis x_i C},
    over every row coset of S_r.

    Pairing t C = sum_i a_i x_i C with x_i C gives S a = m(t), S the
    Specht Gram and m(t)_i = C(x_i^-1 t) / C(e) = y(t)_i / y(e) for
    y(t)_i = y(x_i^-1 t) (_integer_idempotent).  S^-1 = T N^-1 T^t off
    the certified frame (specht_frame), with T's columns c_k over c_k[k],
    gives a = sum_k c_k (c_k . y(t)) / (c_k[k]^2 y(e) N_k), every term over
    the lcm of those denominators.  That division is exact exactly when a
    is integral (the Specht basis spans an integral form), and S a = m(t)
    is checked as Y a = y(t), Y = y(e) S: every A(sigma) is certified here.
    """
    xs, _T, norms, _inv = specht_frame(lam)
    _xs, cols, _norms, Y = _gram_schmidt(lam)
    y = _integer_idempotent(lam)
    dens = [c[-1] * c[-1] * Y[0][0] * nk.numerator for c, nk in zip(cols, norms)]
    den = math.lcm(*dens)
    scales = [den // dk * nk.denominator for dk, nk in zip(dens, norms)]
    # rows[i][k - i] = c_k[i] scales[k]: c_k has a row i exactly when k >= i
    rows = [[c[i] * s for c, s in zip(cols[i:], scales[i:])] for i in range(len(xs))]
    flips = [inverse(x) for x in xs]
    table = {}
    for key, t in _translates(lam).items():
        m = [y.get(mul(f, t), 0) for f in flips]
        ps = [sum(map(operator.mul, c, m)) for c in cols]
        a = [divmod(sum(map(operator.mul, row, ps[i:])), den) for i, row in enumerate(rows)]
        if any(rem for _q, rem in a):
            raise RuntimeError(f"A(sigma) is not integral at the translate {t} for lambda = {lam}")
        a = tuple(q for q, _rem in a)
        if [sum(map(operator.mul, row, a)) for row in Y] != m:
            raise RuntimeError(f"S A(sigma) != M(sigma) at the translate {t} for lambda = {lam}")
        table[key] = a
    return table


def left_action_matrix(lam: tuple[int, ...], s: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Integer matrix A(s) with s x_j C = sum_i A[i][j] x_i C (columns
    indexed by j).

    s x_j C is the translate of the row coset of s x_j, so column j is read
    off the certified coordinate table (_coordinates), and S A(s) = M(s),
    M(s) the pairing of the basis with s x_j C, holds column by column.
    """
    table = _coordinates(lam)
    return tuple(zip(*(table[row_coset(lam, mul(s, x))] for x in specht_basis(lam))))
