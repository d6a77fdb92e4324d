"""Permutations, Young idempotents in Q S_r and Specht bases.

The group product mirrors diagram stacking: ``(a * b)(i) = b(a(i))`` — apply
``a`` first, then ``b``.  This keeps every translation between permutation
diagrams and group algebra elements a homomorphism (composition of diagrams
is also read top-to-bottom).  The star operation inverts permutations and is
the restriction of the diagram flip.

The Specht module of lam is the left ideal QS_r C_lam of the Young
idempotent, with basis translates x_i C_lam (James, *The Representation
Theory of the Symmetric Groups*, LNM 682, section 4).  A translate only
permutes the coordinates of C_lam on S_r, so the basis, the form and the
action are all read off the coefficients of C_lam, a dict from
permutations to Fractions.  The basis is chosen by one Gram-Schmidt pass
over those pairings (specht_frame), and S_r acts on it by integer
matrices, each certified where it is solved (left_action_matrix).  E F is
formed directly from the row and column groups inside young_idempotent,
and the right factor E is summed over row cosets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _itperms, product

from .exactmath import Q, field_row_echelon


class Permutation:
    """Permutation of {1..r} stored as an image tuple."""

    __slots__ = ("image",)

    def __init__(self, image):
        self.image = tuple(image)
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError(f"not a permutation image: {image}")

    @staticmethod
    def identity(r: int) -> "Permutation":
        return Permutation(range(1, r + 1))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other: (self*other)(i) = other(self(i))."""
        return Permutation(other.image[v - 1] for v in self.image)

    def inverse(self) -> "Permutation":
        img = [0] * len(self.image)
        for i, v in enumerate(self.image, start=1):
            img[v - 1] = i
        return Permutation(img)

    def sign(self) -> int:
        return -1 if self.inversions() % 2 else 1

    def inversions(self) -> int:
        img = self.image
        return sum(1 for i in range(len(img)) for j in range(i + 1, len(img))
                   if img[i] > img[j])

    def fixes_from(self, k: int) -> bool:
        """True when every point >= k is fixed."""
        return all(self.image[i - 1] == i for i in range(k, len(self.image) + 1))

    def restrict(self, r: int) -> "Permutation":
        if not self.fixes_from(r + 1):
            raise ValueError("does not fix the tail")
        return Permutation(self.image[:r])

    def extend(self, r: int) -> "Permutation":
        return Permutation(self.image + tuple(range(len(self.image) + 1, r + 1)))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"Permutation{self.image}"


def all_permutations(r: int) -> list[Permutation]:
    return [Permutation(img) for img in _itperms(range(1, r + 1))]


def sorted_by_length(r: int) -> list[Permutation]:
    """All of the symmetric group ordered by (Coxeter length, image)."""
    return sorted(all_permutations(r), key=lambda s: (s.inversions(), s.image))


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
        out.append(Permutation(img))
    return out


@lru_cache(maxsize=None)
def young_idempotent(lam: tuple[int, ...]) -> dict[Permutation, Fraction]:
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
    rows = _canonical_tableau(lam)
    row_group = _row_group(rows, r)
    columns = [(t, t.sign()) for t in _row_group(_canonical_tableau_columns(lam), r)]
    # E F is the sum of sign(t) s t over s in R_lam and t in the column
    # group, and the two groups meet only in e, so every s t is distinct.
    # (X E)(pi) is the sum of X = E F over the coset pi R_lam, and that
    # coset is fixed by the row of each pi(i): sum X per coset, then
    # expand each coset with a nonzero sum once.
    row_of = {v: i for i, row in enumerate(rows) for v in row}
    cosets: dict[tuple[int, ...], list] = {}
    for s in row_group:
        for t, sign in columns:
            st = s * t
            coset = cosets.setdefault(tuple(row_of[v] for v in st.image), [Q(0), st])
            coset[0] += sign
    y = {s * rho: total for total, s in cosets.values() if total for rho in row_group}
    kappa = Q(len(row_group) * math.factorial(r), hook_dimension(lam))
    # the identity coefficient of y^2 = kappa y, a sum of |supp y| terms
    e = Permutation.identity(r)
    if sum(c * y.get(s.inverse(), 0) for s, c in y.items()) != kappa * y.get(e, 0):
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
def specht_frame(lam: tuple[int, ...]):
    """(xs, T, norms): the Specht basis x_i C_lam and its Gram-Schmidt frame.

    The form is positive definite on QS_r C and pairs x C with s C as
    C(x^-1 s)/C(e) (specht_pairing), so every translate has norm 1.  The
    candidates s run greedily in (Coxeter length, image) order, and s is
    kept exactly when its residual norm 1 - sum_k p_k^2 <y_k, y_k> against
    the orthogonal y_k built so far is nonzero.  T is unit upper triangular
    with y_k = sum_m T[m][k] x_m C, and T^t G T = diag(norms) for the
    Specht Gram G (no normalisation: that needs surds).
    """
    lam = tuple(lam)
    r = sum(lam)
    d = hook_dimension(lam)
    c = young_idempotent(lam)
    c_e = c[Permutation.identity(r)]
    xs: list[Permutation] = []
    cols: list[list[Fraction]] = []  # column k of T, truncated after row k
    norms: list[Fraction] = []
    for s in sorted_by_length(r):
        pairs = [c.get(x.inverse() * s, 0) / c_e for x in xs]
        coefs = [sum(t * g for t, g in zip(col, pairs)) / nk
                 for col, nk in zip(cols, norms)]
        residual = 1 - sum(p * p * nk for p, nk in zip(coefs, norms))
        if not residual:
            continue
        col = [Q(0)] * len(xs) + [Q(1)]
        for p, prev in zip(coefs, cols):
            for m, t in enumerate(prev):
                col[m] -= p * t
        xs.append(s)
        cols.append(col)
        norms.append(residual)
        if len(xs) == d:
            break
    if len(xs) != d:
        raise RuntimeError(f"failed to find {d} independent translates for {lam}")
    T = tuple(tuple(col[m] if m < len(col) else Q(0) for col in cols) for m in range(d))
    return tuple(xs), T, tuple(norms)


def specht_basis(lam: tuple[int, ...]) -> tuple[Permutation, ...]:
    """Permutations x_i with {x_i C_lam} a basis of the left ideal."""
    return specht_frame(lam)[0]


@lru_cache(maxsize=None)
def specht_pairing(lam: tuple[int, ...], sigma: Permutation) -> tuple[tuple[Fraction, ...], ...]:
    """M[i][j] = <x_i c, sigma x_j c>, the t with C x_i* sigma x_j C = t C.

    The identity coefficient of u* v is the dot product of the coordinate
    vectors of u and v.  For translates of the self-adjoint idempotent C it
    is one coordinate: (C g C)(e) = (C C)(g^-1) = C(g).  So
    M[i][j] = C(x_i^-1 sigma x_j) / C(e), the coordinate of the translate
    x_i C at sigma x_j, with no group-algebra product.
    """
    lam = tuple(lam)
    c = young_idempotent(lam)
    xs = specht_basis(lam)
    c_e = c[Permutation.identity(sum(lam))]
    targets = [sigma * x for x in xs]
    return tuple(tuple(c.get(x.inverse() * t, 0) / c_e for t in targets) for x in xs)


@lru_cache(maxsize=None)
def specht_gram(lam: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """G[i][j] = <x_i c, x_j c>: the pairing at sigma = e."""
    return specht_pairing(tuple(lam), Permutation.identity(sum(lam)))


@lru_cache(maxsize=None)
def left_action_matrix(lam: tuple[int, ...], s: Permutation) -> tuple[tuple[int, ...], ...]:
    """Integer matrix A with s * x_j C = sum_i A[i][j] x_i C (columns
    indexed by j).

    Pairing both sides with x_i C gives G A = M(s), with G the Specht Gram
    and M(s) the pairing at s; G is positive definite, so A is the right
    half of the reduced echelon form of [G | M(s)].  G A = M(s) and the
    integrality of A (the Specht basis x_i C spans an integral form) are
    checked exactly, once per (lam, s), so every A that a Gram
    linearisation or an action on a module reads is certified.
    """
    lam = tuple(lam)
    d = hook_dimension(lam)
    G, M = specht_gram(lam), specht_pairing(lam, s)
    A = tuple(tuple(row[d:]) for row in field_row_echelon([g + m for g, m in zip(G, M)])[1])
    if tuple(tuple(sum(g * v for g, v in zip(row, col)) for col in zip(*A)) for row in G) != M:
        raise RuntimeError(f"S A(sigma) != M(sigma) at sigma = {s} for lambda = {lam}")
    if any(v.denominator != 1 for row in A for v in row):
        raise RuntimeError(f"A(sigma) is not integral at sigma = {s} for lambda = {lam}")
    return tuple(tuple(v.numerator for v in row) for row in A)
