"""Symmetric group algebra over Q, Young idempotents and Specht bases.

The group product mirrors diagram stacking: ``(a * b)(i) = b(a(i))`` — apply
``a`` first, then ``b``.  This keeps every translation between permutation
diagrams and group algebra elements a homomorphism (composition of diagrams
is also read top-to-bottom).  The star operation inverts permutations and is
the restriction of the diagram flip.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _itperms

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

    @staticmethod
    def transposition(i: int, j: int, r: int) -> "Permutation":
        img = list(range(1, r + 1))
        img[i - 1], img[j - 1] = j, i
        return Permutation(img)

    @staticmethod
    def from_cycles(r: int, *cycles) -> "Permutation":
        img = list(range(1, r + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                img[a - 1] = b
        return Permutation(img)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

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


class GroupAlgebraElement:
    """Finitely supported map Permutation -> Fraction."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: dict[Permutation, Fraction] | None = None):
        self.r = r
        self.terms = {s: Q(c) for s, c in (terms or {}).items() if c}

    @staticmethod
    def unit(r: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(r, {Permutation.identity(r): Q(1)})

    @staticmethod
    def of(s: Permutation, c=1) -> "GroupAlgebraElement":
        return GroupAlgebraElement(len(s.image), {s: Q(c)})

    def __add__(self, other):
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, Q(0)) + c
        return GroupAlgebraElement(self.r, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, Q(0)) - c
        return GroupAlgebraElement(self.r, out)

    def __neg__(self):
        return GroupAlgebraElement(self.r, {s: -c for s, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupAlgebraElement(self.r, {s: c * other for s, c in self.terms.items()})
        if isinstance(other, Permutation):
            other = GroupAlgebraElement.of(other)
        out: dict[Permutation, Fraction] = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                s = s1 * s2
                out[s] = out.get(s, Q(0)) + c1 * c2
        return GroupAlgebraElement(self.r, out)

    __rmul__ = __mul__

    def star(self) -> "GroupAlgebraElement":
        """Linear extension of permutation inversion; an involution."""
        return GroupAlgebraElement(self.r, {s.inverse(): c for s, c in self.terms.items()})

    def coeff(self, s: Permutation) -> Fraction:
        return self.terms.get(s, Q(0))

    def coeff_identity(self) -> Fraction:
        return self.coeff(Permutation.identity(self.r))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement)
                and self.r == other.r and self.terms == other.terms)

    def __hash__(self):
        return hash((self.r, tuple(sorted(((s.image, c) for s, c in self.terms.items())))))

    def to_vector(self, order: list[Permutation]) -> list[Fraction]:
        return [self.coeff(s) for s in order]

    def __repr__(self):
        bits = " + ".join(f"{c}*{s.image}" for s, c in sorted(
            self.terms.items(), key=lambda t: t[0].image))
        return f"GA[{bits or '0'}]"


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
    import math
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
    """All permutations preserving each row (as a list)."""
    groups = [list(_itperms(row)) for row in rows]
    out = []

    def rec(i, img):
        if i == len(rows):
            out.append(Permutation(img))
            return
        for perm in groups[i]:
            img2 = list(img)
            for a, b in zip(rows[i], perm):
                img2[a - 1] = b
            rec(i + 1, img2)

    rec(0, list(range(1, r + 1)))
    return out


@lru_cache(maxsize=None)
def young_idempotent(lam: tuple[int, ...]) -> GroupAlgebraElement:
    """The self-adjoint idempotent C_lam = a * E F E.

    E is the row symmetrizer and F the signed column symmetrizer of the
    canonical tableau, and the scalar makes the sandwich idempotent.  E F E
    is never zero: (E F E) F = (E F)^2 = kappa E F with kappa = r!/f^lam,
    and E F != 0 since its identity coefficient is 1.
    For lam=(2,1) this is (1/6)(e+(12))(e-(13))(e+(12)).
    """
    lam = tuple(lam)
    if not is_partition(lam) and lam != ():
        raise ValueError(f"not a partition: {lam}")
    r = sum(lam)
    if r == 0:
        return GroupAlgebraElement.unit(0)
    rows = _canonical_tableau(lam)
    cols = _canonical_tableau_columns(lam)
    E = GroupAlgebraElement(r, {s: Q(1) for s in _row_group(rows, r)})
    F = GroupAlgebraElement(r, {s: Q(s.sign()) for s in _row_group(cols, r)})
    y = E * F * E
    y2 = y * y
    # y^2 is proportional to y; find the ratio on any supported permutation
    probe = next(iter(y.terms))
    kappa = y2.coeff(probe) / y.coeff(probe)
    if y * kappa != y2:
        raise RuntimeError("Young sandwich is not quasi-idempotent")
    c = y * (1 / kappa)
    assert c * c == c
    return c


def _canonical_tableau_columns(lam):
    rows = _canonical_tableau(lam)
    conj = conjugate_partition(lam)
    return [[rows[i][j] for i in range(conj[j])] for j in range(len(conj))]


@lru_cache(maxsize=None)
def specht_basis(lam: tuple[int, ...]) -> tuple[Permutation, ...]:
    """Permutations x_i with {x_i C_lam} a basis of the left ideal.

    Greedy by (Coxeter length, image order) so the list is deterministic and
    x_1 is always the identity.
    """
    lam = tuple(lam)
    r = sum(lam)
    d = hook_dimension(lam)
    if r == 0:
        return (Permutation.identity(0),)
    c = young_idempotent(lam)
    order = all_permutations(r)
    chosen: list[Permutation] = []
    rows: list[list[Fraction]] = []
    for s in sorted_by_length(r):
        vec = (GroupAlgebraElement.of(s) * c).to_vector(order)
        piv, ech = field_row_echelon(rows + [vec])
        if len(piv) > len(chosen):
            chosen.append(s)
            rows = ech
            if len(chosen) == d:
                break
    if len(chosen) != d:
        raise RuntimeError(f"failed to find {d} independent translates for {lam}")
    return tuple(chosen)


def scalar_extract(lam: tuple[int, ...], z: GroupAlgebraElement) -> Fraction:
    """The t with z = t*C_lam, for z in C_lam * QS_r * C_lam.

    Raises when z is not proportional to C_lam (which would signal a
    bookkeeping error in the propagating-ideal quotient).
    """
    lam = tuple(lam)
    c = young_idempotent(lam)
    if z.is_zero():
        return Q(0)
    t = z.coeff_identity() / c.coeff_identity()
    if (z - c * t).is_zero():
        return t
    raise ValueError("element is not proportional to the Young idempotent")


# ---------------------------------------------------------------------------
# the Specht bilinear form and left action matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def specht_gram(lam: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """G[i][j] = <x_i c, x_j c> = scalar_extract(C x_i* x_j C)."""
    lam = tuple(lam)
    c = young_idempotent(lam)
    xs = specht_basis(lam)
    out = []
    for xi in xs:
        row = []
        for xj in xs:
            z = c * GroupAlgebraElement.of(xi.inverse()) * GroupAlgebraElement.of(xj) * c
            row.append(scalar_extract(lam, z))
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
def left_action_matrix(lam: tuple[int, ...], s: Permutation) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix A with s * x_j C = sum_i A[i][j] x_i C (columns indexed by j).

    One elimination over the |S_r| x 2d matrix whose columns are the
    translates x_k C and then the targets s x_j C; the translates are
    independent, so the targets lie in their span exactly when the pivots
    are columns 0..d-1, and A is then the right half of the echelon form.
    """
    lam = tuple(lam)
    c = young_idempotent(lam)
    xs = specht_basis(lam)
    order = all_permutations(sum(lam))
    cols = ([(GroupAlgebraElement.of(x) * c).to_vector(order) for x in xs]
            + [(GroupAlgebraElement.of(s * x) * c).to_vector(order) for x in xs])
    d = len(xs)
    piv, ech = field_row_echelon(list(zip(*cols)))
    if piv != list(range(d)):
        raise ValueError("target not in span")
    return tuple(tuple(row[d:]) for row in ech)
