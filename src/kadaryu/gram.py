"""Standard modules of the bounded-height diagram algebras and their Gram
matrices over Q[a].

A module label is (l, n, p, lam): height bound, rank, propagating-line
count and a partition of r = min(p, l+2).  The module has basis u b_i with
u a height-<= l half diagram with p propagating lines and b_i = x_i C_lam
running over a (rational) Specht basis.  The contravariant form is read off
diagrammatically:

    <u b_i, v b_j> = a^d * <x_i c, sigma x_j c>

where flip(u) stacked on v leaves d closed loops and the residual
permutation sigma (which must fix the strands beyond r; anything else is a
closure bug, not data).  Terms with fewer than p propagating lines die in
the cell quotient and contribute 0.  The (d, sigma) of u against every
half diagram come from one walk (diagrams.pairings), and each
sigma-table <x_i c, sigma x_j c> is M(sigma) = S A(sigma), S the Specht
Gram and A(sigma) the action of sigma on the Specht basis
(symmetric.left_action_matrix, read off one integer table of translates
per lam, divided out of S^-1 = T N^-1 T^t of the certified Specht frame,
where S A = M and integrality are checked exactly).

Determinants are reported monic: the form is only defined up to a global
scalar, and monic normalisation is the canonical representative.  The
monic determinant is that of a monic integer matrix polynomial A~ in a
whose blocks are the A(sigma) times a^loops, placed one half diagram at
a time (GramInstance._rows): one integer block companion characteristic
polynomial (GramInstance.det_monic), and the one exact check point is the
determinant core's own (exactmath.det_monic_companion).  The Gram matrix
is G = (S (x) I) A~, built only to be printed.  Only the methods of
GramInstance read A~; the mixed-rank determinant (gram_mixed_det) and
every certificate take rows of the pencil A~(a) = a I + B_0 of a one-cup
module (GramInstance.pencil), B_0 itself at a = 0.  Only this module
knows the basis layout: GramInstance.cup_row gives the position of
u_cup b_k in a one-cup module, whose half diagrams are ordered by their
cup (diagrams.one_cup_basis).

S_r acts on the first r strands of a module (act): s u_a = u_b sigma, a
relabelling of the top points of u_a (diagrams.permute) once per
(label, s), gives s (u_a b_i) = sum_j A(sigma)[j][i] u_b b_j, and no
matrix of the whole module is built.
The placement and the action share one residual-permutation check.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from .exactmath import (Polynomial, PolyMatrix, Q, clear_denominators, det_monic_companion,
                        poly_gcd_cofactors, poly_nth_root)
from .cheby import ChebSeries, ramping_check
from .diagrams import half_basis, one_cup_basis, one_cup_index, pairings, permute
from .symmetric import (hook_dimension, identity, is_partition, left_action_matrix,
                        specht_frame, specht_gram)


class _LabelFields(NamedTuple):
    l: int
    n: int
    p: int
    lam: tuple[int, ...]


class ModuleLabel(_LabelFields):
    """The standard module of J_{l,n} with p propagating lines and Specht
    part lam, a partition of min(p, l+2)."""

    __slots__ = ()

    def __new__(cls, l: int, n: int, p: int, lam: tuple[int, ...]):
        if l < -1:
            raise ValueError("height bound must be >= -1")
        if p < 0 or p > n or (n - p) % 2:
            raise ValueError(f"invalid (n,p)=({n},{p}): parity/range")
        r = min(p, l + 2)
        lam = tuple(lam)
        if sum(lam) != r or not is_partition(lam):
            raise ValueError(f"lambda {lam} is not a partition of min(p, l+2) = {r}")
        return super().__new__(cls, l, n, p, lam)

    @property
    def r(self) -> int:
        return min(self.p, self.l + 2)

    @property
    def cups(self) -> int:
        return (self.n - self.p) // 2

    def key(self) -> str:
        return f"l{self.l}_n{self.n}_p{self.p}_lam{'-'.join(map(str, self.lam))}"


# ---------------------------------------------------------------------------
# Gram instances
# ---------------------------------------------------------------------------

class GramInstance:
    """Matrix of the contravariant form for one module label.

    Basis order: Specht index outermost, half diagrams in their canonical
    order within each block (for one-cup modules this is the (j,k) cup
    order, cup_row).  The linearisation the determinant is taken from is
    placed one half diagram at a time, from the (loops, sigma) of that
    half diagram against the basis, and the Gram matrix is read off it.
    """

    def __init__(self, label: ModuleLabel):
        self.label = label
        self.half = (one_cup_basis(label.l, label.n) if label.cups == 1
                     else half_basis(label.l, label.n, label.p))
        self.d = hook_dimension(label.lam)
        self._placed: dict[int, list[list[int]]] = {}
        self._blocks: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}

    @property
    def dim(self) -> int:
        return self.d * len(self.half)

    def cup_row(self, k: int, cup: tuple[int, int]) -> int:
        """Basis position of u_cup b_k in a one-cup module."""
        lab = self.label
        if lab.cups != 1:
            raise ValueError(f"{lab} is not a one-cup module")
        return k * len(self.half) + one_cup_index(lab.l, lab.n).index(cup)

    def pencil(self, a, rows) -> list[dict]:
        """The given rows of A~(a) = a I + B_0 of a one-cup module at a
        parameter value a: the variable, an int, a rational or a QuotElem.
        Each row is {column: entry} over the nonzero entries of B_0 and the
        diagonal; off the diagonal the entries are ints."""
        if self.label.cups != 1:
            raise ValueError(f"{self.label} is not a one-cup module")
        nhalf = len(self.half)
        return [{j: b + a if i == j else b
                 for j, b in enumerate(self._rows(i % nhalf)[i // nhalf]) if b or i == j}
                for i in rows]

    def _rows(self, a: int) -> list[list[int]]:
        """The d tail rows k * nhalf + a of A~, placed once and kept: the
        integer block A(sigma) = left_action_matrix(lam, sigma) times
        a^loops at the pair (half[a], half[b]) for every b, and only b = a
        closes every cup."""
        if a in self._placed:
            return self._placed[a]
        lab, blocks = self.label, self._blocks
        dim, cups, nhalf, r = self.dim, lab.cups, len(self.half), lab.r
        rows = [[0] * (cups * dim) for _ in range(self.d)]
        for b, pair in enumerate(pairings(self.half, self.half[a])):
            if pair is None:
                continue
            loops, sigma = pair[0], _residual(pair[1], r)
            if loops < cups:
                block = blocks.get(sigma)
                if block is None:  # A(sigma) as (i, j * nhalf, entry)
                    block = blocks[sigma] = [(i, j * nhalf, v) for i, row in
                                             enumerate(left_action_matrix(lab.lam, sigma))
                                             for j, v in enumerate(row) if v]
                shift = loops * dim + b
                for i, j, val in block:
                    rows[i][shift + j] = val
            elif a != b or sigma != identity(r):
                raise RuntimeError(f"half diagrams {a} and {b} close every cup "
                                   f"with sigma = {sigma} for {lab}")
        self._placed[a] = rows
        return rows

    @cached_property
    def linearisation(self) -> list[list[int]]:
        """The integer tail [B_0 | .. | B_{cups-1}] of A~ = a^cups I + B_0 +
        .. + B_{cups-1} a^{cups-1}: the rows of _rows in basis order."""
        placed = [self._rows(a) for a in range(len(self.half))]
        return [rows[k] for k in range(self.d) for rows in placed]

    @cached_property
    def matrix(self) -> PolyMatrix:
        """G = (S (x) I) A~, S the Specht Gram, built only to be printed: L G
        summed in integers over the nonzero entries of A~, L the lcm of the
        denominators of S.  Entry ((i, a), (j, b)) is a^loops M(sigma)[i][j]
        for the pair (half[a], half[b]), one monomial."""
        tail = self.linearisation
        dim, cups, nhalf = self.dim, self.label.cups, len(self.half)
        S, L = clear_denominators(specht_gram(self.label.lam))
        acc = [{} for _ in range(dim)]
        for row, values in enumerate(tail):
            m, a = divmod(row, nhalf)
            # columns k * dim + c of A~, its diagonal a^cups as k = cups
            terms = [(col, v) for col, v in enumerate(values) if v] + [(cups * dim + row, 1)]
            for i, s in enumerate(S):
                if s[m]:
                    out = acc[i * nhalf + a]
                    for col, v in terms:
                        out[col] = out.get(col, 0) + s[m] * v
        monomial = lru_cache(maxsize=None)(lambda v, k: Polynomial.monomial(Q(v, L), k))
        rows = [[Polynomial()] * dim for _ in range(dim)]
        for r, out in enumerate(acc):
            for col, v in out.items():
                if v:
                    rows[r][col % dim] = monomial(v, col // dim)
        return PolyMatrix(rows)

    @cached_property
    def det_monic(self) -> Polynomial:
        """The Gram determinant divided by det(S)^h, h the number of half
        diagrams: det A~, from exactmath.det_monic_companion, which checks it
        exactly at one point.  G = (S (x) I) A~, so det G = det(S)^h det A~."""
        return det_monic_companion(self.linearisation)


@lru_cache(maxsize=None)
def gram_matrix(label: ModuleLabel) -> GramInstance:
    return GramInstance(label)


def gram_det(label: ModuleLabel) -> Polynomial:
    """Monic Gram determinant of a standard module."""
    return gram_matrix(label).det_monic


# ---------------------------------------------------------------------------
# one-cup series and the determinant factorisation
# ---------------------------------------------------------------------------

def one_cup_det(l: int, n: int, lam: tuple[int, ...]) -> Polynomial:
    return gram_det(ModuleLabel(l, n, n - 2, tuple(lam)))


@lru_cache(maxsize=None)
def factor_one_cup(l: int, lam: tuple[int, ...]) -> tuple[Polynomial, ChebSeries]:
    """Split the one-cup determinant series as det_n = C * (P_n)^d.

    C is the gcd of the two anchor determinants at the first two
    interesting ranks n = l+4, l+5; P is the d-th root of the reduced
    anchors and is itself a ramping Chebyshev series.  A failed d-th root
    would falsify the factorisation and is reported, never masked.
    """
    lam = tuple(lam)
    if sum(lam) != l + 2:
        raise ValueError("lambda must be a partition of l+2")
    d = hook_dimension(lam)
    c, q0, q1 = poly_gcd_cofactors(one_cup_det(l, l + 4, lam), one_cup_det(l, l + 5, lam))
    p0 = poly_nth_root(q0, d)
    p1 = poly_nth_root(q1, d)
    series = ChebSeries(l + 4, p0, p1)
    ok, why = ramping_check(series)
    if not ok:
        raise RuntimeError(f"extracted P-series is not ramping: {why}")
    return c, series


# ---------------------------------------------------------------------------
# mixed-rank one-cup determinants
# ---------------------------------------------------------------------------

def gram_mixed_det(l: int, lam: tuple[int, ...], n_tuple: tuple[int, ...]) -> Polynomial:
    """Normalised determinant of the form on per-Specht-vector one-cup sets
    of (possibly) different ranks, over the orthogonal Specht basis
    y_k = sum_m T[m][k] x_m C of symmetric.specht_frame.

    The pairing rules only see the cup indices, so smaller-rank cups keep
    their values at the largest rank: the form is the one-cup Gram matrix
    there, G = (S (x) I) A~ with A~ = a I + B_0, conjugated by T and
    restricted to each vector's cups.  T^t S T = N = diag(norms), which
    the frame certifies, gives T^-1 = N^-1 T^t S, which it returns too, so
    in the y frame the form is (N (x) I)(a I + R) with
    R = (T^-1 (x) I) B_0 (T (x) I).  Normalised per cup by the norms, so
    that the three-term rank recursion is scale-free, the determinant is
    the principal minor det(a I + R) on those cups.  R is rational, its
    common denominator L coming from T alone, so the integer pencil the
    core takes is y I + B with B = L R (exactmath.det_monic_companion), and
    det(a I + R) = L^-k det(L a I + B) for k cups.  B_0 is read as the
    pencil at a = 0, whose rows hold only the nonzero entries and the
    diagonal, and T and T^-1 are upper triangular, so only those entries
    are walked.
    """
    lam = tuple(lam)
    d = hook_dimension(lam)
    if len(n_tuple) != d:
        raise ValueError(f"need a tuple of length d = {d}")
    if any(nk < l + 4 for nk in n_tuple):
        raise ValueError("each rank must be >= l+4")
    big = max(n_tuple)
    inst = gram_matrix(ModuleLabel(l, big, big - 2, lam))
    _xs, T, _norms, inv = specht_frame(lam)
    nhalf = len(inst.half)
    cups = [inst.cup_row(k, jk) for k, nk in enumerate(n_tuple) for jk in one_cup_index(l, nk)]
    pos = {row: i for i, row in enumerate(cups)}
    # R restricted to the cups: row (k, a) takes T^-1[k][m] for
    # m >= k, column (kk, b) takes T[mm][kk] for mm <= kk
    low = [[0] * len(pos) for _ in pos]
    for row, entries in enumerate(inst.pencil(0, range(inst.dim))):
        m, a = divmod(row, nhalf)
        rows = [(pos[k * nhalf + a], inv[k][m]) for k in range(m + 1)
                if k * nhalf + a in pos and inv[k][m]]
        for col, val in entries.items():
            mm, b = divmod(col, nhalf)
            cols = [(pos[kk * nhalf + b], T[mm][kk] * val) for kk in range(mm, d)
                    if kk * nhalf + b in pos and T[mm][kk]]
            for i, t in rows:
                for j, v in cols:
                    low[i][j] += t * v
    B, L = clear_denominators(low)
    det = det_monic_companion(B)
    return Polynomial([c * Q(L) ** (i - len(B)) for i, c in enumerate(det.coeffs)])


# ---------------------------------------------------------------------------
# the symmetric group acting on a standard module
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _residual(image: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The residual permutation with this image, restricted to 1..r; an
    image that is not a permutation, or one that moves a strand beyond r,
    is a closure bug, not data."""
    e = identity(len(image))
    if sorted(image) != list(e):
        raise RuntimeError(f"residual {image} is not a permutation")
    if image[r:] != e[r:]:
        raise RuntimeError(f"residual permutation {image} moves a strand beyond {r}: "
                           "height-closure violation")
    return image[:r]


@lru_cache(maxsize=None)
def _moves(label: ModuleLabel, s: tuple[int, ...]) -> tuple:
    """(b, A(sigma)) for every half diagram u_a, with s u_a = u_b sigma
    from diagrams.permute (s extended by identity strands)."""
    half = gram_matrix(label).half
    index = {u: b for b, u in enumerate(half)}
    return tuple((index[u2], left_action_matrix(label.lam, _residual(image, label.r)))
                 for u2, image in (permute(u, s) for u in half))


def act(label: ModuleLabel, terms: dict, vec) -> list:
    """sum_s c_s (s . vec) for the group-algebra element {s: c_s} of S_r
    acting on the first r strands, in the module basis order: s (u_a b_m)
    = sum_i A(sigma)[i][m] u_b b_i with (b, A(sigma)) from _moves.  An
    entry that no term reaches is 0, as in a product that skips zeros."""
    nhalf = len(gram_matrix(label).half)
    out = [0] * len(vec)
    for s, c in terms.items():
        for a, (b, mat) in enumerate(_moves(label, s)):
            for m, v in enumerate(vec[a::nhalf]):
                if v:
                    for i, row in enumerate(mat):
                        if row[m]:
                            out[i * nhalf + b] += row[m] * c * v
    return out
