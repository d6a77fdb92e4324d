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
the cell quotient and contribute 0.  Each sigma-table
<x_i c, sigma x_j c> is read off the coefficients of the Young idempotent
(symmetric.specht_pairing).

Determinants are reported monic: the form is only defined up to a global
scalar, and monic normalisation is the canonical representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactmath import (Polynomial, PolyMatrix, Q, det_poly, poly_gcd,
                        poly_nth_root)
from .cheby import ChebSeries, ramping_check
from .diagrams import (PairPartition, compose, flip, half_basis,
                       half_normalize, one_cup_basis, one_cup_index)
from .symmetric import (Permutation, hook_dimension, is_partition,
                        left_action_matrix, specht_frame, specht_pairing)


@dataclass(frozen=True)
class ModuleLabel:
    l: int
    n: int
    p: int
    lam: tuple[int, ...]

    def __post_init__(self):
        if self.l < -1:
            raise ValueError("height bound must be >= -1")
        if self.p < 0 or self.p > self.n or (self.n - self.p) % 2:
            raise ValueError(f"invalid (n,p)=({self.n},{self.p}): parity/range")
        r = min(self.p, self.l + 2)
        if sum(self.lam) != r or not (is_partition(self.lam) or self.lam == ()):
            raise ValueError(f"lambda {self.lam} is not a partition of min(p, l+2) = {r}")

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

def _pair_halves(u: PairPartition, v: PairPartition, p: int, r: int):
    """(loops, sigma) for the form between half diagrams u, v; None if the
    composite drops below p propagating lines."""
    w, loops = compose(flip(u), v)
    if w.propagating_count() < p:
        return None
    perm = Permutation(w.as_permutation_image())
    if not perm.fixes_from(r + 1):
        raise RuntimeError(
            f"residual permutation {perm.image} moves a strand beyond {r}: "
            "height-closure violation")
    return loops, perm.restrict(r)


class GramInstance:
    """Matrix of the contravariant form for one module label.

    Basis order: Specht index outermost, half diagrams in their canonical
    order within each block (for one-cup modules this is the (j,k) cup
    order).
    """

    def __init__(self, label: ModuleLabel):
        self.label = label
        if label.p == label.n - 2:
            self.half = one_cup_basis(label.l, label.n)
        else:
            self.half = half_basis(label.l, label.n, label.p)
        self.d = hook_dimension(label.lam)
        self.basis = [(i, u) for i in range(self.d) for u in self.half]
        self._matrix: PolyMatrix | None = None
        self._det: Polynomial | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def matrix(self) -> PolyMatrix:
        if self._matrix is None:
            self._matrix = self._build()
        return self._matrix

    def _build(self) -> PolyMatrix:
        lab = self.label
        nhalf = len(self.half)
        pair_data = [[None] * nhalf for _ in range(nhalf)]
        for a, u in enumerate(self.half):
            for b in range(a, nhalf):
                pair_data[a][b] = _pair_halves(u, self.half[b], lab.p, lab.r)
        zero = Polynomial()
        size = self.dim
        rows = [[zero] * size for _ in range(size)]
        for a in range(nhalf):
            for b in range(a, nhalf):
                pd = pair_data[a][b]
                if pd is None:
                    continue
                loops, sigma = pd
                table = specht_pairing(lab.lam, sigma)
                for i in range(self.d):
                    for j in range(self.d):
                        val = table[i][j]
                        if not val:
                            continue
                        poly = Polynomial.monomial(val, loops)
                        rows[i * nhalf + a][j * nhalf + b] = poly
                        if a != b:
                            # <v b_j, u b_i> = transpose entry
                            rows[j * nhalf + b][i * nhalf + a] = poly
        return PolyMatrix(rows)

    @property
    def det_monic(self) -> Polynomial:
        if self._det is None:
            d = det_poly(self.matrix)
            if d.is_zero():
                raise RuntimeError(f"identically singular Gram matrix for {self.label}")
            self._det = d.monic()
        return self._det


@lru_cache(maxsize=None)
def gram_matrix(label: ModuleLabel) -> GramInstance:
    return GramInstance(label)


def gram_det(label: ModuleLabel) -> Polynomial:
    """Monic Gram determinant of a standard module."""
    return gram_matrix(label).det_monic


def gram_det_lnp(l: int, n: int, p: int, lam: tuple[int, ...]) -> Polynomial:
    return gram_det(ModuleLabel(l, n, p, tuple(lam)))


# ---------------------------------------------------------------------------
# one-cup series and the determinant factorisation
# ---------------------------------------------------------------------------

def one_cup_det(l: int, n: int, lam: tuple[int, ...]) -> Polynomial:
    return gram_det(ModuleLabel(l, n, n - 2, tuple(lam)))


@lru_cache(maxsize=None)
def one_cup_series(l: int, lam: tuple[int, ...]) -> ChebSeries:
    """The Chebyshev series of monic one-cup determinants, anchored at the
    first two interesting ranks n = l+4, l+5."""
    lam = tuple(lam)
    if sum(lam) != l + 2:
        raise ValueError("lambda must be a partition of l+2")
    return ChebSeries(l + 4, one_cup_det(l, l + 4, lam), one_cup_det(l, l + 5, lam))


@lru_cache(maxsize=None)
def factor_one_cup(l: int, lam: tuple[int, ...]) -> tuple[Polynomial, ChebSeries]:
    """Split the one-cup determinant series as det_n = C * (P_n)^d.

    C is the gcd of the two anchor determinants; P is the d-th root of the
    reduced anchors and is itself a ramping Chebyshev series.  A failed
    d-th root would falsify the factorisation and is reported, never
    masked.
    """
    lam = tuple(lam)
    d = hook_dimension(lam)
    s = one_cup_series(l, lam)
    c = poly_gcd(s.pN, s.pN1)
    p0 = poly_nth_root(s.pN.exact_div(c), d)
    p1 = poly_nth_root(s.pN1.exact_div(c), d)
    series = ChebSeries(l + 4, p0, p1)
    ok, why = ramping_check(series)
    if not ok:
        raise RuntimeError(f"extracted P-series is not ramping: {why}")
    return c, series


# ---------------------------------------------------------------------------
# mixed-rank one-cup matrices
# ---------------------------------------------------------------------------

def gram_mixed(l: int, lam: tuple[int, ...], n_tuple: tuple[int, ...]) -> PolyMatrix:
    """Form matrix on per-Specht-vector one-cup sets of (possibly) different
    ranks, over the orthogonal Specht basis y_k = sum_m T[m][k] x_m C of
    symmetric.specht_frame.

    The pairing rules only see the cup indices, so smaller-rank cups keep
    their values at the largest rank: each entry is read off the one-cup
    Gram matrix there, restricted to each vector's cups and conjugated by T.
    """
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
    _xs, T, _norms = specht_frame(lam)
    basis = [(k, where[jk]) for k in range(d) for jk in one_cup_index(l, n_tuple[k])]

    def entry(k, a, kk, b):
        # T is upper triangular: y_k only involves x_0..x_k
        return sum((rows[m * nhalf + a][mm * nhalf + b] * (T[m][k] * T[mm][kk])
                    for m in range(k + 1) for mm in range(kk + 1)), Polynomial())

    return PolyMatrix([[entry(k, a, kk, b) for kk, b in basis] for k, a in basis])


def gram_mixed_det(l: int, lam: tuple[int, ...], n_tuple: tuple[int, ...]) -> Polynomial:
    """Determinant of gram_mixed, normalised per cup by the orthogonal-basis
    norms so that the three-term rank recursion is scale-free."""
    lam = tuple(lam)
    m = gram_mixed(l, lam, n_tuple)
    det = det_poly(m)
    _xs, _T, norms = specht_frame(lam)
    scale = Q(1)
    for k, nk in enumerate(n_tuple):
        scale *= norms[k] ** len(one_cup_index(l, nk))
    return det * (1 / scale)


# ---------------------------------------------------------------------------
# algebra action on a standard module
# ---------------------------------------------------------------------------

def action_matrix(label: ModuleLabel, g: PairPartition):
    """Matrix of a permutation diagram g acting on the module basis.

    Returns rows A with g.(basis[j]) = sum_i A[i][j] basis[i], over Q.
    """
    inst = gram_matrix(label)
    half = list(inst.half)
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
        perm = Permutation(image)
        if not perm.fixes_from(label.r + 1):
            raise RuntimeError("action residual moves a strand beyond r")
        sigma = perm.restrict(label.r)
        lam_mat = left_action_matrix(label.lam, sigma)
        a2 = index[u2]
        for m in range(d):
            for i in range(d):
                if lam_mat[i][m]:
                    A[i * nhalf + a2][m * nhalf + a] += lam_mat[i][m]
    return A

