"""Bootstrap elements and standard-module embeddings.

A one-cup module carries a distinguished vector xi, unique up to a scalar,
that is annihilated by every cap except the last adjacent one; that cap
returns a polynomial D(a) times the Specht projector.  D follows the
three-term Chebyshev recursion up the tower and is divisible by the monic
series factor of the one-cup determinants, so roots of the latter are
parameter values where xi generates a submodule isomorphic to the
cap-free standard module.  This file computes xi exactly from the integer
linearisation A~ = aI + B_0 the module's determinant is taken from, as its
polynomial adjugate (Cayley-Hamilton), and reads everything else off rows
of the same pencil A~(a) (GramInstance.pencil): xi's uniqueness (which
follows from det A~ being monic), D at every rank of the step recursion,
the form-support claims of the translates of xi, and the radical at
explicit (possibly irrational) parameter values.  It checks the recursion
and divisibility, reports on xi (xi_report: its uniqueness, the Specht
projector fixing it and the support of its translates) and certifies the
submodule embeddings, with the Specht projector and translates applied by
gram.act.  The position of u_cup b_k in the module basis is
GramInstance.cup_row; the basis layout is gram's.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .claims import claim, report
from .exactmath import (Polynomial, Q, QuotElem, field_kernel, field_rank,
                        poly_content_removed, poly_gcd)
from .diagrams import one_cup_index
from .gram import ModuleLabel, act, factor_one_cup, gram_det, gram_matrix
from .symmetric import hook_dimension, specht_basis, specht_gram, young_idempotent


class XiElement(NamedTuple):
    """The bootstrap vector of a one-cup module, with polynomial coefficients
    in the Gram basis order (Specht index outermost), no common polynomial
    factor, and D monic."""

    label: ModuleLabel
    coeffs: tuple[Polynomial, ...]
    D: Polynomial

    @property
    def n(self) -> int:
        return self.label.n

    def coeff(self, k: int, cup: tuple[int, int]) -> Polynomial:
        return self.coeffs[gram_matrix(self.label).cup_row(k, cup)]


@lru_cache(maxsize=None)
def solve_xi(l: int, lam: tuple[int, ...], n: int) -> XiElement:
    """Solve the cap-annihilation system G . xi = D * v for xi.

    v is supported on the last-cup rows with entries <b_m, b_1>, so
    v = (S (x) I) e, e the unit vector at u_{n-1,n} b_1.  The linearisation
    is G = (S (x) I)(aI - C), C = -B_0 an integer matrix, and det_monic =
    chi_C, an integer polynomial, so adj(aI - C) e = chi_C(a) G^-1 v comes
    from the Horner recursion u_{dim-1} = e, u_{k-1} = C u_k + c_k e, run
    in integers.  The Cayley-Hamilton residue u_{-1} must be zero, the
    content is stripped and D = chi_C / content.
    """
    lam = tuple(lam)
    label = ModuleLabel(l, n, n - 2, lam)
    inst = gram_matrix(label)
    B0 = [list(row.items()) for row in inst.pencil(0, range(inst.dim))]
    last = inst.cup_row(0, (n - 1, n))
    det = inst.det_monic
    us = [[int(i == last) for i in range(inst.dim)]]  # u_{dim-1}, .., u_{-1}
    for ck in det.coeffs[-2::-1]:
        u = [-sum(b * us[-1][j] for j, b in row) for row in B0]
        u[last] += ck.numerator
        us.append(u)
    if any(us.pop()):
        raise RuntimeError(f"Cayley-Hamilton residue nonzero for {label}")
    content, prim = poly_content_removed([Polynomial(u[::-1]) for u in zip(*us)])
    d_poly, rem = det.divmod(content)
    if not rem.is_zero():
        raise RuntimeError(f"D is not polynomial for {label}: ({det})/({content})")
    # det and the content are monic, so D is too
    return XiElement(label, tuple(prim), d_poly)


def _apply(rows, vec):
    """The product of rows {column: entry} with vec, skipping zero entries
    of vec; a row with no nonzero term gives 0."""
    return [sum((vec[j] * v for j, v in row.items() if vec[j]), 0) for row in rows]


def _compute_d(label: ModuleLabel, coeffs) -> Polynomial:
    """D from the form: <u_{n-1,n} b_1, xi> = D * <b_1, b_1> = D.  As
    G = (S (x) I) A~ entry by entry, that is sum_m S[0][m] (A~ xi)_(m, last)
    for any vector xi, read off the d last-cup rows of A~."""
    inst = gram_matrix(label)
    S = specht_gram(label.lam)
    last = (label.n - 1, label.n)
    rows = inst.pencil(Polynomial.x(), [inst.cup_row(m, last) for m in range(len(S))])
    return sum((p * s for p, s in zip(_apply(rows, coeffs), S[0]) if s), Polynomial())


def xi_step(xi: XiElement) -> XiElement:
    """Push xi one rank up: D_{n-1} times the new adjacent cup on the Specht
    projector, minus the old vector with an identity strand appended."""
    label = xi.label
    n = label.n + 1
    new_label = ModuleLabel(label.l, n, n - 2, label.lam)
    new_inst = gram_matrix(new_label)
    coeffs = [Polynomial()] * new_inst.dim
    for k in range(new_inst.d):
        for cup in one_cup_index(label.l, label.n):
            coeffs[new_inst.cup_row(k, cup)] = -xi.coeff(k, cup)
    coeffs[new_inst.cup_row(0, (n - 1, n))] = xi.D  # the projector itself
    d_new = _compute_d(new_label, coeffs)
    if not d_new.is_monic():
        raise RuntimeError(f"stepped D is not monic at rank {n}: {d_new}")
    return XiElement(new_label, tuple(coeffs), d_new)


def xi_sequence(l: int, lam: tuple[int, ...], n_max: int) -> list[XiElement]:
    """xi at ranks l+4 .. n_max via the step recursion, checking at every
    rank that D obeys D_n = a*D_{n-1} - D_{n-2}."""
    if n_max < l + 4:
        raise ValueError("rank must be at least l+4")
    lam = tuple(lam)
    out = [solve_xi(l, lam, l + 4)]
    x = Polynomial.x()
    while out[-1].n < n_max:
        out.append(xi_step(out[-1]))
        if len(out) >= 3:
            d2, d1, d0 = out[-1].D, out[-2].D, out[-3].D
            if d2 != x * d1 - d0:
                raise RuntimeError(
                    f"D-recursion failure at rank {out[-1].n} for (l={l}, lam={lam})")
    return out


def divisibility_check(l: int, lam: tuple[int, ...], n: int) -> dict:
    """Claims report: the monic one-cup series factor P_n divides D_n, and
    the step recursion agrees with the direct solve at the anchor ranks."""
    lam = tuple(lam)
    claims: list[dict] = []
    seq = xi_sequence(l, lam, n)
    _c, series = factor_one_cup(l, lam)
    for xi in seq:
        p = series.term(xi.n)
        claim(claims, f"series-divides-D-n{xi.n}", (xi.D % p).is_zero(),
              {"D": str(xi.D), "P": str(p)})
    # the direct solve at rank l+5 must reproduce the stepped vector exactly
    if n >= l + 5:
        direct = solve_xi(l, lam, l + 5)
        stepped = seq[1]
        claim(claims, "step-matches-solve",
              direct.coeffs == stepped.coeffs and direct.D == stepped.D)
    return report({"l": l, "lambda": list(lam), "n": n}, claims)


# ---------------------------------------------------------------------------
# the claims on xi
# ---------------------------------------------------------------------------

def xi_report(l: int, lam: tuple[int, ...], n: int) -> dict:
    """Claims report on the solved xi at rank n, read off one pencil A~
    over all rows and one Specht projection C xi:

    - xi-unique: every row of A~ but u_{n-1,n} b_1 kills xi, and xi is
      nonzero.  As G = (S (x) I) A~, those rows span the Gram rows off the
      last cup and the last-cup Gram rows pinned to the ratios of the first
      Specht Gram column (the Schur complement of S_00).  Nothing more is
      needed for the line: A~ = aI + B_0 has a monic determinant of
      degree dim, so any dim - 1 of its rows are independent over Q(a), and
      their kernel is one line, which the nonzero xi spans.  The claims
      below are about that line, so the report stops here if it fails.
    - projector-fixes-xi: C acts as the identity on xi.
    - last-cup-support-k{k}: of the last-cup coefficients of the translate
      x_k C xi, only the k-th survives, with a value independent of k.
    - form-support-k{k}: the form of x_k C xi against the basis is
      D <b_m, b_k> on the last cup and 0 elsewhere, G vec = D (S (x) I)
      e_(k, last); as G = (S (x) I) A~ and S is invertible, that is
      A~ vec = D e_(k, last).
    """
    if n < l + 4:
        raise ValueError("rank must be at least l+4")
    lam = tuple(lam)
    xi = solve_xi(l, lam, n)
    label = xi.label
    inst = gram_matrix(label)
    last = [inst.cup_row(k, (n - 1, n)) for k in range(inst.d)]
    pencil = inst.pencil(Polynomial.x(), range(inst.dim))
    claims: list[dict] = []
    fields = {"l": l, "lambda": list(lam), "n": n}
    unique = any(xi.coeffs) and not any(
        v for i, v in enumerate(_apply(pencil, xi.coeffs)) if i != last[0])
    claim(claims, "xi-unique", unique)
    if not unique:
        return report(fields, claims)
    projected = act(label, young_idempotent(lam), xi.coeffs)
    claim(claims, "projector-fixes-xi", tuple(projected) == xi.coeffs)
    for k, xk in enumerate(specht_basis(lam)):
        vec = act(label, {xk: 1}, projected)  # (x_k C) xi = x_k (C xi)
        if k == 0:
            common = vec[last[0]]
        claim(claims, f"last-cup-support-k{k}",
              all(vec[row] == (common if kk == k else 0) for kk, row in enumerate(last)))
        claim(claims, f"form-support-k{k}",
              all(got == (xi.D if i == last[k] else 0)
                  for i, got in enumerate(_apply(pencil, vec))))
    return report(fields, claims)


# ---------------------------------------------------------------------------
# submodule certification at special parameter values
# ---------------------------------------------------------------------------

def _field(alpha0):
    """(to_field, describe) for a rational value or a minimal polynomial of
    an algebraic one: to_field maps Q[a] to Q or to Q[a]/(m).  A repeated
    factor (gcd(m, m') nonconstant) leaves nilpotents in Q[a]/(m), so such
    a modulus is refused.  A tuple is the modulus's coefficient list."""
    if isinstance(alpha0, tuple):
        alpha0 = Polynomial(alpha0)
    if isinstance(alpha0, Polynomial):
        if alpha0.degree < 1:
            raise ValueError("modulus must be nonconstant")
        if poly_gcd(alpha0, alpha0.derivative()).degree > 0:
            raise ValueError(f"modulus {alpha0} must be squarefree")
        m = alpha0.monic()
        return (lambda p: QuotElem(m, p)), f"root of {alpha0}"
    a0 = Q(alpha0)
    return (lambda p: p(a0)), str(a0)


def _target_partition(l: int, n: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    r = min(n - 2, l + 2)
    if sum(lam) == r:
        return lam
    if r == 0:
        return ()
    if r == 1:
        return (1,)
    raise NotImplementedError(f"ambiguous truncation of {lam} to size {r}")


def submodule_verify(l: int, lam: tuple[int, ...], n: int, alpha0,
                     target: tuple[int, ...] | None = None) -> dict:
    """Certify that at alpha = alpha0 the one-cup module at rank n contains
    a submodule isomorphic to the cap-free module with Specht part lam.

    alpha0 is a Fraction/int or the minimal polynomial of an algebraic
    value, as a Polynomial or its coefficient tuple; it must annihilate the
    target's Gram determinant.  The target module's own partition defaults
    to lam (truncated when the rank is too small); passing `target`
    explicitly covers the twisted embeddings where the radical carries a
    different Specht type than the module label.  The witness submodule is
    cut out of the radical (the Gram kernel) by the Specht projector, and
    its translates are checked to be independent and again form-degenerate.
    When the value also kills the monic series factor, the bootstrap vector
    itself is checked to specialise into the radical.
    """
    lam = tuple(lam)
    lam_t = tuple(target) if target is not None else _target_partition(l, n, lam)
    to_f, desc = _field(alpha0)
    label = ModuleLabel(l, n, n - 2, lam_t)
    inst = gram_matrix(label)
    claims: list[dict] = []
    fields = {"l": l, "lambda": list(lam), "n": n, "alpha0": desc}

    pre = not to_f(gram_det(label))
    claim(claims, "parameter-annihilates-det", pre, desc)

    # A~(alpha0) has the row space of G(alpha0), so the same reduced
    # echelon form and the same kernel basis
    rows = inst.pencil(to_f(Polynomial.x()), range(inst.dim))
    ker = field_kernel([[row.get(j, 0) for j in range(inst.dim)] for row in rows])
    deficiency = len(ker)
    claim(claims, "radical-nonzero", deficiency > 0,
          {"rank_deficiency": deficiency, "dim": inst.dim})

    d_emb = hook_dimension(lam)
    if deficiency == 0 or not pre:
        return report(fields, claims)

    projector = young_idempotent(lam)
    w = next((u for u in (act(label, projector, v) for v in ker) if any(u)), None)
    claim(claims, "projector-survives-radical", w is not None)
    if w is None:
        return report(fields, claims)

    translates = [act(label, {s: 1}, w) for s in specht_basis(lam)]
    rank = field_rank(translates)
    claim(claims, "translates-independent", rank == d_emb,
          {"rank": rank, "expected": d_emb})
    claim(claims, "translates-in-radical",
          not any(any(_apply(rows, t)) for t in translates))

    if lam == label.lam:
        _c, series = factor_one_cup(l, lam)
        if not to_f(series.term(n)):
            xi = xi_sequence(l, lam, n)[-1]
            spec = [to_f(p) for p in xi.coeffs]
            claim(claims, "xi-specialises-nonzero", any(spec))
            claim(claims, "xi-cap-scalar-vanishes", not to_f(xi.D), {"D": str(xi.D)})
            claim(claims, "xi-in-radical", not any(_apply(rows, spec)))

    return report(fields, claims)
