"""Rollet graphs: the branching graphs of the bounded-height towers.

Vertices are pairs (p, lam) with lam a partition of min(p, l+2); there is an
edge between (p, lam) and (p+1, mu) when mu equals lam (both already of full
size l+2) or mu is lam with one box added.  Walks from (0, ()) count
standard-module dimensions; decorating each vertex with its rank-n Gram
determinant produces the marginal vertex function 𝒱 and its conjectural
Chebyshev counterpart 𝒞 built from the one-cup series of the arm labels.
Both are quotients of products of powers, held as reduced (num, den) pairs
(`exactmath.reduced`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from typing import NamedTuple

from .cheby import quantum_number
from .exactmath import Polynomial, reduced
from .gram import ModuleLabel, factor_one_cup, gram_det
from .symmetric import partitions

Vertex = tuple[int, tuple[int, ...]]


def _vertex_partitions(l: int, p: int) -> list[tuple[int, ...]]:
    return partitions(min(p, l + 2))


def edge(l: int, v: Vertex, w: Vertex) -> bool:
    """Adjacency; v, w in either order.  The ranks differ by one and the
    parts differ in total by exactly the difference of the sizes, so the
    upper partition holds the lower one: equal at full size l+2, one box
    larger below it."""
    (p1, lam1), (p2, lam2) = sorted([v, w])
    return p2 == p1 + 1 and sum(abs(a - b) for a, b in zip_longest(
        lam1, lam2, fillvalue=0)) == sum(lam2) - sum(lam1)


def neighbours(l: int, v: Vertex) -> list[Vertex]:
    """The vertices joined to v: those at p - 1, then those at p + 1, each
    rank in `partitions` order.  The only reader of adjacency."""
    p, _lam = v
    return [(q, mu) for q in (p - 1, p + 1) if q >= 0
            for mu in _vertex_partitions(l, q) if edge(l, v, (q, mu))]


class RolletGraph:
    """The branching graph for height bound l, truncated at p <= p_max."""

    def __init__(self, l: int, p_max: int):
        self.l = l
        self.p_max = p_max
        self.vertices: list[Vertex] = [
            (p, lam) for p in range(p_max + 1) for lam in _vertex_partitions(l, p)]
        self.edges: list[tuple[Vertex, Vertex]] = [
            (v, w) for v in self.vertices for w in neighbours(l, v) if v[0] < w[0] <= p_max]


@lru_cache(maxsize=None)
def _walks(l: int, n: int) -> dict[Vertex, int]:
    """Number of length-n walks from (0, ()) to each vertex they reach."""
    if n <= 0:
        return {(0, ()): 1} if n == 0 else {}
    counts: dict[Vertex, int] = {}
    for v, c in _walks(l, n - 1).items():
        for w in neighbours(l, v):
            counts[w] = counts.get(w, 0) + c
    return counts


def dimension(l: int, n: int, vertex: Vertex) -> int:
    """Number of length-n walks from (0, ()) to the vertex; 0 on parity or
    reachability mismatch.  Equals the standard-module dimension."""
    p, lam = vertex
    return _walks(l, n).get((p, tuple(lam)), 0)


def _det(l: int, n: int, vertex: Vertex) -> Polynomial:
    p, lam = vertex
    return gram_det(ModuleLabel(l, n, p, tuple(lam)))


def marginal_v(l: int, vertex: Vertex, n: int) -> tuple[Polynomial, Polynomial]:
    """det_n(vertex) / prod over neighbours of det_{n-1}(neighbour), reduced."""
    p, lam = vertex
    num = _det(l, n, vertex)
    den = Polynomial.one()
    for (q, mu) in neighbours(l, (p, tuple(lam))):
        if q <= n - 1:
            den = den * _det(l, n - 1, (q, mu))
    return reduced(num, den)


def chebyshev_c(l: int, vertex: Vertex, n: int) -> tuple[Polynomial, Polynomial]:
    """The Chebyshev-series prediction for the marginal vertex function,
    reduced.

    Product over the up-neighbours (p+1, mu) that carry full-size partitions
    of (P^(mu)_{p+2} / P^(mu)_{p+1}) ** dimension(l, n-1, (p+1, mu)).  The
    ratio is anchored at the vertex, so on the arms it reproduces 𝒱 exactly
    and towards the head it is a genuine conjecture, not a tautology.
    """
    p, lam = vertex
    if p + 1 < l + 2:
        raise ValueError("no full-size up-neighbour: vertex too close to the root")
    num, den = Polynomial.one(), Polynomial.one()
    for (q, mu) in neighbours(l, (p, tuple(lam))):
        if q != p + 1 or sum(mu) != l + 2:
            continue
        _c, series = factor_one_cup(l, mu)
        e = dimension(l, n - 1, (q, mu))
        num = num * series.term(p + 2) ** e
        den = den * series.term(p + 1) ** e
    return reduced(num, den)


class ArmRecord(NamedTuple):
    p: int
    m: int
    n: int
    equal: bool
    residual: tuple[Polynomial, Polynomial]  # 𝒞 / 𝒱, reduced; (1, 1) when equal


def arm_verify(l: int, lam: tuple[int, ...], p_range, m_range) -> list[ArmRecord]:
    """Compare 𝒱 and 𝒞 on the arm of a full-size partition lam |- l+2."""
    lam = tuple(lam)
    if sum(lam) != l + 2:
        raise ValueError("arm labels carry partitions of l+2")
    out = []
    for p in p_range:
        if p < l + 2:
            continue
        for m in m_range:
            n = p + 2 * m
            v_num, v_den = marginal_v(l, (p, lam), n)
            c_num, c_den = chebyshev_c(l, (p, lam), n)
            res = reduced(c_num * v_den, c_den * v_num)
            out.append(ArmRecord(p, m, n, res == (1, 1), res))
    return out


# ---------------------------------------------------------------------------
# the l = -1 determinant product formula
# ---------------------------------------------------------------------------

def tl_recursive_det(n: int, p: int) -> Polynomial:
    """Chain-module Gram determinant in the loop parameter, by the product
    formula (no Gram matrix is built):

        det G_n(p) = prod_{j=1}^{(n-p)/2} ([p+j+1] / [j]) ** dim Delta_n(p+2j)

    (Westbury, Math. Z. 219, 1995; Ridout & Saint-Aubin, Adv. Theor. Math.
    Phys. 18, 2014).  The exponents are walk counts; the quotient must be
    exact.  The name stays because kybench/checks.py imports it.
    """
    if p < 0 or p > n or (n - p) % 2:
        raise ValueError("bad chain label")
    num, den = Polynomial.one(), Polynomial.one()
    for j in range(1, (n - p) // 2 + 1):
        d = dimension(-1, n, (p + 2 * j, (1,)))
        num = num * quantum_number(p + j + 1) ** d
        den = den * quantum_number(j) ** d
    return num.exact_div(den)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _vertex_id(v: Vertex) -> str:
    p, lam = v
    return f"{p}_{'-'.join(map(str, lam))}" if lam else f"{p}_"


def export_dot(graph: RolletGraph) -> str:
    lines = ["graph rollet {"]
    for v in graph.vertices:
        label = f"({v[0]}, {list(v[1])})"
        lines.append(f'  "{_vertex_id(v)}" [label="{label}"];')
    for a, b in graph.edges:
        lines.append(f'  "{_vertex_id(a)}" -- "{_vertex_id(b)}";')
    lines.append("}")
    return "\n".join(lines)


def export_json(graph: RolletGraph, n_values=(), decorate_det=True,
                decorate_mvf=False) -> dict:
    out = {"l": graph.l, "vertices": []}
    for (p, lam) in graph.vertices:
        fibre = {}
        for n in n_values:
            if n < p or (n - p) % 2:
                continue
            entry = {}
            if decorate_det:
                entry["det"] = _det(graph.l, n, (p, lam)).to_json()
            if decorate_mvf and n > p:
                num, den = marginal_v(graph.l, (p, lam), n)
                entry["mvf"] = {"num": num.to_json(), "den": den.to_json()}
            if entry:
                fibre[str(n)] = entry
        out["vertices"].append({"p": p, "lambda": list(lam), "fibre": fibre})
    return out
