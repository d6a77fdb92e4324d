"""Half diagrams as partner tuples, the generators acting on them by local
rewrites, their pairings, and the bounded-height half-diagram bases.

A half diagram u in B(n, p) has n top points 1..n and p bottom slots 1..p.
It is stored as its top-partner tuple: u[t] = +s for a cup joining top
points t and s, and -k for the line from top point t to slot k; u[0] = 0
is unused.  The slots of a basis element are numbered left to right (its
lines do not cross), so equality is plain tuple equality.

The generators act on u from above.  The cup-cap generator e_i joins the
two old partners of top points i and i+1 and puts a cup there (`_cup`); a
permutation s relabels the top points (`permute`).  Either may leave the
slots out of order, and renumbering them left to right splits off the
residual permutation of the p outputs.  `pairings` stacks the flip of one
half diagram on each of a list of others by a walk over the same tuples.

Height is treated operationally: the height-<= l diagrams on n strands are
exactly the products of the cup-cap generators e_1..e_{n-1} and the
transpositions s_1..s_{l+1}.  `half_basis` enumerates the half diagrams
of a standard module as the closure of one cup diagram under those
generators, and its cardinalities are cross-checked elsewhere against
walk counts on the corresponding branching graphs.  The one-cup basis is
the same closure at p = n-2, ordered by the cup (j, k) (`one_cup_basis`,
`one_cup_index`): the adjacent cups and every (j, k) with k <= l+3, a
rule the tests check rather than one coded here.
"""

from __future__ import annotations

from functools import lru_cache


def _slots(top: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(u, image): the partners top with the slots renumbered left to
    right, and image[k-1] = the old slot of the new slot k."""
    image = tuple(-q for q in top if q < 0)
    new = {q: k for k, q in enumerate(image, start=1)}
    return tuple(-new[-q] if q < 0 else q for q in top), image


def _cup(u: tuple[int, ...], i: int) -> tuple[int, ...] | None:
    """e_i u with its closed loop dropped; None when e_i joins two lines,
    which leaves fewer than p of them."""
    a, b = u[i], u[i + 1]
    if a == i + 1:
        return u
    if a < 0 and b < 0:
        return None
    top = list(u)
    top[i], top[i + 1] = i + 1, i
    if a > 0:
        top[a] = b
    if b > 0:
        top[b] = a
    return _slots(top)[0]


def permute(u: tuple[int, ...], s: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(u', image) with s u = u' sigma: s, a permutation of the first len(s)
    top points extended by identity strands, takes top point i to the
    partner of top point s(i) in u; sigma, with image[k-1] its value at
    slot k, permutes the outputs.  No line is lost and no loop closes."""
    n = len(u) - 1
    s = (0, *s, *range(len(s) + 1, n + 1))
    inverse = [0] * (n + 1)
    for i, j in enumerate(s):
        inverse[j] = i
    return _slots([inverse[u[j]] if u[j] > 0 else u[j] for j in s])


def pairings(half, u) -> list:
    """(loops, image) for flip(u) stacked on each half diagram v of half,
    all in B(n, p): the closed loops, and image[i-1] = the bottom point the
    composite joins to top i; None when the composite has fewer than p
    propagating lines.

    Each line goes down from a slot of u, across a cup of v and back along
    a cup of u until it reaches a slot of v, or a slot of u, which leaves
    the composite short of p lines.  The glued points no line visits close
    into loops.
    """
    n = len(u) - 1
    slots = [t for t in range(1, n + 1) if u[t] < 0]
    return [_stack(u, slots, v, n) for v in half]


def _stack(pu, slots_u: list[int], pv, n: int):
    """pairings' entry for the partner tuples pu, pv and the slot tops
    of u."""
    seen = [False] * (n + 1)
    image = []
    for t in slots_u:
        while True:
            seen[t] = True
            q = pv[t]
            if q < 0:
                image.append(-q)
                break
            seen[q] = True
            t = pu[q]
            if t < 0:  # the line turns back up to a slot of u
                return None
    loops = 0
    for t in range(1, n + 1):
        if not seen[t]:
            loops += 1
            while not seen[t]:
                q = pv[t]
                seen[t] = seen[q] = True
                t = pu[q]
    return loops, tuple(image)


# ---------------------------------------------------------------------------
# bounded-height bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def half_basis(l: int, n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Half diagrams of height <= l in B(n, p), sorted by their pairs (the
    cups (a, b) with a < b and the lines (-k, t) to slot k).

    Computed as the closure of the right-nested cup diagram under the
    algebra generators, discarding the residual output permutation and any
    terms with fewer than p propagating lines (the cell-module quotient).
    """
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, got n={n}, p={p}")
    if (n - p) % 2:
        raise ValueError(f"parity violation: n - p = {n - p} is odd")
    start = (0, *range(-1, -p - 1, -1),
             *(q + 1 if (q - p) % 2 else q - 1 for q in range(p + 1, n + 1)))
    swaps = [(*range(1, j), j + 1, j) for j in range(1, min(l + 1, n - 1) + 1)]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in [*(_cup(u, i) for i in range(1, n)), *(permute(u, s)[0] for s in swaps)]:
                if w is not None and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(seen, key=lambda u: sorted(
        [(a, b) for a, b in enumerate(u) if a < b] + [(b, a) for a, b in enumerate(u) if b < 0])))


def one_cup_basis(l: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The one-cup half diagrams u_{jk} of half_basis(l, n, n-2), ordered
    by their cup (j, k)."""
    return tuple(sorted(half_basis(l, n, n - 2),
                        key=lambda u: [(j, k) for j, k in enumerate(u) if j < k]))


@lru_cache(maxsize=None)
def one_cup_index(l: int, n: int) -> tuple[tuple[int, int], ...]:
    """The cups (j, k) of one_cup_basis(l, n), in its order."""
    return tuple((j, k) for u in one_cup_basis(l, n) for j, k in enumerate(u) if j < k)
