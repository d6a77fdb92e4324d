"""Brauer pair partitions, composition with loop counting, the flip
involution, and enumeration of bounded-height diagram bases.

Points of a diagram with n top and m bottom points are labelled 1..n (top)
and -1..-m (bottom, negative).  A diagram is a perfect matching stored as a
sorted tuple of sorted pairs, so equality is plain tuple equality.
Products are walked on partner arrays (`_arrays`: the partner of each top
and each bottom point), both in `compose` and in `pairing_table`, whose own
walk `_stack` reads only the top arrays of half diagrams.

Height is treated operationally: the height-<= l diagrams on n strands are
exactly the products of the cup-cap generators e_1..e_{n-1} and the
transpositions s_1..s_{l+1}.  `half_basis` enumerates the half diagrams
of a standard module as the closure of one cup diagram under those
generators, and its cardinalities are cross-checked elsewhere against
walk counts on the corresponding branching graphs.
"""

from __future__ import annotations

from functools import lru_cache


def _canon(pairs) -> tuple[tuple[int, int], ...]:
    out = []
    for a, b in pairs:
        if a > b:
            a, b = b, a
        out.append((a, b))
    out.sort()
    return tuple(out)


class PairPartition:
    """A Brauer diagram: perfect pair matching of n top + m bottom points."""

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


def u_cup(j: int, k: int, n: int) -> PairPartition:
    """One-cup half diagram u_{jk} in B(n, n-2): cup at top points j < k,
    remaining top points joined order-preservingly to the bottom."""
    if not (1 <= j < k <= n):
        raise ValueError("need 1 <= j < k <= n")
    pairs = [(j, k)]
    slot = 0
    for t in range(1, n + 1):
        if t in (j, k):
            continue
        slot += 1
        pairs.append((t, -slot))
    return PairPartition(n, n - 2, pairs)


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


def pairing_table(half) -> list[list]:
    """(loops, image) for flip(u) stacked on v, for every pair of half
    diagrams u, v in B(n, p): the closed loops, and image[i-1] = the bottom
    point the composite joins to top i; None when the composite has fewer
    than p propagating lines.

    Each half diagram is read as its partner arrays (`_arrays`); the bottom
    array of u gives the top point of each of its slots.  `_stack` is the
    table's own walk, which needs only the top arrays: each line goes down
    from a slot of u, across a cup of v and back along a cup of u until it
    reaches a slot of v, or a slot of u, which leaves the composite short of
    p lines.  The glued points no line visits close into loops.
    """
    if not half:
        return []
    n = half[0].n_top
    arrays = [_arrays(u) for u in half]
    return [[_stack(tu, bu[1:], tv, n) for tv, _ in arrays] for tu, bu in arrays]


def _stack(pu: list[int], slots_u: list[int], pv: list[int], n: int):
    """pairing_table's entry for the partner arrays pu, pv and the slot
    tops of u."""
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

def generators(l: int, n: int) -> list[PairPartition]:
    gens = [e_gen(i, n) for i in range(1, n)]
    gens += [s_gen(j, n) for j in range(1, min(l + 1, n - 1) + 1)]
    return gens


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


@lru_cache(maxsize=None)
def half_basis(l: int, n: int, p: int) -> tuple[PairPartition, ...]:
    """Half diagrams of height <= l in B(n, p), sorted canonically.

    Computed as the closure of the right-nested cup diagram under the
    algebra generators, discarding the residual output permutation and any
    terms with fewer than p propagating lines (the cell-module quotient).
    """
    if p > n or (n - p) % 2:
        raise ValueError("parity violation")
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


def one_cup_basis(l: int, n: int) -> tuple[PairPartition, ...]:
    """The distinguished one-cup half-diagram list, ordered by (j, k).

    Adjacent cups u_{12}..u_{n-1,n} plus u_{jk} for 3 <= k <= min(n, l+3),
    j <= k-2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return tuple(u_cup(j, k, n) for j, k in one_cup_index(l, n))


@lru_cache(maxsize=None)
def one_cup_index(l: int, n: int) -> tuple[tuple[int, int], ...]:
    """The (j,k) index list matching one_cup_basis ordering."""
    idx = {(j, j + 1) for j in range(1, n)}
    for k in range(3, min(n, l + 3) + 1):
        for j in range(1, k - 1):
            idx.add((j, k))
    return tuple(sorted(idx))

