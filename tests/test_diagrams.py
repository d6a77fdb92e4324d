"""Half diagrams as partner tuples and the bounded-height bases, tested
against the reference pair partitions of tests/oracles.py (composition,
flip, half normalisation), which are tested here as well."""

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kadaryu.diagrams import _cup, half_basis, one_cup_basis, one_cup_index, permute
from kadaryu.symmetric import all_permutations

from oracles import (PairPartition, basis_by_closure, brauer_basis, compose, compose_by_graph,
                     e_gen, flip, half_basis_by_closure, half_normalize, identity, partners,
                     permutation_diagram, permutation_image, permute_by_composition, s_gen)


def decode(s: str) -> PairPartition:
    """The diagram of an encoding "n,m:[(a,b),(c,d'),...]", primes marking
    bottom points: the inverse of PairPartition.encode."""
    head, body = s.split(":", 1)
    n, m = (int(x) for x in head.split(","))
    body = body.strip()[1:-1]

    def val(t):
        t = t.strip()
        return -int(t[:-1]) if t.endswith("'") else int(t)

    pairs = []
    if body:
        for chunk in body.split("),("):
            a, b = chunk.strip("()").split(",")
            pairs.append((val(a), val(b)))
    return PairPartition(n, m, pairs)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@st.composite
def random_diagram(draw, n=4):
    pts = list(range(1, n + 1)) + list(range(-n, 0))
    perm = draw(st.permutations(pts))
    pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(n)]
    return PairPartition(n, n, pairs)


@st.composite
def rectangular_diagram(draw, n, m):
    pts = list(range(1, n + 1)) + list(range(-m, 0))
    perm = draw(st.permutations(pts))
    return PairPartition(n, m, zip(perm[::2], perm[1::2]))


@st.composite
def stackable_pair(draw, most=6):
    """(p1, p2) with p1's bottom as wide as p2's top, every side <= most."""
    m = draw(st.integers(0, most))
    n, k = (draw(st.sampled_from(range(m % 2, most + 1, 2))) for _ in range(2))
    return draw(rectangular_diagram(n, m)), draw(rectangular_diagram(m, k))


# a one-cup half diagram, u_{24} in B(5, 3), as pairs
U24 = PairPartition(5, 3, [(2, 4), (1, -1), (3, -2), (5, -3)])


class TestBasics:
    def test_encode_decode_roundtrip(self):
        assert decode(U24.encode()) == U24

    @given(random_diagram())
    def test_encode_decode_random(self, d):
        assert decode(d.encode()) == d

    def test_permutation_image(self):
        d = permutation_diagram((2, 3, 1))
        assert permutation_image(d) == (2, 3, 1)

    def test_identity_compose(self):
        r, loops = compose(identity(5), U24)
        assert r == U24 and loops == 0

    def test_e_squared_gives_loop(self):
        e = e_gen(1, 3)
        r, loops = compose(e, e)
        assert r == e and loops == 1


class TestCompositionLaws:
    @given(random_diagram(), random_diagram(), random_diagram())
    @settings(max_examples=60, deadline=None)
    def test_associativity_with_loop_additivity(self, a, b, c):
        ab, l1 = compose(a, b)
        ab_c, l2 = compose(ab, c)
        bc, l3 = compose(b, c)
        a_bc, l4 = compose(a, bc)
        assert ab_c == a_bc
        assert l1 + l2 == l3 + l4

    @given(stackable_pair())
    @settings(max_examples=300, deadline=None)
    def test_compose_matches_graph_walk(self, pair):
        assert compose(*pair) == compose_by_graph(*pair)

    @given(random_diagram())
    def test_flip_involution(self, d):
        assert flip(flip(d)) == d

    @given(random_diagram(), random_diagram())
    @settings(max_examples=60, deadline=None)
    def test_flip_antihomomorphism(self, a, b):
        ab, l1 = compose(a, b)
        ba, l2 = compose(flip(b), flip(a))
        assert ba == flip(ab)
        assert l1 == l2

    def test_propagating_count_subadditive(self):
        a = PairPartition(4, 2, [(1, 2), (3, -1), (4, -2)])
        b = flip(PairPartition(4, 2, [(3, 4), (1, -1), (2, -2)]))
        r, _ = compose(b, a)
        assert r.propagating_count() <= min(a.propagating_count(),
                                            b.propagating_count())


class TestClosureBases:
    def test_chain_counts_are_catalan(self):
        for n in range(1, 7):
            assert len(basis_by_closure(-1, n)) == catalan(n)

    def test_unbounded_counts_are_double_factorials(self):
        for n in range(1, 5):
            assert len(basis_by_closure(n - 2, n)) == double_factorial(2 * n - 1)

    def test_intermediate_counts_monotone(self):
        n = 5
        sizes = [len(basis_by_closure(l, n)) for l in range(-1, n - 1)]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) > 2

    def test_brauer_enumeration_matches_closure(self):
        assert set(brauer_basis(3, 3)) == set(basis_by_closure(1, 3))


class TestHalfBases:
    def test_full_propagating_is_identity(self):
        assert half_basis(0, 4, 4) == ((0, -1, -2, -3, -4),)

    def test_counts(self):
        # closed-form checks against walk counts done in test_rollet; the
        # values here pin the enumeration itself
        assert len(half_basis(0, 6, 0)) == 11
        assert len(half_basis(0, 6, 2)) == 16
        assert len(half_basis(0, 7, 1)) == 43
        assert len(half_basis(-1, 6, 0)) == 5  # Catalan(3)

    def test_half_normalize(self):
        w = PairPartition(4, 2, [(1, 2), (3, -2), (4, -1)])
        u, image = half_normalize(w)
        assert image == (2, 1)
        assert u.pairs == ((-2, 4), (-1, 3), (1, 2))

    def test_one_cup_basis_order(self):
        idx = one_cup_index(1, 5)
        assert idx == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5))
        basis = one_cup_basis(1, 5)
        assert len(basis) == len(idx)
        assert basis[0] == (0, 2, 1, -1, -2, -3)

    def test_u_cup_is_the_reference(self):
        at = one_cup_index(1, 5).index((2, 4))
        assert one_cup_basis(1, 5)[at] == partners(U24) == (0, -1, 4, -2, 2, -3)

    def test_one_cup_cups_follow_the_rule(self):
        """The cups of the closure are the adjacent cups (j, j+1) and every
        (j, k) with 3 <= k <= min(n, l+3) and j <= k-2, in (j, k) order."""
        for l, n in itertools.product(range(-1, 6), range(2, 12)):
            rule = sorted({(j, j + 1) for j in range(1, n)}
                          | {(j, k) for k in range(3, min(n, l + 3) + 1) for j in range(1, k - 1)})
            assert one_cup_index(l, n) == tuple(rule), (l, n)
            assert [[(j, k) for j, k in enumerate(u) if j < k] for u in one_cup_basis(l, n)] == [
                [cup] for cup in rule], (l, n)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_one_cup_needs_two_strands(self, n):
        with pytest.raises(ValueError):
            one_cup_basis(0, n)

    def test_generators_height(self):
        # s_2 is reachable at l=1 but not l=0
        s2 = s_gen(2, 4)
        assert s2 in basis_by_closure(1, 4)
        assert s2 not in basis_by_closure(0, 4)

    @pytest.mark.parametrize("n, p, match", [(3, 5, "need 0 <= p <= n"),
                                             (4, -2, "need 0 <= p <= n"),
                                             (4, 1, "parity violation"),
                                             (5, 6, "need 0 <= p <= n")])
    def test_range_and_parity_are_told_apart(self, n, p, match):
        with pytest.raises(ValueError, match=match):
            half_basis(0, n, p)

    def test_permute_renumbers_the_slots(self):
        """s_1 on two lines and a cup: the lines cross, and renumbering the
        slots left to right leaves sigma = s_1 on the outputs."""
        assert permute((0, -1, -2, 4, 3), (2, 1)) == ((0, -1, -2, 4, 3), (2, 1))
        assert permute((0, 3, -1, 1, -2), (1, 2, 4, 3)) == ((0, 4, -1, -2, 1), (1, 2))


def hashed(lines) -> tuple[int, str]:
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestAgainstTheReference:
    """The partner-tuple rewrites against the products of generator
    diagrams, and the bases pinned by sha256 over their top partners."""

    def test_bases_are_pinned(self):
        lines = [f"{l} {n} {p} {[u[1:] for u in half_basis(l, n, p)]}"
                 for l in range(-1, 5) for n in range(10) for p in range(n % 2, n + 1, 2)]
        assert hashed(lines) == (
            180, "8df5f2efed72515bc6f78befdd1833ddf1daaacfead66dc09b16d1ba0da71d54")
        lines = [f"{l} {n} {[u[1:] for u in one_cup_basis(l, n)]}"
                 for l in range(-1, 5) for n in range(2, 10)]
        assert hashed(lines) == (
            48, "211f511f4b0edacda798ac2d9b03a7bb79228dc91dfe8be185b7cba19abbb356")

    @pytest.mark.parametrize("l", range(-1, 5))
    def test_half_basis_is_the_closure(self, l):
        for n in range(10):
            for p in range(n % 2, n + 1, 2):
                assert half_basis(l, n, p) == tuple(
                    partners(d) for d in half_basis_by_closure(l, n, p)), (l, n, p)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cup_matches_composition(self, n):
        """e_i u, its loop dropped, is the product of e_gen(i) on u split by
        half_normalize, or None when the product loses a line."""
        for l in range(-1, 4):
            for p in range(n % 2, n - 1, 2):
                for d in half_basis_by_closure(l, n, p):
                    for i in range(1, n):
                        w, _ = compose(e_gen(i, n), d)
                        want = (partners(half_normalize(w)[0])
                                if w.propagating_count() == p else None)
                        assert _cup(partners(d), i) == want, (d, i)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_permute_matches_composition(self, n):
        for l in range(0, 4):
            for p in range(n % 2, n + 1, 2):
                r = min(p, l + 2)
                for d in half_basis_by_closure(l, n, p) if r >= 2 else ():
                    for s in all_permutations(r):
                        assert permute(partners(d), s) == permute_by_composition(d, s), (d, s)
