"""Gram matrices of standard modules: printed determinants, one-cup
factorisations, the mixed-rank recursion, and form contravariance."""

import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kadaryu import exactmath, gram, symmetric
from kadaryu.cheby import u_expansion
from kadaryu.diagrams import one_cup_index, pairings
from kadaryu.exactmath import Polynomial, PolyMatrix, Q, QuotElem
from kadaryu.gram import (GramInstance, ModuleLabel, act, factor_one_cup, gram_matrix,
                          gram_mixed_det, one_cup_det)
from kadaryu.symmetric import (all_permutations, hook_dimension, left_action_matrix, mul,
                               partitions, specht_frame, specht_gram)
from oracles import (GroupAlgebraElement, algebra_action, apply_dense, det_poly,
                     from_cycles, gram_by_sandwich, gram_mixed, labels, pair_halves,
                     reference_half, sandwich_sigma_table)

x = Polynomial.x()


def prod(*factors):
    out = Polynomial.one()
    for f in factors:
        out = out * f
    return out


def corrupt_charpoly(monkeypatch):
    """Add 1 to the constant term of every modular charpoly."""
    charpoly = exactmath._charpoly_mod

    def corrupt(c, modulus):
        coeffs = charpoly(c, modulus)
        coeffs[0] = (coeffs[0] + 1) % modulus
        return coeffs

    monkeypatch.setattr(exactmath, "_charpoly_mod", corrupt)


@pytest.fixture
def corrupt_solve(monkeypatch):
    """A switch after which the first exact division of a coordinate table
    returns its quotient plus 1: the first coordinate of the first
    translate in the next solve (a table already cached stays as it is);
    the cached tables and actions are dropped afterwards."""
    bumps = [1]

    def corrupt(n, den):
        q, rem = divmod(n, den)
        return q + (bumps.pop() if bumps else 0), rem

    yield lambda: monkeypatch.setattr(symmetric, "divmod", corrupt, raising=False)
    monkeypatch.undo()
    symmetric._coordinates.cache_clear()
    gram._moves.cache_clear()


# the hand-checked one-cup determinants, indexed (l, n, lam)
ONE_CUP_DETS = {
    (0, 4, (2,)): prod(x - 1, x, x * x + x - 4),
    (0, 5, (2,)): prod(x - 1, x ** 4 + x ** 3 - 5 * x * x - x + 2),
    (0, 4, (1, 1)): prod(x - 2, x - 1, x + 1, x + 2),
    (0, 5, (1, 1)): prod(x - 1, x + 2, x ** 3 - x * x - 3 * x + 1),
    (1, 5, (3,)): prod((x - 2) ** 2, x * x, x + 1, x * x + 3 * x - 6),
    (1, 6, (3,)): prod((x - 2) ** 2, x ** 3, x ** 3 + 4 * x * x - 4 * x - 10),
    (1, 5, (1, 1, 1)): prod(x - 3, (x - 2) ** 2, x + 1, (x + 2) ** 3),
    (1, 6, (1, 1, 1)): prod((x - 2) ** 2, (x + 2) ** 3,
                            x ** 3 - 2 * x * x - 4 * x + 2),
    (1, 5, (2, 1)): prod((x - 2) ** 3, x, x + 2, x + 4,
                         (x ** 4 - 7 * x * x + 3) ** 2),
    (1, 6, (2, 1)): prod((x - 2) ** 3, x, x + 2, x + 4,
                         ((x - 1) * x * (x + 1) * (x * x - 7)) ** 2),
}


@pytest.mark.parametrize("key", sorted(ONE_CUP_DETS, key=repr))
def test_one_cup_determinants(key):
    l, n, lam = key
    assert one_cup_det(l, n, lam) == ONE_CUP_DETS[key]


# the common factors and series anchors split off by factor_one_cup
COMMON_FACTORS = {
    (0, (2,)): x - 1,
    (0, (1, 1)): prod(x - 1, x + 2),
    (1, (3,)): prod((x - 2) ** 2, x * x),
    (1, (1, 1, 1)): prod((x - 2) ** 2, (x + 2) ** 3),
    (1, (2, 1)): prod((x - 2) ** 3, x, x + 2, x + 4),
}

# hand-checked U-basis expansions of the series factors (offset from rank n)
U_EXPANSIONS = {
    (0, (2,)): {0: 1, -1: 1, -2: -2, -3: 1, -4: -1},
    (1, (3,)): {-1: 1, -2: 4, -3: -1, -4: -2, -5: -2},
    (1, (1, 1, 1)): {-2: 1, -3: -2, -4: -2},
    (1, (2, 1)): {0: 1, -2: -4, -4: -4, -6: -2},
}


@pytest.mark.parametrize("key", sorted(COMMON_FACTORS, key=repr))
def test_factorisation(key):
    l, lam = key
    c, series = factor_one_cup(l, lam)
    assert c == COMMON_FACTORS[key]
    n0 = l + 4
    d = hook_dimension(lam)
    assert ONE_CUP_DETS[(l, n0, lam)] == c * series.term(n0) ** d
    assert ONE_CUP_DETS[(l, n0 + 1, lam)] == c * series.term(n0 + 1) ** d


@pytest.mark.parametrize("key", sorted(U_EXPANSIONS, key=repr))
def test_u_expansions(key):
    l, lam = key
    _c, series = factor_one_cup(l, lam)
    coeffs = u_expansion(series)
    # re-index: the table stores offsets k so that P_n = sum a_k P^U_{n+k}
    got = {k - series.anchor: v for k, v in coeffs.items() if v}
    want = {k: Q(v) for k, v in U_EXPANSIONS[key].items()}
    # padding entries (leading/trailing markers) may differ; compare support
    assert {k: v for k, v in got.items() if v} == want


def test_series_predicts_next_rank():
    """The two-anchor series reproduces the directly computed determinant
    one rank beyond its anchors."""
    for l, lam in [(0, (2,)), (0, (1, 1))]:
        c, series = factor_one_cup(l, lam)
        d = hook_dimension(lam)
        assert one_cup_det(l, l + 6, lam) == c * series.term(l + 6) ** d


def test_p21_rank7():
    _c, series = factor_one_cup(1, (2, 1))
    assert series.term(7) == x ** 6 - 9 * x ** 4 + 14 * x * x - 3


def test_factorisation_refuses_a_partition_of_another_size():
    with pytest.raises(ValueError, match=r"lambda must be a partition of l\+2"):
        factor_one_cup(1, (2,))


class TestGramStructure:
    def test_dimension_is_product(self):
        label = ModuleLabel(1, 5, 3, (2, 1))
        inst = gram_matrix(label)
        assert inst.dim == 14
        assert inst.dim == hook_dimension((2, 1)) * len(inst.half)

    def test_symmetric(self):
        for label in [ModuleLabel(0, 4, 2, (2,)), ModuleLabel(1, 5, 3, (2, 1)),
                      ModuleLabel(0, 6, 2, (2,))]:
            g = gram_matrix(label).matrix
            assert g.rows == g.cols
            assert all(g[i, j] == g[j, i] for i in range(g.rows) for j in range(i))

    def test_cell_quotient_zeroes(self):
        """Pairs composing below the propagating count contribute 0."""
        label = ModuleLabel(-1, 4, 2, (1,))
        m = gram_matrix(label).matrix
        # (n=4, p=2) chain: 3 half diagrams, adjacent-cup overlap pattern
        assert m.rows == 3
        diag = [m[i, i] for i in range(3)]
        assert all(p == x for p in diag)

    def test_cup_rows(self):
        """u_cup b_k sits at k times the number of half diagrams plus the
        cup's place in the (j, k) order; a module without exactly one cup
        has no cup rows."""
        inst = gram_matrix(ModuleLabel(1, 5, 3, (2, 1)))
        rows = [inst.cup_row(k, jk) for k in range(inst.d) for jk in one_cup_index(1, 5)]
        assert rows == list(range(inst.dim))
        for label in [ModuleLabel(1, 6, 2, (2,)), ModuleLabel(1, 3, 3, (2, 1))]:
            with pytest.raises(ValueError, match="not a one-cup module"):
                gram_matrix(label).cup_row(0, (1, 2))

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValueError):
            ModuleLabel(0, 4, 3, (2,))  # parity
        with pytest.raises(ValueError):
            ModuleLabel(0, 4, 2, (3,))  # wrong partition size
        with pytest.raises(ValueError):
            ModuleLabel(-2, 4, 2, (2,))

    def test_list_partition_is_a_tuple(self):
        """A label built with a list lam, as the library API allows, is the
        tuple label and takes the same determinant."""
        label = ModuleLabel(1, 5, 3, [2, 1])
        assert label == ModuleLabel(1, 5, 3, (2, 1)) and type(label.lam) is tuple
        assert gram.gram_det(label) == gram.gram_det(ModuleLabel(1, 5, 3, (2, 1)))


# (label, r): modules and the S_r acting on their first r strands; the
# last two are truncated, S_2 on the target (1,) and S_3 on a p = 2 module
ACTED = [(ModuleLabel(0, 4, 2, (2,)), 2), (ModuleLabel(0, 4, 2, (1, 1)), 2),
         (ModuleLabel(1, 5, 3, (2, 1)), 3), (ModuleLabel(1, 5, 1, (1,)), 3),
         (ModuleLabel(0, 3, 1, (1,)), 2), (ModuleLabel(1, 4, 2, (1, 1)), 3)]

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
MODULUS = x * x - x - 1


def transpositions(label):
    """s_j in S_{l+2} for the j the height-l generators reach."""
    return [from_cycles(label.l + 2, (j, j + 1))
            for j in range(1, min(label.l + 1, label.n - 1) + 1)]


def act_matrix(label, terms):
    """A with columns act(label, terms, e_j)."""
    size = gram_matrix(label).dim
    cols = [act(label, terms, [Q(int(i == j)) for i in range(size)]) for j in range(size)]
    return [list(row) for row in zip(*cols)]


@st.composite
def acted(draw):
    """(label, r, terms, vec): a random element of Q S_r and a vector of
    Fractions, Polynomials or elements of Q[a]/(a^2 - a - 1), many of them
    zero."""
    label, r = draw(st.sampled_from(ACTED))
    perms = all_permutations(r)
    terms = draw(st.dictionaries(st.sampled_from(perms), rationals, max_size=len(perms)))
    kind = draw(st.sampled_from(["fraction", "polynomial", "quotient"]))
    size = gram_matrix(label).dim
    entries = st.just(Q(0)) | rationals
    if kind == "fraction":
        vec = draw(st.lists(entries, min_size=size, max_size=size))
    else:
        vec = [Polynomial(cs) for cs in draw(st.lists(st.lists(entries, max_size=3),
                                                      min_size=size, max_size=size))]
        if kind == "quotient":
            vec = [QuotElem(MODULUS, p) for p in vec]
    return label, r, terms, vec


class TestAction:
    @pytest.mark.parametrize("label", [label for label, _r in ACTED[:3]])
    def test_contravariance(self, label):
        """<s v, w> = <v, s* w> with s* = s^-1 = s for a transposition."""
        G = gram_matrix(label).matrix
        size = G.rows
        for s in transpositions(label):
            A = act_matrix(label, {s: 1})
            lhs = [[sum((G[k, jj] * A[k][i] for k in range(size)), Polynomial())
                    for jj in range(size)] for i in range(size)]
            rhs = [[sum((G[i, k] * A[k][jj] for k in range(size)), Polynomial())
                    for jj in range(size)] for i in range(size)]
            assert lhs == rhs

    def test_action_composes(self):
        label = ModuleLabel(1, 5, 3, (2, 1))
        s1, s2 = transpositions(label)
        A1, A2 = act_matrix(label, {s1: 1}), act_matrix(label, {s2: 1})
        size = len(A1)
        comp = [[sum(A1[i][k] * A2[k][j] for k in range(size))
                 for j in range(size)] for i in range(size)]
        assert comp == act_matrix(label, {mul(s1, s2): 1})

    def test_corrupted_solve_raises_at_the_first_act(self, corrupt_solve):
        """act reads A(sigma) off the coordinate table, which is checked
        against S a = m(t) where it is solved: a corrupted solve is refused
        at the first read, with no linearisation built first."""
        label = ModuleLabel(3, 7, 5, (3, 2))
        symmetric._coordinates.cache_clear()
        gram._moves.cache_clear()
        corrupt_solve()
        with pytest.raises(RuntimeError, match=r"S A\(sigma\) != M\(sigma\)"):
            act(label, {transpositions(label)[0]: 1}, [Q(1)] * gram_matrix(label).dim)

    def test_moves_are_pinned(self):
        """(b, A(sigma)) of every s u_a, for every module with r >= 2 at
        l <= 3, n <= 8, pinned by sha256 over their printed forms."""
        lines = [f"{l} {n} {p} {lam} {s} {gram._moves(ModuleLabel(l, n, p, lam), s)}"
                 for l in range(4) for n in range(2, 9) for p in range(n % 2, n + 1, 2)
                 if min(p, l + 2) >= 2
                 for lam in partitions(min(p, l + 2)) for s in all_permutations(min(p, l + 2))]
        assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == (
            6916, "f4293596f295c236116b9af395ec18e464eeec7d2c9b41c429e9d04162b88d49")

    @given(acted())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle(self, case):
        label, r, terms, vec = case
        dense = algebra_action(label, GroupAlgebraElement(r, terms))
        assert act(label, terms, vec) == apply_dense(dense, vec)

    @given(acted(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_product_acts_as_composite(self, case, data):
        """act({s t: 1}, v) = act({s: 1}, act({t: 1}, v)): niceelt_check
        applies x_k C to xi as x_k after C."""
        label, r, _terms, vec = case
        s, t = data.draw(st.tuples(*[st.sampled_from(all_permutations(r))] * 2))
        assert act(label, {mul(s, t): 1}, vec) == act(label, {s: 1}, act(label, {t: 1}, vec))


class TestMixedRanks:
    def test_equal_tuple_matches_one_cup(self):
        """At equal ranks the minor is the whole of a I + R, which is
        similar to A~ = a I + B_0, so both determinants are one polynomial."""
        for l, lam, n in [(1, (2, 1), 5), (2, (3, 1), 6), (2, (2, 1, 1), 6), (2, (2, 2), 7)]:
            assert gram_mixed_det(l, lam, (n,) * hook_dimension(lam)) == one_cup_det(l, n, lam)

    def test_three_term_recursion(self):
        """Growing one component by two ranks satisfies the same recursion
        as the one-cup determinants."""
        for base in [(5, 5), (5, 6), (6, 5)]:
            n1, n2 = base
            for k in range(2):
                up1 = (n1 + (1 - k), n2 + k)
                up2 = (n1 + 2 * (1 - k), n2 + 2 * k)
                if max(up2) > 7:
                    continue
                d0 = gram_mixed_det(1, (2, 1), base)
                d1 = gram_mixed_det(1, (2, 1), up1)
                d2 = gram_mixed_det(1, (2, 1), up2)
                assert d2 == x * d1 - d0

    @pytest.mark.parametrize("l, lam, n_tuple", [
        (1, (2, 1), (5, 5)), (1, (2, 1), (5, 6)), (1, (2, 1), (6, 5)),
        (1, (2, 1), (7, 6)), (2, (3, 1), (6, 6, 7)), (2, (2, 2), (6, 7)),
        (2, (2, 1, 1), (6, 7, 6)),
        pytest.param(3, (4, 1), (7, 8, 7, 8), marks=pytest.mark.slow),
        pytest.param(3, (3, 1, 1), (7, 7, 7, 8, 8, 8), marks=pytest.mark.slow),
        (1, (2, 1), (7, 5)), (1, (2, 1), (5, 7)), (2, (3, 1), (7, 6, 6)),
        (2, (2, 2), (8, 6)), (0, (2,), (6,)), (0, (1, 1), (5,)), (-1, (1,), (5,)),
        pytest.param(3, (3, 2), (7, 8, 7, 8, 7), marks=pytest.mark.slow)])
    def test_matches_det_poly(self, l, lam, n_tuple):
        """The companion determinant is det(gram_mixed) over prod norms^h,
        also for d = 1 and for ranks falling along the frame."""
        norms = specht_frame(lam)[2]
        scale = Q(1)
        for k, nk in enumerate(n_tuple):
            scale *= norms[k] ** len(one_cup_index(l, nk))
        assert gram_mixed_det(l, lam, n_tuple) == det_poly(gram_mixed(l, lam, n_tuple)) * (1 / scale)

    def test_failed_check_raises(self, monkeypatch):
        corrupt_charpoly(monkeypatch)
        with pytest.raises(RuntimeError, match="determinant check failed"):
            gram_mixed_det(1, (2, 1), (5, 6))

    @pytest.mark.parametrize("bend", [
        lambda cols, norms: ([(c[0] + (k == 1), *c[1:]) for k, c in enumerate(cols)], norms),
        lambda cols, norms: (cols, [norms[0] * 2, *norms[1:]])],
        ids=["T off the diagonal", "a norm doubled"])
    def test_bent_frame_raises(self, monkeypatch, bend):
        """A Gram-Schmidt pass bent to T^t S T != diag(norms), by the entry
        of the integer column c_1 above the diagonal or by a norm, fails
        the frame's certificate, so it reaches neither a coordinate table
        nor a determinant."""
        gram_schmidt = symmetric._gram_schmidt

        def bent(lam):
            xs, cols, norms, Y = gram_schmidt(lam)
            return (xs, *bend(cols, norms), Y)

        monkeypatch.setattr(symmetric, "_gram_schmidt", bent)
        symmetric.specht_frame.cache_clear()
        symmetric._coordinates.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="not orthogonal"):
                gram_mixed_det(1, (2, 1), (5, 6))
            with pytest.raises(RuntimeError, match="not orthogonal"):
                symmetric._coordinates((2, 1))
        finally:
            monkeypatch.undo()
            symmetric.specht_frame.cache_clear()
            symmetric._coordinates.cache_clear()

    def test_denominators_are_cleared(self, monkeypatch):
        """B_0 is an integer matrix, so the denominators of
        R = (T^-1 (x) I) B_0 (T (x) I) come from the frame T alone, and
        gram_mixed_det clears them before the core: L = 4 for (2, 1) and
        L = 36 for (3, 1), and the core sees the integer B = L R."""
        dens, tails = [], []
        clear, core = gram.clear_denominators, gram.det_monic_companion

        def spy_clear(rows):
            ints, den = clear(rows)
            dens.append(den)
            return ints, den

        monkeypatch.setattr(gram, "clear_denominators", spy_clear)
        monkeypatch.setattr(gram, "det_monic_companion",
                            lambda tail: tails.append(tail) or core(tail))
        gram_mixed_det(1, (2, 1), (5, 6))
        gram_mixed_det(2, (3, 1), (6, 6, 7))
        assert dens == [4, 36]
        assert all(type(v) is int for tail in tails for row in tail for v in row)


def sigma_table(lam, sigma):
    """M(sigma) = S A(sigma)."""
    A = left_action_matrix(lam, sigma)
    return tuple(tuple(sum(g * a for g, a in zip(row, col)) for col in zip(*A))
                 for row in specht_gram(lam))


class TestSigmaTables:
    @pytest.mark.parametrize("lam", [lam for r in range(1, 5) for lam in partitions(r)])
    def test_matches_sandwich_oracle(self, lam):
        for sigma in all_permutations(sum(lam)):
            assert sigma_table(lam, sigma) == sandwich_sigma_table(lam, sigma), sigma

    @pytest.mark.slow
    @pytest.mark.parametrize("lam", [(4, 1), (3, 1, 1)])
    def test_matches_sandwich_oracle_r5(self, lam):
        for sigma in [(2, 1, 3, 4, 5), from_cycles(5, (1, 3, 5)), (5, 4, 3, 2, 1)]:
            assert sigma_table(lam, sigma) == sandwich_sigma_table(lam, sigma), sigma


class TestPairingTable:
    @pytest.mark.parametrize("n", [*range(8), pytest.param(8, marks=pytest.mark.slow)])
    def test_matches_composition(self, n):
        """(loops, sigma) for every pair of half diagrams at l = -1..3, read
        off diagrams.pairings with the residual restricted to 1..r by
        gram._residual, equals the pairing read off compose(flip(u), v) on
        the reference diagrams of the same partner tuples; it depends on lam
        only through r."""
        for l in range(-1, 4):
            for p in range(n % 2, n + 1, 2):
                label = ModuleLabel(l, n, p, partitions(min(p, l + 2))[0])
                half, ref = GramInstance(label).half, reference_half(label)
                got = [[pair and (pair[0], gram._residual(pair[1], label.r))
                        for pair in pairings(half, u)] for u in half]
                assert got == [[pair_halves(u, v, p, label.r) for v in ref]
                               for u in ref], label


# labels the other tests and the workloads reach beyond rank 6
REACHED = [*(ModuleLabel(3, 7, 5, lam) for lam in partitions(5)),
           ModuleLabel(-1, 8, 0, ()), ModuleLabel(-1, 8, 2, (1,)),
           ModuleLabel(-1, 9, 1, (1,)), ModuleLabel(0, 7, 3, (2,)),
           ModuleLabel(3, 8, 6, (5,)), ModuleLabel(4, 8, 6, (6,)),
           ModuleLabel(4, 8, 6, (1,) * 6), ModuleLabel(4, 9, 7, (6,))]


class TestDetMonic:
    @pytest.mark.parametrize("label", labels(range(-1, 4), range(7)) + REACHED,
                             ids=lambda lab: lab.key())
    def test_matches_det_poly(self, label):
        inst = GramInstance(label)
        assert inst.det_monic == det_poly(inst.matrix).monic()

    @pytest.mark.slow
    @pytest.mark.parametrize("label", labels(range(-1, 4), (7, 8), max_dim=100),
                             ids=lambda lab: lab.key())
    def test_matches_det_poly_slow(self, label):
        inst = GramInstance(label)
        assert inst.det_monic == det_poly(inst.matrix).monic()

    @pytest.mark.parametrize("label", [ModuleLabel(1, 5, 3, (2, 1)),
                                       ModuleLabel(2, 6, 4, (3, 1)),
                                       pytest.param(ModuleLabel(1, 7, 3, (2, 1)),
                                                    marks=pytest.mark.slow)])
    def test_non_integral_action_raises(self, monkeypatch, label):
        """Doubling the norms N past the frame's certificate halves
        S^-1 = T N^-1 T^t and so every coordinate a of the table: the
        identity's coordinates (1/2, 0, .., 0) are not integral, and the
        table is refused before the linearisation places any A(sigma)."""
        frame = symmetric.specht_frame
        monkeypatch.setattr(symmetric, "specht_frame", lambda lam: (
            *frame(lam)[:2], tuple(2 * nk for nk in frame(lam)[2]), frame(lam)[3]))
        symmetric._coordinates.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="not integral"):
                GramInstance(label).det_monic
        finally:
            symmetric._coordinates.cache_clear()

    def test_failed_check_raises(self, monkeypatch):
        corrupt_charpoly(monkeypatch)
        with pytest.raises(RuntimeError, match="determinant check failed"):
            GramInstance(ModuleLabel(1, 5, 3, (2, 1))).det_monic

    def test_action_not_matching_the_pairing_raises(self, corrupt_solve):
        """A table with one coordinate bumped after its exact division breaks
        S A(sigma) = M(sigma), and the coordinate table refuses it before
        the linearisation places it."""
        symmetric._coordinates.cache_clear()
        corrupt_solve()
        with pytest.raises(RuntimeError, match=r"S A\(sigma\) != M\(sigma\)"):
            GramInstance(ModuleLabel(1, 5, 3, (2, 1))).det_monic

    @pytest.mark.parametrize("label", [ModuleLabel(1, 5, 3, (2, 1)), ModuleLabel(-1, 6, 0, ()),
                                       ModuleLabel(2, 6, 2, (2,)), ModuleLabel(2, 6, 4, (3, 1)),
                                       ModuleLabel(-1, 8, 2, (1,)), ModuleLabel(2, 6, 4, (2, 2)),
                                       ModuleLabel(1, 4, 4, (2, 1))],
                             ids=lambda lab: lab.key())
    def test_gram_is_s_times_linearisation(self, label):
        """The Gram matrix read off composed half diagrams and group-algebra
        products (oracles.gram_by_sandwich) is (S (x) I) A~ entry by entry,
        as polynomials, A~ read as the pencil at the variable, and it is the
        matrix printed; the modules have 0, 1, 2 and 3 cups."""
        inst = GramInstance(label)
        G = gram_by_sandwich(label).entries
        nhalf, S = len(inst.half), specht_gram(label.lam)
        lin = inst.pencil(x, range(inst.dim))
        for i in range(inst.d):
            for a in range(nhalf):
                want = [sum((lin[k * nhalf + a].get(c, 0) * S[i][k] for k in range(inst.d)),
                            Polynomial()) for c in range(inst.dim)]
                assert G[i * nhalf + a] == want, (i, a)
        assert inst.matrix.entries == G

    @pytest.mark.parametrize("label", [ModuleLabel(0, 4, 2, (2,)), ModuleLabel(1, 5, 3, (2, 1)),
                                       ModuleLabel(2, 6, 4, (3, 1)), ModuleLabel(2, 6, 4, (2, 2))],
                             ids=lambda lab: lab.key())
    def test_pencil_is_the_gram_matrix_over_s(self, label):
        """sum_m S[i][m] (row (m, a) of the pencil at the variable) is the
        printed Gram row (i, a): G = (S (x) I) A~, the pencil asked for the
        d rows of one half diagram at a time."""
        inst = GramInstance(label)
        nhalf, S = len(inst.half), specht_gram(label.lam)
        for a in range(nhalf):
            rows = inst.pencil(x, [m * nhalf + a for m in range(inst.d)])
            for i in range(inst.d):
                want = [sum((row.get(c, 0) * s for row, s in zip(rows, S[i])), Polynomial())
                        for c in range(inst.dim)]
                assert inst.matrix.entries[i * nhalf + a] == want, (i, a)

    def test_is_the_gram_determinant_over_det_s(self):
        """det G = det(S)^h det_monic, h the number of half diagrams."""
        label = ModuleLabel(1, 5, 3, (2, 1))
        inst = GramInstance(label)
        specht = det_poly(PolyMatrix([[Polynomial.const(v) for v in row]
                                      for row in specht_gram(label.lam)]))
        assert det_poly(inst.matrix) == specht ** len(inst.half) * inst.det_monic


def test_readme_library_snippets():
    """The two Library code blocks of README.md run as printed and hold
    what they state: (1,5,3,(2,1)) is 14x14 with a determinant of degree
    14, and (0,6,2,(2,)) at a = 1 is 16-dimensional with a 7-vector
    radical."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    first, second = {}, {}
    exec(blocks[0], first)
    exec(blocks[1], second)
    assert gram_matrix(ModuleLabel(1, 5, 3, (2, 1))).dim == 14 and first["det"].degree == 14
    assert second["inst"].dim == 16 and len(second["radical"]) == 7
