"""The bootstrap vector: explicit small cases, the rank recursion,
divisibility by the series factor, and submodule certification."""

import json
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kadaryu import gram, morphisms
from kadaryu.cheby import ChebSeries
from kadaryu.diagrams import one_cup_index
from kadaryu.exactmath import (Polynomial, Q, field_kernel, field_rank, poly_content_removed,
                               poly_squarefree_part)
from kadaryu.gram import GramInstance, ModuleLabel, factor_one_cup, gram_matrix
from kadaryu.morphisms import (XiElement, divisibility_check, solve_xi, submodule_verify,
                               xi_report, xi_sequence, xi_step)
from kadaryu.roots import minimal_poly_2cos
from kadaryu.symmetric import identity, partitions, specht_gram

from oracles import (compute_d_by_gram_row, gram_radical, labels, solve_xi_by_cramer,
                     xi_uniqueness_by_gram_rows)

x = Polynomial.x()

FAMILIES = [(0, (2,)), (0, (1, 1)), (1, (3,)), (1, (2, 1)), (1, (1, 1, 1))]


def failed(rep: dict) -> list[str]:
    return [c["id"] for c in rep["claims"] if c["status"] == "fail"]


# the labels the Cramer solve was first checked on
CRAMER_LABELS = [(0, (2,), 4), (0, (1, 1), 4), (0, (2,), 5), (0, (1, 1), 5),
                 (1, (3,), 5), (1, (2, 1), 5), (1, (1, 1, 1), 5), (2, (4,), 6),
                 (2, (1, 1, 1, 1), 6), (2, (2, 2), 6),
                 pytest.param(2, (3, 1), 6, marks=pytest.mark.slow)]


# the Cramer labels below l = 2, every l = 2 partition at rank 6, and one
# l = 3 module of dimension 96
UNIQUENESS_LABELS = [*CRAMER_LABELS[:7], *((2, lam, 6) for lam in partitions(4)),
                     pytest.param(3, (3, 1, 1), 7, marks=pytest.mark.slow)]

# (l, lambda, n, alpha0, target) of the submodule certificates
SUBMODULE_CASES = [
    (0, (2,), 4, x * x + x - 4, None), (0, (2,), 3, 1, None), (0, (1, 1), 3, 1, None),
    (0, (1, 1), 4, 1, (2,)), (0, (2,), 4, 1, (1, 1)), (0, (2,), 2, 2, None),
    (1, (2, 1), 5, x ** 4 - 7 * x * x + 3, None), (0, (2,), 4, 7, None),
    (0, (2,), 5, Polynomial([2, -1, -5, 1, 1]), None),
    (2, (4,), 7, Polynomial([-6, -23, 1, 7, 1]), None)]


# (label, oracle): every module with l <= 1 and 1 <= n <= 6 against the Gram
# radical; in the slow tier the pencil alone on the others with l <= 2 and
# n <= 7, all but (2, 7, 3, (2, 1)) of dimension 178, whose 7 roots take two minutes
RADICAL_CASES = [*((lab, True) for lab in labels(range(-1, 2), range(1, 7))),
                 *(pytest.param(lab, False, marks=pytest.mark.slow)
                   for lab in labels(range(-1, 3), range(1, 8))
                   if (lab.l == 2 or lab.n == 7) and lab != ModuleLabel(2, 7, 3, (2, 1)))]


def integer_roots(p: Polynomial) -> list[int]:
    """The integer roots of a monic integer polynomial: 0 and the divisors
    of the lowest nonzero coefficient of its squarefree part, where that
    part vanishes."""
    sq = poly_squarefree_part(p)
    low = abs(next(c for c in sq.coeffs if c).numerator)
    divisors = {e for d in range(1, isqrt(low) + 1) if low % d == 0 for e in (d, low // d)}
    return sorted(r for r in {0, *divisors, *(-e for e in divisors)} if not sq(r))


def multiplicity(f: Polynomial, p: Polynomial) -> int:
    """The largest k with f^k dividing p."""
    k, (q, rem) = 0, p.divmod(f)
    while rem.is_zero():
        k, (q, rem) = k + 1, q.divmod(f)
    return k


def bump_tail_after_det(inst, _monkeypatch):
    """Keep the determinant, then change one entry of B_0."""
    assert inst.det_monic
    inst.linearisation[0][0] += 1


def replace_first_row_pair(monkeypatch, b, new):
    """Let diagrams.pairings, as gram.py calls it, give new(pair) in place
    of the pair of half diagrams 0 and b."""
    real = gram.pairings

    def moved(half, u):
        row = real(half, u)
        if u == half[0]:
            row[b] = new(row[b])
        return row

    monkeypatch.setattr(gram, "pairings", moved)


def close_every_cup_off_diagonal(inst, monkeypatch):
    """Let half diagrams 0 != 1 of a one-cup module close its cup."""
    replace_first_row_pair(monkeypatch, 1, lambda _pair: (1, identity(inst.label.r)))


def assert_proportional(got, want):
    """Equal up to one rational-function scalar: got[i] want[pivot] =
    got[pivot] want[i] for every i."""
    pivot = next(i for i, p in enumerate(want) if not p.is_zero())
    assert not got[pivot].is_zero()
    for g, w in zip(got, want):
        assert g * want[pivot] == got[pivot] * w


class TestExplicitSmallCases:
    def test_trivial_type_rank_four(self):
        xi = solve_xi(0, (2,), 4)
        assert xi.D == x ** 3 + x * x - 4 * x  # = x(x^2 + x - 4)
        _c, series = factor_one_cup(0, (2,))
        assert xi.D == series.term(4)

    def test_trivial_type_rank_five(self):
        xi = solve_xi(0, (2,), 5)
        assert one_cup_index(0, 5) == ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5))
        want = [Polynomial.const(2), -x, -x,
                (x - 1) * (x + 2), -x * (x * x + x - 4)]
        assert_proportional(list(xi.coeffs), want)
        assert xi.D == x ** 4 + x ** 3 - 5 * x * x - x + 2

    def test_sign_type_rank_four(self):
        xi = solve_xi(0, (1, 1), 4)
        want = [Polynomial(), Polynomial.one(), -Polynomial.one(), x - 1]
        assert_proportional(list(xi.coeffs), want)
        assert xi.D == (x - 2) * (x + 1)

    @pytest.mark.parametrize("l,lam", FAMILIES + [(2, (4,)), (2, (2, 2)), (2, (3, 1)),
                                                  (3, (5,)), (3, (1, 1, 1, 1, 1))])
    def test_defining_system(self, l, lam):
        """Gram . xi = D * v exactly in Q[a], v the first Specht Gram column
        on the last-cup rows; xi is primitive and D monic."""
        n = l + 4
        xi = solve_xi(l, lam, n)
        inst = gram_matrix(xi.label)
        G = specht_gram(lam)
        last = one_cup_index(l, n).index((n - 1, n))
        rhs = [Polynomial()] * inst.dim
        for m in range(inst.d):
            rhs[m * len(inst.half) + last] = xi.D * G[m][0]
        lhs = [sum((g * c for g, c in zip(row, xi.coeffs)), Polynomial())
               for row in inst.matrix.entries]
        assert lhs == rhs
        content, _prim = poly_content_removed(list(xi.coeffs))
        assert content == Polynomial.one()
        assert xi.D.is_monic()

    @pytest.mark.parametrize("l,lam,n", CRAMER_LABELS)
    def test_adjugate_matches_cramer(self, l, lam, n):
        assert solve_xi(l, lam, n) == solve_xi_by_cramer(l, lam, n)

    def test_one_determinant_per_module(self, monkeypatch):
        """A fresh label costs one companion determinant, for det_monic, and
        the Gram instance keeps that determinant."""
        calls = []
        core = gram.det_monic_companion

        def spy(tail):
            calls.append(len(tail))
            return core(tail)

        label = ModuleLabel(1, 5, 3, (2, 1))
        fresh = GramInstance(label)
        monkeypatch.setattr(gram, "det_monic_companion", spy)
        monkeypatch.setattr(morphisms, "gram_matrix", lambda lab: fresh)
        xi = solve_xi.__wrapped__(1, (2, 1), 5)
        assert calls == [fresh.dim]
        assert fresh.det_monic.is_monic()
        assert calls == [fresh.dim], "det_monic is kept on the instance"
        assert xi == solve_xi(1, (2, 1), 5)
        assert not hasattr(morphisms, "det_poly")

    @pytest.mark.parametrize("break_it,msg", [
        (lambda inst, _mp: inst.__dict__.update(det_monic=inst.det_monic + 1),
         "Cayley-Hamilton"),
        (bump_tail_after_det, "Cayley-Hamilton"),
        (close_every_cup_off_diagonal, "close every cup"),
    ])
    def test_internal_checks_raise(self, monkeypatch, break_it, msg):
        """A wrong characteristic polynomial, a linearisation corrupted after
        its determinant was kept, or two different half diagrams that close
        every cup each end in RuntimeError, never in a wrong xi."""
        fresh = GramInstance(ModuleLabel(0, 4, 2, (2,)))
        break_it(fresh, monkeypatch)
        monkeypatch.setattr(morphisms, "gram_matrix", lambda lab: fresh)
        with pytest.raises(RuntimeError, match=msg):
            solve_xi.__wrapped__(0, (2,), 4)

    @staticmethod
    def solve_with_residual(monkeypatch, image):
        """solve_xi(0, (2,), 5) with the residual image of the first pair of
        half diagrams replaced."""
        fresh = GramInstance(ModuleLabel(0, 5, 3, (2,)))
        replace_first_row_pair(monkeypatch, 0, lambda pair: (pair[0], image))
        monkeypatch.setattr(morphisms, "gram_matrix", lambda lab: fresh)
        solve_xi.__wrapped__(0, (2,), 5)

    def test_strand_beyond_r_raises(self, monkeypatch):
        """A residual permutation that moves a strand beyond r = 2 of the
        p = 3 lines is a closure bug, never data."""
        with pytest.raises(RuntimeError, match="height-closure violation"):
            self.solve_with_residual(monkeypatch, (1, 3, 2))

    def test_non_permutation_residual_raises(self, monkeypatch):
        """So is a residual image that is not a permutation: an engine
        fault (exit 4), not a usage error."""
        with pytest.raises(RuntimeError, match="is not a permutation"):
            self.solve_with_residual(monkeypatch, (1, 1, 3))

    def test_coeff_accessor(self):
        xi = solve_xi(0, (2,), 5)
        assert xi.coeff(0, (4, 5)) == xi.coeffs[-1]
        assert xi.coeff(0, (1, 2)) == xi.coeffs[0]


class TestRecursion:
    def test_step_matches_direct_solve(self):
        for l, lam in [(0, (2,)), (0, (1, 1))]:
            stepped = xi_step(solve_xi(l, lam, l + 4))
            direct = solve_xi(l, lam, l + 5)
            assert stepped.coeffs == direct.coeffs
            assert stepped.D == direct.D

    def test_step_places_only_the_last_cup_rows(self, monkeypatch):
        """D at a stepped rank is read off the d last-cup rows of A~, so a
        step to a rank no instance has placed walks the pairings of one
        half diagram, the last cup's, and not the whole module."""
        xi = solve_xi(1, (2, 1), 5)
        want = xi_step(xi)
        gram.gram_matrix.cache_clear()
        calls = []
        real = gram.pairings
        monkeypatch.setattr(gram, "pairings", lambda half, u: calls.append(u) or real(half, u))
        assert xi_step(xi) == want
        inst = gram_matrix(want.label)
        assert calls == [inst.half[inst.cup_row(0, (5, 6))]]

    def test_d_follows_series(self):
        """The cap scalars form a three-term series anchored at the first
        two ranks."""
        seq = xi_sequence(0, (2,), 9)
        s = ChebSeries(4, seq[0].D, seq[1].D)
        for xi in seq:
            assert xi.D == s.term(xi.n)

    def test_sequence_ranks(self):
        seq = xi_sequence(0, (1, 1), 7)
        assert [xi.n for xi in seq] == [4, 5, 6, 7]

    @pytest.mark.parametrize("l,lam", [(0, (2,)), (0, (1, 1))])
    def test_divisibility_l0(self, l, lam):
        rep = divisibility_check(l, lam, 7)
        assert rep["status"] == "pass", rep
        ids = [c["id"] for c in rep["claims"]]
        assert "step-matches-solve" in ids
        assert "series-divides-D-n7" in ids

    @pytest.mark.parametrize("lam", [(3,), (2, 1), (1, 1, 1)])
    def test_divisibility_l1(self, lam):
        assert divisibility_check(1, lam, 8)["status"] == "pass"

    @pytest.mark.parametrize("lam,n", [((4,), 8), ((2, 2), 7), ((1, 1, 1, 1), 8)])
    def test_divisibility_l2(self, lam, n):
        rep = divisibility_check(2, lam, n)
        assert rep["status"] == "pass", rep
        assert "step-matches-solve" in [c["id"] for c in rep["claims"]]

    @pytest.mark.parametrize("lam,n", [
        ((5,), 9), ((1, 1, 1, 1, 1), 9),
        *((lam, 8) for lam in [(4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)])])
    def test_divisibility_l3(self, lam, n):
        rep = divisibility_check(3, lam, n)
        assert rep["status"] == "pass", rep
        assert f"series-divides-D-n{n}" in [c["id"] for c in rep["claims"]]

    @pytest.mark.parametrize("lam", [
        (6,), (1, 1, 1, 1, 1, 1),
        *(pytest.param(lam, marks=pytest.mark.slow) for lam in [(5, 1), (2, 1, 1, 1, 1)])])
    def test_divisibility_l4(self, lam):
        rep = divisibility_check(4, lam, 9)
        assert rep["status"] == "pass", rep
        assert "series-divides-D-n9" in [c["id"] for c in rep["claims"]]

    def test_rank_below_anchor_refused(self):
        """Below rank l+4 there is no xi; the sequence must not fall back
        to the anchor rank and report on it."""
        with pytest.raises(ValueError, match="rank must be at least l\\+4"):
            xi_sequence(0, (2,), 3)
        with pytest.raises(ValueError):
            divisibility_check(0, (2,), 3)
        with pytest.raises(ValueError, match="rank must be at least l\\+4"):
            xi_report(0, (2,), 3)


class TestStructure:
    @pytest.mark.parametrize("l,lam", FAMILIES)
    def test_translate_support(self, l, lam):
        rep = xi_report(l, lam, l + 4)
        assert rep["status"] == "pass", rep
        ks = range(len(specht_gram(lam)))
        assert [c["id"] for c in rep["claims"]] == [
            "xi-unique", "projector-fixes-xi",
            *(f"{kind}-support-k{k}" for k in ks for kind in ("last-cup", "form"))]

    def test_perturbed_d_fails_form_support(self, monkeypatch):
        """A~ vec = D e_(k, last) is checked against D itself: a D
        off by one fails every form-support claim and nothing else."""
        xi = solve_xi(1, (2, 1), 5)
        monkeypatch.setattr(morphisms, "solve_xi",
                            lambda *args: XiElement(xi.label, xi.coeffs, xi.D + 1))
        assert failed(xi_report(1, (2, 1), 5)) == ["form-support-k0", "form-support-k1"]

    def test_projector_fixes(self):
        """At rank 5 the report's solved xi is the stepped one too."""
        for l, lam in [(0, (2,)), (1, (2, 1))]:
            rep = xi_report(l, lam, 5)
            assert rep["claims"][1] == {"id": "projector-fixes-xi", "status": "pass",
                                        "witness": None}
            assert xi_sequence(l, lam, 5)[-1].coeffs == solve_xi(l, lam, 5).coeffs

    @pytest.mark.parametrize("l,lam,n", [(0, (2,), 4), (0, (1, 1), 4),
                                         (0, (2,), 5), (1, (2, 1), 5), (3, (3, 1, 1), 7)])
    def test_uniqueness(self, l, lam, n):
        assert xi_report(l, lam, n)["status"] == "pass"


class TestOracles:
    """The linearisation against the Gram rows it replaced."""

    @pytest.mark.parametrize("l,lam,n", UNIQUENESS_LABELS)
    def test_uniqueness_matches_gram_rows(self, l, lam, n):
        rep = xi_report(l, lam, n)
        assert rep["status"] == "pass", rep
        assert rep["claims"][0]["id"] == "xi-unique"
        assert xi_uniqueness_by_gram_rows(l, lam, n) is True

    @pytest.mark.parametrize("perturb", [lambda cs: cs[:3] + [cs[3] + 1] + cs[4:],
                                         lambda cs: [Polynomial()] * len(cs)],
                             ids=["bumped", "zero"])
    def test_perturbed_xi_is_refused_by_both(self, monkeypatch, perturb):
        """A vector off the kernel, and the zero vector, which is in it; the
        report makes no claim about a vector that is not xi."""
        xi = solve_xi(1, (2, 1), 5)
        coeffs = perturb(list(xi.coeffs))
        monkeypatch.setattr(morphisms, "solve_xi",
                            lambda *args: XiElement(xi.label, tuple(coeffs), xi.D))
        rep = xi_report(1, (2, 1), 5)
        assert failed(rep) == [c["id"] for c in rep["claims"]] == ["xi-unique"]
        assert xi_uniqueness_by_gram_rows(1, (2, 1), 5) is False

    @pytest.mark.parametrize("l,lam,n,alpha0,target", SUBMODULE_CASES)
    def test_radical_matches_gram_kernel(self, monkeypatch, l, lam, n, alpha0, target):
        """The first kernel submodule_verify takes is the radical, exactly
        the basis the Gram matrix at alpha0 gives."""
        kernels = []

        def spy(rows):
            kernels.append(field_kernel(rows))
            return kernels[-1]

        monkeypatch.setattr(morphisms, "field_kernel", spy)
        submodule_verify(l, lam, n, alpha0, target=target)
        label = ModuleLabel(l, n, n - 2, target or morphisms._target_partition(l, n, lam))
        assert kernels[0] == gram_radical(label, alpha0)

    @pytest.mark.parametrize("label,oracle", RADICAL_CASES,
                             ids=lambda v: v.key() if isinstance(v, ModuleLabel)
                             else "gram" if v else "pencil")
    def test_radical_is_the_pencil_kernel(self, label, oracle):
        """The kernel of A~(a0) = a0^cups I + sum_k a0^k B_k, the radical of
        G(a0) as S is invertible, is nonzero exactly where det A~ vanishes
        and of dimension at most the multiplicity of a0 there: at every
        integer root, and at l = -1 at a0 = 2cos(pi/m), 2 <= m <= n, over
        Q[a]/(m).  With the oracle it is the kernel basis of G(a0) too."""
        inst = gram_matrix(label)
        det = inst.det_monic
        points = [(r, x - r) for r in integer_roots(det)]
        if label.l == -1 and label.cups:
            points += [(m, m) for m in (minimal_poly_2cos(1, k) for k in range(2, label.n + 1))]
        for alpha0, f in points:
            a0 = morphisms._field(alpha0)[0](x)
            ker = field_kernel([[row.get(j, 0) for j in range(inst.dim)]
                                for row in inst.pencil(a0, range(inst.dim))])
            k = multiplicity(f, det)
            assert bool(ker) == bool(k) and len(ker) <= k, (alpha0, len(ker), k)
            if oracle:
                assert ker == gram_radical(label, alpha0), alpha0

    @given(st.sampled_from([(0, (2,), 4), (0, (1, 1), 5), (1, (2, 1), 5), (2, (3, 1), 6)]),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_compute_d_matches_gram_row(self, case, data):
        """D read off the d last-cup rows of A~ is the Gram row of
        u_{n-1,n} b_1 times the vector, for any vector, not only xi."""
        l, lam, n = case
        label = ModuleLabel(l, n, n - 2, lam)
        dim = gram_matrix(label).dim
        coeff = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=3)
        coeffs = [Polynomial(cs) for cs in data.draw(st.lists(coeff, min_size=dim, max_size=dim))]
        assert morphisms._compute_d(label, coeffs) == compute_d_by_gram_row(label, coeffs)

    def test_reducible_modulus_fails_in_both(self):
        with pytest.raises(ZeroDivisionError):
            submodule_verify(0, (2,), 4, x * x - 1)
        with pytest.raises(ZeroDivisionError):
            gram_radical(ModuleLabel(0, 4, 2, (2,)), x * x - 1)


class TestSubmodules:
    def test_algebraic_value_rank_four(self):
        rep = submodule_verify(0, (2,), 4, x * x + x - 4)
        assert rep["status"] == "pass", rep
        by_id = {c["id"]: c for c in rep["claims"]}
        assert by_id["radical-nonzero"]["witness"]["rank_deficiency"] == 1
        assert "xi-in-radical" in by_id

    def test_parameter_one_rank_three(self):
        # the truncated target (1,(1)) has a 2-dimensional radical at 1
        for lam in [(2,), (1, 1)]:
            rep = submodule_verify(0, lam, 3, 1)
            assert rep["status"] == "pass", (lam, rep)
            by_id = {c["id"]: c for c in rep["claims"]}
            assert by_id["radical-nonzero"]["witness"]["rank_deficiency"] == 2

    def test_twisted_embeddings_at_one(self):
        """At parameter 1 and rank 4 each Specht type embeds into the module
        labelled by the other one."""
        assert submodule_verify(0, (1, 1), 4, 1, target=(2,))["status"] == "pass"
        assert submodule_verify(0, (2,), 4, 1, target=(1, 1))["status"] == "pass"

    def test_degree_four_value(self):
        rep = submodule_verify(1, (2, 1), 5, x ** 4 - 7 * x * x + 3)
        assert rep["status"] == "pass", rep
        by_id = {c["id"]: c for c in rep["claims"]}
        assert by_id["radical-nonzero"]["witness"]["rank_deficiency"] == 2
        assert by_id["radical-nonzero"]["witness"]["dim"] == 14
        assert by_id["translates-independent"]["witness"]["rank"] == 2

    def test_nonroot_value_fails_cleanly(self):
        rep = submodule_verify(0, (2,), 4, 7)
        assert rep["status"] == "fail"
        assert rep["claims"][0]["id"] == "parameter-annihilates-det"
        assert rep["claims"][0]["status"] == "fail"

    def test_reports_are_pinned(self):
        """The ten SUBMODULE_CASES reports, byte for byte as JSON."""
        path = Path(__file__).parent / "data" / "submodule_reports.json"
        for case, want in zip(SUBMODULE_CASES, json.loads(path.read_text()), strict=True):
            l, lam, n, alpha0, target = case
            assert json.dumps(submodule_verify(l, lam, n, alpha0, target=target)) == json.dumps(want)


def test_tridiagonal_pattern_at_one():
    """The k x k tridiagonal matrix with diagonal and off-diagonal 1 (the
    adjacent-cap action matrix at parameter 1) has rank deficiency 1
    exactly when 3 divides k + 1, the vanishing pattern of the normalised
    Chebyshev branch at 1, and is invertible otherwise."""
    for k in range(2, 13):
        m = [[Q(int(abs(i - j) <= 1)) for j in range(k)] for i in range(k)]
        assert k - field_rank(m) == (1 if (k + 1) % 3 == 0 else 0), k
