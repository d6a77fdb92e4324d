"""Branching graphs: walk-count dimensions, the chain-determinant oracle,
and the marginal-vertex / series identity on the arms."""

import importlib.util
import os
from pathlib import Path

import pytest

from kadaryu.cheby import quantum_number
from kadaryu.diagrams import half_basis
from kadaryu.exactmath import Polynomial, reduced
from kadaryu.gram import ModuleLabel, factor_one_cup, gram_det
from kadaryu.rollet import (RolletGraph, arm_verify, chebyshev_c, dimension,
                            edge, export_dot, export_json, marginal_v,
                            neighbours, tl_recursive_det)
from kadaryu.symmetric import hook_dimension, partitions

from oracles import tl_factored_det

x = Polynomial.x()
ROOT = Path(__file__).resolve().parent.parent


def load_checks():
    spec = importlib.util.spec_from_file_location("kybench_checks",
                                                  ROOT / "kybench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGraph:
    def test_edges(self):
        assert edge(0, (1, (1,)), (2, (2,)))
        assert edge(0, (1, (1,)), (2, (1, 1)))
        assert edge(0, (2, (2,)), (3, (2,)))       # full size: same partition
        assert not edge(0, (2, (2,)), (3, (1, 1)))
        assert not edge(0, (1, (1,)), (3, (2,)))   # p must step by one

    def test_vertex_count_l0(self):
        g = RolletGraph(0, 4)
        # p=0: (); p=1: (1); p>=2: two partitions of 2
        assert len(g.vertices) == 1 + 1 + 3 * 2

    def test_chain_graph_is_a_path(self):
        g = RolletGraph(-1, 6)
        assert len(g.vertices) == 7
        assert len(g.edges) == 6

    def test_neighbours_match_the_benchmark_rule(self):
        """Same list, same order as kybench's own statement of the rule."""
        checks = load_checks()
        for l in range(-1, 4):
            for v in RolletGraph(l, 8).vertices:
                assert neighbours(l, v) == checks.neighbours(l, v), (l, v)

    def test_neighbours_are_symmetric(self):
        for l in range(-1, 4):
            vertices = RolletGraph(l, 8).vertices
            for v in vertices:
                for w in vertices:
                    if abs(v[0] - w[0]) == 1:
                        assert (w in neighbours(l, v)) == (v in neighbours(l, w)), (l, v, w)


class TestDimension:
    def test_small_values(self):
        assert dimension(0, 7, (1, (1,))) == 43
        assert dimension(1, 5, (3, (2, 1))) == 14
        assert dimension(1, 5, (3, (3,))) == 7
        assert dimension(1, 5, (3, (1, 1, 1))) == 7
        assert dimension(1, 5, (1, (1,))) == 15

    def test_l0_rank8_column(self):
        assert [dimension(0, 8, (p, lam)) for p, lam in
                [(0, ()), (2, (2,)), (4, (2,)), (6, (2,))]] == [43, 65, 29, 8]

    def test_parity_zero(self):
        assert dimension(0, 5, (2, (2,))) == 0

    def test_restriction_rule(self):
        """A vertex's dimension at rank n is the sum of its neighbours'
        dimensions at rank n-1."""
        for l in (-1, 0, 1):
            for v in RolletGraph(l, 9).vertices:
                for n in range(v[0], 9, 2):
                    if n == 0:
                        continue
                    total = sum(dimension(l, n - 1, u) for u in neighbours(l, v))
                    assert dimension(l, n, v) == total

    def test_matches_basis_cardinality(self):
        for l, n, p in [(0, 6, 0), (0, 6, 2), (1, 5, 3), (-1, 6, 2)]:
            r = min(p, l + 2)
            for lam in partitions(r):
                d = hook_dimension(lam)
                assert dimension(l, n, (p, lam)) == d * len(half_basis(l, n, p))

    def test_degree_of_one_cup_det_is_dimension(self):
        for l, lam in [(0, (2,)), (0, (1, 1)), (1, (2, 1))]:
            n = l + 4
            assert gram_det(ModuleLabel(l, n, n - 2, lam)).degree == dimension(
                l, n, (n - 2, lam))

    def test_degree_dimension_mismatch_beyond_one_cup(self):
        # two cups: the determinant degree exceeds the walk count
        assert dimension(-1, 4, (0, ())) == 2
        assert gram_det(ModuleLabel(-1, 4, 0, ())).degree == 4


class TestChainOracle:
    def test_matches_gram_dets(self):
        for n in range(2, 9):
            for p in range(n % 2, n + 1, 2):
                lam = (1,) if p else ()
                assert tl_recursive_det(n, p) == gram_det(
                    ModuleLabel(-1, n, p, lam))

    def test_factored_values(self):
        assert tl_factored_det(5, 1) == {2: -1, 3: 4, 4: 1}
        assert tl_factored_det(6, 0) == {2: 4, 3: 4, 4: 1}
        assert tl_factored_det(7, 1) == {2: -6, 3: 13, 4: 6, 5: 1}

    def test_rank_nine_ten_table(self):
        expected = {
            (9, 1): {2: -27, 3: 40, 4: 26, 5: 8, 6: 1},
            (9, 3): {2: -8, 3: -1, 5: 27, 6: 8, 7: 1},
            (9, 5): {2: -1, 7: 8, 8: 1},
            (9, 7): {9: 1},
            (10, 0): {2: 15, 3: 40, 4: 26, 5: 8, 6: 1},
            (10, 2): {2: -35, 3: -9, 4: 74, 5: 35, 6: 9, 7: 1},
            (10, 4): {2: -9, 3: -1, 6: 35, 7: 9, 8: 1},
            (10, 6): {2: -1, 8: 9, 9: 1},
            (10, 8): {10: 1},
        }
        for (n, p), want in expected.items():
            assert tl_factored_det(n, p) == want, (n, p)

    def test_quantum_product_reconstruction(self):
        got = tl_recursive_det(6, 0)
        want = quantum_number(2) ** 4 * quantum_number(3) ** 4 * quantum_number(4)
        assert got == want

    def test_product_formula_matches_recursion(self):
        # both sides multiply out the determinant, whose coefficients run to
        # thousands of digits by rank 14: ranks 12-14 take 60-80 s (2 cores,
        # Python 3.11.7), so they join the comparison in the slow tier
        n_top = 14 if os.environ.get("KY_SLOW_TESTS") else 11
        for n in range(n_top + 1):
            for p in range(n % 2, n + 1, 2):
                num, den = Polynomial.one(), Polynomial.one()
                for k, e in tl_factored_det(n, p).items():
                    if e > 0:
                        num = num * quantum_number(k) ** e
                    else:
                        den = den * quantum_number(k) ** -e
                assert tl_recursive_det(n, p) == num.exact_div(den), (n, p)

    @pytest.mark.parametrize("n, p", [(3, 5), (4, 1), (4, -2)])
    def test_bad_chain_labels(self, n, p):
        with pytest.raises(ValueError, match="bad chain label"):
            tl_recursive_det(n, p)


class TestArmIdentity:
    def test_l0_one_cup_arms(self):
        for lam in [(2,), (1, 1)]:
            recs = arm_verify(0, lam, range(2, 7), [1])
            assert recs and all(r.equal for r in recs)

    def test_l1_one_cup_arms(self):
        for lam in [(3,), (2, 1), (1, 1, 1)]:
            recs = arm_verify(1, lam, range(3, 5), [1])
            assert recs and all(r.equal for r in recs)

    def test_l0_two_cup_arms(self):
        recs = arm_verify(0, (2,), range(2, 5), [2])
        assert recs and all(r.equal for r in recs)


class TestChainFibres:
    """For the chain, the marginal vertex function is a pure quantum-number
    ratio, independent of the rank."""

    def test_fibre_ratios(self):
        for p in (1, 2, 3):
            lam = (1,)
            for n in (p + 2, p + 4):
                v = marginal_v(-1, (p, lam), n)
                c = chebyshev_c(-1, (p, lam), n)
                assert v == c
                d = dimension(-1, n - 1, (p + 1, (1,)))
                assert v == reduced(quantum_number(p + 2) ** d, quantum_number(p + 1) ** d)


class TestHeadFailures:
    """One step off the arms the identity genuinely fails; the exact
    discrepancy ratios are pinned here."""

    def test_l1_head_residuals(self):
        num_22 = (x + 2) ** 14
        num_11 = x ** 14
        den = (x + 1) ** 14 * Polynomial.const(3 ** 21)
        for lam, num in [((2,), num_22), ((1, 1), num_11)]:
            v_num, v_den = marginal_v(1, (2, lam), 6)
            c_num, c_den = chebyshev_c(1, (2, lam), 6)
            res = reduced(c_num * v_den, c_den * v_num)
            assert res == reduced(num, den), lam


class TestRollSection:
    """The decorated l=1 graph on the n = p+4 section."""

    def test_root_and_first_vertices(self):
        assert marginal_v(1, (0, ()), 4) == reduced(x ** 3, Polynomial.one())
        v = marginal_v(1, (1, (1,)), 5)
        assert v == reduced((x - 1) ** 12 * (x + 2) ** 6, x ** 6)

    def test_p2_vertices(self):
        v = marginal_v(1, (2, (2,)), 6)
        assert v == reduced(
            x ** 21 * (x - 2) ** 14 * (x + 4) ** 7,
            (x - 1) ** 14 * (x + 2) ** 7)
        v = marginal_v(1, (2, (1, 1)), 6)
        assert v == reduced(
            (x - 2) ** 21 * (x + 2) ** 14, (x - 1) ** 14)

    @pytest.mark.slow
    def test_p3_vertices(self):
        for lam, e in [((3,), 8), ((2, 1), 16), ((1, 1, 1), 8)]:
            _c, series = factor_one_cup(1, lam)
            want = reduced(series.term(5) ** e, series.term(4) ** e)
            assert marginal_v(1, (3, lam), 7) == want


class TestExport:
    def test_dot(self):
        g = RolletGraph(0, 2)
        dot = export_dot(g)
        assert dot.startswith("graph rollet {")
        assert '"1_1" -- "2_2"' in dot or '"2_2" -- "1_1"' in dot
        assert '"0_"' in dot

    @pytest.mark.parametrize("l, p_max", [(1, 6), (3, 7)])
    def test_dot_text_is_pinned(self, l, p_max):
        """Vertex and edge order included."""
        want = (ROOT / "tests" / "data" / f"rollet_l{l}_p{p_max}.dot").read_text()
        assert export_dot(RolletGraph(l, p_max)) == want

    def test_json_schema(self):
        g = RolletGraph(-1, 4)
        data = export_json(g, n_values=(2, 4), decorate_det=True, decorate_mvf=True)
        assert data["l"] == -1
        by_p = {v["p"]: v for v in data["vertices"]}
        assert by_p[0]["lambda"] == []
        fib = by_p[0]["fibre"]
        assert set(fib) == {"2", "4"}
        det = Polynomial.from_json(fib["2"]["det"])
        assert det == x  # chain (2,0) determinant
        assert "mvf" in fib["2"]

    def test_json_det_matches_oracle(self):
        g = RolletGraph(-1, 6)
        data = export_json(g, n_values=(6,), decorate_det=True)
        for v in data["vertices"]:
            if "6" in v["fibre"]:
                det = Polynomial.from_json(v["fibre"]["6"]["det"])
                assert det == tl_recursive_det(6, v["p"])
