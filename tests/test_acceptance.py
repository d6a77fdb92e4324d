"""End-to-end acceptance runs, one per headline guarantee.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and enforces the documented wall-clock budget.  Heavy settings extend the
same checks when KY_SLOW_TESTS=1; the default tier alone is meaningful —
every criterion keeps a genuine representative.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from kadaryu.cheby import quantum_number, u_expansion
from kadaryu.cli import main as cli_main
from kadaryu.diagrams import half_basis
from kadaryu.exactmath import Polynomial, PolyMatrix, Q, reduced
from kadaryu.gram import (ModuleLabel, factor_one_cup, gram_det,
                          gram_mixed_det, one_cup_det)
from kadaryu.morphisms import divisibility_check, submodule_verify
from kadaryu.rollet import arm_verify, chebyshev_c, dimension, marginal_v, tl_recursive_det
from kadaryu.roots import family_series, lemma_roots_check, sturm_count, verify_root_layout
from kadaryu.symmetric import hook_dimension, partitions

from oracles import (PairPartition, compose, det_cofactor, det_poly, det_poly_bareiss,
                     flip, idempotent, smith_invariants, squarefree_check, star,
                     tl_factored_det)
from test_gram import COMMON_FACTORS, ONE_CUP_DETS, U_EXPANSIONS

SLOW = bool(os.environ.get("KY_SLOW_TESTS"))
x = Polynomial.x()


def report(num, desc, failures, started, budget):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[{num:2d}] {desc}: {status} ({elapsed:.1f}s)")
    assert not failures, failures
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s > {budget}s"


def test_01_l0_one_cup_determinants():
    t = time.perf_counter()
    failures = []
    for (l, n, lam), want in ONE_CUP_DETS.items():
        if l != 0:
            continue
        if one_cup_det(l, n, lam) != want:
            failures.append((l, n, lam))
    report(1, "l=0 one-cup determinants", failures, t, 1.0)


def test_02_l1_one_cup_determinants():
    t = time.perf_counter()
    failures = []
    for (l, n, lam), want in ONE_CUP_DETS.items():
        if l != 1:
            continue
        if one_cup_det(l, n, lam) != want:
            failures.append((l, n, lam))
    report(2, "l=1 one-cup determinants (incl. 14x14, 16x16)", failures, t, 10.0)


L2_COMMON = {
    (3, 1): (x - 3) ** 5 * (x - 2) ** 2 * (x - 1) ** 3 * (x + 1) ** 6
            * (x + 4) * (x + 6),
    (2, 2): (x - 3) ** 3 * (x - 1) ** 6 * (x + 1) ** 3 * (x + 4) ** 4,
    (2, 1, 1): (x - 3) ** 6 * (x - 1) ** 3 * (x + 1) ** 5 * (x + 2) ** 3
               * (x + 4) ** 4,
}
L2_U_EXPANSIONS = {
    (3, 1): {0: 1, -1: 2, -2: -9, -5: -4, -6: -1, -7: -2, -8: -3},
    (2, 2): {-2: 1, -3: -2, -4: -5, -5: 6, -6: -3},
    (2, 1, 1): {-1: 1, -2: -2, -3: -6, -4: 6, -5: -2, -6: 2, -7: -3},
}


def test_03_factorisations_and_u_expansions():
    t = time.perf_counter()
    failures = []
    for (l, lam), want_c in COMMON_FACTORS.items():
        c, series = factor_one_cup(l, lam)
        if c != want_c:
            failures.append(("C", l, lam))
        d = hook_dimension(lam)
        for n in (l + 4, l + 5):
            if ONE_CUP_DETS[(l, n, lam)] != c * series.term(n) ** d:
                failures.append(("anchor", l, lam, n))
    for (l, lam), want_u in U_EXPANSIONS.items():
        _c, series = factor_one_cup(l, lam)
        got = {k - series.anchor: v for k, v in u_expansion(series).items() if v}
        if got != {k: Q(v) for k, v in want_u.items()}:
            failures.append(("u-exp", l, lam))
    for lam, want_c in L2_COMMON.items():
        c, series = factor_one_cup(2, lam)
        if c != want_c:
            failures.append(("C", 2, lam))
        got = {k - series.anchor: v for k, v in u_expansion(series).items() if v}
        if got != {k: Q(v) for k, v in L2_U_EXPANSIONS[lam].items()}:
            failures.append(("u-exp", 2, lam))
    report(3, "one-cup common factors, series anchors, U-expansions (l<=2)",
           failures, t, 120.0)


def test_04_closed_form_families():
    t = time.perf_counter()
    failures = []
    l_top = 4
    for l in range(0, l_top + 1):
        c, series = factor_one_cup(l, (l + 2,))
        want_c = (x + (l - 1)) ** (l + 1) * (x - 2) ** (l * (l + 3) // 2)
        if c != want_c:
            failures.append(("row-C", l))
        want = family_series(l, (l + 2,))
        if (series.term(l + 4), series.term(l + 5)) != (want.term(l + 4),
                                                        want.term(l + 5)):
            failures.append(("row-P", l))
        if series.term(l + 4) != (x + l) * (x * x + (2 * l + 1) * x - 2 * (l + 2)):
            failures.append(("row-down-value", l))
    for l in range(-1, l_top + 1):
        c, series = factor_one_cup(l, (1,) * (l + 2))
        want_c = (x - (l + 1)) ** (l + 1) * (x + 2) ** ((l + 2) * (l + 1) // 2)
        if c != want_c:
            failures.append(("col-C", l))
        want = family_series(l, (1,) * (l + 2))
        if (series.term(l + 4), series.term(l + 5)) != (want.term(l + 4),
                                                        want.term(l + 5)):
            failures.append(("col-P", l))
        if series.term(l + 4) != (x + 1) * (x - (l + 2)):
            failures.append(("col-down-value", l))
    report(4, f"closed-form row/column families, -1 <= l <= {l_top}",
           failures, t, 300.0)


def test_05_determinant_recursion():
    t = time.perf_counter()
    failures = []
    # linear three-term recursion of the monic determinants, trivial Specht part
    for l in range(0, 3):
        for lam in [(l + 2,), (1,) * (l + 2)]:
            c, series = factor_one_cup(l, lam)
            dets = {n: one_cup_det(l, n, lam) for n in range(l + 4, l + 8)}
            for n in range(l + 6, l + 8):
                # C is a common factor, so this is the linear recursion on
                # the determinants themselves
                if dets[n] != c * (x * series.term(n - 1) - series.term(n - 2)):
                    failures.append(("linear", l, lam, n))
                if dets[n] != c * series.term(n):
                    failures.append(("det-vs-series", l, lam, n))
    # higher Specht dimensions: structural reconstruction det = C * P^d
    for l, lam in [(1, (2, 1)), (2, (3, 1)), (2, (2, 2)), (2, (2, 1, 1))]:
        c, series = factor_one_cup(l, lam)
        d = hook_dimension(lam)
        for n in range(l + 6, l + 8):
            predicted = c * (x * series.term(n - 1) - series.term(n - 2)) ** d
            if one_cup_det(l, n, lam) != predicted:
                failures.append(("power", l, lam, n))
    # componentwise recursion over mixed rank tuples
    for base in [(5, 5), (5, 6), (6, 5)]:
        for k in range(2):
            up1 = (base[0] + (1 - k), base[1] + k)
            up2 = (base[0] + 2 * (1 - k), base[1] + 2 * k)
            if max(up2) > 7:
                continue
            d0 = gram_mixed_det(1, (2, 1), base)
            d1 = gram_mixed_det(1, (2, 1), up1)
            d2 = gram_mixed_det(1, (2, 1), up2)
            if d2 != x * d1 - d0:
                failures.append(("mixed", base, up2))
    report(5, "determinant Chebyshev recursion (l<=2, mixed tuples)",
           failures, t, 300.0)


def test_06_chain_oracle():
    t = time.perf_counter()
    failures = []
    # n = 10 direct Gram determinants (90x90, degree 360) take the test from
    # about 1 s to about 6.7 s (2 cores, Python 3.11.7), which would take
    # tier-1 past 30 s, so they extend the same comparison in the slow tier
    n_top = 10 if SLOW else 9
    for n in range(2, n_top + 1):
        for p in range(n % 2, n + 1, 2):
            lam = (1,) if p else ()
            if tl_recursive_det(n, p) != gram_det(ModuleLabel(-1, n, p, lam)):
                failures.append((n, p))
    q = quantum_number
    if tl_recursive_det(5, 1) * q(2) != q(4) * q(3) ** 4:
        failures.append("M5(1)")
    if tl_recursive_det(6, 0) != q(2) ** 4 * q(3) ** 4 * q(4):
        failures.append("M6(0)")
    if tl_recursive_det(7, 1) * q(2) ** 6 != q(3) ** 13 * q(4) ** 6 * q(5):
        failures.append("M7(1)")
    # the factored table at the top of the tower (through rank 10)
    table = {
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
    for (n, p), want in table.items():
        if tl_factored_det(n, p) != want:
            failures.append(("table", n, p))
    report(6, f"chain determinant oracle vs direct Gram (n <= {n_top})",
           failures, t, 600.0 if SLOW else 30.0)


def test_07_arm_identity():
    t = time.perf_counter()
    failures = []

    def check(l, lam, p_range, m_range, tag):
        recs = arm_verify(l, lam, p_range, m_range)
        if not recs or not all(r.equal for r in recs):
            failures.append(tag)

    for l in (0, 1, 2):
        for lam in partitions(l + 2):
            check(l, lam, range(l + 2, l + 7), [1], ("m1", l, lam))
    for lam in partitions(2):
        check(0, lam, range(2, 9 if SLOW else 6), [2], ("l0-m2", lam))
        if SLOW:
            check(0, lam, range(2, 6), [3], ("l0-m3", lam))
    if SLOW:
        for lam in partitions(3):
            check(1, lam, range(3, 8), [2], ("l1-m2", lam))
    # the two explicit head-failure ratios one step off the l=1 arms
    den = (x + 1) ** 14 * Polynomial.const(3 ** 21)
    for lam, num in [((2,), (x + 2) ** 14), ((1, 1), x ** 14)]:
        v_num, v_den = marginal_v(1, (2, lam), 6)
        c_num, c_den = chebyshev_c(1, (2, lam), 6)
        res_num, res_den = reduced(c_num * v_den, c_den * v_num)
        if res_num * den != num * res_den:
            failures.append(("head", lam))
    tier = "full" if SLOW else "default"
    report(7, f"arm identity V = C ({tier} tier) and head-failure ratios",
           failures, t, 7200.0 if SLOW else 300.0)


def test_08_walk_dimensions():
    t = time.perf_counter()
    failures = []
    for l in (-1, 0, 1, 2):
        for n in range(0, 10):
            for p in range(n % 2, n + 1, 2):
                nh = len(half_basis(l, n, p))
                for lam in partitions(min(p, l + 2)):
                    if dimension(l, n, (p, lam)) != hook_dimension(lam) * nh:
                        failures.append(("card", l, n, p, lam))
            # determinant degree check for the one-cup labels
            if n >= 2:
                p = n - 2
                for lam in partitions(min(p, l + 2)):
                    deg = gram_det(ModuleLabel(l, n, p, lam)).degree
                    if deg != dimension(l, n, (p, lam)):
                        failures.append(("deg", l, n, lam))
    column = [dimension(0, 8, v) for v in
              [(0, ()), (2, (2,)), (4, (2,)), (6, (2,))]]
    if column != [43, 65, 29, 8]:
        failures.append(("red-column", column))
    report(8, "walk counts = degrees = basis cardinalities (l<=2, n<=9)",
           failures, t, 60.0)


def test_09_root_distribution():
    t = time.perf_counter()
    failures = []
    fams = [(0, (2,)), (0, (1, 1)), (1, (3,)), (1, (2, 1)), (1, (1, 1, 1)),
            (2, (4,)), (2, (3, 1)), (2, (2, 2)), (2, (2, 1, 1)),
            (2, (1, 1, 1, 1))]
    for l, lam in fams:
        _c, series = factor_one_cup(l, lam)
        for n in range(l + 4, l + 11):
            p = series.term(n)
            if not squarefree_check(p):
                failures.append(("squarefree", l, lam, n))
            if sturm_count(p, -math.inf, math.inf) != p.degree:
                failures.append(("all-real", l, lam, n))
        for k in range(1, 4):
            for kp in range(1, 4):
                for r in range(1, k + kp):
                    if not lemma_roots_check(series, k, kp, r):
                        failures.append(("lemma", l, lam, k, kp, r))
    # single-column sign pattern at the sample points, plus full layout
    for l in (0, 1, 2):
        for k in (1, 2, 3):
            rep = verify_root_layout(l, (1,) * (l + 2), k)
            if rep["status"] != "pass":
                failures.append(("layout", l, k, rep["status"]))
    report(9, "root reality, square-freeness, reflection lemma, sign pattern",
           failures, t, 300.0)


def test_10_bootstrap():
    t = time.perf_counter()
    failures = []
    cases = [
        submodule_verify(0, (2,), 4, x * x + x - 4),
        submodule_verify(0, (2,), 3, 1),
        submodule_verify(0, (1, 1), 3, 1),
        submodule_verify(0, (1, 1), 4, 1, target=(2,)),
        submodule_verify(1, (2, 1), 5, x ** 4 - 7 * x * x + 3),
    ]
    for rep in cases:
        if rep["status"] != "pass":
            failures.append(("submodule", rep["lambda"], rep["n"]))
    for l, lam in [(0, (2,)), (0, (1, 1)), (1, (3,)), (1, (2, 1)),
                   (1, (1, 1, 1))]:
        if divisibility_check(l, lam, l + 7)["status"] != "pass":
            failures.append(("divisibility", l, lam))
    report(10, "submodule certificates and series-divides-D", failures, t, 120.0)


def test_11_property_suite(tmp_path, capsys):
    t = time.perf_counter()
    failures = []
    rng = random.Random(0)

    def rand_diagram(n=4):
        pts = list(range(1, n + 1)) + list(range(-n, 0))
        rng.shuffle(pts)
        return PairPartition(n, n, [(pts[2 * i], pts[2 * i + 1])
                                    for i in range(n)])

    for _ in range(25):
        a, b, c = rand_diagram(), rand_diagram(), rand_diagram()
        if flip(flip(a)) != a:
            failures.append("flip-involution")
        ab, l1 = compose(a, b)
        if flip(ab) != compose(flip(b), flip(a))[0]:
            failures.append("flip-antihomomorphism")
        abc1, e1 = compose(ab, c)
        bc, l3 = compose(b, c)
        abc2, e2 = compose(a, bc)
        if abc1 != abc2 or l1 + e1 != l3 + e2:
            failures.append("associativity-loops")
    for lam in [(2,), (2, 1), (2, 2)]:
        cc = idempotent(lam)
        if cc * cc != cc or star(cc) != cc:
            failures.append(("idempotent", lam))
    for size in (3, 4, 5):
        m = PolyMatrix([[Polynomial([Q(rng.randint(-3, 3))
                                     for _ in range(rng.randint(1, 3))])
                         for _ in range(size)] for _ in range(size)])
        d1, d2, d3 = det_poly(m), det_poly_bareiss(m), det_cofactor(m)
        if not (d1 == d2 == d3):
            failures.append(("det-oracle", size))
        invs = smith_invariants(m)
        prod = Polynomial.one()
        for f in invs:
            prod = prod * f
        if not d2.is_zero() and prod.monic() != d2.monic():
            failures.append(("smith-product", size))
    # cache determinism: byte-identical record and output across runs
    for i, command in enumerate([["series", "--l", "1", "--lambda", "2,1"],
                                 ["bootstrap", "--l", "0", "--lambda", "2",
                                  "--n", "5"]]):
        args = [*command, "--cache-dir", str(tmp_path / f"c{i}")]
        assert cli_main(list(args)) == 0
        out1 = capsys.readouterr().out
        (rec,) = (tmp_path / f"c{i}").glob("*.json")
        blob = rec.read_bytes()
        assert cli_main(list(args)) == 0
        if capsys.readouterr().out != out1 or rec.read_bytes() != blob:
            failures.append(("cache-determinism", command[0]))
    report(11, "structural property suite and cache determinism",
           failures, t, 120.0)
