"""Tests of the benchmark's own checks and span reduction.

    python3 kybench/selftest.py

Each check must pass on the engine's real output and fail on a payload
with one number changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kadaryu import cli  # noqa: E402
from kadaryu.exactmath import Polynomial, det_rational  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckError, ModCheck, check_payload  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402


def engine_output(cmd: str) -> tuple[list[str], str]:
    argv = cmd.split()
    with tempfile.TemporaryDirectory() as cache, contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv + ["--cache-dir", cache]) == 0
    return argv, out.getvalue()


def tampered(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


class CheckCase(unittest.TestCase):
    def assert_checks(self, cmd: str, edit):
        argv, text = engine_output(cmd)
        check_payload(argv, text, ModCheck(7), random.Random(7))
        with self.assertRaises(CheckError):
            check_payload(argv, tampered(text, edit), ModCheck(7), random.Random(7))


class TestArithmetic(unittest.TestCase):
    def test_det_mod_matches_rational_det(self):
        rng = random.Random(3)
        q = checks.random_prime(rng, 2 ** 60, 2 ** 61)
        for n in range(1, 7):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            self.assertEqual(checks.det_mod([[x % q for x in r] for r in m], q),
                             det_rational(m) % q)

    def test_rank_mod(self):
        self.assertEqual(checks.rank_mod([[1, 2], [2, 4]], 101), 1)
        self.assertEqual(checks.rank_mod([[0, 1], [1, 0]], 101), 2)

    def test_parse_poly_reads_the_printed_form(self):
        rng = random.Random(5)
        for _ in range(50):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
            p = Polynomial(coeffs)
            self.assertEqual(checks.parse_poly(str(p)), list(p.coeffs))

    def test_poly_rem(self):
        a = checks.poly_mul([Fraction(-2), 0, Fraction(1)], [Fraction(1), Fraction(1)])
        self.assertEqual(checks.poly_rem(a, [Fraction(1), Fraction(1)]), [])
        self.assertEqual(checks.poly_rem([Fraction(3), 0, Fraction(1)], [0, Fraction(1)]),
                         [Fraction(3)])

    def test_real_roots_counts_and_places(self):
        # (x^2 - 2)(x - 3): roots -1.414, 1.414, 3
        p = checks.poly_mul([Fraction(-2), 0, Fraction(1)], [Fraction(-3), Fraction(1)])
        cells = checks.real_roots(p, {Fraction(2)})
        self.assertEqual(len(cells), 3)
        self.assertEqual(checks._count_in(cells, Fraction(2), checks._INF), 1)
        self.assertEqual(checks._count_in(cells, -checks._INF, Fraction(0)), 1)
        # x^2 + 1 has no real roots
        self.assertEqual(checks.real_roots([Fraction(1), 0, Fraction(1)], set()), [])

    def test_ratio_test_rejects_a_wrong_factor(self):
        entries = [[[Fraction(0), Fraction(1)], [Fraction(1)]], [[Fraction(1)], [Fraction(2)]]]
        mc = ModCheck(1)
        mc.ratio_test([Fraction(-1), Fraction(2)], entries, "2a - 1")
        with self.assertRaises(CheckError):
            mc.ratio_test([Fraction(-1), Fraction(3)], entries, "3a - 1")


class TestPayloadChecks(CheckCase):
    def test_gram_det(self):
        def edit(p):
            p["det"]["coeffs"][0] = "7"
        self.assert_checks("gram --l 0 --n 5 --p 1 --lambda 1 --det", edit)

    def test_gram_tl_recursion(self):
        def edit(p):
            p["dim"] += 1
        self.assert_checks("gram --l -1 --n 6 --p 2 --lambda 1 --det", edit)

    def test_gram_full_matrix(self):
        def edit(p):
            p["matrix"][0][0] = {"coeffs": ["0", "0", "5"]}
        self.assert_checks("gram --l 0 --n 4 --p 2 --lambda 2", edit)

    def test_series(self):
        def edit(p):
            p["C"]["coeffs"].append("1")
        self.assert_checks("series --l 0 --lambda 1,1", edit)

    def test_rollet(self):
        def edit(p):
            v = next(v for v in p["vertices"] if "mvf" in v["fibre"].get("4", {}))
            v["fibre"]["4"]["mvf"]["num"]["coeffs"][0] = "9"
        self.assert_checks("rollet --l 0 --max-n 4 --decorate det --decorate mvf", edit)

    def test_verify_arm(self):
        def edit(p):
            p["records"].pop()
        self.assert_checks("verify arm --l 0 --lambda 2 --max-p 3 --m 1", edit)

    def test_bootstrap_divisibility(self):
        def edit(p):
            p["claims"][-2]["witness"]["D"] += " + 1"
        self.assert_checks("bootstrap --l 0 --lambda 2 --n 7", edit)

    def test_bootstrap_submodule(self):
        def edit(p):
            next(c for c in p["claims"] if c["id"] == "radical-nonzero")[
                "witness"]["rank_deficiency"] += 5
        self.assert_checks("bootstrap --l 0 --lambda 2 --n 5 --alpha minpoly:2,-1,-5,1,1", edit)

    def test_roots(self):
        def edit(p):
            p["claims"][0]["witness"] += 1
        self.assert_checks("roots --l 2 --lambda 4 --n 12", edit)


class TestHarness(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        t = Tracer(0)
        with t.span("cli.main"):
            with t.span("cli.cache_put", records=1, bytes=10):
                with t.span("cli.produce"):
                    pass
        spans = t.spans
        own = self_times(spans)
        whole = spans[0]["end"] - spans[0]["start"]
        self.assertAlmostEqual(sum(own), whole, places=9)
        m = layer_metrics(spans)
        self.assertEqual((m["cli.cache_misses"], m["cli.cache_bytes"]), (1, 10))
        self.assertAlmostEqual(m["cli.residual_s"] + m["cli.cache_put_s"], whole, places=9)

    def test_span_records_errors(self):
        t = Tracer(0)
        with self.assertRaises(ZeroDivisionError), t.span("morphisms.submodule"):
            1 / 0
        self.assertEqual(t.spans[0]["counts"]["error"], "ZeroDivisionError")

    def test_kept_failure_counts_until_it_is_a_usage_error(self):
        crash = run.Outcome(1, "", "Traceback ...\nZeroDivisionError: x\n", 0.1, 0.1)
        usage = run.Outcome(2, "", "error: modulus is reducible\n", 0.1, 0.1)
        self.assertTrue(run.failed(run.KEPT_FAILURE, crash))
        self.assertFalse(run.failed(run.KEPT_FAILURE, usage))
        self.assertTrue(run.failed("gram --l 0", usage))


if __name__ == "__main__":
    unittest.main()
