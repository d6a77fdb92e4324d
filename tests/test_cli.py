"""Command-line driver: subcommands, exit codes, and the result cache."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kadaryu
from kadaryu import gram
from kadaryu.cli import _put, cache_get, main, source_stamp
from kadaryu.exactmath import Polynomial
from kadaryu.gram import one_cup_det
from kadaryu.symmetric import partitions


# an --out file inside a directory that does not exist
NO_SUCH_OUT = "/no/such/x.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


class TestGram:
    def test_det_payload(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gram", "--l", "0", "--n", "4", "--p", "2",
                           "--lambda", "2", "--det", *cache_args(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 4
        got = Polynomial.from_json(payload["det"])
        assert got == one_cup_det(0, 4, (2,)).monic()

    def test_full_matrix_and_csv(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gram", "--l", "0", "--n", "4", "--p", "2",
                           "--lambda", "2", "--format", "csv",
                           *cache_args(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("det,")
        assert len(lines) == 5  # 4 matrix rows + det

    def test_invalid_label_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gram", "--l", "0", "--n", "4", "--p", "3",
                           "--lambda", "2", *cache_args(tmp_path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("l,n,p,lam", [(-1, 4, 0, ()), (0, 4, 2, (2,)),
                                           (1, 5, 3, (2, 1)), (0, 5, 1, (1,))])
    def test_key_is_the_label_key(self, tmp_path, capsys, l, n, p, lam):
        code, _, _ = run(capsys, "gram", "--l", str(l), "--n", str(n), "--p", str(p),
                         "--lambda", ",".join(map(str, lam)), "--det",
                         *cache_args(tmp_path))
        assert code == 0
        (rec,) = (tmp_path / "cache").glob("*.json")
        key = "gram_" + gram.ModuleLabel(l, n, p, lam).key()
        assert json.loads(rec.read_text())["key"] == key + "_det"

    @pytest.mark.parametrize("label,message", [
        (["--l", "0", "--n", "4", "--p", "3", "--lambda", "2"],
         "invalid (n,p)=(4,3): parity/range"),
        (["--l", "-2", "--n", "4", "--p", "2", "--lambda", "2"],
         "height bound must be >= -1"),
        (["--l", "0", "--n", "4", "--p", "2", "--lambda", "1,1,1"],
         "lambda (1, 1, 1) is not a partition of min(p, l+2) = 2"),
    ], ids=["parity", "height", "lambda-sum"])
    @pytest.mark.parametrize("det", [["--det"], []], ids=["det", "full"])
    def test_invalid_label_beside_valid_records(self, tmp_path, capsys, label,
                                                message, det):
        valid = ["gram", "--l", "0", "--n", "4", "--p", "2", "--lambda", "2"]
        for extra in (["--det"], []):
            assert run(capsys, *valid, *extra, *cache_args(tmp_path))[0] == 0
        before = sorted((tmp_path / "cache").iterdir())
        assert run(capsys, "gram", *label, *det, *cache_args(tmp_path)) == (
            2, "", f"error: {message}\n")
        assert sorted((tmp_path / "cache").iterdir()) == before

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "gram", "--l", "0", "--n", "4", "--p", "2",
                           "--lambda", "2", "--det", "--out", str(target),
                           *cache_args(tmp_path))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["dim"] == 4

    @pytest.mark.parametrize("first,second", [((), ("--det",)), (("--det",), ())],
                             ids=["full then det", "det then full"])
    def test_records_share_the_determinant(self, tmp_path, capsys, monkeypatch,
                                           first, second):
        label = ["gram", "--l", "0", "--n", "5", "--p", "1", "--lambda", "1"]
        fresh = tmp_path / "fresh"
        expected = run(capsys, *label, *second, "--cache-dir", str(fresh))
        assert run(capsys, *label, *first, *cache_args(tmp_path))[0] == 0

        def no_det(tail):
            raise RuntimeError("determinant recomputed")

        gram.gram_matrix.cache_clear()  # drop the in-process determinant too
        monkeypatch.setattr(gram, "det_monic_companion", no_det)
        assert run(capsys, *label, *second, *cache_args(tmp_path)) == expected
        (record,) = fresh.glob("*.json")
        assert (tmp_path / "cache" / record.name).read_bytes() == record.read_bytes()


class TestSeries:
    def test_json(self, tmp_path, capsys):
        code, out, _ = run(capsys, "series", "--l", "0", "--lambda", "1,1",
                           *cache_args(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["P"]["anchor"] == 4
        assert Polynomial.from_json(payload["C"]).degree == 2

    def test_csv(self, tmp_path, capsys):
        code, out, _ = run(capsys, "series", "--l", "0", "--lambda", "2",
                           "--format", "csv", *cache_args(tmp_path))
        assert code == 0
        assert out.startswith("C,")
        assert "P_4," in out and "P_5," in out

    def test_wrong_partition_size(self, tmp_path, capsys):
        code, _, err = run(capsys, "series", "--l", "0", "--lambda", "2,1",
                           *cache_args(tmp_path))
        assert code == 2 and "l+2" in err


class TestRollet:
    def test_dot(self, tmp_path, capsys):
        code, out, _ = run(capsys, "rollet", "--l", "0", "--max-p", "3",
                           "--format", "dot", *cache_args(tmp_path))
        assert code == 0
        assert out.startswith("graph rollet {")

    def test_decorated_json(self, tmp_path, capsys):
        code, out, _ = run(capsys, "rollet", "--l", "-1", "--max-n", "4",
                           "--decorate", "det", *cache_args(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["l"] == -1
        assert any(v["fibre"] for v in payload["vertices"])

    def test_decorations_need_json(self, tmp_path, capsys):
        assert run(capsys, "rollet", "--l", "0", "--max-n", "2", "--format", "dot",
                   "--decorate", "det", *cache_args(tmp_path)) == (
            2, "", "error: --decorate needs --format json\n")

    def test_needs_a_bound(self, tmp_path, capsys):
        code, _, err = run(capsys, "rollet", "--l", "0", *cache_args(tmp_path))
        assert code == 2 and "max-n" in err

    @pytest.mark.parametrize("bound", ["--max-p", "--max-n"])
    def test_negative_bound_is_usage_error(self, tmp_path, capsys, bound):
        code, out, err = run(capsys, "rollet", "--l", "0", bound, "-3",
                             *cache_args(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("argv", [["--l", "-2", "--max-n", "3"],
                                      ["--l", "-3", "--max-n", "2", "--decorate", "det"]],
                             ids=["plain", "det"])
    def test_height_below_minus_one_beside_valid_records(self, tmp_path, capsys, argv):
        assert run(capsys, "rollet", "--l", "-1", "--max-n", "3",
                   *cache_args(tmp_path))[0] == 0
        before = sorted((tmp_path / "cache").iterdir())
        assert run(capsys, "rollet", *argv, *cache_args(tmp_path)) == (
            2, "", "error: height bound must be >= -1\n")
        assert sorted((tmp_path / "cache").iterdir()) == before


class TestVerify:
    def test_arm_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "arm", "--l", "0", "--lambda", "2",
                           "--max-p", "4", "--m", "1", *cache_args(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] and all(r["equal"] for r in payload["records"])

    @pytest.mark.parametrize("bounds", [["--m", "0"], ["--m", "-3"], ["--max-p", "1"],
                                        ["--max-p", "3", "--m", "0"]])
    def test_empty_range_is_usage_error(self, tmp_path, capsys, bounds):
        code, out, err = run(capsys, "verify", "arm", "--l", "0", "--lambda", "2",
                             *bounds, *cache_args(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: verify arm needs --m >= 1 and --max-p >= l+2 = 2\n"
        assert not (tmp_path / "cache").exists()

    def test_smallest_ranges_still_check(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "arm", "--l", "0", "--lambda", "2",
                           "--max-p", "2", "--m", "1", *cache_args(tmp_path))
        assert code == 0 and len(json.loads(out)["records"]) == 1


class TestRoots:
    def test_pass(self, tmp_path, capsys):
        code, out, _ = run(capsys, "roots", "--l", "0", "--lambda", "1,1",
                           "--n", "6", *cache_args(tmp_path))
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_rank_too_small(self, tmp_path, capsys):
        code, _, err = run(capsys, "roots", "--l", "0", "--lambda", "1,1",
                           "--n", "3", *cache_args(tmp_path))
        assert code == 2 and "l+4" in err
        assert not (tmp_path / "cache").exists()


class TestBootstrap:
    @pytest.mark.parametrize("n", ["2", "3"])
    def test_rank_below_l_plus_4_is_usage_error(self, tmp_path, capsys, n):
        assert run(capsys, "bootstrap", "--l", "0", "--lambda", "2", "--n", n,
                   *cache_args(tmp_path)) == (2, "", "error: rank must be at least l+4\n")
        assert not (tmp_path / "cache").exists()

    def test_target_without_alpha_is_usage_error(self, tmp_path, capsys):
        assert run(capsys, "bootstrap", "--l", "0", "--lambda", "2", "--target", "1,1",
                   *cache_args(tmp_path)) == (2, "", "error: --target needs --alpha\n")
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_alpha_below_rank_2_is_usage_error(self, tmp_path, capsys, n):
        assert run(capsys, "bootstrap", "--l", "0", "--lambda", "2", "--n", n,
                   "--alpha", "1", *cache_args(tmp_path)) == (
            2, "", "error: rank must be at least 2\n")
        assert not (tmp_path / "cache").exists()

    def test_divisibility(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bootstrap", "--l", "0", "--lambda", "2",
                           "--n", "6", *cache_args(tmp_path))
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_negative_fraction_alpha_after_equals(self, tmp_path, capsys):
        """argparse takes "-1/2" after a space for an option, so a negative
        non-integer rational is given as --alpha=-1/2."""
        code, out, _ = run(capsys, "bootstrap", "--l", "0", "--lambda", "2", "--n", "4",
                           "--alpha=-1/2", *cache_args(tmp_path))
        assert code in (0, 1)
        report = json.loads(out)
        assert report["alpha0"] == "-1/2"
        assert report["status"] == ("pass" if code == 0 else "fail")

    def test_algebraic_parameter(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bootstrap", "--l", "0", "--lambda", "2",
                           "--n", "4", "--alpha", "minpoly:-4,1,1",
                           *cache_args(tmp_path))
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_non_root_parameter_fails(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bootstrap", "--l", "0", "--lambda", "2",
                           "--n", "4", "--alpha", "7", *cache_args(tmp_path))
        assert code == 1
        assert json.loads(out)["status"] == "fail"

    @pytest.mark.parametrize("alpha,modulus", [("minpoly:0,0,1", "a^2"),
                                               ("minpoly:4,-4,1", "4 - 4*a + a^2")])
    def test_non_squarefree_modulus_is_usage_error(self, tmp_path, capsys, alpha,
                                                   modulus):
        code, out, err = run(capsys, "bootstrap", "--l", "0", "--lambda", "2",
                             "--n", "4", "--alpha", alpha, *cache_args(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: modulus {modulus} must be squarefree\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("alpha", ["1/0", "minpoly:1/0,1"])
    def test_zero_denominator_is_usage_error(self, tmp_path, capsys, alpha):
        code, out, err = run(capsys, "bootstrap", "--l", "0", "--lambda", "2",
                             "--n", "4", "--alpha", alpha, *cache_args(tmp_path))
        assert code == 2 and out == ""
        assert "argument --alpha: bad value" in err

    def test_constant_modulus_is_usage_error(self, tmp_path, capsys):
        assert run(capsys, "bootstrap", "--l", "0", "--lambda", "2", "--n", "4",
                   "--alpha", "minpoly:5", *cache_args(tmp_path)) == (
            2, "", "error: modulus must be nonconstant\n")
        assert not (tmp_path / "cache").exists()

    def test_ambiguous_truncation_is_usage_error(self, tmp_path, capsys):
        assert run(capsys, "bootstrap", "--l", "2", "--lambda", "2,2", "--n", "4",
                   "--alpha", "1", *cache_args(tmp_path)) == (
            2, "", "error: ambiguous truncation of (2, 2) to size 2\n")
        assert not (tmp_path / "cache").exists()

    def test_trailing_zero_coefficients_share_a_record(self, tmp_path, capsys):
        """The modulus is keyed with its trailing zero coefficients stripped."""
        argv = ["bootstrap", "--l", "0", "--lambda", "2", "--n", "4", *cache_args(tmp_path)]
        padded = run(capsys, *argv, "--alpha", "minpoly:-4,1,1,0")
        assert padded[0] == 0
        assert run(capsys, *argv, "--alpha", "minpoly:-4,1,1") == padded
        assert len(list((tmp_path / "cache").glob("*.json"))) == 1


class TestUsage:
    @pytest.mark.parametrize("command,fmt", [
        (["gram", "--l", "0", "--n", "4", "--p", "2", "--lambda", "2"], "dot"),
        (["series", "--l", "0", "--lambda", "2"], "dot"),
        (["rollet", "--l", "0", "--max-n", "3"], "csv"),
        (["verify", "arm", "--l", "0", "--lambda", "2"], "csv"),
        (["roots", "--l", "0", "--lambda", "2"], "csv"),
        (["bootstrap", "--l", "0", "--lambda", "2"], "dot"),
    ], ids=["gram", "series", "rollet", "verify", "roots", "bootstrap"])
    def test_unhonoured_format_is_usage_error(self, tmp_path, capsys, command, fmt):
        code, out, err = run(capsys, *command, "--format", fmt, *cache_args(tmp_path))
        assert (code, out) == (2, "")
        assert f"invalid choice: '{fmt}'" in err
        assert not (tmp_path / "cache").exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "x.json"
        code, out, err = run(capsys, "series", "--l", "0", "--lambda", "2",
                             "--out", str(target), *cache_args(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_unwritable_out_leaves_no_record(self, tmp_path, capsys):
        """The record is the last thing a run writes, so a run that cannot
        write its --out leaves the (empty) cache directory as it was."""
        cache = tmp_path / "cache"
        cache.mkdir()
        code, out, err = run(capsys, "series", "--l", "0", "--lambda", "2",
                             "--out", NO_SUCH_OUT, "--cache-dir", str(cache))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {NO_SUCH_OUT}: No such file or directory\n"
        assert list(cache.iterdir()) == []

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == "0.1.0\n"  # the release, not the stamp

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_partition_string(self, capsys):
        assert main(["series", "--l", "0", "--lambda", "1,2"]) == 2

    def test_unparsable_partition_is_usage_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "gram", "--l", "0", "--n", "4", "--p", "2",
                             "--lambda", "2,x", *cache_args(tmp_path))
        assert (code, out) == (2, "")
        assert "argument --lambda: bad partition '2,x'" in err
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("command", [["series"], ["verify", "arm"],
                                         ["roots"], ["bootstrap"]])
    def test_partition_of_l_plus_2(self, tmp_path, capsys, command):
        code, out, err = run(capsys, *command, "--l", "0", "--lambda", "2,1",
                             *cache_args(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "l+2" in err
        assert not (tmp_path / "cache").exists()


class TestInternalFailure:
    def test_runtime_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(l, lam):
            raise RuntimeError("D is not polynomial")

        monkeypatch.setattr("kadaryu.cli.factor_one_cup", broken)
        code, out, err = run(capsys, "series", "--l", "0", "--lambda", "2",
                             *cache_args(tmp_path))
        assert code == 4 and out == ""
        assert err == "error: D is not polynomial\n"


class TestCache:
    def test_repeat_run_is_byte_identical(self, tmp_path, capsys):
        args = ["gram", "--l", "0", "--n", "5", "--p", "3", "--lambda", "2",
                "--det", *cache_args(tmp_path)]
        assert main(list(args)) == 0
        cache = tmp_path / "cache"
        (rec,) = cache.glob("*.json")
        first = rec.read_bytes()
        capsys.readouterr()
        assert main(list(args)) == 0
        assert rec.read_bytes() == first
        out1 = capsys.readouterr().out
        assert main(list(args)) == 0
        assert capsys.readouterr().out == out1

    def test_version_mismatch_recomputes(self, tmp_path, capsys, monkeypatch):
        args = ["series", "--l", "0", "--lambda", "2", *cache_args(tmp_path)]
        assert main(list(args)) == 0
        out1 = capsys.readouterr().out
        cache = tmp_path / "cache"
        (rec,) = cache.glob("*.json")
        assert json.loads(rec.read_text())["version"] == source_stamp()
        monkeypatch.setattr("kadaryu.cli.source_stamp", lambda: "0.0.0-test")
        calls = []
        real = kadaryu.cli.factor_one_cup
        monkeypatch.setattr("kadaryu.cli.factor_one_cup",
                            lambda *a: calls.append(a) or real(*a))
        assert main(list(args)) == 0
        assert capsys.readouterr().out == out1
        assert calls == [(0, (2,))]
        assert json.loads(rec.read_text())["version"] == "0.0.0-test"

    def test_record_under_another_key_is_missing(self, tmp_path):
        cache = str(tmp_path / "cache")
        _put(cache, "a/b", {"v": 1})
        assert cache_get(cache, "a/b") == {"v": 1}
        # "a_b" flattens to the file name of "a/b" but is another key
        assert cache_get(cache, "a_b") is None
        _put(cache, "a_b", {"v": 2})
        assert cache_get(cache, "a_b") == {"v": 2}
        assert len(list((tmp_path / "cache").iterdir())) == 1

    def test_long_key_gets_a_valid_file_name(self, tmp_path):
        cache = str(tmp_path / "cache")
        key = "bootstrap_alphaminpoly:" + ",".join(["-1/3"] * 100)
        _put(cache, key, {"v": 1})
        assert cache_get(cache, key) == {"v": 1}
        (rec,) = (tmp_path / "cache").iterdir()
        assert len(rec.name) < 255 and json.loads(rec.read_text())["key"] == key

    def test_corrupt_record_rebuilds(self, tmp_path, capsys):
        args = ["series", "--l", "0", "--lambda", "1,1", *cache_args(tmp_path)]
        assert main(list(args)) == 0
        out1 = capsys.readouterr().out
        cache = tmp_path / "cache"
        (rec,) = cache.glob("*.json")
        rec.write_text("{ not json")
        assert main(list(args)) == 0
        captured = capsys.readouterr()
        assert "corrupt cache record" in captured.err
        assert captured.out == out1
        # rebuilt and valid again
        assert json.loads(rec.read_text())["payload"]

    @pytest.mark.parametrize("body", ["[]", '"x"', "3"])
    def test_non_object_record_rebuilds(self, tmp_path, capsys, body):
        args = ["series", "--l", "0", "--lambda", "2", *cache_args(tmp_path)]
        assert main(list(args)) == 0
        fresh = capsys.readouterr().out
        (rec,) = (tmp_path / "cache").glob("*.json")
        rec.write_text(body)
        assert main(list(args)) == 0
        captured = capsys.readouterr()
        assert "corrupt cache record" in captured.err
        assert captured.out == fresh
        assert json.loads(rec.read_text())["payload"] == json.loads(fresh)

    def test_non_object_payload_rebuilds(self, tmp_path, capsys):
        # a record with the right key and stamp whose payload is no object
        args = ["roots", "--l", "0", "--lambda", "2", *cache_args(tmp_path)]
        code, fresh, _ = run(capsys, *args)
        (rec,) = (tmp_path / "cache").glob("*.json")
        rec.write_text(json.dumps({**json.loads(rec.read_text()), "payload": [1, 2]}))
        again = run(capsys, *args)
        assert again[:2] == (code, fresh) and "corrupt cache record" in again[2]
        assert json.loads(rec.read_text())["payload"] == json.loads(fresh)

    def test_unwritable_cache_degrades(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["series", "--l", "0", "--lambda", "2",
                     "--cache-dir", str(blocker)])
        captured = capsys.readouterr()
        assert code == 0
        assert "not writable" in captured.err
        assert json.loads(captured.out)["l"] == 0

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        cache = tmp_path / "cache"
        with pytest.raises(TypeError):  # a set is not JSON
            _put(str(cache), "bad", {1, 2})
        assert list(cache.iterdir()) == []


PACKAGE = Path(kadaryu.__file__).parent


class TestStamp:
    def test_one_changed_byte_changes_the_stamp(self, tmp_path):
        same, edited = tmp_path / "same", tmp_path / "edited"
        for d in (same, edited):
            d.mkdir()
            for f in PACKAGE.glob("*.py"):
                shutil.copyfile(f, d / f.name)
        assert source_stamp(str(same)) == source_stamp()
        blob = bytearray((edited / "claims.py").read_bytes())
        blob[-2] ^= 1
        (edited / "claims.py").write_bytes(bytes(blob))
        stamp = source_stamp(str(edited))
        assert stamp != source_stamp() and stamp.startswith("0.1.0+")

    def test_cli_does_not_load_hashlib(self):
        # hashlib loads OpenSSL, which adds megabytes to every engine process
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
        code = "import sys, kadaryu.cli; print('_hashlib' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "False\n"


# (argv, the cli name of its producer); each run is a verdict
VERDICTS = {
    "verify": (["verify", "arm", "--l", "0", "--lambda", "2", "--max-p", "3",
                "--m", "1"], "arm_verify"),
    "roots": (["roots", "--l", "0", "--lambda", "1,1", "--n", "6"],
              "verify_root_layout"),
    "divisibility": (["bootstrap", "--l", "0", "--lambda", "2", "--n", "5"],
                     "divisibility_check"),
    "rational": (["bootstrap", "--l", "0", "--lambda", "2", "--n", "4",
                  "--alpha", "1/2"], "submodule_verify"),
    "minpoly": (["bootstrap", "--l", "0", "--lambda", "2", "--n", "4",
                 "--alpha", "minpoly:-4,1,1"], "submodule_verify"),
    "target": (["bootstrap", "--l", "0", "--lambda", "1,1", "--n", "4",
                "--alpha", "1", "--target", "2"], "submodule_verify"),
}


def refuse(monkeypatch, name):
    def recomputed(*args, **kwargs):
        raise AssertionError(f"{name} recomputed")

    monkeypatch.setattr(f"kadaryu.cli.{name}", recomputed)


class TestCachedVerdicts:
    @pytest.mark.parametrize("case", sorted(VERDICTS))
    def test_second_run_is_served_from_the_record(self, tmp_path, capsys,
                                                  monkeypatch, case):
        argv, producer = VERDICTS[case]
        first = run(capsys, *argv, *cache_args(tmp_path))
        (rec,) = (tmp_path / "cache").glob("*.json")
        blob = rec.read_bytes()
        refuse(monkeypatch, producer)
        assert run(capsys, *argv, *cache_args(tmp_path)) == first
        assert rec.read_bytes() == blob

    def test_failed_arm_is_served_with_exit_1(self, tmp_path, capsys, monkeypatch):
        argv, _ = VERDICTS["verify"]
        real = kadaryu.cli.arm_verify

        def mismatch(*args):
            first, *rest = real(*args)
            return [first._replace(equal=False), *rest]

        monkeypatch.setattr("kadaryu.cli.arm_verify", mismatch)
        first = run(capsys, *argv, *cache_args(tmp_path))
        assert first[0] == 1
        refuse(monkeypatch, "arm_verify")
        assert run(capsys, *argv, *cache_args(tmp_path)) == first

    @pytest.mark.parametrize("error,code", [(ValueError, 2), (RuntimeError, 4)])
    @pytest.mark.parametrize("case", ["verify", "roots", "divisibility", "minpoly"])
    def test_errors_write_no_record(self, tmp_path, capsys, monkeypatch,
                                    case, error, code):
        argv, producer = VERDICTS[case]

        def broken(*args, **kwargs):
            raise error("broken")

        monkeypatch.setattr(f"kadaryu.cli.{producer}", broken)
        assert run(capsys, *argv, *cache_args(tmp_path)) == (code, "", "error: broken\n")
        assert not (tmp_path / "cache").exists()

    def test_reducible_modulus_writes_no_record(self, tmp_path, capsys):
        # kept as it is: a traceback rather than a usage error
        with pytest.raises(ZeroDivisionError):
            main(["bootstrap", "--l", "0", "--lambda", "2", "--n", "4",
                  "--alpha", "minpoly:-1,0,1", *cache_args(tmp_path)])
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("default,explicit,producer", [
        (["verify", "arm", "--l", "-1", "--lambda", "1"],
         ["--max-p", "5", "--m", "1"], "arm_verify"),
        (["roots", "--l", "0", "--lambda", "2"], ["--n", "5"], "verify_root_layout"),
        (["bootstrap", "--l", "0", "--lambda", "2"], ["--n", "4"],
         "divisibility_check"),
    ], ids=["verify", "roots", "bootstrap"])
    def test_default_and_explicit_bounds_share_a_record(
            self, tmp_path, capsys, monkeypatch, default, explicit, producer):
        first = run(capsys, *default, *cache_args(tmp_path))
        refuse(monkeypatch, producer)
        assert run(capsys, *default, *explicit, *cache_args(tmp_path)) == first
        assert len(list((tmp_path / "cache").glob("*.json"))) == 1


# irreducible over Q: degree one, or degree two and three with no rational
# root; a reducible modulus such as minpoly:-1,0,1 ends in a traceback
IRREDUCIBLE = ["minpoly:-2,1", "minpoly:-2,0,1", "minpoly:1,0,1", "minpoly:1,1,1",
               "minpoly:-1,-1,1", "minpoly:-4,1,1", "minpoly:-3,0,0,1"]
FORMATS = {"gram": ["json", "csv"], "series": ["json", "csv"], "rollet": ["json", "dot"]}


@st.composite
def argvs(draw):
    """An argument list in the parser's grammar, labels kept small enough to
    run in-process: l <= 2, gram n <= 6, rollet max-n <= 5, verify m <= 2
    (m = 2 at l = 1 only with max-p = l+2, and max-p <= l+4 at l = 2),
    roots n <= l+10, bootstrap n <= l+6.  Now and then a value is out of
    range (l = -2, p of the wrong parity, a partition of the wrong size,
    m < 1, a rank too small, a format the command does not honour), which
    takes a usage-error path.  One time in eight the output goes to an
    --out file in a directory that does not exist."""
    command = draw(st.sampled_from(["gram", "series", "rollet", "verify", "roots", "bootstrap"]))

    def mostly(good, bad):
        """Values from good, or one time in eight from bad."""
        return st.sampled_from([good] * 7 + [bad]).flatmap(lambda values: values)

    def option(flag, values):
        """[flag=value] (so that -3/2 is a value), or nothing (the default)."""
        return draw(st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"])))

    def lam(size):
        parts = partitions(draw(mostly(st.just(max(size, 0)), st.integers(0, 4))))
        return ",".join(map(str, draw(st.sampled_from(parts))))

    l = draw(mostly(st.integers(-1, 2), st.just(-2)))
    argv = [command] if command != "verify" else [command, "arm"]
    argv += ["--l", str(l)]
    if command == "gram":
        n = draw(st.integers(0, 6))
        p = draw(mostly(st.sampled_from(range(n % 2, n + 1, 2)), st.integers(-1, n)))
        argv += ["--n", str(n), "--p", str(p), "--lambda", lam(min(p, l + 2))]
        argv += draw(st.sampled_from([[], ["--det"]]))
    elif command == "rollet":
        bound = mostly(st.integers(0, 5), st.just(-1))
        argv += option("--max-n", bound) + option("--max-p", bound)
        argv += draw(st.lists(st.sampled_from(["det", "mvf"]), max_size=2).map(
            lambda ds: [a for d in ds for a in ("--decorate", d)]))
    else:
        argv += ["--lambda", lam(l + 2)]
    if command == "verify":
        m = draw(mostly(st.integers(1, 2 if l <= 1 else 1), st.integers(-1, 0)))
        top = l + 2 if (l, m) == (1, 2) else l + 4 if l == 2 else l + 6
        argv += ["--m", str(m), "--max-p", str(draw(mostly(st.integers(l + 2, top),
                                                            st.integers(l, l + 1))))]
    elif command == "roots":
        argv += option("--n", mostly(st.integers(l + 4, l + 10), st.integers(0, l + 3)))
    elif command == "bootstrap":
        argv += option("--n", mostly(st.integers(max(l + 4, 2), l + 6), st.integers(0, l + 3)))
        rational = st.fractions(min_value=-4, max_value=4, max_denominator=4)
        argv += option("--alpha", st.one_of(rational, st.sampled_from(IRREDUCIBLE)))
        argv += option("--target", st.integers(0, 4).flatmap(
            lambda r: st.sampled_from(partitions(r))).map(lambda t: ",".join(map(str, t))))
    good = FORMATS.get(command, ["json"])
    argv += draw(st.sampled_from([[]] * 7 + [["--out", NO_SUCH_OUT]]))
    return argv + option("--format", mostly(st.sampled_from(good),
                                            st.just("csv" if "dot" in good else "dot")))


@pytest.fixture(scope="module")
def fuzz_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("cache")


class TestArgvFuzz:
    @given(argvs())
    @settings(max_examples=100, deadline=None)
    def test_exit_codes_errors_and_records(self, fuzz_cache, argv):
        """main returns 0, 1, 2 or 4 and never raises; a run that returns 2
        or 4 ends stderr with an error line and writes no cache record, and
        a run with an --out that cannot be written returns one of them.
        The cache is shared, so later runs also take the hit paths."""
        before = sorted(fuzz_cache.iterdir())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--cache-dir", str(fuzz_cache)])
        assert code in ((2, 4) if "--out" in argv else (0, 1, 2, 4)), argv
        if code in (2, 4):
            assert "error: " in err.getvalue().splitlines()[-1], argv
            assert sorted(fuzz_cache.iterdir()) == before, argv
