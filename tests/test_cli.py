"""Command-line driver: subcommands, exit codes, and the result cache."""

import json
import os

import pytest

from kadaryu import gram
from kadaryu.cli import cache_get_put, main
from kadaryu.exactmath import Polynomial
from kadaryu.gram import one_cup_det


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

        def no_det(m):
            raise RuntimeError("determinant recomputed")

        gram.gram_matrix.cache_clear()  # drop the in-process determinant too
        monkeypatch.setattr(gram, "det_poly", no_det)
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


class TestVerify:
    def test_arm_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "arm", "--l", "0", "--lambda", "2",
                           "--max-p", "4", "--m", "1", *cache_args(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] and all(r["equal"] for r in payload["records"])


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


class TestBootstrap:
    def test_divisibility(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bootstrap", "--l", "0", "--lambda", "2",
                           "--n", "6", *cache_args(tmp_path))
        assert code == 0
        assert json.loads(out)["status"] == "pass"

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

    @pytest.mark.parametrize("alpha", ["1/0", "minpoly:1/0,1"])
    def test_zero_denominator_is_usage_error(self, tmp_path, capsys, alpha):
        code, out, err = run(capsys, "bootstrap", "--l", "0", "--lambda", "2",
                             "--n", "4", "--alpha", alpha, *cache_args(tmp_path))
        assert code == 2 and out == ""
        assert "argument --alpha: bad value" in err


class TestUsage:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_partition_string(self, capsys):
        assert main(["series", "--l", "0", "--lambda", "1,2"]) == 2

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
        cache = tmp_path / "cache"
        (rec,) = cache.glob("*.json")
        stored = json.loads(rec.read_text())
        assert stored["version"]
        monkeypatch.setattr("kadaryu.cli.ENGINE_VERSION", "0.0.0-test")
        capsys.readouterr()
        assert main(list(args)) == 0
        assert json.loads(rec.read_text())["version"] == "0.0.0-test"

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

    def test_unwritable_cache_degrades(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        import kadaryu.cli as climod
        climod._warned_unwritable = False
        code = main(["series", "--l", "0", "--lambda", "2",
                     "--cache-dir", str(blocker)])
        captured = capsys.readouterr()
        assert code == 0
        assert "not writable" in captured.err
        assert json.loads(captured.out)["l"] == 0

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        cache = tmp_path / "cache"
        with pytest.raises(TypeError):  # a set is not JSON
            cache_get_put(str(cache), "bad", lambda: {1, 2})
        assert list(cache.iterdir()) == []
