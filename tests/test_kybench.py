"""The benchmark harness still runs against the engine, and the engine
still prints what the harness saw.

kybench/ drives the package through its public names; these tests run its
own checks and its stage-by-stage replay, so a rename in the engine that
breaks the harness fails here rather than in a benchmark run.  Every
command of its workloads is also run in-process, cold and warm, against the
exit code and the sha256 of its stdout pinned in
tests/data/kybench_payloads.json.
"""

import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kadaryu.cli import main

ROOT = Path(__file__).resolve().parent.parent
KYBENCH = ROOT / "kybench"


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(KYBENCH)]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def test_selftest_passes():
    proc = run_python(str(KYBENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stderr


def test_traced_imports():
    proc = run_python("-c", "import traced")
    assert proc.returncode == 0, proc.stderr


def test_traced_replay_prints_the_untraced_payload(tmp_path, capsys):
    """The replay runs every stage without an error span, then prints what
    cli.main prints; its spans cover the walk, mvf and export layers."""
    names = set()
    for i, text in enumerate(["rollet --l 0 --max-n 4 --decorate det --decorate mvf",
                              "verify arm --l 0 --lambda 2 --max-p 4 --m 1"]):
        argv = shlex.split(text)
        spans = tmp_path / f"spans-{i}.jsonl"
        proc = run_python(str(KYBENCH / "traced.py"), "0", str(spans), "1", "--",
                          *argv, "--cache-dir", str(tmp_path / "traced"))
        assert proc.returncode == 0, proc.stderr
        assert main(argv + ["--cache-dir", str(tmp_path / "plain")]) == 0
        assert proc.stdout == capsys.readouterr().out
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        assert [r for r in records if "error" in r["counts"]] == []
        names |= {r["name"] for r in records}
    assert {"rollet.export", "rollet.mvf", "rollet.walk"} <= names


def load_run():
    spec = importlib.util.spec_from_file_location("kybench_run", KYBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_payloads_are_pinned(tmp_path, capsys):
    """Cold and warm, each command prints the pinned payload with the pinned
    exit code; the kept failure still ends in ZeroDivisionError."""
    run = load_run()
    pinned = json.loads((ROOT / "tests" / "data" / "kybench_payloads.json").read_text())
    texts = [text for cmds in run.WORKLOADS.values() for text in cmds]
    assert sorted(pinned) == sorted(t for t in texts if t != run.KEPT_FAILURE)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for name in ("cold", "warm"):
        for text in texts:
            argv = shlex.split(text) + cache
            if text == run.KEPT_FAILURE:
                with pytest.raises(ZeroDivisionError):
                    main(argv)
                assert capsys.readouterr().out == ""
                continue
            code = main(argv)
            out = capsys.readouterr().out
            assert [code, hashlib.sha256(out.encode()).hexdigest()] == pinned[text], (name, text)
