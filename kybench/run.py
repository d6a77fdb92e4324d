"""Benchmark of the kadaryu command-line engine, as a researcher drives it.

    python3 kybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nothing needs installing.  Each command
of the workload runs as a fresh `python -m kadaryu.cli` process with
PYTHONPATH=src against a private cache directory, one process at a time
(a closed loop with one client).  A round runs the command list twice:
against an empty cache ("cold"), then against the cache the first pass
filled ("warm").  Rounds repeat until S seconds have passed, three at
least; a pass time is the sum over its commands of each command's median
over the rounds.  With --trace 1 one more round replays
every command stage by stage through kybench/traced.py and the per-layer
metrics come from its spans.  The seed picks the command order, the check
prime and points, and the sampled rollet decorations.

Every payload of the first cold pass is checked by kybench/checks.py;
every other pass must print byte-identical output.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".kybench"

KEPT_FAILURE = "bootstrap --l 0 --lambda 2 --n 4 --alpha minpoly:-1,0,1"

WORKLOADS = {
    # a ladder of Gram determinants, dimensions 14 to 42: exactmath.det_poly
    # does nearly all the work, most of it on Temperley-Lieb n = 9; two labels
    # also ask for the full matrix, whose large cache records sit next to
    # the small det-only ones
    "gram-det": [
        "gram --l -1 --n 8 --p 0 --lambda '' --det",
        "gram --l -1 --n 8 --p 2 --lambda 1 --det",
        "gram --l -1 --n 9 --p 1 --lambda 1 --det",
        "gram --l 0 --n 7 --p 3 --lambda 2 --det",
        "gram --l 1 --n 6 --p 2 --lambda 2 --det",
        "gram --l 2 --n 6 --p 4 --lambda 3,1 --det",
        "gram --l 2 --n 6 --p 4 --lambda 2,2 --det",
        "gram --l -1 --n 8 --p 2 --lambda 1",
        "gram --l 2 --n 6 --p 4 --lambda 2,2",
    ],
    # the same determinant layer used differently: about a hundred small
    # determinants, l = 2 sigma-tables, RationalFunction gcds and JSON
    # export; the arm verifications are not cached and rerun when warm
    "rollet-arm": [
        "rollet --l 0 --max-n 6 --decorate det --decorate mvf",
        "rollet --l 1 --max-n 5 --decorate det --decorate mvf",
        "rollet --l 2 --max-n 5 --decorate det --decorate mvf",
        "series --l 2 --lambda 4",
        "series --l 2 --lambda 3,1",
        "series --l 2 --lambda 2,2",
        "series --l 2 --lambda 1,1,1,1",
        "verify arm --l 0 --lambda 2 --max-p 5 --m 2",
        "verify arm --l 1 --lambda 2,1 --max-p 6 --m 1",
        "verify arm --l 2 --lambda 2,2 --max-p 6 --m 1",
    ],
    # certificates: xi solves over Q(a) and the step recursion, submodule
    # certificates over Q[a]/(m), Sturm and cos-enclosure root layouts;
    # none of these is cached, and determinants do little of the work
    "certify": [
        "bootstrap --l 1 --lambda 2,1 --n 8",
        "bootstrap --l 2 --lambda 4 --n 8",
        "bootstrap --l 0 --lambda 2 --n 5 --alpha minpoly:2,-1,-5,1,1",
        "bootstrap --l 2 --lambda 4 --n 7 --alpha minpoly:-6,-23,1,7,1",
        KEPT_FAILURE,
        "roots --l 5 --lambda 6,1 --n 17",
        "roots --l 3 --lambda 5 --n 19",
    ],
}

CACHED = {"gram", "series", "rollet"}  # subcommands that keep cache records
SETUP_LAUNCHES = 3  # before each round and after the last, so they span the run
MIN_ROUNDS = 3  # the median of a command's times needs three to drop a burst
TIMEOUT_S = 150


class Outcome(NamedTuple):
    rc: int | None  # None when the command timed out
    stdout: str
    stderr: str
    wall: float
    cpu: float


class Engine:
    """Starts engine processes one at a time and accounts for them."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def launch(self, argv: list[str]) -> Outcome:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                                  env=self.env, cwd=self.work, timeout=TIMEOUT_S)
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            rc, out, err = None, "", f"timed out after {TIMEOUT_S} s"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return Outcome(rc, out, err, wall, cpu)

    def time_setup(self, launches: int) -> list[float]:
        """Start-up times of fresh engine processes (interpreter plus
        `import kadaryu`)."""
        times = []
        for _ in range(launches):
            out = self.launch(["-m", "kadaryu.cli", "--version"])
            if out.rc != 0:
                raise SystemExit(f"error: kadaryu --version failed: {out.stderr.strip()}")
            times.append(out.wall)
        return times

    def round(self, cmds: list[list[str]], tag: str, traced: bool) -> dict:
        """Cold pass then warm pass over one fresh cache directory."""
        cache = self.work / f"cache-{tag}"
        passes = {}
        for name in ("cold", "warm"):
            outs = []
            start = time.perf_counter()
            for i, argv in enumerate(cmds):
                full = argv + ["--cache-dir", str(cache)]
                if traced:
                    stage = name == "cold" or argv[0] not in CACHED
                    spans = self.work / f"spans-{name}-{i}.jsonl"
                    cmd_id = i if name == "cold" else len(cmds) + i
                    outs.append(self.launch([str(HERE / "traced.py"), str(cmd_id), str(spans),
                                             "1" if stage else "0", "--", *full]))
                else:
                    outs.append(self.launch(["-m", "kadaryu.cli", *full]))
            passes[name] = (time.perf_counter() - start, outs)
        shutil.rmtree(cache, ignore_errors=True)
        return passes


def failed(cmd: str, out: Outcome) -> bool:
    if cmd == KEPT_FAILURE:
        # a reducible modulus is a usage error: exit 2 and one line
        lines = out.stderr.strip().splitlines()
        return not (out.rc == 2 and not out.stdout and len(lines) == 1
                    and lines[0].startswith("error:"))
    return out.rc != 0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kadaryu" / "cli.py").is_file():
        print(f"error: no engine source at {SRC}/kadaryu; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import ModCheck, check_payload
    from spans import layer_metrics

    texts = list(WORKLOADS[args.workload])
    random.Random(f"order-{args.seed}").shuffle(texts)
    cmds = [shlex.split(t) for t in texts]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        engine = Engine(work)
        engine.time_setup(1)  # compiles the package's bytecode
        setup, rounds = [], []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            setup += engine.time_setup(SETUP_LAUNCHES)
            rounds.append(engine.round(cmds, str(len(rounds)), traced=False))
        setup += engine.time_setup(SETUP_LAUNCHES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        traced = engine.round(cmds, "traced", traced=True) if args.trace else None
        spans = []
        if traced:
            for name in ("cold", "warm"):
                for i in range(len(cmds)):
                    path = work / f"spans-{name}-{i}.jsonl"
                    if path.exists():
                        spans += [json.loads(line) for line in path.read_text().splitlines()]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # -- correctness -------------------------------------------------------
    problems = []
    first = rounds[0]["cold"][1]
    mc = ModCheck(args.seed)
    sample = random.Random(f"sample-{args.seed}")
    for text, argv, out in zip(texts, cmds, first):
        if failed(text, out):
            continue
        try:
            check_payload(argv, out.stdout, mc, sample)
        except Exception as exc:  # a malformed payload is a wrong payload
            problems.append(f"{text}: {type(exc).__name__}: {exc}")
    attempted = n_failed = 0
    for k, rnd in enumerate(rounds + ([traced] if traced else [])):
        for name, (_wall, outs) in rnd.items():
            for text, a, b in zip(texts, first, outs):
                attempted += 1
                n_failed += failed(text, b)
                if (a.rc, a.stdout) != (b.rc, b.stdout):
                    problems.append(f"{text}: round {k} {name} output differs from the first")
    for t, o in zip(texts, first):
        if failed(t, o):
            print(f"failed: {t} (exit {o.rc}): {o.stderr.strip().splitlines()[-1:]}",
                  file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    # -- metrics -----------------------------------------------------------
    def pass_s(name: str, field: str = "wall") -> float:
        """Sum over commands of each command's median over the rounds."""
        return sum(statistics.median(getattr(r[name][1][i], field) for r in rounds)
                   for i in range(len(cmds)))

    if args.trace:
        layers = layer_metrics(spans)
        units = {k: ("count" if not k.endswith("_s") else "s") for k in layers}
        units["cli.cache_bytes"] = "bytes"
        metrics = {k: metric(v, units[k]) for k, v in layers.items()}
        metrics["engine.cpu_s"] = metric(pass_s("cold", "cpu"), "s")
        metrics["trace.overhead_s"] = metric(
            traced["cold"][0] + traced["warm"][0] - pass_s("cold") - pass_s("warm"), "s")
        with open(OUT / f"trace-{args.workload}-{args.seed}.jsonl", "w") as fh:
            fh.writelines(json.dumps(s, sort_keys=True) + "\n" for s in spans)
    else:
        metrics = {"cold_s": metric(pass_s("cold"), "s"), "warm_s": metric(pass_s("warm"), "s"),
                   "setup_s": metric(statistics.median(setup), "s"), "peak_rss_mb": metric(peak_rss_mb, "MB")}
    result = {"correct": not problems, "attempted": attempted, "failed": n_failed,
              "metrics": metrics}
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(cmds)} commands cold and warm{' plus a traced round' if traced else ''}; "
          f"{attempted} operations, {n_failed} failed")
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:>14.6g} {m['unit']}")
    line = json.dumps(result, sort_keys=True)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
