"""Replay one kadaryu CLI command stage by stage, with a span per stage.

    python3 kybench/traced.py CMD_ID SPANS_FILE STAGE(0|1) -- ARGV...

Run with PYTHONPATH=src.  The public functions are called in dependency
order -- basis, Specht data, assembly, determinant, then factorisation,
solve, walk or layout -- so that each stage's work is timed on its own, and
then cli.main(ARGV) runs with every stage already computed and prints the
same payload as the untraced command.  Results the CLI would recompute
(reports, the arm comparison, the JSON export, walk counts) are memoised
in front of it, and the cache is wrapped to time reads and writes.  With
STAGE=0 only cli.main runs, as for a command whose cache record exists.
The spans are written to SPANS_FILE as JSON lines when the process ends.
"""

from __future__ import annotations

import os
import sys

from kadaryu import cli, rollet
from kadaryu.diagrams import half_basis, one_cup_basis
from kadaryu.gram import ModuleLabel, factor_one_cup, gram_det, gram_matrix
from kadaryu.morphisms import solve_xi
from kadaryu.symmetric import specht_basis, specht_gram, young_idempotent

from checks import neighbours
from spans import Tracer


def memoise(fn, key):
    results = {}

    def wrapper(*args, **kwargs):
        k = key(*args, **kwargs)
        if k not in results:
            results[k] = fn(*args, **kwargs)
        return results[k]

    return wrapper


class Stager:
    def __init__(self, tracer: Tracer):
        self.span = tracer.span
        self.labels: set[ModuleLabel] = set()
        self.dets: set[ModuleLabel] = set()

    def module(self, label: ModuleLabel, det: bool = True) -> None:
        """Basis, Specht data, assembly and (optionally) the determinant."""
        if label not in self.labels:
            self.labels.add(label)
            l, n, p, lam = label.l, label.n, label.p, label.lam
            with self.span("diagrams.basis") as c:
                half = one_cup_basis(l, n) if p == n - 2 else half_basis(l, n, p)
                c["half_diagrams"] = len(half)
            with self.span("symmetric.specht"):
                young_idempotent(lam)
                specht_basis(lam)
            with self.span("gram.assemble") as c:
                inst = gram_matrix(label)
                matrix = inst.matrix
            c.update(matrices=1, dim=inst.dim,
                     nonzero=sum(1 for row in matrix.entries for e in row if e))
        if det and label not in self.dets:
            self.dets.add(label)
            points = gram_matrix(label).matrix.degree_bound() + 1
            with self.span("exactmath.det", calls=1, points=points):
                gram_det(label)

    def factor(self, l: int, lam: tuple[int, ...]) -> None:
        for n in (l + 4, l + 5):
            self.module(ModuleLabel(l, n, n - 2, lam))
        with self.span("gram.factor"):
            factor_one_cup(l, lam)

    # -- one method per subcommand ------------------------------------------

    def gram(self, a) -> None:
        self.module(ModuleLabel(a.l, a.n, a.p, a.lam))

    def series(self, a) -> None:
        self.factor(a.l, a.lam)

    def rollet(self, a) -> None:
        p_max = a.max_p if a.max_p is not None else a.max_n
        decor = a.decorate or []
        graph = rollet.RolletGraph(a.l, p_max)
        fibres = [(v, n) for v in graph.vertices for n in range(a.max_n + 1)
                  if n >= v[0] and (n - v[0]) % 2 == 0]
        for (p, lam), n in fibres:
            self.module(ModuleLabel(a.l, n, p, lam))
        if "mvf" in decor:
            with self.span("rollet.mvf"):
                for v, n in fibres:
                    if n > v[0]:
                        rollet.marginal_v(a.l, v, n)
        with self.span("rollet.export"):
            cli.export_json(graph, n_values=range(a.max_n + 1),
                            decorate_det="det" in decor, decorate_mvf="mvf" in decor)

    def verify(self, a) -> None:
        l, lam = a.l, a.lam
        records = [(p, p + 2 * m) for p in range(l + 2, a.max_p + 1)
                   for m in range(1, a.m + 1)]
        for p, n in records:
            self.module(ModuleLabel(l, n, p, lam))
            for q, mu in neighbours(l, (p, lam)):
                if q <= n - 1:
                    self.module(ModuleLabel(l, n - 1, q, mu))
        self.factor(l, lam)
        with self.span("rollet.walk"):
            for p, n in records:
                rollet.dimension(l, n - 1, (p + 1, lam))
        with self.span("rollet.mvf"):
            cli.arm_verify(l, lam, range(l + 2, a.max_p + 1), range(1, a.m + 1))

    def roots(self, a) -> None:
        with self.span("roots.layout") as c:
            report = cli.verify_root_layout(a.l, a.lam, a.n - a.l - 4)
        c["claims"] = len(report["claims"])

    def bootstrap(self, a) -> None:
        l, lam, n = a.l, a.lam, a.n
        if a.alpha is not None:
            self.module(ModuleLabel(l, n, n - 2, a.target or lam))
            with self.span("morphisms.submodule"):
                cli.submodule_verify(l, lam, n, a.alpha, target=a.target)
            return
        with self.span("symmetric.specht"):
            specht_gram(lam)
        for k in range(l + 6, n + 1):
            self.module(ModuleLabel(l, k, k - 2, lam), det=False)
        self.factor(l, lam)
        with self.span("morphisms.solve"):
            for k in range(l + 4, min(n, l + 5) + 1):
                solve_xi(l, lam, k)
        with self.span("morphisms.step"):
            cli.divisibility_check(l, lam, n)


def instrument(tracer: Tracer) -> None:
    """Time the cache from outside, and memoise what cli.main recomputes."""
    get_put = cli.cache_get_put

    def traced_cache(cache_dir, key, producer):
        path = os.path.join(cache_dir, key + ".json")
        hit = os.path.exists(path)

        def produce():
            with tracer.span("cli.produce"):
                return producer()

        with tracer.span("cli.cache_get" if hit else "cli.cache_put", records=1) as c:
            payload = get_put(cache_dir, key, produce)
        c["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0
        return payload

    cli.cache_get_put = traced_cache
    cli.verify_root_layout = memoise(cli.verify_root_layout, lambda *a: a)
    cli.divisibility_check = memoise(cli.divisibility_check, lambda *a: a)
    cli.arm_verify = memoise(cli.arm_verify, lambda *a: a)
    cli.submodule_verify = memoise(
        cli.submodule_verify, lambda l, lam, n, alpha, target=None: (l, lam, n, alpha, target))
    cli.export_json = memoise(
        cli.export_json, lambda g, n_values=(), decorate_det=True, decorate_mvf=False:
        (g.l, g.p_max, tuple(n_values), decorate_det, decorate_mvf))
    rollet.dimension = memoise(rollet.dimension, lambda *a: a)
    rollet.marginal_v = memoise(rollet.marginal_v, lambda *a: a)


def main(argv: list[str]) -> int:
    cmd_id, spans_file, stage = int(argv[0]), argv[1], argv[2] == "1"
    cli_argv = argv[argv.index("--") + 1:]
    tracer = Tracer(cmd_id)
    instrument(tracer)
    try:
        with tracer.span("command"):
            if stage:
                args = cli._build_parser().parse_args(cli_argv)
                try:
                    getattr(Stager(tracer), args.command)(args)
                except Exception:
                    pass  # the stage's span records the error; cli.main meets it again
            with tracer.span("cli.main"):
                return cli.main(cli_argv)
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
