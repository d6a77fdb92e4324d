"""Command-line driver: exact module data, verification reports, exports.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error
(including an --out file that cannot be written), 4 an internal invariant
failed (RuntimeError: a failed determinant check, a non-polynomial D, a
height-closure fault), which is a bug in the engine and not a verdict.

Every subcommand but `rollet --format dot` caches its payload as one JSON
record per file under the directory named by KY_CACHE_DIR (default
".ky-cache"): gram, series, rollet, and the verdicts of verify, roots and
bootstrap.  A record is keyed by the resolved inputs (defaults applied) and
stamped with the engine stamp, __version__ plus a CRC-32 of the package's
source files, so any edit to the engine recomputes it.  A cached verdict
exits with the code its fresh run had, since the code is read off the
payload.  Writes are atomic (write to a temp file, then rename), so racing
invocations at worst recompute the same payload.

Each subcommand validates its arguments and returns its plan: the record
key (None for the uncached `rollet --format dot`), the producer, and the
renderer of the output text and exit code.  main alone runs a plan: it
looks up or produces the payload, emits the text, then writes the run's
one record, so a run that ends in an error writes none.

This module imports only the standard library at the top: the engine
modules load on a cache miss, so a cache hit (and --version) loads only
kadaryu and kadaryu.cli, plus kadaryu.exactmath where a Polynomial prints
the output (--format csv).  fractions loads only to parse --alpha, and a
miss loads no dataclasses: the engine's value types are NamedTuples.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import re
import sys
import tempfile
import zlib

from . import __version__


def _lazy(module: str, name: str):
    """A stand-in for `module.name` that imports the module on its first
    call, so that a cache hit loads no engine module."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)

    return call


# the producers of the cached payloads; module-level names, so that they
# can be replaced from outside (tests, kybench/traced.py)
factor_one_cup = _lazy(".gram", "factor_one_cup")
arm_verify = _lazy(".rollet", "arm_verify")
export_json = _lazy(".rollet", "export_json")
verify_root_layout = _lazy(".roots", "verify_root_layout")
divisibility_check = _lazy(".morphisms", "divisibility_check")
submodule_verify = _lazy(".morphisms", "submodule_verify")


def _parse_partition(s: str) -> tuple[int, ...]:
    s = s.strip()
    if not s:
        return ()
    try:
        parts = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad partition {s!r}: use e.g. 2,1")
    if any(a < b for a, b in zip(parts, parts[1:])) or any(a <= 0 for a in parts):
        raise argparse.ArgumentTypeError(
            f"bad partition {s!r}: parts must be positive and weakly decreasing")
    return parts


def _parse_alpha(s: str):
    """A rational value "p/q" as a Fraction, or "minpoly:c0,c1,..." for an
    algebraic one as the tuple of its coefficients, trailing zeros stripped
    (morphisms turns it into a Polynomial on a cache miss)."""
    from fractions import Fraction
    try:
        if s.startswith("minpoly:"):
            coeffs = [Fraction(x) for x in s[len("minpoly:"):].split(",")]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            return tuple(coeffs)
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"bad value {s!r}: use p/q or minpoly:c0,c1,... with nonzero denominators")


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def source_stamp(package_dir: str = os.path.dirname(os.path.abspath(__file__))) -> str:
    """__version__ plus a CRC-32 over each sorted *.py file name in
    `package_dir` and its bytes: the stamp of every cache record.  (zlib,
    not hashlib: importing hashlib loads OpenSSL into every process.)"""
    crc = 0
    for name in sorted(f for f in os.listdir(package_dir) if f.endswith(".py")):
        with open(os.path.join(package_dir, name), "rb") as fh:
            crc = zlib.crc32(fh.read(), zlib.crc32(name.encode(), crc))
    return f"{__version__}+{crc:08x}"


def _record_path(cache_dir: str, key: str) -> str:
    """The record file of `key`: every character outside [A-Za-z0-9_.,:+-]
    becomes "_", and a name over 200 characters is cut and suffixed with the
    CRC-32 of the whole key.  Keys that flatten alike are told apart by the
    key stored in the record."""
    name = re.sub(r"[^A-Za-z0-9_.,:+-]", "_", key)
    if len(name) > 200:
        name = f"{name[:180]}_{zlib.crc32(key.encode()):08x}"
    return os.path.join(cache_dir, name + ".json")


def cache_get(cache_dir: str, key: str):
    """The payload of the record under `key`, or None when there is none.

    A record stored under another key or with another engine stamp counts
    as missing; a corrupt one (unreadable, or it or its payload not a JSON
    object) is reported with a warning and counts as missing too.
    """
    path = _record_path(cache_dir, key)
    try:
        with open(path) as fh:
            rec = json.load(fh)
        if not isinstance(rec, dict) or not isinstance(rec.get("payload", {}), dict):
            raise ValueError("record or its payload is not a JSON object")
        if (rec.get("key") == key and rec.get("version") == source_stamp()
                and "payload" in rec):
            return rec["payload"]
    except FileNotFoundError:
        pass
    except (json.JSONDecodeError, OSError, ValueError):
        print(f"warning: corrupt cache record {path}, recomputing", file=sys.stderr)
    return None


def cache_get_put(cache_dir: str, key: str, producer):
    """The payload under `key`, or the producer's on a miss; main, not
    this, writes the record once the run's output is out."""
    payload = cache_get(cache_dir, key)
    return producer() if payload is None else payload


def _put(cache_dir: str, key: str, payload) -> None:
    """Persist one record.  An unwritable directory degrades to
    compute-without-persist with a warning.  A failed write never leaves
    its temp file behind; errors other than OSError propagate."""
    rec = {"key": key, "version": source_stamp(), "payload": payload}
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(rec, sort_keys=True))  # json.dump streams in pure Python
        os.replace(tmp, _record_path(cache_dir, key))
    except OSError:
        print(f"warning: cache directory {cache_dir} not writable; "
              "results will not be persisted", file=sys.stderr)
    finally:
        # any failure before the rename (OSError or not) drops the temp file
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(args, text: str):
    if not args.out:
        print(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None


def _json(payload: dict, passed: bool = True) -> tuple[str, int]:
    """The output of a JSON payload, and its exit code: 1 if a claim failed."""
    return json.dumps(payload, indent=2, sort_keys=True), 0 if passed else 1


def _verdict(report: dict) -> tuple[str, int]:
    return _json(report, report["status"] == "pass")


def _lam_key(lam) -> str:
    return "-".join(map(str, lam))


def _cmd_gram(args):
    # the key ModuleLabel.key() gives, built without loading the engine; the
    # label itself (and its checks) is only needed on a miss
    key = f"gram_l{args.l}_n{args.n}_p{args.p}_lam{_lam_key(args.lam)}"

    def instance():
        from .gram import ModuleLabel, gram_matrix
        return gram_matrix(ModuleLabel(args.l, args.n, args.p, args.lam))

    def det_payload():
        inst = instance()
        return {"label": {"l": args.l, "n": args.n, "p": args.p,
                          "lambda": list(args.lam)},
                "dim": inst.dim,
                "det": inst.det_monic.to_json()}

    def produce():
        # a "_det" record is its "_full" record without the matrix, so each
        # one serves the determinant of the other
        if args.det:
            full = cache_get(args.cache_dir, key + "_full")
            if full is None:
                return det_payload()
            return {k: v for k, v in full.items() if k != "matrix"}
        payload = cache_get(args.cache_dir, key + "_det") or det_payload()
        payload["matrix"] = [[p.to_json() for p in row]
                             for row in instance().matrix.entries]
        return payload

    def render(payload):
        if args.format != "csv":
            return _json(payload)
        from .exactmath import Polynomial
        lines = [",".join(str(Polynomial.from_json(p)) for p in row)
                 for row in payload.get("matrix", ())]
        lines.append("det," + str(Polynomial.from_json(payload["det"])))
        return "\n".join(lines), 0

    return key + ("_det" if args.det else "_full"), produce, render


def _cmd_series(args):
    def produce():
        c, series = factor_one_cup(args.l, args.lam)
        return {"l": args.l, "lambda": list(args.lam),
                "C": c.to_json(), "P": series.to_json()}

    def render(payload):
        if args.format != "csv":
            return _json(payload)
        from .exactmath import Polynomial
        c = Polynomial.from_json(payload["C"])
        p = payload["P"]
        return "\n".join([
            f"C,{c}",
            f"P_{p['anchor']},{Polynomial.from_json(p['pN'])}",
            f"P_{p['anchor'] + 1},{Polynomial.from_json(p['pN1'])}"]), 0

    return f"series_l{args.l}_lam{_lam_key(args.lam)}", produce, render


def _cmd_rollet(args):
    p_max = args.max_p if args.max_p is not None else args.max_n
    if p_max is None:
        raise ValueError("rollet needs --max-n or --max-p")
    if any(b is not None and b < 0 for b in (args.max_n, args.max_p)):
        raise ValueError("rollet bounds --max-n and --max-p must be non-negative")
    if args.format == "dot":
        if args.decorate:
            raise ValueError("--decorate needs --format json")

        def dot():
            from .rollet import RolletGraph, export_dot
            return export_dot(RolletGraph(args.l, p_max))
        return None, dot, lambda text: (text, 0)
    n_values = range(args.max_n + 1) if args.max_n is not None else ()
    decorations = args.decorate or []

    def produce():
        from .rollet import RolletGraph
        graph = RolletGraph(args.l, p_max)
        return export_json(graph, n_values=n_values,
                           decorate_det="det" in decorations,
                           decorate_mvf="mvf" in decorations)

    key = (f"rollet_l{args.l}_p{p_max}_n{args.max_n}"
           f"_{'-'.join(sorted(decorations)) or 'plain'}")
    return key, produce, _json


def _cmd_verify(args):
    max_p = args.max_p if args.max_p is not None else args.l + 6
    m_max = args.m if args.m is not None else 1
    # an empty range of ranks or cups would check nothing and still pass
    if m_max < 1 or max_p < args.l + 2:
        raise ValueError(f"verify arm needs --m >= 1 and --max-p >= l+2 = {args.l + 2}")

    def produce():
        records = arm_verify(args.l, args.lam, range(args.l + 2, max_p + 1),
                             range(1, m_max + 1))
        return {"l": args.l, "lambda": list(args.lam),
                "records": [{"p": r.p, "m": r.m, "n": r.n, "equal": r.equal,
                             "residual": {"num": r.residual[0].to_json(),
                                          "den": r.residual[1].to_json()}}
                            for r in records]}

    key = f"verify_arm_l{args.l}_lam{_lam_key(args.lam)}_p{max_p}_m{m_max}"
    return key, produce, lambda payload: _json(
        payload, all(r["equal"] for r in payload["records"]))


def _cmd_roots(args):
    # verify_root_layout refuses k < 0 (a rank below l+4)
    k = (args.n - args.l - 4) if args.n is not None else 1
    key = f"roots_l{args.l}_lam{_lam_key(args.lam)}_k{k}"
    return key, lambda: verify_root_layout(args.l, args.lam, k), _verdict


def _alpha_key(alpha) -> str:
    if isinstance(alpha, tuple):
        return "minpoly:" + ",".join(map(str, alpha))
    return str(alpha)


def _cmd_bootstrap(args):
    # without --alpha, xi_sequence refuses a rank below l+4, where it starts
    n = args.n if args.n is not None else args.l + 4
    if args.alpha is None and args.target is not None:
        raise ValueError("--target needs --alpha")
    if args.alpha is not None and n < 2:
        raise ValueError("rank must be at least 2")  # the module at alpha0 has one cup
    key = f"bootstrap_l{args.l}_lam{_lam_key(args.lam)}_n{n}"
    if args.alpha is not None:
        target = "none" if args.target is None else _lam_key(args.target)
        key += f"_alpha{_alpha_key(args.alpha)}_target{target}"

        def produce():
            return submodule_verify(args.l, args.lam, n, args.alpha,
                                    target=args.target)
    else:
        def produce():
            return divisibility_check(args.l, args.lam, n)
    return key, produce, _verdict


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kadaryu",
        description="Exact Gram determinants and verification for the "
                    "bounded-height diagram algebra towers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, formats=("json",), label=False, series_label=False):
        p.add_argument("--l", type=int, required=True, help="height bound")
        if label:
            p.add_argument("--n", type=int, required=True, help="rank")
            p.add_argument("--p", type=int, required=True,
                           help="propagating-line count")
        if label or series_label:
            p.add_argument("--lambda", dest="lam", type=_parse_partition,
                           required=True, help="partition, e.g. 2,1")
        # series, verify, roots and bootstrap take partitions of l+2
        p.set_defaults(series_label=series_label)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", help="write output to a file")
        p.add_argument("--cache-dir",
                       default=os.environ.get("KY_CACHE_DIR", ".ky-cache"))

    g = sub.add_parser("gram", help="Gram matrix / determinant of a module")
    common(g, formats=("json", "csv"), label=True)
    g.add_argument("--det", action="store_true",
                   help="print only the monic determinant")
    g.set_defaults(func=_cmd_gram)

    s = sub.add_parser("series", help="one-cup determinant factorisation")
    common(s, formats=("json", "csv"), series_label=True)
    s.set_defaults(func=_cmd_series)

    r = sub.add_parser("rollet", help="build/decorate/export the branching graph")
    common(r, formats=("json", "dot"))
    r.add_argument("--max-n", type=int, help="largest rank to decorate")
    r.add_argument("--max-p", type=int, help="largest propagating count")
    r.add_argument("--decorate", action="append", choices=("det", "mvf"),
                   help="vertex decorations (repeatable)")
    r.set_defaults(func=_cmd_rollet)

    v = sub.add_parser("verify", help="verification drivers")
    v.add_argument("what", choices=("arm",))
    common(v, series_label=True)
    v.add_argument("--max-p", type=int)
    v.add_argument("--m", type=int, help="largest cup count")
    v.set_defaults(func=_cmd_verify)

    ro = sub.add_parser("roots", help="certified root layout of a family member")
    common(ro, series_label=True)
    ro.add_argument("--n", type=int, help="rank of the family member (default l+5)")
    ro.set_defaults(func=_cmd_roots)

    b = sub.add_parser("bootstrap", help="bootstrap element / submodule checks")
    common(b, series_label=True)
    b.add_argument("--n", type=int, help="rank (default l+4)")
    b.add_argument("--alpha", type=_parse_alpha,
                   help="parameter value: rational, or minpoly:c0,c1,...; "
                        "a negative fraction goes after '=', as --alpha=-1/2")
    b.add_argument("--target", type=_parse_partition,
                   help="target module partition for twisted embeddings")
    b.set_defaults(func=_cmd_bootstrap)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; version/help exit 0
        return int(exc.code or 0)
    try:
        if args.l < -1:
            raise ValueError("height bound must be >= -1")
        if args.series_label and sum(args.lam) != args.l + 2:
            raise ValueError(f"--lambda must be a partition of l+2 = {args.l + 2}")
        key, produce, render = args.func(args)
        missed = []  # filled when the producer runs on a miss
        payload = produce() if key is None else cache_get_put(
            args.cache_dir, key, lambda: missed.append(key) or produce())
        text, code = render(payload)
        _emit(args, text)
        if missed:  # the run's one record, written once its output is out
            _put(args.cache_dir, key, payload)
        return code
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
