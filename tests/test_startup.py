"""Start-up cost: the package exports load on first use, a cache hit
loads no engine module (and, without --alpha, no fractions), and a miss
loads no dataclasses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kadaryu
from kadaryu import cheby, diagrams, exactmath, gram, morphisms, rollet, roots
from kadaryu.cli import _build_parser

SRC = str(Path(kadaryu.__file__).parent.parent)

# where each exported name is defined
DEFINED_IN = {
    exactmath: ("Polynomial", "PolyMatrix", "Q"),
    cheby: ("ChebSeries", "cheb_u", "quantum_number", "u_expansion"),
    diagrams: ("half_basis", "one_cup_basis"),
    gram: ("ModuleLabel", "factor_one_cup", "gram_det", "gram_matrix",
           "gram_mixed_det", "one_cup_det"),
    rollet: ("RolletGraph", "arm_verify", "chebyshev_c", "dimension",
             "marginal_v", "tl_recursive_det"),
    morphisms: ("XiElement", "divisibility_check", "solve_xi", "submodule_verify",
                "xi_report", "xi_step"),
    roots: ("lemma_roots_check",),
}


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


class TestExports:
    def test_same_objects_as_the_defining_modules(self):
        names = [n for names in DEFINED_IN.values() for n in names]
        assert kadaryu.__all__ == [*names, "__version__"]
        for module, defined in DEFINED_IN.items():
            for name in defined:
                assert getattr(kadaryu, name) is getattr(module, name)

    def test_dir_lists_every_export(self):
        assert set(kadaryu.__all__) <= set(dir(kadaryu))

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            kadaryu.no_such_name
        with pytest.raises(ImportError):
            from kadaryu import no_such_name  # noqa: F401

    def test_names_load_on_first_use(self):
        code = ("import sys, kadaryu\n"
                "assert 'kadaryu.gram' not in sys.modules\n"
                "from kadaryu import ModuleLabel\n"
                "from kadaryu import gram\n"
                "assert ModuleLabel is gram.ModuleLabel\n"
                "assert 'kadaryu.rollet' not in sys.modules\n")
        proc = python(code)
        assert proc.returncode == 0, proc.stderr


# runs cli.main on argv and prints, as the last line of stderr, the modules
# it loaded beyond a bare interpreter's start-up
PROBE = ("import sys\n"
         "before = set(sys.modules)\n"
         "from kadaryu.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "loaded = set(sys.modules) - before\n"
         "import json\n"
         "print(json.dumps(sorted(loaded)), file=sys.stderr)\n"
         "sys.exit(code)\n")

# runs cli.main on argv and prints, as the last line of stderr, the top-level
# modules it loaded from outside the standard library and the package
THIRD_PARTY = ("import json, sys\n"
               "before = set(sys.modules)\n"
               "from kadaryu.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
               "print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {'kadaryu'})),"
               " file=sys.stderr)\n"
               "sys.exit(code)\n")

BARE = ["kadaryu", "kadaryu.cli"]

WARM = {
    "gram-det": ["gram", "--l", "0", "--n", "4", "--p", "2", "--lambda", "2", "--det"],
    "gram": ["gram", "--l", "0", "--n", "4", "--p", "2", "--lambda", "2"],
    "series": ["series", "--l", "0", "--lambda", "2"],
    "rollet": ["rollet", "--l", "0", "--max-n", "4", "--decorate", "det"],
    "verify": ["verify", "arm", "--l", "0", "--lambda", "2", "--max-p", "3", "--m", "1"],
    "roots": ["roots", "--l", "0", "--lambda", "2"],
    "bootstrap": ["bootstrap", "--l", "0", "--lambda", "2"],
    "rational-alpha": ["bootstrap", "--l", "0", "--lambda", "2", "--n", "4",
                       "--alpha", "1/2"],
    "minpoly-alpha": ["bootstrap", "--l", "0", "--lambda", "2", "--n", "4",
                      "--alpha", "minpoly:-4,1,1"],
}
# a Polynomial prints the output
WITH_EXACTMATH = {
    "csv": ["gram", "--l", "0", "--n", "4", "--p", "2", "--lambda", "2",
            "--format", "csv"],
}
# dataclasses and the modules it imports
INSPECT_CHAIN = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# what parsing a rational loads
FRACTIONS = {"fractions", "decimal"}


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A cache holding the record of every warm command, the exit code and
    output of its cold run, and the modules that run loaded."""
    cache = tmp_path_factory.mktemp("startup") / "cache"
    outputs, cold = {}, {}
    for name, argv in {**WARM, **WITH_EXACTMATH}.items():
        proc, cold[name] = probe([*argv, "--cache-dir", str(cache)])
        assert proc.returncode in (0, 1), proc.stderr
        outputs[name] = proc.returncode, proc.stdout
    return cache, outputs, cold


def probe(argv):
    """The finished process, and the modules it loaded beyond start-up."""
    proc = python(PROBE, *argv)
    return proc, set(json.loads(proc.stderr.splitlines()[-1]))


def package_modules(loaded):
    return sorted(m for m in loaded if m.startswith("kadaryu"))


class TestStartup:
    @pytest.mark.parametrize("name", sorted(WARM))
    def test_cache_hit_loads_no_engine_module(self, filled_cache, name):
        cache, outputs, _cold = filled_cache
        proc, loaded = probe([*WARM[name], "--cache-dir", str(cache)])
        assert (proc.returncode, proc.stdout) == outputs[name]
        assert package_modules(loaded) == BARE
        if "--alpha" not in WARM[name]:
            assert not loaded & FRACTIONS

    @pytest.mark.parametrize("name", sorted(WITH_EXACTMATH))
    def test_cache_hit_may_load_exactmath(self, filled_cache, name):
        cache, outputs, _cold = filled_cache
        proc, loaded = probe([*WITH_EXACTMATH[name], "--cache-dir", str(cache)])
        assert (proc.returncode, proc.stdout) == outputs[name]
        assert package_modules(loaded) == [*BARE, "kadaryu.exactmath"]

    def test_version_loads_no_engine_module(self):
        proc, loaded = probe(["--version"])
        assert proc.stdout == f"{kadaryu.__version__}\n"
        assert package_modules(loaded) == BARE
        assert not loaded & FRACTIONS

    @pytest.mark.parametrize("name", sorted(WARM))
    def test_cold_miss_loads_no_inspect_chain(self, filled_cache, name):
        """The engine's value types are NamedTuples: a miss that loads the
        engine loads no dataclasses, nor the inspect chain behind it."""
        _cache, _outputs, cold = filled_cache
        assert len(package_modules(cold[name])) > len(BARE)
        assert not cold[name] & INSPECT_CHAIN

    @pytest.mark.parametrize("name", ["gram-det", "verify"])
    def test_cold_miss_loads_no_third_party_module(self, tmp_path, name):
        """The integer kernels are plain Python: a cold miss imports nothing
        outside the standard library and the package."""
        proc = python(THIRD_PARTY, *WARM[name], "--cache-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == []

    def test_cold_gram_det_loads_only_its_layers(self, tmp_path):
        proc, loaded = probe([*WARM["gram-det"], "--cache-dir", str(tmp_path)])
        assert proc.returncode == 0
        loaded = package_modules(loaded)
        assert "kadaryu.gram" in loaded
        for module in ("rollet", "morphisms", "roots", "claims"):
            assert f"kadaryu.{module}" not in loaded

    def test_cold_roots_loads_only_its_layers(self, tmp_path):
        """A process that writes no bytecode compiles every module it
        imports again: a cold layout loads the root machinery, the
        Chebyshev series and no more."""
        proc, loaded = probe([*WARM["roots"], "--cache-dir", str(tmp_path)])
        assert proc.returncode == 0
        assert package_modules(loaded) == ["kadaryu", "kadaryu.cheby", "kadaryu.claims",
                                           "kadaryu.cli", "kadaryu.exactmath",
                                           "kadaryu.roots"]

    def test_cold_bootstrap_loads_no_roots_or_rollet(self, tmp_path):
        proc, loaded = probe([*WARM["bootstrap"], "--cache-dir", str(tmp_path)])
        assert proc.returncode == 0
        loaded = package_modules(loaded)
        assert "kadaryu.morphisms" in loaded
        for module in ("roots", "rollet"):
            assert f"kadaryu.{module}" not in loaded


def test_a_subcommand_only_plans(tmp_path, capsys):
    """A subcommand returns its key, producer and renderer: it prints
    nothing and writes no record, since main alone does both."""
    cache = tmp_path / "cache"
    dot = ["rollet", "--l", "0", "--max-p", "4", "--format", "dot"]
    for argv in [*WARM.values(), *WITH_EXACTMATH.values(), dot]:
        args = _build_parser().parse_args([*argv, "--cache-dir", str(cache)])
        args.func(args)
        assert capsys.readouterr() == ("", ""), argv
        assert not cache.exists(), argv
