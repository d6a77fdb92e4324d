"""Stdlib `ast` scans that stand in for a linter's rules: unused imports,
dead code (orphaned private and public names), exactness (no floats,
integer division in symmetric._coordinates), start-up cost (no
dataclasses) and layering. Which module may import, read or call a name
that one layer owns is one row of OWNERS; beside it, no module reads
another's private names and diagrams.py defines no class."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import kadaryu

MODULES = sorted(Path(kadaryu.__file__).parent.glob("*.py"))
KYBENCH = sorted((Path(__file__).resolve().parent.parent / "kybench").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of every imported name that no Name node reads; an
    import on a line marked `# noqa: F401` is deliberate and skipped."""
    tree = ast.parse(source)
    noqa = {i for i, line in enumerate(source.splitlines(), 1) if "# noqa: F401" in line}
    imported = {}
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in noqa:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport math, os.path\n"
              "from itertools import count as c, chain\nprint(math.pi, chain)\n"
              "import sys  # noqa: F401\n")
    assert unused_imports(source) == [("c", 3), ("os", 2)]


def _defined(stmt) -> list[str]:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read(stmt) -> set[str]:
    """Names a statement reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def orphan_helpers(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of every private module-level name that no
    module-level statement reads, the one defining it aside."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    reads = [_read(stmt) for _module, stmt in stmts]
    out = []
    for i, (module, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if (name.startswith("_") and not name.startswith("__")
                    and not any(name in r for j, r in enumerate(reads) if j != i)):
                out.append((module, name, stmt.lineno))
    return sorted(out)


def test_no_orphan_helpers():
    assert orphan_helpers({p.name: p.read_text() for p in MODULES}) == []


def test_scan_sees_an_orphan_helper():
    sources = {
        "a.py": ("_ONE = 1\n_TWO: int = 2\n__all__ = []\n"
                 "def _rec(n):\n    return _rec(n - 1) if n else _ONE\n"
                 "class _Spare:\n    pass\n"),
        "b.py": "from a import _TWO\nimport a\nprint(_TWO, a._Spare)\n",
    }
    assert orphan_helpers(sources) == [("a.py", "_rec", 4)]


def _loads(node) -> Counter:
    """How often the subtree of node reads each name: as a loaded Name or
    Attribute, or as an imported name."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            out[n.id if isinstance(n, ast.Name) else n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _public_defs(tree):
    """The public module-level functions and classes of a module, and the
    public methods of its classes."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt
            if isinstance(stmt, ast.ClassDef):
                yield from (m for m in stmt.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))


def public_orphans(sources: dict[str, str], readers: dict[str, str],
                   api: set[tuple[str, str]]) -> list[tuple[str, str, int]]:
    """(module, name, line) of every public function, class or method in
    `sources` that no node outside its own definition reads, in `sources`
    or in `readers`, unless (module, name) is in `api`.  A name is read by
    name, so a method is read by any attribute of its name; a mention in a
    docstring is not a read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    loads += sum((_loads(ast.parse(source)) for source in readers.values()), Counter())
    return sorted((module, node.name, node.lineno)
                  for module, tree in trees.items() for node in _public_defs(tree)
                  if not node.name.startswith("_") and (module, node.name) not in api
                  and loads[node.name] == _loads(node)[node.name])


# the library API, and the console script
API = {(f"{module}.py", name) for module, names in kadaryu._EXPORTS.items() for name in names}
API.add(("cli.py", "main"))


def test_no_public_orphans():
    assert public_orphans({p.name: p.read_text() for p in MODULES},
                          {p.name: p.read_text() for p in KYBENCH}, API) == []


# helper reads only itself, spare only itself and a string; tidy and used
# are read by the class and by b.py
SCANNED = {
    "a.py": ('"""helper() and Box.spare() are named here, which is no read."""\n'
             "def helper(n):\n    return helper(n - 1) if n else 0\n"
             "def api():\n    pass\n"
             "def measured():\n    pass\n"
             "class Box:\n"
             "    def used(self):\n        return self.tidy()\n"
             "    def tidy(self):\n        return 'self.spare()'\n"
             "    def spare(self):\n        return self.spare\n"),
    "b.py": "from a import Box\nBox().used()\n",
}


def test_scan_sees_a_public_orphan():
    """A test is neither a source nor a reader, so what only a test reads
    is an orphan."""
    assert public_orphans(SCANNED, {}, set()) == [
        ("a.py", "api", 4), ("a.py", "helper", 2), ("a.py", "measured", 6),
        ("a.py", "spare", 13)]


def test_scan_accepts_the_api_and_harness_reads():
    readers = {"run.py": "from a import measured\n"}
    assert public_orphans(SCANNED, readers, {("a.py", "api")}) == [
        ("a.py", "helper", 2), ("a.py", "spare", 13)]


def float_uses(source: str) -> list[int]:
    """Lines of every call of float and every float literal; reading an
    attribute such as math.inf is neither."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "float")
                  or (isinstance(node, ast.Constant) and isinstance(node.value, float)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(path.read_text()) == []


def test_scan_sees_a_float():
    source = ("import math\nx = math.inf\ny = str(float(3))\nz = 1e-6 + 2\n"
              "w: float = 0\nv = 'float(1.5)'\n")
    assert float_uses(source) == [3, 4]


def dataclass_imports(source: str) -> list[int]:
    """Lines of every import of dataclasses, whose inspect chain would cost
    every cold process about 10 ms; the value types are NamedTuples."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Import)
                      and any(a.name.partition(".")[0] == "dataclasses" for a in node.names))
                  or (isinstance(node, ast.ImportFrom) and node.level == 0
                      and (node.module or "").partition(".")[0] == "dataclasses"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert dataclass_imports(path.read_text()) == []


def test_scan_sees_a_dataclasses_import():
    source = ("import os, dataclasses as dc\nfrom dataclasses import dataclass\n"
              "from .dataclasses import x\nfrom typing import NamedTuple\n"
              "y = 'import dataclasses'\ndef f():\n    import dataclasses\n")
    assert dataclass_imports(source) == [1, 2, 7]


# name: (the uses its row governs: from-import, attribute read or call; the
# modules or module:Class bodies allowed them). Defining a name is no use.
OWNERS = {
    # the dense Q[a] Gram matrix is built only to print the gram payload
    "matrix": ("read", "cli.py"),
    # the basis layout is gram.py's; other modules ask GramInstance.cup_row
    "half": ("read", "gram.py"),
    # the layout of A~ and its placed rows are GramInstance's; other code,
    # gram_mixed_det included, takes rows of GramInstance.pencil
    "linearisation": ("read", "gram.py:GramInstance"),
    "_rows": ("read", "gram.py:GramInstance"),
    "_placed": ("read", "gram.py:GramInstance"),
    "_blocks": ("read", "gram.py:GramInstance"),
    # the product on image tuples, mul(a, b) = a then b, is symmetric.py's
    "mul": ("import", "symmetric.py"),
    "inverse": ("import", "symmetric.py"),
    # gram.act and gram._moves pair the S_r action on half diagrams with the Specht action
    "permute": ("import", "gram.py"),
    # GramInstance._rows walks the pairings, placing A~ one half diagram at a time
    "pairings": ("import call", "gram.py"),
    # the determinant core takes integer pencils only, and gram.py builds
    # every one: det_monic's A~ and gram_mixed_det's B = L R
    "det_monic_companion": ("import read", "gram.py"),
    # eliminations over Q or Q[a]/(m) serve the submodule certificates;
    # exactmath.py defines them, and the Specht data are solved in integers
    "field_row_echelon": ("import read", "morphisms.py"),
    "field_kernel": ("import read", "morphisms.py"),
    "field_rank": ("import read", "morphisms.py"),
}


def foreign_uses(module: str, source: str) -> list[tuple[str, str, int]]:
    """(name, use, line) of every use in module that the name's row of
    OWNERS refuses; an owner module:Class allows that top-level class body."""
    tree = ast.parse(source)
    bodies = {f"{module}:{stmt.name}": range(stmt.lineno, stmt.end_lineno + 1)
              for stmt in tree.body if isinstance(stmt, ast.ClassDef)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            uses = [(alias.name, "import") for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            uses = [(node.attr, "read")]
        elif isinstance(node, ast.Call):
            uses = [(getattr(node.func, "id", None) or getattr(node.func, "attr", None), "call")]
        else:
            continue
        for name, use in uses:
            governs, owners = OWNERS.get(name, ("", ""))
            if use in governs.split() and not any(owner == module or node.lineno in bodies.get(owner, ())
                                                  for owner in owners.split()):
                out.append((name, use, node.lineno))
    return sorted(out)


@pytest.mark.parametrize("name", OWNERS)
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_owned_names_stay_home(path, name):
    assert [use for use in foreign_uses(path.name, path.read_text()) if use[0] == name] == []


SYMMETRIC = (Path(kadaryu.__file__).parent / "symmetric.py").read_text()
END = SYMMETRIC.count("\n")


@pytest.mark.parametrize("module,source,flagged", [
    pytest.param("gram.py", "rows = inst.matrix.entries\ng = gram_matrix(lab).matrix\n"
                 "inst.matrix = None\nclass G:\n    def matrix(self):\n        return 'x.matrix'\n",
                 [("matrix", "read", 1), ("matrix", "read", 2)], id="matrix"),
    pytest.param("morphisms.py", "nhalf = len(inst.half)\nhalf = 3\ninst.half = ()\n"
                 "u = gram_matrix(lab).half[0]\nprint('x.half', half)\n",
                 [("half", "read", 1), ("half", "read", 4)], id="half"),
    *(pytest.param(module, "class GramInstance:\n    def det(self):\n        return f(self.linearisation)\n"
                   "def mixed(inst):\n    return inst.linearisation[0]\n"
                   "class Other:\n    def rows(self, inst):\n        return inst.linearisation\n",
                   [("linearisation", "read", line) for line in lines], id=f"linearisation-{module}")
      for module, lines in [("gram.py", [5, 8]), ("morphisms.py", [3, 5, 8])]),
    pytest.param("gram.py", "class GramInstance:\n    def pencil(self, a):\n        return self._rows(a)\n"
                 "def gram_mixed_det(inst):\n    return inst._rows(0), inst._placed\n"
                 "def act(inst):\n    inst._blocks = {}\n    return len(inst._blocks)\n",
                 [("_blocks", "read", 8), ("_placed", "read", 5), ("_rows", "read", 5)], id="rows"),
    pytest.param("gram.py", "from .symmetric import identity, mul\n"
                 "from kadaryu.symmetric import inverse as inv\nimport operator\n"
                 "x = operator.mul\ny = 'from .symmetric import mul'\n",
                 [("inverse", "import", 2), ("mul", "import", 1)], id="product"),
    pytest.param("morphisms.py", "from .diagrams import half_basis, permute\n"
                 "from itertools import permutations\nx = 'from .diagrams import permute'\n",
                 [("permute", "import", 1)], id="permute"),
    pytest.param("diagrams.py", "from .diagrams import half_basis, pairings\nfrom . import diagrams\n"
                 "rows = diagrams.pairings(half, u)\nx = 'from .diagrams import pairings'\n"
                 "def pairings(half, u):\n    return pairings(half[1:], u)\n",
                 [("pairings", "call", 3), ("pairings", "call", 6), ("pairings", "import", 1)],
                 id="pairings"),
    pytest.param("exactmath.py", "from .exactmath import Q, det_monic_companion\nfrom . import exactmath\n"
                 "d = exactmath.det_monic_companion(tail)\ndef det_monic_companion(tail):\n"
                 "    return 'from .exactmath import det_monic_companion'\n",
                 [("det_monic_companion", "import", 1), ("det_monic_companion", "read", 3)], id="core"),
    pytest.param("symmetric.py", SYMMETRIC + "from .exactmath import Q, field_row_echelon\n"
                 "ech = exactmath.field_kernel(rows)\n",
                 [("field_kernel", "read", END + 2), ("field_row_echelon", "import", END + 1)], id="field"),
])
def test_scan_sees_a_foreign_use(module, source, flagged):
    assert foreign_uses(module, source) == flagged


def dead_rows(sources: dict[str, str]) -> list[str]:
    """Every OWNERS name that no def, class or attribute assignment in
    sources defines, and every module a row names that sources lack."""
    defined = set()
    for node in (n for source in sources.values() for n in ast.walk(ast.parse(source))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    owners = {owner.partition(":")[0]
              for _governs, allowed in OWNERS.values() for owner in allowed.split()}
    return sorted((OWNERS.keys() - defined) | (owners - sources.keys()))


def test_no_dead_rows():
    assert dead_rows({p.name: p.read_text() for p in MODULES}) == []


def test_scan_sees_a_dead_row():
    sources = {p.name: p.read_text() for p in MODULES}
    sources["diagrams.py"] = sources["diagrams.py"].replace("def pairings(", "def pair_walk(")
    sources["certificates.py"] = sources.pop("morphisms.py")
    assert dead_rows(sources) == ["morphisms.py", "pairings"]


def class_defs(source: str) -> list[int]:
    """Lines of every class statement, nested ones included."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef))


def test_diagrams_defines_no_class():
    """A half diagram is its partner tuple, a pair partition only the
    reference in the tests."""
    (path,) = (p for p in MODULES if p.name == "diagrams.py")
    assert class_defs(path.read_text()) == []


def test_scan_sees_a_class():
    source = ("from typing import NamedTuple\nclass Half(NamedTuple):\n    top: tuple\n"
              "def f():\n    class Inner:\n        pass\n    return 'class X: pass'\n")
    assert class_defs(source) == [2, 5]


def fraction_arithmetic(source: str, func: str) -> list[int]:
    """Lines of every true division and every call of Q or Fraction in the
    module-level function func; floor division, divmod and reading a
    Fraction's numerator or denominator are integer arithmetic."""
    (node,) = (stmt for stmt in ast.parse(source).body
               if isinstance(stmt, ast.FunctionDef) and stmt.name == func)
    return sorted(n.lineno for n in ast.walk(node)
                  if (isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div))
                  or (isinstance(n, ast.Call) and {"Q", "Fraction"} & {
                      getattr(n.func, "id", None), getattr(n.func, "attr", None)}))


def test_coordinates_divide_in_integers():
    """symmetric._coordinates reads every coordinate off the certified
    frame by exact integer division: it divides no Fraction and builds
    none."""
    (path,) = (p for p in MODULES if p.name == "symmetric.py")
    assert fraction_arithmetic(path.read_text(), "_coordinates") == []


def test_scan_sees_fraction_arithmetic():
    source = ("def f(a, b):\n    c = a / b\n    c /= 2\n    q, r = divmod(a, b)\n"
              "    return Q(1, 2) + fractions.Fraction(q) + a // b + b.numerator\n"
              "def g(a):\n    return a / 2\n")
    assert fraction_arithmetic(source, "f") == [2, 3, 5, 5]
    assert fraction_arithmetic(source, "g") == [7]


def foreign_private_reads(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of every private name of another package module
    that a module imports from it or reads off it as an attribute; a
    dunder such as __version__ is not private."""
    stems = {module.removesuffix(".py") for module in sources}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    out = []
    for module, source in sources.items():
        tree = ast.parse(source)
        # the names a package module is bound to here: its own and any alias
        names = set(stems) - {module.removesuffix(".py")}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.asname for alias in node.names
                             if alias.asname and alias.name.rpartition(".")[2] in stems)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.rpartition(".")[2] in names):
                out += [(module, alias.name, node.lineno) for alias in node.names
                        if private(alias.name)]
            elif (isinstance(node, ast.Attribute) and private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in names):
                out.append((module, node.attr, node.lineno))
    return sorted(out)


def test_no_foreign_private_reads():
    """A module reaches another only through its public names: gram.py,
    for one, takes T^-1 only through symmetric.specht_frame, never off
    _gram_schmidt or _coordinates."""
    assert foreign_private_reads({p.name: p.read_text() for p in MODULES}) == []


def test_scan_sees_a_foreign_private_read():
    sources = {
        "symmetric.py": "def _gram_schmidt(lam):\n    return _coordinates(lam)\n",
        "gram.py": ("from . import __version__, symmetric as sym\n"
                    "from .symmetric import _gram_schmidt, specht_frame\n"
                    "from . import symmetric\nT = symmetric._coordinates((2, 1))\n"
                    "inv = sym._gram_schmidt\nself._rows(0)\nx = operator._private\n"
                    "def _own():\n    return gram._own\n"),
    }
    assert foreign_private_reads(sources) == [
        ("gram.py", "_coordinates", 4), ("gram.py", "_gram_schmidt", 2),
        ("gram.py", "_gram_schmidt", 5)]
