"""No module of flopcalc keeps a module-level import it never uses, or a
private module-level name that nothing reads (no linter is assumed; this
reads each module's syntax tree and the names in the sources and tests)."""

import ast
import collections
import io
import pathlib
import tokenize

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flopcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from fractions import Fraction\nimport os.path\nimport sys\nx = sys.argv\n"
    assert unused_imports(source) == ["Fraction", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str):
    """Module-level functions, classes and constants named `_x` (not dunders)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def name_counts(sources):
    """How often each identifier occurs in code (comments and strings excluded)."""
    counts = collections.Counter()
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
    return counts


def dead_private_names(source: str, counts):
    """The private definitions of `source` that occur nowhere else."""
    return [n for n in private_definitions(source) if counts[n] <= 1]


def test_dead_private_names_are_found():
    source = "_K = 1\n\ndef _used():\n    return _K\n\ndef _dead():\n    pass\n"
    counts = name_counts([source, "# _dead\nx = '_dead' and _used()\n"])
    assert dead_private_names(source, counts) == ["_dead"]


def test_no_dead_private_module_level_name():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    counts = name_counts(p.read_text(encoding="utf-8") for p in files)
    dead = ["%s.%s" % (path.stem, name) for path in sorted(SRC.glob("*.py"))
            for name in dead_private_names(path.read_text(encoding="utf-8"), counts)]
    assert dead == []
