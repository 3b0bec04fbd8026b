"""Import hygiene: every name a library or test module imports is used there.

No linter runs on this tree, so an import left behind by a refactor
would go unnoticed.  A name counts as used when the module reads it
(annotations included) or lists it in ``__all__``.  Likewise no test
module may define again a helper that ``conftest.py`` or
``reference.py`` shares, or import from another test module;
``reference.py`` holds no test, since pytest would not collect it; the
mask codec of M-coordinates is defined once, in ``core.py``; no library
module imports ``dataclasses``; and the package's table of names that
load on first use agrees with their modules and with ``__all__``.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import borderqsym

TESTS = Path(__file__).resolve().parent
MODULES = sorted((TESTS.parent / "src" / "borderqsym").glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("test_*.py"))
# the modules whose top level the test modules share
SHARED = [TESTS / "conftest.py", TESTS / "reference.py"]


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parsed(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used | exported_names(tree)]
    assert unused == [], f"{path.name} imports {unused} without using them"


def defined_names(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_copy_of_a_shared_helper(path):
    # what conftest.py and reference.py share is their top level, not the
    # locals of their helpers
    shared = {name for home in SHARED for name in defined_names(parsed(home).body)}
    copies = sorted(shared.intersection(defined_names(ast.walk(parsed(path)))))
    assert copies == [], f"{path.name} defines {copies}, which conftest.py or reference.py already provides"


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_test_module_imports_another(path):
    others = {p.stem for p in TEST_MODULES}
    imported = sorted(others.intersection(imported_modules(parsed(path))))
    assert imported == [], f"{path.name} imports from {imported}; shared helpers belong in reference.py"


def test_the_references_define_no_test():
    names = defined_names(ast.walk(parsed(TESTS / "reference.py")))
    tests = [name for name in names if name.startswith(("test", "Test"))]
    assert tests == [], f"reference.py is not collected, so {tests} would never run"


# The codec between M-coordinates, keyed by equality mask, and their
# border exponents, bit-words and letters.
CODEC = {"_mask", "_split", "_letters"}


def test_the_mask_codec_lives_in_core():
    homes = sorted(
        (name, path.name)
        for path in MODULES
        for name in defined_names(ast.walk(parsed(path)))
        if name in CODEC
    )
    assert homes == sorted((name, "core.py") for name in CODEC)


def test_no_library_module_imports_dataclasses():
    # dataclasses pulls inspect, ast, dis and tokenize into every CLI request
    users = [path.name for path in MODULES if "dataclasses" in imported_modules(parsed(path))]
    assert users == []


def test_the_lazy_table_matches_the_modules_and_all():
    for home, names in borderqsym._LAZY.items():
        module = importlib.import_module(f"borderqsym.{home}")
        assert [name for name in names if not hasattr(module, name)] == [], home
        assert [name for name in names if name not in borderqsym.__all__] == [], home


# Checks the package's public names in a fresh interpreter, where nothing
# has imported the modules that load on first use.
FRESH = """
import sys
import borderqsym
assert "borderqsym.oracle" not in sys.modules and "borderqsym.shuffle" not in sys.modules
assert borderqsym.oracle.check_spreading is borderqsym.check_spreading
assert borderqsym.shuffle.gp is borderqsym.gp
for name in borderqsym.__all__:
    getattr(borderqsym, name)
namespace = {}
exec("from borderqsym import *", namespace)
assert set(borderqsym.__all__) <= set(namespace)
assert set(borderqsym.__all__) <= set(dir(borderqsym))
try:
    borderqsym.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""


def test_lazy_names_keep_the_public_api_whole():
    proc = subprocess.run([sys.executable, "-c", FRESH], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
