"""Import hygiene: every name a library module imports is used there.

No linter runs on this tree, so an import left behind by a refactor
would go unnoticed.  A name counts as used when the module reads it
(annotations included) or lists it in ``__all__``.  Likewise no test
module may define again a helper that ``conftest.py`` shares, and the
mask codec of M-coordinates is defined once, in ``core.py``.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
MODULES = sorted((TESTS.parent / "src" / "borderqsym").glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used | exported_names(tree)]
    assert unused == [], f"{path.name} imports {unused} without using them"


def defined_names(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")), ids=lambda p: p.name)
def test_no_copy_of_a_shared_helper(path):
    # what conftest.py shares is its top level, not the locals of its helpers
    shared = set(defined_names(ast.parse((TESTS / "conftest.py").read_text()).body))
    copies = sorted(shared.intersection(defined_names(ast.walk(ast.parse(path.read_text(), filename=str(path))))))
    assert copies == [], f"{path.name} defines {copies}, which conftest.py already provides"


# The codec between M-coordinates, keyed by equality mask, and their
# border exponents, bit-words and letters.
CODEC = {"_mask", "_split", "_letters"}


def test_the_mask_codec_lives_in_core():
    homes = sorted(
        (name, path.name)
        for path in MODULES
        for name in defined_names(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        if name in CODEC
    )
    assert homes == sorted((name, "core.py") for name in CODEC)
