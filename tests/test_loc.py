"""The code-line counter ``tools/loc.py`` on a small fixture tree.

A code line carries a token other than a comment or layout, outside
every docstring; a string that is no docstring counts every line it
spans.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

# code lines: import, class, the two lines of x, def, and the three of the return
MODULE = '''\
# a comment before the module docstring
"""The module docstring,
over two lines."""

import os  # a trailing comment


class A:
    """A class docstring."""

    x = """a string that is
no docstring"""

    def f(self):
        """A function docstring.

        Its second paragraph.
        """
        # a comment
        return os.sep.join(
            "a"
        )
'''

# code lines: async def and await
NESTED = '''\
async def g():
    """A coroutine's docstring."""

    await g()
'''


def test_code_lines_of_one_module():
    assert loc.code_lines(MODULE) == 8
    assert loc.code_lines(NESTED) == 2
    assert loc.code_lines("") == 0


def test_counts_per_module_and_in_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "b.py").write_text(NESTED)
    (tmp_path / "notes.txt").write_text("not python\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["8 a.py", "0 pkg/__init__.py", "2 pkg/b.py", "10 total"]
