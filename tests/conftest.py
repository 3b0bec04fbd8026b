"""Shared test shorthands."""

import os
from pathlib import Path

from borderqsym import Monomial, SubsetSpec


def spec(n, *members):
    return SubsetSpec(n, frozenset(members))


def mono(text):
    return Monomial.parse(text)


# Child processes (``python -m borderqsym``) import the package from src/
# as well, also when pytest itself found it through its pythonpath setting.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
