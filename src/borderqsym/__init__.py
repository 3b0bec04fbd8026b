"""Exact arithmetic for the K and L series families over a bordered alphabet.

The package constructs the subset-indexed families, multiplies members,
decomposes any in-span product back onto either family with integer
coefficients, expands degree-1 K products through shuffle peak sets, and
ships independent verifiers for all of it.  See the README for the CLI.

The verifier modules :mod:`~borderqsym.oracle` and
:mod:`~borderqsym.shuffle` load on first use: their names, and the
modules themselves, resolve through the module ``__getattr__`` (PEP 562),
so importing the package, as every CLI request does, compiles neither.
"""

import importlib

from .basis import (
    Decomposition,
    NonzeroResidualError,
    NotDivisibleError,
    decompose_k,
    decompose_l,
    k_from_l,
    l_from_k,
    rational_solve,
    reconstruct,
)
from .core import (
    INF,
    Index,
    Monomial,
    Series,
    TruncationError,
    all_monomials,
    alphabet,
    relabel_check,
)
from .families import (
    SubsetSpec,
    all_subsets,
    is_l_special,
    k_series,
    k_series_q,
    l_series,
    m_generic_monomial,
    m_membership,
)

__version__ = "0.1.0"

# The public names of each module that loads on first use.
_LAZY = {
    "oracle": (
        "ProblematicRelation",
        "RelationKind",
        "check_spreading",
        "k1_coefficient",
        "problematic_relations",
        "resolve",
        "resolve_all",
    ),
    "shuffle": ("gp", "k1_product", "multiset_counts", "multiset_json_obj", "shuffles", "string_form"),
}


def __getattr__(name):
    for home, names in _LAZY.items():
        if name == home or name in names:
            module = importlib.import_module(f".{home}", __name__)
            if name == home:
                return module  # the import bound it here already
            value = globals()[name] = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *__all__})

__all__ = [
    "INF",
    "Index",
    "Monomial",
    "Series",
    "TruncationError",
    "all_monomials",
    "alphabet",
    "relabel_check",
    "SubsetSpec",
    "all_subsets",
    "is_l_special",
    "k_series",
    "k_series_q",
    "l_series",
    "m_generic_monomial",
    "m_membership",
    "Decomposition",
    "NonzeroResidualError",
    "NotDivisibleError",
    "decompose_k",
    "decompose_l",
    "k_from_l",
    "l_from_k",
    "rational_solve",
    "reconstruct",
    "gp",
    "k1_product",
    "multiset_counts",
    "multiset_json_obj",
    "shuffles",
    "string_form",
    "ProblematicRelation",
    "RelationKind",
    "check_spreading",
    "k1_coefficient",
    "problematic_relations",
    "resolve",
    "resolve_all",
]
