"""Shared test shorthands."""

import itertools
import os
from pathlib import Path

from borderqsym import INF, Monomial, Series, SubsetSpec, k_series, k_series_q, l_series


def spec(n, *members):
    return SubsetSpec(n, frozenset(members))


def mono(text):
    return Monomial.parse(text)


# Coefficient base of each member kind the parity sweeps cover.
BASES = {"K": 2, "L": 2, "K3": 3, "K-2": -2}


def member(kind, s, trunc):
    if kind == "L":
        return l_series(s, trunc)
    return k_series(s, trunc) if kind == "K" else k_series_q(s, trunc, BASES[kind])


def group(degree, trunc, key, c):
    """Every placement of one M-coordinate on the naturals 1..V, coefficient c."""
    e0, word, einf = key
    return Series(degree, trunc, {
        Monomial(zip((0, *placement, INF), (e0, *word, einf))): c
        for placement in itertools.combinations(range(1, trunc + 1), len(word))
    })


def perturbations(series):
    """Copies that stay quasisymmetric (scaled, one M-group added) and copies that do not."""
    d, trunc = series.degree, series.trunc
    out = [series.scale(3), series + group(d, trunc, (d, (), 0), 1)]
    if d >= 2:
        out.append(series + group(d, trunc, (0, (d - 1,), 1), -2))
    terms = series.sorted_terms()
    if terms:
        m, c = terms[len(terms) // 2]
        out.append(Series(d, trunc, {**series.terms, m: c + 1}))
        out.append(Series(d, trunc, {k: v for k, v in terms if k != m}))
    out.append(series + Series(d, trunc, {Monomial.from_indices((1,) * d): 1}))
    return out


# Child processes (``python -m borderqsym``) import the package from src/
# as well, also when pytest itself found it through its pythonpath setting.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
