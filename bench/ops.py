"""The benchmark's ops: timed calls into each borderqsym module, and their checks.

``run_<type>`` performs one op, wrapping every library call in a span
named after the module it enters; its return value goes to
``check_<type>``, which runs outside the timed interval and returns
``None`` when the output is right, or ``(layer, message)`` naming the
layer whose answer was wrong.

Work counts (terms, pairs, cells, bytes) are measured from outside, on
the values the calls take and return.  Family members built inside
``decompose_*`` and ``reconstruct`` are counted in the basis spans.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import proc
from workloads import all_subsets

CLI_TIMEOUT_S = 60.0


class Ops:
    def __init__(self, lib, tracer, root: Path, env: dict):
        self.lib = lib
        self.tr = tracer
        self.root = root
        self.env = env
        self.child_rss_mb = 0.0
        self._columns: dict[int, list] = {}
        self._expected: dict[tuple, tuple] = {}

    # -- setup: spec tuples to library inputs ------------------------------

    def _spec(self, n: int, members) -> object:
        return self.lib.SubsetSpec(n, frozenset(members))

    def _factor(self, factor: tuple) -> tuple:
        kind, n, members = factor
        return kind, self._spec(n, members)

    def columns(self, n: int) -> list:
        if n not in self._columns:
            self._columns[n] = [self._spec(n, s) for s in all_subsets(n)]
        return self._columns[n]

    def prepare(self, spec: tuple) -> tuple:
        """Turn one op spec from ``workloads`` into ``(type, args)`` for ``run_<type>``."""
        kind = spec[0]
        if kind in ("closure", "decompose", "rational"):
            _, basis, left, right, trunc = spec
            return kind, (basis, self._factor(left), self._factor(right), trunc)
        if kind == "spreading":
            _, left, right, trunc = spec
            return kind, (self._factor(left), self._factor(right), trunc)
        if kind == "k1":
            _, right, trunc = spec
            return kind, (self._factor(right), trunc)
        if kind == "q3":
            return kind, ()
        if kind == "cli":
            return kind, (tuple(spec[1]),)
        raise ValueError(f"unknown op spec {spec!r}")

    # -- layer calls --------------------------------------------------------

    def build(self, factor: tuple, trunc: int):
        kind, spec = factor
        fn = self.lib.k_series if kind == "K" else self.lib.l_series
        with self.tr.span("families.build") as s:
            series = fn(spec, trunc)
        s.add("families.terms_built", len(series.terms))
        return series

    def build_q(self, spec, trunc: int, q: int):
        with self.tr.span("families.build") as s:
            series = self.lib.k_series_q(spec, trunc, q)
        s.add("families.terms_built", len(series.terms))
        return series

    def mul(self, a, b):
        with self.tr.span("core.mul") as s:
            product = a * b
        s.add("core.mul_pairs", len(a.terms) * len(b.terms))
        s.add("core.mul_terms_out", len(product.terms))
        return product

    def decompose(self, basis: str, target):
        fn = self.lib.decompose_k if basis == "K" else self.lib.decompose_l
        with self.tr.span("basis.decompose") as s:
            dec = fn(target)
        s.add("basis.decompose_terms_in", len(target.terms))
        s.add("basis.decompose_coeffs_out", len(dec.coeffs))
        return dec

    def reconstruct(self, dec, trunc: int):
        with self.tr.span("basis.reconstruct") as s:
            series = self.lib.reconstruct(dec, trunc)
        s.add("basis.reconstruct_members", len(dec.coeffs))
        return series

    def rational_solve(self, columns: list, target):
        with self.tr.span("basis.rational_solve") as s:
            solution = self.lib.rational_solve(columns, target)
        if self.tr.enabled:
            rows = len(set(target.terms).union(*(c.terms for c in columns)))
            s.add("basis.rational_cells", rows * len(columns))
        return solution

    def product(self, left: tuple, right: tuple, trunc: int):
        return self.mul(self.build(left, trunc), self.build(right, trunc))

    # -- ops and their checks ----------------------------------------------

    def run_closure(self, basis, left, right, trunc):
        target = self.product(left, right, trunc)
        dec = self.decompose(basis, target)
        return self.reconstruct(dec, trunc) == target

    def check_closure(self, same, *args):
        return None if same else ("basis", "reconstruct(decompose(product)) differs from the product")

    def run_decompose(self, basis, left, right, trunc):
        target = self.product(left, right, trunc)
        return target, self.decompose(basis, target)

    def check_decompose(self, result, basis, left, right, trunc):
        target, dec = result
        # K members are expanded into L members by inclusion-exclusion,
        # K_S = sum over T in S of (-1)^|T| L_T, so the check reuses the L
        # members the walk built instead of filling the family cache with K
        # members the op never needed.  The sum goes into a plain dict:
        # Series.add re-validates every term and would cost more than the op.
        by_l: dict = defaultdict(int)
        for spec, c in dec.coeffs.items():
            if basis == "L":
                by_l[spec] += c
                continue
            members = spec.members_sorted()
            for size in range(len(members) + 1):
                for sub in itertools.combinations(members, size):
                    by_l[self._spec(spec.n, sub)] += c * (-1) ** size
        total: dict = defaultdict(int)
        for spec, c in by_l.items():
            if c:
                for m, v in self.lib.l_series(spec, trunc).terms.items():
                    total[m] += c * v
        if {m: v for m, v in total.items() if v} != target.terms:
            return "basis", "reconstruction differs from the product"
        return None

    def run_rational(self, basis, left, right, trunc):
        target = self.product(left, right, trunc)
        columns = [self.build((basis, spec), trunc) for spec in self.columns(target.degree)]
        return target, columns, self.rational_solve(columns, target)

    def check_rational(self, result, *args):
        target, columns, solution = result
        if solution is None:
            return "basis", "rational_solve found no solution for an in-span product"
        total: dict = defaultdict(Fraction)
        for x, column in zip(solution, columns):
            if x:
                for m, v in column.terms.items():
                    total[m] += x * v
        if {m: v for m, v in total.items() if v} != target.terms:
            return "basis", "rational_solve solution does not reproduce the product"
        return None

    def run_q3(self):
        one = self._spec(1, ())
        square = self.mul(self.build_q(one, 2, 3), self.build_q(one, 2, 3))
        columns = [self.build_q(spec, 2, 3) for spec in self.columns(2)]
        return self.rational_solve(columns, square)

    def check_q3(self, solution):
        return None if solution is None else ("basis", "the q=3 degree-1 square was solved")

    def run_spreading(self, left, right, trunc):
        target = self.product(left, right, trunc)
        with self.tr.span("oracle.spreading") as s:
            spreads = self.lib.check_spreading(target)
        s.add("oracle.spreading_slice", math.comb(trunc + target.degree + 1, target.degree))
        with self.tr.span("core.relabel"):
            relabels = self.lib.relabel_check(target)
        return spreads, relabels

    def check_spreading(self, result, *args):
        spreads, relabels = result
        if not spreads:
            return "oracle", "check_spreading failed on an L product"
        if not relabels:
            return "core", "relabel_check failed on an L product"
        return None

    def run_k1(self, right, trunc):
        _, spec = right
        one = ("K", self._spec(1, ()))
        target = self.mul(self.build(one, trunc), self.build(right, trunc))
        with self.tr.span("shuffle.k1_product") as s:
            peaks = self.lib.k1_product(spec)
        s.add("shuffle.shuffles", len(peaks))
        total = self.lib.Series.zero(target.degree, trunc)
        for peak in peaks:
            total = total + self.build(("K", peak), trunc)
        with self.tr.span("oracle.case_rule"):
            rule = all(self.lib.k1_coefficient(mono, spec) == target.coefficient(mono)
                       for mono in self.lib.all_monomials(target.degree, trunc))
        return total == target, rule

    def check_k1(self, result, *args):
        peaks, rule = result
        if not peaks:
            return "shuffle", "peak-set expansion differs from the degree-1 product"
        if not rule:
            return "oracle", "case rule differs from the degree-1 product"
        return None

    def run_cli(self, argv):
        with self.tr.span("cli.process", key=f"cli.process_s.{argv[0]}") as s:
            done = proc.run([sys.executable, "-m", "borderqsym", *argv], CLI_TIMEOUT_S,
                            cwd=self.root, env=self.env)
        s.add("cli.stdout_bytes", len(done.stdout))
        self.child_rss_mb = max(self.child_rss_mb, done.maxrss_mb)
        return done

    def check_cli(self, done, argv):
        if argv not in self._expected:
            self._expected[argv] = self._library_answer(argv)
        code, obj = self._expected[argv]
        if done.exit_code != code:
            return "cli", f"{' '.join(argv)}: exit {done.exit_code}, expected {code}: {done.stderr[-300:]!r}"
        try:
            text = done.stdout.decode()
            parsed = json.loads(text)
        except ValueError as exc:
            return "cli", f"{' '.join(argv)}: stdout is not JSON ({exc})"
        if json.dumps(parsed, indent=2, sort_keys=True) + "\n" != text:
            return "cli", f"{' '.join(argv)}: JSON does not re-serialize to the same bytes"
        if parsed != obj:
            return "cli", f"{' '.join(argv)}: result differs from the library's answer"
        return None

    def _library_answer(self, argv: tuple) -> tuple[int, object]:
        """Exit code and JSON object the CLI must produce, from library calls."""
        lib = self.lib
        command = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))

        def product(extra_vars=0):
            factors = []
            for text in (opts["--left"], opts["--right"]):
                kind, n, members = text.split(":")
                factors.append((kind, lib.SubsetSpec.parse(int(n), members)))
            trunc = max(factors[0][1].n + factors[1][1].n + extra_vars, 1)
            return lib.Series.mul(*(lib.k_series(s, trunc) if k == "K" else lib.l_series(s, trunc)
                                    for k, s in factors))

        if command == "decompose":
            target = product()
            dec = lib.decompose_k(target) if opts["--basis"] == "K" else lib.decompose_l(target)
            return 0, dec.to_json_obj()
        if command == "multiply":
            target = product()
            return 0, {"degree": target.degree, "vars": target.trunc,
                       "terms": [{"monomial": str(m), "coeff": c} for m, c in target.sorted_terms()]}
        if command == "check-spreading":
            target = product(extra_vars=1)
            ok = lib.check_spreading(target)
            return (0 if ok else 1), {"degree": target.degree, "vars": target.trunc, "spreading": ok}
        if command == "shuffle-formula":
            spec = lib.SubsetSpec.parse(int(opts["--m"]), opts["--set"])
            return 0, lib.multiset_json_obj(lib.k1_product(spec))
        if command == "check-q":
            q = int(opts["--q"])
            one = self._spec(1, ())
            square = lib.k_series_q(one, 2, q) * lib.k_series_q(one, 2, q)
            in_span = lib.rational_solve([lib.k_series_q(s, 2, q) for s in self.columns(2)], square) is not None
            return (0 if in_span else 1), {"q": q, "in_span": in_span}
        raise ValueError(f"no library answer for {argv!r}")
