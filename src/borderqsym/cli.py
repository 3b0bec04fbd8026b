"""Command-line front end: construction, products, decomposition, verifiers.

Family members are written as KIND:n:set, e.g. ``K:2:1,2``, ``L:3:2``,
or ``K:2:`` for the empty set.  Default output is a human-readable
sorted term list; ``--json`` switches to canonical JSON (stable key
order, so parsing and re-serializing is byte-identical).  Exit codes:
0 success, 1 domain error or bad flags, 2 internal invariant violation.
A request whose monomial slice C(V + d + 1, d) at output degree d
exceeds 10^7 is refused up front with exit 1; a slice of more than
4,300 digits is never computed.  So is a request that would build a
member of degree n with more than 10^7 equality patterns, 2^(n + 1),
whatever V is.  shuffle-formula spells out m + 1 shuffles of m + 1
letters, so it refuses (m + 1)^2 above 10^7, that is m >= 3162, with
exit 1 as well.  A figure of more than 4,300 digits in these messages
reads "at least 10^4300".  A member with a coefficient of more than
4,300 digits (kseries with a long --q) is refused with exit 1 before
any output.  A --vars below 1 is refused with exit 1 by
every command that takes it, before the size checks, so its message is
the truncation one whatever the other flags are.  A set member with more
digits than n is refused with exit 1 before it is read as a number, and
an n written with a sign, space, underscore or leading zero is refused;
so is such a value of --n, --m, --vars or --q, which may only carry a
leading minus sign.
``decompose`` prints the minimal form: each distinct L member at most
once, on its first subset by size and then lexicographically, and its K
expansion for ``--basis K``.  A NotDivisibleError, which no product of
members raises, names the target's own coefficient at its monomial.
``selftest --json`` gives each suite's wall time
in a ``seconds`` field beside ``name``, ``ok`` and ``detail``; the
human-readable lines carry no time.  The verifiers (spreading, peak
sets, selftest) load only for the commands that run them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .basis import NonzeroResidualError, NotDivisibleError, decompose_k, decompose_l
from .core import Series, _check_trunc
from .families import SubsetSpec, _numeral, k_series, k_series_q, l_series

# The commands that run the oracle, shuffle and verify modules import them
# themselves, so that no other request loads them.


def dump_json(obj) -> str:
    """Canonical JSON used by every --json emitter."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Largest monomial slice C(V + d + 1, d) a request may span.
_SLICE_LIMIT = 10**7


def _too_large(what: str) -> ValueError:
    return ValueError(f"{what}, above the limit of {_SLICE_LIMIT}")


def _binomial(n: int, k: int, cap: int) -> Optional[int]:
    # C(n, k), or None once it is known to exceed cap.  With k <= n - k each
    # step C(n - k + i, i) = C(n - k + i - 1, i - 1) * (n - k + i) / i at
    # least doubles, so the loop ends within cap.bit_length() steps.
    k = min(k, n - k)
    size = 1
    for i in range(1, k + 1):
        size = size * (n - k + i) // i
        if size > cap:
            return None
    return size


def _shown(value: Optional[int]) -> object:
    # an int in full while Python prints one in full, up to 4,300 digits;
    # None stands for a value already known to be past that
    digits = sys.int_info.default_max_str_digits
    return value if value is not None and value < 10**digits else f"at least 10^{digits}"


def _check_request(degree: int, trunc: int, *members: int) -> None:
    # runs before any enumeration: V >= 1, the output's monomial slice,
    # then the equality patterns each member enumerates at any V
    _check_trunc(trunc)
    if _binomial(trunc + degree + 1, degree, _SLICE_LIMIT) is None:
        size = _binomial(trunc + degree + 1, degree, 10**sys.int_info.default_max_str_digits - 1)
        raise _too_large(f"degree {_shown(degree)} at vars {_shown(trunc)} spans {_shown(size)} monomials")
    for n in members:
        if n + 1 >= _SLICE_LIMIT.bit_length():  # 2^(n + 1) > _SLICE_LIMIT
            raise _too_large(f"a degree-{n} member has {2 << n} equality patterns")


def _int_flag(text: str) -> int:
    # The int whose str() is text: an optional minus sign, then a numeral
    # as set members write it.  Anything else reads as argparse reports
    # text that int() refuses, "invalid int value".
    if _numeral(text[1:] if text[:1] == "-" else text) and text != "-0":
        try:
            return int(text)
        except ValueError:  # over Python's 4,300-digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # bad flags are a domain error (exit 1), not an internal failure
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def parse_factor(text: str) -> tuple[str, SubsetSpec]:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("K", "L"):
        raise ValueError(f"bad factor {text!r}; expected KIND:n:set, e.g. K:2:1,2 or L:3: for the empty set")
    try:
        n = int(parts[1])
    except ValueError:
        raise ValueError(f"bad factor {text!r}; n must be an integer") from None
    # the numeral rule of set members, since int() also reads a sign, spaces,
    # underscores and other scripts' digits; a negative n meets the range check
    if n >= 0 and not _numeral(parts[1]):
        raise ValueError(f"bad factor {text!r}; n must be ASCII digits without sign, space or leading zero, such as 3")
    return parts[0], SubsetSpec.parse(n, parts[2])


def _factor_series(kind: str, spec: SubsetSpec, trunc: int) -> Series:
    return k_series(spec, trunc) if kind == "K" else l_series(spec, trunc)


def _series_json_obj(series: Series) -> dict:
    return {
        "degree": series.degree,
        "vars": series.trunc,
        "terms": [{"monomial": str(m), "coeff": c} for m, c in series.sorted_terms()],
    }


def _emit_series(series: Series, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(dump_json(_series_json_obj(series)))
        return
    for m, c in series.sorted_terms():
        print(f"{c} {m}")


def _cmd_member(args) -> int:
    # kseries and lseries, told apart by the kind their subparser sets
    spec = SubsetSpec.parse(args.n, args.set)
    trunc = args.vars if args.vars is not None else max(args.n, 1)
    _check_request(args.n, trunc, args.n)
    series = k_series_q(spec, trunc, args.q) if args.kind == "K" else l_series(spec, trunc)
    # refused before the first byte, not by Python's digit limit halfway through the output
    top = max(map(abs, series._coords.values()), default=0)
    if top >= 10**sys.int_info.default_max_str_digits:
        raise ValueError(f"the member has a coefficient of {_shown(top)}, too many digits to print")
    _emit_series(series, args.json)
    return 0


def _product(args, extra_vars: int = 0) -> Series:
    kind_l, spec_l = parse_factor(args.left)
    kind_r, spec_r = parse_factor(args.right)
    trunc = args.vars if args.vars is not None else max(spec_l.n + spec_r.n + extra_vars, 1)
    _check_request(spec_l.n + spec_r.n, trunc, spec_l.n, spec_r.n)
    return _factor_series(kind_l, spec_l, trunc) * _factor_series(kind_r, spec_r, trunc)


def _cmd_multiply(args) -> int:
    _emit_series(_product(args), args.json)
    return 0


def _cmd_decompose(args) -> int:
    product = _product(args)
    dec = decompose_k(product) if args.basis == "K" else decompose_l(product)
    if args.json:
        sys.stdout.write(dump_json(dec.to_json_obj()))
        return 0
    for spec, c in dec.sorted_items():
        print(f"{c:+d} {dec.basis}:{dec.degree}:{spec.member_text()}")
    return 0


def _cmd_shuffle_formula(args) -> int:
    spec = SubsetSpec.parse(args.m, args.set)
    # the expansion spells out m + 1 shuffles of m + 1 letters each
    size = (spec.n + 1) ** 2
    if size > _SLICE_LIMIT:
        letters = _shown(spec.n + 1)
        raise _too_large(f"m {spec.n} expands to {letters} shuffles of {letters} letters, {_shown(size)} letters in all")
    from .shuffle import k1_product, multiset_counts, multiset_json_obj

    specs = k1_product(spec)
    if args.json:
        sys.stdout.write(dump_json(multiset_json_obj(specs)))
        return 0
    for out_spec, mult in multiset_counts(specs):
        print(f"{mult} K:{out_spec.n}:{out_spec.member_text()}")
    return 0


def _cmd_gp(args) -> int:
    from .shuffle import gp

    spec = gp(args.string)
    if args.json:
        sys.stdout.write(dump_json({"n": spec.n, "set": list(spec.members_sorted())}))
        return 0
    print("{" + spec.member_text() + "}")
    return 0


def _cmd_check_spreading(args) -> int:
    from .oracle import check_spreading

    product = _product(args, extra_vars=1)
    ok = check_spreading(product)
    if args.json:
        sys.stdout.write(dump_json({"degree": product.degree, "vars": product.trunc, "spreading": ok}))
    else:
        state = "holds" if ok else "violated"
        print(f"spreading {state}: degree {product.degree}, vars {product.trunc}")
    return 0 if ok else 1


def _cmd_check_q(args) -> int:
    from .verify import q_square_in_span

    in_span = q_square_in_span(args.q)
    if args.json:
        sys.stdout.write(dump_json({"q": args.q, "in_span": in_span}))
    elif in_span:
        print(f"q={args.q}: the degree-1 square lies in the span of the degree-2 family")
    else:
        print(f"q={args.q}: the degree-1 square is outside the span of the degree-2 family")
    return 0 if in_span else 1


def _cmd_selftest(args) -> int:
    from .verify import SUITES

    results = []
    all_ok = True
    for name, suite in SUITES:
        start = time.perf_counter()
        ok, detail = suite()
        seconds = round(time.perf_counter() - start, 4)
        all_ok = all_ok and ok
        results.append({"name": name, "ok": ok, "detail": detail, "seconds": seconds})
        if not args.json:
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if args.json:
        sys.stdout.write(dump_json({"ok": all_ok, "results": results}))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="borderqsym", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, **defaults)
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        return p

    p = add("kseries", _cmd_member, "construct a K family member", kind="K")
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--set", default="", help="comma-separated ascending members, empty for {}")
    p.add_argument("--vars", type=_int_flag, help="naturals kept (default: max(n, 1))")
    p.add_argument("--q", type=_int_flag, default=2, help="coefficient base (default 2)")

    p = add("lseries", _cmd_member, "construct an L family member", kind="L")
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--set", default="")
    p.add_argument("--vars", type=_int_flag)

    p = add("multiply", _cmd_multiply, "multiply two family members")
    p.add_argument("--left", required=True, help="factor as KIND:n:set")
    p.add_argument("--right", required=True)
    p.add_argument("--vars", type=_int_flag, help="default: total degree")

    p = add("decompose", _cmd_decompose, "decompose a product onto the K or L family")
    p.add_argument("--basis", choices=("K", "L"), default="L")
    p.add_argument("--left", required=True)
    p.add_argument("--right", default="K:0:", help="default: the unit factor K:0:")
    p.add_argument("--vars", type=_int_flag, help="default: total degree")

    p = add("shuffle-formula", _cmd_shuffle_formula, "expand the degree-1 K product by peak sets")
    p.add_argument("--m", type=_int_flag, required=True)
    p.add_argument("--set", default="")

    p = add("gp", _cmd_gp, "generalized peak set of an ABCD string")
    p.add_argument("--string", required=True)

    p = add("check-spreading", _cmd_check_spreading, "verify coefficient doubling under resolutions")
    p.add_argument("--left", required=True)
    p.add_argument("--right", default="L:0:", help="default: the unit factor L:0:")
    p.add_argument("--vars", type=_int_flag, help="default: total degree + 1")

    p = add("check-q", _cmd_check_q, "test whether the degree-1 square stays in the span for base q")
    p.add_argument("--q", type=_int_flag, default=3)

    add("selftest", _cmd_selftest, "run the exhaustive small-degree verification suites")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (None, 0) else 1
    try:
        return args.func(args)
    except (NotDivisibleError, NonzeroResidualError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
