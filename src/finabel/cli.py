"""Command-line front end.

Commands: eval, table, hom, mono, epi, aut, subcount, profile, conjecture,
symgen, verify.  Groups are written as comma-separated moduli ("2,2,4");
transpositions as ">"-separated element pairs joined by ";" ("0,0>1,0;0,0>0,1").

Exit codes: 0 success, 2 usage error (bad arguments, unknown function,
unparseable group, an order bound below 1), 3 resource bound or domain
error from the library, 4 verification mismatch, 5 failed internal check
(an ``AssertionError`` raised by the library's own consistency checks: a
bug, not bad input).  Resource bounds are the library's fixed work bounds
(see the package docstring); no option changes them.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from . import counting
from .errors import BoundExceededError
from .functions import (
    builtin_function,
    inverse,
    mu_closed,
    n_t,
    one,
)
from .grouptype import GroupType, parse_group_spec, types_up_to
from .hall import subgroup_quotient_pairs
from .lattice import ConcreteGroup, _lattice_pairs, all_subgroups
from .symgen import Permutation, Transposition, generates_full_symmetric, isometry_group_order

__all__ = ["main"]

FORMATS = ("aligned", "csv", "json-lines")


class _UsageError(Exception):
    pass


def _parse_group(text: str) -> GroupType:
    try:
        return parse_group_spec(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_concrete(text: str) -> ConcreteGroup:
    """Moduli as written (no canonicalization): transposition coordinates
    refer to the product the user typed."""
    try:
        moduli = [int(p) for p in text.split(",")]
        return ConcreteGroup(moduli)
    except ValueError as exc:
        raise _UsageError(f"bad group spec {text!r}: {exc}") from None


def _parse_transpositions(text: str, G: ConcreteGroup) -> list[Transposition]:
    taus = []
    for part in text.split(";"):
        left, sep, right = part.partition(">")
        if not sep:
            raise _UsageError(f"bad transposition {part!r}: expected x>y")
        try:
            x = tuple(int(c) for c in left.split(","))
            y = tuple(int(c) for c in right.split(","))
        except ValueError:
            raise _UsageError(f"bad transposition {part!r}: coordinates must be integers") from None
        for point in (x, y):
            if not G.contains(point):
                raise _UsageError(f"{point} is not an element of Z_{G.moduli}")
        try:
            taus.append(Transposition(x, y))
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    return taus


def _resolve_function(name: str):
    try:
        return builtin_function(name)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _emit(records: Sequence[tuple[str, str, str]], fmt: str, out) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["group", "function", "value"])
        writer.writerows(records)
    elif fmt == "json-lines":
        for group, function, value in records:
            out.write(
                json.dumps({"group": group, "function": function, "value": value})
                + "\n"
            )
    else:
        width_g = max((len(r[0]) for r in records), default=0)
        width_f = max((len(r[1]) for r in records), default=0)
        for group, function, value in records:
            out.write(f"{group:<{width_g}}  {function:<{width_f}}  {value}\n")


def _cmd_eval(args) -> int:
    f = _resolve_function(args.function)
    G = _parse_group(args.group)
    value = f(G)
    _emit([(str(G), f.name, str(value))], args.format, sys.stdout)
    return 0


def _cmd_table(args) -> int:
    functions = [_resolve_function(name) for name in args.functions.split(",")]
    if args.max_order < 1:
        raise _UsageError("max order must be >= 1")
    fmt = args.table_format or args.format
    records = [
        (str(T), f.name, str(f(T)))
        for T in types_up_to(args.max_order)
        for f in functions
    ]
    _emit(records, fmt, sys.stdout)
    return 0


def _cmd_pairwise_count(args) -> int:
    A = _parse_group(args.group_a)
    B = _parse_group(args.group_b)
    fn = {
        "hom": counting.hom_count,
        "mono": counting.mono_count,
        "epi": counting.epi_count,
    }[args.command]
    print(fn(A, B))
    return 0


def _cmd_aut(args) -> int:
    print(counting.aut_count(_parse_group(args.group)))
    return 0


def _cmd_subcount(args) -> int:
    B = _parse_group(args.subgroup_type)
    A = _parse_group(args.ambient)
    print(counting.sub_count(B, A))
    return 0


def _cmd_profile(args) -> int:
    G = _parse_group(args.group)
    # compute both before printing, so a refusal leaves stdout empty
    lines = []
    if args.kind in ("elements", "both"):
        lines.append(("element-orders", counting.element_order_profile(G)))
    if args.kind in ("subgroups", "both"):
        lines.append(("subgroup-orders", counting.subgroup_order_profile(G)))
    for label, prof in lines:
        print(label + " " + " ".join(f"{d}:{c}" for d, c in sorted(prof.items())))
    return 0


def _cmd_conjecture(args) -> int:
    if args.max_order < 1:
        raise _UsageError("max order must be >= 1")
    pairs = counting.conjecture_search(args.max_order)
    if pairs:
        for A, B in pairs:
            print(f"counterexample candidate: {A} ~ {B}")
    else:
        print(f"no counterexamples up to order {args.max_order}")
    return 0


def _cmd_symgen(args) -> int:
    G = _parse_concrete(args.group)
    taus = _parse_transpositions(args.transpositions, G)
    print("true" if generates_full_symmetric(G, taus) else "false")
    return 0


# ---------------------------------------------------------------------------
# verification suites (oracle sweeps; not part of the stable library API).
# The suites that need finabel.oracle import it themselves: it is the only
# module with a third-party dependency, which no other command needs.


def _suite_mu(bound: int) -> tuple[int, list[str]]:
    inverse_route = inverse(one)
    checked, bad = 0, []
    for T in types_up_to(bound):
        checked += 1
        got = inverse_route(T)
        want = Fraction(mu_closed(T))
        if got != want:
            bad.append(f"mu({T}): inverse route {got} != closed form {want}")
    return checked, bad


def _suite_homs(bound: int) -> tuple[int, list[str]]:
    from . import oracle

    types = list(types_up_to(bound))
    checked, bad = 0, []
    for B in types:  # B outer: only B's element tables are used
        CB = ConcreteGroup.from_type(B)
        for A in types:
            checked += 1
            hom, mono, epi = oracle.enumerate_homs(ConcreteGroup.from_type(A), CB)
            want = (
                counting.hom_count(A, B),
                counting.mono_count(A, B),
                counting.epi_count(A, B),
            )
            if (hom, mono, epi) != want:
                bad.append(f"homs({A},{B}): oracle {(hom, mono, epi)} != formulas {want}")
    return checked, bad


def _suite_gensubsets(bound: int) -> tuple[int, list[str]]:
    from . import oracle

    count_fn = n_t(2)
    checked, bad = 0, []
    for T in types_up_to(bound):
        checked += 1
        got = oracle.count_generating_subsets(ConcreteGroup.from_type(T))
        want = count_fn(T)
        if got != want:
            bad.append(f"generating subsets of {T}: oracle {got} != nt:2 {want}")
    return checked, bad


def _suite_freefuncs(bound: int) -> tuple[int, list[str]]:
    from . import oracle

    checked, bad = 0, []
    for t in range(2, 11):
        fn = n_t(t)
        for T in types_up_to(bound):
            if t**T.order > oracle.FUNCTION_SPACE_BOUND:
                continue
            checked += 1
            got = oracle.count_free_functions(ConcreteGroup.from_type(T), t)
            want = fn(T)
            if got != want:
                bad.append(f"free functions ({T}, t={t}): oracle {got} != nt:{t} {want}")
    return checked, bad


def _suite_isometries(bound: int) -> tuple[int, list[str]]:
    from . import oracle

    checked, bad = 0, []
    for T in types_up_to(bound):
        G = ConcreteGroup.from_type(T)
        for H in all_subgroups(G):
            checked += 1
            got = oracle.enumerate_isometries(G, H)
            want = isometry_group_order(G.order, H.order)
            if got != want:
                bad.append(f"isometries mod order-{H.order} subgroup of {T}: {got} != {want}")
    return checked, bad


def _suite_symgen(bound: int) -> tuple[int, list[str]]:
    from . import oracle

    checked, bad = 0, []
    rng = random.Random(20240831)
    for T in types_up_to(bound):
        n = T.order
        if n < 3:
            continue
        G = ConcreteGroup.from_type(T)
        elements = G.elements()
        pairs = [
            (x, y) for i, x in enumerate(elements) for y in elements[i + 1 :]
        ]
        if n <= 5:
            tau_sets = [[]]
            tau_sets += [[p] for p in pairs]
            tau_sets += [
                [p, q] for i, p in enumerate(pairs) for q in pairs[i + 1 :]
            ]
        else:
            tau_sets = [
                [pairs[rng.randrange(len(pairs))], pairs[rng.randrange(len(pairs))]]
                for _ in range(40)
            ]
        translations = [Permutation.translation(G, g) for g in elements[1:]]
        for tau_set in tau_sets:
            checked += 1
            taus = [Transposition(x, y) for x, y in tau_set]
            perms = [Permutation.transposition(G, x, y) for x, y in tau_set]
            predicted = generates_full_symmetric(G, taus)
            closure = oracle.permutation_closure(G, translations + perms)
            if predicted != (closure == factorial(n)):
                bad.append(f"symgen mismatch on {T} with {tau_set}")
    return checked, bad


def _suite_pairs(bound: int) -> tuple[int, list[str]]:
    checked, bad = 0, []
    for T in types_up_to(bound):
        checked += 1
        got = subgroup_quotient_pairs(T)
        want = _lattice_pairs(T.invariant_factors)
        if got != want:
            bad.append(f"pairs({T}): Hall route {got} != lattice route {want}")
    return checked, bad


_SUITES: dict[str, Callable[[int], tuple[int, list[str]]]] = {
    "mu": _suite_mu,
    "homs": _suite_homs,
    "gensubsets": _suite_gensubsets,
    "freefuncs": _suite_freefuncs,
    "isometries": _suite_isometries,
    "symgen": _suite_symgen,
    "pairs": _suite_pairs,
}


def _cmd_verify(args) -> int:
    if args.bound < 1:
        raise _UsageError("bound must be >= 1")
    checked, mismatches = _SUITES[args.suite](args.bound)
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        print(f"{args.suite}: {checked} checks, {len(mismatches)} MISMATCHES")
        return 4
    print(f"{args.suite}: {checked} checks, OK")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finabel",
        description="Exact arithmetic on finite abelian groups.",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="aligned",
        help="output format for eval/table (default aligned)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a function on one group")
    p.add_argument("function", help="builtin name, e.g. mu, phi, nsub, nt:2")
    p.add_argument("group", help="comma-separated moduli, e.g. 2,2,4")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("table", help="tabulate functions over all types up to an order")
    p.add_argument("functions", help="comma-separated function names")
    p.add_argument("max_order", type=int)
    p.add_argument(
        "table_format",
        nargs="?",
        choices=FORMATS,
        default=None,
        help="optional positional format (overrides --format)",
    )
    p.set_defaults(handler=_cmd_table)

    for name, help_text in (
        ("hom", "number of homomorphisms A -> B"),
        ("mono", "number of injective homomorphisms A -> B"),
        ("epi", "number of surjective homomorphisms A -> B"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("group_a")
        p.add_argument("group_b")
        p.set_defaults(handler=_cmd_pairwise_count)

    p = sub.add_parser("aut", help="number of automorphisms")
    p.add_argument("group")
    p.set_defaults(handler=_cmd_aut)

    p = sub.add_parser("subcount", help="number of subgroups of AMBIENT isomorphic to TYPE")
    p.add_argument("subgroup_type", metavar="TYPE")
    p.add_argument("ambient", metavar="AMBIENT")
    p.set_defaults(handler=_cmd_subcount)

    p = sub.add_parser("profile", help="element/subgroup order profiles")
    p.add_argument("group")
    p.add_argument("--kind", choices=("elements", "subgroups", "both"), default="both")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("conjecture", help="scan for equal subgroup-order profiles")
    p.add_argument("max_order", type=int)
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("symgen", help="do translations + transpositions generate Sym(G)?")
    p.add_argument("group", help="moduli as written (coordinates refer to this product)")
    p.add_argument("transpositions", help="e.g. 0>2 or 0,0>1,0;0,0>0,1")
    p.set_defaults(handler=_cmd_symgen)

    p = sub.add_parser("verify", help="run an oracle cross-validation sweep")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("bound", type=int)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    # Python's limit on int <-> str conversion (4,300 digits) is far below the
    # values MAX_VALUE_BITS admits (about 315,000 digits); lift it for this
    # call only, since tests and benchmarks call main in-process
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # domain errors from library operations
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 5
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
