"""Verification suites: each closed form against an independent route.

Not part of the stable API, and not imported by ``finabel``; the ``verify``
command runs a suite through :func:`run`.  A suite (a value of
:data:`SUITES`) is a generator of the sweep's bound that yields one entry
per check: ``None`` when the two routes agree, else the mismatch line.
Each check reads ``yield None if got == want else f"..."``, so a line is
formatted only when its check fails.

The suites that call :mod:`finabel.oracle` import it inside the suite: it
is the one module that needs numpy, and no other suite or command does.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from fractions import Fraction
from math import factorial

from . import counting
from .functions import inverse, mu_closed, n_t, one
from .grouptype import types_up_to
from .hall import subgroup_quotient_pairs
from .lattice import ConcreteGroup, _lattice_pairs, all_subgroups
from .symgen import Permutation, Transposition, generates_full_symmetric, isometry_group_order


def _mu(bound: int) -> Iterator[str | None]:
    inverse_route = inverse(one)
    for T in types_up_to(bound):
        got = inverse_route(T)
        want = Fraction(mu_closed(T))
        yield None if got == want else f"mu({T}): inverse route {got} != closed form {want}"


def _homs(bound: int) -> Iterator[str | None]:
    from . import oracle

    types = list(types_up_to(bound))
    for B in types:  # B outer: only B's element tables are used
        CB = ConcreteGroup.from_type(B)
        for A in types:
            got = oracle.enumerate_homs(ConcreteGroup.from_type(A), CB)
            want = (
                counting.hom_count(A, B),
                counting.mono_count(A, B),
                counting.epi_count(A, B),
            )
            yield None if got == want else f"homs({A},{B}): oracle {got} != formulas {want}"


def _gensubsets(bound: int) -> Iterator[str | None]:
    from . import oracle

    count_fn = n_t(2)
    for T in types_up_to(bound):
        got = oracle.count_generating_subsets(ConcreteGroup.from_type(T))
        want = count_fn(T)
        yield None if got == want else f"generating subsets of {T}: oracle {got} != nt:2 {want}"


def _freefuncs(bound: int) -> Iterator[str | None]:
    from . import oracle

    for t in range(2, 11):
        fn = n_t(t)
        for T in types_up_to(bound):
            if t**T.order > oracle.FUNCTION_SPACE_BOUND:
                continue
            got = oracle.count_free_functions(ConcreteGroup.from_type(T), t)
            want = fn(T)
            yield None if got == want else (
                f"free functions ({T}, t={t}): oracle {got} != nt:{t} {want}"
            )


def _isometries(bound: int) -> Iterator[str | None]:
    from . import oracle

    for T in types_up_to(bound):
        G = ConcreteGroup.from_type(T)
        for H in all_subgroups(G):
            got = oracle.enumerate_isometries(G, H)
            want = isometry_group_order(G.order, H.order)
            yield None if got == want else (
                f"isometries mod order-{H.order} subgroup of {T}: {got} != {want}"
            )


def _symgen(bound: int) -> Iterator[str | None]:
    from . import oracle

    rng = random.Random(20240831)
    for T in types_up_to(bound):
        n = T.order
        if n < 3:
            continue
        G = ConcreteGroup.from_type(T)
        elements = G.elements()
        pairs = [(x, y) for i, x in enumerate(elements) for y in elements[i + 1 :]]
        if n <= 5:
            tau_sets = [[]]
            tau_sets += [[p] for p in pairs]
            tau_sets += [[p, q] for i, p in enumerate(pairs) for q in pairs[i + 1 :]]
        else:
            tau_sets = [
                [pairs[rng.randrange(len(pairs))], pairs[rng.randrange(len(pairs))]]
                for _ in range(40)
            ]
        translations = [Permutation.translation(G, g) for g in elements[1:]]
        for tau_set in tau_sets:
            taus = [Transposition(x, y) for x, y in tau_set]
            perms = [Permutation.transposition(G, x, y) for x, y in tau_set]
            got = generates_full_symmetric(G, taus)
            want = oracle.permutation_closure(G, translations + perms) == factorial(n)
            yield None if got == want else f"symgen mismatch on {T} with {tau_set}"


def _pairs(bound: int) -> Iterator[str | None]:
    for T in types_up_to(bound):
        got = subgroup_quotient_pairs(T)
        want = _lattice_pairs(T.invariant_factors)
        yield None if got == want else f"pairs({T}): Hall route {got} != lattice route {want}"


SUITES: dict[str, Callable[[int], Iterator[str | None]]] = {
    "mu": _mu,
    "homs": _homs,
    "gensubsets": _gensubsets,
    "freefuncs": _freefuncs,
    "isometries": _isometries,
    "symgen": _symgen,
    "pairs": _pairs,
}


def run(suite: str, bound: int) -> tuple[int, list[str]]:
    """Run one suite up to ``bound``: the number of checks and the mismatch lines."""
    checks, mismatches = 0, []
    for line in SUITES[suite](bound):
        checks += 1
        if line is not None:
            mismatches.append(line)
    return checks, mismatches
