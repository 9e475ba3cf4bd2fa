"""The verify suites' mismatch and refusal output, pinned line for line.

Each mismatch case breaks exactly one check of one suite at a small bound
and asserts the whole stderr line, the stdout summary and exit code 4.
"""

import importlib
from math import factorial

import pytest

from finabel.cli import main
from finabel.grouptype import canonicalize

# the module that holds the suites and their imported routes
SUITE_MODULE = "finabel.verify"


def _break_mu(real):
    return lambda T: real(T) + 1 if T == canonicalize([2, 2]) else real(T)


def _break_hom_count(real):
    broken = (canonicalize([2]), canonicalize([4]))
    return lambda A, B: real(A, B) + 1 if (A, B) == broken else real(A, B)


def _break_gensubsets(real):
    return lambda G: real(G) + 1 if G.moduli == (4,) else real(G)


def _break_freefuncs(real):
    return lambda G, t: real(G, t) + 1 if (G.moduli, t) == ((2,), 3) else real(G, t)


def _break_isometries(real):
    return lambda G, H: real(G, H) + 1 if (G.moduli, H.order) == ((4,), 2) else real(G, H)


def _break_closure(real):
    calls = []

    def closure(G, gens):
        got = real(G, gens)
        calls.append(G)
        if len(calls) != 2:
            return got
        return -1 if got == factorial(G.order) else factorial(G.order)

    return closure


def _break_pairs(real):
    return lambda m: {} if m == (2,) else real(m)


MISMATCHES = {
    "mu": (
        "8", SUITE_MODULE, "mu_closed", _break_mu,
        "mu(2,2): inverse route 2 != closed form 3",
        "mu: 11 checks, 1 MISMATCHES",
    ),
    "homs": (
        "4", "finabel.counting", "hom_count", _break_hom_count,
        "homs(2,4): oracle (2, 1, 0) != formulas (3, 1, 0)",
        "homs: 25 checks, 1 MISMATCHES",
    ),
    "gensubsets": (
        "4", "finabel.oracle", "count_generating_subsets", _break_gensubsets,
        "generating subsets of 4: oracle 13 != nt:2 12",
        "gensubsets: 5 checks, 1 MISMATCHES",
    ),
    "freefuncs": (
        "4", "finabel.oracle", "count_free_functions", _break_freefuncs,
        "free functions (2, t=3): oracle 7 != nt:3 6",
        "freefuncs: 45 checks, 1 MISMATCHES",
    ),
    "isometries": (
        "4", "finabel.oracle", "enumerate_isometries", _break_isometries,
        "isometries mod order-2 subgroup of 4: 9 != 8",
        "isometries: 13 checks, 1 MISMATCHES",
    ),
    "symgen": (
        "4", "finabel.oracle", "permutation_closure", _break_closure,
        "symgen mismatch on 3 with [((0,), (1,))]",
        "symgen: 51 checks, 1 MISMATCHES",
    ),
    "pairs": (
        "4", SUITE_MODULE, "_lattice_pairs", _break_pairs,
        "pairs(2): Hall route {(GroupType(invariant_factors=()),"
        " GroupType(invariant_factors=(2,))): 1, (GroupType(invariant_factors=(2,)),"
        " GroupType(invariant_factors=())): 1} != lattice route {}",
        "pairs: 5 checks, 1 MISMATCHES",
    ),
}


@pytest.mark.parametrize("suite", sorted(MISMATCHES))
def test_one_broken_check_prints_its_mismatch_line(suite, capsys, monkeypatch):
    bound, module, name, breaker, err, out = MISMATCHES[suite]
    target = importlib.import_module(module)
    monkeypatch.setattr(target, name, breaker(getattr(target, name)))
    assert main(["verify", suite, bound]) == 4
    captured = capsys.readouterr()
    assert captured.err == err + "\n"
    assert captured.out == out + "\n"


@pytest.mark.parametrize(
    "suite, bound, err",
    [
        ("isometries", "8", "error: group order 8 exceeds the isometry sweep bound 7"),
        ("homs", "48", "error: |Hom| = 1048576 exceeds the enumeration bound 1000000"),
    ],
)
def test_a_refused_sweep_prints_nothing_and_exits_3(suite, bound, err, capsys):
    assert main(["verify", suite, bound]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err + "\n"

