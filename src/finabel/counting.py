"""Morphism and subgroup counting between finite abelian group types.

Hom cardinalities come from the bilinear gcd product over invariant factors;
Mono/Epi/Aut are obtained by Moebius inversion over subgroups, summed
through the type-level (subgroup type, quotient type) multiset, and the
number of subgroups of a fixed type is Mono/Aut (an exact division; a
remainder indicates a bug).  Order profiles implement the classification
theorems as decision procedures, and ``conjecture_search`` scans for
equal-order types with identical subgroup-order profiles (it reports,
never asserts).
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd

from .functions import mu_closed
from .grouptype import GroupType, cyclic, is_prime, types_of_order
from .lattice import _type_profile, subgroup_quotient_pairs

__all__ = [
    "OrderProfile",
    "hom_count",
    "mono_count",
    "epi_count",
    "aut_count",
    "sub_count",
    "gaussian_subspace_count",
    "element_order_profile",
    "subgroup_order_profile",
    "isomorphic_by_element_orders",
    "conjecture_search",
    "yoneda_numeric_check",
]

# order -> count of elements (or subgroups) of that order
OrderProfile = dict[int, int]


def hom_count(A: GroupType, B: GroupType) -> int:
    """|Hom(A, B)| = product of gcd(a_i, b_j) over invariant factors.

    |Hom| is multiplicative in each variable and gcd(m, n) is the cyclic
    case, which pins the formula; it is cross-validated against brute-force
    enumeration by the oracle tests.
    """
    out = 1
    for a in A.invariant_factors:
        for b in B.invariant_factors:
            out *= gcd(a, b)
    return out


_mono_memo: dict[tuple[GroupType, GroupType], int] = {}


def mono_count(A: GroupType, B: GroupType) -> int:
    """|Mono(A, B)| = sum over subgroups H of A of mu(A/H) |Hom(H, B)|."""
    key = (A, B)
    cached = _mono_memo.get(key)
    if cached is None:
        total = 0
        for (ht, qt), mult in subgroup_quotient_pairs(A).items():
            m = mu_closed(qt)
            if m:
                total += mult * m * hom_count(ht, B)
        if total < 0:
            raise AssertionError(f"negative monomorphism count for {A}, {B} (bug)")
        cached = _mono_memo.setdefault(key, total)
    return cached


def epi_count(A: GroupType, B: GroupType) -> int:
    """|Epi(A, B)| = |Mono(B, A)| (the category is equivalent to its dual)."""
    return mono_count(B, A)


def aut_count(B: GroupType) -> int:
    """|Aut(B)| = |Mono(B, B)|; at least 1."""
    n = mono_count(B, B)
    if n < 1:
        raise AssertionError(f"automorphism count of {B} must be positive (bug)")
    return n


def sub_count(B: GroupType, A: GroupType) -> int:
    """Number of subgroups of A isomorphic to B: |Mono(B, A)| / |Aut(B)|.

    The division is exact; a remainder would signal a bug and raises.
    """
    m = mono_count(B, A)
    a = aut_count(B)
    q, r = divmod(m, a)
    if r:
        raise AssertionError(
            f"sub_count({B}, {A}): {m} not divisible by |Aut| = {a} (bug)"
        )
    return q


def gaussian_subspace_count(p: int, n: int, d: int) -> int:
    """Number of d-dimensional subspaces of F_p^n (Gaussian binomial)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    if d > n:
        return 0
    num = 1
    den = 1
    for i in range(d):
        num *= p**n - p**i
        den *= p**d - p**i
    q, r = divmod(num, den)
    if r:
        raise AssertionError("Gaussian binomial is not integral (bug)")
    return q


def element_order_profile(A: GroupType) -> OrderProfile:
    """Counts of elements by order; {1: 1} for the trivial group."""
    return dict(_type_profile(A))


def subgroup_order_profile(A: GroupType, max_order: int | None = None) -> OrderProfile:
    """Counts of subgroups by order, summed from the (subgroup type,
    quotient type) multiset; refuses types above the lattice bound."""
    counts: Counter = Counter()
    for (ht, _), mult in subgroup_quotient_pairs(A, max_order).items():
        counts[ht.order] += mult
    return dict(sorted(counts.items()))


def isomorphic_by_element_orders(A: GroupType, B: GroupType) -> bool:
    """Equal element-order profiles; by the classification theorem this is
    equivalent to A = B as canonical types (tested as such)."""
    return _type_profile(A) == _type_profile(B)


def conjecture_search(
    max_order: int, lattice_bound: int | None = None
) -> list[tuple[GroupType, GroupType]]:
    """All pairs of distinct equal-order types (order <= max_order) whose
    subgroup-order profiles coincide.  Reports findings; expected empty."""
    findings: list[tuple[GroupType, GroupType]] = []
    for n in range(1, max_order + 1):
        by_profile: dict[tuple, list[GroupType]] = {}
        for T in types_of_order(n):
            key = tuple(sorted(subgroup_order_profile(T, lattice_bound).items()))
            by_profile.setdefault(key, []).append(T)
        for group in by_profile.values():
            for A, B in itertools.combinations(group, 2):
                findings.append((A, B))
    return findings


def yoneda_numeric_check(A: GroupType, B: GroupType, cyclic_bound: int) -> bool:
    """True iff |Hom(A, Z_d)| = |Hom(B, Z_d)| for every d <= cyclic_bound.

    Agreement on enough cyclic test groups decides isomorphism.
    """
    for d in range(1, cyclic_bound + 1):
        Zd = cyclic(d)
        if hom_count(A, Zd) != hom_count(B, Zd):
            return False
    return True
