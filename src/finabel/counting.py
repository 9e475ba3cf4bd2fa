"""Morphism and subgroup counting between finite abelian group types.

Hom cardinalities come from the bilinear gcd product over invariant factors.
Everything else is a closed form per prime, multiplied over the p-parts
(one partition lambda per prime, see :mod:`finabel.hall`): the number of
subgroups of type nu is Birkhoff's count, |Aut| is
p^(|lambda| + 2 n(lambda)) prod_i phi_(m_i)(1/p), |Mono(A, B)| is the
number of subgroups of B of type A times |Aut(A)|, and Epi(A, B) is
Mono(B, A).  The subgroup-order profile
sums Birkhoff's count over the sub-partitions nu of lambda, and the
element-order profile counts p^(sum_i min(k, lambda_i)) elements of order
dividing p^k.  None of this enumerates subgroups or elements, so no lattice
bound applies; the subgroup-order profile is bounded by its own work, the
number of sub-partitions it visits.  Order profiles implement the
classification theorems as decision procedures, and ``conjecture_search``
scans for equal-order types with identical subgroup-order profiles (it
reports, never asserts).
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd

from .errors import BoundExceededError
from .grouptype import GroupType, cyclic, is_prime, types_of_order
from .hall import (
    MAX_PAIRS,
    Partition,
    _gauss,
    _sub_partition_count,
    aut_count_of_type,
    subgroup_count_of_type,
    subgroup_types,
)

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
    """|Mono(A, B)| = (subgroups of B isomorphic to A) * |Aut(A)|."""
    key = (A, B)
    cached = _mono_memo.get(key)
    if cached is None:
        cached = _mono_memo.setdefault(key, sub_count(A, B) * aut_count(A))
    return cached


def epi_count(A: GroupType, B: GroupType) -> int:
    """|Epi(A, B)| = |Mono(B, A)| (the category is equivalent to its dual)."""
    return mono_count(B, A)


def aut_count(B: GroupType) -> int:
    """|Aut(B)|: the product over primes of the |Aut| of each p-part."""
    count = 1
    for p, lam in B.components:
        count *= aut_count_of_type(p, lam)
    return count


def sub_count(B: GroupType, A: GroupType) -> int:
    """Number of subgroups of A isomorphic to B: the product over primes of
    Birkhoff's count; 0 when B has a prime that A lacks."""
    nus = dict(B.components)
    count = 1
    for p, lam in A.components:
        count *= subgroup_count_of_type(p, lam, nus.pop(p, ()))
    return 0 if nus else count


def gaussian_subspace_count(p: int, n: int, d: int) -> int:
    """Number of d-dimensional subspaces of F_p^n (Gaussian binomial)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    return _gauss(p, n, d)


def _combine(A: GroupType, local) -> OrderProfile:
    """Profile of A from the per-prime profiles ``local(p, lam)`` (as
    {exponent k: count of order p^k}): orders multiply across primes."""
    counts: dict[int, int] = {1: 1}
    for p, lam in A.components:
        here = local(p, lam)
        counts = {d * p**k: c * n for d, c in counts.items() for k, n in here.items()}
    return dict(sorted(counts.items()))


def _element_orders(p: int, lam: Partition) -> dict[int, int]:
    # p^(sum of min(k, lam_i)) elements have order dividing p^k
    below = [p ** sum(min(k, part) for part in lam) for k in range(lam[0] + 1)]
    return {0: 1} | {k: below[k] - below[k - 1] for k in range(1, len(below))}


def _subgroup_orders(p: int, lam: Partition) -> dict[int, int]:
    counts: Counter = Counter()
    for nu, count in subgroup_types(p, lam):
        counts[sum(nu)] += count
    return counts


def element_order_profile(A: GroupType) -> OrderProfile:
    """Counts of elements by order; {1: 1} for the trivial group."""
    return _combine(A, _element_orders)


def subgroup_order_profile(A: GroupType) -> OrderProfile:
    """Counts of subgroups by order.

    Raises :class:`BoundExceededError` when the p-parts have more than
    ``hall.MAX_PAIRS`` sub-partitions in all."""
    work = sum(_sub_partition_count(lam) for _, lam in A.components)
    if work > MAX_PAIRS:
        raise BoundExceededError(
            f"subgroup-order profile of {A} visits {work} sub-partitions, "
            f"above the bound {MAX_PAIRS}"
        )
    return _combine(A, _subgroup_orders)


def isomorphic_by_element_orders(A: GroupType, B: GroupType) -> bool:
    """Equal element-order profiles; by the classification theorem this is
    equivalent to A = B as canonical types (tested as such)."""
    return element_order_profile(A) == element_order_profile(B)


def conjecture_search(max_order: int) -> list[tuple[GroupType, GroupType]]:
    """All pairs of distinct equal-order types (order <= max_order) whose
    subgroup-order profiles coincide.  Reports findings; expected empty."""
    findings: list[tuple[GroupType, GroupType]] = []
    for n in range(1, max_order + 1):
        by_profile: dict[tuple, list[GroupType]] = {}
        for T in types_of_order(n):
            key = tuple(sorted(subgroup_order_profile(T).items()))
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
