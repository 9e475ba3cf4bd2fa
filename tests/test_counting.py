import itertools
import time

import pytest

from finabel.counting import (
    aut_count,
    conjecture_search,
    element_order_profile,
    epi_count,
    gaussian_subspace_count,
    hom_count,
    isomorphic_by_element_orders,
    mono_count,
    sub_count,
    subgroup_order_profile,
    yoneda_numeric_check,
)
from finabel.errors import BoundExceededError
from finabel.grouptype import (
    TRIVIAL_GROUP,
    canonicalize,
    cyclic,
    product,
    types_of_order,
    types_up_to,
)
from finabel.hall import MAX_PAIRS, _sub_partition_count, _sub_partitions

T22 = canonicalize([2, 2])


def test_hom_count_examples():
    assert hom_count(cyclic(2), cyclic(4)) == 2
    assert hom_count(TRIVIAL_GROUP, canonicalize([8, 8])) == 1
    assert hom_count(canonicalize([2, 4]), cyclic(2)) == 4


def test_hom_count_symmetric():
    types = list(types_up_to(64))
    for A in types:
        for B in types:
            assert hom_count(A, B) == hom_count(B, A)


def test_mono_epi_aut_examples():
    assert mono_count(cyclic(2), T22) == 3
    assert mono_count(T22, cyclic(2)) == 0
    assert mono_count(T22, T22) == 6  # |GL_2(F_2)|
    assert epi_count(T22, cyclic(2)) == 3
    assert aut_count(T22) == 6
    assert aut_count(TRIVIAL_GROUP) == 1
    assert aut_count(cyclic(4)) == 2


def test_hom_classified_by_kernel():
    # |Hom(A,B)| = sum over subgroups H of A of |Mono(A/H, B)|
    from finabel.lattice import subgroup_quotient_pairs

    for A in types_up_to(36):
        pairs = subgroup_quotient_pairs(A)
        for B in types_up_to(16):
            total = sum(
                mult * mono_count(qt, B) for (ht, qt), mult in pairs.items()
            )
            assert total == hom_count(A, B), (A, B)


def test_mono_count_matches_moebius_sum():
    # the route the closed forms replaced: |Mono(A, B)| is the sum over
    # subgroups H of A of mu(A/H) |Hom(H, B)|
    from finabel.functions import mu_closed
    from finabel.lattice import subgroup_quotient_pairs

    types = list(types_up_to(48))
    for A in types:
        pairs = subgroup_quotient_pairs(A).items()
        for B in types:
            total = sum(mult * mu_closed(qt) * hom_count(ht, B) for (ht, qt), mult in pairs)
            assert mono_count(A, B) == total, (A, B)


def test_sub_count_examples():
    assert sub_count(cyclic(2), T22) == 3
    assert sub_count(T22, T22) == 1
    assert sub_count(cyclic(3), T22) == 0


def test_sub_count_matches_lattice():
    from finabel.lattice import ConcreteGroup, all_subgroups, subgroup_type
    from collections import Counter

    for A in types_up_to(24):
        counts = Counter(
            subgroup_type(H) for H in all_subgroups(ConcreteGroup.from_type(A))
        )
        for B in types_up_to(A.order):
            if A.order % B.order == 0:
                assert sub_count(B, A) == counts.get(B, 0), (B, A)


def test_gaussian_examples():
    assert gaussian_subspace_count(2, 2, 1) == 3
    assert gaussian_subspace_count(3, 2, 1) == 4
    assert gaussian_subspace_count(5, 4, 0) == 1
    assert gaussian_subspace_count(2, 3, 5) == 0
    with pytest.raises(ValueError):
        gaussian_subspace_count(4, 2, 1)
    with pytest.raises(ValueError):
        gaussian_subspace_count(2, 2, -1)


def test_gaussian_matches_sub_count():
    for p in (2, 3):
        for n in range(5):
            A = canonicalize([p] * n)
            for d in range(n + 1):
                B = canonicalize([p] * d)
                assert gaussian_subspace_count(p, n, d) == sub_count(B, A)


def test_gaussian_alternating_sum():
    # sum over d of (-1)^d p^(d(d-1)/2) [n choose d]_p is 1 at n=0, else 0
    for p in (2, 3, 5):
        for n in range(7):
            total = sum(
                (-1) ** d
                * p ** (d * (d - 1) // 2)
                * gaussian_subspace_count(p, n, d)
                for d in range(n + 1)
            )
            assert total == (1 if n == 0 else 0)


def test_profiles():
    assert element_order_profile(cyclic(4)) == {1: 1, 2: 1, 4: 2}
    assert element_order_profile(TRIVIAL_GROUP) == {1: 1}
    assert subgroup_order_profile(T22) == {1: 1, 2: 3, 4: 1}
    assert subgroup_order_profile(cyclic(12)) == {1: 1, 2: 1, 3: 1, 4: 1, 6: 1, 12: 1}


def test_profiles_match_lattice_and_pairs():
    from collections import Counter

    from finabel.hall import subgroup_quotient_pairs
    from finabel.lattice import ConcreteGroup

    for T in types_up_to(64):
        assert element_order_profile(T) == Counter(ConcreteGroup.from_type(T).element_orders()), T
        by_order = Counter()
        for (ht, _), mult in subgroup_quotient_pairs(T).items():
            by_order[ht.order] += mult
        assert subgroup_order_profile(T) == dict(sorted(by_order.items())), T


def test_profiles_of_large_p_groups_visit_one_sub_partition_per_order():
    # the work count is the property; the 1 s limit (about 0.01 s measured)
    # only catches a walk over all partitions of k <= 60 (about 5.4 million)
    start = time.perf_counter()
    for T, lam in ((canonicalize([2] * 60), (1,) * 60), (cyclic(2**60), (60,))):
        assert len(list(_sub_partitions(lam, lam[0]))) == _sub_partition_count(lam) == 61
        subgroups = subgroup_order_profile(T)
        elements = element_order_profile(T)
        assert sum(elements.values()) == T.order
        assert len(subgroups) == 61
    assert subgroup_order_profile(cyclic(2**60)) == {2**k: 1 for k in range(61)}
    assert subgroup_order_profile(canonicalize([2] * 60))[2**30] == gaussian_subspace_count(2, 60, 30)
    assert time.perf_counter() - start < 1.0


def test_sub_partition_count_matches_enumeration():
    from finabel.grouptype import _partitions

    for n in range(9):
        for lam in _partitions(n):
            assert _sub_partition_count(lam) == len(list(_sub_partitions(lam, lam[0] if lam else 0)))
    # lattice paths in a c x r box
    assert _sub_partition_count((10,) * 10) == 184_756


def test_subgroup_order_profile_bounds_its_work():
    assert _sub_partition_count((7,) * 7) <= MAX_PAIRS < _sub_partition_count((8,) * 8)
    assert sum(subgroup_order_profile(canonicalize([2**7] * 7)).values()) > 0
    with pytest.raises(BoundExceededError, match="12870 sub-partitions, above the bound 10000"):
        subgroup_order_profile(canonicalize([2**8] * 8))
    # the work of all p-parts counts together
    with pytest.raises(BoundExceededError):
        subgroup_order_profile(canonicalize([2**7 * 3**7 * 5**7] * 7))
    assert element_order_profile(canonicalize([2**8] * 8))[2] == 2**8 - 1


def test_isomorphic_by_element_orders():
    assert not isomorphic_by_element_orders(cyclic(4), T22)
    assert isomorphic_by_element_orders(T22, T22)
    A = canonicalize([2, 12])
    assert isomorphic_by_element_orders(A, A)
    # profiles characterize the type (classification theorem as a check)
    for n in (8, 16, 36):
        for A, B in itertools.combinations(types_of_order(n), 2):
            assert not isomorphic_by_element_orders(A, B)


def test_conjecture_search():
    assert conjecture_search(16) == []
    assert conjecture_search(1) == []
    assert conjecture_search(8) == []


def test_yoneda_numeric_check():
    assert not yoneda_numeric_check(cyclic(4), T22, 4)
    assert yoneda_numeric_check(T22, T22, 20)
    assert yoneda_numeric_check(cyclic(6), cyclic(6), 20)
    # hom counts against small cyclic groups decide isomorphism
    for n in (12, 16, 24):
        for A, B in itertools.combinations(types_of_order(n), 2):
            assert not yoneda_numeric_check(A, B, 64)


def test_cancellation():
    types = list(types_up_to(16))
    for A in types:
        for B in types:
            for C in types:
                if product(A, B) == product(A, C):
                    assert B == C
