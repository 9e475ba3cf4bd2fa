import copy
import math
import pickle
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finabel.errors import BoundExceededError
from finabel.grouptype import (
    GroupType,
    TRIVIAL_GROUP,
    _join,
    canonicalize,
    cyclic,
    dim_p,
    factorize,
    is_elementary,
    min_generators,
    parse_group_spec,
    primary_parts,
    product,
    types_of_order,
    types_up_to,
)

moduli_lists = st.lists(st.integers(min_value=1, max_value=60), max_size=5)


def brute_order_profile(moduli):
    """Element-order profile of a product of cyclic groups, computed from
    scratch (no library calls)."""
    import itertools

    counts = Counter()
    for g in itertools.product(*(range(m) for m in moduli)):
        counts[math.lcm(*(m // math.gcd(m, c) for c, m in zip(g, moduli)))] += 1
    if not moduli:
        counts[1] = 1
    return counts


def test_canonicalize_examples():
    assert canonicalize([6, 4]).invariant_factors == (2, 12)
    assert canonicalize([1, 1]) == TRIVIAL_GROUP
    assert canonicalize([2, 2, 4]).invariant_factors == (2, 2, 4)


def test_canonicalize_preserves_order_profile():
    # same isomorphism type iff same element-order profile
    assert brute_order_profile([6, 4]) == brute_order_profile([2, 12])
    assert brute_order_profile([2, 3]) == brute_order_profile([6])


@given(moduli_lists)
def test_canonicalize_idempotent(moduli):
    T = canonicalize(moduli)
    assert canonicalize(T.invariant_factors) == T
    assert T.order == math.prod(moduli)


@given(moduli_lists)
def test_canonicalize_chain(moduli):
    fs = canonicalize(moduli).invariant_factors
    assert all(d >= 2 for d in fs)
    assert all(b % a == 0 for a, b in zip(fs, fs[1:]))


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=1000))
def test_canonicalize_crt(m, n):
    if math.gcd(m, n) == 1:
        assert canonicalize([m, n]) == canonicalize([m * n])


def test_invalid_types_rejected():
    with pytest.raises(ValueError):
        GroupType((2, 3))  # not a chain
    with pytest.raises(ValueError):
        GroupType((1, 2))
    with pytest.raises(ValueError):
        canonicalize([0])
    with pytest.raises(ValueError):
        canonicalize([-3])


ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_value_types_round_trip(round_trip, monkeypatch):
    joined = canonicalize([6, 4])  # built by _join, so it carries its components
    for value in (joined, GroupType((2, 12)), TRIVIAL_GROUP):
        back = round_trip(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == repr(value)
    from finabel import grouptype

    back = round_trip(joined)
    monkeypatch.setattr(grouptype, "factorize", None)  # no factorizing on the way back
    assert back.components == ((2, (2, 1)), (3, (1,)))


def test_value_types_are_immutable():
    G = canonicalize([6, 4])
    for field in ("invariant_factors", "components"):
        with pytest.raises(AttributeError):
            setattr(G, field, ())
        with pytest.raises(AttributeError):
            delattr(G, field)
    assert G.invariant_factors == (2, 12) and G.components == ((2, (2, 1)), (3, (1,)))


def test_value_types_repr_and_equality():
    assert repr(canonicalize([6, 4])) == "GroupType(invariant_factors=(2, 12))"
    assert GroupType((2,)) != (2,)
    assert hash(GroupType((2, 12))) == hash(((2, 12),))  # order of hashed sets stays as it was


def test_order():
    assert TRIVIAL_GROUP.order == 1
    assert canonicalize([2, 4]).order == 8
    assert canonicalize([2, 2, 4]).order == 16


def test_product():
    assert product(cyclic(2), cyclic(3)) == cyclic(6)
    assert product(cyclic(2), cyclic(2)) == canonicalize([2, 2])
    A = canonicalize([2, 12])
    assert product(A, TRIVIAL_GROUP) == A


@given(moduli_lists, moduli_lists)
@settings(max_examples=60)
def test_product_order_multiplicative(ms, ns):
    A, B = canonicalize(ms), canonicalize(ns)
    assert product(A, B).order == A.order * B.order


@given(moduli_lists, moduli_lists)
@settings(max_examples=60)
def test_product_and_primary_round_trips(ms, ns):
    T = canonicalize(ms + ns)
    assert product(canonicalize(ms), canonicalize(ns)) == T
    assert reduce(product, primary_parts(T), TRIVIAL_GROUP) == T
    assert _join(T.components) == T


def test_join_rejects_non_descending_partitions():
    # _join relies on GroupType validation, which raises under -O too
    with pytest.raises(ValueError):
        _join([(2, (1, 2))])


def test_primary_examples():
    assert dict(canonicalize([2, 12]).components) == {2: (2, 1), 3: (1,)}
    assert dict(TRIVIAL_GROUP.components) == {}
    assert dict(canonicalize([2, 2]).components) == {2: (1, 1)}


def test_primary_roundtrip_up_to_10000():
    for n in range(1, 10001):
        for T in types_of_order(n):
            factorized = GroupType(T.invariant_factors).components
            assert _join(factorized) == T
            # partitions carried from _join against partitions factorized
            assert factorized == T.components


def test_primary_parts():
    assert primary_parts(canonicalize([2, 12])) == (
        canonicalize([2, 4]),
        cyclic(3),
    )
    assert primary_parts(TRIVIAL_GROUP) == ()


def test_elementary_and_dim_p():
    assert is_elementary(canonicalize([2, 2]))
    assert not is_elementary(cyclic(4))
    assert is_elementary(cyclic(6))
    assert dim_p(canonicalize([2, 2]), 2) == 2
    assert dim_p(cyclic(6), 2) == 1
    assert dim_p(cyclic(6), 3) == 1
    assert dim_p(cyclic(6), 5) == 0
    with pytest.raises(ValueError):
        dim_p(cyclic(6), 4)


def test_min_generators():
    assert min_generators(TRIVIAL_GROUP) == 0
    assert min_generators(canonicalize([2, 2, 4])) == 3
    assert min_generators(cyclic(12)) == 1


def test_min_generators_monotone_on_subgroups():
    # subgroups never need more generators than the ambient group
    from finabel.lattice import ConcreteGroup, all_subgroups

    for G in types_up_to(64):
        bound = min_generators(G)
        for H in all_subgroups(ConcreteGroup.from_type(G)):
            assert min_generators(H.abstract_type) <= bound


def test_types_of_order(monkeypatch):
    assert types_of_order(1) == [TRIVIAL_GROUP]
    assert [t.invariant_factors for t in types_of_order(8)] == [
        (2, 2, 2),
        (2, 4),
        (8,),
    ]
    assert len(types_of_order(16)) == 5
    assert len(list(types_up_to(8))) == 11

    # a large prime factor is factorized once, with the order, not per type
    from finabel import grouptype

    calls = []
    factorize = grouptype.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(grouptype, "factorize", counted)
    assert len(types_of_order(32 * 10000000000037)) == 7
    assert len(calls) == 1


def plain_factorize(n):
    """Reference factorization: trial division by every d >= 2."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_plain_trial_division():
    for n in range(1, 20001):
        got = factorize(n)
        assert got == plain_factorize(n), n
        assert list(got) == sorted(got), n
    # answered near the bound: primes up to 10^6, and high prime powers
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    assert factorize(97**6) == {97: 6}
    assert factorize(2**40 * 3**10) == {2: 40, 3: 10}
    # both primes pass MAX_TRIAL_DIVISOR = 10^7, so the cofactor is refused whole
    with pytest.raises(BoundExceededError) as refusal:
        factorize((10**7 + 19) * (10**7 + 79))
    assert str(refusal.value) == (
        "factorizing 100000980001501: trial division up to the square root 10000048"
        " of the cofactor 100000980001501, above the bound 10000000"
    )


def test_parse_group_spec():
    assert parse_group_spec("2,2,4").invariant_factors == (2, 2, 4)
    assert parse_group_spec("1") == TRIVIAL_GROUP
    assert parse_group_spec("6,4") == canonicalize([2, 12])
    with pytest.raises(ValueError):
        parse_group_spec("2,x")
    with pytest.raises(ValueError):
        parse_group_spec("0")
    with pytest.raises(ValueError):
        parse_group_spec("")


def test_str_roundtrip():
    for T in types_up_to(24):
        assert parse_group_spec(str(T)) == T
