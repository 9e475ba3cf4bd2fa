import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finabel import lattice
from finabel.counting import element_order_profile
from finabel.errors import BoundExceededError
from finabel.grouptype import TRIVIAL_GROUP, canonicalize, cyclic, types_up_to
from finabel.lattice import (
    MAX_LATTICE_WORK,
    ConcreteGroup,
    Subgroup,
    _Arith,
    _arith,
    _close_mask,
    _cokernel,
    _lattice,
    _lattice_pairs,
    _translate,
    all_subgroups,
    element_order,
    generated_subgroup,
    quotient_type,
    smith_normal_form,
    subgroup_quotient_pairs,
    subgroup_type,
    subgroup_type_via_snf,
    type_from_order_statistics,
)


def _run_python(script, *flags):
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def brute_closure(G, gens):
    """Reference closure: saturate under pairwise addition."""
    elems = {G.zero}
    elems.update(gens)
    while True:
        new = {G.add(a, b) for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def test_element_order():
    assert element_order(ConcreteGroup((4,)), (2,)) == 2
    assert element_order(ConcreteGroup((2, 4)), (1, 1)) == 4
    assert element_order(ConcreteGroup((2, 4)), (0, 0)) == 1
    with pytest.raises(ValueError):
        element_order(ConcreteGroup((4,)), (4,))
    with pytest.raises(ValueError):
        element_order(ConcreteGroup((4,)), (1, 1))


def test_index_arithmetic_matches_tuple_arithmetic():
    # the mixed-radix tables of _arith against the tuple operations, on
    # every canonical type of order <= 64 and on moduli as a user writes them
    moduli = [T.invariant_factors for T in types_up_to(64)]
    moduli += [(2, 3), (4, 6, 2), (6, 10, 15), (6, 4), (3, 2, 2)]
    for ms in moduli:
        G = ConcreteGroup(ms)
        ar = _arith(ms)
        elements = G.elements()
        assert elements == sorted(elements)
        for i, g in enumerate(elements):
            assert ar.orders[i] == element_order(G, g), (ms, g)
            assert elements[ar.neg[i]] == G.neg(g), (ms, g)
            row = ar.row(i)
            assert [elements[j] for j in row] == [G.add(h, g) for h in elements], (ms, g)
            if i:
                multiples, cur = {0}, g
                while cur != G.zero:
                    multiples.add(ar.index[cur])
                    cur = G.add(cur, g)
                assert _close_mask(ar, 1, i) == sum(1 << j for j in multiples), (ms, g)


def test_element_tables_are_bounded():
    with pytest.raises(BoundExceededError) as refusal:
        generated_subgroup(ConcreteGroup((10**8,)), [(1,)])
    assert str(refusal.value) == (
        "element tables of Z_[100000000]: 100000000 elements, above the bound 100000"
    )
    # the tables of 20 distinct groups: the caches keep only the latest 16
    for n in range(2, 22):
        all_subgroups(ConcreteGroup((n,)))
    assert _arith.cache_info().currsize == 16
    assert _lattice.cache_info().currsize == 16


def test_translation_rows_are_built_afresh():
    # no row is cached: every row of Z_5000 is right, and each call returns
    # a new list, so a caller that changes its row changes no other
    G = ConcreteGroup((5000,))
    for x in range(5000):
        row = G.add_row(x)
        assert row == list(range(x, 5000)) + list(range(x))
        assert G.add_row(x) is not row


def test_element_indices_outside_the_group_are_refused():
    # a negative index would wrap to an element counted from the end
    G = ConcreteGroup((5,))
    for i in (-1, -5, 5, 6):
        for method in (G.element_at, G.add_row):
            with pytest.raises(ValueError) as refusal:
                method(i)
            assert str(refusal.value) == f"index {i} is outside range(|G|) = range(5)"
    assert G.element_at(4) == (4,)
    assert G.add_row(4) == [4, 0, 1, 2, 3]


def test_shift_translation_matches_rows():
    # _translate moves a whole mask by shifts; a translation row moves it
    # element by element.  Every x, on every subgroup mask of the lattice,
    # the full mask and each single-bit mask
    moduli = [T.invariant_factors for T in types_up_to(64)]
    moduli += [(2, 3), (4, 6, 2), (6, 10, 15), (6, 4), (3, 2, 2)]
    for ms in moduli:
        ar = _arith(ms)
        sets = [idxs for idxs, _ in _lattice(ms)]
        sets += [range(ar.n)] + [(i,) for i in range(ar.n)]
        masks = [sum(1 << i for i in idxs) for idxs in sets]
        for x in range(ar.n):
            moved_bit = [1 << j for j in ar.row(x)]  # bit i moved by x
            shifts = ar.shifts(x)
            for idxs, mask in zip(sets, masks):
                moved = sum(map(moved_bit.__getitem__, idxs))
                assert _translate(mask, shifts) == moved, (ms, x, idxs)


def test_translation_masks_are_cached_up_to_a_bound():
    # Z_5000: each shift list holds one mask of 5000 bits, and the lists
    # share room for 3 * MAX_LATTICE_WORK // 5000 = 2400 masks; later ones
    # are built uncached, and every translation is right both times
    ar = _Arith((5000,))
    for _ in range(2):
        for x in range(5000):
            assert _translate(1, ar.shifts(x)) == 1 << x
            assert _translate(1 << 4999, ar.shifts(x)) == 1 << (x - 1) % 5000
    assert sum(map(len, ar._shifts.values())) == 2400 == 3 * MAX_LATTICE_WORK // 5000
    assert ar._room == 0


def test_orbit_masks_are_cached_up_to_a_bound():
    # Z_5000: the shift lists of elements 1..800 take 800 of the 2400 masks
    # of room.  Closing the trivial subgroup under a multiple x of 5 keeps
    # <x>, one mask more, and the shift list of x if it is new: the 160
    # multiples up to 800 and then 720 more, two masks each, fill the room,
    # and later orbits are walked uncached, both times.  The multiples of 5
    # keep the orders, and so the walks, short; <x> is the set of multiples
    # of gcd(x, 5000), a repunit in base 2^gcd
    ar = _Arith((5000,))
    for x in range(1, 801):
        ar.shifts(x)
    for _ in range(2):
        for x in range(0, 5000, 5):
            g = math.gcd(x, 5000)
            assert _close_mask(ar, 1, x) == ((1 << 5000) - 1) // ((1 << g) - 1), x
    assert sorted(ar._orbits) == list(range(5, 4405, 5))
    assert sum(map(len, ar._shifts.values())) + len(ar._orbits) == 2400 and ar._room == 0


@pytest.mark.parametrize("moduli", [(1999,), (1024,), (8, 8, 8), (2, 4, 8, 16), (3, 9, 27)])
def test_the_room_fits_every_shift_list_of_the_lattice_walk(moduli, monkeypatch):
    asked = set()
    shifts = _Arith.shifts
    monkeypatch.setattr(_Arith, "shifts", lambda ar, x: asked.add(x) or shifts(ar, x))
    _arith.cache_clear()
    _lattice.cache_clear()
    _lattice(moduli)
    assert asked and asked <= _arith(moduli)._shifts.keys()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_element_tables_of_four_groups_stay_small():
    # every translation row, orbit mask and shift list of four groups of
    # 2,000 elements; rows are not kept and the masks share one budget per
    # group, so the peak RSS rises by a few MB.  VmHWM, unlike ru_maxrss,
    # starts afresh at exec and so does not see the parent's peak
    script = textwrap.dedent(
        """
        from finabel.lattice import ConcreteGroup, _close_mask

        def peak_kb():
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])

        base = peak_kb()
        for moduli in [(40, 50), (20, 100), (10, 10, 20), (2000,)]:
            G = ConcreteGroup(moduli)
            ar = G._arith
            for x in range(G.order):
                G.add_row(x)
                _close_mask(ar, 1, x)
                ar.shifts(x)
        print((peak_kb() - base) / 1024)
        """
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 64, f"peak RSS rose by {proc.stdout.strip()} MB"


def test_generated_subgroup_examples():
    Z4 = ConcreteGroup((4,))
    assert generated_subgroup(Z4, [(2,)]).elements == ((0,), (2,))
    Z22 = ConcreteGroup((2, 2))
    assert generated_subgroup(Z22, [(1, 0), (0, 1)]).order == 4
    Z24 = ConcreteGroup((2, 4))
    H = generated_subgroup(Z24, [(1, 2)])
    assert set(H.elements) == {(0, 0), (1, 2)}
    assert generated_subgroup(Z24, []).elements == ((0, 0),)
    with pytest.raises(ValueError):
        generated_subgroup(Z4, [(7,)])


def test_generated_subgroup_keeps_generators_given_as_an_iterator():
    G = ConcreteGroup((4, 6))
    H = generated_subgroup(G, (g for g in [(2, 0), (0, 3)]))
    assert H.order == 4
    assert H.generators == ((2, 0), (0, 3))


@given(
    st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_generated_subgroup_matches_brute_closure(moduli, data):
    G = ConcreteGroup(tuple(moduli))
    elems = G.elements()
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=3))
    assert set(generated_subgroup(G, gens).elements) == brute_closure(G, gens)


def test_all_subgroups_counts():
    assert len(all_subgroups(ConcreteGroup((2, 2)))) == 5
    for p in (2, 3, 5, 7):
        assert len(all_subgroups(ConcreteGroup((p,)))) == 2
    assert len(all_subgroups(ConcreteGroup((12,)))) == 6  # one per divisor
    assert len(all_subgroups(ConcreteGroup(()))) == 1


def test_all_subgroups_contains_trivial_and_full_and_dedups():
    G = ConcreteGroup((2, 4))
    subs = all_subgroups(G)
    orders = [H.order for H in subs]
    assert orders == sorted(orders)
    assert subs[0].order == 1 and subs[-1].order == 8
    assert len({H.elements for H in subs}) == len(subs)
    # every subgroup closed under addition and negation, Lagrange holds
    for H in subs:
        assert G.order % H.order == 0
        members = H.element_set
        for a in members:
            assert G.neg(a) in members
            for b in members:
                assert G.add(a, b) in members


def test_all_subgroups_bound_error():
    # the bound is on predicted work |G| (|G| + s(G)), not on the order:
    # Z_1024 has 11 subgroups, F_2^8 has 417,199
    assert len(all_subgroups(ConcreteGroup((1024,)))) == 11
    for moduli, work in (
        ((2,) * 8, "|G|(|G| + s(G)) = 106868480"),
        ((2,) * 9, "|G|(|G| + s(G)) = 4241392640"),
        ((65536,), "at least |G|^2 = 4294967296"),
    ):
        with pytest.raises(BoundExceededError) as refusal:
            all_subgroups(ConcreteGroup(moduli))
        assert f"predicted work {work}, above the bound 4000000" in str(refusal.value)
    with pytest.raises(BoundExceededError, match="106868480"):
        _lattice_pairs((2,) * 8)


def test_lattice_enumeration_order_is_pinned():
    # element and generator indices, and the BFS order that picks the
    # generators: a faster coset walk must not move any of them
    text = "".join(
        repr(_lattice(m))
        for m in ((2, 2, 2, 2, 2, 2), (2, 2, 4, 4), (4, 4, 4), (2, 2, 2, 8), (3, 3, 3), (2, 6, 6))
    )
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "01e7e01bc1743fbb5815cb8569402505b1fb22dbdc84148051f633ed4b351940"
    )


def test_lattice_of_every_type_up_to_64_is_pinned():
    # element and generator indices of every lattice of order <= 64: a
    # faster coset walk must not move any of them
    text = "".join(repr(_lattice(T.invariant_factors)) for T in types_up_to(64))
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "05bf708a03ca693cf0d423087f879b6188577411b20439e03925d6014b70f1cf"
    )


def test_lattice_of_every_type_from_65_to_128_is_pinned():
    # the same pin on every type of order 65..128 and on groups whose
    # quotients have long cyclic extensions, where the walk skips the most
    ms = [T.invariant_factors for T in types_up_to(128) if T.order > 64]
    ms += [(1999,), (1024,), (8, 8, 8), (2, 4, 8, 16), (3, 9, 27)]
    text = "".join(repr(_lattice(m)) for m in ms)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "4f0a5543b1116bbea5f2e04d0fa94b55a19f9be217cf644fddbf77b42fe2e5cf"
    )


def test_lattice_walks_each_cyclic_subgroup_of_each_quotient_once(monkeypatch):
    # from H the search walks each nontrivial cyclic subgroup C of G/H once,
    # translating H by x, then each coset on to the next, |C| - 1 times; G/H
    # has (elements of order d) / phi(d) cyclic subgroups of order d
    calls = []
    translate = lattice._translate
    monkeypatch.setattr(
        lattice, "_translate", lambda mask, shifts: calls.append(1) or translate(mask, shifts)
    )
    moduli = [T.invariant_factors for T in types_up_to(64)]
    moduli += [(1999,), (1024,), (8, 8, 8), (3, 9, 27)]
    for ms in moduli:
        _lattice.cache_clear()
        _arith.cache_clear()
        calls.clear()
        _lattice(ms)
        walked = len(calls)
        G = ConcreteGroup(ms)
        want = 0
        for H in all_subgroups(G):
            for d, count in element_order_profile(quotient_type(G, H)).items():
                if d > 1:
                    phi = sum(math.gcd(j, d) == 1 for j in range(d))
                    want += count // phi * (d - 1)
        assert walked == want, ms


def test_coprime_product_lattice_factorizes():
    for m in range(2, 13):
        for n in range(2, 13):
            if math.gcd(m, n) != 1:
                continue
            combined = len(all_subgroups(ConcreteGroup((m, n))))
            assert combined == len(all_subgroups(ConcreteGroup((m,)))) * len(
                all_subgroups(ConcreteGroup((n,)))
            )


def test_smith_normal_form_examples():
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    # a diagonal that is no chain, nor made one by adjacent gcd/lcm pairs
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 9]]) == [1, 6, 36]


def test_smith_normal_form_validation():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValueError):
        smith_normal_form([[1.5, 2], [3, 4]])


def minor_gcd(rows, size):
    n_rows, n_cols = len(rows), len(rows[0])
    g = 0
    for rs in itertools.combinations(range(n_rows), size):
        for cs in itertools.combinations(range(n_cols), size):
            sub = [[rows[i][j] for j in cs] for i in rs]
            g = math.gcd(g, round(det(sub)))
    return g


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


@st.composite
def sparse_rectangular(draw):
    """Up to 4 x 5, with zero rows, zero columns and scattered zeros: pivots
    that often fail to divide the rest of their block."""
    r = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.integers(min_value=1, max_value=5))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=r - 1)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=c - 1)))
    entry = st.just(0) | st.integers(min_value=-30, max_value=30)
    return [
        [0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(c)]
        for i in range(r)
    ]


@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=3),
        min_size=2,
        max_size=3,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    | sparse_rectangular()
)
@settings(max_examples=160, deadline=None)
def test_smith_invariants(rows):
    diag = smith_normal_form(rows)
    assert len(diag) == min(len(rows), len(rows[0]))
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert a == 0 or b % a == 0
    # determinantal divisors: s_1 ... s_i = gcd of i x i minors
    running = 1
    for i, s in enumerate(diag, start=1):
        running *= s
        assert running == minor_gcd(rows, i)


@given(sparse_rectangular())
@settings(max_examples=160, deadline=None)
def test_smith_form_of_the_transpose(rows):
    # subgroup_type_via_snf reduces one row per generator, the transpose of
    # the matrix it reduced before: both have the same Smith diagonal
    assert smith_normal_form(rows) == smith_normal_form([list(c) for c in zip(*rows)])


def test_quotient_type_examples():
    Z4 = ConcreteGroup((4,))
    assert quotient_type(Z4, generated_subgroup(Z4, [(2,)])) == cyclic(2)
    Z22 = ConcreteGroup((2, 2))
    for H in all_subgroups(Z22):
        if H.order == 2:
            assert quotient_type(Z22, H) == cyclic(2)
    Z24 = ConcreteGroup((2, 4))
    assert quotient_type(Z24, generated_subgroup(Z24, [(1, 2)])) == cyclic(4)
    # a subgroup built from a bare element set (no stored generators)
    H = Subgroup(Z24, [(0, 0), (0, 2), (1, 0), (1, 2)])
    assert quotient_type(Z24, H) == cyclic(2)
    with pytest.raises(ValueError):
        quotient_type(Z4, generated_subgroup(Z22, [(1, 0)]))


def full_relation_quotient(moduli, gens):
    """Invariant factors of G/<gens> read off ``[diag(m) | generator
    columns]``, the k x (k + r) matrix whose cokernel is the quotient."""
    k = len(moduli)
    columns = [list(c) for c in zip(*gens)] or [[] for _ in moduli]
    rows = [[m if j == i else 0 for j in range(k)] + columns[i] for i, m in enumerate(moduli)]
    diag = smith_normal_form(rows)
    assert len(diag) == k and 0 not in diag  # diag(m) has full rank
    return tuple(d for d in diag if d > 1)


def test_quotient_type_matches_the_full_relation_matrix():
    # quotient_type drops the relations m_i e_i with m_i the exponent
    groups = [ConcreteGroup.from_type(T) for T in types_up_to(64)]
    groups += [ConcreteGroup(ms) for ms in [(4, 6), (6, 10), (12, 18), (4, 6, 2)]]
    for G in groups:
        for H in all_subgroups(G):
            for K in (H, Subgroup(G, H.elements)):
                want = full_relation_quotient(G.moduli, K.generators or K.elements)
                assert quotient_type(G, K).invariant_factors == want, (G, K.generators)
    # the Smith entry 2 is coprime to the exponent 3: Z_1, no factor
    Z3 = ConcreteGroup((3,))
    assert _cokernel((3,), [(2,)]) == full_relation_quotient((3,), [(2,)]) == ()
    assert quotient_type(Z3, generated_subgroup(Z3, [(2,)])) == TRIVIAL_GROUP


@st.composite
def moduli_and_generators(draw):
    """Up to four moduli in 2..12 and up to seven generators, with zero
    and repeated ones."""
    moduli = tuple(draw(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4)))
    zero = (0,) * len(moduli)
    element = st.tuples(*(st.integers(min_value=0, max_value=m - 1) for m in moduli))
    gens = draw(st.lists(st.just(zero) | element, max_size=5))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return moduli, gens


@given(moduli_and_generators())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_cokernel_matches_the_full_relation_matrix(case):
    moduli, gens = case
    assert _cokernel(moduli, gens) == full_relation_quotient(moduli, gens)


def test_homocyclic_subgroups_and_quotients_are_dual():
    # PAPER.md's G/H = H^perp in G = (Z_n)^k: padded to k factors, H's
    # descending and G/H's ascending pair up as n/f and f; the profile route
    # and the Smith route share no code
    for T in types_up_to(64):
        factors = T.invariant_factors
        if len(set(factors)) != 1:
            continue
        n, k = factors[0], len(factors)
        G = ConcreteGroup(factors)
        for H in all_subgroups(G):
            sub = H.abstract_type.invariant_factors
            quo = quotient_type(G, H).invariant_factors
            sub = sorted(sub + (1,) * (k - len(sub)), reverse=True)
            quo = sorted(quo + (1,) * (k - len(quo)))
            assert [s * q for s, q in zip(sub, quo)] == [n] * k, (T, H.generators)


def test_subgroups_carry_as_many_generators_as_invariant_factors():
    # the BFS gives each subgroup as few generators as its type has factors
    for T in types_up_to(64):
        G = ConcreteGroup.from_type(T)
        for H in all_subgroups(G):
            assert len(H.generators) == len(H.abstract_type.invariant_factors), H


def test_subgroup_type_via_snf_checks_the_trivial_image():
    # a zero generator spans the trivial group, which is not this order-2 set
    H = Subgroup(ConcreteGroup((2, 4)), [(0, 0), (0, 2)], [(0, 0)])
    with pytest.raises(AssertionError, match="image order 1 != expected 2"):
        subgroup_type_via_snf(H)


def test_wrong_generators_raise_under_python_O():
    script = textwrap.dedent(
        """
        from finabel.lattice import ConcreteGroup, Subgroup
        from finabel.lattice import quotient_type, subgroup_type_via_snf

        assert False, "assert statements must be stripped"
        G = ConcreteGroup((2, 4))
        H = Subgroup(G, [(0, 0), (0, 2)], [(0, 1)])  # (0, 1) spans order 4
        for route in (subgroup_type_via_snf, lambda H: quotient_type(G, H)):
            try:
                route(H)
            except AssertionError as exc:
                print(exc)
        """
    )
    proc = _run_python(script, "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "image order 4 != expected 2\ncokernel order 2 != expected 4\n"


def test_subgroup_and_quotient_orders_multiply():
    for T in types_up_to(64):
        G = ConcreteGroup.from_type(T)
        for H in all_subgroups(G):
            assert H.abstract_type.order * quotient_type(G, H).order == G.order


def test_subgroup_type_examples():
    Z4 = ConcreteGroup((4,))
    assert subgroup_type(generated_subgroup(Z4, [(2,)])) == cyclic(2)
    Z24 = ConcreteGroup((2, 4))
    assert subgroup_type(generated_subgroup(Z24, [(1, 0), (0, 1)])) == canonicalize([2, 4])
    H = Subgroup(Z24, [(0, 0), (0, 2), (1, 0), (1, 2)])
    assert subgroup_type(H) == canonicalize([2, 2])


def test_subgroup_type_routes_agree():
    # order-statistics reconstruction vs the Smith form of the generator
    # image; in non-canonical moduli the exponent is not the last modulus
    groups = [ConcreteGroup.from_type(T) for T in types_up_to(36)]
    groups += [ConcreteGroup(ms) for ms in [(4, 6), (6, 10), (12, 18), (4, 6, 2)]]
    for G in groups:
        for H in all_subgroups(G):
            ht = subgroup_type(H)
            assert ht == subgroup_type_via_snf(H), H
            assert ht == subgroup_type_via_snf(Subgroup(G, H.elements)), H


def test_type_from_order_statistics():
    assert type_from_order_statistics({1: 1, 2: 3}) == canonicalize([2, 2])
    assert type_from_order_statistics({1: 1, 2: 1, 4: 2}) == cyclic(4)
    assert type_from_order_statistics({1: 1}) == TRIVIAL_GROUP
    for bad in ({1: 1, 2: 2}, {1: 2}, {2: 3}, {1: 1, 3: 1}, {}):
        with pytest.raises(ValueError):
            type_from_order_statistics(bad)
    # orders and counts must be integers, not anything int() accepts
    for bad in ({1: 1, 2: 1.5}, {1: 1, 2.7: 1}, {1: 1, "2": 1}, {1: 1, 2: "1"}):
        with pytest.raises(ValueError, match="matches no abelian group"):
            type_from_order_statistics(bad)


def test_type_from_order_statistics_on_perturbed_profiles():
    # one check decides: the decoder returns a type with exactly the given
    # profile, or refuses it
    rng = random.Random(25)
    for T in types_up_to(200):
        profile = element_order_profile(T)
        orders = sorted(profile)
        for _ in range(4):
            bent = dict(profile)
            change = rng.randrange(3)
            if change == 0:  # change a count
                d = rng.choice(orders)
                bent[d] += rng.choice([-2, -1, 1, 2, T.order])
            elif change == 1:  # drop an order
                del bent[rng.choice(orders)]
            else:  # add an order, or add to its count
                d = rng.choice(orders) * rng.choice([2, 3, 5, 7])
                bent[d] = bent.get(d, 0) + rng.randrange(1, 2 * T.order)
            try:
                got = type_from_order_statistics(bent)
            except ValueError as refusal:
                assert str(refusal).endswith("matches no abelian group"), bent
            else:
                assert element_order_profile(got) == {d: c for d, c in bent.items() if c}


def test_type_from_order_statistics_refuses_oscillating_profiles_at_once(monkeypatch):
    # counts q-1, 1, q-1, 1, ... on q, q^2, q^3, ... rebuild the cyclic group
    # q^30 for each of ten primes, a candidate with 31^10 element orders; the
    # decoder must refuse it by its order, never listing that profile
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    total = math.prod(primes)
    profile = {1: 1}
    for q in primes:
        for k in range(1, 61):
            profile[q**k] = q - 1 if k % 2 else 1
    profile[6] = total - sum(profile.values())  # no pure power of a prime
    real = lattice.element_order_profile

    def sized(A):
        assert A.order == total, A
        return real(A)

    monkeypatch.setattr(lattice, "element_order_profile", sized)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="matches no abelian group"):
        type_from_order_statistics(profile)
    assert time.perf_counter() - start < 1.0


def test_type_from_order_statistics_decodes_huge_cyclic_profiles():
    # the counts of Z_{2^k} have about k bits each, past the 4300-digit limit
    # of int-to-str conversion for k = 15000; the decoder formats none of
    # them and reads each order 2^j once
    start = time.perf_counter()
    for k in (4000, 15000):
        T = cyclic(2**k)
        assert type_from_order_statistics(element_order_profile(T)) == T
    assert time.perf_counter() - start < 5.0


def test_type_from_order_statistics_exhaustive():
    for T in types_up_to(36):
        assert type_from_order_statistics(element_order_profile(T)) == T


def test_totient_sums_to_order():
    # sum of phi over all subgroups equals |G| (every element generates
    # exactly one subgroup)
    from finabel.functions import phi

    for T in types_up_to(64):
        G = ConcreteGroup.from_type(T)
        assert sum(phi(H.abstract_type) for H in all_subgroups(G)) == G.order


def test_subgroup_quotient_pairs_consistency():
    pairs = subgroup_quotient_pairs(canonicalize([2, 2]))
    assert pairs == {
        (TRIVIAL_GROUP, canonicalize([2, 2])): 1,
        (cyclic(2), cyclic(2)): 3,
        (canonicalize([2, 2]), TRIVIAL_GROUP): 1,
    }
    # refused by the size of a Hall table, and by the number of pairs
    with pytest.raises(BoundExceededError, match="Hall table of size 10"):
        subgroup_quotient_pairs(cyclic(1024))
    with pytest.raises(BoundExceededError, match="16384 .* pairs, above the bound 10000"):
        subgroup_quotient_pairs(canonicalize([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]))
    assert sum(subgroup_quotient_pairs(cyclic(1000)).values()) == 16
