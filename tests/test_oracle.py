import itertools
from math import factorial

import pytest

from finabel import oracle
from finabel.errors import BoundExceededError
from finabel.functions import n_t
from finabel.grouptype import TRIVIAL_GROUP, canonicalize, cyclic, is_prime, types_up_to
from finabel.lattice import (
    ConcreteGroup,
    Subgroup,
    all_subgroups,
    generated_subgroup,
    quotient_type,
    subgroup_type,
    subgroup_type_via_snf,
)
from finabel.counting import epi_count, hom_count, mono_count
from finabel.oracle import (
    count_free_functions,
    count_functions_with_stabilizer,
    count_generating_subsets,
    enumerate_homs,
    enumerate_isometries,
    permutation_closure,
)
from finabel.symgen import (
    Permutation,
    Transposition,
    generates_full_symmetric,
    is_isometry_mod_H,
    isometry_constant,
    isometry_group_order,
)

Z4 = ConcreteGroup((4,))


def test_count_generating_subsets_examples():
    assert count_generating_subsets(ConcreteGroup((2,))) == 2
    assert count_generating_subsets(ConcreteGroup(())) == 2
    assert count_generating_subsets(ConcreteGroup((2, 2))) == 8
    with pytest.raises(BoundExceededError, match="20"):
        count_generating_subsets(ConcreteGroup((21,)))


def test_count_generating_subsets_matches_formula():
    for T in types_up_to(12):
        G = ConcreteGroup.from_type(T)
        assert count_generating_subsets(G) == n_t(2)(T), T


def test_count_generating_subsets_matches_saturation():
    # each subset saturated on its own under tuple addition
    def naive(G):
        elements = G.elements()
        add = {(a, b): G.add(a, b) for a in elements for b in elements}
        count = 0
        for r in range(len(elements) + 1):
            for subset in itertools.combinations(elements, r):
                reached, frontier = {G.zero}, [G.zero]
                while frontier:
                    a = frontier.pop()
                    for g in subset:
                        b = add[a, g]
                        if b not in reached:
                            reached.add(b)
                            frontier.append(b)
                count += len(reached) == len(elements)
        return count

    moduli = [T.invariant_factors for T in types_up_to(10)] + [(2, 3), (3, 2, 2)]
    for ms in moduli:
        G = ConcreteGroup(ms)
        assert count_generating_subsets(G) == naive(G), ms


def test_count_free_functions_examples():
    assert count_free_functions(ConcreteGroup((2,)), 2) == 2
    assert count_free_functions(ConcreteGroup((3,)), 2) == 6
    assert count_free_functions(ConcreteGroup(()), 3) == 3
    with pytest.raises(BoundExceededError, match="10000000"):
        count_free_functions(ConcreteGroup((5, 5)), 3)
    with pytest.raises(ValueError):
        count_free_functions(Z4, 0)


def test_count_free_functions_matches_formula_small():
    for T in types_up_to(9):
        G = ConcreteGroup.from_type(T)
        for t in (1, 2, 3):
            if t**T.order <= 10**7:
                assert count_free_functions(G, t) == n_t(t)(T), (T, t)


def test_count_free_functions_over_several_blocks():
    # t^|G| past one block of 2^19 functions: the high digits take several
    # values, each written into the same reused block
    for moduli, t in (((6,), 10), ((2, 2, 2), 6)):
        G = ConcreteGroup(moduli)
        assert t**G.order > 1 << 19
        assert count_free_functions(G, t) == n_t(t)(canonicalize(moduli)), (moduli, t)


def test_count_free_functions_matches_a_loop_over_functions():
    # every function tested against every nonzero translation, both built
    # from tuple arithmetic alone: no translation rows, no minimal subgroups
    def naive(G, t):
        elements = G.elements()
        index = {g: i for i, g in enumerate(elements)}
        shifts = [
            [index[G.add(x, g)] for x in elements] for g in elements if g != G.zero
        ]
        return sum(
            all(any(f[y] != f[x] for x, y in enumerate(s)) for s in shifts)
            for f in itertools.product(range(t), repeat=len(elements))
        )

    cases = [
        (T, t) for T in types_up_to(8) for t in range(1, 7) if t**T.order <= 5000
    ]
    assert len(cases) == 48
    for T, t in cases:
        G = ConcreteGroup.from_type(T)
        assert count_free_functions(G, t) == naive(G, t), (T, t)


def test_minimal_subgroup_generators_match_the_lattice():
    for T in types_up_to(64):
        G = ConcreteGroup.from_type(T)
        minimal = [H for H in all_subgroups(G) if is_prime(H.order)]
        assert len(oracle._minimal_subgroup_generators(G)) == len(minimal), T


def test_count_functions_with_stabilizer_examples():
    H = generated_subgroup(Z4, [(2,)])
    assert count_functions_with_stabilizer(Z4, H, 2) == 2
    full = generated_subgroup(Z4, [(1,)])
    assert count_functions_with_stabilizer(Z4, full, 2) == 2  # the constants
    Z2 = ConcreteGroup((2,))
    triv = generated_subgroup(Z2, [])
    assert count_functions_with_stabilizer(Z2, triv, 2) == count_free_functions(Z2, 2)


def test_stabilizer_counts_partition_function_space():
    for moduli, t in (((4,), 2), ((6,), 2), ((2, 2), 3), ((8,), 2), ((3, 3), 2)):
        G = ConcreteGroup(moduli)
        total = sum(
            count_functions_with_stabilizer(G, H, t) for H in all_subgroups(G)
        )
        assert total == t**G.order


def test_stabilizer_count_equals_free_count_of_quotient():
    # functions with stabilizer exactly H correspond to free functions on G/H
    from finabel.lattice import quotient_type

    for moduli in ((4,), (2, 2), (6,), (2, 4)):
        G = ConcreteGroup(moduli)
        for H in all_subgroups(G):
            Q = ConcreteGroup.from_type(quotient_type(G, H))
            assert count_functions_with_stabilizer(G, H, 2) == count_free_functions(Q, 2)


def test_enumerate_homs_examples():
    assert enumerate_homs(ConcreteGroup((2,)), Z4) == (2, 1, 0)
    assert enumerate_homs(ConcreteGroup((2,)), ConcreteGroup((2,))) == (2, 1, 1)
    assert enumerate_homs(ConcreteGroup((2, 2)), ConcreteGroup((2,))) == (4, 0, 3)
    big = ConcreteGroup((2,) * 10)
    with pytest.raises(BoundExceededError, match="1000000"):
        enumerate_homs(big, big)


def test_enumerate_homs_merges_shared_images():
    # 16^4 maps, and |GL_4(F_2)| = 15 * 14 * 12 * 8 of them are bijective;
    # many generator prefixes reach the same image subgroup here
    F = ConcreteGroup((2,) * 4)
    assert enumerate_homs(F, F) == (65536, 20160, 20160)


def test_verify_homs_builds_each_orbit_mask_once(monkeypatch):
    # the B-outer sweep reads each cyclic subgroup of B from B's element
    # tables: at most one build per element of each B, 491 in all
    from finabel import lattice, verify

    builds = []
    build = lattice._cyclic_mask
    monkeypatch.setattr(lattice, "_cyclic_mask", lambda ar, x: builds.append(x) or build(ar, x))
    lattice._arith.cache_clear()
    assert verify.run("homs", 24) == (1369, [])
    assert len(builds) <= sum(T.order for T in types_up_to(24)) == 491


def test_enumerate_homs_matches_formulas_small():
    types = list(types_up_to(9))
    for A in types:
        CA = ConcreteGroup.from_type(A)
        for B in types:
            got = enumerate_homs(CA, ConcreteGroup.from_type(B))
            assert got == (hom_count(A, B), mono_count(A, B), epi_count(A, B))


def _homs_by_tuple_arithmetic(A: ConcreteGroup, B: ConcreteGroup) -> tuple[int, int, int]:
    """(hom, mono, epi) from every assignment of generator images, each
    extended to all of A with ``ConcreteGroup.add`` and kept when it
    respects addition on every pair of elements."""
    elements_a = list(itertools.product(*(range(m) for m in A.moduli)))
    elements_b = list(itertools.product(*(range(m) for m in B.moduli)))
    hom = mono = epi = 0
    for images in itertools.product(elements_b, repeat=len(A.moduli)):
        value = {}
        for a in elements_a:
            v = B.zero
            for k, b in zip(a, images):
                for _ in range(k):
                    v = B.add(v, b)
            value[a] = v
        if all(
            value[A.add(a, c)] == B.add(value[a], value[c])
            for a in elements_a
            for c in elements_a
        ):
            hom += 1
            size = len(set(value.values()))
            mono += size == A.order
            epi += size == B.order
    return hom, mono, epi


def test_enumerate_homs_matches_tuple_arithmetic():
    # the image-size kernel against maps built on all of A with no closure
    # kernel and no formula
    groups = [ConcreteGroup.from_type(T) for T in types_up_to(8)]
    for A in groups:
        for B in groups:
            assert enumerate_homs(A, B) == _homs_by_tuple_arithmetic(A, B), (A, B)


def test_enumerate_homs_with_a_trivial_group():
    trivial = ConcreteGroup(())
    for T in types_up_to(12):
        G = ConcreteGroup.from_type(T)
        assert enumerate_homs(trivial, G) == (1, 1, int(G.order == 1))
        assert enumerate_homs(G, trivial) == (1, int(G.order == 1), 1)


def test_permutation_closure_examples():
    Z3 = ConcreteGroup((3,))
    trans = Permutation.translation(Z3, (1,))
    swap = Permutation.transposition(Z3, (0,), (1,))
    assert permutation_closure(Z3, [trans, swap]) == 6
    assert permutation_closure(Z4, [Permutation.translation(Z4, (1,))]) == 4
    assert permutation_closure(
        Z4,
        [Permutation.translation(Z4, (1,)), Permutation.transposition(Z4, (0,), (2,))],
    ) == 8
    assert permutation_closure(Z4, []) == 1
    trivial = ConcreteGroup(())
    assert permutation_closure(trivial, []) == 1
    assert permutation_closure(trivial, [Permutation.identity(trivial)]) == 1


def test_closure_over_generators_matches_all_translations():
    # the symgen suite closes the translations by G's unit tuples; with
    # one transposition (0 y) the closure is Sym(G) exactly when the Smith
    # criterion says so
    for T in types_up_to(8):
        G = ConcreteGroup.from_type(T)
        zero, elements = G.zero, G.elements()
        units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(len(zero))]
        by_units = [Permutation.translation(G, g) for g in units]
        every = [Permutation.translation(G, g) for g in elements[1:]]
        assert permutation_closure(G, by_units) == permutation_closure(G, every) == G.order
        if G.order < 3:
            continue
        for y in elements[1:]:
            swap = Permutation.transposition(G, zero, y)
            full = permutation_closure(G, by_units + [swap]) == factorial(G.order)
            assert full == generates_full_symmetric(G, [Transposition(zero, y)]), (T, y)


def test_enumerate_isometries_examples():
    H = generated_subgroup(Z4, [(2,)])
    assert enumerate_isometries(Z4, H) == 8
    assert enumerate_isometries(Z4, generated_subgroup(Z4, [])) == 4
    assert enumerate_isometries(Z4, generated_subgroup(Z4, [(1,)])) == factorial(4)
    with pytest.raises(BoundExceededError, match="7"):
        G8 = ConcreteGroup((8,))
        enumerate_isometries(G8, generated_subgroup(G8, []))


def test_enumerate_isometries_matches_formula():
    for T in types_up_to(5):
        G = ConcreteGroup.from_type(T)
        for H in all_subgroups(G):
            assert enumerate_isometries(G, H) == isometry_group_order(G.order, H.order)


def test_an_element_outside_the_parent_is_named():
    # Subgroup checks no element when built; each reader of its elements does
    H = Subgroup(Z4, [(0,), (5,)])
    identity = Permutation.identity(Z4)
    readers = [
        lambda: subgroup_type(H),
        lambda: is_isometry_mod_H(Z4, H, identity),
        lambda: isometry_constant(Z4, H, identity),
        lambda: enumerate_isometries(Z4, H),
        lambda: count_functions_with_stabilizer(Z4, H, 2),
        lambda: subgroup_type_via_snf(H),
        lambda: quotient_type(Z4, H),
    ]
    for read in readers:
        with pytest.raises(ValueError, match=r"^\(5,\) is not an element of Z_\(4,\)$"):
            read()
    # the Smith routes read the generators when a subgroup has them
    H = Subgroup(Z4, [(0,), (2,)], [(6,)])
    for read in (subgroup_type_via_snf, lambda H: quotient_type(Z4, H)):
        with pytest.raises(ValueError, match=r"^\(6,\) is not an element of Z_\(4,\)$"):
            read(H)
    # a float coordinate is no element either, as ConcreteGroup.contains
    # rules, given as a generator or, with none stored, as an element
    for H in (Subgroup(Z4, [(0,), (2,)], [(2.0,)]), Subgroup(Z4, [(0,), (2.0,)])):
        for read in (subgroup_type_via_snf, lambda H: quotient_type(Z4, H)):
            with pytest.raises(ValueError, match=r"^\(2\.0,\) is not an element of Z_\(4,\)$"):
                read(H)
    # a bool is an int, so it is an element
    H = Subgroup(Z4, [(0,), (1,), (2,), (3,)], [(True,)])
    assert subgroup_type_via_snf(H) == cyclic(4)
    assert quotient_type(Z4, H) == TRIVIAL_GROUP
