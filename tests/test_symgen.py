import copy
import itertools
import pickle
import random
from math import factorial

import pytest

from finabel.grouptype import types_up_to
from finabel.lattice import ConcreteGroup, all_subgroups, generated_subgroup
from finabel.symgen import (
    Permutation,
    Transposition,
    cycle_transposition_generates,
    generates_full_symmetric,
    interstice_subgroup,
    is_isometry_mod_H,
    isometry_constant,
    isometry_group_order,
)

Z4 = ConcreteGroup((4,))
Z22 = ConcreteGroup((2, 2))
H02 = generated_subgroup(Z4, [(2,)])


def closure_set(G, perms):
    """BFS closure of a permutation set, as a set of image tuples."""
    seen = {tuple(range(G.order))}
    frontier = list(seen)
    gens = [p.images for p in perms]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = tuple(h[i] for i in g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def all_isometries(G, H):
    n = G.order
    out = []
    for images in itertools.permutations(range(n)):
        sigma = Permutation(G, images)
        if is_isometry_mod_H(G, H, sigma):
            out.append(sigma)
    return out


def test_permutation_basics():
    ident = Permutation.identity(Z4)
    tr = Permutation.translation(Z4, (1,))
    assert tr.apply((3,)) == (0,)
    assert (tr * tr.inverse()) == ident
    assert Permutation.transposition(Z4, (0,), (2,)).apply((2,)) == (0,)
    Z5 = ConcreteGroup((5,))
    Z5.add_row(2)[0] = 99  # the caller's own list: later rows are intact
    assert Permutation.translation(Z5, (2,)).images == (2, 3, 4, 0, 1)
    with pytest.raises(ValueError):
        Permutation(Z4, (0, 0, 1, 2))
    with pytest.raises(ValueError):
        Permutation.transposition(Z4, (1,), (1,))
    with pytest.raises(ValueError):
        Transposition((1,), (1,))


def test_transposition_is_an_unordered_pair():
    a, b = (0, 1), (1, 0)
    assert Transposition(a, b) == Transposition(b, a)
    assert hash(Transposition(a, b)) == hash(Transposition(b, a))
    assert len({Transposition(a, b), Transposition(b, a)}) == 1
    assert Transposition(a, b) != Transposition(a, (1, 1))
    assert Transposition(a, b) != (a, b)


def test_transposition_value_semantics():
    tau = Transposition((0, 1), (1, 0))
    assert repr(tau) == "Transposition(x=(0, 1), y=(1, 0))"
    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        back = round_trip(tau)
        assert back == tau and hash(back) == hash(tau)
        assert (back.x, back.y) == (tau.x, tau.y)
    for field in ("x", "y"):
        with pytest.raises(AttributeError):
            setattr(tau, field, (1, 1))
        with pytest.raises(AttributeError):
            delattr(tau, field)


def test_interstice_subgroup_examples():
    assert interstice_subgroup(Z4, [Transposition((0,), (1,))]).order == 4
    assert interstice_subgroup(Z4, [Transposition((0,), (2,))]).elements == ((0,), (2,))
    taus = [Transposition((0, 0), (1, 0)), Transposition((0, 0), (0, 1))]
    assert interstice_subgroup(Z22, taus).order == 4
    assert interstice_subgroup(Z4, []).order == 1


def test_small_groups_rejected():
    for moduli in ((), (2,)):
        with pytest.raises(ValueError):
            interstice_subgroup(ConcreteGroup(moduli), [])
        with pytest.raises(ValueError):
            generates_full_symmetric(ConcreteGroup(moduli), [])


def test_generates_full_symmetric_examples():
    Z5 = ConcreteGroup((5,))
    assert generates_full_symmetric(Z5, [Transposition((0,), (2,))])
    assert not generates_full_symmetric(Z4, [Transposition((0,), (2,))])
    assert generates_full_symmetric(Z4, [Transposition((1,), (2,))])


def test_smith_form_criterion_matches_interstice_subgroup():
    # one Smith form against the element-level interstice subgroup, on
    # random transposition sets, including moduli as a user writes them
    rng = random.Random(7)
    groups = [T.invariant_factors for T in types_up_to(32) if T.order >= 3]
    groups += [(6, 4), (2, 3), (4, 6, 2), (3, 2, 2)]
    for moduli in groups:
        G = ConcreteGroup(moduli)
        elements = G.elements()
        for _ in range(40):
            taus = []
            for _ in range(rng.randrange(4)):
                x, y = rng.sample(elements, 2)
                taus.append(Transposition(x, y))
            want = interstice_subgroup(G, taus).order == G.order
            assert generates_full_symmetric(G, taus) == want, (moduli, taus)


def test_cycle_transposition_criterion():
    assert cycle_transposition_generates(5, 0, 2)
    assert not cycle_transposition_generates(4, 0, 2)
    assert cycle_transposition_generates(6, 1, 2)
    with pytest.raises(ValueError):
        cycle_transposition_generates(2, 0, 1)
    with pytest.raises(ValueError):
        cycle_transposition_generates(5, 1, 6)


def test_is_isometry_examples():
    for g in Z4.elements():
        assert is_isometry_mod_H(Z4, H02, Permutation.translation(Z4, g))
    assert is_isometry_mod_H(Z4, H02, Permutation.identity(Z4))
    assert is_isometry_mod_H(Z4, H02, Permutation.transposition(Z4, (0,), (2,)))
    assert not is_isometry_mod_H(Z4, H02, Permutation.transposition(Z4, (0,), (1,)))


def test_isometry_constant_examples():
    tr3 = Permutation.translation(Z4, (3,))
    assert isometry_constant(Z4, H02, tr3) in {(3,), (1,)}
    assert isometry_constant(Z4, H02, tr3) == (1,)  # minimal coset representative
    assert isometry_constant(Z4, H02, Permutation.identity(Z4)) == (0,)
    swap_pairs = Permutation(Z4, (1, 0, 3, 2))  # (0 1)(2 3)
    assert isometry_constant(Z4, H02, swap_pairs) == (1,)
    with pytest.raises(ValueError):
        isometry_constant(Z4, H02, Permutation.transposition(Z4, (0,), (1,)))


def test_isometry_routes_match_their_definition():
    # on every subgroup H of Z_2 x Z_4: sigma is an isometry when
    # (sigma(x) - sigma(y)) - (x - y) is in H for all x, y, and its constant
    # is the least element of the coset sigma(0) - 0 + H.  Half the
    # permutations are drawn at random, half built as isometries: sigma(x)
    # = rho(x) + g, with rho permuting each coset of H within itself
    G = ConcreteGroup((2, 4))
    elements = G.elements()
    rng = random.Random(2024)
    for H in all_subgroups(G):
        members = set(H.elements)
        cosets = {frozenset(G.add(x, h) for h in members) for x in elements}
        sigmas = []
        for _ in range(30):
            images = list(range(G.order))
            rng.shuffle(images)
            sigmas.append(Permutation(G, images))
            rho = {}
            for coset in cosets:
                shuffled = sorted(coset)
                rng.shuffle(shuffled)
                rho.update(zip(sorted(coset), shuffled))
            g = rng.choice(elements)
            sigmas.append(Permutation(G, [G.index_of(G.add(rho[x], g)) for x in elements]))
        for sigma in sigmas:
            image = sigma.apply
            isometry = all(
                G.sub(G.sub(image(x), image(y)), G.sub(x, y)) in members
                for x in elements
                for y in elements
            )
            assert is_isometry_mod_H(G, H, sigma) == isometry
            if isometry:
                want = min(G.add(image(G.zero), h) for h in members)
                assert isometry_constant(G, H, sigma) == want
            else:
                with pytest.raises(ValueError, match="not an isometry modulo the subgroup"):
                    isometry_constant(G, H, sigma)


def test_isometry_group_order_examples():
    assert isometry_group_order(4, 2) == 8
    assert isometry_group_order(7, 1) == 7
    assert isometry_group_order(5, 5) == 120
    with pytest.raises(ValueError):
        isometry_group_order(6, 4)


def test_interstices_of_isometries_recover_subgroup():
    # delta appears as a transposition step of an isometry mod H iff delta in H
    for T in types_up_to(6):
        if T.order < 3:
            continue
        G = ConcreteGroup.from_type(T)
        for H in all_subgroups(G):
            members = {
                d
                for d in G.elements()
                if d != G.zero
                and is_isometry_mod_H(G, H, Permutation.transposition(G, G.zero, d))
            }
            assert members | {G.zero} == set(H.elements)


def test_interstices_of_closure_form_subgroup():
    rng = random.Random(7)
    cases = [t for t in types_up_to(8) if t.order >= 3]
    for T in cases:
        G = ConcreteGroup.from_type(T)
        elems = G.elements()
        pairs = [(x, y) for i, x in enumerate(elems) for y in elems[i + 1 :]]
        for _ in range(3):
            taus = [pairs[rng.randrange(len(pairs))] for _ in range(rng.randrange(3))]
            perms = [Permutation.translation(G, g) for g in elems[1:]]
            perms += [Permutation.transposition(G, x, y) for x, y in taus]
            closure = closure_set(G, perms)
            interstices = {G.zero} | {
                d
                for d in elems
                if d != G.zero
                and Permutation.transposition(G, G.zero, d).images in closure
            }
            for a in interstices:
                assert G.neg(a) in interstices
                for b in interstices:
                    assert G.add(a, b) in interstices
            # and the predicted interstice subgroup matches exactly
            predicted = interstice_subgroup(G, [Transposition(x, y) for x, y in taus])
            assert interstices == set(predicted.elements)


def test_constant_map_is_homomorphism():
    for T in types_up_to(5):
        if T.order < 3:
            continue
        G = ConcreteGroup.from_type(T)
        for H in all_subgroups(G):
            isos = all_isometries(G, H)
            members = set(H.elements)

            def same_coset(a, b):
                return G.sub(a, b) in members

            for s in isos:
                for r in isos:
                    lhs = isometry_constant(G, H, s * r)
                    rhs = G.add(
                        isometry_constant(G, H, s), isometry_constant(G, H, r)
                    )
                    assert same_coset(lhs, rhs)


def test_kernel_of_constant_map():
    for T in types_up_to(6):
        if T.order < 3:
            continue
        G = ConcreteGroup.from_type(T)
        for H in all_subgroups(G):
            isos = all_isometries(G, H)
            g, h = G.order, H.order
            assert len(isos) == isometry_group_order(g, h)
            kernel = [
                s for s in isos if isometry_constant(G, H, s) == G.zero
            ]
            assert len(kernel) == factorial(h) ** (g // h)
