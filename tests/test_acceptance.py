"""Acceptance criteria, one test per criterion.

Each test exercises the full stated sweep at its stated tolerance (all
comparisons are exact).  A PASS/FAIL line per criterion is printed in the
terminal summary (see conftest.py).
"""

import itertools
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, gcd

from _classical import divisors, mobius_up_to, totient_up_to
from finabel.counting import (
    conjecture_search,
    element_order_profile,
    epi_count,
    gaussian_subspace_count,
    hom_count,
    mono_count,
    sub_count,
)
from finabel.functions import (
    card,
    check_multiplicative,
    convolve,
    delta,
    generating_tuples,
    inverse,
    mu,
    mu_closed,
    n_t,
    one,
    phi,
    restrict_to_cyclic,
    subgroup_count,
)
from finabel.grouptype import canonicalize, types_of_order, types_up_to
from finabel.lattice import ConcreteGroup, all_subgroups, subgroup_type
from finabel.oracle import (
    FUNCTION_SPACE_BOUND,
    count_free_functions,
    count_generating_subsets,
    enumerate_homs,
    enumerate_isometries,
    permutation_closure,
)
from finabel.symgen import (
    Permutation,
    Transposition,
    cycle_transposition_generates,
    generates_full_symmetric,
    isometry_constant,
    is_isometry_mod_H,
    isometry_group_order,
)


def test_c01_mu_consistency():
    # recursion route vs closed form, exactly, on every type of order <= 200
    inverse_route = inverse(one)
    for T in types_up_to(200):
        assert inverse_route(T) == Fraction(mu_closed(T)), T
    # and the cyclic restriction is the classical Moebius function
    classical = mobius_up_to(200)
    restricted = restrict_to_cyclic(inverse_route)
    for n in range(1, 201):
        assert restricted(n) == classical[n], n


def test_c02_euler_totient():
    # phi at Z_n for n <= 1000 needs Hall tables of size at most 9 (Z_512)
    classical = totient_up_to(1000)
    restricted = restrict_to_cyclic(phi)
    for n in range(1, 1001):
        assert restricted(n) == classical[n], n


def test_c03_divisibility():
    for t in (1, 2, 3, 5):
        fn = n_t(t)
        for T in types_up_to(64):
            assert fn(T) % T.order == 0, (T, t)
    classical = mobius_up_to(200)
    for t in (2, 3, 10):
        restricted = restrict_to_cyclic(n_t(t))
        for n in range(1, 201):
            direct = sum(classical[d] * t ** (n // d) for d in divisors(n))
            assert restricted(n) == direct, (n, t)
            assert direct % n == 0, (n, t)


def test_c04_generating_subset_oracle():
    fn = n_t(2)
    for T in types_up_to(18):
        got = count_generating_subsets(ConcreteGroup.from_type(T))
        assert got == fn(T), T
        assert got % T.order == 0, T
    assert fn(canonicalize([2, 2])) == 8


def test_c05_free_function_oracle():
    # t = 1 has 1^|G| = 1 for every G; sweep a finite slice of that axis
    for T in types_up_to(36):
        assert count_free_functions(ConcreteGroup.from_type(T), 1) == n_t(1)(T), T
    for t in range(2, 11):
        fn = n_t(t)
        for T in types_up_to(64):
            if t**T.order > FUNCTION_SPACE_BOUND:
                continue
            got = count_free_functions(ConcreteGroup.from_type(T), t)
            assert got == fn(T), (T, t)


def test_c06_morphism_counts():
    types16 = list(types_up_to(16))
    for A in types16:
        CA = ConcreteGroup.from_type(A)
        for B in types16:
            got = enumerate_homs(CA, ConcreteGroup.from_type(B))
            want = (hom_count(A, B), mono_count(A, B), epi_count(A, B))
            assert got == want, (A, B)
    # sub_count (an exact division by construction) matches the lattice
    for A in types_up_to(64):
        counts = Counter(
            subgroup_type(H) for H in all_subgroups(ConcreteGroup.from_type(A))
        )
        for B in types_up_to(A.order):
            if A.order % B.order == 0:
                assert sub_count(B, A) == counts.get(B, 0), (B, A)


def test_c07_gaussian_identity():
    for p in (2, 3):
        for n in range(5):
            for d in range(n + 1):
                assert gaussian_subspace_count(p, n, d) == sub_count(
                    canonicalize([p] * d), canonicalize([p] * n)
                ), (p, n, d)
    for p in (2, 3, 5):
        for n in range(1, 7):
            total = sum(
                (-1) ** d
                * p ** (d * (d - 1) // 2)
                * gaussian_subspace_count(p, n, d)
                for d in range(n + 1)
            )
            assert total == 0, (p, n)


def test_c08_algebra_laws():
    basis = (one, card, mu, phi)
    types36 = list(types_up_to(36))
    pair_conv = {
        (f.name, g.name): convolve(f, g) for f in basis for g in basis
    }
    for f in basis:
        for g in basis:
            fg = pair_conv[(f.name, g.name)]
            gf = pair_conv[(g.name, f.name)]
            for T in types36:
                assert fg(T) == gf(T), (f.name, g.name, T)
    for f in basis:
        for g in basis:
            for h in basis:
                left = convolve(pair_conv[(f.name, g.name)], h)
                right = convolve(f, pair_conv[(g.name, h.name)])
                for T in types36:
                    assert left(T) == right(T), (f.name, g.name, h.name, T)
    for f in basis + (subgroup_count, n_t(2)):
        df = convolve(delta, f)
        for T in types36:
            assert df(T) == f(T), (f.name, T)
    for f in basis:
        conv = convolve(f, inverse(f))
        for T in types36:
            assert conv(T) == delta(T), (f.name, T)
    # the multiplicative functions form a group under * and inverse
    closure_samples = (
        mu,
        card,
        phi,
        subgroup_count,
        generating_tuples(2),
        convolve(phi, mu),
        convolve(subgroup_count, card),
        inverse(one),
        inverse(card),
        inverse(phi),
    )
    for f in closure_samples:
        assert check_multiplicative(f, 100), f.name


def test_c09_symmetric_generation():
    rng = random.Random(20240831)
    for T in types_up_to(7):
        n = T.order
        if n < 3:
            continue
        G = ConcreteGroup.from_type(T)
        elems = G.elements()
        pairs = [(x, y) for i, x in enumerate(elems) for y in elems[i + 1 :]]
        if n <= 5:
            tau_sets = [[]]
            tau_sets += [[p] for p in pairs]
            tau_sets += [[p, q] for i, p in enumerate(pairs) for q in pairs[i + 1 :]]
        else:
            tau_sets = [rng.sample(pairs, 2) for _ in range(100)]
        translations = [Permutation.translation(G, g) for g in elems[1:]]
        for tau_set in tau_sets:
            taus = [Transposition(x, y) for x, y in tau_set]
            perms = [Permutation.transposition(G, x, y) for x, y in tau_set]
            predicted = generates_full_symmetric(G, taus)
            closure = permutation_closure(G, translations + perms)
            assert predicted == (closure == factorial(n)), (T, tau_set)
    # n-cycle plus transposition criterion: gcd(n, j - i) = 1
    for n in range(3, 8):
        Zn = ConcreteGroup((n,))
        cycle = Permutation.translation(Zn, (1,))
        for i, j in itertools.combinations(range(n), 2):
            predicted = cycle_transposition_generates(n, i, j)
            assert predicted == (gcd(n, j - i) == 1)
            closure = permutation_closure(
                Zn, [cycle, Permutation.transposition(Zn, (i,), (j,))]
            )
            assert predicted == (closure == factorial(n)), (n, i, j)


def test_c10_isometries():
    for T in types_up_to(6):
        G = ConcreteGroup.from_type(T)
        g = G.order
        for H in all_subgroups(G):
            h = H.order
            assert enumerate_isometries(G, H) == isometry_group_order(g, h), (T, h)
    Z7 = ConcreteGroup((7,))
    subs7 = all_subgroups(Z7)
    assert [H.order for H in subs7] == [1, 7]
    assert enumerate_isometries(Z7, subs7[0]) == 7
    assert enumerate_isometries(Z7, subs7[1]) == factorial(7)
    # isometries fixing every coset (constant 0) number (h!)^(g/h)
    for T in types_up_to(6):
        if T.order < 3:
            continue
        G = ConcreteGroup.from_type(T)
        for H in all_subgroups(G):
            kernel = 0
            for images in itertools.permutations(range(G.order)):
                sigma = Permutation(G, images)
                if is_isometry_mod_H(G, H, sigma) and isometry_constant(
                    G, H, sigma
                ) == G.zero:
                    kernel += 1
            assert kernel == factorial(H.order) ** (G.order // H.order), (T, H.order)


def test_c11_classification():
    for order in range(1, 129):
        types = types_of_order(order)
        profiles = [tuple(sorted(element_order_profile(T).items())) for T in types]
        for (i, a), (j, b) in itertools.combinations(enumerate(profiles), 2):
            assert a != b, (types[i], types[j])
    findings = conjecture_search(32)
    # reported, not asserted as a law: the scan result at this scale is empty
    print(f"conjecture_search(32) -> {len(findings)} coincidence(s): {findings}")
    assert findings == []


def test_c12_cli_determinism():
    cmd = [sys.executable, "-m", "finabel", "table", "mu,phi,nsub", "32", "csv"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty
