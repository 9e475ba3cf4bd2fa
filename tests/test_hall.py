import os
import subprocess
import sys
import textwrap

import pytest

from finabel.counting import gaussian_subspace_count
from finabel.grouptype import GroupType, canonicalize, types_of_order, types_up_to
from finabel import hall, lattice
from finabel.hall import hall_table, subgroup_count_of_type, subgroup_quotient_pairs
from finabel.lattice import _lattice_pairs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_small_hall_numbers():
    # Z_p^2 has p + 1 subgroups of order p, each with quotient Z_p; the
    # vertical-strip rule must not give (2) the coefficient of (1, 1)
    for p in (2, 3, 5):
        assert hall_table(p, 2)[(1, 1)][((1,), (1,))] == p + 1
        assert hall_table(p, 2)[(2,)][((1,), (1,))] == 1
        assert hall_table(p, 3)[(2, 1)] == {
            ((), (2, 1)): 1,
            ((1,), (2,)): p,
            ((1,), (1, 1)): 1,
            ((1, 1), (1,)): 1,
            ((2,), (1,)): p,
            ((2, 1), ()): 1,
        }


def test_birkhoff_count_matches_gaussian_binomials():
    for p in (2, 3, 7):
        for n in range(6):
            for d in range(n + 1):
                want = gaussian_subspace_count(p, n, d)
                assert subgroup_count_of_type(p, (1,) * n, (1,) * d) == want
    assert subgroup_count_of_type(2, (2, 1), (2,)) == 2
    assert subgroup_count_of_type(2, (2,), (1, 1)) == 0


@pytest.mark.parametrize(
    "types",
    [list(types_up_to(64)), [T for n in (81, 125, 243, 343) for T in types_of_order(n)]],
    ids=["order<=64", "orders-81-125-243-343"],
)
def test_hall_route_matches_lattice_route(types):
    for T in types:
        assert subgroup_quotient_pairs(T) == _lattice_pairs(T.invariant_factors), T


def test_hall_numbers_are_symmetric():
    # duality: the annihilator of a subgroup of type nu with quotient type mu
    # has type mu and quotient type nu, so g^lambda_{mu nu} = g^lambda_{nu mu}
    for p in (2, 3, 5):
        for n in range(7):
            for lam, pairs in hall_table(p, n).items():
                assert pairs == {(mu, nu): g for (nu, mu), g in pairs.items()}, (p, lam)


def test_lattice_pairs_are_symmetric():
    for T in types_up_to(64):
        pairs = _lattice_pairs(T.invariant_factors)
        assert pairs == {(qt, ht): m for (ht, qt), m in pairs.items()}, T


def test_pairs_combine_over_primes():
    T = canonicalize([2, 2, 2, 2, 30])  # 2-part (1^5), 3 and 5 cyclic
    pairs = subgroup_quotient_pairs(T)
    assert sum(pairs.values()) == sum(gaussian_subspace_count(2, 5, d) for d in range(6)) * 4
    assert pairs[(canonicalize([15]), canonicalize([2] * 5))] == 1
    # the types _join assembled, trivial p-parts dropped, carry the
    # partitions that factorizing their invariant factors gives
    for H in {t for pair in pairs for t in pair}:
        assert GroupType(H.invariant_factors).components == H.components, H


def test_lattice_re_exports_the_pair_multiset():
    # the same objects, so a cache or a wrapper seen through either module
    # is the one the algebra uses
    assert lattice.subgroup_quotient_pairs is hall.subgroup_quotient_pairs
    assert lattice._pairs_for_moduli is hall._pairs_for_moduli


def test_pair_multiset_does_not_factorize_again(monkeypatch):
    # the multiset is keyed on the type's partitions: a type built by
    # canonicalize carries them, and this prime costs about 0.25 s to factorize
    from finabel import grouptype
    from finabel.functions import convolve, mu

    T = canonicalize([100000000000031])
    calls = []
    real = grouptype.factorize
    monkeypatch.setattr(grouptype, "factorize", lambda n: calls.append(n) or real(n))
    assert convolve(mu, mu)(T) == -2
    assert calls == []


def test_table_checks_fire_under_python_O():
    # wrong Pieri coefficients must be caught by explicit raises, which a
    # bare assert under -O would not be
    script = textwrap.dedent(
        """
        import sys
        from finabel import hall

        assert False, "assert statements must be stripped"
        pieri = hall._pieri
        hall._pieri = lambda p, mu, m: {lam: c + 1 for lam, c in pieri(p, mu, m).items()}
        for n in (2, 3):
            try:
                hall.hall_table(2, n)
            except AssertionError as exc:
                print(exc)
            else:
                sys.exit(f"no check fired for n = {n}")
        """
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    birkhoff, integral = proc.stdout.splitlines()
    assert "Birkhoff's formula gives 3" in birkhoff
    assert integral.startswith("Hall number") and integral.endswith("3/2")
