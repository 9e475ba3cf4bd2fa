import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _classical import divisors, mobius_up_to, totient_up_to
from finabel.errors import BoundExceededError, NonInvertibleError
from finabel.functions import (
    MAX_VALUE_BITS,
    AbelianFunction,
    add,
    binom_card,
    builtin_function,
    card,
    card_pow_t,
    check_multiplicative,
    convolve,
    delta,
    generating_subsets_of_size,
    generating_tuples,
    inverse,
    mu,
    mu_closed,
    n_t,
    one,
    phi,
    pointwise,
    restrict_to_cyclic,
    scale,
    subgroup_count,
    t_pow_card,
)
from finabel.grouptype import (
    TRIVIAL_GROUP,
    canonicalize,
    cyclic,
    types_of_order,
    types_up_to,
)
from finabel.hall import MAX_PAIRS, subgroup_quotient_pairs

T22 = canonicalize([2, 2])
T24 = canonicalize([2, 4])


def test_eval_examples():
    assert one(T22) == 1
    assert card(T24) == 8
    assert delta(TRIVIAL_GROUP) == 1
    assert delta(T22) == 0
    with pytest.raises(TypeError):
        one([2, 2])


def test_eval_memoized_and_exact():
    f = convolve(phi, one)
    first = f(T22)
    assert first == 4 and f(T22) is first
    assert isinstance(first, Fraction)


def test_convolve_examples():
    assert convolve(phi, one)(T22) == 4
    assert subgroup_count(T22) == 5
    for name in ("delta", "one", "card", "mu", "phi", "nsub"):
        f = builtin_function(name)
        df = convolve(delta, f)
        for G in types_up_to(16):
            assert df(G) == f(G)


def test_pointwise_add_scale():
    assert pointwise(card, card)(cyclic(2)) == 4
    assert add(delta, delta)(TRIVIAL_GROUP) == 2
    assert scale(3, one)(cyclic(2)) == 3
    assert scale(Fraction(1, 2), card)(cyclic(3)) == Fraction(3, 2)


def test_inverse_examples():
    inv_one = inverse(one)
    assert inv_one(T22) == 2
    assert inv_one(cyclic(4)) == 0
    inv_delta = inverse(delta)
    for G in types_up_to(12):
        assert inv_delta(G) == delta(G)
    with pytest.raises(NonInvertibleError):
        inverse(scale(0, one))


def test_inverse_is_two_sided():
    for f in (one, card, phi, mu):
        g = inverse(f)
        conv = convolve(f, g)
        for G in types_up_to(24):
            assert conv(G) == delta(G)


def test_unhinted_inverse_matches_mu_on_composite_lattices():
    # an inverse built from an unflagged copy of `one` cannot decompose by
    # p-parts: the recursion runs on the full composite lattice every time
    one_plain = AbelianFunction("one_plain", lambda G: 1)
    inv_plain = inverse(one_plain)
    for order in (36, 72, 100, 144, 200):
        for T in types_of_order(order):
            assert inv_plain(T) == mu_closed(T), T
    assert not inv_plain.multiplicative


def test_mu_closed_examples():
    assert mu_closed(T22) == 2
    assert mu_closed(cyclic(6)) == 1
    assert mu_closed(canonicalize([2, 2, 2])) == -8
    assert mu_closed(cyclic(4)) == 0
    assert mu_closed(canonicalize([3, 3])) == 3
    assert mu_closed(TRIVIAL_GROUP) == 1


def test_phi_examples():
    assert phi(T22) == 0
    assert phi(cyclic(12)) == 4
    # generating 1-tuples are exactly the generators
    g1 = generating_tuples(1)
    for G in types_up_to(16):
        assert g1(G) == phi(G)


def test_n_t_examples():
    assert n_t(1)(T24) == 0
    for G in types_up_to(16):
        assert n_t(1)(G) == delta(G)
    assert n_t(2)(T22) == 8
    assert n_t(2)(T24) == 216


def test_generating_subsets_by_size_sum_to_total():
    for G in types_up_to(12):
        total = sum(
            generating_subsets_of_size(d)(G) for d in range(G.order + 1)
        )
        assert total == n_t(2)(G)


def test_gensubsets_small_cases():
    # Z_2 x Z_2 needs at least 2 elements to generate
    assert generating_subsets_of_size(0)(T22) == 0
    assert generating_subsets_of_size(1)(T22) == 0
    assert generating_subsets_of_size(2)(T22) == 3  # 3 two-element generating sets
    assert generating_subsets_of_size(0)(TRIVIAL_GROUP) == 1  # empty set generates


def test_restrict_examples():
    assert restrict_to_cyclic(mu)(12) == 0
    assert restrict_to_cyclic(phi)(10) == 4
    assert restrict_to_cyclic(delta)(1) == 1
    with pytest.raises(ValueError):
        restrict_to_cyclic(delta)(0)


def test_restriction_is_classical_on_cyclics():
    rmu = restrict_to_cyclic(mu)
    rphi = restrict_to_cyclic(phi)
    mob = mobius_up_to(120)
    tot = totient_up_to(120)
    for n in range(1, 121):
        assert rmu(n) == mob[n]
        assert rphi(n) == tot[n]


def test_dirichlet_compatibility():
    # restriction turns lattice convolution into Dirichlet convolution
    pairs = [(one, mu), (one, card), (mu, card), (one, one)]
    for f, g in pairs:
        rf, rg = restrict_to_cyclic(f), restrict_to_cyclic(g)
        rfg = restrict_to_cyclic(convolve(f, g))
        for n in range(1, 201):
            assert rfg(n) == sum(rf(d) * rg(n // d) for d in divisors(n))


def test_check_multiplicative():
    assert check_multiplicative(mu, 100)
    assert check_multiplicative(card, 100)
    assert not check_multiplicative(t_pow_card(2), 36)
    assert check_multiplicative(card_pow_t(2), 60)
    assert not check_multiplicative(scale(2, one), 20)  # f(1) != 1
    assert not check_multiplicative(n_t(2), 36)


def test_multiplicative_hints_are_true():
    # every function carrying the fast-path flag really is multiplicative
    flagged = [delta, one, card, mu, phi, subgroup_count, generating_tuples(2),
               card_pow_t(3), t_pow_card(1), inverse(card), pointwise(mu, card)]
    for f in flagged:
        assert f.multiplicative
        assert check_multiplicative(f, 60), f.name


def test_fast_path_matches_rule():
    for f in (mu, phi, subgroup_count, generating_tuples(2)):
        for G in types_up_to(36):
            assert f(G) == f.eval_by_rule(G), (f.name, G)


# fresh copies of multiplicative functions, each with an empty p-part memo
FRESH_MULTIPLICATIVE = {
    "mu": lambda: AbelianFunction("mu", mu_closed, multiplicative=True),
    "phi": lambda: convolve(mu, card),
    "nsub": lambda: convolve(one, one),
    "gentuples:2": lambda: convolve(mu, card_pow_t(2)),
    "cardpow:3": lambda: AbelianFunction(
        "cardpow:3", lambda G: G.order**3, multiplicative=True, by_order=lambda n: n**3
    ),
    "inv(card)": lambda: inverse(card),
    "(mu.card)": lambda: pointwise(mu, card),
}


@st.composite
def composite_types(draw):
    """A type with two or three p-parts, each of rank <= 2 and size <= 4."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11)), min_size=2, max_size=3, unique=True))
    moduli = []
    for p in primes:
        exps = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2))
        moduli += [p**e for e in exps]
    return canonicalize(moduli)


@given(st.lists(composite_types(), min_size=1, max_size=3), st.booleans())
@settings(max_examples=30, deadline=None)
def test_fast_path_matches_rule_from_a_cold_memo(types, parts_first):
    # composites evaluated before or after their p-parts fill the memo in
    # either order; both must agree with the defining rule
    for name, build in FRESH_MULTIPLICATIVE.items():
        f = build()
        assert f.multiplicative and not f._memo, name
        for G in types:
            parts = [canonicalize([p**e for e in lam]) for p, lam in G.components]
            for T in (parts + [G] if parts_first else [G] + parts) + [G]:
                assert f(T) == f.eval_by_rule(T), (name, T)


def test_multiplicative_memo_holds_one_entry_per_p_part():
    # composite values are products of memoized p-part values, not stored
    types = list(types_up_to(2000))
    components = {component for T in types for component in T.components}
    for f in (convolve(mu, card), convolve(one, one), convolve(mu, card_pow_t(2))):
        for T in types:
            f(T)
        assert len(f._memo) == len(components) + 1  # and the trivial group
        assert len(f._memo) != len(types)


def test_convolution_is_commutative():
    # G and its dual group have the same type, so the algebra is commutative:
    # convolve relies on it when it puts a by_order factor second
    pairs = [(mu, phi), (phi, subgroup_count), (generating_tuples(2), n_t(2))]
    for f, g in pairs:
        fg, gf = convolve(f, g), convolve(g, f)
        for G in types_up_to(64):
            assert fg(G) == gf(G), (f.name, g.name, G)


def test_builtin_registry():
    assert builtin_function("mu") is mu
    assert builtin_function("nsub") is subgroup_count
    assert builtin_function("nt:2") is n_t(2)
    assert builtin_function("gentuples:3") is generating_tuples(3)
    assert builtin_function("gensubsets:2") is generating_subsets_of_size(2)
    assert builtin_function("tpow:2") is t_pow_card(2)
    for bad in ("nope", "nt:x", "nt:", "tpow:1.5", "nt"):
        with pytest.raises(ValueError):
            builtin_function(bad)
    with pytest.raises(ValueError):
        n_t(0)
    with pytest.raises(ValueError):
        binom_card(-1)


def test_lattice_bound_propagates():
    with pytest.raises(BoundExceededError):
        inverse(mu)(cyclic(1024))  # a single 2-part: Hall table of size 10
    fresh = convolve(mu, t_pow_card(2))  # unmemoized; sums over the whole type
    assert fresh(cyclic(600)) == n_t(2)(cyclic(600))
    with pytest.raises(BoundExceededError):  # 2^14 subgroup types
        fresh(canonicalize([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]))
    # multiplicative functions decompose: large squarefree-ish orders are fine
    assert subgroup_count(cyclic(1000)) == 16
    # values are bounded by their bit length, computed before the value
    with pytest.raises(BoundExceededError, match="tpow:3"):
        n_t(3)(cyclic(10**8))
    with pytest.raises(BoundExceededError, match="cardpow:1000000000"):
        generating_tuples(10**9)(cyclic(3))


def _hall_convolution(f, g, G):
    return sum(mult * f(h) * g(q) for (h, q), mult in subgroup_quotient_pairs(G).items())


def _hall_inverse(f):
    memo = {}

    def value(G):
        if G not in memo:
            lead = 1 / f(TRIVIAL_GROUP)
            memo[G] = lead if G.is_trivial else -lead * sum(
                mult * value(h) * f(q)
                for (h, q), mult in subgroup_quotient_pairs(G).items()
                if h != G
            )
        return memo[G]

    return value


def test_birkhoff_route_matches_hall_pairs():
    # every builtin convolution has a factor that depends only on |G|, so it
    # sums over subgroup types (or elementary subgroups, for mu); the Hall
    # multiset is the reference.  convolve(card, mu) takes the swap.
    cases = [
        (phi, mu, card),
        (subgroup_count, one, one),
        (n_t(2), mu, t_pow_card(2)),
        (n_t(3), mu, t_pow_card(3)),
        (generating_tuples(2), mu, card_pow_t(2)),
        (generating_subsets_of_size(2), mu, binom_card(2)),
        (convolve(card, mu), card, mu),
    ]
    # one is multiplicative, so its memoized inverse splits into p-parts;
    # the others are not, so their proper sums cross primes
    inverses = [
        (inverse(f), _hall_inverse(f))
        for f in (one, binom_card(0), t_pow_card(2), binom_card(1))
    ]
    types = list(types_up_to(64)) + [T for n in (81, 125, 243, 343) for T in types_of_order(n)]
    for G in types:
        for fg, f, g in cases:
            want = _hall_convolution(f, g, G)
            assert fg.eval_by_rule(G) == want, (fg.name, G)
            assert fg(G) == want, (fg.name, G)
        for inv, want_inv in inverses:
            assert inv.eval_by_rule(G) == want_inv(G), (inv.name, G)
            assert inv(G) == want_inv(G), (inv.name, G)
        for inv, _ in inverses[:2]:  # inverses of the constant 1
            assert inv(G) == mu_closed(G), (inv.name, G)


def test_birkhoff_route_bounds_its_terms():
    # the first 14 primes: 2^14 elementary subgroups, and as many subgroup types
    G = cyclic(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43)
    message = rf"sums 16384 subgroup-type terms, above the bound MAX_PAIRS = {MAX_PAIRS}"
    with pytest.raises(BoundExceededError, match=rf"^nt:2\({G}\) {message}$"):
        n_t(2)(G)
    seen = []
    g = AbelianFunction("g", lambda G: 1, by_order=lambda n: seen.append(n) or 1)
    unmarked = AbelianFunction("unmarked", lambda G: 1)
    for fg in (convolve(mu, g), convolve(g, unmarked), inverse(g)):
        with pytest.raises(BoundExceededError, match=message):
            fg.eval_by_rule(G)
    assert seen == [] and unmarked._memo == {}  # no term was formed
    # 2^13 terms pass: mu * one is delta
    assert convolve(mu, g).eval_by_rule(cyclic(G.order // 43)) == 0


def test_value_bit_bound():
    big = cyclic(2**21)
    with pytest.raises(BoundExceededError, match="tpow:2.* 2097153 bits, above the bound 1048576"):
        t_pow_card(2)(big)
    assert t_pow_card(1)(big) == 1
    assert t_pow_card(2)(cyclic(2**20 - 1)) == 2 ** (2**20 - 1)  # 2^20 bits: admitted
    with pytest.raises(BoundExceededError, match="cardpow:100000"):
        card_pow_t(100_000)(big)
    assert card_pow_t(10)(big) == 2**210
    with pytest.raises(BoundExceededError, match="binom:100000"):
        binom_card(100_000)(big)
    assert binom_card(3)(big) == math.comb(2**21, 3)
    assert binom_card(4)(cyclic(3)) == 0


def test_multiplicative_product_is_bounded():
    # gentuples:t on Z_p is p^t - 1: on Z_210 every p-part passes the bound,
    # their product (about 1.16e6 bits) is refused before it is formed
    f = generating_tuples(150_000)
    bits = sum((p**150_000 - 1).bit_length() for p in (2, 3, 5, 7))
    assert bits > MAX_VALUE_BITS
    with pytest.raises(
        BoundExceededError,
        match=rf"gentuples:150000\(210\) may have {bits} bits, above the bound {MAX_VALUE_BITS}",
    ):
        f(cyclic(210))
    assert f(cyclic(6)) == (2**150_000 - 1) * (3**150_000 - 1)


def test_huge_exponent_values_are_exact():
    # t^|G| at order 64 has ~45 digits; exactness matters for divisibility
    v = t_pow_card(5)(canonicalize([8, 8]))
    assert v == 5**64


def test_concurrent_memo_reads_and_writes():
    f = convolve(mu, convolve(one, card))
    types = list(types_up_to(30))
    results: list[dict] = [dict() for _ in range(8)]

    def worker(slot):
        for G in types:
            results[slot][G] = f(G)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for slot in range(1, 8):
        assert results[slot] == results[0]


def test_value_strings_roundtrip():
    for G in types_up_to(16):
        for f in (mu, phi, subgroup_count):
            s = str(f(G))
            assert Fraction(s) == f(G)
