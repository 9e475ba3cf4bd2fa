"""The convolution algebra of abelian functions.

An abelian function assigns an exact rational to every finite abelian group,
constant on isomorphism classes.  The convolution

    (f * g)(G) = sum over subgroups H of G of f(H) * g(G/H)

runs over all subgroups of G, not just their isomorphism classes.  No
subgroup is enumerated, and nothing here imports the element-level layer
or :mod:`finabel.counting`.  One function forms this sum for
:func:`convolve` and :func:`inverse` alike, and it alone picks the route:

* when g depends only on |G| (it has a ``by_order`` evaluator) and f is
  :data:`mu`, the sum runs over the elementary subgroups, the only ones
  where mu is nonzero: a p-group of rank r has [r choose k]_p of rank k;
* when g depends only on |G|, the sum runs over subgroup types nu,
  s_nu(G) f(nu) g(|G|/|nu|), with s_nu(G) Birkhoff's count of subgroups
  of type nu multiplied over primes (:func:`finabel.hall.subgroup_types`);
* otherwise it runs over the multiset of (subgroup type, quotient type)
  pairs of G, from Hall numbers per prime
  (:func:`finabel.hall.subgroup_quotient_pairs`).

When only f depends on |G|, convolve swaps the factors, since the algebra
is commutative.  The Hall route is the oracle of the first two, and the
subgroup-lattice route is the oracle of the Hall route.  The first two are
bounded by their number of terms, the product of the per-prime counts
checked against ``hall.MAX_PAIRS`` before any term is formed.  delta (1
on the trivial group) is the unit, and every f with f(1) != 0 has a
convolution inverse g: g(G) is -1/f(1) times the same sum of g(H) f(G/H),
taken over the proper subgroups H only.

Scalars are exact: Python ints and ``fractions.Fraction``, never floats.
Functions flagged ``multiplicative`` evaluate through their primary
decomposition, f(G) = product of f over the p-parts of G, which needs only
sums over the p-parts, so large composite orders stay cheap.
The flag is an assertion about the function (tests verify it); evaluation
by the defining rule is always available through
:meth:`AbelianFunction.eval_by_rule`.

A multiplicative function memoizes one value per p-part, keyed by its
component (p, partition), and no composite value, so its memo grows with
the distinct p-parts, not the types; a composite value is a new product on
each call (equal, not identical).  Other functions are memoized per
canonical type.  Memo entries are write-once and idempotent, so concurrent
readers and redundant concurrent writers are safe under the GIL
(evaluation itself is pure).

The builtins t^|G|, |G|^t and binomial(|G|, d) refuse a value whose bit
length, bounded in advance from |G| and the parameter, passes
``MAX_VALUE_BITS``; so does the multiplicative shortcut, from the sum of
the bit lengths of the p-part values, before it multiplies them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import lru_cache
from math import prod

from .errors import BoundExceededError, NonInvertibleError
from .grouptype import (
    GroupType,
    TRIVIAL_GROUP,
    _join,
    cyclic,
    product,
    types_of_order,
)
from .hall import (
    MAX_PAIRS,
    _gauss,
    _sub_partition_count,
    subgroup_quotient_pairs,
    subgroup_types,
)

__all__ = [
    "MAX_VALUE_BITS",
    "ExactValue",
    "AbelianFunction",
    "ArithmeticFunction",
    "convolve",
    "add",
    "scale",
    "pointwise",
    "inverse",
    "mu_closed",
    "delta",
    "one",
    "card",
    "mu",
    "phi",
    "subgroup_count",
    "t_pow_card",
    "card_pow_t",
    "binom_card",
    "n_t",
    "generating_tuples",
    "generating_subsets_of_size",
    "restrict_to_cyclic",
    "check_multiplicative",
    "builtin_function",
    "BUILTIN_NAMES",
]

# Values in the algebra: arbitrary-precision rationals.
ExactValue = Fraction

# tpow, cardpow and binom refuse values that may be longer than this
# (3^661000, about 2^20 bits, takes 40 ms to compute)
MAX_VALUE_BITS = 2**20


class AbelianFunction:
    """A memoized map ``GroupType -> ExactValue`` with algebra structure.

    A multiplicative function memoizes its p-part values under their
    components ``(p, partition)`` and multiplies them for a composite type,
    which it does not store; any other function, and the trivial group,
    is memoized per type.

    ``by_order``, when given, marks a function whose value depends only on
    |G|: ``by_order(n)`` is its value on every group of order n, and
    :func:`convolve` and :func:`inverse` then sum over subgroup types.
    """

    __slots__ = ("name", "_rule", "_memo", "multiplicative", "by_order", "_order_memo")

    def __init__(
        self,
        name: str,
        rule: Callable[[GroupType], int | Fraction],
        *,
        multiplicative: bool = False,
        by_order: Callable[[int], int | Fraction] | None = None,
    ):
        self.name = name
        self._rule = rule
        self._memo: dict[GroupType, Fraction] = {}
        self.multiplicative = multiplicative
        self.by_order = by_order
        self._order_memo: dict[int, int | Fraction] = {}

    def __call__(self, G: GroupType) -> Fraction:
        if not isinstance(G, GroupType):
            raise TypeError(f"expected a GroupType, got {G!r}")
        memo = self._memo
        components = G.components if self.multiplicative else ()
        if not components:
            value = memo.get(G)
            if value is None:
                value = memo.setdefault(G, Fraction(self._rule(G)))
            return value
        # the product of the p-part values, each memoized under its (p, partition)
        values = []
        for component in components:
            value = memo.get(component)
            if value is None:
                part = G if len(components) == 1 else _join((component,))
                value = memo.setdefault(component, Fraction(self._rule(part)))
            values.append(value)
        if len(values) == 1:
            return value
        numerators = [v.numerator for v in values]
        denominators = [v.denominator for v in values]
        # numerator and denominator of the product are at most this long
        _check_bits(self.name, G, max(
            sum(map(int.bit_length, numerators)), sum(map(int.bit_length, denominators))
        ))
        return Fraction(prod(numerators), prod(denominators))

    def at_order(self, n: int) -> int | Fraction:
        """The value on every group of order n, memoized per n; only for a
        function with a ``by_order`` evaluator.  Integer values stay ints,
        so the sums over subgroups add plain ints."""
        cached = self._order_memo.get(n)
        if cached is None:
            cached = self._order_memo.setdefault(n, self.by_order(n))
        return cached

    def eval_by_rule(self, G: GroupType) -> Fraction:
        """Evaluate the defining rule directly, bypassing the multiplicative
        shortcut and the memo (used to *check* multiplicativity)."""
        return Fraction(self._rule(G))

    def __repr__(self) -> str:
        return f"<AbelianFunction {self.name}>"


def _check_terms(name: str, G: GroupType, count: int) -> None:
    if count > MAX_PAIRS:
        raise BoundExceededError(
            f"{name}({G}) sums {count} subgroup-type terms, "
            f"above the bound MAX_PAIRS = {MAX_PAIRS}"
        )


def _mu_elementary(p: int, rank: int) -> int:
    """mu on the elementary abelian p-group of the given rank."""
    return (-1) ** rank * p ** (rank * (rank - 1) // 2)


def _subgroup_sum(
    name: str, G: GroupType, f: AbelianFunction, g: AbelianFunction, *, proper: bool = False
) -> int | Fraction:
    """The sum of f(H) g(G/H) over the subgroups H of G (the proper ones
    only, if asked); the one place that picks a route (module docstring).
    The type-level routes refuse more than ``MAX_PAIRS`` terms before
    forming any, as :func:`subgroup_quotient_pairs` does for Hall pairs."""
    n = G.order
    if g.by_order is None:
        return sum(
            mult * f(ht) * g(qt)
            for (ht, qt), mult in subgroup_quotient_pairs(G).items()
            if not (proper and ht.order == n)
        )
    components = G.components
    if f is mu:
        # mu vanishes off the elementary subgroups, and a p-group of rank r
        # has [r choose k]_p of rank k
        _check_terms(name, G, prod(len(lam) + 1 for _, lam in components))
        terms = [(1, 1)]  # (sum of mu over the subgroups of this order, order)
        for p, lam in components:
            r = len(lam)
            local = [(_mu_elementary(p, k) * _gauss(p, r, k), p**k) for k in range(r + 1)]
            terms = [(c * a, d * b) for c, d in terms for a, b in local]
        return sum(c * g.at_order(n // d) for c, d in terms if not (proper and d == n))
    # s_nu(G) f(nu) over the subgroup types nu, s_nu(G) the product of
    # Birkhoff's counts over primes
    _check_terms(name, G, prod(_sub_partition_count(lam) for _, lam in components))
    terms = [(1, (), 1)]  # (s_nu(G), nu as (p, partition) components, |nu|)
    for p, lam in components:
        terms = [
            (count * s, parts + ((p, nu),), order * p ** sum(nu))
            for count, parts, order in terms
            for nu, s in subgroup_types(p, lam)
        ]
    return sum(
        count * (f.at_order(order) if f.by_order else f(_join(parts))) * g.at_order(n // order)
        for count, parts, order in terms
        if not (proper and order == n)
    )


def convolve(f: AbelianFunction, g: AbelianFunction, name: str | None = None) -> AbelianFunction:
    """Convolution: the sum over subgroups H of G of f(H) g(G/H), by the
    route the module docstring describes; a factor that depends only on
    the order (``by_order``) goes second."""
    name = name or f"({f.name}*{g.name})"
    if g.by_order is None and f.by_order is not None:
        f, g = g, f  # the algebra is commutative
    return AbelianFunction(
        name,
        lambda G: _subgroup_sum(name, G, f, g),
        multiplicative=f.multiplicative and g.multiplicative,
    )


def add(f: AbelianFunction, g: AbelianFunction, name: str | None = None) -> AbelianFunction:
    return AbelianFunction(name or f"({f.name}+{g.name})", lambda G: f(G) + g(G))


def scale(c: int | Fraction, f: AbelianFunction, name: str | None = None) -> AbelianFunction:
    c = Fraction(c)
    return AbelianFunction(name or f"({c}*{f.name})", lambda G: c * f(G))


def pointwise(f: AbelianFunction, g: AbelianFunction, name: str | None = None) -> AbelianFunction:
    """Value-by-value product (not convolution)."""
    return AbelianFunction(
        name or f"({f.name}.{g.name})",
        lambda G: f(G) * g(G),
        multiplicative=f.multiplicative and g.multiplicative,
    )


def inverse(f: AbelianFunction, name: str | None = None) -> AbelianFunction:
    """Convolution inverse: g with f*g = delta.

    Requires f(1) != 0; g is built by the recursion
    g(G) = -(1/f(1)) * sum over proper subgroups H of g(H) f(G/H), by the
    route :func:`convolve` would take with f second.
    """
    f_unit = f(TRIVIAL_GROUP)
    if f_unit == 0:
        raise NonInvertibleError(
            f"{f.name} vanishes on the trivial group and has no convolution inverse"
        )
    lead = Fraction(1) / f_unit
    name = name or f"inv({f.name})"
    out = AbelianFunction(
        name,
        lambda G: lead if G.is_trivial else -lead * _subgroup_sum(name, G, out, f, proper=True),
        multiplicative=f.multiplicative,
    )
    return out


# ---------------------------------------------------------------------------
# Builtin library


def mu_closed(G: GroupType) -> int:
    """Closed form of the Moebius function of the algebra: zero unless every
    p-part is elementary, else the product over primes of
    (-1)^dim * p^(dim*(dim-1)/2)."""
    value = 1
    for p, exps in G.components:
        if exps[0] > 1:
            return 0
        value *= _mu_elementary(p, len(exps))
    return value


def _of_order(
    name: str, value: Callable[[int], int | Fraction], *, multiplicative: bool = False
) -> AbelianFunction:
    """G -> value(|G|), marked as depending only on the order."""
    return AbelianFunction(
        name, lambda G: value(G.order), multiplicative=multiplicative, by_order=value
    )


delta = _of_order("delta", lambda n: 1 if n == 1 else 0, multiplicative=True)
one = _of_order("one", lambda n: 1, multiplicative=True)
card = _of_order("card", lambda n: n, multiplicative=True)
mu = AbelianFunction("mu", mu_closed, multiplicative=True)
phi = convolve(mu, card, name="phi")
subgroup_count = convolve(one, one, name="nsub")


def _check_bits(name: str, G: GroupType | int, bits: int) -> None:
    """Refuse a value of ``name`` at G (a type, or an order) that may be
    longer than ``MAX_VALUE_BITS``."""
    if bits > MAX_VALUE_BITS:
        raise BoundExceededError(
            f"{name}({G}) may have {bits} bits, above the bound {MAX_VALUE_BITS}"
        )


def _power(name: str, n: int, base: int, exponent: int) -> int:
    # base <= 2^b with b = bit length of base - 1
    _check_bits(name, n, exponent * (base - 1).bit_length() + 1)
    return base**exponent


@lru_cache(maxsize=None)
def t_pow_card(t: int) -> AbelianFunction:
    """G -> t^|G| (not multiplicative except t = 1)."""
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be an integer >= 1, got {t!r}")
    name = f"tpow:{t}"
    return _of_order(name, lambda n: _power(name, n, t, n), multiplicative=(t == 1))


@lru_cache(maxsize=None)
def card_pow_t(t: int) -> AbelianFunction:
    """G -> |G|^t (multiplicative)."""
    if not isinstance(t, int) or t < 0:
        raise ValueError(f"t must be an integer >= 0, got {t!r}")
    name = f"cardpow:{t}"
    return _of_order(name, lambda n: _power(name, n, n, t), multiplicative=True)


def _binom(name: str, n: int, d: int) -> int:
    # binomial(n, d) is below both n^d and 2^n
    _check_bits(name, n, min(d * (n - 1).bit_length(), n) + 1)
    return math.comb(n, d)


@lru_cache(maxsize=None)
def binom_card(d: int) -> AbelianFunction:
    """G -> binomial(|G|, d)."""
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be an integer >= 0, got {d!r}")
    name = f"binom:{d}"
    return _of_order(name, lambda n: _binom(name, n, d))


@lru_cache(maxsize=None)
def n_t(t: int) -> AbelianFunction:
    """mu * t^|.| : for t = 2 the number of generating subsets; always
    divisible by |G|."""
    return convolve(mu, t_pow_card(t), name=f"nt:{t}")


@lru_cache(maxsize=None)
def generating_tuples(t: int) -> AbelianFunction:
    """Number of t-tuples whose entries generate G: mu * |.|^t."""
    return convolve(mu, card_pow_t(t), name=f"gentuples:{t}")


@lru_cache(maxsize=None)
def generating_subsets_of_size(d: int) -> AbelianFunction:
    """Number of d-element generating subsets: mu * binomial(|.|, d)."""
    return convolve(mu, binom_card(d), name=f"gensubsets:{d}")


BUILTIN_NAMES = (
    "delta",
    "one",
    "card",
    "mu",
    "phi",
    "nsub",
    "nt:<t>",
    "gentuples:<t>",
    "gensubsets:<d>",
    "tpow:<t>",
)

_PLAIN_BUILTINS = {
    "delta": delta,
    "one": one,
    "card": card,
    "mu": mu,
    "phi": phi,
    "nsub": subgroup_count,
}

_PARAM_BUILTINS: dict[str, Callable[[int], AbelianFunction]] = {
    "nt": n_t,
    "gentuples": generating_tuples,
    "gensubsets": generating_subsets_of_size,
    "tpow": t_pow_card,
}


def builtin_function(name: str) -> AbelianFunction:
    """Resolve a CLI-addressable builtin name such as ``"mu"`` or ``"nt:2"``."""
    f = _PLAIN_BUILTINS.get(name)
    if f is not None:
        return f
    head, sep, arg = name.partition(":")
    if sep and head in _PARAM_BUILTINS:
        try:
            value = int(arg)
        except ValueError:
            raise ValueError(f"bad parameter in function name {name!r}") from None
        return _PARAM_BUILTINS[head](value)
    raise ValueError(f"unknown function {name!r}")


# ---------------------------------------------------------------------------
# Restriction to arithmetic functions, multiplicativity checking


class ArithmeticFunction:
    """A function on positive integers, the cyclic shadow of an abelian
    function (Dirichlet convolution corresponds to * there)."""

    __slots__ = ("name", "_rule", "_memo")

    def __init__(self, name: str, rule: Callable[[int], int | Fraction]):
        self.name = name
        self._rule = rule
        self._memo: dict[int, Fraction] = {}

    def __call__(self, n: int) -> Fraction:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"expected a positive integer, got {n!r}")
        cached = self._memo.get(n)
        if cached is None:
            cached = self._memo.setdefault(n, Fraction(self._rule(n)))
        return cached

    def __repr__(self) -> str:
        return f"<ArithmeticFunction {self.name}>"


def restrict_to_cyclic(f: AbelianFunction) -> ArithmeticFunction:
    """n -> f(Z_n); an algebra morphism onto Dirichlet convolution."""
    return ArithmeticFunction(f"{f.name}|cyclic", lambda n: f(cyclic(n)))


def _coprime_type_pairs(order_bound: int) -> Iterable[tuple[GroupType, GroupType]]:
    for a in range(2, order_bound // 2 + 1):
        for b in range(a + 1, order_bound // a + 1):
            if math.gcd(a, b) != 1:
                continue
            for A in types_of_order(a):
                for B in types_of_order(b):
                    yield A, B


def check_multiplicative(f: AbelianFunction, order_bound: int) -> bool:
    """True iff f(1) = 1 and f(A x B) = f(A) f(B) for all coprime-order pairs
    with |A| |B| <= order_bound.  All three evaluations go through the
    defining rule, so a wrongly flagged function cannot pass via its own
    shortcut."""
    if f.eval_by_rule(TRIVIAL_GROUP) != 1:
        return False
    for A, B in _coprime_type_pairs(order_bound):
        if f.eval_by_rule(product(A, B)) != f.eval_by_rule(A) * f.eval_by_rule(B):
            return False
    return True
