"""The convolution algebra of abelian functions.

An abelian function assigns an exact rational to every finite abelian group,
constant on isomorphism classes.  The convolution

    (f * g)(G) = sum over subgroups H of G of f(H) * g(G/H)

runs over all subgroups of G, not just their isomorphism classes, so it
depends only on the multiset of (subgroup type, quotient type) pairs of G.
That multiset comes from Hall numbers per prime, combined over the primes
(:func:`finabel.hall.subgroup_quotient_pairs`); no subgroup is enumerated,
and nothing here imports the element-level layer.  The subgroup-lattice
route is kept as its oracle.  delta (1 on the trivial group) is the unit,
and every f with f(1) != 0 has a convolution inverse computed by recursion
over proper subgroups.

Scalars are exact: Python ints and ``fractions.Fraction``, never floats.
Evaluations are memoized per canonical type; memo entries are write-once and
idempotent, so concurrent readers and redundant concurrent writers are safe
under the GIL (evaluation itself is pure).

Functions flagged ``multiplicative`` may evaluate through their primary
decomposition, f(G) = product of f over the p-parts of G, which needs only
the pair multisets of the p-parts, so large composite orders stay cheap.
The flag is an assertion about the function (tests verify it); evaluation
by the defining rule is always available through
:meth:`AbelianFunction.eval_by_rule`.

The builtins t^|G|, |G|^t and binomial(|G|, d) refuse a value whose bit
length, bounded in advance from |G| and the parameter, passes
``MAX_VALUE_BITS``; so does the multiplicative shortcut, from the sum of
the bit lengths of the p-part values, before it multiplies them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable

from .errors import BoundExceededError, NonInvertibleError
from .grouptype import (
    GroupType,
    TRIVIAL_GROUP,
    cyclic,
    primary,
    primary_parts,
    product,
    types_of_order,
)
from .hall import subgroup_quotient_pairs

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
    """A memoized map ``GroupType -> ExactValue`` with algebra structure."""

    __slots__ = ("name", "_rule", "_memo", "multiplicative")

    def __init__(
        self,
        name: str,
        rule: Callable[[GroupType], int | Fraction],
        *,
        multiplicative: bool = False,
    ):
        self.name = name
        self._rule = rule
        self._memo: dict[GroupType, Fraction] = {}
        self.multiplicative = multiplicative

    def __call__(self, G: GroupType) -> Fraction:
        if not isinstance(G, GroupType):
            raise TypeError(f"expected a GroupType, got {G!r}")
        cached = self._memo.get(G)
        if cached is not None:
            return cached
        if self.multiplicative:
            parts = primary_parts(G)
            if len(parts) > 1:
                values = [self(part) for part in parts]
                # numerator and denominator of the product are at most this long
                _check_bits(self.name, G, max(
                    sum(v.numerator.bit_length() for v in values),
                    sum(v.denominator.bit_length() for v in values),
                ))
                value = reduce(operator.mul, values)
            else:
                value = Fraction(self._rule(G))
        else:
            value = Fraction(self._rule(G))
        return self._memo.setdefault(G, value)

    def eval_by_rule(self, G: GroupType) -> Fraction:
        """Evaluate the defining rule directly, bypassing the multiplicative
        shortcut and the memo (used to *check* multiplicativity)."""
        return Fraction(self._rule(G))

    def __repr__(self) -> str:
        return f"<AbelianFunction {self.name}>"


def convolve(f: AbelianFunction, g: AbelianFunction, name: str | None = None) -> AbelianFunction:
    """Convolution: the sum over subgroups H of G of f(H) g(G/H)."""

    def rule(G: GroupType) -> Fraction:
        total = Fraction(0)
        for (ht, qt), mult in subgroup_quotient_pairs(G).items():
            total += mult * f(ht) * g(qt)
        return total

    return AbelianFunction(
        name or f"({f.name}*{g.name})",
        rule,
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
    g(G) = -(1/f(1)) * sum over proper subgroups H of g(H) f(G/H).
    """
    f_unit = f(TRIVIAL_GROUP)
    if f_unit == 0:
        raise NonInvertibleError(
            f"{f.name} vanishes on the trivial group and has no convolution inverse"
        )
    lead = Fraction(1) / f_unit

    def rule(G: GroupType) -> Fraction:
        if G.is_trivial:
            return lead
        total = Fraction(0)
        order = G.order
        for (ht, qt), mult in subgroup_quotient_pairs(G).items():
            if ht.order == order:
                continue
            total += mult * out(ht) * f(qt)
        return -lead * total

    out = AbelianFunction(
        name or f"inv({f.name})", rule, multiplicative=f.multiplicative
    )
    return out


# ---------------------------------------------------------------------------
# Builtin library


def mu_closed(G: GroupType) -> int:
    """Closed form of the Moebius function of the algebra: zero unless every
    p-part is elementary, else the product over primes of
    (-1)^dim * p^(dim*(dim-1)/2)."""
    value = 1
    for p, exps in primary(G).components:
        if exps[0] > 1:
            return 0
        dim = len(exps)
        value *= (-1) ** dim * p ** (dim * (dim - 1) // 2)
    return value


delta = AbelianFunction("delta", lambda G: 1 if G.is_trivial else 0, multiplicative=True)
one = AbelianFunction("one", lambda G: 1, multiplicative=True)
card = AbelianFunction("card", lambda G: G.order, multiplicative=True)
mu = AbelianFunction("mu", mu_closed, multiplicative=True)
phi = convolve(mu, card, name="phi")
subgroup_count = convolve(one, one, name="nsub")


def _check_bits(name: str, G: GroupType, bits: int) -> None:
    if bits > MAX_VALUE_BITS:
        raise BoundExceededError(
            f"{name}({G}) may have {bits} bits, above the bound {MAX_VALUE_BITS}"
        )


def _power(name: str, G: GroupType, base: int, exponent: int) -> int:
    # base <= 2^b with b = bit length of base - 1
    _check_bits(name, G, exponent * (base - 1).bit_length() + 1)
    return base**exponent


@lru_cache(maxsize=None)
def t_pow_card(t: int) -> AbelianFunction:
    """G -> t^|G| (not multiplicative except t = 1)."""
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be an integer >= 1, got {t!r}")
    name = f"tpow:{t}"
    return AbelianFunction(
        name, lambda G: _power(name, G, t, G.order), multiplicative=(t == 1)
    )


@lru_cache(maxsize=None)
def card_pow_t(t: int) -> AbelianFunction:
    """G -> |G|^t (multiplicative)."""
    if not isinstance(t, int) or t < 0:
        raise ValueError(f"t must be an integer >= 0, got {t!r}")
    name = f"cardpow:{t}"
    return AbelianFunction(name, lambda G: _power(name, G, G.order, t), multiplicative=True)


def _binom(name: str, G: GroupType, d: int) -> int:
    # binomial(n, d) is below both n^d and 2^n
    n = G.order
    _check_bits(name, G, min(d * (n - 1).bit_length(), n) + 1)
    return math.comb(n, d)


@lru_cache(maxsize=None)
def binom_card(d: int) -> AbelianFunction:
    """G -> binomial(|G|, d)."""
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be an integer >= 0, got {d!r}")
    name = f"binom:{d}"
    return AbelianFunction(name, lambda G: _binom(name, G, d))


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
