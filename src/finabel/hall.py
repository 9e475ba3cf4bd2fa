"""(Subgroup type, quotient type) multisets from Hall numbers.

A finite abelian p-group is named by a partition lambda (the exponents of
its cyclic factors).  Its subgroups of type nu with quotient of type mu are
counted by the Hall number g^lambda_{mu nu}(p), the structure constant of
the Hall algebra, u_mu u_nu = sum over lambda of g^lambda_{mu nu}(p) u_lambda
(Macdonald, *Symmetric Functions and Hall Polynomials*, Ch. II, section 4).
Two facts give every Hall number:

* the Pieri rule, Macdonald II (4.6): u_mu u_(1^m) is supported on the
  lambda for which lambda/mu is a *vertical* m-strip (lambda_i - mu_i in
  {0, 1} row by row), with an explicit coefficient;
* the words E(nu) = u_(1^nu'_1) ... u_(1^nu'_r) are triangular over the
  u_nu in dominance order, so each u_nu is a rational combination of
  E-words and u_mu u_nu is a sum of Pieri chains.

The multiset of a group, :func:`subgroup_quotient_pairs`, is the product
of the multisets of its p-parts (its subgroup lattice is the product of its
Sylow lattices); :mod:`finabel.functions` sums over it for a convolution
in which neither factor depends only on the order, and for the inverse of
such a function.  The other convolutions need only Birkhoff's counts of
subgroups by type (:func:`subgroup_types`), which need no Hall table.
Primes are combined on partitions: each (subgroup, quotient) pair is
carried as its per-prime partitions, multiplicities multiply, and each
pair becomes a ``GroupType`` once, after the last prime.  All
arithmetic is exact (ints and ``Fraction``).  Every table is checked as it
is built: each Hall number must be a positive integer, and for each lambda
and nu the Hall numbers over mu must add up to Birkhoff's count of
subgroups of type nu, an independent closed form.  The subgroup-lattice
route, ``lattice._lattice_pairs``, is the differential oracle for all of
this; nothing here imports it.

Birkhoff's count and the |Aut| closed form, ``aut_count_of_type``, are
also what ``counting`` multiplies over primes, and the sub-partitions of
lambda (``_sub_partitions``, counted without enumerating by
``_sub_partition_count``) are the subgroup types of a p-part.

Work is bounded by two constants: a Hall table of size n above
``MAX_HALL_SIZE`` is refused (its cost grows with the number of partitions
of n, whatever p), and so is a multiset of more than ``MAX_PAIRS`` pairs,
counted as the product of the per-prime counts before they are combined.
``functions`` bounds its sums over subgroup types by ``MAX_PAIRS`` too,
and ``counting`` the sub-partitions its subgroup-order profile visits.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod

from .errors import BoundExceededError
from .grouptype import GroupType, _join, _partitions

__all__ = [
    "MAX_HALL_SIZE",
    "MAX_PAIRS",
    "aut_count_of_type",
    "hall_table",
    "subgroup_count_of_type",
    "subgroup_quotient_pairs",
    "subgroup_types",
]

Partition = tuple[int, ...]
# lambda -> {(nu, mu): g^lambda_{mu nu}}: nu the subgroup's, mu the quotient's
HallTable = dict[Partition, dict[tuple[Partition, Partition], int]]

# hall_table(p, n) is built in 0.18 s cold for n = 9 and 0.35 s for n = 10
MAX_HALL_SIZE = 9
# the largest multiset of a type of order <= 512 has 78 pairs; this also
# bounds the terms of the sums over subgroup types in functions and the
# sub-partitions of counting's subgroup-order profile (about 0.3 s of
# Birkhoff counts): (7)^7 has 3,432, (8)^8 has 12,870
MAX_PAIRS = 10_000


def _conjugate(lam: Partition) -> Partition:
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def _n(lam: Partition) -> int:
    """n(lambda) = sum of (i - 1) lambda_i."""
    return sum(i * part for i, part in enumerate(lam))


def _gauss(p: int, a: int, b: int) -> int:
    """Gaussian binomial [a choose b]_p; 0 unless 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    num = den = 1
    for i in range(b):
        num *= p ** (a - i) - 1
        den *= p ** (i + 1) - 1
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"Gaussian binomial [{a} choose {b}]_{p} is not integral (bug)")
    return q


def subgroup_count_of_type(p: int, lam: Partition, nu: Partition) -> int:
    """Subgroups of type nu in the p-group of type lam (Birkhoff 1935):
    the product over i of p^(nu'_{i+1} (lam'_i - nu'_i))
    [lam'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_p."""
    if len(nu) > len(lam) or any(a < b for a, b in zip(lam, nu)):
        return 0
    lc = _conjugate(lam)
    nc = _conjugate(nu) + (0,) * (len(lc) + 1)
    count = 1
    for i, top in enumerate(lc):
        count *= p ** (nc[i + 1] * (top - nc[i])) * _gauss(p, top - nc[i + 1], nc[i] - nc[i + 1])
    return count


def _sub_partitions(lam: Partition, cap: int):
    """Every partition nu with nu_1 <= cap and nu_i <= lam_i for all i."""
    yield ()
    if lam:
        for first in range(1, min(lam[0], cap) + 1):
            for rest in _sub_partitions(lam[1:], first):
                yield (first,) + rest


def _sub_partition_count(lam: Partition) -> int:
    """len(list(_sub_partitions(lam, lam[0]))) without enumerating: below[c]
    counts the fillings of the rows below the current one with first part
    <= c, built from the last row up."""
    if not lam:
        return 1
    below = [1] * (lam[0] + 1)
    for part in reversed(lam):
        here = [1] * (lam[0] + 1)
        for c in range(1, lam[0] + 1):
            here[c] = here[c - 1] + (below[c] if c <= part else 0)
        below = here
    return below[-1]


# each entry holds at most MAX_PAIRS types
@lru_cache(maxsize=256)
def subgroup_types(p: int, lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """``((nu, count), ...)``: every subgroup type nu of the p-group of
    (nonempty) type lam, the trivial one first, with Birkhoff's count of its
    subgroups of that type.  Callers bound ``_sub_partition_count(lam)``
    first."""
    return tuple(
        (nu, subgroup_count_of_type(p, lam, nu))
        for nu in _sub_partitions(lam, lam[0])
    )


def aut_count_of_type(p: int, lam: Partition) -> int:
    """|Aut| of the p-group of type lam (Macdonald II section 1):
    p^(|lam| + 2 n(lam)) times the product over part sizes i of
    phi_(m_i)(1/p), where m_i parts equal i and phi_m(t) = (1-t)...(1-t^m).
    Each phi_m(1/p) is p^(-m(m+1)/2) (p-1)(p^2-1)...(p^m-1)."""
    exponent = sum(lam) + 2 * _n(lam)
    count = 1
    for _, rows in itertools.groupby(lam):
        m = len(list(rows))
        exponent -= m * (m + 1) // 2
        for j in range(1, m + 1):
            count *= p**j - 1
    return count * p**exponent


def _vertical_strips(mu: Partition, m: int):
    """Every lambda with |lambda| = |mu| + m and lambda_i - mu_i in {0, 1}.
    Within a block of equal rows of mu only the top rows may grow."""
    blocks = [(v, len(list(rows))) for v, rows in itertools.groupby(mu)] + [(0, m)]
    for grow in itertools.product(*(range(min(size, m) + 1) for _, size in blocks)):
        if sum(grow) == m:
            lam = []
            for (v, size), k in zip(blocks, grow):
                lam += [v + 1] * k + [v] * (size - k)
            yield tuple(part for part in lam if part)


def _pieri(p: int, mu: Partition, m: int) -> dict[Partition, int]:
    """u_mu u_(1^m) by Macdonald II (4.6): the coefficient of u_lambda is
    p^(n(lambda) - n(mu) - n(1^m)) times the product over i of
    [lambda'_i - lambda'_{i+1} choose lambda'_i - mu'_i]_(1/p), and each
    [a choose b]_(1/p) is p^(-b(a-b)) [a choose b]_p."""
    mc = _conjugate(mu)
    out = {}
    for lam in _vertical_strips(mu, m):
        lc = _conjugate(lam) + (0,)
        exponent = _n(lam) - _n(mu) - m * (m - 1) // 2
        coefficient = 1
        for i in range(len(lc) - 1):
            a, b = lc[i] - lc[i + 1], lc[i] - (mc[i] if i < len(mc) else 0)
            exponent -= b * (a - b)
            coefficient *= _gauss(p, a, b)
        if exponent < 0:
            raise AssertionError(f"Pieri coefficient of {lam} over {mu} at p={p} is not integral")
        out[lam] = coefficient * p**exponent
    return out


@lru_cache(maxsize=None)
def hall_table(p: int, n: int) -> HallTable:
    """``{lambda: {(nu, mu): g^lambda_{mu nu}(p)}}`` for every lambda of n.
    Refuses n above ``MAX_HALL_SIZE``."""
    if n > MAX_HALL_SIZE:
        raise BoundExceededError(
            f"Hall table of size {n} at p = {p}, above the bound {MAX_HALL_SIZE}"
        )
    pieri: dict[tuple[Partition, int], dict[Partition, int]] = {}
    chains: dict[tuple[Partition, Partition], dict[Partition, int]] = {}

    def chain(mu: Partition, columns: Partition) -> dict[Partition, int]:
        """u_mu u_(1^c_1) ... u_(1^c_r) in the u basis."""
        key = (mu, columns)
        if key not in chains:
            if not columns:
                chains[key] = {mu: 1}
            else:
                out: Counter = Counter()
                for lam, c in chain(mu, columns[:-1]).items():
                    step = (lam, columns[-1])
                    if step not in pieri:
                        pieri[step] = _pieri(p, *step)
                    for top, d in pieri[step].items():
                        out[top] += c * d
                chains[key] = out
        return chains[key]

    # u_nu = sum over rho of basis[nu][rho] E(rho); lex order refines dominance
    basis: dict[Partition, dict[Partition, Fraction]] = {}
    for k in range(n + 1):
        for nu in sorted(_partitions(k)):
            word = chain((), _conjugate(nu))
            row: Counter = Counter({nu: Fraction(1)})
            for lam, c in word.items():
                if lam != nu:
                    if lam not in basis:
                        raise AssertionError(f"E({nu}) meets {lam}, which is not below it")
                    for rho, a in basis[lam].items():
                        row[rho] -= c * a
            basis[nu] = {rho: a / word[nu] for rho, a in row.items() if a}

    table: HallTable = {lam: {} for lam in _partitions(n)}
    for k in range(n + 1):
        for nu in _partitions(k):
            for mu in _partitions(n - k):
                products: Counter = Counter()
                for rho, a in basis[nu].items():
                    for lam, c in chain(mu, _conjugate(rho)).items():
                        products[lam] += a * c
                for lam, g in products.items():
                    if g:
                        if g < 0 or g.denominator != 1:
                            raise AssertionError(f"Hall number g^{lam}_{mu},{nu}({p}) = {g}")
                        table[lam][(nu, mu)] = int(g)
    for lam, pairs in table.items():
        per_type = Counter()
        for (nu, _), g in pairs.items():
            per_type[nu] += g
        for nu in itertools.chain.from_iterable(map(_partitions, range(n + 1))):
            if per_type[nu] != subgroup_count_of_type(p, lam, nu):
                raise AssertionError(
                    f"Hall numbers count {per_type[nu]} subgroups of type {nu} in {lam} "
                    f"at p={p}; Birkhoff's formula gives {subgroup_count_of_type(p, lam, nu)}"
                )
    return table


@lru_cache(maxsize=None)
def _pairs_for_moduli(
    components: tuple[tuple[int, tuple[int, ...]], ...]
) -> tuple[tuple[tuple[GroupType, GroupType], int], ...]:
    """The multiset of the type with these p-partitions: the Hall numbers
    of each p-part, combined over primes; cached per type.  The key is
    ``GroupType.components``, which a type already carries, so a cold call
    factorizes nothing.  Refuses a multiset of more than ``MAX_PAIRS``
    pairs."""
    parts = [(p, hall_table(p, sum(lam))[lam]) for p, lam in components]
    count = prod(len(local) for _, local in parts)
    if count > MAX_PAIRS:
        raise BoundExceededError(
            f"{_join(components)} has {count} (subgroup type, quotient type) pairs, "
            f"above the bound {MAX_PAIRS}"
        )
    pairs: dict[tuple[tuple, tuple], int] = {((), ()): 1}
    for p, local in parts:
        pairs = {
            (hs + ((p, nu),), qs + ((p, mu),)): mult * g
            for (hs, qs), mult in pairs.items()
            for (nu, mu), g in local.items()
        }
    return tuple(((_join(hs), _join(qs)), mult) for (hs, qs), mult in pairs.items())


def subgroup_quotient_pairs(T: GroupType) -> dict[tuple[GroupType, GroupType], int]:
    """Multiset of (subgroup type, quotient type) over all subgroups of T,
    the workhorse behind convolution sums.  Refuses types whose Hall tables
    pass ``MAX_HALL_SIZE`` or whose multiset passes ``MAX_PAIRS`` pairs."""
    return dict(_pairs_for_moduli(T.components))
