"""Explicit products of cyclic groups with full subgroup-lattice enumeration.

Elements of ``Z_m1 x ... x Z_mk`` are k-tuples in lexicographic order.
Subgroups are enumerated by breadth-first search on the lattice: each known
subgroup is extended by one element outside it (one representative per coset
suffices, since ``<H, x+h> = <H, x>`` for h in H) and closed, deduplicating
by element set.  Internally subgroups are bitmasks over the element list.
The representatives are the lowest elements of the cosets not yet tried.
The closure of H by x is the union of the cosets H + j*x for j < J, J the
order of x modulo H, each translated once from the one before.  The walk
strikes off H + x and, when J > 2, every H + j*x with gcd(j, J) = 1: each
generates the same cyclic subgroup of G/H as x, so the same closure.  So
from H the search walks each nontrivial cyclic subgroup C of G/H once, with
|C| - 1 translations.  The trivial subgroup takes the same walk (its cosets
are single bits), with no cached orbit masks.

Index arithmetic (element orders, negation, translation rows, cyclic
orbits) is built in mixed radix, one coordinate at a time, on plain ints.
A mask is translated by shifts, not element by element: adding x rotates
each coordinate c by its digit d, which moves the indices whose digit is
below m_c - d up by d times the stride and the others down by m_c - d
times it, two shifts of the whole mask per nonzero digit
(:meth:`_Arith.shifts`).  Translation rows, one index per element, serve
only the element API (``ConcreteGroup.add_row``) and the oracles that take
permutations of G; they are built afresh on each call.  Only masks are
cached: the shift masks and lists and the cyclic orbits of one group share
one budget of ``3 * MAX_LATTICE_WORK // |G|`` masks (:meth:`_Arith._keep`).

Two independent routes compute the abstract type of a subgroup: greedy
reconstruction from the element-order profile (checked against the closed
form :func:`finabel.counting.element_order_profile`), and a
Smith-normal-form computation on generator matrices; tests cross-check
them.  The Smith route embeds G in (Z_n)^k, n the exponent of G, and
reads H's invariant factors off one Smith form of the generators' image,
one row per generator.  :func:`quotient_type` reads G/H's off one Smith
form too (:func:`_cokernel`): its rows are the generators and the
relations m_i e_i with m_i < n, since n Z^k already holds the others.  For
a homocyclic G = (Z_n)^k that is the generators alone, H's own matrix: if
its Smith factors mod n are f_i, H is the sum of the Z_{n/f_i} and G/H of
the Z_{f_i}, the duality G/H = H^perp.  Both routes check each generator
against the moduli first, so a tuple outside G raises ValueError.  Neither
tracks row or column operations: the reduction eliminates rows and columns
down to a diagonal, then turns its nonzero entries into a divisibility
chain by replacing each pair (d_i, d_j), i < j, with (gcd, lcm)
(:func:`finabel.grouptype._normalize`): diag(a, b) is equivalent to
diag(gcd(a, b), lcm(a, b)), and the Smith form is unique.

The (subgroup type, quotient type) multiset behind the convolution algebra
does not come from these lattices: :mod:`finabel.hall` owns it
(``subgroup_quotient_pairs``, re-exported here) and reads it from Hall
numbers per prime.  Enumerating the lattice and taking one Smith form per
subgroup (``_lattice_pairs``) is kept as the differential oracle for that
route, so lattices serve the concrete API (``all_subgroups``, ``symgen``)
and the oracles.

Enumeration is bounded by its predicted work, not by the group order: a
lattice is refused (:class:`BoundExceededError`) when |G| (|G| + s(G)), with
s(G) the number of subgroups by Birkhoff's closed form, passes
``MAX_LATTICE_WORK``.  The index tables behind every element-level call are
refused above ``MAX_ELEMENTS`` elements; tuple arithmetic (``add``, ``neg``,
``sub``, ``contains``) and the Smith forms need no table and stay unbounded.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mod, mul

from .counting import _subgroup_orders, element_order_profile
from .errors import BoundExceededError
from .grouptype import (
    GroupType,
    _join,
    _normalize,
    canonicalize,
    factorize,
)
from .hall import _pairs_for_moduli, subgroup_quotient_pairs  # re-exported

__all__ = [
    "ConcreteGroup",
    "Subgroup",
    "IntMatrix",
    "MAX_LATTICE_WORK",
    "MAX_ELEMENTS",
    "element_order",
    "generated_subgroup",
    "all_subgroups",
    "smith_normal_form",
    "quotient_type",
    "subgroup_type",
    "subgroup_type_via_snf",
    "type_from_order_statistics",
    "subgroup_quotient_pairs",
]

# Rows x cols matrix of Python ints (arbitrary precision).
IntMatrix = Sequence[Sequence[int]]

# _lattice refuses a group whose predicted work |G| (|G| + s(G)) passes this,
# s(G) its number of subgroups: each subgroup scans up to |G| elements, and
# the trivial subgroup's walks translate up to |G| cosets of |G| bits.
# F_2^7 comes to 3.76e6 (0.4 s) and F_2^8 to 1.07e8 (12 s with the check
# bypassed).  The prediction was sized for a search that closed every coset,
# so it overstates groups with long cyclic quotients: Z_4096 comes to
# |G|^2 = 1.7e7 and is refused, yet its walk takes 0.02 s.  Times on a
# 2-CPU Intel Xeon, Python 3.11, shared host.  It also sets the room of the
# mask caches of each group (_Arith._keep): 3 * MAX_LATTICE_WORK bits.
MAX_LATTICE_WORK = 4_000_000


def _check_lattice_work(moduli: tuple[int, ...]) -> None:
    n = prod(moduli)
    if n * n > MAX_LATTICE_WORK:  # s(G) is not needed, nor cheap, here
        work = f"at least |G|^2 = {n * n}"
    else:
        subgroups = prod(
            sum(_subgroup_orders(p, lam).values())
            for p, lam in canonicalize(moduli).components
        )
        if n * (n + subgroups) <= MAX_LATTICE_WORK:
            return
        work = f"|G|(|G| + s(G)) = {n * (n + subgroups)}"
    raise BoundExceededError(
        f"subgroup lattice of Z_{list(moduli)}: predicted work {work}, "
        f"above the bound {MAX_LATTICE_WORK}"
    )


def _mixed_radix(columns: Iterable[Sequence[int]]) -> list[int]:
    """``[sum of v_c]`` over every choice of one entry v_c per column, in
    lexicographic order of the choices; with column c holding index
    contributions (digit times stride), these are element indices."""
    columns = iter(columns)
    out = list(next(columns, [0]))
    for column in columns:
        out = [i + v for i in out for v in column]
    return out


class _Arith:
    """Shared index arithmetic for one moduli tuple.

    Elements are indexed 0..n-1 in lexicographic tuple order, so index 0 is
    the identity and the index of (d_1, ..., d_k) is the sum of d_c times
    the stride of coordinate c, the product of the moduli after it.
    Translation masks and shift lists, and the masks of cyclic subgroups,
    are built lazily and cached under one budget of ``3 * MAX_LATTICE_WORK
    // n`` entries, each counted as one mask of n bits: a group that
    :func:`_lattice` admits has n^2 <= ``MAX_LATTICE_WORK``, so its at most
    3n masks always fit.  Translation rows are not cached.
    """

    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = moduli
        self.n = prod(moduli)
        self.strides = [prod(moduli[c + 1 :]) for c in range(len(moduli))]
        self.elements: list[tuple[int, ...]] = list(
            itertools.product(*(range(m) for m in moduli))
        )
        self.index: dict[tuple[int, ...], int] = {
            g: i for i, g in enumerate(self.elements)
        }
        orders = [1]
        for m in moduli:
            column = [m // gcd(m, d) for d in range(m)]
            orders = [lcm(i, v) for i in orders for v in column]
        self.orders: list[int] = orders
        self.neg: list[int] = _mixed_radix(
            [(-d % m) * s for d in range(m)] for m, s in zip(moduli, self.strides)
        )
        # digit times stride, per coordinate; a translation rotates each one
        self._digits = [[d * s for d in range(m)] for m, s in zip(moduli, self.strides)]
        # the mask caches, filled only through _keep; _moves[c][d] is the
        # entry of shifts() for digit d in coordinate c
        self._moves: list[dict[int, tuple[int, int, int]]] = [{} for _ in moduli]
        self._shifts: dict[int, list[tuple[int, int, int]]] = {}  # x -> shifts(x)
        self._orbits: dict[int, int] = {}  # x -> _cyclic_mask(self, x), for _close_mask
        # entries the mask caches may still take, each one mask of n bits
        self._room = 3 * MAX_LATTICE_WORK // self.n

    def _keep(self, cache: dict, key: int, value):
        """Store ``cache[key] = value`` while the mask caches have room, and
        return ``value``.  Called on a miss only; the room only shrinks."""
        if self._room > 0:
            self._room -= 1
            cache[key] = value
        return value

    def row(self, x: int) -> list[int]:
        """Translation row: ``row(x)[i]`` is the index of ``e_i + e_x``.
        Built afresh on each call, so the caller owns the list."""
        return _mixed_radix(
            digits[c:] + digits[:c] for digits, c in zip(self._digits, self.elements[x])
        )

    def shifts(self, x: int) -> list[tuple[int, int, int]]:
        """How :func:`_translate` moves a mask by ``e_x``: one ``(low, up,
        down)`` per nonzero digit d of x in coordinate c, with stride s and
        modulus m.  Index i moves up by ``up = d*s`` when its digit is below
        m - d, the bits of ``low``, and down by ``down = (m - d)*s``
        otherwise.  The ``low`` masks and the list itself are cached
        through :meth:`_keep`."""
        out = self._shifts.get(x)
        if out is not None:
            return out
        out = []
        for c, d in enumerate(self.elements[x]):
            if d:
                move = self._moves[c].get(d)
                if move is None:
                    m, s = self.moduli[c], self.strides[c]
                    # the low (m - d)*s indices of each block of m*s indices
                    blocks = ((1 << self.n) - 1) // ((1 << m * s) - 1)
                    low = ((1 << (m - d) * s) - 1) * blocks
                    move = self._keep(self._moves[c], d, (low, d * s, (m - d) * s))
                out.append(move)
        return self._keep(self._shifts, x, out)


# _arith refuses to build the tables of a group with more elements than
# this: Z_100000 takes about 0.1 s and 47 MB peak RSS, Z_1000000 1.1 s and
# 320 MB.  The largest group the test suite and the benchmark build has
# 1,024 elements, and no lattice under MAX_LATTICE_WORK has more than 2,000.
MAX_ELEMENTS = 100_000

# _arith and _lattice keep the tables of this many recent groups: each costs
# up to tens of MB (Z_99999 about 29 MB), and a sweep over many groups
# would otherwise hold all of them.
ELEMENT_CACHE_SIZE = 16


@lru_cache(maxsize=ELEMENT_CACHE_SIZE)
def _arith(moduli: tuple[int, ...]) -> _Arith:
    n = prod(moduli)
    if n > MAX_ELEMENTS:
        raise BoundExceededError(
            f"element tables of Z_{list(moduli)}: {n} elements, "
            f"above the bound {MAX_ELEMENTS}"
        )
    return _Arith(moduli)


class ConcreteGroup:
    """The ambient product ``Z_m1 x ... x Z_mk`` with tuple elements.

    The empty moduli tuple is the trivial group (single element ``()``).
    """

    __slots__ = ("moduli",)

    def __init__(self, moduli: Iterable[int] = ()):
        ms = tuple(moduli)
        for m in ms:
            if not isinstance(m, int) or m < 2:
                raise ValueError(f"modulus {m!r} is not an integer >= 2")
        self.moduli = ms

    @classmethod
    def from_type(cls, G: GroupType) -> "ConcreteGroup":
        return cls(G.invariant_factors)

    @property
    def order(self) -> int:
        return prod(self.moduli)

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def elements(self) -> list[tuple[int, ...]]:
        return list(self._arith.elements)

    @property
    def _arith(self) -> _Arith:
        return _arith(self.moduli)

    def contains(self, g: tuple[int, ...]) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == len(self.moduli)
            and all(isinstance(c, int) and 0 <= c < m for c, m in zip(g, self.moduli))
        )

    def _require(self, g: tuple[int, ...]) -> None:
        if not self.contains(g):
            raise ValueError(f"{g!r} is not an element of Z_{self.moduli}")

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        self._require(a)
        self._require(b)
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        self._require(a)
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def sub(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self.add(a, self.neg(b))

    # Index-level primitives (used by the oracle module as raw material).
    def index_of(self, g: tuple[int, ...]) -> int:
        self._require(g)
        return self._arith.index[g]

    def _require_index(self, i: int) -> None:
        if not 0 <= i < self.order:  # a negative i would wrap
            raise ValueError(f"index {i!r} is outside range(|G|) = range({self.order})")

    def element_at(self, i: int) -> tuple[int, ...]:
        self._require_index(i)
        return self._arith.elements[i]

    def add_row(self, i: int) -> list[int]:
        """Indices of ``e_j + e_i`` for all j, as a new list on each call:
        the caller may change it."""
        self._require_index(i)
        return self._arith.row(i)

    def element_orders(self) -> list[int]:
        return list(self._arith.orders)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConcreteGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(("ConcreteGroup", self.moduli))

    def __repr__(self) -> str:
        return f"ConcreteGroup({list(self.moduli)!r})"


class Subgroup:
    """A subgroup of a :class:`ConcreteGroup` as a closed element set.

    ``elements`` is the sorted tuple of member tuples and is the identity of
    the subgroup (equality, hashing, deduplication all key on it).
    ``generators``, when given, must span it: the Smith-form routes read them
    in place of the element list and check the resulting order.
    """

    __slots__ = ("parent", "elements", "generators", "_set", "_type")

    def __init__(
        self,
        parent: ConcreteGroup,
        elements: Sequence[tuple[int, ...]],
        generators: Sequence[tuple[int, ...]] = (),
    ):
        self.parent = parent
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators)
        self._set: frozenset | None = None
        self._type: GroupType | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def element_set(self) -> frozenset:
        if self._set is None:
            self._set = frozenset(self.elements)
        return self._set

    def __contains__(self, g: tuple[int, ...]) -> bool:
        return g in self.element_set

    @property
    def abstract_type(self) -> GroupType:
        if self._type is None:
            self._type = subgroup_type(self)
        return self._type

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.parent.moduli, self.elements))

    def __repr__(self) -> str:
        return f"<Subgroup of Z_{self.parent.moduli}, order {self.order}>"


def element_order(G: ConcreteGroup, g: tuple[int, ...]) -> int:
    """Order of ``g``: lcm over coordinates of ``m_i / gcd(m_i, g_i)``."""
    G._require(g)
    return lcm(*(m // gcd(m, c) for c, m in zip(g, G.moduli)))


def _translate(mask: int, shifts: list[tuple[int, int, int]]) -> int:
    """The set ``mask + e_x`` for ``shifts = ar.shifts(x)``: each nonzero
    digit of x rotates its coordinate, moving every index of the mask at
    once by one of two shifts."""
    for low, up, down in shifts:
        lo = mask & low
        mask = (lo << up) | ((mask ^ lo) >> down)
    return mask


def _cyclic_mask(ar: _Arith, x: int) -> int:
    """The mask of the cyclic subgroup generated by element ``x``, which
    :func:`_close_mask` caches for the trivial subgroup: column c holds the
    index contributions of coordinate c of 0, x, 2x, ..., one period
    repeated up to the order of x."""
    order = ar.orders[x]
    columns = []
    for m, s, c in zip(ar.moduli, ar.strides, ar.elements[x]):
        period = m // gcd(m, c)
        columns.append([(j * c % m) * s for j in range(period)] * (order // period))
    # the order(x) multiples are distinct, so summing their bits ORs them
    return sum(map((1).__lshift__, map(sum, zip(*columns))))


def _close_cosets(
    mask: int, shifts: list[tuple[int, int, int]], neg_x: int, coset: int
) -> int:
    """The union of the cosets mask + j*x, given ``shifts = ar.shifts(x)``,
    the index ``neg_x`` of -x and the first coset, ``coset = mask + x``; x
    is not in ``mask``.  Cosets are added until the next one would be mask
    itself: mask + (j+1)*x = mask exactly when mask + j*x holds -x."""
    closed = mask | coset
    while not (coset >> neg_x) & 1:
        coset = _translate(coset, shifts)
        closed |= coset
    return closed


def _close_mask(ar: _Arith, mask: int, x: int) -> int:
    """Close ``mask`` (a subgroup) under the extra generator ``x``:
    the union of the cosets mask + j*x.  On the trivial subgroup this is the
    cyclic subgroup of x, cached on ``ar`` through :meth:`_Arith._keep`; it
    serves :func:`generated_subgroup` and the oracles."""
    if (mask >> x) & 1:
        return mask
    if mask == 1:
        orbit = ar._orbits.get(x)
        return orbit if orbit is not None else ar._keep(ar._orbits, x, _cyclic_mask(ar, x))
    shifts = ar.shifts(x)
    return _close_cosets(mask, shifts, ar.neg[x], _translate(mask, shifts))


def _mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@lru_cache(maxsize=ELEMENT_CACHE_SIZE)
def _lattice(moduli: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All subgroups of the product group, as (element indices, generator
    indices), sorted by (order, element index list).  Refuses groups whose
    predicted work passes ``MAX_LATTICE_WORK``.  One coset walk per cyclic
    extension (see the module docstring); the cyclic-subgroup masks that
    :func:`_close_mask` caches are neither read nor filled."""
    _check_lattice_work(moduli)
    ar = _arith(moduli)
    full = (1 << ar.n) - 1
    neg = ar.neg
    cached_shifts = ar._shifts  # read directly: a method call per coset costs more
    found: dict[int, tuple[int, ...]] = {1: ()}
    queue = [1]
    head = 0
    while head < len(queue):
        mask = queue[head]
        head += 1
        gens = found[mask]
        todo = full ^ mask  # elements whose coset of mask is not yet tried
        while todo:
            x = (todo & -todo).bit_length() - 1
            shifts = cached_shifts.get(x) or ar.shifts(x)
            coset = _translate(mask, shifts)
            todo ^= coset
            closed = mask | coset
            if not (coset >> neg[x]) & 1:  # J > 2: other cosets may close alike
                cosets = [coset]
                while not (coset >> neg[x]) & 1:
                    coset = _translate(coset, shifts)
                    closed |= coset
                    cosets.append(coset)
                # cosets[j - 1] is mask + j*x; with gcd(j, J) = 1 it
                # generates the same cyclic subgroup of G/mask as x
                J = len(cosets) + 1
                for j in range(2, J):
                    if gcd(j, J) == 1:
                        todo &= ~cosets[j - 1]
            if closed not in found:
                found[closed] = gens + (x,)
                queue.append(closed)
    lattice = [(_mask_indices(mask), gens) for mask, gens in found.items()]
    lattice.sort(key=lambda item: (len(item[0]), item[0]))
    return lattice


def generated_subgroup(
    G: ConcreteGroup, gens: Iterable[tuple[int, ...]]
) -> Subgroup:
    """Least subgroup containing ``gens`` (the trivial subgroup for none)."""
    gens = tuple(gens)  # an iterator would be spent by the loop
    ar = G._arith
    mask = 1
    for g in gens:
        G._require(g)
        mask = _close_mask(ar, mask, ar.index[g])
    elements = [ar.elements[i] for i in _mask_indices(mask)]
    return Subgroup(G, elements, gens)


def all_subgroups(G: ConcreteGroup) -> list[Subgroup]:
    """Every subgroup of ``G``, one entry per distinct element set, sorted by
    (order, element list).  Refuses groups whose predicted enumeration work
    passes ``MAX_LATTICE_WORK``."""
    lattice = _lattice(G.moduli)  # checks the work before any element is listed
    ar = G._arith
    out = []
    for idxs, gen_idxs in lattice:
        elements = [ar.elements[i] for i in idxs]
        gens = tuple(ar.elements[i] for i in gen_idxs)
        out.append(Subgroup(G, elements, gens))
    return out


# ---------------------------------------------------------------------------
# Smith normal form


def _validate_matrix(M: IntMatrix) -> list[list[int]]:
    rows = [list(r) for r in M]
    if rows:
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("matrix rows have unequal lengths")
            for v in r:
                if not isinstance(v, int):
                    raise ValueError(f"matrix entry {v!r} is not an integer")
    return rows


def _snf(A: list[list[int]]) -> list[int]:
    """In-place Smith reduction of ``A``; returns its Smith diagonal,
    min(rows, cols) entries, zeros last."""
    r = len(A)
    c = len(A[0]) if r else 0

    def col_swap(j1: int, j2: int) -> None:
        for row in A:
            row[j1], row[j2] = row[j2], row[j1]

    t = 0
    while t < r and t < c:
        # pivot: smallest nonzero magnitude in the remaining block
        best = None
        best_abs = None
        for i in range(t, r):
            Ai = A[i]
            for j in range(t, c):
                v = Ai[j]
                if v and (best_abs is None or abs(v) < best_abs):
                    best, best_abs = (i, j), abs(v)
                    if best_abs == 1:
                        break
            if best_abs == 1:
                break
        if best is None:
            break
        i0, j0 = best
        if i0 != t:
            A[i0], A[t] = A[t], A[i0]
        if j0 != t:
            col_swap(j0, t)
        while True:
            if A[t][t] < 0:
                A[t] = [-v for v in A[t]]
            At = A[t]
            a = At[t]
            dirty = False
            for i in range(t + 1, r):
                v = A[i][t]
                if v:
                    q = v // a
                    if q:  # row t is zero left of column t
                        A[i] = [x - q * y for x, y in zip(A[i], At)]
                    if A[i][t]:
                        A[i], A[t] = A[t], A[i]
                        dirty = True
                        break
            if dirty:
                continue
            # column t is now zero below row t (and above it, finished
            # rows), so a column operation against it changes row t alone
            for j in range(t + 1, c):
                if At[j]:
                    At[j] %= a
                    if At[j]:
                        col_swap(j, t)
                        dirty = True
                        break
            if dirty:
                continue
            break
        t += 1
    # A is diagonal with t nonzero entries; the gcd/lcm chain of those is the
    # Smith diagonal, and 1s stay 1s in it (every pivot was made positive)
    big = [A[i][i] for i in range(t) if A[i][i] > 1]
    return [1] * (t - len(big)) + _normalize(big) + [0] * (min(r, c) - t)


def smith_normal_form(M: IntMatrix) -> list[int]:
    """Diagonal of the Smith normal form: s_1 | s_2 | ..., nonnegative.

    >>> smith_normal_form([[4, 0], [0, 6]])
    [2, 12]
    """
    return _snf(_validate_matrix(M))


def _require_elements(G: ConcreteGroup, gens: Sequence[tuple[int, ...]]) -> None:
    """Raise the ValueError of :func:`_member_indices` for the first of
    ``gens`` that is not an element of ``G``: a tuple of the wrong length,
    with a coordinate outside [0, m_i), which reducing mod m_i moves, or
    with one that is not an int, such as 2.0, which makes the sum of the
    coordinates a float."""
    moduli = G.moduli
    k = len(moduli)
    for g in gens:
        try:
            if len(g) == k and tuple(map(mod, g, moduli)) == g and isinstance(sum(g), int):
                continue
        except TypeError:  # no length, or a coordinate that takes no mod or sum
            pass
        G._require(g)


def _cokernel(moduli: Sequence[int], gens: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors of the quotient of ``Z_m1 x ... x Z_mk`` by the
    span of ``gens``, each with k coordinates (:func:`_require_elements`).

    With n = lcm(m_i), the exponent, the quotient is Z^k modulo n Z^k, the
    generators and the m_i e_i, and n Z^k already holds m_i e_i when
    m_i = n.  So the rows are the generators and m_i e_i for m_i < n.  If
    their Smith form is diag(d_i), the quotient is the sum over i <= k of
    the Z_{gcd(d_i, n)}, with d_i = 0 past the rank; gcd keeps the
    divisibility chain, and a d_i coprime to n gives Z_1."""
    n = lcm(*moduli)
    k = len(moduli)
    rows = [list(g) for g in gens]
    for i, m in enumerate(moduli):
        if m != n:
            row = [0] * k
            row[i] = m
            rows.append(row)
    diag = _snf(rows)
    return tuple([f for d in diag if (f := gcd(d, n)) > 1]) + (n,) * (k - len(diag))


def quotient_type(G: ConcreteGroup, H: Subgroup) -> GroupType:
    """Invariant factors of ``G/H`` from one Smith form of the generators
    and the relations m_i e_i that the exponent leaves (:func:`_cokernel`);
    |G/H| must be |G|/|H|.  Raises ValueError when a generator is not an
    element of ``G``."""
    if H.parent != G:
        raise ValueError("subgroup does not belong to the given group")
    gens = H.generators or H.elements
    _require_elements(G, gens)
    result = GroupType(_cokernel(G.moduli, gens))
    expected = G.order // H.order
    if result.order != expected:
        raise AssertionError(f"cokernel order {result.order} != expected {expected}")
    return result


def type_from_order_statistics(profile: Mapping[int, int]) -> GroupType:
    """The unique abelian type whose element-order profile matches.

    Each p-part partition is rebuilt greedily from the counts of elements of
    order p^k, then the candidate's full profile is verified against the
    input; raises ValueError when an order or count is not an integer or no
    abelian group matches.
    """
    bad = ValueError(f"profile {dict(profile)!r} matches no abelian group")
    if not all(isinstance(d, int) and isinstance(c, int) for d, c in profile.items()):
        raise bad
    clean = {d: c for d, c in profile.items() if c}
    if any(d < 1 or c < 0 for d, c in clean.items()):
        raise bad
    total = sum(clean.values())
    if total < 1 or clean.get(1) != 1:
        raise bad
    components = []
    for p in factorize(total):
        # counts of elements whose order is a pure power of p rebuild the
        # p-part: #{order | p^k} must be p^(sum of min(k, lambda_i))
        pure = {}
        for d, c in clean.items():
            k, m = 0, d
            while m % p == 0:
                m //= p
                k += 1
            if m == 1 and k >= 1:
                pure[k] = c
        if not pure:
            raise bad
        top = max(pure)
        cum = 1
        heights = [0]
        for k in range(1, top + 1):
            cum += pure.get(k, 0)
            c, e = cum, 0
            while c % p == 0:
                c //= p
                e += 1
            heights.append(e)
        # a bad profile still gives a partition here; the final check refuses it
        parts_ge = [heights[j] - heights[j - 1] for j in range(1, top + 1)]
        lam = tuple(sum(1 for a in parts_ge if a > i) for i in range(parts_ge[0]))
        components.append((p, lam))
    candidate = _join(components)  # primes from factorize
    # the order test is implied by the profile test, but bounds its work: a
    # bad profile can rebuild a candidate with far more element orders
    if candidate.order != total or element_order_profile(candidate) != clean:
        raise bad
    return candidate


@lru_cache(maxsize=None)
def _type_from_profile_key(key: tuple[tuple[int, int], ...]) -> GroupType:
    return type_from_order_statistics(dict(key))


def _indices_type(ar: _Arith, idxs: Iterable[int]) -> GroupType:
    """Abstract type of the subgroup on these element indices, from its
    element-order profile."""
    key = tuple(sorted(Counter(ar.orders[i] for i in idxs).items()))
    try:
        return _type_from_profile_key(key)
    except ValueError as exc:  # a closed subgroup always has a valid profile
        raise AssertionError(f"internal error: {exc}") from exc


def _member_indices(H: Subgroup) -> list[int]:
    """Indices of ``H.elements`` in the parent's element list, ascending;
    ValueError names the first element outside the parent."""
    index = H.parent._arith.index
    try:
        return [index[g] for g in H.elements]
    except KeyError as exc:
        missing = exc.args[0]
    raise ValueError(f"{missing!r} is not an element of Z_{H.parent.moduli}")


def subgroup_type(H: Subgroup) -> GroupType:
    """Abstract type of ``H``, reconstructed from its element-order profile."""
    return _indices_type(H.parent._arith, _member_indices(H))


def subgroup_type_via_snf(H: Subgroup) -> GroupType:
    """Independent route to the abstract type: one Smith reduction of the
    image of the generators, one row per generator.

    With n = lcm(m_i), the exponent of G, x -> (x_i n/m_i) embeds G in
    (Z_n)^k, where H is the span mod n of the rows of the r x k matrix
    ``A[j][i] = g_j[i] n/m_i``.  If ``U A V = diag(s_i)`` with U, V
    unimodular, hence invertible mod n, that span is the sum of the
    Z_{n/gcd(s_i, n)}.  The order of the result must be |H|.  Raises
    ValueError when a generator is not an element of the parent."""
    moduli = H.parent.moduli
    n = lcm(*moduli)
    gens = H.generators or H.elements
    _require_elements(H.parent, gens)
    scale = [n // m for m in moduli]
    A = [list(map(mul, g, scale)) for g in gens]
    factors = (n // gcd(s, n) for s in reversed(_snf(A)))  # a divisibility chain
    result = GroupType(tuple(f for f in factors if f > 1))
    if result.order != H.order:
        raise AssertionError(f"image order {result.order} != expected {H.order}")
    return result


# ---------------------------------------------------------------------------
# (subgroup type, quotient type) multiset per canonical group type: the
# lattice route, oracle of hall.subgroup_quotient_pairs


def _lattice_pairs(moduli: tuple[int, ...]) -> dict[tuple[GroupType, GroupType], int]:
    """The multiset of :func:`finabel.hall.subgroup_quotient_pairs` by
    enumerating every subgroup of the concrete model and taking one Smith
    form per subgroup: its differential oracle."""
    lattice = _lattice(moduli)
    ar = _arith(moduli)
    counts: Counter = Counter()
    for idxs, gen_idxs in lattice:
        ht = _indices_type(ar, idxs)
        qt = GroupType(_cokernel(moduli, [ar.elements[i] for i in gen_idxs]))
        expected = ar.n // len(idxs)
        if qt.order != expected:
            raise AssertionError(f"cokernel order {qt.order} != expected {expected}")
        counts[(ht, qt)] += 1
    return dict(counts)
