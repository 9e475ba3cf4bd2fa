"""Brute-force reference computations used only for cross-validation.

Everything here counts by direct enumeration, deliberately avoiding the
convolution/Moebius formula code paths.  Two things are shared with the
rest of the library: the raw element arithmetic of :class:`ConcreteGroup`
(index tables, element orders) and the lattice's closure kernel
(``lattice._orbit_mask`` for cyclic subgroups, ``lattice._close_mask`` for
closing a subgroup under one more element).  The hom oracle uses that kernel
too: it closes the image subgroup one generator image at a time, counting
the choices of images that reach each subgroup, and reads injectivity and
surjectivity off the size of each final image.
Neither enters the type-level routes the oracles check (convolution over
Hall-number pair multisets, closed-form counting), so a fault in those routes
cannot be repeated here; the closure kernel is checked on its own, against
saturation under addition, by Birkhoff's subgroup counts, and against maps
built from tuple arithmetic alone.  Bounds are explicit constants and
violations raise :class:`BoundExceededError` naming the bound, so a failing
sweep is interpretable.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence
from operator import itemgetter

import numpy as np

from .errors import BoundExceededError
from .grouptype import is_prime
from .lattice import ConcreteGroup, Subgroup, _close_mask, _orbit_mask
from .symgen import Permutation

__all__ = [
    "GENERATING_SUBSET_MAX_ORDER",
    "FUNCTION_SPACE_BOUND",
    "HOM_ENUMERATION_BOUND",
    "CLOSURE_BOUND",
    "ISOMETRY_MAX_ORDER",
    "count_generating_subsets",
    "count_free_functions",
    "count_functions_with_stabilizer",
    "enumerate_homs",
    "permutation_closure",
    "enumerate_isometries",
]

GENERATING_SUBSET_MAX_ORDER = 20
FUNCTION_SPACE_BOUND = 10**7
HOM_ENUMERATION_BOUND = 10**6
CLOSURE_BOUND = 10**6
ISOMETRY_MAX_ORDER = 7


def count_generating_subsets(G: ConcreteGroup) -> int:
    """Sweep all 2^|G| subsets and count those whose closure is all of G."""
    n = G.order
    if n > GENERATING_SUBSET_MAX_ORDER:
        raise BoundExceededError(
            f"group order {n} exceeds the generating-subset sweep bound"
            f" {GENERATING_SUBSET_MAX_ORDER}"
        )
    ar = G._arith
    orbits = [_orbit_mask(ar, x) for x in range(n)]
    full = (1 << n) - 1
    count = 0
    for subset in range(1 << n):
        closed = 1  # the identity
        todo = subset
        while todo and closed != full:
            low = todo & -todo
            todo ^= low
            x = low.bit_length() - 1
            closed = orbits[x] if closed == 1 else _close_mask(ar, closed, x)
        if closed == full:
            count += 1
    return count


def _minimal_subgroup_generators(G: ConcreteGroup) -> list[int]:
    """One prime-order element per minimal subgroup (indices)."""
    ar = G._arith
    seen: set[int] = set()
    reps = []
    for i in range(1, G.order):
        if is_prime(ar.orders[i]):
            orbit = _orbit_mask(ar, i)
            if orbit not in seen:
                seen.add(orbit)
                reps.append(i)
    return reps


def count_free_functions(G: ConcreteGroup, t: int) -> int:
    """Number of functions G -> {1..t} with trivial stabilizer under the
    regular translation action.

    Enumerates all t^|G| functions as base-t digit strings, one digit per
    element, and tests each individually.  The low digits run through one
    block of at most ``chunk`` functions, built once; each value of the high
    digits reuses that block with its constant high rows written in.  A
    nontrivial stabilizer contains an element of prime order, so one
    generator per minimal subgroup suffices for the triviality test.
    """
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be an integer >= 1, got {t!r}")
    n = G.order
    if t**n > FUNCTION_SPACE_BOUND:
        raise BoundExceededError(
            f"t^|G| = {t}^{n} exceeds the function-space bound {FUNCTION_SPACE_BOUND}"
        )
    if n == 1:
        return t  # every function on the trivial group is free
    perms = [G.add_row(i) for i in _minimal_subgroup_generators(G)]
    dtype = np.uint8 if t <= 255 else np.uint16
    chunk = 1 << 19
    low = 0  # digits 0..low-1 vary inside the block, the others across blocks
    while low < n and t ** (low + 1) <= chunk:
        low += 1
    block = t**low
    digits = np.empty((n, block), dtype=dtype)  # digits[x]: the value at x
    column = np.arange(block, dtype=np.int64)
    for x in range(low):
        digits[x] = column // t**x % t
    moved = np.empty(block, dtype=bool)
    differs = np.empty(block, dtype=bool)
    free = np.empty(block, dtype=bool)
    free_total = 0
    for high in range(t ** (n - low)):
        for x in range(low, n):
            digits[x].fill(high % t)
            high //= t
        free.fill(True)
        for perm in perms:
            np.not_equal(digits[0], digits[perm[0]], out=moved)
            for x in range(1, n):
                np.not_equal(digits[x], digits[perm[x]], out=differs)
                moved |= differs
            free &= moved
        free_total += int(np.count_nonzero(free))
    return free_total


def count_functions_with_stabilizer(G: ConcreteGroup, H: Subgroup, t: int) -> int:
    """Number of functions G -> {1..t} whose stabilizer is exactly H.

    Such functions are constant on H-cosets; each candidate labelling of the
    cosets is tested against one representative of every other coset.
    """
    if H.parent != G:
        raise ValueError("subgroup does not belong to the given group")
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be an integer >= 1, got {t!r}")
    n = G.order
    if t**n > FUNCTION_SPACE_BOUND:
        raise BoundExceededError(
            f"t^|G| = {t}^{n} exceeds the function-space bound {FUNCTION_SPACE_BOUND}"
        )
    members = sorted(G.index_of(g) for g in H.elements)
    member_set = set(members)
    coset_of = [-1] * n
    reps = []
    for i in range(n):
        if coset_of[i] >= 0:
            continue
        row = G.add_row(i)
        for h in members:
            coset_of[row[h]] = len(reps)
        reps.append(i)
    # stabilizer membership is constant on cosets: test one g per coset != H
    outside = [g for g in reps if g not in member_set]
    shifted = {g: [coset_of[G.add_row(g)[r]] for r in reps] for g in outside}
    count = 0
    for labels in itertools.product(range(t), repeat=len(reps)):
        for g in outside:
            mapped = shifted[g]
            if all(labels[mapped[j]] == labels[j] for j in range(len(reps))):
                break  # stabilizer strictly larger than H
        else:
            count += 1
    return count


def enumerate_homs(A: ConcreteGroup, B: ConcreteGroup) -> tuple[int, int, int]:
    """(hom, mono, epi) counts by enumerating all candidate generator images.

    A homomorphism from the product group is any assignment sending the i-th
    canonical generator to an element of order dividing m_i.  The image of a
    map is the subgroup of B its generator images close to.  The choices are
    made one generator at a time, keeping for each image of the generators
    chosen so far (a bitmask) the number of choices that reach it; each such
    image is extended by every candidate of the next generator with
    ``lattice._close_mask``.  A map is injective when |image| = |A| and
    surjective when |image| = |B|.
    """
    ar = B._arith
    orders_b = ar.orders
    candidates = [
        [j for j in range(B.order) if m % orders_b[j] == 0] for m in A.moduli
    ]
    total = 1
    for c in candidates:
        total *= len(c)
    if total > HOM_ENUMERATION_BOUND:
        raise BoundExceededError(
            f"|Hom| = {total} exceeds the enumeration bound {HOM_ENUMERATION_BOUND}"
        )
    images: Counter[int] = Counter({1: 1})  # image mask -> number of maps
    for choices in candidates:
        extended: Counter[int] = Counter()
        for mask, count in images.items():
            for j in choices:
                extended[_close_mask(ar, mask, j)] += count
        images = extended
    sizes: Counter[int] = Counter()  # |image| -> number of maps
    for mask, count in images.items():
        sizes[mask.bit_count()] += count
    hom, mono, epi = sum(sizes.values()), sizes[A.order], sizes[B.order]
    if hom != total:
        raise AssertionError(f"enumerated {hom} maps, expected {total} (bug)")
    return hom, mono, epi


def permutation_closure(G: ConcreteGroup, gens: Sequence[Permutation]) -> int:
    """Size of the subgroup of Sym(G) generated by ``gens`` (BFS closure)."""
    for p in gens:
        if p.group != G:
            raise ValueError("generators act on different groups")
    if G.order < 2:
        return 1  # and itemgetter of one index would return a scalar
    identity = tuple(range(G.order))
    right_mul = [itemgetter(*p.images) for p in gens]  # h -> h . p
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for mul in right_mul:
                prod = mul(h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > CLOSURE_BOUND:
                        raise BoundExceededError(
                            f"permutation closure exceeds {CLOSURE_BOUND} elements"
                        )
        frontier = nxt
    return len(seen)


def enumerate_isometries(G: ConcreteGroup, H: Subgroup) -> int:
    """Count permutations sigma with sigma(x) - sigma(y) = x - y mod H for
    all pairs x, y, by filtering all |G|! permutations against the defining
    relation directly."""
    if H.parent != G:
        raise ValueError("subgroup does not belong to the given group")
    n = G.order
    if n > ISOMETRY_MAX_ORDER:
        raise BoundExceededError(
            f"group order {n} exceeds the isometry sweep bound {ISOMETRY_MAX_ORDER}"
        )
    ar = G._arith
    neg = ar.neg
    sub = [ar.row(neg[j]) for j in range(n)]  # sub[j][i] = e_i - e_j
    members = frozenset(ar.index[g] for g in H.elements)
    count = 0
    for perm in itertools.permutations(range(n)):
        ok = True
        for a in range(n):
            pa = perm[a]
            for b in range(a + 1, n):
                lhs = sub[perm[b]][pa]  # sigma(a) - sigma(b)
                rhs = sub[b][a]  # a - b
                if sub[rhs][lhs] not in members:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count
