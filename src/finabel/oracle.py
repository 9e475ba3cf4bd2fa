"""Brute-force reference computations used only for cross-validation.

Everything here counts by direct enumeration, deliberately avoiding the
convolution/Moebius formula code paths.  Two things are shared with the
rest of the library: the raw element arithmetic of :class:`ConcreteGroup`
(index tables, element orders) and the lattice's one closure kernel,
``lattice._close_mask``, which closes a subgroup under one more element
(the trivial subgroup under x gives the cyclic subgroup of x).  The hom
oracle uses that kernel too: it closes the image subgroup one generator
image at a time, counting the choices of images that reach each subgroup,
and reads injectivity and surjectivity off the size of each final image.
The free-function counter keeps one bit per function in a Python integer
and tests every function against one generator per minimal subgroup.
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

from .errors import BoundExceededError
from .grouptype import is_prime
from .lattice import ConcreteGroup, Subgroup, _close_mask, _member_indices
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
    """Sweep all 2^|G| subsets and count those whose closure is all of G.

    A subset with top element t generates the closure under t of the
    subgroup that the subset without t generates.  So the subsets whose top
    element is t, the subsets below 2^t with t added, take their subgroups
    from those below 2^t by one closure step (``lattice._close_mask``) per
    subgroup met so far, at most s(G) |G| steps in all.  Every subset's
    subgroup is kept, as a one-byte id into the subgroups met.
    """
    n = G.order
    if n > GENERATING_SUBSET_MAX_ORDER:
        raise BoundExceededError(
            f"group order {n} exceeds the generating-subset sweep bound"
            f" {GENERATING_SUBSET_MAX_ORDER}"
        )
    ar = G._arith
    masks = [1]  # subgroup id -> bitmask; id 0 is the trivial subgroup
    ids = {1: 0}
    # closed[s]: id of the subgroup subset s generates, for s < 2^t, one
    # byte each (no group of order <= 20 has 256 subgroups); every id met
    # so far stands in it
    closed = bytearray(1)
    for t in range(n):
        step = bytearray(256)  # id -> id of its closure under element t
        for sid in range(len(masks)):
            mask = _close_mask(ar, masks[sid], t)
            if mask not in ids:
                ids[mask] = len(masks)
                masks.append(mask)
            step[sid] = ids[mask]
        closed += closed.translate(step)
    return closed.count(ids[(1 << n) - 1])


def _minimal_subgroup_generators(G: ConcreteGroup) -> list[int]:
    """One prime-order element per minimal subgroup (indices)."""
    ar = G._arith
    seen: set[int] = set()
    reps = []
    for i in range(1, G.order):
        if is_prime(ar.orders[i]):
            orbit = _close_mask(ar, 1, i)
            if orbit not in seen:
                seen.add(orbit)
                reps.append(i)
    return reps


def count_free_functions(G: ConcreteGroup, t: int) -> int:
    """Number of functions G -> {1..t} with trivial stabilizer under the
    regular translation action.

    Enumerates all t^|G| functions as base-t digit strings, one digit per
    element, and tests each individually, one bit per function.  The low
    digits run through one block of at most ``chunk`` functions: for each
    low element x and value v, a mask marks the functions of the block whose
    value at x is v.  The high digits are constant across a block, so their
    masks are all ones or zero.  A function is fixed by g when its masks at
    x and x + g agree for every x.  A nontrivial stabilizer contains an
    element of prime order, so one generator per minimal subgroup suffices
    for the triviality test.
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
    chunk = 1 << 19
    low = 0  # digits 0..low-1 vary inside the block, the others across blocks
    while low < n and t ** (low + 1) <= chunk:
        low += 1
    block = t**low
    ones = (1 << block) - 1
    low_masks = []  # low_masks[x][v]: the functions of the block with value v at x
    for x in range(low):
        run = t**x  # function j has digit j // run % t at x
        row = []
        for v in range(t):
            pattern, width = ((1 << run) - 1) << (v * run), run * t
            while width < block:
                pattern |= pattern << width
                width *= 2
            row.append(pattern & ones)
        low_masks.append(row)
    free_total = 0
    for high in range(t ** (n - low)):
        masks = low_masks[:]
        for x in range(low, n):  # a high digit is constant across the block
            masks.append([ones if v == high % t else 0 for v in range(t)])
            high //= t
        fixed = 0
        for perm in perms:
            agree = ones
            for x in range(n):
                same = 0
                for a, b in zip(masks[x], masks[perm[x]]):
                    same |= a & b
                agree &= same
                if not agree:
                    break
            fixed |= agree
        free_total += block - fixed.bit_count()
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
    members = _member_indices(H)
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
    shifted = {}
    for g in outside:
        row = G.add_row(g)
        shifted[g] = [coset_of[row[r]] for r in reps]
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
    members = frozenset(_member_indices(H))
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
