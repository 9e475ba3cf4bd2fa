"""Generating the symmetric group of an abelian group from transpositions.

The group G embeds into Sym(G) by translations (Cayley embedding; elements
are enumerated in lexicographic tuple order).  For transpositions
tau_i = (x_i y_i), the subgroup generated by the translations together with
the tau_i is all of Sym(G) exactly when the differences y_i - x_i generate
G.  That is decided by one Smith form, with no element listed: the
differences generate G exactly when the quotient of G by their span has no
invariant factor (:func:`finabel.lattice._cokernel`).  The machinery behind
the criterion is implemented directly too: the interstice subgroup of a set
of transpositions (the element-level route, kept as a check), and the group
O(H) of isometries modulo a subgroup H (permutations moving every point by
the same coset), whose order is (h!)^(g/h) * g / h.

Groups of order at most 2 are rejected: the criterion is false there.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .grouptype import _frozen
from .lattice import (
    ConcreteGroup,
    Subgroup,
    _cokernel,
    _member_indices,
    _translate,
    generated_subgroup,
)

__all__ = [
    "Transposition",
    "Permutation",
    "interstice_subgroup",
    "generates_full_symmetric",
    "cycle_transposition_generates",
    "is_isometry_mod_H",
    "isometry_constant",
    "isometry_group_order",
]


class Transposition:
    """An unordered pair of distinct group elements, as a transposition:
    ``Transposition(x, y) == Transposition(y, x)``."""

    __slots__ = ("x", "y")

    def __init__(self, x: tuple[int, ...], y: tuple[int, ...]) -> None:
        if x == y:
            raise ValueError(f"transposition endpoints must differ, got {x}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return {self.x, self.y} == {other.x, other.y}

    def __hash__(self) -> int:
        return hash(frozenset((self.x, self.y)))

    def __repr__(self) -> str:
        return f"Transposition(x={self.x!r}, y={self.y!r})"

    def __reduce__(self) -> tuple:
        return Transposition, (self.x, self.y)


class Permutation:
    """A bijection of a concrete group's element list.

    ``images[i]`` is the index of the image of element i in the canonical
    (lexicographic) element order.
    """

    __slots__ = ("group", "images")

    def __init__(self, group: ConcreteGroup, images: Sequence[int]):
        imgs = tuple(images)
        n = group.order
        if len(imgs) != n or sorted(imgs) != list(range(n)):
            raise ValueError("images do not describe a bijection of the group")
        self.group = group
        self.images = imgs

    @classmethod
    def identity(cls, group: ConcreteGroup) -> "Permutation":
        return cls(group, range(group.order))

    @classmethod
    def translation(cls, group: ConcreteGroup, g: tuple[int, ...]) -> "Permutation":
        """x -> x + g."""
        return cls(group, group.add_row(group.index_of(g)))

    @classmethod
    def transposition(
        cls, group: ConcreteGroup, x: tuple[int, ...], y: tuple[int, ...]
    ) -> "Permutation":
        i, j = group.index_of(x), group.index_of(y)
        if i == j:
            raise ValueError(f"transposition endpoints must differ, got {x}")
        images = list(range(group.order))
        images[i], images[j] = j, i
        return cls(group, images)

    def apply(self, g: tuple[int, ...]) -> tuple[int, ...]:
        return self.group.element_at(self.images[self.group.index_of(g)])

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(x) = self(other(x))."""
        if self.group != other.group:
            raise ValueError("permutations act on different groups")
        mine = self.images
        return Permutation(self.group, tuple(mine[i] for i in other.images))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(self.group, inv)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Permutation)
            and self.group == other.group
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.group.moduli, self.images))

    def __repr__(self) -> str:
        return f"<Permutation of Z_{self.group.moduli}: {self.images}>"


def _require_usable_order(G: ConcreteGroup) -> None:
    if G.order < 3:
        raise ValueError(
            f"group of order {G.order} not supported: the transposition"
            " criterion needs at least 3 elements"
        )


def _differences(
    G: ConcreteGroup, taus: Iterable[Transposition]
) -> list[tuple[int, ...]]:
    _require_usable_order(G)
    return [G.sub(tau.y, tau.x) for tau in taus]


def interstice_subgroup(
    G: ConcreteGroup, taus: Iterable[Transposition]
) -> Subgroup:
    """Subgroup generated by the differences y_i - x_i of the transpositions;
    equals the interstice subgroup of the Cayley subgroup they generate."""
    return generated_subgroup(G, _differences(G, taus))


def generates_full_symmetric(
    G: ConcreteGroup, taus: Iterable[Transposition]
) -> bool:
    """True iff translations plus the given transpositions generate Sym(G):
    the quotient of G by the differences has no invariant factor."""
    return not _cokernel(G.moduli, _differences(G, taus))


def cycle_transposition_generates(n: int, i: int, j: int) -> bool:
    """Do the n-cycle and the transposition (i j) generate Sym(n)?
    True iff gcd(n, j - i) = 1."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if (i - j) % n == 0:
        raise ValueError(f"transposition endpoints coincide mod {n}")
    return math.gcd(n, j - i) == 1


def _difference_indices(G: ConcreteGroup, sigma: Permutation) -> list[int]:
    """Indices of sigma(x) - x for every x, one pass per coordinate."""
    ar = G._arith
    out = [0] * ar.n
    for m, s in zip(ar.moduli, ar.strides):
        digit = [i // s % m for i in range(ar.n)]
        out = [o + (digit[j] - d) % m * s for o, d, j in zip(out, digit, sigma.images)]
    return out


def _isometry_coset(G: ConcreteGroup, H: Subgroup, sigma: Permutation) -> int | None:
    """The mask of the coset sigma(e_0) - e_0 + H when every difference
    sigma(x) - x falls in it, else None."""
    if H.parent != G or sigma.group != G:
        raise ValueError("group, subgroup and permutation must match")
    diffs = _difference_indices(G, sigma)
    members = sum(1 << i for i in _member_indices(H))
    coset = _translate(members, G._arith.shifts(diffs[0]))
    if all(coset >> d & 1 for d in diffs):
        return coset
    return None


def is_isometry_mod_H(G: ConcreteGroup, H: Subgroup, sigma: Permutation) -> bool:
    """True iff sigma(x) - sigma(y) = x - y mod H for all x, y; equivalently
    all differences sigma(x) - x fall in a single coset of H."""
    return _isometry_coset(G, H, sigma) is not None


def isometry_constant(
    G: ConcreteGroup, H: Subgroup, sigma: Permutation
) -> tuple[int, ...]:
    """The common coset of sigma(x) - x, as its minimal representative.

    Raises ValueError when sigma is not an isometry modulo H.  The map
    sigma -> constant is a homomorphism onto G/H.
    """
    coset = _isometry_coset(G, H, sigma)
    if coset is None:
        raise ValueError("permutation is not an isometry modulo the subgroup")
    return G._arith.elements[(coset & -coset).bit_length() - 1]


def isometry_group_order(g: int, h: int) -> int:
    """|O(H)| = (h!)^(g/h) * g / h for |G| = g, |H| = h (needs h | g)."""
    if h < 1 or g < 1 or g % h:
        raise ValueError(f"need h | g with h >= 1, got g={g}, h={h}")
    return math.factorial(h) ** (g // h) * g // h
