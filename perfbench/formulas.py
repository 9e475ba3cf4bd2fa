"""Closed forms that check finabel's answers without using finabel.

Everything here works on plain integers and on group types written as
invariant-factor strings ("2,2,4"; "1" is the trivial group).  Where a
classical formula exists for a query, :func:`formula_value` returns the
answer in the same string form the benchmark records; otherwise it returns
None and the stored seed answer is the only reference.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, prod

Partitions = dict[int, tuple[int, ...]]  # prime -> exponents, descending


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Descending partitions of n."""
    if n == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return tuple(out)


def type_string(parts: Partitions) -> str:
    depth = max((len(lam) for lam in parts.values()), default=0)
    factors = [
        prod(p**lam[i] for p, lam in parts.items() if i < len(lam)) for i in range(depth)
    ]
    return ",".join(str(d) for d in reversed(factors)) or "1"


def parse_type(text: str) -> Partitions:
    exps: dict[int, list[int]] = {}
    for d in (int(x) for x in text.split(",")):
        for p, e in factorize(d).items():
            exps.setdefault(p, []).append(e)
    return {p: tuple(sorted(es, reverse=True)) for p, es in sorted(exps.items())}


def order_of(text: str) -> int:
    return prod(int(x) for x in text.split(","))


def types_of_order(n: int) -> list[str]:
    per_prime = [[(p, lam) for lam in partitions(e)] for p, e in factorize(n).items()]
    return [type_string(dict(combo)) for combo in itertools.product(*per_prime)]


def types_up_to(n: int) -> list[str]:
    return [t for k in range(1, n + 1) for t in types_of_order(k)]


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def moebius(n: int) -> int:
    f = factorize(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def totient(n: int) -> int:
    return prod(p ** (e - 1) * (p - 1) for p, e in factorize(n).items())


def gaussian(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if not 0 <= k <= n:
        return 0
    num = prod(p**n - p**i for i in range(k))
    den = prod(p**k - p**i for i in range(k))
    return num // den


def gl_order(n: int, p: int) -> int:
    return prod(p**n - p**i for i in range(n))


def cyclic_order(text: str) -> int | None:
    """n when the type is Z_n (the trivial group is Z_1), else None."""
    return None if "," in text else int(text)


def elementary(text: str) -> tuple[int, int] | None:
    """(p, n) when the type is F_p^n with n >= 1, else None."""
    parts = parse_type(text)
    if len(parts) != 1:
        return None
    (p, lam), = parts.items()
    return (p, len(lam)) if set(lam) == {1} else None


def elementary_string(p: int, n: int) -> str:
    return ",".join([str(p)] * n)


def hom_count(a: str, b: str) -> int:
    """|Hom(A, B)| = prod over p of p^(sum of min(lambda_i, mu_j))."""
    pa, pb = parse_type(a), parse_type(b)
    return prod(
        p ** sum(min(x, y) for x in lam for y in pb[p])
        for p, lam in pa.items()
        if p in pb
    )


def aut_count(text: str) -> int:
    """|Aut| of an abelian group, per p-part by the Hillar-Rhea formula."""
    out = 1
    for p, lam in parse_type(text).items():
        e = sorted(lam)  # ascending, 1-based below
        k = len(e)
        for j in range(1, k + 1):
            d = max(l for l in range(1, k + 1) if e[l - 1] == e[j - 1])
            c = min(l for l in range(1, k + 1) if e[l - 1] == e[j - 1])
            out *= (p**d - p ** (j - 1)) * p ** (e[j - 1] * (k - d))
            out *= p ** ((e[j - 1] - 1) * (k - c + 1))
    return out


def generating_tuples(text: str, t: int) -> int:
    """Ordered t-tuples generating G: |G|^t prod_p prod_{i<rank_p} (1 - p^(i-t))."""
    out = order_of(text) ** t
    for p, lam in parse_type(text).items():
        for i in range(len(lam)):
            out = out * (p**t - p**i) // p**t
    return out


def primitive_words(n: int, t: int) -> int:
    """nt:t on Z_n: sum over d | n of mu(d) t^(n/d)."""
    return sum(moebius(d) * t ** (n // d) for d in divisors(n))


def _profile_string(counts: dict[int, int]) -> str:
    return " ".join(f"{d}:{c}" for d, c in sorted(counts.items()))


def _elementary_value(kind: str, p: int, n: int) -> int | str | None:
    if kind == "aut":
        return gl_order(n, p)
    if kind == "f:nsub":
        return sum(gaussian(n, k, p) for k in range(n + 1))
    if kind == "profile":
        return _profile_string({p**k: gaussian(n, k, p) for k in range(n + 1)})
    if kind in ("inv", "f:mu"):
        return (-1) ** n * p ** comb(n, 2)
    if kind.startswith("f:nt:"):
        t = int(kind[5:])
        return sum(
            (-1) ** k * p ** comb(k, 2) * gaussian(n, k, p) * t ** (p ** (n - k))
            for k in range(n + 1)
        )
    return None


def _cyclic_value(kind: str, n: int) -> int | str | None:
    if kind == "aut":
        return totient(n)
    if kind == "f:nsub":
        return len(divisors(n))
    if kind == "profile":
        return _profile_string({d: 1 for d in divisors(n)})
    if kind in ("inv", "f:mu"):
        return moebius(n)
    if kind.startswith("f:nt:"):
        return primitive_words(n, int(kind[5:]))
    return None


def _sub_value(b: str, a: str) -> int | None:
    """Subgroups of A of type B, where A is cyclic or elementary."""
    if order_of(a) % order_of(b):
        return 0
    n = cyclic_order(a)
    if n is not None:
        return 1 if cyclic_order(b) is not None else 0
    ea = elementary(a)
    if ea is not None:
        p, dim = ea
        if b == "1":
            return 1
        eb = elementary(b)
        return gaussian(dim, eb[1], p) if eb is not None and eb[0] == p else 0
    return None


def formula_value(key: str) -> str | None:
    """Independent answer for a query key "kind|T" or "sub|B|A", or None."""
    kind, _, rest = key.partition("|")
    if kind == "hom":
        value = hom_count(*rest.split("|"))
    elif kind == "sub":
        value = _sub_value(*rest.split("|"))
    elif kind == "f:phi":  # generators of G: the 1-tuples that generate it
        value = generating_tuples(rest, 1)
    elif kind.startswith("f:gentuples:"):
        value = generating_tuples(rest, int(kind.split(":")[2]))
    elif (n := cyclic_order(rest)) is not None:
        value = _cyclic_value(kind, n)
    elif (ep := elementary(rest)) is not None:
        value = _elementary_value(kind, *ep)
    elif kind == "aut":
        value = aut_count(rest)
    else:
        value = None
    return None if value is None else str(value)
