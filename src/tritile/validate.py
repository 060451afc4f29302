"""Independent witness validators.

Everything here re-derives its verdict from edge membership and small brute
force, sharing no code with the solvers that produced the witness: copies are
re-checked against the definition, tilability by recursive partition, pair
weights by direct summation.  Keep it that way; these checks are the last
line of defense against a buggy search.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .core import KGraph

__all__ = [
    "check_copy",
    "check_tiling",
    "check_fractional",
    "check_certificate",
    "check_connector",
    "check_absorber",
    "check_matching",
    "check_rainbow",
    "brute_supports",
    "brute_perfectly_tilable",
]


def check_copy(H: KGraph, copy) -> bool:
    """Re-verify the base/apex/tail structure straight from the definition."""
    k = H.k
    base, apexes, tail = tuple(copy.base), tuple(copy.apexes), tuple(copy.tail)
    verts = base + apexes + tail
    if len(base) != k - 1 or len(apexes) != 2 or len(tail) != k - 2:
        return False
    if len(set(verts)) != 2 * k - 1:
        return False
    if min(verts) < 0 or max(verts) >= H.n:
        return False
    a, b = apexes
    e1 = tuple(sorted(base + (a,)))
    e2 = tuple(sorted(base + (b,)))
    spine = tuple(sorted(apexes + tail))
    return H.has_edge(e1) and H.has_edge(e2) and H.has_edge(spine)


def check_tiling(H: KGraph, tiling, require_perfect: bool = False) -> bool:
    seen: set[int] = set()
    for c in tiling.copies:
        if not check_copy(H, c):
            return False
        vs = set(c.vertices)
        if vs & seen:
            return False
        seen |= vs
    if require_perfect and seen != set(range(H.n)):
        return False
    return True


def check_fractional(H: KGraph, omega, require_perfect: bool = True) -> bool:
    for c, w in omega.weights.items():
        if w < 0 or not check_copy(H, c):
            return False
    for u in range(H.n):
        load = sum(
            (w for c, w in omega.weights.items() if u in c.vertices),
            start=Fraction(0),
        )
        if require_perfect:
            if load != 1:
                return False
        elif load > 1:
            return False
    return True


def brute_supports(H: KGraph, S: Sequence[int]) -> bool:
    """Does H[S] contain the pattern?  Tries every base/apex split."""
    S = tuple(sorted(S))
    k = H.k
    if len(S) != 2 * k - 1:
        return False
    for base in itertools.combinations(S, k - 1):
        rest = [v for v in S if v not in base]
        for a, b in itertools.combinations(rest, 2):
            spine = tuple(sorted(v for v in S if v not in base))
            if (
                H.has_edge(tuple(sorted(base + (a,))))
                and H.has_edge(tuple(sorted(base + (b,))))
                and H.has_edge(spine)
            ):
                return True
    return False


def brute_perfectly_tilable(H: KGraph, vertices: Iterable[int]) -> bool:
    """Recursive partition into supporting (2k-1)-sets; no solver reuse."""
    vs = tuple(sorted(set(vertices)))
    s = 2 * H.k - 1
    if len(vs) % s != 0:
        return False

    def rec(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        head, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, s - 1):
            block = (head,) + combo
            if brute_supports(H, block):
                left = tuple(v for v in rest if v not in combo)
                if rec(left):
                    return True
        return False

    return rec(vs)


def check_certificate(H: KGraph, cert) -> bool:
    """a.1 < 0 and a.1_S >= 0 on every pattern-supporting (2k-1)-set,
    with support decided by the brute checker."""
    coeffs = cert.coeffs
    if len(coeffs) != H.n:
        return False
    if sum(coeffs) >= 0:
        return False
    for S in itertools.combinations(range(H.n), 2 * H.k - 1):
        if brute_supports(H, S) and sum(coeffs[v] for v in S) < 0:
            return False
    return True


def check_connector(H: KGraph, S: Sequence[int], u: int, v: int, t: int = 1) -> bool:
    S = tuple(sorted(S))
    if u in S or v in S or u == v:
        return False
    if len(S) > (2 * H.k - 1) * t - 1:
        return False
    return brute_perfectly_tilable(H, S + (u,)) and brute_perfectly_tilable(H, S + (v,))


def check_absorber(H: KGraph, A: Sequence[int], S: Sequence[int], t: int = 1) -> bool:
    A = tuple(sorted(A))
    S = tuple(sorted(S))
    if set(A) & set(S):
        return False
    if len(A) > (2 * H.k - 1) ** 2 * t:
        return False
    return brute_perfectly_tilable(H, A) and brute_perfectly_tilable(H, A + S)


def check_matching(J: KGraph, edges: Sequence[Sequence[int]], universe=None) -> bool:
    """Disjoint edges of J covering the universe (defaults to all of V)."""
    seen: set[int] = set()
    for e in edges:
        t = tuple(sorted(e))
        if not J.has_edge(t):
            return False
        if seen & set(t):
            return False
        seen |= set(t)
    target = set(range(J.n)) if universe is None else set(universe)
    return seen == target


def check_rainbow(family, rainbow) -> bool:
    """Host membership per slot, bijectivity, and the tiling structure."""
    hosts = family.hosts
    tiling = rainbow.tiling
    union = family.union()
    if not check_tiling(union, tiling, require_perfect=True):
        return False
    slots = rainbow.slots()
    assignment = rainbow.assignment
    if len(assignment) != len(hosts) or len(slots) != len(hosts):
        return False
    if sorted(assignment) != list(range(len(hosts))):
        return False
    for e, h in zip(slots, assignment):
        if not hosts[h].has_edge(e):
            return False
    return True
