"""Generators for the toolkit's explicit objects.

The extremal instance (all k-sets meeting a small side A), the clone-blowup
used for divisibility reduction, a deterministic seeded generator of graphs
with a prescribed minimum codegree, and the componentwise domination order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import KGraph, canonical_vertex_set
from .errors import (
    DivisibilityError,
    GenerationFailed,
    InvalidArity,
    InvalidUniformity,
)

_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class ExtremalInstance:
    graph: KGraph
    A: tuple[int, ...]
    B: tuple[int, ...]


def extremal_construction(k: int, n: int) -> ExtremalInstance:
    """The tight example: A of size 2n/(2k-1) - 1 first, B the rest, and a
    k-set is an edge exactly when it meets A."""
    if k < 3:
        raise InvalidUniformity(f"k={k} must be at least 3")
    if n < 2 * k - 1 or n % (2 * k - 1) != 0:
        raise DivisibilityError(f"n={n} must be a positive multiple of {2 * k - 1}")
    a_size = 2 * n // (2 * k - 1) - 1
    A = tuple(range(a_size))
    B = tuple(range(a_size, n))
    edges = [
        e for e in itertools.combinations(range(n), k) if e[0] < a_size
    ]  # sorted edges meet A iff their least vertex lies in A
    return ExtremalInstance(KGraph(n, k, edges), A, B)


def augmented_blowup(
    H: KGraph, B: KGraph, guard: int = 12
) -> tuple[KGraph, KGraph]:
    """Clone blowup for divisibility reduction.

    Every vertex u becomes 2k-1 clones u*(2k-1)..u*(2k-1)+2k-2.  H' keeps all
    transversal images of E(H) plus every k-set of clones repeating some
    original vertex; B' joins clone pairs and images of E(B).
    """
    if B.k != 2 or B.n != H.n:
        raise InvalidArity("B must be a 2-uniform graph on V(H)")
    if H.n > guard:
        raise GenerationFailed(
            f"n={H.n} exceeds the blowup guard {guard}; "
            f"|V'|=(2k-1)n edge counts explode beyond it"
        )
    k = H.k
    r = 2 * k - 1
    n_prime = r * H.n

    def original(x: int) -> int:
        return x // r

    edges = []
    for combo in itertools.combinations(range(n_prime), k):
        originals = [original(x) for x in combo]
        distinct = set(originals)
        if len(distinct) < k:
            edges.append(combo)
        elif H.has_edge(tuple(sorted(distinct))):
            edges.append(combo)
    H_prime = KGraph(n_prime, k, edges)

    b_edges = []
    for u in range(H.n):
        for i, j in itertools.combinations(range(r), 2):
            b_edges.append((u * r + i, u * r + j))
    for u, v in B.edges:
        for i in range(r):
            for j in range(r):
                b_edges.append(tuple(sorted((u * r + i, v * r + j))))
    B_prime = KGraph(n_prime, 2, b_edges)
    return H_prime, B_prime


def clone_classes(n: int, k: int) -> list[tuple[int, ...]]:
    """Clone classes of the augmented blowup, one per original vertex."""
    r = 2 * k - 1
    return [tuple(range(u * r, (u + 1) * r)) for u in range(n)]


class SplitMix64:
    """Deterministic 64-bit splittable mix generator.

    state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    output z ^ (z >> 31).  All arithmetic mod 2^64.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def random_with_codegree(n: int, k: int, delta_target: int, seed: int) -> KGraph:
    """Seeded graph with minimum codegree at least ``delta_target``.

    One pass over all (k-1)-sets in lexicographic order; while one is
    deficient, add a uniformly random completing edge (SplitMix64 stream).
    Each set reaches the target when the pass reaches it, and adding edges
    never lowers a codegree, so one pass is enough.
    """
    if delta_target > n - k + 1:
        raise GenerationFailed(
            f"target {delta_target} exceeds the maximum codegree {n - k + 1}"
        )
    rng = SplitMix64(seed)
    edges: set[tuple[int, ...]] = set()
    nbr_count: dict[tuple[int, ...], set[int]] = {}

    def add_edge(e: tuple[int, ...]) -> None:
        edges.add(e)
        for i in range(k):
            s = e[:i] + e[i + 1:]
            nbr_count.setdefault(s, set()).add(e[i])

    for s in itertools.combinations(range(n), k - 1):
        have = nbr_count.setdefault(s, set())
        while len(have) < delta_target:
            candidates = [v for v in range(n) if v not in s and v not in have]
            v = candidates[rng.below(len(candidates))]
            add_edge(tuple(sorted(s + (v,))))
    return KGraph(n, k, edges)


def dominates(U, W) -> bool:
    """Componentwise order on equal-size ascending vertex tuples: w_i <= u_i."""
    u = tuple(U)
    w = tuple(W)
    if len(u) != len(w):
        raise InvalidArity(f"size mismatch {len(u)} vs {len(w)}")
    if list(u) != sorted(set(u)) or list(w) != sorted(set(w)):
        raise InvalidArity("inputs must be strictly ascending vertex tuples")
    return all(wi <= ui for ui, wi in zip(u, w))


def validate_extremal(instance: ExtremalInstance) -> bool:
    """No edge inside B; every k-set meeting A present (exhaustive)."""
    H = instance.graph
    a_set = set(instance.A)
    if canonical_vertex_set(instance.A + instance.B) != tuple(range(H.n)):
        return False
    for e in itertools.combinations(range(H.n), H.k):
        meets = any(v in a_set for v in e)
        if meets != H.has_edge(e):
            return False
    return True
