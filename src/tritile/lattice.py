"""Finite-n absorption machinery.

Index vectors over a vertex partition, robustness of copy families against
vertex deletion (via exact transversal or packing certificates), integer
lattice membership with reconstructible coefficients, transferrals,
connectors, reachability, absorbers, and the completeness/monochromaticity
predicates used by the merging arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb
from operator import or_
from typing import Iterable, Optional, Sequence

from .core import KGraph, _check_range, _mask, canonical_vertex_set
from .errors import (
    BudgetExceeded,
    EmptyGraph,
    InvalidColoring,
    InvalidDimension,
    InvalidEdgeProfile,
    InvalidVertex,
)
from .exact import DEFAULT_NODE_BUDGET, _CoverSearch, _disjoint_rows
from .patterns import _mask_vertices, _picked, _row_bits, _set_index, _SetIndex

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class VertexPartition:
    """Ordered partition of 0..n-1 into nonempty blocks; order is identity."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(canonical_vertex_set(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        flat = [v for b in blocks for v in b]
        if any(not b for b in blocks):
            raise InvalidVertex("empty block")
        if len(flat) != len(set(flat)):
            raise InvalidVertex("blocks overlap")
        if sorted(flat) != list(range(len(flat))):
            raise InvalidVertex("blocks must cover 0..n-1 exactly")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def r(self) -> int:
        return len(self.blocks)


def index_vector(P: VertexPartition, S: Iterable[int]) -> tuple[int, ...]:
    """Blockwise intersection sizes of S."""
    S = _check_range(canonical_vertex_set(S), P.n)
    out = [0] * P.r
    lookup = {}
    for i, b in enumerate(P.blocks):
        for v in b:
            lookup[v] = i
    for v in S:
        out[lookup[v]] += 1
    return tuple(out)


# -- integer lattice with coefficient tracking --------------------------------


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


class IntegerLattice:
    """Integer span of generator vectors, kept as a row-echelon basis.

    Every basis row is augmented: its ``dim`` entries are followed by its
    expression in the original generators (entries past the row's end are
    zero), so a positive membership answer can return reconstructible
    coefficients.
    """

    def __init__(self, dim: int, generators: Sequence[Sequence[int]] = ()):
        self.dim = dim
        self.generators: list[tuple[int, ...]] = []
        self.rows: list[list[int]] = []  # augmented echelon rows, sorted by pivot column
        for g in generators:
            self.add_generator(g)

    def _pivot(self, row: list[int]) -> int:
        for j in range(self.dim):
            if row[j]:
                return j
        return self.dim

    def _vector(self, vec: Sequence[int]) -> list[int]:
        """``vec`` as a list of ints; InvalidDimension unless it has ``dim``
        entries, each an integer (``int(x) == x``)."""
        vec = list(vec)
        out = [int(x) for x in vec]
        if len(out) != self.dim:
            raise InvalidDimension(f"vector of length {len(out)}, lattice dim {self.dim}")
        for x, y in zip(vec, out):
            if x != y:
                raise InvalidDimension(f"entry {x!r} is not an integer")
        return out

    def add_generator(self, vec: Sequence[int]) -> None:
        vec = self._vector(vec)
        self.generators.append(tuple(vec))
        self._insert(vec + [0] * (len(self.generators) - 1) + [1])

    def _insert(self, v: list[int]) -> None:
        # v is never shorter than a stored row: it spans every generator.
        i = 0
        while True:
            j = self._pivot(v)
            if j == self.dim:
                return
            while i < len(self.rows) and self._pivot(self.rows[i]) < j:
                i += 1
            if i == len(self.rows) or self._pivot(self.rows[i]) > j:
                if v[j] < 0:
                    v = [-x for x in v]
                self.rows.insert(i, v)
                return
            row = self.rows[i]
            a, b = row[j], v[j]
            pairs = list(itertools.zip_longest(row, v, fillvalue=0))
            if b % a == 0:
                q = b // a
                v = [w - q * r for r, w in pairs]
            else:
                g, x, y = _ext_gcd(a, b)
                self.rows[i] = [x * r + y * w for r, w in pairs]
                v = [(a // g) * w - (b // g) * r for r, w in pairs]

    def express(self, vec: Sequence[int]) -> Optional[list[int]]:
        """Coefficients over the original generators, or None if outside."""
        v = self._vector(vec)
        acc = [0] * len(self.generators)
        for row in self.rows:
            j = self._pivot(row)
            if v[j] == 0:
                continue
            if v[j] % row[j] != 0:
                return None
            q = v[j] // row[j]
            v = [x - q * y for x, y in zip(v, row)]
            for t, c in enumerate(row[self.dim:]):
                if c:
                    acc[t] += q * c
        if any(v):
            return None
        return acc

    def __contains__(self, vec) -> bool:
        return self.express(vec) is not None


# -- robust vectors and transferrals ------------------------------------------


@dataclass(frozen=True)
class RobustnessReport:
    vector: tuple[int, ...]
    status: str  # "robust" | "not-robust" | "unknown"
    mode: str  # "exact" | "packing-bound"
    value: int  # exact tau when not robust; certified bound otherwise
    removable: int  # floor(beta n): the W budget the family must survive


def _min_hit_decision(
    family: list[int], limit: int, budget: int, hits: Optional[dict[int, int]] = None
) -> Optional[list[int]]:
    """Hitting set of <= limit vertices over a family of vertex masks, or
    None.

    Depth first: a node branches on the vertices of the first member not
    yet hit, ascending.  Member i is bit i of each vertex's bitset, so a
    branch drops the members its vertex hits with one AND.  ``hits`` gives
    those bitsets for every vertex of the family; by default they are the
    family's transposition.
    """
    if hits is None:
        hits = _row_bits(family, _mask_vertices(reduce(or_, family, 0)))
    nodes = 0

    def rec(alive: int, depth: int, chosen: list[int]) -> Optional[list[int]]:
        nonlocal nodes
        if not alive:
            return list(chosen)
        if depth == limit:
            return None
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"hitting-set search exceeded {budget} nodes")
        for v in _mask_vertices(family[(alive & -alive).bit_length() - 1]):
            chosen.append(v)
            found = rec(alive & ~hits[v], depth + 1, chosen)
            if found is not None:
                return found
            chosen.pop()
        return None

    return rec((1 << len(family)) - 1, 0, [])


def _families(
    index: _SetIndex, blocks: Sequence[Sequence[int]], s: int
) -> list[tuple[tuple[int, ...], int]]:
    """The index's rows grouped by index vector over ``blocks``: one
    (vector, row bitset) per achieved vector, ascending.

    Each block but the last adds its vertices' row bitsets into bit-sliced
    counters, plane i holding bit i of every row's count in the block, and
    every family splits by that count; a row has s vertices, so its last
    entry is what the others leave."""
    bits = index.vertex_bits()
    full = (1 << len(index)) - 1
    families = [((), full)] if full else []
    for block in blocks[:-1]:
        top = min(s, len(block))
        planes = [0] * top.bit_length()
        for v in block:
            carry = bits[v]
            for i in range(len(planes)):
                plane = planes[i]
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
        counts = []  # counts[c]: the rows with c vertices in the block
        for c in range(top + 1):
            rows = full
            for i, plane in enumerate(planes):
                rows &= plane if c >> i & 1 else ~plane
            counts.append(rows)
        families = [
            (vec + (c,), picked)
            for vec, rows in families
            for c, at in enumerate(counts)
            if (picked := rows & at)
        ]
    return [(vec + (s - sum(vec),), rows) for vec, rows in families]


def robust_vectors(
    H: KGraph,
    P: VertexPartition,
    beta: Fraction,
    *,
    mode: str = "exact",
    budget: int = DEFAULT_NODE_BUDGET,
) -> dict[tuple[int, ...], RobustnessReport]:
    """Robustness of every achieved index vector of copy vertex sets.

    A vector is robust when no set W of at most floor(beta n) vertices meets
    every copy with that vector, i.e. the family's transversal number exceeds
    floor(beta n).  Exact mode decides that by bounded hitting-set search;
    packing-bound mode certifies robustness from floor(beta n)+1 disjoint
    copies and answers unknown otherwise.  A search that blows its budget,
    the shrink of a not-robust vector's transversal number included, leaves
    the vector unknown.  beta must be nonnegative, and P must partition the
    host's n vertices.
    """
    if mode not in ("exact", "packing-bound"):
        raise ValueError(f"unknown mode {mode!r}")
    beta = Fraction(beta)
    if beta < 0:
        raise InvalidDimension("beta must be nonnegative")
    if P.n != H.n:
        raise InvalidDimension(f"partition has {P.n} vertices, host has {H.n}")
    m = int(beta * H.n)
    index = _set_index(H)
    families = [
        (vec, list(_picked(index.masks, rows)))
        for vec, rows in _families(index, P.blocks, 2 * H.k - 1)
    ]
    if mode == "exact":
        # every family's member bitsets, from one transposition of all the
        # families' masks laid end to end
        columns = _row_bits([mask for _, fam in families for mask in fam], range(H.n))
    start = 0
    out = {}
    for vec, fam in families:
        status, value = UNKNOWN, 0
        try:
            if mode == "exact":
                width = (1 << len(fam)) - 1
                hits = {v: column >> start & width for v, column in columns.items()}
                start += len(fam)
                hit = _min_hit_decision(fam, m, budget, hits)
                if hit is None:
                    status, value = "robust", m + 1
                else:
                    # shrink to the true transversal number for the report
                    value = len(hit)
                    for limit in range(len(hit)):
                        if _min_hit_decision(fam, limit, budget, hits) is not None:
                            value = limit
                            break
                    status = "not-robust"
            elif _disjoint_rows(fam, m + 1, budget) is not None:
                status, value = "robust", m + 1
        except BudgetExceeded:
            status, value = UNKNOWN, 0
        out[vec] = RobustnessReport(vec, status, mode, value, m)
    return out


@dataclass(frozen=True)
class TransferralReport:
    found: bool
    i: int
    j: int
    combination: Optional[dict]  # robust vector -> integer coefficient
    unknown_vectors: tuple[tuple[int, ...], ...]


def has_transferral(
    H: KGraph,
    P: VertexPartition,
    beta: Fraction,
    i: int,
    j: int,
    *,
    mode: str = "exact",
) -> TransferralReport:
    """Is u_i - u_j in the lattice spanned by the robust index vectors?"""
    if i == j or not (0 <= i < P.r and 0 <= j < P.r):
        raise InvalidDimension(f"invalid block indices {i}, {j}")
    return _transferral(robust_vectors(H, P, beta, mode=mode), P.r, i, j)


def _transferral(
    reports: dict[tuple[int, ...], RobustnessReport], r: int, i: int, j: int
) -> TransferralReport:
    """Lattice-membership step of ``has_transferral`` on computed reports."""
    robust = [v for v, rep in sorted(reports.items()) if rep.status == "robust"]
    unknown = tuple(v for v, rep in sorted(reports.items()) if rep.status == UNKNOWN)
    L = IntegerLattice(r, robust)
    target = [0] * r
    target[i] = 1
    target[j] = -1
    coeffs = L.express(target)
    if coeffs is None:
        return TransferralReport(False, i, j, None, unknown)
    combo = {g: c for g, c in zip(robust, coeffs) if c}
    return TransferralReport(True, i, j, combo, unknown)


# -- connectors, reachability, absorbers --------------------------------------


_TILE_BUDGET = 200_000  # cover-search nodes per perfectly_tilable check
_SEARCH_BUDGET = 500_000  # candidate sets per connector or absorber search


def perfectly_tilable(H: KGraph, vertices: Sequence[int], budget: int = _TILE_BUDGET) -> bool:
    """Does H restricted to ``vertices`` admit a perfect tiling?

    Exact cover of ``vertices`` by the host's supporting sets inside them,
    taken in their canonical order from the host's shared index.  A vertex
    outside 0..n-1 raises InvalidVertex.
    """
    vs = _check_range(canonical_vertex_set(vertices), H.n)
    s = 2 * H.k - 1
    if len(vs) % s != 0:
        return False
    if len(vs) == 0:
        return True
    return _tilable(_set_index(H), s, _mask(vs), budget)


def _tilable(index: _SetIndex, s: int, mask: int, budget: int = _TILE_BUDGET) -> bool:
    """``perfectly_tilable`` on the vertex mask ``mask`` of a nonempty
    multiple of s vertices inside the host of ``index``, whose pattern has s
    vertices."""
    if mask.bit_count() == s:
        return index.contains(mask)
    live = index.bits_inside(mask)
    if not any(live.values()):
        return False
    return _CoverSearch(live, index.masks, budget).run() is not None


def _check_t(t: int) -> None:
    """Raise InvalidDimension unless the size factor t is at least 1."""
    if t < 1:
        raise InvalidDimension(f"t must be at least 1, got {t}")


def _both_tilable(H: KGraph, blocked: set, sizes, ends, budget: int, what: str):
    """Every set C avoiding ``blocked`` with C plus each of the two ``ends``
    perfectly tilable, smallest first through the increasing ``sizes``.
    Raises BudgetExceeded, naming the ``what`` search, once more than
    ``budget`` candidates have been tried.

    Each candidate comes with its vertex mask, the sum of its vertices'
    bits taken from a second combinations stream in step with the first."""
    pool = [w for w in range(H.n) if w not in blocked]
    bits = [1 << w for w in pool]
    first, second = map(_mask, ends)
    s = 2 * H.k - 1
    tried = 0
    for size in sizes:
        if size > len(pool):
            break
        index = _set_index(H)  # built only once a candidate exists
        masks = map(sum, itertools.combinations(bits, size))
        for C, mask in zip(itertools.combinations(pool, size), masks):
            tried += 1
            if tried > budget:
                raise BudgetExceeded(f"{what} search exceeded {budget} candidates")
            if _tilable(index, s, mask | first) and _tilable(index, s, mask | second):
                yield C


def _connectors(H: KGraph, u: int, v: int, t: int, blocked: set, budget: int):
    """Every set S with both S+{u} and S+{v} perfectly tilable, smallest
    first: |S| = (2k-1)q - 1 for q = 1..t, S avoids ``blocked``."""
    s = 2 * H.k - 1
    sizes = range(s - 1, t * s, s)
    return _both_tilable(H, blocked, sizes, ((u,), (v,)), budget, "connector")


def find_connector(
    H: KGraph,
    u: int,
    v: int,
    *,
    t: int = 1,
    forbidden: Iterable[int] = (),
    budget: int = _SEARCH_BUDGET,
) -> Optional[tuple[int, ...]]:
    """Smallest-first search for a set S with both S+{u} and S+{v} perfectly
    tilable; |S| <= (2k-1)t - 1 and S avoids ``forbidden``.  t must be at
    least 1, and a forbidden vertex outside 0..n-1 raises InvalidVertex."""
    _check_t(t)
    if u == v:
        raise InvalidVertex("connector endpoints must differ")
    _check_range(sorted((u, v)), H.n)
    forbidden = _check_range(canonical_vertex_set(forbidden), H.n)
    return next(_connectors(H, u, v, t, set(forbidden) | {u, v}, budget), None)


def reachable(
    H: KGraph,
    u: int,
    v: int,
    m: int,
    *,
    t: int = 1,
    mode: str = "certificate",
    budget: int = _SEARCH_BUDGET,
) -> str:
    """Can u and v be connected while avoiding any m vertices?

    Certificate mode finds m+1 pairwise disjoint connectors (sound; answers
    unknown when it finds fewer).  Exact mode enumerates the whole connector
    family and decides whether some m vertices meet it entirely (small hosts
    only).  In both modes u and v must differ, and a search that exceeds
    ``budget`` raises BudgetExceeded.
    """
    if m < 0:
        raise InvalidDimension("m must be nonnegative")
    _check_t(t)
    if u == v:
        raise InvalidVertex("connector endpoints must differ")
    _check_range(sorted((u, v)), H.n)
    if mode == "certificate":
        used: set[int] = set()
        found = 0
        while found < m + 1:
            S = find_connector(H, u, v, t=t, forbidden=used, budget=budget)
            if S is None:
                return UNKNOWN
            used.update(S)
            found += 1
        return YES
    if mode == "exact":
        family = list(_connectors(H, u, v, t, {u, v}, budget))
        # an empty family is hit by the empty set: NO
        hit = _min_hit_decision(list(map(_mask, family)), m, budget)
        return NO if hit is not None else YES
    raise ValueError(f"unknown mode {mode!r}")


def is_closed(
    H: KGraph,
    U: Sequence[int],
    m: int,
    *,
    t: int = 1,
    mode: str = "certificate",
    budget: int = _SEARCH_BUDGET,
) -> tuple[str, Optional[tuple[int, int]]]:
    """Pairwise reachability over U; returns the verdict and the first
    failing (or first unknown) pair.  Unknown means certificate mode found
    too few disjoint connectors; a blown budget raises BudgetExceeded."""
    _check_t(t)
    U = canonical_vertex_set(U)
    first_unknown = None
    for u, v in itertools.combinations(U, 2):
        verdict = reachable(H, u, v, m, t=t, mode=mode, budget=budget)
        if verdict == NO:
            return NO, (u, v)
        if verdict == UNKNOWN and first_unknown is None:
            first_unknown = (u, v)
    if first_unknown is not None:
        return UNKNOWN, first_unknown
    return YES, None


def find_absorber(
    H: KGraph,
    S: Sequence[int],
    *,
    t: int = 1,
    forbidden: Iterable[int] = (),
    budget: int = _SEARCH_BUDGET,
) -> Optional[tuple[int, ...]]:
    """Smallest-first search for A with H[A] and H[A+S] perfectly tilable,
    |A| <= (2k-1)^2 t, A disjoint from S and ``forbidden``; t >= 1, and a
    forbidden vertex outside 0..n-1 raises InvalidVertex."""
    _check_t(t)
    s = 2 * H.k - 1
    S = canonical_vertex_set(S)
    if len(S) != s:
        raise InvalidVertex(f"absorber target must have {s} vertices")
    _check_range(S, H.n)
    forbidden = _check_range(canonical_vertex_set(forbidden), H.n)
    sizes = range(s, s * s * t + 1, s)  # q(2k-1) for q = 1..(2k-1)t
    blocked = set(forbidden) | set(S)
    return next(_both_tilable(H, blocked, sizes, ((), S), budget, "absorber"), None)


# -- density and coloring predicates -------------------------------------------


def x_density(H: KGraph, P: VertexPartition, x: Sequence[int]) -> Fraction:
    """e(H) over the number of sets with blockwise profile x; requires every
    edge to carry exactly that profile."""
    x = tuple(int(a) for a in x)
    if len(x) != P.r:
        raise InvalidDimension(f"profile length {len(x)} != {P.r} blocks")
    denom = 1
    for b, xi in zip(P.blocks, x):
        denom *= comb(len(b), xi)
    if denom == 0:
        raise InvalidEdgeProfile(f"profile {x} does not fit the block sizes")
    for e in H.edges:
        if index_vector(P, e) != x:
            raise InvalidEdgeProfile(f"edge {e} has profile {index_vector(P, e)}")
    return Fraction(H.edge_count(), denom)


def is_complete(H: KGraph, P: VertexPartition, x: Sequence[int], eps: Fraction) -> bool:
    return x_density(H, P, x) >= 1 - Fraction(eps)


def monochromatic_fraction(H: KGraph, coloring: dict) -> tuple[int, Fraction]:
    """Best color and its share of the edges."""
    if H.edge_count() == 0:
        raise EmptyGraph("no edges to color")
    canon = {tuple(sorted(e)): c for e, c in coloring.items()}
    if set(canon) != set(H.edges):
        raise InvalidColoring("coloring domain must be exactly the edge set")
    counts: dict = {}
    for e in H.edges:
        c = canon[e]
        counts[c] = counts.get(c, 0) + 1
    best = min(sorted(counts), key=lambda c: (-counts[c], c))
    return best, Fraction(counts[best], H.edge_count())


def is_zeta_monochromatic(H: KGraph, coloring: dict, zeta: Fraction) -> bool:
    _, frac = monochromatic_fraction(H, coloring)
    return frac >= 1 - Fraction(zeta)
