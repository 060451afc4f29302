"""Rainbow tilings over families of hosts on a shared vertex set.

A perfect rainbow tiling draws the 3 n/(2k-1) edges of a perfect tiling
injectively, one from each host.  The search interleaves the exact cover over
vertices with a bipartite slot-to-host matching prune, because assigning
hosts after the fact fails on adversarial families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import exact
from .core import KGraph, _mask
from .errors import BudgetExceeded, InvalidFamily
from .patterns import TriangleCopy, Tiling, _copies


@dataclass(frozen=True)
class GraphFamily:
    hosts: tuple[KGraph, ...]

    def __post_init__(self):
        if not self.hosts:
            raise InvalidFamily("empty family")
        n = self.hosts[0].n
        k = self.hosts[0].k
        if any(h.n != n or h.k != k for h in self.hosts):
            raise InvalidFamily("hosts must share vertex count and uniformity")

    @property
    def n(self) -> int:
        return self.hosts[0].n

    @property
    def k(self) -> int:
        return self.hosts[0].k

    def union(self) -> KGraph:
        edges = set()
        for h in self.hosts:
            edges.update(h.edges)
        return KGraph(self.n, self.k, edges)


@dataclass(frozen=True)
class RainbowTiling:
    """A tiling plus the host index serving each edge slot.

    Slots are ordered copy by copy (copies sorted canonically) and within a
    copy as (base edge with the smaller apex, base edge with the larger apex,
    spine); the assignment is a bijection onto the hosts.
    """

    tiling: Tiling
    assignment: tuple[int, ...]

    def slots(self) -> list[tuple[int, ...]]:
        out = []
        for c in self.tiling.copies:
            out.extend(c.edges)
        return out

    def to_json(self) -> dict:
        return {
            "tiling": self.tiling.to_json(),
            "assignment": list(self.assignment),
        }


def _bipartite_saturates(slot_hosts: list[int]) -> bool:
    """Can every slot get its own host?  Kuhn's augmenting-path matching.

    Each slot's hosts are an int bitmask (bit i = host i).
    """
    owner: dict[int, int] = {}  # host bit -> slot it serves
    seen = 0

    def augment(s: int) -> bool:
        nonlocal seen
        free = slot_hosts[s]
        while free:
            bit = free & -free
            free ^= bit
            if seen & bit:
                continue
            seen |= bit
            if bit not in owner or augment(owner[bit]):
                owner[bit] = s
                return True
        return False

    for s in range(len(slot_hosts)):
        seen = 0
        if not augment(s):
            return False
    return True


def _hall_triple(x: int, y: int, z: int) -> bool:
    """Hall's condition for three slots with host bitmasks x, y, z: every
    nonempty subfamily of slots sees at least as many hosts as it has slots."""
    return (
        x != 0
        and y != 0
        and z != 0
        and (x | y).bit_count() >= 2
        and (x | z).bit_count() >= 2
        and (y | z).bit_count() >= 2
        and (x | y | z).bit_count() >= 3
    )


def _lex_least_assignment(slot_hosts: list[int]) -> list[int]:
    """Lexicographically least system of distinct representatives."""
    chosen: list[int] = []
    used = 0
    for s, hosts in enumerate(slot_hosts):
        free = hosts & ~used
        while free:
            bit = free & -free
            free ^= bit
            if _bipartite_saturates([x & ~(used | bit) for x in slot_hosts[s + 1:]]):
                chosen.append(bit.bit_length() - 1)
                used |= bit
                break
        else:
            raise ArithmeticError("internal: assignment vanished after search")
    return chosen


def rainbow_perfect_tiling(
    family: GraphFamily,
    *,
    budget: int = exact.DEFAULT_NODE_BUDGET,
) -> Optional[RainbowTiling]:
    """Exact decision for a perfect rainbow tiling of the family.

    Sound and complete within budget: exact cover over vertices on copies of
    the union, pruned whenever the partial slot/host bipartite graph has no
    saturating matching.  A family whose hosts cannot take distinct union
    edges is ruled out first, without search.  Copies stay plain tuples;
    each union edge, keyed by its vertex mask, carries the bitmask of the
    hosts containing it, and only the chosen copies become ``TriangleCopy``
    objects.
    """
    n, k = family.n, family.k
    s = 2 * k - 1
    if n % s != 0:
        return None
    m = 3 * n // s
    if len(family.hosts) != m:
        raise InvalidFamily(f"family must have 3n/(2k-1) = {m} hosts, has {len(family.hosts)}")

    union = family.union()
    # The slots of a rainbow tiling are distinct edges of the union, one per
    # host, so the hosts must match to distinct union edges.
    edge_bit = {e: 1 << i for i, e in enumerate(union.edges)}
    if not _bipartite_saturates([sum(edge_bit[e] for e in h.edges) for h in family.hosts]):
        return None
    # A rainbow tiling is in particular a perfect tiling of the union, and
    # that decision is much cheaper (it has a fractional prefilter).
    if exact.perfect_tiling(union, budget=budget) is None:
        return None

    edge_hosts: dict[int, int] = {}  # edge vertex mask -> host bitmask
    for i, h in enumerate(family.hosts):
        for e in h.edges:
            em = _mask(e)
            edge_hosts[em] = edge_hosts.get(em, 0) | 1 << i

    # Usable copies, in the canonical order ``_copies`` yields them: a copy
    # is usable iff its three edge slots can take distinct hosts.
    usable: list[tuple[tuple[int, ...], int, int, tuple[int, ...]]] = []
    hosts: list[tuple[int, int, int]] = []  # per usable copy, in slot order
    masks: list[int] = []
    by_vertex: dict[int, list[int]] = {v: [] for v in range(n)}
    servable = 0  # hosts that can serve some slot of a usable copy
    base_prev, bm = None, 0
    for base, a, b, tail, mask in _copies(union):
        if base is not base_prev:  # a base's copies come out consecutively
            base_prev, bm = base, _mask(base)
        x = edge_hosts[bm | 1 << a]
        y = edge_hosts[bm | 1 << b]
        z = edge_hosts[mask & ~bm]
        if not _hall_triple(x, y, z):
            continue
        r = len(usable)
        for v in (*base, a, b, *tail):
            by_vertex[v].append(r)
        usable.append((base, a, b, tail))
        hosts.append((x, y, z))
        masks.append(mask)
        servable |= x | y | z
    # A rainbow tiling uses every host exactly once.
    if servable != (1 << m) - 1:
        return None

    def fits(chosen: list[int]) -> bool:
        return _bipartite_saturates([hp for q in chosen for hp in hosts[q]])

    rows = exact._CoverSearch(range(n), by_vertex, masks, budget, fits).run()
    if rows is None:
        return None
    rows.sort()  # row order is the canonical copy order
    chosen_copies = tuple(
        TriangleCopy(base, (a, b), tail) for base, a, b, tail in (usable[r] for r in rows)
    )
    assignment = _lex_least_assignment([hp for r in rows for hp in hosts[r]])
    return RainbowTiling(Tiling(chosen_copies, n), tuple(assignment))


@dataclass(frozen=True)
class CoverEmbedding:
    """Injective pattern embedding with one designated edge landing in the
    first host and every other edge in the second."""

    mapping: tuple[int, ...]  # pattern vertex i -> host vertex mapping[i]
    designated: tuple[int, ...]  # the pattern edge covered by the first host

    def to_json(self) -> dict:
        return {"mapping": list(self.mapping), "designated": list(self.designated)}


def color_covering_homomorphism(
    F: KGraph,
    H1: KGraph,
    H2: KGraph,
    *,
    budget: int = exact.DEFAULT_NODE_BUDGET,
) -> Optional[CoverEmbedding]:
    """Exact backtracking over the designated edge and the embedding."""
    if H1.n != H2.n or H1.k != H2.k or F.k != H1.k:
        raise InvalidFamily("hosts must share a vertex set and uniformity with F")
    n = H1.n
    if F.n > n:
        return None

    # Map pattern vertices in an order that closes pattern edges early.
    order: list[int] = []
    remaining = set(range(F.n))
    while remaining:
        def closure(v):
            closed = 0
            for e in F.edges:
                if v in e and all(u == v or u in order for u in e):
                    closed += 1
            return (-closed, v)
        nxt = min(remaining, key=closure)
        order.append(nxt)
        remaining.discard(nxt)
    pos = {v: i for i, v in enumerate(order)}
    closing = []  # edges fully mapped once order[i] is placed
    for i in range(F.n):
        closing.append(
            [e for e in F.edges if max(pos[u] for u in e) == i]
        )

    nodes = {"n": 0}

    def embed(designated) -> Optional[tuple[int, ...]]:
        mapping = [-1] * F.n
        used = [False] * n

        def rec(i: int) -> bool:
            if i == F.n:
                return True
            nodes["n"] += 1
            if nodes["n"] > budget:
                raise BudgetExceeded(f"embedding search exceeded {budget} nodes")
            v = order[i]
            for w in range(n):
                if used[w]:
                    continue
                mapping[v] = w
                used[w] = True
                ok = True
                for e in closing[i]:
                    img = tuple(sorted(mapping[u] for u in e))
                    host = H1 if e == designated else H2
                    if not host.has_edge(img):
                        ok = False
                        break
                if ok and rec(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
            return False

        if rec(0):
            return tuple(mapping)
        return None

    for designated in F.edges:
        found = embed(designated)
        if found is not None:
            return CoverEmbedding(found, designated)
    return None
