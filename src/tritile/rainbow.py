"""Rainbow tilings over families of hosts on a shared vertex set.

A perfect rainbow tiling draws the 3 n/(2k-1) edges of a perfect tiling
injectively, one from each host.  The search interleaves the exact cover over
vertices with a bipartite slot-to-host matching prune, because assigning
hosts after the fact fails on adversarial families.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Optional

from . import exact
from .core import KGraph, _mask
from .errors import BudgetExceeded, InvalidFamily
from .patterns import TriangleCopy, Tiling, _copies, _mask_vertices


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


def _hall_pair(x: int, y: int) -> bool:
    """Hall's condition for the two base slots alone, with host bitmasks x
    and y: each sees a host and together they see two."""
    return x != 0 and y != 0 and (x | y).bit_count() >= 2


def _hall_spine(x: int, y: int, xy: int, z: int) -> bool:
    """The rest of Hall's condition for three slots with host bitmasks x, y
    and z once ``_hall_pair(x, y)`` holds, with ``xy == x | y``: every
    subfamily holding the spine slot z sees as many hosts as it has slots."""
    return (
        z != 0
        and (x | z).bit_count() >= 2
        and (y | z).bit_count() >= 2
        and (xy | z).bit_count() >= 3
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
    edges is ruled out first, without search.  Each union edge, keyed by its
    vertex mask, carries the bitmask of the hosts containing it.  The rows
    are the usable copies in a compact table (``_usable_rows``): one
    (base, base mask, a, b, x, y) tuple per base and apex pair, and per row
    only its spine's edge mask; the search reads a row's vertex mask, and
    the matching prune its slot hosts, back from the table, and only the
    chosen copies become ``TriangleCopy`` objects.
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

    table, live, servable = _usable_rows(union, edge_hosts)
    # A rainbow tiling uses every host exactly once.
    if servable != (1 << m) - 1:
        return None

    # The search calls ``fits`` once per tried row with the path so far, and
    # that row's parent path passed ``fits`` last at its own length, so
    # prefix[i] keeps the slot hosts of the first i chosen rows and only the
    # new row's slots are looked up.
    prefix: list[list[int]] = [[]]

    def fits(chosen: list[int]) -> bool:
        del prefix[len(chosen):]
        hosts = prefix[-1] + table.slot_hosts(chosen[-1:])
        if not _bipartite_saturates(hosts):
            return False
        prefix.append(hosts)
        return True

    rows = exact._CoverSearch(live, table, budget, fits).run()
    if rows is None:
        return None
    rows.sort()  # row order is the canonical copy order
    chosen_copies = tuple(table.copy(r) for r in rows)
    assignment = _lex_least_assignment(table.slot_hosts(rows))
    return RainbowTiling(Tiling(chosen_copies, n), tuple(assignment))


_Group = tuple[tuple[int, ...], int, int, int, int, int]  # (base, bm, a, b, x, y)


class _RowTable:
    """The usable rows, in canonical copy order, as a read-only sequence of
    row vertex masks.

    The rows of one base and apex pair form a group: ``groups[g]`` is
    (base, base mask, a, b, x, y), x and y being the host bitmasks of the
    base edges through a and b, and its rows run from ``starts[g]`` to the
    next group's start.  A row keeps only its spine's edge mask
    (``spines[r]``); its vertex mask, tail and spine hosts are read back on
    demand.
    """

    __slots__ = ("groups", "starts", "spines", "edge_hosts")

    def __init__(
        self,
        groups: list[_Group],
        starts: list[int],
        spines: list[int],
        edge_hosts: dict[int, int],
    ):
        self.groups = groups
        self.starts = starts
        self.spines = spines
        self.edge_hosts = edge_hosts

    def __len__(self) -> int:
        return len(self.spines)

    def group(self, r: int) -> _Group:
        return self.groups[bisect_right(self.starts, r) - 1]

    def __getitem__(self, r: int) -> int:
        return self.group(r)[1] | self.spines[r]

    def copy(self, r: int) -> TriangleCopy:
        base, _, a, b, _, _ = self.group(r)
        return TriangleCopy(base, (a, b), _mask_vertices(self.spines[r] ^ 1 << a ^ 1 << b))

    def slot_hosts(self, rows: list[int]) -> list[int]:
        """The host bitmasks of the rows' slots, copy by copy in slot order."""
        out = []
        for r in rows:
            _, _, _, _, x, y = self.group(r)
            out += (x, y, self.edge_hosts[self.spines[r]])
        return out


def _usable_rows(
    union: KGraph, edge_hosts: dict[int, int]
) -> tuple[_RowTable, dict[int, int], int]:
    """The union's usable copies as a row table, each vertex's live-row
    bitset, and the bitmask of the hosts that can serve some slot of them.

    A copy is usable iff its three edge slots can take distinct hosts.  Rows
    follow ``_copies``, which hands every base the same spine list for an
    apex pair (a, b), so the spines' host masks are looked up once per pair.
    Hall's test of a spine runs only when it has at most two hosts: once the
    base slots pass ``_hall_pair``, a spine with three or more hosts meets
    every Hall inequality.  Each vertex's bitset is read from its flags,
    flags[v][r] == ord("1") when row r holds v: a base's rows, an apex a's
    and a group's come out consecutively, so the base, a and b are flagged
    with one slice each and only the tail row by row.
    """
    n = union.n
    groups: list[_Group] = []
    starts: list[int] = []
    spines_out: list[int] = []
    flags = [bytearray() for _ in range(n)]
    hosted: dict[tuple[int, int], list[tuple[tuple[int, ...], int, int, bool]]] = {}
    servable = 0
    for (base, bm), base_groups in groupby(_copies(union), itemgetter(0, 1)):
        base_start = len(spines_out)
        for a, a_groups in groupby(base_groups, itemgetter(2)):
            x = edge_hosts[bm | 1 << a]
            a_start = len(spines_out)
            for _, _, _, b, spines in a_groups:
                y = edge_hosts[bm | 1 << b]
                if not _hall_pair(x, y):
                    continue
                spine_hosts = hosted.get((a, b))
                if spine_hosts is None:
                    spine_hosts = hosted[a, b] = [
                        (tail, em, z, z.bit_count() < 3)
                        for tail, em in spines
                        for z in (edge_hosts[em],)
                    ]
                start = r = len(spines_out)
                room = start + len(spines)
                if room > len(flags[0]):
                    for f in flags:
                        f += b"0" * (max(room, 2 * len(f)) - len(f))
                xy = x | y
                for tail, em, z, few in spine_hosts:
                    if em & bm or few and not _hall_spine(x, y, xy, z):
                        continue
                    for v in tail:
                        flags[v][r] = 49
                    spines_out.append(em)
                    servable |= z
                    r += 1
                if r > start:
                    groups.append((base, bm, a, b, x, y))
                    starts.append(start)
                    flags[b][start:r] = b"1" * (r - start)
                    servable |= xy
            end = len(spines_out)
            flags[a][a_start:end] = b"1" * (end - a_start)
        end = len(spines_out)
        for v in base:
            flags[v][base_start:end] = b"1" * (end - base_start)
    rows_end = len(spines_out)
    live = {v: int(f[:rows_end][::-1] or b"0", 2) for v, f in enumerate(flags)}
    return _RowTable(groups, starts, spines_out, edge_hosts), live, servable


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
