"""Rainbow tilings over families of hosts on a shared vertex set.

A perfect rainbow tiling draws the 3 n/(2k-1) edges of a perfect tiling
injectively, one from each host.  The search interleaves the exact cover over
vertices with a bipartite slot-to-host matching prune, because assigning
hosts after the fact fails on adversarial families.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import and_, itemgetter, or_
from typing import Callable, Optional

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
    (base number, a, b) entry per base and apex pair, and per row only its
    tail vertices as bytes; the search reads a row's vertex mask, and the
    matching prune its slot hosts, back from the table, and only the chosen
    copies become ``TriangleCopy`` objects.
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
    union._sets = None  # the rows below need no set index (16 MiB at n = 30)

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


class _RowTable:
    """The usable rows, in canonical copy order, as a read-only sequence of
    row vertex masks.

    The rows of one base and apex pair form a group: ``groups[3 g:3 g + 3]``
    is (base number, a, b), ``bases[base number]`` is (base, base mask),
    and its rows run from ``starts[g]`` to ``starts[g + 1]``; the last start
    is the row count.  A row keeps only its k-2 tail vertices, each as
    ``digits`` little-endian base-256 bytes, in ``tails`` from byte
    ``r * width``.  Its spine is its tail plus a and b, and its vertex mask,
    copy and slot hosts (the base edges' and the spine's, from
    ``edge_hosts``) are read back on demand.
    """

    __slots__ = ("bases", "groups", "starts", "tails", "digits", "edge_hosts")

    def __init__(
        self,
        bases: list[tuple[tuple[int, ...], int]],
        groups: array,
        starts: array,
        tails: bytearray,
        digits: int,
        edge_hosts: dict[int, int],
    ):
        self.bases = bases
        self.groups = groups
        self.starts = starts
        self.tails = tails
        self.digits = digits
        self.edge_hosts = edge_hosts

    def __len__(self) -> int:
        return self.starts[-1]

    def _row(self, r: int) -> tuple[tuple[int, ...], int, int, int, tuple[int, ...]]:
        """Row r as (base, base mask, a, b, tail)."""
        g = 3 * (bisect_right(self.starts, r) - 1)
        number, a, b = self.groups[g:g + 3]
        base, bm = self.bases[number]
        d = self.digits
        width = (len(base) - 1) * d
        code = self.tails[r * width:(r + 1) * width]
        tail = tuple(int.from_bytes(code[i:i + d], "little") for i in range(0, width, d))
        return base, bm, a, b, tail

    def __getitem__(self, r: int) -> int:
        _, bm, a, b, tail = self._row(r)
        return bm | 1 << a | 1 << b | _mask(tail)

    def copy(self, r: int) -> TriangleCopy:
        base, _, a, b, tail = self._row(r)
        return TriangleCopy(base, (a, b), tail)

    def slot_hosts(self, rows: list[int]) -> list[int]:
        """The host bitmasks of the rows' slots, copy by copy in slot order."""
        edge_hosts = self.edge_hosts
        out = []
        for r in rows:
            _, bm, a, b, tail = self._row(r)
            spine = 1 << a | 1 << b | _mask(tail)
            out += (edge_hosts[bm | 1 << a], edge_hosts[bm | 1 << b], edge_hosts[spine])
        return out


# ``_MATCH[c]`` translates the byte c to b"1" and every other byte to b"0".
_MATCH = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(256)]


def _fold_flags(op: Callable[[int, int], int], flags: list[bytearray]) -> bytearray:
    """Fold b"0"/b"1" flag columns of one length byte by byte with the
    bitwise ``op``: the flags are the codes 0x30 and 0x31, so and-ing or
    or-ing the codes and-s or or-s the flags."""
    out = flags[0]
    for f in flags[1:]:
        both = op(int.from_bytes(out, "little"), int.from_bytes(f, "little"))
        out = bytearray(both.to_bytes(len(f), "little"))
    return out


def _spine_pair(
    spines: list[tuple[tuple[int, ...], int]], edge_hosts: dict[int, int], digits: int
) -> tuple[bytes, dict[int, int], list[tuple[int, int]], list[int]]:
    """What every group of one apex pair reads of the pair's spines, spine i
    as bit i: the spines' tail bytes, end to end; for each tail vertex, the
    spines holding it; (bit, host mask) of each spine with at most two
    hosts; and each spine's host mask."""
    meets: dict[int, int] = {}
    for i, (tail, _) in enumerate(spines):
        for v in tail:
            meets[v] = meets.get(v, 0) | 1 << i
    hosts = [edge_hosts[em] for _, em in spines]
    few = [(1 << i, z) for i, z in enumerate(hosts) if z.bit_count() < 3]
    tails = b"".join(v.to_bytes(digits, "little") for tail, _ in spines for v in tail)
    return tails, meets, few, hosts


def _usable_rows(
    union: KGraph, edge_hosts: dict[int, int]
) -> tuple[_RowTable, dict[int, int], int]:
    """The union's usable copies as a row table, each vertex's live-row
    bitset, and the bitmask of the hosts that can serve some slot of them.

    A copy is usable iff its three edge slots can take distinct hosts.  Rows
    follow ``_copies``, which hands every base the same spine list for an
    apex pair (a, b), so what the groups read of the spines is made once
    per pair (``_spine_pair``).  A group drops, as one bitmask over the
    pair's spines, those that meet its base and those that fail Hall's
    test, which runs only on a spine with at most two hosts: once the base
    slots pass ``_hall_pair``, a spine with three or more hosts meets every
    Hall inequality.  The group's rows are then its kept spines' tail bytes,
    copied in runs between the dropped spines.  A base's rows, an apex a's
    and a group's come out consecutively, so the build records them as
    (start, end) ranges of the vertex.  Each vertex's bitset is then written
    as one b"0"/b"1" flag per row, one vertex at a time: its tail rows by
    one ``bytes.translate`` of each column of tail bytes (and-ed over a
    vertex's digits, or-ed over the tail slots), its ranges by one slice
    each, and the flags are read base 2.
    """
    n = union.n
    digits = max(1, ((n - 1).bit_length() + 7) // 8)
    width = (union.k - 2) * digits  # tail bytes per row
    bases: list[tuple[tuple[int, ...], int]] = []
    groups = array("I")
    starts = array("Q")
    tails = bytearray()
    ranges = [array("Q") for _ in range(n)]  # per vertex: start, end, start, end, ...
    pairs: dict[tuple[int, int], tuple] = {}
    kept: dict[tuple[int, int], int] = {}  # the spines of a pair that some row keeps
    servable = 0
    r = 0
    for (base, bm), base_groups in groupby(_copies(union), itemgetter(0, 1)):
        base_start = r
        for a, a_groups in groupby(base_groups, itemgetter(2)):
            x = edge_hosts[bm | 1 << a]
            a_start = r
            for _, _, _, b, spines in a_groups:
                y = edge_hosts[bm | 1 << b]
                if not _hall_pair(x, y):
                    continue
                pair = pairs.get((a, b))
                if pair is None:
                    pair = pairs[a, b] = _spine_pair(spines, edge_hosts, digits)
                pair_tails, meets, few, _ = pair
                drop = 0
                for v in base:
                    drop |= meets.get(v, 0)
                xy = x | y
                for bit, z in few:
                    if not _hall_spine(x, y, xy, z):
                        drop |= bit
                keep = (1 << len(spines)) - 1 & ~drop
                if not keep:
                    continue
                kept[a, b] = kept.get((a, b), 0) | keep
                start = r
                r += keep.bit_count()
                groups.extend((len(bases), a, b))
                starts.append(start)
                ranges[b].extend((start, r))
                at = 0
                while drop:
                    low = drop & -drop
                    drop ^= low
                    i = low.bit_length() - 1
                    tails += pair_tails[at * width:i * width]
                    at = i + 1
                tails += pair_tails[at * width:]
                servable |= xy
            if r > a_start:
                ranges[a].extend((a_start, r))
        if r > base_start:
            bases.append((base, bm))
            for v in base:
                ranges[v].extend((base_start, r))
    starts.append(r)
    for pair, keep in kept.items():
        for i, z in enumerate(pairs[pair][3]):
            if keep >> i & 1:
                servable |= z

    # The flags run from the last row to the first, so that they read base 2.
    columns = [tails[i::width][::-1] for i in range(width)]
    live = {}
    for v in range(n):
        want = v.to_bytes(digits, "little")
        slots = [
            _fold_flags(and_, [columns[j + i].translate(_MATCH[c]) for i, c in enumerate(want)])
            for j in range(0, width, digits)
        ]
        flags = _fold_flags(or_, slots) if slots else bytearray(b"0" * r)
        spans = ranges[v]
        for i in range(0, len(spans), 2):
            s, e = spans[i], spans[i + 1]
            flags[r - e:r - s] = b"1" * (e - s)
        live[v] = int(flags, 2) if r else 0
    return _RowTable(bases, groups, starts, tails, digits, edge_hosts), live, servable


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
