"""The generalized triangle pattern, its copies, tight 2-paths and blowups.

The pattern on 2k-1 vertices has a (k-1)-vertex base contained in two edges,
two apex vertices (one per base edge), and a spine edge through both apexes
and the remaining k-2 tail vertices.  A copy is canonicalised as the triple
(base, apexes, tail) of sorted vertex tuples, which quotients out the
pattern automorphisms, so LP columns and exact-cover rows never double count.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .core import KGraph, _check_range, _mask, canonical_vertex_set
from .errors import (
    BudgetExceeded,
    InvalidArity,
    InvalidColoring,
    InvalidUniformity,
)

DEFAULT_COPY_CAP = 5_000_000


def generalized_triangle(k: int) -> KGraph:
    """The (2k-1)-vertex, 3-edge pattern graph, 0-based.

    Edges: {0..k-2, k-1}, {0..k-2, k} and {k-1, k, .., 2k-2}.  For k=2 this
    degenerates to the graph triangle.
    """
    if k < 2:
        raise InvalidUniformity(f"k={k} must be at least 2")
    base = tuple(range(k - 1))
    spine = tuple(range(k - 1, 2 * k - 1))
    return KGraph(2 * k - 1, k, [base + (k - 1,), base + (k,), spine])


@dataclass(frozen=True, slots=True)
class TriangleCopy:
    """An embedded copy: base (k-1 vertices), two apexes, k-2 tail vertices."""

    base: tuple[int, ...]
    apexes: tuple[int, int]
    tail: tuple[int, ...]

    def __post_init__(self):
        # A part that is already a sorted tuple is kept, not copied, so the
        # copies of a host share the tuples of its edge index.
        for name in ("base", "apexes", "tail"):
            part = getattr(self, name)
            canonical = tuple(sorted(part))
            if canonical != part:
                object.__setattr__(self, name, canonical)

    @property
    def k(self) -> int:
        return len(self.base) + 1

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.base + self.apexes + self.tail))

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        a, b = self.apexes
        e1 = tuple(sorted(self.base + (a,)))
        e2 = tuple(sorted(self.base + (b,)))
        spine = tuple(sorted(self.apexes + self.tail))
        return (e1, e2, spine)

    def sort_key(self):
        return (self.base, self.apexes, self.tail)

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}


@dataclass(frozen=True, slots=True)
class Tiling:
    """Vertex-disjoint copies in a host graph."""

    copies: tuple[TriangleCopy, ...]
    n: int

    @property
    def covered(self) -> tuple[int, ...]:
        out = []
        for c in self.copies:
            out.extend(c.vertices)
        return tuple(sorted(out))

    @property
    def perfect(self) -> bool:
        cov = self.covered
        return len(cov) == self.n and len(set(cov)) == self.n

    def to_json(self) -> dict:
        return {
            "size": len(self.copies),
            "perfect": self.perfect,
            "copies": [c.to_json() for c in self.copies],
        }


def supports_triangle(H: KGraph, S: Iterable[int]) -> Optional[TriangleCopy]:
    """Least copy inside the (2k-1)-set S, or None if H[S] has no copy.

    A search of S alone that never reads the host's set index: bases in
    lexicographic order, a base only when the rest of S (its spine) is an
    edge, then apex pairs on the spine in lexicographic order.  The first
    copy met is the least one; for k=2 its base is the least vertex of S.
    """
    s = canonical_vertex_set(S)
    k = H.k
    if len(s) != 2 * k - 1:
        raise InvalidArity(f"need {2 * k - 1} distinct vertices, got {len(s)}")
    for base in itertools.combinations(s, k - 1):
        spine = tuple(v for v in s if v not in base)
        if not H.has_edge(spine):
            continue
        for a, b in itertools.combinations(spine, 2):
            if H.has_edge(base + (a,)) and H.has_edge(base + (b,)):
                return TriangleCopy(base, (a, b), tuple(v for v in spine if v != a and v != b))
    return None


# The slot setters of TriangleCopy.  The index and ``enumerate_copies``
# build copies from parts that are already sorted tuples, so they fill the
# slots directly and skip the frozen dataclass's __init__ and
# __post_init__: on ext(3,20) (9212 sets) that builds the witnesses in 14 ms
# instead of 37 ms (one core of a 2-vCPU shared VM, CPython 3.11).
_COPY_SLOT_SETTERS = tuple(
    TriangleCopy.__dict__[name].__set__ for name in ("base", "apexes", "tail")
)


_Spine = tuple[tuple[int, ...], int]  # (tail, spine edge mask)


def _copies(
    H: KGraph,
) -> Iterator[tuple[tuple[int, ...], int, int, int, list[_Spine]]]:
    """Every canonical copy, one group per base and apex pair, as
    (base, base mask, apex a, apex b, spines).

    ``spines`` lists (tail, spine edge mask) for every edge through both
    apexes, and each one that misses the base completes a copy; callers skip
    those that meet it.  The walk goes base -> apex a -> apex b -> spine,
    each level in lexicographic order, so copies come out in
    ``TriangleCopy.sort_key`` order and the first copy met on a vertex set is
    its least witness; a base's groups, and within them an apex a's, come
    out consecutively.  For k=2 only the copy whose base is the least vertex
    of its triangle is canonical.
    """
    k = H.k
    spines: dict[tuple[int, int], list[_Spine]] = {}
    for a in range(H.n):
        for e in H.vertex_edges(a):
            em = _mask(e)
            for b in e:
                if b > a:
                    tail = tuple(v for v in e if v != a and v != b)
                    spines.setdefault((a, b), []).append((tail, em))
    for base, nbrs in sorted(H._neighborhood_index().items()):
        if len(nbrs) < 2:
            continue
        bm = _mask(base)
        lo = bisect_right(nbrs, base[0]) if k == 2 else 0
        for i in range(lo, len(nbrs)):
            a = nbrs[i]
            for b in nbrs[i + 1:]:
                pair = spines.get((a, b))
                if pair is not None:
                    yield base, bm, a, b, pair


def enumerate_copies(
    H: KGraph,
    restrict: Optional[Iterable[int]] = None,
    cap: int = DEFAULT_COPY_CAP,
) -> list[TriangleCopy]:
    """All canonical copies, optionally inside ``restrict``, sorted canonically.

    One representative per unlabelled subgraph copy.  Exceeding ``cap`` raises
    BudgetExceeded carrying the partial count; results are never silently
    truncated.  The copies of one base and apex pair share their apex tuple.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    outside = 0
    if restrict is not None:
        outside = ~_mask(_check_range(canonical_vertex_set(restrict), H.n))
    # the walk's parts are sorted tuples already, so no copy needs re-sorting
    new = object.__new__
    set_base, set_apexes, set_tail = _COPY_SLOT_SETTERS
    out = []
    for base, bm, a, b, spines in _copies(H):
        if bm & outside:
            continue
        apexes = (a, b)
        barred = bm | outside  # a spine meeting these meets the base or leaves restrict
        for tail, em in spines:
            if not em & barred:
                copy = new(TriangleCopy)
                set_base(copy, base)
                set_apexes(copy, apexes)
                set_tail(copy, tail)
                out.append(copy)
                if len(out) > cap:
                    raise BudgetExceeded(
                        f"copy count exceeds cap {cap}", partial_count=len(out)
                    )
    return out


def supporting_sets(
    H: KGraph,
    restrict: Optional[Iterable[int]] = None,
    cap: int = DEFAULT_COPY_CAP,
) -> list[tuple[tuple[int, ...], TriangleCopy]]:
    """All (2k-1)-sets supporting the pattern, each with its least witness copy.

    Sorted by vertex set.  Fractional weights, packing rows and exact-cover
    rows only ever depend on the vertex set of a copy, so this is the
    deduplicated column/row universe for those solvers.  The sets of a host
    are enumerated once per KGraph object and shared by every later call,
    which returns the same witness objects; ``restrict`` selects those
    inside it.  More than ``cap`` sets in H raises BudgetExceeded with
    ``partial_count == cap + 1``, whether they were just enumerated or cached.
    """
    index = _set_index(H, cap)
    sets = zip(index.vertex_sets, map(index.witness, range(len(index))))
    if restrict is None:
        return list(sets)
    outside = ~_mask(_check_range(canonical_vertex_set(restrict), H.n))
    return [row for row, m in zip(sets, index.masks) if not m & outside]


class _SetIndex:
    """A host's supporting sets as vertex masks, sorted by vertex set.

    Row r is the set of mask ``masks[r]``; per row the index keeps only
    that mask and the number of its least witness's base in ``_bases``,
    which holds (base, base mask, admissible apex mask) once per base with
    two admissible apexes.  A row's vertex tuple (``index[r]``) is decoded
    from its mask on every read and not kept.  Its least witness
    (``witness(r)``) is built on first read and kept, so a solver builds
    only those its answer names and every caller gets the same objects.
    The per-vertex row bitsets and the set of masks that ``contains`` reads
    are built on first use, so a host whose questions the LP settles never
    pays for them.
    """

    __slots__ = ("n", "masks", "_bases", "_base_of", "_members", "_witnesses", "_tails", "_bits")

    def __init__(self, H: KGraph, cap: int):
        # One pass per base, in sorted base order: a spine edge misses the
        # base and holds two of its admissible apexes, so base + spine
        # supports a copy, and the first base to reach a set is the base of
        # its least witness.  The spines are read from per-vertex edge
        # bitsets: the edges holding two apexes, less those meeting the
        # base.  For k=2 both apexes lie above the base vertex, as in
        # ``_copies``.
        edge_masks = [_mask(e) for e in H.edges]
        holds = _row_bits(edge_masks, range(H.n))
        bases: list[tuple[tuple[int, ...], int, int]] = []
        first: dict[int, int] = {}  # set mask -> number of its least witness's base
        for base, nbrs in sorted(H._neighborhood_index().items()):
            if H.k == 2:
                nbrs = nbrs[bisect_right(nbrs, base[0]):]
            if len(nbrs) < 2:
                continue
            one = two = 0
            for a in nbrs:
                two |= one & holds[a]
                one |= holds[a]
            for v in base:
                two &= ~holds[v]
            bm = _mask(base)
            number = len(bases)
            bases.append((base, bm, _mask(nbrs)))
            for em in _picked(edge_masks, two):
                first.setdefault(bm | em, number)
            _check_set_cap(len(first), cap)
        # A mask's little-endian bytes, each with its bits reversed, put
        # vertex 0 in the top bit.  Two sets of one size first differ at the
        # least vertex in just one of them, and that set has the smaller
        # vertex tuple and the larger reversed bytes, so sorting those
        # descending sorts the sets by vertex tuple.
        width = (H.n + 7) >> 3
        self.masks = sorted(first, key=lambda m: m.to_bytes(width, "little").translate(_REVERSED),
                            reverse=True)
        self._bases = bases
        self._base_of = array("I", map(first.__getitem__, self.masks))
        self.n = H.n
        self._members: Optional[set[int]] = None
        self._witnesses: Optional[list[Optional[TriangleCopy]]] = None
        self._tails: dict[int, tuple[int, ...]] = {}  # shared by the witnesses
        self._bits: Optional[dict[int, int]] = None

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, r: int) -> tuple[int, ...]:
        """The vertex tuple of row r, decoded from its mask on each read."""
        return _mask_vertices(self.masks[r])

    @property
    def vertex_sets(self) -> list[tuple[int, ...]]:
        """Every row's vertex tuple, in row order, decoded afresh."""
        return list(map(_mask_vertices, self.masks))

    def witness(self, r: int) -> TriangleCopy:
        """The least witness of row r, built on first read and kept: the
        row's base, the base's two least neighbours on the spine as apexes
        and the rest of the spine as tail."""
        if self._witnesses is None:
            self._witnesses = [None] * len(self.masks)
        copy = self._witnesses[r]
        if copy is None:
            m = self.masks[r]
            base, bm, nm = self._bases[self._base_of[r]]
            spine = m ^ bm
            x = spine & nm
            a = x & -x
            x ^= a
            b = x & -x
            t = spine ^ a ^ b
            tail = self._tails.get(t)
            if tail is None:
                tail = self._tails[t] = _mask_vertices(t)
            copy = self._witnesses[r] = object.__new__(TriangleCopy)
            set_base, set_apexes, set_tail = _COPY_SLOT_SETTERS
            set_base(copy, base)
            set_apexes(copy, (a.bit_length() - 1, b.bit_length() - 1))
            set_tail(copy, tail)
        return copy

    def vertex_bits(self) -> dict[int, int]:
        """Every vertex's row bitset, vertices ascending: bit r is set when
        row r holds the vertex.  Callers must not mutate the dict."""
        if self._bits is None:
            self._bits = _row_bits(self.masks, range(self.n))
        return self._bits

    def contains(self, mask: int) -> bool:
        """Is the (2k-1)-vertex set of the vertex mask ``mask`` a supporting
        set?  Answered from the set of the masks, built on first call."""
        if self._members is None:
            self._members = set(self.masks)
        return mask in self._members

    def bits_inside(self, mask: int) -> dict[int, int]:
        """``vertex_bits`` restricted to the sets inside the vertex mask
        ``mask`` (inside 0..n-1), for its vertices only, ascending: a row is
        inside unless a vertex outside the mask holds it."""
        bits = self.vertex_bits()
        outside = 0
        for u, rows in bits.items():
            if not mask >> u & 1:
                outside |= rows
        inside = ~outside
        return {v: bits[v] & inside for v in _mask_vertices(mask)}


def _set_index(H: KGraph, cap: int = DEFAULT_COPY_CAP) -> _SetIndex:
    """The host's supporting-set index, built on first use; more than
    ``cap`` sets raises, during the build or from the cached index."""
    if H._sets is None:
        H._sets = _SetIndex(H, cap)
    _check_set_cap(len(H._sets.masks), cap)
    return H._sets


def _mask_vertices(m: int) -> tuple[int, ...]:
    """The sorted vertices of the vertex mask ``m``."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


# Byte tables: each byte with its bits reversed, and the digits "0" and "1"
# as the bytes 0 and 1.
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _picked(items: Sequence, bits: int) -> Iterator:
    """The items whose bit is set in ``bits`` (bit i for ``items[i]``), in
    order: ``bits``' binary digits, the lowest first, as 0/1 flags for
    ``compress``."""
    return compress(items, bin(bits)[:1:-1].encode().translate(_FLAGS))


def _vertex_columns(
    masks: Sequence[int], universe: Sequence[int], flags: bytes = b"01"
) -> Iterator[bytes]:
    """The transpose of the rows ``masks``, yielded one vertex's column at
    a time: for each vertex of ``universe``, in its order, one byte per row,
    the last row first, ``flags[1]`` where the row holds the vertex and
    ``flags[0]`` where it does not.  Every row must lie inside ``universe``.

    The masks are written out as bytes once; a vertex's column is then one
    slice of every row's byte holding it and one ``bytes.translate`` of
    that byte to the vertex's flag."""
    width = (max(universe, default=0) >> 3) + 1
    rows = b"".join(map(int.to_bytes, reversed(masks), repeat(width), repeat("little")))
    off, on = flags[:1], flags[1:]
    tables = [(off * (1 << b) + on * (1 << b)) * (128 >> b) for b in range(8)]
    return (rows[v >> 3::width].translate(tables[v & 7]) for v in universe)


def _row_bits(masks: Sequence[int], universe: Sequence[int]) -> dict[int, int]:
    """Each vertex of ``universe``, in its order, with its row bitset: bit r
    is set when ``masks[r]`` holds the vertex.  Every row must lie inside
    ``universe``.  A bitset is its column of "0"/"1" digits, read base 2."""
    columns = _vertex_columns(masks, universe)
    return {v: int(column, 2) if column else 0 for v, column in zip(universe, columns)}


def _check_set_cap(count: int, cap: int) -> None:
    """Raise once more than ``cap`` sets are counted; the partial count is
    the first count over the cap, however far the counting had got."""
    if count > cap:
        raise BudgetExceeded(
            f"supporting-set count exceeds cap {cap}", partial_count=cap + 1
        )


@dataclass(frozen=True)
class TightPathCount:
    total: int
    rainbow: Optional[int]  # None when no coloring was supplied


def count_tight_2paths(H: KGraph, coloring: Optional[dict] = None) -> TightPathCount:
    """Pairs of edges sharing k-1 vertices, and with a coloring of the edges,
    those pairs whose two edges differ in color."""
    if coloring is not None:
        dom = {tuple(sorted(e)) for e in coloring}
        if dom != set(H.edges):
            raise InvalidColoring("coloring domain must be exactly the edge set")
        coloring = {tuple(sorted(e)): c for e, c in coloring.items()}
    total = 0
    rainbow = 0 if coloring is not None else None
    for q, nbrs in H._neighborhood_index().items():
        pairs = len(nbrs) * (len(nbrs) - 1) // 2
        total += pairs
        if coloring is not None and pairs:
            by_color = Counter(coloring[tuple(sorted(q + (v,)))] for v in nbrs)
            rainbow += pairs - sum(m * (m - 1) // 2 for m in by_color.values())
    return TightPathCount(total, rainbow)


def blowup(F: KGraph, t: int) -> KGraph:
    """t-blowup: each vertex becomes a class of size t, each edge the complete
    k-partite k-graph across its classes."""
    if t < 1:
        raise ValueError("t must be at least 1")
    edges = []
    for e in F.edges:
        classes = [range(v * t, v * t + t) for v in e]
        for combo in itertools.product(*classes):
            edges.append(tuple(sorted(combo)))
    return KGraph(F.n * t, F.k, edges)
