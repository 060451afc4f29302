"""k-uniform hypergraphs with exact codegree, density and extremality primitives.

All arithmetic on densities and thresholds is exact (`fractions.Fraction`);
floating point never decides a verdict.  A KGraph is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor
from typing import Iterable, Optional, Sequence

from .errors import (
    FormatError,
    InvalidArity,
    InvalidDimension,
    InvalidUniformity,
    InvalidVertex,
    TooFewVertices,
    BudgetExceeded,
)


def canonical_vertex_set(vertices: Iterable[int]) -> tuple[int, ...]:
    """Sorted, duplicate-free tuple of vertex ids."""
    vs = tuple(sorted(set(vertices)))
    return vs


def _check_range(vs: Sequence[int], n: int) -> Sequence[int]:
    """The ascending ``vs``, once it lies in 0..n-1; InvalidVertex if not."""
    if vs and (vs[0] < 0 or vs[-1] >= n):
        raise InvalidVertex(f"{tuple(vs)} leaves the vertex range 0..{n - 1}")
    return vs


class KGraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1.

    Edges are stored as sorted tuples, deduplicated, iterated in
    lexicographic order, so every scan over a KGraph is reproducible.
    """

    __slots__ = ("n", "k", "_edges", "_edge_set", "_nbr", "_vertex_edges", "_sets")

    def __init__(self, n: int, k: int, edges: Iterable[Sequence[int]]):
        if k < 2:
            raise InvalidUniformity(f"uniformity k={k} must be at least 2")
        if n < 0:
            raise InvalidVertex(f"vertex count n={n} must be nonnegative")
        canon = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != k or len(set(t)) != k:
                raise InvalidArity(f"edge {t} does not have {k} distinct vertices")
            if t[0] < 0 or t[-1] >= n:
                raise InvalidVertex(f"edge {t} leaves the vertex range 0..{n - 1}")
            canon.add(t)
        self.n = n
        self.k = k
        self._edges = tuple(sorted(canon))
        self._edge_set = frozenset(self._edges)
        self._nbr = None
        self._vertex_edges = None
        self._sets = None  # supporting-set index, see patterns._set_index

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return self._edges

    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, e: Iterable[int]) -> bool:
        return tuple(sorted(e)) in self._edge_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KGraph)
            and self.n == other.n
            and self.k == other.k
            and self._edge_set == other._edge_set
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self._edge_set))

    def __repr__(self) -> str:
        return f"KGraph(n={self.n}, k={self.k}, edges={len(self._edges)})"

    # -- codegree ---------------------------------------------------------

    def _neighborhood_index(self) -> dict:
        # Lazy (k-1)-set -> neighborhood cache; codegree scans dominate
        # runtime, so build it once from the edge list.
        if self._nbr is None:
            idx: dict[tuple[int, ...], list[int]] = {}
            for e in self._edges:
                for i in range(self.k):
                    s = e[:i] + e[i + 1:]
                    idx.setdefault(s, []).append(e[i])
            self._nbr = {s: tuple(sorted(vs)) for s, vs in idx.items()}
        return self._nbr

    def _check_coset(self, S: Iterable[int]) -> tuple[int, ...]:
        s = tuple(sorted(S))
        if len(s) != self.k - 1 or len(set(s)) != self.k - 1:
            raise InvalidArity(f"{s} is not a set of {self.k - 1} distinct vertices")
        return _check_range(s, self.n)

    def neighborhood(self, S: Iterable[int]) -> tuple[int, ...]:
        """Vertices v with S + {v} an edge, for a (k-1)-set S."""
        s = self._check_coset(S)
        return self._neighborhood_index().get(s, ())

    def codegree(self, S: Iterable[int]) -> int:
        return len(self.neighborhood(S))

    def vertex_edges(self, v: int) -> tuple[tuple[int, ...], ...]:
        """All edges containing v."""
        if not 0 <= v < self.n:
            raise InvalidVertex(f"vertex {v} out of range")
        if self._vertex_edges is None:
            by_vertex: list[list] = [[] for _ in range(self.n)]
            for e in self._edges:
                for v_ in e:
                    by_vertex[v_].append(e)
            self._vertex_edges = tuple(tuple(lst) for lst in by_vertex)
        return self._vertex_edges[v]


def min_codegree(H: KGraph) -> tuple[int, tuple[int, ...]]:
    """Minimum codegree and its lexicographically least witness (k-1)-set."""
    if H.n < H.k - 1:
        raise TooFewVertices(f"need at least {H.k - 1} vertices, have {H.n}")
    best = None
    witness = None
    for s in itertools.combinations(range(H.n), H.k - 1):
        d = H.codegree(s)
        if best is None or d < best:
            best, witness = d, s
            if best == 0:
                break
    return best, witness


def density(H: KGraph) -> Fraction:
    """Exact edge density e(H) / C(n, k)."""
    if H.n < H.k:
        raise TooFewVertices(f"density needs n >= k, have n={H.n}, k={H.k}")
    return Fraction(H.edge_count(), comb(H.n, H.k))


def induced(H: KGraph, S: Iterable[int]) -> tuple[KGraph, dict[int, int]]:
    """Subgraph induced by S, relabelled 0..|S|-1 preserving order.

    Returns the relabelled graph and the old-vertex -> new-vertex map.
    """
    s = _check_range(canonical_vertex_set(S), H.n)
    relabel = {v: i for i, v in enumerate(s)}
    members = set(s)
    edges = [
        tuple(relabel[v] for v in e)
        for e in H.edges
        if all(v in members for v in e)
    ]
    return KGraph(len(s), H.k, edges), relabel


def extremal_witness_size(n: int, k: int) -> int:
    """Target witness size floor((2k-3) n / (2k-1))."""
    return ((2 * k - 3) * n) // (2 * k - 1)


@dataclass(frozen=True)
class ExtremalityVerdict:
    extremal: bool
    witness: Optional[tuple[int, ...]]
    size: int


# Node budget of the library's searches.
DEFAULT_NODE_BUDGET = 2_000_000


def is_gamma_extremal(H: KGraph, gamma: Fraction) -> ExtremalityVerdict:
    """Decide whether some induced subgraph on the target size has density <= gamma.

    The witness is the lexicographically first such set, found by a
    depth-first search in lexicographic order that cuts a set once its edges
    exceed gamma * C(target, k) (adding vertices removes no edge) or too few
    vertices remain: a branch and bound in the style of Carraghan and
    Pardalos (Oper. Res. Lett. 9, 1990).  Past ``DEFAULT_NODE_BUDGET`` sets
    it raises BudgetExceeded, never "not extremal".  gamma must be nonnegative.
    """
    gamma = Fraction(gamma)
    if gamma < 0:
        raise InvalidDimension("gamma must be nonnegative")
    n = H.n
    target = extremal_witness_size(n, H.k)
    if target < H.k:
        # No edges fit inside the witness, so its density vanishes.
        return ExtremalityVerdict(True, tuple(range(target)), target)
    # d(H[S]) <= gamma  <=>  e(H[S]) <= floor(gamma * C(target, k))
    limit = floor(gamma * comb(target, H.k))
    # Each edge is counted under its largest vertex, as the mask of the others.
    below: list[list[int]] = [[] for _ in range(n)]
    for e in H.edges:
        below[e[-1]].append(_mask(e[:-1]))
    stack = [(-1, 0, 0)]  # each prefix's last vertex, edge count and mask
    nodes = v = 0
    while len(stack) <= target:
        _, edges, inside = stack[-1]
        for v in range(v, n - target + len(stack)):
            count = edges
            for m in below[v]:
                if m & inside == m:
                    count += 1
                    if count > limit:
                        break
            else:  # the prefix plus v stays within the limit: extend it
                break
        else:  # no vertex from v on extends the prefix: backtrack
            if len(stack) == 1:
                return ExtremalityVerdict(False, None, target)
            v = stack.pop()[0] + 1
            continue
        nodes += 1
        if nodes > DEFAULT_NODE_BUDGET:
            raise BudgetExceeded(f"witness search exceeded {DEFAULT_NODE_BUDGET} nodes")
        stack.append((v, count, inside | 1 << v))
        v += 1
    return ExtremalityVerdict(True, tuple(u for u, _, _ in stack[1:]), target)


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# -- text instance format -------------------------------------------------
#
#   p kgraph <n> <k>
#   c free-form comment
#   e v1 ... vk        (0-based, ascending)
#
# Trailing newline required; duplicate edges rejected.


def format_kgraph(H: KGraph, comments: Sequence[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p kgraph {H.n} {H.k}")
    for e in H.edges:
        lines.append("e " + " ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def parse_kgraph(text: str) -> KGraph:
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline")
    n = k = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "kgraph":
                raise FormatError(f"line {lineno}: malformed problem line")
            try:
                n, k = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer n or k") from None
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            try:
                vs = tuple(int(x) for x in parts[1:])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-integer vertex") from exc
            if list(vs) != sorted(set(vs)):
                raise FormatError(f"line {lineno}: vertices not strictly ascending")
            if vs in seen:
                raise FormatError(f"line {lineno}: duplicate edge {vs}")
            seen.add(vs)
            edges.append(vs)
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise FormatError("no problem line")
    try:
        return KGraph(n, k, edges)
    except (InvalidArity, InvalidVertex, InvalidUniformity) as exc:
        raise FormatError(str(exc)) from exc


def load_kgraph(path) -> KGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_kgraph(text)


def save_kgraph(H: KGraph, path, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_kgraph(H, comments))


def complete_kgraph(n: int, k: int) -> KGraph:
    return KGraph(n, k, itertools.combinations(range(n), k))
