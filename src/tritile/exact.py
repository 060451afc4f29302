"""Exact integral solvers.

Perfect tilings by exact cover over supporting sets, maximum tilings by
branch and bound with an exact fractional upper bound, k-partite perfect
matchings, the good/bad classification, the auxiliary (2k-1)-graph, and the
constructive extremal-case pipeline, all decided with exact arithmetic so a
failure is a genuine counterexample and never numeric noise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import comb
from operator import or_
from typing import Callable, Optional, Sequence

from .core import (
    DEFAULT_NODE_BUDGET,
    KGraph,
    _check_range,
    _mask,
    canonical_vertex_set,
    is_gamma_extremal,
)
from .errors import (
    BudgetExceeded,
    DivisibilityError,
    InvalidDimension,
    InvalidPartiteStructure,
)
from .fractional import (
    FarkasCertificate,
    _fractional_verdict,
    _IndexRows,
    _packing_lp,
    _set_columns,
)
from .patterns import (
    DEFAULT_COPY_CAP,
    Tiling,
    TriangleCopy,
    _mask_vertices,
    _row_bits,
    _set_index,
)


# -- exact cover engine ------------------------------------------------------


class _CoverSearch:
    """Exact cover of a vertex universe by disjoint rows.

    ``live`` maps each universe vertex, in universe order, to the bitset of
    the rows that contain it (bit r for row r), every such row lying inside
    the universe; ``row_masks`` gives each row's vertex mask.
    Deterministic: the branching vertex is the uncovered one with the fewest
    live rows (ties to the first in universe order), and its rows are tried
    by ascending index.  ``accept(chosen)``, when given, sees the partial
    cover after each appended row and prunes it by returning False.  Node
    budget guards runaway instances.

    Each node hands its live rows to its children, as dancing links does
    (Knuth, "Dancing Links", 2000), as one big int per vertex, the
    bit-parallel idiom of exact clique search (San Segundo et al., Comput.
    Oper. Res. 38, 2011).  The live rows of the chosen row's vertices are
    exactly the live rows that meet it, so a child ORs those into a kill
    mask and clears it from every other vertex's live rows.
    """

    def __init__(
        self,
        live: dict[int, int],
        row_masks: Sequence[int],
        budget: int,
        accept: Optional[Callable[[list[int]], bool]] = None,
    ):
        self.live = live
        self.row_masks = row_masks
        self.budget = budget
        self.accept = accept
        self.nodes = 0
        self.full = _mask(live)

    def run(self) -> Optional[list[int]]:
        return self._search(0, 0, self.live, [])

    def _search(
        self, covered: int, row: int, live: dict[int, int], chosen: list[int]
    ) -> Optional[list[int]]:
        """Search below the node reached by adding the row of mask ``row`` to
        ``covered``; ``live`` holds the parent's live rows of every vertex
        the parent left uncovered, in universe order."""
        covered |= row
        if covered == self.full:
            return list(chosen)
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"cover search exceeded {self.budget} nodes")
        if row:
            kill = 0
            for v, rows in live.items():
                if row >> v & 1:
                    kill |= rows
            keep = ~kill
            parent, live = live, {}
            for v, rows in parent.items():
                if not row >> v & 1:
                    rows &= keep
                    if not rows:
                        return None
                    live[v] = rows
        best = min(live.values(), key=int.bit_count)
        row_masks = self.row_masks
        accept = self.accept
        while best:
            low = best & -best
            best ^= low
            r = low.bit_length() - 1
            chosen.append(r)
            if accept is None or accept(chosen):
                found = self._search(covered, row_masks[r], live, chosen)
                if found is not None:
                    return found
            chosen.pop()
        return None


def _pack(
    rows: Sequence[int], bits: dict[int, int], lo: int, hi: int, budget: int
) -> Optional[list[int]]:
    """Branch and bound for more than ``lo`` and at most ``hi`` pairwise
    disjoint rows: the first packing of the most rows it finds, as ascending
    row indices, or None when none has more than ``lo``.

    ``rows`` are vertex masks of one size; ``bits`` maps each vertex of the
    universe, ascending, to its row bitset, every row lying inside it.  A
    node branches on the lowest undecided vertex: first on each live row
    holding it, by ascending index, then on leaving it uncovered.  A live
    row misses every decided vertex; a child clears the live rows of the
    vertices it decides, as ``_CoverSearch`` does.  A node whose rows plus
    its undecided vertices over the row size cannot beat the best is cut.
    On rows sorted by vertex tuple the nodes meet the packings in
    lexicographic order, so the first packing of ``hi`` rows is the least.
    A blown budget raises with the best count so far and ``hi`` as bounds.
    """
    size = rows[0].bit_count() if rows else 1
    full = _mask(bits)
    best = None
    nodes = 0

    def search(decided: int, live: int, chosen: list[int]) -> None:
        nonlocal lo, best, nodes
        if lo >= hi:
            return
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"packing search exceeded {budget} nodes", lower=lo, upper=hi
            )
        if len(chosen) > lo:
            lo = len(chosen)
            best = sorted(chosen)
        free = full & ~decided
        if len(chosen) + free.bit_count() // size <= lo:
            return
        low = free & -free
        v = low.bit_length() - 1
        branch = bits[v] & live
        while branch:
            r = (branch & -branch).bit_length() - 1
            branch ^= 1 << r
            row, kill = rows[r], 0
            for u in _mask_vertices(row):
                kill |= bits[u]
            chosen.append(r)
            search(decided | row, live & ~kill, chosen)
            chosen.pop()
            if lo >= hi:
                return
        search(decided | low, live & ~bits[v], chosen)

    search(0, (1 << len(rows)) - 1, [])
    return best


def _disjoint_rows(rows: Sequence[int], want: int, budget: int) -> Optional[list[int]]:
    """The lexicographically first ``want`` pairwise disjoint rows of the
    vertex masks ``rows``, all of one size and sorted by vertex tuple, or
    None.  A blown budget raises without bounds: a search for ``want`` rows
    certifies none."""
    if want == 0:
        return []
    bits = _row_bits(rows, _mask_vertices(reduce(or_, rows, 0)))
    try:
        return _pack(rows, bits, want - 1, want, budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(str(exc)) from None


# -- tilings -------------------------------------------------------------------


def perfect_tiling(
    H: KGraph,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    use_lp: bool = True,
) -> Optional[Tiling]:
    """Perfect tiling of H, or None with the non-existence fully decided.

    Divisibility is checked first; then (by default) the fractional
    relaxation, whose Farkas certificate already rules out an integral
    tiling; the remaining cases are decided by exact cover over supporting
    sets.  A blown budget raises, it never reports "none".  Only the
    tiling's own copies are built.
    """
    return _decide_perfect_tiling(H, budget=budget, use_lp=use_lp)[0]


def _decide_perfect_tiling(
    H: KGraph,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    use_lp: bool = True,
) -> tuple[Optional[Tiling], Optional[str], Optional[FarkasCertificate]]:
    """``perfect_tiling`` plus the layer that decided "none".

    Returns ``(tiling, None, None)`` on success, ``(None, "farkas",
    certificate)`` when the fractional relaxation is infeasible, and
    ``(None, "divisibility" | "cover", None)`` otherwise.  A host with no
    supporting set has an infeasible relaxation, so with the LP it gets a
    certificate (-1 on every vertex); without it, "cover" with no search.
    """
    s = 2 * H.k - 1
    if H.n % s != 0:
        return None, "divisibility", None
    if H.n == 0:
        return Tiling((), 0), None, None
    index = _set_index(H)
    if use_lp:
        verdict = _fractional_verdict(H.n, _set_columns(H))
        if isinstance(verdict, FarkasCertificate):
            return None, "farkas", verdict
    if not index.masks:
        return None, "cover", None
    rows = _CoverSearch(index.vertex_bits(), index.masks, budget).run()
    if rows is None:
        return None, "cover", None
    return Tiling(tuple(map(index.witness, rows)), H.n), None, None


def max_tiling(H: KGraph, *, budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, Tiling]:
    """Maximum number of disjoint copies with a witness.

    The packing search ``_pack`` on the host index's rows; the exact LP
    optimum of the packing relaxation caps it from above, greedy packings
    seed it from below.  On budget exhaustion raises BudgetExceeded carrying
    the certified [lower, upper] bounds.  Only the packing's own copies are
    built.
    """
    index = _set_index(H)
    masks = index.masks
    if not masks:
        return 0, Tiling((), H.n)
    lp_value, sx = _packing_lp(H.n, _set_columns(H))
    hi = int(lp_value)  # floor: weak duality bound for integral packings

    def greedy(order: Sequence[int]) -> list[int]:
        covered = 0
        out = []
        for r in order:
            if not masks[r] & covered:
                out.append(r)
                covered |= masks[r]
        return out

    best = greedy(range(len(masks)))
    # The LP's support first, heaviest first, then every row in row order;
    # a support row met again is skipped, as it is in the packing or meets it.
    support = sorted((-x, j) for j, x in zip(sx.basis, sx.xb) if j < sx.m and x)
    alt = greedy(itertools.chain((j for _, j in support), range(len(masks))))
    best = sorted(max(best, alt, key=len))
    if len(best) < hi:
        best = _pack(masks, index.vertex_bits(), len(best), hi, budget) or best
    return len(best), Tiling(tuple(map(index.witness, best)), H.n)


# -- k-partite matchings and degree conditions ---------------------------------


def _check_partite(J: KGraph, classes: Sequence[Sequence[int]]):
    blocks = [canonical_vertex_set(c) for c in classes]
    flat = [v for b in blocks for v in b]
    if len(flat) != len(set(flat)):
        raise InvalidPartiteStructure("classes overlap")
    if len(blocks) != J.k:
        raise InvalidPartiteStructure(
            f"{len(blocks)} classes for a {J.k}-uniform graph"
        )
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise InvalidPartiteStructure(f"class sizes differ: {sorted(sizes)}")
    where = {}
    for i, b in enumerate(blocks):
        for v in b:
            where[v] = i
    for e in J.edges:
        idxs = [where.get(v) for v in e]
        if None in idxs or len(set(idxs)) != J.k:
            raise InvalidPartiteStructure(f"edge {e} is not transversal")
    return blocks


def kpartite_perfect_matching(
    J: KGraph,
    classes: Sequence[Sequence[int]],
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[list[tuple[int, ...]]]:
    """Exact perfect-matching decision in a balanced k-partite k-graph."""
    blocks = _check_partite(J, classes)
    universe = sorted(v for b in blocks for v in b)
    masks = list(map(_mask, J.edges))
    rows = _CoverSearch(_row_bits(masks, universe), masks, budget).run()
    return None if rows is None else [J.edges[r] for r in rows]


@dataclass(frozen=True)
class DegreeReport:
    satisfied: bool
    worst_vertex: int
    worst_degree: int
    threshold: Fraction


def _least_degree(degrees: dict[int, int]) -> Optional[tuple[int, int]]:
    """(vertex, degree) of the first vertex of least degree in ``degrees``,
    in its order, or None when it is empty."""
    return min(degrees.items(), key=lambda vd: vd[1], default=None)


def dh_condition(J: KGraph, classes: Sequence[Sequence[int]]) -> DegreeReport:
    """Per-vertex degree >= (k-1) m^(k-1) / k in a balanced k-partite k-graph."""
    blocks = _check_partite(J, classes)
    universe = sorted(v for b in blocks for v in b)
    worst = _least_degree({v: len(J.vertex_edges(v)) for v in universe})
    if worst is None:
        raise InvalidPartiteStructure("classes are empty")
    m = len(blocks[0])
    k = J.k
    threshold = Fraction((k - 1) * m ** (k - 1), k)
    return DegreeReport(worst[1] >= threshold, *worst, threshold)


def corollary_thresholds(k: int, n: int, beta: Fraction) -> tuple[Fraction, Fraction]:
    """Edge and per-vertex thresholds for the dense-auxiliary-graph matching:
    e(J) >= (1-beta) C((2k-3)n, 2k-3) C(2n, 2) and
    d(v) >= n^(2k-2) / (2k-1)^((k+1)^2)."""
    beta = Fraction(beta)
    edge_thr = (1 - beta) * comb((2 * k - 3) * n, 2 * k - 3) * comb(2 * n, 2)
    vertex_thr = Fraction(n ** (2 * k - 2), (2 * k - 1) ** ((k + 1) ** 2))
    return edge_thr, vertex_thr


@dataclass(frozen=True)
class CorollaryReport:
    satisfied: bool
    edge_count: int
    edge_threshold: Fraction
    worst_vertex: int
    worst_degree: int
    vertex_threshold: Fraction


def corollary_check(
    J: KGraph, A: Sequence[int], B: Sequence[int], beta: Fraction
) -> CorollaryReport:
    """Check the (C1)/(C2) thresholds for a (2k-1)-graph J on A + B with
    |A| = (2k-3) n', |B| = 2 n'."""
    A = _check_range(canonical_vertex_set(A), J.n)
    B = _check_range(canonical_vertex_set(B), J.n)
    if J.k % 2 == 0 or J.k < 3:
        raise InvalidPartiteStructure(f"auxiliary graph must be (2k-1)-uniform, got {J.k}")
    k = (J.k + 1) // 2
    if len(B) % 2 != 0 or len(A) * 2 != (2 * k - 3) * len(B):
        raise InvalidPartiteStructure(
            f"|A|={len(A)}, |B|={len(B)} violates the (2k-3):2 split"
        )
    if not B:
        raise InvalidPartiteStructure("B is empty")
    if set(A) & set(B):
        raise InvalidPartiteStructure("A and B meet")
    outside = ~_mask(A + B)
    for e in J.edges:
        if _mask(e) & outside:
            raise InvalidPartiteStructure(f"edge {e} leaves A + B")
    edge_thr, vertex_thr = corollary_thresholds(k, len(B) // 2, beta)
    worst_v, worst_d = _least_degree({v: len(J.vertex_edges(v)) for v in A + B})
    ok = J.edge_count() >= edge_thr and worst_d >= vertex_thr
    return CorollaryReport(ok, J.edge_count(), edge_thr, worst_v, worst_d, vertex_thr)


# -- good/bad classification and the auxiliary graph ---------------------------


@dataclass(frozen=True)
class GoodBadSplit:
    good: tuple[tuple[int, ...], ...]
    bad: tuple[tuple[int, ...], ...]
    bad_bound_ok: bool  # #bad <= sqrt(gamma) n^(k-1)


def classify_good_bad(H: KGraph, S: Sequence[int], gamma: Fraction) -> GoodBadSplit:
    """Split the (k-1)-subsets of S: bad when |N(Q) and S| > sqrt(gamma) n.

    The square-root comparison is exact: count > sqrt(g) n iff count^2 > g n^2.
    """
    gamma = Fraction(gamma)
    S = canonical_vertex_set(S)
    members = set(S)
    n = H.n
    good, bad = [], []
    for Q in itertools.combinations(S, H.k - 1):
        inside = sum(1 for v in H.neighborhood(Q) if v in members)
        if inside * inside > gamma * n * n:
            bad.append(Q)
        else:
            good.append(Q)
    bound_ok = Fraction(len(bad)) ** 2 <= gamma * Fraction(n) ** (2 * (H.k - 1))
    return GoodBadSplit(tuple(good), tuple(bad), bound_ok)


@dataclass(frozen=True)
class AuxiliaryGraph:
    graph: KGraph  # (2k-1)-uniform on the host's vertex ids
    A: tuple[int, ...]
    B: tuple[int, ...]
    copy_map: dict  # edge tuple -> witness TriangleCopy

    def to_json(self) -> dict:
        return {
            "edges": [list(e) for e in self.graph.edges],
            "A": list(self.A),
            "B": list(self.B),
        }


def build_auxiliary_graph(
    H: KGraph,
    A: Sequence[int],
    B: Sequence[int],
    *,
    cap: int = DEFAULT_COPY_CAP,
) -> AuxiliaryGraph:
    """All (2k-1)-sets with 2k-3 vertices in A and 2 in B supporting the
    pattern, each with its least witness copy.

    For disjoint A and B these are the rows of the host's set index that lie
    inside A and B together and meet B twice.  ``cap`` bounds the host's
    supporting sets: more than ``cap`` raises BudgetExceeded with
    ``partial_count == cap + 1``.
    """
    A = _check_range(canonical_vertex_set(A), H.n)
    B = _check_range(canonical_vertex_set(B), H.n)
    index = _set_index(H, cap)
    copy_map = {index[r]: index.witness(r) for r in _aux_rows(index.masks, A, B)}
    return AuxiliaryGraph(KGraph(H.n, 2 * H.k - 1, copy_map), A, B, copy_map)


def _aux_rows(masks: Sequence[int], A: Sequence[int], B: Sequence[int]) -> list[int]:
    """The rows of the set index ``masks`` inside A + B that meet B twice:
    for disjoint A and B, the auxiliary graph's edges, in row order."""
    b_mask = _mask(B)
    outside = ~(_mask(A) | b_mask)
    return [r for r, m in enumerate(masks) if not m & outside and (m & b_mask).bit_count() == 2]


# -- the extremal-case pipeline -------------------------------------------------


@dataclass(frozen=True)
class StageReport:
    stage: str  # witness | good-bad | X | matching-M | Tk-for-X | build-J | DH-check | J-matching
    status: str  # "ok" | "failed"
    detail: str = ""

    def to_json(self) -> dict:
        return {"stage": self.stage, "status": self.status, "detail": self.detail}


@dataclass
class PipelineResult:
    tiling: Optional[Tiling]
    stages: list[StageReport] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.tiling is not None

    def to_json(self) -> dict:
        return {
            "succeeded": self.succeeded,
            "stages": [s.to_json() for s in self.stages],
            "tiling": self.tiling.to_json() if self.tiling else None,
        }


def _cmp_root(x, scale, gamma: Fraction, power: int, explicit) -> int:
    """The sign of x - gamma^(1/power) * scale, for x >= 0 and scale > 0, or
    of x - explicit * scale when ``explicit`` is given, without leaving Q."""
    if explicit is not None:
        lhs, rhs = x, Fraction(explicit) * scale
    else:
        lhs, rhs = Fraction(x) ** power, gamma * Fraction(scale) ** power
    return (lhs > rhs) - (lhs < rhs)


def extremal_pipeline(
    H: KGraph,
    gamma: Fraction,
    *,
    witness: Optional[Sequence[int]] = None,
    gamma_prime: Optional[Fraction] = None,
    beta: Optional[Fraction] = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> PipelineResult:
    """Constructive tiling pipeline for near-extremal hosts, run at finite n.

    Follows the constructive argument stage by stage with exact arithmetic:
    the witness (``is_gamma_extremal``'s, unless given), its good/bad split,
    the sparse-attachment set X, a matching covering X through good sets,
    one copy per matched edge, the auxiliary graph J on the residual split,
    its density thresholds, and a perfect matching in J, which a Farkas
    certificate of J's fractional relaxation refutes before any search.
    Any stage may fail honestly on small hosts; the report says which one;
    a blown budget raises.  Defaults: gamma' = gamma^(1/4), beta =
    gamma^(1/8), both handled by power comparisons so verdicts stay exact.
    gamma and any given gamma' and beta must be nonnegative.
    """
    gamma = Fraction(gamma)
    for name, value in (("gamma", gamma), ("gamma_prime", gamma_prime), ("beta", beta)):
        if value is not None and value < 0:
            raise InvalidDimension(f"{name} must be nonnegative")
    k = H.k
    n = H.n
    s = 2 * k - 1
    stages: list[StageReport] = []
    result = PipelineResult(None, stages)

    def fail(stage: str, detail: str) -> PipelineResult:
        stages.append(StageReport(stage, "failed", detail))
        return result

    def ok(stage: str, detail: str = "") -> None:
        stages.append(StageReport(stage, "ok", detail))

    if n % s != 0:
        raise DivisibilityError(f"n={n} not divisible by {s}")

    # witness
    if witness is None:
        verdict = is_gamma_extremal(H, gamma)
        if not verdict.extremal:
            return fail("witness", f"host is not {gamma}-extremal at the target size")
        S = verdict.witness
    else:
        S = canonical_vertex_set(witness)
    target = ((2 * k - 3) * n) // s
    if len(S) != target:
        return fail("witness", f"witness size {len(S)} != {target}")
    ok("witness", f"|S|={len(S)}")

    # good-bad
    split = classify_good_bad(H, S, gamma)
    good_set = set(split.good)
    ok("good-bad", f"good={len(split.good)} bad={len(split.bad)}")

    # X: vertices outside S in few transversal edges
    S_members = set(S)
    x_threshold = Fraction(n ** (k - 1), s ** k)
    X = []
    for v in sorted(set(range(n)) - S_members):
        cnt = sum(1 for e in H.vertex_edges(v) if sum(1 for u in e if u in S_members) == k - 1)
        if cnt < x_threshold:
            X.append(v)
    X = tuple(X)
    A = tuple(sorted(S + X))
    B = tuple(sorted(set(range(n)) - set(A)))
    ok("X", f"|X|={len(X)} |A|={len(A)} |B|={len(B)}")

    # matching M in H[A], every edge containing a good (k-1)-set
    a_members = set(A)
    m_candidates = []
    for e in H.edges:
        if not set(e) <= a_members:
            continue
        goods = [q for q in itertools.combinations(e, k - 1) if q in good_set]
        if goods:
            m_candidates.append((e, goods[0]))  # least good set: combinations are sorted
    m_rows = _disjoint_rows([_mask(e) for e, _ in m_candidates], len(X), budget)
    if m_rows is None:
        return fail(
            "matching-M",
            f"no matching of size |X|={len(X)} through good sets "
            f"({len(m_candidates)} candidate edges)",
        )
    matching = [m_candidates[r] for r in m_rows]
    ok("matching-M", f"size={len(matching)}")

    # one copy per matched edge, each with a single vertex in B
    used = set()
    v_of_m = {v for e, _ in matching for v in e}
    copies_for_x: list[TriangleCopy] = []
    b_members = set(B)
    for e, q in matching:
        w = next(v for v in e if v not in q)
        avail_a = [v for v in A if v not in v_of_m and v not in used]
        if len(avail_a) < k - 2:
            return fail("Tk-for-X", "ran out of fresh vertices in A")
        z = tuple(avail_a[: k - 2])
        zw = tuple(sorted(z + (w,)))
        nb_b = [v for v in H.neighborhood(zw) if v in b_members]
        copy = None
        if _cmp_root(len(nb_b), n, gamma, 4, gamma_prime) >= 0:
            q_nbrs = set(H.neighborhood(q))
            common = [y for y in nb_b if y not in v_of_m and y not in used and y in q_nbrs]
            if common:
                y = common[0]
                copy = TriangleCopy(q, (w, y), z)
        if copy is None:
            nb_a = [
                v
                for v in H.neighborhood(zw)
                if v in a_members and v not in v_of_m and v not in used and v not in zw
            ]
            for cand in itertools.combinations(nb_a, k - 1):
                if cand not in good_set:
                    continue
                c_nb = [
                    y
                    for y in H.neighborhood(cand)
                    if y in b_members and y not in used and y not in v_of_m
                ]
                if c_nb:
                    copy = TriangleCopy(zw, (cand[0], cand[1]), cand[2:] + (c_nb[0],))
                    break
        if copy is None:
            return fail("Tk-for-X", f"no copy through matched edge {e}")
        copies_for_x.append(copy)
        used.update(copy.vertices)
    ok("Tk-for-X", f"copies={len(copies_for_x)}")

    A_rest = tuple(v for v in A if v not in used)
    B_rest = tuple(v for v in B if v not in used)
    n1 = n - s * len(X)
    if len(A_rest) * 2 != (2 * k - 3) * len(B_rest) or len(A_rest) + len(B_rest) != n1:
        return fail(
            "build-J",
            f"residual split |A'|={len(A_rest)}, |B'|={len(B_rest)} is off balance",
        )
    # J: the rows of the host's set index inside A'+B' that meet B' twice
    index = _set_index(H)
    J = _IndexRows(index, _aux_rows(index.masks, A_rest, B_rest), sorted(A_rest + B_rest))
    ok("build-J", f"edges={len(J)}")

    # density thresholds on J, its degrees read from its vertex row bitsets
    full = comb(len(A_rest), 2 * k - 3) * comb(len(B_rest), 2)
    deficit = full - len(J)
    p1 = deficit < 0 or _cmp_root(deficit, full, gamma, 8, beta) <= 0
    vertex_thr = Fraction(n1 ** (2 * k - 2), s ** ((k + 1) ** 2 + 2 * k - 2))
    bits = _row_bits(J.masks, J.universe)
    worst = _least_degree({v: bits[v].bit_count() for v in A_rest + B_rest})
    p2 = worst is not None and worst[1] >= vertex_thr
    if not (p1 and p2):
        return fail(
            "DH-check",
            f"P1={'ok' if p1 else 'fail'} (deficit {deficit}/{full}), "
            f"P2={'ok' if p2 else 'fail'} (worst degree {worst})",
        )
    ok("DH-check", f"deficit={deficit}/{full}, worst degree={worst}")

    # perfect matching in J: a Farkas certificate of its fractional
    # relaxation, over A'+B' renumbered in order, rules one out first
    farkas = isinstance(_fractional_verdict(n1, J.columns()), FarkasCertificate)
    rows = None if farkas else _CoverSearch(bits, J.masks, budget).run()
    if rows is None:
        return fail("J-matching", "auxiliary graph has no perfect matching")
    ok("J-matching", f"size={len(rows)}")

    tiling = Tiling(tuple(copies_for_x) + tuple(map(J.witness, rows)), n)
    if not tiling.perfect:
        raise ArithmeticError("internal: assembled tiling is not perfect")
    result.tiling = tiling
    return result
