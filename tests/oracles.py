"""Independent oracles used to freeze expected values.

Nothing here imports solver internals: pattern containment is decided by
trying base/apex splits directly against the edge set, tilings by naive
recursive partition, lattice membership by bounded coefficient search.
``oracle_j_stage`` composes public solver functions only, as the route that
the pipeline's own J stage must agree with.
"""

import itertools

from tritile.errors import BudgetExceeded


def oracle_supports(H, S):
    S = tuple(sorted(S))
    k = H.k
    if len(S) != 2 * k - 1:
        return False
    for base in itertools.combinations(S, k - 1):
        spine = tuple(sorted(v for v in S if v not in base))
        if not H.has_edge(spine):
            continue
        for a, b in itertools.combinations(spine, 2):
            if H.has_edge(tuple(sorted(base + (a,)))) and H.has_edge(
                tuple(sorted(base + (b,)))
            ):
                return True
    return False


def oracle_price(block, duals, minimize):
    """(sum, j) for the column j of ``block`` whose rows' duals sum highest
    (lowest when not minimizing), the least j on ties, by plain sums."""
    sums = [sum(duals[r] for r in column) for column in block]
    best = max(sums) if minimize else min(sums)
    return best, sums.index(best)


def oracle_perfect_tiling(H):
    """Naive recursive partition search into pattern-supporting blocks."""
    s = 2 * H.k - 1
    if H.n % s != 0:
        return False

    def rec(remaining):
        if not remaining:
            return True
        head, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, s - 1):
            if oracle_supports(H, (head,) + combo):
                left = tuple(v for v in rest if v not in combo)
                if rec(left):
                    return True
        return False

    return rec(tuple(range(H.n)))


def oracle_lattice_member(generators, target, box=10):
    """Coefficient search over the box [-box, box]^len(generators)."""
    dim = len(target)
    for coeffs in itertools.product(range(-box, box + 1), repeat=len(generators)):
        if all(
            sum(c * g[i] for c, g in zip(coeffs, generators)) == target[i]
            for i in range(dim)
        ):
            return True
    return False


def oracle_robust(H, P, vector, removable, index_vector_fn, supports_fn):
    """Literal for-all-W check: every W of size <= removable leaves a copy
    with the given index vector."""
    n = H.n
    s = 2 * H.k - 1
    family = [
        S
        for S in itertools.combinations(range(n), s)
        if supports_fn(H, S) and index_vector_fn(P, S) == vector
    ]
    for size in range(removable + 1):
        for W in itertools.combinations(range(n), size):
            w = set(W)
            if not any(not (w & set(S)) for S in family):
                return False
    return True


def oracle_gamma_extremal(H, gamma, size):
    """The first subset of the target size, in lexicographic order, whose
    density is at most gamma, by direct count; None when there is none."""
    from fractions import Fraction
    from math import comb

    if size < H.k:
        return tuple(range(size))
    edges = [set(e) for e in H.edges]
    for S in itertools.combinations(range(H.n), size):
        members = set(S)
        count = sum(1 for e in edges if e <= members)
        if Fraction(count, comb(size, H.k)) <= gamma:
            return S
    return None


def oracle_automorphisms(pattern):
    """Brute-force count of edge-set-preserving vertex permutations."""
    edges = set(pattern.edges)
    count = 0
    for perm in itertools.permutations(range(pattern.n)):
        mapped = {tuple(sorted(perm[v] for v in e)) for e in edges}
        if mapped == edges:
            count += 1
    return count


def oracle_cover_search(universe, by_vertex, row_masks, accept=None):
    """Exact cover by re-filtering every vertex's full row list at every
    node: returns (rows or None, nodes).  The branching vertex is the
    uncovered one with the fewest live rows, the first in ``universe`` on
    ties; rows are tried in listed order; a node is a call that does not
    find the universe covered.  ``accept(chosen)`` prunes a partial cover."""
    full = 0
    for v in universe:
        full |= 1 << v
    nodes = 0

    def search(covered, chosen):
        nonlocal nodes
        if covered == full:
            return list(chosen)
        nodes += 1
        best = None
        for v in universe:
            if covered >> v & 1:
                continue
            live = [r for r in by_vertex[v] if not row_masks[r] & covered]
            if best is None or len(live) < len(best):
                best = live
        for r in best:
            chosen.append(r)
            if accept is None or accept(chosen):
                found = search(covered | row_masks[r], chosen)
                if found is not None:
                    return found
            chosen.pop()
        return None

    rows = search(0, [])
    return rows, nodes


def oracle_min_hit_decision(family, limit, budget):
    """Hitting set of <= limit vertices over the bitmask ``family``, or None,
    by re-filtering the list of members not yet hit at every node: each node
    branches on the vertices of the first such member, ascending, and more
    than ``budget`` nodes raise BudgetExceeded."""
    nodes = 0

    def rec(fam, depth, chosen):
        nonlocal nodes
        if not fam:
            return list(chosen)
        if depth == limit:
            return None
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"hitting-set search exceeded {budget} nodes")
        first = fam[0]
        v = 0
        m = first
        while m:
            if m & 1:
                rest = [f for f in fam if not f >> v & 1]
                chosen.append(v)
                found = rec(rest, depth + 1, chosen)
                if found is not None:
                    return found
                chosen.pop()
            m >>= 1
            v += 1
        return None

    return rec(family, 0, [])


def oracle_robust_vectors(sets, P, m, mode, budget, index_vector_fn, disjoint_fn):
    """``robust_vectors``' reports as (vector, status, value) triples,
    vectors ascending, over the vertex tuples ``sets`` in their order and
    floor(beta n) = m.  The sets are grouped one at a time by
    ``index_vector_fn``.  Exact mode decides each family by
    ``oracle_min_hit_decision`` and shrinks a hit to the least limit that
    still hits; packing-bound mode asks ``disjoint_fn(masks, m + 1,
    budget)``.  A BudgetExceeded leaves the vector unknown."""
    families = {}
    for S in sets:
        families.setdefault(index_vector_fn(P, S), []).append(sum(1 << v for v in S))
    out = []
    for vec in sorted(families):
        family = families[vec]
        status, value = "unknown", 0
        try:
            if mode == "exact":
                hit = oracle_min_hit_decision(family, m, budget)
                if hit is None:
                    status, value = "robust", m + 1
                else:
                    value = len(hit)
                    for limit in range(len(hit)):
                        if oracle_min_hit_decision(family, limit, budget) is not None:
                            value = limit
                            break
                    status = "not-robust"
            elif disjoint_fn(family, m + 1, budget) is not None:
                status, value = "robust", m + 1
        except BudgetExceeded:
            status, value = "unknown", 0
        out.append((vec, status, value))
    return out


def oracle_both_tilable(H, blocked, sizes, ends, budget, what, tilable_fn):
    """Every set C avoiding ``blocked`` with C plus each of the two tuples
    ``ends`` perfectly tilable by ``tilable_fn``, smallest first through
    ``sizes``, testing one candidate tuple at a time; more than ``budget``
    candidates raise BudgetExceeded naming the ``what`` search."""
    pool = [w for w in range(H.n) if w not in blocked]
    first, second = ends
    tried = 0
    for size in sizes:
        if size > len(pool):
            break
        for C in itertools.combinations(pool, size):
            tried += 1
            if tried > budget:
                raise BudgetExceeded(f"{what} search exceeded {budget} candidates")
            if tilable_fn(H, C + first) and tilable_fn(H, C + second):
                yield C


def oracle_connectors(H, u, v, t, blocked, budget, tilable_fn):
    """The connectors of u and v with at most t copies, smallest first."""
    s = 2 * H.k - 1
    sizes = range(s - 1, t * s, s)
    return oracle_both_tilable(H, blocked, sizes, ((u,), (v,)), budget, "connector", tilable_fn)


def oracle_absorbers(H, S, t, blocked, budget, tilable_fn):
    """The absorbers of the (2k-1)-tuple S with at most (2k-1)t copies,
    smallest first."""
    s = 2 * H.k - 1
    sizes = range(s, s * s * t + 1, s)
    return oracle_both_tilable(H, blocked, sizes, ((), S), budget, "absorber", tilable_fn)


def oracle_first_disjoint_rows(rows, want):
    """The first ``want`` row indices, in lexicographic order, whose rows are
    pairwise disjoint, or None, by trying every combination."""
    for combo in itertools.combinations(range(len(rows)), want):
        vertices = [v for r in combo for v in rows[r]]
        if len(vertices) == len(set(vertices)):
            return list(combo)
    return None


def oracle_max_packing(rows):
    """The most pairwise disjoint rows, by trying every count downward."""
    for want in range(len(rows), 0, -1):
        if oracle_first_disjoint_rows(rows, want) is not None:
            return want
    return 0


def oracle_row_bits(universe, rows):
    """Each vertex of ``universe``, in its order, with the bitset of the
    rows holding it (bit r for ``rows[r]``), one bit at a time."""
    return {v: sum(1 << r for r, row in enumerate(rows) if v in row) for v in universe}


def oracle_packed_rows(block, nrows, field_bits):
    """One int per row r < ``nrows``: field j, ``field_bits`` wide, is 1 when
    column j of ``block`` holds r, one field at a time."""
    return [
        sum(1 << (field_bits * j) for j, column in enumerate(block) if r in column)
        for r in range(nrows)
    ]


def oracle_supporting_sets(H):
    """Every (2k-1)-set supporting the pattern, in vertex-tuple order."""
    return [
        S for S in itertools.combinations(range(H.n), 2 * H.k - 1) if oracle_supports(H, S)
    ]


def oracle_j_stage(H, A, B, classes):
    """The extremal pipeline's J stage by the public route, on disjoint
    sorted A and B and a host whose J is (2k-1)-partite over ``classes``.

    J comes from ``build_auxiliary_graph``; its edge count and its first
    vertex of least degree, A before B, from ``corollary_check``.  J is then
    relabelled onto A + B by ``induced``, in order; its perfect fractional
    matching LP is ``perfect_fractional_tiling`` over J's edges as the
    ``sets`` list, and its first perfect matching is
    ``kpartite_perfect_matching``'s, mapped back to H's vertices.  Returns
    (edge count, (vertex, degree), LP answer, matching or None)."""
    from tritile.core import induced
    from tritile.exact import build_auxiliary_graph, corollary_check, kpartite_perfect_matching
    from tritile.fractional import perfect_fractional_tiling

    aux = build_auxiliary_graph(H, A, B)
    report = corollary_check(aux.graph, A, B, 1)
    J, relabel = induced(aux.graph, A + B)
    lp = perfect_fractional_tiling(J, sets=[(e, e) for e in J.edges])
    matching = kpartite_perfect_matching(J, [[relabel[v] for v in c] for c in classes])
    if matching is not None:
        back = sorted(relabel, key=relabel.__getitem__)
        matching = [tuple(back[v] for v in e) for e in matching]
    return report.edge_count, (report.worst_vertex, report.worst_degree), lp, matching
