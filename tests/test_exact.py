import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

from tritile import core
from tritile.core import KGraph, complete_kgraph, is_gamma_extremal
from tritile.constructions import extremal_construction, random_with_codegree
from tritile.errors import BudgetExceeded, InvalidDimension, InvalidPartiteStructure
from tritile.exact import (
    _disjoint_rows,
    build_auxiliary_graph,
    classify_good_bad,
    corollary_check,
    corollary_thresholds,
    dh_condition,
    extremal_pipeline,
    kpartite_perfect_matching,
    max_tiling,
    perfect_tiling,
)
from tritile.lattice import VertexPartition, index_vector, perfectly_tilable, robust_vectors
from tritile.patterns import _set_index, _SetIndex
from tritile.rainbow import GraphFamily, rainbow_perfect_tiling
from tritile import fractional
from tritile.fractional import packing_lp_value, perfect_fractional_tiling, FractionalTiling
from tritile.validate import check_copy, check_matching, check_tiling

from oracles import oracle_perfect_tiling


def test_perfect_tiling_complete_15():
    t = perfect_tiling(complete_kgraph(15, 3))
    assert t is not None and t.perfect and len(t.copies) == 3
    assert check_tiling(complete_kgraph(15, 3), t, require_perfect=True)


def test_perfect_tiling_extremal_none():
    assert perfect_tiling(extremal_construction(3, 15).graph) is None
    assert perfect_tiling(extremal_construction(4, 14).graph) is None


def test_perfect_tiling_extremal_none_without_lp():
    # pure search agrees with the certificate road on the small instance
    assert perfect_tiling(extremal_construction(3, 10).graph, use_lp=False) is None


def test_perfect_tiling_divisibility():
    assert perfect_tiling(complete_kgraph(12, 3)) is None


def test_perfect_tiling_oracle_agreement():
    for seed in range(40):
        n = 10 if seed % 3 else 5
        H = random_with_codegree(n, 3, 2 + seed % 2, seed=seed)
        mine = perfect_tiling(H)
        assert (mine is not None) == oracle_perfect_tiling(H)
        if mine is not None:
            assert check_tiling(H, mine, require_perfect=True)


def test_max_tiling_extremal_values():
    assert max_tiling(extremal_construction(3, 15).graph)[0] == 2
    assert max_tiling(extremal_construction(3, 10).graph)[0] == 1
    assert max_tiling(extremal_construction(4, 14).graph)[0] == 1


def test_max_tiling_complete_and_edgeless():
    size, witness = max_tiling(complete_kgraph(15, 3))
    assert size == 3 and witness.perfect
    assert max_tiling(KGraph(9, 3, []))[0] == 0


def test_max_tiling_vs_lp_bound(small_corpus):
    for _, H in small_corpus[:15]:
        size, witness = max_tiling(H)
        assert check_tiling(H, witness)
        assert len(witness.copies) == size
        lp, _ = packing_lp_value(H)
        assert size <= lp


def test_max_tiling_at_least_perfect(small_corpus):
    for _, H in small_corpus[:15]:
        t = perfect_tiling(H)
        if t is not None:
            assert max_tiling(H)[0] == H.n // 5


@pytest.fixture
def witness_builds(monkeypatch):
    """Every (index, row) whose least witness is built, in build order, and
    every FractionalTiling the LP layer builds from a basis."""
    built = {"witnesses": [], "tilings": []}
    witness, basis_tiling = _SetIndex.witness, fractional._basis_tiling

    def counting_witness(index, r):
        if index._witnesses is None or index._witnesses[r] is None:
            built["witnesses"].append((index, r))
        return witness(index, r)

    def counting_tiling(*args):
        tiling = basis_tiling(*args)
        built["tilings"].append(tiling)
        return tiling

    monkeypatch.setattr(_SetIndex, "witness", counting_witness)
    monkeypatch.setattr(fractional, "_basis_tiling", counting_tiling)
    return built


def _built_copies(built):
    return [index.witness(r) for index, r in built["witnesses"]]


def test_perfect_tiling_builds_only_the_witnesses_of_its_tiling(witness_builds):
    H = extremal_construction(3, 20).graph
    assert perfect_tiling(H) is None  # decided by a Farkas certificate
    assert witness_builds == {"witnesses": [], "tilings": []}
    for H in (
        complete_kgraph(10, 3),
        complete_kgraph(15, 3),
        random_with_codegree(15, 3, 4, seed=0),
        complete_kgraph(7, 4),
    ):
        witness_builds["witnesses"].clear()
        tiling = perfect_tiling(H)
        assert tiling is not None and tiling.perfect
        assert [id(c) for c in _built_copies(witness_builds)] == [id(c) for c in tiling.copies]
    assert witness_builds["tilings"] == []  # the LP prefilter builds no FractionalTiling


def test_max_tiling_builds_only_the_witnesses_of_its_packing(witness_builds):
    for H in (
        extremal_construction(3, 20).graph,
        extremal_construction(4, 14).graph,
        random_with_codegree(13, 3, 3, seed=5),
        complete_kgraph(10, 3),
    ):
        witness_builds["witnesses"].clear()
        value, tiling = max_tiling(H)
        assert value == len(tiling.copies) > 0
        assert [id(c) for c in _built_copies(witness_builds)] == [id(c) for c in tiling.copies]
    assert witness_builds["tilings"] == []


def test_pipeline_builds_only_the_witnesses_of_its_j_matching(witness_builds):
    H = _crafted(3, 15)
    result = extremal_pipeline(H, Fraction(1))
    assert result.succeeded
    matched = int(result.stages[-1].detail.removeprefix("size="))
    assert result.stages[-1].stage == "J-matching" and 0 < matched < len(_set_index(H))
    # the copies placed for X are built by the pipeline itself, not read
    # from the index, and come first
    j_copies = result.tiling.copies[len(result.tiling.copies) - matched:]
    assert [id(c) for c in _built_copies(witness_builds)] == [id(c) for c in j_copies]
    assert witness_builds["tilings"] == []


def test_b_avoiding_lp_builds_only_the_witnesses_of_its_basis(witness_builds):
    H = complete_kgraph(10, 3)
    answer = fractional.b_avoiding_fractional_tiling(H, KGraph(10, 2, [(0, 1), (2, 5)]))
    assert isinstance(answer, FractionalTiling) and answer.perfect
    assert witness_builds["tilings"] == [answer]
    assert [id(c) for c in _built_copies(witness_builds)] == [id(c) for c in answer.weights]
    assert all({0, 1} - set(c.vertices) and {2, 5} - set(c.vertices) for c in answer.weights)
    # a certificate needs no witness: every set avoiding 0's pairs misses 0
    witness_builds["witnesses"].clear()
    star = KGraph(10, 2, [(0, v) for v in range(1, 10)])
    assert isinstance(fractional.b_avoiding_fractional_tiling(H, star), fractional.FarkasCertificate)
    assert witness_builds["witnesses"] == []


def test_kpartite_matching_simple():
    J = KGraph(4, 2, [(0, 2), (1, 3)])
    m = kpartite_perfect_matching(J, [[0, 1], [2, 3]])
    assert m == [(0, 2), (1, 3)]
    assert check_matching(J, m)


def test_kpartite_matching_hall_violation():
    star = KGraph(4, 2, [(0, 2), (0, 3)])
    assert kpartite_perfect_matching(star, [[0, 1], [2, 3]]) is None


def test_kpartite_matching_three_partite():
    J = KGraph(6, 3, [(0, 2, 4), (1, 3, 5), (0, 3, 4)])
    m = kpartite_perfect_matching(J, [[0, 1], [2, 3], [4, 5]])
    assert m is not None
    assert check_matching(J, m)


def test_kpartite_matching_rejects_non_transversal():
    J = KGraph(4, 2, [(0, 1)])
    with pytest.raises(InvalidPartiteStructure):
        kpartite_perfect_matching(J, [[0, 1], [2, 3]])


def test_kpartite_matching_random_dense_bipartite():
    # min degree >= n/2 on both sides forces a perfect matching
    from tritile.constructions import SplitMix64

    for seed in range(30):
        n = 8 + seed % 3  # up to n = 10
        rng = SplitMix64(seed * 63 + 5)
        need = (n + 1) // 2
        adj = [[rng.next_u64() % 2 == 0 for _ in range(n)] for _ in range(n)]
        for i in range(n):
            while sum(adj[i]) < need:
                adj[i][rng.below(n)] = True
        for j in range(n):
            while sum(adj[i][j] for i in range(n)) < need:
                adj[rng.below(n)][j] = True
        J = KGraph(2 * n, 2, [(i, n + j) for i in range(n) for j in range(n) if adj[i][j]])
        classes = [list(range(n)), list(range(n, 2 * n))]
        assert dh_condition(J, classes).satisfied
        m = kpartite_perfect_matching(J, classes)
        assert m is not None and check_matching(J, m)


def test_perfect_tiling_budget_exceeded():
    from tritile.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        perfect_tiling(complete_kgraph(10, 3), budget=0, use_lp=False)


def test_degenerate_uniformity_and_empty_hosts():
    # k=2: tiling by graph triangles
    K6 = complete_kgraph(6, 2)
    t = perfect_tiling(K6)
    assert t is not None and t.perfect and len(t.copies) == 2
    assert max_tiling(K6)[0] == 2
    # empty host is perfectly tiled by nothing
    t0 = perfect_tiling(KGraph(0, 3, []))
    assert t0 is not None and t0.perfect and t0.copies == ()


def test_dh_condition_values():
    complete_bip = KGraph(6, 2, [(i, j) for i in range(3) for j in range(3, 6)])
    rep = dh_condition(complete_bip, [[0, 1, 2], [3, 4, 5]])
    assert rep.satisfied and rep.threshold == Fraction(3, 2)
    sparse = KGraph(4, 2, [(0, 2)])
    rep = dh_condition(sparse, [[0, 1], [2, 3]])
    assert not rep.satisfied
    four = KGraph(8, 2, [(i, j) for i in range(4) for j in range(4, 8)])
    assert dh_condition(four, [[0, 1, 2, 3], [4, 5, 6, 7]]).threshold == 2


def test_degree_checks_reject_empty_classes():
    with pytest.raises(InvalidPartiteStructure, match="classes are empty"):
        dh_condition(KGraph(3, 3, []), [(), (), ()])
    J = KGraph(5, 5, [(0, 1, 2, 3, 4)])
    with pytest.raises(InvalidPartiteStructure, match="B is empty"):
        corollary_check(J, (), (), Fraction(0))


def test_corollary_check_rejects_meeting_parts_and_stray_edges():
    with pytest.raises(InvalidPartiteStructure, match="A and B meet"):
        corollary_check(KGraph(3, 3, [(0, 1, 2)]), (0,), (0, 1), 0)
    with pytest.raises(InvalidPartiteStructure, match=r"edge \(0, 1, 3\) leaves A \+ B"):
        corollary_check(KGraph(4, 3, [(0, 1, 3)]), (0,), (1, 2), 0)


def test_corollary_thresholds_hand_computed():
    edge_thr, vertex_thr = corollary_thresholds(3, 5, Fraction(0))
    assert edge_thr == comb(15, 3) * comb(10, 2) == 20475
    assert vertex_thr == Fraction(5**4, 5**16) == Fraction(1, 244140625)
    edge_thr_b, _ = corollary_thresholds(3, 5, Fraction(1, 2))
    assert edge_thr_b == Fraction(20475, 2)


def test_classify_good_bad_extremal():
    inst = extremal_construction(3, 15)
    S = inst.B[:9]
    split = classify_good_bad(inst.graph, S, Fraction(1, 4))
    assert not split.bad
    assert len(split.good) == comb(9, 2)
    assert split.bad_bound_ok


def test_classify_good_bad_complete_small_gamma():
    H = complete_kgraph(10, 3)
    split = classify_good_bad(H, range(9), Fraction(1, 100))
    assert not split.good
    split2 = classify_good_bad(H, range(9), Fraction(1))
    assert not split2.bad


def test_build_auxiliary_graph_counts():
    # complete host, |A| = 2k-3 = 3, |B| = 2: exactly one candidate, it supports
    H = complete_kgraph(5, 3)
    aux = build_auxiliary_graph(H, (0, 1, 2), (3, 4))
    assert aux.graph.edge_count() == 1
    # extremal-like host with A' inside A: every candidate supports
    inst = extremal_construction(3, 15)
    aux2 = build_auxiliary_graph(inst.graph, inst.A[:4], inst.B[:4])
    assert aux2.graph.edge_count() == comb(4, 3) * comb(4, 2)
    # edgeless host: nothing supports
    aux3 = build_auxiliary_graph(KGraph(8, 3, []), (0, 1, 2), (3, 4, 5))
    assert aux3.graph.edge_count() == 0


def test_build_auxiliary_graph_cap_bounds_the_host_sets():
    # K8^(3) has 56 supporting sets; J on A = 0..4, B = 5..7 would have 30
    with pytest.raises(BudgetExceeded) as blown:
        build_auxiliary_graph(complete_kgraph(8, 3), range(5), range(5, 8), cap=10)
    assert blown.value.partial_count == 11
    aux = build_auxiliary_graph(complete_kgraph(8, 3), range(5), range(5, 8), cap=56)
    assert aux.graph.edge_count() == comb(5, 3) * comb(3, 2)


def test_pipeline_witness_search_is_budgeted(monkeypatch):
    # ext(3,30) at gamma 0 needs 117 witness-search nodes; one fewer raises
    # instead of failing the witness stage.
    monkeypatch.setattr(core, "DEFAULT_NODE_BUDGET", 116)
    with pytest.raises(BudgetExceeded, match="^witness search exceeded 116 nodes$"):
        extremal_pipeline(extremal_construction(3, 30).graph, Fraction(0))


@pytest.mark.parametrize(
    "kwargs",
    [{"gamma": Fraction(-1)}, {"gamma": Fraction(0), "gamma_prime": Fraction(-1, 2)},
     {"gamma": Fraction(0), "beta": Fraction(-1, 3)}],
    ids=["gamma", "gamma-prime", "beta"],
)
def test_negative_densities_raise_before_any_search(kwargs):
    # A negative gamma would cut every set of the witness search, so without
    # the check ext(3,25) would read as not extremal instead of raising.
    H = extremal_construction(3, 25).graph
    with pytest.raises(InvalidDimension):
        extremal_pipeline(H, **kwargs)
    with pytest.raises(InvalidDimension):
        extremal_pipeline(H, witness=range(15), **kwargs)
    if "gamma_prime" not in kwargs and "beta" not in kwargs:
        with pytest.raises(InvalidDimension):
            is_gamma_extremal(H, kwargs["gamma"])


def test_pipeline_complete_success():
    res = extremal_pipeline(complete_kgraph(15, 3), Fraction(1))
    assert res.succeeded
    assert res.tiling.perfect
    assert check_tiling(complete_kgraph(15, 3), res.tiling, require_perfect=True)
    assert [s.status for s in res.stages] == ["ok"] * 8


def test_pipeline_extremal_fails_honestly():
    res = extremal_pipeline(extremal_construction(3, 15).graph, Fraction(0))
    assert not res.succeeded
    assert res.stages[-1].status == "failed"
    # downstream of a failure nothing is reported
    assert all(s.status == "ok" for s in res.stages[:-1])


def test_pipeline_matching_search_is_budgeted():
    # |X| = 1 here, so the matching-M stage has to search; a blown budget
    # raises instead of reporting the stage as failed.
    H = extremal_construction(3, 15).graph
    with pytest.raises(BudgetExceeded):
        extremal_pipeline(H, Fraction(0), budget=0)
    res = extremal_pipeline(H, Fraction(0))
    assert res.stages[-1].to_json() == {
        "stage": "matching-M",
        "status": "failed",
        "detail": "no matching of size |X|=1 through good sets (0 candidate edges)",
    }


def test_pipeline_crafted_instance_succeeds():
    inst = extremal_construction(3, 15)
    edges = set(inst.graph.edges)
    import itertools

    edges.update(itertools.combinations(inst.B, 3))
    crafted = KGraph(15, 3, edges)
    res = extremal_pipeline(crafted, Fraction(1))
    assert res.succeeded
    assert check_tiling(crafted, res.tiling, require_perfect=True)
    assert perfect_tiling(crafted) is not None


def test_pipeline_success_implies_perfect_tiling(small_corpus):
    for _, H in small_corpus[:10]:
        if H.n % 5 != 0:
            continue
        res = extremal_pipeline(H, Fraction(1))
        if res.succeeded:
            assert check_tiling(H, res.tiling, require_perfect=True)
            assert perfect_tiling(H) is not None


def test_integral_implies_fractional(small_corpus):
    for _, H in small_corpus[:15]:
        if perfect_tiling(H) is not None:
            assert isinstance(perfect_fractional_tiling(H), FractionalTiling)


# LP-feasible with no perfect tiling: no two of its supporting sets are disjoint.
_COVER_EDGES = [
    (0, 1, 2), (0, 1, 3), (0, 1, 8), (0, 7, 8), (1, 2, 8), (1, 3, 8),
    (1, 3, 9), (1, 4, 9), (2, 3, 7), (2, 4, 5), (2, 5, 9), (2, 6, 8),
    (2, 7, 9), (2, 8, 9), (3, 4, 9), (3, 5, 6), (3, 5, 7), (4, 7, 8),
    (5, 6, 8), (6, 7, 9),
]


def _budget_cases():
    cover = KGraph(10, 3, _COVER_EDGES)
    rng = random.Random(4)
    rand = KGraph(15, 3, rng.sample(list(itertools.combinations(range(15), 3)), 110))
    edgeless = KGraph(10, 3, [])
    K10 = complete_kgraph(10, 3)
    tiling = [(0, 1, 2, 3, 12), (4, 5, 8, 9, 14), (6, 7, 10, 11, 13)]
    halves = [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
    pick = random.Random(1)
    union = [e for e in itertools.combinations(range(10), 3) if pick.random() < 0.7]
    sparse = GraphFamily(
        tuple(KGraph(10, 3, [e for e in union if pick.random() < 0.3]) for _ in range(6))
    )
    matched, unmatched = _tripartite(5), _tripartite(7)
    # the (2, 3) family of the packing-bound host below
    seeded = random.Random(5)
    triples = itertools.combinations(range(12), 3)
    bound = KGraph(12, 3, [e for e in triples if seeded.random() < 0.25])
    block = VertexPartition((tuple(range(6)), tuple(range(6, 12))))
    family = [vs for vs in _set_index(bound).vertex_sets if index_vector(block, vs) == (2, 3)]

    def tile(H, use_lp):
        return lambda b: _vertex_sets(perfect_tiling(H, budget=b, use_lp=use_lp))

    def best(H):
        def call(b):
            value, witness = max_tiling(H, budget=b)
            return value, _vertex_sets(witness)

        return call

    def tilable(H, q):
        return lambda b: perfectly_tilable(H, q, budget=b)

    def rainbow(family):
        def call(b):
            rt = rainbow_perfect_tiling(family, budget=b)
            return None if rt is None else (_vertex_sets(rt.tiling), rt.assignment)

        return call

    def matching(J, classes):
        return lambda b: kpartite_perfect_matching(J, classes, budget=b)

    def packing(rows, want):
        masks = [sum(1 << v for v in row) for row in rows]
        return lambda b: [rows[r] for r in _disjoint_rows(masks, want, b)]

    def pipeline(H):
        return lambda b: extremal_pipeline(H, Fraction(1), budget=b).to_json()["stages"][3:]

    # (call with budget b, nodes N its search takes, answer): any change to
    # the search order or to the budget accounting moves N
    return [
        (tilable(cover, range(10)), 7, False),
        (tilable(rand, range(10)), 9, True),
        (tilable(rand, range(5, 15)), 4, True),
        (tilable(rand, range(15)), 8, True),
        (tilable(rand, (0, 1, 2, 3, 4, 5, 7, 9, 11, 13)), 3, True),
        (tilable(rand, (0, 1, 2, 3, 12)), 0, True),
        (tilable(rand, (0, 1, 2, 3, 4)), 0, False),
        (tilable(edgeless, range(10)), 0, False),  # no set inside: no search
        (tile(K10, False), 2, [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]),  # MRV ties: lowest
        (tile(cover, True), 7, None),
        (tile(cover, False), 7, None),
        (tile(rand, True), 8, tiling),
        (tile(rand, False), 8, tiling),
        (best(cover), 16, (1, [(0, 1, 2, 3, 7)])),
        (best(rand), 72, (3, tiling)),
        # a rainbow call also decides the union's tiling under the same
        # budget (two nodes for both families); N is the larger count
        (rainbow(GraphFamily((K10,) * 6)), 2, (halves, (0, 1, 2, 3, 4, 5))),
        (rainbow(sparse), 6, ([(0, 1, 3, 7, 8), (2, 4, 5, 6, 9)], (2, 4, 5, 0, 1, 3))),
        (matching(*matched), 4, [(0, 5, 10), (3, 6, 11), (1, 4, 8), (2, 7, 9)]),
        (matching(*unmatched), 3, None),
        # the packing bound's search, and the pipeline's matching M through
        # good sets, |X| = 3, which fails at Tk-for-X before J is searched
        (packing(family, 2), 23, [(0, 2, 6, 7, 8), (1, 5, 9, 10, 11)]),
        (pipeline(_sparse_vertex(15, 3, 0, count=3, p=0.6)), 14, [
            {"stage": "matching-M", "status": "ok", "detail": "size=3"},
            {"stage": "Tk-for-X", "status": "failed",
             "detail": "no copy through matched edge (0, 1, 2)"},
        ]),
    ]


def _tripartite(seed, m=4, p=0.15):
    """A seeded random 3-partite 3-graph on classes of size m."""
    rng = random.Random(seed)
    classes = [list(range(i * m, (i + 1) * m)) for i in range(3)]
    edges = [e for e in itertools.product(*classes) if rng.random() < p]
    return KGraph(3 * m, 3, edges), classes


def _vertex_sets(tiling):
    return None if tiling is None else [c.vertices for c in tiling.copies]


def test_search_budgets_match_node_counts():
    for call, nodes, answer in _budget_cases():
        assert call(nodes) == answer
        if nodes:
            for budget in {0, nodes - 1}:
                with pytest.raises(BudgetExceeded):
                    call(budget)


def test_packing_bound_budget_matches_node_count():
    # The (2, 3) family needs 23 packing nodes to show m+1 = 2 disjoint
    # copies; one node fewer leaves the vector unknown, never not-robust.
    rng = random.Random(5)
    H = KGraph(12, 3, [e for e in itertools.combinations(range(12), 3) if rng.random() < 0.25])
    P = VertexPartition((tuple(range(6)), tuple(range(6, 12))))

    def status(budget):
        reps = robust_vectors(H, P, Fraction(1, 12), mode="packing-bound", budget=budget)
        return reps[(2, 3)].status

    assert status(23) == "robust"
    assert status(22) == "unknown"
    assert status(0) == "unknown"


# -- byte-identity pins for the auxiliary graph and the pipeline ---------------


def _crafted(k, n):
    """The ext(k, n) host plus every k-set of B, as in demo 05."""
    inst = extremal_construction(k, n)
    return KGraph(n, k, set(inst.graph.edges) | set(itertools.combinations(inst.B, k)))


def _split(H):
    """H with its first (2k-3)n/(2k-1) vertices as A and the rest as B: the
    split the pipeline builds J on when X is empty."""
    a = (2 * H.k - 3) * H.n // (2 * H.k - 1)
    return H, tuple(range(a)), tuple(range(a, H.n))


def _sparse_vertex(n, k, seed, count=1, p=0.3):
    """The complete host less, for each of its last ``count`` vertices, the
    edges with k-1 vertices in the pipeline's witness (its first
    (2k-3)n/(2k-1) vertices) but one, and less a seeded share ``p`` of the
    rest: with gamma 1 the X stage keeps those vertices, so the matching-M
    and Tk-for-X stages each place ``count``."""
    rng = random.Random(seed)
    witness = range((2 * k - 3) * n // (2 * k - 1))
    edges, kept = [], set()
    for e in itertools.combinations(range(n), k):
        sparse = [v for v in e if v >= n - count]
        if sparse and sum(v in witness for v in e) == k - 1:
            if sparse[0] not in kept:
                kept.add(sparse[0])
                edges.append(e)
        elif rng.random() >= p:
            edges.append(e)
    return KGraph(n, k, edges)


AUX_HOSTS = {
    "crafted(3,15)": lambda: _split(_crafted(3, 15)),
    "crafted(3,20)": lambda: _split(_crafted(3, 20)),
    "crafted(3,25)": lambda: _split(_crafted(3, 25)),
    "crafted(4,14)": lambda: _split(_crafted(4, 14)),
    "seeded(15,3,3,0)": lambda: _split(random_with_codegree(15, 3, 3, seed=0)),
    "seeded(15,3,5,1)": lambda: _split(random_with_codegree(15, 3, 5, seed=1)),
    "seeded(15,3,6,2)": lambda: _split(random_with_codegree(15, 3, 6, seed=2)),
    "seeded(14,4,4,0)": lambda: _split(random_with_codegree(14, 4, 4, seed=0)),
}

# sha256 of the auxiliary graph's edges, A and B plus each edge's witness, in
# edge order, taken while J was built by testing every candidate set.
AUX_PINS = {
    "crafted(3,15)": "818f3aebee5d1846d13e2ef5a8ca35bda8ee1d1697a02148b79449cafbd89f53",
    "crafted(3,20)": "e260e38ea1fde0d184b2657a8efb953007aa64b0e50a86e70f2ddcaf8c48034b",
    "crafted(3,25)": "e32316678646c6cc6711febcba384807e2757be18599e6c19cc692371ab1958e",
    "crafted(4,14)": "5d7dc6424dc6881af59894851b458560bc417ac122daa1892e87d1bbc4a2a243",
    "seeded(15,3,3,0)": "7a02270e4535a5f5da3761a4d27df266e3244737c247f77b90a1e4aa8a868eab",
    "seeded(15,3,5,1)": "180ca932af0dba25bc917d1230f9aa8dd8fbd401fbe507e67e05b370d9667baf",
    "seeded(15,3,6,2)": "f83b19f0d9770765a1be7f5ac50db0a0c7a6428044ff50da9029c956390ca578",
    "seeded(14,4,4,0)": "ce62940f17396958fbf53f2826a57d938f1b30b87657cb5147ced0e3d5c3e10a",
}

# host, gamma, keyword arguments
PIPELINE_CASES = {
    "crafted(3,15)": (lambda: _crafted(3, 15), Fraction(1), {}),
    "crafted(3,20)": (lambda: _crafted(3, 20), Fraction(1), {}),
    "crafted(3,25)": (lambda: _crafted(3, 25), Fraction(1), {}),
    "crafted(4,14)": (lambda: _crafted(4, 14), Fraction(1), {}),
    "seeded(15,3,3,0)": (lambda: random_with_codegree(15, 3, 3, seed=0), Fraction(1), {}),
    "seeded(15,3,5,1)": (lambda: random_with_codegree(15, 3, 5, seed=1), Fraction(1), {}),
    "seeded(15,3,6,2)": (lambda: random_with_codegree(15, 3, 6, seed=2), Fraction(1), {}),
    "seeded(14,4,4,0)": (lambda: random_with_codegree(14, 4, 4, seed=0), Fraction(1), {}),
    "sparse-vertex(15,3)": (lambda: _sparse_vertex(15, 3, 1), Fraction(1), {}),
    "sparse-vertex(15,3) gamma'=1/10": (
        lambda: _sparse_vertex(15, 3, 1),
        Fraction(1),
        {"gamma_prime": Fraction(1, 10)},
    ),
    "sparse-vertex(14,4) gamma'=1/10": (
        lambda: _sparse_vertex(14, 4, 1),
        Fraction(1),
        {"gamma_prime": Fraction(1, 10)},
    ),
    "demo05 K15^(3)": (lambda: complete_kgraph(15, 3), Fraction(1), {}),
    "demo05 ext(3,15)": (lambda: extremal_construction(3, 15).graph, Fraction(0), {}),
    "demo05 crafted(3,15)": (lambda: _crafted(3, 15), Fraction(1), {}),
    "ext(3,30)": (lambda: extremal_construction(3, 30).graph, Fraction(0), {}),
    "ext(3,30) gamma=1": (lambda: extremal_construction(3, 30).graph, Fraction(1), {}),
    "ext(4,21)": (lambda: extremal_construction(4, 21).graph, Fraction(0), {}),
    "ext(4,21) gamma=1": (lambda: extremal_construction(4, 21).graph, Fraction(1), {}),
}

# sha256 of ``extremal_pipeline(...).to_json()``, taken while J was built by
# testing every candidate set.
PIPELINE_PINS = {
    "crafted(3,15)": "6fcb57e6de0cb7bf200dc111dfba97b20815266c0a3512111e64f3f02184fcc5",
    "crafted(3,20)": "607a4af71db81f0008587769cfb51fa545604d21b702e54e75ae2f3d0fc4ffbe",
    "crafted(3,25)": "0c8085ef1c887c2879c9c64f10b9dc014356c245b316c76f00866d55b0734eab",
    "crafted(4,14)": "88585aa155dc44b5e1c801c8d7c5d287178f6c16995393092cd797880a0e2c57",
    "seeded(15,3,3,0)": "e83466d1541ea74d4581ebe1f86c9ac4533cc6699bcdb0eb6b2bc0d2d443b899",
    "seeded(15,3,5,1)": "4a07e9c5c7e71371358569c935b9bb7b9efcbc32703399e60b37129f87b462ff",
    "seeded(15,3,6,2)": "9d245c600343e00593395c3d5754bb8c4e1fb9ccd81de5348da406936b87d7d7",
    "seeded(14,4,4,0)": "d748356d24a1ea531fe9a19599dfeb76f726953b0a52d744ba72c6e9767e5c06",
    "sparse-vertex(15,3)": "5b6c4846d78974fe5c7938cc7ccbcfe8a706db897f8dcc47c22494418241307a",
    "sparse-vertex(15,3) gamma'=1/10": (
        "500c9ddfe14bc03f92427d4bf9e91864557120c9f0b4c0154f60f82278edb7a7"
    ),
    "sparse-vertex(14,4) gamma'=1/10": (
        "b4904a8b1acef0fa76cb2d8f75e6134593aa13c011aa7d7857be1eb6b681137a"
    ),
    "demo05 K15^(3)": "6fcb57e6de0cb7bf200dc111dfba97b20815266c0a3512111e64f3f02184fcc5",
    "demo05 ext(3,15)": "4c5a2c1c1e3edd130b07a58fe3b4c0996b9a1172ee24496a4a7604c88a60c956",
    "demo05 crafted(3,15)": "6fcb57e6de0cb7bf200dc111dfba97b20815266c0a3512111e64f3f02184fcc5",
    "ext(3,30)": "227f1c7ae1da86eed4600a404be8c547224c08645010ea9e9f0c45db5997b843",
    "ext(3,30) gamma=1": "e5c4a621ed731228d98a091a05ded56fc86865d5883b43750a077e738a641a25",
    "ext(4,21)": "e11fd846e6e96501f150891f50622fc78f8df85295b6726c509962c65ac5ee91",
    "ext(4,21) gamma=1": "cfde10f40b977c758a5d3aa0d9afefea858714c67ccaf925848a3254a4688b1f",
}

# crafted(4,21), the k=4 n=21 pipeline, at gamma 1
CRAFTED_4_21_PIN = "1e219c6d6709ea5bbc846b3300c4bbf41a01c6f560e4d25a459a8e4849bee6b7"


def _sha256(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _aux_digest(aux) -> str:
    assert set(aux.copy_map) == set(aux.graph.edges)
    copies = [aux.copy_map[e].to_json() for e in aux.graph.edges]
    return _sha256({"aux": aux.to_json(), "copies": copies})


@pytest.mark.parametrize("name", sorted(AUX_HOSTS))
def test_build_auxiliary_graph_pins(name):
    H, A, B = AUX_HOSTS[name]()
    aux = build_auxiliary_graph(H, A, B)
    assert all(check_copy(H, aux.copy_map[e]) for e in aux.graph.edges)
    assert _aux_digest(aux) == AUX_PINS[name]


@functools.cache
def _pipeline_report(name) -> dict:
    host, gamma, kwargs = PIPELINE_CASES[name]
    return extremal_pipeline(host(), gamma, **kwargs).to_json()


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_extremal_pipeline_pins(name):
    assert _sha256(_pipeline_report(name)) == PIPELINE_PINS[name]


def test_extremal_pipeline_decides_the_north_star_hosts():
    # The tight hosts have no perfect tiling.  At gamma 0 no edge of H[A]
    # holds a good (k-1)-set, so M fails; at gamma 1 the perfect fractional
    # matching LP of J is infeasible.
    hosts = ("ext(3,30)", "ext(3,30) gamma=1", "ext(4,21)", "ext(4,21) gamma=1")
    failed = {name: _pipeline_report(name)["stages"][-1] for name in hosts}
    assert {name: (stage["stage"], stage["status"]) for name, stage in failed.items()} == {
        "ext(3,30)": ("matching-M", "failed"),
        "ext(3,30) gamma=1": ("J-matching", "failed"),
        "ext(4,21)": ("matching-M", "failed"),
        "ext(4,21) gamma=1": ("J-matching", "failed"),
    }


def test_extremal_pipeline_decides_k4_n21():
    H = _crafted(4, 21)
    result = extremal_pipeline(H, Fraction(1))
    assert result.succeeded
    assert check_tiling(H, result.tiling, require_perfect=True)
    assert _sha256(result.to_json()) == CRAFTED_4_21_PIN
