import hashlib
import itertools
import json
import random
import tracemalloc
import functools
import operator
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tritile.exact
from tritile.core import KGraph, _mask, complete_kgraph
from tritile.constructions import extremal_construction, random_with_codegree
from tritile.errors import BudgetExceeded, GenerationFailed, InvalidFamily
from tritile.patterns import enumerate_copies, generalized_triangle
from tritile.rainbow import (
    GraphFamily,
    _bipartite_saturates,
    _hall_pair,
    _hall_spine,
    _usable_rows,
    color_covering_homomorphism,
    rainbow_perfect_tiling,
)
from tritile.validate import check_rainbow


def test_family_validation():
    with pytest.raises(InvalidFamily):
        GraphFamily((complete_kgraph(5, 3), complete_kgraph(6, 3)))
    with pytest.raises(InvalidFamily):
        GraphFamily(())


def test_family_size_enforced():
    fam = GraphFamily(tuple([complete_kgraph(10, 3)] * 5))
    with pytest.raises(InvalidFamily):
        rainbow_perfect_tiling(fam)


def test_rainbow_replicated_complete():
    fam = GraphFamily(tuple([complete_kgraph(10, 3)] * 6))
    rt = rainbow_perfect_tiling(fam)
    assert rt is not None
    assert check_rainbow(fam, rt)
    assert sorted(rt.assignment) == list(range(6))


def test_rainbow_replicated_extremal_none():
    ext = extremal_construction(3, 15).graph
    fam = GraphFamily(tuple([ext] * 9))
    assert rainbow_perfect_tiling(fam) is None


def test_rainbow_forced_assignment():
    T = generalized_triangle(3)
    hosts = tuple(KGraph(5, 3, [e]) for e in T.edges)
    fam = GraphFamily(hosts)
    rt = rainbow_perfect_tiling(fam)
    assert rt is not None
    assert rt.assignment == (0, 1, 2)
    assert check_rainbow(fam, rt)


def test_rainbow_edge_scarcity_forces_none():
    # union admits tilings, but one host holds no edge at all
    full = complete_kgraph(10, 3)
    empty = KGraph(10, 3, [])
    fam = GraphFamily((full, full, full, full, full, empty))
    assert rainbow_perfect_tiling(fam) is None


def test_hall_triple_equals_matching_over_four_hosts():
    for x, y in itertools.product(range(16), repeat=2):
        pair = _hall_pair(x, y)
        assert pair == _bipartite_saturates([x, y]), (x, y)
        for z in range(16):
            triple = _bipartite_saturates([x, y, z])
            assert (pair and _hall_spine(x, y, x | y, z)) == triple, (x, y, z)
            if pair:  # the per-row part, as the rainbow search applies it
                assert _hall_spine(x, y, x | y, z) == triple, (x, y, z)
                # the row build skips the test for spines with 3+ hosts
                if z.bit_count() >= 3:
                    assert _hall_spine(x, y, x | y, z), (x, y, z)


def _brute_rainbow_k3(family) -> bool:
    """Partition the vertices into 5-blocks; in each block try every labelled
    copy and every injective choice of hosts for its three edges; the blocks'
    host triples must be pairwise disjoint."""
    hosts = family.hosts
    n = family.n

    def block_host_triples(block):
        out = set()
        for base in itertools.combinations(block, 2):
            rest = [v for v in block if v not in base]
            for a, b in itertools.combinations(rest, 2):
                (t,) = [v for v in rest if v not in (a, b)]
                slots = (base + (a,), base + (b,), (a, b, t))
                holders = [
                    [i for i, h in enumerate(hosts) if h.has_edge(e)] for e in slots
                ]
                for trio in itertools.product(*holders):
                    if len(set(trio)) == 3:
                        out.add(frozenset(trio))
        return out

    def rec(remaining, used):
        if not remaining:
            return True
        head = remaining[0]
        for combo in itertools.combinations(remaining[1:], 4):
            block = (head,) + combo
            left = tuple(v for v in remaining if v not in block)
            for trio in block_host_triples(block):
                if not trio & used and rec(left, used | trio):
                    return True
        return False

    return rec(tuple(range(n)), frozenset())


@st.composite
def _small_families(draw):
    n = draw(st.sampled_from([5, 10]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p_host = draw(st.sampled_from([0.2, 0.4, 0.7]))
    p_keep = draw(st.sampled_from([0.15, 0.3, 0.6]))
    host = [e for e in itertools.combinations(range(n), 3) if rng.random() < p_host]
    return GraphFamily(
        tuple(
            KGraph(n, 3, [e for e in host if rng.random() < p_keep])
            for _ in range(3 * n // 5)
        )
    )


@given(_small_families())
@settings(max_examples=100, deadline=None)
def test_rainbow_matches_brute_force(family):
    rt = rainbow_perfect_tiling(family)
    assert (rt is not None) == _brute_rainbow_k3(family)
    if rt is not None:
        assert check_rainbow(family, rt)


def test_rainbow_budget_raises_never_none():
    full = complete_kgraph(10, 3)
    one = KGraph(10, 3, [(0, 1, 2)])
    for fam in (GraphFamily((full,) * 6), GraphFamily((full,) * 5 + (one,))):
        with pytest.raises(BudgetExceeded):
            rainbow_perfect_tiling(fam, budget=0)
    # The three one-edge hosts hold pairwise disjoint edges, and the three
    # edges of a copy pairwise meet, so two of them would share one of the
    # two copies: no rainbow tiling.  The hosts match to distinct edges and
    # every host serves some usable copy, so only the search can rule it
    # out: two nodes decide the union's tiling, and the rainbow search needs
    # more.
    ones = tuple(KGraph(10, 3, [e]) for e in [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    with pytest.raises(BudgetExceeded):
        rainbow_perfect_tiling(GraphFamily((full,) * 3 + ones), budget=2)


def _perfbench_family(seed: int, f: int) -> GraphFamily:
    """Family ``f`` of perfbench's rainbow pool at ``seed``: nine n=15 hosts
    of codegree 5, with the workload's host seeds and retry rule."""
    first = (seed & 0xFFFFFFFF) * 1_000_003 + 3 * 100_003 + 1 + 9 * f
    hosts = []
    for host_seed in range(first, first + 9):
        for attempt in range(16):
            try:
                hosts.append(random_with_codegree(15, 3, 5, seed=host_seed + attempt * 7919))
                break
            except GenerationFailed:
                continue
    assert len(hosts) == 9
    return GraphFamily(tuple(hosts))


def _sampled_family(
    n: int, k: int, seed: int, p_union: float, p_keep: float, vertices: range | None = None
) -> GraphFamily:
    """3n/(2k-1) hosts, each keeping edges of one seeded random union on
    ``vertices`` (all n by default)."""
    rng = random.Random(seed)
    vertices = range(n) if vertices is None else vertices
    union = [e for e in itertools.combinations(vertices, k) if rng.random() < p_union]
    return GraphFamily(
        tuple(
            KGraph(n, k, [e for e in union if rng.random() < p_keep])
            for _ in range(3 * n // (2 * k - 1))
        )
    )


def _edge_hosts(family: GraphFamily) -> dict[int, int]:
    """Each union edge's vertex mask with the bitmask of its hosts."""
    edge_hosts = {}
    for i, h in enumerate(family.hosts):
        for e in h.edges:
            edge_hosts[_mask(e)] = edge_hosts.get(_mask(e), 0) | 1 << i
    return edge_hosts


@pytest.mark.parametrize(
    "n,k,seed,p_union,p_keep,vertices",
    [
        (12, 2, 0, 0.8, 0.15, None),
        (10, 3, 5, 0.8, 0.3, None),
        (10, 3, 7, 0.9, 0.8, None),
        (14, 4, 1, 0.2, 0.5, None),
        # vertex numbers past one byte: the table keeps two bytes a vertex
        (300, 3, 1, 0.9, 0.01, range(250, 260)),
        (300, 4, 1, 0.9, 0.01, range(250, 259)),
    ],
    ids=["k2-sparse", "k3-sparse", "k3-dense", "k4-sparse", "k3-wide", "k4-wide"],
)
def test_row_table_equals_filtered_copies(n, k, seed, p_union, p_keep, vertices):
    family = _sampled_family(n, k, seed, p_union, p_keep, vertices)
    union = family.union()
    edge_hosts = _edge_hosts(family)
    copies = enumerate_copies(union)
    want = []
    for c in copies:
        slots = [edge_hosts[_mask(e)] for e in c.edges]
        if _bipartite_saturates(slots):
            want.append((c, slots))
    table, live, servable = _usable_rows(union, edge_hosts)
    rows = range(len(table))
    assert [(table.copy(r), table.slot_hosts([r])) for r in rows] == want
    assert [table[r] for r in rows] == [_mask(c.vertices) for c, _ in want]
    holders = dict.fromkeys(range(n), 0)
    for r, (c, _) in enumerate(want):
        for v in c.vertices:
            holders[v] |= 1 << r
    assert live == holders
    assert servable == functools.reduce(operator.or_, (h for _, s in want for h in s), 0)
    if p_keep < 0.5:  # Hall's test ran on some spine, and some copy is unusable
        assert any(s[2].bit_count() <= 2 for _, s in want)
        assert len(want) < len(copies)


RAINBOW_FAMILIES = {
    f"perfbench-s{s}-f{f}": partial(_perfbench_family, s, f) for s in (0, 1) for f in range(3)
}
RAINBOW_FAMILIES["k2-n12"] = partial(_sampled_family, 12, 2, 3, 0.7, 0.3)
RAINBOW_FAMILIES["k4-n14"] = partial(_sampled_family, 14, 4, 1, 0.2, 0.5)

# (sha256 of the answer's to_json(), nodes N: budget N answers and N - 1
# raises), taken before the cover search passed live rows to its children
# and before the rainbow rows were built per (base, apex) group.
RAINBOW_PINS = {
    "perfbench-s0-f0": ("4453b2c2aba29c08739d099d8499dc5ca573287cf57367bfd505478498f8b69d", 3),
    "perfbench-s0-f1": ("e18f06505146115c10b6566652dedc5b1ae224c2c40e41083d66347cf0d49daa", 3),
    "perfbench-s0-f2": ("10d1c1550588874afc29f1ce7a194f5465ee4758421e1d359100a77b1aeace74", 3),
    "perfbench-s1-f0": ("44dc16109cbeafea6ff483bb2836771de4cbac456f2e9b6568848eb8883c96b0", 3),
    "perfbench-s1-f1": ("1cf118741ba9fc7bc6373db2b2856d8ae644b0f75f625207ab82d03b14cc807f", 3),
    "perfbench-s1-f2": ("087e4255e7173dc3d2e91f0cb01c0fbcdea16de387c0665a6c733a59b54a0dcb", 3),
    "k2-n12": ("2a21be5012ded6d2d50fbbecadb97e350f56481c5d8b7834a2f685a51078e097", 6),
    "k4-n14": ("ec4f2ee47f9b6e29e33c774c69007f382c3703cb8ad336b25cd0da2a95adaa90", 8),
}


@pytest.mark.parametrize("name", sorted(RAINBOW_FAMILIES))
def test_rainbow_answer_and_node_count_pins(name):
    family = RAINBOW_FAMILIES[name]()
    digest, nodes = RAINBOW_PINS[name]
    rt = rainbow_perfect_tiling(family, budget=nodes)
    assert rt is not None and check_rainbow(family, rt)
    text = json.dumps(rt.to_json(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    with pytest.raises(BudgetExceeded):
        rainbow_perfect_tiling(family, budget=nodes - 1)


def test_row_table_build_stays_small():
    # The table keeps per row only its tail bytes, and the live bitsets are
    # written one vertex at a time: 0.9 MiB at the build's peak here, where
    # a flag byte per row per vertex took 3.7 to 3.9 MiB.
    family = RAINBOW_FAMILIES["perfbench-s0-f0"]()
    union = family.union()
    edge_hosts = _edge_hosts(family)
    tracemalloc.start()
    try:
        table, _, _ = _usable_rows(union, edge_hosts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 88885
    assert peak < 2 * 2**20


def test_rainbow_looks_up_union_tiling_at_call_time(monkeypatch):
    # Tracers wrap ``tritile.exact.perfect_tiling`` in place, so the rainbow
    # search must reach the union's tiling through that attribute.
    calls = []
    inner = tritile.exact.perfect_tiling

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tritile.exact, "perfect_tiling", counting)
    assert rainbow_perfect_tiling(GraphFamily((complete_kgraph(10, 3),) * 6)) is not None
    assert len(calls) == 1


def test_rainbow_hosts_without_distinct_edges_rule_out():
    # Both one-edge hosts can only serve the edge {0,1,2}, and the slots of a
    # rainbow tiling are distinct edges, so the family is ruled out before
    # any search node: even a zero budget answers None.
    full = complete_kgraph(10, 3)
    one = KGraph(10, 3, [(0, 1, 2)])
    fam = GraphFamily((full,) * 4 + (one, one))
    assert rainbow_perfect_tiling(fam, budget=0) is None
    assert rainbow_perfect_tiling(fam) is None


def test_rainbow_host_serving_no_copy_rules_out():
    # The edgeless host can serve no slot, so no search is needed.
    full = complete_kgraph(10, 3)
    scarce = GraphFamily((full,) * 5 + (KGraph(10, 3, []),))
    assert rainbow_perfect_tiling(scarce, budget=2) is None
    assert rainbow_perfect_tiling(scarce) is None


def _servable_family() -> GraphFamily:
    # Each pair of 3..9 is joined to at most one of 0, 1, 2, and no other
    # edge holds two of them, so the edge {0,1,2} lies in no copy.
    rng = random.Random(0)
    rest = range(3, 10)
    edges = [t for t in itertools.combinations(rest, 3) if rng.random() < 0.7]
    for x, y in itertools.combinations(rest, 2):
        joined = rng.choice([0, 1, 2, None, None])
        if joined is not None:
            edges.append((joined, x, y))
    return GraphFamily((KGraph(10, 3, edges),) * 5 + (KGraph(10, 3, [(0, 1, 2)]),))


def test_rainbow_host_serving_no_usable_copy_rules_out_before_search(monkeypatch):
    # The one-edge host passes the distinct-edges check, and the union has a
    # perfect tiling, so only the servable check rules the family out: the
    # union's tiling is the one cover search that runs.
    searches = []
    inner = tritile.exact._CoverSearch

    def counting(*args, **kwargs):
        searches.append(args)
        return inner(*args, **kwargs)

    family = _servable_family()
    assert tritile.exact.perfect_tiling(family.union()) is not None
    monkeypatch.setattr(tritile.exact, "_CoverSearch", counting)
    assert rainbow_perfect_tiling(family) is None
    assert len(searches) == 1


def test_rainbow_consistent_with_union_tiling(small_corpus):
    for _, H in small_corpus[:6]:
        if H.n % 5 != 0:
            continue
        m = 3 * H.n // 5
        fam = GraphFamily(tuple([H] * m))
        rt = rainbow_perfect_tiling(fam)
        from tritile.exact import perfect_tiling

        has_plain = perfect_tiling(H) is not None
        assert (rt is not None) == has_plain
        if rt is not None:
            assert check_rainbow(fam, rt)


def test_cover_homomorphism_complete():
    T = generalized_triangle(3)
    emb = color_covering_homomorphism(T, complete_kgraph(8, 3), complete_kgraph(8, 3))
    assert emb is not None
    assert len(set(emb.mapping)) == 5


def test_cover_homomorphism_h1_edgeless():
    T = generalized_triangle(3)
    assert (
        color_covering_homomorphism(T, KGraph(8, 3, []), complete_kgraph(8, 3)) is None
    )


def test_cover_homomorphism_min_codegree_k():
    T = generalized_triangle(3)
    for seed in range(25):
        H1 = random_with_codegree(8 + seed % 3, 3, 3, seed=seed)
        H2 = random_with_codegree(8 + seed % 3, 3, 3, seed=seed + 777)
        emb = color_covering_homomorphism(T, H1, H2)
        assert emb is not None
        # designated edge in H1, the rest in H2
        mapping = emb.mapping
        for e in T.edges:
            img = tuple(sorted(mapping[v] for v in e))
            if e == emb.designated:
                assert H1.has_edge(img)
            else:
                assert H2.has_edge(img)


def test_cover_homomorphism_monotone_under_edges():
    T = generalized_triangle(3)
    H1 = random_with_codegree(8, 3, 3, seed=5)
    H2 = random_with_codegree(8, 3, 3, seed=6)
    assert color_covering_homomorphism(T, H1, H2) is not None
    bigger1 = complete_kgraph(8, 3)
    assert color_covering_homomorphism(T, bigger1, H2) is not None
    assert color_covering_homomorphism(T, H1, bigger1) is not None
