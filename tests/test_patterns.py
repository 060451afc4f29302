import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile.core import KGraph, _mask, complete_kgraph
from tritile.constructions import extremal_construction, random_with_codegree
from tritile.errors import BudgetExceeded, InvalidArity, InvalidColoring, InvalidUniformity
from tritile.exact import _decide_perfect_tiling, max_tiling
from tritile.fractional import packing_lp_value
from tritile.lattice import VertexPartition, index_vector, perfectly_tilable, robust_vectors
from tritile.patterns import (
    TriangleCopy,
    blowup,
    count_tight_2paths,
    enumerate_copies,
    generalized_triangle,
    _set_index,
    supporting_sets,
    supports_triangle,
)
from tritile.rainbow import GraphFamily
from tritile.validate import brute_perfectly_tilable, brute_supports, check_copy

from oracles import oracle_automorphisms, oracle_supports


def test_pattern_k3():
    T = generalized_triangle(3)
    assert T.n == 5
    assert T.edges == ((0, 1, 2), (0, 1, 3), (2, 3, 4))


def test_pattern_k2_triangle():
    T = generalized_triangle(2)
    assert T.edges == ((0, 1), (0, 2), (1, 2))


def test_pattern_rejects_k1():
    with pytest.raises(InvalidUniformity):
        generalized_triangle(1)


@pytest.mark.parametrize("k,expected", [(3, 4), (4, 24)])
def test_pattern_automorphism_count(k, expected):
    assert oracle_automorphisms(generalized_triangle(k)) == expected


def test_supports_on_extremal_two_a_vertices():
    inst = extremal_construction(3, 15)
    S = (0, 1, 6, 7, 8)  # two vertices in A
    copy = supports_triangle(inst.graph, S)
    assert copy is not None
    assert check_copy(inst.graph, copy)


def test_supports_inside_b_is_none():
    inst = extremal_construction(3, 15)
    assert supports_triangle(inst.graph, (5, 6, 7, 8, 9)) is None


def test_supports_wrong_arity():
    with pytest.raises(InvalidArity):
        supports_triangle(complete_kgraph(6, 3), (0, 1, 2))


def test_copy_count_complete_five():
    copies = enumerate_copies(complete_kgraph(5, 3))
    aut = oracle_automorphisms(generalized_triangle(3))
    assert len(copies) == 120 // aut == 30


def test_copy_count_complete_k4():
    copies = enumerate_copies(complete_kgraph(7, 4))
    aut = oracle_automorphisms(generalized_triangle(4))
    import math

    assert len(copies) == math.factorial(7) // aut


def test_enumerate_edgeless_empty():
    assert enumerate_copies(KGraph(8, 3, [])) == []


def test_enumerate_extremal_copies_touch_a_twice():
    inst = extremal_construction(3, 10)
    a = set(inst.A)
    copies = enumerate_copies(inst.graph)
    assert copies
    assert all(len(set(c.vertices) & a) >= 2 for c in copies)


def test_enumerate_cap():
    with pytest.raises(BudgetExceeded):
        enumerate_copies(complete_kgraph(8, 3), cap=10)


def test_enumerate_restricted_matches_supports():
    H = random_with_codegree(9, 3, 3, seed=17)
    for S in [(0, 1, 2, 3, 4), (2, 4, 5, 7, 8), (0, 3, 5, 6, 8)]:
        inside = enumerate_copies(H, restrict=S)
        assert all(set(c.vertices) <= set(S) for c in inside)
        assert bool(inside) == (supports_triangle(H, S) is not None)


def test_k2_triangle_count_in_k4():
    assert len(enumerate_copies(complete_kgraph(4, 2))) == 4


def test_enumerate_matches_supports(small_corpus):
    for _, H in small_corpus[:8]:
        copies = enumerate_copies(H)
        by_set = {}
        for c in copies:
            by_set.setdefault(c.vertices, []).append(c)
        for S in itertools.combinations(range(H.n), 5):
            has = supports_triangle(H, S) is not None
            assert has == (S in by_set)
            assert has == oracle_supports(H, S)


def test_copy_count_invariant_under_relabelling():
    rng = random.Random(3)
    H = random_with_codegree(9, 3, 3, seed=21)
    base = len(enumerate_copies(H))
    for _ in range(3):
        perm = list(range(H.n))
        rng.shuffle(perm)
        H2 = KGraph(H.n, H.k, [tuple(sorted(perm[v] for v in e)) for e in H.edges])
        assert len(enumerate_copies(H2)) == base


def test_all_enumerated_copies_validate(small_corpus):
    for _, H in small_corpus[:10]:
        for c in enumerate_copies(H):
            assert check_copy(H, c)


def test_supporting_sets_match_enumeration(small_corpus):
    for _, H in small_corpus[:8]:
        sets = supporting_sets(H)
        from_copies = sorted({c.vertices for c in enumerate_copies(H)})
        assert [vs for vs, _ in sets] == from_copies
        for vs, witness in sets:
            assert witness.vertices == vs
            assert check_copy(H, witness)


@st.composite
def hosts_and_subsets(draw):
    """A random k-graph (k in 2..4) plus a vertex subset of it."""
    k = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(2 * k - 1, {2: 9, 3: 10, 4: 9}[k]))
    all_edges = list(itertools.combinations(range(n), k))
    edges = draw(st.sets(st.sampled_from(all_edges), max_size=len(all_edges)))
    subset = draw(st.sets(st.integers(0, n - 1), max_size=min(n, 2 * (2 * k - 1))))
    return KGraph(n, k, edges), tuple(sorted(subset))


def _brute_copies(H, vs):
    """Canonical copies on the vertex set vs, sorted, over every base/apex
    split; for k=2 the three splits of a triangle are one copy."""
    found = set()
    for base in itertools.combinations(vs, H.k - 1):
        rest = [v for v in vs if v not in base]
        for a, b in itertools.combinations(rest, 2):
            c = TriangleCopy(base, (a, b), tuple(v for v in rest if v not in (a, b)))
            if check_copy(H, c):
                found.add(c)
    copies = sorted(found, key=TriangleCopy.sort_key)
    return copies[:1] if H.k == 2 else copies


@given(hosts_and_subsets(), st.data())
@settings(max_examples=150, deadline=None)
def test_supporting_sets_match_brute_force(case, data):
    H, R = case
    s = 2 * H.k - 1
    sets = supporting_sets(H)
    brute = [S for S in itertools.combinations(range(H.n), s) if brute_supports(H, S)]
    assert [vs for vs, _ in sets] == brute
    copies = {vs: _brute_copies(H, vs) for vs in brute}
    for vs, witness in sets:
        assert witness == copies[vs][0]
    # the one-set search returns the first copy it meets, which is the least
    for S in itertools.combinations(range(H.n), s):
        assert supports_triangle(H, S) == (copies[S][0] if S in copies else None)
    every = sorted((c for cs in copies.values() for c in cs), key=TriangleCopy.sort_key)
    assert enumerate_copies(H) == every
    inside = [S for S in brute if set(S) <= set(R)]
    assert [vs for vs, _ in supporting_sets(H, restrict=R)] == inside
    assert perfectly_tilable(H, R) == brute_perfectly_tilable(H, R)
    # the second call reads the host's index and must agree with the first
    assert supporting_sets(H) == sets
    assert _set_index(H).masks == [sum(1 << v for v in vs) for vs, _ in sets]
    if sets:
        with pytest.raises(BudgetExceeded):
            supporting_sets(H, cap=len(sets) - 1)
        with pytest.raises(BudgetExceeded):
            _set_index(H, cap=len(sets) - 1).masks
    if inside:
        with pytest.raises(BudgetExceeded):
            supporting_sets(H, restrict=R, cap=len(inside) - 1)
    # one set (a lookup) and two sets (a cover search over per-vertex rows)
    for size in (s, 2 * s):
        if size <= H.n:
            vertices = st.integers(0, H.n - 1)
            Q = data.draw(st.lists(vertices, min_size=size, max_size=size, unique=True))
            assert perfectly_tilable(H, Q) == brute_perfectly_tilable(H, Q)
    # robust_vectors groups each set under its index vector
    labels = data.draw(st.lists(st.integers(0, 2), min_size=H.n, max_size=H.n))
    P = VertexPartition(
        tuple(tuple(v for v in range(H.n) if labels[v] == b) for b in sorted(set(labels)))
    )
    groups: dict = {}
    for vs in brute:
        groups.setdefault(index_vector(P, vs), []).append(set(vs))
    removable = 1
    reports = robust_vectors(H, P, Fraction(removable, H.n))
    assert sorted(reports) == sorted(groups)
    for vec, family in groups.items():
        tau = removable + 1  # the transversal number, capped
        for t in range(removable + 1):
            cuts = itertools.combinations(range(H.n), t)
            if any(all(S & set(W) for S in family) for W in cuts):
                tau = t
                break
        status = "robust" if tau > removable else "not-robust"
        assert (reports[vec].status, reports[vec].value) == (status, tau)


@given(hosts_and_subsets())
@settings(max_examples=150, deadline=None)
def test_row_bitsets_match_brute_force(case):
    """Bit r of a vertex's bitset is set exactly when the r-th supporting set
    by brute force holds the vertex, and a query keeps exactly the sets
    inside it, for its vertices only."""
    H, R = case
    s = 2 * H.k - 1
    brute = [S for S in itertools.combinations(range(H.n), s) if brute_supports(H, S)]

    def bits(vertices, keep):
        return {
            v: sum(1 << r for r, S in enumerate(brute) if v in S and keep(S))
            for v in vertices
        }

    index = _set_index(H)
    assert list(index.vertex_bits().items()) == list(bits(range(H.n), bool).items())
    inside = bits(R, lambda S: set(S) <= set(R))
    assert list(index.bits_inside(_mask(R)).items()) == list(inside.items())


def test_supporting_sets_cap_before_caching():
    H = complete_kgraph(8, 3)
    with pytest.raises(BudgetExceeded):
        supporting_sets(H, cap=10)
    assert len(supporting_sets(H)) == 56


def test_tight_2paths_complete_four():
    assert count_tight_2paths(complete_kgraph(4, 3)).total == 6


def test_tight_2paths_single_edge():
    assert count_tight_2paths(KGraph(5, 3, [(0, 1, 2)])).total == 0


def test_tight_2paths_monochromatic_rainbow_zero():
    H = complete_kgraph(5, 3)
    coloring = {e: 1 for e in H.edges}
    counts = count_tight_2paths(H, coloring)
    assert counts.rainbow == 0
    assert counts.total > 0


def test_tight_2paths_rainbow_counts():
    H = KGraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    coloring = {(0, 1, 2): 1, (0, 1, 3): 2, (0, 2, 3): 1}
    counts = count_tight_2paths(H, coloring)
    assert counts.total == 3
    assert counts.rainbow == 2


def test_tight_2paths_match_brute_force():
    # pairs of edges sharing k-1 vertices, counted pair by pair
    rng = random.Random(12)
    for k in (2, 3, 4):
        for n in (k + 2, 7, 9):
            everything = list(itertools.combinations(range(n), k))
            H = KGraph(n, k, [e for e in everything if rng.random() < 0.5])
            coloring = {e: rng.randrange(3) for e in H.edges}
            pairs = [
                (e, f)
                for e, f in itertools.combinations(H.edges, 2)
                if len(set(e) & set(f)) == k - 1
            ]
            counts = count_tight_2paths(H, coloring)
            assert counts.total == len(pairs) == count_tight_2paths(H).total
            assert counts.rainbow == sum(coloring[e] != coloring[f] for e, f in pairs)
            assert count_tight_2paths(H).rainbow is None


def test_tight_2paths_bad_coloring():
    H = complete_kgraph(4, 3)
    with pytest.raises(InvalidColoring):
        count_tight_2paths(H, {(0, 1, 2): 1})


def test_blowup_identity():
    H = random_with_codegree(6, 3, 2, seed=9)
    assert blowup(H, 1) == H


def test_blowup_single_edge():
    H = KGraph(3, 3, [(0, 1, 2)])
    B = blowup(H, 2)
    assert B.n == 6
    assert B.edge_count() == 8


def test_blowup_pattern_vertex_count():
    assert blowup(generalized_triangle(3), 2).n == 10


# -- byte-identity pins for the supporting-set index ---------------------------


def _relabelled(H: KGraph) -> KGraph:
    """H under v -> (3v + 1) mod n (a bijection for the n used here)."""
    n = H.n
    return KGraph(n, H.k, [sorted((3 * v + 1) % n for v in e) for e in H.edges])


def _rainbow_union() -> KGraph:
    """Union of the nine n=15 hosts of perfbench's first rainbow family at
    seed 0 (host seeds 300010..300018, with the workload's retry rule)."""
    from tritile.errors import GenerationFailed

    hosts = []
    for seed in range(300_010, 300_019):
        for attempt in range(16):
            try:
                hosts.append(random_with_codegree(15, 3, 5, seed=seed + attempt * 7919))
                break
            except GenerationFailed:
                continue
    assert len(hosts) == 9
    return GraphFamily(tuple(hosts)).union()


INDEX_HOSTS = {
    "ext(3,20)~": lambda: _relabelled(extremal_construction(3, 20).graph),
    "ext(4,14)~": lambda: _relabelled(extremal_construction(4, 14).graph),
    "K10^(3)": lambda: complete_kgraph(10, 3),
    "K7^(2)": lambda: complete_kgraph(7, 2),
    "rainbow-union-s0": _rainbow_union,
}

# sha256 of every (vertex set, least witness) row and every set mask, taken
# before the index was rebuilt around one pass per base and witnesses built
# on first use.
INDEX_PINS = {
    "K10^(3)": "b093d1e95fe8b21084c51360d2cbaf767e9911abcc5fafde78d596d1bfa3b032",
    "K7^(2)": "3548260aefef18930d9f28338023d71120bbb5756616520ede436f80bdc0f9b4",
    "ext(3,20)~": "540ed3b025dea0e05f489a54166633ce0db4e9c1a7e0e7d37cec6a69dfca4432",
    "ext(4,14)~": "08c796f61140658e4999c302b12fee852e5c2bb8f4032e608a190f8e16a93f8e",
    "rainbow-union-s0": "e84c7808df3ce4ebb3e4bdd4ae1cd75eb2b2f79d31783c967c20e448a5ad684d",
}


COPY_HOSTS = {
    "ext(3,20)": lambda: extremal_construction(3, 20).graph,
    "K7^(2)": lambda: complete_kgraph(7, 2),
    "K7^(4)": lambda: complete_kgraph(7, 4),
}

# sha256 of every canonical copy as [base, apexes, tail], in the order
# ``enumerate_copies`` lists them (None: no restriction), taken before the
# copy walk yielded one group per (base, apex, apex).
COPY_PINS = {
    ("ext(3,20)", None): "2cd02466c9c12e59e557cabb860ec731bf44d9ecd9e896898b770891b8eba089",
    ("K7^(2)", None): "7424220440701a6fe0f6103ff62e41d191880bc3bae167b050940ecce86a0af6",
    ("K7^(2)", (1, 2, 3, 4, 5, 6)): (
        "e4b8e7b05e1859cbffcc36aa18246701c8fa81eb52cd5c2cdcd4e1a875891e73"
    ),
    ("K7^(4)", None): "c6fdc65e83196b7f7ddde7db86b10334cc0bcd4f7ecc74ccd63ed9798aab1636",
}


@pytest.mark.parametrize("name, restrict", sorted(COPY_PINS, key=str))
def test_enumerate_copies_pins(name, restrict):
    copies = enumerate_copies(COPY_HOSTS[name](), restrict=restrict)
    rows = [[list(c.base), list(c.apexes), list(c.tail)] for c in copies]
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == COPY_PINS[name, restrict]


@pytest.mark.parametrize("name", sorted(INDEX_HOSTS))
def test_supporting_set_index_pins(name):
    H = INDEX_HOSTS[name]()
    rows = [[list(vs), witness.to_json()] for vs, witness in supporting_sets(H)]
    text = json.dumps({"sets": rows, "masks": _set_index(H).masks}, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == INDEX_PINS[name]


def test_set_index_holds_under_64_bytes_per_set():
    # Per row the index keeps its mask and one base number; a map from each
    # set's mask to its witness's base held about 100 bytes per set here.
    H = extremal_construction(3, 20).graph
    H._neighborhood_index()  # the host's own cache, not the index's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = _set_index(H)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) == 9212
    assert held / len(index) < 64


def _witnesses_built(H: KGraph) -> bool:
    return H._sets._witnesses is not None


def test_index_readers_build_no_witnesses_and_answers_share_them():
    H = extremal_construction(3, 20).graph
    masks = _set_index(H).masks
    assert perfectly_tilable(H, range(5)) == any(m == 0b11111 for m in masks)
    halves = VertexPartition((tuple(range(10)), tuple(range(10, 20))))
    assert robust_vectors(H, halves, Fraction(1, 20))
    assert not _witnesses_built(H)
    sets = supporting_sets(H)
    assert _witnesses_built(H)
    # every later answer hands out the index's own witness objects
    assert all(a is b for (_, a), (_, b) in zip(sets, supporting_sets(H)))
    own = {id(w) for _, w in sets}
    tiling, layer, _ = _decide_perfect_tiling(H)
    assert (tiling, layer) == (None, "farkas")
    value, tiling = max_tiling(H)
    assert value == len(tiling.copies) > 0
    assert all(id(c) in own for c in tiling.copies)
    assert all(id(c) in own for c in packing_lp_value(H)[1].weights)


def test_supporting_sets_cap_raises_in_the_pass_and_from_the_cache():
    H = complete_kgraph(12, 3)
    with pytest.raises(BudgetExceeded) as fresh:
        supporting_sets(H, cap=10)
    assert fresh.value.partial_count == 11
    assert any(entry.name == "__init__" for entry in fresh.traceback)
    assert H._sets is None
    assert len(_set_index(H).masks) == 792  # the index, still without witnesses
    for call in (supporting_sets, _set_index):
        with pytest.raises(BudgetExceeded) as cached:
            call(H, cap=10)
        assert cached.value.partial_count == 11
    assert not _witnesses_built(H)
