import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile.core import DEFAULT_NODE_BUDGET, KGraph, complete_kgraph
from tritile.constructions import random_with_codegree
from tritile.errors import (
    BudgetExceeded,
    EmptyGraph,
    InvalidDimension,
    InvalidEdgeProfile,
    InvalidVertex,
)
from tritile.lattice import (
    NO,
    YES,
    IntegerLattice,
    VertexPartition,
    find_absorber,
    find_connector,
    has_transferral,
    index_vector,
    is_closed,
    is_complete,
    is_zeta_monochromatic,
    monochromatic_fraction,
    perfectly_tilable,
    reachable,
    robust_vectors,
    x_density,
)
from tritile.exact import _disjoint_rows
from tritile.patterns import supports_triangle
from tritile.validate import check_absorber, check_connector

from oracles import (
    oracle_absorbers,
    oracle_connectors,
    oracle_lattice_member,
    oracle_min_hit_decision,
    oracle_robust,
    oracle_robust_vectors,
    oracle_supporting_sets,
)


def test_index_vector_basic():
    P = VertexPartition(((0, 1, 2), (3, 4, 5)))
    assert index_vector(P, (0, 1, 3)) == (2, 1)
    assert index_vector(P, ()) == (0, 0)
    with pytest.raises(InvalidVertex):
        index_vector(P, (9,))


small_sets = st.lists(st.integers(0, 5), min_size=0, max_size=4, unique=True)


@given(small_sets, small_sets)
@settings(max_examples=60, deadline=None)
def test_index_vector_additive(a, b):
    P = VertexPartition(((0, 1, 2), (3, 4, 5)))
    a, b = set(a), set(b) - set(a)
    va = index_vector(P, a)
    vb = index_vector(P, b)
    vu = index_vector(P, a | b)
    assert tuple(x + y for x, y in zip(va, vb)) == vu


def test_lattice_membership_examples():
    assert (1, -1) in IntegerLattice(2, [(1, 0), (0, 1)])
    assert (1, 1) not in IntegerLattice(2, [(2, 0), (0, 2)])
    L = IntegerLattice(2, [(3, 2), (5, 3)])
    assert ((1, 1) in L) == oracle_lattice_member([(3, 2), (5, 3)], (1, 1))


def test_lattice_matches_box_oracle_random():
    rng = random.Random(2024)
    for _ in range(220):
        dim = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 3))
        ]
        target = tuple(rng.randint(-6, 6) for _ in range(dim))
        L = IntegerLattice(dim, gens)
        mine = target in L
        assert mine == oracle_lattice_member(gens, target)
        if mine:
            coeffs = L.express(target)
            assert all(
                sum(c * g[i] for c, g in zip(coeffs, gens)) == target[i]
                for i in range(dim)
            )


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntegerLattice(2, [(1.5, 0)]),
        lambda: (Fraction(19, 10), 0) in IntegerLattice(2, [(1, 0)]),
        lambda: (1.9, 0) in IntegerLattice(2, [(1, 0)]),
        lambda: IntegerLattice(2, [(1, 0)]).express([Fraction(3, 2), 0]),
        lambda: IntegerLattice(2).add_generator((0, Fraction(1, 3))),
    ],
    ids=["generator", "fraction-member", "float-member", "express", "add-generator"],
)
def test_lattice_rejects_non_integral_entries(build):
    # int() would truncate each of these entries to a different vector.
    with pytest.raises(InvalidDimension, match="is not an integer"):
        build()


def test_lattice_accepts_integral_non_int_entries():
    L = IntegerLattice(2, [(2.0, Fraction(0))])
    assert L.generators == [(2, 0)]
    assert L.express([Fraction(4, 1), 0.0]) == [2]


def test_lattice_combination_targets_members():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 3))
        ]
        coeffs = [rng.randint(-3, 3) for _ in gens]
        target = tuple(
            sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)
        )
        assert target in IntegerLattice(dim, gens)


def test_robust_vectors_complete_single_block():
    K12 = complete_kgraph(12, 3)
    P = VertexPartition((tuple(range(12)),))
    reps = robust_vectors(K12, P, Fraction(1, 12))
    assert reps[(5,)].status == "robust"
    assert reps[(5,)].removable == 1


def test_robust_vectors_single_copy_not_robust():
    from tritile.patterns import generalized_triangle

    T = generalized_triangle(3)
    P = VertexPartition((tuple(range(5)),))
    reps = robust_vectors(T, P, Fraction(1, 5))
    assert reps[(5,)].status == "not-robust"
    assert reps[(5,)].value == 1  # one vertex kills the single copy


def test_robust_vectors_empty_family():
    H = KGraph(6, 3, [])
    P = VertexPartition((tuple(range(6)),))
    assert robust_vectors(H, P, Fraction(1, 6)) == {}


def test_robust_vectors_partition_must_cover_the_sets():
    P = VertexPartition((tuple(range(5)),))
    with pytest.raises(InvalidDimension, match="^partition has 5 vertices, host has 6$"):
        robust_vectors(complete_kgraph(6, 3), P, Fraction(1, 6))


@pytest.mark.parametrize(
    "H, blocks",
    [
        # the partition names a vertex the host lacks
        (complete_kgraph(7, 3), ((0, 1, 2, 3), (4, 5, 6, 7))),
        # the host's extra vertex is isolated, so no supporting set reaches it
        (KGraph(7, 3, itertools.combinations(range(6), 3)), ((0, 1, 2), (3, 4, 5))),
    ],
    ids=["partition-larger", "host-larger-isolated"],
)
def test_robust_vectors_and_transferrals_reject_a_vertex_count_mismatch(H, blocks):
    P = VertexPartition(blocks)
    for mode in ("exact", "packing-bound"):
        with pytest.raises(InvalidDimension, match="^partition has"):
            robust_vectors(H, P, Fraction(1, 7), mode=mode)
    with pytest.raises(InvalidDimension, match="^partition has"):
        has_transferral(H, P, Fraction(1, 7), 0, 1)


def test_robust_vectors_rejects_an_unknown_mode_with_no_sets():
    # With no supporting set there is no vector to decide, so the mode must be
    # checked before the per-vector loop.
    P = VertexPartition((tuple(range(5)),))
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        robust_vectors(KGraph(5, 3, []), P, Fraction(0), mode="bogus")


@pytest.mark.parametrize("mode", ["exact", "packing-bound"])
def test_negative_beta_is_rejected(mode):
    # No set W of negative size exists, so a negative beta has no meaning;
    # it used to give removable = floor(beta n) < 0 and "not-robust" vectors.
    from tritile.errors import InvalidDimension

    K = complete_kgraph(10, 3)
    P = VertexPartition((tuple(range(5)), tuple(range(5, 10))))
    with pytest.raises(InvalidDimension, match="beta must be nonnegative"):
        robust_vectors(K, P, Fraction(-1, 2), mode=mode)
    with pytest.raises(InvalidDimension, match="beta must be nonnegative"):
        has_transferral(K, P, Fraction(-1, 2), 0, 1, mode=mode)
    reports = robust_vectors(K, P, Fraction(0), mode=mode)
    assert {rep.removable for rep in reports.values()} == {0}


def test_robust_vectors_match_forall_oracle():
    for seed in range(6):
        H = random_with_codegree(8, 3, 2 + seed % 2, seed=seed + 50)
        P = VertexPartition((tuple(range(4)), tuple(range(4, 8))))
        for beta in (Fraction(1, 8), Fraction(2, 8)):
            reps = robust_vectors(H, P, beta)
            for vec, rep in reps.items():
                want = oracle_robust(
                    H,
                    P,
                    vec,
                    rep.removable,
                    index_vector,
                    lambda G, S: supports_triangle(G, S) is not None,
                )
                assert (rep.status == "robust") == want


def test_robust_vectors_budget_sweep_never_raises():
    # Budgets 4 and 5 blow inside the shrink of a not-robust vector's
    # transversal number, after its first search has finished.
    rng = random.Random(0)
    H = KGraph(12, 3, [e for e in itertools.combinations(range(12), 3) if rng.random() < 0.3])
    assert H.edge_count() == 56
    P = VertexPartition((tuple(range(6)), tuple(range(6, 12))))
    final = robust_vectors(H, P, Fraction(1, 4))
    assert {rep.status for rep in final.values()} == {"robust", "not-robust"}
    sweep = [robust_vectors(H, P, Fraction(1, 4), budget=b) for b in range(60)]
    for vec, rep in final.items():
        reports = [reps[vec] for reps in sweep]
        decided = next(b for b, r in enumerate(reports) if r.status != "unknown")
        assert all(r.status == "unknown" and r.value == 0 for r in reports[:decided])
        assert all(r == rep for r in reports[decided:]), vec


@st.composite
def partitioned_hosts(draw):
    """A host with k in {2, 3, 4}, each k-set an edge at a drawn density,
    and an ordered partition of its vertices into 1..4 blocks."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2 * k - 1, 10 if k == 3 else 9))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.integers(3, 10)) / 10
    H = KGraph(n, k, [e for e in itertools.combinations(range(n), k) if rng.random() < density])
    r = draw(st.integers(1, min(4, n)))
    labels = [i % r for i in range(n)]
    rng.shuffle(labels)
    return H, VertexPartition(tuple(
        tuple(v for v in range(n) if labels[v] == i) for i in range(r)
    ))


@given(partitioned_hosts(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_robust_vectors_match_the_one_set_at_a_time_oracle(case, removable):
    """The same vectors in the same order, with the same status and value,
    in both modes and at every budget of a sweep: the oracle groups the
    supporting sets one at a time by index_vector and runs the re-filtering
    hitting-set search, which counts nodes as the library's does."""
    H, P = case
    sets = oracle_supporting_sets(H)
    for mode in ("exact", "packing-bound"):
        for budget in (0, 1, 2, 3, 5, 10, 30, DEFAULT_NODE_BUDGET):
            want = oracle_robust_vectors(
                sets, P, removable, mode, budget, index_vector, _disjoint_rows
            )
            got = robust_vectors(H, P, Fraction(removable, H.n), mode=mode, budget=budget)
            assert [(vec, rep.status, rep.value) for vec, rep in got.items()] == want
            assert {(rep.mode, rep.removable) for rep in got.values()} <= {(mode, removable)}


def _outcome(call):
    try:
        return call()
    except BudgetExceeded as exc:
        return "budget", str(exc)


@st.composite
def lattice_hosts(draw):
    """A host with k in {2, 3, 4}, each k-set an edge at a drawn density."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2 * k + 1, 11 if k == 3 else 9))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.integers(3, 10)) / 10
    return KGraph(n, k, [e for e in itertools.combinations(range(n), k) if rng.random() < density])


@given(lattice_hosts(), st.sampled_from([1, 2]), st.integers(0, 2), st.randoms())
@settings(max_examples=40, deadline=None)
def test_connector_and_absorber_searches_match_the_per_candidate_oracle(H, t, m, rng):
    """The same first connector, exact reachability verdict and first
    absorber, or the same BudgetExceeded message, at budgets 3, 50 and the
    default: the oracle walks the same candidates one tuple at a time and
    tests each through the public perfectly_tilable."""
    s = 2 * H.k - 1
    u, v = rng.sample(range(H.n), 2)
    S = tuple(sorted(rng.sample(range(H.n), s)))
    forbidden = rng.sample(range(H.n), rng.randint(0, 2))

    def oracle_reachable(budget):
        family = oracle_connectors(H, u, v, t, {u, v}, budget, perfectly_tilable)
        masks = [sum(1 << w for w in C) for C in family]
        return NO if oracle_min_hit_decision(masks, m, budget) is not None else YES

    for budget in (3, 50, None):
        kw = {} if budget is None else {"budget": budget}
        full = 500_000 if budget is None else budget
        connector = oracle_connectors(
            H, u, v, t, set(forbidden) | {u, v}, full, perfectly_tilable
        )
        absorber = oracle_absorbers(H, S, t, set(forbidden) | set(S), full, perfectly_tilable)
        assert _outcome(lambda: find_connector(H, u, v, t=t, forbidden=forbidden, **kw)) == (
            _outcome(lambda: next(connector, None))
        )
        assert _outcome(lambda: reachable(H, u, v, m, t=t, mode="exact", **kw)) == (
            _outcome(lambda: oracle_reachable(full))
        )
        assert _outcome(lambda: find_absorber(H, S, t=t, forbidden=forbidden, **kw)) == (
            _outcome(lambda: next(absorber, None))
        )


def test_packing_bound_mode_sound():
    K12 = complete_kgraph(12, 3)
    P = VertexPartition((tuple(range(12)),))
    exact = robust_vectors(K12, P, Fraction(1, 12), mode="exact")
    packing = robust_vectors(K12, P, Fraction(1, 12), mode="packing-bound")
    for vec, rep in packing.items():
        if rep.status == "robust":
            assert exact[vec].status == "robust"


def test_packing_bound_unknown_when_no_packing():
    # a single copy can never provide floor(beta n)+1 = 2 disjoint members,
    # so the packing certificate stays agnostic even though tau = 1 decides it
    from tritile.patterns import generalized_triangle

    T = generalized_triangle(3)
    P = VertexPartition((tuple(range(5)),))
    reps = robust_vectors(T, P, Fraction(1, 5), mode="packing-bound")
    assert reps[(5,)].status == "unknown"


def test_transferral_two_symmetric_blocks():
    K12 = complete_kgraph(12, 3)
    P = VertexPartition((tuple(range(6)), tuple(range(6, 12))))
    tr = has_transferral(K12, P, Fraction(1, 12), 0, 1)
    assert tr.found
    total = [0, 0]
    for vec, c in tr.combination.items():
        total[0] += c * vec[0]
        total[1] += c * vec[1]
    assert tuple(total) == (1, -1)


def test_transferral_single_block_invalid():
    K = complete_kgraph(6, 3)
    P = VertexPartition((tuple(range(6)),))
    from tritile.errors import InvalidDimension

    with pytest.raises(InvalidDimension):
        has_transferral(K, P, Fraction(1, 6), 0, 0)


def test_transferral_absent_when_block_untouched():
    # no copy touches the second block: all robust vectors have coord 1 = 0
    H = KGraph(8, 3, [e for e in complete_kgraph(6, 3).edges])
    H = KGraph(8, 3, H.edges)
    P = VertexPartition((tuple(range(6)), (6, 7)))
    tr = has_transferral(H, P, Fraction(1, 8), 0, 1)
    assert not tr.found


def test_connector_complete_any_four_set():
    K10 = complete_kgraph(10, 3)
    S = find_connector(K10, 0, 1)
    assert S == (2, 3, 4, 5)
    assert check_connector(K10, S, 0, 1)


def test_connector_edgeless_none():
    assert find_connector(KGraph(10, 3, []), 0, 1) is None


def test_connector_extremal_needs_a_vertices():
    from tritile.constructions import extremal_construction

    inst = extremal_construction(3, 15)
    S = find_connector(inst.graph, 5, 6)  # both endpoints in B
    assert S is not None
    assert len(set(S) & set(inst.A)) >= 2
    assert check_connector(inst.graph, S, 5, 6)


def test_reachable_modes_complete():
    K10 = complete_kgraph(10, 3)
    assert reachable(K10, 0, 1, 1) == YES
    assert reachable(K10, 0, 1, 1, mode="exact") == YES
    assert reachable(K10, 0, 1, 10, mode="exact") == NO


@pytest.mark.parametrize("mode", ["certificate", "exact"])
def test_reachable_equal_endpoints_raise_in_both_modes(mode):
    with pytest.raises(InvalidVertex, match="connector endpoints must differ"):
        reachable(complete_kgraph(10, 3), 2, 2, 1, mode=mode)


@pytest.mark.parametrize("mode", ["certificate", "exact"])
def test_reachable_budget_raises_in_both_modes(mode):
    # An edgeless host has no connector, so the walk tries every candidate.
    H = KGraph(10, 3, [])
    with pytest.raises(BudgetExceeded, match="connector search exceeded 3 candidates"):
        reachable(H, 0, 1, 1, mode=mode, budget=3)
    with pytest.raises(BudgetExceeded):
        is_closed(H, (0, 1), 1, mode=mode, budget=3)


def test_reachable_certificate_never_contradicts_exact(small_corpus):
    for _, H in small_corpus[:12]:
        cert = reachable(H, 0, 1, 1)
        exact = reachable(H, 0, 1, 1, mode="exact")
        if cert == YES:
            assert exact == YES


def test_is_closed_complete_and_disconnected():
    K10 = complete_kgraph(10, 3)
    verdict, fail = is_closed(K10, range(10), 1)
    assert verdict == YES and fail is None
    # two components: no copy crosses, so no connector exists at all
    left = complete_kgraph(5, 3).edges
    right = [tuple(v + 5 for v in e) for e in left]
    H = KGraph(10, 3, list(left) + right)
    verdict, fail = is_closed(H, (0, 5), 1, mode="exact")
    assert verdict == NO and fail == (0, 5)
    assert is_closed(K10, (3,), 1)[0] == YES


@pytest.mark.parametrize("t", [0, -2])
def test_size_factor_below_1_raises(t):
    # No search runs at t < 1, so each would answer "none" or "no" unasked.
    K10 = complete_kgraph(10, 3)
    for call in (
        lambda: find_connector(K10, 0, 1, t=t),
        lambda: reachable(K10, 0, 1, 1, t=t),
        lambda: reachable(K10, 0, 1, 1, t=t, mode="exact"),
        lambda: is_closed(K10, (0, 1), 1, t=t),
        lambda: is_closed(K10, (0,), 1, t=t),
        lambda: find_absorber(K10, (0, 1, 2, 3, 4), t=t),
    ):
        with pytest.raises(InvalidDimension, match=f"t must be at least 1, got {t}"):
            call()


def test_absorber_complete_host():
    K10 = complete_kgraph(10, 3)
    A = find_absorber(K10, (0, 1, 2, 3, 4))
    assert A == (5, 6, 7, 8, 9)
    assert check_absorber(K10, A, (0, 1, 2, 3, 4))


def test_absorber_edgeless_none():
    assert find_absorber(KGraph(12, 3, []), (0, 1, 2, 3, 4)) is None
    with pytest.raises(BudgetExceeded, match="absorber search exceeded 3 candidates"):
        find_absorber(KGraph(12, 3, []), (0, 1, 2, 3, 4), budget=3)


def test_out_of_range_endpoints_raise():
    # Edgeless hosts: no set is tilable, so the searches would answer
    # "none" or "unknown" without ever looking at the bad vertex.
    H = KGraph(5, 3, [])
    for mode in ("certificate", "exact"):
        for u, v in ((0, 9), (-1, 2)):
            with pytest.raises(InvalidVertex):
                reachable(H, u, v, 0, mode=mode)
    with pytest.raises(InvalidVertex):
        find_connector(H, 9, 0)
    with pytest.raises(InvalidVertex):
        find_absorber(KGraph(12, 3, []), (0, 1, 2, 3, 12))


@pytest.mark.parametrize("forbidden", [[99], [-5], [99, -5]], ids=["above", "below", "both"])
def test_out_of_range_forbidden_vertices_raise(forbidden):
    # K10 has a connector and an absorber that avoid any vertex outside it,
    # so a search that skipped the bad vertex would answer as if it were fine.
    K10 = complete_kgraph(10, 3)
    with pytest.raises(InvalidVertex):
        find_connector(K10, 0, 1, forbidden=forbidden)
    with pytest.raises(InvalidVertex):
        find_absorber(K10, (0, 1, 2, 3, 4), forbidden=forbidden)


@pytest.mark.parametrize("vertices", [[0, 1, 99], [0, 1, 2, 3, -4, 5], [0, 1, 2, 3, 10]])
def test_perfectly_tilable_checks_the_range_before_the_size(vertices):
    # [0, 1, 99] and the six-vertex set are no multiple of 5 in size, and
    # used to answer False before their range was read.
    with pytest.raises(InvalidVertex):
        perfectly_tilable(complete_kgraph(10, 3), vertices)


def test_absorber_disjoint_pair_on_k25():
    K25 = complete_kgraph(25, 3)
    S = (0, 1, 2, 3, 4)
    first = find_absorber(K25, S)
    second = find_absorber(K25, S, forbidden=first)
    assert first is not None and second is not None
    assert not set(first) & set(second)
    assert check_absorber(K25, second, S)


def test_x_density_and_completeness():
    P = VertexPartition(((0, 1, 2), (3, 4, 5)))
    transversal = [
        (a, b, c)
        for a, b in itertools.combinations((0, 1, 2), 2)
        for c in (3, 4, 5)
    ]
    full = KGraph(6, 3, transversal)
    assert x_density(full, P, (2, 1)) == 1
    assert is_complete(full, P, (2, 1), Fraction(0))
    empty = KGraph(6, 3, [])
    assert x_density(empty, P, (2, 1)) == 0
    P3 = VertexPartition(((0, 1), (2, 3), (4, 5)))
    cube = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    half = KGraph(6, 3, cube[:4])
    assert x_density(half, P3, (1, 1, 1)) == Fraction(1, 2)
    mixed = KGraph(6, 3, [(0, 1, 2)])
    with pytest.raises(InvalidEdgeProfile):
        x_density(mixed, P, (2, 1))


def test_monochromatic_predicates():
    H = KGraph(6, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)])
    single = {e: 7 for e in H.edges}
    assert monochromatic_fraction(H, single) == (7, Fraction(1))
    split = dict(single)
    split[(0, 1, 5)] = 8
    color, frac = monochromatic_fraction(H, split)
    assert (color, frac) == (7, Fraction(3, 4))
    assert is_zeta_monochromatic(H, split, Fraction(1, 4))
    assert not is_zeta_monochromatic(H, split, Fraction(1, 5))
    assert is_zeta_monochromatic(H, single, Fraction(0))
    with pytest.raises(EmptyGraph):
        monochromatic_fraction(KGraph(4, 3, []), {})
