import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile import core
from tritile.core import (
    ExtremalityVerdict,
    KGraph,
    complete_kgraph,
    density,
    format_kgraph,
    induced,
    is_gamma_extremal,
    load_kgraph,
    min_codegree,
    parse_kgraph,
)
from tritile.constructions import extremal_construction, random_with_codegree
from tritile.errors import (
    BudgetExceeded,
    FormatError,
    InvalidArity,
    InvalidVertex,
    TooFewVertices,
)

from tritile.exact import build_auxiliary_graph, corollary_check
from tritile.lattice import VertexPartition, index_vector
from tritile.patterns import enumerate_copies, supporting_sets

from oracles import oracle_gamma_extremal


def test_codegree_complete():
    H = complete_kgraph(5, 3)
    assert H.codegree((0, 1)) == 3
    assert H.neighborhood((0, 1)) == (2, 3, 4)


def test_codegree_extremal_pair_in_b():
    inst = extremal_construction(3, 15)
    for S in [(5, 6), (9, 14), (7, 11)]:
        assert inst.graph.codegree(S) == 5
        assert inst.graph.neighborhood(S) == inst.A


def test_codegree_empty_graph():
    H = KGraph(8, 3, [])
    assert H.codegree((2, 5)) == 0


def test_codegree_errors():
    H = complete_kgraph(5, 3)
    with pytest.raises(InvalidArity):
        H.codegree((0, 1, 2))
    with pytest.raises(InvalidVertex):
        H.codegree((0, 9))


def test_min_codegree_extremal():
    assert min_codegree(extremal_construction(3, 15).graph)[0] == 5
    assert min_codegree(extremal_construction(4, 14).graph)[0] == 3


def test_min_codegree_complete_with_witness():
    value, witness = min_codegree(complete_kgraph(6, 3))
    assert value == 4
    assert witness == (0, 1)


def test_min_codegree_too_few():
    with pytest.raises(TooFewVertices):
        min_codegree(KGraph(1, 3, []))


def test_density_examples():
    assert density(complete_kgraph(5, 3)) == 1
    inst = extremal_construction(3, 15)
    sub, _ = induced(inst.graph, inst.B)
    assert density(sub) == 0
    H = KGraph(4, 3, [(0, 1, 2), (0, 1, 3)])
    assert density(H) == Fraction(1, 2)
    with pytest.raises(TooFewVertices):
        density(KGraph(2, 3, []))


def test_induced_extremal_a_side_complete():
    inst = extremal_construction(3, 15)
    sub, relabel = induced(inst.graph, inst.A)
    assert sub == complete_kgraph(5, 3)
    assert relabel == {v: i for i, v in enumerate(inst.A)}


def test_induced_identity_and_small():
    H = random_with_codegree(8, 3, 2, seed=5)
    sub, _ = induced(H, range(8))
    assert sub == H
    tiny, _ = induced(H, (0, 1))
    assert tiny.edge_count() == 0


def test_gamma_extremal_extremal_instance():
    inst = extremal_construction(3, 15)
    verdict = is_gamma_extremal(inst.graph, Fraction(0))
    assert verdict.extremal
    assert verdict.size == 9
    assert set(verdict.witness) <= set(inst.B)


def test_gamma_extremal_complete_false():
    verdict = is_gamma_extremal(complete_kgraph(10, 3), Fraction(1, 2))
    assert not verdict.extremal
    assert verdict.witness is None


def test_gamma_extremal_edgeless_true():
    verdict = is_gamma_extremal(KGraph(10, 3, []), Fraction(0))
    assert verdict.extremal


def test_gamma_extremal_finds_the_north_star_witness_within_its_budget(monkeypatch):
    # ext(3,30) at gamma 0: 117 search nodes to the witness 11..28, inside B
    H = extremal_construction(3, 30).graph
    monkeypatch.setattr(core, "DEFAULT_NODE_BUDGET", 117)
    verdict = is_gamma_extremal(H, Fraction(0))
    assert verdict == ExtremalityVerdict(True, tuple(range(11, 29)), 18)
    monkeypatch.setattr(core, "DEFAULT_NODE_BUDGET", 116)
    with pytest.raises(BudgetExceeded, match="^witness search exceeded 116 nodes$"):
        is_gamma_extremal(H, Fraction(0))


def test_gamma_extremal_matches_oracle_small():
    # n = 5 puts the target below k for k = 2 and 4, n = 4 for k = 3; the
    # codegree runs from 0 to n - k, so there are hosts with no witness
    gammas = (Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1))
    for k, sizes in ((2, (5, 9, 12)), (3, (4, 7, 10, 12)), (4, (5, 8, 11, 12))):
        for n in sizes:
            for seed in range(4):
                H = random_with_codegree(n, k, seed * (n - k) // 3, seed=seed)
                size = (2 * k - 3) * n // (2 * k - 1)
                for gamma in gammas:
                    verdict = is_gamma_extremal(H, gamma)
                    witness = oracle_gamma_extremal(H, gamma, size)
                    assert verdict == ExtremalityVerdict(witness is not None, witness, size)


def test_codegree_sum_identity_on_corpus(small_corpus):
    for _, H in small_corpus[:20]:
        total = sum(
            H.codegree(S) for S in itertools.combinations(range(H.n), H.k - 1)
        )
        assert total == H.k * H.edge_count()


def test_min_codegree_removal_bound(small_corpus):
    for seed, H in small_corpus[:10]:
        if H.n < H.k + 2:
            continue
        S = tuple(range(H.n - 2))
        sub, _ = induced(H, S)
        assert min_codegree(sub)[0] >= min_codegree(H)[0] - (H.n - len(S))


@given(st.integers(4, 9), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_density_times_binomial_is_edge_count(n, delta, seed):
    delta = min(delta, n - 2)
    H = random_with_codegree(n, 3, delta, seed=seed)
    assert density(H) * comb(n, 3) == H.edge_count()


def test_format_round_trip():
    H = random_with_codegree(9, 3, 2, seed=11)
    text = format_kgraph(H, comments=["round trip"])
    H2 = parse_kgraph(text)
    assert H2 == H
    assert text.endswith("\n")


def test_format_rejects_missing_newline():
    with pytest.raises(FormatError):
        parse_kgraph("p kgraph 3 3\ne 0 1 2")


def test_format_rejects_duplicate_edges():
    with pytest.raises(FormatError):
        parse_kgraph("p kgraph 4 3\ne 0 1 2\ne 0 1 2\n")


def test_format_rejects_unsorted_edge():
    with pytest.raises(FormatError):
        parse_kgraph("p kgraph 4 3\ne 2 1 0\n")


@pytest.mark.parametrize("text", ["p kgraph 5 x\n", "p kgraph 5.0 3\n"])
def test_format_rejects_non_integer_sizes(text):
    with pytest.raises(FormatError, match="line 1: non-integer n or k"):
        parse_kgraph(text)


def test_load_rejects_non_utf8_text(tmp_path):
    path = tmp_path / "h.kg"
    path.write_bytes(b"p kgraph 5 3\nc \xff\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        load_kgraph(path)


_K7 = complete_kgraph(7, 3)
_AUX = KGraph(7, 5, [(0, 1, 2, 3, 4)])


@pytest.mark.parametrize(
    "call",
    [
        lambda vs: induced(_K7, vs),
        lambda vs: _K7.codegree((vs[0], vs[-1])),
        lambda vs: supporting_sets(_K7, restrict=vs),
        lambda vs: enumerate_copies(_K7, restrict=vs),
        lambda vs: build_auxiliary_graph(_K7, vs, (5, 6)),
        lambda vs: build_auxiliary_graph(_K7, (0, 1, 2), vs),
        lambda vs: corollary_check(_AUX, vs, (5, 6), Fraction(0)),
        lambda vs: corollary_check(_AUX, (0, 1, 2), vs, Fraction(0)),
        lambda vs: index_vector(VertexPartition((tuple(range(7)),)), vs),
    ],
    ids=[
        "induced", "codegree", "supporting_sets", "enumerate_copies",
        "auxiliary-A", "auxiliary-B", "corollary-A", "corollary-B", "index_vector",
    ],
)
@pytest.mark.parametrize("vs", [(-1, 0, 1), (0, 1, 7)], ids=["negative", "too-large"])
def test_vertices_outside_the_range_raise_invalid_vertex(call, vs):
    with pytest.raises(InvalidVertex, match=r"leaves the vertex range 0\.\.6"):
        call(vs)
