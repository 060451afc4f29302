import random
from fractions import Fraction

import pytest

from tritile import fractional
from tritile.core import KGraph, complete_kgraph
from tritile.constructions import extremal_construction, random_with_codegree
from tritile.errors import BudgetExceeded, InvalidDimension
from tritile.fractional import (
    FarkasCertificate,
    FractionalTiling,
    b_avoiding_fractional_tiling,
    min_max_pair_weight,
    packing_lp_value,
    perfect_fractional_tiling,
    verify_certificate,
)
from tritile.patterns import generalized_triangle, supporting_sets
from tritile.validate import check_certificate, check_fractional


def test_complete_host_feasible():
    r = perfect_fractional_tiling(complete_kgraph(10, 3))
    assert isinstance(r, FractionalTiling)
    assert r.perfect
    assert check_fractional(complete_kgraph(10, 3), r)


def test_extremal_infeasible_with_canonical_certificate():
    inst = extremal_construction(3, 15)
    r = perfect_fractional_tiling(inst.graph)
    assert isinstance(r, FarkasCertificate)
    assert verify_certificate(inst.graph, r).valid
    hand = FarkasCertificate(tuple([3] * 5 + [-2] * 10))
    assert hand.total() == -5
    assert verify_certificate(inst.graph, hand).valid
    assert check_certificate(inst.graph, hand)


def test_pivot_cap_raises_budget_exceeded(monkeypatch):
    monkeypatch.setattr(fractional, "_PIVOT_CAP", 0)
    with pytest.raises(BudgetExceeded, match="simplex pivot cap 0 exceeded"):
        perfect_fractional_tiling(complete_kgraph(10, 3))


def test_edgeless_certificate_all_minus_one():
    r = perfect_fractional_tiling(KGraph(8, 3, []))
    assert isinstance(r, FarkasCertificate)
    assert r.coeffs == (-1,) * 8


def test_verify_certificate_zero_vector_invalid():
    H = complete_kgraph(10, 3)
    assert not verify_certificate(H, FarkasCertificate((0,) * 10)).valid


def test_verify_certificate_fails_on_tilable_host():
    H = complete_kgraph(10, 3)
    rng = random.Random(1)
    for _ in range(5):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(10))
        cert = FarkasCertificate(coeffs)
        check = verify_certificate(H, cert)
        assert not check.valid


def _first_violation(H, coeffs):
    """(vertex set, a.1_V, least witness) of the first supporting set, in
    vertex-set order, whose coefficients sum below 0, by plain sums."""
    for vs, witness in supporting_sets(H):
        value = sum(coeffs[v] for v in vs)
        if value < 0:
            return vs, value, witness
    return None


def test_certificate_check_tests_the_total_and_every_set():
    """On ext(3,20) the closed-form vector (3 on A, -2 on B) is valid.
    Lowering any one coefficient makes some sets sum below 0, and the check
    reports the first of them with its least witness, whichever vertex it
    was; a vector whose total is not negative fails on its total alone."""
    inst = extremal_construction(3, 20)
    H = inst.graph
    closed = [-2] * H.n
    for a in inst.A:
        closed[a] = 3
    assert verify_certificate(H, FarkasCertificate(tuple(closed))).valid
    for v in range(H.n):
        lowered = list(closed)
        lowered[v] -= 1
        check = verify_certificate(H, FarkasCertificate(tuple(lowered)))
        vs, value, witness = _first_violation(H, lowered)
        assert (check.valid, check.reason) == (False, f"copy on {vs} has a.1_V = {value}")
        assert check.violating_copy is witness
    raised = list(closed)
    raised[inst.B[-1]] += 5  # every set still sums to >= 0, the total to 0
    assert _first_violation(H, raised) is None
    check = verify_certificate(H, FarkasCertificate(tuple(raised)))
    assert (check.valid, check.reason, check.violating_copy) == (
        False, "a.1 = 0 is not negative", None
    )


def test_verify_certificate_dimension_error():
    with pytest.raises(InvalidDimension):
        verify_certificate(complete_kgraph(10, 3), FarkasCertificate((1, -2)))


def test_b_avoiding_empty_matches_plain(small_corpus):
    for _, H in small_corpus[:6]:
        empty = KGraph(H.n, 2, [])
        a = perfect_fractional_tiling(H)
        b = b_avoiding_fractional_tiling(H, empty)
        assert type(a) is type(b)
        if isinstance(a, FractionalTiling):
            assert b.perfect


def test_b_avoiding_single_pair_still_feasible():
    H = complete_kgraph(10, 3)
    B = KGraph(10, 2, [(0, 1)])
    r = b_avoiding_fractional_tiling(H, B)
    assert isinstance(r, FractionalTiling)
    assert r.pair_weight(0, 1) == 0


def test_b_avoiding_complete_pairs_infeasible():
    H = complete_kgraph(10, 3)
    import itertools

    B = KGraph(10, 2, itertools.combinations(range(10), 2))
    r = b_avoiding_fractional_tiling(H, B)
    assert isinstance(r, FarkasCertificate)


def test_min_max_pair_weight_complete():
    w_star, omega = min_max_pair_weight(complete_kgraph(10, 3))
    # every perfect tiling has sum_v w(uv) = 4 over 9 pairs, so max >= 4/9,
    # and the uniform tiling attains it
    assert w_star == Fraction(4, 9)
    assert omega.perfect
    assert max(
        omega.pair_weight(u, v) for u in range(10) for v in range(u + 1, 10)
    ) == Fraction(4, 9)


def test_min_max_witness_is_tight(small_corpus):
    checked = 0
    for _, H in small_corpus:
        if checked >= 3:
            break
        r = min_max_pair_weight(H)
        if isinstance(r, FarkasCertificate):
            continue
        w_star, omega = r
        assert check_fractional(H, omega)
        heaviest = max(
            omega.pair_weight(u, v)
            for u in range(H.n)
            for v in range(u + 1, H.n)
        )
        assert heaviest == w_star
        checked += 1
    assert checked


def test_min_max_pair_weight_infeasible_passthrough():
    r = min_max_pair_weight(extremal_construction(3, 10).graph)
    assert isinstance(r, FarkasCertificate)


def test_min_max_single_copy_forced():
    T = generalized_triangle(3)
    w_star, omega = min_max_pair_weight(T)
    assert w_star == 1
    assert omega.perfect


def test_min_max_invariant_under_relabelling():
    H = random_with_codegree(8, 3, 4, seed=33)
    r = min_max_pair_weight(H)
    if isinstance(r, FarkasCertificate):
        pytest.skip("instance not fractionally tilable")
    w_star, _ = r
    perm = [3, 1, 7, 0, 5, 2, 6, 4]
    H2 = KGraph(8, 3, [tuple(sorted(perm[v] for v in e)) for e in H.edges])
    w2, _ = min_max_pair_weight(H2)
    assert w2 == w_star


def test_pair_weight_sum_identity(small_corpus):
    checked = 0
    for _, H in small_corpus:
        if checked >= 4:
            break
        r = perfect_fractional_tiling(H)
        if not isinstance(r, FractionalTiling):
            continue
        checked += 1
        for u in range(H.n):
            total = sum(
                r.pair_weight(u, v) for v in range(H.n) if v != u
            )
            assert total == (2 * H.k - 2) * r.vertex_weight(u)
    assert checked


def test_zero_tiling_weights():
    omega = FractionalTiling(6, {})
    assert omega.vertex_weight(0) == 0
    assert omega.pair_weight(0, 1) == 0
    assert not omega.perfect


def test_duality_mutual_exclusion(small_corpus):
    for _, H in small_corpus[:25]:
        r = perfect_fractional_tiling(H)
        if isinstance(r, FractionalTiling):
            assert check_fractional(H, r)
        else:
            assert verify_certificate(H, r).valid


def test_packing_value_extremal():
    assert packing_lp_value(extremal_construction(3, 15).graph)[0] == Fraction(5, 2)
    assert packing_lp_value(extremal_construction(4, 14).graph)[0] == Fraction(3, 2)
