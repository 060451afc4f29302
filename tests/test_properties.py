"""Cross-layer invariants on small random hosts.

Each property ties two layers that share no decision code: the exact
simplex (fractional verdicts, Farkas certificates, the packing LP), the
exact-cover search run without its fractional prefilter, the branch and
bound, and the independent validators.  The cover search is also checked
against the plain re-filtering search in ``oracles``.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile import fractional
from tritile.core import KGraph, complete_kgraph
from tritile.errors import BudgetExceeded
from tritile.exact import _CoverSearch, max_tiling, perfect_tiling
from tritile.fractional import (
    FarkasCertificate,
    min_max_pair_weight,
    packing_lp_value,
    perfect_fractional_tiling,
)
from tritile.validate import check_certificate, check_fractional, check_tiling

from oracles import oracle_cover_search


@st.composite
def small_hosts(draw):
    """k=3 hosts on 5..10 vertices and k=4 hosts on 7..9 vertices, with each
    k-set an edge independently at a drawn density."""
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(2 * k - 1, 10 if k == 3 else 9))
    density = draw(st.integers(2, 10)) / 10
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [e for e in itertools.combinations(range(n), k) if rng.random() < density]
    return KGraph(n, k, edges)


def _relabel(H: KGraph, perm) -> KGraph:
    return KGraph(H.n, H.k, [sorted(perm[v] for v in e) for e in H.edges])


@given(small_hosts())
@settings(max_examples=40, deadline=None)
def test_fractional_verdict_agrees_with_the_cover_search(H):
    verdict = perfect_fractional_tiling(H)
    tiling = perfect_tiling(H, use_lp=False)
    if isinstance(verdict, FarkasCertificate):
        assert check_certificate(H, verdict)
        assert tiling is None
    else:
        assert check_fractional(H, verdict)
    if tiling is not None:
        assert check_tiling(H, tiling, require_perfect=True)
        assert not isinstance(verdict, FarkasCertificate)


@given(small_hosts())
@settings(max_examples=40, deadline=None)
def test_packing_lp_bounds_max_tiling_and_marks_feasibility(H):
    value, omega = packing_lp_value(H)
    assert check_fractional(H, omega, require_perfect=False)
    assert sum(omega.weights.values()) == value
    size, witness = max_tiling(H)
    assert check_tiling(H, witness) and len(witness.copies) == size
    assert size <= value.numerator // value.denominator
    feasible = not isinstance(perfect_fractional_tiling(H), FarkasCertificate)
    assert (value == Fraction(H.n, 2 * H.k - 1)) == feasible


@given(small_hosts(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_verdict_and_lp_value_ignore_vertex_labels(H, rng):
    perm = list(range(H.n))
    rng.shuffle(perm)
    H2 = _relabel(H, perm)
    a, b = perfect_fractional_tiling(H), perfect_fractional_tiling(H2)
    assert isinstance(a, FarkasCertificate) == isinstance(b, FarkasCertificate)
    assert packing_lp_value(H)[0] == packing_lp_value(H2)[0]


@contextmanager
def _recorded_solves():
    """Every ``_Simplex.solve`` made inside the block, as (arguments, carried
    duals and objective, the same recomputed from the returned basis).  The
    recomputation runs at once, before a caller changes any cost."""
    solve = fractional._Simplex.solve
    seen = []

    def recording(self, **kwargs):
        obj, basis, binv, xb, y = out = solve(self, **kwargs)
        fresh_obj = sum(self._col(j)[2] * x for j, x in zip(basis, xb))
        seen.append((kwargs, (y, obj), (self._multipliers(basis, binv), fresh_obj)))
        return out

    fractional._Simplex.solve = recording
    try:
        yield seen
    finally:
        fractional._Simplex.solve = solve


@given(small_hosts())
@settings(max_examples=30, deadline=None)
def test_carried_duals_equal_duals_recomputed_from_the_basis(H):
    with _recorded_solves() as seen:
        perfect_fractional_tiling(H)
        packing_lp_value(H)
        min_max_pair_weight(H)
    for _kwargs, carried, fresh in seen:
        assert carried == fresh


def test_carried_duals_are_checked_in_every_phase():
    """Phase 1, packing, and both min-max phases each return carried duals
    equal to fresh ones on a host where every phase runs."""
    for H in (complete_kgraph(9, 3), complete_kgraph(7, 4)):
        for solver, solves in (
            (perfect_fractional_tiling, 1),
            (packing_lp_value, 1),
            (min_max_pair_weight, 3),  # feasibility, min-max phase 1, phase 2
        ):
            with _recorded_solves() as seen:
                solver(H)
            assert len(seen) == solves
            assert all(carried == fresh for _, carried, fresh in seen)
        assert seen[-1][0].get("binv") is not None  # phase 2 starts warm


@st.composite
def row_families(draw):
    """A universe inside 0..13, its 2- and 3-sets each a row at a drawn
    density, listed per vertex in a seeded random row order, and optionally
    a prune that rejects any partial cover holding a banned pair of rows."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    universe = sorted(rng.sample(range(14), draw(st.integers(1, 12))))
    density = draw(st.integers(1, 6)) / 10
    rows = [
        c
        for size in (2, 3)
        for c in itertools.combinations(universe, size)
        if rng.random() < density
    ]
    rng.shuffle(rows)
    masks = [sum(1 << v for v in r) for r in rows]
    order = list(range(len(rows)))
    rng.shuffle(order)
    by_vertex = {v: [] for v in universe}
    for r in order:
        for v in rows[r]:
            by_vertex[v].append(r)
    accept = None
    if draw(st.booleans()):
        banned = {frozenset(rng.sample(range(len(rows)), 2)) for _ in range(len(rows) // 2)}

        def accept(chosen):
            return all(frozenset((q, chosen[-1])) not in banned for q in chosen[:-1])

    return universe, by_vertex, masks, accept


@given(row_families())
@settings(max_examples=200, deadline=None)
def test_cover_search_matches_the_refiltering_oracle(family):
    universe, by_vertex, masks, accept = family
    rows, nodes = oracle_cover_search(universe, by_vertex, masks, accept)
    search = _CoverSearch(universe, by_vertex, masks, nodes, accept)
    assert search.run() == rows
    assert search.nodes == nodes
    if nodes:
        with pytest.raises(BudgetExceeded):
            _CoverSearch(universe, by_vertex, masks, nodes - 1, accept).run()
