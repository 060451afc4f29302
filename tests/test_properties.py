"""Cross-layer invariants on small random hosts.

Each property ties two layers that share no decision code: the exact
simplex (fractional verdicts, Farkas certificates, the packing LP), the
exact-cover search run without its fractional prefilter, the branch and
bound, and the independent validators.  The cover and hitting-set searches
are also checked against the plain re-filtering searches in ``oracles``, and
the packing search against trying every combination of rows.
"""

import itertools
import random
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile import fractional
from tritile.core import KGraph, complete_kgraph
from tritile.errors import BudgetExceeded
from tritile.exact import _CoverSearch, _disjoint_rows, _pack, max_tiling, perfect_tiling
from tritile.fractional import (
    FarkasCertificate,
    min_max_pair_weight,
    packing_lp_value,
    perfect_fractional_tiling,
    verify_certificate,
)
from tritile.lattice import _min_hit_decision
from tritile.patterns import _set_index, supports_triangle
from tritile.validate import brute_supports, check_certificate, check_fractional, check_tiling

from oracles import (
    oracle_cover_search,
    oracle_first_disjoint_rows,
    oracle_max_packing,
    oracle_min_hit_decision,
    oracle_packed_rows,
    oracle_price,
    oracle_row_bits,
    oracle_supporting_sets,
)


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


def _packed(block, nrows):
    return oracle_packed_rows(block, nrows, fractional._FIELD_BITS)


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


_Solve = namedtuple("_Solve", "sx start carried fresh values_hold retired_stay_out")


def _values_hold(sx, b):
    """The held basic values equal B^-1 b, recomputed from the held B^-1,
    and the basis columns weighted by them add up to b."""
    n = sx.nrows
    if sx.xb != [sum((row[r] * b[r] for r in range(n)), start=Fraction(0)) for row in sx.binv]:
        return False
    lhs = [Fraction(0)] * n
    for j, x in zip(sx.basis, sx.xb):
        rows, coef, _cost = sx._col(j)
        for r in rows:
            lhs[r] += coef * x
    return lhs == b


def _retired_basics(sx):
    return {(i, j) for i, j in enumerate(sx.basis) if j in sx.retired}


@contextmanager
def _recorded_solves():
    """Every ``_Simplex.solve`` and ``retire`` made inside the block.  A solve
    records its simplex, its starting basis, the carried duals and objective,
    the same recomputed from the final basis, whether the held basic values
    equal B^-1 b recomputed from scratch, and whether every retired column
    basic at the end was already basic in that row at the start.  A retire
    records whether the basic values still hold.  The recomputation runs at
    once, before a caller changes any cost."""
    Simplex = fractional._Simplex
    init, solve, retire = Simplex.__init__, Simplex.solve, Simplex.retire
    rhs, solves, retires = {}, [], []

    def recording_init(self, nrows, block, packed, block_cost, others, b, basis):
        init(self, nrows, block, packed, block_cost, others, b, basis)
        rhs[self] = [Fraction(x) for x in b]

    def recording_solve(self, **kwargs):
        start, fixed = list(self.basis), _retired_basics(self)
        obj, y = out = solve(self, **kwargs)
        fresh_obj = sum(self._col(j)[2] * x for j, x in zip(self.basis, self.xb))
        solves.append(_Solve(
            self,
            start,
            (y, obj),
            (self._multipliers(), fresh_obj),
            _values_hold(self, rhs[self]),
            _retired_basics(self) <= fixed,
        ))
        return out

    def recording_retire(self, columns):
        retire(self, columns)
        retires.append(_values_hold(self, rhs[self]))

    Simplex.__init__, Simplex.solve, Simplex.retire = (
        recording_init, recording_solve, recording_retire
    )
    try:
        yield solves, retires
    finally:
        Simplex.__init__, Simplex.solve, Simplex.retire = init, solve, retire


def _sound(solve: _Solve) -> bool:
    return solve.carried == solve.fresh and solve.values_hold and solve.retired_stay_out


@given(small_hosts())
@settings(max_examples=30, deadline=None)
def test_carried_duals_equal_duals_recomputed_from_the_basis(H):
    with _recorded_solves() as (solves, retires):
        perfect_fractional_tiling(H)
        packing_lp_value(H)
        min_max_pair_weight(H)
    assert all(map(_sound, solves))
    assert all(retires)


def test_carried_duals_are_checked_in_every_phase():
    """Phase 1, packing, and both min-max phases each return carried duals
    equal to fresh ones, and hold exact basic values, on a host where every
    phase runs; phase 2 continues from phase 1's retired state."""
    for H in (complete_kgraph(9, 3), complete_kgraph(7, 4)):
        for solver, count in (
            (perfect_fractional_tiling, 1),
            (packing_lp_value, 1),
            (min_max_pair_weight, 3),  # feasibility, min-max phase 1, phase 2
        ):
            with _recorded_solves() as (solves, retires):
                solver(H)
            assert len(solves) == count
            assert all(map(_sound, solves))
        phase1, phase2 = solves[-2:]
        assert phase2.sx is phase1.sx and phase2.start != phase1.start  # warm
        assert retires == [True] and phase2.sx.retired


def test_retired_column_never_enters():
    """One row, b = 1, started on a cost-3 column: the cheapest column
    (cost 0) would enter, but once retired the set column (cost 2) does."""
    def lp():
        others = [fractional._Column((0,), 1, 3), fractional._Column((0,), 1, 0)]
        return fractional._Simplex(1, [(0,)], _packed([(0,)], 1), 2, others, [1], [1])

    free = lp()
    assert free.solve() == (0, [0]) and free.basis == [2]
    barred = lp()
    barred.retire([2])
    assert barred.solve() == (2, [2]) and barred.basis == [0]
    assert barred.xb == [1]


@given(small_hosts(), st.data())
@settings(max_examples=80, deadline=None)
def test_certificate_check_agrees_with_the_validator(H, data):
    """``verify_certificate`` against ``validate.check_certificate``: on the
    solver's own certificate, scaled and with one coefficient perhaps
    lowered, and on drawn vectors where there is none.  Steps of 2**20 and
    2**70 make the values too wide for the packed fields.  A check that
    fails on a set names the first violating set in vertex-set order and
    that set's least copy."""
    s = 2 * H.k - 1
    verdict = perfect_fractional_tiling(H)
    step = data.draw(st.sampled_from([1, 2**20, 2**70]))
    if isinstance(verdict, FarkasCertificate):
        coeffs = [c * step for c in verdict.coeffs]
        coeffs[data.draw(st.integers(0, H.n - 1))] -= data.draw(st.integers(0, 2))
    else:
        small = st.integers(-3, 3)
        coeffs = [data.draw(small) * step + data.draw(small) for _ in range(H.n)]
    cert = FarkasCertificate(tuple(coeffs))
    check = verify_certificate(H, cert)
    assert check.valid == check_certificate(H, cert)
    if not check.valid and cert.total() < 0:
        S, value = next(
            (S, value)
            for S in itertools.combinations(range(H.n), s)
            for value in [sum(coeffs[v] for v in S)]
            if value < 0 and brute_supports(H, S)
        )
        assert check.reason == f"copy on {S} has a.1_V = {value}"
        assert check.violating_copy == supports_triangle(H, S)


@st.composite
def index_hosts(draw):
    """k=2 hosts on 3..17 vertices, k=3 hosts on 5..10 and k=4 hosts on
    7..9, with each k-set an edge at a drawn density: vertex masks of one
    to three bytes."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2 * k - 1, {2: 17, 3: 10, 4: 9}[k]))
    density = draw(st.integers(1, 10)) / 10
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [e for e in itertools.combinations(range(n), k) if rng.random() < density]
    return KGraph(n, k, edges)


@given(index_hosts())
@settings(max_examples=150, deadline=None)
def test_masks_first_index_matches_brute_force(H):
    """The index's rows, sorted by their reversed mask bytes, are the
    supporting sets in vertex-tuple order; its transposed row bitsets and
    packed LP rows equal the ones built bit by bit from the vertex tuples;
    ``contains`` answers every (2k-1)-set; and one set over the cap raises
    with ``partial_count == cap + 1``, in the build and from the cache."""
    sets = oracle_supporting_sets(H)
    index = _set_index(H)
    assert [index[r] for r in range(len(index))] == sets
    assert index.masks == [sum(1 << v for v in vs) for vs in sets]
    assert list(index.vertex_bits().items()) == list(oracle_row_bits(range(H.n), sets).items())
    packed = oracle_packed_rows(sets, H.n, fractional._FIELD_BITS)
    assert fractional._packed_rows(index.masks, H.n) == packed
    support = set(sets)
    for S in itertools.combinations(range(H.n), 2 * H.k - 1):
        assert index.contains(S) == (S in support)
    if sets:
        for host in (KGraph(H.n, H.k, H.edges), H):  # a fresh build, then the cache
            with pytest.raises(BudgetExceeded) as over:
                _set_index(host, cap=len(sets) - 1)
            assert over.value.partial_count == len(sets)


@st.composite
def priced_blocks(draw):
    """A block of columns, each R distinct rows of ``nrows``, repeated
    columns included, and integer duals of both signs.  A dual is a multiple
    of a drawn step plus a small term: steps of 2**20 and 2**70 make duals
    too wide for the packed fields, and the small terms make columns tie
    once the duals are truncated."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nrows = draw(st.integers(1, 9))
    R = draw(st.integers(1, nrows))
    kinds = [tuple(sorted(rng.sample(range(nrows), R))) for _ in range(rng.randint(1, 8))]
    block = [rng.choice(kinds) for _ in range(draw(st.integers(1, 40)))]
    step = draw(st.sampled_from([1, 2**20, 2**70]))
    duals = [rng.randint(-3, 3) * step + rng.randint(-3, 3) for _ in range(nrows)]
    return nrows, block, duals


@given(priced_blocks(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_packed_pricing_matches_plain_sums(case, minimize):
    nrows, block, duals = case
    sx = fractional._Simplex(nrows, block, _packed(block, nrows), 0, [], [0] * nrows, [0] * nrows)
    assert sx._price(duals, minimize) == oracle_price(block, duals, minimize)


def test_packed_pricing_looks_past_the_best_field():
    """With X = 2**20 the fields drop 6 bits.  Column 0 sums 2X - 2 and
    column 1 sums 2X - 3, but their fields read 2**15 - 2 and 2**15 - 1, so
    each sense's best column has a field one off the best field."""
    X = 2**20
    block = [(0, 1), (2, 3)]
    sx = fractional._Simplex(4, block, _packed(block, 4), 0, [], [0] * 4, [0] * 4)
    assert sx._price([X - 1, X - 1, 2 * X - 3, 0], True) == (2 * X - 2, 0)
    assert sx._price([X - 1, X - 1, 2 * X - 3, 0], False) == (2 * X - 3, 1)


@st.composite
def row_families(draw):
    """A universe inside 0..13, its 2- and 3-sets each a row at a drawn
    density and numbered in a seeded random order, listed per vertex by
    ascending index, and optionally a prune that rejects any partial cover
    holding a banned pair of rows."""
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
    by_vertex = {v: [] for v in universe}
    for r in range(len(rows)):
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
    live = {v: sum(1 << r for r in by_vertex[v]) for v in universe}
    search = _CoverSearch(live, masks, nodes, accept)
    assert search.run() == rows
    assert search.nodes == nodes
    if nodes:
        with pytest.raises(BudgetExceeded):
            _CoverSearch(live, masks, nodes - 1, accept).run()


def _hit_outcome(search, family, limit, budget):
    try:
        return search(family, limit, budget)
    except BudgetExceeded:
        return "budget"


@given(
    st.lists(st.integers(0, 2**9 - 1), max_size=14),
    st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_hitting_set_search_matches_the_refiltering_oracle(family, limit):
    """The same hitting set or None, and a raise at every budget below the
    oracle's node count: both count nodes alike, so they raise at the same
    node."""
    budget = 0
    while True:
        want = _hit_outcome(oracle_min_hit_decision, family, limit, budget)
        assert _hit_outcome(_min_hit_decision, family, limit, budget) == want
        if want != "budget":
            break
        budget += 1


@st.composite
def packing_rows(draw):
    """n vertices, a row size and a drawn set of rows of that size inside
    0..n-1, sorted by vertex tuple."""
    n = draw(st.integers(3, 13))
    size = draw(st.integers(2, min(5, n)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, 14))
    rows = {tuple(sorted(rng.sample(range(n), size))) for _ in range(count)}
    return n, size, sorted(rows)


@given(packing_rows(), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_packing_search_finds_the_first_and_the_largest_packings(case, want):
    n, size, rows = case
    masks = [sum(1 << v for v in row) for row in rows]
    first = _disjoint_rows(masks, want, 10**6)
    assert first == oracle_first_disjoint_rows(rows, want)
    found = _pack(masks, oracle_row_bits(range(n), rows), 0, n // size, 10**6)
    assert len(found or ()) == oracle_max_packing(rows)
    if found:
        assert found == sorted(found)
        assert len(set().union(*(rows[r] for r in found))) == size * len(found)
