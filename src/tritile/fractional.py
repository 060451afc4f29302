"""Exact-rational linear programming for perfect fractional tilings.

Feasibility is decided by a phase-1 revised simplex over the cone membership
formulation (one column per supporting set); an infeasible run yields the
dual multipliers, which are returned as an integer-scaled Farkas certificate.
Pivoting is deterministic and anti-cycling (lexicographic ratio test), and
all arithmetic is `fractions.Fraction`, so certificates and optima are exact
and reproducible bit for bit.

One `_Simplex` object holds an LP's state (basis, B^-1, basic values), and
each solve continues from it: phase 2 of `min_max_pair_weight` starts where
phase 1 stopped.  Every pivot, and every pivot that retires a column, goes
through one sparse elimination routine that touches only the nonzero columns
of the pivot row.  The ratio test's lexicographic reference is Q = B^-1 B_0,
B_0 the basis a solve starts from, so the first solve (from the identity
basis) reads Q as B^-1 itself, and a later solve reads each entry of Q it
compares from B^-1 and B_0's column, with no second matrix to pivot.

The set columns are read from the host's set index: the simplex packs its
incidence from the index's vertex masks, decodes the vertex tuple of a
column only when it enters or is priced exactly, and an answer builds the
witness of a basis column or of a violating set only.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, count
from math import gcd, lcm
from operator import mul
from sys import byteorder
from typing import Optional, Sequence

from .core import KGraph, _mask
from .errors import BudgetExceeded, InvalidDimension, InvalidVertex
from .patterns import TriangleCopy, _mask_vertices, _set_index, _vertex_columns

_ZERO = Fraction(0)
_ONE = Fraction(1)
# The lexicographic ratio test cannot cycle, so a solve that reaches this
# many pivots is a bug, not a hard instance.
_PIVOT_CAP = 1_000_000
# Pricing packs the block's incidence into one int per row, one unsigned
# field of this array type per block column.
_FIELD = "H"
_FIELD_BYTES = array(_FIELD).itemsize
_FIELD_BITS = 8 * _FIELD_BYTES


# -- data ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FractionalTiling:
    """Nonnegative rational weights on canonical copies of the host."""

    n: int
    weights: dict  # TriangleCopy -> Fraction (only nonzero weights stored)

    def vertex_weight(self, u: int) -> Fraction:
        if not 0 <= u < self.n:
            raise InvalidVertex(f"vertex {u} out of range")
        return sum(
            (w for c, w in self.weights.items() if u in c.vertices), start=_ZERO
        )

    def pair_weight(self, u: int, v: int) -> Fraction:
        for x in (u, v):
            if not 0 <= x < self.n:
                raise InvalidVertex(f"vertex {x} out of range")
        if u == v:
            raise InvalidVertex("pair weight needs two distinct vertices")
        return sum(
            (
                w
                for c, w in self.weights.items()
                if u in c.vertices and v in c.vertices
            ),
            start=_ZERO,
        )

    @property
    def perfect(self) -> bool:
        return all(self.vertex_weight(u) == 1 for u in range(self.n))

    def to_json(self) -> dict:
        return {
            "perfect": self.perfect,
            "weights": [
                {"copy": c.to_json(), "weight": frac_str(w)}
                for c, w in sorted(self.weights.items(), key=lambda cw: cw[0].sort_key())
            ],
        }


@dataclass(frozen=True, slots=True)
class FarkasCertificate:
    """Integer vector a with a . 1_{V(T)} >= 0 for every copy T and a . 1 < 0."""

    coeffs: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def total(self) -> int:
        return sum(self.coeffs)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs), "total": self.total()}


def frac_str(q) -> str:
    """An exact rational (or integer) as a "p/q" string."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


# -- revised simplex core ---------------------------------------------------
#
# Standard form: rows indexed 0..nrows-1, initial basis an identity of
# slack/artificial columns.  Columns 0..m-1 are one block of supporting-set
# columns, each a tuple of rows with unit coefficients and one shared cost;
# the few other columns (slacks, artificials, W) follow, each with one
# scalar coefficient on its rows.  Entering rule: most negative reduced
# cost, ties to the lowest column id.  Leaving rule: lexicographic ratio
# test against an identity reference, which is anti-cycling and
# deterministic and copes with the massive degeneracy of the min-max
# programs (Bland stalls there).  The duals y = c_B B^-1 are computed once
# per solve and carried across pivots.  The block is priced in one packed
# big-integer pass per pivot ("SIMD within a register", Lamport, CACM 1975):
# its incidence is packed at set-up into one int per row, a field per column.


def _packed_rows(masks: Sequence[int], universe: Sequence[int]) -> list[int]:
    """One int per vertex of ``universe``, in its order: field j of it
    (``_FIELD_BITS`` wide) is 1 when the mask ``masks[j]`` holds the vertex.
    Each is the vertex's column of the incidence, one 0/1 byte per block
    column, set into the low byte of each field."""
    packed = []
    for column in _vertex_columns(masks, universe, b"\x00\x01"):
        fields = bytearray(_FIELD_BYTES * len(column))
        fields[_FIELD_BYTES - 1::_FIELD_BYTES] = column  # last column first
        packed.append(int.from_bytes(fields, "big"))
    return packed


def _field_sums(values, packed, m, R):
    """(fields, lo, shift): field j holds the sum over block column j's R
    rows of ``(values[r] - lo) >> shift``, lo = min(values), for packed rows
    ``packed`` of m columns, in one big-integer pass.

    Every column has R rows, so the offset lowers every sum by R * lo.  When
    R times the values' range overflows a field, each term drops its low
    ``shift`` bits, and a field then reads under its column's sum by less
    than R << shift."""
    lo = min(values)
    shift = max(0, (R * (max(values) - lo)).bit_length() - _FIELD_BITS)
    total = sum(map(mul, [(v - lo) >> shift for v in values], packed))
    return array(_FIELD, total.to_bytes(_FIELD_BYTES * m, byteorder)), lo, shift


def _identity(n: int) -> list[list[Fraction]]:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


class _Column:
    __slots__ = ("rows", "coef", "cost")

    def __init__(self, rows, coef, cost):
        self.rows = tuple(rows)
        self.coef = coef
        self.cost = cost


class _Simplex:
    """One LP and its simplex state: ``basis`` (the column basic in each
    row), ``binv`` (B^-1) and ``xb`` (the basic values), set up from the
    identity basis ``basis`` over the right-hand side ``b``.  ``block`` gives
    each block column's rows, all equally many, and ``packed`` the block's
    incidence as ``_packed_rows`` packs it.  Each solve continues from the
    state the previous one left."""

    def __init__(
        self,
        nrows: int,
        block: Sequence[tuple[int, ...]],
        packed: list[int],
        block_cost: int,
        others: list[_Column],
        b: Sequence[Fraction],
        basis: Sequence[int],
    ):
        self.nrows = nrows
        self.m = len(block)
        self.block = block
        self.R = len(block[0]) if block else 0  # rows per block column
        self.block_cost = block_cost
        self.packed = packed
        self.others = others
        self.basis = list(basis)
        self.binv = _identity(nrows)
        self.xb = [Fraction(x) for x in b]
        self.retired: set[int] = set()
        self.solved = False

    def _col(self, j):
        """(rows, coefficient, cost) of column j."""
        if j < self.m:
            return self.block[j], 1, self.block_cost
        col = self.others[j - self.m]
        return col.rows, col.coef, col.cost

    def solve(self, *, minimize: bool = True, stop_at_zero: bool = False):
        """Primal simplex from the held basis; returns (objective, duals)
        and leaves the final basis, B^-1 and basic values in place."""
        n = self.nrows
        block_cost, m = self.block_cost, self.m
        basis, binv, xb = self.basis, self.binv, self.xb
        # Lexicographic reference: rows (xb_i | Q_i) with Q = B^-1 B_0, B_0
        # the basis this solve starts from, are lex-positive at the start
        # (Q = I) and stay so under the lex ratio rule.  The first solve
        # starts from the identity, so Q is B^-1 itself.  In a later one,
        # row i of Q at column c is row i of B^-1 times the column that was
        # basic in row c at the start, read only where a tie needs it.
        if self.solved:
            start = [self._col(j)[:2] for j in basis]

            def q_row(i):
                row = binv[i].__getitem__
                return (coef * sum(map(row, rows)) for rows, coef in start)
        else:
            q_row = binv.__getitem__
        self.solved = True
        others = [
            (m + idx, col.rows, col.coef, col.cost)
            for idx, col in enumerate(self.others)
            if m + idx not in self.retired
        ]
        y = self._multipliers()
        obj = sum(
            (self._col(j)[2] * x for j, x in zip(basis, xb) if x), start=_ZERO
        )

        for _pivot in range(_PIVOT_CAP):
            if stop_at_zero and obj == 0:
                return obj, y

            # Reduced costs scaled by the duals' common denominator: a basic
            # column prices to exactly 0, so it never enters.
            scale = lcm(*(q.denominator for q in y)) if n else 1
            yi = [q.numerator * (scale // q.denominator) for q in y]
            entering = -1
            best_t = 0
            if m:
                pick, j = self._price(yi, minimize)
                t = block_cost * scale - pick
                if (t < 0) if minimize else (t > 0):
                    best_t, entering = t, j
            for j, rows, coef, cost in others:
                t = cost * scale - coef * sum(map(yi.__getitem__, rows))
                if (t < best_t) if minimize else (t > best_t):
                    best_t, entering = t, j
            if entering < 0:
                return obj, y

            rows, coef, _cost = self._col(entering)
            d = self._column(rows, coef)
            leave = -1
            for i in range(n):
                if d[i] <= 0:
                    continue
                if leave < 0 or self._lex_less(i, leave, d, xb, q_row):
                    leave = i
            if leave < 0:
                raise ArithmeticError("unbounded direction in simplex")
            self._pivot(leave, d)
            basis[leave] = entering
            # The objective moves by rc times the entering value, and
            # y' = y + rc * (new pivot row of B^-1).
            rc = Fraction(best_t, scale)
            obj += rc * xb[leave]
            for r, v in enumerate(binv[leave]):
                if v:
                    y[r] += rc * v
        raise BudgetExceeded(f"simplex pivot cap {_PIVOT_CAP} exceeded")

    def _price(self, yi, minimize):
        """(sum, j) for the block column j whose rows' duals ``yi`` sum
        highest (lowest when maximizing), the least j on ties.

        The fields of ``_field_sums`` keep the columns' order, and when they
        are truncated, only the columns whose field is within R of the best
        one can be best, and those few are summed exactly."""
        R = self.R
        fields, lo, shift = _field_sums(yi, self.packed, self.m, R)
        best = max(fields) if minimize else min(fields)
        if not shift:
            return best + R * lo, fields.index(best)
        if minimize:
            near = compress(count(), map((best - R).__lt__, fields))
        else:
            near = compress(count(), map((best + R).__gt__, fields))
        block, get = self.block, yi.__getitem__
        sums = {j: sum(map(get, block[j])) for j in near}
        j = (max if minimize else min)(sums, key=sums.__getitem__)
        return sums[j], j

    @staticmethod
    def _lex_less(i, j, d, xb, q_row):
        """(xb_i|Q_i)/d_i < (xb_j|Q_j)/d_j lexicographically (d_i, d_j > 0),
        with ``q_row(i)`` giving row i of Q."""
        a = xb[i] * d[j]
        b = xb[j] * d[i]
        if a != b:
            return a < b
        di, dj = d[i], d[j]
        for a_, b_ in zip(q_row(i), q_row(j)):
            lhs = a_ * dj
            rhs = b_ * di
            if lhs != rhs:
                return lhs < rhs
        return False

    def retire(self, columns):
        """Bar ``columns`` from entering again.  Each one basic (at value
        zero) is pivoted out wherever another column crosses its row, the
        candidates tried in column order; rows with no crossing are inert
        (no entering column can ever move them) and keep it.  A basic column
        never crosses another basic column's row."""
        self.retired.update(columns)
        basis, binv = self.basis, self.binv
        for i in range(self.nrows):
            if basis[i] not in self.retired:
                continue
            if self.xb[i] != 0:
                raise ArithmeticError("only a zero-valued basic column can retire")
            row = binv[i]
            for j in range(self.m + len(self.others)):
                if j in self.retired:
                    continue
                rows, coef, _cost = self._col(j)
                if sum((row[r] for r in rows), start=_ZERO) == 0:
                    continue
                # theta = xb[i]/d[i] = 0: basis swap leaves the solution as is
                self._pivot(i, self._column(rows, coef))
                basis[i] = j
                break

    def _column(self, rows, coef):
        """d = B^-1 a for the column a with ``coef`` on ``rows``, exactly."""
        binv = self.binv
        n = self.nrows
        d = [_ZERO] * n
        for r in rows:
            for i in range(n):
                v = binv[i][r]
                if v:
                    d[i] += v
        if coef != 1:
            d = [coef * x for x in d]
        return d

    def _pivot(self, leave, d):
        """Make d the unit vector at ``leave``: divide row ``leave`` by d[leave]
        and subtract d[i] times it from every other row i, in place, in B^-1
        and in xb.  Only the pivot row's nonzero columns are touched, since
        the others would only subtract zeros."""
        xb, binv = self.xb, self.binv
        inv_piv = 1 / d[leave]
        xb[leave] *= inv_piv
        xl = xb[leave]
        crossed = [(i, f) for i, f in enumerate(d) if f and i != leave]
        row = binv[leave]
        pivot_row = [(j, v * inv_piv) for j, v in enumerate(row) if v]
        for j, v in pivot_row:
            row[j] = v
        for i, f in crossed:
            target = binv[i]
            for j, v in pivot_row:
                target[j] -= f * v
        for i, f in crossed:
            xb[i] -= f * xl

    def _multipliers(self):
        """y = c_B B^-1, from scratch."""
        n = self.nrows
        y = [_ZERO] * n
        for i in range(n):
            c = self._col(self.basis[i])[2]
            if c:
                row = self.binv[i]
                for r in range(n):
                    if row[r]:
                        y[r] += c * row[r]
        return y


# -- LP columns ---------------------------------------------------------------
#
# Every constraint in these programs depends on a copy only through its
# vertex set, so the column universe is the supporting (2k-1)-sets, each
# carrying its least witness copy.  This quotients away pattern symmetry
# without changing any optimum or certificate.


SetList = list  # list[(vertices, TriangleCopy)]


def _scale_to_integers(values: Sequence[Fraction]) -> tuple[int, ...]:
    denom = lcm(*(v.denominator for v in values)) if values else 1
    ints = [int(v * denom) for v in values]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _set_columns(H: KGraph, sets: Optional[SetList] = None):
    """(rows, packed rows, witness) of the LP's set columns: the host's set
    index, or the given ``sets``.  ``rows[j]`` is column j's vertex tuple,
    ``witness(j)`` its least witness, and the packed rows give the incidence
    of the n vertex rows."""
    if sets is None:
        index = _set_index(H)
        return index, _packed_rows(index.masks, range(H.n)), index.witness
    rows = [vs for vs, _ in sets]
    return rows, _packed_rows(list(map(_mask, rows)), range(H.n)), lambda j: sets[j][1]


class _IndexRows:
    """The set ``index``'s rows ``rows`` as LP set columns: ``masks`` holds
    their host masks, and column j reads as its vertices' positions in the
    sorted ``universe``, decoded when read, as its witness is built."""

    def __init__(self, index, rows: Sequence[int], universe: Sequence[int]):
        self.masks = [index.masks[r] for r in rows]
        self.universe = universe
        self.witness = lambda j: index.witness(rows[j])
        self._position = {v: i for i, v in enumerate(universe)}.__getitem__

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, j: int) -> tuple[int, ...]:
        return tuple(map(self._position, _mask_vertices(self.masks[j])))

    def columns(self):
        """(rows, packed rows, witness), as ``_set_columns`` gives them."""
        return self, _packed_rows(self.masks, self.universe), self.witness


def _basis_tiling(n: int, sx: "_Simplex", witness) -> FractionalTiling:
    """The weights a basic solution puts on the set columns, which come
    first; only the basic columns' witnesses are built."""
    weights: dict[TriangleCopy, Fraction] = {}
    for col_id, x in zip(sx.basis, sx.xb):
        if col_id < sx.m and x != 0:
            copy = witness(col_id)
            weights[copy] = weights.get(copy, _ZERO) + x
    return FractionalTiling(n, weights)


# -- operations --------------------------------------------------------------


def perfect_fractional_tiling(H: KGraph, *, sets: Optional[SetList] = None):
    """Perfect fractional tiling of H, or a Farkas certificate of its absence.

    Exactly one of the two is returned; the certificate is validated against
    the full supporting-set list before being handed back.
    """
    return _fractional_answer(H.n, _set_columns(H, sets))


def _fractional_answer(n: int, columns):
    """The Farkas certificate, or the basic solution's weights, of phase 1
    over the set ``columns``; only the basic columns' witnesses are built."""
    verdict = _fractional_verdict(n, columns)
    if isinstance(verdict, FarkasCertificate):
        return verdict
    return _basis_tiling(n, verdict, columns[2])


def _fractional_verdict(n: int, columns):
    """Phase 1 over the set ``columns`` of ``_set_columns``: the solved
    simplex when a perfect fractional tiling exists, else the Farkas
    certificate, checked against every set column."""
    rows, packed, witness = columns
    m = len(rows)
    artificials = [_Column((r,), 1, 1) for r in range(n)]
    sx = _Simplex(n, rows, packed, 0, artificials, [_ONE] * n, range(m, m + n))
    obj, y = sx.solve(minimize=True, stop_at_zero=True)
    if obj == 0:
        return sx
    cert = FarkasCertificate(_scale_to_integers([-v for v in y]))
    check = _check_certificate(cert, columns)
    if not check.valid:
        raise ArithmeticError(f"internal: extracted certificate fails: {check.reason}")
    return cert


@dataclass(frozen=True)
class CertificateCheck:
    valid: bool
    reason: str = ""
    violating_copy: Optional[TriangleCopy] = None


def verify_certificate(
    H: KGraph, cert: FarkasCertificate, *, sets: Optional[SetList] = None
) -> CertificateCheck:
    """Exact check over the full copy universe; reports a violating copy."""
    if cert.n != H.n:
        raise InvalidDimension(f"certificate has {cert.n} entries, host has {H.n}")
    return _check_certificate(cert, _set_columns(H, sets))


def _check_certificate(cert: FarkasCertificate, columns) -> CertificateCheck:
    """a.1 < 0, and a.1_V >= 0 for every set column V, summed exactly; the
    first violating column in row order is reported with its witness.

    Every column is summed in one packed pass (``_field_sums``).  Column j
    sums to at least R*lo + (fields[j] << shift), so it can sum below 0 only
    when fields[j] is under -R*lo / 2**shift, and only those columns, in row
    order, are summed exactly."""
    if cert.total() >= 0:
        return CertificateCheck(False, f"a.1 = {cert.total()} is not negative")
    rows, packed, witness = columns
    if not rows:
        return CertificateCheck(True)
    coeff = cert.coeffs.__getitem__
    R = len(rows[0])
    fields, lo, shift = _field_sums(cert.coeffs, packed, len(rows), R)
    bound = -((R * lo) >> shift)  # ceil(-R*lo / 2**shift)
    for j in compress(count(), map(bound.__gt__, fields)):
        value = sum(map(coeff, rows[j]))
        if value < 0:
            return CertificateCheck(
                False, f"copy on {rows[j]} has a.1_V = {value}", witness(j)
            )
    return CertificateCheck(True)


def b_avoiding_fractional_tiling(H: KGraph, B: KGraph):
    """Same verdict restricted to copies spanning no pair of B.

    Returned certificates are valid for the avoiding family (not necessarily
    for all copies of H).
    """
    if B.k != 2 or B.n != H.n:
        raise InvalidDimension("B must be a 2-uniform graph on V(H)")
    pairs = list(map(_mask, B.edges))
    index = _set_index(H)
    rows = [r for r, m in enumerate(index.masks) if all(m & p != p for p in pairs)]
    return _fractional_answer(H.n, _IndexRows(index, rows, range(H.n)).columns())


def packing_lp_value(
    H: KGraph, *, sets: Optional[SetList] = None
) -> tuple[Fraction, FractionalTiling]:
    """Exact optimum of the fractional packing relaxation max sum(w), w(u) <= 1."""
    columns = _set_columns(H, sets)
    obj, sx = _packing_lp(H.n, columns)
    return obj, _basis_tiling(H.n, sx, columns[2])


def _packing_lp(n: int, columns) -> tuple[Fraction, "_Simplex"]:
    """The packing relaxation's optimum over the set ``columns`` of
    ``_set_columns``, and the solved simplex, whose basis is its support."""
    rows, packed, _witness = columns
    m = len(rows)
    slacks = [_Column((r,), 1, 0) for r in range(n)]
    sx = _Simplex(n, rows, packed, 1, slacks, [_ONE] * n, range(m, m + n))
    obj, _y = sx.solve(minimize=False)
    return obj, sx


def min_max_pair_weight(H: KGraph):
    """Minimize, over perfect fractional tilings, the maximum pair weight.

    Returns (W*, tiling); if no perfect fractional tiling exists, the Farkas
    certificate is passed through instead.
    """
    columns = _set_columns(H)
    first = _fractional_verdict(H.n, columns)
    if isinstance(first, FarkasCertificate):
        return first

    index, vertex_rows, witness = columns
    n = H.n
    m = len(index)
    # the pairs inside some set; a pair's row is the AND of its vertices' rows
    pairs = [p for p in combinations(range(n), 2) if vertex_rows[p[0]] & vertex_rows[p[1]]]
    pair_row = {p: n + idx for idx, p in enumerate(pairs)}
    nrows = n + len(pairs)

    block = [vs + tuple(pair_row[p] for p in combinations(vs, 2)) for vs in index.vertex_sets]
    packed = vertex_rows + [vertex_rows[u] & vertex_rows[v] for u, v in pairs]
    w_col = m
    others = [_Column(range(n, nrows), -1, 0)]
    slack0 = m + 1
    others += [_Column((n + idx,), 1, 0) for idx in range(len(pairs))]
    art0 = slack0 + len(pairs)
    others += [_Column((r,), 1, 1) for r in range(n)]

    b = [_ONE] * n + [_ZERO] * len(pairs)
    basis = list(range(art0, art0 + n)) + list(range(slack0, slack0 + len(pairs)))
    sx = _Simplex(nrows, block, packed, 0, others, b, basis)
    art = set(range(art0, art0 + n))
    obj, _y = sx.solve(minimize=True, stop_at_zero=True)
    if obj != 0:
        raise ArithmeticError("internal: phase 1 infeasible after feasibility check")

    # Phase 2: minimize W from phase 1's basis.  Retire the artificials:
    # leftover basic ones pivot out (rows they cannot leave are inert) and
    # none enters again, so the program explored is exactly the
    # perfect-tiling polytope.
    sx.retire(art)
    for col in others:
        col.cost = 0
    others[0].cost = 1  # W
    sx.solve(minimize=True)
    w_star = _ZERO
    for col_id, x in zip(sx.basis, sx.xb):
        if col_id == w_col:
            w_star = x
        elif col_id in art and x != 0:
            raise ArithmeticError("internal: artificial drifted positive in phase 2")
    return w_star, _basis_tiling(n, sx, witness)
