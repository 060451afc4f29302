"""Seeded inputs, timed operations and output checks for each workload.

A workload is a pool of passes; a pass is a list of operations.  A run
repeats rounds, and a round executes every pass of the pool once, so every
operation of the pool is timed the same number of times.  Hosts are kept
as plain ``(n, k, edges)`` tuples and every operation builds fresh ``KGraph``
objects inside its timed call: lazy indexes and any per-host cache are paid
by each operation and never carried over from an earlier one.

Operations call the program through module attributes (``exact.perfect_tiling``
and so on), which is where the tracer in ``spans.py`` wraps them.

The checks use ``tritile.validate``, which shares no code with the solvers.
Where a verdict is "none", the check needs an independent proof: a Farkas
certificate checked by ``validate.check_certificate`` or a brute-force search.
Workloads are chosen so that every answer can be checked this way.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

from tritile import constructions, core, exact, fractional, lattice, patterns, rainbow, validate
from tritile.errors import GenerationFailed

NAMES = ("corpus", "extremal", "absorb", "rainbow")  # order fixes the host seeds

# Passes per pool, sized so that a 30-second run times every operation
# several times.  Corpus keeps three passes (108 hosts), so at least ten
# hosts lie beyond its p90.
CORPUS_PASSES = 3
ABSORB_PASSES = 2
RAINBOW_PASSES = 1


class WrongOutput(Exception):
    """An operation returned an answer that its independent check rejects."""


def _require(ok, message):
    if not ok:
        raise WrongOutput(message)


class Op:
    """One timed call: ``run()`` builds fresh hosts and solves; ``canon``
    gives the JSON-able answer that is digested; ``check`` validates it."""

    __slots__ = ("key", "kind", "spec", "params")

    def __init__(self, key, kind, spec, **params):
        self.key = key
        self.kind = kind
        self.spec = spec
        self.params = params

    def run(self):
        return _KINDS[self.kind][0](self)

    def canon(self, out):
        return _KINDS[self.kind][1](out)

    def check(self, out, cache):
        _KINDS[self.kind][2](self, out, cache)


class Pass:
    __slots__ = ("key", "hosts", "ops")

    def __init__(self, key, hosts, ops):
        self.key = key
        self.hosts = hosts
        self.ops = ops


def _graph(spec):
    n, k, edges = spec
    return core.KGraph(n, k, edges)


def _spec(H):
    return (H.n, H.k, H.edges)


def _host_seed(workload, seed, index):
    return (seed & 0xFFFFFFFF) * 1_000_003 + NAMES.index(workload) * 100_003 + index


def _random_host(n, delta, seed):
    # Retry on the rare generator failure; the retry seed is still a pure
    # function of the run's seed, so inputs stay reproducible.
    for attempt in range(16):
        try:
            return constructions.random_with_codegree(n, 3, delta, seed=seed + attempt * 7919)
        except GenerationFailed:
            continue
    raise GenerationFailed(f"no host for n={n}, delta={delta}, seed={seed}")


def _relabel(H, perm):
    return (H.n, H.k, tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in H.edges)))


def _extremal(k, n, perm):
    """Relabelled tight instance and the closed-form Farkas vector for it:
    2k-3 on A and -2 on B.  Every copy meets A at least twice, so every
    supporting set scores >= 0, while the whole vertex set scores -(2k-1)."""
    inst = constructions.extremal_construction(k, n)
    coeffs = [-2] * n
    for a in inst.A:
        coeffs[perm[a]] = 2 * k - 3
    return _relabel(inst.graph, perm), tuple(coeffs)


def build(workload, seed):
    """The workload's pool of passes for ``seed``."""
    rng = random.Random(_host_seed(workload, seed, 0))
    return _BUILDERS[workload](seed, rng)


def _build_corpus(seed, rng):
    # One host per (n, delta) cell of the criterion-02 corpus shape, plus one
    # n = 15 host on which the exact cover decides yes.
    passes = []
    index = 1
    for b in range(CORPUS_PASSES):
        ops = []
        for n in range(6, 13):
            for delta in range(5):
                H = _random_host(n, delta, _host_seed("corpus", seed, index))
                index += 1
                ops.append(Op(f"p{b}.n{n}.d{delta}", "chain", _spec(H)))
        H = _random_host(15, 4, _host_seed("corpus", seed, index))
        index += 1
        ops.append(Op(f"p{b}.n15.d4", "chain", _spec(H)))
        passes.append(Pass(f"p{b}", len(ops), ops))
    return passes


def _build_extremal(seed, rng):
    ops = []
    for k, n in ((3, 20), (4, 14)):
        perm = list(range(n))
        rng.shuffle(perm)
        spec, coeffs = _extremal(k, n, perm)
        ops.append(Op(f"ext{k}_{n}.tile", "tile", spec, host=f"ext{k}_{n}", cert=coeffs))
        ops.append(Op(f"ext{k}_{n}.max", "max", spec, host=f"ext{k}_{n}", cert=coeffs))
    ops.append(Op("K10.minmax", "minmax", _spec(core.complete_kgraph(10, 3))))
    return [Pass("p0", 3, ops)]


def _build_absorb(seed, rng):
    n = 13
    passes = []
    for b in range(ABSORB_PASSES):
        spec = _spec(_random_host(n, 3, _host_seed("absorb", seed, b + 1)))
        order = list(range(n))
        rng.shuffle(order)
        u1, v1, u2, v2 = order[:4]
        blocks = tuple(tuple(sorted(order[i::3])) for i in range(3))
        S = tuple(sorted(rng.sample(range(n), 5)))
        host = f"p{b}"
        ops = [
            Op(f"{host}.reach{u1}_{v1}", "reach", spec, u=u1, v=v1, m=1, t=2),
            Op(f"{host}.reach{u2}_{v2}", "reach", spec, u=u2, v=v2, m=1, t=2),
        ]
        for i, j in itertools.permutations(range(3), 2):
            ops.append(Op(f"{host}.transfer{i}{j}", "transfer", spec, host=host,
                          blocks=blocks, beta=Fraction(1, n), i=i, j=j))
        ops.append(Op(f"{host}.absorb", "absorb", spec, S=S))
        passes.append(Pass(host, 1, ops))
    return passes


def _build_rainbow(seed, rng):
    n = 15
    perm = list(range(n))
    rng.shuffle(perm)
    tight, coeffs = _extremal(3, n, perm)
    passes = []
    index = 1
    for b in range(RAINBOW_PASSES):
        ops = []
        for f in range(3):
            family = []
            for _ in range(3 * n // 5):
                family.append(_spec(_random_host(n, 5, _host_seed("rainbow", seed, index))))
                index += 1
            ops.append(Op(f"p{b}.family{f}", "rainbow", tuple(family)))
        ops.append(Op(f"p{b}.tight", "rainbow", (tight,) * (3 * n // 5), cert=coeffs))
        passes.append(Pass(f"p{b}", len(ops), ops))
    return passes


_BUILDERS = {
    "corpus": _build_corpus,
    "extremal": _build_extremal,
    "absorb": _build_absorb,
    "rainbow": _build_rainbow,
}


# -- corpus: the full solve chain of one host ---------------------------------


def _run_chain(op):
    H = _graph(op.spec)
    sets = patterns.supporting_sets(H)
    frac = fractional.perfect_fractional_tiling(H, sets=sets)
    tiling = exact.perfect_tiling(H)
    best = exact.max_tiling(H)
    lp = fractional.packing_lp_value(H, sets=sets)
    return {"sets": len(sets), "frac": frac, "tiling": tiling, "max": best, "lp": lp}


def _canon_chain(out):
    value, witness = out["max"]
    lp_value, lp_weights = out["lp"]
    return {
        "sets": out["sets"],
        "frac": out["frac"].to_json(),
        "tiling": None if out["tiling"] is None else out["tiling"].to_json(),
        "max": [value, witness.to_json()],
        "lp": [str(lp_value), lp_weights.to_json()],
    }


def _check_chain(op, out, cache):
    H = _graph(op.spec)
    n, s = H.n, 2 * H.k - 1
    brute = sum(
        1 for S in itertools.combinations(range(n), s) if validate.brute_supports(H, S)
    )
    _require(out["sets"] == brute, f"{out['sets']} supporting sets, brute force finds {brute}")

    frac = out["frac"]
    feasible = hasattr(frac, "weights")  # a FractionalTiling, else a FarkasCertificate
    if feasible:
        _require(validate.check_fractional(H, frac), "fractional tiling is not perfect")
    else:
        _require(validate.check_certificate(H, frac), "Farkas certificate fails")

    tiling = out["tiling"]
    if tiling is not None:
        _require(validate.check_tiling(H, tiling, require_perfect=True), "perfect tiling fails")
        _require(feasible, "integral tiling but the fractional verdict is infeasible")
    elif n % s == 0 and feasible:
        _require(not validate.brute_perfectly_tilable(H, range(n)), "missed a perfect tiling")

    lp_value, lp_weights = out["lp"]
    _require(validate.check_fractional(H, lp_weights, require_perfect=False), "packing overloads")
    _require(sum(lp_weights.weights.values(), Fraction(0)) == lp_value, "LP value != weight sum")
    _require((lp_value == Fraction(n, s)) == feasible, "LP optimum disagrees with feasibility")

    value, witness = out["max"]
    _require(validate.check_tiling(H, witness), "max tiling witness fails")
    _require(len(witness.copies) == value, "max tiling value != witness size")
    _require(value <= lp_value, "max tiling exceeds the LP bound")
    if tiling is not None:
        _require(value * s == n, "perfect tiling exists but max tiling is smaller")


# -- extremal: large tight hosts --------------------------------------------------


def _run_tile(op):
    return exact.perfect_tiling(_graph(op.spec))


def _run_max(op):
    return exact.max_tiling(_graph(op.spec))


def _run_minmax(op):
    return fractional.min_max_pair_weight(_graph(op.spec))


def _certified_untilable(op, H, cache):
    """Check the closed-form Farkas vector once per host."""
    host = op.params["host"]
    if host not in cache:
        cache[host] = validate.check_certificate(H, SimpleNamespace(coeffs=op.params["cert"]))
    _require(cache[host], "closed-form Farkas vector fails on the tight host")


def _canon_optional(out):
    return None if out is None else out.to_json()


def _check_tile(op, out, cache):
    _certified_untilable(op, _graph(op.spec), cache)
    _require(out is None, "tiling returned for a host with a Farkas certificate")


def _canon_max(out):
    return [out[0], out[1].to_json()]


def _check_max(op, out, cache):
    H = _graph(op.spec)
    value, witness = out
    _require(validate.check_tiling(H, witness), "max tiling witness fails")
    _require(len(witness.copies) == value, "max tiling value != witness size")
    _certified_untilable(op, H, cache)
    _require(value * (2 * H.k - 1) < H.n, "perfect packing on a host with a certificate")


def _canon_minmax(out):
    if not isinstance(out, tuple):
        return out.to_json()
    return [str(out[0]), out[1].to_json()]


def _check_minmax(op, out, cache):
    H = _graph(op.spec)
    _require(isinstance(out, tuple), "no perfect fractional tiling of a complete host")
    w_star, omega = out
    _require(validate.check_fractional(H, omega), "min-max tiling is not perfect")
    heaviest = Fraction(0)
    for u, v in itertools.combinations(range(H.n), 2):
        load = sum((w for c, w in omega.weights.items() if u in c.vertices and v in c.vertices),
                   Fraction(0))
        heaviest = max(heaviest, load)
    _require(heaviest == w_star, f"heaviest pair {heaviest} != reported {w_star}")


# -- absorb: lattice queries on one host --------------------------------------------


def _run_reach(op):
    p = op.params
    return lattice.reachable(_graph(op.spec), p["u"], p["v"], p["m"], mode="exact", t=p["t"])


def _connectors(H, u, v, t):
    """Every connector of u and v with at most t copies, by brute force."""
    s = 2 * H.k - 1
    pool = [w for w in range(H.n) if w not in (u, v)]
    out = []
    for q in range(1, t + 1):
        for S in itertools.combinations(pool, q * s - 1):
            if validate.check_connector(H, S, u, v, t):
                out.append(set(S))
    return out


def _check_reach(op, out, cache):
    p = op.params
    H = _graph(op.spec)
    u, v, m, t = p["u"], p["v"], p["m"], p["t"]
    _require(out in ("yes", "no"), f"verdict {out!r} is not decided")
    pool = [w for w in range(H.n) if w not in (u, v)]
    if out == "yes":
        # m+1 disjoint checked connectors prove it; otherwise show one
        # checked connector avoiding each m-set.
        used = set()
        disjoint = 0
        while disjoint <= m:
            S = lattice.find_connector(H, u, v, t=t, forbidden=used)
            if S is None or not validate.check_connector(H, S, u, v, t):
                break
            used.update(S)
            disjoint += 1
        if disjoint > m:
            return
        for W in itertools.combinations(pool, m):
            S = lattice.find_connector(H, u, v, t=t, forbidden=W)
            _require(S is not None and validate.check_connector(H, S, u, v, t),
                     f"no connector avoids {W}")
        return
    family = _connectors(H, u, v, t)
    _require(
        any(all(S & set(W) for S in family) for W in itertools.combinations(pool, m)),
        "no m-set meets every connector",
    )


def _run_transfer(op):
    p = op.params
    P = lattice.VertexPartition(p["blocks"])
    return lattice.has_transferral(_graph(op.spec), P, p["beta"], p["i"], p["j"])


def _canon_transfer(out):
    combo = None
    if out.combination is not None:
        combo = sorted([list(g), c] for g, c in out.combination.items())
    return {"found": out.found, "i": out.i, "j": out.j, "combination": combo,
            "unknown": [list(g) for g in out.unknown_vectors]}


def _robust_families(op, H, cache):
    """Index vector -> supporting sets with it, by brute force, once per host."""
    key = ("families", op.params["host"])
    if key not in cache:
        blocks = op.params["blocks"]
        fams = {}
        for S in itertools.combinations(range(H.n), 2 * H.k - 1):
            if validate.brute_supports(H, S):
                vec = tuple(len(set(S) & set(b)) for b in blocks)
                fams.setdefault(vec, []).append(set(S))
        cache[key] = fams
    return cache[key]


def _check_transfer(op, out, cache):
    p = op.params
    H = _graph(op.spec)
    _require(out.found, "no transferral found (not independently checkable)")
    target = [0] * len(p["blocks"])
    target[p["i"]] += 1
    target[p["j"]] -= 1
    total = [0] * len(target)
    for g, c in out.combination.items():
        total = [x + c * y for x, y in zip(total, g)]
    _require(total == target, f"combination sums to {total}, not {target}")
    fams = _robust_families(op, H, cache)
    m = int(p["beta"] * H.n)
    for g in out.combination:
        fam = fams.get(tuple(g), [])
        for W in itertools.combinations(range(H.n), m):
            _require(any(not (S & set(W)) for S in fam), f"vector {g} is hit by {W}")


def _run_absorb(op):
    return lattice.find_absorber(_graph(op.spec), op.params["S"])


def _canon_absorb(out):
    return None if out is None else list(out)


def _check_absorb(op, out, cache):
    _require(out is not None, "no absorber found (not independently checkable)")
    _require(validate.check_absorber(_graph(op.spec), out, op.params["S"]), "absorber fails")


# -- rainbow: families of hosts -----------------------------------------------------


def _run_rainbow(op):
    family = rainbow.GraphFamily(tuple(_graph(spec) for spec in op.spec))
    return rainbow.rainbow_perfect_tiling(family)


def _check_rainbow(op, out, cache):
    family = rainbow.GraphFamily(tuple(_graph(spec) for spec in op.spec))
    if out is not None:
        _require(validate.check_rainbow(family, out), "rainbow tiling fails")
        return
    coeffs = op.params.get("cert")
    _require(coeffs is not None, "no rainbow tiling found (not independently checkable)")
    _require(validate.check_certificate(family.union(), SimpleNamespace(coeffs=coeffs)),
             "Farkas vector fails on the union")


_KINDS = {
    "chain": (_run_chain, _canon_chain, _check_chain),
    "tile": (_run_tile, _canon_optional, _check_tile),
    "max": (_run_max, _canon_max, _check_max),
    "minmax": (_run_minmax, _canon_minmax, _check_minmax),
    "reach": (_run_reach, str, _check_reach),
    "transfer": (_run_transfer, _canon_transfer, _check_transfer),
    "absorb": (_run_absorb, _canon_absorb, _check_absorb),
    "rainbow": (_run_rainbow, _canon_optional, _check_rainbow),
}
