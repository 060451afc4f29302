"""Command-line surface: generation, inspection, solvers, batch runs.

Every command emits one JSON report with the config echoed back, the verdict
(decided-yes | decided-no | unknown-budget) and exact values as "p/q"
strings.  Exit codes: 0 decided, 1 usage error, 2 budget exceeded.  Numeric
parameters are parsed as exact rationals; floats are rejected.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import __version__
from .constructions import extremal_construction, random_with_codegree
from .core import (
    complete_kgraph,
    density,
    format_kgraph,
    load_kgraph,
    min_codegree,
)
from .errors import BudgetExceeded, TritileError
from .exact import (
    DEFAULT_NODE_BUDGET,
    _decide_perfect_tiling,
    corollary_check,
    dh_condition,
    extremal_pipeline,
    kpartite_perfect_matching,
    max_tiling,
)
from .fractional import (
    FarkasCertificate,
    FractionalTiling,
    frac_str,
    min_max_pair_weight,
    perfect_fractional_tiling,
    verify_certificate,
)
from .lattice import (
    VertexPartition,
    _transferral,
    find_absorber,
    find_connector,
    reachable,
    robust_vectors,
)
from .rainbow import GraphFamily, rainbow_perfect_tiling


class UsageError(Exception):
    pass


def _env_budget() -> int:
    """Default node budget: ``TRITILE_BUDGET`` when set, else DEFAULT_NODE_BUDGET."""
    text = os.environ.get("TRITILE_BUDGET")
    if text is None:
        return DEFAULT_NODE_BUDGET
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"TRITILE_BUDGET must be an integer, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise UsageError(f"rational expected (p/q or integer), got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def parse_vertices(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if "-" in chunk:
                a, b = chunk.split("-", 1)
                out.extend(range(int(a), int(b) + 1))
            else:
                out.append(int(chunk))
        except ValueError:
            raise UsageError(
                f"vertex list expected (e.g. 0,2,5-7), got {chunk!r} in {text!r}"
            ) from None
    return tuple(sorted(set(out)))


def parse_blocks(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(parse_vertices(part) for part in text.split(";") if part.strip())


REPORT_SCHEMA = 1


def _report(command: str, config: dict, *, verdict: str, anchor: str, **fields) -> dict:
    rep = {
        "tool": {"name": "tritile", "version": __version__},
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": {k: v for k, v in sorted(config.items()) if v is not None},
        "verdict": verdict,
        "anchor": anchor,
    }
    rep.update(fields)
    return rep


def _echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    out = {}
    for k, v in vars(args).items():
        if k in skip:
            continue
        out[k] = v if isinstance(v, (int, str, bool, type(None))) else str(v)
    return out


# -- commands -----------------------------------------------------------------


def cmd_gen(args) -> dict:
    if args.kind == "extremal":
        inst = extremal_construction(args.k, args.n)
        H = inst.graph
        sidecar = {
            "kind": "extremal",
            "A": list(inst.A),
            "B": list(inst.B),
            "n": args.n,
            "k": args.k,
        }
    elif args.kind == "random":
        if args.delta is None or args.seed is None:
            raise UsageError("gen random needs --delta and --seed")
        H = random_with_codegree(args.n, args.k, args.delta, args.seed, args.max_rounds)
        sidecar = {
            "kind": "random",
            "n": args.n,
            "k": args.k,
            "delta": args.delta,
            "seed": args.seed,
        }
    elif args.kind == "complete":
        H = complete_kgraph(args.n, args.k)
        sidecar = {"kind": "complete", "n": args.n, "k": args.k}
    else:
        raise UsageError(f"unknown generator {args.kind!r}")
    text = format_kgraph(H)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        Path(str(args.output) + ".meta.json").write_text(
            json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
        )
    return _report(
        "gen",
        _echo(args),
        verdict="decided-yes",
        anchor="instance-generation",
        edges=H.edge_count(),
        instance=None if args.output else text,
        sidecar=sidecar,
    )


def cmd_info(args) -> dict:
    H = load_kgraph(args.instance)
    value, witness = min_codegree(H)
    return _report(
        "info",
        _echo(args),
        verdict="decided-yes",
        anchor="instance-summary",
        n=H.n,
        k=H.k,
        edges=H.edge_count(),
        min_codegree=value,
        min_codegree_witness=list(witness),
        density=frac_str(density(H)) if H.n >= H.k else None,
    )


def cmd_tile(args) -> dict:
    H = load_kgraph(args.instance)
    tiling, reason, certificate = _decide_perfect_tiling(
        H, budget=args.budget, use_lp=not args.no_lp
    )
    if tiling is None:
        extra = {} if certificate is None else {"certificate": certificate.to_json()}
        return _report(
            "tile",
            _echo(args),
            verdict="decided-no",
            anchor="perfect-tiling-decision",
            reason=reason,
            **extra,
        )
    return _report(
        "tile",
        _echo(args),
        verdict="decided-yes",
        anchor="perfect-tiling-decision",
        witness=tiling.to_json(),
    )


def cmd_pack(args) -> dict:
    H = load_kgraph(args.instance)
    size, tiling = max_tiling(H, budget=args.budget)
    return _report(
        "pack",
        _echo(args),
        verdict="decided-yes",
        anchor="maximum-tiling",
        value=str(size),
        witness=tiling.to_json(),
    )


def cmd_fractile(args) -> dict:
    H = load_kgraph(args.instance)
    r = perfect_fractional_tiling(H)
    if isinstance(r, FractionalTiling):
        return _report(
            "fractile",
            _echo(args),
            verdict="decided-yes",
            anchor="fractional-tiling",
            witness=r.to_json(),
        )
    return _report(
        "fractile",
        _echo(args),
        verdict="decided-no",
        anchor="fractional-tiling",
        certificate=r.to_json(),
    )


def cmd_farkas(args) -> dict:
    H = load_kgraph(args.instance)
    r = perfect_fractional_tiling(H)
    if isinstance(r, FarkasCertificate):
        check = verify_certificate(H, r)
        return _report(
            "farkas",
            _echo(args),
            verdict="decided-no",
            anchor="farkas-certificate",
            certificate=r.to_json(),
            certificate_valid=check.valid,
        )
    return _report(
        "farkas",
        _echo(args),
        verdict="decided-yes",
        anchor="farkas-certificate",
        note="fractionally feasible; no certificate exists",
    )


def cmd_minmax(args) -> dict:
    H = load_kgraph(args.instance)
    r = min_max_pair_weight(H)
    if isinstance(r, FarkasCertificate):
        return _report(
            "minmax",
            _echo(args),
            verdict="decided-no",
            anchor="min-max-pair-weight",
            certificate=r.to_json(),
        )
    w_star, tiling = r
    return _report(
        "minmax",
        _echo(args),
        verdict="decided-yes",
        anchor="min-max-pair-weight",
        value=frac_str(w_star),
        witness=tiling.to_json(),
    )


def cmd_lattice(args) -> dict:
    H = load_kgraph(args.instance)
    P = VertexPartition(parse_blocks(args.blocks))
    beta = parse_rational(args.beta)
    reports = robust_vectors(H, P, beta, mode=args.mode)
    vectors = [
        {
            "vector": list(vec),
            "status": rep.status,
            "value": rep.value,
            "removable": rep.removable,
        }
        for vec, rep in sorted(reports.items())
    ]
    transferrals = []
    for i in range(P.r):
        for j in range(P.r):
            if i == j:
                continue
            tr = _transferral(reports, P.r, i, j)
            transferrals.append(
                {
                    "i": i,
                    "j": j,
                    "found": tr.found,
                    "combination": None
                    if tr.combination is None
                    else [[list(v), c] for v, c in sorted(tr.combination.items())],
                }
            )
    verdict = "decided-yes" if any(t["found"] for t in transferrals) else "decided-no"
    return _report(
        "lattice",
        _echo(args),
        verdict=verdict,
        anchor="robust-vectors-and-transferrals",
        vectors=vectors,
        transferrals=transferrals,
    )


def cmd_reach(args) -> dict:
    H = load_kgraph(args.instance)
    verdict = reachable(H, args.u, args.v, args.m, t=args.t, mode=args.mode)
    mapped = {"yes": "decided-yes", "no": "decided-no", "unknown": "unknown-budget"}[
        verdict
    ]
    return _report(
        "reach",
        _echo(args),
        verdict=mapped,
        anchor="reachability",
    )


def cmd_absorb(args) -> dict:
    H = load_kgraph(args.instance)
    S = parse_vertices(args.set)
    A = find_absorber(H, S, t=args.t)
    if A is None:
        return _report(
            "absorb", _echo(args), verdict="decided-no", anchor="absorber-search"
        )
    return _report(
        "absorb",
        _echo(args),
        verdict="decided-yes",
        anchor="absorber-search",
        witness=list(A),
    )


def cmd_connector(args) -> dict:
    H = load_kgraph(args.instance)
    S = find_connector(H, args.u, args.v, t=args.t)
    if S is None:
        return _report(
            "connector", _echo(args), verdict="decided-no", anchor="connector-search"
        )
    return _report(
        "connector",
        _echo(args),
        verdict="decided-yes",
        anchor="connector-search",
        witness=list(S),
    )


def cmd_rainbow(args) -> dict:
    manifest = Path(args.manifest)
    base = manifest.parent
    paths = [
        line.strip()
        for line in manifest.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    hosts = tuple(load_kgraph(base / p) for p in paths)
    family = GraphFamily(hosts)
    rt = rainbow_perfect_tiling(family, budget=args.budget)
    if rt is None:
        return _report(
            "rainbow", _echo(args), verdict="decided-no", anchor="rainbow-tiling"
        )
    return _report(
        "rainbow",
        _echo(args),
        verdict="decided-yes",
        anchor="rainbow-tiling",
        witness=rt.to_json(),
    )


def cmd_pipeline(args) -> dict:
    H = load_kgraph(args.instance)
    gamma = parse_rational(args.gamma)
    gp = parse_rational(args.gamma_prime) if args.gamma_prime else None
    bt = parse_rational(args.beta) if args.beta else None
    res = extremal_pipeline(H, gamma, gamma_prime=gp, beta=bt, budget=args.budget)
    return _report(
        "pipeline",
        _echo(args),
        verdict="decided-yes" if res.succeeded else "decided-no",
        anchor="extremal-pipeline",
        stages=[s.to_json() for s in res.stages],
        witness=res.tiling.to_json() if res.tiling else None,
    )


def cmd_dh_check(args) -> dict:
    J = load_kgraph(args.instance)
    fields: dict = {}
    verdicts = []
    if args.classes:
        classes = parse_blocks(args.classes)
        rep = dh_condition(J, classes)
        fields["degree_condition"] = {
            "satisfied": rep.satisfied,
            "worst_vertex": rep.worst_vertex,
            "worst_degree": rep.worst_degree,
            "threshold": frac_str(rep.threshold),
        }
        verdicts.append(rep.satisfied)
        if args.matching:
            m = kpartite_perfect_matching(J, classes, budget=args.budget)
            fields["matching"] = None if m is None else [list(e) for e in m]
            verdicts.append(m is not None)
    if args.a and args.b:
        beta = parse_rational(args.beta) if args.beta else Fraction(0)
        rep = corollary_check(J, parse_vertices(args.a), parse_vertices(args.b), beta)
        fields["corollary"] = {
            "satisfied": rep.satisfied,
            "edge_count": rep.edge_count,
            "edge_threshold": frac_str(rep.edge_threshold),
            "worst_vertex": rep.worst_vertex,
            "worst_degree": rep.worst_degree,
            "vertex_threshold": frac_str(rep.vertex_threshold),
        }
        verdicts.append(rep.satisfied)
    if not verdicts:
        raise UsageError("dh-check needs --classes and/or --a/--b")
    return _report(
        "dh-check",
        _echo(args),
        verdict="decided-yes" if all(verdicts) else "decided-no",
        anchor="degree-threshold-check",
        **fields,
    )


def cmd_batch(args) -> dict:
    rows = []
    with open(args.manifest, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append(json.loads(line))

    def run_row(row):
        start = time.perf_counter()
        try:
            rep, code = run(row["args"])
            ms = int((time.perf_counter() - start) * 1000)
            value = rep.get("value", "")
            return {
                "id": row.get("id", ""),
                "command": rep.get("command", row["args"][0] if row["args"] else ""),
                "verdict": rep.get("verdict", "error"),
                "value": value if value is not None else "",
                "witness_path": row.get("output", ""),
                "ms": ms,
                "_report": rep,
            }
        except Exception as exc:  # a failing row must not abort the batch
            ms = int((time.perf_counter() - start) * 1000)
            return {
                "id": row.get("id", ""),
                "command": row["args"][0] if row.get("args") else "",
                "verdict": "error",
                "value": str(exc),
                "witness_path": "",
                "ms": ms,
                "_report": None,
            }

    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(run_row, rows))
    else:
        results = [run_row(r) for r in rows]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "command", "verdict", "value", "witness_path", "ms"])
    for r in results:
        writer.writerow(
            [r["id"], r["command"], r["verdict"], r["value"], r["witness_path"], r["ms"]]
        )
    csv_text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(csv_text, encoding="utf-8")
    return _report(
        "batch",
        _echo(args),
        verdict="decided-yes",
        anchor="batch-runner",
        rows=len(results),
        csv=None if args.output else csv_text,
    )


# -- parser ---------------------------------------------------------------------


def build_parser() -> _Parser:
    budget = _env_budget()
    p = _Parser(prog="tritile", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=fn)
        return sp

    sp = add("gen", cmd_gen, help="generate an instance")
    sp.add_argument("kind", choices=["extremal", "random", "complete"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--delta", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--max-rounds", type=int, default=4)
    sp.add_argument("-o", "--output")

    sp = add("info", cmd_info, help="summarize an instance")
    sp.add_argument("instance")

    for name, fn, extra in [
        ("tile", cmd_tile, True),
        ("pack", cmd_pack, False),
    ]:
        sp = add(name, fn, help=f"{name} an instance")
        sp.add_argument("instance")
        sp.add_argument("--budget", type=int, default=budget)
        if extra:
            sp.add_argument("--no-lp", action="store_true")

    for name, fn in [("fractile", cmd_fractile), ("farkas", cmd_farkas), ("minmax", cmd_minmax)]:
        sp = add(name, fn, help=f"{name} fractional analysis")
        sp.add_argument("instance")

    sp = add("lattice", cmd_lattice, help="robust vectors and transferrals")
    sp.add_argument("instance")
    sp.add_argument("--blocks", required=True, help='e.g. "0-5;6-11"')
    sp.add_argument("--beta", required=True, help="rational p/q")
    sp.add_argument("--mode", choices=["exact", "packing-bound"], default="exact")

    sp = add("reach", cmd_reach, help="reachability of two vertices")
    sp.add_argument("instance")
    sp.add_argument("--u", type=int, required=True)
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--mode", choices=["certificate", "exact"], default="certificate")

    sp = add("connector", cmd_connector, help="find a connector")
    sp.add_argument("instance")
    sp.add_argument("--u", type=int, required=True)
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--t", type=int, default=1)

    sp = add("absorb", cmd_absorb, help="find an absorber")
    sp.add_argument("instance")
    sp.add_argument("--set", required=True, help='e.g. "0,1,2,3,4"')
    sp.add_argument("--t", type=int, default=1)

    sp = add("rainbow", cmd_rainbow, help="rainbow tiling over a family manifest")
    sp.add_argument("manifest")
    sp.add_argument("--budget", type=int, default=budget)

    sp = add("pipeline", cmd_pipeline, help="extremal-case pipeline")
    sp.add_argument("instance")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--gamma-prime")
    sp.add_argument("--beta")
    sp.add_argument("--budget", type=int, default=budget)

    sp = add("dh-check", cmd_dh_check, help="degree-threshold checks")
    sp.add_argument("instance")
    sp.add_argument("--classes", help='e.g. "0,1,2;3,4,5"')
    sp.add_argument("--matching", action="store_true")
    sp.add_argument("--a")
    sp.add_argument("--b")
    sp.add_argument("--beta")
    sp.add_argument("--budget", type=int, default=budget)

    sp = add("batch", cmd_batch, help="run a manifest of commands")
    sp.add_argument("manifest")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("-o", "--output")

    return p


def run(argv) -> tuple[dict, int]:
    """Parse and execute; returns (report, exit_code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
        code = 0
    except BudgetExceeded as exc:
        report = _report(
            args.command,
            _echo(args),
            verdict="unknown-budget",
            anchor="budget",
            reason=str(exc),
            bounds=None
            if exc.lower is None and exc.upper is None
            else {"lower": exc.lower, "upper": exc.upper},
        )
        code = 2
    report["ms"] = int((time.perf_counter() - start) * 1000)
    return report, code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        report, code = run(argv)
    except (UsageError, TritileError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
