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
import itertools
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
from .rainbow import GraphFamily, RainbowTiling, rainbow_perfect_tiling


class UsageError(Exception):
    pass


def _node_budget(text: str, source: str = "--budget") -> int:
    """A node budget read from ``source``: an integer, at least 0."""
    try:
        budget = int(text)
    except ValueError:
        raise UsageError(f"{source} must be an integer, got {text!r}") from None
    if budget < 0:
        raise UsageError(f"{source} must be nonnegative, got {text!r}")
    return budget


def _env_budget() -> int:
    """Default node budget: ``TRITILE_BUDGET`` when set, else DEFAULT_NODE_BUDGET."""
    text = os.environ.get("TRITILE_BUDGET")
    if text is None:
        return DEFAULT_NODE_BUDGET
    return _node_budget(text, "TRITILE_BUDGET")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


class _RowParser(_Parser):
    """The parser of a batch row: its help and usage text is dropped, so the
    batch's stdout carries only the batch report.  Subparsers inherit the
    class, and rows on other threads keep their own parser."""

    def _print_message(self, message, file=None):
        pass


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
    return {
        "tool": {"name": "tritile", "version": __version__},
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": {k: v for k, v in sorted(config.items()) if v is not None},
        "verdict": verdict,
        "anchor": anchor,
        **fields,
    }


def _echo(args: argparse.Namespace) -> dict:
    return {
        k: v if isinstance(v, (int, str, bool, type(None))) else str(v)
        for k, v in vars(args).items()
    }


def _exact_fields(rep) -> dict:
    """A report dataclass as JSON fields, with its Fractions as "p/q" strings."""
    fields = vars(rep).items()
    return {k: frac_str(v) if isinstance(v, Fraction) else v for k, v in fields}


def _found(witness, to_json=list) -> tuple[bool, dict]:
    """Verdict and fields of a search that returns a witness or None."""
    if witness is None:
        return False, {}
    return True, {"witness": to_json(witness)}


# -- commands -----------------------------------------------------------------
#
# Each command returns (verdict, fields): the verdict is True (decided-yes),
# False (decided-no) or, from ``reach`` only, "unknown"; ``run`` wraps them in
# the report.


def cmd_gen(args) -> tuple:
    # The sidecar's key order is the byte order of the written .meta.json.
    if args.kind == "extremal":
        inst = extremal_construction(args.k, args.n)
        H = inst.graph
        sidecar = dict(
            kind="extremal", A=list(inst.A), B=list(inst.B), n=args.n, k=args.k
        )
    elif args.kind == "random":
        if args.delta is None or args.seed is None:
            raise UsageError("gen random needs --delta and --seed")
        H = random_with_codegree(args.n, args.k, args.delta, args.seed)
        sidecar = dict(kind="random", n=args.n, k=args.k, delta=args.delta, seed=args.seed)
    else:
        H = complete_kgraph(args.n, args.k)
        sidecar = dict(kind="complete", n=args.n, k=args.k)
    text = format_kgraph(H)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        Path(str(args.output) + ".meta.json").write_text(
            json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
        )
    return True, dict(
        edges=H.edge_count(), instance=None if args.output else text, sidecar=sidecar
    )


def cmd_info(args) -> tuple:
    H = load_kgraph(args.instance)
    value, witness = min_codegree(H)
    return True, dict(
        n=H.n, k=H.k, edges=H.edge_count(), min_codegree=value,
        min_codegree_witness=list(witness),
        density=frac_str(density(H)) if H.n >= H.k else None,
    )


def cmd_tile(args) -> tuple:
    H = load_kgraph(args.instance)
    tiling, reason, certificate = _decide_perfect_tiling(
        H, budget=args.budget, use_lp=not args.no_lp
    )
    if tiling is not None:
        return True, {"witness": tiling.to_json()}
    if certificate is None:
        return False, {"reason": reason}
    return False, {"reason": reason, "certificate": certificate.to_json()}


def cmd_pack(args) -> tuple:
    size, tiling = max_tiling(load_kgraph(args.instance), budget=args.budget)
    return True, {"value": str(size), "witness": tiling.to_json()}


def cmd_fractile(args) -> tuple:
    r = perfect_fractional_tiling(load_kgraph(args.instance))
    if isinstance(r, FractionalTiling):
        return True, {"witness": r.to_json()}
    return False, {"certificate": r.to_json()}


def cmd_farkas(args) -> tuple:
    H = load_kgraph(args.instance)
    r = perfect_fractional_tiling(H)
    if isinstance(r, FractionalTiling):
        return True, {"note": "fractionally feasible; no certificate exists"}
    return False, {
        "certificate": r.to_json(),
        "certificate_valid": verify_certificate(H, r).valid,
    }


def cmd_minmax(args) -> tuple:
    r = min_max_pair_weight(load_kgraph(args.instance))
    if isinstance(r, FarkasCertificate):
        return False, {"certificate": r.to_json()}
    w_star, tiling = r
    return True, {"value": frac_str(w_star), "witness": tiling.to_json()}


def cmd_lattice(args) -> tuple:
    H = load_kgraph(args.instance)
    P = VertexPartition(parse_blocks(args.blocks))
    beta = parse_rational(args.beta)
    reports = robust_vectors(H, P, beta, mode=args.mode)
    vectors = [
        dict(vector=list(vec), status=rep.status, value=rep.value, removable=rep.removable)
        for vec, rep in sorted(reports.items())
    ]
    transferrals = []
    for i, j in itertools.permutations(range(P.r), 2):
        tr = _transferral(reports, P.r, i, j)
        combo = tr.combination
        if combo is not None:
            combo = [[list(v), c] for v, c in sorted(combo.items())]
        transferrals.append(dict(i=i, j=j, found=tr.found, combination=combo))
    found = any(t["found"] for t in transferrals)
    return found, {"vectors": vectors, "transferrals": transferrals}


def cmd_reach(args) -> tuple:
    H = load_kgraph(args.instance)
    verdict = reachable(H, args.u, args.v, args.m, t=args.t, mode=args.mode)
    return {"yes": True, "no": False, "unknown": "unknown"}[verdict], {}


def cmd_absorb(args) -> tuple:
    H = load_kgraph(args.instance)
    return _found(find_absorber(H, parse_vertices(args.set), t=args.t))


def cmd_connector(args) -> tuple:
    H = load_kgraph(args.instance)
    return _found(find_connector(H, args.u, args.v, t=args.t))


def cmd_rainbow(args) -> tuple:
    manifest = Path(args.manifest)
    lines = _manifest_lines(manifest)
    family = GraphFamily(tuple(load_kgraph(manifest.parent / p) for _, p in lines))
    rt = rainbow_perfect_tiling(family, budget=args.budget)
    return _found(rt, RainbowTiling.to_json)


def cmd_pipeline(args) -> tuple:
    H = load_kgraph(args.instance)
    gamma = parse_rational(args.gamma)
    gp = parse_rational(args.gamma_prime) if args.gamma_prime else None
    bt = parse_rational(args.beta) if args.beta else None
    res = extremal_pipeline(H, gamma, gamma_prime=gp, beta=bt, budget=args.budget)
    return res.succeeded, {
        "stages": [s.to_json() for s in res.stages],
        "witness": res.tiling.to_json() if res.tiling else None,
    }


def cmd_dh_check(args) -> tuple:
    if (args.a is None) != (args.b is None):
        raise UsageError("dh-check needs --a and --b together")
    J = load_kgraph(args.instance)
    fields: dict = {}
    verdicts = []
    if args.classes:
        classes = parse_blocks(args.classes)
        rep = dh_condition(J, classes)
        fields["degree_condition"] = _exact_fields(rep)
        verdicts.append(rep.satisfied)
        if args.matching:
            m = kpartite_perfect_matching(J, classes, budget=args.budget)
            fields["matching"] = None if m is None else [list(e) for e in m]
            verdicts.append(m is not None)
    if args.a is not None:
        beta = parse_rational(args.beta) if args.beta else Fraction(0)
        rep = corollary_check(J, parse_vertices(args.a), parse_vertices(args.b), beta)
        fields["corollary"] = _exact_fields(rep)
        verdicts.append(rep.satisfied)
    if not verdicts:
        raise UsageError("dh-check needs --classes and/or --a/--b")
    return all(verdicts), fields


def _manifest_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped line) for each line of the UTF-8 manifest at
    ``path``; blank lines and ``#`` comments are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 text: {exc}") from None
    stripped = ((number, line.strip()) for number, line in enumerate(lines, 1))
    return [(number, line) for number, line in stripped if line and not line.startswith("#")]


def _manifest_rows(path) -> list[dict]:
    """One JSON object with a list of strings ``args`` per manifest line."""
    rows = []
    for number, line in _manifest_lines(path):
        row = json.loads(line)
        args = row.get("args") if isinstance(row, dict) else None
        if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
            raise UsageError(
                f"manifest line {number}: expected a JSON object with a list "
                "of strings 'args'"
            )
        rows.append(row)
    return rows


def cmd_batch(args) -> tuple:
    def run_row(row):
        start = time.perf_counter()
        try:
            rep, _ = run(row["args"], _RowParser)
            value, path = rep.get("value", ""), row.get("output", "")
            cells = [rep["command"], rep["verdict"], value, path]
        # A failing row must not abort the batch, nor may a row whose
        # arguments make argparse exit (``--help``).
        except (Exception, SystemExit) as exc:
            reason = f"exit {exc.code}" if isinstance(exc, SystemExit) else str(exc)
            cells = [row["args"][0] if row["args"] else "", "error", reason, ""]
        return [row.get("id", ""), *cells, int((time.perf_counter() - start) * 1000)]

    rows = _manifest_rows(args.manifest)
    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(run_row, rows))
    else:
        results = [run_row(r) for r in rows]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "command", "verdict", "value", "witness_path", "ms"])
    writer.writerows(results)
    csv_text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(csv_text, encoding="utf-8")
    return True, {"rows": len(results), "csv": None if args.output else csv_text}


# -- command table ----------------------------------------------------------------
#
# name -> (command, report anchor, help line, argument specs).  A spec is a
# positional name, ``"budget"`` (``--budget`` defaulting to TRITILE_BUDGET),
# or a tuple of option strings followed by add_argument keywords.

_U = ("--u", {"type": int, "required": True})
_V = ("--v", {"type": int, "required": True})
_T = ("--t", {"type": int, "default": 1})
_OUTPUT = ("-o", "--output", {})

COMMANDS = {
    "gen": (cmd_gen, "instance-generation", "generate an instance", [
        ("kind", {"choices": ["extremal", "random", "complete"]}),
        ("--n", {"type": int, "required": True}),
        ("--k", {"type": int, "required": True}),
        ("--delta", {"type": int}),
        ("--seed", {"type": int}),
        _OUTPUT,
    ]),
    "info": (cmd_info, "instance-summary", "summarize an instance", ["instance"]),
    "tile": (cmd_tile, "perfect-tiling-decision", "tile an instance", [
        "instance", "budget", ("--no-lp", {"action": "store_true"}),
    ]),
    "pack": (cmd_pack, "maximum-tiling", "pack an instance", ["instance", "budget"]),
    "fractile": (cmd_fractile, "fractional-tiling", "fractile fractional analysis", [
        "instance",
    ]),
    "farkas": (cmd_farkas, "farkas-certificate", "farkas fractional analysis", [
        "instance",
    ]),
    "minmax": (cmd_minmax, "min-max-pair-weight", "minmax fractional analysis", [
        "instance",
    ]),
    "lattice": (cmd_lattice, "robust-vectors-and-transferrals",
                "robust vectors and transferrals", [
        "instance",
        ("--blocks", {"required": True, "help": 'e.g. "0-5;6-11"'}),
        ("--beta", {"required": True, "help": "rational p/q"}),
        ("--mode", {"choices": ["exact", "packing-bound"], "default": "exact"}),
    ]),
    "reach": (cmd_reach, "reachability", "reachability of two vertices", [
        "instance", _U, _V,
        ("--m", {"type": int, "required": True}),
        _T,
        ("--mode", {"choices": ["certificate", "exact"], "default": "certificate"}),
    ]),
    "connector": (cmd_connector, "connector-search", "find a connector", [
        "instance", _U, _V, _T,
    ]),
    "absorb": (cmd_absorb, "absorber-search", "find an absorber", [
        "instance", ("--set", {"required": True, "help": 'e.g. "0,1,2,3,4"'}), _T,
    ]),
    "rainbow": (cmd_rainbow, "rainbow-tiling", "rainbow tiling over a family manifest", [
        "manifest", "budget",
    ]),
    "pipeline": (cmd_pipeline, "extremal-pipeline", "extremal-case pipeline", [
        "instance", ("--gamma", {"required": True}), "--gamma-prime", "--beta", "budget",
    ]),
    "dh-check": (cmd_dh_check, "degree-threshold-check", "degree-threshold checks", [
        "instance",
        ("--classes", {"help": 'e.g. "0,1,2;3,4,5"'}),
        ("--matching", {"action": "store_true"}),
        "--a", "--b", "--beta", "budget",
    ]),
    "batch": (cmd_batch, "batch-runner", "run a manifest of commands", [
        "manifest", ("--workers", {"type": int, "default": 1}), _OUTPUT,
    ]),
}


# -- parser and runner ----------------------------------------------------------


def build_parser(parser_class=_Parser) -> _Parser:
    budget = _env_budget()
    p = parser_class(prog="tritile", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_fn, _anchor, help_, specs) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for spec in specs:
            if spec == "budget":
                sp.add_argument("--budget", type=_node_budget, default=budget)
            elif isinstance(spec, str):
                sp.add_argument(spec)
            else:
                *flags, kwargs = spec
                sp.add_argument(*flags, **kwargs)
    return p


def run(argv, parser_class=_Parser) -> tuple[dict, int]:
    """Parse and execute; returns (report, exit_code)."""
    parser = build_parser(parser_class)
    args = parser.parse_args(argv)
    fn, anchor = COMMANDS[args.command][:2]
    start = time.perf_counter()
    try:
        verdict, fields = fn(args)
        verdict = {True: "decided-yes", False: "decided-no"}.get(verdict, verdict)
        report = _report(
            args.command, _echo(args), verdict=verdict, anchor=anchor, **fields
        )
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
