import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tritile

from tritile import cli, core, lattice
from tritile.cli import main, parse_blocks, parse_rational, parse_vertices, run, UsageError
from tritile.core import KGraph, load_kgraph, save_kgraph


def _strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("ms", None)
    return out


def test_parse_rational():
    from fractions import Fraction

    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("3") == 3
    with pytest.raises(UsageError):
        parse_rational("0.25")


def test_parse_vertices_and_blocks():
    assert parse_vertices("0,2,5-7") == (0, 2, 5, 6, 7)
    assert parse_blocks("0-2;3,4") == ((0, 1, 2), (3, 4))


def test_gen_round_trip(tmp_path):
    out = tmp_path / "inst.kg"
    report, code = run(["gen", "random", "--n", "9", "--k", "3", "--delta", "2", "--seed", "4", "-o", str(out)])
    assert code == 0
    H = load_kgraph(out)
    assert H.n == 9 and H.k == 3
    meta = json.loads((tmp_path / "inst.kg.meta.json").read_text())
    assert meta["seed"] == 4
    # regenerated instance is byte-identical
    out2 = tmp_path / "inst2.kg"
    run(["gen", "random", "--n", "9", "--k", "3", "--delta", "2", "--seed", "4", "-o", str(out2)])
    assert out.read_text() == out2.read_text()


def test_gen_then_tile_extremal(tmp_path):
    out = tmp_path / "ext.kg"
    report, code = run(["gen", "extremal", "--k", "3", "--n", "15", "-o", str(out)])
    assert code == 0
    report, code = run(["tile", str(out)])
    assert code == 0
    assert report["verdict"] == "decided-no"


def test_tile_reason_divisibility(tmp_path):
    out = tmp_path / "k7.kg"
    run(["gen", "complete", "--n", "7", "--k", "3", "-o", str(out)])
    report, code = run(["tile", str(out)])
    assert code == 0
    assert report["verdict"] == "decided-no"
    assert report["reason"] == "divisibility"
    assert "certificate" not in report


def test_tile_reason_farkas(tmp_path):
    out = tmp_path / "ext.kg"
    run(["gen", "extremal", "--k", "3", "--n", "15", "-o", str(out)])
    report, code = run(["tile", str(out)])
    assert code == 0
    assert report["verdict"] == "decided-no"
    assert report["reason"] == "farkas"
    assert report["certificate"]["coeffs"] == [3] * 5 + [-2] * 10
    # without the LP the same host is ruled out by the cover search
    report, code = run(["tile", str(out), "--no-lp"])
    assert (code, report["reason"]) == (0, "cover")
    assert "certificate" not in report


def test_tile_reason_farkas_without_sets(tmp_path):
    # A host with no supporting set gets the LP's certificate, which the
    # independent validator accepts; without the LP it is "cover", decided
    # with no search, so even a zero budget answers.
    from tritile.fractional import FarkasCertificate
    from tritile.validate import check_certificate

    H = KGraph(10, 3, [])
    out = tmp_path / "empty.kg"
    save_kgraph(H, out)
    report, code = run(["tile", str(out)])
    assert (code, report["verdict"], report["reason"]) == (0, "decided-no", "farkas")
    assert report["certificate"]["coeffs"] == [-1] * 10
    assert check_certificate(H, FarkasCertificate(tuple(report["certificate"]["coeffs"])))
    report, code = run(["tile", str(out), "--no-lp", "--budget", "0"])
    assert (code, report["verdict"], report["reason"]) == (0, "decided-no", "cover")
    assert "certificate" not in report


def test_tile_reason_cover(tmp_path):
    # Fractionally tilable (the LP is feasible), but no two of its
    # supporting sets are disjoint, so only the cover search can say no.
    edges = [
        (0, 1, 2), (0, 1, 3), (0, 1, 8), (0, 7, 8), (1, 2, 8), (1, 3, 8),
        (1, 3, 9), (1, 4, 9), (2, 3, 7), (2, 4, 5), (2, 5, 9), (2, 6, 8),
        (2, 7, 9), (2, 8, 9), (3, 4, 9), (3, 5, 6), (3, 5, 7), (4, 7, 8),
        (5, 6, 8), (6, 7, 9),
    ]
    from tritile.core import KGraph, save_kgraph

    out = tmp_path / "cover.kg"
    save_kgraph(KGraph(10, 3, edges), out)
    report, code = run(["fractile", str(out)])
    assert (code, report["verdict"]) == (0, "decided-yes")
    report, code = run(["tile", str(out)])
    assert code == 0
    assert report["verdict"] == "decided-no"
    assert report["reason"] == "cover"
    assert "certificate" not in report


def test_info_complete(tmp_path):
    out = tmp_path / "k5.kg"
    run(["gen", "complete", "--n", "5", "--k", "3", "-o", str(out)])
    report, code = run(["info", str(out)])
    assert code == 0
    assert report["min_codegree"] == 3


def test_farkas_certificate_validates(tmp_path):
    out = tmp_path / "ext.kg"
    run(["gen", "extremal", "--k", "3", "--n", "15", "-o", str(out)])
    report, code = run(["farkas", str(out)])
    assert code == 0
    assert report["verdict"] == "decided-no"
    assert report["certificate_valid"]
    coeffs = report["certificate"]["coeffs"]
    assert coeffs == [3] * 5 + [-2] * 10
    assert sum(coeffs) == -5


def test_reports_reproducible(tmp_path):
    out = tmp_path / "g.kg"
    run(["gen", "random", "--n", "10", "--k", "3", "--delta", "3", "--seed", "8", "-o", str(out)])
    r1, _ = run(["pack", str(out)])
    r2, _ = run(["pack", str(out)])
    assert _strip_timing(r1) == _strip_timing(r2)


def test_exit_codes(tmp_path):
    out = tmp_path / "g.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(out)])
    _, code = run(["fractile", str(out)])
    assert code == 0
    # budget exhaustion -> 2: force the pure cover search with zero nodes
    report, code = run(["tile", str(out), "--no-lp", "--budget", "0"])
    assert code == 2
    assert report["verdict"] == "unknown-budget"
    # usage error -> 1 through main()
    assert main(["tile"]) == 1


def test_batch_duplicate_rows_identical(tmp_path):
    inst = tmp_path / "a.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(inst)])
    manifest = tmp_path / "dup.jsonl"
    row = {"id": "same", "args": ["pack", str(inst)]}
    manifest.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
    out = tmp_path / "dup.csv"
    run(["batch", str(manifest), "-o", str(out)])
    lines = out.read_text().strip().splitlines()[1:]
    first = lines[0].split(",")[:-1]
    second = lines[1].split(",")[:-1]
    assert first == second
    assert first[2] == "decided-yes" and first[3] == "2"


def test_batch_order_and_workers(tmp_path):
    inst = tmp_path / "a.kg"
    run(["gen", "extremal", "--k", "3", "--n", "10", "-o", str(inst)])
    manifest = tmp_path / "man.jsonl"
    rows = [
        {"id": "info-a", "args": ["info", str(inst)]},
        {"id": "tile-a", "args": ["tile", str(inst)]},
        {"id": "pack-a", "args": ["pack", str(inst)]},
        {"id": "bad", "args": ["info", str(tmp_path / "missing.kg")]},
    ]
    manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out1 = tmp_path / "out1.csv"
    out4 = tmp_path / "out4.csv"
    _, c1 = run(["batch", str(manifest), "--workers", "1", "-o", str(out1)])
    _, c4 = run(["batch", str(manifest), "--workers", "4", "-o", str(out4)])
    assert c1 == c4 == 0

    def rows_no_ms(path):
        lines = path.read_text().strip().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert rows_no_ms(out1) == rows_no_ms(out4)
    ids = [line.split(",")[0] for line in rows_no_ms(out1)[1:]]
    assert ids == ["info-a", "tile-a", "pack-a", "bad"]
    verdicts = [line.split(",")[2] for line in rows_no_ms(out1)[1:]]
    assert verdicts[-1] == "error"
    assert verdicts[1] == "decided-no"


def test_empty_batch(tmp_path):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("")
    out = tmp_path / "out.csv"
    _, code = run(["batch", str(manifest), "-o", str(out)])
    assert code == 0
    assert out.read_text().strip() == "id,command,verdict,value,witness_path,ms"


def test_rainbow_cli(tmp_path):
    host = tmp_path / "k10.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(host)])
    manifest = tmp_path / "fam.txt"
    manifest.write_text("\n".join(["k10.kg"] * 6) + "\n")
    report, code = run(["rainbow", str(manifest)])
    assert code == 0
    assert report["verdict"] == "decided-yes"
    assert sorted(report["witness"]["assignment"]) == list(range(6))


def test_pipeline_cli(tmp_path):
    inst = tmp_path / "k15.kg"
    run(["gen", "complete", "--n", "15", "--k", "3", "-o", str(inst)])
    report, code = run(["pipeline", str(inst), "--gamma", "1"])
    assert code == 0
    assert report["verdict"] == "decided-yes"
    assert [s["status"] for s in report["stages"]] == ["ok"] * 8


def test_dh_check_cli(tmp_path):
    from tritile.core import KGraph, save_kgraph

    J = KGraph(6, 2, [(i, j) for i in range(3) for j in range(3, 6)])
    path = tmp_path / "bip.kg"
    save_kgraph(J, path)
    report, code = run(
        ["dh-check", str(path), "--classes", "0,1,2;3,4,5", "--matching"]
    )
    assert code == 0
    assert report["verdict"] == "decided-yes"
    assert report["degree_condition"]["threshold"] == "3/2"
    assert len(report["matching"]) == 3


def test_malformed_budget_env_exits_1(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    inst = tmp_path / "k5.kg"
    run(["gen", "complete", "--n", "5", "--k", "3", "-o", str(inst)])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, TRITILE_BUDGET="abc", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "tritile.cli", "info", str(inst)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: TRITILE_BUDGET must be an integer, got 'abc'"]


@pytest.mark.parametrize(
    "argv,env",
    [(["pack", "{inst}", "--budget", "-1"], None),
     (["tile", "{inst}", "--budget", "-1"], None),
     (["tile", "{inst}"], "-3")],
    ids=["pack", "tile", "env"],
)
def test_negative_budget_exits_1(tmp_path, capsys, monkeypatch, argv, env):
    inst = tmp_path / "k10.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(inst)])
    capsys.readouterr()
    if env is not None:
        monkeypatch.setenv("TRITILE_BUDGET", env)
    assert main([a.format(inst=inst) for a in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    source = "--budget" if env is None else "TRITILE_BUDGET"
    assert err == [f"error: {source} must be nonnegative, got '{env or -1}'"]
    # budget 0 stays valid: the search stops at its first node
    monkeypatch.delenv("TRITILE_BUDGET", raising=False)
    assert main(["tile", str(inst), "--no-lp", "--budget", "0"]) == 2


@pytest.mark.parametrize(
    "flags,name",
    [(["--gamma", "-1"], "gamma"),
     (["--gamma", "0", "--gamma-prime=-1/2"], "gamma_prime"),
     (["--gamma", "0", "--beta=-1/3"], "beta")],
    ids=["gamma", "gamma-prime", "beta"],
)
def test_negative_pipeline_density_exits_1(tmp_path, capsys, flags, name):
    inst = tmp_path / "k10.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(inst)])
    capsys.readouterr()
    assert main(["pipeline", str(inst), *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {name} must be nonnegative"]


@pytest.mark.parametrize(
    "argv",
    [["reach", "--u", "0", "--v", "1", "--m", "1", "--t", "0", "--mode", "exact"],
     ["reach", "--u", "0", "--v", "1", "--m", "1", "--t", "0"],
     ["connector", "--u", "0", "--v", "1", "--t", "-2"],
     ["absorb", "--set", "0,1,2,3,4", "--t", "0"]],
    ids=["reach-exact", "reach-certificate", "connector", "absorb"],
)
def test_size_factor_below_1_exits_1(tmp_path, capsys, argv):
    inst = tmp_path / "k10.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(inst)])
    capsys.readouterr()
    t = argv[argv.index("--t") + 1]
    assert main([argv[0], str(inst), *argv[1:]]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: t must be at least 1, got {t}"]


def test_pipeline_matching_over_budget_is_unknown_budget(tmp_path, capsys):
    # |X| = 3 and the matching-M search needs 14 nodes; a search for three
    # rows certifies no bound, so the report carries none.
    from test_exact import _sparse_vertex

    inst = tmp_path / "sparse.kg"
    save_kgraph(_sparse_vertex(15, 3, 0, count=3, p=0.6), inst)
    assert main(["pipeline", str(inst), "--gamma", "1", "--budget", "13"]) == 2
    assert _strip_timing(json.loads(capsys.readouterr().out)) == {
        "anchor": "budget",
        "bounds": None,
        "command": "pipeline",
        "config": {"budget": 13, "command": "pipeline", "gamma": "1", "instance": str(inst)},
        "reason": "packing search exceeded 13 nodes",
        "schema": 1,
        "tool": {"name": "tritile", "version": "0.1.0"},
        "verdict": "unknown-budget",
    }
    assert main(["pipeline", str(inst), "--gamma", "1", "--budget", "14"]) == 0
    stages = json.loads(capsys.readouterr().out)["stages"]
    assert stages[3] == {"stage": "matching-M", "status": "ok", "detail": "size=3"}


def test_budget_env_sets_default(tmp_path, monkeypatch):
    inst = tmp_path / "k10.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(inst)])
    monkeypatch.setenv("TRITILE_BUDGET", "0")
    report, code = run(["tile", str(inst), "--no-lp"])
    assert code == 2
    assert report["config"]["budget"] == 0


@pytest.mark.parametrize(
    "edges_from,blocks,found",
    [("random", "0,3,6;1,4,7;2,5,8", True), ("k6-plus-two", "0-5;6,7", False)],
)
def test_lattice_report_matches_per_pair_transferrals(tmp_path, edges_from, blocks, found):
    from fractions import Fraction

    from tritile.core import KGraph, complete_kgraph, save_kgraph
    from tritile.lattice import VertexPartition, has_transferral

    inst = tmp_path / "g.kg"
    if edges_from == "random":
        run(["gen", "random", "--n", "9", "--k", "3", "--delta", "3", "--seed", "2", "-o", str(inst)])
    else:
        save_kgraph(KGraph(8, 3, complete_kgraph(6, 3).edges), inst)
    H = load_kgraph(inst)
    beta = Fraction(1, H.n)
    report, code = run(["lattice", str(inst), "--blocks", blocks, "--beta", f"1/{H.n}"])
    assert code == 0
    P = VertexPartition(parse_blocks(blocks))
    expected = []
    for i in range(P.r):
        for j in range(P.r):
            if i == j:
                continue
            tr = has_transferral(H, P, beta, i, j)
            expected.append(
                {
                    "i": i,
                    "j": j,
                    "found": tr.found,
                    "combination": None
                    if tr.combination is None
                    else [[list(v), c] for v, c in sorted(tr.combination.items())],
                }
            )
    assert json.dumps(report["transferrals"], sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert any(t["found"] for t in expected) == found


@pytest.mark.parametrize(
    "argv",
    [
        ["absorb", "{inst}", "--set", "x"],
        ["lattice", "{inst}", "--blocks", "0-x", "--beta", "1/2"],
        ["dh-check", "{inst}", "--a", "0-2", "--b", "x"],
    ],
    ids=["absorb-set", "lattice-blocks", "dh-check-a-b"],
)
def test_malformed_vertex_list_exits_1(tmp_path, capsys, argv):
    inst = tmp_path / "k5.kg"
    run(["gen", "complete", "--n", "5", "--k", "3", "-o", str(inst)])
    capsys.readouterr()
    assert main([a.format(inst=inst) for a in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: vertex list expected")


def test_reach_out_of_range_endpoint_exits_1(tmp_path, capsys):
    inst = tmp_path / "k5.kg"
    run(["gen", "complete", "--n", "5", "--k", "3", "-o", str(inst)])
    capsys.readouterr()
    assert main(["reach", str(inst), "--u", "0", "--v", "9", "--m", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: (0, 9) leaves the vertex range 0..4"]


def test_lattice_blocks_of_another_vertex_count_exit_1(tmp_path, capsys):
    # A 7-vertex host partitioned as 0..7 would read vertex 7 as real.
    inst = tmp_path / "k7.kg"
    run(["gen", "complete", "--n", "7", "--k", "3", "-o", str(inst)])
    capsys.readouterr()
    assert main(["lattice", str(inst), "--blocks", "0-3;4-7", "--beta", "1/7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: partition has 8 vertices, host has 7"]


_K5_TEXT = b"p kgraph 5 3\n" + b"".join(
    b"e %d %d %d\n" % e for e in itertools.combinations(range(5), 3)
)


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"h.kg": b"p kgraph 5 x\n"}, ["info", "h.kg"]),
        ({"h.kg": b"p kgraph 5.0 3\n"}, ["info", "h.kg"]),
        ({"h.kg": b"p kgraph 5 3\nc \xff\n"}, ["info", "h.kg"]),
        ({"m.jsonl": b'{"args": ["info", "\xff"]}\n'}, ["batch", "m.jsonl"]),
        ({"r.txt": b"\xfe.kg\n"}, ["rainbow", "r.txt"]),
        ({"r.txt": b"h.kg\n", "h.kg": b"p kgraph 5 3\nc \xff\n"}, ["rainbow", "r.txt"]),
        ({"h.kg": _K5_TEXT}, ["reach", "h.kg", "--u", "-1", "--v", "2", "--m", "0"]),
    ],
    ids=[
        "non-integer-n", "float-n", "instance-not-utf8", "batch-manifest-not-utf8",
        "rainbow-manifest-not-utf8", "rainbow-host-not-utf8", "negative-endpoint",
    ],
)
def test_bad_input_exits_1_with_one_error_line(tmp_path, files, argv):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    src = str(Path(tritile.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "tritile.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_reach_equal_endpoints_exits_1(tmp_path, capsys):
    inst = tmp_path / "k5.kg"
    run(["gen", "complete", "--n", "5", "--k", "3", "-o", str(inst)])
    capsys.readouterr()
    assert main(["reach", str(inst), "--u", "2", "--v", "2", "--m", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: connector endpoints must differ"]


def _copy(j):
    """A TriangleCopy rebuilt from its report entry: base = e1 & e2."""
    from tritile.patterns import TriangleCopy

    e1, e2, spine = (set(e) for e in j["edges"])
    base = e1 & e2
    apexes = (e1 - base) | (e2 - base)
    return TriangleCopy(tuple(base), tuple(apexes), tuple(spine - apexes))


def _tiling(j, n):
    from tritile.patterns import Tiling

    return Tiling(tuple(_copy(c) for c in j["copies"]), n)


def _fractional(j, n):
    from tritile.fractional import FractionalTiling

    weights = {_copy(w["copy"]): parse_rational(w["weight"]) for w in j["weights"]}
    return FractionalTiling(n, weights)


def _certificate(j):
    from tritile.fractional import FarkasCertificate

    return FarkasCertificate(tuple(j["coeffs"]))


def _max_pair_weight(omega):
    return max(omega.pair_weight(u, v) for u in range(omega.n) for v in range(u + 1, omega.n))


def test_every_cli_witness_validates(tmp_path):
    from tritile import validate
    from tritile.core import KGraph, save_kgraph
    from tritile.rainbow import GraphFamily, RainbowTiling

    paths = {}
    for name, argv in [
        ("k10", ["complete", "--n", "10", "--k", "3"]),
        ("k15", ["complete", "--n", "15", "--k", "3"]),
        ("ext", ["extremal", "--k", "3", "--n", "15"]),
        ("rand", ["random", "--n", "10", "--k", "3", "--delta", "3", "--seed", "8"]),
    ]:
        paths[name] = str(tmp_path / f"{name}.kg")
        assert run(["gen", *argv, "-o", paths[name]])[1] == 0
    hosts = {name: load_kgraph(p) for name, p in paths.items()}
    triples = itertools.product(range(3), range(3, 6), range(6, 9))
    J = KGraph(9, 3, [e for e in triples if sum(e) % 3])
    save_kgraph(J, tmp_path / "J.kg")
    (tmp_path / "fam.txt").write_text("k10.kg\n" * 6)

    def report(*argv):
        rep, code = run(list(argv))
        assert code == 0, rep
        return rep

    H = hosts["rand"]
    rep = report("tile", paths["rand"])
    assert rep["verdict"] == "decided-yes"
    assert validate.check_tiling(H, _tiling(rep["witness"], 10), require_perfect=True)
    rep = report("pack", paths["rand"])
    witness = _tiling(rep["witness"], 10)
    assert validate.check_tiling(H, witness) and len(witness.copies) == int(rep["value"])
    rep = report("fractile", paths["rand"])
    assert validate.check_fractional(H, _fractional(rep["witness"], 10))
    rep = report("minmax", paths["rand"])
    omega = _fractional(rep["witness"], 10)
    assert validate.check_fractional(H, omega)
    assert _max_pair_weight(omega) == parse_rational(rep["value"])

    ext = hosts["ext"]
    for command in ("tile", "fractile", "farkas", "minmax"):
        rep = report(command, paths["ext"])
        assert rep["verdict"] == "decided-no"
        assert validate.check_certificate(ext, _certificate(rep["certificate"]))

    k10 = hosts["k10"]
    rep = report("connector", paths["k10"], "--u", "0", "--v", "1")
    assert validate.check_connector(k10, rep["witness"], 0, 1)
    rep = report("absorb", paths["k10"], "--set", "0,1,2,3,4")
    assert validate.check_absorber(k10, rep["witness"], (0, 1, 2, 3, 4))

    rep = report("rainbow", str(tmp_path / "fam.txt"))
    rt = RainbowTiling(_tiling(rep["witness"]["tiling"], 10), tuple(rep["witness"]["assignment"]))
    assert validate.check_rainbow(GraphFamily((k10,) * 6), rt)

    rep = report("pipeline", paths["k15"], "--gamma", "1")
    assert validate.check_tiling(hosts["k15"], _tiling(rep["witness"], 15), require_perfect=True)

    rep = report("dh-check", str(tmp_path / "J.kg"), "--classes", "0-2;3-5;6-8", "--matching")
    assert rep["matching"] is not None
    assert validate.check_matching(J, rep["matching"])


def test_batch_help_row_is_an_error_row(tmp_path):
    inst = tmp_path / "a.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(inst)])
    manifest = tmp_path / "help.jsonl"
    rows = [
        {"id": "help", "args": ["tile", "--help"]},
        {"id": "info", "args": ["info", str(inst)]},
    ]
    manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "help.csv"
    report, code = run(["batch", str(manifest), "-o", str(out)])
    assert (code, report["rows"]) == (0, 2)
    lines = out.read_text().strip().splitlines()[1:]
    assert [line.split(",")[:4] for line in lines] == [
        ["help", "tile", "error", "exit 0"],
        ["info", "info", "decided-yes", ""],
    ]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_batch_stdout_is_one_json_document(tmp_path, capsys, workers):
    inst = tmp_path / "a.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(inst)])
    manifest = tmp_path / "help.jsonl"
    rows = [
        {"id": "help", "args": ["tile", "--help"]},
        {"id": "top", "args": ["--help"]},
        {"id": "info", "args": ["info", str(inst)]},
    ]
    manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    capsys.readouterr()
    assert main(["batch", str(manifest), "--workers", workers]) == 0
    report = json.loads(capsys.readouterr().out)
    lines = report["csv"].strip().splitlines()[1:]
    assert [line.split(",")[:4] for line in lines] == [
        ["help", "tile", "error", "exit 0"],
        ["top", "--help", "error", "exit 0"],
        ["info", "info", "decided-yes", ""],
    ]


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_batch_workers_below_one_exits_1(tmp_path, capsys, workers):
    manifest = tmp_path / "rows.jsonl"
    manifest.write_text(json.dumps({"id": "top", "args": ["--help"]}) + "\n")
    assert main(["batch", str(manifest), "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --workers must be at least 1, got '{workers}'"]


def test_reach_without_enough_connectors_is_unknown(tmp_path, capsys):
    inst = tmp_path / "k10.kg"
    run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(inst)])
    capsys.readouterr()
    assert main(["reach", str(inst), "--u", "0", "--v", "1", "--m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "unknown"


def test_pipeline_decides_ext_3_30(tmp_path, capsys):
    inst = tmp_path / "ext30.kg"
    run(["gen", "extremal", "--k", "3", "--n", "30", "-o", str(inst)])
    capsys.readouterr()
    assert main(["pipeline", str(inst), "--gamma", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "decided-no"


def test_pipeline_over_witness_budget_is_unknown_budget(tmp_path, capsys, monkeypatch):
    # ext(3,30) at gamma 0 needs 117 witness-search nodes
    inst = tmp_path / "ext30.kg"
    run(["gen", "extremal", "--k", "3", "--n", "30", "-o", str(inst)])
    capsys.readouterr()
    monkeypatch.setattr(core, "DEFAULT_NODE_BUDGET", 116)
    assert main(["pipeline", str(inst), "--gamma", "0"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "unknown-budget"
    assert report["reason"] == "witness search exceeded 116 nodes"


def test_dh_check_empty_a_and_b_exits_1(tmp_path, capsys):
    inst = tmp_path / "J.kg"
    save_kgraph(KGraph(5, 5, [(0, 1, 2, 3, 4)]), inst)
    assert main(["dh-check", str(inst), "--a", " ", "--b", " "]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: B is empty"]


@pytest.mark.parametrize("given", [["--a", "0-2"], ["--b", "3-5"]])
def test_dh_check_with_one_of_a_and_b_exits_1(tmp_path, capsys, given):
    inst = tmp_path / "bip.kg"
    save_kgraph(KGraph(6, 2, [(i, j) for i in range(3) for j in range(3, 6)]), inst)
    assert main(["dh-check", str(inst), "--classes", "0,1,2;3,4,5", *given]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: dh-check needs --a and --b together"]


def test_reach_over_budget_is_unknown_budget(tmp_path, capsys, monkeypatch):
    # An edgeless host has no connector; a 3-candidate budget runs out first.
    inst = tmp_path / "empty.kg"
    save_kgraph(KGraph(10, 3, []), inst)
    monkeypatch.setattr(cli, "reachable", functools.partial(lattice.reachable, budget=3))
    for mode in ("certificate", "exact"):
        argv = ["reach", str(inst), "--u", "0", "--v", "1", "--m", "1", "--mode", mode]
        assert main(argv) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "unknown-budget"
        assert report["reason"] == "connector search exceeded 3 candidates"
