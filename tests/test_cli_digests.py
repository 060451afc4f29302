"""Byte-identity pins for the command line.

Each case runs ``tritile.cli.main`` in a scratch directory holding fixed
instances and hashes what a user of the tool sees: the printed report with
its ``ms`` line removed, together with the exit code; the files ``gen``
writes; the batch CSV without its ``ms`` column; the stderr line of a usage
error; and every ``--help`` screen.  All paths are relative to the scratch
directory, so the config echo is the same on every machine.
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tritile.cli import main
from tritile.constructions import extremal_construction, random_with_codegree
from tritile.core import KGraph, complete_kgraph, save_kgraph

_MS_LINE = re.compile(r'\n  "ms": \d+,')
_MS_COLUMN = re.compile(r",(?:\d+|ms)\r\n")

_COVER_EDGES = [
    (0, 1, 2), (0, 1, 3), (0, 1, 8), (0, 7, 8), (1, 2, 8), (1, 3, 8),
    (1, 3, 9), (1, 4, 9), (2, 3, 7), (2, 4, 5), (2, 5, 9), (2, 6, 8),
    (2, 7, 9), (2, 8, 9), (3, 4, 9), (3, 5, 6), (3, 5, 7), (4, 7, 8),
    (5, 6, 8), (6, 7, 9),
]

_BATCH_ROWS = [
    {"id": "info", "args": ["info", "k10.kg"]},
    {"id": "tile", "args": ["tile", "ext.kg"]},
    {"id": "pack", "args": ["pack", "rand.kg"], "output": "pack.json"},
    {"id": "missing", "args": ["info", "missing.kg"]},
    {"id": "usage", "args": ["tile"]},
    {"args": ["fractile", "k10.kg"]},
]


def _write_instances(root: Path) -> None:
    hosts = {
        "k5": complete_kgraph(5, 3),
        "k6": complete_kgraph(6, 3),
        "k7": complete_kgraph(7, 3),
        "k10": complete_kgraph(10, 3),
        "k15": complete_kgraph(15, 3),
        "e10": KGraph(10, 3, []),
        "ext": extremal_construction(3, 15).graph,
        "rand": random_with_codegree(10, 3, 3, seed=8),
        "rand9": random_with_codegree(9, 3, 3, seed=2),
        "k6p2": KGraph(8, 3, complete_kgraph(6, 3).edges),
        "cover": KGraph(10, 3, _COVER_EDGES),
        "bip": KGraph(6, 2, [(i, j) for i in range(3) for j in range(3, 6)]),
        "half": KGraph(6, 2, [(i, j) for i in range(3) for j in range(3, 6) if i + j < 6]),
    }
    for name, H in hosts.items():
        save_kgraph(H, root / f"{name}.kg")
    (root / "fam.txt").write_text("# six copies of K10\n" + "k10.kg\n" * 6)
    (root / "bad.txt").write_text("k10.kg\n" * 5 + "\ne10.kg\n")
    rows = [json.dumps(r) for r in _BATCH_ROWS]
    rows.insert(3, "")  # a blank line between rows
    (root / "rows.jsonl").write_text("# batch rows\n" + "\n".join(rows) + "\n")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TRITILE_BUDGET", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    _write_instances(tmp_path)
    return tmp_path


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _report_digest(argv) -> str:
    code, out, err = _main(argv)
    assert err == ""
    return _sha(f"{code}\n{_MS_LINE.sub('', out)}")


REPORTS = {
    "info": ["info", "k10.kg"],
    "tile-yes": ["tile", "rand.kg"],
    "tile-no-farkas": ["tile", "ext.kg"],
    "tile-no-divisibility": ["tile", "k7.kg"],
    "tile-no-cover": ["tile", "cover.kg"],
    "tile-no-lp": ["tile", "ext.kg", "--no-lp"],
    "tile-budget": ["tile", "k10.kg", "--no-lp", "--budget", "0"],
    "pack": ["pack", "rand.kg"],
    "pack-ext": ["pack", "ext.kg"],
    "fractile-yes": ["fractile", "rand.kg"],
    "fractile-no": ["fractile", "ext.kg"],
    "farkas-yes": ["farkas", "k10.kg"],
    "farkas-no": ["farkas", "ext.kg"],
    "minmax-yes": ["minmax", "rand.kg"],
    "minmax-no": ["minmax", "ext.kg"],
    "lattice-yes": ["lattice", "rand9.kg", "--blocks", "0,3,6;1,4,7;2,5,8", "--beta", "1/9"],
    "lattice-no": ["lattice", "k6p2.kg", "--blocks", "0-5;6,7", "--beta", "1/8"],
    "lattice-packing": [
        "lattice", "rand9.kg", "--blocks", "0,3,6;1,4,7;2,5,8", "--beta", "1/9",
        "--mode", "packing-bound",
    ],
    "reach-yes": ["reach", "k10.kg", "--u", "0", "--v", "1", "--m", "1"],
    "reach-unknown": ["reach", "k10.kg", "--u", "0", "--v", "1", "--m", "2"],
    "reach-exact-yes": ["reach", "k10.kg", "--u", "0", "--v", "1", "--m", "1", "--mode", "exact"],
    "reach-exact-no": ["reach", "k10.kg", "--u", "0", "--v", "1", "--m", "5", "--mode", "exact"],
    "connector-yes": ["connector", "k10.kg", "--u", "0", "--v", "1"],
    "connector-no": ["connector", "k5.kg", "--u", "0", "--v", "1"],
    "absorb-yes": ["absorb", "k10.kg", "--set", "0-4"],
    "absorb-no": ["absorb", "k5.kg", "--set", "0-4"],
    "rainbow-yes": ["rainbow", "fam.txt"],
    "rainbow-no": ["rainbow", "bad.txt"],
    "rainbow-budget": ["rainbow", "fam.txt", "--budget", "0"],
    "pipeline-yes": ["pipeline", "k15.kg", "--gamma", "1"],
    "pipeline-no": ["pipeline", "ext.kg", "--gamma", "1"],
    "pipeline-options": [
        "pipeline", "k15.kg", "--gamma", "1/2", "--gamma-prime", "1/4", "--beta", "1/8",
    ],
    "dh-check-yes": ["dh-check", "bip.kg", "--classes", "0,1,2;3,4,5", "--matching"],
    "dh-check-no": ["dh-check", "half.kg", "--classes", "0,1,2;3,4,5", "--matching"],
    "dh-check-corollary": ["dh-check", "k6.kg", "--a", "0,1", "--b", "2-5", "--beta", "1/5"],
    "gen-stdout": ["gen", "complete", "--n", "6", "--k", "3"],
    "batch": ["batch", "rows.jsonl", "-o", "rows.csv"],
    "batch-workers": ["batch", "rows.jsonl", "--workers", "3", "-o", "rows.csv"],
}

ERRORS = {
    "unknown-command": ["frob"],
    "missing-argument": ["tile"],
    "gen-random-needs-seed": ["gen", "random", "--n", "9", "--k", "3"],
    "float-rational": ["lattice", "k10.kg", "--blocks", "0-4;5-9", "--beta", "0.5"],
    "dh-check-needs-mode": ["dh-check", "k5.kg"],
    "dh-check-a-without-b": ["dh-check", "bip.kg", "--classes", "0,1,2;3,4,5", "--a", "0-2"],
}

GEN = {
    "extremal": ["gen", "extremal", "--k", "3", "--n", "15", "-o", "g.kg"],
    "random": ["gen", "random", "--n", "9", "--k", "3", "--delta", "2", "--seed", "4", "-o", "g.kg"],
    "complete": ["gen", "complete", "--n", "10", "--k", "3", "-o", "g.kg"],
}

HELP = [
    "", "gen", "info", "tile", "pack", "fractile", "farkas", "minmax", "lattice",
    "reach", "connector", "absorb", "rainbow", "pipeline", "dh-check", "batch",
]

# Digests taken before the command table replaced the per-command report code.
PINS = {
    'batch-csv': '365bf7393373df4fa78ac5ea8d9599d575ba3a58e8eaf8f08416c7ba43a4ccdc',
    'error:dh-check-a-without-b': '028f59b961f14f3a2d35f62bffb4cc3c190a2b17c2fcf6e796d23cafdd5e7700',
    'error:dh-check-needs-mode': '20161ac14d873e1fc2cfddd37cc817247f566d2a6d0e01455f206f6cedce3a0f',
    'error:float-rational': '9b3e95a5c82c2be6966c67e3346944e6ff0ece87f58074aa5981eff4a6e36d4c',
    'error:gen-random-needs-seed': '0d246756f1dfc86b586333d561b302f47f70e285434e713531a1f4810888b866',
    'error:missing-argument': '8539af754716ff4cdd0ae41c86d29227320a28098e775e39f4cf05c78bba26de',
    'error:unknown-command': '0724bcb6eafa1957cb1c8c4f9bb2f3a5a7491020fb6c606d4b855db477b503a7',
    # The gen reports and help screen were re-pinned when --max-rounds
    # was removed: each report's config echo lost its max_rounds key, and
    # the written instance and .meta.json digests are unchanged.
    'gen:complete': (
        'e07a9e142168de48c476b2ce0f579a7c110dd7b293a5c453767a0ce160671081',
        '6efc4cf4cfbe80e020f6ce0fc9474b333af3d9441317acab589a6dc91b0ed7aa',
        'c92b72e56076f2e491cfc66b88f1c61017c48e89884859686000f373bf8e9845',
    ),
    'gen:extremal': (
        'ea5644f534cab9c1fa440bc71688d2196768b2564b16e0480a7c669b85d13dce',
        'eb81f7da0e38c216771d07b80fd6c26d66b23f03d48318613ad7c1eb615b4bdd',
        '523ff08d7b6c95042acacb78c28ffdfcc1bf605d4f6f5bc419ad80114d83941a',
    ),
    'gen:random': (
        'fe20f19aa1b756a5c3f9688cceda71276c1833c60783afd7f926dfef296e3d4b',
        '8e033ab845419e33616a0f5f70453695b9394eda91600a7a4378c1856e6da79e',
        '8b9560275ae0ef99e8bd1299f79794849830dddc36e9d01922c6c39d048eb0aa',
    ),
    'help:absorb': '96b5b4935398ec5055c29d92cc2204c679fbcd7fb9928be09c39505dd4dca9f2',
    'help:batch': '45813412b9bf4d37ae8a6502217d397f9caa3ba029872eaf194334d55cb1e7fc',
    'help:connector': '40f86c560594414a6e21398e7c874206e3006ed5af6d94ada0953bd631846b2d',
    'help:dh-check': '6a5cd2d075fc70606fd9fc96f9944a65caf81da6c01a8f794580f6b8f1c3bfee',
    'help:farkas': 'f64b1b34fce655e1889b4f16bd3bdb21023e3798036484d4754db7da44fd6388',
    'help:fractile': '9585461652735e2f95003739277d5d1f9df8f0ec7e0a9e3a3c77be14f1723870',
    'help:gen': 'cf83a57a1b359de994bd8619ff188eefe95da0bb5e28d3cd3656bef8ab73d001',
    'help:info': 'af2eb7ba732e265b90366fd0c1f8e2830c3bb5e228748deb08a21b5e7cb11d9a',
    'help:lattice': '915c8001124f504c57870246669aa97d8a86d40862430750702a21c113d27534',
    'help:minmax': '8eddb242e3804c0cf1ec451de783314d9093195ea84e2201147fcf5429271f1c',
    'help:pack': '09a629043f1846a0195fe3e7ec517731c962dea5d62153b77b8e048364256d80',
    'help:pipeline': 'f64cc4c135802a50ea2bb728029ef3a5e190afa021a289023cd650d93fc33d44',
    'help:rainbow': 'fcbc6f72352a91983e65b545092b3932a392c7f2a2dd7f956b6c5036190130d1',
    'help:reach': '01120dad37b629d9373681227888bc78c3d036370fe91b4779af461bda1dc644',
    'help:tile': '6e49229f5ab4fcdaa4474d57aead57b8683b29fa5ceb376004e32fe5a5206585',
    'help:tritile': '16bfb29283c86a17b1548db11180a17968edf5636188542ad85fe7a57e61a9f0',
    'report:absorb-no': 'ba88844ac3cb0aced90e2c53863b2d4c6810942257d652550345ab8bfd0a4da6',
    'report:absorb-yes': '4ef19b32ce7a524d7bb858491052aeb12b8cd121c9c498a25404f132153bc6c6',
    'report:batch': '6b71c6db760d891220f9fcdb9c4300e92ee44efc2aa706e489542cc934f4dbb7',
    'report:batch-workers': '224eff4f9632916a93056545c9d05e05eaff6e8717bf221d6a302df7c70a40e3',
    'report:connector-no': 'd35a3476aaeff47b2ae3709000ed02bf75d4b21f129c64157949a4de7c3cb8f2',
    'report:connector-yes': 'd8a7b6fefa9bd0c9c0658efc3fb932b7cf4b2254d23f99e4d4b137aa7122c5d5',
    'report:dh-check-corollary': 'ddde9dcbfc18c26126b46a25dea15be36f50438e493620719ad691ddd738d5eb',
    'report:dh-check-no': 'ca0517fd3d7fc965cb98feacbf24be5720ae2611b8297b56c045cf5fb6d2c9ef',
    'report:dh-check-yes': 'd8ac42594d12ed7e28e02eead2cc59341761221967cf237ad7f5b35cbff1af02',
    'report:farkas-no': '07794c886e05b7b655a00937be3b1aa9469e564fa7e90dca7435525354d5cd04',
    'report:farkas-yes': '4df3e24ecd19e7947fb97cb1a338fc73a0b3acf2dd5f2cef833de3cf8b43bf72',
    'report:fractile-no': '6e47cc57ff715e0791c60749477508824c5f9501285f4a9cd9052b6ada1923cd',
    'report:fractile-yes': 'c22f83d442544343402c7d4cdfa98bca8913d1b22ffd45cfc84142a3d90af845',
    'report:gen-stdout': '8bb2f019a759a36da70ef07b5b7b224205ceb5e4dde3685dd50cb2ca4a6b7051',
    'report:info': 'ff0d959aa645b2f9fc0b9d124cb4e1d1a95f01c5be69d006e11cee2e276a34f0',
    'report:lattice-no': '08a5e7a25b873635329117bdea726ccb0400735d6562aaa0c72ccae998f32e1e',
    'report:lattice-packing': 'ac69c925ca4d1b3f6160de151a611cfe101d2820932e53c42093b86d091c61bc',
    'report:lattice-yes': 'fa3b0b06a812e2acc44ceb8b9bf0e790c3bae341bbde716ddfab5bfeffe11847',
    'report:minmax-no': '6c2d57a00737f424a40f827362de8ab2acd9ac10943deb19bd217dee08296599',
    'report:minmax-yes': 'a191bcc4f0c1924c5fe0b87aca7bfbe4641eca16dae45daf58ff600f420ee334',
    'report:pack': '60af8e494c48cf2d74f09ce76d5198aa36adba61bb33165cf0ed457ef96fb48f',
    'report:pack-ext': '6557f5d2bcc10d4d1d660ab1eb0d43c547eb8f2fcc38b8622a3bd6c95ab129b2',
    'report:pipeline-no': '51590780f6a54702053d88f601e169d04d7939c0f40f3b786db1003a5149c0ab',
    'report:pipeline-options': '81d46993db5ff2d7478d53f7983cda5fcd7f9309518d788d84e7835cff1d68bd',
    'report:pipeline-yes': '73dca7cf7b32c04a63b6f13e93ae6a3c593d876f9373a65eda71f05e0cf167ac',
    'report:rainbow-budget': '8fc6b9a8f30b933d5fcb2c095dc7aa5a454da4d16bd2cd96d8fd842aa04f6787',
    'report:rainbow-no': 'a93ab34c32e08f3e0e9bf29a662960cd79b636d31392d6ba70efe991383f2993',
    'report:rainbow-yes': '75b212447f2216532f2249f04b3765ea18f7d56be5f5e716c232ef36d60c7873',
    'report:reach-exact-no': '3b27f53633a7fe66d0fa3d737359b1c9a61266dfa3b0da3ac90d6663e989badd',
    'report:reach-exact-yes': 'b1be9f68d7e024a0124b05dbc5748a0ec0b62d5be0064a4098ef9491460a8d6c',
    # Re-pinned on purpose: no budget runs out here, so the verdict is
    # `unknown`, no longer `unknown-budget`.
    'report:reach-unknown': 'de31b5f0a38ebc2aa4062bdac050f667c682951ecae132dda73468ccbe4d7de6',
    'report:reach-yes': '1e49cb2125fccdeb1806593b783b63896724268d24844abf3aa3b2e95234ff1c',
    'report:tile-budget': 'da4af74a30aecedf12a43038cbf7f2254cd554c73dcb3ab780d8ccd6a00a3527',
    'report:tile-no-cover': '7cb81fbb0c8402d940aad70a9adf651dfa4e8a3760cbc9885f0755299124fc04',
    'report:tile-no-divisibility': '3fb5ef279e942e8a350d30de4e8f44191cfccd863ebf68788d87de4a13226fa3',
    'report:tile-no-farkas': '1163a81fd85187eddcbb880115a16210e779aa96ee111dbb9fd73b0f4d857700',
    'report:tile-no-lp': '53f7abaa5e14f91bcfb14e3ea4586db02eb845562821c1910edb5dcef04ce36e',
    'report:tile-yes': '5b167e4b940bdb5d6e528c55e902ca487749395cde49fe5f092522a28fb72b7a',
}


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_bytes_are_pinned(workdir, case):
    assert _report_digest(REPORTS[case]) == PINS[f"report:{case}"]


@pytest.mark.parametrize("kind", sorted(GEN))
def test_gen_files_are_pinned(workdir, kind):
    report = _report_digest(GEN[kind])
    instance = _sha((workdir / "g.kg").read_text(encoding="utf-8"))
    meta = _sha((workdir / "g.kg.meta.json").read_text(encoding="utf-8"))
    assert (report, instance, meta) == PINS[f"gen:{kind}"]


@pytest.mark.parametrize("workers", ["1", "3"])
def test_batch_csv_is_pinned(workdir, workers):
    assert _main(["batch", "rows.jsonl", "--workers", workers, "-o", "rows.csv"])[0] == 0
    with open(workdir / "rows.csv", encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert _sha(_MS_COLUMN.sub("\r\n", text)) == PINS["batch-csv"]


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_usage_error_line_is_pinned(workdir, case):
    code, out, err = _main(ERRORS[case])
    assert (code, out) == (1, "") and len(err.splitlines()) == 1
    assert _sha(err) == PINS[f"error:{case}"]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse lays out help differently per Python version"
)
@pytest.mark.parametrize("command", HELP)
def test_help_screen_is_pinned(workdir, command):
    code, out, err = _main([command, "--help"] if command else ["--help"])
    assert (code, err) == (0, "")
    assert _sha(out) == PINS[f"help:{command or 'tritile'}"]
