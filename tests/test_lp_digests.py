"""Byte-identity pins for the exact simplex.

Each case runs one LP entry point on a fixed host and hashes the canonical
JSON of its answer.  The pivot sequence decides every certificate, optimum
and witness, so any change to pricing, the ratio test or the row updates
that alters a single pivot shows up here as a digest mismatch.
"""

import hashlib
import json

import pytest

from tritile import fractional
from tritile.constructions import extremal_construction, random_with_codegree
from tritile.core import KGraph, complete_kgraph
from tritile.fractional import (
    FarkasCertificate,
    b_avoiding_fractional_tiling,
    frac_str,
    min_max_pair_weight,
    packing_lp_value,
    perfect_fractional_tiling,
)


def _relabelled(H: KGraph) -> KGraph:
    """H under v -> (3v + 1) mod n (a bijection for the n used here)."""
    n = H.n
    return KGraph(n, H.k, [sorted((3 * v + 1) % n for v in e) for e in H.edges])


HOSTS = {
    "K10": lambda: complete_kgraph(10, 3),
    "ext(3,10)~": lambda: _relabelled(extremal_construction(3, 10).graph),
    "ext(4,14)~": lambda: _relabelled(extremal_construction(4, 14).graph),
    "ext(4,7)~": lambda: _relabelled(extremal_construction(4, 7).graph),
    "rand(9,3,2,s5)": lambda: random_with_codegree(9, 3, 2, seed=5),
    "rand(10,3,1,s2)": lambda: random_with_codegree(10, 3, 1, seed=2),
    "rand(11,3,3,s7)": lambda: random_with_codegree(11, 3, 3, seed=7),
    "rand(8,3,0,s1)": lambda: random_with_codegree(8, 3, 0, seed=1),
    "ext(3,20)~": lambda: _relabelled(extremal_construction(3, 20).graph),
}


def _answer_json(answer):
    if isinstance(answer, tuple):
        value, tiling = answer
        return {"value": frac_str(value), "tiling": tiling.to_json()}
    return answer.to_json()


def _digest(answer) -> str:
    text = json.dumps(_answer_json(answer), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


OPERATIONS = {
    "fractional": perfect_fractional_tiling,
    "packing": packing_lp_value,
    "minmax": min_max_pair_weight,
}

# Digests taken before the sparse pivot kernel landed; min-max is pinned on
# a subset of the hosts to keep the suite fast.
PINS = {
    ("K10", "fractional"): "1410b465e18497128a470e1b9d88aba2042341cc03493d6c4973abb7f769e957",
    ("K10", "packing"): "f85768f30fe8f6cca5249431490a073d1ae3c2418c911a205aac8ed20db7521e",
    ("K10", "minmax"): "09671d0c2ea78cb5b508be0e1401c44542b4ac66f5e4d921adf2c8b6a79fa23f",
    ("ext(3,10)~", "fractional"): "3641b1c0b7a631364d411aac131cc33c0efdbdb2b7feab6ea542adf720e47e97",
    ("ext(3,10)~", "packing"): "defa903cfbd1a548251a063f1c69f6d2148f77f2bd984ca3a953faeba022bb42",
    ("ext(3,10)~", "minmax"): "3641b1c0b7a631364d411aac131cc33c0efdbdb2b7feab6ea542adf720e47e97",
    ("ext(4,14)~", "fractional"): "3f3835ebc4d9fd9d26ed21225e7db44fcc89448674784f7377c8bae1e0f113e8",
    ("ext(4,14)~", "packing"): "53e76603a3976ead3e3a693ce652251353b37bfeb962516b4a6077297cf4ee27",
    ("ext(4,14)~", "minmax"): "3f3835ebc4d9fd9d26ed21225e7db44fcc89448674784f7377c8bae1e0f113e8",
    ("ext(4,7)~", "fractional"): "caff44d4630ea59bf6d717f1ed5b852198bac39454fe1bccce1063c1e301a91f",
    ("ext(4,7)~", "packing"): "8cdf6e1fb23f7644e37c1c381796a77302c788899e9fcd77544dea8fd0c4e1b7",
    ("ext(4,7)~", "minmax"): "caff44d4630ea59bf6d717f1ed5b852198bac39454fe1bccce1063c1e301a91f",
    ("rand(9,3,2,s5)", "fractional"): "cfc8acb1ccf8137e66d861987d12689b215bcdc446b20079fff15b745b6475ce",
    ("rand(9,3,2,s5)", "packing"): "a93eb9db3511de2ce2b0fadfb3f2f336ffa90b328c5f5bd09075da47991efd37",
    ("rand(9,3,2,s5)", "minmax"): "02ca22ead8bc3796d9a2ef747bc0fcb140006a3f9680807244a41a611fa7c682",
    ("rand(10,3,1,s2)", "fractional"): "46cd8e188a88d3b8ab9aad8fffaab08d65c1739fcbffe02d81387a324747edd6",
    ("rand(10,3,1,s2)", "packing"): "465dfa634f22a1df50b9672eae6e37551ed220a4df451da9756d1687361231df",
    # feasible, and its min-max phase 2 breaks 133 ratio-test ties on Q
    ("rand(10,3,1,s2)", "minmax"): "7d2bd5350ebf5d8c57b31d7b0423cd334e5ca91e99c136178409252d2a4a0e82",
    ("rand(11,3,3,s7)", "fractional"): "aa5d41189e422dcde4b667daa66ecebb1addc47132ad69b3408734eb2191ca4e",
    ("rand(11,3,3,s7)", "packing"): "cb721879265efb9751a42bc6c606aba2c9dd38921f53313bdf34a3b20999462e",
    ("rand(8,3,0,s1)", "fractional"): "49512ceab25f58534331cbd6a10087054b72e2f1f34586950450e52d3b7ebfbb",
    ("rand(8,3,0,s1)", "packing"): "8cdf6e1fb23f7644e37c1c381796a77302c788899e9fcd77544dea8fd0c4e1b7",
    ("rand(8,3,0,s1)", "minmax"): "49512ceab25f58534331cbd6a10087054b72e2f1f34586950450e52d3b7ebfbb",
    # 9 212 set columns with many equal reduced costs: ties decide pivots.
    ("ext(3,20)~", "fractional"): "acaaa0d653386bfbf1f608f5597e2f6bc00d5f3a527fdfafdbb71cd4a997ccae",
    ("ext(3,20)~", "packing"): "c11b934f3313b6773b2d51292ef2527b6c29b8a3a629914264ec3ccc601fa92f",
}


@pytest.mark.parametrize("host,op", sorted(PINS))
def test_lp_answer_bytes_are_pinned(host, op):
    assert _digest(OPERATIONS[op](HOSTS[host]())) == PINS[(host, op)]


# B-avoiding programs price a filtered subset of the host's sets: 250 of 502
# with four pairs in B (a tiling), 75 with ten (a certificate).
AVOIDING_PINS = {
    ((0, 4), (4, 6), (6, 11), (7, 8)): "689e5dd828a4a20bcca5c8039332d70c313928b3559017fa8e0040775a5cd78b",
    ((0, 4), (1, 9), (2, 4), (2, 8), (3, 9), (4, 6), (4, 8), (5, 7), (6, 11), (7, 8)): "9aa440ecd2b6ed7394f8f39dd31620e6886a49422c14e34052603dea5c2a3f1b",
}


@pytest.mark.parametrize("pairs", sorted(AVOIDING_PINS))
def test_b_avoiding_answer_bytes_are_pinned(pairs):
    H = random_with_codegree(12, 3, 3, seed=0)
    answer = b_avoiding_fractional_tiling(H, KGraph(12, 2, pairs))
    assert _digest(answer) == AVOIDING_PINS[pairs]


def test_pins_cover_both_pricing_paths(monkeypatch):
    """K10 min-max prices some passes with duals too wide for the packed
    fields and some without, so its pin covers both pricing paths."""
    price = fractional._Simplex._price
    wide = []

    def recording_price(sx, yi, minimize):
        R = len(sx.block[0])
        wide.append((R * (max(yi) - min(yi))).bit_length() > fractional._FIELD_BITS)
        return price(sx, yi, minimize)

    monkeypatch.setattr(fractional._Simplex, "_price", recording_price)
    min_max_pair_weight(HOSTS["K10"]())
    assert any(wide) and not all(wide)


def test_pins_cover_both_verdicts():
    kinds = {
        isinstance(perfect_fractional_tiling(HOSTS[h]()), FarkasCertificate)
        for h in HOSTS
    }
    assert kinds == {True, False}
