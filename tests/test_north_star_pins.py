"""Byte-identity pins for answers at the north-star sizes.

The index, LP and tiling pins elsewhere stop at n = 20; these hosts (k = 3
at n = 30, k = 4 at n = 21) are where a rewrite of the set index or of the
LP's column source shows whether the bytes stay.  Each case hashes the
canonical JSON of one answer, and each host's index is pinned by its set
count and a digest of its masks, written little-endian in row order.
Every answer is also checked: tilings and packings by ``validate``,
certificates by ``fractional.verify_certificate``.
"""

import hashlib
import json
from functools import cache

import pytest

from tritile.constructions import extremal_construction, random_with_codegree
from tritile.exact import max_tiling, perfect_tiling
from tritile.fractional import FarkasCertificate, perfect_fractional_tiling, verify_certificate
from tritile.patterns import _set_index
from tritile.validate import check_tiling


def _build(name: str):
    if name == "rand(30,3,10,s0)":
        return random_with_codegree(30, 3, 10, seed=0)
    k, n = {"ext(3,30)": (3, 30), "ext(4,21)": (4, 21)}[name]
    return extremal_construction(k, n).graph


@pytest.fixture(scope="module")
def host():
    """One object per host for the module's cases, so each index is built
    once, and freed with the module."""
    return cache(_build)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


INDEX_PINS = {
    "ext(3,30)": (88242, "1f22a533adeaea10b829683ffcd63f8ea9e4a9a077d7c322e9c80dd81b2e15a6"),
    "ext(4,21)": (64800, "e10bf1baaea98c842560a70decf41bd71fc36a26c3a59bddad29bf5784cf81be"),
    "rand(30,3,10,s0)": (103784, "9f32dd4c60287dace1292d831471af85aaa50329ac48a3e099f4b629641edb4c"),
}


@pytest.mark.parametrize("name", sorted(INDEX_PINS))
def test_index_pin(host, name):
    H = host(name)
    masks = _set_index(H).masks
    width = (H.n + 7) // 8
    packed = b"".join(m.to_bytes(width, "little") for m in masks)
    assert (len(masks), hashlib.sha256(packed).hexdigest()) == INDEX_PINS[name]


@pytest.mark.parametrize(
    "name,digest",
    [
        ("ext(3,30)", "5ee06cc57971a5248b54bd181f057839e961382c4a2d02d56619c4c7e609c110"),
        ("ext(4,21)", "bb97b2dcaf78958cd1fe05463eeef096120344b4bd7758ac6da7795f6a76c381"),
    ],
    ids=["ext(3,30)", "ext(4,21)"],
)
def test_fractional_certificate_pin(host, name, digest):
    H = host(name)
    cert = perfect_fractional_tiling(H)
    assert isinstance(cert, FarkasCertificate)
    assert verify_certificate(H, cert).valid
    assert _digest(cert.to_json()) == digest


def test_perfect_tiling_pin(host):
    H = host("rand(30,3,10,s0)")
    tiling = perfect_tiling(H)
    assert tiling is not None and check_tiling(H, tiling, require_perfect=True)
    assert _digest(tiling.to_json()) == (
        "b08cd45d0678dd245d9f307804195c9fae08cfee292c67dcad992c26c21acdce"
    )


def test_max_tiling_pin(host):
    H = host("ext(3,30)")
    value, packing = max_tiling(H)
    assert value == 5 == len(packing.copies)
    assert check_tiling(H, packing)
    assert _digest({"value": value, "tiling": packing.to_json()}) == (
        "1f9a2a0bdbc68dcf984c46fcf73b7dba7d97c8c732af7014e4c910c95b55c357"
    )
