"""Every reject branch of the independent validators.

``tritile.validate`` is the last check on every emitted witness, so each of
its ``return False`` branches gets one small witness that fails exactly
there.  The valid witnesses these are made from pass first.
"""

from fractions import Fraction

import pytest

from tritile.core import KGraph, complete_kgraph
from tritile.fractional import FarkasCertificate, FractionalTiling
from tritile.patterns import TriangleCopy, Tiling
from tritile.rainbow import GraphFamily, RainbowTiling, rainbow_perfect_tiling
from tritile.validate import (
    brute_perfectly_tilable,
    brute_supports,
    check_absorber,
    check_certificate,
    check_connector,
    check_copy,
    check_fractional,
    check_matching,
    check_rainbow,
    check_tiling,
)

K5 = complete_kgraph(5, 3)
K6 = complete_kgraph(6, 3)
K10 = complete_kgraph(10, 3)
COPY = TriangleCopy((0, 1), (2, 3), (4,))  # edges 012, 013, 234
OTHER = TriangleCopy((5, 6), (7, 8), (9,))
TILING = Tiling((COPY, OTHER), 10)
FAMILY = GraphFamily((K10,) * 6)
RAINBOW = rainbow_perfect_tiling(FAMILY)


def _without_last_slot():
    """FAMILY with the host of the last slot losing that slot's edge."""
    edge = RAINBOW.slots()[-1]
    host = RAINBOW.assignment[-1]
    hosts = list(FAMILY.hosts)
    hosts[host] = KGraph(10, 3, [e for e in K10.edges if e != edge])
    return GraphFamily(tuple(hosts))


def test_the_valid_witnesses_pass():
    assert check_copy(K5, COPY)
    assert check_tiling(K10, TILING, require_perfect=True)
    assert check_fractional(K5, FractionalTiling(5, {COPY: Fraction(1)}))
    assert check_certificate(KGraph(5, 3, []), FarkasCertificate((-1, 0, 0, 0, 0)))
    assert check_connector(K10, (1, 2, 3, 4), 0, 5)
    assert check_absorber(K10, tuple(range(5)), tuple(range(5, 10)))
    assert check_matching(K6, [(0, 1, 2), (3, 4, 5)])
    assert check_rainbow(FAMILY, RAINBOW)


REJECTS = {
    # check_copy; its test that the three edges differ cannot fail once the
    # 2k-1 vertices are distinct, so no witness reaches it
    "copy-part-sizes": lambda: check_copy(K5, TriangleCopy((0,), (1, 2), (3, 4))),
    "copy-repeated-vertex": lambda: check_copy(K5, TriangleCopy((0, 1), (1, 2), (3,))),
    "copy-out-of-range": lambda: check_copy(K5, TriangleCopy((0, 1), (2, 3), (5,))),
    "copy-negative-vertex": lambda: check_copy(K5, TriangleCopy((-1, 1), (2, 3), (4,))),
    "copy-missing-edge": lambda: check_copy(KGraph(5, 3, [(0, 1, 2), (0, 1, 3)]), COPY),
    # check_tiling
    "tiling-bad-copy": lambda: check_tiling(KGraph(10, 3, OTHER.edges), TILING),
    "tiling-overlap": lambda: check_tiling(
        K10, Tiling((COPY, TriangleCopy((4, 5), (6, 7), (8,))), 10)
    ),
    "tiling-not-perfect": lambda: check_tiling(K10, Tiling((COPY,), 10), require_perfect=True),
    # check_fractional
    "fractional-negative-weight": lambda: check_fractional(
        K5, FractionalTiling(5, {COPY: Fraction(-1)})
    ),
    "fractional-bad-copy": lambda: check_fractional(
        KGraph(5, 3, [(0, 1, 2)]), FractionalTiling(5, {COPY: Fraction(1)})
    ),
    "fractional-load-not-one": lambda: check_fractional(
        K5, FractionalTiling(5, {COPY: Fraction(1, 2)})
    ),
    "fractional-overloaded": lambda: check_fractional(
        K5,
        FractionalTiling(5, {COPY: Fraction(1), TriangleCopy((0, 1), (2, 4), (3,)): Fraction(1)}),
        require_perfect=False,
    ),
    # brute_supports
    "supports-wrong-size": lambda: brute_supports(K5, (0, 1, 2)),
    "supports-no-copy": lambda: brute_supports(KGraph(5, 3, [(0, 1, 2)]), range(5)),
    # brute_perfectly_tilable
    "tilable-wrong-size": lambda: brute_perfectly_tilable(K10, range(6)),
    "tilable-no-partition": lambda: brute_perfectly_tilable(KGraph(5, 3, [(0, 1, 2)]), range(5)),
    # check_certificate
    "certificate-wrong-length": lambda: check_certificate(K5, FarkasCertificate((-1, 0))),
    "certificate-nonnegative-total": lambda: check_certificate(
        KGraph(5, 3, []), FarkasCertificate((0, 0, 0, 0, 0))
    ),
    "certificate-violated": lambda: check_certificate(K5, FarkasCertificate((-1, 0, 0, 0, 0))),
    # check_connector
    "connector-endpoint-inside": lambda: check_connector(K10, (0, 1, 2, 3), 0, 5),
    "connector-equal-endpoints": lambda: check_connector(K10, (1, 2, 3, 4), 0, 0),
    "connector-too-large": lambda: check_connector(K10, (1, 2, 3, 4, 6), 0, 5),
    "connector-not-tilable": lambda: check_connector(KGraph(10, 3, []), (1, 2, 3, 4), 0, 5),
    # check_absorber
    "absorber-meets-target": lambda: check_absorber(K10, tuple(range(5)), (4, 5, 6, 7, 8)),
    "absorber-too-large": lambda: check_absorber(KGraph(26, 3, []), tuple(range(26)), ()),
    "absorber-not-tilable": lambda: check_absorber(KGraph(10, 3, []), tuple(range(5)), ()),
    # check_matching
    "matching-missing-edge": lambda: check_matching(KGraph(6, 3, [(0, 1, 2)]), [(3, 4, 5)]),
    "matching-overlap": lambda: check_matching(K6, [(0, 1, 2), (2, 3, 4)]),
    "matching-not-covering": lambda: check_matching(K6, [(0, 1, 2)]),
    # check_rainbow
    "rainbow-tiling-not-perfect": lambda: check_rainbow(
        FAMILY, RainbowTiling(Tiling((COPY,), 10), RAINBOW.assignment)
    ),
    "rainbow-assignment-short": lambda: check_rainbow(
        FAMILY, RainbowTiling(RAINBOW.tiling, RAINBOW.assignment[:-1])
    ),
    "rainbow-assignment-repeats": lambda: check_rainbow(
        FAMILY, RainbowTiling(RAINBOW.tiling, (0,) * len(RAINBOW.assignment))
    ),
    "rainbow-host-lacks-slot": lambda: check_rainbow(_without_last_slot(), RAINBOW),
}


@pytest.mark.parametrize("case", sorted(REJECTS))
def test_every_reject_branch_rejects(case):
    assert REJECTS[case]() is False
