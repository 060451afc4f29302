"""The constructive pipeline for near-extremal hosts, stage by stage.

Given a sparse witness set, the pipeline classifies its (k-1)-sets as good
or bad, isolates the poorly attached vertices X, covers them through a
matching and one copy each, builds the auxiliary (2k-1)-graph on the residue,
checks its density thresholds, and finishes with a perfect matching there,
which the matching's LP relaxation can rule out before any search.  Without
a given witness, the first sparse set is found by a pruned search.  Any
stage may fail honestly on small hosts; the report says which one.
"""

import itertools
from fractions import Fraction

from tritile import KGraph, complete_kgraph, extremal_construction, extremal_pipeline


def show(label, result):
    print(f"== {label}")
    for s in result.stages:
        print(f"   {s.stage:<12} {s.status:<7} {s.detail}")
    if result.succeeded:
        print(f"   -> perfect tiling with {len(result.tiling.copies)} copies")
    print()


show("complete host on 15 vertices (gamma = 1, vacuous witness)",
     extremal_pipeline(complete_kgraph(15, 3), Fraction(1)))

show("tight instance (3, 15): must fail, no perfect tiling exists",
     extremal_pipeline(extremal_construction(3, 15).graph, Fraction(0)))

ext30 = extremal_construction(3, 30).graph
show("tight instance (3, 30), gamma = 0: the witness search finds B's first 18",
     extremal_pipeline(ext30, Fraction(0)))
show("tight instance (3, 30), gamma = 1: J's matching LP gives a Farkas certificate",
     extremal_pipeline(ext30, Fraction(1)))


def crafted(k, n):
    """The tight instance plus every k-set of its B side."""
    inst = extremal_construction(k, n)
    return KGraph(n, k, set(inst.graph.edges) | set(itertools.combinations(inst.B, k)))


show("tight instance plus a complete B side: tiling restored",
     extremal_pipeline(crafted(3, 15), Fraction(1)))

show("the same for k=4 on 21 vertices: J read off the host's set index",
     extremal_pipeline(crafted(4, 21), Fraction(1)))
