"""Exit 1 unless community detection runs the named move pass.

Detects communities on a five-node graph and compares
``kernels.ACTIVE_BACKEND`` with the first argument, ``c`` for the compiled
pass or ``python`` for the Python one:

    python .github/scripts/move_pass_backend.py c
"""
import sys

from skillgraph import kernels
from skillgraph.community import detect_communities
from skillgraph.graph import HeteroGraph, NodeKind, Relation

NAMES = {"c": "compiled", "python": "Python"}

if len(sys.argv) != 2 or sys.argv[1] not in NAMES:
    sys.exit(f"usage: {sys.argv[0]} {{{','.join(NAMES)}}}")
expected = sys.argv[1]
g = HeteroGraph()
for node in ("C0", "C1"):
    g.add_node(node, NodeKind.COURSE)
for node in ("S0", "S1", "S2"):
    g.add_node(node, NodeKind.SKILL)
g.add_row("C0", Relation.COVERED, {"S0": 0.5, "S1": 0.5})
g.add_row("C1", Relation.COVERED, {"S1": 0.5, "S2": 0.5})
g.add_row("S0", Relation.LINKED, {"S1": 1.0})
detect_communities(g, seed=3)
if kernels.ACTIVE_BACKEND != expected:
    sys.exit(f"detection ran the {kernels.ACTIVE_BACKEND!r} move pass, not the {NAMES[expected]} one")
