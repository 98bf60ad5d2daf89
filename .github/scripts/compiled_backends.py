"""Exit 1 unless graph rows go in through the named snapshot codec, and
community detection runs the named move pass and a snapshot write and read
the named codec.

Adds a five-node graph's rows and compares ``kernels.ACTIVE_CODEC`` with the
first argument, before anything else loads the codec; then detects
communities on the graph, writes its snapshot to a temporary directory and
reads it back, and compares ``kernels.ACTIVE_BACKEND`` and
``kernels.ACTIVE_CODEC`` with it. The argument is ``c`` for the compiled
move pass and codec, ``python`` for the Python ones:

    python .github/scripts/compiled_backends.py c
"""
import sys
import tempfile
from pathlib import Path

from skillgraph import kernels
from skillgraph.community import detect_communities
from skillgraph.graph import HeteroGraph, NodeKind, Relation, read_snapshot, write_snapshot

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
if kernels.ACTIVE_CODEC != expected:
    sys.exit(f"graph rows went in through the {kernels.ACTIVE_CODEC!r} codec, "
             f"not the {NAMES[expected]} one")
detect_communities(g, seed=3)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "g.graph"
    write_snapshot(g, path)
    if read_snapshot(path).num_edges() != g.num_edges():
        sys.exit("the snapshot read back holds other edges")
if kernels.ACTIVE_BACKEND != expected:
    sys.exit(f"detection ran the {kernels.ACTIVE_BACKEND!r} move pass, not the {NAMES[expected]} one")
if kernels.ACTIVE_CODEC != expected:
    sys.exit(f"the snapshot ran the {kernels.ACTIVE_CODEC!r} codec, not the {NAMES[expected]} one")
