"""Exit 1 unless graph rows go in, community detection runs, a snapshot is
written and read, and a query scatters and cuts its list through the named
library.

Adds a six-node graph's rows and compares ``kernels.ACTIVE_BACKEND`` with
the first argument, before anything else loads the compiled extension; then
detects communities on the graph, writes its snapshot to a temporary
directory and reads it back, and compares it again. On the compiled library
every ``move_pass`` call of the detection must answer (a move count and cost
change) rather than hand its level back to the Python pass, the read's
``scan`` must take the snapshot (rather than return None), and each
``add_rows`` call of the read must install up to the end of its rows rather
than stop at one for the Python check. Last it runs one
``recommend`` on the graph: its entries must be the same on either library,
``kernels.ACTIVE_BACKEND`` must still name it, and on the compiled one a
counting wrapper on the extension's ``scatter`` and ``top`` must see calls
that answered (a vector, or a pair of lists) rather than handed the input
back to the NumPy line.
The argument is ``c`` for the compiled extension, ``python`` for the Python
paths:

    python .github/scripts/compiled_backends.py c
"""
import sys
import tempfile
from collections import Counter
from pathlib import Path

from skillgraph import kernels
from skillgraph.community import detect_communities
from skillgraph.graph import HeteroGraph, NodeKind, Relation, read_snapshot, write_snapshot
from skillgraph.ranker import ScenarioInput, recommend

NAMES = {"c": "compiled", "python": "Python"}

if len(sys.argv) != 2 or sys.argv[1] not in NAMES:
    sys.exit(f"usage: {sys.argv[0]} {{{','.join(NAMES)}}}")
expected = sys.argv[1]
g = HeteroGraph()
for node in ("C0", "C1"):
    g.add_node(node, NodeKind.COURSE)
for node in ("S0", "S1", "S2"):
    g.add_node(node, NodeKind.SKILL)
g.add_node("J0", NodeKind.JOB, "data engineer")
g.add_row("J0", Relation.REQUIRED, {"S0": 1.0})
g.add_row("C0", Relation.COVERED, {"S0": 0.5, "S1": 0.5})
g.add_row("C1", Relation.COVERED, {"S1": 0.5, "S2": 0.5})
g.add_row("S0", Relation.LINKED, {"S1": 1.0})


def check(what):
    if kernels.ACTIVE_BACKEND != expected:
        sys.exit(f"{what} ran on the {kernels.ACTIVE_BACKEND!r} library, "
                 f"not the {NAMES[expected]} one")


check("the graph rows")
codec = kernels.snapshot_codec()
calls = Counter()


def count_answers(name, answered=lambda args, answer: answer is not None):
    """Wrap the extension's ``name`` to count its calls and those that answered."""
    call = getattr(codec, name)

    def counting(*args):
        answer = call(*args)
        calls[name] += 1
        calls[f"{name} answered"] += answered(args, answer)
        return answer
    setattr(codec, name, counting)


if codec is not None:
    count_answers("move_pass")
detect_communities(g, seed=3)
if expected == "c" and not 0 < calls["move_pass answered"] == calls["move_pass"]:
    sys.exit(f"the compiled move_pass answered {calls['move_pass answered']} of the "
             f"detection's {calls['move_pass']} calls")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "g.graph"
    write_snapshot(g, path)
    if codec is not None:
        count_answers("scan")
        # the rows are the call's sixth argument; it stops at their end
        count_answers("add_rows", lambda args, answer: answer[1] == len(args[5]))
    if read_snapshot(path).num_edges() != g.num_edges():
        sys.exit("the snapshot read back holds other edges")
check("detection and the snapshot")
if expected == "c" and not (calls["scan answered"] == calls["scan"] == 1
                            and 0 < calls["add_rows answered"] == calls["add_rows"]):
    sys.exit(f"the compiled scan took {calls['scan answered']} of the read's {calls['scan']} "
             f"files, and add_rows ended {calls['add_rows answered']} of its "
             f"{calls['add_rows']} calls at the last row")

for name in ("scatter", "top") if codec is not None else ():
    count_answers(name)
one_community = dict.fromkeys(g.node_ids(), 0)
ranked = recommend(g, one_community, ScenarioInput(1, career_goal="data engineer"))
if ranked.entries != (("C0", 0.5), ("C1", 0.5)):
    sys.exit(f"recommend on the {NAMES[expected]} library ranked {ranked.entries}")
check("recommend")
if expected == "c" and not (calls["scatter answered"] and calls["top answered"]):
    sys.exit(f"the compiled scatter answered {calls['scatter answered']} and top "
             f"{calls['top answered']} of recommend's calls")
