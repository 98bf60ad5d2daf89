from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from skillgraph import kernels
from skillgraph.community import (CommunityPartition, FlowGraph, FlowModel, Labels,
                                  compute_flow, detect_communities, map_equation,
                                  merge_partitions, read_labels, write_labels,
                                  write_partition)
from skillgraph.errors import CommunityError
from skillgraph.graph import (GraphIndex, HeteroGraph, NodeKind, Relation, build_career_graph,
                              build_education_graph, merge_graphs, skill_key)
from skillgraph.ingest import apply_skill_matching
from skillgraph.synth import generate_synthetic_corpus

from oracles import (edges, flow_isolated_nodes, random_domain_graphs, random_hetero_graph,
                     ref_components, ref_map_equation, ref_merge_partitions, ref_stationary,
                     set_partitions)


def linked_cycle(ids):
    g = HeteroGraph()
    for s in ids:
        g.add_node(s, NodeKind.SKILL)
    for a, b in zip(ids, ids[1:] + ids[:1]):
        g.add_edge(a, Relation.LINKED, b, 1.0)
    return g


def clique_pair_graph():
    """Two 5-cliques of skills joined by one (bidirectional) bridge edge."""
    g = HeteroGraph()
    for i in range(10):
        g.add_node(f"s{i}", NodeKind.SKILL)
    out = {}
    for grp in (range(5), range(5, 10)):
        for i in grp:
            out[i] = [j for j in grp if j != i]
    out[0].append(5)
    out[5].append(0)
    for i, targets in out.items():
        for j in targets:
            g.add_edge(f"s{i}", Relation.LINKED, f"s{j}", 1.0 / len(targets))
    return g


def disjoint_union(graphs):
    """The graphs side by side, each one's node ids prefixed by its place."""
    out = HeteroGraph()
    for i, g in enumerate(graphs):
        for node in g.node_ids():
            out.add_node(f"{i}:{node}", g._kind[node], g.node_name(node))
        for source, relation, target, weight in edges(g):
            out.add_edge(f"{i}:{source}", relation, f"{i}:{target}", weight)
    return out


def synth_graphs(out_dir, seed, jobs, courses, skills):
    """The education and career graphs of a ``synth`` corpus, alignment 0.3."""
    corpus = generate_synthetic_corpus(seed, n_jobs=jobs, n_courses=courses, n_skills=skills,
                                       alignment=0.3, out_dir=out_dir)
    matched = apply_skill_matching(corpus.courses, corpus.skills)
    return {"education": build_education_graph(matched, corpus.enrollments,
                                                catalog=corpus.skills),
            "career": build_career_graph(corpus.jobs)}


@pytest.fixture(scope="module")
def golden_graphs(tmp_path_factory):
    """Both graphs of the 1000/150/1500 corpus of ``synth --seed 5``."""
    return synth_graphs(tmp_path_factory.mktemp("golden"), 5, 1000, 150, 1500)


def disconnected_triangles():
    g = HeteroGraph()
    for i in range(6):
        g.add_node(f"s{i}", NodeKind.SKILL)
    for base in (0, 3):
        tri = [base, base + 1, base + 2]
        for i in tri:
            for j in tri:
                if i != j:
                    g.add_edge(f"s{i}", Relation.LINKED, f"s{j}", 0.5)
    return g


class TestStationaryDistribution:
    def test_two_cycle_symmetric(self):
        rates = compute_flow(linked_cycle(["a", "b"]), teleport=0.15).visit_rate
        assert rates == pytest.approx({"a": 0.5, "b": 0.5}, abs=1e-12)

    def test_single_isolated_node(self):
        g = HeteroGraph()
        g.add_node("s", NodeKind.SKILL)
        assert compute_flow(g, 0.15).visit_rate == {"s": 1.0}

    def test_directed_chain_matches_linear_solve(self):
        g = HeteroGraph()
        for s in ("a", "b", "c"):
            g.add_node(s, NodeKind.SKILL)
        g.add_edge("a", Relation.LINKED, "b", 1.0)
        g.add_edge("b", Relation.LINKED, "c", 1.0)
        rates = compute_flow(g, teleport=0.15).visit_rate
        expected = ref_stationary(g, 0.15)
        for node, p in expected.items():
            assert rates[node] == pytest.approx(p, abs=1e-9)

    def test_random_graphs_match_linear_solve(self):
        for seed in range(8):
            g, _ = random_hetero_graph(np.random.default_rng(seed))
            rates = compute_flow(g, 0.15).visit_rate
            expected = ref_stationary(g, 0.15)
            assert sum(rates.values()) == pytest.approx(1.0, abs=1e-9)
            for node, p in expected.items():
                assert rates[node] == pytest.approx(p, abs=1e-9)

    def test_nan_residual_rejected(self, monkeypatch):
        monkeypatch.setattr(kernels, "power_iterate",
                            lambda *args: (np.full(args[4], math.nan), 1, math.nan))
        with pytest.raises(CommunityError, match="did not converge"):
            compute_flow(linked_cycle(["a", "b"]), 0.15)

    def test_bad_teleport_rejected(self):
        with pytest.raises(CommunityError):
            compute_flow(linked_cycle(["a", "b"]), teleport=0.0)
        with pytest.raises(CommunityError):
            compute_flow(HeteroGraph())


    @pytest.mark.parametrize("run", [compute_flow, detect_communities])
    def test_empty_graph_rejected(self, run):
        with pytest.raises(CommunityError, match="graph is empty"):
            run(HeteroGraph())


class TestMapEquation:
    def test_single_community_is_visit_entropy(self):
        for seed in range(20):
            g, _ = random_hetero_graph(np.random.default_rng(seed))
            flow = compute_flow(g, 0.15)
            assignment = {node: 0 for node in g.node_ids()}
            entropy = -sum(p * math.log2(p) for p in flow.visit_rate.values() if p > 0)
            assert map_equation(g, flow, assignment) == pytest.approx(entropy, abs=1e-9)

    def test_two_cycle_singletons_closed_form(self):
        # teleport 0, visit (1/2, 1/2): each module exits every step, so
        # q_i = 1/2, index book costs 1 bit and each module book H(1/2,1/2)=1
        # weighted by usage q_i+p_i=1: L = 1 + 2 = 3 bits. Verified against
        # the independent entropy-form implementation.
        g = linked_cycle(["a", "b"])
        flow = FlowModel(visit_rate={"a": 0.5, "b": 0.5}, teleport=0.0)
        L = map_equation(g, flow, {"a": 0, "b": 1})
        assert L == pytest.approx(3.0, abs=1e-12)
        assert L == pytest.approx(
            ref_map_equation(g, flow.visit_rate, {"a": 0, "b": 1}, 0.0), abs=1e-12)
        assert map_equation(g, flow, {"a": 0, "b": 0}) == pytest.approx(1.0, abs=1e-12)

    def test_triangles_prefer_two_communities(self):
        g = disconnected_triangles()
        flow = compute_flow(g, 0.15)
        two = {f"s{i}": (0 if i < 3 else 1) for i in range(6)}
        one = {f"s{i}": 0 for i in range(6)}
        assert map_equation(g, flow, two) < map_equation(g, flow, one)

    def test_matches_reference_on_random_partitions(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g, labels = random_hetero_graph(rng)
            flow = compute_flow(g, 0.15)
            expected = ref_map_equation(g, flow.visit_rate, labels, 0.15)
            assert map_equation(g, flow, labels) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("rates", [{"a": math.nan, "b": math.nan},
                                       {"a": 1.5, "b": -0.5},
                                       {"a": math.inf, "b": 0.0}])
    def test_non_finite_or_negative_visit_rates_rejected(self, rates):
        g = linked_cycle(["a", "b"])
        with pytest.raises(CommunityError, match="finite and non-negative"):
            map_equation(g, FlowModel(visit_rate=rates, teleport=0.15), {"a": 0, "b": 1})

    def test_missing_node_rejected(self):
        g = linked_cycle(["a", "b"])
        flow = compute_flow(g, 0.15)
        with pytest.raises(CommunityError, match="misses"):
            map_equation(g, flow, {"a": 0})

    def test_flow_of_another_node_set_rejected(self):
        g = linked_cycle(["a", "b"])
        flow = FlowModel(visit_rate={"a": 0.5, "c": 0.5}, teleport=0.15)
        with pytest.raises(CommunityError, match="disagree on the node set"):
            map_equation(g, flow, {"a": 0, "b": 1})

    def test_visit_rates_not_summing_to_one_rejected(self):
        g = linked_cycle(["a", "b"])
        flow = FlowModel(visit_rate={"a": 0.25, "b": 0.5}, teleport=0.15)
        with pytest.raises(CommunityError, match="visit rates sum to 0.75, not 1"):
            map_equation(g, flow, {"a": 0, "b": 1})


def edge_flows(g, fg, teleport=0.15):
    """``(src, dst, flow)`` of each edge between distinct nodes of ``g``, in
    ``(src, dst)`` order, from the walk matrix and ``fg``'s visit rates."""
    src, dst, wgt, _dangling = GraphIndex(g).walk
    flow = (1.0 - teleport) * fg.visit[src] * wgt
    return [(s, d, f) for s, d, f in zip(src.tolist(), dst.tolist(), flow.tolist())
            if s != d and f > 0.0]


def loop_module_state(fg, flows, labels, k):
    """Per-module sums by a plain loop over the units and the edges."""
    visit, tele, size, cross = ([0.0] * k for _ in range(4))
    for u in range(fg.n_units):
        visit[labels[u]] += fg.visit[u]
        tele[labels[u]] += fg.tele[u]
        size[labels[u]] += fg.size[u]
    for src, dst, flow in flows:
        if labels[src] != labels[dst]:
            cross[labels[src]] += flow
    exit_rate = [tele[m] * (fg.n_orig - size[m]) / fg.n_orig + cross[m] for m in range(k)]
    return visit, tele, size, cross, exit_rate


class TestModuleState:
    def test_matches_loop_with_unused_label_ids(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g, _ = random_hetero_graph(rng)
            fg = FlowGraph.from_graph(g, 0.15)
            # more ids than units, so some ids carry no unit
            k = fg.n_units + int(rng.integers(1, 4))
            labels = rng.integers(0, k, size=fg.n_units).astype(np.int64)
            state = fg.module_state(labels, k)
            expected = loop_module_state(fg, edge_flows(g, fg), labels, k)
            assert len(state) == 5
            for got, want in zip(state, expected):
                assert got.shape == (k,)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            unused = np.setdiff1d(np.arange(k), labels)
            assert unused.size > 0
            for got in state:
                assert not got[unused].any()

    def test_singleton_state_is_fresh(self):
        g, _ = random_hetero_graph(np.random.default_rng(3))
        fg = FlowGraph.from_graph(g, 0.15)
        visit, tele, size, _cross, _exit = fg.module_state(
            np.arange(fg.n_units, dtype=np.int64), fg.n_units)
        np.testing.assert_array_equal(visit, fg.visit)
        np.testing.assert_array_equal(tele, fg.tele)
        np.testing.assert_array_equal(size, fg.size)
        for got, owned in ((visit, fg.visit), (tele, fg.tele), (size, fg.size)):
            assert not np.shares_memory(got, owned)

    def test_aggregated_cost_equals_labelled_cost(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g, _ = random_hetero_graph(rng)
            fg = FlowGraph.from_graph(g, 0.15)
            raw = rng.integers(0, int(rng.integers(1, fg.n_units + 1)), size=fg.n_units)
            _, dense = np.unique(raw, return_inverse=True)
            dense = dense.astype(np.int64)
            k = int(dense.max()) + 1
            agg = fg.aggregate(dense, k)
            assert agg.n_units == k
            assert agg.partition_cost(np.arange(k, dtype=np.int64)) == pytest.approx(
                fg.partition_cost(dense), abs=1e-12)


def loop_neighbours(n_units, flows):
    out = [dict() for _ in range(n_units)]
    inflow = [dict() for _ in range(n_units)]
    for s, d, f in flows:
        if s != d:
            out[s][d] = out[s].get(d, 0.0) + f
            out[d].setdefault(s, 0.0)
            inflow[d][s] = inflow[d].get(s, 0.0) + f
            inflow[s].setdefault(d, 0.0)
    return out, inflow


class TestNeighbourList:
    def test_matches_per_edge_loop(self):
        intra = two_way = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            g, _ = random_hetero_graph(rng)
            fg = FlowGraph.from_graph(g, 0.15)
            raw = rng.integers(0, max(1, fg.n_units // 3), size=fg.n_units)
            _, dense = np.unique(raw, return_inverse=True)
            # one aggregated level: flow inside a module is dropped, and
            # parallel edges between two modules add up
            agg = fg.aggregate(dense.astype(np.int64), int(dense.max()) + 1)
            flows = edge_flows(g, fg)
            module = dense.tolist()
            agg_flows = [(module[s], module[d], f) for s, d, f in flows]
            intra += sum(s == d for s, d, _f in agg_flows)
            two_way += int(((agg.nbr[2] > 0.0) & (agg.nbr[3] > 0.0)).sum())
            for level, level_flows in ((fg, flows), (agg, agg_flows)):
                ptr, idx, out, inflow = level.nbr
                want_out, want_in = loop_neighbours(level.n_units, level_flows)
                assert ptr[0] == 0 and ptr[-1] == idx.size
                for u in range(level.n_units):
                    row = idx[ptr[u]:ptr[u + 1]].tolist()
                    assert row == sorted(want_out[u])
                    assert u not in row
                    assert out[ptr[u]:ptr[u + 1]].tolist() == [want_out[u][v] for v in row]
                    assert inflow[ptr[u]:ptr[u + 1]].tolist() == [want_in[u][v] for v in row]
        assert intra > 0 and two_way > 0


class TestDetectCommunities:
    def test_clique_pair_splits_at_bridge(self):
        part = detect_communities(clique_pair_graph(), seed=0, teleport=0.15)
        assert part.num_communities == 2
        groups = {}
        for node, comm in part.assignment.items():
            groups.setdefault(comm, set()).add(node)
        assert sorted(groups.values(), key=len) == [
            {f"s{i}" for i in range(5)}, {f"s{i}" for i in range(5, 10)}] or \
            sorted(groups.values(), key=sorted) == [
            {f"s{i}" for i in range(5)}, {f"s{i}" for i in range(5, 10)}]

    def test_clique_pair_hits_exhaustive_optimum(self):
        g = clique_pair_graph()
        part = detect_communities(g, seed=0, teleport=0.15)
        fg = FlowGraph.from_graph(g, 0.15)
        labels = np.zeros(10, dtype=np.int64)
        best = np.inf
        for rgs in set_partitions(10):
            labels[:] = rgs
            best = min(best, fg.partition_cost(labels))
        assert part.description_length == pytest.approx(best, abs=1e-9)

    def test_flow_free_graph_stays_singletons(self):
        g = HeteroGraph()
        for i in range(5):
            g.add_node(f"s{i}", NodeKind.SKILL)
        part = detect_communities(g, seed=3, teleport=0.15)
        assert part.num_communities == 5
        assert part.assignment == {f"s{i}": i for i in range(5)}

    def test_single_node_zero_bits(self):
        g = HeteroGraph()
        g.add_node("s", NodeKind.SKILL)
        part = detect_communities(g, seed=0)
        assert part.num_communities == 1
        assert part.description_length == pytest.approx(0.0, abs=1e-12)

    def test_bad_teleport_rejected(self):
        # power iteration needs 0 < teleport < 1, as in compute_flow
        for teleport in (0.0, 1.0, -0.1):
            with pytest.raises(CommunityError, match="outside"):
                detect_communities(clique_pair_graph(), seed=0, teleport=teleport)

    def test_negative_seed_rejected(self):
        with pytest.raises(CommunityError, match="seed -1 must be >= 0"):
            detect_communities(clique_pair_graph(), seed=-1)

    def test_never_worse_than_trivial_partitions(self):
        # the all-in-one bound needs every node to carry sparse flow:
        # edge-free nodes have no neighboring community to move into, so
        # they stay singletons by the canonical tie-break even when the
        # teleport-recorded cost would prefer the merge
        for seed in range(8):
            g, _ = random_hetero_graph(np.random.default_rng(seed))
            part = detect_communities(g, seed=1, teleport=0.15)
            flow = compute_flow(g, 0.15)
            singles = map_equation(g, flow, {n: i for i, n in enumerate(g.node_ids())})
            assert part.description_length <= singles + 1e-9
            if not flow_isolated_nodes(g):
                all_one = map_equation(g, flow, {n: 0 for n in g.node_ids()})
                assert part.description_length <= all_one + 1e-9

    def test_connected_graph_never_worse_than_one_module(self, tmp_path):
        # moves can always reach the graph's connected components (one module
        # when it is connected), so detection takes them whenever they code
        # shorter, whatever the move order: on a connected random graph, on
        # random graphs of two to four disjoint parts, and on both sides of
        # the 400/60/600 corpus of ``synth --seed 1``, whose career side
        # stalls above its components without that last check
        g, _ = random_hetero_graph(np.random.default_rng(0))
        flow = compute_flow(g, 0.15)
        assert not flow_isolated_nodes(g)
        assert set(ref_components(g).values()) == {0}
        all_one = map_equation(g, flow, {n: 0 for n in g.node_ids()})
        for seed in range(40):
            part = detect_communities(g, seed=seed, teleport=0.15)
            assert part.description_length <= all_one + 1e-9
        cases = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            parts = int(rng.integers(2, 5))
            cases.append((disjoint_union([random_hetero_graph(rng)[0] for _ in range(parts)]),
                          seed))
        cases += [(g, 3) for g in synth_graphs(tmp_path, 1, 400, 60, 600).values()]
        split = 0
        for g, seed in cases:
            components = ref_components(g)
            split += len(set(components.values())) > 1
            bound = map_equation(g, compute_flow(g, 0.15), components)
            part = detect_communities(g, seed=seed, teleport=0.15)
            assert part.description_length <= bound + 1e-9, seed
        assert split == len(cases)

    def test_small_graphs_hit_exhaustive_optimum(self):
        checked = 0
        for seed in range(300):
            if checked >= 5:
                break
            g, _ = random_hetero_graph(np.random.default_rng(seed))
            n = g.num_nodes()
            if n > 8 or flow_isolated_nodes(g):
                continue
            checked += 1
            fg = FlowGraph.from_graph(g, 0.15)
            labels = np.zeros(n, dtype=np.int64)
            best = np.inf
            for rgs in set_partitions(n):
                labels[:] = rgs
                best = min(best, fg.partition_cost(labels))
            part = detect_communities(g, seed=0, teleport=0.15)
            assert part.description_length == pytest.approx(best, abs=1e-9)
        assert checked == 5

    def test_seeded_determinism(self):
        g = clique_pair_graph()
        a = detect_communities(g, seed=42)
        b = detect_communities(g, seed=42)
        assert a.assignment == b.assignment
        assert a.description_length == b.description_length

    def test_insertion_order_irrelevant(self):
        # same graph assembled in reversed order: identical labels and L
        g = clique_pair_graph()
        shuffled = HeteroGraph()
        for node in reversed(g.node_ids()):
            shuffled.add_node(node, g._kind[node], g.node_name(node))
        for edge in reversed(edges(g)):
            shuffled.add_edge(*edge)
        a = detect_communities(g, seed=7)
        b = detect_communities(shuffled, seed=7)
        assert a.assignment == b.assignment
        assert a.description_length == b.description_length

    def test_golden_synth_partitions(self, golden_graphs):
        # pinned output of both graphs of one seeded corpus; the career side
        # takes its ten connected components, which code shorter than the
        # partition its moves reach
        expected = {
            "education": ("10.087784647393462", 12,
                          "90984ab7391c8acda3c9076a115a6935c4954f9284a71a54417af53f08448eb9"),
            "career": ("11.704369028513222", 10,
                       "ba3f83160151493164f88ee519f703c50b2bb14f84c89b6080c51a8233b38870"),
        }
        for name, g in golden_graphs.items():
            part = detect_communities(g, seed=1)
            rows = "".join(f"{node},{c}\n" for node, c in sorted(part.assignment.items()))
            digest = hashlib.sha256(rows.encode()).hexdigest()
            assert (repr(part.description_length), part.num_communities, digest) == expected[name]

    @pytest.mark.parametrize("move_pass", ["python", "active"])
    def test_golden_synth_move_pass(self, golden_graphs, move_pass):
        # the first level's move pass on the career graph, as detection runs
        # it with seed 1: 2,066 moves from 2,430 singletons, each gain to the
        # last bit and each tie-break, pinned for the Python pass and for the
        # pass the kernel runs (the compiled one where it builds)
        fg = FlowGraph.from_graph(golden_graphs["career"], 0.15)
        order = np.random.default_rng(1).permutation(fg.n_units).astype(np.int64)
        labels = np.arange(fg.n_units, dtype=np.int64)
        run = kernels._python_move_pass if move_pass == "python" else kernels.local_move_pass
        moves, delta = run(order, labels, fg.visit, fg.tele, fg.size, fg.nbr,
                           fg.module_state(labels, fg.n_units), float(fg.n_orig), 1e-10)
        digest = hashlib.sha256(",".join(map(str, labels.tolist())).encode()).hexdigest()
        assert (moves, repr(delta), digest) == (
            2066, "-1.1855949945211752",
            "2ad09c04f7234ccd32306624ec0642b26b96136419c51142486e21f16ff0ec6a")

    @pytest.mark.parametrize("corpus_seed", [7, 8])
    def test_m_size_career_recovers_planted_topics(self, tmp_path, corpus_seed):
        # at 2000/300/800 the career graph's ten planted topics are found
        # whole: ten modules, coding exactly as the planted partition does
        corpus = generate_synthetic_corpus(corpus_seed, n_jobs=2000, n_courses=300,
                                           n_skills=800, alignment=0.3, out_dir=tmp_path)
        g = build_career_graph(corpus.jobs)
        planted: dict[str, int] = {}
        for job in corpus.jobs:
            planted[job.id] = corpus.job_topic[job.id]
            for skill in job.skills:
                planted[skill] = corpus.job_topic[job.id]
        planted_l = map_equation(g, compute_flow(g, 0.15), planted)
        part = detect_communities(g, seed=3)
        assert part.num_communities == 10
        assert part.description_length == pytest.approx(planted_l, abs=1e-9)

    def test_recomputed_length_matches_tracked(self):
        # detect_communities raises if incremental and from-scratch L drift
        for seed in range(5):
            g, _ = random_hetero_graph(np.random.default_rng(seed + 100))
            part = detect_communities(g, seed=seed)
            flow = compute_flow(g, 0.15)
            assert map_equation(g, flow, part.assignment) == pytest.approx(
                part.description_length, abs=1e-6)


def _mini_partition(assignment):
    k = len(set(assignment.values()))
    return CommunityPartition(assignment=assignment, description_length=0.0,
                              num_communities=k)


def _skill_graph(names):
    g = HeteroGraph()
    for n in names:
        g.add_node(n, NodeKind.SKILL)
    return g


class TestMergePartitions:
    def test_single_candidate_merges(self):
        edu = _skill_graph(["sql", "python"])
        car = _skill_graph(["sql", "java"])
        labels = merge_partitions(
            _mini_partition({"sql": 0, "python": 0}), edu,
            _mini_partition({"sql": 0, "java": 0}), car)
        assert labels["sql"] == labels["python"] == labels["java"] == 0

    def test_equal_overlap_prefers_lower_career_index(self):
        edu = _skill_graph(["a", "b", "c"])
        car = _skill_graph(["a", "b", "c", "x", "y", "z"])
        edu_part = _mini_partition({"a": 0, "b": 0, "c": 0})
        # career communities 0 and 1 overlap e0 equally (via {a,b,c} split)
        car_part = _mini_partition({"a": 0, "x": 0, "y": 0, "b": 1, "c": 1, "z": 1})
        labels = merge_partitions(edu_part, edu, car_part, car)
        # overlap(e0,c0)=1, overlap(e0,c1)=2 -> e0 pairs with c1
        assert labels["a"] == labels["b"]  # edu nodes carry e0's merged label
        assert labels["z"] == labels["a"]  # c1 merged into e0
        assert labels["x"] != labels["a"]  # c0 standalone

    def test_tie_breaks_to_lower_index(self):
        edu = _skill_graph(["a", "b"])
        car = _skill_graph(["a", "b"])
        edu_part = _mini_partition({"a": 0, "b": 0})
        car_part = _mini_partition({"a": 0, "b": 1})
        # overlap(e0,c0)=1 and overlap(e0,c1)=1: tie -> c0 wins
        labels = merge_partitions(edu_part, edu, car_part, car)
        assert labels["a"] == 0 and labels["b"] == 0
        # career community c1 unmerged: its only skill 'b' already carries
        # the education label, but a career-only node would keep c1's label
        car2 = _skill_graph(["a", "b", "only career"])
        car_part2 = _mini_partition({"a": 0, "b": 1, "only career": 1})
        labels2 = merge_partitions(edu_part, edu, car_part2, car2)
        assert labels2["only_career"] != labels2["a"]

    def test_zero_overlap_stays_standalone(self):
        edu = _skill_graph(["a"])
        car = _skill_graph(["b"])
        labels = merge_partitions(_mini_partition({"a": 0}), edu,
                                  _mini_partition({"b": 0}), car)
        assert labels["a"] != labels["b"]

    def test_each_community_merges_at_most_once(self):
        # e0 overlaps c0 (2) and c1 (1); e1 overlaps c0 (1): greedy pairs
        # (e0,c0) first, then e1 must fall back to c1? no -- e1 only
        # overlaps c0, which is taken, so e1 stays standalone
        edu = _skill_graph(["a", "b", "c", "d"])
        car = _skill_graph(["a", "b", "c", "x"])
        edu_part = _mini_partition({"a": 0, "b": 0, "c": 1, "d": 1})
        car_part = _mini_partition({"a": 0, "b": 0, "c": 0, "x": 1})
        labels = merge_partitions(edu_part, edu, car_part, car)
        # e0={a,b} pairs with c0={a,b,c}; e1={c,d} overlaps only c0 -> standalone
        assert labels["a"] == labels["b"]
        assert labels["c"] == labels["d"]
        assert labels["c"] != labels["a"]
        assert labels["x"] not in (labels["a"], labels["c"])

    def test_matches_pairwise_reference_when_a_key_splits(self):
        # one key names several career skills ("SQL", "sql"), which random
        # labels often put in different career communities
        rng = np.random.default_rng(23)
        split = 0
        for trial in range(300):
            edu, car = random_domain_graphs(rng, aggregate_by_title=bool(trial % 2))
            parts = []
            for g in (edu, car):
                k = int(rng.integers(1, 5))
                parts.append(CommunityPartition(
                    {n: int(rng.integers(0, k)) for n in g.node_ids()}, 0.0, k))
            edu_part, car_part = parts
            assert merge_partitions(edu_part, edu, car_part, car) == \
                ref_merge_partitions(edu_part, edu, car_part, car)
            by_key: dict[str, set[int]] = {}
            for sid in car.node_ids(NodeKind.SKILL):
                by_key.setdefault(skill_key(car.node_name(sid)), set()).add(
                    car_part.assignment[sid])
            split += any(len(communities) > 1 for communities in by_key.values())
        assert split

    def test_labels_cover_merged_graph_nodes(self, tmp_path):
        for seed in range(3):
            corpus = generate_synthetic_corpus(seed, n_jobs=40, n_courses=12, n_skills=24,
                                               alignment=0.3, out_dir=tmp_path / f"c{seed}")
            courses = apply_skill_matching(corpus.courses, corpus.skills)
            edu = build_education_graph(courses, corpus.enrollments, catalog=corpus.skills)
            edu_part = detect_communities(edu, seed=1)
            for aggregate_by_title in (False, True):
                car = build_career_graph(corpus.jobs, aggregate_by_title=aggregate_by_title)
                labels = merge_partitions(edu_part, edu, detect_communities(car, seed=1), car)
                assert set(labels) == set(merge_graphs(edu, car).node_ids())

    def test_courses_and_jobs_inherit_labels(self):
        edu = _skill_graph(["sql"])
        edu.add_node("C1", NodeKind.COURSE)
        edu.add_edge("C1", Relation.COVERED, "sql", 1.0)
        car = _skill_graph(["sql"])
        car.add_node("J1", NodeKind.JOB)
        car.add_edge("J1", Relation.REQUIRED, "sql", 1.0)
        labels = merge_partitions(_mini_partition({"sql": 0, "C1": 0}), edu,
                                  _mini_partition({"sql": 0, "J1": 0}), car)
        assert labels["C1"] == labels["J1"] == labels["sql"]


def test_partition_and_label_files(tmp_path):
    part = CommunityPartition(assignment={"b": 1, "a": 0}, description_length=1.25,
                              num_communities=2)
    csv_path = tmp_path / "p.csv"
    summary_path = tmp_path / "p.summary"
    write_partition(csv_path, summary_path, part, seed=7)
    assert csv_path.read_text() == "node_id,community\na,0\nb,1\n"
    assert summary_path.read_text() == "L=1.25 k=2 seed=7\n"
    assert read_labels(csv_path) == {"a": 0, "b": 1}
    write_labels(tmp_path / "l.csv", {"x": 3})
    assert read_labels(tmp_path / "l.csv") == {"x": 3}


def test_read_labels_are_read_only(tmp_path):
    path = tmp_path / "l.csv"
    write_labels(path, {"a": 0, "b": -1})
    labels = read_labels(path)
    assert isinstance(labels, Labels) and dict(labels) == {"a": 0, "b": -1}
    with pytest.raises(TypeError):
        labels["a"] = 1  # type: ignore[index]
    with pytest.raises(TypeError):
        del labels["a"]  # type: ignore[attr-defined]
    source = {"x": 3}
    copied = Labels(source)
    source["x"] = 4
    assert copied["x"] == 3 and copied.get("y") is None and "y" not in copied


def test_repeated_label_rejected(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("node_id,community\na,0\nb,1\na,1\n")
    with pytest.raises(CommunityError, match=r"l\.csv: row 3: node 'a' is labelled twice"):
        read_labels(path)


def test_non_integer_label_rejected(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("node_id,community\na,0\nb,two\n")
    with pytest.raises(CommunityError, match=r"l\.csv: row 2: community 'two' is not an integer"):
        read_labels(path)


@pytest.mark.parametrize("rows, row, message", [
    # a node that passed on row 1 is labelled again on row 4, a community
    # text parsed on a good row coming back with it
    (["n1,0", "n2,0", "n3,1", "n1,0", "n5,x"], 4, "node 'n1' is labelled twice"),
    (["n1,0", "n2,x", "n3,0", "n1,x"], 2, "community 'x' is not an integer"),
    (["n1,0", "n2,1", "n3", "n2,x"], 3, "expected 2 fields, got 1"),
])
def test_first_of_two_label_faults_is_reported(tmp_path, rows, row, message):
    path = tmp_path / "l.csv"
    path.write_text("node_id,community\n" + "".join(f"{r}\n" for r in rows))
    with pytest.raises(CommunityError) as err:
        read_labels(path)
    assert str(err.value) == f"{path}: row {row}: {message}"


def test_undecodable_labels_rejected(tmp_path):
    path = tmp_path / "l.csv"
    path.write_bytes(b"node_id,community\ncaf\xff,0\n")
    with pytest.raises(CommunityError, match=r"l\.csv: not UTF-8 text"):
        read_labels(path)
