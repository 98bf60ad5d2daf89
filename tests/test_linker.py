from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillgraph.errors import GraphError
from skillgraph.graph import HeteroGraph, NodeKind, Relation
from skillgraph import linker
from skillgraph.ingest import tokenize
from skillgraph.linker import (Bm25Params, CorpusStats, SkillDocument, bm25, link_skills,
                               write_link_dump)

from oracles import edges, out_edges, ref_link_skills


def doc(skill, text):
    return SkillDocument(skill, tuple(text.split()))


class TestBm25:
    def test_two_identical_one_token_docs(self):
        # N=2, df=2, avgdl=1: idf=ln(1.2), tf term = 2.2/2.2 = 1
        docs = [doc("s1", "sql"), doc("s2", "sql")]
        stats = CorpusStats.from_documents(docs)
        score = bm25(("sql",), docs[0], stats)
        assert score == pytest.approx(math.log(1.2), abs=1e-12)
        assert score == pytest.approx(0.1823215567939546, abs=1e-9)

    def test_disjoint_query_scores_zero(self):
        docs = [doc("s1", "sql server")]
        stats = CorpusStats.from_documents(docs)
        assert bm25(("python",), docs[0], stats) == 0.0

    def test_self_corpus_positive(self):
        d = doc("s1", "machine learning")
        stats = CorpusStats.from_documents([d])
        score = bm25(d.tokens, d, stats)
        assert score > 0.0
        # idf = ln(1 + 0.5/1.5) per token; doc length equals avgdl so the
        # tf factor is (1*2.2)/(1+1.2) = 1
        assert score == pytest.approx(2 * math.log(4 / 3), abs=1e-12)

    def test_never_negative_even_for_common_terms(self):
        docs = [doc(f"s{i}", "sql") for i in range(50)]
        stats = CorpusStats.from_documents(docs)
        assert bm25(("sql",), docs[0], stats) > 0.0

    def test_token_outside_the_corpus_takes_the_idf_of_df_zero(self):
        # a document scored against another corpus's statistics: N=1, avgdl=1
        stats = CorpusStats.from_documents([doc("s1", "sql")])
        score = bm25(("python",), doc("s2", "python"), stats)
        assert score == pytest.approx(math.log(1.0 + 1.5 / 0.5), abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(GraphError):
            Bm25Params(k1=-1.0)
        with pytest.raises(GraphError):
            Bm25Params(b=1.5)
        with pytest.raises(GraphError):
            SkillDocument("s", ())

    @pytest.mark.parametrize("k1", [math.nan, math.inf])
    def test_non_finite_k1_rejected(self, k1):
        with pytest.raises(GraphError, match="finite"):
            Bm25Params(k1=k1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["sql", "python", "data", "etl"]), min_size=1, max_size=5),
           st.sampled_from(["spark", "hadoop", "graphs"]))
    def test_extra_query_token_never_decreases_score(self, query, extra):
        docs = [doc("s1", "sql data pipelines"), doc("s2", "python etl data")]
        stats = CorpusStats.from_documents(docs)
        for d in docs:
            base = bm25(tuple(query), d, stats)
            assert bm25(tuple(query) + (extra,), d, stats) >= base - 1e-15


def skill_graph(names, labels):
    g = HeteroGraph()
    for n in names:
        g.add_node(n, NodeKind.SKILL)
    return g, {n: labels[i] for i, n in enumerate(names)}


class TestLinkSkills:
    def test_pair_community_gets_unit_weights(self):
        g, labels = skill_graph(["data mining", "data analysis"], [0, 0])
        linked, records = link_skills(g, labels)
        assert out_edges(linked, "data mining", Relation.LINKED) == [("data analysis", 1.0)]
        assert out_edges(linked, "data analysis", Relation.LINKED) == [("data mining", 1.0)]
        assert len(records) == 2

    def test_identical_names_across_communities_never_link(self):
        g = HeteroGraph()
        g.add_node("s1", NodeKind.SKILL, name="sql basics")
        g.add_node("s2", NodeKind.SKILL, name="sql basics")
        linked, records = link_skills(g, {"s1": 0, "s2": 1})
        assert records == []
        assert out_edges(linked, "s1", Relation.LINKED) == []

    def test_weights_proportional_to_raw_scores(self):
        g, labels = skill_graph(["data mining", "data warehousing", "stream mining"], [0, 0, 0])
        linked, records = link_skills(g, labels)
        for source in labels:
            row = out_edges(linked, source, Relation.LINKED)
            raws = {r.target: r.raw_score for r in records if r.source == source}
            total = sum(raws.values())
            for target, weight in row:
                assert weight == pytest.approx(raws[target] / total, abs=1e-12)
            assert sum(w for _t, w in row) == pytest.approx(1.0, abs=1e-9)

    def test_top_k_limits_out_degree(self):
        names = [f"data skill{i}" for i in range(8)]
        g, labels = skill_graph(names, [0] * 8)
        linked, _records = link_skills(g, labels, top_k=3)
        for n in names:
            assert len(out_edges(linked, n, Relation.LINKED)) <= 3

    def test_no_self_links(self):
        g, labels = skill_graph(["sql", "sql server"], [0, 0])
        linked, _ = link_skills(g, labels)
        for n in labels:
            assert all(t != n for t, _w in out_edges(linked, n, Relation.LINKED))

    def test_linking_a_linked_graph_names_the_repeated_edge(self):
        g, labels = skill_graph(["data mining", "data analysis"], [0, 0])
        linked, _records = link_skills(g, labels)
        with pytest.raises(GraphError) as err:
            link_skills(linked, labels)
        assert str(err.value) == "duplicate edge data analysis-l->data mining"

    def test_missing_label_rejected(self):
        g, _ = skill_graph(["sql"], [0])
        with pytest.raises(GraphError, match="no community label"):
            link_skills(g, {})

    def test_top_k_below_one_rejected(self):
        g, labels = skill_graph(["data mining", "data analysis"], [0, 0])
        with pytest.raises(GraphError, match="top_k must be >= 1, got 0"):
            link_skills(g, labels, top_k=0)

    def test_underscore_key_names_tokenize(self):
        # snapshot-loaded merged graphs name skills by identity key
        g = HeteroGraph()
        g.add_node("data_mining", NodeKind.SKILL)
        g.add_node("data_update", NodeKind.SKILL)
        linked, records = link_skills(g, {"data_mining": 0, "data_update": 0})
        assert len(records) == 2
        assert out_edges(linked, "data_mining", Relation.LINKED) == [("data_update", 1.0)]

    def test_all_links_within_community(self):
        names = [f"skill number{i}" for i in range(9)]
        g, labels = skill_graph(names, [i % 3 for i in range(9)])
        linked, records = link_skills(g, labels)
        for rec in records:
            assert labels[rec.source] == labels[rec.target]

    def test_dump_format(self, tmp_path):
        g, labels = skill_graph(["data mining", "data analysis"], [0, 0])
        _linked, records = link_skills(g, labels)
        p = tmp_path / "links.csv"
        write_link_dump(p, records)
        lines = p.read_text().splitlines()
        assert lines[0] == "source,target,raw_bm25,weight"
        assert len(lines) == 3


def random_skill_graph(rng):
    """Skills named from a small vocabulary, so tokens repeat inside and
    across communities, with some singleton communities."""
    vocab = ("data", "sql", "mining", "graph", "stream", "cloud")
    n = rng.randint(1, 14)
    names = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3))) for _ in range(n)]
    g = HeteroGraph()
    labels = {}
    for i, name in enumerate(names):
        sid = f"S{i:02d}"
        g.add_node(sid, NodeKind.SKILL, name=name)
        labels[sid] = rng.randint(0, 3) if rng.random() < 0.8 else 10 + i
    return g, labels


def linked_rows(g):
    return sorted((source, target, weight) for source, relation, target, weight in edges(g)
                  if relation is Relation.LINKED)


class TestLinkOracle:
    """Postings-restricted scoring keeps exactly the all-pairs links."""

    def test_random_graphs_match_oracle(self):
        rng = random.Random(11)
        for _ in range(400):
            g, labels = random_skill_graph(rng)
            params = Bm25Params(k1=rng.choice((0.0, 1.2, 2.0)), b=rng.choice((0.0, 0.75, 1.0)))
            top_k = rng.randint(1, 4)
            linked, records = link_skills(g, labels, params, top_k)
            expected = ref_link_skills(g, labels, params, top_k)
            assert records == expected
            assert [(r.raw_score, r.weight) for r in records] == \
                [(r.raw_score, r.weight) for r in expected]
            assert linked_rows(linked) == sorted((r.source, r.target, r.weight) for r in expected)

    def test_tied_scores_at_the_top_k_cut(self):
        # every target shares only "sql" with the source, so all four tie
        names = ["sql", "sql alpha", "sql beta", "sql gamma", "sql delta"]
        g = HeteroGraph()
        for i, name in enumerate(names):
            g.add_node(f"S{i}", NodeKind.SKILL, name=name)
        labels = {f"S{i}": 0 for i in range(len(names))}
        _linked, records = link_skills(g, labels, top_k=2)
        assert records == ref_link_skills(g, labels, top_k=2)
        kept = [r for r in records if r.source == "S0"]
        assert [r.target for r in kept] == ["S1", "S2"]
        assert kept[0].raw_score == kept[1].raw_score

    def test_shared_token_across_communities_does_not_link(self):
        g = HeteroGraph()
        for sid, name in (("S1", "data mining"), ("S2", "data lakes"), ("S3", "sql")):
            g.add_node(sid, NodeKind.SKILL, name=name)
        labels = {"S1": 0, "S2": 1, "S3": 1}
        _linked, records = link_skills(g, labels)
        assert records == [] == ref_link_skills(g, labels)


def test_bm25_runs_once_per_same_community_pair_sharing_a_token(monkeypatch):
    rng = random.Random(5)
    original = linker.bm25
    for _ in range(50):
        g, labels = random_skill_graph(rng)
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(linker, "bm25", counting)
        link_skills(g, labels)
        tokens = {sid: set(tokenize(g.node_name(sid))) for sid in labels}
        expected = sum(1 for s in labels for t in labels
                       if s != t and labels[s] == labels[t] and tokens[s] & tokens[t])
        assert len(calls) == expected
