from __future__ import annotations

import csv
import io
import math
import random
import re
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillgraph import cli, linker
from skillgraph.community import read_labels
from skillgraph.errors import GraphError
from skillgraph.graph import HeteroGraph, NodeKind, Relation, read_snapshot
from skillgraph.ingest import tokenize
from skillgraph.linker import Bm25Params, bm25, link_skills, term_postings, write_link_dump

from oracles import RefCorpusStats, edges, out_edges, ref_bm25, ref_link_skills


def docs_of(*texts):
    return {f"s{i + 1}": tuple(text.split()) for i, text in enumerate(texts)}


def scores_of(query, docs, params=Bm25Params()):
    """``bm25`` of one query over ``docs`` as ``{member name: score}``."""
    names = list(docs)
    queries, members, scores = bm25([query], term_postings(list(docs.values()), params))
    assert not queries.any()
    return {names[m]: score for m, score in zip(members.tolist(), scores.tolist())}


class TestBm25:
    def test_two_identical_one_token_docs(self):
        # N=2, df=2, avgdl=1: idf=ln(1.2), tf term = 2.2/2.2 = 1
        scores = scores_of(("sql",), docs_of("sql", "sql"))
        assert scores.keys() == {"s1", "s2"}
        assert scores["s1"] == scores["s2"] == pytest.approx(math.log(1.2), abs=1e-12)
        assert scores["s1"] == pytest.approx(0.1823215567939546, abs=1e-9)

    def test_disjoint_query_scores_zero(self):
        assert scores_of(("python",), docs_of("sql server")) == {}

    def test_self_corpus_positive(self):
        docs = docs_of("machine learning")
        scores = scores_of(docs["s1"], docs)
        # idf = ln(1 + 0.5/1.5) per token; doc length equals avgdl so the
        # tf factor is (1*2.2)/(1+1.2) = 1
        assert scores == {"s1": pytest.approx(2 * math.log(4 / 3), abs=1e-12)}

    def test_never_negative_even_for_common_terms(self):
        scores = scores_of(("sql",), docs_of(*["sql"] * 50))
        assert len(scores) == 50
        assert all(score > 0.0 for score in scores.values())

    def test_parameter_validation(self):
        with pytest.raises(GraphError):
            Bm25Params(k1=-1.0)
        with pytest.raises(GraphError):
            Bm25Params(b=1.5)

    @pytest.mark.parametrize("k1", [math.nan, math.inf])
    def test_non_finite_k1_rejected(self, k1):
        with pytest.raises(GraphError, match="finite"):
            Bm25Params(k1=k1)

    @pytest.mark.parametrize("k1, b", [(1e308, 0.75), (1.7e308, 0.0), (1e308, 1.0)])
    def test_k1_whose_term_overflows_rejected(self, k1, b):
        # a finite k1 passes Bm25Params, but f * (k1 + 1) or k1 * norm
        # overflows: the postings name k1 instead of handing on a NaN or 0.0
        docs = [("sql", "sql", "data"), ("data",), ("sql", "etl", "data", "ml")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match="^" + re.escape(f"k1 {k1!r} is too large")):
                term_postings(docs, Bm25Params(k1=k1, b=b))

    @pytest.mark.parametrize("n_docs, df", [(29, 29), (57, 48), (100, 2), (108, 107)])
    def test_each_idf_rounds_as_math_log(self, n_docs, df):
        # a vectorised log rounds some of these idfs differently from
        # math.log, and the scores must be the oracle's to the bit
        docs = [("sql", "data") if i < df else ("data",) for i in range(n_docs)]
        stats = RefCorpusStats.from_documents(docs)
        _queries, member, score = bm25([("sql", "data")], term_postings(docs))
        assert list(map(float.hex, score.tolist())) == [
            ref_bm25(("sql", "data"), docs[m], stats).hex() for m in member.tolist()]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["sql", "python", "data", "etl"]), min_size=1, max_size=5),
           st.sampled_from(["spark", "hadoop", "graphs", "pipelines", "etl", "data"]))
    def test_extra_query_token_never_decreases_score(self, query, extra):
        docs = docs_of("sql data pipelines", "python etl data")
        base = scores_of(tuple(query), docs)
        more = scores_of(tuple(query) + (extra,), docs)
        assert base.keys() <= more.keys()
        assert all(more[member] >= score for member, score in base.items())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["sql", "data", "mining", "graph", "stream"]),
                             min_size=1, max_size=4), min_size=1, max_size=6),
           st.lists(st.lists(st.sampled_from(["sql", "data", "mining", "graph", "stream", "etl"]),
                             max_size=5), max_size=4),
           st.sampled_from([0.0, 0.5, 1.2, 2.0]), st.sampled_from([0.0, 0.3, 0.75, 1.0]))
    def test_each_score_is_the_per_pair_sum_bit_for_bit(self, names, queries, k1, b):
        # the pair-at-a-time oracle adds the same terms in the same order,
        # so every score is the same float, and a member that holds no query
        # token gets none; one call scores every query, by query then member
        docs = [tuple(name) for name in names]
        params = Bm25Params(k1=k1, b=b)
        stats = RefCorpusStats.from_documents(docs)
        query_at, member, score = bm25([tuple(q) for q in queries], term_postings(docs, params))
        assert list(zip(query_at.tolist(), member.tolist(), map(float.hex, score.tolist()))) == [
            (q, m, ref_bm25(tuple(query), doc, stats, params).hex())
            for q, query in enumerate(queries) for m, doc in enumerate(docs)
            if set(doc) & set(query)]


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
            raws = {target: raw for s, target, raw, _w in records if s == source}
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

    def test_top_k_past_int64_keeps_every_candidate(self):
        names = [f"data skill{i}" for i in range(8)]
        g, labels = skill_graph(names, [0] * 5 + [1] * 3)
        huge_graph, huge = link_skills(g, labels, top_k=2**70)
        every_graph, every = link_skills(g, labels, top_k=len(names))
        assert huge == every and len(every) == 5 * 4 + 3 * 2
        assert edges(huge_graph) == edges(every_graph)

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
        for source, target, _raw, _weight in records:
            assert labels[source] == labels[target]

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
            # tuple equality compares each raw_score and weight as a float
            assert records == expected
            assert linked_rows(linked) == sorted((s, t, w) for s, t, _raw, w in expected)

    def test_tied_scores_at_the_top_k_cut(self):
        # every target shares only "sql" with the source, so all four tie
        names = ["sql", "sql alpha", "sql beta", "sql gamma", "sql delta"]
        g = HeteroGraph()
        for i, name in enumerate(names):
            g.add_node(f"S{i}", NodeKind.SKILL, name=name)
        labels = {f"S{i}": 0 for i in range(len(names))}
        _linked, records = link_skills(g, labels, top_k=2)
        assert records == ref_link_skills(g, labels, top_k=2)
        kept = [(target, raw) for source, target, raw, _w in records if source == "S0"]
        assert [target for target, _raw in kept] == ["S1", "S2"]
        assert kept[0][1] == kept[1][1]

    def test_shared_token_across_communities_does_not_link(self):
        g = HeteroGraph()
        for sid, name in (("S1", "data mining"), ("S2", "data lakes"), ("S3", "sql")):
            g.add_node(sid, NodeKind.SKILL, name=name)
        labels = {"S1": 0, "S2": 1, "S3": 1}
        _linked, records = link_skills(g, labels)
        assert records == [] == ref_link_skills(g, labels)


def test_bm25_runs_once_per_chunk_of_each_community(monkeypatch):
    # each community of at least two scores its skills, in id order, in
    # chunks: a chunk takes sources while the postings their tokens expand
    # (each query token's document frequency) stay within the pair budget,
    # and takes at least one; each call scores exactly its sources against
    # the same-community skills that share a token, by source then member
    rng = random.Random(5)
    original = linker.bm25
    calls = []

    def recording(queries, postings):
        result = original(queries, postings)
        calls.append((list(queries), result))
        return result

    monkeypatch.setattr(linker, "bm25", recording)
    for budget in (1, 6, 20, linker._BATCH_PAIRS):
        monkeypatch.setattr(linker, "_BATCH_PAIRS", budget)
        for _ in range(30):
            g, labels = random_skill_graph(rng)
            calls.clear()
            link_skills(g, labels)
            expected = []
            for community in sorted(set(labels.values())):
                members = sorted(s for s in labels if labels[s] == community)
                docs = [tuple(tokenize(g.node_name(s))) for s in members]
                df = Counter(token for doc in docs for token in set(doc))
                cost = [sum(df[token] for token in doc) for doc in docs]
                lo = 0
                while len(docs) >= 2 and lo < len(docs):
                    hi, total = lo + 1, cost[lo]
                    while hi < len(docs) and total + cost[hi] <= budget:
                        total += cost[hi]
                        hi += 1
                    expected.append((docs[lo:hi], [
                        (i - lo, j) for i in range(lo, hi) for j in range(len(docs))
                        if set(docs[i]) & set(docs[j])]))
                    lo = hi
            assert [(queries, list(zip(source.tolist(), member.tolist())))
                    for queries, (source, member, _scores) in calls] == expected


def hex_links(links):
    """Links with each raw score and weight as its exact hex form."""
    return [(source, target, raw.hex(), weight.hex()) for source, target, raw, weight in links]


def counting_bm25_calls(monkeypatch) -> Counter:
    calls = Counter()
    original = linker.bm25

    def counting(queries, postings):
        calls["bm25"] += 1
        return original(queries, postings)

    monkeypatch.setattr(linker, "bm25", counting)
    return calls


def test_a_community_over_the_pair_budget_matches_the_oracle(monkeypatch):
    # n skills that all hold "data": each source expands at least n
    # postings, so the community's n * n or more take more than one call
    n = math.isqrt(linker._BATCH_PAIRS) + 50
    rng = random.Random(7)
    vocab = ("sql", "mining", "graph", "stream", "cloud", "lake", "etl", "spark")
    g = HeteroGraph()
    for i in range(n):
        g.add_node(f"S{i:03d}", NodeKind.SKILL,
                   name=" ".join(["data", *rng.sample(vocab, rng.randint(0, 3))]))
    labels = dict.fromkeys(g.node_ids(), 0)
    calls = counting_bm25_calls(monkeypatch)
    _linked, records = link_skills(g, labels)
    assert calls["bm25"] > 1
    assert hex_links(records) == hex_links(ref_link_skills(g, labels))


def test_one_community_of_every_skill_matches_the_oracle(monkeypatch, tmp_path):
    # ungated linking: every skill of a synth corpus's merged graph in one
    # community, scored in one call
    data, out = tmp_path / "data", tmp_path / "out"
    for argv in (
        ["synth", "--seed", "7", "--jobs", "300", "--courses", "60", "--skills", "200",
         "--alignment", "0.3", "--out", str(data)],
        ["ingest", "--courses", str(data / "courses.csv"), "--jobs", str(data / "jobs.csv"),
         "--skills", str(data / "skills.csv"), "--enrollments", str(data / "enrollments.csv"),
         "--out", str(out)],
        ["build", "--out", str(out)],
    ):
        assert cli.main(argv) == 0, argv
    merged = read_snapshot(out / cli.F_MERGED_GRAPH)
    labels = dict.fromkeys(merged.node_ids(NodeKind.SKILL), 0)
    calls = counting_bm25_calls(monkeypatch)
    _linked, records = link_skills(merged, labels)
    expected = ref_link_skills(merged, labels)
    assert calls["bm25"] == 1
    assert len(expected) > 1000
    assert hex_links(records) == hex_links(expected)


def test_skill_without_tokens_rejected():
    g = HeteroGraph()
    g.add_node("S1", NodeKind.SKILL, name="data mining")
    g.add_node("S2", NodeKind.SKILL, name="!!!")
    with pytest.raises(GraphError, match="skill 'S2' has no tokens"):
        link_skills(g, {"S1": 0, "S2": 0})


def test_query_m_shaped_corpus_matches_the_oracle_and_its_dump(query_m_pipeline):
    # the synth corpus of the query-m benchmark shape, through the CLI: the
    # links of the merged graph and the dump link writes must equal the
    # all-pairs oracle's, bit for bit and in the dump's format
    out = query_m_pipeline.out
    merged = read_snapshot(out / cli.F_MERGED_GRAPH)
    labels = read_labels(out / cli.F_LABELS)
    _linked, records = link_skills(merged, labels)
    expected = ref_link_skills(merged, labels)
    assert len(expected) > 1000
    assert records == expected
    dump = io.StringIO(newline="")
    writer = csv.writer(dump, lineterminator="\n")
    writer.writerow(["source", "target", "raw_bm25", "weight"])
    writer.writerows([s, t, format(raw, ".12g"), format(w, ".12g")] for s, t, raw, w in expected)
    assert (out / cli.F_LINK_DUMP).read_text(encoding="utf-8") == dump.getvalue()
