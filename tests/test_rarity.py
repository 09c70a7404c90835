import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareval import (
    Campaign,
    Qrels,
    RarityIndex,
    SynthSpec,
    UndefinedRarityError,
    build_rarity_index,
    extend_index,
    generate_campaign,
    make_common_system,
    rareness,
    rareness_revised,
    rarity_report,
)
from rareval.errors import DataError

import oracles
from conftest import make_run, tiny_campaigns


class TestBuildIndex:
    def test_toy4_counts(self, toy4):
        index = build_rarity_index(toy4)
        assert index.total_systems == 4
        assert index.count("t1", "d1") == 4
        assert index.count("t1", "d3") == 1
        assert index.count("t1", "d2") == 2
        assert index.count("t1", "nowhere") == 0

    def test_count_depth_one(self, toy4):
        index = build_rarity_index(toy4, count_depth=1)
        assert index.count("t1", "d2") == 0  # nobody ranks d2 first
        assert index.count("t1", "d1") == 4

    def test_extend_equals_rebuild(self, toy4):
        extra = make_run("E", {"t1": ["d3", "d7"]})
        for depth in (None, 1, 2):
            base = build_rarity_index(toy4, depth)
            rebuilt = build_rarity_index(
                Campaign(toy4.runs + [extra], toy4.qrels), depth
            )
            assert extend_index(base, extra) == rebuilt


class TestRarenessValues:
    def test_retrieved_by_all(self):
        index = RarityIndex(4, {"t": {"d": 4}})
        assert rareness(index, "t", "d") == 0.0

    def test_unique_retrieval(self):
        index = RarityIndex(4, {"t": {"d": 1}})
        assert rareness(index, "t", "d") == 0.75

    def test_two_system_maximum(self):
        index = RarityIndex(2, {"t": {"d": 1}})
        assert rareness(index, "t", "d") == 0.5

    def test_revised_unique(self):
        index = RarityIndex(4, {"t": {"d": 1}})
        assert rareness_revised(index, "t", "d") == 1.0

    def test_revised_universal(self):
        index = RarityIndex(4, {"t": {"d": 4}})
        assert rareness_revised(index, "t", "d") == 0.0

    def test_revised_two_of_four(self):
        index = RarityIndex(4, {"t": {"d": 2}})
        assert rareness_revised(index, "t", "d") == pytest.approx(2 / 3, abs=1e-15)

    def test_undefined_rarity(self):
        index = RarityIndex(4, {"t": {"d": 1}})
        with pytest.raises(UndefinedRarityError):
            rareness(index, "t", "other")
        with pytest.raises(UndefinedRarityError):
            rareness_revised(index, "t", "other")

    def test_single_system_degenerate(self):
        index = RarityIndex(1, {"t": {"d": 1}})
        assert rareness(index, "t", "d") == 0.0
        with pytest.warns(UserWarning, match="single system"):
            assert rareness_revised(index, "t", "d") == 1.0


class TestRarityGridProperties:
    def test_bounds_and_scaling_up_to_s_50(self):
        for s in range(2, 51):
            previous = None
            for s_d in range(1, s + 1):
                index = RarityIndex(s, {"t": {"d": s_d}})
                r = rareness(index, "t", "d")
                r_rev = rareness_revised(index, "t", "d")
                assert 0.0 <= r <= (s - 1) / s + 1e-12
                assert 0.0 <= r_rev <= 1.0
                assert r_rev >= r
                assert r_rev == pytest.approx(r * s / (s - 1), abs=1e-12)
                if previous is not None:
                    assert r < previous[0] and r_rev < previous[1]
                previous = (r, r_rev)

    def test_adding_a_system_moves_rarity_the_right_way(self):
        campaign = generate_campaign(
            SynthSpec(5, 2, 6, 80, overlap_bias=0.5, run_depth=12, seed=3)
        )
        index = build_rarity_index(campaign)
        topic = campaign.judged_topics[0]
        doc = next(iter(campaign.runs[0].docs(topic)))
        base = rareness(index, topic, doc)
        with_doc = extend_index(index, make_run("Z", {topic: [doc]}))
        without_doc = extend_index(index, make_run("Z", {topic: ["unrelated-doc"]}))
        if index.count(topic, doc) < index.total_systems:
            assert rareness(with_doc, topic, doc) < base
        assert rareness(without_doc, topic, doc) > base


class TestRarityReport:
    def test_toy4_eq2(self, toy4):
        rows = rarity_report(toy4, "t1")
        assert [(r.doc, r.rarity) for r in rows] == [
            ("d3", 0.75),
            ("d2", 0.5),
            ("d1", 0.0),
        ]
        assert [r.retrievers for r in rows] == [1, 2, 4]

    def test_revised_variant(self, toy4):
        rows = rarity_report(toy4, "t1", variant="revised")
        assert rows[0].doc == "d3"
        assert rows[0].rarity == 1.0

    def test_topic_with_no_relevant_retrieved(self):
        campaign = Campaign(
            [make_run("A", {"t1": ["d9"]})], Qrels({"t1": {"d1": 1}})
        )
        assert rarity_report(campaign, "t1") == []

    def test_unknown_topic(self, toy4):
        with pytest.raises(DataError, match="not judged"):
            rarity_report(toy4, "t99")

    def test_ties_sorted_by_doc_id(self):
        campaign = Campaign(
            [make_run("A", {"t1": ["x", "y"]}), make_run("B", {"t1": ["z"]})],
            Qrels({"t1": {"x": 1, "y": 1, "z": 1}}),
        )
        rows = rarity_report(campaign, "t1")
        assert [r.doc for r in rows] == ["x", "y", "z"]


class TestRelevantCounts:
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(campaign=tiny_campaigns(), count_depth=st.sampled_from([None, 1, 3]))
    def test_report_and_common_probe_count_like_the_oracle(self, campaign, count_depth):
        runs_docs, _ = oracles.campaign_to_plain(campaign)
        index = build_rarity_index(campaign, count_depth)
        for topic in campaign.judged_topics:
            expected = {}  # the relevant docs some system retrieves, and how many do
            for doc in campaign.qrels.relevant(topic):
                n = oracles.naive_count_retrievers(runs_docs, topic, doc, count_depth)
                assert index.count(topic, doc) == n
                if n:
                    expected[doc] = n
            rows = rarity_report(campaign, topic, count_depth=count_depth)
            assert len(rows) == len(expected)
            assert {row.doc: row.retrievers for row in rows} == expected
            order = sorted(expected, key=lambda doc: (-expected[doc], doc))
            if order:
                probe = make_common_system(campaign, topic, len(order), count_depth=count_depth)
                assert probe.docs(topic) == tuple(order)
            with pytest.raises(DataError, match=f"only {len(order)} relevant retrieved"):
                make_common_system(campaign, topic, len(order) + 1, count_depth=count_depth)
