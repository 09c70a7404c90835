import numpy as np
import pytest

from rareval import (
    Campaign,
    MetricSpec,
    Qrels,
    SynthSpec,
    evaluate_campaign,
    generate_campaign,
    kendall_tau,
    mean_scores,
    rank_systems,
)
from rareval.campaign import _midranks
from rareval.errors import DataError
from scipy.stats import rankdata

from conftest import make_run


def row(matrix, system):
    return matrix.values[matrix.systems.index(system)]


class TestEvaluateCampaign:
    def test_toy4_p_at_3(self, toy4):
        matrix = evaluate_campaign(toy4, [MetricSpec.parse("P@3")])[0]
        assert row(matrix, "B")[0] == pytest.approx(2 / 3)

    def test_toy4_p_rareness(self, toy4):
        matrix = evaluate_campaign(toy4, [MetricSpec.parse("P@3_rareness(alpha=1)")])[0]
        assert row(matrix, "B")[0] == pytest.approx((1 + 1.75) / 3)

    def test_missing_topic_scores_zero(self, toy4):
        runs = toy4.runs + [make_run("E", {"t2": ["d1"]})]
        qrels = Qrels({"t1": dict(toy4.qrels.judgments["t1"]), "t2": {"d1": 1}})
        campaign = Campaign(runs, qrels)
        matrix = evaluate_campaign(campaign, [MetricSpec.parse("P@3")])[0]
        t1 = matrix.topics.index("t1")
        assert row(matrix, "E")[t1] == 0.0

    def test_shared_index_across_alphas(self, toy4):
        specs = [
            MetricSpec.parse(f"P@3_rareness(alpha={a})") for a in (0, 0.5, 1)
        ]
        matrices = evaluate_campaign(toy4, specs)
        assert len(matrices) == 3
        assert [m.metric_descriptor for m in matrices] == [s.descriptor for s in specs]

    def test_ap_skips_zero_relevant_topics(self):
        campaign = Campaign(
            [make_run("A", {"t1": ["d1"], "t2": ["x"]})],
            Qrels({"t1": {"d1": 1}, "t2": {"x": 0}}),
        )
        ap, p = evaluate_campaign(campaign, [MetricSpec.parse("AP"), MetricSpec.parse("P@1")])
        assert ap.skipped_topics == {"t2"}
        assert p.skipped_topics == frozenset()
        assert mean_scores(ap) == {"A": 1.0}
        assert mean_scores(p) == {"A": 0.5}

    def test_exclusion_flag_for_p_family(self):
        campaign = Campaign(
            [make_run("A", {"t1": ["d1"], "t2": ["x"]})],
            Qrels({"t1": {"d1": 1}, "t2": {"x": 0}}),
        )
        p = evaluate_campaign(
            campaign, [MetricSpec.parse("P@1")], exclude_zero_relevant_for_p=True
        )[0]
        assert p.skipped_topics == {"t2"}
        assert mean_scores(p) == {"A": 1.0}

    def test_no_judged_topics(self):
        campaign = Campaign([make_run("A", {"t1": ["d1"]})], Qrels({}))
        with pytest.raises(DataError, match="no judged topics"):
            evaluate_campaign(campaign, [MetricSpec.parse("P@1")])

    def test_all_topics_skipped(self):
        campaign = Campaign(
            [make_run("A", {"t1": ["d1"]})], Qrels({"t1": {"d1": 0}})
        )
        matrix = evaluate_campaign(campaign, [MetricSpec.parse("AP")])[0]
        with pytest.raises(DataError, match="skipped"):
            mean_scores(matrix)

    def test_determinism(self):
        campaign = generate_campaign(
            SynthSpec(6, 3, 8, 100, overlap_bias=0.5, run_depth=20, seed=9)
        )
        specs = [MetricSpec.parse("P@20_rareness(alpha=1)"), MetricSpec.parse("AP_rareness(alpha=1)")]
        first = evaluate_campaign(campaign, specs)
        second = evaluate_campaign(campaign, specs)
        for a, b in zip(first, second):
            assert np.array_equal(a.values, b.values)

    def test_n_relevant_override(self, toy4):
        base = evaluate_campaign(toy4, [MetricSpec.parse("AP")])[0]
        frozen = evaluate_campaign(
            toy4, [MetricSpec.parse("AP")], n_relevant_override={"t1": 6}
        )[0]
        assert np.allclose(frozen.values * 2, base.values)


class TestMeanScores:
    def test_single_topic(self, toy4):
        matrix = evaluate_campaign(toy4, [MetricSpec.parse("P@3")])[0]
        means = mean_scores(matrix)
        assert means["B"] == pytest.approx(2 / 3)

    def test_two_values(self):
        campaign = Campaign(
            [make_run("A", {"t1": ["d1", "x"], "t2": ["d2", "y"]})],
            Qrels({"t1": {"d1": 1, "q": 1}, "t2": {"d2": 1}}),
        )
        matrix = evaluate_campaign(campaign, [MetricSpec.parse("P@2")])[0]
        assert mean_scores(matrix)["A"] == pytest.approx(0.5)

    def test_skip_aware_divisor(self):
        campaign = Campaign(
            [make_run("A", {"t1": ["d1"], "t2": ["d2"], "t3": ["x"]})],
            Qrels({"t1": {"d1": 1}, "t2": {"d2": 1, "other": 1}, "t3": {"x": 0}}),
        )
        matrix = evaluate_campaign(campaign, [MetricSpec.parse("AP")])[0]
        assert matrix.skipped_topics == {"t3"}
        # mean over t1 (AP=1) and t2 (AP=1/2) only
        assert mean_scores(matrix)["A"] == pytest.approx(0.75)


class TestRankSystems:
    def test_midrank_pair(self):
        ranking = rank_systems({"A": 0.9, "B": 0.5, "C": 0.5})
        assert ranking.ranks_by_system() == {"A": 1.0, "B": 2.5, "C": 2.5}

    def test_all_equal(self):
        ranking = rank_systems({"A": 0.4, "B": 0.4, "C": 0.4})
        assert set(ranking.ranks_by_system().values()) == {2.0}

    def test_distinct_means_are_a_permutation(self):
        ranking = rank_systems({"A": 0.1, "B": 0.9, "C": 0.5, "D": 0.3})
        assert sorted(ranking.ranks_by_system().values()) == [1.0, 2.0, 3.0, 4.0]
        assert ranking.entries[0].system_id == "B"

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            means = {f"s{i}": float(rng.choice([0.1, 0.2, 0.3])) for i in range(n)}
            ranks = rank_systems(means).ranks_by_system()
            assert sum(ranks.values()) == pytest.approx(n * (n + 1) / 2)

    def test_midranks_equal_scipy_rankdata_bitwise(self):
        rng = np.random.default_rng(11)
        vectors = [np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.full(7, 0.3)]
        for _ in range(500):
            n = int(rng.integers(1, 30))
            vectors.append(rng.integers(0, int(rng.integers(1, 6)), n) / 3.0)
        for values in vectors:
            assert np.array_equal(_midranks(values), rankdata(values, method="average"))

    def test_display_order_breaks_ties_by_id_without_touching_ranks(self):
        ranking = rank_systems({"Z": 0.5, "A": 0.5})
        assert [e.system_id for e in ranking.entries] == ["A", "Z"]
        assert [e.rank for e in ranking.entries] == [1.5, 1.5]

    def test_empty_input(self):
        with pytest.raises(DataError):
            rank_systems({})


class TestAlphaZeroOrderingInvariance:
    def test_tau_is_one_between_base_and_zero_alpha_rankings(self):
        for seed in range(5):
            campaign = generate_campaign(
                SynthSpec(8, 4, 10, 120, overlap_bias=0.6, run_depth=25, seed=seed)
            )
            base, weighted = evaluate_campaign(
                campaign,
                [MetricSpec.parse("P@25"), MetricSpec.parse("P@25_rareness(alpha=0)")],
            )
            tau = kendall_tau(
                rank_systems(mean_scores(base)), rank_systems(mean_scores(weighted))
            )
            assert tau == 1.0
