import io
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rareval.campaign
import rareval.metrics
import rareval.rarity
from rareval import (
    Campaign,
    MetricSpec,
    Qrels,
    SynthSpec,
    build_rarity_index,
    evaluate_campaign,
    format_run,
    generate_campaign,
    kendall_tau,
    load_campaign,
    make_rare_system,
    mean_scores,
    rank_systems,
)
from rareval.campaign import _midranks, _SubsetScorer
from rareval.errors import ConfigError, DataError, RarevalError, UndefinedRarityError
from scipy.stats import rankdata

from conftest import make_run, metric_specs, tiny_campaigns


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

    @pytest.mark.parametrize("ap_depth", [0, -3])
    def test_nonpositive_ap_depth_rejected(self, toy4, ap_depth):
        with pytest.raises(ConfigError, match=f"AP depth must be >= 1.*got {ap_depth}"):
            evaluate_campaign(toy4, [MetricSpec.parse("AP")], ap_depth=ap_depth)

    def test_weighted_specs_count_on_the_grid_and_build_no_index(self, toy4, monkeypatch):
        specs = [
            MetricSpec.parse(name, default_cutoff=3)
            for name in ("P@3_rareness(alpha=1)", "AP_rareness", "P@3_mixture(alpha=0.5)")
        ]
        expected = [m.values.tolist() for m in evaluate_campaign(toy4, specs, ap_depth=None)]

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate_campaign built a rarity index")

        # Patching the class too catches a copy of the builder imported by name.
        monkeypatch.setattr(rareval.rarity, "build_rarity_index", refuse)
        monkeypatch.setattr(rareval.rarity, "RarityIndex", refuse)
        matrices = evaluate_campaign(toy4, specs, ap_depth=None)
        assert [m.values.tolist() for m in matrices] == expected

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


def outcome(score):
    """``score()``'s result, or UndefinedRarityError if it raised one."""
    try:
        return score()
    except UndefinedRarityError:
        return UndefinedRarityError


class TestOneScorerProperties:
    @pytest.mark.parametrize("kind", ["p", "ap", "p_rareness", "ap_rareness", "p_mixture"])
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        campaign=tiny_campaigns(),
        rarity_depth=st.sampled_from([None, 1, 2, 3]),
        ap_depth=st.sampled_from(["cutoff", None]),
        data=st.data(),
    )
    def test_rows_score_as_evaluate_campaign_on_their_runs(
        self, kind, campaign, rarity_depth, ap_depth, data
    ):
        spec = data.draw(metric_specs(kind))
        ids = campaign.system_ids
        depths = dict(rarity_depth=rarity_depth, ap_depth=ap_depth)
        scorer = _SubsetScorer(campaign, spec, **depths)
        if not scorer.kept:  # every topic skipped: nothing to average
            with pytest.raises(DataError, match="skipped"):
                mean_scores(evaluate_campaign(campaign, [spec], **depths)[0])
            return
        subset = sorted(data.draw(st.sets(st.integers(0, len(ids) - 1), min_size=1)))

        def evaluated(rows):
            sub = Campaign([campaign.run_for(ids[i]) for i in rows], campaign.qrels)
            means = mean_scores(evaluate_campaign(sub, [spec], **depths)[0])
            return [means[ids[i]] for i in rows]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # revised rarity of a single system
            for rows in (list(range(len(ids))), subset):
                fast = outcome(lambda: scorer.subset_means(np.array(rows)).tolist())
                assert fast == outcome(lambda: evaluated(rows))


class TestBlocksOfRowSets:
    """A block of row sets scores and averages each set as it alone would."""

    @pytest.mark.parametrize("kind", ["p", "ap", "p_rareness", "ap_rareness", "p_mixture"])
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        campaign=tiny_campaigns(),
        rarity_depth=st.sampled_from([None, 1, 2, 3]),
        ap_depth=st.sampled_from(["cutoff", None]),
        data=st.data(),
    )
    def test_each_set_of_a_block_scores_as_it_alone(
        self, kind, campaign, rarity_depth, ap_depth, data
    ):
        spec = data.draw(metric_specs(kind))
        scorer = _SubsetScorer(campaign, spec, rarity_depth=rarity_depth, ap_depth=ap_depth)
        n = campaign.n_systems
        assume(n >= 2)
        size = data.draw(st.integers(2, n))  # a lone row's mean is summed pairwise
        one_set = st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        sets = np.array(data.draw(st.lists(one_set.map(sorted), min_size=1, max_size=5)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # revised rarity over a single row
            block = scorer.scores(sets, spec)
            means = scorer.subset_means(sets) if scorer.kept else None
            for i, rows in enumerate(sets):
                try:
                    alone = scorer.scores(rows, spec)
                except UndefinedRarityError:
                    assert np.isnan(block[i]).any()
                    assert means is None or np.isnan(means[i]).any()
                    continue
                assert block[i].tobytes() == alone.tobytes()
                if means is not None:
                    assert means[i].tobytes() == scorer.subset_means(rows).tobytes()

    def test_topic_means_add_the_topics_in_order_for_one_set_or_a_block(self):
        # 1e16 swallows a 1.0 added to it, so the order of the additions
        # shows in the sum: numpy's own pairwise sum of a row differs.
        grid = np.random.default_rng(4).choice([1e16, -1e16, 1.0, 3.0], size=(3, 4, 20))
        in_order = np.zeros((3, 4))
        for t in range(20):
            in_order += grid[..., t]
        assert (grid.sum(axis=-1) != in_order).any()
        means = rareval.campaign.topic_means(grid)
        assert means.tobytes() == (in_order / 20).tobytes()
        for i, values in enumerate(grid):
            assert rareval.campaign.topic_means(values).tobytes() == means[i].tobytes()

    def test_block_means_are_topic_means_of_each_sets_scores(self):
        # Twenty topics: enough for numpy's pairwise sum to order additions
        # differently from a topic-by-topic one.
        campaign = generate_campaign(
            SynthSpec(6, 20, 6, 60, overlap_bias=0.5, run_depth=12, seed=8)
        )
        spec = MetricSpec.parse("P@10_rareness(alpha=0.7,rarity=revised)")
        scorer = _SubsetScorer(campaign, spec, rarity_depth=None, ap_depth="cutoff")
        sets = np.array([[0, 1, 2], [1, 3, 5], [0, 4, 5], [2, 3, 4]])
        means = scorer.subset_means(sets)
        for rows, mean in zip(sets, means):
            values = scorer.scores(rows, spec)
            in_order = np.zeros(len(rows))
            for column in values.T:
                in_order += column
            assert mean.tobytes() == rareval.campaign.topic_means(values).tobytes()
            assert mean.tobytes() == (in_order / values.shape[1]).tobytes()


def first_uncounted(campaign, rows, count_depth, bound):
    """The (topic, doc) of the first relevant hit no row of ``rows`` retrieves
    within ``count_depth``: topics in order, then rows, then hits in rank order."""
    runs = [campaign.run_for(campaign.system_ids[i]) for i in rows]
    for topic in campaign.judged_topics:
        relevant = campaign.qrels.relevant(topic)
        counted = {doc for run in runs for doc in run.docs(topic)[:count_depth]}
        for run in runs:
            for doc in run.docs(topic)[:bound]:
                if doc in relevant and doc not in counted:
                    return topic, doc
    return None


class TestUncountedHitIsNamed:
    """The scorer's UndefinedRarityError names the doc a plain walk finds."""

    @pytest.mark.parametrize("kind", ["p_rareness", "ap_rareness", "p_mixture"])
    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(
        campaign=tiny_campaigns(),
        rarity_depth=st.integers(1, 4),
        ap_depth=st.sampled_from(["cutoff", None]),
        data=st.data(),
    )
    def test_one_set_and_a_block_name_the_walks_doc(
        self, kind, campaign, rarity_depth, ap_depth, data
    ):
        spec = data.draw(metric_specs(kind))
        scorer = _SubsetScorer(campaign, spec, rarity_depth=rarity_depth, ap_depth=ap_depth)
        bound = rareval.metrics.metric_bound(spec, ap_depth)
        n = campaign.n_systems
        size = data.draw(st.integers(1, n))
        one_set = st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        sets = np.array(data.draw(st.lists(one_set.map(sorted), min_size=1, max_size=4)))

        def named(rows):
            try:
                scorer.scores(rows, spec)
            except UndefinedRarityError as exc:
                return str(exc)
            return None

        def expected(rows):
            found = first_uncounted(campaign, rows, rarity_depth, bound)
            return found and (f"no scored system retrieved {found[1]!r} for topic "
                              f"{found[0]!r} within count depth {rarity_depth}")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # revised rarity over a single row
            block = scorer.scores(sets, spec)
            for i, rows in enumerate(sets):
                assert named(rows) == expected(rows)
                assert np.isnan(block[i]).any() == (expected(rows) is not None)


KINDS = ["p", "ap", "p_rareness", "ap_rareness", "p_mixture"]


def evaluation(evaluate):
    """What ``evaluate()`` gives: each matrix's descriptor, value bytes and
    skipped topics, or the class and message of its first error; and the set
    of warnings it gave on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [
                (m.metric_descriptor, m.values.tobytes(), m.skipped_topics) for m in evaluate()
            ]
        except RarevalError as exc:
            result = (type(exc), str(exc))
    return result, {(w.category, str(w.message)) for w in caught}


class TestOneScorerPerEvaluation:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        campaign=tiny_campaigns(),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
        rarity_depth=st.sampled_from([None, 1, 2, 3]),
        ap_depth=st.sampled_from(["cutoff", None]),
        data=st.data(),
    )
    def test_mixed_depths_score_as_each_spec_alone(
        self, campaign, kinds, rarity_depth, ap_depth, data
    ):
        specs = [data.draw(metric_specs(kind)) for kind in kinds]
        depths = dict(rarity_depth=rarity_depth, ap_depth=ap_depth)

        def one_at_a_time():
            return [m for spec in specs for m in evaluate_campaign(campaign, [spec], **depths)]

        together = evaluation(lambda: evaluate_campaign(campaign, specs, **depths))
        assert together == evaluation(one_at_a_time)

    def test_two_depths_build_one_scorer_and_one_hit_table_per_topic(self, monkeypatch):
        campaign = generate_campaign(
            SynthSpec(4, 3, 5, 40, overlap_bias=0.5, run_depth=10, seed=1)
        )
        scorer, table = rareval.campaign._SubsetScorer, rareval.campaign.hit_table
        scorers, tables = [], []
        monkeypatch.setattr(
            rareval.campaign, "_SubsetScorer",
            lambda *a, **kw: scorers.append(1) or scorer(*a, **kw),
        )
        monkeypatch.setattr(
            rareval.campaign, "hit_table", lambda *a: tables.append(1) or table(*a)
        )
        specs = [MetricSpec.parse("P@3"), MetricSpec.parse("AP")]
        evaluate_campaign(campaign, specs, ap_depth=None)
        assert len(scorers) == 1
        assert len(tables) == len(campaign.judged_topics) == 3

    def test_topic_without_a_hit_within_the_specs_depth_is_skipped_silently(self):
        # The deeper AP table holds d1 at rank 2; P@1 must still skip the topic
        # rather than count rarity, which warns for a single system.
        campaign = Campaign([make_run("A", {"t1": ["x", "d1"]})], Qrels({"t1": {"d1": 1}}))
        specs = [MetricSpec.parse("P@1_rareness(rarity=revised)"), MetricSpec.parse("AP")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, ap = evaluate_campaign(campaign, specs, ap_depth=None)
        assert p.values.tolist() == [[0.0]]
        assert ap.values.tolist() == [[0.5]]

    def test_ap_depth_is_checked_before_count_depth_and_judged_topics(self):
        campaign = Campaign([make_run("A", {"t1": ["d1"]})], Qrels({}))
        ap = [MetricSpec.parse("AP")]
        with pytest.raises(ConfigError, match="AP depth"):
            evaluate_campaign(campaign, ap, rarity_depth=0, ap_depth=0)
        with pytest.raises(DataError, match="count depth"):
            evaluate_campaign(campaign, ap, rarity_depth=0)
        with pytest.raises(DataError, match="no judged topics"):
            evaluate_campaign(campaign, ap)

    def test_no_specs_give_no_matrices(self, toy4):
        assert evaluate_campaign(toy4, []) == []


def _scores_or_error(scorer, rows, spec):
    try:
        return scorer.scores(rows, spec).tobytes()
    except RarevalError as exc:
        return type(exc), str(exc)


class TestMixedVocabularies:
    """Runs built in memory each intern into a vocabulary of their own; loaded
    runs share one. A campaign owns one code space, ``Campaign.vocab``: it
    keeps runs already over it and re-codes copies of the others into it, so
    the scorer and the rarity index read the codes as they are."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        campaign=tiny_campaigns(),
        kind=st.sampled_from(["p", "ap", "p_rareness", "ap_rareness", "p_mixture"]),
        rarity_depth=st.sampled_from([None, 1, 3]),
        ap_depth=st.sampled_from(["cutoff", None]),
        d=st.integers(1, 3),
        data=st.data(),
    )
    def test_hand_built_runs_and_a_probe_score_as_the_same_files_loaded(
        self, tmp_path_factory, campaign, kind, rarity_depth, ap_depth, d, data
    ):
        topic = data.draw(st.sampled_from(campaign.judged_topics))
        tag = data.draw(st.sampled_from(["a-probe", "z-probe"]))  # its row first or last
        probe, qrels = make_rare_system(campaign, topic, d, tag=tag)
        probe_vocab = probe.columns[topic].vocab
        mixed = Campaign([*campaign.runs, probe], qrels)
        # The caller's runs keep their own vocabularies.
        assert probe.columns[topic].vocab is probe_vocab
        assert all(c.vocab is campaign.vocab for run in campaign.runs for c in run.columns.values())
        assume(all(format_run(run) for run in mixed.runs))  # no empty run file
        folder = tmp_path_factory.mktemp("runs")
        paths = []
        for i, run in enumerate(mixed.runs):
            paths.append(folder / f"{i}.run")
            paths[-1].write_text(format_run(run))
        loaded = Campaign(load_campaign(paths, io.StringIO("")).runs, qrels)
        for both in (mixed, loaded):
            assert all(c.vocab is both.vocab for run in both.runs for c in run.columns.values())
        assert build_rarity_index(mixed, rarity_depth).counts == (
            build_rarity_index(loaded, rarity_depth).counts
        )
        spec = data.draw(metric_specs(kind))
        depths = dict(rarity_depth=rarity_depth, ap_depth=ap_depth)
        n = mixed.n_systems
        subset = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # revised rarity over a single row
            for rows in (np.arange(n), subset):
                assert _scores_or_error(_SubsetScorer(mixed, spec, **depths), rows, spec) == (
                    _scores_or_error(_SubsetScorer(loaded, spec, **depths), rows, spec)
                )

    def test_a_campaign_over_loaded_runs_keeps_the_runs_and_the_load_vocabulary(self):
        runs = ["t1 Q0 d2 1 2.0 A\nt2 Q0 d1 1 1.0 A\n", "t1 Q0 d3 1 1.0 B\n"]
        loaded = load_campaign(list(map(io.StringIO, runs)), io.StringIO("t1 0 d2 1\n"))
        (vocab,) = {c.vocab for run in loaded.runs for c in run.columns.values()}
        campaign = Campaign(loaded.runs, loaded.qrels)
        assert all(ours is theirs for ours, theirs in zip(campaign.runs, loaded.runs))
        assert campaign.vocab is vocab and loaded.vocab is vocab
        assert campaign.restricted_to_topics(["t1"]).vocab is vocab
