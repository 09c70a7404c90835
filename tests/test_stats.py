import itertools

import numpy as np
import pytest
from scipy.stats import kendalltau as scipy_kendalltau
from scipy.stats import studentized_range as scipy_sr

from rareval import (
    Campaign,
    MetricSpec,
    Qrels,
    ScoreMatrix,
    StabilityConfig,
    SubsetExperimentConfig,
    SynthSpec,
    discriminative_power,
    evaluate_campaign,
    generate_campaign,
    kendall_tau,
    mean_scores,
    rank_systems,
    stability,
    studentized_range_cdf,
    studentized_range_quantile,
    subset_experiment,
)
from rareval.errors import ConfigError, DataError
from rareval.rng import substream
from rareval.stats import _STREAM_STABILITY, _SubsetScorer, _tau_b, hsd_critical_difference

import oracles
from conftest import make_run

# Upper studentized-range quantiles from standard published tables.
PUBLISHED_Q = {
    (0.95, 3, 10): 3.88,
    (0.99, 5, 20): 5.29,
}


def ranking_from(values: dict[str, float]):
    return rank_systems(values)


class TestKendallTau:
    def test_identical_is_one(self):
        a = ranking_from({"A": 0.3, "B": 0.2, "C": 0.1})
        assert kendall_tau(a, a) == 1.0

    def test_reversed_is_minus_one(self):
        a = ranking_from({"A": 0.3, "B": 0.2, "C": 0.1})
        b = ranking_from({"A": 0.1, "B": 0.2, "C": 0.3})
        assert kendall_tau(a, b) == -1.0

    def test_single_swap_on_three(self):
        a = ranking_from({"A": 3.0, "B": 2.0, "C": 1.0})
        b = ranking_from({"A": 2.0, "B": 3.0, "C": 1.0})
        assert kendall_tau(a, b) == pytest.approx(1 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = ranking_from({f"s{i}": float(rng.choice([1, 2, 3, 4])) for i in range(6)})
            b = ranking_from({f"s{i}": float(rng.choice([1, 2, 3, 4])) for i in range(6)})
            try:
                assert kendall_tau(a, b) == kendall_tau(b, a)
            except DataError:
                pass  # fully tied draw

    def test_mismatched_systems(self):
        a = ranking_from({"A": 1.0, "B": 0.5})
        b = ranking_from({"A": 1.0, "C": 0.5})
        with pytest.raises(DataError, match="different system sets"):
            kendall_tau(a, b)

    def test_too_few_systems(self):
        a = ranking_from({"A": 1.0})
        with pytest.raises(DataError, match="at least 2"):
            kendall_tau(a, a)

    def test_all_tied_is_an_error(self):
        a = ranking_from({"A": 1.0, "B": 1.0})
        b = ranking_from({"A": 1.0, "B": 0.5})
        with pytest.raises(DataError, match="tied"):
            kendall_tau(a, b)

    def test_all_24_permutations_of_4_match_pair_counting(self):
        base = [1.0, 2.0, 3.0, 4.0]
        ids = ["a", "b", "c", "d"]
        reference = ranking_from(dict(zip(ids, base)))
        for perm in itertools.permutations(base):
            other = ranking_from(dict(zip(ids, perm)))
            expected = oracles.naive_tau_b(
                [reference.ranks_by_system()[i] for i in ids],
                [other.ranks_by_system()[i] for i in ids],
            )
            assert kendall_tau(reference, other) == pytest.approx(expected, abs=1e-12)

    def test_ties_match_pair_counting(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            ids = [f"s{i}" for i in range(n)]
            a = ranking_from({i: float(rng.choice([1, 2, 3])) for i in ids})
            b = ranking_from({i: float(rng.choice([1, 2, 3])) for i in ids})
            va = [a.ranks_by_system()[i] for i in ids]
            vb = [b.ranks_by_system()[i] for i in ids]
            try:
                expected = oracles.naive_tau_b(va, vb)
            except ZeroDivisionError:
                continue
            assert kendall_tau(a, b) == pytest.approx(expected, abs=1e-12)


    def test_tau_b_equals_scipy_bitwise(self):
        rng = np.random.default_rng(5)
        pairs = [
            ([1.0, 2.0], [2.0, 1.0]),  # n = 2
            ([1.0, 2.0], [1.0, 2.0]),
            ([3.0, 1.0, 2.0, 2.0], [3.0, 1.0, 2.0, 2.0]),  # identical, tied
        ]
        for _ in range(2000):
            n = int(rng.integers(2, 25))
            x = rng.integers(0, int(rng.integers(2, 7)), n) / 3.0
            y = rng.integers(0, int(rng.integers(2, 7)), n) / 7.0
            pairs.append((x, y))
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                expected = scipy_kendalltau(a, b, variant="b").statistic
                # equal_nan: random draws include fully tied sides
                assert np.array_equal([_tau_b(a, b)], [expected], equal_nan=True)

    def test_tau_b_is_nan_when_a_side_is_fully_tied(self):
        assert np.isnan(_tau_b([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
        assert np.isnan(_tau_b([1.0, 2.0], [0.5, 0.5]))
        assert np.isnan(scipy_kendalltau([1.0, 2.0], [0.5, 0.5], variant="b").statistic)

    def test_tau_b_blocks_match_one_pass(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 9, 300) / 4.0
        y = x + rng.integers(0, 3, 300)
        whole = _tau_b(x, y)
        monkeypatch.setattr("rareval.stats._TAU_BLOCK_CELLS", 1000)
        assert _tau_b(x, y) == whole == scipy_kendalltau(x, y, variant="b").statistic


class TestStudentizedRange:
    def test_published_table_values(self):
        for (level, k, df), expected in PUBLISHED_Q.items():
            assert studentized_range_quantile(level, k, df) == pytest.approx(
                expected, abs=0.01
            )

    def test_against_scipy(self):
        for level, k, df in [(0.95, 3, 10), (0.99, 5, 20), (0.95, 10, 40), (0.99, 20, 100)]:
            assert studentized_range_quantile(level, k, df) == pytest.approx(
                float(scipy_sr.ppf(level, k, df)), abs=5e-4
            )

    def test_cdf_monotone_and_bounded(self):
        grid = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0]
        values = [studentized_range_cdf(q, 4, 12) for q in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            studentized_range_quantile(1.5, 3, 10)
        with pytest.raises(ConfigError):
            studentized_range_cdf(2.0, 1, 10)
        with pytest.raises(ConfigError):
            studentized_range_cdf(2.0, 3, 0)


def matrix_of(values, metric="P@5") -> ScoreMatrix:
    values = np.asarray(values, dtype=float)
    systems = tuple(f"s{i}" for i in range(values.shape[0]))
    topics = tuple(f"t{j}" for j in range(values.shape[1]))
    return ScoreMatrix(metric, systems, topics, values, frozenset())


class TestDiscriminativePower:
    def test_identical_systems_have_zero_pairs(self):
        matrix = matrix_of(np.tile([0.4, 0.6, 0.5], (4, 1)))
        assert discriminative_power(matrix, 0.95) == 0

    def test_zero_residual_separates_unequal_means(self):
        matrix = matrix_of(np.vstack([np.ones(5), np.zeros(5)]))
        assert discriminative_power(matrix, 0.95) == 1
        assert discriminative_power(matrix, 0.99) == 1

    def test_zero_residual_keeps_equal_means_together(self):
        matrix = matrix_of(np.vstack([np.ones(5), np.ones(5), np.zeros(5)]))
        assert discriminative_power(matrix, 0.95) == 2

    def test_stricter_level_never_finds_more(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            shape = (int(rng.integers(3, 8)), int(rng.integers(3, 10)))
            matrix = matrix_of(rng.random(shape))
            assert discriminative_power(matrix, 0.99) <= discriminative_power(matrix, 0.95)

    def test_level_domain(self):
        matrix = matrix_of(np.random.default_rng(0).random((3, 4)))
        with pytest.raises(ConfigError, match="significance level"):
            discriminative_power(matrix, 0.9)

    def test_degenerate_shapes(self):
        with pytest.raises(DataError):
            hsd_critical_difference(np.ones((1, 5)), 0.95)
        with pytest.raises(DataError):
            hsd_critical_difference(np.ones((5, 1)), 0.95)

    def test_hand_checked_blocked_anova(self):
        # 3 systems x 4 topics with an exact additive structure plus one bump.
        base = np.array([0.1, 0.2, 0.3, 0.4])
        values = np.vstack([base, base + 0.05, base + 0.5])
        values[2, 3] += 0.12
        matrix = matrix_of(values)
        n, t = values.shape
        sys_means = values.mean(axis=1)
        grand = values.mean()
        topic_means = values.mean(axis=0)
        resid = values - sys_means[:, None] - topic_means[None, :] + grand
        mse = (resid**2).sum() / ((n - 1) * (t - 1))
        cd = studentized_range_quantile(0.95, n, (n - 1) * (t - 1)) * np.sqrt(mse / t)
        expected = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if abs(sys_means[i] - sys_means[j]) > cd
        )
        assert discriminative_power(matrix, 0.95) == expected


@pytest.fixture(scope="module")
def hetero_campaign() -> Campaign:
    return generate_campaign(
        SynthSpec(10, 8, 12, 200, overlap_bias=0.5, run_depth=30, seed=21)
    )


class TestStability:
    def _pair_campaign(self, a_scores, b_scores) -> Campaign:
        # One doc per topic; a relevant doc retrieved at rank 1 when the
        # system should win that topic, otherwise a miss.
        topics = [f"t{i}" for i in range(len(a_scores))]
        runs_a = {t: ([f"rel-{t}"] if a_scores[i] else ["junk"]) for i, t in enumerate(topics)}
        runs_b = {t: ([f"rel-{t}"] if b_scores[i] else ["junk"]) for i, t in enumerate(topics)}
        qrels = Qrels({t: {f"rel-{t}": 1} for t in topics})
        return Campaign([make_run("A", runs_a), make_run("B", runs_b)], qrels)

    def test_dominant_pair_scores_one(self):
        campaign = self._pair_campaign([1] * 6, [0] * 6)
        result = stability(
            campaign, MetricSpec.parse("P@1"), StabilityConfig(3, trials=200, seed=1)
        )
        assert result.per_pair[("A", "B")] == 1.0
        assert result.overall == 1.0

    def test_identical_pair_scores_half(self):
        campaign = self._pair_campaign([1, 0, 1, 0], [1, 0, 1, 0])
        result = stability(
            campaign, MetricSpec.parse("P@1"), StabilityConfig(2, trials=150, seed=1)
        )
        assert result.per_pair[("A", "B")] == 0.5

    def test_planted_seventy_percent_pair(self):
        # A wins 7 of 10 topics; single-topic samples make each trial a
        # draw from those win probabilities.
        campaign = self._pair_campaign([1] * 7 + [0] * 3, [0] * 7 + [1] * 3)
        config = StabilityConfig(1, trials=1000, seed=77)
        result = stability(campaign, MetricSpec.parse("P@1"), config)
        # Independent recount of the same substreams.
        wins = 0.0
        for trial in range(config.trials):
            topic = substream(config.seed, _STREAM_STABILITY, trial).choice(10, size=1, replace=False)[0]
            wins += 1.0 if topic < 7 else 0.0
        expected = max(wins, config.trials - wins) / config.trials
        assert result.per_pair[("A", "B")] == expected
        assert result.per_pair[("A", "B")] == pytest.approx(0.7, abs=0.05)

    def test_thread_count_never_changes_results(self, hetero_campaign):
        spec = MetricSpec.parse("P@30_rareness(alpha=1)")
        config = StabilityConfig(4, trials=120, seed=5)
        single = stability(hetero_campaign, spec, config, threads=1)
        multi = stability(hetero_campaign, spec, config, threads=4)
        assert single.per_pair == multi.per_pair
        assert single.overall == multi.overall

    def test_overall_within_bounds_and_relabel_invariant(self, hetero_campaign):
        spec = MetricSpec.parse("P@30_rareness(alpha=1)")
        result = stability(hetero_campaign, spec, StabilityConfig(4, trials=80, seed=5))
        assert 0.5 <= result.overall <= 1.0
        relabeled = Campaign(
            [make_run(f"zz-{r.system_id}", {t: list(r.docs(t)) for t in r.rankings})
             for r in hetero_campaign.runs],
            hetero_campaign.qrels,
        )
        again = stability(relabeled, spec, StabilityConfig(4, trials=80, seed=5))
        assert again.overall == result.overall

    def test_sample_size_exceeding_topics(self, hetero_campaign):
        with pytest.raises(DataError, match="exceeds"):
            stability(
                hetero_campaign, MetricSpec.parse("P@30"), StabilityConfig(99, trials=10)
            )

    def test_fullset_direction_tracks_fullset_winner(self):
        campaign = self._pair_campaign([1] * 7 + [0] * 3, [0] * 7 + [1] * 3)
        config = StabilityConfig(1, trials=400, seed=3)
        winner = stability(campaign, MetricSpec.parse("P@1"), config)
        fullset = stability(
            campaign, MetricSpec.parse("P@1"), config, direction="fullset"
        )
        # A is the full-set winner here, so the two notions coincide.
        assert fullset.per_pair == winner.per_pair

    def test_fullset_direction_can_drop_below_half(self):
        # Full-set winner A wins 2 topics narrowly, loses 1 big topic; with
        # single-topic samples the sampled order usually matches, but make B
        # the overall winner by score while A wins most topics.
        topics = ["t0", "t1", "t2"]
        qrels = Qrels(
            {t: {f"r{t}-{i}": 1 for i in range(4)} for t in topics}
        )
        # A: P@4 of 0.5, 0.5, 0.0 / B: 0.25, 0.25, 1.0 -> means 1/3 vs 0.5
        run_a = {
            "t0": ["rt0-0", "rt0-1", "x1", "x2"],
            "t1": ["rt1-0", "rt1-1", "x3", "x4"],
            "t2": ["x5", "x6", "x7", "x8"],
        }
        run_b = {
            "t0": ["rt0-2", "y1", "y2", "y3"],
            "t1": ["rt1-2", "y4", "y5", "y6"],
            "t2": ["rt2-0", "rt2-1", "rt2-2", "rt2-3"],
        }
        campaign = Campaign([make_run("A", run_a), make_run("B", run_b)], qrels)
        config = StabilityConfig(1, trials=600, seed=11)
        fullset = stability(campaign, MetricSpec.parse("P@4"), config, direction="fullset")
        winner = stability(campaign, MetricSpec.parse("P@4"), config)
        assert fullset.per_pair[("A", "B")] < 0.5 < winner.per_pair[("A", "B")]


class TestSubsetExperiment:
    def test_full_subset_is_exactly_one(self, hetero_campaign):
        spec = MetricSpec.parse("P@30_rareness(alpha=1)")
        result = subset_experiment(
            hetero_campaign, spec, SubsetExperimentConfig(10, trials=40, seed=2)
        )
        assert result.mean_tau == 1.0
        assert result.resamples == 0

    def test_duplicated_systems_keep_tau_at_one(self):
        base = generate_campaign(
            SynthSpec(2, 3, 8, 120, overlap_bias=0.5, run_depth=15, seed=4)
        )
        a, b = base.runs
        twin = Campaign(
            [
                a,
                b,
                make_run("A2", {t: list(a.docs(t)) for t in a.rankings}),
                make_run("B2", {t: list(b.docs(t)) for t in b.rankings}),
            ],
            base.qrels,
        )
        spec = MetricSpec.parse("P@15_rareness(alpha=1)")
        result = subset_experiment(
            twin, spec, SubsetExperimentConfig(2, trials=60, seed=9)
        )
        assert result.mean_tau == 1.0
        assert result.resamples > 0  # twin pairs are fully tied and resampled

    def test_fast_path_matches_plain_evaluation(self, hetero_campaign):
        ids = hetero_campaign.system_ids
        for spec_name in (
            "P@30_rareness(alpha=1)",
            "P@30_rareness(alpha=0.5,rarity=revised)",
            "AP_rareness(alpha=1)",
            "P@30_mixture(alpha=0.5,rarity=revised)",
            "P@30",
            "AP",
        ):
            spec = MetricSpec.parse(spec_name)
            scorer = _SubsetScorer(
                hetero_campaign, spec, rarity_depth=None, ap_depth="cutoff"
            )
            rng = np.random.default_rng(31)
            for _ in range(3):
                subset = np.sort(rng.choice(len(ids), size=5, replace=False))
                fast = scorer.subset_means(subset)
                subcampaign = Campaign(
                    [hetero_campaign.run_for(ids[i]) for i in subset],
                    hetero_campaign.qrels,
                )
                slow = mean_scores(evaluate_campaign(subcampaign, [spec])[0])
                assert np.allclose(
                    fast, [slow[ids[i]] for i in subset], atol=1e-12, rtol=0
                )

    def test_fast_path_matches_plain_evaluation_at_restricted_depth(self, hetero_campaign):
        ids = hetero_campaign.system_ids
        spec = MetricSpec.parse("P@20_rareness(alpha=1)")
        scorer = _SubsetScorer(hetero_campaign, spec, rarity_depth=20, ap_depth="cutoff")
        rng = np.random.default_rng(17)
        for _ in range(3):
            subset = np.sort(rng.choice(len(ids), size=4, replace=False))
            fast = scorer.subset_means(subset)
            subcampaign = Campaign(
                [hetero_campaign.run_for(ids[i]) for i in subset],
                hetero_campaign.qrels,
            )
            slow = mean_scores(
                evaluate_campaign(subcampaign, [spec], rarity_depth=20)[0]
            )
            assert np.allclose(fast, [slow[ids[i]] for i in subset], atol=1e-12, rtol=0)

    def test_seeded_determinism_and_thread_invariance(self, hetero_campaign):
        spec = MetricSpec.parse("AP_rareness(alpha=1)")
        config = SubsetExperimentConfig(4, trials=60, seed=13)
        one = subset_experiment(hetero_campaign, spec, config, threads=1)
        two = subset_experiment(hetero_campaign, spec, config, threads=3)
        assert one.mean_tau == two.mean_tau
        assert one.resamples == two.resamples

    def test_subset_size_bounds(self, hetero_campaign):
        spec = MetricSpec.parse("P@30")
        with pytest.raises(ConfigError):
            SubsetExperimentConfig(1, trials=10)
        with pytest.raises(DataError, match="exceeds"):
            subset_experiment(
                hetero_campaign, spec, SubsetExperimentConfig(11, trials=10)
            )

    def test_alpha_zero_equals_base_metric_everywhere(self, hetero_campaign):
        zero = MetricSpec.parse("P@30_rareness(alpha=0)")
        base = MetricSpec.parse("P@30")
        config = SubsetExperimentConfig(4, trials=30, seed=8)
        assert (
            subset_experiment(hetero_campaign, zero, config).mean_tau
            == subset_experiment(hetero_campaign, base, config).mean_tau
        )
        stab_cfg = StabilityConfig(4, trials=50, seed=8)
        assert (
            stability(hetero_campaign, zero, stab_cfg).per_pair
            == stability(hetero_campaign, base, stab_cfg).per_pair
        )
        matrices = evaluate_campaign(hetero_campaign, [zero, base])
        assert discriminative_power(matrices[0], 0.95) == discriminative_power(
            matrices[1], 0.95
        )
