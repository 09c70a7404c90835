import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau as scipy_kendalltau
from scipy.stats import studentized_range as scipy_sr

import rareval.stats
from rareval import (
    Campaign,
    MetricConfig,
    MetricSpec,
    Qrels,
    ScoreMatrix,
    StabilityConfig,
    SubsetExperimentConfig,
    SynthSpec,
    build_rarity_index,
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
from rareval.errors import ConfigError, DataError, UndefinedRarityError
from rareval.rarity import CELL_BUDGET
from rareval.rng import MAX_SEED, substream
from rareval.stats import (
    _STREAM_STABILITY,
    SIGNIFICANCE_LEVELS,
    _SubsetScorer,
    _tau_b,
    _trial_samples,
    hsd_critical_difference,
)

import oracles
from conftest import make_run, metric_specs, tiny_campaigns

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

    @pytest.mark.parametrize("level, k, df", [
        (0.95, 2, 1), (0.99, 2, 2), (0.99, 300, 1), (0.95, 300, 2),
        (0.95, 64, 315), (0.99, 300, 20000), (0.95, 10, 20000), (0.99, 5, 20),
    ])
    def test_corners_against_scipy(self, level, k, df):
        # Heavy-tailed df = 1, 2 and up to 300 groups: the s-grid cut and its
        # closed-form tail must hold there.
        assert studentized_range_quantile(level, k, df) == pytest.approx(
            float(scipy_sr.ppf(level, k, df)), abs=1e-6
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

    @pytest.mark.parametrize("function, args, name, bad", [
        (studentized_range_cdf, (float("nan"), 3, 10), "q", float("nan")),
        (studentized_range_cdf, ("2", 3, 10), "q", "2"),
        (studentized_range_cdf, (2.0, 2.5, 10), "n_groups", 2.5),
        (studentized_range_cdf, (2.0, True, 10), "n_groups", True),
        (studentized_range_cdf, (2.0, 3, 10.5), "df", 10.5),
        (studentized_range_cdf, (2.0, 3, True), "df", True),
        (studentized_range_quantile, (0.95, 3, "10"), "df", "10"),
        (studentized_range_quantile, (0.95, 3.0, 10), "n_groups", 3.0),
        (studentized_range_quantile, (float("nan"), 3, 10), "level", float("nan")),
        (studentized_range_quantile, (float("inf"), 3, 10), "level", float("inf")),
        (studentized_range_quantile, ("0.95", 3, 10), "level", "0.95"),
        # Unhashable: checked before the cache looks them up.
        (studentized_range_quantile, (0.95, 3, [10]), "df", [10]),
        (studentized_range_quantile, (0.95, {3: 1}, 10), "n_groups", {3: 1}),
        (studentized_range_quantile, (0.95, 3, np.array([10])), "df", np.array([10])),
        (studentized_range_quantile, ([0.95], 3, 10), "level", [0.95]),
    ])
    def test_unscorable_input_is_a_config_error_naming_it(self, function, args, name, bad):
        with pytest.raises(ConfigError) as caught:
            function(*args)
        assert f"{name} " in str(caught.value) and repr(bad) in str(caught.value)

    def test_infinite_q_is_certain(self):
        assert studentized_range_cdf(float("inf"), 3, 10) == 1.0
        assert studentized_range_cdf(-float("inf"), 3, 10) == 0.0


# The grid over which the scipy-free studentized range is held to the former
# scipy-based one (tests/oracles.py).
ORACLE_GROUPS = (2, 3, 5, 10, 64, 300)
ORACLE_DFS = (1, 2, 5, 20, 252, 315, 20000)
ORACLE_QS = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 20.0, 50.0)


class TestStudentizedRangeAgainstScipyOracle:
    @pytest.mark.parametrize("k", ORACLE_GROUPS)
    def test_cdf_within_1e_12(self, k):
        for df in ORACLE_DFS:
            for q in ORACLE_QS:
                assert studentized_range_cdf(q, k, df) == pytest.approx(
                    oracles.scipy_studentized_range_cdf(q, k, df), rel=0, abs=1e-12
                ), (q, k, df)

    @pytest.mark.parametrize("k", ORACLE_GROUPS)
    def test_quantile_brackets_the_oracle_root_within_1e_9(self, k):
        # The oracle CDF crosses the level between q (1 - 1e-9) and q (1 + 1e-9):
        # the root the bisection oracle converges to is within 1e-9 relative.
        for level in SIGNIFICANCE_LEVELS:
            for df in ORACLE_DFS:
                q = studentized_range_quantile(level, k, df)
                below = oracles.scipy_studentized_range_cdf(q * (1 - 1e-9), k, df)
                above = oracles.scipy_studentized_range_cdf(q * (1 + 1e-9), k, df)
                assert below < level <= above, (level, k, df)

    @pytest.mark.parametrize("level", SIGNIFICANCE_LEVELS)
    @pytest.mark.parametrize("df", [252, 315])
    def test_quantile_equals_bisection_at_the_desk_shapes(self, level, df):
        # 64 systems over 6 topics (df 315), or 5 for the AP family, which
        # skips a topic without relevant documents (df 252): what discpower
        # needs on the benchmark's desk campaign.
        assert studentized_range_quantile(level, 64, df) == pytest.approx(
            oracles.bisection_studentized_range_quantile(level, 64, df), rel=1e-9
        )

    @pytest.mark.parametrize("level", SIGNIFICANCE_LEVELS)
    @pytest.mark.parametrize("df", [252, 315])
    def test_quantile_takes_at_most_16_cdf_evaluations(self, monkeypatch, level, df):
        calls = []

        def counting_cdf(*args):
            calls.append(args)
            return studentized_range_cdf(*args)

        monkeypatch.setattr("rareval.stats.studentized_range_cdf", counting_cdf)
        rareval.stats._range_quantile.__wrapped__(level, 64, df)  # past the cache
        assert 0 < len(calls) <= 16  # bisection to 1e-9 took 33


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


# Few distinct values, so exactly tied sampled means are routine.
_TIED_SCORES = st.sampled_from([0.0, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 1.0])


@st.composite
def stability_cases(draw):
    n_systems = draw(st.integers(2, 12))
    n_topics = draw(st.integers(1, 20))
    values = draw(
        st.lists(
            st.one_of(_TIED_SCORES, st.floats(0, 2, allow_nan=False)),
            min_size=n_systems * n_topics,
            max_size=n_systems * n_topics,
        )
    )
    skipped = draw(st.sets(st.integers(0, n_topics - 1), max_size=n_topics - 1))
    usable = n_topics - len(skipped)
    return (
        np.array(values).reshape(n_systems, n_topics),
        frozenset(skipped),
        draw(st.integers(1, usable)),
        draw(st.integers(1, 300)),
        draw(st.one_of(st.integers(0, 50), st.just(MAX_SEED))),
        draw(st.sampled_from(["winner", "fullset"])),
    )


def _matrix(values, skipped) -> ScoreMatrix:
    n_systems, n_topics = values.shape
    return ScoreMatrix(
        "m",
        tuple(f"s{i}" for i in range(n_systems)),
        tuple(f"t{j}" for j in range(n_topics)),
        values,
        frozenset(f"t{j}" for j in skipped),
    )


def _assert_matches_serial_loop(values, skipped, sample_size, trials, seed, direction):
    result = stability(
        None, None, StabilityConfig(sample_size, trials=trials, seed=seed),
        direction=direction, matrix=_matrix(values, skipped),
    )
    usable = [j for j in range(values.shape[1]) if j not in skipped]
    per_pair, overall = oracles.naive_stability(
        values[:, usable], sample_size, trials, seed, direction
    )
    assert result.per_pair == {(f"s{i}", f"s{j}"): v for (i, j), v in per_pair.items()}
    assert result.overall == overall
    assert result.trials == trials


class TestBatchedStability:
    """The blocked win count equals the serial per-trial loop exactly."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(stability_cases())
    def test_equals_serial_loop(self, case):
        _assert_matches_serial_loop(*case)

    @pytest.mark.parametrize("draws_per_block", [1, 7])
    def test_several_blocks_with_a_ragged_last_one(self, monkeypatch, draws_per_block):
        rng = np.random.default_rng(3)
        values = rng.choice([0.0, 0.25, 0.5, 1.0], size=(5, 10))
        sample_size, trials, seed = 3, 60, 4  # 59 distinct draws, one drawn twice
        distinct = np.unique(_trial_samples(seed, 10, sample_size, trials), axis=0)
        assert len(distinct) > 7 and len(distinct) % 7 != 0
        # Per draw a block holds 5 x 3 gathered scores and 10 pair differences.
        cells_per_draw = max(5 * sample_size, 5 * 4 // 2)
        monkeypatch.setattr(
            rareval.stats, "_STABILITY_BLOCK_CELLS", draws_per_block * cells_per_draw
        )
        for direction in ("winner", "fullset"):
            _assert_matches_serial_loop(values, frozenset(), sample_size, trials, seed, direction)

    def test_draws_are_the_substream_draws_and_read_only(self):
        draws = _trial_samples(9, 300, 4, 30)
        assert draws.dtype == np.uint16
        for trial in range(30):
            expected = substream(9, _STREAM_STABILITY, trial).choice(300, size=4, replace=False)
            assert draws[trial].tolist() == expected.tolist()
        assert _trial_samples(9, 300, 4, 30) is draws
        with pytest.raises(ValueError):
            draws[0, 0] = 1


def _subset_outcome(run):
    """``run()``'s (mean tau, resamples) as (hex, int), or its DataError."""
    try:
        mean_tau, resamples = run()
    except DataError as exc:
        return type(exc), str(exc)
    return mean_tau.hex(), resamples


def _assert_subset_matches_loop(campaign, spec, size, trials, seed, rarity_depth=None):
    def blocked():
        config = SubsetExperimentConfig(size, trials=trials, seed=seed)
        result = subset_experiment(campaign, spec, config, rarity_depth=rarity_depth)
        assert (result.trials, result.subset_size) == (trials, size)
        return result.mean_tau, result.resamples

    def loop():
        scorer = _SubsetScorer(campaign, spec, rarity_depth=rarity_depth, ap_depth="cutoff")
        return oracles.loop_subset_experiment(
            scorer.subset_means, campaign.n_systems, size, trials, seed
        )

    expected = _subset_outcome(loop)
    assert _subset_outcome(blocked) == expected
    return expected


_KINDS = ["p", "ap", "p_rareness", "ap_rareness", "p_mixture"]


def _identical_systems(n: int) -> Campaign:
    """``n`` systems with the same rankings: every subset is fully tied."""
    return Campaign(
        [make_run(f"s{i}", {"t1": ["d1", "d2"], "t2": ["d3"]}) for i in range(n)],
        Qrels({"t1": {"d1": 1, "d2": 1}, "t2": {"d3": 1, "d4": 1}}),
    )


class TestBatchedSubset:
    """Blocks of trials give the per-trial loop's result: mean tau to the bit,
    resample counts, and the first error with its message."""

    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(
        campaign=tiny_campaigns(),
        spec=st.sampled_from(_KINDS).flatmap(metric_specs),
        data=st.data(),
        trials=st.integers(1, 25),
        seed=st.one_of(st.integers(0, 50), st.just(MAX_SEED)),
        rarity_depth=st.none() | st.integers(1, 4),
    )
    def test_equals_the_per_trial_loop(self, campaign, spec, data, trials, seed, rarity_depth):
        assume(campaign.n_systems >= 2)
        size = data.draw(st.integers(2, campaign.n_systems))
        _assert_subset_matches_loop(campaign, spec, size, trials, seed, rarity_depth)

    @pytest.mark.parametrize("name", ["P@30_rareness(alpha=1)", "AP_rareness(alpha=0.5)",
                                      "P@30_mixture(alpha=0.5,rarity=revised)", "P@10"])
    @pytest.mark.parametrize("size", [2, 5, 10])
    def test_equals_the_loop_on_a_generated_campaign(self, hetero_campaign, name, size):
        spec = MetricSpec.parse(name)
        mean_tau, resamples = _assert_subset_matches_loop(hetero_campaign, spec, size, 60, 3)
        assert isinstance(resamples, int)

    def test_resampled_trials_equal_the_loop(self):
        base = generate_campaign(SynthSpec(2, 3, 8, 120, overlap_bias=0.5, run_depth=15, seed=4))
        a, b = base.runs
        twins = [make_run(f"{r.system_id}-twin", {t: list(r.docs(t)) for t in r.rankings})
                 for r in (a, b)]
        campaign = Campaign([a, b, *twins], base.qrels)
        spec = MetricSpec.parse("P@15_rareness(alpha=1)")
        _, resamples = _assert_subset_matches_loop(campaign, spec, 2, 60, 9)
        assert resamples > 0

    def test_undefined_rarity_raises_the_loops_error(self, hetero_campaign):
        spec = MetricSpec.parse("P@20_rareness(alpha=1)")
        error = _assert_subset_matches_loop(hetero_campaign, spec, 4, 5, 6, rarity_depth=5)
        assert error[0] is UndefinedRarityError
        assert error[1].startswith("no scored system retrieved '")

    def test_a_trial_without_a_count_raises_the_loops_error(self):
        # At count depth 1, A's hit d1 (rank 2) is counted by B alone: the
        # full campaign scores, and a trial drawing A and C does not.
        campaign = Campaign(
            [make_run("A", {"t0": ["d2", "d1"]}), make_run("B", {"t0": ["d1"]}),
             make_run("C", {"t0": ["d3"]})],
            Qrels({"t0": {"d1": 1, "d2": 1}}),
        )
        spec = MetricSpec.parse("P@2_rareness(alpha=1)")
        scorer = _SubsetScorer(campaign, spec, rarity_depth=1, ap_depth="cutoff")
        scorer.subset_means(np.arange(3))
        error = _assert_subset_matches_loop(campaign, spec, 2, 20, 5, rarity_depth=1)
        assert error == (
            UndefinedRarityError,
            "no scored system retrieved 'd1' for topic 't0' within count depth 1",
        )

    def test_degenerate_campaign_raises_the_loops_error(self):
        error = _assert_subset_matches_loop(
            _identical_systems(3), MetricSpec.parse("P@2"), 2, 4, 1
        )
        assert error == (DataError, "tau undefined in 100 consecutive resamples; "
                                    "the campaign is too degenerate for this experiment")

    @pytest.mark.parametrize("trials_per_block", [1, 3])
    def test_blocks_of_one_trial_and_a_ragged_last_block(
        self, hetero_campaign, monkeypatch, trials_per_block
    ):
        size, trials = 4, 10  # at three trials a block, the last holds one
        spec = MetricSpec.parse("AP_rareness(alpha=1)")
        width = _SubsetScorer(hetero_campaign, spec, rarity_depth=None, ap_depth="cutoff").width
        slots = trials_per_block * size * max(width, size)
        monkeypatch.setattr(rareval.stats, "_BLOCK_SLOTS", slots)
        blocks = []
        spy = rareval.stats._SubsetScorer.subset_means
        monkeypatch.setattr(
            rareval.stats._SubsetScorer, "subset_means",
            lambda scorer, rows, *a: blocks.append(np.shape(rows)) or spy(scorer, rows, *a),
        )
        _assert_subset_matches_loop(hetero_campaign, spec, size, trials, 12)
        ours = [shape[0] for shape in blocks if len(shape) == 2]
        assert sum(ours) == trials and max(ours) == trials_per_block

    def test_a_run_of_sizes_builds_one_scorer(self, hetero_campaign, monkeypatch):
        built = []
        scorer = rareval.stats._SubsetScorer
        monkeypatch.setattr(
            rareval.stats, "_SubsetScorer", lambda *a, **kw: built.append(1) or scorer(*a, **kw)
        )
        spec = MetricSpec.parse("P@30_rareness(alpha=1)")
        for size in (2, 4, 8):
            subset_experiment(hetero_campaign, spec, SubsetExperimentConfig(size, trials=5))
        assert len(built) == 1
        other = MetricSpec.parse("P@30_rareness(alpha=0.5)")
        subset_experiment(hetero_campaign, other, SubsetExperimentConfig(2, trials=5))
        assert len(built) == 2

    def test_new_qrels_on_the_same_campaign_are_not_served_the_last_scorer(self):
        shape = SynthSpec(12, 4, 10, 60, 0.4, 15, seed=3)
        spec = MetricSpec.parse("P@10_rareness")
        config = SubsetExperimentConfig(4, trials=50, seed=1)

        def regraded(campaign):
            # Every second judged doc of a topic, in doc-id order, passes threshold 2.
            return dataclasses.replace(campaign, qrels=Qrels(
                {t: {d: 1 + (i % 2 == 0) for i, d in enumerate(sorted(by_doc))}
                 for t, by_doc in campaign.qrels.judgments.items()},
                relevance_threshold=2,
            ))

        campaign = generate_campaign(shape)
        before = subset_experiment(campaign, spec, config).mean_tau
        same_runs = regraded(campaign)
        assert all(a is b for a, b in zip(same_runs.runs, campaign.runs, strict=True))
        after = subset_experiment(same_runs, spec, config).mean_tau
        # Runs no earlier call has seen: nothing can be served from the memo.
        fresh = subset_experiment(regraded(generate_campaign(shape)), spec, config)
        assert after == fresh.mean_tau != before


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
                assert fast.tolist() == [slow[ids[i]] for i in subset]

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
            assert fast.tolist() == [slow[ids[i]] for i in subset]

    @pytest.mark.parametrize("name", ["P@20", "AP"])
    def test_base_metrics_ignore_a_shallow_rarity_depth(self, hetero_campaign, name):
        spec = MetricSpec.parse(name, default_cutoff=20)
        config = SubsetExperimentConfig(4, trials=30, seed=6)
        shallow = subset_experiment(hetero_campaign, spec, config, rarity_depth=5)
        assert shallow == subset_experiment(hetero_campaign, spec, config, rarity_depth=None)

    def test_weighted_metrics_at_a_shallow_rarity_depth_name_the_document(
        self, hetero_campaign
    ):
        spec = MetricSpec.parse("P@20_rareness(alpha=1)")
        config = SubsetExperimentConfig(4, trials=5, seed=6)
        with pytest.raises(UndefinedRarityError, match="no scored system retrieved '.*"
                           "within count depth 5"):
            subset_experiment(hetero_campaign, spec, config, rarity_depth=5)

    @pytest.mark.parametrize("depth", [0, -3])
    def test_nonpositive_rarity_depth_rejected(self, hetero_campaign, depth):
        with pytest.raises(DataError, match=f"count depth must be >= 1 or None, got {depth}"):
            _SubsetScorer(
                hetero_campaign, MetricSpec.parse("P@20"), rarity_depth=depth,
                ap_depth="cutoff",
            )

    def test_seeded_determinism(self, hetero_campaign):
        spec = MetricSpec.parse("AP_rareness(alpha=1)")
        config = SubsetExperimentConfig(4, trials=60, seed=13)
        one = subset_experiment(hetero_campaign, spec, config)
        two = subset_experiment(hetero_campaign, spec, config)
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


# Every entry point that counts retrievals rejects a count depth below 1, with
# the one message, even for a base metric that reads no counts.
_COUNT_DEPTH_ENTRIES = {
    "evaluate_campaign": lambda c, d: evaluate_campaign(
        c, [MetricSpec.parse("P@3")], rarity_depth=d
    ),
    "stability": lambda c, d: stability(
        c, MetricSpec.parse("P@3"), StabilityConfig(1, trials=5), rarity_depth=d
    ),
    "subset_experiment": lambda c, d: subset_experiment(
        c, MetricSpec.parse("P@3"), SubsetExperimentConfig(2, trials=5), rarity_depth=d
    ),
    "build_rarity_index": build_rarity_index,
}


@pytest.mark.parametrize("depth", [0, -1])
@pytest.mark.parametrize("entry", sorted(_COUNT_DEPTH_ENTRIES))
def test_nonpositive_count_depth_rejected_by_every_entry(toy4, entry, depth):
    with pytest.raises(DataError, match=f"count depth must be >= 1 or None, got {depth}$"):
        _COUNT_DEPTH_ENTRIES[entry](toy4, depth)


# A depth is None, an integer of at least 1 (numpy's too, not a bool) or, for
# the AP depth only, "cutoff"; anything else is rejected by the same check
# that rejects a depth below 1, naming the value's repr.
_DEPTH_ENTRIES = {
    "evaluate_campaign": lambda c, spec, **depth: evaluate_campaign(c, [spec], **depth),
    "stability": lambda c, spec, **depth: stability(
        c, spec, StabilityConfig(1, trials=5), **depth
    ),
    "subset_experiment": lambda c, spec, **depth: subset_experiment(
        c, spec, SubsetExperimentConfig(2, trials=5), **depth
    ),
}


@pytest.mark.parametrize(
    "keyword, value, error",
    [
        ("ap_depth", "full", ConfigError),
        ("ap_depth", "3", ConfigError),
        ("ap_depth", 2.5, ConfigError),
        ("ap_depth", True, ConfigError),
        ("rarity_depth", "2", DataError),
        ("rarity_depth", 1.5, DataError),
        ("rarity_depth", True, DataError),
        ("rarity_depth", "cutoff", DataError),
    ],
)
@pytest.mark.parametrize("entry", sorted(_DEPTH_ENTRIES))
def test_depth_of_the_wrong_type_rejected_by_every_entry(toy4, entry, keyword, value, error):
    spec = MetricSpec.parse("AP_rareness")
    with pytest.raises(error, match=re.escape(f"got {value!r}") + "$") as raised:
        _DEPTH_ENTRIES[entry](toy4, spec, **{keyword: value})
    assert type(raised.value) is error


def test_numpy_integer_depths_score_as_python_ints(toy4):
    spec = MetricSpec.parse("AP_rareness")
    (numpy_depths,) = evaluate_campaign(
        toy4, [spec], ap_depth=np.int32(2), rarity_depth=np.int64(3)
    )
    (int_depths,) = evaluate_campaign(toy4, [spec], ap_depth=2, rarity_depth=3)
    assert numpy_depths.values.tolist() == int_depths.values.tolist()


@pytest.mark.parametrize(
    "config, fields, message",
    [
        (MetricConfig, {"alpha": "0.5"}, "alpha must be a finite number, got '0.5'"),
        (MetricConfig, {"alpha": None}, "alpha must be a finite number, got None"),
        (MetricConfig, {"alpha": True}, "alpha must be a finite number, got True"),
        (StabilityConfig, {"sample_size": "3"}, "sample size must be an integer >= 1, got '3'"),
        (StabilityConfig, {"sample_size": 2.5}, "sample size must be an integer >= 1, got 2.5"),
        (StabilityConfig, {"sample_size": True}, "sample size must be an integer >= 1, got True"),
        (StabilityConfig, {"sample_size": 1, "trials": 2.5},
         "trial count must be an integer >= 1, got 2.5"),
        (StabilityConfig, {"sample_size": 1, "seed": 1.5},
         f"seed must be an integer in 0..{MAX_SEED}, got 1.5"),
        (StabilityConfig, {"sample_size": 1, "seed": "1"},
         f"seed must be an integer in 0..{MAX_SEED}, got '1'"),
        (SubsetExperimentConfig, {"subset_size": "4"},
         "subset size must be an integer >= 2, got '4'"),
        (SubsetExperimentConfig, {"subset_size": 2.5},
         "subset size must be an integer >= 2, got 2.5"),
        (SubsetExperimentConfig, {"subset_size": 2, "trials": True},
         "trial count must be an integer >= 1, got True"),
        (SubsetExperimentConfig, {"subset_size": 2, "seed": -1},
         f"seed must be an integer in 0..{MAX_SEED}, got -1"),
        (StabilityConfig, {"sample_size": 1, "trials": 2**64},
         f"trial count {2**64} x sample size 1 exceeds the budget of {CELL_BUDGET} trial cells"),
        (StabilityConfig, {"sample_size": 2**64, "trials": 1},
         f"trial count 1 x sample size {2**64} exceeds the budget of {CELL_BUDGET} trial cells"),
        (StabilityConfig, {"sample_size": 2, "trials": CELL_BUDGET // 2 + 1},
         f"trial count {CELL_BUDGET // 2 + 1} x sample size 2 exceeds the budget of "
         f"{CELL_BUDGET} trial cells"),
        (SubsetExperimentConfig, {"subset_size": 2, "trials": 2**64},
         f"trial count {2**64} x subset size 2 exceeds the budget of {CELL_BUDGET} trial cells"),
        (SubsetExperimentConfig, {"subset_size": 2**64, "trials": 1},
         f"trial count 1 x subset size {2**64} exceeds the budget of {CELL_BUDGET} trial cells"),
    ],
)
def test_config_field_of_the_wrong_type_is_a_config_error_naming_it(config, fields, message):
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        config(**fields)


def test_trial_cell_budget_admits_the_protocols_up_to_its_edge():
    StabilityConfig(50, trials=20_000)
    SubsetExperimentConfig(100, trials=1000)
    StabilityConfig(2, trials=CELL_BUDGET // 2)
    SubsetExperimentConfig(CELL_BUDGET, trials=1)
